//! The compiled verification backend: definitions lowered to an explicit
//! labelled transition system with interned states.
//!
//! The enumerative engine ([`Lts::traces_budgeted`]) recomputes the
//! transition relation at every `(trace, configuration)` pair it visits —
//! for a confluent network the same configuration is re-stepped once per
//! interleaving that reaches it, and each step re-resolves alphabets and
//! re-closes operand environments. [`CompiledLts`] removes exactly that
//! redundancy: configurations are interned into an arena of [`StateId`]s
//! the first time they are seen, the enabled steps of each state are
//! computed once (on the fly, so parallel composition and hiding are
//! still product automata over *reachable* states only, never
//! materialised trace sets), and every later visit is a table lookup.
//!
//! Networks are compiled component by component. A network state is held
//! as a *skeleton* id plus a vector of *component* ids. The skeleton is
//! the `chan`/`||` spine of the term in one environment, with its pinned
//! alphabets, synchronisation sets and hidden sets resolved once. A
//! configuration's spine is read in place: a pinned alphabet is known by
//! its form (integer-literal subscripts, channels strictly ascending), a
//! skeleton is found by a randomly keyed hash of the spine as written
//! (environment, node kinds, alphabets, hidden channels) and confirmed
//! node by node, and sets are resolved only for a new skeleton. A
//! component is a closed subterm below the spine; its row comes from
//! [`Lts::steps`] once per arena. A network row runs the `||` and `chan`
//! rules of [`Lts::steps`] over the component rows, and each successor is
//! the same skeleton with the moved components' ids replaced, interned
//! by hashing the id vector: no term is built or compared. The moves of a
//! row are built in two buffers the arena reuses from row to row. A state
//! no skeleton represents (the unfolded `Call` start state, a root `||`
//! whose alphabets are not pinned in resolved form, a root `chan` over a
//! leaf, a leaf with free variables) is stepped as a whole term. When one
//! component grows a spine of its own (an inner `||` pinning on its first
//! move), the successor is built as a term and decomposed once per
//! `(skeleton, slot, component, step)`; the arena keeps the successor's
//! skeleton and the components filling the grown slot, and splices them
//! into the key of every later such successor. Two rules keep this
//! invisible: a network row has the same steps, in the same order, as
//! [`Lts::steps`] on the whole term; and decomposition is a function of
//! the configuration, so every path into the arena gives a configuration
//! the same [`StateId`].
//!
//! The trace walk numbers traces: `<>` is 0, a child's number comes from
//! its parent's number and the event, and the walk's visited set holds
//! `(number, state)` pairs. A trace is recorded as its parent's number and
//! its event, a [`TraceTree`]; no trace is built unless a caller asks for
//! the list ([`CompiledLts::trace_list`]).
//!
//! On top of the compiled successor rows, reachability-style checks
//! (deadlock search, trace refinement) run over [`StateSet`] bitset rows
//! instead of ordered configuration sets.
//!
//! The enumerative engine stays authoritative: it is the direct
//! transcription of the paper's semantics, so the compiled engine is
//! validated against it the same way the interned trace engine is
//! validated against `NaiveTraceSet` — identical budgets, identical
//! exploration order, byte-identical trace sets (see the tests here and
//! the property harness in `tests/properties.rs`). The skeleton walk is
//! code of its own, so that check is independent. The process decides
//! whether its `sat` check runs on the trace walk or on this arena
//! ([`Engine::for_process`]); deadlock search, refinement and
//! conformance run on the arena alone.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use csp_lang::{
    reaches_network, resolve_chanrefs, ChanRef, Definitions, Env, EvalError, Expr, Process, SetExpr,
};
use csp_trace::{ChannelSet, Event, FxHashMap, FxHashSet, Trace, TraceSet, TraceTree, Value};

use crate::{Config, Lts, Step, Universe};

/// Which backend answered a `sat` check. The process decides it
/// ([`Engine::for_process`]); a verdict reports it.
///
/// ```
/// use csp_lang::{examples, Process};
/// use csp_semantics::Engine;
///
/// let defs = examples::pipeline();
/// let e = Engine::for_process(&defs, &Process::call("pipeline"));
/// assert_eq!(e, Engine::Compiled);
/// assert_eq!(e.to_string(), "compiled");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Engine {
    /// The enumerative trace walk ([`Lts::traces_budgeted`]) — the
    /// paper's semantics transcribed directly.
    Enumerative,
    /// The compiled-LTS engine: interned states, memoised successor
    /// rows.
    Compiled,
}

impl Engine {
    /// The name reported in output (`enumerative` / `compiled`).
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Enumerative => "enumerative",
            Engine::Compiled => "compiled",
        }
    }

    /// The backend of a `sat` check of `root`: compiled when the
    /// definitions reachable from `root` contain a parallel composition
    /// or hiding (where re-stepping a configuration once per
    /// interleaving is quadratic), enumerative for plain sequential
    /// terms (where interning is pure overhead).
    pub fn for_process(defs: &Definitions, root: &Process) -> Engine {
        if reaches_network(defs, root) {
            Engine::Compiled
        } else {
            Engine::Enumerative
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An interned configuration in a [`CompiledLts`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One compiled transition: the target is a [`StateId`], not a
/// configuration, so following it is an array index instead of a term
/// rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompiledStep {
    /// An externally visible communication.
    Visible(Event, StateId),
    /// A concealed communication.
    Internal(StateId),
}

/// A set of [`StateId`]s as a bitset row (one bit per arena slot) — the
/// representation the reachability checks iterate over.
///
/// Invariant: no trailing zero words, so equal sets compare equal (the
/// refinement walk keys its memo on these).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct StateSet {
    words: Vec<u64>,
}

impl StateSet {
    /// The empty set.
    pub fn new() -> Self {
        StateSet::default()
    }

    /// Inserts a state; returns `true` when it was not already present.
    pub fn insert(&mut self, id: StateId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// True when the state is in the set.
    pub fn contains(&self, id: StateId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Number of states in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no state is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The member states, ascending.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            (0..64)
                .filter(move |b| word & (1 << b) != 0)
                .map(move |b| StateId((wi * 64 + b) as u32))
        })
    }
}

impl FromIterator<StateId> for StateSet {
    fn from_iter<I: IntoIterator<Item = StateId>>(iter: I) -> Self {
        let mut set = StateSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// The compiled transition-system view of a definition list: an arena of
/// interned configurations with memoised successor rows, grown on the
/// fly as checks reach new states.
///
/// A network state is held as a skeleton id plus the ids of the
/// components filling its leaves (see the module docs); any other state
/// is held, and stepped, as a whole term.
#[derive(Debug)]
pub struct CompiledLts<'a> {
    lts: Lts<'a>,
    states: Vec<State>,
    /// Network states by `[skeleton, component…]`.
    nets: FxHashMap<Arc<[u32]>, u32>,
    /// Every other state by its configuration.
    wholes: BTreeMap<Config, u32>,
    skeletons: Vec<Skeleton>,
    /// Skeletons by the hash of their spine as written
    /// ([`spine_hash`](Self::spine_hash)); a hit is confirmed against the
    /// skeleton's nodes.
    skeletons_by_spine: FxHashMap<u64, Vec<u32>>,
    /// The randomly keyed hasher of spines: terms come from user input.
    spine_keys: RandomState,
    /// The spine being read, kept between reads.
    read_buf: Vec<Part>,
    envs: Vec<Env>,
    env_ids: BTreeMap<Env, u32>,
    components: Vec<Component>,
    /// Components by environment and term. Terms come from user input,
    /// so this map keeps the default, collision-resistant hasher.
    component_ids: HashMap<(u32, Arc<Process>), u32>,
    /// Grown successors by `(skeleton, slot, component, step)`.
    grown: FxHashMap<(u32, usize, u32, usize), Grown>,
    /// The moves of the row being built, kept between rows.
    move_buf: MoveBuf,
    transitions: usize,
    component_rows: usize,
    fallback_rows: usize,
    decompositions: usize,
    splices: usize,
}

/// The bookkeeping of one trace walk. Traces are numbered: `<>` is 0,
/// and every other trace is numbered when the walk first reaches it.
struct TraceWalk {
    /// `(trace number, state)` pairs already visited: a revisit adds
    /// nothing.
    seen: FxHashSet<(u32, u32)>,
    /// Trace numbers by `(parent number, event)`.
    children: FxHashMap<(u32, Event), u32>,
    /// The traces by number, so in first-visit order, each as its
    /// parent's number and its last event.
    tree: TraceTree,
}

impl TraceWalk {
    fn new() -> Self {
        TraceWalk {
            seen: FxHashSet::default(),
            children: FxHashMap::default(),
            tree: TraceTree::new(),
        }
    }

    /// The number of `parent` extended by `e`, numbering it the first
    /// time it is asked for.
    fn child(&mut self, parent: u32, e: Event) -> u32 {
        let TraceWalk { children, tree, .. } = self;
        *children
            .entry((parent, e))
            .or_insert_with(|| tree.push(parent, e))
    }
}

/// One interned state.
#[derive(Debug)]
struct State {
    /// `[skeleton, component…]` for a network state; `None` for a state
    /// stepped as a whole term.
    net: Option<Arc<[u32]>>,
    /// The configuration, built on first use for network states.
    term: OnceLock<Config>,
    row: Option<Vec<CompiledStep>>,
}

/// The `chan`/`||` spine of a network term in one environment, with its
/// alphabets, synchronisation sets and hidden sets resolved once. Nodes
/// are stored children first, so the root is the last node; leaves are
/// numbered left to right.
#[derive(Debug)]
struct Skeleton {
    env: u32,
    nodes: Vec<Node>,
}

impl Skeleton {
    /// The skeleton of a spine [`read_spine`] read in `env`: the one place
    /// a spine's alphabets and hidden channels are resolved.
    fn new(env_id: u32, env: &Env, read: &[Part]) -> Self {
        let resolve =
            |refs: &[ChanRef]| resolve_chanrefs(refs, env).expect("spine_node resolved these");
        let mut nodes = Vec::with_capacity(read.len());
        // The roots of the subtrees read so far, left to right.
        let mut roots = Vec::new();
        let mut slot = 0;
        for part in read {
            let node = match part {
                Part::Leaf(_) => {
                    slot += 1;
                    Node::Leaf(slot - 1)
                }
                Part::Node(term) => match &**term {
                    Process::Parallel {
                        left_alpha: Some(la),
                        right_alpha: Some(ra),
                        ..
                    } => {
                        let right = roots.pop().expect("a right operand");
                        let left = roots.pop().expect("a left operand");
                        Node::Par {
                            left,
                            right,
                            left_alpha: la.clone(),
                            right_alpha: ra.clone(),
                            sync: resolve(la).intersection(&resolve(ra)),
                        }
                    }
                    Process::Hide { channels, .. } => Node::Hide {
                        channels: channels.clone(),
                        hidden: resolve(channels),
                        body: roots.pop().expect("a body"),
                    },
                    _ => unreachable!("spine nodes are `||` and `chan` terms"),
                },
            };
            roots.push(nodes.len());
            nodes.push(node);
        }
        Skeleton { env: env_id, nodes }
    }

    /// True when `read` is this skeleton's spine in environment `env`:
    /// node for node the same kinds (which fix the shape, children
    /// first), alphabets and hidden channels as written.
    fn reads_as(&self, env: u32, read: &[Part]) -> bool {
        self.env == env
            && self.nodes.len() == read.len()
            && self
                .nodes
                .iter()
                .zip(read)
                .all(|(node, part)| match (node, part) {
                    (Node::Leaf(_), Part::Leaf(_)) => true,
                    (
                        Node::Par {
                            left_alpha,
                            right_alpha,
                            ..
                        },
                        Part::Node(term),
                    ) => matches!(
                        &**term,
                        Process::Parallel {
                            left_alpha: Some(la),
                            right_alpha: Some(ra),
                            ..
                        } if la == left_alpha && ra == right_alpha
                    ),
                    (Node::Hide { channels, .. }, Part::Node(term)) => matches!(
                        &**term,
                        Process::Hide { channels: c, .. } if c == channels
                    ),
                    _ => false,
                })
    }

    /// Rebuilds the term of a node around the given leaves.
    fn build(&self, node: usize, leaf: &dyn Fn(usize) -> Arc<Process>) -> Arc<Process> {
        match &self.nodes[node] {
            Node::Leaf(slot) => leaf(*slot),
            Node::Par {
                left,
                right,
                left_alpha,
                right_alpha,
                ..
            } => Arc::new(Process::Parallel {
                left: self.build(*left, leaf),
                right: self.build(*right, leaf),
                left_alpha: Some(left_alpha.clone()),
                right_alpha: Some(right_alpha.clone()),
            }),
            Node::Hide { channels, body, .. } => Arc::new(Process::Hide {
                channels: channels.clone(),
                body: self.build(*body, leaf),
            }),
        }
    }
}

#[derive(Debug)]
enum Node {
    /// The component in this leaf slot.
    Leaf(usize),
    Par {
        left: usize,
        right: usize,
        /// The pinned alphabets, kept to rebuild the term.
        left_alpha: Vec<ChanRef>,
        right_alpha: Vec<ChanRef>,
        sync: ChannelSet,
    },
    Hide {
        channels: Vec<ChanRef>,
        hidden: ChannelSet,
        body: usize,
    },
}

/// A closed sequential term below a spine, stepped in its skeleton's
/// environment.
#[derive(Debug)]
struct Component {
    term: Arc<Process>,
    env: u32,
    /// `(event, successor)` per step, in [`Lts::steps`] order; `None`
    /// marks a concealed step.
    row: Option<Vec<(Option<Event>, Next)>>,
}

/// Where a component step leads.
#[derive(Debug, Clone)]
enum Next {
    Comp(u32),
    /// A successor no component can hold: it grew a spine of its own, or
    /// has free variables. The network successor is built as a term.
    Term(Arc<Process>),
}

/// A successor in which one component grew a spine, as decomposition
/// read it: its skeleton, and the components filling the grown slot.
#[derive(Debug)]
struct Grown {
    skel: u32,
    fill: Arc<[u32]>,
}

/// The steps of a skeleton node. Each move is its event (`None` when
/// concealed) and the range of `parts` holding the component steps
/// taking part, as `(leaf slot, row index)` pairs in slot order.
#[derive(Debug, Default)]
struct MoveBuf {
    moves: Vec<(Option<Event>, Range<usize>)>,
    parts: Vec<(usize, usize)>,
}

/// One node of a spine as [`read_spine`] reads it from a term, children
/// first: a leaf holds its component's term, a node the `||` or `chan`
/// term itself, so nothing is copied out of the term.
#[derive(Debug)]
enum Part {
    Leaf(Arc<Process>),
    Node(Arc<Process>),
}

impl<'a> CompiledLts<'a> {
    /// An empty arena over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        CompiledLts {
            lts: Lts::new(defs, universe),
            states: Vec::new(),
            nets: FxHashMap::default(),
            wholes: BTreeMap::new(),
            skeletons: Vec::new(),
            skeletons_by_spine: FxHashMap::default(),
            spine_keys: RandomState::new(),
            read_buf: Vec::new(),
            envs: Vec::new(),
            env_ids: BTreeMap::new(),
            components: Vec::new(),
            component_ids: HashMap::new(),
            grown: FxHashMap::default(),
            move_buf: MoveBuf::default(),
            transitions: 0,
            component_rows: 0,
            fallback_rows: 0,
            decompositions: 0,
            splices: 0,
        }
    }

    /// Interns a configuration, returning its arena id (stable for the
    /// lifetime of the arena; the same configuration always gets the
    /// same id).
    pub fn intern(&mut self, config: Config) -> StateId {
        if let Some(key) = self.decompose(&config) {
            let id = self.intern_net(&key);
            // Already built: spare `state` the rebuild.
            let _ = self.states[id.index()].term.set(config);
            return id;
        }
        if let Some(&i) = self.wholes.get(&config) {
            return StateId(i);
        }
        let id = self.push(None);
        let _ = self.states[id.index()].term.set(config.clone());
        self.wholes.insert(config, id.0);
        id
    }

    fn intern_net(&mut self, key: &[u32]) -> StateId {
        if let Some(&i) = self.nets.get(key) {
            return StateId(i);
        }
        let key: Arc<[u32]> = Arc::from(key);
        let id = self.push(Some(Arc::clone(&key)));
        self.nets.insert(key, id.0);
        id
    }

    fn push(&mut self, net: Option<Arc<[u32]>>) -> StateId {
        let i = u32::try_from(self.states.len()).expect("state arena exceeds u32");
        self.states.push(State {
            net,
            term: OnceLock::new(),
            row: None,
        });
        StateId(i)
    }

    /// Interns the initial configuration of a named process.
    pub fn start(&mut self, name: &str, env: &Env) -> StateId {
        let config = self.lts.initial(name, env);
        self.intern(config)
    }

    /// The configuration behind an id (built on first use for network
    /// states).
    pub fn state(&self, id: StateId) -> &Config {
        let state = &self.states[id.index()];
        state.term.get_or_init(|| {
            let key = state
                .net
                .as_deref()
                .expect("whole-term states keep their term");
            self.assemble(key[0], &|slot| {
                Arc::clone(&self.components[key[1 + slot] as usize].term)
            })
        })
    }

    /// Distinct configurations interned so far.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Transitions in the compiled rows so far.
    pub fn num_transitions(&self) -> usize {
        self.transitions
    }

    /// Component rows compiled so far: each distinct component of a
    /// network is stepped once, however many network states hold it.
    pub fn num_component_rows(&self) -> usize {
        self.component_rows
    }

    /// State rows compiled by stepping the whole term, for states no
    /// skeleton represents.
    pub fn num_fallback_rows(&self) -> usize {
        self.fallback_rows
    }

    /// Configurations interned by reading their term: one per call of
    /// [`intern`](Self::intern), the successors in which a component
    /// first grows a spine among them.
    pub fn num_decompositions(&self) -> usize {
        self.decompositions
    }

    /// Successors in which a component grows a spine, interned by
    /// splicing a memoised decomposition into the parent's key.
    pub fn num_splices(&self) -> usize {
        self.splices
    }

    /// The successor row of a state, compiling it on first access. The
    /// steps keep the exact order [`Lts::steps`] produces them in, so
    /// walks over the compiled graph reproduce the enumerative engine's
    /// exploration order (and therefore its budget-cut trace sets)
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn steps_of(&mut self, id: StateId) -> Result<&[CompiledStep], EvalError> {
        if self.states[id.index()].row.is_none() {
            let row = match self.states[id.index()].net.clone() {
                Some(key) => self.net_row(&key)?,
                None => self.whole_row(id)?,
            };
            self.transitions += row.len();
            self.states[id.index()].row = Some(row);
        }
        Ok(self.states[id.index()]
            .row
            .as_deref()
            .expect("row just compiled"))
    }

    /// The row of a state no skeleton represents: [`Lts::steps`] on the
    /// whole term.
    fn whole_row(&mut self, id: StateId) -> Result<Vec<CompiledStep>, EvalError> {
        let steps = self.lts.steps(self.state(id))?;
        self.fallback_rows += 1;
        Ok(steps
            .into_iter()
            .map(|s| match s {
                Step::Visible(e, c) => CompiledStep::Visible(e, self.intern(c)),
                Step::Internal(c) => CompiledStep::Internal(self.intern(c)),
            })
            .collect())
    }

    /// The row of a network state, from the rows of its components by
    /// the `||` and `chan` rules of [`Lts::steps`]. Component rows are
    /// compiled left to right, so the first failure is the one the whole
    /// term would report.
    fn net_row(&mut self, key: &[u32]) -> Result<Vec<CompiledStep>, EvalError> {
        for &c in &key[1..] {
            self.component_row(c)?;
        }
        let mut buf = std::mem::take(&mut self.move_buf);
        buf.moves.clear();
        buf.parts.clear();
        let skel = &self.skeletons[key[0] as usize];
        self.moves(skel, skel.nodes.len() - 1, &key[1..], &mut buf);
        let mut next = key.to_vec();
        let mut row = Vec::with_capacity(buf.moves.len());
        for (event, parts) in &buf.moves {
            let parts = &buf.parts[parts.clone()];
            next.copy_from_slice(key);
            let (mut growths, mut grown) = (0, 0);
            for (i, &(slot, k)) in parts.iter().enumerate() {
                match self.component_step(key[1 + slot], k) {
                    Next::Comp(c) => next[1 + slot] = *c,
                    Next::Term(_) => {
                        growths += 1;
                        grown = i;
                    }
                }
            }
            let target = match growths {
                0 => self.intern_net(&next),
                1 => self.splice(key, &next, parts, grown),
                _ => {
                    let config = self.grown_successor(key, parts);
                    self.intern(config)
                }
            };
            row.push(match event {
                Some(e) => CompiledStep::Visible(*e, target),
                None => CompiledStep::Internal(target),
            });
        }
        self.move_buf = buf;
        Ok(row)
    }

    /// The successor of a network state when exactly one moved component,
    /// `parts[grown]`, grows a spine. Leaves sit directly under `||` nodes
    /// and every other leaf is a component, which decomposes to itself;
    /// so the successor's key is `next` with the grown slot replaced by
    /// the leaves of the new spine, under a skeleton fixed by the parent's
    /// skeleton, the slot and the grown term. The first such successor
    /// per `(skeleton, slot, component, step)` is built and decomposed;
    /// later ones are spliced.
    fn splice(
        &mut self,
        key: &[u32],
        next: &[u32],
        parts: &[(usize, usize)],
        grown: usize,
    ) -> StateId {
        let (slot, k) = parts[grown];
        let memo = (key[0], slot, key[1 + slot], k);
        if let Some(Grown { skel, fill }) = self.grown.get(&memo) {
            let mut spliced = Vec::with_capacity(next.len() + fill.len() - 1);
            spliced.push(*skel);
            spliced.extend_from_slice(&next[1..1 + slot]);
            spliced.extend_from_slice(fill);
            spliced.extend_from_slice(&next[2 + slot..]);
            self.splices += 1;
            return self.intern_net(&spliced);
        }
        let config = self.grown_successor(key, parts);
        let id = self.intern(config);
        if let Some(succ) = &self.states[id.index()].net {
            let fill = &succ[1 + slot..1 + slot + succ.len() - (key.len() - 1)];
            debug_assert_eq!(succ[1..1 + slot], next[1..1 + slot]);
            debug_assert_eq!(succ[1 + slot + fill.len()..], next[2 + slot..]);
            let grown = Grown {
                skel: succ[0],
                fill: fill.into(),
            };
            self.grown.insert(memo, grown);
        }
        id
    }

    fn component_step(&self, c: u32, k: usize) -> &Next {
        &self.components[c as usize]
            .row
            .as_ref()
            .expect("component compiled")[k]
            .1
    }

    /// The successor of a network state when a moved component's
    /// successor is no component: the configuration [`Lts::steps`] builds.
    fn grown_successor(&self, key: &[u32], parts: &[(usize, usize)]) -> Config {
        let term = |c: u32| Arc::clone(&self.components[c as usize].term);
        self.assemble(
            key[0],
            &|slot| match parts.iter().find(|&&(s, _)| s == slot) {
                Some(&(_, k)) => match self.component_step(key[1 + slot], k) {
                    Next::Comp(c) => term(*c),
                    Next::Term(t) => Arc::clone(t),
                },
                None => term(key[1 + slot]),
            },
        )
    }

    /// A skeleton's configuration around the given leaves, in the
    /// skeleton's environment.
    fn assemble(&self, skel: u32, leaf: &dyn Fn(usize) -> Arc<Process>) -> Config {
        let skel = &self.skeletons[skel as usize];
        let term = skel.build(skel.nodes.len() - 1, leaf);
        Config::from_arc(term, self.envs[skel.env as usize].clone())
    }

    /// Compiles a component's row on first use: [`Lts::steps`] on the
    /// component, each successor closed as the `||` rule closes a moved
    /// operand.
    fn component_row(&mut self, c: u32) -> Result<(), EvalError> {
        let comp = &self.components[c as usize];
        if comp.row.is_some() {
            return Ok(());
        }
        let env = comp.env;
        let steps = self.lts.steps_at(&comp.term, &self.envs[env as usize])?;
        let row = steps
            .into_iter()
            .map(|s| {
                let (event, next) = match s {
                    Step::Visible(e, next) => (Some(e), next),
                    Step::Internal(next) => (None, next),
                };
                let term = next.closed();
                match self.component(env, &term) {
                    Some(c) => (event, Next::Comp(c)),
                    None => (event, Next::Term(term)),
                }
            })
            .collect();
        self.components[c as usize].row = Some(row);
        self.component_rows += 1;
        Ok(())
    }

    /// Interns a component, or `None` when the term cannot be one: it
    /// reads as a spine node, or has free variables.
    fn component(&mut self, env: u32, term: &Arc<Process>) -> Option<u32> {
        let key = (env, Arc::clone(term));
        if let Some(&c) = self.component_ids.get(&key) {
            return Some(c);
        }
        // A component stepping into a spine node has grown a spine of its
        // own.
        if spine_node(term, &self.envs[env as usize], true) || !is_closed(term) {
            return None;
        }
        let c = u32::try_from(self.components.len()).expect("component arena exceeds u32");
        self.components.push(Component {
            term: Arc::clone(term),
            env,
            row: None,
        });
        self.component_ids.insert(key, c);
        Some(c)
    }

    /// Appends the steps of one skeleton node to `buf.moves`, by the
    /// rules of [`Lts::steps`]: a `chan` node conceals its hidden events;
    /// a `||` node moves its left operand alone or jointly with the right
    /// on a shared channel (in left-row order), then its right operand
    /// alone. A concealed operand step is a concealed step of the node.
    /// The operands' moves are dropped once the node's are built, so a
    /// node's moves are all `buf.moves` holds past its length on entry.
    fn moves(&self, skel: &Skeleton, node: usize, comps: &[u32], buf: &mut MoveBuf) {
        let start = buf.moves.len();
        match &skel.nodes[node] {
            Node::Leaf(slot) => {
                let row = self.components[comps[*slot] as usize]
                    .row
                    .as_ref()
                    .expect("component compiled");
                for (k, (event, _)) in row.iter().enumerate() {
                    let at = buf.parts.len();
                    buf.parts.push((*slot, k));
                    buf.moves.push((*event, at..at + 1));
                }
            }
            Node::Hide { hidden, body, .. } => {
                self.moves(skel, *body, comps, buf);
                for (event, _) in &mut buf.moves[start..] {
                    if event.is_some_and(|e| hidden.contains(e.channel())) {
                        *event = None;
                    }
                }
            }
            Node::Par {
                left, right, sync, ..
            } => {
                let shared = |e: Option<Event>| e.is_some_and(|e| sync.contains(e.channel()));
                self.moves(skel, *left, comps, buf);
                let mid = buf.moves.len();
                self.moves(skel, *right, comps, buf);
                let end = buf.moves.len();
                for l in start..mid {
                    let (event, lparts) = buf.moves[l].clone();
                    if !shared(event) {
                        buf.moves.push((event, lparts));
                        continue;
                    }
                    for r in mid..end {
                        let (revent, rparts) = buf.moves[r].clone();
                        if revent == event {
                            let from = buf.parts.len();
                            buf.parts.extend_from_within(lparts.clone());
                            buf.parts.extend_from_within(rparts);
                            buf.moves.push((event, from..buf.parts.len()));
                        }
                    }
                }
                for r in mid..end {
                    if !shared(buf.moves[r].0) {
                        let m = buf.moves[r].clone();
                        buf.moves.push(m);
                    }
                }
                buf.moves.drain(start..end);
            }
        }
    }

    /// Splits a configuration into `[skeleton, component…]`, or `None`
    /// when no skeleton represents it. A function of the configuration
    /// alone, so every path into the arena gives a configuration the same
    /// id. The spine is read in place: a skeleton is found by the hash of
    /// the spine as written and confirmed node by node, and only a new
    /// skeleton resolves its sets.
    fn decompose(&mut self, config: &Config) -> Option<Vec<u32>> {
        self.decompositions += 1;
        let (term, env) = (config.process_arc(), config.env());
        if !spine_node(term, env, false) {
            return None;
        }
        let mut read = std::mem::take(&mut self.read_buf);
        let key = read_spine(term, env, &mut read).then(|| self.key_of(env, &read));
        read.clear();
        self.read_buf = read;
        key
    }

    /// The key of a spine read in `env`, interning its skeleton and
    /// components as needed.
    fn key_of(&mut self, env: &Env, read: &[Part]) -> Vec<u32> {
        let env_id = match self.env_ids.get(env) {
            Some(&e) => e,
            None => {
                let e = u32::try_from(self.envs.len()).expect("env arena exceeds u32");
                self.envs.push(env.clone());
                self.env_ids.insert(env.clone(), e);
                e
            }
        };
        let hash = self.spine_hash(env_id, read);
        let found = self.skeletons_by_spine.get(&hash).and_then(|ids| {
            ids.iter()
                .copied()
                .find(|&s| self.skeletons[s as usize].reads_as(env_id, read))
        });
        let skel = match found {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.skeletons.len()).expect("skeleton arena exceeds u32");
                self.skeletons.push(Skeleton::new(env_id, env, read));
                self.skeletons_by_spine.entry(hash).or_default().push(s);
                s
            }
        };
        let mut key = vec![skel];
        for part in read {
            if let Part::Leaf(leaf) = part {
                key.push(self.component(env_id, leaf).expect("leaves are components"));
            }
        }
        key
    }

    /// The hash of a spine read in environment `env`: its node kinds, and
    /// its alphabets and hidden channels as written.
    fn spine_hash(&self, env: u32, read: &[Part]) -> u64 {
        let mut h = self.spine_keys.build_hasher();
        env.hash(&mut h);
        for part in read {
            match part {
                Part::Leaf(_) => 0u8.hash(&mut h),
                Part::Node(term) => match &**term {
                    Process::Parallel {
                        left_alpha,
                        right_alpha,
                        ..
                    } => {
                        1u8.hash(&mut h);
                        left_alpha.hash(&mut h);
                        right_alpha.hash(&mut h);
                    }
                    Process::Hide { channels, .. } => {
                        2u8.hash(&mut h);
                        channels.hash(&mut h);
                    }
                    _ => unreachable!("spine nodes are `||` and `chan` terms"),
                },
            }
        }
        h.finish()
    }

    fn row(&self, id: StateId) -> &[CompiledStep] {
        self.states[id.index()].row.as_deref().expect("compiled")
    }

    /// The set of visible traces of length at most `depth`, exploring at
    /// most `internal_budget` concealed communications along any path —
    /// the compiled counterpart of [`Lts::traces_budgeted`], guaranteed
    /// to produce the identical trace set (same dedup, same budget cuts;
    /// only the per-visit cost differs). It is
    /// [`trace_list`](Self::trace_list) collected into a set.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn traces_budgeted(
        &mut self,
        start: StateId,
        depth: usize,
        internal_budget: usize,
    ) -> Result<TraceSet, EvalError> {
        Ok(TraceSet::closure_of(self.trace_list(
            start,
            depth,
            internal_budget,
        )?))
    }

    /// The members of [`traces_budgeted`](Self::traces_budgeted), each
    /// listed once, in the order the walk first reaches them: the
    /// [`trace_tree`](Self::trace_tree)'s traces, built.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn trace_list(
        &mut self,
        start: StateId,
        depth: usize,
        internal_budget: usize,
    ) -> Result<Vec<Trace>, EvalError> {
        Ok(self.trace_tree(start, depth, internal_budget)?.traces())
    }

    /// The members of [`traces_budgeted`](Self::traces_budgeted) as a
    /// tree, numbered in the order the walk first reaches them; no trace
    /// is built. The walk reaches a trace only from a visit of its
    /// parent, so every trace is numbered after its parent, and
    /// consecutive traces mostly differ by one event at the back: a caller
    /// can follow the numbers with one incrementally updated `ch(s)`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn trace_tree(
        &mut self,
        start: StateId,
        depth: usize,
        internal_budget: usize,
    ) -> Result<TraceTree, EvalError> {
        let mut walk = TraceWalk::new();
        self.walk(start, depth, internal_budget, 0, &mut walk)?;
        Ok(walk.tree)
    }

    /// [`traces_budgeted`](Self::traces_budgeted) with the default
    /// internal budget (`depth × 3`, matching [`Lts::traces`]).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn traces(&mut self, start: StateId, depth: usize) -> Result<TraceSet, EvalError> {
        self.traces_budgeted(start, depth, depth * 3)
    }

    fn walk(
        &mut self,
        id: StateId,
        depth: usize,
        internal_budget: usize,
        trace: u32,
        out: &mut TraceWalk,
    ) -> Result<(), EvalError> {
        if !out.seen.insert((trace, id.0)) {
            return Ok(());
        }
        let n = self.steps_of(id)?.len();
        for k in 0..n {
            let step = self.row(id)[k].clone();
            match step {
                CompiledStep::Visible(e, next) => {
                    if depth > 0 {
                        let child = out.child(trace, e);
                        self.walk(next, depth - 1, internal_budget, child, out)?;
                    }
                }
                CompiledStep::Internal(next) => {
                    if internal_budget > 0 {
                        self.walk(next, depth, internal_budget - 1, trace, out)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Every state reachable from `set` by at most `budget` concealed
    /// steps (the τ-closure, bounded like the trace walks bound hidden
    /// chatter).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn tau_closure(&mut self, set: StateSet, budget: usize) -> Result<StateSet, EvalError> {
        let mut closed = set;
        let mut frontier: Vec<StateId> = closed.iter().collect();
        let mut layer = 0;
        while !frontier.is_empty() && layer < budget {
            let mut next = Vec::new();
            for id in frontier {
                let n = self.steps_of(id)?.len();
                for k in 0..n {
                    if let CompiledStep::Internal(t) = self.row(id)[k] {
                        if closed.insert(t) {
                            next.push(t);
                        }
                    }
                }
            }
            frontier = next;
            layer += 1;
        }
        Ok(closed)
    }

    /// Bounded trace refinement by subset construction: every visible
    /// behaviour of `impl_start` up to `depth` events must be matched by
    /// `spec_start`. The walk pairs each implementation state with the
    /// bitset of specification states reachable on the same visible
    /// trace (τ-closed after every event); a pair whose specification
    /// side empties yields the counterexample trace. Nothing is
    /// materialised — the check is reachability over compiled rows.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn refines(
        &mut self,
        impl_start: StateId,
        spec_start: StateId,
        depth: usize,
        internal_budget: usize,
    ) -> Result<Result<(), Trace>, EvalError> {
        let spec0 = self.tau_closure(StateSet::from_iter([spec_start]), internal_budget)?;
        let mut seen: BTreeSet<(u32, StateSet, usize, usize)> = BTreeSet::new();
        self.refine_walk(
            impl_start,
            &spec0,
            depth,
            internal_budget,
            &Trace::empty(),
            &mut seen,
        )
    }

    fn refine_walk(
        &mut self,
        id: StateId,
        spec: &StateSet,
        depth: usize,
        internal_left: usize,
        prefix: &Trace,
        seen: &mut BTreeSet<(u32, StateSet, usize, usize)>,
    ) -> Result<Result<(), Trace>, EvalError> {
        if !seen.insert((id.0, spec.clone(), depth, internal_left)) {
            return Ok(Ok(()));
        }
        let n = self.steps_of(id)?.len();
        for k in 0..n {
            let step = self.row(id)[k].clone();
            match step {
                CompiledStep::Visible(e, next) => {
                    if depth == 0 {
                        continue;
                    }
                    let mut after = StateSet::new();
                    for s in spec.iter().collect::<Vec<_>>() {
                        let m = self.steps_of(s)?.len();
                        for j in 0..m {
                            if let CompiledStep::Visible(e2, t) = self.row(s)[j] {
                                if e2 == e {
                                    after.insert(t);
                                }
                            }
                        }
                    }
                    let trace = prefix.snoc(e);
                    if after.is_empty() {
                        return Ok(Err(trace));
                    }
                    let after = self.tau_closure(after, internal_left)?;
                    if let Err(cex) =
                        self.refine_walk(next, &after, depth - 1, internal_left, &trace, seen)?
                    {
                        return Ok(Err(cex));
                    }
                }
                CompiledStep::Internal(next) => {
                    if internal_left > 0 {
                        if let Err(cex) =
                            self.refine_walk(next, spec, depth, internal_left - 1, prefix, seen)?
                        {
                            return Ok(Err(cex));
                        }
                    }
                }
            }
        }
        Ok(Ok(()))
    }
}

/// True when `p` reads as a spine node at its top: a `||` whose
/// alphabets are pinned in resolved form, or a `chan` over a spine node
/// whose channels resolve in `env`. Anything else would be rebuilt
/// differently by one step of [`Lts::steps`]: an unpinned `||` pins its
/// alphabets, and a `chan` directly over a leaf has successors that keep
/// the leaf's environment. Below a `||` (`under_par`), a `chan` with
/// variables in its channels is no spine node either, since the `||` rule
/// closes it. Whether the leaves are closed is [`read_spine`]'s question.
fn spine_node(p: &Process, env: &Env, under_par: bool) -> bool {
    match p {
        Process::Parallel {
            left_alpha: Some(la),
            right_alpha: Some(ra),
            ..
        } => is_pinned(la) && is_pinned(ra),
        Process::Hide { channels, body } => {
            (!under_par
                || channels
                    .iter()
                    .all(|c| c.indices().iter().all(Expr::is_closed)))
                && resolves(channels, env)
                && spine_node(body, env, under_par)
        }
        _ => false,
    }
}

/// Reads the spine of a spine node in place: pushes its nodes onto `out`
/// children first, its leaves left to right. Below a `||`, a subterm that
/// is no spine node is a leaf. False when a leaf has free variables: `p`
/// then has them too, and no skeleton represents it (`out` holds partial
/// output).
fn read_spine(p: &Arc<Process>, env: &Env, out: &mut Vec<Part>) -> bool {
    match &**p {
        Process::Parallel { left, right, .. } => {
            for operand in [left, right] {
                if spine_node(operand, env, true) {
                    if !read_spine(operand, env, out) {
                        return false;
                    }
                } else if is_closed(operand) {
                    out.push(Part::Leaf(Arc::clone(operand)));
                } else {
                    return false;
                }
            }
        }
        Process::Hide { body, .. } => {
            if !read_spine(body, env, out) {
                return false;
            }
        }
        _ => unreachable!("only spine nodes are read"),
    }
    out.push(Part::Node(Arc::clone(p)));
    true
}

/// True when an alphabet is pinned in resolved form, as the `||` rule
/// leaves it after its first step: integer-literal subscripts, and the
/// channels strictly ascending in [`csp_trace::Channel`] order (name,
/// then subscripts) — exactly the lists that rendering a resolved channel
/// set reproduces.
fn is_pinned(refs: &[ChanRef]) -> bool {
    let literal = |e: &Expr| matches!(e, Expr::Const(Value::Int(_)));
    refs.iter().all(|c| c.indices().iter().all(literal))
        && refs.windows(2).all(|w| {
            let order = w[0].base().cmp(w[1].base());
            order.then_with(|| literals(&w[0]).cmp(literals(&w[1]))) == Ordering::Less
        })
}

/// The integer-literal subscripts of a channel reference.
fn literals(c: &ChanRef) -> impl Iterator<Item = i64> + '_ {
    c.indices().iter().filter_map(|e| match e {
        Expr::Const(Value::Int(i)) => Some(*i),
        _ => None,
    })
}

/// True when every channel of `refs` resolves in `env` as
/// [`resolve_chanrefs`] resolves it — each subscript evaluates to an
/// integer — without building the set.
fn resolves(refs: &[ChanRef], env: &Env) -> bool {
    refs.iter().all(|c| {
        c.indices()
            .iter()
            .all(|e| e.eval(env).is_ok_and(|v| v.as_int().is_some()))
    })
}

/// True when no variable occurs free in `p`, so closing it with any
/// environment is the identity. Array names such as `v` in `v[1]` are
/// host constants, not variables. One walk of the term, with the input
/// variables bound around each subterm on the call stack.
fn is_closed(p: &Process) -> bool {
    closed_under(p, None)
}

/// The input variables bound around a subterm, innermost first.
struct Bound<'a> {
    var: &'a str,
    outer: Option<&'a Bound<'a>>,
}

fn binds(mut bound: Option<&Bound<'_>>, x: &str) -> bool {
    while let Some(b) = bound {
        if b.var == x {
            return true;
        }
        bound = b.outer;
    }
    false
}

fn closed_under(p: &Process, bound: Option<&Bound<'_>>) -> bool {
    let expr = |e: &Expr| expr_closed_under(e, bound);
    let chan = |c: &ChanRef| c.indices().iter().all(expr);
    match p {
        Process::Stop | Process::Error(_) => true,
        Process::Call { args, .. } => args.iter().all(expr),
        Process::Output { chan: c, msg, then } => chan(c) && expr(msg) && closed_under(then, bound),
        Process::Input {
            chan: c,
            var,
            set,
            then,
        } => {
            chan(c)
                && set_closed_under(set, bound)
                && closed_under(then, Some(&Bound { var, outer: bound }))
        }
        Process::Choice(a, b) => closed_under(a, bound) && closed_under(b, bound),
        Process::Parallel {
            left,
            right,
            left_alpha,
            right_alpha,
        } => {
            [left_alpha, right_alpha]
                .into_iter()
                .flatten()
                .flatten()
                .all(chan)
                && closed_under(left, bound)
                && closed_under(right, bound)
        }
        Process::Hide { channels, body } => channels.iter().all(chan) && closed_under(body, bound),
    }
}

fn expr_closed_under(e: &Expr, bound: Option<&Bound<'_>>) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(x) => binds(bound, x),
        Expr::Bin(_, a, b) => expr_closed_under(a, bound) && expr_closed_under(b, bound),
        Expr::Un(_, a) => expr_closed_under(a, bound),
        Expr::Tuple(es) => es.iter().all(|e| expr_closed_under(e, bound)),
        Expr::ArrayRef(_, idx) => expr_closed_under(idx, bound),
    }
}

fn set_closed_under(s: &SetExpr, bound: Option<&Bound<'_>>) -> bool {
    match s {
        SetExpr::Nat | SetExpr::Named(_) => true,
        SetExpr::Range(lo, hi) => expr_closed_under(lo, bound) && expr_closed_under(hi, bound),
        SetExpr::Enum(es) => es.iter().all(|e| expr_closed_under(e, bound)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::channelset_to_refs;
    use csp_lang::{examples, free_vars_process, parse_definitions, process_has_free};
    use proptest::prelude::*;

    #[test]
    fn the_process_picks_the_backend() {
        let defs = examples::pipeline();
        // The pipeline hides `wire` and composes in parallel: compiled.
        assert_eq!(
            Engine::for_process(&defs, &Process::call("pipeline")),
            Engine::Compiled
        );
        // A single sequential component: enumerative.
        assert_eq!(
            Engine::for_process(&defs, &Process::call("copier")),
            Engine::Enumerative
        );
    }

    #[test]
    fn state_sets_behave_like_sets() {
        let mut s = StateSet::new();
        assert!(s.is_empty());
        assert!(s.insert(StateId(3)));
        assert!(s.insert(StateId(200)));
        assert!(!s.insert(StateId(3)));
        assert!(s.contains(StateId(200)) && !s.contains(StateId(4)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![StateId(3), StateId(200)]);
        let t: StateSet = [StateId(200), StateId(3)].into_iter().collect();
        assert_eq!(s, t, "order-insensitive equality");
    }

    #[test]
    fn interning_is_stable() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut c = CompiledLts::new(&defs, &uni);
        let a = c.start("pipeline", &Env::new());
        let b = c.start("pipeline", &Env::new());
        assert_eq!(a, b);
        assert_eq!(c.num_states(), 1);
    }

    #[test]
    fn compiled_traces_equal_enumerative_on_pipeline() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for name in ["copier", "recopier", "pipeline"] {
            for depth in 0..=4 {
                let mut c = CompiledLts::new(&defs, &uni);
                let start = c.start(name, &env);
                let compiled = c.traces(start, depth).unwrap();
                let enumerated = lts.traces(&lts.initial(name, &env), depth).unwrap();
                assert_eq!(compiled, enumerated, "{name} at depth {depth}");
            }
        }
    }

    #[test]
    fn compiled_traces_equal_enumerative_on_protocol() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let mut c = CompiledLts::new(&defs, &uni);
            let start = c.start("protocol", &env);
            let compiled = c.traces(start, depth).unwrap();
            let enumerated = lts.traces(&lts.initial("protocol", &env), depth).unwrap();
            assert_eq!(compiled, enumerated, "protocol at depth {depth}");
        }
    }

    #[test]
    fn compiled_traces_equal_enumerative_on_multiplier() {
        let defs = parse_definitions(csp_lang::examples::MULTIPLIER_SRC).unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.intern(Config::new(Process::call("multiplier"), env.clone()));
        let compiled = c.traces_budgeted(start, 4, 16).unwrap();
        let enumerated = lts
            .traces_budgeted(&Config::new(Process::call("multiplier"), env), 4, 16)
            .unwrap();
        assert_eq!(compiled, enumerated);
        // The whole point: far fewer states than (trace, state) visits.
        assert!(c.num_states() > 1);
        assert!(c.num_states() < compiled.len() * 4);
    }

    #[test]
    fn compiled_refinement_agrees_with_trace_subset() {
        let defs = parse_definitions(
            "spec = a?x:NAT -> spec | b!0 -> spec
             good = a?x:NAT -> good
             bad = c!9 -> bad",
        )
        .unwrap();
        let uni = Universe::new(1);
        let env = Env::new();
        let mut c = CompiledLts::new(&defs, &uni);
        let spec = c.start("spec", &env);
        let good = c.start("good", &env);
        let bad = c.start("bad", &env);
        assert!(c.refines(good, spec, 3, 9).unwrap().is_ok());
        let cex = c.refines(bad, spec, 3, 9).unwrap().unwrap_err();
        assert_eq!(cex.len(), 1, "shortest counterexample: {cex}");
        // Reflexivity.
        assert!(c.refines(spec, spec, 3, 9).unwrap().is_ok());
    }

    #[test]
    fn compiled_refinement_sees_through_hiding() {
        // pipeline (with wire hidden) refines the one-place buffer spec
        // only via τ-closure over the hidden synchronisations.
        let defs = parse_definitions(
            "copier = input?x:NAT -> wire!x -> copier
             recopier = wire?y:NAT -> output!y -> recopier
             pipeline = chan wire; (copier || recopier)
             anyio = input?x:NAT -> anyio | output!0 -> anyio | output!1 -> anyio",
        )
        .unwrap();
        let uni = Universe::new(1);
        let env = Env::new();
        let mut c = CompiledLts::new(&defs, &uni);
        let impl_s = c.start("pipeline", &env);
        let spec_s = c.start("anyio", &env);
        assert!(c.refines(impl_s, spec_s, 3, 9).unwrap().is_ok());
        // And the reverse direction fails: anyio can output before any
        // input, which the pipeline never does.
        let cex = c.refines(spec_s, impl_s, 3, 9).unwrap().unwrap_err();
        assert!(!cex.is_empty());
    }

    #[test]
    fn rows_are_compiled_once() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("pipeline", &env_new());
        c.traces(start, 3).unwrap();
        let states = c.num_states();
        let transitions = c.num_transitions();
        // A second walk re-uses every row: no new states, no new rows.
        c.traces(start, 3).unwrap();
        assert_eq!(c.num_states(), states);
        assert_eq!(c.num_transitions(), transitions);
    }

    fn env_new() -> Env {
        Env::new()
    }

    /// Every state whose row has been compiled interns back to its own id
    /// from its term, and its row is [`Lts::steps`] on that term mapped
    /// through `intern` — without interning anything new.
    fn assert_rows_are_whole_term_rows(c: &mut CompiledLts<'_>, lts: &Lts<'_>) {
        let n = c.num_states();
        for i in 0..n {
            let id = StateId(i as u32);
            let config = c.state(id).clone();
            assert_eq!(
                c.intern(config.clone()),
                id,
                "state {i}: {}",
                config.process()
            );
            let Some(row) = c.states[i].row.clone() else {
                continue;
            };
            let want: Vec<CompiledStep> = lts
                .steps(&config)
                .unwrap()
                .into_iter()
                .map(|s| match s {
                    Step::Visible(e, next) => CompiledStep::Visible(e, c.intern(next)),
                    Step::Internal(next) => CompiledStep::Internal(c.intern(next)),
                })
                .collect();
            assert_eq!(row, want, "row of state {i}: {}", config.process());
        }
        assert_eq!(
            c.num_states(),
            n,
            "a whole-term successor was not in the arena"
        );
    }

    #[test]
    fn network_rows_are_whole_term_rows() {
        let mult = parse_definitions(&examples::multiplier_src(3)).unwrap();
        // The benchmark's widest multiplier: rows over {0..1}.
        let mult4 = parse_definitions(
            &examples::multiplier_src(4).replace("row[i]?x:NAT", "row[i]?x:{0..1}"),
        )
        .unwrap();
        let chain = parse_definitions(&examples::pipeline_src(4)).unwrap();
        let protocol_uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let cases = [
            (
                examples::pipeline(),
                Universe::new(1),
                "pipeline",
                Env::new(),
                6,
            ),
            (
                examples::protocol(),
                protocol_uni,
                "protocol",
                Env::new(),
                5,
            ),
            (chain, Universe::new(1), "chain", Env::new(), 5),
            (
                mult,
                Universe::new(6),
                "multiplier",
                examples::multiplier_env(&[1, 2, 3]),
                3,
            ),
            (
                mult4,
                Universe::new(10),
                "multiplier",
                examples::multiplier_env(&[1, 2, 3, 4]),
                4,
            ),
        ];
        for (defs, uni, name, env, depth) in &cases {
            let lts = Lts::new(defs, uni);
            let mut c = CompiledLts::new(defs, uni);
            let start = c.start(name, env);
            let compiled = c.traces_budgeted(start, *depth, depth * 3).unwrap();
            let enumerated = lts
                .traces_budgeted(&lts.initial(name, env), *depth, depth * 3)
                .unwrap();
            assert_eq!(compiled, enumerated, "{name}");
            // Only the unfolded start state is stepped as a whole term.
            assert_eq!(c.num_fallback_rows(), 1, "{name}");
            assert!(c.num_component_rows() > 0, "{name}");
            // The multipliers' inner `||`s pin on their first moves: those
            // successors are spliced once each spine has been read.
            if *name == "multiplier" {
                assert!(c.num_splices() > 0, "{name}");
            }
            assert_rows_are_whole_term_rows(&mut c, &lts);
        }
    }

    #[test]
    fn joint_moves_growing_two_spines_are_whole_term_moves() {
        // On `a.0` both operands of the pinned root `||` move jointly, and
        // each pins its own inner `||`: two components grow in one move.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let net = "(a!0 -> STOP || b!0 -> STOP) ||{a, b | a, c} (a!0 -> STOP || c!0 -> STOP)";
        for src in [net.to_string(), format!("chan a; ({net})")] {
            let config = Config::new(csp_lang::parse_process(&src).unwrap(), Env::new());
            let mut c = CompiledLts::new(&defs, &uni);
            let start = c.intern(config.clone());
            let compiled = c.traces_budgeted(start, 4, 12).unwrap();
            let enumerated = lts.traces_budgeted(&config, 4, 12).unwrap();
            assert_eq!(compiled, enumerated, "{src}");
            assert_rows_are_whole_term_rows(&mut c, &lts);
        }
    }

    #[test]
    fn one_shape_with_other_alphabets_is_another_skeleton() {
        // Both arms pin a two-leaf `||` in the same environment; only the
        // alphabets differ, and with them whether `c` synchronises.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let p = csp_lang::parse_process(
            "(a!0 -> c!0 -> STOP || c!0 -> STOP) | (a!1 -> c!0 -> STOP || d!0 -> STOP)",
        )
        .unwrap();
        let config = Config::new(p, Env::new());
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.intern(config.clone());
        let compiled = c.traces_budgeted(start, 3, 9).unwrap();
        assert_eq!(compiled, lts.traces_budgeted(&config, 3, 9).unwrap());
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn a_chan_whose_channels_do_not_resolve_is_a_leaf() {
        // Below the pinned root, the `chan` over a pinned `||` reads as a
        // spine node but for its channel, which is no integer-subscripted
        // channel: it is a leaf, whose first step fails as on the whole
        // term.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let p = csp_lang::parse_process(
            "(chan c[ACK]; (a!0 -> STOP ||{a | b} b!0 -> STOP)) ||{a, b | d} d!0 -> STOP",
        )
        .unwrap();
        let config = Config::new(p, Env::new());
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.intern(config.clone());
        assert_eq!(
            c.traces_budgeted(start, 2, 6).unwrap_err(),
            lts.traces_budgeted(&config, 2, 6).unwrap_err()
        );
    }

    #[test]
    fn concealed_array_networks_rows_are_whole_term_rows() {
        // `chan` with a subscripted channel inside each `||` operand: the
        // operands are closed on their first move, then walk as skeleton
        // nodes below the outer `||`.
        let defs = parse_definitions(
            "cell[i:1..2] = in[i]?x:NAT -> link[i]!x -> cell[i]
             sink[i:1..2] = link[i]?y:NAT -> out[i]!y -> sink[i]
             buf[i:1..2] = chan link[i]; (cell[i] || sink[i])
             pair = buf[1] || buf[2]",
        )
        .unwrap();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("pair", &Env::new());
        let compiled = c.traces_budgeted(start, 4, 12).unwrap();
        let enumerated = lts
            .traces_budgeted(&lts.initial("pair", &Env::new()), 4, 12)
            .unwrap();
        assert_eq!(compiled, enumerated);
        assert!(c.num_fallback_rows() < c.num_states() / 2);
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn hidden_operand_steps_are_network_steps() {
        // `chan` inside a `||` operand: its concealed a.1 must still
        // move the network, on the skeleton walk as on the whole term.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let want = lts
            .traces(
                &Config::new(
                    csp_lang::parse_process("b!2 -> STOP || c!3 -> STOP").unwrap(),
                    Env::new(),
                ),
                3,
            )
            .unwrap();
        assert_eq!(want.len(), 5);
        for src in [
            "(chan a; a!1 -> b!2 -> STOP) || (c!3 -> STOP)",
            "(c!3 -> STOP) || (chan a; a!1 -> b!2 -> STOP)",
            "chan d; ((chan a; a!1 -> b!2 -> STOP) || (c!3 -> STOP))",
        ] {
            let p = csp_lang::parse_process(src).unwrap();
            let mut c = CompiledLts::new(&defs, &uni);
            let start = c.intern(Config::new(p, Env::new()));
            assert_eq!(c.traces(start, 3).unwrap(), want, "{src}");
            assert_rows_are_whole_term_rows(&mut c, &lts);
        }
    }

    fn arb_subscript() -> impl Strategy<Value = Expr> {
        prop_oneof![
            (-1i64..3).prop_map(Expr::int),
            // `i` is bound in the tests' environment, `j` is not.
            Just(Expr::var("i")),
            Just(Expr::var("j")),
            // Resolves, but is no literal.
            Just(Expr::int(1).add(Expr::int(0))),
        ]
    }

    fn arb_chanref() -> impl Strategy<Value = ChanRef> {
        (
            prop_oneof![Just("a"), Just("b"), Just("c")],
            prop::collection::vec(arb_subscript(), 0..=2),
        )
            .prop_map(|(base, indices)| ChanRef::with_indices(base, indices))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// An alphabet is in pinned form exactly when resolving and
        /// rendering it gives it back, as the `||` rule pins it. Half the
        /// cases start from a rendered list, then reverse it or repeat a
        /// channel.
        #[test]
        fn the_pinned_form_is_what_resolving_renders(
            refs in prop::collection::vec(arb_chanref(), 0..5),
            shape in 0u8..4,
        ) {
            let env = Env::new().bind("i", Value::Int(1));
            let rendered = |refs: &[ChanRef]| {
                resolve_chanrefs(refs, &env).ok().map(|set| channelset_to_refs(&set))
            };
            let refs = match (shape, rendered(&refs)) {
                (0, _) | (_, None) => refs,
                (1, Some(pinned)) => pinned,
                (2, Some(mut pinned)) => {
                    pinned.reverse();
                    pinned
                }
                (_, Some(mut pinned)) => {
                    if let Some(c) = pinned.first().cloned() {
                        pinned.push(c);
                    }
                    pinned
                }
            };
            prop_assert_eq!(
                is_pinned(&refs),
                rendered(&refs).as_deref() == Some(&refs[..]),
                "{:?}",
                refs
            );
        }

        /// The one-walk `is_closed` agrees with the free-variable set read
        /// through `process_has_free`, on networks over terms that bind,
        /// read and subscript with `x` and `y` and read the host array `v`
        /// (and an array named like a variable).
        #[test]
        fn is_closed_agrees_with_the_free_variable_set(p in arb_open_term()) {
            prop_assert_eq!(is_closed(&p), closed_by_free_vars(&p), "{}", p);
        }
    }

    fn closed_by_free_vars(p: &Process) -> bool {
        free_vars_process(p).iter().all(|x| !process_has_free(p, x))
    }

    fn arb_operand() -> impl Strategy<Value = Expr> {
        prop_oneof![
            (0i64..3).prop_map(Expr::int),
            Just(Expr::var("x")),
            Just(Expr::var("y")),
        ]
    }

    fn arb_open_expr() -> impl Strategy<Value = Expr> {
        (arb_operand(), arb_operand(), 0u8..4).prop_map(|(a, b, shape)| match shape {
            0 => a,
            1 => a.add(b),
            // Array names are host constants, not variables.
            2 => Expr::ArrayRef("v".into(), Box::new(a)),
            _ => Expr::ArrayRef("x".into(), Box::new(a)),
        })
    }

    fn arb_open_chan() -> impl Strategy<Value = ChanRef> {
        (prop_oneof![Just("a"), Just("b")], arb_open_expr(), 0u8..2).prop_map(
            |(base, e, subscripted)| match subscripted {
                0 => ChanRef::simple(base),
                _ => ChanRef::indexed(base, e),
            },
        )
    }

    fn arb_open_set() -> impl Strategy<Value = SetExpr> {
        prop_oneof![
            Just(SetExpr::Nat),
            (arb_open_expr(), arb_open_expr())
                .prop_map(|(lo, hi)| SetExpr::Range(Box::new(lo), Box::new(hi))),
            arb_open_expr().prop_map(|e| SetExpr::Enum(vec![e])),
        ]
    }

    fn arb_open_alpha() -> impl Strategy<Value = Option<Vec<ChanRef>>> {
        (0u8..2, arb_open_chan()).prop_map(|(declared, c)| (declared == 1).then(|| vec![c]))
    }

    fn arb_open_term() -> impl Strategy<Value = Process> {
        let leaf = prop_oneof![
            Just(Process::Stop),
            arb_open_expr().prop_map(|e| Process::call1("q", e)),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (arb_open_chan(), arb_open_expr(), inner.clone())
                    .prop_map(|(c, e, p)| Process::output(c, e, p)),
                (
                    arb_open_chan(),
                    prop_oneof![Just("x"), Just("y")],
                    arb_open_set(),
                    inner.clone()
                )
                    .prop_map(|(c, x, m, p)| Process::input(c, x, m, p)),
                (inner.clone(), inner.clone()).prop_map(|(p, q)| p.or(q)),
                (
                    inner.clone(),
                    inner.clone(),
                    arb_open_alpha(),
                    arb_open_alpha()
                )
                    .prop_map(|(p, q, la, ra)| Process::Parallel {
                        left: Arc::new(p),
                        right: Arc::new(q),
                        left_alpha: la,
                        right_alpha: ra,
                    }),
                (arb_open_chan(), inner).prop_map(|(c, p)| p.hide(vec![c])),
            ]
        })
    }

    #[test]
    fn an_input_binds_only_what_follows_it() {
        for (src, closed) in [
            // The variable read in a later subscript and set is bound.
            ("c?x:NAT -> d[x]?y:{0..x} -> e[y]!v[x] -> STOP", true),
            // Its own subscript and set are read outside the binding.
            ("c[x]?x:NAT -> STOP", false),
            ("c?x:{0..x} -> STOP", false),
            (
                "c?x:NAT -> (d!x -> STOP || e?y:{x} -> f[y]!v[x] -> STOP)",
                true,
            ),
            ("(c?x:NAT -> STOP) || d!x -> STOP", false),
            ("d!v[1] -> STOP", true),
            ("d!v[i] -> STOP", false),
            ("chan c[i]; STOP", false),
            ("c?x:NAT -> chan d[x]; STOP", true),
        ] {
            let p = csp_lang::parse_process(src).unwrap();
            assert_eq!(is_closed(&p), closed, "{src}");
            assert_eq!(closed_by_free_vars(&p), closed, "{src}");
        }
    }
}
