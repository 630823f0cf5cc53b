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
//! the `chan`/`||` spine of the term in one environment, with its
//! alphabets, synchronisation sets and hidden sets resolved once. §1.2(7)
//! fixes a `||`'s alphabets when the network is composed, so a `||` is a
//! spine node before its first move too: the skeleton keeps its alphabets
//! as written, the sets its operands resolve them to, and the lists the
//! `||` rule pins it to on that move. A configuration's spine is read in
//! place: a pinned alphabet is known by its form (integer-literal
//! subscripts, channels strictly ascending), a skeleton is found by a
//! randomly keyed hash of the spine (environment, node kinds, alphabets
//! and hidden channels as written, and an unpinned `||`'s resolved
//! alphabets) and confirmed node by node, and sets are resolved only for
//! a new skeleton. An unpinned `||`'s inferred alphabets are unions of
//! its leaves' alphabets, each call's resolved once per arguments, so a
//! spine read is linear in its leaves.
//!
//! A component is a closed sequential term below the spine, held as a
//! control point (a subterm of a definition body, numbered once per
//! arena, or a leaf read from a spine) and a valuation of the point's
//! free variables. Its row is computed once per arena at that point, by
//! the prefix, choice and call rules of [`Lts::steps`] with names read
//! from the valuation: each successor is the next point and the values
//! of its free variables, looked up by an integer hash; no term is built
//! and no environment copied. A pair never seen is keyed by the hash of
//! the term it renders, computed without building the term, so two pairs
//! that render one term are one component, and every path into the
//! arena gives a configuration one id. The term is rendered only when a
//! witness or a grown spine reads it. A component that reaches a `||` or
//! `chan` is stepped by [`Lts::steps`] on its term.
//!
//! A network row runs the `||` and `chan` rules of [`Lts::steps`] over
//! the component rows, with whether an event is shared or hidden at a
//! node read from a bitmask the skeleton memoises per event. Each
//! successor is the parent's key with the moved components' ids
//! replaced, under the skeleton the move leaves (its unpinned `||`s above
//! the moved slots pinned: a memoised skeleton to skeleton step),
//! interned by hashing the id vector: no term is built or compared. Keys
//! and rows sit back to back in two flat buffers, and a row's moves and
//! keys are built in buffers the arena reuses.
//!
//! A state no skeleton represents keeps its whole term. The `Call` start
//! state (or `chan`s over a call) takes its row from the key of its
//! unfolded trunk, which is not interned; a leaf with free variables, a
//! root `chan` over a leaf, a `||` whose alphabets do not resolve and a
//! call chain that could outrun [`Lts::steps`]'s fuel leave a state to
//! [`Lts::steps`] on the whole term. When a sequential component steps
//! into a spine of its own, the successor is built as a term and
//! decomposed. Two rules keep this invisible: a network row has the same
//! steps, in the same order, as [`Lts::steps`] on the whole term; and
//! decomposition is a function of the configuration, so every path into
//! the arena gives a configuration the same [`StateId`].
//!
//! The trace walk numbers traces: `<>` is 0, and a child's number is
//! found among its parent's children. The walk's visited set holds
//! `(number, state)` pairs, each trace's states in a short chain of
//! blocks, so a visit scans the states its trace has met instead of
//! probing a hash; memory grows with the pairs visited, never with
//! traces times states. A trace is recorded as its parent's number and
//! its event, a [`TraceTree`]; no trace is built unless a caller asks for
//! the list ([`CompiledLts::trace_list`]).
//!
//! On top of the compiled successor rows, walks over sets of states
//! (deadlock search, trace refinement, the runtime monitor) run over
//! [`StateSet`] bitset rows. Refinement's specification side and the
//! monitor advance a set by one frontier step: a bounded
//! [`tau_closure`](CompiledLts::tau_closure), then the visible
//! successors [`after`](CompiledLts::after) one event.
//!
//! The enumerative engine stays authoritative: it is the direct
//! transcription of the paper's semantics, so the compiled engine is
//! validated against it the same way the interned trace engine is
//! validated against `NaiveTraceSet` — identical budgets, identical
//! exploration order, byte-identical trace sets (see the tests here and
//! the property harness in `tests/properties.rs`). The skeleton walk is
//! code of its own, so that check is independent. The process decides
//! whether its `sat` check runs on the trace walk or on this arena
//! ([`Engine::for_process`]); trace listing, deadlock search,
//! refinement, monitoring and conformance run on the arena alone.

use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use csp_lang::{
    channel_alphabet, close_process_with, reaches_network, resolve_chanrefs, ChanRef, Definitions,
    Env, EvalError, Expr, Process, SetExpr,
};
use csp_trace::{ChannelSet, Event, FxHashMap, FxHashSet, Trace, TraceSet, TraceTree, Value};

use crate::lts::channelset_to_refs;
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
/// is held as a whole term.
#[derive(Debug)]
pub struct CompiledLts<'a> {
    lts: Lts<'a>,
    defs: &'a Definitions,
    states: Vec<State>,
    /// Network keys, `[skeleton, component…]`, back to back.
    keys: Vec<u32>,
    /// Network states by key.
    nets: IdTable,
    /// Every other state by its configuration.
    wholes: BTreeMap<Config, u32>,
    /// Compiled rows, back to back.
    rows: Vec<CompiledStep>,
    skeletons: Vec<Skeleton>,
    /// Skeletons by the hash of their spine
    /// ([`spine_hash`](Self::spine_hash)); a hit is confirmed node by
    /// node.
    skeletons_by_spine: FxHashMap<u64, Vec<u32>>,
    /// The randomly keyed hasher of spines: terms come from user input.
    spine_keys: RandomState,
    /// The skeleton a move of a leaf slot leaves, by `(skeleton, slot)`.
    pins: FxHashMap<(u32, usize), u32>,
    /// The spine being read, kept between reads.
    read_buf: Vec<Part>,
    envs: Vec<Env>,
    env_ids: BTreeMap<Env, u32>,
    /// Inferred `||` operand alphabets, kept between spine reads.
    alphabets: Alphabets,
    /// The control points components stand at.
    points: Points,
    components: Vec<Component>,
    /// Components by the keyed hash of their environment and rendered
    /// term ([`hash_rendered`]); a hit is confirmed on the terms.
    component_ids: IdTable,
    /// Every `(environment, point, valuation)` a component was reached
    /// at, and the component; the valuations back to back.
    aliases: Vec<Alias>,
    alias_vals: Vec<Value>,
    /// Aliases by the keyed hash of their `(environment, point,
    /// valuation)`.
    alias_ids: IdTable,
    /// The component steps of the row being built, and their successors'
    /// valuations back to back; kept between rows.
    raw_buf: Vec<Raw>,
    vals_buf: Vec<Value>,
    /// The moves of the row being built, kept between rows.
    move_buf: MoveBuf,
    /// The key whose row is being built, the successor key built from
    /// it, and the key of a term being decomposed; kept between uses.
    row_key: Vec<u32>,
    next_key: Vec<u32>,
    read_key: Vec<u32>,
    transitions: usize,
    component_rows: usize,
    fallback_rows: usize,
    decompositions: usize,
    visits: usize,
}

/// The bookkeeping of one trace walk. Traces are numbered: `<>` is 0,
/// and every other trace is numbered when the walk first reaches it.
struct TraceWalk {
    /// `(trace number, state)` pairs already visited: a revisit adds
    /// nothing.
    seen: Visited,
    /// Per trace number, its newest child's number (or [`NONE`], or
    /// [`HASHED`] once it has more than [`SIBLINGS`] children), its next
    /// older sibling's, and its last event (`None` for `<>`): a trace's
    /// children are found by scanning them.
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last: Vec<Option<Event>>,
    /// The children of the traces with many, by `(parent number, event)`.
    hashed: FxHashMap<(u32, Event), u32>,
    /// The traces by number, so in first-visit order, each as its
    /// parent's number and its last event.
    tree: TraceTree,
}

/// Children a trace's sibling list holds before they move to a hash map.
/// Measured on a pipeline whose input offers 21, 41 or 81 values:
/// scanning a trace's 21 or 41 children explored 4–17% faster than the
/// hash map, and scanning 81 within 2% of it, so a list moves only past
/// 64, which bounds a lookup's scan. No benchmark workload has more than
/// 10 children per trace.
const SIBLINGS: usize = 64;

impl TraceWalk {
    fn new() -> Self {
        TraceWalk {
            seen: Visited::default(),
            first_child: vec![NONE],
            next_sibling: vec![NONE],
            last: vec![None],
            hashed: FxHashMap::default(),
            tree: TraceTree::new(),
        }
    }

    /// The number of `parent` extended by `e`, numbering it the first
    /// time it is asked for.
    fn child(&mut self, parent: u32, e: Event) -> u32 {
        let p = parent as usize;
        let first = self.first_child[p];
        if first == HASHED {
            let TraceWalk { hashed, tree, .. } = self;
            let n = *hashed
                .entry((parent, e))
                .or_insert_with(|| tree.push(parent, e));
            self.number(n, NONE, e);
            return n;
        }
        let (mut n, mut count) = (first, 0);
        while n != NONE {
            if self.last[n as usize] == Some(e) {
                return n;
            }
            n = self.next_sibling[n as usize];
            count += 1;
        }
        let n = self.tree.push(parent, e);
        if count == SIBLINGS {
            let mut sibling = first;
            while sibling != NONE {
                let last = self.last[sibling as usize].expect("a child has an event");
                self.hashed.insert((parent, last), sibling);
                sibling = self.next_sibling[sibling as usize];
            }
            self.hashed.insert((parent, e), n);
            self.first_child[p] = HASHED;
            self.number(n, NONE, e);
        } else {
            self.number(n, first, e);
            self.first_child[p] = n;
        }
        n
    }

    /// Gives trace `n`, new, its sibling and its last event.
    fn number(&mut self, n: u32, sibling: u32, e: Event) {
        assert!(n < HASHED, "trace numbers exceed u32");
        if n as usize == self.last.len() {
            self.first_child.push(NONE);
            self.next_sibling.push(sibling);
            self.last.push(Some(e));
        }
    }
}

/// The `(trace number, state)` pairs a walk has visited. Each trace's
/// states sit in a chain of blocks in one pool, its newest block first,
/// so a visit scans the few states its trace has visited: no hash is
/// probed. A trace that has visited more states than its chain may hold
/// moves them to a hash set. Memory grows with the pairs visited, never
/// with traces times states.
#[derive(Debug, Default)]
struct Visited {
    /// Per trace number, the index of its newest block in `pool`, or
    /// [`NONE`] when it has visited no state, or [`HASHED`].
    heads: Vec<u32>,
    /// Blocks of [`BLOCK`] words: the index of the next, older block (or
    /// [`NONE`]), then states; only a newest block has free words, which
    /// hold [`NONE`].
    pool: Vec<u32>,
    /// The pairs of the traces whose chains grew past [`CHAIN`] blocks.
    hashed: FxHashSet<(u32, u32)>,
    len: usize,
}

/// Words per block of a [`Visited`] chain: a link and seven states.
const BLOCK: usize = 8;
/// Blocks a trace's chain may hold before its states move to the hash set.
/// A full chain is 56 states, scanned in about twice the time of one
/// probe of the hash set; moving traces past 14 states (two blocks) to it
/// made the `chain6_d6` check, whose traces reach up to 20 states, 23%
/// slower, since growing the set costs more than the scans it saves. No
/// benchmark workload fills a chain.
const CHAIN: usize = 8;
const NONE: u32 = u32::MAX;
const HASHED: u32 = u32::MAX - 1;

impl Visited {
    /// Records a visit; true when the pair is new.
    fn insert(&mut self, trace: u32, state: u32) -> bool {
        let t = trace as usize;
        if t >= self.heads.len() {
            self.heads.resize(t + 1, NONE);
        }
        let head = self.heads[t];
        if head == HASHED {
            let fresh = self.hashed.insert((trace, state));
            self.len += usize::from(fresh);
            return fresh;
        }
        let (mut block, mut blocks, mut free) = (head, 0, None);
        while block != NONE {
            let at = block as usize;
            for (i, &s) in self.pool[at + 1..at + BLOCK].iter().enumerate() {
                if s == state {
                    return false;
                }
                if s == NONE {
                    free = Some(at + 1 + i);
                    break;
                }
            }
            block = self.pool[at];
            blocks += 1;
        }
        self.len += 1;
        if let Some(i) = free {
            self.pool[i] = state;
        } else if blocks == CHAIN {
            let mut block = head;
            while block != NONE {
                let at = block as usize;
                let states = &self.pool[at + 1..at + BLOCK];
                self.hashed.extend(states.iter().map(|&s| (trace, s)));
                block = self.pool[at];
            }
            self.hashed.insert((trace, state));
            self.heads[t] = HASHED;
        } else {
            let at = u32::try_from(self.pool.len())
                .ok()
                .filter(|&at| at < HASHED);
            self.heads[t] = at.expect("visit pool exceeds u32");
            self.pool.push(head);
            self.pool.push(state);
            self.pool.resize(self.pool.len() + BLOCK - 2, NONE);
        }
        true
    }

    /// The pairs visited.
    fn len(&self) -> usize {
        self.len
    }
}

/// One interned state.
#[derive(Debug)]
struct State {
    /// Where a network state's `[skeleton, component…]` sits in the key
    /// buffer; empty for a whole-term state.
    key: Range<u32>,
    /// The configuration, built on first use for network states.
    term: OnceLock<Config>,
    /// Where the row sits in the row buffer, once compiled.
    row: Option<Range<u32>>,
}

/// A range of one of the arena's buffers as indices.
fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// Ids by the hash of keys kept elsewhere: an open-addressed table,
/// probed linearly, that asks its caller whether a candidate's key is the
/// one looked for.
#[derive(Debug, Default)]
struct IdTable {
    /// Per slot, an id plus one, or 0 for an empty slot. The length is
    /// zero or a power of two, and at most half the slots are full.
    slots: Vec<u32>,
    len: usize,
}

impl IdTable {
    /// The first id hashed to `hash` whose key `is` the one looked for.
    fn get(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_of(hash) & mask;
        loop {
            let id = self.slots[i].checked_sub(1)?;
            if is(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds an id whose key is not in the table yet; `hash_of` rehashes
    /// the ids already in it when the table grows.
    fn insert(&mut self, id: u32, hash: u64, hash_of: impl Fn(u32) -> u64) {
        if 2 * (self.len + 1) > self.slots.len() {
            let size = (2 * self.slots.len()).max(64);
            for slot in std::mem::replace(&mut self.slots, vec![0; size]) {
                if let Some(old) = slot.checked_sub(1) {
                    self.place(slot, hash_of(old));
                }
            }
        }
        self.place(id + 1, hash);
        self.len += 1;
    }

    fn place(&mut self, slot: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut i = slot_of(hash) & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }
}

/// The hash of a network key. Keys are arena ids, not user input, so a
/// multiply-rotate hash serves.
fn key_hash(key: &[u32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    key.iter().fold(key.len() as u64, |h, &x| {
        (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(K)
    })
}

/// The first slot to probe for a hash: its high bits, the best mixed.
fn slot_of(hash: u64) -> usize {
    (hash >> 32) as usize
}

/// The `chan`/`||` spine of a network term in one environment, with its
/// alphabets, synchronisation sets and hidden sets resolved once. Nodes
/// are stored children first, so the root is the last node; leaves are
/// numbered left to right.
#[derive(Debug)]
struct Skeleton {
    env: u32,
    nodes: Vec<Node>,
    /// True when some `||` node is unpinned.
    unpinned: bool,
    /// The events met in this skeleton's moves, each with its row of
    /// `marks`.
    events: FxHashMap<Event, u32>,
    /// One bit per node and event row: the event's channel is shared at
    /// that `||` node, or concealed at that `chan` node.
    marks: Vec<u64>,
}

impl Skeleton {
    /// The skeleton of a spine [`read_spine`](CompiledLts::read_spine)
    /// read in `env`: the one place a spine's pinned alphabets and hidden
    /// channels are resolved.
    fn new(env_id: u32, env: &Env, read: &[Part]) -> Self {
        let resolve =
            |refs: &[ChanRef]| resolve_chanrefs(refs, env).expect("read_spine resolved these");
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
                Part::Par(term, alphabets) => {
                    let Process::Parallel {
                        left_alpha,
                        right_alpha,
                        ..
                    } = &**term
                    else {
                        unreachable!("a `||` part holds a `||` term")
                    };
                    let right = roots.pop().expect("a right operand");
                    let left = roots.pop().expect("a left operand");
                    let (sync, unpinned) = match alphabets {
                        Some((x, y)) => (
                            x.intersection(y),
                            Some(Arc::new(Unpinned {
                                left: channelset_to_refs(x).into(),
                                right: channelset_to_refs(y).into(),
                                x: x.clone(),
                                y: y.clone(),
                            })),
                        ),
                        None => {
                            let pinned = |a: &Option<Vec<ChanRef>>| {
                                resolve(a.as_deref().expect("a pinned node lists both sides"))
                            };
                            (pinned(left_alpha).intersection(&pinned(right_alpha)), None)
                        }
                    };
                    Node::Par {
                        left,
                        right,
                        left_alpha: left_alpha.as_deref().map(Arc::from),
                        right_alpha: right_alpha.as_deref().map(Arc::from),
                        unpinned,
                        sync: Arc::new(sync),
                    }
                }
                Part::Hide(term) => {
                    let Process::Hide { channels, .. } = &**term else {
                        unreachable!("a `chan` part holds a `chan` term")
                    };
                    Node::Hide {
                        channels: channels.as_slice().into(),
                        hidden: Arc::new(resolve(channels)),
                        body: roots.pop().expect("a body"),
                    }
                }
            };
            roots.push(nodes.len());
            nodes.push(node);
        }
        Skeleton::of_nodes(env_id, nodes)
    }

    fn of_nodes(env: u32, nodes: Vec<Node>) -> Self {
        Skeleton {
            env,
            unpinned: nodes.iter().any(|n| matches!(n.view(), View::Unpinned(..))),
            nodes,
            events: FxHashMap::default(),
            marks: Vec::new(),
        }
    }

    /// True when `views` is this skeleton's spine in environment `env`,
    /// node for node: the same kinds (which fix the shape, children
    /// first), alphabets and hidden channels.
    fn reads_as<'v>(&self, env: u32, mut views: impl Iterator<Item = View<'v>>) -> bool {
        self.env == env
            && self
                .nodes
                .iter()
                .all(|node| views.next().is_some_and(|v| node.view() == v))
            && views.next().is_none()
    }

    /// The nodes above leaf `slot`, nearest first.
    fn ancestors(&self, slot: usize) -> Vec<usize> {
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut leaf = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            match node {
                Node::Leaf(s) if *s == slot => leaf = i,
                Node::Leaf(_) => {}
                Node::Par { left, right, .. } => {
                    parent[*left] = i;
                    parent[*right] = i;
                }
                Node::Hide { body, .. } => parent[*body] = i,
            }
        }
        std::iter::successors(parent.get(leaf).copied(), |&n| parent.get(n).copied())
            .take_while(|&n| n != usize::MAX)
            .collect()
    }

    /// The row of `marks` of an event, made on the event's first move
    /// here.
    fn marks_of(&mut self, e: Event) -> u32 {
        if let Some(&row) = self.events.get(&e) {
            return row;
        }
        let words = self.nodes.len().div_ceil(64);
        let row = u32::try_from(self.marks.len() / words).expect("event rows exceed u32");
        self.marks.resize(self.marks.len() + words, 0);
        let bits = &mut self.marks[row as usize * words..];
        for (n, node) in self.nodes.iter().enumerate() {
            let set: &ChannelSet = match node {
                Node::Par { sync, .. } => sync,
                Node::Hide { hidden, .. } => hidden,
                Node::Leaf(_) => continue,
            };
            if set.contains(e.channel()) {
                bits[n / 64] |= 1 << (n % 64);
            }
        }
        self.events.insert(e, row);
        row
    }

    /// True when the event of `marks` row `row` is shared (a `||` node)
    /// or concealed (a `chan` node) at `node`.
    fn marked(&self, row: u32, node: usize) -> bool {
        let words = self.nodes.len().div_ceil(64);
        self.marks[row as usize * words + node / 64] >> (node % 64) & 1 != 0
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
                left_alpha: left_alpha.as_deref().map(<[ChanRef]>::to_vec),
                right_alpha: right_alpha.as_deref().map(<[ChanRef]>::to_vec),
            }),
            Node::Hide { channels, body, .. } => Arc::new(Process::Hide {
                channels: channels.to_vec(),
                body: self.build(*body, leaf),
            }),
        }
    }
}

/// A skeleton node. Its lists and sets are shared, so the skeleton a move
/// pins copies none of them.
#[derive(Debug, Clone)]
enum Node {
    /// The component in this leaf slot.
    Leaf(usize),
    Par {
        left: usize,
        right: usize,
        /// The alphabets as written, to rebuild the term: a pinned node's
        /// are its pinned lists.
        left_alpha: Option<Arc<[ChanRef]>>,
        right_alpha: Option<Arc<[ChanRef]>>,
        /// `None` once pinned.
        unpinned: Option<Arc<Unpinned>>,
        sync: Arc<ChannelSet>,
    },
    Hide {
        channels: Arc<[ChanRef]>,
        hidden: Arc<ChannelSet>,
        body: usize,
    },
}

impl Node {
    fn view(&self) -> View<'_> {
        match self {
            Node::Leaf(_) => View::Leaf,
            Node::Par {
                left_alpha,
                right_alpha,
                unpinned,
                ..
            } => match unpinned {
                None => View::Pinned(
                    left_alpha.as_deref().unwrap_or_default(),
                    right_alpha.as_deref().unwrap_or_default(),
                ),
                Some(u) => {
                    View::Unpinned(left_alpha.as_deref(), right_alpha.as_deref(), &u.x, &u.y)
                }
            },
            Node::Hide { channels, .. } => View::Hide(channels),
        }
    }
}

/// An unpinned `||` node's alphabets `X` and `Y`, as its operands resolve
/// them in the skeleton's environment (declared or inferred), and the
/// lists the `||` rule pins the node to on its first move.
#[derive(Debug)]
struct Unpinned {
    x: ChannelSet,
    y: ChannelSet,
    left: Arc<[ChanRef]>,
    right: Arc<[ChanRef]>,
}

/// What identifies one spine node, read from a term or from a skeleton:
/// its kind and its alphabets or hidden channels as written, and for an
/// unpinned `||` also the alphabets its operands resolve to, since
/// inference reads the operands.
#[derive(Debug, PartialEq, Eq, Hash)]
enum View<'a> {
    Leaf,
    Pinned(&'a [ChanRef], &'a [ChanRef]),
    Unpinned(
        Option<&'a [ChanRef]>,
        Option<&'a [ChanRef]>,
        &'a ChannelSet,
        &'a ChannelSet,
    ),
    Hide(&'a [ChanRef]),
}

/// A closed sequential term below a spine, stepped in its skeleton's
/// environment: a control point and a valuation of its free variables,
/// `term` rendered. Two pairs that render one term are one component.
#[derive(Debug)]
struct Component {
    term: Rendered,
    env: u32,
    /// The keyed hash of the environment and the rendered term.
    hash: u64,
    /// `(event, successor)` per step, in [`Lts::steps`] order; `None`
    /// marks a concealed step.
    row: Option<Vec<(Option<Event>, Next)>>,
}

/// A component's term: a control point's subterm with its free variables
/// read from a valuation, built the first time it is read.
#[derive(Debug)]
struct Rendered {
    site: Arc<Process>,
    vars: Arc<[Box<str>]>,
    vals: Box<[Value]>,
    term: OnceLock<Arc<Process>>,
}

impl Rendered {
    fn arc(&self) -> &Arc<Process> {
        self.term
            .get_or_init(|| render(&self.site, &self.vars, &self.vals))
    }
}

impl std::ops::Deref for Rendered {
    type Target = Process;

    fn deref(&self) -> &Process {
        self.arc()
    }
}

/// The term `site` renders to with its free variables `vars` read from
/// `vals`: the site itself when there are none.
fn render(site: &Arc<Process>, vars: &[Box<str>], vals: &[Value]) -> Arc<Process> {
    if vals.is_empty() {
        return Arc::clone(site);
    }
    let val = Valuation { vars, vals };
    close_process_with(site, &|x| val.get(x).cloned())
}

/// The control points components stand at: the subterms of definition
/// bodies that follow a prefix, and the terms a component is interned by
/// (spine leaves, successors of a component stepped whole), each
/// numbered once per arena by its address.
#[derive(Debug, Default)]
struct Points {
    list: Vec<Point>,
    ids: FxHashMap<usize, u32>,
}

#[derive(Debug)]
struct Point {
    /// The subterm; holding it keeps its address this point's.
    term: Arc<Process>,
    /// Its free variables, ascending: a valuation lists their values in
    /// this order.
    vars: Arc<[Box<str>]>,
}

impl Points {
    /// The point of a subterm, numbering it on first sight.
    fn of(&mut self, term: &Arc<Process>) -> u32 {
        let addr = Arc::as_ptr(term) as usize;
        if let Some(&p) = self.ids.get(&addr) {
            return p;
        }
        let p = u32::try_from(self.list.len()).expect("point arena exceeds u32");
        let mut vars = BTreeSet::new();
        free_vars_under(term, None, &mut |x| {
            vars.insert(x);
            true
        });
        self.list.push(Point {
            term: Arc::clone(term),
            vars: vars.into_iter().map(Box::from).collect(),
        });
        self.ids.insert(addr, p);
        p
    }
}

/// A valuation a component was reached with: `(environment, point,
/// valuation)` and the component that renders it.
#[derive(Debug)]
struct Alias {
    env: u32,
    at: u32,
    vals: Range<u32>,
    hash: u64,
    comp: u32,
}

/// A component step before interning: its event and its successor, as a
/// point and the range of its valuation in the row's value buffer, or as
/// a term where no point stands for it (it has free variables, or is a
/// `||` or `chan`, read as a spine or a leaf).
#[derive(Debug)]
enum Raw {
    At(Event, u32, Range<usize>),
    Term(Event, Arc<Process>),
}

/// Where a name at a control point is read: in a component's own
/// valuation, or, once a call is unfolded, in the parameters the
/// unfolded calls bound, innermost first; then in the skeleton's
/// environment (array cells, and what a body reads of its callers' scope).
#[derive(Debug, Clone, Copy)]
enum Scope<'s> {
    Own(Valuation<'s>),
    Call(Option<&'s Param<'s>>),
}

#[derive(Debug)]
struct Param<'s> {
    name: &'s str,
    value: Value,
    outer: Option<&'s Param<'s>>,
}

impl Scope<'_> {
    fn lookup(&self, x: &str, env: &Env) -> Option<Value> {
        match *self {
            Scope::Own(val) => {
                if let Some(v) = val.get(x) {
                    return Some(v.clone());
                }
            }
            Scope::Call(mut param) => {
                while let Some(p) = param {
                    if p.name == x {
                        return Some(p.value.clone());
                    }
                    param = p.outer;
                }
            }
        }
        env.lookup(x).cloned()
    }

    /// The parameters a call made here is resolved in: a component's own
    /// term is stepped in the skeleton's environment alone.
    fn params(&self) -> Option<&Param<'_>> {
        match *self {
            Scope::Own(..) => None,
            Scope::Call(param) => param,
        }
    }
}

/// Steps one component at its control point, by the rules of
/// [`Lts::steps`] for prefixes, choices and calls, with names read
/// through a [`Scope`]: no environment is built, and each successor is a
/// point and the values of its free variables.
struct Stepper<'s, 'a> {
    defs: &'a Definitions,
    universe: &'a Universe,
    env: &'s Env,
    points: &'s mut Points,
    raw: &'s mut Vec<Raw>,
    vals: &'s mut Vec<Value>,
}

impl Stepper<'_, '_> {
    /// Appends the steps of `p` in `scope`, in [`Lts::steps`] order;
    /// false when `p` reaches a `||` or `chan`, which only the whole term
    /// steps.
    fn step(&mut self, p: &Process, scope: Scope<'_>, fuel: usize) -> Result<bool, EvalError> {
        let env = self.env;
        let lookup = |x: &str| scope.lookup(x, env);
        match p {
            Process::Stop | Process::Error(_) => Ok(true),
            Process::Call { name, args } => {
                if fuel == 0 {
                    return Ok(true);
                }
                let mut vals = args
                    .iter()
                    .map(|e| e.eval_with(&lookup))
                    .collect::<Result<Vec<_>, _>>()?;
                let outer = scope.params();
                let (body, param) = self
                    .defs
                    .resolve_call_with(name, &vals, &|x| Scope::Call(outer).lookup(x, env))?;
                match param {
                    Some(name) => {
                        let param = Param {
                            name,
                            value: vals.swap_remove(0),
                            outer,
                        };
                        self.step(body, Scope::Call(Some(&param)), fuel - 1)
                    }
                    None => self.step(body, Scope::Call(outer), fuel - 1),
                }
            }
            Process::Output { chan, msg, then } => {
                let c = chan.resolve_with(&lookup)?;
                let v = msg.eval_with(&lookup)?;
                self.push(Event::new(c, v), then, scope, None);
                Ok(true)
            }
            Process::Input {
                chan,
                var,
                set,
                then,
            } => {
                let c = chan.resolve_with(&lookup)?;
                let m = set.eval_with(&lookup)?;
                for v in self.universe.enumerate(&m)? {
                    let e = Event::new(c.clone(), v.clone());
                    self.push(e, then, scope, Some((var, v)));
                }
                Ok(true)
            }
            Process::Choice(a, b) => Ok(self.step(a, scope, fuel)? && self.step(b, scope, fuel)?),
            Process::Parallel { .. } | Process::Hide { .. } => Ok(false),
        }
    }

    /// Appends a step to `then`, an input binding `input` on the way: the
    /// successor is `then`'s point and the values of its free variables,
    /// or, when one is unbound or `then` is a `||` or `chan`, `then`
    /// closed as the `||` rule closes a moved operand.
    fn push(
        &mut self,
        e: Event,
        then: &Arc<Process>,
        scope: Scope<'_>,
        input: Option<(&str, Value)>,
    ) {
        let env = self.env;
        let value = |x: &str| match &input {
            Some((var, v)) if *var == x => Some(v.clone()),
            _ => scope.lookup(x, env),
        };
        let at = self.points.of(then);
        let vars = &self.points.list[at as usize].vars;
        let from = self.vals.len();
        for x in vars.iter() {
            match value(x) {
                Some(v) => self.vals.push(v),
                None => break,
            }
        }
        if self.vals.len() - from == vars.len()
            && !matches!(**then, Process::Parallel { .. } | Process::Hide { .. })
        {
            self.raw.push(Raw::At(e, at, from..self.vals.len()));
            return;
        }
        self.vals.truncate(from);
        self.raw
            .push(Raw::Term(e, close_process_with(then, &value)));
    }
}

/// Where a component step leads.
#[derive(Debug, Clone)]
enum Next {
    Comp(u32),
    /// A successor no component can hold: it grew a spine of its own, or
    /// has free variables. The network successor is built as a term.
    Term(Arc<Process>),
}

/// One step of a skeleton node: its event (`None` when concealed), the
/// event's row of marks in the skeleton, and the range of
/// [`MoveBuf::parts`] holding the component steps taking part.
#[derive(Debug, Clone)]
struct Move {
    event: Option<Event>,
    marks: u32,
    parts: Range<usize>,
}

/// The moves of a skeleton node, and the `(leaf slot, row index)` parts
/// they name, in slot order.
#[derive(Debug, Default)]
struct MoveBuf {
    moves: Vec<Move>,
    parts: Vec<(usize, usize)>,
}

/// One node of a spine as [`read_spine`](CompiledLts::read_spine) reads
/// it from a term, children first: a leaf holds its component's term, a
/// node the `||` or `chan` term itself, so nothing is copied out of the
/// term. An unpinned `||` also holds the alphabets its operands resolve
/// to.
#[derive(Debug)]
enum Part {
    Leaf(Arc<Process>),
    Par(Arc<Process>, Option<(ChannelSet, ChannelSet)>),
    Hide(Arc<Process>),
}

impl Part {
    fn view(&self) -> View<'_> {
        match self {
            Part::Leaf(_) => View::Leaf,
            Part::Par(term, alphabets) => {
                let Process::Parallel {
                    left_alpha,
                    right_alpha,
                    ..
                } = &**term
                else {
                    unreachable!("a `||` part holds a `||` term")
                };
                match alphabets {
                    None => View::Pinned(
                        left_alpha.as_deref().unwrap_or_default(),
                        right_alpha.as_deref().unwrap_or_default(),
                    ),
                    Some((x, y)) => {
                        View::Unpinned(left_alpha.as_deref(), right_alpha.as_deref(), x, y)
                    }
                }
            }
            Part::Hide(term) => match &**term {
                Process::Hide { channels, .. } => View::Hide(channels),
                _ => unreachable!("a `chan` part holds a `chan` term"),
            },
        }
    }
}

/// How a subterm reads where a spine node may stand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    /// A spine node; its spine was pushed.
    Spine,
    /// No spine node; nothing was pushed.
    Leaf,
    /// A leaf below it has free variables, so no skeleton represents the
    /// term (part of its spine may have been pushed).
    Open,
}

impl<'a> CompiledLts<'a> {
    /// An empty arena over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        CompiledLts {
            lts: Lts::new(defs, universe),
            defs,
            states: Vec::new(),
            keys: Vec::new(),
            nets: IdTable::default(),
            wholes: BTreeMap::new(),
            rows: Vec::new(),
            skeletons: Vec::new(),
            skeletons_by_spine: FxHashMap::default(),
            spine_keys: RandomState::new(),
            pins: FxHashMap::default(),
            read_buf: Vec::new(),
            envs: Vec::new(),
            env_ids: BTreeMap::new(),
            alphabets: Alphabets::default(),
            points: Points::default(),
            components: Vec::new(),
            component_ids: IdTable::default(),
            aliases: Vec::new(),
            alias_vals: Vec::new(),
            alias_ids: IdTable::default(),
            raw_buf: Vec::new(),
            vals_buf: Vec::new(),
            move_buf: MoveBuf::default(),
            row_key: Vec::new(),
            next_key: Vec::new(),
            read_key: Vec::new(),
            transitions: 0,
            component_rows: 0,
            fallback_rows: 0,
            decompositions: 0,
            visits: 0,
        }
    }

    /// Interns a configuration, returning its arena id (stable for the
    /// lifetime of the arena; the same configuration always gets the
    /// same id).
    pub fn intern(&mut self, config: Config) -> StateId {
        self.decompositions += 1;
        let mut key = std::mem::take(&mut self.read_key);
        let net = self
            .decompose(config.process_arc(), config.env(), &mut key)
            .then(|| self.intern_key(&key));
        self.read_key = key;
        if let Some(id) = net {
            // Already built: spare `state` the rebuild.
            let _ = self.states[id.index()].term.set(config);
            return id;
        }
        if let Some(&i) = self.wholes.get(&config) {
            return StateId(i);
        }
        let id = self.push(0..0);
        let _ = self.states[id.index()].term.set(config.clone());
        self.wholes.insert(config, id.0);
        id
    }

    fn intern_key(&mut self, key: &[u32]) -> StateId {
        let hash = key_hash(key);
        let (states, keys) = (&self.states, &self.keys);
        if let Some(i) = self
            .nets
            .get(hash, |i| keys[span(&states[i as usize].key)] == *key)
        {
            return StateId(i);
        }
        let at = u32::try_from(self.keys.len()).expect("key arena exceeds u32");
        self.keys.extend_from_slice(key);
        let end = u32::try_from(self.keys.len()).expect("key arena exceeds u32");
        let id = self.push(at..end);
        let (states, keys) = (&self.states, &self.keys);
        self.nets.insert(id.0, hash, |i| {
            key_hash(&keys[span(&states[i as usize].key)])
        });
        id
    }

    fn push(&mut self, key: Range<u32>) -> StateId {
        let i = u32::try_from(self.states.len()).expect("state arena exceeds u32");
        self.states.push(State {
            key,
            term: OnceLock::new(),
            row: None,
        });
        StateId(i)
    }

    /// The key of a network state; empty for a whole-term state.
    fn key(&self, id: StateId) -> &[u32] {
        &self.keys[span(&self.states[id.index()].key)]
    }

    /// Interns the initial configuration of a named process.
    pub fn start(&mut self, name: &str, env: &Env) -> StateId {
        let config = self.lts.initial(name, env);
        self.intern(config)
    }

    /// The configuration behind an id (built on first use for network
    /// states).
    pub fn state(&self, id: StateId) -> &Config {
        self.states[id.index()].term.get_or_init(|| {
            let key = self.key(id);
            self.assemble(key[0], &|slot| {
                Arc::clone(self.components[key[1 + slot] as usize].term.arc())
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
    /// skeleton represents, whose trunk no skeleton represents either.
    pub fn num_fallback_rows(&self) -> usize {
        self.fallback_rows
    }

    /// `(trace, state)` pairs the trace walks visited: a walk's revisit of
    /// a pair is not counted again.
    pub fn num_visits(&self) -> usize {
        self.visits
    }

    /// Configurations interned by reading their term: one per call of
    /// [`intern`](Self::intern), the successors in which a component
    /// grows a spine among them.
    pub fn num_decompositions(&self) -> usize {
        self.decompositions
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
            let at = self.rows.len();
            if self.states[id.index()].key.is_empty() {
                self.whole_row(id)?;
            } else {
                let mut key = std::mem::take(&mut self.row_key);
                key.clear();
                key.extend_from_slice(self.key(id));
                let built = self.net_row(&key);
                self.row_key = key;
                built?;
            }
            let end = self.rows.len();
            self.transitions += end - at;
            let row = u32::try_from(at).expect("row arena exceeds u32")
                ..u32::try_from(end).expect("row arena exceeds u32");
            self.states[id.index()].row = Some(row);
        }
        Ok(self.row(id))
    }

    /// Appends the row of a whole-term state. A state whose unfolded
    /// [`trunk`](Self::trunk) reads as a spine takes the row of that
    /// spine's key, which is not interned: its successors are the ones
    /// [`Lts::steps`] builds after unfolding the same calls. Any other
    /// is [`Lts::steps`] on the whole term.
    fn whole_row(&mut self, id: StateId) -> Result<(), EvalError> {
        if let Some((term, env)) = self.trunk(self.state(id)) {
            let mut key = std::mem::take(&mut self.row_key);
            let built = self
                .decompose(&term, &env, &mut key)
                .then(|| self.net_row(&key));
            self.row_key = key;
            if let Some(built) = built {
                return built;
            }
        }
        let steps = self.lts.steps(self.state(id))?;
        self.fallback_rows += 1;
        for s in steps {
            let step = match s {
                Step::Visible(e, c) => CompiledStep::Visible(e, self.intern(c)),
                Step::Internal(c) => CompiledStep::Internal(self.intern(c)),
            };
            self.rows.push(step);
        }
        Ok(())
    }

    /// The trunk of a whole-term configuration that is a call, or
    /// `chan`s over one: the calls at its root and under its root-level
    /// `chan`s unfolded as [`Lts::steps`] unfolds them, in the
    /// environment the innermost unfolding leaves. `None` when unfolding
    /// fails, when a call under a `chan` changes the environment its
    /// channels are read in, or when a chain of calls could outrun the
    /// fuel, so that an operand below the trunk could step otherwise than
    /// on its own.
    fn trunk(&self, config: &Config) -> Option<(Arc<Process>, Env)> {
        let mut p = config.process();
        while let Process::Hide { body, .. } = p {
            p = body;
        }
        if !matches!(p, Process::Call { .. }) || !self.lts.within_fuel(config.process()) {
            return None;
        }
        match self.unfold(config.process_arc(), config.env())? {
            (term, Some(env)) => Some((term, env)),
            (_, None) => None,
        }
    }

    /// `p` with its root call, or the call under its root-level `chan`s,
    /// unfolded, and the environment the innermost unfolding leaves
    /// (`None` when nothing was unfolded). [`Lts::within_fuel`] bounds
    /// the unfolding.
    fn unfold(&self, p: &Arc<Process>, env: &Env) -> Option<(Arc<Process>, Option<Env>)> {
        match &**p {
            Process::Call { name, args } => {
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()
                    .ok()?;
                let (body, scope) = self.defs.resolve_call(name, &vals, env).ok()?;
                let body = Arc::new(body.clone());
                Some(match self.unfold(&body, &scope)? {
                    (term, Some(inner)) => (term, Some(inner)),
                    (_, None) => (body, Some(scope)),
                })
            }
            Process::Hide { channels, body } => match self.unfold(body, env)? {
                (_, None) => Some((Arc::clone(p), None)),
                (inner, Some(scope)) if scope == *env || closed_refs(channels) => {
                    let hide = Process::Hide {
                        channels: channels.clone(),
                        body: inner,
                    };
                    Some((Arc::new(hide), Some(scope)))
                }
                _ => None,
            },
            _ => Some((Arc::clone(p), None)),
        }
    }

    /// Appends the row of the network state `key`, from the rows of its
    /// components by the `||` and `chan` rules of [`Lts::steps`].
    /// Component rows are compiled left to right, so the first failure
    /// is the one the whole term would report. Each successor is `key`
    /// with the moved components' ids replaced, under the skeleton the
    /// move leaves; one in which a component grew a spine is built as a
    /// term and interned from it.
    fn net_row(&mut self, key: &[u32]) -> Result<(), EvalError> {
        for &c in &key[1..] {
            self.component_row(c)?;
        }
        let mut buf = std::mem::take(&mut self.move_buf);
        buf.moves.clear();
        buf.parts.clear();
        let skel = &mut self.skeletons[key[0] as usize];
        let root = skel.nodes.len() - 1;
        moves(skel, root, &key[1..], &self.components, &mut buf);
        let mut next = std::mem::take(&mut self.next_key);
        for m in &buf.moves {
            let parts = &buf.parts[m.parts.clone()];
            next.clear();
            next.extend_from_slice(key);
            let mut grew = false;
            for &(slot, k) in parts {
                next[0] = self.pinned(next[0], slot);
                match self.component_step(key[1 + slot], k) {
                    Next::Comp(c) => next[1 + slot] = *c,
                    Next::Term(_) => grew = true,
                }
            }
            let target = if grew {
                let config = self.grown_successor(key, next[0], parts);
                self.intern(config)
            } else {
                self.intern_key(&next)
            };
            self.rows.push(match m.event {
                Some(e) => CompiledStep::Visible(e, target),
                None => CompiledStep::Internal(target),
            });
        }
        self.move_buf = buf;
        self.next_key = next;
        Ok(())
    }

    /// The skeleton a move of leaf `slot` leaves: `skel` with the
    /// unpinned `||` nodes above the slot pinned to the lists the `||`
    /// rule writes on their first move. Memoised per `(skeleton, slot)`,
    /// and found among the existing skeletons first, so that the
    /// successor read from its term gets the same one.
    fn pinned(&mut self, skel: u32, slot: usize) -> u32 {
        if !self.skeletons[skel as usize].unpinned {
            return skel;
        }
        if let Some(&s) = self.pins.get(&(skel, slot)) {
            return s;
        }
        let old = &self.skeletons[skel as usize];
        let env = old.env;
        let mut nodes = old.nodes.clone();
        let mut changed = false;
        for n in old.ancestors(slot) {
            if let Node::Par {
                left_alpha,
                right_alpha,
                unpinned,
                ..
            } = &mut nodes[n]
            {
                if let Some(u) = unpinned.take() {
                    *left_alpha = Some(Arc::clone(&u.left));
                    *right_alpha = Some(Arc::clone(&u.right));
                    changed = true;
                }
            }
        }
        let s = if changed {
            let hash = self.spine_hash(env, nodes.iter().map(Node::view));
            match self.find_skeleton(hash, env, || nodes.iter().map(Node::view)) {
                Some(s) => s,
                None => self.add_skeleton(hash, Skeleton::of_nodes(env, nodes)),
            }
        } else {
            skel
        };
        self.pins.insert((skel, slot), s);
        s
    }

    fn component_step(&self, c: u32, k: usize) -> &Next {
        &self.components[c as usize]
            .row
            .as_ref()
            .expect("component compiled")[k]
            .1
    }

    /// The successor of a network state when a moved component's
    /// successor is no component: the configuration [`Lts::steps`]
    /// builds, around the skeleton `skel` the move leaves.
    fn grown_successor(&self, key: &[u32], skel: u32, parts: &[(usize, usize)]) -> Config {
        let term = |c: u32| Arc::clone(self.components[c as usize].term.arc());
        self.assemble(
            skel,
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

    /// Compiles a component's row on first use: its control point
    /// stepped in its valuation, or, where the point reaches a `||` or
    /// `chan`, [`Lts::steps`] on its term with each successor closed as
    /// the `||` rule closes a moved operand.
    fn component_row(&mut self, c: u32) -> Result<(), EvalError> {
        let comp = &self.components[c as usize];
        if comp.row.is_some() {
            return Ok(());
        }
        let env = comp.env;
        let (term, vars) = (Arc::clone(&comp.term.site), Arc::clone(&comp.term.vars));
        let mut raw = std::mem::take(&mut self.raw_buf);
        let mut vals = std::mem::take(&mut self.vals_buf);
        raw.clear();
        vals.clear();
        let stepped = Stepper {
            defs: self.defs,
            universe: self.lts.universe(),
            env: &self.envs[env as usize],
            points: &mut self.points,
            raw: &mut raw,
            vals: &mut vals,
        }
        .step(
            &term,
            Scope::Own(Valuation {
                vars: &vars,
                vals: &comp.term.vals,
            }),
            self.lts.fuel(),
        );
        let row = match stepped {
            Ok(true) => Ok(raw
                .drain(..)
                .map(|step| match step {
                    Raw::At(e, at, range) => (
                        Some(e),
                        Next::Comp(self.component_at(env, at, &vals[range])),
                    ),
                    Raw::Term(e, term) => (Some(e), self.next_of(env, term)),
                })
                .collect()),
            Ok(false) => self.whole_component_row(c),
            Err(e) => Err(e),
        };
        self.raw_buf = raw;
        self.vals_buf = vals;
        self.components[c as usize].row = Some(row?);
        self.component_rows += 1;
        Ok(())
    }

    /// A component's row from [`Lts::steps`] on its term.
    fn whole_component_row(&mut self, c: u32) -> Result<Vec<(Option<Event>, Next)>, EvalError> {
        let comp = &self.components[c as usize];
        let env = comp.env;
        let steps = self
            .lts
            .steps_at(comp.term.arc(), &self.envs[env as usize])?;
        Ok(steps
            .into_iter()
            .map(|s| match s {
                Step::Visible(e, next) => (Some(e), self.next_of(env, next.closed())),
                Step::Internal(next) => (None, self.next_of(env, next.closed())),
            })
            .collect())
    }

    /// Where a component step to a closed-over term leads.
    fn next_of(&mut self, env: u32, term: Arc<Process>) -> Next {
        match self.component(env, &term) {
            Some(c) => Next::Comp(c),
            None => Next::Term(term),
        }
    }

    /// The component at point `at` in valuation `vals`: found by the
    /// alias, or else by the term the pair renders, which only a new
    /// alias renders.
    fn component_at(&mut self, env: u32, at: u32, vals: &[Value]) -> u32 {
        let alias_hash = self.spine_keys.hash_one((env, at, vals));
        let (aliases, alias_vals) = (&self.aliases, &self.alias_vals);
        if let Some(a) = self.alias_ids.get(alias_hash, |a| {
            let a = &aliases[a as usize];
            a.hash == alias_hash && a.env == env && a.at == at && alias_vals[span(&a.vals)] == *vals
        }) {
            return self.aliases[a as usize].comp;
        }
        let point = &self.points.list[at as usize];
        let (site, vars) = (Arc::clone(&point.term), Arc::clone(&point.vars));
        let hash = self.term_hash(env, &site, &vars, vals);
        let comp = match self.find_component(env, hash, || render(&site, &vars, vals)) {
            Some(c) => c,
            None => self.new_component(env, at, hash, vals.into()),
        };
        let from = u32::try_from(self.alias_vals.len()).expect("alias arena exceeds u32");
        self.alias_vals.extend_from_slice(vals);
        let end = u32::try_from(self.alias_vals.len()).expect("alias arena exceeds u32");
        let id = u32::try_from(self.aliases.len()).expect("alias arena exceeds u32");
        self.aliases.push(Alias {
            env,
            at,
            vals: from..end,
            hash: alias_hash,
            comp,
        });
        let aliases = &self.aliases;
        self.alias_ids
            .insert(id, alias_hash, |a| aliases[a as usize].hash);
        comp
    }

    /// The keyed hash of environment `env` and the term `site` renders to
    /// in valuation `vals` of its free variables `vars`.
    fn term_hash(&self, env: u32, site: &Process, vars: &[Box<str>], vals: &[Value]) -> u64 {
        let mut h = self.spine_keys.build_hasher();
        env.hash(&mut h);
        hash_rendered(site, &Valuation { vars, vals }, &mut Vec::new(), &mut h);
        h.finish()
    }

    /// The component of environment `env` whose term hashes to `hash` and
    /// is `term()`, built only when a hash matches.
    fn find_component(
        &self,
        env: u32,
        hash: u64,
        term: impl FnOnce() -> Arc<Process>,
    ) -> Option<u32> {
        let mut term = Some(term);
        let mut built = None;
        let comps = &self.components;
        self.component_ids.get(hash, |c| {
            let comp = &comps[c as usize];
            comp.hash == hash
                && comp.env == env
                && *comp.term == **built.get_or_insert_with(|| term.take().expect("built once")())
        })
    }

    fn new_component(&mut self, env: u32, at: u32, hash: u64, vals: Box<[Value]>) -> u32 {
        let c = u32::try_from(self.components.len()).expect("component arena exceeds u32");
        let point = &self.points.list[at as usize];
        self.components.push(Component {
            term: Rendered {
                site: Arc::clone(&point.term),
                vars: Arc::clone(&point.vars),
                vals,
                term: OnceLock::new(),
            },
            env,
            hash,
            row: None,
        });
        let comps = &self.components;
        self.component_ids
            .insert(c, hash, |c| comps[c as usize].hash);
        c
    }

    /// Interns a component by its term, or `None` when the term cannot be
    /// one: it reads as a spine node, or has free variables. The term is
    /// its own control point.
    fn component(&mut self, env: u32, term: &Arc<Process>) -> Option<u32> {
        let hash = self.term_hash(env, term, &[], &[]);
        if let Some(c) = self.find_component(env, hash, || Arc::clone(term)) {
            return Some(c);
        }
        // A component stepping into a spine node has grown a spine of its
        // own.
        let mut scratch = std::mem::take(&mut self.read_buf);
        let mut alphabets = std::mem::take(&mut self.alphabets);
        alphabets.nodes.clear();
        let read = self.read_spine(
            term,
            &self.envs[env as usize],
            env,
            true,
            &mut scratch,
            &mut alphabets,
        );
        scratch.clear();
        self.read_buf = scratch;
        self.alphabets = alphabets;
        if read != Read::Leaf || !is_closed(term) {
            return None;
        }
        let at = self.points.of(term);
        Some(self.new_component(env, at, hash, Box::default()))
    }

    /// Reads a term's spine into `key` as `[skeleton, component…]`; false
    /// when no skeleton represents the term. A function of the term and
    /// environment alone, so every path into the arena gives a
    /// configuration the same id. The spine is read in place: a skeleton
    /// is found by the hash of the spine and confirmed node by node, and
    /// only a new skeleton resolves its sets.
    fn decompose(&mut self, term: &Arc<Process>, env: &Env, key: &mut Vec<u32>) -> bool {
        if !matches!(**term, Process::Parallel { .. } | Process::Hide { .. }) {
            return false;
        }
        let env_id = self.env_id(env);
        let mut read = std::mem::take(&mut self.read_buf);
        let mut alphabets = std::mem::take(&mut self.alphabets);
        alphabets.nodes.clear();
        let env = &self.envs[env_id as usize];
        let spine =
            self.read_spine(term, env, env_id, false, &mut read, &mut alphabets) == Read::Spine;
        self.alphabets = alphabets;
        if spine {
            self.key_of(env_id, &read, key);
        }
        read.clear();
        self.read_buf = read;
        spine
    }

    /// The arena id of an environment, numbering it on first sight.
    fn env_id(&mut self, env: &Env) -> u32 {
        if let Some(&e) = self.env_ids.get(env) {
            return e;
        }
        let e = u32::try_from(self.envs.len()).expect("env arena exceeds u32");
        self.envs.push(env.clone());
        self.env_ids.insert(env.clone(), e);
        e
    }

    /// Reads the spine of `p` in place: pushes its nodes onto `out`
    /// children first, its leaves left to right. A spine node is a `||`
    /// or a `chan` over one:
    ///
    /// - a `||` whose alphabets are pinned in resolved form;
    /// - an unpinned `||` whose alphabets its operands resolve
    ///   ([`csp_lang::operand_alphabet`], through [`Alphabets`]), its declared
    ///   subscripts closed below a `||`, where the rule closes a standing
    ///   operand;
    /// - a `chan` whose channels resolve in `env`, its subscripts closed
    ///   below a `||`, over a spine node (a `chan` directly over a leaf
    ///   has successors that keep the leaf's environment).
    ///
    /// Below a `||` (`under_par`), a subterm that is no spine node is a
    /// leaf, and a leaf must be closed.
    fn read_spine(
        &self,
        p: &Arc<Process>,
        env: &Env,
        env_id: u32,
        under_par: bool,
        out: &mut Vec<Part>,
        alphabets: &mut Alphabets,
    ) -> Read {
        match &**p {
            Process::Parallel {
                left,
                right,
                left_alpha,
                right_alpha,
            } => {
                let part = match (left_alpha, right_alpha) {
                    (Some(la), Some(ra)) if is_pinned(la) && is_pinned(ra) => {
                        Part::Par(Arc::clone(p), None)
                    }
                    _ => {
                        let mut declared = [left_alpha, right_alpha].into_iter().flatten();
                        if under_par && !declared.all(|a| closed_refs(a)) {
                            return Read::Leaf;
                        }
                        let mut resolve = |alpha: &Option<Vec<ChanRef>>, operand: &Process| {
                            alphabets.operand(self.defs, alpha.as_deref(), operand, env, env_id)
                        };
                        let x = resolve(left_alpha, left);
                        let y = resolve(right_alpha, right);
                        let (Ok(x), Ok(y)) = (x, y) else {
                            return Read::Leaf;
                        };
                        Part::Par(Arc::clone(p), Some((x, y)))
                    }
                };
                for operand in [left, right] {
                    match self.read_spine(operand, env, env_id, true, out, alphabets) {
                        Read::Spine => {}
                        Read::Leaf if is_closed(operand) => {
                            out.push(Part::Leaf(Arc::clone(operand)))
                        }
                        _ => return Read::Open,
                    }
                }
                out.push(part);
                Read::Spine
            }
            Process::Hide { channels, body } => {
                if under_par && !closed_refs(channels) || !resolves(channels, env) {
                    return Read::Leaf;
                }
                let read = self.read_spine(body, env, env_id, under_par, out, alphabets);
                if read == Read::Spine {
                    out.push(Part::Hide(Arc::clone(p)));
                }
                read
            }
            _ => Read::Leaf,
        }
    }

    /// The key of a spine read in environment `env_id`, interning its
    /// skeleton and components as needed.
    fn key_of(&mut self, env_id: u32, read: &[Part], key: &mut Vec<u32>) {
        let hash = self.spine_hash(env_id, read.iter().map(Part::view));
        let skel = match self.find_skeleton(hash, env_id, || read.iter().map(Part::view)) {
            Some(s) => s,
            None => {
                let skel = Skeleton::new(env_id, &self.envs[env_id as usize], read);
                self.add_skeleton(hash, skel)
            }
        };
        key.clear();
        key.push(skel);
        for part in read {
            if let Part::Leaf(leaf) = part {
                let c = self.component(env_id, leaf).expect("leaves are components");
                key.push(c);
            }
        }
    }

    /// The hash of a spine in environment `env`: its nodes' views.
    fn spine_hash<'v>(&self, env: u32, views: impl Iterator<Item = View<'v>>) -> u64 {
        let mut h = self.spine_keys.build_hasher();
        env.hash(&mut h);
        for view in views {
            view.hash(&mut h);
        }
        h.finish()
    }

    /// The skeleton whose spine is `views` in `env`, if there is one.
    fn find_skeleton<'v, I: Iterator<Item = View<'v>>>(
        &self,
        hash: u64,
        env: u32,
        views: impl Fn() -> I,
    ) -> Option<u32> {
        self.skeletons_by_spine
            .get(&hash)?
            .iter()
            .copied()
            .find(|&s| self.skeletons[s as usize].reads_as(env, views()))
    }

    fn add_skeleton(&mut self, hash: u64, skel: Skeleton) -> u32 {
        let s = u32::try_from(self.skeletons.len()).expect("skeleton arena exceeds u32");
        self.skeletons.push(skel);
        self.skeletons_by_spine.entry(hash).or_default().push(s);
        s
    }

    fn row(&self, id: StateId) -> &[CompiledStep] {
        &self.rows[span(self.states[id.index()].row.as_ref().expect("compiled"))]
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
        let walked = self.walk(start, depth, internal_budget, 0, &mut walk);
        self.visits += walk.seen.len();
        walked?;
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
        if !out.seen.insert(trace, id.0) {
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
    /// chatter). The closure grows a layer per step, so each state is
    /// stepped once however many τ-paths reach it.
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

    /// The visible `e`-successors of the states in `set`: the other half
    /// of a frontier step, after [`tau_closure`](Self::tau_closure).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn after(&mut self, set: &StateSet, e: Event) -> Result<StateSet, EvalError> {
        let mut next = StateSet::new();
        for id in set.iter() {
            for step in self.steps_of(id)? {
                match *step {
                    CompiledStep::Visible(e2, t) if e2 == e => {
                        next.insert(t);
                    }
                    _ => {}
                }
            }
        }
        Ok(next)
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
                    let after = self.after(spec, e)?;
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

/// Appends the steps of one skeleton node to `buf.moves`, by the rules of
/// [`Lts::steps`]: a `chan` node conceals its hidden events; a `||` node
/// moves its left operand alone or jointly with the right on a shared
/// channel (in left-row order), then its right operand alone. A
/// concealed operand step is a concealed step of the node. Whether an
/// event is shared or hidden at a node is a bit of the event's row of
/// marks, looked up once per component step. The operands' moves are
/// dropped once the node's are built, so a node's moves are all
/// `buf.moves` holds past its length on entry.
fn moves(
    skel: &mut Skeleton,
    node: usize,
    comps: &[u32],
    components: &[Component],
    buf: &mut MoveBuf,
) {
    let start = buf.moves.len();
    match skel.nodes[node] {
        Node::Leaf(slot) => {
            let row = components[comps[slot] as usize]
                .row
                .as_ref()
                .expect("component compiled");
            for (k, &(event, _)) in row.iter().enumerate() {
                let at = buf.parts.len();
                buf.parts.push((slot, k));
                buf.moves.push(Move {
                    event,
                    marks: event.map_or(0, |e| skel.marks_of(e)),
                    parts: at..at + 1,
                });
            }
        }
        Node::Hide { body, .. } => {
            moves(skel, body, comps, components, buf);
            for m in &mut buf.moves[start..] {
                if m.event.is_some() && skel.marked(m.marks, node) {
                    m.event = None;
                }
            }
        }
        Node::Par { left, right, .. } => {
            moves(skel, left, comps, components, buf);
            let mid = buf.moves.len();
            moves(skel, right, comps, components, buf);
            let end = buf.moves.len();
            let shared = |m: &Move| m.event.is_some() && skel.marked(m.marks, node);
            for l in start..mid {
                let lm = buf.moves[l].clone();
                if !shared(&lm) {
                    buf.moves.push(lm);
                    continue;
                }
                for r in mid..end {
                    if buf.moves[r].event == lm.event {
                        let from = buf.parts.len();
                        buf.parts.extend_from_within(lm.parts.clone());
                        buf.parts.extend_from_within(buf.moves[r].parts.clone());
                        buf.moves.push(Move {
                            parts: from..buf.parts.len(),
                            ..lm.clone()
                        });
                    }
                }
            }
            for r in mid..end {
                if !shared(&buf.moves[r]) {
                    let m = buf.moves[r].clone();
                    buf.moves.push(m);
                }
            }
            buf.moves.drain(start..end);
        }
    }
}

/// The alphabets the unpinned `||`s of spine reads resolve, as
/// [`csp_lang::operand_alphabet`] resolves them. Inference walks an operand's text
/// with calls unfolded once each; when no definition's body reads a
/// variable but its own parameter, what a call contributes depends on
/// the call alone, so an inferred alphabet is the union of its spine's
/// leaves' alphabets, each call's resolved once per arguments and each
/// `||` node's once per read: a spine read is linear in its leaves.
#[derive(Debug, Default)]
struct Alphabets {
    /// Whether every definition's body reads no variable but its
    /// parameter; `None` until first asked.
    scoped: Option<bool>,
    /// The alphabets of calls by environment, name and arguments. Names
    /// come from user input, so this map keeps the default hasher.
    calls: HashMap<(u32, String, Vec<Value>), Result<ChannelSet, EvalError>>,
    /// The inferred alphabets of the `||` nodes of the read in progress,
    /// by address.
    nodes: FxHashMap<usize, Result<ChannelSet, EvalError>>,
}

impl Alphabets {
    /// The alphabet of a `||` operand: its declared list resolved, or its
    /// inferred alphabet.
    fn operand(
        &mut self,
        defs: &Definitions,
        declared: Option<&[ChanRef]>,
        operand: &Process,
        env: &Env,
        env_id: u32,
    ) -> Result<ChannelSet, EvalError> {
        let scoped = *self.scoped.get_or_insert_with(|| {
            defs.iter().all(|d| {
                let param = d.param().map(|(var, _)| Bound { var, outer: None });
                free_vars_under(d.body(), param.as_ref(), &mut |_| false)
            })
        });
        match declared {
            Some(refs) => resolve_chanrefs(refs, env),
            None if scoped => self.inferred(defs, operand, env, env_id),
            None => channel_alphabet(operand, defs, env),
        }
    }

    fn inferred(
        &mut self,
        defs: &Definitions,
        p: &Process,
        env: &Env,
        env_id: u32,
    ) -> Result<ChannelSet, EvalError> {
        match p {
            Process::Parallel { left, right, .. } => {
                let addr = std::ptr::from_ref(p) as usize;
                if let Some(known) = self.nodes.get(&addr) {
                    return known.clone();
                }
                let set = self
                    .inferred(defs, left, env, env_id)
                    .and_then(|x| Ok(x.union(&self.inferred(defs, right, env, env_id)?)));
                self.nodes.insert(addr, set.clone());
                set
            }
            Process::Hide { channels, body } => {
                let hidden = resolve_chanrefs(channels, env)?;
                Ok(hidden.union(&self.inferred(defs, body, env, env_id)?))
            }
            Process::Call { name, args } => {
                let vals = args
                    .iter()
                    .map(|e| e.eval(env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.calls
                    .entry((env_id, name.clone(), vals))
                    .or_insert_with(|| channel_alphabet(p, defs, env))
                    .clone()
            }
            _ => channel_alphabet(p, defs, env),
        }
    }
}

/// True when no channel subscript of `refs` has a variable or a host
/// constant in it, so it resolves alike in every environment.
fn closed_refs(refs: &[ChanRef]) -> bool {
    refs.iter().all(|c| c.indices().iter().all(Expr::is_closed))
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

/// Values of free variables: `vars` ascending, `vals` aligned with them.
#[derive(Debug, Clone, Copy)]
struct Valuation<'v> {
    vars: &'v [Box<str>],
    vals: &'v [Value],
}

impl Valuation<'_> {
    fn get(&self, x: &str) -> Option<&Value> {
        let k = self.vars.binary_search_by(|v| (**v).cmp(x)).ok()?;
        Some(&self.vals[k])
    }
}

/// Feeds into `h` the term `p` renders to ([`render`]): a free variable
/// with a value hashes as that constant, so the pair and the term it
/// renders hash alike, and no term is built. `bound` holds the input
/// variables bound around `p`.
fn hash_rendered<'p>(
    p: &'p Process,
    val: &Valuation<'_>,
    bound: &mut Vec<&'p str>,
    h: &mut impl Hasher,
) {
    let chans = |cs: &[ChanRef], bound: &[&str], h: &mut _| {
        cs.len().hash(h);
        for c in cs {
            hash_chan(c, val, bound, h);
        }
    };
    match p {
        Process::Stop => 0u8.hash(h),
        Process::Error(span) => (1u8, span).hash(h),
        Process::Call { name, args } => {
            (2u8, name, args.len()).hash(h);
            for e in args {
                hash_expr(e, val, bound, h);
            }
        }
        Process::Output { chan, msg, then } => {
            3u8.hash(h);
            hash_chan(chan, val, bound, h);
            hash_expr(msg, val, bound, h);
            hash_rendered(then, val, bound, h);
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            4u8.hash(h);
            hash_chan(chan, val, bound, h);
            match set {
                SetExpr::Nat => 0u8.hash(h),
                SetExpr::Range(lo, hi) => {
                    1u8.hash(h);
                    hash_expr(lo, val, bound, h);
                    hash_expr(hi, val, bound, h);
                }
                SetExpr::Enum(es) => {
                    (2u8, es.len()).hash(h);
                    for e in es {
                        hash_expr(e, val, bound, h);
                    }
                }
                SetExpr::Named(n) => (3u8, n).hash(h),
            }
            var.hash(h);
            bound.push(var);
            hash_rendered(then, val, bound, h);
            bound.pop();
        }
        Process::Choice(a, b) => {
            5u8.hash(h);
            hash_rendered(a, val, bound, h);
            hash_rendered(b, val, bound, h);
        }
        Process::Parallel {
            left,
            right,
            left_alpha,
            right_alpha,
        } => {
            6u8.hash(h);
            for alpha in [left_alpha, right_alpha] {
                alpha.is_some().hash(h);
                if let Some(cs) = alpha {
                    chans(cs, bound, h);
                }
            }
            hash_rendered(left, val, bound, h);
            hash_rendered(right, val, bound, h);
        }
        Process::Hide { channels, body } => {
            7u8.hash(h);
            chans(channels, bound, h);
            hash_rendered(body, val, bound, h);
        }
    }
}

fn hash_chan(c: &ChanRef, val: &Valuation<'_>, bound: &[&str], h: &mut impl Hasher) {
    (c.base(), c.indices().len()).hash(h);
    for e in c.indices() {
        hash_expr(e, val, bound, h);
    }
}

fn hash_expr(e: &Expr, val: &Valuation<'_>, bound: &[&str], h: &mut impl Hasher) {
    match e {
        Expr::Var(x) if !bound.contains(&x.as_str()) => match val.get(x) {
            Some(v) => (0u8, v).hash(h),
            None => (1u8, x).hash(h),
        },
        Expr::Const(v) => (0u8, v).hash(h),
        Expr::Var(x) => (1u8, x).hash(h),
        Expr::Bin(op, a, b) => {
            (2u8, op).hash(h);
            hash_expr(a, val, bound, h);
            hash_expr(b, val, bound, h);
        }
        Expr::Un(op, a) => {
            (3u8, op).hash(h);
            hash_expr(a, val, bound, h);
        }
        Expr::Tuple(es) => {
            (4u8, es.len()).hash(h);
            for e in es {
                hash_expr(e, val, bound, h);
            }
        }
        Expr::ArrayRef(name, idx) => {
            (5u8, name).hash(h);
            hash_expr(idx, val, bound, h);
        }
    }
}

/// True when no variable occurs free in `p`, so closing it with any
/// environment is the identity. Array names such as `v` in `v[1]` are
/// host constants, not variables. One walk of the term, with the input
/// variables bound around each subterm on the call stack.
fn is_closed(p: &Process) -> bool {
    free_vars_under(p, None, &mut |_| false)
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

/// Calls `f` on each occurrence of a variable free in `p` and not
/// `bound` around it, until `f` returns false; false when it did.
fn free_vars_under<'p>(
    p: &'p Process,
    bound: Option<&Bound<'_>>,
    f: &mut impl FnMut(&'p str) -> bool,
) -> bool {
    let expr = |e: &'p Expr, f: &mut _| expr_free_vars(e, bound, f);
    match p {
        Process::Stop | Process::Error(_) => true,
        Process::Call { args, .. } => args.iter().all(|e| expr(e, f)),
        Process::Output { chan, msg, then } => {
            chan.indices().iter().all(|e| expr(e, f))
                && expr(msg, f)
                && free_vars_under(then, bound, f)
        }
        Process::Input {
            chan,
            var,
            set,
            then,
        } => {
            chan.indices().iter().all(|e| expr(e, f))
                && match set {
                    SetExpr::Nat | SetExpr::Named(_) => true,
                    SetExpr::Range(lo, hi) => expr(lo, f) && expr(hi, f),
                    SetExpr::Enum(es) => es.iter().all(|e| expr(e, f)),
                }
                && free_vars_under(then, Some(&Bound { var, outer: bound }), f)
        }
        Process::Choice(a, b) => free_vars_under(a, bound, f) && free_vars_under(b, bound, f),
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
                .all(|c| c.indices().iter().all(|e| expr(e, f)))
                && free_vars_under(left, bound, f)
                && free_vars_under(right, bound, f)
        }
        Process::Hide { channels, body } => {
            channels
                .iter()
                .all(|c| c.indices().iter().all(|e| expr(e, f)))
                && free_vars_under(body, bound, f)
        }
    }
}

fn expr_free_vars<'p>(
    e: &'p Expr,
    bound: Option<&Bound<'_>>,
    f: &mut impl FnMut(&'p str) -> bool,
) -> bool {
    match e {
        Expr::Const(_) => true,
        Expr::Var(x) => binds(bound, x) || f(x),
        Expr::Bin(_, a, b) => expr_free_vars(a, bound, f) && expr_free_vars(b, bound, f),
        Expr::Un(_, a) => expr_free_vars(a, bound, f),
        Expr::Tuple(es) => es.iter().all(|e| expr_free_vars(e, bound, f)),
        Expr::ArrayRef(_, idx) => expr_free_vars(idx, bound, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, free_vars_process, parse_definitions};
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
            let row = c.rows[span(&row)].to_vec();
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
            // No whole term is stepped: the start state's row comes from
            // its unfolded trunk, and an inner `||` is a spine node before
            // its first move, so no component grows a spine and only the
            // start state is read from its term.
            assert_eq!(c.num_fallback_rows(), 0, "{name}");
            assert!(c.num_component_rows() > 0, "{name}");
            assert_eq!(c.num_decompositions(), 1, "{name}");
            assert!(
                c.components.iter().all(|comp| !matches!(
                    *comp.term,
                    Process::Parallel { .. } | Process::Hide { .. }
                )),
                "{name}: a network term is a component"
            );
            assert_rows_are_whole_term_rows(&mut c, &lts);
        }
        // The benchmark's check of the widest multiplier, at its τ budget:
        // the arena's states and traces are those the check counts.
        let (defs, uni, name, env, _) = &cases[4];
        let mut c = CompiledLts::new(defs, uni);
        let start = c.start(name, env);
        assert_eq!(c.trace_list(start, 4, 16).unwrap().len(), 1001);
        assert_eq!((c.num_states(), c.num_fallback_rows()), (745, 0));
    }

    #[test]
    fn the_first_visit_of_a_configuration_fixes_its_hidden_budget() {
        // Both branches reach `chan h; h!0 -> a!0 -> STOP` under `<>`, the
        // longer one with no hidden step left. The visited set ignores the
        // budget left, so the branch walked first decides whether `a.0`
        // fits in a budget of 2.
        let defs = parse_definitions(
            "p = chan h; (h!0 -> h!0 -> h!0 -> a!0 -> STOP | h!0 -> h!0 -> a!0 -> STOP)
             q = chan h; (h!0 -> h!0 -> a!0 -> STOP | h!0 -> h!0 -> h!0 -> a!0 -> STOP)",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let empty = TraceSet::stop();
        let a0 = TraceSet::closure_of([Trace::parse_like([("a", Value::nat(0))])]);
        for (name, budget, want) in [
            ("p", 2, &empty),
            ("q", 2, &a0),
            ("p", 3, &a0),
            ("q", 3, &a0),
        ] {
            let start = Config::new(Process::call(name), Env::new());
            let listed = lts.traces_budgeted(&start, 1, budget).unwrap();
            assert_eq!(&listed, want, "{name}, budget {budget}: enumerative");
            let mut c = CompiledLts::new(&defs, &uni);
            let id = c.intern(start);
            let listed = c.traces_budgeted(id, 1, budget).unwrap();
            assert_eq!(&listed, want, "{name}, budget {budget}: compiled");
        }
    }

    /// The walk of [`CompiledLts::trace_tree`] over hash tables alone:
    /// the pairs it visits, in order, and the traces it numbers.
    struct PlainWalk {
        seen: FxHashSet<(u32, u32)>,
        children: FxHashMap<(u32, Event), u32>,
        tree: TraceTree,
        visits: Vec<(u32, u32)>,
    }

    impl PlainWalk {
        fn visit(
            &mut self,
            c: &mut CompiledLts<'_>,
            id: StateId,
            depth: usize,
            budget: usize,
            t: u32,
        ) {
            if !self.seen.insert((t, id.0)) {
                return;
            }
            self.visits.push((t, id.0));
            for step in c.steps_of(id).unwrap().to_vec() {
                match step {
                    CompiledStep::Visible(e, next) if depth > 0 => {
                        let tree = &mut self.tree;
                        let child = *self
                            .children
                            .entry((t, e))
                            .or_insert_with(|| tree.push(t, e));
                        self.visit(c, next, depth - 1, budget, child);
                    }
                    CompiledStep::Internal(next) if budget > 0 => {
                        self.visit(c, next, depth, budget - 1, t);
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn a_walk_past_the_chain_and_sibling_limits_is_the_plain_walk() {
        // Under `<>`, p meets 81 states by hidden steps, each offering an
        // `a` event of its own: trace 0's states outgrow a chain of blocks
        // and its children a sibling list.
        let defs = parse_definitions(
            "q[i:NAT] = h!0 -> q[i + 1] | a!i -> STOP
             p = chan h; q[0]",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let start = Config::new(Process::call("p"), Env::new());
        let (depth, budget) = (2, 80);
        let mut c = CompiledLts::new(&defs, &uni);
        let id = c.intern(start.clone());
        let mut walk = TraceWalk::new();
        c.walk(id, depth, budget, 0, &mut walk).unwrap();
        assert_eq!(walk.seen.heads[0], HASHED, "trace 0's states are hashed");
        assert_eq!(walk.first_child[0], HASHED, "trace 0's children are hashed");
        let mut plain = PlainWalk {
            seen: FxHashSet::default(),
            children: FxHashMap::default(),
            tree: TraceTree::new(),
            visits: Vec::new(),
        };
        plain.visit(&mut c, id, depth, budget, 0);
        assert_eq!(plain.visits.len(), 81 + 81);
        assert_eq!(walk.seen.len(), plain.visits.len());
        for &(t, s) in &plain.visits {
            assert!(!walk.seen.insert(t, s), "({t}, {s}) was not visited");
        }
        assert_eq!(walk.tree.traces(), plain.tree.traces());
        assert_eq!(
            c.traces_budgeted(id, depth, budget).unwrap(),
            lts.traces_budgeted(&start, depth, budget).unwrap()
        );
    }

    proptest! {
        /// `Visited` and `TraceWalk::child` answer as a hash set and a hash
        /// map do, before a trace's chain or sibling list is full and after
        /// it has moved to the hash tier.
        #[test]
        fn visits_and_children_agree_with_hash_tables(
            visits in prop::collection::vec((0u32..3, 0u32..80), 0..400),
            children in prop::collection::vec((0usize..4, 0u32..80), 0..600),
        ) {
            let mut seen = Visited::default();
            let mut plain = FxHashSet::default();
            for (t, s) in visits {
                prop_assert_eq!(seen.insert(t, s), plain.insert((t, s)), "({}, {})", t, s);
            }
            prop_assert_eq!(seen.len(), plain.len());
            let mut walk = TraceWalk::new();
            let (mut plain, mut tree) = (FxHashMap::default(), TraceTree::new());
            for (p, v) in children {
                let parent = u32::try_from(p % tree.len()).unwrap();
                let e = Event::new(csp_trace::Channel::simple("a"), Value::nat(v));
                let want = *plain.entry((parent, e)).or_insert_with(|| tree.push(parent, e));
                prop_assert_eq!(walk.child(parent, e), want);
            }
            prop_assert_eq!(walk.tree.traces(), tree.traces());
        }
    }

    #[test]
    fn points_that_render_one_term_are_one_component() {
        // `m[1]` written in `net` and `m[i]` ending m's body with i = 1
        // render one term; so do `b!x -> STOP` after `c?x:{0}` and the
        // `b!0 -> STOP` written after `d!0`. Each pair is one component,
        // and the networks holding them are one state.
        let defs = parse_definitions(
            "m[i:1..2] = a[i]!0 -> m[i]
             k = c?x:{0} -> b!x -> STOP | d!0 -> b!0 -> STOP
             net = m[1] || k",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("net", &Env::new());
        let env = c.env_id(&Env::new());
        let m1 = c.component(env, &Arc::new(Process::call1("m", Expr::int(1))));
        let m1 = m1.expect("a component");
        c.component_row(m1).unwrap();
        let row = c.components[m1 as usize].row.clone().unwrap();
        assert!(matches!(row[..], [(Some(_), Next::Comp(n))] if n == m1));
        let k = c
            .component(env, &Arc::new(Process::call("k")))
            .expect("a component");
        c.component_row(k).unwrap();
        let row = c.components[k as usize].row.clone().unwrap();
        let [(_, Next::Comp(after_c)), (_, Next::Comp(after_d))] = row[..] else {
            panic!("two component steps: {row:?}");
        };
        assert_eq!(after_c, after_d);
        assert_eq!(
            c.components[after_c as usize].term.to_string(),
            "b!0 -> STOP"
        );

        let step = |c: &mut CompiledLts<'_>, id: StateId, on: &str| {
            let row = c.steps_of(id).unwrap().to_vec();
            row.into_iter()
                .find_map(|s| match s {
                    CompiledStep::Visible(e, next) if e.channel().to_string() == on => Some(next),
                    _ => None,
                })
                .expect("a step on the channel")
        };
        let once = step(&mut c, start, "a[1]");
        assert_eq!(step(&mut c, once, "a[1]"), once, "m[i] and m[1]: one state");
        assert_eq!(
            step(&mut c, once, "c"),
            step(&mut c, once, "d"),
            "one state"
        );
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    /// Every component the rows reached from `start` lead to, up to
    /// `limit`: its row, with each successor read as the term it renders,
    /// is [`Lts::steps`] on its term with each successor closed, in order,
    /// errors included.
    fn component_rows_agree(
        c: &mut CompiledLts<'_>,
        lts: &Lts<'_>,
        env: &Env,
        start: &Process,
        limit: usize,
    ) {
        let env_id = c.env_id(env);
        let start = c
            .component(env_id, &Arc::new(start.clone()))
            .expect("a closed sequential term is a component");
        let (mut queue, mut seen) = (vec![start], BTreeSet::from([start]));
        while let Some(comp) = queue.pop() {
            let term = Arc::clone(c.components[comp as usize].term.arc());
            let want = lts.steps_at(&term, env).map(|steps| {
                steps
                    .into_iter()
                    .map(|s| match s {
                        Step::Visible(e, next) => (Some(e), next.closed()),
                        Step::Internal(next) => (None, next.closed()),
                    })
                    .collect::<Vec<_>>()
            });
            let got = c.component_row(comp).map(|()| {
                let row = c.components[comp as usize].row.clone().expect("compiled");
                row.into_iter()
                    .map(|(e, next)| match next {
                        Next::Comp(n) => {
                            if seen.len() < limit && seen.insert(n) {
                                queue.push(n);
                            }
                            (e, Arc::clone(c.components[n as usize].term.arc()))
                        }
                        Next::Term(t) => (e, t),
                    })
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, want, "{term}");
        }
    }

    /// An expression of `p`'s parameter `i`, of `r`'s `j`, or, in `q`,
    /// of the `i` a caller or the host environment binds; the host array
    /// `v` read at one of them.
    fn arb_seq_expr(var: &'static str) -> impl Strategy<Value = String> {
        prop_oneof![
            Just("0".to_string()),
            Just("1".to_string()),
            Just(var.to_string()),
            Just(format!("({var} + 1) % 3")),
            Just(format!("v[{var} + 1]")),
        ]
    }

    /// A sequential body over `var`: prefixes that output, input into
    /// `x` (then output it) or `y` (from a set the body computes, then
    /// output a sum), choices, and calls of parameterised definitions,
    /// of `q`, which reads its callers' `i` (bound while a call of `p`
    /// unfolds, not once a step has closed it away), of an unguarded
    /// chain and of an unguarded loop.
    fn arb_seq_body(var: &'static str) -> impl Strategy<Value = String> {
        let expr = move || arb_seq_expr(var);
        let leaf = prop_oneof![
            Just("STOP".to_string()),
            expr().prop_map(|e| format!("p[{e}]")),
            Just("q".to_string()),
            expr().prop_map(|e| format!("r[{e}]")),
            Just("u0".to_string()),
            Just("w".to_string()),
        ];
        leaf.prop_recursive(4, 16, 2, move |inner| {
            prop_oneof![
                (expr(), expr(), inner.clone()).prop_map(|(c, m, k)| format!("a[{c}]!{m} -> {k}")),
                inner
                    .clone()
                    .prop_map(|k| format!("b?x:{{0..1}} -> a[x]!x -> {k}")),
                (expr(), expr(), inner.clone()).prop_map(|(lo, m, k)| {
                    format!("c?y:{{{lo}..2}} -> a[0]!(y + {m}) % 3 -> {k}")
                }),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} | {b})")),
                // `q` read after a step that no longer binds `var`.
                inner.prop_map(move |k| format!("a[0]!{var} -> ({k} | q)")),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A component row stepped at its control point is [`Lts::steps`]
        /// on the term it renders, each successor closed as the `||` rule
        /// closes a moved operand: on parameters, input variables, host
        /// array cells, a body reading its caller's parameter, unguarded
        /// call chains within the fuel and a loop that spends it, and
        /// choice.
        #[test]
        fn control_point_rows_are_whole_term_rows(
            bodies in (arb_seq_body("i"), arb_seq_body("i"), arb_seq_body("j")),
            chain in 0usize..6,
            start in prop_oneof![Just("p[0]"), Just("p[2]"), Just("q"), Just("r[1]"), Just("u0"), Just("w")],
            host_i in 0u8..2,
        ) {
            let (bp, bq, br) = bodies;
            let mut src = format!(
                "p[i:0..2] = {bp}\nq = {bq}\nr[j:0..2] = {br}\nw = w | a[0]!0 -> STOP\n"
            );
            for k in 0..chain {
                src.push_str(&format!("u{k} = u{}\n", k + 1));
            }
            src.push_str(&format!("u{chain} = p[1]\n"));
            let defs = parse_definitions(&src).unwrap();
            let uni = Universe::new(1);
            let lts = Lts::new(&defs, &uni);
            let mut env = examples::multiplier_env(&[5, 6, 7]);
            if host_i == 1 {
                env.bind_mut("i", Value::Int(2));
            }
            let mut c = CompiledLts::new(&defs, &uni);
            let start = csp_lang::parse_process(start).unwrap();
            component_rows_agree(&mut c, &lts, &env, &start, 40);
        }
    }

    #[test]
    fn a_component_stepping_into_a_network_is_read_from_its_term() {
        // `grow` steps into a `||` of its own while `ticker` stands at any
        // of its three states: each such successor is built as a term and
        // read from it.
        let defs = parse_definitions(
            "grow = a!0 -> (b!0 -> STOP || c!0 -> grow)
             ticker = d?x:{0..1} -> e!x -> ticker
             net = grow || ticker",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("net", &Env::new());
        let compiled = c.traces_budgeted(start, 5, 15).unwrap();
        let enumerated = lts
            .traces_budgeted(&lts.initial("net", &Env::new()), 5, 15)
            .unwrap();
        assert_eq!(compiled, enumerated);
        assert!(c.num_decompositions() > 1);
        assert_eq!(c.num_fallback_rows(), 0);
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn a_call_start_state_steps_through_its_unfolded_trunk() {
        // A parameterised root call, `chan`s over calls that do and do not
        // bind, and a `chan` whose subscript the unfolding rebinds: every
        // start row is the whole term's, and a trunk that reads as a spine
        // is stepped without stepping the whole term.
        let defs = parse_definitions(
            "cell[i:1..2] = in[i]?x:{0..1} -> link[i]!x -> cell[i]
             sink[i:1..2] = link[i]?y:{0..1} -> out[i]!y -> sink[i]
             pair[i:1..2] = chan link[i]; (cell[i] || sink[i])
             inner = cell[1] || sink[1]
             outer = chan link[1]; inner
             wrapped[i:1..2] = chan link[i]; (chan out[1]; inner)
             talk = link[1]!0 -> talk
             hear = link[1]?x:{0} -> hear
             chat[i:1..2] = talk || hear
             rebinds[i:1..2] = chan link[i]; chat[3 - i]",
        )
        .unwrap();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        for (name, env, trunk) in [
            ("outer", Env::new(), true),
            ("wrapped[1]", Env::new(), true),
            // The call under `chan link[i]` binds `i` to 2: the first step
            // conceals `link[1]`, the later ones `link[2]`.
            ("rebinds[1]", Env::new(), false),
            // `cell[i]` and `sink[i]` are open in the unfolded trunk.
            ("pair[1]", Env::new(), false),
        ] {
            let call = csp_lang::parse_process(name).unwrap();
            let config = Config::new(call, env);
            let mut c = CompiledLts::new(&defs, &uni);
            let start = c.intern(config.clone());
            let compiled = c.traces_budgeted(start, 4, 12).unwrap();
            assert_eq!(
                compiled,
                lts.traces_budgeted(&config, 4, 12).unwrap(),
                "{name}"
            );
            assert_eq!(c.num_fallback_rows() == 0, trunk, "{name}");
            assert_rows_are_whole_term_rows(&mut c, &lts);
        }
    }

    #[test]
    fn a_call_chain_that_could_outrun_the_fuel_is_stepped_whole() {
        // `p` offers `a.0` once per unfolding until the fuel runs out, so
        // its row depends on the fuel left below the trunk's calls: the
        // start state is stepped as a whole term.
        let defs = parse_definitions(
            "p = a!0 -> STOP | p
             q = b!0 -> q
             net = p || q",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("net", &Env::new());
        let compiled = c.traces_budgeted(start, 3, 9).unwrap();
        let enumerated = lts
            .traces_budgeted(&lts.initial("net", &Env::new()), 3, 9)
            .unwrap();
        assert_eq!(compiled, enumerated);
        assert_eq!(c.num_fallback_rows(), 1);
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn spines_written_alike_that_infer_other_alphabets_are_other_skeletons() {
        // Both arms are an unpinned two-leaf `||` written without
        // alphabets, in one environment; only the operands, and with them
        // the inferred alphabets, differ: `c` is shared in the first.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let shared = Config::new(
            csp_lang::parse_process("a!0 -> c!0 -> STOP || c!0 -> STOP").unwrap(),
            Env::new(),
        );
        let apart = Config::new(
            csp_lang::parse_process("a!0 -> c!0 -> STOP || d!0 -> STOP").unwrap(),
            Env::new(),
        );
        let (s, a) = (c.intern(shared.clone()), c.intern(apart.clone()));
        assert_ne!(s, a);
        assert_ne!(c.key(s)[0], c.key(a)[0], "one skeleton for both");
        for config in [shared, apart] {
            let start = c.intern(config.clone());
            let compiled = c.traces_budgeted(start, 3, 9).unwrap();
            assert_eq!(compiled, lts.traces_budgeted(&config, 3, 9).unwrap());
        }
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn a_call_whose_alphabet_depends_on_its_caller_is_walked_whole() {
        // `q` reads its caller's `i`. Inference unfolds `q` once per walk,
        // so the left operand's alphabet holds `a[0]` alone; a union of
        // per-call alphabets would add `a[1]`, and `p[1]` would then have
        // to synchronise with `r` on it.
        let defs = parse_definitions(
            "p[i:0..1] = q
             q = a[i]!0 -> STOP
             r = a[1]?x:{0} -> b!0 -> STOP
             net = (p[0] || p[1]) || r",
        )
        .unwrap();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("net", &Env::new());
        let compiled = c.traces_budgeted(start, 4, 12).unwrap();
        let enumerated = lts
            .traces_budgeted(&lts.initial("net", &Env::new()), 4, 12)
            .unwrap();
        assert_eq!(compiled, enumerated);
        let a1 = Event::new(csp_trace::Channel::indexed("a", 1), Value::nat(0));
        let twice = Trace::from_events([a1, a1]);
        assert!(compiled.contains(&twice), "{compiled}");
        assert_rows_are_whole_term_rows(&mut c, &lts);
    }

    #[test]
    fn a_pinned_and_an_unpinned_spine_are_two_states() {
        // The same network before its `||` pins and written pinned: two
        // configurations, two skeletons, two states, each interning back
        // to itself; the unpinned one's successors are the pinned one's.
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let unpinned = Config::new(
            csp_lang::parse_process("chan h; (a!0 -> h!0 -> STOP || h!0 -> b!0 -> STOP)").unwrap(),
            Env::new(),
        );
        let pinned = Config::new(
            csp_lang::parse_process(
                "chan h; (a!0 -> h!0 -> STOP ||{a, h | b, h} h!0 -> b!0 -> STOP)",
            )
            .unwrap(),
            Env::new(),
        );
        let (u, p) = (c.intern(unpinned.clone()), c.intern(pinned.clone()));
        assert_ne!(u, p);
        assert_ne!(c.key(u)[0], c.key(p)[0]);
        assert_eq!(c.intern(unpinned), u);
        assert_eq!(c.intern(pinned), p);
        let (after_u, after_p) = (
            c.steps_of(u).unwrap().to_vec(),
            c.steps_of(p).unwrap().to_vec(),
        );
        assert_eq!(after_u, after_p);
        assert_eq!(c.num_fallback_rows(), 0);
        assert_rows_are_whole_term_rows(&mut c, &lts);
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

        /// The one-walk `is_closed` agrees with the free-variable set, on
        /// networks over terms that bind, read and subscript with `x` and
        /// `y` and read the host array `v` (and an array named like a
        /// variable).
        #[test]
        fn is_closed_agrees_with_the_free_variable_set(p in arb_open_term()) {
            prop_assert_eq!(is_closed(&p), closed_by_free_vars(&p), "{}", p);
        }
    }

    /// Definitions whose start state `top[j]` is a call, or `chan`s over
    /// one, above an unpinned network: operands that are closed calls, a
    /// call left open by its parameter, a `chan` or a `||` of their own,
    /// and an unguarded recursion; inferred alphabets, declared ones and a
    /// declared one subscripted by the parameter; `chan`s
    /// with literal subscripts and with one the unfolding rebinds; a chain
    /// of unguarded calls of random length.
    fn arb_call_network() -> impl Strategy<Value = String> {
        let operand = prop_oneof![
            Just("p[0]"),
            Just("p[1]"),
            Just("q"),
            Just("r"),
            Just("s"),
            Just("p[i]"),
            Just("(chan d; q)"),
            Just("(q || r)"),
            Just("w"),
        ]
        .boxed();
        let alphabet = prop_oneof![
            Just(""),
            Just(""),
            Just("{a[0], b, c | a[1], b, c, d}"),
            Just("{a[0], a[1], b | b, c, d}"),
            Just("{a[i], b | b, c, d}"),
        ]
        .boxed();
        let wrapper = prop_oneof![
            Just("net[j]"),
            Just("chan b; net[j]"),
            Just("chan a[j]; net[1]"),
            Just("chan a[0]; mid"),
            Just("u0"),
            Just("chan c; u0"),
        ];
        (
            (operand.clone(), operand.clone(), operand),
            (alphabet.clone(), alphabet),
            wrapper,
            0usize..4,
        )
            .prop_map(|((o1, o2, o3), (x, y), top, chain)| {
                let mut src = String::from(
                    "p[i:0..1] = a[i]!i -> b?x:{0..1} -> p[i]
                     q = b!0 -> c!1 -> q | d!0 -> q
                     r = c?y:{0..1} -> a[0]!y -> r
                     s = a[1]?z:{0..1} -> STOP
                     w = a[0]!0 -> STOP | w
                     mid = net[0]\n",
                );
                src.push_str(&format!("net[i:0..1] = {o1} ||{x} ({o2} ||{y} {o3})\n"));
                src.push_str(&format!("top[j:0..1] = {top}\n"));
                for k in 0..chain {
                    src.push_str(&format!("u{k} = u{}\n", k + 1));
                }
                src.push_str(&format!("u{chain} = net[0]\n"));
                src
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A call start state's row, whether it comes from its unfolded
        /// trunk or from the whole term, is `Lts::steps` on the call, and
        /// the walk lists the enumerative engine's traces.
        #[test]
        fn call_start_rows_are_whole_term_rows(src in arb_call_network(), j in 0i64..2) {
            let defs = parse_definitions(&src).unwrap();
            let uni = Universe::new(1);
            let lts = Lts::new(&defs, &uni);
            let start = Config::new(Process::call1("top", Expr::int(j)), Env::new());
            let mut c = CompiledLts::new(&defs, &uni);
            let id = c.intern(start.clone());
            let compiled = c.traces_budgeted(id, 3, 9);
            prop_assert_eq!(&compiled, &lts.traces_budgeted(&start, 3, 9), "{}", src);
            if compiled.is_ok() {
                assert_rows_are_whole_term_rows(&mut c, &lts);
            }
        }
    }

    /// True when closing `p` with a value for each name of its
    /// free-variable set (which also lists array names) replaces nothing.
    fn closed_by_free_vars(p: &Process) -> bool {
        let names = free_vars_process(p);
        let p = Arc::new(p.clone());
        let value = |x: &str| names.contains(x).then(|| Value::nat(0));
        Arc::ptr_eq(&close_process_with(&p, &value), &p)
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
