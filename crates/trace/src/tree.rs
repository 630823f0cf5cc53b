//! Trace sets read as trees.
//!
//! §3.1 makes every process's trace set prefix-closed: with each trace
//! `s⌢<e>` it holds the parent `s`. A [`TraceTree`] lists such a set by
//! numbering its traces and recording each as its parent's number and
//! the communication that extends it, so no trace is built to list it.
//! A walk over the listing can follow `ch(s)` from one trace to the next
//! through their deepest common ancestor ([`common_ancestor`],
//! [`ascend`]) and order two traces ([`cmp`]) without building either.
//!
//! [`common_ancestor`]: TraceTree::common_ancestor
//! [`ascend`]: TraceTree::ascend
//! [`cmp`]: TraceTree::cmp

use std::cmp::Ordering;

use crate::fx::FxHashMap;
use crate::{Event, Trace, TraceSet};

/// A prefix-closed set of traces, each numbered and held as its parent's
/// number plus one communication.
///
/// # Examples
///
/// ```
/// use csp_trace::{Event, TraceTree, Value};
///
/// let a: Event = ("a", Value::nat(1)).into();
/// let b: Event = ("b", Value::nat(2)).into();
/// let mut tree = TraceTree::new();
/// let ta = tree.push(tree.root(), a);
/// let tab = tree.push(ta, b);
/// let tb = tree.push(tree.root(), b);
/// assert_eq!(tree.trace(tab).to_string(), "<a.1, b.2>");
/// assert_eq!(tree.common_ancestor(tab, tb), tree.root());
/// assert!(tree.cmp(tab, tb).is_lt()); // <a.1, b.2> < <b.2>
/// ```
#[derive(Debug)]
pub struct TraceTree {
    nodes: Vec<Node>,
    root: u32,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    /// The parent's number; the root's own number for `<>`.
    parent: u32,
    /// The last communication; `None` only for `<>`.
    event: Option<Event>,
    /// The trace's length.
    depth: u32,
}

impl TraceTree {
    /// The tree holding only `<>`, numbered 0.
    pub fn new() -> Self {
        TraceTree {
            nodes: vec![Node {
                parent: 0,
                event: None,
                depth: 0,
            }],
            root: 0,
        }
    }

    /// A trace set read as a tree, its traces numbered in the set's
    /// unordered iteration order ([`TraceSet::iter_unordered`]).
    pub fn of_set(set: &TraceSet) -> Self {
        let number: FxHashMap<&Trace, u32> = set
            .iter_unordered()
            .enumerate()
            .map(|(n, t)| (t, to_u32(n)))
            .collect();
        let nodes = set
            .iter_unordered()
            .map(|t| match t.last() {
                None => Node {
                    parent: number[t],
                    event: None,
                    depth: 0,
                },
                Some(e) => Node {
                    parent: number[&t.take(t.len() - 1)],
                    event: Some(*e),
                    depth: to_u32(t.len()),
                },
            })
            .collect();
        TraceTree {
            nodes,
            root: number[&Trace::empty()],
        }
    }

    /// Numbers `parent` extended by `e` as the next trace, and returns
    /// its number. The caller keeps the traces distinct.
    pub fn push(&mut self, parent: u32, e: Event) -> u32 {
        let depth = self.nodes[parent as usize].depth + 1;
        self.nodes.push(Node {
            parent,
            event: Some(e),
            depth,
        });
        to_u32(self.nodes.len() - 1)
    }

    /// The number of `<>`.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of traces, `<>` included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true: `<>` is always a member.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The length of trace `n`.
    fn depth(&self, n: u32) -> usize {
        self.nodes[n as usize].depth as usize
    }

    /// The communications from trace `from` up to its ancestor `to`
    /// (exclusive), last communication first.
    pub fn ascend(&self, from: u32, to: u32) -> impl Iterator<Item = Event> + '_ {
        let mut at = from;
        std::iter::from_fn(move || {
            if at == to {
                return None;
            }
            let node = self.nodes[at as usize];
            at = node.parent;
            node.event
        })
    }

    /// The longest common prefix of traces `a` and `b`.
    pub fn common_ancestor(&self, a: u32, b: u32) -> u32 {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a);
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b);
        }
        while a != b {
            a = self.parent(a);
            b = self.parent(b);
        }
        a
    }

    /// Traces `a` and `b` in [`Trace`] order (lexicographic by events, a
    /// prefix first), without building either.
    pub fn cmp(&self, a: u32, b: u32) -> Ordering {
        let (mut x, mut y) = (a, b);
        while self.depth(x) > self.depth(y) {
            x = self.parent(x);
        }
        while self.depth(y) > self.depth(x) {
            y = self.parent(y);
        }
        if x == y {
            // One is a prefix of the other.
            return self.depth(a).cmp(&self.depth(b));
        }
        while self.parent(x) != self.parent(y) {
            x = self.parent(x);
            y = self.parent(y);
        }
        // Siblings: the first communications on which `a` and `b` differ.
        self.nodes[x as usize]
            .event
            .cmp(&self.nodes[y as usize].event)
    }

    /// Trace `n`, built.
    pub fn trace(&self, n: u32) -> Trace {
        let mut events: Vec<Event> = self.ascend(n, self.root).collect();
        events.reverse();
        Trace::from_events(events)
    }

    /// Every trace, in number order. A trace is built from its parent's
    /// by [`Trace::snoc`], so traces share buffers where they can.
    pub fn traces(&self) -> Vec<Trace> {
        let mut built: Vec<Option<Trace>> = vec![None; self.nodes.len()];
        let mut unbuilt = Vec::new();
        for n in 0..self.nodes.len() {
            let mut at = n;
            while built[at].is_none() {
                unbuilt.push(at);
                if self.nodes[at].event.is_none() {
                    break;
                }
                at = self.nodes[at].parent as usize;
            }
            while let Some(m) = unbuilt.pop() {
                let node = self.nodes[m];
                built[m] = Some(match node.event {
                    None => Trace::empty(),
                    Some(e) => built[node.parent as usize]
                        .as_ref()
                        .expect("parent built first")
                        .snoc(e),
                });
            }
        }
        built
            .into_iter()
            .map(|t| t.expect("every trace built"))
            .collect()
    }

    fn parent(&self, n: u32) -> u32 {
        self.nodes[n as usize].parent
    }
}

impl Default for TraceTree {
    fn default() -> Self {
        TraceTree::new()
    }
}

fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("trace count exceeds u32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn ev(c: &str, n: u32) -> Event {
        (c, Value::nat(n)).into()
    }

    /// `<>`, `<a.0>`, `<a.0, b.1>`, `<a.0, a.1>`, `<b.0>`, `<b.0, a.0>`.
    fn sample() -> (TraceTree, Vec<u32>) {
        let mut t = TraceTree::new();
        let a = t.push(0, ev("a", 0));
        let ab = t.push(a, ev("b", 1));
        let aa = t.push(a, ev("a", 1));
        let b = t.push(0, ev("b", 0));
        let ba = t.push(b, ev("a", 0));
        (t, vec![0, a, ab, aa, b, ba])
    }

    #[test]
    fn traces_are_their_parents_plus_one_event() {
        let (t, _) = sample();
        let listed: Vec<String> = t.traces().iter().map(ToString::to_string).collect();
        assert_eq!(
            listed,
            [
                "<>",
                "<a.0>",
                "<a.0, b.1>",
                "<a.0, a.1>",
                "<b.0>",
                "<b.0, a.0>"
            ]
        );
        for (n, trace) in t.traces().iter().enumerate() {
            assert_eq!(&t.trace(n as u32), trace);
            assert_eq!(t.depth(n as u32), trace.len());
        }
    }

    #[test]
    fn order_and_common_ancestors_are_those_of_the_traces() {
        let (t, ns) = sample();
        let traces = t.traces();
        for &a in &ns {
            for &b in &ns {
                let (ta, tb) = (&traces[a as usize], &traces[b as usize]);
                assert_eq!(t.cmp(a, b), ta.cmp(tb), "{ta} vs {tb}");
                let common = t.common_ancestor(a, b);
                let prefix = ta.iter().zip(tb.iter()).take_while(|(x, y)| x == y).count();
                assert_eq!(traces[common as usize], ta.take(prefix), "{ta} vs {tb}");
                let up: Vec<Event> = t.ascend(a, common).collect();
                let mut want = ta.events()[prefix..].to_vec();
                want.reverse();
                assert_eq!(up, want);
            }
        }
    }

    #[test]
    fn a_set_reads_as_a_tree_in_its_own_order() {
        let set = TraceSet::closure_of([
            Trace::from_events([ev("a", 0), ev("b", 1)]),
            Trace::from_events([ev("b", 0), ev("a", 0), ev("c", 2)]),
        ]);
        let tree = TraceTree::of_set(&set);
        let listed: Vec<Trace> = set.iter_unordered().cloned().collect();
        assert_eq!(tree.traces(), listed);
        assert_eq!(tree.trace(tree.root()), Trace::empty());
        for (n, trace) in listed.iter().enumerate() {
            assert_eq!(tree.depth(n as u32), trace.len());
        }
    }
}
