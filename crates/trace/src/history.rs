//! Channel histories — the `ch(s)` map of §3.3.
//!
//! "We define `ch(s)` as the function which maps every channel name `c`
//! onto the sequence of messages whose communication along `c` is recorded
//! in `s`." A [`History`] is that function, represented finitely: channels
//! not mentioned map to `<>`.
//!
//! Assertions (`csp-assert`) are evaluated in an environment extended by a
//! history: the free channel names of an assertion denote exactly these
//! per-channel message sequences.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::{Channel, Seq, Trace, Value};

/// The channel-history function `ch(s)`: channel name → sequence of
/// messages communicated on it so far.
///
/// # Examples
///
/// ```
/// use csp_trace::{Channel, History, Trace, Value};
///
/// let s = Trace::parse_like([
///     ("input", Value::nat(27)),
///     ("wire", Value::nat(27)),
///     ("input", Value::nat(0)),
/// ]);
/// let h = History::of_trace(&s);
/// assert_eq!(h.on(&Channel::simple("input")).to_string(), "<27, 0>");
/// // Channels not mentioned in s map to the empty sequence:
/// assert_eq!(h.on(&Channel::simple("output")).to_string(), "<>");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    sequences: BTreeMap<Channel, Seq<Value>>,
}

impl History {
    /// `ch(<>)` — the history in which every channel is empty.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Computes `ch(s)` for a trace `s`.
    pub fn of_trace(trace: &Trace) -> Self {
        let mut h = History::empty();
        for e in trace.iter() {
            h.push(e.channel(), e.value().clone());
        }
        h
    }

    /// `ch(s)(c)` — the messages recorded on channel `c`, `<>` if none.
    pub fn on(&self, c: &Channel) -> Seq<Value> {
        self.sequences.get(c).cloned().unwrap_or_default()
    }

    /// Borrowing variant of [`on`](Self::on); `None` means `<>`.
    pub fn get(&self, c: &Channel) -> Option<&Seq<Value>> {
        self.sequences.get(c)
    }

    /// [`get`](Self::get) for the channel with base name `base` and
    /// subscripts `indices`, without building a [`Channel`].
    ///
    /// # Examples
    ///
    /// ```
    /// use csp_trace::{Channel, History, Value};
    ///
    /// let mut h = History::empty();
    /// h.push(&Channel::indexed("row", 2), Value::nat(7));
    /// assert_eq!(h.lookup("row", &[2]).unwrap().to_string(), "<7>");
    /// assert!(h.lookup("row", &[1]).is_none());
    /// ```
    pub fn lookup(&self, base: &str, indices: &[i64]) -> Option<&Seq<Value>> {
        self.sequences.get(&(base, indices) as &dyn ChannelKey)
    }

    /// Appends one message to the history of `c` — how `ch` evolves as a
    /// trace is extended at the back. The channel is copied only when the
    /// history has no message on it yet.
    pub fn push(&mut self, c: &Channel, v: Value) {
        match self.sequences.get_mut(c) {
            Some(seq) => seq.extend([v]),
            None => {
                self.sequences.insert(c.clone(), Seq::from_iter([v]));
            }
        }
    }

    /// Removes the last message of `c`'s history and returns it — undoes
    /// [`push`](Self::push), so a history can follow a trace that loses
    /// events at the back. A channel whose history empties is dropped,
    /// exactly as if it had never been pushed, so the result equals
    /// [`of_trace`](Self::of_trace) of the shortened trace.
    pub fn pop(&mut self, c: &Channel) -> Option<Value> {
        let seq = self.sequences.get_mut(c)?;
        let v = seq.pop();
        if seq.is_empty() {
            self.sequences.remove(c);
        }
        v
    }

    /// Replaces the history of channel `c` wholesale. Used by the
    /// substitution lemmas of §3.4, where `R^c_{e^c}` is evaluated by
    /// consing `e` onto `c`'s history.
    pub fn set(&mut self, c: Channel, s: Seq<Value>) {
        if s.is_empty() {
            self.sequences.remove(&c);
        } else {
            self.sequences.insert(c, s);
        }
    }

    /// The history with `v` *consed onto the front* of channel `c`'s
    /// sequence — the semantic counterpart of the output rule's
    /// substitution `R^c_{e^c}` (lemma (c) of §3.4:
    /// `(ρ + ch(s))[R^c_{e^c}] = (ρ + ch((c.e)^s))[R]`).
    pub fn cons_on(&self, c: &Channel, v: Value) -> History {
        let mut out = self.clone();
        let s = out.on(c).cons(v);
        out.set(c.clone(), s);
        out
    }

    /// Channels with a non-empty recorded history, in sorted order.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.sequences.keys()
    }

    /// Number of channels with non-empty history.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True if every channel maps to `<>`.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Iterates over `(channel, messages)` pairs in sorted channel order.
    pub fn iter(&self) -> impl Iterator<Item = (&Channel, &Seq<Value>)> {
        self.sequences.iter()
    }

    /// Total number of messages across all channels. Equal to `#s` for
    /// `ch(s)` because every communication lands on exactly one channel.
    pub fn total_messages(&self) -> usize {
        self.sequences.values().map(Seq::len).sum()
    }
}

/// A channel name as its parts, ordered as [`Channel`] orders (base name,
/// then subscripts), so the history's map can be probed by borrowed parts.
trait ChannelKey {
    fn parts(&self) -> (&str, &[i64]);
}

impl ChannelKey for Channel {
    fn parts(&self) -> (&str, &[i64]) {
        (self.base(), self.indices())
    }
}

impl ChannelKey for (&str, &[i64]) {
    fn parts(&self) -> (&str, &[i64]) {
        *self
    }
}

impl<'a> Borrow<dyn ChannelKey + 'a> for Channel {
    fn borrow(&self) -> &(dyn ChannelKey + 'a) {
        self
    }
}

impl PartialEq for dyn ChannelKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn ChannelKey + '_ {}

impl PartialOrd for dyn ChannelKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn ChannelKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts().cmp(&other.parts())
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (c, s)) in self.sequences.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c} ↦ {s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(n: u32) -> Value {
        Value::nat(n)
    }

    /// The worked `ch(s)` example of §3.3.
    #[test]
    fn section_3_3_example() {
        let s = Trace::parse_like([
            ("input", nat(27)),
            ("wire", nat(27)),
            ("input", nat(0)),
            ("wire", nat(0)),
            ("input", nat(3)),
        ]);
        let h = History::of_trace(&s);
        assert_eq!(h.on(&Channel::simple("input")).to_string(), "<27, 0, 3>");
        assert_eq!(h.on(&Channel::simple("wire")).to_string(), "<27, 0>");
        assert_eq!(h.on(&Channel::simple("anything-else")).to_string(), "<>");
    }

    #[test]
    fn empty_history_maps_everything_to_empty() {
        let h = History::empty();
        assert!(h.is_empty());
        assert!(h.on(&Channel::simple("wire")).is_empty());
        assert_eq!(h.total_messages(), 0);
    }

    #[test]
    fn push_appends_in_order() {
        let mut h = History::empty();
        let c = Channel::simple("wire");
        h.push(&c, nat(1));
        h.push(&c, nat(2));
        assert_eq!(h.on(&c).to_string(), "<1, 2>");
        assert_eq!(h.total_messages(), 2);
    }

    #[test]
    fn cons_on_prepends_like_output_substitution() {
        // ch((c.e)^s)(c) = e ^ ch(s)(c)   — recursive clause of ch in §3.3.
        let s = Trace::parse_like([("wire", nat(2))]);
        let h = History::of_trace(&s);
        let c = Channel::simple("wire");
        let h2 = h.cons_on(&c, nat(1));
        assert_eq!(h2.on(&c).to_string(), "<1, 2>");
        // Other channels unaffected:
        assert!(h2.on(&Channel::simple("input")).is_empty());
        // Original unchanged (value semantics):
        assert_eq!(h.on(&c).to_string(), "<2>");
    }

    #[test]
    fn ch_respects_restriction_lemma_d() {
        // Lemma (d) §3.4: ch(s)(c) = ch(s\C)(c) whenever c ∉ C.
        let s = Trace::parse_like([("a", nat(1)), ("h", nat(5)), ("a", nat(2)), ("h", nat(6))]);
        let hidden: crate::ChannelSet = ["h"].into_iter().collect();
        let restricted = s.restrict(&hidden);
        let c = Channel::simple("a");
        assert_eq!(
            History::of_trace(&s).on(&c),
            History::of_trace(&restricted).on(&c)
        );
    }

    #[test]
    fn set_with_empty_sequence_removes_entry() {
        let mut h = History::empty();
        let c = Channel::simple("x");
        h.push(&c, nat(1));
        assert_eq!(h.len(), 1);
        h.set(c.clone(), Seq::empty());
        assert!(h.is_empty());
        // Equal to a genuinely fresh empty history.
        assert_eq!(h, History::empty());
    }

    #[test]
    fn history_of_trace_equals_incremental_pushes() {
        let t = Trace::parse_like([("a", nat(1)), ("b", nat(2)), ("a", nat(3))]);
        let mut h = History::empty();
        for e in t.iter() {
            h.push(e.channel(), e.value().clone());
        }
        assert_eq!(h, t.history());
    }

    #[test]
    fn pop_undoes_push_and_drops_emptied_channels() {
        let t = Trace::from_events([
            crate::Event::new(Channel::simple("a"), nat(1)),
            crate::Event::new(Channel::indexed("b", 2), nat(2)),
            crate::Event::new(Channel::simple("a"), nat(3)),
        ]);
        let mut h = t.history();
        for n in (0..t.len()).rev() {
            let e = t.events()[n];
            assert_eq!(h.pop(e.channel()), Some(e.value().clone()));
            let shorter = t.take(n);
            assert_eq!(h, shorter.history(), "after popping back to {shorter}");
            assert_eq!(h.to_string(), shorter.history().to_string());
        }
        assert!(h.is_empty());
        assert_eq!(h.pop(&Channel::simple("a")), None);
    }

    #[test]
    fn lookup_by_parts_agrees_with_get() {
        let t = Trace::from_events([
            crate::Event::new(Channel::simple("row"), nat(0)),
            crate::Event::new(Channel::indexed("row", 1), nat(1)),
            crate::Event::new(Channel::with_indices("row", vec![1, 0]), nat(2)),
            crate::Event::new(Channel::indexed("rows", 1), nat(3)),
            crate::Event::new(Channel::indexed("col", -1), nat(4)),
        ]);
        let h = t.history();
        let probes = [
            Channel::simple("row"),
            Channel::indexed("row", 1),
            Channel::with_indices("row", vec![1, 0]),
            Channel::indexed("rows", 1),
            Channel::indexed("col", -1),
            Channel::indexed("row", 0),
            Channel::simple("col"),
            Channel::simple("ro"),
        ];
        for c in &probes {
            assert_eq!(h.lookup(c.base(), c.indices()), h.get(c), "{c}");
        }
    }

    #[test]
    fn display_lists_sorted_channels() {
        let t = Trace::parse_like([("b", nat(2)), ("a", nat(1))]);
        assert_eq!(t.history().to_string(), "{a ↦ <1>, b ↦ <2>}");
    }
}
