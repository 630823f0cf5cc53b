//! The generic sequence algebra of §2.
//!
//! The paper defines, for message sequences (and implicitly for traces):
//!
//! * `x^s` — prefixing a single element (`cons`),
//! * `#s` — length,
//! * `s_i` — the `i`th element, **1-based**, for `i ∈ {1, …, #s}`,
//! * `s ≤ t ⇔ ∃u. s⌢u = t` — the prefix order,
//! * concatenation `s⌢t` (written `st` in the paper).
//!
//! [`Seq`] implements all of these for any ordered element type; channel
//! histories are `Seq<Value>` and traces wrap `Seq<Event>`.

use std::fmt;

/// An immutable-in-spirit finite sequence with the paper's operators.
///
/// # Examples
///
/// ```
/// use csp_trace::Seq;
///
/// let s: Seq<i32> = [1, 2].into_iter().collect();
/// let t: Seq<i32> = [1, 2, 3].into_iter().collect();
/// assert!(s.is_prefix_of(&t));       // s ≤ t
/// assert_eq!(t.len(), 3);            // #t
/// assert_eq!(t.at(1), Some(&1));     // t₁ (1-based!)
/// assert_eq!(s.cons(0).at(1), Some(&0)); // (0^s)₁ = 0
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Seq<T> {
    items: Vec<T>,
}

impl<T> Seq<T> {
    /// The empty sequence `<>`.
    pub fn empty() -> Self {
        Seq { items: Vec::new() }
    }

    /// Builds a sequence from a vector of elements.
    pub fn from_vec(items: Vec<T>) -> Self {
        Seq { items }
    }

    /// `#s` — the length of the sequence.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the sequence is `<>`.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `s_i` — the `i`th message of `s`, **1-based** as in the paper
    /// (`i ∈ {1, …, #s}`). Returns `None` when `i` is `0` or exceeds `#s`.
    pub fn at(&self, i: usize) -> Option<&T> {
        if i == 0 {
            None
        } else {
            self.items.get(i - 1)
        }
    }

    /// The first element, if any.
    pub fn head(&self) -> Option<&T> {
        self.items.first()
    }

    /// The last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.items.last()
    }

    /// Iterates over the elements front to back.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// A view of the underlying elements.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Consumes the sequence and returns its elements.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }

    /// Removes and returns the last element — how a channel history
    /// shrinks when its trace loses its last event.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.items.pop()
    }
}

impl<T: Clone> Seq<T> {
    /// `x^s` — the sequence whose first element is `x` and whose remainder
    /// is `s` (§2 operator (1)).
    pub fn cons(&self, x: T) -> Seq<T> {
        let mut items = Vec::with_capacity(self.items.len() + 1);
        items.push(x);
        items.extend_from_slice(&self.items);
        Seq { items }
    }

    /// The sequence with `x` appended at the back.
    pub fn snoc(&self, x: T) -> Seq<T> {
        let mut items = self.items.clone();
        items.push(x);
        Seq { items }
    }

    /// Concatenation `s⌢t` (written `st` in the paper's prefix definition
    /// `s ≤ t ⇔ ∃u. su = t`).
    pub fn concat(&self, other: &Seq<T>) -> Seq<T> {
        let mut items = self.items.clone();
        items.extend_from_slice(&other.items);
        Seq { items }
    }

    /// The remainder after removing the first element; `None` on `<>`.
    pub fn tail(&self) -> Option<Seq<T>> {
        if self.items.is_empty() {
            None
        } else {
            Some(Seq {
                items: self.items[1..].to_vec(),
            })
        }
    }

    /// The prefix consisting of the first `n` elements (all of `s` if
    /// `n ≥ #s`).
    pub fn take(&self, n: usize) -> Seq<T> {
        Seq {
            items: self.items.iter().take(n).cloned().collect(),
        }
    }

    /// The suffix after dropping the first `n` elements.
    pub fn drop_front(&self, n: usize) -> Seq<T> {
        Seq {
            items: self.items.iter().skip(n).cloned().collect(),
        }
    }

    /// The sub-sequence of elements satisfying `keep`.
    pub fn filter(&self, mut keep: impl FnMut(&T) -> bool) -> Seq<T> {
        Seq {
            items: self.items.iter().filter(|x| keep(x)).cloned().collect(),
        }
    }

    /// All prefixes of the sequence, shortest (`<>`) first; `#s + 1` of
    /// them. This is the pointwise prefix closure used by
    /// [`TraceSet`](crate::TraceSet).
    pub fn prefixes(&self) -> Vec<Seq<T>> {
        (0..=self.items.len()).map(|n| self.take(n)).collect()
    }
}

impl<T: PartialEq> Seq<T> {
    /// The prefix order `s ≤ t ⇔ ∃u. s⌢u = t` (§2).
    pub fn is_prefix_of(&self, other: &Seq<T>) -> bool {
        self.items.len() <= other.items.len()
            && self
                .items
                .iter()
                .zip(other.items.iter())
                .all(|(a, b)| a == b)
    }

    /// Strict prefix: `s ≤ t` and `s ≠ t`.
    pub fn is_strict_prefix_of(&self, other: &Seq<T>) -> bool {
        self.items.len() < other.items.len() && self.is_prefix_of(other)
    }
}

impl<T> Default for Seq<T> {
    fn default() -> Self {
        Seq::empty()
    }
}

impl<T> FromIterator<T> for Seq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Seq {
            items: iter.into_iter().collect(),
        }
    }
}

impl<T> Extend<T> for Seq<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<T> IntoIterator for Seq<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Seq<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: fmt::Display> fmt::Display for Seq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, x) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(xs: &[i32]) -> Seq<i32> {
        xs.iter().copied().collect()
    }

    #[test]
    fn empty_is_prefix_of_everything() {
        assert!(Seq::<i32>::empty().is_prefix_of(&seq(&[1, 2, 3])));
        assert!(Seq::<i32>::empty().is_prefix_of(&Seq::empty()));
    }

    #[test]
    fn prefix_order_definition() {
        // s ≤ t ⇔ ∃u. su = t
        let s = seq(&[1, 2]);
        let t = seq(&[1, 2, 3]);
        assert!(s.is_prefix_of(&t));
        let u = seq(&[3]);
        assert_eq!(s.concat(&u), t);
        assert!(!t.is_prefix_of(&s));
        assert!(!seq(&[2]).is_prefix_of(&t));
        // Reflexive:
        assert!(t.is_prefix_of(&t));
        assert!(!t.is_strict_prefix_of(&t));
        assert!(s.is_strict_prefix_of(&t));
    }

    #[test]
    fn cons_prepends() {
        let s = seq(&[2, 3]);
        let xs = s.cons(1);
        assert_eq!(xs, seq(&[1, 2, 3]));
        assert_eq!(xs.head(), Some(&1));
        assert_eq!(xs.tail().unwrap(), s);
    }

    #[test]
    fn one_based_indexing() {
        let s = seq(&[10, 20, 30]);
        assert_eq!(s.at(0), None);
        assert_eq!(s.at(1), Some(&10));
        assert_eq!(s.at(3), Some(&30));
        assert_eq!(s.at(4), None);
    }

    #[test]
    fn length_and_emptiness() {
        assert_eq!(Seq::<i32>::empty().len(), 0);
        assert!(Seq::<i32>::empty().is_empty());
        assert_eq!(seq(&[1, 2, 3]).len(), 3);
    }

    #[test]
    fn take_drop_filter() {
        let s = seq(&[1, 2, 3, 4]);
        assert_eq!(s.take(2), seq(&[1, 2]));
        assert_eq!(s.take(9), s);
        assert_eq!(s.drop_front(2), seq(&[3, 4]));
        assert_eq!(s.filter(|x| x % 2 == 0), seq(&[2, 4]));
    }

    #[test]
    fn prefixes_enumerates_shortest_first() {
        let s = seq(&[1, 2]);
        let ps = s.prefixes();
        assert_eq!(ps, vec![seq(&[]), seq(&[1]), seq(&[1, 2])]);
    }

    #[test]
    fn snoc_appends() {
        assert_eq!(seq(&[1]).snoc(2), seq(&[1, 2]));
    }

    #[test]
    fn display_uses_angle_brackets() {
        assert_eq!(seq(&[]).to_string(), "<>");
        assert_eq!(seq(&[27, 0, 3]).to_string(), "<27, 0, 3>");
    }

    #[test]
    fn concat_associativity_spot_check() {
        let a = seq(&[1]);
        let b = seq(&[2]);
        let c = seq(&[3]);
        assert_eq!(a.concat(&b).concat(&c), a.concat(&b.concat(&c)));
    }
}
