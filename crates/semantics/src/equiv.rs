//! Trace-set comparison: equality with discrepancy reports.
//!
//! Used for the paper's §4 identity `STOP | P = P`, for the
//! operational/denotational agreement theorem, and by the model checker's
//! regression tests.

use csp_trace::{Trace, TraceSet};

/// The difference between two trace sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Traces in the left set but not the right, in sorted order
    /// (truncated to a small sample for display).
    pub only_left: Vec<Trace>,
    /// Traces in the right set but not the left.
    pub only_right: Vec<Trace>,
}

impl Discrepancy {
    /// True when the two sets were equal.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty() && self.only_right.is_empty()
    }
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "trace sets are equal");
        }
        if !self.only_left.is_empty() {
            writeln!(f, "only in left ({}):", self.only_left.len())?;
            for t in self.only_left.iter().take(5) {
                writeln!(f, "  {t}")?;
            }
        }
        if !self.only_right.is_empty() {
            writeln!(f, "only in right ({}):", self.only_right.len())?;
            for t in self.only_right.iter().take(5) {
                writeln!(f, "  {t}")?;
            }
        }
        Ok(())
    }
}

/// Compares two trace sets, returning `None` when equal and the
/// difference otherwise.
///
/// # Examples
///
/// ```
/// use csp_semantics::compare;
/// use csp_trace::{Trace, TraceSet, Value};
///
/// let p = TraceSet::closure_of([Trace::parse_like([("a", Value::nat(1))])]);
/// assert!(compare(&p, &p).is_none());
/// assert!(compare(&p, &TraceSet::stop()).is_some());
/// ```
pub fn compare(left: &TraceSet, right: &TraceSet) -> Option<Discrepancy> {
    let only_left: Vec<Trace> = left
        .iter()
        .filter(|t| !right.contains(t))
        .cloned()
        .collect();
    let only_right: Vec<Trace> = right
        .iter()
        .filter(|t| !left.contains(t))
        .cloned()
        .collect();
    if only_left.is_empty() && only_right.is_empty() {
        None
    } else {
        Some(Discrepancy {
            only_left,
            only_right,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::Value;

    fn tr(pairs: &[(&'static str, u32)]) -> Trace {
        Trace::parse_like(pairs.iter().map(|&(c, n)| (c, Value::nat(n))))
    }

    #[test]
    fn equal_sets_compare_none() {
        let p = TraceSet::closure_of([tr(&[("a", 1), ("b", 2)])]);
        assert!(compare(&p, &p.clone()).is_none());
    }

    #[test]
    fn differences_are_reported_both_ways() {
        let p = TraceSet::closure_of([tr(&[("a", 1)])]);
        let q = TraceSet::closure_of([tr(&[("b", 2)])]);
        let d = compare(&p, &q).unwrap();
        assert_eq!(d.only_left, vec![tr(&[("a", 1)])]);
        assert_eq!(d.only_right, vec![tr(&[("b", 2)])]);
        assert!(!d.is_empty());
        let shown = d.to_string();
        assert!(shown.contains("only in left"));
        assert!(shown.contains("only in right"));
    }
}
