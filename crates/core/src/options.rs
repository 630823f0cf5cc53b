//! Builder-style option bundles for the [`Workbench`](crate::Workbench)
//! verification entry points, replacing positional-argument sprawl.
//!
//! Both types are `#[non_exhaustive]` so new knobs can be added without
//! breaking callers, and both come with `From` conversions that keep the
//! common literal call forms working: a bare depth converts into
//! [`SatOptions`], an invariant-source slice into
//! [`ConformanceOptions`].
//!
//! No option selects a backend: the process decides the backend of the
//! `sat` check ([`Engine`](crate::Engine) names it in the verdict), the
//! compiled LTS for networks and the enumerative trace walk for
//! sequential terms. Deadlock search, refinement and conformance have
//! one backend each, the compiled LTS.

/// Options for bounded satisfaction checking
/// ([`Workbench::check_sat`](crate::Workbench::check_sat)) and trace
/// refinement ([`Workbench::refines`](crate::Workbench::refines)).
///
/// ```
/// use csp_core::SatOptions;
///
/// let opts = SatOptions::new().with_depth(5).with_internal_budget_factor(6);
/// assert_eq!(opts.depth, 5);
/// // A bare depth still converts:
/// assert_eq!(SatOptions::from(3).depth, 3);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatOptions {
    /// Exploration depth: every trace up to this many visible events is
    /// checked.
    pub depth: usize,
    /// Hidden-communication budget as a multiple of the depth.
    pub internal_budget_factor: usize,
}

impl Default for SatOptions {
    fn default() -> Self {
        SatOptions {
            depth: 4,
            internal_budget_factor: 4,
        }
    }
}

impl SatOptions {
    /// The default options (depth 4, budget factor 4).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the exploration depth.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// Sets the hidden-communication budget factor.
    #[must_use]
    pub fn with_internal_budget_factor(mut self, factor: usize) -> Self {
        self.internal_budget_factor = factor.max(1);
        self
    }
}

impl From<usize> for SatOptions {
    /// A bare number is an exploration depth.
    fn from(depth: usize) -> Self {
        SatOptions::default().with_depth(depth)
    }
}

/// Options for conformance checking
/// ([`Workbench::conformance`](crate::Workbench::conformance) and
/// [`Workbench::fault_conformance`](crate::Workbench::fault_conformance)):
/// which invariants a recorded run must satisfy. The replay may take as
/// many concealed steps between two visible events as the recorded run
/// took events in all (at least 8).
///
/// ```
/// use csp_core::ConformanceOptions;
///
/// let opts = ConformanceOptions::new().with_invariant("output <= input");
/// assert_eq!(opts.invariants.len(), 1);
/// // A slice of invariant sources still converts:
/// let from_slice = ConformanceOptions::from(&["output <= input"]);
/// assert_eq!(from_slice.invariants, opts.invariants);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConformanceOptions {
    /// Invariants in assertion syntax; each must hold on every prefix of
    /// the visible trace.
    pub invariants: Vec<String>,
}

impl ConformanceOptions {
    /// No invariants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one invariant (assertion syntax).
    #[must_use]
    pub fn with_invariant(mut self, src: impl Into<String>) -> Self {
        self.invariants.push(src.into());
        self
    }

    /// Adds several invariants.
    #[must_use]
    pub fn with_invariants<I, S>(mut self, srcs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.invariants.extend(srcs.into_iter().map(Into::into));
        self
    }
}

impl From<&[&str]> for ConformanceOptions {
    fn from(srcs: &[&str]) -> Self {
        ConformanceOptions::new().with_invariants(srcs.iter().copied())
    }
}

impl<const N: usize> From<&[&str; N]> for ConformanceOptions {
    fn from(srcs: &[&str; N]) -> Self {
        ConformanceOptions::new().with_invariants(srcs.iter().copied())
    }
}

impl<const N: usize> From<[&str; N]> for ConformanceOptions {
    fn from(srcs: [&str; N]) -> Self {
        ConformanceOptions::new().with_invariants(srcs)
    }
}

impl From<Vec<String>> for ConformanceOptions {
    fn from(invariants: Vec<String>) -> Self {
        ConformanceOptions {
            invariants,
            ..ConformanceOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_literal_converts() {
        let o: SatOptions = 7.into();
        assert_eq!(o.depth, 7);
        assert_eq!(
            o.internal_budget_factor,
            SatOptions::default().internal_budget_factor
        );
    }

    #[test]
    fn budget_factor_floors_at_one() {
        assert_eq!(
            SatOptions::new()
                .with_internal_budget_factor(0)
                .internal_budget_factor,
            1
        );
    }

    #[test]
    fn invariant_slices_convert() {
        let a: ConformanceOptions = (&["x <= y", "y <= z"]).into();
        assert_eq!(a.invariants, vec!["x <= y", "y <= z"]);
        let b: ConformanceOptions = vec!["x <= y".to_string()].into();
        assert_eq!(b.invariants.len(), 1);
    }
}
