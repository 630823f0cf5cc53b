//! The builder-style option bundle of the [`Workbench`](crate::Workbench)'s
//! bounded checks, replacing positional-argument sprawl. It is
//! `#[non_exhaustive]` so new knobs can be added without breaking
//! callers, and a bare depth converts into it.
//!
//! No option selects a backend: the process decides the backend of the
//! `sat` check ([`Engine`](crate::Engine) names it in the verdict), the
//! compiled LTS for networks and the enumerative trace walk for
//! sequential terms. Deadlock search, refinement and conformance have
//! one backend each, the compiled LTS. No option sets a budget of
//! concealed steps either: a bounded search takes `depth ×`
//! [`CONCEALED_PER_DEPTH`], a replay of a run
//! [`csp_runtime::replay_budget`] between two visible events.

use csp_semantics::CONCEALED_PER_DEPTH;

/// Options for bounded satisfaction checking
/// ([`Workbench::check_sat`](crate::Workbench::check_sat)) and trace
/// refinement ([`Workbench::refines`](crate::Workbench::refines)).
///
/// ```
/// use csp_core::SatOptions;
///
/// let opts = SatOptions::new().with_depth(5);
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
    /// Concealed steps a check admits per unit of depth along any path:
    /// always [`CONCEALED_PER_DEPTH`], which the checks read. It is here
    /// to be reported, not set.
    pub internal_budget_factor: usize,
}

impl Default for SatOptions {
    fn default() -> Self {
        SatOptions {
            depth: 4,
            internal_budget_factor: CONCEALED_PER_DEPTH,
        }
    }
}

impl SatOptions {
    /// The default options (depth 4).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the exploration depth.
    #[must_use]
    pub fn with_depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }
}

impl From<usize> for SatOptions {
    /// A bare number is an exploration depth.
    fn from(depth: usize) -> Self {
        SatOptions::default().with_depth(depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_literal_converts() {
        let o: SatOptions = 7.into();
        assert_eq!(o.depth, 7);
        assert_eq!(o.internal_budget_factor, CONCEALED_PER_DEPTH);
    }
}
