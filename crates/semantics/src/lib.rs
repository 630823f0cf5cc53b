//! # csp-semantics
//!
//! The denotational model of Zhou & Hoare (1981) §3, plus a derived
//! operational semantics.
//!
//! * [`Semantics`] — the paper's semantic equations: every process
//!   expression denotes a prefix-closed trace set, computed here to a
//!   requested depth over a finite [`Universe`].
//! * [`mod@fixpoint`] — the explicit approximation sequence `a₀ ⊆ a₁ ⊆ …` of
//!   §3.3 for (mutually) recursive definitions and process arrays, with
//!   convergence detection.
//! * [`Lts`] — a labelled transition system derived from the syntax; its
//!   traces provably (by test) agree with the denotational model, and it
//!   composes networks on the fly, which is what the larger experiments
//!   use.
//! * [`compare`] — trace-set equality with discrepancy reporting (e.g.
//!   the §4 identity `STOP | P = P`).
//! * [`CompiledLts`] — the compiled backend: the same transition relation
//!   with configurations interned into a [`StateId`] arena and successor
//!   rows memoised, so reachability-style checks (deadlock, refinement)
//!   run over [`StateSet`] bitsets instead of re-stepping terms.
//!   [`Engine`] names the backend of a `sat` check, which the process
//!   decides: the arena for networks, the trace walk otherwise.
//!
//! ```
//! use csp_lang::{examples, Env};
//! use csp_semantics::{Lts, Semantics, Universe};
//!
//! let defs = examples::pipeline();
//! let uni = Universe::new(1);
//! let sem = Semantics::new(&defs, &uni);
//! let lts = Lts::new(&defs, &uni);
//! let env = Env::new();
//! let d = sem.denote_name("pipeline", &env, 3).unwrap();
//! let o = lts.traces(&lts.initial("pipeline", &env), 3).unwrap();
//! assert_eq!(d, o);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod denote;
mod equiv;
mod lts;
mod universe;

pub mod fixpoint;

pub use compiled::{CompiledLts, CompiledStep, Engine, StateId, StateSet};
pub use denote::Semantics;
pub use equiv::{compare, Discrepancy};
pub use fixpoint::{fixpoint, fixpoint_with, Approximation, FixpointRun, ProcKey};
pub use lts::{Config, Lts, Step};
pub use universe::Universe;

/// Concealed steps a bounded search admits per unit of its depth: a
/// search to `d` visible events takes at most `d × CONCEALED_PER_DEPTH`
/// concealed steps along any path. `chan L; P` conceals `L` without
/// lengthening the trace (§1.2(8), §3.2), so a walk bounded by trace
/// length alone need not end. Every bounded search reads this one
/// budget: the `sat` check on either walk, the trace listing, deadlock
/// search and refinement.
pub const CONCEALED_PER_DEPTH: usize = 4;
