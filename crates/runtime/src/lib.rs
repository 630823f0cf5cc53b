//! # csp-runtime
//!
//! A concurrent executor for Zhou & Hoare (1981) networks: each network
//! component runs on its own OS thread, and a coordinator moves the
//! network by the binary `||` and `chan` rules (§1.2(7)–(8)) — an event
//! on a channel two operands share occurs only when both are ready for it
//! (§1.0). Events a `chan L; …` conceals fire like any other but are
//! removed from the visible trace, exactly as the semantics removes them
//! from recordable traces.
//!
//! The runtime closes the reproduction loop:
//!
//! 1. `csp-proof` certifies `P sat R` symbolically;
//! 2. `csp-semantics` defines `⟦P⟧`;
//! 3. [`Executor`] produces real traces from real threads;
//! 4. [`check_conformance`] verifies each recorded trace is in `⟦P⟧` and
//!    maintains `R` at every moment.
//!
//! ```
//! use csp_lang::{examples, Env};
//! use csp_runtime::{Executor, RunOptions, Scheduler};
//! use csp_semantics::Universe;
//!
//! let defs = examples::pipeline();
//! let uni = Universe::new(1);
//! let exec = Executor::new(&defs, &uni);
//! let res = exec.run_name("pipeline", &Env::new(), RunOptions {
//!     max_steps: 12,
//!     scheduler: Scheduler::seeded(1),
//!     ..RunOptions::default()
//! }).unwrap();
//! assert!(!res.deadlocked);
//! ```
//!
//! Runs can also be subjected to injected faults — crashes, stalls,
//! delayed offers, starvation — under a watchdog; see [`FaultPlan`],
//! [`Supervision`], and [`RunOutcome`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal_json;
mod conformance;
mod executor;
mod fault;
mod monitor;
mod net;
mod scheduler;
mod supervisor;

pub use conformance::{check_conformance, ConformanceReport};
pub use executor::{Executor, RunError, RunOptions, RunResult};
pub use fault::{ComponentSel, Fault, FaultError, FaultPlan, RestartPolicy};
pub use monitor::{
    replay_budget, Monitor, MonitorReport, MonitorSpec, MonitorVerdict, MonitorViolation,
    ViolationKind,
};
pub use net::{flatten, Component, NetError, Network};
pub use scheduler::Scheduler;
pub use supervisor::{ComponentFailure, FailureReason, RunOutcome, Supervision};

pub use causal_json::{causal_jsonl, chrome_causal_trace};
// Re-export the causal layer so downstream users get clocks and logs
// from the same crate that produces them.
pub use csp_causal::{msc, CausalError, CausalEvent, CausalEventKind, CausalLog, VectorClock};
