//! # csp-verify
//!
//! Bounded model checking and empirical validation for the Zhou & Hoare
//! (1981) reproduction.
//!
//! * [`SatChecker`] — refutation-complete bounded checking of `P sat R`
//!   with counterexample traces (the semantic reading of §3.3, explored
//!   through the operational semantics);
//! * [`validate_all_rules`] — experiment E6: each of the ten inference
//!   rules of §2.1 validated on seeded random instances
//!   (premises-hold ⇒ conclusion-holds, as §3.4 proves);
//! * [`cross_validate_scripts`] — every machine-checked paper proof from
//!   `csp-proof` independently confirmed by the model checker;
//! * [`stop_choice_identity`] — experiment E7: the §4 defect
//!   `STOP | P = P` verified mechanically.
//!
//! ```
//! use csp_assert::{parse_assertion, ChannelInfo};
//! use csp_lang::examples;
//! use csp_semantics::Universe;
//! use csp_verify::SatChecker;
//!
//! let defs = examples::pipeline();
//! let uni = Universe::new(1);
//! let info = ChannelInfo::new().with_channels(["input", "wire"]);
//! let r = parse_assertion("wire <= input", &info).unwrap();
//! let checker = SatChecker::new(&defs, &uni);
//! assert!(checker.check_name("copier", &r, 4).unwrap().holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crossval;
mod deadlock;
mod faultconf;
mod gen;
mod satcheck;
mod soundness;

pub use crossval::{cross_validate_scripts, stop_choice_identity, CrossValidation};
pub use deadlock::{find_deadlocks, Deadlock, DeadlockReport};
pub use faultconf::{fault_conformance, DegradedRun, FaultConfError, FaultConformance, FaultSweep};
pub use gen::InstanceGen;
pub use satcheck::{SatChecker, SatResult};
pub use soundness::{traceset_sat, validate_all_rules, RuleReport};
