//! # csp-core
//!
//! Facade for the `hoare-csp` reproduction of Zhou Chao Chen & C. A. R.
//! Hoare, *Partial Correctness of Communicating Sequential Processes*
//! (1981): one crate that pulls together the whole stack —
//!
//! * the **language** of §1 (`csp-lang`): process equations over named
//!   channels, with a parser for the paper's notation;
//! * the **trace semantics** of §3 (`csp-semantics`): prefix-closed
//!   denotations, the fixpoint construction, and an agreeing operational
//!   semantics;
//! * the **assertion language** of §2 (`csp-assert`): channel-history
//!   predicates such as `f(wire) <= input`;
//! * the **proof system** of §2.1 (`csp-proof`): all ten rules, plus
//!   machine-checked scripts for every proof in the paper (including
//!   Table 1);
//! * the **model checker** (`csp-verify`): bounded `sat` checking with
//!   counterexamples, per-rule empirical soundness, proof/model
//!   cross-validation;
//! * the **runtime** (`csp-runtime`): networks executed on real threads
//!   with multi-party rendezvous, with conformance checking back against
//!   the semantics.
//!
//! The [`Workbench`] is the high-level entry point:
//!
//! ```
//! use csp_core::prelude::*;
//!
//! let mut wb = Workbench::new();
//! wb.define_source(
//!     "copier = input?x:NAT -> wire!x -> copier
//!      recopier = wire?y:NAT -> output!y -> recopier
//!      pipeline = chan wire; (copier || recopier)",
//! )?;
//! assert!(wb.check_sat("pipeline", "output <= input", 3)?.holds());
//! # Ok::<(), csp_core::WorkbenchError>(())
//! ```
//!
//! Every verification entry point reads the workbench through `&self`,
//! and a built workbench holds no interior mutability, so it is `Send +
//! Sync`: a long-lived service builds one per module and shares it
//! between threads behind an `Arc` (csp-serve does, keyed by the source
//! and its options).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod options;
mod session;
mod workbench;

pub use options::SatOptions;
pub use session::Session;
pub use workbench::{Workbench, WorkbenchError};

/// The observability substrate (re-exported from `csp-obs`): collectors,
/// spans, metrics snapshots, and the JSONL/folded-stacks sinks.
///
/// `csp_obs::Span` is deliberately *not* re-exported at the crate root —
/// there it would collide with the source-position [`csp_lang::Span`]
/// re-exported from `csp-lang`; reach it as `obs::Span`.
pub mod obs {
    pub use csp_obs::*;
}

/// The paper's example systems (re-exported from `csp-lang`).
pub mod examples {
    pub use csp_lang::examples::*;
}

/// Machine-checked proof scripts for every proof in the paper
/// (re-exported from `csp-proof`).
pub mod proofs {
    pub use csp_proof::scripts::*;
}

pub use csp_analysis::{
    max_severity, AnalysisDb, Confirmation, Diagnostic, LintCode, Linter, RevisionStats, Severity,
    ALL_CODES,
};
pub use csp_assert::{
    bounded_valid, decide_valid, parse_assertion, protocol_cancel, subst_chan_cons, subst_empty,
    subst_var, symbolic_valid, AssertError, Assertion, ChannelInfo, CmpOp, CompiledAssertion,
    DecideConfig, Decision, EvalCtx, FuncTable, STerm, Term,
};
pub use csp_lang::{
    channel_alphabet, parse_definitions, parse_definitions_spanned, parse_expr, parse_module,
    parse_process, BinOp, ChanRef, Definition, Definitions, Env, EvalError, Expr, MsgSet,
    ParseError, ParsedModule, Process, SetExpr, SourceMap, Span,
};
pub use csp_obs::{Collector, FieldValue, Metered, MetricsSnapshot, SpanRecord};
pub use csp_proof::{
    check, check_with, render_report, spec_goal, synthesize, CheckReport, Context, Discharge,
    Judgement, Obligation, Proof, ProofError, SynthError,
};
pub use csp_runtime::{
    causal_jsonl, check_conformance, chrome_causal_trace, flatten, msc, replay_budget, CausalError,
    CausalEvent, CausalEventKind, CausalLog, Component, ComponentFailure, ComponentSel,
    ConformanceReport, Executor, FailureReason, Fault, FaultError, FaultPlan, Monitor,
    MonitorReport, MonitorSpec, MonitorVerdict, MonitorViolation, Network, RestartPolicy, RunError,
    RunOptions, RunOutcome, RunResult, Scheduler, Supervision, VectorClock, ViolationKind,
};
pub use csp_semantics::{
    compare, fixpoint, fixpoint_with, CompiledLts, CompiledStep, Config, Discrepancy, Engine,
    FixpointRun, Lts, Semantics, StateId, StateSet, Step, Universe, CONCEALED_PER_DEPTH,
};
pub use csp_trace::{
    timeline, Channel, ChannelSet, Event, History, NaiveTraceSet, OpStats, Seq, Trace, TraceSet,
    TraceTree, Value,
};
pub use csp_verify::{
    cross_validate_scripts, fault_conformance, find_deadlocks, stop_choice_identity,
    validate_all_rules, CrossValidation, Deadlock, DeadlockReport, DegradedRun, FaultConfError,
    FaultConformance, FaultSweep, InstanceGen, RuleReport, SatChecker, SatResult,
};

/// Convenient glob-import surface: `use csp_core::prelude::*;`.
pub mod prelude {
    pub use crate::{
        Assertion, CausalLog, Channel, Collector, Definitions, Engine, Env, Event, FaultPlan,
        FaultSweep, Judgement, Metered, MetricsSnapshot, MonitorReport, MonitorSpec, Process,
        Proof, RestartPolicy, RunOptions, RunOutcome, SatOptions, SatResult, Scheduler, Session,
        Supervision, Trace, TraceSet, Universe, Value, VectorClock, Workbench, WorkbenchError,
    };
}
