//! # csp-assert
//!
//! The assertion language of Zhou & Hoare (1981) §2: predicates whose
//! free channel names denote the sequences of values communicated so far.
//!
//! * [`Assertion`], [`Term`], [`STerm`] — the abstract syntax, covering
//!   everything the paper uses: the prefix order `s ≤ t`, cons `x^s`,
//!   length `#s`, 1-based indexing `s_i`, named sequence functions such
//!   as the protocol's `f`, connectives, and bounded quantifiers;
//! * [`parse_assertion`] — a parser for the concrete syntax
//!   (`"f(wire) <= x^input"`);
//! * [`EvalCtx`] — evaluation in `(ρ + ch(s))`, §3.3;
//! * [`subst_empty`], [`subst_chan_cons`], [`subst_var`] — the
//!   substitutions `R_<>`, `R^c_{e^c}`, `R^x_e` that the inference rules
//!   of §2.1 are built from;
//! * [`decide_valid`] — a validity oracle for pure premises, combining a
//!   syntactic prover for the laws the paper's proofs use with a bounded
//!   exhaustive checker;
//! * [`FuncTable`]/[`protocol_cancel`] — the paper's cancellation
//!   function `f` and a registry for user functions.
//!
//! ```
//! use csp_assert::{parse_assertion, ChannelInfo, EvalCtx, FuncTable};
//! use csp_lang::Env;
//! use csp_semantics::Universe;
//! use csp_trace::{Trace, Value};
//!
//! let info = ChannelInfo::new().with_channels(["wire", "input"]);
//! let r = parse_assertion("wire <= input", &info).unwrap();
//! let t = Trace::parse_like([("input", Value::nat(3)), ("wire", Value::nat(3))]);
//! let (env, h) = (Env::new(), t.history());
//! let (funcs, uni) = (FuncTable::with_builtins(), Universe::small());
//! assert!(EvalCtx::new(&env, &h, &funcs, &uni).assertion(&r).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod decide;
mod eval;
mod funcs;
mod parser;
mod subst;

pub use ast::{Assertion, CmpOp, STerm, Term};
pub use decide::{decide_valid, free_vars, syntactic_valid, DecideConfig, Decision};
pub use eval::{AssertError, EvalCtx};
pub use funcs::{protocol_cancel, FuncTable, SeqFn};
pub use parser::{parse_assertion, AssertParseError, ChannelInfo};
pub use subst::{subst_chan_cons, subst_empty, subst_var};
