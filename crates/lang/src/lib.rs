//! # csp-lang
//!
//! The programming notation of Zhou & Hoare (1981), *Partial Correctness
//! of Communicating Sequential Processes*, §1.
//!
//! The language is deliberately tiny (§0): no local variables, no
//! assignment, no sequential composition; loops are tail recursion through
//! process names. Its constructs (§1.2) are:
//!
//! | Construct | Concrete syntax | Meaning |
//! |---|---|---|
//! | `STOP` | `STOP` | never does anything |
//! | name / `q[e]` | `copier`, `q[x]`, `mult[i]` | recursion & arrays |
//! | output | `c!e -> P` | send value of `e` on `c`, then `P` |
//! | input | `c?x:M -> P` | receive any `x ∈ M` on `c`, then `P` |
//! | choice | `P \| Q` | behave like `P` or like `Q` |
//! | parallel | `P \|\| Q` | network, synchronising on common channels |
//! | hiding | `chan L; P` | make channels of `L` internal |
//!
//! This crate provides the abstract syntax ([`Process`], [`Expr`],
//! [`SetExpr`]), definition lists ([`Definitions`], supporting process
//! arrays `q[i:M] = …` and mutual recursion), evaluation environments
//! ([`Env`]), free-variable and channel-alphabet analysis, substitution,
//! a parser for the concrete syntax above, and a pretty-printer that
//! round-trips with the parser.
//!
//! ```
//! use csp_lang::parse_definitions;
//!
//! let defs = parse_definitions(
//!     "copier = input?x:NAT -> wire!x -> copier
//!      recopier = wire?y:NAT -> output!y -> recopier
//!      pipeline = chan wire; (copier || recopier)",
//! ).unwrap();
//! assert_eq!(defs.len(), 3);
//! assert!(defs.get("pipeline").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod defs;
mod env;
mod error;
mod expr;
mod free;
mod parser;
mod printer;
mod process;
mod setexpr;
mod span;
mod subst;

pub mod examples;

pub use defs::{Definition, Definitions};
pub use env::Env;
pub use error::{EvalError, LangError, ParseError};
pub use expr::{eval_bin, eval_un, BinOp, Expr, UnOp};
pub use free::{
    called_names, channel_alphabet, free_vars_expr, free_vars_process, output_channels,
};
pub use parser::{
    parse_definitions, parse_definitions_spanned, parse_expr, parse_module, parse_process,
    parse_process_spanned, parse_set_expr, ParsedModule,
};
pub use process::{ChanRef, Process};
pub use setexpr::{MsgSet, SetExpr};
pub use span::{DefSpans, SourceMap, Span, SpanTree};
pub use subst::{
    close_process, process_has_free, subst_expr, subst_expr_with, subst_process, subst_process_with,
};
