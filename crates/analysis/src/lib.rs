//! # csp-analysis
//!
//! Static analysis for the CSP notation of Zhou & Hoare (1981): a
//! multi-pass linter that checks, *before* proof checking or execution,
//! the side conditions the paper's proof rules (§2.1) and model (§1.2,
//! §4) assume:
//!
//! | Code | Checks | Paper clause |
//! |---|---|---|
//! | `CSP001` | calls name a defining equation | §1.2(3) |
//! | `CSP002` | call arity matches the equation | §1.2(3) |
//! | `CSP003` | every variable is bound | §1.2 |
//! | `CSP004` | recursion is guarded, through call graphs | §2.1 rule 8 |
//! | `CSP005` | operands stay inside declared `‖` alphabets | §2.1 rule 7 premise |
//! | `CSP006` | channels connect ≤ 2 processes, directions coherent | §1.2(7) |
//! | `CSP007` | `chan L; P` hides only channels `P` uses | §2.1 rule 9 premise |
//! | `CSP008` | `sat` assertions stay inside the alphabet | §2.2 |
//! | `CSP009` | `sat` assertions avoid hidden channels | §2.1 rule 9 |
//! | `CSP010` | initial offers of a composition can intersect | §4 |
//!
//! Diagnostics carry stable codes, severities, and — when the
//! definitions come from
//! [`parse_definitions_spanned`](csp_lang::parse_definitions_spanned) —
//! byte-accurate source spans.
//!
//! ```
//! use csp_analysis::{Linter, Severity};
//! use csp_lang::parse_definitions_spanned;
//!
//! let (defs, spans) = parse_definitions_spanned(
//!     "deaf = chan wire; (a!1 -> STOP || b?x:NAT -> STOP)",
//! ).unwrap();
//! let diags = Linter::new(&defs).with_spans(&spans).run();
//! // wire is hidden but unused (CSP007); a and b never meet is fine —
//! // they are private to each side, so no CSP010.
//! assert!(diags.iter().any(|d| d.code.code() == "CSP007"));
//! assert!(diags.iter().all(|d| d.severity == Severity::Warning));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod diagnostic;
mod linter;
mod passes;
mod walk;

pub use db::{content_hash, AnalysisDb, RevisionStats};
pub use diagnostic::{max_severity, Confirmation, Diagnostic, LintCode, Severity, ALL_CODES};
pub use linter::Linter;
pub use passes::scope::hidden_channels;
pub use walk::{initial_offers, Offer};
