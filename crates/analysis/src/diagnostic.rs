//! Structured diagnostics with stable codes.
//!
//! Every finding the linter can produce has a stable [`LintCode`]
//! (`CSP001`–`CSP010`), a default [`Severity`], and a reference to the
//! paper clause whose side condition it enforces. Tools should key on the
//! code, never on the message text.

use std::fmt;

use csp_lang::Span;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but meaningful: the network has a denotation, it is
    /// just unlikely to be the intended one.
    Warning,
    /// The definitions violate an assumption the semantics or the proof
    /// rules rely on; downstream results are untrustworthy.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The stable identity of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// CSP001: call to a process name with no defining equation.
    UndefinedProcess,
    /// CSP002: call whose subscript count disagrees with the definition.
    ArityMismatch,
    /// CSP003: variable used without a binding input prefix, array
    /// parameter, or host-supplied environment entry.
    UnboundVariable,
    /// CSP004: a recursive call reachable without any communication.
    UnguardedRecursion,
    /// CSP005: an operand of `P ||{X | Y} Q` communicates on a channel
    /// outside its declared alphabet.
    AlphabetCoverage,
    /// CSP006: a channel's endpoint directions are ill-formed across a
    /// composition (two writers, two readers, or more than two sharers).
    DirectionRace,
    /// CSP007: `chan L; P` hides a channel `P` never communicates on.
    UselessHiding,
    /// CSP008: a `sat` assertion mentions a channel outside the process's
    /// alphabet.
    AssertionOutsideAlphabet,
    /// CSP009: a `sat` assertion mentions a channel the process hides.
    AssertionOnHiddenChannel,
    /// CSP010: a composition's initial offers cannot intersect, so it
    /// deadlocks immediately while the model still satisfies every `sat`.
    OfferMismatch,
}

/// All codes, in code order. Useful for documentation and tests.
pub const ALL_CODES: [LintCode; 10] = [
    LintCode::UndefinedProcess,
    LintCode::ArityMismatch,
    LintCode::UnboundVariable,
    LintCode::UnguardedRecursion,
    LintCode::AlphabetCoverage,
    LintCode::DirectionRace,
    LintCode::UselessHiding,
    LintCode::AssertionOutsideAlphabet,
    LintCode::AssertionOnHiddenChannel,
    LintCode::OfferMismatch,
];

impl LintCode {
    /// The stable `CSP0xx` identifier.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UndefinedProcess => "CSP001",
            LintCode::ArityMismatch => "CSP002",
            LintCode::UnboundVariable => "CSP003",
            LintCode::UnguardedRecursion => "CSP004",
            LintCode::AlphabetCoverage => "CSP005",
            LintCode::DirectionRace => "CSP006",
            LintCode::UselessHiding => "CSP007",
            LintCode::AssertionOutsideAlphabet => "CSP008",
            LintCode::AssertionOnHiddenChannel => "CSP009",
            LintCode::OfferMismatch => "CSP010",
        }
    }

    /// Short human title.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::UndefinedProcess => "undefined process",
            LintCode::ArityMismatch => "arity mismatch",
            LintCode::UnboundVariable => "unbound variable",
            LintCode::UnguardedRecursion => "unguarded recursion",
            LintCode::AlphabetCoverage => "operand outside declared alphabet",
            LintCode::DirectionRace => "channel direction race",
            LintCode::UselessHiding => "hiding an unused channel",
            LintCode::AssertionOutsideAlphabet => "assertion outside alphabet",
            LintCode::AssertionOnHiddenChannel => "assertion on hidden channel",
            LintCode::OfferMismatch => "initial offers cannot intersect",
        }
    }

    /// The paper clause whose side condition the code enforces.
    pub fn paper_clause(self) -> &'static str {
        match self {
            LintCode::UndefinedProcess => "§1.2(3): process names denote defining equations",
            LintCode::ArityMismatch => "§1.2(3): q[e] requires q[x:M] = ...",
            LintCode::UnboundVariable => "§1.2: all variables are bound by ? or a subscript",
            LintCode::UnguardedRecursion => "§2.1 rule 8: recursion must be guarded to be sound",
            LintCode::AlphabetCoverage => {
                "§2.1 rule 7 premise: P communicates only on channels in X"
            }
            LintCode::DirectionRace => "§1.2(7): each channel connects at most two processes",
            LintCode::UselessHiding => "§2.1 rule 9 premise: hidden channels occur in the body",
            LintCode::AssertionOutsideAlphabet => {
                "§2.2: ch(s) ranges over the process's own channels"
            }
            LintCode::AssertionOnHiddenChannel => {
                "§2.1 rule 9: the conclusion must not mention hidden channels"
            }
            LintCode::OfferMismatch => "§4: STOP | P = P — the model cannot see deadlock",
        }
    }

    /// The severity this code carries unless a caller overrides it.
    pub fn default_severity(self) -> Severity {
        match self {
            LintCode::UndefinedProcess
            | LintCode::ArityMismatch
            | LintCode::UnboundVariable
            | LintCode::AlphabetCoverage
            | LintCode::AssertionOnHiddenChannel => Severity::Error,
            LintCode::UnguardedRecursion
            | LintCode::DirectionRace
            | LintCode::UselessHiding
            | LintCode::AssertionOutsideAlphabet
            | LintCode::OfferMismatch => Severity::Warning,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// How a heuristic finding was vetted against a stronger analysis.
///
/// CSP010 (offer mismatch) is syntactic; the Workbench cross-checks it
/// against the bounded LTS deadlock search and records the outcome here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Confirmation {
    /// A bounded semantic search reproduced the finding; `witness` is a
    /// rendering of the trace leading to the stuck state.
    Confirmed {
        /// The witness trace, e.g. `⟨wire.0⟩`.
        witness: String,
    },
    /// The finding rests on the syntactic heuristic alone — the bounded
    /// search could not reproduce it (or could not run).
    Heuristic,
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: LintCode,
    /// Severity (defaults to the code's, but the proof checker may
    /// escalate).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The definition the finding is in, when attributable.
    pub def: Option<String>,
    /// Source location, when the definitions were parsed with spans.
    pub span: Option<Span>,
    /// Semantic vetting status, for heuristic codes the host re-checked.
    pub confirmation: Option<Confirmation>,
}

impl Diagnostic {
    /// A finding with the code's default severity and no location.
    pub fn new(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            def: None,
            span: None,
            confirmation: None,
        }
    }

    /// Attributes the finding to a definition.
    pub fn in_def(mut self, def: &str) -> Self {
        self.def = Some(def.to_string());
        self
    }

    /// Attaches a source location (ignored when `span` is the unknown
    /// span, so programmatically built syntax stays location-free).
    pub fn at(mut self, span: Option<Span>) -> Self {
        self.span = span.filter(|s| !s.is_unknown());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity, self.code.code())?;
        if let Some(sp) = &self.span {
            write!(f, " at {sp}")?;
        }
        if let Some(def) = &self.def {
            write!(f, " in `{def}`")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The worst severity present, if any.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = ALL_CODES.iter().map(|c| c.code()).collect();
        assert_eq!(codes[0], "CSP001");
        assert_eq!(codes[9], "CSP010");
        let mut dedup = codes.clone();
        dedup.dedup();
        assert_eq!(codes, dedup);
        for c in ALL_CODES {
            assert!(c.paper_clause().contains('§'));
            assert!(!c.title().is_empty());
        }
    }

    #[test]
    fn display_carries_code_location_and_def() {
        let d = Diagnostic::new(
            LintCode::UndefinedProcess,
            "call to undefined process `ghost`",
        )
        .in_def("p")
        .at(Some(Span::new(4, 5, 1, 5)));
        let s = d.to_string();
        assert!(s.contains("error [CSP001] at 1:5 in `p`"), "{s}");
        assert!(s.contains("ghost"));
    }

    #[test]
    fn unknown_spans_are_dropped() {
        let d = Diagnostic::new(LintCode::UselessHiding, "m").at(Some(Span::default()));
        assert!(d.span.is_none());
        assert!(!d.to_string().contains("?:?"));
    }

    #[test]
    fn max_severity_prefers_errors() {
        let w = Diagnostic::new(LintCode::UselessHiding, "w");
        let e = Diagnostic::new(LintCode::UndefinedProcess, "e");
        assert_eq!(max_severity(&[]), None);
        assert_eq!(
            max_severity(std::slice::from_ref(&w)),
            Some(Severity::Warning)
        );
        assert_eq!(max_severity(&[w, e]), Some(Severity::Error));
    }
}
