//! Error types for parsing and evaluation.

use std::fmt;

use crate::Span;

/// An error produced while parsing the concrete syntax.
///
/// Carries the full [`Span`] of the offending token (byte offset +
/// length and 1-based line/column) so callers can point at — or
/// underline — the exact source region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
    span: Span,
}

impl ParseError {
    pub(crate) fn at(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            message: message.into(),
            span,
        }
    }

    /// Human-readable description of what went wrong.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source region of the offending token.
    pub fn span(&self) -> Span {
        self.span
    }

    /// 1-based line of the offending token.
    pub fn line(&self) -> usize {
        self.span.line
    }

    /// 1-based column of the offending token.
    pub fn column(&self) -> usize {
        self.span.column
    }

    /// The same error relocated by a byte and line delta (see
    /// [`Span::shifted`]), used when splicing a fragment parse back into
    /// whole-file coordinates.
    pub fn shifted(&self, bytes: isize, lines: isize) -> ParseError {
        ParseError {
            message: self.message.clone(),
            span: self.span.shifted(bytes, lines),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An error produced while evaluating an expression or set expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no value in the environment.
    UnboundVariable(String),
    /// An operator was applied to operands of the wrong kind, e.g. `ACK + 1`.
    TypeMismatch {
        /// What was being evaluated.
        context: String,
    },
    /// Division or modulus by zero.
    DivisionByZero,
    /// An integer operation whose result lies outside `i64`, e.g.
    /// `i64::MIN / -1`.
    Overflow {
        /// The operator applied.
        context: String,
    },
    /// A set was required to be finite (for enumeration) but was `NAT`
    /// without a universe bound.
    UnboundedSet(String),
    /// A subscripted reference evaluated to a non-integer subscript.
    BadSubscript {
        /// The array name being subscripted.
        name: String,
    },
    /// A value fell outside the set it was required to belong to, e.g.
    /// calling `q[e]` where the value of `e` is not in `M` (§1.2(3)).
    NotInSet {
        /// Rendering of the offending value.
        value: String,
        /// Rendering of the set.
        set: String,
    },
    /// Reference to a process name with no defining equation.
    UndefinedProcess(String),
    /// A process name was called with the wrong number of subscripts.
    ArityMismatch {
        /// The process name.
        name: String,
        /// Number of subscripts at the call site.
        got: usize,
        /// Number of parameters in the definition.
        expected: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            EvalError::TypeMismatch { context } => write!(f, "type mismatch in {context}"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::Overflow { context } => write!(f, "integer overflow in {context}"),
            EvalError::UnboundedSet(s) => {
                write!(f, "set `{s}` is unbounded; supply a finite universe")
            }
            EvalError::BadSubscript { name } => {
                write!(f, "subscript of `{name}` is not an integer")
            }
            EvalError::NotInSet { value, set } => {
                write!(f, "value {value} is not in set {set}")
            }
            EvalError::UndefinedProcess(p) => write!(f, "undefined process name `{p}`"),
            EvalError::ArityMismatch {
                name,
                got,
                expected,
            } => write!(
                f,
                "process `{name}` applied to {got} subscript(s), definition has {expected}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Umbrella error for operations that may fail either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// A parse failure.
    Parse(ParseError),
    /// An evaluation failure.
    Eval(EvalError),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse(e) => e.fmt(f),
            LangError::Eval(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LangError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LangError::Parse(e) => Some(e),
            LangError::Eval(e) => Some(e),
        }
    }
}

impl From<ParseError> for LangError {
    fn from(e: ParseError) -> Self {
        LangError::Parse(e)
    }
}

impl From<EvalError> for LangError {
    fn from(e: EvalError) -> Self {
        LangError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_are_lowercase_and_concise() {
        let e = EvalError::UnboundVariable("x".into());
        assert_eq!(e.to_string(), "unbound variable `x`");
        let p = ParseError::at("expected `->`", Span::point(2, 7));
        assert_eq!(p.to_string(), "parse error at 2:7: expected `->`");
        let a = EvalError::ArityMismatch {
            name: "q".into(),
            got: 2,
            expected: 1,
        };
        assert!(a.to_string().contains("q"));
    }

    #[test]
    fn lang_error_wraps_both() {
        let e: LangError = ParseError::at("x", Span::point(1, 1)).into();
        assert!(matches!(e, LangError::Parse(_)));
        let e: LangError = EvalError::DivisionByZero.into();
        assert!(matches!(e, LangError::Eval(_)));
        // Error source chains are present.
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
