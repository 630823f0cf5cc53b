//! Named sequence functions.
//!
//! §2.2 introduces `f : (M ∪ {ACK, NACK})* → M*`, "obtained from `s` by
//! cancelling all occurrences of ACK, and all consecutive pairs
//! ⟨x, NACK⟩", with the defining equations
//!
//! ```text
//! f(<>)            = <>
//! f(<x>)           = <x>
//! f(x^ACK^s)       = x^f(s)
//! f(x^NACK^s)      = f(s)
//! ```
//!
//! A [`FuncTable`] maps function names to implementations so assertions
//! like `f(wire) ≤ input` can be evaluated; the protocol cancellation
//! function is pre-registered as `"f"` in [`FuncTable::with_builtins`],
//! together with those four equations as [`Equation`] data, which the
//! symbolic stage of [`decide_valid`](crate::decide_valid) rewrites by.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use csp_trace::{Seq, Value};

/// A pure function from message sequences to message sequences.
pub type SeqFn = Arc<dyn Fn(&Seq<Value>) -> Seq<Value> + Send + Sync>;

/// A registry of named sequence functions usable in assertions.
///
/// # Examples
///
/// ```
/// use csp_assert::FuncTable;
/// use csp_trace::{Seq, Value};
///
/// let funcs = FuncTable::with_builtins();
/// let wire: Seq<Value> = [
///     Value::nat(1), Value::sym("NACK"),
///     Value::nat(1), Value::sym("ACK"),
/// ].into_iter().collect();
/// let f = funcs.get("f").unwrap();
/// assert_eq!(f(&wire).to_string(), "<1>");
/// ```
#[derive(Clone, Default)]
pub struct FuncTable {
    funcs: BTreeMap<String, (SeqFn, &'static [Equation])>,
}

impl FuncTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table with the paper's built-ins registered: the protocol
    /// cancellation function `f`, with its defining equations.
    pub fn with_builtins() -> Self {
        let mut t = FuncTable::new();
        t.funcs.insert(
            "f".to_string(),
            (Arc::new(|s: &Seq<Value>| protocol_cancel(s)), &F_EQUATIONS),
        );
        t
    }

    /// Registers (or replaces) a function under `name`. It comes with no
    /// equations, so the symbolic stage treats its applications as
    /// opaque, even under the name `f`.
    pub fn register(&mut self, name: &str, f: SeqFn) {
        self.funcs.insert(name.to_string(), (f, &[]));
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&SeqFn> {
        self.funcs.get(name).map(|(f, _)| f)
    }

    /// The equations declared with `name`; none for an unknown name or a
    /// function added by [`register`](Self::register).
    pub fn equations(&self, name: &str) -> &'static [Equation] {
        self.funcs.get(name).map_or(&[], |(_, eqs)| eqs)
    }

    /// True if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.funcs.keys().map(String::as_str)
    }
}

impl fmt::Debug for FuncTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FuncTable")
            .field("names", &self.funcs.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// What an argument head must be for an [`Equation`] to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Any value.
    Any,
    /// A message: any value but the signals `ACK` and `NACK`.
    Message,
    /// Exactly this signal.
    Signal(&'static str),
}

/// One declared equation of a sequence function `g`, read left to right:
/// `g(x₁^…^xₙ^s) = y₁^…^yₖ^g(s)` when `open`, and
/// `g(<x₁, …, xₙ>) = <y₁, …, yₖ>` when not, where each `xᵢ` matches
/// `heads[i]` and the `y`s are the heads numbered by `keep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Equation {
    /// The argument's leading elements.
    pub heads: &'static [Pattern],
    /// True if the argument continues past `heads` (`…^s`), false if it
    /// ends there.
    pub open: bool,
    /// The matched heads the result starts with, by position.
    pub keep: &'static [usize],
}

impl Equation {
    /// Both sides of this equation for `g`, instantiated at the argument
    /// heads `xs` and rest `s` (ignored when the equation is closed):
    /// `(g(lhs), rhs)`, which agree if the equation holds there. `None`
    /// if `xs` does not match the patterns.
    pub fn sides(
        &self,
        g: &SeqFn,
        xs: &[Value],
        s: &Seq<Value>,
    ) -> Option<(Seq<Value>, Seq<Value>)> {
        if xs.len() != self.heads.len() || !self.heads.iter().zip(xs).all(|(p, x)| p.matches(x)) {
            return None;
        }
        let rest = if self.open { s.clone() } else { Seq::empty() };
        let mut arg = rest.clone();
        for x in xs.iter().rev() {
            arg = arg.cons(x.clone());
        }
        let mut rhs = if self.open { g(&rest) } else { Seq::empty() };
        for &i in self.keep.iter().rev() {
            rhs = rhs.cons(xs[i].clone());
        }
        Some((g(&arg), rhs))
    }
}

impl Pattern {
    /// True if `v` is a head this pattern admits.
    fn matches(self, v: &Value) -> bool {
        match self {
            Pattern::Any => true,
            Pattern::Message => !is_signal(v),
            Pattern::Signal(s) => v.as_sym() == Some(s),
        }
    }
}

/// True for the protocol's signals `ACK` and `NACK`.
pub(crate) fn is_signal(v: &Value) -> bool {
    matches!(v.as_sym(), Some("ACK" | "NACK"))
}

/// The equations §2.2 gives `f`. The message-only ones need their `x`
/// to be a message: for `x = NACK`, [`protocol_cancel`] gives
/// `f(NACK^ACK^s) = f(s)`, not `NACK^f(s)`.
const F_EQUATIONS: [Equation; 4] = [
    // f(<>) = <>
    Equation {
        heads: &[],
        open: false,
        keep: &[],
    },
    // f(<x>) = <x>, x a message
    Equation {
        heads: &[Pattern::Message],
        open: false,
        keep: &[0],
    },
    // f(x^ACK^s) = x^f(s), x a message
    Equation {
        heads: &[Pattern::Message, Pattern::Signal("ACK")],
        open: true,
        keep: &[0],
    },
    // f(x^NACK^s) = f(s), every x
    Equation {
        heads: &[Pattern::Any, Pattern::Signal("NACK")],
        open: true,
        keep: &[],
    },
];

/// The paper's `f`: cancel every `ACK` and every consecutive pair
/// `⟨x, NACK⟩`; the surviving elements are the successfully delivered
/// messages in transmission order.
///
/// # Examples
///
/// ```
/// use csp_assert::protocol_cancel;
/// use csp_trace::{Seq, Value};
///
/// // f(<x, NACK, y, ACK>) = <y>  — the paper's worked example.
/// let s: Seq<Value> = [
///     Value::sym("x"), Value::sym("NACK"),
///     Value::sym("y"), Value::sym("ACK"),
/// ].into_iter().collect();
/// assert_eq!(protocol_cancel(&s).to_string(), "<y>");
/// ```
pub fn protocol_cancel(s: &Seq<Value>) -> Seq<Value> {
    let mut out = Vec::new();
    let mut it = s.iter().peekable();
    while let Some(x) = it.next() {
        if is_signal(x) {
            // A bare signal (no preceding message at this position):
            // cancelled. For ACK this is the paper's "cancel all
            // occurrences"; a bare NACK cannot arise from the protocol.
            continue;
        }
        match it.peek().and_then(|next| next.as_sym()) {
            Some("NACK") => {
                // Consecutive pair <x, NACK>: both cancelled.
                it.next();
            }
            Some("ACK") => {
                // f(x^ACK^s) = x^f(s): the message was delivered.
                out.push(x.clone());
                it.next();
            }
            _ => {
                // f(<x>) = <x>: trailing unacknowledged message counts as
                // transmitted (the receiver saw it).
                out.push(x.clone());
            }
        }
    }
    Seq::from_vec(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(names: &[&str]) -> Seq<Value> {
        names.iter().map(|n| Value::sym(n)).collect()
    }

    #[test]
    fn defining_equations_of_f() {
        // f(<>) = <>
        assert!(protocol_cancel(&Seq::empty()).is_empty());
        // f(<x>) = <x>
        assert_eq!(protocol_cancel(&seq(&["x"])), seq(&["x"]));
        // f(x^ACK^s) = x^f(s)
        assert_eq!(protocol_cancel(&seq(&["x", "ACK", "y"])), seq(&["x", "y"]));
        // f(x^NACK^s) = f(s)
        assert_eq!(protocol_cancel(&seq(&["x", "NACK", "y"])), seq(&["y"]));
    }

    #[test]
    fn paper_worked_example() {
        assert_eq!(
            protocol_cancel(&seq(&["x", "NACK", "y", "ACK"])),
            seq(&["y"])
        );
    }

    #[test]
    fn repeated_retransmission_collapses() {
        // x NACK x NACK x ACK → <x>
        assert_eq!(
            protocol_cancel(&seq(&["x", "NACK", "x", "NACK", "x", "ACK"])),
            seq(&["x"])
        );
    }

    #[test]
    fn bare_signals_are_cancelled() {
        assert!(protocol_cancel(&seq(&["ACK"])).is_empty());
        assert!(protocol_cancel(&seq(&["ACK", "ACK"])).is_empty());
    }

    #[test]
    fn numbers_as_messages() {
        let s: Seq<Value> = [
            Value::nat(3),
            Value::sym("ACK"),
            Value::nat(7),
            Value::sym("NACK"),
            Value::nat(7),
        ]
        .into_iter()
        .collect();
        let out = protocol_cancel(&s);
        assert_eq!(out.to_string(), "<3, 7>");
    }

    #[test]
    fn table_registration_and_lookup() {
        let mut t = FuncTable::new();
        assert!(!t.contains("rev"));
        t.register(
            "rev",
            Arc::new(|s: &Seq<Value>| s.iter().cloned().rev().collect()),
        );
        let rev = t.get("rev").unwrap();
        let s: Seq<Value> = [Value::nat(1), Value::nat(2)].into_iter().collect();
        assert_eq!(rev(&s).to_string(), "<2, 1>");
        assert_eq!(t.names().collect::<Vec<_>>(), vec!["rev"]);
    }

    #[test]
    fn builtins_include_f() {
        assert!(FuncTable::with_builtins().contains("f"));
        assert_eq!(FuncTable::with_builtins().equations("f").len(), 4);
    }

    #[test]
    fn registered_functions_declare_no_equations() {
        let mut t = FuncTable::with_builtins();
        t.register("f", Arc::new(|s: &Seq<Value>| s.clone()));
        assert!(t.equations("f").is_empty());
        assert!(t.equations("ghost").is_empty());
    }

    #[test]
    fn message_equations_reject_signal_heads() {
        let t = FuncTable::with_builtins();
        let f = t.get("f").unwrap();
        let ack_cons = &t.equations("f")[2];
        let s = seq(&["y"]);
        assert!(ack_cons
            .sides(f, seq(&["NACK", "ACK"]).as_slice(), &s)
            .is_none());
        let (lhs, rhs) = ack_cons
            .sides(f, seq(&["x", "ACK"]).as_slice(), &s)
            .unwrap();
        assert_eq!((lhs.clone(), rhs), (seq(&["x", "y"]), seq(&["x", "y"])));
        // f(NACK^ACK^s) = f(s): the message-only equation would be wrong.
        assert_eq!(protocol_cancel(&seq(&["NACK", "ACK", "y"])), seq(&["y"]));
    }

    #[test]
    fn f_prefix_monotonicity_on_protocol_shaped_traces() {
        // The sender proof relies on f being compatible with extension at
        // message boundaries: f(s) ≤ f(s ++ <x, ACK>).
        let s = seq(&["a", "NACK", "a", "ACK"]);
        let t = seq(&["a", "NACK", "a", "ACK", "b", "ACK"]);
        let fs = protocol_cancel(&s);
        let ft = protocol_cancel(&t);
        assert!(fs.is_prefix_of(&ft));
    }
}
