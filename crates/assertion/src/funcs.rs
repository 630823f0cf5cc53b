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
//! function is pre-registered as `"f"` in [`FuncTable::with_builtins`].

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
    funcs: BTreeMap<String, SeqFn>,
}

impl FuncTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table with the paper's built-ins registered: the protocol
    /// cancellation function `f`.
    pub fn with_builtins() -> Self {
        let mut t = FuncTable::new();
        t.register("f", Arc::new(|s: &Seq<Value>| protocol_cancel(s)));
        t
    }

    /// Registers (or replaces) a function under `name`.
    pub fn register(&mut self, name: &str, f: SeqFn) {
        self.funcs.insert(name.to_string(), f);
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&SeqFn> {
        self.funcs.get(name)
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
        if matches!(x.as_sym(), Some("ACK" | "NACK")) {
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
