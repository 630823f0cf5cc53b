//! Evaluation environments.
//!
//! §3.2: the semantic functions are parameterised by an *environment*
//! mapping free variables to values. [`Env`] is the value-variable part of
//! the paper's ρ; channel histories (`ch(s)`) and process meanings are
//! layered on top by the `csp-assert` and `csp-semantics` crates
//! respectively.

use std::collections::BTreeMap;
use std::fmt;

use csp_trace::Value;

/// A finite map from variable names to [`Value`]s.
///
/// Environments are small (the paper's programs bind a handful of
/// variables), so cloning on extension (`ρ[v/x]`) is cheap and keeps the
/// API purely functional, matching the semantic equations.
///
/// # Examples
///
/// ```
/// use csp_lang::Env;
/// use csp_trace::Value;
///
/// let rho = Env::new().bind("x", Value::nat(3));
/// assert_eq!(rho.lookup("x"), Some(&Value::nat(3)));
/// assert_eq!(rho.lookup("y"), None);
/// // ρ[v/x] shadows:
/// let rho2 = rho.bind("x", Value::nat(4));
/// assert_eq!(rho2.lookup("x"), Some(&Value::nat(4)));
/// assert_eq!(rho.lookup("x"), Some(&Value::nat(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Env {
    bindings: BTreeMap<String, Value>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ρ[v/x]` — the environment identical to `self` except that `x`
    /// maps to `v`.
    pub fn bind(&self, x: &str, v: Value) -> Env {
        let mut bindings = self.bindings.clone();
        bindings.insert(x.to_string(), v);
        Env { bindings }
    }

    /// In-place binding, for builders and loops. Rebinding a bound
    /// variable reuses its entry.
    pub fn bind_mut(&mut self, x: &str, v: Value) {
        match self.bindings.get_mut(x) {
            Some(slot) => *slot = v,
            None => {
                self.bindings.insert(x.to_string(), v);
            }
        }
    }

    /// In-place removal of `x`'s binding, returning its value: undoes a
    /// [`bind_mut`](Self::bind_mut) of a variable that was unbound.
    pub fn unbind(&mut self, x: &str) -> Option<Value> {
        self.bindings.remove(x)
    }

    /// The value of variable `x`, if bound.
    pub fn lookup(&self, x: &str) -> Option<&Value> {
        self.bindings.get(x)
    }

    /// True if `x` is bound.
    pub fn contains(&self, x: &str) -> bool {
        self.bindings.contains_key(x)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no variables are bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over `(name, value)` pairs in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Value)> for Env {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Env {
            bindings: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k} = {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_is_persistent() {
        let e0 = Env::new();
        let e1 = e0.bind("x", Value::nat(1));
        let e2 = e1.bind("y", Value::nat(2));
        assert!(e0.is_empty());
        assert_eq!(e1.len(), 1);
        assert_eq!(e2.len(), 2);
        assert_eq!(e2.lookup("x"), Some(&Value::nat(1)));
    }

    #[test]
    fn shadowing_takes_latest() {
        let e = Env::new().bind("x", Value::nat(1)).bind("x", Value::nat(9));
        assert_eq!(e.lookup("x"), Some(&Value::nat(9)));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn display_and_iteration_sorted() {
        let e = Env::new().bind("b", Value::nat(2)).bind("a", Value::nat(1));
        assert_eq!(e.to_string(), "{a = 1, b = 2}");
        let names: Vec<&str> = e.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn from_iterator() {
        let e: Env = vec![("x".to_string(), Value::nat(1))].into_iter().collect();
        assert!(e.contains("x"));
    }
}
