//! Process expressions — §1.2 of the paper.

use std::fmt;
use std::sync::Arc;

use csp_trace::{Channel, Value};

use crate::{Env, EvalError, Expr, SetExpr, Span};

/// A syntactic reference to a channel, possibly with symbolic subscripts:
/// `wire`, `col[i-1]`, `row[i]`.
///
/// Evaluating the subscripts in an environment yields a concrete
/// [`Channel`].
///
/// # Examples
///
/// ```
/// use csp_lang::{ChanRef, Env, Expr};
/// use csp_trace::{Channel, Value};
///
/// let c = ChanRef::indexed("col", Expr::var("i").sub(Expr::int(1)));
/// let env = Env::new().bind("i", Value::Int(2));
/// assert_eq!(c.resolve(&env).unwrap(), Channel::indexed("col", 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChanRef {
    /// The array (or plain) channel name.
    base: String,
    /// Subscript expressions; empty for a plain channel.
    indices: Vec<Expr>,
}

impl ChanRef {
    /// An unsubscripted channel reference.
    pub fn simple(base: &str) -> Self {
        ChanRef {
            base: base.to_string(),
            indices: Vec::new(),
        }
    }

    /// A singly-subscripted channel reference `base[index]`.
    pub fn indexed(base: &str, index: Expr) -> Self {
        ChanRef {
            base: base.to_string(),
            indices: vec![index],
        }
    }

    /// A channel reference with an arbitrary subscript path.
    pub fn with_indices(base: &str, indices: Vec<Expr>) -> Self {
        ChanRef {
            base: base.to_string(),
            indices,
        }
    }

    /// The array (or plain) name.
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The subscript expressions.
    pub fn indices(&self) -> &[Expr] {
        &self.indices
    }

    /// Evaluates the subscripts to obtain a concrete channel.
    ///
    /// # Errors
    ///
    /// Fails if a subscript expression fails to evaluate or is not an
    /// integer.
    pub fn resolve(&self, env: &Env) -> Result<Channel, EvalError> {
        self.resolve_with(&|x| env.lookup(x).cloned())
    }

    /// [`resolve`](Self::resolve) with names read through `lookup`, as
    /// [`Expr::eval_with`] reads them.
    ///
    /// # Errors
    ///
    /// As for [`resolve`](Self::resolve).
    pub fn resolve_with<F: Fn(&str) -> Option<Value>>(
        &self,
        lookup: &F,
    ) -> Result<Channel, EvalError> {
        let mut idx = Vec::with_capacity(self.indices.len());
        for e in &self.indices {
            let v = e.eval_with(lookup)?;
            let i = v.as_int().ok_or_else(|| EvalError::BadSubscript {
                name: self.base.clone(),
            })?;
            idx.push(i);
        }
        Ok(Channel::with_indices(&self.base, idx))
    }
}

impl From<&str> for ChanRef {
    fn from(base: &str) -> Self {
        ChanRef::simple(base)
    }
}

impl fmt::Display for ChanRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for e in &self.indices {
            write!(f, "[{e}]")?;
        }
        Ok(())
    }
}

/// A process expression (§1.2).
///
/// Recursion is expressed exclusively through [`Process::Call`] to a name
/// defined in a [`Definitions`](crate::Definitions) list, exactly as in
/// the paper — so the syntax tree itself is acyclic. Subterms are held in
/// [`Arc`] so that the operational semantics can rebuild the stationary
/// parts of a network term (the unchanged side of a `||`, the body of a
/// `chan L; …`) by reference-count bumps instead of deep copies; terms
/// are immutable after construction, which keeps the sharing sound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Process {
    /// `STOP` — the process that never does anything (§1.2(1)).
    Stop,
    /// A (possibly subscripted) process-name reference: `copier`, `q[x]`,
    /// `mult[i]` (§1.2(2)–(3)).
    Call {
        /// The process or process-array name.
        name: String,
        /// Subscript expressions; empty for a plain name.
        args: Vec<Expr>,
    },
    /// `c!e -> P` — transmit the value of `e` on `c`, then behave like `P`
    /// (§1.2(4)).
    Output {
        /// The channel to send on.
        chan: ChanRef,
        /// The message expression.
        msg: Expr,
        /// The continuation.
        then: Arc<Process>,
    },
    /// `c?x:M -> P` — communicate any value of `M` on `c`, binding it to
    /// `x` in `P` (§1.2(5)).
    Input {
        /// The channel to receive on.
        chan: ChanRef,
        /// The bound variable naming the received value.
        var: String,
        /// The set of acceptable messages.
        set: SetExpr,
        /// The continuation, in which `var` is bound.
        then: Arc<Process>,
    },
    /// `P | Q` — behave like `P` or like `Q`; the choice may be regarded
    /// as non-deterministic (§1.2(6)).
    Choice(Arc<Process>, Arc<Process>),
    /// `P || Q` — a network of `P` and `Q` connected by their common
    /// channels (§1.2(7)). The alphabets `X` and `Y` default to the sets of
    /// channel names occurring in each operand (the paper's convention when
    /// "the content of the sets X and Y are clear from the context") but may
    /// be given explicitly for open networks.
    Parallel {
        /// Left operand.
        left: Arc<Process>,
        /// Right operand.
        right: Arc<Process>,
        /// Explicit alphabet of the left operand (base channel names);
        /// `None` means "infer from the text of the operand".
        left_alpha: Option<Vec<ChanRef>>,
        /// Explicit alphabet of the right operand.
        right_alpha: Option<Vec<ChanRef>>,
    },
    /// `chan L; P` — conceal communications on the channels of `L`
    /// (§1.2(8)).
    Hide {
        /// The concealed channels. A reference with unresolved subscripts
        /// conceals the whole family, e.g. `col[0..3]` is expanded by the
        /// parser to the individual elements when bounds are constant.
        channels: Vec<ChanRef>,
        /// The network whose internal channels are concealed.
        body: Arc<Process>,
    },
    /// A hole left by error recovery: the recovering parser
    /// ([`parse_module`](crate::parse_module)) could not parse this
    /// region and resynchronised at the next definition boundary. The
    /// span covers the offending token. Semantically inert (behaves like
    /// `STOP`), so the rest of the module still parses, lints, and
    /// resolves names against it.
    Error(Span),
}

impl Process {
    /// A plain name reference.
    pub fn call(name: &str) -> Process {
        Process::Call {
            name: name.to_string(),
            args: Vec::new(),
        }
    }

    /// A subscripted name reference `name[arg]`.
    pub fn call1(name: &str, arg: Expr) -> Process {
        Process::Call {
            name: name.to_string(),
            args: vec![arg],
        }
    }

    /// `chan!msg -> self` builder.
    pub fn output(chan: impl Into<ChanRef>, msg: Expr, then: Process) -> Process {
        Process::Output {
            chan: chan.into(),
            msg,
            then: Arc::new(then),
        }
    }

    /// `chan?var:set -> self` builder.
    pub fn input(chan: impl Into<ChanRef>, var: &str, set: SetExpr, then: Process) -> Process {
        Process::Input {
            chan: chan.into(),
            var: var.to_string(),
            set,
            then: Arc::new(then),
        }
    }

    /// `self | other` builder.
    pub fn or(self, other: Process) -> Process {
        Process::Choice(Arc::new(self), Arc::new(other))
    }

    /// `self || other` builder with inferred alphabets.
    pub fn par(self, other: Process) -> Process {
        Process::Parallel {
            left: Arc::new(self),
            right: Arc::new(other),
            left_alpha: None,
            right_alpha: None,
        }
    }

    /// `chan channels; self` builder.
    pub fn hide(self, channels: Vec<ChanRef>) -> Process {
        Process::Hide {
            channels,
            body: Arc::new(self),
        }
    }

    /// Folds the n-ary parallel composition `p₁ || p₂ || … || pₙ`
    /// (left-associated, inferred alphabets), as used for the multiplier
    /// network of §1.3(5).
    ///
    /// Returns `STOP` for an empty iterator.
    pub fn par_all<I: IntoIterator<Item = Process>>(procs: I) -> Process {
        let mut it = procs.into_iter();
        match it.next() {
            None => Process::Stop,
            Some(first) => it.fold(first, Process::par),
        }
    }

    /// Number of syntactic nodes — a size measure used by generators and
    /// benchmarks.
    pub fn size(&self) -> usize {
        match self {
            Process::Stop | Process::Call { .. } | Process::Error(_) => 1,
            Process::Output { then, .. } => 1 + then.size(),
            Process::Input { then, .. } => 1 + then.size(),
            Process::Choice(a, b) => 1 + a.size() + b.size(),
            Process::Parallel { left, right, .. } => 1 + left.size() + right.size(),
            Process::Hide { body, .. } => 1 + body.size(),
        }
    }

    /// True when this process contains a [`Process::Error`] recovery
    /// hole anywhere — i.e. part of its source failed to parse.
    pub fn has_error_hole(&self) -> bool {
        match self {
            Process::Stop | Process::Call { .. } => false,
            Process::Error(_) => true,
            Process::Output { then, .. } | Process::Input { then, .. } => then.has_error_hole(),
            Process::Choice(a, b) => a.has_error_hole() || b.has_error_hole(),
            Process::Parallel { left, right, .. } => {
                left.has_error_hole() || right.has_error_hole()
            }
            Process::Hide { body, .. } => body.has_error_hole(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_trace::Value;

    #[test]
    fn chanref_resolution_with_arithmetic_subscript() {
        // col[i-1] with i = 1 resolves to col[0] — multiplier boundary.
        let c = ChanRef::indexed("col", Expr::var("i").sub(Expr::int(1)));
        let env = Env::new().bind("i", Value::Int(1));
        assert_eq!(c.resolve(&env).unwrap(), Channel::indexed("col", 0));
    }

    #[test]
    fn chanref_rejects_symbol_subscripts() {
        let c = ChanRef::indexed("col", Expr::sym("ACK"));
        assert!(matches!(
            c.resolve(&Env::new()),
            Err(EvalError::BadSubscript { .. })
        ));
    }

    #[test]
    fn builders_compose_copier() {
        // copier = input?x:NAT -> wire!x -> copier
        let copier = Process::input(
            "input",
            "x",
            SetExpr::Nat,
            Process::output("wire", Expr::var("x"), Process::call("copier")),
        );
        assert_eq!(copier.size(), 3);
        match &copier {
            Process::Input { var, then, .. } => {
                assert_eq!(var, "x");
                assert!(matches!(**then, Process::Output { .. }));
            }
            other => panic!("expected input, got {other:?}"),
        }
    }

    #[test]
    fn par_all_folds_left() {
        let net = Process::par_all([
            Process::call("zeroes"),
            Process::call1("mult", Expr::int(1)),
            Process::call("last"),
        ]);
        assert_eq!(net.size(), 5);
        assert_eq!(Process::par_all([]), Process::Stop);
        assert_eq!(Process::par_all([Process::Stop]), Process::Stop);
    }

    #[test]
    fn display_of_chanref() {
        assert_eq!(ChanRef::simple("wire").to_string(), "wire");
        assert_eq!(
            ChanRef::indexed("col", Expr::var("i").sub(Expr::int(1))).to_string(),
            "col[(i - 1)]"
        );
    }
}
