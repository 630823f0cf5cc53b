//! Process and process-array equations (§1.1(7)–(9)).
//!
//! A [`Definition`] is one equation `p = P` or `q[i:M] = Q`; a
//! [`Definitions`] list declares a family of processes, possibly by mutual
//! recursion. "Process names will be used only for recursive definition or
//! for abbreviation, and never to specify the source or destination of a
//! communication."

use std::collections::BTreeMap;
use std::fmt;

use crate::{Env, EvalError, Process, SetExpr};
use csp_trace::Value;

/// A single process (or process-array) equation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Definition {
    name: String,
    /// `Some((i, M))` for an array equation `q[i:M] = Q`; `None` for a
    /// plain equation `p = P`.
    param: Option<(String, SetExpr)>,
    body: Process,
}

impl Definition {
    /// A plain equation `name = body`.
    pub fn plain(name: &str, body: Process) -> Self {
        Definition {
            name: name.to_string(),
            param: None,
            body,
        }
    }

    /// An array equation `name[param:set] = body` (§1.1(8)).
    pub fn array(name: &str, param: &str, set: SetExpr, body: Process) -> Self {
        Definition {
            name: name.to_string(),
            param: Some((param.to_string(), set)),
            body,
        }
    }

    /// The defined name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The array parameter `(variable, range-set)`, if this is an array
    /// equation.
    pub fn param(&self) -> Option<(&str, &SetExpr)> {
        self.param.as_ref().map(|(v, s)| (v.as_str(), s))
    }

    /// The defining process expression.
    pub fn body(&self) -> &Process {
        &self.body
    }

    /// Number of subscripts a call to this definition must supply.
    pub fn arity(&self) -> usize {
        usize::from(self.param.is_some())
    }
}

impl fmt::Display for Definition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.param {
            None => write!(f, "{} = {}", self.name, self.body),
            Some((v, s)) => write!(f, "{}[{v}:{s}] = {}", self.name, self.body),
        }
    }
}

/// An ordered list of equations declaring a set of processes and process
/// arrays, possibly by mutual recursion (§1.1(9)).
///
/// # Examples
///
/// ```
/// use csp_lang::{parse_definitions, Env};
/// use csp_trace::Value;
///
/// let defs = parse_definitions(
///     "sender = input?y:M -> q[y]
///      q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])",
/// ).unwrap();
/// // Instantiate the array element q[3]:
/// let body = defs.instantiate("q", &[Value::nat(3)], &Env::new()).unwrap();
/// assert!(body.to_string().starts_with("wire!3"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Definitions {
    // Insertion order preserved for display; index for lookup.
    order: Vec<Definition>,
    index: BTreeMap<String, usize>,
}

impl Definitions {
    /// An empty definition list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an equation. A later equation for the same name replaces the
    /// earlier one (and the replacement is returned), which supports
    /// interactive redefinition in the workbench.
    pub fn define(&mut self, def: Definition) -> Option<Definition> {
        match self.index.get(def.name()) {
            Some(&i) => Some(std::mem::replace(&mut self.order[i], def)),
            None => {
                self.index.insert(def.name().to_string(), self.order.len());
                self.order.push(def);
                None
            }
        }
    }

    /// The equation for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Definition> {
        self.index.get(name).map(|&i| &self.order[i])
    }

    /// Number of equations.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if there are no equations.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates over the equations in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Definition> {
        self.order.iter()
    }

    /// The names defined, in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(Definition::name)
    }

    /// Merges another definition list into this one (later list wins on
    /// name clashes).
    pub fn extend_with(&mut self, other: Definitions) {
        for d in other.order {
            self.define(d);
        }
    }

    /// Consumes the list, yielding the equations in declaration order —
    /// the zero-copy deconstruction incremental reparsing splices with.
    pub fn into_vec(self) -> Vec<Definition> {
        self.order
    }

    /// Resolves a call `name(args…)` to the defining body with the array
    /// parameter bound: for `q[i:M] = Q` and a call `q[e]` with `e`
    /// evaluating to `v ∈ M`, returns `Q` to be interpreted in an
    /// environment where `i = v` — §1.2(3)'s substitution, realised by
    /// environment extension. Also returns that extended environment.
    ///
    /// # Errors
    ///
    /// * [`EvalError::UndefinedProcess`] for unknown names,
    /// * [`EvalError::ArityMismatch`] for wrong subscript counts,
    /// * [`EvalError::NotInSet`] when the subscript value is outside `M`
    ///   (decidable sets only; membership in a `Named` abstract set is
    ///   assumed, as the paper does in symbolic proofs).
    pub fn resolve_call(
        &self,
        name: &str,
        args: &[Value],
        env: &Env,
    ) -> Result<(&Process, Env), EvalError> {
        let (body, param) = self.resolve_call_with(name, args, &|x| env.lookup(x).cloned())?;
        let mut scope = env.clone();
        if let Some(param) = param {
            scope.bind_mut(param, args[0].clone());
        }
        Ok((body, scope))
    }

    /// [`resolve_call`](Self::resolve_call) without building the
    /// environment: the body, and the parameter the call binds to
    /// `args[0]` (`None` for a plain equation). The parameter's set is
    /// read through `lookup`, as [`Expr::eval_with`](crate::Expr::eval_with)
    /// reads names.
    ///
    /// # Errors
    ///
    /// As for [`resolve_call`](Self::resolve_call).
    pub fn resolve_call_with<F: Fn(&str) -> Option<Value>>(
        &self,
        name: &str,
        args: &[Value],
        lookup: &F,
    ) -> Result<(&Process, Option<&str>), EvalError> {
        let def = self
            .get(name)
            .ok_or_else(|| EvalError::UndefinedProcess(name.to_string()))?;
        if args.len() != def.arity() {
            return Err(EvalError::ArityMismatch {
                name: name.to_string(),
                got: args.len(),
                expected: def.arity(),
            });
        }
        let Some((param, set)) = def.param() else {
            return Ok((def.body(), None));
        };
        let m = set.eval_with(lookup)?;
        if m.contains(&args[0]) == Some(false) {
            return Err(EvalError::NotInSet {
                value: args[0].to_string(),
                set: m.to_string(),
            });
        }
        Ok((def.body(), Some(param)))
    }

    /// Like [`resolve_call`](Self::resolve_call) but returns a clone of the
    /// body for callers that need ownership.
    pub fn instantiate(&self, name: &str, args: &[Value], env: &Env) -> Result<Process, EvalError> {
        let (body, scope) = self.resolve_call(name, args, env)?;
        crate::subst::close_process(body, &scope)
    }
}

impl FromIterator<Definition> for Definitions {
    fn from_iter<I: IntoIterator<Item = Definition>>(iter: I) -> Self {
        let mut defs = Definitions::new();
        for d in iter {
            defs.define(d);
        }
        defs
    }
}

impl fmt::Display for Definitions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.order {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Expr;

    fn copier_def() -> Definition {
        Definition::plain(
            "copier",
            Process::input(
                "input",
                "x",
                SetExpr::Nat,
                Process::output("wire", Expr::var("x"), Process::call("copier")),
            ),
        )
    }

    #[test]
    fn define_and_get() {
        let mut defs = Definitions::new();
        assert!(defs.define(copier_def()).is_none());
        assert_eq!(defs.len(), 1);
        assert_eq!(defs.get("copier").unwrap().name(), "copier");
        assert!(defs.get("nonesuch").is_none());
    }

    #[test]
    fn redefinition_replaces_and_returns_old() {
        let mut defs = Definitions::new();
        defs.define(copier_def());
        let old = defs.define(Definition::plain("copier", Process::Stop));
        assert!(old.is_some());
        assert_eq!(defs.len(), 1);
        assert_eq!(defs.get("copier").unwrap().body(), &Process::Stop);
    }

    #[test]
    fn resolve_plain_call() {
        let mut defs = Definitions::new();
        defs.define(copier_def());
        let (body, env) = defs
            .resolve_call("copier", &[], &Env::new())
            .expect("resolves");
        assert!(matches!(body, Process::Input { .. }));
        assert!(env.is_empty());
    }

    #[test]
    fn resolve_array_call_binds_parameter() {
        let mut defs = Definitions::new();
        defs.define(Definition::array(
            "q",
            "x",
            SetExpr::range(0, 3),
            Process::output("wire", Expr::var("x"), Process::call("sender")),
        ));
        let (_, env) = defs
            .resolve_call("q", &[Value::Int(2)], &Env::new())
            .unwrap();
        assert_eq!(env.lookup("x"), Some(&Value::Int(2)));
    }

    #[test]
    fn subscript_outside_range_is_rejected() {
        // §1.2(3): "provided that this is in M".
        let mut defs = Definitions::new();
        defs.define(Definition::array(
            "q",
            "x",
            SetExpr::range(0, 3),
            Process::Stop,
        ));
        let err = defs
            .resolve_call("q", &[Value::Int(7)], &Env::new())
            .unwrap_err();
        assert!(matches!(err, EvalError::NotInSet { .. }));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut defs = Definitions::new();
        defs.define(copier_def());
        let err = defs
            .resolve_call("copier", &[Value::Int(1)], &Env::new())
            .unwrap_err();
        assert!(matches!(err, EvalError::ArityMismatch { .. }));
    }

    #[test]
    fn undefined_process_reported() {
        let defs = Definitions::new();
        assert!(matches!(
            defs.resolve_call("ghost", &[], &Env::new()),
            Err(EvalError::UndefinedProcess(_))
        ));
    }

    #[test]
    fn named_abstract_set_membership_is_assumed() {
        let mut defs = Definitions::new();
        defs.define(Definition::array(
            "q",
            "x",
            SetExpr::Named("M".into()),
            Process::Stop,
        ));
        // Membership in abstract M is not decidable, so the call is allowed.
        assert!(defs
            .resolve_call("q", &[Value::nat(9)], &Env::new())
            .is_ok());
    }

    #[test]
    fn display_lists_equations_in_order() {
        let mut defs = Definitions::new();
        defs.define(copier_def());
        defs.define(Definition::plain("stopper", Process::Stop));
        let s = defs.to_string();
        let copier_pos = s.find("copier =").unwrap();
        let stop_pos = s.find("stopper =").unwrap();
        assert!(copier_pos < stop_pos);
    }
}
