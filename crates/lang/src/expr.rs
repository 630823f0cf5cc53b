//! Value expressions.
//!
//! §1.1(3): expressions are "built from variables, constants, and
//! operators, each of which defines a value in terms of its constituent
//! variables, e.g. `(3x + y)`. Note: expressions are not allowed to
//! contain process names or channel names." The richer comparison and
//! boolean operators are included because the assertion language of §2
//! builds its atomic formulae from the same expression grammar.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use csp_trace::Value;

use crate::{Env, EvalError};

/// Binary operators on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Integer addition `+`.
    Add,
    /// Integer subtraction `-`.
    Sub,
    /// Integer multiplication `*`.
    Mul,
    /// Integer division `/` (truncating; errors on zero divisor).
    Div,
    /// Integer modulus `%` (errors on zero divisor).
    Mod,
    /// Equality `==` on any values.
    Eq,
    /// Disequality `!=` on any values.
    Ne,
    /// Less-than `<` on integers.
    Lt,
    /// At-most `<=` on integers.
    Le,
    /// Greater-than `>` on integers.
    Gt,
    /// At-least `>=` on integers.
    Ge,
    /// Boolean conjunction `&&`.
    And,
    /// Boolean disjunction `||` (written `or` in concrete syntax to avoid
    /// clashing with parallel composition).
    Or,
}

impl BinOp {
    /// The concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
        }
    }
}

/// Unary operators on values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Integer negation `-`.
    Neg,
    /// Boolean negation `not`.
    Not,
}

/// A value expression.
///
/// # Examples
///
/// The paper's `3 × i + j`:
///
/// ```
/// use csp_lang::{Env, Expr};
/// use csp_trace::Value;
///
/// let e = Expr::mul(Expr::int(3), Expr::var("i")).add(Expr::var("j"));
/// let env = Env::new().bind("i", Value::nat(2)).bind("j", Value::nat(1));
/// assert_eq!(e.eval(&env).unwrap(), Value::Int(7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// A variable reference.
    Var(String),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A unary operation.
    Un(UnOp, Box<Expr>),
    /// A tuple former `(e₁, …, eₙ)` for n ≥ 2.
    Tuple(Vec<Expr>),
    /// A named constant-array lookup `v[e]`, e.g. the fixed vector `v[1..3]`
    /// of the multiplier example (§1.3(5)). The array contents come from the
    /// environment as bindings `v[1]`, `v[2]`, … made by the host.
    ArrayRef(String, Box<Expr>),
}

impl Expr {
    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Const(Value::Int(n))
    }

    /// A symbolic atom such as `ACK`.
    pub fn sym(name: &str) -> Expr {
        Expr::Const(Value::sym(name))
    }

    /// A variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)] // builder, not arithmetic on Expr values
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)] // associated fn, deliberate (C-OVERLOAD)
    /// `lhs * rhs` (associated function to avoid clashing with the
    /// `Mul` trait, which we deliberately do not implement — C-OVERLOAD).
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs))
    }

    /// Evaluates the expression in environment `env`.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundVariable`] for unbound variables,
    /// [`EvalError::TypeMismatch`] for ill-typed applications,
    /// [`EvalError::DivisionByZero`] for zero divisors, and
    /// [`EvalError::Overflow`] for results outside `i64`.
    pub fn eval(&self, env: &Env) -> Result<Value, EvalError> {
        self.eval_with(&|x| env.lookup(x).cloned())
    }

    /// [`eval`](Self::eval) with every name read through `lookup`: a
    /// variable `x`, or an array cell as its environment key `v[1]`.
    ///
    /// # Errors
    ///
    /// As for [`eval`](Self::eval).
    ///
    /// ```
    /// use csp_lang::Expr;
    /// use csp_trace::Value;
    ///
    /// let e = Expr::var("x").add(Expr::ArrayRef("v".into(), Box::new(Expr::int(1))));
    /// let lookup = |x: &str| match x {
    ///     "x" => Some(Value::Int(2)),
    ///     "v[1]" => Some(Value::Int(5)),
    ///     _ => None,
    /// };
    /// assert_eq!(e.eval_with(&lookup).unwrap(), Value::Int(7));
    /// ```
    pub fn eval_with<F: Fn(&str) -> Option<Value>>(&self, lookup: &F) -> Result<Value, EvalError> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Var(x) => lookup(x).ok_or_else(|| EvalError::UnboundVariable(x.clone())),
            Expr::Bin(op, a, b) => eval_bin(*op, a.eval_with(lookup)?, b.eval_with(lookup)?),
            Expr::Un(op, a) => eval_un(*op, a.eval_with(lookup)?),
            Expr::Tuple(es) => {
                let vs = es
                    .iter()
                    .map(|e| e.eval_with(lookup))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Tuple(vs))
            }
            Expr::ArrayRef(name, idx) => {
                let i = idx
                    .eval_with(lookup)?
                    .as_int()
                    .ok_or_else(|| EvalError::BadSubscript { name: name.clone() })?;
                let mut cell = CellKey::new();
                let key = if write!(cell, "{name}[{i}]").is_ok() {
                    Cow::Borrowed(cell.as_str())
                } else {
                    Cow::Owned(format!("{name}[{i}]"))
                };
                lookup(&key).ok_or_else(|| EvalError::UnboundVariable(key.into_owned()))
            }
        }
    }

    /// True if the expression contains no variables (and no array
    /// references, which read the environment).
    pub fn is_closed(&self) -> bool {
        match self {
            Expr::Const(_) => true,
            Expr::Var(_) | Expr::ArrayRef(..) => false,
            Expr::Bin(_, a, b) => a.is_closed() && b.is_closed(),
            Expr::Un(_, a) => a.is_closed(),
            Expr::Tuple(es) => es.iter().all(Expr::is_closed),
        }
    }
}

/// The environment key `name[i]` of an array cell, formatted on the stack
/// so reading a cell does not allocate; a key longer than the buffer
/// fails to format and is built on the heap instead.
struct CellKey {
    bytes: [u8; 64],
    len: usize,
}

impl CellKey {
    fn new() -> Self {
        CellKey {
            bytes: [0; 64],
            len: 0,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("only whole `str`s are written")
    }
}

impl fmt::Write for CellKey {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.bytes
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

fn int2(context: &str, a: Value, b: Value) -> Result<(i64, i64), EvalError> {
    match (a.as_int(), b.as_int()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EvalError::TypeMismatch {
            context: context.to_string(),
        }),
    }
}

fn overflow(context: &str) -> EvalError {
    EvalError::Overflow {
        context: context.to_string(),
    }
}

fn bool2(context: &str, a: Value, b: Value) -> Result<(bool, bool), EvalError> {
    match (a.as_bool(), b.as_bool()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EvalError::TypeMismatch {
            context: context.to_string(),
        }),
    }
}

/// Applies a binary operator to two values — the semantics of
/// [`Expr::Bin`], callable without building an expression.
///
/// # Errors
///
/// As for [`Expr::eval`]: ill-typed operands, zero divisors and
/// results outside `i64`.
///
/// # Examples
///
/// ```
/// use csp_lang::{eval_bin, BinOp};
/// use csp_trace::Value;
///
/// assert_eq!(eval_bin(BinOp::Mul, Value::Int(3), Value::Int(4)), Ok(Value::Int(12)));
/// ```
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
    Ok(match op {
        BinOp::Add => {
            let (x, y) = int2("+", a, b)?;
            Value::Int(x.checked_add(y).ok_or_else(|| overflow("+"))?)
        }
        BinOp::Sub => {
            let (x, y) = int2("-", a, b)?;
            Value::Int(x.checked_sub(y).ok_or_else(|| overflow("-"))?)
        }
        BinOp::Mul => {
            let (x, y) = int2("*", a, b)?;
            Value::Int(x.checked_mul(y).ok_or_else(|| overflow("*"))?)
        }
        BinOp::Div => {
            let (x, y) = int2("/", a, b)?;
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Int(x.checked_div(y).ok_or_else(|| overflow("/"))?)
        }
        BinOp::Mod => {
            let (x, y) = int2("%", a, b)?;
            if y == 0 {
                return Err(EvalError::DivisionByZero);
            }
            Value::Int(x.checked_rem_euclid(y).ok_or_else(|| overflow("%"))?)
        }
        BinOp::Eq => Value::Bool(a == b),
        BinOp::Ne => Value::Bool(a != b),
        BinOp::Lt => {
            let (x, y) = int2("<", a, b)?;
            Value::Bool(x < y)
        }
        BinOp::Le => {
            let (x, y) = int2("<=", a, b)?;
            Value::Bool(x <= y)
        }
        BinOp::Gt => {
            let (x, y) = int2(">", a, b)?;
            Value::Bool(x > y)
        }
        BinOp::Ge => {
            let (x, y) = int2(">=", a, b)?;
            Value::Bool(x >= y)
        }
        BinOp::And => {
            let (x, y) = bool2("and", a, b)?;
            Value::Bool(x && y)
        }
        BinOp::Or => {
            let (x, y) = bool2("or", a, b)?;
            Value::Bool(x || y)
        }
    })
}

/// Applies a unary operator to a value — the semantics of [`Expr::Un`].
///
/// # Errors
///
/// [`EvalError::TypeMismatch`] for an ill-typed operand,
/// [`EvalError::Overflow`] for `-` of `i64::MIN`.
pub fn eval_un(op: UnOp, a: Value) -> Result<Value, EvalError> {
    match op {
        UnOp::Neg => {
            let x = a.as_int().ok_or(EvalError::TypeMismatch {
                context: "unary -".to_string(),
            })?;
            Ok(Value::Int(
                x.checked_neg().ok_or_else(|| overflow("unary -"))?,
            ))
        }
        UnOp::Not => a
            .as_bool()
            .map(|x| Value::Bool(!x))
            .ok_or(EvalError::TypeMismatch {
                context: "not".to_string(),
            }),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Un(UnOp::Neg, a) => write!(f, "(-{a})"),
            Expr::Un(UnOp::Not, a) => write!(f, "(not {a})"),
            Expr::Tuple(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::ArrayRef(name, idx) => write!(f, "{name}[{idx}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_precedence_free_ast() {
        let e = Expr::mul(Expr::int(3), Expr::var("x")).add(Expr::var("y"));
        let env = Env::new().bind("x", Value::Int(4)).bind("y", Value::Int(5));
        assert_eq!(e.eval(&env).unwrap(), Value::Int(17));
    }

    #[test]
    fn unbound_variable_errors() {
        let e = Expr::var("zzz");
        assert_eq!(
            e.eval(&Env::new()),
            Err(EvalError::UnboundVariable("zzz".into()))
        );
    }

    #[test]
    fn type_errors_are_reported() {
        let e = Expr::sym("ACK").add(Expr::int(1));
        assert!(matches!(
            e.eval(&Env::new()),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn division_by_zero() {
        let e = Expr::Bin(BinOp::Div, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(e.eval(&Env::new()), Err(EvalError::DivisionByZero));
        let m = Expr::Bin(BinOp::Mod, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(m.eval(&Env::new()), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn overflow_is_an_error() {
        let (min, max) = (Value::Int(i64::MIN), Value::Int(i64::MAX));
        let minus_one = Value::Int(-1);
        for (op, a, b) in [
            (BinOp::Add, &max, &Value::Int(1)),
            (BinOp::Sub, &min, &Value::Int(1)),
            (BinOp::Mul, &max, &Value::Int(2)),
            (BinOp::Div, &min, &minus_one),
            (BinOp::Mod, &min, &minus_one),
        ] {
            assert_eq!(
                eval_bin(op, a.clone(), b.clone()),
                Err(EvalError::Overflow {
                    context: op.symbol().to_string()
                })
            );
        }
        assert!(matches!(
            eval_un(UnOp::Neg, min),
            Err(EvalError::Overflow { .. })
        ));
        assert_eq!(
            eval_bin(BinOp::Mod, Value::Int(-7), Value::Int(3)),
            Ok(Value::Int(2))
        );
    }

    #[test]
    fn comparisons_and_booleans() {
        let env = Env::new();
        let lt = Expr::Bin(BinOp::Lt, Box::new(Expr::int(1)), Box::new(Expr::int(2)));
        assert_eq!(lt.eval(&env).unwrap(), Value::Bool(true));
        let eq = Expr::Bin(
            BinOp::Eq,
            Box::new(Expr::sym("ACK")),
            Box::new(Expr::sym("ACK")),
        );
        assert_eq!(eq.eval(&env).unwrap(), Value::Bool(true));
        let and = Expr::Bin(
            BinOp::And,
            Box::new(Expr::Const(Value::Bool(true))),
            Box::new(Expr::Const(Value::Bool(false))),
        );
        assert_eq!(and.eval(&env).unwrap(), Value::Bool(false));
        let not = Expr::Un(UnOp::Not, Box::new(Expr::Const(Value::Bool(false))));
        assert_eq!(not.eval(&env).unwrap(), Value::Bool(true));
    }

    #[test]
    fn modulus_is_euclidean() {
        let e = Expr::Bin(BinOp::Mod, Box::new(Expr::int(-1)), Box::new(Expr::int(3)));
        assert_eq!(e.eval(&Env::new()).unwrap(), Value::Int(2));
    }

    #[test]
    fn array_ref_reads_environment_cells() {
        // v[i] with v[1] = 10 bound by the host, as in the multiplier.
        let e = Expr::ArrayRef("v".into(), Box::new(Expr::var("i")));
        let env = Env::new()
            .bind("i", Value::Int(1))
            .bind("v[1]", Value::Int(10));
        assert_eq!(e.eval(&env).unwrap(), Value::Int(10));
        // Unbound cell errors:
        let env2 = Env::new().bind("i", Value::Int(2));
        assert!(matches!(e.eval(&env2), Err(EvalError::UnboundVariable(_))));
    }

    #[test]
    fn unbound_array_cell_names_its_key() {
        let env = Env::new()
            .bind("v[1]", Value::Int(2))
            .bind("v[4]", Value::Int(5));
        let cell = |i: i64| Expr::ArrayRef("v".into(), Box::new(Expr::int(i)));
        assert_eq!(cell(4).eval(&env), Ok(Value::Int(5)));
        assert_eq!(
            cell(9).eval(&env),
            Err(EvalError::UnboundVariable("v[9]".into()))
        );
        // A key too long for the stack buffer takes the heap path and
        // reports the same error.
        let long = "w".repeat(80);
        let e = Expr::ArrayRef(long.clone(), Box::new(Expr::int(-3)));
        assert_eq!(
            e.eval(&env),
            Err(EvalError::UnboundVariable(format!("{long}[-3]")))
        );
        let env = env.bind(&format!("{long}[-3]"), Value::Int(7));
        assert_eq!(e.eval(&env), Ok(Value::Int(7)));
    }

    #[test]
    fn tuples_evaluate_componentwise() {
        let e = Expr::Tuple(vec![Expr::int(1), Expr::sym("a")]);
        assert_eq!(
            e.eval(&Env::new()).unwrap(),
            Value::Tuple(vec![Value::Int(1), Value::sym("a")])
        );
    }

    #[test]
    fn is_closed_detection() {
        assert!(Expr::int(1).add(Expr::int(2)).is_closed());
        assert!(!Expr::var("x").is_closed());
        assert!(!Expr::ArrayRef("v".into(), Box::new(Expr::int(1))).is_closed());
    }

    #[test]
    fn display_round_trip_shape() {
        let e = Expr::mul(Expr::int(3), Expr::var("i")).add(Expr::var("j"));
        assert_eq!(e.to_string(), "((3 * i) + j)");
    }
}
