//! Parser for the assertion language.
//!
//! Concrete syntax (examples from the paper):
//!
//! ```text
//! wire <= input                      -- prefix order on histories
//! output <= f(wire)                  -- named sequence function
//! #input <= #wire + 1                -- lengths and arithmetic
//! f(wire) <= x^input                 -- cons
//! forall i:NAT. 1 <= i and i <= #output => output[i] == v[1]*row[1][i]
//! ```
//!
//! Identifier classification: names listed in the supplied
//! [`ChannelInfo`] denote channel histories (sequence-valued); names
//! registered as sequence functions are applied with `name(seq)`; every
//! other lower-case identifier is a value variable, upper-case ones are
//! symbolic atoms (`ACK`); `name[e]` is a channel-array element when
//! `name` is declared an array channel, history indexing when `name` is a
//! plain channel, and a host constant array (`v[1]`) otherwise.
//!
//! Precedence, loosest to tightest: `forall`/`exists` (body extends to
//! the end), `=>` (right-assoc), `or`, `and`, `not`, comparisons, `^`
//! (cons, right-assoc) and `++`, `+ -`, `* / %`, postfix `[…]`, atoms.

use std::collections::BTreeSet;

use csp_lang::{BinOp, ChanRef, Expr, SetExpr, UnOp};

use crate::{Assertion, CmpOp, STerm, Term};

/// Which identifiers denote channels, and which of those are arrays.
#[derive(Debug, Clone, Default)]
pub struct ChannelInfo {
    plain: BTreeSet<String>,
    arrays: std::collections::BTreeMap<String, usize>,
    funcs: BTreeSet<String>,
}

impl ChannelInfo {
    /// No channels known — identifiers all parse as variables/atoms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares plain channel names.
    #[must_use]
    pub fn with_channels<'a, I: IntoIterator<Item = &'a str>>(mut self, names: I) -> Self {
        self.plain.extend(names.into_iter().map(String::from));
        self
    }

    /// Declares singly-subscripted channel-array names (like `row`,
    /// `col`).
    #[must_use]
    pub fn with_arrays<'a, I: IntoIterator<Item = &'a str>>(mut self, names: I) -> Self {
        self.arrays
            .extend(names.into_iter().map(|n| (n.to_string(), 1)));
        self
    }

    /// Declares a channel array with an explicit subscript count, e.g.
    /// `grab[p][f]` has arity 2. Brackets beyond the arity parse as
    /// history indexing (`grab[0][1][i]` is message `i` on `grab[0][1]`).
    #[must_use]
    pub fn with_array_of_arity(mut self, name: &str, arity: usize) -> Self {
        self.arrays.insert(name.to_string(), arity.max(1));
        self
    }

    /// Declares sequence-function names (like `f`).
    #[must_use]
    pub fn with_funcs<'a, I: IntoIterator<Item = &'a str>>(mut self, names: I) -> Self {
        self.funcs.extend(names.into_iter().map(String::from));
        self
    }

    fn is_plain(&self, n: &str) -> bool {
        self.plain.contains(n)
    }

    fn array_arity(&self, n: &str) -> Option<usize> {
        self.arrays.get(n).copied()
    }

    fn is_func(&self, n: &str) -> bool {
        self.funcs.contains(n)
    }
}

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertParseError {
    message: String,
    position: usize,
}

impl AssertParseError {
    /// What went wrong.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for AssertParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "assertion parse error at token {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for AssertParseError {}

/// Parses an assertion.
///
/// # Errors
///
/// Returns [`AssertParseError`] on malformed input, type mismatches
/// (comparing a sequence with a value), or trailing tokens.
///
/// # Examples
///
/// ```
/// use csp_assert::{parse_assertion, ChannelInfo};
///
/// let info = ChannelInfo::new()
///     .with_channels(["wire", "input"])
///     .with_funcs(["f"]);
/// let r = parse_assertion("f(wire) <= x^input", &info).unwrap();
/// assert_eq!(r.to_string(), "f(wire) <= x^input");
/// ```
pub fn parse_assertion(src: &str, info: &ChannelInfo) -> Result<Assertion, AssertParseError> {
    let toks = tokenize(src)?;
    let mut p = AParser { toks, pos: 0, info };
    let a = p.assertion()?;
    if p.pos < p.toks.len() {
        return Err(p.err("unexpected trailing tokens"));
    }
    Ok(a)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum T {
    Ident(String),
    Int(i64),
    Sym(&'static str),
}

fn tokenize(src: &str) -> Result<Vec<T>, AssertParseError> {
    let mut out = Vec::new();
    let mut cs = src.chars().peekable();
    while let Some(&c) = cs.peek() {
        match c {
            c if c.is_whitespace() => {
                cs.next();
            }
            '(' | ')' | '[' | ']' | '{' | '}' | ',' | '^' | '#' | '.' => {
                cs.next();
                out.push(T::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    '[' => "[",
                    ']' => "]",
                    '{' => "{",
                    '}' => "}",
                    ',' => ",",
                    '^' => "^",
                    '#' => "#",
                    _ => ".",
                }));
                // Merge ".." for ranges.
                if c == '.' && cs.peek() == Some(&'.') {
                    cs.next();
                    out.pop();
                    out.push(T::Sym(".."));
                }
            }
            '+' => {
                cs.next();
                if cs.peek() == Some(&'+') {
                    cs.next();
                    out.push(T::Sym("++"));
                } else {
                    out.push(T::Sym("+"));
                }
            }
            '-' | '*' | '/' | '%' => {
                cs.next();
                out.push(T::Sym(match c {
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    _ => "%",
                }));
            }
            '<' => {
                cs.next();
                match cs.peek() {
                    Some('=') => {
                        cs.next();
                        out.push(T::Sym("<="));
                    }
                    Some('>') => {
                        cs.next();
                        out.push(T::Sym("<>"));
                    }
                    _ => out.push(T::Sym("<")),
                }
            }
            '>' => {
                cs.next();
                if cs.peek() == Some(&'=') {
                    cs.next();
                    out.push(T::Sym(">="));
                } else {
                    out.push(T::Sym(">"));
                }
            }
            '=' => {
                cs.next();
                match cs.peek() {
                    Some('=') => {
                        cs.next();
                        out.push(T::Sym("=="));
                    }
                    Some('>') => {
                        cs.next();
                        out.push(T::Sym("=>"));
                    }
                    _ => {
                        return Err(AssertParseError {
                            message: "stray `=` (use `==` or `=>`)".into(),
                            position: out.len(),
                        })
                    }
                }
            }
            '!' => {
                cs.next();
                if cs.peek() == Some(&'=') {
                    cs.next();
                    out.push(T::Sym("!="));
                } else {
                    return Err(AssertParseError {
                        message: "stray `!`".into(),
                        position: out.len(),
                    });
                }
            }
            ':' => {
                cs.next();
                out.push(T::Sym(":"));
            }
            c if c.is_ascii_digit() => {
                let mut n = String::new();
                while let Some(&d) = cs.peek() {
                    if d.is_ascii_digit() {
                        n.push(d);
                        cs.next();
                    } else {
                        break;
                    }
                }
                out.push(T::Int(n.parse().map_err(|_| AssertParseError {
                    message: "integer too large".into(),
                    position: out.len(),
                })?));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = cs.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '\'' {
                        s.push(d);
                        cs.next();
                    } else {
                        break;
                    }
                }
                out.push(T::Ident(s));
            }
            other => {
                return Err(AssertParseError {
                    message: format!("unexpected character `{other}`"),
                    position: out.len(),
                })
            }
        }
    }
    Ok(out)
}

/// A parsed operand: sequence- or value-typed.
#[derive(Debug, Clone)]
enum Operand {
    Seq(STerm),
    Val(Term),
}

struct AParser<'a> {
    toks: Vec<T>,
    pos: usize,
    info: &'a ChannelInfo,
}

impl AParser<'_> {
    fn err(&self, msg: impl Into<String>) -> AssertParseError {
        AssertParseError {
            message: msg.into(),
            position: self.pos,
        }
    }

    fn peek(&self) -> Option<&T> {
        self.toks.get(self.pos)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Some(T::Sym(t)) if *t == s)
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(T::Ident(t)) if t == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), AssertParseError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn ident(&mut self) -> Result<String, AssertParseError> {
        match self.peek() {
            Some(T::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    // assertion := quantified | implies
    fn assertion(&mut self) -> Result<Assertion, AssertParseError> {
        if self.eat_kw("forall") || self.peek_kw("exists") {
            let is_forall = !self.eat_kw("exists");
            let var = self.ident()?;
            self.expect_sym(":")?;
            let set = self.set_expr()?;
            self.expect_sym(".")?;
            let body = self.assertion()?;
            return Ok(if is_forall {
                Assertion::ForallIn(var, set, Box::new(body))
            } else {
                Assertion::ExistsIn(var, set, Box::new(body))
            });
        }
        self.implies()
    }

    fn implies(&mut self) -> Result<Assertion, AssertParseError> {
        let left = self.or()?;
        if self.eat_sym("=>") {
            let right = if self.peek_kw("forall") || self.peek_kw("exists") {
                self.assertion()?
            } else {
                self.implies()?
            };
            Ok(left.implies(right))
        } else {
            Ok(left)
        }
    }

    fn or(&mut self) -> Result<Assertion, AssertParseError> {
        let mut left = self.and()?;
        while self.eat_kw("or") {
            let right = self.and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and(&mut self) -> Result<Assertion, AssertParseError> {
        let mut left = self.unary()?;
        while self.eat_kw("and") {
            let right = self.unary()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Assertion, AssertParseError> {
        if self.eat_kw("not") {
            return Ok(self.unary()?.negate());
        }
        if self.eat_kw("true") {
            return Ok(Assertion::True);
        }
        if self.eat_kw("false") {
            return Ok(Assertion::False);
        }
        // Parenthesised assertion vs parenthesised operand: try assertion
        // first by lookahead — if after the matching `(` we find an
        // operand followed by a comparison, it is an atom; simplest is to
        // backtrack.
        if self.peek_sym("(") {
            let save = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.assertion() {
                if self.eat_sym(")") {
                    // Only accept if this really was a formula group: a
                    // following comparison operator means we mis-parsed an
                    // operand like `(x + 1) <= y` — backtrack.
                    if !self.peek_cmp() {
                        return Ok(inner);
                    }
                }
            }
            self.pos = save;
        }
        self.comparison()
    }

    fn peek_cmp(&self) -> bool {
        ["<=", "<", "==", "!=", ">=", ">"]
            .iter()
            .any(|s| self.peek_sym(s))
    }

    fn comparison(&mut self) -> Result<Assertion, AssertParseError> {
        let left = self.operand()?;
        let op = if self.eat_sym("<=") {
            "<="
        } else if self.eat_sym("==") {
            "=="
        } else if self.eat_sym("!=") {
            "!="
        } else if self.eat_sym(">=") {
            ">="
        } else if self.eat_sym("<") {
            "<"
        } else if self.eat_sym(">") {
            ">"
        } else {
            return Err(self.err("expected a comparison operator"));
        };
        let right = self.operand()?;
        match (left, right) {
            (Operand::Seq(a), Operand::Seq(b)) => match op {
                "<=" => Ok(Assertion::Prefix(a, b)),
                "==" => Ok(Assertion::SeqEq(a, b)),
                "!=" => Ok(Assertion::SeqEq(a, b).negate()),
                _ => Err(self.err(format!("`{op}` is not defined on sequences"))),
            },
            (Operand::Val(a), Operand::Val(b)) => {
                let c = match op {
                    "<=" => CmpOp::Le,
                    "<" => CmpOp::Lt,
                    "==" => CmpOp::Eq,
                    "!=" => CmpOp::Ne,
                    ">=" => CmpOp::Ge,
                    ">" => CmpOp::Gt,
                    _ => unreachable!(),
                };
                Ok(Assertion::Cmp(c, a, b))
            }
            _ => Err(self.err("cannot compare a sequence with a value")),
        }
    }

    // operand := additive ('^' operand | '++' operand)?
    fn operand(&mut self) -> Result<Operand, AssertParseError> {
        let first = self.additive()?;
        if self.eat_sym("^") {
            let head = match first {
                Operand::Val(t) => t,
                Operand::Seq(_) => return Err(self.err("left of `^` must be a value")),
            };
            let tail = match self.operand()? {
                Operand::Seq(s) => s,
                Operand::Val(_) => return Err(self.err("right of `^` must be a sequence")),
            };
            return Ok(Operand::Seq(STerm::Cons(Box::new(head), Box::new(tail))));
        }
        if self.eat_sym("++") {
            let a = match first {
                Operand::Seq(s) => s,
                Operand::Val(_) => return Err(self.err("left of `++` must be a sequence")),
            };
            let b = match self.operand()? {
                Operand::Seq(s) => s,
                Operand::Val(_) => return Err(self.err("right of `++` must be a sequence")),
            };
            return Ok(Operand::Seq(STerm::Concat(Box::new(a), Box::new(b))));
        }
        Ok(first)
    }

    fn additive(&mut self) -> Result<Operand, AssertParseError> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.peek_sym("+") {
                BinOp::Add
            } else if self.peek_sym("-") {
                BinOp::Sub
            } else {
                break;
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Operand::Val(Term::Bin(
                op,
                Box::new(self.val(left)?),
                Box::new(self.val(right)?),
            ));
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Operand, AssertParseError> {
        let mut left = self.prefix_op()?;
        loop {
            let op = if self.peek_sym("*") {
                BinOp::Mul
            } else if self.peek_sym("/") {
                BinOp::Div
            } else if self.peek_sym("%") {
                BinOp::Mod
            } else {
                break;
            };
            self.pos += 1;
            let right = self.prefix_op()?;
            left = Operand::Val(Term::Bin(
                op,
                Box::new(self.val(left)?),
                Box::new(self.val(right)?),
            ));
        }
        Ok(left)
    }

    fn val(&self, o: Operand) -> Result<Term, AssertParseError> {
        match o {
            Operand::Val(t) => Ok(t),
            Operand::Seq(s) => {
                Err(self.err(format!("sequence `{s}` used where a value is required")))
            }
        }
    }

    fn prefix_op(&mut self) -> Result<Operand, AssertParseError> {
        if self.eat_sym("#") {
            let arg = self.prefix_op()?;
            let s = match arg {
                Operand::Seq(s) => s,
                Operand::Val(_) => return Err(self.err("`#` applies to a sequence")),
            };
            return Ok(Operand::Val(Term::Length(Box::new(s))));
        }
        if self.eat_sym("-") {
            let arg = self.prefix_op()?;
            return Ok(Operand::Val(Term::Un(UnOp::Neg, Box::new(self.val(arg)?))));
        }
        self.postfix()
    }

    // postfix := primary ('[' operand ']')*  — indexing of sequences.
    fn postfix(&mut self) -> Result<Operand, AssertParseError> {
        let mut base = self.primary()?;
        while self.peek_sym("[") {
            // Only sequence indexing reaches here; channel subscripts and
            // host arrays are consumed inside `primary`.
            match base {
                Operand::Seq(s) => {
                    self.pos += 1;
                    let idx = self.operand()?;
                    self.expect_sym("]")?;
                    base = Operand::Val(Term::Index(Box::new(s), Box::new(self.val(idx)?)));
                }
                Operand::Val(_) => break,
            }
        }
        Ok(base)
    }

    fn primary(&mut self) -> Result<Operand, AssertParseError> {
        match self.peek().cloned() {
            Some(T::Int(n)) => {
                self.pos += 1;
                Ok(Operand::Val(Term::int(n)))
            }
            Some(T::Sym("<>")) => {
                self.pos += 1;
                Ok(Operand::Seq(STerm::Empty))
            }
            Some(T::Sym("<")) => {
                // Sequence literal <e1, …, en>.
                self.pos += 1;
                let mut elems = Vec::new();
                if !self.peek_sym(">") {
                    loop {
                        let o = self.operand()?;
                        elems.push(self.val(o)?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym(">")?;
                Ok(Operand::Seq(STerm::Lit(elems)))
            }
            Some(T::Sym("(")) => {
                self.pos += 1;
                let inner = self.operand()?;
                self.expect_sym(")")?;
                Ok(inner)
            }
            Some(T::Ident(name)) => {
                self.pos += 1;
                // Sequence function application. Nothing else puts an
                // identifier before `(`.
                if self.peek_sym("(") {
                    if !self.info.is_func(&name) {
                        return Err(AssertParseError {
                            message: format!("unknown sequence function `{name}`"),
                            position: self.pos - 1,
                        });
                    }
                    self.pos += 1;
                    let arg = self.operand()?;
                    self.expect_sym(")")?;
                    let s = match arg {
                        Operand::Seq(s) => s,
                        Operand::Val(_) => {
                            return Err(self.err(format!("`{name}(…)` needs a sequence argument")))
                        }
                    };
                    return Ok(Operand::Seq(STerm::App(name, Box::new(s))));
                }
                // Channel-array element: row[i] is a channel (grab[p][f]
                // for arity 2), then maybe indexed further: row[1][i].
                if let Some(arity) = self.info.array_arity(&name) {
                    let mut subs = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        self.expect_sym("[")?;
                        let sub = self.operand()?;
                        self.expect_sym("]")?;
                        let sub = self.val(sub)?;
                        subs.push(term_to_expr(&sub).ok_or_else(|| {
                            self.err("channel subscripts must be plain expressions")
                        })?);
                    }
                    return Ok(Operand::Seq(STerm::Hist(ChanRef::with_indices(
                        &name, subs,
                    ))));
                }
                // Plain channel history.
                if self.info.is_plain(&name) {
                    return Ok(Operand::Seq(STerm::chan(&name)));
                }
                // Host constant array v[e].
                if self.peek_sym("[") {
                    self.pos += 1;
                    let idx = self.operand()?;
                    self.expect_sym("]")?;
                    let idx = self.val(idx)?;
                    let e = term_to_expr(&idx)
                        .ok_or_else(|| self.err("array subscripts must be plain expressions"))?;
                    return Ok(Operand::Val(Term::Expr(Expr::ArrayRef(name, Box::new(e)))));
                }
                // Atom or variable by capitalisation, as in csp-lang.
                if name.chars().next().is_some_and(char::is_uppercase) {
                    Ok(Operand::Val(Term::sym(&name)))
                } else {
                    Ok(Operand::Val(Term::var(&name)))
                }
            }
            _ => Err(self.err("expected an operand")),
        }
    }

    fn set_expr(&mut self) -> Result<SetExpr, AssertParseError> {
        if self.eat_kw("NAT") {
            return Ok(SetExpr::Nat);
        }
        if self.eat_sym("{") {
            if self.eat_sym("}") {
                return Ok(SetExpr::Enum(Vec::new()));
            }
            let first = self.operand()?;
            let first = self.val(first).and_then(|t| {
                term_to_expr(&t).ok_or_else(|| self.err("set elements must be plain expressions"))
            })?;
            if self.eat_sym("..") {
                let hi = self.operand()?;
                let hi = self.val(hi).and_then(|t| {
                    term_to_expr(&t)
                        .ok_or_else(|| self.err("range bound must be a plain expression"))
                })?;
                self.expect_sym("}")?;
                return Ok(SetExpr::Range(Box::new(first), Box::new(hi)));
            }
            let mut elems = vec![first];
            while self.eat_sym(",") {
                let o = self.operand()?;
                elems.push(self.val(o).and_then(|t| {
                    term_to_expr(&t)
                        .ok_or_else(|| self.err("set elements must be plain expressions"))
                })?);
            }
            self.expect_sym("}")?;
            return Ok(SetExpr::Enum(elems));
        }
        // Named set or bare range lo..hi.
        if let Some(T::Ident(n)) = self.peek().cloned() {
            if n.chars().next().is_some_and(char::is_uppercase) {
                self.pos += 1;
                return Ok(SetExpr::Named(n));
            }
        }
        let lo = self.operand()?;
        let lo = self.val(lo).and_then(|t| {
            term_to_expr(&t).ok_or_else(|| self.err("range bound must be a plain expression"))
        })?;
        self.expect_sym("..")?;
        let hi = self.operand()?;
        let hi = self.val(hi).and_then(|t| {
            term_to_expr(&t).ok_or_else(|| self.err("range bound must be a plain expression"))
        })?;
        Ok(SetExpr::Range(Box::new(lo), Box::new(hi)))
    }
}

/// Extracts a plain csp-lang expression from a term that contains no
/// sequence-dependent operators (used for subscripts and set bounds).
fn term_to_expr(t: &Term) -> Option<Expr> {
    match t {
        Term::Expr(e) => Some(e.clone()),
        Term::Bin(op, a, b) => Some(Expr::Bin(
            *op,
            Box::new(term_to_expr(a)?),
            Box::new(term_to_expr(b)?),
        )),
        Term::Un(op, a) => Some(Expr::Un(*op, Box::new(term_to_expr(a)?))),
        Term::Length(_) | Term::Index(_, _) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ChannelInfo {
        ChannelInfo::new()
            .with_channels(["wire", "input", "output"])
            .with_arrays(["row", "col"])
            .with_funcs(["f"])
    }

    #[track_caller]
    fn ok(src: &str) -> Assertion {
        parse_assertion(src, &info()).unwrap_or_else(|e| panic!("{src}: {e}"))
    }

    #[test]
    fn paper_assertions_parse() {
        assert_eq!(ok("wire <= input").to_string(), "wire <= input");
        assert_eq!(ok("output <= f(wire)").to_string(), "output <= f(wire)");
        assert_eq!(
            ok("#input <= #wire + 1").to_string(),
            "#input <= (#wire + 1)"
        );
        assert_eq!(ok("f(wire) <= x^input").to_string(), "f(wire) <= x^input");
    }

    #[test]
    fn multiplier_invariant_parses() {
        let r = ok("forall i:NAT. 1 <= i and i <= #output => \
             output[i] == v[1]*row[1][i] + v[2]*row[2][i]");
        match &r {
            Assertion::ForallIn(x, m, _) => {
                assert_eq!(x, "i");
                assert_eq!(m, &SetExpr::Nat);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = r.to_string();
        assert!(s.contains("output[i]"), "{s}");
        assert!(s.contains("row[1][i]"), "{s}");
    }

    #[test]
    fn precedence_implication_binds_loosest() {
        let r = ok("1 <= 2 and 2 <= 3 => 1 <= 3");
        assert!(matches!(r, Assertion::Implies(_, _)));
    }

    #[test]
    fn sequence_literals_and_empty() {
        assert_eq!(ok("<> <= wire").to_string(), "<> <= wire");
        let r = ok("<3, 4> <= input");
        assert_eq!(r.to_string(), "<3, 4> <= input");
    }

    #[test]
    fn cons_chains_right() {
        let r = ok("x^y^wire <= input");
        assert_eq!(r.to_string(), "x^y^wire <= input");
    }

    #[test]
    fn concat_parses() {
        let r = ok("wire ++ <1> <= input");
        assert_eq!(r.to_string(), "(wire ++ <1>) <= input");
    }

    #[test]
    fn atoms_vs_variables() {
        let r = ok("x == ACK");
        match r {
            Assertion::Cmp(CmpOp::Eq, Term::Expr(Expr::Var(v)), Term::Expr(c)) => {
                assert_eq!(v, "x");
                assert_eq!(c, Expr::sym("ACK"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn type_errors_reported() {
        assert!(parse_assertion("wire <= 3", &info()).is_err());
        assert!(parse_assertion("#3 == 1", &info()).is_err());
        assert!(parse_assertion("wire < input", &info()).is_err());
        assert!(parse_assertion("1 ^ 2 <= wire", &info()).is_err());
    }

    #[test]
    fn parenthesised_formulas_and_operands() {
        let r = ok("(1 <= 2) and (2 <= 3)");
        assert!(matches!(r, Assertion::And(_, _)));
        let r2 = ok("(x + 1) <= y");
        assert!(matches!(r2, Assertion::Cmp(CmpOp::Le, _, _)));
    }

    #[test]
    fn not_and_nested_quantifiers() {
        let r = ok("not (wire <= input)");
        assert!(matches!(r, Assertion::Not(_)));
        let q = ok("forall x:{0..3}. exists y:{0..3}. x <= y");
        assert!(matches!(q, Assertion::ForallIn(_, _, _)));
    }

    #[test]
    fn quantified_operands_print_back_to_themselves() {
        // A quantifier's body extends as far right as it can, so a
        // quantifier left of `=>`, `and` or `or` prints in parentheses.
        let q = ok("forall i:NAT. i <= #wire");
        let r = q.clone().implies(ok("wire <= input"));
        assert_eq!(
            r.to_string(),
            "((forall i:NAT. (i <= #wire)) => wire <= input)"
        );
        for a in [
            r,
            q.clone().and(ok("wire <= input")),
            ok("wire <= input").or(q.clone()),
            ok("wire <= input").implies(q),
        ] {
            assert_eq!(ok(&a.to_string()), a, "{a}");
        }
    }

    #[test]
    fn channel_array_subscripts() {
        let r = ok("col[0] <= col[i-1]");
        assert_eq!(r.to_string(), "col[0] <= col[(i - 1)]");
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_assertion("wire <= input input", &info()).is_err());
    }

    #[test]
    fn an_undeclared_function_is_refused_at_its_name() {
        for (src, position) in [
            ("g(wire) <= input", 0),
            ("output <= g(wire)", 2),
            ("#g(wire) == 0", 1),
            ("(g(wire) <= input)", 1),
        ] {
            let e = parse_assertion(src, &info()).unwrap_err();
            assert_eq!(e.message(), "unknown sequence function `g`", "{src}");
            assert_eq!(
                e.to_string(),
                format!("assertion parse error at token {position}: unknown sequence function `g`"),
                "{src}"
            );
        }
        // A declared function still applies.
        assert_eq!(ok("f(wire) <= input").to_string(), "f(wire) <= input");
    }
}
