//! Deciding validity of *pure* premises.
//!
//! Several inference rules have premises that are ordinary predicates
//! about sequences rather than `sat` judgements — e.g. the emptiness
//! rule's `R_<>`, the consequence rule's `R ⇒ S`, and Table 1's steps
//! justified "(def f)". The paper discharges these by informal sequence
//! reasoning; this module provides the mechanical counterpart:
//!
//! 1. a **syntactic prover** for a handful of laws (prefix reflexivity,
//!    `<> ≤ s`, cons-monotonicity, conjunction/implication structure);
//! 2. the **symbolic stage** ([`symbolic_valid`]), which decides the
//!    fragment the paper's proofs use — prefix order, `f`'s declared
//!    equations, length bounds, indexing — for every history and every
//!    value; and
//! 3. a **bounded validity checker** that exhaustively evaluates the
//!    formula over all channel histories up to a configured length and
//!    all variable values from the universe — refutation-complete within
//!    the bound. It finds the counterexamples, and it is the oracle the
//!    symbolic stage is tested against.
//!
//! Every decision records *how* it was reached so proof checking can
//! report which premises rest on the bounded oracle.

use csp_lang::Env;
use csp_semantics::Universe;
use csp_trace::{Channel, History, Seq, Value};

use crate::{symbolic_valid, Assertion, EvalCtx, FuncTable, STerm};

/// How thorough the bounded check is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecideConfig {
    /// Maximum per-channel history length enumerated.
    pub max_history_len: usize,
    /// Cap on the total number of evaluation cases; the check reports
    /// [`Decision::Unknown`] rather than exceed it.
    pub max_cases: usize,
}

impl Default for DecideConfig {
    fn default() -> Self {
        DecideConfig {
            max_history_len: 3,
            max_cases: 2_000_000,
        }
    }
}

/// The outcome of a validity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Valid by a syntactic law; no enumeration needed.
    ValidSyntactic {
        /// The law that matched, e.g. `"prefix-reflexivity"`.
        law: &'static str,
    },
    /// Valid for every history and every value, by the symbolic stage
    /// ([`symbolic_valid`]).
    ValidSymbolic {
        /// The rule that carried the proof, e.g. `"prefix-transitivity"`.
        rule: &'static str,
    },
    /// Valid in every enumerated case.
    ValidBounded {
        /// Number of (history, valuation) cases checked.
        cases: usize,
    },
    /// A counterexample was found.
    Refuted {
        /// A history falsifying the formula.
        history: History,
        /// The variable valuation in force.
        env: Env,
    },
    /// The check could not complete (case-count cap exceeded, or an
    /// evaluation error such as an unregistered function).
    Unknown {
        /// Why the check gave up.
        reason: String,
    },
}

impl Decision {
    /// True for any form of validity.
    pub fn is_valid(&self) -> bool {
        matches!(
            self,
            Decision::ValidSyntactic { .. }
                | Decision::ValidSymbolic { .. }
                | Decision::ValidBounded { .. }
        )
    }
}

/// Decides whether `a` holds for **all** channel histories and all values
/// of its free variables — the reading the paper gives pure premises
/// ("`T` has to be true for all possible sequences of values passing
/// along the channels", §3.3).
///
/// # Examples
///
/// ```
/// use csp_assert::{decide_valid, Assertion, DecideConfig, FuncTable, STerm};
/// use csp_semantics::Universe;
///
/// let uni = Universe::new(1);
/// let funcs = FuncTable::with_builtins();
/// // wire ≤ wire: valid syntactically.
/// let refl = Assertion::prefix(STerm::chan("wire"), STerm::chan("wire"));
/// assert!(decide_valid(&refl, &uni, &funcs, DecideConfig::default()).is_valid());
/// // wire ≤ input: refutable.
/// let wrong = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
/// let d = decide_valid(&wrong, &uni, &funcs, DecideConfig::default());
/// assert!(!d.is_valid());
/// ```
pub fn decide_valid(
    a: &Assertion,
    universe: &Universe,
    funcs: &FuncTable,
    config: DecideConfig,
) -> Decision {
    if let Some(law) = syntactic_valid(a) {
        return Decision::ValidSyntactic { law };
    }
    if let Some(rule) = symbolic_valid(a, universe, funcs) {
        return Decision::ValidSymbolic { rule };
    }
    bounded_valid(a, universe, funcs, config)
}

/// The syntactic laws. Returns the law name on a match.
pub fn syntactic_valid(a: &Assertion) -> Option<&'static str> {
    match a {
        Assertion::True => Some("truth"),
        Assertion::Prefix(s, t) if s == t => Some("prefix-reflexivity"),
        Assertion::Prefix(STerm::Empty, _) => Some("empty-least"),
        Assertion::SeqEq(s, t) if s == t => Some("seq-eq-reflexivity"),
        Assertion::And(p, q) => {
            syntactic_valid(p)?;
            syntactic_valid(q)?;
            Some("conjunction")
        }
        Assertion::Implies(p, q) => {
            if syntactic_valid(q).is_some() {
                return Some("implication-of-valid");
            }
            // cons-monotonicity: (s ≤ t) ⇒ (x^s ≤ x^t).
            if let (Assertion::Prefix(s, t), Assertion::Prefix(s2, t2)) = (p.as_ref(), q.as_ref()) {
                if let (STerm::Cons(x1, s1), STerm::Cons(x2, t1)) = (s2, t2) {
                    if x1 == x2 && s1.as_ref() == s && t1.as_ref() == t {
                        return Some("cons-monotonicity");
                    }
                }
                // prefix-transitivity: (s ≤ t) ⇒ (r ≤ t) when r ≤ s is
                // itself one of the conjuncts — decided by the symbolic
                // stage in general; only the degenerate r == s case is
                // syntactic:
                if s2 == s && t2 == t {
                    return Some("implication-reflexivity");
                }
            }
            None
        }
        // A universally quantified valid body is valid; report the body's
        // law so callers see the substantive step (e.g. the copier proof's
        // cons-monotonicity, which the checker wraps in its binders).
        Assertion::ForallIn(_, _, body) => syntactic_valid(body),
        _ => None,
    }
}

/// Exhaustive evaluation over bounded histories and valuations: the
/// third stage of [`decide_valid`], which finds the counterexamples, and
/// the oracle the symbolic stage is tested against.
pub fn bounded_valid(
    a: &Assertion,
    universe: &Universe,
    funcs: &FuncTable,
    config: DecideConfig,
) -> Decision {
    // The channels mentioned. Channel subscripts must be closed here;
    // pure premises in the paper's proofs always use concrete channels.
    let mut channels: Vec<Channel> = Vec::new();
    for c in a.channels() {
        match c.resolve(&Env::new()) {
            Ok(ch) => {
                if !channels.contains(&ch) {
                    channels.push(ch);
                }
            }
            Err(e) => {
                return Decision::Unknown {
                    reason: format!("channel subscript not closed: {e}"),
                }
            }
        }
    }
    let vars = free_vars(a);

    // The value alphabet: the universe's naturals plus the signal atoms
    // any registered history could carry. We use the naturals and the two
    // protocol signals; richer alphabets can be injected via named sets in
    // the universe (resolved below if a set named "_alphabet" exists).
    let mut alphabet: Vec<Value> = (0..=universe.nat_bound()).map(Value::nat).collect();
    alphabet.push(Value::sym("ACK"));
    alphabet.push(Value::sym("NACK"));
    if let Some(extra) = universe.resolve_named("_alphabet") {
        for v in extra {
            if !alphabet.contains(v) {
                alphabet.push(v.clone());
            }
        }
    }

    // Enumerate sequences up to the length bound, adaptively shrinking
    // the bound when the full case count would exceed the cap — a
    // shallower exhaustive check beats giving up (callers see the bound
    // actually used through the reported case count).
    let mut history_len = config.max_history_len;
    let seqs = loop {
        let seqs = all_seqs(&alphabet, history_len);
        let cases = seqs
            .len()
            .checked_pow(channels.len() as u32)
            .and_then(|h| h.checked_mul(alphabet.len().checked_pow(vars.len() as u32)?));
        match cases {
            Some(n) if n <= config.max_cases => break seqs,
            _ if history_len > 1 => history_len -= 1,
            _ => {
                return Decision::Unknown {
                    reason: format!(
                        "case count exceeds cap even at history length 1 \
                         ({} channels, {} vars)",
                        channels.len(),
                        vars.len()
                    ),
                }
            }
        }
    };

    // One history and one valuation follow the odometers: each bump
    // replaces only the channels (variables) whose choice moved. Every
    // choice starts at 0, the empty sequence and the first value.
    let mut checked = 0usize;
    let mut hist_choice = vec![0usize; channels.len()];
    let mut var_choice = vec![0usize; vars.len()];
    let mut history = History::empty();
    let mut env = Env::new();
    let bind = |env: &mut Env, choice: &[usize]| {
        for (v, &k) in vars.iter().zip(choice) {
            env.bind_mut(v, alphabet[k].clone());
        }
    };
    bind(&mut env, &var_choice);
    loop {
        let ctx = EvalCtx::new(&env, &history, funcs, universe);
        match ctx.assertion(a) {
            Ok(true) => {}
            Ok(false) => {
                return Decision::Refuted { history, env };
            }
            Err(e) => {
                return Decision::Unknown {
                    reason: format!("evaluation failed: {e}"),
                }
            }
        }
        checked += 1;
        if let Some(moved) = bump(&mut var_choice, alphabet.len()) {
            bind(&mut env, &var_choice[..moved]);
            continue;
        }
        // The valuations wrapped round to all-first: start them over on
        // the next history.
        bind(&mut env, &var_choice);
        match bump(&mut hist_choice, seqs.len()) {
            Some(moved) => {
                for (c, &k) in channels.iter().zip(&hist_choice[..moved]) {
                    history.set(c.clone(), seqs[k].clone());
                }
            }
            None => break,
        }
    }
    Decision::ValidBounded { cases: checked }
}

/// All sequences over `alphabet` of length ≤ `max_len`, shortest first.
fn all_seqs(alphabet: &[Value], max_len: usize) -> Vec<Seq<Value>> {
    let mut out = vec![Seq::empty()];
    let mut frontier = vec![Seq::empty()];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for s in &frontier {
            for v in alphabet {
                let ext = s.snoc(v.clone());
                next.push(ext.clone());
                out.push(ext);
            }
        }
        frontier = next;
    }
    out
}

/// Odometer increment: `Some(k)` when slots `0..k` moved and the rest
/// kept their choice, `None` on wrap-around (every slot back to 0, i.e.
/// done). An empty choice vector runs exactly once.
fn bump(choice: &mut [usize], base: usize) -> Option<usize> {
    for (k, slot) in choice.iter_mut().enumerate() {
        *slot += 1;
        if *slot < base {
            return Some(k + 1);
        }
        *slot = 0;
    }
    None
}

/// The free value variables of an assertion (quantifier-bound ones
/// excluded).
pub fn free_vars(a: &Assertion) -> Vec<String> {
    let mut out = Vec::new();
    collect_free(a, &mut Vec::new(), &mut out);
    out
}

fn collect_free(a: &Assertion, bound: &mut Vec<String>, out: &mut Vec<String>) {
    match a {
        Assertion::True | Assertion::False => {}
        Assertion::Prefix(s, t) | Assertion::SeqEq(s, t) => {
            sterm_vars(s, bound, out);
            sterm_vars(t, bound, out);
        }
        Assertion::Cmp(_, x, y) => {
            term_vars(x, bound, out);
            term_vars(y, bound, out);
        }
        Assertion::Not(inner) => collect_free(inner, bound, out),
        Assertion::And(p, q) | Assertion::Or(p, q) | Assertion::Implies(p, q) => {
            collect_free(p, bound, out);
            collect_free(q, bound, out);
        }
        Assertion::ForallIn(x, m, body) | Assertion::ExistsIn(x, m, body) => {
            set_vars(m, bound, out);
            bound.push(x.clone());
            collect_free(body, bound, out);
            bound.pop();
        }
    }
}

fn sterm_vars(s: &STerm, bound: &[String], out: &mut Vec<String>) {
    match s {
        STerm::Hist(c) => {
            for e in c.indices() {
                expr_vars(e, bound, out);
            }
        }
        STerm::Empty => {}
        STerm::Lit(ts) => {
            for t in ts {
                term_vars(t, bound, out);
            }
        }
        STerm::Cons(h, t) => {
            term_vars(h, bound, out);
            sterm_vars(t, bound, out);
        }
        STerm::Concat(a, b) => {
            sterm_vars(a, bound, out);
            sterm_vars(b, bound, out);
        }
        STerm::App(_, arg) => sterm_vars(arg, bound, out),
    }
}

fn term_vars(t: &crate::Term, bound: &[String], out: &mut Vec<String>) {
    match t {
        crate::Term::Expr(e) => expr_vars(e, bound, out),
        crate::Term::Length(s) => sterm_vars(s, bound, out),
        crate::Term::Index(s, i) => {
            sterm_vars(s, bound, out);
            term_vars(i, bound, out);
        }
        crate::Term::Bin(_, a, b) => {
            term_vars(a, bound, out);
            term_vars(b, bound, out);
        }
        crate::Term::Un(_, a) => term_vars(a, bound, out),
    }
}

fn set_vars(m: &csp_lang::SetExpr, bound: &[String], out: &mut Vec<String>) {
    match m {
        csp_lang::SetExpr::Nat | csp_lang::SetExpr::Named(_) => {}
        csp_lang::SetExpr::Range(lo, hi) => {
            expr_vars(lo, bound, out);
            expr_vars(hi, bound, out);
        }
        csp_lang::SetExpr::Enum(es) => {
            for e in es {
                expr_vars(e, bound, out);
            }
        }
    }
}

fn expr_vars(e: &csp_lang::Expr, bound: &[String], out: &mut Vec<String>) {
    for v in csp_lang::free_vars_expr(e) {
        if !bound.contains(&v) && !out.contains(&v) {
            out.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{symbolic_valid, CmpOp, Term};

    fn setup() -> (Universe, FuncTable) {
        (Universe::new(1), FuncTable::with_builtins())
    }

    #[test]
    fn reflexivity_is_syntactic() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("wire"));
        assert_eq!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::ValidSyntactic {
                law: "prefix-reflexivity"
            }
        );
    }

    #[test]
    fn empty_is_least_syntactically() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::Empty, STerm::chan("input"));
        assert!(matches!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::ValidSyntactic { law: "empty-least" }
        ));
    }

    #[test]
    fn cons_monotonicity_is_syntactic() {
        // (wire ≤ input) ⇒ (x^wire ≤ x^input) — the consequence example
        // of §2.1(2).
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input")).implies(
            Assertion::prefix(
                STerm::chan("wire").cons(Term::var("x")),
                STerm::chan("input").cons(Term::var("x")),
            ),
        );
        assert!(matches!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::ValidSyntactic {
                law: "cons-monotonicity"
            }
        ));
    }

    #[test]
    fn transitivity_is_bounded_checked() {
        // (a ≤ b and b ≤ c) ⇒ a ≤ c — used in the protocol proof
        // ("trans ≤"). The oracle agrees with the symbolic stage.
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("a"), STerm::chan("b"))
            .and(Assertion::prefix(STerm::chan("b"), STerm::chan("c")))
            .implies(Assertion::prefix(STerm::chan("a"), STerm::chan("c")));
        let cfg = DecideConfig {
            max_history_len: 2,
            ..DecideConfig::default()
        };
        match bounded_valid(&r, &u, &f, cfg) {
            Decision::ValidBounded { cases } => assert!(cases > 0),
            other => panic!("expected bounded validity, got {other:?}"),
        }
    }

    #[test]
    fn transitivity_is_symbolic() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("a"), STerm::chan("b"))
            .and(Assertion::prefix(STerm::chan("b"), STerm::chan("c")))
            .implies(Assertion::prefix(STerm::chan("a"), STerm::chan("c")));
        assert_eq!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::ValidSymbolic {
                rule: "prefix-transitivity"
            }
        );
    }

    #[test]
    fn invalid_formulas_are_refuted_with_witness() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        match decide_valid(&r, &u, &f, DecideConfig::default()) {
            Decision::Refuted { history, .. } => {
                // The witness really falsifies the formula.
                let env = Env::new();
                let ctx = EvalCtx::new(&env, &history, &f, &u);
                assert!(!ctx.assertion(&r).unwrap());
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn f_definition_facts_check_bounded() {
        // f(<>) ≤ <> — the R_<> premise of the sender proof.
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::Empty.app("f"), STerm::Empty);
        match bounded_valid(&r, &u, &f, DecideConfig::default()) {
            Decision::ValidBounded { .. } => {}
            other => panic!("expected bounded validity, got {other:?}"),
        }
        // f(ACK^wire) == f(wire): cancellation law.
        let law = Assertion::SeqEq(
            STerm::chan("wire").cons(Term::sym("ACK")).app("f"),
            STerm::chan("wire").app("f"),
        );
        assert!(bounded_valid(&law, &u, &f, DecideConfig::default()).is_valid());
    }

    #[test]
    fn f_definition_facts_are_symbolic() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::Empty.app("f"), STerm::Empty);
        assert_eq!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::ValidSymbolic {
                rule: "declared-equations"
            }
        );
        // f(ACK^wire) == f(wire) rests on f(x^ACK^s) = x^f(s) with x a
        // message, which ACK is not: the stage gives no answer, and the
        // bounded checker still finds it valid.
        let law = Assertion::SeqEq(
            STerm::chan("wire").cons(Term::sym("ACK")).app("f"),
            STerm::chan("wire").app("f"),
        );
        assert_eq!(symbolic_valid(&law, &u, &f), None);
        // f(x^NACK^wire) == f(wire) holds for every x.
        let nack = Assertion::ForallIn(
            "x".into(),
            csp_lang::SetExpr::Nat,
            Box::new(Assertion::SeqEq(
                STerm::chan("wire")
                    .cons(Term::sym("NACK"))
                    .cons(Term::var("x"))
                    .app("f"),
                STerm::chan("wire").app("f"),
            )),
        );
        assert_eq!(symbolic_valid(&nack, &u, &f), Some("declared-equations"));
    }

    #[test]
    fn a_signal_binder_gets_no_message_equation() {
        // With x = NACK, f(NACK^ACK^wire) = f(wire), not NACK^f(wire):
        // the premise is false, and only the bounded checker answers.
        let (u, f) = setup();
        let info = crate::ChannelInfo::new()
            .with_channels(["wire", "input"])
            .with_funcs(["f"]);
        let r = crate::parse_assertion(
            "forall x:{NACK}. (f(wire) <= input => f(x^ACK^wire) <= x^input)",
            &info,
        )
        .unwrap();
        assert_eq!(symbolic_valid(&r, &u, &f), None);
        assert!(matches!(
            decide_valid(&r, &u, &f, DecideConfig::default()),
            Decision::Refuted { .. }
        ));
        // Over M = {0, 1} the same premise is the sender's Table 1 step.
        let m = Universe::new(1).with_named("M", [Value::nat(0), Value::nat(1)]);
        let ok = crate::parse_assertion(
            "forall x:M. (forall w:{ACK}. (f(wire) <= input => f(x^w^wire) <= x^input))",
            &info,
        )
        .unwrap();
        assert_eq!(symbolic_valid(&ok, &m, &f), Some("declared-equations"));
        // An unregistered f declares no equations.
        let mut plain = FuncTable::new();
        plain.register("f", std::sync::Arc::new(crate::protocol_cancel));
        assert_eq!(symbolic_valid(&ok, &m, &plain), None);
    }

    #[test]
    fn length_bounds_and_contradictions_are_symbolic() {
        let (u, f) = setup();
        let info = crate::ChannelInfo::new().with_channels(["in", "link", "out", "c"]);
        let read = |src: &str| crate::parse_assertion(src, &info).unwrap();
        let cases = [
            ("#<> <= #<> + 1", Some("normalisation")),
            (
                "(#in <= #link + 1 and #link <= #out + 1) => #in <= #out + 2",
                Some("difference-bounds"),
            ),
            (
                "(#in <= #link + 1 and #link <= #out + 1) => #in <= #out + 1",
                None,
            ),
            (
                "forall i:NAT. ((1 <= i and i <= #<>) => <>[i] == 0)",
                Some("contradictory-hypotheses"),
            ),
            (
                "(forall i:NAT. ((1 <= i and i <= #c) => c[i] == 0)) => \
                 forall i:NAT. ((1 <= i and i <= #(0^c)) => (0^c)[i] == 0)",
                Some("index-split"),
            ),
            (
                "(forall i:NAT. ((1 <= i and i <= #c) => c[i] == 0)) => \
                 forall i:NAT. ((1 <= i and i <= #(1^c)) => (1^c)[i] == 0)",
                None,
            ),
            (
                "(forall i:NAT. ((1 <= i and i <= #c) => c[i] == 0)) => \
                 forall i:NAT. ((1 <= i and i <= #(0^c) + 1) => (0^c)[i] == 0)",
                None,
            ),
        ];
        // The last formula is false at i = #c + 2, an index the bounded
        // reading's `∀i:NAT` (up to the history's length) never takes.
        for (src, want) in cases {
            let a = read(src);
            assert_eq!(symbolic_valid(&a, &u, &f), want, "{src}");
            if want.is_some() {
                let bounded = bounded_valid(&a, &u, &f, DecideConfig::default());
                assert!(bounded.is_valid(), "{src}: {bounded:?}");
            }
        }
    }

    #[test]
    fn free_variables_are_universally_quantified() {
        let (u, f) = setup();
        // x == x is valid for all x.
        let r = Assertion::Cmp(CmpOp::Eq, Term::var("x"), Term::var("x"));
        assert!(decide_valid(&r, &u, &f, DecideConfig::default()).is_valid());
        // x == 0 is refuted (x = 1 is a counterexample).
        let r2 = Assertion::Cmp(CmpOp::Eq, Term::var("x"), Term::int(0));
        assert!(!decide_valid(&r2, &u, &f, DecideConfig::default()).is_valid());
    }

    #[test]
    fn case_cap_reports_unknown() {
        let (u, f) = setup();
        let r = Assertion::prefix(STerm::chan("a"), STerm::chan("b"))
            .and(Assertion::prefix(STerm::chan("c"), STerm::chan("d")))
            .and(Assertion::prefix(STerm::chan("e"), STerm::chan("g")));
        let cfg = DecideConfig {
            max_history_len: 3,
            max_cases: 10,
        };
        assert!(matches!(
            decide_valid(&r, &u, &f, cfg),
            Decision::Unknown { .. }
        ));
    }

    #[test]
    fn free_vars_respects_quantifiers() {
        let r = Assertion::ForallIn(
            "i".into(),
            csp_lang::SetExpr::Nat,
            Box::new(Assertion::Cmp(CmpOp::Le, Term::var("i"), Term::var("n"))),
        );
        assert_eq!(free_vars(&r), vec!["n".to_string()]);
    }
}
