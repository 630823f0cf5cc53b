//! Property tests for the assertion language, centred on the
//! environment lemmas of §3.4 that the soundness proofs rest on:
//!
//! * lemma (a): `(ρ + ch(s))⟦R^x_e⟧ = (ρ[⟦e⟧/x] + ch(s))⟦R⟧`,
//! * lemma (b): `(ρ + ch(<>))⟦R⟧ = ρ⟦R_<>⟧`,
//! * lemma (c): `(ρ + ch(s))⟦R^c_{e^c}⟧ = (ρ + ch((c.e)^s))⟦R⟧`,
//! * lemma (d): restriction invariance for unmentioned channels,
//!
//! plus parser/printer round-tripping for the assertion syntax.

use csp::{
    parse_assertion, Assertion, Channel, ChannelInfo, CmpOp, Env, EvalCtx, Expr, FuncTable,
    History, STerm, SetExpr, Term, Trace, Universe, Value,
};
use proptest::prelude::*;

fn info() -> ChannelInfo {
    ChannelInfo::new()
        .with_channels(["a", "b", "wire", "input"])
        .with_funcs(["f"])
}

// ------------------------------------------------------------ strategies --

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..3).prop_map(Value::nat),
        Just(Value::sym("ACK")),
        Just(Value::sym("NACK")),
    ]
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(
        (
            prop_oneof![Just("a"), Just("b"), Just("wire"), Just("input")],
            arb_value(),
        ),
        0..6,
    )
    .prop_map(|pairs| {
        Trace::from_events(
            pairs
                .into_iter()
                .map(|(c, v)| csp::Event::new(Channel::simple(c), v)),
        )
    })
}

fn arb_sterm() -> impl Strategy<Value = STerm> {
    let leaf = prop_oneof![
        Just(STerm::chan("a")),
        Just(STerm::chan("b")),
        Just(STerm::chan("wire")),
        Just(STerm::Empty),
        (0i64..3).prop_map(|n| STerm::Lit(vec![Term::int(n)])),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            ((0i64..3), inner.clone())
                .prop_map(|(n, s)| STerm::Cons(Box::new(Term::int(n)), Box::new(s))),
            inner.clone().prop_map(|s| s.app("f")),
            (inner.clone(), inner).prop_map(|(x, y)| STerm::Concat(Box::new(x), Box::new(y))),
        ]
    })
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..4).prop_map(Term::int),
        Just(Term::var("x")),
        arb_sterm().prop_map(Term::length),
        (arb_sterm(), 1i64..4).prop_map(|(s, i)| Term::Index(Box::new(s), Box::new(Term::int(i)))),
        (arb_sterm().prop_map(Term::length), 0i64..3).prop_map(|(l, n)| l.add(Term::int(n))),
    ]
}

fn arb_assertion() -> impl Strategy<Value = Assertion> {
    use Assertion::{ExistsIn, ForallIn};
    let atom = prop_oneof![
        (arb_sterm(), arb_sterm()).prop_map(|(s, t)| Assertion::Prefix(s, t)),
        (arb_sterm(), arb_sterm()).prop_map(|(s, t)| Assertion::SeqEq(s, t)),
        (arb_term(), arb_term()).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Le, x, y)),
        (arb_term(), arb_term()).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Eq, x, y)),
        Just(Assertion::True),
        Just(Assertion::False),
    ];
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Assertion::negate),
            (arb_binder(), inner.clone()).prop_map(|((x, m), a)| ForallIn(x, m, a.into())),
            (arb_binder(), inner).prop_map(|((x, m), a)| ExistsIn(x, m, a.into())),
        ]
    })
}

/// A quantifier's variable and set: `x` shadows the variable the terms
/// use, `i` binds a fresh one.
fn arb_binder() -> impl Strategy<Value = (String, SetExpr)> {
    prop_oneof![
        Just(("x".to_string(), SetExpr::range(0, 2))),
        Just(("i".to_string(), SetExpr::Nat)),
    ]
}

/// Evaluates, returning `None` when the generated instance falls outside
/// the typed fragment (e.g. an ACK flowing into an integer comparison) —
/// such instances are skipped, matching the paper's implicit typing
/// assumption (§1.1: "a strict typing system would be desirable …
/// we shall henceforth ignore the matter").
fn try_eval(a: &Assertion, h: &History, env: &Env) -> Option<bool> {
    let funcs = FuncTable::with_builtins();
    let uni = Universe::new(3);
    EvalCtx::new(env, h, &funcs, &uni).assertion(a).ok()
}

fn eval_with(a: &Assertion, h: &History, env: &Env) -> bool {
    try_eval(a, h, env).expect("instance outside the typed fragment")
}

// ------------------------------------------------------------ properties --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Display → parse round-trips on the generated fragment.
    #[test]
    fn display_parse_roundtrip(a in arb_assertion()) {
        let printed = a.to_string();
        let reparsed = parse_assertion(&printed, &info())
            .unwrap_or_else(|e| panic!("unparsable rendering `{printed}`: {e}"));
        prop_assert_eq!(reparsed, a);
    }

    /// Lemma (b): evaluating `R_<>` in any history equals evaluating `R`
    /// in the empty history.
    #[test]
    fn lemma_b_empty_substitution(a in arb_assertion(), s in arb_trace()) {
        let env = Env::new().bind("x", Value::nat(1));
        let substituted = csp::Assertion::to_string(&csp_subst_empty(&a));
        let _ = substituted;
        let lhs = try_eval(&csp_subst_empty(&a), &s.history(), &env);
        let rhs = try_eval(&a, &History::empty(), &env);
        prop_assume!(lhs.is_some() && rhs.is_some());
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma (c): `R^c_{e^c}` evaluated in `ch(s)` equals `R` evaluated
    /// in `ch((c.e)^s)`.
    #[test]
    fn lemma_c_channel_cons(a in arb_assertion(), s in arb_trace(), v in arb_value()) {
        let env = Env::new().bind("x", Value::nat(1));
        let c = csp::ChanRef::simple("wire");
        let substituted =
            csp::subst_chan_cons(&a, &c, &Term::Expr(Expr::Const(v.clone())));
        let consed = s.history().cons_on(&Channel::simple("wire"), v);
        let lhs = try_eval(&substituted, &s.history(), &env);
        let rhs = try_eval(&a, &consed, &env);
        prop_assume!(lhs.is_some() && rhs.is_some());
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma (a): substituting a constant for a variable equals binding
    /// it in the environment.
    #[test]
    fn lemma_a_variable_substitution(a in arb_assertion(), s in arb_trace(), n in 0i64..4) {
        let substituted = csp::subst_var(&a, "x", &Expr::int(n));
        let lhs = try_eval(&substituted, &s.history(), &Env::new().bind("x", Value::nat(9)));
        let rhs = try_eval(&a, &s.history(), &Env::new().bind("x", Value::Int(n)));
        prop_assume!(lhs.is_some() && rhs.is_some());
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma (d): evaluation ignores channels the assertion does not
    /// mention — here, events on `input` never change an assertion over
    /// `a`, `b`, `wire` only.
    #[test]
    fn lemma_d_restriction_invariance(a in arb_assertion(), s in arb_trace(), v in arb_value()) {
        prop_assume!(!a.channel_bases().contains("input"));
        let env = Env::new().bind("x", Value::nat(1));
        let with_event = s.snoc(csp::Event::new(Channel::simple("input"), v));
        let lhs = try_eval(&a, &s.history(), &env);
        let rhs = try_eval(&a, &with_event.history(), &env);
        prop_assume!(lhs.is_some() && rhs.is_some());
        prop_assert_eq!(lhs, rhs);
    }

    /// Double negation and De Morgan at the evaluation level.
    #[test]
    fn boolean_laws(a in arb_assertion(), b in arb_assertion(), s in arb_trace()) {
        let env = Env::new().bind("x", Value::nat(1));
        let h = s.history();
        prop_assume!(
            try_eval(&a, &h, &env).is_some() && try_eval(&b, &h, &env).is_some()
        );
        prop_assert_eq!(
            eval_with(&a.clone().negate().negate(), &h, &env),
            eval_with(&a, &h, &env)
        );
        prop_assert_eq!(
            eval_with(&a.clone().and(b.clone()).negate(), &h, &env),
            eval_with(&a.clone().negate().or(b.clone().negate()), &h, &env)
        );
        // Implication is material.
        prop_assert_eq!(
            eval_with(&a.clone().implies(b.clone()), &h, &env),
            eval_with(&a.negate().or(b), &h, &env)
        );
    }
}

fn csp_subst_empty(a: &Assertion) -> Assertion {
    csp::subst_empty(a)
}

#[test]
fn protocol_cancel_is_idempotent_on_clean_sequences() {
    // f(f(s)) = f(s) whenever f(s) contains no signals — a derived law
    // the paper uses silently.
    use csp::protocol_cancel;
    use csp::Seq;
    let s: Seq<Value> = [
        Value::nat(1),
        Value::sym("NACK"),
        Value::nat(1),
        Value::sym("ACK"),
        Value::nat(2),
    ]
    .into_iter()
    .collect();
    let once = protocol_cancel(&s);
    assert_eq!(protocol_cancel(&once), once);
}
