//! Property tests for the assertion language, centred on the
//! environment lemmas of §3.4 that the soundness proofs rest on:
//!
//! * lemma (a): `(ρ + ch(s))⟦R^x_e⟧ = (ρ[⟦e⟧/x] + ch(s))⟦R⟧`,
//! * lemma (b): `(ρ + ch(<>))⟦R⟧ = ρ⟦R_<>⟧`,
//! * lemma (c): `(ρ + ch(s))⟦R^c_{e^c}⟧ = (ρ + ch((c.e)^s))⟦R⟧`,
//! * lemma (d): restriction invariance for unmentioned channels,
//!
//! plus parser/printer round-tripping for the assertion syntax, and the
//! compiled evaluator against the interpreter it must agree with.

use csp::{
    bounded_valid, parse_assertion, symbolic_valid, AssertError, Assertion, BinOp, Channel,
    ChannelInfo, CmpOp, CompiledAssertion, DecideConfig, Decision, Env, EvalCtx, Expr, FuncTable,
    History, STerm, Seq, SetExpr, Term, Trace, Universe, Value,
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

fn arb_atom() -> impl Strategy<Value = Assertion> {
    prop_oneof![
        (arb_sterm(), arb_sterm()).prop_map(|(s, t)| Assertion::Prefix(s, t)),
        (arb_sterm(), arb_sterm()).prop_map(|(s, t)| Assertion::SeqEq(s, t)),
        (arb_term(), arb_term()).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Le, x, y)),
        (arb_term(), arb_term()).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Eq, x, y)),
        Just(Assertion::True),
        Just(Assertion::False),
    ]
}

fn arb_assertion() -> impl Strategy<Value = Assertion> {
    connect(arb_atom(), arb_binder().boxed(), 2)
}

/// Atoms joined by connectives and quantifiers, `depth` layers deep.
fn connect(
    atom: impl Strategy<Value = Assertion> + 'static,
    binder: BoxedStrategy<(String, SetExpr)>,
    depth: u32,
) -> BoxedStrategy<Assertion> {
    use Assertion::{ExistsIn, ForallIn};
    atom.prop_recursive(depth, 12, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Assertion::negate),
            (binder.clone(), inner.clone()).prop_map(|((x, m), a)| ForallIn(x, m, a.into())),
            (binder.clone(), inner).prop_map(|((x, m), a)| ExistsIn(x, m, a.into())),
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

// ----------------------------------------------------- the symbolic stage --

/// A cons head: the two messages, the two signals, `x` (bound by the
/// formula's binder) and the free `y`, which may hold any value.
fn frag_head() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..2).prop_map(Term::int),
        Just(Term::sym("ACK")),
        Just(Term::sym("NACK")),
        Just(Term::var("x")),
        Just(Term::var("y")),
    ]
}

fn frag_seq() -> impl Strategy<Value = STerm> {
    let leaf = prop_oneof![
        Just(STerm::chan("a")),
        Just(STerm::chan("b")),
        Just(STerm::Empty),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
        prop_oneof![
            (frag_head(), inner.clone()).prop_map(|(x, s)| s.cons(x)),
            inner.clone().prop_map(|s| s.app("f")),
            (inner.clone(), inner).prop_map(|(s, t)| STerm::Concat(Box::new(s), Box::new(t))),
        ]
    })
}

fn frag_int() -> impl Strategy<Value = Term> {
    prop_oneof![
        frag_seq().prop_map(Term::length),
        (frag_seq(), 0i64..3).prop_map(|(s, k)| Term::length(s).add(Term::int(k))),
        (0i64..3).prop_map(Term::int),
        Just(Term::var("x")),
    ]
}

fn frag_atom() -> impl Strategy<Value = Assertion> {
    let op = prop_oneof![
        Just(CmpOp::Le),
        Just(CmpOp::Lt),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne)
    ];
    prop_oneof![
        (frag_seq(), frag_seq()).prop_map(|(s, t)| Assertion::Prefix(s, t)),
        (frag_seq(), frag_seq()).prop_map(|(s, t)| Assertion::SeqEq(s, t)),
        (op, frag_int(), frag_int()).prop_map(|(op, x, y)| Assertion::Cmp(op, x, y)),
        (frag_seq(), 0i64..3, frag_head()).prop_map(|(s, i, v)| Assertion::Cmp(
            CmpOp::Eq,
            Term::Index(Box::new(s), Box::new(Term::int(i))),
            v
        )),
    ]
}

/// Hypotheses and a goal, from templates shaped like the paper's
/// premises (so that a good share is valid) and at random.
fn frag_body() -> impl Strategy<Value = (Vec<Assertion>, Assertion)> {
    let le = |s: STerm, t: STerm| Assertion::prefix(s, t);
    let len_le = |s: STerm, t: STerm, k: i64| {
        Assertion::Cmp(
            CmpOp::Le,
            Term::length(s),
            Term::length(t).add(Term::int(k)),
        )
    };
    prop_oneof![
        (prop::collection::vec(frag_atom(), 0..3), frag_atom()),
        (frag_seq(), frag_seq(), frag_seq(), 0usize..4).prop_map(move |(p, q, r, g)| {
            let goals = [
                le(p.clone(), r.clone()),
                le(r.clone(), p.clone()),
                le(q.clone(), p.clone()),
                le(p.clone(), q.clone()),
            ];
            (vec![le(p, q.clone()), le(q, r)], goals[g].clone())
        }),
        (frag_seq(), frag_seq(), frag_head(), frag_head()).prop_map(move |(s, t, h1, h2)| (
            vec![le(s.clone(), t.clone())],
            le(s.cons(h1), t.cons(h2))
        )),
        (
            frag_seq(),
            frag_seq(),
            frag_head(),
            frag_head(),
            prop_oneof![Just(true), Just(false)]
        )
            .prop_map(move |(s, t, h, sig, cons_right)| {
                let goal_left = s.clone().cons(sig).cons(h.clone()).app("f");
                let goal_right = if cons_right {
                    t.clone().cons(h)
                } else {
                    t.clone()
                };
                (vec![le(s.app("f"), t)], le(goal_left, goal_right))
            }),
        (
            (frag_seq(), frag_seq(), frag_seq()),
            (0i64..3, 0i64..3, 0i64..5)
        )
            .prop_map(move |((s, t, u), (k1, k2, k3))| {
                (
                    vec![len_le(s.clone(), t.clone(), k1), len_le(t, u.clone(), k2)],
                    len_le(s, u, k3),
                )
            }),
        (frag_head(), frag_head(), 0i64..2).prop_map(|(h, v, slack)| {
            let guard = |s: STerm, var: &str, slack: i64| {
                Assertion::Cmp(CmpOp::Le, Term::int(1), Term::var(var)).and(Assertion::Cmp(
                    CmpOp::Le,
                    Term::var(var),
                    Term::length(s).add(Term::int(slack)),
                ))
            };
            let all = |var: &str, s: STerm, slack: i64| {
                let body = Assertion::Cmp(
                    CmpOp::Eq,
                    Term::Index(Box::new(s.clone()), Box::new(Term::var(var))),
                    v.clone(),
                );
                Assertion::ForallIn(
                    var.to_string(),
                    SetExpr::Nat,
                    Box::new(guard(s, var, slack).implies(body)),
                )
            };
            let a = STerm::chan("a");
            (vec![all("j", a.clone(), 0)], all("i", a.cons(h), slack))
        }),
    ]
}

/// `∀x:S. (H₁ ∧ … ⇒ G)`, over the sets the stage tells apart.
fn frag_formula() -> impl Strategy<Value = Assertion> {
    let set = prop_oneof![
        Just(SetExpr::Nat),
        Just(SetExpr::range(0, 1)),
        Just(SetExpr::Named("M".into())),
        Just(SetExpr::enumeration([
            Value::sym("ACK"),
            Value::sym("NACK")
        ])),
        Just(SetExpr::enumeration([Value::sym("ACK")])),
        Just(SetExpr::enumeration([Value::sym("NACK")])),
    ];
    (set, frag_body()).prop_map(|(m, (hyps, goal))| {
        let body = match hyps.into_iter().reduce(Assertion::and) {
            Some(h) => h.implies(goal),
            None => goal,
        };
        Assertion::ForallIn("x".into(), m, Box::new(body))
    })
}

/// The fragment, and (a third of the time) the general generator, whose
/// formulas mostly fall outside it or fail to evaluate.
fn oracle_formula() -> impl Strategy<Value = Assertion> {
    prop_oneof![frag_formula(), frag_formula(), arb_assertion()]
}

fn frag_oracle(a: &Assertion) -> (Option<&'static str>, Decision) {
    let uni = Universe::new(1).with_named("M", [Value::nat(0), Value::nat(1)]);
    let funcs = FuncTable::with_builtins();
    let config = DecideConfig {
        max_history_len: 2,
        ..DecideConfig::default()
    };
    (
        symbolic_valid(a, &uni, &funcs),
        bounded_valid(a, &uni, &funcs, config),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// What the symbolic stage proves, the bounded checker finds valid:
    /// no counterexample, and no evaluation failure either.
    #[test]
    fn symbolic_valid_implies_bounded_valid(a in oracle_formula()) {
        let (symbolic, bounded) = frag_oracle(&a);
        if let Some(rule) = symbolic {
            prop_assert!(
                matches!(bounded, Decision::ValidBounded { .. }),
                "{a} proved by {rule}, but bounded: {bounded:?}"
            );
        }
    }

    /// A formula the bounded checker refutes gets no symbolic answer.
    #[test]
    fn bounded_refuted_gets_no_symbolic_answer(a in oracle_formula()) {
        let (symbolic, bounded) = frag_oracle(&a);
        if matches!(bounded, Decision::Refuted { .. }) {
            prop_assert_eq!(symbolic, None, "{} is refuted", a);
        }
    }

    /// Each equation declared with the built-in `f` agrees with
    /// `protocol_cancel` on sequences over {0, 1, ACK, NACK}.
    #[test]
    fn declared_f_equations_agree_with_protocol_cancel(
        xs in prop::collection::vec(arb_value(), 0..3),
        rest in prop::collection::vec(arb_value(), 0..5),
    ) {
        let funcs = FuncTable::with_builtins();
        let f = funcs.get("f").unwrap();
        let rest: Seq<Value> = rest.into_iter().collect();
        for eq in funcs.equations("f") {
            let heads = &xs[..eq.heads.len().min(xs.len())];
            if let Some((lhs, rhs)) = eq.sides(f, heads, &rest) {
                prop_assert_eq!(lhs, rhs, "{:?} at {:?}, {}", eq, heads, rest);
            }
        }
    }
}

#[test]
fn the_fragment_generator_reaches_every_symbolic_rule() {
    let mut rng = <proptest::TestRng as rand::SeedableRng>::seed_from_u64(7);
    let formulas = frag_formula();
    let mut rules = std::collections::BTreeSet::new();
    let mut proved = 0;
    for _ in 0..400 {
        let a = formulas.generate(&mut rng);
        if let (Some(rule), _) = frag_oracle(&a) {
            rules.insert(rule);
            proved += 1;
        }
    }
    assert!(proved >= 40, "only {proved} of 400 proved symbolically");
    for rule in [
        "declared-equations",
        "prefix-transitivity",
        "difference-bounds",
        "index-split",
        "normalisation",
    ] {
        assert!(rules.contains(rule), "{rule} never used: {rules:?}");
    }
}

// ------------------------------------------------ the compiled evaluator --

/// Atoms that read what `arb_atom`'s do not: the `i` that `NAT` binds;
/// an array cell, a channel and an expression read through a bound
/// variable; and what fails to evaluate: the unknown function `g`, also
/// on an argument that fails itself, and the variable `z`, which ρ never
/// binds.
fn open_atom() -> impl Strategy<Value = Assertion> {
    let cell = |e: Expr| Term::Expr(Expr::ArrayRef("v".into(), Box::new(e)));
    let open = prop_oneof![
        Just(Term::var("i")),
        Just(Term::var("z")),
        Just(cell(Expr::var("x"))),
        Just(cell(Expr::var("i").add(Expr::var("x")))),
        Just(Term::Expr(Expr::var("x").add(Expr::var("z")))),
        arb_sterm().prop_map(|s| Term::length(s.app("g"))),
        Just(Term::length(STerm::chan_at("a", Expr::var("x")))),
        arb_sterm().prop_map(|s| Term::Index(Box::new(s), Box::new(Term::var("i")))),
    ]
    .boxed();
    let failing_arg = prop_oneof![Just(STerm::chan("a")), Just(STerm::Empty)]
        .prop_map(|s| s.cons(Term::var("z")));
    prop_oneof![
        (open.clone(), arb_term()).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Le, x, y)),
        (arb_term(), open).prop_map(|(x, y)| Assertion::Cmp(CmpOp::Eq, x, y)),
        arb_sterm().prop_map(|s| Assertion::SeqEq(s.app("g"), STerm::Empty)),
        (prop_oneof![Just("f"), Just("g")], failing_arg)
            .prop_map(|(f, s)| Assertion::SeqEq(s.app(f), STerm::Empty)),
    ]
}

/// `arb_binder`'s, and `x` over `{0..x}`: a set read in the scope
/// outside its quantifier, from ρ or from an outer `x`.
fn open_binder() -> impl Strategy<Value = (String, SetExpr)> {
    let upto_x = SetExpr::Range(Box::new(Expr::int(0)), Box::new(Expr::var("x")));
    prop_oneof![arb_binder(), Just(("x".to_string(), upto_x))]
}

fn arb_open_assertion() -> impl Strategy<Value = Assertion> {
    let atom = prop_oneof![arb_atom(), arb_atom(), open_atom()];
    connect(atom, open_binder().boxed(), 3)
}

/// `∀j:{0..2}. ∀i:NAT. G ⇒ B` (`∃i` for the inner one half the time)
/// with `G` a guard the compiled form may narrow: either conjunct order,
/// `<` or `<=` on either side, `lo` in −1..3 and `hi = #c + k` with `k`
/// in −1..2, spelled `#c`, `#c + k` or `#c - (−k)`; a bound sometimes
/// compares the outer `j` instead of `i`.
fn arb_guarded() -> impl Strategy<Value = Assertion> {
    let bit = || prop_oneof![Just(false), Just(true)];
    let var = || prop_oneof![Just("i"), Just("i"), Just("i"), Just("j")];
    let chan = prop_oneof![Just("a"), Just("wire")];
    let body = prop_oneof![
        Just(Assertion::Cmp(
            CmpOp::Eq,
            Term::Index(Box::new(STerm::chan("a")), Box::new(Term::var("i"))),
            Term::int(1),
        )),
        Just(Assertion::Cmp(
            CmpOp::Le,
            Term::Index(Box::new(STerm::chan("wire")), Box::new(Term::var("i"))),
            Term::int(1),
        )),
        Just(Assertion::Cmp(CmpOp::Le, Term::var("i"), Term::int(2))),
        Just(Assertion::Cmp(CmpOp::Le, Term::var("z"), Term::var("i"))),
    ];
    (
        (-1i64..3, -1i64..2, chan),
        (bit(), bit(), bit()),
        (bit(), bit()),
        (var(), var()),
        body,
    )
        .prop_map(
            |((lo, k, c), (lo_strict, hi_strict, swap), (spell_minus, exists), (v, w), body)| {
                let op = |strict| if strict { CmpOp::Lt } else { CmpOp::Le };
                let len = Term::length(STerm::chan(c));
                let hi = match k {
                    0 if !spell_minus => len,
                    k if k < 0 || spell_minus => {
                        Term::Bin(BinOp::Sub, Box::new(len), Box::new(Term::int(-k)))
                    }
                    k => len.add(Term::int(k)),
                };
                let lower = Assertion::Cmp(op(lo_strict), Term::int(lo), Term::var(v));
                let upper = Assertion::Cmp(op(hi_strict), Term::var(w), hi);
                let guard = if swap {
                    upper.and(lower)
                } else {
                    lower.and(upper)
                };
                let body = Box::new(guard.implies(body));
                let inner = if exists {
                    Assertion::ExistsIn("i".into(), SetExpr::Nat, body)
                } else {
                    Assertion::ForallIn("i".into(), SetExpr::Nat, body)
                };
                Assertion::ForallIn("j".into(), SetExpr::range(0, 2), Box::new(inner))
            },
        )
}

/// An answer with its error as text, so that the two evaluators' errors
/// compare.
fn answer(r: Result<bool, AssertError>) -> Result<bool, String> {
    r.map_err(|e| e.to_string())
}

/// Compiles `a` once and judges every prefix of `s` with it, beside the
/// interpreter at the same moment. Returns the values the compiled form
/// bound.
fn compiled_agrees(a: &Assertion, s: &Trace, env: &Env, uni: &Universe) -> u64 {
    let funcs = FuncTable::with_builtins();
    let mut compiled = CompiledAssertion::new(a, env, &funcs, uni);
    let mut h = History::empty();
    for k in 0..=s.len() {
        if k > 0 {
            let e = &s.events()[k - 1];
            h.push(e.channel(), e.value().clone());
        }
        let want = EvalCtx::new(env, &h, &funcs, uni).assertion(a);
        assert_eq!(
            answer(compiled.holds(&h)),
            answer(want),
            "{a} at {k} events of {s}, ρ = {env}"
        );
    }
    compiled.bindings()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compiled form gives the interpreter's value or error at every
    /// moment, with `x` bound in ρ and without.
    #[test]
    fn compiled_assertions_match_the_interpreter(
        a in arb_open_assertion(),
        s in arb_trace(),
        x_bound in prop_oneof![Just(false), Just(true)],
    ) {
        let env = Env::new().bind("v[1]", Value::nat(2));
        let env = if x_bound { env.bind("x", Value::nat(1)) } else { env };
        compiled_agrees(&a, &s, &env, &Universe::new(3));
    }

    /// A narrowable guard changes no answer, whatever the nat bound,
    /// including histories longer than the bound.
    #[test]
    fn guarded_walks_match_the_interpreter(
        a in arb_guarded(),
        s in arb_trace(),
        bound in 0u32..4,
    ) {
        compiled_agrees(&a, &s, &Env::new(), &Universe::new(bound));
    }
}

#[test]
fn a_guard_walks_only_the_values_it_admits() {
    // ∀i:NAT. 1 ≤ i ∧ i ≤ #a ⇒ a[i] == 1 over five `a`s: five bindings
    // at the last moment, where the full walk binds 0..=5.
    let a = parse_assertion("forall i:NAT. 1 <= i and i <= #a => a[i] == 1", &info()).unwrap();
    let s = Trace::parse_like(std::iter::repeat_n(("a", Value::nat(1)), 5));
    let narrowed = compiled_agrees(&a, &s, &Env::new(), &Universe::new(1));
    assert_eq!(narrowed, (1..=5).sum::<u64>());
    // The same guard under ∃ is not narrowed: i = 0 makes it true.
    let e = parse_assertion("exists i:NAT. 1 <= i and i <= #a => a[i] == 1", &info()).unwrap();
    assert_eq!(compiled_agrees(&e, &s, &Env::new(), &Universe::new(1)), 6);
}

#[test]
fn a_quantifier_restores_the_outer_binding() {
    let funcs = FuncTable::with_builtins();
    let uni = Universe::new(1);
    let h = History::empty();
    let both = |src: &str, env: &Env| {
        let a = parse_assertion(src, &info()).unwrap();
        let compiled = CompiledAssertion::new(&a, env, &funcs, &uni).holds(&h);
        let interpreted = EvalCtx::new(env, &h, &funcs, &uni).assertion(&a);
        (answer(compiled), answer(interpreted))
    };
    let unbound = Env::new().bind("v[1]", Value::nat(7));
    let one = unbound.bind("x", Value::nat(1));
    // `x` is free again after its quantifier: unbound, it still errors.
    let after = "(forall x:{0..2}. x <= 2) and x == 1";
    let (compiled, interpreted) = both(after, &unbound);
    assert_eq!(compiled, interpreted);
    assert!(compiled.unwrap_err().contains("`x`"));
    assert_eq!(both(after, &one), (Ok(true), Ok(true)));
    // Read beside a bound `i`, so evaluated per value, not once: the
    // cell is `v[1]` at i = 0, with ρ's `x`, not the quantifier's last.
    let beside = "exists i:{0..1}. ((forall x:{0..2}. x <= 2) and v[i + x] == 7)";
    let (compiled, interpreted) = both(beside, &unbound);
    assert_eq!(compiled, interpreted);
    assert!(compiled.unwrap_err().contains("`x`"));
    assert_eq!(both(beside, &one), (Ok(true), Ok(true)));
    // A set is read in the scope outside its quantifier, each time it
    // is reached.
    assert_eq!(both("forall x:{0..x}. x <= 1", &one), (Ok(true), Ok(true)));
    assert_eq!(
        both("forall x:{0..2}. exists y:{0..x}. y == x", &one),
        (Ok(true), Ok(true))
    );
}

#[test]
fn an_error_behind_a_short_circuit_is_not_raised() {
    let funcs = FuncTable::with_builtins();
    let uni = Universe::new(1);
    let z = || Assertion::Cmp(CmpOp::Eq, Term::var("z"), Term::int(1));
    let g = || Assertion::SeqEq(STerm::chan("a").app("g"), STerm::Empty);
    let a0 = Assertion::Cmp(CmpOp::Eq, Term::length(STerm::chan("a")), Term::int(0));
    let parse = |src: &str| parse_assertion(src, &info()).unwrap();
    // i64::MIN / -1, spelled without an out-of-range literal.
    let overflow = "(0 - 9223372036854775807 - 1) / (0 - 1)";
    let overflow_chan = || {
        let min_by_minus_one = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::int(i64::MIN)),
            Box::new(Expr::int(-1)),
        );
        Assertion::SeqEq(STerm::chan_at("a", min_by_minus_one), STerm::Empty)
    };
    let empty = Trace::empty();
    let one = Trace::parse_like([("a", Value::nat(1))]);
    for (a, at_empty, at_one) in [
        (Assertion::False.and(z()), Ok(false), Ok(false)),
        (Assertion::True.or(g()), Ok(true), Ok(true)),
        // `#a == 0 => z == 1` reaches `z` only at `<>`.
        (a0.clone().implies(z()), Err(()), Ok(true)),
        (a0.clone().negate().and(g()), Ok(false), Err(())),
        // No value to bind: the body is never read.
        (
            Assertion::ForallIn("x".into(), SetExpr::range(1, 0), Box::new(z())),
            Ok(true),
            Ok(true),
        ),
        // An overflow is an error like any other, where it is reached:
        // in a term read per moment, in a cell subscript and a channel
        // subscript evaluated once at compile time, behind a guard that
        // admits no value at `<>`, and in a quantifier over no values.
        (
            parse(&format!("false and {overflow} == 0")),
            Ok(false),
            Ok(false),
        ),
        (
            parse(&format!("#a == 0 => {overflow} == 0")),
            Err(()),
            Ok(true),
        ),
        (
            parse(&format!("false and v[{overflow}] == 0")),
            Ok(false),
            Ok(false),
        ),
        (a0.implies(overflow_chan()), Err(()), Ok(true)),
        (
            parse(&format!(
                "forall i:NAT. 1 <= i and i <= #a => v[{overflow}] == i"
            )),
            Ok(true),
            Err(()),
        ),
        (
            parse(&format!("forall x:{{1..0}}. v[{overflow}] == x")),
            Ok(true),
            Ok(true),
        ),
    ] {
        let mut compiled = CompiledAssertion::new(&a, &Env::new(), &funcs, &uni);
        for (s, want) in [(&empty, at_empty), (&one, at_one)] {
            let h = s.history();
            let got = answer(compiled.holds(&h));
            assert_eq!(got.clone().map_err(|_| ()), want, "{a} at {s}");
            assert_eq!(
                got,
                answer(EvalCtx::new(&Env::new(), &h, &funcs, &uni).assertion(&a))
            );
            if let Err(e) = &got {
                assert!(e.contains("`z`") || e.contains("`g`") || e.contains("overflow"));
            }
        }
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
