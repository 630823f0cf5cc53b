//! Property-based tests over the core data structures and the semantic
//! invariants the paper's model depends on.

use csp::{
    compare, parse_process, Channel, ChannelSet, Config, Definitions, Env, Event, Lts, Process,
    Semantics, Seq, Trace, TraceSet, Universe, Value,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- data --

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..4).prop_map(Value::nat),
        Just(Value::sym("ACK")),
        Just(Value::sym("NACK")),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (prop_oneof![Just("a"), Just("b"), Just("c")], arb_value())
        .prop_map(|(c, v)| Event::new(Channel::simple(c), v))
}

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    prop::collection::vec(arb_event(), 0..=max_len).prop_map(Trace::from_events)
}

fn arb_traceset() -> impl Strategy<Value = TraceSet> {
    prop::collection::vec(arb_trace(4), 0..4).prop_map(TraceSet::closure_of)
}

/// Closed random process terms over channels a/b/c (mirrors the grammar
/// of csp-verify's generator, but through proptest so failures shrink).
fn arb_process() -> impl Strategy<Value = Process> {
    let leaf = Just(Process::Stop);
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (
                prop_oneof![Just("a"), Just("b"), Just("c")],
                0i64..2,
                inner.clone()
            )
                .prop_map(|(c, n, p)| Process::output(c, csp::Expr::int(n), p)),
            (prop_oneof![Just("a"), Just("b"), Just("c")], inner.clone())
                .prop_map(|(c, p)| Process::input(c, "x", csp::SetExpr::range(0, 1), p)),
            (inner.clone(), inner).prop_map(|(p, q)| p.or(q)),
        ]
    })
}

// ------------------------------------------------------------ sequences --

proptest! {
    /// `s ≤ t ⇔ ∃u. s⌢u = t` — both directions.
    #[test]
    fn prefix_order_characterisation(s in arb_trace(4), u in arb_trace(4)) {
        let t = s.concat(&u);
        prop_assert!(s.is_prefix_of(&t));
        if !u.is_empty() {
            prop_assert!(!t.is_prefix_of(&s));
        }
    }

    /// The prefix order is a partial order.
    #[test]
    fn prefix_order_is_partial_order(a in arb_trace(4), b in arb_trace(4)) {
        prop_assert!(a.is_prefix_of(&a));
        if a.is_prefix_of(&b) && b.is_prefix_of(&a) {
            prop_assert_eq!(&a, &b);
        }
    }

    /// `#(s⌢t) = #s + #t` and 1-based indexing is consistent with it.
    #[test]
    fn concat_length_and_indexing(s in arb_trace(4), t in arb_trace(4)) {
        let st = s.concat(&t);
        prop_assert_eq!(st.len(), s.len() + t.len());
        for i in 1..=s.len() {
            prop_assert_eq!(st.at(i), s.at(i));
        }
        for i in 1..=t.len() {
            prop_assert_eq!(st.at(s.len() + i), t.at(i));
        }
    }

    /// `ch(s)` distributes the events: total messages equals trace
    /// length, and restriction commutes with history (lemma (d) of
    /// §3.4).
    #[test]
    fn history_lemmas(s in arb_trace(6)) {
        let h = s.history();
        prop_assert_eq!(h.total_messages(), s.len());
        let hidden: ChannelSet = ["b"].into_iter().collect();
        let restricted = s.restrict(&hidden).history();
        for c in ["a", "c"] {
            prop_assert_eq!(h.on(&Channel::simple(c)), restricted.on(&Channel::simple(c)));
        }
        prop_assert!(restricted.on(&Channel::simple("b")).is_empty());
    }

    /// Seq cons/tail round-trip and snoc/last.
    #[test]
    fn seq_cons_laws(xs in prop::collection::vec(0i64..5, 0..6), x in 0i64..5) {
        let s: Seq<i64> = xs.iter().copied().collect();
        let consed = s.cons(x);
        prop_assert_eq!(consed.head(), Some(&x));
        prop_assert_eq!(consed.tail().unwrap(), s.clone());
        let snocced = s.snoc(x);
        prop_assert_eq!(snocced.last(), Some(&x));
        prop_assert_eq!(snocced.len(), s.len() + 1);
    }
}

// ------------------------------------------------------------ trace sets --

proptest! {
    /// Every constructor maintains prefix closure.
    #[test]
    fn constructors_preserve_closure(ts in arb_traceset(), e in arb_event()) {
        prop_assert!(ts.is_prefix_closed());
        prop_assert!(ts.prefixed(e).is_prefix_closed());
        let hidden: ChannelSet = ["b"].into_iter().collect();
        prop_assert!(ts.hide(&hidden).is_prefix_closed());
    }

    /// Union/intersection are idempotent, commutative, and closed.
    #[test]
    fn union_intersection_laws(a in arb_traceset(), b in arb_traceset()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert!(a.union(&b).is_prefix_closed());
        prop_assert!(a.is_subset(&a.union(&b)));
        prop_assert!(a.intersection(&b).is_subset(&a));
    }

    /// §4 at the set level: `{<>} ∪ P = P` (STOP is the unit of choice).
    #[test]
    fn stop_is_choice_unit(p in arb_traceset()) {
        prop_assert_eq!(TraceSet::stop().union(&p), p);
    }

    /// The prefix operator distributes over union (§3.1 theorem).
    #[test]
    fn prefix_distributes_over_union(a in arb_traceset(), b in arb_traceset(), e in arb_event()) {
        let lhs = a.union(&b).prefixed(e);
        let rhs = a.prefixed(e).union(&b.prefixed(e));
        prop_assert_eq!(lhs, rhs);
    }

    /// Membership characterisation of parallel composition: every member
    /// projects into the operands (§3.1's definition).
    #[test]
    fn parallel_members_project(a in arb_traceset(), b in arb_traceset()) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        // Restrict operands to their own alphabets first.
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&y)));
        let par = pa.parallel(&x, &pb, &y, usize::MAX);
        prop_assert!(par.is_prefix_closed());
        for s in par.iter() {
            prop_assert!(s.is_over(&x.union(&y)));
            prop_assert!(pa.contains(&s.project(&x)), "s↾X ∉ P for {}", s);
            prop_assert!(pb.contains(&s.project(&y)), "s↾Y ∉ Q for {}", s);
        }
    }

    /// Hiding then hiding again on disjoint sets equals hiding the union.
    #[test]
    fn hide_composes(ts in arb_traceset()) {
        let b: ChannelSet = ["b"].into_iter().collect();
        let c: ChannelSet = ["c"].into_iter().collect();
        let bc: ChannelSet = ["b", "c"].into_iter().collect();
        prop_assert_eq!(ts.hide(&b).hide(&c), ts.hide(&bc));
    }

    /// §3.1: hiding distributes through unions.
    #[test]
    fn hide_distributes_over_union(a in arb_traceset(), b in arb_traceset()) {
        let c: ChannelSet = ["b"].into_iter().collect();
        prop_assert_eq!(
            a.union(&b).hide(&c),
            a.hide(&c).union(&b.hide(&c))
        );
    }

    /// §3.1: parallel composition distributes through unions in each
    /// argument ("all the operators we use will … distribute through
    /// arbitrary unions").
    #[test]
    fn parallel_distributes_over_union(
        a in arb_traceset(),
        b in arb_traceset(),
        q in arb_traceset(),
    ) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&x)));
        let pq = TraceSet::closure_of(q.iter().map(|t| t.project(&y)));
        let lhs = pa.union(&pb).parallel(&x, &pq, &y, usize::MAX);
        let rhs = pa
            .parallel(&x, &pq, &y, usize::MAX)
            .union(&pb.parallel(&x, &pq, &y, usize::MAX));
        prop_assert_eq!(lhs, rhs);
    }

    /// The padding characterisation of §3.1 agrees with the on-the-fly
    /// parallel composition on generated operands.
    #[test]
    fn padding_definition_agrees_with_parallel(
        a in arb_traceset(),
        b in arb_traceset(),
    ) {
        let x: ChannelSet = ["a", "b"].into_iter().collect();
        let y: ChannelSet = ["b", "c"].into_iter().collect();
        let pa = TraceSet::closure_of(a.iter().map(|t| t.project(&x)));
        let pb = TraceSet::closure_of(b.iter().map(|t| t.project(&y)));
        let depth = 4;
        let events_on = |ts: &TraceSet, cs: &ChannelSet| -> Vec<Event> {
            let mut out: Vec<Event> = ts
                .iter()
                .flat_map(|t| t.iter().cloned())
                .filter(|e| cs.contains(e.channel()))
                .collect();
            out.sort();
            out.dedup();
            out
        };
        let by_def = pa
            .pad(&events_on(&pb, &y.difference(&x)), depth)
            .intersection(&pb.pad(&events_on(&pa, &x.difference(&y)), depth));
        let by_impl = pa.parallel(&x, &pb, &y, usize::MAX).up_to_depth(depth);
        prop_assert_eq!(&by_def, &by_impl);
        // The product cut at d holds exactly the definition's traces up
        // to d.
        for d in 0..=depth {
            prop_assert_eq!(pa.parallel(&x, &pb, &y, d), by_def.up_to_depth(d));
        }
    }
}

// ------------------------------------------- semantics & language --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pretty-printer round-trips through the parser on generated
    /// terms.
    #[test]
    fn printer_parser_roundtrip(p in arb_process()) {
        let printed = p.to_string();
        let reparsed = parse_process(&printed)
            .unwrap_or_else(|e| panic!("printed form unparsable: {printed}: {e}"));
        prop_assert_eq!(reparsed, p);
    }

    /// The operational semantics agrees with the denotational semantics
    /// on generated closed terms (no definitions, no hiding — those are
    /// covered by the example-based tests).
    #[test]
    fn operational_equals_denotational(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let den = sem.denote(&p, &env, depth).expect("denote");
            let op = lts
                .traces(&Config::new(p.clone(), env.clone()), depth)
                .expect("lts traces");
            prop_assert!(compare(&den, &op).is_none(),
                "disagreement at depth {} for {}:\n{}",
                depth, p, compare(&den, &op).unwrap());
        }
    }

    /// The same agreement on networks with hiding, inside operands and
    /// around compositions. Both models get enough room for every
    /// concealed step of these finite networks (an operational budget of
    /// 16 hidden steps, a hidden-event multiplier of 17), so neither cuts
    /// a trace the other keeps.
    #[test]
    fn operational_equals_denotational_on_networks(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni).with_hide_multiplier(17);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=4 {
            let den = sem.denote(&p, &env, depth).expect("denote");
            let op = lts
                .traces_budgeted(&Config::new(p.clone(), env.clone()), depth, 16)
                .expect("lts traces");
            prop_assert!(compare(&den, &op).is_none(),
                "disagreement at depth {} for {}:\n{}",
                depth, p, compare(&den, &op).unwrap());
        }
    }

    /// Every denotation is prefix-closed and contains the empty trace
    /// (the §3.1 well-formedness of the semantic domain).
    #[test]
    fn denotations_are_prefix_closures(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let t = sem.denote(&p, &Env::new(), 3).expect("denote");
        prop_assert!(t.is_prefix_closed());
        prop_assert!(t.contains(&Trace::empty()));
    }

    /// Deeper exploration only adds traces: `D_d(P) ⊆ D_{d+1}(P)` and
    /// truncation recovers the shallower set.
    #[test]
    fn depth_monotonicity(p in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::new(1);
        let sem = Semantics::new(&defs, &uni);
        let env = Env::new();
        let d2 = sem.denote(&p, &env, 2).expect("denote");
        let d3 = sem.denote(&p, &env, 3).expect("denote");
        prop_assert!(d2.is_subset(&d3));
        prop_assert_eq!(d3.up_to_depth(2), d2);
    }
}

// ------------------------------------------------- engine equivalence --

/// Closed random networks: a `||` tree over 2–4 sequential operands.
/// An operand may be concealed (`chan` inside a `||` operand), every
/// composition may be concealed, and a composition may declare explicit
/// alphabets `P ||{X | Y} Q`: each the operand's own channels plus random
/// others, listed in random order, so some are already in the sorted form
/// the `||` rule pins and some are not. These are the shapes on which the
/// engines take different code paths: the compiled engine's skeleton
/// walk and its whole-term fallback, and the enumerative engine's term
/// rewriting (product construction and τ-steps).
fn arb_network() -> impl Strategy<Value = Process> {
    let operand = (arb_process(), arb_concealed()).prop_map(|(p, c)| conceal(p, c));
    // Per composition: where to split its operands, what it conceals,
    // and the explicit alphabets of its two sides.
    let node = (0usize..4, arb_concealed(), 0u8..12, 0u8..12);
    (
        prop::collection::vec(operand, 2..=4),
        prop::collection::vec(node, 3),
    )
        .prop_map(|(operands, nodes)| compose(&operands, &mut nodes.into_iter()))
}

fn arb_concealed() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(Some("a")),
        Just(Some("b")),
        Just(Some("c"))
    ]
}

fn conceal(p: Process, channel: Option<&str>) -> Process {
    match channel {
        Some(c) => p.hide(vec![csp::ChanRef::simple(c)]),
        None => p,
    }
}

type NetNode = (usize, Option<&'static str>, u8, u8);

/// Composes the operands into a `||` tree, drawing one node per
/// composition.
fn compose(operands: &[Process], nodes: &mut impl Iterator<Item = NetNode>) -> Process {
    if let [p] = operands {
        return p.clone();
    }
    let (split, concealed, x, y) = nodes.next().expect("one node per composition");
    let k = 1 + split % (operands.len() - 1);
    let left = compose(&operands[..k], nodes);
    let right = compose(&operands[k..], nodes);
    let net = Process::Parallel {
        left_alpha: explicit_alphabet(&left, x),
        right_alpha: explicit_alphabet(&right, y),
        left: std::sync::Arc::new(left),
        right: std::sync::Arc::new(right),
    };
    conceal(net, concealed)
}

/// Half the picks infer the alphabet; the rest list the operand's own
/// channels plus `a` and/or `c`, sorted or reversed.
fn explicit_alphabet(p: &Process, pick: u8) -> Option<Vec<csp::ChanRef>> {
    let pick = pick.checked_sub(6)?;
    let mut channels = csp::channel_alphabet(p, &Definitions::new(), &Env::new())
        .expect("closed operand")
        .iter()
        .map(|c| c.base().to_string())
        .collect::<std::collections::BTreeSet<_>>();
    if pick & 1 != 0 {
        channels.insert("a".into());
    }
    if pick & 2 != 0 {
        channels.insert("c".into());
    }
    let mut refs: Vec<csp::ChanRef> = channels.iter().map(|c| csp::ChanRef::simple(c)).collect();
    if pick & 4 != 0 {
        refs.reverse();
    }
    Some(refs)
}

proptest! {
    /// The compiled arena reproduces the enumerative engine's trace set
    /// exactly, and both agree with the `NaiveTraceSet` reference
    /// closure — the cross-validation triangle the engine selector
    /// relies on. The compiled walk's list holds each member once, every
    /// trace after its parent.
    #[test]
    fn compiled_and_enumerative_traces_agree(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let depth = 3;
        let budget = depth * 4;
        let start = Config::new(p.clone(), Env::new());

        let enumerative = Lts::new(&defs, &uni)
            .traces_budgeted(&start, depth, budget)
            .expect("enumerative");
        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let s = arena.intern(start);
        let compiled = arena.traces_budgeted(s, depth, budget).expect("compiled");
        prop_assert_eq!(&compiled, &enumerative);

        let naive_c = csp::NaiveTraceSet::closure_of(compiled.iter().cloned());
        let naive_e = csp::NaiveTraceSet::closure_of(enumerative.iter().cloned());
        prop_assert_eq!(naive_c, naive_e);

        let list = arena.trace_list(s, depth, budget).expect("compiled list");
        prop_assert_eq!(list.len(), compiled.len());
        let mut listed = std::collections::HashSet::new();
        for t in &list {
            prop_assert!(compiled.contains(t), "{} is not a trace", t);
            if !t.is_empty() {
                prop_assert!(listed.contains(&t.take(t.len() - 1)), "{} before its parent", t);
            }
            prop_assert!(listed.insert(t.clone()), "{} listed twice", t);
        }
    }

    /// `sat` verdicts agree between engines on random networks and
    /// random `InstanceGen` assertions: same holds/refuted answer, same
    /// number of moments checked, same counterexample.
    #[test]
    fn sat_verdicts_agree_across_engines(p in arb_network(), seed in 0u64..1024) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let assertion = csp::InstanceGen::new(seed).assertion();

        let enum_res = csp::SatChecker::new(&defs, &uni)
            .with_engine(csp::Engine::Enumerative)
            .check(&p, &assertion, 3)
            .expect("enumerative sat");
        let comp_res = csp::SatChecker::new(&defs, &uni)
            .with_engine(csp::Engine::Compiled)
            .check(&p, &assertion, 3)
            .expect("compiled sat");

        prop_assert_eq!(enum_res.holds(), comp_res.holds());
        match (enum_res, comp_res) {
            (
                csp::SatResult::Holds { traces_checked: a, .. },
                csp::SatResult::Holds { traces_checked: b, .. },
            ) => prop_assert_eq!(a, b),
            (
                csp::SatResult::Counterexample { trace: a, .. },
                csp::SatResult::Counterexample { trace: b, .. },
            ) => prop_assert_eq!(a, b),
            _ => unreachable!("holds() equality already checked"),
        }
    }

    /// `SatChecker::check` — one moving history, no sort, the least
    /// failing trace — gives exactly the answer of the sorted scan in
    /// [`sorted_scan`]: the same verdict, moments checked, counterexample
    /// and evaluation error, on networks and on sequential terms, at every
    /// depth up to 3, on both engines.
    #[test]
    fn sat_check_matches_the_sorted_scan(net in arb_network(), seq in arb_process()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let info = csp::ChannelInfo::new()
            .with_channels(["a", "b", "c"])
            .with_funcs(["f", "ghost"]);
        let assertions: Vec<csp::Assertion> = SAT_ASSERTIONS
            .iter()
            .map(|a| csp::parse_assertion(a, &info).expect(a))
            .collect();
        for p in [&net, &seq] {
            for depth in 0..=3 {
                let start = Config::new(p.clone(), Env::new());
                let budget = depth * 3;
                let enumerative = Lts::new(&defs, &uni)
                    .traces_budgeted(&start, depth, budget)
                    .expect("enumerative");
                let mut arena = csp::CompiledLts::new(&defs, &uni);
                let s = arena.intern(start);
                let compiled = arena.traces_budgeted(s, depth, budget).expect("compiled");
                for a in &assertions {
                    for (engine, traces) in [
                        (csp::Engine::Enumerative, &enumerative),
                        (csp::Engine::Compiled, &compiled),
                    ] {
                        let got = csp::SatChecker::new(&defs, &uni)
                            .with_engine(engine)
                            .check(p, a, depth);
                        prop_assert_eq!(
                            sat_answer(got),
                            sorted_scan(traces, a, &uni),
                            "{} sat {} at depth {} on {:?}", p, a, depth, engine
                        );
                    }
                }
            }
        }
    }

    /// Compiled refinement (subset construction over bitset rows) agrees
    /// with the enumerative trace-subset check in both directions.
    #[test]
    fn refinement_agrees_with_trace_subset(imp in arb_network(), spec in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let depth = 3;
        let budget = depth * 4;

        let lts = Lts::new(&defs, &uni);
        let imp_ts = lts
            .traces_budgeted(&Config::new(imp.clone(), Env::new()), depth, budget)
            .expect("impl traces");
        let spec_ts = lts
            .traces_budgeted(&Config::new(spec.clone(), Env::new()), depth, budget)
            .expect("spec traces");
        let subset = imp_ts.is_subset(&spec_ts);

        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let i = arena.intern(Config::new(imp, Env::new()));
        let s = arena.intern(Config::new(spec, Env::new()));
        let verdict = arena.refines(i, s, depth, budget).expect("refines");

        match verdict {
            Ok(()) => prop_assert!(subset, "compiled says refines, subset check disagrees"),
            Err(cex) => {
                prop_assert!(!subset, "compiled refuted but subset holds: {}", cex);
                prop_assert!(imp_ts.contains(&cex), "counterexample not an impl trace");
                prop_assert!(!spec_ts.contains(&cex), "counterexample admitted by spec");
            }
        }
    }

    /// Every deadlock witness is a trace of the process: the search's
    /// budget (3 visible events, 3 × 3 concealed steps along a path) is
    /// the trace walk's.
    #[test]
    fn deadlock_witnesses_are_traces(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let start = Config::new(p.clone(), Env::new());
        let traces = Lts::new(&defs, &uni)
            .traces_budgeted(&start, 3, 9)
            .expect("trace walk");
        let report = csp::find_deadlocks(&defs, &uni, &p, &Env::new(), 3).expect("deadlocks");
        for d in &report.deadlocks {
            prop_assert!(traces.contains(&d.trace), "witness {} is not a trace", d.trace);
        }
    }

    /// The conformance replay admits every walked trace, admits a
    /// one-event extension only when it is a trace, and rejects one at
    /// the extending event. A trace walked with 3 concealed steps needs
    /// at most 3 before each event; an extension admitted with 3 before
    /// each of at most 3 events needs at most 9 in all.
    #[test]
    fn conformance_admits_exactly_the_walked_traces(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let start = Config::new(p.clone(), Env::new());
        let walked = lts.traces_budgeted(&start, 3, 3).expect("trace walk");
        let wide = lts.traces_budgeted(&start, 3, 9).expect("wide trace walk");
        let replay = |t: &Trace| {
            csp::check_conformance(&p, &Env::new(), &defs, &uni, t, &[], 3).expect("replay")
        };
        let events: Vec<Event> = ["a", "b", "c"]
            .iter()
            .flat_map(|c| (0..=2).map(move |n| Event::new(Channel::simple(c), Value::nat(n))))
            .collect();
        for t in walked.iter() {
            let report = replay(t);
            prop_assert!(report.trace_admitted, "walked trace {} rejected: {:?}", t, report);
            if t.len() == 3 {
                continue;
            }
            for e in &events {
                let extended = t.snoc(*e);
                let report = replay(&extended);
                if report.trace_admitted {
                    prop_assert!(wide.contains(&extended), "{} admitted, not a trace", extended);
                } else {
                    prop_assert_eq!(report.diverged_at, Some(t.len()), "{}", extended);
                }
            }
        }
    }
}

proptest! {
    // One case runs the threaded runtime up to eight times; 400 cases
    // take about two seconds in a debug build.
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The runtime runs exactly the semantics, or refuses at set-up:
    /// `flatten` either refuses a random network, or every run of it
    /// (seeds 0–3, 8 steps) conforms to its trace set under the
    /// membership monitor. Without declared alphabets and without a
    /// `chan` below a `||`, every network is accepted, and conforms.
    #[test]
    fn the_runtime_runs_the_semantics_or_refuses(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let plain = without_declarations(&p, false);
        for (term, must_accept) in [(&p, false), (&plain, true)] {
            if let Err(e) = csp::flatten(term, &defs, &Env::new()) {
                prop_assert!(!must_accept, "{} refused: {}", term, e);
                continue;
            }
            for seed in 0..4 {
                let res = csp::Executor::new(&defs, &uni)
                    .run(term, &Env::new(), csp::RunOptions {
                        max_steps: 8,
                        scheduler: csp::Scheduler::seeded(seed),
                        monitor: Some(csp::MonitorSpec::new()),
                        ..csp::RunOptions::default()
                    })
                    .expect("flatten accepted it");
                let report = res.monitor.expect("monitored");
                prop_assert!(
                    report.is_conforming(),
                    "{} at seed {} ran {}: {:?}", term, seed, res.visible, report
                );
            }
        }
    }
}

/// `p` with every declared `||` alphabet dropped and every `chan` below
/// a `||` removed.
fn without_declarations(p: &Process, below_par: bool) -> Process {
    match p {
        Process::Parallel { left, right, .. } => Process::Parallel {
            left: std::sync::Arc::new(without_declarations(left, true)),
            right: std::sync::Arc::new(without_declarations(right, true)),
            left_alpha: None,
            right_alpha: None,
        },
        Process::Hide { body, .. } if below_par => without_declarations(body, true),
        Process::Hide { channels, body } => Process::Hide {
            channels: channels.clone(),
            body: std::sync::Arc::new(without_declarations(body, false)),
        },
        other => other.clone(),
    }
}

/// The assertions [`sat_check_matches_the_sorted_scan`] judges. Some hold
/// on every term and some refute. Three fail to evaluate: `1 / #b` on the
/// traces with an `a` and no `b`; `ACK <= 1` on the traces without an `a`
/// and with one `c`, where the same assertion refutes every trace with an
/// `a` (so an error and a refutation can come in either order); and the
/// unregistered `ghost` everywhere.
const SAT_ASSERTIONS: [&str; 9] = [
    "forall i:NAT. 1 <= i and i <= #a => a[i] <= 1",
    "#a + #b + #c <= 3",
    "b <= a",
    "#a + #b + #c <= 1",
    "exists x:{0..1}. #c == x",
    "#a == 0 or 1 / #b >= 0",
    "#a == 0 and (#c == 0 or (ACK ^ b)[#c] <= 1)",
    "f(a) <= c",
    "ghost(a) == a",
];

/// A `sat` answer as comparable data: the moments checked, the
/// counterexample, or the evaluation error.
type SatAnswer = Result<Result<usize, Trace>, String>;

fn sat_answer(res: Result<csp::SatResult, csp::AssertError>) -> SatAnswer {
    match res {
        Ok(csp::SatResult::Holds { traces_checked, .. }) => Ok(Ok(traces_checked)),
        Ok(csp::SatResult::Counterexample { trace, .. }) => Ok(Err(trace)),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// The reference `sat` check: every trace of the set in sorted order,
/// each on its own freshly built `ch(s)`, stopping at the first that is
/// false or fails to evaluate.
fn sorted_scan(traces: &TraceSet, assertion: &csp::Assertion, uni: &Universe) -> SatAnswer {
    let env = Env::new();
    let funcs = csp::FuncTable::with_builtins();
    let mut checked = 0;
    for t in traces.iter() {
        let h = t.history();
        match csp::EvalCtx::new(&env, &h, &funcs, uni).assertion(assertion) {
            Ok(true) => checked += 1,
            Ok(false) => return Ok(Err(t.clone())),
            Err(e) => return Err(format!("{e:?}")),
        }
    }
    Ok(Ok(checked))
}

proptest! {
    // Rows differ from the whole-term rows only on rare shapes (a joint
    // step with several partners, a τ beside a shared event), so this
    // property runs more cases than its neighbours; each takes well
    // under a millisecond.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every state of a walked arena interns back to its own id from its
    /// term, and its compiled row is `Lts::steps` on that term mapped
    /// through `intern`: the skeleton walk builds the rows the whole-term
    /// rules build, in the same order, and never splits one configuration
    /// into two states.
    #[test]
    fn compiled_rows_are_whole_term_rows(p in arb_network()) {
        let defs = Definitions::new();
        let uni = Universe::small();
        let lts = Lts::new(&defs, &uni);
        let mut arena = csp::CompiledLts::new(&defs, &uni);
        let start = arena.intern(Config::new(p, Env::new()));
        let mut seen = csp::StateSet::from_iter([start]);
        let mut frontier = vec![start];
        while let Some(id) = frontier.pop() {
            let row = arena.steps_of(id).expect("compiled row").to_vec();
            let config = arena.state(id).clone();
            prop_assert_eq!(arena.intern(config.clone()), id);
            let want: Vec<csp::CompiledStep> = lts
                .steps(&config)
                .expect("whole-term row")
                .into_iter()
                .map(|s| match s {
                    csp::Step::Visible(e, c) => csp::CompiledStep::Visible(e, arena.intern(c)),
                    csp::Step::Internal(c) => csp::CompiledStep::Internal(arena.intern(c)),
                })
                .collect();
            prop_assert_eq!(&row, &want, "row of {}", config.process());
            for step in row {
                let next = match step {
                    csp::CompiledStep::Visible(_, n) | csp::CompiledStep::Internal(n) => n,
                };
                if seen.insert(next) {
                    frontier.push(next);
                }
            }
        }
        prop_assert_eq!(seen.len(), arena.num_states());
    }
}
