//! Integration tests for the observability layer: the collector must
//! never change *what* the toolchain computes (only record how it was
//! computed), the JSONL sink must round-trip losslessly, and the spans a
//! [`Session`] gathers must nest according to the documented taxonomy.

use csp::obs::{folded_stacks, parse_jsonl};
use csp::prelude::*;
use csp::{fixpoint, fixpoint_with, Definition, Definitions, Env, FieldValue, Process, SetExpr};
use proptest::prelude::*;

const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier
     recopier = wire?y:NAT -> output!y -> recopier
     pipeline = chan wire; (copier || recopier)";

fn pipeline_workbench() -> Workbench {
    let mut wb = Workbench::new();
    wb.define_source(PIPELINE).expect("pipeline parses");
    wb
}

// ------------------------------------------------- observer effect --

/// Closed random process terms over channels a/b/c, mirroring the
/// generator in `tests/properties.rs`.
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
                .prop_map(|(c, p)| Process::input(c, "x", SetExpr::range(0, 1), p)),
            (inner.clone(), inner).prop_map(|(p, q)| p.or(q)),
        ]
    })
}

proptest! {
    /// Observation must not perturb the fixpoint: a disabled and an
    /// active collector see identical iterate chains, the same
    /// convergence point, and the same counter tallies. (Span timings
    /// necessarily differ, so they are excluded from the comparison.)
    #[test]
    fn fixpoint_is_identical_under_observation(p in arb_process()) {
        let mut defs = Definitions::new();
        defs.define(Definition::plain("gen", p));
        let uni = Universe::new(1);
        let env = Env::new();

        let quiet = fixpoint(&defs, &uni, &env, 3, 16).expect("quiet run");
        let collector = Collector::new();
        let observed =
            fixpoint_with(&defs, &uni, &env, 3, 16, &collector).expect("observed run");

        prop_assert_eq!(&quiet.iterates, &observed.iterates);
        prop_assert_eq!(quiet.converged_at, observed.converged_at);
        prop_assert_eq!(&quiet.metrics.counters, &observed.metrics.counters);
        // The active run actually recorded something.
        prop_assert!(!collector.records().is_empty());
    }
}

/// The same invariant through the high-level [`Session`] API, on the
/// paper's pipeline (recursion + hiding, which `arb_process` avoids).
#[test]
fn session_fixpoint_matches_unobserved_workbench() {
    let wb = pipeline_workbench();
    let quiet = wb.fixpoint(4, 32).expect("quiet fixpoint");
    let session = wb.session();
    let observed = session.fixpoint(4, 32).expect("observed fixpoint");

    assert_eq!(quiet.iterates, observed.iterates);
    assert_eq!(quiet.converged_at, observed.converged_at);
    assert_eq!(quiet.metrics.counters, observed.metrics.counters);
}

/// Observation must not perturb a compiled `sat` check either, and the
/// arena counters it records are those of the arena the check walked. In
/// `growing`, a sequential component steps into a `||` of its own, so its
/// arena reads grown successors from their terms; the multiplier's inner
/// `||`s are spine nodes from the start, so nothing grows there and only
/// the start state is read from its term. The quantifier values its compiled
/// assertion bound are counted too: the guard `1 <= i and i <= #output`
/// walks only the indices of `output`, which fewer moments have than
/// there are moments.
#[test]
fn compiled_sat_check_is_identical_under_observation() {
    let multiplier_invariant = csp_bench::multiplier_invariant(3);
    let mut growing = Workbench::new();
    growing
        .define_source(
            "grow = a!0 -> (b!0 -> STOP || c!0 -> grow)
             ticker = d?x:{0..1} -> e!x -> ticker
             net = grow || ticker",
        )
        .expect("growing network parses");
    let cases = [
        (pipeline_workbench(), "pipeline", "output <= input", 6),
        (
            csp_bench::multiplier_workbench(3),
            "multiplier",
            multiplier_invariant.as_str(),
            4,
        ),
        (growing, "net", "#b <= #a", 5),
    ];
    for (wb, process, assertion, depth) in &cases {
        let opts = SatOptions::from(*depth);
        let quiet = wb
            .check_sat(process, assertion, opts.clone())
            .expect("quiet check");
        assert_eq!(quiet.engine(), Engine::Compiled, "{process}");
        let session = wb.session();
        let observed = session
            .check_sat(process, assertion, opts.clone())
            .expect("observed check");
        assert_eq!(format!("{quiet:?}"), format!("{observed:?}"));

        let mut arena = csp::CompiledLts::new(wb.definitions(), wb.universe());
        let start = arena.start(process, wb.env());
        arena
            .traces_budgeted(start, opts.depth, opts.depth * opts.internal_budget_factor)
            .expect("walk");
        match *process {
            "net" => assert!(arena.num_decompositions() > 1, "{process}"),
            _ => assert_eq!(arena.num_decompositions(), 1, "{process}"),
        }
        let metrics = session.metrics();
        let root = session
            .events()
            .into_iter()
            .find(|r| r.name == "satcheck")
            .expect("satcheck span");
        for (field, n) in [
            ("states", arena.num_states()),
            ("transitions", arena.num_transitions()),
            ("component_rows", arena.num_component_rows()),
            ("fallback_rows", arena.num_fallback_rows()),
            ("decompositions", arena.num_decompositions()),
            ("visits", arena.num_visits()),
        ] {
            let counter = format!("satcheck.{field}");
            assert_eq!(metrics.counter(&counter), n as u64, "{process}: {counter}");
            let recorded = root.fields.iter().find(|(k, _)| k == field).map(|(_, v)| v);
            assert_eq!(
                recorded,
                Some(&FieldValue::from(n)),
                "{process}: span field {field}"
            );
        }
        let bindings = metrics.counter("satcheck.bindings");
        assert_eq!(root.field("bindings"), Some(&FieldValue::from(bindings)));
        let moments = metrics.counter("satcheck.moments");
        match *process {
            "multiplier" => assert!(0 < bindings && bindings < moments, "{bindings}"),
            _ => assert_eq!(bindings, 0, "{process}"),
        }
    }
}

/// A `sat` check explores, then judges: it records a `satcheck.explore`
/// span that closes before its `satcheck.verdicts` span opens, both
/// under the `satcheck` root, and counts every distinct trace in
/// `satcheck.moments` — on either engine (the sequential copier runs
/// on the trace walk, the pipeline on the arena), holding or refuted —
/// and observing it does not change its result.
#[test]
fn sat_check_records_both_phases_and_is_identical_under_observation() {
    let wb = pipeline_workbench();
    let depth = 5;
    let opts = SatOptions::from(depth);
    for (process, engine, claims) in [
        (
            "copier",
            Engine::Enumerative,
            [("wire <= input", true), ("input <= wire", false)],
        ),
        (
            "pipeline",
            Engine::Compiled,
            [("output <= input", true), ("input <= output", false)],
        ),
    ] {
        for (assertion, holds) in claims {
            let quiet = wb
                .check_sat(process, assertion, opts.clone())
                .expect("quiet check");
            let session = wb.session();
            let observed = session
                .check_sat(process, assertion, opts.clone())
                .expect("observed check");
            assert_eq!(format!("{quiet:?}"), format!("{observed:?}"));
            assert_eq!(observed.holds(), holds, "{process}: {assertion}");
            assert_eq!(observed.engine(), engine, "{process}");

            let records = session.events();
            let span = |name: &str| {
                records
                    .iter()
                    .find(|r| r.name == name)
                    .unwrap_or_else(|| panic!("{name} span on {engine:?}"))
            };
            let root = span("satcheck");
            let explore = span("satcheck.explore");
            let verdicts = span("satcheck.verdicts");
            assert_eq!(explore.parent, Some(root.id));
            assert_eq!(verdicts.parent, Some(root.id));
            assert!(explore.end_ns <= verdicts.start_ns, "phases overlap");

            let mut arena = csp::CompiledLts::new(wb.definitions(), wb.universe());
            let start = arena.start(process, wb.env());
            let traces = arena
                .traces_budgeted(start, depth, depth * opts.internal_budget_factor)
                .expect("walk")
                .len();
            assert_eq!(session.metrics().counter("satcheck.moments"), traces as u64);
            assert_eq!(root.field("moments"), Some(&FieldValue::from(traces)));
        }
    }
}

// --------------------------------------------------- JSONL sink --

/// `write_jsonl` → `parse_jsonl` is the identity on a real event log
/// (ids, parents, timestamps, and typed fields all survive).
#[test]
fn jsonl_round_trips_a_session_log() {
    let wb = pipeline_workbench();
    let session = wb.session();
    let res = session
        .check_sat("pipeline", "output <= input", 3)
        .expect("check_sat");
    assert!(res.holds());
    session.fixpoint(3, 16).expect("fixpoint");

    let records = session.events();
    assert!(!records.is_empty(), "session recorded no spans");

    let mut buf = Vec::new();
    session.write_trace_jsonl(&mut buf).expect("serialise");
    let text = String::from_utf8(buf).expect("utf8");
    let parsed = parse_jsonl(&text).expect("parse back");
    assert_eq!(parsed, records);
}

// ------------------------------------------------ span taxonomy --

/// Spans nest per the documented taxonomy: every `fixpoint.key` closes
/// inside a `fixpoint.iter`, every `fixpoint.iter` inside the root
/// `fixpoint` span; ids are allocated in open order and records appear
/// in close order (children before parents).
#[test]
fn session_spans_nest_by_taxonomy() {
    let wb = pipeline_workbench();
    let session = wb.session();
    session.fixpoint(3, 16).expect("fixpoint");

    let records = session.events();
    let name_of = |id: u64| -> &str {
        records
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.name.as_str())
            .unwrap_or("<missing>")
    };

    let mut iters = 0;
    let mut keys = 0;
    for r in &records {
        match r.name.as_str() {
            "fixpoint" => assert_eq!(r.parent, None, "fixpoint span must be a root"),
            "fixpoint.iter" => {
                iters += 1;
                assert_eq!(name_of(r.parent.expect("iter has parent")), "fixpoint");
            }
            "fixpoint.key" => {
                keys += 1;
                assert_eq!(name_of(r.parent.expect("key has parent")), "fixpoint.iter");
            }
            other => panic!("unexpected span {other:?} from a fixpoint-only session"),
        }
        assert!(r.end_ns >= r.start_ns, "span closed before it opened");
    }
    assert!(iters >= 2, "expected at least two fixpoint iterations");
    assert!(keys >= iters, "each iteration visits every key");

    // Close order: a child record always precedes its parent record.
    for (i, r) in records.iter().enumerate() {
        if let Some(parent) = r.parent {
            let parent_pos = records
                .iter()
                .position(|p| p.id == parent)
                .expect("parent recorded");
            assert!(
                parent_pos > i,
                "parent {parent} closed before child {}",
                r.id
            );
        }
    }

    // The folded view agrees with the raw records on stack identity.
    let folded = folded_stacks(&records);
    assert!(folded.contains("fixpoint;fixpoint.iter;fixpoint.key"));
}

// ---------------------------------------------- metered results --

/// The per-result snapshot (`Metered`) and the session-wide snapshot
/// agree on the counters the fixpoint contributes.
#[test]
fn metered_result_agrees_with_session_metrics() {
    let wb = pipeline_workbench();
    let session = wb.session();
    let run = session.fixpoint(4, 32).expect("fixpoint");

    let per_result = run.metrics();
    let session_wide = session.metrics();
    for name in [
        "fixpoint.instances",
        "fixpoint.iterations",
        "fixpoint.changed_keys",
        "fixpoint.converged",
    ] {
        assert_eq!(
            per_result.counter(name),
            session_wide.counter(name),
            "counter {name} diverges between result and session"
        );
    }
    assert_eq!(per_result.counter("fixpoint.converged"), 1);
    // The session additionally tracks trace-algebra effort.
    assert!(session_wide.counter("trace.unions") > 0);
}
