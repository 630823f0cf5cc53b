//! Integration tests asserting every claim the paper makes, end to end
//! across all crates: proofs check, the model agrees, the runtime
//! conforms, and the §4 limitations manifest exactly as described.

use csp::prelude::*;
use csp::proofs;
use csp::{cross_validate_scripts, stop_choice_identity, validate_all_rules};

/// §2 claims + §2.2 theorems, proved with the paper's rules.
#[test]
fn every_paper_proof_is_machine_checked() {
    let scripts = proofs::all_scripts();
    assert!(scripts.len() >= 9);
    for script in scripts {
        let report = script
            .check()
            .unwrap_or_else(|e| panic!("{} failed: {e}", script.name));
        assert!(report.rule_count() > 0);
    }
}

/// Table 1 specifically: the displayed proof of the sender lemma.
/// What each proof's pure premises rest on: a syntactic law, or the
/// symbolic stage, which decides them for every history and value. None
/// rests on enumerating bounded histories (ROADMAP item 3).
#[test]
fn no_paper_proof_rests_on_bounded_enumeration() {
    // (script, syntactic, symbolic, bounded, bounded cases)
    let want = [
        ("copier", 4, 0, 0, 0),
        ("recopier", 4, 0, 0, 0),
        ("copier-length", 0, 4, 0, 0),
        ("pipeline", 9, 1, 0, 0),
        ("table1", 0, 8, 0, 0),
        ("receiver", 5, 2, 0, 0),
        ("protocol", 6, 11, 0, 0),
        ("zeroes", 0, 3, 0, 0),
        ("last", 4, 0, 0, 0),
        ("buffer2", 9, 1, 0, 0),
        ("buffer2-capacity", 0, 10, 0, 0),
    ];
    let got: Vec<_> = proofs::all_scripts()
        .iter()
        .map(|script| {
            let m = script.check().expect("checks").metrics;
            (
                script.name,
                m.counter("proof.discharge.syntactic"),
                m.counter("proof.discharge.symbolic"),
                m.counter("proof.discharge.bounded"),
                m.counter("proof.bounded_cases"),
            )
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn table1_has_the_papers_rule_structure() {
    let table1 = proofs::protocol::sender_table1();
    let report = table1.check().unwrap();
    let has = |rule: &str| report.steps.iter().any(|s| s.starts_with(rule));
    // The rules Table 1 cites: recursion, input, output, alternative,
    // consequence, plus ∀-introduction/elimination plumbing.
    assert!(has("recursion (10)"));
    assert!(has("input (6)"));
    assert!(has("output (5)"));
    assert!(has("alternative (7)"));
    assert!(has("consequence (2)"));
    assert!(has("forall-intro"));
    assert!(has("forall-elim"));
}

/// Everything proved symbolically is confirmed by bounded model checking.
#[test]
fn proof_system_and_model_agree() {
    for cv in cross_validate_scripts(3).unwrap() {
        assert!(cv.agreed(), "{}: {:?}", cv.script, cv.model_result);
    }
}

/// §3.4: each inference rule is sound in the model — validated
/// empirically on seeded random instances.
#[test]
fn all_ten_rules_empirically_sound() {
    for report in validate_all_rules(7, 25).unwrap() {
        assert!(report.sound(), "{}: {:?}", report.rule, report.violations);
    }
}

/// §4: `STOP | P = P` — the model cannot express the possibility of
/// deadlock.
#[test]
fn section4_stop_choice_identity() {
    let uni = Universe::new(1);
    for (defs, name) in [
        (csp::examples::pipeline(), "copier"),
        (csp::examples::pipeline(), "pipeline"),
        (csp::examples::protocol(), "receiver"),
    ] {
        let uni = if name == "receiver" {
            Universe::new(1).with_named("M", [Value::nat(0), Value::nat(1)])
        } else {
            uni.clone()
        };
        let (a, b) = stop_choice_identity(&defs, &uni, name, 3).unwrap();
        assert_eq!(a, b, "identity fails for {name}");
    }
}

/// §4: STOP satisfies any satisfiable invariant — partial correctness
/// cannot rule out doing nothing.
#[test]
fn section4_stop_satisfies_satisfiable_invariants() {
    let wb = Workbench::new();
    let mut wb2 = wb.clone();
    wb2.define_source("donothing = STOP").unwrap();
    wb2.declare_channels(["output", "input", "wire"]);
    for claim in ["output <= input", "#output <= 3", "f(wire) <= input"] {
        let verdict = wb2.check_sat("donothing", claim, 4).unwrap();
        assert!(verdict.holds(), "STOP should satisfy {claim}");
    }
}

/// §1.0's copier traces are exactly reproduced.
#[test]
fn section1_copier_traces() {
    let wb = Workbench::new().with_universe(Universe::new(27)).to_owned();
    let mut wb = wb;
    wb.define_source("copier = input?x:NAT -> wire!x -> copier")
        .unwrap();
    let traces = wb.traces("copier", 5).unwrap();
    // (i) the empty trace
    assert!(traces.contains(&Trace::empty()));
    // (ii) <input.3, wire.3>
    assert!(traces.contains(&Trace::parse_like([
        ("input", Value::nat(3)),
        ("wire", Value::nat(3)),
    ])));
    // (iii) <input.27, wire.27, input.0, wire.0, input.3>
    assert!(traces.contains(&Trace::parse_like([
        ("input", Value::nat(27)),
        ("wire", Value::nat(27)),
        ("input", Value::nat(0)),
        ("wire", Value::nat(0)),
        ("input", Value::nat(3)),
    ])));
    // And the copier never invents values: wire history always a prefix
    // of input history.
    for t in traces.iter() {
        let h = t.history();
        assert!(h
            .on(&Channel::simple("wire"))
            .is_prefix_of(&h.on(&Channel::simple("input"))));
    }
}

/// The full pipeline: prove, model-check, execute, conform — for each of
/// the paper's three systems.
#[test]
fn end_to_end_on_all_paper_systems() {
    // Pipeline.
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    assert!(wb.lint().is_empty());
    assert!(wb
        .check_sat("pipeline", "output <= input", 3)
        .unwrap()
        .holds());
    let run = wb
        .run(
            "pipeline",
            RunOptions {
                max_steps: 20,
                scheduler: Scheduler::seeded(1),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(wb
        .conformance("pipeline", &run, ["output <= input"])
        .unwrap()
        .conforms());

    // Protocol.
    let mut wb = Workbench::new()
        .with_universe(Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]));
    wb.define_source(csp::examples::PROTOCOL_SRC).unwrap();
    assert!(wb
        .check_sat("protocol", "output <= input", 3)
        .unwrap()
        .holds());
    let run = wb
        .run(
            "protocol",
            RunOptions {
                max_steps: 30,
                scheduler: Scheduler::seeded(2),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(wb
        .conformance("protocol", &run, ["output <= input"])
        .unwrap()
        .conforms());

    // Multiplier (rows bounded for a finite carrier).
    let mut wb = Workbench::new().with_universe(Universe::new(10));
    wb.bind_vector("v", &[2, 3, 5]);
    wb.define_source(
        "mult[i:1..3] = row[i]?x:{0..1} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
         zeroes = col[0]!0 -> zeroes
         last = col[3]?y:NAT -> output!y -> last
         network = zeroes || mult[1] || mult[2] || mult[3] || last
         multiplier = chan col[0..3]; network",
    )
    .unwrap();
    let inv = "forall i:NAT. 1 <= i and i <= #output => \
               output[i] == v[1]*row[1][i] + v[2]*row[2][i] + v[3]*row[3][i]";
    assert!(wb.check_sat("multiplier", inv, 4).unwrap().holds());
    let run = wb
        .run(
            "multiplier",
            RunOptions {
                max_steps: 40,
                scheduler: Scheduler::seeded(3),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(wb
        .conformance("multiplier", &run, [inv])
        .unwrap()
        .conforms());
}

/// §3.3's fixpoint construction converges on all paper systems and
/// agrees with the direct semantics.
#[test]
fn fixpoint_converges_on_paper_systems() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    let run = wb.fixpoint(4, 20).unwrap();
    assert!(run.converged_at.is_some());
    let key = ("copier".to_string(), vec![]);
    let growth = run.growth_of(&key);
    assert!(growth.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(
        run.limit().get(&key).unwrap(),
        &wb.denote("copier", 4).unwrap()
    );
}

/// The buffer chain's capacity bound is tight: #in ≤ #out + 2 is proven
/// (see csp-proof's buffer scripts) while the tighter +1 bound is
/// refuted by the model checker with a concrete witness.
#[test]
fn buffer_capacity_is_exactly_two() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::BUFFER2_SRC).unwrap();
    assert!(wb
        .check_sat("buffer2", "#in <= #out + 2", 5)
        .unwrap()
        .holds());
    match wb.check_sat("buffer2", "#in <= #out + 1", 5).unwrap() {
        SatResult::Counterexample { trace, .. } => {
            // Two inputs in flight, none delivered yet.
            assert_eq!(trace.len(), 2, "{trace}");
        }
        other => panic!("expected refutation, got {other:?}"),
    }
}
