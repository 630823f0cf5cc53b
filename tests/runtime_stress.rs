//! Stress/robustness tests for the concurrent runtime: many seeds, every
//! paper network, every run conformant — healthy *and* under injected
//! faults. Catches scheduler-dependent synchronisation bugs that
//! single-seed tests would miss, and exercises the supervisor's claim
//! that fail-stop faults only remove behaviour (`STOP | P = P`).

use std::time::{Duration, Instant};

use csp::prelude::*;

#[test]
fn pipeline_conforms_across_many_seeds_and_schedulers() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    for seed in 0..12u64 {
        let run = wb
            .run(
                "pipeline",
                RunOptions {
                    max_steps: 18,
                    scheduler: Scheduler::seeded(seed),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(!run.deadlocked, "seed {seed} deadlocked");
        let conf = wb
            .conformance("pipeline", &run, ["output <= input"])
            .unwrap();
        assert!(conf.conforms(), "seed {seed}: {conf:?}");
    }
}

#[test]
fn protocol_retransmissions_never_break_delivery_order() {
    let mut wb = Workbench::new()
        .with_universe(Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]));
    wb.define_source(csp::examples::PROTOCOL_SRC).unwrap();
    let mut saw_retransmission = false;
    for seed in 0..10u64 {
        let run = wb
            .run(
                "protocol",
                RunOptions {
                    max_steps: 30,
                    scheduler: Scheduler::seeded(seed),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        saw_retransmission |= run.full.iter().any(|e| e.value() == &Value::sym("NACK"));
        let conf = wb
            .conformance("protocol", &run, ["output <= input", "output <= f(wire)"])
            .unwrap();
        // `output <= f(wire)` mentions the hidden wire, which the visible
        // trace cannot see — it holds vacuously there (empty wire
        // history gives f(<>) = <> only when output is also empty), so
        // only check the main invariant strictly:
        assert!(conf.trace_admitted, "seed {seed}: {conf:?}");
        assert!(
            conf.invariants[0].1.is_none(),
            "seed {seed} violated output <= input: {conf:?}"
        );
    }
    assert!(
        saw_retransmission,
        "no NACK across 10 seeds — scheduler never exercised retransmission"
    );
}

#[test]
fn multiplier_runs_correctly_across_seeds() {
    let mut wb = Workbench::new().with_universe(Universe::new(20));
    wb.bind_vector("v", &[2, 3, 5]);
    wb.define_source(
        "mult[i:1..3] = row[i]?x:{0..2} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
         zeroes = col[0]!0 -> zeroes
         last = col[3]?y:NAT -> output!y -> last
         network = zeroes || mult[1] || mult[2] || mult[3] || last
         multiplier = chan col[0..3]; network",
    )
    .unwrap();
    for seed in 0..6u64 {
        let run = wb
            .run(
                "multiplier",
                RunOptions {
                    max_steps: 48,
                    scheduler: Scheduler::seeded(seed),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(!run.deadlocked, "seed {seed} deadlocked: {}", run.full);
        let h = run.visible.history();
        let out = h.on(&Channel::simple("output"));
        for i in 1..=out.len() {
            let expected: i64 = (1..=3)
                .map(|j| {
                    [2, 3, 5][j - 1]
                        * h.on(&Channel::indexed("row", j as i64))
                            .at(i)
                            .expect("row value present")
                            .as_int()
                            .unwrap()
                })
                .sum();
            assert_eq!(
                out.at(i).unwrap().as_int().unwrap(),
                expected,
                "seed {seed}, output {i}"
            );
        }
    }
}

#[test]
fn long_runs_stay_linear_and_consistent() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::BUFFER2_SRC).unwrap();
    let run = wb
        .run(
            "buffer2",
            RunOptions {
                max_steps: 300,
                scheduler: Scheduler::seeded(9),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(run.steps, 300);
    let h = run.visible.history();
    let outs = h.on(&Channel::simple("out"));
    let ins = h.on(&Channel::simple("in"));
    assert!(outs.is_prefix_of(&ins));
    // A 2-cell buffer holds at most 2 in-flight messages.
    assert!(ins.len() - outs.len() <= 2);
}

// ----------------------------------------------------------- faults --

/// Crash, stall, and delay plans targeting component 0 and component 1 —
/// applicable to every network below.
fn standard_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::none(),
        FaultPlan::none().crash(0usize, 3),
        FaultPlan::none().crash(1usize, 5),
        FaultPlan::none().stall(0usize, 2, 4),
        FaultPlan::none().delay(1usize, 1, 3),
        FaultPlan::none()
            .crash(1usize, 4)
            .with_restart(RestartPolicy::Replay),
    ]
}

fn sweep(max_steps: usize) -> FaultSweep {
    FaultSweep::new(0..8u64, standard_plans())
        .with_max_steps(max_steps)
        .with_supervision(Supervision::default().with_round_timeout(Duration::from_secs(5)))
}

#[test]
fn pipeline_degrades_conformantly_under_faults() {
    let started = Instant::now();
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    let result = wb
        .fault_conformance("pipeline", ["output <= input"], &sweep(18))
        .unwrap();
    assert_eq!(result.runs.len(), 48);
    assert!(result.all_conformant(), "{:?}", result.violations());
    for run in &result.runs {
        match run.plan {
            // Fail-stop crashes leave the component dead and reported.
            1 | 2 => assert!(
                matches!(run.outcome, RunOutcome::ComponentFailed { .. }),
                "plan {} seed {}: {:?}",
                run.plan,
                run.seed,
                run.outcome
            ),
            // Stalls, delays, and replay-recovered crashes are transparent.
            0 | 3 | 4 | 5 => assert!(
                run.outcome.is_clean(),
                "plan {} seed {}: {:?}",
                run.plan,
                run.seed,
                run.outcome
            ),
            _ => unreachable!(),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "sweep too slow"
    );
}

#[test]
fn protocol_degrades_conformantly_under_faults() {
    let started = Instant::now();
    let mut wb = Workbench::new()
        .with_universe(Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]));
    wb.define_source(csp::examples::PROTOCOL_SRC).unwrap();
    let result = wb
        .fault_conformance("protocol", ["output <= input"], &sweep(30))
        .unwrap();
    assert_eq!(result.runs.len(), 48);
    assert!(result.all_conformant(), "{:?}", result.violations());
    // Every crash plan actually killed its target.
    assert!(result
        .runs
        .iter()
        .filter(|r| matches!(r.plan, 1 | 2 | 5))
        .all(|r| r.failures == 1));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "sweep too slow"
    );
}

#[test]
fn buffer_degrades_conformantly_under_faults() {
    let started = Instant::now();
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::BUFFER2_SRC).unwrap();
    let result = wb
        .fault_conformance("buffer2", ["out <= in"], &sweep(40))
        .unwrap();
    assert_eq!(result.runs.len(), 48);
    assert!(result.all_conformant(), "{:?}", result.violations());
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "sweep too slow"
    );
}

#[test]
fn multiplier_outputs_stay_correct_while_degrading() {
    // Graceful degradation, stated structurally: killing one multiplier
    // stage stops the column pipeline eventually, but every output that
    // *does* appear is still a correct scalar product — faults removed
    // behaviour, they never corrupted it.
    let started = Instant::now();
    let mut wb = Workbench::new().with_universe(Universe::new(20));
    wb.bind_vector("v", &[2, 3, 5]);
    wb.define_source(
        "mult[i:1..3] = row[i]?x:{0..2} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
         zeroes = col[0]!0 -> zeroes
         last = col[3]?y:NAT -> output!y -> last
         network = zeroes || mult[1] || mult[2] || mult[3] || last
         multiplier = chan col[0..3]; network",
    )
    .unwrap();
    for seed in 0..8u64 {
        for (plan, crashy) in [
            (FaultPlan::none().crash("mult[2]", 6), true),
            (FaultPlan::none().stall("mult[1]", 3, 5), false),
            (FaultPlan::none().delay("last", 2, 4), false),
        ] {
            let run = wb
                .run(
                    "multiplier",
                    RunOptions {
                        max_steps: 40,
                        scheduler: Scheduler::seeded(seed),
                        faults: plan,
                        ..RunOptions::default()
                    },
                )
                .unwrap();
            if crashy {
                assert!(
                    matches!(run.outcome, RunOutcome::ComponentFailed { ref label, .. }
                        if label == "mult[2]"),
                    "seed {seed}: {:?}",
                    run.outcome
                );
            } else {
                assert!(run.outcome.is_clean(), "seed {seed}: {:?}", run.outcome);
            }
            let h = run.visible.history();
            let out = h.on(&Channel::simple("output"));
            for i in 1..=out.len() {
                let expected: i64 = (1..=3)
                    .map(|j| {
                        [2, 3, 5][j - 1]
                            * h.on(&Channel::indexed("row", j as i64))
                                .at(i)
                                .expect("row value present")
                                .as_int()
                                .unwrap()
                    })
                    .sum();
                assert_eq!(
                    out.at(i).unwrap().as_int().unwrap(),
                    expected,
                    "seed {seed}"
                );
            }
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "sweep too slow"
    );
}

#[test]
fn replay_restart_reconstructs_state_exactly() {
    // State = function of communication history (§3): a crashed-and-
    // replayed run is event-for-event identical to the healthy run under
    // the same seed, for every seed and either component.
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    for seed in 0..8u64 {
        let healthy = wb
            .run(
                "pipeline",
                RunOptions {
                    max_steps: 20,
                    scheduler: Scheduler::seeded(seed),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        for component in ["copier", "recopier"] {
            let faulty = wb
                .run(
                    "pipeline",
                    RunOptions {
                        max_steps: 20,
                        scheduler: Scheduler::seeded(seed),
                        faults: FaultPlan::none()
                            .crash(component, 7)
                            .with_restart(RestartPolicy::Replay),
                        ..RunOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(
                faulty.full, healthy.full,
                "seed {seed}, crash {component}: replay changed the trace"
            );
            assert_eq!(faulty.recoveries(), 1);
            assert!(faulty.outcome.is_clean());
        }
    }
}

#[test]
fn starved_component_keeps_invariants_but_loses_turns() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    // Starving the recopier: input events (copier-only) are always
    // preferred over the shared wire/output events, so the recopier
    // advances only when the copier has nothing private to do.
    let run = wb
        .run(
            "pipeline",
            RunOptions {
                max_steps: 16,
                scheduler: Scheduler::seeded(0),
                faults: FaultPlan::none().starving("recopier"),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let conf = wb
        .conformance("pipeline", &run, ["output <= input"])
        .unwrap();
    assert!(conf.conforms(), "{conf:?}");
}
