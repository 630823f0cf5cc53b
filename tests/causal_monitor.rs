//! Causal observability and online monitoring, end to end: the seeded
//! demo run of ISSUE 10's acceptance criteria, doctored-log detection,
//! and property tests over random chain networks — fault-free runs
//! conform per the enumerative oracle, verdicts and clocks are
//! observation-independent, and the Mermaid MSC round-trips the
//! happens-before relation.

use std::time::Instant;

use csp::prelude::*;
use csp::{examples, msc, CausalError, Monitor, RunResult, Trace};
use proptest::prelude::*;

/// The acceptance demo: a seeded pipeline run with a crash-and-replay
/// fault plan produces a Mermaid MSC, a causal log whose happens-before
/// relation validates, and a conforming monitor verdict.
#[test]
fn seeded_demo_run_produces_msc_validating_log_and_verdict() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(examples::PIPELINE_SRC).unwrap();
    let spec = wb.monitor_spec(["output <= input"]).unwrap();
    let res = wb
        .run(
            "pipeline",
            RunOptions {
                max_steps: 24,
                scheduler: Scheduler::seeded(7),
                faults: FaultPlan::none()
                    .crash("copier", 6)
                    .with_restart(RestartPolicy::Replay),
                monitor: Some(spec),
                ..RunOptions::default()
            },
        )
        .unwrap();

    // The causal log recorded the communications *and* the supervision
    // events (death + restart), and its clock protocol validates.
    res.causal.validate().expect("clock-consistent log");
    assert!(res.causal.events().iter().any(|e| !e.is_comm()));
    assert!(res.causal.events().iter().any(|e| e.is_comm()));
    assert_eq!(res.clocks.len(), 2);

    // The MSC names both processes and carries every communication.
    let mmd = msc::render_mermaid(&res.causal);
    assert!(mmd.starts_with("sequenceDiagram"));
    assert!(mmd.contains("participant P0 as copier"));
    assert!(mmd.contains("participant P1 as recopier"));
    assert!(mmd.contains("Note over P0: death"));
    let text = msc::render_text(&res.causal);
    assert!(text.lines().count() >= res.causal.len());

    // The run conformed to its own spec while executing.
    let monitor = res.monitor.expect("monitoring was on");
    assert!(monitor.is_conforming(), "{monitor:?}");
    assert_eq!(monitor.events_checked, res.visible.len());

    // And the Chrome export carries one flow per hidden wire rendezvous.
    let chrome = csp::chrome_causal_trace(&res.causal);
    assert!(chrome.contains("\"ph\":\"s\"") && chrome.contains("\"ph\":\"f\""));
}

/// Doctoring a recorded log — re-stamping one event's merged clock —
/// fails validation with an error naming that exact event.
#[test]
fn doctored_log_yields_violation_naming_first_bad_event() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(examples::PIPELINE_SRC).unwrap();
    let res = wb
        .run(
            "pipeline",
            RunOptions {
                max_steps: 12,
                scheduler: Scheduler::seeded(11),
                ..RunOptions::default()
            },
        )
        .unwrap();
    res.causal.validate().expect("honest log validates");
    assert!(res.causal.len() >= 3);

    // Rebuild the log verbatim except for event 2, whose merged clock
    // gets an extra tick it never earned.
    let mut doctored = CausalLog::new(res.causal.labels().to_vec(), res.causal.cap());
    for e in res.causal.events() {
        let mut clock = e.clock.clone();
        if e.seq == 2 {
            clock.tick(e.participants[0]);
        }
        doctored.push(
            e.step,
            e.kind.clone(),
            e.participants.clone(),
            e.pre_clocks.clone(),
            clock,
        );
    }
    match doctored.validate() {
        Err(CausalError::BadMerge { seq } | CausalError::BadTick { seq, .. }) => {
            assert_eq!(seq, 2, "the first inconsistent event is named");
        }
        other => panic!("doctored log slipped through: {other:?}"),
    }
}

/// Feeding the monitor an event the process cannot perform yet latches
/// a violation that names the offending step.
#[test]
fn out_of_spec_event_is_flagged_at_its_step() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(examples::PIPELINE_SRC).unwrap();
    let body = wb.definitions().get("pipeline").unwrap().body().clone();
    let mut monitor = Monitor::new(
        &body,
        wb.env(),
        wb.definitions(),
        wb.universe(),
        MonitorSpec::new(),
    );
    // The pipeline must input before it can ever output.
    let bogus = Event::new(Channel::simple("output"), Value::nat(0));
    assert!(!monitor.observe(bogus, 0, 0));
    let report = monitor.report();
    assert!(!report.is_conforming());
    let v = report.violation.expect("violation recorded");
    assert_eq!(v.step, 0);
    assert_eq!(v.event, bogus);
}

/// A `--monitor`-style run of a random hidden chain network: `stages`
/// one-place copiers joined by hidden links, external channels `c0` in
/// and `c<stages>` out.
fn chain_source(stages: usize) -> String {
    let mut src = String::new();
    for i in 0..stages {
        src.push_str(&format!(
            "stage{i} = c{i}?x:NAT -> c{}!x -> stage{i}\n",
            i + 1
        ));
    }
    let hides: String = (1..stages).map(|i| format!("chan c{i}; ")).collect();
    let pars: Vec<String> = (0..stages).map(|i| format!("stage{i}")).collect();
    src.push_str(&format!("net = {hides}({})\n", pars.join(" || ")));
    src
}

fn chain_workbench(stages: usize) -> Workbench {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(&chain_source(stages)).unwrap();
    wb
}

fn monitored_run(wb: &Workbench, seed: u64, steps: usize) -> RunResult {
    wb.run(
        "net",
        RunOptions {
            max_steps: steps,
            scheduler: Scheduler::seeded(seed),
            monitor: Some(MonitorSpec::new()),
            ..RunOptions::default()
        },
    )
    .unwrap()
}

proptest! {
    // Each case spins up a real multi-threaded executor (and the oracle
    // enumerates traces), so keep the case count at stress-test scale
    // rather than proptest's default 256.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) Fault-free runs always conform: the monitor says so online,
    /// and the enumerative oracle agrees that the observed visible
    /// trace is a trace of the network.
    #[test]
    fn fault_free_runs_conform_and_land_in_traces(
        stages in 1usize..=3,
        seed in 0u64..1000,
        steps in 1usize..=6,
    ) {
        let wb = chain_workbench(stages);
        let res = monitored_run(&wb, seed, steps);
        let monitor = res.monitor.expect("monitoring was on");
        prop_assert!(monitor.is_conforming(), "{monitor:?}");
        res.causal.validate().expect("clock-consistent log");
        let oracle = wb.traces("net", steps).unwrap();
        prop_assert!(oracle.contains(&res.visible), "{} not derivable", res.visible);
        // Every visible prefix is a trace too (prefix closure observed).
        let events: Vec<Event> = res.visible.iter().copied().collect();
        for k in 0..events.len() {
            prop_assert!(oracle.contains(&Trace::from_events(events[..k].to_vec())));
        }
    }

    /// (b) Observation independence: enabling the metrics collector
    /// changes neither the monitor verdict nor the final vector clocks
    /// nor the causal log itself.
    #[test]
    fn verdict_and_clocks_agree_with_collector_on_and_off(
        stages in 1usize..=3,
        seed in 0u64..1000,
        steps in 1usize..=8,
    ) {
        let wb = chain_workbench(stages);
        let opts = || RunOptions {
            max_steps: steps,
            scheduler: Scheduler::seeded(seed),
            monitor: Some(MonitorSpec::new()),
            ..RunOptions::default()
        };
        let observed = wb.session_with(Collector::new()).run("net", opts()).unwrap();
        let dark = wb.session_with(Collector::disabled()).run("net", opts()).unwrap();
        prop_assert_eq!(observed.clocks, dark.clocks);
        prop_assert_eq!(
            observed.monitor.as_ref().map(|m| (m.verdict, m.events_checked)),
            dark.monitor.as_ref().map(|m| (m.verdict, m.events_checked))
        );
        prop_assert_eq!(observed.causal.events(), dark.causal.events());
        prop_assert_eq!(&observed.visible, &dark.visible);
    }

    /// (c) The Mermaid MSC round-trips the causal order: parsing the
    /// rendered chart back recovers exactly the happens-before edges of
    /// the log's communications.
    #[test]
    fn msc_round_trips_happens_before(
        stages in 1usize..=3,
        seed in 0u64..1000,
        steps in 1usize..=8,
    ) {
        let wb = chain_workbench(stages);
        let res = monitored_run(&wb, seed, steps);
        let rendered = msc::render_mermaid(&res.causal);
        let parsed = msc::parse_mermaid(&rendered).expect("own MSC parses");
        prop_assert_eq!(parsed.participants.len(), stages);
        prop_assert_eq!(parsed.hb_edges(), res.causal.comm_hb_edges());
    }
}

/// The acceptance bound: a monitored run stays within 2× of an
/// unmonitored one. Wall-clock asserts are noisy on shared runners, so
/// the bound gets a generous absolute floor — the bench gate
/// (`run/monitor_overhead`, ±30%) is the precise regression tripwire.
#[test]
fn monitored_run_within_twice_unmonitored() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(examples::PIPELINE_SRC).unwrap();
    let time = |monitor: bool| {
        let t0 = Instant::now();
        for seed in 0..6u64 {
            let spec = monitor.then(|| wb.monitor_spec(["output <= input"]).unwrap());
            let res = wb
                .run(
                    "pipeline",
                    RunOptions {
                        max_steps: 96,
                        scheduler: Scheduler::seeded(seed),
                        monitor: spec,
                        ..RunOptions::default()
                    },
                )
                .unwrap();
            assert!(res.monitor.is_none() || res.monitor.unwrap().is_conforming());
        }
        t0.elapsed().as_secs_f64()
    };
    // Warm up thread-spawn machinery once, then measure.
    let _ = time(false);
    let unmonitored = time(false);
    let monitored = time(true);
    assert!(
        monitored <= unmonitored * 2.0 + 0.25,
        "monitored {monitored:.3}s vs unmonitored {unmonitored:.3}s"
    );
}
