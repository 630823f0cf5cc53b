//! `bench-json` — the machine-readable perf baseline (P1–P4 + E1–E7).
//!
//! Runs every paper workload at fixed sizes, measures median wall time
//! plus semantic size metrics (trace counts, peak set sizes), and emits
//! `csp-bench-json/v1` JSON. CI runs this on every PR and gates the
//! numbers against the committed `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p csp-bench --bin bench-json                 # print JSON
//! cargo run --release -p csp-bench --bin bench-json -- --out BENCH_baseline.json
//! cargo run --release -p csp-bench --bin bench-json -- \
//!     --compare BENCH_baseline.json --tolerance 0.30               # CI gate
//! cargo run --release -p csp-bench --bin bench-json -- \
//!     --metrics-out bench-events.jsonl                 # + span event log
//! ```
//!
//! `--metrics-out` activates a shared collector across all workloads and
//! writes the recorded span stream as JSONL, so the CI gate runs with
//! observability enabled — the ±30% tolerance therefore also bounds the
//! instrumentation overhead.
//!
//! `--serve URL|spawn` switches to the **server load driver**: instead
//! of the in-process workloads it drives a running `csp serve` instance
//! (or spawns one in-process with `spawn`) through the HTTP API and
//! reports `serve/cold_check_ms`, `serve/warm_check_ms`,
//! `serve/rps_mixed` (stored as ms per 1000 requests so the shared
//! wall-time gate catches throughput drops) and `serve/p99_ms`. The same
//! `--out`/`--compare`/`--tolerance` gate path applies. The driver
//! itself enforces the ≥5× warm-over-cold cache speedup.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use csp_bench::report::{gate, BenchRecord, HistoryRow, Report, SpanAttr, Verdict};
use csp_bench::{
    chain_workbench, multiplier_invariant, multiplier_workbench, pipeline_workbench,
    protocol_workbench,
};
use csp_core::prelude::*;
use csp_core::proofs;
use csp_core::{check_with, stop_choice_identity, validate_all_rules, AnalysisDb};

/// The paper's module, benched as the front-end's reference input.
const PAPER_CSP: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper.csp"));

/// Size metrics one workload reports back alongside its wall time.
#[derive(Debug, Clone, Copy, Default)]
struct Metrics {
    traces: u64,
    peak_set: u64,
}

/// `paper.csp` as `csp profile --bind v=2,3,5 --set M=0,1` loads it,
/// over the CLI's default universe `NAT ↾ {0,1,2}`.
fn paper_workbench() -> Workbench {
    let uni = Universe::new(2).with_named("M", [Value::Int(0), Value::Int(1)]);
    let mut wb = Workbench::new().with_universe(uni);
    wb.define_source(PAPER_CSP).expect("paper.csp parses");
    wb.bind_vector("v", &[2, 3, 5]);
    wb
}

fn peak_of_run(run: &csp_core::FixpointRun) -> u64 {
    run.iterates
        .iter()
        .flat_map(|a| a.values())
        .map(|t| t.len() as u64)
        .max()
        .unwrap_or(0)
}

type Workload = (&'static str, Box<dyn Fn(&Collector) -> Metrics>);

fn workloads() -> Vec<Workload> {
    let mut v: Vec<Workload> = Vec::new();

    // P1 — trace enumeration vs. universe size at fixed depth.
    v.push((
        "P1/enumeration/copier_u3_d5",
        Box::new(|_c| {
            let mut wb = Workbench::new().with_universe(Universe::new(3));
            wb.define_source(csp_core::examples::PIPELINE_SRC)
                .expect("parses");
            let t = wb.traces("copier", 5).expect("traces");
            Metrics {
                traces: t.len() as u64,
                peak_set: t.len() as u64,
            }
        }),
    ));

    // P2 — parallel composition & hiding cost on a 4-stage chain.
    v.push((
        "P2/parallel_hiding/chain4_d4",
        Box::new(|_c| {
            let wb = chain_workbench(4);
            let t = wb.traces("chain", 4).expect("traces");
            Metrics {
                traces: t.len() as u64,
                peak_set: t.len() as u64,
            }
        }),
    ));

    // P3 — proof-checker throughput over the whole script suite.
    v.push((
        "P3/proofs/all_scripts",
        Box::new(|c| {
            let mut rules = 0u64;
            for script in proofs::all_scripts() {
                rules += check_with(&script.context, &script.goal, &script.proof, c)
                    .expect("checks")
                    .rule_count() as u64;
            }
            Metrics {
                traces: rules,
                peak_set: 0,
            }
        }),
    ));

    // P4 — concurrent runtime throughput (128 scheduled steps).
    v.push((
        "P4/runtime/pipeline_s128",
        Box::new(|c| {
            let wb = pipeline_workbench();
            let res = wb
                .session_with(c.clone())
                .run(
                    "pipeline",
                    RunOptions {
                        max_steps: 128,
                        scheduler: Scheduler::seeded(5),
                        ..RunOptions::default()
                    },
                )
                .expect("runs");
            Metrics {
                traces: res.steps as u64,
                peak_set: 0,
            }
        }),
    ));

    // E1 — the §2 pipeline claims, bounded-model-checked.
    v.push((
        "E1/sat/copier_wire_le_input_d5",
        Box::new(|c| {
            let wb = pipeline_workbench();
            let verdict = wb
                .session_with(c.clone())
                .check_sat("copier", "wire <= input", 5)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("E1 claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));

    // E2 — the completed §2.2(2) exercise, model-checked.
    v.push((
        "E2/sat/receiver_d3",
        Box::new(|c| {
            let wb = protocol_workbench();
            let verdict = wb
                .session_with(c.clone())
                .check_sat("receiver", "output <= f(wire)", 3)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("E2 claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));

    // E3 — the 6-step protocol proof's claim, model-checked.
    v.push((
        "E3/sat/protocol_d3",
        Box::new(|c| {
            let wb = protocol_workbench();
            let verdict = wb
                .session_with(c.clone())
                .check_sat("protocol", "output <= input", 3)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("E3 claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));

    // E4 — multiplier correctness at width 2.
    v.push((
        "E4/sat/multiplier_w2_d3",
        Box::new(|c| {
            let wb = multiplier_workbench(2);
            let inv = multiplier_invariant(2);
            let verdict = wb
                .session_with(c.clone())
                .check_sat("multiplier", &inv, 3)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("E4 claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));

    // E5 — the §3.3 fixpoint construction on all three paper networks.
    v.push((
        "E5/fixpoint/pipeline_d4",
        Box::new(|c| {
            let wb = pipeline_workbench();
            let run = wb
                .session_with(c.clone())
                .fixpoint(4, 24)
                .expect("fixpoint");
            assert!(run.converged_at.is_some());
            Metrics {
                traces: run.iterates.len() as u64,
                peak_set: peak_of_run(&run),
            }
        }),
    ));
    v.push((
        "E5/fixpoint/protocol_d3",
        Box::new(|c| {
            let wb = protocol_workbench();
            let run = wb
                .session_with(c.clone())
                .fixpoint(3, 24)
                .expect("fixpoint");
            assert!(run.converged_at.is_some());
            Metrics {
                traces: run.iterates.len() as u64,
                peak_set: peak_of_run(&run),
            }
        }),
    ));
    v.push((
        "E5/fixpoint/multiplier_w3_d2",
        Box::new(|c| {
            let wb = multiplier_workbench(3);
            let run = wb
                .session_with(c.clone())
                .fixpoint(2, 16)
                .expect("fixpoint");
            assert!(run.converged_at.is_some());
            Metrics {
                traces: run.iterates.len() as u64,
                peak_set: peak_of_run(&run),
            }
        }),
    ));

    // The fixpoint phase of CI's `csp profile paper.csp --bind v=2,3,5
    // --set M=0,1 --depth 2`, the slowest user path.
    v.push(("profile/paper_d2", {
        let wb = paper_workbench();
        Box::new(move |c| {
            let run = wb
                .session_with(c.clone())
                .fixpoint(2, 32)
                .expect("fixpoint");
            assert!(run.converged_at.is_some());
            Metrics {
                traces: run.iterates.len() as u64,
                peak_set: peak_of_run(&run),
            }
        })
    }));

    // E6 — empirical soundness of the ten §2.1 rules.
    v.push((
        "E6/soundness/rules_x12",
        Box::new(|_c| {
            let reports = validate_all_rules(2026, 12).expect("validates");
            assert!(reports.iter().all(|r| r.sound()));
            Metrics {
                traces: reports.iter().map(|r| r.premises_held as u64).sum(),
                peak_set: 0,
            }
        }),
    ));

    // E7 — the §4 defect STOP | P = P, verified semantically.
    v.push((
        "E7/stop_choice/pipeline_d4",
        Box::new(|_c| {
            let wb = pipeline_workbench();
            let (a, b) =
                stop_choice_identity(wb.definitions(), wb.universe(), "pipeline", 4).expect("E7");
            assert_eq!(a, b);
            Metrics {
                traces: a as u64,
                peak_set: a as u64,
            }
        }),
    ));

    // LTS — the compiled engine on workloads past the enumerative
    // engine's comfortable range: the width-4 multiplier at depth 4 and
    // the pipeline at depth 8. Both are networks, so they run compiled;
    // the gate's ±30% tolerance is the budget the compiled engine must
    // keep.
    v.push((
        "lts/multiplier_w4_d4",
        Box::new(|c| {
            let wb = multiplier_workbench(4);
            let inv = multiplier_invariant(4);
            let verdict = wb
                .session_with(c.clone())
                .check_sat("multiplier", &inv, 4)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("lts multiplier claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));
    v.push((
        "lts/pipeline_d8",
        Box::new(|c| {
            let wb = pipeline_workbench();
            let verdict = wb
                .session_with(c.clone())
                .check_sat("pipeline", "output <= input", 8)
                .expect("checks");
            let SatResult::Holds { traces_checked, .. } = verdict else {
                panic!("lts pipeline claim refuted");
            };
            Metrics {
                traces: traces_checked as u64,
                peak_set: traces_checked as u64,
            }
        }),
    ));

    // Front-end — cold full parse + lint of the paper module through the
    // incremental AnalysisDb. Target (ROADMAP/ISSUE 7): under 1 ms. The
    // gate clamps sub-millisecond baselines to 1 ms, so the ±30%
    // comparison doubles as an absolute "stays under ~1.3 ms" bound.
    v.push((
        "frontend/lint_paper_csp",
        Box::new(|_c| {
            let mut db = AnalysisDb::new();
            let stats = db.set_source(PAPER_CSP);
            assert!(db.parse_errors().is_empty(), "paper.csp parses cleanly");
            Metrics {
                traces: stats.relinted as u64,
                peak_set: db.diagnostics().len() as u64,
            }
        }),
    ));

    // Front-end — incremental re-lint after a single-definition edit:
    // toggle one appended leaf definition and re-run. Target: at least
    // 10× cheaper than the cold run above. The persistent db lives in a
    // RefCell because workloads are `Fn` closures called repeatedly.
    v.push(("frontend/relint_one_def", {
        let sources = [
            format!("{PAPER_CSP}\nbench_probe = probe!0 -> bench_probe\n"),
            format!("{PAPER_CSP}\nbench_probe = probe!1 -> bench_probe\n"),
        ];
        let primed = {
            let mut db = AnalysisDb::new();
            db.set_source(&sources[0]);
            std::cell::RefCell::new((db, 0usize))
        };
        Box::new(move |_c| {
            let (db, flip) = &mut *primed.borrow_mut();
            *flip ^= 1;
            let stats = db.set_source(&sources[*flip]);
            assert_eq!(stats.relinted, 1, "the edit dirties exactly one definition");
            Metrics {
                traces: stats.relinted as u64,
                peak_set: stats.cached as u64,
            }
        })
    }));

    // Fault-conformance sweep — the PR-1 robustness workload.
    v.push((
        "verify/faultconf/pipeline_4x2",
        Box::new(|_c| {
            let wb = pipeline_workbench();
            let sweep = FaultSweep::new(
                [1, 2, 3, 4],
                [FaultPlan::none(), FaultPlan::none().crash("copier", 12)],
            )
            .with_max_steps(32);
            let conf = wb
                .fault_conformance("pipeline", ["output <= input"], &sweep)
                .expect("sweeps");
            assert!(conf.all_conformant());
            Metrics {
                traces: conf.runs.len() as u64,
                peak_set: conf.runs.iter().map(|r| r.steps as u64).max().unwrap_or(0),
            }
        }),
    ));

    // Online-monitoring overhead — the PR-10 causal-observability
    // workload: a crash-and-replay pipeline run with the runtime
    // monitor replaying every visible event through the compiled LTS
    // and re-checking `output <= input` on each prefix. The ±30% gate
    // against the committed baseline is the monitor-overhead budget;
    // `tests/causal_monitor.rs` separately asserts the monitored/
    // unmonitored ratio stays under 2×.
    v.push((
        "run/monitor_overhead",
        Box::new(|c| {
            let wb = pipeline_workbench();
            let spec = wb.monitor_spec(["output <= input"]).expect("assertion");
            let res = wb
                .session_with(c.clone())
                .run(
                    "pipeline",
                    RunOptions {
                        max_steps: 96,
                        scheduler: Scheduler::seeded(7),
                        faults: FaultPlan::none()
                            .crash("copier", 12)
                            .with_restart(RestartPolicy::Replay),
                        monitor: Some(spec),
                        ..RunOptions::default()
                    },
                )
                .expect("runs");
            let monitor = res.monitor.as_ref().expect("monitored");
            assert!(monitor.is_conforming(), "fault-free replay must conform");
            Metrics {
                traces: monitor.events_checked as u64,
                peak_set: res.causal.len() as u64,
            }
        }),
    ));

    v
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

/// The spans a workload spent the most time in, from the collector
/// delta across its samples: positive time only, biggest first, capped
/// so the report stays small.
fn span_attribution(delta: &csp_core::obs::MetricsDelta) -> Vec<SpanAttr> {
    let mut spans: Vec<SpanAttr> = delta
        .spans
        .iter()
        .filter(|(_, s)| s.total_ns > 0)
        .map(|(name, s)| SpanAttr {
            span: name.clone(),
            total_ns: s.total_ns as u64,
            count: s.count.max(0) as u64,
        })
        .collect();
    spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.span.cmp(&b.span)));
    spans.truncate(8);
    spans
}

fn usage() -> ! {
    eprintln!(
        "usage: bench-json [--samples N] [--out PATH] [--filter SUBSTR] \
         [--metrics-out EVENTS.jsonl] [--history HISTORY.jsonl] \
         [--serve URL|spawn] [--compare BASELINE [--tolerance FRAC]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut samples = 3usize;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance = 0.30f64;
    let mut filter: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut history: Option<String> = None;
    let mut serve: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                samples = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--compare" => compare = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--filter" => filter = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--history" => history = Some(args.next().unwrap_or_else(|| usage())),
            "--serve" => serve = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let samples = samples.max(1);

    // With --metrics-out every instrumentable workload records into one
    // shared collector, so the gated timings include the observability
    // layer's overhead; otherwise the disabled fast path is measured.
    let collector = match &metrics_out {
        Some(_) => Collector::new(),
        None => Collector::disabled(),
    };

    let mut benches = Vec::new();
    if let Some(target) = &serve {
        // Server load mode: drive a csp serve instance over HTTP
        // instead of running the in-process workloads.
        let spawned = if target == "spawn" {
            let cfg = csp_serve::ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                ..csp_serve::ServeConfig::default()
            };
            let server = csp_serve::CspServer::bind(&cfg).expect("bind in-process server");
            let handle = server.spawn().expect("spawn in-process server");
            eprintln!("spawned in-process csp serve at {}", handle.url());
            Some(handle)
        } else {
            None
        };
        let url = spawned
            .as_ref()
            .map_or_else(|| target.clone(), csp_serve::ServerHandle::url);
        benches = csp_bench::load::run_load(&url).unwrap_or_else(|e| {
            eprintln!("serve load driver failed: {e}");
            std::process::exit(1);
        });
        for b in &benches {
            eprintln!(
                "{:<36} {:>10.2} ms  traces={} peak={}",
                b.name, b.wall_ms, b.traces, b.peak_set
            );
        }
        if let Some(handle) = spawned {
            handle.stop();
        }
    }
    let run_workloads = serve.is_none();
    for (name, work) in workloads().into_iter().filter(|_| run_workloads) {
        if let Some(f) = &filter {
            if !name.contains(f.as_str()) {
                continue;
            }
        }
        // One untimed warm-up so allocator and interner state are hot.
        let mut metrics = work(&collector);
        // Span attribution: the collector delta across the timed
        // samples says where each workload's wall time went.
        let before = collector.snapshot();
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            metrics = work(&collector);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let spans = span_attribution(&collector.snapshot().delta(&before));
        let wall_ms = median(times);
        eprintln!(
            "{name:<36} {wall_ms:>10.2} ms  traces={} peak={}",
            metrics.traces, metrics.peak_set
        );
        benches.push(BenchRecord {
            name: name.to_string(),
            wall_ms,
            traces: metrics.traces,
            peak_set: metrics.peak_set,
            spans,
        });
    }

    let report = Report { samples, benches };
    let json = report.to_json();
    match &out {
        Some(path) => std::fs::write(path, &json).expect("write report"),
        None => print!("{json}"),
    }

    if let Some(path) = &history {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let row = HistoryRow::from_report(&report, unix_ms);
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("cannot open history {path}: {e}"));
        writeln!(f, "{}", row.to_jsonl_line()).expect("append history row");
        eprintln!(
            "appended history row to {path} (total {:.2} ms over {} benches)",
            row.total_wall_ms,
            row.benches.len()
        );
    }

    if let Some(path) = &metrics_out {
        let mut f = std::fs::File::create(path).expect("create event log");
        collector.write_jsonl(&mut f).expect("write event log");
        eprintln!(
            "wrote span event log to {path} ({} span(s), {} evicted)",
            collector.records().len(),
            collector.dropped()
        );
    }

    if let Some(path) = compare {
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = Report::from_json(&src).expect("baseline parses");
        let g = gate(&baseline, &report, tolerance);
        eprintln!("\n== gate vs {path} (±{:.0}%) ==", tolerance * 100.0);
        for line in &g.lines {
            let fmt_ms = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.2}"));
            let tag = match line.verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Improvement => "improved",
                Verdict::Unmatched => "unmatched",
            };
            eprintln!(
                "[{tag:>10}] {:<36} base {:>10} ms → now {:>10} ms",
                line.name,
                fmt_ms(line.baseline_ms),
                fmt_ms(line.current_ms),
            );
            for c in &line.culprits {
                eprintln!(
                    "             ↳ top regressing span: {} (+{:.2} ms)",
                    c.span,
                    c.delta_ns as f64 / 1e6
                );
            }
        }
        if !g.improvements().is_empty() {
            eprintln!("note: improvements past tolerance — refresh BENCH_baseline.json");
        }
        if !g.passed() {
            eprintln!(
                "gate FAILED: wall-time regression past ±{:.0}%",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        eprintln!("gate passed");
    }
}
