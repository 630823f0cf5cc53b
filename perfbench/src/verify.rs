//! The `verify` workload: one client model-checking the paper's systems
//! in-process — bounded `sat` on both engines, refuted claims, deadlock
//! search, trace refinement, monitored crash-and-replay runs, and
//! conformance replays. It loads the state arena, the trace-set algebra,
//! per-trace assertion evaluation, the deadlock search and the monitor,
//! none of which calls the pure-premise oracle. Each pass then runs six
//! of `prove`'s lightest classes, which do: `BENCHMARK.json` lists this
//! workload but not `prove`, whose long requests follow the host's speed
//! phase, so these carry the proof checker and the oracle into its runs.

use std::time::Instant;

use csp_core::obs::{Collector, Span};
use csp_core::prelude::*;
use csp_core::{CompiledLts, OpStats, RunResult};

use crate::stats::{pass_order, vm_hwm_mb};
use crate::trace::Tracer;
use crate::{Args, Sample, Workload};

/// One pass's wall time on the reference host (2 vCPUs).
pub const NOMINAL_PASS_S: f64 = 0.2;

/// A class stands for its median sample. Most requests take under a
/// millisecond and spawn scoped threads, so thread start-up jitter moves
/// them more than the host's phase does; the median settles that jitter,
/// where the fastest sample is its extreme.
pub const CLASS_PERCENTILE: f64 = 50.0;

const PAPER_CSP: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../paper.csp"));

/// Events per monitored run.
const RUN_STEPS: usize = 24;

/// The invariant every monitored run and conformance replay checks.
const INVARIANT: &str = "output <= input";

enum Op {
    /// `check_sat`; the known answer is the verdict and the engine
    /// `Engine::Auto` resolves to.
    Sat {
        wb: usize,
        process: &'static str,
        assertion: String,
        depth: usize,
        holds: bool,
        engine: Engine,
    },
    Deadlocks {
        wb: usize,
        process: &'static str,
        depth: usize,
        free: bool,
    },
    /// `implementation` refines `specification` up to `depth`.
    Refines {
        wb: usize,
        implementation: &'static str,
        specification: &'static str,
        depth: usize,
    },
    /// A seeded crash-and-replay run under the online monitor, which
    /// must report `conforming`.
    Run {
        wb: usize,
        process: &'static str,
        plan: &'static str,
        seed: u64,
    },
    /// Conformance replay of a run recorded during set-up.
    Conform { recorded: usize },
}

struct Request {
    class: &'static str,
    op: Op,
}

/// A run recorded during set-up for the conformance requests.
struct Recorded {
    wb: usize,
    process: &'static str,
    result: RunResult,
}

struct Verify {
    seed: u64,
    workbenches: Vec<Workbench>,
    recorded: Vec<Recorded>,
    requests: Vec<Request>,
    /// `prove`'s light classes, run after this list in every pass.
    proofs: Box<dyn Workload>,
}

const PIPELINE: usize = 0;
const PROTOCOL: usize = 1;
const CHAIN4: usize = 2;
const CHAIN6: usize = 3;
const MULT2: usize = 4;
const MULT3: usize = 5;
const MULT4: usize = 6;
const PAPER: usize = 7;

/// The crash-and-replay runs: `(workbench, network, fault plan)`.
const RUNS: [(usize, &str, &str); 2] = [
    (PIPELINE, "pipeline", "crash:copier@5;restart:replay"),
    (PROTOCOL, "protocol", "crash:receiver@4;restart:replay"),
];

fn run_options(wb: &Workbench, plan: &str, seed: u64) -> Result<RunOptions, String> {
    Ok(RunOptions {
        max_steps: RUN_STEPS,
        scheduler: Scheduler::seeded(seed),
        faults: FaultPlan::parse(plan).map_err(|e| e.to_string())?,
        monitor: Some(wb.monitor_spec([INVARIANT]).map_err(|e| e.to_string())?),
        ..RunOptions::default()
    })
}

pub fn setup(args: &Args, mut tracer: Option<&mut Tracer>) -> Result<Box<dyn Workload>, String> {
    let t = Instant::now();
    // The 4-stage chain also holds the pipeline, for the refinement check.
    let mut chain4 = csp_bench::chain_workbench(4);
    chain4
        .define_source(csp_core::examples::PIPELINE_SRC)
        .map_err(|e| e.to_string())?;
    let mut paper = Workbench::new().with_universe(Universe::new(1));
    paper.define_source(PAPER_CSP).map_err(|e| e.to_string())?;
    let workbenches = vec![
        csp_bench::pipeline_workbench(),
        csp_bench::protocol_workbench(),
        chain4,
        csp_bench::chain_workbench(6),
        csp_bench::multiplier_workbench(2),
        csp_bench::multiplier_workbench(3),
        csp_bench::multiplier_workbench(4),
        paper,
    ];
    if let Some(tr) = tracer.as_deref_mut() {
        tr.add("lang.parse_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let proofs = crate::prove::setup_light(args, tracer)?;

    let mut recorded = Vec::new();
    for (seed, (wb, process, plan)) in (11..).zip(RUNS) {
        let w = &workbenches[wb];
        let result = w
            .run(process, run_options(w, plan, seed)?)
            .map_err(|e| format!("recording {process}: {e}"))?;
        recorded.push(Recorded {
            wb,
            process,
            result,
        });
    }

    let inv = csp_bench::multiplier_invariant;
    let wrong = "forall i:NAT. 1 <= i and i <= #output => output[i] == v[1]*row[1][i]";
    let (enu, com) = (Engine::Enumerative, Engine::Compiled);
    #[rustfmt::skip]
    let sats = [
        ("sat.copier_d5", PIPELINE, "copier", "wire <= input".into(), 5, true, enu),
        ("sat.sender_d5", PROTOCOL, "sender", "f(wire) <= input".into(), 5, true, enu),
        ("sat.receiver_d5", PROTOCOL, "receiver", "output <= f(wire)".into(), 5, true, enu),
        ("sat.pipeline_d4", PIPELINE, "pipeline", INVARIANT.into(), 4, true, com),
        ("sat.pipeline_d8", PIPELINE, "pipeline", INVARIANT.into(), 8, true, com),
        ("sat.pipeline_d10", PIPELINE, "pipeline", INVARIANT.into(), 10, true, com),
        ("sat.protocol_d5", PROTOCOL, "protocol", INVARIANT.into(), 5, true, com),
        ("sat.chain4_d6", CHAIN4, "chain", INVARIANT.into(), 6, true, com),
        ("sat.chain6_d6", CHAIN6, "chain", INVARIANT.into(), 6, true, com),
        ("sat.mult_w2_d3", MULT2, "multiplier", inv(2), 3, true, com),
        ("sat.mult_w3_d4", MULT3, "multiplier", inv(3), 4, true, com),
        ("sat.mult_w4_d4", MULT4, "multiplier", inv(4), 4, true, com),
        ("refute.pipeline_d6", PIPELINE, "pipeline", "input <= output".into(), 6, false, com),
        ("refute.mult_w3_d4", MULT3, "multiplier", wrong.into(), 4, false, com),
    ];
    let mut requests: Vec<Request> = sats
        .into_iter()
        .map(
            |(class, wb, process, assertion, depth, holds, engine)| Request {
                class,
                op: Op::Sat {
                    wb,
                    process,
                    assertion,
                    depth,
                    holds,
                    engine,
                },
            },
        )
        .collect();
    let deadlocks = [
        ("deadlock.table_d8", PAPER, "table", 8, false),
        ("deadlock.pipeline_d8", PIPELINE, "pipeline", 8, true),
        ("deadlock.protocol_d6", PROTOCOL, "protocol", 6, true),
    ];
    requests.extend(
        deadlocks
            .into_iter()
            .map(|(class, wb, process, depth, free)| Request {
                class,
                op: Op::Deadlocks {
                    wb,
                    process,
                    depth,
                    free,
                },
            }),
    );
    requests.push(Request {
        class: "refine.pipeline_chain4_d6",
        op: Op::Refines {
            wb: CHAIN4,
            implementation: "pipeline",
            specification: "chain",
            depth: 6,
        },
    });
    for (class, seed, (wb, process, plan)) in [
        ("run.pipeline_crash_replay", 3, RUNS[0]),
        ("run.protocol_crash_replay", 4, RUNS[1]),
    ] {
        requests.push(Request {
            class,
            op: Op::Run {
                wb,
                process,
                plan,
                seed,
            },
        });
    }
    for (class, recorded) in [("conform.pipeline", 0), ("conform.protocol", 1)] {
        requests.push(Request {
            class,
            op: Op::Conform { recorded },
        });
    }
    Ok(Box::new(Verify {
        seed: args.seed,
        workbenches,
        recorded,
        requests,
        proofs,
    }))
}

/// Runs `f`, under a span that also feeds `metric` when tracing.
fn layer<T>(
    tracer: &mut Option<&mut Tracer>,
    root: &Option<Span>,
    span: &'static str,
    metric: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match (tracer.as_deref_mut(), root) {
        (Some(tr), Some(root)) => tr.timed(root, span, metric, f),
        _ => f(),
    }
}

fn count(tracer: &mut Option<&mut Tracer>, metric: &'static str, value: usize) {
    if let Some(tr) = tracer.as_deref_mut() {
        tr.add(metric, value as f64);
    }
}

impl Verify {
    /// Runs request `i`; returns whether its answer matched and its
    /// latency in milliseconds. Benchmark-side attribution after a
    /// traced request is not part of its latency.
    fn run(&self, i: usize, mut tracer: Option<&mut Tracer>) -> Result<(bool, f64), String> {
        let class = self.requests[i].class;
        let root = tracer.as_deref().map(|tr| tr.request(i, class));
        let before = crate::alloc::totals();
        let ops = OpStats::snapshot();
        let t = Instant::now();
        let ok = self.execute(&self.requests[i].op, &mut tracer, &root)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let (Some(tr), Some(root)) = (tracer, root) {
            let d = OpStats::snapshot().delta(&ops);
            tr.charge_allocs(class, before);
            root.end();
            tr.add("trace.unions", d.unions as f64);
            tr.add("trace.intern_hits", d.intern_hits as f64);
            tr.add("trace.intern_misses", d.intern_misses as f64);
            if let Op::Sat {
                wb, process, depth, ..
            } = &self.requests[i].op
            {
                self.count_states(tr, *wb, process, *depth)?;
            }
        }
        Ok((ok, ms))
    }

    /// States and transitions behind a `sat` request: the compiled
    /// engine's arena for the same start and depth.
    fn count_states(
        &self,
        tracer: &mut Tracer,
        wb: usize,
        process: &str,
        depth: usize,
    ) -> Result<(), String> {
        let wb = &self.workbenches[wb];
        let mut lts = CompiledLts::new(wb.definitions(), wb.universe());
        let start = lts.start(process, wb.env());
        let budget = depth * SatOptions::default().internal_budget_factor;
        lts.traces_budgeted(start, depth, budget)
            .map_err(|e| e.to_string())?;
        tracer.add("semantics.states", lts.num_states() as f64);
        tracer.add("semantics.transitions", lts.num_transitions() as f64);
        Ok(())
    }

    /// One request through a `Session`, whose collector is the traced
    /// run's (the program's spans switched on) or the disabled one.
    fn execute(
        &self,
        op: &Op,
        tr: &mut Option<&mut Tracer>,
        root: &Option<Span>,
    ) -> Result<bool, String> {
        let err = |e: WorkbenchError| e.to_string();
        let col = tr
            .as_deref()
            .map_or_else(Collector::disabled, |t| t.collector.clone());
        Ok(match op {
            Op::Sat {
                wb,
                process,
                assertion,
                depth,
                holds,
                engine,
            } => {
                let session = self.workbenches[*wb].session_with(col);
                let r = layer(tr, root, "bench.verify.sat", "verify.sat_ms", || {
                    session.check_sat(process, assertion, *depth)
                })
                .map_err(err)?;
                let engine_metric = match r.engine() {
                    Engine::Compiled => "verify.engine.compiled",
                    _ => "verify.engine.enumerative",
                };
                count(tr, engine_metric, 1);
                r.holds() == *holds && r.engine() == *engine
            }
            Op::Deadlocks {
                wb,
                process,
                depth,
                free,
            } => {
                let session = self.workbenches[*wb].session_with(col);
                let r = layer(
                    tr,
                    root,
                    "bench.verify.deadlock",
                    "verify.deadlock_ms",
                    || session.deadlocks(process, *depth),
                )
                .map_err(err)?;
                count(tr, "verify.deadlock_states", r.states_explored);
                r.deadlock_free() == *free
            }
            Op::Refines {
                wb,
                implementation,
                specification,
                depth,
            } => {
                let session = self.workbenches[*wb].session_with(col);
                layer(tr, root, "bench.verify.refine", "verify.refine_ms", || {
                    session.refines(implementation, specification, *depth)
                })
                .map_err(err)?
                .is_ok()
            }
            Op::Run {
                wb,
                process,
                plan,
                seed,
            } => {
                let w = &self.workbenches[*wb];
                let opts = run_options(w, plan, *seed)?;
                let session = w.session_with(col);
                let r = layer(tr, root, "bench.runtime.run", "runtime.run_ms", || {
                    session.run(process, opts)
                })
                .map_err(err)?;
                let monitor = r.monitor.as_ref();
                count(tr, "runtime.steps", r.steps);
                count(tr, "runtime.restarts", r.recoveries());
                count(
                    tr,
                    "runtime.monitor_events",
                    monitor.map_or(0, |m| m.events_checked),
                );
                monitor.is_some_and(MonitorReport::is_conforming)
            }
            Op::Conform { recorded } => {
                let rec = &self.recorded[*recorded];
                let session = self.workbenches[rec.wb].session_with(col);
                layer(
                    tr,
                    root,
                    "bench.runtime.conform",
                    "runtime.conform_ms",
                    || session.conformance(rec.process, &rec.result, [INVARIANT]),
                )
                .map_err(err)?
                .conforms()
            }
        })
    }
}

impl Workload for Verify {
    fn requests(&self) -> usize {
        self.requests.len() + self.proofs.requests()
    }

    fn pass(&mut self, pass: u64, mut tracer: Option<&mut Tracer>) -> Result<Vec<Sample>, String> {
        let mut samples = Vec::with_capacity(self.requests());
        for i in pass_order(self.seed, pass, self.requests.len()) {
            let (ok, ms) = self.run(i, tracer.as_deref_mut())?;
            samples.push(Sample {
                class: self.requests[i].class,
                ms,
                ok,
                lane: 0,
            });
        }
        samples.extend(self.proofs.pass(pass, tracer)?);
        Ok(samples)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb("self")
    }

    fn layers(&mut self, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let passes = tracer.passes.max(1) as f64;
        let mut out: Vec<(&'static str, f64)> = [
            "verify.sat_ms",
            "semantics.states",
            "semantics.transitions",
            "verify.engine.enumerative",
            "verify.engine.compiled",
            "verify.deadlock_ms",
            "verify.deadlock_states",
            "verify.refine_ms",
            "runtime.conform_ms",
            "runtime.run_ms",
            "runtime.steps",
            "runtime.restarts",
            "runtime.monitor_events",
            "trace.unions",
        ]
        .into_iter()
        .map(|name| (name, tracer.per_pass(name)))
        .collect();
        let hits = tracer.sum("trace.intern_hits");
        let lookups = hits + tracer.sum("trace.intern_misses");
        out.extend([
            (
                "semantics.explore_ms",
                tracer.span_ms("satcheck.explore") / passes,
            ),
            (
                "assertion.eval_ms",
                tracer.span_ms("satcheck.verdicts") / passes,
            ),
            (
                "assertion.evals",
                tracer.counter("satcheck.moments") as f64 / passes,
            ),
            (
                "trace.intern_hit_rate",
                if lookups > 0.0 { hits / lookups } else { 1.0 },
            ),
            // Set-up ran once, before any traced pass.
            ("lang.parse_ms", tracer.sum("lang.parse_ms")),
        ]);
        for (name, value) in self.proofs.layers(tracer)? {
            if !out.iter().any(|(n, _)| *n == name) {
                out.push((name, value));
            }
        }
        Ok(out)
    }
}
