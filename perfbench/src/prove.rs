//! The `prove` workload: one client checking the paper's proof scripts
//! and synthesising joint-recursion proofs in-process, as a CLI or CI
//! user waiting on each verdict would. Its cost is the pure-premise
//! oracle; it reaches no LTS, trace-set or HTTP code.

use std::time::Instant;

use csp_core::obs::Span;
use csp_core::prelude::*;
use csp_core::{
    check_with, decide_valid, parse_assertion, proofs, spec_goal, synthesize, ChannelInfo,
    CheckReport, Context, Decision, Discharge, Linter,
};

use crate::stats::{pass_order, vm_hwm_mb};
use crate::trace::Tracer;
use crate::{Args, Sample, Workload};

/// One pass's wall time on the reference host (2 vCPUs).
pub const NOMINAL_PASS_S: f64 = 1.2;

/// A class stands for its fastest sample. Each request is one long,
/// allocation-heavy computation on one thread, so its latency follows
/// the host's speed phase; the fastest sample is the one that met the
/// fast phase, and it moved least from run to run.
pub const CLASS_PERCENTILE: f64 = 0.0;

enum Op {
    /// Check one of the paper's proof scripts.
    Script(usize),
    /// `Workbench::prove_auto` on `(process, invariant)` specs of a
    /// fixture; `proves` is the known answer.
    Auto {
        wb: usize,
        specs: &'static [(&'static str, &'static str)],
        proves: bool,
    },
}

struct Request {
    class: &'static str,
    op: Op,
}

struct Prove {
    seed: u64,
    scripts: Vec<proofs::Script>,
    /// Channel vocabulary of each script, to read obligations back.
    script_info: Vec<ChannelInfo>,
    workbenches: Vec<Workbench>,
    requests: Vec<Request>,
    unreproduced: u64,
}

const PIPELINE: usize = 0;
const PROTOCOL: usize = 1;
const BUFFER: usize = 2;

/// The `prove_auto` classes: fixture, `(process, invariant)` specs, and
/// whether they prove.
type AutoClass = (
    &'static str,
    usize,
    &'static [(&'static str, &'static str)],
    bool,
);

#[rustfmt::skip]
const AUTO: [AutoClass; 7] = [
    ("auto.copier_wire", PIPELINE, &[("copier", "wire <= input")], true),
    ("auto.copier_length", PIPELINE, &[("copier", "#input <= #wire + 1")], true),
    ("auto.table1", PROTOCOL, &[("sender", "f(wire) <= input"), ("q", "f(wire) <= x^input")], true),
    ("auto.receiver", PROTOCOL, &[("receiver", "output <= f(wire)")], true),
    ("auto.cell0", BUFFER, &[("cell0", "link <= in")], true),
    ("fail.copier_reversed", PIPELINE, &[("copier", "input <= wire")], false),
    ("fail.copier_tight", PIPELINE, &[("copier", "#input <= #wire")], false),
];

/// The proof classes the `verify` workload carries: light checks that
/// still reach the oracle (`buffer2`, `auto.receiver`) or the synthesiser,
/// about 11 ms per pass, so the benchmark's traced runs measure the proof
/// layers without `prove`'s long, phase-bound requests.
const LIGHT: [&str; 6] = [
    "zeroes",
    "last",
    "buffer2",
    "auto.copier_wire",
    "auto.receiver",
    "fail.copier_tight",
];

pub fn setup(args: &Args, tracer: Option<&mut Tracer>) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(build(args, tracer, |_| true)?))
}

/// The [`LIGHT`] classes alone, as a part of another workload.
pub fn setup_light(args: &Args, tracer: Option<&mut Tracer>) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(build(args, tracer, |class| {
        LIGHT.contains(&class)
    })?))
}

fn build(
    args: &Args,
    tracer: Option<&mut Tracer>,
    keep: fn(&str) -> bool,
) -> Result<Prove, String> {
    let t = Instant::now();
    let mut buffer = Workbench::new().with_universe(Universe::new(1));
    buffer
        .define_source(csp_core::examples::BUFFER2_SRC)
        .map_err(|e| e.to_string())?;
    let workbenches = vec![
        csp_bench::pipeline_workbench(),
        csp_bench::protocol_workbench(),
        buffer,
    ];
    if let Some(tr) = tracer {
        tr.add("lang.parse_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let scripts = proofs::all_scripts();
    let script_info = scripts.iter().map(script_channel_info).collect();

    let mut requests: Vec<Request> = scripts
        .iter()
        .enumerate()
        .map(|(i, s)| Request {
            class: s.name,
            op: Op::Script(i),
        })
        .collect();
    requests.extend(AUTO.iter().map(|&(class, wb, specs, proves)| Request {
        class,
        op: Op::Auto { wb, specs, proves },
    }));
    requests.retain(|r| keep(r.class));
    Ok(Prove {
        seed: args.seed,
        scripts,
        script_info,
        workbenches,
        requests,
        unreproduced: 0,
    })
}

/// The channel vocabulary a script's definitions declare, plus its
/// sequence functions — what `Workbench::channel_info` derives.
fn script_channel_info(script: &proofs::Script) -> ChannelInfo {
    let mut wb = Workbench::new();
    for def in script.context.defs.iter() {
        wb.define(def.clone());
    }
    wb.channel_info().with_funcs(script.context.funcs.names())
}

impl Prove {
    fn context_of(wb: &Workbench) -> Context {
        let mut ctx = Context::new(wb.definitions().clone(), wb.universe().clone());
        ctx.env = wb.env().clone();
        ctx
    }

    /// `Workbench::prove_auto` step by step, with a span per step.
    fn auto_traced(
        tracer: &mut Tracer,
        root: &Span,
        wb: &Workbench,
        specs: &[(&str, &str)],
    ) -> Result<(CheckReport, Context), String> {
        let parsed: Vec<(String, Assertion)> = specs
            .iter()
            .map(|(n, src)| Ok((n.to_string(), wb.assertion(src)?)))
            .collect::<Result<_, WorkbenchError>>()
            .map_err(|e| e.to_string())?;
        let ctx = Self::context_of(wb);
        let proof = tracer
            .timed(root, "bench.proof.synth", "proof.synth_ms", || {
                synthesize(&ctx, &parsed, 0)
            })
            .map_err(|e| e.to_string())?;
        let goal = spec_goal(&ctx, &parsed[0]).map_err(|e| e.to_string())?;
        let col = tracer.collector.clone();
        let report = tracer
            .timed(root, "bench.proof.check", "proof.check_ms", || {
                check_with(&ctx, &goal, &proof, &col)
            })
            .map_err(|e| e.to_string())?;
        Ok((report, ctx))
    }

    /// Benchmark-side attribution after a traced request: the linter
    /// pre-pass `check_with` runs, and every `Syntactic`/`Bounded`
    /// obligation re-decided from its rendered formula.
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        class: &str,
        report: &CheckReport,
        ctx: &Context,
        info: &ChannelInfo,
    ) {
        let span = tracer.collector.span("bench.attribution");
        tracer.timed(&span, "bench.analysis.lint", "analysis.lint_ms", || {
            Linter::new(&ctx.defs).with_env(&ctx.env).run()
        });
        let m = &report.metrics;
        let counters = [
            ("proof.rules", m.counter("proof.rules")),
            ("proof.obligations", m.counter("proof.obligations")),
            (
                "proof.discharge.syntactic",
                m.counter("proof.discharge.syntactic"),
            ),
            (
                "proof.discharge.bounded",
                m.counter("proof.discharge.bounded"),
            ),
            (
                "proof.discharge.binder",
                m.counter("proof.discharge.binder"),
            ),
            (
                "proof.discharge.membership",
                m.counter("proof.discharge.membership_checked")
                    + m.counter("proof.discharge.membership_assumed"),
            ),
            ("assertion.oracle_cases", m.counter("proof.bounded_cases")),
        ];
        for (name, value) in counters {
            tracer.add(name, value as f64);
        }
        for o in &report.obligations {
            if !matches!(o.discharge, Discharge::Syntactic(_) | Discharge::Bounded(_)) {
                continue;
            }
            let t = Instant::now();
            let child = span.child("bench.assertion.oracle");
            let decision = parse_assertion(&o.formula, info)
                .map(|a| decide_valid(&a, &ctx.universe, &ctx.funcs, ctx.decide_config));
            child.end();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let reproduced = matches!(
                (&decision, &o.discharge),
                (Ok(Decision::ValidSyntactic { law }), Discharge::Syntactic(want)) if law == want
            ) || matches!(
                (&decision, &o.discharge),
                (Ok(Decision::ValidBounded { cases }), Discharge::Bounded(want)) if cases == want
            );
            if reproduced {
                tracer.add("assertion.oracle_ms", ms);
            } else {
                self.unreproduced += 1;
                if tracer.passes == 0 {
                    println!("unreproduced obligation of {class}: {}", o.formula);
                }
            }
        }
    }

    /// Runs request `i`; returns whether its answer matched and its
    /// latency in milliseconds.
    fn run(&mut self, i: usize, tracer: Option<&mut Tracer>) -> (bool, f64) {
        let t = Instant::now();
        let Some(tracer) = tracer else {
            let ok = match self.requests[i].op {
                Op::Script(s) => self.scripts[s].check().is_ok(),
                Op::Auto { wb, specs, proves } => {
                    self.workbenches[wb].prove_auto(specs).is_ok() == proves
                }
            };
            return (ok, t.elapsed().as_secs_f64() * 1e3);
        };
        let class = self.requests[i].class;
        let root = tracer.request(i, class);
        let before = crate::alloc::totals();
        let outcome = match self.requests[i].op {
            Op::Script(s) => {
                let script = &self.scripts[s];
                let col = tracer.collector.clone();
                let report = tracer.timed(&root, "bench.proof.check", "proof.check_ms", || {
                    check_with(&script.context, &script.goal, &script.proof, &col)
                });
                report
                    .ok()
                    .map(|r| (r, script.context.clone(), self.script_info[s].clone()))
            }
            Op::Auto { wb, specs, .. } => {
                let wb = &self.workbenches[wb];
                Self::auto_traced(tracer, &root, wb, specs)
                    .ok()
                    .map(|(r, ctx)| (r, ctx, wb.channel_info()))
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.charge_allocs(class, before);
        root.end();
        let proved = outcome.is_some();
        // Attribution runs after the request, outside its latency, so
        // both timings fall in the same host phase.
        if let Some((report, ctx, info)) = outcome {
            self.attribute(tracer, class, &report, &ctx, &info);
        }
        let ok = match self.requests[i].op {
            Op::Script(_) => proved,
            Op::Auto { proves, .. } => proved == proves,
        };
        (ok, ms)
    }
}

impl Workload for Prove {
    fn requests(&self) -> usize {
        self.requests.len()
    }

    fn pass(&mut self, pass: u64, mut tracer: Option<&mut Tracer>) -> Result<Vec<Sample>, String> {
        Ok(pass_order(self.seed, pass, self.requests.len())
            .into_iter()
            .map(|i| {
                let (ok, ms) = self.run(i, tracer.as_deref_mut());
                Sample {
                    class: self.requests[i].class,
                    ms,
                    ok,
                    lane: 0,
                }
            })
            .collect())
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb("self")
    }

    fn layers(&mut self, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let check = tracer.per_pass("proof.check_ms");
        let oracle = tracer.per_pass("assertion.oracle_ms");
        let mut out: Vec<(&'static str, f64)> = [
            "proof.check_ms",
            "proof.synth_ms",
            "analysis.lint_ms",
            "proof.rules",
            "proof.obligations",
            "proof.discharge.syntactic",
            "proof.discharge.bounded",
            "proof.discharge.binder",
            "proof.discharge.membership",
            "assertion.oracle_cases",
            "assertion.oracle_ms",
        ]
        .into_iter()
        .map(|name| (name, tracer.per_pass(name)))
        .collect();
        out.push(("assertion.oracle_share", oracle / check));
        out.push((
            "assertion.oracle_unreproduced",
            self.unreproduced as f64 / tracer.passes.max(1) as f64,
        ));
        // Set-up ran once, before any traced pass.
        out.push(("lang.parse_ms", tracer.sum("lang.parse_ms")));
        Ok(out)
    }
}
