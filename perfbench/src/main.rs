//! `csp-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! Three closed-loop workloads, each a fixed list of requests with known
//! answers whose order (and, for `serve`, edit texts) the seed sets:
//!
//! * `prove` — proof checking and synthesis (§2.1), in-process;
//! * `verify` — bounded `sat`, deadlock, refinement, runtime and
//!   conformance checks (§3), plus six of `prove`'s lightest classes,
//!   in-process;
//! * `serve` — the release `csp serve` binary over two keep-alive
//!   connections.
//!
//! ```text
//! csp-perfbench --workload prove|verify|serve --seed N --seconds S
//!               --trace 0|1 --csp-bin PATH --out DIR
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) reports the per-layer metrics. The last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `RATIONALE.md` beside this crate explains every workload,
//! request class and metric.

mod alloc;
mod prove;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use csp_core::obs::json_string;

use crate::trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median. Over eight
/// 20-second runs per workload the median of three spread as little as
/// the median of five; on `verify` a single set-up spread twice as much.
const SETUPS: usize = 3;

/// Pass numbers from here on are warm-up passes (serve keys its edit
/// texts on the pass number, so warm-up edits never meet timed ones).
pub const WARMUP_PASS: u64 = 1 << 32;

/// One timed request.
pub struct Sample {
    pub class: &'static str,
    pub ms: f64,
    /// The answer matched the known one.
    pub ok: bool,
    /// The client that sent it: requests of one lane run one after
    /// another, lanes run side by side (`serve`'s two connections).
    pub lane: usize,
}

/// A workload after set-up: its request list, ready to run.
pub trait Workload {
    /// Requests in one pass of the list.
    fn requests(&self) -> usize;

    /// Runs the whole list once. Traced passes record into `tracer`.
    fn pass(&mut self, pass: u64, tracer: Option<&mut Tracer>) -> Result<Vec<Sample>, String>;

    /// `VmHWM` of the process doing the work, in MB.
    fn peak_rss_mb(&self) -> Result<f64, String>;

    /// Per-layer metrics from the traced passes.
    fn layers(&mut self, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, String>;
}

/// Builds a workload's inputs; a traced set-up records into `tracer`.
type Setup = fn(&Args, Option<&mut Tracer>) -> Result<Box<dyn Workload>, String>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub csp_bin: PathBuf,
    pub out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            csp_bin: PathBuf::from("csp"),
            out: PathBuf::from("."),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err(bad("a positive number"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--csp-bin" => args.csp_bin = PathBuf::from(&value),
                "--out" => args.out = PathBuf::from(&value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(args)
    }
}

/// Every per-layer metric a traced run reports, with its unit. A
/// workload reports 0 for the layers its requests do not reach. Time
/// and count metrics are per pass of the request list unless the name
/// says otherwise (`serve.*_ms` are means per request).
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("proof.check_ms", "ms"),
    ("proof.synth_ms", "ms"),
    ("proof.rules", "count"),
    ("proof.obligations", "count"),
    ("proof.discharge.syntactic", "count"),
    ("proof.discharge.bounded", "count"),
    ("proof.discharge.binder", "count"),
    ("proof.discharge.membership", "count"),
    ("assertion.oracle_cases", "count"),
    ("assertion.oracle_ms", "ms"),
    ("assertion.oracle_share", "ratio"),
    ("assertion.oracle_unreproduced", "count"),
    ("verify.sat_ms", "ms"),
    ("semantics.explore_ms", "ms"),
    ("semantics.states", "count"),
    ("semantics.transitions", "count"),
    ("assertion.eval_ms", "ms"),
    ("assertion.evals", "count"),
    ("verify.engine.enumerative", "count"),
    ("verify.engine.compiled", "count"),
    ("verify.deadlock_ms", "ms"),
    ("verify.deadlock_states", "count"),
    ("verify.refine_ms", "ms"),
    ("runtime.conform_ms", "ms"),
    ("runtime.run_ms", "ms"),
    ("runtime.steps", "count"),
    ("runtime.restarts", "count"),
    ("runtime.monitor_events", "count"),
    ("trace.unions", "count"),
    ("trace.intern_hit_rate", "ratio"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.bypass_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("obs.parse_json_ms", "ms"),
    ("serve.body_bytes", "bytes"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.pool_reuse_ratio", "ratio"),
    ("analysis.relinted_defs", "count"),
    ("analysis.cached_defs", "count"),
    ("serve.errors", "count"),
    ("obs.events_dropped", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("obs.overhead_pct", "%"),
];

fn main() -> ExitCode {
    let started = Instant::now();
    let result = Args::parse().and_then(|args| {
        let setup: Setup = match args.workload.as_str() {
            "prove" => prove::setup,
            "verify" => verify::setup,
            "serve" => serve::setup,
            other => return Err(format!("unknown workload `{other}`")),
        };
        if args.trace {
            traced(&args, setup)
        } else {
            untraced(&args, setup, started)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("csp-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's nominal pass time on the reference host, and the
/// percentile of a request class's samples that stands for the class.
fn timing(workload: &str) -> (f64, f64) {
    match workload {
        "prove" => (prove::NOMINAL_PASS_S, prove::CLASS_PERCENTILE),
        "verify" => (verify::NOMINAL_PASS_S, verify::CLASS_PERCENTILE),
        _ => (serve::NOMINAL_PASS_S, serve::CLASS_PERCENTILE),
    }
}

/// Passes per run: `--seconds` over the workload's nominal pass time, so
/// every run of a workload times the same samples (and the same tail
/// percentile) whatever phase the host is in.
fn passes(args: &Args) -> u64 {
    ((args.seconds / timing(&args.workload).0).round() as u64).max(1)
}

/// Builds the inputs and runs one untimed warm-up pass over the list.
fn set_up(
    args: &Args,
    setup: Setup,
    index: usize,
    tracer: Option<&mut Tracer>,
) -> Result<Box<dyn Workload>, String> {
    let mut wl = setup(args, tracer)?;
    let warm = wl.pass(WARMUP_PASS + index as u64, None)?;
    let bad: Vec<&str> = warm.iter().filter(|s| !s.ok).map(|s| s.class).collect();
    if !bad.is_empty() {
        eprintln!("warm-up: wrong answers from {bad:?}");
    }
    Ok(wl)
}

fn probe_line(label: &str) {
    let (alloc_s, reg_s) = stats::host_probe();
    println!("host_probe {label}: alloc_loop {alloc_s:.4} s, register_loop {reg_s:.4} s");
}

fn untraced(args: &Args, setup: Setup, started: Instant) -> Result<(), String> {
    probe_line("before");
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut wl: Option<Box<dyn Workload>> = None;
    for i in 0..SETUPS {
        // Shut the previous set-up down (serve: its server) first.
        drop(wl.take());
        let t = if i == 0 { started } else { Instant::now() };
        wl = Some(set_up(args, setup, i, None)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut wl = wl.expect("at least one set-up");

    let passes = passes(args);
    let t = Instant::now();
    let mut samples = Vec::with_capacity(passes as usize * wl.requests());
    for pass in 0..passes {
        samples.extend(wl.pass(pass, None)?);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let peak_rss = wl.peak_rss_mb()?;
    let list_len = wl.requests();
    drop(wl);
    probe_line("after");

    // Every latency figure takes each sample at its class's latency in
    // the run (see RATIONALE.md, "How a run measures").
    let class_p = timing(&args.workload).1;
    let classes = stats::ClassLatencies::new(&samples, class_p);
    let n = samples.len();
    let tail_p = stats::tail_percentile(n);
    let failed = samples.iter().filter(|s| !s.ok).count();
    let metrics = [
        ("setup_s", stats::median(&setup_times), "s"),
        ("latency_ms.p50", classes.percentile(50.0), "ms"),
        ("latency_ms.tail", classes.percentile(tail_p), "ms"),
        (
            "throughput_per_s",
            list_len as f64 / classes.pass_s(passes),
            "1/s",
        ),
        ("peak_rss_mb", peak_rss, "MB"),
    ];
    println!(
        "workload {} seed {}: {passes} passes x {list_len} requests in {wall_s:.2} s",
        args.workload, args.seed
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value:.4} {unit}");
    }
    let each: Vec<String> = setup_times.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "setup_s is the median of {SETUPS} set-ups: {} s",
        each.join(" ")
    );
    let class_stat = if class_p == 0.0 {
        "fastest".to_string()
    } else {
        format!("p{class_p}")
    };
    println!(
        "latency_ms.tail is p{tail_p} of {n} samples; p50, tail and throughput take every \
         sample at its class's {class_stat} latency in the run"
    );
    println!(
        "failed_frac {:.4} ratio ({failed} of {n})",
        failed as f64 / n as f64
    );
    report_failures(&samples);
    print_result(failed == 0, n, failed, &metrics);
    Ok(())
}

fn report_failures(samples: &[Sample]) {
    let mut bad: Vec<&str> = samples.iter().filter(|s| !s.ok).map(|s| s.class).collect();
    bad.sort_unstable();
    bad.dedup();
    if !bad.is_empty() {
        println!("wrong answers from: {}", bad.join(", "));
    }
}

fn traced(args: &Args, setup: Setup) -> Result<(), String> {
    probe_line("before");
    let mut tracer = Tracer::new();
    let mut wl = set_up(args, setup, 0, Some(&mut tracer))?;
    // Untraced and traced passes alternate so both meet the same host
    // phases; the gap between them is the tracing overhead.
    let pairs = (passes(args) / 3).max(1);
    let mut samples = Vec::new();
    let (mut plain_ms, mut traced_ms) = (0.0, 0.0);
    for pair in 0..pairs {
        let plain = wl.pass(2 * pair, None)?;
        plain_ms += plain.iter().map(|s| s.ms).sum::<f64>();
        alloc::enable(true);
        let observed = wl.pass(2 * pair + 1, Some(&mut tracer));
        alloc::enable(false);
        let observed = observed?;
        tracer.passes += 1;
        traced_ms += observed.iter().map(|s| s.ms).sum::<f64>();
        samples.extend(plain);
        samples.extend(observed);
    }
    let mut layers = wl.layers(&tracer)?;
    drop(wl);
    probe_line("after");

    let (count, bytes) = tracer.alloc_totals();
    let passes = tracer.passes as f64;
    layers.push(("alloc.count", count as f64 / passes));
    layers.push(("alloc.bytes", bytes as f64 / passes));
    layers.push(("obs.overhead_pct", (traced_ms / plain_ms - 1.0) * 100.0));

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let value = layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        metrics.push((name, value, unit));
    }
    if let Some((name, _)) = layers
        .iter()
        .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
    {
        return Err(format!(
            "layer metric `{name}` is not in the per-layer list"
        ));
    }
    println!(
        "workload {} seed {} traced: {pairs} untraced + {pairs} traced passes",
        args.workload, args.seed
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value:.4} {unit}");
    }
    write_artifacts(args, &tracer)?;
    let failed = samples.iter().filter(|s| !s.ok).count();
    report_failures(&samples);
    print_result(failed == 0, samples.len(), failed, &metrics);
    Ok(())
}

/// Writes the traced run's spans (JSONL and Chrome/Perfetto, through the
/// `csp-obs` exporters), self times, and per-class allocations.
fn write_artifacts(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", args.out.display());
    std::fs::create_dir_all(&args.out).map_err(io)?;
    let stem = args
        .out
        .join(format!("{}-seed{}", args.workload, args.seed));
    let mut jsonl = Vec::new();
    tracer.collector.write_jsonl(&mut jsonl).map_err(io)?;
    std::fs::write(stem.with_extension("spans.jsonl"), jsonl).map_err(io)?;
    std::fs::write(
        stem.with_extension("chrome.json"),
        csp_core::obs::chrome_trace(&tracer.collector.records()),
    )
    .map_err(io)?;
    let summary = format!(
        "# self time per span (traced passes: {})\n{}\n# allocations per request class\n{}",
        tracer.passes,
        tracer.self_times(),
        tracer.alloc_table()
    );
    std::fs::write(stem.with_extension("summary.tsv"), summary).map_err(io)?;
    println!("trace artifacts: {}.*", stem.display());
    Ok(())
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    );
}
