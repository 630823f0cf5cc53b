//! `csp` — command-line driver for the hoare-csp reproduction.
//!
//! ```text
//! csp lint      <file.csp> [more.csp ...] [--json] [--deny warnings]
//! csp traces    <file.csp> --process NAME [--depth N] [--nat-bound K]
//! csp check     <file.csp> --process NAME --assert EXPR [--depth N]
//! csp prove     <file.csp> --spec NAME=EXPR [--spec NAME=EXPR ...] [--json]
//! csp run       <file.csp> --process NAME [--steps N] [--seed S]
//!               [--fault-plan SPEC] [--deadline-ms T] [--livelock-window W]
//!               [--watch[=MS]] [--monitor[=ASSERT]] [--msc-out F]
//!               [--causal-out F] [--json]
//! csp deadlock  <file.csp> --process NAME [--depth N]
//! csp profile   <file.csp> [--depth N] [--folded-out PATH]
//!               [--diff OLD.json] [--noise-ms X]
//! csp bench     report [--history PATH]
//! csp serve     [--addr HOST:PORT] [--workers N] [--cache-cap N]
//! csp lsp
//! ```
//!
//! The process picks the backend of the `sat` check: the compiled LTS
//! (reachable states interned once) for networks (`||` / `chan … ;`
//! hiding), the enumerative trace walk for sequential processes. `check`
//! names it in its output and in its `--json` envelope as `"engine"`.
//!
//! Common options: `--nat-bound K` (finite carrier for NAT, default 2),
//! `--set M=v1,v2,…` (interpret a named abstract set), `--bind v=1,2,3`
//! (host constant vector, cells `v[1]…`), `--channels a,b` (declare
//! assertion-only channels).
//!
//! Observability: `--trace-out events.jsonl` writes the recorded span
//! stream (one JSON object per line) and `--metrics` prints the
//! aggregated counter/span table after `run`, `prove`, `lint`, and
//! `check`. `--chrome-out trace.json` exports the span tree in Chrome
//! trace-event format (loadable in `chrome://tracing` or Perfetto) and
//! `--prom-out metrics.prom` writes a Prometheus-style text exposition.
//! `csp profile` runs the parse → fixpoint → verify pipeline under a
//! collector and reports per-phase wall time and allocation, plus a
//! flamegraph-style folded-stacks file; `--diff OLD.json` compares the
//! run against a prior `csp profile --json` capture and prints signed
//! per-span/per-counter deltas above a `--noise-ms` threshold.
//! `csp run --watch` streams a live status line (round, scheduler
//! picks, live/dead components, events/s from the per-channel
//! throughput counters, dropped events) to stderr while the executor
//! runs. `csp bench report` prints the trajectory recorded in
//! `BENCH_history.jsonl` by `bench-json --history`.
//!
//! Causal observability (`csp run`): every communication is stamped
//! with per-process vector clocks and recorded in a bounded causal
//! event log alongside fault/supervision events. `--msc-out F` writes
//! the log as a Mermaid `sequenceDiagram` message-sequence chart,
//! `--causal-out F` as JSONL (one causal event per line, clocks
//! included). `--monitor` replays the observed trace step-by-step
//! through the compiled LTS while the run executes and reports a
//! verdict (conforming / violated / aborted); `--monitor=ASSERT`
//! additionally checks a `sat` assertion on every visible prefix. A
//! violation names the first divergent event and its causal history,
//! and flips the exit status to 1. `csp run --json` wraps the outcome,
//! visible trace, failures, supervision summary, and monitor verdict
//! in the `csp/v1` envelope.
//!
//! All `--json` output shares one versioned envelope:
//! `{"schema":"csp/v1","command":"<cmd>","data":…}`.
//!
//! Fault plans use the [`FaultPlan::parse`] syntax, e.g.
//! `--fault-plan 'crash:copier@4;restart:replay'` or
//! `--fault-plan 'stall:2@3x5;starve:0'`.
//!
//! Exit status: 0 on success; 1 when the requested analysis found a
//! refutation (counterexample, deadlock, failed proof, lint error — or
//! any lint warning under `--deny warnings`); 2 on usage or input
//! errors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use csp::obs::{json_string, parse_json, JsonValue, MetricsSnapshot};
use csp::prelude::*;
use csp::serve::{
    check_data, envelope, render_json, run_data, set_value, verify_phase, ModuleOptions,
    ProveOutcome,
};
use csp::{max_severity, timeline, Diagnostic, Session, Severity};
use csp_bench::report::HistoryRow;

/// A byte-counting wrapper around the system allocator, so `csp profile`
/// can attribute allocation volume to pipeline phases without any
/// external profiler. Only the library crates forbid unsafe; this binary
/// is the designated home for the one unavoidable `GlobalAlloc` impl.
struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(Failure::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Error(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Why a command exits 2. A usage mistake — a missing or unknown
/// subcommand or flag, a flag without its value or with a malformed
/// one, a missing required flag — is followed by the usage text; any
/// other error (an unreadable file, an unknown process, a refused run)
/// prints its one line alone.
enum Failure {
    Usage(String),
    Error(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Error(message)
    }
}

const USAGE: &str = "usage:
  csp lint      <file.csp> [more.csp ...] [--json] [--deny warnings]
                [--process NAME --assert EXPR]
  csp traces    <file.csp> --process NAME [--depth N]
  csp check     <file.csp> --process NAME --assert EXPR [--depth N]
  csp prove     <file.csp> --spec NAME=EXPR [--spec NAME=EXPR ...] [--json]
  csp run       <file.csp> --process NAME [--steps N] [--seed S]
                [--fault-plan SPEC] [--deadline-ms T] [--livelock-window W]
                [--watch[=MS]] [--monitor[=ASSERT]] [--msc-out F]
                [--causal-out F] [--json]
  csp deadlock  <file.csp> --process NAME [--depth N]
  csp profile   <file.csp> [--depth N] [--folded-out PATH]
                [--process NAME --assert EXPR] [--diff OLD.json]
  csp bench     report [--history PATH]
  csp serve     [--addr HOST:PORT] [--workers N] [--cache-cap N]
                persistent HTTP verification service (see below)
  csp lsp       speak the Language Server Protocol over stdio
options:
  --json               machine-readable output, wrapped in the versioned
                       envelope {\"schema\":\"csp/v1\",\"command\":…,\"data\":…}
                       (lint/check/prove/run/profile)
  --deny warnings      treat lint warnings as errors (exit 1)
  --trace-out PATH     write the recorded span stream as JSONL
                       (lint/check/prove/run/profile)
  --chrome-out PATH    write the span tree as Chrome trace-event JSON
                       (check/prove/run/profile)
  --prom-out PATH      write the metrics as Prometheus text exposition
                       (check/prove/run/profile)
  --metrics            print the aggregated metrics table (or embed it
                       in --json output)
  --folded-out PATH    where `profile` writes folded stacks
                       (default: <file-stem>.folded)
  --diff OLD.json      `profile`: compare against a prior
                       `csp profile --json` capture and print signed
                       per-span/per-counter deltas
  --noise-ms X         suppress --diff span rows that moved less than
                       X ms (default 1.0)
  --watch[=MS]         `run`: stream a live status line to stderr,
                       sampled every MS milliseconds (default 250)
  --monitor[=ASSERT]   `run`: online runtime verification — replay the
                       observed trace through the compiled LTS as it
                       happens (trace membership), plus check ASSERT as
                       a `sat` assertion on every visible prefix;
                       repeatable; a violation exits 1
  --msc-out PATH       `run`: write the causal log as a Mermaid
                       sequenceDiagram message-sequence chart
  --causal-out PATH    `run`: write the causal event log (vector
                       clocks included) as JSONL
  --history PATH       `bench report`: the history JSONL to read
                       (default BENCH_history.jsonl)
  --nat-bound K        finite carrier for NAT (default 2)
  --set M=v1,v2        interpretation for a named abstract set
  --bind v=1,2,3       host constant vector (cells v[1], v[2], …)
  --channels a,b       declare assertion-only channel names
  --fault-plan SPEC    inject faults into `run`: ;-separated clauses
                       crash:COMP@STEP  stall:COMP@STEPxROUNDS
                       delay:COMP@STEPxROUNDS  starve:COMP
                       restart:failstop|replay|reset
  --deadline-ms T      wall-clock budget for `run` (watchdog)
  --livelock-window W  stop `run` after W consecutive concealed events
serve options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7017; port 0
                       picks a free port, printed on stdout)
  --workers N          worker threads (default: RAYON_NUM_THREADS or
                       the CPU count, clamped to 2..=16)
  --cache-cap N        rendered responses kept in the cross-request
                       cache (default 1024; 0 disables caching)
serve endpoints: POST /v1/{lint,check,prove,run,profile} take the CLI's
flags as JSON body fields ({\"source\":…,\"process\":…,\"depth\":…});
GET /healthz, /metrics (Prometheus), /v1/trace (Chrome trace JSON).
Responses carry X-Csp-Cache: hit|miss|bypass and X-Csp-Ms headers.";

/// Parsed command-line options shared by all subcommands.
struct Opts {
    file: String,
    files: Vec<String>,
    json: bool,
    deny_warnings: bool,
    process: Option<String>,
    assertion: Option<String>,
    specs: Vec<(String, String)>,
    depth: usize,
    steps: usize,
    seed: u64,
    fault_plan: Option<String>,
    deadline_ms: Option<u64>,
    livelock_window: usize,
    module: ModuleOptions,
    trace_out: Option<String>,
    chrome_out: Option<String>,
    prom_out: Option<String>,
    metrics: bool,
    folded_out: Option<String>,
    diff: Option<String>,
    noise_ms: f64,
    watch: Option<u64>,
    monitor: bool,
    monitor_asserts: Vec<String>,
    msc_out: Option<String>,
    causal_out: Option<String>,
}

fn parse_opts(args: &[String], multi_file: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        file: String::new(),
        files: Vec::new(),
        json: false,
        deny_warnings: false,
        process: None,
        assertion: None,
        specs: Vec::new(),
        depth: 4,
        steps: 32,
        seed: 0,
        fault_plan: None,
        deadline_ms: None,
        livelock_window: 0,
        module: ModuleOptions::default(),
        trace_out: None,
        chrome_out: None,
        prom_out: None,
        metrics: false,
        folded_out: None,
        diff: None,
        noise_ms: 1.0,
        watch: None,
        monitor: false,
        monitor_asserts: Vec::new(),
        msc_out: None,
        causal_out: None,
    };
    let mut it = args.iter();
    let mut positional = Vec::new();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny" => {
                let v = value("--deny")?;
                if v != "warnings" {
                    return Err(format!("--deny expects `warnings`, got `{v}`"));
                }
                opts.deny_warnings = true;
            }
            "--process" => opts.process = Some(value("--process")?),
            "--assert" => opts.assertion = Some(value("--assert")?),
            "--spec" => {
                let v = value("--spec")?;
                let (name, inv) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--spec expects NAME=EXPR, got `{v}`"))?;
                opts.specs
                    .push((name.trim().to_string(), inv.trim().to_string()));
            }
            "--depth" => {
                opts.depth = value("--depth")?
                    .parse()
                    .map_err(|_| "--depth expects a number".to_string())?;
            }
            "--steps" => {
                opts.steps = value("--steps")?
                    .parse()
                    .map_err(|_| "--steps expects a number".to_string())?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a number".to_string())?;
            }
            "--fault-plan" => opts.fault_plan = Some(value("--fault-plan")?),
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms expects a number".to_string())?,
                );
            }
            "--livelock-window" => {
                opts.livelock_window = value("--livelock-window")?
                    .parse()
                    .map_err(|_| "--livelock-window expects a number".to_string())?;
            }
            "--nat-bound" => {
                opts.module.nat_bound = value("--nat-bound")?
                    .parse()
                    .map_err(|_| "--nat-bound expects a number".to_string())?;
            }
            "--set" => {
                let v = value("--set")?;
                let (name, vals) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects NAME=v1,v2, got `{v}`"))?;
                let parsed = vals
                    .split(',')
                    .map(set_value)
                    .collect::<Result<Vec<_>, _>>()?;
                opts.module.sets.push((name.trim().to_string(), parsed));
            }
            "--bind" => {
                let v = value("--bind")?;
                let (name, vals) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--bind expects NAME=1,2,3, got `{v}`"))?;
                let parsed = vals
                    .split(',')
                    .map(|x| {
                        x.trim()
                            .parse::<i64>()
                            .map_err(|_| format!("bad integer `{x}` in --bind"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                opts.module.binds.push((name.trim().to_string(), parsed));
            }
            "--channels" => {
                let v = value("--channels")?;
                opts.module
                    .channels
                    .extend(v.split(',').map(|c| c.trim().to_string()));
            }
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--chrome-out" => opts.chrome_out = Some(value("--chrome-out")?),
            "--prom-out" => opts.prom_out = Some(value("--prom-out")?),
            "--metrics" => opts.metrics = true,
            "--folded-out" => opts.folded_out = Some(value("--folded-out")?),
            "--diff" => opts.diff = Some(value("--diff")?),
            "--noise-ms" => {
                opts.noise_ms = value("--noise-ms")?
                    .parse()
                    .map_err(|_| "--noise-ms expects a number".to_string())?;
            }
            "--monitor" => opts.monitor = true,
            other if other.starts_with("--monitor=") => {
                opts.monitor = true;
                let assert = &other["--monitor=".len()..];
                if assert.is_empty() {
                    return Err("--monitor= expects an assertion".to_string());
                }
                opts.monitor_asserts.push(assert.to_string());
            }
            "--msc-out" => opts.msc_out = Some(value("--msc-out")?),
            "--causal-out" => opts.causal_out = Some(value("--causal-out")?),
            "--watch" => opts.watch = Some(250),
            other if other.starts_with("--watch=") => {
                let ms: u64 = other["--watch=".len()..]
                    .parse()
                    .map_err(|_| "--watch expects a millisecond interval".to_string())?;
                opts.watch = Some(ms.max(1));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option `{other}`"));
            }
            other => positional.push(other.to_string()),
        }
    }
    if multi_file {
        if positional.is_empty() {
            return Err("missing <file.csp>".to_string());
        }
        opts.file = positional[0].clone();
        opts.files = positional;
        return Ok(opts);
    }
    match positional.as_slice() {
        [file] => {
            opts.file = file.clone();
            opts.files = vec![file.clone()];
            Ok(opts)
        }
        [] => Err("missing <file.csp>".to_string()),
        more => Err(format!("unexpected arguments: {more:?}")),
    }
}

fn read_source(file: &str) -> Result<String, String> {
    std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
}

fn build_workbench(opts: &Opts) -> Result<Workbench, String> {
    opts.module.workbench(&read_source(&opts.file)?)
}

fn need_process(opts: &Opts) -> Result<&str, Failure> {
    opts.process
        .as_deref()
        .ok_or_else(|| Failure::Usage("--process NAME is required".to_string()))
}

fn need_assertion(opts: &Opts) -> Result<&str, Failure> {
    opts.assertion
        .as_deref()
        .ok_or_else(|| Failure::Usage("--assert EXPR is required".to_string()))
}

/// The shared `--trace-out`/`--metrics` epilogue: writes the session's
/// span stream and prints the aggregated table (human output only; the
/// `--json` paths embed the metrics in their envelope instead).
fn finish_observation(session: &Session<'_>, opts: &Opts) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        let mut f = std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
        session
            .write_trace_jsonl(&mut f)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote {} span(s) to {path}{}",
            session.events().len(),
            match session.dropped() {
                0 => String::new(),
                n => format!(" ({n} evicted)"),
            }
        );
    }
    write_exports(session, opts)?;
    if opts.metrics && !opts.json {
        print!("{}", session.metrics().render_table());
    }
    Ok(())
}

/// Writes the `--chrome-out`/`--prom-out` export files from a session's
/// collector. Shared by the per-command epilogue and `csp profile`.
fn write_exports(session: &Session<'_>, opts: &Opts) -> Result<(), String> {
    if let Some(path) = &opts.chrome_out {
        std::fs::write(path, session.chrome_trace())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote Chrome trace ({} event(s)) to {path} — open in chrome://tracing or ui.perfetto.dev",
            session.events().len() + 1
        );
    }
    if let Some(path) = &opts.prom_out {
        std::fs::write(path, session.prometheus())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote Prometheus exposition to {path}");
    }
    Ok(())
}

/// Returns Ok(true) when the analysis found no refutation.
fn dispatch(args: &[String]) -> Result<bool, Failure> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| Failure::Usage("missing subcommand".to_string()))?;
    match cmd.as_str() {
        "bench" => return run_bench_report(rest),
        "serve" => return run_serve(rest),
        "lsp" => {
            if let Some(extra) = rest.first() {
                return Err(Failure::Usage(format!(
                    "`csp lsp` takes no arguments, got `{extra}`"
                )));
            }
            return Ok(csp_lsp::serve_stdio().map_err(|e| format!("lsp transport failure: {e}"))?);
        }
        "lint" | "profile" | "traces" | "check" | "prove" | "run" | "deadlock" => {}
        other => return Err(Failure::Usage(format!("unknown subcommand `{other}`"))),
    }
    let opts = parse_opts(rest, cmd == "lint").map_err(Failure::Usage)?;
    if cmd == "lint" || cmd == "profile" {
        // `--process` and `--assert` name one claim, checked only as a
        // pair: half of it would be dropped unread.
        if opts.assertion.is_some() {
            need_process(&opts)?;
        }
        if opts.process.is_some() {
            need_assertion(&opts)?;
        }
    }
    if cmd == "lint" {
        return Ok(run_lint(&opts)?);
    }
    if cmd == "profile" {
        return Ok(run_profile(&opts)?);
    }
    let wb = build_workbench(&opts)?;
    match cmd.as_str() {
        "traces" => {
            let name = need_process(&opts)?;
            let traces = wb.traces(name, opts.depth).map_err(|e| e.to_string())?;
            println!(
                "{} traces of `{name}` to depth {} ({} maximal):",
                traces.len(),
                opts.depth,
                traces.maximal_traces().len()
            );
            for t in traces.maximal_traces().iter().take(20) {
                println!("  {t}");
            }
            Ok(true)
        }
        "check" => {
            let name = need_process(&opts)?;
            let assertion = need_assertion(&opts)?;
            let session = observed_session(&wb, &opts);
            let verdict = session
                .check_sat(name, assertion, opts.depth)
                .map_err(|e| e.to_string())?;
            if opts.json {
                let data = with_metrics(check_data(name, assertion, &verdict), &session, &opts);
                println!("{}", envelope("check", &data));
            } else {
                match &verdict {
                    SatResult::Holds {
                        traces_checked,
                        depth,
                        engine,
                    } => println!(
                        "holds: {name} sat {assertion} on {traces_checked} traces \
                         (depth {depth}, engine {engine})"
                    ),
                    SatResult::Counterexample { trace, engine } => {
                        println!("REFUTED: {name} sat {assertion} (engine {engine})");
                        println!("counterexample: {trace}");
                        print!("{}", timeline(trace));
                    }
                }
            }
            finish_observation(&session, &opts)?;
            Ok(verdict.holds())
        }
        "prove" => {
            if opts.specs.is_empty() {
                return Err(Failure::Usage(
                    "at least one --spec NAME=EXPR is required".to_string(),
                ));
            }
            let specs: Vec<(&str, &str)> = opts
                .specs
                .iter()
                .map(|(n, a)| (n.as_str(), a.as_str()))
                .collect();
            let session = observed_session(&wb, &opts);
            let outcome = ProveOutcome::prove(&session, &specs);
            if opts.json {
                let data = with_metrics(outcome.data(), &session, &opts);
                println!("{}", envelope("prove", &data));
            } else {
                match outcome.report() {
                    Ok(report) => println!("{report}"),
                    Err(e) => println!("proof failed: {e}"),
                }
            }
            finish_observation(&session, &opts)?;
            Ok(outcome.proved())
        }
        "run" => {
            let name = need_process(&opts)?;
            let faults = match &opts.fault_plan {
                Some(spec) => FaultPlan::parse(spec).map_err(|e| e.to_string())?,
                None => FaultPlan::none(),
            };
            let mut supervision = Supervision::default();
            if let Some(ms) = opts.deadline_ms {
                supervision = supervision.with_deadline(std::time::Duration::from_millis(ms));
            }
            supervision = supervision.with_livelock_window(opts.livelock_window);
            // `--monitor` alone checks online trace-membership; each
            // `--monitor=ASSERT` additionally checks a `sat` assertion
            // on every visible prefix as the run executes.
            let monitor = if opts.monitor {
                Some(
                    wb.monitor_spec(opts.monitor_asserts.iter().map(String::as_str))
                        .map_err(|e| e.to_string())?,
                )
            } else {
                None
            };
            let session = observed_session(&wb, &opts);
            let watch = opts.watch.map(|interval_ms| {
                let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let collector = session.collector().clone();
                let flag = std::sync::Arc::clone(&stop);
                let handle = std::thread::spawn(move || watch_loop(&collector, interval_ms, &flag));
                (stop, handle)
            });
            let res = session.run(
                name,
                RunOptions {
                    max_steps: opts.steps,
                    scheduler: Scheduler::seeded(opts.seed),
                    faults,
                    supervision,
                    monitor,
                    ..RunOptions::default()
                },
            );
            if let Some((stop, handle)) = watch {
                stop.store(true, Relaxed);
                let _ = handle.join();
            }
            let res = res.map_err(|e| e.to_string())?;
            if let Some(path) = &opts.msc_out {
                std::fs::write(path, csp::msc::render_mermaid(&res.causal))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("wrote MSC ({} causal event(s)) to {path}", res.causal.len());
            }
            if let Some(path) = &opts.causal_out {
                std::fs::write(path, csp::causal_jsonl(&res.causal))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "wrote causal log ({} event(s), {} dropped) to {path}",
                    res.causal.len(),
                    res.causal.dropped()
                );
            }
            let monitor_ok = res
                .monitor
                .as_ref()
                .is_none_or(MonitorReport::is_conforming);
            if opts.json {
                let data = with_metrics(run_data(name, &res), &session, &opts);
                println!("{}", envelope("run", &data));
            } else {
                println!("{} event(s); outcome: {}", res.steps, res.outcome);
                for f in &res.failures {
                    println!(
                        "  fault: `{}` {} at step {}{}",
                        f.label,
                        f.reason,
                        f.at_step,
                        if f.recovered { " (recovered)" } else { "" }
                    );
                }
                println!("visible trace:");
                println!("  {}", res.visible);
                print!("{}", timeline(&res.visible));
                if let Some(m) = &res.monitor {
                    println!(
                        "monitor: {} ({} event(s) checked)",
                        m.verdict, m.events_checked
                    );
                    if let Some(v) = &m.violation {
                        println!("  {v}");
                    }
                    if let Some(e) = &m.error {
                        println!("  monitor aborted: {e}");
                    }
                }
            }
            finish_observation(&session, &opts)?;
            Ok(res.outcome.is_clean() && monitor_ok)
        }
        "deadlock" => {
            let name = need_process(&opts)?;
            let report = wb.deadlocks(name, opts.depth).map_err(|e| e.to_string())?;
            println!(
                "explored {} state(s) to depth {}",
                report.states_explored, opts.depth
            );
            if report.deadlocks.is_empty() {
                println!("no dead states reachable within the bound");
                return Ok(true);
            }
            for d in &report.deadlocks {
                println!(
                    "  {} after {} at `{}`",
                    if d.terminated {
                        "terminates"
                    } else {
                        "DEADLOCK"
                    },
                    d.trace,
                    d.state
                );
            }
            Ok(report.deadlock_free())
        }
        other => unreachable!("subcommand `{other}` was checked above"),
    }
}

/// Opens a session over the workbench; the collector is active only
/// when something will consume it (`--trace-out`/`--metrics`), so the
/// default path stays on the disabled fast path.
fn observed_session<'wb>(wb: &'wb Workbench, opts: &Opts) -> Session<'wb> {
    if opts.trace_out.is_some()
        || opts.chrome_out.is_some()
        || opts.prom_out.is_some()
        || opts.watch.is_some()
        || opts.metrics
    {
        wb.session()
    } else {
        wb.session_with(Collector::disabled())
    }
}

/// Total committed events summed over the executor's live per-channel
/// throughput counters (`run.chan.<name>.events`). The `--watch`
/// events/s column derives from these rather than `run.steps`, so the
/// rate agrees with the per-channel breakdown in `/metrics`.
fn chan_events_total(m: &MetricsSnapshot) -> u64 {
    chan_event_counters(m).map(|(_, v)| v).sum()
}

/// The channel with the most committed events so far, if any.
fn busiest_channel(m: &MetricsSnapshot) -> Option<(&str, u64)> {
    // max_by_key keeps the *last* maximum; alphabetical iteration order
    // therefore breaks ties toward the later channel name, stably.
    chan_event_counters(m).max_by_key(|&(_, v)| v)
}

fn chan_event_counters(m: &MetricsSnapshot) -> impl Iterator<Item = (&str, u64)> {
    m.counters.iter().filter_map(|(k, v)| {
        let name = k.strip_prefix("run.chan.")?.strip_suffix(".events")?;
        Some((name, *v))
    })
}

/// One line of `csp run --watch` output, rendered from a live counter
/// snapshot taken while the executor is still running.
fn watch_status(m: &MetricsSnapshot, dropped: u64, events_per_s: f64) -> String {
    let components = m.counter("run.components");
    let deaths = m.counter("run.deaths");
    let restarts = m.counter("run.restarts");
    let live = components.saturating_sub(deaths.saturating_sub(restarts));
    let busiest = match busiest_channel(m) {
        Some((name, n)) if n > 0 => format!(" | busiest {name} ({n} ev)"),
        _ => String::new(),
    };
    format!(
        "watch: round {} | picks {} | components {live}/{components} live \
         ({deaths} dead, {restarts} restarted) | {events_per_s:.0} events/s{busiest} | dropped {}",
        m.counter("run.rounds"),
        m.counter("run.scheduler_picks"),
        dropped,
    )
}

/// The `--watch` sampler thread: periodically snapshots the executor's
/// collector and repaints one status line on stderr (`\r` + erase when
/// stderr is a terminal, one plain line per sample otherwise). Always
/// emits at least an initial and a final sample, so short runs still
/// leave a record; the final sample is taken after `stop` is raised and
/// ends with a newline.
fn watch_loop(collector: &Collector, interval_ms: u64, stop: &std::sync::atomic::AtomicBool) {
    use std::io::{IsTerminal, Write};
    // Repaint with ANSI only when stderr (where the line goes — stdout
    // may be piped JSON) is an interactive terminal that wants escapes:
    // NO_COLOR and TERM=dumb both demote to plain one-line-per-sample
    // output, so CI logs never fill with carriage returns.
    let ansi = std::io::stderr().is_terminal()
        && std::env::var_os("NO_COLOR").is_none()
        && std::env::var("TERM").map_or(true, |t| t != "dumb");
    let mut last_steps = 0u64;
    let mut last_t = Instant::now();
    let mut initial = true;
    loop {
        // The initial sample never ends the loop: a run that is over
        // before the sampler first looks still leaves two samples.
        let done = !initial && stop.load(Relaxed);
        initial = false;
        let m = collector.snapshot();
        // Throughput from the causal layer's per-channel counters (their
        // sum equals run.steps: hidden events count on both sides).
        let steps = chan_events_total(&m);
        let now = Instant::now();
        let dt = now.duration_since(last_t).as_secs_f64();
        let rate = if dt > 1e-9 {
            (steps.saturating_sub(last_steps)) as f64 / dt
        } else {
            0.0
        };
        last_steps = steps;
        last_t = now;
        let line = watch_status(&m, collector.dropped(), rate);
        let mut err = std::io::stderr().lock();
        if ansi {
            let _ = write!(err, "\r\x1b[2K{line}");
            if done {
                let _ = writeln!(err);
            }
            let _ = err.flush();
        } else {
            let _ = writeln!(err, "{line}");
        }
        drop(err);
        if done {
            return;
        }
        // Sleep in small slices so shutdown never waits a full interval.
        let mut slept = 0;
        while slept < interval_ms && !stop.load(Relaxed) {
            let chunk = (interval_ms - slept).min(25);
            std::thread::sleep(std::time::Duration::from_millis(chunk));
            slept += chunk;
        }
    }
}

/// Appends the member `"metrics":{…}` to a rendered `data` object under
/// `--metrics`.
fn with_metrics(mut data: String, session: &Session<'_>, opts: &Opts) -> String {
    if opts.metrics {
        data.pop(); // the object's closing brace
        data.push_str(",\"metrics\":");
        data.push_str(&session.metrics().to_json());
        data.push('}');
    }
    data
}

/// Lints every file in `opts.files`; returns Ok(true) when nothing
/// blocking was found (no errors, and no warnings under `--deny`).
fn run_lint(opts: &Opts) -> Result<bool, String> {
    let mut worst: Option<Severity> = None;
    let mut json_files = Vec::new();
    let mut all_diags: Vec<Diagnostic> = Vec::new();
    for file in &opts.files {
        let (wb, errors) = opts.module.workbench_lenient(&read_source(file)?);
        let mut diags = wb.lint();
        if let (Some(name), Some(assert_src)) = (opts.process.as_deref(), opts.assertion.as_deref())
        {
            diags.extend(
                wb.lint_assertion(name, assert_src)
                    .map_err(|e| e.to_string())?,
            );
        }
        if opts.json {
            json_files.push(format!(
                "{{\"file\":{},\"errors\":{},\"diagnostics\":{}}}",
                json_string(file),
                csp::serve::render_parse_errors(&errors),
                render_json(&diags)
            ));
        } else {
            for e in &errors {
                println!("{file}: error [parse] at {}: {}", e.span(), e.message());
            }
            if errors.is_empty() && diags.is_empty() {
                println!("{file}: ok ({} definition(s))", wb.definitions().len());
            }
            for d in &diags {
                println!("{file}: {d}");
            }
        }
        if !errors.is_empty() {
            worst = worst.max(Some(Severity::Error));
        }
        worst = worst.max(max_severity(&diags));
        all_diags.extend(diags);
    }
    if opts.json {
        let mut data = format!("{{\"files\":[{}]", json_files.join(","));
        if opts.metrics {
            let mut m = MetricsSnapshot::new();
            m.set_counter("lint.files", opts.files.len() as u64);
            m.set_counter("lint.diagnostics", all_diags.len() as u64);
            data.push_str(",\"metrics\":");
            data.push_str(&m.to_json());
        }
        data.push('}');
        println!("{}", envelope("lint", &data));
    } else if opts.metrics {
        let mut m = MetricsSnapshot::new();
        m.set_counter("lint.files", opts.files.len() as u64);
        m.set_counter("lint.diagnostics", all_diags.len() as u64);
        print!("{}", m.render_table());
    }
    if let Some(path) = &opts.trace_out {
        // Lint is a pure static analysis — there are no spans to write,
        // but an explicitly requested log should still appear.
        std::fs::write(path, "").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(match worst {
        Some(Severity::Error) => false,
        Some(Severity::Warning) => !opts.deny_warnings,
        None => true,
    })
}

/// One timed phase of `csp profile`.
struct Phase {
    name: &'static str,
    ms: f64,
    alloc_bytes: u64,
    /// The verify phase's answer ([`verify_phase`]), as `/v1/profile`
    /// reports it.
    result: Option<u64>,
    error: Option<String>,
}

/// Runs a closure as a named profile phase, measuring wall time and
/// allocation volume (via the counting global allocator).
fn phase<T>(
    name: &'static str,
    phases: &mut Vec<Phase>,
    f: impl FnOnce() -> Result<T, String>,
) -> Option<T> {
    let alloc0 = ALLOCATED_BYTES.load(Relaxed);
    let t0 = Instant::now();
    let result = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let alloc_bytes = ALLOCATED_BYTES.load(Relaxed).saturating_sub(alloc0);
    match result {
        Ok(v) => {
            phases.push(Phase {
                name,
                ms,
                alloc_bytes,
                result: None,
                error: None,
            });
            Some(v)
        }
        Err(e) => {
            phases.push(Phase {
                name,
                ms,
                alloc_bytes,
                result: None,
                error: Some(e),
            });
            None
        }
    }
}

/// `csp profile`: runs the parse → fixpoint → verify pipeline under an
/// active collector and reports a per-phase wall-time/allocation table,
/// the aggregated span/counter metrics, and a folded-stacks file.
///
/// The verify phase model-checks `--process`/`--assert` when given and
/// otherwise explores every definition's traces to `--depth`, so the
/// command works on any parseable file without further flags. Its
/// `result` is the answer `/v1/profile` reports: 1 when the claim holds
/// (0 when refuted), or the number of traces explored.
fn run_profile(opts: &Opts) -> Result<bool, String> {
    let mut phases: Vec<Phase> = Vec::new();
    let wb = match phase("parse", &mut phases, || build_workbench(opts)) {
        Some(wb) => wb,
        None => {
            report_profile(opts, &phases, None)?;
            return Ok(false);
        }
    };
    let session = wb.session();
    phase("fixpoint", &mut phases, || {
        session
            .fixpoint(opts.depth, 32)
            .map_err(|e| e.to_string())
            .map(|_| ())
    });
    let claim = opts.process.as_deref().zip(opts.assertion.as_deref());
    let verified = phase("verify", &mut phases, || {
        verify_phase(&session, claim, opts.depth)
    });
    if let Some(verify) = phases.last_mut() {
        verify.result = verified;
    }
    report_profile(opts, &phases, Some(&session))?;
    Ok(phases.iter().all(|p| p.error.is_none()))
}

/// Renders `csp profile` output (table or envelope) and writes the
/// folded-stacks file.
fn report_profile(
    opts: &Opts,
    phases: &[Phase],
    session: Option<&Session<'_>>,
) -> Result<(), String> {
    let folded_path = opts.folded_out.clone().unwrap_or_else(|| {
        let stem = std::path::Path::new(&opts.file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "profile".to_string());
        format!("{stem}.folded")
    });
    let metrics = session.map(Session::metrics);
    if let Some(session) = session {
        std::fs::write(&folded_path, session.folded_stacks())
            .map_err(|e| format!("cannot write {folded_path}: {e}"))?;
        if let Some(path) = &opts.trace_out {
            let mut f =
                std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
            session
                .write_trace_jsonl(&mut f)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        write_exports(session, opts)?;
    }
    let noise_ns = (opts.noise_ms.max(0.0) * 1e6) as u64;
    let diff = match (&opts.diff, &metrics) {
        (Some(path), Some(m)) => {
            let baseline = load_baseline_metrics(path)?;
            Some((path.clone(), m.delta(&baseline)))
        }
        _ => None,
    };
    if opts.json {
        let phases_json: Vec<String> = phases
            .iter()
            .map(|p| {
                let mut o = format!(
                    "{{\"name\":{},\"ms\":{:.3},\"alloc_bytes\":{}",
                    json_string(p.name),
                    p.ms,
                    p.alloc_bytes
                );
                if let Some(r) = p.result {
                    o.push_str(&format!(",\"result\":{r}"));
                }
                if let Some(e) = &p.error {
                    o.push_str(&format!(",\"error\":{}", json_string(e)));
                }
                o.push('}');
                o
            })
            .collect();
        let mut data = format!(
            "{{\"file\":{},\"phases\":[{}],\"folded_out\":{}",
            json_string(&opts.file),
            phases_json.join(","),
            json_string(&folded_path)
        );
        if let Some(m) = &metrics {
            data.push_str(",\"metrics\":");
            data.push_str(&m.to_json());
        }
        if let Some((base_path, delta)) = &diff {
            data.push_str(&format!(
                ",\"diff\":{{\"baseline\":{},\"noise_ms\":{:.3},\"noise\":{},\"table\":{}}}",
                json_string(base_path),
                opts.noise_ms,
                delta.is_noise(noise_ns),
                json_string(&delta.render_table(noise_ns)),
            ));
        }
        data.push('}');
        println!("{}", envelope("profile", &data));
        return Ok(());
    }
    println!("profile: {}", opts.file);
    println!(
        "{:<12} {:>12} {:>14} {:>8}",
        "phase", "time ms", "alloc bytes", "result"
    );
    for p in phases {
        let result = p.result.map(|r| r.to_string()).unwrap_or_default();
        let row = format!(
            "{:<12} {:>12.3} {:>14} {:>8}",
            p.name, p.ms, p.alloc_bytes, result
        );
        println!("{}", row.trim_end());
        if let Some(e) = &p.error {
            println!("  phase failed: {e}");
        }
    }
    if let Some(m) = &metrics {
        print!("{}", m.render_table());
    }
    if let Some((base_path, delta)) = &diff {
        println!("diff vs {base_path} (noise {:.1} ms):", opts.noise_ms);
        print!("{}", delta.render_table(noise_ns));
    }
    if session.is_some() {
        println!("folded stacks: {folded_path}");
    }
    Ok(())
}

/// Loads the baseline [`MetricsSnapshot`] for `csp profile --diff`.
/// Accepts either a full `csp profile --json` envelope (the metrics are
/// found under `data.metrics`) or a bare metrics-snapshot object.
fn load_baseline_metrics(path: &str) -> Result<MetricsSnapshot, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v = parse_json(src.trim())
        .map_err(|e| format!("{path}: bad JSON at offset {}: {}", e.offset, e.message))?;
    let metrics = find_metrics(&v).ok_or_else(|| {
        format!(
            "{path}: no metrics object found \
             (expected `csp profile --json` output or a bare metrics snapshot)"
        )
    })?;
    MetricsSnapshot::from_json_value(metrics).map_err(|e| format!("{path}: {}", e.message))
}

/// Finds the metrics-snapshot object inside a baseline document: the
/// value itself, its `metrics` member, or the same one level down under
/// the envelope's `data`.
fn find_metrics(v: &JsonValue) -> Option<&JsonValue> {
    if v.get("counters").is_some() {
        return Some(v);
    }
    if let Some(m) = v.get("metrics") {
        return Some(m);
    }
    v.get("data").and_then(find_metrics)
}

/// `csp serve`: binds the persistent verification service and runs its
/// accept loop on this thread until killed. The listening line goes to
/// *stdout* (machine-parseable, resolves `--addr`'s port 0); everything
/// operational is observable over `/metrics` and `/v1/trace` instead of
/// the process's stderr.
fn run_serve(args: &[String]) -> Result<bool, Failure> {
    let cfg = serve_config(args).map_err(Failure::Usage)?;
    let server =
        csp::serve::CspServer::bind(&cfg).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    {
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        writeln!(
            out,
            "csp serve: listening on http://{addr} (workers {}, cache-cap {})",
            cfg.workers, cfg.cache_cap
        )
        .map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    server.run().map_err(|e| format!("server failed: {e}"))?;
    Ok(true)
}

/// `csp serve`'s flags.
fn serve_config(args: &[String]) -> Result<csp::serve::ServeConfig, String> {
    let mut cfg = csp::serve::ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse::<usize>()
                    .map_err(|_| "--workers expects a number".to_string())?
                    .max(1);
            }
            "--cache-cap" => {
                cfg.cache_cap = value("--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap expects a number".to_string())?;
            }
            other => return Err(format!("unknown option `{other}` for `csp serve`")),
        }
    }
    Ok(cfg)
}

/// `csp bench report`'s history path.
fn bench_report_flags(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("report") => {}
        Some(other) => return Err(format!("unknown bench subcommand `{other}` (try `report`)")),
        None => return Err("bench expects a subcommand: `csp bench report`".to_string()),
    }
    let mut history = "BENCH_history.jsonl".to_string();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--history" => {
                history = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--history requires a value".to_string())?;
            }
            other => return Err(format!("unknown option `{other}` for `bench report`")),
        }
    }
    Ok(history)
}

/// `csp bench report`: renders the run-over-run trajectory appended to
/// `BENCH_history.jsonl` by `bench-json --history` — one line per
/// recorded run, plus a first→last comparison per benchmark.
fn run_bench_report(args: &[String]) -> Result<bool, Failure> {
    let history = bench_report_flags(args).map_err(Failure::Usage)?;
    let src =
        std::fs::read_to_string(&history).map_err(|e| format!("cannot read {history}: {e}"))?;
    let mut rows: Vec<HistoryRow> = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if !line.trim().is_empty() {
            rows.push(
                HistoryRow::from_jsonl_line(line)
                    .map_err(|e| format!("{history}:{}: {e}", i + 1))?,
            );
        }
    }
    if rows.is_empty() {
        println!("bench history: {history} — no runs recorded");
        return Ok(true);
    }
    println!("bench history: {history} — {} run(s)", rows.len());
    println!(
        "{:>4} {:>15} {:>8} {:>12} {:>8}",
        "run", "unix_ms", "samples", "total ms", "Δ"
    );
    let mut prev: Option<f64> = None;
    for (i, r) in rows.iter().enumerate() {
        let delta = match prev {
            Some(p) if p > 0.0 => format!("{:+.1}%", (r.total_wall_ms - p) / p * 100.0),
            _ => "—".to_string(),
        };
        println!(
            "{:>4} {:>15} {:>8} {:>12.3} {:>8}",
            format!("#{}", i + 1),
            r.unix_ms,
            r.samples,
            r.total_wall_ms,
            delta
        );
        prev = Some(r.total_wall_ms);
    }
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    if rows.len() > 1 {
        println!("per-bench (first → last):");
        for (name, new_ms) in &last.benches {
            let old = first
                .benches
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, ms)| *ms);
            match old {
                Some(old_ms) if old_ms > 0.0 => println!(
                    "  {name:<28} {old_ms:>10.3} → {new_ms:>10.3} ms  {:+.1}%",
                    (new_ms - old_ms) / old_ms * 100.0
                ),
                _ => println!("  {name:<28} {:>10} → {new_ms:>10.3} ms  (new)", "—"),
            }
        }
    }
    Ok(true)
}
