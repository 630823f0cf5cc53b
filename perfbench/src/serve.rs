//! The `serve` workload: the release `csp serve` binary as a child
//! process with its default workers, driven over two keep-alive
//! connections in a closed loop. Every module's requests stay on one
//! connection, so the pooled lint database of a module sees its edits in
//! order. Per module and pass:
//!
//! * lint, check and prove of the unchanged text — planned cache hits;
//! * lint of an edited text — a miss that relints the edited definition;
//! * check and prove of the edited text — misses through a new pooled
//!   workbench (the prove specs discharge syntactically);
//! * on two modules, a monitored crash-and-replay `/v1/run` — a bypass.
//!
//! An edit renames one bound variable, keyed on the seed and the pass, so
//! every pass meets fresh misses and every answer stays known.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use csp_core::obs::{json_string, parse_json, parse_prometheus, MetricsSnapshot};
use csp_serve::Client;

use crate::stats::{pass_order, vm_hwm_mb};
use crate::trace::Tracer;
use crate::{Args, Sample, Workload, WARMUP_PASS};

/// One pass's wall time on the reference host (2 vCPUs).
pub const NOMINAL_PASS_S: f64 = 0.02;

/// A class stands for its median sample: requests take about a
/// millisecond, and how the two connections and the server's workers
/// share the two vCPUs moves them more than the host's phase does.
pub const CLASS_PERCENTILE: f64 = 50.0;

const PAPER_CSP: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../paper.csp"));
const PIPELINE_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/pipeline.csp"
));
const PROTOCOL_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/protocol.csp"
));
const BUFFER_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/buffer.csp"
));

/// Copier pipelines in the generated module (about 6 KB of source,
/// three times `paper.csp`): request bodies this size make JSON parsing
/// a visible share of the server's time.
const GENERATED_PIPELINES: usize = 40;

struct Module {
    name: &'static str,
    source: String,
    /// A line of `source`, and the same line with `{v}` for the renamed
    /// bound variable.
    edit: (&'static str, &'static str),
    /// JSON members every request on the module carries.
    extra: &'static str,
    /// Known lint answer: the diagnostic codes, in order.
    lint_codes: &'static [&'static str],
    /// `(process, assertion)` checked at depth 3; it holds.
    check: (&'static str, &'static str),
    /// A spec whose proof discharges syntactically.
    prove: Option<(&'static str, &'static str)>,
    /// `(process, fault plan)` of a monitored run, which conforms.
    run: Option<(&'static str, &'static str)>,
}

impl Module {
    fn edited(&self, seed: u64, pass: u64) -> String {
        let (line, template) = self.edit;
        let renamed = template.replace("{v}", &format!("e{seed}p{pass}"));
        self.source.replacen(line, &renamed, 1)
    }
}

fn generated_source() -> String {
    let mut src = format!("-- generated: {GENERATED_PIPELINES} independent copier pipelines\n");
    for k in 0..GENERATED_PIPELINES {
        src.push_str(&format!(
            "copier{k} = input{k}?x:NAT -> wire{k}!x -> copier{k}\n\
             recopier{k} = wire{k}?y:NAT -> output{k}!y -> recopier{k}\n\
             pipeline{k} = chan wire{k}; (copier{k} || recopier{k})\n"
        ));
    }
    // Hides a channel nobody uses: the module's one lint finding.
    src.push_str("quiet = chan spare; (copier0 || recopier0)\n");
    src
}

fn modules() -> Vec<Module> {
    let copier_edit = (
        "copier = input?x:NAT -> wire!x -> copier",
        "copier = input?{v}:NAT -> wire!{v} -> copier",
    );
    vec![
        Module {
            name: "generated",
            source: generated_source(),
            edit: (
                "copier0 = input0?x:NAT -> wire0!x -> copier0",
                "copier0 = input0?{v}:NAT -> wire0!{v} -> copier0",
            ),
            extra: ",\"nat_bound\":1",
            lint_codes: &["CSP007"],
            check: ("pipeline0", "output0 <= input0"),
            prove: Some(("copier0", "wire0 <= input0")),
            run: None,
        },
        Module {
            name: "paper",
            source: PAPER_CSP.to_string(),
            edit: copier_edit,
            extra: ",\"nat_bound\":1,\"bind\":{\"v\":[2,3,5]},\"sets\":{\"M\":[0,1]}",
            lint_codes: &[],
            check: ("pipeline", "output <= input"),
            prove: Some(("copier", "wire <= input")),
            run: None,
        },
        Module {
            name: "pipeline",
            source: PIPELINE_CSP.to_string(),
            edit: copier_edit,
            extra: ",\"nat_bound\":1",
            lint_codes: &[],
            check: ("pipeline", "output <= input"),
            prove: Some(("copier", "wire <= input")),
            run: Some(("pipeline", "crash:copier@5;restart:replay")),
        },
        Module {
            name: "protocol",
            source: PROTOCOL_CSP.to_string(),
            edit: (
                "sender = input?y:M -> q[y]",
                "sender = input?{v}:M -> q[{v}]",
            ),
            extra: ",\"nat_bound\":0,\"sets\":{\"M\":[0,1]}",
            lint_codes: &[],
            check: ("protocol", "output <= input"),
            prove: None,
            run: Some(("protocol", "crash:receiver@4;restart:replay")),
        },
        Module {
            name: "buffer",
            source: BUFFER_CSP.to_string(),
            edit: (
                "cell0 = in?x:NAT -> link!x -> cell0",
                "cell0 = in?{v}:NAT -> link!{v} -> cell0",
            ),
            extra: ",\"nat_bound\":1",
            lint_codes: &[],
            check: ("buffer2", "out <= in"),
            prove: Some(("cell0", "link <= in")),
            run: None,
        },
    ]
}

/// Which connection carries each module: the generated module's bodies
/// cost about as much as the four small modules together.
const CONNECTIONS: [&[&str]; 2] = [&["generated"], &["paper", "pipeline", "protocol", "buffer"]];

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Lint,
    LintEdit,
    Check,
    CheckEdit,
    Prove,
    ProveEdit,
    Run,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Lint => "lint",
            Kind::LintEdit => "lint_edit",
            Kind::Check => "check",
            Kind::CheckEdit => "check_edit",
            Kind::Prove => "prove",
            Kind::ProveEdit => "prove_edit",
            Kind::Run => "run",
        }
    }

    fn edited(self) -> bool {
        matches!(self, Kind::LintEdit | Kind::CheckEdit | Kind::ProveEdit)
    }

    /// The planned `X-Csp-Cache` class once the warm-up pass has run.
    fn cache(self) -> &'static str {
        match self {
            Kind::Lint | Kind::Check | Kind::Prove => "hit",
            Kind::LintEdit | Kind::CheckEdit | Kind::ProveEdit => "miss",
            Kind::Run => "bypass",
        }
    }
}

struct Req {
    module: usize,
    kind: Kind,
    class: &'static str,
}

struct Serve {
    seed: u64,
    child: Child,
    pid: String,
    base_url: String,
    modules: Vec<Module>,
    /// Each connection's client and its request list.
    conns: Vec<(Client, Vec<Req>)>,
    /// Header-side tallies of traced passes.
    cache_seen: [u64; 3],
    /// `/metrics` deltas over traced passes.
    server_delta: MetricsSnapshot,
    last_metrics: MetricsSnapshot,
}

pub fn setup(args: &Args, _tracer: Option<&mut Tracer>) -> Result<Box<dyn Workload>, String> {
    let mut child = Command::new(&args.csp_bin)
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", args.csp_bin.display()))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
    let base_url = line
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .map(str::to_string);
    let Some(base_url) = base_url.filter(|_| read.is_ok()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("csp serve printed no listening line: {line:?}"));
    };
    let pid = child.id().to_string();
    let mut serve = Serve {
        seed: args.seed,
        child,
        pid,
        base_url,
        modules: modules(),
        conns: Vec::new(),
        cache_seen: [0; 3],
        server_delta: MetricsSnapshot::new(),
        last_metrics: MetricsSnapshot::new(),
    };
    csp_bench::load::wait_ready(&serve.base_url)?;
    for names in CONNECTIONS {
        let mut reqs = Vec::new();
        for (m, module) in serve.modules.iter().enumerate() {
            if !names.contains(&module.name) {
                continue;
            }
            let mut kinds = vec![Kind::Lint, Kind::LintEdit, Kind::Check, Kind::CheckEdit];
            if module.prove.is_some() {
                kinds.extend([Kind::Prove, Kind::ProveEdit]);
            }
            if module.run.is_some() {
                kinds.push(Kind::Run);
            }
            for kind in kinds {
                // Lives for the rest of the run: 30 names per set-up.
                let class: &'static str =
                    Box::leak(format!("{}.{}", module.name, kind.label()).into_boxed_str());
                reqs.push(Req {
                    module: m,
                    kind,
                    class,
                });
            }
        }
        let client = Client::connect(&serve.base_url).map_err(|e| e.to_string())?;
        serve.conns.push((client, reqs));
    }
    Ok(Box::new(serve))
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.conns.clear();
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request, rendered before its timer starts.
struct Shot<'a> {
    req: &'a Req,
    path: &'static str,
    body: String,
}

fn render<'a>(module: &Module, req: &'a Req, seed: u64, pass: u64) -> Shot<'a> {
    let source = if req.kind.edited() {
        module.edited(seed, pass)
    } else {
        module.source.clone()
    };
    let src = json_string(&source);
    let extra = module.extra;
    let (path, body) = match req.kind {
        Kind::Lint | Kind::LintEdit => (
            "/v1/lint",
            format!(
                "{{\"source\":{src},\"module\":{}{extra}}}",
                json_string(module.name)
            ),
        ),
        Kind::Check | Kind::CheckEdit => (
            "/v1/check",
            format!(
                "{{\"source\":{src},\"process\":{},\"assertion\":{},\"depth\":3{extra}}}",
                json_string(module.check.0),
                json_string(module.check.1)
            ),
        ),
        Kind::Prove | Kind::ProveEdit => {
            let (process, assertion) = module.prove.expect("prove requests need a spec");
            (
                "/v1/prove",
                format!(
                    "{{\"source\":{src},\"specs\":[{{\"process\":{},\"assertion\":{}}}]{extra}}}",
                    json_string(process),
                    json_string(assertion)
                ),
            )
        }
        Kind::Run => {
            let (process, plan) = module.run.expect("run requests need a plan");
            (
                "/v1/run",
                format!(
                    "{{\"source\":{src},\"process\":{},\"steps\":24,\"seed\":7,\
                     \"fault_plan\":{},\"monitor\":true{extra}}}",
                    json_string(process),
                    json_string(plan)
                ),
            )
        }
    };
    Shot { req, path, body }
}

/// Whether a response carries the known answer.
fn answer_ok(module: &Module, kind: Kind, body: &str) -> bool {
    match kind {
        Kind::Lint | Kind::LintEdit => {
            let codes: Vec<&str> = body
                .split("\"code\":\"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .collect();
            body.contains("\"errors\":[]") && codes == module.lint_codes
        }
        Kind::Check | Kind::CheckEdit => body.contains("\"holds\":true"),
        Kind::Prove | Kind::ProveEdit => body.contains("\"proved\":true"),
        Kind::Run => body.contains("\"verdict\":\"conforming\""),
    }
}

/// What one connection's traced pass observed.
#[derive(Default)]
struct ConnTrace {
    /// Server time (`X-Csp-Ms`) and request count per cache class.
    server_ms: [f64; 3],
    count: [u64; 3],
    wait_ms: f64,
    run_ms: f64,
    parse_json_ms: f64,
    body_bytes: f64,
    requests: u64,
}

fn cache_index(label: &str) -> Option<usize> {
    ["hit", "miss", "bypass"].iter().position(|c| *c == label)
}

/// Drives connection `lane` through its list for one pass.
fn drive(
    lane: usize,
    client: &mut Client,
    shots: &[Shot<'_>],
    modules: &[Module],
    warm: bool,
    tracer: Option<&Tracer>,
    ct: &mut ConnTrace,
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::with_capacity(shots.len());
    for (i, shot) in shots.iter().enumerate() {
        let span = tracer.map(|tr| tr.request(i, shot.req.class));
        let t = Instant::now();
        let resp = client
            .post(shot.path, &shot.body)
            .map_err(|e| format!("{} {}: {e}", shot.path, shot.req.class))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(span);
        let cache = resp.header("X-Csp-Cache").unwrap_or("");
        let module = &modules[shot.req.module];
        let ok = resp.status == 200
            && (warm || cache == shot.req.kind.cache())
            && answer_ok(module, shot.req.kind, &resp.body);
        if tracer.is_some() {
            let server_ms: f64 = resp
                .header("X-Csp-Ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0);
            if let Some(c) = cache_index(cache) {
                ct.server_ms[c] += server_ms;
                ct.count[c] += 1;
            }
            ct.wait_ms += ms - server_ms;
            if shot.req.kind == Kind::Run {
                ct.run_ms += server_ms;
            }
            let t = Instant::now();
            let parsed = parse_json(&shot.body);
            ct.parse_json_ms += t.elapsed().as_secs_f64() * 1e3;
            if parsed.is_err() {
                return Err(format!(
                    "{}: the benchmark sent invalid JSON",
                    shot.req.class
                ));
            }
            ct.body_bytes += shot.body.len() as f64;
            ct.requests += 1;
        }
        samples.push(Sample {
            class: shot.req.class,
            ms,
            ok,
            lane,
        });
    }
    Ok(samples)
}

impl Serve {
    /// Scrapes `/metrics` between passes. It rides the first connection:
    /// each worker serves one keep-alive connection at a time, and both
    /// are held by the benchmark's clients.
    fn metrics(&mut self) -> Result<MetricsSnapshot, String> {
        let resp = self.conns[0].0.get("/metrics").map_err(|e| e.to_string())?;
        parse_prometheus(&resp.body).map_err(|e| format!("/metrics: {e:?}"))
    }
}

const SERVER_COUNTERS: [&str; 9] = [
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.bypass",
    "serve.pool.builds",
    "serve.pool.reuses",
    "serve.lint.relinted",
    "serve.lint.cached_defs",
    "serve.errors",
    "obs.events_dropped",
];

impl Workload for Serve {
    fn requests(&self) -> usize {
        self.conns.iter().map(|(_, reqs)| reqs.len()).sum()
    }

    fn pass(&mut self, pass: u64, tracer: Option<&mut Tracer>) -> Result<Vec<Sample>, String> {
        let warm = pass >= WARMUP_PASS;
        if tracer.is_some() {
            self.last_metrics = self.metrics()?;
        }
        let (seed, modules) = (self.seed, &self.modules);
        let shared: Option<&Tracer> = tracer.as_deref();
        let results: Vec<Result<(Vec<Sample>, ConnTrace), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(lane, (client, reqs))| {
                    let shots: Vec<Shot<'_>> = pass_order(seed, pass, reqs.len())
                        .into_iter()
                        .map(|i| render(&modules[reqs[i].module], &reqs[i], seed, pass))
                        .collect();
                    s.spawn(move || {
                        let mut ct = ConnTrace::default();
                        drive(lane, client, &shots, modules, warm, shared, &mut ct).map(|v| (v, ct))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let mut samples = Vec::new();
        let mut traces = Vec::new();
        for r in results {
            let (s, ct) = r?;
            samples.extend(s);
            traces.push(ct);
        }
        if let Some(tr) = tracer {
            let now = self.metrics()?;
            for name in SERVER_COUNTERS {
                let d = now
                    .counter(name)
                    .saturating_sub(self.last_metrics.counter(name));
                self.server_delta.add_counter(name, d);
            }
            self.server_delta
                .set_counter("obs.events_dropped", now.counter("obs.events_dropped"));
            for ct in traces {
                for c in 0..3 {
                    self.cache_seen[c] += ct.count[c];
                }
                let names = ["serve.hit_ms", "serve.miss_ms", "serve.bypass_ms"];
                for (c, name) in names.into_iter().enumerate() {
                    tr.add(name, ct.server_ms[c]);
                }
                tr.add("serve.wait_ms", ct.wait_ms);
                tr.add("runtime.run_ms", ct.run_ms);
                tr.add("obs.parse_json_ms", ct.parse_json_ms);
                tr.add("serve.body_bytes", ct.body_bytes);
                tr.add("serve.requests", ct.requests as f64);
            }
        }
        Ok(samples)
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&self.pid)
    }

    fn layers(&mut self, tracer: &Tracer) -> Result<Vec<(&'static str, f64)>, String> {
        let d = &self.server_delta;
        let [hits, misses, bypasses] = self.cache_seen;
        let cache_counters = ["serve.cache.hit", "serve.cache.miss", "serve.cache.bypass"];
        for (name, seen) in cache_counters.into_iter().zip(self.cache_seen) {
            if d.counter(name) != seen {
                return Err(format!(
                    "/metrics counted {} `{name}` but the headers said {seen}",
                    d.counter(name)
                ));
            }
        }
        let mean = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        let requests = tracer.sum("serve.requests") as u64;
        let passes = tracer.passes.max(1) as f64;
        let builds = d.counter("serve.pool.builds");
        let reuses = d.counter("serve.pool.reuses");
        Ok(vec![
            ("serve.hit_ms", mean(tracer.sum("serve.hit_ms"), hits)),
            ("serve.miss_ms", mean(tracer.sum("serve.miss_ms"), misses)),
            (
                "serve.bypass_ms",
                mean(tracer.sum("serve.bypass_ms"), bypasses),
            ),
            ("serve.wait_ms", mean(tracer.sum("serve.wait_ms"), requests)),
            (
                "obs.parse_json_ms",
                mean(tracer.sum("obs.parse_json_ms"), requests),
            ),
            (
                "serve.body_bytes",
                mean(tracer.sum("serve.body_bytes"), requests),
            ),
            (
                "core.cache_hit_ratio",
                mean(hits as f64, hits + misses + bypasses),
            ),
            (
                "core.pool_reuse_ratio",
                mean(reuses as f64, builds + reuses),
            ),
            (
                "analysis.relinted_defs",
                d.counter("serve.lint.relinted") as f64 / passes,
            ),
            (
                "analysis.cached_defs",
                d.counter("serve.lint.cached_defs") as f64 / passes,
            ),
            ("runtime.run_ms", tracer.sum("runtime.run_ms") / passes),
            ("serve.errors", d.counter("serve.errors") as f64 / passes),
            ("obs.events_dropped", d.counter("obs.events_dropped") as f64),
        ])
    }
}
