//! Endpoint dispatch: JSON request bodies in, `csp/v1` envelopes out.
//!
//! Every verification endpoint is a pure function of its request body —
//! module source, universe/binding parameters, and the query — so the
//! handler layer sits behind a content-addressed response cache keyed by
//! the same FNV-1a hashing the incremental [`AnalysisDb`] uses. Cache
//! status and server-side timing travel in the `X-Csp-Cache` /
//! `X-Csp-Ms` *headers*, never the body: a warm response is
//! byte-identical to a cold one, which the `tests/serve.rs` property
//! test pins down.
//!
//! Counter discipline (the `/metrics` invariant the property tests
//! check): every `POST` to a `/v1/*` verification endpoint increments
//! `serve.requests` and exactly one of `serve.cache.hit`,
//! `serve.cache.miss`, `serve.cache.bypass`.

use std::sync::Arc;
use std::time::Instant;

use csp_core::obs::{json_string, parse_json, JsonValue};
use csp_core::{
    hash_field, AnalysisDb, FaultPlan, RunOptions, Scheduler, Session, Value, HASH_SEED,
};

use crate::http::{Request, Response};
use crate::v1::{
    check_data, envelope, render_json, render_parse_errors, run_data, set_value, verify_phase,
    ModuleOptions, ProveOutcome,
};
use crate::ServeState;

/// The five verification endpoints.
pub const VERIFY_ENDPOINTS: [&str; 5] = [
    "/v1/lint",
    "/v1/check",
    "/v1/prove",
    "/v1/run",
    "/v1/profile",
];

/// How a verification request interacted with the response cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheStatus {
    /// Served from the cross-request cache.
    Hit,
    /// Computed now (and cached when the endpoint caches).
    Miss,
    /// Never eligible: `/v1/run` (real-thread execution) and requests
    /// whose body could not be keyed at all.
    Bypass,
}

impl CacheStatus {
    fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// A handler failure: HTTP status, message, and how the request should
/// be classified against the cache counters.
struct HandlerError {
    status: u16,
    message: String,
    cache: CacheStatus,
}

impl HandlerError {
    fn bypass(message: impl Into<String>) -> Self {
        HandlerError {
            status: 400,
            message: message.into(),
            cache: CacheStatus::Bypass,
        }
    }

    fn miss(message: impl Into<String>) -> Self {
        HandlerError {
            status: 400,
            message: message.into(),
            cache: CacheStatus::Miss,
        }
    }
}

/// Routes one parsed request. Infallible: every outcome, including
/// malformed input, is a well-formed HTTP response.
pub(crate) fn respond(state: &ServeState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => health(state),
        ("GET", "/metrics") => {
            Response::text(200, csp_core::obs::render_prometheus(&state.metrics()))
        }
        ("GET", "/v1/trace") => Response::json(200, state.collector().chrome_trace()),
        (_, "/healthz" | "/metrics" | "/v1/trace") => method_not_allowed("GET"),
        (_, path) if VERIFY_ENDPOINTS.contains(&path) => {
            if req.method == "POST" {
                verify(state, req)
            } else {
                method_not_allowed("POST")
            }
        }
        (_, path) => Response::json(
            404,
            envelope(
                "serve.error",
                &format!(
                    "{{\"error\":{}}}",
                    json_string(&format!("no such endpoint `{path}`"))
                ),
            ),
        ),
    }
}

fn method_not_allowed(allowed: &str) -> Response {
    Response::json(
        405,
        envelope(
            "serve.error",
            &format!("{{\"error\":{}}}", json_string(&format!("use {allowed}"))),
        ),
    )
    .with_header("Allow", allowed)
}

fn health(state: &ServeState) -> Response {
    let data = format!(
        "{{\"status\":\"ok\",\"uptime_ms\":{},\"cache_entries\":{},\"workers\":{}}}",
        state.uptime().as_millis(),
        state.cache().len(),
        state.workers(),
    );
    Response::json(200, envelope("serve.health", &data))
}

/// The instrumented wrapper around every verification endpoint: counts
/// the request, classifies it against the cache, times it, and carries
/// the cache/timing metadata in headers so response *bodies* stay
/// deterministic.
fn verify(state: &ServeState, req: &Request) -> Response {
    let t0 = Instant::now();
    // "/v1/lint" → "lint"
    let endpoint = &req.path["/v1/".len()..];
    let collector = state.collector();
    collector.add("serve.requests", 1);
    collector.add(format!("serve.{endpoint}.requests"), 1);
    let mut span = collector.span("serve.request");
    span.record("path", req.path.as_str());
    let (response, cache) = match handle_verify(state, endpoint, &req.body) {
        Ok((body, cache)) => (Response::json(200, body.as_bytes().to_vec()), cache),
        Err(e) => {
            collector.add("serve.errors", 1);
            let data = format!("{{\"error\":{}}}", json_string(&e.message));
            (
                Response::json(e.status, envelope("serve.error", &data)),
                e.cache,
            )
        }
    };
    collector.add(format!("serve.cache.{}", cache.label()), 1);
    span.record("cache", cache.label());
    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    collector.observe_ns("serve.request_ns", ns);
    span.end();
    response
        .with_header("X-Csp-Cache", cache.label())
        .with_header("X-Csp-Ms", format!("{:.3}", ns as f64 / 1e6))
}

fn handle_verify(
    state: &ServeState,
    endpoint: &str,
    body: &[u8],
) -> Result<(Arc<str>, CacheStatus), HandlerError> {
    let p = Params::parse(body).map_err(HandlerError::bypass)?;
    // `/v1/run` executes on real threads; identical requests may
    // legitimately produce different interleavings, so it is never
    // cached — not even probed.
    if endpoint == "run" {
        let body = run(state, &p)?;
        return Ok((Arc::from(body), CacheStatus::Bypass));
    }
    let key = p.cache_key(endpoint);
    if let Some(hit) = state.cache().get(key) {
        return Ok((hit, CacheStatus::Hit));
    }
    let body = match endpoint {
        "lint" => lint(state, &p),
        "check" => check(state, &p),
        "prove" => prove(state, &p),
        "profile" => profile(state, &p),
        other => Err(HandlerError::bypass(format!("no such endpoint `{other}`"))),
    }?;
    let rendered: Arc<str> = Arc::from(body);
    state.cache().insert(key, Arc::clone(&rendered));
    Ok((rendered, CacheStatus::Miss))
}

/// `/v1/lint`: incremental analysis. The per-module [`AnalysisDb`] is
/// pooled across requests, so an edited re-submission relints only the
/// definitions whose content hash moved (the `serve.lint.relinted` /
/// `serve.lint.cached_defs` counters expose the split).
fn lint(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    let db_key = p.lint_db_key();
    let mut db = state
        .take_lint_db(db_key)
        .unwrap_or_else(|| AnalysisDb::new().with_env(&p.options.env()));
    let stats = db.set_source(&p.source);
    state
        .collector()
        .add("serve.lint.relinted", stats.relinted as u64);
    state
        .collector()
        .add("serve.lint.cached_defs", stats.cached as u64);
    let data = format!(
        "{{\"module\":{},\"definitions\":{},\"errors\":{},\"diagnostics\":{}}}",
        json_string(&p.module),
        stats.definitions,
        render_parse_errors(db.parse_errors()),
        render_json(&db.diagnostics()),
    );
    state.put_lint_db(db_key, db);
    Ok(envelope("serve.lint", &data))
}

/// Runs `f` on a session over the request's pooled workbench, then
/// checks the workbench back in. Fails when a cold workbench does not
/// build or when `f` fails.
fn with_session<T, E: ToString>(
    state: &ServeState,
    p: &Params,
    f: impl FnOnce(&Session<'_>) -> Result<T, E>,
) -> Result<T, String> {
    let pooled = state
        .pool()
        .checkout(p.wb_key(), || p.options.workbench(&p.source))?;
    let out = f(&pooled.wb.session_with(state.collector().clone()));
    state.pool().checkin(pooled);
    out.map_err(|e| e.to_string())
}

/// `/v1/check`: bounded model checking through a pooled workbench.
fn check(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    let process = p.need_process()?;
    let assertion = p
        .assertion
        .as_deref()
        .ok_or_else(|| HandlerError::miss("missing required string field `assertion`"))?;
    let verdict = with_session(state, p, |s| s.check_sat(process, assertion, p.depth))
        .map_err(HandlerError::miss)?;
    Ok(envelope(
        "serve.check",
        &check_data(process, assertion, &verdict),
    ))
}

/// `/v1/prove`: proof synthesis + checking. A failed proof is a verdict
/// (`"proved":false`), not a transport error — mirroring the CLI, which
/// prints `proof failed` and exits 1 rather than 2.
fn prove(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    if p.specs.is_empty() {
        return Err(HandlerError::miss(
            "at least one spec {\"process\":…,\"assertion\":…} is required",
        ));
    }
    let specs: Vec<(&str, &str)> = p
        .specs
        .iter()
        .map(|(n, a)| (n.as_str(), a.as_str()))
        .collect();
    let outcome = with_session(state, p, |s| {
        Ok::<_, String>(ProveOutcome::prove(s, &specs))
    })
    .map_err(HandlerError::miss)?;
    Ok(envelope("serve.prove", &outcome.data()))
}

/// `/v1/run`: real-thread execution of the named network. Bypasses the
/// cache by design; the scheduler seed still makes it *mostly*
/// reproducible, but thread timing may vary interleavings legitimately.
fn run(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    let process = p.need_process()?;
    let faults = match &p.fault_plan {
        Some(spec) => FaultPlan::parse(spec).map_err(|e| HandlerError::bypass(e.to_string()))?,
        None => FaultPlan::none(),
    };
    let result = with_session(state, p, |s| {
        // `"monitor": true` = online trace-membership checking; a string
        // is additionally checked as a `sat` assertion on every visible
        // prefix.
        let monitor = p
            .monitor
            .as_deref()
            .map(|src| s.workbench().monitor_spec((!src.is_empty()).then_some(src)))
            .transpose()?;
        s.run(
            process,
            RunOptions {
                max_steps: p.steps,
                scheduler: Scheduler::seeded(p.seed),
                faults,
                monitor,
                ..RunOptions::default()
            },
        )
    })
    .map_err(HandlerError::bypass)?;
    Ok(envelope("serve.run", &run_data(process, &result)))
}

/// `/v1/profile`: the parse → fixpoint → verify pipeline, timed per
/// phase. The `ms` fields are the only nondeterministic bytes any cached
/// endpoint emits (a cache hit replays the *original* timings, which is
/// the honest answer: the cached verdict cost that much to compute).
fn profile(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let data = with_session(state, p, |s| {
        let parse_ms = ms_since(t0);
        let t = Instant::now();
        let fix = s.fixpoint(p.depth, 32).map_err(|e| e.to_string())?;
        let fixpoint_ms = ms_since(t);
        let t = Instant::now();
        let claim = p.process.as_deref().zip(p.assertion.as_deref());
        let verified = verify_phase(s, claim, p.depth)?;
        let verify_ms = ms_since(t);
        let converged = match fix.converged_at {
            Some(i) => i.to_string(),
            None => "null".to_string(),
        };
        Ok::<_, String>(format!(
            "{{\"phases\":[\
             {{\"name\":\"parse\",\"ms\":{parse_ms:.3},\"definitions\":{}}},\
             {{\"name\":\"fixpoint\",\"ms\":{fixpoint_ms:.3},\"iterations\":{},\"converged_at\":{converged}}},\
             {{\"name\":\"verify\",\"ms\":{verify_ms:.3},\"result\":{verified}}}]}}",
            s.workbench().definitions().len(),
            fix.iterates.len(),
        ))
    })
    .map_err(HandlerError::miss)?;
    Ok(envelope("serve.profile", &data))
}

/// One request's decoded parameters — the same knobs the CLI exposes as
/// flags, carried in a JSON object. Every field participates in the
/// cache key.
struct Params {
    source: String,
    module: String,
    process: Option<String>,
    assertion: Option<String>,
    specs: Vec<(String, String)>,
    depth: usize,
    steps: usize,
    seed: u64,
    options: ModuleOptions,
    fault_plan: Option<String>,
    /// `/v1/run` online monitoring: `Some("")` (from `"monitor": true`)
    /// means membership-only, a non-empty string adds a `sat` assertion.
    monitor: Option<String>,
}

impl Params {
    fn parse(body: &[u8]) -> Result<Params, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let text = text.trim();
        if text.is_empty() {
            return Err("empty body; expected a JSON object with a `source` field".to_string());
        }
        let v = parse_json(text)
            .map_err(|e| format!("bad JSON at offset {}: {}", e.offset, e.message))?;
        let source = v
            .get("source")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing required string field `source`".to_string())?
            .to_string();
        let str_field = |name: &str| -> Result<Option<String>, String> {
            match v.get(name) {
                None => Ok(None),
                Some(f) => f
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("field `{name}` must be a string")),
            }
        };
        let num_field = |name: &str, default: u64| -> Result<u64, String> {
            match v.get(name) {
                None => Ok(default),
                Some(f) => f
                    .as_u64()
                    .ok_or_else(|| format!("field `{name}` must be an integer from 0 to 2^64 - 1")),
            }
        };
        let mut specs = Vec::new();
        if let Some(arr) = v.get("specs") {
            let arr = arr
                .as_array()
                .ok_or_else(|| "field `specs` must be an array".to_string())?;
            for s in arr {
                let (Some(process), Some(assertion)) = (
                    s.get("process").and_then(JsonValue::as_str),
                    s.get("assertion").and_then(JsonValue::as_str),
                ) else {
                    return Err(
                        "each spec needs string fields `process` and `assertion`".to_string()
                    );
                };
                specs.push((process.to_string(), assertion.to_string()));
            }
        }
        let mut sets = Vec::new();
        if let Some(obj) = v.get("sets") {
            let entries = obj
                .entries()
                .ok_or_else(|| "field `sets` must be an object of arrays".to_string())?;
            for (name, vals) in entries {
                let arr = vals
                    .as_array()
                    .ok_or_else(|| format!("set `{name}` must be an array"))?;
                let parsed = arr
                    .iter()
                    .map(|x| match (x.as_i64(), x.as_str()) {
                        (Some(n), _) => Ok(Value::Int(n)),
                        (None, Some(s)) => set_value(s),
                        _ => Err("set values must be integers or Uppercase atoms".to_string()),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                sets.push((name.clone(), parsed));
            }
            sets.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let mut binds = Vec::new();
        if let Some(obj) = v.get("bind") {
            let entries = obj
                .entries()
                .ok_or_else(|| "field `bind` must be an object of integer arrays".to_string())?;
            for (name, vals) in entries {
                let arr = vals
                    .as_array()
                    .ok_or_else(|| format!("bind `{name}` must be an array"))?;
                let parsed = arr
                    .iter()
                    .map(|x| {
                        x.as_i64().ok_or_else(|| {
                            format!("bind `{name}` must contain integers from -2^63 to 2^63 - 1")
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                binds.push((name.clone(), parsed));
            }
            binds.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let mut channels = Vec::new();
        if let Some(arr) = v.get("channels") {
            let arr = arr
                .as_array()
                .ok_or_else(|| "field `channels` must be an array of strings".to_string())?;
            for c in arr {
                channels.push(
                    c.as_str()
                        .ok_or_else(|| "field `channels` must contain strings".to_string())?
                        .to_string(),
                );
            }
        }
        let monitor = match v.get("monitor") {
            None => None,
            Some(f) => match (f.as_bool(), f.as_str()) {
                (Some(true), _) => Some(String::new()),
                (Some(false), _) => None,
                (_, Some(s)) => Some(s.to_string()),
                _ => {
                    return Err(
                        "field `monitor` must be a boolean or an assertion string".to_string()
                    )
                }
            },
        };
        Ok(Params {
            source,
            module: str_field("module")?.unwrap_or_else(|| "default".to_string()),
            process: str_field("process")?,
            assertion: str_field("assertion")?,
            specs,
            depth: num_field("depth", 4)? as usize,
            steps: num_field("steps", 32)? as usize,
            seed: num_field("seed", 0)?,
            options: ModuleOptions {
                nat_bound: u32::try_from(num_field("nat_bound", 2)?)
                    .map_err(|_| format!("field `nat_bound` must be at most {}", u32::MAX))?,
                sets,
                binds,
                channels,
            },
            fault_plan: str_field("fault_plan")?,
            monitor,
        })
    }

    fn need_process(&self) -> Result<&str, HandlerError> {
        self.process
            .as_deref()
            .ok_or_else(|| HandlerError::miss("missing required string field `process`"))
    }

    /// The full response-cache key: endpoint plus *every* parameter.
    fn cache_key(&self, endpoint: &str) -> u64 {
        let mut h = hash_field(HASH_SEED, endpoint.as_bytes());
        h = self.hash_workbench_fields(h);
        h = hash_field(h, self.module.as_bytes());
        h = hash_opt(h, self.process.as_deref());
        h = hash_opt(h, self.assertion.as_deref());
        h = hash_opt(h, self.fault_plan.as_deref());
        h = hash_opt(h, self.monitor.as_deref());
        for (n, a) in &self.specs {
            h = hash_field(h, n.as_bytes());
            h = hash_field(h, a.as_bytes());
        }
        h = hash_field(h, &(self.depth as u64).to_le_bytes());
        h = hash_field(h, &(self.steps as u64).to_le_bytes());
        hash_field(h, &self.seed.to_le_bytes())
    }

    /// The workbench-pool key: only the fields that shape construction.
    fn wb_key(&self) -> u64 {
        self.hash_workbench_fields(hash_field(HASH_SEED, b"workbench"))
    }

    /// The lint-database pool key: lint depends on the module identity
    /// and host bindings, not on the universe or query fields (and the
    /// *source* is deliberately absent — reusing the db across edits of
    /// one module is the whole point).
    fn lint_db_key(&self) -> u64 {
        let mut h = hash_field(HASH_SEED, b"lint-db");
        h = hash_field(h, self.module.as_bytes());
        for (name, vals) in &self.options.binds {
            h = hash_field(h, name.as_bytes());
            for v in vals {
                h = hash_field(h, &v.to_le_bytes());
            }
        }
        h
    }

    fn hash_workbench_fields(&self, mut h: u64) -> u64 {
        let o = &self.options;
        h = hash_field(h, self.source.as_bytes());
        h = hash_field(h, &u64::from(o.nat_bound).to_le_bytes());
        for (name, vals) in &o.sets {
            h = hash_field(h, name.as_bytes());
            for v in vals {
                h = hash_field(h, v.to_string().as_bytes());
            }
        }
        for (name, vals) in &o.binds {
            h = hash_field(h, name.as_bytes());
            for v in vals {
                h = hash_field(h, &v.to_le_bytes());
            }
        }
        for c in &o.channels {
            h = hash_field(h, c.as_bytes());
        }
        h
    }
}

fn hash_opt(h: u64, v: Option<&str>) -> u64 {
    match v {
        Some(s) => hash_field(hash_field(h, b"+"), s.as_bytes()),
        None => hash_field(h, b"-"),
    }
}
