//! Endpoint dispatch: JSON request bodies in, `csp/v1` envelopes out.
//!
//! Every verification endpoint is a pure function of its request body —
//! module source, universe/binding parameters, and the query — so the
//! handler layer sits behind a response cache keyed by the endpoint and
//! the decoded [`Params`], hashed with the server's keyed hasher. Cache
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
use csp_core::{AnalysisDb, FaultPlan, RunOptions, Scheduler, Session, Value};

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
        state.cached_responses(),
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
    let key = state.key((endpoint, &p));
    if let Some(hit) = state.cached_response(key) {
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
    state.cache_response(key, Arc::clone(&rendered));
    Ok((rendered, CacheStatus::Miss))
}

/// `/v1/lint`: incremental analysis. The per-module [`AnalysisDb`] is
/// kept across requests, so an edited re-submission relints only the
/// definitions whose content hash moved (the `serve.lint.relinted` /
/// `serve.lint.cached_defs` counters expose the split).
fn lint(state: &ServeState, p: &Params) -> Result<String, HandlerError> {
    let db_key = lint_db_key(state, p);
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

/// The lint-database key: lint depends on the module identity and host
/// bindings, not on the universe or query fields (and the *source* is
/// deliberately absent — reusing the db across edits of one module is
/// the whole point).
fn lint_db_key(state: &ServeState, p: &Params) -> u64 {
    state.key((&p.module, &p.options.binds))
}

/// Runs `f` on a session over the request's shared workbench. Fails
/// when a new workbench does not build or when `f` fails.
fn with_session<T, E: ToString>(
    state: &ServeState,
    p: &Params,
    f: impl FnOnce(&Session<'_>) -> Result<T, E>,
) -> Result<T, String> {
    let wb = state.workbench(&p.source, &p.options)?;
    f(&wb.session_with(state.collector().clone())).map_err(|e| e.to_string())
}

/// `/v1/check`: bounded model checking through the shared workbench.
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
/// response-cache key; a member the decoder does not read does not.
#[derive(Hash)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WB_CAP;

    const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier\n\
                            recopier = wire?y:NAT -> output!y -> recopier\n\
                            pipeline = chan wire; (copier || recopier)\n";

    /// A request body from `(member, JSON value)` pairs.
    fn body(members: &[(&str, String)]) -> String {
        let members: Vec<String> = members
            .iter()
            .map(|(name, value)| format!("{}:{value}", json_string(name)))
            .collect();
        format!("{{{}}}", members.join(","))
    }

    fn cache_status(resp: &Response) -> Option<&str> {
        resp.extra
            .iter()
            .find(|(n, _)| n == "X-Csp-Cache")
            .map(|(_, v)| v.as_str())
    }

    fn params(body: &str) -> Params {
        Params::parse(body.as_bytes()).expect("a well-formed body")
    }

    /// Each member the decoder reads, with two values it accepts.
    fn keyed_members() -> Vec<(&'static str, String, String)> {
        let s = |v: &str| json_string(v);
        vec![
            ("source", s("p = c!0 -> p"), s("p = c!1 -> p")),
            ("module", s("m"), s("n")),
            ("process", s("p"), s("q")),
            ("assertion", s("c <= c"), s("#c >= 0")),
            (
                "specs",
                r#"[{"process":"p","assertion":"c <= c"}]"#.into(),
                "[]".into(),
            ),
            ("depth", "2".into(), "3".into()),
            ("steps", "4".into(), "5".into()),
            ("seed", "1".into(), "2".into()),
            ("nat_bound", "1".into(), "2".into()),
            ("sets", r#"{"S":[1]}"#.into(), r#"{"S":[2]}"#.into()),
            ("bind", r#"{"v":[1]}"#.into(), r#"{"v":[2]}"#.into()),
            ("channels", r#"["d"]"#.into(), r#"["e"]"#.into()),
            ("fault_plan", s("crash:p@1"), s("crash:p@2")),
            ("monitor", "true".into(), s("c <= c")),
        ]
    }

    /// Changing any one keyed member gives a request its own
    /// response-cache entry; a member the decoder does not read keeps
    /// the hit, and moving a byte from one member to the next does not
    /// alias two requests.
    #[test]
    fn every_keyed_member_moves_the_response_key() {
        let state = ServeState::new(64, 2);
        let members = keyed_members();
        let base: Vec<(&str, String)> = members.iter().map(|(n, v, _)| (*n, v.clone())).collect();
        let first = state.post("/v1/lint", &body(&base));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        assert_eq!(cache_status(&first), Some("miss"));
        for (i, (name, _, other)) in members.iter().enumerate() {
            let mut changed = base.clone();
            changed[i].1 = other.clone();
            let resp = state.post("/v1/lint", &body(&changed));
            assert_eq!(resp.status, 200, "{name}");
            assert_eq!(cache_status(&resp), Some("miss"), "{name}");
            let entries = state.metrics().counter("serve.cache.entries");
            assert_eq!(entries, i as u64 + 2, "{name}");
        }
        let mut unknown = base.clone();
        unknown.push(("comment", json_string("not read")));
        assert_eq!(
            cache_status(&state.post("/v1/lint", &body(&unknown))),
            Some("hit")
        );

        let split = |process: &str, assertion: &str| {
            let mut members = base.clone();
            members[2].1 = json_string(process);
            members[3].1 = json_string(assertion);
            state.key(("lint", &params(&body(&members))))
        };
        assert_ne!(split("ab", "c"), split("a", "bc"));
    }

    /// A check and then a prove of one source under one set of options
    /// build its workbench once and share it.
    #[test]
    fn a_check_and_a_prove_of_one_source_share_its_workbench() {
        let state = ServeState::new(64, 2);
        let check = body(&[
            ("source", json_string(PIPELINE)),
            ("process", json_string("pipeline")),
            ("assertion", json_string("output <= input")),
            ("depth", "3".into()),
            ("nat_bound", "1".into()),
        ]);
        let prove = body(&[
            ("source", json_string(PIPELINE)),
            (
                "specs",
                r#"[{"process":"copier","assertion":"wire <= input"}]"#.into(),
            ),
            ("nat_bound", "1".into()),
        ]);
        assert_eq!(state.post("/v1/check", &check).status, 200);
        assert_eq!(state.post("/v1/prove", &prove).status, 200);
        let m = state.metrics();
        assert_eq!(m.counter("serve.pool.builds"), 1);
        assert_eq!(m.counter("serve.pool.reuses"), 1);
        let (a, b) = (params(&check), params(&prove));
        let wa = state.workbench(&a.source, &a.options).unwrap();
        let wb = state.workbench(&b.source, &b.options).unwrap();
        assert!(Arc::ptr_eq(&wa, &wb));
    }

    /// The lint database of a module is found again after its source is
    /// edited: its key reads the module and bindings, not the source.
    #[test]
    fn the_lint_database_key_ignores_the_source() {
        let state = ServeState::new(64, 2);
        let lint = |source: &str, module: &str| {
            body(&[
                ("source", json_string(source)),
                ("module", json_string(module)),
            ])
        };
        let edited = format!("{PIPELINE}probe = probe!0 -> probe\n");
        let key = |b: &str| lint_db_key(&state, &params(b));
        assert_eq!(key(&lint(PIPELINE, "m")), key(&lint(&edited, "m")));
        assert_ne!(key(&lint(PIPELINE, "m")), key(&lint(PIPELINE, "n")));

        assert_eq!(state.post("/v1/lint", &lint(PIPELINE, "m")).status, 200);
        assert_eq!(state.post("/v1/lint", &lint(&edited, "m")).status, 200);
        let m = state.metrics();
        assert_eq!(m.counter("serve.lint.cached_defs"), 3);
        assert_eq!(m.counter("serve.lint.relinted"), 4);
    }

    /// At capacity, a new workbench evicts the least recently used one.
    #[test]
    fn the_least_recently_used_workbench_is_evicted() {
        let state = ServeState::new(64, 2);
        let options = ModuleOptions::default();
        let get = |i: usize| {
            state
                .workbench(&format!("p = c!{i} -> p"), &options)
                .unwrap()
        };
        let builds = || state.metrics().counter("serve.pool.builds");
        for i in 0..WB_CAP {
            get(i);
        }
        get(0); // 1 is now the least recently used
        get(WB_CAP);
        assert_eq!(builds(), WB_CAP as u64 + 1);
        get(0);
        assert_eq!(builds(), WB_CAP as u64 + 1, "0 was kept");
        get(1);
        assert_eq!(builds(), WB_CAP as u64 + 2, "1 was evicted");
    }
}
