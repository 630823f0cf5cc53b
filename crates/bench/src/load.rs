//! The `bench-json --serve` load driver: drives a running `csp serve`
//! instance with the same request mix an editor/CI fleet would produce
//! and reports four gateable rows:
//!
//! * `serve/cold_check_ms` — median `/v1/check` latency when every
//!   request is a guaranteed cache miss (each sample appends a distinct
//!   probe definition, moving the content hash);
//! * `serve/warm_check_ms` — median latency re-requesting one fixed
//!   body (pure cache hits after priming);
//! * `serve/rps_mixed` — concurrent lint/check/prove mix over
//!   `paper.csp` and the `examples/*.csp` modules. Stored as
//!   **milliseconds per 1000 requests** (`1e6 / rps`) so the shared
//!   wall-time gate is directionally correct — a throughput *drop*
//!   raises the stored number and trips the ±tolerance check — and
//!   well clear of the gate's 1 ms noise floor. The actual
//!   requests-per-second figure rides in the `peak_set` column;
//! * `serve/p99_ms` — 99th-percentile latency across the mixed phase.
//!
//! The driver also *enforces* the cache's reason for existing: the
//! warm median must beat the cold median by at least
//! [`WARM_SPEEDUP_FLOOR`]×, and every response's `X-Csp-Cache` header
//! must match the phase (miss when re-keyed, hit when repeated).

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::report::{BenchRecord, SpanAttr};
use csp_core::obs::json_string;
use csp_serve::Client;

/// The paper's module (lint traffic in the mixed phase).
const PAPER_CSP: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper.csp"));
/// The shipped example modules (check/prove traffic).
const PIPELINE_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/pipeline.csp"
));
const PROTOCOL_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/protocol.csp"
));
const BUFFER_CSP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/buffer.csp"
));

/// Acceptance floor: a warm (cache-hit) re-request of an unchanged
/// module must be at least this many times faster than a cold one.
pub const WARM_SPEEDUP_FLOOR: f64 = 5.0;

/// Cold/warm phase samples.
const CHECK_SAMPLES: usize = 8;
/// Concurrent clients in the mixed phase.
const MIXED_CLIENTS: usize = 4;
/// Requests each mixed-phase client issues over its one connection.
const MIXED_REQUESTS_PER_CLIENT: usize = 100;
/// Mixed-phase repetitions; the best-throughput round is reported
/// (best-of-N resists one bad scheduling window on a shared CI box).
const MIXED_ROUNDS: usize = 5;

/// One request shape in the mixed phase.
struct Shot {
    path: &'static str,
    body: String,
}

fn check_body(source: &str, process: &str, assertion: &str, extra: &str) -> String {
    format!(
        "{{\"source\":{},\"process\":{},\"assertion\":{},\"depth\":3{extra}}}",
        json_string(source),
        json_string(process),
        json_string(assertion),
    )
}

/// The mixed-phase request palette: lint / check / prove over the
/// shipped modules, echoing the README's command tour.
fn mixed_palette() -> Vec<Shot> {
    vec![
        Shot {
            path: "/v1/lint",
            body: format!(
                "{{\"source\":{},\"module\":\"paper\"}}",
                json_string(PAPER_CSP)
            ),
        },
        Shot {
            path: "/v1/check",
            body: check_body(
                PIPELINE_CSP,
                "pipeline",
                "output <= input",
                ",\"nat_bound\":1",
            ),
        },
        Shot {
            path: "/v1/check",
            body: check_body(
                PROTOCOL_CSP,
                "protocol",
                "output <= input",
                ",\"nat_bound\":0,\"sets\":{\"M\":[0,1]}",
            ),
        },
        Shot {
            path: "/v1/check",
            body: check_body(BUFFER_CSP, "buffer2", "out <= in", ",\"nat_bound\":1"),
        },
        Shot {
            path: "/v1/prove",
            body: format!(
                "{{\"source\":{},\"specs\":[{{\"process\":\"copier\",\
                 \"assertion\":\"wire <= input\"}}],\"nat_bound\":1}}",
                json_string(PIPELINE_CSP)
            ),
        },
        Shot {
            path: "/v1/lint",
            body: format!(
                "{{\"source\":{},\"module\":\"buffer\"}}",
                json_string(BUFFER_CSP)
            ),
        },
    ]
}

/// Polls `/healthz` until the server answers (or the deadline passes).
///
/// # Errors
///
/// Reports the last connection failure after ~30 s of retries.
pub fn wait_ready(base_url: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = String::new();
    while Instant::now() < deadline {
        match Client::connect(base_url).and_then(|mut c| c.get("/healthz")) {
            Ok(resp) if resp.status == 200 => return Ok(()),
            Ok(resp) => last = format!("healthz returned {}", resp.status),
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    Err(format!("server at {base_url} never became ready: {last}"))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    xs[xs.len() / 2]
}

fn expect_cache(resp: &csp_serve::ClientResponse, want: &str, ctx: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{ctx}: status {} body {}", resp.status, resp.body));
    }
    match resp.header("X-Csp-Cache") {
        Some(got) if got == want => Ok(()),
        other => Err(format!("{ctx}: expected X-Csp-Cache {want}, got {other:?}")),
    }
}

/// One mixed-load round: concurrent clients each playing the palette
/// over a persistent connection. Returns `(rps, p99_ms, requests)`.
fn mixed_round(base_url: &str, palette: &[Shot]) -> Result<(f64, f64, usize), String> {
    let t0 = Instant::now();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..MIXED_CLIENTS)
            .map(|id| {
                s.spawn(move || -> Result<Vec<f64>, String> {
                    let mut client = Client::connect(base_url).map_err(|e| e.to_string())?;
                    // One untimed request absorbs connection setup so
                    // p99 measures the steady keep-alive state.
                    let warmup = &palette[id % palette.len()];
                    client
                        .post(warmup.path, &warmup.body)
                        .map_err(|e| e.to_string())?;
                    let mut times = Vec::with_capacity(MIXED_REQUESTS_PER_CLIENT);
                    for i in 0..MIXED_REQUESTS_PER_CLIENT {
                        // Per-client offset staggers the mix.
                        let shot = &palette[(id + i) % palette.len()];
                        let t = Instant::now();
                        let resp = client
                            .post(shot.path, &shot.body)
                            .map_err(|e| e.to_string())?;
                        times.push(t.elapsed().as_secs_f64() * 1e3);
                        if resp.status != 200 {
                            return Err(format!(
                                "mixed {} failed: {} {}",
                                shot.path, resp.status, resp.body
                            ));
                        }
                    }
                    Ok(times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let mut all: Vec<f64> = latencies.into_iter().flatten().collect();
    all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let total = all.len();
    let rps = total as f64 / wall_s.max(1e-9);
    let p99 = all[((total as f64 * 0.99).ceil() as usize).clamp(1, total) - 1];
    Ok((rps, p99, total))
}

/// Runs the full load suite against `base_url`; the server must already
/// be listening (see [`wait_ready`]).
///
/// # Errors
///
/// Reports transport failures, cache-header mismatches, and a
/// warm-vs-cold speedup below [`WARM_SPEEDUP_FLOOR`]×.
pub fn run_load(base_url: &str) -> Result<Vec<BenchRecord>, String> {
    wait_ready(base_url)?;
    let err = |e: std::io::Error| e.to_string();

    // Nonce so repeated driver runs against one long-lived server still
    // start cold: it moves every cold-phase content hash.
    let nonce = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);

    // -- cold phase: every sample re-keys the module ------------------
    let mut client = Client::connect(base_url).map_err(err)?;
    let mut cold_times = Vec::with_capacity(CHECK_SAMPLES);
    for i in 0..CHECK_SAMPLES {
        let source =
            format!("{PIPELINE_CSP}\ncold_probe_{nonce}_{i} = probe!0 -> cold_probe_{nonce}_{i}\n");
        let body = check_body(&source, "pipeline", "output <= input", ",\"nat_bound\":1");
        let t0 = Instant::now();
        let resp = client.post("/v1/check", &body).map_err(err)?;
        cold_times.push(t0.elapsed().as_secs_f64() * 1e3);
        expect_cache(&resp, "miss", "cold check")?;
    }
    let cold_ms = median(cold_times);

    // -- warm phase: one fixed body, hits after priming ---------------
    let warm_body = check_body(
        &format!("{PIPELINE_CSP}\nwarm_probe_{nonce} = probe!0 -> warm_probe_{nonce}\n"),
        "pipeline",
        "output <= input",
        ",\"nat_bound\":1",
    );
    let prime = client.post("/v1/check", &warm_body).map_err(err)?;
    expect_cache(&prime, "miss", "warm prime")?;
    let mut warm_times = Vec::with_capacity(CHECK_SAMPLES);
    for _ in 0..CHECK_SAMPLES {
        let t0 = Instant::now();
        let resp = client.post("/v1/check", &warm_body).map_err(err)?;
        warm_times.push(t0.elapsed().as_secs_f64() * 1e3);
        expect_cache(&resp, "hit", "warm check")?;
        if resp.body != prime.body {
            return Err("warm response body differs from the cold one".to_string());
        }
    }
    let warm_ms = median(warm_times);
    let speedup = cold_ms / warm_ms.max(1e-6);
    eprintln!("serve: cold {cold_ms:.2} ms, warm {warm_ms:.3} ms ({speedup:.1}x speedup)");
    if speedup < WARM_SPEEDUP_FLOOR {
        return Err(format!(
            "cache speedup {speedup:.1}x is below the {WARM_SPEEDUP_FLOOR}x floor \
             (cold {cold_ms:.2} ms vs warm {warm_ms:.3} ms)"
        ));
    }

    // -- mixed phase: concurrent lint/check/prove ---------------------
    let palette = mixed_palette();
    // Prime once so the phase measures the steady (warm) state the
    // cache exists to provide.
    for shot in &palette {
        let resp = client.post(shot.path, &shot.body).map_err(err)?;
        if resp.status != 200 {
            return Err(format!(
                "prime {} failed: {} {}",
                shot.path, resp.status, resp.body
            ));
        }
    }

    // Best-of-N rounds: on a shared CI box a single bad scheduling
    // window can halve measured throughput; the best round is the
    // machine's real capability and is what the gate should track.
    let mut rps = 0.0f64;
    let mut p99 = f64::INFINITY;
    let mut total = 0usize;
    for round in 0..MIXED_ROUNDS {
        let (round_rps, round_p99, round_total) = mixed_round(base_url, &palette)?;
        eprintln!(
            "serve: mixed round {}/{MIXED_ROUNDS}: {round_total} requests over \
             {MIXED_CLIENTS} connections = {round_rps:.0} rps, p99 {round_p99:.2} ms",
            round + 1
        );
        if round_rps > rps {
            rps = round_rps;
            p99 = round_p99;
            total = round_total;
        }
    }

    let no_spans: Vec<SpanAttr> = Vec::new();
    Ok(vec![
        BenchRecord {
            name: "serve/cold_check_ms".to_string(),
            wall_ms: cold_ms,
            traces: CHECK_SAMPLES as u64,
            peak_set: 0,
            spans: no_spans.clone(),
        },
        BenchRecord {
            name: "serve/warm_check_ms".to_string(),
            wall_ms: warm_ms,
            traces: CHECK_SAMPLES as u64,
            peak_set: speedup as u64,
            spans: no_spans.clone(),
        },
        BenchRecord {
            // ms per 1000 requests, so the wall-time gate treats a
            // throughput drop as the regression it is (and the number
            // sits far above the gate's 1 ms noise floor).
            name: "serve/rps_mixed".to_string(),
            wall_ms: 1e6 / rps.max(1e-9),
            traces: total as u64,
            peak_set: rps as u64,
            spans: no_spans.clone(),
        },
        BenchRecord {
            name: "serve/p99_ms".to_string(),
            wall_ms: p99,
            traces: total as u64,
            peak_set: 0,
            spans: no_spans,
        },
    ])
}
