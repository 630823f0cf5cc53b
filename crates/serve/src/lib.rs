//! # csp-serve
//!
//! `csp serve` — a persistent verification service over the
//! [`Workbench`]: the CLI's `lint` / `check` / `prove` / `run` /
//! `profile` verbs exposed as HTTP endpoints with the same
//! `{"schema":"csp/v1",…}` envelope, plus `/healthz`, `/metrics`
//! (Prometheus text exposition) and `/v1/trace` (Chrome trace-event
//! JSON of the server's own span stream).
//!
//! The `csp/v1` layer that the CLI shares lives here too: the workbench
//! [`ModuleOptions`] build, the [`envelope`], the `data` of check
//! ([`check_data`]), prove ([`ProveOutcome`]) and run ([`run_data`]),
//! and profile's [`verify_phase`]. One query answers the same `data`
//! from `csp --json` and from the endpoints.
//!
//! The point of staying resident is the **cross-request cache**: every
//! verification verdict is a pure function of its request body, so
//! results are keyed by a hash of the decoded request and replayed for
//! identical requests. The hash is a `#[derive(Hash)]` over the decoded
//! fields, fed to one randomly keyed `RandomState` per server, so a
//! colliding request cannot be searched for offline. Three reuse
//! layers, cheapest first:
//!
//! 1. rendered responses — a repeated request costs one hash and one
//!    map lookup;
//! 2. one [`AnalysisDb`] per module and bindings — an *edited* re-lint
//!    pays only for the definitions whose content hash moved;
//! 3. one parsed [`Workbench`] per source and [`ModuleOptions`], shared
//!    as an `Arc` by every request over it (handlers only read it) — a
//!    new query over known source skips the parse.
//!
//! Nothing is ever *invalidated*: a key covers everything its entry
//! depends on, so a stale entry is unreachable by construction and
//! eviction is plain LRU.
//!
//! The server itself is a bounded worker-thread model: one accept loop
//! feeding a channel, `workers` threads each running keep-alive
//! connections to completion. Worker width defaults to the host's
//! available parallelism, clamped to 2..=16. No hyper, no tokio — see
//! `DESIGN.md` §10 for why a ~200-line HTTP/1.1 subset is the right tool
//! here.
//!
//! ```no_run
//! let server = csp_serve::CspServer::bind(&csp_serve::ServeConfig {
//!     addr: "127.0.0.1:0".to_string(),
//!     ..csp_serve::ServeConfig::default()
//! })?;
//! let handle = server.spawn()?;
//! let mut client = csp_serve::Client::connect(&handle.url())?;
//! let resp = client.post("/v1/lint", r#"{"source":"p = c!0 -> p"}"#)?;
//! assert_eq!(resp.status, 200);
//! handle.stop();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod handlers;
pub mod http;
mod lru;
mod v1;

pub use client::{Client, ClientResponse};
pub use v1::{
    check_data, diagnostic_json, envelope, render_failures, render_json, render_monitor,
    render_parse_errors, render_supervision, run_data, set_value, verify_phase, ModuleOptions,
    ProveOutcome,
};

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csp_core::obs::MetricsSnapshot;
use csp_core::{AnalysisDb, Collector, Workbench};

use crate::lru::Lru;

/// How long a worker blocks in one socket read before re-checking the
/// stop flag; bounds shutdown latency for idle keep-alive connections.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Pooled lint databases retained across requests (per distinct
/// `(module, bindings)` identity).
const LINT_DB_CAP: usize = 32;

/// Parsed workbenches retained across requests (per distinct
/// `(source, ModuleOptions)`).
const WB_CAP: usize = 64;

/// Server configuration, mirrored by `csp serve`'s flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7017` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads answering requests.
    pub workers: usize,
    /// Rendered responses the cross-request cache retains (0 disables).
    pub cache_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7017".to_string(),
            workers: default_workers(),
            cache_cap: 1024,
        }
    }
}

/// The default worker width: the host's available parallelism, clamped
/// to [2, 16].
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, usize::from)
        .clamp(2, 16)
}

/// Everything the handlers share across requests: the collector feeding
/// `/metrics` and `/v1/trace`, the three reuse layers, and uptime.
#[derive(Debug)]
pub struct ServeState {
    collector: Collector,
    /// The keyed hasher every cache key is derived with.
    keys: RandomState,
    responses: Mutex<Lru<Arc<str>>>,
    workbenches: Mutex<Lru<Arc<Workbench>>>,
    lint_dbs: Mutex<Lru<AnalysisDb>>,
    started: Instant,
    workers: usize,
}

impl ServeState {
    /// Fresh state with a response cache of `cache_cap` entries.
    pub fn new(cache_cap: usize, workers: usize) -> Self {
        ServeState {
            collector: Collector::new(),
            keys: RandomState::new(),
            responses: Mutex::new(Lru::new(cache_cap)),
            workbenches: Mutex::new(Lru::new(WB_CAP)),
            lint_dbs: Mutex::new(Lru::new(LINT_DB_CAP)),
            started: Instant::now(),
            workers,
        }
    }

    /// The server's collector (spans, counters, histograms).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Time since the state was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Configured worker width (reported by `/healthz`).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Answers one request. Exposed so tests (and the property tests in
    /// particular) can drive the full handler stack — cache, counters,
    /// envelopes — without sockets.
    pub fn respond(&self, req: &http::Request) -> http::Response {
        handlers::respond(self, req)
    }

    /// Convenience for handler-level tests: POSTs `body` to `path`.
    pub fn post(&self, path: &str, body: &str) -> http::Response {
        self.respond(&http::Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        })
    }

    /// The `/metrics` snapshot: the collector's aggregates plus the
    /// cache gauge.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.collector.snapshot();
        snap.set_counter("serve.cache.entries", self.cached_responses() as u64);
        snap.set_counter("serve.workers", self.workers as u64);
        snap.set_counter("obs.events_dropped", self.collector.dropped());
        snap
    }

    /// The key of `value` under this server's hasher.
    fn key(&self, value: impl Hash) -> u64 {
        self.keys.hash_one(value)
    }

    fn cached_responses(&self) -> usize {
        self.responses.lock().expect("response cache lock").len()
    }

    fn cached_response(&self, key: u64) -> Option<Arc<str>> {
        let mut responses = self.responses.lock().expect("response cache lock");
        responses.get(key).cloned()
    }

    /// Stores a rendered response. Concurrent misses of one key may
    /// both compute and insert; the last write wins, and both carry the
    /// same answer, since the key covers every input.
    fn cache_response(&self, key: u64, body: Arc<str>) {
        let mut responses = self.responses.lock().expect("response cache lock");
        responses.insert(key, body);
    }

    /// The workbench of `source` under `options`: the shared one when
    /// it is retained (`serve.pool.reuses`), else built outside the lock
    /// and retained (`serve.pool.builds`).
    fn workbench(&self, source: &str, options: &ModuleOptions) -> Result<Arc<Workbench>, String> {
        let key = self.key((source, options));
        let shared = self
            .workbenches
            .lock()
            .expect("workbench lock")
            .get(key)
            .cloned();
        if let Some(wb) = shared {
            self.collector.add("serve.pool.reuses", 1);
            return Ok(wb);
        }
        self.collector.add("serve.pool.builds", 1);
        let wb = Arc::new(options.workbench(source)?);
        let mut workbenches = self.workbenches.lock().expect("workbench lock");
        workbenches.insert(key, Arc::clone(&wb));
        Ok(wb)
    }

    fn take_lint_db(&self, key: u64) -> Option<AnalysisDb> {
        self.lint_dbs.lock().expect("lint-db lock").take(key)
    }

    fn put_lint_db(&self, key: u64, db: AnalysisDb) {
        self.lint_dbs.lock().expect("lint-db lock").insert(key, db);
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct CspServer {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
}

impl CspServer {
    /// Binds the configured address (without accepting yet).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission).
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<CspServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let workers = cfg.workers.max(1);
        Ok(CspServer {
            listener,
            state: Arc::new(ServeState::new(cfg.cache_cap, workers)),
            workers,
        })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shared handle on the server's state (metrics, cache).
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Runs the accept loop on the calling thread until `stop` is
    /// raised (see [`CspServer::spawn`] for the detached form). The
    /// loop only observes `stop` when `accept` returns, so a stopper
    /// must also poke the listener with one throwaway connection —
    /// [`ServerHandle::stop`] does exactly that.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors; per-connection errors only
    /// drop that connection.
    pub fn run_until(self, stop: &AtomicBool) -> std::io::Result<()> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.workers * 4);
        let rx = Mutex::new(rx);
        let state = &self.state;
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| worker_loop(state, &rx, stop));
            }
            accept_loop(&self.listener, &tx, stop);
            // Dropping the sender lets idle workers drain out.
            drop(tx);
        });
        Ok(())
    }

    /// Runs forever on the calling thread (the `csp serve` entry).
    ///
    /// # Errors
    ///
    /// As for [`CspServer::run_until`].
    pub fn run(self) -> std::io::Result<()> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.run_until(&NEVER)
    }

    /// Runs the server on a background thread, returning a handle that
    /// can stop it. Used by tests and the bench load driver's
    /// `--serve spawn` mode.
    ///
    /// # Errors
    ///
    /// Propagates the address query failure.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let state = self.state();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || self.run_until(&flag));
        Ok(ServerHandle {
            addr,
            state,
            stop,
            thread,
        })
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Relaxed) {
                    return; // the wake-up connection itself is dropped
                }
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                // Responses go out as one coalesced write; without
                // NODELAY, Nagle holds the tail segment for the
                // client's delayed ACK (~40 ms on every response).
                let _ = stream.set_nodelay(true);
                // Blocks when every worker is busy and the queue is
                // full: accept backpressure instead of unbounded memory.
                if tx.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                if stop.load(Relaxed) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // keep serving.
            }
        }
    }
}

/// One worker: pulls connections off the shared channel and runs each
/// keep-alive session to completion.
fn worker_loop(state: &ServeState, rx: &Mutex<Receiver<TcpStream>>, stop: &AtomicBool) {
    loop {
        if stop.load(Relaxed) {
            return;
        }
        // Holding the lock across the blocking recv is deliberate: it
        // serialises *waiting* workers (one wakes per connection), and
        // the sender side being dropped unblocks them all at shutdown.
        let next = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = next else { return };
        handle_connection(state, stream, stop);
    }
}

fn handle_connection(state: &ServeState, stream: TcpStream, stop: &AtomicBool) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match http::read_request(&mut reader, || !stop.load(Relaxed)) {
            Ok(Some(req)) => {
                let resp = handlers::respond(state, &req);
                let keep_alive = req.keep_alive && !stop.load(Relaxed);
                if http::write_response(&mut write_half, &resp, keep_alive).is_err() {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            Ok(None) => return, // peer closed, stalled out, or shutdown
            Err(message) => {
                // Malformed request: answer 400 and close.
                let data = format!("{{\"error\":{}}}", csp_core::obs::json_string(&message));
                let resp = http::Response::json(400, envelope("serve.error", &data));
                let _ = http::write_response(&mut write_half, &resp, false);
                return;
            }
        }
    }
}

/// A running background server (from [`CspServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The server's base URL, e.g. `http://127.0.0.1:49152`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (metrics, cache, collector).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops the server and joins every thread: raises the stop flag,
    /// wakes the accept loop with a throwaway connection, and waits for
    /// in-flight requests to finish.
    pub fn stop(self) {
        self.stop.store(true, Relaxed);
        // Wake the (blocking) accept call so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "copier = input?x:NAT -> wire!x -> copier
                       recopier = wire?y:NAT -> output!y -> recopier
                       pipeline = chan wire; (copier || recopier)";

    fn body(extra: &str) -> String {
        format!("{{\"source\":{:?}{extra}}}", SRC)
    }

    #[test]
    fn lint_misses_then_hits() {
        let state = ServeState::new(64, 2);
        let cold = state.post("/v1/lint", &body(""));
        assert_eq!(
            cold.status,
            200,
            "{:?}",
            String::from_utf8_lossy(&cold.body)
        );
        assert!(header(&cold, "X-Csp-Cache") == Some("miss"));
        let warm = state.post("/v1/lint", &body(""));
        assert_eq!(header(&warm, "X-Csp-Cache"), Some("hit"));
        assert_eq!(cold.body, warm.body, "hit must be byte-identical");
        let m = state.metrics();
        assert_eq!(m.counter("serve.requests"), 2);
        assert_eq!(m.counter("serve.cache.hit"), 1);
        assert_eq!(m.counter("serve.cache.miss"), 1);
    }

    #[test]
    fn check_prove_run_profile_round_trip() {
        let state = ServeState::new(64, 2);
        let check = state.post(
            "/v1/check",
            &body(",\"process\":\"pipeline\",\"assertion\":\"output <= input\",\"depth\":3,\"nat_bound\":1"),
        );
        let text = String::from_utf8_lossy(&check.body).into_owned();
        assert_eq!(check.status, 200, "{text}");
        assert!(text.contains("\"holds\":true"), "{text}");

        let prove = state.post(
            "/v1/prove",
            &body(",\"specs\":[{\"process\":\"copier\",\"assertion\":\"wire <= input\"}],\"nat_bound\":1"),
        );
        let text = String::from_utf8_lossy(&prove.body).into_owned();
        assert!(text.contains("\"proved\":true"), "{text}");

        let run = state.post(
            "/v1/run",
            &body(",\"process\":\"pipeline\",\"steps\":12,\"seed\":3,\"nat_bound\":1"),
        );
        let text = String::from_utf8_lossy(&run.body).into_owned();
        assert_eq!(run.status, 200, "{text}");
        assert_eq!(header(&run, "X-Csp-Cache"), Some("bypass"));

        let profile = state.post("/v1/profile", &body(",\"depth\":3,\"nat_bound\":1"));
        let text = String::from_utf8_lossy(&profile.body).into_owned();
        assert!(text.contains("\"name\":\"fixpoint\""), "{text}");

        // Counter invariant: hit + miss + bypass == requests.
        let m = state.metrics();
        assert_eq!(
            m.counter("serve.cache.hit")
                + m.counter("serve.cache.miss")
                + m.counter("serve.cache.bypass"),
            m.counter("serve.requests"),
        );
        // The parsed workbench was shared across check/prove/run/profile.
        let reuses = m.counter("serve.pool.reuses");
        assert!(reuses >= 2, "reuses = {reuses}");
    }

    #[test]
    fn bad_requests_classify_as_bypass_or_miss() {
        let state = ServeState::new(64, 2);
        let bad_json = state.post("/v1/check", "{nope");
        assert_eq!(bad_json.status, 400);
        assert_eq!(header(&bad_json, "X-Csp-Cache"), Some("bypass"));
        let bad_process = state.post("/v1/check", &body(",\"assertion\":\"output <= input\""));
        assert_eq!(bad_process.status, 400);
        assert_eq!(header(&bad_process, "X-Csp-Cache"), Some("miss"));
        // 2^32 + 1 does not fit the NAT bound: rejected, not wrapped to 1.
        let wide_nat = state.post(
            "/v1/check",
            &body(",\"process\":\"pipeline\",\"assertion\":\"output <= input\",\"depth\":3,\"nat_bound\":4294967297"),
        );
        assert_eq!(wide_nat.status, 400);
        assert_eq!(header(&wide_nat, "X-Csp-Cache"), Some("bypass"));
        let m = state.metrics();
        assert_eq!(m.counter("serve.errors"), 3);
        assert_eq!(
            m.counter("serve.cache.bypass") + m.counter("serve.cache.miss"),
            m.counter("serve.requests"),
        );
    }

    /// The verify phase of `/v1/profile` checks its claim; a network's
    /// check runs on the compiled arena, so the arena's counters move.
    #[test]
    fn profile_checks_its_claim() {
        let state = ServeState::new(64, 2);
        let profile = state.post(
            "/v1/profile",
            &body(",\"process\":\"pipeline\",\"assertion\":\"output <= input\",\"depth\":3,\"nat_bound\":1"),
        );
        let text = String::from_utf8_lossy(&profile.body).into_owned();
        assert_eq!(profile.status, 200, "{text}");
        assert!(text.contains("\"name\":\"verify\""), "{text}");
        assert!(state.metrics().counter("satcheck.states") > 0, "{text}");
    }

    #[test]
    fn e2e_over_tcp_with_keep_alive() {
        let server = CspServer::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_cap: 64,
        })
        .unwrap();
        let state = server.state();
        let handle = server.spawn().unwrap();
        let mut client = Client::connect(&handle.url()).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""));

        // Two lints over one keep-alive connection: miss then hit.
        let cold = client.post("/v1/lint", &body("")).unwrap();
        let warm = client.post("/v1/lint", &body("")).unwrap();
        assert_eq!(cold.header("X-Csp-Cache"), Some("miss"));
        assert_eq!(warm.header("X-Csp-Cache"), Some("hit"));
        assert_eq!(cold.body, warm.body);

        let metrics = client.get("/metrics").unwrap();
        assert!(metrics.body.contains("serve.requests"), "{}", metrics.body);
        let trace = client.get("/v1/trace").unwrap();
        assert!(trace.body.contains("traceEvents"));

        let missing = client.get("/v1/nope").unwrap();
        assert_eq!(missing.status, 404);
        let wrong_method = client.get("/v1/lint").unwrap();
        assert_eq!(wrong_method.status, 405);

        handle.stop();
        assert_eq!(state.metrics().counter("serve.requests"), 2);
    }

    fn header<'r>(resp: &'r http::Response, name: &str) -> Option<&'r str> {
        resp.extra
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}
