//! An observed [`Session`] over a [`Workbench`]: the same verification
//! entry points, with every operation recorded into one shared
//! [`Collector`].
//!
//! A session is the observability counterpart of the workbench's
//! stateless methods. Opening one (via [`Workbench::session`]) pins a
//! collector and snapshots the process-global trace-operation counters
//! ([`csp_trace::OpStats`]); every call made through the session then
//! feeds the same span stream, and [`Session::metrics`] folds three
//! sources into one [`MetricsSnapshot`]:
//!
//! * the collector's own counters, histograms, and span timings;
//! * the per-result tallies each call already returns (via
//!   [`Metered`](csp_obs::Metered));
//! * the `trace.*` deltas of the global interner/operator counters
//!   since the session opened.

use csp_obs::{Collector, MetricsSnapshot, SpanRecord};
use csp_proof::{CheckReport, Judgement, Proof};
use csp_runtime::{ConformanceReport, RunOptions, RunResult};
use csp_semantics::FixpointRun;
use csp_trace::OpStats;
use csp_verify::{FaultConformance, FaultSweep, SatResult};

use crate::options::SatOptions;
use crate::workbench::{Workbench, WorkbenchError};

/// One observed verification session. Created by
/// [`Workbench::session`]; borrows the workbench immutably, so several
/// sessions can coexist (sharing or separating their collectors).
///
/// ```
/// use csp_core::Workbench;
///
/// let mut wb = Workbench::new();
/// wb.define_source(
///     "copier = input?x:NAT -> wire!x -> copier
///      recopier = wire?y:NAT -> output!y -> recopier
///      pipeline = chan wire; (copier || recopier)",
/// ).unwrap();
/// let session = wb.session();
/// assert!(session.check_sat("pipeline", "output <= input", 3).unwrap().holds());
/// let metrics = session.metrics();
/// assert!(metrics.counter("satcheck.moments") > 0);
/// assert!(metrics.spans.contains_key("satcheck"));
/// ```
#[derive(Debug)]
pub struct Session<'wb> {
    wb: &'wb Workbench,
    collector: Collector,
    baseline: OpStats,
}

impl<'wb> Session<'wb> {
    pub(crate) fn new(wb: &'wb Workbench, collector: Collector) -> Self {
        Session {
            wb,
            collector,
            baseline: OpStats::snapshot(),
        }
    }

    /// The workbench this session observes.
    pub fn workbench(&self) -> &'wb Workbench {
        self.wb
    }

    /// The session's collector handle (cloning shares the stream).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Bounded model checking of `name sat assertion`, recorded under
    /// the `satcheck` span family.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::check_sat`].
    pub fn check_sat(
        &self,
        name: &str,
        assertion_src: &str,
        opts: impl Into<SatOptions>,
    ) -> Result<SatResult, WorkbenchError> {
        self.wb
            .check_sat_with(name, assertion_src, &opts.into(), &self.collector)
    }

    /// Checks a proof tree, recording one `proof.rule` span per rule
    /// application.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::prove`].
    pub fn prove(&self, goal: &Judgement, proof: &Proof) -> Result<CheckReport, WorkbenchError> {
        self.wb.prove_with(goal, proof, &self.collector)
    }

    /// Synthesises and checks a joint-recursion proof (see
    /// [`Workbench::prove_auto`]), recording the check's rule spans.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::prove_auto`].
    pub fn prove_auto(&self, specs: &[(&str, &str)]) -> Result<CheckReport, WorkbenchError> {
        self.wb.prove_auto_with(specs, &self.collector)
    }

    /// Executes the named process, recording per-round `run.round`
    /// spans, scheduler picks, and fault injections. The session's
    /// collector replaces whatever `opts.collector` held.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::run`].
    pub fn run(&self, name: &str, opts: RunOptions) -> Result<RunResult, WorkbenchError> {
        self.wb.run(
            name,
            RunOptions {
                collector: self.collector.clone(),
                ..opts
            },
        )
    }

    /// Verifies a recorded run against the semantics and invariants.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::conformance`].
    pub fn conformance(
        &self,
        name: &str,
        result: &RunResult,
        invariants: impl IntoIterator<Item: AsRef<str>>,
    ) -> Result<ConformanceReport, WorkbenchError> {
        self.wb.conformance(name, result, invariants)
    }

    /// Sweeps the named network over seeds × fault plans (see
    /// [`Workbench::fault_conformance`]).
    ///
    /// # Errors
    ///
    /// As for [`Workbench::fault_conformance`].
    pub fn fault_conformance(
        &self,
        name: &str,
        invariants: impl IntoIterator<Item: AsRef<str>>,
        sweep: &FaultSweep,
    ) -> Result<FaultConformance, WorkbenchError> {
        self.wb.fault_conformance(name, invariants, sweep)
    }

    /// Bounded trace refinement (see [`Workbench::refines`]).
    ///
    /// # Errors
    ///
    /// As for [`Workbench::refines`].
    pub fn refines(
        &self,
        implementation: &str,
        specification: &str,
        opts: impl Into<SatOptions>,
    ) -> Result<Result<(), csp_trace::Trace>, WorkbenchError> {
        self.wb.refines(implementation, specification, opts)
    }

    /// Bounded deadlock search (see [`Workbench::deadlocks`]).
    ///
    /// # Errors
    ///
    /// As for [`Workbench::deadlocks`].
    pub fn deadlocks(
        &self,
        name: &str,
        depth: usize,
    ) -> Result<csp_verify::DeadlockReport, WorkbenchError> {
        self.wb.deadlocks(name, depth)
    }

    /// Runs the paper's fixpoint construction, recording per-iteration
    /// and per-key spans plus the `fixpoint.iter_ns` histogram.
    ///
    /// # Errors
    ///
    /// As for [`Workbench::fixpoint`].
    pub fn fixpoint(&self, depth: usize, max_iters: usize) -> Result<FixpointRun, WorkbenchError> {
        self.wb.fixpoint_with(depth, max_iters, &self.collector)
    }

    /// Everything observed so far: the collector's aggregates plus the
    /// `trace.*` operation counters accumulated process-wide since this
    /// session opened (`trace.unions`, `trace.intern_hits`,
    /// `trace.intern_hit_rate_pct`, …).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.collector.snapshot();
        let ops = OpStats::snapshot().delta(&self.baseline);
        snap.set_counter("trace.unions", ops.unions);
        snap.set_counter("trace.union_out_traces", ops.union_out_traces);
        snap.set_counter("trace.parallels", ops.parallels);
        snap.set_counter("trace.parallel_out_traces", ops.parallel_out_traces);
        snap.set_counter("trace.hides", ops.hides);
        snap.set_counter("trace.hide_out_traces", ops.hide_out_traces);
        snap.set_counter("trace.intern_hits", ops.intern_hits);
        snap.set_counter("trace.intern_misses", ops.intern_misses);
        snap.set_counter("trace.intern_hit_rate_pct", ops.intern_hit_rate_pct());
        // Ring-buffer overflow is otherwise only visible in JSONL; the
        // snapshot carries it so Prometheus can expose it as a gauge.
        snap.set_counter("obs.events_dropped", self.collector.dropped());
        snap
    }

    /// The finished spans currently held by the collector's ring buffer
    /// (close order; empty for a disabled collector).
    pub fn events(&self) -> Vec<SpanRecord> {
        self.collector.records()
    }

    /// Number of spans evicted from the ring buffer so far.
    pub fn dropped(&self) -> u64 {
        self.collector.dropped()
    }

    /// Writes the span ring buffer as JSONL (one span per line).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_trace_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.collector.write_jsonl(w)
    }

    /// Renders the recorded spans as flamegraph-style folded stacks.
    pub fn folded_stacks(&self) -> String {
        self.collector.folded_stacks()
    }

    /// Renders the recorded spans as a Chrome trace-event / Perfetto
    /// JSON document, loadable in `chrome://tracing` or
    /// <https://ui.perfetto.dev>.
    pub fn chrome_trace(&self) -> String {
        self.collector.chrome_trace()
    }

    /// Renders [`Session::metrics`] in the Prometheus text exposition
    /// format (counters, cumulative-`le` histogram buckets, span
    /// stats).
    pub fn prometheus(&self) -> String {
        csp_obs::render_prometheus(&self.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_runtime::Scheduler;
    use csp_semantics::Universe;

    fn pipeline_wb() -> Workbench {
        let mut wb = Workbench::new().with_universe(Universe::new(1));
        wb.define_source(csp_lang::examples::PIPELINE_SRC).unwrap();
        wb
    }

    #[test]
    fn session_records_satcheck_spans_and_trace_deltas() {
        let wb = pipeline_wb();
        let session = wb.session();
        assert!(session
            .check_sat("pipeline", "output <= input", 3)
            .unwrap()
            .holds());
        let m = session.metrics();
        assert!(m.spans.contains_key("satcheck"));
        assert!(m.spans.contains_key("satcheck.explore"));
        assert!(m.counter("satcheck.moments") > 0);
        // Exploring the pipeline exercises the interner.
        assert!(m.counter("trace.intern_hits") + m.counter("trace.intern_misses") > 0);
        assert!(m.counter("trace.intern_hit_rate_pct") <= 100);
        // The span stream is live too.
        assert!(session.events().iter().any(|s| s.name == "satcheck"));
    }

    #[test]
    fn session_run_threads_the_collector() {
        let wb = pipeline_wb();
        let session = wb.session();
        let res = session
            .run(
                "pipeline",
                RunOptions {
                    max_steps: 12,
                    scheduler: Scheduler::seeded(3),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        assert!(res.steps > 0);
        let m = session.metrics();
        assert!(m.spans.contains_key("run"));
        assert!(m.spans.contains_key("run.round"));
        assert!(m.counter("run.scheduler_picks") > 0);
    }

    #[test]
    fn session_fixpoint_records_iterations() {
        let wb = pipeline_wb();
        let session = wb.session();
        let run = session.fixpoint(4, 16).unwrap();
        assert!(run.converged_at.is_some());
        let m = session.metrics();
        assert!(m.spans.contains_key("fixpoint.iter"));
        assert!(m.histograms.contains_key("fixpoint.iter_ns"));
        assert_eq!(
            m.counter("fixpoint.iterations"),
            run.converged_at.unwrap() as u64 + 1
        );
    }

    #[test]
    fn disabled_session_still_verifies() {
        let wb = pipeline_wb();
        let session = wb.session_with(Collector::disabled());
        assert!(session
            .check_sat("pipeline", "output <= input", 3)
            .unwrap()
            .holds());
        assert!(session.events().is_empty());
        // Only the trace.* deltas survive — there are no spans.
        let m = session.metrics();
        assert!(m.spans.is_empty());
    }

    #[test]
    fn exporters_cover_the_session_stream() {
        let wb = pipeline_wb();
        let session = wb.session();
        session.fixpoint(3, 8).unwrap();
        let chrome = session.chrome_trace();
        let doc = csp_obs::parse_json(&chrome).expect("valid trace JSON");
        let events = doc
            .get("traceEvents")
            .and_then(csp_obs::JsonValue::as_array)
            .unwrap();
        // Every recorded span plus the process-name metadata event.
        assert_eq!(events.len(), session.events().len() + 1);
        // The trace.* counters are process-global deltas, so two
        // metrics() calls can disagree under parallel tests; compare
        // the exposition against one captured snapshot and sanity-check
        // the session helper separately.
        let m = session.metrics();
        let round_trip = csp_obs::parse_prometheus(&csp_obs::render_prometheus(&m)).unwrap();
        assert_eq!(round_trip, m);
        let prom = session.prometheus();
        let parsed = csp_obs::parse_prometheus(&prom).expect("valid exposition");
        assert!(parsed.spans.contains_key("fixpoint"));
    }

    #[test]
    fn folded_stacks_and_jsonl_cover_the_same_spans() {
        let wb = pipeline_wb();
        let session = wb.session();
        session.fixpoint(3, 8).unwrap();
        let folded = session.folded_stacks();
        assert!(folded.contains("fixpoint;fixpoint.iter"));
        let mut buf = Vec::new();
        session.write_trace_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), session.events().len());
    }
}
