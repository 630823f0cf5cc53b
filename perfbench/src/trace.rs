//! The traced run's recorder: benchmark-side spans around the calls into
//! each layer (kept in memory in a `csp-obs` collector that the program's
//! own instrumentation shares), per-layer accumulators, and allocation
//! counts per request class.

use std::collections::BTreeMap;
use std::time::Instant;

use csp_core::obs::{Collector, Span, SpanRecord};

use crate::alloc;

/// Spans kept for the exported trace; the per-name totals the metrics
/// use are aggregated by the collector and never evicted.
const RING_CAPACITY: usize = 1 << 17;

pub struct Tracer {
    pub collector: Collector,
    sums: BTreeMap<&'static str, f64>,
    allocs: BTreeMap<&'static str, (u64, u64)>,
    /// Traced passes completed.
    pub passes: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            collector: Collector::with_capacity(RING_CAPACITY),
            sums: BTreeMap::new(),
            allocs: BTreeMap::new(),
            passes: 0,
        }
    }

    /// Adds to a per-layer accumulator.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_insert(0.0) += value;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// An accumulator averaged over the traced passes.
    pub fn per_pass(&self, name: &str) -> f64 {
        self.sum(name) / self.passes.max(1) as f64
    }

    /// Opens the parent span of one request.
    pub fn request(&self, id: usize, class: &'static str) -> Span {
        let mut span = self.collector.span("bench.request");
        span.record("id", id);
        span.record("class", class);
        span
    }

    /// Runs `f` under a child span of `parent` and adds its wall time in
    /// milliseconds to the accumulator `metric`.
    pub fn timed<T>(
        &mut self,
        parent: &Span,
        span: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let child = parent.child(span);
        let t = Instant::now();
        let out = f();
        self.add(metric, t.elapsed().as_secs_f64() * 1e3);
        child.end();
        out
    }

    /// Total time of every finished span with this name (the program's
    /// own spans included), in milliseconds.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.collector
            .snapshot()
            .spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// A counter recorded into the collector by the program.
    pub fn counter(&self, name: &str) -> u64 {
        self.collector.snapshot().counter(name)
    }

    /// Charges the allocations since `before` to a request class.
    pub fn charge_allocs(&mut self, class: &'static str, before: (u64, u64)) {
        let (count, bytes) = alloc::totals();
        let e = self.allocs.entry(class).or_insert((0, 0));
        e.0 += count - before.0;
        e.1 += bytes - before.1;
    }

    /// Allocation totals over every class.
    pub fn alloc_totals(&self) -> (u64, u64) {
        self.allocs
            .values()
            .fold((0, 0), |(c, b), (dc, db)| (c + dc, b + db))
    }

    /// Per-class allocation table for the run summary.
    pub fn alloc_table(&self) -> String {
        let passes = self.passes.max(1);
        let mut out = String::from("class\tallocs/pass\tbytes/pass\n");
        for (class, (count, bytes)) in &self.allocs {
            out.push_str(&format!(
                "{class}\t{}\t{}\n",
                count / passes,
                bytes / passes
            ));
        }
        out
    }

    /// Self time per span name: its duration minus the part of it that
    /// its child spans cover, over the spans still held in the ring
    /// buffer. The program opens its spans as roots; each program root
    /// span counts as a child of the innermost benchmark (`bench.*`) span
    /// whose interval holds it, the call that led to it.
    pub fn self_times(&self) -> String {
        let records = self.collector.records();
        let is_bench = |r: &SpanRecord| r.name.starts_with("bench.");
        let bench: Vec<&SpanRecord> = records.iter().filter(|r| is_bench(r)).collect();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for r in &records {
            let parent = r.parent.or_else(|| {
                if is_bench(r) {
                    return None;
                }
                bench
                    .iter()
                    .filter(|b| b.start_ns <= r.start_ns && r.end_ns <= b.end_ns)
                    .min_by_key(|b| b.duration_ns())
                    .map(|b| b.id)
            });
            if let Some(p) = parent {
                children.entry(p).or_default().push((r.start_ns, r.end_ns));
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in &records {
            let covered = children
                .get_mut(&r.id)
                .map_or(0, |c| covered_ns(c, r.start_ns, r.end_ns));
            let e = by_name.entry(r.name.as_str()).or_insert((0, 0));
            e.0 += 1;
            e.1 += r.duration_ns().saturating_sub(covered);
        }
        let mut out = String::from("span\tcount\tself_ms\n");
        for (name, (count, ns)) in by_name {
            out.push_str(&format!("{name}\t{count}\t{:.3}\n", ns as f64 / 1e6));
        }
        out
    }
}

/// Nanoseconds of `start..end` covered by the union of `intervals`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
