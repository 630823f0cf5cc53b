//! The [`Collector`]/[`Span`] core: scoped spans with parent ids,
//! monotonic timestamps, and key=value fields, recorded into a bounded
//! in-memory ring buffer.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{Histogram, MetricsSnapshot, SpanStat};

/// Default capacity of the finished-span ring buffer.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 8192;

/// One typed field value attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counters, sizes).
    Uint(u64),
    /// A string (names, keys, rendered judgements).
    Str(String),
    /// A boolean flag.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Int(v) => v.fmt(f),
            FieldValue::Uint(v) => v.fmt(f),
            FieldValue::Str(v) => v.fmt(f),
            FieldValue::Bool(v) => v.fmt(f),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Uint(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Uint(v as u64)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// A finished span, as stored in the ring buffer and the JSONL log.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (per collector) span id; ids are allocated in *open*
    /// order, records appear in *close* order.
    pub id: u64,
    /// The id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// The span's name — a stable, dot-separated taxonomy entry
    /// (`fixpoint.iter`, `proof.rule`, `run.round`, …).
    pub name: String,
    /// Nanoseconds since the collector's epoch at open.
    pub start_ns: u64,
    /// Nanoseconds since the collector's epoch at close.
    pub end_ns: u64,
    /// Key=value fields recorded while the span was open.
    pub fields: Vec<(String, FieldValue)>,
}

impl SpanRecord {
    /// The span's wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Mutable collector state behind one mutex.
#[derive(Debug, Default)]
struct State {
    records: VecDeque<SpanRecord>,
    dropped: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    span_stats: BTreeMap<String, SpanStat>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    capacity: usize,
    state: Mutex<State>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_record(&self, record: SpanRecord) {
        let duration = record.duration_ns();
        let mut state = self.state.lock().expect("collector state");
        let stat = state.span_stats.entry(record.name.clone()).or_default();
        stat.count += 1;
        stat.total_ns += duration;
        stat.max_ns = stat.max_ns.max(duration);
        if state.records.len() >= self.capacity {
            state.records.pop_front();
            state.dropped += 1;
        }
        state.records.push_back(record);
    }
}

/// A handle to one observation stream. Cloning shares the stream;
/// [`Collector::disabled`] is a no-op handle whose every operation costs
/// one branch.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl Collector {
    /// An active collector with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An active collector keeping at most `capacity` finished spans
    /// (older spans are evicted and counted in [`dropped`](Self::dropped);
    /// counters and aggregates keep the full totals).
    pub fn with_capacity(capacity: usize) -> Self {
        Collector {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                capacity: capacity.max(1),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// The no-op collector: every span is a null guard, every counter
    /// update a single branch. This is the default everywhere.
    pub fn disabled() -> Self {
        Collector { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The guard records itself when dropped.
    pub fn span(&self, name: &'static str) -> Span {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Span {
        match &self.inner {
            None => Span(None),
            Some(inner) => {
                let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                Span(Some(SpanInner {
                    collector: Arc::clone(inner),
                    id,
                    parent,
                    name,
                    start_ns: inner.now_ns(),
                    fields: Vec::new(),
                }))
            }
        }
    }

    /// Adds `delta` to a named counter, saturating at `u64::MAX`. The
    /// name converts lazily, so a disabled collector never allocates.
    pub fn add(&self, counter: impl Into<String>, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().expect("collector state");
            let count = state.counters.entry(counter.into()).or_insert(0);
            *count = count.saturating_add(delta);
        }
    }

    /// Records one observation (in nanoseconds) into a named
    /// fixed-bucket histogram.
    pub fn observe_ns(&self, histogram: &'static str, ns: u64) {
        if let Some(inner) = &self.inner {
            let mut state = inner.state.lock().expect("collector state");
            state.histograms.entry(histogram).or_default().record(ns);
        }
    }

    /// The finished spans currently held by the ring buffer, oldest
    /// first (i.e. in close order).
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner
                .state
                .lock()
                .expect("collector state")
                .records
                .iter()
                .cloned()
                .collect(),
        }
    }

    /// Number of finished spans evicted from the ring buffer.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => inner.state.lock().expect("collector state").dropped,
        }
    }

    /// Aggregates counters, histograms, and per-span-name timing stats
    /// into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        if let Some(inner) = &self.inner {
            let state = inner.state.lock().expect("collector state");
            for (k, v) in &state.counters {
                snap.counters.insert(k.clone(), *v);
            }
            for (k, h) in &state.histograms {
                snap.histograms.insert((*k).to_string(), h.clone());
            }
            snap.spans = state.span_stats.clone();
        }
        snap
    }

    /// Serialises the ring buffer as JSONL (one span per line). When
    /// the ring overflowed, the log ends with a `{"dropped":N}` marker
    /// so consumers can tell a complete log from a truncated one.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        crate::jsonl::write_jsonl_with_dropped(&self.records(), self.dropped(), w)
    }

    /// Renders the ring buffer as a Chrome trace-event / Perfetto JSON
    /// document (see [`crate::chrome_trace`]).
    pub fn chrome_trace(&self) -> String {
        crate::chrome_trace(&self.records())
    }

    /// Renders the ring buffer as flamegraph-style folded stacks.
    pub fn folded_stacks(&self) -> String {
        crate::folded_stacks(&self.records())
    }
}

/// The live half of a span. Construction is [`Collector::span`] or
/// [`Span::child`]; the span records itself into the collector's ring
/// buffer on drop (or explicitly via [`Span::end`]).
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    collector: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Opens a child span of this one (on the same collector). A child
    /// of a disabled span is disabled.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.0 {
            None => Span(None),
            Some(inner) => Collector {
                inner: Some(Arc::clone(&inner.collector)),
            }
            .open(name, Some(inner.id)),
        }
    }

    /// Attaches (or appends) a key=value field.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key, value.into()));
        }
    }

    /// The span id, when recording. Stable within a collector.
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|i| i.id)
    }

    /// Whether the span records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let end_ns = inner.collector.now_ns();
            inner.collector.push_record(SpanRecord {
                id: inner.id,
                parent: inner.parent,
                name: inner.name.to_string(),
                start_ns: inner.start_ns,
                end_ns,
                fields: inner
                    .fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_is_inert() {
        let c = Collector::disabled();
        let mut s = c.span("anything");
        s.record("k", 1i64);
        let child = s.child("inner");
        assert!(!child.is_enabled());
        drop(child);
        drop(s);
        c.add("counter", 5);
        c.observe_ns("h", 100);
        assert!(c.records().is_empty());
        assert_eq!(c.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let c = Collector::new();
        let root = c.span("root");
        let mid = root.child("mid");
        let leaf = mid.child("leaf");
        drop(leaf);
        drop(mid);
        drop(root);
        let r = c.records();
        assert_eq!(
            r.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["leaf", "mid", "root"]
        );
        // Parent links form the chain root <- mid <- leaf.
        assert_eq!(r[0].parent, Some(r[1].id));
        assert_eq!(r[1].parent, Some(r[2].id));
        assert_eq!(r[2].parent, None);
        // Timestamps are monotonic and properly nested.
        assert!(r[0].start_ns >= r[1].start_ns);
        assert!(r[0].end_ns <= r[1].end_ns);
        assert!(r[1].end_ns <= r[2].end_ns);
    }

    #[test]
    fn sibling_spans_share_a_parent_and_order_by_close() {
        let c = Collector::new();
        let root = c.span("root");
        let a = root.child("a");
        let b = root.child("b");
        drop(b); // b closes first
        drop(a);
        drop(root);
        let r = c.records();
        assert_eq!(
            r.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            ["b", "a", "root"]
        );
        assert_eq!(r[0].parent, r[1].parent);
        assert_eq!(r[0].parent, Some(r[2].id));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let c = Collector::with_capacity(3);
        for _ in 0..5 {
            c.span("s").end();
        }
        assert_eq!(c.records().len(), 3);
        assert_eq!(c.dropped(), 2);
        // Aggregates keep the full totals regardless of eviction.
        assert_eq!(c.snapshot().spans["s"].count, 5);
    }

    /// Overflow end-to-end: exact `dropped()` accounting, the JSONL
    /// `{"dropped":N}` marker, and a well-formed Chrome export even
    /// though the surviving children reference a parent (the still-open
    /// root) that is not in the buffer.
    #[test]
    fn ring_overflow_is_reported_by_every_sink() {
        let c = Collector::with_capacity(4);
        let root = c.span("root");
        for _ in 0..10 {
            root.child("work").end();
        }
        assert_eq!(c.records().len(), 4);
        assert_eq!(c.dropped(), 6);

        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_end().ends_with("{\"dropped\":6}"), "{text}");
        let (records, dropped) = crate::parse_jsonl_with_dropped(&text).unwrap();
        assert_eq!(records, c.records());
        assert_eq!(dropped, 6);

        let chrome = c.chrome_trace();
        let doc = crate::parse_json(&chrome).expect("well-formed trace JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 4 + 1, "four spans plus process metadata");
        drop(root);
    }

    #[test]
    fn fields_are_kept_in_record_order() {
        let c = Collector::new();
        let mut s = c.span("s");
        s.record("first", 1i64);
        s.record("second", "two");
        s.record("third", true);
        s.end();
        let r = c.records().pop().unwrap();
        assert_eq!(r.fields.len(), 3);
        assert_eq!(r.field("second"), Some(&FieldValue::Str("two".into())));
        assert_eq!(r.fields[0].0, "first");
        assert_eq!(r.fields[2].1, FieldValue::Bool(true));
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let c = Collector::new();
        let c2 = c.clone();
        c.add("n", 2);
        c2.add("n", 3);
        assert_eq!(c.snapshot().counter("n"), 5);
    }

    #[test]
    fn spans_can_cross_threads() {
        let c = Collector::new();
        let root = c.span("root");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let root = &root;
                scope.spawn(move || {
                    let mut s = root.child("worker");
                    s.record("ok", true);
                });
            }
        });
        drop(root);
        let r = c.records();
        assert_eq!(r.len(), 5);
        assert_eq!(r.iter().filter(|s| s.name == "worker").count(), 4);
        let root_id = r.iter().find(|s| s.name == "root").unwrap().id;
        assert!(r
            .iter()
            .filter(|s| s.name == "worker")
            .all(|s| s.parent == Some(root_id)));
    }
}
