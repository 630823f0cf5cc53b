//! # csp-obs
//!
//! Zero-dependency structured observability for the `hoare-csp` stack:
//! scoped [`Span`]s with parent ids and monotonic timestamps, process
//! counters and fixed-bucket [`Histogram`]s, an in-memory ring buffer of
//! finished spans, a JSONL event-log writer/reader, and a
//! flamegraph-style folded-stacks renderer.
//!
//! The design centre is the **disabled fast path**: a
//! [`Collector::disabled()`] is a `None` behind one pointer-sized
//! option, so instrumented hot loops pay a single branch and no
//! allocation, locking, or clock read. Every subsystem of the workbench
//! (semantics, proof, runtime, verify) threads a [`Collector`] through
//! its load-bearing loops and stays measurably free when observation is
//! off — the CI bench gate runs with collection enabled and must stay
//! within the ordinary noise tolerance.
//!
//! ```
//! use csp_obs::Collector;
//!
//! let c = Collector::new();
//! {
//!     let mut outer = c.span("fixpoint");
//!     outer.record("depth", 4i64);
//!     let _inner = outer.child("fixpoint.iter");
//!     c.add("fixpoint.memo_hits", 3);
//! } // spans record themselves on drop
//! let records = c.records();
//! assert_eq!(records.len(), 2);
//! // Children finish (and are recorded) before their parents.
//! assert_eq!(records[0].name, "fixpoint.iter");
//! assert_eq!(records[1].name, "fixpoint");
//! assert_eq!(records[0].parent, Some(records[1].id));
//! assert_eq!(c.snapshot().counter("fixpoint.memo_hits"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod folded;
mod json;
mod jsonl;
mod metrics;
mod prom;
mod span;

pub use chrome::{chrome_trace, chrome_trace_named};
pub use folded::folded_stacks;
pub use json::{json_string, parse_json, JsonError, JsonValue, MAX_JSON_DEPTH};
pub use jsonl::{
    parse_jsonl, parse_jsonl_with_dropped, write_jsonl, write_jsonl_with_dropped, JsonlError,
};
pub use metrics::{
    Histogram, Metered, MetricsDelta, MetricsSnapshot, SpanDelta, SpanStat, BUCKET_BOUNDS_NS,
};
pub use prom::{parse_prometheus, render_prometheus, PromError};
pub use span::{Collector, FieldValue, Span, SpanRecord};
