//! Machine-readable benchmark reports and the CI regression gate.
//!
//! The `bench-json` binary emits a [`Report`] as JSON; CI re-runs the
//! same workloads on every PR and calls [`gate`] to compare the fresh
//! numbers against the committed `BENCH_baseline.json`. A bench that
//! slowed down by more than the tolerance fails the gate; one that sped
//! up past the tolerance is only a warning — the signal that the
//! baseline should be refreshed.
//!
//! The JSON schema is deliberately flat (one object per bench with
//! `name`, `wall_ms`, `traces`, `peak_set`, plus one small object per
//! attributed span), written by hand and read back with the workspace's
//! one JSON codec, [`csp_core::obs::parse_json`].

use std::fmt::Write as _;

use csp_core::obs::{json_string, parse_json, JsonValue};

/// Per-span time attribution for one bench: where the workload's wall
/// time went, by span name. Recorded only when the bench ran with a
/// live collector (`--metrics-out`).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAttr {
    /// The span name (`fixpoint.iter`, `satcheck.explore`, …).
    pub span: String,
    /// Total inclusive nanoseconds across the workload's samples.
    pub total_ns: u64,
    /// Number of spans closed under this name.
    pub count: u64,
}

/// One benchmark's measured numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable bench identifier, e.g. `E5/fixpoint/multiplier_w3_d2`.
    pub name: String,
    /// Median wall-clock time over the samples, in milliseconds.
    pub wall_ms: f64,
    /// Number of traces produced by the workload (0 where meaningless).
    pub traces: u64,
    /// Peak trace-set size observed during the workload.
    pub peak_set: u64,
    /// Top spans by total time (empty when run unobserved).
    pub spans: Vec<SpanAttr>,
}

/// A full `bench-json` report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Samples per bench the medians were taken over.
    pub samples: usize,
    /// The per-bench records, in execution order.
    pub benches: Vec<BenchRecord>,
}

impl Report {
    /// Serialises the report to the committed JSON format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"csp-bench-json/v1\",\n");
        let _ = writeln!(out, "  \"samples\": {},", self.samples);
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"wall_ms\": {:.3}, \"traces\": {}, \"peak_set\": {}",
                json_string(&b.name),
                b.wall_ms,
                b.traces,
                b.peak_set
            );
            if b.spans.is_empty() {
                out.push('}');
            } else {
                out.push_str(", \"spans\": [\n");
                for (j, s) in b.spans.iter().enumerate() {
                    let _ = write!(
                        out,
                        "      {{\"span\": {}, \"total_ns\": {}, \"count\": {}}}",
                        json_string(&s.span),
                        s.total_ns,
                        s.count
                    );
                    out.push_str(if j + 1 < b.spans.len() { ",\n" } else { "\n" });
                }
                out.push_str("    ]}");
            }
            out.push_str(if i + 1 < self.benches.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of malformed JSON, a missing `samples`
    /// member, or the first record without a required member.
    pub fn from_json(src: &str) -> Result<Report, String> {
        let doc = parse_json(src).map_err(|e| e.to_string())?;
        let samples = doc
            .get("samples")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "missing \"samples\" field".to_string())? as usize;
        let benches = doc
            .get("benches")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .map(bench_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if benches.is_empty() {
            return Err("no bench records found".to_string());
        }
        Ok(Report { samples, benches })
    }
}

fn bench_from_json(v: &JsonValue) -> Result<BenchRecord, String> {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or("bench record without name")?
        .to_string();
    let wall_ms = v
        .get("wall_ms")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("bench `{name}` without wall_ms"))?;
    let spans = v
        .get("spans")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .map(|s| {
            let span = s
                .get("span")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("bench `{name}`: span attribution without span name"))?;
            Ok(SpanAttr {
                span: span.to_string(),
                total_ns: u64_member(s, "total_ns"),
                count: u64_member(s, "count"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchRecord {
        name,
        wall_ms,
        traces: u64_member(v, "traces"),
        peak_set: u64_member(v, "peak_set"),
        spans,
    })
}

/// An optional count member; absent reads as 0.
fn u64_member(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// Verdict of comparing one bench against the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than baseline by more than the tolerance — fails the gate.
    Regression,
    /// Faster than baseline by more than the tolerance — refresh the
    /// committed baseline to tighten the gate.
    Improvement,
    /// Present in only one of the two reports.
    Unmatched,
}

/// One span named as responsible for a bench regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanCulprit {
    /// The regressing span name.
    pub span: String,
    /// How much more time it took than in the baseline, in ns.
    pub delta_ns: i64,
    /// Its baseline total, for relative reporting (0 when new).
    pub baseline_ns: u64,
}

/// One line of the gate comparison.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Bench name.
    pub name: String,
    /// Baseline median, if the bench exists in the baseline.
    pub baseline_ms: Option<f64>,
    /// Current median, if the bench exists in the current report.
    pub current_ms: Option<f64>,
    /// The comparison verdict.
    pub verdict: Verdict,
    /// For a [`Verdict::Regression`] with span attribution on both
    /// sides: the spans whose time grew the most, worst first (at most
    /// three). Empty otherwise.
    pub culprits: Vec<SpanCulprit>,
}

/// Result of gating a fresh report against the committed baseline.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-bench comparison lines, baseline order first.
    pub lines: Vec<GateLine>,
    /// The relative tolerance the gate ran with (e.g. `0.30`).
    pub tolerance: f64,
}

impl GateReport {
    /// True when no bench regressed past the tolerance.
    pub fn passed(&self) -> bool {
        !self.lines.iter().any(|l| l.verdict == Verdict::Regression)
    }

    /// The benches that improved past the tolerance (baseline refresh
    /// candidates).
    pub fn improvements(&self) -> Vec<&GateLine> {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Improvement)
            .collect()
    }
}

/// Compares `current` to `baseline` with a relative wall-time
/// `tolerance` (0.30 = ±30%). Floors both sides at one millisecond so
/// sub-millisecond noise cannot trip the gate.
pub fn gate(baseline: &Report, current: &Report, tolerance: f64) -> GateReport {
    let mut lines = Vec::new();
    for b in &baseline.benches {
        let cur = current.benches.iter().find(|c| c.name == b.name);
        let line = match cur {
            None => GateLine {
                name: b.name.clone(),
                baseline_ms: Some(b.wall_ms),
                current_ms: None,
                verdict: Verdict::Unmatched,
                culprits: Vec::new(),
            },
            Some(c) => {
                let base = b.wall_ms.max(1.0);
                let now = c.wall_ms.max(1.0);
                let verdict = if now > base * (1.0 + tolerance) {
                    Verdict::Regression
                } else if now < base * (1.0 - tolerance) {
                    Verdict::Improvement
                } else {
                    Verdict::Ok
                };
                let culprits = if verdict == Verdict::Regression {
                    top_regressing_spans(b, c)
                } else {
                    Vec::new()
                };
                GateLine {
                    name: b.name.clone(),
                    baseline_ms: Some(b.wall_ms),
                    current_ms: Some(c.wall_ms),
                    verdict,
                    culprits,
                }
            }
        };
        lines.push(line);
    }
    for c in &current.benches {
        if !baseline.benches.iter().any(|b| b.name == c.name) {
            lines.push(GateLine {
                name: c.name.clone(),
                baseline_ms: None,
                current_ms: Some(c.wall_ms),
                verdict: Verdict::Unmatched,
                culprits: Vec::new(),
            });
        }
    }
    GateReport { lines, tolerance }
}

/// The spans whose total time grew the most between two attributed
/// records, worst first, capped at three. Spans that shrank (or are
/// attribution-free) never appear — the point is to *name* a
/// regression, not to inventory it.
fn top_regressing_spans(baseline: &BenchRecord, current: &BenchRecord) -> Vec<SpanCulprit> {
    let mut culprits: Vec<SpanCulprit> = current
        .spans
        .iter()
        .map(|c| {
            let base = baseline
                .spans
                .iter()
                .find(|b| b.span == c.span)
                .map_or(0, |b| b.total_ns);
            SpanCulprit {
                span: c.span.clone(),
                delta_ns: c.total_ns as i64 - base as i64,
                baseline_ns: base,
            }
        })
        .filter(|s| s.delta_ns > 0)
        .collect();
    culprits.sort_by_key(|s| (std::cmp::Reverse(s.delta_ns), s.span.clone()));
    culprits.truncate(3);
    culprits
}

/// One summarized bench run, as appended to `BENCH_history.jsonl` —
/// the recorded perf trajectory (`csp bench report` prints it).
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Wall-clock timestamp of the run, milliseconds since the epoch
    /// (0 when unknown).
    pub unix_ms: u64,
    /// Samples per bench the medians were taken over.
    pub samples: usize,
    /// Sum of all bench medians, in milliseconds.
    pub total_wall_ms: f64,
    /// Per-bench medians, in execution order.
    pub benches: Vec<(String, f64)>,
}

impl HistoryRow {
    /// Summarizes a report into one history row.
    pub fn from_report(report: &Report, unix_ms: u64) -> HistoryRow {
        HistoryRow {
            unix_ms,
            samples: report.samples,
            total_wall_ms: report.benches.iter().map(|b| b.wall_ms).sum(),
            benches: report
                .benches
                .iter()
                .map(|b| (b.name.clone(), b.wall_ms))
                .collect(),
        }
    }

    /// Renders the row as one `csp-bench-history/v1` JSONL line (no
    /// trailing newline).
    pub fn to_jsonl_line(&self) -> String {
        let mut out = format!(
            "{{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": {}, \"samples\": {}, \
             \"total_wall_ms\": {:.3}, \"benches\": {{",
            self.unix_ms, self.samples, self.total_wall_ms
        );
        for (i, (name, ms)) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {ms:.3}", json_string(name));
        }
        out.push_str("}}");
        out
    }

    /// Parses one line written by [`HistoryRow::to_jsonl_line`]. A
    /// missing `unix_ms` or `samples` reads as 0; members it does not
    /// know (the `engines` map of older rows) are skipped.
    ///
    /// # Errors
    ///
    /// Describes malformed JSON, a line of another schema, or a line
    /// without a `benches` map.
    pub fn from_jsonl_line(line: &str) -> Result<HistoryRow, String> {
        let v = parse_json(line).map_err(|e| e.message)?;
        if v.get("schema").and_then(JsonValue::as_str) != Some("csp-bench-history/v1") {
            return Err("not a csp-bench-history/v1 row".to_string());
        }
        let benches = v
            .get("benches")
            .and_then(JsonValue::entries)
            .ok_or("missing benches map")?
            .iter()
            .filter_map(|(name, ms)| ms.as_f64().map(|ms| (name.clone(), ms)))
            .collect();
        Ok(HistoryRow {
            unix_ms: u64_member(&v, "unix_ms"),
            samples: u64_member(&v, "samples") as usize,
            total_wall_ms: v
                .get("total_wall_ms")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
            benches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, f64)]) -> Report {
        Report {
            samples: 3,
            benches: pairs
                .iter()
                .map(|&(name, wall_ms)| BenchRecord {
                    name: name.to_string(),
                    wall_ms,
                    traces: 10,
                    peak_set: 20,
                    spans: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let r = report(&[("E5/fixpoint/multiplier_w3_d2", 123.456), ("P1/enum", 7.0)]);
        let parsed = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed.samples, 3);
        assert_eq!(parsed.benches.len(), 2);
        assert_eq!(parsed.benches[0].name, "E5/fixpoint/multiplier_w3_d2");
        assert!((parsed.benches[0].wall_ms - 123.456).abs() < 1e-9);
        assert_eq!(parsed.benches[1].traces, 10);
        assert_eq!(parsed.benches[1].peak_set, 20);
    }

    #[test]
    fn synthetic_two_x_slowdown_fails_the_gate() {
        let base = report(&[("a", 100.0), ("b", 40.0)]);
        let slow = report(&[("a", 200.0), ("b", 41.0)]);
        let g = gate(&base, &slow, 0.30);
        assert!(!g.passed());
        assert_eq!(g.lines[0].verdict, Verdict::Regression);
        assert_eq!(g.lines[1].verdict, Verdict::Ok);
    }

    #[test]
    fn identical_numbers_pass_the_gate() {
        let base = report(&[("a", 100.0), ("b", 40.0)]);
        let g = gate(&base, &base, 0.30);
        assert!(g.passed());
        assert!(g.improvements().is_empty());
    }

    #[test]
    fn improvement_warns_but_passes() {
        let base = report(&[("a", 100.0)]);
        let fast = report(&[("a", 20.0)]);
        let g = gate(&base, &fast, 0.30);
        assert!(g.passed());
        assert_eq!(g.improvements().len(), 1);
    }

    #[test]
    fn unmatched_benches_pass_but_are_flagged() {
        let base = report(&[("old", 10.0)]);
        let cur = report(&[("new", 10.0)]);
        let g = gate(&base, &cur, 0.30);
        assert!(g.passed());
        assert_eq!(g.lines.len(), 2);
        assert!(g.lines.iter().all(|l| l.verdict == Verdict::Unmatched));
    }

    #[test]
    fn sub_millisecond_noise_is_floored() {
        let base = report(&[("tiny", 0.02)]);
        let cur = report(&[("tiny", 0.9)]);
        // 45× slower in raw ratio, but both under the 1 ms floor.
        assert!(gate(&base, &cur, 0.30).passed());
    }

    fn with_spans(mut r: Report, spans: &[(&str, u64, u64)]) -> Report {
        for b in &mut r.benches {
            b.spans = spans
                .iter()
                .map(|&(span, total_ns, count)| SpanAttr {
                    span: span.to_string(),
                    total_ns,
                    count,
                })
                .collect();
        }
        r
    }

    #[test]
    fn span_attribution_round_trips_through_json() {
        let r = with_spans(
            report(&[("E5/fixpoint/pipeline_d4", 50.0)]),
            &[
                ("fixpoint.iter", 30_000_000, 12),
                ("fixpoint", 48_000_000, 1),
            ],
        );
        let parsed = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed.benches[0].spans, r.benches[0].spans);
        // A report without attribution still parses (empty spans).
        let plain = report(&[("a", 1.0)]);
        assert_eq!(
            Report::from_json(&plain.to_json()).unwrap().benches[0].spans,
            Vec::new()
        );
    }

    /// The acceptance scenario: a doctored row slows one span down and
    /// the gate names it, worst first.
    #[test]
    fn gate_names_the_top_regressing_span() {
        let base = with_spans(
            report(&[("E5/fixpoint/pipeline_d4", 100.0)]),
            &[
                ("fixpoint.iter", 60_000_000, 12),
                ("fixpoint.key", 30_000_000, 48),
            ],
        );
        // Doctored: fixpoint.iter tripled, fixpoint.key grew slightly.
        let slow = with_spans(
            report(&[("E5/fixpoint/pipeline_d4", 210.0)]),
            &[
                ("fixpoint.iter", 180_000_000, 12),
                ("fixpoint.key", 31_000_000, 48),
            ],
        );
        let g = gate(&base, &slow, 0.30);
        assert!(!g.passed());
        let culprits = &g.lines[0].culprits;
        assert_eq!(culprits[0].span, "fixpoint.iter");
        assert_eq!(culprits[0].delta_ns, 120_000_000);
        assert_eq!(culprits[0].baseline_ns, 60_000_000);
        assert_eq!(culprits[1].span, "fixpoint.key");
        // Within-tolerance benches carry no culprits.
        let ok = gate(&base, &base, 0.30);
        assert!(ok.lines[0].culprits.is_empty());
    }

    #[test]
    fn culprits_are_capped_and_exclude_shrinking_spans() {
        let base = with_spans(
            report(&[("a", 100.0)]),
            &[
                ("s1", 10, 1),
                ("s2", 20, 1),
                ("s3", 30, 1),
                ("s4", 40, 1),
                ("s5", 1000, 1),
            ],
        );
        let slow = with_spans(
            report(&[("a", 200.0)]),
            &[
                ("s1", 50, 1),
                ("s2", 50, 1),
                ("s3", 50, 1),
                ("s4", 50, 1),
                ("s5", 10, 1),
            ],
        );
        let g = gate(&base, &slow, 0.30);
        let culprits = &g.lines[0].culprits;
        assert_eq!(culprits.len(), 3);
        assert!(culprits.iter().all(|c| c.delta_ns > 0 && c.span != "s5"));
        assert_eq!(culprits[0].span, "s1", "largest delta first");
    }

    /// Baselines and history lines written while bench rows carried an
    /// engine tag still read; the tags are skipped.
    #[test]
    fn engine_tagged_records_still_read() {
        let baseline = "{\"schema\": \"csp-bench-json/v1\", \"samples\": 3, \"benches\": [\
            {\"name\": \"lts/pipeline_d8\", \"wall_ms\": 0.450, \"traces\": 681, \
             \"peak_set\": 681, \"engine\": \"compiled\"}]}";
        let parsed = Report::from_json(baseline).expect("tagged baseline parses");
        let b = &parsed.benches[0];
        assert_eq!(
            (b.name.as_str(), b.traces, b.peak_set),
            ("lts/pipeline_d8", 681, 681)
        );
        assert!(!parsed.to_json().contains("engine"));
        let line = "{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 5, \"samples\": 3, \
            \"total_wall_ms\": 0.450, \"benches\": {\"lts/pipeline_d8\": 0.450}, \
            \"engines\": {\"lts/pipeline_d8\": \"compiled\"}}";
        let row = HistoryRow::from_jsonl_line(line).expect("tagged history row parses");
        assert_eq!(row.benches, vec![("lts/pipeline_d8".to_string(), 0.45)]);
        assert_eq!((row.unix_ms, row.samples), (5, 3));
    }

    /// The committed baseline is exactly what [`Report::to_json`] writes,
    /// so reading it and writing it again changes no byte.
    #[test]
    fn committed_baseline_round_trips_byte_for_byte() {
        let committed = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ));
        let parsed = Report::from_json(committed).expect("baseline parses");
        assert_eq!(parsed.to_json(), committed);
    }

    #[test]
    fn names_with_json_punctuation_round_trip() {
        let name = "odd/{a, b}/\"quoted\" \\ path";
        let r = with_spans(report(&[(name, 2.5)]), &[("span, {x}", 9, 1)]);
        let parsed = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(parsed, r);
    }

    /// `csp bench report` reads history lines through
    /// [`HistoryRow::from_jsonl_line`]: what [`HistoryRow::to_jsonl_line`]
    /// writes comes back as the same row.
    #[test]
    fn history_rows_render_the_members_bench_report_reads() {
        let r = report(&[("a", 10.5), ("b/{\"x\", y}", 2.25)]);
        let row = HistoryRow::from_report(&r, 1_700_000_000_000);
        assert!((row.total_wall_ms - 12.75).abs() < 1e-9);
        let line = row.to_jsonl_line();
        assert!(!line.contains('\n'));
        assert_eq!(HistoryRow::from_jsonl_line(&line), Ok(row));
        // A row without a timestamp or a sample count reads both as 0.
        let bare = HistoryRow::from_jsonl_line(
            "{\"schema\": \"csp-bench-history/v1\", \"total_wall_ms\": 2.000, \
             \"benches\": {\"a\": 2.000}}",
        )
        .expect("bare row parses");
        assert_eq!((bare.unix_ms, bare.samples), (0, 0));
        assert!(HistoryRow::from_jsonl_line("{\"schema\": \"csp-bench-json/v1\"}").is_err());
    }
}
