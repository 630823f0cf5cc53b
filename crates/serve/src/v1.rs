//! The `csp/v1` layer that `csp --json` and `csp serve` share.
//!
//! Both front-ends build a [`Workbench`] from the same [`ModuleOptions`],
//! wrap every answer in one [`envelope`], and render each verdict's
//! `data` object here, so one query gets one answer on either side:
//! [`check_data`], [`ProveOutcome::data`], [`run_data`], and profile's
//! [`verify_phase`]. What stays with a front-end is its own: the CLI's
//! flags, human output and exit codes; serve's request decoding, cache
//! keys and shared workbenches.

use csp_core::obs::json_string;
use csp_core::{
    render_report, CheckReport, Confirmation, Diagnostic, Env, ParseError, RunResult, SatResult,
    Session, Universe, Value, Workbench,
};

/// The options that shape a module's workbench: the CLI's
/// `--nat-bound`, `--set`, `--bind` and `--channels`, and serve's
/// `nat_bound`, `sets`, `bind` and `channels` body fields. With the
/// source, they key serve's shared workbenches.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ModuleOptions {
    /// The finite carrier of `NAT` (see [`Universe::new`]); 2 by default.
    pub nat_bound: u32,
    /// Interpretations of named abstract sets.
    pub sets: Vec<(String, Vec<Value>)>,
    /// Host constant vectors, bound as the cells `v[1]`, `v[2]`, ….
    pub binds: Vec<(String, Vec<i64>)>,
    /// Channels assertions may name although no definition uses them.
    pub channels: Vec<String>,
}

impl Default for ModuleOptions {
    fn default() -> Self {
        ModuleOptions {
            nat_bound: 2,
            sets: Vec::new(),
            binds: Vec::new(),
            channels: Vec::new(),
        }
    }
}

impl ModuleOptions {
    /// Builds the workbench of `source` for verification.
    ///
    /// # Errors
    ///
    /// Returns the parse error: a definition with an error hole would
    /// make every verdict over it vacuous.
    pub fn workbench(&self, source: &str) -> Result<Workbench, String> {
        let (wb, defined) = self.build(|wb| wb.define_source(source));
        defined.map_err(|e| e.to_string())?;
        Ok(wb)
    }

    /// Builds the workbench of `source` with error recovery, for
    /// `csp lint`: the definitions that survive a syntax error still
    /// load, so one typo cannot silence every diagnostic below it, and
    /// the errors come back as values.
    pub fn workbench_lenient(&self, source: &str) -> (Workbench, Vec<ParseError>) {
        self.build(|wb| wb.define_source_lenient(source))
    }

    fn build<T>(&self, define: impl FnOnce(&mut Workbench) -> T) -> (Workbench, T) {
        let mut uni = Universe::new(self.nat_bound);
        for (name, vals) in &self.sets {
            uni = uni.with_named(name, vals.iter().cloned());
        }
        let mut wb = Workbench::new().with_universe(uni);
        let defined = define(&mut wb);
        for (name, vals) in &self.binds {
            wb.bind_vector(name, vals);
        }
        if !self.channels.is_empty() {
            wb.declare_channels(self.channels.iter().map(String::as_str));
        }
        (wb, defined)
    }

    /// The host bindings as the environment [`Workbench::bind_vector`]
    /// builds, for an analysis that runs without a workbench.
    pub fn env(&self) -> Env {
        let mut env = Env::new();
        for (name, vals) in &self.binds {
            for (i, &v) in vals.iter().enumerate() {
                env.bind_mut(&format!("{name}[{}]", i + 1), Value::Int(v));
            }
        }
        env
    }
}

/// One element of a named set as `--set` and the `sets` field spell
/// it: an integer or an Uppercase atom.
///
/// # Errors
///
/// Names the text that is neither.
pub fn set_value(text: &str) -> Result<Value, String> {
    let s = text.trim();
    if let Ok(n) = s.parse::<i64>() {
        Ok(Value::Int(n))
    } else if s.chars().next().is_some_and(char::is_uppercase) {
        Ok(Value::sym(s))
    } else {
        Err(format!("bad value `{s}` (integers or Uppercase atoms)"))
    }
}

/// Wraps a rendered `data` object in the `csp/v1` envelope. The CLI
/// passes its verb (`check`), serve the namespaced one (`serve.check`).
pub fn envelope(command: &str, data: &str) -> String {
    format!(
        "{{\"schema\":\"csp/v1\",\"command\":{},\"data\":{data}}}",
        json_string(command)
    )
}

/// The `data` object of a `check`: the query and the engine that
/// answered, then `holds:true` with the traces checked and the depth,
/// or `holds:false` with the least failing trace.
pub fn check_data(process: &str, assertion: &str, verdict: &SatResult) -> String {
    let query = format!(
        "{{\"process\":{},\"assertion\":{},\"engine\":{}",
        json_string(process),
        json_string(assertion),
        json_string(verdict.engine().as_str()),
    );
    match verdict {
        SatResult::Holds {
            traces_checked,
            depth,
            ..
        } => format!(
            "{query},\"holds\":true,\"traces_checked\":{traces_checked},\"depth\":{depth}}}"
        ),
        SatResult::Counterexample { trace, .. } => format!(
            "{query},\"holds\":false,\"counterexample\":{}}}",
            json_string(&trace.to_string())
        ),
    }
}

/// A finished `prove`: the specs, and the checked proof or the reason
/// the synthesiser found none.
#[derive(Debug)]
pub struct ProveOutcome {
    specs: Vec<(String, String)>,
    result: Result<CheckReport, String>,
}

impl ProveOutcome {
    /// Synthesises and checks one proof of every `(process, assertion)`
    /// spec.
    ///
    /// # Panics
    ///
    /// When `specs` is empty; both front-ends reject that request first.
    pub fn prove(session: &Session<'_>, specs: &[(&str, &str)]) -> ProveOutcome {
        assert!(!specs.is_empty(), "front-ends reject an empty spec list");
        ProveOutcome {
            specs: specs
                .iter()
                .map(|&(p, a)| (p.to_string(), a.to_string()))
                .collect(),
            result: session.prove_auto(specs).map_err(|e| e.to_string()),
        }
    }

    /// True when the proof checked.
    pub fn proved(&self) -> bool {
        self.result.is_ok()
    }

    /// The proof rendered under the title `proof: P sat R` of the first
    /// spec, or the reason there is none.
    pub fn report(&self) -> Result<String, &str> {
        self.result
            .as_ref()
            .map(|proof| self.render(proof))
            .map_err(String::as_str)
    }

    fn render(&self, proof: &CheckReport) -> String {
        let (process, assertion) = &self.specs[0];
        render_report(&format!("proof: {process} sat {assertion}"), proof)
    }

    /// The `data` object: the specs, then `proved:true`
    /// with the rule count, what the pure premises rest on
    /// (`discharge`) and the rendered [`report`](Self::report), or
    /// `proved:false` with the error.
    pub fn data(&self) -> String {
        let specs: Vec<String> = self
            .specs
            .iter()
            .map(|(p, a)| {
                format!(
                    "{{\"process\":{},\"assertion\":{}}}",
                    json_string(p),
                    json_string(a)
                )
            })
            .collect();
        let head = format!("{{\"specs\":[{}]", specs.join(","));
        match &self.result {
            Ok(proof) => format!(
                "{head},\"proved\":true,\"rules\":{},\"discharge\":{},\"report\":{}}}",
                proof.rule_count(),
                discharge_json(proof),
                json_string(&self.render(proof))
            ),
            Err(e) => format!("{head},\"proved\":false,\"error\":{}}}", json_string(e)),
        }
    }
}

/// What a proof's pure premises rest on: how many were discharged by a
/// syntactic law, by the symbolic stage, by bounded enumeration (with
/// the cases it checked), by a binder, or as a set membership.
fn discharge_json(proof: &CheckReport) -> String {
    let count = |name: &str| proof.metrics.counter(&format!("proof.discharge.{name}"));
    format!(
        "{{\"syntactic\":{},\"symbolic\":{},\"bounded\":{},\"bounded_cases\":{},\
         \"binder\":{},\"membership\":{}}}",
        count("syntactic"),
        count("symbolic"),
        count("bounded"),
        proof.metrics.counter("proof.bounded_cases"),
        count("binder"),
        count("membership_checked") + count("membership_assumed"),
    )
}

/// The `data` object of a finished `run`: the outcome, the visible
/// trace, the failures, the supervision summary and the monitor's
/// verdict.
pub fn run_data(process: &str, result: &RunResult) -> String {
    format!(
        "{{\"process\":{},\"steps\":{},\"outcome\":{},\"clean\":{},\
         \"visible\":{},\"failures\":{},\"supervision\":{},\"monitor\":{}}}",
        json_string(process),
        result.steps,
        json_string(&result.outcome.to_string()),
        result.outcome.is_clean(),
        json_string(&result.visible.to_string()),
        render_failures(result),
        render_supervision(result),
        render_monitor(result),
    )
}

/// Profile's verify phase. With a `(process, assertion)` claim it
/// checks the claim to `depth` and answers 1 when it holds,
/// 0 when not. Without one it walks the traces of every definition that
/// takes no parameter and answers how many there are.
///
/// # Errors
///
/// The first error of the check or of the walk.
pub fn verify_phase(
    session: &Session<'_>,
    claim: Option<(&str, &str)>,
    depth: usize,
) -> Result<u64, String> {
    if let Some((process, assertion)) = claim {
        return session
            .check_sat(process, assertion, depth)
            .map(|v| u64::from(v.holds()))
            .map_err(|e| e.to_string());
    }
    // Array equations (`q[i:M] = …`) need a subscript to become a
    // process, so the walk covers plain ones only.
    let wb = session.workbench();
    let mut traces = 0;
    for def in wb.definitions().iter().filter(|d| d.param().is_none()) {
        traces += wb
            .traces(def.name(), depth)
            .map_err(|e| e.to_string())?
            .len() as u64;
    }
    Ok(traces)
}

/// One lint finding as a JSON object: its code, severity and message,
/// then its definition, span and confirmation when it has them.
pub fn diagnostic_json(d: &Diagnostic) -> String {
    let mut s = format!(
        "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":{}",
        d.code.code(),
        d.severity,
        json_string(&d.message)
    );
    if let Some(def) = &d.def {
        s.push_str(&format!(",\"def\":{}", json_string(def)));
    }
    if let Some(sp) = &d.span {
        s.push_str(&format!(
            ",\"line\":{},\"column\":{},\"offset\":{},\"len\":{}",
            sp.line, sp.column, sp.offset, sp.len
        ));
    }
    match &d.confirmation {
        Some(Confirmation::Confirmed { witness }) => s.push_str(&format!(
            ",\"confirmation\":\"confirmed\",\"witness\":{}",
            json_string(witness)
        )),
        Some(Confirmation::Heuristic) => s.push_str(",\"confirmation\":\"heuristic\""),
        None => {}
    }
    s.push('}');
    s
}

/// Lint findings as a JSON array of [`diagnostic_json`] objects: the
/// `diagnostics` of `csp lint --json` and `/v1/lint`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(diagnostic_json).collect();
    format!("[{}]", items.join(","))
}

/// Recovered parse errors as a JSON array, span fields flattened exactly
/// like [`diagnostic_json`] renders lint spans.
pub fn render_parse_errors(errors: &[ParseError]) -> String {
    let items: Vec<String> = errors
        .iter()
        .map(|e| {
            let sp = e.span();
            format!(
                "{{\"message\":{},\"line\":{},\"column\":{},\"offset\":{},\"len\":{}}}",
                json_string(e.message()),
                sp.line,
                sp.column,
                sp.offset,
                sp.len
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The component failures of a finished run as a JSON array, one
/// object per death: its label, reason, step and whether a restart
/// recovered it.
pub fn render_failures(result: &RunResult) -> String {
    let items: Vec<String> = result
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"label\":{},\"reason\":{},\"at_step\":{},\"recovered\":{}}}",
                json_string(&f.label),
                json_string(&f.reason.to_string()),
                f.at_step,
                f.recovered,
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The machine-readable supervision summary of a finished run: how many
/// components died, how many deaths a restart policy recovered, and the
/// causal-log size (fault/supervision events included).
pub fn render_supervision(result: &RunResult) -> String {
    format!(
        "{{\"deaths\":{},\"recovered\":{},\"causal_events\":{},\"causal_dropped\":{}}}",
        result.failures.len(),
        result.recoveries(),
        result.causal.len(),
        result.causal.dropped(),
    )
}

/// The `"monitor"` member of a run response: `null` when monitoring was
/// off, else the verdict plus the first violation (if any) with its
/// causal history.
pub fn render_monitor(result: &RunResult) -> String {
    let Some(m) = &result.monitor else {
        return "null".to_string();
    };
    let violation = match &m.violation {
        None => "null".to_string(),
        Some(v) => format!(
            "{{\"step\":{},\"visible_index\":{},\"event\":{},\"kind\":{},\"causal_history\":[{}]}}",
            v.step,
            v.visible_index,
            json_string(&v.event.to_string()),
            json_string(&v.kind.to_string()),
            v.causal_history
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
    };
    format!(
        "{{\"verdict\":{},\"conforming\":{},\"events_checked\":{},\"violation\":{}}}",
        json_string(&m.verdict.to_string()),
        m.is_conforming(),
        m.events_checked,
        violation,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_core::LintCode;

    #[test]
    fn json_rendering_escapes_and_nests() {
        let d = Diagnostic::new(LintCode::UnboundVariable, "unbound variable `x\"y`").in_def("p");
        let j = diagnostic_json(&d);
        assert!(j.contains("\\\"y"), "{j}");
        assert!(j.starts_with('{') && j.ends_with('}'));
        let arr = render_json(&[d.clone(), d]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
        assert_eq!(arr.matches("CSP003").count(), 2);
        let confirmed = Diagnostic {
            confirmation: Some(Confirmation::Confirmed {
                witness: "<a.1>".into(),
            }),
            ..Diagnostic::new(LintCode::OfferMismatch, "m")
        };
        assert!(diagnostic_json(&confirmed)
            .ends_with(",\"confirmation\":\"confirmed\",\"witness\":\"<a.1>\"}"));
        let heuristic = Diagnostic {
            confirmation: Some(Confirmation::Heuristic),
            ..Diagnostic::new(LintCode::OfferMismatch, "m")
        };
        assert!(diagnostic_json(&heuristic).ends_with(",\"confirmation\":\"heuristic\"}"));
    }
}
