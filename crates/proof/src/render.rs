//! Rendering checked proofs as numbered tables, in the style of the
//! paper's Table 1.

use std::fmt::Write as _;

use crate::{CheckReport, Discharge};

/// Renders a check report as a numbered step table followed by the pure
/// obligations and how each was discharged.
///
/// # Examples
///
/// ```
/// use csp_proof::{render_report, scripts};
///
/// let script = scripts::pipeline::copier_wire_le_input();
/// let report = script.check().unwrap();
/// let table = render_report(&script.paper_ref, &report);
/// assert!(table.contains("recursion"));
/// assert!(table.contains("cons-monotonicity"));
/// ```
pub fn render_report(title: &str, report: &CheckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    out.push_str(&"=".repeat(title.len().min(78)));
    out.push('\n');
    for (i, step) in report.steps.iter().enumerate() {
        let _ = writeln!(out, "({:>2}) {step}", i + 1);
    }
    if !report.obligations.is_empty() {
        out.push_str("\npure premises:\n");
        for ob in &report.obligations {
            let _ = write!(out, "  [{}] {}  — ", ob.rule, ob.formula);
            let _ = match &ob.discharge {
                Discharge::Syntactic(law) => writeln!(out, "syntactic: {law}"),
                Discharge::Symbolic(rule) => writeln!(out, "symbolic: {rule}"),
                Discharge::Bounded(cases) => writeln!(out, "bounded check, {cases} cases"),
                Discharge::Binder => writeln!(out, "closed by binder"),
                Discharge::MembershipChecked => writeln!(out, "membership checked"),
                Discharge::MembershipAssumed => writeln!(out, "assumed (abstract set)"),
            };
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::scripts;

    #[test]
    fn table1_renders_with_steps_and_premises() {
        let script = scripts::protocol::sender_table1();
        let report = script.check().unwrap();
        let rendered = super::render_report(script.paper_ref, &report);
        assert!(rendered.contains("( 1)"), "{rendered}");
        assert!(rendered.contains("pure premises:"), "{rendered}");
        assert!(rendered.contains("[input (6)]"), "{rendered}");
    }
}
