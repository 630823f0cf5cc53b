//! # csp-bench
//!
//! The benchmark and experiment harness regenerating every table and
//! figure of Zhou & Hoare (1981), per the experiment index in
//! `DESIGN.md`:
//!
//! * `cargo run -p csp-bench --bin table1` — **T1**: prints the checked
//!   Table 1 proof;
//! * `cargo run -p csp-bench --bin figures` — **F1/F2**: regenerates the
//!   paper's two network figures from the parsed definitions;
//! * `cargo run -p csp-bench --bin experiments` — **E1–E7**: runs every
//!   experiment and prints paper-claim vs. measured-result rows;
//! * `cargo run --release -p csp-bench --bin bench-json` — the one
//!   benchmark harness: **P1–P4** and **E1–E7** rows as gateable JSON
//!   (see the binary's docs for `--compare` and `--serve`).

#![forbid(unsafe_code)]

pub mod load;
pub mod report;

use csp_core::prelude::*;

/// The standard pipeline workbench (universe `NAT ↾ {0,1}`).
pub fn pipeline_workbench() -> Workbench {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp_core::examples::PIPELINE_SRC)
        .expect("built-in pipeline parses");
    wb
}

/// The standard protocol workbench (`M = {0,1}`).
pub fn protocol_workbench() -> Workbench {
    let mut wb = Workbench::new()
        .with_universe(Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]));
    wb.define_source(csp_core::examples::PROTOCOL_SRC)
        .expect("built-in protocol parses");
    wb
}

/// A bounded-rows multiplier workbench of the given width (rows over
/// `{0..1}`, columns over a NAT bound covering all partial sums for the
/// weight vector `v = (1, 2, …, width)`).
pub fn multiplier_workbench(width: usize) -> Workbench {
    let v: Vec<i64> = (1..=width as i64).collect();
    let bound = v.iter().sum::<i64>() as u32; // rows ≤ 1 ⇒ sums ≤ Σv
    let mut wb = Workbench::new().with_universe(Universe::new(bound.max(1)));
    wb.bind_vector("v", &v);
    let mults = (1..=width)
        .map(|i| format!("mult[{i}]"))
        .collect::<Vec<_>>()
        .join(" || ");
    wb.define_source(&format!(
        "mult[i:1..{width}] = row[i]?x:{{0..1}} -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]\n\
         zeroes = col[0]!0 -> zeroes\n\
         last = col[{width}]?y:NAT -> output!y -> last\n\
         network = zeroes || {mults} || last\n\
         multiplier = chan col[0..{width}]; network\n",
    ))
    .expect("generated multiplier parses");
    wb
}

/// The full scalar-product invariant of §2 for a given width.
pub fn multiplier_invariant(width: usize) -> String {
    let sum = (1..=width)
        .map(|j| format!("v[{j}]*row[{j}][i]"))
        .collect::<Vec<_>>()
        .join(" + ");
    format!("forall i:NAT. 1 <= i and i <= #output => output[i] == {sum}")
}

/// An `n`-stage copier chain workbench (generalised pipeline).
pub fn chain_workbench(stages: usize) -> Workbench {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(&csp_core::examples::pipeline_src(stages))
        .expect("generated chain parses");
    wb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_workbenches_are_clean() {
        assert!(pipeline_workbench().lint().is_empty());
        assert!(protocol_workbench().lint().is_empty());
        for w in 1..=4 {
            assert!(multiplier_workbench(w).lint().is_empty(), "width {w}");
        }
        for n in 1..=4 {
            assert!(chain_workbench(n).lint().is_empty(), "stages {n}");
        }
    }

    #[test]
    fn multiplier_invariant_parses_for_each_width() {
        for w in 1..=3 {
            let wb = multiplier_workbench(w);
            wb.assertion(&multiplier_invariant(w))
                .unwrap_or_else(|e| panic!("width {w}: {e}"));
        }
    }
}
