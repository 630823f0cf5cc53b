//! The paper's example systems as parsed definition lists.
//!
//! Every example of §1.3 is provided both as source text (so the examples
//! double as parser fixtures) and as a ready-made [`Definitions`] value.

use csp_trace::Value;

use crate::{parse_definitions, Definitions, Env};

/// §1.3(1): the copier/recopier pipeline, plus the hidden-wire network of
/// §1.2(8).
pub const PIPELINE_SRC: &str = "\
-- §1.3(1): endless copying from input to wire, wire to output
copier = input?x:NAT -> wire!x -> copier
recopier = wire?y:NAT -> output!y -> recopier
pipeline = chan wire; (copier || recopier)
";

/// §1.3(2)–(4): the ACK/NACK retransmission protocol.
pub const PROTOCOL_SRC: &str = "\
-- §1.3(2): sender inputs a value and hands it to q[y]
sender = input?y:M -> q[y]
-- §1.3(3): q[x] retransmits x until acknowledged
q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])
-- §1.3(4): receiver acknowledges or asks for retransmission
receiver = wire?z:M -> (wire!ACK -> output!z -> receiver
                        | wire!NACK -> receiver)
-- the protocol conceals the shared wire
protocol = chan wire; (sender || receiver)
";

/// §1.3(5): the multiplier array computing scalar products
/// `output_i = Σ_j v[j] × row[j]_i`.
///
/// The fixed vector `v` is host-supplied: bind its cells with
/// [`multiplier_env`].
pub const MULTIPLIER_SRC: &str = "\
-- §1.3(5): matrix-vector multiplier network
mult[i:1..3] = row[i]?x:NAT -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]
zeroes = col[0]!0 -> zeroes
last = col[3]?y:NAT -> output!y -> last
network = zeroes || mult[1] || mult[2] || mult[3] || last
multiplier = chan col[0..3]; network
";

/// A bounded FIFO buffer of capacity `n`, built (as the paper suggests by
/// example) as a chain of one-place copiers with hidden internal links.
/// Not in the paper verbatim; used by examples and benchmarks as a
/// further workload whose invariant `out ≤ in` is provable by the same
/// rules as the pipeline.
pub const BUFFER2_SRC: &str = "\
-- two-place buffer: cell0 and cell1 joined by a hidden link
cell0 = in?x:NAT -> link!x -> cell0
cell1 = link?y:NAT -> out!y -> cell1
buffer2 = chan link; (cell0 || cell1)
";

fn parse_fixture(name: &str, src: &str) -> Definitions {
    parse_definitions(src)
        .unwrap_or_else(|e| panic!("built-in example `{name}` failed to parse: {e}"))
}

/// The parsed pipeline definitions (`copier`, `recopier`, `pipeline`).
pub fn pipeline() -> Definitions {
    parse_fixture("pipeline", PIPELINE_SRC)
}

/// The parsed protocol definitions (`sender`, `q`, `receiver`,
/// `protocol`).
pub fn protocol() -> Definitions {
    parse_fixture("protocol", PROTOCOL_SRC)
}

/// The parsed multiplier definitions (`mult`, `zeroes`, `last`,
/// `network`, `multiplier`).
pub fn multiplier() -> Definitions {
    parse_fixture("multiplier", MULTIPLIER_SRC)
}

/// The parsed two-place buffer definitions (`cell0`, `cell1`, `buffer2`).
pub fn buffer2() -> Definitions {
    parse_fixture("buffer2", BUFFER2_SRC)
}

/// An environment binding the multiplier's fixed vector: `v[1] = v1`,
/// `v[2] = v2`, `v[3] = v3`.
///
/// # Examples
///
/// ```
/// use csp_lang::examples::multiplier_env;
/// use csp_trace::Value;
///
/// let env = multiplier_env(&[2, 3, 5]);
/// assert_eq!(env.lookup("v[1]"), Some(&Value::Int(2)));
/// assert_eq!(env.lookup("v[3]"), Some(&Value::Int(5)));
/// ```
pub fn multiplier_env(v: &[i64]) -> Env {
    let mut env = Env::new();
    for (i, &x) in v.iter().enumerate() {
        env.bind_mut(&format!("v[{}]", i + 1), Value::Int(x));
    }
    env
}

/// A generalised multiplier network of width `n` (the paper fixes
/// `n = 3`); used by the scaling benchmarks (experiment F2).
pub fn multiplier_src(n: usize) -> String {
    format!(
        "mult[i:1..{n}] = row[i]?x:NAT -> col[i-1]?y:NAT -> col[i]!(v[i]*x + y) -> mult[i]\n\
         zeroes = col[0]!0 -> zeroes\n\
         last = col[{n}]?y:NAT -> output!y -> last\n\
         network = zeroes || {mults} || last\n\
         multiplier = chan col[0..{n}]; network\n",
        mults = (1..=n)
            .map(|i| format!("mult[{i}]"))
            .collect::<Vec<_>>()
            .join(" || "),
    )
}

/// A generalised copier pipeline of `n` stages with hidden internal
/// links; `n = 2` is the paper's pipeline up to channel renaming.
pub fn pipeline_src(n: usize) -> String {
    assert!(n >= 1, "pipeline needs at least one stage");
    let mut out = String::new();
    for i in 0..n {
        let inp = if i == 0 {
            "input".to_string()
        } else {
            format!("link[{i}]")
        };
        let outp = if i == n - 1 {
            "output".to_string()
        } else {
            format!("link[{}]", i + 1)
        };
        out.push_str(&format!("stage{i} = {inp}?x:NAT -> {outp}!x -> stage{i}\n"));
    }
    let stages = (0..n)
        .map(|i| format!("stage{i}"))
        .collect::<Vec<_>>()
        .join(" || ");
    if n > 1 {
        out.push_str(&format!("chain = chan link[1..{}]; ({stages})\n", n - 1));
    } else {
        out.push_str(&format!("chain = {stages}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parsing only: that the fixtures lint clean is checked by
    /// `paper_networks_lint_clean` in `csp-analysis`.
    #[test]
    fn all_fixtures_parse() {
        for defs in [pipeline(), protocol(), multiplier(), buffer2()] {
            assert!(!defs.is_empty());
        }
    }

    #[test]
    fn pipeline_names() {
        let d = pipeline();
        assert!(d.get("copier").is_some());
        assert!(d.get("recopier").is_some());
        assert!(d.get("pipeline").is_some());
    }

    #[test]
    fn protocol_has_array_definition() {
        let d = protocol();
        assert_eq!(d.get("q").unwrap().arity(), 1);
        assert_eq!(d.get("sender").unwrap().arity(), 0);
    }

    #[test]
    fn generalised_multiplier_parses_for_small_widths() {
        for n in 1..=5 {
            let src = multiplier_src(n);
            let defs =
                parse_definitions(&src).unwrap_or_else(|e| panic!("width {n} failed: {e}\n{src}"));
            assert!(defs.get("multiplier").is_some(), "width {n}");
        }
    }

    #[test]
    fn generalised_pipeline_parses() {
        for n in 1..=4 {
            let src = pipeline_src(n);
            let defs =
                parse_definitions(&src).unwrap_or_else(|e| panic!("stages {n} failed: {e}\n{src}"));
            assert!(defs.get("chain").is_some());
        }
    }

    #[test]
    fn multiplier_env_binds_cells() {
        let env = multiplier_env(&[1, 2, 3]);
        assert_eq!(env.len(), 3);
        assert_eq!(env.lookup("v[2]"), Some(&Value::Int(2)));
    }
}
