//! One positive (minimal `.csp` reproducer, with its expected span) and
//! one negative test per lint code, plus end-to-end checks that the
//! paper's networks lint clean.

use csp_analysis::{Diagnostic, LintCode, Linter, Severity};
use csp_assert::{parse_assertion, ChannelInfo};
use csp_lang::examples::{self, multiplier_src, pipeline_src};
use csp_lang::parse_definitions_spanned;
use csp_trace::ChannelSet;

/// Lints `src` with `host_vars` and returns the diagnostics.
fn lint(src: &str, host_vars: &[&str]) -> Vec<Diagnostic> {
    let (defs, spans) = parse_definitions_spanned(src).expect("reproducer parses");
    Linter::new(&defs)
        .with_spans(&spans)
        .with_host_vars(host_vars.iter().copied().map(String::from))
        .run()
}

#[track_caller]
fn expect_code(diags: &[Diagnostic], code: LintCode, line: usize, column: usize) -> Diagnostic {
    let d = diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("no {} in {diags:?}", code.code()));
    let span = d
        .span
        .unwrap_or_else(|| panic!("{} has no span", code.code()));
    assert_eq!(
        (span.line, span.column),
        (line, column),
        "wrong span for {}: {d}",
        code.code()
    );
    d.clone()
}

#[track_caller]
fn expect_clean(diags: &[Diagnostic]) {
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
}

// -------------------------------------------------------------- CSP001 --

#[test]
fn csp001_undefined_process() {
    let diags = lint("p = c!0 -> ghost", &[]);
    let d = expect_code(&diags, LintCode::UndefinedProcess, 1, 12);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.def.as_deref(), Some("p"));
    assert_eq!(diags.len(), 1);
}

#[test]
fn csp001_negative_defined_calls() {
    expect_clean(&lint("p = c!0 -> q\nq = d!1 -> p", &[]));
}

// -------------------------------------------------------------- CSP002 --

#[test]
fn csp002_arity_mismatch() {
    let diags = lint("q[x:0..3] = wire!x -> q[x]\np = c!0 -> q", &[]);
    let d = expect_code(&diags, LintCode::ArityMismatch, 2, 12);
    assert!(d.message.contains("0 subscript(s)"));
    assert_eq!(diags.len(), 1);
}

#[test]
fn csp002_negative_correct_arity() {
    expect_clean(&lint("q[x:0..3] = wire!x -> q[x]\np = c!0 -> q[2]", &[]));
}

// -------------------------------------------------------------- CSP003 --

#[test]
fn csp003_unbound_variable() {
    let diags = lint("p = c!x -> p", &[]);
    // The span is the `c` prefix whose message mentions x.
    let d = expect_code(&diags, LintCode::UnboundVariable, 1, 5);
    assert!(d.message.contains("`x`"));
    assert_eq!(diags.len(), 1);
    // The multiplier's weight vector is unbound unless the host binds it.
    let diags = lint(MULT_ROW, &[]);
    assert!(
        diags.iter().any(|d| d.code == LintCode::UnboundVariable),
        "{diags:?}"
    );
}

const MULT_ROW: &str =
    "mult[i:1..3] = row[i]?x:NAT -> col[i-1]?y:NAT -> col[i]!(v[i]*x+y) -> mult[i]";

#[test]
fn csp003_negative_bound_and_host_vars() {
    // Bound by an input prefix.
    expect_clean(&lint("p = c?x:NAT -> d!x -> p", &[]));
    // Bound by the host environment (the multiplier's constant vector).
    expect_clean(&lint("p = c!v -> p", &["v"]));
    expect_clean(&lint(MULT_ROW, &["v"]));
}

// -------------------------------------------------------------- CSP004 --

#[test]
fn csp004_unguarded_recursion_through_call_graph() {
    let diags = lint("p = q\nq = p", &[]);
    expect_code(&diags, LintCode::UnguardedRecursion, 1, 1);
    expect_code(
        &diags
            .iter()
            .filter(|d| d.def.as_deref() == Some("q"))
            .cloned()
            .collect::<Vec<_>>(),
        LintCode::UnguardedRecursion,
        2,
        1,
    );
    assert_eq!(diags.len(), 2);
    // A direct self-call, and one through a choice arm.
    for src in ["p = p", "p = c!0 -> p | p"] {
        expect_code(&lint(src, &[]), LintCode::UnguardedRecursion, 1, 1);
    }
}

#[test]
fn csp004_negative_guarded() {
    expect_clean(&lint("p = c!0 -> q\nq = d!1 -> p", &[]));
}

// -------------------------------------------------------------- CSP005 --

#[test]
fn csp005_operand_outside_declared_alphabet() {
    let diags = lint("p = a!1 -> STOP ||{a | b} b!2 -> c!3 -> STOP", &[]);
    let d = expect_code(&diags, LintCode::AlphabetCoverage, 1, 17);
    assert!(d.message.contains("right operand"), "{d}");
    assert!(d.message.contains("`c`"));
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn csp005_negative_covering_alphabets() {
    expect_clean(&lint(
        "p = a!1 -> STOP ||{a | b, c} b!2 -> c!3 -> STOP",
        &[],
    ));
}

// -------------------------------------------------------------- CSP006 --

#[test]
fn csp006_two_writers() {
    let diags = lint("w1 = c!1 -> w1\nw2 = c!2 -> w2\nnet = w1 || w2", &[]);
    let d = expect_code(&diags, LintCode::DirectionRace, 3, 10);
    assert!(d.message.contains("two writers"), "{d}");
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn csp006_two_readers_and_three_sharers() {
    let diags = lint("net = c?x:NAT -> STOP || c?y:NAT -> STOP", &[]);
    assert!(diags
        .iter()
        .any(|d| d.code == LintCode::DirectionRace && d.message.contains("two readers")));

    let diags = lint(
        "net = c!1 -> STOP || c?x:NAT -> STOP || c?y:NAT -> STOP",
        &[],
    );
    assert!(
        diags
            .iter()
            .any(|d| d.code == LintCode::DirectionRace && d.message.contains("3 components")),
        "{diags:?}"
    );
}

#[test]
fn csp006_negative_writer_reader_pair_and_mixed_directions() {
    // One writer, one reader.
    expect_clean(&lint("w = c!1 -> w\nr = c?x:NAT -> r\nnet = w || r", &[]));
    // The protocol pattern: both sides read AND write the wire.
    let diags = lint(
        "s = wire!1 -> (wire?y:{ACK} -> s)\nr = wire?z:NAT -> wire!ACK -> r\nnet = s || r",
        &[],
    );
    assert!(
        !diags.iter().any(|d| d.code == LintCode::DirectionRace),
        "{diags:?}"
    );
}

// -------------------------------------------------------------- CSP007 --

#[test]
fn csp007_hiding_unused_channel() {
    let diags = lint("p = chan h; a!1 -> STOP", &[]);
    let d = expect_code(&diags, LintCode::UselessHiding, 1, 5);
    assert!(d.message.contains("`h`"));
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn csp007_negative_hidden_channel_used() {
    expect_clean(&lint("p = chan a; a!1 -> STOP", &[]));
}

// ------------------------------------------------------ CSP008 / CSP009 --

const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier
recopier = wire?y:NAT -> output!y -> recopier
pipeline = chan wire; (copier || recopier)";

fn lint_pipeline_assertion(assert_src: &str) -> Vec<Diagnostic> {
    let (defs, spans) = parse_definitions_spanned(PIPELINE).unwrap();
    let info = ChannelInfo::new().with_channels(["input", "output", "wire", "outputt"]);
    let a = parse_assertion(assert_src, &info).unwrap();
    let linter = Linter::new(&defs).with_spans(&spans);
    let p = defs.get("pipeline").unwrap().body().clone();
    linter.lint_assertion("pipeline", &p, &a, &ChannelSet::new())
}

#[test]
fn csp008_assertion_outside_alphabet() {
    // `outputt` is a typo for `output`.
    let diags = lint_pipeline_assertion("outputt <= input");
    let d = expect_code(&diags, LintCode::AssertionOutsideAlphabet, 3, 1);
    assert!(d.message.contains("`outputt`"));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(diags.len(), 1);
}

#[test]
fn csp009_assertion_on_hidden_channel() {
    let diags = lint_pipeline_assertion("wire <= input");
    let d = expect_code(&diags, LintCode::AssertionOnHiddenChannel, 3, 1);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(diags.len(), 1);
}

#[test]
fn csp008_csp009_negative_in_scope_assertion() {
    expect_clean(&lint_pipeline_assertion("output <= input"));
}

// -------------------------------------------------------------- CSP010 --

#[test]
fn csp010_disjoint_initial_offers() {
    // Both sides insist on channel a with different values: deadlock at
    // step one, invisible to the trace model.
    let diags = lint("p = a!1 -> STOP || a?x:{2,3} -> STOP", &[]);
    let d = expect_code(&diags, LintCode::OfferMismatch, 1, 17);
    assert_eq!(d.severity, Severity::Warning);
}

#[test]
fn csp010_negative_compatible_or_independent_offers() {
    // Compatible values.
    let diags = lint("p = a!1 -> STOP || a?x:{1,2} -> STOP", &[]);
    assert!(!diags.iter().any(|d| d.code == LintCode::OfferMismatch));
    // Unknown input set: conservative, no warning.
    let diags = lint("p = a!1 -> STOP || a?x:NAT -> STOP", &[]);
    assert!(!diags.iter().any(|d| d.code == LintCode::OfferMismatch));
    // Private channels: each side can move alone.
    let diags = lint("p = a!1 -> STOP || b!2 -> STOP", &[]);
    assert!(!diags.iter().any(|d| d.code == LintCode::OfferMismatch));
    // The dining-philosophers shape deadlocks *later*; the syntactic
    // heuristic must stay quiet about it.
    let diags = lint(
        "fork[j:0..1] = grab[0][j]?x:{1} -> drop[0][j]?y:{1} -> fork[j]
                      | grab[1][j]?x:{1} -> drop[1][j]?y:{1} -> fork[j]
         phil0 = grab[0][0]!1 -> grab[0][1]!1 -> drop[0][0]!1 -> drop[0][1]!1 -> phil0
         phil1 = grab[1][1]!1 -> grab[1][0]!1 -> drop[1][1]!1 -> drop[1][0]!1 -> phil1
         table = fork[0] || fork[1] || phil0 || phil1",
        &[],
    );
    assert!(
        !diags.iter().any(|d| d.code == LintCode::OfferMismatch),
        "{diags:?}"
    );
}

// --------------------------------------------- span guarantee (ISSUE 7) --

/// No `span: None` escapes a spanned lint run: whatever a pass cannot
/// pin to a token must fall back to the definition's name span.
#[test]
fn every_diagnostic_from_a_spanned_run_carries_a_span() {
    // A battery covering every definition-level code (CSP001–CSP007,
    // CSP010), including shapes where inner SpanTree lookups can miss.
    let sources = [
        "p = c!0 -> ghost",
        "q[x:0..3] = wire!x -> q[x]\np = c!0 -> q",
        "p = c!x -> p",
        "p = q\nq = p",
        "p = a!1 -> STOP ||{a | b} b!2 -> c!3 -> STOP",
        "w1 = c!1 -> w1\nw2 = c!2 -> w2\nnet = w1 || w2",
        "p = chan h; a!1 -> STOP",
        "p = a!1 -> STOP || a?x:{2,3} -> STOP",
        "p = c!x -> ghost | chan h; STOP\nq = q",
        "deep = a?x:NAT -> (b!x -> ghost | chan h; (c!x -> STOP || c?y:{1} -> miss))",
    ];
    for src in sources {
        let diags = lint(src, &[]);
        assert!(!diags.is_empty(), "battery source lints clean: {src}");
        for d in &diags {
            assert!(d.span.is_some(), "span-less diagnostic {d} from {src:?}");
        }
    }
    // Assertion-level codes (CSP008/CSP009) get the same guarantee.
    for assert_src in ["outputt <= input", "wire <= input"] {
        for d in lint_pipeline_assertion(assert_src) {
            assert!(d.span.is_some(), "span-less assertion diagnostic {d}");
        }
    }
}

// ------------------------------------------------- recovery (ISSUE 7) --

/// A syntax error in the first definition must not eat the span-exact
/// diagnostics of the definitions after it.
#[test]
fn lint_survives_a_broken_first_definition() {
    let src = "broken = c!0 -> ->\np = d!0 -> ghost\nq = e!x -> q";
    let module = csp_lang::parse_module(src);
    assert_eq!(module.errors.len(), 1);
    let diags = Linter::new(&module.defs).with_spans(&module.map).run();
    let undefined = diags
        .iter()
        .find(|d| d.code == LintCode::UndefinedProcess)
        .expect("CSP001 from the second definition survives");
    assert_eq!(undefined.span.unwrap().line, 2);
    assert_eq!(undefined.span.unwrap().column, 12);
    let unbound = diags
        .iter()
        .find(|d| d.code == LintCode::UnboundVariable)
        .expect("CSP003 from the third definition survives");
    assert_eq!(unbound.span.unwrap().line, 3);
    // The broken definition contributes no findings of its own.
    assert!(diags.iter().all(|d| d.def.as_deref() != Some("broken")));
}

// ------------------------------------------------------- paper networks --

#[test]
fn paper_networks_lint_clean() {
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../paper.csp"))
        .expect("paper.csp readable");
    let (defs, spans) = parse_definitions_spanned(&src).unwrap();
    let env = examples::multiplier_env(&[2, 3, 5]);
    let diags = Linter::new(&defs).with_spans(&spans).with_env(&env).run();
    expect_clean(&diags);

    // The built-in fixtures and the generated networks, with the
    // multiplier's weight vector `v` as a host variable.
    let mut fixtures: Vec<(String, &[&str])> = vec![
        (examples::PIPELINE_SRC.to_string(), &[]),
        (examples::PROTOCOL_SRC.to_string(), &[]),
        (examples::MULTIPLIER_SRC.to_string(), &["v"]),
        (examples::BUFFER2_SRC.to_string(), &[]),
    ];
    fixtures.extend((1..=5).map(|n| (multiplier_src(n), &["v"][..])));
    fixtures.extend((1..=4).map(|n| (pipeline_src(n), &[][..])));
    for (src, host_vars) in &fixtures {
        let diags = lint(src, host_vars);
        assert!(diags.is_empty(), "{src}\nunexpected diagnostics: {diags:?}");
    }
}

#[test]
fn determinism_same_input_same_output() {
    let src = "p = c!x -> ghost | chan h; STOP\nq = q";
    let a = lint(src, &[]);
    let b = lint(src, &[]);
    assert_eq!(a, b);
    assert!(a.len() >= 3); // CSP001, CSP003, CSP004, CSP007
}
