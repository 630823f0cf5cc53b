//! End-to-end tests of the `csp` command-line driver.

use std::io::Write;
use std::process::Command;

fn write_fixture(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).expect("create fixture");
    f.write_all(contents.as_bytes()).expect("write fixture");
    path
}

fn csp(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_csp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier
recopier = wire?y:NAT -> output!y -> recopier
pipeline = chan wire; (copier || recopier)
";

/// The deprecated `validate` alias of `lint` is gone: it is now an
/// unknown subcommand like any other.
#[test]
fn validate_is_an_unknown_subcommand() {
    let f = write_fixture("pipeline.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&["validate", f.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown subcommand `validate`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("csp validate"), "{stderr}");
}

#[test]
fn check_holds_and_refutes() {
    let f = write_fixture("pipeline2.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("holds"));

    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "copier",
        "--assert",
        "input <= wire",
        "--depth",
        "3",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("counterexample"));
}

#[test]
fn prove_synthesises_from_the_command_line() {
    let f = write_fixture("pipeline3.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "prove",
        f.to_str().unwrap(),
        "--spec",
        "copier=wire <= input",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("recursion (10)"), "{stdout}");
    assert!(stdout.contains("cons-monotonicity"), "{stdout}");
}

#[test]
fn prove_rejects_false_invariants() {
    let f = write_fixture("pipeline4.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "prove",
        f.to_str().unwrap(),
        "--spec",
        "copier=input <= wire",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("proof failed"));
}

#[test]
fn run_executes_with_seed() {
    let f = write_fixture("pipeline5.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("12 event(s)"));
    assert!(stdout.contains("input"));
}

#[test]
fn deadlock_finds_jams() {
    let f = write_fixture(
        "jam.csp",
        "left = w!1 -> STOP\nright = w?x:{2} -> STOP\nnet = left || right\n",
    );
    let args = [
        "deadlock",
        f.to_str().unwrap(),
        "--process",
        "net",
        "--depth",
        "3",
        "--nat-bound",
        "3",
    ];
    let (stdout, _, code) = csp(&args);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("DEADLOCK"));
}

#[test]
fn traces_lists_maximal_behaviours() {
    let f = write_fixture("pipeline6.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "traces",
        f.to_str().unwrap(),
        "--process",
        "copier",
        "--depth",
        "2",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("traces of `copier`"));
}

/// `csp traces` lists the traces `csp check` judges: both budget hidden
/// steps at the same multiple of the depth, so four hidden `h`s before
/// the first visible event are within reach of each at depth 1.
#[test]
fn traces_lists_what_check_judges() {
    let f = write_fixture(
        "hidden_budget.csp",
        "q = h!0 -> h!0 -> h!0 -> h!0 -> a!0 -> q\np = chan h; q\n",
    );
    let path = f.to_str().unwrap();
    let (stdout, stderr, code) = csp(&["traces", path, "--process", "p", "--depth", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("2 traces of `p`"), "{stdout}");
    assert!(stdout.contains("<a.0>"), "{stdout}");
    let (stdout, stderr, code) = csp(&[
        "check",
        path,
        "--process",
        "p",
        "--depth",
        "1",
        "--assert",
        "#a == 0",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stdout.contains("<a.0>"), "{stdout}");
}

#[test]
fn named_sets_via_flag() {
    let f = write_fixture(
        "proto.csp",
        "sender = input?y:M -> q[y]
         q[x:M] = wire!x -> (wire?y:{ACK} -> sender | wire?y:{NACK} -> q[x])
         receiver = wire?z:M -> (wire!ACK -> output!z -> receiver | wire!NACK -> receiver)
         protocol = chan wire; (sender || receiver)\n",
    );
    let (stdout, _, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "protocol",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--set",
        "M=0,1",
        "--nat-bound",
        "0",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("holds"));
}

#[test]
fn usage_errors_exit_2() {
    let (_, stderr, code) = csp(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage"));
    let (_, stderr, code) = csp(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("missing subcommand"));
    let f = write_fixture("pipeline7.csp", PIPELINE);
    let (_, stderr, code) = csp(&["check", f.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("--process"));
}

/// Only a usage mistake prints the usage text. An error in what was
/// asked — an unreadable file, an unknown process — prints its one line
/// and still exits 2.
#[test]
fn setup_errors_print_one_line_without_the_usage() {
    let missing = std::env::temp_dir().join("hoare-csp-cli-tests/no-such-file.csp");
    let (stdout, stderr, code) = csp(&[
        "check",
        missing.to_str().unwrap(),
        "--process",
        "p",
        "--assert",
        "a <= b",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: cannot read "), "{stderr}");
    let f = write_fixture("pipeline_setup.csp", PIPELINE);
    let (_, stderr, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "nope",
        "--assert",
        "output <= input",
    ]);
    assert_eq!(code, Some(2));
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nope"), "{stderr}");
}

#[test]
fn usage_mistakes_still_print_the_usage() {
    let f = write_fixture("pipeline_usage.csp", PIPELINE);
    let (_, stderr, code) = csp(&["check", f.to_str().unwrap(), "--bogus"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.starts_with("error: unknown option `--bogus`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    // An unknown subcommand is a usage mistake even when its file is
    // unreadable.
    let (_, stderr, code) = csp(&["validate", "/no/such/file.csp"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown subcommand `validate`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn lint_clean_file_exits_zero() {
    let f = write_fixture("lint_clean.csp", PIPELINE);
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("ok (3 definition(s))"), "{stdout}");
}

#[test]
fn lint_errors_exit_one_with_spans() {
    let f = write_fixture("lint_bad.csp", "p = c!0 -> ghost\n");
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[CSP001] at 1:12"), "{stdout}");
    assert!(stdout.contains("ghost"), "{stdout}");
}

#[test]
fn lint_json_reports_codes_per_file_in_envelope() {
    let good = write_fixture("lint_json_good.csp", PIPELINE);
    let bad = write_fixture("lint_json_bad.csp", "p = c!0 -> ghost\n");
    let (stdout, _, code) = csp(&[
        "lint",
        "--json",
        good.to_str().unwrap(),
        bad.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    // One envelope line covering both files.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].starts_with("{\"schema\":\"csp/v1\",\"command\":\"lint\",\"data\":"),
        "{stdout}"
    );
    assert!(lines[0].contains("\"diagnostics\":[]"), "{stdout}");
    assert!(lines[0].contains("\"code\":\"CSP001\""), "{stdout}");
    assert!(lines[0].contains("\"severity\":\"error\""), "{stdout}");
    assert!(lines[0].contains("\"line\":1"), "{stdout}");
    assert!(lines[0].contains("\"column\":12"), "{stdout}");
}

/// The acceptance condition for the error-recovering front-end: a syntax
/// error in the first definition must not silence span-exact diagnostics
/// from the definitions after it.
#[test]
fn lint_recovers_past_a_broken_first_definition() {
    let f = write_fixture(
        "lint_recover.csp",
        "broken = c!0 -> ->\np = d!0 -> ghost\nq = e!1 -> q\n",
    );
    let (stdout, _, code) = csp(&["lint", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("error [parse]"), "{stdout}");
    assert!(stdout.contains("[CSP001] at 2:12"), "{stdout}");
}

#[test]
fn lint_json_carries_parse_errors_and_csp010_confirmations() {
    let f = write_fixture(
        "lint_recover_json.csp",
        "broken = c!0 -> ->\nnet = a!1 -> STOP || a?x:{2,3} -> STOP\n",
    );
    let (stdout, _, code) = csp(&["lint", "--json", f.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("\"errors\":[{\"message\":"), "{stdout}");
    assert!(stdout.contains("\"code\":\"CSP010\""), "{stdout}");
    assert!(
        stdout.contains("\"confirmation\":\"confirmed\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"witness\":"), "{stdout}");
}

#[test]
fn lint_deny_warnings_flips_exit_code() {
    let f = write_fixture("lint_warn.csp", "p = chan h; d!1 -> STOP\n");
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&["lint", path]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("[CSP007]"), "{stdout}");
    let (stdout, _, code) = csp(&["lint", "--deny", "warnings", path]);
    assert_eq!(code, Some(1), "{stdout}");
}

#[test]
fn lint_checks_assertion_scope() {
    let f = write_fixture("lint_scope.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "lint",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--assert",
        "wire <= input",
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stdout.contains("[CSP009]"), "{stdout}");
}

#[test]
fn lint_assert_without_process_is_a_usage_error() {
    let f = write_fixture("lint_no_process.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&["lint", f.to_str().unwrap(), "--assert", "wire <= input"]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("--process NAME is required"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `--process` and `--assert` name one claim to `lint` and `profile`:
/// half of it is a usage error naming the missing flag, not a claim
/// dropped unread.
#[test]
fn half_a_claim_is_a_usage_error() {
    let f = write_fixture("half_a_claim.csp", PIPELINE);
    let halves = [
        ("--process", "pipeline", "--assert EXPR"),
        ("--assert", "output <= input", "--process NAME"),
    ];
    for cmd in ["lint", "profile"] {
        for (flag, value, missing) in halves {
            let args = [cmd, f.to_str().unwrap(), "--depth", "1", flag, value];
            let (stdout, stderr, code) = csp(&args);
            assert_eq!(code, Some(2), "{args:?}: {stdout}");
            assert!(stdout.is_empty(), "{args:?}: {stdout}");
            assert!(
                stderr.contains(&format!("{missing} is required")),
                "{stderr}"
            );
        }
    }
}

#[test]
fn check_json_uses_the_envelope_with_metrics() {
    let f = write_fixture("check_json.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "check",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--json",
        "--metrics",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"check\",\"data\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"holds\":true"), "{stdout}");
    assert!(stdout.contains("\"metrics\":{\"counters\""), "{stdout}");
    assert!(stdout.contains("satcheck.moments"), "{stdout}");
}

#[test]
fn run_writes_trace_jsonl() {
    let f = write_fixture("run_trace.csp", PIPELINE);
    let out = std::env::temp_dir().join("hoare-csp-cli-tests/run_events.jsonl");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "10",
        "--seed",
        "1",
        "--nat-bound",
        "1",
        "--trace-out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let log = std::fs::read_to_string(&out).expect("trace log written");
    assert!(
        log.lines().any(|l| l.contains("\"name\":\"run.round\"")),
        "{log}"
    );
    assert!(log.lines().any(|l| l.contains("\"name\":\"run\"")), "{log}");
    assert!(stderr.contains("span(s)"), "{stderr}");
}

#[test]
fn run_metrics_table_reports_rounds() {
    let f = write_fixture("run_metrics.csp", PIPELINE);
    let (stdout, _, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "8",
        "--seed",
        "4",
        "--nat-bound",
        "1",
        "--metrics",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("run.scheduler_picks"), "{stdout}");
    assert!(stdout.contains("run.round"), "{stdout}");
}

/// `csp profile` phase names and span taxonomy are deterministic under a
/// single rayon thread — only the timing numbers may differ run to run.
#[test]
fn profile_is_stable_under_one_thread() {
    let f = write_fixture("profile.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded_a = dir.join("profile_a.folded");
    let folded_b = dir.join("profile_b.folded");
    let run = |folded: &std::path::Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_csp"))
            .args([
                "profile",
                f.to_str().unwrap(),
                "--depth",
                "3",
                "--nat-bound",
                "1",
                "--folded-out",
                folded.to_str().unwrap(),
            ])
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout_a = run(&folded_a);
    let stdout_b = run(&folded_b);
    for stdout in [&stdout_a, &stdout_b] {
        assert!(stdout.contains("parse"), "{stdout}");
        assert!(stdout.contains("fixpoint"), "{stdout}");
        assert!(stdout.contains("verify"), "{stdout}");
        assert!(stdout.contains("fixpoint.key"), "{stdout}");
        assert!(stdout.contains("folded stacks:"), "{stdout}");
    }
    // The folded stacks differ only in the self-time column.
    let stacks = |p: &std::path::Path| -> Vec<String> {
        std::fs::read_to_string(p)
            .expect("folded file written")
            .lines()
            .map(|l| l.rsplit_once(' ').expect("stack count").0.to_string())
            .collect()
    };
    assert_eq!(stacks(&folded_a), stacks(&folded_b));
    assert!(stacks(&folded_a)
        .iter()
        .any(|s| s.starts_with("fixpoint;fixpoint.iter")));
}

/// `--watch` always emits an initial and a final sample; the final one
/// is taken after the executor stops, so its counters are deterministic
/// under a fixed seed.
#[test]
fn run_watch_streams_status_to_stderr() {
    let f = write_fixture("run_watch.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let watch_lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("watch:")).collect();
    assert!(watch_lines.len() >= 2, "{stderr}");
    let last = watch_lines.last().unwrap();
    assert!(last.contains("round 12"), "{stderr}");
    assert!(last.contains("picks 12"), "{stderr}");
    assert!(last.contains("components 2/2 live"), "{stderr}");
    assert!(last.contains("events/s"), "{stderr}");
    assert!(last.contains("dropped 0"), "{stderr}");
    // The run's normal report is unaffected.
    assert!(stdout.contains("12 event(s)"), "{stdout}");
}

#[test]
fn run_exports_chrome_trace_and_prometheus() {
    let f = write_fixture("run_export.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let chrome = dir.join("run_export_trace.json");
    let prom = dir.join("run_export.prom");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "10",
        "--seed",
        "1",
        "--nat-bound",
        "1",
        "--chrome-out",
        chrome.to_str().unwrap(),
        "--prom-out",
        prom.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stderr.contains("wrote Chrome trace"), "{stderr}");
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace written");
    assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
    assert!(trace.contains("\"ph\":\"M\""), "{trace}");
    assert!(trace.contains("\"name\":\"run.round\""), "{trace}");
    let exposition = std::fs::read_to_string(&prom).expect("prometheus written");
    assert!(
        exposition.contains("csp_counter{name=\"run.rounds\"} 10"),
        "{exposition}"
    );
    assert!(
        exposition.contains("csp_span_count{name=\"run.round\"} 10"),
        "{exposition}"
    );
    assert!(
        exposition.contains("# TYPE csp_counter counter"),
        "{exposition}"
    );
}

/// `--diff` against a handcrafted baseline shows exact signed deltas:
/// a span and a counter present only in the baseline come out as pure
/// negatives.
#[test]
fn profile_diff_prints_signed_deltas() {
    let f = write_fixture("profile_diff.csp", PIPELINE);
    let baseline = write_fixture(
        "profile_diff_baseline.json",
        "{\"counters\":{\"watch.sentinel\":1000000},\"histograms\":{},\
         \"spans\":{\"made.up\":{\"count\":3,\"total_ns\":5000000000,\"max_ns\":1000}}}",
    );
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--diff",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("diff vs"), "{stdout}");
    assert!(stdout.contains("(noise 1.0 ms)"), "{stdout}");
    // The baseline-only span: -3 closures, exactly -5000 ms.
    assert!(stdout.contains("made.up"), "{stdout}");
    assert!(stdout.contains("-3"), "{stdout}");
    assert!(stdout.contains("-5000.000"), "{stdout}");
    assert!(stdout.contains("-100.0%"), "{stdout}");
    // The baseline-only counter comes out negative; real fixpoint spans
    // appear as new time against the empty baseline.
    assert!(stdout.contains("watch.sentinel"), "{stdout}");
    assert!(stdout.contains("-1000000"), "{stdout}");
    assert!(stdout.contains("fixpoint"), "{stdout}");
}

#[test]
fn profile_diff_json_embeds_the_delta() {
    let f = write_fixture("profile_diff_json.csp", PIPELINE);
    let baseline = write_fixture(
        "profile_diff_json_baseline.json",
        "{\"counters\":{},\"histograms\":{},\"spans\":{}}",
    );
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff_json.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--diff",
        baseline.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"diff\":{\"baseline\":"), "{stdout}");
    assert!(stdout.contains("\"noise_ms\":1.000"), "{stdout}");
    assert!(stdout.contains("\"table\":"), "{stdout}");
}

/// A `csp profile --json` envelope is itself a valid `--diff` baseline
/// (the metrics are found under `data.metrics`).
#[test]
fn profile_diff_accepts_a_prior_json_envelope() {
    let f = write_fixture("profile_diff_env.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_diff_env.folded");
    let run = |extra: &[&str]| {
        let mut args = vec![
            "profile",
            f.to_str().unwrap(),
            "--depth",
            "3",
            "--nat-bound",
            "1",
            "--folded-out",
            folded.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        csp(&args)
    };
    let (envelope, _, code) = run(&["--json"]);
    assert_eq!(code, Some(0), "{envelope}");
    let baseline = dir.join("profile_diff_env_baseline.json");
    std::fs::write(&baseline, &envelope).expect("baseline written");
    let (stdout, _, code) = run(&["--diff", baseline.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("diff vs"), "{stdout}");
}

#[test]
fn bench_report_renders_the_history_trajectory() {
    let hist = write_fixture(
        "bench_report_history.jsonl",
        "{\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500000000, \
          \"samples\": 2, \"total_wall_ms\": 120.500, \
          \"benches\": {\"fixpoint.depth4\": 60.000, \"run.steps256\": 60.500}}\n\
         {\"schema\": \"csp-bench-history/v1\", \"unix_ms\": 1754500600000, \
          \"samples\": 2, \"total_wall_ms\": 130.010, \
          \"benches\": {\"fixpoint.depth4\": 62.000, \"run.steps256\": 68.010}}\n",
    );
    let (stdout, _, code) = csp(&["bench", "report", "--history", hist.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("2 run(s)"), "{stdout}");
    assert!(stdout.contains("+7.9%"), "{stdout}");
    assert!(stdout.contains("fixpoint.depth4"), "{stdout}");
    assert!(stdout.contains("60.000 →"), "{stdout}");
    assert!(stdout.contains("+3.3%"), "{stdout}");
    assert!(stdout.contains("+12.4%"), "{stdout}");
}

/// The process picks the `sat` backend, and the `--engine` flag that was
/// accepted and ignored for one release is gone: on every subcommand it
/// is an unknown option, a usage error that exits 2 before anything
/// runs.
#[test]
fn engine_flag_is_a_usage_error() {
    let f = write_fixture("engine_flag.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let runs: [&[&str]; 10] = [
        &["lint", path],
        &["traces", path, "--process", "pipeline"],
        &[
            "check",
            path,
            "--process",
            "pipeline",
            "--assert",
            "output <= input",
        ],
        &["prove", path, "--spec", "copier=wire <= input"],
        &["run", path, "--process", "pipeline", "--steps", "4"],
        &["deadlock", path, "--process", "pipeline"],
        &["profile", path],
        &["serve", "--addr", "127.0.0.1:0"],
        &["bench", "report"],
        &["lsp"],
    ];
    for run in runs {
        let (stdout, stderr, code) = csp(&[run, &["--engine", "compiled"]].concat());
        assert_eq!(code, Some(2), "{run:?}: {stdout}{stderr}");
        assert!(stdout.is_empty(), "{run:?}: {stdout}");
        assert!(stderr.contains("`--engine`"), "{run:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{run:?}: {stderr}");
    }
    let (_, usage, _) = csp(&[]);
    assert!(!usage.contains("--engine"), "{usage}");
}

/// The process picks the backend: compiled for the hidden `pipeline`
/// network, enumerative for the sequential `copier` — and the report
/// names the engine that answered.
#[test]
fn check_auto_engine_resolves_per_process_shape() {
    let f = write_fixture("engine_auto.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "pipeline",
        "--assert",
        "output <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("engine compiled)"), "{stdout}");

    let (stdout, _, code) = csp(&[
        "check",
        path,
        "--process",
        "copier",
        "--assert",
        "wire <= input",
        "--depth",
        "3",
        "--nat-bound",
        "1",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("engine enumerative)"), "{stdout}");
}

/// The `csp/v1` check envelope records the engine that ran, so machine
/// consumers can split verdicts per backend.
#[test]
fn check_json_envelope_reports_the_engine() {
    let f = write_fixture("engine_json.csp", PIPELINE);
    let path = f.to_str().unwrap();
    for (process, assertion, engine) in [
        ("pipeline", "output <= input", "compiled"),
        ("copier", "wire <= input", "enumerative"),
    ] {
        let (stdout, _, code) = csp(&[
            "check",
            path,
            "--process",
            process,
            "--assert",
            assertion,
            "--depth",
            "3",
            "--nat-bound",
            "1",
            "--json",
        ]);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(
            stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"check\",\"data\":"),
            "{stdout}"
        );
        assert!(stdout.contains("\"holds\":true"), "{stdout}");
        assert!(
            stdout.contains(&format!("\"engine\":\"{engine}\"")),
            "{stdout}"
        );
    }
}

/// A proof says what its verdict rests on: the copier's four pure
/// premises all discharge by syntactic laws, and the copier's length
/// bound's by the symbolic stage, with no bounded enumeration.
#[test]
fn prove_json_reports_what_the_premises_rest_on() {
    let f = write_fixture("discharge_prove.csp", PIPELINE);
    let prove = |spec: &str| {
        let (stdout, _, code) = csp(&[
            "prove",
            f.to_str().unwrap(),
            "--spec",
            spec,
            "--nat-bound",
            "1",
            "--json",
        ]);
        assert_eq!(code, Some(0), "{stdout}");
        stdout
    };
    let copier = prove("copier=wire <= input");
    assert!(
        copier.contains(
            "\"rules\":5,\"discharge\":{\"syntactic\":4,\"symbolic\":0,\"bounded\":0,\
             \"bounded_cases\":0,\"binder\":0,\"membership\":0},\"report\":"
        ),
        "{copier}"
    );
    let length = prove("copier=#input <= #wire + 1");
    assert!(
        length.contains(
            "\"discharge\":{\"syntactic\":0,\"symbolic\":4,\"bounded\":0,\
             \"bounded_cases\":0,\"binder\":0,\"membership\":0}"
        ),
        "{length}"
    );
    assert!(length.contains("symbolic: difference-bounds"), "{length}");
}

/// `csp check|prove --json` and `csp serve` give one answer: the same
/// `data`, member for member and in the same order, for a claim that
/// holds and one that is refuted, a proof that checks and one that
/// fails.
#[test]
fn both_front_ends_give_one_answer() {
    let f = write_fixture("front_ends.csp", PIPELINE);
    let path = f.to_str().unwrap();
    let state = csp::serve::ServeState::new(16, 2);
    let data = |text: &str| {
        csp::obs::parse_json(text.trim())
            .unwrap_or_else(|e| panic!("{e:?} in {text}"))
            .get("data")
            .cloned()
            .unwrap_or_else(|| panic!("no data in {text}"))
    };
    let source = csp::obs::json_string(PIPELINE);
    for assertion in ["output <= input", "input <= output"] {
        let (stdout, _, _) = csp(&[
            "check",
            path,
            "--process",
            "pipeline",
            "--assert",
            assertion,
            "--depth",
            "3",
            "--nat-bound",
            "1",
            "--json",
        ]);
        let body = format!(
            "{{\"source\":{source},\"process\":\"pipeline\",\"assertion\":{},\
             \"depth\":3,\"nat_bound\":1}}",
            csp::obs::json_string(assertion)
        );
        let served = state.post("/v1/check", &body);
        assert_eq!(served.status, 200);
        assert_eq!(
            data(&stdout),
            data(&String::from_utf8_lossy(&served.body)),
            "check {assertion}"
        );
    }
    for assertion in ["wire <= input", "input <= wire"] {
        let (stdout, _, _) = csp(&[
            "prove",
            path,
            "--spec",
            &format!("copier={assertion}"),
            "--nat-bound",
            "1",
            "--json",
        ]);
        let body = format!(
            "{{\"source\":{source},\"specs\":[{{\"process\":\"copier\",\"assertion\":{}}}],\
             \"nat_bound\":1}}",
            csp::obs::json_string(assertion)
        );
        let served = state.post("/v1/prove", &body);
        assert_eq!(served.status, 200);
        assert_eq!(
            data(&stdout),
            data(&String::from_utf8_lossy(&served.body)),
            "prove copier sat {assertion}"
        );
    }
}

#[test]
fn bench_report_rejects_unknown_subcommands() {
    let (_, stderr, code) = csp(&["bench", "mystery"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown bench subcommand"), "{stderr}");
}

/// Frames a batch of LSP messages in base-protocol headers.
fn lsp_frames(bodies: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for b in bodies {
        out.extend_from_slice(format!("Content-Length: {}\r\n\r\n{b}", b.len()).as_bytes());
    }
    out
}

/// Drives `csp lsp` over real stdio through initialize → didOpen →
/// publishDiagnostics → shutdown → exit, on a document carrying both a
/// syntax error and a CSP001. CI runs exactly this test as its LSP gate.
#[test]
fn lsp_round_trip_over_stdio() {
    use std::process::Stdio;
    let text = "broken = c!0 -> ->\\np = d!0 -> ghost";
    let bodies = vec![
        r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#.to_string(),
        format!(
            r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":"file:///m.csp","languageId":"csp","version":1,"text":"{text}"}}}}}}"#
        ),
        r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":null}"#.to_string(),
        r#"{"jsonrpc":"2.0","method":"exit","params":null}"#.to_string(),
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_csp"))
        .arg("lsp")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(&lsp_frames(&bodies))
        .expect("requests written");
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "clean exit after shutdown handshake");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"hoverProvider\":true"), "{stdout}");
    assert!(stdout.contains("publishDiagnostics"), "{stdout}");
    assert!(stdout.contains("\"code\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"CSP001\""), "{stdout}");
}

/// Off-TTY, `--watch` must degrade to plain one-line-per-sample output:
/// no `\r` repaints, no ANSI erase sequences. This is what keeps piped
/// CI logs readable.
#[test]
fn run_watch_piped_stderr_has_no_ansi_repaints() {
    let f = write_fixture("run_watch_plain.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        !stderr.contains('\u{1b}'),
        "ANSI escape in piped stderr: {stderr:?}"
    );
    assert!(
        !stderr.contains('\r'),
        "carriage return in piped stderr: {stderr:?}"
    );
    assert!(
        stderr.lines().filter(|l| l.starts_with("watch:")).count() >= 2,
        "{stderr}"
    );
}

/// Boots the real `csp serve` binary on an OS-assigned port, parses the
/// machine-readable listening line off stdout, and round-trips a
/// cold/warm lint pair plus a Prometheus scrape through it.
#[test]
fn serve_binary_round_trip() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_csp"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut line)
        .expect("listening line");
    // "csp serve: listening on http://HOST:PORT (workers 2, cache-cap 1024)"
    assert!(
        line.starts_with("csp serve: listening on http://"),
        "{line}"
    );
    assert!(line.contains("workers 2"), "{line}");
    let url = line
        .split_whitespace()
        .find(|w| w.starts_with("http://"))
        .expect("url in listening line")
        .to_string();

    let result = std::panic::catch_unwind(move || {
        let mut client = csp::serve::Client::connect(&url).expect("connect");
        let health = client.get("/healthz").expect("healthz");
        assert_eq!(health.status, 200, "{}", health.body);
        let body = format!("{{\"source\":\"{}\"}}", PIPELINE.replace('\n', "\\n"));
        let cold = client.post("/v1/lint", &body).expect("cold lint");
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert_eq!(cold.header("X-Csp-Cache"), Some("miss"), "{}", cold.body);
        assert!(
            cold.body.contains("\"command\":\"serve.lint\""),
            "{}",
            cold.body
        );
        let warm = client.post("/v1/lint", &body).expect("warm lint");
        assert_eq!(warm.header("X-Csp-Cache"), Some("hit"));
        assert_eq!(cold.body, warm.body);
        let metrics = client.get("/metrics").expect("metrics");
        assert!(
            metrics
                .body
                .contains("csp_counter{name=\"serve.cache.hit\"} 1"),
            "{}",
            metrics.body
        );
    });
    child.kill().expect("server killed");
    let _ = child.wait();
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
}

/// `csp profile` keeps the verify phase's answer, as `/v1/profile`
/// does: with hidden steps budgeted at four per visible event, `p`
/// has four traces at depth 1 (`tests/serve.rs` pins the same count).
#[test]
fn profile_reports_the_verify_phase_result() {
    let f = write_fixture(
        "profile_result.csp",
        "q = h!0 -> h!0 -> h!0 -> h!0 -> a!0 -> q\np = chan h; q\n",
    );
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_result.folded");
    let args = [
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
    ];
    let (stdout, stderr, code) = csp(&[&args[..], &["--json"]].concat());
    assert_eq!(code, Some(0), "{stderr}");
    assert!(
        stdout.contains("{\"name\":\"verify\",") && stdout.contains(",\"result\":4}"),
        "{stdout}"
    );
    let (stdout, stderr, code) = csp(&args);
    assert_eq!(code, Some(0), "{stderr}");
    let verify = stdout
        .lines()
        .find(|l| l.starts_with("verify "))
        .unwrap_or_else(|| panic!("{stdout}"));
    assert!(verify.ends_with(" 4"), "{verify}");
}

/// An assertion applying a function nobody declared is refused as an
/// unknown function at the function's name, by `check` and by `lint`.
#[test]
fn an_undeclared_function_is_named_in_the_refusal() {
    let paper = concat!(env!("CARGO_MANIFEST_DIR"), "/paper.csp");
    for command in ["check", "lint"] {
        let (stdout, stderr, code) = csp(&[
            command,
            paper,
            "--process",
            "copier",
            "--assert",
            "g(wire) <= input",
        ]);
        assert_eq!(code, Some(2), "{command}: {stdout}");
        assert!(
            stderr.contains("assertion parse error at token 0: unknown sequence function `g`"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn profile_json_envelope_reports_phases() {
    let f = write_fixture("profile_json.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let folded = dir.join("profile_json.folded");
    let (stdout, _, code) = csp(&[
        "profile",
        f.to_str().unwrap(),
        "--depth",
        "3",
        "--nat-bound",
        "1",
        "--folded-out",
        folded.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.starts_with("{\"schema\":\"csp/v1\",\"command\":\"profile\",\"data\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"name\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"fixpoint\""), "{stdout}");
    assert!(stdout.contains("\"name\":\"verify\""), "{stdout}");
    assert!(stdout.contains("\"alloc_bytes\":"), "{stdout}");
    assert!(stdout.contains("\"metrics\":{\"counters\""), "{stdout}");
    assert!(folded.exists());
}

/// Every `--json` envelope is JSON, also when user text holds a
/// character Rust's `{:?}` escapes its own way (`\u{85}`, `\u{1}`): an
/// assertion with U+0085, which the assertion lexer reads as
/// whitespace, and a parse error quoting U+0001.
#[test]
fn json_envelopes_escape_user_text() {
    let f = write_fixture("json_escapes.csp", PIPELINE);
    let bad = write_fixture("json_escapes_bad.csp", "p = a!0 -> STOP\n\u{1}\n");
    let folded = std::env::temp_dir()
        .join("hoare-csp-cli-tests")
        .join("json_escapes.folded");
    let (f, bad, folded) = (
        f.to_str().unwrap(),
        bad.to_str().unwrap(),
        folded.to_str().unwrap(),
    );
    let assertion = "output\u{85}<= input";
    let spec = "copier=wire\u{85}<= input";
    let runs: [&[&str]; 3] = [
        &[
            "check",
            f,
            "--process",
            "pipeline",
            "--assert",
            assertion,
            "--depth",
            "2",
            "--nat-bound",
            "1",
            "--json",
        ],
        &["prove", f, "--spec", spec, "--nat-bound", "1", "--json"],
        &["profile", bad, "--folded-out", folded, "--json"],
    ];
    let mut data = Vec::new();
    for args in runs {
        let (stdout, _, _) = csp(args);
        let v = csp::obs::parse_json(stdout.trim())
            .unwrap_or_else(|e| panic!("{}: {e:?} in {stdout}", args[0]));
        data.push(v.get("data").cloned().expect("envelope data"));
    }
    let text = |v: &csp::obs::JsonValue| v.as_str().map(str::to_string);
    assert_eq!(
        data[0].get("assertion").and_then(text),
        Some(assertion.into())
    );
    let spec_assertion = data[1]
        .get("specs")
        .and_then(|s| s.as_array()?[0].get("assertion"));
    assert_eq!(
        spec_assertion.and_then(text),
        Some("wire\u{85}<= input".into())
    );
    let parse_error = data[2]
        .get("phases")
        .and_then(|p| p.as_array()?[0].get("error"));
    assert!(
        parse_error
            .and_then(text)
            .is_some_and(|e| e.contains('\u{1}')),
        "{:?}",
        data[2]
    );
}

#[test]
fn run_monitor_msc_and_json_envelope() {
    let f = write_fixture("run_monitor.csp", PIPELINE);
    let dir = std::env::temp_dir().join("hoare-csp-cli-tests");
    let msc = dir.join("run_monitor.mmd");
    let causal = dir.join("run_monitor.jsonl");
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "16",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--monitor=output <= input",
        "--fault-plan",
        "crash:copier@6;restart:replay",
        "--msc-out",
        msc.to_str().unwrap(),
        "--causal-out",
        causal.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    // The envelope carries the supervision summary and monitor verdict.
    assert!(
        stdout.contains("\"schema\":\"csp/v1\",\"command\":\"run\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"supervision\":{\"deaths\":1,\"recovered\":1,"),
        "{stdout}"
    );
    assert!(stdout.contains("\"verdict\":\"conforming\""), "{stdout}");
    assert!(stdout.contains("\"violation\":null"), "{stdout}");
    // The exports landed: a Mermaid chart and a JSONL log with header.
    let mmd = std::fs::read_to_string(&msc).unwrap();
    assert!(mmd.starts_with("sequenceDiagram"), "{mmd}");
    assert!(mmd.contains("participant P0 as copier"), "{mmd}");
    let log = std::fs::read_to_string(&causal).unwrap();
    assert!(log
        .lines()
        .next()
        .unwrap()
        .contains("\"labels\":[\"copier\",\"recopier\"]"));
    assert!(log.contains("\"kind\":\"comm\""), "{log}");
    assert!(stderr.contains("wrote MSC"), "{stderr}");
}

#[test]
fn run_monitor_violation_exits_one_and_names_the_event() {
    let f = write_fixture("run_violation.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "16",
        "--seed",
        "7",
        "--monitor=#output <= 1",
    ]);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("monitor: violated"), "{stdout}");
    assert!(stdout.contains("falsified"), "{stdout}");
}

/// Two independent hidden loops give 2^32 τ-paths within the monitor's
/// budget of concealed steps per event, through one state: the monitor
/// steps states, not paths, so a monitored run finishes.
#[test]
fn run_monitor_finishes_on_two_hidden_loops() {
    let f = write_fixture(
        "run_two_loops.csp",
        "spin1 = h1!0 -> spin1
sink1 = h1?x:{0} -> sink1
spin2 = h2!0 -> spin2
sink2 = h2?x:{0} -> sink2
out = o!0 -> out
net = chan h1, h2; (spin1 || sink1 || spin2 || sink2 || out)
",
    );
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "net",
        "--steps",
        "64",
        "--monitor",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("monitor: conforming"), "{stdout}");
}

#[test]
fn run_watch_reports_busiest_channel() {
    let f = write_fixture("run_watch_chan.csp", PIPELINE);
    let (stdout, stderr, code) = csp(&[
        "run",
        f.to_str().unwrap(),
        "--process",
        "pipeline",
        "--steps",
        "12",
        "--seed",
        "7",
        "--nat-bound",
        "1",
        "--watch=10",
    ]);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    let last = stderr.lines().rfind(|l| l.starts_with("watch:")).unwrap();
    // The final sample derives throughput from the per-channel
    // counters; the hidden wire carries a third of all events.
    assert!(last.contains("busiest "), "{stderr}");
    assert!(last.contains("(4 ev)"), "{stderr}");
}

/// A reader that stops after one line closes the pipe (`csp traces … |
/// head -1`): what follows is dropped quietly and the command exits with
/// its own status, where it panicked on its next write. A refuted check
/// still exits 1, so a `pipefail` script reads the verdict. Each output
/// outgrows the pipe, so its writes meet the closed pipe whatever the
/// timing.
#[test]
fn a_closed_pipe_ends_the_output_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let paper = concat!(env!("CARGO_MANIFEST_DIR"), "/paper.csp");
    let looping = write_fixture(
        "closed-pipe.csp",
        "p = a!0 -> b!0 -> c!0 -> d!0 -> e!0 -> f!0 -> g!0 -> h!0 -> p\n",
    );
    let looping = looping.to_str().unwrap();
    for (args, first_line, code) in [
        (
            &[
                "traces",
                paper,
                "--process",
                "multiplier",
                "--bind",
                "v=2,3,5",
                "--depth",
                "6",
            ][..],
            "traces of `multiplier` to depth 6",
            0,
        ),
        (
            &["run", paper, "--process", "pipeline", "--steps", "20000"][..],
            "20000 event(s)",
            0,
        ),
        // Refuted by a trace of 5,993 events, printed with one table row
        // per event: about 210 kB.
        (
            &[
                "check",
                looping,
                "--process",
                "p",
                "--depth",
                "6000",
                "--assert",
                "#a < 750",
            ][..],
            "REFUTED: p sat #a < 750",
            1,
        ),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_csp"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("one line");
        // The reader is gone: the pipe is closed.
        let out = child.wait_with_output().expect("csp exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(first.contains(first_line), "{args:?}: {first}");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}
