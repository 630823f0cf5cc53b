//! Executable version of `docs/TUTORIAL.md` — every claim the tutorial
//! makes is asserted here so the document cannot rot.

use csp::prelude::*;
use csp::{render_report, Assertion, Proof, STerm};

const SPLITTER: &str = "splitter = in?x:NAT -> low!(x % 2) -> high!(x / 2) -> splitter";
const INV: &str = "#low <= #in and #high <= #low";

#[test]
fn section_1_2_define_and_inspect_traces() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    let traces = wb.traces("splitter", 3).unwrap();
    assert!(traces.is_prefix_closed());
    // The example trace from the tutorial text: <in.2, low.0, high.1>.
    assert!(traces.contains(&Trace::parse_like([
        ("in", Value::nat(2)),
        ("low", Value::nat(0)),
        ("high", Value::nat(1)),
    ])));
}

#[test]
fn section_3_model_check_both_ways() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    assert!(wb.check_sat("splitter", INV, 5).unwrap().holds());
    // The deliberately wrong direction has a counterexample.
    assert!(!wb.check_sat("splitter", "#in <= #low", 5).unwrap().holds());
}

#[test]
fn section_4_prove_auto_and_render() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    let report = wb.prove_auto(&[("splitter", INV)]).unwrap();
    let rendered = render_report("splitter invariant", &report);
    assert!(rendered.contains("recursion (10)"));
    assert!(rendered.contains("input (6)"));
    assert!(rendered.contains("output (5)"));
}

#[test]
fn section_4_manual_copier_proof_shape() {
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    let wire_le_input = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
    let proof = Proof::recursion(
        "copier",
        wire_le_input.clone(),
        Proof::input(
            "v",
            Proof::output(Proof::consequence(wire_le_input.clone(), Proof::Hypothesis)),
        ),
    );
    let goal = Judgement::sat(Process::call("copier"), wire_le_input);
    assert!(wb.prove(&goal, &proof).is_ok());
}

#[test]
fn section_6_execute_and_conform() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    let run = wb
        .run(
            "splitter",
            RunOptions {
                max_steps: 30,
                scheduler: Scheduler::seeded(42),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert!(!run.deadlocked);
    let conf = wb.conformance("splitter", &run, [INV]).unwrap();
    assert!(conf.conforms());
}

#[test]
fn section_7_limits() {
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    let report = wb.deadlocks("splitter", 5).unwrap();
    assert!(report.deadlock_free());
}

#[test]
fn section_11_profile_the_library_claims() {
    // §11's library-side claims: a session records the span taxonomy,
    // results carry their own snapshot via `Metered`, and the counter
    // table renders the names the tutorial quotes.
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(SPLITTER).unwrap();
    let session = wb.session();
    let run = session.fixpoint(3, 16).unwrap();
    assert!(run.metrics().counter("fixpoint.iterations") > 0);

    let metrics = session.metrics();
    let table = metrics.render_table();
    assert!(table.contains("fixpoint.iter"));
    assert!(table.contains("trace.unions"));
    // The folded sink emits the `stack;stack;leaf self-ns` format.
    assert!(session
        .folded_stacks()
        .lines()
        .any(|l| l.starts_with("fixpoint;fixpoint.iter ")));
}

/// The response body §14 quotes for `command`.
fn quoted_response(command: &str) -> &'static str {
    let envelope = format!("{{\"schema\":\"csp/v1\",\"command\":\"{command}\",");
    include_str!("../docs/TUTORIAL.md")
        .lines()
        .find(|line| line.starts_with(&envelope))
        .unwrap_or_else(|| panic!("TUTORIAL.md quotes no {command} response"))
}

#[test]
fn section_14_verification_service_claims() {
    // §14's walkthrough, executed over a real socket: the listening
    // line's URL shape, the cold/warm lint pair (miss → hit,
    // byte-identical, an edit re-keys to miss), the quoted check and
    // prove envelopes, /healthz, and the /metrics cache ledger.
    use csp::serve::{Client, CspServer, ServeConfig};
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_cap: 1024,
    };
    let handle = CspServer::bind(&cfg).expect("bind").spawn().expect("spawn");
    let mut client = Client::connect(&handle.url()).expect("connect");

    let source = "copier = input?x:NAT -> wire!x -> copier\\n\
                  recopier = wire?y:NAT -> output!y -> recopier\\n\
                  pipeline = chan wire; (copier || recopier)\\n";
    let lint = format!("{{\"source\":\"{source}\"}}");
    let cold = client.post("/v1/lint", &lint).expect("cold lint");
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("X-Csp-Cache"), Some("miss"));
    assert_eq!(cold.body, quoted_response("serve.lint"));
    let warm = client.post("/v1/lint", &lint).expect("warm lint");
    assert_eq!(warm.header("X-Csp-Cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "hits are byte-identical");
    // Any edit moves the content hash: no staleness, nothing to evict.
    let edited = format!("{{\"source\":\"{source}probe = p!0 -> probe\\n\"}}");
    let relint = client.post("/v1/lint", &edited).expect("re-lint");
    assert_eq!(relint.header("X-Csp-Cache"), Some("miss"));

    // The quoted §14 check and prove responses, byte for byte; the
    // quoted prove response elides its report after the title.
    let check = client
        .post(
            "/v1/check",
            &format!(
                "{{\"source\":\"{source}\",\"process\":\"pipeline\",\
                 \"assertion\":\"output <= input\",\"depth\":3,\"nat_bound\":1}}"
            ),
        )
        .expect("check");
    assert_eq!(check.body, quoted_response("serve.check"));
    let prove = client
        .post(
            "/v1/prove",
            &format!(
                "{{\"source\":\"{source}\",\"specs\":[{{\"process\":\"copier\",\
                 \"assertion\":\"wire <= input\"}}],\"nat_bound\":1}}"
            ),
        )
        .expect("prove");
    let (head, tail) = quoted_response("serve.prove")
        .split_once('…')
        .expect("the quoted report is elided");
    assert!(prove.body.starts_with(head), "{}", prove.body);
    assert!(prove.body.ends_with(tail), "{}", prove.body);
    assert!(
        prove.body[head.len()..].contains("pure premises:"),
        "{}",
        prove.body
    );

    let health = client.get("/healthz").expect("healthz");
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    // The cache ledger partitions the request count.
    let metrics = client.get("/metrics").expect("metrics");
    let counter = |name: &str| -> u64 {
        metrics
            .body
            .lines()
            .find_map(|l| l.strip_prefix(&format!("csp_counter{{name=\"{name}\"}} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    assert_eq!(
        counter("serve.cache.hit") + counter("serve.cache.miss") + counter("serve.cache.bypass"),
        counter("serve.requests"),
        "{}",
        metrics.body
    );
    assert_eq!(counter("serve.cache.hit"), 1, "{}", metrics.body);
    handle.stop();
}

#[test]
fn section_15_engine_selection_claims() {
    // §15's claims: the process picks the backend and the verdict names
    // it — compiled for the hidden network (the quoted "17 traces"),
    // enumerative for the sequential copier — and deadlock search runs
    // on the compiled engine with nothing to choose.
    let mut wb = Workbench::new().with_universe(Universe::new(1));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();

    let net = wb.check_sat("pipeline", "output <= input", 3).unwrap();
    assert_eq!(net.engine(), Engine::Compiled);
    match net {
        SatResult::Holds { traces_checked, .. } => assert_eq!(traces_checked, 17),
        SatResult::Counterexample { trace, .. } => panic!("refuted: {trace}"),
    }
    let seq = wb.check_sat("copier", "wire <= input", 3).unwrap();
    assert!(seq.holds());
    assert_eq!(seq.engine(), Engine::Enumerative);

    assert!(wb.deadlocks("pipeline", 3).unwrap().deadlock_free());
}

#[test]
fn section_13_language_server_claims() {
    // §13's analysis claims, asserted against the same `AnalysisDb` the
    // server uses: hover data (alphabet + trace-depth bound), recovery
    // past a broken equation, and single-definition incrementality.
    let mut db = csp::AnalysisDb::new();
    db.set_source(SPLITTER);
    assert!(db.parse_errors().is_empty());
    assert_eq!(db.alphabet("splitter").unwrap().len(), 3);
    // in?x, low!…, high!… — three communications per unfolding.
    assert_eq!(db.prefix_depth("splitter"), Some(3));

    // A broken first equation does not silence later findings.
    let broken = format!("broken = in?x ->\n{SPLITTER}\nlonely = gone!0 -> ghost");
    db.set_source(&broken);
    assert!(!db.parse_errors().is_empty());
    assert!(db.diagnostics().iter().any(|d| d.code.code() == "CSP001"));
    assert!(db.definitions().get("splitter").is_some());

    // Editing one definition re-lints it (and callers), not the module.
    let edited = broken.replace("gone!0", "gone!1");
    let stats = db.set_source(&edited);
    assert_eq!(stats.relinted, 1);
    assert!(stats.cached >= 2);
}

#[test]
fn section_16_causal_monitor_claims() {
    // §16's claims, asserted against the exact commands quoted there:
    // the seeded crash-and-replay run conforms with 16 events checked,
    // its MSC opens with the quoted participant lines and a death note,
    // the log validates, and the `#output <= 2` variant is violated at
    // step 9 / visible #6.
    let mut wb = Workbench::new().with_universe(Universe::new(2));
    wb.define_source(csp::examples::PIPELINE_SRC).unwrap();
    let run_with = |spec: MonitorSpec| {
        wb.run(
            "pipeline",
            RunOptions {
                max_steps: 24,
                scheduler: Scheduler::seeded(7),
                faults: FaultPlan::parse("crash:copier@6;restart:replay").unwrap(),
                monitor: Some(spec),
                ..RunOptions::default()
            },
        )
        .unwrap()
    };

    let res = run_with(wb.monitor_spec(["output <= input"]).unwrap());
    let monitor = res.monitor.as_ref().unwrap();
    assert!(monitor.is_conforming());
    assert_eq!(monitor.events_checked, 16);
    assert_eq!(res.causal.len(), 26);
    assert_eq!(res.causal.dropped(), 0);
    res.causal.validate().expect("clock-consistent");
    let mmd = csp::msc::render_mermaid(&res.causal);
    assert!(mmd.starts_with(
        "sequenceDiagram\n    participant P0 as copier\n    participant P1 as recopier\n"
    ));
    assert!(mmd.contains("Note over P0: death: injected crash"));
    assert!(mmd.contains("Note over P0: restart"));
    // The chart round-trips the happens-before relation, as promised.
    let parsed = csp::msc::parse_mermaid(&mmd).unwrap();
    assert_eq!(parsed.hb_edges(), res.causal.comm_hb_edges());

    // The quoted violation: seed 7 without faults, `#output <= 2`.
    let violated = wb
        .run(
            "pipeline",
            RunOptions {
                max_steps: 24,
                scheduler: Scheduler::seeded(7),
                monitor: Some(wb.monitor_spec(["#output <= 2"]).unwrap()),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let monitor = violated.monitor.as_ref().unwrap();
    assert!(!monitor.is_conforming());
    assert_eq!(monitor.events_checked, 7);
    let v = monitor.violation.as_ref().unwrap();
    assert_eq!((v.step, v.visible_index), (9, 6));
    assert_eq!(
        v.to_string(),
        "step 9 (visible #6) `output.2`: assertion `#output <= 2` falsified"
    );

    // The envelope members the section describes.
    assert_eq!(
        csp::serve::render_supervision(&res),
        "{\"deaths\":1,\"recovered\":1,\"causal_events\":26,\"causal_dropped\":0}"
    );
    assert!(csp::serve::render_monitor(&res).contains("\"verdict\":\"conforming\""));
}
