//! Integration tests for `csp serve` — the persistent verification
//! service. The load-bearing claims: the cross-request cache is
//! *transparent* (a warm response is byte-identical to a cold one, with
//! the cache's fingerprints confined to the `X-Csp-Cache`/`X-Csp-Ms`
//! headers), and the `/metrics` cache counters partition the request
//! count exactly.

use csp::obs::{json_string, MAX_JSON_DEPTH};
use csp::serve::http::{Request, Response};
use csp::serve::{Client, CspServer, ServeConfig, ServeState};
use proptest::prelude::*;

const PIPELINE: &str = "copier = input?x:NAT -> wire!x -> copier\n\
                        recopier = wire?y:NAT -> output!y -> recopier\n\
                        pipeline = chan wire; (copier || recopier)\n";

fn header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.extra
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// Headers with the per-request timing field dropped — everything that
/// must be reproducible across identical requests.
fn stable_headers(resp: &Response) -> Vec<(String, String)> {
    resp.extra
        .iter()
        .filter(|(n, _)| n != "X-Csp-Ms")
        .cloned()
        .collect()
}

/// Zeroes `"ms":<float>` values — the phase timings in `/v1/profile`
/// responses are the one place identical requests legitimately produce
/// different bytes on different servers.
fn scrub_ms(body: &[u8]) -> String {
    let s = String::from_utf8_lossy(body);
    let mut out = String::with_capacity(s.len());
    let mut rest = &*s;
    while let Some(at) = rest.find("\"ms\":") {
        let (head, tail) = rest.split_at(at + "\"ms\":".len());
        out.push_str(head);
        out.push('0');
        let end = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The module after an edit sequence: each edit appends one probe
/// definition, mirroring an editor session growing a file.
fn edited_source(edits: &[u8]) -> String {
    let mut src = PIPELINE.to_string();
    for (i, v) in edits.iter().enumerate() {
        src.push_str(&format!("probe_{i} = probe!{v} -> probe_{i}\n"));
    }
    src
}

fn body_for(endpoint: usize, source: &str) -> (&'static str, String) {
    let src = json_string(source);
    match endpoint {
        0 => ("/v1/lint", format!("{{\"source\":{src}}}")),
        1 => (
            "/v1/check",
            format!(
                "{{\"source\":{src},\"process\":\"pipeline\",\
                 \"assertion\":\"output <= input\",\"depth\":3,\"nat_bound\":1}}"
            ),
        ),
        2 => (
            "/v1/prove",
            format!(
                "{{\"source\":{src},\"specs\":[{{\"process\":\"copier\",\
                 \"assertion\":\"wire <= input\"}}],\"nat_bound\":1}}"
            ),
        ),
        _ => (
            "/v1/profile",
            format!("{{\"source\":{src},\"depth\":3,\"nat_bound\":1}}"),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any edit sequence and verification endpoint, a warm (cached)
    /// response is byte-identical to a cold server's response to the
    /// same request — status, body, and all headers except the
    /// `X-Csp-Ms` timing field. The cache may only announce itself.
    #[test]
    fn warm_responses_are_byte_identical_to_cold(
        edits in prop::collection::vec(0u8..3, 0..4),
        endpoint in 0usize..4,
    ) {
        let (path, body) = body_for(endpoint, &edited_source(&edits));

        let cold_state = ServeState::new(64, 2);
        let cold = cold_state.post(path, &body);
        prop_assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
        prop_assert_eq!(header(&cold, "X-Csp-Cache"), Some("miss"));

        let warm_state = ServeState::new(64, 2);
        let first = warm_state.post(path, &body);
        prop_assert_eq!(header(&first, "X-Csp-Cache"), Some("miss"));
        let warm = warm_state.post(path, &body);
        prop_assert_eq!(header(&warm, "X-Csp-Cache"), Some("hit"));

        prop_assert_eq!(cold.status, warm.status);
        // A hit returns the cached bytes verbatim …
        prop_assert_eq!(&first.body, &warm.body);
        // … and matches a cold server byte-for-byte once the profile
        // phase timings are zeroed out.
        prop_assert_eq!(scrub_ms(&cold.body), scrub_ms(&warm.body));
        // Identical headers modulo the cache verdict and timing.
        let strip = |r: &Response| {
            stable_headers(r)
                .into_iter()
                .filter(|(n, _)| n != "X-Csp-Cache")
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(strip(&cold), strip(&warm));
    }
}

/// `serve.cache.hit + serve.cache.miss + serve.cache.bypass` accounts
/// for every verification request — and only those: `/healthz`,
/// `/metrics`, 404s and 405s never enter the ledger.
#[test]
fn metrics_cache_counters_partition_the_request_count() {
    let state = ServeState::new(16, 2);
    let (lint_path, lint_body) = body_for(0, PIPELINE);
    let (check_path, check_body) = body_for(1, PIPELINE);

    assert_eq!(state.post(lint_path, &lint_body).status, 200); // miss
    assert_eq!(state.post(lint_path, &lint_body).status, 200); // hit
    assert_eq!(state.post(check_path, &check_body).status, 200); // miss
                                                                 // Malformed JSON classifies as bypass (no key was computable).
    assert_eq!(state.post(lint_path, "{not json").status, 400);
    // /v1/run never consults the cache: always bypass.
    let run_body = format!(
        "{{\"source\":{},\"process\":\"pipeline\",\"steps\":8,\
         \"seed\":1,\"nat_bound\":1}}",
        json_string(PIPELINE)
    );
    assert_eq!(state.post("/v1/run", &run_body).status, 200);
    // Endpoints outside the service surface stay out of the ledger.
    assert_eq!(state.post("/v1/nope", "{}").status, 404);

    let snap = state.metrics();
    let hit = snap.counter("serve.cache.hit");
    let miss = snap.counter("serve.cache.miss");
    let bypass = snap.counter("serve.cache.bypass");
    assert_eq!(hit, 1);
    assert_eq!(miss, 2);
    assert_eq!(bypass, 2);
    assert_eq!(hit + miss + bypass, snap.counter("serve.requests"));
}

/// Socket-level round trip: health, a cold/warm lint pair over one
/// keep-alive connection, and a Prometheus scrape reflecting it.
#[test]
fn socket_round_trip_reports_prometheus_counters() {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache_cap: 64,
    };
    let handle = CspServer::bind(&cfg).expect("bind").spawn().expect("spawn");
    let mut client = Client::connect(&handle.url()).expect("connect");

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"command\":\"serve.health\""),
        "{}",
        health.body
    );

    let (path, body) = body_for(0, PIPELINE);
    let cold = client.post(path, &body).expect("cold lint");
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("X-Csp-Cache"), Some("miss"));
    let warm = client.post(path, &body).expect("warm lint");
    assert_eq!(warm.header("X-Csp-Cache"), Some("hit"));
    assert_eq!(cold.body, warm.body);

    let metrics = client.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("csp_counter{name=\"serve.requests\"} 2"),
        "{}",
        metrics.body
    );
    assert!(
        metrics
            .body
            .contains("csp_counter{name=\"serve.cache.hit\"} 1"),
        "{}",
        metrics.body
    );
    // Ring-buffer overflow is first-class in the exposition: the
    // `csp_events_dropped` gauge is present even while it reads 0.
    assert!(
        metrics
            .body
            .contains("csp_events_dropped{name=\"obs.events_dropped\"} 0"),
        "{}",
        metrics.body
    );
    handle.stop();
}

/// The `sat` backend follows the process, so an `engine` member is not
/// read: after a plain check, the same body with `"engine":"enumerative"`
/// or with an unknown spelling is a cache hit with the same bytes, which
/// name the engine that answered. A proof names no engine, and
/// `/metrics` counts none.
#[test]
fn an_engine_member_is_ignored() {
    let state = ServeState::new(16, 2);
    let (path, plain) = body_for(1, PIPELINE);
    let cold = state.post(path, &plain);
    let text = String::from_utf8_lossy(&cold.body).into_owned();
    assert_eq!(cold.status, 200, "{text}");
    assert_eq!(header(&cold, "X-Csp-Cache"), Some("miss"));
    assert!(text.contains("\"engine\":\"compiled\""), "{text}");
    for engine in ["enumerative", "quantum"] {
        let body = plain.replacen('{', &format!("{{\"engine\":\"{engine}\","), 1);
        let again = state.post(path, &body);
        assert_eq!(header(&again, "X-Csp-Cache"), Some("hit"), "{engine}");
        assert_eq!(again.body, cold.body, "{engine}");
    }
    let (path, prove) = body_for(2, PIPELINE);
    let proved = state.post(path, &prove);
    let text = String::from_utf8_lossy(&proved.body);
    assert!(text.contains("\"proved\":true"), "{text}");
    assert!(!text.contains("\"engine\""), "{text}");
    let metrics = state.respond(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        body: Vec::new(),
        keep_alive: true,
    });
    let text = String::from_utf8_lossy(&metrics.body);
    assert!(text.contains("serve.cache.hit"), "{text}");
    assert!(!text.contains("name=\"serve.engine"), "{text}");
}

/// A number outside the integer type its field is read into is a 400
/// naming the field and the range, not saturated to the type's maximum:
/// a `depth` of 1e300 used to read as `usize::MAX`, a `seed` as
/// `u64::MAX` and a `bind` cell as `i64::MAX`. The same state then
/// answers a valid request.
#[test]
fn out_of_range_numbers_are_refused() {
    let state = ServeState::new(16, 2);
    let src = json_string(PIPELINE);
    let requests = [
        (
            "/v1/lint",
            format!("{{\"source\":{src},\"depth\":1e300}}"),
            "field `depth` must be an integer from 0 to 2^64 - 1",
        ),
        (
            "/v1/run",
            format!("{{\"source\":{src},\"process\":\"pipeline\",\"steps\":8,\"seed\":1e300}}"),
            "field `seed` must be an integer from 0 to 2^64 - 1",
        ),
        (
            "/v1/check",
            format!(
                "{{\"source\":{src},\"process\":\"pipeline\",\"assertion\":\"output <= input\",\
                 \"depth\":3,\"nat_bound\":1,\"bind\":{{\"v\":[1e300]}}}}"
            ),
            "bind `v` must contain integers from -2^63 to 2^63 - 1",
        ),
    ];
    for (path, body, message) in requests {
        let refused = state.post(path, &body);
        let text = String::from_utf8_lossy(&refused.body);
        assert_eq!(refused.status, 400, "{path}: {text}");
        assert_eq!(header(&refused, "X-Csp-Cache"), Some("bypass"), "{path}");
        assert!(text.contains(message), "{path}: {text}");
    }
    let (path, body) = body_for(1, PIPELINE);
    let served = state.post(path, &body);
    assert_eq!(
        served.status,
        200,
        "{}",
        String::from_utf8_lossy(&served.body)
    );
}

/// Without a claim, `/v1/profile`'s verify phase counts the traces of
/// every plain definition, with hidden steps budgeted as a check budgets
/// them: four `h` steps hide before `p`'s `a.0`, so `p` has `<>` and
/// `<a.0>` at depth 1, and `q` has `<>` and `<h.0>`.
#[test]
fn profile_counts_the_traces_a_check_judges() {
    let state = ServeState::new(16, 2);
    let src = json_string("q = h!0 -> h!0 -> h!0 -> h!0 -> a!0 -> q\np = chan h; q\n");
    let resp = state.post("/v1/profile", &format!("{{\"source\":{src},\"depth\":1}}"));
    let text = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 200, "{text}");
    assert!(
        text.contains("{\"name\":\"verify\",") && text.contains(",\"result\":4}"),
        "{text}"
    );
}

/// `/v1/run` monitoring: `"monitor": true` checks trace membership,
/// an assertion string additionally re-checks it per prefix, and the
/// response always carries machine-readable `"supervision"` and
/// `"monitor"` members (the latter `null` when monitoring is off).
#[test]
fn run_endpoint_reports_monitor_and_supervision() {
    let state = ServeState::new(16, 2);
    let body = |monitor: &str| {
        format!(
            "{{\"source\":{},\"process\":\"pipeline\",\"steps\":12,\
             \"seed\":7,\"nat_bound\":1,\"monitor\":{monitor}}}",
            json_string(PIPELINE)
        )
    };

    let off = state.post("/v1/run", &body("false"));
    assert_eq!(off.status, 200);
    let off_text = String::from_utf8(off.body).unwrap();
    assert!(off_text.contains("\"monitor\":null"));
    assert!(off_text.contains("\"supervision\":{\"deaths\":0,\"recovered\":0,"));

    let on = state.post("/v1/run", &body("true"));
    let on_text = String::from_utf8(on.body).unwrap();
    assert!(on_text.contains("\"verdict\":\"conforming\""));
    assert!(on_text.contains("\"violation\":null"));

    let held = state.post("/v1/run", &body("\"output <= input\""));
    let held_text = String::from_utf8(held.body).unwrap();
    assert!(held_text.contains("\"verdict\":\"conforming\""));

    let refuted = state.post("/v1/run", &body("\"#output <= 1\""));
    let refuted_text = String::from_utf8(refuted.body).unwrap();
    assert!(refuted_text.contains("\"verdict\":\"violated\""));
    assert!(refuted_text.contains("\"kind\":\"assertion `#output <= 1` falsified\""));
    assert!(refuted_text.contains("\"causal_history\":["));

    // A malformed monitor field is a 400, classified as bypass.
    let bad = state.post("/v1/run", &body("17"));
    assert_eq!(bad.status, 400);
    let unparsable = state.post("/v1/run", &body("\"not an assertion\""));
    assert_eq!(unparsable.status, 400);
}

/// `/v1/run` runs a network whose inner `chan` conceals a channel from
/// the other `||` operand, and the run conforms: only `<b.1>` is seen.
#[test]
fn run_endpoint_runs_an_inner_chan_network() {
    let state = ServeState::new(16, 2);
    let source = "p = a!1 -> b!1 -> STOP\nq = a?x:{1} -> c!x -> STOP\nnet = (chan a; p) || q\n";
    let body = format!(
        "{{\"source\":{},\"process\":\"net\",\"steps\":8,\"monitor\":true}}",
        json_string(source)
    );
    let resp = state.post("/v1/run", &body);
    let text = String::from_utf8(resp.body).unwrap();
    assert_eq!(resp.status, 200, "{text}");
    assert!(text.contains("\"visible\":\"<b.1>\""), "{text}");
    assert!(text.contains("\"verdict\":\"conforming\""), "{text}");
}

/// A monitored run of a network with two independent hidden loops
/// answers: the monitor steps the states its τ budget reaches, not the
/// 2^32 τ-paths to them.
#[test]
fn a_monitored_run_through_two_hidden_loops_answers() {
    let state = ServeState::new(16, 2);
    let source = "spin1 = h1!0 -> spin1
sink1 = h1?x:{0} -> sink1
spin2 = h2!0 -> spin2
sink2 = h2?x:{0} -> sink2
out = o!0 -> out
net = chan h1, h2; (spin1 || sink1 || spin2 || sink2 || out)
";
    let body = format!(
        "{{\"source\":{},\"process\":\"net\",\"steps\":64,\"monitor\":true}}",
        json_string(source)
    );
    let run = state.post("/v1/run", &body);
    let text = String::from_utf8(run.body).unwrap();
    assert_eq!(run.status, 200, "{text}");
    assert!(text.contains("\"verdict\":\"conforming\""), "{text}");
}

/// A body built by an encoder that escapes every non-ASCII character
/// (Python's default `json.dumps`) spells an emoji as a UTF-16
/// surrogate pair and a form feed as `\f`. Both decode to the same
/// source as the raw UTF-8 body, so the lint answer is the same bytes.
#[test]
fn escaped_surrogate_pairs_and_form_feeds_decode() {
    let state = ServeState::new(16, 2);
    let source = format!("-- fine \u{1F600}\n\u{c}{PIPELINE}");
    let raw = format!("{{\"source\":{}}}", json_string(&source));
    let escaped = raw.replace('\u{1F600}', "\\ud83d\\ude00");
    let escaped = escaped.replace("\\u000c", "\\f");
    assert!(
        escaped.is_ascii() && escaped.contains("\\ud83d\\ude00\\n\\f"),
        "{escaped}"
    );
    let plain = state.post("/v1/lint", &raw);
    assert_eq!(
        plain.status,
        200,
        "{}",
        String::from_utf8_lossy(&plain.body)
    );
    let ascii = state.post("/v1/lint", &escaped);
    assert_eq!(
        ascii.status,
        200,
        "{}",
        String::from_utf8_lossy(&ascii.body)
    );
    assert_eq!(plain.body, ascii.body);
    assert_eq!(header(&ascii, "X-Csp-Cache"), Some("hit"));
}

/// A body of 200,000 `[` stops at the JSON reader's nesting cap: a 400
/// classified as bypass, where the parser used to recurse once per
/// bracket until the stack overflowed and took the process with it.
/// The same state then serves a valid lint.
#[test]
fn a_deeply_nested_body_is_refused_and_serving_continues() {
    let state = ServeState::new(16, 2);
    let deep = state.post("/v1/lint", &"[".repeat(200_000));
    let text = String::from_utf8_lossy(&deep.body);
    assert_eq!(deep.status, 400, "{text}");
    assert_eq!(header(&deep, "X-Csp-Cache"), Some("bypass"));
    assert!(text.contains("nested deeper than"), "{text}");
    let (path, body) = body_for(0, PIPELINE);
    let lint = state.post(path, &body);
    assert_eq!(lint.status, 200, "{}", String::from_utf8_lossy(&lint.body));
}

/// The members `Params::parse` reads.
const FIELDS: [&str; 13] = [
    "source",
    "process",
    "assertion",
    "specs",
    "depth",
    "nat_bound",
    "sets",
    "bind",
    "channels",
    "monitor",
    "fault_plan",
    "seed",
    "steps",
];

/// Strings a random value draws from: names and queries the example
/// module answers, spellings the handlers reject, and text to escape.
const WORDS: [&str; 10] = [
    "",
    "pipeline",
    "copier",
    "output <= input",
    "wire <= input",
    "compiled",
    "enumerative",
    "crash:copier@2;restart:replay",
    "NAT",
    "\u{1F600}\n\"x\\",
];

/// Any JSON value, rendered: numbers stay within 0..=3.
fn arb_json() -> BoxedStrategy<String> {
    prop_oneof![
        prop_oneof![Just("null"), Just("true"), Just("false")].prop_map(String::from),
        (0u8..=3).prop_map(|n| n.to_string()),
        (0u8..3).prop_map(|n| format!("{n}.5")),
        (0..WORDS.len()).prop_map(|i| json_string(WORDS[i])),
    ]
    .prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|items| format!("[{}]", items.join(","))),
            prop::collection::vec((0..FIELDS.len(), inner), 0..4).prop_map(|members| {
                let members: Vec<String> = members
                    .into_iter()
                    .map(|(f, v)| format!("{}:{v}", json_string(FIELDS[f])))
                    .collect();
                format!("{{{}}}", members.join(","))
            }),
        ]
    })
}

/// Values of the type `Params::parse` wants for `field`, so that some
/// random documents get past it and reach the work.
fn typed(field: &str) -> &'static [&'static str] {
    match field {
        "process" => &["\"pipeline\"", "\"pipeline\"", "\"copier\"", "\"nope\""],
        "assertion" => &["\"output <= input\"", "\"#output <= 1\"", "\"not one\""],
        "specs" => &[
            r#"[{"process":"copier","assertion":"wire <= input"}]"#,
            r##"[{"process":"pipeline","assertion":"#output <= 1"}]"##,
            "[]",
        ],
        "sets" => &[
            r#"{"M":[0,1]}"#,
            r#"{"M":["ACK","NACK"]}"#,
            "{}",
            r#"{"M":["x"]}"#,
        ],
        "bind" => &[r#"{"v":[2,3]}"#, "{}"],
        "channels" => &[r#"["input","output","wire"]"#, "[]", r#"["wire"]"#],
        "monitor" => &["true", "false", "\"output <= input\"", "\"#output <= 1\""],
        "fault_plan" => &[
            "\"crash:copier@2;restart:replay\"",
            "\"stall:recopier@1x2\"",
            "\"\"",
            "\"bogus\"",
        ],
        _ => &["0", "1", "2", "3"],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random documents to every verification route are answered with
    /// a 200 or a 4xx, never a 500 or a panic, and the state still
    /// answers `/healthz` afterwards. Each member `Params::parse` reads
    /// is absent, a value of any JSON type, or a value of its own type;
    /// some documents nest past the reader's cap, and some are not
    /// objects. Numbers stay within 0..=3, `source` comes from a small
    /// pool and `depth` is always present: a large `depth` or
    /// `nat_bound` on a valid module runs for minutes, and the default
    /// depth of 4 with a `nat_bound` of 3 profiles the pipeline for
    /// 3 s in a release build on a 2-vCPU host. Only work budgets can
    /// bound that.
    #[test]
    fn random_bodies_get_a_200_or_a_4xx_on_every_route(
        source in 0usize..6,
        members in prop::collection::vec((0u8..16, arb_json(), 0usize..12), FIELDS.len() - 1),
        shape in 0u8..8,
    ) {
        let pipeline = include_str!("../examples/pipeline.csp");
        let sources = ["", "p = -> ; garbage", pipeline, pipeline, pipeline];
        let mut fields: Vec<String> = sources
            .get(source)
            .map(|s| format!("\"source\":{}", json_string(s)))
            .into_iter()
            .collect();
        // Half the members are absent, one in sixteen holds any value,
        // and the rest hold a value of their own type.
        for (field, (choice, any, pick)) in FIELDS[1..].iter().zip(&members) {
            let pool = typed(field);
            let value = match choice {
                0..=7 if *field != "depth" => continue,
                8 => any.clone(),
                _ => pool[pick % pool.len()].to_string(),
            };
            fields.push(format!("\"{field}\":{value}"));
        }
        let too_deep = shape == 0;
        if too_deep {
            let depth = MAX_JSON_DEPTH + 1;
            fields.push(format!("\"bind\":{}{}", "[".repeat(depth), "]".repeat(depth)));
        }
        let body = if shape == 1 {
            members[0].1.clone()
        } else {
            format!("{{{}}}", fields.join(","))
        };
        let state = ServeState::new(16, 2);
        for path in ["/v1/lint", "/v1/check", "/v1/prove", "/v1/run", "/v1/profile"] {
            let resp = state.post(path, &body);
            let text = String::from_utf8_lossy(&resp.body);
            prop_assert!(
                resp.status == 200 || (400..500).contains(&resp.status),
                "{} {}: {} {}", path, body, resp.status, text
            );
            if too_deep {
                prop_assert_eq!(resp.status, 400, "{} {}: {}", path, body, text);
            }
        }
        let health = state.respond(&Request {
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            body: Vec::new(),
            keep_alive: true,
        });
        prop_assert_eq!(health.status, 200);
    }
}
