//! The JSON-RPC dispatch loop and the language features.
//!
//! One [`Server`] owns an [`AnalysisDb`] per open document. Every edit
//! goes through [`AnalysisDb::set_source`], so only the definitions the
//! edit dirtied are re-linted — diagnostics for a large module stay
//! incremental while the transport stays dumb.

use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

use csp_analysis::{AnalysisDb, Diagnostic, Severity};
use csp_lang::ParseError;
use csp_obs::{json_string, parse_json, JsonValue};

use crate::position::{offset_at, range_json, word_at, Position};
use crate::transport::{read_message, write_message};

/// What the client sees in `initialize.result.serverInfo`.
const SERVER_NAME: &str = "csp-lsp";

/// One open document: its current text and its incremental analysis.
#[derive(Debug)]
struct Document {
    text: String,
    db: AnalysisDb,
}

/// An LSP server holding the analysis state for every open document.
///
/// [`Server::handle_message`] is a pure-ish state transition — one
/// incoming message to a batch of outgoing messages — so tests can drive
/// the full protocol without a transport.
#[derive(Debug, Default)]
pub struct Server {
    docs: BTreeMap<String, Document>,
    shutdown_requested: bool,
    exit: Option<bool>,
}

impl Server {
    /// A server with no open documents.
    pub fn new() -> Self {
        Server::default()
    }

    /// True once an `exit` notification arrived; the payload is whether
    /// the client followed the shutdown handshake (exit code 0) or
    /// dropped the connection abruptly (exit code 1).
    pub fn exited(&self) -> Option<bool> {
        self.exit
    }

    /// Handles one raw message body, returning the serialized messages
    /// to send back (a response, zero or more notifications, or nothing
    /// for a fire-and-forget notification).
    pub fn handle_message(&mut self, body: &str) -> Vec<String> {
        let Ok(msg) = parse_json(body.trim()) else {
            return vec![error_response(
                "null",
                -32700,
                "request body is not valid JSON",
            )];
        };
        let method = msg.get("method").and_then(JsonValue::as_str);
        let id = msg.get("id").map(render_id);
        let params = msg.get("params");
        match (method, id) {
            (Some(method), Some(id)) => self.handle_request(&id, method, params),
            (Some(method), None) => self.handle_notification(method, params),
            // A message with an id but no method is a response to a
            // server-initiated request; we issue none, so ignore it.
            (None, _) => Vec::new(),
        }
    }

    fn handle_request(
        &mut self,
        id: &str,
        method: &str,
        params: Option<&JsonValue>,
    ) -> Vec<String> {
        match method {
            "initialize" => vec![response(id, &initialize_result())],
            "shutdown" => {
                self.shutdown_requested = true;
                vec![response(id, "null")]
            }
            "textDocument/hover" => vec![response(id, &self.hover(params))],
            "textDocument/definition" => vec![response(id, &self.definition(params))],
            other => vec![error_response(
                id,
                -32601,
                &format!("method `{other}` is not supported"),
            )],
        }
    }

    fn handle_notification(&mut self, method: &str, params: Option<&JsonValue>) -> Vec<String> {
        match method {
            "textDocument/didOpen" => {
                let Some((uri, text)) = did_open_params(params) else {
                    return Vec::new();
                };
                self.open(uri, text)
            }
            "textDocument/didChange" => {
                let Some((uri, text)) = did_change_params(params) else {
                    return Vec::new();
                };
                self.open(uri, text)
            }
            "textDocument/didClose" => {
                let Some(uri) = text_document_uri(params) else {
                    return Vec::new();
                };
                self.docs.remove(&uri);
                // Clear the client's marker bar for the closed file.
                vec![publish_diagnostics(&uri, "[]")]
            }
            "exit" => {
                self.exit = Some(self.shutdown_requested);
                Vec::new()
            }
            // initialized, didSave, $/… progress and cancellation — all
            // fire-and-forget for a stateless-per-revision analysis.
            _ => Vec::new(),
        }
    }

    /// Applies one full-text revision and republishes diagnostics.
    fn open(&mut self, uri: String, text: String) -> Vec<String> {
        let doc = self.docs.entry(uri.clone()).or_insert_with(|| Document {
            text: String::new(),
            db: AnalysisDb::new(),
        });
        doc.db.set_source(&text);
        doc.text = text;
        let diags = render_diagnostics(&doc.text, doc.db.parse_errors(), &doc.db.diagnostics());
        vec![publish_diagnostics(&uri, &diags)]
    }

    /// The definition name under the cursor, resolved against a document.
    fn name_at(&self, params: Option<&JsonValue>) -> Option<(&Document, String)> {
        let params = params?;
        let uri = params
            .get("textDocument")
            .and_then(|t| t.get("uri"))
            .and_then(JsonValue::as_str)?;
        let doc = self.docs.get(uri)?;
        let pos = params.get("position")?;
        let offset = offset_at(
            &doc.text,
            Position {
                line: pos.get("line").and_then(JsonValue::as_u64)? as usize,
                character: pos.get("character").and_then(JsonValue::as_u64)? as usize,
            },
        );
        let word = word_at(&doc.text, offset)?;
        Some((doc, word.to_string()))
    }

    fn hover(&self, params: Option<&JsonValue>) -> String {
        let Some((doc, name)) = self.name_at(params) else {
            return "null".to_string();
        };
        if doc.db.definitions().get(&name).is_none() {
            return "null".to_string();
        }
        let mut lines = vec![format!("**{name}**")];
        match doc.db.alphabet(&name) {
            Some(alpha) => lines.push(format!("- alphabet: `{alpha}`")),
            None => lines.push("- alphabet: not statically computable".to_string()),
        }
        if let Some(depth) = doc.db.prefix_depth(&name) {
            lines.push(format!(
                "- trace-depth bound: {depth} communication(s) per unfolding"
            ));
        }
        let value = json_string(&lines.join("\n"));
        format!("{{\"contents\":{{\"kind\":\"markdown\",\"value\":{value}}}}}")
    }

    fn definition(&self, params: Option<&JsonValue>) -> String {
        let Some((doc, name)) = self.name_at(params) else {
            return "null".to_string();
        };
        let Some(span) = doc.db.definition_span(&name) else {
            return "null".to_string();
        };
        let uri = params
            .and_then(|p| p.get("textDocument"))
            .and_then(|t| t.get("uri"))
            .and_then(JsonValue::as_str)
            .expect("name_at resolved the same uri");
        format!(
            "{{\"uri\":{},\"range\":{}}}",
            json_string(uri),
            range_json(&doc.text, span)
        )
    }
}

/// Runs the server over any framed byte stream until `exit` or EOF.
/// Returns `true` for a clean exit (shutdown before exit, or EOF).
///
/// # Errors
///
/// Propagates transport-level I/O failures; protocol-level problems are
/// reported to the client as JSON-RPC errors instead.
pub fn serve(input: &mut impl BufRead, output: &mut impl Write) -> io::Result<bool> {
    let mut server = Server::new();
    while let Some(body) = read_message(input)? {
        for out in server.handle_message(&body) {
            write_message(output, &out)?;
        }
        if let Some(clean) = server.exited() {
            return Ok(clean);
        }
    }
    Ok(true)
}

/// Runs the server over stdin/stdout — the `csp lsp` entry point.
///
/// # Errors
///
/// Propagates transport-level I/O failures.
pub fn serve_stdio() -> io::Result<bool> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve(&mut stdin.lock(), &mut stdout.lock())
}

fn initialize_result() -> String {
    // Full-document sync (1): revisions arrive whole, and AnalysisDb
    // re-derives incrementality from content hashes rather than edit
    // deltas — simpler protocol, same asymptotics.
    format!(
        "{{\"capabilities\":{{\"textDocumentSync\":1,\"hoverProvider\":true,\
         \"definitionProvider\":true}},\
         \"serverInfo\":{{\"name\":{},\"version\":{}}}}}",
        json_string(SERVER_NAME),
        json_string(env!("CARGO_PKG_VERSION"))
    )
}

fn response(id: &str, result: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"result\":{result}}}")
}

fn error_response(id: &str, code: i64, message: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"error\":{{\"code\":{code},\"message\":{}}}}}",
        json_string(message)
    )
}

fn publish_diagnostics(uri: &str, diagnostics: &str) -> String {
    format!(
        "{{\"jsonrpc\":\"2.0\",\"method\":\"textDocument/publishDiagnostics\",\
         \"params\":{{\"uri\":{},\"diagnostics\":{diagnostics}}}}}",
        json_string(uri)
    )
}

/// Re-renders a request id for echoing back. Integral numbers print
/// without a fraction (the common case); anything else degrades to
/// `null`, which the spec reserves for unparseable requests.
fn render_id(id: &JsonValue) -> String {
    match id {
        JsonValue::Num(n) if n.fract() == 0.0 => format!("{}", *n as i64),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Str(s) => json_string(s),
        _ => "null".to_string(),
    }
}

fn did_open_params(params: Option<&JsonValue>) -> Option<(String, String)> {
    let td = params?.get("textDocument")?;
    Some((
        td.get("uri")?.as_str()?.to_string(),
        td.get("text")?.as_str()?.to_string(),
    ))
}

fn did_change_params(params: Option<&JsonValue>) -> Option<(String, String)> {
    let uri = text_document_uri(params)?;
    // Full sync: the final change carries the complete new text.
    let changes = params?.get("contentChanges")?.as_array()?;
    let text = changes.last()?.get("text")?.as_str()?.to_string();
    Some((uri, text))
}

fn text_document_uri(params: Option<&JsonValue>) -> Option<String> {
    Some(
        params?
            .get("textDocument")?
            .get("uri")?
            .as_str()?
            .to_string(),
    )
}

/// Renders the merged diagnostics array for one revision: parse errors
/// (always severity 1) followed by the lint findings that survived
/// recovery.
fn render_diagnostics(text: &str, errors: &[ParseError], lints: &[Diagnostic]) -> String {
    let mut items = Vec::with_capacity(errors.len() + lints.len());
    for e in errors {
        items.push(format!(
            "{{\"range\":{},\"severity\":1,\"code\":\"parse\",\"source\":\"csp\",\
             \"message\":{}}}",
            range_json(text, e.span()),
            json_string(e.message())
        ));
    }
    for d in lints {
        // The linter guarantees a span whenever a SourceMap is supplied
        // (AnalysisDb always supplies one); the fallback keeps a protocol
        // violation out of the client if that invariant ever breaks.
        let range = d.span.map_or_else(
            || range_json(text, csp_lang::Span::new(0, 0, 1, 1)),
            |s| range_json(text, s),
        );
        let severity = match d.severity {
            Severity::Error => 1,
            Severity::Warning => 2,
        };
        items.push(format!(
            "{{\"range\":{range},\"severity\":{severity},\"code\":{},\
             \"source\":\"csp-lint\",\"message\":{}}}",
            json_string(d.code.code()),
            json_string(&d.message)
        ));
    }
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn notif(method: &str, params: &str) -> String {
        format!("{{\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":{params}}}")
    }

    fn req(id: u64, method: &str, params: &str) -> String {
        format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}")
    }

    fn open(server: &mut Server, uri: &str, text: &str) -> String {
        let params = format!(
            "{{\"textDocument\":{{\"uri\":{},\"languageId\":\"csp\",\"version\":1,\
             \"text\":{}}}}}",
            json_string(uri),
            json_string(text)
        );
        let out = server.handle_message(&notif("textDocument/didOpen", &params));
        assert_eq!(out.len(), 1, "didOpen publishes exactly one batch");
        out.into_iter().next().unwrap()
    }

    fn position_params(uri: &str, line: usize, character: usize) -> String {
        format!(
            "{{\"textDocument\":{{\"uri\":{}}},\
             \"position\":{{\"line\":{line},\"character\":{character}}}}}",
            json_string(uri)
        )
    }

    #[test]
    fn initialize_advertises_the_three_capabilities() {
        let mut s = Server::new();
        let out = s.handle_message(&req(1, "initialize", "{}"));
        assert_eq!(out.len(), 1);
        let v = parse_json(&out[0]).unwrap();
        let caps = v.get("result").and_then(|r| r.get("capabilities")).unwrap();
        assert_eq!(
            caps.get("textDocumentSync").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            caps.get("hoverProvider").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(
            caps.get("definitionProvider").and_then(JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn did_open_publishes_parse_and_lint_diagnostics_together() {
        let mut s = Server::new();
        let published = open(
            &mut s,
            "file:///m.csp",
            "broken = c!0 -> ->\np = d!0 -> ghost",
        );
        let v = parse_json(&published).unwrap();
        assert_eq!(
            v.get("method").and_then(JsonValue::as_str),
            Some("textDocument/publishDiagnostics")
        );
        let diags = v
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(JsonValue::as_array)
            .unwrap();
        let codes: Vec<&str> = diags
            .iter()
            .filter_map(|d| d.get("code").and_then(JsonValue::as_str))
            .collect();
        assert!(codes.contains(&"parse"), "{codes:?}");
        assert!(codes.contains(&"CSP001"), "{codes:?}");
        // The CSP001 range points at `ghost` on the second line.
        let csp001 = diags
            .iter()
            .find(|d| d.get("code").and_then(JsonValue::as_str) == Some("CSP001"))
            .unwrap();
        let start = csp001.get("range").and_then(|r| r.get("start")).unwrap();
        assert_eq!(start.get("line").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(start.get("character").and_then(JsonValue::as_u64), Some(11));
    }

    #[test]
    fn did_change_clears_fixed_diagnostics() {
        let mut s = Server::new();
        open(&mut s, "file:///m.csp", "p = d!0 -> ghost");
        let params = format!(
            "{{\"textDocument\":{{\"uri\":\"file:///m.csp\",\"version\":2}},\
             \"contentChanges\":[{{\"text\":{}}}]}}",
            json_string("p = d!0 -> p")
        );
        let out = s.handle_message(&notif("textDocument/didChange", &params));
        let v = parse_json(&out[0]).unwrap();
        let diags = v
            .get("params")
            .and_then(|p| p.get("diagnostics"))
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(diags.is_empty(), "{:?}", out[0]);
    }

    #[test]
    fn hover_reports_alphabet_and_depth_bound() {
        let mut s = Server::new();
        open(
            &mut s,
            "file:///m.csp",
            "copier = input?x:NAT -> wire!x -> copier",
        );
        let out = s.handle_message(&req(
            2,
            "textDocument/hover",
            &position_params("file:///m.csp", 0, 2),
        ));
        let v = parse_json(&out[0]).unwrap();
        let value = v
            .get("result")
            .and_then(|r| r.get("contents"))
            .and_then(|c| c.get("value"))
            .and_then(JsonValue::as_str)
            .unwrap();
        assert!(value.contains("copier"), "{value}");
        assert!(value.contains("input"), "{value}");
        assert!(value.contains("2 communication(s)"), "{value}");
    }

    #[test]
    fn hover_on_a_literal_or_unknown_name_is_null() {
        let mut s = Server::new();
        open(&mut s, "file:///m.csp", "p = c!7 -> p");
        for character in [6, 4] {
            let out = s.handle_message(&req(
                3,
                "textDocument/hover",
                &position_params("file:///m.csp", 0, character),
            ));
            let v = parse_json(&out[0]).unwrap();
            assert!(
                matches!(v.get("result"), Some(JsonValue::Null)),
                "{:?}",
                out[0]
            );
        }
    }

    #[test]
    fn goto_definition_from_a_call_site() {
        let mut s = Server::new();
        open(&mut s, "file:///m.csp", "p = c!0 -> q\nq = d!0 -> q");
        // Cursor on the `q` call at the end of line 0.
        let out = s.handle_message(&req(
            4,
            "textDocument/definition",
            &position_params("file:///m.csp", 0, 11),
        ));
        let v = parse_json(&out[0]).unwrap();
        let result = v.get("result").unwrap();
        assert_eq!(
            result.get("uri").and_then(JsonValue::as_str),
            Some("file:///m.csp")
        );
        let start = result.get("range").and_then(|r| r.get("start")).unwrap();
        assert_eq!(start.get("line").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(start.get("character").and_then(JsonValue::as_u64), Some(0));
    }

    #[test]
    fn unknown_request_gets_method_not_found() {
        let mut s = Server::new();
        let out = s.handle_message(&req(9, "workspace/symbol", "{}"));
        let v = parse_json(&out[0]).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_i64),
            Some(-32601)
        );
    }

    #[test]
    fn a_deeply_nested_message_is_a_parse_error() {
        let mut s = Server::new();
        let out = s.handle_message(&"[".repeat(200_000));
        assert_eq!(out.len(), 1);
        let v = parse_json(&out[0]).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("code"))
                .and_then(JsonValue::as_i64),
            Some(-32700)
        );
        // The server keeps answering.
        let out = s.handle_message(&req(2, "initialize", "{}"));
        let v = parse_json(&out[0]).unwrap();
        assert!(v.get("result").is_some(), "{}", out[0]);
    }

    #[test]
    fn full_stdio_round_trip_over_in_memory_pipes() {
        let mut input = Vec::new();
        for msg in [
            req(1, "initialize", "{}"),
            notif("initialized", "{}"),
            open_params_message(),
            req(2, "shutdown", "null"),
            notif("exit", "null"),
        ] {
            crate::transport::write_message(&mut input, &msg).unwrap();
        }
        let mut output = Vec::new();
        let clean = serve(&mut Cursor::new(input), &mut output).unwrap();
        assert!(clean);
        let mut cur = Cursor::new(output);
        let mut bodies = Vec::new();
        while let Some(b) = read_message(&mut cur).unwrap() {
            bodies.push(b);
        }
        // initialize response, publishDiagnostics, shutdown response.
        assert_eq!(bodies.len(), 3, "{bodies:#?}");
        assert!(bodies[0].contains("capabilities"));
        assert!(bodies[1].contains("publishDiagnostics"));
        assert!(bodies[1].contains("CSP001"), "{}", bodies[1]);
        assert!(bodies[1].contains("\"code\":\"parse\""), "{}", bodies[1]);
    }

    fn open_params_message() -> String {
        let text = "broken = c!0 -> ->\np = d!0 -> ghost";
        notif(
            "textDocument/didOpen",
            &format!(
                "{{\"textDocument\":{{\"uri\":\"file:///m.csp\",\"languageId\":\"csp\",\
                 \"version\":1,\"text\":{}}}}}",
                json_string(text)
            ),
        )
    }

    #[test]
    fn exit_without_shutdown_is_an_unclean_exit() {
        let mut input = Vec::new();
        crate::transport::write_message(&mut input, &notif("exit", "null")).unwrap();
        let mut output = Vec::new();
        assert!(!serve(&mut Cursor::new(input), &mut output).unwrap());
    }
}
