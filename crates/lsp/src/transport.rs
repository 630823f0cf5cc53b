//! LSP base-protocol framing: `Content-Length`-headed messages over a
//! byte stream.
//!
//! The transport is generic over [`BufRead`]/[`Write`] so the whole
//! server can be driven end-to-end from an in-memory buffer in tests and
//! from stdio in production — same code path, no threads, no sockets.

use std::io::{self, BufRead, Read, Write};

/// Reads one framed message body; `Ok(None)` signals a clean EOF before
/// any header byte.
///
/// Headers are a CRLF-separated block terminated by an empty line; only
/// `Content-Length` is interpreted (the legacy `Content-Type` header is
/// accepted and ignored, as the spec requires). Bare-`\n` line endings
/// are tolerated for ease of hand-driven testing.
///
/// # Errors
///
/// Propagates I/O errors, reports `InvalidData` for a header block with
/// no `Content-Length`, and `UnexpectedEof` for a body shorter than its
/// `Content-Length`.
pub fn read_message(input: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut content_length: Option<usize> = None;
    let mut saw_header = false;
    loop {
        let mut line = String::new();
        let n = input.read_line(&mut line)?;
        if n == 0 {
            if saw_header {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ));
            }
            return Ok(None);
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        saw_header = true;
        if let Some(value) = line.strip_prefix("Content-Length:") {
            let len: usize = value.trim().parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad Content-Length `{}`", value.trim()),
                )
            })?;
            content_length = Some(len);
        }
        // Other headers (Content-Type) are ignored.
    }
    let len = content_length.ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "message without Content-Length")
    })?;
    // Memory grows with the bytes that arrive, never with what the
    // header claims.
    let mut body = Vec::new();
    input.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    String::from_utf8(body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes one framed message and flushes, so a client polling the pipe
/// never waits on a buffered reply.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write_message(out: &mut impl Write, body: &str) -> io::Result<()> {
    write!(out, "Content-Length: {}\r\n\r\n{body}", body.len())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_a_message() {
        let mut buf = Vec::new();
        write_message(&mut buf, r#"{"jsonrpc":"2.0"}"#).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_message(&mut cur).unwrap().as_deref(),
            Some(r#"{"jsonrpc":"2.0"}"#)
        );
        assert!(read_message(&mut cur).unwrap().is_none());
    }

    #[test]
    fn tolerates_extra_headers_and_bare_newlines() {
        let raw = "Content-Type: application/vscode-jsonrpc\nContent-Length: 2\n\n{}";
        let mut cur = Cursor::new(raw.as_bytes().to_vec());
        assert_eq!(read_message(&mut cur).unwrap().as_deref(), Some("{}"));
    }

    #[test]
    fn missing_content_length_is_invalid_data() {
        let mut cur = Cursor::new(b"Content-Type: x\r\n\r\n{}".to_vec());
        let err = read_message(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut cur = Cursor::new(b"Content-Length: 10\r\n\r\n{}".to_vec());
        let err = read_message(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_huge_content_length_is_an_error_not_an_allocation() {
        let mut cur = Cursor::new(b"Content-Length: 99999999999999\r\n\r\n{}".to_vec());
        let err = read_message(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
