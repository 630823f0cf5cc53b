//! A minimal, dependency-free JSON value model and parser.
//!
//! The observability stack emits several JSON dialects (span JSONL,
//! metrics snapshots, Chrome trace events, the `csp/v1` CLI envelope)
//! and — because the build environment is offline — parses them back
//! with this module instead of serde. The model is deliberately small:
//! one number type (`f64`, as in JSON itself), objects as ordered
//! key/value vectors, and a recursive-descent parser over the byte
//! slice.

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (one type, as in the grammar).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (keys may repeat; lookups take the
    /// first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives and
    /// fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's items, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's members in source order, if it is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the source where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Fails on malformed JSON with the offending byte offset.
pub fn parse_json(src: &str) -> Result<JsonValue, JsonError> {
    let mut c = Cursor {
        bytes: src.as_bytes(),
        pos: 0,
    };
    let value = parse_value(&mut c)?;
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return Err(c.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Escapes a string as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => Err(self.err(&format!("expected `{}`, got {got:?}", b as char))),
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }
}

fn parse_value(c: &mut Cursor<'_>) -> Result<JsonValue, JsonError> {
    match c.peek() {
        Some(b'{') => {
            c.bump();
            let mut pairs = Vec::new();
            if c.peek() == Some(b'}') {
                c.bump();
                return Ok(JsonValue::Object(pairs));
            }
            loop {
                let key = parse_string(c)?;
                c.expect(b':')?;
                let value = parse_value(c)?;
                pairs.push((key, value));
                match c.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(JsonValue::Object(pairs)),
                    other => return Err(c.err(&format!("bad object separator {other:?}"))),
                }
            }
        }
        Some(b'[') => {
            c.bump();
            let mut items = Vec::new();
            if c.peek() == Some(b']') {
                c.bump();
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(c)?);
                match c.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(JsonValue::Array(items)),
                    other => return Err(c.err(&format!("bad array separator {other:?}"))),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(c)?)),
        Some(b) if b == b'-' || b.is_ascii_digit() => {
            c.skip_ws();
            let start = c.pos;
            if c.bytes[c.pos] == b'-' {
                c.pos += 1;
            }
            while c
                .bytes
                .get(c.pos)
                .is_some_and(|b| b.is_ascii_digit() || matches!(*b, b'.' | b'e' | b'E' | b'+'))
            {
                c.pos += 1;
            }
            let text = std::str::from_utf8(&c.bytes[start..c.pos]).expect("ascii");
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| c.err(&format!("bad number `{text}`")))
        }
        _ if c.eat_literal("null") => Ok(JsonValue::Null),
        _ if c.eat_literal("true") => Ok(JsonValue::Bool(true)),
        _ if c.eat_literal("false") => Ok(JsonValue::Bool(false)),
        other => Err(c.err(&format!("unexpected input {other:?}"))),
    }
}

fn parse_string(c: &mut Cursor<'_>) -> Result<String, JsonError> {
    c.expect(b'"')?;
    let mut out = String::new();
    loop {
        match c.bytes.get(c.pos).copied() {
            None => return Err(c.err("unterminated string")),
            Some(b'"') => {
                c.pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                c.pos += 1;
                match c.bytes.get(c.pos).copied() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(unicode_escape(c)?),
                    other => {
                        return Err(c.err(&format!("bad escape {other:?}")));
                    }
                }
                c.pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest =
                    std::str::from_utf8(&c.bytes[c.pos..]).map_err(|_| c.err("invalid UTF-8"))?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                c.pos += ch.len_utf8();
            }
        }
    }
}

/// The character a `\u` escape spells, with `c` at its `u`; leaves `c`
/// at the escape's last hex digit. A high surrogate and the low one
/// escaped right after it spell one character; a lone half spells none.
fn unicode_escape(c: &mut Cursor<'_>) -> Result<char, JsonError> {
    let unit = hex4(c, c.pos + 1)?;
    c.pos += 4;
    let code = if (0xD800..0xDC00).contains(&unit) {
        let low = match c.bytes.get(c.pos + 1..c.pos + 3) {
            Some(b"\\u") => hex4(c, c.pos + 3)?,
            _ => return Err(c.err("lone surrogate in \\u escape")),
        };
        if !(0xDC00..0xE000).contains(&low) {
            return Err(c.err("lone surrogate in \\u escape"));
        }
        c.pos += 6;
        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
    } else {
        unit
    };
    char::from_u32(code).ok_or_else(|| c.err("lone surrogate in \\u escape"))
}

/// The code unit spelled by exactly four ASCII hex digits at `at`.
fn hex4(c: &Cursor<'_>, at: usize) -> Result<u32, JsonError> {
    let digits = c
        .bytes
        .get(at..at + 4)
        .ok_or_else(|| c.err("bad \\u escape"))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| c.err("bad \\u escape"))?;
        Ok(code * 16 + digit)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":{"c":null,"d":"x\n"},"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn accepts_multiline_whitespace() {
        let v = parse_json("{\n  \"k\" : [ 1 ,\n 2 ]\n}\n").unwrap();
        assert_eq!(v.get("k").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_trailing_garbage() {
        let e = parse_json("{} extra").unwrap_err();
        assert!(e.message.contains("trailing"));
    }

    #[test]
    fn integer_accessors_reject_mismatches() {
        let v = parse_json(r#"{"n":-4,"f":1.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_i64(), Some(-4));
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("f").unwrap().as_i64(), None);
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn json_string_round_trips_escapes() {
        let s = "tab\t \"quoted\" — déjà\u{1}\n";
        let v = parse_json(&json_string(s)).unwrap();
        assert_eq!(v.as_str(), Some(s));
        // A long input with multibyte characters right next to escapes.
        let long: String = (0..2_000)
            .map(|i| ["é\"", "\\€", "a\n😀", "\u{7}ß", "plain"][i % 5])
            .collect();
        let v = parse_json(&json_string(&long)).unwrap();
        assert_eq!(v.as_str(), Some(long.as_str()));
        let v = parse_json(r#""éé\/x😀\\""#).unwrap();
        assert_eq!(v.as_str(), Some("éé/x😀\\"));
        for (bad, message) in [
            ("\"déjà", "unterminated string"),
            ("\"a\\qb\"", "bad escape"),
            ("\"a\\u00zzb\"", "bad \\u escape"),
        ] {
            let e = parse_json(bad).unwrap_err();
            assert!(e.message.contains(message), "{bad}: {e}");
        }
    }

    #[test]
    fn backspace_and_form_feed_escapes() {
        let v = parse_json(r#""a\bb\fc""#).unwrap();
        assert_eq!(v.as_str(), Some("a\u{8}b\u{c}c"));
    }

    #[test]
    fn surrogate_pairs_combine() {
        let v = parse_json(r#""-- \ud83d\ude00!""#).unwrap();
        assert_eq!(v.as_str(), Some("-- 😀!"));
        let v = parse_json(r#""\uD83D\uDE00\u00e9\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("😀éA"));
    }

    #[test]
    fn lone_surrogates_are_rejected() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
        ] {
            let e = parse_json(bad).unwrap_err();
            assert!(e.message.contains("lone surrogate"), "{bad}: {e}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u004""#,
            r#""\u 041""#,
            r#""\u00""#,
        ] {
            let e = parse_json(bad).unwrap_err();
            assert!(e.message.contains("bad \\u escape"), "{bad}: {e}");
        }
        // A fifth digit is an ordinary character after the escape.
        let v = parse_json(r#""\u00411""#).unwrap();
        assert_eq!(v.as_str(), Some("A1"));
    }
}
