//! A minimal, dependency-free JSON value model and parser.
//!
//! The observability stack emits several JSON dialects (span JSONL,
//! metrics snapshots, Chrome trace events, the `csp/v1` CLI envelope)
//! and — because the build environment is offline — parses them back
//! with this module instead of serde. The model is deliberately small:
//! one number type (`f64`, as in JSON itself), objects as ordered
//! key/value vectors, and a recursive-descent parser over the source
//! text that copies each run of plain string bytes in one step, so a
//! document is read in time linear in its length. Nesting is capped at
//! [`MAX_JSON_DEPTH`] arrays and objects, so no document can exhaust the
//! stack of the thread that reads it.

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

    /// The value as an unsigned integer: a whole number with
    /// 0 ≤ n < 2⁶⁴. Negatives, fractions and larger numbers are refused,
    /// not saturated.
    pub fn as_u64(&self) -> Option<u64> {
        // `u64::MAX as f64` rounds up to 2⁶⁴, the least value out of range.
        let n = self.as_f64()?;
        ((0.0..u64::MAX as f64).contains(&n) && n.fract() == 0.0).then_some(n as u64)
    }

    /// The value as a signed integer: a whole number with
    /// −2⁶³ ≤ n < 2⁶³. Fractions and numbers outside the range are
    /// refused, not saturated.
    pub fn as_i64(&self) -> Option<i64> {
        // `i64::MAX as f64` rounds up to 2⁶³, the least value out of range.
        let n = self.as_f64()?;
        ((i64::MIN as f64..i64::MAX as f64).contains(&n) && n.fract() == 0.0).then_some(n as i64)
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

/// How many arrays and objects a document may nest. The deepest
/// documents the workspace reads (an LSP `didChange`, a `csp profile`
/// envelope) nest six; the parser recurses once per level, so the cap
/// is what keeps a run of opening brackets from overflowing the stack.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Fails on malformed JSON with the offending byte offset, and on an
/// array or object nested deeper than [`MAX_JSON_DEPTH`] at its opening
/// bracket.
pub fn parse_json(src: &str) -> Result<JsonValue, JsonError> {
    let mut c = Cursor { src, pos: 0 };
    let value = parse_value(&mut c, 0)?;
    c.skip_ws();
    if c.pos != c.src.len() {
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
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes()
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
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
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }
}

/// Parses the value at `c`, which sits inside `depth` arrays and
/// objects.
fn parse_value(c: &mut Cursor<'_>, depth: usize) -> Result<JsonValue, JsonError> {
    match c.peek() {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(c.err(&format!(
            "arrays and objects nested deeper than {MAX_JSON_DEPTH} levels"
        ))),
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
                let value = parse_value(c, depth + 1)?;
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
                items.push(parse_value(c, depth + 1)?);
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
            if c.bytes()[c.pos] == b'-' {
                c.pos += 1;
            }
            while c
                .bytes()
                .get(c.pos)
                .is_some_and(|b| b.is_ascii_digit() || matches!(*b, b'.' | b'e' | b'E' | b'+'))
            {
                c.pos += 1;
            }
            let text = &c.src[start..c.pos];
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
        // Copy the run of plain bytes up to the next `"` or `\` in one
        // step. Both are ASCII, so the run is whole characters of the
        // `&str` source and needs no UTF-8 check.
        let rest = &c.bytes()[c.pos..];
        let run = rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
        out.push_str(&c.src[c.pos..c.pos + run]);
        c.pos += run;
        match c.bytes().get(c.pos).copied() {
            None => return Err(c.err("unterminated string")),
            Some(b'"') => {
                c.pos += 1;
                return Ok(out);
            }
            // The run stopped at a `\`.
            Some(_) => {
                c.pos += 1;
                match c.bytes().get(c.pos).copied() {
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
        let low = match c.bytes().get(c.pos + 1..c.pos + 3) {
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
        .bytes()
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
    use proptest::prelude::*;

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

    /// Integers read exactly up to the edges of their type's range and
    /// are refused past them, where a cast would saturate.
    #[test]
    fn integer_reads_stop_at_the_range_edges() {
        let u = |src: &str| parse_json(src).unwrap().as_u64();
        let i = |src: &str| parse_json(src).unwrap().as_i64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("-0"), Some(0));
        // The largest f64 below 2⁶⁴, then 2⁶⁴ and what rounds to it.
        assert_eq!(u("18446744073709549568"), Some(u64::MAX - 2047));
        for past in [
            "18446744073709551616",
            "18446744073709551617",
            "1e300",
            "-1",
            "0.5",
        ] {
            assert_eq!(u(past), None, "{past}");
        }
        assert_eq!(i("-9223372036854775808"), Some(i64::MIN));
        // The largest f64 below 2⁶³, then 2⁶³ and what rounds to it.
        assert_eq!(i("9223372036854774784"), Some(i64::MAX - 1023));
        for past in [
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854777856",
            "1e300",
            "-1e300",
            "-0.5",
        ] {
            assert_eq!(i(past), None, "{past}");
        }
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

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let mut v = parse_json(&nested(MAX_JSON_DEPTH)).unwrap();
        for _ in 1..MAX_JSON_DEPTH {
            v = v.as_array().unwrap()[0].clone();
        }
        assert_eq!(v, JsonValue::Array(Vec::new()));
        let e = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_JSON_DEPTH, "{e}");
        assert!(e.message.contains("nested deeper than 128"), "{e}");
        // Objects count too, and whitespace does not move the offset off
        // the offending bracket.
        let objects = r#"{"a": "#.repeat(MAX_JSON_DEPTH) + " {}" + &"}".repeat(MAX_JSON_DEPTH);
        let e = parse_json(&objects).unwrap_err();
        assert_eq!(e.offset, 6 * MAX_JSON_DEPTH + 1, "{e}");
        // A body of nothing but opening brackets is an error, not a
        // stack overflow.
        let e = parse_json(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(e.offset, MAX_JSON_DEPTH, "{e}");
    }

    #[test]
    fn reads_a_mebibyte_string_in_one_pass() {
        let piece = "copier = input?x:NAT -> wire!x -> copier\n\"déjà\" \\ 😀\t";
        let long = piece.repeat((1 << 20) / piece.len() + 1);
        assert!(long.len() > 1 << 20);
        let body = format!("{{\"source\":{},\"pad\":1}}", json_string(&long));
        let v = parse_json(&body).unwrap();
        assert_eq!(v.get("source").and_then(JsonValue::as_str), Some(&*long));
    }

    /// One character for the property tests: printable ASCII, the two
    /// characters a string must escape, a control character, or a
    /// scalar from any of the seventeen planes (a surrogate code point
    /// becomes U+FFFD).
    fn arb_char() -> impl Strategy<Value = char> {
        prop_oneof![
            (0x20u32..0x7f).prop_map(|c| char::from_u32(c).unwrap()),
            prop_oneof![Just('"'), Just('\\')],
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0u32..17, 0u32..0x1_0000).prop_map(|(plane, unit)| {
                char::from_u32(plane << 16 | unit).unwrap_or('\u{fffd}')
            }),
        ]
    }

    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(arb_char(), 0..48).prop_map(|cs| cs.into_iter().collect())
    }

    /// `s` as a JSON string literal with every non-ASCII character
    /// written as a `\u` escape (a surrogate pair past U+FFFF), in
    /// alternating hex case.
    fn ascii_literal(s: &str) -> String {
        let mut out = String::from("\"");
        for (i, c) in s.chars().enumerate() {
            if c.is_ascii() {
                let literal = json_string(&c.to_string());
                out.push_str(&literal[1..literal.len() - 1]);
                continue;
            }
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&if i % 2 == 0 {
                    format!("\\u{unit:04x}")
                } else {
                    format!("\\u{unit:04X}")
                });
            }
        }
        out.push('"');
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn escaped_strings_read_back(s in arb_text()) {
            prop_assert_eq!(parse_json(&json_string(&s)), Ok(JsonValue::Str(s.clone())));
            let ascii = ascii_literal(&s);
            prop_assert!(ascii.is_ascii(), "{}", ascii);
            prop_assert_eq!(parse_json(&ascii), Ok(JsonValue::Str(s)));
        }

        #[test]
        fn any_text_is_read_or_refused_within_bounds(
            pieces in proptest::collection::vec(
                prop_oneof![
                    (0usize..16).prop_map(|i| {
                        [
                            "\"", "\\", "\\u", "\\ud83d", "\\ude00", "\\u00e9", "{", "}",
                            "[", "]", ":", ",", "-1.5e3", "nul", "true", " ",
                        ][i]
                        .to_string()
                    }),
                    arb_char().prop_map(String::from),
                ],
                0..24,
            ),
            s in arb_text(),
            cut in 0usize..64,
        ) {
            let soup: String = pieces.concat();
            for text in [soup.clone(), format!("[\"{soup}"), format!("{{\"k\":\"{soup}\"}}")] {
                if let Err(e) = parse_json(&text) {
                    prop_assert!(e.offset <= text.len(), "{}: {}", text, e);
                }
            }
            // Every proper prefix of a string literal is refused: as
            // unterminated at its end, or at a broken escape.
            let literal = json_string(&s);
            let mut at = cut.min(literal.len() - 1);
            while !literal.is_char_boundary(at) {
                at -= 1;
            }
            let e = parse_json(&literal[..at]).unwrap_err();
            prop_assert!(e.offset <= at, "{}: {}", &literal[..at], e);
            if e.message == "unterminated string" {
                prop_assert_eq!(e.offset, at);
            }
        }
    }
}
