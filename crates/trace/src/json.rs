//! A minimal, dependency-free JSON value with a serializer and a strict
//! recursive-descent parser.
//!
//! The workspace is built offline (no serde), and the run manifest only
//! needs objects, arrays, strings, and numbers — so this module implements
//! exactly that. Objects preserve insertion order, which keeps serialized
//! manifests deterministic and diffable.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Serialized without a decimal point when it is an exact
    /// integer of magnitude below 2^53 (the largest contiguous integer range
    /// an f64 represents exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on both parse and serialize.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number representing
    /// one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Num(x) if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 => {
                Some(x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes to a compact single line (for JSON-lines files).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (for human-facing output).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    /// Parses a JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    use fmt::Write;
    if !x.is_finite() {
        // JSON has no NaN/Inf; manifests never produce them, but degrade to
        // null rather than emitting an unparsable token.
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-repr Display for f64 round-trips exactly.
        let _ = write!(out, "{x}");
    }
}

/// Writes `s` as a JSON string literal. Only ASCII bytes are ever escaped,
/// and an ASCII byte is always a char boundary, so the text between two
/// escapes is copied as one run.
fn write_str(out: &mut String, s: &str) {
    use fmt::Write;
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting `Json::parse` accepts. The parser
/// recurses once per level, so without a bound a line of `[` overflows the
/// caller's stack (a daemon connection thread has 2 MiB). The deepest
/// document the workspace writes, a `BENCH_*.json` snapshot, nests 5.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => self.nested(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = if self.peek() == Some(b'[') { self.array() } else { self.object() };
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // step. Both delimiters are ASCII, which never occurs
                    // inside a multi-byte sequence, so the run is whole
                    // characters (input is a &str, so it is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|b| matches!(b, b'"' | b'\\')).unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Reads exactly four hex digits from the current position.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self.peek().and_then(|b| (b as char).to_digit(16));
            match d {
                Some(d) => {
                    cp = cp * 16 + d;
                    self.pos += 1;
                }
                None => return Err(self.err("expected four hex digits")),
            }
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }
}

/// Convenience constructors used by the manifest builder.
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\"", "[]", "{}"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_line(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
        assert_eq!(v.to_line(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nbreak \"quoted\" back\\slash \t control:\u{1}";
        let v = Json::Str(s.to_string());
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
    }

    /// The per-char writer `write_str` replaced: the reference its output
    /// must match byte for byte.
    fn write_str_per_char(out: &mut String, s: &str) {
        use fmt::Write;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn run_writer_matches_the_per_char_reference() {
        let mut cases: Vec<String> = (0u8..=0x7f).map(|b| char::from(b).to_string()).collect();
        cases.push((0u8..=0x7f).map(char::from).collect());
        for c in ['"', '\\', '\u{7f}', '\u{2028}', '\u{ffff}', '\u{1f600}'] {
            cases.push(c.to_string());
            cases.push(format!("a{c}b{c}"));
        }
        cases.push(String::new());
        cases.push("ends in an escape\n".into());
        cases.push("é\u{1}→\"😀\\".repeat(100));
        // The text form of a 100k-rank permutation (`Permutation::write_text`
        // writes one rank and a newline per vertex), ranks scrambled.
        cases.push((0..100_000u64).map(|i| format!("{}\n", i * 7919 % 100_000)).collect());
        for s in cases {
            let (mut runs, mut per_char) = (String::new(), String::new());
            write_str(&mut runs, &s);
            write_str_per_char(&mut per_char, &s);
            assert_eq!(runs, per_char, "{s:?}");
            assert_eq!(Json::parse(&runs).unwrap(), Json::Str(s));
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::Str("é".into()));
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate must fail");
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Decoding used to re-validate the whole remaining input for every
        // character, so a 2 MB string took the better part of a minute. The
        // bound is generous: a linear parse needs milliseconds.
        let ascii = "x".repeat(2 << 20);
        let multibyte = "é😀→".repeat((2 << 20) / 9);
        for s in [ascii, multibyte] {
            let text = Json::Str(s.clone()).to_line();
            let start = std::time::Instant::now();
            let parsed = Json::parse(&text).unwrap();
            let took = start.elapsed();
            assert_eq!(parsed, Json::Str(s));
            assert!(took < std::time::Duration::from_secs(5), "parse took {took:?}");
        }
        // Escapes still split runs correctly next to multi-byte characters.
        let mixed = "é\\\"→\n😀".repeat(1000);
        assert_eq!(Json::parse(&Json::Str(mixed.clone()).to_line()).unwrap(), Json::Str(mixed));
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0, 1.5, -2.25, 1e300, 0.1, 123456789.123, 9007199254740992.0] {
            let text = Json::Num(x).to_line();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x), "{text}");
        }
        // Exact integers serialize without a decimal point.
        assert_eq!(Json::Num(42.0).to_line(), "42");
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(2.5).as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for text in ["{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "{'a': 1}", ""] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(err.message.contains("nesting"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(10_000)).is_err());
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::parse(r#"{"a":[1,2,{"b":true}],"c":"x"}"#).unwrap();
        let pretty = v.to_pretty();
        assert!(pretty.contains('\n'));
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn scientific_notation_parses() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(Json::parse("-2.5E-2").unwrap().as_f64(), Some(-0.025));
    }
}
