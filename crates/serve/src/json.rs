//! A minimal, dependency-free JSON reader for the serving layer.
//!
//! The `psdp serve` front door consumes one JSON request per line and the
//! schema-snapshot tests introspect the CLI's `--json` output, so the
//! workspace needs a JSON *reader* (writing stays hand-formatted, as in
//! `psdp-cli`). This is a strict recursive-descent parser over the JSON
//! grammar: objects (key order preserved), arrays, strings with the
//! standard escapes (including surrogate pairs), numbers parsed as `f64`,
//! `true`/`false`/`null`. Inputs that real parsers reject are rejected
//! here too — trailing garbage, unterminated strings, bare NaN/Infinity,
//! control characters inside strings, and nesting deeper than
//! [`MAX_DEPTH`] (a stack-overflow guard) all return a positioned
//! [`JsonError`] instead of panicking.

use std::fmt;

/// Maximum nesting depth accepted by the parser (arrays + objects). Deep
/// enough for any real request, shallow enough that a hostile
/// `[[[[…]]]]` line errors out instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep their source order (the schema
/// tests compare key *sets*, but error messages read better in order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs. Duplicate keys are rejected
    /// at parse time.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Short type name for error messages and schema lines.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
/// A positioned [`JsonError`] on any malformed input.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { at: self.pos, msg: msg.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the supported maximum"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.eat_digits();
        if int_digits == 0 {
            return Err(self.err("number has no digits"));
        }
        // JSON forbids leading zeros like `042`.
        let int_part = &self.bytes[start..self.pos];
        let unsigned = match int_part {
            [b'-', rest @ ..] => rest,
            _ => int_part,
        };
        if unsigned.len() > 1 && unsigned.first() == Some(&b'0') {
            return Err(self.err("leading zeros are not allowed"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.eat_digits() == 0 {
                return Err(self.err("missing digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.eat_digits() == 0 {
                return Err(self.err("missing exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        let v: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        Ok(JsonValue::Num(v))
    }

    fn eat_digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid utf-8 in \\u escape"))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
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
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: require a low surrogate.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("unterminated string"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }
}

/// Flatten a value into sorted `path: type` schema lines — the shape the
/// JSON snapshot tests compare, so numeric jitter in values can never mask
/// a missing or renamed field. Array elements share the path component
/// `[]` (their schemas are unioned), and `null` is recorded as its own
/// type: the comparison treats `null` as compatible with any type, because
/// optional fields (`best_dual`, non-finite floats) legitimately toggle.
pub fn schema_lines(v: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    walk(v, "$", &mut out);
    out.sort();
    out.dedup();
    out
}

fn walk(v: &JsonValue, path: &str, out: &mut Vec<String>) {
    out.push(format!("{path}: {}", v.type_name()));
    match v {
        JsonValue::Arr(items) => {
            for item in items {
                walk(item, &format!("{path}[]"), out);
            }
        }
        JsonValue::Obj(pairs) => {
            for (k, val) in pairs {
                walk(val, &format!("{path}.{k}"), out);
            }
        }
        _ => {}
    }
}

/// Compare two schema-line sets treating `null` as a wildcard type: every
/// *path* present in `want` must be present in `got` and vice versa, and
/// where both sides pin a non-null type the types must agree. Returns the
/// human-readable mismatches (empty = schemas match).
pub fn schema_diff(want: &[String], got: &[String]) -> Vec<String> {
    let split = |line: &String| -> (String, String) {
        match line.rsplit_once(": ") {
            Some((p, t)) => (p.to_string(), t.to_string()),
            None => (line.clone(), String::new()),
        }
    };
    let collect = |lines: &[String]| -> Vec<(String, String)> { lines.iter().map(split).collect() };
    let want_pt = collect(want);
    let got_pt = collect(got);
    let mut diffs = Vec::new();
    let paths = |pt: &[(String, String)]| -> Vec<String> {
        let mut p: Vec<String> = pt.iter().map(|(p, _)| p.clone()).collect();
        p.sort();
        p.dedup();
        p
    };
    for p in paths(&want_pt) {
        if !got_pt.iter().any(|(gp, _)| *gp == p) {
            diffs.push(format!("missing path {p}"));
        }
    }
    for p in paths(&got_pt) {
        if !want_pt.iter().any(|(wp, _)| *wp == p) {
            diffs.push(format!("unexpected path {p}"));
        }
    }
    for (p, t) in &want_pt {
        if t == "null" {
            continue;
        }
        for (gp, gt) in &got_pt {
            if gp == p && gt != "null" && gt != t {
                diffs.push(format!("type mismatch at {p}: want {t}, got {gt}"));
            }
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> JsonValue {
        parse(s).unwrap()
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(p("null"), JsonValue::Null);
        assert_eq!(p("true"), JsonValue::Bool(true));
        assert_eq!(p("false"), JsonValue::Bool(false));
        assert_eq!(p("3.25"), JsonValue::Num(3.25));
        assert_eq!(p("-1e-3"), JsonValue::Num(-1e-3));
        assert_eq!(p("0"), JsonValue::Num(0.0));
        assert_eq!(p("\"hi\""), JsonValue::Str("hi".into()));
    }

    #[test]
    fn parses_structures_and_accessors() {
        let v = p(r#"{"a": [1, 2.5, {"b": null}], "c": "x", "d": true}"#);
        assert_eq!(v.get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(true));
        match v.get("a") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert!(matches!(items[2].get("b"), Some(JsonValue::Null)));
            }
            other => panic!("bad a: {other:?}"),
        }
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn string_escapes_resolve() {
        assert_eq!(p(r#""a\"b\\c\/d\n\t""#), JsonValue::Str("a\"b\\c/d\n\t".into()));
        assert_eq!(p(r#""\u00e9""#), JsonValue::Str("é".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(p(r#""\ud83d\ude00""#), JsonValue::Str("😀".into()));
        // Non-ASCII passthrough.
        assert_eq!(p("\"ψ\""), JsonValue::Str("ψ".into()));
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "tru",
            "nul",
            "nan",
            "NaN",
            "Infinity",
            "-",
            "01",
            "1.",
            "1e",
            "+1",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800\\u0041\"",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\u{1}",
            "\"raw\u{1}ctl\"",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn depth_guard_errors_instead_of_overflowing() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&deep).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
        // A depth just under the cap parses fine.
        let ok = "[".repeat(MAX_DEPTH - 1) + "1" + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = p(" \t\r\n { \"a\" : [ ] } \n");
        assert_eq!(v, JsonValue::Obj(vec![("a".into(), JsonValue::Arr(vec![]))]));
    }

    #[test]
    fn schema_lines_capture_shape_not_values() {
        let a = p(r#"{"x": 1, "y": [{"z": 2}, {"z": 9}], "s": "v"}"#);
        let b = p(r#"{"x": 7.5, "y": [{"z": -1}], "s": "other"}"#);
        assert_eq!(schema_lines(&a), schema_lines(&b));
        let c = p(r#"{"x": 1, "y": [{"w": 2}], "s": "v"}"#);
        assert_ne!(schema_lines(&a), schema_lines(&c));
    }

    #[test]
    fn schema_diff_null_is_wildcard() {
        let a = schema_lines(&p(r#"{"x": null}"#));
        let b = schema_lines(&p(r#"{"x": 3.5}"#));
        assert!(schema_diff(&a, &b).is_empty());
        let c = schema_lines(&p(r#"{"y": 3.5}"#));
        let diffs = schema_diff(&a, &c);
        assert_eq!(diffs.len(), 2, "{diffs:?}");
    }
}
