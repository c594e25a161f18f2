//! Hand-rolled JSON: a tiny writer and a strict recursive-descent
//! parser/validator. No serde — the whole workspace builds offline with
//! zero external dependencies, and downstream `BENCH_*.json` tooling
//! needs a checker it can trust not to drift from the emitter.

use std::fmt::{self, Write as _};

/// Escapes `s` as the *contents* of a JSON string (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Appends the escaped contents of `s` to `out`. Every byte that needs
/// an escape is ASCII (`"`, `\\`, controls below 0x20), so the scan runs
/// over bytes and copies each run of plain bytes — multibyte characters
/// included — in one `push_str`.
fn escape_into(s: &str, out: &mut String) {
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` as a quoted JSON string to `out`.
fn string_into(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Renders `s` as a quoted JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    string_into(s, &mut out);
    out
}

/// Renders an `f64` as a JSON number. Non-finite values have no JSON
/// representation and render as `null`.
pub fn number(x: f64) -> String {
    let mut out = String::new();
    number_into(x, &mut out);
    out
}

fn number_into(x: f64, out: &mut String) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// Maximum container nesting depth [`Value::parse`] accepts. The parser
/// is recursive-descent, so unbounded nesting would overflow the stack;
/// inputs deeper than this are rejected with a [`JsonError`] instead.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders a value back to JSON text, preserving object member order.
/// Numbers go through [`number`], so `render(parse(render(v)))` is a
/// fixed point: two values that render equal stay byte-identical through
/// any number of round trips.
pub fn render(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, &mut out, false);
    out
}

/// [`render`] with object members sorted by key at every level — a
/// canonical form, so two values that differ only in member order render
/// identically. Used for content-addressed request keying.
pub fn render_canonical(v: &Value) -> String {
    let mut out = String::new();
    render_into(v, &mut out, true);
    out
}

fn render_into(v: &Value, out: &mut String, canonical: bool) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => number_into(*x, out),
        Value::String(s) => string_into(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_into(item, out, canonical);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            let mut order: Vec<usize> = (0..members.len()).collect();
            if canonical {
                order.sort_by(|&a, &b| members[a].0.cmp(&members[b].0));
            }
            for (i, &m) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let (key, value) = &members[m];
                string_into(key, out);
                out.push(':');
                render_into(value, out, canonical);
            }
            out.push('}');
        }
    }
}

/// A JSON syntax error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Current container nesting depth, capped at [`MAX_DEPTH`] so the
    /// recursive descent cannot overflow the stack on hostile input.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_owned(),
        }
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn descend(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.descend()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are replaced, not paired: the
                            // emitter never writes them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape character")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` is always on a
                    // char boundary here because the input is a &str.
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a lone '0', or a nonzero digit run (JSON
        // forbids leading zeros).
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digits")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number chars are ASCII");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| self.err("number out of range"))
    }
}

/// Validates a JSON-lines document: every non-empty line must parse as
/// a JSON object carrying a string `"type"` field. Returns the number
/// of validated lines.
///
/// # Errors
///
/// Returns a human-readable description naming the offending line.
pub fn validate_lines(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value =
            Value::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if !matches!(value, Value::Object(_)) {
            return Err(format!("line {}: not a JSON object", lineno + 1));
        }
        if value.get("type").and_then(Value::as_str).is_none() {
            return Err(format!(
                "line {}: object is missing a string \"type\" field",
                lineno + 1
            ));
        }
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("µs"), "\"µs\"");
    }

    #[test]
    fn number_formatting() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-3.0), "-3");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn parse_round_trip() {
        let text = r#"{"type":"span","calls":3,"ok":true,"x":[1,2.5,-3e2],"s":"a\"b","n":null}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("calls").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(Value::as_array).unwrap().len(), 3);
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b"));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "01",
            "1.",
            "nul",
            "{'a':1}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        // A bare leading zero is fine, "01" is not.
        assert!(Value::parse("0.5").is_ok());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // One past the cap fails cleanly...
        let deep = "[".repeat(MAX_DEPTH + 1);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.message.contains("MAX_DEPTH"), "{err}");
        // ...and a pathological input (this would previously crash the
        // process with a stack overflow) is just another parse error.
        let hostile = "[".repeat(100_000);
        assert!(Value::parse(&hostile).is_err());
        let hostile_objs = "{\"a\":".repeat(100_000);
        assert!(Value::parse(&hostile_objs).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
    }

    #[test]
    fn render_round_trips_byte_identically() {
        let text = r#"{"b":1.5,"a":[true,null,"x\ny"],"c":{"z":-3,"y":2}}"#;
        let v = Value::parse(text).unwrap();
        let rendered = render(&v);
        // Source order is preserved, and a second round trip is a fixed
        // point.
        assert_eq!(rendered, text);
        assert_eq!(render(&Value::parse(&rendered).unwrap()), rendered);
    }

    #[test]
    fn canonical_render_sorts_members_recursively() {
        let a = Value::parse(r#"{"b":1,"a":{"d":2,"c":3}}"#).unwrap();
        let b = Value::parse(r#"{"a":{"c":3,"d":2},"b":1}"#).unwrap();
        let canon = render_canonical(&a);
        assert_eq!(canon, r#"{"a":{"c":3,"d":2},"b":1}"#);
        assert_eq!(canon, render_canonical(&b));
        // Arrays keep their order — only object members sort.
        let arr = Value::parse("[3,1,2]").unwrap();
        assert_eq!(render_canonical(&arr), "[3,1,2]");
    }

    #[test]
    fn unicode_escapes_decode() {
        // Escaped and raw scalars both decode.
        let v = Value::parse("\"\\u0041\\u00b5 µ\"").unwrap();
        assert_eq!(v.as_str(), Some("Aµ µ"));
    }

    #[test]
    fn validate_lines_enforces_typed_objects() {
        let good = "{\"type\":\"a\"}\n\n{\"type\":\"b\",\"v\":1}\n";
        assert_eq!(validate_lines(good), Ok(2));
        assert!(validate_lines("[1,2]\n").is_err());
        assert!(validate_lines("{\"notype\":1}\n").is_err());
        assert!(validate_lines("{\"type\":3}\n").is_err());
        assert!(validate_lines("{broken\n").is_err());
    }
}
