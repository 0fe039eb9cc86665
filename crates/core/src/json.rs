//! A minimal JSON document model, writer, and reader.
//!
//! The build environment vendors no serialization framework, so the few
//! places that emit machine-readable output (query profiles, bench
//! reports, recorder journals) build a [`Json`] value and render it.
//! [`Json::parse`] is the matching reader — a small recursive-descent
//! parser that exists so tools can consume their own output (the bench
//! regression gate diffs a fresh run against a committed baseline file,
//! and `oqltop` replays dumped journals).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    /// Rendered with enough precision to round-trip; non-finite values
    /// render as `null` (JSON has no NaN/∞).
    Float(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object — key order is stable in the output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Render as a compact single-line JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Render with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Parse a JSON document. Integers without a fraction or exponent
    /// that fit `i64` become [`Json::Int`]; everything else numeric
    /// becomes [`Json::Float`]. Errors carry a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Numeric value as `f64` (accepts both [`Json::Int`] and
    /// [`Json::Float`] — bench reports mix the two).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A field a strict loader requires; `what` names the document kind
    /// in the error (`record missing \`cache\``).
    pub fn required(&self, what: &str, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("{what} missing `{key}`"))
    }

    /// [`Json::required`], as a non-negative integer.
    pub fn required_u64(&self, what: &str, key: &str) -> Result<u64, String> {
        self.required(what, key)?
            .as_u64()
            .ok_or_else(|| format!("{what} `{key}` is not a non-negative integer"))
    }

    /// [`Json::required`], as a string.
    pub fn required_str(&self, what: &str, key: &str) -> Result<&str, String> {
        self.required(what, key)?.as_str().ok_or_else(|| format!("{what} `{key}` is not a string"))
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escape `s` for embedding inside a double-quoted string literal:
/// backslash-escapes `"`, `\`, `\n`, `\r`, `\t`, and `\u00XX` for other
/// control characters.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Nesting depth beyond which [`Json::parse`] refuses to recurse — a
/// guard against stack exhaustion on adversarial input, far above any
/// document this codebase emits.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_PARSE_DEPTH {
            return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {}", self.pos));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest run without escapes or quotes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let Some(b) = self.peek() else {
            return Err("unexpected end of input in escape".to_string());
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: the low half must follow as \uXXXX.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(format!("lone high surrogate at byte {}", self.pos));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(format!("invalid low surrogate at byte {}", self.pos));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code)
                } else {
                    char::from_u32(hi)
                };
                out.push(c.ok_or_else(|| format!("invalid code point at byte {}", self.pos))?);
            }
            other => return Err(format!("bad escape `\\{}` at byte {}", other as char, self.pos)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let n = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(n)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        // Counts in this codebase are far below i64::MAX; saturate rather
        // than wrap if one ever is not.
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<u128> for Json {
    fn from(n: u128) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let j = Json::obj(vec![
            ("name", Json::str("scan")),
            ("rows", Json::Int(42)),
            ("sel", Json::Float(0.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"scan","rows":42,"sel":0.5,"flags":[true,null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        let escape_str = |s: &str| {
            let mut out = String::new();
            escape_into(&mut out, s);
            out
        };
        assert_eq!(escape_str("plain"), "plain");
        assert_eq!(escape_str("a\"b"), "a\\\"b");
        assert_eq!(escape_str("back\\slash"), "back\\\\slash");
        assert_eq!(escape_str("line\nbreak\ttab\rcr"), "line\\nbreak\\ttab\\rcr");
        assert_eq!(escape_str("\u{2}"), "\\u0002");
        // Unicode (operator labels use ← and ⟨⟩) passes through raw.
        assert_eq!(escape_str("Scan c ← Cities"), "Scan c ← Cities");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn pretty_rendering_indents() {
        let j = Json::obj(vec![("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        assert_eq!(j.render_pretty(), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let j = Json::obj(vec![
            ("name", Json::str("Scan c ← Cities")),
            ("rows", Json::Int(-42)),
            ("sel", Json::Float(0.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj(vec![("escaped", Json::str("a\"b\\c\nd\u{1}"))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&j.render()).unwrap(), j);
        assert_eq!(Json::parse(&j.render_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_distinguishes_ints_from_floats() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("7.5").unwrap(), Json::Float(7.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // i64 overflow degrades to float rather than erroring.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(Json::parse(r#""←""#).unwrap(), Json::str("←"));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(Json::parse(r#""𝄞""#).unwrap(), Json::str("𝄞"));
        assert!(Json::parse(r#""\ud834""#).is_err(), "lone surrogate rejected");
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"k\":}", "tru", "\"open", "[1] junk", "{'k':1}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessors_select_by_shape() {
        let j = Json::parse(r#"{"a": 1, "b": "x", "c": [true], "d": 2.5}"#).unwrap();
        assert_eq!(j.get("a").and_then(Json::as_i64), Some(1));
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(j.get("d").and_then(Json::as_f64), Some(2.5));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Int(-1).as_u64(), None, "negative is not u64");
        assert_eq!(Json::Str("s".into()).as_i64(), None);
    }
}
