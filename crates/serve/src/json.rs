//! A small self-contained JSON value type, parser and writer.
//!
//! The build environment has no route to a crates registry, so the
//! service's wire format is carried by this hand-rolled implementation
//! instead of serde. It supports the full JSON grammar (objects, arrays,
//! strings with `\uXXXX` escapes including surrogate pairs, numbers,
//! booleans, null) with two deliberate choices:
//!
//! * numbers without a fraction or exponent that fit an `i64` parse as
//!   [`Json::Int`]; everything else becomes [`Json::Float`] — solver
//!   counters and durations stay exact, measurements stay `f64`;
//! * objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   a value re-serialises byte-for-byte — which is what lets the result
//!   cache replay stored responses verbatim.
//!
//! The parser is depth-limited and never panics on malformed input; the
//! fuzz suite in `tests/wire_roundtrip.rs` holds it to that.

use std::fmt;

/// Maximum nesting depth the parser accepts. Recursive descent uses the
/// thread stack; a bound turns pathological `[[[[…` inputs into a clean
/// error instead of an overflow.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part or exponent, within `i64` range.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match wins); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers convert), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// Splits an object document around the value of its first top-level
/// member named `key`, without building the document: returns the text
/// before the value's string token, the decoded value, and the text
/// after the token. First match wins, as in [`Json::get`]; nested
/// objects are skipped whole, so an inner member of the same name never
/// matches.
///
/// `None` when the text is not an object, has no such member, holds an
/// escaped member name before it (an escape could spell `key`), gives
/// the member a non-string value, or is malformed where the scan looks.
/// The scan skips other values without validating them; the value
/// itself goes through the full string decoder.
pub fn split_string_member<'a>(text: &'a str, key: &str) -> Option<(&'a str, String, &'a str)> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{').ok()?;
    loop {
        p.skip_ws();
        let start = p.pos;
        p.skip_string()?;
        let name = &text.as_bytes()[start + 1..p.pos - 1];
        if name.contains(&b'\\') {
            return None;
        }
        p.skip_ws();
        p.expect(b':').ok()?;
        p.skip_ws();
        if name == key.as_bytes() {
            let start = p.pos;
            let value = p.string().ok()?;
            return Some((&text[..start], value, &text[p.pos..]));
        }
        p.skip_value()?;
        p.skip_ws();
        p.expect(b',').ok()?;
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit an unparseable token.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure, with the byte offset it occurred at.
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any byte run that avoids the
                // delimiters is valid UTF-8 — but only when the run ends
                // on a character boundary, which `"`/`\`/controls (all
                // ASCII) guarantee.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Steps over one value without decoding it: strings are skipped
    /// with their escapes and brackets are counted, so a nested value of
    /// any depth costs no recursion and no allocation.
    fn skip_value(&mut self) -> Option<()> {
        let mut depth = 0usize;
        loop {
            match self.peek()? {
                b'"' => self.skip_string()?,
                b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r' if depth == 0 => return Some(()),
                b'{' | b'[' => {
                    depth += 1;
                    self.pos += 1;
                }
                b'}' | b']' => {
                    depth -= 1;
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Steps over a string token, escapes included, without decoding it.
    fn skip_string(&mut self) -> Option<()> {
        self.expect(b'"').ok()?;
        loop {
            let rest = self.bytes.get(self.pos..)?;
            let i = rest.iter().position(|&c| c == b'"' || c == b'\\')?;
            self.pos += i + 1;
            if rest[i] == b'"' {
                return Some(());
            }
            self.pos += 1; // the escaped byte
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must pair with \uDC00-\uDFFF.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err(self.err("lone high surrogate"));
                        }
                        self.pos += 1;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    hi
                };
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(self.err("expected digit"));
        }
        // Leading zeros are invalid JSON ("01"), a single "0" is fine.
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(self.err("leading zero"));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Convenience constructor: an object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Convenience constructor: a string value.
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_values() {
        let doc = r#"{"a":[1,-2,3.5,true,false,null],"b":"x\ny","c":{"d":18446744073709551615}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0], Json::Int(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        // u64::MAX exceeds i64 and has no fraction — becomes a float.
        assert!(matches!(v.get("c").unwrap().get("d"), Some(Json::Float(_))));
        let reprinted = Json::parse(&v.to_string()).unwrap();
        assert_eq!(v, reprinted);
    }

    #[test]
    fn preserves_key_order_byte_for_byte() {
        let doc = r#"{"z":1,"a":2,"m":{"q":3,"b":4}}"#;
        assert_eq!(Json::parse(doc).unwrap().to_string(), doc);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        let lone = Json::parse(r#""\ud83d""#);
        assert!(lone.is_err());
    }

    #[test]
    fn depth_limit_rejects_instead_of_overflowing() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "tru",
            "[1] junk",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn split_string_member_agrees_with_the_parser() {
        for doc in [
            r#"{"id":"a","cmd":"x"}"#,
            r#" { "cmd" : "x" , "id" : "aé\"b" } "#,
            r#"{"options":{"id":"inner","n":[1,{"id":2},"]}"]},"n":-1.5e3,"id":"outer"}"#,
            r#"{"t":true,"z":null,"s":"\\\"","id":"first","id":"second"}"#,
            "{\"id\":\"caf\u{e9} \u{1F600}\"}",
        ] {
            let (before, value, after) = split_string_member(doc, "id").expect(doc);
            let parsed = Json::parse(doc).unwrap();
            assert_eq!(
                Some(value.as_str()),
                parsed.get("id").and_then(Json::as_str)
            );
            let token = &doc[before.len()..doc.len() - after.len()];
            assert_eq!(Json::parse(token).unwrap(), Json::Str(value), "{doc}");
        }
        for doc in [
            r#"["id","a"]"#,
            r#"{"cmd":"x"}"#,
            r#"{"id":5,"cmd":"x"}"#,
            r#"{"\u0069d":"a","id":"b"}"#,
            "{\"id\":\"a\u{1}b\"}",
            r#"{"id":"a"#,
            r#"{"cmd":"x" "id":"a"}"#,
        ] {
            assert_eq!(split_string_member(doc, "id"), None, "{doc}");
        }
    }

    #[test]
    fn escapes_control_characters_on_output() {
        let v = Json::Str("a\"b\\c\u{01}\n".into());
        let text = v.to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\u0001\\n\"");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
