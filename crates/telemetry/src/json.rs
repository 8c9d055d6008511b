//! A minimal JSON document model with a writer and a parser.
//!
//! The workspace's vendored `serde` is a no-op marker (see
//! `vendor/serde`), so machine-readable artifacts need a real encoder
//! somewhere. This module is that encoder: an insertion-ordered document
//! tree ([`Json`]), a compact and a pretty writer, and a small
//! recursive-descent parser so round-trips can be tested and CI can
//! validate emitted artifacts. Insertion order is preserved in objects,
//! which is what gives `BENCH_*.json` files their stable key order.
//!
//! Hot paths that would otherwise build a tree only to render it once
//! stream instead: [`write_object`] appends the same compact bytes
//! [`Json::render`] would produce, field by field, straight into a
//! `String`. [`write_number`] and [`write_string`] are the only number
//! and string formatting either path uses, so the two cannot drift.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; stored as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// An empty array.
    pub fn arr() -> Json {
        Json::Arr(Vec::new())
    }

    /// Inserts (or replaces) a key in an object, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.insert(key, value);
        self
    }

    /// Inserts (or replaces) a key in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn insert(&mut self, key: &str, value: impl Into<Json>) {
        let Json::Obj(pairs) = self else {
            panic!("Json::insert on a non-object");
        };
        let value = value.into();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => pairs.push((key.to_owned(), value)),
        }
    }

    /// Appends to an array.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an array.
    pub fn push(&mut self, value: impl Into<Json>) {
        let Json::Arr(items) = self else {
            panic!("Json::push on a non-array");
        };
        items.push(value.into());
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the compact rendering to `out`.
    pub fn render_into(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty rendering with two-space indentation (the `BENCH_*.json`
    /// artifact format).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// Nesting is limited to [`MAX_PARSE_DEPTH`] levels so untrusted
    /// input (the `drone-serve` request path feeds network bytes here)
    /// cannot overflow the stack with `[[[[…`; deeper documents return
    /// a [`ParseError`] instead.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing content"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Appends a number. Rust's `f64` Display is the shortest decimal that
/// round-trips, which is exactly what a stable artifact format wants.
/// JSON has no spelling for non-finite numbers, so those degrade to
/// `null`.
pub fn write_number(out: &mut String, n: f64) {
    if n.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{n}");
    } else {
        out.push_str("null");
    }
}

/// Appends a quoted, escaped string. Runs of characters that need no
/// escape are copied as one slice; every escaped character is ASCII, so
/// the run boundaries are always character boundaries.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            b if b < 0x20 => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match short {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Streams one compact JSON object into `out`: `fields` adds the
/// members in order, and the bytes equal [`Json::render`] of the
/// equivalent [`Json::Obj`] (keys are written as given, so a caller
/// must not repeat one — [`Json::insert`] would have replaced it).
pub fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjectWriter<'_>)) {
    out.push('{');
    fields(&mut ObjectWriter { out, first: true });
    out.push('}');
}

/// The member sink [`write_object`] hands out.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ObjectWriter<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A number member (`null` when non-finite).
    pub fn num(&mut self, key: &str, n: f64) -> &mut Self {
        write_number(self.key(key), n);
        self
    }

    /// A string member.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Self {
        write_string(self.key(key), s);
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, b: bool) -> &mut Self {
        self.key(key).push_str(if b { "true" } else { "false" });
        self
    }

    /// A member holding an already-built document.
    pub fn json(&mut self, key: &str, value: &Json) -> &mut Self {
        value.render_into(self.key(key));
        self
    }

    /// A nested object member.
    pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.key(key), fields);
        self
    }

    /// An array member whose items `items` appends.
    pub fn array(&mut self, key: &str, items: impl FnOnce(&mut ArrayWriter<'_>)) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        items(&mut ArrayWriter { out, first: true });
        out.push(']');
        self
    }
}

/// The item sink [`ObjectWriter::array`] hands out.
pub struct ArrayWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl ArrayWriter<'_> {
    fn item(&mut self) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out
    }

    /// A number item (`null` when non-finite).
    pub fn num(&mut self, n: f64) -> &mut Self {
        write_number(self.item(), n);
        self
    }

    /// An object item.
    pub fn object(&mut self, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> &mut Self {
        write_object(self.item(), fields);
        self
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`Json::parse`] accepts. The recursive-
/// descent parser burns one stack frame per level, so this bound is
/// what keeps arbitrary network bytes from overflowing the stack.
pub const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
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

    fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting deeper than MAX_PARSE_DEPTH"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("\\u escape is not a scalar"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash in one slice. Both are ASCII, so the run
                    // ends on a character boundary of the (already
                    // valid UTF-8) input; scanning it once keeps string
                    // parsing linear in its length.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // The scan above only admits ASCII bytes, but a typed error is
        // strictly safer than an `expect` if that invariant ever slips.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("non-ASCII byte in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    /// Lossy above 2⁵³; counters in this workspace stay far below that.
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact() {
        let doc = Json::obj()
            .with("name", "repro")
            .with("count", 3u64)
            .with("ok", true)
            .with("ratio", 0.074)
            .with("items", vec![Json::Num(1.0), Json::Null]);
        assert_eq!(
            doc.render(),
            r#"{"name":"repro","count":3,"ok":true,"ratio":0.074,"items":[1,null]}"#
        );
    }

    #[test]
    fn key_order_is_insertion_order() {
        let doc = Json::obj().with("z", 1.0).with("a", 2.0).with("m", 3.0);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parses_what_it_writes() {
        let doc = Json::obj()
            .with("text", "line\nbreak \"quoted\" \\ slash")
            .with("nested", Json::obj().with("pi", std::f64::consts::PI))
            .with("empty_obj", Json::obj())
            .with("empty_arr", Json::arr())
            .with("neg", -1.25e-9);
        for rendered in [doc.render(), doc.render_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let parsed = Json::parse(r#"{"s":"café\tnoir é"}"#).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "café\tnoir é");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        // 200k unterminated opens: without the depth cap this is a
        // stack overflow (an abort, not a catchable panic).
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(200_000);
            assert!(Json::parse(&bomb).is_err());
        }
        // Depth within the cap still parses, and siblings do not
        // accumulate depth.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
        let siblings = format!("[{}]", vec!["[[1]]"; 200].join(","));
        assert!(Json::parse(&siblings).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(129), "]".repeat(129));
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn string_parsing_is_linear_in_length() {
        // Plain runs, non-ASCII text and escapes, like a hostile line.
        let doc = |bytes: usize| {
            let mut body = String::with_capacity(bytes + 16);
            while body.len() < bytes {
                body.push_str("plain text é \\n\\\"");
            }
            format!("\"{body}\"")
        };
        let fastest = |text: &str| {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let parsed = Json::parse(text).unwrap();
                    let elapsed = started.elapsed();
                    assert!(parsed.as_str().is_some());
                    elapsed
                })
                .min()
                .unwrap()
        };
        let small = fastest(&doc(8 * 1024));
        let large = fastest(&doc(64 * 1024));
        // 8x the bytes: about 8x the time when linear, 64x when
        // quadratic.
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(ratio < 24.0, "64 KiB took {ratio:.1}x the 8 KiB parse");
    }

    #[test]
    fn string_escapes_match_a_per_character_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from("\"");
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
        let mut every_control: String = (0u8..0x20).map(char::from).collect();
        every_control.push('\u{7f}');
        for s in [
            "",
            "plain",
            "\"quoted\" \\ back\\slash",
            "café → ✈ 🚁",
            "\u{0}lead and trail\u{1f}",
            every_control.as_str(),
        ] {
            let mut out = String::new();
            write_string(&mut out, s);
            assert_eq!(out, reference(s), "{s:?}");
            assert_eq!(Json::parse(&out).unwrap().as_str(), Some(s));
        }
    }

    #[test]
    fn streamed_objects_render_like_the_tree() {
        let id = Json::obj().with("k", vec![Json::Null, Json::Bool(true)]);
        let tree = Json::obj()
            .with("id", id.clone())
            .with("ok", true)
            .with("name", "a \"b\"\n")
            .with("n", 0.1)
            .with("nan", f64::NAN)
            .with("empty", Json::obj())
            .with("none", Json::arr())
            .with(
                "items",
                vec![
                    Json::Num(1.0),
                    Json::obj().with("x", -2.5e-7),
                    Json::Num(3.0),
                ],
            );
        let mut out = String::from("prefix:");
        write_object(&mut out, |o| {
            o.json("id", &id)
                .bool("ok", true)
                .str("name", "a \"b\"\n")
                .num("n", 0.1)
                .num("nan", f64::NAN)
                .object("empty", |_| {})
                .array("none", |_| {})
                .array("items", |a| {
                    a.num(1.0).object(|o| {
                        o.num("x", -2.5e-7);
                    });
                    a.num(3.0);
                });
        });
        assert_eq!(out, format!("prefix:{}", tree.render()));
    }

    #[test]
    fn float_round_trip_is_exact() {
        for v in [0.1, 1.0 / 3.0, 6.02e23, -2.2250738585072014e-308] {
            let parsed = Json::parse(&Json::Num(v).render()).unwrap();
            assert_eq!(parsed.as_f64().unwrap().to_bits(), v.to_bits());
        }
    }
}
