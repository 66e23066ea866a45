//! A minimal JSON reader for the analytics side of the crate.
//!
//! The *writing* half of movr-obs (events, metrics, rollups) hand-rolls
//! its serialisation; this module is the matching *reading* half, used
//! by the fleet reducer (JSONL event lines), the rollup differ (two
//! rollup documents), and the perf ratchet (bench JSON lines). It is a
//! strict recursive-descent parser over the JSON subset those producers
//! emit — objects, arrays, strings with escapes, numbers, `true` /
//! `false` / `null` — kept in-tree so the crate stays dependency-free.
//!
//! Parsing is zero-copy: a [`Json`] borrows from the text it was parsed
//! from. Keys and string values without escapes come back as
//! [`Cow::Borrowed`] slices of the input; only a string containing a
//! `\` escape is unescaped into an owned [`String`]. Event lines carry
//! no escapes, so the reducer folds a line without allocating a single
//! string. Error offsets are the same as for a copying parser: each
//! error reports the byte where the copying loop would have stopped.
//!
//! Numbers parse to `f64`. Every integer the simulator serialises
//! (counts, nanosecond timestamps) is far below 2^53, so round-tripping
//! through `f64` is exact; [`Json::as_u64`] re-checks exactness instead
//! of trusting that argument.

use movr_math::convert::f64_to_u64;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value, borrowing its strings from the parsed text.
/// Object fields keep their document order (the differ reports paths
/// in a canonical sorted order regardless).
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped (borrowed unless it contained an escape).
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object, in document order.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(text: &'a str) -> Result<Json<'a>, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Object field by name (first match), if this is an object.
    pub fn get(&self, name: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer: `Some` only when the
    /// value is a non-negative number with no fractional part below
    /// 2^53. From 2^53 up, `f64` no longer holds every integer, so the
    /// document's digits may have been rounded on the way in (both
    /// `9007199254740992` and `9007199254740993` parse to 2^53); such a
    /// value is rejected rather than silently changed.
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if !(x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x < 9_007_199_254_740_992.0) {
            return None;
        }
        Some(f64_to_u64(x))
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object fields in document order, if this is an object.
    pub fn fields(&self) -> Option<&[(Cow<'a, str>, Json<'a>)]> {
        match self {
            Json::Obj(f) => Some(f),
            _ => None,
        }
    }

    /// Object fields as a sorted map (duplicate keys: last wins), if
    /// this is an object.
    pub fn to_map(&self) -> Option<BTreeMap<&str, &Json<'a>>> {
        match self {
            Json::Obj(f) => Some(f.iter().map(|(k, v)| (k.as_ref(), v)).collect()),
            _ => None,
        }
    }
}

/// Parse failure: byte offset plus what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the document.
    pub at: usize,
    /// What the parser expected or found.
    pub what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Documents nest at most a handful of levels (rollups: 3); a hard cap
/// keeps a malicious or corrupt input from overflowing the stack.
const MAX_DEPTH: usize = 64;

/// Field capacity reserved for a non-empty object: the widest event
/// line (a frame on the reflector path) has 10 fields, so one
/// allocation holds any event line.
const OBJECT_FIELDS_HINT: usize = 10;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            what: what.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The input from `start` up to the cursor. Every caller stops on an
    /// ASCII byte, so the range is on char boundaries; a range that is
    /// not is reported as an error, never a panic.
    fn slice_from(&self, start: usize) -> Result<&'a str, JsonError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("token is not on a UTF-8 boundary"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(b))))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of document")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let mut fields = Vec::with_capacity(OBJECT_FIELDS_HINT);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    /// A string literal. Runs of plain characters are taken as slices of
    /// the input; the first `\` switches to an owned buffer that the
    /// remaining runs and unescaped characters are appended to.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            let plain = self.slice_from(run)?;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// `\` and ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Timelines only escape control characters; surrogate
                // pairs are out of scope, and a lone surrogate is an
                // error, not data.
                return char::from_u32(cp)
                    .ok_or_else(|| self.err("\\u escape is not a scalar value"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = self
            .text
            .get(self.pos..end)
            .ok_or_else(|| self.err("non-ASCII in \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self.slice_from(start)?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_event_line() {
        let v = Json::parse(
            "{\"t_ns\":11000000,\"kind\":\"frame\",\"delivered\":true,\
             \"snr_db\":21.5,\"mcs\":14,\"mode\":\"direct\"}",
        )
        .expect("valid line");
        assert_eq!(v.get("t_ns").and_then(Json::as_u64), Some(11_000_000));
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("frame"));
        assert_eq!(v.get("delivered").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("snr_db").and_then(Json::as_f64), Some(21.5));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_nesting_arrays_null_and_escapes() {
        let v = Json::parse(
            "{\"a\":[1,-2.5,1e3,null],\"s\":\"q\\\"\\\\\\u0041\\n\",\"o\":{\"k\":false}}",
        )
        .expect("valid document");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Num(1000.0),
                Json::Null
            ]))
        );
        assert_eq!(v.get("s").and_then(Json::as_str), Some("q\"\\A\n"));
        assert_eq!(v.get("o").and_then(|o| o.get("k")).and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn round_trips_event_json() {
        use crate::Event;
        use movr_sim::SimTime;
        let e = Event::new(SimTime::from_micros(7), "has \"quote\"")
            .with("nan", f64::NAN)
            .with("neg", -3i64);
        let line = e.json_line();
        let v = Json::parse(&line).expect("writer output must parse");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("has \"quote\""));
        assert_eq!(v.get("nan"), Some(&Json::Null));
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-3.0));
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for (text, at) in [
            ("", 0),
            ("{", 1),
            ("{\"a\":}", 5),
            ("[1,]", 3),
            ("truex", 4),
            ("\"unterminated", 13),
            ("{\"a\":1} extra", 8),
            // A raw control byte inside an escape-free run: reported at
            // the byte itself, in a key and in a value.
            ("{\"ab\u{1}c\":1}", 4),
            ("[\"plain\ttab\"]", 7),
            // Unterminated after an escape: at the end of the input,
            // whether the escape is the last thing or plain text follows.
            ("\"a\\n", 4),
            ("\"a\\u0041bc", 10),
            // Escape errors point just past the backslash / the `\u`.
            ("\"ab\\q\"", 4),
            ("\"\\u00zz\"", 3),
        ] {
            let e = Json::parse(text).expect_err(text);
            assert_eq!(e.at, at, "{text}: {e}");
        }
    }

    #[test]
    fn as_u64_is_exact_or_none() {
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::Num(9e15).as_u64(), Some(9_000_000_000_000_000));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(1e16).as_u64(), None);
        // 2^53 - 1 is the largest integer `as_u64` vouches for. From 2^53
        // up the digits may already have been rounded by the parse:
        // both of these land on the f64 2^53.
        assert_eq!(Json::Num(9_007_199_254_740_991.0).as_u64(), Some(9_007_199_254_740_991));
        for text in ["9007199254740992", "9007199254740993"] {
            assert_eq!(Json::parse(text).expect(text).as_u64(), None, "{text}");
        }
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn escape_free_strings_borrow_from_the_input() {
        let text = "{\"t_ns\":5,\"kind\":\"gain_step\",\"span\":\"µ-ramp\"}";
        let v = Json::parse(text).expect("valid line");
        for (k, val) in v.fields().expect("object") {
            assert!(matches!(k, Cow::Borrowed(_)), "key {k:?} was copied");
            if let Json::Str(s) = val {
                assert!(matches!(s, Cow::Borrowed(_)), "value {s:?} was copied");
            }
        }
        assert_eq!(v.get("span").and_then(Json::as_str), Some("µ-ramp"));
        assert!(matches!(Json::parse("\"\"").expect("empty"), Json::Str(Cow::Borrowed(""))));
    }

    #[test]
    fn escaped_strings_come_back_owned_and_unescaped() {
        for (text, want) in [
            ("\"say \\\"hi\\\"\"", "say \"hi\""),
            ("\"back\\\\slash\"", "back\\slash"),
            ("\"two\\nlines\"", "two\nlines"),
            ("\"\\u0041BC\"", "ABC"),
        ] {
            match Json::parse(text).expect(text) {
                Json::Str(Cow::Owned(s)) => assert_eq!(s, want, "{text}"),
                other => panic!("{text}: expected an owned string, got {other:?}"),
            }
        }
        // An escaped key is owned too; its plain neighbours still borrow.
        let v = Json::parse("{\"a\\tb\":\"x\",\"c\":\"y\"}").expect("valid");
        let f = v.fields().expect("object");
        assert!(matches!(&f[0].0, Cow::Owned(k) if k == "a\tb"));
        assert!(matches!(&f[1].0, Cow::Borrowed("c")));
        assert!(matches!(&f[1].1, Json::Str(Cow::Borrowed("y"))));
    }

    #[test]
    fn depth_limit_errors_instead_of_overflowing() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }
}
