//! The workspace's one JSON reader — a small recursive-descent parser
//! for queue files, journal lines and committed baselines, with errors
//! that carry a byte offset — and the string escaping its emitters share.
//!
//! It is strict where `f64::from_str` is not (`01`, `1.` and `-.5` are
//! errors) and rejects a key repeated within one object. Numbers keep
//! their source token, so integers above 2^53 read back exactly and
//! Rust's shortest-roundtrip `{:?}` floats recover their exact bits.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its source token (already checked against the JSON
    /// number grammar).
    Num(String),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order; keys are unique.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` on non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// This number as a non-negative integer, if its token is one that
    /// fits in a `u64` (no fraction, no exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(token) => token.parse().ok(),
            _ => None,
        }
    }

    /// This number as a finite `f64`, if this is a number (exponents too
    /// large for an `f64` are refused, not turned into infinities).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(token) => token.parse().ok().filter(|v: &f64| v.is_finite()),
            _ => None,
        }
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Error strings carry a byte offset into `text`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(value)
}

/// Minimal JSON string escaping for the emitters (the only strings we
/// emit are axis names and file-safe labels, but stay correct anyway).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// Objects nested deeper than this are rejected rather than risking a
// stack overflow on hostile input.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("json: {what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unrecognized token"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates would need pairing; none of our
                            // formats has a use for them.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so slices
                    // at char boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let ch = s.chars().next().expect("peeked non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// One or more ASCII digits.
    fn digits(&mut self) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("malformed number"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        Ok(Json::Num(token.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grammar_round_trips() {
        let doc = r#"{
            "s": "a\"b\\c\u0041\n",
            "n": -1.5e3,
            "i": 42,
            "seed": 9007199254740993,
            "max": 18446744073709551615,
            "over": 18446744073709551616,
            "b": [true, false, null],
            "o": {"nested": {}}
        }"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\cA\n"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(-1500.0));
        assert_eq!(v.get("i").and_then(Json::as_u64), Some(42));
        // Integers past 2^53 come back exactly; past 2^64 they are
        // refused rather than saturated.
        assert_eq!(
            v.get("seed").and_then(Json::as_u64),
            Some(9_007_199_254_740_993)
        );
        assert_eq!(v.get("max").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("over").and_then(Json::as_u64), None);
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(|b| b[0].as_bool()),
            Some(Some(true))
        );
        assert!(v.get("o").and_then(|o| o.get("nested")).is_some());
        // as_u64 refuses non-integers and negatives.
        assert_eq!(v.get("n").and_then(Json::as_u64), None);
        // as_f64 refuses what an f64 cannot hold.
        assert_eq!(parse("1e999").expect("grammatical").as_f64(), None);
    }

    #[test]
    fn errors_carry_byte_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"\\q\"",
            "01x",
            "{} trailing",
            "nul",
            "01",
            "1.",
            "-.5",
            "1e",
            "-",
            "[1.e5]",
            "{\"a\":1,\"a\":2}",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.contains("byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn hostile_depth_is_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let round = format!("\"{}\"", json_escape("a\"b\\c\nd\u{1}"));
        assert_eq!(parse(&round).unwrap().as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn shortest_float_representation_roundtrips_exactly() {
        for v in [
            0.1_f64,
            1.0 / 3.0,
            1e-300,
            -2.5e17,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            -0.0,
        ] {
            let line = format!("{{\"v\":{v:?}}}");
            let back = parse(&line)
                .expect("parses")
                .get("v")
                .and_then(Json::as_f64);
            assert_eq!(back.map(f64::to_bits), Some(v.to_bits()), "{v:?}");
        }
    }

    #[test]
    fn truncated_lines_are_rejected_not_panicked() {
        for bad in [
            r#"{"id":3"#,
            r#"{"id":3,"#,
            r#"{"id":}"#,
            r#"{"id""#,
            r#"{"k":"unterminated}"#,
            r#"{"k":"\u00"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse("{}"), Ok(Json::Obj(Vec::new())));
    }
}
