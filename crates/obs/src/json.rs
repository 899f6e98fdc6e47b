//! Minimal JSON value + writer/parser for the run-report sink.
//!
//! The workspace has no serde_json (offline build — see `vendor/README.md`),
//! so this module provides an insertion-ordered value tree, a deterministic
//! compact writer, and a small recursive-descent parser (used by the trace
//! schema tests to read emitted reports back). Object keys keep insertion
//! order, making report output byte-stable for the golden-schema test.

/// An insertion-ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` (object variant only; panics otherwise).
    pub fn set(&mut self, key: &str, value: Json) -> &mut Self {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value)),
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Parse a JSON document. Numbers come back as `Num(f64)` (ample for
    /// report/trace introspection); errors carry the byte offset. Containers
    /// nesting deeper than 128 are an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest round-trip form, which is
                    // valid JSON for finite values.
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null"); // JSON has no NaN/Inf
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialisation (no whitespace), deterministic field order.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so an unbounded `[[[[…` from a damaged or hostile file
/// would overflow the stack; the repo's own artifacts nest under ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("expected {lit} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
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
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy up to the next quote or escape. The input
                    // is a &str, so the bytes are valid UTF-8, and UTF-8
                    // continuation bytes never equal '"' or '\\', so both
                    // stop positions are char boundaries.
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

fn write_escaped(s: &str, out: &mut String) {
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
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::UInt(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::UInt(x as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_deterministic_objects() {
        let mut o = Json::obj();
        o.set("name", "coupled".into())
            .set("sypd", Json::Num(0.5))
            .set("ranks", Json::UInt(3))
            .set("list", Json::Arr(vec![Json::Int(-1), Json::Bool(true), Json::Null]));
        assert_eq!(
            o.to_string(),
            r#"{"name":"coupled","sypd":0.5,"ranks":3,"list":[-1,true,null]}"#
        );
    }

    #[test]
    fn escapes_strings_and_maps_nonfinite_to_null() {
        let mut o = Json::obj();
        o.set("s", "a\"b\\c\nd".into()).set("nan", Json::Num(f64::NAN));
        assert_eq!(o.to_string(), r#"{"s":"a\"b\\c\nd","nan":null}"#);
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Found by tests/parser_fuzz.rs: one `[` of a report repeated 2¹⁷ times.
        assert!(Json::parse(&"[{\"a\":".repeat(1 << 17)).is_err());
    }

    #[test]
    fn parses_what_the_writer_emits() {
        let mut o = Json::obj();
        o.set("name", "coupled".into())
            .set("sypd", Json::Num(0.5))
            .set("ranks", Json::UInt(3))
            .set("note", "a\"b\nc".into())
            .set("list", Json::Arr(vec![Json::Int(-1), Json::Bool(true), Json::Null]))
            .set("empty", Json::obj());
        let parsed = Json::parse(&o.to_string()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("coupled"));
        assert_eq!(parsed.get("sypd").and_then(Json::as_f64), Some(0.5));
        assert_eq!(parsed.get("ranks").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("note").and_then(Json::as_str), Some("a\"b\nc"));
        assert_eq!(parsed.get("list").and_then(Json::as_arr).unwrap().len(), 3);
        assert_eq!(parsed.get("empty"), Some(&Json::Obj(Vec::new())));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":1,}"#).is_err());
        assert!(Json::parse(r#"{"a":1} extra"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("[1,2").is_err());
    }

    #[test]
    fn parse_accepts_whitespace_and_nested_structures() {
        let doc = "\n{ \"a\" : [ 1 , { \"b\" : -2.5e1 } ] ,\t\"c\": false }\n";
        let parsed = Json::parse(doc).unwrap();
        let arr = parsed.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").and_then(Json::as_f64), Some(-25.0));
        assert_eq!(parsed.get("c"), Some(&Json::Bool(false)));
    }

    #[test]
    fn float_formatting_is_round_trip_safe() {
        for x in [0.1, 1.0, 1e-9, 12345.678901, 1e300] {
            let s = Json::Num(x).to_string();
            assert_eq!(s.parse::<f64>().unwrap(), x, "via {s}");
        }
    }
}
