//! A minimal JSON value model with a serializer and parser.
//!
//! The workspace builds with no crates.io access (only the vendored
//! `rand`/`bytes` stand-ins exist), so there is no `serde_json` to lean
//! on. Exported artifacts — Perfetto traces, interval-metric JSONL —
//! instead go through this hand-rolled [`Value`]: enough JSON to emit
//! spec-compliant documents, parse them back, and round-trip exactly
//! (the schema tests rely on `parse(serialize(v)) == v`).
//!
//! Integers and floats are kept distinct (`1` vs `1.0`) so u64 cycle
//! counts survive the round trip without floating-point truncation.
//! Object key order is preserved (insertion order), which is what makes
//! serialized artifacts byte-stable across runs and thread counts.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fraction or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved and serialized.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object (builder entry point).
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — builder
    /// misuse, not data-dependent).
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64` (ints widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Integer value, if this is an [`Value::Int`].
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i as i64)
    }
}
impl From<u64> for Value {
    fn from(i: u64) -> Value {
        // Cycle counts and sequence numbers fit i64 by many orders of
        // magnitude; saturate rather than wrap if one ever does not.
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl fmt::Display for Value {
    /// Compact (no-whitespace) serialization; `{:#}` pretty-prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write(self, f, if f.alternate() { Some(0) } else { None })
    }
}

fn write(v: &Value, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
    let nl = |f: &mut fmt::Formatter<'_>, depth: usize| -> fmt::Result {
        writeln!(f)?;
        write!(f, "{:width$}", "", width = depth * 2)
    };
    match v {
        Value::Null => write!(f, "null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Int(i) => write!(f, "{i}"),
        // `{:?}` keeps a fractional part ("1.0"), so floats stay floats
        // through a round trip; non-finite values have no JSON encoding.
        Value::Float(x) if x.is_finite() => write!(f, "{x:?}"),
        Value::Float(_) => write!(f, "null"),
        Value::Str(s) => write_string(s, f),
        Value::Arr(items) => {
            write!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                if let Some(d) = indent {
                    nl(f, d + 1)?;
                }
                write(item, f, indent.map(|d| d + 1))?;
            }
            if let Some(d) = indent {
                if !items.is_empty() {
                    nl(f, d)?;
                }
            }
            write!(f, "]")
        }
        Value::Obj(fields) => {
            write!(f, "{{")?;
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                if let Some(d) = indent {
                    nl(f, d + 1)?;
                }
                write_string(k, f)?;
                write!(f, ":")?;
                if indent.is_some() {
                    write!(f, " ")?;
                }
                write(item, f, indent.map(|d| d + 1))?;
            }
            if let Some(d) = indent {
                if !fields.is_empty() {
                    nl(f, d)?;
                }
            }
            write!(f, "}}")
        }
    }
}

fn write_string(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so without a limit a long run of `[` overflows the stack and
/// aborts the process instead of returning `Err`. No document the tool
/// writes or reads comes near it.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

/// Names what [`Parser::peek`] found, for error messages.
fn found(b: Option<u8>) -> String {
    match b {
        Some(c) => format!("{:?}", c as char),
        None => "end of input".to_string(),
    }
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
            Err(format!(
                "expected '{}' at byte {}, found {}",
                b as char,
                self.pos,
                found(self.peek())
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {} at byte {}", found(other), self.pos)),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Combine surrogate pairs; lone surrogates
                            // become the replacement character.
                            let c = if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low & 0x3ff);
                                char::from_u32(combined).unwrap_or('\u{fffd}')
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue; // hex4 already advanced
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the whole run of plain characters at once.
                    // `"` and `\` are ASCII, so stopping on those bytes
                    // always lands on a char boundary (UTF-8 continuation
                    // bytes are >= 0x80), and the input came from a &str,
                    // so the run is valid UTF-8.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::obj()
            .field("name", "s64v")
            .field("cycles", 123_456_789_012_i64)
            .field("ipc", 1.25)
            .field("flags", Value::Arr(vec![Value::Bool(true), Value::Null]))
            .field(
                "nested",
                Value::obj()
                    .field("quote", "a \"b\"\nc\\d")
                    .field("n", -3_i64),
            )
    }

    #[test]
    fn serialize_parse_round_trips_exactly() {
        let v = sample();
        let text = v.to_string();
        let back = Value::parse(&text).expect("parse");
        assert_eq!(v, back);
        // And the serialization itself is a fixed point.
        assert_eq!(text, back.to_string());
    }

    #[test]
    fn ints_and_floats_stay_distinct() {
        let text = Value::Arr(vec![Value::Int(1), Value::Float(1.0)]).to_string();
        assert_eq!(text, "[1,1.0]");
        let back = Value::parse(&text).expect("parse");
        assert_eq!(back.as_array().unwrap()[0], Value::Int(1));
        assert_eq!(back.as_array().unwrap()[1], Value::Float(1.0));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let text = r#"{"z": 1, "a": 2, "m": 3}"#;
        let v = Value::parse(text).expect("parse");
        let Value::Obj(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = Value::Str("tab\there \u{1F600} — control:\u{1}".to_string());
        assert_eq!(Value::parse(&v.to_string()).expect("parse"), v);
        // Surrogate-pair input form.
        let parsed = Value::parse(r#""😀""#).expect("parse");
        assert_eq!(parsed.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_bombs_are_rejected_not_overflowed() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let bomb = open.repeat(200_000);
            let start = std::time::Instant::now();
            let err = Value::parse(&bomb).expect_err("a nesting bomb parsed");
            assert!(err.contains("nesting deeper than 256"), "{err}");
            assert!(start.elapsed() < std::time::Duration::from_secs(1));
            let at_limit = format!("{}1{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(
                Value::parse(&at_limit).is_ok(),
                "{open} x {MAX_DEPTH} rejected"
            );
            let over = format!("{open}{at_limit}{close}");
            assert!(
                Value::parse(&over).is_err(),
                "{open} x {} parsed",
                MAX_DEPTH + 1
            );
        }
    }

    #[test]
    fn end_of_input_is_named_not_debug_printed() {
        let err = Value::parse("[1,").unwrap_err();
        assert_eq!(err, "unexpected end of input at byte 3");
        let err = Value::parse("{\"a\"").unwrap_err();
        assert_eq!(err, "expected ':' at byte 4, found end of input");
    }

    #[test]
    fn accessors_navigate_documents() {
        let v = sample();
        assert_eq!(
            v.get("cycles").and_then(Value::as_i64),
            Some(123_456_789_012)
        );
        assert_eq!(v.get("ipc").and_then(Value::as_f64), Some(1.25));
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("n"))
                .and_then(Value::as_i64),
            Some(-3)
        );
        assert_eq!(v.get("name").and_then(Value::as_str), Some("s64v"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn pretty_print_parses_back() {
        let v = sample();
        let pretty = format!("{v:#}");
        assert!(pretty.contains('\n'));
        assert_eq!(Value::parse(&pretty).expect("parse"), v);
    }
}
