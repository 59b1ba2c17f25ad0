//! Minimal JSON emission and parsing.
//!
//! The workspace builds hermetically (the `serde` dependency is a
//! derive-only shim with no serializer), so the observability layer
//! carries its own small writer and reader. The writer covers exactly
//! what the exporters need — objects, arrays, strings, integers and
//! finite floats — and always produces valid UTF-8 JSON. The reader
//! ([`parse`] → [`Value`], and the counting [`validate`]) implements the
//! strict RFC 8259 grammar and backs the CI smoke checks, the `regress`
//! gate and the fleet journal.

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal (including the quotes).
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Renders a float as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn float(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Incremental writer for one JSON object or array.
///
/// ```
/// let mut o = ftr_obs::json::Obj::new();
/// o.field("name", ftr_obs::json::string("steps"));
/// o.num("count", 3);
/// assert_eq!(o.finish(), r#"{"name":"steps","count":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj { buf: String::from("{"), any: false }
    }

    fn sep(&mut self) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
    }

    /// Adds a field whose value is already-rendered JSON.
    pub fn field(&mut self, key: &str, json_value: impl AsRef<str>) -> &mut Self {
        self.sep();
        self.buf.push_str(&string(key));
        self.buf.push(':');
        self.buf.push_str(json_value.as_ref());
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.field(key, string(v))
    }

    /// Adds an integer field.
    pub fn num(&mut self, key: &str, v: impl Into<i128>) -> &mut Self {
        self.field(key, v.into().to_string())
    }

    /// Adds a float field.
    pub fn float(&mut self, key: &str, v: f64) -> &mut Self {
        self.field(key, float(v))
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.field(key, if v { "true" } else { "false" })
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Joins already-rendered JSON values into an array.
pub fn array<I: IntoIterator<Item = S>, S: AsRef<str>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(it.as_ref());
    }
    buf.push(']');
    buf
}

/// A parsed JSON value.
///
/// Produced by [`parse`]; integers that fit `i128` without a fraction or
/// exponent stay exact ([`Value::Int`]), everything else numeric becomes
/// [`Value::Float`]. Object fields keep their textual order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer without fraction/exponent, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object (`None` for other value kinds).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `i64` if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers convert losslessly when possible).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Parses one JSON document into a [`Value`] under the same strict
/// RFC 8259 grammar [`validate`] enforces.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0, seen: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Structural validity check used by tests and the CI smoke job: parses
/// the value grammar (objects, arrays, strings, numbers, booleans, null)
/// and returns the number of values seen, or an error description.
pub fn validate(s: &str) -> Result<usize, String> {
    let mut p = Parser { b: s.as_bytes(), i: 0, seen: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(p.seen)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    seen: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.seen += 1;
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    /// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    /// Delegating to `f64::parse` would also accept `.5`, `01`, `1.` and
    /// `+3`, which JSON forbids.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        // int part: a lone 0, or a nonzero digit followed by digits
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
            }
            _ => return Err(format!("bad number: missing integer digits at byte {start}")),
        }
        if self.peek().is_some_and(|c| c.is_ascii_digit()) {
            return Err(format!("bad number: leading zero at byte {start}"));
        }
        // optional fraction: '.' requires at least one digit
        if self.peek() == Some(b'.') {
            integral = false;
            self.i += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("bad number: empty fraction at byte {start}"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        // optional exponent: e/E, optional sign, at least one digit
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(format!("bad number: empty exponent at byte {start}"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // decode bytes up to the closing quote; multi-byte UTF-8 sequences
        // pass through verbatim (the input is a &str, so they are valid)
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| String::from("unterminated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                // high surrogate: require a low-surrogate pair
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or(format!("invalid \\u escape {cp:04x}"))?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!(
                                "bad escape \\{} at byte {}",
                                other as char, self.i
                            ))
                        }
                    }
                }
                _ => {
                    // re-take the full UTF-8 character starting at c
                    let s =
                        std::str::from_utf8(&self.b[self.i - 1..]).map_err(|e| e.to_string())?;
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8() - 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.i + 4;
        if end > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.b[self.i..end]).map_err(|e| e.to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.i = end;
        Ok(cp)
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("expected , or }} got {other:?} at {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected , or ] got {other:?} at {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn object_builder() {
        let mut o = Obj::new();
        o.str("name", "x").num("n", 3).float("f", 0.5).bool("ok", true);
        let s = o.finish();
        assert_eq!(s, r#"{"name":"x","n":3,"f":0.5,"ok":true}"#);
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn arrays_and_nesting_validate() {
        let inner = {
            let mut o = Obj::new();
            o.num("a", 1);
            o.finish()
        };
        let s = array([inner.as_str(), "2", "null", r#""s""#]);
        assert_eq!(s, r#"[{"a":1},2,null,"s"]"#);
        assert!(validate(&s).is_ok());
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate("{").is_err());
        assert!(validate(r#"{"a":}"#).is_err());
        assert!(validate("[1,2,]").is_err());
        assert!(validate("123 45").is_err());
        assert!(validate(r#"{"a":1}"#).is_ok());
    }

    #[test]
    fn validator_enforces_rfc8259_numbers() {
        // f64::parse accepts all of these; the JSON grammar does not
        for bad in [".5", "01", "1.", "+3", "1e", "1e+", "-", "-.5", "00", "0x1", "1.e3"] {
            assert!(validate(bad).is_err(), "`{bad}` must be rejected");
        }
        for good in ["0", "-0", "5", "-0.5", "0.25", "1e3", "1E-2", "-12.5e+10", "120"] {
            assert!(validate(good).is_ok(), "`{good}` must be accepted");
        }
        assert!(validate(r#"[0.5,1e9,{"a":-3.25E-4}]"#).is_ok());
        assert!(validate(r#"{"a":.5}"#).is_err());
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(2.5), "2.5");
    }

    #[test]
    fn parse_produces_typed_values() {
        let v = parse(r#"{"a":1,"b":-2.5,"c":"x","d":[true,null],"e":{"f":18446744073709551615}}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("d").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert!(arr[1].is_null());
        // u64::MAX has no i64 representation but stays exact as an integer
        assert_eq!(v.get("e").unwrap().get("f").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("e").unwrap().get("f").unwrap().as_i64(), None);
    }

    #[test]
    fn parse_resolves_escapes() {
        assert_eq!(parse(r#""a\"b\\c\n\tA""#).unwrap(), Value::Str("a\"b\\c\n\tA".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        assert_eq!(parse(r#""Aé""#).unwrap(), Value::Str("Aé".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate must be rejected");
        assert!(parse(r#""\q""#).is_err(), "unknown escape must be rejected");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let s = string("mixed \u{1} text\nwith 😀 and \"quotes\"");
        assert_eq!(parse(&s).unwrap().as_str(), Some("mixed \u{1} text\nwith 😀 and \"quotes\""));
    }

    #[test]
    fn parse_and_validate_agree_on_errors() {
        for bad in ["{", r#"{"a":}"#, "[1,2,]", "123 45", ".5", "01"] {
            assert!(parse(bad).is_err(), "`{bad}`");
            assert!(validate(bad).is_err(), "`{bad}`");
        }
    }
}
