//! The workspace's one JSON codec: [`push_json_string`], the string
//! escaper every simsym JSON writer shares, and [`parse`], a minimal
//! reader for the documents simsym reads back — schedule traces, repro
//! artifacts, farm job specs and journal records. The workspace is built
//! offline (see the workspace `Cargo.toml`), so no serde_json.
//!
//! The reader is strict where the writers are: integers only (a fraction
//! or exponent is an error), no duplicate object keys, `\u` escapes must
//! name a Unicode scalar value, and only JSON whitespace (space, tab, LF,
//! CR) may separate tokens.

/// Appends `s` to `out` as a JSON string literal: named escapes for the
/// quote, the backslash and `\n` `\r` `\t`, `\uXXXX` for the rest of C0.
pub fn push_json_string(out: &mut String, s: &str) {
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

/// A parsed JSON value. Integers are kept as `i128`, wide enough for both
/// the `u64` fingerprints of a trace and the `i64` values of a job spec.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's fields in document order (keys are unique).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is one that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The flag, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// First value for `key` in an object's field list.
pub fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Option<&'v Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// How deeply arrays and objects may nest. Traces, repro artifacts and
/// job specs are a few levels deep; the bound keeps a hostile document
/// (job specs arrive over the network) from exhausting the stack.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document; anything but whitespace after it is an
/// error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(format!("trailing data at byte {}", r.pos));
    }
    Ok(value)
}

struct Reader<'t> {
    text: &'t str,
    bytes: &'t [u8],
    /// Always on a char boundary of `text`.
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `c` if it comes next, after whitespace.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.bytes.get(self.pos) == Some(&c);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if *c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs a container parser one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn lit(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if matches!(self.bytes.get(self.pos), Some(b'.' | b'e' | b'E')) {
            return Err(format!("non-integer number at byte {start}"));
        }
        let digits = &self.text[start..self.pos];
        digits
            .parse()
            .map(Value::Int)
            .map_err(|_| format!("bad integer {digits:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let start = self.pos;
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            out.push(char::from_u32(code).ok_or_else(|| {
                                format!("\\u{code:04x} at byte {start} is not a scalar value")
                            })?);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.text[self.pos..].chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Value)> = Vec::new();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        let mut keys = std::collections::HashSet::new();
        loop {
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                return Err(format!("duplicate key {key:?}"));
            }
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.pos));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_span_u64_and_i64() {
        let v = parse("[18446744073709551615, -9223372036854775808]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1], Value::Int(i128::from(i64::MIN)));
        assert_eq!(items[1].as_u64(), None);
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "{err}");
    }

    #[test]
    fn rejects_exponents_and_signed_hex_escapes() {
        for (text, want) in [("2e3", "non-integer"), ("\"\\u+123\"", "bad \\u escape")] {
            let err = parse(text).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
    }
}
