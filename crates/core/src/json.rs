//! Minimal strict JSON (RFC 8259) round-trip machinery.
//!
//! The workspace is dependency-free, so everything that speaks JSON —
//! the sweep emitters, the bench baselines, and the on-disk result
//! [`store`](crate::store) — shares this one parser/escaper instead of
//! pulling in `serde`. It began life as the test-only round-trip parser
//! guarding `SweepResult::to_json` and was promoted to a real module
//! when the store needed to *read* its own records back.
//!
//! Design constraints, in order:
//!
//! 1. **Exact integer round trips.** Store records carry `u64` counters
//!    and `f64::to_bits()` values; parsing them through an `f64` would
//!    silently lose bits above 2^53 and break the report-digest trust
//!    chain. Integer-shaped numbers therefore parse into
//!    [`Value::Int`] (full `u64` range), and only fractional/exponent
//!    forms fall back to [`Value::Num`].
//! 2. **Strictness.** Anything RFC 8259 rejects (trailing garbage, raw
//!    control characters in strings, malformed escapes) is an error —
//!    the store treats *any* parse error as a cache miss, so a lenient
//!    parser would serve half-written records.
//! 3. **Smallness.** Objects, arrays, strings, numbers, and the three
//!    literals; object fields keep insertion order in a `Vec` (no map —
//!    duplicates are the producer's bug, lookups take the first).
//! 4. **Bounded depth.** The reader recurses once per open `[`/`{`, so
//!    nesting deeper than `MAX_DEPTH` (64) is an error rather than a
//!    stack overflow: a corrupt store record or baseline must fail by
//!    name, never abort the process.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-shaped number (no `.`/`e`), exact over the full `u64`
    /// range. Negative integers parse as [`Value::Num`].
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Field lookup on an object; `None` on anything else.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload, if this is an integer-shaped number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload, coercing exact integers (`Int` or `Num`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. Everything this
/// workspace writes nests a handful of levels; the cap only has to keep
/// the recursive reader far from the end of a thread's stack.
const MAX_DEPTH: usize = 64;

/// Parses one complete JSON document; trailing non-whitespace, and
/// arrays or objects nested more than 64 deep, are errors.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(v)
}

/// Escapes `s` for embedding inside a JSON string literal: backslash,
/// double quote, and control characters (RFC 8259 §7). Everything else
/// passes through (emitters write UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
    if *i < b.len() && b[*i] == c {
        *i += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *i))
    }
}

fn literal(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*i..].starts_with(word.as_bytes()) {
        *i += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

/// Parses the value at `*i`; `depth` counts the arrays and objects
/// that enclose it.
fn value(b: &[u8], i: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, i);
    if matches!(b.get(*i), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *i));
    }
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let Value::Str(k) = string(b, i)? else {
                    unreachable!()
                };
                skip_ws(b, i);
                expect(b, i, b':')?;
                fields.push((k, value(b, i, depth + 1)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("bad object at byte {}", *i)),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(value(b, i, depth + 1)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("bad array at byte {}", *i)),
                }
            }
        }
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, "true", Value::Bool(true)),
        Some(b'f') => literal(b, i, "false", Value::Bool(false)),
        Some(b'n') => literal(b, i, "null", Value::Null),
        Some(_) => {
            let start = *i;
            while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                *i += 1;
            }
            let text = std::str::from_utf8(&b[start..*i])
                .map_err(|_| format!("bad number at byte {start}"))?;
            if text.is_empty() {
                return Err(format!("bad number at byte {start}"));
            }
            // Integer-shaped (all digits) parses exactly; everything
            // else goes through f64.
            if text.bytes().all(|c| c.is_ascii_digit()) {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse()
                .map(Value::Num)
                .map_err(|_| format!("bad number at byte {start}"))
        }
        None => Err("unexpected end".into()),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<Value, String> {
    expect(b, i, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*i) {
            Some(b'"') => {
                *i += 1;
                return Ok(Value::Str(out));
            }
            Some(b'\\') => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*i + 1..*i + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u at byte {}", *i))?;
                        out.push(
                            char::from_u32(hex)
                                .ok_or_else(|| format!("bad code point {hex:#x}"))?,
                        );
                        *i += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *i)),
                }
                *i += 1;
            }
            Some(&c) if c < 0x20 => return Err(format!("raw control char at byte {}", *i)),
            Some(_) => {
                let start = *i;
                while *i < b.len() && b[*i] != b'"' && b[*i] != b'\\' && b[*i] >= 0x20 {
                    *i += 1;
                }
                out.push_str(
                    std::str::from_utf8(&b[start..*i]).map_err(|_| "bad utf-8".to_string())?,
                );
            }
            None => return Err("unterminated string".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_exactly_over_the_full_u64_range() {
        // 2^53 + 1 is the first integer an f64 cannot represent; the
        // store's digest and bit-pattern fields live far above it.
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let doc = format!("{{\"v\": {n}}}");
            let v = parse(&doc).unwrap();
            assert_eq!(v.get("v").and_then(Value::as_u64), Some(n), "{n}");
        }
    }

    #[test]
    fn fractional_and_negative_numbers_are_floats() {
        let v = parse("[1.5, -3, 2e6]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Value::Num(1.5));
        assert_eq!(items[1], Value::Num(-3.0));
        assert_eq!(items[2], Value::Num(2e6));
        assert_eq!(items[0].as_u64(), None, "floats never pose as ints");
        assert_eq!(items[1].as_f64(), Some(-3.0));
    }

    #[test]
    fn literals_parse() {
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert!(parse("troo").is_err());
    }

    #[test]
    fn escape_then_parse_is_identity_for_hostile_strings() {
        let nasty = "we\"ird\\lab\nel\tx\u{1}/end";
        let doc = format!("{{\"label\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("label").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn strictness_rejects_malformed_documents() {
        assert!(parse("{\"a\": 1,}").is_err(), "trailing comma");
        assert!(parse("{\"a\" 1}").is_err(), "missing colon");
        assert!(parse("[1 2]").is_err(), "missing comma");
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\": 1} extra").is_err(), "trailing garbage");
        assert!(parse("\"raw\u{1}control\"").is_err());
        assert!(parse("").is_err());
        // A record truncated mid-write must never parse.
        let full = "{\"report\": [1, 2, 3], \"digest\": 99}";
        for cut in 1..full.len() {
            assert!(parse(&full[..cut]).is_err(), "truncation at {cut} parsed");
        }
    }

    #[test]
    fn nested_structure_and_field_order() {
        let v = parse("{\"a\": [1, {\"b\": \"x\"}], \"c\": null}").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_naming_the_byte() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok(), "the cap itself parses");
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Far past the cap, unbalanced, and mixing objects and arrays:
        // an error, not a stack overflow.
        let deep = format!("{{\"a\": {}", "[".repeat(200_000));
        let err = parse(&deep).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
        let objs = "{\"k\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objs).unwrap_err().starts_with("nesting deeper than"));
    }
}
