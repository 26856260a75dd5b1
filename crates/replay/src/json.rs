//! A borrowed scanner for the one JSON shape the telemetry pipeline emits:
//! a flat object per line whose values are strings, numbers, booleans,
//! `null`, or arrays of those. The workspace is deliberately
//! dependency-free (no serde), and the trace writer's output is restricted
//! enough that this scanner covers it exactly — anything outside that
//! envelope (whitespace, nested arrays or objects) is a malformed line and
//! reported as such.
//!
//! Nothing is copied or converted while scanning: keys and values are
//! slices of the line, and a value is converted when a consumer asks
//! ([`Value::as_u64`] exactly, [`Value::as_f64`] through `str::parse`), so
//! a field nobody reads costs only its syntax check. Integers are exact
//! over the whole `u64` range — the tracer does emit values above 2^53
//! (`until_ps = u64::MAX`, message ids of `(host << 32) | n`), which a
//! reader going through `f64` would round silently.

use std::borrow::Cow;

/// One scanned JSON value: its raw token, borrowed from the line and
/// already syntax-checked — `"text"` with the quotes, `[1,2]` with the
/// brackets, a number, `true`, `false` or `null`. Which of those it is
/// shows in its first byte, so the accessors convert on demand and a value
/// nobody reads is never looked at again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value<'a>(&'a str);

impl<'a> Value<'a> {
    /// `null`, which is also what an unused field slot holds.
    pub const NULL: Value<'static> = Value("null");

    /// The value as f64, when numeric. (No other token parses: the scanner
    /// admits no bare `nan`/`inf`, and strings keep their quotes.)
    pub fn as_f64(&self) -> Option<f64> {
        self.0.parse().ok()
    }

    /// The value as an unsigned integer: exact, or `None`. Only a plain run
    /// of decimal digits that fits `u64` qualifies — a sign, fraction,
    /// exponent or a 21-digit token is not an integer this reader will
    /// guess at.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.bytes().try_fold(0u64, |v, b| {
            if !b.is_ascii_digit() {
                return None;
            }
            v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        })
    }

    /// The value as text, when a string: a slice of the line unless the
    /// string holds escapes, which are decoded into an owned copy.
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        let raw = self.0.strip_prefix('"')?.strip_suffix('"')?;
        Some(if raw.contains('\\') {
            Cow::Owned(unescape(raw))
        } else {
            Cow::Borrowed(raw)
        })
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// The elements, when an array.
    pub fn items(&self) -> Option<impl Iterator<Item = Value<'a>>> {
        let inner = self.0.strip_prefix('[')?.strip_suffix(']')?;
        let mut at = 0;
        Some(std::iter::from_fn(move || {
            // `inner` passed `value_end`, so elements and separators are
            // where they must be; a failure here just ends the walk.
            let end = scalar_end(inner.as_bytes(), at).ok()?;
            let item = Value(&inner[at..end]);
            at = end + 1; // past the ','
            Some(item)
        }))
    }
}

/// Decode the escapes of a string that [`string_end`] accepted. A
/// `\u` escape naming a surrogate decodes to U+FFFD.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next() {
            Some('b') => '\u{8}',
            Some('f') => '\u{c}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let code = chars
                    .by_ref()
                    .take(4)
                    .filter_map(|d| d.to_digit(16))
                    .fold(0, |code, d| code * 16 + d);
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            // `"`, `\`, `/` stand for themselves.
            Some(other) => other,
            None => break,
        });
    }
    out
}

// The scanner proper: each function takes the line's bytes and the index
// of a token's first byte, checks the token, and returns the index just
// past it. Tokens start and end on ASCII bytes, so slicing the line at
// those indices stays on char boundaries.

#[cold]
fn err(msg: &str, at: usize) -> String {
    format!("{msg} at byte {at}")
}

/// A string, from its opening quote.
fn string_end(b: &[u8], at: usize) -> Result<usize, String> {
    if b.get(at) != Some(&b'"') {
        return Err(err("expected '\"'", at));
    }
    let mut i = at + 1;
    loop {
        match b.get(i) {
            None => return Err(err("unterminated string", i)),
            Some(b'"') => return Ok(i + 1),
            Some(b'\\') => match b.get(i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                Some(b'u') => match b.get(i + 2..i + 6) {
                    Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => i += 6,
                    _ => return Err(err("bad \\u escape", i)),
                },
                _ => return Err(err("bad escape", i)),
            },
            Some(c) if *c < 0x20 => return Err(err("raw control char in string", i)),
            Some(_) => i += 1,
        }
    }
}

/// The index past the ASCII digits at `at`.
fn digits_end(b: &[u8], mut at: usize) -> usize {
    while b.get(at).is_some_and(u8::is_ascii_digit) {
        at += 1;
    }
    at
}

/// A number, checked against the grammar `str::parse::<f64>` accepts
/// (`[+-] digits [. digits] [e [+-] digits]`, at least one mantissa digit)
/// so that conversion can wait until a consumer asks.
fn number_end(b: &[u8], at: usize) -> Result<usize, String> {
    let sign_end = at + usize::from(matches!(b.get(at), Some(b'+' | b'-')));
    let mut i = digits_end(b, sign_end);
    let mut mantissa = i - sign_end;
    if b.get(i) == Some(&b'.') {
        let frac_end = digits_end(b, i + 1);
        mantissa += frac_end - (i + 1);
        i = frac_end;
    }
    if mantissa == 0 {
        return Err(err("bad number", at));
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        let exp = i + 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
        i = digits_end(b, exp);
        if i == exp {
            return Err(err("bad number", at));
        }
    }
    Ok(i)
}

fn scalar_end(b: &[u8], at: usize) -> Result<usize, String> {
    match b.get(at) {
        None => Err(err("unexpected end", at)),
        Some(b'"') => string_end(b, at),
        Some(b't' | b'f' | b'n') => ["true", "false", "null"]
            .iter()
            .find(|lit| b[at..].starts_with(lit.as_bytes()))
            .map(|lit| at + lit.len())
            .ok_or_else(|| err("bad literal", at)),
        Some(_) => number_end(b, at),
    }
}

/// A scalar or an array of scalars. Arrays do not nest: the tracer emits
/// none that do, and refusing them keeps the scanner free of recursion a
/// hostile line could drive arbitrarily deep.
fn value_end(b: &[u8], at: usize) -> Result<usize, String> {
    if b.get(at) != Some(&b'[') {
        return scalar_end(b, at);
    }
    if b.get(at + 1) == Some(&b']') {
        return Ok(at + 2);
    }
    let mut i = at + 1;
    loop {
        i = scalar_end(b, i)?;
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(i + 1),
            _ => return Err(err("expected ',' or ']'", i)),
        }
    }
}

/// Scan one `{"key":value,...}` line, handing each field to `on_field` in
/// serialized order; an error from the callback stops the scan and is
/// returned. Keys are passed as their raw text (the tracer never escapes a
/// key, so none is decoded). The trace writer emits no whitespace, and this
/// scanner accepts none — a stricter contract that doubles as a format
/// check.
pub fn scan_object<'a>(
    line: &'a str,
    mut on_field: impl FnMut(&'a str, Value<'a>) -> Result<(), String>,
) -> Result<(), String> {
    let b = line.as_bytes();
    if b.first() != Some(&b'{') {
        return Err(err("expected '{'", 0));
    }
    let mut i = 1;
    if b.get(i) == Some(&b'}') {
        i += 1;
    } else {
        loop {
            let key_end = string_end(b, i)?;
            if b.get(key_end) != Some(&b':') {
                return Err(err("expected ':'", key_end));
            }
            let value_end = value_end(b, key_end + 1)?;
            on_field(
                &line[i + 1..key_end - 1],
                Value(&line[key_end + 1..value_end]),
            )?;
            i = value_end + 1;
            match b.get(value_end) {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(err("expected ',' or '}'", value_end)),
            }
        }
    }
    if i != b.len() {
        return Err(err("trailing data after object", i));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_object(line: &str) -> Result<Vec<(&str, Value<'_>)>, String> {
        let mut fields = Vec::new();
        scan_object(line, |k, v| {
            fields.push((k, v));
            Ok(())
        })?;
        Ok(fields)
    }

    #[test]
    fn parses_trace_shapes() {
        let f = parse_object(
            "{\"seq\":0,\"t_ps\":0,\"type\":\"trace_header\",\"format\":\"aequitas-trace\",\"schema_version\":2}",
        )
        .unwrap();
        assert_eq!(f[0].0, "seq");
        assert_eq!(f[2].1.as_str().as_deref(), Some("trace_header"));
        assert_eq!(f[4].1.as_u64(), Some(2));

        let f = parse_object("{\"w\":[4,1],\"p\":0.75,\"down\":true,\"x\":null,\"e\":[]}").unwrap();
        let w: Vec<_> = f[0].1.items().unwrap().map(|v| v.as_f64()).collect();
        assert_eq!(w, vec![Some(4.0), Some(1.0)]);
        assert_eq!(f[1].1.as_f64(), Some(0.75));
        assert_eq!(f[2].1.as_bool(), Some(true));
        assert_eq!(f[3].1, Value::NULL);
        assert_eq!(f[4].1.items().unwrap().count(), 0);
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn values_answer_only_as_what_they_are() {
        let f = parse_object("{\"s\":\"1\",\"n\":1,\"b\":true,\"z\":null,\"a\":[1]}").unwrap();
        let kinds: Vec<_> = f
            .iter()
            .map(|(_, v)| {
                (
                    v.as_str().is_some(),
                    v.as_f64().is_some(),
                    v.as_u64().is_some(),
                    v.as_bool().is_some(),
                    v.items().is_some(),
                )
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                (true, false, false, false, false),
                (false, true, true, false, false),
                (false, false, false, true, false),
                (false, false, false, false, false),
                (false, false, false, false, true),
            ]
        );
    }

    #[test]
    fn decodes_escapes() {
        let f = parse_object("{\"m\":\"a\\n\\\"b\\\"\\\\\",\"u\":\"\\u00e9\\ud800\\/\",\"p\":\"é,]\"}")
            .unwrap();
        assert!(matches!(f[0].1.as_str(), Some(Cow::Owned(s)) if s == "a\n\"b\"\\"));
        assert_eq!(f[1].1.as_str().as_deref(), Some("é\u{fffd}/"));
        // No escapes: a slice of the line, not a copy.
        assert!(matches!(f[2].1.as_str(), Some(Cow::Borrowed("é,]"))));
    }

    /// Regression: the previous reader went through `f64` and rounded
    /// everything above 2^53 without an error.
    #[test]
    fn integers_are_exact_or_refused() {
        let f = parse_object(
            "{\"a\":9007199254740993,\"b\":18446744073709551615,\"c\":18446744073709551616,\
             \"d\":100000000000000000000,\"e\":-1,\"f\":1.0,\"g\":1e3,\"h\":[9007199254740993,\"x,y\"]}",
        )
        .unwrap();
        assert_eq!(f[0].1.as_u64(), Some((1 << 53) + 1));
        assert_eq!(f[1].1.as_u64(), Some(u64::MAX));
        // One past u64::MAX and a 21-digit token: never wrapped or
        // saturated, still readable as the f64 they always were.
        assert_eq!(f[2].1.as_u64(), None);
        assert_eq!(f[3].1.as_u64(), None);
        assert_eq!(f[3].1.as_f64(), Some(1e20));
        for not_plain in &f[4..7] {
            assert_eq!(not_plain.1.as_u64(), None, "{not_plain:?}");
            assert!(not_plain.1.as_f64().is_some());
        }
        let h: Vec<_> = f[7].1.items().unwrap().collect();
        assert_eq!(h[0].as_u64(), Some((1 << 53) + 1));
        assert_eq!(h[1].as_str().as_deref(), Some("x,y"));
    }

    #[test]
    fn number_grammar_matches_f64_parse() {
        for tok in [
            "0", "-0", "+3", "5.", ".5", "1.e5", "1e5", "1E-5", "1e+5", "007", "1.25", "-1.5e300",
        ] {
            let line = format!("{{\"a\":{tok}}}");
            let f = parse_object(&line).unwrap_or_else(|e| panic!("{tok}: {e}"));
            assert_eq!(f[0].1.as_f64(), tok.parse().ok(), "{tok}");
        }
        for tok in [".", "-", "+", "e5", "1e", "1e+", "-.", "1..2", "1-2", "--1", "1e5.5", "0x10"] {
            assert!(tok.parse::<f64>().is_err(), "{tok}");
            assert!(parse_object(&format!("{{\"a\":{tok}}}")).is_err(), "accepted: {tok}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1",
            "{\"a\":1}x",
            "not json",
            "{\"a\":--}",
            // Outside the envelope: whitespace, nesting, raw controls,
            // unknown or truncated escapes, unterminated strings.
            "{ \"a\":1}",
            "{\"a\":[[1]]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":[1,]}",
            "{\"a\":\"\u{1}\"}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u12g4\"}",
            "{\"a\":\"b}",
            "{\"a\":tru}",
            "{\"a\"}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted: {bad}");
        }
    }
}
