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
        // `str::parse` also takes a leading `+`, which this does not.
        match self.0.as_bytes().first() {
            Some(b'0'..=b'9') => self.0.parse().ok(),
            _ => None,
        }
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

/// `b` in every byte of a word.
const fn splat(b: u8) -> u64 {
    0x0101_0101_0101_0101 * b as u64
}

/// The high bit of each byte of `v` below `n` (`n <= 0x80`). Exact up to
/// and including the first such byte (in memory order, the word read
/// little-endian); a borrow out of it may set spurious bits above it, so
/// only the lowest set bit is to be trusted.
const fn bytes_below(v: u64, n: u8) -> u64 {
    v.wrapping_sub(splat(n)) & !v & splat(0x80)
}

/// Flags the bytes of a string body's 8-byte word that the byte-wise
/// grammar must look at — `"`, `\` or a raw control byte; the lowest set
/// bit marks the first of them. Any other byte, UTF-8 included, passes.
const fn specials(word: u64) -> u64 {
    bytes_below(word ^ splat(b'"'), 1)
        | bytes_below(word ^ splat(b'\\'), 1)
        | bytes_below(word, 0x20)
}

/// A string, from its opening quote. Plain bytes are skipped a word at a
/// time; the byte `specials` stops at, and a tail shorter than a word, go
/// through the byte-wise grammar.
fn string_end(b: &[u8], at: usize) -> Result<usize, String> {
    if b.get(at) != Some(&b'"') {
        return Err(err("expected '\"'", at));
    }
    let mut i = at + 1;
    loop {
        while let Some(word) = b.get(i..).and_then(<[u8]>::first_chunk::<8>) {
            let hits = specials(u64::from_le_bytes(*word));
            if hits != 0 {
                i += hits.trailing_zeros() as usize / 8;
                break;
            }
            i += 8;
        }
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

/// How many of `word`'s bytes, from the first in memory order, are ASCII
/// digits before the first that is not (8 when all are). A byte is a digit
/// when its high nibble is 3 and adding 6 keeps it there; a carry out of a
/// byte needs one of 0xFA..=0xFF, which is itself not a digit, so no carry
/// disturbs the bytes before the first non-digit.
const fn digit_run(word: u64) -> usize {
    let high = splat(0xF0);
    let not_digit =
        ((word & high) ^ splat(0x30)) | ((word.wrapping_add(splat(6)) & high) ^ splat(0x30));
    not_digit.trailing_zeros() as usize / 8
}

/// The index past the ASCII digits at `at`, a word at a time while a word
/// is left.
fn digits_end(b: &[u8], mut at: usize) -> usize {
    while let Some(word) = b.get(at..).and_then(<[u8]>::first_chunk::<8>) {
        let run = digit_run(u64::from_le_bytes(*word));
        at += run;
        if run < 8 {
            return at;
        }
    }
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

/// Where a [`Fields`] cursor stands.
#[derive(Debug, Clone, Copy)]
enum At {
    /// Before the opening `{`.
    Open,
    /// Just past a value, at the `,` or `}` that must follow it. That byte
    /// is judged when the next field is asked for, so a consumer that
    /// rejects the value reports that first.
    After(usize),
    /// Past the end, or past an error.
    Done,
}

/// The fields of one `{"key":value,...}` line, scanned one at a time in
/// serialized order. Keys come as their raw text (the tracer never escapes
/// a key, so none is decoded). The trace writer emits no whitespace, and
/// this scanner accepts none — a stricter contract that doubles as a format
/// check. A line is well-formed when [`Fields::next_field`] reaches
/// `Ok(None)`; the first error ends the scan.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    line: &'a str,
    at: At,
}

impl<'a> Fields<'a> {
    /// A cursor before the line's first byte.
    pub fn new(line: &'a str) -> Fields<'a> {
        Fields { line, at: At::Open }
    }

    /// The next field, `None` after the last one (once the line is known to
    /// end there), or what is wrong with the line.
    pub fn next_field(&mut self) -> Result<Option<(&'a str, Value<'a>)>, String> {
        let Some(key) = self.next_key()? else {
            return Ok(None);
        };
        let b = self.line.as_bytes();
        let key_end = string_end(b, key)?;
        if b.get(key_end) != Some(&b':') {
            return Err(err("expected ':'", key_end));
        }
        let value = self.value(key_end + 1)?;
        Ok(Some((&self.line[key + 1..key_end - 1], value)))
    }

    /// The next field's value when its key is exactly `key`, given as the
    /// literal `"key":` — recognised by comparing the line's bytes with
    /// it, so the key is neither scanned nor resolved. Otherwise `None`,
    /// and the cursor stays put for [`Fields::next_field`] to read the
    /// field (or report what is wrong with it).
    pub fn value_if_key(&mut self, key: &str) -> Result<Option<Value<'a>>, String> {
        let b = self.line.as_bytes();
        let at = match self.at {
            At::Open if b.first() == Some(&b'{') => 1,
            At::After(end) if b.get(end) == Some(&b',') => end + 1,
            _ => return Ok(None),
        };
        if !b
            .get(at..)
            .is_some_and(|rest| rest.starts_with(key.as_bytes()))
        {
            return Ok(None);
        }
        self.value(at + key.len()).map(Some)
    }

    /// Where the next key's opening quote is, or `None` when the object
    /// closed and the line ends there.
    fn next_key(&mut self) -> Result<Option<usize>, String> {
        let b = self.line.as_bytes();
        let closed = match std::mem::replace(&mut self.at, At::Done) {
            At::Done => return Ok(None),
            At::Open if b.first() != Some(&b'{') => return Err(err("expected '{'", 0)),
            At::Open if b.get(1) == Some(&b'}') => 2,
            At::Open => return Ok(Some(1)),
            At::After(end) => match b.get(end) {
                Some(b',') => return Ok(Some(end + 1)),
                Some(b'}') => end + 1,
                _ => return Err(err("expected ',' or '}'", end)),
            },
        };
        if closed != b.len() {
            return Err(err("trailing data after object", closed));
        }
        Ok(None)
    }

    /// The value starting at `at`; the cursor moves past it.
    fn value(&mut self, at: usize) -> Result<Value<'a>, String> {
        self.at = At::Done;
        let end = value_end(self.line.as_bytes(), at)?;
        self.at = At::After(end);
        Ok(Value(&self.line[at..end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_object(line: &str) -> Result<Vec<(&str, Value<'_>)>, String> {
        let mut cursor = Fields::new(line);
        let mut fields = Vec::new();
        while let Some(field) = cursor.next_field()? {
            fields.push(field);
        }
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
        let f =
            parse_object("{\"m\":\"a\\n\\\"b\\\"\\\\\",\"u\":\"\\u00e9\\ud800\\/\",\"p\":\"é,]\"}")
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
        for tok in [
            ".", "-", "+", "e5", "1e", "1e+", "-.", "1..2", "1-2", "--1", "1e5.5", "0x10",
        ] {
            assert!(tok.parse::<f64>().is_err(), "{tok}");
            assert!(
                parse_object(&format!("{{\"a\":{tok}}}")).is_err(),
                "accepted: {tok}"
            );
        }
    }

    /// The `string` rule of the module doc, byte by byte: whether `body`
    /// (what lies between the quotes) is a well-formed string body.
    fn body_ok(body: &[u8]) -> bool {
        let mut i = 0;
        while i < body.len() {
            match body[i] {
                b'"' | 0..=0x1f => return false,
                b'\\' => match body.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                    Some(b'u')
                        if body
                            .get(i + 2..i + 6)
                            .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) =>
                    {
                        i += 6;
                    }
                    _ => return false,
                },
                _ => i += 1,
            }
        }
        true
    }

    /// Strings and keys of 0 to 24 bytes with one special at every offset,
    /// starting at every position within a word, as a key, as a value and
    /// unterminated at the end of the line: the word-at-a-time scanner
    /// accepts exactly what the byte-wise grammar accepts.
    #[test]
    fn string_scanning_agrees_with_the_grammar_at_every_offset() {
        let specials = [
            "\"",
            "\\\"",
            "\\\\",
            "\\n",
            "\\/",
            "\\u00e9",
            "\\u12g4",
            "\\x",
            "\\",
            "\u{1}",
            "\u{1f}",
            "\u{e9}\u{7f}",
        ];
        let mut cases = 0;
        for len in 0..=24 {
            for at in 0..=len {
                for special in specials {
                    let body = format!("{}{special}{}", "a".repeat(at), "a".repeat(len - at));
                    let want = body_ok(body.as_bytes());
                    for pad in 0..8 {
                        let pad = "p".repeat(pad);
                        let as_value = format!("{{\"{pad}\":1,\"k\":\"{body}\"}}");
                        let got = parse_object(&as_value);
                        assert_eq!(got.is_ok(), want, "{as_value:?}: {got:?}");
                        if let Ok(fields) = got {
                            assert_eq!(fields[1].1, Value(&format!("\"{body}\"")), "{as_value:?}");
                        }
                        let as_key = format!("{{\"{pad}\":1,\"{body}\":2}}");
                        let got = parse_object(&as_key);
                        assert_eq!(got.is_ok(), want, "{as_key:?}: {got:?}");
                        if let Ok(fields) = got {
                            assert_eq!(fields[1].0, body, "{as_key:?}");
                        }
                        // The line ends inside the string, mid-word or not.
                        let cut = format!("{{\"{pad}\":\"{body}");
                        assert!(parse_object(&cut).is_err(), "{cut:?}");
                        cases += 3;
                    }
                }
            }
        }
        assert!(cases > 30_000, "{cases}");
    }

    /// Runs of 1 to 24 digits starting at every position within a word,
    /// then each byte that may follow a number, or borders the digits in
    /// ASCII, or is not ASCII.
    #[test]
    fn digit_scanning_agrees_with_the_grammar() {
        for len in 1..=24 {
            let digits: String = (0..len)
                .map(|i| char::from(b'1' + (i * 7 % 9) as u8))
                .collect();
            for pad in 0..8 {
                let pad = "p".repeat(pad);
                for (next, ok) in [
                    ("}", true),
                    (",\"z\":0}", true),
                    (".5}", true),
                    ("e3}", true),
                    ("x}", false),
                    ("/}", false),
                    (":}", false),
                    (" }", false),
                    ("-}", false),
                    ("\u{e9}}", false),
                    ("", false),
                ] {
                    let line = format!("{{\"{pad}\":{digits}{next}");
                    let got = parse_object(&line);
                    assert_eq!(got.is_ok(), ok, "{line:?}: {got:?}");
                    if let (Ok(fields), "}" | ",\"z\":0}") = (&got, next) {
                        assert_eq!(fields[0].1.as_u64(), digits.parse().ok(), "{line:?}");
                    }
                }
            }
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
