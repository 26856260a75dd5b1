//! A small Rust lexer — just enough to lint safely.
//!
//! The rules in this tool must never fire on text inside string literals,
//! raw strings, char literals, or comments ("a `HashMap::new()` here" in a
//! doc comment is not a construction). A full parser is
//! overkill and would drag in external dependencies; a lexer that
//! classifies every byte of the file into comment / string / code tokens is
//! enough, because every rule we enforce is expressible over the token
//! stream plus comment positions.
//!
//! Comments are kept as tokens (rules like AQ008 look for justification
//! comments); rules that only care about code iterate a filtered view.

/// What a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal (including suffixed, hex, binary, octal).
    Int,
    /// Float literal (`1.0`, `1e9`, `2.5f64`, ...).
    Float,
    /// String, raw string, byte string, or char literal. Contents skipped.
    Str,
    /// `// ...` comment (incl. doc comments). Text includes the slashes.
    LineComment,
    /// `/* ... */` comment (nested supported). Text includes delimiters.
    BlockComment,
    /// A lifetime like `'a`.
    Lifetime,
    /// Any single punctuation byte (`+`, `#`, `(`, ...). Multi-char
    /// operators appear as consecutive punct tokens; rules that need `==`
    /// or `!=` match two adjacent puncts.
    Punct,
}

/// One token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// The token text as it appears in the source.
    pub text: String,
    /// 1-based line of the first byte.
    pub line: u32,
    /// 1-based column (in bytes) of the first byte.
    pub col: u32,
}

/// Tokenize `src`. Never fails: malformed input degenerates into punct
/// tokens, which at worst makes a rule miss — never false-fire inside a
/// string or comment, because those are recognized first.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    // Advance a cursor over `n` bytes, updating line/col.
    fn advance(b: &[u8], start: usize, n: usize, line: &mut u32, col: &mut u32) {
        for &c in &b[start..start + n] {
            if c == b'\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
        }
    }

    while i < b.len() {
        let (l0, c0) = (line, col);
        let c = b[i];
        // Whitespace.
        if c.is_ascii_whitespace() {
            advance(b, i, 1, &mut line, &mut col);
            i += 1;
            continue;
        }
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            let end = b[i..]
                .iter()
                .position(|&x| x == b'\n')
                .map(|p| i + p)
                .unwrap_or(b.len());
            push(&mut toks, TokKind::LineComment, &src[i..end], l0, c0);
            advance(b, i, end - i, &mut line, &mut col);
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            push(&mut toks, TokKind::BlockComment, &src[i..j], l0, c0);
            advance(b, i, j - i, &mut line, &mut col);
            i = j;
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."#, any number of #.
        if c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r') {
            let r_at = if c == b'r' { i } else { i + 1 };
            let mut hashes = 0usize;
            let mut j = r_at + 1;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                // Scan for closing quote followed by `hashes` hashes.
                j += 1;
                let closer_found = loop {
                    match b[j..].iter().position(|&x| x == b'"') {
                        Some(p) => {
                            let q = j + p;
                            if b[q + 1..].len() >= hashes
                                && b[q + 1..q + 1 + hashes].iter().all(|&x| x == b'#')
                            {
                                break Some(q + 1 + hashes);
                            }
                            j = q + 1;
                        }
                        None => break None,
                    }
                };
                let end = closer_found.unwrap_or(b.len());
                push(&mut toks, TokKind::Str, &src[i..end], l0, c0);
                advance(b, i, end - i, &mut line, &mut col);
                i = end;
                continue;
            }
            // Not a raw string ("r" identifier etc.) — fall through.
        }
        // Plain / byte strings.
        if c == b'"' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let open = if c == b'"' { i } else { i + 1 };
            let mut j = open + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let end = j.min(b.len());
            push(&mut toks, TokKind::Str, &src[i..end], l0, c0);
            advance(b, i, end - i, &mut line, &mut col);
            i = end;
            continue;
        }
        // Char literal vs lifetime. A `'` starts a char literal if it closes
        // within a few bytes (`'a'`, `'\n'`, `'\u{1F600}'`); otherwise it is
        // a lifetime.
        if c == b'\'' {
            let mut j = i + 1;
            if j < b.len() && b[j] == b'\\' {
                // Escaped char literal: scan to closing quote.
                j += 2;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                let end = (j + 1).min(b.len());
                push(&mut toks, TokKind::Str, &src[i..end], l0, c0);
                advance(b, i, end - i, &mut line, &mut col);
                i = end;
                continue;
            }
            // 'x' (any single non-quote char then ').
            if j < b.len() && b[j] != b'\'' && j + 1 < b.len() && b[j + 1] == b'\'' {
                push(&mut toks, TokKind::Str, &src[i..j + 2], l0, c0);
                advance(b, i, j + 2 - i, &mut line, &mut col);
                i = j + 2;
                continue;
            }
            // Lifetime: ' then ident chars.
            let mut k = i + 1;
            while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                k += 1;
            }
            push(&mut toks, TokKind::Lifetime, &src[i..k], l0, c0);
            advance(b, i, k - i, &mut line, &mut col);
            i = k;
            continue;
        }
        // Numbers. A leading digit starts an int or float. `1.0` is a float;
        // `1.max(2)` is int + punct + ident (we only treat `.` as part of the
        // number when followed by a digit). Exponents (`1e9`) and type
        // suffixes are consumed.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            let mut is_float = false;
            // Hex/bin/oct prefix.
            if c == b'0' && j < b.len() && matches!(b[j], b'x' | b'b' | b'o') {
                j += 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            } else {
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                    j += 1;
                }
                if j + 1 < b.len() && b[j] == b'.' && b[j + 1].is_ascii_digit() {
                    is_float = true;
                    j += 1;
                    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                        j += 1;
                    }
                } else if j < b.len() && b[j] == b'.' {
                    // `1.` followed by non-digit non-ident: float like `1.`;
                    // followed by ident: method call on an int — stop here.
                    let next_is_ident = j + 1 < b.len()
                        && (b[j + 1].is_ascii_alphabetic() || b[j + 1] == b'_' || b[j + 1] == b'.');
                    if !next_is_ident {
                        is_float = true;
                        j += 1;
                    }
                }
                if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                    let k = j + 1;
                    let k2 = if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k + 1
                    } else {
                        k
                    };
                    if k2 < b.len() && b[k2].is_ascii_digit() {
                        is_float = true;
                        j = k2;
                        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                            j += 1;
                        }
                    }
                }
                // Type suffix (f64 marks a float; u64 etc. keep int).
                if j < b.len() && (b[j] == b'f' || b[j] == b'u' || b[j] == b'i') {
                    let start_sfx = j;
                    let mut k = j;
                    while k < b.len() && (b[k].is_ascii_alphanumeric() || b[k] == b'_') {
                        k += 1;
                    }
                    if b[start_sfx] == b'f' {
                        is_float = true;
                    }
                    j = k;
                }
            }
            let kind = if is_float {
                TokKind::Float
            } else {
                TokKind::Int
            };
            push(&mut toks, kind, &src[i..j], l0, c0);
            advance(b, i, j - i, &mut line, &mut col);
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut j = i + 1;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            push(&mut toks, TokKind::Ident, &src[i..j], l0, c0);
            advance(b, i, j - i, &mut line, &mut col);
            i = j;
            continue;
        }
        // Everything else: one punct byte.
        push(&mut toks, TokKind::Punct, &src[i..i + 1], l0, c0);
        advance(b, i, 1, &mut line, &mut col);
        i += 1;
    }
    toks
}

fn push(toks: &mut Vec<Tok>, kind: TokKind, text: &str, line: u32, col: u32) {
    toks.push(Tok {
        kind,
        text: text.to_string(),
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn skips_strings_and_comments() {
        let toks = kinds(r#"let x = "Instant::now()"; // Instant here too"#);
        assert!(toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .all(|(_, t)| t != "Instant"));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::Str));
        assert!(toks.iter().any(|(k, _)| *k == TokKind::LineComment));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"a "quoted" Instant"#; let t = 1;"###;
        let toks = kinds(src);
        assert!(toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .all(|(_, t)| t != "Instant" && t != "quoted"));
        // The trailing code after the raw string is still lexed.
        assert!(toks.iter().any(|(_, t)| t == "t"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still comment */ code");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Ident).count(), 1);
        assert!(toks.iter().any(|(_, t)| t == "code"));
    }

    #[test]
    fn float_vs_int_vs_method_call() {
        let toks = kinds("1.0 2 3.5f64 1e9 7.max(2) 0x1F");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(floats, vec!["1.0", "3.5f64", "1e9"]);
        let ints: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Int)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(ints, vec!["2", "7", "2", "0x1F"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
    }

    #[test]
    fn positions_are_one_based() {
        let toks = tokenize("a\n  bb");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn doc_comment_code_blocks_are_comments() {
        // Rustdoc code fences live inside comments; the lexer must not see
        // their contents as code.
        let src = "//! ```\n//! q.dequeue().unwrap();\n//! ```\nfn real() {}";
        let toks = tokenize(src);
        assert!(toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .all(|t| t.text != "unwrap"));
    }
}
