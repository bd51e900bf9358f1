//! A hand-rolled lexer shared by the OpenQASM 2.0 and 3.0 parsers.
//!
//! One walk over the source bytes produces a flat stream of `Copy` tokens
//! with 1-based source positions; identifiers and strings borrow `&str`
//! slices of the source, so lexing allocates only the token vector. Columns
//! count characters, not bytes: before a token on its line, non-ASCII text
//! can only sit inside strings, whose UTF-8 continuation bytes the count
//! skips.
//! Comments (`// …`) and whitespace are skipped. Numbers are classified as
//! integers (register sizes, version digits) or reals (gate parameters,
//! which may use scientific notation so that emitted `f64` values
//! round-trip exactly). The QASM3-only tokens `@` (gate modifiers) and `=`
//! (measure assignment) lex unconditionally; the version-2 parser rejects
//! them at the grammar level so both dialects share one token stream.

use crate::error::QasmError;

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword (`qreg`, `gate`, gate names, `pi`, …).
    Ident(&'a str),
    /// Real literal (has a decimal point and/or exponent).
    Real(f64),
    /// Non-negative integer literal.
    Int(u64),
    /// String literal without its quotes (only used by `include`).
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// `=` (OpenQASM 3 measure assignment: `c = measure q;`)
    Eq,
    /// `@` (OpenQASM 3 gate-modifier separator: `ctrl @ g …`)
    At,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
}

/// A token plus its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    /// The token.
    pub tok: Tok<'a>,
    /// 1-based line.
    pub line: usize,
    /// 1-based column, in characters.
    pub col: usize,
}

/// Lexes `source` into a token stream.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, QasmError> {
    let bytes = source.as_bytes();
    let digits_from = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut tokens = Vec::new();
    // `line_start` is the byte after the last newline; `skipped` counts the
    // UTF-8 continuation bytes in strings since then, so a column is a
    // character count. (A comment runs to its newline, which resets both.)
    let (mut i, mut line, mut line_start, mut skipped) = (0, 1, 0, 0);
    while let Some(&b) = bytes.get(i) {
        let (start, col) = (i, i - line_start - skipped + 1);
        let tok = match b {
            b'\n' => {
                i += 1;
                (line, line_start, skipped) = (line + 1, i, 0);
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while bytes.get(i).is_some_and(|&b| b != b'\n') {
                    i += 1;
                }
                continue;
            }
            b'"' => {
                let len = bytes[i + 1..].iter().position(|&b| b == b'"');
                let len = len.ok_or_else(|| QasmError::new(line, col, "unterminated string"))?;
                let text = &source[i + 1..i + 1 + len];
                let tok = Token {
                    tok: Tok::Str(text),
                    line,
                    col,
                };
                for (k, b) in text.bytes().enumerate() {
                    if b == b'\n' {
                        (line, line_start, skipped) = (line + 1, i + 2 + k, 0);
                    } else {
                        skipped += usize::from(b & 0xC0 == 0x80);
                    }
                }
                i += len + 2;
                tokens.push(tok);
                continue;
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                while bytes
                    .get(i)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    i += 1;
                }
                Tok::Ident(&source[start..i])
            }
            b if b.is_ascii_digit()
                || (b == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                i = digits_from(i);
                let mut is_real = bytes.get(i) == Some(&b'.');
                if is_real {
                    i = digits_from(i + 1);
                }
                // Only an exponent when followed by a (signed) digit; an
                // identifier like `e0q` should not be swallowed.
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                        is_real = true;
                        i = digits_from(i + 1 + sign);
                    }
                }
                let s = &source[start..i];
                let bad = |kind| QasmError::new(line, col, format!("bad {kind} `{s}`"));
                if is_real {
                    Tok::Real(s.parse().map_err(|_| bad("real"))?)
                } else {
                    Tok::Int(s.parse().map_err(|_| bad("integer"))?)
                }
            }
            _ => {
                let (tok, len) = match (b, bytes.get(i + 1)) {
                    (b'-', Some(b'>')) => (Tok::Arrow, 2),
                    (b'=', Some(b'=')) => (Tok::EqEq, 2),
                    (b'(', _) => (Tok::LParen, 1),
                    (b')', _) => (Tok::RParen, 1),
                    (b'[', _) => (Tok::LBracket, 1),
                    (b']', _) => (Tok::RBracket, 1),
                    (b'{', _) => (Tok::LBrace, 1),
                    (b'}', _) => (Tok::RBrace, 1),
                    (b';', _) => (Tok::Semi, 1),
                    (b',', _) => (Tok::Comma, 1),
                    (b'+', _) => (Tok::Plus, 1),
                    (b'-', _) => (Tok::Minus, 1),
                    (b'*', _) => (Tok::Star, 1),
                    (b'/', _) => (Tok::Slash, 1),
                    (b'^', _) => (Tok::Caret, 1),
                    (b'@', _) => (Tok::At, 1),
                    (b'=', _) => (Tok::Eq, 1),
                    _ => {
                        let other = source[i..].chars().next().expect("a character starts here");
                        let message = format!("unexpected character `{other}`");
                        return Err(QasmError::new(line, col, message));
                    }
                };
                i += len;
                tok
            }
        };
        tokens.push(Token { tok, line, col });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_a_header() {
        assert_eq!(
            toks("OPENQASM 2.0;\ninclude \"qelib1.inc\";"),
            vec![
                Tok::Ident("OPENQASM"),
                Tok::Real(2.0),
                Tok::Semi,
                Tok::Ident("include"),
                Tok::Str("qelib1.inc"),
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_exponents() {
        assert_eq!(
            toks("3 1.5 .25 2e-3 7E+2"),
            vec![
                Tok::Int(3),
                Tok::Real(1.5),
                Tok::Real(0.25),
                Tok::Real(2e-3),
                Tok::Real(7e2),
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_positions() {
        let tokens = lex("// header\nqreg q[4];").unwrap();
        assert_eq!(tokens[0].tok, Tok::Ident("qreg"));
        assert_eq!((tokens[0].line, tokens[0].col), (2, 1));
        assert_eq!(tokens[2].tok, Tok::LBracket);
    }

    #[test]
    fn lexes_arrow_and_operators() {
        assert_eq!(
            toks("measure q -> c; -pi/2"),
            vec![
                Tok::Ident("measure"),
                Tok::Ident("q"),
                Tok::Arrow,
                Tok::Ident("c"),
                Tok::Semi,
                Tok::Minus,
                Tok::Ident("pi"),
                Tok::Slash,
                Tok::Int(2),
            ]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("qreg q[2]; #").is_err());
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn lexes_qasm3_modifier_and_assignment_tokens() {
        assert_eq!(
            toks("ctrl @ x q; c = measure q;"),
            vec![
                Tok::Ident("ctrl"),
                Tok::At,
                Tok::Ident("x"),
                Tok::Ident("q"),
                Tok::Semi,
                Tok::Ident("c"),
                Tok::Eq,
                Tok::Ident("measure"),
                Tok::Ident("q"),
                Tok::Semi,
            ]
        );
        assert_eq!(
            toks("a == b"),
            vec![Tok::Ident("a"), Tok::EqEq, Tok::Ident("b"),]
        );
    }

    #[test]
    fn columns_count_characters_past_non_ascii_comments_and_strings() {
        let tokens = lex("h q; // ✓é\ninclude \"é\nü\" x;").unwrap();
        let at: Vec<(Tok, usize, usize)> = tokens.iter().map(|t| (t.tok, t.line, t.col)).collect();
        assert_eq!(
            at,
            vec![
                (Tok::Ident("h"), 1, 1),
                (Tok::Ident("q"), 1, 3),
                (Tok::Semi, 1, 4),
                (Tok::Ident("include"), 2, 1),
                (Tok::Str("é\nü"), 2, 9),
                (Tok::Ident("x"), 3, 4),
                (Tok::Semi, 3, 5),
            ]
        );
        let err = lex("\"é\" ✓").unwrap_err();
        assert_eq!((err.line, err.col), (1, 5));
        assert_eq!(err.message, "unexpected character `✓`");
    }
}
