//! Tokenizer for minic.

use crate::CompileError;

/// A token with its 1-based source line. Identifiers borrow their text
/// from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'src> {
    pub kind: TokKind<'src>,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokKind<'src> {
    Ident(&'src str),
    Int(i64),
    Float(f64),
    // keywords
    Fn,
    Let,
    If,
    Else,
    While,
    For,
    To,
    Return,
    Break,
    Continue,
    True,
    False,
    KwInt,
    KwFloat,
    KwBool,
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    Arrow,
    // operators
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Bang,
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Eof,
}

impl TokKind<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokKind::Ident(s) => format!("identifier `{s}`"),
            TokKind::Int(v) => format!("integer literal `{v}`"),
            TokKind::Float(v) => format!("float literal `{v}`"),
            TokKind::Eof => "end of file".into(),
            other => format!("`{}`", token_text(other)),
        }
    }
}

fn token_text(k: &TokKind) -> &'static str {
    match k {
        TokKind::Fn => "fn",
        TokKind::Let => "let",
        TokKind::If => "if",
        TokKind::Else => "else",
        TokKind::While => "while",
        TokKind::For => "for",
        TokKind::To => "to",
        TokKind::Return => "return",
        TokKind::Break => "break",
        TokKind::Continue => "continue",
        TokKind::True => "true",
        TokKind::False => "false",
        TokKind::KwInt => "int",
        TokKind::KwFloat => "float",
        TokKind::KwBool => "bool",
        TokKind::LParen => "(",
        TokKind::RParen => ")",
        TokKind::LBrace => "{",
        TokKind::RBrace => "}",
        TokKind::LBracket => "[",
        TokKind::RBracket => "]",
        TokKind::Comma => ",",
        TokKind::Semi => ";",
        TokKind::Colon => ":",
        TokKind::Arrow => "->",
        TokKind::Assign => "=",
        TokKind::Plus => "+",
        TokKind::Minus => "-",
        TokKind::Star => "*",
        TokKind::Slash => "/",
        TokKind::Percent => "%",
        TokKind::Bang => "!",
        TokKind::EqEq => "==",
        TokKind::NotEq => "!=",
        TokKind::Lt => "<",
        TokKind::Le => "<=",
        TokKind::Gt => ">",
        TokKind::Ge => ">=",
        TokKind::AndAnd => "&&",
        TokKind::OrOr => "||",
        _ => "?",
    }
}

/// Tokenize `source`. `//` line comments and `/* */` block comments are
/// skipped.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, CompileError> {
    let bytes = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let err = |line: u32, msg: String| CompileError { line, msg };

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start_line = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err(start_line, "unterminated block comment".into()));
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &source[start..i];
                let kind = match word {
                    "fn" => TokKind::Fn,
                    "let" => TokKind::Let,
                    "if" => TokKind::If,
                    "else" => TokKind::Else,
                    "while" => TokKind::While,
                    "for" => TokKind::For,
                    "to" => TokKind::To,
                    "return" => TokKind::Return,
                    "break" => TokKind::Break,
                    "continue" => TokKind::Continue,
                    "true" => TokKind::True,
                    "false" => TokKind::False,
                    "int" => TokKind::KwInt,
                    "float" => TokKind::KwFloat,
                    "bool" => TokKind::KwBool,
                    _ => TokKind::Ident(word),
                };
                toks.push(Token { kind, line });
            }
            '0'..='9' => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && i + 1 < bytes.len()
                    && bytes[i + 1].is_ascii_digit()
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        is_float = true;
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &source[start..i];
                let kind = if is_float {
                    TokKind::Float(
                        text.parse()
                            .map_err(|_| err(line, format!("invalid float literal `{text}`")))?,
                    )
                } else {
                    TokKind::Int(
                        text.parse().map_err(|_| {
                            err(line, format!("integer literal `{text}` out of range"))
                        })?,
                    )
                };
                toks.push(Token { kind, line });
            }
            _ => {
                // compare raw byte pairs: slicing the source string here
                // would panic on multi-byte UTF-8 (found by proptest)
                let two: &[u8] = if i + 1 < bytes.len() {
                    &bytes[i..i + 2]
                } else {
                    &[]
                };
                let (kind, advance) = match two {
                    b"->" => (TokKind::Arrow, 2),
                    b"==" => (TokKind::EqEq, 2),
                    b"!=" => (TokKind::NotEq, 2),
                    b"<=" => (TokKind::Le, 2),
                    b">=" => (TokKind::Ge, 2),
                    b"&&" => (TokKind::AndAnd, 2),
                    b"||" => (TokKind::OrOr, 2),
                    _ => {
                        let k = match c {
                            '(' => TokKind::LParen,
                            ')' => TokKind::RParen,
                            '{' => TokKind::LBrace,
                            '}' => TokKind::RBrace,
                            '[' => TokKind::LBracket,
                            ']' => TokKind::RBracket,
                            ',' => TokKind::Comma,
                            ';' => TokKind::Semi,
                            ':' => TokKind::Colon,
                            '=' => TokKind::Assign,
                            '+' => TokKind::Plus,
                            '-' => TokKind::Minus,
                            '*' => TokKind::Star,
                            '/' => TokKind::Slash,
                            '%' => TokKind::Percent,
                            '!' => TokKind::Bang,
                            '<' => TokKind::Lt,
                            '>' => TokKind::Gt,
                            _ => {
                                // `i` is on a character boundary: everything
                                // consumed so far ends in an ASCII byte
                                let ch = source[i..].chars().next().unwrap_or('?');
                                return Err(err(line, format!("unexpected character `{ch}`")));
                            }
                        };
                        (k, 1)
                    }
                };
                toks.push(Token { kind, line });
                i += advance;
            }
        }
    }
    toks.push(Token {
        kind: TokKind::Eof,
        line,
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("fn foo let"),
            vec![
                TokKind::Fn,
                TokKind::Ident("foo"),
                TokKind::Let,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("42 3.5 1e3 2.5e-2 7"),
            vec![
                TokKind::Int(42),
                TokKind::Float(3.5),
                TokKind::Float(1000.0),
                TokKind::Float(0.025),
                TokKind::Int(7),
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn dot_without_digits_is_not_a_float() {
        // `1.foo` style input: `1` then error on `.`
        assert!(lex("1.").is_err());
    }

    #[test]
    fn lexes_two_char_operators() {
        assert_eq!(
            kinds("== != <= >= && || ->"),
            vec![
                TokKind::EqEq,
                TokKind::NotEq,
                TokKind::Le,
                TokKind::Ge,
                TokKind::AndAnd,
                TokKind::OrOr,
                TokKind::Arrow,
                TokKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_tracks_lines() {
        let toks = lex("// comment\nx /* multi\nline */ y").unwrap();
        assert_eq!(toks[0].kind, TokKind::Ident("x"));
        assert_eq!(toks[0].line, 2);
        assert_eq!(toks[1].kind, TokKind::Ident("y"));
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(lex("/* nope").is_err());
    }

    #[test]
    fn rejects_unknown_characters() {
        let e = lex("a @ b").unwrap_err();
        assert!(e.msg.contains('@'));
    }

    #[test]
    fn multibyte_utf8_is_rejected_without_panicking() {
        // regression: the two-char operator peek used to slice the source
        // string at byte offsets, panicking inside multi-byte characters
        for src in ["&\u{10ee73}]", "🕴", "a 𠚃 b", "=\u{00e9}"] {
            assert!(lex(src).is_err(), "{src:?} should error, not panic");
        }
    }

    #[test]
    fn non_ascii_characters_are_named_as_written() {
        for (src, ch) in [
            ("fn main() { let x = 1; \u{e9} }", "\u{e9}"),
            ("a \u{2192} b", "\u{2192}"),
            ("x\n\u{1f574}", "\u{1f574}"),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!(e.msg, format!("unexpected character `{ch}`"), "{src:?}");
        }
        let e = lex("fn main() { let x = 1; \u{e9} }").unwrap_err();
        assert_eq!(e.to_string(), "line 1: unexpected character `\u{e9}`");
    }
}
