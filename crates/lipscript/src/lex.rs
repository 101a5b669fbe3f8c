//! The lexer: source text to a token stream with positions.

use crate::error::{LipError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    // Literals and names.
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    // Keywords.
    Let,
    Fn,
    If,
    Else,
    While,
    For,
    In,
    Break,
    Continue,
    Return,
    Try,
    True,
    False,
    Nil,
    // Punctuation.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    // Operators.
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqEq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    AndAnd,
    OrOr,
    Not,
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Its position.
    pub span: Span,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn err(&self, message: &str, span: Span) -> LipError {
        LipError::Lex {
            message: message.to_string(),
            span,
        }
    }

    fn next_token(&mut self) -> Result<Token, LipError> {
        self.skip_trivia();
        let span = self.span();
        let Some(b) = self.peek() else {
            return Ok(Token {
                tok: Tok::Eof,
                span,
            });
        };
        let tok = match b {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'+' => {
                self.bump();
                Tok::Plus
            }
            b'-' => {
                self.bump();
                Tok::Minus
            }
            b'*' => {
                self.bump();
                Tok::Star
            }
            b'/' => {
                self.bump();
                Tok::Slash
            }
            b'%' => {
                self.bump();
                Tok::Percent
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::EqEq
                } else {
                    Tok::Assign
                }
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::NotEq
                } else {
                    Tok::Not
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::LtEq
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::GtEq
                } else {
                    Tok::Gt
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    Tok::AndAnd
                } else {
                    return Err(self.err("expected `&&`", span));
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::OrOr
                } else {
                    return Err(self.err("expected `||`", span));
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated string", span)),
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            _ => return Err(self.err("bad escape", span)),
                        },
                        Some(c) => s.push(c as char),
                    }
                }
                Tok::Str(s)
            }
            b'0'..=b'9' => {
                let mut text = String::new();
                let mut is_float = false;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        text.push(c as char);
                        self.bump();
                    } else if c == b'.'
                        && !is_float
                        && self.peek2().is_some_and(|d| d.is_ascii_digit())
                    {
                        is_float = true;
                        text.push('.');
                        self.bump();
                    } else {
                        break;
                    }
                }
                if is_float {
                    Tok::Float(
                        text.parse()
                            .map_err(|_| self.err("bad float literal", span))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|_| self.err("integer literal overflow", span))?,
                    )
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        name.push(c as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                match name.as_str() {
                    "let" => Tok::Let,
                    "fn" => Tok::Fn,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "in" => Tok::In,
                    "break" => Tok::Break,
                    "continue" => Tok::Continue,
                    "return" => Tok::Return,
                    "try" => Tok::Try,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "nil" => Tok::Nil,
                    _ => Tok::Ident(name),
                }
            }
            other => {
                return Err(self.err(&format!("unexpected character {:?}", other as char), span))
            }
        };
        Ok(Token { tok, span })
    }
}

/// Scans source text into tokens (ending with [`Tok::Eof`]).
pub fn lex(src: &str) -> Result<Vec<Token>, LipError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lx.next_token()?;
        let end = t.tok == Tok::Eof;
        out.push(t);
        if end {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn scans_basic_program() {
        let t = toks("let x = 1 + 2.5;");
        assert_eq!(
            t,
            vec![
                Tok::Let,
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Int(1),
                Tok::Plus,
                Tok::Float(2.5),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn scans_operators() {
        let t = toks("== != <= >= < > && || ! = % *");
        assert_eq!(
            t,
            vec![
                Tok::EqEq,
                Tok::NotEq,
                Tok::LtEq,
                Tok::GtEq,
                Tok::Lt,
                Tok::Gt,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Not,
                Tok::Assign,
                Tok::Percent,
                Tok::Star,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let t = toks(r#" "a\nb\"c" "#);
        assert_eq!(t[0], Tok::Str("a\nb\"c".into()));
    }

    #[test]
    fn comments_skipped() {
        let t = toks("1 // comment\n2");
        assert_eq!(t, vec![Tok::Int(1), Tok::Int(2), Tok::Eof]);
    }

    #[test]
    fn keywords_vs_identifiers() {
        let t = toks("while whilex for fork in india try tryst");
        assert_eq!(
            t,
            vec![
                Tok::While,
                Tok::Ident("whilex".into()),
                Tok::For,
                Tok::Ident("fork".into()),
                Tok::In,
                Tok::Ident("india".into()),
                Tok::Try,
                Tok::Ident("tryst".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let tokens = lex("let x = 1;\nlet y = 2;").unwrap();
        let y = tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("y".into()))
            .unwrap();
        assert_eq!(y.span.line, 2);
        assert_eq!(y.span.col, 5);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(lex("let x = @;").is_err());
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn float_vs_member_dot() {
        // A digit dot digit is a float; trailing dot is not consumed.
        assert_eq!(toks("1.5"), vec![Tok::Float(1.5), Tok::Eof]);
    }
}
