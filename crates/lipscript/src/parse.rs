//! Recursive-descent / precedence-climbing parser.

use crate::ast::{BinOp, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::builtins::Builtin;
use crate::error::{LipError, Span};
use crate::lex::{lex, Tok, Token};

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> LipError {
        LipError::Parse {
            message: message.into(),
            span: self.span(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Token, LipError> {
        if self.peek() == want {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn program(&mut self) -> Result<Program, LipError> {
        let mut p = Program::default();
        while *self.peek() != Tok::Eof {
            if *self.peek() == Tok::Fn {
                p.functions.push(self.fn_def()?);
            } else {
                p.top.push(self.stmt()?);
            }
        }
        Ok(p)
    }

    fn fn_def(&mut self) -> Result<FnDef, LipError> {
        let span = self.span();
        self.expect(&Tok::Fn, "`fn`")?;
        let name = self.ident("function name")?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                params.push(self.ident("parameter name")?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "`)`")?;
        let body = self.block()?;
        Ok(FnDef {
            name,
            params,
            body,
            span,
        })
    }

    fn ident(&mut self, what: &str) -> Result<String, LipError> {
        match self.peek().clone() {
            Tok::Ident(n) => {
                self.bump();
                Ok(n)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LipError> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut out = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unterminated block"));
            }
            out.push(self.stmt()?);
        }
        self.bump();
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, LipError> {
        let span = self.span();
        let kind = match self.peek().clone() {
            Tok::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(&Tok::Assign, "`=`")?;
                let e = self.expr()?;
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Let(name, e)
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let then = self.block()?;
                let els = if *self.peek() == Tok::Else {
                    self.bump();
                    if *self.peek() == Tok::If {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                StmtKind::If(cond, then, els)
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                let body = self.block()?;
                StmtKind::While(cond, body)
            }
            Tok::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(&Tok::In, "`in`")?;
                let iter = self.expr()?;
                let body = self.block()?;
                StmtKind::For(var, iter, body)
            }
            Tok::Break => {
                self.bump();
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Break
            }
            Tok::Continue => {
                self.bump();
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Continue
            }
            Tok::Return => {
                self.bump();
                let e = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Return(e)
            }
            Tok::Ident(name) => {
                // Lookahead to distinguish assignment forms from expressions.
                match self.toks.get(self.pos + 1).map(|t| &t.tok) {
                    Some(Tok::Assign) => {
                        self.bump();
                        self.bump();
                        let e = self.expr()?;
                        self.expect(&Tok::Semi, "`;`")?;
                        StmtKind::Assign(name, e)
                    }
                    Some(Tok::LBracket) => {
                        // Could be `x[i] = e;` or an expression like `x[i] + 1;`.
                        // Parse the index, then decide.
                        let save = self.pos;
                        self.bump(); // ident
                        self.bump(); // `[`
                        let idx = self.expr()?;
                        if *self.peek() == Tok::RBracket
                            && self.toks.get(self.pos + 1).map(|t| &t.tok) == Some(&Tok::Assign)
                        {
                            self.bump(); // `]`
                            self.bump(); // `=`
                            let e = self.expr()?;
                            self.expect(&Tok::Semi, "`;`")?;
                            StmtKind::IndexAssign(name, idx, e)
                        } else {
                            self.pos = save;
                            let e = self.expr()?;
                            self.expect(&Tok::Semi, "`;`")?;
                            StmtKind::Expr(e)
                        }
                    }
                    _ => {
                        let e = self.expr()?;
                        self.expect(&Tok::Semi, "`;`")?;
                        StmtKind::Expr(e)
                    }
                }
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi, "`;`")?;
                StmtKind::Expr(e)
            }
        };
        Ok(Stmt { kind, span })
    }

    fn expr(&mut self) -> Result<Expr, LipError> {
        self.bin_expr(0)
    }

    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr, LipError> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (BinOp::Or, 1),
                Tok::AndAnd => (BinOp::And, 2),
                Tok::EqEq => (BinOp::Eq, 3),
                Tok::NotEq => (BinOp::Ne, 3),
                Tok::Lt => (BinOp::Lt, 4),
                Tok::LtEq => (BinOp::Le, 4),
                Tok::Gt => (BinOp::Gt, 4),
                Tok::GtEq => (BinOp::Ge, 4),
                Tok::Plus => (BinOp::Add, 5),
                Tok::Minus => (BinOp::Sub, 5),
                Tok::Star => (BinOp::Mul, 6),
                Tok::Slash => (BinOp::Div, 6),
                Tok::Percent => (BinOp::Mod, 6),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.bin_expr(prec + 1)?;
            lhs = Expr {
                kind: ExprKind::Bin(op, Box::new(lhs), Box::new(rhs)),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LipError> {
        let span = self.span();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Un(UnOp::Neg, Box::new(e)),
                    span,
                })
            }
            Tok::Not => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr {
                    kind: ExprKind::Un(UnOp::Not, Box::new(e)),
                    span,
                })
            }
            Tok::Try => {
                self.bump();
                let call = self.primary()?;
                let asks = match &call.kind {
                    ExprKind::Call(name, _) => {
                        Builtin::from_name(name).is_some_and(|b| !b.is_pure())
                    }
                    _ => false,
                };
                if !asks {
                    return Err(LipError::Parse {
                        message: "`try` takes a call of a builtin that asks the host".into(),
                        span: call.span,
                    });
                }
                Ok(Expr {
                    kind: ExprKind::Try(Box::new(call)),
                    span,
                })
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, LipError> {
        let mut e = self.primary()?;
        while let Tok::LBracket = self.peek() {
            let span = self.span();
            self.bump();
            let idx = self.expr()?;
            self.expect(&Tok::RBracket, "`]`")?;
            e = Expr {
                kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                span,
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, LipError> {
        let span = self.span();
        let kind = match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                ExprKind::Int(v)
            }
            Tok::Float(v) => {
                self.bump();
                ExprKind::Float(v)
            }
            Tok::Str(s) => {
                self.bump();
                ExprKind::Str(s)
            }
            Tok::True => {
                self.bump();
                ExprKind::Bool(true)
            }
            Tok::False => {
                self.bump();
                ExprKind::Bool(false)
            }
            Tok::Nil => {
                self.bump();
                ExprKind::Nil
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                return Ok(e);
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if *self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "`]`")?;
                ExprKind::List(items)
            }
            Tok::Ident(name) => {
                self.bump();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen, "`)`")?;
                    ExprKind::Call(name, args)
                } else {
                    ExprKind::Var(name)
                }
            }
            other => return Err(self.err(format!("expected expression, found {other:?}"))),
        };
        Ok(Expr { kind, span })
    }
}

/// Parses source text into a [`Program`].
pub fn parse(src: &str) -> Result<Program, LipError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_let_and_arith_precedence() {
        let p = parse("let x = 1 + 2 * 3;").unwrap();
        let StmtKind::Let(name, e) = &p.top[0].kind else {
            panic!()
        };
        assert_eq!(name, "x");
        // 1 + (2 * 3)
        let ExprKind::Bin(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected add at top: {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse("if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }").unwrap();
        let StmtKind::If(_, then, els) = &p.top[0].kind else {
            panic!()
        };
        assert_eq!(then.len(), 1);
        assert_eq!(els.len(), 1);
        assert!(matches!(els[0].kind, StmtKind::If(_, _, _)));
    }

    #[test]
    fn parses_functions_and_calls() {
        let p = parse("fn add(a, b) { return a + b; } let y = add(1, 2);").unwrap();
        assert_eq!(p.functions.len(), 1);
        assert_eq!(p.functions[0].params, vec!["a", "b"]);
        assert!(p.function("add").is_some());
        assert!(p.function("sub").is_none());
    }

    #[test]
    fn parses_loops_and_control() {
        let p = parse(
            "while (x < 10) { x = x + 1; if (x == 5) { break; } continue; } \
             for t in xs { emit(str(t)); }",
        )
        .unwrap();
        assert_eq!(p.top.len(), 2);
        assert!(matches!(p.top[1].kind, StmtKind::For(_, _, _)));
    }

    #[test]
    fn parses_index_assignment_vs_index_expr() {
        let p = parse("xs[0] = 5; let y = xs[1] + 1;").unwrap();
        assert!(matches!(p.top[0].kind, StmtKind::IndexAssign(_, _, _)));
        assert!(matches!(p.top[1].kind, StmtKind::Let(_, _)));
    }

    #[test]
    fn parses_nested_index_and_calls() {
        let p = parse("let d = pred(kv, [t], pos)[0];").unwrap();
        let StmtKind::Let(_, e) = &p.top[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn unary_operators() {
        let p = parse("let a = -x + !b;").unwrap();
        assert_eq!(p.top.len(), 1);
    }

    #[test]
    fn logical_precedence() {
        // a || b && c  parses as  a || (b && c).
        let p = parse("let r = a || b && c;").unwrap();
        let StmtKind::Let(_, e) = &p.top[0].kind else {
            panic!()
        };
        let ExprKind::Bin(BinOp::Or, _, rhs) = &e.kind else {
            panic!("expected || at top")
        };
        assert!(matches!(rhs.kind, ExprKind::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn errors_have_positions() {
        let e = parse("let x = ;").unwrap_err();
        match e {
            LipError::Parse { span, .. } => assert_eq!(span.line, 1),
            other => panic!("{other:?}"),
        }
        assert!(parse("fn f( { }").is_err());
        assert!(parse("while x { }").is_err());
        assert!(parse("let x = 1").is_err(), "missing semicolon");
        assert!(parse("{ unterminated").is_err());
    }

    #[test]
    fn empty_list_and_nil() {
        let p = parse("let xs = []; let n = nil;").unwrap();
        assert_eq!(p.top.len(), 2);
    }
}
