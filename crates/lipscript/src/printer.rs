//! Pretty-printer: renders an AST back to canonical source.
//!
//! Round-tripping (`parse ∘ print ∘ parse = parse`) is property-tested; the
//! printer is also what a server would use to log normalised programs.

use crate::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, UnOp};

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Renders an expression (fully parenthesised, so precedence is explicit).
pub fn print_expr(e: &Expr) -> String {
    match &e.kind {
        // Negative literals print parenthesised so they re-lex as a unary
        // negation of a positive literal, keeping the printer a fixpoint.
        ExprKind::Int(v) if *v < 0 => format!("({v})"),
        ExprKind::Int(v) => v.to_string(),
        ExprKind::Float(v) => {
            let body = if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            };
            if *v < 0.0 {
                format!("({body})")
            } else {
                body
            }
        }
        ExprKind::Str(s) => format!("\"{}\"", escape(s)),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Nil => "nil".to_string(),
        ExprKind::Var(n) => n.clone(),
        ExprKind::List(items) => {
            let inner: Vec<String> = items.iter().map(print_expr).collect();
            format!("[{}]", inner.join(", "))
        }
        ExprKind::Bin(op, l, r) => {
            format!("({} {} {})", print_expr(l), op_str(*op), print_expr(r))
        }
        ExprKind::Un(UnOp::Neg, x) => format!("(-{})", print_expr(x)),
        ExprKind::Un(UnOp::Not, x) => format!("(!{})", print_expr(x)),
        ExprKind::Call(name, args) => {
            let inner: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", inner.join(", "))
        }
        ExprKind::Index(base, idx) => format!("{}[{}]", print_expr(base), print_expr(idx)),
        ExprKind::Try(call) => format!("(try {})", print_expr(call)),
    }
}

fn print_block(stmts: &[Stmt], indent: usize, out: &mut String) {
    out.push_str("{\n");
    for s in stmts {
        print_stmt(s, indent + 1, out);
    }
    out.push_str(&"    ".repeat(indent));
    out.push('}');
}

/// Renders one statement at an indent level.
pub fn print_stmt(s: &Stmt, indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    out.push_str(&pad);
    match &s.kind {
        StmtKind::Let(name, e) => {
            out.push_str(&format!("let {name} = {};\n", print_expr(e)));
        }
        StmtKind::Assign(name, e) => {
            out.push_str(&format!("{name} = {};\n", print_expr(e)));
        }
        StmtKind::IndexAssign(name, i, e) => {
            out.push_str(&format!("{name}[{}] = {};\n", print_expr(i), print_expr(e)));
        }
        StmtKind::If(cond, then, els) => {
            out.push_str(&format!("if ({}) ", print_expr(cond)));
            print_block(then, indent, out);
            if !els.is_empty() {
                out.push_str(" else ");
                // `else if` chains are stored as a single-statement else.
                if els.len() == 1 {
                    if let StmtKind::If(..) = els[0].kind {
                        let mut chain = String::new();
                        print_stmt(&els[0], indent, &mut chain);
                        // Strip the leading pad and trailing newline to
                        // splice the chain after `else `.
                        let trimmed = chain.trim_start().trim_end_matches('\n');
                        out.push_str(trimmed);
                        out.push('\n');
                        return;
                    }
                }
                print_block(els, indent, out);
            }
            out.push('\n');
        }
        StmtKind::While(cond, body) => {
            out.push_str(&format!("while ({}) ", print_expr(cond)));
            print_block(body, indent, out);
            out.push('\n');
        }
        StmtKind::For(var, iter, body) => {
            out.push_str(&format!("for {var} in {} ", print_expr(iter)));
            print_block(body, indent, out);
            out.push('\n');
        }
        StmtKind::Break => out.push_str("break;\n"),
        StmtKind::Continue => out.push_str("continue;\n"),
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Return(Some(e)) => out.push_str(&format!("return {};\n", print_expr(e))),
        StmtKind::Expr(e) => out.push_str(&format!("{};\n", print_expr(e))),
    }
}

/// Renders a whole program.
// lint:allow(u1): the reference printer the parser round-trip tests compare against
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for f in &p.functions {
        out.push_str(&format!("fn {}({}) ", f.name, f.params.join(", ")));
        print_block(&f.body, 0, &mut out);
        out.push('\n');
    }
    for s in &p.top {
        print_stmt(s, 0, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn fixpoint(src: &str) {
        let p1 = parse(src).expect("first parse");
        let printed1 = print_program(&p1);
        let p2 = parse(&printed1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed1}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed1, printed2, "printer is not a fixpoint for {src}");
    }

    #[test]
    fn fixpoint_on_representative_programs() {
        for src in [
            "let x = 1 + 2 * 3;",
            "let x = (1 + 2) * 3;",
            r#"let s = "a\nb\"c" + str(1.5);"#,
            "fn f(a, b) { return a - b - 1; } let y = f(2, 1);",
            "if (a) { x = 1; } else if (b) { x = 2; } else { x = 3; }",
            "while (i < 10) { i = i + 1; if (i == 5) { break; } continue; }",
            "for t in [1, 2, 3] { emit(str(t)); }",
            "let d = pred(kv, [t], pos)[0]; xs[0] = -1; let n = !done;",
            "let e = a || b && !c; return nil;",
            "fn g() { return; }",
            "let f = try kv_open(\"a\"); if (is_err(f)) { emit(err_kind(f)); }",
        ] {
            fixpoint(src);
        }
    }

    #[test]
    fn printed_subtraction_preserves_associativity() {
        // a - b - c must reparse as (a - b) - c, not a - (b - c).
        let p = parse("let x = a - b - c;").unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("((a - b) - c)"), "{printed}");
    }
}
