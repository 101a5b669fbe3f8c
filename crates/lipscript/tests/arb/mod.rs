//! Random LipScript programs, as ASTs: any statement kind, expressions
//! nested a few levels, calls that sometimes name real builtins. Shared by
//! the verifier's no-false-positives property (`tests/prop_verify.rs`) and
//! the machine-vs-reference differential suite (`src/reference.rs`, which
//! includes this file by path because the reference evaluator is
//! `#[cfg(test)]` and so out of an integration test's reach).

use proptest::prelude::*;
use symphony_lipscript::ast::{BinOp, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};

fn arb_ident() -> impl Strategy<Value = String> {
    // Avoid keywords and builtin collisions by prefixing. Most names come
    // from a pool of four, so that they collide: shadowing, re-declaration,
    // a read before and after a `let` of its name, a function called like
    // a variable — whatever resolving names ahead of time could get wrong
    // and looking them up as the program runs cannot. One in five is fresh
    // (and so, most likely, undefined where it is read).
    prop_oneof![
        4 => "[a-d]".prop_map(|s| format!("v_{s}")),
        1 => "[a-z]{1,4}".prop_map(|s| format!("v_{s}")),
    ]
}

/// A small pool of builtin names so generated calls sometimes hit real
/// builtins (with usually-wrong arities/types) instead of only undefined
/// functions.
fn arb_callee() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_ident(),
        prop_oneof![
            Just("len".to_string()),
            Just("str".to_string()),
            Just("push".to_string()),
            Just("range".to_string()),
            Just("min".to_string()),
            Just("contains".to_string()),
            Just("abs".to_string()),
            Just("print".to_string()),
            Just("spawn".to_string()),
            Just("kv_create".to_string()),
            Just("kv_remove".to_string()),
            Just("kv_len".to_string()),
        ],
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(ExprKind::Int),
        (-1000i32..1000).prop_map(|v| ExprKind::Float(v as f64 / 8.0)),
        "[ -~]{0,8}".prop_map(ExprKind::Str),
        any::<bool>().prop_map(ExprKind::Bool),
        Just(ExprKind::Nil),
        arb_ident().prop_map(ExprKind::Var),
    ]
    .prop_map(|kind| Expr {
        kind,
        span: Default::default(),
    });
    leaf.prop_recursive(3, 20, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Mod),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, l, r)| ExprKind::Bin(op, Box::new(l), Box::new(r))),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone())
                .prop_map(|(op, e)| ExprKind::Un(op, Box::new(e))),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(ExprKind::List),
            (arb_callee(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(n, args)| ExprKind::Call(n, args)),
            (inner.clone(), inner).prop_map(|(b, i)| ExprKind::Index(Box::new(b), Box::new(i))),
        ]
        .prop_map(|kind| Expr {
            kind,
            span: Default::default(),
        })
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let simple = prop_oneof![
        (arb_ident(), arb_expr()).prop_map(|(n, e)| StmtKind::Let(n, e)),
        (arb_ident(), arb_expr()).prop_map(|(n, e)| StmtKind::Assign(n, e)),
        (arb_ident(), arb_expr(), arb_expr()).prop_map(|(n, i, e)| StmtKind::IndexAssign(n, i, e)),
        Just(StmtKind::Break),
        Just(StmtKind::Continue),
        arb_expr().prop_map(|e| StmtKind::Return(Some(e))),
        Just(StmtKind::Return(None)),
        arb_expr().prop_map(StmtKind::Expr),
    ]
    .prop_map(|kind| Stmt {
        kind,
        span: Default::default(),
    });
    simple.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (
                arb_expr(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, e)| StmtKind::If(c, t, e)),
            (arb_expr(), proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(c, b)| StmtKind::While(c, b)),
            (
                arb_ident(),
                arb_expr(),
                proptest::collection::vec(inner, 0..3)
            )
                .prop_map(|(v, it, b)| StmtKind::For(v, it, b)),
        ]
        .prop_map(|kind| Stmt {
            kind,
            span: Default::default(),
        })
    })
}

pub(crate) fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(
            (
                arb_ident(),
                proptest::collection::vec(arb_ident(), 0..3),
                proptest::collection::vec(arb_stmt(), 0..4),
            ),
            0..3,
        ),
        proptest::collection::vec(arb_stmt(), 0..6),
    )
        .prop_map(|(fns, top)| Program {
            functions: fns
                .into_iter()
                .map(|(name, params, body)| FnDef {
                    name,
                    params,
                    body,
                    span: Default::default(),
                })
                .collect(),
            top,
        })
}
