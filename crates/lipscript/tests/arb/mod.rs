//! Random LipScript programs, as ASTs: any statement kind, expressions
//! nested a few levels, calls that sometimes name real builtins, and — in
//! [`arb_program_with_try`] — `try` around calls that ask the host, most
//! of which the kernel refuses (a missing file or tool, a removed handle),
//! with `is_err` and `err_kind` to read what came back. Shared by the
//! verifier's no-false-positives property (`tests/prop_verify.rs`) and
//! the machine-vs-reference differential suite (`src/reference.rs`, which
//! includes this file by path because the reference evaluator is
//! `#[cfg(test)]` and so out of an integration test's reach).
//! [`arb_program`] is the generator without `try`, kept as it was so the
//! programs `reports_are_pinned` draws from it do not change.

// Each test crate that includes this uses part of it.
#![allow(dead_code)]

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

/// Builtins that ask the host, for `try` to wrap: calls the kernel
/// answers with an error as often as not.
fn arb_host_callee() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("kv_open".to_string()),
        Just("kv_len".to_string()),
        Just("kv_remove".to_string()),
        Just("kv_fork".to_string()),
        Just("kv_create".to_string()),
        Just("kv_swap_in".to_string()),
        Just("call_tool".to_string()),
        Just("tokenize".to_string()),
        Just("rand_int".to_string()),
    ]
}

fn arb_expr(with_try: bool) -> impl Strategy<Value = Expr> {
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
    leaf.prop_recursive(3, 20, 4, move |inner| {
        let plain = prop_oneof![
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
            (inner.clone(), inner.clone())
                .prop_map(|(b, i)| ExprKind::Index(Box::new(b), Box::new(i))),
        ]
        .prop_map(|kind| Expr {
            kind,
            span: Default::default(),
        });
        if !with_try {
            return plain.boxed();
        }
        let expr = |kind| Expr {
            kind,
            span: Default::default(),
        };
        let call = move |name: &str, args| expr(ExprKind::Call(name.to_string(), args));
        // Calls typed well enough to reach the kernel, which refuses most
        // of them: a missing file or tool, a cut past a file's end, a
        // handle that may be gone.
        let path = "[a-z.]{0,4}"
            .prop_map(move |s| expr(ExprKind::Str(s)))
            .boxed();
        let int = (-2i64..4).prop_map(move |v| expr(ExprKind::Int(v))).boxed();
        let refused = prop_oneof![
            path.clone().prop_map(move |p| call("kv_open", vec![p])),
            (path.clone(), path).prop_map(move |(t, a)| call("call_tool", vec![t, a])),
            int.clone()
                .prop_map(move |n| call("kv_truncate", vec![call("kv_create", vec![]), n])),
            arb_ident().prop_map(move |v| call("kv_len", vec![expr(ExprKind::Var(v))])),
            int.prop_map(move |n| call("rand_int", vec![n])),
            (
                arb_host_callee(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(move |(n, args)| call(&n, args)),
        ];
        let caught = refused.prop_map(move |c| expr(ExprKind::Try(Box::new(c))));
        let read = (
            prop_oneof![Just("is_err".to_string()), Just("err_kind".to_string())],
            inner,
        )
            .prop_map(move |(n, arg)| call(&n, vec![arg]));
        prop_oneof![6 => plain, 2 => caught, 1 => read].boxed()
    })
}

fn arb_stmt(with_try: bool) -> impl Strategy<Value = Stmt> {
    let arb_expr = move || arb_expr(with_try);
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
    simple.prop_recursive(2, 12, 3, move |inner| {
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

/// A random program without `try`.
pub(crate) fn arb_program() -> impl Strategy<Value = Program> {
    programs(false)
}

/// A random program in which about a quarter of the expressions that are
/// not leaves are a `try` around a host call or a read of its value.
pub(crate) fn arb_program_with_try() -> impl Strategy<Value = Program> {
    programs(true)
}

fn programs(with_try: bool) -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(
            (
                arb_ident(),
                proptest::collection::vec(arb_ident(), 0..3),
                proptest::collection::vec(arb_stmt(with_try), 0..4),
            ),
            0..3,
        ),
        proptest::collection::vec(arb_stmt(with_try), 0..6),
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
