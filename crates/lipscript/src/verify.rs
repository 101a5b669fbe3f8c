//! Admission-time static verification of LipScript programs.
//!
//! The paper's core move — clients ship *programs*, not prompts — means the
//! server, like an OS loading eBPF, should reject bad programs **before**
//! spending fuel, GPU time, or KV quota on them (§6 resource accounting).
//! This module is that check: a multi-pass analyzer that runs at the
//! admission door in O(program size), with no host access, over the
//! program's [`Image`] — the lowered form the machine runs. Which name a
//! read means is what [`Image::lower`] resolved it to, and what a builtin
//! takes and returns is its row of the `builtins!` table: the verifier has
//! no description of the language of its own to drift from the one that
//! runs.
//!
//! Passes:
//!
//! 1. **Resolution & arity** — undefined variables/functions, builtin and
//!    user-function arity, `spawn("name", ...)` targets that don't resolve,
//!    `break`/`continue` outside loops, variables only assigned on some
//!    paths (the `Undefined` nodes and unknown callees lowering left).
//! 2. **Abstract typing** — a flat lattice (int / float / bool / string /
//!    list / dist / kv / thread / error / nil / ⊤) propagated
//!    flow-insensitively per function body; only *definite* misuse is
//!    reported (indexing an int, `join` on a non-thread, `pred` on a
//!    non-kv, `kv_*` after `kv_remove` of the same binding in straight-line
//!    code). A `try` call is its builtin's return type joined with error,
//!    so ⊤; its arguments are checked as the bare call's, and its use of
//!    a removed binding is not V007, since the kernel's refusal is a value.
//!    Its cost is the bare call's: `try` burns no fuel of its own.
//! 3. **Effects & cost** — the program's syscall effect set (pred, tools,
//!    IPC, spawns, named `kv_open`/`kv_link` paths) and conservative upper
//!    bounds on fuel, `pred` calls, spawned threads and KV files created,
//!    [`Bound::Finite`] where every loop is statically bounded
//!    (`for x in <literal or range(lit, lit)>`), [`Bound::Unbounded`]
//!    otherwise. The scheduler uses the `pred` bound as an initial service
//!    estimate (Autellix-style program-level clairvoyance).
//!
//! # The no-false-positive contract
//!
//! The verifier must never reject a program the interpreter would run to
//! completion. The interpreter only faults on code it actually executes, so
//! a diagnostic is an [`Severity::Error`] only when the offending code is
//! on the program's *guaranteed* execution path: the straight-line prefix
//! of the top level, branches under literal conditions, the first iteration
//! of loops over non-empty literal lists, and bodies of functions that are
//! definitely called from such code. Everything else — dead branches,
//! uncalled functions, spawned-thread bodies (thread faults never fail the
//! parent program) — demotes to [`Severity::Warning`]. A property test
//! (`tests/prop_verify.rs`) enforces this against the real interpreter.

use core::fmt;
use std::collections::BTreeSet;

use crate::ast::{BinOp, Program, UnOp};
use crate::builtins::Builtin;
use crate::error::{LipError, Span};
use crate::image::{Callee, Entry, Image, Node, Run, Target};
use crate::parse::parse;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably fatal: the code is off the guaranteed
    /// execution path, or the types involved are unknown (⊤).
    Warning,
    /// Provably faults if the program is admitted: the interpreter would
    /// terminate the program on its guaranteed execution path.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes (documented in `docs/VERIFIER.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagCode {
    /// V001: use of an undeclared variable.
    UndefinedVar,
    /// V002: call to a function that is neither a builtin nor defined.
    UndefinedFn,
    /// V003: call with the wrong number of arguments.
    BadArity,
    /// V004: `spawn` target that does not name a defined function.
    BadSpawnTarget,
    /// V005: `break`/`continue` outside any loop.
    StrayControlFlow,
    /// V006: operation applied to a value of a definitely-wrong type.
    TypeMisuse,
    /// V007: KV operation on a binding after `kv_remove` of that binding.
    UseAfterRemove,
    /// V008: function definition shadowed by a builtin of the same name.
    ShadowedBuiltin,
    /// V009: duplicate function definition (the first one wins).
    DuplicateFn,
}

impl DiagCode {
    /// The stable `Vnnn` identifier.
    pub fn id(self) -> &'static str {
        match self {
            DiagCode::UndefinedVar => "V001",
            DiagCode::UndefinedFn => "V002",
            DiagCode::BadArity => "V003",
            DiagCode::BadSpawnTarget => "V004",
            DiagCode::StrayControlFlow => "V005",
            DiagCode::TypeMisuse => "V006",
            DiagCode::UseAfterRemove => "V007",
            DiagCode::ShadowedBuiltin => "V008",
            DiagCode::DuplicateFn => "V009",
        }
    }
}

/// A single verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Stable code.
    pub code: DiagCode,
    /// Error (provably faults) or warning.
    pub severity: Severity,
    /// Source position of the offending node.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl Diag {
    /// Renders as `file:line:col: message` — the SYMR SUBMIT error
    /// payload, which `lip_run` prints.
    pub fn render(&self, file: &str) -> String {
        format!("{file}:{}: {}", self.span, self.message)
    }
}

// ---------------------------------------------------------------------------
// Bounds and effect summaries
// ---------------------------------------------------------------------------

/// A conservative upper bound on a resource count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// At most this many (saturating).
    Finite(u64),
    /// No static bound (unbounded loop, recursion, or dynamic spawn).
    Unbounded,
}

impl Bound {
    /// Zero.
    pub const ZERO: Bound = Bound::Finite(0);

    /// Pointwise maximum.
    pub fn max(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.max(b)),
            _ => Bound::Unbounded,
        }
    }

    /// `Some(n)` for a finite bound.
    pub fn finite(self) -> Option<u64> {
        match self {
            Bound::Finite(n) => Some(n),
            Bound::Unbounded => None,
        }
    }
}

/// Saturating addition.
impl std::ops::Add for Bound {
    type Output = Bound;
    fn add(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_add(b)),
            _ => Bound::Unbounded,
        }
    }
}

/// Saturating multiplication; zero short-circuits (a loop that runs
/// zero times costs nothing even if its body is unbounded).
impl std::ops::Mul for Bound {
    type Output = Bound;
    fn mul(self, other: Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(0), _) | (_, Bound::Finite(0)) => Bound::Finite(0),
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.saturating_mul(b)),
            _ => Bound::Unbounded,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(n) => write!(f, "<={n}"),
            Bound::Unbounded => write!(f, "unbounded"),
        }
    }
}

/// What a program can touch and how much it can cost, derived statically.
///
/// Fuel and `pred` bounds cover the main thread (spawned threads run on
/// their own fuel budgets); spawn and KV-file bounds include work done by
/// statically-resolved spawn targets, transitively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSummary {
    /// Calls `pred`/`pred_at` (GPU work).
    pub uses_pred: bool,
    /// Calls `call_tool`.
    pub uses_tools: bool,
    /// Tool names passed as string literals.
    pub tool_names: BTreeSet<String>,
    /// A `call_tool` with a computed tool name exists.
    pub dynamic_tools: bool,
    /// Uses `send`/`recv`/`lookup` (inter-program IPC).
    pub uses_ipc: bool,
    /// Calls `spawn`.
    pub uses_spawn: bool,
    /// Spawn targets named by string literals.
    pub spawn_targets: BTreeSet<String>,
    /// A `spawn` with a computed target name exists (escape hatch: such a
    /// program may reach any defined function).
    pub dynamic_spawns: bool,
    /// Paths passed to `kv_open` as string literals.
    pub kv_open_paths: BTreeSet<String>,
    /// Paths passed to `kv_link` as string literals.
    pub kv_link_paths: BTreeSet<String>,
    /// A `kv_open`/`kv_link` with a computed path exists.
    pub dynamic_kv_paths: bool,
    /// Upper bound on interpreter fuel burned by the main thread.
    pub fuel_bound: Bound,
    /// Upper bound on `pred`/`pred_at` calls by the main thread.
    pub pred_bound: Bound,
    /// Upper bound on threads spawned (transitive).
    pub spawn_bound: Bound,
    /// Upper bound on KV files created (transitive).
    pub kv_file_bound: Bound,
}

impl Default for EffectSummary {
    fn default() -> Self {
        EffectSummary {
            uses_pred: false,
            uses_tools: false,
            tool_names: BTreeSet::new(),
            dynamic_tools: false,
            uses_ipc: false,
            uses_spawn: false,
            spawn_targets: BTreeSet::new(),
            dynamic_spawns: false,
            kv_open_paths: BTreeSet::new(),
            kv_link_paths: BTreeSet::new(),
            dynamic_kv_paths: false,
            fuel_bound: Bound::ZERO,
            pred_bound: Bound::ZERO,
            spawn_bound: Bound::ZERO,
            kv_file_bound: Bound::ZERO,
        }
    }
}

impl EffectSummary {
    /// The scheduler's initial service estimate: the static `pred` bound
    /// when finite, `None` when the program is statically unbounded.
    /// `pred_bound` counts the main thread only, so a program that may
    /// spawn gets `None` too: its threads' preds are not in the bound.
    pub fn service_estimate(&self) -> Option<u64> {
        if self.spawn_bound != Bound::ZERO {
            return None;
        }
        self.pred_bound.finite()
    }

    /// Stable multi-line rendering (pinned as a golden fixture for the
    /// shipped examples).
    pub fn render(&self) -> String {
        fn names(set: &BTreeSet<String>, dynamic: bool) -> String {
            let mut parts: Vec<String> = set.iter().map(|s| format!("{s:?}")).collect();
            if dynamic {
                parts.push("<dynamic>".to_string());
            }
            if parts.is_empty() {
                "none".to_string()
            } else {
                parts.join(", ")
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "pred: {}\n",
            if self.uses_pred { "yes" } else { "no" }
        ));
        out.push_str(&format!(
            "tools: {}\n",
            if self.uses_tools {
                names(&self.tool_names, self.dynamic_tools)
            } else {
                "none".to_string()
            }
        ));
        out.push_str(&format!(
            "ipc: {}\n",
            if self.uses_ipc { "yes" } else { "no" }
        ));
        out.push_str(&format!(
            "spawn targets: {}\n",
            if self.uses_spawn {
                names(&self.spawn_targets, self.dynamic_spawns)
            } else {
                "none".to_string()
            }
        ));
        out.push_str(&format!(
            "kv open: {}\n",
            names(&self.kv_open_paths, self.dynamic_kv_paths)
        ));
        out.push_str(&format!("kv link: {}\n", names(&self.kv_link_paths, false)));
        out.push_str(&format!("fuel: {}\n", self.fuel_bound));
        out.push_str(&format!("preds: {}\n", self.pred_bound));
        out.push_str(&format!("spawns: {}\n", self.spawn_bound));
        out.push_str(&format!("kv files: {}\n", self.kv_file_bound));
        out
    }
}

/// The verifier's verdict on one program.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    /// All findings, in source order.
    pub diags: Vec<Diag>,
    /// Effect set and cost bounds (pass 3).
    pub effects: EffectSummary,
}

impl VerifyReport {
    /// `true` when no [`Severity::Error`] diagnostic exists — the door
    /// admits the program.
    pub fn is_admissible(&self) -> bool {
        self.diags.iter().all(|d| d.severity != Severity::Error)
    }

    /// The first error, if any (carried in the SYMR shed payload).
    pub fn first_error(&self) -> Option<&Diag> {
        self.diags.iter().find(|d| d.severity == Severity::Error)
    }

    /// Count of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }
}

// ---------------------------------------------------------------------------
// The abstract type lattice (pass 2)
// ---------------------------------------------------------------------------

/// Flat lattice: every concrete runtime type, plus ⊤ (`Any`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ty {
    Int,
    Float,
    Bool,
    Str,
    List,
    Dist,
    Kv,
    Thread,
    Err,
    Nil,
    Any,
}

impl Ty {
    fn join(self, other: Ty) -> Ty {
        if self == other {
            self
        } else {
            Ty::Any
        }
    }

    fn is_num(self) -> bool {
        matches!(self, Ty::Int | Ty::Float)
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Ty::Int => "int",
            Ty::Float => "float",
            Ty::Bool => "bool",
            Ty::Str => "string",
            Ty::List => "list",
            Ty::Dist => "dist",
            Ty::Kv => "kv handle",
            Ty::Thread => "thread",
            Ty::Err => "error",
            Ty::Nil => "nil",
            Ty::Any => "unknown",
        }
    }
}

/// What a builtin requires of one argument: the `builtins!` table's
/// argument column. Mirrors the `as_*` coercions in [`crate::builtins`]; a
/// concrete type outside the requirement provably faults at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Req {
    Any,
    Num,
    Int,
    Str,
    List,
    ListOrStr,
    Dist,
    Kv,
    Thread,
    Err,
    /// `int()` coercion: int, float, bool or string.
    IntLike,
}

impl Req {
    pub(crate) fn allows(self, t: Ty) -> bool {
        match self {
            Req::Any => true,
            Req::Num => t.is_num(),
            Req::Int => t == Ty::Int,
            Req::Str => t == Ty::Str,
            Req::List => t == Ty::List,
            Req::ListOrStr => matches!(t, Ty::List | Ty::Str),
            Req::Dist => t == Ty::Dist,
            Req::Kv => t == Ty::Kv,
            Req::Thread => t == Ty::Thread,
            Req::Err => t == Ty::Err,
            Req::IntLike => matches!(t, Ty::Int | Ty::Float | Ty::Bool | Ty::Str),
        }
    }

    fn want(self) -> &'static str {
        match self {
            Req::Any => "any value",
            Req::Num => "a number",
            Req::Int => "an int",
            Req::Str => "a string",
            Req::List => "a list",
            Req::ListOrStr => "a list or string",
            Req::Dist => "a dist",
            Req::Kv => "a kv handle",
            Req::Thread => "a thread handle",
            Req::Err => "an error",
            Req::IntLike => "an int, float, bool or string",
        }
    }
}

// ---------------------------------------------------------------------------
// Binary operator legality (mirrors Interpreter::binop exactly)
// ---------------------------------------------------------------------------

/// `true` when the interpreter provably faults applying `op` to concrete
/// types `l`, `r`. Both must be non-`Any`.
fn binop_faults(op: BinOp, l: Ty, r: Ty) -> bool {
    let num = l.is_num() && r.is_num();
    match op {
        // Equality is total: a float against a non-number is unequal.
        BinOp::And | BinOp::Or | BinOp::Eq | BinOp::Ne => false,
        BinOp::Add => {
            !(num || l == Ty::Str || r == Ty::Str || (l == Ty::List && r == Ty::List))
        }
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => !num,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            !(num || (l == Ty::Str && r == Ty::Str))
        }
    }
}

/// The name node `id` declares, reads or writes, if it is a variable (its
/// number, [`Image::name`]). Types are joined per *name* across a body: one
/// slot can hold two names in turn.
fn name_of(image: &Image, id: u32) -> Option<usize> {
    match image.node(id) {
        Node::Var(_, name)
        | Node::Undefined(name)
        | Node::Let(_, name, _)
        | Node::For(_, name, ..)
        | Node::Assign(Target::Slot(_, name) | Target::Undefined(name), _)
        | Node::IndexAssign(Target::Slot(_, name) | Target::Undefined(name), _) => {
            Some(name as usize)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pass 1 + 2: resolution, arity, types — one walk per body
// ---------------------------------------------------------------------------

struct Checker<'i> {
    image: &'i Image,
    diags: Vec<Diag>,
    /// When false, no diagnostics are recorded (the definitely-called
    /// discovery pre-pass reuses the walk).
    emit: bool,
    /// User functions called from definite code (collected during walks).
    definite_calls: Vec<u32>,
    /// How many `&&`/`||` right operands the walk is inside: code there
    /// may not run, so a `kv_remove` in it removes nothing for certain.
    short_circuits: usize,
    // Per-body state, by name number (each below `image.names.len()`):
    tyenv: Vec<Option<Ty>>,
    removed: Vec<bool>,
    loops: usize,
}

impl<'i> Checker<'i> {
    fn new(image: &'i Image) -> Self {
        Checker {
            image,
            diags: Vec::new(),
            emit: true,
            definite_calls: Vec::new(),
            short_circuits: 0,
            tyenv: vec![None; image.names.len()],
            removed: vec![false; image.names.len()],
            loops: 0,
        }
    }

    fn diag(&mut self, code: DiagCode, definite: bool, span: Span, message: String) {
        if self.emit {
            let severity = if definite {
                Severity::Error
            } else {
                Severity::Warning
            };
            self.diags.push(Diag {
                code,
                severity,
                span,
                message,
            });
        }
    }

    /// The name of the variable node `id` as the program spells it.
    fn name(&self, id: u32) -> &'i str {
        let image = self.image;
        name_of(image, id).map_or("", |n| image.name(n as u32))
    }

    /// A binding by that name may be used again: it is declared anew.
    fn unremove(&mut self, id: u32) {
        if let Some(n) = name_of(self.image, id) {
            self.removed[n] = false;
        }
    }

    // -- abstract typing helpers -------------------------------------------

    /// The joined type of the variable node `id` reads or writes.
    fn var_ty(&self, id: u32) -> Ty {
        name_of(self.image, id)
            .and_then(|n| self.tyenv[n])
            .unwrap_or(Ty::Any)
    }

    /// Flow-insensitive type of an expression under the current body's
    /// joined assignment environment.
    fn ty_of(&self, id: u32) -> Ty {
        match self.image.node(id) {
            Node::Int(_) => Ty::Int,
            Node::Float(_) => Ty::Float,
            Node::Str(_) => Ty::Str,
            Node::Bool(_) => Ty::Bool,
            Node::Nil => Ty::Nil,
            Node::Var(..) | Node::Undefined(_) => self.var_ty(id),
            Node::List(_) => Ty::List,
            Node::Un(UnOp::Not, _) => Ty::Bool,
            Node::Un(UnOp::Neg, inner) => match self.ty_of(inner) {
                t @ (Ty::Int | Ty::Float) => t,
                _ => Ty::Any,
            },
            Node::Bin(op, first) => self.ty_of_bin(op, first),
            Node::Call(Callee::Builtin(b), _) => b.ret(),
            // The call's value, or the error its host answered.
            Node::Call(Callee::Try(b), _) => b.ret().join(Ty::Err),
            Node::Index(first) => match self.ty_of(first) {
                Ty::Str => Ty::Str,
                _ => Ty::Any,
            },
            _ => Ty::Any,
        }
    }

    fn ty_of_bin(&self, op: BinOp, first: u32) -> Ty {
        match op {
            BinOp::And
            | BinOp::Or
            | BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge => Ty::Bool,
            BinOp::Add => {
                let (lt, rt) = (self.ty_of(first), self.ty_of(first + 1));
                if lt == Ty::Str || rt == Ty::Str {
                    Ty::Str
                } else if lt == Ty::List && rt == Ty::List {
                    Ty::List
                } else if lt == Ty::Int && rt == Ty::Int {
                    Ty::Int
                } else if lt.is_num() && rt.is_num() {
                    Ty::Float
                } else {
                    Ty::Any
                }
            }
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let (lt, rt) = (self.ty_of(first), self.ty_of(first + 1));
                if lt == Ty::Int && rt == Ty::Int {
                    Ty::Int
                } else if lt.is_num() && rt.is_num() {
                    Ty::Float
                } else {
                    Ty::Any
                }
            }
        }
    }

    /// Builds the body's flow-insensitive type environment: every
    /// assignment's type joined per name, iterated to a fixpoint. Shadowing
    /// is deliberately ignored — joins only widen toward ⊤, which keeps the
    /// result sound.
    fn build_tyenv(&mut self, params: &[u32], body: Run) {
        self.tyenv.fill(None);
        for &p in params {
            self.tyenv[p as usize] = Some(Ty::Any);
        }
        loop {
            let mut changed = false;
            self.collect_block(body, &mut changed);
            if !changed {
                break;
            }
        }
    }

    /// Joins `t` into the type of the name statement `id` writes.
    fn join_into(&mut self, id: u32, t: Ty, changed: &mut bool) {
        let Some(name) = name_of(self.image, id) else {
            return;
        };
        let cur = self.tyenv[name];
        let next = cur.map_or(t, |old| old.join(t));
        if cur != Some(next) {
            self.tyenv[name] = Some(next);
            *changed = true;
        }
    }

    fn collect_block(&mut self, run: Run, changed: &mut bool) {
        for id in run.ids() {
            match self.image.node(id) {
                Node::Let(_, _, e) | Node::Assign(_, e) => {
                    let t = self.ty_of(e);
                    self.join_into(id, t, changed);
                }
                Node::If(_, t, e) => {
                    self.collect_block(t, changed);
                    self.collect_block(e, changed);
                }
                Node::While(_, b) => self.collect_block(b, changed),
                Node::For(_, _, iter, b) => {
                    let t = self.elem_ty(iter);
                    self.join_into(id, t, changed);
                    self.collect_block(b, changed);
                }
                _ => {}
            }
        }
    }

    /// Element type for `for x in <iter>`.
    fn elem_ty(&self, iter: u32) -> Ty {
        match self.image.node(iter) {
            Node::List(items) => items
                .ids()
                .map(|e| self.ty_of(e))
                .reduce(Ty::join)
                .unwrap_or(Ty::Any),
            Node::Call(Callee::Builtin(Builtin::Range), _) => Ty::Int,
            _ => Ty::Any,
        }
    }

    // -- the checking walk --------------------------------------------------

    /// Checks one body (top level or a function). `definite` means the body
    /// is on the guaranteed execution path.
    fn check_body(&mut self, params: &[u32], body: Run, definite: bool) {
        self.build_tyenv(params, body);
        self.removed.fill(false);
        self.loops = 0;
        self.check_block(body, definite);
    }

    fn check_block(&mut self, run: Run, mut definite: bool) {
        for id in run.ids() {
            definite = self.check_stmt(id, definite);
        }
    }

    /// Checks one statement; returns whether *subsequent* statements in the
    /// same block remain on the guaranteed path.
    fn check_stmt(&mut self, id: u32, definite: bool) -> bool {
        let image = self.image;
        let Entry { node, span, .. } = image.nodes[id as usize];
        match node {
            Node::Let(_, _, e) => {
                self.check_expr(e, definite);
                self.unremove(id);
                definite
            }
            Node::Assign(target, e) => {
                self.check_expr(e, definite);
                if let Target::Undefined(_) = target {
                    self.diag(
                        DiagCode::UndefinedVar,
                        definite,
                        span,
                        format!("assignment to undeclared variable `{}`", self.name(id)),
                    );
                }
                self.unremove(id);
                definite
            }
            Node::IndexAssign(target, first) => {
                let (idx, e) = (first, first + 1);
                self.check_expr(idx, definite);
                self.check_expr(e, definite);
                if let Target::Undefined(_) = target {
                    self.diag(
                        DiagCode::UndefinedVar,
                        definite,
                        span,
                        format!(
                            "index-assignment to undeclared variable `{}`",
                            self.name(id)
                        ),
                    );
                    self.unremove(id);
                }
                let base = self.var_ty(id);
                if base != Ty::Any && base != Ty::List {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        span,
                        format!(
                            "cannot index-assign into {} `{}`",
                            base.name(),
                            self.name(id)
                        ),
                    );
                }
                let it = self.ty_of(idx);
                if it != Ty::Any && it != Ty::Int {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        image.span(idx),
                        format!("list index must be int, got {}", it.name()),
                    );
                }
                definite
            }
            Node::If(cond, then, els) => {
                self.check_expr(cond, definite);
                let lit = literal_bool(image, cond);
                self.check_block(then, definite && lit == Some(true));
                self.check_block(els, definite && lit == Some(false));
                // A branch may have removed KV handles or diverged.
                self.removed.fill(false);
                let diverges = match lit {
                    Some(true) => leaves(image, then, true),
                    Some(false) => leaves(image, els, true),
                    None => leaves(image, then, true) || leaves(image, els, true),
                };
                definite && !diverges
            }
            Node::While(cond, body) => {
                self.check_expr(cond, definite);
                let lit = literal_bool(image, cond);
                self.loops += 1;
                // Only a literal-true loop definitely runs its first
                // iteration.
                self.check_block(body, definite && lit == Some(true));
                self.loops -= 1;
                self.removed.fill(false);
                definite && !leaves(image, body, false)
            }
            Node::For(_, _, iter, body) => {
                self.check_expr(iter, definite);
                let it = self.ty_of(iter);
                if it != Ty::Any && it != Ty::List {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        image.span(iter),
                        format!("for-loop needs a list, got {}", it.name()),
                    );
                }
                let first_runs = static_trip(image, iter).is_some_and(|n| n > 0);
                self.loops += 1;
                self.unremove(id);
                self.check_block(body, definite && first_runs);
                self.loops -= 1;
                self.removed.fill(false);
                definite && !leaves(image, body, false)
            }
            Node::Break | Node::Continue => {
                if self.loops == 0 {
                    let what = if node == Node::Break {
                        "break"
                    } else {
                        "continue"
                    };
                    self.diag(
                        DiagCode::StrayControlFlow,
                        definite,
                        span,
                        format!("`{what}` outside a loop"),
                    );
                }
                // Anything after is dead code.
                false
            }
            Node::Return(e) => {
                if let Some(e) = e {
                    self.check_expr(e, definite);
                }
                false
            }
            Node::Expr(e) => {
                self.check_expr(e, definite);
                definite
            }
            // A block holds statements only.
            _ => definite,
        }
    }

    fn check_expr(&mut self, id: u32, definite: bool) {
        let image = self.image;
        let Entry { node, span, .. } = image.nodes[id as usize];
        match node {
            Node::Undefined(_) => {
                self.diag(
                    DiagCode::UndefinedVar,
                    definite,
                    span,
                    format!("undefined variable `{}`", self.name(id)),
                );
            }
            Node::List(items) => {
                for it in items.ids() {
                    self.check_expr(it, definite);
                }
            }
            Node::Un(op, inner) => {
                self.check_expr(inner, definite);
                if op == UnOp::Neg {
                    let t = self.ty_of(inner);
                    if t != Ty::Any && !t.is_num() {
                        self.diag(
                            DiagCode::TypeMisuse,
                            definite,
                            span,
                            format!("cannot negate {}", t.name()),
                        );
                    }
                }
            }
            Node::Bin(op, first) => {
                let (l, r) = (first, first + 1);
                self.check_expr(l, definite);
                // The right side of a short-circuit operator may never run.
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.short_circuits += 1;
                    self.check_expr(r, false);
                    self.short_circuits -= 1;
                } else {
                    self.check_expr(r, definite);
                }
                let (lt, rt) = (self.ty_of(l), self.ty_of(r));
                if lt != Ty::Any && rt != Ty::Any && binop_faults(op, lt, rt) {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        span,
                        format!(
                            "cannot apply {op:?} to {} and {}",
                            lt.name(),
                            rt.name()
                        ),
                    );
                }
            }
            Node::Index(first) => {
                let (base, idx) = (first, first + 1);
                self.check_expr(base, definite);
                self.check_expr(idx, definite);
                let bt = self.ty_of(base);
                if bt != Ty::Any && bt != Ty::List && bt != Ty::Str {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        span,
                        format!("cannot index {}", bt.name()),
                    );
                }
                let it = self.ty_of(idx);
                if it != Ty::Any && it != Ty::Int {
                    self.diag(
                        DiagCode::TypeMisuse,
                        definite,
                        image.span(idx),
                        format!("index must be int, got {}", it.name()),
                    );
                }
            }
            Node::Call(callee, args) => {
                for a in args.ids() {
                    self.check_expr(a, definite);
                }
                match callee {
                    Callee::Builtin(b) => self.check_builtin_call(b, args, span, definite, false),
                    Callee::Try(b) => self.check_builtin_call(b, args, span, definite, true),
                    Callee::User(f) => {
                        let func = &image.functions[f as usize];
                        let want = func.params.len();
                        if args.n as usize != want {
                            self.diag(
                                DiagCode::BadArity,
                                definite,
                                span,
                                format!("{} expects {want} args, got {}", func.name, args.n),
                            );
                        } else if definite {
                            self.definite_calls.push(f);
                        }
                    }
                    Callee::Unknown(name) => self.diag(
                        DiagCode::UndefinedFn,
                        definite,
                        span,
                        format!("call to undefined function `{}`", image.name(name)),
                    ),
                }
            }
            _ => {}
        }
    }

    /// A call of `b`; `caught` when it is under `try`, where what the host
    /// answers cannot fault.
    fn check_builtin_call(
        &mut self,
        b: Builtin,
        args: Run,
        span: Span,
        definite: bool,
        caught: bool,
    ) {
        let image = self.image;
        let name = b.name();
        let want = b.arity();
        if args.n as usize != want {
            self.diag(
                DiagCode::BadArity,
                definite,
                span,
                format!("{name} expects {want} args, got {}", args.n),
            );
            return;
        }
        for (req, arg) in b.args().iter().zip(args.ids()) {
            let t = self.ty_of(arg);
            if t != Ty::Any && !req.allows(t) {
                self.diag(
                    DiagCode::TypeMisuse,
                    definite,
                    image.span(arg),
                    format!("{name} needs {}, got {}", req.want(), t.name()),
                );
            }
        }
        let first = args.first;
        // `contains` on a string needs a string needle.
        if b == Builtin::Contains {
            let (at, bt) = (self.ty_of(first), self.ty_of(first + 1));
            if at == Ty::Str && bt != Ty::Any && bt != Ty::Str {
                self.diag(
                    DiagCode::TypeMisuse,
                    definite,
                    image.span(first + 1),
                    format!("contains on a string needs a string, got {}", bt.name()),
                );
            }
        }
        // V007: straight-line use of a removed KV binding. Under `try` the
        // kernel's refusal is a value, and a remove may not have happened.
        if b.takes_kv() && !caught {
            if let Some(v) = name_of(image, first) {
                if self.removed[v] {
                    self.diag(
                        DiagCode::UseAfterRemove,
                        definite,
                        span,
                        format!("`{}` used after kv_remove", image.name(v as u32)),
                    );
                }
                if b == Builtin::KvRemove && self.short_circuits == 0 {
                    self.removed[v] = true;
                }
            }
        }
        // V004: spawn target resolution (the spawn call itself faults in
        // the *parent* when the target is not a defined function).
        if b == Builtin::Spawn {
            if let Some(target) = str_arg(image, args, 0) {
                match image.function(target) {
                    None => self.diag(
                        DiagCode::BadSpawnTarget,
                        definite,
                        span,
                        format!("spawn target `{target}` is not a defined function"),
                    ),
                    Some(f) => {
                        // Arity mismatch faults inside the spawned thread, and
                        // thread faults never fail the parent: warning only.
                        let want = image.functions[f].params.len();
                        if let Node::List(passed) = image.node(first + 1) {
                            if passed.n as usize != want {
                                self.diag(
                                    DiagCode::BadArity,
                                    false,
                                    span,
                                    format!(
                                        "spawn of `{target}` passes {} args, expects {want}",
                                        passed.n
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `true` when the condition is a literal `true`/`false`.
fn literal_bool(image: &Image, cond: u32) -> Option<bool> {
    match image.node(cond) {
        Node::Bool(b) => Some(b),
        _ => None,
    }
}

/// Argument `k` of a call, if it is a string literal.
fn str_arg(image: &Image, args: Run, k: u32) -> Option<&str> {
    if k >= args.n {
        return None;
    }
    match image.node(args.first + k) {
        Node::Str(s) => Some(&image.strings[s as usize]),
        _ => None,
    }
}

/// Static trip count of a `for` iterator, when known.
fn static_trip(image: &Image, iter: u32) -> Option<u64> {
    match image.node(iter) {
        Node::List(items) => Some(u64::from(items.n)),
        Node::Call(Callee::Builtin(Builtin::Range), args) if args.n >= 2 => {
            match (image.node(args.first), image.node(args.first + 1)) {
                (Node::Int(a), Node::Int(b)) => Some(b.saturating_sub(a).max(0) as u64),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Any `return` anywhere in the block, which escapes an enclosing loop —
/// or, with `jumps`, any `break`/`continue` too: after such a block,
/// following statements are no longer guaranteed to run.
fn leaves(image: &Image, run: Run, jumps: bool) -> bool {
    run.ids().any(|id| match image.node(id) {
        Node::Return(_) => true,
        Node::Break | Node::Continue => jumps,
        Node::If(_, t, e) => leaves(image, t, jumps) || leaves(image, e, jumps),
        Node::While(_, b) | Node::For(_, _, _, b) => leaves(image, b, jumps),
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Pass 3: effects & cost
// ---------------------------------------------------------------------------

/// Per-body cost vector, all conservative upper bounds.
#[derive(Debug, Clone, Copy)]
struct Cost {
    fuel: Bound,
    preds: Bound,
    spawns: Bound,
    kv_files: Bound,
}

impl Cost {
    const ZERO: Cost = Cost {
        fuel: Bound::ZERO,
        preds: Bound::ZERO,
        spawns: Bound::ZERO,
        kv_files: Bound::ZERO,
    };

    const UNBOUNDED: Cost = Cost {
        fuel: Bound::Unbounded,
        preds: Bound::Unbounded,
        spawns: Bound::Unbounded,
        kv_files: Bound::Unbounded,
    };

    fn fuel(n: u64) -> Cost {
        Cost {
            fuel: Bound::Finite(n),
            ..Cost::ZERO
        }
    }

    fn add(self, o: Cost) -> Cost {
        Cost {
            fuel: self.fuel + o.fuel,
            preds: self.preds + o.preds,
            spawns: self.spawns + o.spawns,
            kv_files: self.kv_files + o.kv_files,
        }
    }

    fn max(self, o: Cost) -> Cost {
        Cost {
            fuel: self.fuel.max(o.fuel),
            preds: self.preds.max(o.preds),
            spawns: self.spawns.max(o.spawns),
            kv_files: self.kv_files.max(o.kv_files),
        }
    }

    fn mul(self, trips: Bound) -> Cost {
        Cost {
            fuel: self.fuel * trips,
            preds: self.preds * trips,
            spawns: self.spawns * trips,
            kv_files: self.kv_files * trips,
        }
    }
}

struct CostPass<'i> {
    image: &'i Image,
    /// Per function, its cost once worked out.
    cache: Vec<Option<Cost>>,
    /// The functions whose cost is being worked out, innermost last.
    stack: Vec<u32>,
    fx: EffectSummary,
    /// Per name, the `for` trip count of a variable of the current body
    /// that is let-bound exactly once to a statically-sized iterable and
    /// never rebound. Sound because values have copy semantics and
    /// index-assignment preserves list length.
    trips: Vec<Option<u64>>,
}

/// Computes the single-binding trip map for one body. A name qualifies if
/// it has exactly one `let` in the body, is not a parameter or `for`
/// variable, is never re-assigned, and its initializer has a static trip
/// count.
fn body_trips(image: &Image, params: &[u32], body: Run) -> Vec<Option<u64>> {
    #[derive(Clone, Copy, Default)]
    struct Counts {
        lets: u32,
        other_binds: u32,
        trip: Option<u64>,
    }
    fn scan(image: &Image, run: Run, counts: &mut [Counts]) {
        for id in run.ids() {
            match image.node(id) {
                Node::Let(_, name, e) => {
                    let c = &mut counts[name as usize];
                    c.lets += 1;
                    if c.lets == 1 {
                        c.trip = static_trip(image, e);
                    }
                }
                Node::Assign(..) => {
                    if let Some(name) = name_of(image, id) {
                        counts[name].other_binds += 1;
                    }
                }
                Node::If(_, t, e) => {
                    scan(image, t, counts);
                    scan(image, e, counts);
                }
                Node::While(_, b) => scan(image, b, counts),
                Node::For(_, name, _, b) => {
                    counts[name as usize].other_binds += 1;
                    scan(image, b, counts);
                }
                _ => {}
            }
        }
    }
    let mut counts = vec![Counts::default(); image.names.len()];
    for &p in params {
        counts[p as usize].other_binds += 1;
    }
    scan(image, body, &mut counts);
    counts
        .iter()
        .map(|c| match (c.lets, c.other_binds, c.trip) {
            (1, 0, Some(t)) => Some(t),
            _ => None,
        })
        .collect()
}

impl<'i> CostPass<'i> {
    fn new(image: &'i Image) -> Self {
        CostPass {
            image,
            cache: vec![None; image.functions.len()],
            stack: Vec::new(),
            fx: EffectSummary::default(),
            trips: Vec::new(),
        }
    }

    fn run(mut self) -> EffectSummary {
        let image = self.image;
        self.trips = body_trips(image, &[], image.top);
        let top = self.block_cost(image.top);
        self.fx.fuel_bound = top.fuel;
        self.fx.pred_bound = top.preds;
        self.fx.spawn_bound = top.spawns;
        self.fx.kv_file_bound = top.kv_files;
        if self.fx.dynamic_spawns {
            // A computed spawn target may reach any function: fold every
            // function's effects in and give up on spawn/KV bounds.
            for func in &image.functions {
                if let Some(f) = image.function(&func.name) {
                    let _ = self.fn_cost(f as u32);
                }
            }
            self.fx.spawn_bound = Bound::Unbounded;
            self.fx.kv_file_bound = Bound::Unbounded;
        }
        self.fx
    }

    fn fn_cost(&mut self, f: u32) -> Cost {
        if let Some(c) = self.cache[f as usize] {
            return c;
        }
        if self.stack.contains(&f) {
            return Cost::UNBOUNDED;
        }
        let image = self.image;
        let func = &image.functions[f as usize];
        self.stack.push(f);
        let trips = body_trips(image, &func.params, func.body);
        let saved = std::mem::replace(&mut self.trips, trips);
        let c = self.block_cost(func.body);
        self.trips = saved;
        self.stack.pop();
        self.cache[f as usize] = Some(c);
        c
    }

    fn block_cost(&mut self, run: Run) -> Cost {
        let mut total = Cost::ZERO;
        for id in run.ids() {
            total = total.add(self.stmt_cost(id));
        }
        total
    }

    fn stmt_cost(&mut self, id: u32) -> Cost {
        let image = self.image;
        // Every statement burns one fuel on entry.
        let base = Cost::fuel(1);
        match image.node(id) {
            Node::Let(_, _, e) | Node::Assign(_, e) | Node::Expr(e) | Node::Return(Some(e)) => {
                base.add(self.expr_cost(e))
            }
            Node::IndexAssign(_, first) => base
                .add(self.expr_cost(first))
                .add(self.expr_cost(first + 1)),
            Node::If(c, t, e) => {
                let branches = match literal_bool(image, c) {
                    Some(true) => self.block_cost(t),
                    Some(false) => self.block_cost(e),
                    None => {
                        let tc = self.block_cost(t);
                        let ec = self.block_cost(e);
                        tc.max(ec)
                    }
                };
                base.add(self.expr_cost(c)).add(branches)
            }
            Node::While(c, b) => {
                let cond = self.expr_cost(c);
                let body = self.block_cost(b);
                if literal_bool(image, c) == Some(false) {
                    // One iteration-burn plus one condition evaluation.
                    base.add(Cost::fuel(1)).add(cond)
                } else {
                    let per_iter = cond.add(body).add(Cost::fuel(1));
                    base.add(per_iter.mul(Bound::Unbounded))
                }
            }
            Node::For(_, _, it, b) => {
                let iter = self.expr_cost(it);
                let body = self.block_cost(b);
                let per_iter = body.add(Cost::fuel(1));
                let known = static_trip(image, it)
                    .or_else(|| name_of(image, it).and_then(|n| self.trips[n]));
                let trips = match known {
                    Some(n) => Bound::Finite(n),
                    None => Bound::Unbounded,
                };
                base.add(iter).add(per_iter.mul(trips))
            }
            // `return;`, `break`, `continue`.
            _ => base,
        }
    }

    fn expr_cost(&mut self, id: u32) -> Cost {
        // Every evaluated node burns one fuel.
        let base = Cost::fuel(1);
        match self.image.node(id) {
            Node::List(items) => items.ids().fold(base, |c, it| c.add(self.expr_cost(it))),
            Node::Un(_, inner) => base.add(self.expr_cost(inner)),
            Node::Bin(_, first) | Node::Index(first) => base
                .add(self.expr_cost(first))
                .add(self.expr_cost(first + 1)),
            Node::Call(callee, args) => {
                let c = args.ids().fold(base, |c, a| c.add(self.expr_cost(a)));
                match callee {
                    Callee::Builtin(b) | Callee::Try(b) => c.add(self.builtin_cost(b, args)),
                    Callee::User(f) => c.add(self.fn_cost(f)),
                    Callee::Unknown(_) => c,
                }
            }
            _ => base,
        }
    }

    fn builtin_cost(&mut self, b: Builtin, args: Run) -> Cost {
        let image = self.image;
        match b {
            Builtin::Pred | Builtin::PredAt => {
                self.fx.uses_pred = true;
                Cost {
                    preds: Bound::Finite(1),
                    ..Cost::ZERO
                }
            }
            Builtin::CallTool => {
                self.fx.uses_tools = true;
                match str_arg(image, args, 0) {
                    Some(tool) => {
                        self.fx.tool_names.insert(tool.to_string());
                    }
                    None => self.fx.dynamic_tools = true,
                }
                Cost::ZERO
            }
            Builtin::Send | Builtin::Recv | Builtin::Lookup => {
                self.fx.uses_ipc = true;
                Cost::ZERO
            }
            Builtin::KvCreate | Builtin::KvFork | Builtin::KvExtract | Builtin::KvMerge => Cost {
                kv_files: Bound::Finite(1),
                ..Cost::ZERO
            },
            Builtin::KvOpen => {
                match str_arg(image, args, 0) {
                    Some(path) => {
                        self.fx.kv_open_paths.insert(path.to_string());
                    }
                    None => self.fx.dynamic_kv_paths = true,
                }
                Cost::ZERO
            }
            Builtin::KvLink => {
                match str_arg(image, args, 1) {
                    Some(path) => {
                        self.fx.kv_link_paths.insert(path.to_string());
                    }
                    None => self.fx.dynamic_kv_paths = true,
                }
                Cost::ZERO
            }
            Builtin::Spawn => {
                self.fx.uses_spawn = true;
                let one = Cost {
                    spawns: Bound::Finite(1),
                    ..Cost::ZERO
                };
                match str_arg(image, args, 0) {
                    Some(target) => {
                        self.fx.spawn_targets.insert(target.to_string());
                        // Fuel and preds run on the child's own budget;
                        // spawn and KV-file creation are global.
                        let child = match image.function(target) {
                            Some(f) => self.fn_cost(f as u32),
                            None => Cost::ZERO,
                        };
                        one.add(Cost {
                            spawns: child.spawns,
                            kv_files: child.kv_files,
                            ..Cost::ZERO
                        })
                    }
                    None => {
                        self.fx.dynamic_spawns = true;
                        Cost {
                            spawns: Bound::Unbounded,
                            kv_files: Bound::Unbounded,
                            ..Cost::ZERO
                        }
                    }
                }
            }
            _ => Cost::ZERO,
        }
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Verifies a lowered program — the image the machine runs: all three
/// passes, diagnostics in source order.
pub fn verify_image(image: &Image) -> VerifyReport {
    let mut checker = Checker::new(image);

    // Discovery pre-pass: find functions *definitely called* from definite
    // code, to a fixpoint, with diagnostics suppressed.
    checker.emit = false;
    checker.check_body(&[], image.top, true);
    let mut marked = vec![false; image.functions.len()];
    let mut queue = std::mem::take(&mut checker.definite_calls);
    while let Some(f) = queue.pop() {
        if std::mem::replace(&mut marked[f as usize], true) {
            continue;
        }
        let func = &image.functions[f as usize];
        checker.check_body(&func.params, func.body, true);
        queue.append(&mut checker.definite_calls);
    }

    // Real pass: top level is definite; a function body is definite iff the
    // function is definitely called (spawned bodies never are — thread
    // faults don't fail the parent program). A call means the first
    // definition of its name, so a duplicate is never marked.
    checker.emit = true;
    checker.check_body(&[], image.top, true);
    for (f, func) in image.functions.iter().enumerate() {
        if Builtin::from_name(&func.name).is_some() {
            checker.diags.push(Diag {
                code: DiagCode::ShadowedBuiltin,
                severity: Severity::Warning,
                span: func.span,
                message: format!("function `{}` is shadowed by the builtin", func.name),
            });
        }
        if image.function(&func.name) != Some(f) {
            checker.diags.push(Diag {
                code: DiagCode::DuplicateFn,
                severity: Severity::Warning,
                span: func.span,
                message: format!("duplicate definition of `{}` (the first wins)", func.name),
            });
        }
        checker.check_body(&func.params, func.body, marked[f]);
    }

    let mut diags = checker.diags;
    diags.sort_by_key(|d| (d.span.line, d.span.col, d.code));

    let effects = CostPass::new(image).run();
    VerifyReport { diags, effects }
}

/// Lowers and verifies a parsed program ([`verify_image`]).
pub fn verify(prog: &Program) -> VerifyReport {
    verify_image(&Image::lower(prog))
}

/// Parses then verifies source text.
pub fn verify_source(src: &str) -> Result<VerifyReport, LipError> {
    let prog = parse(src)?;
    Ok(verify(&prog))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vet(src: &str) -> VerifyReport {
        match verify_source(src) {
            Ok(r) => r,
            Err(e) => unreachable!("parse failed: {e}"),
        }
    }

    #[test]
    fn clean_program_is_admissible() {
        let r = vet("let x = 1; let y = x + 2; print(str(y));");
        assert!(r.is_admissible(), "{:?}", r.diags);
        assert!(r.diags.is_empty());
        assert_eq!(r.effects.pred_bound, Bound::Finite(0));
        assert!(r.effects.fuel_bound.finite().is_some());
    }

    #[test]
    fn undefined_variable_is_an_error() {
        let r = vet("let x = y + 1;");
        let first = r.first_error().map(|d| d.code);
        assert_eq!(first, Some(DiagCode::UndefinedVar));
    }

    #[test]
    fn dead_branch_demotes_to_warning() {
        let r = vet("if (false) { let x = y + 1; }");
        assert!(r.is_admissible(), "{:?}", r.diags);
        assert_eq!(r.diags.len(), 1);
        assert_eq!(r.diags[0].severity, Severity::Warning);
    }

    #[test]
    fn bounds_multiply_through_static_loops() {
        let r = vet("let kv = kv_create();\nfor i in range(0, 4) { let d = pred(kv, [i], i); }");
        assert!(r.is_admissible(), "{:?}", r.diags);
        assert_eq!(r.effects.pred_bound, Bound::Finite(4));
        assert!(r.effects.fuel_bound.finite().is_some());
    }

    #[test]
    fn while_loop_is_unbounded() {
        let r = vet("let n = 0; while (n < 3) { n = n + 1; }");
        assert!(r.is_admissible(), "{:?}", r.diags);
        assert_eq!(r.effects.fuel_bound, Bound::Unbounded);
    }
}
