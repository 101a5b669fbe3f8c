//! The image of a program: what the machine runs, made once per source.
//!
//! [`parse`](crate::parse::parse) gives a tree of owned nodes that name
//! their variables and callees by string; [`Image::lower`] flattens it into
//! one arena of [`Copy`] nodes that name them by number, so running a
//! program compares no strings and chases no boxes:
//!
//! - **Nodes** live in one `Vec`, children by `u32` index. The operands of
//!   a node (the sides of an operator, the items of a list, the arguments
//!   of a call) and the statements of a block are laid out next to each
//!   other, so "the next one" is the next index. Every node keeps its
//!   [`Span`]: errors point where they did.
//! - **Variables** are resolved to a slot of their function activation's
//!   frame by the lexical rule the reference evaluator's `Env` implements
//!   dynamically: a read sees the innermost enclosing scope that has
//!   declared the name *by then* — a `let` further down the same block does
//!   not count — and a function sees its parameters and nothing else. A
//!   block's slots are handed out again once it is closed, so a frame is as
//!   big as the deepest nesting needs. An assignment to a name that no
//!   scope declares declares it in the innermost scope, as a `let` would:
//!   the assignment itself fails when it runs, so nothing after it in that
//!   scope ever does, and the verifier reports it once, not at every read
//!   that follows.
//! - **Call sites** are resolved to a [`Builtin`], a function's index, or
//!   neither. A `try` is no node of its own: it marks the call it wraps
//!   (`Callee::Try`), which keeps the call's span and fuel.
//! - **Names** are kept once each, in one string of NUL-ended names (one
//!   allocation per image, however many it names), and numbered by where
//!   they start in it. Every node that declares, reads or writes a
//!   variable carries the number of its name beside its slot (in room the
//!   node has anyway). The machine never looks at it; the verifier
//!   ([`crate::verify`]), which joins types per name — one slot can hold
//!   two names in turn — does.
//!
//! What cannot be resolved is not an error here. Verification is optional
//! (`ServeConfig::verify`, which `lip_run --no-verify` turns off), and a
//! program that reads an undeclared name on a branch it never takes runs
//! fine: such a read, write or call is lowered to a node that fails with
//! the same `Undefined(name)` at the same span *if it is reached*. The verifier
//! reads those same nodes to say which reads are undefined, so it and the
//! machine cannot disagree about what a name means.
//!
//! An image is immutable and holds nothing of a run, so one `Arc<Image>`
//! serves every session that submits the same source, and every thread a
//! program spawns.

use std::sync::Arc;

use crate::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, UnOp};
use crate::builtins::Builtin;
use crate::error::Span;

/// `n` nodes of the arena next to each other, from `first` on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Run {
    pub(crate) first: u32,
    pub(crate) n: u32,
}

impl Run {
    const EMPTY: Run = Run { first: 0, n: 0 };

    /// The indices of its nodes.
    pub(crate) fn ids(self) -> std::ops::Range<u32> {
        self.first..self.first + self.n
    }
}

/// What a call site's name means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Callee {
    Builtin(Builtin),
    /// A builtin that asks the host, called under `try`: an error the host
    /// answers is the call's value.
    Try(Builtin),
    /// `functions[i]`: the first definition of the name, as long as no
    /// builtin has it.
    User(u32),
    /// Nothing: the call fails as `Undefined` of name `i` once its
    /// arguments are evaluated.
    Unknown(u32),
}

/// The variable an assignment writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Target {
    /// The slot, and the name.
    Slot(u32, u32),
    /// No scope declares name `i` here.
    Undefined(u32),
}

/// One node. Child fields are arena indices; where a node has two operands
/// they sit at `first` and `first + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    // ---- expressions ----
    Int(i64),
    Float(f64),
    Bool(bool),
    Nil,
    /// `strings[i]`.
    Str(u32),
    /// A read of the frame's slot, and the name.
    Var(u32, u32),
    /// A read of name `i`, which no scope declares here.
    Undefined(u32),
    List(Run),
    Un(UnOp, u32),
    Bin(BinOp, u32),
    /// `base[index]`, the two at `first`.
    Index(u32),
    Call(Callee, Run),
    // ---- statements ----
    /// `let` into the slot, the name, the initialiser.
    Let(u32, u32, u32),
    Assign(Target, u32),
    /// `name[index] = value`, the two at `first`.
    IndexAssign(Target, u32),
    /// Condition, then-block, else-block.
    If(u32, Run, Run),
    While(u32, Run),
    /// The loop variable's slot and name, the iterable, the body.
    For(u32, u32, u32, Run),
    Break,
    Continue,
    Return(Option<u32>),
    Expr(u32),
}

/// A node, where it came from, and whether it can wait.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub(crate) node: Node,
    pub(crate) span: Span,
    /// An expression that needs nobody and is not nested deeply: a leaf,
    /// or an operator, list, index expression or call of a pure builtin
    /// over such expressions, at most [`PURE_HEIGHT`] levels of them. The
    /// machine evaluates one in a single go, on the Rust stack, with no
    /// record — it never has to stop halfway — and only what can call the
    /// host or a function, or what is nested deeper than the Rust stack
    /// should be trusted with, goes through its activation records.
    pub(crate) pure: bool,
}

// The machine reads one of these per step: whatever a node records, it
// must not make every program bigger and every run slower.
const _: () = assert!(std::mem::size_of::<Entry>() <= 40);

/// The deepest nesting of operators the machine evaluates recursively.
pub(crate) const PURE_HEIGHT: u8 = 16;

/// A function definition, lowered.
#[derive(Debug)]
pub(crate) struct Func {
    pub(crate) name: String,
    /// Where its definition starts.
    pub(crate) span: Span,
    /// Its parameters' names; they are slots `0..params.len()` of the
    /// frame.
    pub(crate) params: Vec<u32>,
    /// Size of an activation's frame.
    pub(crate) slots: u32,
    pub(crate) body: Run,
}

/// A program lowered for the machine. See the [module docs](self).
pub struct Image {
    pub(crate) nodes: Vec<Entry>,
    /// String literals.
    pub(crate) strings: Vec<String>,
    /// Identifiers, each once and NUL-ended (see the module docs).
    pub(crate) names: String,
    /// In definition order, duplicates included (a name means the first).
    pub(crate) functions: Vec<Func>,
    pub(crate) top: Run,
    /// Size of the top level's frame.
    pub(crate) top_slots: u32,
}

/// Summarised: the whole arena would drown a `HostCall::Spawn` in a log.
impl std::fmt::Debug for Image {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Image")
            .field("nodes", &self.nodes.len())
            .field("functions", &self.functions.len())
            .finish()
    }
}

impl Image {
    /// Lowers a parsed program. Never fails: see the module docs for what
    /// becomes of a name that resolves to nothing.
    pub fn lower(program: &Program) -> Image {
        let mut lowerer = Lowerer {
            program,
            nodes: Vec::with_capacity(64),
            heights: Vec::with_capacity(64),
            strings: Vec::new(),
            names: String::new(),
            scope: Vec::new(),
            opened: Vec::new(),
            slots: 0,
        };
        let functions = program
            .functions
            .iter()
            .map(|def| {
                // Two parameters of one name share the scope: the later
                // one is the one the body sees.
                for p in &def.params {
                    let name = lowerer.name(p);
                    lowerer.scope.push((p, name));
                }
                let params = lowerer.scope.iter().map(|&(_, name)| name).collect();
                let (body, slots) = lowerer.frame(&def.body);
                Func {
                    name: def.name.clone(),
                    span: def.span,
                    params,
                    slots,
                    body,
                }
            })
            .collect();
        let (top, top_slots) = lowerer.frame(&program.top);
        Image {
            nodes: lowerer.nodes,
            strings: lowerer.strings,
            names: lowerer.names,
            functions,
            top,
            top_slots,
        }
    }

    /// [`Image::lower`], ready to share.
    pub fn shared(program: &Program) -> Arc<Image> {
        Arc::new(Image::lower(program))
    }

    /// Index of the function a call of `name` runs.
    pub(crate) fn function(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// The identifier numbered `at`.
    pub(crate) fn name(&self, at: u32) -> &str {
        let rest = &self.names[at as usize..];
        &rest[..rest.find('\0').unwrap_or(rest.len())]
    }

    pub(crate) fn node(&self, id: u32) -> Node {
        self.nodes[id as usize].node
    }

    pub(crate) fn span(&self, id: u32) -> Span {
        self.nodes[id as usize].span
    }
}

/// The height of a subtree that is not pure.
const IMPURE: u8 = u8::MAX;

struct Lowerer<'p> {
    program: &'p Program,
    nodes: Vec<Entry>,
    /// Per node: how many levels of pure operators it is, or [`IMPURE`].
    heights: Vec<u8>,
    strings: Vec<String>,
    names: String,
    /// The names visible at the point being lowered, outermost first, with
    /// their numbers: a name's index is its slot.
    scope: Vec<(&'p str, u32)>,
    /// `scope.len()` when each open block was entered.
    opened: Vec<usize>,
    /// The most names visible at once so far in this frame.
    slots: usize,
}

impl<'p> Lowerer<'p> {
    /// Lowers the body of one activation — a function's, with its
    /// parameters already in scope, or the top level's — and says how many
    /// slots it needs.
    fn frame(&mut self, body: &'p [Stmt]) -> (Run, u32) {
        self.slots = self.scope.len();
        let run = self.block(body);
        self.scope.clear();
        (run, self.slots as u32)
    }

    fn reserve(&mut self, n: usize) -> u32 {
        let first = self.nodes.len();
        let hole = Entry {
            node: Node::Nil,
            span: Span::default(),
            pure: false,
        };
        self.nodes.resize(first + n, hole);
        self.heights.resize(first + n, IMPURE);
        first as u32
    }

    fn string(&mut self, s: &str) -> u32 {
        self.strings.push(s.to_string());
        self.strings.len() as u32 - 1
    }

    /// The number of the identifier `name`: where it starts in `names`.
    fn name(&mut self, name: &str) -> u32 {
        let mut at = 0;
        for known in self.names.split_terminator('\0') {
            if known == name {
                return at as u32;
            }
            at += known.len() + 1;
        }
        self.names.push_str(name);
        self.names.push('\0');
        at as u32
    }

    fn open(&mut self) {
        self.opened.push(self.scope.len());
    }

    fn close(&mut self) {
        let opened = self.opened.pop().expect("a scope to close");
        self.scope.truncate(opened);
    }

    /// The slot a read or write of `name` means here, and the name's
    /// number.
    fn resolve(&self, name: &str) -> Option<(u32, u32)> {
        let slot = self.scope.iter().rposition(|(n, _)| *n == name)?;
        Some((slot as u32, self.scope[slot].1))
    }

    /// Declares `name` in the innermost scope: again, if that scope has it
    /// already (the old value is out of reach from then on). Its slot, and
    /// its number.
    fn declare(&mut self, name: &'p str) -> (u32, u32) {
        let opened = self.opened.last().copied().unwrap_or(0);
        if let Some(i) = self.scope[opened..].iter().rposition(|(n, _)| *n == name) {
            return ((opened + i) as u32, self.scope[opened + i].1);
        }
        let number = self.name(name);
        self.scope.push((name, number));
        self.slots = self.slots.max(self.scope.len());
        (self.scope.len() as u32 - 1, number)
    }

    /// What an assignment to `name` writes: its slot, or — where no scope
    /// declares it — nothing, and the name is declared from here on (see
    /// the module docs).
    fn target(&mut self, name: &'p str) -> Target {
        match self.resolve(name) {
            Some((slot, name)) => Target::Slot(slot, name),
            None => Target::Undefined(self.declare(name).1),
        }
    }

    /// The statements of a block, in the scope that is open.
    fn block(&mut self, stmts: &'p [Stmt]) -> Run {
        if stmts.is_empty() {
            return Run::EMPTY;
        }
        let first = self.reserve(stmts.len());
        for (i, s) in stmts.iter().enumerate() {
            let node = self.stmt(s);
            self.nodes[first as usize + i] = Entry {
                node,
                span: s.span,
                pure: false,
            };
        }
        Run {
            first,
            n: stmts.len() as u32,
        }
    }

    /// A block in a scope of its own.
    fn scoped(&mut self, stmts: &'p [Stmt]) -> Run {
        self.open();
        let run = self.block(stmts);
        self.close();
        run
    }

    fn stmt(&mut self, s: &'p Stmt) -> Node {
        match &s.kind {
            StmtKind::Let(name, e) => {
                // The initialiser runs before the name exists.
                let init = self.exprs([e]);
                let (slot, name) = self.declare(name);
                Node::Let(slot, name, init)
            }
            StmtKind::Assign(name, e) => {
                let value = self.exprs([e]);
                Node::Assign(self.target(name), value)
            }
            StmtKind::IndexAssign(name, index, e) => {
                let first = self.exprs([index, e]);
                Node::IndexAssign(self.target(name), first)
            }
            StmtKind::If(cond, then, els) => {
                let cond = self.exprs([cond]);
                Node::If(cond, self.scoped(then), self.scoped(els))
            }
            StmtKind::While(cond, body) => {
                let cond = self.exprs([cond]);
                Node::While(cond, self.scoped(body))
            }
            StmtKind::For(var, iter, body) => {
                let iter = self.exprs([iter]);
                // The variable and the body's own `let`s share one scope,
                // made anew for every item.
                self.open();
                let (slot, name) = self.declare(var);
                let body = self.block(body);
                self.close();
                Node::For(slot, name, iter, body)
            }
            StmtKind::Break => Node::Break,
            StmtKind::Continue => Node::Continue,
            StmtKind::Return(e) => Node::Return(e.as_ref().map(|e| self.exprs([e]))),
            StmtKind::Expr(e) => Node::Expr(self.exprs([e])),
        }
    }

    /// Lowers expressions into nodes next to each other; returns the first.
    fn exprs<'e>(&mut self, exprs: impl IntoIterator<Item = &'e Expr> + Clone) -> u32 {
        let first = self.reserve(exprs.clone().into_iter().count());
        for (i, e) in exprs.into_iter().enumerate() {
            let node = self.expr(e);
            let height = self.height(node);
            self.heights[first as usize + i] = height;
            // A `try` is the call it wraps.
            let mut inner = e;
            while let ExprKind::Try(call) = &inner.kind {
                inner = call;
            }
            let span = inner.span;
            self.nodes[first as usize + i] = Entry {
                node,
                span,
                pure: height != IMPURE,
            };
        }
        first
    }

    /// How many levels of pure operators an expression is, its operands
    /// lowered already.
    fn height(&self, node: Node) -> u8 {
        let operands = match node {
            Node::List(run) | Node::Call(Callee::Builtin(_), run) => run,
            Node::Un(_, first) => Run { first, n: 1 },
            Node::Bin(_, first) | Node::Index(first) => Run { first, n: 2 },
            Node::Call(..) => return IMPURE,
            _ => return 0,
        };
        if matches!(node, Node::Call(Callee::Builtin(b), _) if !b.is_pure()) {
            return IMPURE;
        }
        let below = (operands.first..operands.first + operands.n)
            .map(|id| self.heights[id as usize])
            .max()
            .unwrap_or(0);
        if below < PURE_HEIGHT {
            below + 1
        } else {
            IMPURE
        }
    }

    fn run_of(&mut self, exprs: &[Expr]) -> Run {
        Run {
            first: self.exprs(exprs),
            n: exprs.len() as u32,
        }
    }

    fn expr(&mut self, e: &Expr) -> Node {
        match &e.kind {
            ExprKind::Int(v) => Node::Int(*v),
            ExprKind::Float(v) => Node::Float(*v),
            ExprKind::Bool(v) => Node::Bool(*v),
            ExprKind::Nil => Node::Nil,
            ExprKind::Str(s) => Node::Str(self.string(s)),
            ExprKind::Var(name) => match self.resolve(name) {
                Some((slot, name)) => Node::Var(slot, name),
                None => Node::Undefined(self.name(name)),
            },
            ExprKind::List(items) => Node::List(self.run_of(items)),
            ExprKind::Un(op, a) => Node::Un(*op, self.exprs([&**a])),
            ExprKind::Bin(op, a, b) => Node::Bin(*op, self.exprs([&**a, &**b])),
            ExprKind::Index(a, b) => Node::Index(self.exprs([&**a, &**b])),
            ExprKind::Try(call) => match self.expr(call) {
                Node::Call(Callee::Builtin(b), args) if !b.is_pure() => {
                    Node::Call(Callee::Try(b), args)
                }
                node => node,
            },
            ExprKind::Call(name, args) => {
                let callee = if let Some(b) = Builtin::from_name(name) {
                    Callee::Builtin(b)
                } else if let Some(f) = self.program.functions.iter().position(|f| f.name == *name)
                {
                    Callee::User(f as u32)
                } else {
                    Callee::Unknown(self.name(name))
                };
                Node::Call(callee, self.run_of(args))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn lower(src: &str) -> Image {
        Image::lower(&parse(src).expect("test programs parse"))
    }

    /// The slot or the failure each read of a variable lowered to, in
    /// source order.
    fn reads(image: &Image) -> Vec<String> {
        let mut found: Vec<(Span, String)> = image
            .nodes
            .iter()
            .filter_map(|e| match e.node {
                Node::Var(slot, _) => Some((e.span, format!("slot {slot}"))),
                Node::Undefined(name) => Some((e.span, format!("undefined {}", image.name(name)))),
                _ => None,
            })
            .collect();
        found.sort_by_key(|(span, _)| (span.line, span.col));
        found.into_iter().map(|(_, what)| what).collect()
    }

    #[test]
    fn a_read_sees_what_is_declared_by_then() {
        let image = lower(
            "let x = 1;\n\
             if (x) {\n\
                 emit(x);\n\
                 let x = x + 1;\n\
                 emit(x);\n\
             }\n\
             emit(x);\n\
             emit(y);\n\
             let y = 0;\n\
             emit(y);",
        );
        assert_eq!(
            reads(&image),
            [
                "slot 0",      // the condition
                "slot 0",      // before the inner `let`: the outer x
                "slot 0",      // the inner `let`'s initialiser: still the outer x
                "slot 1",      // after it: the inner x
                "slot 0",      // the block is closed
                "undefined y", // not yet
                "slot 1",      // the closed block's slot, handed out again
            ]
        );
        assert_eq!(image.top_slots, 2);
    }

    #[test]
    fn a_function_sees_its_parameters_and_nothing_else() {
        let image = lower(
            "fn f(a, b) { let c = a; return c + b + top; }\n\
             fn g(a, a) { return a; }\n\
             let top = 1;\n\
             for top in [top] { let top = top; }\n\
             return f(top, 2);",
        );
        assert_eq!(image.functions[0].slots, 3);
        assert_eq!(image.functions[1].slots, 2);
        assert_eq!(
            reads(&image),
            [
                "slot 0",
                "slot 2",
                "slot 1",
                "undefined top",
                "slot 1", // the later of two parameters of one name
                "slot 0", // the iterable: the outer `top`
                "slot 1", // the loop variable, which the body's `let` re-declares in place
                "slot 0", // the loop is closed
            ]
        );
        // The loop variable and the body's `let` share a scope and a slot.
        assert_eq!(image.top_slots, 2);
    }

    #[test]
    fn an_undefined_assignment_declares_the_name_until_its_block_closes() {
        let image = lower("x = 1; emit(x); if (c) { y = 2; } emit(y);");
        assert_eq!(reads(&image), ["slot 0", "undefined c", "undefined y"]);
        assert_eq!(image.top_slots, 2);
    }

    #[test]
    fn call_sites_resolve_to_a_builtin_a_function_or_nothing() {
        let image = lower(
            "fn len(x) { return 0; }\n\
             fn twice(x) { return 1; }\n\
             fn twice(x) { return 2; }\n\
             len([]); twice(1); thrice(1);",
        );
        let callees: Vec<Callee> = image
            .nodes
            .iter()
            .filter_map(|e| match e.node {
                Node::Call(callee, _) => Some(callee),
                _ => None,
            })
            .collect();
        assert_eq!(
            callees,
            [
                Callee::Builtin(Builtin::Len),
                Callee::User(1),
                Callee::Unknown(2)
            ]
        );
        assert_eq!(image.names, "x\0thrice\0");
        assert_eq!(image.function("twice"), Some(1));
    }
}
