//! The interpreter: a resumable machine with fuel, memory and depth
//! metering.
//!
//! [`Interpreter`] runs a program on an explicit stack of activation
//! records over the `Arc<Program>` AST instead of on the Rust stack, so it
//! can stop wherever the program needs its host: [`Interpreter::step`] runs
//! until the next [`HostCall`] (every host-calling builtin makes exactly
//! one) or the program's result, and the next `step` takes the reply. A
//! program in mid-flight is therefore a plain value — which is what lets
//! the kernel hold a served session as state and step it on its own thread
//! ([`crate::inline`]) instead of parking an OS thread per session.
//! [`Interpreter::run`] and [`Interpreter::call_named`] are the blocking
//! driver loop over the same machine for anything that implements
//! [`Host`].
//!
//! What one operation *means* — metering, arithmetic, indexing, scoping,
//! call binding — lives in `Core`, `Env` and [`crate::builtins`] and is
//! shared with the recursive reference evaluator the tests compare the
//! machine against (`reference.rs`, `#[cfg(test)]`). The machine owns only
//! the order things happen in, and it burns fuel, charges memory and
//! counts depth at exactly the points, with exactly the spans, the
//! tree-walk does.
//!
//! # Why the loop is shaped the way it is
//!
//! A node of a LipScript program is a dozen nanoseconds of work, so the
//! machinery around it is what one measures. Two things turned out to cost
//! more than a node: a helper called out of line that hands a `Value` or a
//! `Result` back through memory, and a jump table (every `match` on a node
//! or record kind is one, and an indirect branch that mispredicts costs a
//! node's worth of time). Hence: the helpers on the per-node path are
//! `#[inline(always)]`; a node is matched on its kind once per visit
//! (`Operands::of`, `leaf`); a literal or a variable is evaluated where
//! its parent gathers operands and never gets a record; neither does an
//! operator or a call whose operands are all leaves, unless it has to wait
//! for the host or a function body; and the blocking driver answers host
//! calls from inside the loop (`step_with`) instead of parking and
//! re-deriving the stack for each. With that the machine is 20–30 % slower
//! per node than the tree-walk it replaced (on the host this was written
//! on: 12.8 against 9.9 ns per unit of fuel on an arithmetic loop, 31.6
//! against 25.0 on a tool-calling agent against `MockHost`); without, it
//! was 2–2.5× slower. Parking on a host call and resuming costs about
//! 80 ns more than answering it in the loop; a hosted thread's hand-off,
//! which parking replaces for served programs, costs 4–5 µs.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::{BinOp, Expr, ExprKind, FnDef, Program, Stmt, StmtKind, UnOp};
use crate::builtins::{self, Begun};
use crate::error::{LipError, RuntimeError, RuntimeErrorKind, Span};
use crate::host::{Host, HostCall, HostReply, HostResult};
use crate::parse::parse;
use crate::value::Value;

/// Resource limits for one program (§6: "resource accounting").
#[derive(Debug, Clone, Copy)]
pub struct InterpLimits {
    /// Maximum AST-node evaluations.
    pub fuel: u64,
    /// Total allocation budget in abstract cells (monotonic: frees are not
    /// credited back, bounding total work a program can cause).
    pub memory_cells: u64,
    /// Maximum function-call depth.
    pub max_depth: u32,
}

impl Default for InterpLimits {
    fn default() -> Self {
        InterpLimits {
            fuel: 10_000_000,
            memory_cells: 4_000_000,
            max_depth: 64,
        }
    }
}

/// Statement outcome (control flow).
pub(crate) enum Flow {
    Normal,
    Break(Span),
    Continue(Span),
    Return(Value),
}

impl Flow {
    /// What a function body (or the top level) that ended this way
    /// evaluates to.
    pub(crate) fn into_result(self) -> Result<Value, RuntimeError> {
        match self {
            Flow::Return(v) => Ok(v),
            Flow::Break(span) | Flow::Continue(span) => {
                Err(RuntimeError::new(RuntimeErrorKind::BadControlFlow, span))
            }
            Flow::Normal => Ok(Value::Nil),
        }
    }
}

/// Lexical environment: a stack of scopes.
pub(crate) struct Env {
    scopes: Vec<BTreeMap<String, Value>>,
}

impl Env {
    pub(crate) fn new() -> Self {
        Env {
            scopes: vec![BTreeMap::new()],
        }
    }

    pub(crate) fn push(&mut self) {
        self.scopes.push(BTreeMap::new());
    }

    pub(crate) fn pop(&mut self) {
        self.scopes.pop();
    }

    pub(crate) fn declare(&mut self, name: &str, v: Value) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), v);
    }

    /// Reads a variable; unknown names fail at `span`.
    pub(crate) fn get(&self, name: &str, span: Span) -> Result<Value, RuntimeError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .cloned()
            .ok_or_else(|| undefined(name, span))
    }

    /// Overwrites a declared variable; unknown names fail at `span`.
    pub(crate) fn set(&mut self, name: &str, v: Value, span: Span) -> Result<(), RuntimeError> {
        *self.slot(name, span)? = v;
        Ok(())
    }

    fn slot(&mut self, name: &str, span: Span) -> Result<&mut Value, RuntimeError> {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(name))
            .ok_or_else(|| undefined(name, span))
    }

    /// `name[i] = v` on a declared list.
    pub(crate) fn set_index(
        &mut self,
        name: &str,
        i: Value,
        v: Value,
        span: Span,
    ) -> Result<(), RuntimeError> {
        let Value::Int(i) = i else {
            return Err(type_error(
                format!("list index must be int, got {}", i.type_name()),
                span,
            ));
        };
        match self.slot(name, span)? {
            Value::List(items) => {
                if i < 0 || i as usize >= items.len() {
                    return Err(RuntimeError::new(
                        RuntimeErrorKind::IndexOutOfBounds(i, items.len()),
                        span,
                    ));
                }
                items[i as usize] = v;
                Ok(())
            }
            other => Err(type_error(
                format!("cannot index-assign into {}", other.type_name()),
                span,
            )),
        }
    }
}

fn undefined(name: &str, span: Span) -> RuntimeError {
    RuntimeError::new(RuntimeErrorKind::Undefined(name.to_string()), span)
}

fn type_error(msg: String, span: Span) -> RuntimeError {
    RuntimeError::new(RuntimeErrorKind::Type(msg), span)
}

/// The program, its limits and its meters, plus what every single
/// operation of the language means. An evaluator adds only the order the
/// operations happen in.
pub(crate) struct Core {
    pub(crate) program: Arc<Program>,
    pub(crate) limits: InterpLimits,
    fuel_used: u64,
    mem_used: u64,
    depth: u32,
}

impl Core {
    pub(crate) fn new(program: Arc<Program>, limits: InterpLimits) -> Self {
        Core {
            program,
            limits,
            fuel_used: 0,
            mem_used: 0,
            depth: 0,
        }
    }

    pub(crate) fn fuel_used(&self) -> u64 {
        self.fuel_used
    }

    pub(crate) fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// One AST-node evaluation.
    pub(crate) fn burn(&mut self, span: Span) -> Result<(), RuntimeError> {
        self.fuel_used += 1;
        if self.fuel_used > self.limits.fuel {
            Err(RuntimeError::new(RuntimeErrorKind::OutOfFuel, span))
        } else {
            Ok(())
        }
    }

    /// Charges an allocation against the memory budget.
    pub(crate) fn charge(&mut self, cells: u64, span: Span) -> Result<(), RuntimeError> {
        self.mem_used += cells;
        if self.mem_used > self.limits.memory_cells {
            Err(RuntimeError::new(RuntimeErrorKind::OutOfMemory, span))
        } else {
            Ok(())
        }
    }

    /// A string literal's value.
    pub(crate) fn string(&mut self, s: &str, span: Span) -> Result<Value, RuntimeError> {
        self.charge(1 + s.len() as u64 / 8, span)?;
        Ok(Value::Str(s.to_string()))
    }

    /// A list literal's value, its items evaluated.
    pub(crate) fn list(&mut self, items: Vec<Value>, span: Span) -> Result<Value, RuntimeError> {
        self.charge(1 + items.len() as u64, span)?;
        Ok(Value::List(items))
    }

    /// The items a `for` loop walks.
    pub(crate) fn iterable(v: Value, span: Span) -> Result<Vec<Value>, RuntimeError> {
        match v {
            Value::List(items) => Ok(items),
            other => Err(type_error(
                format!("for-loop needs a list, got {}", other.type_name()),
                span,
            )),
        }
    }

    /// Enters a call of `def`: arity and depth checks, then the callee's
    /// environment (a function sees its parameters and nothing else).
    /// Pair with [`Core::leave`].
    pub(crate) fn enter(
        &mut self,
        def: &FnDef,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Env, RuntimeError> {
        if def.params.len() != args.len() {
            return Err(RuntimeError::new(
                RuntimeErrorKind::BadArity(format!(
                    "{} expects {} args, got {}",
                    def.name,
                    def.params.len(),
                    args.len()
                )),
                span,
            ));
        }
        if self.depth >= self.limits.max_depth {
            return Err(RuntimeError::new(RuntimeErrorKind::DepthExceeded, span));
        }
        self.depth += 1;
        let mut env = Env::new();
        for (p, a) in def.params.iter().zip(args) {
            env.declare(p, a);
        }
        Ok(env)
    }

    /// Leaves the call [`Core::enter`] entered.
    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    pub(crate) fn unop(op: UnOp, v: Value, span: Span) -> Result<Value, RuntimeError> {
        match (op, v) {
            (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
            (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
            (UnOp::Not, v) => Ok(Value::Bool(!v.truthy())),
            (UnOp::Neg, v) => Err(type_error(format!("cannot negate {}", v.type_name()), span)),
        }
    }

    /// `base[i]` on a list or a string.
    pub(crate) fn index(base: Value, i: Value, span: Span) -> Result<Value, RuntimeError> {
        let Value::Int(i) = i else {
            return Err(type_error(
                format!("index must be int, got {}", i.type_name()),
                span,
            ));
        };
        let out_of_bounds =
            |len| RuntimeError::new(RuntimeErrorKind::IndexOutOfBounds(i, len), span);
        match base {
            Value::List(mut items) => {
                if i < 0 || i as usize >= items.len() {
                    Err(out_of_bounds(items.len()))
                } else {
                    Ok(items.swap_remove(i as usize))
                }
            }
            Value::Str(s) => {
                let bytes = s.as_bytes();
                if i < 0 || i as usize >= bytes.len() {
                    Err(out_of_bounds(bytes.len()))
                } else {
                    Ok(Value::Str((bytes[i as usize] as char).to_string()))
                }
            }
            other => Err(type_error(
                format!("cannot index {}", other.type_name()),
                span,
            )),
        }
    }

    /// Every binary operator but the short-circuiting `&&` and `||`, which
    /// are control flow and so the evaluator's.
    pub(crate) fn binop(
        &mut self,
        op: BinOp,
        l: Value,
        r: Value,
        span: Span,
    ) -> Result<Value, RuntimeError> {
        use Value::{Float, Int, Str};
        let type_err = |l: &Value, r: &Value| {
            type_error(
                format!(
                    "cannot apply {op:?} to {} and {}",
                    l.type_name(),
                    r.type_name()
                ),
                span,
            )
        };
        Ok(match (op, &l, &r) {
            (BinOp::Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
            (BinOp::Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
            (BinOp::Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
            (BinOp::Div, Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(RuntimeError::new(RuntimeErrorKind::DivisionByZero, span));
                }
                Int(a.wrapping_div(*b))
            }
            (BinOp::Mod, Int(a), Int(b)) => {
                if *b == 0 {
                    return Err(RuntimeError::new(RuntimeErrorKind::DivisionByZero, span));
                }
                Int(a.wrapping_rem(*b))
            }
            (BinOp::Add, Str(a), b) => {
                let s = format!("{a}{b}");
                self.charge(1 + s.len() as u64 / 8, span)?;
                Str(s)
            }
            (BinOp::Add, a, Str(b)) => {
                let s = format!("{a}{b}");
                self.charge(1 + s.len() as u64 / 8, span)?;
                Str(s)
            }
            (BinOp::Add, Value::List(a), Value::List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                self.charge(1 + out.len() as u64, span)?;
                Value::List(out)
            }
            (_, Float(_), _) | (_, _, Float(_)) => {
                let (a, b) = match (&l, &r) {
                    (Int(a), Float(b)) => (*a as f64, *b),
                    (Float(a), Int(b)) => (*a, *b as f64),
                    (Float(a), Float(b)) => (*a, *b),
                    _ => return Err(type_err(&l, &r)),
                };
                match op {
                    BinOp::Add => Float(a + b),
                    BinOp::Sub => Float(a - b),
                    BinOp::Mul => Float(a * b),
                    BinOp::Div => Float(a / b),
                    BinOp::Mod => Float(a % b),
                    BinOp::Eq => Value::Bool(a == b),
                    BinOp::Ne => Value::Bool(a != b),
                    BinOp::Lt => Value::Bool(a < b),
                    BinOp::Le => Value::Bool(a <= b),
                    BinOp::Gt => Value::Bool(a > b),
                    BinOp::Ge => Value::Bool(a >= b),
                    BinOp::And | BinOp::Or => unreachable!("short-circuited"),
                }
            }
            (BinOp::Eq, a, b) => Value::Bool(a == b),
            (BinOp::Ne, a, b) => Value::Bool(a != b),
            (BinOp::Lt, Int(a), Int(b)) => Value::Bool(a < b),
            (BinOp::Le, Int(a), Int(b)) => Value::Bool(a <= b),
            (BinOp::Gt, Int(a), Int(b)) => Value::Bool(a > b),
            (BinOp::Ge, Int(a), Int(b)) => Value::Bool(a >= b),
            (BinOp::Lt, Str(a), Str(b)) => Value::Bool(a < b),
            (BinOp::Le, Str(a), Str(b)) => Value::Bool(a <= b),
            (BinOp::Gt, Str(a), Str(b)) => Value::Bool(a > b),
            (BinOp::Ge, Str(a), Str(b)) => Value::Bool(a >= b),
            _ => return Err(type_err(&l, &r)),
        })
    }
}

/// What [`Interpreter::step`] stopped for.
#[derive(Debug)]
pub enum Step<P = HostCall> {
    /// The program needs its host and is parked: answer the call this
    /// stands for, then `step` with the reply.
    Ask(P),
    /// The program is over: a top-level `return`'s value (or
    /// [`Value::Nil`]), or the error that ended it.
    Done(Result<Value, RuntimeError>),
}

/// The AST node an activation record belongs to. Records do not store it —
/// a record could not borrow from the `Arc<Program>` held next to it — but
/// each says which of its node's children is running, so the nodes of a
/// parked stack are re-derived from the root in one pass ([`child`]) when a
/// step begins, and kept beside the records while it runs.
#[derive(Clone, Copy)]
enum Node<'p> {
    Block(&'p [Stmt]),
    Stmt(&'p Stmt),
    Expr(&'p Expr),
}

impl Node<'_> {
    /// The very same node of the very same tree.
    fn is(self, other: Node<'_>) -> bool {
        match (self, other) {
            (Node::Block(a), Node::Block(b)) => std::ptr::eq(a, b),
            (Node::Stmt(a), Node::Stmt(b)) => std::ptr::eq(a, b),
            (Node::Expr(a), Node::Expr(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }
}

/// One activation record: a node that has begun and not finished, and
/// which of its children is running ([`child`]). The operands it has
/// gathered sit on the machine's value stack. Literals, variables,
/// `break`/`continue` and a bare `return` finish the moment they begin and
/// never get a record.
#[derive(Clone, Copy)]
enum Frame {
    /// `next` statements of the block have begun.
    Block { next: usize },
    /// A statement with one expression (`let`, assignment, `return e`,
    /// expression statement; `arm` 0) or with blocks: `if` runs its
    /// condition (0), then its then (1) or else (2) block; `while` its
    /// condition (0) and body (1); `for` its iterable (0) and body (1),
    /// with the items still to visit on the value stack, last first.
    Stmt { arm: u8 },
    /// An operator, list literal, index expression, index assignment or
    /// call gathering its operands in order: `next` of them have begun,
    /// and all but the last of those are on the value stack.
    Operands { next: usize },
    /// A builtin call whose host call is out; the next step brings the
    /// reply.
    Host,
    /// A call of `functions[i]`, whose body is running in an [`Env`] of
    /// its own.
    Body(usize),
}

/// What a call site's name turned out to mean, looked up once per site.
#[derive(Clone, Copy)]
enum Callee {
    Builtin,
    User(usize),
    Unknown,
}

/// The operands of a node that evaluates a fixed sequence of expressions
/// before it acts: the children of an operator or an index expression, the
/// items of a list literal, the arguments of a call, the index and value of
/// an index assignment. Any other node has none.
#[derive(Clone, Copy)]
struct Operands<'p> {
    /// The boxed children of an operator, when there is no slice of them.
    pair: [Option<&'p Expr>; 2],
    items: &'p [Expr],
}

impl<'p> Operands<'p> {
    #[inline(always)]
    fn of(node: Node<'p>) -> Self {
        let (pair, items): ([Option<&'p Expr>; 2], &'p [Expr]) = match node {
            Node::Expr(e) => match &e.kind {
                ExprKind::List(items) | ExprKind::Call(_, items) => ([None; 2], items),
                ExprKind::Un(_, a) => ([Some(a), None], &[]),
                ExprKind::Bin(_, a, b) | ExprKind::Index(a, b) => ([Some(a), Some(b)], &[]),
                _ => ([None; 2], &[]),
            },
            Node::Stmt(Stmt {
                kind: StmtKind::IndexAssign(_, i, e),
                ..
            }) => ([Some(i), Some(e)], &[]),
            _ => ([None; 2], &[]),
        };
        Operands { pair, items }
    }

    /// Operand `k`; `None` past the last one.
    #[inline(always)]
    fn get(&self, k: usize) -> Option<&'p Expr> {
        match self.pair[0] {
            Some(_) => self.pair.get(k).copied().flatten(),
            None => self.items.get(k),
        }
    }
}

/// The node of `frame`'s running child, `None` when it has none (a call
/// waiting for the host): how a parked stack's nodes are re-derived. While
/// it runs the machine knows the child it begins from the match arm it is
/// in; a debug assertion holds every such choice against this function.
fn child<'p>(program: &'p Program, node: Node<'p>, frame: Frame) -> Option<Node<'p>> {
    Some(match (frame, node) {
        (Frame::Operands { next }, node) => {
            Node::Expr(Operands::of(node).get(next.checked_sub(1)?)?)
        }
        (Frame::Block { next }, Node::Block(stmts)) => Node::Stmt(stmts.get(next.checked_sub(1)?)?),
        (Frame::Body(f), _) => Node::Block(&program.functions.get(f)?.body),
        (Frame::Stmt { arm }, Node::Stmt(s)) => match (&s.kind, arm) {
            (StmtKind::If(cond, _, _) | StmtKind::While(cond, _), 0) => Node::Expr(cond),
            (StmtKind::If(_, then, _), 1) => Node::Block(then),
            (StmtKind::If(_, _, els), _) => Node::Block(els),
            (StmtKind::For(_, iter, _), 0) => Node::Expr(iter),
            (StmtKind::While(_, body) | StmtKind::For(_, _, body), _) => Node::Block(body),
            (
                StmtKind::Let(_, e)
                | StmtKind::Assign(_, e)
                | StmtKind::Expr(e)
                | StmtKind::Return(Some(e)),
                _,
            ) => Node::Expr(e),
            _ => return None,
        },
        _ => return None,
    })
}

/// The interpreter state for one program execution.
pub struct Interpreter {
    core: Core,
    /// The function whose body is the root block; `None` for the top level.
    root: Option<usize>,
    frames: Vec<Frame>,
    /// Operands of the records in `frames`, oldest first.
    values: Vec<Value>,
    /// One environment per function activation in progress, innermost last.
    envs: Vec<Env>,
    /// Call sites resolved so far, by the address of their node in
    /// `core.program` (stable: the AST is behind an `Arc` and never
    /// mutated). Looked up, never iterated.
    callees: BTreeMap<usize, Callee>,
}

impl Interpreter {
    /// Creates an interpreter over a parsed program.
    pub fn new(program: Arc<Program>, limits: InterpLimits) -> Self {
        Interpreter {
            core: Core::new(program, limits),
            root: None,
            frames: Vec::new(),
            values: Vec::new(),
            envs: Vec::new(),
            callees: BTreeMap::new(),
        }
    }

    /// Fuel consumed so far.
    pub fn fuel_used(&self) -> u64 {
        self.core.fuel_used()
    }

    /// Memory cells charged so far.
    pub fn mem_used(&self) -> u64 {
        self.core.mem_used()
    }

    /// Runs the program's top-level statements. Returns the value of a
    /// top-level `return`, or [`Value::Nil`].
    pub fn run(&mut self, host: &mut dyn Host) -> Result<Value, RuntimeError> {
        self.start();
        self.drive(host)
    }

    /// Calls a named top-level function with arguments (thread entry point).
    pub fn call_named(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: Vec<Value>,
    ) -> Result<Value, RuntimeError> {
        self.start_named(name, args)?;
        self.drive(host)
    }

    /// The blocking driver: every host call is answered on the spot, so
    /// the machine never parks.
    fn drive(&mut self, host: &mut dyn Host) -> Result<Value, RuntimeError> {
        let mut answer = |call| Ok::<_, std::convert::Infallible>(host.call(call));
        match self.step_with(None, &mut answer) {
            Step::Done(result) => result,
            Step::Ask(never) => match never {},
        }
    }

    /// Puts the machine at the beginning of the program's top level. Fuel
    /// and memory already used stay used.
    pub fn start(&mut self) {
        self.core.depth = 0;
        self.reset(None, Env::new());
    }

    /// Puts the machine at the beginning of a call of the top-level
    /// function `name`; fails as the call expression would.
    pub fn start_named(&mut self, name: &str, args: Vec<Value>) -> Result<(), RuntimeError> {
        let span = Span::default();
        let program = Arc::clone(&self.core.program);
        let Some(f) = program.functions.iter().position(|f| f.name == name) else {
            return Err(undefined(name, span));
        };
        self.core.depth = 0;
        let env = self.core.enter(&program.functions[f], args, span)?;
        self.reset(Some(f), env);
        Ok(())
    }

    fn reset(&mut self, root: Option<usize>, env: Env) {
        self.root = root;
        self.frames = vec![Frame::Block { next: 0 }];
        self.values.clear();
        self.envs = vec![env];
    }

    /// Runs until the program needs its host or is over. `reply` answers
    /// the [`HostCall`] the previous step returned, and is `None` on the
    /// first step after [`Interpreter::start`].
    pub fn step(&mut self, reply: Option<HostResult<HostReply>>) -> Step {
        self.step_with(reply, &mut Err)
    }

    /// [`Interpreter::step`] for a driver that can answer some calls
    /// without letting go of the machine: `answer` gets every host call as
    /// it is made, and either replies (`Ok`; the program runs on) or says
    /// what the machine is to park on (`Err`; the step returns it).
    pub fn step_with<P>(
        &mut self,
        reply: Option<HostResult<HostReply>>,
        answer: &mut dyn FnMut(HostCall) -> Result<HostResult<HostReply>, P>,
    ) -> Step<P> {
        let program = Arc::clone(&self.core.program);
        let mut parked_on = None;
        let mut answer = |call| answer(call).map_err(|p| parked_on = Some(p)).ok();
        let step = match (self.run_frames(&program, reply, &mut answer), parked_on) {
            (Ok(None), Some(p)) => return Step::Ask(p),
            (Ok(done), _) => Step::Done(Ok(done.unwrap_or(Value::Nil))),
            (Err(e), _) => Step::Done(Err(e)),
        };
        // Over, one way or the other: nothing is left to resume.
        self.frames.clear();
        self.values.clear();
        self.envs.clear();
        self.core.depth = 0;
        step
    }

    /// The machine's loop. A node *begins* (its fuel burns; what needs no
    /// waiting for is done on the spot, anything else gets a record and
    /// its first child begins), and when a record's running child finishes
    /// the record *resumes*: it begins its next child, or acts on the
    /// operands gathered and finishes in turn. A statement finishes by
    /// setting `flow`, an expression by pushing its value. Returns the
    /// program's value, or `None` when `answer` declined a host call and
    /// the stack is parked on it.
    fn run_frames<'p>(
        &mut self,
        program: &'p Program,
        mut reply: Option<HostResult<HostReply>>,
        answer: &mut dyn FnMut(HostCall) -> Option<HostResult<HostReply>>,
    ) -> Result<Option<Value>, RuntimeError> {
        let Interpreter {
            core,
            root,
            frames,
            values,
            envs,
            callees,
        } = self;
        // The parked stack's nodes, root first.
        let mut nodes: Vec<Node<'p>> = Vec::with_capacity(frames.len() + 8);
        let mut node = Node::Block(match *root {
            None => &program.top,
            Some(f) => &program.functions[f].body,
        });
        for &frame in frames.iter() {
            nodes.push(node);
            if let Some(c) = child(program, node, frame) {
                node = c;
            }
        }
        // How the statement that finished last ended.
        let mut flow = Flow::Normal;
        // The node to begin, or `None` to resume the top record.
        let mut begin: Option<Node<'p>> = None;
        loop {
            // ---- begin a node -------------------------------------------------
            if let Some(node) = begin.take() {
                debug_assert!(
                    frames
                        .last()
                        .zip(nodes.last())
                        .is_none_or(|(&frame, &parent)| {
                            child(program, parent, frame).is_some_and(|c| c.is(node))
                        }),
                    "a record's state designates the child it begins"
                );
                match node {
                    Node::Block(stmts) => {
                        flow = Flow::Normal;
                        if let Some(first) = stmts.first() {
                            frames.push(Frame::Block { next: 1 });
                            nodes.push(node);
                            begin = Some(Node::Stmt(first));
                        }
                        continue;
                    }
                    Node::Stmt(s) => {
                        core.burn(s.span)?;
                        match &s.kind {
                            StmtKind::Break => flow = Flow::Break(s.span),
                            StmtKind::Continue => flow = Flow::Continue(s.span),
                            StmtKind::Return(None) => flow = Flow::Return(Value::Nil),
                            StmtKind::IndexAssign(..) => {}
                            StmtKind::Let(_, e)
                            | StmtKind::Assign(_, e)
                            | StmtKind::Expr(e)
                            | StmtKind::Return(Some(e))
                            | StmtKind::If(e, ..)
                            | StmtKind::For(_, e, _) => {
                                frames.push(Frame::Stmt { arm: 0 });
                                nodes.push(node);
                                begin = Some(Node::Expr(e));
                            }
                            StmtKind::While(cond, _) => {
                                // The first trip round the loop.
                                core.burn(s.span)?;
                                frames.push(Frame::Stmt { arm: 0 });
                                nodes.push(node);
                                begin = Some(Node::Expr(cond));
                            }
                        }
                        if !matches!(s.kind, StmtKind::IndexAssign(..)) {
                            continue;
                        }
                    }
                    Node::Expr(e) => {
                        if let Some(v) = leaf(core, current(envs), e)? {
                            values.push(v);
                            continue;
                        }
                        core.burn(e.span)?;
                    }
                }
                // A node with operands. It gets a record only if it has to
                // wait: for an operand that is not a leaf, for the host,
                // for a function's body.
                let mut next = 0;
                let waits_as = match gather(core, current(envs), values, node, &mut next)? {
                    Gathered::Begin(e) => {
                        begin = Some(Node::Expr(e));
                        Frame::Operands { next }
                    }
                    Gathered::Finished => continue,
                    Gathered::Ready => {
                        match act(core, envs, values, callees, program, node, next)? {
                            Acted::Finished => {
                                if let Node::Stmt(_) = node {
                                    flow = Flow::Normal;
                                }
                                continue;
                            }
                            Acted::Ask(call, span) => match answer(call) {
                                Some(reply) => {
                                    values.push(builtins::finish(core, reply, span)?);
                                    continue;
                                }
                                None => {
                                    frames.push(Frame::Host);
                                    nodes.push(node);
                                    return Ok(None);
                                }
                            },
                            Acted::Body(f) => {
                                begin = Some(Node::Block(&program.functions[f].body));
                                Frame::Body(f)
                            }
                        }
                    }
                };
                frames.push(waits_as);
                nodes.push(node);
                continue;
            }

            // ---- resume the top record: its running child has finished -------
            let (Some(top), Some(&node)) = (frames.last_mut(), nodes.last()) else {
                // The root block finished: that is the program's outcome.
                return flow.into_result().map(Some);
            };
            match (*top, node) {
                (Frame::Block { next }, Node::Block(stmts)) => {
                    if let (Flow::Normal, Some(s)) = (&flow, stmts.get(next)) {
                        *top = Frame::Block { next: next + 1 };
                        begin = Some(Node::Stmt(s));
                        continue;
                    }
                }
                (Frame::Stmt { arm }, Node::Stmt(s)) => match (&s.kind, arm) {
                    (StmtKind::Let(name, _), _) => {
                        let v = values.pop().expect("the initialiser's value");
                        current(envs).declare(name, v);
                        flow = Flow::Normal;
                    }
                    (StmtKind::Assign(name, _), _) => {
                        let v = values.pop().expect("the assigned value");
                        current(envs).set(name, v, s.span)?;
                        flow = Flow::Normal;
                    }
                    (StmtKind::Return(_), _) => {
                        flow = Flow::Return(values.pop().expect("the returned value"));
                    }
                    (StmtKind::Expr(_), _) => {
                        values.pop();
                        flow = Flow::Normal;
                    }
                    (StmtKind::If(_, then, els), 0) => {
                        let cond = values.pop().expect("the condition's value");
                        current(envs).push();
                        let (arm, block) = if cond.truthy() { (1, then) } else { (2, els) };
                        *top = Frame::Stmt { arm };
                        begin = Some(Node::Block(block));
                        continue;
                    }
                    // The branch taken finished; however it ended, so
                    // does the `if`.
                    (StmtKind::If(..), _) => current(envs).pop(),
                    (StmtKind::While(_, body), 0) => {
                        if values.pop().expect("the condition's value").truthy() {
                            current(envs).push();
                            *top = Frame::Stmt { arm: 1 };
                            begin = Some(Node::Block(body));
                            continue;
                        }
                        flow = Flow::Normal;
                    }
                    (StmtKind::While(cond, _), _) => {
                        current(envs).pop();
                        match flow {
                            Flow::Normal | Flow::Continue(_) => {
                                flow = Flow::Normal;
                                core.burn(s.span)?;
                                *top = Frame::Stmt { arm: 0 };
                                begin = Some(Node::Expr(cond));
                                continue;
                            }
                            Flow::Break(_) => flow = Flow::Normal,
                            Flow::Return(_) => {}
                        }
                    }
                    (StmtKind::For(var, _, body), arm) => {
                        if arm == 0 {
                            // Visited by popping: last item first.
                            let v = values.pop().expect("the iterable's value");
                            let mut items = Core::iterable(v, s.span)?;
                            items.reverse();
                            values.push(Value::List(items));
                            *top = Frame::Stmt { arm: 1 };
                        } else {
                            current(envs).pop();
                        }
                        let item = match (&flow, values.last_mut()) {
                            (Flow::Break(_) | Flow::Return(_), _) => None,
                            (_, Some(Value::List(items))) => items.pop(),
                            _ => None,
                        };
                        if let Some(item) = item {
                            flow = Flow::Normal;
                            core.burn(s.span)?;
                            let env = current(envs);
                            env.push();
                            env.declare(var, item);
                            begin = Some(Node::Block(body));
                            continue;
                        }
                        values.pop();
                        if !matches!(flow, Flow::Return(_)) {
                            flow = Flow::Normal;
                        }
                    }
                    _ => unreachable!("a statement record on a statement with children"),
                },
                (Frame::Operands { mut next }, node) => {
                    match gather(core, current(envs), values, node, &mut next)? {
                        Gathered::Begin(e) => {
                            *top = Frame::Operands { next };
                            begin = Some(Node::Expr(e));
                            continue;
                        }
                        Gathered::Finished => {}
                        Gathered::Ready => {
                            match act(core, envs, values, callees, program, node, next)? {
                                Acted::Finished => {
                                    if let Node::Stmt(_) = node {
                                        flow = Flow::Normal;
                                    }
                                }
                                Acted::Ask(call, span) => match answer(call) {
                                    Some(reply) => {
                                        values.push(builtins::finish(core, reply, span)?);
                                    }
                                    None => {
                                        *top = Frame::Host;
                                        return Ok(None);
                                    }
                                },
                                Acted::Body(f) => {
                                    *top = Frame::Body(f);
                                    begin = Some(Node::Block(&program.functions[f].body));
                                    continue;
                                }
                            }
                        }
                    }
                }
                (Frame::Host, Node::Expr(e)) => {
                    let reply = reply
                        .take()
                        .unwrap_or_else(|| Err("resumed without a reply".to_string()));
                    values.push(builtins::finish(core, reply, e.span)?);
                }
                (Frame::Body(_), _) => {
                    envs.pop();
                    core.leave();
                    let ended = std::mem::replace(&mut flow, Flow::Normal);
                    values.push(ended.into_result()?);
                }
                _ => unreachable!("a record sits on the kind of node that began it"),
            }
            // The top record is finished.
            frames.pop();
            nodes.pop();
        }
    }
}

/// How far [`gather`] got.
enum Gathered<'p> {
    /// This operand has to run first; the record resumes when it is done.
    Begin(&'p Expr),
    /// Every operand is on the value stack, the last one on top.
    Ready,
    /// A short-circuiting `&&` / `||` was decided by its left operand: its
    /// value is on the stack in the operand's place.
    Finished,
}

/// Gathers `node`'s operands from operand `*next` on, in order: one that
/// is a leaf is evaluated here and now, the first that is not has to
/// begin. The operand that finished last, if any, is on top of `values`.
#[inline(always)]
fn gather<'p>(
    core: &mut Core,
    env: &Env,
    values: &mut Vec<Value>,
    node: Node<'p>,
    next: &mut usize,
) -> Result<Gathered<'p>, RuntimeError> {
    let operands = Operands::of(node);
    loop {
        if let (1, Node::Expr(e), Some(left)) = (*next, node, values.last()) {
            // The left operand alone may decide a logical, and then the
            // right one never begins.
            if let ExprKind::Bin(op @ (BinOp::And | BinOp::Or), ..) = &e.kind {
                let left = left.truthy();
                if left == (*op == BinOp::Or) {
                    values.pop();
                    values.push(Value::Bool(left));
                    return Ok(Gathered::Finished);
                }
            }
        }
        let Some(e) = operands.get(*next) else {
            return Ok(Gathered::Ready);
        };
        *next += 1;
        match leaf(core, env, e)? {
            Some(v) => values.push(v),
            None => return Ok(Gathered::Begin(e)),
        }
    }
}

/// What [`act`] came to.
enum Acted {
    /// The node is finished: an expression's value is on the stack.
    Finished,
    /// A builtin's host call, made at this span; its value is
    /// `builtins::finish` of the reply.
    Ask(HostCall, Span),
    /// A call of `functions[i]`: its environment is pushed, its body has
    /// to run.
    Body(usize),
}

/// Acts on a node whose `n` operands are on the value stack.
fn act(
    core: &mut Core,
    envs: &mut Vec<Env>,
    values: &mut Vec<Value>,
    callees: &mut BTreeMap<usize, Callee>,
    program: &Program,
    node: Node<'_>,
    n: usize,
) -> Result<Acted, RuntimeError> {
    let mut pop = || values.pop().expect("an operand per child");
    match node {
        Node::Stmt(s) => {
            let StmtKind::IndexAssign(name, ..) = &s.kind else {
                unreachable!("operands on an index assignment")
            };
            let (v, i) = (pop(), pop());
            current(envs).set_index(name, i, v, s.span)?;
        }
        Node::Expr(e) => match &e.kind {
            ExprKind::Un(op, _) => {
                let v = Core::unop(*op, pop(), e.span)?;
                values.push(v);
            }
            ExprKind::Bin(op, ..) => {
                let (r, l) = (pop(), pop());
                values.push(match op {
                    BinOp::And | BinOp::Or => Value::Bool(r.truthy()),
                    _ => core.binop(*op, l, r, e.span)?,
                });
            }
            ExprKind::Index(..) => {
                let (i, base) = (pop(), pop());
                values.push(Core::index(base, i, e.span)?);
            }
            ExprKind::List(_) => {
                let items = values.split_off(values.len() - n);
                values.push(core.list(items, e.span)?);
            }
            ExprKind::Call(name, _) => {
                let args = values.split_off(values.len() - n);
                // The callee is resolved once per call site; an unknown
                // name fails here, when the call is made.
                let site = std::ptr::from_ref(e) as usize;
                let callee = *callees.entry(site).or_insert_with(|| {
                    if builtins::is_builtin(name) {
                        return Callee::Builtin;
                    }
                    let f = program.functions.iter().position(|f| f.name == *name);
                    f.map_or(Callee::Unknown, Callee::User)
                });
                match callee {
                    Callee::Builtin => match builtins::begin(core, name, args, e.span)? {
                        Begun::Done(v) => values.push(v),
                        Begun::Ask(call) => return Ok(Acted::Ask(call, e.span)),
                    },
                    Callee::User(f) => {
                        envs.push(core.enter(&program.functions[f], args, e.span)?);
                        return Ok(Acted::Body(f));
                    }
                    Callee::Unknown => return Err(undefined(name, e.span)),
                }
            }
            _ => unreachable!("operands on a node that has some"),
        },
        Node::Block(_) => unreachable!("operands on a block"),
    }
    Ok(Acted::Finished)
}

/// Evaluates `e` if it is a leaf — a literal or a variable, done the
/// moment it begins — and says `None`, having done nothing, if it is not.
#[inline(always)]
fn leaf(core: &mut Core, env: &Env, e: &Expr) -> Result<Option<Value>, RuntimeError> {
    // A literal's value costs nothing to make, so it is made before its
    // fuel burns; a variable is looked up, and a string charged, after.
    let v = match &e.kind {
        ExprKind::Int(v) => Value::Int(*v),
        ExprKind::Float(v) => Value::Float(*v),
        ExprKind::Bool(v) => Value::Bool(*v),
        ExprKind::Nil => Value::Nil,
        ExprKind::Str(s) => {
            core.burn(e.span)?;
            return core.string(s, e.span).map(Some);
        }
        ExprKind::Var(name) => {
            core.burn(e.span)?;
            return env.get(name, e.span).map(Some);
        }
        _ => return Ok(None),
    };
    core.burn(e.span)?;
    Ok(Some(v))
}

/// The environment of the innermost function activation.
#[inline(always)]
fn current(envs: &mut [Env]) -> &mut Env {
    envs.last_mut().expect("an environment per activation")
}

/// Parses and runs a LipScript program against an arbitrary host.
pub fn run_with_host(
    src: &str,
    host: &mut dyn Host,
    limits: InterpLimits,
) -> Result<Value, LipError> {
    let program = Arc::new(parse(src)?);
    let mut interp = Interpreter::new(program, limits);
    interp.run(host).map_err(LipError::from)
}

/// Parses and runs a LipScript program inside a hosted Symphony LIP
/// thread — the blocking way in, for a native closure that wants to run a
/// script (a durable program image, a test). A *served* program does not
/// come through here: the server hands the kernel a
/// [`crate::inline::LipBody`] and no thread blocks.
///
/// The whole execution is sandboxed by `limits`.
pub fn run_lip(
    src: &str,
    ctx: &mut symphony::Ctx,
    limits: InterpLimits,
) -> Result<Value, LipError> {
    run_with_host(src, ctx, limits)
}
