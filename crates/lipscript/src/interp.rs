//! The interpreter: a resumable machine with fuel, memory and depth
//! metering.
//!
//! [`Interpreter`] runs a program's [`Image`] on an explicit stack of
//! activation records instead of on the Rust stack, so it can stop wherever
//! the program needs its host: [`Interpreter::step`] runs until the next
//! [`HostCall`] (every host-calling builtin makes exactly one) or the
//! program's result, and the next `step` takes the reply. A program in
//! mid-flight is therefore a plain value — which is what lets the kernel
//! hold a served session as state and step it on its own thread
//! ([`crate::inline`]) instead of parking an OS thread per session.
//! [`Interpreter::run`] and [`Interpreter::call_named`] are the blocking
//! driver loop over the same machine for anything that implements
//! [`Host`].
//!
//! What one operation *means* — metering, arithmetic, indexing, call
//! binding — lives in `Core` and [`crate::builtins`] and is shared with the
//! recursive reference evaluator the tests compare the machine against
//! (`reference.rs`, `#[cfg(test)]`), which walks the parsed tree and keeps
//! its variables by name. The machine owns the order things happen in and
//! where variables live, and it burns fuel, charges memory and counts depth
//! at exactly the points, with exactly the spans, the tree-walk does.
//!
//! # What a running program is made of
//!
//! - The **image** ([`crate::image`]), shared and immutable: nodes by
//!   index, variables resolved to slots, call sites to callees.
//! - **Records** (`Frame`): one per block, statement, operator or call that
//!   has begun and waits for a child. A record holds the index of its node
//!   and how far it has got, nothing else; a parked program resumes from
//!   the top one.
//! - **Slots**: a `Vec<Value>`, one frame per function activation on top
//!   of its caller's. A `let` writes its slot, a read clones it — or, where
//!   the value is only looked at (an operand of an operator, an index
//!   expression, a builtin), borrows it.
//! - The **value stack**: operands of the records, those that are not
//!   plain variables.
//!
//! # Why the loop is shaped the way it is
//!
//! A node of a LipScript program is a few nanoseconds of work, so the
//! machinery around it is what one measures: a trip round the loop, a
//! record pushed and popped, a 48-byte `Value` or a `Result` with a fat
//! error handed back through memory. Hence: an expression that cannot wait
//! (`Entry::pure` — no host call, no function call beneath it, nesting
//! bounded) is evaluated in one go by `eval_pure`, recursively, and never
//! sees the loop; a statement whose expression is pure finishes in the turn
//! it begins in, with no record; errors travel boxed (`Fallible`), so
//! `burn`'s result is a register; two ints meet in an inlined fast path of
//! `Core::binop`; and the blocking driver answers host calls from inside
//! the loop (`step_with`) instead of parking for each. Only what can wait
//! — a host call, a function's body, and whatever contains one — goes
//! through records.
//!
//! `symphony-exp exp_lipscript` measures it (`MockHost`, shared image, min
//! of 7, ns per unit of fuel; medians of ten runs interleaved with the
//! machine this one replaced — string-keyed scopes, records re-derived
//! from the root on every resume — on the host this was written on):
//!
//! | program | before | now | parked on every call, before | now |
//! |---|---|---|---|---|
//! | arithmetic loop | 14.2 | 6.0 | 15.9 | 6.1 |
//! | `while` counter | 14.3 | 5.5 | 14.6 | 5.7 |
//! | tool-calling agent | 47.0 | 27.7 | 51.5 | 29.6 |
//!
//! Lowering the agent program costs 2.2 µs (parsing it 21, verifying it
//! 17). Parking on a host call and resuming costs about 20 ns more than
//! answering it in the loop; a hosted thread's hand-off, which parking
//! replaces for served programs, costs 4–5 µs.

use std::borrow::Cow;
use std::sync::Arc;

use crate::ast::{BinOp, Program, UnOp};
use crate::builtins::{self, Begun, MAX_ARITY};
use crate::error::{LipError, RuntimeError, RuntimeErrorKind, Span};
use crate::host::{Host, HostCall, HostReply, HostResult};
use crate::image::{Callee, Entry, Image, Node, Run, Target};
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
    pub(crate) fn into_result(self) -> Fallible<Value> {
        match self {
            Flow::Return(v) => Ok(v),
            Flow::Break(span) | Flow::Continue(span) => {
                Err(fail(RuntimeErrorKind::BadControlFlow, span))
            }
            Flow::Normal => Ok(Value::Nil),
        }
    }
}

/// What can fail while a program runs. The error is boxed on the way up:
/// it is the rare outcome, and unboxed it would make every `Result` of
/// the hot path — `burn`'s above all — too big for a register.
pub(crate) type Fallible<T> = Result<T, Box<RuntimeError>>;

#[cold]
pub(crate) fn fail(kind: RuntimeErrorKind, span: Span) -> Box<RuntimeError> {
    Box::new(RuntimeError::new(kind, span))
}

pub(crate) fn undefined(name: &str, span: Span) -> Box<RuntimeError> {
    fail(RuntimeErrorKind::Undefined(name.to_string()), span)
}

fn type_error(msg: String, span: Span) -> Box<RuntimeError> {
    fail(RuntimeErrorKind::Type(msg), span)
}

/// A program's limits and its meters, plus what every single operation
/// of the language means. An evaluator adds only the order the
/// operations happen in, and where it keeps its variables.
pub(crate) struct Core {
    pub(crate) limits: InterpLimits,
    fuel_used: u64,
    mem_used: u64,
    depth: u32,
}

impl Core {
    pub(crate) fn new(limits: InterpLimits) -> Self {
        Core {
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
    #[inline(always)]
    pub(crate) fn burn(&mut self, span: Span) -> Fallible<()> {
        self.fuel_used += 1;
        if self.fuel_used > self.limits.fuel {
            Err(fail(RuntimeErrorKind::OutOfFuel, span))
        } else {
            Ok(())
        }
    }

    /// Charges an allocation against the memory budget.
    pub(crate) fn charge(&mut self, cells: u64, span: Span) -> Fallible<()> {
        self.mem_used += cells;
        if self.mem_used > self.limits.memory_cells {
            Err(fail(RuntimeErrorKind::OutOfMemory, span))
        } else {
            Ok(())
        }
    }

    /// A string literal's value.
    pub(crate) fn string(&mut self, s: &str, span: Span) -> Fallible<Value> {
        self.charge(1 + s.len() as u64 / 8, span)?;
        Ok(Value::Str(s.to_string()))
    }

    /// A list literal's value, its items evaluated.
    pub(crate) fn list(&mut self, items: Vec<Value>, span: Span) -> Fallible<Value> {
        self.charge(1 + items.len() as u64, span)?;
        Ok(Value::List(items))
    }

    /// The items a `for` loop walks.
    pub(crate) fn iterable(v: Value, span: Span) -> Fallible<Vec<Value>> {
        match v {
            Value::List(items) => Ok(items),
            other => Err(type_error(
                format!("for-loop needs a list, got {}", other.type_name()),
                span,
            )),
        }
    }

    /// Enters a call of the function `name`, which takes `params`
    /// parameters, with `args` arguments: the arity check, then the depth
    /// check. The callee's variables — its parameters and nothing else —
    /// are the evaluator's to set up. Pair with [`Core::leave`].
    pub(crate) fn enter(
        &mut self,
        name: &str,
        params: usize,
        args: usize,
        span: Span,
    ) -> Fallible<()> {
        if params != args {
            return Err(fail(
                RuntimeErrorKind::BadArity(format!("{name} expects {params} args, got {args}")),
                span,
            ));
        }
        if self.depth >= self.limits.max_depth {
            return Err(fail(RuntimeErrorKind::DepthExceeded, span));
        }
        self.depth += 1;
        Ok(())
    }

    /// Leaves the call [`Core::enter`] entered.
    pub(crate) fn leave(&mut self) {
        self.depth -= 1;
    }

    pub(crate) fn unop(op: UnOp, v: &Value, span: Span) -> Fallible<Value> {
        match (op, v) {
            (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
            (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
            (UnOp::Not, v) => Ok(Value::Bool(!v.truthy())),
            (UnOp::Neg, v) => Err(type_error(format!("cannot negate {}", v.type_name()), span)),
        }
    }

    /// An index: `what` must be an int.
    fn int_index(i: &Value, what: &str, span: Span) -> Fallible<i64> {
        match i {
            Value::Int(i) => Ok(*i),
            other => Err(type_error(
                format!("{what} must be int, got {}", other.type_name()),
                span,
            )),
        }
    }

    /// Position `i` of something `len` long.
    fn in_bounds(i: i64, len: usize, span: Span) -> Fallible<usize> {
        if i < 0 || i as usize >= len {
            Err(fail(RuntimeErrorKind::IndexOutOfBounds(i, len), span))
        } else {
            Ok(i as usize)
        }
    }

    /// `base[i]` on a list or a string the evaluator only has a look at:
    /// the item is copied out.
    pub(crate) fn index(base: &Value, i: &Value, span: Span) -> Fallible<Value> {
        let i = Self::int_index(i, "index", span)?;
        match base {
            Value::List(items) => Ok(items[Self::in_bounds(i, items.len(), span)?].clone()),
            Value::Str(s) => {
                let byte = s.as_bytes()[Self::in_bounds(i, s.len(), span)?];
                Ok(Value::Str((byte as char).to_string()))
            }
            other => Err(type_error(
                format!("cannot index {}", other.type_name()),
                span,
            )),
        }
    }

    /// `base[i]` on a value nobody else holds: a list's item is moved out.
    pub(crate) fn index_owned(base: Value, i: &Value, span: Span) -> Fallible<Value> {
        match base {
            Value::List(mut items) => {
                let i = Self::int_index(i, "index", span)?;
                Ok(items.swap_remove(Self::in_bounds(i, items.len(), span)?))
            }
            other => Self::index(&other, i, span),
        }
    }

    /// The index of `name[i] = v`, checked before `name` is even looked up.
    pub(crate) fn list_index(i: &Value, span: Span) -> Fallible<i64> {
        Self::int_index(i, "list index", span)
    }

    /// `list[i] = v` on a declared variable's value.
    pub(crate) fn store_index(list: &mut Value, i: i64, v: Value, span: Span) -> Fallible<()> {
        match list {
            Value::List(items) => {
                let i = Self::in_bounds(i, items.len(), span)?;
                items[i] = v;
                Ok(())
            }
            other => Err(type_error(
                format!("cannot index-assign into {}", other.type_name()),
                span,
            )),
        }
    }

    /// Every binary operator but the short-circuiting `&&` and `||`, which
    /// are control flow and so the evaluator's. Two ints — the common case —
    /// are done here, small enough to inline; anything else in
    /// [`Core::binop_mixed`].
    #[inline]
    pub(crate) fn binop(&mut self, op: BinOp, l: &Value, r: &Value, span: Span) -> Fallible<Value> {
        let (&Value::Int(a), &Value::Int(b)) = (l, r) else {
            return self.binop_mixed(op, l, r, span);
        };
        Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(b)),
            BinOp::Div | BinOp::Mod if b == 0 => {
                return Err(fail(RuntimeErrorKind::DivisionByZero, span))
            }
            BinOp::Div => Value::Int(a.wrapping_div(b)),
            BinOp::Mod => Value::Int(a.wrapping_rem(b)),
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Lt => Value::Bool(a < b),
            BinOp::Le => Value::Bool(a <= b),
            BinOp::Gt => Value::Bool(a > b),
            BinOp::Ge => Value::Bool(a >= b),
            BinOp::And | BinOp::Or => unreachable!("short-circuited"),
        })
    }

    /// [`Core::binop`] on anything but two ints.
    fn binop_mixed(&mut self, op: BinOp, l: &Value, r: &Value, span: Span) -> Fallible<Value> {
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
        Ok(match (op, l, r) {
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
                let (a, b) = match (l, r) {
                    (Int(a), Float(b)) => (*a as f64, *b),
                    (Float(a), Int(b)) => (*a, *b as f64),
                    (Float(a), Float(b)) => (*a, *b),
                    _ => return Err(type_err(l, r)),
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
            (BinOp::Lt, Str(a), Str(b)) => Value::Bool(a < b),
            (BinOp::Le, Str(a), Str(b)) => Value::Bool(a <= b),
            (BinOp::Gt, Str(a), Str(b)) => Value::Bool(a > b),
            (BinOp::Ge, Str(a), Str(b)) => Value::Bool(a >= b),
            _ => return Err(type_err(l, r)),
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

/// One activation record: a node of the image that has begun and not
/// finished, and how far it has got. That is all a parked program's
/// control state is — indices, so a record is `Copy` and resuming starts
/// from the top record without looking at anything else. The operands a
/// record has gathered sit on the machine's value stack. Literals,
/// variables, `break`/`continue` and a bare `return` finish the moment they
/// begin and never get a record.
#[derive(Clone, Copy)]
enum Frame {
    /// A block: statement `next` is the next to begin, `end` is one past
    /// its last.
    Block { next: u32, end: u32 },
    /// A statement with one expression (`let`, assignment, `return e`,
    /// expression statement; `arm` 0) or with blocks: `if` runs its
    /// condition (0), then its then (1) or else (2) block; `while` its
    /// condition (0) and body (1); `for` its iterable (0) and body (1),
    /// with the items still to visit on the value stack, last first.
    Stmt { node: u32, arm: u8 },
    /// An operator, list literal, index expression, index assignment or
    /// call gathering its operands in order: `next` of them have begun.
    Operands { node: u32, next: u32 },
    /// A builtin call whose host call is out; the next step brings the
    /// reply.
    Host { node: u32 },
    /// A function call whose body is running in a frame of its own, on top
    /// of the caller's, which starts at slot `caller_base`.
    Body { caller_base: u32 },
}

/// The operands of a node that evaluates a fixed sequence of expressions
/// before it acts: the children of an operator or an index expression, the
/// items of a list literal, the arguments of a call, the index and value of
/// an index assignment. Any other node has none.
#[inline(always)]
fn operands(node: Node) -> Run {
    match node {
        Node::List(run) | Node::Call(_, run) => run,
        Node::Un(_, first) => Run { first, n: 1 },
        Node::Bin(_, first) | Node::Index(first) | Node::IndexAssign(_, first) => {
            Run { first, n: 2 }
        }
        _ => Run { first: 0, n: 0 },
    }
}

/// The interpreter state for one program execution.
pub struct Interpreter {
    image: Arc<Image>,
    core: Core,
    frames: Vec<Frame>,
    /// Operands of the records in `frames`, oldest first — those that are
    /// not plain variables: a variable operand stays in its slot until the
    /// node acts (see [`gather`]).
    values: Vec<Value>,
    /// The variables of every function activation in progress, one frame
    /// on top of the other; which slot a name means was settled when the
    /// program was lowered.
    slots: Vec<Value>,
    /// Where the innermost activation's frame starts in `slots`.
    base: usize,
}

impl Interpreter {
    /// Creates an interpreter over a parsed program (lowering it: to run
    /// one program many times, lower it once and use
    /// [`Interpreter::from_image`]).
    pub fn new(program: Arc<Program>, limits: InterpLimits) -> Self {
        Self::from_image(Image::shared(&program), limits)
    }

    /// Creates an interpreter over a lowered program, which it shares.
    pub fn from_image(image: Arc<Image>, limits: InterpLimits) -> Self {
        Interpreter {
            image,
            core: Core::new(limits),
            frames: Vec::new(),
            values: Vec::new(),
            slots: Vec::new(),
            base: 0,
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
        let (top, slots) = (self.image.top, self.image.top_slots);
        self.reset(top, Vec::new(), slots);
    }

    /// Puts the machine at the beginning of a call of the top-level
    /// function `name`; fails as the call expression would.
    pub fn start_named(&mut self, name: &str, args: Vec<Value>) -> Result<(), RuntimeError> {
        let span = Span::default();
        let image = Arc::clone(&self.image);
        let Some(f) = image.function(name) else {
            return Err(*undefined(name, span));
        };
        let func = &image.functions[f];
        self.core.depth = 0;
        self.core
            .enter(&func.name, func.params as usize, args.len(), span)
            .map_err(|e| *e)?;
        self.reset(func.body, args, func.slots);
        Ok(())
    }

    /// The root activation: its block to run, and its frame — the
    /// arguments, then room for the rest of its `slots` variables.
    fn reset(&mut self, body: Run, mut frame: Vec<Value>, slots: u32) {
        self.frames.clear();
        self.frames.push(Frame::Block {
            next: body.first,
            end: body.first + body.n,
        });
        self.values.clear();
        frame.resize(slots as usize, Value::Nil);
        self.slots = frame;
        self.base = 0;
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
        let mut parked_on = None;
        let mut answer = |call| answer(call).map_err(|p| parked_on = Some(p)).ok();
        let step = match (self.run_frames(reply, &mut answer), parked_on) {
            (Ok(None), Some(p)) => return Step::Ask(p),
            (Ok(done), _) => Step::Done(Ok(done.unwrap_or(Value::Nil))),
            (Err(e), _) => Step::Done(Err(*e)),
        };
        // Over, one way or the other: nothing is left to resume.
        self.frames.clear();
        self.values.clear();
        self.slots.clear();
        self.base = 0;
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
    fn run_frames(
        &mut self,
        mut reply: Option<HostResult<HostReply>>,
        answer: &mut dyn FnMut(HostCall) -> Option<HostResult<HostReply>>,
    ) -> Fallible<Option<Value>> {
        let Interpreter {
            image,
            core,
            frames,
            values,
            slots,
            base,
        } = self;
        let image: &Arc<Image> = image;
        let nodes = &image.nodes[..];
        // How the statement that finished last ended.
        let mut flow = Flow::Normal;
        // The node to begin, or `None` to resume the top record.
        let mut begin: Option<u32> = None;
        // A node's record, once it turns out to need one, replaces the
        // record it has (`recorded`) or goes on top.
        let wait_as =
            |frames: &mut Vec<Frame>, recorded: bool, frame: Frame| match frames.last_mut() {
                Some(top) if recorded => *top = frame,
                _ => frames.push(frame),
            };
        // Begins a block: its first statement, under a record for the rest.
        macro_rules! begin_block {
            ($run:expr) => {{
                let run: Run = $run;
                flow = Flow::Normal;
                if run.n > 0 {
                    frames.push(Frame::Block {
                        next: run.first + 1,
                        end: run.first + run.n,
                    });
                    begin = Some(run.first);
                }
            }};
        }
        'turn: loop {
            // Whichever half runs — a node begins, or the top record
            // resumes — it ends in one of three ways: it is done with this
            // turn of the loop (`continue 'turn`); a *statement* has the
            // value of its expression and carries on with it (`'carry`); or
            // a node *with operands* has some left to gather (`'operands`).
            let (stmt, v, recorded) = 'carry: {
                // Begins the expression of a statement: a pure one is
                // evaluated here and now, any other has to run under a
                // record of the statement's.
                macro_rules! begin_expr {
                    ($stmt:expr, $recorded:expr, $e:expr) => {{
                        let (stmt, recorded, e): (u32, bool, u32) = ($stmt, $recorded, $e);
                        if nodes[e as usize].pure {
                            let v = eval_pure(core, image, &slots[*base..], e)?;
                            break 'carry (stmt, v, recorded);
                        }
                        wait_as(frames, recorded, Frame::Stmt { node: stmt, arm: 0 });
                        begin = Some(e);
                        continue 'turn;
                    }};
                }
                // `next` of the node's operands have begun, and `recorded`
                // says whether it has a record on top of the stack yet. It
                // gets one only if it has to wait — for an operand that is
                // not pure, for the host, for a function's body.
                let (id, mut next, recorded) = 'operands: {
                    let Some(id) = begin.take() else {
                        // ---- resume the top record: its running child has finished ---
                        let Some(top) = frames.last_mut() else {
                            // The root block finished: that is the program's outcome.
                            return flow.into_result().map(Some);
                        };
                        match *top {
                            Frame::Operands { node, next } => break 'operands (node, next, true),
                            Frame::Block { next, end } => {
                                if let (Flow::Normal, true) = (&flow, next < end) {
                                    *top = Frame::Block {
                                        next: next + 1,
                                        end,
                                    };
                                    begin = Some(next);
                                } else {
                                    frames.pop();
                                }
                            }
                            // The statement's expression finished.
                            Frame::Stmt { node, arm: 0 } => {
                                let v = values.pop().expect("the expression's value");
                                break 'carry (node, v, true);
                            }
                            // A block of the statement's finished.
                            Frame::Stmt { node: id, .. } => {
                                let Entry { node, span, .. } = nodes[id as usize];
                                match node {
                                    // The branch taken finished; however it
                                    // ended, so does the `if`.
                                    Node::If(..) => {}
                                    Node::While(cond, _) => match flow {
                                        Flow::Normal | Flow::Continue(_) => {
                                            flow = Flow::Normal;
                                            core.burn(span)?;
                                            begin_expr!(id, true, cond);
                                        }
                                        Flow::Break(_) => flow = Flow::Normal,
                                        Flow::Return(_) => {}
                                    },
                                    Node::For(slot, _, body) => {
                                        let item = match (&flow, values.last_mut()) {
                                            (Flow::Break(_) | Flow::Return(_), _) => None,
                                            (_, Some(Value::List(items))) => items.pop(),
                                            _ => None,
                                        };
                                        if let Some(item) = item {
                                            core.burn(span)?;
                                            slots[*base + slot as usize] = item;
                                            begin_block!(body);
                                            continue 'turn;
                                        }
                                        values.pop();
                                        if !matches!(flow, Flow::Return(_)) {
                                            flow = Flow::Normal;
                                        }
                                    }
                                    _ => unreachable!("a block under a statement that has one"),
                                }
                                frames.pop();
                            }
                            Frame::Host { node } => {
                                let reply = reply
                                    .take()
                                    .unwrap_or_else(|| Err("resumed without a reply".to_string()));
                                let span = nodes[node as usize].span;
                                values.push(builtins::finish(core, reply, span)?);
                                frames.pop();
                            }
                            Frame::Body { caller_base } => {
                                slots.truncate(*base);
                                *base = caller_base as usize;
                                core.leave();
                                let ended = std::mem::replace(&mut flow, Flow::Normal);
                                values.push(ended.into_result()?);
                                frames.pop();
                            }
                        }
                        continue 'turn;
                    };
                    // ---- begin a node ----------------------------------------------------
                    let Entry { node, span, pure } = nodes[id as usize];
                    if pure {
                        values.push(eval_pure(core, image, &slots[*base..], id)?);
                        continue 'turn;
                    }
                    core.burn(span)?;
                    match node {
                        Node::List(_)
                        | Node::Un(..)
                        | Node::Bin(..)
                        | Node::Index(_)
                        | Node::Call(..)
                        | Node::IndexAssign(..) => (id, 0, false),
                        Node::Break => {
                            flow = Flow::Break(span);
                            continue 'turn;
                        }
                        Node::Continue => {
                            flow = Flow::Continue(span);
                            continue 'turn;
                        }
                        Node::Return(None) => {
                            flow = Flow::Return(Value::Nil);
                            continue 'turn;
                        }
                        Node::Let(_, e)
                        | Node::Assign(_, e)
                        | Node::Expr(e)
                        | Node::Return(Some(e))
                        | Node::If(e, ..)
                        | Node::For(_, e, _) => begin_expr!(id, false, e),
                        Node::While(cond, _) => {
                            // The first trip round the loop.
                            core.burn(span)?;
                            begin_expr!(id, false, cond)
                        }
                        Node::Int(_)
                        | Node::Float(_)
                        | Node::Bool(_)
                        | Node::Nil
                        | Node::Str(_)
                        | Node::Var(_)
                        | Node::Undefined(_) => unreachable!("a leaf is pure"),
                    }
                };

                // ---- a node with operands: gather them, then act -------------------
                let Entry { node, span, .. } = nodes[id as usize];
                match gather(core, image, &slots[*base..], values, node, &mut next)? {
                    Gathered::Begin(operand) => {
                        wait_as(frames, recorded, Frame::Operands { node: id, next });
                        begin = Some(operand);
                        continue 'turn;
                    }
                    Gathered::Finished => {}
                    Gathered::Ready => match act(core, image, values, slots, *base, node, span)? {
                        Acted::Finished => {
                            if let Node::IndexAssign(..) = node {
                                flow = Flow::Normal;
                            }
                        }
                        Acted::Ask(call) => match answer(call) {
                            Some(reply) => values.push(builtins::finish(core, reply, span)?),
                            None => {
                                wait_as(frames, recorded, Frame::Host { node: id });
                                return Ok(None);
                            }
                        },
                        Acted::Body(f, callee_base) => {
                            let caller_base = *base as u32;
                            wait_as(frames, recorded, Frame::Body { caller_base });
                            *base = callee_base;
                            begin_block!(image.functions[f].body);
                            continue 'turn;
                        }
                    },
                }
                if recorded {
                    frames.pop();
                }
                continue 'turn;
            };

            // ---- a statement carries on with its expression's value `v` -----------
            let Entry { node, span, .. } = nodes[stmt as usize];
            match node {
                Node::Let(slot, _) => {
                    slots[*base + slot as usize] = v;
                    flow = Flow::Normal;
                }
                Node::Assign(target, _) => {
                    match target {
                        Target::Slot(slot) => slots[*base + slot as usize] = v,
                        Target::Undefined(name) => {
                            return Err(undefined(&image.strings[name as usize], span))
                        }
                    }
                    flow = Flow::Normal;
                }
                Node::Return(_) => flow = Flow::Return(v),
                Node::Expr(_) => flow = Flow::Normal,
                Node::If(_, then, els) => {
                    let (arm, block) = if v.truthy() { (1, then) } else { (2, els) };
                    wait_as(frames, recorded, Frame::Stmt { node: stmt, arm });
                    begin_block!(block);
                    continue 'turn;
                }
                Node::While(_, body) => {
                    if v.truthy() {
                        wait_as(frames, recorded, Frame::Stmt { node: stmt, arm: 1 });
                        begin_block!(body);
                        continue 'turn;
                    }
                    flow = Flow::Normal;
                }
                Node::For(..) => {
                    // Visited by popping: last item first.
                    let mut items = Core::iterable(v, span)?;
                    items.reverse();
                    values.push(Value::List(items));
                    // As if a body had just finished: on to the first item,
                    // if there is one.
                    wait_as(frames, recorded, Frame::Stmt { node: stmt, arm: 1 });
                    continue 'turn;
                }
                _ => unreachable!("a value for a statement that has an expression"),
            }
            if recorded {
                frames.pop();
            }
        }
    }
}

/// Evaluates a pure expression (`Entry::pure`) in one go, recursively: the
/// tree-walk, over the arena. Fuel burns, memory is charged and errors
/// arise node by node in the order the machine's records would have it.
fn eval_pure(core: &mut Core, image: &Arc<Image>, frame: &[Value], id: u32) -> Fallible<Value> {
    let Entry { node, span, .. } = image.nodes[id as usize];
    core.burn(span)?;
    // An operand: a variable is looked at where it lives, not copied.
    macro_rules! operand {
        ($id:expr) => {{
            let id: u32 = $id;
            let Entry { node, span, .. } = image.nodes[id as usize];
            let operand: Cow<'_, Value> = match node {
                Node::Var(slot) => {
                    core.burn(span)?;
                    Cow::Borrowed(&frame[slot as usize])
                }
                // The commonest literal, spared the call.
                Node::Int(v) => {
                    core.burn(span)?;
                    Cow::Owned(Value::Int(v))
                }
                _ => Cow::Owned(eval_pure(core, image, frame, id)?),
            };
            operand
        }};
    }
    match node {
        Node::Int(v) => Ok(Value::Int(v)),
        Node::Float(v) => Ok(Value::Float(v)),
        Node::Bool(v) => Ok(Value::Bool(v)),
        Node::Nil => Ok(Value::Nil),
        Node::Str(s) => core.string(&image.strings[s as usize], span),
        Node::Var(slot) => Ok(frame[slot as usize].clone()),
        Node::Undefined(name) => Err(undefined(&image.strings[name as usize], span)),
        Node::Un(op, a) => {
            let v = operand!(a);
            Core::unop(op, &v, span)
        }
        Node::Bin(op @ (BinOp::And | BinOp::Or), first) => {
            // The left operand alone may decide a logical, and then the
            // right one is never evaluated.
            let left = operand!(first).truthy();
            if left == (op == BinOp::Or) {
                return Ok(Value::Bool(left));
            }
            Ok(Value::Bool(operand!(first + 1).truthy()))
        }
        Node::Bin(op, first) => {
            let (l, r) = (operand!(first), operand!(first + 1));
            core.binop(op, &l, &r, span)
        }
        Node::Index(first) => {
            let (list, i) = (operand!(first), operand!(first + 1));
            match list {
                Cow::Borrowed(list) => Core::index(list, &i, span),
                // A list made for the occasion gives its item away.
                Cow::Owned(list) => Core::index_owned(list, &i, span),
            }
        }
        Node::List(run) => {
            let mut items = Vec::with_capacity(run.n as usize);
            for id in run.first..run.first + run.n {
                items.push(operand!(id).into_owned());
            }
            core.list(items, span)
        }
        Node::Call(Callee::Builtin(builtin), run) => {
            let mut args: [Cow<'_, Value>; MAX_ARITY] = [const { Cow::Borrowed(&NIL) }; MAX_ARITY];
            for (k, id) in (run.first..run.first + run.n).enumerate() {
                // Arguments beyond any builtin's arity are evaluated all
                // the same, before the call fails for having them.
                let arg = operand!(id);
                if let Some(place) = args.get_mut(k) {
                    *place = arg;
                }
            }
            builtins::check_arity(builtin, run.n as usize, span)?;
            let args: [&Value; MAX_ARITY] = [&args[0], &args[1], &args[2]];
            match builtins::begin(core, image, builtin, &args[..run.n as usize], span)? {
                Begun::Done(v) => Ok(v),
                Begun::Ask(_) => unreachable!("a pure builtin asks nobody"),
            }
        }
        _ => unreachable!("not a pure expression"),
    }
}

/// How far [`gather`] got.
enum Gathered {
    /// This operand has to run first; the record resumes when it is done.
    Begin(u32),
    /// Every operand has been evaluated.
    Ready,
    /// A short-circuiting `&&` / `||` was decided by its left operand: its
    /// value is on the stack.
    Finished,
}

/// Gathers `node`'s operands from operand `*next` on, in order: one that
/// is pure is evaluated here and now, the first that is not has to begin.
/// An operand's value is pushed on `values` — unless it is a plain
/// *variable*: that one's fuel burns here, in its turn, but it is read
/// from its slot when the node acts. Nothing can write the slot in
/// between: only a statement of this activation could, and none runs while
/// one of its expressions is half evaluated. That is what lets
/// `pred(kv, toks, pos)` look at a list where it lives instead of copying
/// it first.
#[inline(always)]
fn gather(
    core: &mut Core,
    image: &Arc<Image>,
    frame: &[Value],
    values: &mut Vec<Value>,
    node: Node,
    next: &mut u32,
) -> Fallible<Gathered> {
    let run = operands(node);
    loop {
        if let (1, Node::Bin(op @ (BinOp::And | BinOp::Or), first)) = (*next, node) {
            // The left operand alone may decide a logical, and then the
            // right one never begins.
            let in_slot = match image.nodes[first as usize].node {
                Node::Var(slot) => Some(&frame[slot as usize]),
                _ => None,
            };
            let left = in_slot
                .or(values.last())
                .expect("the left operand's value")
                .truthy();
            if left == (op == BinOp::Or) {
                if in_slot.is_none() {
                    values.pop();
                }
                values.push(Value::Bool(left));
                return Ok(Gathered::Finished);
            }
        }
        if *next >= run.n {
            return Ok(Gathered::Ready);
        }
        let id = run.first + *next;
        *next += 1;
        match image.nodes[id as usize] {
            Entry {
                node: Node::Var(_),
                span,
                ..
            } => core.burn(span)?,
            Entry { pure: true, .. } => values.push(eval_pure(core, image, frame, id)?),
            _ => return Ok(Gathered::Begin(id)),
        }
    }
}

/// The value of operand `id` of a node that is acting: a variable's is in
/// its slot, any other's is on the stack at `*at`, which moves on to where
/// the next such operand's is.
#[inline(always)]
fn operand<'a>(
    image: &Arc<Image>,
    frame: &'a [Value],
    values: &'a [Value],
    id: u32,
    at: &mut usize,
) -> &'a Value {
    match image.nodes[id as usize].node {
        Node::Var(slot) => &frame[slot as usize],
        _ => {
            *at += 1;
            &values[*at - 1]
        }
    }
}

/// What [`act`] came to.
enum Acted {
    /// The node is finished: an expression's value is on the stack.
    Finished,
    /// A builtin's host call; its value is `builtins::finish` of the reply.
    Ask(HostCall),
    /// A call of `functions[i]`: its frame is set up from the slot given,
    /// its body has to run.
    Body(usize, usize),
}

static NIL: Value = Value::Nil;

/// Acts on a node all of whose operands are evaluated: the variables among
/// them in their slots, the values of the others on top of the stack, in
/// order. Those are consumed; an expression's value takes their place.
fn act(
    core: &mut Core,
    image: &Arc<Image>,
    values: &mut Vec<Value>,
    slots: &mut Vec<Value>,
    base: usize,
    node: Node,
    span: Span,
) -> Fallible<Acted> {
    let nodes = &image.nodes[..];
    let is_var = |id: u32| matches!(nodes[id as usize].node, Node::Var(_));
    let run = operands(node);
    let ids = run.first..run.first + run.n;
    // Where the operands on the stack start.
    let top = values.len() - ids.clone().filter(|&id| !is_var(id)).count();
    let mut at = top;
    let frame = &slots[base..];
    let value = match node {
        Node::Un(op, a) => Core::unop(op, operand(image, frame, values, a, &mut at), span)?,
        Node::Bin(op, first) => {
            let l = operand(image, frame, values, first, &mut at);
            let r = operand(image, frame, values, first + 1, &mut at);
            match op {
                BinOp::And | BinOp::Or => Value::Bool(r.truthy()),
                _ => core.binop(op, l, r, span)?,
            }
        }
        Node::Index(first) if is_var(first) => {
            let list = operand(image, frame, values, first, &mut at);
            Core::index(
                list,
                operand(image, frame, values, first + 1, &mut at),
                span,
            )?
        }
        Node::Index(first) => {
            // A list made for the occasion gives its item away.
            let list = std::mem::replace(&mut values[top], Value::Nil);
            at += 1;
            Core::index_owned(
                list,
                operand(image, frame, values, first + 1, &mut at),
                span,
            )?
        }
        Node::List(_) => {
            let mut made = values.drain(top..);
            let items = ids
                .map(|id| match nodes[id as usize].node {
                    Node::Var(slot) => frame[slot as usize].clone(),
                    _ => made.next().expect("an operand per item"),
                })
                .collect();
            drop(made);
            core.list(items, span)?
        }
        Node::IndexAssign(target, first) => {
            let i = Core::list_index(operand(image, frame, values, first, &mut at), span)?;
            let v = match nodes[first as usize + 1].node {
                Node::Var(slot) => frame[slot as usize].clone(),
                _ => values.pop().expect("the assigned value"),
            };
            values.truncate(top);
            let list = match target {
                Target::Slot(slot) => &mut slots[base + slot as usize],
                Target::Undefined(name) => {
                    return Err(undefined(&image.strings[name as usize], span))
                }
            };
            Core::store_index(list, i, v, span)?;
            return Ok(Acted::Finished);
        }
        Node::Call(Callee::Builtin(builtin), _) => {
            builtins::check_arity(builtin, run.n as usize, span)?;
            let mut args = [&NIL; MAX_ARITY];
            for (arg, id) in args.iter_mut().zip(ids) {
                *arg = operand(image, frame, values, id, &mut at);
            }
            let begun = builtins::begin(core, image, builtin, &args[..run.n as usize], span)?;
            values.truncate(top);
            match begun {
                Begun::Done(v) => v,
                Begun::Ask(call) => return Ok(Acted::Ask(call)),
            }
        }
        Node::Call(Callee::User(f), _) => {
            let func = &image.functions[f as usize];
            core.enter(&func.name, func.params as usize, run.n as usize, span)?;
            // The callee's frame goes on top of the caller's: the
            // arguments, then room for its other variables.
            let callee_base = slots.len();
            let mut made = values.drain(top..);
            for id in ids {
                let arg = match nodes[id as usize].node {
                    Node::Var(slot) => slots[base + slot as usize].clone(),
                    _ => made.next().expect("an operand per argument"),
                };
                slots.push(arg);
            }
            drop(made);
            slots.resize(callee_base + func.slots as usize, Value::Nil);
            return Ok(Acted::Body(f as usize, callee_base));
        }
        // An unknown name fails here, when the call is made.
        Node::Call(Callee::Unknown(name), _) => {
            return Err(undefined(&image.strings[name as usize], span))
        }
        _ => unreachable!("operands on a node that has some"),
    };
    values.truncate(top);
    values.push(value);
    Ok(Acted::Finished)
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
