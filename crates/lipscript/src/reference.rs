//! The recursive tree-walking evaluator the machine replaced, kept as the
//! reference the machine is tested against (as `Bpe::train_reference` is
//! for the tokenizer's trainer).
//!
//! It shares with [`crate::interp::Interpreter`] what a single operation
//! means — [`Core`], the builtins — and differs in the two things the
//! machine changed. The order of evaluation lives in Rust's call stack
//! here, so this evaluator cannot stop at a host call, and has no
//! activation records to get wrong. And it walks the parsed tree and keeps
//! its variables by *name*, in the [`Env`] below — a stack of scopes pushed
//! and popped as blocks are entered and left, searched innermost first —
//! which is the specification of scoping: the machine runs an
//! [`Image`](crate::image::Image) whose every variable was resolved to a
//! slot ahead of time, and has to come out the same. The differential suite
//! below runs the machine where programs run, inline on a test kernel
//! (`tests/harness`), and this evaluator against that run's transcript: it
//! must make the machine's host calls in the same order, gets the
//! machine's replies, and must come to the same result or error (kind
//! *and* span) with the same fuel and memory used. So does the machine
//! under its blocking driver.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ast::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind};
use crate::builtins::{self, Begun, Builtin};
use crate::error::Span;
use crate::host::Host;
use crate::image::Image;
use crate::interp::{undefined, Core, Fallible, Flow, InterpLimits};
use crate::value::Value;

/// The random-program generator `tests/prop_verify.rs` uses, and the
/// harness that runs a program on a test kernel, included by path: an
/// integration test cannot reach this `#[cfg(test)]` module, so the
/// differential suite lives here and borrows them instead.
#[path = "../tests/arb/mod.rs"]
mod arb;
#[path = "../tests/harness/mod.rs"]
mod harness;

/// Lexical environment: a stack of scopes.
struct Env {
    scopes: Vec<BTreeMap<String, Value>>,
}

impl Env {
    fn new() -> Self {
        Env {
            scopes: vec![BTreeMap::new()],
        }
    }

    fn push(&mut self) {
        self.scopes.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, v: Value) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), v);
    }

    /// Reads a variable; unknown names fail at `span`.
    fn get(&self, name: &str, span: Span) -> Fallible<Value> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .cloned()
            .ok_or_else(|| undefined(name, span))
    }

    /// Overwrites a declared variable; unknown names fail at `span`.
    fn set(&mut self, name: &str, v: Value, span: Span) -> Fallible<()> {
        *self.slot(name, span)? = v;
        Ok(())
    }

    fn slot(&mut self, name: &str, span: Span) -> Fallible<&mut Value> {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(name))
            .ok_or_else(|| undefined(name, span))
    }

    /// `name[i] = v` on a declared list.
    fn set_index(&mut self, name: &str, i: Value, v: Value, span: Span) -> Fallible<()> {
        let i = Core::list_index(&i, span)?;
        Core::store_index(self.slot(name, span)?, i, v, span)
    }
}

/// The tree-walker.
pub(crate) struct Reference {
    program: Arc<Program>,
    /// What `spawn` hands a new thread; this evaluator itself never looks
    /// inside it.
    image: Arc<Image>,
    core: Core,
}

impl Reference {
    pub(crate) fn new(program: Arc<Program>, limits: InterpLimits) -> Self {
        Reference {
            image: Image::shared(&program),
            core: Core::new(limits),
            program,
        }
    }

    pub(crate) fn fuel_used(&self) -> u64 {
        self.core.fuel_used()
    }

    pub(crate) fn mem_used(&self) -> u64 {
        self.core.mem_used()
    }

    /// Runs the program's top-level statements.
    pub(crate) fn run(&mut self, host: &mut dyn Host) -> Fallible<Value> {
        let program = Arc::clone(&self.program);
        let mut env = Env::new();
        self.exec_block(&program.top, &mut env, host)?.into_result()
    }

    /// Calls a named top-level function with arguments.
    pub(crate) fn call_named(
        &mut self,
        host: &mut dyn Host,
        name: &str,
        args: Vec<Value>,
    ) -> Fallible<Value> {
        self.call_function(name, args, Span::default(), host)
    }

    fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        span: Span,
        host: &mut dyn Host,
    ) -> Fallible<Value> {
        let program = Arc::clone(&self.program);
        let Some(def) = program.function(name) else {
            return Err(undefined(name, span));
        };
        self.core
            .enter(&def.name, def.params.len(), args.len(), span)?;
        // A function sees its parameters and nothing else.
        let mut env = Env::new();
        for (p, a) in def.params.iter().zip(args) {
            env.declare(p, a);
        }
        let result = self.exec_block(&def.body, &mut env, host);
        self.core.leave();
        result?.into_result()
    }

    fn exec_block(&mut self, stmts: &[Stmt], env: &mut Env, host: &mut dyn Host) -> Fallible<Flow> {
        for s in stmts {
            match self.exec_stmt(s, env, host)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut Env, host: &mut dyn Host) -> Fallible<Flow> {
        self.core.burn(stmt.span)?;
        match &stmt.kind {
            StmtKind::Let(name, e) => {
                let v = self.eval(e, env, host)?;
                env.declare(name, v);
                Ok(Flow::Normal)
            }
            StmtKind::Assign(name, e) => {
                let v = self.eval(e, env, host)?;
                env.set(name, v, stmt.span)?;
                Ok(Flow::Normal)
            }
            StmtKind::IndexAssign(name, idx, e) => {
                let i = self.eval(idx, env, host)?;
                let v = self.eval(e, env, host)?;
                env.set_index(name, i, v, stmt.span)?;
                Ok(Flow::Normal)
            }
            StmtKind::If(cond, then, els) => {
                let c = self.eval(cond, env, host)?;
                env.push();
                let flow = if c.truthy() {
                    self.exec_block(then, env, host)
                } else {
                    self.exec_block(els, env, host)
                };
                env.pop();
                flow
            }
            StmtKind::While(cond, body) => {
                loop {
                    self.core.burn(stmt.span)?;
                    if !self.eval(cond, env, host)?.truthy() {
                        break;
                    }
                    env.push();
                    let flow = self.exec_block(body, env, host);
                    env.pop();
                    match flow? {
                        Flow::Normal | Flow::Continue(_) => {}
                        Flow::Break(_) => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(var, iter, body) => {
                let items = Core::iterable(self.eval(iter, env, host)?, stmt.span)?;
                for item in items {
                    self.core.burn(stmt.span)?;
                    env.push();
                    env.declare(var, item);
                    let flow = self.exec_block(body, env, host);
                    env.pop();
                    match flow? {
                        Flow::Normal | Flow::Continue(_) => {}
                        Flow::Break(_) => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break(stmt.span)),
            StmtKind::Continue => Ok(Flow::Continue(stmt.span)),
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env, host)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Expr(e) => {
                self.eval(e, env, host)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn eval(&mut self, expr: &Expr, env: &mut Env, host: &mut dyn Host) -> Fallible<Value> {
        self.eval_caught(expr, false, env, host)
    }

    /// [`Reference::eval`]; a builtin's host error is the value of a call
    /// that is `caught`, the operand of a `try`.
    fn eval_caught(
        &mut self,
        expr: &Expr,
        caught: bool,
        env: &mut Env,
        host: &mut dyn Host,
    ) -> Fallible<Value> {
        // A `try` is the call it wraps: it burns nothing of its own.
        if let ExprKind::Try(call) = &expr.kind {
            return self.eval_caught(call, true, env, host);
        }
        self.core.burn(expr.span)?;
        match &expr.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::Float(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::Nil => Ok(Value::Nil),
            ExprKind::Str(s) => self.core.string(s, expr.span),
            ExprKind::Var(name) => env.get(name, expr.span),
            ExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e, env, host)?);
                }
                self.core.list(out, expr.span)
            }
            ExprKind::Un(op, e) => {
                let v = self.eval(e, env, host)?;
                Core::unop(*op, &v, expr.span)
            }
            ExprKind::Bin(op @ (BinOp::And | BinOp::Or), l, r) => {
                // Short-circuit logicals.
                let lv = self.eval(l, env, host)?.truthy();
                if lv == (*op == BinOp::Or) {
                    return Ok(Value::Bool(lv));
                }
                Ok(Value::Bool(self.eval(r, env, host)?.truthy()))
            }
            ExprKind::Bin(op, l, r) => {
                let lv = self.eval(l, env, host)?;
                let rv = self.eval(r, env, host)?;
                self.core.binop(*op, &lv, &rv, expr.span)
            }
            ExprKind::Index(e, idx) => {
                let base = self.eval(e, env, host)?;
                let i = self.eval(idx, env, host)?;
                Core::index_owned(base, &i, expr.span)
            }
            ExprKind::Try(_) => unreachable!("a `try` is the call it wraps"),
            ExprKind::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, host)?);
                }
                let Some(builtin) = Builtin::from_name(name) else {
                    return self.call_function(name, vals, expr.span, host);
                };
                builtins::check_arity(builtin, vals.len(), expr.span)?;
                let vals: Vec<&Value> = vals.iter().collect();
                match builtins::begin(&mut self.core, &self.image, builtin, &vals, expr.span)? {
                    Begun::Done(v) => Ok(v),
                    Begun::Ask(call) => {
                        builtins::finish(&mut self.core, host.call(call), expr.span, caught)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::convert::Infallible;

    use proptest::prelude::*;

    use super::*;
    use crate::host::{HostCall, HostReply, HostResult};
    use crate::interp::{Interpreter, Step};
    use crate::parse::parse;
    use crate::printer::print_program;
    use symphony::SysError;

    /// Everything observable about one run, but its output: a transcript
    /// host prints nothing, and what the machine printed is in the calls.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        /// The value, or the error's kind and span (`Debug` text, so a NaN
        /// equals itself); `Parked` for a run that waits for good at its
        /// last call.
        result: String,
        fuel: u64,
        mem: u64,
        /// The host calls made, in order (`Debug` text).
        calls: Vec<String>,
    }

    /// The entry point a run starts from.
    #[derive(Clone)]
    enum Entry {
        Top,
        Named(&'static str, Vec<Value>),
    }

    /// A host that answers from a kernel run's transcript: it takes the
    /// machine's calls, in the machine's order, and gives each the reply
    /// the machine got. Any other call is refused. It has no semantics of
    /// its own to get wrong.
    struct Transcript<'a> {
        exchanges: &'a [harness::Exchange],
        asked: Vec<String>,
        /// Whether it was asked the call the machine is parked on.
        parked: bool,
    }

    impl<'a> Transcript<'a> {
        fn new(run: &'a harness::Run) -> Self {
            Transcript {
                exchanges: &run.transcript,
                asked: Vec::new(),
                parked: false,
            }
        }

        /// What a run against this host came to.
        fn outcome(self, result: String, fuel: u64, mem: u64) -> Outcome {
            Outcome {
                result: if self.parked { "Parked".into() } else { result },
                fuel,
                mem,
                calls: self.asked,
            }
        }
    }

    impl Host for Transcript<'_> {
        fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
            let made = format!("{call:?}");
            let reply = match self.exchanges.get(self.asked.len()) {
                Some((call, Some(reply))) if *call == made => reply.clone(),
                Some((call, None)) if *call == made => {
                    self.parked = true;
                    Err(SysError::Internal("the machine is parked here"))
                }
                _ => Err(SysError::Internal("not the machine's next call")),
            };
            self.asked.push(made);
            reply
        }
    }

    /// The machine as a served program runs: inline on a test kernel,
    /// parked on every system call. With the run itself, for its
    /// transcript and output.
    fn by_machine(
        program: &Arc<Program>,
        limits: InterpLimits,
        entry: Entry,
    ) -> (Outcome, harness::Run) {
        let entry = match entry {
            Entry::Top => None,
            Entry::Named(name, args) => Some((name, args)),
        };
        let run = harness::run(Arc::clone(program), "the args", limits, entry);
        let outcome = Outcome {
            result: run
                .result
                .as_ref()
                .map_or_else(|| "Parked".into(), |result| format!("{result:?}")),
            fuel: run.fuel,
            mem: run.mem,
            calls: run
                .transcript
                .iter()
                .map(|(call, _)| call.clone())
                .collect(),
        };
        (outcome, run)
    }

    /// The reference evaluator against the machine's transcript.
    fn by_reference(
        program: &Arc<Program>,
        limits: InterpLimits,
        entry: Entry,
        run: &harness::Run,
    ) -> Outcome {
        let mut host = Transcript::new(run);
        let mut eval = Reference::new(Arc::clone(program), limits);
        let result = match entry {
            Entry::Top => eval.run(&mut host),
            Entry::Named(name, args) => eval.call_named(&mut host, name, args),
        };
        host.outcome(format!("{result:?}"), eval.fuel_used(), eval.mem_used())
    }

    /// The machine under its blocking driver, which answers every host call
    /// inside the loop and never parks, against the same transcript.
    fn by_driver(
        program: &Arc<Program>,
        limits: InterpLimits,
        entry: Entry,
        run: &harness::Run,
    ) -> Outcome {
        let mut host = Transcript::new(run);
        let mut machine = Interpreter::new(Arc::clone(program), limits);
        let result = match entry {
            Entry::Top => machine.run(&mut host),
            Entry::Named(name, args) => machine.start_named(name, args).and_then(|()| {
                let mut answer = |call| Ok::<_, Infallible>(host.call(call));
                match machine.step_with(None, &mut answer) {
                    Step::Done(result) => result,
                    Step::Ask(never) => match never {},
                }
            }),
        };
        host.outcome(
            format!("{result:?}"),
            machine.fuel_used(),
            machine.mem_used(),
        )
    }

    /// The reference and the driven machine agree with the machine on the
    /// kernel, on `program` under `limits`; returns what they agreed on,
    /// and what the program printed.
    fn agree(program: &Arc<Program>, limits: InterpLimits, entry: Entry) -> (Outcome, String) {
        let (want, run) = by_machine(program, limits, entry.clone());
        let got = by_reference(program, limits, entry.clone(), &run);
        assert_eq!(got, want, "reference vs machine, limits {limits:?}");
        let driven = by_driver(program, limits, entry, &run);
        assert_eq!(driven, want, "driven vs parked machine, limits {limits:?}");
        (want, run.output)
    }

    /// Agreement under the default limits, and with each limit cut to every
    /// value on a grid below what the program needs: fuel, memory and depth
    /// each get to trip at many different points of the run.
    fn agree_under_all_limits(src: &str, entry: Entry) -> (Outcome, String) {
        let program = Arc::new(parse(src).expect("test programs parse"));
        let roomy = InterpLimits::default();
        let (free, output) = agree(&program, roomy, entry.clone());
        let grid = |used: u64| {
            let step = (used / 97).max(1);
            (0..=used).step_by(step as usize)
        };
        for fuel in grid(free.fuel) {
            agree(&program, InterpLimits { fuel, ..roomy }, entry.clone());
        }
        for memory_cells in grid(free.mem) {
            let limits = InterpLimits {
                memory_cells,
                ..roomy
            };
            agree(&program, limits, entry.clone());
        }
        for max_depth in [0, 1, 2, 3, 7] {
            agree(&program, InterpLimits { max_depth, ..roomy }, entry.clone());
        }
        (free, output)
    }

    #[test]
    fn every_statement_kind() {
        let (out, _) = agree_under_all_limits(
            r#"
            fn classify(n) {
                if (n % 15 == 0) { return "fizzbuzz"; }
                else { if (n % 5 == 0) { return "buzz"; } }
                if (n % 3 == 0) { return "fizz"; }
                return str(n);
            }
            let words = [];
            let i = 1;
            while (i <= 20) {
                words = push(words, classify(i));
                i = i + 1;
            }
            let grid = [[1, 2], [3, 4]];
            let row = grid[1];
            row[0] = row[0] * 10 + -row[1];
            let seen = 0;
            for w in words {
                if (w == "fizz") { continue; }
                if (w == "19") { break; }
                seen = seen + len(w);
            }
            emit(join_str(words, ","));
            -seen;
            return [row, seen, !seen, "s"[0], 1.5 * 2, nil];
            "#,
            Entry::Top,
        );
        assert!(out.result.starts_with("Ok("), "{}", out.result);
    }

    #[test]
    fn short_circuits_skip_the_right_operand() {
        let (_, output) = agree_under_all_limits(
            r#"
            fn loud(v) { emit("[" + str(v) + "]"); return v; }
            let a = loud(0) && loud(1);
            let b = loud(2) && loud(0) && loud(3);
            let c = loud(0) || loud(4);
            let d = loud(5) || loud(6);
            let e = (loud(0) || loud(0)) && loud(7);
            return [a, b, c, d, e, 0 && undefined_name, 1 || undefined_name];
            "#,
            Entry::Top,
        );
        assert_eq!(output, "[0][2][0][0][4][5][0][0]");
    }

    #[test]
    fn calls_nest_to_the_depth_limit() {
        let src = r#"
            fn down(n) { if (n == 0) { return 0; } return 1 + down(n - 1); }
            fn wide(n) { return [down(n), down(n / 2)][0] + len(str(down(3))); }
            return wide(args_depth());
        "#;
        for depth in [5, 62, 63, 64, 200] {
            let src = src.replace("args_depth()", &depth.to_string());
            let (out, _) = agree_under_all_limits(&src, Entry::Top);
            // `wide` is one level, `down(n)` n + 1 more.
            assert_eq!(out.result.starts_with("Ok("), depth + 2 <= 64, "{depth}");
        }
    }

    #[test]
    fn control_leaves_nested_loops() {
        agree_under_all_limits(
            r#"
            fn find(rows, want) {
                let r = 0;
                for row in rows {
                    let c = 0;
                    while (c < len(row)) {
                        if (row[c] == want) { return [r, c]; }
                        if (row[c] < 0) { c = c + 2; continue; }
                        if (row[c] > 99) { break; }
                        c = c + 1;
                    }
                    r = r + 1;
                }
                return nil;
            }
            let rows = [[1, -2, 3, 4], [100, 5], [6, 7, 8]];
            return [find(rows, 4), find(rows, 5), find(rows, 8), find(rows, 9)];
            "#,
            Entry::Top,
        );
        // Control flow with nowhere to go.
        for src in [
            "break;",
            "fn f() { continue; } f();",
            "if (1) { break; }",
            "fn f() { while (1) { return 1; } } return f() + f();",
        ] {
            agree_under_all_limits(src, Entry::Top);
        }
    }

    #[test]
    fn every_host_call_and_where_it_can_sit() {
        let (out, _) = agree_under_all_limits(
            r#"
            fn worker(tag, n) { emit(tag + str(n)); return n; }
            let kv = kv_create();
            let toks = tokenize("a few words " + args());
            let dists = pred(kv, toks, 0);
            let d = dists[len(dists) - 1];
            let pos = kv_next_pos(kv);
            let picks = [argmax(d), sample(d), sample_t(d, 0.7), sample(top_k(d, 2))];
            emit_tokens(picks);
            emit_token(picks[0]);
            print(detokenize(slice(toks, 0, 2)));
            let fork = kv_fork(kv);
            d = pred_at(fork, [picks[0], picks[1]], [pos, pos + 1])[1];
            kv_truncate(fork, kv_len(fork) - 1);
            let part = kv_extract(kv, 1, 3);
            let all = kv_merge([part, fork]);
            kv_link(all, "all.kv");
            kv_pin(all);
            kv_unpin(kv_open("all.kv"));
            kv_unlink("all.kv");
            kv_remove(part);
            let answer = call_tool("echo", "ping " + str(kv_len(all)));
            send(lookup("self"), "hello");
            send(lookup("self"), answer);
            let first = recv();
            let second = recv()[1];
            sleep_ms(int(rand() * 10) + 1);
            let t = spawn("worker", ["w", now_ms()]);
            let joined = join(t);
            while (kv_len(all) > 2 && prob(d, eos()) < 2) {
                kv_truncate(all, kv_len(all) - 1);
            }
            return [first, second, joined, lookup("nobody"), entropy(d) > 0, kv_len(all)];
            "#,
            Entry::Top,
        );
        assert!(out.result.starts_with("Ok("), "{}", out.result);
        assert!(out.calls.len() > 40, "{} host calls", out.calls.len());
        // Host errors surface at the call, whatever it sits in.
        for src in [
            "let kv = kv_create(); kv_remove(kv); return [1, kv_len(kv)][1];",
            "return call_tool(\"nope\", \"\") + \"x\";",
            "let xs = [kv_open(\"missing\")]; return xs;",
            "fn f() { let kv = kv_create(); kv_remove(kv); return kv_fork(kv); } return f() || 1;",
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert!(out.result.contains("Host("), "{}", out.result);
        }
        // A `recv` nobody answers parks the program for good, whatever it
        // sits in.
        for src in [
            "recv(); return 1;",
            "fn f(n) { return [n, recv()]; } return len(f(1)) + 1;",
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert_eq!(out.result, "Parked");
        }
    }

    /// A `try` makes the kernel's refusal the call's value, wherever the
    /// call sits; what is not the kernel's answer still ends the program.
    #[test]
    fn a_refused_call_under_try_is_a_value() {
        let (out, output) = agree_under_all_limits(
            r#"
            fn open(path) { return try kv_open(path); }
            let kv = kv_create();
            kv_remove(kv);
            let gone = [try kv_len(kv), try kv_fork(kv)][1];
            let tool = try call_tool("nope", "q");
            let fine = try call_tool("echo", "q");
            let missing = open("missing.kv");
            emit(str(missing) + " " + err_kind(tool) + " " + fine);
            if (is_err(try kv_remove(kv)) && !missing) {
                emit(" falsy");
            }
            let draws = [rand_int(6), try rand_int(1000000)];
            return [is_err(gone), err_kind(gone), is_err(fine), missing == open("x"), draws];
            "#,
            Entry::Top,
        );
        assert!(out.result.starts_with("Ok("), "{}", out.result);
        assert_eq!(output, "<err:NotFound> NoSuchTool echoed q falsy");
        // A program fault under `try` is not the kernel's: it still ends
        // the program, at the call.
        for src in [
            "return try kv_len(1);",
            "return try kv_chmod(kv_create(), \"x\");",
            "return try rand_int(0);",
            "let e = try kv_open(\"no\");\nreturn e + 1;",
            "return err_kind(try kv_create());",
            "return try kv_len(kv_open(\"no\"));",
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert!(out.result.starts_with("Err("), "{src}: {}", out.result);
        }
    }

    #[test]
    fn runtime_errors_keep_their_kind_and_span() {
        for src in [
            "let x = 1;\nreturn x + y;",
            "y = 2;",
            "let xs = [1];\nxs[3] = 0;",
            "let xs = 5;\nxs[0] = 0;",
            "let xs = [1];\nxs[\"a\"] = 0;",
            "return [1, 2][2];",
            "return \"ab\"[-1];",
            "return 5[0];",
            "return [1][nil];",
            "return 1 / (2 - 2);",
            "return 7 % 0;",
            "return -\"s\";",
            "return [] < 1;",
            "for x in 3 { }",
            "return nope(1, 2);",
            "fn f(a) { return a; }\nreturn f();",
            "return len(1, 2);",
            "return spawn(\"nope\", []);",
            "return range(0, 4000000);",
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert!(out.result.starts_with("Err("), "{src}: {}", out.result);
        }
    }

    /// What resolving variables to slots ahead of time can get wrong, each
    /// against the environment that looks names up as it goes.
    #[test]
    fn variables_resolve_as_the_environment_would_find_them() {
        let ok = |src: &str, want: &str| {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert_eq!(out.result, want, "{src}");
        };
        // Shadowing in nested blocks, and the outer binding back in sight
        // (and unchanged) when each block closes.
        ok(
            r#"
            let x = 1;
            let seen = [x];
            if (x) {
                let x = x + 10;
                seen = push(seen, x);
                while (x < 13) {
                    let x = x * 100;
                    seen = push(seen, x);
                    break;
                }
                x = x + 1;
                seen = push(seen, x);
            }
            return push(seen, x);
            "#,
            "Ok(List([Int(1), Int(11), Int(1100), Int(12), Int(1)]))",
        );
        // A read before a `let` of the same block sees the outer binding —
        // also inside the `let`'s own initialiser — and so does a write.
        ok(
            r#"
            let x = 1;
            let out = [];
            if (true) {
                out = push(out, x);
                x = x + 1;
                let x = x * 10;
                out = push(out, x);
                x = x + 1;
                out = push(out, x);
            }
            return push(out, x);
            "#,
            "Ok(List([Int(1), Int(20), Int(21), Int(2)]))",
        );
        // A `let` in a loop body is declared anew every time round: what an
        // iteration reads before it is the outer binding, never the last
        // iteration's.
        ok(
            r#"
            let acc = 0;
            let seen = [];
            for i in range(0, 3) {
                seen = push(seen, acc);
                let acc = acc + i + 100;
                seen = push(seen, acc);
            }
            let n = 0;
            while (n < 2) {
                let n2 = n + 1;
                seen = push(seen, n2);
                let n2 = n2 * 2;
                n = n2;
            }
            return push(seen, acc);
            "#,
            "Ok(List([Int(0), Int(100), Int(0), Int(101), Int(0), Int(102), Int(1), Int(0)]))",
        );
        // Re-declaration in one scope, a loop variable re-declared by its
        // own body, a parameter re-declared, two parameters of one name.
        ok(
            r#"
            fn f(a, a) { let a = a + 1; let a = a * 2; return a; }
            let v = 1;
            let v = v + 1;
            let v = [v, v];
            let out = [];
            for v in v { let v = v * 5; out = push(out, v); }
            return [v, out, f(100, 3)];
            "#,
            "Ok(List([List([Int(2), Int(2)]), List([Int(10), Int(10)]), Int(8)]))",
        );
        // A slot handed out again after its block closed starts from what
        // the new `let` puts there, whatever the old one left.
        ok(
            r#"
            if (true) { let a = [1, 2, 3]; let b = "left behind"; }
            if (true) { let c = 7; if (c) { let d = c + 1; return [c, d]; } }
            "#,
            "Ok(List([Int(7), Int(8)]))",
        );
        // A function sees its parameters and nothing else: not the top
        // level's names, not its caller's, not its own from another call.
        for (src, name) in [
            ("let top = 1;\nfn f() { return top; }\nreturn f();", "top"),
            (
                "fn g() { return mine; }\nfn f(mine) { return g(); }\nreturn f(1);",
                "mine",
            ),
            (
                "fn f(n) { if (n) { let kept = n; return f(0); } return kept; }\nreturn f(1);",
                "kept",
            ),
            (
                "fn f() { later = 1; }\nlet later = 0;\nreturn f();",
                "later",
            ),
            (
                "fn f(xs) { ys[0] = 1; }\nlet ys = [0];\nreturn f(ys);",
                "ys",
            ),
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            let undefined = format!("Undefined(\"{name}\")");
            assert!(out.result.contains(&undefined), "{src}: {}", out.result);
        }
        // Recursion: every activation has its own frame, restored when the
        // call returns — to the depth limit and one past it.
        let src = r#"
            fn fact(n) {
                let below = 1;
                if (n > 1) { let n1 = n - 1; below = fact(n1); }
                return n * below;
            }
            fn fib(n) { if (n < 2) { return n; } let a = fib(n - 1); let b = fib(n - 2); return a + b; }
            return [fact(DEPTH) > 0, fib(7)];
        "#;
        for depth in [1, 5, 63, 64, 65] {
            let (out, _) =
                agree_under_all_limits(&src.replace("DEPTH", &depth.to_string()), Entry::Top);
            assert_eq!(
                out.result.starts_with("Ok("),
                depth <= 64,
                "{depth}: {}",
                out.result
            );
        }
        // An undefined read, write or call that only one branch reaches
        // (nothing verified these programs): fine on the other branch, the
        // same error at the same place on this one.
        for (flag, want) in [("0", "Ok(Int(1))"), ("1", "Undefined(\"nope\")")] {
            for stmt in [
                "emit(str(nope));",
                "nope = 2;",
                "nope[0] = 2;",
                "nope(1, 2);",
                "let y = [1, nope];",
            ] {
                let src = format!("let x = 1;\nif ({flag}) {{ {stmt} }}\nreturn x;");
                let (out, _) = agree_under_all_limits(&src, Entry::Top);
                assert!(out.result.contains(want), "{src}: {}", out.result);
            }
        }
        // The same where the name exists, but not *yet*, or not *here*.
        for src in [
            "if (true) { let inner = 1; }\nreturn inner;",
            "for i in [1] { }\nreturn i;",
            "let a = a;",
            "return later;\nlet later = 1;",
            "while (true) { if (true) { let deep = 1; } return deep; }",
        ] {
            let (out, _) = agree_under_all_limits(src, Entry::Top);
            assert!(out.result.contains("Undefined("), "{src}: {}", out.result);
        }
    }

    #[test]
    fn named_entry_points() {
        let src = r#"
            fn add(a, b) { emit(str(a + b)); return a + b; }
            fn spin() { while (true) { } }
            fn stray() { break; }
            emit("top level never runs");
        "#;
        let two = vec![Value::Int(2), Value::Int(3)];
        let (out, _) = agree_under_all_limits(src, Entry::Named("add", two));
        assert_eq!(out.result, "Ok(Int(5))");
        agree_under_all_limits(src, Entry::Named("add", vec![Value::Int(1)]));
        agree_under_all_limits(src, Entry::Named("missing", vec![]));
        agree_under_all_limits(src, Entry::Named("stray", vec![]));
        let program = Arc::new(parse(src).expect("parses"));
        let limits = InterpLimits {
            fuel: 10_000,
            ..Default::default()
        };
        let (out, _) = agree(&program, limits, Entry::Named("spin", vec![]));
        assert!(out.result.contains("OutOfFuel"), "{}", out.result);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(256)
        ))]

        /// Random programs (`tests/arb`), printed and parsed back so every
        /// node has a real span, under the default limits and under a fuel
        /// and a memory limit drawn below what the program needs.
        #[test]
        fn machine_agrees_with_the_reference(
            p in super::arb::arb_program_with_try(),
            cut in (0u64..1000, 0u64..1000),
        ) {
            let program = Arc::new(parse(&print_program(&p)).expect("printed programs parse"));
            let roomy = InterpLimits {
                // A random `while` may never end, and may double a string
                // each time round: keep the runs short and small.
                fuel: 20_000,
                memory_cells: 100_000,
                ..Default::default()
            };
            let (free, _) = agree(&program, roomy, Entry::Top);
            let fuel = free.fuel * cut.0 / 1000;
            agree(&program, InterpLimits { fuel, ..roomy }, Entry::Top);
            let memory_cells = free.mem * cut.1 / 1000;
            agree(&program, InterpLimits { memory_cells, ..roomy }, Entry::Top);
        }
    }
}
