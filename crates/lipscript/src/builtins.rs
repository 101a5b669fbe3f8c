//! Builtin functions: the standard library plus the system-call surface.
//!
//! A builtin runs in two halves around the interpreter's one kind of yield
//! point. `begin` checks the arguments and either finishes on the spot
//! (the core library, the distribution operations) or builds the one
//! [`HostCall`] the builtin makes; `finish` turns the host's reply into
//! the builtin's value. No builtin calls the host twice.

use std::sync::Arc;

use symphony_model::Dist;

use crate::error::{RuntimeError, RuntimeErrorKind, Span};
use crate::host::{HostCall, HostReply, HostResult};
use crate::interp::Core;
use crate::value::Value;

/// All builtin names, used both for dispatch and to reject shadowing.
const NAMES: &[&str] = &[
    // Core library.
    "len", "push", "slice", "contains", "range", "str", "int", "float", "abs", "min", "max",
    "join_str", "split", "print", "rand",
    // Distribution operations.
    "sample", "sample_t", "argmax", "prob", "top_k", "top_p", "constrain", "entropy",
    // System calls.
    "args", "eos", "tokenize", "detokenize", "pred", "pred_at", "kv_create", "kv_open",
    "kv_fork", "kv_remove", "kv_len", "kv_next_pos", "kv_truncate", "kv_extract", "kv_merge",
    "kv_link", "kv_unlink", "kv_pin", "kv_unpin", "emit", "emit_token", "emit_tokens",
    "call_tool", "send", "recv", "lookup", "sleep_ms", "now_ms", "spawn", "join",
];

/// Returns `true` if `name` is a builtin.
pub fn is_builtin(name: &str) -> bool {
    NAMES.contains(&name)
}

/// The fixed argument count of a builtin, `None` for non-builtins.
///
/// Single source of truth shared by `begin` (runtime enforcement via
/// [`RuntimeErrorKind::BadArity`]) and the static verifier
/// (`crate::verify` pass 1), so the two can never disagree.
pub fn arity_of(name: &str) -> Option<usize> {
    Some(match name {
        "rand" | "args" | "eos" | "kv_create" | "recv" | "now_ms" => 0,
        "len" | "str" | "int" | "float" | "abs" | "print" | "sample" | "argmax" | "entropy"
        | "tokenize" | "detokenize" | "kv_open" | "kv_fork" | "kv_remove" | "kv_len"
        | "kv_next_pos" | "kv_merge" | "kv_unlink" | "kv_pin" | "kv_unpin" | "emit"
        | "emit_token" | "emit_tokens" | "lookup" | "sleep_ms" | "join" => 1,
        "push" | "contains" | "range" | "min" | "max" | "join_str" | "split" | "sample_t"
        | "prob" | "top_k" | "top_p" | "constrain" | "kv_truncate" | "kv_link" | "call_tool"
        | "send" | "spawn" => 2,
        "slice" | "pred" | "pred_at" | "kv_extract" => 3,
        _ => return None,
    })
}

fn err(kind: RuntimeErrorKind, span: Span) -> RuntimeError {
    RuntimeError::new(kind, span)
}

fn type_err(msg: impl Into<String>, span: Span) -> RuntimeError {
    err(RuntimeErrorKind::Type(msg.into()), span)
}

fn arity(name: &str, want: usize, got: usize, span: Span) -> Result<(), RuntimeError> {
    if want == got {
        Ok(())
    } else {
        Err(err(
            RuntimeErrorKind::BadArity(format!("{name} expects {want} args, got {got}")),
            span,
        ))
    }
}

fn as_int(v: &Value, what: &str, span: Span) -> Result<i64, RuntimeError> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(type_err(format!("{what} must be int, got {}", other.type_name()), span)),
    }
}

fn as_f64(v: &Value, what: &str, span: Span) -> Result<f64, RuntimeError> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(type_err(
            format!("{what} must be numeric, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_str<'a>(v: &'a Value, what: &str, span: Span) -> Result<&'a str, RuntimeError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(type_err(
            format!("{what} must be string, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_list<'a>(v: &'a Value, what: &str, span: Span) -> Result<&'a [Value], RuntimeError> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(type_err(
            format!("{what} must be list, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_dist<'a>(v: &'a Value, what: &str, span: Span) -> Result<&'a Dist, RuntimeError> {
    match v {
        Value::Dist(d) => Ok(d),
        other => Err(type_err(
            format!("{what} must be dist, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_handle(v: &Value, what: &str, span: Span) -> Result<u64, RuntimeError> {
    match v {
        Value::Handle(h) => Ok(*h),
        other => Err(type_err(
            format!("{what} must be a kv handle, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_token(v: &Value, span: Span) -> Result<u32, RuntimeError> {
    let i = as_int(v, "token", span)?;
    u32::try_from(i).map_err(|_| type_err(format!("token {i} out of range"), span))
}

fn token_list(v: &Value, span: Span) -> Result<Vec<u32>, RuntimeError> {
    as_list(v, "tokens", span)?
        .iter()
        .map(|t| as_token(t, span))
        .collect()
}

/// How far [`begin`] got.
pub(crate) enum Begun {
    /// The builtin needed nobody: here is its value.
    Done(Value),
    /// The builtin's one host call; its value is [`finish`] of the reply.
    Ask(HostCall),
}

/// First half of a builtin: argument checks, then its value or its host
/// call. Callers must check [`is_builtin`] first.
///
/// # Panics
///
/// Panics if `name` is not a builtin.
pub(crate) fn begin(
    core: &mut Core,
    name: &str,
    mut args: Vec<Value>,
    span: Span,
) -> Result<Begun, RuntimeError> {
    let ask = |call: HostCall| Ok(Begun::Ask(call));
    let value = match name {
        // ---- core library --------------------------------------------------
        "len" => {
            arity(name, 1, args.len(), span)?;
            match &args[0] {
                Value::List(l) => Ok(Value::Int(l.len() as i64)),
                Value::Str(s) => Ok(Value::Int(s.len() as i64)),
                other => Err(type_err(format!("len of {}", other.type_name()), span)),
            }
        }
        "push" => {
            arity(name, 2, args.len(), span)?;
            let v = args.pop().expect("two args");
            match args.pop().expect("two args") {
                Value::List(mut l) => {
                    l.push(v);
                    core.charge(1 + l.len() as u64, span)?;
                    Ok(Value::List(l))
                }
                other => Err(type_err(format!("push into {}", other.type_name()), span)),
            }
        }
        "slice" => {
            arity(name, 3, args.len(), span)?;
            let a = as_int(&args[1], "start", span)?;
            let b = as_int(&args[2], "end", span)?;
            match &args[0] {
                Value::List(l) => {
                    let n = l.len() as i64;
                    if a < 0 || b < a || b > n {
                        return Err(err(RuntimeErrorKind::IndexOutOfBounds(b, l.len()), span));
                    }
                    let out = l[a as usize..b as usize].to_vec();
                    core.charge(1 + out.len() as u64, span)?;
                    Ok(Value::List(out))
                }
                Value::Str(s) => {
                    let n = s.len() as i64;
                    if a < 0 || b < a || b > n {
                        return Err(err(RuntimeErrorKind::IndexOutOfBounds(b, s.len()), span));
                    }
                    Ok(Value::Str(s[a as usize..b as usize].to_string()))
                }
                other => Err(type_err(format!("slice of {}", other.type_name()), span)),
            }
        }
        "contains" => {
            arity(name, 2, args.len(), span)?;
            match (&args[0], &args[1]) {
                (Value::List(l), v) => Ok(Value::Bool(l.contains(v))),
                (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_str()))),
                (a, _) => Err(type_err(format!("contains on {}", a.type_name()), span)),
            }
        }
        "range" => {
            arity(name, 2, args.len(), span)?;
            let a = as_int(&args[0], "start", span)?;
            let b = as_int(&args[1], "end", span)?;
            let n = (b - a).max(0) as u64;
            core.charge(1 + n, span)?;
            Ok(Value::List((a..b).map(Value::Int).collect()))
        }
        "str" => {
            arity(name, 1, args.len(), span)?;
            let s = args[0].to_string();
            core.charge(1 + s.len() as u64 / 8, span)?;
            Ok(Value::Str(s))
        }
        "int" => {
            arity(name, 1, args.len(), span)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(Value::Int(*f as i64)),
                Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| type_err(format!("cannot parse {s:?} as int"), span)),
                other => Err(type_err(format!("int of {}", other.type_name()), span)),
            }
        }
        "float" => {
            arity(name, 1, args.len(), span)?;
            Ok(Value::Float(as_f64(&args[0], "value", span)?))
        }
        "abs" => {
            arity(name, 1, args.len(), span)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(type_err(format!("abs of {}", other.type_name()), span)),
            }
        }
        "min" | "max" => {
            arity(name, 2, args.len(), span)?;
            let a = as_f64(&args[0], "a", span)?;
            let b = as_f64(&args[1], "b", span)?;
            let pick_a = if name == "min" { a <= b } else { a >= b };
            Ok(args[usize::from(!pick_a)].clone())
        }
        "join_str" => {
            arity(name, 2, args.len(), span)?;
            let l = as_list(&args[0], "parts", span)?;
            let sep = as_str(&args[1], "separator", span)?;
            let s = l
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(sep);
            core.charge(1 + s.len() as u64 / 8, span)?;
            Ok(Value::Str(s))
        }
        "split" => {
            arity(name, 2, args.len(), span)?;
            let s = as_str(&args[0], "string", span)?;
            let sep = as_str(&args[1], "separator", span)?;
            let parts: Vec<Value> = s
                .split(sep)
                .map(|p| Value::Str(p.to_string()))
                .collect();
            core.charge(1 + s.len() as u64 / 8 + parts.len() as u64, span)?;
            Ok(Value::List(parts))
        }
        "print" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::Emit(format!("{}\n", args[0])));
        }
        "rand" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::Rand);
        }

        // ---- distribution operations ---------------------------------------
        "sample" => {
            arity(name, 1, args.len(), span)?;
            as_dist(&args[0], "dist", span)?;
            match args.swap_remove(0) {
                Value::Dist(d) => return ask(HostCall::Sample(d)),
                _ => unreachable!("checked by as_dist"),
            }
        }
        "sample_t" => {
            arity(name, 2, args.len(), span)?;
            let d = as_dist(&args[0], "dist", span)?;
            let t = as_f64(&args[1], "temperature", span)?;
            if !(t.is_finite() && t >= 0.0) {
                return Err(type_err("temperature must be non-negative", span));
            }
            return ask(HostCall::Sample(d.with_temperature(t)));
        }
        "argmax" => {
            arity(name, 1, args.len(), span)?;
            Ok(Value::Int(as_dist(&args[0], "dist", span)?.argmax() as i64))
        }
        "prob" => {
            arity(name, 2, args.len(), span)?;
            let d = as_dist(&args[0], "dist", span)?;
            let t = as_token(&args[1], span)?;
            Ok(Value::Float(d.prob(t)))
        }
        "top_k" => {
            arity(name, 2, args.len(), span)?;
            let d = as_dist(&args[0], "dist", span)?;
            let k = as_int(&args[1], "k", span)?;
            if k < 1 {
                return Err(type_err("k must be >= 1", span));
            }
            Ok(Value::Dist(d.top_k(k as usize)))
        }
        "top_p" => {
            arity(name, 2, args.len(), span)?;
            let d = as_dist(&args[0], "dist", span)?;
            let p = as_f64(&args[1], "p", span)?;
            Ok(Value::Dist(d.top_p(p)))
        }
        "constrain" => {
            arity(name, 2, args.len(), span)?;
            let d = as_dist(&args[0], "dist", span)?;
            let allowed = token_list(&args[1], span)?;
            match d.constrain(&allowed) {
                Some(c) => Ok(Value::Dist(c)),
                None => Err(type_err("constrain with empty allowed set", span)),
            }
        }
        "entropy" => {
            arity(name, 1, args.len(), span)?;
            Ok(Value::Float(as_dist(&args[0], "dist", span)?.entropy()))
        }

        // ---- system calls ---------------------------------------------------
        "args" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::Args);
        }
        "eos" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::Eos);
        }
        "tokenize" => {
            arity(name, 1, args.len(), span)?;
            let text = as_str(&args[0], "text", span)?;
            return ask(HostCall::Tokenize(text.to_string()));
        }
        "detokenize" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::Detokenize(token_list(&args[0], span)?));
        }
        "pred" => {
            arity(name, 3, args.len(), span)?;
            let kv = as_handle(&args[0], "kv", span)?;
            let toks = token_list(&args[1], span)?;
            let start = as_int(&args[2], "start position", span)?;
            if start < 0 {
                return Err(type_err("start position must be >= 0", span));
            }
            let tokens: Vec<(u32, u32)> = toks
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, start as u32 + i as u32))
                .collect();
            return ask(HostCall::Pred { kv, tokens });
        }
        "pred_at" => {
            arity(name, 3, args.len(), span)?;
            let kv = as_handle(&args[0], "kv", span)?;
            let toks = token_list(&args[1], span)?;
            let positions: Vec<u32> = as_list(&args[2], "positions", span)?
                .iter()
                .map(|p| as_token(p, span))
                .collect::<Result<_, _>>()?;
            if toks.len() != positions.len() {
                return Err(type_err("tokens and positions must have equal length", span));
            }
            let tokens: Vec<(u32, u32)> = toks.into_iter().zip(positions).collect();
            return ask(HostCall::Pred { kv, tokens });
        }
        "kv_create" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::KvCreate);
        }
        "kv_open" => {
            arity(name, 1, args.len(), span)?;
            let path = as_str(&args[0], "path", span)?;
            return ask(HostCall::KvOpen(path.to_string()));
        }
        "kv_fork" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvFork(as_handle(&args[0], "kv", span)?));
        }
        "kv_remove" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvRemove(as_handle(&args[0], "kv", span)?));
        }
        "kv_len" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvLen(as_handle(&args[0], "kv", span)?));
        }
        "kv_next_pos" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvNextPos(as_handle(&args[0], "kv", span)?));
        }
        "kv_truncate" => {
            arity(name, 2, args.len(), span)?;
            let kv = as_handle(&args[0], "kv", span)?;
            let n = as_int(&args[1], "length", span)?;
            if n < 0 {
                return Err(type_err("length must be >= 0", span));
            }
            return ask(HostCall::KvTruncate {
                kv,
                len: n as usize,
            });
        }
        "kv_extract" => {
            arity(name, 3, args.len(), span)?;
            let kv = as_handle(&args[0], "kv", span)?;
            let a = as_int(&args[1], "start", span)?;
            let b = as_int(&args[2], "end", span)?;
            if a < 0 || b < a {
                return Err(type_err("bad extract range", span));
            }
            return ask(HostCall::KvExtract {
                kv,
                start: a as usize,
                end: b as usize,
            });
        }
        "kv_merge" => {
            arity(name, 1, args.len(), span)?;
            let handles: Vec<u64> = as_list(&args[0], "files", span)?
                .iter()
                .map(|h| as_handle(h, "file", span))
                .collect::<Result<_, _>>()?;
            return ask(HostCall::KvMerge(handles));
        }
        "kv_link" => {
            arity(name, 2, args.len(), span)?;
            let kv = as_handle(&args[0], "kv", span)?;
            let path = as_str(&args[1], "path", span)?.to_string();
            return ask(HostCall::KvLink { kv, path });
        }
        "kv_unlink" => {
            arity(name, 1, args.len(), span)?;
            let path = as_str(&args[0], "path", span)?;
            return ask(HostCall::KvUnlink(path.to_string()));
        }
        "kv_pin" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvPin(as_handle(&args[0], "kv", span)?));
        }
        "kv_unpin" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::KvUnpin(as_handle(&args[0], "kv", span)?));
        }
        "emit" => {
            arity(name, 1, args.len(), span)?;
            let text = as_str(&args[0], "text", span)?;
            return ask(HostCall::Emit(text.to_string()));
        }
        "emit_token" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::EmitTokens(vec![as_token(&args[0], span)?]));
        }
        "emit_tokens" => {
            arity(name, 1, args.len(), span)?;
            return ask(HostCall::EmitTokens(token_list(&args[0], span)?));
        }
        "call_tool" => {
            arity(name, 2, args.len(), span)?;
            let name = as_str(&args[0], "tool name", span)?.to_string();
            let args = as_str(&args[1], "tool args", span)?.to_string();
            return ask(HostCall::CallTool { name, args });
        }
        "send" => {
            arity(name, 2, args.len(), span)?;
            let pid = as_int(&args[0], "pid", span)?;
            if pid < 0 {
                return Err(type_err("pid must be >= 0", span));
            }
            let data = as_str(&args[1], "data", span)?.to_string();
            return ask(HostCall::Send {
                pid: pid as u64,
                data,
            });
        }
        "recv" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::Recv);
        }
        "lookup" => {
            arity(name, 1, args.len(), span)?;
            let name = as_str(&args[0], "name", span)?;
            return ask(HostCall::Lookup(name.to_string()));
        }
        "sleep_ms" => {
            arity(name, 1, args.len(), span)?;
            let ms = as_int(&args[0], "milliseconds", span)?;
            if ms < 0 {
                return Err(type_err("sleep duration must be >= 0", span));
            }
            return ask(HostCall::SleepMs(ms as u64));
        }
        "now_ms" => {
            arity(name, 0, args.len(), span)?;
            return ask(HostCall::NowMs);
        }
        "spawn" => {
            arity(name, 2, args.len(), span)?;
            let func = as_str(&args[0], "function name", span)?.to_string();
            let call_args = as_list(&args[1], "arguments", span)?.to_vec();
            if core.program.function(&func).is_none() {
                return Err(err(RuntimeErrorKind::Undefined(func), span));
            }
            return ask(HostCall::Spawn {
                program: Arc::clone(&core.program),
                func,
                args: call_args,
                limits: core.limits,
            });
        }
        "join" => {
            arity(name, 1, args.len(), span)?;
            match &args[0] {
                Value::Thread(t) => return ask(HostCall::Join(*t)),
                other => Err(type_err(
                    format!("join needs a thread handle, got {}", other.type_name()),
                    span,
                )),
            }
        }
        other => unreachable!("not a builtin: {other}"),
    };
    value.map(Begun::Done)
}

/// Second half of a host-calling builtin: the reply as a value, charged to
/// the memory budget where it allocates. A host error becomes the
/// program's [`RuntimeErrorKind::Host`] at the call's span.
pub(crate) fn finish(
    core: &mut Core,
    reply: HostResult<HostReply>,
    span: Span,
) -> Result<Value, RuntimeError> {
    let reply = reply.map_err(|m| err(RuntimeErrorKind::Host(m), span))?;
    Ok(match reply {
        HostReply::Unit => Value::Nil,
        HostReply::Handle(h) => Value::Handle(h),
        HostReply::Int(i) => Value::Int(i),
        HostReply::Float(f) => Value::Float(f),
        HostReply::Text(s) => {
            core.charge(1 + s.len() as u64 / 8, span)?;
            Value::Str(s)
        }
        HostReply::Tokens(toks) => {
            core.charge(1 + toks.len() as u64, span)?;
            Value::List(toks.into_iter().map(|t| Value::Int(t as i64)).collect())
        }
        HostReply::Dists(dists) => {
            let cells = dists.iter().map(|d| 1 + d.entries().len() as u64);
            core.charge(1 + cells.sum::<u64>(), span)?;
            Value::List(dists.into_iter().map(Value::Dist).collect())
        }
        HostReply::Msg(from, data) => {
            core.charge(1 + data.len() as u64 / 8, span)?;
            Value::List(vec![Value::Int(from as i64), Value::Str(data)])
        }
        HostReply::MaybePid(found) => found.map_or(Value::Nil, |p| Value::Int(p as i64)),
        HostReply::Thread(tid) => Value::Thread(tid),
        HostReply::Joined(ok) => Value::Bool(ok),
    })
}
