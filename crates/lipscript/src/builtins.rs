//! Builtin functions: the standard library plus the system-call surface.
//!
//! A builtin runs in two halves around the interpreter's one kind of yield
//! point. `begin` checks the arguments and either finishes on the spot
//! (the core library, the distribution operations) or builds the one
//! [`HostCall`] the builtin makes; `finish` turns the host's reply into
//! the builtin's value. No builtin calls the host twice.
//!
//! A call site names its builtin once, when the program is lowered
//! ([`crate::image`]): [`Builtin`] is what the name resolved to, so running
//! a call is a jump on a small integer and never a string comparison.
//! `begin` only *inspects* its arguments — it takes them by reference, so a
//! variable handed to `len`, `argmax` or `pred` is read where it lives and
//! not copied first.

use std::sync::Arc;

use symphony_model::Dist;

use crate::error::{RuntimeError, RuntimeErrorKind, Span};
use crate::host::{HostCall, HostReply, HostResult};
use crate::image::Image;
use crate::interp::{fail, Core, Fallible};
use crate::value::Value;

/// Declares every builtin once: its variant, its name, its fixed argument
/// count, and whether it `asks` the host or is `pure` ([`begin`] always
/// finishes it on the spot). Dispatch, the shadowing check, runtime arity
/// enforcement and the static verifier all read this one table, so they
/// can never disagree.
macro_rules! builtins {
    (@pure pure) => { true };
    (@pure asks) => { false };
    ($($variant:ident = $name:literal / $arity:literal $kind:ident,)*) => {
        /// A builtin function: what a call site's name resolved to.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum Builtin {
            $($variant,)*
        }

        impl Builtin {
            /// Every builtin.
            #[cfg(test)]
            const ALL: &'static [Builtin] = &[$(Builtin::$variant,)*];

            /// The builtin called `name`, if there is one.
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some(Builtin::$variant),)*
                    _ => None,
                }
            }

            /// The name programs call it by.
            pub fn name(self) -> &'static str {
                match self {
                    $(Builtin::$variant => $name,)*
                }
            }

            /// Its fixed argument count.
            pub fn arity(self) -> usize {
                match self {
                    $(Builtin::$variant => $arity,)*
                }
            }

            /// Whether it needs nobody: no call of it ever reaches the
            /// host, so it can be evaluated without a way to wait.
            pub(crate) fn is_pure(self) -> bool {
                match self {
                    $(Builtin::$variant => builtins!(@pure $kind),)*
                }
            }
        }
    };
}

builtins! {
    // Core library.
    Len = "len" / 1 pure, Push = "push" / 2 pure, Slice = "slice" / 3 pure,
    Contains = "contains" / 2 pure, Range = "range" / 2 pure, Str = "str" / 1 pure,
    Int = "int" / 1 pure, Float = "float" / 1 pure, Abs = "abs" / 1 pure,
    Min = "min" / 2 pure, Max = "max" / 2 pure, JoinStr = "join_str" / 2 pure,
    Split = "split" / 2 pure, Print = "print" / 1 asks, Rand = "rand" / 0 asks,
    // Distribution operations.
    Sample = "sample" / 1 asks, SampleT = "sample_t" / 2 asks, Argmax = "argmax" / 1 pure,
    Prob = "prob" / 2 pure, TopK = "top_k" / 2 pure, TopP = "top_p" / 2 pure,
    Constrain = "constrain" / 2 pure, Entropy = "entropy" / 1 pure,
    // System calls.
    Args = "args" / 0 asks, Eos = "eos" / 0 asks, Tokenize = "tokenize" / 1 asks,
    Detokenize = "detokenize" / 1 asks, Pred = "pred" / 3 asks, PredAt = "pred_at" / 3 asks,
    KvCreate = "kv_create" / 0 asks, KvOpen = "kv_open" / 1 asks, KvFork = "kv_fork" / 1 asks,
    KvRemove = "kv_remove" / 1 asks, KvLen = "kv_len" / 1 asks, KvNextPos = "kv_next_pos" / 1 asks,
    KvTruncate = "kv_truncate" / 2 asks, KvExtract = "kv_extract" / 3 asks, KvMerge = "kv_merge" / 1 asks,
    KvLink = "kv_link" / 2 asks, KvUnlink = "kv_unlink" / 1 asks, KvPin = "kv_pin" / 1 asks,
    KvUnpin = "kv_unpin" / 1 asks, Emit = "emit" / 1 asks, EmitToken = "emit_token" / 1 asks,
    EmitTokens = "emit_tokens" / 1 asks, CallTool = "call_tool" / 2 asks, Send = "send" / 2 asks,
    Recv = "recv" / 0 asks, Lookup = "lookup" / 1 asks, SleepMs = "sleep_ms" / 1 asks,
    NowMs = "now_ms" / 0 asks, Spawn = "spawn" / 2 asks, Join = "join" / 1 asks,
}

/// The most arguments any builtin takes.
pub(crate) const MAX_ARITY: usize = 3;

/// Returns `true` if `name` is a builtin.
pub fn is_builtin(name: &str) -> bool {
    Builtin::from_name(name).is_some()
}

/// The fixed argument count of a builtin, `None` for non-builtins.
///
/// Read from the same table as the runtime's own check (`check_arity`,
/// [`RuntimeErrorKind::BadArity`]) and by the static verifier
/// (`crate::verify` pass 1), so the two can never disagree.
pub fn arity_of(name: &str) -> Option<usize> {
    Builtin::from_name(name).map(Builtin::arity)
}

fn err(kind: RuntimeErrorKind, span: Span) -> Box<RuntimeError> {
    fail(kind, span)
}

fn type_err(msg: impl Into<String>, span: Span) -> Box<RuntimeError> {
    err(RuntimeErrorKind::Type(msg.into()), span)
}

/// A call of `builtin` with `got` arguments: the first thing checked, before
/// any argument is looked at.
pub(crate) fn check_arity(builtin: Builtin, got: usize, span: Span) -> Fallible<()> {
    let want = builtin.arity();
    if want == got {
        Ok(())
    } else {
        let name = builtin.name();
        Err(err(
            RuntimeErrorKind::BadArity(format!("{name} expects {want} args, got {got}")),
            span,
        ))
    }
}

fn as_int(v: &Value, what: &str, span: Span) -> Fallible<i64> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(type_err(
            format!("{what} must be int, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_f64(v: &Value, what: &str, span: Span) -> Fallible<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        other => Err(type_err(
            format!("{what} must be numeric, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_str<'a>(v: &'a Value, what: &str, span: Span) -> Fallible<&'a str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(type_err(
            format!("{what} must be string, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_list<'a>(v: &'a Value, what: &str, span: Span) -> Fallible<&'a [Value]> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(type_err(
            format!("{what} must be list, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_dist<'a>(v: &'a Value, what: &str, span: Span) -> Fallible<&'a Dist> {
    match v {
        Value::Dist(d) => Ok(d),
        other => Err(type_err(
            format!("{what} must be dist, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_handle(v: &Value, what: &str, span: Span) -> Fallible<u64> {
    match v {
        Value::Handle(h) => Ok(*h),
        other => Err(type_err(
            format!("{what} must be a kv handle, got {}", other.type_name()),
            span,
        )),
    }
}

fn as_token(v: &Value, span: Span) -> Fallible<u32> {
    let i = as_int(v, "token", span)?;
    u32::try_from(i).map_err(|_| type_err(format!("token {i} out of range"), span))
}

fn token_list(v: &Value, span: Span) -> Fallible<Vec<u32>> {
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
/// call. The arguments are only read; what a builtin keeps of one, it
/// copies. Callers run [`check_arity`] first.
pub(crate) fn begin(
    core: &mut Core,
    image: &Arc<Image>,
    builtin: Builtin,
    args: &[&Value],
    span: Span,
) -> Fallible<Begun> {
    debug_assert_eq!(args.len(), builtin.arity());
    let ask = |call: HostCall| Ok(Begun::Ask(call));
    let value = match builtin {
        // ---- core library --------------------------------------------------
        Builtin::Len => match args[0] {
            Value::List(l) => Ok(Value::Int(l.len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(type_err(format!("len of {}", other.type_name()), span)),
        },
        Builtin::Push => match args[0] {
            Value::List(l) => {
                let mut l = l.clone();
                l.push(args[1].clone());
                core.charge(1 + l.len() as u64, span)?;
                Ok(Value::List(l))
            }
            other => Err(type_err(format!("push into {}", other.type_name()), span)),
        },
        Builtin::Slice => {
            let a = as_int(args[1], "start", span)?;
            let b = as_int(args[2], "end", span)?;
            match args[0] {
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
        Builtin::Contains => match (args[0], args[1]) {
            (Value::List(l), v) => Ok(Value::Bool(l.contains(v))),
            (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_str()))),
            (a, _) => Err(type_err(format!("contains on {}", a.type_name()), span)),
        },
        Builtin::Range => {
            let a = as_int(args[0], "start", span)?;
            let b = as_int(args[1], "end", span)?;
            let n = (b - a).max(0) as u64;
            core.charge(1 + n, span)?;
            Ok(Value::List((a..b).map(Value::Int).collect()))
        }
        Builtin::Str => {
            let s = args[0].to_string();
            core.charge(1 + s.len() as u64 / 8, span)?;
            Ok(Value::Str(s))
        }
        Builtin::Int => match args[0] {
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Bool(b) => Ok(Value::Int(i64::from(*b))),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| type_err(format!("cannot parse {s:?} as int"), span)),
            other => Err(type_err(format!("int of {}", other.type_name()), span)),
        },
        Builtin::Float => Ok(Value::Float(as_f64(args[0], "value", span)?)),
        Builtin::Abs => match args[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(type_err(format!("abs of {}", other.type_name()), span)),
        },
        Builtin::Min | Builtin::Max => {
            let a = as_f64(args[0], "a", span)?;
            let b = as_f64(args[1], "b", span)?;
            let pick_a = if builtin == Builtin::Min {
                a <= b
            } else {
                a >= b
            };
            Ok(args[usize::from(!pick_a)].clone())
        }
        Builtin::JoinStr => {
            let l = as_list(args[0], "parts", span)?;
            let sep = as_str(args[1], "separator", span)?;
            let s = l
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(sep);
            core.charge(1 + s.len() as u64 / 8, span)?;
            Ok(Value::Str(s))
        }
        Builtin::Split => {
            let s = as_str(args[0], "string", span)?;
            let sep = as_str(args[1], "separator", span)?;
            let parts: Vec<Value> = s.split(sep).map(|p| Value::Str(p.to_string())).collect();
            core.charge(1 + s.len() as u64 / 8 + parts.len() as u64, span)?;
            Ok(Value::List(parts))
        }
        Builtin::Print => {
            return ask(HostCall::Emit(format!("{}\n", args[0])));
        }
        Builtin::Rand => {
            return ask(HostCall::Rand);
        }

        // ---- distribution operations ---------------------------------------
        Builtin::Sample => {
            return ask(HostCall::Sample(as_dist(args[0], "dist", span)?.clone()));
        }
        Builtin::SampleT => {
            let d = as_dist(args[0], "dist", span)?;
            let t = as_f64(args[1], "temperature", span)?;
            if !(t.is_finite() && t >= 0.0) {
                return Err(type_err("temperature must be non-negative", span));
            }
            return ask(HostCall::Sample(d.with_temperature(t)));
        }
        Builtin::Argmax => Ok(Value::Int(as_dist(args[0], "dist", span)?.argmax() as i64)),
        Builtin::Prob => {
            let d = as_dist(args[0], "dist", span)?;
            let t = as_token(args[1], span)?;
            Ok(Value::Float(d.prob(t)))
        }
        Builtin::TopK => {
            let d = as_dist(args[0], "dist", span)?;
            let k = as_int(args[1], "k", span)?;
            if k < 1 {
                return Err(type_err("k must be >= 1", span));
            }
            Ok(Value::Dist(d.top_k(k as usize)))
        }
        Builtin::TopP => {
            let d = as_dist(args[0], "dist", span)?;
            let p = as_f64(args[1], "p", span)?;
            Ok(Value::Dist(d.top_p(p)))
        }
        Builtin::Constrain => {
            let d = as_dist(args[0], "dist", span)?;
            let allowed = token_list(args[1], span)?;
            match d.constrain(&allowed) {
                Some(c) => Ok(Value::Dist(c)),
                None => Err(type_err("constrain with empty allowed set", span)),
            }
        }
        Builtin::Entropy => Ok(Value::Float(as_dist(args[0], "dist", span)?.entropy())),

        // ---- system calls ---------------------------------------------------
        Builtin::Args => {
            return ask(HostCall::Args);
        }
        Builtin::Eos => {
            return ask(HostCall::Eos);
        }
        Builtin::Tokenize => {
            let text = as_str(args[0], "text", span)?;
            return ask(HostCall::Tokenize(text.to_string()));
        }
        Builtin::Detokenize => {
            return ask(HostCall::Detokenize(token_list(args[0], span)?));
        }
        Builtin::Pred => {
            let kv = as_handle(args[0], "kv", span)?;
            let toks = token_list(args[1], span)?;
            let start = as_int(args[2], "start position", span)?;
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
        Builtin::PredAt => {
            let kv = as_handle(args[0], "kv", span)?;
            let toks = token_list(args[1], span)?;
            let positions: Vec<u32> = as_list(args[2], "positions", span)?
                .iter()
                .map(|p| as_token(p, span))
                .collect::<Result<_, _>>()?;
            if toks.len() != positions.len() {
                return Err(type_err(
                    "tokens and positions must have equal length",
                    span,
                ));
            }
            let tokens: Vec<(u32, u32)> = toks.into_iter().zip(positions).collect();
            return ask(HostCall::Pred { kv, tokens });
        }
        Builtin::KvCreate => {
            return ask(HostCall::KvCreate);
        }
        Builtin::KvOpen => {
            let path = as_str(args[0], "path", span)?;
            return ask(HostCall::KvOpen(path.to_string()));
        }
        Builtin::KvFork => {
            return ask(HostCall::KvFork(as_handle(args[0], "kv", span)?));
        }
        Builtin::KvRemove => {
            return ask(HostCall::KvRemove(as_handle(args[0], "kv", span)?));
        }
        Builtin::KvLen => {
            return ask(HostCall::KvLen(as_handle(args[0], "kv", span)?));
        }
        Builtin::KvNextPos => {
            return ask(HostCall::KvNextPos(as_handle(args[0], "kv", span)?));
        }
        Builtin::KvTruncate => {
            let kv = as_handle(args[0], "kv", span)?;
            let n = as_int(args[1], "length", span)?;
            if n < 0 {
                return Err(type_err("length must be >= 0", span));
            }
            return ask(HostCall::KvTruncate {
                kv,
                len: n as usize,
            });
        }
        Builtin::KvExtract => {
            let kv = as_handle(args[0], "kv", span)?;
            let a = as_int(args[1], "start", span)?;
            let b = as_int(args[2], "end", span)?;
            if a < 0 || b < a {
                return Err(type_err("bad extract range", span));
            }
            return ask(HostCall::KvExtract {
                kv,
                start: a as usize,
                end: b as usize,
            });
        }
        Builtin::KvMerge => {
            let handles: Vec<u64> = as_list(args[0], "files", span)?
                .iter()
                .map(|h| as_handle(h, "file", span))
                .collect::<Result<_, _>>()?;
            return ask(HostCall::KvMerge(handles));
        }
        Builtin::KvLink => {
            let kv = as_handle(args[0], "kv", span)?;
            let path = as_str(args[1], "path", span)?.to_string();
            return ask(HostCall::KvLink { kv, path });
        }
        Builtin::KvUnlink => {
            let path = as_str(args[0], "path", span)?;
            return ask(HostCall::KvUnlink(path.to_string()));
        }
        Builtin::KvPin => {
            return ask(HostCall::KvPin(as_handle(args[0], "kv", span)?));
        }
        Builtin::KvUnpin => {
            return ask(HostCall::KvUnpin(as_handle(args[0], "kv", span)?));
        }
        Builtin::Emit => {
            let text = as_str(args[0], "text", span)?;
            return ask(HostCall::Emit(text.to_string()));
        }
        Builtin::EmitToken => {
            return ask(HostCall::EmitTokens(vec![as_token(args[0], span)?]));
        }
        Builtin::EmitTokens => {
            return ask(HostCall::EmitTokens(token_list(args[0], span)?));
        }
        Builtin::CallTool => {
            let name = as_str(args[0], "tool name", span)?.to_string();
            let args = as_str(args[1], "tool args", span)?.to_string();
            return ask(HostCall::CallTool { name, args });
        }
        Builtin::Send => {
            let pid = as_int(args[0], "pid", span)?;
            if pid < 0 {
                return Err(type_err("pid must be >= 0", span));
            }
            let data = as_str(args[1], "data", span)?.to_string();
            return ask(HostCall::Send {
                pid: pid as u64,
                data,
            });
        }
        Builtin::Recv => {
            return ask(HostCall::Recv);
        }
        Builtin::Lookup => {
            let name = as_str(args[0], "name", span)?;
            return ask(HostCall::Lookup(name.to_string()));
        }
        Builtin::SleepMs => {
            let ms = as_int(args[0], "milliseconds", span)?;
            if ms < 0 {
                return Err(type_err("sleep duration must be >= 0", span));
            }
            return ask(HostCall::SleepMs(ms as u64));
        }
        Builtin::NowMs => {
            return ask(HostCall::NowMs);
        }
        Builtin::Spawn => {
            let func = as_str(args[0], "function name", span)?.to_string();
            let call_args = as_list(args[1], "arguments", span)?.to_vec();
            if image.function(&func).is_none() {
                return Err(err(RuntimeErrorKind::Undefined(func), span));
            }
            return ask(HostCall::Spawn {
                image: Arc::clone(image),
                func,
                args: call_args,
                limits: core.limits,
            });
        }
        Builtin::Join => match args[0] {
            Value::Thread(t) => return ask(HostCall::Join(*t)),
            other => Err(type_err(
                format!("join needs a thread handle, got {}", other.type_name()),
                span,
            )),
        },
    };
    value.map(Begun::Done)
}

/// Second half of a host-calling builtin: the reply as a value, charged to
/// the memory budget where it allocates. A host error becomes the
/// program's [`RuntimeErrorKind::Host`] at the call's span.
pub(crate) fn finish(core: &mut Core, reply: HostResult<HostReply>, span: Span) -> Fallible<Value> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpLimits;

    /// The table's `pure` / `asks` column against what `begin` does: every
    /// builtin, on every mix of plausible arguments that it accepts.
    #[test]
    fn the_table_says_which_builtins_ask_the_host() {
        let program = crate::parse::parse("fn f() { }").expect("parses");
        let image = Image::shared(&program);
        let samples = [
            Value::Int(1),
            Value::Float(0.5),
            Value::Str("f".into()),
            Value::List(vec![Value::Int(2), Value::Int(3)]),
            Value::Dist(Dist::from_weights(vec![(1, 2.0), (2, 1.0)], 0.1, 10)),
            Value::Handle(0),
            Value::List(vec![Value::Handle(0)]),
            Value::Thread(0),
        ];
        for &builtin in Builtin::ALL {
            assert_eq!(Builtin::from_name(builtin.name()), Some(builtin));
            assert!(builtin.arity() <= MAX_ARITY);
            let mut accepted = 0;
            let mixes = samples.len().pow(builtin.arity() as u32);
            for mix in 0..mixes {
                let args: Vec<&Value> = (0..builtin.arity() as u32)
                    .map(|k| &samples[mix / samples.len().pow(k) % samples.len()])
                    .collect();
                let mut core = Core::new(InterpLimits::default());
                if let Ok(begun) = begin(&mut core, &image, builtin, &args, Span::default()) {
                    accepted += 1;
                    let asked = matches!(begun, Begun::Ask(_));
                    assert_eq!(asked, !builtin.is_pure(), "{}", builtin.name());
                }
            }
            assert!(accepted > 0, "{} accepted no mix", builtin.name());
        }
    }
}
