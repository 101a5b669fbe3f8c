//! Builtin functions: the standard library plus the system-call surface.
//!
//! A builtin runs in two halves around the interpreter's one kind of yield
//! point. `begin` checks the arguments and either finishes on the spot
//! (the core library, the distribution operations) or builds the one
//! [`HostCall`] the builtin makes — for a system call, the kernel's own
//! [`Syscall`], fields and all; `finish` turns the host's reply into the
//! builtin's value. No builtin calls the host twice.
//!
//! A call site names its builtin once, when the program is lowered
//! ([`crate::image`]): [`Builtin`] is what the name resolved to, so running
//! a call is a jump on a small integer and never a string comparison.
//! Everything else known about a builtin before it runs — what it requires
//! of each argument (and so how many it takes), what it returns, whether it
//! asks the host — is its one row of the `builtins!` table below, which the
//! machine and the verifier ([`crate::verify`]) both read.
//! `begin` only *inspects* its arguments — it takes them by reference, so a
//! variable handed to `len`, `argmax` or `pred` is read where it lives and
//! not copied first.

use std::borrow::Cow;
use std::sync::Arc;

use symphony::{FileId, Mode, Pid, SimDuration, Syscall, Tid};
use symphony_model::Dist;

use crate::error::{RuntimeError, RuntimeErrorKind, Span};
use crate::host::{HostCall, HostReply, HostResult};
use crate::image::Image;
use crate::interp::{fail, Core, Fallible};
use crate::value::{err_kind, Value};
use crate::verify::{Req, Ty};

/// Declares every builtin once: its variant, its name, what it requires of
/// each argument (a [`Req`] per argument, so also how many it takes), what
/// it returns (a [`Ty`], `Any` where that depends on the values), and
/// whether it `asks` the host or is `pure` ([`begin`] always finishes it on
/// the spot). Dispatch, the shadowing check, runtime arity enforcement and
/// every pass of the static verifier read this one table, so they can never
/// disagree; `the_table_says_which_builtins_ask_the_host` holds the columns
/// to what [`begin`] does.
macro_rules! builtins {
    (@pure pure) => { true };
    (@pure asks) => { false };
    ($($variant:ident = $name:literal ($($arg:ident),*) -> $ret:ident $kind:ident,)*) => {
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

            /// What it requires of each argument, in order. A concrete
            /// type outside the requirement makes [`begin`] fail.
            pub(crate) fn args(self) -> &'static [Req] {
                match self {
                    $(Builtin::$variant => &[$(Req::$arg),*],)*
                }
            }

            /// Its fixed argument count.
            pub fn arity(self) -> usize {
                self.args().len()
            }

            /// Whether its first argument is a KV handle, which a removed
            /// file makes it fail on.
            pub(crate) fn takes_kv(self) -> bool {
                self.args().first() == Some(&Req::Kv)
            }

            /// What its value can be.
            pub(crate) fn ret(self) -> Ty {
                match self {
                    $(Builtin::$variant => Ty::$ret,)*
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
    Len = "len"(ListOrStr) -> Int pure,
    Push = "push"(List, Any) -> List pure,
    Slice = "slice"(ListOrStr, Int, Int) -> Any pure,
    Contains = "contains"(ListOrStr, Any) -> Bool pure,
    Range = "range"(Int, Int) -> List pure,
    Str = "str"(Any) -> Str pure,
    Int = "int"(IntLike) -> Int pure,
    Float = "float"(Num) -> Float pure,
    Abs = "abs"(Num) -> Any pure,
    Min = "min"(Num, Num) -> Any pure,
    Max = "max"(Num, Num) -> Any pure,
    JoinStr = "join_str"(List, Str) -> Str pure,
    Split = "split"(Str, Str) -> List pure,
    Print = "print"(Any) -> Nil asks,
    Rand = "rand"() -> Float asks,
    RandInt = "rand_int"(Int) -> Int asks,
    // Failed system calls, as `try` gives them.
    IsErr = "is_err"(Any) -> Bool pure,
    ErrKind = "err_kind"(Err) -> Str pure,
    // Distribution operations.
    Sample = "sample"(Dist) -> Int asks,
    SampleT = "sample_t"(Dist, Num) -> Int asks,
    Argmax = "argmax"(Dist) -> Int pure,
    Prob = "prob"(Dist, Int) -> Float pure,
    TopK = "top_k"(Dist, Int) -> Dist pure,
    TopP = "top_p"(Dist, Num) -> Dist pure,
    Constrain = "constrain"(Dist, List) -> Dist pure,
    Entropy = "entropy"(Dist) -> Float pure,
    // System calls.
    Args = "args"() -> Str asks,
    Eos = "eos"() -> Int asks,
    Tokenize = "tokenize"(Str) -> List asks,
    Detokenize = "detokenize"(List) -> Str asks,
    Pred = "pred"(Kv, List, Int) -> List asks,
    PredAt = "pred_at"(Kv, List, List) -> List asks,
    KvCreate = "kv_create"() -> Kv asks,
    KvOpen = "kv_open"(Str) -> Kv asks,
    KvFork = "kv_fork"(Kv) -> Kv asks,
    KvRemove = "kv_remove"(Kv) -> Nil asks,
    KvLen = "kv_len"(Kv) -> Int asks,
    KvNextPos = "kv_next_pos"(Kv) -> Int asks,
    KvTruncate = "kv_truncate"(Kv, Int) -> Nil asks,
    KvRead = "kv_read"(Kv, Int, Int) -> List asks,
    KvExtract = "kv_extract"(Kv, Int, Int) -> Kv asks,
    KvMerge = "kv_merge"(List) -> Kv asks,
    KvLink = "kv_link"(Kv, Str) -> Nil asks,
    KvUnlink = "kv_unlink"(Str) -> Nil asks,
    KvPin = "kv_pin"(Kv) -> Nil asks,
    KvUnpin = "kv_unpin"(Kv) -> Nil asks,
    KvChmod = "kv_chmod"(Kv, Str) -> Nil asks,
    KvSwapIn = "kv_swap_in"(Kv) -> Nil asks,
    KvSwapOut = "kv_swap_out"(Kv) -> Nil asks,
    Emit = "emit"(Str) -> Nil asks,
    EmitToken = "emit_token"(Int) -> Nil asks,
    EmitTokens = "emit_tokens"(List) -> Nil asks,
    CallTool = "call_tool"(Str, Str) -> Str asks,
    Send = "send"(Int, Str) -> Nil asks,
    Recv = "recv"() -> List asks,
    Lookup = "lookup"(Str) -> Any asks,
    SleepMs = "sleep_ms"(Num) -> Nil asks,
    NowMs = "now_ms"() -> Float asks,
    Spawn = "spawn"(Str, List) -> Thread asks,
    Join = "join"(Thread) -> Bool asks,
}

/// The most arguments any builtin takes.
pub(crate) const MAX_ARITY: usize = 3;

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

/// The distribution `v` holds, built now if it is an element of a `pred`
/// reply.
fn as_dist<'a>(v: &'a Value, what: &str, span: Span) -> Fallible<Cow<'a, Dist>> {
    match v {
        Value::Dist(d) => Ok(d.get()),
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
    let sys = |call: Syscall| Ok(Begun::Ask(HostCall::Sys(call)));
    // Every builtin that takes a KV file takes it first.
    let first_kv = || as_handle(args[0], "kv", span).map(FileId);
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
            let n = b.saturating_sub(a).max(0) as u64;
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
            let text = format!("{}\n", args[0]);
            return sys(Syscall::Emit { text });
        }
        Builtin::Rand => return ask(HostCall::Rand),
        Builtin::RandInt => {
            let n = as_int(args[0], "bound", span)?;
            if n < 1 {
                return Err(type_err("bound must be >= 1", span));
            }
            return ask(HostCall::RandInt(n as u64));
        }
        Builtin::IsErr => Ok(Value::Bool(matches!(args[0], Value::Err(_)))),
        Builtin::ErrKind => match args[0] {
            Value::Err(e) => {
                let kind = err_kind(e);
                core.charge(1 + kind.len() as u64 / 8, span)?;
                Ok(Value::Str(kind))
            }
            other => Err(type_err(format!("err_kind of {}", other.type_name()), span)),
        },

        // ---- distribution operations ---------------------------------------
        Builtin::Sample => {
            return ask(HostCall::Sample(
                as_dist(args[0], "dist", span)?.into_owned(),
            ));
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
            Ok(Value::Dist(d.top_k(k as usize).into()))
        }
        Builtin::TopP => {
            let d = as_dist(args[0], "dist", span)?;
            let p = as_f64(args[1], "p", span)?;
            Ok(Value::Dist(d.top_p(p).into()))
        }
        Builtin::Constrain => {
            let d = as_dist(args[0], "dist", span)?;
            let allowed = token_list(args[1], span)?;
            match d.constrain(&allowed) {
                Some(c) => Ok(Value::Dist(c.into())),
                None => Err(type_err("constrain with empty allowed set", span)),
            }
        }
        Builtin::Entropy => Ok(Value::Float(as_dist(args[0], "dist", span)?.entropy())),

        // ---- system calls ---------------------------------------------------
        Builtin::Args => return ask(HostCall::Args),
        Builtin::Eos => return ask(HostCall::Eos),
        Builtin::Tokenize => {
            let text = as_str(args[0], "text", span)?.to_string();
            return sys(Syscall::Tokenize { text });
        }
        Builtin::Detokenize => {
            let tokens = token_list(args[0], span)?;
            return sys(Syscall::Detokenize { tokens });
        }
        Builtin::Pred => {
            let kv = first_kv()?;
            let toks = token_list(args[1], span)?;
            let start = as_int(args[2], "start position", span)?;
            if start < 0 {
                return Err(type_err("start position must be >= 0", span));
            }
            // Positions run on from `start`; the last must be a u32.
            let last = (start as u64).saturating_add(toks.len().saturating_sub(1) as u64);
            if u32::try_from(last).is_err() {
                return Err(type_err(format!("position {last} out of range"), span));
            }
            let start = start as u32;
            let tokens = toks
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, start + i as u32))
                .collect();
            return sys(Syscall::Pred { kv, tokens });
        }
        Builtin::PredAt => {
            let kv = first_kv()?;
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
            let tokens = toks.into_iter().zip(positions).collect();
            return sys(Syscall::Pred { kv, tokens });
        }
        Builtin::KvCreate => return sys(Syscall::KvCreate),
        Builtin::KvOpen => {
            let path = as_str(args[0], "path", span)?.to_string();
            return sys(Syscall::KvOpen { path });
        }
        Builtin::KvFork => return sys(Syscall::KvFork { kv: first_kv()? }),
        Builtin::KvRemove => return sys(Syscall::KvRemove { kv: first_kv()? }),
        Builtin::KvLen => return sys(Syscall::KvLen { kv: first_kv()? }),
        Builtin::KvNextPos => return sys(Syscall::KvNextPos { kv: first_kv()? }),
        Builtin::KvTruncate => {
            let kv = first_kv()?;
            let n = as_int(args[1], "length", span)?;
            if n < 0 {
                return Err(type_err("length must be >= 0", span));
            }
            let len = n as usize;
            return sys(Syscall::KvTruncate { kv, len });
        }
        Builtin::KvRead => {
            let kv = first_kv()?;
            let start = as_int(args[1], "start", span)?;
            let count = as_int(args[2], "count", span)?;
            if start < 0 || count < 0 {
                return Err(type_err("bad read range", span));
            }
            let (start, count) = (start as usize, count as usize);
            return sys(Syscall::KvRead { kv, start, count });
        }
        Builtin::KvExtract => {
            let kv = first_kv()?;
            let a = as_int(args[1], "start", span)?;
            let b = as_int(args[2], "end", span)?;
            if a < 0 || b < a {
                return Err(type_err("bad extract range", span));
            }
            // The system call takes a list of ranges; the builtin extracts one.
            let ranges = std::iter::once(a as usize..b as usize).collect();
            return sys(Syscall::KvExtract { kv, ranges });
        }
        Builtin::KvMerge => {
            let kvs = as_list(args[0], "files", span)?
                .iter()
                .map(|h| as_handle(h, "file", span).map(FileId))
                .collect::<Fallible<_>>()?;
            return sys(Syscall::KvMerge { kvs });
        }
        Builtin::KvLink => {
            let kv = first_kv()?;
            let path = as_str(args[1], "path", span)?.to_string();
            return sys(Syscall::KvLink { kv, path });
        }
        Builtin::KvUnlink => {
            let path = as_str(args[0], "path", span)?.to_string();
            return sys(Syscall::KvUnlink { path });
        }
        Builtin::KvPin => return sys(Syscall::KvPin { kv: first_kv()? }),
        Builtin::KvUnpin => return sys(Syscall::KvUnpin { kv: first_kv()? }),
        Builtin::KvChmod => {
            let kv = first_kv()?;
            // Who besides the owner may read (`r`) and write (`w`).
            let mode = as_str(args[1], "mode", span)?;
            if !matches!(mode, "" | "r" | "w" | "rw") {
                return Err(type_err(format!("mode {mode:?} is not r, w or rw"), span));
            }
            let (read_all, write_all) = (mode.contains('r'), mode.contains('w'));
            return sys(Syscall::KvChmod {
                kv,
                mode: Mode {
                    read_all,
                    write_all,
                },
            });
        }
        Builtin::KvSwapIn => return sys(Syscall::KvSwapIn { kv: first_kv()? }),
        Builtin::KvSwapOut => return sys(Syscall::KvSwapOut { kv: first_kv()? }),
        Builtin::Emit => {
            let text = as_str(args[0], "text", span)?.to_string();
            return sys(Syscall::Emit { text });
        }
        Builtin::EmitToken => {
            let tokens = vec![as_token(args[0], span)?];
            return sys(Syscall::EmitTokens { tokens });
        }
        Builtin::EmitTokens => {
            let tokens = token_list(args[0], span)?;
            return sys(Syscall::EmitTokens { tokens });
        }
        Builtin::CallTool => {
            let name = as_str(args[0], "tool name", span)?.to_string();
            let args = as_str(args[1], "tool args", span)?.to_string();
            return sys(Syscall::CallTool { name, args });
        }
        Builtin::Send => {
            let pid = as_int(args[0], "pid", span)?;
            if pid < 0 {
                return Err(type_err("pid must be >= 0", span));
            }
            let to = Pid(pid as u64);
            let data = as_str(args[1], "data", span)?.to_string();
            return sys(Syscall::SendMsg { to, data });
        }
        Builtin::Recv => return sys(Syscall::Recv),
        Builtin::Lookup => {
            let name = as_str(args[0], "name", span)?.to_string();
            return sys(Syscall::LookupProcess { name });
        }
        Builtin::SleepMs => {
            let negative = || type_err("sleep duration must be >= 0", span);
            // Whole milliseconds exactly; a fraction to the nearest
            // nanosecond. Both saturate past the end of time.
            let dur = match args[0] {
                Value::Int(ms) if *ms < 0 => return Err(negative()),
                Value::Int(ms) => SimDuration::from_millis(*ms as u64),
                other => {
                    let ms = as_f64(other, "milliseconds", span)?;
                    // NaN is not a duration either.
                    if ms.is_nan() || ms < 0.0 {
                        return Err(negative());
                    }
                    SimDuration::from_nanos((ms * 1e6).round() as u64)
                }
            };
            return sys(Syscall::Sleep { dur });
        }
        Builtin::NowMs => return sys(Syscall::Now),
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
            Value::Thread(t) => return sys(Syscall::Join { tid: Tid(*t) }),
            other => Err(type_err(
                format!("join needs a thread handle, got {}", other.type_name()),
                span,
            )),
        },
    };
    value.map(Begun::Done)
}

/// Second half of a host-calling builtin: the reply as a value, charged to
/// the memory budget where it allocates. A host error is the call's value
/// ([`Value::Err`]) when the call is `caught` (under `try`); otherwise it
/// becomes the program's [`RuntimeErrorKind::Host`] at the call's span.
pub(crate) fn finish(
    core: &mut Core,
    reply: HostResult<HostReply>,
    span: Span,
    caught: bool,
) -> Fallible<Value> {
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) if caught => return Ok(Value::Err(e)),
        Err(e) => return Err(err(RuntimeErrorKind::Host(e.to_string()), span)),
    };
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
            let cells = dists.iter().map(|d| 1 + d.entries_len() as u64);
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
    use crate::host::{Host, MockHost};
    use crate::inline::lift;
    use crate::interp::InterpLimits;
    use symphony::{ExitStatus, SimTime, SysReply};

    /// The table against what `begin` does: every builtin, on every mix of
    /// plausible arguments. The `pure` / `asks` column must say whether it
    /// asked. The argument column must be exact: a concrete type outside a
    /// requirement makes `begin` fail (what a V006 error rests on), and
    /// every type a requirement allows is accepted by some call. And every
    /// value a call comes to — on the spot, or from a host's reply — lies
    /// within the return column. A builtin that asks the kernel makes
    /// the system call named below, or the one its own name says.
    #[test]
    fn the_table_says_which_builtins_ask_the_host() {
        let program = crate::parse::parse("fn f() { }").expect("parses");
        let image = Image::shared(&program);
        let samples = [
            Value::Int(1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(1 << 32),
            Value::Float(0.5),
            Value::Bool(true),
            Value::Nil,
            Value::Str("f".into()),
            Value::Str("7".into()),
            Value::Str("rw".into()),
            Value::List(vec![Value::Int(2), Value::Int(3)]),
            Value::Dist(Dist::from_weights(vec![(1, 2.0), (2, 1.0)], 0.1, 10).into()),
            Value::Handle(0),
            Value::List(vec![Value::Handle(0)]),
            Value::Thread(0),
            Value::Err(symphony::SysError::Timeout),
        ];
        let ty = |v: &Value| match v {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
            Value::Bool(_) => Ty::Bool,
            Value::Str(_) => Ty::Str,
            Value::List(_) => Ty::List,
            Value::Dist(_) => Ty::Dist,
            Value::Handle(_) => Ty::Kv,
            Value::Thread(_) => Ty::Thread,
            Value::Err(_) => Ty::Err,
            Value::Nil => Ty::Nil,
        };
        // A host on which a call with these samples can succeed: handle 0
        // is a file named "f" and "f" is a tool. A thread, a message, a
        // process and the clock are the kernel's to answer: what it would
        // reply, passed through `lift` as its replies to a program are.
        let reply = |call| {
            let kernel = match call {
                HostCall::Spawn { .. } => SysReply::NewTid(Tid(1)),
                HostCall::Sys(Syscall::Join { .. }) => SysReply::Joined(ExitStatus::Ok),
                HostCall::Sys(Syscall::SendMsg { .. } | Syscall::Sleep { .. }) => SysReply::Unit,
                HostCall::Sys(Syscall::Recv) => SysReply::Msg {
                    from: Pid(3),
                    data: "hi".into(),
                },
                HostCall::Sys(Syscall::LookupProcess { .. }) => SysReply::MaybePid(Some(Pid(3))),
                HostCall::Sys(Syscall::Now) => SysReply::Time(SimTime::from_nanos(2_500_000)),
                call => {
                    let mut host = MockHost::new("the args");
                    host.files.push(Some(vec![(1, 0), (2, 1)]));
                    host.names.insert("f".into(), 0);
                    host.tools.insert("f".into(), "done".into());
                    return host.call(call);
                }
            };
            lift(kernel)
        };
        for &builtin in Builtin::ALL {
            let name = builtin.name();
            assert_eq!(Builtin::from_name(name), Some(builtin));
            let syscall = match builtin {
                Builtin::Print => Some("emit"),
                Builtin::Send => Some("send_msg"),
                Builtin::Lookup => Some("lookup_process"),
                Builtin::SleepMs => Some("sleep"),
                Builtin::NowMs => Some("now"),
                Builtin::EmitToken => Some("emit_tokens"),
                Builtin::PredAt => Some("pred"),
                Builtin::Rand | Builtin::RandInt | Builtin::Sample | Builtin::SampleT => None,
                Builtin::Args | Builtin::Eos | Builtin::Spawn => None,
                _ if builtin.is_pure() => None,
                _ => Some(name),
            };
            assert!(builtin.arity() <= MAX_ARITY);
            // Per argument, the types of it that some call accepted.
            let mut accepted = vec![Vec::new(); builtin.arity()];
            let mut calls = 0;
            let mixes = samples.len().pow(builtin.arity() as u32);
            for mix in 0..mixes {
                let args: Vec<&Value> = (0..builtin.arity() as u32)
                    .map(|k| &samples[mix / samples.len().pow(k) % samples.len()])
                    .collect();
                let mut core = Core::new(InterpLimits::default());
                let Ok(begun) = begin(&mut core, &image, builtin, &args, Span::default()) else {
                    continue;
                };
                calls += 1;
                for ((req, arg), seen) in builtin.args().iter().zip(&args).zip(&mut accepted) {
                    let t = ty(arg);
                    assert!(req.allows(t), "{name} accepted {} for {req:?}", t.name());
                    seen.push(t);
                }
                let asked = matches!(begun, Begun::Ask(_));
                assert_eq!(asked, !builtin.is_pure(), "{name}");
                if let Begun::Ask(call) = &begun {
                    let made = match call {
                        HostCall::Sys(call) => Some(call.name()),
                        _ => None,
                    };
                    assert_eq!(made, syscall, "{name}");
                }
                let value = match begun {
                    Begun::Done(v) => Some(v),
                    Begun::Ask(call) => finish(&mut core, reply(call), Span::default(), false).ok(),
                };
                if let Some(t) = value.as_ref().map(ty) {
                    let ret = builtin.ret();
                    assert!(ret == Ty::Any || ret == t, "{name} came to {}", t.name());
                }
            }
            assert!(calls > 0, "{name} accepted no mix");
            for (req, seen) in builtin.args().iter().zip(&accepted) {
                for t in samples.iter().map(ty) {
                    let missing = req.allows(t) && !seen.contains(&t);
                    assert!(!missing, "{name} accepted no {} for {req:?}", t.name());
                }
            }
        }
    }
}
