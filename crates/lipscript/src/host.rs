//! The host interface: everything a LipScript program can do to the world.
//!
//! The interpreter is a resumable machine ([`crate::interp`]): when a
//! program needs the outside it yields one [`HostCall`] and is resumed with
//! the [`HostReply`]. Who answers depends on where the program runs:
//!
//! - **Inside the kernel**, served inline ([`crate::inline`]): a
//!   [`HostCall::Sys`] is the Symphony system call itself, and the machine
//!   is parked as a plain value until the kernel has the reply. No OS
//!   thread. The crate's suites run programs here (`tests/harness`).
//! - **Against a [`Host`]**, driven by a blocking loop
//!   ([`crate::Interpreter::run`]): the call goes to [`Host::call`]. A
//!   hosted native LIP's [`symphony::Ctx`] is one, through the same
//!   lowering as the inline path, so a program issues the same system
//!   calls whichever way it runs.
//!
//! [`MockHost`] is a kernel-free [`Host`] for what still times the
//! interpreter alone: the benchmark's `lipscript.interp_ns_per_fuel` probe
//! and `symphony-exp exp_lipscript` (E8). It answers what their programs
//! ask — args, EOS, random draws, a toy tokenizer, a fake model, a KV
//! table, output and tools — and nothing that needs a scheduler: a
//! `spawn`, `join`, `send`, `recv`, `lookup`, `sleep_ms` or `now_ms` is
//! `SysError::BadArgument`.
//!
//! [`HostCall`] is the sandbox boundary: a program can do nothing but the
//! system calls its builtins build and the few requests its own thread
//! answers.

use std::sync::Arc;

use symphony::{FileId, KvError, SysError, Syscall};
use symphony_model::{Dist, DistRef};

use crate::image::Image;
use crate::inline::{lift, lower};
use crate::interp::InterpLimits;
use crate::value::Value;

/// Host call result. A failed call is the kernel's own error: it ends the
/// program, unless the call is under `try`, which makes it a value.
pub type HostResult<T> = Result<T, SysError>;

/// One request from a running program to its host: what the thread's own
/// state answers, a thread to start, or a kernel system call as it is.
#[derive(Debug)]
#[allow(missing_docs)]
pub enum HostCall {
    Args,
    Eos,
    Rand,
    /// An integer in `[0, n)`: the host RNG's next 64 bits, modulo `n`.
    RandInt(u64),
    /// Draws a token from the distribution with the host's RNG stream.
    Sample(Dist),
    /// Starts a thread running `func(args...)`.
    Spawn {
        /// The spawning program's image, shared with the new thread.
        image: Arc<Image>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    },
    Sys(Syscall),
}

/// What a host answers a [`HostCall`] with.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum HostReply {
    Unit,
    Handle(u64),
    Int(i64),
    Float(f64),
    Text(String),
    Tokens(Vec<u32>),
    Dists(Vec<DistRef>),
    Msg(u64, String),
    MaybePid(Option<u64>),
    Thread(u64),
    Joined(bool),
}

/// Whoever answers a running program's requests.
pub trait Host {
    /// Answers one request, blocking until the answer exists. This is what
    /// the interpreter's driver loop calls.
    fn call(&mut self, call: HostCall) -> HostResult<HostReply>;
}

/// A hosted native LIP's context as a LipScript host (`Interpreter::run`
/// over it blocks the thread in each system call), sharing
/// [`crate::inline`]'s lowering with the inline path.
impl Host for symphony::Ctx {
    fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
        lower(call, self).or_else(|call| lift(self.syscall(call)))
    }
}

/// A kernel-free host for the interpreter's timings: deterministic fake
/// model, an in-memory KV table, tools, no threads, IPC or clock.
#[derive(Debug, Default)]
pub struct MockHost {
    /// Program argument string.
    pub args: String,
    /// Everything the program emitted.
    pub emitted: String,
    /// Fake KV files: token/position pairs per handle (`None` = removed).
    pub files: Vec<Option<Vec<(u32, u32)>>>,
    /// Named files.
    pub names: std::collections::BTreeMap<String, u64>,
    /// Registered tools: name → output.
    pub tools: std::collections::BTreeMap<String, String>,
    rng_state: u64,
}

impl MockHost {
    /// Creates a mock with the given args.
    pub fn new(args: &str) -> Self {
        MockHost {
            args: args.to_string(),
            rng_state: 0x9E37_79B9,
            ..Default::default()
        }
    }

    fn file(&mut self, kv: FileId) -> HostResult<&mut Vec<(u32, u32)>> {
        self.files
            .get_mut(kv.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(SysError::Kv(KvError::NotFound))
    }

    fn new_file(&mut self, contents: Vec<(u32, u32)>) -> HostReply {
        self.files.push(Some(contents));
        HostReply::Handle(self.files.len() as u64 - 1)
    }

    /// Deterministic random bits (xorshift).
    fn rand_u64(&mut self) -> u64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        self.rng_state
    }

    /// Deterministic uniform draw in `[0, 1)`.
    fn rand_f64(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The mock's EOS token.
const MOCK_EOS: u32 = 999;
/// The mock's content-vocabulary size hint for tail sampling.
const MOCK_VOCAB_HINT: u32 = 998;

/// Deterministic fake distribution: peaked at a hash of the context
/// length and last token, with EOS at rank 2 periodically.
fn fake_dist(kv_contents: &[(u32, u32)]) -> Dist {
    let last = kv_contents.last().map(|&(t, _)| t as u64).unwrap_or(0);
    let n = kv_contents.len() as u64;
    let h = (last ^ (n.wrapping_mul(0x9E37_79B9_7F4A_7C15))).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let top = (h % 200) as u32;
    let second = (top + 1) % 200;
    if n % 13 == 12 {
        Dist::from_weights(vec![(MOCK_EOS, 5.0), (top, 1.0)], 0.2, 100)
    } else {
        Dist::from_weights(vec![(top, 5.0), (second, 2.0), (MOCK_EOS, 0.1)], 0.2, 100)
    }
}

fn detokenize(toks: &[u32]) -> String {
    toks.iter().map(|t| format!("<{t}>")).collect()
}

impl Host for MockHost {
    fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
        use HostReply as R;
        let not_found = || SysError::Kv(KvError::NotFound);
        let out_of_bounds = || SysError::Kv(KvError::BadRange);
        let call = match call {
            HostCall::Args => return Ok(R::Text(self.args.clone())),
            HostCall::Eos => return Ok(R::Int(MOCK_EOS as i64)),
            HostCall::Rand => return Ok(R::Float(self.rand_f64())),
            HostCall::RandInt(n) => return Ok(R::Int((self.rand_u64() % n) as i64)),
            HostCall::Sample(dist) => {
                let u = self.rand_f64();
                return Ok(R::Int(dist.sample_with(u, MOCK_VOCAB_HINT) as i64));
            }
            HostCall::Sys(call) => call,
            _ => return Err(SysError::BadArgument),
        };
        Ok(match call {
            // One token per whitespace-separated word: a stable toy mapping.
            Syscall::Tokenize { text } => R::Tokens(
                text.split_whitespace()
                    .map(|w| w.bytes().fold(7u32, |a, b| a.wrapping_mul(31) + b as u32) % 900)
                    .collect(),
            ),
            Syscall::Detokenize { tokens } => R::Text(detokenize(&tokens)),
            Syscall::Pred { kv, tokens } => {
                let mut dists = Vec::with_capacity(tokens.len());
                for (t, p) in tokens {
                    let file = self.file(kv)?;
                    file.push((t, p));
                    dists.push(fake_dist(file).into());
                }
                R::Dists(dists)
            }
            Syscall::KvCreate => self.new_file(Vec::new()),
            Syscall::KvOpen { path } => {
                R::Handle(self.names.get(&path).copied().ok_or_else(not_found)?)
            }
            Syscall::KvFork { kv } => {
                let contents = self.file(kv)?.clone();
                self.new_file(contents)
            }
            Syscall::KvRemove { kv } => {
                self.file(kv)?;
                self.files[kv.0 as usize] = None;
                R::Unit
            }
            Syscall::KvLen { kv } => R::Int(self.file(kv)?.len() as i64),
            Syscall::KvNextPos { kv } => {
                let last = self.file(kv)?.last();
                let next = last.map_or(Some(0), |&(_, p)| p.checked_add(1));
                R::Int(next.ok_or_else(out_of_bounds)? as i64)
            }
            Syscall::KvRead { kv, start, count } => {
                let f = self.file(kv)?;
                let read = start.checked_add(count).and_then(|end| f.get(start..end));
                R::Tokens(read.ok_or_else(out_of_bounds)?.iter().map(|&(t, _)| t).collect())
            }
            Syscall::KvTruncate { kv, len } => {
                let f = self.file(kv)?;
                if len > f.len() {
                    return Err(out_of_bounds());
                }
                f.truncate(len);
                R::Unit
            }
            Syscall::KvExtract { kv, ranges } => {
                let f = self.file(kv)?;
                let mut part = Vec::new();
                for r in ranges {
                    part.extend_from_slice(f.get(r).ok_or_else(out_of_bounds)?);
                }
                self.new_file(part)
            }
            Syscall::KvMerge { kvs } => {
                let mut all = Vec::new();
                for k in kvs {
                    all.extend(self.file(k)?.iter().copied());
                }
                self.new_file(all)
            }
            Syscall::KvLink { kv, path } => {
                self.file(kv)?;
                if self.names.contains_key(&path) {
                    return Err(SysError::Kv(KvError::AlreadyExists));
                }
                self.names.insert(path, kv.0);
                R::Unit
            }
            Syscall::KvUnlink { path } => {
                self.names.remove(&path).ok_or_else(not_found)?;
                R::Unit
            }
            Syscall::KvPin { kv } | Syscall::KvUnpin { kv } => {
                self.file(kv)?;
                R::Unit
            }
            Syscall::Emit { text } => {
                self.emitted.push_str(&text);
                R::Unit
            }
            Syscall::EmitTokens { tokens } => {
                self.emitted.push_str(&detokenize(&tokens));
                R::Unit
            }
            Syscall::CallTool { name, args } => {
                let Some(out) = self.tools.get(&name) else {
                    return Err(SysError::NoSuchTool(name));
                };
                R::Text(out.replace("{args}", &args))
            }
            // Threads, IPC and the clock are the kernel's: a program that
            // needs them is tested where it runs.
            _ => return Err(SysError::BadArgument),
        })
    }
}
