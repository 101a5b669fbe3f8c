//! The host interface: everything a LipScript program can do to the world.
//!
//! The interpreter is a resumable machine ([`crate::interp`]): when a
//! program needs the outside it yields one [`HostCall`] and is resumed with
//! the [`HostReply`]. Who answers depends on where the program runs:
//!
//! - **Inside the kernel**, served inline ([`crate::inline`]): the call is
//!   lowered to a Symphony system call and the machine is parked as a plain
//!   value until the kernel has the reply. No OS thread.
//! - **Against a [`Host`]**, driven by a blocking loop
//!   ([`crate::Interpreter::run`]): the call goes to [`Host::call`].
//!   [`MockHost`] — no kernel at all — answers from in-memory tables; a
//!   hosted native LIP's [`symphony::Ctx`] goes through the same lowering
//!   as the inline path, so a program issues the same system calls
//!   whichever way it runs.
//!
//! [`HostCall`] is the sandbox boundary: a program can do nothing it does
//! not name.

use std::sync::Arc;

use symphony_model::Dist;

use crate::image::Image;
use crate::inline::{lift, lower};
use crate::interp::{InterpLimits, Interpreter};
use crate::value::Value;

/// Host call result; errors are surfaced to the program as runtime errors.
pub type HostResult<T> = Result<T, String>;

/// One request from a running program to its host.
#[derive(Debug, Clone)]
#[allow(missing_docs)]
pub enum HostCall {
    Args,
    Eos,
    Rand,
    /// Draws a token from the distribution with the host's RNG stream.
    Sample(Dist),
    Tokenize(String),
    Detokenize(Vec<u32>),
    Pred {
        kv: u64,
        tokens: Vec<(u32, u32)>,
    },
    KvCreate,
    KvOpen(String),
    KvFork(u64),
    KvRemove(u64),
    KvLen(u64),
    KvNextPos(u64),
    KvTruncate {
        kv: u64,
        len: usize,
    },
    KvExtract {
        kv: u64,
        start: usize,
        end: usize,
    },
    KvMerge(Vec<u64>),
    KvLink {
        kv: u64,
        path: String,
    },
    KvUnlink(String),
    KvPin(u64),
    KvUnpin(u64),
    Emit(String),
    EmitTokens(Vec<u32>),
    CallTool {
        name: String,
        args: String,
    },
    Send {
        pid: u64,
        data: String,
    },
    Recv,
    Lookup(String),
    SleepMs(u64),
    NowMs,
    Spawn {
        /// The spawning program's image, shared with the new thread.
        image: Arc<Image>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    },
    Join(u64),
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
    Dists(Vec<Dist>),
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

/// A hosted native LIP's context as a LipScript host (what `run_lip` runs
/// on), sharing [`crate::inline`]'s lowering with the inline path.
impl Host for symphony::Ctx {
    fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
        lower(call, self).or_else(|call| lift(self.syscall(call)))
    }
}

/// A kernel-free host for interpreter tests: deterministic fake model, an
/// in-memory KV table, inline (synchronous) thread execution.
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
    /// Pending inbound IPC messages.
    pub inbox: std::collections::VecDeque<(u64, String)>,
    /// Results of inline "spawned" threads.
    pub threads: Vec<bool>,
    rng_state: u64,
    clock_ms: f64,
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

    fn file(&mut self, kv: u64) -> HostResult<&mut Vec<(u32, u32)>> {
        self.files
            .get_mut(kv as usize)
            .and_then(|f| f.as_mut())
            .ok_or_else(|| "kv: file not found".to_string())
    }

    fn new_file(&mut self, contents: Vec<(u32, u32)>) -> HostReply {
        self.files.push(Some(contents));
        HostReply::Handle(self.files.len() as u64 - 1)
    }

    /// Deterministic uniform draw in `[0, 1)` (xorshift).
    fn rand_f64(&mut self) -> f64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
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
        let not_found = || "kv: file not found".to_string();
        let out_of_bounds = || "kv: index or range out of bounds".to_string();
        Ok(match call {
            HostCall::Args => R::Text(self.args.clone()),
            HostCall::Eos => R::Int(MOCK_EOS as i64),
            HostCall::Rand => R::Float(self.rand_f64()),
            HostCall::Sample(dist) => {
                let u = self.rand_f64();
                R::Int(dist.sample_with(u, MOCK_VOCAB_HINT) as i64)
            }
            // One token per whitespace-separated word: a stable toy mapping.
            HostCall::Tokenize(s) => R::Tokens(
                s.split_whitespace()
                    .map(|w| w.bytes().fold(7u32, |a, b| a.wrapping_mul(31) + b as u32) % 900)
                    .collect(),
            ),
            HostCall::Detokenize(toks) => R::Text(detokenize(&toks)),
            HostCall::Pred { kv, tokens } => {
                let mut dists = Vec::with_capacity(tokens.len());
                for (t, p) in tokens {
                    let file = self.file(kv)?;
                    file.push((t, p));
                    dists.push(fake_dist(file));
                }
                R::Dists(dists)
            }
            HostCall::KvCreate => self.new_file(Vec::new()),
            HostCall::KvOpen(path) => {
                R::Handle(self.names.get(&path).copied().ok_or_else(not_found)?)
            }
            HostCall::KvFork(kv) => {
                let contents = self.file(kv)?.clone();
                self.new_file(contents)
            }
            HostCall::KvRemove(kv) => {
                self.file(kv)?;
                self.files[kv as usize] = None;
                R::Unit
            }
            HostCall::KvLen(kv) => R::Int(self.file(kv)?.len() as i64),
            HostCall::KvNextPos(kv) => {
                R::Int(self.file(kv)?.last().map_or(0, |&(_, p)| p + 1) as i64)
            }
            HostCall::KvTruncate { kv, len } => {
                let f = self.file(kv)?;
                if len > f.len() {
                    return Err(out_of_bounds());
                }
                f.truncate(len);
                R::Unit
            }
            HostCall::KvExtract { kv, start, end } => {
                let f = self.file(kv)?;
                if start > end || end > f.len() {
                    return Err(out_of_bounds());
                }
                let part = f[start..end].to_vec();
                self.new_file(part)
            }
            HostCall::KvMerge(kvs) => {
                let mut all = Vec::new();
                for k in kvs {
                    all.extend(self.file(k)?.iter().copied());
                }
                self.new_file(all)
            }
            HostCall::KvLink { kv, path } => {
                self.file(kv)?;
                if self.names.contains_key(&path) {
                    return Err("kv: path already exists".into());
                }
                self.names.insert(path, kv);
                R::Unit
            }
            HostCall::KvUnlink(path) => {
                self.names.remove(&path).ok_or_else(not_found)?;
                R::Unit
            }
            HostCall::KvPin(kv) | HostCall::KvUnpin(kv) => {
                self.file(kv)?;
                R::Unit
            }
            HostCall::Emit(s) => {
                self.emitted.push_str(&s);
                R::Unit
            }
            HostCall::EmitTokens(toks) => {
                self.emitted.push_str(&detokenize(&toks));
                R::Unit
            }
            HostCall::CallTool { name, args } => {
                let out = self
                    .tools
                    .get(&name)
                    .ok_or_else(|| "not found".to_string())?;
                R::Text(out.replace("{args}", &args))
            }
            HostCall::Send { data, .. } => {
                // Loopback for tests.
                self.inbox.push_back((0, data));
                R::Unit
            }
            HostCall::Recv => {
                let (from, data) = self
                    .inbox
                    .pop_front()
                    .ok_or_else(|| "recv on empty mailbox (mock would deadlock)".to_string())?;
                R::Msg(from, data)
            }
            HostCall::Lookup(name) => R::MaybePid((name == "self").then_some(0)),
            HostCall::SleepMs(ms) => {
                self.clock_ms += ms as f64;
                R::Unit
            }
            HostCall::NowMs => R::Float(self.clock_ms),
            HostCall::Spawn {
                image,
                func,
                args,
                limits,
            } => {
                // Inline execution: good enough to test the plumbing.
                let mut interp = Interpreter::from_image(image, limits);
                let ok = interp.call_named(self, &func, args).is_ok();
                self.threads.push(ok);
                R::Thread(self.threads.len() as u64 - 1)
            }
            HostCall::Join(tid) => R::Joined(
                self.threads
                    .get(tid as usize)
                    .copied()
                    .ok_or_else(|| "not found".to_string())?,
            ),
        })
    }
}
