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
//!   ([`crate::Interpreter::run`]): the call goes to [`Host::call`], which
//!   by default dispatches to the trait's named methods. [`MockHost`] — no
//!   kernel at all — is that case; a hosted native LIP's [`symphony::Ctx`]
//!   overrides `call` to go through the same lowering as the inline path,
//!   so a program issues the same system calls whichever way it runs.
//!
//! [`Host`] is the sandbox boundary: a program can do nothing a `HostCall`
//! does not name.

use std::sync::Arc;

use symphony::{SysError, Tid};
use symphony_model::Dist;

use crate::ast::Program;
use crate::inline::{lift, lower};
use crate::interp::{InterpLimits, Interpreter};
use crate::value::Value;

/// Host call result; errors are surfaced to the program as runtime errors.
pub type HostResult<T> = Result<T, String>;

/// One request from a running program to its host — each variant is the
/// [`Host`] method of (nearly) the same name, as a value.
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
        program: Arc<Program>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    },
    Join(u64),
}

/// What a host answers a [`HostCall`] with: the `Ok` types of the
/// [`Host`] methods, as one value.
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

/// The system-call surface visible to LipScript builtins.
pub trait Host {
    /// The program's argument string.
    fn args(&self) -> String;
    /// The EOS token.
    fn eos(&self) -> u32;
    /// Content-vocabulary size hint for tail sampling.
    fn vocab_hint(&self) -> u32;
    /// Deterministic uniform draw in `[0, 1)`.
    fn rand_f64(&mut self) -> f64;
    /// Tokenises text.
    fn tokenize(&mut self, s: &str) -> HostResult<Vec<u32>>;
    /// Detokenises tokens.
    fn detokenize(&mut self, toks: &[u32]) -> HostResult<String>;
    /// The `pred` system call.
    fn pred(&mut self, kv: u64, tokens: &[(u32, u32)]) -> HostResult<Vec<Dist>>;
    /// Creates a KV file.
    fn kv_create(&mut self) -> HostResult<u64>;
    /// Opens a named KV file.
    fn kv_open(&mut self, path: &str) -> HostResult<u64>;
    /// Copy-on-write fork.
    fn kv_fork(&mut self, kv: u64) -> HostResult<u64>;
    /// Removes a file.
    fn kv_remove(&mut self, kv: u64) -> HostResult<()>;
    /// Token count of a file.
    fn kv_len(&mut self, kv: u64) -> HostResult<usize>;
    /// Next position after the file's tail.
    fn kv_next_pos(&mut self, kv: u64) -> HostResult<u32>;
    /// Truncates a file.
    fn kv_truncate(&mut self, kv: u64, len: usize) -> HostResult<()>;
    /// Extracts an entry range into a new file.
    fn kv_extract(&mut self, kv: u64, start: usize, end: usize) -> HostResult<u64>;
    /// Concatenates files into a new one.
    fn kv_merge(&mut self, kvs: &[u64]) -> HostResult<u64>;
    /// Publishes a file under a path.
    fn kv_link(&mut self, kv: u64, path: &str) -> HostResult<()>;
    /// Removes a path.
    fn kv_unlink(&mut self, path: &str) -> HostResult<()>;
    /// Pins a file.
    fn kv_pin(&mut self, kv: u64) -> HostResult<()>;
    /// Unpins a file.
    fn kv_unpin(&mut self, kv: u64) -> HostResult<()>;
    /// Streams text to the client.
    fn emit(&mut self, s: &str) -> HostResult<()>;
    /// Streams tokens to the client.
    fn emit_tokens(&mut self, toks: &[u32]) -> HostResult<()>;
    /// Invokes a server-side tool.
    fn call_tool(&mut self, name: &str, args: &str) -> HostResult<String>;
    /// Sends an IPC message.
    fn send_msg(&mut self, pid: u64, data: &str) -> HostResult<()>;
    /// Receives an IPC message (`(from_pid, data)`), blocking.
    fn recv_msg(&mut self) -> HostResult<(u64, String)>;
    /// Finds a live process by name.
    fn lookup(&mut self, name: &str) -> HostResult<Option<u64>>;
    /// Sleeps for virtual milliseconds.
    fn sleep_ms(&mut self, ms: u64) -> HostResult<()>;
    /// Current virtual time in milliseconds.
    fn now_ms(&mut self) -> HostResult<f64>;
    /// Spawns `func(args...)` from `program` on a new thread.
    fn spawn_fn(
        &mut self,
        program: Arc<Program>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    ) -> HostResult<u64>;
    /// Joins a spawned thread; `true` if it exited cleanly.
    fn join_thread(&mut self, tid: u64) -> HostResult<bool>;

    /// Answers one request of a running program, blocking until the answer
    /// exists. This is what the interpreter's driver loop calls; the
    /// default hands the request to the named method it stands for.
    fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
        use HostReply as R;
        let unit = |done: HostResult<()>| done.map(|()| R::Unit);
        Ok(match call {
            HostCall::Args => R::Text(self.args()),
            HostCall::Eos => R::Int(self.eos() as i64),
            HostCall::Rand => R::Float(self.rand_f64()),
            HostCall::Sample(dist) => {
                let u = self.rand_f64();
                R::Int(dist.sample_with(u, self.vocab_hint()) as i64)
            }
            HostCall::Tokenize(s) => R::Tokens(self.tokenize(&s)?),
            HostCall::Detokenize(toks) => R::Text(self.detokenize(&toks)?),
            HostCall::Pred { kv, tokens } => R::Dists(self.pred(kv, &tokens)?),
            HostCall::KvCreate => R::Handle(self.kv_create()?),
            HostCall::KvOpen(path) => R::Handle(self.kv_open(&path)?),
            HostCall::KvFork(kv) => R::Handle(self.kv_fork(kv)?),
            HostCall::KvRemove(kv) => unit(self.kv_remove(kv))?,
            HostCall::KvLen(kv) => R::Int(self.kv_len(kv)? as i64),
            HostCall::KvNextPos(kv) => R::Int(self.kv_next_pos(kv)? as i64),
            HostCall::KvTruncate { kv, len } => unit(self.kv_truncate(kv, len))?,
            HostCall::KvExtract { kv, start, end } => R::Handle(self.kv_extract(kv, start, end)?),
            HostCall::KvMerge(kvs) => R::Handle(self.kv_merge(&kvs)?),
            HostCall::KvLink { kv, path } => unit(self.kv_link(kv, &path))?,
            HostCall::KvUnlink(path) => unit(self.kv_unlink(&path))?,
            HostCall::KvPin(kv) => unit(self.kv_pin(kv))?,
            HostCall::KvUnpin(kv) => unit(self.kv_unpin(kv))?,
            HostCall::Emit(s) => unit(self.emit(&s))?,
            HostCall::EmitTokens(toks) => unit(self.emit_tokens(&toks))?,
            HostCall::CallTool { name, args } => R::Text(self.call_tool(&name, &args)?),
            HostCall::Send { pid, data } => unit(self.send_msg(pid, &data))?,
            HostCall::Recv => {
                let (from, data) = self.recv_msg()?;
                R::Msg(from, data)
            }
            HostCall::Lookup(name) => R::MaybePid(self.lookup(&name)?),
            HostCall::SleepMs(ms) => unit(self.sleep_ms(ms))?,
            HostCall::NowMs => R::Float(self.now_ms()?),
            HostCall::Spawn {
                program,
                func,
                args,
                limits,
            } => R::Thread(self.spawn_fn(program, func, args, limits)?),
            HostCall::Join(tid) => R::Joined(self.join_thread(tid)?),
        })
    }
}

fn se(e: SysError) -> String {
    e.to_string()
}

/// A hosted native LIP's context as a LipScript host (what `run_lip`
/// runs on). The interpreter reaches the kernel through [`Host::call`],
/// overridden here to share [`crate::inline`]'s lowering with the inline
/// path; the named methods serve Rust code that holds a `dyn Host`.
impl Host for symphony::Ctx {
    fn call(&mut self, call: HostCall) -> HostResult<HostReply> {
        lower(call, self).or_else(|call| lift(self.syscall(call)))
    }

    fn args(&self) -> String {
        symphony::ThreadEnv::args(self)
    }

    fn eos(&self) -> u32 {
        symphony::ThreadEnv::eos(self)
    }

    fn vocab_hint(&self) -> u32 {
        self.specials().bos
    }

    fn rand_f64(&mut self) -> f64 {
        self.rng_f64()
    }

    fn tokenize(&mut self, s: &str) -> HostResult<Vec<u32>> {
        symphony::Ctx::tokenize(self, s).map_err(se)
    }

    fn detokenize(&mut self, toks: &[u32]) -> HostResult<String> {
        symphony::Ctx::detokenize(self, toks).map_err(se)
    }

    fn pred(&mut self, kv: u64, tokens: &[(u32, u32)]) -> HostResult<Vec<Dist>> {
        symphony::Ctx::pred(self, symphony::FileId(kv), tokens).map_err(se)
    }

    fn kv_create(&mut self) -> HostResult<u64> {
        symphony::Ctx::kv_create(self).map(|f| f.0).map_err(se)
    }

    fn kv_open(&mut self, path: &str) -> HostResult<u64> {
        symphony::Ctx::kv_open(self, path).map(|f| f.0).map_err(se)
    }

    fn kv_fork(&mut self, kv: u64) -> HostResult<u64> {
        symphony::Ctx::kv_fork(self, symphony::FileId(kv))
            .map(|f| f.0)
            .map_err(se)
    }

    fn kv_remove(&mut self, kv: u64) -> HostResult<()> {
        symphony::Ctx::kv_remove(self, symphony::FileId(kv)).map_err(se)
    }

    fn kv_len(&mut self, kv: u64) -> HostResult<usize> {
        symphony::Ctx::kv_len(self, symphony::FileId(kv)).map_err(se)
    }

    fn kv_next_pos(&mut self, kv: u64) -> HostResult<u32> {
        symphony::Ctx::kv_next_pos(self, symphony::FileId(kv)).map_err(se)
    }

    fn kv_truncate(&mut self, kv: u64, len: usize) -> HostResult<()> {
        symphony::Ctx::kv_truncate(self, symphony::FileId(kv), len).map_err(se)
    }

    fn kv_extract(&mut self, kv: u64, start: usize, end: usize) -> HostResult<u64> {
        // kv_extract takes a slice of ranges; this host call extracts one.
        #[allow(clippy::single_range_in_vec_init)]
        let ranges = [start..end];
        symphony::Ctx::kv_extract(self, symphony::FileId(kv), &ranges)
            .map(|f| f.0)
            .map_err(se)
    }

    fn kv_merge(&mut self, kvs: &[u64]) -> HostResult<u64> {
        let files: Vec<symphony::FileId> = kvs.iter().map(|&k| symphony::FileId(k)).collect();
        symphony::Ctx::kv_merge(self, &files).map(|f| f.0).map_err(se)
    }

    fn kv_link(&mut self, kv: u64, path: &str) -> HostResult<()> {
        symphony::Ctx::kv_link(self, symphony::FileId(kv), path).map_err(se)
    }

    fn kv_unlink(&mut self, path: &str) -> HostResult<()> {
        symphony::Ctx::kv_unlink(self, path).map_err(se)
    }

    fn kv_pin(&mut self, kv: u64) -> HostResult<()> {
        symphony::Ctx::kv_pin(self, symphony::FileId(kv)).map_err(se)
    }

    fn kv_unpin(&mut self, kv: u64) -> HostResult<()> {
        symphony::Ctx::kv_unpin(self, symphony::FileId(kv)).map_err(se)
    }

    fn emit(&mut self, s: &str) -> HostResult<()> {
        symphony::Ctx::emit(self, s).map_err(se)
    }

    fn emit_tokens(&mut self, toks: &[u32]) -> HostResult<()> {
        symphony::Ctx::emit_tokens(self, toks).map_err(se)
    }

    fn call_tool(&mut self, name: &str, args: &str) -> HostResult<String> {
        symphony::Ctx::call_tool(self, name, args).map_err(se)
    }

    fn send_msg(&mut self, pid: u64, data: &str) -> HostResult<()> {
        symphony::Ctx::send_msg(self, symphony::Pid(pid), data).map_err(se)
    }

    fn recv_msg(&mut self) -> HostResult<(u64, String)> {
        symphony::Ctx::recv_msg(self)
            .map(|m| (m.from.0, m.data))
            .map_err(se)
    }

    fn lookup(&mut self, name: &str) -> HostResult<Option<u64>> {
        self.lookup_process(name).map(|p| p.map(|p| p.0)).map_err(se)
    }

    fn sleep_ms(&mut self, ms: u64) -> HostResult<()> {
        self.sleep(symphony::SimDuration::from_millis(ms)).map_err(se)
    }

    fn now_ms(&mut self) -> HostResult<f64> {
        self.now().map(|t| t.as_secs_f64() * 1e3).map_err(se)
    }

    fn spawn_fn(
        &mut self,
        program: Arc<Program>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    ) -> HostResult<u64> {
        let tid = self
            .spawn(move |tctx| {
                let mut interp = Interpreter::new(program, limits);
                interp
                    .call_named(tctx, &func, args)
                    .map(|_| ())
                    .map_err(|e| SysError::ToolFailed(e.to_string()))
            })
            .map_err(se)?;
        Ok(tid.0)
    }

    fn join_thread(&mut self, tid: u64) -> HostResult<bool> {
        self.join(Tid(tid)).map(|s| s.is_ok()).map_err(se)
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

    /// Deterministic fake distribution: peaked at a hash of the context
    /// length and last token, with EOS at rank 2 periodically.
    fn fake_dist(&self, kv_contents: &[(u32, u32)]) -> Dist {
        let last = kv_contents.last().map(|&(t, _)| t as u64).unwrap_or(0);
        let n = kv_contents.len() as u64;
        let h = (last ^ (n.wrapping_mul(0x9E37_79B9_7F4A_7C15))).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let top = (h % 200) as u32;
        let second = (top + 1) % 200;
        if n % 13 == 12 {
            Dist::from_weights(vec![(self.eos(), 5.0), (top, 1.0)], 0.2, 100)
        } else {
            Dist::from_weights(vec![(top, 5.0), (second, 2.0), (self.eos(), 0.1)], 0.2, 100)
        }
    }
}

impl Host for MockHost {
    fn args(&self) -> String {
        self.args.clone()
    }

    fn eos(&self) -> u32 {
        999
    }

    fn vocab_hint(&self) -> u32 {
        998
    }

    fn rand_f64(&mut self) -> f64 {
        self.rng_state ^= self.rng_state << 13;
        self.rng_state ^= self.rng_state >> 7;
        self.rng_state ^= self.rng_state << 17;
        (self.rng_state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn tokenize(&mut self, s: &str) -> HostResult<Vec<u32>> {
        // One token per whitespace-separated word: a stable toy mapping.
        Ok(s
            .split_whitespace()
            .map(|w| w.bytes().fold(7u32, |a, b| a.wrapping_mul(31) + b as u32) % 900)
            .collect())
    }

    fn detokenize(&mut self, toks: &[u32]) -> HostResult<String> {
        Ok(toks
            .iter()
            .map(|t| format!("<{t}>"))
            .collect::<Vec<_>>()
            .join(""))
    }

    fn pred(&mut self, kv: u64, tokens: &[(u32, u32)]) -> HostResult<Vec<Dist>> {
        let mut dists = Vec::with_capacity(tokens.len());
        for &(t, p) in tokens {
            self.file(kv)?.push((t, p));
            let contents = self.file(kv)?.clone();
            dists.push(self.fake_dist(&contents));
        }
        Ok(dists)
    }

    fn kv_create(&mut self) -> HostResult<u64> {
        self.files.push(Some(Vec::new()));
        Ok(self.files.len() as u64 - 1)
    }

    fn kv_open(&mut self, path: &str) -> HostResult<u64> {
        self.names
            .get(path)
            .copied()
            .ok_or_else(|| "kv: file not found".to_string())
    }

    fn kv_fork(&mut self, kv: u64) -> HostResult<u64> {
        let contents = self.file(kv)?.clone();
        self.files.push(Some(contents));
        Ok(self.files.len() as u64 - 1)
    }

    fn kv_remove(&mut self, kv: u64) -> HostResult<()> {
        self.file(kv)?;
        self.files[kv as usize] = None;
        Ok(())
    }

    fn kv_len(&mut self, kv: u64) -> HostResult<usize> {
        Ok(self.file(kv)?.len())
    }

    fn kv_next_pos(&mut self, kv: u64) -> HostResult<u32> {
        Ok(self.file(kv)?.last().map_or(0, |&(_, p)| p + 1))
    }

    fn kv_truncate(&mut self, kv: u64, len: usize) -> HostResult<()> {
        let f = self.file(kv)?;
        if len > f.len() {
            return Err("kv: index or range out of bounds".into());
        }
        f.truncate(len);
        Ok(())
    }

    fn kv_extract(&mut self, kv: u64, start: usize, end: usize) -> HostResult<u64> {
        let f = self.file(kv)?;
        if start > end || end > f.len() {
            return Err("kv: index or range out of bounds".into());
        }
        let part = f[start..end].to_vec();
        self.files.push(Some(part));
        Ok(self.files.len() as u64 - 1)
    }

    fn kv_merge(&mut self, kvs: &[u64]) -> HostResult<u64> {
        let mut all = Vec::new();
        for &k in kvs {
            all.extend(self.file(k)?.iter().copied());
        }
        self.files.push(Some(all));
        Ok(self.files.len() as u64 - 1)
    }

    fn kv_link(&mut self, kv: u64, path: &str) -> HostResult<()> {
        self.file(kv)?;
        if self.names.contains_key(path) {
            return Err("kv: path already exists".into());
        }
        self.names.insert(path.to_string(), kv);
        Ok(())
    }

    fn kv_unlink(&mut self, path: &str) -> HostResult<()> {
        self.names
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| "kv: file not found".to_string())
    }

    fn kv_pin(&mut self, kv: u64) -> HostResult<()> {
        self.file(kv).map(|_| ())
    }

    fn kv_unpin(&mut self, kv: u64) -> HostResult<()> {
        self.file(kv).map(|_| ())
    }

    fn emit(&mut self, s: &str) -> HostResult<()> {
        self.emitted.push_str(s);
        Ok(())
    }

    fn emit_tokens(&mut self, toks: &[u32]) -> HostResult<()> {
        let text = self.detokenize(toks)?;
        self.emitted.push_str(&text);
        Ok(())
    }

    fn call_tool(&mut self, name: &str, args: &str) -> HostResult<String> {
        self.tools
            .get(name)
            .map(|out| out.replace("{args}", args))
            .ok_or_else(|| "not found".to_string())
    }

    fn send_msg(&mut self, _pid: u64, data: &str) -> HostResult<()> {
        // Loopback for tests.
        self.inbox.push_back((0, data.to_string()));
        Ok(())
    }

    fn recv_msg(&mut self) -> HostResult<(u64, String)> {
        self.inbox
            .pop_front()
            .ok_or_else(|| "recv on empty mailbox (mock would deadlock)".to_string())
    }

    fn lookup(&mut self, name: &str) -> HostResult<Option<u64>> {
        Ok(if name == "self" { Some(0) } else { None })
    }

    fn sleep_ms(&mut self, ms: u64) -> HostResult<()> {
        self.clock_ms += ms as f64;
        Ok(())
    }

    fn now_ms(&mut self) -> HostResult<f64> {
        Ok(self.clock_ms)
    }

    fn spawn_fn(
        &mut self,
        program: Arc<Program>,
        func: String,
        args: Vec<Value>,
        limits: InterpLimits,
    ) -> HostResult<u64> {
        // Inline execution: good enough to test the plumbing.
        let mut interp = Interpreter::new(program, limits);
        let ok = interp.call_named(self, &func, args).is_ok();
        self.threads.push(ok);
        Ok(self.threads.len() as u64 - 1)
    }

    fn join_thread(&mut self, tid: u64) -> HostResult<bool> {
        self.threads
            .get(tid as usize)
            .copied()
            .ok_or_else(|| "not found".to_string())
    }
}
