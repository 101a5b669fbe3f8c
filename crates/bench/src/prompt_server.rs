//! A prompt server, written as a program: the vLLM and TGI baselines of
//! Fig. 3 and E7.
//!
//! A prompt server takes a whole prompt per request and keeps nothing a
//! client can name. Here each request is one process of one LIP on the
//! same kernel as the Symphony side of the experiment, so the comparison
//! isolates *who* sets KV cache policy: the application (the Symphony
//! LIPs) or a system-wide rule it cannot see past (this program).
//!
//! - **vLLM's automatic prefix caching** is a [`PrefixTable`] shared by
//!   every process of the server, the way one server's request threads
//!   share memory: block-aligned longest-common-prefix reuse, insertion
//!   that converges entries sharing most of a prefix, and LRU eviction
//!   when a `pred` does not fit. Each entry is a published KV file.
//! - **Preemption** is the program's: when a `pred` does not fit and no
//!   entry is left to evict, the request releases its file and retries
//!   after a backoff (the one Fig. 3's RAG LIP uses), recomputing its
//!   prompt.
//! - **No table** is vLLM as the paper ran it (APC off) and TGI alike: the
//!   kernel has no admission that reserves a request's whole output, so
//!   the two are the same program.

use std::sync::{Arc, Mutex, PoisonError};

use symphony::{Body, Ctx, FileId, KvError, Mode, SimDuration, SysError, TokenId};

/// One cached prefix: the published file at `path` holds `tokens`' KV.
#[derive(Debug, Clone)]
struct Entry {
    tokens: Vec<TokenId>,
    path: String,
    last_used: u64,
}

/// A table lookup's answer: fork `path` and keep its first `covered`
/// tokens (block-aligned, at least one block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// The cached file's path.
    pub path: String,
    /// Prompt tokens the cached file covers.
    pub covered: usize,
}

/// What [`PrefixTable::insert`] decided for a finished request's file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Cache nothing: the prompt is shorter than a block.
    Drop,
    /// An entry already holds the bulk of this prompt; shrink it to
    /// `shrink_to` tokens when set. The request's file is not kept.
    Keep {
        /// The existing entry's path.
        path: String,
        /// Its new length, when the shared prefix is shorter than it.
        shrink_to: Option<usize>,
    },
    /// Truncate the request's file to `len` tokens and publish it at
    /// `path`.
    New {
        /// Where the entry's file goes.
        path: String,
        /// Its block-aligned length.
        len: usize,
    },
}

/// vLLM's prefix cache as a table of published KV files. It issues no
/// store calls: the process that asked does what the answer says.
#[derive(Debug)]
pub struct PrefixTable {
    entries: Vec<Entry>,
    block: usize,
    clock: u64,
    paths: u64,
}

/// The whole `block`-token blocks `a` and `b` start with in common.
fn common_blocks(a: &[TokenId], b: &[TokenId], block: usize) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count() / block * block
}

impl PrefixTable {
    /// An empty table caching whole blocks (KV pages) of `block` tokens.
    pub fn new(block: usize) -> Self {
        assert!(block > 0);
        PrefixTable {
            entries: Vec::new(),
            block,
            clock: 0,
            paths: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn stamp(&mut self, i: usize) {
        self.clock += 1;
        self.entries[i].last_used = self.clock;
    }

    /// The entry with the longest block-aligned common prefix of `prompt`
    /// (at least one block), now the most recently used.
    pub fn lookup(&mut self, prompt: &[TokenId]) -> Option<Hit> {
        let mut best: Option<(usize, usize)> = None; // (covered, index)
        for (i, e) in self.entries.iter().enumerate() {
            let covered = common_blocks(&e.tokens, prompt, self.block);
            if covered >= self.block && best.is_none_or(|(c, _)| covered > c) {
                best = Some((covered, i));
            }
        }
        let (covered, i) = best?;
        self.stamp(i);
        Some(Hit {
            path: self.entries[i].path.clone(),
            covered,
        })
    }

    /// Places a finished request's prompt. An entry whose shared prefix
    /// with it is at least a block and the bulk of the shorter of the two
    /// (the "same document, different query" case) absorbs it, shrunk to
    /// that prefix; entries sharing only a few leading blocks stay apart,
    /// as they would under block-granular caching.
    pub fn insert(&mut self, prompt: &[TokenId]) -> Placement {
        let aligned = prompt.len() / self.block * self.block;
        if aligned == 0 {
            return Placement::Drop;
        }
        let tokens = &prompt[..aligned];
        for i in 0..self.entries.len() {
            let e = &mut self.entries[i];
            let covered = common_blocks(&e.tokens, tokens, self.block);
            if covered >= self.block && covered * 2 >= e.tokens.len().min(aligned) {
                let shrink_to = (covered < e.tokens.len()).then_some(covered);
                e.tokens.truncate(covered);
                let path = e.path.clone();
                self.stamp(i);
                return Placement::Keep { path, shrink_to };
            }
        }
        self.paths += 1;
        let path = format!("apc/{}", self.paths);
        self.clock += 1;
        self.entries.push(Entry {
            tokens: tokens.to_vec(),
            path: path.clone(),
            last_used: self.clock,
        });
        Placement::New { path, len: aligned }
    }

    /// Forgets the least recently used entry; the path of its file, which
    /// the caller removes.
    pub fn evict_lru(&mut self) -> Option<String> {
        let (i, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)?;
        Some(self.entries.remove(i).path)
    }
}

/// A published entry's mode: readable to fork, writable so that a later
/// request may shrink or remove it after its creator has exited.
const ENTRY: Mode = Mode {
    read_all: true,
    write_all: true,
};

/// What ends a response: the prompt tokens the table served, the way an
/// OpenAI-style response reports `usage.prompt_tokens_details.cached_tokens`.
const CACHED_TOKENS: &str = "\ncached_tokens=";

/// A response's completion text and the prompt tokens its request took
/// from the table (0 for a response without the count).
pub fn split_response(output: &str) -> (&str, u64) {
    match output.rsplit_once(CACHED_TOKENS) {
        Some((text, n)) => (text, n.parse().unwrap_or(0)),
        None => (output, 0),
    }
}

/// The prompt server: one request per process, its prompt text the args.
#[derive(Debug, Clone)]
pub struct PromptServer {
    /// vLLM's prefix cache, shared by the server's processes; `None`
    /// caches nothing. Only one LIP body runs at a time, so the lock is
    /// never contended; no caller holds it across a system call.
    pub table: Option<Arc<Mutex<PrefixTable>>>,
    /// Generation cap per request.
    pub max_tokens: usize,
}

impl PromptServer {
    /// A server with automatic prefix caching over `block`-token blocks.
    pub fn with_apc(block: usize, max_tokens: usize) -> Self {
        PromptServer {
            table: Some(Arc::new(Mutex::new(PrefixTable::new(block)))),
            max_tokens,
        }
    }

    /// A server that caches nothing.
    pub fn without_cache(max_tokens: usize) -> Self {
        PromptServer {
            table: None,
            max_tokens,
        }
    }

    /// One request's process body.
    pub fn body(&self) -> Body {
        let server = self.clone();
        Body::hosted(move |ctx| server.serve(ctx))
    }

    /// Tokenizes the prompt, then serves it greedily, backing off while the
    /// pool is full.
    fn serve(&self, ctx: &mut Ctx) -> Result<(), SysError> {
        let prompt = ctx.tokenize(&ctx.args())?;
        if prompt.is_empty() {
            return Err(SysError::BadArgument);
        }
        with_backoff(ctx, |ctx| self.attempt(ctx, &prompt))
    }

    /// One attempt; holds no KV when it fails.
    fn attempt(&self, ctx: &mut Ctx, prompt: &[TokenId]) -> Result<(), SysError> {
        let (kv, covered) = self.open(ctx, prompt)?;
        let out = greedy(ctx, kv, &prompt[covered..], self.max_tokens, &mut |ctx| {
            self.evict(ctx)
        });
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                let _ = ctx.kv_remove(kv);
                return Err(e);
            }
        };
        ctx.emit_tokens(&out)?;
        ctx.emit(&format!("{CACHED_TOKENS}{covered}"))?;
        self.keep(ctx, kv, prompt)
    }

    fn table(&self) -> Option<std::sync::MutexGuard<'_, PrefixTable>> {
        let table = self.table.as_ref()?;
        Some(table.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The request's file: a fork of the longest cached prefix, cut to
    /// leave at least one prompt token to prefill, or a new one.
    fn open(&self, ctx: &mut Ctx, prompt: &[TokenId]) -> Result<(FileId, usize), SysError> {
        let hit = self.table().and_then(|mut t| t.lookup(prompt));
        if let Some(hit) = hit {
            // An entry whose file is not yet published (or already
            // removed) is a miss.
            if let Ok(cached) = ctx.kv_open(&hit.path) {
                let kv = ctx.kv_fork(cached)?;
                let covered = hit.covered.min(prompt.len() - 1);
                // Cutting inside a page copies it, which may not fit.
                if let Err(e) = ctx.kv_truncate(kv, covered) {
                    let _ = ctx.kv_remove(kv);
                    return Err(e);
                }
                return Ok((kv, covered));
            }
        }
        Ok((ctx.kv_create()?, 0))
    }

    /// Removes the least recently used entry's file; `false` once the
    /// table is empty.
    fn evict(&self, ctx: &mut Ctx) -> bool {
        let Some(path) = self.table().and_then(|mut t| t.evict_lru()) else {
            return false;
        };
        if let Ok(f) = ctx.kv_open(&path) {
            let _ = ctx.kv_remove(f);
        }
        true
    }

    /// Publishes the finished request's prompt KV where the table placed
    /// it, or removes the file.
    fn keep(&self, ctx: &mut Ctx, kv: FileId, prompt: &[TokenId]) -> Result<(), SysError> {
        let placement = self.table().map(|mut t| t.insert(prompt));
        match placement {
            Some(Placement::New { path, len }) => {
                ctx.kv_truncate(kv, len)?;
                ctx.kv_link(kv, &path)?;
                ctx.kv_chmod(kv, ENTRY)
            }
            Some(Placement::Keep {
                path,
                shrink_to: Some(len),
            }) => {
                if let Ok(f) = ctx.kv_open(&path) {
                    let _ = ctx.kv_truncate(f, len);
                }
                ctx.kv_remove(kv)
            }
            _ => ctx.kv_remove(kv),
        }
    }
}

/// The engine's decoding loop: extends `kv` past `prompt` (non-empty)
/// greedily until EOS or `max_tokens`, asking `make_room` for pages
/// whenever a `pred` does not fit (`NoGpuMemory`) and sending the same
/// `pred` again while it says it freed some. The tokens, EOS excluded. It
/// makes `decode.lip`'s system calls: `kv_next_pos`, one `pred` over the
/// prompt, then per token its argmax and a `pred`.
fn greedy(
    ctx: &mut Ctx,
    kv: FileId,
    prompt: &[TokenId],
    max_tokens: usize,
    make_room: &mut dyn FnMut(&mut Ctx) -> bool,
) -> Result<Vec<TokenId>, SysError> {
    let mut pred = |ctx: &mut Ctx, tokens: &[TokenId], at: u32| loop {
        match ctx.pred_positions(kv, tokens, at) {
            Err(SysError::Kv(KvError::NoGpuMemory)) if make_room(ctx) => {}
            reply => return reply?.last().ok_or(SysError::BadArgument),
        }
    };
    let mut pos = ctx.kv_next_pos(kv)?;
    let mut dist = pred(ctx, prompt, pos)?;
    pos += prompt.len() as u32;
    let (eos, mut tokens) = (ctx.eos(), Vec::new());
    while tokens.len() < max_tokens && dist.argmax() != eos {
        tokens.push(dist.argmax());
        dist = pred(ctx, &tokens[tokens.len() - 1..], pos)?;
        pos += 1;
    }
    Ok(tokens)
}

/// Runs `attempt` until it succeeds. After each `NoGpuMemory` it sleeps a
/// jittered exponential backoff (100 ms doubling to 6.4 s, plus up to as
/// much again; Fig. 3's RAG LIP backs off the same way), so an attempt
/// must release every page it holds before it fails: a sleeping request
/// pins nothing. Any other error ends it; so does the fortieth full pool.
fn with_backoff(
    ctx: &mut Ctx,
    mut attempt: impl FnMut(&mut Ctx) -> Result<(), SysError>,
) -> Result<(), SysError> {
    for n in 0..40u32 {
        match attempt(ctx) {
            Err(SysError::Kv(KvError::NoGpuMemory)) => {
                let base = 100u64 << n.min(6);
                let jitter = ctx.rng_u64() % base;
                ctx.sleep(SimDuration::from_millis(base + jitter))?;
            }
            done => return done,
        }
    }
    Err(SysError::Kv(KvError::NoGpuMemory))
}
