//! The four workloads: what each serves, on which kernel, at what load.
//!
//! Everything here is input generation and server configuration. The
//! generators draw from `symphony_workloads` traces under `--seed`; the
//! program under test only ever sees the generated SUBMITs.

use std::collections::BTreeMap;
use std::sync::Arc;

use symphony::{
    ContinuousConfig, ExecMode, Kernel, KernelConfig, MlfqConfig, Mode, QueueDiscipline,
    SimDuration, ToolOutcome, ToolSpec,
};
use symphony_serve::replay::{agent_source, rag_source, standard_kernel};
use symphony_sim::Rng;
use symphony_tokenizer::CorpusGen;
use symphony_workloads::{AgentWorkload, RagWorkload};

/// Connections per epoch, one tenant each.
pub const CONNS: usize = 32;
/// SUBMITs per connection per epoch: the shipped per-tenant quota.
pub const SUBMITS_PER_CONN: usize = 8;
/// Sessions per epoch: the shipped live-session cap.
pub const EPOCH_SESSIONS: usize = CONNS * SUBMITS_PER_CONN;

/// Documents preloaded for `rag_churn`, about three GPU KV pools' worth.
pub const RAG_DOCS: usize = 80;
/// One `rag_churn` session in this many publishes instead of reading.
pub const RAG_PUBLISH_EVERY: u64 = 16;
/// Tokens each RAG reader generates.
const RAG_GEN_TOKENS: usize = 16;
/// Seed of the preloaded corpus. Server state, like the tokenizer: it
/// does not follow `--seed`, so set-up cost and the isolation re-run see
/// the same documents on every run.
const CORPUS_SEED: u64 = 0xD0C5;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Tool-calling agents over in-process SYMR.
    AgentLoop,
    /// RAG readers and publishers over in-process SYMR.
    RagChurn,
    /// `AgentLoop`'s programs straight into the durable kernel API.
    AgentDurable,
    /// `AgentLoop`'s programs against the real `symphony-serve` socket.
    TcpAgent,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::AgentLoop,
    Workload::RagChurn,
    Workload::AgentDurable,
    Workload::TcpAgent,
];

/// Load and length constants measured once at [`FROZEN_COMMIT`] (with
/// `--calibrate`) and frozen, so later commits are compared under the
/// load this one was measured under. `BENCHMARK.json` carries them in
/// each workload's `why`.
#[derive(Debug, Clone, Copy)]
pub struct Frozen {
    /// Highest Poisson arrival rate, sessions per virtual second, the
    /// server sustained: median latency within 3× its value with
    /// sessions running alone, and completions keeping up with arrivals.
    pub saturation_per_s: f64,
    /// Epochs in a 10 s window: fixed work, sized so the window takes
    /// about 10 s at the frozen commit. `--seconds` scales it.
    pub epochs_per_10s: usize,
    /// TTFT limit: 3× the median TTFT at one tenth of the arrival rate.
    pub slo_ttft_ms: f64,
    /// Limit on a session's p99 inter-token gap, derived the same way.
    pub slo_itl_ms: f64,
}

/// Commit the [`Frozen`] constants were measured at (on the 2-core
/// x86-64 sandbox, pinned); `--calibrate` prints it next to what it
/// measures now.
pub const FROZEN_COMMIT: &str = "126ac52";
/// Generator seed they were measured under.
pub const FROZEN_SEED: u64 = 1;

/// Arrival rate as a share of the saturation rate.
pub const LOAD: f64 = 0.8;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AgentLoop => "agent_loop",
            Workload::RagChurn => "rag_churn",
            Workload::AgentDurable => "agent_durable",
            Workload::TcpAgent => "tcp_agent",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The frozen load constants.
    pub fn frozen(self) -> Frozen {
        match self {
            Workload::AgentLoop => Frozen {
                saturation_per_s: 44.67,
                epochs_per_10s: 26,
                slo_ttft_ms: 58.623,
                slo_itl_ms: 159.904,
            },
            Workload::RagChurn => Frozen {
                saturation_per_s: 8.992,
                epochs_per_10s: 90,
                slo_ttft_ms: 42.408,
                slo_itl_ms: 42.075,
            },
            // Same programs, same schedule and same limits as
            // `agent_loop`, so the pair differs in durability only;
            // fewer epochs because each takes longer.
            Workload::AgentDurable => Frozen {
                epochs_per_10s: 18,
                ..Workload::AgentLoop.frozen()
            },
            // No virtual arrival schedule over a socket, so no
            // saturation rate; the limits are 3× the medians of one
            // connection with one session in flight.
            Workload::TcpAgent => Frozen {
                saturation_per_s: 0.0,
                epochs_per_10s: 36,
                slo_ttft_ms: 6.026,
                slo_itl_ms: 27.227,
            },
        }
    }

    /// Open-loop arrival rate in sessions per virtual second.
    pub fn arrival_rate(self) -> f64 {
        LOAD * self.frozen().saturation_per_s
    }

    /// The kernel configuration this workload is served on. `traced`
    /// switches on typed telemetry and causal edges for the traced run.
    pub fn kernel_config(self, traced: bool) -> KernelConfig {
        let mut cfg = match self {
            // What `symphony-serve` itself boots; the in-process replica
            // used to check `tcp_agent`'s bytes must match it.
            Workload::TcpAgent => KernelConfig::for_tests(),
            _ => KernelConfig::paper_setup(),
        };
        match self {
            Workload::AgentLoop | Workload::AgentDurable => {
                cfg.exec = ExecMode::Continuous(ContinuousConfig {
                    chunk_tokens: Some(512),
                    discipline: QueueDiscipline::Mlfq(MlfqConfig {
                        levels: 4,
                        quantum_tokens: 256,
                    }),
                });
            }
            // The static batcher surfaces a non-resident KV file to the
            // program as an error and LipScript has no `kv_swap_in`, so
            // a corpus larger than the GPU pool can only be served by
            // the continuous executor, which swaps in and evicts itself.
            Workload::RagChurn => {
                cfg.exec = ExecMode::Continuous(ContinuousConfig {
                    chunk_tokens: Some(512),
                    discipline: QueueDiscipline::Fifo,
                });
            }
            Workload::TcpAgent => {}
        }
        cfg.telemetry = traced;
        cfg.causal = traced;
        cfg
    }

    /// Builds the serving kernel: configuration, tools, preloaded KV.
    pub fn build_kernel(self, traced: bool) -> Kernel {
        self.build_kernel_with(self.kernel_config(traced))
    }

    /// [`Workload::build_kernel`] on an adjusted configuration (the
    /// durable driver adds its WAL).
    pub fn build_kernel_with(self, cfg: KernelConfig) -> Kernel {
        match self {
            Workload::TcpAgent => standard_kernel(cfg),
            Workload::AgentLoop | Workload::AgentDurable => {
                let mut kernel = Kernel::new(cfg);
                register_echo(&mut kernel);
                kernel
            }
            Workload::RagChurn => {
                let mut kernel = Kernel::new(cfg);
                kernel.register_tool(
                    "retrieve",
                    ToolSpec::fixed(SimDuration::from_millis(30), |args| {
                        match parse_doc_spec(args) {
                            Some((seed, words)) => ToolOutcome::Ok(doc_text(seed, words)),
                            None => ToolOutcome::Failed(format!("bad doc spec `{args}`")),
                        }
                    }),
                );
                // Slow enough (≥ `offload_min_latency`) that the kernel
                // offloads the publisher's fresh KV to DRAM while it
                // waits and restores it afterwards.
                kernel.register_tool(
                    "index",
                    ToolSpec::fixed(SimDuration::from_millis(25), |args| {
                        ToolOutcome::Ok(format!("indexed {args}"))
                    }),
                );
                preload_corpus(&mut kernel);
                kernel
            }
        }
    }
}

fn register_echo(kernel: &mut Kernel) {
    kernel.register_tool(
        "echo",
        ToolSpec::fixed(SimDuration::from_millis(5), |args| {
            ToolOutcome::Ok(args.to_string())
        }),
    );
}

/// Words in corpus document `doc`: 800–2400, about 1–3k tokens.
fn corpus_doc_words(doc: usize) -> usize {
    800 + (doc * 7919) % 1601
}

fn doc_text(seed: u64, words: usize) -> String {
    CorpusGen::new(seed).paragraph(words)
}

fn parse_doc_spec(spec: &str) -> Option<(u64, usize)> {
    let (seed, words) = spec.split_once('|')?;
    let words: usize = words.parse().ok()?;
    // Bound what a request can make the tool allocate.
    (words <= 4096).then_some((seed.parse().ok()?, words))
}

/// Preloads `doc0.kv ..` shared-read and leaves them in the DRAM tier:
/// the corpus is about three GPU pools, so each document is swapped out
/// as soon as it is written and the run itself decides what gets hot.
fn preload_corpus(kernel: &mut Kernel) {
    for doc in 0..RAG_DOCS {
        let text = doc_text(CORPUS_SEED ^ doc as u64, corpus_doc_words(doc));
        let tokens = kernel.tokenizer().encode(&text);
        let file = kernel
            .preload_kv(&format!("doc{doc}.kv"), &tokens, Mode::SHARED_READ, false)
            .expect("preload into an empty GPU pool");
        kernel
            .store_mut()
            .swap_out(file, symphony::OwnerId::ADMIN)
            .expect("DRAM tier holds the corpus");
    }
}

/// The publisher program: fetch a document, prefill it into a fresh KV
/// file, stream one token, publish the file under a path, notify an
/// indexer (the KV is offloaded while that waits), then withdraw it.
/// LipScript has no `kv_chmod`, so a file a session links stays private
/// to it; the program therefore unlinks before exiting, which also
/// keeps the store from growing with session count.
const PUBLISHER_SOURCE: &str = r#"let parts = split(args(), "|");
let text = call_tool("retrieve", parts[1] + "|" + parts[2]);
let kv = kv_create();
let toks = tokenize(text);
let d = pred(kv, toks, 0)[len(toks) - 1];
emit_token(argmax(d));
let path = "pub/" + parts[0] + ".kv";
kv_link(kv, path);
let ack = call_tool("index", path);
emit("[published " + str(len(toks)) + " tokens: " + ack + "]");
kv_unlink(path);
kv_remove(kv);
"#;

/// The texts a job's program hands the tokenizer, as far as they are
/// known before it runs: the prompt, and for a publisher the document.
pub fn tokenized_texts(jobs: &[Job]) -> Vec<String> {
    jobs.iter()
        .map(|j| {
            let rest = j.args.split_once('|').map_or("", |(_, rest)| rest);
            if j.name.starts_with("pub-") {
                parse_doc_spec(rest)
                    .map(|(seed, words)| doc_text(seed, words))
                    .unwrap_or_default()
            } else if j.name.starts_with("rag-") {
                format!("q: {rest}")
            } else {
                format!("agent: {}", j.args)
            }
        })
        .collect()
}

/// One generated submission.
#[derive(Debug, Clone)]
pub struct Job {
    /// Program name (`agent-7`, `rag-7`, `pub-16`).
    pub name: String,
    /// Argument string.
    pub args: String,
    /// LipScript source, shared between sessions with the same shape.
    pub source: Arc<str>,
}

/// Seed-driven session generator for one workload.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    agent: AgentWorkload,
    rag: RagWorkload,
    agent_sources: BTreeMap<(usize, usize), Arc<str>>,
    rag_reader: Arc<str>,
    publisher: Arc<str>,
    issued: u64,
}

impl Generator {
    /// A generator whose whole output is a function of `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Generator {
            workload,
            rng: Rng::new(seed ^ 0x5e55_1045),
            // 13–24 generated tokens per segment.
            agent: AgentWorkload::new(&["echo"], 6, 24, 16, SimDuration::ZERO, seed),
            // Pareto index 1/1.2 is a Zipf exponent of 1.2.
            rag: RagWorkload::new(RAG_DOCS, 1.0 / 1.2, 1.0, seed),
            agent_sources: BTreeMap::new(),
            rag_reader: rag_source(RAG_GEN_TOKENS).into(),
            publisher: PUBLISHER_SOURCE.into(),
            issued: 0,
        }
    }

    /// The next session, numbered from 1.
    pub fn next_job(&mut self) -> Job {
        self.issued += 1;
        let n = self.issued;
        match self.workload {
            Workload::RagChurn if n.is_multiple_of(RAG_PUBLISH_EVERY) => Job {
                name: format!("pub-{n}"),
                args: format!(
                    "{n}|{}|{}",
                    self.rng.next_u64() >> 1,
                    800 + self.rng.gen_range(0, 1601)
                ),
                source: Arc::clone(&self.publisher),
            },
            Workload::RagChurn => {
                let req = self.rag.next_request();
                Job {
                    name: format!("rag-{n}"),
                    args: format!("{}|{}", req.topic, req.query),
                    source: Arc::clone(&self.rag_reader),
                }
            }
            _ => {
                let trace = self.agent.next_trace();
                let rounds = 2 + self.rng.gen_range(0, 5) as usize;
                let seg = trace.gen_segments[0];
                let source = self
                    .agent_sources
                    .entry((rounds, seg))
                    .or_insert_with(|| agent_source(rounds, seg).into());
                Job {
                    name: format!("agent-{n}"),
                    args: format!("task {n}"),
                    source: Arc::clone(source),
                }
            }
        }
    }

    /// The next epoch's sessions.
    pub fn next_epoch(&mut self) -> Vec<Job> {
        (0..EPOCH_SESSIONS).map(|_| self.next_job()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let shape = |seed| {
            let mut g = Generator::new(Workload::RagChurn, seed);
            (0..64)
                .map(|_| {
                    let j = g.next_job();
                    (j.name, j.args)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(1), shape(1));
        assert_ne!(shape(1), shape(2));
    }

    #[test]
    fn one_rag_session_in_sixteen_publishes() {
        let mut g = Generator::new(Workload::RagChurn, 1);
        let jobs = g.next_epoch();
        let publishers = jobs.iter().filter(|j| j.name.starts_with("pub-")).count();
        assert_eq!(publishers, EPOCH_SESSIONS / RAG_PUBLISH_EVERY as usize);
    }

    #[test]
    fn agent_and_tcp_and_durable_share_programs() {
        let jobs = |w| {
            let mut g = Generator::new(w, 9);
            (0..32)
                .map(|_| {
                    let j = g.next_job();
                    (j.name, j.args, j.source)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(jobs(Workload::AgentLoop), jobs(Workload::TcpAgent));
        assert_eq!(jobs(Workload::AgentLoop), jobs(Workload::AgentDurable));
    }
}
