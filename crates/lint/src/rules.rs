//! The rule catalogue: what each rule matches, where it applies, and its
//! `--explain` documentation. Path classification (deterministic crates,
//! kernel modules, binaries vs. libraries, test trees) lives here too so
//! the whole policy is in one place.

use crate::sanitize::Lines;
use crate::Violation;

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock time in deterministic code.
    D1,
    /// No ambient (OS-seeded) randomness.
    D2,
    /// No order-unstable hash collections in deterministic crates.
    D3,
    /// No panicking calls on kernel paths.
    K1,
    /// No stdout/stderr printing from library crates.
    O1,
    /// Telemetry span begins must have matching ends.
    O2,
    /// Durable files are written through the segment log only.
    F1,
    /// No public function without a caller outside the tests.
    U1,
    /// No retired mechanism comes back: the [`RETIRED`] table.
    R1,
}

/// Every rule, in report order.
pub const ALL_RULES: &[Rule] = &[
    Rule::D1,
    Rule::D2,
    Rule::D3,
    Rule::K1,
    Rule::O1,
    Rule::O2,
    Rule::F1,
    Rule::U1,
    Rule::R1,
];

/// Crates whose output feeds golden traces / fingerprint comparisons:
/// any order instability or ambient input here silently breaks the
/// byte-identical-trace regression suites.
const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "kvfs",
    "gpu",
    "sim",
    "model",
    "telemetry",
    "rpc",
    "serve",
    // The LipScript front end runs inside the serving door: parse +
    // verify must produce identical diagnostics and effect summaries on
    // every replica, or admission decisions diverge across a fleet.
    "lipscript",
    // Token ids feed every surrogate distribution, digest and golden: the
    // trainer's merge choice and the encoder's output must not depend on
    // hasher order.
    "tokenizer",
];

/// The one module `f1` lets open, truncate, rename or overwrite a file.
const SEGLOG_PATH: &str = "crates/sim/src/seglog.rs";

/// Kernel-path files for `k1`: every line of these runs under a syscall or
/// the event loop, where a panic kills the whole serving kernel.
const KERNEL_PATHS: &[&str] = &[
    "crates/core/src/kernel.rs",
    // `impl Kernel` continues in these two, and the codec under them
    // decodes a log that a crash may have left in any state.
    "crates/core/src/proc.rs",
    "crates/core/src/recovery.rs",
    "crates/core/src/wal.rs",
    "crates/core/src/syscall.rs",
    "crates/core/src/sched.rs",
    // The admission verifier runs on every SUBMIT inside the serve event
    // loop; a panic while checking or rendering a hostile program is a
    // remote denial of service.
    "crates/lipscript/src/verify.rs",
];

/// A banned string of a [`Retired`] row.
#[derive(Debug, Clone, Copy)]
pub enum Ban {
    /// Anywhere in a line, as `grep` matches a fixed string.
    Fixed(&'static str),
    /// With no letter, digit or `_` on either side, as `grep -w` matches:
    /// a longer identifier that contains it is not a hit.
    Word(&'static str),
}

impl Ban {
    /// The banned string itself.
    pub fn text(&self) -> &'static str {
        match *self {
            Ban::Fixed(s) | Ban::Word(s) => s,
        }
    }

    fn found_in(&self, line: &str) -> bool {
        let word = |c: char| c.is_alphanumeric() || c == '_';
        match *self {
            Ban::Fixed(s) => line.contains(s),
            Ban::Word(s) => line.match_indices(s).any(|(at, _)| {
                !line[..at].chars().next_back().is_some_and(word)
                    && !line[at + s.len()..].chars().next().is_some_and(word)
            }),
        }
    }
}

/// Strings banned under a set of path scopes.
#[derive(Debug)]
pub struct Bans {
    /// Workspace-relative scopes. One ending in `/` covers every file
    /// under it, any other names one file, and a `*` segment stands for
    /// any one path segment (`crates/*/src/` is every crate's sources).
    pub under: &'static [&'static str],
    /// The banned strings.
    pub strings: &'static [Ban],
}

impl Bans {
    /// Whether one of the scopes covers `path`.
    fn cover(&self, path: &str) -> bool {
        self.under.iter().any(|scope| {
            let mut segments = path.split('/');
            for want in scope.split('/') {
                if want.is_empty() {
                    return true;
                }
                match segments.next() {
                    Some(seg) if want == "*" || want == seg => {}
                    _ => return false,
                }
            }
            segments.next().is_none()
        })
    }
}

/// One row of `r1`: a mechanism a simplification retired, and the strings
/// that would bring it back.
#[derive(Debug)]
pub struct Retired {
    /// A short statement of the fact the row keeps.
    pub name: &'static str,
    /// What is banned where.
    pub bans: &'static [Bans],
    /// Why a hit is a second mechanism beside the one that stayed.
    pub reason: &'static str,
    /// The commit that retired it (`git show <commit>`).
    pub commit: &'static str,
}

use Ban::{Fixed, Word};

/// What the codebase has retired. `r1` reports a banned string on any raw
/// line (code, comment or string literal) of any file, Rust or not, under
/// its scopes; it honours no `lint.toml` section and no `lint:allow`. A
/// simplification that deletes a mechanism adds a row here.
pub const RETIRED: &[Retired] = &[
    Retired {
        name: "One seat",
        bans: &[Bans {
            under: &[
                "crates/core/src/kernel.rs",
                "crates/core/src/proc.rs",
                "crates/core/src/recovery.rs",
                "crates/core/src/syscall.rs",
            ],
            strings: &[
                Fixed("mpsc"),
                Fixed("Sender"),
                Fixed("Receiver"),
                Fixed("JobHandle"),
                Fixed("UpCall"),
                Fixed("spawn_lip"),
            ],
        }],
        reason: "the kernel steps every LIP body one way, and only \
                 crates/core/src/hosted.rs knows that a native closure runs on a \
                 pooled OS thread behind a channel pair; a channel, a job handle or \
                 an upcall in the kernel's own files would be a second way to run a \
                 body",
        commit: "055bdba",
    },
    Retired {
        name: "One place builds a distribution",
        bans: &[Bans {
            under: &[
                "crates/gpu/src/exec.rs",
                "crates/core/src/kernel.rs",
                "crates/core/src/recovery.rs",
                "crates/core/src/syscall.rs",
                "crates/baseline/src/engine.rs",
                "crates/bench/src/prompt_server.rs",
            ],
            strings: &[Fixed("next_dist")],
        }],
        reason: "a `pred` reply carries context fingerprints, and \
                 `symphony_model::Preds`/`DistRef` build a distribution where a \
                 program reads one; an executor, kernel, recovery, baseline engine \
                 or prompt server that calls the model itself would be an eager \
                 per-token build beside the lazy one",
        commit: "68fe635",
    },
    Retired {
        name: "One answer to a pred that does not fit",
        bans: &[Bans {
            under: &["crates/*/src/"],
            strings: &[
                Fixed("AdmissionPolicy"),
                Fixed("RequeuePred"),
                Fixed("SysError::Busy"),
                Fixed("preds_shed"),
                Fixed("preds_requeued"),
                Fixed("PredShed"),
                Fixed("PredRequeue"),
            ],
        }],
        reason: "a `pred` the KV pool cannot hold is answered `Kv(NoGpuMemory)` \
                 once the continuous loop has evicted, preempted or waited for a \
                 landing copy, and what to do next is the program's policy; a \
                 kernel-side requeue or shed would be a second answer",
        commit: "d5ef467",
    },
    Retired {
        name: "The WAL journals no pred",
        bans: &[Bans {
            under: &["crates/core/src/"],
            strings: &[
                Fixed("TAG_PRED_EFFECT"),
                Fixed("Effect::Pred"),
                Fixed("EffectClass::Pred"),
                Fixed("pred_effect"),
                Fixed("drop_pending"),
            ],
        }],
        reason: "a `pred` reply is a pure function of the file it extends, so no \
                 frame records one: a checkpoint lists each durable process's \
                 completion record, and every frame is written when it is made; a \
                 marker frame, its effect class or a buffered frame a crash must \
                 drop would be a second durability class",
        commit: "a02fd76",
    },
    Retired {
        name: "A failed tool call has one answer",
        bans: &[Bans {
            under: &["crates/*/src/"],
            strings: &[
                Fixed("RetryPolicy"),
                Fixed("BreakerBank"),
                Fixed("BreakerPolicy"),
                Fixed("BreakerStateView"),
                Fixed("BreakerVerdict"),
                Fixed("tool_retry"),
                Fixed("tool_calls_exhausted"),
                Fixed("SysError::Unavailable"),
                Fixed("ToolRetry"),
                Fixed("BreakerTrip"),
                Fixed("BreakerReject"),
            ],
        }],
        reason: "every `call_tool` is one attempt: the kernel injects faults, \
                 clamps the attempt to its timeout and journals it, and what to do \
                 about a failure is the program's policy; a kernel-side retry \
                 planner or circuit breaker would be a second answer",
        commit: "a18197d",
    },
    Retired {
        name: "A durable program is admitted once",
        bans: &[Bans {
            under: &["crates/core/src/"],
            strings: &[
                Fixed("ProcSched"),
                Fixed("TAG_PROC_SCHED"),
                Fixed("proc_sched"),
                Fixed("resume_programs"),
                Fixed("programs_resumed"),
            ],
        }],
        reason: "`admit` writes a durable program's one admission frame when it \
                 installs it, whether it starts now or at a later arrival, and \
                 `Kernel::recover(config, resolve)` boots and re-admits in one call; \
                 a schedule frame beside the spawn frame, or a second call that \
                 finishes a half-booted kernel, would be a second admission record",
        commit: "5a40a7a",
    },
    Retired {
        name: "Each durable fact is written once",
        bans: &[
            Bans {
                under: &["crates/core/src/"],
                strings: &[
                    Fixed("TAG_IPC_RECV"),
                    Fixed("Effect::Recv"),
                    Fixed("recv_counts"),
                    Fixed("rebuild_mailboxes"),
                ],
            },
            Bans {
                under: &["crates/kvfs/src/"],
                strings: &[
                    Fixed("Record::End"),
                    Fixed("TAG_END"),
                    Fixed("END_FRAME_LEN"),
                ],
            },
        ],
        reason: "a delivered message is journalled once, by its send frame: a \
                 recovered `recv` number k is answered by the k-th delivered send \
                 to its process, so there is no receive frame and no rebuilt \
                 mailbox; a KV batch is complete when its last record is its \
                 closing `PoolState`, so there is no seal a flush must cut off and \
                 write again",
        commit: "11f6354",
    },
    Retired {
        name: "One door for a LipScript program",
        bans: &[Bans {
            under: &["crates/*/src/bin/"],
            strings: &[Fixed(".admit("), Fixed("LipBody")],
        }],
        reason: "a program file reaches a kernel through `ServerCore`'s SUBMIT, \
                 which parses, verifies and admits it, and `lip_run` is one more \
                 client of that door; a binary that builds a `LipBody` or calls \
                 `Kernel::admit` itself is a second door, with its own copy of the \
                 environment and of admission",
        commit: "7d05511",
    },
    Retired {
        name: "One admission call",
        bans: &[Bans {
            under: &["crates/", "examples/", "src/", "tests/"],
            strings: &[
                Word("spawn_process_with_limits"),
                Word("schedule_process"),
                Word("admit_inline"),
                Word("spawn_durable"),
                Word("default_limits"),
            ],
        }],
        reason: "a program enters the kernel through `Kernel::admit(name, args, \
                 SpawnOpts { at, limits, durable }, body)`, whatever its body: \
                 durability is a flag, not a body kind, and limits are the \
                 program's, not a kernel default",
        commit: "c52b314",
    },
    Retired {
        name: "A durable LipScript program is its text",
        bans: &[
            Bans {
                under: &["crates/core/src/recovery.rs"],
                strings: &[Fixed("ProgramImage")],
            },
            Bans {
                under: &["crates/core/src/", "crates/serve/src/", "crates/bench/src/"],
                strings: &[Fixed("run_lip")],
            },
        ],
        reason: "a durable LipScript program's admission frame carries its limits \
                 and text, and `Kernel::recover`'s resolver turns that image back \
                 into a `Body` (`symphony_lipscript::rebuild`); recovery that named \
                 a `ProgramImage` would map a name back to a closure, and product \
                 code that reached `run_lip` (crates/lipscript/src/inline.rs keeps \
                 it for the benchmark's durable workload alone) would bring back \
                 the parse-on-a-pool-worker detour",
        commit: "90844b3",
    },
    Retired {
        name: "LipScript is tested where it runs",
        bans: &[
            Bans {
                under: &[
                    "crates/lipscript/tests/prop_verify.rs",
                    "crates/lipscript/tests/verify_tests.rs",
                    "crates/lipscript/src/reference.rs",
                ],
                strings: &[Fixed("MockHost")],
            },
            Bans {
                under: &["crates/lipscript/src/host.rs"],
                strings: &[
                    Fixed("HostCall::Spawn"),
                    Word("Syscall::Join"),
                    Word("Syscall::SendMsg"),
                    Word("Syscall::Recv"),
                    Word("Syscall::LookupProcess"),
                    Word("Syscall::Sleep"),
                    Word("Syscall::Now"),
                ],
            },
        ],
        reason: "the verifier's soundness properties, its suite's runs and the \
                 reference differential admit programs inline on a test kernel \
                 (crates/lipscript/tests/harness), the way a served program runs; \
                 `MockHost` is a second implementation of the system calls, kept \
                 for the interpreter's timings alone, and it answers no thread, IPC \
                 or clock call, which only a scheduler can",
        commit: "cefaf94",
    },
    Retired {
        name: "One KV entry table",
        bans: &[Bans {
            under: &["crates/kvfs/src/page.rs"],
            strings: &[
                Fixed("entries: Vec<KvEntry>"),
                Fixed("Vec::with_capacity(self.page_tokens)"),
            ],
        }],
        reason: "every page's entries are rows of the page pool's one arena, so \
                 allocating, filling, copying and freeing a page touch no heap once \
                 the arena has grown; a `Vec` of entries per page, or a buffer sized \
                 per page at allocation, is a second place a page's entries live \
                 and one heap allocation per page",
        commit: "7bace9a",
    },
    Retired {
        name: "One durable log",
        bans: &[
            Bans {
                under: &["crates/*/src/"],
                strings: &[
                    Fixed("persist_kv("),
                    Fixed("journal_write"),
                    Fixed("kvfs.journal_frames"),
                    Fixed("journal_frames_"),
                    Fixed("set_journal_len_metric"),
                    Fixed("note_compaction"),
                    Fixed("SysError::Shutdown"),
                    Word("struct Journal"),
                    Fixed("AttachedJournal"),
                    Fixed("open_journal"),
                    Fixed("persist_journal"),
                    Fixed("restore_from_journal("),
                    Fixed("JOURNAL_MAGIC"),
                    Fixed("JOURNAL_VERSION"),
                ],
            },
            Bans {
                under: &["crates/core/src/", "crates/bench/src/"],
                strings: &[Fixed(".take_delta("), Fixed(".enable_delta_log(")],
            },
            Bans {
                under: &["crates/kvfs/src/"],
                strings: &[
                    Fixed("SegLog"),
                    Fixed("Journal::create"),
                    Fixed("compact_threshold"),
                ],
            },
        ],
        reason: "the kernel WAL is the only durable log: the KV store encodes its \
                 changes as batches of frames (`KvStore::snapshot`/`drain_changes`) \
                 and the kernel writes them at its boundaries; a file, log handle \
                 or compaction threshold in the store, `kvfs::Journal`, a shutdown \
                 snapshot path, a journal fault site, per-tag frame gauges or a \
                 kernel driving the delta log by hand would be a second writer \
                 (only the gauges' names: `journal_frames` alone is E13's pinned \
                 per-tag counts)",
        commit: "b7d06e3",
    },
    Retired {
        name: "KV rows hold tokens",
        bans: &[Bans {
            under: &["crates/kvfs/src/page.rs"],
            strings: &[Fixed("Vec<KvEntry>")],
        }],
        reason: "a page keeps its tokens (4 B each) and one head, its first \
                 entry's position and fingerprint; the rest of a chain is derived \
                 as it is read, and only an irregular page keeps exact rows, in a \
                 side table (docs/KVFS.md \"Page storage\"); a `Vec<KvEntry>` in \
                 the pool is 16 B a token again",
        commit: "fc93ff6",
    },
    Retired {
        name: "The E-series runs programs",
        bans: &[Bans {
            under: &["crates/", "examples/", "src/", "tests/"],
            strings: &[
                Fixed("symphony::sampling"),
                Fixed("sampling::generate"),
                Fixed("JsonConstraint"),
                Fixed("verify_greedy"),
            ],
        }],
        reason: "the generation loops of the experiments and examples are \
                 LipScript a served program can call \
                 (`examples/lipscript/with_prelude/decode.lip` and its constrained \
                 and watermark parts); a Rust decoding library in core would be a \
                 second copy that no served program reaches, and the closures over \
                 it programs the server never receives",
        commit: "fcbed76",
    },
    Retired {
        name: "A program owns its failures in LipScript",
        bans: &[Bans {
            under: &["crates/bench/src/", "examples/"],
            strings: &[
                Fixed("crate::native"),
                Fixed("symphony_bench::native"),
                Fixed("pub mod native"),
            ],
        }],
        reason: "a program that catches a failed system call (a missing file, a \
                 full KV pool, a faulted tool) is LipScript that reads the call's \
                 error value (`try`, `is_err`, `err_kind`), with its greedy loop in \
                 `examples/lipscript/with_prelude/decode_try.lip`; a Rust helper \
                 module of decoding loops and backoffs in the bench crate would be \
                 a second copy of `decode.lip`'s loop, for closures the server \
                 never receives",
        commit: "e18b526",
    },
    Retired {
        name: "The E-series drivers are programs",
        bans: &[Bans {
            under: &[
                "crates/bench/src/exp/exp_batching.rs",
                "crates/bench/src/exp/exp_chat.rs",
                "crates/bench/src/exp/exp_constrained.rs",
                "crates/bench/src/exp/exp_editor.rs",
                "crates/bench/src/exp/exp_faults.rs",
                "crates/bench/src/exp/exp_offload.rs",
                "crates/bench/src/exp/exp_pagesize.rs",
                "crates/bench/src/exp/exp_persist.rs",
                "crates/bench/src/exp/exp_profile.rs",
                "crates/bench/src/exp/exp_recovery.rs",
                "crates/bench/src/exp/exp_sched.rs",
                "crates/bench/src/exp/exp_serve.rs",
                "crates/bench/src/exp/exp_speculative.rs",
                "crates/bench/src/exp/exp_toolcalls.rs",
                "crates/bench/src/exp/exp_tot.rs",
                "crates/bench/src/exp/exp_vet.rs",
                "crates/bench/src/exp/fig3.rs",
                "crates/bench/src/exp/mod.rs",
                "crates/bench/src/fig3.rs",
                "crates/bench/src/lib.rs",
                "crates/bench/src/lip.rs",
                "crates/bench/src/main.rs",
                "crates/bench/src/report.rs",
                "crates/bench/src/telemetry_cli.rs",
                "examples/",
            ],
            strings: &[Fixed("Body::hosted"), Fixed("spawn_process")],
        }],
        reason: "every experiment driver and example admits LipScript text from \
                 `examples/lipscript/with_prelude/` as a body the kernel steps \
                 inline, its parameters as args; a Rust closure on a pooled OS \
                 thread would be a second program form, one the server never \
                 receives and whose work burns no interpreter fuel. Only E8's \
                 native comparator (`exp/exp_lipscript.rs`), which the \
                 interpreter is measured against, and the prompt server \
                 (`prompt_server.rs`) are closures, so the rule lists the other \
                 files one by one",
        commit: "d85bab8",
    },
];

impl Rule {
    /// Stable lowercase id used in reports, suppressions and `lint.toml`.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::D1 => "d1",
            Rule::D2 => "d2",
            Rule::D3 => "d3",
            Rule::K1 => "k1",
            Rule::O1 => "o1",
            Rule::O2 => "o2",
            Rule::F1 => "f1",
            Rule::U1 => "u1",
            Rule::R1 => "r1",
        }
    }

    /// Parses a rule id (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES
            .iter()
            .copied()
            .find(|r| r.id().eq_ignore_ascii_case(s.trim()))
    }

    /// Whether this rule is in scope for a workspace-relative path.
    pub fn applies_to(&self, path: &str) -> bool {
        match self {
            // Wall-clock and ambient RNG poison determinism wherever they
            // appear, including test helpers that feed golden fixtures.
            Rule::D1 | Rule::D2 => true,
            Rule::D3 => in_deterministic_crate(path),
            Rule::F1 => in_deterministic_crate(path) && path != SEGLOG_PATH,
            Rule::K1 => {
                KERNEL_PATHS.contains(&path)
                    || path.starts_with("crates/kvfs/src/")
                    || path.starts_with("crates/gpu/src/")
                    // The wire front door serves every connection from one
                    // event loop: a panic in rpc decode or serve dispatch
                    // drops all tenants at once. Bins are exempt via o1's
                    // library scoping; the protocol and server libs are not.
                    || (path.starts_with("crates/rpc/src/") && is_library_file(path))
                    || (path.starts_with("crates/serve/src/") && is_library_file(path))
            }
            Rule::O1 => is_library_file(path),
            Rule::O2 => path.starts_with("crates/telemetry/src/"),
            // Whole-workspace: `crate::unused` runs it over every file.
            Rule::U1 => false,
            // The table spells out every banned string, so the crate that
            // holds it and its tests is the one place exempt.
            Rule::R1 => {
                !path.starts_with("crates/lint/")
                    && RETIRED
                        .iter()
                        .flat_map(|row| row.bans)
                        .any(|bans| bans.cover(path))
            }
        }
    }
}

/// Under a deterministic crate's `src/`, or its build script: what a
/// build script computes is compiled into the crate (the tokenizer's
/// default vocabulary is).
fn in_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.iter().any(|c| {
        path.starts_with(&format!("crates/{c}/src/")) || path == format!("crates/{c}/build.rs")
    })
}

/// Library code for `o1`: under a `src/` but not a binary target. Binaries
/// (`src/bin/`, `src/main.rs`, `examples/`) own their stdout; libraries
/// must route output through the telemetry/report layers.
fn is_library_file(path: &str) -> bool {
    let under_src = path.contains("/src/") || path.starts_with("src/");
    under_src
        && !path.contains("/src/bin/")
        && !path.ends_with("/main.rs")
        && !path.contains("examples/")
}

/// Whether the file is wholly test code (integration tests, benches).
fn is_test_tree(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/")
}

/// A simple substring pattern that must start at a word boundary.
fn find_bounded(line: &str, pat: &str) -> bool {
    let mut from = 0;
    while let Some(i) = line[from..].find(pat) {
        let at = from + i;
        let boundary = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        from = at + pat.len();
    }
    false
}

/// Runs `rule` over the classified lines of one file.
pub(crate) fn check(rule: Rule, path: &str, lines: &Lines) -> Vec<Violation> {
    // Every rule but o2 is a list of patterns and what to say about a hit.
    let (patterns, describe): (&[&str], fn(&str) -> String) = match rule {
        Rule::D1 => (&["Instant::now", "SystemTime"], |pat| {
            format!(
                "wall-clock time (`{pat}`) in deterministic code: \
                 use the virtual clock (`SimTime`/`EventQueue::now`) \
                 or allowlist this path in lint.toml"
            )
        }),
        Rule::D2 => (&["thread_rng", "rand::random", "RandomState"], |pat| {
            format!(
                "ambient randomness (`{pat}`): every random draw \
                 must come from a seeded `symphony_sim::Rng` stream"
            )
        }),
        Rule::D3 => (&["HashMap", "HashSet"], |pat| {
            format!(
                "`{pat}` in a deterministic crate: iteration order \
                 is seeded per-process, one refactor away from a \
                 nondeterministic trace — use `BTreeMap`/`BTreeSet` \
                 or a sorted collect"
            )
        }),
        Rule::K1 => (
            &[
                ".unwrap()",
                ".expect(",
                "panic!",
                "unreachable!",
                "todo!",
                "unimplemented!",
            ],
            |pat| {
                format!(
                    "`{pat}` on a kernel path: a panic here kills the \
                     whole serving kernel — return a typed `SysError` \
                     (or `KvError`/`ExecError`) instead",
                    pat = pat.trim_start_matches('.')
                )
            },
        ),
        Rule::O1 => (
            &["println!", "eprintln!", "print!", "eprint!", "dbg!"],
            |pat| {
                format!(
                    "`{pat}` in library code: libraries must stay \
                     silent — report through telemetry, the metrics \
                     registry, or return values"
                )
            },
        ),
        Rule::O2 => return check_span_pairs(path, lines),
        // u1 reads the whole workspace (`crate::unused`), r1 raw lines
        // (`check_retired`).
        Rule::U1 | Rule::R1 => return Vec::new(),
        Rule::F1 => (
            &[
                "OpenOptions",
                "File::create",
                "fs::write",
                "fs::rename",
                "set_len",
            ],
            |pat| {
                format!(
                    "`{pat}` outside `symphony_sim::seglog`: a durable \
                     file has one writer — a second one is a second \
                     truncation rule and a second way to lose a page; \
                     go through `SegLog`"
                )
            },
        ),
    };
    let skip_tests = matches!(rule, Rule::D3 | Rule::K1 | Rule::O1 | Rule::F1);
    let mut out = Vec::new();
    for (i, code) in lines.code.iter().enumerate() {
        if skip_tests && (lines.in_test[i] || is_test_tree(path)) {
            continue;
        }
        for pat in patterns {
            // A method call (`.unwrap()`) has no word boundary before it.
            let hit = if pat.starts_with('.') {
                code.contains(pat)
            } else {
                find_bounded(code, pat)
            };
            if hit {
                out.push(Violation {
                    rule,
                    path: path.to_string(),
                    line: i + 1,
                    message: describe(pat),
                    snippet: code.trim().to_string(),
                });
            }
        }
    }
    out
}

/// r1 over one file's raw lines: every banned string of every row whose
/// scopes cover `path`. Strings and comments count, as they do for `grep`.
pub(crate) fn check_retired(path: &str, src: &str) -> Vec<Violation> {
    if !Rule::R1.applies_to(path) {
        return Vec::new();
    }
    let live: Vec<(&Retired, &Ban)> = RETIRED
        .iter()
        .flat_map(|row| {
            row.bans
                .iter()
                .filter(|bans| bans.cover(path))
                .flat_map(move |bans| bans.strings.iter().map(move |ban| (row, ban)))
        })
        .collect();
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        for (row, ban) in live.iter().filter(|(_, ban)| ban.found_in(line)) {
            out.push(Violation {
                rule: Rule::R1,
                path: path.to_string(),
                line: i + 1,
                message: format!(
                    "`{}` is retired (\"{}\", {}): {}",
                    ban.text(),
                    row.name,
                    row.commit,
                    row.reason
                ),
                snippet: line.trim().to_string(),
            });
        }
    }
    out
}

/// o2: every identifier ending in `Enter`/`Begin` in a telemetry source
/// file must have a sibling ending in `Exit`/`End` with the same stem, in
/// the same file. Catches the "added a span begin, forgot the end" drift
/// that leaves Perfetto tracks permanently open.
fn check_span_pairs(path: &str, lines: &Lines) -> Vec<Violation> {
    use std::collections::BTreeMap;
    let mut idents: BTreeMap<String, usize> = BTreeMap::new();
    for (i, code) in lines.code.iter().enumerate() {
        let mut cur = String::new();
        for c in code.chars().chain(std::iter::once(' ')) {
            if c.is_alphanumeric() || c == '_' {
                cur.push(c);
            } else if !cur.is_empty() {
                let ident = std::mem::take(&mut cur);
                if ident.chars().next().is_some_and(|c| c.is_uppercase()) {
                    idents.entry(ident).or_insert(i + 1);
                }
            }
        }
    }
    let mut out = Vec::new();
    for (ident, &line) in &idents {
        let want = if let Some(stem) = ident.strip_suffix("Enter") {
            Some((format!("{stem}Exit"), "Exit"))
        } else {
            ident
                .strip_suffix("Begin")
                .map(|stem| (format!("{stem}End"), "End"))
        };
        if let Some((twin, kind)) = want {
            if !idents.contains_key(&twin) {
                out.push(Violation {
                    rule: Rule::O2,
                    path: path.to_string(),
                    line,
                    message: format!(
                        "span begin `{ident}` has no matching `{twin}`: every \
                         telemetry span must close or trace tracks stay open \
                         forever (add the `*{kind}` constant)"
                    ),
                    snippet: lines.code[line - 1].trim().to_string(),
                });
            }
        }
    }
    out
}

/// `--explain` documentation for one rule.
pub fn explain(rule: Rule) -> String {
    let text = match rule {
        Rule::D1 => {
            "d1: no wall-clock time in deterministic code\n\
             \n\
             Matches `Instant::now` and `SystemTime`.\n\
             \n\
             Every latency, timeout and trace timestamp in Symphony runs on\n\
             the virtual clock (`symphony_sim::SimTime`), which is what makes\n\
             two same-seed runs byte-identical. A single wall-clock read that\n\
             feeds a decision (batch sizing, retry backoff, trace ordering)\n\
             silently re-introduces host-speed dependence, and the golden\n\
             trace suites cannot tell you *where*. Real-time reads are only\n\
             legitimate where the point is to measure the host: the bench\n\
             experiments that report wall time, the client's `--connect`\n\
             timing of a live TCP server and a test that times the host —\n\
             those paths are allowlisted in lint.toml or carry an inline\n\
             `lint:allow(d1): reason`.\n\
             \n\
             Fix: take a `SimTime` from the event queue, or thread a time\n\
             parameter in from the kernel."
        }
        Rule::D2 => {
            "d2: no ambient randomness\n\
             \n\
             Matches `thread_rng`, `rand::random` and `RandomState`.\n\
             \n\
             Chaos tests replay fault schedules by seed; the experiment\n\
             harness reproduces every number in EXPERIMENTS.md by seed. An\n\
             OS-seeded RNG (or a `HashMap`'s per-process `RandomState`\n\
             hasher) breaks replay invisibly. All randomness must come from\n\
             `symphony_sim::Rng` streams forked from the run seed.\n\
             \n\
             Fix: accept an `&mut Rng` and draw from it."
        }
        Rule::D3 => {
            "d3: no order-unstable hash collections in deterministic crates\n\
             \n\
             Matches `HashMap`/`HashSet` in crates/{core,kvfs,gpu,sim,model,\n\
             telemetry,rpc,serve,lipscript,tokenizer}/src and those crates'\n\
             build scripts.\n\
             \n\
             `std` hash collections iterate in a per-process random order.\n\
             Even a use that only calls `len`/`contains` today is one\n\
             refactor away from a `for` loop whose order leaks into a trace,\n\
             a fingerprint, or an eviction decision — and the breakage only\n\
             shows up as a golden-trace diff with no pointer to the cause.\n\
             The rule is deliberately an over-approximation: the safe\n\
             construction is `BTreeMap`/`BTreeSet` (or a `Vec` + sort), and\n\
             a justified membership-only use can carry\n\
             `lint:allow(d3): reason`.\n\
             \n\
             Fix: use `BTreeMap`/`BTreeSet`, or collect-and-sort before\n\
             iterating."
        }
        Rule::K1 => {
            "k1: no panicking calls on kernel paths\n\
             \n\
             Matches `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,\n\
             `todo!` and `unimplemented!` in crates/core/src/{kernel,proc,\n\
             recovery,wal,syscall,sched}.rs, crates/kvfs/src and\n\
             crates/gpu/src.\n\
             \n\
             A LIP is an untrusted program; the kernel is the operating\n\
             system under thousands of them. Any panic reachable from a\n\
             syscall argument or an unexpected interleaving kills every\n\
             in-flight program at once. Kernel paths must degrade to typed\n\
             errors (`SysError`, `KvError`, `ExecError`) that the scheduler\n\
             and the program can handle. Truly unreachable invariants can be\n\
             stated with `debug_assert!` (free in release builds) plus a\n\
             graceful fallback, or carry `lint:allow(k1): reason` naming the\n\
             invariant.\n\
             \n\
             Fix: `ok_or(SysError::…)?`, let-else with a typed error reply,\n\
             or `debug_assert!` + defensive return."
        }
        Rule::O1 => {
            "o1: no printing from library crates\n\
             \n\
             Matches `println!`, `eprintln!`, `print!`, `eprint!` and `dbg!`\n\
             in library source files (under src/, excluding src/bin/ and\n\
             examples).\n\
             \n\
             Library output corrupts the experiment reports that bench\n\
             binaries write to stdout, and un-gated debug prints in the\n\
             kernel would serialize the event loop on terminal I/O. Output\n\
             belongs to binaries, the telemetry bus, or the report writer\n\
             (crates/bench is allowlisted in lint.toml — it *is* the report\n\
             layer).\n\
             \n\
             Fix: return the data, emit a telemetry event, or move the print\n\
             into the binary."
        }
        Rule::O2 => {
            "o2: telemetry span begins must pair with ends\n\
             \n\
             In crates/telemetry/src, every identifier ending in `Enter` or\n\
             `Begin` must have a same-stem sibling ending in `Exit`/`End` in\n\
             the same file.\n\
             \n\
             The Chrome trace exporter emits `ph:\"B\"`/`ph:\"E\"` pairs; a\n\
             begin without an end leaves the track open to the end of time\n\
             and breaks the CI assertion that begins == ends. Catch the\n\
             drift at the type level, when the variant is added, not when a\n\
             Perfetto load looks wrong.\n\
             \n\
             Fix: add the matching `*Exit`/`*End` variant (and emit it)."
        }
        Rule::F1 => {
            "f1: durable writes go through sim::seglog\n\
             \n\
             Matches `OpenOptions`, `File::create`, `fs::write`, `fs::rename`\n\
             and `set_len` in non-test code of the deterministic crates (the\n\
             d3 list), everywhere but crates/sim/src/seglog.rs.\n\
             \n\
             The kernel WAL is the one durable file, and the KV store's\n\
             batches are frames in it: one tag space over one file\n\
             discipline: one checksummed header, one torn-tail rule, one\n\
             pending buffer, create-by-rename, and one stated durability\n\
             scope (write(2), no fsync). State that survives a restart is\n\
             exactly where a second, slightly different copy of that\n\
             discipline — truncate in place here, rename there — turns into a\n\
             lost page, so the file-touching calls live in one module and a\n\
             new durable file is a new client of it, not a new write site.\n\
             crates/bench (the report layer that writes results/*.json) is\n\
             outside the rule's crate list.\n\
             \n\
             Fix: hold a `SegLog`; `create` to put a whole file in place,\n\
             frames into `pending` then `flush`, or `append`, to add them,\n\
             `truncate_to` to cut a torn tail."
        }
        Rule::U1 => {
            "u1: every public function has a caller\n\
             \n\
             Flags a `pub fn` (free or method) in crates/*/src, outside\n\
             `#[cfg(test)]` modules and `#[test]` functions, whose name\n\
             appears as a whole word in no non-test source other than its\n\
             own definition. Non-test source is crates/*/src outside test\n\
             regions (binaries included), the crates' build scripts, src/,\n\
             examples/ and benchmark/src; comments and strings do not\n\
             count. It runs over the whole workspace at once, after the\n\
             per-file rules.\n\
             \n\
             Symphony's interface to a program is a small set of system\n\
             calls; the crates' public surface should be what their callers\n\
             use. A public function only tests call is an API nobody relies\n\
             on that still has to be read, kept compiling and kept true. The\n\
             rule is lexical, so its known limit is that a dead method that\n\
             shares its name with a live one (or with any other word of\n\
             code) is not reported.\n\
             \n\
             Fix: delete the function and the tests that only exercised it,\n\
             or keep it with `lint:allow(u1): reason` when it is a reference\n\
             or fault injector tests drive, a probe for a property no other\n\
             API can observe, or a documented contract for clients."
        }
        Rule::R1 => return explain_retired(),
    };
    text.to_string()
}

/// `--explain r1`: the rule, then every row of [`RETIRED`].
fn explain_retired() -> String {
    let mut out = String::from(
        "r1: a retired mechanism stays retired\n\
         \n\
         Each row below names a mechanism a simplification deleted, the\n\
         strings that would bring it back, and where they are banned. The\n\
         rule matches raw lines, comments and string literals included, of\n\
         every file under a row's scopes, Rust or not, as `grep -r` does. A\n\
         fixed string matches anywhere in a line; a word (marked `-w`)\n\
         only with no letter, digit or `_` on either side. A scope ending in\n\
         `/` covers the files under it, and `*` stands for one path segment.\n\
         It honours no lint.toml section and no `lint:allow`: a mechanism\n\
         comes back only by deleting its row from `RETIRED`\n\
         (crates/lint/src/rules.rs), where the deletion is reviewed.\n\
         crates/lint/ is exempt, since the table spells out every string.\n\
         \n\
         Fix: use the mechanism that stayed; the row's reason names it.\n",
    );
    for row in RETIRED {
        out.push_str(&format!("\n{} ({})\n", row.name, row.commit));
        for bans in row.bans {
            let strings: Vec<String> = bans
                .strings
                .iter()
                .map(|ban| match ban {
                    Ban::Fixed(s) => format!("`{s}`"),
                    Ban::Word(s) => format!("-w `{s}`"),
                })
                .collect();
            out.push_str(&format!(
                "  bans {} in {}\n",
                strings.join(" "),
                bans.under.join(" ")
            ));
        }
        out.push_str(&format!("  because {}\n", row.reason));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::RETIRED;

    /// `--explain r1` prints a row's name and reason as they are: a string
    /// literal that lost a `\` continuation keeps the next line's indent
    /// (or its newline) in mid-sentence.
    #[test]
    fn retired_names_and_reasons_are_single_spaced_lines() {
        for row in RETIRED {
            for text in [row.name, row.reason] {
                assert!(
                    !text.contains('\n') && !text.contains("  "),
                    "{} ({}): {text:?}",
                    row.name,
                    row.commit
                );
            }
        }
    }
}
