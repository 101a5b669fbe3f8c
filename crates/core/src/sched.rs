//! The batch inference scheduler (§4.4).
//!
//! `pred` system calls park their threads in the kernel's one wait queue,
//! a [`ProgramQueue`]; one GPU loop drains it an iteration at a time.
//! [`ExecMode`] names the presets of that loop. The static preset decides
//! **when** to close the queue into a run-to-completion batch: "executing
//! the batch prematurely can result in underutilized GPU resources ...
//! delaying it excessively can increase wait times". Its [`BatchPolicy`]
//! spans that trade-off, including the paper's adaptive policy that sizes
//! the wait from the observed `pred` arrival rate (a Poisson-process view
//! of syscall arrivals).
//!
//! Whatever the preset, the kernel asks its gate once per virtual instant,
//! after the thread level has run dry (ready queue empty and no event left
//! at `now`): `pred`s that pool at one instant are seen — and leave —
//! together.

use std::collections::VecDeque;

use symphony_sim::{IdSlab, SimDuration, SimTime};

/// When to launch a pooled batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Launch whenever the GPU is idle and the pool is non-empty — with the
    /// whole pool: the gate is asked at the end of an instant, not after
    /// its first arrival.
    Immediate,
    /// Wait until `max_batch` calls pooled or `max_wait` elapsed since the
    /// oldest pooled call.
    FixedWindow {
        /// Longest time the oldest call may wait.
        max_wait: SimDuration,
        /// Launch as soon as this many calls are pooled.
        max_batch: usize,
    },
    /// Estimate the `pred` arrival rate with an EWMA over inter-arrival
    /// gaps and wait just long enough to plausibly reach `target_batch`,
    /// capped by `max_wait`.
    Adaptive {
        /// Batch size worth waiting for.
        target_batch: usize,
        /// Hard cap on the oldest call's wait.
        max_wait: SimDuration,
    },
}

/// Gate verdict for the current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Close the pool into a batch now.
    LaunchNow,
    /// Re-evaluate at this time (the kernel arms a timer).
    WaitUntil(SimTime),
    /// Nothing to do (empty pool).
    Idle,
}

/// EWMA weight for inter-arrival gaps.
const GAP_ALPHA: f64 = 0.2;

/// The static preset's launch gate: a [`BatchPolicy`] plus the `pred`
/// arrival-rate estimator the adaptive policy reads. It pools nothing
/// itself — the kernel's [`ProgramQueue`] holds the calls and
/// [`BatchGate::decide`] is told how many wait and since when.
#[derive(Debug)]
pub struct BatchGate {
    policy: BatchPolicy,
    max_batch: usize,
    last_arrival: Option<SimTime>,
    ewma_gap: Option<f64>,
}

impl BatchGate {
    /// Creates a gate with a policy and a global batch-size cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn new(policy: BatchPolicy, max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        BatchGate {
            policy,
            max_batch,
            last_arrival: None,
            ewma_gap: None,
        }
    }

    /// Records a `pred` joining the pool (a program's retry after
    /// `NoGpuMemory` is a fresh call like any other).
    pub fn on_arrival(&mut self, now: SimTime) {
        if let Some(last) = self.last_arrival {
            let gap = now.duration_since(last).as_secs_f64();
            self.ewma_gap = Some(match self.ewma_gap {
                Some(e) => e * (1.0 - GAP_ALPHA) + gap * GAP_ALPHA,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
    }

    /// Decides what an idle GPU should do with `pooled` waiting calls, the
    /// `oldest` of which joined the pool at that time (`None`: empty pool).
    /// The kernel asks once per virtual instant, when everything due at
    /// `now` has pooled, so `pooled` counts a simultaneous burst whole.
    /// Idempotent: safe to call on stale timers.
    pub fn decide(&self, now: SimTime, pooled: usize, oldest: Option<SimTime>) -> Decision {
        let Some(oldest) = oldest else {
            return Decision::Idle;
        };
        match self.policy {
            BatchPolicy::Immediate => Decision::LaunchNow,
            BatchPolicy::FixedWindow {
                max_wait,
                max_batch,
            } => {
                if pooled >= max_batch.min(self.max_batch) {
                    return Decision::LaunchNow;
                }
                let deadline = oldest + max_wait;
                if now >= deadline {
                    Decision::LaunchNow
                } else {
                    Decision::WaitUntil(deadline)
                }
            }
            BatchPolicy::Adaptive {
                target_batch,
                max_wait,
            } => {
                let target = target_batch.min(self.max_batch);
                if pooled >= target {
                    return Decision::LaunchNow;
                }
                // Expected time to fill the rest of the batch at the
                // observed rate. Cold start: until the estimator has a gap,
                // launch immediately rather than guess a wait. A burst of
                // simultaneous arrivals — which reaches the gate whole, so
                // even the first burst after boot has its gap — computes a
                // zero fill time and launches now, all of it, instead of
                // arming a nanosecond timer.
                let Some(gap) = self.ewma_gap else {
                    return Decision::LaunchNow;
                };
                // If not even one more call is expected within the wait cap,
                // waiting cannot grow the batch: be work-conserving.
                if SimDuration::from_secs_f64(gap) >= max_wait {
                    return Decision::LaunchNow;
                }
                let need = (target - pooled) as f64;
                let fill = SimDuration::from_secs_f64(need * gap);
                let deadline = oldest + fill.min(max_wait);
                if now >= deadline {
                    Decision::LaunchNow
                } else {
                    Decision::WaitUntil(deadline)
                }
            }
        }
    }
}

/// The continuous preset's launch gate: what an idle GPU with work waiting
/// since `idle_since` (`None`: nothing waits) should do while `runnable`
/// LIP threads are on the CPU — handed a reply and not yet back in a
/// blocking syscall. Sampling runs in the LIP, so those threads are about
/// to `pred` again and an iteration that leaves without them costs each of
/// them a whole extra iteration of queueing; threads blocked on a device or
/// a timer are not counted and never waited for. The hold is bounded by
/// `last_iteration`, the compute time of the iteration before: past that,
/// waiting has cost more than launching without the stragglers would have,
/// so a thread that never blocks can idle the GPU at most half the time.
///
/// Like [`BatchGate::decide`] it is asked once per virtual instant, after
/// the instant has drained. At zero per-syscall cost no thread is runnable
/// by then, so the verdict is [`BatchPolicy::Immediate`]'s and the two
/// presets form the same batches at the same times (pinned by
/// `continuous_tests.rs`'s differential property test); at non-zero cost
/// this gate alone also waits for threads due back at a *later* instant.
/// Idempotent like [`BatchGate::decide`].
pub fn threads_parked_gate(
    now: SimTime,
    runnable: usize,
    idle_since: Option<SimTime>,
    last_iteration: SimDuration,
) -> Decision {
    let Some(idle_since) = idle_since else {
        return Decision::Idle;
    };
    let bound = idle_since + last_iteration;
    if runnable == 0 || now >= bound {
        Decision::LaunchNow
    } else {
        Decision::WaitUntil(bound)
    }
}

/// Preset of the GPU loop. There is one loop — every iteration admits
/// waiting `pred`s, runs one slice of each admitted sequence and retires
/// the finished — and a mode fixes four things it reads as data: how
/// large a slice is, how many tokens an iteration's slices share, what
/// gates a launch, and whether the kernel moves KV between tiers on the
/// programs' behalf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Run-to-completion batches: a slice is the whole request, the
    /// [`BatchPolicy`] gates each launch, and KV residency is the
    /// program's business — a `pred` on a swapped-out file fails with
    /// `NotResident`, pool exhaustion with `NoGpuMemory`.
    Static(BatchPolicy),
    /// Iteration-level continuous batching: sequences are admitted and
    /// retired at token-iteration granularity as soon as no LIP thread is
    /// runnable ([`threads_parked_gate`]), long prefills are split into
    /// chunks that fill what the decoders leave of the iteration's token
    /// budget, and the kernel swaps KV in, evicts and preempts when GPU
    /// pages run out.
    Continuous(ContinuousConfig),
}

/// Parameters of the continuous-batching preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContinuousConfig {
    /// Maximum tokens one request contributes to a single iteration.
    /// `None` runs each request's whole remaining prompt in one iteration
    /// (continuous batching without chunked prefill). With `Some`, the
    /// sequences of an iteration also share one token budget — the most
    /// tokens that keep that iteration memory-bound
    /// (`GpuExecutor::roofline_budget`), never less than the ridge of the
    /// device × model roofline (`GpuExecutor::ridge_tokens`: 78 on
    /// A100-80G, the most tokens whose compute one weight stream still
    /// hides) — handed out shortest-remaining first, and a sequence the
    /// budget no longer covers still advances one KV page. So decoders'
    /// inter-token gap stays about one stream of the iteration's bytes
    /// whatever prefills run beside them, a prefill (compute-bound either
    /// way) loses nothing, and this field only binds below the budget.
    pub chunk_tokens: Option<usize>,
    /// Admission order for waiting `pred` calls.
    pub discipline: QueueDiscipline,
}

impl Default for ContinuousConfig {
    fn default() -> Self {
        ContinuousConfig {
            chunk_tokens: Some(256),
            discipline: QueueDiscipline::Fifo,
        }
    }
}

/// Admission order for the continuous preset's wait queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// First-come first-served, program-oblivious.
    Fifo,
    /// Program-aware non-clairvoyant multi-level feedback queue: programs
    /// with little critical-path service so far are admitted first.
    Mlfq(MlfqConfig),
}

/// MLFQ shape: `levels` queues with a geometric service ladder. A program
/// starts at level 0 and demotes one level each time its accumulated
/// critical-path service crosses the next threshold (`quantum_tokens`,
/// then twice that, then four times, ...). Demotion is never reversed:
/// the policy is non-clairvoyant — it approximates shortest-remaining-
/// first using only the service a program has already consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlfqConfig {
    /// Number of priority levels (≥ 1).
    pub levels: usize,
    /// Critical-path tokens a program may consume before its first
    /// demotion.
    pub quantum_tokens: u64,
}

impl Default for MlfqConfig {
    fn default() -> Self {
        MlfqConfig {
            levels: 4,
            quantum_tokens: 512,
        }
    }
}

/// The GPU loop's wait queue: FIFO or program-aware MLFQ.
///
/// Entries are tagged with the owning program and whether the `pred` is on
/// the program's *critical path* (issued by its main thread) or
/// speculative/background (issued by a spawned thread). Only critical-path
/// tokens accrue service — a program is not punished for background
/// speculation — but speculative entries queue one level below the
/// program's current level, so they never starve another program's
/// blocking work.
/// Optionally, an admission-time *static cost hint* (the verifier's upper
/// bound on critical-path pred tokens) seeds a program's ladder position
/// before it has consumed anything: a program known to be cheap keeps top
/// priority for its whole (short) life, while a program whose cost is
/// statically unbounded starts at the bottom instead of riding level 0 at
/// the expense of genuinely short work. Hints only ever *add* to observed
/// service — the discipline stays non-clairvoyant about anything the
/// verifier could not bound.
#[derive(Debug)]
pub struct ProgramQueue<T> {
    discipline: QueueDiscipline,
    levels: Vec<VecDeque<T>>,
    /// Per-program ladder state, slab-indexed by program id. The critical
    /// level is cached and recomputed only when service or hints change, so
    /// the dispatch path (`level_for`/`push`/`pop`) does no map walking.
    programs: IdSlab<ProgState>,
}

/// Cached MLFQ ladder state for one program.
#[derive(Debug, Default, Clone, Copy)]
struct ProgState {
    /// Accumulated critical-path service (tokens).
    service: u64,
    /// Static service estimate added to observed service when picking a
    /// level; `None` when no hint was installed.
    hint: Option<u64>,
    /// Ladder level implied by `service + hint` (critical-path entries).
    level: usize,
}

impl<T> ProgramQueue<T> {
    /// Creates an empty queue for a discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        let n = match discipline {
            QueueDiscipline::Fifo => 1,
            // +1: speculative entries of bottom-level programs still get
            // their own (lower) level.
            QueueDiscipline::Mlfq(cfg) => cfg.levels.max(1) + 1,
        };
        ProgramQueue {
            discipline,
            levels: (0..n).map(|_| VecDeque::new()).collect(),
            programs: IdSlab::new(),
        }
    }

    /// Walks the geometric ladder for a total service figure. Runs only when
    /// a program's service or hint changes; dispatch reads the cached result.
    fn ladder_level(&self, total_service: u64) -> usize {
        match self.discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Mlfq(cfg) => {
                let mut level = 0usize;
                let mut bound = cfg.quantum_tokens.max(1);
                while total_service >= bound && level + 1 < cfg.levels.max(1) {
                    level += 1;
                    bound = bound.saturating_mul(2);
                }
                level
            }
        }
    }

    /// Recomputes and caches the ladder level after a state change.
    fn refresh_level(&mut self, pid: u64) {
        let Some(p) = self.programs.get(pid) else {
            return;
        };
        let total = p.service.saturating_add(p.hint.unwrap_or(0));
        let level = self.ladder_level(total);
        if let Some(p) = self.programs.get_mut(pid) {
            p.level = level;
        }
    }

    /// Queued entries across all levels.
    pub fn len(&self) -> usize {
        self.levels.iter().map(VecDeque::len).sum()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(VecDeque::is_empty)
    }

    /// The level an entry from `pid` would queue at right now. O(1): reads
    /// the level cached at the last `charge`/`set_static_hint` for the
    /// program.
    pub fn level_for(&self, pid: u64, critical: bool) -> usize {
        match self.discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Mlfq(_) => {
                let level = self.programs.get(pid).map(|p| p.level).unwrap_or(0);
                // Speculative/background preds yield to critical-path work.
                if critical {
                    level
                } else {
                    (level + 1).min(self.levels.len() - 1)
                }
            }
        }
    }

    /// Enqueues at the back of the program's current level.
    pub fn push(&mut self, pid: u64, critical: bool, entry: T) {
        let level = self.level_for(pid, critical);
        self.levels[level].push_back(entry);
    }

    /// Re-enqueues at the *front* of the program's current level: a
    /// preempted sequence resumes before later arrivals of equal priority.
    pub fn push_front(&mut self, pid: u64, critical: bool, entry: T) {
        let level = self.level_for(pid, critical);
        self.levels[level].push_front(entry);
    }

    /// Dequeues from the lowest-numbered non-empty level.
    pub fn pop(&mut self) -> Option<T> {
        self.levels.iter_mut().find_map(VecDeque::pop_front)
    }

    /// The entry [`ProgramQueue::pop`] would return.
    pub fn peek(&self) -> Option<&T> {
        self.levels.iter().find_map(VecDeque::front)
    }

    /// Every queued entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.levels.iter().flatten()
    }

    /// Records executed service. Only critical-path tokens move a program
    /// down the ladder.
    pub fn charge(&mut self, pid: u64, critical: bool, tokens: u64) {
        if critical {
            if self.programs.get(pid).is_none() {
                self.programs.insert(pid, ProgState::default());
            }
            if let Some(p) = self.programs.get_mut(pid) {
                p.service += tokens;
            }
            self.refresh_level(pid);
        }
    }

    /// Installs an admission-time cost hint for `pid`. `Some(tokens)` is
    /// the verifier's upper bound on critical-path pred tokens; `None`
    /// means the bound is statically unbounded and seeds the bottom of
    /// the ladder so the program cannot crowd genuinely short work out of
    /// level 0. Under FIFO this is recorded but has no effect.
    pub fn set_static_hint(&mut self, pid: u64, est_tokens: Option<u64>) {
        let hint = match (est_tokens, self.discipline) {
            (Some(t), _) => t,
            (None, QueueDiscipline::Mlfq(cfg)) => {
                // Enough synthetic service to bottom out `level_for`'s
                // geometric ladder from the very first enqueue.
                let shift = (cfg.levels.max(1) as u32 - 1).min(63);
                cfg.quantum_tokens.max(1).saturating_mul(1u64 << shift)
            }
            (None, QueueDiscipline::Fifo) => 0,
        };
        if self.programs.get(pid).is_none() {
            self.programs.insert(pid, ProgState::default());
        }
        if let Some(p) = self.programs.get_mut(pid) {
            p.hint = Some(hint);
        }
        self.refresh_level(pid);
    }

    /// The static cost hint currently installed for a program, if any.
    #[cfg(test)]
    pub(crate) fn static_hint_of(&self, pid: u64) -> Option<u64> {
        self.programs.get(pid).and_then(|p| p.hint)
    }

    /// Drops the service record (and any static hint) of a finished
    /// program.
    pub fn forget(&mut self, pid: u64) {
        self.programs.remove(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A gate beside the pool as the kernel keeps it: a FIFO queue of pooled
    /// times, which `decide` reads exactly as the kernel does.
    struct Pooled {
        gate: BatchGate,
        queue: ProgramQueue<SimTime>,
    }

    impl Pooled {
        fn new(policy: BatchPolicy, max_batch: usize) -> Self {
            Pooled {
                gate: BatchGate::new(policy, max_batch),
                queue: ProgramQueue::new(QueueDiscipline::Fifo),
            }
        }

        fn arrive(&mut self, now: SimTime) {
            self.gate.on_arrival(now);
            self.queue.push(0, true, now);
        }

        fn decide(&self, now: SimTime) -> Decision {
            self.gate
                .decide(now, self.queue.len(), self.queue.peek().copied())
        }
    }

    #[test]
    fn immediate_launches_when_nonempty() {
        let mut s = Pooled::new(BatchPolicy::Immediate, 8);
        assert_eq!(s.decide(at(0)), Decision::Idle);
        s.arrive(at(1));
        assert_eq!(s.decide(at(1)), Decision::LaunchNow);
    }

    #[test]
    fn threads_parked_gate_waits_for_runnable_threads_up_to_one_iteration() {
        let iter = SimDuration::from_millis(14);
        // Nothing waiting.
        assert_eq!(threads_parked_gate(at(3), 2, None, iter), Decision::Idle);
        // Everyone is parked: launch, however short the wait has been.
        assert_eq!(
            threads_parked_gate(at(3), 0, Some(at(3)), iter),
            Decision::LaunchNow
        );
        // A woken thread is still on the CPU: hold, but only to the bound.
        assert_eq!(
            threads_parked_gate(at(3), 1, Some(at(3)), iter),
            Decision::WaitUntil(at(17))
        );
        assert_eq!(
            threads_parked_gate(at(16), 5, Some(at(3)), iter),
            Decision::WaitUntil(at(17))
        );
        // Held as long as the last iteration ran: launch with whoever is here.
        assert_eq!(
            threads_parked_gate(at(17), 5, Some(at(3)), iter),
            Decision::LaunchNow
        );
        // No iteration has run yet: nothing to hold for.
        assert_eq!(
            threads_parked_gate(at(3), 1, Some(at(3)), SimDuration::ZERO),
            Decision::LaunchNow
        );
    }

    #[test]
    fn fixed_window_waits_then_fires() {
        let mut s = Pooled::new(
            BatchPolicy::FixedWindow {
                max_wait: SimDuration::from_millis(10),
                max_batch: 4,
            },
            8,
        );
        s.arrive(at(5));
        assert_eq!(s.decide(at(5)), Decision::WaitUntil(at(15)));
        assert_eq!(s.decide(at(15)), Decision::LaunchNow);
    }

    #[test]
    fn fixed_window_fires_on_full_batch() {
        let mut s = Pooled::new(
            BatchPolicy::FixedWindow {
                max_wait: SimDuration::from_secs(1),
                max_batch: 3,
            },
            8,
        );
        for i in 0..3 {
            s.arrive(at(i));
        }
        assert_eq!(s.decide(at(2)), Decision::LaunchNow);
    }

    #[test]
    fn fixed_window_measures_from_the_oldest_remaining_call() {
        let mut s = Pooled::new(
            BatchPolicy::FixedWindow {
                max_wait: SimDuration::from_millis(10),
                max_batch: 4,
            },
            8,
        );
        s.arrive(at(0));
        s.arrive(at(6));
        assert_eq!(s.decide(at(6)), Decision::WaitUntil(at(10)));
        // The kernel admits the head; the window restarts at the next call.
        assert_eq!(s.queue.pop(), Some(at(0)));
        assert_eq!(s.decide(at(10)), Decision::WaitUntil(at(16)));
    }

    #[test]
    fn adaptive_launches_without_rate_estimate() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 8,
                max_wait: SimDuration::from_millis(50),
            },
            8,
        );
        s.arrive(at(0));
        assert_eq!(s.decide(at(0)), Decision::LaunchNow);
    }

    #[test]
    fn adaptive_waits_proportionally_to_rate() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 4,
                max_wait: SimDuration::from_millis(100),
            },
            8,
        );
        // Arrivals every 2 ms -> gap estimate 2 ms.
        s.arrive(at(0));
        s.arrive(at(2));
        match s.decide(at(2)) {
            Decision::WaitUntil(t) => {
                // Needs 2 more at ~2 ms each: deadline ≈ oldest + 4 ms.
                assert!(t > at(2) && t <= at(0) + SimDuration::from_millis(10), "t={t}");
            }
            other => panic!("expected WaitUntil, got {other:?}"),
        }
        // Target reached -> launch.
        s.arrive(at(3));
        s.arrive(at(4));
        assert_eq!(s.decide(at(4)), Decision::LaunchNow);
    }

    #[test]
    fn adaptive_is_work_conserving_at_low_rate() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 64,
                max_wait: SimDuration::from_millis(5),
            },
            64,
        );
        // Slow arrivals: 1 per 100 ms — no further call can land within the
        // 5 ms window, so waiting would be pure latency tax.
        s.arrive(at(0));
        s.arrive(at(100));
        assert_eq!(s.decide(at(100)), Decision::LaunchNow);
    }

    #[test]
    fn adaptive_waits_when_rate_justifies_it() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 64,
                max_wait: SimDuration::from_millis(5),
            },
            64,
        );
        // Fast arrivals: 1 per ms — the window can accumulate ~5 calls, and
        // the wait is capped at `max_wait` past the oldest.
        s.arrive(at(0));
        s.arrive(at(1));
        match s.decide(at(1)) {
            Decision::WaitUntil(t) => assert_eq!(t, at(0) + SimDuration::from_millis(5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn requeued_pred_feeds_the_estimator_like_a_fresh_arrival() {
        // A pred its program retries after `NoGpuMemory` re-enters through
        // `on_arrival` with its re-pooling time: the gap it closes moves the
        // EWMA, and the wait window is measured from when it re-pooled.
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 4,
                max_wait: SimDuration::from_millis(20),
            },
            8,
        );
        s.arrive(at(0));
        s.arrive(at(1));
        assert_eq!(s.queue.pop(), Some(at(0)));
        assert_eq!(s.queue.pop(), Some(at(1)));
        let before = s.gate.ewma_gap.expect("one gap");
        // The second call failed for memory and comes back 2 ms later.
        s.arrive(at(3));
        let after = s.gate.ewma_gap.expect("two gaps");
        // EWMA: 1 ms * 0.8 + 2 ms * 0.2 = 1.2 ms.
        assert!((before - 1e-3).abs() < 1e-12, "before={before}");
        assert!((after - 1.2e-3).abs() < 1e-12, "after={after}");
        // Three more calls at 1.2 ms each, from the re-pooling time.
        assert_eq!(
            s.decide(at(3)),
            Decision::WaitUntil(at(3) + SimDuration::from_micros(3600))
        );
    }

    #[test]
    fn rate_estimate_cold_start_is_none_until_first_gap() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 8,
                max_wait: SimDuration::from_millis(50),
            },
            8,
        );
        // Zero arrivals: no estimate, nothing to decide.
        assert_eq!(s.gate.ewma_gap, None);
        assert_eq!(s.decide(at(0)), Decision::Idle);
        // One arrival: still no gap, so still no estimate — the adaptive
        // policy's explicit fallback is to launch, not to guess a wait.
        s.arrive(at(0));
        assert_eq!(s.gate.ewma_gap, None);
        assert_eq!(s.decide(at(0)), Decision::LaunchNow);
        // Two arrivals: one gap, estimate commits.
        s.arrive(at(10));
        let gap = s.gate.ewma_gap.expect("estimate after first gap");
        assert!((gap - 0.01).abs() < 1e-12, "gap={gap}");
    }

    #[test]
    fn rate_estimate_simultaneous_arrivals_stay_finite() {
        let mut s = Pooled::new(
            BatchPolicy::Adaptive {
                target_batch: 8,
                max_wait: SimDuration::from_millis(50),
            },
            8,
        );
        // A burst at one instant: a zero gap, never a division by it.
        s.arrive(at(3));
        s.arrive(at(3));
        assert_eq!(s.gate.ewma_gap, Some(0.0));
        // With a zero gap the fill time is zero: launch immediately,
        // don't wait on a degenerate deadline.
        assert_eq!(s.decide(at(3)), Decision::LaunchNow);
    }

    #[test]
    fn rate_estimate_converges() {
        let mut gate = BatchGate::new(BatchPolicy::Immediate, 8);
        assert_eq!(gate.ewma_gap, None);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            gate.on_arrival(t);
            t += SimDuration::from_millis(10);
        }
        let gap = gate.ewma_gap.unwrap();
        assert!((gap - 0.01).abs() < 1e-9, "gap={gap}");
    }

    #[test]
    fn peek_is_what_pop_returns() {
        let cfg = MlfqConfig {
            levels: 4,
            quantum_tokens: 10,
        };
        let mut q = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        assert_eq!(q.peek(), None);
        q.charge(1, true, 1000);
        q.push(1, true, "old");
        q.push(2, true, "new");
        assert_eq!(q.peek(), Some(&"new"));
        assert_eq!(q.pop(), Some("new"));
        assert_eq!(q.peek(), Some(&"old"));
    }

    #[test]
    fn fifo_queue_preserves_arrival_order() {
        let mut q = ProgramQueue::new(QueueDiscipline::Fifo);
        q.push(1, true, "a");
        q.push(2, false, "b");
        q.push(1, true, "c");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert!(q.is_empty());
    }

    #[test]
    fn mlfq_demotes_on_service_ladder() {
        let cfg = MlfqConfig {
            levels: 3,
            quantum_tokens: 100,
        };
        let mut q: ProgramQueue<u32> = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        assert_eq!(q.level_for(1, true), 0);
        q.charge(1, true, 99);
        assert_eq!(q.level_for(1, true), 0, "under quantum");
        q.charge(1, true, 1);
        assert_eq!(q.level_for(1, true), 1, "first demotion at 100");
        q.charge(1, true, 100);
        assert_eq!(q.level_for(1, true), 2, "second demotion at 200");
        q.charge(1, true, 10_000);
        assert_eq!(q.level_for(1, true), 2, "bottoms out at levels-1");
    }

    #[test]
    fn mlfq_prioritises_low_service_programs() {
        let cfg = MlfqConfig {
            levels: 4,
            quantum_tokens: 10,
        };
        let mut q = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        q.charge(1, true, 1000); // long-running program
        q.push(1, true, "old");
        q.push(2, true, "new"); // fresh program, zero service
        assert_eq!(q.pop(), Some("new"), "fresh program admitted first");
        assert_eq!(q.pop(), Some("old"));
    }

    #[test]
    fn mlfq_speculative_preds_yield_and_do_not_accrue_service() {
        let cfg = MlfqConfig {
            levels: 4,
            quantum_tokens: 10,
        };
        let mut q = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        // Speculative work queues one level down...
        assert_eq!(q.level_for(1, false), q.level_for(1, true) + 1);
        q.push(1, false, "spec");
        q.push(2, true, "crit");
        assert_eq!(q.pop(), Some("crit"), "critical path first");
        // ...and charging it does not demote the program.
        q.charge(1, false, 10_000);
        assert_eq!(q.level_for(1, true), 0);
    }

    #[test]
    fn mlfq_push_front_resumes_before_equal_priority() {
        let cfg = MlfqConfig::default();
        let mut q = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        q.push(1, true, "waiting");
        q.push_front(2, true, "preempted");
        assert_eq!(q.pop(), Some("preempted"));
        assert_eq!(q.pop(), Some("waiting"));
    }

    #[test]
    fn program_queue_forget_resets_service() {
        let mut q: ProgramQueue<()> =
            ProgramQueue::new(QueueDiscipline::Mlfq(MlfqConfig::default()));
        q.charge(7, true, 99_999);
        assert!(q.level_for(7, true) > 0, "the charge demoted it");
        q.forget(7);
        assert_eq!(q.level_for(7, true), 0);
    }

    #[test]
    fn mlfq_cheap_static_hint_keeps_top_priority() {
        let cfg = MlfqConfig {
            levels: 4,
            quantum_tokens: 100,
        };
        let mut q: ProgramQueue<u32> = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        q.set_static_hint(1, Some(5));
        assert_eq!(q.static_hint_of(1), Some(5));
        assert_eq!(q.level_for(1, true), 0, "known-cheap stays at level 0");
        // Hints add to observed service: 95 observed + 5 hinted = quantum.
        q.charge(1, true, 95);
        assert_eq!(q.level_for(1, true), 1, "demotes once hint+service crosses");
    }

    #[test]
    fn mlfq_unbounded_static_hint_seeds_bottom_of_ladder() {
        let cfg = MlfqConfig {
            levels: 4,
            quantum_tokens: 100,
        };
        let mut q: ProgramQueue<u32> = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        q.set_static_hint(1, None);
        assert_eq!(
            q.level_for(1, true),
            cfg.levels - 1,
            "statically unbounded program starts at the bottom"
        );
        // Short work still beats it without having to wait for demotion.
        q.push(1, true, 10);
        q.push(2, true, 20);
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(10));
    }

    #[test]
    fn program_queue_forget_clears_static_hint() {
        let mut q: ProgramQueue<()> =
            ProgramQueue::new(QueueDiscipline::Mlfq(MlfqConfig::default()));
        q.set_static_hint(3, None);
        assert!(q.level_for(3, true) > 0);
        q.forget(3);
        assert_eq!(q.static_hint_of(3), None);
        assert_eq!(q.level_for(3, true), 0);
    }

    #[test]
    fn mlfq_cached_levels_match_fresh_ladder_walk() {
        // The slab caches each program's ladder level at mutation time; this
        // pins the cache against a from-scratch ladder walk over every
        // (service, hint) state a randomized op sequence produces.
        let cfg = MlfqConfig {
            levels: 5,
            quantum_tokens: 64,
        };
        let fresh_level = |service: u64, hint: u64| -> usize {
            let total = service.saturating_add(hint);
            let mut level = 0usize;
            let mut bound = cfg.quantum_tokens.max(1);
            while total >= bound && level + 1 < cfg.levels {
                level += 1;
                bound = bound.saturating_mul(2);
            }
            level
        };
        let mut q: ProgramQueue<u64> = ProgramQueue::new(QueueDiscipline::Mlfq(cfg));
        let mut reference: std::collections::BTreeMap<u64, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pid = x % 17;
            match (x >> 8) % 4 {
                0 => {
                    let tokens = (x >> 16) % 200;
                    q.charge(pid, true, tokens);
                    reference.entry(pid).or_default().0 += tokens;
                }
                1 => {
                    let hint = if (x >> 16).is_multiple_of(3) {
                        None
                    } else {
                        Some((x >> 16) % 500)
                    };
                    q.set_static_hint(pid, hint);
                    let eff = hint.unwrap_or_else(|| {
                        cfg.quantum_tokens * (1u64 << (cfg.levels as u32 - 1))
                    });
                    reference.entry(pid).or_default().1 = eff;
                }
                2 => {
                    q.forget(pid);
                    reference.remove(&pid);
                }
                _ => {}
            }
            for check in 0..17u64 {
                let (service, hint) = reference.get(&check).copied().unwrap_or((0, 0));
                assert_eq!(
                    q.level_for(check, true),
                    fresh_level(service, hint),
                    "cached level drifted for pid {check} (service={service} hint={hint})"
                );
            }
        }
    }

    #[test]
    fn fifo_ignores_static_hints() {
        let mut q: ProgramQueue<u32> = ProgramQueue::new(QueueDiscipline::Fifo);
        q.set_static_hint(1, None);
        assert_eq!(q.level_for(1, true), 0);
    }
}
