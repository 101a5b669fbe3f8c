//! CPU pinning through the two libc affinity calls.
//!
//! The kernel serialises LIP threads — one runs at a time, handing off
//! through a channel round trip — so one core is the honest resource.
//! Left to the OS, the kernel thread and the LIP workers land on
//! different cores and every hand-off becomes a cross-core futex wake:
//! the same binary doing the same work then runs about five times
//! slower, and which of the two speeds a run gets flips between runs.
//! Pinning happens in `main` before any thread exists, so LIP-pool
//! workers inherit the mask.

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs this process may run on, ascending. Empty when the call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and every thread or child process it
/// later creates) to `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed
    // and is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Where the benchmark runs: the serving side on `serve_cpu`, the
/// single-threaded TCP client on `client_cpu`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// CPU of the process that serves (this process for the in-process
    /// workloads, the `symphony-serve` child for `tcp_agent`).
    pub serve_cpu: usize,
    /// CPU of the TCP client loop; equals `serve_cpu` on a one-CPU host.
    pub client_cpu: usize,
    /// Whether the affinity calls succeeded. When false the benchmark
    /// still runs and reports wall-clock metrics as unresolved.
    pub pinned: bool,
}

/// Picks the first two allowed CPUs and pins the caller to the first.
pub fn place() -> Placement {
    let cpus = allowed_cpus();
    let serve_cpu = cpus.first().copied().unwrap_or(0);
    let client_cpu = cpus.get(1).copied().unwrap_or(serve_cpu);
    Placement {
        serve_cpu,
        client_cpu,
        pinned: !cpus.is_empty() && pin_to(serve_cpu),
    }
}
