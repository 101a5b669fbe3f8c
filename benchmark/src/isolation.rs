//! The isolation re-run: a sample of the served sessions run again, one
//! program at a time, each on a fresh kernel with nothing else on it.
//!
//! The paper's claim is that KV reuse and batching never change tokens.
//! A served session shared its batches, the KV pool and the scheduler
//! with up to 255 others; alone on a fresh kernel it shares nothing. If
//! both stream the same bytes, batching, scheduling and tiering did not
//! leak into the output. Running the interpreter directly here also
//! yields each program's exact fuel count, which the server does not
//! report.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use symphony::SysError;
use symphony_lipscript::{parse::parse, InterpLimits, Interpreter};

use crate::window::Sample;
use crate::workload::Workload;

/// Outcome of the re-run.
#[derive(Debug, Clone, Default)]
pub struct IsolationReport {
    /// Sessions re-run.
    pub total: usize,
    /// Sessions whose isolated output equals the served output.
    pub matched: usize,
    /// Interpreter fuel burnt, summed over the sample.
    pub fuel: u64,
    /// First mismatch, for the error message.
    pub first_mismatch: Option<String>,
}

impl IsolationReport {
    /// Every re-run session streamed what the served one did.
    pub fn ok(&self) -> bool {
        self.total > 0 && self.matched == self.total
    }

    /// Mean fuel per session (exact for a seed: fuel is a count).
    pub fn fuel_per_session(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.fuel as f64 / self.total as f64
        }
    }
}

/// Re-runs each sample alone on a fresh `workload` kernel.
pub fn rerun(workload: Workload, samples: &[Sample]) -> IsolationReport {
    let mut report = IsolationReport::default();
    for sample in samples {
        let mut kernel = workload.build_kernel(false);
        let fuel = Arc::new(AtomicU64::new(0));
        let fuel_out = Arc::clone(&fuel);
        let source = Arc::clone(&sample.job.source);
        let pid = kernel.spawn_process(&sample.job.name, &sample.job.args, move |ctx| {
            let program = parse(&source).map_err(|e| SysError::ToolFailed(e.to_string()))?;
            let mut interp = Interpreter::new(Arc::new(program), InterpLimits::default());
            let result = interp.run(ctx);
            // Relaxed: a statistic read after the kernel has joined the run.
            fuel_out.store(interp.fuel_used(), Ordering::Relaxed);
            result
                .map(|_| ())
                .map_err(|e| SysError::ToolFailed(e.to_string()))
        });
        kernel.run();
        report.total += 1;
        report.fuel += fuel.load(Ordering::Relaxed);
        let alone = kernel.record(pid).map(|r| r.output.as_str()).unwrap_or("");
        if alone == sample.text {
            report.matched += 1;
        } else if report.first_mismatch.is_none() {
            report.first_mismatch = Some(format!(
                "{}: served {:?} but alone {:?}",
                sample.job.name,
                head(&sample.text),
                head(alone)
            ));
        }
    }
    report
}

fn head(s: &str) -> String {
    s.chars().take(60).collect()
}
