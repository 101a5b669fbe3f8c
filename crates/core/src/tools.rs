//! Server-side tools (§2.2, §4.3).
//!
//! The paper argues that function calls which do not depend on the client's
//! environment (third-party APIs, small computations) should execute inside
//! the serving system, eliminating client round trips. A [`ToolRegistry`]
//! holds named tools; each invocation samples a latency from the tool's
//! distribution and runs its handler for the result.

use std::collections::BTreeMap;

use symphony_sim::{LogNormal, Rng, SimDuration};

use crate::types::SysError;

/// What a tool invocation produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolOutcome {
    /// Tool output delivered to the LIP.
    Ok(String),
    /// Application-level failure delivered as an error.
    Failed(String),
}

/// Handler signature: arguments in, outcome out.
pub type ToolHandler = Box<dyn Fn(&str) -> ToolOutcome>;

/// A registered tool: latency model plus handler.
pub struct ToolSpec {
    mean_latency: SimDuration,
    latency: Option<LogNormal>,
    handler: ToolHandler,
}

impl ToolSpec {
    /// A tool with log-normal latency around `mean` (coefficient of
    /// variation 0.3) and the given handler.
    pub fn new<F>(mean: SimDuration, handler: F) -> Self
    where
        F: Fn(&str) -> ToolOutcome + 'static,
    {
        let latency = if mean > SimDuration::ZERO {
            Some(LogNormal::from_mean_cv(mean.as_secs_f64(), 0.3))
        } else {
            None
        };
        ToolSpec {
            mean_latency: mean,
            latency,
            handler: Box::new(handler),
        }
    }

    /// A tool with a fixed (non-random) latency.
    pub fn fixed<F>(latency: SimDuration, handler: F) -> Self
    where
        F: Fn(&str) -> ToolOutcome + 'static,
    {
        ToolSpec {
            mean_latency: latency,
            latency: None,
            handler: Box::new(handler),
        }
    }

    /// The configured mean latency.
    pub fn mean_latency(&self) -> SimDuration {
        self.mean_latency
    }

    fn sample_latency(&self, rng: &mut Rng) -> SimDuration {
        match &self.latency {
            Some(d) => SimDuration::from_secs_f64(d.sample(rng)),
            None => self.mean_latency,
        }
    }
}

impl core::fmt::Debug for ToolSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ToolSpec")
            .field("mean_latency", &self.mean_latency)
            .finish_non_exhaustive()
    }
}

/// The kernel's tool table.
#[derive(Debug, Default)]
pub struct ToolRegistry {
    tools: BTreeMap<String, ToolSpec>,
    invocations: u64,
}

impl ToolRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a tool.
    pub fn register(&mut self, name: &str, spec: ToolSpec) {
        self.tools.insert(name.to_string(), spec);
    }

    /// Returns `true` if `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tools.contains_key(name)
    }

    /// Total invocations served.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Invokes a tool: returns the sampled latency and the outcome, or
    /// [`SysError::NoSuchTool`] if the tool does not exist. An unknown name
    /// never perturbs the RNG, so registering an extra tool elsewhere does
    /// not shift an unrelated process's latency draws.
    pub fn invoke(
        &mut self,
        name: &str,
        args: &str,
        rng: &mut Rng,
    ) -> Result<(SimDuration, ToolOutcome), SysError> {
        let spec = self
            .tools
            .get(name)
            .ok_or_else(|| SysError::NoSuchTool(name.to_string()))?;
        self.invocations += 1;
        let latency = spec.sample_latency(rng);
        let outcome = (spec.handler)(args);
        Ok((latency, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_latency_is_exact() {
        let mut reg = ToolRegistry::new();
        reg.register(
            "echo",
            ToolSpec::fixed(SimDuration::from_millis(5), |args| {
                ToolOutcome::Ok(format!("echo:{args}"))
            }),
        );
        let mut rng = Rng::new(1);
        let (lat, out) = reg.invoke("echo", "hi", &mut rng).unwrap();
        assert_eq!(lat, SimDuration::from_millis(5));
        assert_eq!(out, ToolOutcome::Ok("echo:hi".into()));
        assert_eq!(reg.invocations(), 1);
    }

    #[test]
    fn sampled_latency_varies_around_mean() {
        let mut reg = ToolRegistry::new();
        reg.register(
            "web",
            ToolSpec::new(SimDuration::from_millis(50), |_| ToolOutcome::Ok(String::new())),
        );
        let mut rng = Rng::new(2);
        let mut total = 0.0;
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..2000 {
            let (lat, _) = reg.invoke("web", "", &mut rng).unwrap();
            total += lat.as_secs_f64();
            distinct.insert(lat.as_nanos());
        }
        let mean = total / 2000.0;
        assert!((mean - 0.05).abs() < 0.005, "mean={mean}");
        assert!(distinct.len() > 1000, "latency should vary");
    }

    #[test]
    fn unknown_tool_is_typed_error() {
        let mut reg = ToolRegistry::new();
        assert_eq!(
            reg.invoke("nope", "", &mut Rng::new(1)),
            Err(SysError::NoSuchTool("nope".into()))
        );
        assert!(!reg.contains("nope"));
        assert_eq!(reg.invocations(), 0, "failed lookups are not invocations");
    }

    #[test]
    fn failures_are_outcomes_not_panics() {
        let mut reg = ToolRegistry::new();
        reg.register(
            "flaky",
            ToolSpec::fixed(SimDuration::ZERO, |_| ToolOutcome::Failed("503".into())),
        );
        let (_, out) = reg.invoke("flaky", "", &mut Rng::new(1)).unwrap();
        assert_eq!(out, ToolOutcome::Failed("503".into()));
    }
}
