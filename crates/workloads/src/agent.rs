//! Tool-calling agent traces (§2.2): a fixed plan of tool invocations
//! interleaved with generation, used to compare server-side execution
//! against client-side round trips.

use symphony_sim::{Rng, SimDuration};

/// One agent task: how many tool calls it makes and how much it generates
/// between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentTrace {
    /// Tool names invoked, in order.
    pub calls: Vec<String>,
    /// Tokens generated before each call and after the last (length =
    /// `calls.len() + 1`).
    pub gen_segments: Vec<usize>,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
}

/// Generator of agent traces.
#[derive(Debug)]
pub struct AgentWorkload {
    rng: Rng,
    tools: Vec<String>,
    calls_per_task: usize,
    tokens_per_segment: usize,
    prompt_tokens: usize,
    /// Modeled client↔server network round-trip time (used by harnesses to
    /// charge baseline function-calling round trips).
    pub client_rtt: SimDuration,
}

impl AgentWorkload {
    /// Creates a workload drawing uniformly from `tools`.
    pub fn new(
        tools: &[&str],
        calls_per_task: usize,
        tokens_per_segment: usize,
        prompt_tokens: usize,
        client_rtt: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(!tools.is_empty());
        AgentWorkload {
            rng: Rng::new(seed),
            tools: tools.iter().map(|s| s.to_string()).collect(),
            calls_per_task,
            tokens_per_segment,
            prompt_tokens,
            client_rtt,
        }
    }

    /// Draws one trace.
    pub fn next_trace(&mut self) -> AgentTrace {
        let calls = (0..self.calls_per_task)
            .map(|_| self.tools[self.rng.gen_index(self.tools.len())].clone())
            .collect();
        let gen_segments = (0..=self.calls_per_task)
            .map(|_| {
                let jitter = self.rng.gen_range(0, (self.tokens_per_segment as u64 / 2).max(1));
                self.tokens_per_segment / 2 + jitter as usize + 1
            })
            .collect();
        AgentTrace {
            calls,
            gen_segments,
            prompt_tokens: self.prompt_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_shape() {
        let mut w = AgentWorkload::new(
            &["search", "calc"],
            3,
            20,
            100,
            SimDuration::from_millis(40),
            1,
        );
        let t = w.next_trace();
        assert_eq!(t.calls.len(), 3);
        assert_eq!(t.gen_segments.len(), 4);
        assert!(t.calls.iter().all(|c| c == "search" || c == "calc"));
        assert!(t.gen_segments.iter().sum::<usize>() >= 4);
        assert_eq!(t.prompt_tokens, 100);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            AgentWorkload::new(&["a", "b"], 2, 10, 50, SimDuration::ZERO, 9).next_trace()
        };
        assert_eq!(mk(), mk());
    }
}
