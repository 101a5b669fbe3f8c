//! The prompt-serving API surface: requests in, completions out.

use symphony_model::TokenId;
use symphony_sim::{SimDuration, SimTime};

/// A text-completion request (the unit of service in prompt-serving
/// systems).
#[derive(Debug, Clone, PartialEq)]
pub struct PromptRequest {
    /// Client-assigned request ID.
    pub id: u64,
    /// Arrival time at the server.
    pub arrival: SimTime,
    /// The full prompt, tokenised.
    pub prompt: Vec<TokenId>,
    /// Generation cap.
    pub max_tokens: usize,
    /// Sampling temperature (0 = greedy).
    pub temperature: f64,
}

/// A finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Request ID.
    pub id: u64,
    /// Arrival time (copied from the request).
    pub arrival: SimTime,
    /// When the first generated token was produced.
    pub first_token_at: Option<SimTime>,
    /// When the request finished.
    pub finished_at: SimTime,
    /// The generated tokens (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// Prompt tokens that were served from the prefix cache.
    pub cached_prompt_tokens: usize,
    /// `true` if the request was aborted (e.g. the prompt can never fit).
    pub failed: bool,
}

impl Completion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.finished_at.duration_since(self.arrival)
    }

    /// Time to first token.
    pub fn ttft(&self) -> Option<SimDuration> {
        self.first_token_at.map(|t| t.duration_since(self.arrival))
    }
}

/// Aggregate statistics over one engine run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Completed requests.
    pub completed: u64,
    /// Total generated tokens.
    pub generated_tokens: u64,
    /// Total prompt tokens (including cache hits).
    pub prompt_tokens: u64,
    /// Prompt tokens served from the prefix cache.
    pub cached_prompt_tokens: u64,
    /// Preemptions (sequences restarted under memory pressure).
    pub preemptions: u64,
    /// Prefix-cache entries evicted under allocation pressure.
    pub cache_evictions: u64,
    /// Virtual time when the last request finished.
    pub makespan: SimDuration,
}

impl RunStats {
    /// Prompt cache hit rate in tokens.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.prompt_tokens == 0 {
            0.0
        } else {
            self.cached_prompt_tokens as f64 / self.prompt_tokens as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_metrics() {
        let c = Completion {
            id: 1,
            arrival: SimTime::from_nanos(1_000),
            first_token_at: Some(SimTime::from_nanos(3_000)),
            finished_at: SimTime::from_nanos(11_000),
            tokens: vec![1, 2, 3, 4, 5],
            cached_prompt_tokens: 0,
            failed: false,
        };
        assert_eq!(c.latency(), SimDuration::from_nanos(10_000));
        assert_eq!(c.ttft(), Some(SimDuration::from_nanos(2_000)));
    }

    #[test]
    fn empty_completion_has_no_per_token_latency() {
        let c = Completion {
            id: 1,
            arrival: SimTime::ZERO,
            first_token_at: None,
            finished_at: SimTime::from_nanos(5),
            tokens: vec![],
            cached_prompt_tokens: 0,
            failed: false,
        };
        assert_eq!(c.ttft(), None);
    }

    #[test]
    fn stats_rates() {
        let s = RunStats {
            completed: 10,
            generated_tokens: 500,
            prompt_tokens: 1000,
            cached_prompt_tokens: 250,
            makespan: SimDuration::from_secs(5),
            ..Default::default()
        };
        assert!((s.cache_hit_rate() - 0.25).abs() < 1e-9);
        assert_eq!(RunStats::default().cache_hit_rate(), 0.0);
    }
}
