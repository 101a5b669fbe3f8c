//! Workload generators for the experiments.
//!
//! Each generator produces a deterministic stream of *logical requests* (no
//! serving-system types), so the same workload can drive Symphony, the
//! vLLM-like baseline and the TGI-like baseline identically.
//!
//! - [`rag`]: the paper's Figure 3 scenario — topics drawn from a Pareto/Zipf
//!   popularity law over a fixed document corpus, Poisson arrivals.
//! - [`chat`]: multi-round conversations (motivates KV retention, §2.1).
//! - [`agent`]: tool-calling agents (client vs. server execution, §2.2).
//! - [`editor`]: a code editor's keystroke stream (the §2 running example).

pub mod agent;
pub mod chat;
pub mod editor;
pub mod rag;

pub use agent::{AgentTrace, AgentWorkload};
pub use chat::{ChatSession, ChatWorkload};
pub use editor::{EditorTrace, EditorWorkload};
pub use rag::{RagCorpus, RagRequest, RagWorkload};
