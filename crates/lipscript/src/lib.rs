//! LipScript — a small sandboxed language for LLM Inference Programs.
//!
//! The paper's core move is that "instead of a prompt, a user sends a
//! *program* to the serving system" (§1). Native Rust LIPs demonstrate the
//! API, but a server cannot accept arbitrary compiled Rust from tenants;
//! §6 calls for "robust sandboxing ... resource accounting, and
//! fine-grained access control". LipScript is that story made concrete: a
//! deterministic, fuel-metered, memory-bounded interpreted language whose
//! only access to the world is the Symphony system-call surface.
//!
//! - **Syntax**: a small C/JS-like imperative language — `let`, assignment,
//!   `if`/`else`, `while`, `for x in xs`, top-level `fn` definitions,
//!   integers/floats/strings/bools/lists, and `nil`; `try` before a
//!   system call makes the kernel's refusal a value (`is_err`,
//!   `err_kind`) instead of the end of the program.
//! - **Builtins** ([`builtins`]): the `pred`/`kv_*`/tool/IPC system calls
//!   plus distribution operations (`sample`, `argmax`, `top_k`,
//!   `constrain`, ...) and list/string utilities.
//! - **Sandboxing** ([`interp::InterpLimits`]): every evaluated AST node
//!   burns fuel, every allocation is charged against a memory budget, call
//!   depth is capped, and exhaustion terminates the program with a
//!   structured error — never the server.
//! - **Threads**: `spawn("fn_name", [args...])` runs a top-level function
//!   on a new kernel thread with its own fuel budget; `join(tid)` waits.
//! - **Execution** ([`image`], [`interp`], [`inline`]): a parsed program is
//!   lowered once to an [`Image`] — a flat arena with every variable
//!   resolved to a frame slot and every call site to its callee, shared by
//!   every run of that source — and the interpreter is a resumable machine
//!   over it: [`Interpreter::step`] runs to the next host call and is
//!   resumed with the reply, so a running program is a value. It enters
//!   the kernel as a [`LipBody`] (`Kernel::admit` with `Body::Inline`),
//!   and the kernel steps it on its own thread: a program owns no OS
//!   thread. A durable one's admission frame carries its text, and
//!   [`rebuild`] makes the body again from it after a crash. [`run_lip`]
//!   runs a script from a native closure instead; its one caller outside
//!   tests is the benchmark's durable workload.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use symphony::{Body, Kernel, KernelConfig, SpawnOpts};
//! use symphony_lipscript::{parse::parse, LipBody};
//!
//! let src = r#"
//!     let prompt = tokenize(args());
//!     let kv = kv_create();
//!     let dists = pred(kv, prompt, 0);
//!     let d = dists[len(dists) - 1];
//!     let pos = len(prompt);
//!     let n = 0;
//!     while (n < 8) {
//!         let t = argmax(d);
//!         if (t == eos()) { break; }
//!         emit_token(t);
//!         d = pred(kv, [t], pos)[0];
//!         pos = pos + 1;
//!         n = n + 1;
//!     }
//! "#;
//!
//! let program = Arc::new(parse(src).expect("parses"));
//! let body = Body::Inline(Box::new(LipBody::new(program, Default::default())));
//! let mut kernel = Kernel::new(KernelConfig::for_tests());
//! let pid = kernel.admit("lip", "hello world", SpawnOpts::default(), body);
//! kernel.run();
//! let rec = kernel.record(pid).unwrap();
//! assert!(rec.status.is_ok(), "{:?}", rec.status);
//! assert!(!rec.output.is_empty());
//! ```

// `tests/arb`, which `reference.rs` includes by path, names this crate
// the way an integration test does.
#[cfg(test)]
extern crate self as symphony_lipscript;

pub mod ast;
pub mod builtins;
pub mod error;
pub mod host;
pub mod image;
pub mod inline;
pub mod interp;
pub mod lex;
pub mod parse;
pub mod printer;
#[cfg(test)]
mod reference;
pub mod value;
pub mod verify;

pub use error::{LipError, RuntimeError};
pub use host::{Host, HostCall, HostReply};
pub use image::Image;
pub use inline::{rebuild, run_lip, LipBody};
pub use interp::{InterpLimits, Interpreter, Step};
pub use value::Value;
pub use verify::{
    verify, verify_image, verify_source, Bound, Diag, EffectSummary, Severity, VerifyReport,
};
