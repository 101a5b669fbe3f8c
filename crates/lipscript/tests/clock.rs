//! The virtual clock as a program reads it: the kernel's `Now` reply
//! becomes `now_ms()`'s float (`inline::lift`), and the decoding prelude's
//! `now_ns()` rounds that back to whole nanoseconds. E7, E12 and E15 time
//! keystrokes, first tokens and inter-token gaps with it, so the round
//! trip must give back the exact virtual nanosecond.

use std::sync::Arc;

use proptest::prelude::*;
use symphony::{SimTime, SysError, SysReply, Syscall};
use symphony_lipscript::inline::lift;
use symphony_lipscript::parse::parse;
use symphony_lipscript::{Host, HostCall, HostReply, InterpLimits, Interpreter, Value};

/// The prelude, then a program that reads the clock once.
const PROGRAM: &str = concat!(
    include_str!("../../../examples/lipscript/with_prelude/decode.lip"),
    "return now_ns();\n"
);

/// A host that answers only `now_ms`, with the kernel's reply at its time
/// as the interpreter converts it inside the kernel.
struct Clock(SimTime);

impl Host for Clock {
    fn call(&mut self, call: HostCall) -> Result<HostReply, SysError> {
        match call {
            HostCall::Sys(Syscall::Now) => lift(SysReply::Time(self.0)),
            other => panic!("the program asks only the clock, not {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    ))]

    /// Every time below 10¹⁴ ns (about 28 virtual hours) comes back exact.
    #[test]
    fn now_ns_reads_the_exact_virtual_nanosecond(ns in 0u64..100_000_000_000_000) {
        let program = Arc::new(parse(PROGRAM).expect("the prelude parses"));
        let read = Interpreter::new(program, InterpLimits::default())
            .run(&mut Clock(SimTime::from_nanos(ns)))
            .expect("the program runs");
        prop_assert_eq!(read, Value::Int(ns as i64));
    }
}
