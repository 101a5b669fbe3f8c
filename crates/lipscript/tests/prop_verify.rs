//! Property tests: the verifier has no false positives, and its fuel bound
//! holds.
//!
//! The admission door rejects a program only on `Severity::Error`
//! diagnostics, so the contract that matters is: **any program the
//! interpreter runs to completion under default limits is admissible**.
//! Warnings are allowed (they don't shed), errors are not. Both properties
//! run the program where a served one runs: inline on a kernel
//! (`harness`).

use std::sync::Arc;

use proptest::prelude::*;
use symphony_lipscript::printer::print_program;
use symphony_lipscript::verify::{verify, verify_source};
use symphony_lipscript::InterpLimits;

mod arb;
mod harness;
use arb::{arb_program, arb_program_with_try};

/// Every report the verifier gives — codes, spans, messages, bounds,
/// effect sets — on 4 096 random programs from a fixed seed, on the
/// shipped examples, and on 1 024 random programs with `try` from a second
/// seed, folded into one FNV-1a digest (in that order: the first two parts
/// alone fold to the digest pinned before `try` existed). A change to how
/// the verifier reads programs has to leave this alone, or re-pin it and
/// say which reports moved and why.
#[test]
fn reports_are_pinned() {
    const PINNED: u64 = 0x11ce_f51f_fe32_0f4d;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |report: &str| {
        for b in report.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let programs = arb_program();
    let mut rng = TestRng::new(0x0005_eed0_fae7);
    for _ in 0..4096 {
        let src = print_program(&programs.gen_value(&mut rng));
        let report = verify_source(&src).expect("printed programs parse");
        fold(&format!("{report:?}"));
    }
    for example in ["agent", "completion", "parallel"] {
        let path = format!("../../examples/lipscript/{example}.lip");
        let src = std::fs::read_to_string(&path).expect("the example is readable");
        let report = verify_source(&src).expect("the example parses");
        fold(&format!("{report:?}"));
    }
    let programs = arb_program_with_try();
    let mut rng = TestRng::new(0x0007_7e1e_c7ed);
    for _ in 0..1024 {
        let src = print_program(&programs.gen_value(&mut rng));
        let report = verify_source(&src).expect("printed programs parse");
        fold(&format!("{report:?}"));
    }
    assert_eq!(digest, PINNED, "reports moved: {digest:#018x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256)
    ))]

    /// Soundness of admission: if the interpreter runs the program to
    /// completion, the verifier must not report any error-severity
    /// diagnostic. (The reverse — rejecting programs that would fault — is
    /// covered by unit tests; it is intentionally incomplete.)
    #[test]
    fn successful_programs_are_admissible(p in arb_program_with_try()) {
        // Round-trip through the printer so the verifier sees exactly what
        // a submitted source string would parse to (with real spans).
        let src = print_program(&p);
        let program = match symphony_lipscript::parse::parse(&src) {
            Ok(prog) => Arc::new(prog),
            Err(e) => return Err(TestCaseError::fail(format!("reparse failed: {e}\n{src}"))),
        };
        let ran = harness::run(Arc::clone(&program), "prop test", InterpLimits::default(), None);
        if matches!(ran.result, Some(Ok(_))) {
            if let Some(err) = verify(&program).first_error() {
                return Err(TestCaseError::fail(format!(
                    "interpreter succeeded but verifier rejected:\n  {}\nprogram:\n{src}",
                    err.render("<prop>"),
                )));
            }
        }
    }

    /// The fuel bound is sound: a program that runs to completion with a
    /// finite `fuel_bound` used no more fuel than that bound.
    #[test]
    fn fuel_used_stays_within_the_fuel_bound(p in arb_program_with_try()) {
        let src = print_program(&p);
        let program = match symphony_lipscript::parse::parse(&src) {
            Ok(prog) => Arc::new(prog),
            Err(e) => return Err(TestCaseError::fail(format!("reparse failed: {e}\n{src}"))),
        };
        let Some(bound) = verify(&program).effects.fuel_bound.finite() else {
            return Ok(());
        };
        let ran = harness::run(program, "prop test", InterpLimits::default(), None);
        if matches!(ran.result, Some(Ok(_))) {
            prop_assert!(
                ran.fuel <= bound,
                "used {} fuel against a bound of {bound}:\n{src}",
                ran.fuel
            );
        }
    }
}
