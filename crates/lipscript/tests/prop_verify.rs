//! Property test: the verifier has no false positives.
//!
//! The admission door rejects a program only on `Severity::Error`
//! diagnostics, so the contract that matters is: **any program the
//! interpreter runs to completion under default limits is admissible**.
//! Warnings are allowed (they don't shed), errors are not.

use proptest::prelude::*;
use symphony_lipscript::host::MockHost;
use symphony_lipscript::printer::print_program;
use symphony_lipscript::verify::verify;
use symphony_lipscript::{run_with_host, InterpLimits};

mod arb;
use arb::arb_program;

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
    fn successful_programs_are_admissible(p in arb_program()) {
        // Round-trip through the printer so the verifier sees exactly what
        // a submitted source string would parse to (with real spans).
        let src = print_program(&p);
        let mut host = MockHost::new("prop test");
        let ran = run_with_host(&src, &mut host, InterpLimits::default());
        if ran.is_ok() {
            let report = match symphony_lipscript::parse::parse(&src) {
                Ok(prog) => verify(&prog),
                Err(e) => return Err(TestCaseError::fail(format!("reparse failed: {e}\n{src}"))),
            };
            if let Some(err) = report.first_error() {
                return Err(TestCaseError::fail(format!(
                    "interpreter succeeded but verifier rejected:\n  {}\nprogram:\n{src}",
                    err.render("<prop>"),
                )));
            }
        }
    }
}
