// Fixture: public functions, and the mentions that do and do not make a
// caller (u1).

/// Mentioned only in a comment, a string, a test module and `tests/`.
pub fn only_mentioned() {}

/// Called by whichever caller file the test pairs this with.
pub fn called_elsewhere() {}

// lint:allow(u1): fixture exercising a well-formed suppression
pub fn kept_with_reason() {}

// lint:allow(u1)
pub fn kept_without_reason() {}

pub(crate) fn crate_private() {}

pub fn calls_the_helpers() {
    // only_mentioned() in a comment is not a call,
    let _ = "only_mentioned()"; // nor is one in a string.
    crate_private();
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}

    #[test]
    fn a_test_call_is_not_a_caller() {
        super::only_mentioned();
        test_helper();
    }
}
