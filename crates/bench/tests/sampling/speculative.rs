//! Greedy draft verification: `greedy_accept` of `decode.lip`.

#[cfg(test)]
mod tests {
    use super::super::run;

    /// `greedy_accept` over distributions peaked at the given tokens (each
    /// a `pred` reply constrained to one token): "accepted next".
    fn verify(draft: &[u32], prior: u32, after: &[u32]) -> String {
        let list = |ts: &[u32]| ts.iter().map(u32::to_string).collect::<Vec<_>>().join(", ");
        run(&format!(
            "let kv = kv_create();
             let d = pred(kv, tokenize(\"a context\"), 0)[0];
             let after = [];
             for t in [{}] {{ after = push(after, constrain(d, [t])); }}
             let v = greedy_accept([{}], constrain(d, [{prior}]), after);
             emit(str(v[0]) + \" \" + str(v[1]));",
            list(after),
            list(draft),
        ))
    }

    #[test]
    fn greedy_accepts_matching_prefix() {
        // The draft matches argmaxes 10, 20, 30; the bonus token comes
        // from the last distribution.
        assert_eq!(verify(&[10, 20, 30], 10, &[20, 30, 40]), "3 40");
    }

    #[test]
    fn greedy_rejects_at_first_mismatch() {
        // The correction is the target's argmax at the reject.
        assert_eq!(verify(&[10, 99], 10, &[20, 30]), "1 20");
    }

    #[test]
    fn greedy_rejects_immediately() {
        assert_eq!(verify(&[55], 10, &[20]), "0 10");
    }

    #[test]
    #[should_panic(expected = "one dist per draft token")]
    fn mismatched_lengths_panic() {
        verify(&[1, 2], 1, &[2]);
    }
}
