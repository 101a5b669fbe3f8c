//! The green-list watermark of `decode_watermark.lip`: its hash, bias and
//! detector.

#[cfg(test)]
mod tests {
    use super::super::{run, run_with};

    /// The hash `is_green` computes, on `u64`s.
    fn green(key: u64, prev: u32, token: u32) -> bool {
        let mut z = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((prev as u64) << 32 | token as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z >> 11) as f64 / (1u64 << 53) as f64) < 0.25
    }

    #[test]
    fn the_green_list_hash_matches_64_bit_arithmetic() {
        let pairs: Vec<(u32, u32)> = (0..400u32)
            .map(|i| (i * 7919 % 1900, i * 104_729 % 1900))
            .collect();
        let list: Vec<String> = pairs.iter().map(|(p, t)| format!("[{p}, {t}]")).collect();
        let out = run(&format!(
            "let xt = xor_table();
             let bits = \"\";
             for pair in [{}] {{
                 if (is_green(24301, pair[0], pair[1], xt)) {{ bits = bits + \"1\"; }}
                 else {{ bits = bits + \"0\"; }}
             }}
             emit(bits);",
            list.join(", ")
        ));
        let want: String = pairs
            .iter()
            .map(|&(p, t)| if green(24301, p, t) { '1' } else { '0' })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn green_list_fraction_close_to_gamma() {
        let out = run("let xt = xor_table();
             let greens = 0;
             for t in range(0, 10000) {
                 if (is_green(1, 42, t, xt)) { greens = greens + 1; }
             }
             emit(str(greens));");
        let frac = out.parse::<f64>().unwrap() / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "frac={frac}");
    }

    #[test]
    fn bias_preserves_normalisation_and_boosts_green() {
        let out = run("let xt = xor_table();
             let kv = kv_create();
             let d = pred(kv, tokenize(\"provenance\"), 0)[0];
             let vocab = eos() + 1;
             let biased = watermark_bias(d, 2, 7, vocab, xt);
             let mass = biased[1];
             let before = 0.0;
             let after = 0.0;
             for e in biased[0] {
                 mass = mass + e[1];
                 if (is_green(7, 2, e[0], xt)) {
                     before = before + prob(d, e[0]);
                     after = after + e[1];
                 }
             }
             emit(str(mass) + \" \" + str(before) + \" \" + str(after));");
        let v: Vec<f64> = out.split(' ').map(|x| x.parse().unwrap()).collect();
        assert!((v[0] - 1.0).abs() < 1e-9, "mass {}", v[0]);
        assert!(v[2] >= v[1], "green mass {} -> {}", v[1], v[2]);
    }

    #[test]
    fn detector_neutral_on_short_input() {
        let out = run("let xt = xor_table();
             emit(str(watermark_z([], 1, xt)) + \" \" + str(watermark_z([5], 1, xt)));");
        assert_eq!(out, "0 0");
    }

    /// 220 tokens at nucleus 0.9, marked under `key` or clean (`key` 0):
    /// the detector's z-score under each of `detect`.
    fn generate_and_detect(key: u64, detect: &[u64]) -> Vec<f64> {
        let detect: Vec<String> = detect.iter().map(u64::to_string).collect();
        let out = run_with(
            &format!(
                "let key = {key};
                 let xt = xor_table();
                 let vocab = eos() + 1;
                 let prompt = tokenize(args());
                 let kv = kv_create();
                 let d = pred(kv, prompt, 0)[len(prompt) - 1];
                 let prev = prompt[len(prompt) - 1];
                 let out = [];
                 while (len(out) < 220) {{
                     let t = 0;
                     if (key != 0) {{ t = watermark_sample(d, prev, key, vocab, xt); }}
                     else {{ t = sample(top_p(d, 0.9)); }}
                     if (t != eos()) {{ out = push(out, t); }}
                     d = pred(kv, [t], kv_next_pos(kv))[0];
                     prev = t;
                 }}
                 let zs = [];
                 for k in [{}] {{ zs = push(zs, watermark_z(out, k, xt)); }}
                 emit(join_str(zs, \" \"));",
                detect.join(", ")
            ),
            "a paragraph about provenance",
        );
        out.split(' ').map(|z| z.parse().unwrap()).collect()
    }

    #[test]
    fn watermark_is_detectable_and_absent_from_clean_text() {
        let z_marked = generate_and_detect(0xBEEF, &[0xBEEF])[0];
        let z_clean = generate_and_detect(0, &[0xBEEF])[0];
        assert!(z_clean < 3.0, "clean text should not trigger: z={z_clean}");
        assert!(z_marked > 4.0, "watermark should be decisive: z={z_marked}");
        assert!(z_marked > z_clean + 3.0);
    }

    #[test]
    fn different_keys_do_not_cross_detect() {
        let z = generate_and_detect(0xAAAA, &[0xAAAA, 0xBBBB]);
        assert!(z[0] > 4.0, "key A detects its mark: z={}", z[0]);
        assert!(z[1] < 3.0, "key B must not detect key A's mark: z={}", z[1]);
    }
}
