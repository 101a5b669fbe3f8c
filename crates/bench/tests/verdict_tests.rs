//! Every paper claim is a test: each pinned `results/<name>.json` (16 of
//! the 18; E3 and E8 report wall time) is read back, and the claim of that
//! experiment's `**Shape:**` or `**Verdict:**` paragraph in EXPERIMENTS.md
//! is asserted as inequalities with stated margins. A re-baseline that
//! rewrites a result file must keep its experiment's claim true.

use std::collections::BTreeMap;

use serde_json::Value;

type Row = BTreeMap<String, Value>;

/// The rows of `results/<name>.json`.
fn rows(name: &str) -> Vec<Row> {
    let path = format!("{}/../../results/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_rows(&text)
}

fn parse_rows(text: &str) -> Vec<Row> {
    match serde_json::from_str::<Value>(text).expect("a results file is JSON") {
        Value::Array(rows) => rows
            .into_iter()
            .map(|r| match r {
                Value::Object(row) => row,
                other => panic!("a result row is an object, got {other:?}"),
            })
            .collect(),
        other => panic!("a results file is an array of rows, got {other:?}"),
    }
}

fn num(row: &Row, key: &str) -> f64 {
    match row.get(key) {
        Some(Value::Number(n)) => *n,
        Some(Value::Bool(b)) => f64::from(u8::from(*b)),
        other => panic!("{key}: not a number: {other:?}"),
    }
}

fn text<'a>(row: &'a Row, key: &str) -> &'a str {
    match row.get(key) {
        Some(Value::String(s)) => s,
        other => panic!("{key}: not a string: {other:?}"),
    }
}

/// The one row whose fields equal `keys`.
fn find<'a>(rows: &'a [Row], keys: &[(&str, &str)]) -> &'a Row {
    let matches = |r: &&Row| {
        keys.iter().all(|&(k, v)| match r.get(k) {
            Some(Value::String(s)) => s == v,
            Some(Value::Number(n)) => v.parse::<f64>().is_ok_and(|v| v == *n),
            Some(Value::Bool(b)) => v.parse::<bool>().is_ok_and(|v| v == *b),
            _ => false,
        })
    };
    let mut found = rows.iter().filter(matches);
    let row = found.next().unwrap_or_else(|| panic!("no row {keys:?}"));
    assert!(found.next().is_none(), "two rows {keys:?}");
    row
}

/// `Err` with `msg` unless `holds`.
fn check(holds: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Figure 3's verdict: at Pareto 0.5 (heavy skew) every baseline without
/// prefix caching needs ≥ 1.5× Symphony's latency per token at every
/// load, and APC-enabled vLLM ≥ 2× from 2 rps up; at Pareto 4 (no hot
/// topic) every baseline is within 0.75–1.25× of Symphony.
fn fig3_verdict(rows: &[Row]) -> Result<(), String> {
    let lpt = |pareto: f64, load: f64, system: &str| {
        rows.iter()
            .find(|r| {
                num(r, "pareto_index") == pareto
                    && num(r, "load_rps") == load
                    && text(r, "system") == system
            })
            .map(|r| num(r, "latency_per_token_ms"))
    };
    let mut points: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (num(r, "pareto_index"), num(r, "load_rps")))
        .collect();
    points.dedup();
    for (pareto, load) in points {
        let symphony = lpt(pareto, load, "symphony").ok_or("a point without symphony")?;
        for system in ["vllm", "vllm-noapc", "tgi"] {
            let Some(base) = lpt(pareto, load, system) else {
                continue;
            };
            let ratio = base / symphony;
            let at = || format!("{system} at Pareto {pareto}, {load} rps: {ratio:.2}x symphony");
            if pareto == 0.5 && system != "vllm" {
                check(ratio >= 1.5, || format!("{}, want >= 1.5x", at()))?;
            }
            if pareto == 0.5 && system == "vllm" && load >= 2.0 {
                check(ratio >= 2.0, || format!("{}, want >= 2x", at()))?;
            }
            if pareto == 4.0 {
                check((0.75..=1.25).contains(&ratio), || {
                    format!("{}, want 0.75-1.25x", at())
                })?;
            }
        }
    }
    Ok(())
}

#[test]
fn fig3_symphony_wins_under_skew_and_ties_without_it() {
    fig3_verdict(&rows("fig3")).unwrap();
}

#[test]
fn fig3_verdict_fails_when_two_systems_swap_rows() {
    let swapped = std::fs::read_to_string(format!(
        "{}/../../results/fig3.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fig3.json")
    .replace("\"symphony\"", "\"swap\"")
    .replace("\"tgi\"", "\"symphony\"")
    .replace("\"swap\"", "\"tgi\"");
    assert!(fig3_verdict(&parse_rows(&swapped)).is_err());
}

/// E1: adaptive batching tracks immediate at the lowest load (within 5 %)
/// and the fixed window at the highest (within 5 %); the fixed 20 ms
/// window pays ≥ 10 ms extra at the lowest load.
#[test]
fn e1_adaptive_tracks_immediate_then_the_window() {
    let rows = rows("exp_batching");
    let lat = |policy: &str, load: &str| {
        num(
            find(&rows, &[("policy", policy), ("load_rps", load)]),
            "mean_latency_ms",
        )
    };
    let (low, high) = ("10", "600");
    assert!((lat("adaptive", low) / lat("immediate", low) - 1.0).abs() < 0.05);
    assert!((lat("adaptive", high) / lat("fixed-20ms", high) - 1.0).abs() < 0.05);
    assert!(lat("fixed-20ms", low) - lat("immediate", low) >= 10.0);
}

/// E2: client-executed tools cost exactly 2·RTT per call over the
/// server-side LIP (within 1 ms), and the stateless API runs more tokens
/// through `pred` at every call count.
#[test]
fn e2_round_trips_cost_two_rtts_per_call() {
    let rows = rows("exp_toolcalls");
    for calls in ["1", "2", "4", "8", "16"] {
        let at = |mode: &str| find(&rows, &[("mode", mode), ("calls", calls)]);
        let gap = num(at("client-stateful"), "latency_ms") - num(at("server-lip"), "latency_ms");
        let want = 2.0 * 40.0 * calls.parse::<f64>().unwrap();
        assert!(
            (gap - want).abs() < 1.0,
            "{calls} calls: gap {gap} ms, want {want}"
        );
        assert!(num(at("client-prompt"), "pred_tokens") > num(at("server-lip"), "pred_tokens"));
    }
}

/// E4: speedup rises with the draft length; k = 1 is slower than plain
/// decoding, every k ≥ 2 faster, and acceptance decays as k grows.
#[test]
fn e4_speculation_pays_from_two_draft_tokens() {
    let mut rows = rows("exp_speculative");
    rows.sort_by(|a, b| num(a, "draft_len").total_cmp(&num(b, "draft_len")));
    let drafted: Vec<&Row> = rows.iter().filter(|r| num(r, "draft_len") >= 1.0).collect();
    for w in drafted.windows(2) {
        assert!(num(w[1], "speedup_vs_autoregressive") > num(w[0], "speedup_vs_autoregressive"));
        assert!(num(w[1], "acceptance") < num(w[0], "acceptance"));
    }
    for r in &drafted {
        let speedup = num(r, "speedup_vs_autoregressive");
        if num(r, "draft_len") == 1.0 {
            assert!(speedup < 1.0, "k = 1: {speedup}");
        } else {
            assert!(speedup > 1.0, "k = {}: {speedup}", num(r, "draft_len"));
        }
    }
}

/// E5: at 16 branches forking needs ≤ 1/5 of the independent variant's
/// peak pages and ≤ 1/10 of its GPU tokens; forked latency stays within
/// 1.5× across branching factors while the independent one grows.
#[test]
fn e5_fork_keeps_one_prefix_and_flat_latency() {
    let rows = rows("exp_tot");
    let at = |mode: &str, b: &str| find(&rows, &[("mode", mode), ("branching", b)]);
    let (fork, indep) = (at("fork", "16"), at("independent", "16"));
    assert!(num(fork, "peak_pages") * 5.0 <= num(indep, "peak_pages"));
    assert!(num(fork, "gpu_tokens") * 10.0 <= num(indep, "gpu_tokens"));
    let branching = ["2", "4", "8", "16"];
    let fork_lat: Vec<f64> = branching
        .iter()
        .map(|b| num(at("fork", b), "latency_ms"))
        .collect();
    let max = fork_lat.iter().copied().fold(f64::MIN, f64::max);
    let min = fork_lat.iter().copied().fold(f64::MAX, f64::min);
    assert!(max / min < 1.5, "fork latency {fork_lat:?}");
    let indep_lat: Vec<f64> = branching
        .iter()
        .map(|b| num(at("independent", b), "latency_ms"))
        .collect();
    assert!(indep_lat.windows(2).all(|w| w[1] > w[0]), "{indep_lat:?}");
}

/// E6: offloading blocked agents' KV lets every background job fit (none
/// fail, where some fail without it), at a price in agent latency; the
/// disk tier spills tokens and changes nothing else that matters.
#[test]
fn e6_offload_frees_memory_for_background_work() {
    let rows = rows("exp_offload");
    let at = |offload: &str, disk: &str| find(&rows, &[("offload", offload), ("disk_tier", disk)]);
    let (off, on, disk) = (
        at("false", "false"),
        at("true", "false"),
        at("true", "true"),
    );
    assert!(num(off, "bg_failures") > 0.0);
    assert_eq!(num(on, "bg_failures"), 0.0);
    assert_eq!(num(disk, "bg_failures"), 0.0);
    assert!(num(on, "agent_mean_latency_ms") > num(off, "agent_mean_latency_ms"));
    assert!(num(disk, "agent_mean_latency_ms") > num(on, "agent_mean_latency_ms"));
    assert_eq!(num(on, "swapped_tokens"), num(disk, "swapped_tokens"));
    assert!(num(disk, "disk_spilled_tokens") > 0.0);
}

/// E7: the LIP's per-keystroke latency varies < 10 % from 200 to 2 000
/// words; prompt resubmission grows with the buffer, and faster with no
/// prefix cache.
#[test]
fn e7_the_lip_is_flat_in_buffer_size() {
    let rows = rows("exp_editor");
    let lat = |mode: &str, words: &str| {
        num(
            find(&rows, &[("mode", mode), ("buffer_words", words)]),
            "mean_keystroke_latency_ms",
        )
    };
    let lip = ["200", "800", "2000"].map(|w| lat("symphony-incremental", w));
    let (min, max) = (
        lip.iter().copied().fold(f64::MAX, f64::min),
        lip.iter().copied().fold(0.0, f64::max),
    );
    assert!(max / min < 1.10, "{lip:?}");
    for mode in ["prompt-apc", "prompt-nocache"] {
        assert!(lat(mode, "200") < lat(mode, "800") && lat(mode, "800") < lat(mode, "2000"));
    }
    for words in ["800", "2000"] {
        assert!(lat("prompt-nocache", words) > lat("prompt-apc", words));
        assert!(lat("prompt-apc", words) > 2.0 * lat("symphony-incremental", words));
    }
}

/// E9: from round 2 on, recomputing the transcript costs more than
/// retaining it, and the last round's gap is the widest.
#[test]
fn e9_retention_beats_recompute_from_the_second_round() {
    let rows = rows("exp_chat");
    let lat = |mode: &str, round: usize| {
        num(
            find(&rows, &[("mode", mode), ("round", &round.to_string())]),
            "mean_turn_latency_ms",
        )
    };
    let gaps: Vec<f64> = (2..=8)
        .map(|r| lat("recompute", r) - lat("retained", r))
        .collect();
    assert!(gaps.iter().all(|&g| g > 0.0), "{gaps:?}");
    let last = *gaps.last().unwrap();
    assert!(gaps.iter().all(|&g| g <= last), "{gaps:?}");
}

/// E10: with an ample pool every page size measures the same; in the
/// tight pool 256-token pages lose 2–8 % throughput and smaller ones
/// nothing.
#[test]
fn e10_page_size_matters_only_at_capacity_boundaries() {
    let rows = rows("exp_pagesize");
    assert_eq!(rows.len(), 8);
    let (ample, tight) = rows.split_at(4);
    let tput = |r: &Row| num(r, "throughput_tok_s");
    assert!(ample.iter().all(|r| tput(r) == tput(&ample[0])));
    assert!(tight[..3].iter().all(|r| tput(r) == tput(&ample[0])));
    let loss = 1.0 - tput(&tight[3]) / tput(&ample[0]);
    assert!((0.02..=0.08).contains(&loss), "256-token pages lose {loss}");
    assert!(rows.iter().all(|r| num(r, "failed") == 0.0));
}

/// E11: without retries goodput follows (1 − rate)⁴ within 0.1; retries
/// in the program hold 100 % through rate 0.2 and pay in latency there.
#[test]
fn e11_program_retries_hold_goodput() {
    let rows = rows("exp_faults");
    let at = |policy: &str, rate: &str| find(&rows, &[("policy", policy), ("fault_rate", rate)]);
    let goodput = |r: &Row| num(r, "ok") / num(r, "total");
    for rate in ["0", "0.05", "0.1", "0.2", "0.4", "0.8"] {
        let want = (1.0 - rate.parse::<f64>().unwrap()).powi(4);
        let got = goodput(at("no-retry", rate));
        assert!((got - want).abs() <= 0.1, "rate {rate}: {got} vs {want}");
    }
    for rate in ["0.05", "0.1", "0.2"] {
        assert_eq!(goodput(at("retry4", rate)), 1.0, "rate {rate}");
        let (retry, plain) = (at("retry4", rate), at("no-retry", rate));
        assert!(num(retry, "mean_ok_latency_ms") > num(plain, "mean_ok_latency_ms"));
    }
}

/// E12: continuous admission cuts the static median inter-token gap to ≤
/// 0.75× and raises throughput on both workloads; chunked prefill cuts
/// the static p99 gap ≥ 10×.
#[test]
fn e12_iteration_level_admission_and_chunking_stack() {
    let rows = rows("exp_sched");
    for workload in ["agent", "rag"] {
        let at = |mode: &str| find(&rows, &[("workload", workload), ("mode", mode)]);
        let (stat, cont, chunk) = (at("static"), at("continuous"), at("cont+chunked"));
        assert!(
            num(cont, "p50_itl_ms") <= 0.75 * num(stat, "p50_itl_ms"),
            "{workload}"
        );
        assert!(
            num(cont, "throughput_tok_s") > num(stat, "throughput_tok_s"),
            "{workload}"
        );
        assert!(
            num(chunk, "p99_itl_ms") * 10.0 <= num(stat, "p99_itl_ms"),
            "{workload}"
        );
    }
}

/// E13: a warm boot hits the cache strictly more often than a cold one
/// and cuts mean latency ≥ 1.3×, on both workloads, with nothing failed.
#[test]
fn e13_a_warm_restart_keeps_the_cache() {
    let rows = rows("exp_persist");
    for workload in ["rag", "agent"] {
        let at = |boot: &str| find(&rows, &[("workload", workload), ("boot", boot)]);
        let (cold, warm) = (at("cold"), at("warm"));
        assert!(
            num(warm, "cache_hit_rate") > num(cold, "cache_hit_rate"),
            "{workload}"
        );
        assert!(
            num(cold, "mean_latency_ms") >= 1.3 * num(warm, "mean_latency_ms"),
            "{workload}"
        );
        assert!(num(warm, "restored_files") > 0.0);
        for r in [cold, warm] {
            assert_eq!(num(r, "failed"), 0.0);
        }
    }
}

/// E14: every program completes; at checkpoint intervals up to 25 ms the
/// run finishes with goodput ≥ 90 % of crash-free, and at the highest
/// crash rate wasted work grows with the interval.
#[test]
fn e14_recovery_repays_only_the_tail() {
    let rows = rows("exp_recovery");
    for r in &rows {
        assert_eq!(num(r, "failed"), 0.0);
        if num(r, "checkpoint_ms") <= 25.0 {
            assert_eq!(num(r, "finished"), 1.0);
            assert!(num(r, "goodput_ratio") >= 0.9);
        }
    }
    let tokens: Vec<f64> = ["1", "5", "25", "100"]
        .iter()
        .map(|c| {
            num(
                find(&rows, &[("checkpoint_ms", c), ("crash_every", "400")]),
                "total_tokens",
            )
        })
        .collect();
    assert!(tokens.windows(2).all(|w| w[1] >= w[0]), "{tokens:?}");
    assert!(tokens[3] > 2.0 * tokens[0], "{tokens:?}");
}

/// E15: on the rag workload the per-pred and per-program p99 tails crown
/// different schedulers; every run's spans cover its programs.
#[test]
fn e15_the_two_tails_disagree_on_rag() {
    let rows = rows("exp_profile");
    let rag: Vec<&Row> = rows
        .iter()
        .filter(|r| text(r, "workload") == "rag")
        .collect();
    let best = |key: &str| {
        text(
            rag.iter()
                .min_by(|a, b| num(a, key).total_cmp(&num(b, key)))
                .unwrap(),
            "mode",
        )
    };
    assert_ne!(best("pred_p99_ms"), best("prog_p99_ms"));
    assert!(rows.iter().all(|r| num(r, "min_coverage") == 1.0));
}

/// E16: TTFT p50 is at least the RTT on every row and moves with it
/// (within 2 ms of the added round trip); a quota of 8 sheds the excess
/// and holds the admitted p99 at the 16-session baseline.
#[test]
fn e16_ttft_follows_rtt_and_quota_holds_the_tail() {
    let rows = rows("exp_serve");
    for r in &rows {
        assert!(num(r, "ttft_p50_ms") >= num(r, "rtt_ms"));
    }
    for sessions in ["16", "48", "96"] {
        for admission in ["open", "quota=8"] {
            let at = |rtt: &str| {
                let keys = [
                    ("workload", "agent"),
                    ("sessions", sessions),
                    ("admission", admission),
                    ("rtt_ms", rtt),
                ];
                num(find(&rows, &keys), "ttft_p50_ms")
            };
            assert!(
                (at("80") - at("2") - 78.0).abs() < 2.0,
                "{sessions} {admission}"
            );
        }
        for rtt in ["2", "20", "80"] {
            let at = |sessions: &str| {
                let keys = [
                    ("workload", "agent"),
                    ("sessions", sessions),
                    ("admission", "quota=8"),
                    ("rtt_ms", rtt),
                ];
                find(&rows, &keys)
            };
            assert_eq!(
                num(at(sessions), "latency_p99_ms"),
                num(at("16"), "latency_p99_ms")
            );
            let excess = sessions.parse::<f64>().unwrap() - 16.0;
            assert_eq!(num(at(sessions), "shed"), excess);
        }
    }
}

/// E17: with the verifier on every hostile program is refused and every
/// clean one completes; with it off the hostile ones are admitted; cost
/// hints bring the short programs' p99 down under MLFQ.
#[test]
fn e17_the_verifier_sheds_the_flood() {
    let rows = rows("exp_vet");
    let at = |cell: &str| find(&rows, &[("cell", cell)]);
    let on = at("flood-verify-on");
    assert_eq!(num(on, "verify_rejected"), num(on, "hostile"));
    assert_eq!(
        num(on, "completed"),
        num(on, "sessions") - num(on, "hostile")
    );
    let off = at("flood-verify-off");
    assert_eq!(num(off, "accepted"), num(off, "sessions"));
    assert!(num(at("mlfq-hints"), "short_p99_ms") < num(at("mlfq-no-hints"), "short_p99_ms"));
}
