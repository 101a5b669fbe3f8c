//! The client's view of a run: what each session was sent, what came
//! back, and the virtual-time statistics computed from the server's
//! `at_ns` stamps. Shared by all four transports.

use std::collections::BTreeMap;

use symphony_rpc::{FrameReader, ServerMsg, SessionStatus};

use crate::stats;

/// What the client observed of one session.
#[derive(Debug, Clone, Default)]
pub struct SessionOutcome {
    /// Session id: the 1-based position in generation order.
    pub session: u64,
    /// Scheduled virtual arrival (`not_before_ns`), or the arrival
    /// estimate on a transport that cannot schedule one.
    pub arrival_ns: u64,
    /// An ACCEPTED frame arrived.
    pub accepted: bool,
    /// Virtual time of the first token-bearing STREAM frame.
    pub first_token_ns: Option<u64>,
    /// Virtual time of the latest token-bearing STREAM frame.
    last_token_ns: u64,
    /// Gaps between consecutive token-bearing STREAM frames (ns).
    pub gaps_ns: Vec<u64>,
    /// Virtual completion time from DONE.
    pub done_ns: Option<u64>,
    /// DONE arrived with status Ok.
    pub ok: bool,
    /// Tokens the program emitted, per DONE.
    pub emitted_tokens: u64,
    /// Tokens the program ran through `pred`, per DONE.
    pub pred_tokens: u64,
    /// Running FNV-1a/64 of the streamed text, in arrival order.
    pub stream_hash: u64,
    /// The streamed text itself, kept only for sampled sessions.
    pub text: Option<String>,
}

impl SessionOutcome {
    /// A session about to be submitted. `keep_text` retains its stream
    /// for the isolation re-run to compare against.
    pub fn sent(session: u64, arrival_ns: u64, keep_text: bool) -> Self {
        SessionOutcome {
            session,
            arrival_ns,
            stream_hash: stats::FNV_OFFSET,
            text: keep_text.then(String::new),
            ..Default::default()
        }
    }

    /// Applies one streamed chunk stamped `at_ns`.
    pub fn on_stream(&mut self, at_ns: u64, tokens: u64, text: &str) {
        self.stream_hash = stats::fnv1a(self.stream_hash, text.as_bytes());
        if let Some(kept) = self.text.as_mut() {
            kept.push_str(text);
        }
        if tokens == 0 {
            return;
        }
        if self.first_token_ns.is_none() {
            self.first_token_ns = Some(at_ns);
        } else {
            self.gaps_ns.push(at_ns.saturating_sub(self.last_token_ns));
        }
        self.last_token_ns = at_ns;
    }

    /// Applies the session's completion.
    pub fn on_done(&mut self, at_ns: u64, ok: bool, emitted_tokens: u64, pred_tokens: u64) {
        self.done_ns = Some(at_ns);
        self.ok = ok;
        self.emitted_tokens = emitted_tokens;
        self.pred_tokens = pred_tokens;
    }

    /// The session's p99 inter-token gap in ns (its largest gap while
    /// it has fewer than a hundred), 0 with fewer than two tokens.
    pub fn itl_p99_ns(&self) -> u64 {
        let mut gaps: Vec<f64> = self.gaps_ns.iter().map(|&g| g as f64).collect();
        stats::sort(&mut gaps);
        stats::percentile(&gaps, 99.0) as u64
    }
}

/// Frame counts the client saw, for the `serve.*` rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCounts {
    /// Server frames decoded.
    pub frames: u64,
    /// Server bytes received.
    pub bytes: u64,
    /// ACCEPTED frames.
    pub accepted: u64,
    /// Session-scoped ERROR frames.
    pub shed: u64,
    /// All ERROR frames, connection-scoped included.
    pub errors: u64,
}

impl WireCounts {
    /// Adds another tally.
    pub fn add(&mut self, o: WireCounts) {
        self.frames += o.frames;
        self.bytes += o.bytes;
        self.accepted += o.accepted;
        self.shed += o.shed;
        self.errors += o.errors;
    }
}

/// The frames of a session the TCP client stamps host time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// First token-bearing STREAM of a session.
    FirstToken(u64),
    /// DONE of a session.
    Done(u64),
    /// Session-scoped ERROR: the session was shed and ends here.
    Shed(u64),
}

/// Client half of one connection: reassembles frames and files them
/// under their sessions.
#[derive(Debug, Default)]
pub struct ConnDecoder {
    reader: FrameReader,
    /// Counts so far.
    pub counts: WireCounts,
    /// Newest `at_ns` read on this connection.
    pub newest_at_ns: u64,
}

impl ConnDecoder {
    /// A decoder with the default frame cap.
    pub fn new() -> Self {
        ConnDecoder {
            reader: FrameReader::new(),
            ..Default::default()
        }
    }

    /// Feeds received bytes and applies every complete frame to
    /// `sessions`, calling `seen` for each first token, DONE and shed.
    /// A frame that does not decode is an error: the benchmark's peer is
    /// the reference server.
    pub fn feed(
        &mut self,
        bytes: &[u8],
        sessions: &mut BTreeMap<u64, SessionOutcome>,
        mut seen: impl FnMut(Seen),
    ) -> Result<(), String> {
        self.reader.feed(bytes);
        self.counts.bytes += bytes.len() as u64;
        while let Some((tag, payload)) = self.reader.next_frame().map_err(|e| e.to_string())? {
            let msg = ServerMsg::decode(tag, &payload).map_err(|e| format!("server frame: {e}"))?;
            self.counts.frames += 1;
            match msg {
                ServerMsg::Accepted { session, .. } => {
                    self.counts.accepted += 1;
                    if let Some(s) = sessions.get_mut(&session) {
                        s.accepted = true;
                    }
                }
                ServerMsg::Stream {
                    session,
                    at_ns,
                    tokens,
                    text,
                } => {
                    self.newest_at_ns = self.newest_at_ns.max(at_ns);
                    if let Some(s) = sessions.get_mut(&session) {
                        let first = tokens > 0 && s.first_token_ns.is_none();
                        s.on_stream(at_ns, tokens, &text);
                        if first {
                            seen(Seen::FirstToken(session));
                        }
                    }
                }
                ServerMsg::Done {
                    session,
                    at_ns,
                    status,
                    emitted_tokens,
                    pred_tokens,
                    ..
                } => {
                    self.newest_at_ns = self.newest_at_ns.max(at_ns);
                    if let Some(s) = sessions.get_mut(&session) {
                        s.on_done(
                            at_ns,
                            status == SessionStatus::Ok,
                            emitted_tokens,
                            pred_tokens,
                        );
                    }
                    seen(Seen::Done(session));
                }
                ServerMsg::Error { session, .. } => {
                    self.counts.errors += 1;
                    if sessions.contains_key(&session) {
                        self.counts.shed += 1;
                        seen(Seen::Shed(session));
                    }
                }
                ServerMsg::HelloOk { .. } | ServerMsg::Pong { .. } | ServerMsg::ByeOk => {}
            }
        }
        Ok(())
    }
}

/// SLO limits a session must meet.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Time-to-first-token limit, ms.
    pub ttft_ms: f64,
    /// Limit on the session's p99 inter-token gap, ms.
    pub itl_ms: f64,
}

/// Virtual-time statistics over a fixed set of sessions. Every input is
/// a server `at_ns` stamp or a scheduled arrival, so for one seed and
/// one commit these repeat bit for bit.
#[derive(Debug, Default)]
pub struct SimStats {
    ttft_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
    session_itl_ms: Vec<f64>,
    /// Sessions sent.
    pub sent: u64,
    /// Sessions that finished with DONE{Ok}.
    pub ok: u64,
    /// Sessions sent that met both SLO limits.
    pub slo_ok: u64,
    /// Tokens emitted by finished sessions.
    pub tokens: u64,
    /// Tokens run through `pred` by finished sessions.
    pub pred_tokens: u64,
    first_arrival_ns: Option<u64>,
    last_done_ns: u64,
    digest: Vec<(u64, u64)>,
}

impl SimStats {
    /// Folds one finished epoch's sessions in.
    pub fn add(&mut self, sessions: impl Iterator<Item = SessionOutcome>, slo: Slo) {
        for s in sessions {
            self.sent += 1;
            self.digest.push((s.session, s.stream_hash));
            self.first_arrival_ns = Some(
                self.first_arrival_ns
                    .map_or(s.arrival_ns, |a| a.min(s.arrival_ns)),
            );
            let (Some(done), true) = (s.done_ns, s.ok) else {
                continue; // failed or shed: misses every limit
            };
            self.ok += 1;
            self.tokens += s.emitted_tokens;
            self.pred_tokens += s.pred_tokens;
            self.last_done_ns = self.last_done_ns.max(done);
            self.latency_ms
                .push(done.saturating_sub(s.arrival_ns) as f64 / 1e6);
            let itl_p99_ms = s.itl_p99_ns() as f64 / 1e6;
            self.gaps_ms
                .extend(s.gaps_ns.iter().map(|&g| g as f64 / 1e6));
            self.session_itl_ms.push(itl_p99_ms);
            if let Some(first) = s.first_token_ns {
                let ttft = first.saturating_sub(s.arrival_ns) as f64 / 1e6;
                self.ttft_ms.push(ttft);
                if ttft <= slo.ttft_ms && itl_p99_ms <= slo.itl_ms {
                    self.slo_ok += 1;
                }
            }
        }
    }

    /// Sessions sent that did not finish with DONE{Ok}.
    pub fn failed(&self) -> u64 {
        self.sent - self.ok
    }

    /// Virtual seconds from the first arrival to the last completion.
    pub fn makespan_s(&self) -> f64 {
        self.last_done_ns
            .saturating_sub(self.first_arrival_ns.unwrap_or(0)) as f64
            / 1e9
    }

    /// FNV-1a/64 over the stream hashes of sessions `1..=upto`, in
    /// session order.
    pub fn output_digest(&self, upto: u64) -> u64 {
        let mut d: Vec<(u64, u64)> = self
            .digest
            .iter()
            .copied()
            .filter(|&(session, _)| session <= upto)
            .collect();
        d.sort_unstable();
        stats::digest_sessions(d.into_iter().map(|(_, h)| h))
    }

    /// The `sim_*` metrics, in declaration order, with the percentile
    /// actually used for each tail. TTFT is reported as a mean: the
    /// cost model is deterministic and prompts come in few lengths, so
    /// on some workloads more than half of all sessions share one TTFT
    /// to the nanosecond and any percentile of it is a constant.
    pub fn metrics(&mut self) -> Vec<(&'static str, f64, String)> {
        stats::sort(&mut self.ttft_ms);
        stats::sort(&mut self.latency_ms);
        stats::sort(&mut self.gaps_ms);
        let note = |p: f64, n: usize| format!("p{p} of {n}");
        let (ttft99_p, ttft99) = stats::tail(&self.ttft_ms, 99.0);
        let (itl99_p, itl99) = stats::tail(&self.gaps_ms, 99.0);
        let (lat99_p, lat99) = stats::tail(&self.latency_ms, 99.0);
        let makespan = self.makespan_s();
        let ttft_mean = if self.ttft_ms.is_empty() {
            0.0
        } else {
            self.ttft_ms.iter().sum::<f64>() / self.ttft_ms.len() as f64
        };
        vec![
            (
                "sim_ttft_ms_mean",
                ttft_mean,
                format!(
                    "mean of {}; p50 {:.3} p{ttft99_p} {ttft99:.3}",
                    self.ttft_ms.len(),
                    stats::percentile(&self.ttft_ms, 50.0)
                ),
            ),
            ("sim_itl_ms_p99", itl99, note(itl99_p, self.gaps_ms.len())),
            (
                "sim_latency_ms_p50",
                stats::percentile(&self.latency_ms, 50.0),
                note(50.0, self.latency_ms.len()),
            ),
            (
                "sim_latency_ms_p99",
                lat99,
                note(lat99_p, self.latency_ms.len()),
            ),
            (
                "sim_tokens_per_s",
                if makespan > 0.0 {
                    self.tokens as f64 / makespan
                } else {
                    0.0
                },
                format!("{} tokens over {makespan:.3} virtual s", self.tokens),
            ),
            (
                "sim_slo_ok_frac",
                if self.sent > 0 {
                    self.slo_ok as f64 / self.sent as f64
                } else {
                    0.0
                },
                format!("{} of {} sent", self.slo_ok, self.sent),
            ),
        ]
    }

    /// Median TTFT and median per-session p99 gap: what `--calibrate`
    /// triples into the SLO limits.
    pub fn calibration_medians_ms(&mut self) -> (f64, f64) {
        stats::sort(&mut self.ttft_ms);
        stats::sort(&mut self.session_itl_ms);
        (
            stats::percentile(&self.ttft_ms, 50.0),
            stats::percentile(&self.session_itl_ms, 50.0),
        )
    }
}
