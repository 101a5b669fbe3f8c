//! Benchmark-side spans: recorded around the calls into each layer,
//! kept in memory, written out as Chrome-trace JSON when the run ends.
//!
//! Two clocks share one span table. Host spans (`run > epoch > {gen,
//! encode, serve.feed, serve.pump, serve.drain, client.decode}`) are
//! stamped in host nanoseconds since the run began. Session spans
//! (`session > {ttft, stream}`) are stamped in the server's virtual
//! nanoseconds, carry the session id, and name the host epoch that
//! submitted them as their parent, so a slow epoch can be opened up into
//! the sessions it served. A span's *self time* is its duration minus
//! the part of it its children cover.

use std::fmt::Write as _;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub usize);

/// Which clock a span's stamps are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host nanoseconds since the tracer was created.
    Host,
    /// The server's virtual nanoseconds.
    Virtual,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name; host spans use the layer's name.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in the span's clock.
    pub start_ns: u64,
    /// End, in the span's clock; never before `start_ns`.
    pub end_ns: u64,
    /// The clock of both stamps.
    pub clock: Clock,
    /// Session id shared by all spans of one request.
    pub session: Option<u64>,
}

impl Span {
    /// Length of the span in its own clock.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span table of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty table.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Records a host-clock span.
    pub fn host(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            clock: Clock::Host,
            session: None,
        })
    }

    /// Records a virtual-clock span of one session.
    pub fn session(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        session: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            clock: Clock::Virtual,
            session: Some(session),
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        SpanId(self.spans.len() - 1)
    }

    /// Widens a span's end (the `run` span closes last).
    pub fn extend_to(&mut self, id: SpanId, end_ns: u64) {
        let s = &mut self.spans[id.0];
        s.end_ns = s.end_ns.max(end_ns);
    }

    /// One span.
    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// Ids of the spans named `name`.
    pub fn named(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .map(SpanId)
            .filter(|&id| self.spans[id.0].name == name)
            .collect()
    }

    /// Direct children of `id` that are on its clock.
    pub fn children(&self, id: SpanId) -> Vec<SpanId> {
        let clock = self.spans[id.0].clock;
        (0..self.spans.len())
            .map(SpanId)
            .filter(|&c| self.spans[c.0].parent == Some(id) && self.spans[c.0].clock == clock)
            .collect()
    }

    /// Nanoseconds of `id` covered by its same-clock children: the
    /// length of the union of their intervals clipped to the parent, so
    /// overlapping or overhanging children never count twice or past
    /// the parent.
    pub fn covered_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id.0];
        let mut intervals: Vec<(u64, u64)> = self
            .children(id)
            .into_iter()
            .map(|c| {
                let s = &self.spans[c.0];
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut cursor = parent.start_ns;
        for (start, end) in intervals {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        covered
    }

    /// Self time: duration minus what the children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id.0].duration_ns() - self.covered_ns(id)
    }

    /// Renders the table as Chrome-trace JSON (Perfetto and
    /// `chrome://tracing` both load it). Host spans sit on process 1;
    /// each session is a thread of process 2, whose timestamps are
    /// virtual microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"symbench host clock\"}},\n",
        );
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"sessions, virtual clock\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let (pid, tid) = match s.clock {
                Clock::Host => (1, 1),
                Clock::Virtual => (2, s.session.unwrap_or(0)),
            };
            // Integer nanoseconds rendered as microseconds with three
            // decimals: exact, no float formatting.
            let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"span\":{i}",
                s.name,
                if s.clock == Clock::Host { "host" } else { "virtual" },
                us(s.start_ns),
                us(s.duration_ns()),
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{}", p.0);
            }
            if let Some(session) = s.session {
                let _ = write!(out, ",\"session\":{session}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let epoch = t.host("epoch", None, 100, 1_100);
        t.host("serve.feed", Some(epoch), 100, 200);
        t.host("serve.pump", Some(epoch), 210, 1_000);
        t.host("serve.drain", Some(epoch), 1_000, 1_050);
        assert_eq!(t.covered_ns(epoch), 100 + 790 + 50);
        assert_eq!(t.self_ns(epoch), 60);
        // Epoch self time plus its children's self times is the epoch wall.
        let total: u64 =
            t.self_ns(epoch) + t.children(epoch).iter().map(|&c| t.self_ns(c)).sum::<u64>();
        assert_eq!(total, t.get(epoch).duration_ns());
    }

    #[test]
    fn children_never_exceed_their_parent() {
        let mut t = Tracer::new();
        let p = t.host("epoch", None, 1_000, 2_000);
        // Overlapping children, one overhanging each end of the parent.
        t.host("a", Some(p), 900, 1_500);
        t.host("b", Some(p), 1_400, 1_800);
        t.host("c", Some(p), 1_900, 2_500);
        assert_eq!(t.covered_ns(p), 500 + 300 + 100);
        assert!(t.covered_ns(p) <= t.get(p).duration_ns());
        assert_eq!(t.self_ns(p), 100);
    }

    #[test]
    fn session_spans_do_not_eat_host_time() {
        let mut t = Tracer::new();
        let epoch = t.host("epoch", None, 0, 1_000);
        let s = t.session("session", Some(epoch), 7, 5_000_000, 9_000_000);
        t.session("ttft", Some(s), 7, 5_000_000, 6_000_000);
        assert_eq!(t.self_ns(epoch), 1_000);
        assert_eq!(t.self_ns(s), 3_000_000);
    }

    #[test]
    fn chrome_json_is_valid_and_carries_ids() {
        let mut t = Tracer::new();
        let run = t.host("run", None, 0, 2_500);
        let s = t.session("session", Some(run), 42, 1_000, 4_321);
        t.extend_to(run, 3_000);
        let json = t.to_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde_json::Value::Object(o) = v else {
            panic!("not an object")
        };
        let serde_json::Value::Array(events) = &o["traceEvents"] else {
            panic!("no events")
        };
        assert_eq!(events.len(), 4);
        assert!(json.contains("\"dur\":3.000"));
        assert!(json.contains(&format!("\"parent\":{}", run.0)));
        assert!(json.contains("\"session\":42"));
        assert_eq!(s, SpanId(1));
    }
}
