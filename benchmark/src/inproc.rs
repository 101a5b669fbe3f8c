//! The in-process epoch driver: LipScript programs in SYMR frames
//! through `ServerCore::feed / pump / take_output`, the way the TCP
//! shell drives the same core.
//!
//! One epoch is [`EPOCH_SESSIONS`] sessions — [`CONNS`] connections, one
//! tenant each, [`SUBMITS_PER_CONN`] SUBMITs per connection — so the
//! shipped `ServeConfig::default()` door (quota 8 per tenant, 256 live)
//! admits exactly all of them. `Kernel::run` only returns at quiescence,
//! so `pump` drains an epoch completely: every session sent in an epoch
//! is DONE before the next epoch is generated, and the live count is
//! back to zero. The wire bytes are encoded before the timed section;
//! the timed section is feed (every connection), pump, take_output;
//! client-side decoding happens after it.

use std::collections::BTreeMap;
use std::time::Instant;

use symphony::Kernel;
use symphony_rpc::{ClientMsg, WIRE_VERSION};
use symphony_serve::{ServeConfig, ServerCore};

use crate::client::{ConnDecoder, SessionOutcome, WireCounts};
use crate::clock;
use crate::workload::{Job, CONNS, EPOCH_SESSIONS, SUBMITS_PER_CONN};

/// Host-clock stamps of one epoch, in ns since the run's origin.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochStamps {
    /// Encoding of the SUBMIT frames began.
    pub encode: u64,
    /// First `feed` call began: start of the timed section.
    pub feed: u64,
    /// `pump` began.
    pub pump: u64,
    /// First `take_output` began.
    pub drain: u64,
    /// Client-side decoding began: end of the timed section.
    pub decode: u64,
    /// Decoding finished.
    pub end: u64,
}

impl EpochStamps {
    /// Host nanoseconds of the timed section (feed + pump + drain).
    pub fn timed_ns(&self) -> u64 {
        self.decode - self.feed
    }
}

/// Everything one epoch produced.
#[derive(Debug)]
pub struct Epoch {
    /// Host-clock stamps.
    pub stamps: EpochStamps,
    /// Per-session outcomes, in session order.
    pub sessions: Vec<SessionOutcome>,
    /// What came back on the wire.
    pub wire: WireCounts,
    /// Kernel events processed during the epoch.
    pub events: u64,
}

/// Wire traffic of one epoch, kept for the layer probes to replay.
#[derive(Debug, Default, Clone)]
pub struct Recording {
    /// Client→server bytes, per connection.
    pub wire_in: Vec<Vec<u8>>,
    /// Server→client bytes, per connection.
    pub wire_out: Vec<Vec<u8>>,
}

/// A `ServerCore` with its [`CONNS`] connections opened and greeted.
pub struct Inproc {
    core: ServerCore,
    conns: Vec<u64>,
    decoders: Vec<ConnDecoder>,
    next_session: u64,
}

impl Inproc {
    /// Wraps `kernel` behind the shipped door configuration and
    /// completes the HELLO handshake on every connection.
    pub fn new(kernel: Kernel) -> Result<Self, String> {
        let mut core = ServerCore::new(kernel, ServeConfig::default());
        let conns: Vec<u64> = (0..CONNS).map(|_| core.open_conn()).collect();
        let mut decoders: Vec<ConnDecoder> = (0..CONNS).map(|_| ConnDecoder::new()).collect();
        let mut none = BTreeMap::new();
        for (i, &conn) in conns.iter().enumerate() {
            let mut wire = Vec::new();
            ClientMsg::Hello {
                version: WIRE_VERSION,
                tenant: i as u64 + 1,
            }
            .encode(&mut wire);
            core.feed(conn, &wire);
            decoders[i].feed(&core.take_output(conn), &mut none, |_| {})?;
            if decoders[i].counts.frames != 1 || decoders[i].counts.errors != 0 {
                return Err(format!(
                    "connection {i}: HELLO was not answered with HELLO_OK"
                ));
            }
            decoders[i].counts = WireCounts::default();
        }
        Ok(Inproc {
            core,
            conns,
            decoders,
            next_session: 1,
        })
    }

    /// The kernel behind the door (read-only: metrics, telemetry, store).
    pub fn kernel(&self) -> &Kernel {
        self.core.kernel()
    }

    /// The server's current virtual time, where the next epoch's
    /// arrival schedule starts.
    pub fn now_ns(&self) -> u64 {
        self.core.kernel().now().as_nanos()
    }

    /// Feeds one SUBMIT and returns once it was ACCEPTED, without
    /// running the kernel: the end point of set-up time.
    pub fn submit_one(&mut self, job: &Job, at_ns: u64) -> Result<(), String> {
        let mut wire = Vec::new();
        ClientMsg::Submit {
            session: self.next_session,
            not_before_ns: at_ns,
            fuel: 0,
            name: job.name.clone(),
            args: job.args.clone(),
            source: job.source.to_string(),
        }
        .encode(&mut wire);
        self.next_session += 1;
        self.core.feed(self.conns[0], &wire);
        let out = self.core.take_output(self.conns[0]);
        self.decoders[0].feed(&out, &mut BTreeMap::new(), |_| {})?;
        if self.decoders[0].counts.accepted == 1 {
            Ok(())
        } else {
            Err("the set-up session was not accepted".into())
        }
    }

    /// Serves one epoch of up to [`EPOCH_SESSIONS`] sessions: `jobs[i]`
    /// arrives at virtual `arrivals[i]` on connection `i % CONNS`. `keep_text` selects the sessions whose
    /// streamed text is retained; `record` captures the wire bytes.
    pub fn run_epoch(
        &mut self,
        origin: Instant,
        jobs: &[Job],
        arrivals: &[u64],
        keep_text: impl Fn(u64) -> bool,
        record: Option<&mut Recording>,
    ) -> Result<Epoch, String> {
        assert!(
            jobs.len() <= EPOCH_SESSIONS,
            "an epoch is what the door admits at once"
        );
        assert_eq!(arrivals.len(), jobs.len());
        let stamp = || clock::ns_since(origin) as u64;
        let mut stamps = EpochStamps {
            encode: stamp(),
            ..Default::default()
        };

        let first = self.next_session;
        let mut sessions: BTreeMap<u64, SessionOutcome> = BTreeMap::new();
        let mut wire_in: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
        for (i, (job, &at)) in jobs.iter().zip(arrivals).enumerate() {
            let session = first + i as u64;
            sessions.insert(
                session,
                SessionOutcome::sent(session, at, keep_text(session)),
            );
            ClientMsg::Submit {
                session,
                not_before_ns: at,
                fuel: 0,
                name: job.name.clone(),
                args: job.args.clone(),
                source: job.source.to_string(),
            }
            .encode(&mut wire_in[i % CONNS]);
        }
        self.next_session += jobs.len() as u64;
        debug_assert_eq!(EPOCH_SESSIONS, CONNS * SUBMITS_PER_CONN);
        let events_before = self.core.kernel().events_processed();

        stamps.feed = stamp();
        for (conn, bytes) in self.conns.iter().zip(&wire_in) {
            if !bytes.is_empty() {
                self.core.feed(*conn, bytes);
            }
        }
        stamps.pump = stamp();
        self.core.pump();
        stamps.drain = stamp();
        let wire_out: Vec<Vec<u8>> = self
            .conns
            .iter()
            .map(|&conn| self.core.take_output(conn))
            .collect();
        stamps.decode = stamp();

        let mut wire = WireCounts::default();
        for (decoder, bytes) in self.decoders.iter_mut().zip(&wire_out) {
            decoder.feed(bytes, &mut sessions, |_| {})?;
            wire.add(std::mem::take(&mut decoder.counts));
        }
        stamps.end = stamp();

        if self.core.live_sessions() != 0 {
            return Err(format!(
                "epoch did not drain: {} sessions still live after pump",
                self.core.live_sessions()
            ));
        }
        if let Some(rec) = record {
            rec.wire_in = wire_in;
            rec.wire_out = wire_out;
        }
        Ok(Epoch {
            stamps,
            sessions: sessions.into_values().collect(),
            wire,
            events: self.core.kernel().events_processed() - events_before,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Workload};

    #[test]
    fn default_door_accepts_a_whole_epoch_and_sheds_nothing() {
        let w = Workload::AgentLoop;
        let mut server = Inproc::new(w.build_kernel(false)).expect("handshake");
        let jobs = Generator::new(w, 1).next_epoch();
        let arrivals = vec![server.now_ns(); EPOCH_SESSIONS];
        let epoch = server
            .run_epoch(clock::now(), &jobs, &arrivals, |_| false, None)
            .expect("epoch");
        assert_eq!(epoch.wire.accepted, 256);
        assert_eq!(epoch.wire.shed, 0);
        assert_eq!(epoch.wire.errors, 0);
        assert!(epoch.sessions.iter().all(|s| s.accepted && s.ok));
        let snap = server.kernel().metrics_snapshot();
        assert_eq!(snap.counter("serve.sessions.accepted"), Some(256));
        assert_eq!(snap.counter("serve.sessions.shed").unwrap_or(0), 0);
    }
}
