//! The event bus: a lazy, zero-cost-when-disabled sink for [`TimedEvent`]s.
//!
//! [`EventBus::emit`] takes a *closure* producing the event, not the event
//! itself. On a disabled bus the closure is never invoked, so it performs
//! no allocation and no formatting on the hot path — the only cost is one
//! branch.

use symphony_sim::SimTime;

use crate::event::{EventKind, TimedEvent};

/// A single-owner event sink stamped on the virtual clock.
#[derive(Debug)]
pub struct EventBus {
    /// The recorded events; `None` while disabled.
    events: Option<Vec<TimedEvent>>,
    /// Events constructed so far (0 while disabled — the proof that the
    /// disabled hot path does no event work).
    constructed: u64,
}

impl EventBus {
    /// A disabled bus: `emit` is a branch and nothing else.
    pub fn disabled() -> Self {
        EventBus {
            events: None,
            constructed: 0,
        }
    }

    /// A recording bus backed by an in-memory vector.
    pub fn recording() -> Self {
        EventBus {
            events: Some(Vec::new()),
            constructed: 0,
        }
    }

    /// `true` for a recording bus.
    pub fn is_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Emits one event. The closure runs only on a recording bus; callers
    /// put all allocation (clones, formatting) inside it.
    #[inline]
    pub fn emit(&mut self, at: SimTime, f: impl FnOnce() -> EventKind) {
        if let Some(events) = &mut self.events {
            self.constructed += 1;
            events.push(TimedEvent { at, kind: f() });
        }
    }

    /// Emits `n` events produced by `f(0)..f(n-1)` in one call — the
    /// batch twin of [`EventBus::emit`] for per-batch-member hot loops.
    /// A recording bus reserves space once; a disabled bus never invokes
    /// the producer.
    pub fn emit_batch(&mut self, at: SimTime, n: usize, mut f: impl FnMut(usize) -> EventKind) {
        if let Some(events) = &mut self.events {
            events.reserve(n);
            events.extend((0..n).map(|i| TimedEvent { at, kind: f(i) }));
            self.constructed += n as u64;
        }
    }

    /// Recorded events (empty while disabled).
    pub fn events(&self) -> &[TimedEvent] {
        self.events.as_deref().unwrap_or_default()
    }

    /// Events constructed since creation (0 while disabled).
    pub fn constructed(&self) -> u64 {
        self.constructed
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spawn_event() -> EventKind {
        EventKind::ThreadSpawn { pid: 1, tid: 2 }
    }

    #[test]
    fn disabled_bus_never_runs_the_closure() {
        let mut bus = EventBus::disabled();
        let mut ran = false;
        bus.emit(SimTime::ZERO, || {
            ran = true;
            spawn_event()
        });
        assert!(!ran, "closure must not run while disabled");
        assert_eq!(bus.constructed(), 0);
        assert!(bus.events().is_empty());
        assert!(!bus.is_enabled());
    }

    #[test]
    fn recording_bus_stores_events_in_order() {
        let mut bus = EventBus::recording();
        bus.emit(SimTime::from_nanos(1), spawn_event);
        bus.emit(SimTime::from_nanos(2), || EventKind::ThreadExit {
            pid: 1,
            tid: 2,
            ok: true,
        });
        assert_eq!(bus.events().len(), 2);
        assert_eq!(bus.constructed(), 2);
        assert!(bus.events()[0].at < bus.events()[1].at);
    }

    #[test]
    fn unbounded_bus_reports_zero_drops() {
        // A recording bus keeps every event it is given.
        let mut bus = EventBus::recording();
        for _ in 0..100 {
            bus.emit(SimTime::ZERO, spawn_event);
        }
        assert_eq!(bus.events().len(), 100);
        assert_eq!(bus.constructed(), 100);
    }

    #[test]
    fn emit_batch_matches_per_event_semantics() {
        // Recording: all stored.
        let mut bus = EventBus::recording();
        bus.emit_batch(SimTime::from_nanos(7), 3, |i| EventKind::ThreadSpawn {
            pid: i as u64,
            tid: 0,
        });
        assert_eq!(bus.events().len(), 3);
        assert_eq!(bus.constructed(), 3);
        assert_eq!(bus.events()[2].at, SimTime::from_nanos(7));

        // Disabled: nothing runs.
        let mut bus = EventBus::disabled();
        let mut ran = false;
        bus.emit_batch(SimTime::ZERO, 4, |_| {
            ran = true;
            spawn_event()
        });
        assert!(!ran);
        assert_eq!(bus.constructed(), 0);
    }
}
