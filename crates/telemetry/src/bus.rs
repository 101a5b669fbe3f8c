//! The event bus: a lazy, zero-cost-when-disabled sink for [`TimedEvent`]s.
//!
//! [`EventBus::emit`] takes a *closure* producing the event, not the event
//! itself. With [`Collector::Null`] installed the closure is never invoked,
//! so a disabled bus performs no allocation and no formatting on the hot
//! path — the only cost is one enum-discriminant branch. The
//! [`Collector::Counting`] variant constructs and immediately drops events,
//! which lets tests assert exactly how many events a code path would record.

use symphony_sim::SimTime;

use crate::event::{EventKind, TimedEvent};

/// Where emitted events go.
#[derive(Debug)]
pub enum Collector {
    /// Telemetry disabled: `emit` closures are never invoked.
    Null,
    /// Record events in memory for export.
    Memory(Vec<TimedEvent>),
    /// Construct events, count them, drop them (test probe).
    Counting(u64),
}

/// A single-owner event sink stamped on the virtual clock.
#[derive(Debug)]
pub struct EventBus {
    collector: Collector,
    /// Events constructed so far (0 while disabled — the proof that the
    /// disabled hot path does no event work).
    constructed: u64,
}

impl EventBus {
    /// A disabled bus: `emit` is a branch and nothing else.
    pub fn disabled() -> Self {
        EventBus {
            collector: Collector::Null,
            constructed: 0,
        }
    }

    /// A recording bus backed by an in-memory vector.
    pub fn recording() -> Self {
        EventBus {
            collector: Collector::Memory(Vec::new()),
            constructed: 0,
        }
    }

    /// Replaces the collector, returning the old one.
    pub fn set_collector(&mut self, collector: Collector) -> Collector {
        std::mem::replace(&mut self.collector, collector)
    }

    /// `true` unless the collector is [`Collector::Null`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self.collector, Collector::Null)
    }

    /// Emits one event. The closure runs only when a collector is
    /// installed; callers put all allocation (clones, formatting) inside it.
    #[inline]
    pub fn emit(&mut self, at: SimTime, f: impl FnOnce() -> EventKind) {
        match &mut self.collector {
            Collector::Null => {}
            Collector::Memory(events) => {
                self.constructed += 1;
                events.push(TimedEvent { at, kind: f() });
            }
            Collector::Counting(n) => {
                self.constructed += 1;
                let _ = f();
                *n += 1;
            }
        }
    }

    /// Emits `n` events produced by `f(0)..f(n-1)` in one call — the
    /// batch twin of [`EventBus::emit`] for per-batch-member hot loops.
    /// The `Memory` collector reserves space once; a disabled bus never
    /// invokes the producer.
    pub fn emit_batch(&mut self, at: SimTime, n: usize, mut f: impl FnMut(usize) -> EventKind) {
        match &mut self.collector {
            Collector::Null => return,
            Collector::Memory(events) => {
                events.reserve(n);
                events.extend((0..n).map(|i| TimedEvent { at, kind: f(i) }));
            }
            Collector::Counting(count) => {
                for i in 0..n {
                    let _ = f(i);
                }
                *count += n as u64;
            }
        }
        self.constructed += n as u64;
    }

    /// Recorded events (empty unless the collector is `Memory`).
    pub fn events(&self) -> &[TimedEvent] {
        match &self.collector {
            Collector::Memory(events) => events,
            _ => &[],
        }
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

    /// A counting bus built from a disabled one, as the kernel's
    /// `set_event_collector` builds it.
    fn counting() -> EventBus {
        let mut bus = EventBus::disabled();
        bus.set_collector(Collector::Counting(0));
        bus
    }

    /// What a counting bus counted, read the way a caller reads it: by
    /// taking the collector back.
    fn counted(bus: &mut EventBus) -> u64 {
        match bus.set_collector(Collector::Null) {
            Collector::Counting(n) => n,
            other => panic!("expected a counting collector, got {other:?}"),
        }
    }

    #[test]
    fn counting_bus_counts_without_storing() {
        let mut bus = counting();
        for _ in 0..5 {
            bus.emit(SimTime::ZERO, spawn_event);
        }
        assert_eq!(bus.constructed(), 5);
        assert!(bus.events().is_empty());
        assert_eq!(counted(&mut bus), 5);
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

        // Counting: counted, not stored.
        let mut bus = counting();
        bus.emit_batch(SimTime::ZERO, 4, |_| spawn_event());
        assert_eq!(counted(&mut bus), 4);
    }

    #[test]
    fn set_collector_swaps_and_returns_old() {
        let mut bus = EventBus::recording();
        bus.emit(SimTime::ZERO, spawn_event);
        let old = bus.set_collector(Collector::Null);
        match old {
            Collector::Memory(events) => assert_eq!(events.len(), 1),
            _ => panic!("expected memory collector"),
        }
        assert!(!bus.is_enabled());
    }
}
