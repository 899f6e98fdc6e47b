//! The event model: one timestamped [`Event`] type and one bounded
//! per-rank [`EventLog`], owned by the [`World`](crate::world::World).
//!
//! The paper measures with one timer library and one rule (§6.2); this is
//! the one store behind "where did the time go" and "what broke". Every
//! occurrence a rank can put on a timeline is an [`Event`]: a completed
//! span, a send / blocking receive / receive timeout / stale discard, or a
//! journal entry (health verdict, rollback, shrink, checkpoint begin and
//! commit, fault, alert, serve ticket lifecycle). `comm` records the
//! message kinds itself; the span profiler and the resilience ladder in the
//! layers above record the rest into the same log, which they reach through
//! [`Rank::events`](crate::world::Rank::events). The exporters in
//! `ap3esm-obs` (chrome trace, journal, postmortem, critical path) are
//! plain functions of one [`EventLog::snapshot`].
//!
//! Two retention classes per rank: spans and messages share a ring that
//! evicts its oldest entry when full (a trace of the most recent window
//! beats a trace of the spin-up); the rare journal kinds have a ring of
//! their own, so no span or message flood can push a rollback marker out.
//! Evictions are counted per rank. Disabled (the default), recording costs
//! one relaxed atomic load per call; enabled, recording allocates nothing —
//! names are interned [`Name`]s, and an event is 48 bytes.
//!
//! All timestamps are microseconds since the shared [`trace_epoch`]. Ranks
//! are threads of one process, so a single epoch aligns every rank's track
//! on one timeline — the property chrome-trace flow events rely on.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

/// The process-wide trace clock origin. First caller pins it; every
/// subsequent timestamp (any event, any rank) is relative to it.
pub fn trace_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`trace_epoch`].
pub fn trace_now_us() -> u64 {
    trace_epoch().elapsed().as_micros() as u64
}

/// Small stable per-thread track id. Messages sit on track 0; thread
/// tracks start at 1 (and wrap far beyond any one world's thread count).
pub fn current_tid() -> u16 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u16 = (NEXT.fetch_add(1, Ordering::Relaxed) % (u16::MAX as u64)) as u16 + 1;
    }
    TID.with(|t| *t)
}

/// An interned string: a span name, a marker name, a tenant. Interning is
/// what keeps [`Event`] `Copy` and recording allocation-free — a name is
/// looked up (or, the first time, stored) once and travels as four bytes.
/// The table is process-wide and bounded; names are meant to come from a
/// small vocabulary, not from `format!`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Name(u32);

/// Distinct names the table holds before it answers [`NAMES_FULL`].
const MAX_NAMES: usize = 1 << 16;
const NAMES_FULL: &str = "(name table full)";

struct Names {
    ids: HashMap<&'static str, u32>,
    strs: Vec<&'static str>,
}

fn names() -> &'static Mutex<Names> {
    static NAMES: OnceLock<Mutex<Names>> = OnceLock::new();
    NAMES.get_or_init(|| {
        // Id 0 is the empty name (`Name::default()`), id 1 the overflow.
        let strs = vec!["", NAMES_FULL];
        let ids = strs
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32))
            .collect();
        Mutex::new(Names { ids, strs })
    })
}

impl Name {
    /// Intern `s`. Allocates only the first time a string is seen.
    pub fn new(s: &str) -> Name {
        let mut t = names().lock();
        if let Some(&id) = t.ids.get(s) {
            return Name(id);
        }
        if t.strs.len() >= MAX_NAMES {
            return Name(1);
        }
        let id = t.strs.len() as u32;
        let s: &'static str = Box::leak(s.into());
        t.strs.push(s);
        t.ids.insert(s, id);
        Name(id)
    }

    pub fn as_str(self) -> &'static str {
        names().lock().strs[self.0 as usize]
    }
}

/// What an [`Event`] records. The label of each kind is the `kind` in the
/// `args` of its chrome-trace row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// A completed profiler span: `name` is the span, `tid` its thread.
    Span,
    /// A buffered send (duration 0: the payload moves immediately). `a` is
    /// the destination rank, `b` the tag, `n` the payload bytes.
    Send,
    /// A blocking receive; `dur_us` is the time spent waiting, so deadlock
    /// timeouts and rearrangement stalls are visible on the timeline. `a`
    /// is the source rank, `b` the tag, `n` the payload bytes.
    Recv,
    /// A blocking receive that exhausted its deadline and surfaced a
    /// `Deadlock`; `a`/`b` name the stream the rank was waiting on and
    /// `dur_us` is the full timed-out window. The postmortem analyzer keys
    /// its first-stalled-rank search on these.
    Timeout,
    /// Stale-generation messages discarded at receive or by
    /// [`drain_stale`](crate::world::Rank::drain_stale); `a` is the source
    /// rank of the discarded traffic and `n` the number of messages dropped.
    Stale,
    /// A health-agreement verdict (`a` = severity code: 0 healthy,
    /// 1 degraded, 2 fatal).
    Health,
    /// An alert rule fired (`name` is `alert.<rule>`).
    Alert,
    /// A recovery action: rollback begun (`a` = rollback count so far).
    Recovery,
    /// The world shrank (`a` = new generation, `b` = surviving rank count).
    Shrink,
    /// Checkpoint write begun (`a` = checkpoint id).
    CkptBegin,
    /// Checkpoint committed and agreed (`a` = checkpoint id).
    CkptCommit,
    /// An injected or detected fault (`name` says which).
    Fault,
    /// Serve: a ticket entered the system (`a` = ticket id, `name` = tenant).
    ServeSubmit,
    /// Serve: a ticket completed (`a` = ticket id, `b` = latency µs).
    ServeDone,
    /// Serve: a ticket was shed or failed (`a` = ticket id).
    ServeShed,
    /// Milestone marker (run start, resume, …).
    Mark,
}

impl Kind {
    const ALL: [Kind; 16] = [
        Kind::Span,
        Kind::Send,
        Kind::Recv,
        Kind::Timeout,
        Kind::Stale,
        Kind::Health,
        Kind::Alert,
        Kind::Recovery,
        Kind::Shrink,
        Kind::CkptBegin,
        Kind::CkptCommit,
        Kind::Fault,
        Kind::ServeSubmit,
        Kind::ServeDone,
        Kind::ServeShed,
        Kind::Mark,
    ];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Span => "span",
            Kind::Send => "send",
            Kind::Recv => "recv",
            Kind::Timeout => "timeout",
            Kind::Stale => "stale",
            Kind::Health => "health",
            Kind::Alert => "alert",
            Kind::Recovery => "recovery",
            Kind::Shrink => "shrink",
            Kind::CkptBegin => "ckpt.begin",
            Kind::CkptCommit => "ckpt.commit",
            Kind::Fault => "fault",
            Kind::ServeSubmit => "serve.submit",
            Kind::ServeDone => "serve.done",
            Kind::ServeShed => "serve.shed",
            Kind::Mark => "mark",
        }
    }

    /// Inverse of [`Kind::label`].
    pub fn from_label(label: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Send, receive, timeout or stale discard: the kinds `comm` records.
    pub fn is_message(self) -> bool {
        matches!(self, Kind::Send | Kind::Recv | Kind::Timeout | Kind::Stale)
    }

    /// The rare kinds, kept in the journal ring (everything that is neither
    /// a span nor a message).
    pub fn is_journal(self) -> bool {
        self != Kind::Span && !self.is_message()
    }
}

/// One timestamped occurrence on a rank's timeline. Which rank is the index
/// of the ring it sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since [`trace_epoch`] at event start.
    pub ts_us: u64,
    /// Duration in microseconds (0 for sends and journal kinds).
    pub dur_us: u64,
    /// The other rank for messages (destination of a send, source of a
    /// receive); kind-specific for journal kinds (see [`Kind`]).
    pub a: u64,
    /// The tag for messages; kind-specific for journal kinds.
    pub b: u64,
    /// Payload bytes (send, recv) or dropped-message count (stale).
    pub n: u64,
    /// Span name or marker name; empty for messages.
    pub name: Name,
    /// Thread track ([`current_tid`]); 0 for messages.
    pub tid: u16,
    pub kind: Kind,
}

impl Event {
    /// A message event (`kind` one of send / recv / timeout / stale).
    pub fn msg(kind: Kind, ts_us: u64, dur_us: u64, peer: usize, tag: u64, n: u64) -> Event {
        Event {
            ts_us,
            dur_us,
            a: peer as u64,
            b: tag,
            n,
            name: Name::default(),
            tid: 0,
            kind,
        }
    }

    /// A completed span.
    pub fn span(name: Name, tid: u16, ts_us: u64, dur_us: u64) -> Event {
        Event {
            ts_us,
            dur_us,
            a: 0,
            b: 0,
            n: 0,
            name,
            tid,
            kind: Kind::Span,
        }
    }

    /// A journal entry at `ts_us` (see [`EventLog::mark`] for "now").
    pub fn mark(kind: Kind, name: Name, a: u64, b: u64, tid: u16, ts_us: u64) -> Event {
        Event {
            ts_us,
            dur_us: 0,
            a,
            b,
            n: 0,
            name,
            tid,
            kind,
        }
    }

    /// The other rank of a message event.
    pub fn peer(&self) -> usize {
        self.a as usize
    }

    pub fn end_us(&self) -> u64 {
        self.ts_us + self.dur_us
    }
}

/// Per-rank capacity of the span-and-message ring (events).
pub const RING_CAPACITY: usize = 16_384;
/// Per-rank capacity of the journal ring. Small enough that an always-on
/// recorder is memory-trivial, large enough that the failure window of
/// interest survives.
pub const JOURNAL_CAPACITY: usize = 4_096;

#[derive(Default)]
struct RankLog {
    ring: Mutex<VecDeque<Event>>,
    journal: Mutex<VecDeque<Event>>,
    evicted: AtomicU64,
}

/// Per-rank bounded rings of [`Event`]s, shared by the world.
pub struct EventLog {
    enabled: AtomicBool,
    ring_capacity: usize,
    journal_capacity: usize,
    ranks: Vec<RankLog>,
}

impl EventLog {
    /// A disabled log for `n_ranks` ranks at the default capacities.
    pub fn new(n_ranks: usize) -> Self {
        EventLog::with_capacity(n_ranks, RING_CAPACITY, JOURNAL_CAPACITY)
    }

    pub fn with_capacity(n_ranks: usize, ring: usize, journal: usize) -> Self {
        EventLog {
            enabled: AtomicBool::new(false),
            ring_capacity: ring.max(1),
            journal_capacity: journal.max(1),
            ranks: (0..n_ranks).map(|_| RankLog::default()).collect(),
        }
    }

    /// Turn recording on or off (idempotent; any rank may call it).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The hot-path gate: one relaxed load.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Append an event to `rank`'s ring of its class (caller already
    /// checked [`EventLog::is_enabled`]).
    pub fn record(&self, rank: usize, event: Event) {
        let log = &self.ranks[rank];
        let (ring, capacity) = if event.kind.is_journal() {
            (&log.journal, self.journal_capacity)
        } else {
            (&log.ring, self.ring_capacity)
        };
        let mut ring = ring.lock();
        if ring.len() >= capacity {
            ring.pop_front();
            log.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Journal `kind` on `rank` now, on the calling thread's track. A no-op
    /// (one relaxed load) while the log is disabled.
    pub fn mark(&self, rank: usize, kind: Kind, name: &str, a: u64, b: u64) {
        if self.is_enabled() {
            let name = Name::new(name);
            self.record(
                rank,
                Event::mark(kind, name, a, b, current_tid(), trace_now_us()),
            );
        }
    }

    /// Every rank's retained events, without draining: `result[rank]` is
    /// that rank's span-and-message ring in arrival order followed by its
    /// journal ring in arrival order. A bundle dump mid-run therefore
    /// steals nothing from the trace export at the end.
    pub fn snapshot(&self) -> Vec<Vec<Event>> {
        self.ranks
            .iter()
            .map(|log| {
                let mut events: Vec<Event> = log.ring.lock().iter().copied().collect();
                events.extend(log.journal.lock().iter());
                events
            })
            .collect()
    }

    /// How many of `rank`'s events the rings have evicted.
    pub fn evicted(&self, rank: usize) -> u64 {
        self.ranks[rank].evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(ts: u64) -> Event {
        Event::msg(Kind::Send, ts, 0, 1, 7, 64)
    }

    #[test]
    fn epoch_is_stable_and_clock_is_monotone() {
        let a = trace_epoch();
        let t0 = trace_now_us();
        let b = trace_epoch();
        assert_eq!(a, b);
        assert!(trace_now_us() >= t0);
    }

    #[test]
    fn an_event_is_no_larger_than_the_old_comm_event() {
        assert!(std::mem::size_of::<Event>() <= 48);
    }

    #[test]
    fn names_intern_to_one_id_and_resolve_back() {
        let a = Name::new("atm_run");
        assert_eq!(a, Name::new("atm_run"));
        assert_ne!(a, Name::new("ocn_run"));
        assert_eq!(a.as_str(), "atm_run");
        assert_eq!(Name::default().as_str(), "");
        assert_eq!(Name::new(""), Name::default());
    }

    #[test]
    fn labels_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_label(k.label()), Some(k));
        }
        assert_eq!(Kind::from_label("no-such-kind"), None);
    }

    #[test]
    fn disabled_log_marks_nothing() {
        let log = EventLog::with_capacity(2, 8, 8);
        assert!(!log.is_enabled());
        log.mark(0, Kind::Health, "health.fatal", 2, 0);
        assert!(log.snapshot()[0].is_empty());
        log.set_enabled(true);
        log.mark(1, Kind::Alert, "alert.hot", 0, 0);
        let snap = log.snapshot();
        assert!(snap[0].is_empty());
        assert_eq!(snap[1].len(), 1);
        assert_eq!(snap[1][0].name.as_str(), "alert.hot");
        assert!(snap[1][0].tid >= 1);
    }

    #[test]
    fn ring_keeps_newest_counts_evictions_and_does_not_drain() {
        let log = EventLog::with_capacity(1, 3, 3);
        for t in 0..5 {
            log.record(0, send(t));
        }
        for _ in 0..2 {
            let ts: Vec<u64> = log.snapshot()[0].iter().map(|e| e.ts_us).collect();
            assert_eq!(ts, vec![2, 3, 4]);
            assert_eq!(log.evicted(0), 2);
        }
    }

    #[test]
    fn a_flood_of_spans_and_messages_evicts_no_journal_event() {
        let (ring, journal) = (32, 8);
        let log = EventLog::with_capacity(2, ring, journal);
        log.set_enabled(true);
        log.mark(0, Kind::CkptCommit, "checkpoint.commit", 1, 0);
        log.mark(1, Kind::Fault, "fault.kill", 3, 0);
        let span = Name::new("flood");
        for t in 0..(10 * ring as u64) {
            log.record(0, Event::span(span, 1, t, 1));
            log.record(1, send(t));
        }
        log.mark(0, Kind::Recovery, "rollback", 1, 0);
        let snap = log.snapshot();
        for (rank, events) in snap.iter().enumerate() {
            assert_eq!(events.iter().filter(|e| !e.kind.is_journal()).count(), ring);
            assert_eq!(log.evicted(rank), 9 * ring as u64, "rank {rank}");
        }
        let journal_of = |rank: usize| -> Vec<&str> {
            snap[rank]
                .iter()
                .filter(|e| e.kind.is_journal())
                .map(|e| e.name.as_str())
                .collect()
        };
        assert_eq!(journal_of(0), vec!["checkpoint.commit", "rollback"]);
        assert_eq!(journal_of(1), vec!["fault.kill"]);
    }

    #[test]
    fn rings_are_per_rank() {
        let log = EventLog::new(3);
        log.record(0, send(1));
        log.record(2, send(2));
        let lens: Vec<usize> = log.snapshot().iter().map(Vec::len).collect();
        assert_eq!(lens, vec![1, 0, 1]);
    }
}
