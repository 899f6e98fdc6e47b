//! The one `Event ⇄ Json` codec.
//!
//! An [`Event`] leaves the process in one row shape, the Chrome Trace Event
//! Format row of a run's `trace.json`: `X` for spans and messages, `i` for
//! journal kinds, each kind's fields in an `args` object. Both directions
//! live here, so the trace exporter, the postmortem and the offline
//! critical-path analyzer read and write the same rows.

pub use ap3esm_comm::events::{current_tid, trace_now_us, Event, EventLog, Kind, Name};

use std::cmp::Reverse;

use crate::json::Json;

/// The message track within each rank's process group of a chrome trace.
pub const COMM_TID: u16 = 0;

/// The width a chrome row is drawn with: messages get a sliver so that a
/// zero-length send is visible.
pub fn chrome_dur(e: &Event) -> u64 {
    if e.kind.is_message() {
        e.dur_us.max(1)
    } else {
        e.dur_us
    }
}

/// An event as its chrome row decodes ([`parse_chrome_row`] of
/// [`chrome_row`]): a receive or timeout at least the microsecond it is
/// drawn with, a send or discard zero wide (its sliver is not a wait), a
/// journal entry an instant.
pub fn as_drawn(e: &Event) -> Event {
    let dur_us = match e.kind {
        Kind::Send | Kind::Stale => 0,
        k if k.is_journal() => 0,
        _ => chrome_dur(e),
    };
    Event { dur_us, ..*e }
}

/// A chrome row's place within its rank's process group: by track, then
/// time, longer rows first on ties so that parents precede children.
pub fn track_order(e: &Event) -> (u16, u64, Reverse<u64>) {
    (e.tid, e.ts_us, Reverse(chrome_dur(e)))
}

/// One rank's events as its rows of the chrome trace decode: in
/// [`track_order`], each one [`as_drawn`]. What an in-process reader of a
/// log snapshot reads, so that it agrees with the offline reader of the
/// rendered trace.
pub fn drawn(ring: &[Event]) -> Vec<Event> {
    let mut ring = ring.to_vec();
    ring.sort_by_key(track_order);
    ring.iter().map(as_drawn).collect()
}

/// One chrome-trace row: a complete (`X`) event for a span or a message —
/// messages on [`COMM_TID`] — and a thread-scoped instant (`i`) for a
/// journal kind, named after its marker (its kind's label when it has
/// none). Messages and instants carry their fields in `args`, so an offline
/// reader need not parse the human-facing name.
pub fn chrome_row(pid: usize, e: &Event) -> Json {
    let name = match e.kind {
        Kind::Send => format!("send→{} tag {:#x}", e.a, e.b),
        Kind::Recv => format!("recv←{} tag {:#x}", e.a, e.b),
        Kind::Timeout => format!("timeout←{} tag {:#x}", e.a, e.b),
        Kind::Stale => format!("stale⊘{} ×{}", e.a, e.n),
        _ if e.name == Name::default() => e.kind.label().to_string(),
        _ => e.name.as_str().to_string(),
    };
    let mut o = Json::obj();
    o.set("name", name.as_str().into())
        .set("ph", if e.kind.is_journal() { "i" } else { "X" }.into())
        .set("ts", e.ts_us.into())
        .set("pid", pid.into())
        .set("tid", u64::from(e.tid).into());
    let mut args = Json::obj();
    args.set("kind", e.kind.label().into());
    if e.kind.is_journal() {
        o.set("s", "t".into()); // thread-scoped instant
        args.set("a", e.a.into()).set("b", e.b.into()).set("n", e.n.into());
    } else {
        o.set("dur", chrome_dur(e).into());
        if !e.kind.is_message() {
            return o;
        }
        args.set("peer", e.a.into()).set("tag", e.b.into()).set("bytes", e.n.into());
    }
    o.set("args", args);
    o
}

/// Inverse of [`chrome_row`]: the rank (`pid`) and the event as drawn.
/// Metadata and flow rows are not events and decode to `None`. An instant
/// named after its kind's label decodes with the default (empty) name.
pub fn parse_chrome_row(row: &Json) -> Option<(usize, Event)> {
    let instant = match row.get("ph").and_then(Json::as_str) {
        Some("X") => false,
        Some("i") => true,
        _ => return None,
    };
    let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    let (pid, tid, ts) = (u("pid") as usize, u("tid") as u16, u("ts"));
    let name = row.get("name").and_then(Json::as_str).unwrap_or("");
    if !instant && tid != COMM_TID {
        return Some((pid, Event::span(Name::new(name), tid, ts, u("dur"))));
    }
    let args = row.get("args")?;
    let arg = |k: &str| args.get(k).and_then(Json::as_u64);
    let kind = Kind::from_label(args.get("kind").and_then(Json::as_str)?)?;
    let event = if instant && kind.is_journal() {
        let name = if name == kind.label() { Name::default() } else { Name::new(name) };
        Event { n: arg("n")?, ..Event::mark(kind, name, arg("a")?, arg("b")?, tid, ts) }
    } else if !instant && kind.is_message() {
        let peer = arg("peer")? as usize;
        as_drawn(&Event::msg(kind, ts, u("dur"), peer, arg("tag")?, arg("bytes")?))
    } else {
        return None;
    };
    Some((pid, event))
}

/// Decode a chrome-trace document written by
/// [`crate::trace::chrome_trace`] back into one log snapshot,
/// `events[rank]` in the trace's row order. The world is as wide as its
/// per-rank `process_name` rows, so a rank that recorded nothing is still
/// there.
pub fn parse_chrome_trace(doc: &Json) -> Result<Vec<Vec<Event>>, String> {
    let rows = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace missing traceEvents")?;
    let ranks = rows
        .iter()
        .filter(|row| row.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|row| row.get("pid").and_then(Json::as_u64))
        .map(|pid| pid as usize + 1)
        .max()
        .unwrap_or(0);
    let mut events: Vec<Vec<Event>> = vec![Vec::new(); ranks];
    for (pid, event) in rows.iter().filter_map(parse_chrome_row) {
        if pid >= events.len() {
            events.resize_with(pid + 1, Vec::new);
        }
        events[pid].push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_rows_round_trip_every_kind() {
        let named = Name::new("fault.kill");
        let events = [
            Event::span(Name::new("atm_run"), 4, 10, 500),
            Event::msg(Kind::Send, 12, 0, 1, 7, 8),
            Event::msg(Kind::Recv, 13, 6, 0, 7, 8),
            Event::msg(Kind::Timeout, 20, 900, 1, 9, 0),
            Event::msg(Kind::Stale, 30, 0, 1, 0, 2),
        ];
        for e in events {
            assert_eq!(parse_chrome_row(&chrome_row(1, &e)), Some((1, e)), "{e:?}");
        }
        let journal_kinds = [
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
        for kind in journal_kinds {
            assert!(kind.is_journal());
            for name in [Name::default(), named] {
                let e = Event { n: 5, ..Event::mark(kind, name, 3, 1_234, 2, 40) };
                assert_eq!(parse_chrome_row(&chrome_row(0, &e)), Some((0, e)), "{e:?}");
            }
        }
        // A receive that did not wait is drawn, and decodes, 1 µs wide.
        let quick = Event::msg(Kind::Recv, 14, 0, 0, 7, 8);
        let drawn = Some((0, Event { dur_us: 1, ..quick }));
        assert_eq!(parse_chrome_row(&chrome_row(0, &quick)), drawn);
        assert_eq!(Some((0, as_drawn(&quick))), drawn);
        // An instant is named after its marker, or its kind when it has none.
        let mark = Event::mark(Kind::ServeDone, Name::default(), 7, 0, 1, 40);
        let row = chrome_row(0, &mark);
        assert_eq!(row.get("name").and_then(Json::as_str), Some("serve.done"));
        assert_eq!(row.get("ph").and_then(Json::as_str), Some("i"));
    }
}
