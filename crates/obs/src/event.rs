//! The one `Event ⇄ Json` codec.
//!
//! An [`Event`] leaves the process in two row shapes, both frozen by their
//! schemas: a `journal.json` row (`ap3esm-journal/1`, every kind but spans)
//! and a Chrome Trace Event Format row (`trace.json`: `X` for spans
//! and messages, `i` for journal kinds). Both directions of both shapes
//! live here, so the journal writer, the postmortem, the trace exporter and
//! the offline critical-path analyzer cannot drift apart.

pub use ap3esm_comm::events::{current_tid, trace_now_us, Event, EventLog, Kind, Name};

use std::cmp::Reverse;

use crate::json::Json;

/// The message track within each rank's process group of a chrome trace.
pub const COMM_TID: u16 = 0;

/// One `journal.json` row: messages carry `peer`/`tag`/`n`, journal kinds
/// their `a`/`b` under the same keys and their marker name as `detail`.
pub fn journal_row(rank: usize, e: &Event) -> Json {
    let mut o = Json::obj();
    o.set("rank", rank.into())
        .set("ts_us", e.ts_us.into())
        .set("dur_us", e.dur_us.into())
        .set("kind", e.kind.label().into())
        .set("peer", e.a.into())
        .set("tag", e.b.into())
        .set("n", e.n.into())
        .set("detail", e.name.as_str().into());
    o
}

/// Inverse of [`journal_row`]: the recording rank and the event.
pub fn parse_journal_row(v: &Json) -> Result<(usize, Event), String> {
    let u = |k: &str| {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("row missing {k}"))
    };
    let label = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("row missing kind")?;
    let kind = Kind::from_label(label).ok_or(format!("unknown row kind {label:?}"))?;
    let detail = v.get("detail").and_then(Json::as_str).unwrap_or_default();
    let event = Event {
        ts_us: u("ts_us")?,
        dur_us: u("dur_us")?,
        a: u("peer")?,
        b: u("tag")?,
        n: u("n")?,
        name: Name::new(detail),
        tid: COMM_TID,
        kind,
    };
    Ok((u("rank")? as usize, event))
}

/// The width a chrome row is drawn with: messages get a sliver so that a
/// zero-length send is visible.
pub fn chrome_dur(e: &Event) -> u64 {
    if e.kind.is_message() {
        e.dur_us.max(1)
    } else {
        e.dur_us
    }
}

/// A span or message as its chrome row decodes ([`parse_chrome_row`] of
/// [`chrome_row`]): a receive or timeout at least the microsecond it is
/// drawn with, a send or discard zero wide (its sliver is not a wait).
pub fn as_drawn(e: &Event) -> Event {
    let sliver = matches!(e.kind, Kind::Send | Kind::Stale);
    Event { dur_us: if sliver { 0 } else { chrome_dur(e) }, ..*e }
}

/// A chrome row's place within its rank's process group: by track, then
/// time, longer rows first on ties so that parents precede children.
pub fn track_order(e: &Event) -> (u16, u64, Reverse<u64>) {
    (e.tid, e.ts_us, Reverse(chrome_dur(e)))
}

/// One chrome-trace row: a complete (`X`) event for a span or a message —
/// messages on [`COMM_TID`], with a machine-readable `args` object so an
/// offline reader need not parse the human-facing name — and a
/// thread-scoped instant (`i`) for a journal kind, named after its marker.
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
    if e.kind.is_journal() {
        o.set("s", "t".into()); // thread-scoped instant
        return o;
    }
    o.set("dur", chrome_dur(e).into());
    if e.kind.is_message() {
        let mut args = Json::obj();
        args.set("kind", e.kind.label().into())
            .set("peer", e.a.into())
            .set("tag", e.b.into())
            .set("bytes", e.n.into());
        o.set("args", args);
    }
    o
}

/// Inverse of [`chrome_row`] for `X` rows (spans and messages; instants
/// carry no kind and are skipped, as are metadata and flow rows). Message
/// rows are recognised by their `args`, with a fallback parse of the
/// human-facing name for traces from older builds.
pub fn parse_chrome_row(row: &Json) -> Option<(usize, Event)> {
    if row.get("ph").and_then(Json::as_str) != Some("X") {
        return None;
    }
    let u = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
    let (pid, tid, ts, dur) = (u("pid") as usize, u("tid"), u("ts"), u("dur"));
    let name = row.get("name").and_then(Json::as_str).unwrap_or("");
    if tid != u64::from(COMM_TID) {
        return Some((pid, Event::span(Name::new(name), tid as u16, ts, dur)));
    }
    let (kind, peer, tag, n) = match row.get("args") {
        Some(args) => (
            args.get("kind").and_then(Json::as_str)?.to_string(),
            args.get("peer").and_then(Json::as_u64)? as usize,
            args.get("tag").and_then(Json::as_u64)?,
            args.get("bytes").and_then(Json::as_u64).unwrap_or(0),
        ),
        None => {
            // "send→1 tag 0x7" / "recv←0 tag 0x7" / "timeout←…".
            let (kind, rest) = name.split_once(['→', '←'])?;
            let (peer, tag) = rest.split_once(" tag ")?;
            let tag = u64::from_str_radix(tag.trim().trim_start_matches("0x"), 16).ok()?;
            (kind.to_string(), peer.trim().parse().ok()?, tag, 0)
        }
    };
    let kind = Kind::from_label(&kind).filter(|k| k.is_message())?;
    Some((pid, as_drawn(&Event::msg(kind, ts, dur, peer, tag, n))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_rows_round_trip_every_kind_but_the_track() {
        let events = [
            Event::msg(Kind::Recv, 20, 30, 0, 7, 64),
            Event::msg(Kind::Stale, 40, 0, 1, 0, 3),
            Event::mark(Kind::Shrink, Name::new("recovery.shrink"), 1, 3, 5, 100),
            Event::mark(Kind::ServeDone, Name::default(), 7, 1_234, 2, 110),
        ];
        for e in events {
            let (rank, back) = parse_journal_row(&journal_row(3, &e)).unwrap();
            assert_eq!(rank, 3);
            assert_eq!(back, Event { tid: COMM_TID, ..e });
        }
        let bad = journal_row(0, &events[0])
            .to_string()
            .replace("recv", "no-such-kind");
        assert!(parse_journal_row(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn chrome_rows_round_trip_spans_and_messages() {
        let span = Event::span(Name::new("atm_run"), 4, 10, 500);
        assert_eq!(parse_chrome_row(&chrome_row(1, &span)), Some((1, span)));
        for e in [
            Event::msg(Kind::Send, 12, 0, 1, 7, 8),
            Event::msg(Kind::Recv, 13, 6, 0, 7, 8),
            Event::msg(Kind::Timeout, 20, 900, 1, 9, 0),
            Event::msg(Kind::Stale, 30, 0, 1, 0, 2),
        ] {
            assert_eq!(parse_chrome_row(&chrome_row(0, &e)), Some((0, e)));
        }
        // A receive that did not wait is drawn, and decodes, 1 µs wide.
        let quick = Event::msg(Kind::Recv, 14, 0, 0, 7, 8);
        let drawn = Some((0, Event { dur_us: 1, ..quick }));
        assert_eq!(parse_chrome_row(&chrome_row(0, &quick)), drawn);
        assert_eq!(Some((0, as_drawn(&quick))), drawn);
        // Instants draw, but do not decode.
        let mark = Event::mark(Kind::Fault, Name::new("fault.kill"), 2, 0, 1, 40);
        let row = chrome_row(0, &mark);
        assert_eq!(row.get("name").and_then(Json::as_str), Some("fault.kill"));
        assert_eq!(row.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(parse_chrome_row(&row), None);
    }

    #[test]
    fn message_rows_of_older_builds_decode_from_their_name() {
        let mut row = chrome_row(0, &Event::msg(Kind::Recv, 13, 6, 2, 0x2a, 8));
        let Json::Obj(fields) = &mut row else {
            panic!("row is an object")
        };
        fields.retain(|(k, _)| k != "args");
        assert_eq!(
            parse_chrome_row(&row),
            Some((0, Event::msg(Kind::Recv, 13, 6, 2, 0x2a, 0)))
        );
    }
}
