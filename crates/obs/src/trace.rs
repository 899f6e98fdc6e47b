//! Trace export: Chrome Trace Event Format + collapsed-stack flamegraphs.
//!
//! One snapshot of the world's event log becomes a single timeline file a
//! human can open in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`:
//! one `pid` per rank, one `tid` per OS thread, complete (`X`) events for
//! spans and messages, instant (`i`) events for journal kinds (fault
//! injections, health verdicts, rollbacks, checkpoint begin/commit), and
//! flow (`s`/`f`) arrows pairing each send with the receive that consumed
//! it — coupler rearrangement waits are visible *between* rank tracks,
//! which is exactly the §6.2 imbalance diagnosis the paper does with
//! per-process timers.
//!
//! The profiler's span trees also export as collapsed stacks
//! (`rank0;atm_run;dycore 1234` — weight is self time in µs), the input
//! format of `inferno-flamegraph` and Brendan Gregg's `flamegraph.pl`. They
//! come from the trees, not from the span events: a tree aggregates the
//! whole run, the event ring holds its most recent window.
//!
//! All timestamps are microseconds since the shared
//! [`trace_epoch`](ap3esm_comm::events::trace_epoch), so every rank (each
//! an OS thread of one process) lands on one aligned timeline.

use std::cmp::Reverse;

use crate::event::{chrome_row, track_order, Event, COMM_TID};
use crate::json::Json;
use crate::msgflow::pair_fifo;
use crate::rankagg::RankTree;

/// One flow row (`s` at the send, `f` at the delivery) of arrow `id`.
fn flow_row(ph: &str, id: usize, pid: usize, ts: u64, tag: u64) -> Json {
    let mut o = Json::obj();
    o.set("name", format!("msg tag {tag:#x}").as_str().into())
        .set("ph", ph.into())
        .set("ts", ts.into())
        .set("pid", pid.into())
        .set("tid", u64::from(COMM_TID).into())
        .set("id", id.into())
        .set("cat", "comm".into());
    if ph == "f" {
        o.set("bp", "e".into()); // bind to enclosing slice
    }
    o
}

/// Render `rings[rank]` (one [`EventLog::snapshot`](crate::event::EventLog::snapshot))
/// as one Chrome Trace Event Format document, `pid` = rank. Every event is
/// one row ([`chrome_row`]); the k-th send on `(src, dst, tag)` is joined
/// to the k-th recv on the same channel by a flow arrow
/// ([`crate::msgflow::pair_fifo`], the shared pairing), bound to the end of
/// the receiver's blocking window — the moment the message was consumed.
/// Rows are ordered by `(pid, tid, ts)` with longer events first on ties,
/// so timestamps are monotone per track and parents precede children.
pub fn chrome_trace(rings: &[Vec<Event>]) -> String {
    let mut rows = Vec::new();
    for (pid, ring) in rings.iter().enumerate() {
        for e in ring {
            rows.push(((pid, track_order(e)), chrome_row(pid, e)));
        }
    }
    for (i, p) in pair_fifo(rings).pairs.iter().enumerate() {
        let s = (p.src, (COMM_TID, p.send_ts_us, Reverse(0)));
        rows.push((s, flow_row("s", i + 1, p.src, p.send_ts_us, p.tag)));
        let f = (p.dst, (COMM_TID, p.delivered_us(), Reverse(0)));
        rows.push((f, flow_row("f", i + 1, p.dst, p.delivered_us(), p.tag)));
    }
    rows.sort_by_key(|(key, _)| *key);
    let mut events: Vec<Json> = Vec::with_capacity(rings.len() + rows.len());
    for pid in 0..rings.len() {
        let mut args = Json::obj();
        args.set("name", format!("rank {pid}").as_str().into());
        let mut o = Json::obj();
        o.set("name", "process_name".into())
            .set("ph", "M".into())
            .set("ts", 0u64.into())
            .set("pid", pid.into())
            .set("tid", u64::from(COMM_TID).into())
            .set("args", args);
        events.push(o);
    }
    events.extend(rows.into_iter().map(|(_, row)| row));
    let mut root = Json::obj();
    root.set("traceEvents", Json::Arr(events));
    root.set("displayTimeUnit", "ms".into());
    // Build/run stamp (`ap3esm-obs/6` reports carry the same object), so a
    // Perfetto timeline can be traced back to its exact build.
    root.set("metadata", crate::perf::BuildInfo::current().to_json());
    root.to_string()
}

// --- collapsed-stack flamegraph export ---------------------------------

/// Render per-rank span trees as collapsed stacks: one line per tree node,
/// `rank0;atm_run;dycore 1234`, weighted by self time in µs — the input of
/// `inferno-flamegraph` / `flamegraph.pl`.
pub fn folded_stacks(trees: &[RankTree]) -> String {
    let mut out = String::new();
    for tree in trees {
        for s in &tree.spans {
            out.push_str(&format!(
                "rank{};{} {}\n",
                tree.rank,
                s.path.replace('/', ";"),
                (s.self_s * 1e6).round().max(0.0) as u64
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Kind, Name};
    use crate::span::SpanSnapshot;

    fn span_ev(name: &str, ts: u64, dur: u64) -> Event {
        Event::span(Name::new(name), 1, ts, dur)
    }

    #[test]
    fn chrome_trace_orders_tracks_and_pairs_flows() {
        let rings = vec![
            vec![
                span_ev("inner", 10, 20),
                span_ev("outer", 5, 100),
                Event::msg(Kind::Send, 12, 0, 1, 7, 8),
            ],
            vec![Event::msg(Kind::Recv, 13, 6, 0, 7, 8)],
        ];
        let json = chrome_trace(&rings);
        // Both pids, metadata, a flow start and a bound flow finish.
        assert!(json.starts_with(r#"{"traceEvents":["#));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains(r#""ph":"s""#));
        assert!(json.contains(r#""ph":"f""#));
        assert!(json.contains(r#""bp":"e""#));
        assert!(json.contains(r#""send→1 tag 0x7""#));
        assert!(json.contains(r#""recv←0 tag 0x7""#));
        // Parent (same ts would tie-break by dur) precedes the child.
        let outer = json.find(r#""outer""#).unwrap();
        let inner = json.find(r#""inner""#).unwrap();
        assert!(outer < inner);
    }

    #[test]
    fn folded_stacks_weight_by_self_time() {
        let trees = vec![RankTree {
            rank: 2,
            dropped: 0,
            spans: vec![
                SpanSnapshot {
                    path: "a".into(),
                    name: "a".into(),
                    depth: 0,
                    total_s: 0.003,
                    self_s: 0.001,
                    count: 1,
                },
                SpanSnapshot {
                    path: "a/b".into(),
                    name: "b".into(),
                    depth: 1,
                    total_s: 0.002,
                    self_s: 0.002,
                    count: 2,
                },
            ],
        }];
        let folded = folded_stacks(&trees);
        assert_eq!(folded, "rank2;a 1000\nrank2;a;b 2000\n");
    }
}
