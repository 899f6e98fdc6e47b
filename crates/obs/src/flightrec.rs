//! Black-box flight recorder and cross-rank postmortem analyzer.
//!
//! The paper's year-scale runs live or die by diagnosing rare failures at
//! scale: after a multi-hour run collapses, the question is *which rank
//! stalled first and why*. This module is the forensic layer over the
//! world's always-on [`EventLog`](crate::event::EventLog), read back from
//! the one file a run directory keeps of it, `trace.json`
//! ([`RunDir::write_events`](crate::RunDir::write_events)):
//!
//! * [`journal`] — every rank's journal entries (health transitions, alert
//!   firings, recovery/shrink actions, checkpoint begin/commit, serve
//!   ticket lifecycle) and messages (send, recv, timeout, stale), merged
//!   on the shared trace clock into one causally-ordered cross-rank
//!   timeline. Both come from the same log snapshot, so what survives a
//!   crash is the tail of both — the part a postmortem needs.
//! * [`analyze`] — the postmortem: decodes `trace.json` through the shared
//!   row codec ([`crate::event`]), finds the first-stalled rank (the rank
//!   whose activity ends earliest — the silence the rest of the world then
//!   times out against), matches unpaired sends to missing receives per
//!   FIFO channel, and renders a blame report as JSON
//!   ([`Postmortem::to_json`]) and a human table
//!   ([`Postmortem::render_table`]).

use std::path::{Path, PathBuf};

use crate::event::{chrome_row, drawn, parse_chrome_trace, Event, Kind, Name};
use crate::json::Json;
use crate::msgflow::pair_fifo;

/// The merged cross-rank journal of one log snapshot: every event but the
/// spans, as `(rank, event)`, sorted on the shared trace clock so the
/// interleave is causally ordered. At equal timestamps journal kinds come
/// before messages, each rank-major in the order given (the sort is
/// stable).
pub fn journal(events: &[Vec<Event>]) -> Vec<(usize, Event)> {
    let mut rows: Vec<(usize, Event)> = events
        .iter()
        .enumerate()
        .flat_map(|(rank, ring)| ring.iter().map(move |e| (rank, *e)))
        .filter(|(_, e)| e.kind != Kind::Span)
        .collect();
    rows.sort_by_key(|(_, e)| (e.ts_us, e.kind.is_message()));
    rows
}

// --- postmortem analyzer ------------------------------------------------

/// Per-rank activity envelope on the merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RankActivity {
    pub rank: usize,
    pub events: usize,
    pub first_us: u64,
    /// End of the rank's last activity (`ts + dur` of its final event);
    /// 0 when the rank journaled nothing at all.
    pub last_us: u64,
    /// The rank's final journal event, for the blame table.
    pub last_event: Option<Event>,
}

/// A send with no matching receive on its FIFO channel (the shared
/// pairing's leftover tail — see [`crate::msgflow::pair_fifo`]).
pub use crate::msgflow::UnpairedSend;

/// A blocking receive that timed out into a `Deadlock`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeoutRecord {
    pub rank: usize,
    pub peer: usize,
    pub tag: u64,
    pub ts_us: u64,
    pub dur_us: u64,
}

/// The analyzer's verdict over one run directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// The run directory analyzed (its JSON key stays `bundle`).
    pub bundle: PathBuf,
    pub reason: String,
    pub n_ranks: usize,
    pub total_events: usize,
    /// Ranks sorted by rank id.
    pub ranks: Vec<RankActivity>,
    /// The first-stalled rank: the rank whose activity ends earliest
    /// (including never-started). `None` only for an empty journal.
    pub blamed: Option<usize>,
    /// How long the rest of the world kept going after the blamed rank
    /// went silent — the gap the deadlock timeouts then measure.
    pub silence_gap_us: u64,
    /// Sends that never met a receive, missing-receiver side first.
    pub unpaired_sends: Vec<UnpairedSend>,
    pub timeouts: Vec<TimeoutRecord>,
}

/// Analyze a run directory ([`crate::RunDir`]): decode `trace.json` (and
/// `manifest.json` for the reason) back into per-rank events and derive
/// blame.
pub fn analyze(dir: impl AsRef<Path>) -> Result<Postmortem, String> {
    let dir = dir.as_ref();
    let trace = std::fs::read_to_string(dir.join("trace.json"))
        .map_err(|e| format!("read {}/trace.json: {e}", dir.display()))?;
    let events = parse_chrome_trace(&Json::parse(&trace)?)?;

    let reason = std::fs::read_to_string(dir.join("manifest.json"))
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|m| m.get("reason").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();

    Ok(analyze_events(dir.to_path_buf(), reason, &events))
}

/// The pure core of [`analyze`]: blame over one log snapshot,
/// `events[rank]` being that rank's events. The snapshot is read as its
/// trace draws it ([`crate::event::drawn`]), so the analysis of a snapshot
/// and [`analyze`] of its run directory are equal.
pub fn analyze_events(bundle: PathBuf, reason: String, events: &[Vec<Event>]) -> Postmortem {
    let events: &[Vec<Event>] = &events.iter().map(|ring| drawn(ring)).collect::<Vec<_>>();
    let rows = journal(events);
    // Per-rank envelopes. A rank with no events keeps last_us = 0: total
    // silence sorts first, which is exactly the right blame order.
    let mut ranks: Vec<RankActivity> = (0..events.len())
        .map(|rank| RankActivity {
            rank,
            events: 0,
            first_us: 0,
            last_us: 0,
            last_event: None,
        })
        .collect();
    for (rank, e) in &rows {
        let r = &mut ranks[*rank];
        if r.events == 0 {
            r.first_us = e.ts_us;
        }
        r.events += 1;
        if e.end_us() >= r.last_us {
            r.last_us = e.end_us();
            r.last_event = Some(*e);
        }
    }

    // Blame: the rank that went silent first. Ties keep the lowest rank.
    let blamed = ranks.iter().min_by_key(|r| r.last_us).map(|r| r.rank);
    let global_last = ranks.iter().map(|r| r.last_us).max().unwrap_or(0);
    let silence_gap_us = blamed
        .map(|b| global_last.saturating_sub(ranks[b].last_us))
        .unwrap_or(0);

    // FIFO channel pairing: the k-th send on (src, dst, tag) matches the
    // k-th recv on the same channel; the excess tail of sends is unpaired.
    // The pairing itself is the shared msgflow implementation, so the
    // postmortem and the chrome-trace flow arrows can never disagree.
    let mut unpaired_sends = pair_fifo(events).unpaired_sends;
    // Sends into (or out of) the blamed rank first — those are the
    // messages the silence orphaned — then chronological.
    unpaired_sends.sort_by_key(|u| {
        let involves_blamed = Some(u.dst) == blamed || Some(u.src) == blamed;
        (!involves_blamed, u.ts_us)
    });
    let timeouts = rows
        .iter()
        .filter(|(_, e)| e.kind == Kind::Timeout)
        .map(|(rank, e)| TimeoutRecord {
            rank: *rank,
            peer: e.peer(),
            tag: e.b,
            ts_us: e.ts_us,
            dur_us: e.dur_us,
        })
        .collect();

    Postmortem {
        bundle,
        reason,
        n_ranks: ranks.len(),
        total_events: rows.len(),
        ranks,
        blamed,
        silence_gap_us,
        unpaired_sends,
        timeouts,
    }
}

impl Postmortem {
    /// Machine-readable blame report (`ap3esm-postmortem/2`); each rank's
    /// last event is quoted as its `trace.json` row.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("schema", "ap3esm-postmortem/2".into())
            .set("bundle", self.bundle.display().to_string().as_str().into())
            .set("reason", self.reason.as_str().into())
            .set("ranks", self.n_ranks.into())
            .set("events", self.total_events.into());
        match self.blamed {
            Some(b) => o.set("blamed_rank", b.into()),
            None => o.set("blamed_rank", Json::Null),
        };
        o.set("silence_gap_us", self.silence_gap_us.into());
        o.set(
            "rank_activity",
            Json::Arr(
                self.ranks
                    .iter()
                    .map(|r| {
                        let mut ro = Json::obj();
                        ro.set("rank", r.rank.into())
                            .set("events", r.events.into())
                            .set("first_us", r.first_us.into())
                            .set("last_us", r.last_us.into());
                        match &r.last_event {
                            Some(e) => ro.set("last_event", chrome_row(r.rank, e)),
                            None => ro.set("last_event", Json::Null),
                        };
                        ro
                    })
                    .collect(),
            ),
        );
        o.set(
            "unpaired_sends",
            Json::Arr(
                self.unpaired_sends
                    .iter()
                    .map(|u| {
                        let mut uo = Json::obj();
                        uo.set("src", u.src.into())
                            .set("dst", u.dst.into())
                            .set("tag", u.tag.into())
                            .set("ts_us", u.ts_us.into());
                        uo
                    })
                    .collect(),
            ),
        );
        o.set(
            "timeouts",
            Json::Arr(
                self.timeouts
                    .iter()
                    .map(|t| {
                        let mut to = Json::obj();
                        to.set("rank", t.rank.into())
                            .set("peer", t.peer.into())
                            .set("tag", t.tag.into())
                            .set("ts_us", t.ts_us.into())
                            .set("dur_us", t.dur_us.into());
                        to
                    })
                    .collect(),
            ),
        );
        o
    }

    /// Human-readable blame table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "postmortem: {}\nreason: {}\n",
            self.bundle.display(),
            if self.reason.is_empty() {
                "(unknown)"
            } else {
                &self.reason
            }
        ));
        match self.blamed {
            Some(b) => out.push_str(&format!(
                "blamed rank: {b} (first stalled; world ran {:.1} ms past its last event)\n",
                self.silence_gap_us as f64 / 1_000.0
            )),
            None => out.push_str("blamed rank: none (empty journal)\n"),
        }
        out.push_str("\nrank  events  first_us    last_us     last event\n");
        for r in &self.ranks {
            let last = match &r.last_event {
                Some(e) => {
                    let mut s = format!("{} peer={} tag={:#x}", e.kind.label(), e.a, e.b);
                    if e.name != Name::default() {
                        s.push_str(&format!(" — {}", e.name.as_str()));
                    }
                    s
                }
                None => "(silent — no events journaled)".to_string(),
            };
            let mark = if Some(r.rank) == self.blamed {
                "*"
            } else {
                " "
            };
            out.push_str(&format!(
                "{mark}{:<4} {:>7} {:>10} {:>10}  {last}\n",
                r.rank, r.events, r.first_us, r.last_us
            ));
        }
        if !self.unpaired_sends.is_empty() {
            out.push_str(&format!(
                "\nunpaired sends ({} total; never received):\n",
                self.unpaired_sends.len()
            ));
            for u in self.unpaired_sends.iter().take(16) {
                out.push_str(&format!(
                    "  rank {} -> rank {}  tag {:#x}  at {} us\n",
                    u.src, u.dst, u.tag, u.ts_us
                ));
            }
            if self.unpaired_sends.len() > 16 {
                out.push_str(&format!(
                    "  … and {} more\n",
                    self.unpaired_sends.len() - 16
                ));
            }
        }
        if !self.timeouts.is_empty() {
            out.push_str(&format!("\nreceive timeouts ({}):\n", self.timeouts.len()));
            for t in self.timeouts.iter().take(16) {
                out.push_str(&format!(
                    "  rank {} waited {:.1} ms on rank {} tag {:#x}\n",
                    t.rank,
                    t.dur_us as f64 / 1_000.0,
                    t.peer,
                    t.tag
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{trace_now_us, EventLog};
    use crate::RunDir;

    /// A scratch root; the run directory under it starts afresh.
    fn tmpdir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ap3esm-flightrec-{tag}-{}", std::process::id()))
    }

    fn msg(kind: Kind, ts: u64, dur: u64, peer: usize, tag: u64, n: u64) -> Event {
        Event::msg(kind, ts, dur, peer, tag, n)
    }

    fn mark(kind: Kind, name: &str, a: u64, ts: u64) -> Event {
        Event::mark(kind, Name::new(name), a, 0, 1, ts)
    }

    #[test]
    fn blame_names_the_first_silent_rank_and_unpaired_sends() {
        // Rank 1 stops at t=100; ranks 0 and 2 keep going to t=900. Rank 0
        // sent rank 1 two messages of which one was never received, and
        // timed out waiting on rank 1.
        let events = vec![
            vec![
                msg(Kind::Send, 10, 0, 1, 7, 64),
                msg(Kind::Send, 200, 0, 1, 7, 64),
                msg(Kind::Send, 250, 0, 2, 9, 8),
                msg(Kind::Timeout, 400, 500, 1, 7, 0),
            ],
            vec![
                msg(Kind::Recv, 20, 30, 0, 7, 64),
                mark(Kind::CkptBegin, "checkpoint.begin", 1, 100),
            ],
            vec![
                msg(Kind::Recv, 300, 50, 0, 9, 8),
                Event {
                    dur_us: 20,
                    ..mark(Kind::Mark, "tail", 0, 880)
                },
            ],
        ];
        let pm = analyze_events(PathBuf::from("x"), "test".into(), &events);
        assert_eq!(pm.blamed, Some(1));
        assert_eq!(pm.ranks[1].last_us, 100);
        assert_eq!(pm.silence_gap_us, 900 - 100);
        assert_eq!(pm.unpaired_sends.len(), 1);
        assert_eq!(pm.unpaired_sends[0].src, 0);
        assert_eq!(pm.unpaired_sends[0].dst, 1);
        assert_eq!(pm.unpaired_sends[0].tag, 7);
        assert_eq!(pm.timeouts.len(), 1);
        assert_eq!(pm.timeouts[0].peer, 1);
    }

    #[test]
    fn spans_stay_out_of_the_journal() {
        let events = vec![vec![
            Event::span(Name::new("atm_run"), 1, 0, 5_000),
            mark(Kind::Mark, "run.start", 0, 10),
        ]];
        assert_eq!(journal(&events).len(), 1);
        let pm = analyze_events(PathBuf::from("x"), String::new(), &events);
        assert_eq!((pm.total_events, pm.ranks[0].last_us), (1, 10));
    }

    #[test]
    fn bundle_roundtrips_through_the_analyzer() {
        let dir = tmpdir("roundtrip");
        let log = EventLog::with_capacity(3, 64, 64);
        log.set_enabled(true);

        // Synthetic history on the real trace clock: rank 1 dies after one
        // recv; ranks 0/2 continue and rank 0 times out on rank 1.
        let t0 = trace_now_us();
        log.record(0, msg(Kind::Send, t0 + 1, 0, 1, 42, 800));
        log.record(1, msg(Kind::Recv, t0 + 2, 1, 0, 42, 800));
        log.mark(1, Kind::CkptBegin, "checkpoint.begin", 1, 0);
        log.record(0, msg(Kind::Send, t0 + 500, 0, 1, 42, 800));
        log.record(0, msg(Kind::Timeout, t0 + 600, 900, 1, 42, 0));
        log.mark(0, Kind::Recovery, "rollback", 1, 0);
        log.mark(2, Kind::Mark, "still alive", 0, 0);
        log.record(2, msg(Kind::Recv, t0 + 2_000, 10, 0, 9, 8));
        log.record(0, msg(Kind::Send, t0 + 1_990, 0, 2, 9, 8));

        let run = RunDir::create_at(dir.join("unit"), "deadlock").unwrap();
        let snapshot = log.snapshot();
        run.write_events(&snapshot).unwrap();
        let bundle = run.path();

        let pm = analyze(bundle).unwrap();
        // The directory's trace reads back as the snapshot it was drawn from.
        let direct = analyze_events(bundle.to_path_buf(), "deadlock".into(), &snapshot);
        assert_eq!(pm, direct);
        assert_eq!(pm.reason, "deadlock");
        assert_eq!(pm.n_ranks, 3);
        assert_eq!(
            pm.blamed,
            Some(1),
            "rank 1 stalled first: {}",
            pm.render_table()
        );
        assert_eq!(pm.unpaired_sends.len(), 1);
        assert_eq!((pm.unpaired_sends[0].src, pm.unpaired_sends[0].dst), (0, 1));
        assert_eq!(pm.timeouts.len(), 1);

        // JSON form round-trips through the parser with the right schema.
        let text = pm.to_json().to_string();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("ap3esm-postmortem/2")
        );
        // Each rank's last event is quoted as its trace row.
        let last = doc.get("rank_activity").and_then(Json::as_arr).unwrap()[1].get("last_event");
        let row = chrome_row(1, pm.ranks[1].last_event.as_ref().unwrap());
        assert_eq!(last.map(Json::to_string), Some(row.to_string()));
        assert_eq!(doc.get("blamed_rank").and_then(Json::as_u64), Some(1));
        // The table names the blamed rank and the orphaned channel.
        let table = pm.render_table();
        assert!(table.contains("blamed rank: 1"));
        assert!(table.contains("rank 0 -> rank 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_trailing_silent_rank_is_blamed_from_the_directory() {
        // Rank 2 recorded nothing at all: the trace still names it a rank,
        // and total silence outranks any slow rank in blame.
        let dir = tmpdir("silent");
        let events = vec![
            vec![msg(Kind::Send, 10, 0, 1, 7, 64), msg(Kind::Timeout, 20, 500, 2, 9, 0)],
            vec![msg(Kind::Recv, 12, 4, 0, 7, 64), mark(Kind::Mark, "tail", 0, 600)],
            vec![],
        ];
        let run = RunDir::create_at(dir.join("silent"), "deadlock").unwrap();
        run.write_events(&events).unwrap();
        let pm = analyze(run.path()).unwrap();
        assert_eq!((pm.n_ranks, pm.blamed), (3, Some(2)), "{}", pm.render_table());
        assert!(pm.ranks[2].last_event.is_none());
        assert_eq!(pm, analyze_events(run.path().to_path_buf(), "deadlock".into(), &events));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_empty_log_analyzes_to_no_blame() {
        // A panic handler may have almost nothing: a reason and no events.
        let dir = tmpdir("minimal");
        let run = RunDir::create_at(dir.join("bare"), "panic").unwrap();
        run.write_events(&[]).unwrap();
        let pm = analyze(run.path()).unwrap();
        assert_eq!(pm.blamed, None);
        assert_eq!(pm.total_events, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
