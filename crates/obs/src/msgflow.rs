//! Shared FIFO message pairing: the one implementation of the
//! k-th-send-matches-k-th-recv rule.
//!
//! The mailbox in `ap3esm-comm` is FIFO per `(src, dst, tag)` channel, so
//! arrival order *is* pairing order. Three consumers rely on that fact: the
//! chrome-trace flow arrows ([`crate::trace::chrome_trace`]), the
//! flight-recorder postmortem ([`crate::flightrec::analyze`]), and the
//! critical-path analyzer ([`crate::critpath`]). They all call
//! [`pair_fifo`] on the same per-rank event slices, so a pairing bug (or a
//! pairing improvement) lands everywhere at once — and a regression test
//! can assert the exporters agree event-for-event.
//!
//! Channels are walked in `BTreeMap` key order `(src, dst, tag)` and pairs
//! within a channel in arrival order, so the output is deterministic for a
//! given event multiset regardless of the interleaving the ranks recorded.

use std::collections::BTreeMap;

use crate::event::{Event, Kind};

/// A send matched with the receive that consumed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairedMessage {
    pub src: usize,
    pub dst: usize,
    pub tag: u64,
    /// When the sender posted the message.
    pub send_ts_us: u64,
    /// When the receiver started blocking.
    pub recv_ts_us: u64,
    /// How long the receiver blocked; delivery is at
    /// `recv_ts_us + recv_dur_us`.
    pub recv_dur_us: u64,
    /// Payload size as the sender recorded it.
    pub bytes: u64,
}

impl PairedMessage {
    /// Delivery instant: the end of the receiver's blocking window.
    pub fn delivered_us(&self) -> u64 {
        self.recv_ts_us + self.recv_dur_us
    }

    /// True when the send was posted after the receiver already blocked —
    /// the Scalasca *late sender* pattern (the wait is the sender's fault).
    pub fn late_sender(&self) -> bool {
        self.send_ts_us > self.recv_ts_us
    }
}

/// A send whose FIFO channel ran out of receives — the message was posted
/// but (within the recorded window) never consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnpairedSend {
    pub src: usize,
    pub dst: usize,
    pub tag: u64,
    pub ts_us: u64,
}

/// The result of pairing one run's flow events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowPairing {
    /// Matched messages, in `(src, dst, tag)` channel order and arrival
    /// order within each channel.
    pub pairs: Vec<PairedMessage>,
    /// The excess tail of sends per channel, same ordering.
    pub unpaired_sends: Vec<UnpairedSend>,
}

/// Pair the k-th send on `(src, dst, tag)` with the k-th recv on the same
/// channel, `rings[rank]` being rank `rank`'s events. Each channel's sends
/// and recvs are taken in the order given, which for a log snapshot is
/// arrival order (a channel's events all come from one rank's ring on each
/// side). Timed-out waits never consumed a message and stale discards never
/// delivered one, so neither takes part; nor does any other kind.
pub fn pair_fifo(rings: &[Vec<Event>]) -> FlowPairing {
    let mut sends: BTreeMap<(usize, usize, u64), Vec<&Event>> = BTreeMap::new();
    let mut recvs: BTreeMap<(usize, usize, u64), Vec<&Event>> = BTreeMap::new();
    for (rank, ring) in rings.iter().enumerate() {
        for e in ring {
            match e.kind {
                // Channel key: (sender rank, receiver rank, tag).
                Kind::Send => sends.entry((rank, e.peer(), e.b)).or_default().push(e),
                Kind::Recv => recvs.entry((e.peer(), rank, e.b)).or_default().push(e),
                _ => {}
            }
        }
    }
    let mut out = FlowPairing::default();
    for (key, ss) in &sends {
        let (src, dst, tag) = *key;
        let rr = recvs.get(key).map(Vec::as_slice).unwrap_or(&[]);
        for (i, s) in ss.iter().enumerate() {
            match rr.get(i) {
                Some(r) => out.pairs.push(PairedMessage {
                    src,
                    dst,
                    tag,
                    send_ts_us: s.ts_us,
                    recv_ts_us: r.ts_us,
                    recv_dur_us: r.dur_us,
                    bytes: s.n,
                }),
                None => out.unpaired_sends.push(UnpairedSend {
                    src,
                    dst,
                    tag,
                    ts_us: s.ts_us,
                }),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(ts: u64, peer: usize, tag: u64) -> Event {
        Event::msg(Kind::Send, ts, 0, peer, tag, 64)
    }

    fn recv(ts: u64, dur: u64, peer: usize, tag: u64) -> Event {
        Event::msg(Kind::Recv, ts, dur, peer, tag, 64)
    }

    #[test]
    fn kth_send_matches_kth_recv_per_channel() {
        let rings = vec![
            // A different tag is a different channel.
            vec![send(10, 1, 7), send(20, 1, 7), send(12, 1, 9)],
            vec![recv(5, 8, 0, 7), recv(25, 4, 0, 7), recv(11, 3, 0, 9)],
        ];
        let p = pair_fifo(&rings);
        assert_eq!(p.pairs.len(), 3);
        assert!(p.unpaired_sends.is_empty());
        // Channel order (0,1,7) then (0,1,9); arrival order within.
        assert_eq!(p.pairs[0].send_ts_us, 10);
        assert_eq!(p.pairs[0].recv_ts_us, 5);
        assert_eq!(p.pairs[1].send_ts_us, 20);
        assert_eq!(p.pairs[1].recv_ts_us, 25);
        assert_eq!(p.pairs[2].tag, 9);
        // 10 > 5: the first message is a late send.
        assert!(p.pairs[0].late_sender());
        assert!(!p.pairs[1].late_sender());
    }

    #[test]
    fn excess_sends_are_unpaired_in_order() {
        let rings = vec![
            vec![],
            vec![],
            vec![send(1, 3, 5), send(2, 3, 5)],
            vec![recv(0, 4, 2, 5)],
        ];
        let p = pair_fifo(&rings);
        assert_eq!(p.pairs.len(), 1);
        assert_eq!(
            p.unpaired_sends,
            vec![UnpairedSend {
                src: 2,
                dst: 3,
                tag: 5,
                ts_us: 2
            }]
        );
    }

    #[test]
    fn only_sends_and_recvs_pair() {
        use crate::event::Name;
        let rings = vec![vec![
            Event::msg(Kind::Timeout, 0, 9, 1, 2, 0),
            Event::msg(Kind::Stale, 0, 0, 1, 2, 3),
            Event::span(Name::new("atm_run"), 1, 0, 10),
            Event::mark(Kind::Fault, Name::new("fault.kill"), 1, 2, 1, 5),
        ]];
        assert_eq!(pair_fifo(&rings), FlowPairing::default());
    }

    #[test]
    fn pairing_ignores_what_else_a_ring_holds() {
        use crate::event::Name;
        let bare = vec![vec![send(10, 1, 7)], vec![recv(5, 8, 0, 7)]];
        let mut busy = bare.clone();
        busy[0].insert(0, Event::span(Name::new("atm_run"), 1, 0, 10));
        busy[1].push(Event::msg(Kind::Timeout, 30, 9, 0, 7, 0));
        assert_eq!(pair_fifo(&bare), pair_fifo(&busy));
    }
}
