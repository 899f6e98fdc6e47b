//! Halo (boundary) exchange.
//!
//! Both AP3ESM dycores are halo-dominated at scale: the atmosphere exchanges
//! icosahedral patch rims, the ocean exchanges tripolar tile edges (with a
//! rebuilt topology after non-ocean point removal, §5.2.2). [`HaloExchange`]
//! captures the pattern once — per-neighbor send index lists and receive
//! slots — and then executes it with non-blocking point-to-point messages.
//! A link whose peer is the rank itself (a periodic edge of a one-rank
//! strip) is a copy in place, with no message.
//!
//! Each link carries a `channel` so that multiple links between the same
//! pair of ranks (e.g. east and west edges on a 2-rank periodic strip, or a
//! self-halo on one rank) stay distinct despite FIFO mailboxes.

use crate::world::Rank;
use crate::CommError;

/// One direction of a halo link.
#[derive(Debug, Clone)]
pub struct HaloLink {
    /// Peer rank.
    pub peer: usize,
    /// Logical channel; a send on channel `c` matches the peer's receive on
    /// channel `c`.
    pub channel: u64,
    /// Local indices: cells to pack (for sends) or ghost slots to fill (for
    /// receives, in the peer's send order).
    pub indices: Vec<usize>,
}

/// Static description of one rank's halo pattern.
#[derive(Debug, Clone, Default)]
pub struct HaloSpec {
    /// The rank this pattern belongs to: a link whose peer is `rank` is a
    /// self-link.
    pub rank: usize,
    pub sends: Vec<HaloLink>,
    pub recvs: Vec<HaloLink>,
}

impl HaloSpec {
    /// Total values sent per exchange.
    pub fn send_count(&self) -> usize {
        self.sends.iter().map(|l| l.indices.len()).sum()
    }

    /// Total ghost values received per exchange.
    pub fn recv_count(&self) -> usize {
        self.recvs.iter().map(|l| l.indices.len()).sum()
    }
}

/// Executes a [`HaloSpec`] against a field buffer.
pub struct HaloExchange {
    spec: HaloSpec,
    tag: u64,
    /// `(send, recv)` positions in the spec of each self-link pair.
    self_links: Vec<(usize, usize)>,
}

/// Channels are folded into the wire tag below this stride; specs may use
/// channels `0..CHANNEL_STRIDE`.
const CHANNEL_STRIDE: u64 = 64;

impl HaloExchange {
    /// Panics on a spec the exchange cannot carry out as written: a channel
    /// out of range; a self receive without exactly one self send on its
    /// channel, or the other way round; a self send of another length than
    /// its receive; a receive slot listed twice; a send cell that is also a
    /// receive slot. The last two make a self-link's copy, which runs before
    /// the peers' receives, fill the same ghosts as a message would.
    pub fn new(spec: HaloSpec, tag: u64) -> Self {
        for l in spec.sends.iter().chain(&spec.recvs) {
            assert!(l.channel < CHANNEL_STRIDE, "halo channel out of range");
        }
        let me = spec.rank;
        let on = |links: &[HaloLink], channel: u64| -> Vec<usize> {
            (0..links.len())
                .filter(|&p| links[p].peer == me && links[p].channel == channel)
                .collect()
        };
        let mut self_links = Vec::new();
        for (r, recv) in spec.recvs.iter().enumerate().filter(|(_, l)| l.peer == me) {
            let (sends, recvs) = (on(&spec.sends, recv.channel), on(&spec.recvs, recv.channel));
            assert!(
                sends.len() == 1 && recvs.len() == 1,
                "rank {me}: self-link on channel {} has {} send(s) and {} receive(s), not one each",
                recv.channel,
                sends.len(),
                recvs.len(),
            );
            let send = &spec.sends[sends[0]];
            assert_eq!(
                send.indices.len(),
                recv.indices.len(),
                "rank {me}: self send on channel {} carries another length than its receive",
                recv.channel,
            );
            self_links.push((sends[0], r));
        }
        for send in spec.sends.iter().filter(|l| l.peer == me) {
            assert!(
                !on(&spec.recvs, send.channel).is_empty(),
                "rank {me}: self send on channel {} has no self receive",
                send.channel,
            );
        }
        let mut slots: Vec<usize> = spec.recvs.iter().flat_map(|l| l.indices.clone()).collect();
        slots.sort_unstable();
        if let Some(w) = slots.windows(2).find(|w| w[0] == w[1]) {
            panic!("rank {me}: halo receive slot {} is listed twice", w[0]);
        }
        for send in &spec.sends {
            if let Some(cell) = send.indices.iter().find(|i| slots.binary_search(i).is_ok()) {
                panic!("rank {me}: halo send cell {cell} is also a receive slot");
            }
        }
        HaloExchange {
            spec,
            tag,
            self_links,
        }
    }

    pub fn spec(&self) -> &HaloSpec {
        &self.spec
    }

    fn wire_tag(&self, channel: u64) -> u64 {
        self.tag * CHANNEL_STRIDE + channel
    }

    /// Exchange ghosts for `field`: [`HaloExchange::exchange_many`] of one
    /// field. Returns the number of values received.
    pub fn exchange(&self, rank: &Rank, field: &mut [f64]) -> Result<usize, CommError> {
        self.exchange_many(rank, &mut [field])
    }

    /// Exchange ghosts for several fields at once, packed into one message
    /// per peer link — fewer, larger messages, as the real model does for
    /// multi-variable state. Gathers every peer send and posts it, copies
    /// each self-link's cells into its ghost slots, then receives and
    /// scatters the peers' messages: the paper's "non-blocking
    /// point-to-point … overlaps communication and computation" pattern
    /// (§5.2.4). The ghosts get the values a message would carry, because no
    /// send cell is a receive slot and no slot is filled twice
    /// ([`HaloExchange::new`]). Returns the number of values received,
    /// self-links included.
    ///
    /// Panics if `rank` is not the rank the spec was built for.
    pub fn exchange_many(
        &self,
        rank: &Rank,
        fields: &mut [&mut [f64]],
    ) -> Result<usize, CommError> {
        let me = self.spec.rank;
        assert_eq!(rank.id(), me, "a halo spec of rank {me} exchanged on rank {}", rank.id());
        let nf = fields.len();
        for link in self.spec.sends.iter().filter(|l| l.peer != me) {
            let mut buf = Vec::with_capacity(link.indices.len() * nf);
            for f in fields.iter() {
                buf.extend(link.indices.iter().map(|&i| f[i]));
            }
            rank.isend(link.peer, self.wire_tag(link.channel), buf);
        }
        let mut received = 0;
        for &(s, r) in &self.self_links {
            let (cells, slots) = (&self.spec.sends[s].indices, &self.spec.recvs[r].indices);
            for f in fields.iter_mut() {
                for (&cell, &slot) in cells.iter().zip(slots) {
                    f[slot] = f[cell];
                }
            }
            received += slots.len() * nf;
        }
        for link in self.spec.recvs.iter().filter(|l| l.peer != me) {
            let buf: Vec<f64> = rank.recv(link.peer, self.wire_tag(link.channel))?;
            assert_eq!(
                buf.len(),
                link.indices.len() * nf,
                "halo message length mismatch from rank {}",
                link.peer
            );
            for (fi, f) in fields.iter_mut().enumerate() {
                let base = fi * link.indices.len();
                for (s, slot) in link.indices.iter().enumerate() {
                    f[*slot] = buf[base + s];
                }
            }
            received += link.indices.len() * nf;
        }
        Ok(received)
    }
}

/// Build the halo spec for a 1-D ring decomposition of a periodic domain:
/// each rank owns `local` cells plus one ghost on each side. Channel 0
/// carries westward messages (sent to the left neighbor), channel 1
/// eastward.
pub fn ring_spec(rank_id: usize, nranks: usize, local: usize) -> HaloSpec {
    assert!(local >= 1);
    let left = (rank_id + nranks - 1) % nranks;
    let right = (rank_id + 1) % nranks;
    // Layout: [ghost_left, interior(0..local), ghost_right]
    let first = 1;
    let last = local; // index of last interior cell
    HaloSpec {
        rank: rank_id,
        sends: vec![
            HaloLink {
                peer: left,
                channel: 0,
                indices: vec![first],
            },
            HaloLink {
                peer: right,
                channel: 1,
                indices: vec![last],
            },
        ],
        recvs: vec![
            HaloLink {
                peer: left,
                channel: 1, // left neighbor's eastward message = its last cell
                indices: vec![0],
            },
            HaloLink {
                peer: right,
                channel: 0, // right neighbor's westward message = its first cell
                indices: vec![local + 1],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn ring_halo_moves_edge_values() {
        let nranks = 4;
        let local = 3;
        let world = World::new(nranks);
        let fields = world.run(|rank| {
            let mut field = vec![0.0; local + 2];
            for i in 0..local {
                field[1 + i] = (rank.id() * 100 + i) as f64;
            }
            let ex = HaloExchange::new(ring_spec(rank.id(), nranks, local), 50);
            let n = ex.exchange(rank, &mut field).unwrap();
            assert_eq!(n, 2);
            field
        });
        for (r, field) in fields.iter().enumerate() {
            let left = (r + nranks - 1) % nranks;
            let right = (r + 1) % nranks;
            assert_eq!(field[0], (left * 100 + local - 1) as f64);
            assert_eq!(field[local + 1], (right * 100) as f64);
        }
    }

    #[test]
    fn two_rank_ring_disambiguates_directions() {
        // left == right here; channels keep the two links distinct.
        let nranks = 2;
        let local = 2;
        let world = World::new(nranks);
        let fields = world.run(|rank| {
            let mut field = vec![0.0; local + 2];
            for i in 0..local {
                field[1 + i] = (rank.id() * 10 + i) as f64;
            }
            let ex = HaloExchange::new(ring_spec(rank.id(), nranks, local), 55);
            ex.exchange(rank, &mut field).unwrap();
            field
        });
        // Rank 0: left ghost <- rank 1's last (11), right ghost <- rank 1's first (10).
        assert_eq!(fields[0][0], 11.0);
        assert_eq!(fields[0][local + 1], 10.0);
        // Rank 1: left ghost <- rank 0's last (1), right ghost <- rank 0's first (0).
        assert_eq!(fields[1][0], 1.0);
        assert_eq!(fields[1][local + 1], 0.0);
    }

    #[test]
    fn packed_exchange_matches_individual() {
        let nranks = 3;
        let local = 4;
        let world = World::new(nranks);
        world.run(|rank| {
            let spec = ring_spec(rank.id(), nranks, local);
            let mut a1 = vec![0.0; local + 2];
            let mut b1 = vec![0.0; local + 2];
            for i in 0..local {
                a1[1 + i] = (rank.id() * 10 + i) as f64;
                b1[1 + i] = -(rank.id() as f64) - i as f64;
            }
            let mut a2 = a1.clone();
            let mut b2 = b1.clone();
            let ex1 = HaloExchange::new(spec.clone(), 60);
            ex1.exchange(rank, &mut a1).unwrap();
            ex1.exchange(rank, &mut b1).unwrap();
            let ex2 = HaloExchange::new(spec, 70);
            ex2.exchange_many(rank, &mut [&mut a2, &mut b2]).unwrap();
            assert_eq!(a1, a2);
            assert_eq!(b1, b2);
        });
    }

    #[test]
    fn spec_counts() {
        let spec = ring_spec(0, 4, 8);
        assert_eq!(spec.send_count(), 2);
        assert_eq!(spec.recv_count(), 2);
    }

    #[test]
    fn single_rank_ring_self_halo() {
        // Periodic domain on one rank: ghosts wrap to own interior.
        let world = World::new(1);
        world.run(|rank| {
            let local = 3;
            let mut field = vec![0.0, 1.0, 2.0, 3.0, 0.0];
            let ex = HaloExchange::new(ring_spec(0, 1, local), 80);
            ex.exchange(rank, &mut field).unwrap();
            assert_eq!(field[0], 3.0); // left ghost <- last interior
            assert_eq!(field[4], 1.0); // right ghost <- first interior
        });
    }

    /// Rank `r`'s pattern on a `1 × nranks` mesh of `ni × nj` blocks with
    /// one-cell rims, zonally periodic (as `grid::decomp` builds it): the
    /// east-west links are self-links, the north-south ones go to peers.
    fn strip_spec(r: usize, nranks: usize, ni: usize, nj: usize) -> HaloSpec {
        let stride = ni + 2;
        let at = |i: usize, jj: usize| jj * stride + i + 1;
        let link = |peer, channel, indices| HaloLink {
            peer,
            channel,
            indices,
        };
        let mut spec = HaloSpec {
            rank: r,
            sends: vec![
                link(r, 0, (1..=nj).map(|jj| at(0, jj)).collect()),
                link(r, 1, (1..=nj).map(|jj| at(ni - 1, jj)).collect()),
            ],
            recvs: vec![
                link(r, 1, (1..=nj).map(|jj| jj * stride).collect()),
                link(r, 0, (1..=nj).map(|jj| jj * stride + ni + 1).collect()),
            ],
        };
        if r > 0 {
            spec.sends.push(link(r - 1, 2, (0..ni).map(|i| at(i, 1)).collect()));
            spec.recvs.push(link(r - 1, 3, (0..ni).map(|i| at(i, 0)).collect()));
        }
        if r + 1 < nranks {
            spec.sends.push(link(r + 1, 3, (0..ni).map(|i| at(i, nj)).collect()));
            spec.recvs.push(link(r + 1, 2, (0..ni).map(|i| at(i, nj + 1)).collect()));
        }
        spec
    }

    /// Every link as a message, self-links included: the exchange as it
    /// was before self-links became copies.
    fn exchange_by_messages(spec: &HaloSpec, tag: u64, rank: &Rank, fields: &mut [&mut [f64]]) {
        let wire = |channel| tag * CHANNEL_STRIDE + channel;
        for link in &spec.sends {
            let buf: Vec<f64> = fields
                .iter()
                .flat_map(|f| link.indices.iter().map(|&i| f[i]))
                .collect();
            rank.isend(link.peer, wire(link.channel), buf);
        }
        for link in &spec.recvs {
            let buf: Vec<f64> = rank.recv(link.peer, wire(link.channel)).unwrap();
            for (f, values) in fields.iter_mut().zip(buf.chunks(link.indices.len())) {
                for (&slot, &value) in link.indices.iter().zip(values) {
                    f[slot] = value;
                }
            }
        }
    }

    /// A spec mixing self and peer links (`px = 1, py = 2` on two ranks):
    /// the copies fill the ghosts the messages did, bit for bit, and only
    /// the peer links send.
    #[test]
    fn self_links_copy_what_messages_carried() {
        let (ni, nj, nranks, exchanges) = (5, 3, 2, 3);
        let fields = |r: usize| -> [Vec<f64>; 2] {
            let len = (ni + 2) * (nj + 2);
            [0, 1].map(|f| (0..len).map(|i| (1000 * r + 100 * f + i) as f64 * 0.37).collect())
        };
        let run = |by_messages: bool| {
            let world = World::new(nranks);
            let out = world.run(|rank| {
                let spec = strip_spec(rank.id(), nranks, ni, nj);
                let ex = HaloExchange::new(spec.clone(), 40);
                let [mut a, mut b] = fields(rank.id());
                for _ in 0..exchanges {
                    if by_messages {
                        exchange_by_messages(&spec, 41, rank, &mut [&mut a, &mut b]);
                    } else {
                        let n = ex.exchange_many(rank, &mut [&mut a, &mut b]).unwrap();
                        assert_eq!(n, 2 * spec.recv_count());
                    }
                }
                [a, b].map(|f| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            });
            (out, world.stats().total_messages())
        };
        let (copied, sent) = run(false);
        let (messaged, all_sent) = run(true);
        assert_eq!(copied, messaged);
        // Each rank has one peer link and two self-links.
        assert_eq!(sent, (nranks * exchanges) as u64);
        assert_eq!(all_sent, (3 * nranks * exchanges) as u64);
        assert_ne!(copied[0][0], fields(0)[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "self-link on channel 1 has 0 send(s) and 1 receive(s)")]
    fn self_receive_without_self_send_rejected() {
        let mut spec = strip_spec(0, 1, 4, 2);
        spec.sends.remove(1);
        let _ = HaloExchange::new(spec, 0);
    }

    #[test]
    #[should_panic(expected = "self send on channel 0 has no self receive")]
    fn self_send_without_self_receive_rejected() {
        let mut spec = strip_spec(0, 1, 4, 2);
        spec.recvs.remove(1);
        let _ = HaloExchange::new(spec, 0);
    }

    #[test]
    #[should_panic(expected = "self send on channel 0 carries another length")]
    fn self_send_of_another_length_rejected() {
        let mut spec = strip_spec(0, 1, 4, 2);
        spec.sends[0].indices.pop();
        let _ = HaloExchange::new(spec, 0);
    }

    #[test]
    #[should_panic(expected = "halo send cell 0 is also a receive slot")]
    fn send_cell_that_is_a_receive_slot_rejected() {
        let mut spec = ring_spec(0, 1, 3);
        spec.sends[1].indices = vec![0];
        let _ = HaloExchange::new(spec, 0);
    }

    #[test]
    #[should_panic(expected = "halo receive slot 4 is listed twice")]
    fn receive_slot_listed_twice_rejected() {
        let mut spec = ring_spec(0, 2, 3);
        spec.recvs[0].indices = vec![4];
        let _ = HaloExchange::new(spec, 0);
    }

    #[test]
    fn a_spec_runs_on_its_own_rank_only() {
        let messages = World::new(2).run(|rank| {
            let ex = HaloExchange::new(ring_spec(1 - rank.id(), 2, 3), 0);
            let exchange = std::panic::AssertUnwindSafe(|| ex.exchange(rank, &mut [0.0; 5]));
            let panic = std::panic::catch_unwind(exchange).expect_err("exchanged on another rank");
            panic.downcast_ref::<String>().cloned().unwrap_or_default()
        });
        let expected = "a halo spec of rank 1 exchanged on rank 0";
        assert!(messages[0].contains(expected), "{}", messages[0]);
    }

    #[test]
    #[should_panic(expected = "halo channel out of range")]
    fn oversized_channel_rejected() {
        let spec = HaloSpec {
            rank: 0,
            sends: vec![HaloLink {
                peer: 0,
                channel: 64,
                indices: vec![],
            }],
            recvs: vec![],
        };
        let _ = HaloExchange::new(spec, 0);
    }
}
