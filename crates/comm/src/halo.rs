//! Halo (boundary) exchange.
//!
//! Both AP3ESM dycores are halo-dominated at scale: the atmosphere exchanges
//! icosahedral patch rims, the ocean exchanges tripolar tile edges (with a
//! rebuilt topology after non-ocean point removal, §5.2.2). [`HaloExchange`]
//! captures the pattern once — per-neighbor send index lists and receive
//! slots — and then executes it with non-blocking point-to-point messages.
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
}

/// Channels are folded into the wire tag below this stride; specs may use
/// channels `0..CHANNEL_STRIDE`.
const CHANNEL_STRIDE: u64 = 64;

impl HaloExchange {
    pub fn new(spec: HaloSpec, tag: u64) -> Self {
        for l in spec.sends.iter().chain(&spec.recvs) {
            assert!(l.channel < CHANNEL_STRIDE, "halo channel out of range");
        }
        HaloExchange { spec, tag }
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
    /// per link — fewer, larger messages, as the real model does for
    /// multi-variable state. Gathers every send, posts them all, then
    /// receives and scatters into the ghost slots: the paper's "non-blocking
    /// point-to-point … overlaps communication and computation" pattern
    /// (§5.2.4). Returns the number of values received.
    pub fn exchange_many(
        &self,
        rank: &Rank,
        fields: &mut [&mut [f64]],
    ) -> Result<usize, CommError> {
        let nf = fields.len();
        for link in &self.spec.sends {
            let mut buf = Vec::with_capacity(link.indices.len() * nf);
            for f in fields.iter() {
                buf.extend(link.indices.iter().map(|&i| f[i]));
            }
            rank.isend(link.peer, self.wire_tag(link.channel), buf);
        }
        let mut received = 0;
        for link in &self.spec.recvs {
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

    #[test]
    #[should_panic(expected = "halo channel out of range")]
    fn oversized_channel_rejected() {
        let spec = HaloSpec {
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
