//! # AP3ESM message-passing substrate (`ap3esm-comm`)
//!
//! An MPI-analogue used by every AP3ESM component. The paper runs MPI over
//! up to 37.2 million Sunway cores; reproducing that transport is out of
//! scope (repro band 1/5), so this crate provides a *rank-per-thread*
//! message-passing world with the part of that programming surface the model
//! uses:
//!
//! * point-to-point send/recv with tags (sends are buffered, i.e. already
//!   non-blocking; receives block, poll, or wait out an explicit window),
//! * the collectives the model calls (barrier, broadcast, gather,
//!   allreduce) implemented **on top of point-to-point messages**, so the
//!   traffic they generate is observable,
//! * elastic shrink: a generation-stamped membership view the survivors of
//!   a permanent rank loss agree on ([`world`]),
//! * per-world traffic accounting (messages/bytes), which feeds the
//!   `ap3esm-machine` network model when projecting to full machine scale.
//!
//! **Not reproduced: communicators.** The paper carves its two task domains
//! (ATM+ICE+LND+CPL | OCN, §5.1.2) out of `MPI_COMM_WORLD` with
//! `MPI_Comm_split`. Here a task domain is which components a rank's coupler
//! holds (`esm::Parts::of_rank`), every message is addressed by world rank
//! and tag, and the coupler's all-to-all strategy sends its own personalised
//! exchange on [`collectives::alltoall_wire_tag`] — so a `split`/sub-
//! communicator layer (and `scatter`, `allgather`, `alltoallv` and a
//! receive-request handle beside it) had no caller and is not kept as an MPI
//! look-alike.
//!
//! Messages move as `Box<dyn Any>` within one address space — zero
//! serialisation, but byte volumes are still tracked via `size_of::<T>()`,
//! keeping communication *volumes* identical to a real MPI run.

pub mod collectives;
pub mod events;
pub mod faultplan;
pub mod halo;
pub mod stats;
pub mod world;

pub use collectives::is_collective_tag;
pub use events::{trace_epoch, trace_now_us, Event, EventLog, Kind, Name};
pub use faultplan::{
    FaultEvent, FaultInjector, FaultPlan, MsgFault, MsgSelector, PlanParseError,
};
pub use halo::{HaloExchange, HaloSpec};
pub use stats::CommStats;
pub use world::{live_rank_threads, Membership, MembershipVerdict, Rank, World};

/// Errors surfaced by the communication layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A blocking receive waited longer than the world's deadlock timeout.
    /// Carries the `(source, tag)` set the rank was waiting on so the
    /// driver can report *what* the rank was blocked on, not just that it
    /// was blocked.
    Deadlock {
        rank: usize,
        waiting: Vec<(usize, u64)>,
    },
    /// A message arrived with an unexpected payload type.
    TypeMismatch { rank: usize, src: usize, tag: u64 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Deadlock { rank, waiting } => {
                write!(f, "rank {rank}: deadlock, still waiting on")?;
                for (src, tag) in waiting {
                    write!(f, " (src {src}, tag {tag:#x})")?;
                }
                Ok(())
            }
            CommError::TypeMismatch { rank, src, tag } => {
                write!(f, "rank {rank}: payload type mismatch from {src} tag {tag}")
            }
        }
    }
}

impl std::error::Error for CommError {}
