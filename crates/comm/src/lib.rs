//! # AP3ESM message-passing substrate (`ap3esm-comm`)
//!
//! An MPI-analogue used by every AP3ESM component. The paper runs MPI over
//! up to 37.2 million Sunway cores; reproducing that transport is out of
//! scope (repro band 1/5), so this crate provides a *rank-per-thread*
//! message-passing world with the same programming surface:
//!
//! * point-to-point blocking and non-blocking send/recv with tags,
//! * collectives (barrier, broadcast, gather, allgather, allreduce,
//!   alltoallv) implemented **on top of point-to-point messages**, so the
//!   traffic they generate is observable,
//! * communicator splitting (used by the hybrid task–data parallelization
//!   strategy of §5.1.2 to give the ocean its own task domain),
//! * per-world traffic accounting (messages/bytes), which feeds the
//!   `ap3esm-machine` network model when projecting to full machine scale.
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

pub use collectives::{collective_kind, is_collective_tag};
pub use events::{trace_epoch, trace_now_us, Event, EventLog, Kind, Name};
pub use faultplan::{
    scenario_seed, Campaign, ChaosScenario, FaultEvent, FaultInjector, FaultPlan, MsgFault,
    MsgSelector, PlanParseError, ScenarioExpectation,
};
pub use halo::{HaloExchange, HaloSpec};
pub use stats::CommStats;
pub use world::{
    live_rank_threads, Membership, MembershipVerdict, Rank, RecvHandle, SubComm, World,
};

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
