//! The recovery ladder around [`Coupler::step`]: after every ocean
//! coupling (the global synchronisation points) every rank injects due
//! faults, guards whatever components it holds, agrees on the world's
//! health, and then checkpoints, rolls back, or shrinks the world
//! (DESIGN.md §13). One sequence for every rank; rank 0 additionally owns
//! the checkpoint store's begin / commit / invalidate / redistribute legs.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use ap3esm_comm::collectives::{allreduce, bcast};
use ap3esm_comm::{CommError, MembershipVerdict, Rank};
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_obs::{mark, Kind};

use crate::coupled::CoupledStats;
use crate::coupler::Coupler;
use crate::resilience::{
    with_retry, CheckpointStore, HealthVerdict, RecoveryConfig, RecoveryFailure, IO_BACKOFF,
    IO_RETRIES, MAX_SHRINKS,
};
use crate::restart::redistribute_ocn_restart;
use crate::session::Session;

/// Tag of the per-ocean-coupling health agreement (severity max-reduce).
const HEALTH_TAG: u64 = 0x7EA1;
/// Tag broadcasting the checkpoint id chosen for a rollback.
const CKPT_ID_TAG: u64 = 0x7EA2;
/// Tag of the all-ranks-loaded-ok vote during a rollback.
const CKPT_OK_TAG: u64 = 0x7EA3;
/// Reply tag of the widened-window health agreement (root → peers).
const HEALTH_REPLY_TAG: u64 = 0x7EA4;

/// What the driver does after the ladder ran.
pub(crate) enum Flow {
    /// Keep stepping (possibly from a restored checkpoint).
    Continue,
    /// The world shrank: rebuild the coupler one generation up and resume
    /// from this redistributed checkpoint.
    Rebuild(PathBuf),
    /// This rank's run is over: structured failure (in `stats.failure`) or
    /// injected permanent death (`stats.lost`).
    Stop,
}

/// Per-rank runtime of the recovery layer; survives world reconstruction
/// (rollback and shrink budgets accumulate across generations).
pub(crate) struct Recovery {
    store: CheckpointStore,
    cfg: RecoveryConfig,
    pub(crate) recoveries: usize,
    shrinks: usize,
    /// Corruption events already applied (one-shot: a checkpoint rewritten
    /// after a rollback is not re-corrupted, or recovery could never
    /// converge).
    applied_corruptions: HashSet<(u64, String, u32, u64)>,
}

/// The per-ocean-coupling health agreement (severity max-reduce), with a
/// window widened to 4x the world's receive timeout on every leg: a
/// healthy peer can legitimately arrive a couple of timed-out data legs
/// late (each stall is bounded by one receive timeout), and the sync
/// point must out-wait that skew or a slow-but-alive rank would be
/// misdeclared dead. Root keeps polling the remaining peers after a
/// timeout so the *first* failure — the real casualty — carries the blame.
fn agree_severity(rank: &Rank, sev: f64) -> Result<f64, CommError> {
    let n = rank.size();
    if n == 1 {
        return Ok(sev);
    }
    let window = rank.recv_timeout() * 4;
    if rank.id() == 0 {
        let mut max = sev;
        let mut first_err = None;
        for src in 1..n {
            match rank.recv_within::<f64>(src, HEALTH_TAG, window) {
                Ok(v) => max = max.max(v[0]),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        for dst in 1..n {
            rank.send(dst, HEALTH_REPLY_TAG, vec![max]);
        }
        Ok(max)
    } else {
        rank.send(0, HEALTH_TAG, vec![sev]);
        Ok(rank.recv_within::<f64>(0, HEALTH_REPLY_TAG, window)?[0])
    }
}

/// Count a guard verdict on the obs registry.
fn observe_verdict(verdict: &HealthVerdict, rank_id: usize) {
    match verdict {
        HealthVerdict::Healthy => {}
        HealthVerdict::Degraded(m) => {
            ap3esm_obs::counter_add("resilience.guard_degraded", 1);
            mark(Kind::Health, "health.degraded", 1, 0);
            eprintln!("[resilience] rank {rank_id} degraded: {m}");
        }
        HealthVerdict::Fatal(m) => {
            ap3esm_obs::counter_add("resilience.guard_fatal", 1);
            mark(Kind::Health, "health.fatal", 2, 0);
            eprintln!("[resilience] rank {rank_id} fatal: {m}");
        }
    }
}

/// Restore every rank's share of checkpoint `dir`, vote on it, and — only
/// if every rank loaded cleanly — apply its `cpl_meta`. The vote keeps
/// every rank's verdict identical. A comm error means the vote itself could
/// not complete (a peer vanished mid-restore).
fn restore_voted(
    rank: &Rank,
    cpl: &mut Coupler,
    stats: &mut CoupledStats,
    dir: &Path,
) -> Result<bool, CommError> {
    let loaded = cpl.restore(dir);
    if let Err(e) = &loaded {
        let me = rank.id();
        eprintln!(
            "[resilience] rank {me}: restore from {} failed: {e}",
            dir.display()
        );
    }
    let mine = f64::from(loaded.is_ok());
    let all = allreduce(rank, CKPT_OK_TAG, vec![mine], |a: &f64, b| a.min(*b))?[0];
    match loaded {
        Ok(meta) if all >= 1.0 => {
            cpl.apply_meta(&meta, stats);
            if rank.id() == 0 {
                eprintln!(
                    "[resilience] generation {}: restored {}, continuing from t = {} s",
                    rank.generation(),
                    dir.display(),
                    cpl.clock.time
                );
            }
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Generation entry: resume from a hand-off directory (a shrink's
/// redistributed checkpoint, or an explicit `resume_from`). A failed
/// resume is a structured failure on every rank, never a divergent world.
pub(crate) fn resume(rank: &Rank, cpl: &mut Coupler, stats: &mut CoupledStats, dir: &Path) {
    if let Ok(true) = restore_voted(rank, cpl, stats, dir) {
        if rank.id() == 0 {
            mark(Kind::Mark, "recovery.resumed", rank.generation(), 0);
        }
    } else {
        stats.failure = Some(format!(
            "resume from {} failed on at least one rank",
            dir.display()
        ));
    }
}

impl Recovery {
    /// Rank 0 clears stale checkpoints: ids are this run's ocean-coupling
    /// indices, and leftovers from an earlier run sharing the directory
    /// must not shadow them. Safe without a barrier — no other rank
    /// touches the store before the first checkpoint barrier, which rank 0
    /// only reaches after this point.
    pub(crate) fn new(rank: &Rank, dir: &Path, cfg: &RecoveryConfig) -> Self {
        let store = CheckpointStore::new(dir, cfg.keep_checkpoints);
        if rank.id() == 0 {
            store.reset().expect("clear stale checkpoints");
        }
        Recovery {
            store,
            cfg: cfg.clone(),
            recoveries: 0,
            shrinks: 0,
            applied_corruptions: HashSet::new(),
        }
    }

    /// The ladder, after ocean coupling number `clock.time / ocn_period`.
    /// It first settles the export that coupling posted: a lost export is
    /// blamed on the coupling that lost it, and a checkpoint written below
    /// holds it staged. (Rank 0 therefore waits for the ocean here; the
    /// vote below would make it wait anyway.)
    pub(crate) fn after_coupling(
        &mut self,
        rank: &Rank,
        cpl: &mut Coupler,
        ocn_grid: &TripolarGrid,
        run: &mut Session,
        comm_fault: Option<String>,
    ) -> Flow {
        let lost_export = cpl.settle(rank, &mut run.stats);
        let comm_fault = comm_fault.or(lost_export);
        let stats = &mut run.stats;
        let ocn_period = cpl.clock.ocn_alarm.period as f64;
        let ocn_idx = (cpl.clock.time as f64 / ocn_period).round() as u64;
        if self.inject(rank, cpl, stats, ocn_idx) {
            return Flow::Stop;
        }
        let mut verdict = cpl.health();
        if let Some(e) = comm_fault {
            stats
                .fault_events
                .push(format!("comm fault at ocn coupling {ocn_idx}: {e}"));
            verdict = verdict.worst(HealthVerdict::Fatal(format!("comm: {e}")));
        }
        observe_verdict(&verdict, rank.id());
        let sev = match agree_severity(rank, verdict.severity()) {
            Ok(sev) => sev,
            // The health agreement itself lost a peer: escalate to a
            // membership vote (DESIGN.md §13 rung 3).
            Err(e) => match self.agree_survivors(rank, &e, cpl, ocn_grid, stats) {
                // Everyone is alive after all (dropped or very late
                // messages): treat as a fatal transient and roll back.
                Ok(None) => 2.0,
                Ok(Some(flow)) => return flow,
                Err(msg) => return fail(stats, msg),
            },
        };
        if sev >= 2.0 {
            let reason = format!("fatal state at ocn coupling {ocn_idx}: {verdict}");
            self.rollback(rank, cpl, stats, &reason)
        } else {
            let every = self.cfg.checkpoint_interval as u64;
            if every > 0 && ocn_idx.is_multiple_of(every) {
                self.checkpoint(rank, cpl, stats, ocn_idx);
            }
            Flow::Continue
        }
    }

    /// Fire the plan's due rank faults (plans name physical ranks).
    /// Returns true if this rank just died.
    fn inject(&self, rank: &Rank, cpl: &mut Coupler, stats: &mut CoupledStats, step: u64) -> bool {
        let Some(inj) = rank.fault_injector() else {
            return false;
        };
        let me = rank.world_id();
        if inj.take_die(me, step) {
            // Permanent loss: this thread stops participating entirely —
            // no farewell message, exactly like a node dropping off the
            // interconnect. The survivors detect the silence at the health
            // agreement and shrink around it.
            stats.lost = true;
            stats
                .fault_events
                .push(format!("rank {me} died permanently at ocn coupling {step}"));
            ap3esm_obs::counter_add("resilience.faults", 1);
            mark(Kind::Fault, "fault.die", step, 0);
            eprintln!("[resilience] rank {me} dying permanently at ocn coupling {step}");
            return true;
        }
        if inj.take_kill(me, step) {
            // Simulated rank loss: the surviving state is garbage, which
            // the guards detect.
            cpl.poison();
            ap3esm_obs::counter_add("resilience.faults", 1);
            mark(Kind::Fault, "fault.kill", step, 0);
        }
        false
    }

    /// Escalate a failed health agreement to a membership vote (DESIGN.md
    /// §13): blame the peer the timeout names, let virtual rank 0 poll
    /// liveness, and install the survivors' successor view if someone is
    /// permanently gone. Deterministic on every survivor: they all observe
    /// the same verdict sequence, so local shrink counters stay in
    /// agreement without extra communication. `Ok(None)`: everyone
    /// answered, the failure was transient. `Err`: this rank is out of the
    /// run (evicted, or the shrink budget is exhausted).
    fn agree_survivors(
        &mut self,
        rank: &Rank,
        err: &CommError,
        cpl: &Coupler,
        ocn_grid: &TripolarGrid,
        stats: &mut CoupledStats,
    ) -> Result<Option<Flow>, String> {
        let blamed = match err {
            CommError::Deadlock { waiting, .. } => waiting.first().map(|&(src, _)| src),
            _ => None,
        };
        let lost = format!("health agreement failed: {err}");
        let blamed_id = blamed.map_or(u64::MAX, |b| b as u64);
        mark(Kind::Health, "health.agreement_lost", 2, blamed_id);
        stats.fault_events.push(lost);
        let m = match rank.membership_vote(blamed) {
            Ok(MembershipVerdict::AllAlive) => return Ok(None),
            Ok(MembershipVerdict::Shrink(m)) => m,
            Err(e) => {
                return Err(format!(
                    "evicted from the world during membership agreement: {e}"
                ))
            }
        };
        self.shrinks += 1;
        stats.shrinks = self.shrinks;
        let dropped = rank.drain_stale();
        let total: usize = dropped.iter().map(|&(_, n)| n).sum();
        if total > 0 {
            ap3esm_obs::counter_add("resilience.drained_messages", total as u64);
            let by_rank: Vec<String> = dropped
                .iter()
                .map(|&(src, n)| format!("{n} from rank {src}"))
                .collect();
            stats.fault_events.push(format!(
                "stale traffic discarded post-shrink: {}",
                by_rank.join(", ")
            ));
        }
        stats.fault_events.push(format!(
            "membership shrunk to {:?} (generation {})",
            m.members, m.generation
        ));
        mark(
            Kind::Shrink,
            "recovery.shrink",
            m.generation,
            m.members.len() as u64,
        );
        if self.shrinks > MAX_SHRINKS {
            return Err(format!(
                "shrink budget exhausted: {} permanent rank losses exceed max_shrinks {}",
                self.shrinks, MAX_SHRINKS
            ));
        }
        Ok(Some(self.hand_off(rank, cpl, ocn_grid, stats)))
    }

    /// Shrink-to-fit hand-off: rank 0 redistributes the last committed
    /// checkpoint onto the survivor layout and announces its id (-1 =
    /// nothing left); every survivor rebuilds one generation up from it.
    fn hand_off(
        &self,
        rank: &Rank,
        cpl: &Coupler,
        ocn_grid: &TripolarGrid,
        stats: &mut CoupledStats,
    ) -> Flow {
        let dst = self
            .store
            .root()
            .join(format!("shrunk_g{}", rank.generation()));
        let mut sig = -1i64;
        if let Some(cand) = self.store.latest().filter(|_| rank.id() == 0) {
            let _ = std::fs::remove_dir_all(&dst);
            let survivors = BlockDecomp2d::auto(ocn_grid.nlon, ocn_grid.nlat, rank.size() - 1);
            let src = self.store.dir(cand);
            match redistribute_ocn_restart(&src, &dst, ocn_grid, &cpl.ocn_decomp, &survivors) {
                Ok(()) => sig = cand as i64,
                Err(e) => eprintln!("[resilience] checkpoint redistribution failed: {e}"),
            }
        }
        match bcast(rank, CKPT_ID_TAG, 0, vec![sig]) {
            Ok(v) if v[0] >= 0 => {
                stats.degraded_ranks = rank.world_size() - rank.size();
                if rank.id() == 0 {
                    ap3esm_obs::counter_add("resilience.shrinks", 1);
                    ap3esm_obs::gauge_set("sim.degraded_ranks", stats.degraded_ranks as f64);
                    eprintln!(
                        "[resilience] shrink-to-fit: continuing degraded on {} of {} ranks from checkpoint {}",
                        rank.size(),
                        rank.world_size(),
                        v[0]
                    );
                }
                Flow::Rebuild(dst)
            }
            _ => fail(
                stats,
                "no committed checkpoint to continue degraded from".to_string(),
            ),
        }
    }

    /// Roll every rank back to the newest checkpoint all of them can load.
    fn rollback(
        &mut self,
        rank: &Rank,
        cpl: &mut Coupler,
        stats: &mut CoupledStats,
        reason: &str,
    ) -> Flow {
        // Count the rollback against the budget, then synchronise + drain
        // every mailbox so replayed message streams start from clean FIFO
        // queues.
        self.recoveries += 1;
        ap3esm_obs::counter_add("resilience.rollbacks", 1);
        mark(Kind::Recovery, "rollback", self.recoveries as u64, 0);
        let failure = |recoveries_attempted, reason: &str| RecoveryFailure {
            recoveries_attempted,
            reason: reason.to_string(),
        };
        if self.recoveries > self.cfg.max_recoveries {
            return fail(stats, failure(self.recoveries - 1, reason).to_string());
        }
        rank.barrier();
        let drained = rank.drain_mailbox();
        if drained > 0 {
            ap3esm_obs::counter_add("resilience.drained_messages", drained as u64);
        }
        rank.barrier();
        loop {
            // Rank 0 announces which committed checkpoint to restore.
            let mine = match rank.id() {
                0 => self.store.latest().map_or(-1, |i| i as i64),
                _ => -1,
            };
            let cand = bcast(rank, CKPT_ID_TAG, 0, vec![mine]).expect("checkpoint id")[0];
            if cand < 0 {
                let none_left = "no committed checkpoint to roll back to";
                return fail(stats, failure(self.recoveries, none_left).to_string());
            }
            // The health agreement has established that every member is
            // alive, so the vote itself cannot lose a peer.
            let dir = self.store.dir(cand as u64);
            if restore_voted(rank, cpl, stats, &dir).expect("checkpoint vote") {
                mark(
                    Kind::Recovery,
                    "rollback.restored",
                    self.recoveries as u64,
                    cand as u64,
                );
                return Flow::Continue;
            }
            if rank.id() == 0 {
                stats
                    .fault_events
                    .push(format!("checkpoint {cand} rejected at restore"));
                self.store
                    .invalidate(cand as u64)
                    .expect("invalidate damaged checkpoint");
            }
            rank.barrier();
        }
    }

    /// Write checkpoint `id`: rank 0 clears its directory, everyone writes
    /// their share between two barriers, rank 0 commits.
    fn checkpoint(&mut self, rank: &Rank, cpl: &Coupler, stats: &CoupledStats, id: u64) {
        mark(Kind::CkptBegin, "checkpoint.begin", id, 0);
        if rank.id() == 0 {
            with_retry("checkpoint begin", IO_RETRIES, IO_BACKOFF, || {
                self.store.begin(id)
            })
            .expect("checkpoint begin");
        }
        rank.barrier();
        let dir = self.store.dir(id);
        with_retry("checkpoint write", IO_RETRIES, IO_BACKOFF, || {
            cpl.save(&dir, stats)
        })
        .expect("checkpoint write");
        rank.barrier();
        if rank.id() == 0 {
            self.commit(rank, id);
        }
    }

    /// Commit a freshly written checkpoint and apply any checkpoint-
    /// corruption fault events targeting it.
    fn commit(&mut self, rank: &Rank, id: u64) {
        with_retry("checkpoint commit", IO_RETRIES, IO_BACKOFF, || {
            self.store.commit(id)
        })
        .expect("checkpoint commit");
        ap3esm_obs::counter_add("resilience.checkpoints", 1);
        mark(Kind::CkptCommit, "checkpoint.commit", id, 0);
        let Some(inj) = rank.fault_injector() else {
            return;
        };
        for (field, sub, byte) in inj.plan().corruptions_for(id) {
            let key = (id, field.to_string(), sub, byte);
            if !self.applied_corruptions.insert(key) {
                continue;
            }
            if self
                .store
                .corrupt_subfile_byte(id, field, sub, byte)
                .unwrap_or(false)
            {
                inj.record_external(format!(
                    "corrupted checkpoint {id} field {field} subfile {sub} byte {byte}"
                ));
                ap3esm_obs::counter_add("resilience.faults", 1);
                mark(Kind::Fault, "fault.corrupt", id, 0);
            }
        }
    }
}

/// End this rank's run with a structured failure.
fn fail(stats: &mut CoupledStats, message: String) -> Flow {
    stats.failure = Some(message);
    Flow::Stop
}
