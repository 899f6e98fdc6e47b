//! The rank world: thread-backed ranks and their mailboxes.
//!
//! Besides the MPI-like surface, the world supports **elastic shrink**: when
//! a rank dies permanently, the survivors agree on a successor membership
//! ([`Rank::membership_vote`]) and install a generation-stamped view
//! ([`Rank::install_membership`]). From then on every rank addresses peers by
//! *virtual* rank (`0..M` over the survivors), every message carries the
//! sender's generation on the wire, and receives reject stale-generation
//! traffic instead of misdelivering it. With the identity view (no shrink —
//! the common case) the translation is two relaxed atomic loads per message.

use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::events::{trace_now_us, Event, EventLog, Kind};
use crate::faultplan::{FaultInjector, MsgFault};
use crate::stats::CommStats;
use crate::CommError;

/// Default blocking-receive deadline before declaring deadlock. Generous for
/// slow CI machines but finite so test hangs turn into diagnostics. Override
/// per-world with [`World::with_recv_timeout`].
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

struct Message {
    /// World generation the sender was in. Receivers in a newer generation
    /// discard the message (stale); receivers in an older generation leave
    /// it queued until they catch up.
    generation: u64,
    payload: Box<dyn Any + Send>,
}

/// An agreed membership of the world after one or more permanent rank
/// losses: the `generation` number stamped on every message sent under this
/// view, and the surviving *physical* world ranks in ascending order.
/// Virtual rank `i` of the shrunk world is `members[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    pub generation: u64,
    pub members: Vec<usize>,
}

impl Membership {
    /// Is physical rank `world_rank` part of this membership?
    pub fn contains(&self, world_rank: usize) -> bool {
        self.members.contains(&world_rank)
    }

    /// Virtual rank of physical `world_rank`, if a member.
    pub fn virtual_of(&self, world_rank: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == world_rank)
    }
}

/// Outcome of a [`Rank::membership_vote`]: either every current member is
/// still alive (the failure was transient — fall back to rollback), or a
/// shrunk successor membership has been agreed and installed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipVerdict {
    /// Every member answered the liveness poll: no permanent loss.
    AllAlive,
    /// The listed membership (already installed on this rank) succeeds the
    /// current world; the dead ranks did not answer the poll.
    Shrink(Membership),
}

/// Tag namespaces of the membership machinery (distinct from collectives'
/// `0xC0_..` base).
const TAG_VIEW_BARRIER: u64 = 0xD7_0000_0000;
const TAG_VOTE: u64 = 0xD7_0100_0000;
const TAG_VERDICT: u64 = 0xD7_0200_0000;

#[derive(Default)]
struct MailboxInner {
    queues: HashMap<(usize, u64), VecDeque<Message>>,
}

/// One per rank: a tag/source-addressed queue with a wakeup condvar.
#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
    notify: Condvar,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
}

struct WorldShared {
    n: usize,
    mailboxes: Vec<Mailbox>,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    stats: CommStats,
    recv_timeout: Duration,
    /// Fault-injection hook; `None` in production runs (one pointer check
    /// per send, nothing per receive — zero-cost when disabled).
    injector: Option<Arc<FaultInjector>>,
    /// The world's event log: `comm` records sends, receives, timeouts and
    /// stale discards here, the layers above their spans and journal
    /// entries. Disabled by default (one relaxed load per message when
    /// off); recording into it exchanges no messages, so it perturbs no
    /// fault-plan message count.
    events: Arc<EventLog>,
}

/// Rank threads of every [`World::run`] in flight in this process.
static LIVE_RANK_THREADS: AtomicUsize = AtomicUsize::new(0);

/// How many rank threads are alive in this process right now: the ranks of
/// every world between the start and the end of its [`World::run`] — all of a
/// world's ranks from before the first is spawned, so no rank can see a
/// sibling missing. What a component divides the machine's cores by when it
/// sizes a thread team inside its rank (`rank.size()` would not do: two
/// one-rank worlds side by side, campaign members or parallel tests, are two
/// threads on the same cores).
pub fn live_rank_threads() -> usize {
    LIVE_RANK_THREADS.load(Ordering::SeqCst)
}

/// Counts a world's ranks as alive for as long as it lives.
struct LiveRanks(usize);

impl LiveRanks {
    fn enter(n: usize) -> Self {
        LIVE_RANK_THREADS.fetch_add(n, Ordering::SeqCst);
        LiveRanks(n)
    }
}

impl Drop for LiveRanks {
    fn drop(&mut self) {
        LIVE_RANK_THREADS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// A communication world of `n` ranks, each running on its own OS thread.
///
/// `World::run` mirrors `mpirun -np N`: it spawns the ranks, hands each a
/// [`Rank`] handle, and joins them, returning each rank's result in rank
/// order.
pub struct World {
    shared: Arc<WorldShared>,
}

impl World {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "world needs at least one rank");
        World {
            shared: Arc::new(WorldShared {
                n,
                mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
                barrier: Mutex::new(BarrierState {
                    arrived: 0,
                    generation: 0,
                }),
                barrier_cv: Condvar::new(),
                stats: CommStats::default(),
                recv_timeout: DEFAULT_RECV_TIMEOUT,
                injector: None,
                events: Arc::new(EventLog::new(n)),
            }),
        }
    }

    /// Builder: set this world's blocking-receive deadline (the one way to
    /// change it from [`DEFAULT_RECV_TIMEOUT`]).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("with_recv_timeout must be called before World::run")
            .recv_timeout = timeout;
        self
    }

    /// Builder: install a fault injector applying a plan's message events
    /// on the send path.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("with_fault_injector must be called before World::run")
            .injector = Some(injector);
        self
    }

    /// The effective blocking-receive deadline.
    pub fn recv_timeout(&self) -> Duration {
        self.shared.recv_timeout
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.n
    }

    /// Traffic accounting for everything sent in this world.
    pub fn stats(&self) -> &CommStats {
        &self.shared.stats
    }

    /// The world's event log (disabled until [`EventLog::set_enabled`] is
    /// called).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.shared.events
    }

    /// Run `f` on every rank concurrently; returns per-rank results in rank
    /// order. Panics in any rank propagate after all threads are joined.
    pub fn run<R: Send>(&self, f: impl Fn(&Rank) -> R + Sync) -> Vec<R> {
        let shared = &self.shared;
        let mut results: Vec<Option<R>> = (0..shared.n).map(|_| None).collect();
        let _live = LiveRanks::enter(shared.n);
        crossbeam::scope(|s| {
            let mut handles = Vec::with_capacity(shared.n);
            for (id, slot) in results.iter_mut().enumerate() {
                let f = &f;
                handles.push(s.spawn(move |_| {
                    let rank = Rank {
                        id,
                        shared: Arc::clone(shared),
                        gen: AtomicU64::new(0),
                        vid: AtomicUsize::new(id),
                        shrunk: AtomicBool::new(false),
                        members: Mutex::new(None),
                        barrier_seq: AtomicU64::new(0),
                    };
                    *slot = Some(f(&rank));
                }));
            }
            for h in handles {
                h.join().expect("rank panicked");
            }
        })
        .expect("world scope");
        results.into_iter().map(|r| r.expect("rank result")).collect()
    }
}

/// A handle to one rank inside a [`World::run`] closure.
///
/// After a shrink ([`Rank::install_membership`]) the handle speaks *virtual*
/// ranks: [`Rank::id`] / [`Rank::size`] and every peer argument of
/// send/recv refer to the shrunk world, while [`Rank::world_id`] keeps
/// naming the physical thread. The view state lives on the handle (one per
/// thread), so installing a view never races with another rank's traffic.
pub struct Rank {
    id: usize,
    shared: Arc<WorldShared>,
    /// Current world generation (0 until the first shrink).
    gen: AtomicU64,
    /// Virtual rank under the current view (= `id` for the identity view).
    vid: AtomicUsize,
    /// Fast-path discriminant: `false` means identity view, no translation.
    shrunk: AtomicBool,
    /// Physical ranks of the current membership (None for identity).
    members: Mutex<Option<Arc<Vec<usize>>>>,
    /// Sequence number of dissemination barriers under a shrunk view, so
    /// back-to-back barriers never alias each other's round messages.
    barrier_seq: AtomicU64,
}

impl Rank {
    /// This rank's id in `0..size` — the *virtual* rank under the current
    /// membership view (equal to [`Rank::world_id`] until a shrink).
    pub fn id(&self) -> usize {
        if self.shrunk.load(Ordering::Relaxed) {
            self.vid.load(Ordering::Relaxed)
        } else {
            self.id
        }
    }

    /// World size under the current membership view.
    pub fn size(&self) -> usize {
        if self.shrunk.load(Ordering::Relaxed) {
            self.members
                .lock()
                .as_ref()
                .map(|m| m.len())
                .unwrap_or(self.shared.n)
        } else {
            self.shared.n
        }
    }

    /// The physical rank of this thread (stable across shrinks).
    pub fn world_id(&self) -> usize {
        self.id
    }

    /// Number of ranks the world was launched with (stable across shrinks).
    pub fn world_size(&self) -> usize {
        self.shared.n
    }

    /// Current world generation: 0 until the first shrink.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Relaxed)
    }

    /// The current membership, if a shrunk view is installed.
    pub fn membership(&self) -> Option<Membership> {
        let members = self.members.lock().as_ref().map(Arc::clone)?;
        Some(Membership {
            generation: self.generation(),
            members: (*members).clone(),
        })
    }

    /// Physical rank behind virtual rank `r` under the current view.
    fn phys(&self, r: usize) -> usize {
        if self.shrunk.load(Ordering::Relaxed) {
            let guard = self.members.lock();
            match guard.as_ref() {
                Some(m) => m[r],
                None => r,
            }
        } else {
            r
        }
    }

    /// Install an agreed successor membership on this rank. The generation
    /// must advance and this physical rank must be a member — both are
    /// invariants the [`Rank::membership_vote`] protocol guarantees, so a
    /// violation is a protocol bug, not a runtime condition.
    pub fn install_membership(&self, m: &Membership) {
        assert!(
            m.generation > self.generation(),
            "membership generation must advance ({} -> {})",
            self.generation(),
            m.generation
        );
        let vid = m
            .virtual_of(self.id)
            .expect("install_membership on an evicted rank");
        *self.members.lock() = Some(Arc::new(m.members.clone()));
        self.vid.store(vid, Ordering::Relaxed);
        self.gen.store(m.generation, Ordering::Relaxed);
        self.shrunk.store(true, Ordering::Relaxed);
    }

    /// The world's per-receive timeout. Recovery layers size their
    /// agreement windows as multiples of this, so a slow-but-alive peer
    /// that just burned a data-plane timeout is not misdeclared dead.
    pub fn recv_timeout(&self) -> Duration {
        self.shared.recv_timeout
    }

    /// Traffic statistics shared by the world.
    pub fn stats(&self) -> &CommStats {
        &self.shared.stats
    }

    /// The world's fault injector, if one was installed. Drivers consult it
    /// for rank-kill and checkpoint-corruption events (message events are
    /// applied transparently on the send path).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.shared.injector.as_ref()
    }

    /// The world's event log (same instance for every rank, one pair of
    /// rings per physical rank: index it with [`Rank::world_id`]).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.shared.events
    }

    /// Send `data` to (virtual) rank `dst` under `tag`. Non-blocking in the
    /// MPI "buffered" sense: the payload is moved into the destination
    /// mailbox immediately, stamped with the sender's world generation.
    pub fn send<T: Send + Clone + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        let dst = self.phys(dst);
        let generation = self.gen.load(Ordering::Relaxed);
        let mut copies = 1usize;
        if let Some(injector) = &self.shared.injector {
            // Fault plans target physical ranks — injection is a statement
            // about the machine, not about the current logical layout.
            match injector.on_send(self.id, dst, tag) {
                Some(MsgFault::Drop) => copies = 0,
                Some(MsgFault::Delay { ms }) => std::thread::sleep(Duration::from_millis(ms)),
                Some(MsgFault::Duplicate) => copies = 2,
                None => {}
            }
        }
        let bytes = std::mem::size_of::<T>() * data.len();
        self.shared.stats.record_send(self.id, dst, tag, bytes);
        if self.shared.events.is_enabled() {
            self.shared.events.record(
                self.id,
                Event::msg(Kind::Send, trace_now_us(), 0, dst, tag, bytes as u64),
            );
        }
        if copies == 0 {
            return;
        }
        let mailbox = &self.shared.mailboxes[dst];
        {
            let mut inner = mailbox.inner.lock();
            for _ in 1..copies {
                inner
                    .queues
                    .entry((self.id, tag))
                    .or_default()
                    .push_back(Message {
                        generation,
                        payload: Box::new(data.clone()),
                    });
            }
            inner
                .queues
                .entry((self.id, tag))
                .or_default()
                .push_back(Message {
                    generation,
                    payload: Box::new(data),
                });
        }
        mailbox.notify.notify_all();
    }

    /// Non-blocking send — identical to [`Rank::send`] (kept for API parity
    /// with the paper's non-blocking point-to-point rearranger, §5.2.4).
    pub fn isend<T: Send + Clone + 'static>(&self, dst: usize, tag: u64, data: Vec<T>) {
        self.send(dst, tag, data);
    }

    /// Blocking receive of a `Vec<T>` from (virtual) rank `src` under `tag`.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
        self.recv_impl(src, tag, self.shared.recv_timeout)
    }

    /// Blocking receive with an explicit overall deadline instead of the
    /// world's `recv_timeout`. The membership-agreement control plane uses
    /// this to give slow-but-alive peers a wider window than data traffic.
    pub fn recv_within<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        deadline: Duration,
    ) -> Result<Vec<T>, CommError> {
        self.recv_impl(src, tag, deadline)
    }

    fn recv_impl<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        deadline: Duration,
    ) -> Result<Vec<T>, CommError> {
        assert!(src < self.size(), "recv from invalid rank {src}");
        let src = self.phys(src);
        let my_gen = self.gen.load(Ordering::Relaxed);
        // Timeline start: the blocking window (including condvar waits) is
        // the coupler stall time the trace makes visible.
        let t_rec = self.shared.events.is_enabled().then(trace_now_us);
        let t0 = Instant::now();
        let mailbox = &self.shared.mailboxes[self.id];
        let msg = {
            let mut inner = mailbox.inner.lock();
            'wait: loop {
                if let Some(queue) = inner.queues.get_mut(&(src, tag)) {
                    // Discard stale-generation messages instead of
                    // misdelivering pre-shrink traffic into the new world; a
                    // future-generation message stays queued until this rank
                    // catches up (it will, via the same vote the sender took).
                    while let Some(front) = queue.front() {
                        if front.generation < my_gen {
                            queue.pop_front();
                            self.shared.stats.record_stale();
                            if self.shared.events.is_enabled() {
                                self.shared.events.record(
                                    self.id,
                                    Event::msg(Kind::Stale, trace_now_us(), 0, src, tag, 1),
                                );
                            }
                        } else {
                            break;
                        }
                    }
                    if queue.front().is_some_and(|m| m.generation == my_gen) {
                        break 'wait queue.pop_front().expect("non-empty queue");
                    }
                }
                let remaining = deadline.saturating_sub(t0.elapsed());
                if remaining.is_zero()
                    || mailbox.notify.wait_for(&mut inner, remaining).timed_out()
                {
                    if let Some(ts) = t_rec {
                        // The timed-out wait is itself a timeline event: a
                        // dropped message shows as a full-timeout stall.
                        self.shared.events.record(
                            self.id,
                            Event::msg(
                                Kind::Timeout,
                                ts,
                                trace_now_us().saturating_sub(ts),
                                src,
                                tag,
                                0,
                            ),
                        );
                    }
                    return Err(CommError::Deadlock {
                        rank: self.id,
                        waiting: vec![(src, tag)],
                    });
                }
            }
        };
        let result = msg
            .payload
            .downcast::<Vec<T>>()
            .map(|b| *b)
            .map_err(|_| CommError::TypeMismatch {
                rank: self.id,
                src,
                tag,
            });
        if let Some(ts) = t_rec {
            let bytes = result
                .as_ref()
                .map(|v| (std::mem::size_of::<T>() * v.len()) as u64)
                .unwrap_or(0);
            self.shared.events.record(
                self.id,
                Event::msg(
                    Kind::Recv,
                    ts,
                    trace_now_us().saturating_sub(ts),
                    src,
                    tag,
                    bytes,
                ),
            );
        }
        result
    }

    /// Discard every message queued for this rank (all sources, all tags).
    /// Returns the number of messages dropped. Used by the recovery path:
    /// after a rollback every rank drains in-flight traffic so replayed
    /// streams start from clean FIFO queues.
    pub fn drain_mailbox(&self) -> usize {
        let mailbox = &self.shared.mailboxes[self.id];
        let mut inner = mailbox.inner.lock();
        let n = inner.queues.values().map(|q| q.len()).sum();
        inner.queues.clear();
        n
    }

    /// Discard only messages from generations older than this rank's —
    /// post-shrink hygiene that must *not* touch new-generation traffic a
    /// faster survivor may already have sent. Returns the drop counts per
    /// *source rank* (sorted by source, sources with zero drops omitted),
    /// so the recovery log and the flight-recorder journal can attribute
    /// the discarded traffic instead of reporting a flat total.
    pub fn drain_stale(&self) -> Vec<(usize, usize)> {
        let my_gen = self.gen.load(Ordering::Relaxed);
        let mailbox = &self.shared.mailboxes[self.id];
        let mut per_src: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
        {
            let mut inner = mailbox.inner.lock();
            for (&(src, _tag), queue) in inner.queues.iter_mut() {
                let before = queue.len();
                queue.retain(|m| m.generation >= my_gen);
                let dropped = before - queue.len();
                if dropped > 0 {
                    *per_src.entry(src).or_insert(0) += dropped;
                }
            }
        }
        let events_on = self.shared.events.is_enabled();
        for (&src, &count) in &per_src {
            for _ in 0..count {
                self.shared.stats.record_stale();
            }
            if events_on {
                self.shared.events.record(
                    self.id,
                    Event::msg(Kind::Stale, trace_now_us(), 0, src, 0, count as u64),
                );
            }
        }
        per_src.into_iter().collect()
    }

    /// Non-blocking receive returning `None` when no message is queued yet.
    pub fn try_recv<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
    ) -> Option<Result<Vec<T>, CommError>> {
        let src = self.phys(src);
        let my_gen = self.gen.load(Ordering::Relaxed);
        let mailbox = &self.shared.mailboxes[self.id];
        let mut inner = mailbox.inner.lock();
        let queue = inner.queues.get_mut(&(src, tag))?;
        while let Some(front) = queue.front() {
            if front.generation < my_gen {
                queue.pop_front();
                self.shared.stats.record_stale();
                if self.shared.events.is_enabled() {
                    self.shared.events.record(
                        self.id,
                        Event::msg(Kind::Stale, trace_now_us(), 0, src, tag, 1),
                    );
                }
            } else {
                break;
            }
        }
        if queue.front().is_none_or(|m| m.generation != my_gen) {
            return None;
        }
        let msg = queue.pop_front()?;
        Some(msg.payload.downcast::<Vec<T>>().map(|b| *b).map_err(|_| {
            CommError::TypeMismatch {
                rank: self.id,
                src,
                tag,
            }
        }))
    }

    /// Global synchronisation across every rank of the current membership.
    /// With the identity view this is the shared counting barrier (blocks
    /// indefinitely, exactly the pre-shrink behaviour); under a shrunk view
    /// it disseminates over the survivors and panics on timeout — recovery
    /// code that must survive a peer death uses [`Rank::try_barrier`].
    pub fn barrier(&self) {
        if self.shrunk.load(Ordering::Relaxed) {
            self.dissemination_barrier().expect("barrier on shrunk world");
            return;
        }
        let shared = &self.shared;
        let mut state = shared.barrier.lock();
        let gen = state.generation;
        state.arrived += 1;
        if state.arrived == shared.n {
            state.arrived = 0;
            state.generation += 1;
            shared.barrier_cv.notify_all();
        } else {
            while state.generation == gen {
                shared.barrier_cv.wait(&mut state);
            }
        }
    }

    /// Timeout-aware barrier: like [`Rank::barrier`] but a member that never
    /// arrives surfaces as `CommError::Deadlock` instead of a hang. On
    /// timeout this rank withdraws its arrival, so a later barrier does not
    /// observe a phantom participant.
    pub fn try_barrier(&self) -> Result<(), CommError> {
        if self.shrunk.load(Ordering::Relaxed) {
            return self.dissemination_barrier();
        }
        let shared = &self.shared;
        let mut state = shared.barrier.lock();
        let gen = state.generation;
        state.arrived += 1;
        if state.arrived == shared.n {
            state.arrived = 0;
            state.generation += 1;
            shared.barrier_cv.notify_all();
            return Ok(());
        }
        let t0 = Instant::now();
        while state.generation == gen {
            let remaining = shared.recv_timeout.saturating_sub(t0.elapsed());
            let timed_out = remaining.is_zero()
                || shared.barrier_cv.wait_for(&mut state, remaining).timed_out();
            if timed_out && state.generation == gen {
                state.arrived -= 1;
                return Err(CommError::Deadlock {
                    rank: self.id,
                    waiting: vec![],
                });
            }
        }
        Ok(())
    }

    /// Dissemination barrier over the current (shrunk) membership: log₂(M)
    /// point-to-point rounds, each with the world's recv deadline, under a
    /// per-call tag sequence so back-to-back barriers never alias.
    fn dissemination_barrier(&self) -> Result<(), CommError> {
        let n = self.size();
        let me = self.id();
        let seq = self.barrier_seq.fetch_add(1, Ordering::Relaxed);
        let mut round = 1usize;
        let mut round_ix = 0u64;
        while round < n {
            let dst = (me + round) % n;
            let src = (me + n - round % n) % n;
            let tag = TAG_VIEW_BARRIER + seq * 64 + round_ix;
            self.send::<u8>(dst, tag, vec![]);
            self.recv_within::<u8>(src, tag, self.shared.recv_timeout)?;
            round <<= 1;
            round_ix += 1;
        }
        Ok(())
    }

    /// Agree on who is still alive after a failed collective, and — if
    /// anyone is permanently gone — on the successor membership.
    ///
    /// Every *current* member must call this (it is itself a collective).
    /// Virtual rank 0 coordinates: each other member sends a vote naming the
    /// rank it blames (or `None`), and the vote doubles as a liveness poll —
    /// a member that does not answer within the window is declared dead.
    /// If everyone answers, the failure was transient and the verdict is
    /// [`MembershipVerdict::AllAlive`]; otherwise the survivors' new
    /// membership (generation + 1) is distributed and installed on this rank
    /// before returning [`MembershipVerdict::Shrink`].
    ///
    /// An evicted-but-alive rank (one the coordinator timed out on) never
    /// receives a verdict and gets `Err(Deadlock)` — a structured outcome
    /// the caller turns into a clean failure, never a hang.
    ///
    /// The window is sized in units of the world's `recv_timeout`: peers
    /// enter the vote after suffering up to a few timed-out collective legs
    /// themselves, so the poll must out-wait that skew.
    pub fn membership_vote(
        &self,
        blamed: Option<usize>,
    ) -> Result<MembershipVerdict, CommError> {
        let n = self.size();
        let me = self.id();
        let window = self.shared.recv_timeout * 4;
        if n == 1 {
            return Ok(MembershipVerdict::AllAlive);
        }
        if me == 0 {
            let mut dead_virtual: Vec<usize> = Vec::new();
            let mut blames: Vec<(usize, i64)> = Vec::new();
            for m in 1..n {
                match self.recv_within::<i64>(m, TAG_VOTE, window) {
                    Ok(vote) => {
                        if let Some(&b) = vote.first().filter(|&&b| b >= 0) {
                            blames.push((m, b));
                        }
                    }
                    Err(_) => dead_virtual.push(m),
                }
            }
            if let Some(b) = blamed {
                blames.push((0, b as i64));
            }
            if dead_virtual.is_empty() {
                for m in 1..n {
                    self.send::<i64>(m, TAG_VERDICT, vec![0]);
                }
                return Ok(MembershipVerdict::AllAlive);
            }
            let members: Vec<usize> = (0..n)
                .filter(|v| !dead_virtual.contains(v))
                .map(|v| self.phys(v))
                .collect();
            let dead_world: Vec<usize> =
                dead_virtual.iter().map(|&v| self.phys(v)).collect();
            eprintln!(
                "[comm] membership vote: rank(s) {dead_world:?} unresponsive \
                 (blamed: {blames:?}); shrinking to {members:?}"
            );
            let membership = Membership {
                generation: self.generation() + 1,
                members,
            };
            let mut verdict: Vec<i64> = vec![1, membership.generation as i64];
            verdict.extend(membership.members.iter().map(|&m| m as i64));
            // Send verdicts before installing: they must carry the *old*
            // generation stamp so survivors still in the old world accept
            // them. Dead ranks get nothing.
            for m in 1..n {
                if !dead_virtual.contains(&m) {
                    self.send::<i64>(m, TAG_VERDICT, verdict.clone());
                }
            }
            self.install_membership(&membership);
            Ok(MembershipVerdict::Shrink(membership))
        } else {
            let vote = vec![blamed.map(|b| b as i64).unwrap_or(-1)];
            self.send::<i64>(0, TAG_VOTE, vote);
            // The coordinator polls up to n-1 members sequentially, each
            // with its own window — wait out the worst case plus slack.
            let verdict_window = window * (n as u32 + 1);
            let verdict = self.recv_within::<i64>(0, TAG_VERDICT, verdict_window)?;
            match verdict.first() {
                Some(0) => Ok(MembershipVerdict::AllAlive),
                Some(1) => {
                    let generation = verdict[1] as u64;
                    let members: Vec<usize> =
                        verdict[2..].iter().map(|&m| m as usize).collect();
                    let membership = Membership {
                        generation,
                        members,
                    };
                    self.install_membership(&membership);
                    Ok(MembershipVerdict::Shrink(membership))
                }
                _ => Err(CommError::TypeMismatch {
                    rank: self.id,
                    src: 0,
                    tag: TAG_VERDICT,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests of this binary run worlds of their own at the same time,
    /// so the count is bounded from below only.
    #[test]
    fn every_rank_sees_all_its_siblings_alive() {
        let seen = World::new(3).run(|rank| {
            let at_start = live_rank_threads();
            rank.barrier();
            (at_start, live_rank_threads())
        });
        assert!(seen.iter().all(|&(a, b)| a >= 3 && b >= 3), "{seen:?}");
        // A nested world counts on top of the one it runs in.
        let nested = World::new(1).run(|_| World::new(2).run(|_| live_rank_threads()));
        assert!(nested[0].iter().all(|&live| live >= 3), "{nested:?}");
    }

    #[test]
    fn ping_pong_two_ranks() {
        let world = World::new(2);
        let out = world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                rank.recv::<f64>(1, 8).unwrap()
            } else {
                let got = rank.recv::<f64>(0, 7).unwrap();
                let doubled: Vec<f64> = got.iter().map(|x| x * 2.0).collect();
                rank.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(out[0], vec![2.0, 4.0, 6.0]);
        assert_eq!(out[1], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn messages_keep_fifo_order_per_tag() {
        let world = World::new(2);
        world.run(|rank| {
            if rank.id() == 0 {
                for i in 0..100u32 {
                    rank.send(1, 1, vec![i]);
                }
            } else {
                for i in 0..100u32 {
                    let got = rank.recv::<u32>(0, 1).unwrap();
                    assert_eq!(got, vec![i]);
                }
            }
        });
    }

    #[test]
    fn tags_are_independent_channels() {
        let world = World::new(2);
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 10, vec![10u8]);
                rank.send(1, 20, vec![20u8]);
            } else {
                // Receive in reverse tag order.
                assert_eq!(rank.recv::<u8>(0, 20).unwrap(), vec![20]);
                assert_eq!(rank.recv::<u8>(0, 10).unwrap(), vec![10]);
            }
        });
    }

    #[test]
    fn type_mismatch_detected() {
        let world = World::new(2);
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 5, vec![1u64]);
            } else {
                let err = rank.recv::<f32>(0, 5).unwrap_err();
                assert!(matches!(err, CommError::TypeMismatch { .. }));
            }
        });
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let world = World::new(8);
        let phase1 = AtomicUsize::new(0);
        world.run(|rank| {
            phase1.fetch_add(1, Ordering::SeqCst);
            rank.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            assert_eq!(phase1.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn recv_timeout_is_configurable_and_reports_waiting_set() {
        let world = World::new(2).with_recv_timeout(Duration::from_millis(20));
        assert_eq!(world.recv_timeout(), Duration::from_millis(20));
        let errs = world.run(|rank| {
            if rank.id() == 1 {
                // Nothing is ever sent: this must deadlock quickly.
                Some(rank.recv::<u8>(0, 99).unwrap_err())
            } else {
                None
            }
        });
        match errs[1].as_ref().unwrap() {
            CommError::Deadlock { rank, waiting } => {
                assert_eq!(*rank, 1);
                assert_eq!(waiting, &vec![(0usize, 99u64)]);
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
    }

    #[test]
    fn injected_drop_loses_exactly_one_message() {
        use crate::faultplan::{FaultInjector, FaultPlan};
        let plan = FaultPlan::parse("drop src=0 dst=1 tag=4 nth=2").unwrap();
        let world = World::new(2)
            .with_recv_timeout(Duration::from_millis(20))
            .with_fault_injector(Arc::new(FaultInjector::new(plan)));
        world.run(|rank| {
            if rank.id() == 0 {
                for i in 0..3u32 {
                    rank.send(1, 4, vec![i]);
                }
            } else {
                // Second message is dropped; FIFO delivers 0 then 2.
                assert_eq!(rank.recv::<u32>(0, 4).unwrap(), vec![0]);
                assert_eq!(rank.recv::<u32>(0, 4).unwrap(), vec![2]);
                assert!(matches!(
                    rank.recv::<u32>(0, 4),
                    Err(CommError::Deadlock { .. })
                ));
            }
        });
    }

    #[test]
    fn injected_duplicate_delivers_twice() {
        use crate::faultplan::{FaultInjector, FaultPlan};
        let plan = FaultPlan::parse("dup src=0 dst=1 tag=9 nth=1").unwrap();
        let world = World::new(2)
            .with_fault_injector(Arc::new(FaultInjector::new(plan)));
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 9, vec![7u8]);
            } else {
                assert_eq!(rank.recv::<u8>(0, 9).unwrap(), vec![7]);
                assert_eq!(rank.recv::<u8>(0, 9).unwrap(), vec![7]);
            }
        });
    }

    #[test]
    fn drain_mailbox_discards_in_flight_traffic() {
        let world = World::new(2).with_recv_timeout(Duration::from_millis(20));
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 1, vec![1u8]);
                rank.send(1, 2, vec![2u8]);
                rank.barrier();
            } else {
                rank.barrier();
                assert_eq!(rank.drain_mailbox(), 2);
                assert!(rank.recv::<u8>(0, 1).is_err());
            }
        });
    }

    #[test]
    fn event_log_records_sends_and_blocking_recvs() {
        let world = World::new(2);
        world.events().set_enabled(true);
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 9, vec![0u64; 50]);
            } else {
                rank.recv::<u64>(0, 9).unwrap();
            }
        });
        let log = world.events();
        let snap = log.snapshot();
        let (sends, recvs) = (&snap[0], &snap[1]);
        assert_eq!((log.evicted(0), log.evicted(1)), (0, 0));
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].kind, Kind::Send);
        assert_eq!((sends[0].peer(), sends[0].b, sends[0].n), (1, 9, 400));
        let recv = recvs
            .iter()
            .find(|e| e.kind == Kind::Recv)
            .expect("recv recorded");
        assert_eq!((recv.peer(), recv.b, recv.n), (0, 9, 400));
    }

    #[test]
    fn event_log_is_off_by_default() {
        let world = World::new(2);
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 1, vec![1u8]);
            } else {
                rank.recv::<u8>(0, 1).unwrap();
            }
        });
        assert!(world.events().snapshot().iter().all(Vec::is_empty));
    }

    #[test]
    fn shrunk_view_translates_ranks_and_rejects_stale() {
        let world = World::new(3);
        let stale_seen = world.run(|rank| {
            let m = Membership {
                generation: 1,
                members: vec![0, 1],
            };
            match rank.world_id() {
                0 => {
                    // Pre-shrink message that must never be delivered into
                    // the new generation.
                    rank.send(1, 5, vec![111u32]);
                    rank.barrier();
                    rank.install_membership(&m);
                    assert_eq!((rank.id(), rank.size()), (0, 2));
                    rank.send(1, 5, vec![222u32]);
                    0
                }
                1 => {
                    rank.barrier();
                    rank.install_membership(&m);
                    assert_eq!((rank.id(), rank.size()), (1, 2));
                    assert_eq!(rank.world_id(), 1);
                    assert_eq!(rank.generation(), 1);
                    // The gen-0 [111] at the queue head is discarded, the
                    // gen-1 [222] behind it is delivered.
                    assert_eq!(rank.recv::<u32>(0, 5).unwrap(), vec![222]);
                    rank.stats().stale_messages()
                }
                _ => {
                    // The "dead" rank: participates in the last gen-0
                    // barrier, then exits.
                    rank.barrier();
                    0
                }
            }
        });
        assert_eq!(stale_seen[1], 1);
    }

    #[test]
    fn shrunk_view_maps_non_contiguous_survivors() {
        // Kill the middle rank: virtual 1 must become physical 2.
        let world = World::new(3);
        world.run(|rank| {
            let m = Membership {
                generation: 1,
                members: vec![0, 2],
            };
            match rank.world_id() {
                0 => {
                    rank.barrier();
                    rank.install_membership(&m);
                    rank.send(1, 9, vec![7u8]); // virtual 1 → physical 2
                    assert_eq!(rank.recv::<u8>(1, 10).unwrap(), vec![8]);
                }
                2 => {
                    rank.barrier();
                    rank.install_membership(&m);
                    assert_eq!((rank.id(), rank.size(), rank.world_id()), (1, 2, 2));
                    assert_eq!(rank.recv::<u8>(0, 9).unwrap(), vec![7]);
                    rank.send(0, 10, vec![8u8]);
                    // The dissemination barrier works over the virtual world.
                    rank.try_barrier().unwrap();
                }
                _ => {
                    rank.barrier();
                }
            }
            if rank.world_id() == 0 {
                rank.try_barrier().unwrap();
            }
        });
    }

    #[test]
    fn future_generation_messages_stay_queued_until_catchup() {
        let world = World::new(2);
        world.run(|rank| {
            let m = Membership {
                generation: 1,
                members: vec![0, 1],
            };
            if rank.world_id() == 0 {
                rank.send(1, 5, vec![111u32]);
                rank.install_membership(&m);
                rank.send(1, 5, vec![222u32]);
            } else {
                // Still at gen 0: the gen-0 message is deliverable...
                let first = loop {
                    if let Some(got) = rank.try_recv::<u32>(0, 5) {
                        break got.unwrap();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                };
                assert_eq!(first, vec![111]);
                // ...but the gen-1 message is not (left queued, not dropped).
                std::thread::sleep(Duration::from_millis(20));
                assert!(rank.try_recv::<u32>(0, 5).is_none());
                rank.install_membership(&m);
                assert_eq!(rank.recv::<u32>(0, 5).unwrap(), vec![222]);
                assert_eq!(rank.stats().stale_messages(), 0);
            }
        });
    }

    #[test]
    fn try_barrier_times_out_and_withdraws_arrival() {
        let world = World::new(2).with_recv_timeout(Duration::from_millis(40));
        // Rank 1 holds back until rank 0's first attempt has failed, so the
        // test does not depend on how two sleeps line up under load.
        let first_attempt_failed = AtomicBool::new(false);
        world.run(|rank| {
            if rank.world_id() == 0 {
                // Partner is late: first attempt must fail, not hang.
                let err = rank.try_barrier().unwrap_err();
                assert!(matches!(err, CommError::Deadlock { rank: 0, .. }));
                first_attempt_failed.store(true, Ordering::SeqCst);
                // The withdrawn arrival lets a later barrier pair up cleanly.
                rank.try_barrier().unwrap();
            } else {
                while !first_attempt_failed.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                rank.try_barrier().unwrap();
            }
        });
    }

    #[test]
    fn recv_within_enforces_its_own_deadline() {
        let world = World::new(2); // default (long) recv_timeout
        world.run(|rank| {
            if rank.world_id() == 1 {
                let t0 = std::time::Instant::now();
                let err = rank
                    .recv_within::<u8>(0, 3, Duration::from_millis(30))
                    .unwrap_err();
                assert!(matches!(err, CommError::Deadlock { .. }));
                assert!(t0.elapsed() < Duration::from_secs(5));
            }
        });
    }

    #[test]
    fn membership_vote_all_alive_when_everyone_answers() {
        let world = World::new(3).with_recv_timeout(Duration::from_millis(100));
        let verdicts = world.run(|rank| {
            let v = rank
                .membership_vote(if rank.world_id() == 1 { Some(2) } else { None })
                .unwrap();
            assert_eq!(rank.generation(), 0); // no shrink installed
            v
        });
        assert!(verdicts.iter().all(|v| *v == MembershipVerdict::AllAlive));
    }

    #[test]
    fn membership_vote_shrinks_around_a_dead_rank() {
        let world = World::new(4).with_recv_timeout(Duration::from_millis(60));
        let out = world.run(|rank| {
            if rank.world_id() == 2 {
                return None; // permanently dead: never votes
            }
            let verdict = rank.membership_vote(Some(2)).unwrap();
            let MembershipVerdict::Shrink(m) = verdict else {
                panic!("expected shrink, got {verdict:?}");
            };
            assert_eq!(m.members, vec![0, 1, 3]);
            assert_eq!(m.generation, 1);
            assert_eq!(rank.generation(), 1);
            // The shrunk world is immediately usable: ring exchange over
            // virtual ranks.
            rank.drain_stale();
            rank.try_barrier().unwrap();
            let n = rank.size();
            let me = rank.id();
            rank.send((me + 1) % n, 77, vec![me as u64]);
            let got = rank.recv::<u64>((me + n - 1) % n, 77).unwrap();
            assert_eq!(got, vec![((me + n - 1) % n) as u64]);
            Some(rank.world_id())
        });
        assert_eq!(out, vec![Some(0), Some(1), None, Some(3)]);
    }

    #[test]
    fn stats_count_bytes() {
        let world = World::new(2);
        world.run(|rank| {
            if rank.id() == 0 {
                rank.send(1, 1, vec![0f64; 100]);
            } else {
                rank.recv::<f64>(0, 1).unwrap();
            }
        });
        assert_eq!(world.stats().total_messages(), 1);
        assert_eq!(world.stats().total_bytes(), 800);
    }
}
