//! Critical-path analyzer: where did the coupled run's wall clock go?
//!
//! Replays each rank's events — spans and messages of one log snapshot —
//! into the cross-rank *program-activity graph*, then answers the
//! three questions `BENCH_*.json` alone cannot:
//!
//! 1. **What is on the critical path?** A backward walk from the last
//!    rank to finish: busy segments are walked on-rank, and each blocking
//!    receive either stays on-rank (the message was already late-*received*)
//!    or jumps along the message edge to the sender (late-*sender* — the
//!    wait was the sender's fault, so the path continues there). Every
//!    on-path microsecond lands in exactly one of {compute, comm, wait},
//!    so the three fractions sum to 1.
//! 2. **Why did ranks wait?** Every blocking receive is classified
//!    Scalasca-style: late-sender (blame the source), late-receiver
//!    (arrival/progress lag on the destination), wait-at-collective
//!    (reserved wire tags — barrier/allreduce legs), deadlock timeout, or
//!    orphaned wait, each attributed to a rank and the enclosing
//!    top-level section.
//! 3. **What would a speedup buy?** [`Analyzer::what_if`] shrinks a named
//!    section's busy time by a factor and *re-solves* the graph forward
//!    (message joins move with their senders), reporting the projected
//!    makespan and SYPD gain against the same solver's factor-1.0
//!    baseline, so model error cancels in the ratio.
//!
//! Message pairing is the shared [`crate::msgflow`] FIFO implementation —
//! the same one the chrome-trace flow arrows and the flight-recorder
//! postmortem use — and the what-if prices each message's wire time with
//! the [`ap3esm-machine`](ap3esm_machine) α–β network model.
//!
//! Works end-of-run (the coupled driver feeds the log snapshot directly)
//! and offline ([`Analyzer::from_chrome_trace`] decodes the same events
//! from a run directory's `trace.json` through the shared row codec).
//! Each number is reported once: per-class wait totals are sums of
//! [`Analysis::blame`], and the path and waits stay out of the JSON.

use std::collections::{BTreeMap, VecDeque};

use ap3esm_comm::is_collective_tag;
use ap3esm_machine::MachineSpec;

use crate::event::{drawn, parse_chrome_trace, Event, Kind};
use crate::json::Json;
use crate::msgflow::{pair_fifo, PairedMessage};

/// Schema tag of [`Analysis::to_json`].
pub const SCHEMA: &str = "ap3esm-critpath/2";

/// Section label for busy time not covered by any top-level span.
pub const UNTRACKED: &str = "(untracked)";

/// Scalasca-style class of one blocking wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaitClass {
    /// The matching send was posted after the receiver already blocked —
    /// the wait is the *sender's* fault.
    LateSender,
    /// The send was already posted when the receive began; the residual
    /// wait is arrival/progress lag on the receiving side.
    LateReceiver,
    /// The wait sits on a reserved collective wire tag (barrier, gather or
    /// bcast leg of an allreduce, …) — the rank is parked at a
    /// synchronisation point.
    Collective,
    /// The wait exhausted the deadlock deadline and never completed.
    Timeout,
    /// No send was recorded for this receive inside the trace window
    /// (ring eviction or a genuinely missing message).
    Orphan,
}

impl WaitClass {
    pub fn label(&self) -> &'static str {
        match self {
            WaitClass::LateSender => "late-sender",
            WaitClass::LateReceiver => "late-receiver",
            WaitClass::Collective => "collective",
            WaitClass::Timeout => "timeout",
            WaitClass::Orphan => "orphan",
        }
    }
}

/// What one critical-path step is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// The rank was executing (attributed to a top-level section).
    Compute,
    /// The path rides a message edge from its send to its delivery.
    Comm,
    /// The rank idled on-path (the wait itself is the bottleneck).
    Wait(WaitClass),
}

/// One contiguous step of the critical path (chronological after
/// [`Analyzer::analyze`] returns).
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    pub rank: usize,
    pub kind: StepKind,
    pub ts_us: u64,
    pub dur_us: u64,
    /// Covering top-level section ([`UNTRACKED`] when none); for comm
    /// steps, the *receiving* rank's section.
    pub section: String,
}

/// One classified blocking wait (all ranks, on-path or not).
#[derive(Debug, Clone, PartialEq)]
pub struct WaitRecord {
    pub rank: usize,
    pub peer: usize,
    pub tag: u64,
    pub ts_us: u64,
    pub dur_us: u64,
    pub class: WaitClass,
    /// The rank the wait is attributed to.
    pub blamed: usize,
    /// The waiting rank's covering top-level section.
    pub section: String,
}

/// Wait time attributed to one (class, blamed rank) cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameEntry {
    pub class: WaitClass,
    pub rank: usize,
    pub count: u64,
    pub total_us: u64,
}

/// One row of the ranked optimization-targets table.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionCost {
    pub name: String,
    /// Slowest rank's wall time inside the section (seconds).
    pub wall_max_s: f64,
    /// On-path compute microseconds attributed to the section.
    pub on_path_compute_us: u64,
    /// On-path wait microseconds whose waiting rank sat in the section.
    pub on_path_wait_us: u64,
    /// Messages sent from inside the section (all ranks).
    pub msgs: u64,
    /// Bytes sent from inside the section (all ranks).
    pub bytes: u64,
    /// Projected SYPD gain (percent) from halving this section's work.
    pub what_if_half_gain_pct: f64,
}

impl SectionCost {
    pub fn on_path_us(&self) -> u64 {
        self.on_path_compute_us + self.on_path_wait_us
    }
}

/// Result of one what-if projection.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    pub section: String,
    pub factor: f64,
    /// Solver makespan with factor 1.0 (model baseline, µs).
    pub baseline_us: f64,
    /// Solver makespan with the section scaled (µs).
    pub projected_us: f64,
    /// Projected speed gain in percent (`baseline/projected - 1`).
    pub gain_pct: f64,
    /// Measured SYPD scaled by the projected speedup (0 when unknown).
    pub projected_sypd: f64,
}

/// The full analysis of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    pub n_ranks: usize,
    /// The rank whose activity ends last (where the backward walk starts).
    pub end_rank: usize,
    pub start_us: u64,
    pub end_us: u64,
    /// Critical-path wall length (µs); equals the sum of step durations.
    pub total_us: u64,
    pub compute_us: u64,
    pub comm_us: u64,
    pub wait_us: u64,
    /// The path, chronological (not serialized).
    pub steps: Vec<PathStep>,
    /// Ranked by on-path time, descending.
    pub sections: Vec<SectionCost>,
    /// Ranked by attributed wait time, descending.
    pub blame: Vec<BlameEntry>,
    /// Every classified wait (not serialized: `blame` sums them).
    pub waits: Vec<WaitRecord>,
    /// The section with the most on-path time (the top optimization
    /// target; empty for an empty run).
    pub top_section: String,
    /// Measured SYPD carried in for what-if scaling (0 when unknown).
    pub sypd: f64,
}

impl Analysis {
    pub fn compute_frac(&self) -> f64 {
        frac(self.compute_us, self.total_us)
    }

    pub fn comm_frac(&self) -> f64 {
        frac(self.comm_us, self.total_us)
    }

    pub fn wait_frac(&self) -> f64 {
        frac(self.wait_us, self.total_us)
    }
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

// --- per-rank preparation ----------------------------------------------

/// A top-level section instance on one rank.
#[derive(Debug, Clone)]
struct Sect {
    name: String,
    ts: u64,
    end: u64,
}

/// One blocking wait on one rank's timeline.
#[derive(Debug, Clone)]
struct Wait {
    ts: u64,
    end: u64,
    peer: usize,
    tag: u64,
    timeout: bool,
    pair: Option<PairedMessage>,
}

#[derive(Debug, Clone, Default)]
struct RankPrep {
    /// Top-level section instances, sorted by start.
    sections: Vec<Sect>,
    /// Every recv and timeout (each at least 1 µs wide), sorted by start.
    waits: Vec<Wait>,
    /// Activity envelope.
    first_us: u64,
    last_us: u64,
    empty: bool,
}

/// Extract top-level (depth-0) spans per thread track via a containment
/// sweep over spans in [`crate::event::track_order`] (parents precede
/// children), keeping a stack of the current track's open span ends.
fn top_level_sections(spans: &[Event]) -> Vec<Sect> {
    let mut out = Vec::new();
    let mut stack: Vec<(u16, u64)> = Vec::new();
    for e in spans {
        while stack.last().is_some_and(|&(tid, end)| tid != e.tid || end <= e.ts_us) {
            stack.pop();
        }
        if stack.is_empty() {
            out.push(Sect {
                name: e.name.as_str().to_string(),
                ts: e.ts_us,
                end: e.ts_us + e.dur_us,
            });
        }
        stack.push((e.tid, e.ts_us + e.dur_us));
    }
    out.sort_by_key(|s| (s.ts, s.end));
    out
}

/// Per-(class, blamed rank) totals of every classified wait, by attributed
/// wait time, descending.
fn tally_blame(waits: &[WaitRecord]) -> Vec<BlameEntry> {
    let mut blame_tot: BTreeMap<(WaitClass, usize), (u64, u64)> = BTreeMap::new();
    for w in waits {
        let b = blame_tot.entry((w.class, w.blamed)).or_default();
        b.0 += 1;
        b.1 += w.dur_us;
    }
    let mut blame: Vec<BlameEntry> = blame_tot
        .into_iter()
        .map(|((class, rank), (count, total_us))| BlameEntry {
            class,
            rank,
            count,
            total_us,
        })
        .collect();
    blame.sort_by_key(|b| (std::cmp::Reverse(b.total_us), b.rank));
    blame
}

// --- the analyzer -------------------------------------------------------

/// Builder + engine. Construct with [`Analyzer::new`] (end-of-run) or
/// [`Analyzer::from_chrome_trace`] (offline), optionally
/// [`with_sypd`](Analyzer::with_sypd), then call [`Analyzer::analyze`]
/// and/or [`Analyzer::what_if`].
pub struct Analyzer {
    /// The what-if's message wire times are priced with the Sunway
    /// OceanLight model.
    machine: MachineSpec,
    sypd: f64,
    preps: Vec<RankPrep>,
    /// Each rank's messages (send, recv, timeout, stale), in time order.
    comms: Vec<Vec<Event>>,
}

impl Analyzer {
    /// Build from one log snapshot, `events[rank]` being that rank's
    /// events: spans and messages feed the graph, journal kinds are not
    /// activity and are ignored. The activity is read as the chrome trace
    /// draws it — each track in time order, a receive that did not wait one
    /// microsecond wide — so the analysis of a snapshot and
    /// [`Analyzer::from_chrome_trace`] of its rendered trace are equal.
    pub fn new(events: &[Vec<Event>]) -> Analyzer {
        let activity = |ring: &Vec<Event>| {
            let mut ring = drawn(ring);
            ring.retain(|e| !e.kind.is_journal());
            ring
        };
        let events: &[Vec<Event>] = &events.iter().map(activity).collect::<Vec<_>>();
        let of = |keep: fn(Kind) -> bool| -> Vec<Vec<Event>> {
            let ring = |ring: &Vec<Event>| ring.iter().filter(|e| keep(e.kind)).copied().collect();
            events.iter().map(ring).collect()
        };
        let spans = of(|k| k == Kind::Span);
        let comms = of(Kind::is_message);
        // Shared FIFO pairing over every rank's ring, then hand each recv
        // its pair back by walking rings in order with per-channel counters.
        let pairing = pair_fifo(events);
        let mut chan_pairs: BTreeMap<(usize, usize, u64), Vec<&PairedMessage>> = BTreeMap::new();
        for p in &pairing.pairs {
            chan_pairs.entry((p.src, p.dst, p.tag)).or_default().push(p);
        }

        let mut preps = Vec::with_capacity(events.len());
        for (r, ring) in events.iter().enumerate() {
            let mut prep = RankPrep {
                sections: top_level_sections(&spans[r]),
                ..RankPrep::default()
            };
            let mut first = u64::MAX;
            let mut last = 0u64;
            let mut recv_seen: BTreeMap<(usize, usize, u64), usize> = BTreeMap::new();
            for e in ring {
                first = first.min(e.ts_us);
                last = last.max(e.ts_us + e.dur_us);
                let timeout = e.kind == Kind::Timeout;
                if e.kind != Kind::Recv && !timeout {
                    continue;
                }
                // A receive takes its pair back in channel order.
                let pair = (!timeout).then(|| {
                    let key = (e.peer(), r, e.b);
                    let k = recv_seen.entry(key).or_default();
                    *k += 1;
                    chan_pairs.get(&key).and_then(|v| v.get(*k - 1)).map(|p| (*p).clone())
                });
                prep.waits.push(Wait {
                    ts: e.ts_us,
                    end: e.ts_us + e.dur_us,
                    peer: e.peer(),
                    tag: e.b,
                    timeout,
                    pair: pair.flatten(),
                });
            }
            prep.waits.sort_by_key(|w| (w.ts, w.end));
            prep.empty = first == u64::MAX;
            prep.first_us = if prep.empty { 0 } else { first };
            prep.last_us = last;
            preps.push(prep);
        }

        Analyzer {
            machine: MachineSpec::sunway_oceanlight(),
            sypd: 0.0,
            preps,
            comms,
        }
    }

    /// Carry the run's measured SYPD so what-if projections report an
    /// absolute projected SYPD, not just a percentage.
    pub fn with_sypd(mut self, sypd: f64) -> Analyzer {
        self.sypd = sypd;
        self
    }

    fn n_ranks(&self) -> usize {
        self.preps.len()
    }

    fn global_start(&self) -> u64 {
        self.preps
            .iter()
            .filter(|p| !p.empty)
            .map(|p| p.first_us)
            .min()
            .unwrap_or(0)
    }

    /// α + bytes/β, in microseconds — the modeled wire time of one message.
    fn wire_us(&self, bytes: u64) -> f64 {
        (self.machine.net_alpha + bytes as f64 / self.machine.net_beta) * 1e6
    }

    /// Covering top-level section at instant `t` on `rank`. A wait beginning
    /// exactly where the most recently begun section ended belongs to it;
    /// one beginning after a gap is [`UNTRACKED`].
    fn section_at(&self, rank: usize, t: u64) -> &str {
        let secs = &self.preps[rank].sections;
        let before = &secs[..secs.partition_point(|s| s.ts <= t)];
        before
            .iter()
            .rev()
            .find(|s| t < s.end)
            .or_else(|| before.last().filter(|s| s.end == t))
            .map(|s| s.name.as_str())
            .unwrap_or(UNTRACKED)
    }

    /// Split busy window `[a, b)` of `rank` into per-section compute steps,
    /// pushed latest-first (the walk builds the path backward).
    fn attribute_busy_rev(&self, rank: usize, a: u64, b: u64, steps: &mut Vec<PathStep>) {
        if b <= a {
            return;
        }
        let mut cursor = b;
        for s in self.preps[rank].sections.iter().rev() {
            if cursor <= a {
                break;
            }
            let lo = s.ts.max(a);
            let hi = s.end.min(cursor);
            if hi <= lo {
                continue;
            }
            if hi < cursor {
                steps.push(PathStep {
                    rank,
                    kind: StepKind::Compute,
                    ts_us: hi,
                    dur_us: cursor - hi,
                    section: UNTRACKED.to_string(),
                });
            }
            steps.push(PathStep {
                rank,
                kind: StepKind::Compute,
                ts_us: lo,
                dur_us: hi - lo,
                section: s.name.clone(),
            });
            cursor = lo;
        }
        if cursor > a {
            steps.push(PathStep {
                rank,
                kind: StepKind::Compute,
                ts_us: a,
                dur_us: cursor - a,
                section: UNTRACKED.to_string(),
            });
        }
    }

    fn classify(&self, w: &Wait) -> WaitClass {
        if w.timeout {
            WaitClass::Timeout
        } else if is_collective_tag(w.tag) {
            WaitClass::Collective
        } else {
            match &w.pair {
                None => WaitClass::Orphan,
                Some(p) if p.late_sender() => WaitClass::LateSender,
                Some(_) => WaitClass::LateReceiver,
            }
        }
    }

    fn blame_of(&self, w: &Wait, class: WaitClass) -> usize {
        match class {
            // The receiver's own progress lag.
            WaitClass::LateReceiver => w.pair.as_ref().map(|p| p.dst).unwrap_or(w.peer),
            // Everything else points at the peer the rank waited on.
            _ => w.peer,
        }
    }

    /// Walk the critical path backward from the last rank to finish.
    fn walk(&self) -> (Vec<PathStep>, usize) {
        let mut steps = Vec::new();
        let end_rank = self
            .preps
            .iter()
            .enumerate()
            .max_by_key(|(r, p)| (p.last_us, usize::MAX - r))
            .map(|(r, _)| r)
            .unwrap_or(0);
        if self.preps.is_empty() || self.preps[end_rank].last_us == 0 {
            return (steps, end_rank);
        }
        let mut cur = end_rank;
        let mut t = self.preps[end_rank].last_us;
        let total_waits: usize = self.preps.iter().map(|p| p.waits.len()).sum();
        let max_iters = total_waits + self.n_ranks() + 16;
        let mut stall = 0usize;
        for _ in 0..max_iters {
            let p = &self.preps[cur];
            // Latest wait ending at or before the cursor (ends are
            // monotone: a rank's waits are sequential).
            let idx = p.waits.partition_point(|w| w.end <= t);
            let Some(w) = (idx > 0).then(|| &p.waits[idx - 1]) else {
                self.attribute_busy_rev(cur, p.first_us.min(t), t, &mut steps);
                break;
            };
            let w = w.clone();
            self.attribute_busy_rev(cur, w.end, t, &mut steps);
            let class = self.classify(&w);
            // `send_ts < w.end` guards against eviction-skewed pairings
            // (a full ring can drop recvs and shift the FIFO match, putting
            // the "matching" send after this wait ended); jumping such an
            // edge would move the walk forward in time.
            let on_path_jump = match (&w.pair, class) {
                (Some(pr), WaitClass::LateSender | WaitClass::Collective)
                    if pr.late_sender() && pr.src < self.n_ranks() && pr.send_ts_us < w.end =>
                {
                    Some(pr.clone())
                }
                _ => None,
            };
            match on_path_jump {
                Some(pr) => {
                    // Ride the message edge back to the sender.
                    steps.push(PathStep {
                        rank: cur,
                        kind: StepKind::Comm,
                        ts_us: pr.send_ts_us,
                        dur_us: w.end - pr.send_ts_us,
                        section: self.section_at(cur, w.ts).to_string(),
                    });
                    stall = if pr.send_ts_us == t { stall + 1 } else { 0 };
                    cur = pr.src;
                    t = pr.send_ts_us;
                    if stall > self.n_ranks() {
                        break;
                    }
                }
                None => {
                    // The wait itself is on-path.
                    steps.push(PathStep {
                        rank: cur,
                        kind: StepKind::Wait(class),
                        ts_us: w.ts,
                        dur_us: w.end - w.ts,
                        section: self.section_at(cur, w.ts).to_string(),
                    });
                    stall = 0;
                    t = w.ts;
                }
            }
            if t <= self.global_start() {
                break;
            }
        }
        steps.reverse();
        (steps, end_rank)
    }

    /// Classify every blocking wait on every rank (on-path or not).
    fn classify_all(&self) -> Vec<WaitRecord> {
        let mut out = Vec::new();
        for (r, p) in self.preps.iter().enumerate() {
            for w in &p.waits {
                let class = self.classify(w);
                out.push(WaitRecord {
                    rank: r,
                    peer: w.peer,
                    tag: w.tag,
                    ts_us: w.ts,
                    dur_us: w.end - w.ts,
                    class,
                    blamed: self.blame_of(w, class),
                    section: self.section_at(r, w.ts).to_string(),
                });
            }
        }
        out.sort_by_key(|w| (w.ts_us, w.rank));
        out
    }

    /// Full analysis: path, fractions, wait taxonomy and blame, and the
    /// ranked sections with their ×0.5 what-if gains.
    pub fn analyze(&self) -> Analysis {
        let (steps, end_rank) = self.walk();
        let start_us = steps.first().map(|s| s.ts_us).unwrap_or(0);
        let end_us = steps.last().map(|s| s.ts_us + s.dur_us).unwrap_or(0);

        let (mut compute_us, mut comm_us, mut wait_us) = (0u64, 0u64, 0u64);
        let mut sec_compute: BTreeMap<String, u64> = BTreeMap::new();
        let mut sec_wait: BTreeMap<String, u64> = BTreeMap::new();
        for s in &steps {
            match s.kind {
                StepKind::Compute => {
                    compute_us += s.dur_us;
                    *sec_compute.entry(s.section.clone()).or_default() += s.dur_us;
                }
                StepKind::Comm => comm_us += s.dur_us,
                StepKind::Wait(_) => {
                    wait_us += s.dur_us;
                    *sec_wait.entry(s.section.clone()).or_default() += s.dur_us;
                }
            }
        }
        let total_us = compute_us + comm_us + wait_us;

        let waits = self.classify_all();
        let blame = tally_blame(&waits);
        let sections = self.section_table(&sec_compute, &sec_wait);
        let top_section = sections
            .iter()
            .find(|s| s.name != UNTRACKED && s.on_path_us() > 0)
            .map(|s| s.name.clone())
            .unwrap_or_default();

        Analysis {
            n_ranks: self.n_ranks(),
            end_rank,
            start_us,
            end_us,
            total_us,
            compute_us,
            comm_us,
            wait_us,
            steps,
            sections,
            blame,
            waits,
            top_section,
            sypd: self.sypd,
        }
    }

    /// The ranked optimization-targets table: wall (max rank), traffic and
    /// what-if gains per section, given the on-path compute and wait
    /// microseconds the walk attributed to each.
    fn section_table(
        &self,
        sec_compute: &BTreeMap<String, u64>,
        sec_wait: &BTreeMap<String, u64>,
    ) -> Vec<SectionCost> {
        let mut wall_by_rank: BTreeMap<String, BTreeMap<usize, u64>> = BTreeMap::new();
        for (r, p) in self.preps.iter().enumerate() {
            for s in &p.sections {
                *wall_by_rank
                    .entry(s.name.clone())
                    .or_default()
                    .entry(r)
                    .or_default() += s.end - s.ts;
            }
        }
        let mut traffic: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (r, ring) in self.comms.iter().enumerate() {
            for e in ring {
                if e.kind == Kind::Send {
                    let t = traffic.entry(self.section_at(r, e.ts_us)).or_default();
                    t.0 += 1;
                    t.1 += e.n;
                }
            }
        }
        let mut names: Vec<String> = wall_by_rank.keys().cloned().collect();
        for n in sec_compute.keys().chain(sec_wait.keys()) {
            if !names.contains(n) {
                names.push(n.clone());
            }
        }
        let mut sections: Vec<SectionCost> = names
            .into_iter()
            .map(|name| {
                let wall_max_s = wall_by_rank
                    .get(&name)
                    .and_then(|m| m.values().max())
                    .map(|us| *us as f64 / 1e6)
                    .unwrap_or(0.0);
                let (msgs, bytes) = traffic.get(name.as_str()).copied().unwrap_or((0, 0));
                SectionCost {
                    on_path_compute_us: sec_compute.get(&name).copied().unwrap_or(0),
                    on_path_wait_us: sec_wait.get(&name).copied().unwrap_or(0),
                    wall_max_s,
                    msgs,
                    bytes,
                    what_if_half_gain_pct: 0.0,
                    name,
                }
            })
            .collect();
        sections.sort_by(|a, b| {
            b.on_path_us()
                .cmp(&a.on_path_us())
                .then_with(|| a.name.cmp(&b.name))
        });
        for s in sections.iter_mut().take(4) {
            if s.name != UNTRACKED && s.on_path_us() > 0 {
                s.what_if_half_gain_pct = self.what_if(&s.name, 0.5).gain_pct;
            }
        }
        sections
    }

    /// Scaled busy time of `rank` in `[a, b)`: windows covered by
    /// `target`-named section instances shrink by `factor`.
    fn scaled_work(&self, rank: usize, a: u64, b: u64, target: &str, factor: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        let busy = (b - a) as f64;
        if target.is_empty() || factor == 1.0 {
            return busy;
        }
        let covered: u64 = self.preps[rank]
            .sections
            .iter()
            .filter(|s| s.name == target)
            .map(|s| s.end.min(b).saturating_sub(s.ts.max(a)))
            .sum();
        busy - covered as f64 * (1.0 - factor)
    }

    /// Forward re-solve of the activity graph with `target` section busy
    /// time scaled by `factor`; returns the projected makespan (µs).
    fn solve(&self, target: &str, factor: f64) -> f64 {
        let global_start = self.global_start();
        let n = self.n_ranks();
        let mut t_new: Vec<f64> = self
            .preps
            .iter()
            .map(|p| (p.first_us.saturating_sub(global_start)) as f64)
            .collect();
        let mut last_orig: Vec<u64> = self.preps.iter().map(|p| p.first_us).collect();

        struct Ev {
            rank: usize,
            kind: Kind,
            ts: u64,
            end: u64,
            peer: usize,
            tag: u64,
            bytes: u64,
            seq: usize,
        }
        let mut events: Vec<Ev> = Vec::new();
        for (r, ring) in self.comms.iter().enumerate() {
            for (seq, e) in ring.iter().enumerate() {
                if e.kind == Kind::Stale {
                    continue;
                }
                events.push(Ev {
                    rank: r,
                    kind: e.kind,
                    ts: e.ts_us,
                    end: e.ts_us + e.dur_us,
                    peer: e.peer(),
                    tag: e.b,
                    bytes: e.n,
                    seq,
                });
            }
        }
        // Topological order: per-rank completion times are monotone, and a
        // paired send completes no later than its receive's delivery (same
        // address space), so sorting by original completion — sends first
        // on ties — processes every producer before its consumer.
        events.sort_by_key(|e| (e.end, (e.kind != Kind::Send) as u8, e.rank, e.seq));

        let mut chans: BTreeMap<(usize, usize, u64), VecDeque<f64>> = BTreeMap::new();
        for e in &events {
            let r = e.rank;
            t_new[r] += self.scaled_work(r, last_orig[r], e.ts, target, factor);
            match e.kind {
                Kind::Send => {
                    chans.entry((r, e.peer, e.tag)).or_default().push_back(t_new[r]);
                }
                Kind::Recv => {
                    let sent = (e.peer < n)
                        .then(|| chans.get_mut(&(e.peer, r, e.tag)).and_then(VecDeque::pop_front))
                        .flatten();
                    match sent {
                        Some(send_new) => {
                            t_new[r] = t_new[r].max(send_new + self.wire_us(e.bytes));
                        }
                        // Unpaired: no producer in the window, keep the
                        // original wait.
                        None => t_new[r] += (e.end - e.ts) as f64,
                    }
                }
                Kind::Timeout => t_new[r] += (e.end - e.ts) as f64,
                _ => {}
            }
            last_orig[r] = last_orig[r].max(e.end);
        }
        for (r, p) in self.preps.iter().enumerate() {
            t_new[r] += self.scaled_work(r, last_orig[r], p.last_us, target, factor);
        }
        t_new.into_iter().fold(0.0, f64::max)
    }

    /// Project the makespan and SYPD effect of scaling `section`'s busy
    /// time by `factor` (0.5 = a 2× kernel speedup). The gain is reported
    /// against the solver's own factor-1.0 baseline so model error in the
    /// wire times cancels.
    pub fn what_if(&self, section: &str, factor: f64) -> WhatIf {
        let baseline_us = self.solve("", 1.0);
        let projected_us = self.solve(section, factor);
        let gain_pct = if projected_us > 0.0 {
            (baseline_us / projected_us - 1.0) * 100.0
        } else {
            0.0
        };
        WhatIf {
            section: section.to_string(),
            factor,
            baseline_us,
            projected_us,
            gain_pct,
            projected_sypd: if self.sypd > 0.0 && projected_us > 0.0 {
                self.sypd * baseline_us / projected_us
            } else {
                0.0
            },
        }
    }

    /// Decode the events of a chrome-trace document written by
    /// [`crate::trace::chrome_trace`] ([`parse_chrome_trace`], the shared
    /// codec) and build from them.
    pub fn from_chrome_trace(doc: &Json) -> Result<Analyzer, String> {
        let events = parse_chrome_trace(doc)?;
        if events.is_empty() {
            return Err("trace has no ranks".to_string());
        }
        Ok(Analyzer::new(&events))
    }
}

// --- reporting ----------------------------------------------------------

impl WhatIf {
    /// Deterministic machine-readable form.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("section", self.section.as_str().into())
            .set("factor", self.factor.into())
            .set("baseline_us", self.baseline_us.into())
            .set("projected_us", self.projected_us.into())
            .set("gain_pct", self.gain_pct.into())
            .set("projected_sypd", self.projected_sypd.into());
        o
    }
}

impl Analysis {
    /// Deterministic machine-readable form (`ap3esm-critpath/2`).
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("schema", SCHEMA.into())
            .set("n_ranks", self.n_ranks.into())
            .set("end_rank", self.end_rank.into())
            .set("start_us", self.start_us.into())
            .set("end_us", self.end_us.into())
            .set("total_us", self.total_us.into());
        let mut fr = Json::obj();
        fr.set("compute", self.compute_frac().into())
            .set("comm", self.comm_frac().into())
            .set("wait", self.wait_frac().into());
        o.set("fractions", fr);
        let mut tot = Json::obj();
        tot.set("compute_us", self.compute_us.into())
            .set("comm_us", self.comm_us.into())
            .set("wait_us", self.wait_us.into());
        o.set("totals", tot);
        o.set("sections", self.sections_json());
        o.set(
            "blame",
            Json::Arr(
                self.blame
                    .iter()
                    .map(|b| {
                        let mut bo = Json::obj();
                        bo.set("class", b.class.label().into())
                            .set("rank", b.rank.into())
                            .set("count", b.count.into())
                            .set("total_us", b.total_us.into());
                        bo
                    })
                    .collect(),
            ),
        );
        o.set("top_section", self.top_section.as_str().into());
        o.set("sypd", self.sypd.into());
        o
    }

    fn sections_json(&self) -> Json {
        let row = |s: &SectionCost| {
            let mut so = Json::obj();
            so.set("name", s.name.as_str().into())
                .set("on_path_us", s.on_path_us().into())
                .set("on_path_compute_us", s.on_path_compute_us.into())
                .set("on_path_wait_us", s.on_path_wait_us.into())
                .set("wall_max_s", s.wall_max_s.into())
                .set("msgs", s.msgs.into())
                .set("bytes", s.bytes.into())
                .set("what_if_half_gain_pct", s.what_if_half_gain_pct.into());
            so
        };
        Json::Arr(self.sections.iter().map(row).collect())
    }

    /// Human-readable "where is my SYPD going?" table.
    pub fn render_table(&self) -> String {
        let ms = |us: u64| us as f64 / 1e3;
        let pct = |f: f64| f * 100.0;
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {:.1} ms across {} ranks (ends on rank {})\n",
            ms(self.total_us),
            self.n_ranks,
            self.end_rank
        ));
        out.push_str(&format!(
            "fractions: compute {:.1}%  comm {:.1}%  wait {:.1}%\n",
            pct(self.compute_frac()),
            pct(self.comm_frac()),
            pct(self.wait_frac()),
        ));
        out.push_str("\noptimization targets (ranked by on-path time):\n");
        out.push_str("  section            on-path      frac   wall(max)   ×0.5 gain\n");
        for s in self.sections.iter().take(12) {
            out.push_str(&format!(
                "  {:<18} {:>9.1} ms {:>5.1}%  {:>7.1} ms  {:>+6.1}%\n",
                s.name,
                ms(s.on_path_us()),
                pct(frac(s.on_path_us(), self.total_us)),
                s.wall_max_s * 1e3,
                s.what_if_half_gain_pct,
            ));
        }
        // Per-class totals are the sums of the blame cells; the top blame of
        // a class is its first cell (blame is ranked by wait time).
        let mut classes: BTreeMap<WaitClass, (u64, u64)> = BTreeMap::new();
        for b in &self.blame {
            let c = classes.entry(b.class).or_default();
            c.0 += b.count;
            c.1 += b.total_us;
        }
        if !classes.is_empty() {
            out.push_str("\nwait states (all ranks):\n");
            for (class, (count, total_us)) in classes {
                let top = self.blame.iter().find(|b| b.class == class).map(|b| {
                    format!("  top blame: rank {} ({:.1} ms)", b.rank, ms(b.total_us))
                });
                out.push_str(&format!(
                    "  {:<14} {:>5}×  {:>9.1} ms{}\n",
                    class.label(),
                    count,
                    ms(total_us),
                    top.unwrap_or_default(),
                ));
            }
        }
        if let Some(top) = self.sections.iter().find(|s| s.name == self.top_section) {
            let gain = top.what_if_half_gain_pct;
            out.push_str(&format!("\nwhat-if: halve {} → {gain:+.1}% speed", top.name));
            if self.sypd > 0.0 {
                let projected = self.sypd * (1.0 + gain / 100.0);
                out.push_str(&format!(" ({:.3} → {projected:.3} SYPD)", self.sypd));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Name;

    fn span(name: &str, ts: u64, dur: u64) -> Event {
        Event::span(Name::new(name), 1, ts, dur)
    }

    fn send(ts: u64, peer: usize, tag: u64, bytes: u64) -> Event {
        Event::msg(Kind::Send, ts, 0, peer, tag, bytes)
    }

    fn recv(ts: u64, dur: u64, peer: usize, tag: u64, bytes: u64) -> Event {
        Event::msg(Kind::Recv, ts, dur, peer, tag, bytes)
    }

    /// One rank's events: its spans, then its messages.
    fn rank(spans: Vec<Event>, comms: Vec<Event>) -> Vec<Event> {
        spans.into_iter().chain(comms).collect()
    }

    /// rank 1 computes 5 ms then sends; rank 0 blocks from 1 ms — the
    /// canonical late-sender shape.
    fn late_sender_world() -> Vec<Vec<Event>> {
        vec![
            rank(
                vec![span("atm_run", 0, 1_000), span("cpl_rearrange", 5_100, 900)],
                vec![recv(1_000, 4_100, 1, 7, 64)],
            ),
            rank(
                vec![span("ocn_run", 0, 5_000), span("cpl_rearrange", 5_000, 1_000)],
                vec![send(5_000, 0, 7, 64)],
            ),
        ]
    }

    /// Ring eviction can shift the FIFO match so a wait "pairs" with a
    /// send posted after the wait already ended. The walk must not ride
    /// that edge (it points forward in time) — the wait stays on-path and
    /// the analysis still closes without panicking.
    #[test]
    fn eviction_skewed_pair_stays_on_path() {
        let worlds = vec![
            rank(
                vec![span("atm_run", 0, 1_000), span("cpl_rearrange", 3_100, 900)],
                // The recv ends at 3000; the only surviving send on the
                // channel was posted at 9000 (the real partner evicted).
                vec![recv(1_000, 2_000, 1, 7, 64)],
            ),
            rank(
                vec![span("ocn_run", 0, 9_000)],
                vec![send(9_000, 0, 7, 64)],
            ),
        ];
        let a = Analyzer::new(&worlds).analyze();
        // Classified late-sender (send after recv start), but on-path as a
        // wait step, not a comm edge.
        assert_eq!(a.waits.len(), 1);
        assert_eq!(a.waits[0].class, WaitClass::LateSender);
        assert!(!a.steps.iter().any(|s| matches!(s.kind, StepKind::Comm)));
        let sum = a.compute_frac() + a.comm_frac() + a.wait_frac();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn late_sender_is_classified_and_blamed_on_the_source() {
        let a = Analyzer::new(&late_sender_world()).analyze();
        assert_eq!(a.waits.len(), 1);
        let w = &a.waits[0];
        assert_eq!(w.class, WaitClass::LateSender);
        assert_eq!(w.blamed, 1, "the delayed sender takes the blame");
        assert_eq!(w.rank, 0);
        assert_eq!(w.section, "atm_run");
        assert_eq!(a.blame[0].rank, 1);
    }

    /// A wait that begins after a gap is not billed to the section that
    /// ran last: a 4 ms wait 4 ms after a 1 ms `atm_run` is untracked.
    #[test]
    fn a_wait_after_a_gap_is_untracked() {
        let world = vec![rank(
            vec![span("atm_run", 0, 1_000)],
            vec![recv(5_000, 4_000, 1, 7, 64)],
        )];
        let a = Analyzer::new(&world).analyze();
        assert_eq!(a.waits[0].section, UNTRACKED);
        let row = |name: &str| a.sections.iter().find(|s| s.name == name).unwrap();
        assert_eq!(row("atm_run").on_path_wait_us, 0);
        assert_eq!(row(UNTRACKED).on_path_wait_us, 4_000);
    }

    #[test]
    fn late_sender_path_jumps_to_the_sender() {
        let a = Analyzer::new(&late_sender_world()).analyze();
        // Path: rank1 ocn_run [0,5000] → comm edge [5000,5100] → rank0
        // busy [5100,6000]. End rank is rank 0 (ends at 6000).
        assert_eq!(a.end_rank, 0);
        assert_eq!(a.total_us, 6_000);
        assert_eq!(a.comm_us, 100);
        assert_eq!(a.wait_us, 0, "the wait was the sender's fault, not on-path");
        assert_eq!(a.compute_us, 5_900);
        // Fractions are a partition of the path.
        let sum = a.compute_frac() + a.comm_frac() + a.wait_frac();
        assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
        // The sender's section dominates the target table.
        assert_eq!(a.top_section, "ocn_run");
        // Steps are chronological.
        let ts: Vec<u64> = a.steps.iter().map(|s| s.ts_us).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }

    #[test]
    fn late_receiver_wait_stays_on_path() {
        let world = vec![
            rank(
                vec![span("atm_run", 0, 1_000)],
                // Send already posted at 500; the 600 µs wait is arrival
                // lag on the receiver.
                vec![recv(1_000, 600, 1, 7, 64)],
            ),
            rank(
                vec![span("ocn_run", 0, 500)],
                vec![send(500, 0, 7, 64)],
            ),
        ];
        let a = Analyzer::new(&world).analyze();
        assert_eq!(a.waits[0].class, WaitClass::LateReceiver);
        assert_eq!(a.waits[0].blamed, 0, "lag is on the receiving side");
        assert_eq!(a.end_rank, 0);
        assert_eq!(a.wait_us, 600);
        assert_eq!(a.compute_us, 1_000);
        assert_eq!(a.total_us, 1_600);
    }

    #[test]
    fn collective_tag_waits_classify_as_collective() {
        let tag = 0xC0_0000_0000u64 + 0x7000 + 3; // sub-barrier block
        let world = vec![
            rank(
                vec![span("atm_run", 0, 200)],
                vec![recv(200, 900, 1, tag, 8)],
            ),
            rank(
                vec![span("ocn_run", 0, 1_100)],
                vec![send(1_100, 0, tag, 8)],
            ),
        ];
        let a = Analyzer::new(&world).analyze();
        assert_eq!(a.waits[0].class, WaitClass::Collective);
        assert_eq!(a.blame.len(), 1);
        assert_eq!(a.blame[0].class, WaitClass::Collective);
        assert_eq!(a.blame[0].total_us, 900);
        // A late-sender collective still rides the edge on-path.
        assert_eq!(a.comm_us, 0); // send at 1100 = delivery → zero-length edge
    }

    #[test]
    fn orphan_and_timeout_waits_classify() {
        let world = vec![rank(
            vec![span("atm_run", 0, 100)],
            vec![
                recv(100, 50, 1, 9, 0), // no matching send anywhere
                Event::msg(Kind::Timeout, 200, 300, 1, 9, 0),
            ],
        )];
        let a = Analyzer::new(&world).analyze();
        let classes: Vec<WaitClass> = a.waits.iter().map(|w| w.class).collect();
        assert_eq!(classes, vec![WaitClass::Orphan, WaitClass::Timeout]);
        assert_eq!(a.waits[0].blamed, 1);
        assert_eq!(a.waits[1].blamed, 1);
    }

    #[test]
    fn analysis_is_byte_deterministic() {
        let a = Analyzer::new(&late_sender_world()).with_sypd(1.5).analyze();
        let b = Analyzer::new(&late_sender_world()).with_sypd(1.5).analyze();
        assert_eq!(a, b);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        assert_eq!(a.render_table(), b.render_table());
    }

    /// Build a two-rank world where rank 0's atm_run dominates, with the
    /// given atm_run length, so the what-if projection can be checked
    /// against an *actually shrunk* rerun.
    fn scalable_world(atm_us: u64) -> Vec<Vec<Event>> {
        let recv_start = atm_us; // rank 0 receives right after atm_run
        vec![
            rank(
                vec![
                    span("atm_run", 0, atm_us),
                    span("cpl_rearrange", recv_start, 100),
                ],
                vec![recv(recv_start, 50, 1, 21, 1_024)],
            ),
            rank(
                vec![span("ocn_run", 0, 4_000)],
                vec![send(4_000, 0, 21, 1_024)],
            ),
        ]
    }

    #[test]
    fn what_if_projection_matches_an_actually_halved_run() {
        let analyzer = Analyzer::new(&scalable_world(10_000)).with_sypd(2.0);
        let projected = analyzer.what_if("atm_run", 0.5);
        assert!(projected.gain_pct > 0.0, "gain = {}", projected.gain_pct);
        assert!(projected.projected_sypd > 2.0);

        // Ground truth: a run whose atm_run really is half as long.
        let halved = Analyzer::new(&scalable_world(5_000));
        let truth = halved.what_if("", 1.0); // baseline solve of the halved run
        let rel_err =
            (projected.projected_us - truth.baseline_us).abs() / truth.baseline_us;
        assert!(
            rel_err < 0.05,
            "projected {} vs actual {} ({}% off)",
            projected.projected_us,
            truth.baseline_us,
            rel_err * 100.0
        );
    }

    #[test]
    fn what_if_of_off_path_section_gains_little() {
        let analyzer = Analyzer::new(&scalable_world(10_000));
        let on = analyzer.what_if("atm_run", 0.5).gain_pct;
        let off = analyzer.what_if("ocn_run", 0.5).gain_pct;
        assert!(on > 30.0, "on-path gain {on}");
        // ocn_run (4 ms) is fully hidden behind atm_run (10 ms).
        assert!(off.abs() < 1.0, "off-path gain {off}");
        let missing = analyzer.what_if("no_such_section", 0.5).gain_pct;
        assert!(missing.abs() < 1e-9);
    }

    #[test]
    fn roundtrips_through_a_chrome_trace() {
        // A ring out of time order and a receive that did not wait: the
        // snapshot reads as its rendered trace draws it.
        let mut world = late_sender_world();
        world[0].push(recv(6_000, 0, 1, 9, 8));
        world[1].push(send(5_900, 0, 9, 8));
        world[1].reverse();
        let direct = Analyzer::new(&world).analyze();
        let doc = Json::parse(&crate::trace::chrome_trace(&world)).unwrap();
        assert_eq!(Analyzer::from_chrome_trace(&doc).unwrap().analyze(), direct);
    }

    #[test]
    fn a_trailing_silent_rank_survives_the_trace() {
        let mut world = late_sender_world();
        world.push(Vec::new());
        let direct = Analyzer::new(&world).analyze();
        assert_eq!(direct.n_ranks, 3);
        let doc = Json::parse(&crate::trace::chrome_trace(&world)).unwrap();
        let offline = Analyzer::from_chrome_trace(&doc).unwrap().analyze();
        assert_eq!(offline, direct);
        assert_eq!(offline.to_json().to_string(), direct.to_json().to_string());
    }

    #[test]
    fn json_has_schema_and_consistent_fractions() {
        let a = Analyzer::new(&late_sender_world()).with_sypd(1.0).analyze();
        let doc = Json::parse(&a.to_json().to_string()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let fr = doc.get("fractions").unwrap();
        let sum = fr.get("compute").and_then(Json::as_f64).unwrap()
            + fr.get("comm").and_then(Json::as_f64).unwrap()
            + fr.get("wait").and_then(Json::as_f64).unwrap();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        let top = &doc.get("sections").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(top.get("name").and_then(Json::as_str), Some("ocn_run"));
        assert!(top.get("what_if_half_gain_pct").and_then(Json::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn empty_world_yields_an_empty_analysis() {
        let a = Analyzer::new(&[]).analyze();
        assert_eq!(a.total_us, 0);
        assert_eq!(a.compute_frac(), 0.0);
        assert!(a.steps.is_empty());
        assert!(a.top_section.is_empty());
        assert!(!a.render_table().contains("what-if"));
    }
}
