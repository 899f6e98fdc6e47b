//! Deterministic fault injection for resilience testing.
//!
//! Production AP3ESM runs on 100k+ nodes survive node loss, corrupted
//! restart sub-files, and transient interconnect hiccups; this module lets
//! the reproduction *rehearse* those failures deterministically. A
//! [`FaultPlan`] is a seeded list of events:
//!
//! * **message faults** — drop, delay, or duplicate the n-th message on a
//!   `(src, dst, tag)` stream, applied by the [`World`](crate::World) send
//!   path when an injector is installed;
//! * **rank kills** — declare a rank's state lost at a given coupled step,
//!   consumed by the driver (the thread survives; its model state is
//!   poisoned, simulating a node replacement);
//! * **checkpoint corruption** — flip a byte of a named checkpoint
//!   sub-file after it is written, exercising the CRC-verified recovery
//!   fallback path.
//!
//! Determinism: message events count matches **per concrete
//! `(src, dst, tag)` stream**. Within one stream the sender's program order
//! is total, so "the 3rd message from 0 to 1 under tag 21" identifies the
//! same payload in every run regardless of thread scheduling. Wildcard
//! selectors fire on the n-th message of *every* matching stream.
//!
//! The hook is zero-cost when disabled: a `World` without an injector pays
//! a single `Option` check per send and nothing per receive.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;

/// What happens to a message selected by a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// The message is never enqueued (simulated loss).
    Drop,
    /// Delivery is delayed by the given number of milliseconds.
    Delay { ms: u64 },
    /// The message is enqueued twice (simulated retransmit duplication).
    Duplicate,
}

/// Selects messages on `(src, dst, tag)` streams; `None` = wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSelector {
    pub src: Option<usize>,
    pub dst: Option<usize>,
    pub tag: Option<u64>,
    /// 1-based index of the message to hit within each matching stream.
    pub nth: u64,
}

impl MsgSelector {
    fn matches(&self, src: usize, dst: usize, tag: u64) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.tag.is_none_or(|t| t == tag)
    }
}

/// One planned fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Apply `fault` to the message matched by `sel`.
    Message { sel: MsgSelector, fault: MsgFault },
    /// Rank `rank` loses its state at driver step `at_step` (the driver
    /// defines the step unit; the coupled driver counts ocean couplings).
    KillRank { rank: usize, at_step: u64 },
    /// Rank `rank` dies *permanently* at driver step `at_step`: the thread
    /// stops participating entirely (vs. [`FaultEvent::KillRank`], which
    /// only loses state and stays reachable). Survivors must shrink.
    DieRank { rank: usize, at_step: u64 },
    /// After checkpoint `ckpt` is written, XOR-flip the byte at `byte`
    /// (modulo file length) of sub-file `subfile` of field `field`.
    CorruptCheckpoint {
        ckpt: u64,
        field: String,
        subfile: u32,
        byte: u64,
    },
}

/// A seeded, ordered fault plan.
///
/// Equality compares `(seed, events)` only — the source line numbers kept
/// for diagnostics do not make two otherwise-identical plans different.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub events: Vec<FaultEvent>,
    /// 1-based source line of each event (parallel to `events`; empty for
    /// programmatically built plans). Lets [`FaultPlan::validate`] point at
    /// the offending line instead of silently ignoring unmatched rules.
    pub event_lines: Vec<usize>,
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed && self.events == other.events
    }
}

/// Parse failure for the fault-plan text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PlanParseError {}

fn parse_kv(tok: &str, line: usize) -> Result<(&str, &str), PlanParseError> {
    tok.split_once('=').ok_or_else(|| PlanParseError {
        line,
        message: format!("expected key=value, got {tok:?}"),
    })
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str, line: usize) -> Result<T, PlanParseError> {
    v.parse().map_err(|_| PlanParseError {
        line,
        message: format!("bad numeric value for {key}: {v:?}"),
    })
}

fn parse_opt_num<T: std::str::FromStr>(
    key: &str,
    v: &str,
    line: usize,
) -> Result<Option<T>, PlanParseError> {
    if v == "*" {
        Ok(None)
    } else {
        parse_num(key, v, line).map(Some)
    }
}

impl FaultPlan {
    /// Parse the line-based plan format. One event per line; `#` comments
    /// and blank lines are ignored:
    ///
    /// ```text
    /// seed 42
    /// drop src=0 dst=1 tag=21 nth=2
    /// delay src=* dst=3 tag=* nth=1 ms=50
    /// dup src=1 dst=0 tag=22 nth=1
    /// kill rank=2 step=3
    /// die rank=2 step=3
    /// corrupt ckpt=1 field=atm_theta subfile=0 byte=100
    /// ```
    ///
    /// Exact duplicate events are rejected at parse time (the second entry
    /// would silently re-arm a one-shot fault — always a plan bug), with
    /// the line number of both occurrences in the error.
    pub fn parse(text: &str) -> Result<Self, PlanParseError> {
        let mut plan = FaultPlan::default();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut event: Option<FaultEvent> = None;
            let mut toks = line.split_whitespace();
            let verb = toks.next().expect("non-empty line has a first token");
            match verb {
                "seed" => {
                    let v = toks.next().ok_or_else(|| PlanParseError {
                        line: lineno,
                        message: "seed needs a value".into(),
                    })?;
                    plan.seed = parse_num("seed", v, lineno)?;
                }
                "drop" | "delay" | "dup" => {
                    let mut sel = MsgSelector {
                        src: None,
                        dst: None,
                        tag: None,
                        nth: 1,
                    };
                    let mut ms = 10u64;
                    for tok in toks {
                        let (k, v) = parse_kv(tok, lineno)?;
                        match k {
                            "src" => sel.src = parse_opt_num("src", v, lineno)?,
                            "dst" => sel.dst = parse_opt_num("dst", v, lineno)?,
                            "tag" => sel.tag = parse_opt_num("tag", v, lineno)?,
                            "nth" => sel.nth = parse_num("nth", v, lineno)?,
                            "ms" if verb == "delay" => ms = parse_num("ms", v, lineno)?,
                            _ => {
                                return Err(PlanParseError {
                                    line: lineno,
                                    message: format!("unknown key {k:?} for {verb}"),
                                })
                            }
                        }
                    }
                    if sel.nth == 0 {
                        return Err(PlanParseError {
                            line: lineno,
                            message: "nth is 1-based; 0 is invalid".into(),
                        });
                    }
                    let fault = match verb {
                        "drop" => MsgFault::Drop,
                        "delay" => MsgFault::Delay { ms },
                        _ => MsgFault::Duplicate,
                    };
                    event = Some(FaultEvent::Message { sel, fault });
                }
                "kill" | "die" => {
                    let (mut rank, mut step) = (None, None);
                    for tok in toks {
                        let (k, v) = parse_kv(tok, lineno)?;
                        match k {
                            "rank" => rank = Some(parse_num("rank", v, lineno)?),
                            "step" => step = Some(parse_num("step", v, lineno)?),
                            _ => {
                                return Err(PlanParseError {
                                    line: lineno,
                                    message: format!("unknown key {k:?} for {verb}"),
                                })
                            }
                        }
                    }
                    match (rank, step) {
                        (Some(rank), Some(at_step)) if verb == "kill" => {
                            event = Some(FaultEvent::KillRank { rank, at_step })
                        }
                        (Some(rank), Some(at_step)) => {
                            event = Some(FaultEvent::DieRank { rank, at_step })
                        }
                        _ => {
                            return Err(PlanParseError {
                                line: lineno,
                                message: format!("{verb} needs rank= and step="),
                            })
                        }
                    }
                }
                "corrupt" => {
                    let (mut ckpt, mut field, mut subfile, mut byte) = (None, None, 0u32, 0u64);
                    for tok in toks {
                        let (k, v) = parse_kv(tok, lineno)?;
                        match k {
                            "ckpt" => ckpt = Some(parse_num("ckpt", v, lineno)?),
                            "field" => field = Some(v.to_string()),
                            "subfile" => subfile = parse_num("subfile", v, lineno)?,
                            "byte" => byte = parse_num("byte", v, lineno)?,
                            _ => {
                                return Err(PlanParseError {
                                    line: lineno,
                                    message: format!("unknown key {k:?} for corrupt"),
                                })
                            }
                        }
                    }
                    match (ckpt, field) {
                        (Some(ckpt), Some(field)) => {
                            event = Some(FaultEvent::CorruptCheckpoint {
                                ckpt,
                                field,
                                subfile,
                                byte,
                            })
                        }
                        _ => {
                            return Err(PlanParseError {
                                line: lineno,
                                message: "corrupt needs ckpt= and field=".into(),
                            })
                        }
                    }
                }
                other => {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!("unknown event {other:?}"),
                    })
                }
            }
            if let Some(ev) = event {
                if let Some(prev) = plan.events.iter().position(|e| *e == ev) {
                    return Err(PlanParseError {
                        line: lineno,
                        message: format!(
                            "duplicate of line {}: an identical event can never fire as planned",
                            plan.event_lines.get(prev).copied().unwrap_or(0)
                        ),
                    });
                }
                plan.events.push(ev);
                plan.event_lines.push(lineno);
            }
        }
        Ok(plan)
    }

    /// Check the plan against a concrete world: kills/dies targeting
    /// out-of-range ranks and message selectors naming ranks the world does
    /// not have are rejected with the offending source line, instead of
    /// silently never matching at run time. `die rank=0` is rejected too —
    /// rank 0 coordinates the membership agreement, so its permanent loss
    /// cannot be survived.
    pub fn validate(&self, world_size: usize) -> Result<(), PlanParseError> {
        let line_of = |i: usize| self.event_lines.get(i).copied().unwrap_or(0);
        for (i, e) in self.events.iter().enumerate() {
            let bad_rank = |what: &str, rank: usize| PlanParseError {
                line: line_of(i),
                message: format!(
                    "{what} targets rank {rank} but the world has ranks 0..{world_size}"
                ),
            };
            match e {
                FaultEvent::KillRank { rank, .. } if *rank >= world_size => {
                    return Err(bad_rank("kill", *rank));
                }
                FaultEvent::DieRank { rank, .. } if *rank >= world_size => {
                    return Err(bad_rank("die", *rank));
                }
                FaultEvent::DieRank { rank: 0, .. } => {
                    return Err(PlanParseError {
                        line: line_of(i),
                        message: "die cannot target rank 0: it coordinates the \
                                  membership agreement"
                            .into(),
                    });
                }
                FaultEvent::Message { sel, .. } => {
                    if let Some(src) = sel.src.filter(|&s| s >= world_size) {
                        return Err(bad_rank("message src", src));
                    }
                    if let Some(dst) = sel.dst.filter(|&d| d >= world_size) {
                        return Err(bad_rank("message dst", dst));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Kill events as `(rank, at_step)` pairs.
    pub fn kills(&self) -> Vec<(usize, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::KillRank { rank, at_step } => Some((*rank, *at_step)),
                _ => None,
            })
            .collect()
    }

    /// Permanent-death events as `(rank, at_step)` pairs.
    pub fn dies(&self) -> Vec<(usize, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::DieRank { rank, at_step } => Some((*rank, *at_step)),
                _ => None,
            })
            .collect()
    }

    /// Corruption events targeting checkpoint `ckpt`.
    pub fn corruptions_for(&self, ckpt: u64) -> Vec<(&str, u32, u64)> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::CorruptCheckpoint {
                    ckpt: c,
                    field,
                    subfile,
                    byte,
                } if *c == ckpt => Some((field.as_str(), *subfile, *byte)),
                _ => None,
            })
            .collect()
    }

    /// True if the plan contains any message-level events (only then does
    /// a [`FaultInjector`] need to be installed on the `World`).
    pub fn has_message_events(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::Message { .. }))
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {}", self.seed)?;
        let part = |v: Option<u64>| match v {
            Some(x) => x.to_string(),
            None => "*".to_string(),
        };
        for e in &self.events {
            match e {
                FaultEvent::Message { sel, fault } => {
                    let head = match fault {
                        MsgFault::Drop => "drop".to_string(),
                        MsgFault::Delay { ms } => format!("delay ms={ms}"),
                        MsgFault::Duplicate => "dup".to_string(),
                    };
                    // keep ms after the verb but before selectors for Delay
                    let (verb, extra) = match head.split_once(' ') {
                        Some((v, rest)) => (v.to_string(), format!(" {rest}")),
                        None => (head, String::new()),
                    };
                    writeln!(
                        f,
                        "{verb} src={} dst={} tag={} nth={}{extra}",
                        part(sel.src.map(|v| v as u64)),
                        part(sel.dst.map(|v| v as u64)),
                        part(sel.tag),
                        sel.nth,
                    )?;
                }
                FaultEvent::KillRank { rank, at_step } => {
                    writeln!(f, "kill rank={rank} step={at_step}")?;
                }
                FaultEvent::DieRank { rank, at_step } => {
                    writeln!(f, "die rank={rank} step={at_step}")?;
                }
                FaultEvent::CorruptCheckpoint {
                    ckpt,
                    field,
                    subfile,
                    byte,
                } => {
                    writeln!(f, "corrupt ckpt={ckpt} field={field} subfile={subfile} byte={byte}")?;
                }
            }
        }
        Ok(())
    }
}

/// A record of one fault that actually fired (for run reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    pub description: String,
}

struct MessageRule {
    sel: MsgSelector,
    fault: MsgFault,
    /// Per concrete `(src, dst, tag)` stream match counts.
    counts: Mutex<HashMap<(usize, usize, u64), u64>>,
}

/// Runtime state applying a [`FaultPlan`]'s message events inside a
/// `World`'s send path. Kill/corrupt events are consumed by the driver via
/// the plan itself; the injector tracks one-shot kill flags so a kill fires
/// exactly once even across rollback/replay.
pub struct FaultInjector {
    plan: FaultPlan,
    rules: Vec<MessageRule>,
    kill_fired: Vec<(usize, u64, AtomicBool)>,
    die_fired: Vec<(usize, u64, AtomicBool)>,
    fired: Mutex<Vec<FiredFault>>,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let rules = plan
            .events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Message { sel, fault } => Some(MessageRule {
                    sel: *sel,
                    fault: *fault,
                    counts: Mutex::new(HashMap::new()),
                }),
                _ => None,
            })
            .collect();
        let kill_fired = plan
            .kills()
            .into_iter()
            .map(|(r, s)| (r, s, AtomicBool::new(false)))
            .collect();
        let die_fired = plan
            .dies()
            .into_iter()
            .map(|(r, s)| (r, s, AtomicBool::new(false)))
            .collect();
        FaultInjector {
            plan,
            rules,
            kill_fired,
            die_fired,
            fired: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Consult the plan for a message about to be sent. Counts the message
    /// against every matching rule and returns the first rule whose `nth`
    /// is hit (one fault per message).
    pub fn on_send(&self, src: usize, dst: usize, tag: u64) -> Option<MsgFault> {
        let mut hit = None;
        for rule in &self.rules {
            if !rule.sel.matches(src, dst, tag) {
                continue;
            }
            let mut counts = rule.counts.lock();
            let n = counts.entry((src, dst, tag)).or_insert(0);
            *n += 1;
            if *n == rule.sel.nth && hit.is_none() {
                hit = Some(rule.fault);
            }
        }
        if let Some(fault) = hit {
            self.record(format!(
                "msg fault {fault:?} on {src}->{dst} tag {tag:#x}"
            ));
        }
        hit
    }

    /// One-shot check: does `rank` lose its state at `step`? Returns true
    /// exactly once per matching kill event.
    pub fn take_kill(&self, rank: usize, step: u64) -> bool {
        for (r, s, done) in &self.kill_fired {
            if *r == rank
                && *s == step
                && done
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.record(format!("rank {rank} killed at step {step}"));
                return true;
            }
        }
        false
    }

    /// One-shot check: does `rank` die *permanently* at `step`? Returns true
    /// exactly once per matching die event — unlike a kill, the fired flag
    /// never re-arms across rollback/replay, because a dead rank stays dead.
    pub fn take_die(&self, rank: usize, step: u64) -> bool {
        for (r, s, done) in &self.die_fired {
            if *r == rank
                && *s == step
                && done
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                self.record(format!("rank {rank} died permanently at step {step}"));
                return true;
            }
        }
        false
    }

    fn record(&self, description: String) {
        self.fired.lock().push(FiredFault { description });
    }

    /// Externally observed faults (e.g. a corruption applied by the
    /// driver) are logged here too so the run report sees one stream.
    pub fn record_external(&self, description: impl Into<String>) {
        self.record(description.into());
    }

    /// Everything that fired so far, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let text = "\
# rehearsal plan
seed 42
drop src=0 dst=1 tag=21 nth=2
delay src=* dst=3 tag=* nth=1 ms=50
dup src=1 dst=0 tag=22 nth=1
kill rank=2 step=3
corrupt ckpt=1 field=atm_theta subfile=0 byte=100
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.events.len(), 5);
        assert_eq!(plan.kills(), vec![(2, 3)]);
        assert_eq!(plan.corruptions_for(1), vec![("atm_theta", 0, 100)]);
        assert!(plan.corruptions_for(0).is_empty());
        assert!(plan.has_message_events());
        // Display → parse is the identity.
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "frobnicate rank=1",
            "drop src=zero dst=1 tag=1 nth=1",
            "drop src=0 dst=1 tag=1 nth=0",
            "kill rank=1",
            "corrupt ckpt=1",
            "seed",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert_eq!(err.line, 1, "{bad}");
        }
    }

    #[test]
    fn injector_counts_per_stream() {
        let plan = FaultPlan::parse("drop src=0 dst=1 tag=7 nth=2").unwrap();
        let inj = FaultInjector::new(plan);
        // Other streams never trip the rule.
        assert_eq!(inj.on_send(0, 2, 7), None);
        assert_eq!(inj.on_send(1, 0, 7), None);
        // First matching message passes, second is dropped, third passes.
        assert_eq!(inj.on_send(0, 1, 7), None);
        assert_eq!(inj.on_send(0, 1, 7), Some(MsgFault::Drop));
        assert_eq!(inj.on_send(0, 1, 7), None);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn wildcard_selector_fires_per_stream() {
        let plan = FaultPlan::parse("delay src=* dst=* tag=* nth=1 ms=5").unwrap();
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.on_send(0, 1, 1), Some(MsgFault::Delay { ms: 5 }));
        assert_eq!(inj.on_send(0, 1, 1), None); // same stream: already fired
        assert_eq!(inj.on_send(2, 3, 9), Some(MsgFault::Delay { ms: 5 }));
    }

    #[test]
    fn kill_is_one_shot() {
        let plan = FaultPlan::parse("kill rank=2 step=3").unwrap();
        let inj = FaultInjector::new(plan);
        assert!(!inj.take_kill(2, 2));
        assert!(!inj.take_kill(1, 3));
        assert!(inj.take_kill(2, 3));
        assert!(!inj.take_kill(2, 3), "kill must fire exactly once");
    }

    #[test]
    fn die_parses_roundtrips_and_is_one_shot() {
        let plan = FaultPlan::parse("die rank=2 step=3\nkill rank=2 step=3").unwrap();
        assert_eq!(plan.dies(), vec![(2, 3)]);
        assert_eq!(plan.kills(), vec![(2, 3)]);
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, again);
        let inj = FaultInjector::new(plan);
        assert!(!inj.take_die(2, 2));
        assert!(!inj.take_die(1, 3));
        assert!(inj.take_die(2, 3));
        assert!(!inj.take_die(2, 3), "die must fire exactly once");
    }

    #[test]
    fn duplicate_events_are_rejected_with_both_lines() {
        let err = FaultPlan::parse(
            "kill rank=2 step=3\n# comment\nkill rank=2 step=3",
        )
        .unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("line 1"), "{}", err.message);
        // Same rank at a different step is two distinct events, not a dup.
        assert!(FaultPlan::parse("kill rank=2 step=3\nkill rank=2 step=5").is_ok());
    }

    #[test]
    fn validate_points_at_the_offending_line() {
        let plan = FaultPlan::parse(
            "drop src=0 dst=1 tag=7 nth=1\nkill rank=2 step=3\ndie rank=3 step=4",
        )
        .unwrap();
        assert!(plan.validate(4).is_ok());
        // die rank=3 is out of range in a 3-rank world → line 3.
        let err = plan.validate(3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("rank 3"), "{}", err.message);
        // kill rank=2 is out of range in a 2-rank world → line 2.
        assert_eq!(plan.validate(2).unwrap_err().line, 2);
        // Selector naming rank 1 is out of range in a 1-rank world → line 1.
        assert_eq!(plan.validate(1).unwrap_err().line, 1);
        // Dying rank 0 is never survivable.
        let p0 = FaultPlan::parse("die rank=0 step=1").unwrap();
        let err = p0.validate(4).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("rank 0"), "{}", err.message);
    }
}
