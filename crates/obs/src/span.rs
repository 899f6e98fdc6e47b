//! Hierarchical span profiler.
//!
//! A [`Profiler`] owns a call tree of named spans. [`Profiler::enter`]
//! resolves (or creates) the child of the calling thread's current span and
//! returns an RAII [`SpanGuard`]; dropping the guard accumulates elapsed
//! wall time into the node with two relaxed atomic adds. Nesting is tracked
//! per thread, so each rank thread of a
//! [`World`](ap3esm_comm::World) builds its own branch structure while
//! sharing one tree, and concurrent guards never lose samples.
//!
//! When the profiler is disabled (or none is installed — see the crate
//! root), `enter` returns an inert guard after a single relaxed load: cheap
//! enough to leave instrumentation compiled into the dycore hot loops. A
//! warm enter/drop allocates nothing, traced or not.
//!
//! The profiler is also the rank's front end to the world's event log
//! ([`Profiler::attach`]): journal entries go there through
//! [`Profiler::mark`], and while [tracing](Profiler::set_tracing) every
//! completed span is recorded there too, by its interned name.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::event::{current_tid, trace_now_us, Event, EventLog, Kind, Name};

/// Sentinel parent id for top-level spans.
const ROOT: u32 = u32::MAX;

/// Per-node accumulators, shared between the tree and open guards so the
/// drop path never takes the tree lock.
struct NodeStats {
    total_ns: AtomicU64,
    count: AtomicU64,
}

struct Node {
    /// Interned once at creation: the id is what a span event carries.
    name: Name,
    name_str: &'static str,
    parent: u32,
    depth: usize,
    stats: Arc<NodeStats>,
    /// Children are created once and reused; there are few, so lookup by
    /// name is a scan (and allocates nothing).
    children: Vec<u32>,
}

#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    roots: Vec<u32>,
}

/// A thread-safe hierarchical profiler (one per rank in a coupled run).
pub struct Profiler {
    enabled: AtomicBool,
    /// Distinguishes profilers on the shared thread-local span stack.
    id: u64,
    tree: Mutex<Tree>,
    /// Whether completed spans are also recorded as events; checked with
    /// one relaxed load on the span path so non-traced runs pay nothing
    /// extra.
    tracing: AtomicBool,
    /// The event log this profiler records into, and as which rank.
    log: OnceLock<(Arc<EventLog>, usize)>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

thread_local! {
    /// Open spans of this thread: (profiler id, node id), innermost last.
    static STACK: std::cell::RefCell<Vec<(u64, u32)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn next_profiler_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn lock_tree(tree: &Mutex<Tree>) -> MutexGuard<'_, Tree> {
    tree.lock().unwrap_or_else(|p| p.into_inner())
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            enabled: AtomicBool::new(true),
            id: next_profiler_id(),
            tree: Mutex::new(Tree::default()),
            tracing: AtomicBool::new(false),
            log: OnceLock::new(),
        }
    }

    /// A profiler whose `enter` is a near-free no-op.
    pub fn disabled() -> Self {
        let p = Profiler::new();
        p.enabled.store(false, Ordering::Relaxed);
        p
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record into `log` as `rank` from now on (the first attachment wins;
    /// a profiler serves one rank of one world).
    pub fn attach(&self, log: Arc<EventLog>, rank: usize) {
        let _ = self.log.set((log, rank));
    }

    /// While on, every span that opens is also recorded in the attached log
    /// when it closes (nothing happens without one). This is the only gate
    /// on spans; the log's own switch gates messages and marks.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// Journal `kind` (fault injection, health verdict, rollback…) in the
    /// attached log; a no-op without one or while it is disabled.
    pub fn mark(&self, kind: Kind, name: &str, a: u64, b: u64) {
        if let Some((log, rank)) = self.log.get() {
            log.mark(*rank, kind, name, a, b);
        }
    }

    /// Opens the span `name` under the calling thread's current span of
    /// this profiler (a root span when the thread has none open).
    pub fn enter(&self, name: &str) -> SpanGuard {
        if !self.enabled.load(Ordering::Relaxed) {
            return SpanGuard::inactive();
        }
        let parent = STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(pid, _)| *pid == self.id)
                .map(|&(_, node)| node)
                .unwrap_or(ROOT)
        });
        let (node, interned, stats) = {
            let mut tree = lock_tree(&self.tree);
            let siblings = match parent {
                ROOT => &tree.roots,
                p => &tree.nodes[p as usize].children,
            };
            let found = siblings
                .iter()
                .copied()
                .find(|&id| tree.nodes[id as usize].name_str == name);
            let id = found.unwrap_or_else(|| tree.add_child(parent, name));
            let node = &tree.nodes[id as usize];
            (id, node.name, Arc::clone(&node.stats))
        };
        STACK.with(|s| s.borrow_mut().push((self.id, node)));
        let trace = match self.log.get() {
            Some((log, rank)) if self.tracing.load(Ordering::Relaxed) => {
                Some((Arc::clone(log), *rank, interned, trace_now_us()))
            }
            _ => None,
        };
        SpanGuard {
            open: Some(OpenSpan {
                profiler_id: self.id,
                node,
                stats,
                t0: Instant::now(),
                trace,
            }),
        }
    }

    /// Calls `f(name, total_s)` for every root span in creation order, with
    /// the `total_s` a [`snapshot`](Profiler::snapshot) taken now would
    /// carry. Allocates nothing; `f` runs under the tree lock and must not
    /// open spans.
    pub fn for_each_root(&self, mut f: impl FnMut(&'static str, f64)) {
        let tree = lock_tree(&self.tree);
        for &id in &tree.roots {
            let node = &tree.nodes[id as usize];
            let total_ns = node.stats.total_ns.load(Ordering::Relaxed);
            f(node.name_str, total_ns as f64 * 1e-9);
        }
    }

    /// Preorder snapshot of the span tree (children in creation order).
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        let tree = lock_tree(&self.tree);
        let n = tree.nodes.len();
        let mut out = Vec::with_capacity(n);
        let mut stack: Vec<u32> = tree.roots.iter().rev().copied().collect();
        let mut paths: Vec<String> = vec![String::new(); n];
        while let Some(id) = stack.pop() {
            let node = &tree.nodes[id as usize];
            let path = if node.parent == ROOT {
                node.name_str.to_string()
            } else {
                format!("{}/{}", paths[node.parent as usize], node.name_str)
            };
            paths[id as usize] = path.clone();
            let total_ns = node.stats.total_ns.load(Ordering::Relaxed);
            let child_ns: u64 = node
                .children
                .iter()
                .map(|&c| {
                    tree.nodes[c as usize]
                        .stats
                        .total_ns
                        .load(Ordering::Relaxed)
                })
                .sum();
            out.push(SpanSnapshot {
                path,
                name: node.name_str.to_string(),
                depth: node.depth,
                total_s: total_ns as f64 * 1e-9,
                self_s: total_ns.saturating_sub(child_ns) as f64 * 1e-9,
                count: node.stats.count.load(Ordering::Relaxed),
            });
            stack.extend(node.children.iter().rev());
        }
        out
    }
}

impl Tree {
    fn add_child(&mut self, parent: u32, name: &str) -> u32 {
        let id = self.nodes.len() as u32;
        let depth = match parent {
            ROOT => 0,
            p => self.nodes[p as usize].depth + 1,
        };
        let interned = Name::new(name);
        self.nodes.push(Node {
            name: interned,
            name_str: interned.as_str(),
            parent,
            depth,
            stats: Arc::new(NodeStats {
                total_ns: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
            children: Vec::new(),
        });
        match parent {
            ROOT => self.roots.push(id),
            p => self.nodes[p as usize].children.push(id),
        }
        id
    }
}

struct OpenSpan {
    profiler_id: u64,
    node: u32,
    stats: Arc<NodeStats>,
    t0: Instant,
    /// `(log, rank, span name, enter timestamp µs)` when tracing is active.
    trace: Option<(Arc<EventLog>, usize, Name, u64)>,
}

/// RAII handle for an open span; accumulates on drop.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    /// The guard returned when profiling is off: dropping it does nothing.
    pub fn inactive() -> Self {
        SpanGuard { open: None }
    }

    /// Seconds since the span opened (0 for an inactive guard): what it
    /// would add to its node's total if it closed now.
    pub fn elapsed_s(&self) -> f64 {
        self.open.as_ref().map_or(0.0, |o| o.t0.elapsed().as_secs_f64())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let elapsed = open.t0.elapsed().as_nanos() as u64;
        open.stats.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        open.stats.count.fetch_add(1, Ordering::Relaxed);
        // A span traced when it opened is recorded when it closes, whatever
        // happened to the gates in between: a timeline with children but not
        // the parent that was still open reads as a different program.
        if let Some((log, rank, name, ts_us)) = &open.trace {
            let span = Event::span(*name, current_tid(), *ts_us, elapsed / 1_000);
            log.record(*rank, span);
        }
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop innermost-first; tolerate out-of-order
            // drops by removing the last matching entry.
            if let Some(pos) = stack
                .iter()
                .rposition(|&(pid, node)| pid == open.profiler_id && node == open.node)
            {
                stack.remove(pos);
            }
        });
    }
}

/// One node of a [`Profiler::snapshot`], in preorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Slash-joined path from the root, e.g. `atm_run/dycore/dyn_substeps`.
    pub path: String,
    pub name: String,
    pub depth: usize,
    /// Wall seconds inside this span (children included).
    pub total_s: f64,
    /// Wall seconds not attributed to any child span.
    pub self_s: f64,
    /// Completed enters.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn builds_parent_child_tree_with_self_time() {
        let p = Profiler::new();
        {
            let _a = p.enter("a");
            spin(2_000);
            {
                let _b = p.enter("b");
                spin(2_000);
            }
            {
                let _b = p.enter("b");
                spin(2_000);
            }
        }
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        let a = &snap[0];
        let b = &snap[1];
        assert_eq!(a.path, "a");
        assert_eq!((a.depth, a.count), (0, 1));
        assert_eq!(b.path, "a/b");
        assert_eq!((b.depth, b.count), (1, 2));
        assert!(a.total_s >= b.total_s);
        assert!(b.total_s >= 0.004);
        // Self time excludes the children: roughly the 2 ms spent in `a`.
        assert!(a.self_s >= 0.002 - 1e-4);
        assert!(a.self_s <= a.total_s - b.total_s + 1e-4);
    }

    #[test]
    fn roots_are_the_depth_zero_rows_of_the_snapshot() {
        let p = Profiler::new();
        for name in ["b", "a", "b"] {
            let _root = p.enter(name);
            let _child = p.enter("a");
            spin(200);
        }
        let mut roots = Vec::new();
        p.for_each_root(|name, total_s| roots.push((name.to_string(), total_s.to_bits())));
        let rows: Vec<(String, u64)> = p
            .snapshot()
            .into_iter()
            .filter(|s| s.depth == 0)
            .map(|s| (s.path, s.total_s.to_bits()))
            .collect();
        assert_eq!(roots, rows);
        assert_eq!(roots.len(), 2); // creation order: b, a
        assert_eq!((roots[0].0.as_str(), roots[1].0.as_str()), ("b", "a"));
    }

    #[test]
    fn same_name_under_different_parents_are_distinct_nodes() {
        let p = Profiler::new();
        {
            let _x = p.enter("x");
            let _h = p.enter("halo");
        }
        {
            let _y = p.enter("y");
            let _h = p.enter("halo");
        }
        let paths: Vec<String> = p.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(paths, vec!["x", "x/halo", "y", "y/halo"]);
    }

    #[test]
    fn reentrant_same_name_nests_instead_of_aborting() {
        let p = Profiler::new();
        {
            let _outer = p.enter("solve");
            let _inner = p.enter("solve"); // recursion must not panic
        }
        let snap = p.snapshot();
        assert_eq!(snap[0].path, "solve");
        assert_eq!(snap[1].path, "solve/solve");
        assert_eq!(snap[0].count, 1);
        assert_eq!(snap[1].count, 1);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        {
            let _g = p.enter("ghost");
        }
        assert!(p.snapshot().is_empty());
        p.set_enabled(true);
        {
            let _g = p.enter("real");
        }
        assert_eq!(p.snapshot().len(), 1);
    }

    #[test]
    fn concurrent_threads_share_one_tree_without_losing_samples() {
        let p = Arc::new(Profiler::new());
        let threads = 8;
        let iters = 200;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..iters {
                        let _a = p.enter("work");
                        let _b = p.enter("leaf");
                    }
                });
            }
        });
        let snap = p.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].path, "work");
        assert_eq!(snap[0].count, (threads * iters) as u64);
        assert_eq!(snap[1].path, "work/leaf");
        assert_eq!(snap[1].count, (threads * iters) as u64);
    }

    #[test]
    fn attached_log_sees_traced_spans_and_marks() {
        let p = Profiler::new();
        let log = Arc::new(EventLog::with_capacity(2, 64, 64));
        log.set_enabled(true);
        p.mark(Kind::Fault, "fault.early", 0, 0); // nowhere to go yet
        p.attach(Arc::clone(&log), 1);
        {
            let _u = p.enter("untraced"); // attached, but not tracing
        }
        p.set_tracing(true);
        {
            let _a = p.enter("a");
            spin(1_000);
        }
        p.mark(Kind::Fault, "fault.kill", 3, 0);
        let still_open = p.enter("c");
        p.set_tracing(false);
        log.set_enabled(false);
        {
            let _b = p.enter("b"); // not traced once tracing is off
        }
        p.mark(Kind::Fault, "fault.late", 0, 0); // the log is off
        drop(still_open); // opened traced: closes traced
        let snap = log.snapshot();
        assert!(snap[0].is_empty());
        assert_eq!(log.evicted(1), 0);
        let names: Vec<&str> = snap[1].iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "fault.kill"]);
        assert_eq!(snap[1][0].kind, Kind::Span);
        assert!(snap[1][0].dur_us >= 1_000);
        assert_eq!((snap[1][2].kind, snap[1][2].a), (Kind::Fault, 3));
        assert_eq!(snap[1][0].tid, snap[1][2].tid);
        assert_eq!(p.snapshot().len(), 4); // the tree records every span
    }

    #[test]
    fn two_profilers_on_one_thread_stay_independent() {
        let p = Profiler::new();
        let q = Profiler::new();
        {
            let _a = p.enter("p_outer");
            let _b = q.enter("q_outer");
            let _c = p.enter("p_inner"); // parent must be p_outer, not q_outer
        }
        let pp: Vec<String> = p.snapshot().into_iter().map(|s| s.path).collect();
        let qq: Vec<String> = q.snapshot().into_iter().map(|s| s.path).collect();
        assert_eq!(pp, vec!["p_outer", "p_outer/p_inner"]);
        assert_eq!(qq, vec!["q_outer"]);
    }
}
