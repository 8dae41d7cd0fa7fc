//! The traced run's instrumentation, all on the benchmark's side of the
//! program's public API:
//!
//! * [`Traced`] forwards every [`PartialOrderIndex`] method to the
//!   wrapped index and counts and times each call (the `core` layer).
//! * [`span`] records a layer boundary (name, start, end, parent) in
//!   memory; [`write_jsonl`] writes them out at the end.
//!
//! A span's *self time* is its duration minus its child spans and minus
//! the index time spent inside it but outside those children. All state
//! is thread-local: the traced code runs on one thread.

use csst_core::{NodeId, PartialOrderIndex, PoError, Pos, ThreadId};
use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// Call counts and busy time of the index layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreCounters {
    pub update_calls: u64,
    pub update_ns: u64,
    pub query_calls: u64,
    pub query_probes: u64,
    pub query_ns: u64,
    pub delete_calls: u64,
    pub delete_ns: u64,
    pub batch_calls: u64,
    pub batch_probes: u64,
    pub memory_bytes_peak: u64,
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Index time accrued while the span was open.
    index_ns: u64,
    /// Summed durations of direct child spans.
    child_ns: u64,
    /// Summed `index_ns` of direct child spans.
    child_index_ns: u64,
}

impl Span {
    fn self_ns(&self) -> u64 {
        let dur = self.end_ns - self.start_ns;
        let own_index = self.index_ns - self.child_index_ns;
        dur.saturating_sub(self.child_ns + own_index)
    }
}

/// In-memory span log plus the index counters.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Every index nanosecond so far (for span self time).
    index_total: u64,
    core: CoreCounters,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
    /// Off during the untraced passes: spans cost nothing.
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            index_total: 0,
            core: CoreCounters::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Clears every span and counter.
pub fn reset() {
    REC.with(|r| *r.borrow_mut() = Recorder::new());
}

/// Runs `f` inside a span called `name`, nested under the open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let start_ns = r.now();
        let parent = r.stack.last().copied();
        let idx = r.spans.len();
        let index_ns = r.index_total;
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            index_ns,
            child_ns: 0,
            child_index_ns: 0,
        });
        r.stack.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.now();
        let index_total = r.index_total;
        r.stack.pop();
        let s = &mut r.spans[idx];
        s.end_ns = end_ns;
        s.index_ns = index_total - s.index_ns;
        let (dur, index, parent) = (end_ns - s.start_ns, s.index_ns, s.parent);
        if let Some(p) = parent {
            r.spans[p].child_ns += dur;
            r.spans[p].child_index_ns += index;
        }
    });
    out
}

/// Summed self time of every span called `name`, in ns.
pub fn self_ns(name: &str) -> u64 {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_ns)
            .sum()
    })
}

/// Summed duration of every span called `name`, in ns.
pub fn total_ns(name: &str) -> u64 {
    REC.with(|r| {
        r.borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    })
}

pub fn core() -> CoreCounters {
    REC.with(|r| r.borrow().core)
}

/// Writes the span log as JSON lines: one header line, then one line
/// per span.
pub fn write_jsonl(path: &std::path::Path, header: &str) -> std::io::Result<()> {
    REC.with(|r| {
        let r = r.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in r.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        out.flush()
    })
}

#[derive(Clone, Copy)]
enum Op {
    Update,
    Query(u64),
    Batch(u64),
    Delete,
}

/// Counts and times one index call.
fn core_call<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.index_total += ns;
        let c = &mut r.core;
        match op {
            Op::Update => {
                c.update_calls += 1;
                c.update_ns += ns;
            }
            Op::Query(probes) | Op::Batch(probes) => {
                c.query_calls += 1;
                c.query_probes += probes;
                c.query_ns += ns;
                if let Op::Batch(_) = op {
                    c.batch_calls += 1;
                    c.batch_probes += probes;
                }
            }
            Op::Delete => {
                c.delete_calls += 1;
                c.delete_ns += ns;
            }
        }
    });
    out
}

/// Sampling period of `memory_bytes` on the update path.
const MEMORY_SAMPLE_EVERY: u64 = 1024;

/// A forwarding [`PartialOrderIndex`] that counts and times every call,
/// including the provided methods representations override, so the
/// wrapped index runs exactly the code paths it runs unwrapped.
pub struct Traced<P> {
    inner: P,
    updates: u64,
}

impl<P: PartialOrderIndex> Traced<P> {
    fn wrap(inner: P) -> Self {
        Traced { inner, updates: 0 }
    }

    fn update<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let out = core_call(Op::Update, || f(&mut self.inner));
        self.updates += 1;
        if self.updates.is_multiple_of(MEMORY_SAMPLE_EVERY) {
            note_memory(self.inner.memory_bytes() as u64);
        }
        out
    }
}

/// Folds an index footprint into the traced peak.
pub fn note_memory(bytes: u64) {
    REC.with(|r| {
        let c = &mut r.borrow_mut().core;
        c.memory_bytes_peak = c.memory_bytes_peak.max(bytes);
    });
}

impl<P: PartialOrderIndex> PartialOrderIndex for Traced<P> {
    fn new() -> Self {
        Traced::wrap(P::new())
    }

    fn with_capacity(chains: usize, chain_capacity: usize) -> Self {
        Traced::wrap(P::with_capacity(chains, chain_capacity))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chains(&self) -> usize {
        self.inner.chains()
    }

    fn chain_len(&self, chain: ThreadId) -> usize {
        self.inner.chain_len(chain)
    }

    fn ensure_chain(&mut self, chain: ThreadId) {
        self.update(|p| p.ensure_chain(chain))
    }

    fn ensure_len(&mut self, chain: ThreadId, len: usize) {
        self.update(|p| p.ensure_len(chain, len))
    }

    fn append(&mut self, chain: impl Into<ThreadId>) -> NodeId {
        let chain = chain.into();
        self.update(|p| p.append(chain))
    }

    fn insert_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.update(|p| p.insert_edge(from, to))
    }

    fn insert_edges(&mut self, edges: &[(NodeId, NodeId)]) -> Result<(), PoError> {
        self.update(|p| p.insert_edges(edges))
    }

    fn delete_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        core_call(Op::Delete, || self.inner.delete_edge(from, to))
    }

    fn insert_edge_checked(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.update(|p| p.insert_edge_checked(from, to))
    }

    fn insert_edge_raw(&mut self, from: NodeId, to: NodeId) {
        self.update(|p| p.insert_edge_raw(from, to))
    }

    fn insert_edges_raw(&mut self, edges: &[(NodeId, NodeId)]) {
        self.update(|p| p.insert_edges_raw(edges))
    }

    fn delete_edge_raw(&mut self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        core_call(Op::Delete, || self.inner.delete_edge_raw(from, to))
    }

    fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        core_call(Op::Query(1), || self.inner.reachable(from, to))
    }

    fn successor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        core_call(Op::Query(1), || self.inner.successor(from, chain))
    }

    fn predecessor(&self, from: NodeId, chain: ThreadId) -> Option<Pos> {
        core_call(Op::Query(1), || self.inner.predecessor(from, chain))
    }

    fn reachable_batch(&self, probes: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        core_call(Op::Batch(probes.len() as u64), || {
            self.inner.reachable_batch(probes, out)
        })
    }

    fn successor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        core_call(Op::Batch(probes.len() as u64), || {
            self.inner.successor_batch(probes, out)
        })
    }

    fn predecessor_batch(&self, probes: &[(NodeId, ThreadId)], out: &mut Vec<Option<Pos>>) {
        core_call(Op::Batch(probes.len() as u64), || {
            self.inner.predecessor_batch(probes, out)
        })
    }

    fn supports_deletion(&self) -> bool {
        self.inner.supports_deletion()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn check_node(&self, node: NodeId) -> Result<(), PoError> {
        self.inner.check_node(node)
    }

    fn check_edge(&self, from: NodeId, to: NodeId) -> Result<(), PoError> {
        self.inner.check_edge(from, to)
    }
}
