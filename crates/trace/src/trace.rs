//! The trace container and its derived views.

use crate::event::{Event, EventKind, LockId, VarId};
use csst_core::{NodeId, ThreadId};
use std::collections::HashMap;

/// Exclusive upper bound on event thread ids every trace decoder
/// accepts: the chain count every partial-order index can address
/// ([`csst_core::MAX_CHAINS`]). A thread id sizes the trace's thread
/// table ([`Trace::push`] grows it to `id + 1` chains) and names an
/// index chain, so a corrupt or hostile id must be rejected at decode
/// time, with a position, rather than turn into a multi-gigabyte
/// allocation or an index panic.
pub const MAX_THREADS: usize = csst_core::MAX_CHAINS;

/// A concurrent execution trace: per-thread event chains plus the
/// observed total order.
///
/// Events are addressed by [`NodeId`]: thread and position within the
/// thread's chain — exactly the `⟨t, i⟩` identifiers CSSTs operate on.
///
/// ```
/// use csst_trace::{Trace, EventKind, VarId};
///
/// let mut trace = Trace::new(2);
/// let w = trace.push(0, EventKind::Write { var: VarId(0), value: 1 });
/// let r = trace.push(1, EventKind::Read { var: VarId(0), value: 1 });
/// assert_eq!(trace.total_events(), 2);
/// assert_eq!(trace.reads_from().get(&r), Some(&w));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    threads: Vec<Vec<Event>>,
    /// Observed total order of the execution.
    order: Vec<NodeId>,
}

impl Trace {
    /// Creates an empty trace with `threads` (possibly still empty)
    /// thread chains.
    pub fn new(threads: usize) -> Self {
        Trace {
            threads: vec![Vec::new(); threads],
            order: Vec::new(),
        }
    }

    /// Appends an event to thread `t` (growing the thread table if
    /// needed) and to the observed total order; returns its id.
    pub fn push(&mut self, t: impl Into<ThreadId>, kind: EventKind) -> NodeId {
        let t = t.into();
        if t.index() >= self.threads.len() {
            self.threads.resize(t.index() + 1, Vec::new());
        }
        let chain = &mut self.threads[t.index()];
        let id = NodeId::new(t, chain.len() as u32);
        chain.push(Event {
            kind,
            trace_pos: self.order.len() as u32,
        });
        self.order.push(id);
        id
    }

    /// Number of threads (chains).
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of events of thread `t`.
    pub fn thread_len(&self, t: ThreadId) -> usize {
        self.threads.get(t.index()).map_or(0, Vec::len)
    }

    /// Length of the longest thread chain (the chain capacity a
    /// partial-order index needs).
    pub fn max_chain_len(&self) -> usize {
        self.threads.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of events.
    pub fn total_events(&self) -> usize {
        self.order.len()
    }

    /// The event at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not address an event of this trace.
    pub fn event(&self, id: NodeId) -> &Event {
        &self.threads[id.thread.index()][id.pos as usize]
    }

    /// The event kind at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not address an event of this trace.
    pub fn kind(&self, id: NodeId) -> &EventKind {
        &self.event(id).kind
    }

    /// The events of thread `t`, in program order.
    pub fn events_of(&self, t: ThreadId) -> &[Event] {
        self.threads.get(t.index()).map_or(&[], Vec::as_slice)
    }

    /// Iterates over all events in the observed total order.
    pub fn iter_order(&self) -> impl Iterator<Item = (NodeId, &Event)> + '_ {
        self.order.iter().map(move |&id| (id, self.event(id)))
    }

    /// The observed total order as a slice of event ids.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of `id` in the observed total order.
    pub fn trace_pos(&self, id: NodeId) -> u32 {
        self.event(id).trace_pos
    }

    // ----- derived views ----------------------------------------------------

    /// The reads-from map of the observed execution: each plain read is
    /// mapped to the latest plain write of the same variable that
    /// precedes it in the trace order, regardless of values.
    pub fn reads_from(&self) -> HashMap<NodeId, NodeId> {
        let mut last_write: HashMap<VarId, NodeId> = HashMap::new();
        let mut rf = HashMap::new();
        for (id, ev) in self.iter_order() {
            match ev.kind {
                EventKind::Write { var, .. } => {
                    last_write.insert(var, id);
                }
                EventKind::Read { var, .. } => {
                    if let Some(&w) = last_write.get(&var) {
                        rf.insert(id, w);
                    }
                }
                _ => {}
            }
        }
        rf
    }

    /// Per-variable plain read/write access lists, in trace order.
    pub fn var_accesses(&self) -> HashMap<VarId, VarAccesses> {
        let mut map: HashMap<VarId, VarAccesses> = HashMap::new();
        for (id, ev) in self.iter_order() {
            match ev.kind {
                EventKind::Read { var, .. } => map.entry(var).or_default().reads.push(id),
                EventKind::Write { var, .. } => map.entry(var).or_default().writes.push(id),
                _ => {}
            }
        }
        map
    }

    /// Critical sections per lock, in trace order of their acquires.
    /// An unreleased section has `release == None`.
    pub fn critical_sections(&self) -> Vec<CriticalSection> {
        let mut open: HashMap<(ThreadId, LockId), usize> = HashMap::new();
        let mut sections = Vec::new();
        for (id, ev) in self.iter_order() {
            match ev.kind {
                EventKind::Acquire { lock } => {
                    let idx = sections.len();
                    sections.push(CriticalSection {
                        lock,
                        thread: id.thread,
                        acquire: id,
                        release: None,
                    });
                    open.insert((id.thread, lock), idx);
                }
                EventKind::Release { lock } => {
                    if let Some(idx) = open.remove(&(id.thread, lock)) {
                        sections[idx].release = Some(id);
                    }
                }
                _ => {}
            }
        }
        sections
    }

    /// Locks held by the thread of `id` at the moment `id` executes
    /// (acquires strictly before `id` in program order, not yet
    /// released).
    pub fn locks_held_at(&self, id: NodeId) -> Vec<LockId> {
        let mut held = Vec::new();
        for ev in &self.threads[id.thread.index()][..id.pos as usize] {
            match ev.kind {
                EventKind::Acquire { lock } => held.push(lock),
                EventKind::Release { lock } => {
                    if let Some(i) = held.iter().rposition(|&l| l == lock) {
                        held.remove(i);
                    }
                }
                _ => {}
            }
        }
        held
    }
}

/// Plain accesses to one variable, in trace order.
#[derive(Debug, Clone, Default)]
pub struct VarAccesses {
    /// Plain reads.
    pub reads: Vec<NodeId>,
    /// Plain writes.
    pub writes: Vec<NodeId>,
}

/// One lock-protected region of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalSection {
    /// The protecting lock.
    pub lock: LockId,
    /// The executing thread.
    pub thread: ThreadId,
    /// The acquire event.
    pub acquire: NodeId,
    /// The matching release event, if the section was closed.
    pub release: Option<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Method;
    use crate::event::{EventKind as K, OpId};

    #[test]
    fn push_and_addressing() {
        let mut t = Trace::new(2);
        let a = t.push(
            0,
            K::Write {
                var: VarId(0),
                value: 1,
            },
        );
        let b = t.push(
            1,
            K::Read {
                var: VarId(0),
                value: 1,
            },
        );
        let c = t.push(
            0,
            K::Write {
                var: VarId(0),
                value: 2,
            },
        );
        assert_eq!(a, NodeId::new(0, 0));
        assert_eq!(b, NodeId::new(1, 0));
        assert_eq!(c, NodeId::new(0, 1));
        assert_eq!(t.total_events(), 3);
        assert_eq!(t.max_chain_len(), 2);
        assert_eq!(t.thread_len(ThreadId(0)), 2);
        assert_eq!(t.trace_pos(b), 1);
        assert_eq!(t.order(), &[a, b, c]);
        assert!(matches!(t.kind(c), K::Write { value: 2, .. }));
    }

    #[test]
    fn push_grows_thread_table() {
        let mut t = Trace::new(0);
        t.push(
            3,
            K::Fence {
                order: crate::MemOrder::SeqCst,
            },
        );
        assert_eq!(t.num_threads(), 4);
        assert_eq!(t.thread_len(ThreadId(3)), 1);
        assert_eq!(t.thread_len(ThreadId(0)), 0);
        assert!(t.events_of(ThreadId(9)).is_empty());
    }

    #[test]
    fn reads_from_latest_write() {
        let mut t = Trace::new(2);
        let w1 = t.push(
            0,
            K::Write {
                var: VarId(0),
                value: 1,
            },
        );
        let r1 = t.push(
            1,
            K::Read {
                var: VarId(0),
                value: 1,
            },
        );
        let w2 = t.push(
            0,
            K::Write {
                var: VarId(0),
                value: 2,
            },
        );
        let r2 = t.push(
            1,
            K::Read {
                var: VarId(0),
                value: 2,
            },
        );
        let r_other = t.push(
            1,
            K::Read {
                var: VarId(1),
                value: 0,
            },
        );
        let rf = t.reads_from();
        assert_eq!(rf.get(&r1), Some(&w1));
        assert_eq!(rf.get(&r2), Some(&w2));
        assert_eq!(rf.get(&r_other), None, "no write to x1 yet");
    }

    #[test]
    fn var_accesses_in_order() {
        let mut t = Trace::new(2);
        let w = t.push(
            0,
            K::Write {
                var: VarId(5),
                value: 1,
            },
        );
        let r = t.push(
            1,
            K::Read {
                var: VarId(5),
                value: 1,
            },
        );
        let acc = t.var_accesses();
        let xs = &acc[&VarId(5)];
        assert_eq!(xs.writes, vec![w]);
        assert_eq!(xs.reads, vec![r]);
    }

    #[test]
    fn critical_sections_and_held_locks() {
        let mut t = Trace::new(1);
        let a1 = t.push(0, K::Acquire { lock: LockId(0) });
        let a2 = t.push(0, K::Acquire { lock: LockId(1) });
        let mid = t.push(
            0,
            K::Write {
                var: VarId(0),
                value: 0,
            },
        );
        let r2 = t.push(0, K::Release { lock: LockId(1) });
        let r1 = t.push(0, K::Release { lock: LockId(0) });
        let cs = t.critical_sections();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].acquire, a1);
        assert_eq!(cs[0].release, Some(r1));
        assert_eq!(cs[1].acquire, a2);
        assert_eq!(cs[1].release, Some(r2));
        assert_eq!(t.locks_held_at(mid), vec![LockId(0), LockId(1)]);
        assert_eq!(t.locks_held_at(a1), vec![]);
        assert_eq!(t.locks_held_at(r1), vec![LockId(0)]);
    }

    #[test]
    fn unclosed_critical_section() {
        let mut t = Trace::new(1);
        t.push(0, K::Acquire { lock: LockId(0) });
        let cs = t.critical_sections();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].release, None);
    }

    #[test]
    fn invoke_response_events() {
        let mut t = Trace::new(1);
        let i = t.push(
            0,
            K::Invoke {
                op: OpId(0),
                method: Method::Add,
                arg: 7,
            },
        );
        let r = t.push(
            0,
            K::Response {
                op: OpId(0),
                result: 1,
            },
        );
        assert!(matches!(
            t.kind(i),
            K::Invoke {
                method: Method::Add,
                ..
            }
        ));
        assert!(matches!(t.kind(r), K::Response { result: 1, .. }));
    }
}
