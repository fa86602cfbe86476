//! Data-race detection over execution traces.
//!
//! The paper adopts the Linux kernel memory model's definitions (§2):
//! *conflicting accesses* touch the same location with at least one store;
//! a *data race* is a pair of conflicting accesses from different threads
//! executed concurrently. Concurrency is judged with vector clocks over the
//! happens-before order induced by program order, background-thread spawns
//! (`queue_work` / `call_rcu`), and lock release→acquire edges.
//!
//! A race observed in a trace carries its *interleaving order* (`X ⇒ Y`,
//! first ⇒ second); Causality Analysis flips exactly that order. Races whose
//! second access never executed — the thread was killed by the failure
//! before reaching it, like `A12` in the paper's Figure 6 — are represented
//! with a [`RaceEnd::Pending`] second end, ordered after the executed first
//! end.

use crate::{
    fxhash::FxHashMap,
    schedule::ThreadSel, //
};
use ksim::{
    events::LockEvent,
    AccessKind,
    Addr,
    InstrAddr,
    MemAccess,
    StepRecord,
    ThreadId,
    Trace, //
};
use std::collections::{
    BTreeSet,
    HashMap,
    HashSet, //
};

/// A vector clock, indexed by `ThreadId.0`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(pub Vec<u32>);

impl VClock {
    fn ensure(&mut self, n: usize) {
        if self.0.len() < n {
            self.0.resize(n, 0);
        }
    }

    fn tick(&mut self, tid: ThreadId) {
        self.ensure(tid.0 as usize + 1);
        self.0[tid.0 as usize] += 1;
    }

    fn join(&mut self, other: &VClock) {
        self.ensure(other.0.len());
        for (i, &v) in other.0.iter().enumerate() {
            self.0[i] = self.0[i].max(v);
        }
    }

    /// Whether `self` happens-before-or-equals `other` (componentwise ≤).
    #[must_use]
    pub fn le(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.0.get(i).copied().unwrap_or(0))
    }

    /// Whether the two clocks are concurrent (neither ordered).
    #[must_use]
    pub fn concurrent(&self, other: &VClock) -> bool {
        !self.le(other) && !other.le(self)
    }
}

/// One memory access extracted from a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessEvt {
    /// Trace sequence number of the executing step.
    pub seq: usize,
    /// Executing thread.
    pub tid: ThreadId,
    /// Static instruction address.
    pub at: InstrAddr,
    /// Accessed address.
    pub addr: Addr,
    /// Whether the access writes.
    pub is_write: bool,
    /// Locks held during the access.
    pub locks: Vec<ksim::LockId>,
}

/// One end of an observed data race.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceEnd {
    /// The access executed in the trace.
    Executed(AccessEvt),
    /// The access never executed — its thread was killed (or left suspended)
    /// by the failure before reaching the instruction. The interleaving
    /// order is still determined: the executed end came first.
    Pending {
        /// The thread that would have executed the access.
        tid: ThreadId,
        /// The instruction that would have performed it.
        at: InstrAddr,
    },
}

impl RaceEnd {
    /// The static instruction of this end.
    #[must_use]
    pub fn at(&self) -> InstrAddr {
        match self {
            RaceEnd::Executed(a) => a.at,
            RaceEnd::Pending { at, .. } => *at,
        }
    }

    /// The thread of this end.
    #[must_use]
    pub fn tid(&self) -> ThreadId {
        match self {
            RaceEnd::Executed(a) => a.tid,
            RaceEnd::Pending { tid, .. } => *tid,
        }
    }

    /// The trace sequence number, when executed.
    #[must_use]
    pub fn seq(&self) -> Option<usize> {
        match self {
            RaceEnd::Executed(a) => Some(a.seq),
            RaceEnd::Pending { .. } => None,
        }
    }
}

/// An observed data race with its interleaving order: `first ⇒ second`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObservedRace {
    /// The earlier access.
    pub first: AccessEvt,
    /// The later (possibly pending) access.
    pub second: RaceEnd,
}

impl ObservedRace {
    /// The static identity of the race: ordered instruction pair.
    #[must_use]
    pub fn key(&self) -> (InstrAddr, InstrAddr) {
        (self.first.at, self.second.at())
    }

    /// The static identity ignoring order (for "same race, either order").
    #[must_use]
    pub fn unordered_key(&self) -> (InstrAddr, InstrAddr) {
        let (a, b) = self.key();
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sort key for backward testing (§3.4): the position of the *last*
    /// involved instruction. Pending ends sort last of all.
    #[must_use]
    pub fn backward_key(&self) -> usize {
        match self.second.seq() {
            Some(s) => s,
            None => usize::MAX - self.first.seq,
        }
    }
}

/// Extracts all memory accesses from a trace.
#[must_use]
pub fn accesses(trace: &Trace) -> Vec<AccessEvt> {
    let mut out = Vec::new();
    for rec in trace {
        for acc in &rec.accesses {
            out.push(AccessEvt {
                seq: rec.seq,
                tid: rec.tid,
                at: rec.at,
                addr: acc.addr,
                is_write: acc.kind.is_write(),
                locks: rec.locks_held.clone(),
            });
        }
    }
    out
}

/// Computes one vector clock per trace step, over program order, spawn
/// edges, and lock release→acquire edges.
#[must_use]
pub fn step_clocks(trace: &Trace) -> Vec<VClock> {
    let mut thread_clocks: HashMap<ThreadId, VClock> = HashMap::new();
    let mut lock_clocks: HashMap<ksim::LockId, VClock> = HashMap::new();
    let mut out = Vec::with_capacity(trace.len());
    for rec in trace {
        let clock = thread_clocks.entry(rec.tid).or_default();
        if let Some(LockEvent::Acquired(l)) = rec.lock_event {
            if let Some(lc) = lock_clocks.get(&l) {
                clock.join(&lc.clone());
            }
        }
        clock.tick(rec.tid);
        let snapshot = clock.clone();
        if let Some(LockEvent::Released(l)) = rec.lock_event {
            lock_clocks.insert(l, snapshot.clone());
        }
        if let Some(child) = rec.spawned {
            let mut child_clock = snapshot.clone();
            child_clock.tick(child);
            thread_clocks.insert(child, child_clock);
        }
        out.push(snapshot);
    }
    out
}

/// Detects all data races observed in a trace, deduplicated by ordered
/// instruction pair (the first occurrence wins).
///
/// Two accesses race when they touch the same address from different
/// threads, at least one writes, and their step clocks are concurrent.
#[must_use]
pub fn races_in_trace(trace: &Trace) -> Vec<ObservedRace> {
    let evts = accesses(trace);
    let clocks = step_clocks(trace);
    // Group accesses by address to avoid the full quadratic sweep.
    let mut by_addr: HashMap<Addr, Vec<usize>> = HashMap::new();
    for (i, e) in evts.iter().enumerate() {
        by_addr.entry(e.addr).or_default().push(i);
    }
    let mut seen: HashMap<(InstrAddr, InstrAddr), ()> = HashMap::new();
    let mut out = Vec::new();
    for idxs in by_addr.values() {
        // Fast paths: thread-private locations and read-only locations
        // cannot race — this keeps bulk private traffic (noise work loops)
        // out of the quadratic pair sweep.
        let first_tid = evts[idxs[0]].tid;
        if idxs.iter().all(|&i| evts[i].tid == first_tid) || idxs.iter().all(|&i| !evts[i].is_write)
        {
            continue;
        }
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                let (a, b) = (&evts[i], &evts[j]);
                if a.tid == b.tid || !(a.is_write || b.is_write) {
                    continue;
                }
                if !clocks[a.seq].concurrent(&clocks[b.seq]) {
                    continue;
                }
                let (first, second) = if a.seq <= b.seq { (a, b) } else { (b, a) };
                let key = (first.at, second.at);
                if seen.insert(key, ()).is_none() {
                    out.push(ObservedRace {
                        first: first.clone(),
                        second: RaceEnd::Executed(second.clone()),
                    });
                }
            }
        }
    }
    out.sort_by_key(ObservedRace::backward_key);
    out
}

/// Conflicting access pairs whose order is fixed *only by a common lock* —
/// the critical-section order pairs of §3.4: "the execution order of
/// critical sections may contribute to the failure", so Causality Analysis
/// tests them too, flipping whole critical sections as units. They are not
/// data races under the kernel memory model (the lock orders them), which
/// is why [`races_in_trace`] excludes them and this function exists
/// separately.
#[must_use]
pub fn cs_order_races(trace: &Trace) -> Vec<ObservedRace> {
    let evts = accesses(trace);
    let clocks = step_clocks(trace);
    let mut by_addr: HashMap<Addr, Vec<usize>> = HashMap::new();
    for (i, e) in evts.iter().enumerate() {
        by_addr.entry(e.addr).or_default().push(i);
    }
    let mut seen: HashMap<(InstrAddr, InstrAddr), ()> = HashMap::new();
    let mut out = Vec::new();
    for idxs in by_addr.values() {
        let first_tid = evts[idxs[0]].tid;
        if idxs.iter().all(|&i| evts[i].tid == first_tid) || idxs.iter().all(|&i| !evts[i].is_write)
        {
            continue;
        }
        for (pos, &i) in idxs.iter().enumerate() {
            for &j in &idxs[pos + 1..] {
                let (a, b) = (&evts[i], &evts[j]);
                if a.tid == b.tid || !(a.is_write || b.is_write) {
                    continue;
                }
                // Ordered, not concurrent — and both inside critical
                // sections of a common lock.
                if clocks[a.seq].concurrent(&clocks[b.seq]) {
                    continue;
                }
                let common_lock = a.locks.iter().any(|l| b.locks.contains(l));
                if !common_lock {
                    continue;
                }
                let (first, second) = if a.seq <= b.seq { (a, b) } else { (b, a) };
                let key = (first.at, second.at);
                if seen.insert(key, ()).is_none() {
                    out.push(ObservedRace {
                        first: first.clone(),
                        second: RaceEnd::Executed(second.clone()),
                    });
                }
            }
        }
    }
    out.sort_by_key(ObservedRace::backward_key);
    out
}

/// What one executed trace adds to LIFS's knowledge base, from a single
/// streaming pass ([`trace_conflicts`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceConflicts {
    /// Normalized `(low, high)` instruction pairs that race or are ordered
    /// only by a common lock: the unordered keys of [`races_in_trace`] ∪
    /// [`cs_order_races`]. Sorted, deduplicated.
    pub pairs: Vec<(InstrAddr, InstrAddr)>,
    /// `(first, second, addr)` for every conflicting pair of accesses from
    /// different threads, `first` earlier in the trace, ordered or not: the
    /// conflict order LIFS's equivalence pruning hashes. Sorted,
    /// deduplicated.
    pub order: Vec<(InstrAddr, InstrAddr, Addr)>,
}

/// Every earlier access at one address with the same thread, instruction,
/// access direction and held locks, summarized for [`trace_conflicts`].
struct Shape<'a> {
    tid: ThreadId,
    at: InstrAddr,
    is_write: bool,
    locks: &'a [ksim::LockId],
    /// The thread's own clock component at the latest such access.
    last: u32,
    /// Shapes `0..seen` of the address were already paired with this one
    /// as the earlier end.
    seen: usize,
    /// Earlier shapes that conflict with this one, share no lock with it,
    /// and have not yet been concurrent with one of its accesses.
    pending: Vec<usize>,
}

/// Computes [`TraceConflicts`] in one pass over the trace, building the
/// step clocks of [`step_clocks`] on the fly without storing them.
///
/// Each address keeps one `Shape` per distinct (thread, instruction,
/// is-write, lockset). For an earlier access `i` and a later access `j`,
/// `i ∥ j` exactly when `C_i[t_i] > C_j[t_i]`: clocks only grow (by tick or
/// join), and trace order linearizes happens-before, so `j` can only have
/// learned of `i` through `t_i`'s own component. Hence some earlier access
/// of a shape races with `j` exactly when the shape's `last > C_j[t]`. With
/// a common lock, every earlier access either races or is lock-ordered, so
/// the pair is known as soon as both shapes have executed. The cost is
/// O(accesses × shapes per address), where the reference sweeps are
/// quadratic in accesses.
#[must_use]
pub fn trace_conflicts(trace: &Trace) -> TraceConflicts {
    let mut threads: Vec<VClock> = Vec::new();
    let mut lock_clocks: HashMap<ksim::LockId, VClock> = HashMap::new();
    let mut sites: FxHashMap<Addr, Vec<Shape<'_>>> = FxHashMap::default();
    let mut out = TraceConflicts::default();
    for rec in trace.iter() {
        let t = rec.tid.0 as usize;
        if threads.len() <= t {
            threads.resize_with(t + 1, VClock::default);
        }
        if let Some(LockEvent::Acquired(l)) = rec.lock_event {
            if let Some(lc) = lock_clocks.get(&l) {
                threads[t].join(lc);
            }
        }
        threads[t].tick(rec.tid);
        for acc in &rec.accesses {
            let shapes = sites.entry(acc.addr).or_default();
            fold_access(shapes, &threads[t], rec, acc, &mut out);
        }
        if let Some(LockEvent::Released(l)) = rec.lock_event {
            lock_clocks.entry(l).or_default().clone_from(&threads[t]);
        }
        if let Some(child) = rec.spawned {
            let mut child_clock = threads[t].clone();
            child_clock.tick(child);
            let c = child.0 as usize;
            if threads.len() <= c {
                threads.resize_with(c + 1, VClock::default);
            }
            threads[c] = child_clock;
        }
    }
    out.pairs.sort_unstable();
    out.pairs.dedup();
    out.order.sort_unstable();
    out.order.dedup();
    out
}

/// Folds one access of `rec` into its address's shapes; `clock` is the
/// step's vector clock.
fn fold_access<'a>(
    shapes: &mut Vec<Shape<'a>>,
    clock: &VClock,
    rec: &'a StepRecord,
    acc: &MemAccess,
    out: &mut TraceConflicts,
) {
    let is_write = acc.kind.is_write();
    let component = |tid: ThreadId| clock.0.get(tid.0 as usize).copied().unwrap_or(0);
    let unordered = |a: InstrAddr, b: InstrAddr| if a <= b { (a, b) } else { (b, a) };
    let locks = rec.locks_held.as_slice();
    let y = shapes
        .iter()
        .position(|s| {
            s.tid == rec.tid && s.at == rec.at && s.is_write == is_write && s.locks == locks
        })
        .unwrap_or_else(|| {
            shapes.push(Shape {
                tid: rec.tid,
                at: rec.at,
                is_write,
                locks,
                last: 0,
                seen: 0,
                pending: Vec::new(),
            });
            shapes.len() - 1
        });
    let mut pending = std::mem::take(&mut shapes[y].pending);
    for (x, s) in shapes.iter().enumerate().skip(shapes[y].seen) {
        if s.tid == rec.tid || !(s.is_write || is_write) {
            continue;
        }
        out.order.push((s.at, rec.at, acc.addr));
        if s.locks.iter().any(|l| locks.contains(l)) {
            out.pairs.push(unordered(s.at, rec.at));
        } else {
            pending.push(x);
        }
    }
    pending.retain(|&x| {
        let s = &shapes[x];
        let concurrent = s.last > component(s.tid);
        if concurrent {
            out.pairs.push(unordered(s.at, rec.at));
        }
        !concurrent
    });
    let n = shapes.len();
    let shape = &mut shapes[y];
    shape.pending = pending;
    shape.seen = n;
    shape.last = component(rec.tid);
}

/// Whether race `outer` *surrounds* race `inner` (paper Figure 7): the
/// outer's first access precedes the inner's first in the same thread, and
/// the inner's second access precedes the outer's second in the other
/// thread. Flipping the outer while preserving the inner's order is then
/// impossible.
#[must_use]
pub fn surrounds(outer: &ObservedRace, inner: &ObservedRace) -> bool {
    // Both ends must pair up by thread.
    if outer.first.tid != inner.first.tid || outer.second.tid() != inner.second.tid() {
        return false;
    }
    if outer.first.tid == outer.second.tid() {
        return false;
    }
    let (Some(outer_second), Some(inner_second)) = (outer.second.seq(), inner.second.seq()) else {
        return false;
    };
    outer.first.seq < inner.first.seq && inner_second < outer_second
}

/// The critical-section span (sequence range, inclusive) enclosing the step
/// at `seq` in its thread, or `None` when no lock was held.
///
/// The span runs from the `Lock` acquisition of the outermost lock held at
/// `seq` to its `Unlock` (or the thread's last step when never released) —
/// the unit Causality Analysis flips to preserve liveness (§3.4).
#[must_use]
pub fn critical_section_span(trace: &Trace, seq: usize) -> Option<(usize, usize)> {
    let rec = trace.get(seq)?;
    let outer = *rec.locks_held.first()?;
    let tid = rec.tid;
    // Scan backward for the acquisition of `outer` by this thread.
    let mut start = seq;
    for r in (0..=seq).rev().map(|i| &trace[i]) {
        if r.tid != tid {
            continue;
        }
        start = r.seq;
        if r.lock_event == Some(LockEvent::Acquired(outer)) {
            break;
        }
    }
    // Scan forward for the release.
    let mut end = seq;
    for r in trace.iter_from(seq) {
        if r.tid != tid {
            continue;
        }
        end = r.seq;
        if r.lock_event == Some(LockEvent::Released(outer)) {
            break;
        }
    }
    Some((start, end))
}

/// How an observed access participates in conflicts.
///
/// Plain reads and writes follow the usual write-aware rule. The third
/// class, [`AccessClass::Add`], is the observability refinement: an
/// unobserved `fetch_add` (no destination register, so the loaded value is
/// discarded) is a commutative update — two of them against the same
/// address produce the same memory, the same registers, and the same
/// per-thread projections in either order, so they never conflict with
/// each other. They still conflict with any read (which observes the
/// running sum) and any write (which clobbers it). This is what lets DPOR
/// see through the kernel's benign statistics-counter traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Pure load.
    Read,
    /// Store, or a read-modify-write whose result is observed.
    Write,
    /// Commutative unobserved read-modify-write (`fetch_add` into nowhere).
    Add,
}

/// Static, write-aware conflict index over the per-thread address sets
/// observed in executed traces.
///
/// Built once per program from the serial (count-0) runs of the same
/// vector-clock analysis that feeds race detection, then consulted by LIFS
/// plan generation: two accesses *may conflict* only when they touch a
/// common address, at least one writes, and they are not both commutative
/// unobserved adds ([`AccessClass`]). Pairs that can never conflict under
/// that test are filtered before plan generation — the DPOR sleep-set and
/// persistent-set rules both reduce to queries against this index.
///
/// The index is deliberately conservative in one direction only: an
/// address never observed for a thread is assumed absent (the thread's
/// traces are complete projections of its serial runs), while a thread
/// with *no* recorded trace reports conflicts everywhere.
#[derive(Clone, Debug, Default)]
pub struct ConflictIndex {
    reads: HashMap<ThreadSel, BTreeSet<Addr>>,
    writes: HashMap<ThreadSel, BTreeSet<Addr>>,
    adds: HashMap<ThreadSel, BTreeSet<Addr>>,
    /// Instructions that are commutative unobserved adds, determined
    /// statically from the program text.
    commutative: HashSet<InstrAddr>,
}

impl ConflictIndex {
    /// An index primed with the program's commutative instructions
    /// (`fetch_add` with no destination register).
    #[must_use]
    pub fn for_program(program: &ksim::Program) -> ConflictIndex {
        let mut commutative = HashSet::new();
        for (p, prog) in program.progs.iter().enumerate() {
            for (index, instr) in prog.instrs.iter().enumerate() {
                if matches!(instr, ksim::instr::Instr::FetchAdd { dst: None, .. }) {
                    commutative.insert(InstrAddr {
                        prog: ksim::ThreadProgId(p as u16),
                        index,
                    });
                }
            }
        }
        ConflictIndex {
            commutative,
            ..ConflictIndex::default()
        }
    }

    /// Classifies one observed access by kind and originating instruction.
    #[must_use]
    pub fn classify(&self, at: InstrAddr, kind: AccessKind) -> AccessClass {
        match kind {
            AccessKind::Read => AccessClass::Read,
            AccessKind::Rmw if self.commutative.contains(&at) => AccessClass::Add,
            // An observed RMW both reads and writes; Write is the class
            // that conflicts with every other touch, which covers it.
            AccessKind::Write | AccessKind::Rmw => AccessClass::Write,
        }
    }

    /// Folds one thread's executed steps into the index.
    pub fn add_steps<'a>(
        &mut self,
        sel: ThreadSel,
        steps: impl IntoIterator<Item = &'a StepRecord>,
    ) {
        let (mut reads, mut writes, mut adds) = (Vec::new(), Vec::new(), Vec::new());
        for rec in steps {
            for acc in &rec.accesses {
                match self.classify(rec.at, acc.kind) {
                    AccessClass::Read => reads.push(acc.addr),
                    AccessClass::Write => writes.push(acc.addr),
                    AccessClass::Add => adds.push(acc.addr),
                }
            }
        }
        // A thread with an empty trace still counts as known; the other two
        // sets exist only once the thread has such an access.
        self.reads.entry(sel).or_default();
        for (map, mut addrs) in [
            (&mut self.reads, reads),
            (&mut self.writes, writes),
            (&mut self.adds, adds),
        ] {
            if !addrs.is_empty() {
                addrs.sort_unstable();
                addrs.dedup();
                map.entry(sel).or_default().extend(addrs);
            }
        }
    }

    /// Whether the index has any observation for `sel`.
    #[must_use]
    pub fn knows(&self, sel: ThreadSel) -> bool {
        self.reads.contains_key(&sel)
            || self.writes.contains_key(&sel)
            || self.adds.contains_key(&sel)
    }

    fn has(&self, map: &HashMap<ThreadSel, BTreeSet<Addr>>, sel: ThreadSel, addr: Addr) -> bool {
        map.get(&sel).is_some_and(|s| s.contains(&addr))
    }

    /// Whether an access (by the instruction at `at`, of `kind`) may
    /// conflict with *any* access of `sel`: a write conflicts with any
    /// touch of the address, a read with any update, and a commutative add
    /// with anything except another commutative add. Unknown threads
    /// conservatively conflict.
    #[must_use]
    pub fn may_conflict(
        &self,
        addr: Addr,
        kind: AccessKind,
        at: InstrAddr,
        sel: ThreadSel,
    ) -> bool {
        if !self.knows(sel) {
            return true;
        }
        let read = self.has(&self.reads, sel, addr);
        let written = self.has(&self.writes, sel, addr);
        let added = self.has(&self.adds, sel, addr);
        match self.classify(at, kind) {
            AccessClass::Read => written || added,
            AccessClass::Write => read || written || added,
            AccessClass::Add => read || written,
        }
    }

    /// Whether an access may conflict with any thread in `sels` other than
    /// `own` (the accessing thread never conflicts with itself).
    #[must_use]
    pub fn may_conflict_any(
        &self,
        addr: Addr,
        kind: AccessKind,
        at: InstrAddr,
        own: ThreadSel,
        sels: &[ThreadSel],
    ) -> bool {
        sels.iter()
            .filter(|&&s| s != own)
            .any(|&s| self.may_conflict(addr, kind, at, s))
    }

    /// Whether an address touched by the instruction at `at` (executed by
    /// `own`) may conflict with any *other* thread the index knows. Used as
    /// the refined point-level filter: a commutative add conflicts only
    /// with genuine reads or writes of the address; any other access
    /// conservatively conflicts with every touch (the footprint test).
    #[must_use]
    pub fn addr_conflicts_any_other(&self, addr: Addr, at: InstrAddr, own: ThreadSel) -> bool {
        let commutative = self.commutative.contains(&at);
        let sels: HashSet<&ThreadSel> = self
            .reads
            .keys()
            .chain(self.writes.keys())
            .chain(self.adds.keys())
            .collect();
        sels.into_iter().filter(|&&s| s != own).any(|&s| {
            let touched = self.has(&self.reads, s, addr)
                || self.has(&self.writes, s, addr)
                || self.has(&self.adds, s, addr);
            if commutative {
                self.has(&self.reads, s, addr) || self.has(&self.writes, s, addr)
            } else {
                touched
            }
        })
    }

    /// Whether the two threads' footprints can conflict at all: some
    /// address is updated by one and touched by the other, commutative
    /// add/add pairs excepted. Unknown threads conservatively conflict.
    #[must_use]
    pub fn sels_may_conflict(&self, a: ThreadSel, b: ThreadSel) -> bool {
        if !self.knows(a) || !self.knows(b) {
            return true;
        }
        let one_way = |x: ThreadSel, y: ThreadSel| {
            let writes_hit = self.writes.get(&x).is_some_and(|w| {
                w.iter().any(|&addr| {
                    self.has(&self.writes, y, addr)
                        || self.has(&self.reads, y, addr)
                        || self.has(&self.adds, y, addr)
                })
            });
            let adds_hit = self.adds.get(&x).is_some_and(|w| {
                w.iter()
                    .any(|&addr| self.has(&self.writes, y, addr) || self.has(&self.reads, y, addr))
            });
            writes_hit || adds_hit
        };
        one_way(a, b) || one_way(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::{
        builder::ProgramBuilder,
        Engine,
        ThreadId, //
    };
    use std::sync::Arc;

    /// Interleaved stores/loads on one global: a data race.
    #[test]
    fn concurrent_conflicting_accesses_race() {
        let mut p = ProgramBuilder::new("race");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            a.store_global(x, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "r");
            b.load_global("r0", x);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        let races = races_in_trace(e.trace());
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].first.tid, ThreadId(0));
        assert_eq!(races[0].second.tid(), ThreadId(1));
    }

    /// Two reads never race.
    #[test]
    fn read_read_is_not_a_race() {
        let mut p = ProgramBuilder::new("rr");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "r");
            a.load_global("r0", x);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "r");
            b.load_global("r0", x);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert!(races_in_trace(e.trace()).is_empty());
    }

    /// Lock-ordered accesses are not concurrent.
    #[test]
    fn lock_protected_accesses_do_not_race() {
        let mut p = ProgramBuilder::new("locked");
        let x = p.global("x", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "w");
            a.lock(l);
            a.store_global(x, 1u64);
            a.unlock(l);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.lock(l);
            b.store_global(x, 2u64);
            b.unlock(l);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert!(races_in_trace(e.trace()).is_empty());
    }

    /// Spawn edges order the spawner's earlier accesses before the worker's.
    #[test]
    fn spawned_worker_is_ordered_after_spawn() {
        let mut p = ProgramBuilder::new("spawn");
        let x = p.global("x", 0);
        let w = {
            let mut w = p.kworker_thread("kw");
            w.store_global(x, 2u64);
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "q");
            a.store_global(x, 1u64); // Before the spawn: ordered, no race.
            a.queue_work(w, None);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert!(races_in_trace(e.trace()).is_empty());
    }

    /// Accesses after the spawn in the spawner race with the worker.
    #[test]
    fn spawner_access_after_spawn_races_with_worker() {
        let mut p = ProgramBuilder::new("spawn2");
        let x = p.global("x", 0);
        let w = {
            let mut w = p.kworker_thread("kw");
            w.store_global(x, 2u64);
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "q");
            a.queue_work(w, None);
            a.store_global(x, 1u64); // After the spawn: concurrent with worker.
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        let races = races_in_trace(e.trace());
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn duplicate_instruction_pairs_dedupe() {
        let mut p = ProgramBuilder::new("dup");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            a.fetch_add_global(x, 1u64);
            a.fetch_add_global(x, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.fetch_add_global(x, 1u64);
            b.fetch_add_global(x, 1u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        let races = races_in_trace(e.trace());
        // 2 instructions × 2 instructions = 4 distinct ordered pairs.
        assert_eq!(races.len(), 4);
    }

    #[test]
    fn surrounds_detects_nesting() {
        use ksim::ThreadProgId;
        let mk_access = |seq, tid, prog, index| AccessEvt {
            seq,
            tid: ThreadId(tid),
            at: InstrAddr {
                prog: ThreadProgId(prog),
                index,
            },
            addr: Addr(0x1000_0000),
            is_write: true,
            locks: vec![],
        };
        // Execution: A1(0) A2(1) B1(2) B2(3); outer = A1⇒B2, inner = A2⇒B1.
        let outer = ObservedRace {
            first: mk_access(0, 0, 0, 0),
            second: RaceEnd::Executed(mk_access(3, 1, 1, 1)),
        };
        let inner = ObservedRace {
            first: mk_access(1, 0, 0, 1),
            second: RaceEnd::Executed(mk_access(2, 1, 1, 0)),
        };
        assert!(surrounds(&outer, &inner));
        assert!(!surrounds(&inner, &outer));
        assert!(!surrounds(&outer, &outer));
    }

    #[test]
    fn critical_section_span_covers_lock_to_unlock() {
        let mut p = ProgramBuilder::new("cs");
        let x = p.global("x", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "cs");
            a.lock(l); // seq 0
            a.store_global(x, 1u64); // seq 1
            a.store_global(x, 2u64); // seq 2
            a.unlock(l); // seq 3
            a.ret(); // seq 4
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert_eq!(critical_section_span(e.trace(), 1), Some((0, 3)));
        assert_eq!(critical_section_span(e.trace(), 2), Some((0, 3)));
        // The Unlock itself is inside the span.
        assert_eq!(critical_section_span(e.trace(), 3), Some((0, 3)));
        // Outside any lock.
        assert_eq!(critical_section_span(e.trace(), 4), None);
    }

    #[test]
    fn backward_key_orders_pending_last() {
        use ksim::ThreadProgId;
        let acc = |seq| AccessEvt {
            seq,
            tid: ThreadId(0),
            at: InstrAddr {
                prog: ThreadProgId(0),
                index: seq,
            },
            addr: Addr(0x1000_0000),
            is_write: true,
            locks: vec![],
        };
        let executed = ObservedRace {
            first: acc(0),
            second: RaceEnd::Executed(AccessEvt {
                tid: ThreadId(1),
                ..acc(5)
            }),
        };
        let pending = ObservedRace {
            first: acc(1),
            second: RaceEnd::Pending {
                tid: ThreadId(1),
                at: InstrAddr {
                    prog: ThreadProgId(1),
                    index: 9,
                },
            },
        };
        assert!(pending.backward_key() > executed.backward_key());
    }

    #[test]
    fn vclock_le_and_concurrent() {
        let a = VClock(vec![1, 0]);
        let b = VClock(vec![1, 2]);
        let c = VClock(vec![0, 1]);
        assert!(a.le(&b));
        assert!(!b.le(&a));
        assert!(a.concurrent(&c));
        assert!(!a.concurrent(&b));
    }
}

#[cfg(test)]
mod conflict_index_tests {
    use super::*;
    use ksim::builder::ProgramBuilder;
    use ksim::{Engine, MemAccess, ThreadProgId};
    use std::sync::Arc;

    fn sel(n: u16) -> ThreadSel {
        ThreadSel::first(ThreadProgId(n))
    }

    /// Builds an index from a two-thread program: A writes x and bumps a
    /// counter c, B reads x, writes y, and bumps c.
    fn built_index() -> (ConflictIndex, Arc<ksim::Program>, Addr, Addr, Addr) {
        let mut p = ProgramBuilder::new("ci");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let c = p.global("c", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            a.store_global(x, 1u64);
            a.fetch_add_global(c, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "r");
            b.load_global("r0", x);
            b.store_global(y, 2u64);
            b.fetch_add_global(c, 1u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(Arc::clone(&prog));
        e.run_all_serial();
        let mut idx = ConflictIndex::for_program(&prog);
        let trace = e.trace().to_vec();
        for (i, s) in [sel(0), sel(1)].into_iter().enumerate() {
            idx.add_steps(s, trace.iter().filter(|r| r.tid == ThreadId(i as u32)));
        }
        let addr_of = |tid: u32, pred: fn(&MemAccess) -> bool| {
            trace
                .iter()
                .filter(|r| r.tid == ThreadId(tid))
                .flat_map(|r| r.accesses.iter())
                .find(|a| pred(a))
                .unwrap()
                .addr
        };
        let xa = addr_of(0, |a| a.kind == AccessKind::Write);
        let ya = addr_of(1, |a| a.kind == AccessKind::Write);
        let ca = addr_of(0, |a| a.kind == AccessKind::Rmw);
        (idx, prog, xa, ya, ca)
    }

    /// The instruction address of thread `prog`'s first access of `kind`.
    fn at_of(program: &ksim::Program, prog: u16, kind: AccessKind) -> InstrAddr {
        let index = program.progs[prog as usize]
            .instrs
            .iter()
            .position(|i| match kind {
                AccessKind::Read => matches!(i, ksim::Instr::Load { .. }),
                AccessKind::Write => matches!(i, ksim::Instr::Store { .. }),
                AccessKind::Rmw => matches!(i, ksim::Instr::FetchAdd { .. }),
            })
            .unwrap();
        InstrAddr {
            prog: ThreadProgId(prog),
            index,
        }
    }

    #[test]
    fn write_conflicts_with_read_and_write() {
        let (idx, prog, x, y, _) = built_index();
        let a_store = at_of(&prog, 0, AccessKind::Write);
        let b_load = at_of(&prog, 1, AccessKind::Read);
        // A write of x conflicts with B (B reads x).
        assert!(idx.may_conflict(x, AccessKind::Write, a_store, sel(1)));
        // A read of x does NOT conflict with B (B only reads x).
        assert!(!idx.may_conflict(x, AccessKind::Read, b_load, sel(1)));
        // A read of y conflicts with B (B writes y).
        assert!(idx.may_conflict(y, AccessKind::Read, b_load, sel(1)));
        // y is private to B as far as A goes.
        assert!(!idx.may_conflict(y, AccessKind::Write, a_store, sel(0)));
    }

    #[test]
    fn commutative_adds_do_not_conflict_with_each_other() {
        let (idx, prog, _, _, c) = built_index();
        let a_add = at_of(&prog, 0, AccessKind::Rmw);
        assert_eq!(idx.classify(a_add, AccessKind::Rmw), AccessClass::Add);
        // Both threads only fetch_add the counter → no conflict either way.
        assert!(!idx.may_conflict(c, AccessKind::Rmw, a_add, sel(1)));
        assert!(!idx.addr_conflicts_any_other(c, a_add, sel(0)));
        // A *write* of the counter would conflict with B's add...
        let a_store = at_of(&prog, 0, AccessKind::Write);
        assert!(idx.may_conflict(c, AccessKind::Write, a_store, sel(1)));
        // ...and an Rmw from a non-commutative instruction (the store's
        // address classifies it as Write) conflicts too.
        assert_eq!(idx.classify(a_store, AccessKind::Rmw), AccessClass::Write);
    }

    #[test]
    fn unknown_thread_conservatively_conflicts() {
        let (idx, prog, x, _, _) = built_index();
        let b_load = at_of(&prog, 1, AccessKind::Read);
        assert!(!idx.knows(sel(9)));
        assert!(idx.may_conflict(x, AccessKind::Read, b_load, sel(9)));
        assert!(idx.sels_may_conflict(sel(0), sel(9)));
    }

    #[test]
    fn sels_may_conflict_is_write_aware() {
        let (idx, _, _, _, _) = built_index();
        // A writes x, B reads x → they conflict (the shared counter's
        // add/add meeting alone would not).
        assert!(idx.sels_may_conflict(sel(0), sel(1)));
        assert!(idx.sels_may_conflict(sel(1), sel(0)));
    }

    #[test]
    fn may_conflict_any_skips_own_thread() {
        let (idx, prog, _, y, _) = built_index();
        let b_store = at_of(&prog, 1, AccessKind::Write);
        let sels = [sel(0), sel(1)];
        // B's write of y conflicts with nobody else.
        assert!(!idx.may_conflict_any(y, AccessKind::Write, b_store, sel(1), &sels));
        // But an unknown third thread would see it.
        let sels3 = [sel(0), sel(1), sel(9)];
        assert!(idx.may_conflict_any(y, AccessKind::Write, b_store, sel(1), &sels3));
    }
}

#[cfg(test)]
mod cs_order_tests {
    use super::*;
    use ksim::builder::ProgramBuilder;
    use ksim::Engine;
    use std::sync::Arc;

    /// Same-lock-ordered conflicting accesses are CS-order pairs, not data
    /// races.
    #[test]
    fn lock_ordered_conflicts_are_cs_pairs() {
        let mut p = ProgramBuilder::new("cs-pairs");
        let x = p.global("x", 0);
        let l = p.lock("l");
        for name in ["A", "B"] {
            let mut t = p.syscall_thread(name, "s");
            t.lock(l);
            t.store_global(x, 1u64);
            t.unlock(l);
            t.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        assert!(races_in_trace(e.trace()).is_empty());
        let cs = cs_order_races(e.trace());
        assert_eq!(cs.len(), 1);
        assert!(!cs[0].first.locks.is_empty());
    }

    /// Accesses ordered by *different* locks do not form CS-order pairs
    /// (they are plain data races — the locks do not order them).
    #[test]
    fn different_locks_are_not_cs_pairs() {
        let mut p = ProgramBuilder::new("diff-locks");
        let x = p.global("x", 0);
        let l1 = p.lock("l1");
        let l2 = p.lock("l2");
        {
            let mut a = p.syscall_thread("A", "s");
            a.lock(l1);
            a.store_global(x, 1u64);
            a.unlock(l1);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "s");
            b.lock(l2);
            b.store_global(x, 2u64);
            b.unlock(l2);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let mut e = Engine::new(prog);
        e.run_all_serial();
        // Concurrent (different locks) → a data race, not a CS pair.
        assert_eq!(races_in_trace(e.trace()).len(), 1);
        assert!(cs_order_races(e.trace()).is_empty());
    }
}
