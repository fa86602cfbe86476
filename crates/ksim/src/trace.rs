//! The execution trace as structurally shared column chunks.
//!
//! Snapshots capture the whole trace so far, and a diagnosis takes
//! thousands of snapshots, so a [`Trace`] groups its steps into chunks of
//! [`CHUNK`] steps. A full chunk is sealed behind an [`Arc`] and never
//! changes again, which makes sharing it between an engine and any number
//! of live snapshots sound: cloning a trace — what
//! [`crate::Engine::snapshot`] and [`crate::Engine::restore`] do — costs one
//! reference-count bump per sealed chunk plus a copy of the unsealed tail,
//! O(len / CHUNK), and appending only ever touches the tail, which is never
//! shared.
//!
//! A chunk stores its steps as columns, not as one record per step: the
//! packed instruction address, the thread, an offset into the chunk's one
//! access buffer, an interned lockset id, and the lock or spawn event.
//! Appending a step pushes one value onto each column; the tail's buffers
//! grow once per chunk, so a step allocates nothing. Reading a step through
//! its [`Step`] view indexes the columns without following a pointer per
//! step.

use crate::{
    events::{
        LockEvent,
        MemAccess,
        StepEvent,
        StepRecord, //
    },
    instr::{
        LockId,
        ThreadProgId, //
    },
    program::InstrAddr,
    thread::ThreadId,
};
use std::sync::Arc;

/// Steps per chunk. Chosen so typical schedule prefixes (tens to a few
/// hundred steps) seal a handful of chunks while copying the unsealed tail
/// on a clone stays cheap.
pub const CHUNK: usize = 64;

/// Access buffer capacity a fresh tail reserves: about twice what a chunk
/// of kernel code touches, so most chunks never regrow it.
const ACCESS_RESERVE: usize = CHUNK / 2;

// Lockset ids are bytes: a chunk interns at most one lockset per step plus
// the empty set.
const _: () = assert!(CHUNK < u8::MAX as usize);

/// Packs an instruction address into one word, the program in the high
/// half; `None` when the index does not fit the low half.
fn pack(at: InstrAddr) -> Option<u64> {
    let index = u32::try_from(at.index).ok()?;
    Some(u64::from(at.prog.0) << 32 | u64::from(index))
}

#[inline]
fn unpack(word: u64) -> InstrAddr {
    InstrAddr {
        prog: ThreadProgId((word >> 32) as u16),
        index: (word & u64::from(u32::MAX)) as usize,
    }
}

/// Up to [`CHUNK`] consecutive steps of a trace, stored as columns.
///
/// Every column holds one entry per step, except that the accesses of all
/// steps share one buffer and the locksets one interning table. The
/// engine appends through [`Trace::push_step`]; a decoder that carries the
/// columns themselves rebuilds a chunk with [`Chunk::push_lockset`],
/// [`Chunk::push_access`] and [`Chunk::push_row`], which refuse anything
/// a [`Step`] could not read back.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    /// Packed instruction addresses (see `pack`).
    at: Vec<u64>,
    tid: Vec<ThreadId>,
    /// Where each step's accesses start in `accesses`; they end where the
    /// next step's start, the last step's at the end of the buffer.
    access_start: Vec<u32>,
    /// Interned lockset id per step; 0 is the empty set.
    lockset: Vec<u8>,
    event: Vec<StepEvent>,
    accesses: Vec<MemAccess>,
    /// The locksets after the empty set, concatenated: set `k` ends at
    /// `set_end[k - 1]` and starts where set `k - 1` ends.
    locks: Vec<LockId>,
    set_end: Vec<u32>,
}

impl Chunk {
    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.at.len()
    }

    /// Whether the chunk holds no step.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The thread column.
    #[must_use]
    pub fn tids(&self) -> &[ThreadId] {
        &self.tid
    }

    /// The instruction-address column, unpacked.
    pub fn ats(&self) -> impl ExactSizeIterator<Item = InstrAddr> + '_ {
        self.at.iter().map(|&w| unpack(w))
    }

    /// The access-offset column: where each step's accesses start in
    /// [`Chunk::accesses`].
    #[must_use]
    pub fn access_starts(&self) -> &[u32] {
        &self.access_start
    }

    /// The lockset-id column: each step's index into the lockset table.
    #[must_use]
    pub fn lockset_ids(&self) -> &[u8] {
        &self.lockset
    }

    /// The event column.
    #[must_use]
    pub fn events(&self) -> &[StepEvent] {
        &self.event
    }

    /// The access buffer every step's accesses are a slice of.
    #[must_use]
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Number of locksets in the table, the empty set 0 included.
    #[must_use]
    pub fn lockset_count(&self) -> usize {
        self.set_end.len() + 1
    }

    /// Lockset `id` of the table (0 is the empty set).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not below [`Chunk::lockset_count`].
    #[must_use]
    #[inline]
    pub fn lockset(&self, id: usize) -> &[LockId] {
        match id {
            0 => &[],
            k => {
                let start = if k == 1 { 0 } else { self.set_end[k - 2] };
                &self.locks[start as usize..self.set_end[k - 1] as usize]
            }
        }
    }

    /// Appends `set` to the lockset table as is, without interning it, and
    /// returns its id; `None` once the table holds a set per step of a
    /// full chunk and the empty set.
    pub fn push_lockset(&mut self, set: &[LockId]) -> Option<u8> {
        let id = u8::try_from(self.lockset_count())
            .ok()
            .filter(|&id| usize::from(id) <= CHUNK)?;
        self.locks.extend_from_slice(set);
        self.set_end.push(Self::offset(self.locks.len()));
        Some(id)
    }

    /// Appends one access to the buffer.
    pub fn push_access(&mut self, access: MemAccess) {
        self.accesses.push(access);
    }

    /// Appends a step given its columns: its accesses start at
    /// `access_start` in the buffer and run to the next step's start (the
    /// last step's to the buffer's end), and it held lockset `lockset` of
    /// the table. Returns `false`, appending nothing, when the chunk is
    /// full, the instruction index does not fit a packed address, the
    /// lockset is not in the table, or the offset is not between the
    /// previous step's and the end of the buffer (the first step's must be
    /// 0).
    pub fn push_row(
        &mut self,
        tid: ThreadId,
        at: InstrAddr,
        access_start: u32,
        lockset: u8,
        event: StepEvent,
    ) -> bool {
        let prev = self.access_start.last().copied();
        let offset_ok = match prev {
            None => access_start == 0,
            Some(p) => p <= access_start && access_start as usize <= self.accesses.len(),
        };
        let Some(at) = pack(at) else { return false };
        if self.len() == CHUNK || !offset_ok || usize::from(lockset) >= self.lockset_count() {
            return false;
        }
        self.row(tid, at, access_start, lockset, event);
        true
    }

    fn row(&mut self, tid: ThreadId, at: u64, access_start: u32, lockset: u8, event: StepEvent) {
        self.at.push(at);
        self.tid.push(tid);
        self.access_start.push(access_start);
        self.lockset.push(lockset);
        self.event.push(event);
    }

    /// The id of `set` in the table, added if absent. The previous step's
    /// set is tried first: a thread holds the same locks for many steps.
    fn intern(&mut self, set: &[LockId]) -> u8 {
        if set.is_empty() {
            return 0;
        }
        if let Some(&last) = self.lockset.last() {
            if self.lockset(usize::from(last)) == set {
                return last;
            }
        }
        match (1..self.lockset_count()).find(|&k| self.lockset(k) == set) {
            Some(k) => k as u8,
            None => self
                .push_lockset(set)
                .expect("a chunk interns at most one lockset per step"),
        }
    }

    /// Reserves room for a full chunk, so appends do not regrow a column
    /// step by step.
    fn reserve(&mut self) {
        self.at.reserve(CHUNK);
        self.tid.reserve(CHUNK);
        self.access_start.reserve(CHUNK);
        self.lockset.reserve(CHUNK);
        self.event.reserve(CHUNK);
        self.accesses.reserve(ACCESS_RESERVE);
    }

    fn offset(n: usize) -> u32 {
        u32::try_from(n).expect("a chunk's buffers stay below 4 GiB entries")
    }

    #[inline]
    fn step(&self, row: usize, seq: usize) -> Step<'_> {
        Step {
            chunk: self,
            row,
            seq,
        }
    }
}

/// One step of a [`Trace`], read in place from its chunk's columns.
///
/// A view is two words and an index: copying it copies nothing of the
/// step. Its accessors are those of [`StepRecord`], plus the step's
/// position in the trace ([`Step::seq`]).
#[derive(Clone, Copy)]
pub struct Step<'a> {
    chunk: &'a Chunk,
    row: usize,
    seq: usize,
}

impl<'a> Step<'a> {
    /// The step's position in its trace (the total order of execution).
    #[must_use]
    #[inline]
    pub fn seq(self) -> usize {
        self.seq
    }

    /// The runtime thread that executed.
    #[must_use]
    #[inline]
    pub fn tid(self) -> ThreadId {
        self.chunk.tid[self.row]
    }

    /// The static instruction address executed.
    #[must_use]
    #[inline]
    pub fn at(self) -> InstrAddr {
        unpack(self.chunk.at[self.row])
    }

    /// Memory accesses the instruction performed (empty for ALU/branches).
    #[must_use]
    #[inline]
    pub fn accesses(self) -> &'a [MemAccess] {
        let c = self.chunk;
        let start = c.access_start[self.row] as usize;
        let end = c
            .access_start
            .get(self.row + 1)
            .map_or(c.accesses.len(), |&e| e as usize);
        &c.accesses[start..end]
    }

    /// Lock transition, if the instruction was `Lock`/`Unlock`.
    #[must_use]
    #[inline]
    pub fn lock_event(self) -> Option<LockEvent> {
        self.event().lock_event()
    }

    /// Locks held by the thread *while executing* this instruction (after a
    /// `Lock` acquires, before an `Unlock` releases).
    #[must_use]
    #[inline]
    pub fn locks_held(self) -> &'a [LockId] {
        self.chunk
            .lockset(usize::from(self.chunk.lockset[self.row]))
    }

    /// Background thread spawned by this instruction, if any.
    #[must_use]
    #[inline]
    pub fn spawned(self) -> Option<ThreadId> {
        self.event().spawned()
    }

    /// The lock transition or spawn, if any.
    #[must_use]
    #[inline]
    pub fn event(self) -> StepEvent {
        self.chunk.event[self.row]
    }

    /// An owned copy of the step.
    #[must_use]
    pub fn to_record(self) -> StepRecord {
        StepRecord {
            tid: self.tid(),
            at: self.at(),
            accesses: self.accesses().to_vec(),
            lock_event: self.lock_event(),
            locks_held: self.locks_held().to_vec(),
            spawned: self.spawned(),
        }
    }
}

/// Two steps are equal when they observed the same: thread, instruction,
/// accesses, locks held and event. Their positions are not compared.
impl PartialEq for Step<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.tid() == other.tid()
            && self.at() == other.at()
            && self.event() == other.event()
            && self.accesses() == other.accesses()
            && self.locks_held() == other.locks_held()
    }
}

impl Eq for Step<'_> {}

impl std::fmt::Debug for Step<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Step")
            .field("seq", &self.seq)
            .field("tid", &self.tid())
            .field("at", &self.at())
            .field("accesses", &self.accesses())
            .field("locks_held", &self.locks_held())
            .field("event", &self.event())
            .finish()
    }
}

/// A structurally shared, append-only sequence of steps.
///
/// Cloning is cheap (a reference-count bump per sealed chunk and a copy of
/// the tail); steps are immutable once appended.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Full chunks of exactly [`CHUNK`] steps, immutable once sealed.
    sealed: Vec<Arc<Chunk>>,
    /// The unsealed suffix, at most [`CHUNK`] - 1 steps after a push.
    tail: Chunk,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of steps.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Appends one executed step: `tid` ran `at`, touched `accesses` while
    /// holding `locks_held`, and caused `event`. Once the tail's buffers
    /// have grown for its chunk, this allocates nothing unless it seals
    /// the chunk or interns a new lockset.
    ///
    /// # Panics
    ///
    /// Panics when `at.index` does not fit in 32 bits.
    pub fn push_step(
        &mut self,
        tid: ThreadId,
        at: InstrAddr,
        accesses: &[MemAccess],
        locks_held: &[LockId],
        event: StepEvent,
    ) {
        let at = pack(at).expect("instruction indices fit in 32 bits");
        let t = &mut self.tail;
        if t.is_empty() {
            t.reserve();
        }
        let lockset = t.intern(locks_held);
        let start = Chunk::offset(t.accesses.len());
        t.accesses.extend_from_slice(accesses);
        t.row(tid, at, start, lockset, event);
        if t.len() == CHUNK {
            self.sealed.push(Arc::new(std::mem::take(&mut self.tail)));
        }
    }

    /// Appends a step built by hand.
    ///
    /// # Panics
    ///
    /// Panics when the record both moves a lock and spawns a thread (see
    /// [`StepEvent::of`]).
    pub fn push(&mut self, rec: &StepRecord) {
        let event = StepEvent::of(rec.lock_event, rec.spawned);
        self.push_step(rec.tid, rec.at, &rec.accesses, &rec.locks_held, event);
    }

    /// The chunks in order: the sealed ones, then the tail unless it is
    /// empty. Every chunk but the last holds exactly [`CHUNK`] steps.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> + '_ {
        let tail = (!self.tail.is_empty()).then_some(&self.tail);
        self.sealed.iter().map(|c| &**c).chain(tail)
    }

    /// Appends a whole chunk, as a decoder does. Returns `false`, appending
    /// nothing, when the chunk is empty or the trace ends in a partial
    /// chunk (only the last chunk of a trace may be partial).
    pub fn push_chunk(&mut self, chunk: Chunk) -> bool {
        if chunk.is_empty() || !self.tail.is_empty() {
            return false;
        }
        if chunk.len() == CHUNK {
            self.sealed.push(Arc::new(chunk));
        } else {
            self.tail = chunk;
        }
        true
    }

    /// The chunk holding step `i` (the tail from [`Trace::len`] on).
    #[inline]
    fn chunk_of(&self, i: usize) -> &Chunk {
        self.sealed.get(i / CHUNK).map_or(&self.tail, |c| c)
    }

    /// Step `i`, which must be below [`Trace::len`].
    #[inline]
    fn step(&self, i: usize) -> Step<'_> {
        self.chunk_of(i).step(i % CHUNK, i)
    }

    /// The `i`-th step, if present.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> Option<Step<'_>> {
        (i < self.len()).then(|| self.step(i))
    }

    /// The first step, if any.
    #[must_use]
    pub fn first(&self) -> Option<Step<'_>> {
        self.get(0)
    }

    /// The last step, if any.
    #[must_use]
    #[inline]
    pub fn last(&self) -> Option<Step<'_>> {
        self.len().checked_sub(1).map(|i| self.step(i))
    }

    /// Iterates the steps in execution order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterates the steps from index `start` on, in execution order. The
    /// seek is O(1); `start` at or past [`Trace::len`] yields nothing.
    #[must_use]
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let back = self.len();
        let front = start.min(back);
        Iter {
            trace: self,
            chunk: self.chunk_of(front),
            base: front - front % CHUNK,
            front,
            back,
        }
    }

    /// Materializes the trace as owned records (one copy of every step).
    #[must_use]
    pub fn to_vec(&self) -> Vec<StepRecord> {
        self.iter().map(Step::to_record).collect()
    }

    /// The steps thread `tid` executed, in order.
    #[must_use]
    pub fn project(&self, tid: ThreadId) -> Projection {
        Projection {
            trace: self.clone(),
            seqs: self
                .iter()
                .filter(|s| s.tid() == tid)
                .map(Step::seq)
                .collect(),
        }
    }
}

/// The steps of a [`Trace`] in execution order, walked chunk by chunk.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    trace: &'a Trace,
    /// The chunk holding the front, and the position of its first step.
    chunk: &'a Chunk,
    base: usize,
    /// The next step from the front.
    front: usize,
    /// One past the next step from the back.
    back: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Step<'a>;

    #[inline]
    fn next(&mut self) -> Option<Step<'a>> {
        if self.front >= self.back {
            return None;
        }
        if self.front - self.base == CHUNK {
            self.base = self.front;
            self.chunk = self.trace.chunk_of(self.front);
        }
        let step = self.chunk.step(self.front - self.base, self.front);
        self.front += 1;
        Some(step)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }

    fn nth(&mut self, n: usize) -> Option<Step<'a>> {
        self.front = self.front.saturating_add(n).min(self.back);
        self.base = self.front - self.front % CHUNK;
        self.chunk = self.trace.chunk_of(self.front);
        self.next()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.front < self.back).then(|| {
            self.back -= 1;
            self.trace.step(self.back)
        })
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = Step<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl FromIterator<StepRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = StepRecord>>(iter: I) -> Self {
        let mut t = Trace::new();
        for rec in iter {
            t.push(&rec);
        }
        t
    }
}

impl From<Vec<StepRecord>> for Trace {
    fn from(records: Vec<StepRecord>) -> Self {
        records.into_iter().collect()
    }
}

/// The steps one thread executed in a trace, in order. It shares the
/// trace's chunks and stores only the steps' positions.
#[derive(Clone, Debug, Default)]
pub struct Projection {
    trace: Trace,
    seqs: Vec<usize>,
}

impl Projection {
    /// Number of steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Whether the thread executed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// The thread's `i`-th step, if present.
    #[must_use]
    #[inline]
    pub fn get(&self, i: usize) -> Option<Step<'_>> {
        self.seqs.get(i).map(|&s| self.trace.step(s))
    }

    /// Iterates the thread's steps from its `start`-th on.
    pub fn iter_from(
        &self,
        start: usize,
    ) -> impl DoubleEndedIterator<Item = Step<'_>> + ExactSizeIterator + '_ {
        let from = start.min(self.seqs.len());
        self.seqs[from..].iter().map(|&s| self.trace.step(s))
    }

    /// Iterates the thread's steps.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Step<'_>> + ExactSizeIterator + '_ {
        self.iter_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::events::AccessKind;

    /// Step `seq`: its index doubles as its instruction, so a view's
    /// position shows in what it reads.
    fn rec(seq: usize) -> StepRecord {
        StepRecord {
            accesses: (0..seq % 3)
                .map(|k| MemAccess {
                    addr: Addr(0x1000 + 8 * (seq + k) as u64),
                    kind: AccessKind::Write,
                })
                .collect(),
            locks_held: (0..seq % 4).map(|k| LockId(k as u16)).collect(),
            ..StepRecord::new(
                ThreadId(0),
                InstrAddr {
                    prog: ThreadProgId(0),
                    index: seq,
                },
            )
        }
    }

    fn index(s: Step<'_>) -> usize {
        s.at().index
    }

    #[test]
    fn push_len_get_roundtrip_across_chunk_boundaries() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        let n = CHUNK * 2 + 7;
        for i in 0..n {
            t.push(&rec(i));
            assert_eq!(t.len(), i + 1);
            assert_eq!(index(t.last().unwrap()), i);
        }
        for i in 0..n {
            assert_eq!(index(t.get(i).unwrap()), i);
            assert_eq!(t.get(i).unwrap().seq(), i);
            assert_eq!(t.get(i).unwrap().to_record(), rec(i));
        }
        assert!(t.get(n).is_none());
        let seqs: Vec<usize> = t.iter().map(index).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        assert_eq!(t.to_vec().len(), n);
    }

    #[test]
    fn clone_shares_chunks_and_stays_isolated() {
        let mut t = Trace::new();
        for i in 0..CHUNK + 3 {
            t.push(&rec(i));
        }
        let snap = t.clone();
        // The sealed chunk is shared, not copied.
        assert!(Arc::ptr_eq(&t.sealed[0], &snap.sealed[0]));
        // Appending to the original never shows through the clone.
        for i in 0..CHUNK {
            t.push(&rec(1000 + i));
        }
        assert_eq!(snap.len(), CHUNK + 3);
        assert_eq!(index(snap.last().unwrap()), CHUNK + 2);
    }

    #[test]
    fn iter_from_equals_skip_across_sealed_chunks_and_the_tail() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let t: Trace = (0..n).map(rec).collect();
            for k in 0..=n + 1 {
                let want: Vec<usize> = t.iter().skip(k).map(index).collect();
                let got: Vec<usize> = t.iter_from(k).map(index).collect();
                assert_eq!(got, want, "len {n}, start {k}");
                assert_eq!(t.iter_from(k).len(), want.len(), "len {n}, start {k}");
                let back: Vec<usize> = t.iter_from(k).rev().map(index).collect();
                assert_eq!(back, want.iter().rev().copied().collect::<Vec<_>>());
            }
            // Walking from both ends meets in the middle exactly once.
            let mut it = t.iter();
            let mut seen = Vec::new();
            while let Some(r) = it.next() {
                seen.push(index(r));
                if let Some(r) = it.next_back() {
                    seen.push(index(r));
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "len {n}");
        }
    }

    #[test]
    fn index_first_and_from_vec_agree_with_get() {
        let t: Trace = (0..3).map(rec).collect();
        assert_eq!(index(t.first().unwrap()), 0);
        assert_eq!(index(t.get(2).unwrap()), 2);
        let v = t.to_vec();
        assert_eq!(Trace::from(v), t);
    }

    #[test]
    fn locksets_are_interned_once_per_chunk() {
        let held = [LockId(4), LockId(2)];
        let t: Trace = (0..CHUNK + 2)
            .map(|i| StepRecord {
                locks_held: if i % 2 == 0 { held.to_vec() } else { vec![] },
                ..rec(0)
            })
            .collect();
        for chunk in t.chunks() {
            assert_eq!(chunk.lockset_count(), 2, "the empty set and one other");
            assert_eq!(chunk.lockset(1), &held);
        }
        assert!(t
            .iter()
            .all(|s| s.locks_held() == held || s.locks_held().is_empty()));
    }

    #[test]
    fn push_row_refuses_what_a_view_could_not_read() {
        let at = InstrAddr {
            prog: ThreadProgId(1),
            index: 2,
        };
        let access = MemAccess {
            addr: Addr(8),
            kind: AccessKind::Read,
        };
        let mut c = Chunk::default();
        assert!(
            !c.push_row(ThreadId(0), at, 1, 0, StepEvent::None),
            "first offset is 0"
        );
        assert!(
            !c.push_row(ThreadId(0), at, 0, 1, StepEvent::None),
            "no lockset 1 yet"
        );
        assert_eq!(c.push_lockset(&[LockId(3)]), Some(1));
        c.push_access(access);
        assert!(c.push_row(ThreadId(0), at, 0, 1, StepEvent::None));
        assert!(
            !c.push_row(ThreadId(0), at, 2, 0, StepEvent::None),
            "past the buffer"
        );
        assert!(c.push_row(ThreadId(0), at, 1, 0, StepEvent::None));
        assert!(
            !c.push_row(ThreadId(0), at, 0, 0, StepEvent::None),
            "offsets never fall"
        );
        let wide = InstrAddr {
            index: usize::MAX,
            ..at
        };
        assert!(!c.push_row(ThreadId(0), wide, 1, 0, StepEvent::None));
        let mut t = Trace::new();
        assert!(!t.push_chunk(Chunk::default()), "empty chunk");
        assert!(t.push_chunk(c.clone()));
        assert!(!t.push_chunk(c), "only the last chunk may be partial");
        assert_eq!(t.get(0).unwrap().accesses(), &[access]);
        assert_eq!(t.get(0).unwrap().locks_held(), &[LockId(3)]);
        assert!(t.get(1).unwrap().accesses().is_empty());
        assert!(t.get(1).unwrap().locks_held().is_empty());
    }

    #[test]
    fn projections_pick_each_threads_steps() {
        let t: Trace = (0..CHUNK + 5)
            .map(|i| StepRecord {
                tid: ThreadId((i % 3) as u32),
                ..rec(i)
            })
            .collect();
        for tid in 0..3 {
            let p = t.project(ThreadId(tid as u32));
            let want: Vec<usize> = (0..t.len()).filter(|i| i % 3 == tid).collect();
            assert_eq!(p.iter().map(index).collect::<Vec<_>>(), want);
            assert_eq!(p.len(), want.len());
            assert_eq!(index(p.get(1).unwrap()), want[1]);
            assert_eq!(p.iter_from(2).count(), want.len() - 2);
        }
        assert!(t.project(ThreadId(3)).is_empty());
    }

    /// Engines running random programs under random thread choices: every
    /// step's view reads back what the step observed, the trace's accessors
    /// agree with each other, snapshots share sealed chunks, and what runs
    /// after a restore never shows through a snapshot.
    mod engine_traces {
        use super::*;
        use crate::addr::GlobalId;
        use crate::builder::ProgramBuilder;
        use crate::engine::Engine;
        use crate::events::StepOutcome;
        use crate::instr::{
            AddrExpr,
            Instr, //
        };
        use crate::program::Program;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One generated instruction.
        #[derive(Clone, Copy, Debug)]
        enum Op {
            Load(u8),
            Store(u8),
            Add(u8),
            Lock(u8),
            Unlock(u8),
            Spawn,
            Alloc(u8),
            Free,
            LoadFreed,
            Nop,
        }

        fn op() -> impl Strategy<Value = Op> {
            // Memory traffic and locking come twice as often as the rest.
            prop_oneof![
                (0u8..3).prop_map(Op::Load),
                (0u8..3).prop_map(Op::Load),
                (0u8..3).prop_map(Op::Store),
                (0u8..3).prop_map(Op::Store),
                (0u8..3).prop_map(Op::Add),
                (0u8..2).prop_map(Op::Lock),
                (0u8..2).prop_map(Op::Lock),
                (0u8..2).prop_map(Op::Unlock),
                (0u8..2).prop_map(Op::Unlock),
                Just(Op::Spawn),
                (1u8..5).prop_map(Op::Alloc),
                Just(Op::Free),
                Just(Op::LoadFreed),
                Just(Op::Nop),
            ]
        }

        /// Two or three syscall threads and a kworker they may queue. Each
        /// thread's ops are mended so that it releases only locks it holds
        /// (and all of them before it returns) and frees only what it
        /// allocated, so runs grow long; threads still contend, block and
        /// deadlock. With `faults`, a load through a freed pointer or a
        /// second free is left in place and fails the run.
        fn program(threads: &[Vec<Op>], faults: bool) -> Arc<Program> {
            let mut p = ProgramBuilder::new("random");
            let globals: Vec<GlobalId> = (0..3).map(|g| p.global(&format!("g{g}"), 0)).collect();
            let locks: Vec<LockId> = (0..2).map(|l| p.lock(&format!("l{l}"))).collect();
            let worker = {
                let mut w = p.kworker_thread("worker");
                w.fetch_add_global(globals[0], 1u64);
                w.ret();
                w.id()
            };
            for (i, ops) in threads.iter().enumerate() {
                let mut t = p.syscall_thread(&format!("T{i}"), "random");
                let mut held = [false; 2];
                let mut allocated = false;
                for &op in ops {
                    let op = match op {
                        Op::Lock(l) | Op::Unlock(l) => {
                            let l = usize::from(l);
                            held[l] = !held[l];
                            if held[l] {
                                Op::Lock(l as u8)
                            } else {
                                Op::Unlock(l as u8)
                            }
                        }
                        Op::Free | Op::LoadFreed if !allocated => Op::Alloc(2),
                        op => op,
                    };
                    allocated = match op {
                        Op::Alloc(_) => true,
                        Op::Free => faults,
                        _ => allocated,
                    };
                    match op {
                        Op::Load(g) => t.load_global("r0", globals[usize::from(g)]),
                        Op::Store(g) => t.store_global(globals[usize::from(g)], 1u64),
                        Op::Add(g) => t.fetch_add_global(globals[usize::from(g)], 1u64),
                        Op::Lock(l) => t.lock(locks[usize::from(l)]),
                        Op::Unlock(l) => t.unlock(locks[usize::from(l)]),
                        Op::Spawn => t.queue_work(worker, None),
                        Op::Alloc(words) => t.alloc("r1", 8 * u64::from(words)),
                        Op::Free => t.free("r1"),
                        Op::LoadFreed => t.load_ind("r2", "r1", 0),
                        Op::Nop => t.nop(),
                    };
                }
                for (l, &h) in held.iter().enumerate() {
                    if h {
                        t.unlock(locks[l]);
                    }
                }
                t.ret();
            }
            Arc::new(p.build().unwrap())
        }

        /// What stepping `tid` observes, worked out from the instruction
        /// and the engine before (`pre`) and after (`post`) the step;
        /// `allocs` maps each allocation base seen so far to its words.
        fn observed(
            pre: &Engine,
            post: &Engine,
            tid: ThreadId,
            outcome: StepOutcome,
            allocs: &HashMap<u64, u64>,
        ) -> StepRecord {
            let at = pre.next_instr(tid).unwrap();
            let th = pre.thread(tid).unwrap();
            let instr = pre.program().prog(at.prog).instrs[at.index];
            let reg = |r: crate::instr::Reg| th.regs[usize::from(r.0)];
            let access = |addr: Addr, kind| MemAccess { addr, kind };
            let addr = |e: AddrExpr| match e {
                AddrExpr::Global(g) => g.addr(),
                AddrExpr::Ind { base, offset } => Addr(reg(base)).offset(offset),
            };
            let failed = outcome == StepOutcome::Failed;
            let mut rec = StepRecord {
                locks_held: th.locks_held.clone(),
                ..StepRecord::new(tid, at)
            };
            match instr {
                Instr::Load { addr: a, .. } => {
                    rec.accesses = vec![access(addr(a), AccessKind::Read)]
                }
                Instr::Store { addr: a, .. } => {
                    rec.accesses = vec![access(addr(a), AccessKind::Write)];
                }
                Instr::FetchAdd { addr: a, .. } => {
                    rec.accesses = vec![access(addr(a), AccessKind::Rmw)];
                }
                Instr::Free { ptr } => {
                    let base = match ptr {
                        crate::instr::Operand::Reg(r) => reg(r),
                        crate::instr::Operand::Const(c) => c,
                    };
                    let words = allocs.get(&base).copied().unwrap_or(0).max(1);
                    rec.accesses = (0..words)
                        .map(|w| access(Addr(base).offset(8 * w), AccessKind::Write))
                        .collect();
                }
                Instr::Lock { lock } if !failed => {
                    rec.lock_event = Some(LockEvent::Acquired(lock));
                    rec.locks_held = post.thread(tid).unwrap().locks_held.clone();
                }
                Instr::Unlock { lock } if !failed => {
                    rec.lock_event = Some(LockEvent::Released(lock));
                }
                Instr::QueueWork { .. } => rec.spawned = Some(ThreadId(pre.threads().len() as u32)),
                _ => {}
            }
            rec
        }

        /// Whether `a` shares every sealed chunk of `b`'s, in place.
        fn shares_sealed(a: &Trace, b: &Trace) -> bool {
            b.sealed
                .iter()
                .zip(&a.sealed)
                .all(|(x, y)| Arc::ptr_eq(x, y))
                && a.sealed.len() >= b.sealed.len()
        }

        fn check_accessors(t: &Trace, want: &[StepRecord]) -> Result<(), String> {
            prop_assert_eq!(t.len(), want.len());
            prop_assert_eq!(&t.to_vec()[..], want);
            for k in 0..=t.len() {
                let from: Vec<StepRecord> = t.iter_from(k).map(Step::to_record).collect();
                prop_assert_eq!(&from[..], &want[k..]);
                prop_assert!(t.iter_from(k).map(Step::seq).eq(k..t.len()));
                if let Some(s) = t.get(k) {
                    prop_assert_eq!(s.seq(), k);
                    prop_assert_eq!(s, t.iter_from(k).next().unwrap());
                }
            }
            prop_assert!(t.get(t.len()).is_none());
            prop_assert_eq!(t.last().map(Step::to_record), want.last().cloned());
            prop_assert!(t.last().map(Step::seq) == t.len().checked_sub(1));
            prop_assert!(t
                .iter()
                .rev()
                .eq(t.iter_from(0).collect::<Vec<_>>().into_iter().rev()));
            Ok(())
        }

        /// Steps the engine by `choices` (each picks among the runnable
        /// threads, blocked ones included) until it halts, appending what
        /// each executed step observed to `want`.
        fn drive(
            e: &mut Engine,
            choices: &[usize],
            want: &mut Vec<StepRecord>,
            allocs: &mut HashMap<u64, u64>,
        ) -> Result<(), String> {
            for &c in choices {
                let candidates: Vec<ThreadId> = e
                    .threads()
                    .iter()
                    .filter(|t| {
                        !t.is_done() && t.status != crate::thread::ThreadStatus::WaitingGrace
                    })
                    .map(|t| t.id)
                    .collect();
                if e.halted() || candidates.is_empty() {
                    break;
                }
                let tid = candidates[c % candidates.len()];
                let pre = e.clone();
                let outcome = e.step(tid).unwrap();
                if matches!(outcome, StepOutcome::Blocked { .. }) {
                    prop_assert_eq!(
                        e.trace().len(),
                        want.len(),
                        "a blocked step records nothing"
                    );
                    continue;
                }
                let rec = observed(&pre, e, tid, outcome, allocs);
                if let Instr::Alloc { size, .. } =
                    pre.program().prog(rec.at.prog).instrs[rec.at.index]
                {
                    allocs.insert(e.thread(tid).unwrap().regs[1], size / 8);
                }
                prop_assert_eq!(e.trace().last().unwrap().to_record(), rec.clone());
                want.push(rec);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            #[test]
            fn views_read_back_what_each_step_observed(
                threads in prop::collection::vec(prop::collection::vec(op(), 0..64), 2..4),
                faults in 0u8..4,
                choices in prop::collection::vec(0usize..4, 0..320),
                cut in 0usize..320,
                after in prop::collection::vec(0usize..4, 0..120),
            ) {
                let mut e = Engine::new(program(&threads, faults == 0));
                let mut want = Vec::new();
                let mut allocs = HashMap::new();
                let cut = cut.min(choices.len());
                drive(&mut e, &choices[..cut], &mut want, &mut allocs)?;
                let at_snapshot = e.trace().clone();
                let snap = e.snapshot();
                let prefix = want.clone();
                drive(&mut e, &choices[cut..], &mut want, &mut allocs)?;
                check_accessors(e.trace(), &want)?;
                prop_assert!(shares_sealed(e.trace(), &at_snapshot));
                // A restore shares the snapshot's sealed chunks, and what
                // runs after it never shows through the snapshot.
                for _ in 0..2 {
                    e.restore(&snap);
                    prop_assert!(shares_sealed(e.trace(), &at_snapshot));
                    prop_assert!(shares_sealed(&at_snapshot, e.trace()));
                    check_accessors(e.trace(), &prefix)?;
                    let mut rerun = prefix.clone();
                    drive(&mut e, &after, &mut rerun, &mut allocs)?;
                    check_accessors(e.trace(), &rerun)?;
                    check_accessors(&at_snapshot, &prefix)?;
                }
            }
        }
    }
}
