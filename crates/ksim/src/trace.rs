//! The execution trace as a structurally-shared chunked sequence.
//!
//! Snapshots capture the whole trace-so-far, and a diagnosis takes
//! thousands of snapshots: storing the trace as a plain `Vec<StepRecord>`
//! made every [`crate::Engine::snapshot`] / [`crate::Engine::restore`] pair
//! copy every record ever executed. [`Trace`] instead keeps records behind
//! [`Arc`]s and groups full records into sealed immutable chunks, so
//! cloning a trace costs one reference-count bump per chunk (plus the
//! unsealed tail) instead of a deep copy per record — O(len / CHUNK), not
//! O(total record bytes).
//!
//! Sealed chunks are never mutated, which is what makes sharing them
//! between an engine and any number of live snapshots sound: appending
//! only ever touches the tail, and the tail is never shared (cloning
//! copies its `Arc`s, and those point at immutable records).

use crate::events::StepRecord;
use std::sync::Arc;

/// Records per sealed chunk. Chosen so typical schedule prefixes (tens to
/// a few hundred steps) seal a handful of chunks while the clone cost of
/// the unsealed tail stays bounded.
const CHUNK: usize = 64;

/// A structurally-shared, append-only sequence of [`StepRecord`]s.
///
/// Cloning is cheap (reference-count bumps); records themselves are
/// immutable once appended.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Full chunks of exactly [`CHUNK`] records, immutable once sealed.
    sealed: Vec<Arc<[Arc<StepRecord>]>>,
    /// The unsealed suffix, at most [`CHUNK`] - 1 records after `push`.
    tail: Vec<Arc<StepRecord>>,
}

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK + self.tail.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty() && self.tail.is_empty()
    }

    /// Appends a record. The record is stored exactly once; callers that
    /// also need it keep their own `Arc` clone.
    pub fn push(&mut self, rec: Arc<StepRecord>) {
        self.tail.push(rec);
        if self.tail.len() == CHUNK {
            self.sealed.push(std::mem::take(&mut self.tail).into());
        }
    }

    /// The `i`-th record, if present.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&StepRecord> {
        let chunk = i / CHUNK;
        if chunk < self.sealed.len() {
            Some(&self.sealed[chunk][i % CHUNK])
        } else {
            self.tail.get(i - self.sealed.len() * CHUNK).map(|r| &**r)
        }
    }

    /// The first record, if any.
    #[must_use]
    pub fn first(&self) -> Option<&StepRecord> {
        self.get(0)
    }

    /// The last record, if any.
    #[must_use]
    pub fn last(&self) -> Option<&StepRecord> {
        match self.tail.last() {
            Some(r) => Some(r),
            None => self.sealed.last().and_then(|c| c.last()).map(|r| &**r),
        }
    }

    /// Iterates the records in execution order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        self.iter_from(0)
    }

    /// Iterates the records from index `start` on, in execution order.
    /// The seek costs one division: the iterator starts inside the chunk
    /// holding `start` instead of stepping over every earlier record.
    /// `start` at or past [`Trace::len`] yields nothing.
    #[must_use]
    pub fn iter_from(&self, start: usize) -> Iter<'_> {
        let chunk = start / CHUNK;
        let (current, sealed, tail): (&[_], &[_], &[_]) = match self.sealed.get(chunk) {
            Some(c) => (&c[start % CHUNK..], &self.sealed[chunk + 1..], &self.tail),
            None => {
                let skip = (start - self.sealed.len() * CHUNK).min(self.tail.len());
                (&self.tail[skip..], &[], &[])
            }
        };
        Iter {
            current: current.iter(),
            sealed: sealed.iter(),
            tail,
            back: [].iter(),
        }
    }

    /// Materializes the trace as a flat owned vector (one deep copy of
    /// every record).
    #[must_use]
    pub fn to_vec(&self) -> Vec<StepRecord> {
        self.iter().cloned().collect()
    }
}

/// The records of a [`Trace`] in execution order, walked chunk by chunk.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    /// What is left of the chunk being walked from the front.
    current: std::slice::Iter<'a, Arc<StepRecord>>,
    /// The sealed chunks after it.
    sealed: std::slice::Iter<'a, Arc<[Arc<StepRecord>]>>,
    /// The unsealed tail, walked once the sealed chunks run out (empty
    /// once it has been taken up as `current`).
    tail: &'a [Arc<StepRecord>],
    /// What is left of the chunk being walked from the back.
    back: std::slice::Iter<'a, Arc<StepRecord>>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a StepRecord;

    fn next(&mut self) -> Option<&'a StepRecord> {
        loop {
            if let Some(rec) = self.current.next() {
                return Some(rec);
            }
            if let Some(chunk) = self.sealed.next() {
                self.current = chunk.iter();
            } else if !self.tail.is_empty() {
                self.current = std::mem::take(&mut self.tail).iter();
            } else {
                return self.back.next().map(|r| &**r);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.current.len() + self.sealed.len() * CHUNK + self.tail.len() + self.back.len();
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.back.next_back() {
                return Some(rec);
            }
            if let Some((last, rest)) = self.tail.split_last() {
                self.tail = rest;
                return Some(last);
            }
            if let Some(chunk) = self.sealed.next_back() {
                self.back = chunk.iter();
            } else {
                return self.current.next_back().map(|r| &**r);
            }
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a StepRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = StepRecord;

    fn index(&self, i: usize) -> &StepRecord {
        self.get(i).expect("trace index out of bounds")
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
            t.push(Arc::new(rec));
        }
        t
    }
}

impl From<Vec<StepRecord>> for Trace {
    fn from(records: Vec<StepRecord>) -> Self {
        records.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::ThreadProgId;
    use crate::program::InstrAddr;
    use crate::thread::ThreadId;

    fn rec(seq: usize) -> Arc<StepRecord> {
        Arc::new(StepRecord {
            seq,
            tid: ThreadId(0),
            at: InstrAddr {
                prog: ThreadProgId(0),
                index: seq,
            },
            accesses: vec![],
            branch_taken: None,
            lock_event: None,
            locks_held: vec![],
            spawned: None,
            next_pc: Some(seq + 1),
        })
    }

    #[test]
    fn push_len_get_roundtrip_across_chunk_boundaries() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        let n = CHUNK * 2 + 7;
        for i in 0..n {
            t.push(rec(i));
            assert_eq!(t.len(), i + 1);
            assert_eq!(t.last().unwrap().seq, i);
        }
        for i in 0..n {
            assert_eq!(t.get(i).unwrap().seq, i);
        }
        assert!(t.get(n).is_none());
        let seqs: Vec<usize> = t.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
        assert_eq!(t.to_vec().len(), n);
    }

    #[test]
    fn clone_shares_chunks_and_stays_isolated() {
        let mut t = Trace::new();
        for i in 0..CHUNK + 3 {
            t.push(rec(i));
        }
        let snap = t.clone();
        // The sealed chunk is shared, not copied.
        assert!(Arc::ptr_eq(&t.sealed[0], &snap.sealed[0]));
        // Appending to the original never shows through the clone.
        for i in 0..CHUNK {
            t.push(rec(1000 + i));
        }
        assert_eq!(snap.len(), CHUNK + 3);
        assert_eq!(snap.last().unwrap().seq, CHUNK + 2);
    }

    #[test]
    fn iter_from_equals_skip_across_sealed_chunks_and_the_tail() {
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17] {
            let t: Trace = (0..n).map(|i| (*rec(i)).clone()).collect();
            for k in 0..=n + 1 {
                let want: Vec<usize> = t.iter().skip(k).map(|r| r.seq).collect();
                let got: Vec<usize> = t.iter_from(k).map(|r| r.seq).collect();
                assert_eq!(got, want, "len {n}, start {k}");
                assert_eq!(t.iter_from(k).len(), want.len(), "len {n}, start {k}");
                let back: Vec<usize> = t.iter_from(k).rev().map(|r| r.seq).collect();
                assert_eq!(back, want.iter().rev().copied().collect::<Vec<_>>());
            }
            // Walking from both ends meets in the middle exactly once.
            let mut it = t.iter();
            let mut seen = Vec::new();
            while let Some(r) = it.next() {
                seen.push(r.seq);
                if let Some(r) = it.next_back() {
                    seen.push(r.seq);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "len {n}");
        }
    }

    #[test]
    fn index_first_and_from_vec_agree_with_get() {
        let t: Trace = (0..3).map(|i| (*rec(i)).clone()).collect();
        assert_eq!(t.first().unwrap().seq, 0);
        assert_eq!(t[2].seq, 2);
        let v = t.to_vec();
        assert_eq!(Trace::from(v), t);
    }
}
