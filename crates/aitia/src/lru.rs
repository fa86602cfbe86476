//! A least-recently-used store of values in buckets keyed by a 64-bit
//! hash, kept by each memo-table shard and by the snapshot forest.
//!
//! A key only names a bucket; the caller's own comparison picks the value
//! within it, so a hash collision costs a longer bucket, never a wrong
//! answer. A tick-ordered recency index finds the least recently used value
//! in O(log n) instead of a scan of the whole store.

use crate::fxhash::FxHashMap;
use std::collections::BTreeMap;

pub(crate) struct LruBuckets<V> {
    /// Values by key, each with its recency tick.
    buckets: FxHashMap<u64, Vec<(u64, V)>>,
    /// Recency order: tick → key. Ticks are unique, so the smallest names
    /// the least recently used value.
    recency: BTreeMap<u64, u64>,
    /// Monotone tick source.
    tick: u64,
    /// Values held across all buckets.
    len: usize,
}

impl<V> Default for LruBuckets<V> {
    fn default() -> Self {
        LruBuckets {
            buckets: FxHashMap::default(),
            recency: BTreeMap::new(),
            tick: 0,
            len: 0,
        }
    }
}

impl<V> LruBuckets<V> {
    /// Values held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The values filed under `key`, in bucket order.
    pub(crate) fn bucket(&self, key: u64) -> impl Iterator<Item = &V> {
        self.buckets.get(&key).into_iter().flatten().map(|(_, v)| v)
    }

    /// Marks the `pos`-th value of `key`'s bucket most recently used and
    /// returns it.
    pub(crate) fn touch(&mut self, key: u64, pos: usize) -> &V {
        self.tick += 1;
        let entry = &mut self.buckets.get_mut(&key).expect("bucket exists")[pos];
        self.recency.remove(&entry.0);
        entry.0 = self.tick;
        self.recency.insert(self.tick, key);
        &entry.1
    }

    /// Files `value` under `key` as the most recently used value, in place
    /// of the value of that bucket `same` picks, if any, and evicts the
    /// least recently used values past `cap`.
    pub(crate) fn put(&mut self, key: u64, value: V, cap: usize, same: impl Fn(&V) -> bool) {
        let bucket = self.buckets.entry(key).or_default();
        if let Some(pos) = bucket.iter().position(|(_, v)| same(v)) {
            bucket[pos].1 = value;
            self.touch(key, pos);
            return;
        }
        self.tick += 1;
        bucket.push((self.tick, value));
        self.recency.insert(self.tick, key);
        self.len += 1;
        while self.len > cap && !self.recency.is_empty() {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        let Some((tick, key)) = self.recency.pop_first() else {
            return;
        };
        let Some(bucket) = self.buckets.get_mut(&key) else {
            return;
        };
        let before = bucket.len();
        bucket.retain(|(t, _)| *t != tick);
        self.len -= before - bucket.len();
        // An emptied bucket must leave the map with its key: key churn
        // would otherwise grow the map without bound, every evicted
        // singleton key staying behind as a zero-length bucket.
        if bucket.is_empty() {
            self.buckets.remove(&key);
        }
    }

    /// `(bucket keys, live values, recency entries)` — test diagnostics
    /// for the bounded-occupancy invariant: bucket keys and recency
    /// entries may never outgrow live values.
    #[cfg(test)]
    pub(crate) fn diag(&self) -> (usize, usize, usize) {
        (
            self.buckets.len(),
            self.buckets.values().map(Vec::len).sum(),
            self.recency.len(),
        )
    }
}
