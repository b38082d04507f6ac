//! The concurrent key-value store.
//!
//! masstree serves GET/PUT/SCAN operations from many cores concurrently.  Our substitute
//! partitions the key space into range shards, each protected by a reader-writer lock
//! over a [`BPlusTree`](crate::bptree::BPlusTree): reads proceed concurrently within and
//! across shards, writes serialize only within their shard.  Range partitioning (rather
//! than hash partitioning) keeps scans ordered and mostly shard-local.

use crate::bptree::BPlusTree;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A sharded, ordered, concurrent key-value store mapping `u64` keys to byte values.
#[derive(Debug)]
pub struct KvStore {
    shards: Vec<RwLock<BPlusTree<u64, Vec<u8>>>>,
    /// Size of each contiguous key range assigned to one shard.
    range_per_shard: u64,
    /// Deepest shard's depth.  Trees never shrink, so raising it after every insert
    /// of a new key keeps it equal to a walk over all shards.
    depth: AtomicUsize,
}

impl KvStore {
    /// Creates a store with `shards` range-partitions covering keys `0..capacity_hint`.
    /// Keys at or beyond `capacity_hint` all land in the last shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: usize, capacity_hint: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        let range_per_shard = (capacity_hint / shards as u64).max(1);
        KvStore {
            shards: (0..shards).map(|_| RwLock::new(BPlusTree::new())).collect(),
            range_per_shard,
            depth: AtomicUsize::new(1),
        }
    }

    /// Creates a store like [`KvStore::new`] and loads `entries` into it, with the
    /// same contents and shard trees as calling [`KvStore::put`] for each entry in
    /// order.
    ///
    /// Entries are streamed: each run of consecutive entries for one shard is built
    /// as soon as the run ends, through exclusive access rather than the shard's
    /// lock.  A strictly ascending run into an empty shard is bulk-loaded with
    /// [`BPlusTree::from_sorted`]; any other run is inserted key by key.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn from_sorted(
        shards: usize,
        capacity_hint: u64,
        entries: impl IntoIterator<Item = (u64, Vec<u8>)>,
    ) -> Self {
        let mut store = Self::new(shards, capacity_hint);
        let mut run = None;
        let (mut keys, mut values) = (Vec::new(), Vec::new());
        for (key, value) in entries {
            let shard = store.shard_for(key);
            if run != Some(shard) {
                store.load_run(run, &mut keys, &mut values);
                run = Some(shard);
            }
            keys.push(key);
            values.push(value);
        }
        store.load_run(run, &mut keys, &mut values);
        let depth = store.shards.iter_mut().map(|s| s.get_mut().depth()).max();
        *store.depth.get_mut() = depth.unwrap_or(1);
        store
    }

    /// Moves one shard's run of entries into that shard (see [`KvStore::from_sorted`]).
    fn load_run(&mut self, shard: Option<usize>, keys: &mut Vec<u64>, values: &mut Vec<Vec<u8>>) {
        // The next run is likely as long as this one.
        let mut keys = std::mem::replace(keys, Vec::with_capacity(keys.len()));
        let mut values = std::mem::replace(values, Vec::with_capacity(values.len()));
        let Some(tree) = shard.and_then(|s| self.shards.get_mut(s)) else {
            return;
        };
        let tree = tree.get_mut();
        if tree.is_empty() {
            match BPlusTree::from_sorted(keys, values) {
                Ok(built) => {
                    *tree = built;
                    return;
                }
                Err(rejected) => (keys, values) = rejected,
            }
        }
        for (key, value) in keys.into_iter().zip(values) {
            tree.insert(key, value);
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: u64) -> usize {
        ((key / self.range_per_shard) as usize).min(self.shards.len() - 1)
    }

    /// Inserts or overwrites a key. Returns `true` if the key already existed.
    pub fn put(&self, key: u64, value: Vec<u8>) -> bool {
        let mut shard = self.shards[self.shard_for(key)].write();
        let existed = shard.insert(key, value).is_some();
        // Only a new key can split nodes and deepen the tree.
        if !existed {
            self.depth.fetch_max(shard.depth(), Ordering::Relaxed);
        }
        existed
    }

    /// Reads a key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        self.shards[self.shard_for(key)].read().get(&key).cloned()
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<Vec<u8>> {
        self.shards[self.shard_for(key)].write().remove(&key)
    }

    /// Returns up to `limit` entries with keys `>= start` in ascending order, possibly
    /// spanning multiple shards.
    #[must_use]
    pub fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::with_capacity(limit.min(128));
        let mut shard = self.shard_for(start);
        let mut cursor = start;
        while out.len() < limit && shard < self.shards.len() {
            let chunk = self.shards[shard].read().scan(&cursor, limit - out.len());
            out.extend(chunk);
            shard += 1;
            cursor = (shard as u64) * self.range_per_shard;
        }
        out
    }

    /// Total number of entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Returns `true` if the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum B+-tree depth across shards (a proxy for per-request pointer chases).
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// [`KvStore::max_depth`] recomputed by walking every shard under its lock.
    #[cfg(test)]
    pub(crate) fn walked_max_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().depth())
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove_across_shards() {
        let store = KvStore::new(8, 1_000);
        for k in 0..1_000u64 {
            assert!(!store.put(k, vec![k as u8]));
        }
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.get(999), Some(vec![231]));
        assert!(store.put(999, vec![1, 2, 3]));
        assert_eq!(store.get(999), Some(vec![1, 2, 3]));
        assert_eq!(store.remove(500), Some(vec![244]));
        assert_eq!(store.get(500), None);
        assert_eq!(store.len(), 999);
    }

    #[test]
    fn scan_crosses_shard_boundaries_in_order() {
        let store = KvStore::new(4, 400);
        for k in 0..400u64 {
            store.put(k, vec![(k % 251) as u8]);
        }
        // A scan starting near the end of shard 0 (keys 0..100) must continue into shard 1.
        let result = store.scan(95, 20);
        assert_eq!(result.len(), 20);
        let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (95..115).collect::<Vec<u64>>());
    }

    #[test]
    fn keys_beyond_capacity_hint_land_in_last_shard() {
        let store = KvStore::new(4, 100);
        store.put(1_000_000, vec![9]);
        assert_eq!(store.get(1_000_000), Some(vec![9]));
        assert_eq!(store.shard_for(1_000_000), 3);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let store = Arc::new(KvStore::new(16, 10_000));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..2_500u64 {
                        let key = t * 2_500 + i;
                        store.put(key, key.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.len(), 10_000);
        for key in [0u64, 2_499, 2_500, 9_999] {
            assert_eq!(store.get(key), Some(key.to_le_bytes().to_vec()));
        }
    }

    fn put_loop(entries: &[(u64, Vec<u8>)]) -> KvStore {
        let store = KvStore::new(4, 1_000);
        for (key, value) in entries {
            store.put(*key, value.clone());
        }
        store
    }

    fn assert_same_contents(got: &KvStore, want: &KvStore) {
        assert_eq!(got.len(), want.len());
        assert_eq!(got.scan(0, usize::MAX), want.scan(0, usize::MAX));
        assert_eq!(got.max_depth(), want.max_depth());
        assert_eq!(got.max_depth(), got.walked_max_depth());
    }

    #[test]
    fn from_sorted_equals_a_put_loop() {
        let entries: Vec<(u64, Vec<u8>)> = (0..1_000u64).map(|k| (k, vec![k as u8])).collect();
        let store = KvStore::from_sorted(4, 1_000, entries.clone());
        assert_same_contents(&store, &put_loop(&entries));
        assert_eq!(store.max_depth(), 2, "250 keys per shard need two levels");
    }

    #[test]
    fn from_sorted_falls_back_to_inserts_for_out_of_order_entries() {
        let mut entries: Vec<(u64, Vec<u8>)> = (0..1_000u64).map(|k| (k, vec![k as u8])).collect();
        // One key out of order inside shard 1's run, then a duplicate of a shard-0 key
        // after shard 0's run has closed, and a key past the capacity hint.
        entries.swap(300, 420);
        entries.push((7, vec![70]));
        entries.push((5_000, vec![50]));
        let store = KvStore::from_sorted(4, 1_000, entries.clone());
        assert_same_contents(&store, &put_loop(&entries));
        assert_eq!(store.get(7), Some(vec![70]), "the later write wins");
        assert_eq!(store.len(), 1_001);
        assert!(KvStore::from_sorted(4, 1_000, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = KvStore::new(0, 100);
    }
}
