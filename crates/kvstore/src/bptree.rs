//! An in-memory B+-tree.
//!
//! masstree's core is a cache-optimized ordered index; this module provides the ordered
//! index underlying our substitute store: a B+-tree with wide nodes (to keep the tree
//! shallow and cache-friendly) and ordered range scans.  Deletions are *lazy*: keys are
//! removed from their leaf without rebalancing, which keeps the implementation simple at
//! the cost of occasionally under-full leaves — a deliberate trade-off documented in
//! DESIGN.md (YCSB-style workloads never shrink the tree).

use std::fmt::Debug;

/// Maximum number of keys a node holds before it splits.
const MAX_KEYS: usize = 31;

/// Keys in each half of a split leaf (and the fewest the last leaf of an ascending
/// load holds once there are two leaves).
const LEAF_FILL: usize = MAX_KEYS.div_ceil(2);

/// Children kept by the left half of a split internal node; the right half keeps
/// `MAX_KEYS + 2 - INTERNAL_FILL`, which equals `LEAF_FILL`.
const INTERNAL_FILL: usize = LEAF_FILL + 1;

#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        values: Vec<V>,
    },
    Internal {
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
}

impl<K: Ord + Clone, V> Node<K, V> {
    fn new_leaf() -> Self {
        Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Inserts `key`/`value`; returns the previous value if the key existed, and a split
    /// (separator key + new right sibling) if this node overflowed.
    #[allow(clippy::type_complexity)]
    fn insert(&mut self, key: K, value: V) -> (Option<V>, Option<(K, Node<K, V>)>) {
        match self {
            Node::Leaf { keys, values } => match keys.binary_search(&key) {
                Ok(i) => {
                    let old = std::mem::replace(&mut values[i], value);
                    (Some(old), None)
                }
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_values = values.split_off(mid);
                        let sep = right_keys[0].clone();
                        (
                            None,
                            Some((
                                sep,
                                Node::Leaf {
                                    keys: right_keys,
                                    values: right_values,
                                },
                            )),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(&key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                let (old, split) = children[idx].insert(key, value);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        let mid = keys.len() / 2;
                        let sep_up = keys[mid].clone();
                        let right_keys = keys.split_off(mid + 1);
                        keys.pop(); // the separator moves up, it does not stay in either node
                        let right_children = children.split_off(mid + 1);
                        return (
                            old,
                            Some((
                                sep_up,
                                Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            )),
                        );
                    }
                }
                (old, None)
            }
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        match self {
            Node::Leaf { keys, values } => keys.binary_search(key).ok().map(|i| &values[i]),
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                children[idx].get(key)
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        match self {
            Node::Leaf { keys, values } => keys.binary_search(key).ok().map(|i| {
                keys.remove(i);
                values.remove(i)
            }),
            Node::Internal { keys, children } => {
                let idx = match keys.binary_search(key) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                children[idx].remove(key)
            }
        }
    }

    /// Appends up to `limit - out.len()` entries with key >= `start` in key order.
    fn scan_into(&self, start: &K, limit: usize, out: &mut Vec<(K, V)>)
    where
        V: Clone,
    {
        if out.len() >= limit {
            return;
        }
        match self {
            Node::Leaf { keys, values } => {
                let begin = match keys.binary_search(start) {
                    Ok(i) | Err(i) => i,
                };
                for i in begin..keys.len() {
                    if out.len() >= limit {
                        return;
                    }
                    out.push((keys[i].clone(), values[i].clone()));
                }
            }
            Node::Internal { keys, children } => {
                let begin = match keys.binary_search(start) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                for child in &children[begin..] {
                    if out.len() >= limit {
                        return;
                    }
                    child.scan_into(start, limit, out);
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Internal { children, .. } => 1 + children[0].depth(),
        }
    }
}

/// Sizes of the nodes that ascending inserts split `total` entries of one level into:
/// `full` each, except the last, which keeps the rest (`LEAF_FILL..LEAF_FILL + full`
/// once the level has two nodes).  Splitting a leaf leaves `LEAF_FILL` keys on each
/// side and splitting an internal node leaves `full` children on the left and
/// `LEAF_FILL` on the right; later inserts only grow the rightmost node.
fn node_sizes(total: usize, full: usize) -> impl Iterator<Item = usize> {
    let nodes = total.saturating_sub(LEAF_FILL) / full + 1;
    (1..=nodes).map(move |i| {
        if i < nodes {
            full
        } else {
            total - full * (nodes - 1)
        }
    })
}

/// An ordered map implemented as a B+-tree.
///
/// # Example
///
/// ```
/// use tailbench_kvstore::bptree::BPlusTree;
///
/// let mut tree = BPlusTree::new();
/// tree.insert(3u64, "three");
/// tree.insert(1, "one");
/// assert_eq!(tree.get(&1), Some(&"one"));
/// assert_eq!(tree.len(), 2);
/// let entries = tree.scan(&0, 10);
/// assert_eq!(entries[0].0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Node<K, V>,
    len: usize,
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        BPlusTree {
            root: Node::new_leaf(),
            len: 0,
        }
    }

    /// Builds a tree bottom-up from strictly ascending `keys` and their `values`.
    ///
    /// The result is node for node the tree that inserting the pairs one at a time in
    /// ascending order builds, so its depth (and anything derived from it) is the
    /// same: every leaf holds 16 keys except the last, which holds 16–31; every
    /// internal node holds 17 children except the last, which holds 16–32; each
    /// separator is the minimum key of the subtree to its right.  Nodes are allocated
    /// at their exact size rather than grown and split.
    ///
    /// # Errors
    ///
    /// Returns the inputs unchanged if the keys are not strictly ascending (unsorted
    /// or duplicated) or the two vectors differ in length.
    ///
    /// # Example
    ///
    /// ```
    /// use tailbench_kvstore::bptree::BPlusTree;
    ///
    /// let tree = BPlusTree::from_sorted(vec![1u64, 2, 3], vec!["a", "b", "c"]).unwrap();
    /// assert_eq!(tree.get(&2), Some(&"b"));
    /// assert!(BPlusTree::from_sorted(vec![2u64, 1], vec!["b", "a"]).is_err());
    /// ```
    #[allow(clippy::type_complexity)]
    pub fn from_sorted(keys: Vec<K>, values: Vec<V>) -> Result<Self, (Vec<K>, Vec<V>)> {
        if keys.len() != values.len() || keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err((keys, values));
        }
        let len = keys.len();
        // One level of the tree: each node with the minimum key of its subtree.
        let mut level = Vec::with_capacity(len / LEAF_FILL + 1);
        let (mut keys, mut values) = (keys.into_iter(), values.into_iter());
        for size in node_sizes(len, LEAF_FILL) {
            let leaf_keys: Vec<K> = keys.by_ref().take(size).collect();
            let leaf_values: Vec<V> = values.by_ref().take(size).collect();
            if let Some(min) = leaf_keys.first().cloned() {
                level.push((
                    min,
                    Node::Leaf {
                        keys: leaf_keys,
                        values: leaf_values,
                    },
                ));
            }
        }
        while level.len() > 1 {
            let count = level.len();
            let mut below = level.into_iter();
            level = Vec::with_capacity(count / INTERNAL_FILL + 1);
            for size in node_sizes(count, INTERNAL_FILL) {
                let mut group = below.by_ref().take(size);
                if let Some((min, first)) = group.next() {
                    let mut keys = Vec::with_capacity(size - 1);
                    let mut children = Vec::with_capacity(size);
                    children.push(first);
                    for (sep, child) in group {
                        keys.push(sep);
                        children.push(child);
                    }
                    level.push((min, Node::Internal { keys, children }));
                }
            }
        }
        let root = level
            .into_iter()
            .next()
            .map_or_else(Node::new_leaf, |(_, node)| node);
        Ok(BPlusTree { root, len })
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree (1 for a single leaf).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Inserts a key/value pair, returning the previous value for the key if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let (old, split) = self.root.insert(key, value);
        if old.is_none() {
            self.len += 1;
        }
        if let Some((sep, right)) = split {
            let old_root = std::mem::replace(&mut self.root, Node::new_leaf());
            self.root = Node::Internal {
                keys: vec![sep],
                children: vec![old_root, right],
            };
        }
        old
    }

    /// Looks up a key.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.root.get(key)
    }

    /// Returns `true` if the key is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Removes a key, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let removed = self.root.remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Returns up to `limit` entries with keys `>= start`, in ascending key order.
    #[must_use]
    pub fn scan(&self, start: &K, limit: usize) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut out = Vec::with_capacity(limit.min(128));
        self.root.scan_into(start, limit, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut t = BPlusTree::new();
        assert!(t.is_empty());
        // 7 and 1000 are coprime, so i*7 mod 1000 enumerates every key exactly once.
        for i in 0..1000u64 {
            assert!(t.insert(i * 7 % 1000, i).is_none());
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            let key = i * 7 % 1000;
            assert_eq!(t.get(&key), Some(&i));
        }
        assert!(t.contains_key(&500));
        assert!(!t.contains_key(&1000));
    }

    #[test]
    fn overwrites_return_previous_value() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(1u64, "a"), None);
        assert_eq!(t.insert(1, "b"), Some("a"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&1), Some(&"b"));
    }

    #[test]
    fn large_insert_keeps_tree_shallow() {
        let mut t = BPlusTree::new();
        for i in 0..100_000u64 {
            t.insert(i, i * 2);
        }
        assert_eq!(t.len(), 100_000);
        // With 31-key nodes, 100k entries needs only a handful of levels.
        assert!(t.depth() <= 5, "depth = {}", t.depth());
        assert_eq!(t.get(&99_999), Some(&199_998));
    }

    #[test]
    fn scan_returns_sorted_prefix() {
        let mut t = BPlusTree::new();
        for i in (0..500u64).rev() {
            t.insert(i, i);
        }
        let s = t.scan(&100, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0].0, 100);
        assert_eq!(s[9].0, 109);
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
        // Scan past the end.
        let tail = t.scan(&495, 100);
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn remove_deletes_entries() {
        let mut t = BPlusTree::new();
        for i in 0..2_000u64 {
            t.insert(i, i);
        }
        for i in (0..2_000u64).step_by(2) {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.remove(&0), None);
        assert_eq!(t.get(&1), Some(&1));
        assert_eq!(t.get(&2), None);
    }

    #[test]
    fn mass_delete_never_shrinks_the_tree_and_len_stays_exact() {
        // The documented no-shrink invariant (DESIGN.md): deletions are lazy, leaves are
        // never merged and the structure is monotonically non-decreasing — but `len()`
        // counts live keys exactly, and lookups/scans skip the emptied leaves.
        let mut t = BPlusTree::new();
        for i in 0..10_000u64 {
            t.insert(i, i);
        }
        let depth_full = t.depth();
        for i in 0..10_000u64 {
            assert_eq!(t.remove(&i), Some(i));
            assert_eq!(t.len() as u64, 10_000 - i - 1, "len must stay exact");
        }
        assert!(t.is_empty());
        assert_eq!(
            t.depth(),
            depth_full,
            "lazy deletion must not restructure the tree"
        );
        // Every leaf is now under-full (empty); queries must still be correct.
        assert_eq!(t.get(&5_000), None);
        assert!(!t.contains_key(&0));
        assert!(t.scan(&0, 100).is_empty());
    }

    #[test]
    fn delete_then_reinsert_round_trips_through_underfull_leaves() {
        let mut t = BPlusTree::new();
        for i in 0..4_000u64 {
            t.insert(i, i);
        }
        let depth_before = t.depth();
        for i in 0..4_000u64 {
            t.remove(&i);
        }
        // Reinsert a different (overlapping) key set into the hollowed-out tree.
        for i in (0..8_000u64).step_by(2) {
            assert_eq!(
                t.insert(i, i * 10),
                None,
                "tree was emptied, key {i} is new"
            );
        }
        assert_eq!(t.len(), 4_000);
        assert!(t.depth() >= depth_before, "the tree never shrinks");
        for i in (0..8_000u64).step_by(2) {
            assert_eq!(t.get(&i), Some(&(i * 10)));
        }
        assert_eq!(t.get(&1), None);
        // Ordered iteration over reused and fresh leaves stays sorted and complete.
        let all = t.scan(&0, 10_000);
        assert_eq!(all.len(), 4_000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn interleaved_delete_reinsert_matches_btreemap() {
        use std::collections::BTreeMap;
        let mut t = BPlusTree::new();
        let mut model = BTreeMap::new();
        // Three waves of insert-everything / delete-most / reinsert-some, checking the
        // full map equivalence after each wave.
        for wave in 0..3u64 {
            for i in 0..2_000u64 {
                let k = i * 3 + wave;
                assert_eq!(t.insert(k, wave), model.insert(k, wave));
            }
            for i in (0..2_000u64).filter(|i| i % 4 != 0) {
                let k = i * 3 + wave;
                assert_eq!(t.remove(&k), model.remove(&k));
            }
            assert_eq!(t.len(), model.len());
            for (k, v) in &model {
                assert_eq!(t.get(k), Some(v));
            }
            let scan = t.scan(&0, usize::MAX / 2);
            let want: Vec<(u64, u64)> = model.iter().map(|(a, b)| (*a, *b)).collect();
            assert_eq!(scan, want);
        }
    }

    /// The tree `n` ascending one-by-one inserts of `key * stride` build.
    pub(super) fn ascending(n: u64, stride: u64) -> BPlusTree<u64, u64> {
        let mut t = BPlusTree::new();
        for k in 0..n {
            t.insert(k * stride, k);
        }
        t
    }

    /// The same pairs bulk-loaded.
    pub(super) fn bulk(n: u64, stride: u64) -> BPlusTree<u64, u64> {
        BPlusTree::from_sorted((0..n).map(|k| k * stride).collect(), (0..n).collect())
            .expect("ascending keys are accepted")
    }

    #[test]
    fn from_sorted_matches_ascending_inserts_node_for_node() {
        // Around the leaf split (31/32/33, 47/48/49), the first internal split
        // (527/528: 32/33 leaves, 545) and the kv store's small, smoke and full shards.
        for n in [
            0, 1, 31, 32, 33, 47, 48, 49, 527, 528, 545, 6_250, 62_500, 100_003,
        ] {
            let (want, got) = (ascending(n, 1), bulk(n, 1));
            assert!(got.root == want.root, "n = {n}: node layouts differ");
            assert_eq!(got.len(), want.len(), "n = {n}");
            assert_eq!(got.depth(), want.depth(), "n = {n}");
        }
    }

    #[test]
    fn from_sorted_rejects_unsorted_and_duplicate_keys() {
        let (keys, values) =
            BPlusTree::from_sorted(vec![1u64, 3, 2], vec!['a', 'c', 'b']).unwrap_err();
        assert_eq!(keys, [1, 3, 2], "rejected inputs come back unchanged");
        assert_eq!(values, ['a', 'c', 'b']);
        assert!(BPlusTree::from_sorted(vec![1u64, 2, 2], vec![0, 0, 0]).is_err());
        assert!(BPlusTree::from_sorted(vec![1u64, 2], vec![0]).is_err());
        assert!(BPlusTree::<u64, u8>::from_sorted(Vec::new(), Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn reverse_and_random_order_inserts_agree_with_btreemap() {
        use std::collections::BTreeMap;
        let mut model = BTreeMap::new();
        let mut t = BPlusTree::new();
        let mut x: u64 = 0x12345;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = x >> 40;
            model.insert(k, x);
            t.insert(k, x);
        }
        assert_eq!(t.len(), model.len());
        for (k, v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Scan(u16, u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            any::<u16>().prop_map(Op::Remove),
            (any::<u16>(), 1u8..50).prop_map(|(k, n)| Op::Scan(k, n)),
        ]
    }

    proptest! {
        /// A bulk load is the tree ascending inserts build, for any size and key
        /// spacing, and it then behaves like it under further inserts.
        #[test]
        fn from_sorted_matches_ascending_inserts(
            n in 0u64..4_000,
            stride in 1u64..4,
            extra in prop::collection::vec(any::<u16>(), 0..64),
        ) {
            let (mut want, mut got) =
                (super::tests::ascending(n, stride), super::tests::bulk(n, stride));
            prop_assert!(got.root == want.root);
            for k in extra {
                prop_assert_eq!(got.insert(u64::from(k), 0), want.insert(u64::from(k), 0));
            }
            prop_assert!(got.root == want.root);
            prop_assert_eq!(got.len(), want.len());
        }

        #[test]
        fn behaves_like_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
            let mut tree = BPlusTree::new();
            let mut model: BTreeMap<u16, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(tree.remove(&k), model.remove(&k));
                    }
                    Op::Scan(k, n) => {
                        let got = tree.scan(&k, n as usize);
                        let want: Vec<(u16, u32)> = model
                            .range(k..)
                            .take(n as usize)
                            .map(|(a, b)| (*a, *b))
                            .collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
        }

        /// Delete-heavy sequences (3:1 removes over inserts from a small key range)
        /// drive many leaves to empty and back — the regime the no-shrink invariant
        /// trades off — and must still match `BTreeMap` exactly.
        #[test]
        fn delete_heavy_workload_behaves_like_btreemap(
            // The remove branch is repeated to weight deletions 3:1 over inserts (the
            // offline proptest shim has no weighted prop_oneof syntax).
            ops in prop::collection::vec(
                prop_oneof![
                    (0u16..256, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256).prop_map(Op::Remove),
                    (0u16..256, 1u8..50).prop_map(|(k, n)| Op::Scan(k, n)),
                ],
                1..600,
            )
        ) {
            let mut tree = BPlusTree::new();
            let mut model: BTreeMap<u16, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        prop_assert_eq!(tree.insert(k, v), model.insert(k, v));
                    }
                    Op::Remove(k) => {
                        prop_assert_eq!(tree.remove(&k), model.remove(&k));
                    }
                    Op::Scan(k, n) => {
                        let got = tree.scan(&k, n as usize);
                        let want: Vec<(u16, u32)> = model
                            .range(k..)
                            .take(n as usize)
                            .map(|(a, b)| (*a, *b))
                            .collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
        }
    }
}
