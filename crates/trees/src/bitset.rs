//! Packed bitsets over tree nodes.
//!
//! A [`NodeSet`] represents a set of nodes of one particular tree as a packed
//! `u64` bitset. Prevaluations (Section 3 of the paper) map each query
//! variable to such a set; arc-consistency pruning and the minimum-valuation
//! extraction of Lemma 3.4 operate directly on them.
//!
//! Bit `i` is the node with id `i`, which is also the node of pre-order rank
//! `i` (ids are pre-order ranks on every [`Tree`](crate::Tree)). That is
//! what makes the word-parallel semijoin kernels possible: a subtree is a
//! *contiguous bit range* `[u, pre_end(u)]`, so descendant closures are
//! blockwise interval fills ([`NodeSet::prefix_or_within_intervals`]) and the
//! `Following` axis reduces to a rank-threshold mask
//! ([`NodeSet::insert_range`] / [`NodeSet::range_mask`]). The hot kernels
//! below (`insert_range`, `first_member_in_range`, `max_member`,
//! `intersect_with_changed`, `copy_from`) all operate one `u64` block at a
//! time and never allocate.

use crate::node::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

const BITS: usize = 64;

/// A set of nodes of a fixed-size tree, stored as a packed bitset.
#[derive(PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeSet {
    blocks: Vec<u64>,
    /// Number of addressable nodes (the tree size), not the number of members.
    capacity: usize,
}

impl Clone for NodeSet {
    fn clone(&self) -> Self {
        NodeSet {
            blocks: self.blocks.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s block allocation (a plain memcpy when the capacities
    /// already match) — this is what makes `clone_from`-based scratch reuse
    /// in the evaluators allocation-free.
    fn clone_from(&mut self, source: &Self) {
        self.capacity = source.capacity;
        self.blocks.clear();
        self.blocks.extend_from_slice(&source.blocks);
    }
}

impl NodeSet {
    /// Creates an empty set able to hold nodes `0..capacity`.
    pub fn empty(capacity: usize) -> Self {
        NodeSet {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// Creates a set containing every node `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = Self::empty(capacity);
        for block in &mut set.blocks {
            *block = u64::MAX;
        }
        set.trim();
        set
    }

    /// Creates a set from an iterator of nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(capacity: usize, nodes: I) -> Self {
        let mut set = Self::empty(capacity);
        for node in nodes {
            set.insert(node);
        }
        set
    }

    /// Clears the padding bits of the last block.
    ///
    /// Invariant: bits at positions `>= capacity` are always zero. Every
    /// method that writes whole blocks (`full`, `insert_range`, blockwise
    /// unions of trusted inputs) must re-establish this, because `len`,
    /// `is_empty`, `max_member` and the equality/ordering impls read blocks
    /// wholesale and would otherwise see phantom members. Bit-level writers
    /// (`insert`, `remove`) instead reject out-of-range indices outright.
    fn trim(&mut self) {
        let rem = self.capacity % BITS;
        if rem != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of addressable nodes (the size of the underlying tree).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds `node` to the set. Returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics if `node.index() >= capacity`. (This used to be a debug-only
    /// assertion; in release builds an out-of-range insert into the padding
    /// bits of the last block would silently corrupt `len`/`is_empty` when
    /// `capacity % 64 != 0`, so the check is now unconditional.)
    pub fn insert(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        assert!(idx < self.capacity, "node out of range for NodeSet");
        let (block, bit) = (idx / BITS, idx % BITS);
        let mask = 1u64 << bit;
        let was_absent = self.blocks[block] & mask == 0;
        self.blocks[block] |= mask;
        was_absent
    }

    /// Removes `node` from the set. Returns `true` if it was present.
    ///
    /// # Panics
    /// Panics if `node.index() >= capacity` (see [`NodeSet::insert`]).
    pub fn remove(&mut self, node: NodeId) -> bool {
        let idx = node.index();
        assert!(idx < self.capacity, "node out of range for NodeSet");
        let (block, bit) = (idx / BITS, idx % BITS);
        let mask = 1u64 << bit;
        let was_present = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        was_present
    }

    /// Whether `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let idx = node.index();
        if idx >= self.capacity {
            return false;
        }
        let (block, bit) = (idx / BITS, idx % BITS);
        self.blocks[block] & (1u64 << bit) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        for block in &mut self.blocks {
            *block = 0;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    #[inline]
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place intersection with `other`, reporting whether `self` shrank.
    ///
    /// This is the semijoin *revision* primitive: the arc-consistency
    /// worklist intersects a variable's domain with a freshly computed
    /// support set and re-enqueues dependent arcs only when something was
    /// actually removed. One pass, no allocation, no post-hoc comparison.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    #[inline]
    pub fn intersect_with_changed(&mut self, other: &NodeSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        let mut changed = 0u64;
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            let new = *a & b;
            changed |= *a ^ new;
            *a = new;
        }
        changed != 0
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    /// Panics if the capacities differ.
    #[inline]
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// Overwrites `self` with the contents of `other` (a blockwise memcpy).
    ///
    /// # Panics
    /// Panics if the capacities differ (use `clone_from` to also adopt the
    /// capacity).
    #[inline]
    pub fn copy_from(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        self.blocks.copy_from_slice(&other.blocks);
    }

    /// Inserts every index in the semi-open range `[lo, hi)`, blockwise.
    ///
    /// This is the *range mask* primitive of the rank-space kernels: in
    /// pre-order rank space a subtree, and everything after a rank threshold
    /// (the `Following` axis), are contiguous index ranges.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > capacity`.
    #[inline]
    pub fn insert_range(&mut self, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= self.capacity, "range out of bounds");
        if lo == hi {
            return;
        }
        let (first_block, first_bit) = (lo / BITS, lo % BITS);
        let (last_block, last_bit) = ((hi - 1) / BITS, (hi - 1) % BITS);
        let lo_mask = u64::MAX << first_bit;
        let hi_mask = u64::MAX >> (BITS - 1 - last_bit);
        if first_block == last_block {
            self.blocks[first_block] |= lo_mask & hi_mask;
        } else {
            self.blocks[first_block] |= lo_mask;
            for block in &mut self.blocks[first_block + 1..last_block] {
                *block = u64::MAX;
            }
            self.blocks[last_block] |= hi_mask;
        }
    }

    /// The set `{lo, lo+1, …, hi-1}` over a domain of `capacity` indices.
    pub fn range_mask(capacity: usize, lo: usize, hi: usize) -> NodeSet {
        let mut set = NodeSet::empty(capacity);
        set.insert_range(lo, hi);
        set
    }

    /// The smallest member with index in `[lo, hi)`, found blockwise
    /// (one `trailing_zeros` per 64 indices scanned).
    #[inline]
    pub fn first_member_in_range(&self, lo: usize, hi: usize) -> Option<NodeId> {
        let hi = hi.min(self.capacity);
        if lo >= hi {
            return None;
        }
        let mut block = lo / BITS;
        let mut bits = self.blocks[block] & (u64::MAX << (lo % BITS));
        loop {
            if bits != 0 {
                let idx = block * BITS + bits.trailing_zeros() as usize;
                return (idx < hi).then(|| NodeId::from_index(idx));
            }
            block += 1;
            if block * BITS >= hi {
                return None;
            }
            bits = self.blocks[block];
        }
    }

    /// The largest member of the set, found blockwise from the top.
    #[inline]
    pub fn max_member(&self) -> Option<NodeId> {
        for (block, &bits) in self.blocks.iter().enumerate().rev() {
            if bits != 0 {
                return Some(NodeId::from_index(
                    block * BITS + (BITS - 1 - bits.leading_zeros() as usize),
                ));
            }
        }
        None
    }

    /// Interval-closure kernel: for every member `i` of `self`, ORs the index
    /// range `[i + !include_start, ends[i]]` (inclusive) into `out`.
    ///
    /// The member set is interpreted in an index space where `ends[i] >= i`
    /// describes a **laminar** interval family — any member `j` inside
    /// `(i, ends[i]]` must satisfy `ends[j] <= ends[i]`, as subtree intervals
    /// in pre-order rank space do. Laminarity lets the kernel fill each
    /// *maximal* interval once (blockwise) and skip every member it covers,
    /// so the cost is O(output blocks + maximal members) rather than
    /// O(sum of interval lengths).
    ///
    /// With `include_start` this computes the `Child*` (descendant-or-self)
    /// image of `self`; without it, the `Child+` (proper descendant) image.
    ///
    /// # Panics
    /// Panics if the capacities differ or `ends` is shorter than the
    /// capacity; debug-asserts laminarity-consistent bounds.
    pub fn prefix_or_within_intervals(&self, ends: &[u32], include_start: bool, out: &mut NodeSet) {
        assert_eq!(self.capacity, out.capacity, "NodeSet capacity mismatch");
        assert!(ends.len() >= self.capacity, "ends array too short");
        let mut cursor = 0;
        while let Some(member) = self.first_member_in_range(cursor, self.capacity) {
            let i = member.index();
            let end = ends[i] as usize;
            debug_assert!(end >= i && end < self.capacity, "invalid interval end");
            let lo = if include_start { i } else { i + 1 };
            out.insert_range(lo, end + 1);
            cursor = end + 1;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        assert_eq!(self.capacity, other.capacity, "NodeSet capacity mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns the intersection of two sets.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Returns the union of two sets.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Whether `self` and `other` have no member in common.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// Whether every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the members in increasing id order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Returns an arbitrary member (the one with the smallest id).
    pub fn any_member(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// Returns the member minimizing `rank[node.index()]`, i.e. the minimum of
    /// the set with respect to the total order encoded by `rank`.
    ///
    /// This is the "minimum valuation" selection step of Lemma 3.4.
    ///
    /// # Panics
    /// Panics (in debug builds) if `rank` is shorter than the capacity.
    pub fn min_by_rank(&self, rank: &[u32]) -> Option<NodeId> {
        debug_assert!(rank.len() >= self.capacity);
        let mut best: Option<(u32, NodeId)> = None;
        for node in self.iter() {
            let r = rank[node.index()];
            match best {
                Some((br, _)) if br <= r => {}
                _ => best = Some((r, node)),
            }
        }
        best.map(|(_, n)| n)
    }
}

impl Default for NodeSet {
    /// The empty set over the empty domain (capacity 0); useful for
    /// lazily-sized scratch buffers.
    fn default() -> Self {
        NodeSet::empty(0)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Builds a set whose capacity is one past the largest inserted index.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let nodes: Vec<NodeId> = iter.into_iter().collect();
        let capacity = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        NodeSet::from_nodes(capacity, nodes)
    }
}

/// Iterator over the members of a [`NodeSet`].
pub struct NodeSetIter<'a> {
    set: &'a NodeSet,
    block: usize,
    bits: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId::from_index(self.block * BITS + bit));
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = NodeSet::empty(130);
        assert!(set.insert(n(0)));
        assert!(set.insert(n(64)));
        assert!(set.insert(n(129)));
        assert!(!set.insert(n(64)));
        assert!(set.contains(n(0)));
        assert!(set.contains(n(64)));
        assert!(set.contains(n(129)));
        assert!(!set.contains(n(1)));
        assert_eq!(set.len(), 3);
        assert!(set.remove(n(64)));
        assert!(!set.remove(n(64)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        let set = NodeSet::full(70);
        assert_eq!(set.len(), 70);
        assert!(set.contains(n(69)));
        assert!(!set.contains(n(70)));
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_nodes(10, [n(1), n(2), n(3)]);
        let b = NodeSet::from_nodes(10, [n(2), n(3), n(4)]);
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            vec![n(2), n(3)]
        );
        assert_eq!(
            a.union(&b).iter().collect::<Vec<_>>(),
            vec![n(1), n(2), n(3), n(4)]
        );
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![n(1)]);
        assert!(!a.is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn iter_is_sorted_by_raw_index() {
        let set = NodeSet::from_nodes(200, [n(150), n(3), n(64), n(65)]);
        let members: Vec<usize> = set.iter().map(|x| x.index()).collect();
        assert_eq!(members, vec![3, 64, 65, 150]);
    }

    #[test]
    fn min_by_rank_picks_order_minimum() {
        // rank: node 3 has rank 9, node 5 has rank 1, node 7 has rank 4.
        let mut rank = vec![0u32; 10];
        rank[3] = 9;
        rank[5] = 1;
        rank[7] = 4;
        let set = NodeSet::from_nodes(10, [n(3), n(5), n(7)]);
        assert_eq!(set.min_by_rank(&rank), Some(n(5)));
        assert_eq!(NodeSet::empty(10).min_by_rank(&rank), None);
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let set: NodeSet = [n(5), n(2)].into_iter().collect();
        assert_eq!(set.capacity(), 6);
        assert!(set.contains(n(5)));
        assert!(set.contains(n(2)));
    }

    #[test]
    fn insert_range_and_range_mask() {
        for capacity in [1usize, 63, 64, 65, 130, 200] {
            for (lo, hi) in [(0, 0), (0, 1), (3, 17), (0, capacity), (capacity, capacity)] {
                if hi > capacity || lo > hi {
                    continue;
                }
                let mask = NodeSet::range_mask(capacity, lo, hi);
                assert_eq!(mask.len(), hi - lo, "range [{lo}, {hi}) at cap {capacity}");
                for i in 0..capacity {
                    assert_eq!(mask.contains(n(i)), lo <= i && i < hi);
                }
            }
        }
        // Multi-block interior fill.
        let mask = NodeSet::range_mask(300, 10, 290);
        assert_eq!(mask.len(), 280);
        assert!(!mask.contains(n(9)) && mask.contains(n(10)));
        assert!(mask.contains(n(289)) && !mask.contains(n(290)));
    }

    #[test]
    fn first_member_in_range_and_max_member() {
        let set = NodeSet::from_nodes(300, [n(5), n(64), n(130), n(299)]);
        assert_eq!(set.first_member_in_range(0, 300), Some(n(5)));
        assert_eq!(set.first_member_in_range(6, 300), Some(n(64)));
        assert_eq!(set.first_member_in_range(65, 130), None);
        assert_eq!(set.first_member_in_range(65, 131), Some(n(130)));
        assert_eq!(set.first_member_in_range(131, 299), None);
        assert_eq!(set.first_member_in_range(131, usize::MAX), Some(n(299)));
        assert_eq!(set.max_member(), Some(n(299)));
        assert_eq!(NodeSet::empty(300).max_member(), None);
        assert_eq!(NodeSet::empty(0).first_member_in_range(0, 10), None);
    }

    #[test]
    fn intersect_with_changed_reports_shrinkage() {
        let mut a = NodeSet::from_nodes(100, [n(1), n(70), n(99)]);
        let same = NodeSet::full(100);
        assert!(!a.intersect_with_changed(&same));
        assert_eq!(a.len(), 3);
        let b = NodeSet::from_nodes(100, [n(1), n(99)]);
        assert!(a.intersect_with_changed(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![n(1), n(99)]);
    }

    #[test]
    fn copy_from_and_clone_from_reuse_blocks() {
        let source = NodeSet::from_nodes(130, [n(0), n(129)]);
        let mut dest = NodeSet::full(130);
        dest.copy_from(&source);
        assert_eq!(dest, source);
        let mut other = NodeSet::empty(64);
        other.clone_from(&source);
        assert_eq!(other, source);
        assert_eq!(other.capacity(), 130);
    }

    #[test]
    fn prefix_or_within_intervals_laminar_fill() {
        // A laminar family over 10 indices: interval of 0 covers everything,
        // interval of 1 covers [1, 4], leaves cover themselves.
        let ends: Vec<u32> = vec![9, 4, 2, 3, 4, 5, 9, 7, 8, 9];
        let n10 = 10;
        // Members {1, 5}: Child* image fills [1,4] and [5,5].
        let members = NodeSet::from_nodes(n10, [n(1), n(5)]);
        let mut out = NodeSet::empty(n10);
        members.prefix_or_within_intervals(&ends, true, &mut out);
        assert_eq!(
            out.iter().map(|x| x.index()).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        // Same members, strict (Child+): drops the interval starts.
        let mut strict = NodeSet::empty(n10);
        members.prefix_or_within_intervals(&ends, false, &mut strict);
        assert_eq!(
            strict.iter().map(|x| x.index()).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // A member covered by an earlier maximal interval is skipped, not
        // re-filled: {0, 2} fills [0, 9] once.
        let covering = NodeSet::from_nodes(n10, [n(0), n(2)]);
        let mut all = NodeSet::empty(n10);
        covering.prefix_or_within_intervals(&ends, true, &mut all);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn boundary_capacities_respect_trim_invariant() {
        for capacity in [63usize, 64, 65] {
            let mut set = NodeSet::full(capacity);
            assert_eq!(set.len(), capacity, "full at capacity {capacity}");
            assert!(set.contains(n(capacity - 1)));
            assert!(!set.contains(n(capacity)));
            assert_eq!(set.max_member(), Some(n(capacity - 1)));
            assert!(set.remove(n(capacity - 1)));
            assert!(!set.remove(n(capacity - 1)));
            assert_eq!(set.len(), capacity - 1);
            assert!(set.insert(n(capacity - 1)));
            assert_eq!(set.len(), capacity);
            // Range mask over the full domain equals the full set.
            assert_eq!(NodeSet::range_mask(capacity, 0, capacity), set);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics_at_padding_boundary() {
        // Capacity 63: index 63 is inside the last block's padding; it must
        // be rejected, not silently written.
        let mut set = NodeSet::empty(63);
        set.insert(n(63));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_out_of_range_panics_at_padding_boundary() {
        let mut set = NodeSet::empty(65);
        set.remove(n(65));
    }
}
