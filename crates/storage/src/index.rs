//! Equality hash indexes with sorted posting lists.
//!
//! The paper's customized engine (Section 4.5) extends the multi-way join to
//! "jump directly to the next highest tuple index that satisfies at least all
//! applicable equality predicates". That jump is exactly
//! [`HashIndex::next_match`]: posting lists are kept sorted, so finding the
//! first row `>= from` with a given key is a hash lookup plus a binary
//! search. Postings hash with the process-keyed
//! [`FastState`](crate::FastState): a probe costs two folded multiplies
//! instead of a SipHash round.

use crate::column::Column;
use crate::hash::FastMap;
use crate::RowId;

/// Hash index over one column: canonical key (`Column::key_at`) → sorted rows.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    postings: FastMap<u64, Vec<RowId>>,
}

impl HashIndex {
    /// Build an index over all rows of `column`.
    pub fn build(column: &Column) -> Self {
        Self::build_range(column, 0, column.len() as RowId)
    }

    /// Build an index over the row range `[lo, hi)` of `column`. Chunked
    /// builds are merged by parallel pre-processing.
    pub fn build_range(column: &Column, lo: RowId, hi: RowId) -> Self {
        let mut postings: FastMap<u64, Vec<RowId>> = FastMap::default();
        for row in lo..hi {
            postings.entry(column.key_at(row)).or_default().push(row);
        }
        // Rows are inserted in increasing order, so lists are already sorted.
        HashIndex { postings }
    }

    /// Merge another index into this one. Posting lists stay sorted as long
    /// as `other` covers strictly higher row ids (the chunked-build case);
    /// otherwise they are re-sorted.
    pub fn merge(&mut self, other: HashIndex) {
        for (k, mut rows) in other.postings {
            match self.postings.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rows);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let list = e.get_mut();
                    let needs_sort = list.last().copied() >= rows.first().copied();
                    list.append(&mut rows);
                    if needs_sort {
                        list.sort_unstable();
                    }
                }
            }
        }
    }

    /// All rows whose key equals `key`, ascending. Empty slice if none.
    #[inline]
    pub fn lookup(&self, key: u64) -> &[RowId] {
        self.postings.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Smallest row `>= from` whose key equals `key` — the paper's "jump".
    #[inline]
    pub fn next_match(&self, key: u64, from: RowId) -> Option<RowId> {
        let rows = self.postings.get(&key)?;
        let pos = rows.partition_point(|&r| r < from);
        rows.get(pos).copied()
    }

    /// Number of rows with key equal to `key`.
    #[inline]
    pub fn count(&self, key: u64) -> usize {
        self.postings.get(&key).map_or(0, Vec::len)
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.postings.len()
    }

    /// Approximate heap size in bytes (Figure 8 memory accounting).
    pub fn byte_size(&self) -> usize {
        self.postings.values().map(|v| 8 + v.len() * 4 + 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col() -> Column {
        Column::Int(vec![7, 3, 7, 5, 3, 7])
    }

    #[test]
    fn lookup_returns_sorted_rows() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.lookup(7_u64), &[0, 2, 5]);
        assert_eq!(idx.lookup(3), &[1, 4]);
        assert_eq!(idx.lookup(99), &[] as &[RowId]);
    }

    #[test]
    fn next_match_jumps_forward() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.next_match(7, 0), Some(0));
        assert_eq!(idx.next_match(7, 1), Some(2));
        assert_eq!(idx.next_match(7, 3), Some(5));
        assert_eq!(idx.next_match(7, 6), None);
        assert_eq!(idx.next_match(42, 0), None);
    }

    #[test]
    fn range_build_plus_merge_equals_full_build() {
        let c = col();
        let mut a = HashIndex::build_range(&c, 0, 3);
        let b = HashIndex::build_range(&c, 3, 6);
        a.merge(b);
        let full = HashIndex::build(&c);
        for key in [3u64, 5, 7] {
            assert_eq!(a.lookup(key), full.lookup(key));
        }
        assert_eq!(a.num_keys(), full.num_keys());
    }

    #[test]
    fn merge_out_of_order_resorts() {
        let c = col();
        let mut hi = HashIndex::build_range(&c, 3, 6);
        let lo = HashIndex::build_range(&c, 0, 3);
        hi.merge(lo);
        assert_eq!(hi.lookup(7), &[0, 2, 5]);
    }

    #[test]
    fn count_and_num_keys() {
        let idx = HashIndex::build(&col());
        assert_eq!(idx.count(7), 3);
        assert_eq!(idx.count(5), 1);
        assert_eq!(idx.num_keys(), 3);
    }
}
