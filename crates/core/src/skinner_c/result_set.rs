//! Deduplicating result set of tuple-index vectors.
//!
//! Different join orders can generate the same result tuple; SkinnerDB
//! stores result *index vectors* in a set, so duplicates are eliminated
//! structurally (paper Section 4.5 and Theorem 5.3: vectors are unique per
//! result tuple, and set semantics keep each one once). The set hashes
//! with the process-keyed [`FastState`](skinner_storage::FastState), so
//! drain order is a function of the inserted tuples.

use skinner_exec::TupleIxs;
use skinner_storage::{FastSet, RowId};

/// Set of result tuples, each a row-id vector in table-position order.
#[derive(Debug, Default)]
pub struct ResultSet {
    set: FastSet<TupleIxs>,
}

impl ResultSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert the tuple `s`; returns true if it was new.
    #[inline]
    pub fn insert(&mut self, s: &[RowId]) -> bool {
        // One probe before cloning keeps re-derived duplicates cheap.
        if self.set.contains(s) {
            return false;
        }
        self.set.insert(s.to_vec().into_boxed_slice())
    }

    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Drain into a vector for post-processing.
    pub fn into_tuples(self) -> Vec<TupleIxs> {
        self.set.into_iter().collect()
    }

    /// Approximate heap size in bytes (Figure 8c).
    pub fn byte_size(&self) -> usize {
        self.set
            .iter()
            .map(|t| t.len() * std::mem::size_of::<RowId>() + 16)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deduplicates() {
        let mut r = ResultSet::new();
        assert!(r.insert(&[1, 2, 3]));
        assert!(!r.insert(&[1, 2, 3]));
        assert!(r.insert(&[1, 2, 4]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn into_tuples_returns_all() {
        let mut r = ResultSet::new();
        r.insert(&[0]);
        r.insert(&[5]);
        let mut v: Vec<Vec<RowId>> = r.into_tuples().iter().map(|t| t.to_vec()).collect();
        v.sort();
        assert_eq!(v, vec![vec![0], vec![5]]);
    }

    #[test]
    fn byte_size_grows() {
        let mut r = ResultSet::new();
        let a = r.byte_size();
        r.insert(&[1, 2]);
        assert!(r.byte_size() > a);
    }
}
