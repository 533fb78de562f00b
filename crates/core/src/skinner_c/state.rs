//! Execution-state backup, restore, and cross-order progress sharing.
//!
//! The progress tracker realizes the paper's `BackupState`/`RestoreState`
//! (Algorithm 3) including both sharing mechanisms of Section 4.5:
//!
//! * exact per-join-order states (a trie-backed map: one tuple-index cursor
//!   per table plus the depth-first position), and
//! * prefix sharing: for every join-order *prefix* visited, the
//!   lexicographically most advanced cursor is kept; restoring an order
//!   "fast-forwards" through the best state of any other order sharing a
//!   prefix.
//!
//! Cursor semantics differ slightly from the paper's pseudo-code: our state
//! `(s, depth)` fixes rows at positions `< depth` and treats `s[order[depth]]`
//! as the *next candidate to test*. Under these half-open semantics the
//! paper's merged state `s''_p = s_p − 1` (re-entering the last fully
//! processed subtree) becomes simply "resume with candidate `s_p` at the
//! merge position and offsets below" — the same set of result tuples is
//! skipped, and re-derived duplicates are eliminated by the result set.

use skinner_storage::{FastMap, RowId};

/// Depth-first cursor of the multi-way join for one join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinState {
    /// Current row per *table position* (indexed by table id, not by join
    /// order position).
    pub s: Vec<RowId>,
    /// Current join-order position. Rows at positions `< depth` are fixed
    /// and satisfy all predicates applicable on their prefix;
    /// `s[order[depth]]` is the next candidate row.
    pub depth: usize,
}

impl JoinState {
    /// Fresh state: every cursor at its table offset, depth 0.
    pub fn fresh(offsets: &[RowId]) -> Self {
        JoinState {
            s: offsets.to_vec(),
            depth: 0,
        }
    }

    /// Comparable progress vector for `order`: cursors by order position,
    /// with positions beyond `depth` replaced by `offsets` (their stored
    /// values are stale).
    fn resume_vector(&self, order: &[usize], offsets: &[RowId]) -> Vec<RowId> {
        order
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if i <= self.depth {
                    self.s[t]
                } else {
                    offsets[t]
                }
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct TrieNode {
    children: FastMap<u8, TrieNode>,
    /// Lexicographically best cursor values for this exact prefix sequence
    /// (one per prefix position).
    best: Option<Vec<RowId>>,
}

/// Backup/restore of join states with prefix sharing.
#[derive(Debug)]
pub struct ProgressTracker {
    exact: FastMap<Box<[u8]>, JoinState>,
    root: TrieNode,
    sharing: bool,
    num_tables: usize,
    trie_nodes: usize,
}

impl ProgressTracker {
    pub fn new(num_tables: usize, sharing: bool) -> Self {
        ProgressTracker {
            exact: FastMap::default(),
            root: TrieNode::default(),
            sharing,
            num_tables,
            trie_nodes: 1,
        }
    }

    /// `BackupState`: record the state reached by `order`.
    pub fn backup(&mut self, order: &[usize], state: &JoinState) {
        let key: Box<[u8]> = order.iter().map(|&t| t as u8).collect();
        self.exact.insert(key, state.clone());
        if !self.sharing {
            return;
        }
        // Update per-prefix bests for every valid prefix (fixed rows plus
        // the in-progress candidate position).
        let mut node = &mut self.root;
        let mut cursor: Vec<RowId> = Vec::with_capacity(state.depth + 1);
        for (i, &t) in order.iter().enumerate().take(state.depth + 1) {
            let _ = i;
            node = {
                let entry = node.children.entry(t as u8);
                if matches!(entry, std::collections::hash_map::Entry::Vacant(_)) {
                    self.trie_nodes += 1;
                }
                entry.or_default()
            };
            cursor.push(state.s[t]);
            let replace = match &node.best {
                None => true,
                Some(b) => cursor.as_slice() > b.as_slice(),
            };
            if replace {
                node.best = Some(cursor.clone());
            }
        }
    }

    /// `RestoreState`: the most advanced sound state for `order`, taking
    /// into account its own exact state, prefix donations from other orders,
    /// and the global offsets.
    pub fn restore(&self, order: &[usize], offsets: &[RowId]) -> JoinState {
        let mut best = JoinState::fresh(offsets);
        let mut best_vec = best.resume_vector(order, offsets);

        let mut consider = |cand: JoinState, vec: Vec<RowId>| {
            if vec > best_vec {
                best = cand;
                best_vec = vec;
            }
        };

        let key: Box<[u8]> = order.iter().map(|&t| t as u8).collect();
        if let Some(exact) = self.exact.get(&key) {
            let vec = exact.resume_vector(order, offsets);
            consider(exact.clone(), vec);
        }

        if self.sharing {
            let mut node = &self.root;
            for (k, &t) in order.iter().enumerate() {
                match node.children.get(&(t as u8)) {
                    None => break,
                    Some(child) => {
                        node = child;
                        if let Some(b) = &node.best {
                            // Fast-forward: fixed rows at positions < k, the
                            // donor's position-k value as candidate (clamped
                            // up to the current offset), offsets below.
                            let mut s = offsets.to_vec();
                            for (i, &ti) in order.iter().enumerate().take(k + 1) {
                                s[ti] = b[i];
                            }
                            let tk = order[k];
                            s[tk] = s[tk].max(offsets[tk]);
                            let cand = JoinState { s, depth: k };
                            let vec = cand.resume_vector(order, offsets);
                            consider(cand, vec);
                        }
                    }
                }
            }
        }
        best
    }

    /// Number of trie nodes (Figure 8b's progress-tracker size).
    pub fn num_trie_nodes(&self) -> usize {
        self.trie_nodes
    }

    /// Number of exact states stored.
    pub fn num_states(&self) -> usize {
        self.exact.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        let exact: usize = self
            .exact
            .iter()
            .map(|(k, v)| k.len() + v.s.len() * 4 + 24)
            .sum();
        exact + self.trie_nodes * (self.num_tables * 4 + 48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(m: usize) -> ProgressTracker {
        ProgressTracker::new(m, true)
    }

    #[test]
    fn fresh_when_nothing_stored() {
        let t = tracker(3);
        let st = t.restore(&[0, 1, 2], &[4, 5, 6]);
        assert_eq!(st.s, vec![4, 5, 6]);
        assert_eq!(st.depth, 0);
    }

    #[test]
    fn exact_roundtrip() {
        let mut t = tracker(3);
        let state = JoinState {
            s: vec![7, 2, 9],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &state);
        let r = t.restore(&[0, 1, 2], &[0, 0, 0]);
        assert_eq!(r, state);
    }

    #[test]
    fn prefix_sharing_fast_forwards() {
        let mut t = tracker(4);
        // Order A = [0,1,2,3] progressed far: fixed 0→50, 1→10, candidate 2→3.
        let state_a = JoinState {
            s: vec![50, 10, 3, 0],
            depth: 2,
        };
        t.backup(&[0, 1, 2, 3], &state_a);
        // Order B = [0,1,3,2] shares prefix [0,1]; it should fast-forward to
        // fixed 0→50, candidate 1→10.
        let r = t.restore(&[0, 1, 3, 2], &[0, 0, 0, 0]);
        assert_eq!(r.depth, 1);
        assert_eq!(r.s[0], 50);
        assert_eq!(r.s[1], 10);
        // Positions beyond the merge point restart at offsets.
        assert_eq!(r.s[3], 0);
    }

    #[test]
    fn own_exact_state_beats_shorter_prefix_donation() {
        let mut t = tracker(3);
        let own = JoinState {
            s: vec![80, 4, 1],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &own);
        let other = JoinState {
            s: vec![70, 9, 9],
            depth: 1,
        };
        t.backup(&[0, 2, 1], &other);
        let r = t.restore(&[0, 1, 2], &[0, 0, 0]);
        // Own state has s[0]=80 > 70 from the donor → keep own.
        assert_eq!(r, own);
    }

    #[test]
    fn donor_ahead_of_own_state_wins() {
        let mut t = tracker(3);
        let own = JoinState {
            s: vec![10, 4, 1],
            depth: 2,
        };
        t.backup(&[0, 1, 2], &own);
        // A different order with the same first table got much further.
        let donor = JoinState {
            s: vec![90, 0, 5],
            depth: 1,
        };
        t.backup(&[0, 2, 1], &donor);
        let r = t.restore(&[0, 1, 2], &[0, 0, 0]);
        assert_eq!(r.depth, 0);
        assert_eq!(r.s[0], 90);
    }

    #[test]
    fn offsets_clamp_the_candidate_position() {
        let mut t = tracker(2);
        let state = JoinState {
            s: vec![3, 0],
            depth: 0,
        };
        t.backup(&[0, 1], &state);
        // Offset for table 0 advanced past the stored candidate.
        let r = t.restore(&[0, 1], &[7, 0]);
        assert_eq!(r.s[0], 7);
    }

    #[test]
    fn sharing_disabled_only_restores_exact() {
        let mut t = ProgressTracker::new(3, false);
        let donor = JoinState {
            s: vec![90, 1, 1],
            depth: 1,
        };
        t.backup(&[0, 1, 2], &donor);
        // A different order gets nothing.
        let r = t.restore(&[0, 2, 1], &[0, 0, 0]);
        assert_eq!(r, JoinState::fresh(&[0, 0, 0]));
        assert_eq!(t.num_trie_nodes(), 1); // only the root
    }

    #[test]
    fn stale_deep_positions_are_ignored_in_comparison() {
        let mut t = tracker(3);
        // depth 0: only position 0 is meaningful; s[1], s[2] are stale noise.
        let a = JoinState {
            s: vec![5, 999, 999],
            depth: 0,
        };
        t.backup(&[0, 1, 2], &a);
        let b = t.restore(&[0, 1, 2], &[0, 0, 0]);
        assert_eq!(b.depth, 0);
        assert_eq!(b.s[0], 5);
    }

    #[test]
    fn trie_size_accounting() {
        let mut t = tracker(3);
        assert_eq!(t.num_trie_nodes(), 1);
        t.backup(
            &[0, 1, 2],
            &JoinState {
                s: vec![1, 1, 1],
                depth: 2,
            },
        );
        assert_eq!(t.num_trie_nodes(), 4); // root + 3 path nodes
        t.backup(
            &[0, 2, 1],
            &JoinState {
                s: vec![1, 1, 1],
                depth: 2,
            },
        );
        assert_eq!(t.num_trie_nodes(), 6); // shares the [0] node
        assert!(t.byte_size() > 0);
        assert_eq!(t.num_states(), 2);
    }
}
