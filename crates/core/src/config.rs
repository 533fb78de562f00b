//! Configuration for the Skinner evaluation strategies.
//!
//! Defaults follow the paper's Section 6.1: `w = 10⁻⁶` and `b = 500` loop
//! iterations per time slice for Skinner-C; `w = √2` for Skinner-G/H.
//! The feature toggles exist for the paper's ablations: Table 5 (learning
//! vs. random), Table 6 (indexes, parallelization, learning) and the design
//! choices called out in Section 4.5 (progress sharing, reward function).

use skinner_exec::ExecProfile;

/// Reward function variants for Skinner-C (paper Section 4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// The refined reward SkinnerDB uses: sum over all tuple-index deltas,
    /// each scaled down by the product of cardinalities of its table and all
    /// preceding tables in the join order.
    FractionalProgress,
    /// The simpler variant used in the formal analysis (Section 5.2):
    /// progress in the left-most table only.
    LeftmostDelta,
}

/// Skinner-C configuration.
#[derive(Debug, Clone)]
pub struct SkinnerCConfig {
    /// Time-slice length in multi-way-join outer-loop iterations (`b`).
    pub slice_steps: u64,
    /// UCT exploration weight `w`.
    pub exploration_weight: f64,
    /// RNG seed for the UCT tree.
    pub seed: u64,
    /// Use hash indexes to "jump" over non-matching tuple indices for
    /// equality predicates (Section 4.5's extension; Table 6 "indexes").
    pub use_jump_indexes: bool,
    /// Learn join orders via UCT; `false` selects uniformly random valid
    /// orders per slice (Table 5 / Table 6 "learning").
    pub learning: bool,
    /// Share execution progress between join orders with common prefixes
    /// (Section 4.5's third desideratum).
    pub share_progress: bool,
    /// Reward function variant.
    pub reward: RewardKind,
    /// Threads for the (only parallelized) pre-processing phase
    /// (Table 6 "parallelization").
    pub preprocess_threads: usize,
    /// Global work-unit cap; exceeding it aborts with a timeout outcome
    /// (used by the torture benchmarks' per-test-case time limits).
    pub work_limit: u64,
}

impl Default for SkinnerCConfig {
    fn default() -> Self {
        SkinnerCConfig {
            slice_steps: 500,
            exploration_weight: 1e-6,
            seed: 0x5EED,
            use_jump_indexes: true,
            learning: true,
            share_progress: true,
            reward: RewardKind::FractionalProgress,
            preprocess_threads: 1,
            work_limit: u64::MAX,
        }
    }
}

/// Skinner-G configuration.
#[derive(Debug, Clone)]
pub struct SkinnerGConfig {
    /// Number of batches each table is split into (`b` in Algorithm 1).
    pub batches: usize,
    /// Work units corresponding to one atomic timeout unit (timeout level
    /// `L` allows `2^L * base_timeout_units` units per invocation).
    pub base_timeout_units: u64,
    /// The black-box engine profile executing each (order, batch) pair.
    pub engine_profile: ExecProfile,
    /// UCT exploration weight (per-level trees).
    pub exploration_weight: f64,
    pub seed: u64,
    /// Learn join orders; `false` picks random valid orders (Table 5).
    pub learning: bool,
    pub preprocess_threads: usize,
    /// Global work-unit cap.
    pub work_limit: u64,
}

impl Default for SkinnerGConfig {
    fn default() -> Self {
        SkinnerGConfig {
            batches: 20,
            base_timeout_units: 2_000,
            engine_profile: ExecProfile::row_store(),
            exploration_weight: std::f64::consts::SQRT_2,
            seed: 0x5EED,
            learning: true,
            preprocess_threads: 1,
            work_limit: u64::MAX,
        }
    }
}

/// Skinner-H configuration.
#[derive(Debug, Clone)]
pub struct SkinnerHConfig {
    /// The learning half (Skinner-G) configuration.
    pub learner: SkinnerGConfig,
    /// Timeout of traditional-plan invocation `i` is
    /// `2^i * learner.base_timeout_units`.
    pub max_doublings: u32,
}

impl Default for SkinnerHConfig {
    fn default() -> Self {
        SkinnerHConfig {
            learner: SkinnerGConfig::default(),
            max_doublings: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_6_1() {
        let c = SkinnerCConfig::default();
        assert_eq!(c.slice_steps, 500);
        assert!(c.exploration_weight <= 1e-5);
        let g = SkinnerGConfig::default();
        assert!((g.exploration_weight - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
