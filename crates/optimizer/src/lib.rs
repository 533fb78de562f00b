//! Traditional cost-based join-order optimization.
//!
//! This crate is the *baseline* — the thing SkinnerDB does not need. It
//! implements:
//!
//! * [`cost`] — the `C_out` cost metric (sum of intermediate result
//!   cardinalities, Krishnamurthy et al.), which the paper uses both to
//!   define "optimal join orders" in its replay experiments (Tables 3/4)
//!   and as the cost model under which its regret analysis maps to
//!   traditional cost,
//! * [`dp`] — Selinger-style dynamic programming over left-deep join orders
//!   (Cartesian products excluded per the join graph), parameterized by an
//!   arbitrary cardinality function so the same search runs on *estimated*
//!   cardinalities (the traditional optimizer) or on *true* cardinalities
//!   (the "Optimal" rows of Tables 3 and 4),
//! * [`planner`] — the planner half of the binder/planner split: bound
//!   query → [`JoinPlan`] (order + estimated cost), exact DP up to a table
//!   limit with a greedy fallback beyond it. The traditional engine plans
//!   through it, and so does Skinner-H's traditional side.

pub mod cost;
pub mod dp;
pub mod planner;

pub use cost::cout;
pub use dp::{best_left_deep, best_left_deep_estimated};
pub use planner::{
    estimated_cout, greedy_left_deep, plan_join_order, plan_query, JoinPlan, PlanMethod,
    PlannerConfig,
};
