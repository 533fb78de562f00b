//! Empirical sanity checks of the paper's formal guarantees (Section 5).
//!
//! These are not proofs — they verify, with fixed seeds and generous
//! constants, that the *direction* of each bound holds on workloads designed
//! to stress it:
//!
//! * Theorem 5.10: Skinner-C's expected execution cost is within a small
//!   multiple of the cost of executing the best fixed join order.
//! * Theorem 5.8: Skinner-H costs at most a constant factor more than pure
//!   traditional execution when the traditional optimizer is good.
//! * Lemma 5.5 behaviour end-to-end: Skinner-G's per-level time allocation
//!   stays within factor two (unit-tested in `pyramid`, exercised here via
//!   a full run that must terminate despite wildly wrong initial timeouts).

use skinnerdb::skinner_core::{run_skinner_c, run_skinner_c_fixed, SkinnerCConfig};
use skinnerdb::skinner_core::{SkinnerG, SkinnerGConfig};
use skinnerdb::skinner_workloads::torture::{correlation_torture, udf_torture, Shape};
use skinnerdb::ExecContext;
use skinnerdb::{DataType, Database, Strategy, Value};

/// Per-strategy regret envelope: the maximal tolerated ratio of the
/// strategy's work to a traditional run on a workload where the optimizer
/// plans well (`star_db`). The constants encode each engine's theory:
///
/// * Customized engines (Skinner-C, parallel_skinner) and the adaptive
///   baselines pay no per-slice engine overhead — a small constant covers
///   learning noise.
/// * The hybrid (Skinner-H) is regret-bounded against the traditional plan
///   by the doubling schedule (Theorem 5.8: ≤ 5× plus discretization).
/// * The generic-engine learner (Skinner-G) re-pays the engine's
///   per-invocation cost (hash builds) every episode — bounded, but by a
///   much larger constant (the paper's motivation for Skinner-C).
///
/// Every registered builtin MUST appear here: a new strategy fails the
/// registry-driven test below until it declares its envelope.
fn regret_envelope(name: &str) -> Option<f64> {
    match name {
        "Reference" | "Traditional" => None, // baselines define the scale
        "Skinner-C" | "parallel_skinner" => Some(4.0),
        "Eddy" | "Re-optimizer" => Some(4.0),
        "Skinner-H" => Some(8.0),
        "Skinner-G" => Some(100.0),
        _ => Some(f64::NAN), // unknown: fails the test loudly
    }
}

/// Every strategy in the builtin registry is held to its own regret
/// envelope against the traditional baseline — with the measured ratio in
/// the failure message, so a regression reports *how far* outside the
/// envelope it landed.
#[test]
fn every_registered_strategy_meets_its_regret_envelope() {
    let (db, sql) = star_db();
    let trad = db
        .run_script(&sql, &Strategy::Traditional(Default::default()))
        .unwrap();
    assert!(!trad.timed_out);
    let expected = trad.result.canonical_rows();
    for strategy in Strategy::all_builtin() {
        let Some(bound) = regret_envelope(strategy.name()) else {
            continue;
        };
        assert!(
            !bound.is_nan(),
            "strategy {:?} has no regret envelope — add it to regret_envelope()",
            strategy.name()
        );
        let out = db.run_script(&sql, &strategy).unwrap();
        assert!(!out.timed_out, "{} timed out", strategy.name());
        assert_eq!(
            out.result.canonical_rows(),
            expected,
            "{} disagrees with traditional",
            strategy.name()
        );
        let ratio = out.work_units as f64 / trad.work_units.max(1) as f64;
        assert!(
            ratio < bound,
            "{}: measured regret ratio {ratio:.2} ≥ envelope {bound} \
             ({} work units vs traditional {})",
            strategy.name(),
            out.work_units,
            trad.work_units
        );
    }
}

/// Build a moderately sized star-join database with one selective edge.
fn star_db() -> (Database, String) {
    let db = Database::new();
    db.create_table(
        "hub",
        &[("id", DataType::Int), ("grp", DataType::Int)],
        (0..600)
            .map(|i| vec![Value::Int(i), Value::Int(i % 20)])
            .collect(),
    )
    .unwrap();
    for (name, fanout, selective) in [("s1", 2i64, false), ("s2", 3, false), ("s3", 1, true)] {
        let rows: Vec<Vec<Value>> = (0..600 * fanout)
            .map(|i| {
                let hub = if selective && i % 17 != 0 {
                    // Most rows join nothing (selective satellite).
                    100_000 + i
                } else {
                    i % 600
                };
                vec![Value::Int(hub), Value::Int(i)]
            })
            .collect();
        db.create_table(name, &[("hid", DataType::Int), ("v", DataType::Int)], rows)
            .unwrap();
    }
    let sql = "SELECT COUNT(*) n FROM hub, s1, s2, s3 \
               WHERE hub.id = s1.hid AND hub.id = s2.hid AND hub.id = s3.hid"
        .to_string();
    (db, sql)
}

#[test]
fn skinner_c_cost_is_within_small_factor_of_best_fixed_order() {
    let (db, sql) = star_db();
    let q = db.bind(&sql).unwrap();
    let learned = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
    assert!(!learned.timed_out);

    // Best fixed order over all valid orders (4 tables → cheap to scan).
    let graph = q.join_graph();
    let mut best_fixed = u64::MAX;
    for order in graph.all_orders() {
        let o = run_skinner_c_fixed(
            &q,
            &ExecContext::default(),
            &order,
            &SkinnerCConfig::default(),
        );
        assert_eq!(
            o.result.canonical_rows(),
            learned.result.canonical_rows(),
            "{order:?}"
        );
        best_fixed = best_fixed.min(o.work_units);
    }
    // Theorem 5.10 bounds the ratio by m (= 4) asymptotically; allow slack
    // for learning overhead at this scale.
    let ratio = learned.work_units as f64 / best_fixed as f64;
    assert!(
        ratio < 8.0,
        "regret ratio {ratio:.2} (learned {} vs best fixed {best_fixed})",
        learned.work_units
    );
}

#[test]
fn skinner_h_overhead_vs_good_traditional_is_bounded() {
    let (db, sql) = star_db();
    let trad = db
        .run_script(&sql, &Strategy::Traditional(Default::default()))
        .unwrap();
    let hybrid = db
        .run_script(&sql, &Strategy::SkinnerH(Default::default()))
        .unwrap();
    assert!(!trad.timed_out && !hybrid.timed_out);
    assert_eq!(hybrid.result.canonical_rows(), trad.result.canonical_rows());
    // Theorem 5.8: maximal regret vs traditional is 4/5·n, i.e. at most 5×
    // its cost; the doubling scheme's discretization adds a little more.
    let ratio = hybrid.work_units as f64 / trad.work_units.max(1) as f64;
    assert!(ratio < 8.0, "hybrid overhead ratio {ratio:.2}");
}

#[test]
fn skinner_c_beats_worst_fixed_order_on_torture_workloads() {
    // On UDF torture the gap between best and worst orders is extreme; the
    // learned strategy must land near the good end.
    let w = udf_torture(Shape::Chain, 6, 60, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q = db.bind(&w.queries[0].script).unwrap();
    let learned = run_skinner_c(
        &q,
        &ExecContext::default(),
        &SkinnerCConfig {
            work_limit: 50_000_000,
            ..Default::default()
        },
    );
    assert!(!learned.timed_out);
    // The worst fixed order: apply the good predicate last.
    let worst = run_skinner_c_fixed(
        &q,
        &ExecContext::default(),
        &[5, 4, 3, 2, 1, 0],
        &SkinnerCConfig {
            work_limit: 50_000_000,
            ..Default::default()
        },
    );
    let worst_cost = worst.work_units; // may have timed out — lower bound
    assert!(
        learned.work_units * 10 < worst_cost,
        "learned {} not ≪ worst fixed {worst_cost}",
        learned.work_units
    );
}

#[test]
fn skinner_g_terminates_and_balances_despite_unknown_timeouts() {
    let w = correlation_torture(4, 300, 1);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let q = db.bind(&w.queries[0].script).unwrap();
    // Deliberately terrible base timeout: far too small for a batch, forcing
    // the pyramid scheme to climb levels before anything completes.
    let out = SkinnerG::new(
        &q,
        &ExecContext::default(),
        SkinnerGConfig {
            batches: 10,
            base_timeout_units: 8,
            work_limit: 500_000_000,
            ..Default::default()
        },
    )
    .run_to_completion();
    assert!(!out.timed_out, "pyramid scheme failed to climb");
    let levels = out.metrics.counter("timeout_levels").unwrap();
    assert!(levels >= 3, "levels: {levels}");
    assert_eq!(out.result.rows[0][0], Value::Int(0));
}
