//! Registry-wide optimizer-vs-RL bakeoff.
//!
//! Two claims, checked across four workload families (handmade joins,
//! JOB-like, torture generators, decomposed TPC-H):
//!
//! 1. **Equivalence** — every strategy in the registry returns bit-identical
//!    canonical rows on every query. Comparing each against the reference
//!    executor makes the claim pairwise by transitivity, and because the
//!    suite iterates `db.strategies().names()` rather than an enum, any
//!    strategy registered later is automatically held to the same bar.
//! 2. **Regret** — `Skinner-H` (the traditional plan under doubling
//!    timeouts alternated with equal time for Skinner-G learning) does at
//!    most a constant multiple of the work of the *better* of its two
//!    contenders, `Traditional` and `Skinner-G`, on each query. This is the
//!    quantitative hybrid claim (paper Theorems 5.7/5.8), not just
//!    correctness.

use skinnerdb::skinner_core::WINNER_LEARNED;
use skinnerdb::skinner_workloads::job_like::{generate as job, JobConfig};
use skinnerdb::skinner_workloads::torture::{correlation_torture, trivial, udf_torture, Shape};
use skinnerdb::skinner_workloads::tpch::{generate as tpch, TpchConfig};
use skinnerdb::{DataType, Database, Strategy, Value};

/// Regret envelope for the hybrid: the doubling schedule over-grants the
/// winning side by at most 2×, the loser is granted at most as much as the
/// winner plus one round, and both sides repeat preprocessing. 2 (doubling)
/// × 2 (two sides) leaves 4; we double once more for discretization at
/// test scale.
const HYBRID_REGRET_CONSTANT: f64 = 8.0;
/// Additive slack covering duplicated preprocessing and the final
/// postprocess pass, which are not proportional to join work.
const HYBRID_REGRET_SLACK: u64 = 20_000;

/// One query's bakeoff: all registered strategies agree with the reference,
/// and the hybrid's work is within the regret envelope of its best
/// contender.
fn bakeoff(db: &Database, name: &str, script: &str) {
    let expected = db
        .run_script(script, &Strategy::Reference)
        .unwrap_or_else(|e| panic!("{name}: reference failed: {e}"))
        .result
        .canonical_rows();
    for strategy_name in db.strategies().names() {
        if strategy_name == "Reference" {
            continue;
        }
        let strategy = db.strategies().get(&strategy_name).unwrap();
        let out = db
            .run_script_with(script, strategy.as_ref(), &db.exec_context())
            .unwrap_or_else(|e| panic!("{strategy_name} failed on {name}: {e}"));
        assert!(!out.timed_out, "{strategy_name} timed out on {name}");
        assert_eq!(
            out.result.canonical_rows(),
            expected,
            "{strategy_name} disagrees on {name}"
        );
    }

    let work = |s: &Strategy| {
        let out = db.run_script(script, s).unwrap();
        assert!(!out.timed_out, "{}: {name} timed out", s.name());
        out.work_units
    };
    let optimizer = work(&Strategy::Traditional(Default::default()));
    let learned = work(&Strategy::SkinnerG(Default::default()));
    let hybrid = work(&Strategy::SkinnerH(Default::default()));
    let best = optimizer.min(learned).max(1);
    let bound = (best as f64 * HYBRID_REGRET_CONSTANT) as u64 + HYBRID_REGRET_SLACK;
    let ratio = hybrid as f64 / best as f64;
    assert!(
        hybrid <= bound,
        "{name}: hybrid work {hybrid} exceeds {HYBRID_REGRET_CONSTANT}×min(optimizer {optimizer}, \
         learned {learned}) + {HYBRID_REGRET_SLACK} (measured ratio {ratio:.2})",
    );
}

/// Handmade star-ish join with skew, a selective filter and a string
/// dimension — small enough that every strategy finishes in milliseconds.
fn handmade_db() -> Database {
    let db = Database::new();
    db.create_table(
        "fact",
        &[
            ("id", DataType::Int),
            ("d1", DataType::Int),
            ("d2", DataType::Int),
        ],
        (0..300)
            .map(|i| vec![Value::Int(i), Value::Int(i % 15), Value::Int(i % 9)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim1",
        &[("id", DataType::Int), ("grp", DataType::Int)],
        (0..15)
            .map(|i| vec![Value::Int(i), Value::Int(i % 4)])
            .collect(),
    )
    .unwrap();
    db.create_table(
        "dim2",
        &[("id", DataType::Int), ("w", DataType::Int)],
        (0..9)
            .map(|i| vec![Value::Int(i), Value::Int(i * 5)])
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn handmade_joins() {
    let db = handmade_db();
    bakeoff(
        &db,
        "handmade-3way",
        "SELECT f.id, a.grp, b.w FROM fact f, dim1 a, dim2 b \
         WHERE f.d1 = a.id AND f.d2 = b.id AND a.grp < 3",
    );
    bakeoff(
        &db,
        "handmade-agg",
        "SELECT a.grp, COUNT(*) c, SUM(b.w) s FROM fact f, dim1 a, dim2 b \
         WHERE f.d1 = a.id AND f.d2 = b.id GROUP BY a.grp ORDER BY a.grp",
    );
}

#[test]
fn job_like_queries() {
    let w = job(&JobConfig {
        scale: 0.05,
        seed: 0xBAFF,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let mut queries = w.queries.clone();
    queries.sort_by_key(|q| q.num_tables);
    for q in queries.iter().take(2) {
        bakeoff(&db, &q.name, &q.script);
    }
}

#[test]
fn torture_workloads() {
    for w in [
        correlation_torture(4, 50, 1),
        udf_torture(Shape::Chain, 5, 40, 2),
        trivial(4, 30),
    ] {
        let db = Database::from_parts(w.catalog.clone(), w.udfs);
        let q = &w.queries[0];
        bakeoff(&db, &q.name, &q.script);
    }
}

/// The hybrid earning its keep: on UDF torture the planner's cardinality
/// estimates are blind to the selective UDFs, so the traditional plan is
/// catastrophically wrong. Skinner-H's learned side must deliver the
/// result, and the hybrid must end up cheaper than the pure traditional
/// run.
#[test]
fn hybrid_switches_away_from_a_misestimated_plan() {
    let w = udf_torture(Shape::Chain, 5, 40, 2);
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    let script = &w.queries[0].script;
    let trad = db
        .run_script(script, &Strategy::Traditional(Default::default()))
        .unwrap();
    let hybrid = db
        .run_script(script, &Strategy::SkinnerH(Default::default()))
        .unwrap();
    assert!(!trad.timed_out && !hybrid.timed_out);
    assert_eq!(hybrid.result.canonical_rows(), trad.result.canonical_rows());
    assert_eq!(
        hybrid.metrics.winner,
        Some(WINNER_LEARNED),
        "the misestimated plan delivered the result"
    );
    assert!(
        hybrid.work_units < trad.work_units,
        "hybrid {} did not beat the misestimated plan {}",
        hybrid.work_units,
        trad.work_units
    );
}

#[test]
fn tpch_decomposed_queries() {
    let w = tpch(&TpchConfig {
        scale: 0.002,
        seed: 77,
    });
    let db = Database::from_parts(w.catalog.clone(), w.udfs);
    // The decomposed scripts run nested queries through temp tables; the
    // two smallest keep registry-wide coverage fast on a single core.
    let mut queries = w.queries.clone();
    queries.sort_by_key(|q| q.num_tables);
    for q in queries.iter().take(2) {
        bakeoff(&db, &q.name, &q.script);
    }
}
