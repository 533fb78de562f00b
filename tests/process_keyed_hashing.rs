//! End-to-end behaviour of the engine's process-keyed hasher: keys built
//! to collide in their low bits still join correctly, and hash-ordered
//! output (unordered GROUP BY materialized into temp tables) repeats
//! between identically built databases in one process, so the work of the
//! statements that read it back repeats too.

use skinnerdb::skinner_workloads::tpch::{generate, TpchConfig};
use skinnerdb::{DataType, Database, ScriptOutcome, Strategy, Value};

#[test]
fn keys_sharing_low_bits_join_like_traditional() {
    let db = Database::new();
    db.create_table(
        "nums",
        &[("x", DataType::Int), ("g", DataType::Int)],
        (0..4096)
            .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
            .collect(),
    )
    .unwrap();
    // Every key is a multiple of 2^20: all agree in their low 20 bits.
    let script = "CREATE TEMP TABLE wide AS SELECT n.x * 1048576 AS k, n.g AS g FROM nums n; \
                  CREATE TEMP TABLE probe AS SELECT n.x * 1048576 AS k FROM nums n WHERE n.g < 2; \
                  SELECT w.g, COUNT(*) AS cnt FROM wide w, probe p, nums n \
                  WHERE w.k = p.k AND n.x * 1048576 = p.k GROUP BY w.g; \
                  DROP TABLE wide; DROP TABLE probe;";
    let skinner = db.run_script(script, &Strategy::default()).unwrap();
    let trad = db
        .run_script(script, &Strategy::Traditional(Default::default()))
        .unwrap();
    assert!(!skinner.timed_out && !trad.timed_out);
    let rows = skinner.result.canonical_rows();
    assert_eq!(rows, trad.result.canonical_rows());
    // Groups g = 0 and g = 1 survive the probe filter.
    assert_eq!(rows.len(), 2);
}

fn run_detailed(db: &Database, script: &str) -> ScriptOutcome {
    let out = db.session().run_script_detailed(script).unwrap();
    assert!(!out.timed_out);
    out
}

#[test]
fn group_by_temp_tables_repeat_work_and_row_order_across_databases() {
    let cfg = TpchConfig {
        scale: 0.01,
        seed: 0x79C8,
    };
    let build = || {
        let w = generate(&cfg);
        (Database::from_parts(w.catalog, w.udfs), w.queries)
    };
    let (first, queries) = build();
    let (second, _) = build();
    let mut scripts: Vec<String> = queries
        .iter()
        .filter(|q| q.name == "Q18" || q.name == "Q21")
        .map(|q| q.script.clone())
        .collect();
    assert_eq!(scripts.len(), 2);
    // The grouping temp table itself, read back in storage order.
    scripts.push(
        "CREATE TEMP TABLE qty AS \
         SELECT l.l_orderkey ok, SUM(l.l_quantity) qty FROM lineitem l GROUP BY l.l_orderkey; \
         SELECT b.ok, b.qty FROM qty b; DROP TABLE qty;"
            .into(),
    );
    for script in &scripts {
        let a = run_detailed(&first, script);
        let b = run_detailed(&second, script);
        let work = |o: &ScriptOutcome| {
            o.statements
                .iter()
                .map(|s| s.work_units)
                .collect::<Vec<_>>()
        };
        assert_eq!(work(&a), work(&b), "per-statement work differs: {script}");
        assert_eq!(a.result.rows, b.result.rows, "row order differs: {script}");
    }
}
