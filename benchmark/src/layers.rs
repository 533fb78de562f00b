//! Traced runs: untraced passes alternating with traced re-drives, the
//! re-drive self-check, and the per-layer metrics.

use std::time::{Duration, Instant};

use skinnerdb::skinner_core::SkinnerCConfig;
use skinnerdb::skinner_workloads::BenchQuery;
use skinnerdb::{Database, TreeCacheStats};

use crate::redrive::{redrive_script, self_check, Layer, StmtTrace, Tracer, LAYERS};
use crate::report::{ratio, Report, SplitMix};
use crate::{another_pass, differ_only_in_rounding, record, Answers, Sample};

/// Learning-cache counter deltas over a measured window.
#[derive(Default, Clone, Copy)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
}

impl CacheDelta {
    pub fn between(before: &TreeCacheStats, after: &TreeCacheStats) -> CacheDelta {
        CacheDelta {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            invalidations: after.invalidations - before.invalidations,
        }
    }

    fn add(&mut self, other: CacheDelta) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
    }
}

/// What the traced half of a run collected.
pub struct TraceRun {
    pub tracer: Tracer,
    /// Re-driven statements whose work, slices and rows matched.
    pub included: Vec<StmtTrace>,
    /// Why each other statement's layer numbers were withheld.
    pub withheld: Vec<String>,
    /// Statements compared.
    pub checked: usize,
    /// Traced over untraced statement wall, one value per pass pair.
    pub overhead: Vec<f64>,
    pub passes: usize,
    pub cache: CacheDelta,
    /// The untraced statements and their answers, for the result check.
    pub samples: Vec<Sample>,
    pub answers: Answers,
    /// Scripts whose traced result differed from the untraced one.
    pub result_mismatches: u64,
}

/// Alternate an untraced pass and a traced re-drive of the same statements
/// in the same order until `seconds` have elapsed (at least one pair).
/// `dbs` yields the (untraced, traced) databases of a pass; they must be
/// in the same state, so the two passes do the same work.
pub fn traced_passes(
    queries: &[BenchQuery],
    seconds: f64,
    rng: &mut SplitMix,
    dbs: &mut dyn FnMut() -> (Database, Database),
) -> Result<TraceRun, String> {
    let cfg = SkinnerCConfig::default();
    let mut run = TraceRun {
        tracer: Tracer::new(),
        included: Vec::new(),
        withheld: Vec::new(),
        checked: 0,
        overhead: Vec::new(),
        passes: 0,
        cache: CacheDelta::default(),
        samples: Vec::new(),
        answers: Answers::new(),
        result_mismatches: 0,
    };
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while another_pass(start, last, seconds, run.passes) {
        let pair = Instant::now();
        let pass = run.passes;
        let order = rng.permutation(queries.len());
        let (untraced_db, traced_db) = dbs();

        let session = untraced_db.session();
        let mut untraced = Vec::with_capacity(order.len());
        let mut untraced_ns = 0u128;
        for &qi in &order {
            let t = Instant::now();
            let out = session
                .run_script_detailed(&queries[qi].script)
                .map_err(|e| format!("{}: {e}", queries[qi].name))?;
            let ns = t.elapsed().as_nanos();
            untraced_ns += ns;
            run.samples.push(Sample {
                query: qi,
                ms: ns as f64 / 1e6,
                fp: (!out.timed_out).then(|| record(&mut run.answers, &out.result)),
            });
            untraced.push(out);
        }

        let session = traced_db.session();
        let before = traced_db.learning_cache_stats();
        let first_span = run.tracer.spans.len();
        for (k, &qi) in order.iter().enumerate() {
            let q = &queries[qi];
            let ctx = session.exec_context();
            let (result, traces) =
                redrive_script(&traced_db, &ctx, &cfg, &q.name, &q.script, &mut run.tracer)?;
            let verdicts = self_check(&traces, &untraced[k]);
            let (got, want) = (result.canonical_rows(), untraced[k].result.canonical_rows());
            let same_rows = got == want || differ_only_in_rounding(&got, &want);
            if !same_rows {
                run.result_mismatches += 1;
            }
            for (t, verdict) in traces.into_iter().zip(verdicts) {
                run.checked += 1;
                let why = match verdict {
                    None if same_rows => {
                        run.included.push(t);
                        continue;
                    }
                    None => "result rows differ".to_string(),
                    Some(why) => why,
                };
                let label = &run.tracer.labels[t.id as usize];
                run.withheld.push(format!("{label} (pass {pass}): {why}"));
            }
        }
        run.cache.add(CacheDelta::between(
            &before,
            &traced_db.learning_cache_stats(),
        ));
        let traced_ns: u64 = run.tracer.spans[first_span..]
            .iter()
            .filter(|s| s.layer == Layer::Stmt)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        run.overhead
            .push(ratio(traced_ns as f64, untraced_ns as f64));
        run.passes += 1;
        last = pair.elapsed();
    }
    Ok(run)
}

/// Server-side numbers of the `wire` workload's traced run.
pub struct ServerLayer {
    /// Median of client round trip minus server-reported statement wall.
    pub overhead_us: f64,
    /// That difference summed, over the round trips summed.
    pub wire_share: f64,
    pub shed: f64,
    pub admission_wait_p99_us: f64,
    /// Connection cycles completed in the window (its number of passes).
    pub cycles: f64,
    /// Learning-cache deltas on the server's database, which both
    /// connections share.
    pub cache: CacheDelta,
}

/// Add every per-layer metric of `run` to `report`, note the self-check,
/// and write the spans out.
pub fn report_layers(
    report: &mut Report,
    run: &TraceRun,
    server: Option<&ServerLayer>,
    span_file: &std::path::Path,
) {
    let per_stmt = run.tracer.layer_ns();
    let mut ns = [0u64; LAYERS];
    for t in &run.included {
        for (l, v) in per_stmt[t.id as usize].iter().enumerate() {
            ns[l] += v;
        }
    }
    let layer = |l: Layer| ns[l as usize] as f64;
    let total = layer(Layer::Stmt);
    let share = |l: Layer| ratio(layer(l), total);
    let sum = |f: fn(&crate::redrive::StmtCounts) -> u64| -> f64 {
        run.included.iter().map(|t| f(&t.counts)).sum::<u64>() as f64
    };
    let passes = run.passes as f64;
    let executed = sum(|c| c.executed as u64);
    let scripts = sum(|c| c.parsed as u64);
    let slices = sum(|c| c.slices);
    let n = run.included.len();

    let query_ns = layer(Layer::Parse) + layer(Layer::Bind);
    report.add("query.share", ratio(query_ns, total), "ratio", n);
    report.add(
        "query.parse_us",
        ratio(layer(Layer::Parse), scripts) / 1e3,
        "us",
        scripts as usize,
    );
    report.add(
        "query.bind_us",
        ratio(layer(Layer::Bind), executed) / 1e3,
        "us",
        executed as usize,
    );

    report.add(
        "exec.preprocess.share",
        share(Layer::Preprocess),
        "ratio",
        n,
    );
    report.add(
        "exec.preprocess.ns_per_row_in",
        ratio(layer(Layer::Preprocess), sum(|c| c.rows_in)),
        "ns",
        n,
    );
    report.add(
        "exec.preprocess.rows_kept_ratio",
        ratio(sum(|c| c.rows_kept), sum(|c| c.rows_in)),
        "ratio",
        n,
    );

    report.add("core.index.share", share(Layer::Index), "ratio", n);
    report.add(
        "core.index.ns_per_row",
        ratio(layer(Layer::Index), sum(|c| c.index_rows)),
        "ns",
        n,
    );
    let max_index = run
        .included
        .iter()
        .map(|t| t.counts.index_bytes)
        .max()
        .unwrap_or(0);
    report.add("core.index.bytes", max_index as f64, "B", n);

    report.add("uct.share", share(Layer::Uct), "ratio", n);
    report.add(
        "uct.ns_per_call",
        ratio(layer(Layer::Uct), sum(|c| c.uct_calls)),
        "ns",
        n,
    );
    report.add(
        "uct.best_order_slice_ratio",
        ratio(sum(|c| c.best_order_slices), slices),
        "ratio",
        n,
    );

    report.add("core.join.share", share(Layer::Join), "ratio", n);
    report.add(
        "core.join.ns_per_unit",
        ratio(layer(Layer::Join), sum(|c| c.join_units)),
        "ns",
        n,
    );
    report.add(
        "core.join.work_units",
        ratio(sum(|c| c.join_units), passes),
        "count",
        run.passes,
    );
    report.add(
        "core.join.slices",
        ratio(slices, passes),
        "count",
        run.passes,
    );

    report.add("core.state.share", share(Layer::State), "ratio", n);
    report.add(
        "core.state.ns_per_slice",
        ratio(layer(Layer::State), slices),
        "ns",
        n,
    );

    report.add(
        "exec.postprocess.share",
        share(Layer::Postprocess),
        "ratio",
        n,
    );
    report.add(
        "exec.postprocess.ns_per_tuple",
        ratio(layer(Layer::Postprocess), sum(|c| c.result_tuples)),
        "ns",
        n,
    );

    let cache = server.map_or(run.cache, |s| s.cache);
    report.add("core.cache.share", share(Layer::Cache), "ratio", n);
    report.add(
        "core.cache.hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "ratio",
        (cache.hits + cache.misses) as usize,
    );
    let cache_passes = server.map_or(passes, |s| s.cycles);
    report.add(
        "core.cache.invalidations",
        ratio(cache.invalidations as f64, cache_passes),
        "count",
        cache_passes as usize,
    );
    let switched: Vec<u64> = run
        .included
        .iter()
        .filter(|t| t.counts.slices > 0)
        .map(|t| t.counts.last_order_switch)
        .collect();
    report.add(
        "core.cache.lock_in_episode",
        ratio(switched.iter().sum::<u64>() as f64, switched.len() as f64),
        "count",
        switched.len(),
    );

    report.add("storage.temp_ddl_share", share(Layer::Storage), "ratio", n);
    report.add(
        "storage.temp_rows_written",
        ratio(sum(|c| c.temp_rows), passes),
        "count",
        run.passes,
    );

    let s = server.map_or([0.0; 4], |s| {
        [s.overhead_us, s.wire_share, s.shed, s.admission_wait_p99_us]
    });
    report.add("server.wire_overhead_us", s[0], "us", 1);
    report.add("server.wire_share", s[1], "ratio", 1);
    report.add("server.shed", s[2], "count", 1);
    report.add("server.admission_wait_p99_us", s[3], "us", 1);

    let named: f64 = ns[1..].iter().sum::<u64>() as f64;
    report.add("other.share", ratio(total - named, total), "ratio", n);
    report.add(
        "trace.overhead_ratio",
        crate::report::median(&run.overhead),
        "ratio",
        run.overhead.len(),
    );
    report.add("redrive.checked", run.checked as f64, "count", 1);
    report.add("redrive.withheld", run.withheld.len() as f64, "count", 1);

    report.note(format!(
        "re-drive self-check: {} of {} statements reproduce the untraced work units, slices \
         and rows over {} traced passes",
        run.checked - run.withheld.len(),
        run.checked,
        run.passes
    ));
    for w in &run.withheld {
        report.note(format!("  withheld {w}"));
    }
    report.note(format!(
        "trace.overhead_ratio per pass: {:?}",
        run.overhead
            .iter()
            .map(|r| (r * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    match run.tracer.write_tsv(span_file) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            run.tracer.spans.len(),
            span_file.display()
        )),
        Err(e) => report.note(format!("spans not written: {e}")),
    }
}
