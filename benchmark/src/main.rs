//! The repository benchmark: three workloads that run Skinner-C, the
//! default strategy, through the public `Database` and `skinner_server`
//! entry points.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload job-cold|tpch-warm|wire --seed N --seconds S --trace 0|1 \
//!     [--data-seed N]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1`
//! alternates untraced passes with traced re-drives of the same statements
//! and reports the per-layer metrics. The last line of standard output is
//! one JSON object; `README.md` beside this crate defines every metric.

mod layers;
mod redrive;
mod report;
mod wire;

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use skinnerdb::skinner_query::UdfRegistry;
use skinnerdb::skinner_workloads::{job_like, tpch, BenchQuery};
use skinnerdb::{Database, QueryResult};

use layers::traced_passes;
use report::{median, percentile, Report, SplitMix};

/// Set-ups per run; `setup_s` is their median. tpch-warm sets up fewer
/// times because its set-up includes a warm-up pass of several seconds.
pub const SETUP_REPEATS: usize = 5;
const TPCH_SETUP_REPEATS: usize = 3;

/// Scale factors. job-cold runs the JOB-like data at the scale of the
/// paper's headline experiment; tpch-warm at a scale where a pass takes a
/// few seconds; wire at a scale where dispatch and protocol are a large
/// share of a statement.
const JOB_SCALE: f64 = 1.0;
const TPCH_SCALE: f64 = 0.05;
pub const WIRE_SCALE: f64 = 0.12;

pub struct Args {
    pub workload: String,
    /// Schedule seed: the order of statements in each pass and the
    /// rotation of the wire connections.
    pub seed: u64,
    /// Data seed of the generators; `None` keeps their own defaults.
    pub data_seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        data_seed: None,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("integer"))?,
            "--data-seed" => args.data_seed = Some(value.parse().map_err(|_| bad("integer"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload job-cold|tpch-warm|wire --seed N --seconds S --trace 0|1 \
                 [--data-seed N]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "job-cold" => job_cold(&args),
        "tpch-warm" => tpch_warm(&args),
        "wire" => wire::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(done) => {
            done.report.print(
                &args.workload,
                done.failed == 0,
                done.attempted,
                done.failed,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a workload run hands back for printing.
pub struct Done {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
}

/// One timed statement of an untraced run.
pub struct Sample {
    /// Index into the workload's statement list.
    pub query: usize,
    pub ms: f64,
    /// Fingerprint of the result rows; `None` when the statement failed.
    pub fp: Option<u64>,
}

/// Canonical rows of every distinct answer seen, by fingerprint, so that
/// a failed result check can show how the rows differ.
pub type Answers = HashMap<u64, Vec<String>>;

/// Order-insensitive fingerprint of a result: a hash of its canonical
/// rows, which are kept in `answers`.
pub fn record(answers: &mut Answers, result: &QueryResult) -> u64 {
    let rows = result.canonical_rows();
    let mut h = DefaultHasher::new();
    rows.hash(&mut h);
    let fp = h.finish();
    answers.entry(fp).or_insert(rows);
    fp
}

/// The `Traditional` strategy's answer to every statement.
pub struct Reference {
    /// Fingerprint of each statement's answer, by statement index.
    pub fps: Vec<u64>,
    pub rows: Answers,
}

/// Compute the reference answers once, on `db`.
pub fn reference_answers(db: &Database, queries: &[BenchQuery]) -> Result<Reference, String> {
    let session = db.session();
    session
        .use_strategy("traditional")
        .map_err(|e| e.to_string())?;
    let mut rows = Answers::new();
    let mut fps = Vec::with_capacity(queries.len());
    for q in queries {
        let r = session
            .query(&q.script)
            .map_err(|e| format!("reference {}: {e}", q.name))?;
        fps.push(record(&mut rows, &r));
    }
    Ok(Reference { fps, rows })
}

/// Whether two canonical answers differ only where a float was rounded
/// the other way. `canonical_rows` prints floats to 6 decimals so that
/// strategies summing in different orders agree, but a sum near a rounding
/// boundary can still print one unit apart.
pub fn differ_only_in_rounding(got: &[String], want: &[String]) -> bool {
    let close = |a: &str, b: &str| match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) if a.contains('.') => (x - y).abs() <= f64::max(2e-6, 1e-12 * x.abs()),
        _ => false,
    };
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.split('|').count() == w.split('|').count()
                && g.split('|')
                    .zip(w.split('|'))
                    .all(|(a, b)| a == b || close(a, b))
        })
}

/// Compare every sample with its reference answer; returns how many
/// failed (error, timeout or wrong rows) and notes how each differing
/// answer differs. An answer that differs only in float rounding is noted
/// but not counted as failed.
pub fn check_results(
    samples: &[Sample],
    answers: &Answers,
    reference: &Reference,
    queries: &[BenchQuery],
    report: &mut Report,
) -> u64 {
    let mut failed = 0;
    let mut differing: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    for s in samples {
        match s.fp {
            Some(fp) if fp == reference.fps[s.query] => {}
            Some(fp) => *differing.entry((s.query, fp)).or_default() += 1,
            None => failed += 1,
        }
    }
    for ((qi, fp), count) in differing {
        let got = &answers[&fp];
        let want = &reference.rows[&reference.fps[qi]];
        let rounding = differ_only_in_rounding(got, want);
        if !rounding {
            failed += count;
        }
        let extra: Vec<&String> = got.iter().filter(|r| !want.contains(r)).take(3).collect();
        let missing: Vec<&String> = want.iter().filter(|r| !got.contains(r)).take(3).collect();
        report.note(format!(
            "result check: {} differs from Traditional{} in {count} runs ({} vs {} rows); \
             only here: {extra:?}; only in Traditional: {missing:?}",
            queries[qi].name,
            if rounding {
                " in float rounding only"
            } else {
                ""
            },
            got.len(),
            want.len()
        ));
    }
    report.note(format!(
        "result check: {} of {} timed statements match Traditional",
        samples.len() as u64 - failed,
        samples.len()
    ));
    failed
}

/// What an untraced window measured.
#[derive(Default)]
pub struct Timed {
    pub samples: Vec<Sample>,
    pub answers: Answers,
    /// Statements per second, one value per pass (or per window on `wire`).
    pub throughput: Vec<f64>,
    /// Work units of each complete pass.
    pub pass_work: Vec<f64>,
}

/// Result check and end-to-end metrics of an untraced run. `rss_mb` is
/// read before the reference answers are computed.
pub fn finish_untraced(
    mut report: Report,
    setup_s: &[f64],
    timed: &Timed,
    rss_mb: f64,
    reference: &Reference,
    queries: &[BenchQuery],
) -> Done {
    let failed = check_results(
        &timed.samples,
        &timed.answers,
        reference,
        queries,
        &mut report,
    );
    let ms: Vec<f64> = timed.samples.iter().map(|s| s.ms).collect();
    let n = ms.len();
    let mut per_query: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in &timed.samples {
        per_query.entry(s.query).or_default().push(s.ms);
    }
    let worst = per_query.values().map(|v| median(v)).fold(0.0, f64::max);
    report.add("setup_s", median(setup_s), "s", setup_s.len());
    report.add(
        "throughput_qps",
        median(&timed.throughput),
        "1/s",
        timed.throughput.len(),
    );
    report.add("latency_p50_ms", percentile(&ms, 0.50), "ms", n);
    report.add("latency_p90_ms", percentile(&ms, 0.90), "ms", n);
    report.add("latency_p99_ms", percentile(&ms, 0.99), "ms", n);
    report.add("worst_query_ms", worst, "ms", per_query.len());
    report.add(
        "work_units",
        median(&timed.pass_work),
        "count",
        timed.pass_work.len(),
    );
    report.add("peak_rss_mb", rss_mb, "MiB", 1);
    report.add(
        "correct_frac",
        report::ratio((n as u64 - failed) as f64, n as f64),
        "ratio",
        n,
    );
    if n < 1000 {
        report.note(format!(
            "latency_p99_ms rests on {n} samples, fewer than 10 beyond the 99th percentile"
        ));
    }
    Done {
        report,
        attempted: n as u64,
        failed,
    }
}

/// Result check and per-layer metrics of a traced run. The untraced
/// statements are checked against `Traditional`, the traced ones against
/// the untraced.
pub fn finish_traced(
    mut report: Report,
    run: &layers::TraceRun,
    reference: &Reference,
    queries: &[BenchQuery],
    server: Option<&layers::ServerLayer>,
    args: &Args,
) -> Done {
    let failed = check_results(&run.samples, &run.answers, reference, queries, &mut report)
        + run.result_mismatches;
    if run.result_mismatches > 0 {
        report.note(format!(
            "result check: {} re-driven scripts returned other rows than the untraced run",
            run.result_mismatches
        ));
    }
    let span_file = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.tsv", args.workload));
    layers::report_layers(&mut report, run, server, &span_file);
    Done {
        report,
        attempted: run.samples.len() as u64,
        failed,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether to start another pass: always a first one, then only while the
/// last pass's duration still fits into the window.
pub fn another_pass(start: Instant, last: Duration, seconds: f64, passes: usize) -> bool {
    passes == 0 || secs(start.elapsed() + last) <= seconds
}

/// One pass of `queries` in `order` through a session of `db`: the
/// statements a single closed-loop client submits back to back.
fn untraced_pass(db: &Database, queries: &[BenchQuery], order: &[usize], timed: &mut Timed) {
    let session = db.session();
    let mut busy = 0.0;
    let mut work = 0;
    for &qi in order {
        let t = Instant::now();
        let out = session.run_script_detailed(&queries[qi].script);
        let ms = secs(t.elapsed()) * 1e3;
        busy += ms;
        let fp = match out {
            Ok(o) => {
                work += o.work_units;
                (!o.timed_out).then(|| record(&mut timed.answers, &o.result))
            }
            Err(_) => None,
        };
        timed.samples.push(Sample { query: qi, ms, fp });
    }
    timed.throughput.push(order.len() as f64 / (busy / 1e3));
    timed.pass_work.push(work as f64);
}

/// Untraced closed-loop passes for `seconds` (at least one).
fn timed_passes(
    seconds: f64,
    rng: &mut SplitMix,
    queries: &[BenchQuery],
    mut db_for_pass: impl FnMut() -> Database,
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while another_pass(start, last, seconds, timed.throughput.len()) {
        let t = Instant::now();
        let order = rng.permutation(queries.len());
        untraced_pass(&db_for_pass(), queries, &order, &mut timed);
        last = t.elapsed();
    }
    timed
}

/// `job-cold`: JOB-like data, learning cache off, a new `Database` per
/// pass, one in-process client.
fn job_cold(args: &Args) -> Result<Done, String> {
    let cfg = job_like::JobConfig {
        scale: JOB_SCALE,
        seed: args
            .data_seed
            .unwrap_or(job_like::JobConfig::default().seed),
    };
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        let w = job_like::generate(&cfg);
        let db = Database::from_parts(w.catalog.clone(), UdfRegistry::new());
        setup_s.push(secs(t.elapsed()));
        workload = Some((w, db));
    }
    let (w, db) = workload.expect("SETUP_REPEATS > 0");
    let catalog = w.catalog.clone();
    let fresh = || Database::from_parts(catalog.clone(), UdfRegistry::new());
    let mut rng = SplitMix(args.seed);
    let report = Report::default();

    if args.trace {
        let run = traced_passes(&w.queries, args.seconds, &mut rng, &mut || {
            (fresh(), fresh())
        })?;
        let reference = reference_answers(&db, &w.queries)?;
        return Ok(finish_traced(
            report, &run, &reference, &w.queries, None, args,
        ));
    }

    let timed = timed_passes(args.seconds, &mut rng, &w.queries, fresh);
    let rss_mb = report::peak_rss_mb();
    let reference = reference_answers(&db, &w.queries)?;
    Ok(finish_untraced(
        report, &setup_s, &timed, rss_mb, &reference, &w.queries,
    ))
}

/// Generate the TPC-H data and a learning-cache database over it, then
/// run one cold pass in script order: the warm-up that `setup_s` includes.
fn tpch_setup(cfg: &tpch::TpchConfig) -> Result<(Vec<BenchQuery>, Database), String> {
    let w = tpch::generate(cfg);
    let db = Database::from_parts(w.catalog, w.udfs);
    db.set_learning_cache(true);
    let session = db.session();
    for q in &w.queries {
        session
            .run_script_detailed(&q.script)
            .map_err(|e| format!("warm-up {}: {e}", q.name))?;
    }
    Ok((w.queries, db))
}

/// `tpch-warm`: decomposed TPC-H scripts (temp tables) with the learning
/// cache on, one `Database` across passes after a cold warm-up pass.
fn tpch_warm(args: &Args) -> Result<Done, String> {
    let cfg = tpch::TpchConfig {
        scale: TPCH_SCALE,
        seed: args.data_seed.unwrap_or(tpch::TpchConfig::default().seed),
    };
    let mut rng = SplitMix(args.seed);
    let report = Report::default();

    if args.trace {
        // Two identical databases from the same state: the untraced pass
        // runs on one and the traced re-drive on the other, so both start
        // every pass with the same learned priors.
        let (queries, untraced) = tpch_setup(&cfg)?;
        let (_, traced) = tpch_setup(&cfg)?;
        let run = traced_passes(&queries, args.seconds, &mut rng, &mut || {
            (untraced.clone(), traced.clone())
        })?;
        let reference = reference_answers(&untraced, &queries)?;
        return Ok(finish_traced(
            report, &run, &reference, &queries, None, args,
        ));
    }

    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..TPCH_SETUP_REPEATS {
        drop(state.take());
        let t = Instant::now();
        state = Some(tpch_setup(&cfg)?);
        setup_s.push(secs(t.elapsed()));
    }
    let (queries, db) = state.expect("TPCH_SETUP_REPEATS > 0");
    let timed = timed_passes(args.seconds, &mut rng, &queries, || db.clone());
    let rss_mb = report::peak_rss_mb();
    let reference = reference_answers(&db, &queries)?;
    Ok(finish_untraced(
        report, &setup_s, &timed, rss_mb, &reference, &queries,
    ))
}

#[cfg(test)]
mod tests {
    use super::differ_only_in_rounding;

    fn rows(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rounding_tolerance_covers_only_float_fields() {
        let want = rows(&["ALGERIA|1992|7381122.778543", "BRAZIL|1993|12.000000"]);
        let close = rows(&["ALGERIA|1992|7381122.778542", "BRAZIL|1993|12.000000"]);
        assert!(differ_only_in_rounding(&close, &want));
        let far = rows(&["ALGERIA|1992|7381122.778600", "BRAZIL|1993|12.000000"]);
        assert!(!differ_only_in_rounding(&far, &want));
        let other_key = rows(&["ALGERIA|1991|7381122.778543", "BRAZIL|1993|12.000000"]);
        assert!(!differ_only_in_rounding(&other_key, &want));
        assert!(!differ_only_in_rounding(&want[..1], &want));
    }
}
