//! `wire`: an in-process `skinner_server` on loopback, driven by two
//! closed-loop client connections with one statement in flight each.
//!
//! Each connection cycles the 30 JOB-like queries at a small scale, in the
//! seed's order, the second connection rotated half a cycle against the
//! first. At this scale a statement executes in about a millisecond, so
//! dispatch, protocol, admission and flush are a large share of its round
//! trip, and the two sessions share one learning cache and the CPU.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use skinner_client::Client;
use skinner_server::{Server, ServerConfig};
use skinnerdb::skinner_query::UdfRegistry;
use skinnerdb::skinner_workloads::{job_like, BenchQuery};
use skinnerdb::{Database, Value};

use crate::layers::{traced_passes, CacheDelta, ServerLayer};
use crate::report::{median, peak_rss_mb, ratio, Report, SplitMix};
use crate::{
    check_results, finish_traced, finish_untraced, record, reference_answers, Answers, Args, Done,
    Sample, Timed, SETUP_REPEATS, WIRE_SCALE,
};

/// Client connections; no more than the two cores the benchmark targets.
const CONNECTIONS: usize = 2;

/// A running server, its database and the connected clients.
struct Rig {
    clients: Vec<Client>,
    server: Server,
    db: Database,
    queries: Vec<BenchQuery>,
}

/// One statement as the client saw it.
struct WireSample {
    query: usize,
    conn: usize,
    cycle: usize,
    rtt_us: f64,
    /// Statement wall the server reported (`QuerySummary::wall_micros`).
    server_us: f64,
    work: u64,
    fp: Option<u64>,
    shed: bool,
}

fn wire_db(data_seed: u64) -> (Database, Vec<BenchQuery>) {
    let w = job_like::generate(&job_like::JobConfig {
        scale: WIRE_SCALE,
        seed: data_seed,
    });
    let db = Database::from_parts(w.catalog.clone(), UdfRegistry::new());
    // `skinner-server --learning-cache`: cross-query learning on for
    // every session.
    db.set_learning_cache(true);
    (db, w.queries)
}

/// Generate the data, start the server, connect the clients and run one
/// warm-up cycle per connection.
fn setup(data_seed: u64, cycles: &[Vec<usize>]) -> Result<Rig, String> {
    let (db, queries) = wire_db(data_seed);
    let cfg = ServerConfig {
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    };
    let server = Server::bind(db.clone(), "127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rig = Rig {
        clients,
        server,
        db,
        queries,
    };
    drive(&mut rig.clients, &rig.queries, cycles, None);
    Ok(rig)
}

impl Rig {
    fn stop(mut self) -> Database {
        self.clients.clear();
        self.server.shutdown();
        self.db
    }
}

/// Run the closed loop on every connection at once: until `deadline`, or
/// one cycle per connection when there is none.
fn drive(
    clients: &mut [Client],
    queries: &[BenchQuery],
    cycles: &[Vec<usize>],
    deadline: Option<Instant>,
) -> (Vec<WireSample>, Answers) {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(cycles)
            .enumerate()
            .map(|(conn, (client, cycle))| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut answers = Answers::new();
                    'outer: for round in 0.. {
                        for &qi in cycle {
                            if deadline.is_some_and(|d| Instant::now() >= d) {
                                break 'outer;
                            }
                            let t = Instant::now();
                            let reply = client.query(&queries[qi].script);
                            let rtt_us = t.elapsed().as_secs_f64() * 1e6;
                            let mut sample = WireSample {
                                query: qi,
                                conn,
                                cycle: round,
                                rtt_us,
                                server_us: 0.0,
                                work: 0,
                                fp: None,
                                shed: false,
                            };
                            let broken = match reply {
                                Ok(r) => {
                                    sample.server_us = r.summary.wall_micros as f64;
                                    sample.work = r.summary.work_units;
                                    sample.fp = Some(record(&mut answers, &r.into_query_result()));
                                    false
                                }
                                Err(e) => {
                                    sample.shed = e.is_overloaded();
                                    matches!(e, skinner_client::ClientError::Io(_))
                                }
                            };
                            out.push(sample);
                            if broken {
                                break 'outer;
                            }
                        }
                        if deadline.is_none() {
                            break;
                        }
                    }
                    (out, answers)
                })
            })
            .collect();
        let mut all = (Vec::new(), Answers::new());
        for h in handles {
            let (out, answers) = h.join().expect("client thread panicked");
            all.0.extend(out);
            all.1.extend(answers);
        }
        all
    })
}

/// `SHOW SERVER STATS` as a map.
fn server_stats(client: &mut Client) -> Result<HashMap<String, i64>, String> {
    let r = client
        .query("SHOW SERVER STATS")
        .map_err(|e| format!("SHOW SERVER STATS: {e}"))?;
    Ok(r.rows
        .iter()
        .filter_map(|row| match row.as_slice() {
            [Value::Str(k), Value::Int(v)] => Some((k.to_string(), *v)),
            _ => None,
        })
        .collect())
}

/// The window as the end-to-end metrics see it: every round trip a
/// sample, throughput over the whole window, work units per complete
/// connection cycle of `n` statements.
fn timed(wire: Vec<WireSample>, answers: Answers, window_s: f64, n: usize) -> Timed {
    let mut cycles: BTreeMap<(usize, usize), (usize, u64)> = BTreeMap::new();
    for w in &wire {
        let e = cycles.entry((w.conn, w.cycle)).or_default();
        e.0 += 1;
        e.1 += w.work;
    }
    let completed = wire.iter().filter(|w| w.fp.is_some()).count();
    Timed {
        samples: wire
            .iter()
            .map(|w| Sample {
                query: w.query,
                ms: w.rtt_us / 1e3,
                fp: w.fp,
            })
            .collect(),
        answers,
        throughput: vec![completed as f64 / window_s],
        pass_work: cycles
            .values()
            .filter(|(count, _)| *count == n)
            .map(|&(_, work)| work as f64)
            .collect(),
    }
}

pub fn run(args: &Args) -> Result<Done, String> {
    let data_seed = args
        .data_seed
        .unwrap_or(job_like::JobConfig::default().seed);
    let n = job_like::queries().len();
    // The seed picks where in the listed order the first connection
    // starts; the cyclic order itself stays fixed, since the order in
    // which templates publish priors changes how much the two sessions
    // warm-start each other.
    let mut rng = SplitMix(args.seed);
    let offset = (rng.next() % n as u64) as usize;
    let cycles: Vec<Vec<usize>> = (0..CONNECTIONS)
        .map(|c| {
            let mut cycle: Vec<usize> = (0..n).collect();
            cycle.rotate_left((offset + c * n / CONNECTIONS) % n);
            cycle
        })
        .collect();
    let mut report = Report::default();

    if args.trace {
        // Half the window on the wire for the server numbers, half on the
        // in-process re-drive of the same statements for the layers.
        let mut rig = setup(data_seed, &cycles)?;
        let before = server_stats(&mut rig.clients[0])?;
        let cache_before = rig.db.learning_cache_stats();
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(args.seconds / 2.0);
        let (wire, answers) = drive(&mut rig.clients, &rig.queries, &cycles, Some(deadline));
        let window_s = start.elapsed().as_secs_f64();
        let cache = CacheDelta::between(&cache_before, &rig.db.learning_cache_stats());
        let after = server_stats(&mut rig.clients[0])?;
        let stat = |m: &HashMap<String, i64>, k: &str| m.get(k).copied().unwrap_or(0) as f64;
        let ok: Vec<&WireSample> = wire.iter().filter(|w| w.fp.is_some()).collect();
        let overhead: Vec<f64> = ok.iter().map(|w| w.rtt_us - w.server_us).collect();
        let server = ServerLayer {
            overhead_us: median(&overhead),
            wire_share: ratio(overhead.iter().sum(), ok.iter().map(|w| w.rtt_us).sum()),
            shed: stat(&after, "shed_total") - stat(&before, "shed_total"),
            admission_wait_p99_us: stat(&after, "admission_wait_us.p99"),
            cycles: ok.len() as f64 / n as f64,
            cache,
        };
        let queries = rig.queries.clone();
        let db = rig.stop();
        let reference = reference_answers(&db, &queries)?;
        let on_wire = timed(wire, answers, window_s, n);
        report.note("wire half of the window:".into());
        let wire_failed = check_results(
            &on_wire.samples,
            &on_wire.answers,
            &reference,
            &queries,
            &mut report,
        );

        report.note("in-process half of the window:".into());
        let (untraced, _) = wire_db(data_seed);
        let (traced, _) = wire_db(data_seed);
        let run = traced_passes(&queries, args.seconds / 2.0, &mut rng, &mut || {
            (untraced.clone(), traced.clone())
        })?;
        let mut done = finish_traced(report, &run, &reference, &queries, Some(&server), args);
        done.attempted += on_wire.samples.len() as u64;
        done.failed += wire_failed;
        return Ok(done);
    }

    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(r) = rig.take() {
            Rig::stop(r);
        }
        let t = Instant::now();
        rig = Some(setup(data_seed, &cycles)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("SETUP_REPEATS > 0");
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(args.seconds);
    let (wire, answers) = drive(&mut rig.clients, &rig.queries, &cycles, Some(deadline));
    let window_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();
    let queries = rig.queries.clone();
    let db = rig.stop();

    let shed = wire.iter().filter(|w| w.shed).count();
    if shed > 0 {
        report.note(format!("{shed} statements shed by admission control"));
    }
    let reference = reference_answers(&db, &queries)?;
    let timed = timed(wire, answers, window_s, n);
    Ok(finish_untraced(
        report, &setup_s, &timed, rss_mb, &reference, &queries,
    ))
}
