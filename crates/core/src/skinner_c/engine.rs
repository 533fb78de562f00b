//! The Skinner-C main loop (paper Algorithm 3).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skinner_exec::{
    postprocess, ExecContext, ExecMetrics, ExecOutcome, QueryResult, Span, SpanTimer, WorkBudget,
};
use skinner_query::{JoinGraph, JoinQuery, TableSet};
use skinner_storage::{FastMap, RowId};
use skinner_uct::{UctConfig, UctTree};

use crate::cache::CacheProbe;
use crate::config::SkinnerCConfig;

use super::join::{continue_join, MultiwayCtx, OrderInfo, SliceOutcome};
use super::preproc::prepare;
use super::result_set::ResultSet;
use super::reward::slice_reward;
use super::state::ProgressTracker;

/// Evaluate `query` with Skinner-C. The outcome's [`ExecMetrics`] carry the
/// instrumentation feeding the paper's convergence and memory experiments
/// (Figures 7 and 8): `order` is the most-visited join order at
/// termination (replayed in Tables 3/4).
pub fn run_skinner_c(query: &JoinQuery, ctx: &ExecContext, cfg: &SkinnerCConfig) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.effective_limit(cfg.work_limit));
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let m = query.num_tables();

    macro_rules! bail_timeout {
        ($final_order:expr, $aux:expr) => {{
            ctx.absorb_work(budget.used());
            return ExecOutcome::timeout(columns.clone(), budget.used(), start.elapsed())
                .with_metrics(ExecMetrics {
                    order: $final_order,
                    total_aux_bytes: $aux,
                    ..ExecMetrics::default()
                });
        }};
    }

    let trace = ctx.trace();
    let pre_timer = SpanTimer::start(trace, "preprocess");
    let prepared = match prepare(query, &budget, cfg.preprocess_threads, cfg.use_jump_indexes) {
        Ok(p) => p,
        Err(_) => bail_timeout!((0..m).collect(), 0),
    };
    pre_timer.finish(prepared.pages_skipped);
    let mctx: &MultiwayCtx = &prepared.ctx;
    let cards: Vec<RowId> = mctx.tables.iter().map(|t| t.cardinality()).collect();

    let graph: JoinGraph = query.join_graph();
    let mut uct = UctTree::new(
        graph.clone(),
        UctConfig {
            exploration_weight: cfg.exploration_weight,
            seed: cfg.seed,
        },
    );
    // Cross-query learning: when the context carries a template cache,
    // warm-start the tree from the decayed prior of a previous execution
    // of the same template. Purely a learning bias — the offsets
    // discipline keeps results identical whatever orders get explored.
    let probe = if cfg.learning {
        CacheProbe::probe(ctx, query)
    } else {
        None
    };
    let mut cache_hit = 0u64;
    let mut warm_start_visits = 0u64;
    let mut warm_start_generalized = 0u64;
    if let Some(p) = &probe {
        if let Some(warm) = p.lookup() {
            warm_start_visits = uct.seed_prior(&warm.prior, p.decay());
            cache_hit = 1;
            warm_start_generalized = warm.generalized as u64;
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1CE);
    let mut tracker = ProgressTracker::new(m, cfg.share_progress);
    let mut results = ResultSet::new();
    let mut offsets: Vec<RowId> = vec![0; m];
    let mut order_infos: FastMap<Box<[u8]>, OrderInfo> = FastMap::default();
    let mut order_counts: FastMap<Box<[u8]>, u64> = FastMap::default();
    let mut tree_growth: Vec<(u64, usize)> = Vec::new();
    let mut slices = 0u64;
    let mut timed_out = false;
    // Convergence instrumentation: the episode index of the last join-order
    // switch — after it the engine executed one order exclusively. Warm
    // starts should lock in measurably earlier (the `repeat_workload`
    // benchmark reads this).
    let mut last_order_switch = 0u64;
    let mut prev_order_key: Option<Box<[u8]>> = None;
    // Regret proxy: how many times the chosen order changed between
    // consecutive slices (0 = the engine converged instantly).
    let mut order_switches = 0u64;
    // Per-order episode attribution: one span per contiguous run of
    // slices on the same order. The label is built only when the order
    // *switches* — a cold, converging event — so steady-state slices
    // allocate nothing.
    let mut run_start_ns = trace.map(|t| t.now_ns()).unwrap_or(0);
    let mut run_slices = 0u64;
    let mut run_label = String::new();

    // Skinner-C terminates once any table's offset passes its end (all its
    // tuples fully joined) — including the degenerate empty-table case.
    let finished_by_offsets =
        |offsets: &[RowId], cards: &[RowId]| offsets.iter().zip(cards).any(|(&o, &n)| o >= n);

    if !query.always_false {
        while !finished_by_offsets(&offsets, &cards) {
            // Cooperative cancellation/deadline: checked once per slice, the
            // engine's natural preemption point.
            if ctx.interrupted() {
                timed_out = true;
                break;
            }
            // Join order for this slice: UCT choice, or uniform random for
            // the ablation baseline.
            let order = if cfg.learning {
                uct.choose()
            } else {
                random_order(&graph, &mut rng)
            };
            let key: Box<[u8]> = order.iter().map(|&t| t as u8).collect();
            if prev_order_key.as_deref() != Some(&key[..]) {
                if prev_order_key.is_some() {
                    order_switches += 1;
                }
                if let Some(t) = trace {
                    if !run_label.is_empty() {
                        t.push(Span {
                            stage: "episodes",
                            label: std::mem::take(&mut run_label),
                            start_ns: run_start_ns,
                            dur_ns: t.now_ns().saturating_sub(run_start_ns),
                            detail: run_slices,
                        });
                    }
                    run_start_ns = t.now_ns();
                    run_slices = 0;
                    run_label = format!("order={order:?}");
                }
                last_order_switch = slices + 1;
                prev_order_key = Some(key.clone());
            }
            let info = order_infos
                .entry(key.clone())
                .or_insert_with(|| OrderInfo::build(query, mctx, &order, cfg.use_jump_indexes));
            let mut state = tracker.restore(&order, &offsets);
            let before = state.clone();
            let outcome = match continue_join(
                mctx,
                info,
                &mut state,
                &offsets,
                cfg.slice_steps,
                &budget,
                &mut results,
            ) {
                Ok(o) => o,
                Err(_) => {
                    timed_out = true;
                    break;
                }
            };
            let finished = outcome == SliceOutcome::Finished;
            if cfg.learning {
                let r = slice_reward(cfg.reward, &order, &before, &state, &cards, finished);
                uct.update(&order, r);
            }
            tracker.backup(&order, &state);
            // Left-most cursor advances the global offset: those tuples are
            // now joined with everything.
            let t0 = order[0];
            offsets[t0] = offsets[t0].max(state.s[t0]);
            if finished {
                offsets[t0] = offsets[t0].max(cards[t0]);
            }
            slices += 1;
            run_slices += 1;
            *order_counts.entry(key).or_insert(0) += 1;
            if slices.is_power_of_two() || slices.is_multiple_of(256) {
                tree_growth.push((slices, uct.num_nodes()));
            }
        }
    }
    tree_growth.push((slices, uct.num_nodes()));
    // Close the final per-order episode run.
    if let Some(t) = trace {
        if !run_label.is_empty() {
            t.push(Span {
                stage: "episodes",
                label: run_label,
                start_ns: run_start_ns,
                dur_ns: t.now_ns().saturating_sub(run_start_ns),
                detail: run_slices,
            });
        }
    }

    let result_tuples = results.len() as u64;
    let result_set_bytes = results.byte_size();
    let total_aux_bytes =
        uct.byte_size() + tracker.byte_size() + result_set_bytes + prepared.index_bytes;

    let post_timer = SpanTimer::start(trace, "postprocess");
    let result = if timed_out {
        QueryResult::empty(columns)
    } else {
        let tuples = results.into_tuples();
        match postprocess(&mctx.tables, query, &tuples, &budget) {
            Ok(r) => r,
            Err(_) => {
                timed_out = true;
                QueryResult::empty(columns)
            }
        }
    };
    post_timer.finish(result_tuples);

    let mut order_slice_counts: Vec<(Vec<usize>, u64)> = order_counts
        .into_iter()
        .map(|(k, v)| (k.iter().map(|&b| b as usize).collect(), v))
        .collect();
    order_slice_counts.sort_by_key(|e| std::cmp::Reverse(e.1));

    // Publish the finished tree's statistics for the next query of this
    // template, with the run's convergence cost (total episodes) as drift
    // feedback. Timed-out runs publish nothing: their trees are dominated
    // by orders the abandonment discipline already rejected.
    if let Some(p) = &probe {
        if !timed_out && slices > 0 {
            p.publish(uct.extract_prior(p.max_entries()), slices);
        }
    }

    ctx.absorb_work(budget.used());
    ExecOutcome {
        result,
        work_units: budget.used(),
        wall: start.elapsed(),
        timed_out,
        metrics: ExecMetrics {
            order: uct.best_order(),
            result_tuples,
            slices,
            uct_nodes: uct.num_nodes(),
            tracker_nodes: tracker.num_trie_nodes(),
            result_set_bytes,
            total_aux_bytes,
            tree_growth,
            order_slice_counts,
            pages_read: prepared.pages_read,
            pages_skipped: prepared.pages_skipped,
            ..ExecMetrics::default()
        }
        .with_counter("cache_hit", cache_hit)
        .with_counter("warm_start_visits", warm_start_visits)
        .with_counter("warm_start_generalized", warm_start_generalized)
        .with_counter("last_order_switch", last_order_switch)
        .with_counter("order_switches", order_switches),
    }
}

/// Run the Skinner-C multi-way join engine with one *fixed* join order —
/// no learning, no switching. This is the "Skinner engine / forced order"
/// configuration replayed in the paper's Tables 3 and 4 (executing final
/// Skinner orders and C_out-optimal orders inside each engine).
pub fn run_skinner_c_fixed(
    query: &JoinQuery,
    ctx: &ExecContext,
    order: &[usize],
    cfg: &SkinnerCConfig,
) -> ExecOutcome {
    let start = Instant::now();
    let budget = WorkBudget::with_limit(ctx.effective_limit(cfg.work_limit));
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let m = query.num_tables();
    assert_eq!(order.len(), m, "order must cover all tables");
    let mut timed_out = false;
    let mut results = ResultSet::new();
    let mut slices = 0u64;

    let empty = QueryResult::empty(columns.clone());
    let prepared = match prepare(query, &budget, cfg.preprocess_threads, cfg.use_jump_indexes) {
        Ok(p) => p,
        Err(_) => {
            ctx.absorb_work(budget.used());
            return ExecOutcome::timeout(columns, budget.used(), start.elapsed()).with_metrics(
                ExecMetrics {
                    order: order.to_vec(),
                    ..ExecMetrics::default()
                },
            );
        }
    };
    let mctx = &prepared.ctx;
    let cards: Vec<RowId> = mctx.tables.iter().map(|t| t.cardinality()).collect();
    let offsets: Vec<RowId> = vec![0; m];
    let info = OrderInfo::build(query, mctx, order, cfg.use_jump_indexes);
    let mut state = super::state::JoinState::fresh(&offsets);
    if !query.always_false && cards.iter().all(|&n| n > 0) {
        loop {
            if ctx.interrupted() {
                timed_out = true;
                break;
            }
            slices += 1;
            match continue_join(
                mctx,
                &info,
                &mut state,
                &offsets,
                cfg.slice_steps,
                &budget,
                &mut results,
            ) {
                Ok(SliceOutcome::Finished) => break,
                Ok(SliceOutcome::Budget) => {}
                Err(_) => {
                    timed_out = true;
                    break;
                }
            }
        }
    }
    let result_tuples = results.len() as u64;
    let result_set_bytes = results.byte_size();
    let result = if timed_out {
        empty
    } else {
        let tuples = results.into_tuples();
        match postprocess(&mctx.tables, query, &tuples, &budget) {
            Ok(r) => r,
            Err(_) => {
                timed_out = true;
                empty
            }
        }
    };
    ctx.absorb_work(budget.used());
    ExecOutcome {
        result,
        work_units: budget.used(),
        wall: start.elapsed(),
        timed_out,
        metrics: ExecMetrics {
            order: order.to_vec(),
            result_tuples,
            slices,
            result_set_bytes,
            total_aux_bytes: result_set_bytes + prepared.index_bytes,
            pages_read: prepared.pages_read,
            pages_skipped: prepared.pages_skipped,
            ..ExecMetrics::default()
        },
    }
}

/// Uniformly random valid join order (the learning ablation of Skinner-C
/// and Skinner-G).
pub(crate) fn random_order(graph: &JoinGraph, rng: &mut StdRng) -> Vec<usize> {
    let m = graph.num_tables();
    let mut order = Vec::with_capacity(m);
    let mut selected = TableSet::EMPTY;
    while order.len() < m {
        let eligible: Vec<usize> = graph.eligible_next(selected).iter().collect();
        let t = eligible[rng.gen_range(0..eligible.len())];
        order.push(t);
        selected.insert(t);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_exec::reference::run_reference;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int), ("g", Int)]);
        for i in 0..60 {
            a.push_row(&[Value::Int(i), Value::Int(i % 6)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..90 {
            b.push_row(&[Value::Int(i % 60), Value::Int(i % 12)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..12 {
            c.push_row(&[Value::Int(i)]);
        }
        cat.register(c.finish());
        cat
    }

    fn bind(sql: &str, cat: &Catalog) -> JoinQuery {
        let udfs = UdfRegistry::new();
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, &udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn matches_reference_on_various_queries() {
        let cat = setup();
        for sql in [
            "SELECT a.id, b.w FROM a, b WHERE a.id = b.aid",
            "SELECT a.g, COUNT(*) cnt FROM a, b, c \
             WHERE a.id = b.aid AND b.w = c.bw GROUP BY a.g ORDER BY a.g",
            "SELECT a.id FROM a WHERE a.g = 3 ORDER BY a.id LIMIT 4",
            "SELECT a.id FROM a, c WHERE a.id + c.bw = 20",
        ] {
            let q = bind(sql, &cat);
            let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
            assert!(!out.timed_out, "{sql}");
            let expected = run_reference(&q);
            assert_eq!(
                out.result.canonical_rows(),
                expected.canonical_rows(),
                "{sql}"
            );
        }
    }

    #[test]
    fn tiny_slices_still_complete() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = SkinnerCConfig {
            slice_steps: 7,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        assert!(!out.timed_out);
        assert!(out.metrics.slices > 10);
        let expected = run_reference(&q);
        assert_eq!(out.result.canonical_rows(), expected.canonical_rows());
    }

    #[test]
    fn all_feature_toggle_combinations_agree() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw AND a.g = 1",
            &cat,
        );
        let expected = run_reference(&q).canonical_rows();
        for jumps in [true, false] {
            for learning in [true, false] {
                for sharing in [true, false] {
                    let cfg = SkinnerCConfig {
                        use_jump_indexes: jumps,
                        learning,
                        share_progress: sharing,
                        slice_steps: 64,
                        ..Default::default()
                    };
                    let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
                    assert_eq!(
                        out.result.canonical_rows(),
                        expected,
                        "jumps={jumps} learning={learning} sharing={sharing}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_table_query_works() {
        let cat = setup();
        let q = bind(
            "SELECT a.g, COUNT(*) c FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 6);
        assert_eq!(out.result.rows[0][1], Value::Int(10));
    }

    #[test]
    fn always_false_query_is_empty() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a WHERE 1 = 2", &cat);
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert!(!out.timed_out);
    }

    #[test]
    fn work_limit_times_out() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cfg = SkinnerCConfig {
            work_limit: 50,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        assert!(out.timed_out);
    }

    #[test]
    fn cancellation_token_interrupts_cleanly() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let cancel = skinner_exec::CancelToken::new();
        cancel.cancel();
        let ctx = ExecContext::default().with_cancel(cancel);
        let out = run_skinner_c(&q, &ctx, &SkinnerCConfig::default());
        assert!(out.timed_out);
        assert_eq!(out.result.num_rows(), 0);
    }

    #[test]
    fn instrumentation_is_populated() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let cfg = SkinnerCConfig {
            slice_steps: 16,
            ..Default::default()
        };
        let out = run_skinner_c(&q, &ExecContext::default(), &cfg);
        let m = &out.metrics;
        assert!(m.uct_nodes >= 1);
        assert!(m.tracker_nodes >= 1);
        assert!(!m.tree_growth.is_empty());
        assert!(!m.order_slice_counts.is_empty());
        assert_eq!(m.order.len(), 3);
        let total: u64 = m.order_slice_counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, m.slices);
    }

    #[test]
    fn fixed_order_matches_learned_run() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let learned = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2]] {
            let fixed = run_skinner_c_fixed(
                &q,
                &ExecContext::default(),
                &order,
                &SkinnerCConfig::default(),
            );
            assert!(!fixed.timed_out);
            assert_eq!(
                fixed.result.canonical_rows(),
                learned.result.canonical_rows(),
                "{order:?}"
            );
        }
    }

    #[test]
    fn empty_filtered_table_terminates_immediately() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b WHERE a.id = b.aid AND a.id > 1000",
            &cat,
        );
        let out = run_skinner_c(&q, &ExecContext::default(), &SkinnerCConfig::default());
        assert_eq!(out.result.num_rows(), 0);
        assert_eq!(out.metrics.slices, 0);
    }
}
