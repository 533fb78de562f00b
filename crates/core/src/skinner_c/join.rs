//! The depth-first multi-way join (paper Algorithm 2, Figure 5).
//!
//! Execution fixes one tuple per predecessor table before considering
//! successor tuples, so the "intermediate result" is always exactly one
//! partial tuple — the execution state the progress tracker snapshots.
//! For equality predicates, sorted-posting hash indexes allow jumping
//! directly to the next tuple index that can match (Section 4.5's
//! extension), turning the scan into an index-nested-loop per level.

use std::collections::HashMap;
use std::sync::Arc;

use skinner_exec::{Timeout, WorkBudget};
use skinner_query::expr::{CmpOp, ColRef, EvalCtx, Expr};
use skinner_query::JoinQuery;
use skinner_storage::{Column, HashIndex, RowId, Table};

use super::result_set::ResultSet;
use super::state::JoinState;

/// Immutable join context shared by all time slices of one query.
pub struct MultiwayCtx {
    pub tables: Vec<Arc<Table>>,
    /// Hash indexes on equality-join columns: `(table, column)` → index.
    pub indexes: HashMap<(usize, usize), HashIndex>,
    pub interner: Arc<skinner_storage::Interner>,
}

/// Per-join-order evaluation plan, built once per distinct order.
#[derive(Debug)]
pub struct OrderInfo {
    pub order: Vec<usize>,
    /// Indexable equality predicates `(column on this table, column of an
    /// earlier table)`, grouped by position: position `d` owns
    /// `jumps[jump_bounds[d]..jump_bounds[d + 1]]`.
    jumps: Vec<(usize, ColRef)>,
    jump_bounds: Vec<usize>,
    /// Per position: remaining predicates to evaluate (generic predicates
    /// and, with jumps disabled, equality predicates as expressions).
    checks: Vec<Vec<Expr>>,
}

impl OrderInfo {
    /// Analyze `order`, splitting predicates into index jumps and checks.
    pub fn build(query: &JoinQuery, ctx: &MultiwayCtx, order: &[usize], use_jumps: bool) -> Self {
        let m = order.len();
        let mut jumps: Vec<Vec<(usize, ColRef)>> = vec![Vec::new(); m];
        let mut checks: Vec<Vec<Expr>> = vec![Vec::new(); m];
        let pos_of: HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for p in &query.equi_preds {
            let (Some(&pl), Some(&pr)) = (pos_of.get(&p.left.table), pos_of.get(&p.right.table))
            else {
                continue; // predicate outside this (sub-)order
            };
            // The predicate becomes applicable at the later position.
            let (pos, mine, other) = if pl > pr {
                (pl, p.left, p.right)
            } else {
                (pr, p.right, p.left)
            };
            if use_jumps && ctx.indexes.contains_key(&(mine.table, mine.col)) {
                jumps[pos].push((mine.col, other));
            } else {
                let dt = query.col_type(mine);
                checks[pos].push(Expr::Cmp {
                    op: CmpOp::Eq,
                    left: Box::new(Expr::Col(mine, dt)),
                    right: Box::new(Expr::Col(other, dt)),
                });
            }
        }
        for p in &query.generic_preds {
            // Applicable at the latest position among its tables.
            let Some(pos) = p
                .tables
                .iter()
                .map(|t| pos_of.get(&t).copied())
                .collect::<Option<Vec<_>>>()
                .map(|v| v.into_iter().max().unwrap())
            else {
                continue;
            };
            checks[pos].push(p.expr.clone());
        }
        let mut jump_bounds = vec![0];
        let mut end = 0;
        for level in &jumps {
            end += level.len();
            jump_bounds.push(end);
        }
        OrderInfo {
            order: order.to_vec(),
            jumps: jumps.concat(),
            jump_bounds,
            checks,
        }
    }

    /// Resolve every jump against `ctx` once, so that a probe reads its
    /// index and key column directly instead of looking them up.
    fn resolve<'a>(&self, ctx: &'a MultiwayCtx) -> Vec<Jump<'a>> {
        let mut out = Vec::with_capacity(self.jumps.len());
        for (d, &ti) in self.order.iter().enumerate() {
            for &(col, other) in &self.jumps[self.jump_bounds[d]..self.jump_bounds[d + 1]] {
                out.push(Jump {
                    index: &ctx.indexes[&(ti, col)],
                    key_col: ctx.tables[other.table].column(other.col),
                    key_table: other.table,
                });
            }
        }
        out
    }
}

/// One index jump with its handles resolved: probe `index` with the key
/// that `key_col` holds at the current row of table `key_table`.
struct Jump<'a> {
    index: &'a HashIndex,
    key_col: &'a Column,
    key_table: usize,
}

/// Outcome of one [`continue_join`] time slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOutcome {
    /// The budgeted number of steps elapsed.
    Budget,
    /// The left-most table was exhausted: the query result is complete.
    Finished,
}

/// Slice-local work counter. It times out at exactly the unit where
/// charging the shared budget step by step would have, and is flushed to
/// the budget once when the slice ends.
///
/// Exactness rests on one invariant: **nothing else charges the budget
/// while a slice runs.** Skinner-C's per-query budget is only touched by
/// the single thread running its slices (pre-processing finishes before
/// the first slice, post-processing starts after the last), and each
/// parallel worker joins under a budget of its own. Under that invariant
/// `budget.remaining()` read at slice start is the exact headroom, so a
/// charge that pushes the local count past it is the charge that would
/// have failed against the shared counter.
struct Meter {
    units: u64,
    tuples: u64,
    headroom: u64,
}

impl Meter {
    fn new(budget: &WorkBudget) -> Self {
        Meter {
            units: 0,
            tuples: 0,
            headroom: budget.remaining(),
        }
    }

    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), Timeout> {
        self.units += n;
        if self.units > self.headroom {
            Err(Timeout)
        } else {
            Ok(())
        }
    }

    #[inline]
    fn produce_tuple(&mut self) -> Result<(), Timeout> {
        self.tuples += 1;
        self.charge(1)
    }

    /// Record the slice's units and tuples in `budget`, overage included,
    /// exactly as per-step charging would have left it.
    fn flush(self, budget: &WorkBudget) {
        let _ = budget.produce_tuples(self.tuples);
        let _ = budget.charge(self.units - self.tuples);
    }
}

/// `ContinueJoin` (Algorithm 2): run the multi-way join for `order` starting
/// from `state`, for at most `max_steps` outer-loop iterations, inserting
/// result tuples into `results`. Offsets exclude globally fully-joined rows
/// at every level. Work units are charged per step, index probe and
/// predicate evaluation, counted locally and flushed to `budget` when the
/// slice returns (see `Meter` for why that is exact).
pub fn continue_join(
    ctx: &MultiwayCtx,
    info: &OrderInfo,
    state: &mut JoinState,
    offsets: &[RowId],
    max_steps: u64,
    budget: &WorkBudget,
    results: &mut ResultSet,
) -> Result<SliceOutcome, Timeout> {
    continue_join_ranged(
        ctx,
        info,
        state,
        offsets,
        max_steps,
        budget,
        results,
        RowId::MAX,
    )
}

/// [`continue_join`] restricted to left-most rows `< level0_end`: the
/// outermost loop finishes once its cursor passes `level0_end` instead of
/// the table's cardinality. Parallel execution partitions the left-most
/// table into `[start, end)` chunks and runs one such bounded join per
/// worker (the chunk's `start` enters through `offsets`); everything below
/// level 0 is identical to the sequential join.
#[allow(clippy::too_many_arguments)]
pub fn continue_join_ranged(
    ctx: &MultiwayCtx,
    info: &OrderInfo,
    state: &mut JoinState,
    offsets: &[RowId],
    max_steps: u64,
    budget: &WorkBudget,
    results: &mut ResultSet,
    level0_end: RowId,
) -> Result<SliceOutcome, Timeout> {
    let jumps = info.resolve(ctx);
    let mut meter = Meter::new(budget);
    let outcome = join_slice(
        ctx, info, &jumps, state, offsets, max_steps, &mut meter, results, level0_end,
    );
    meter.flush(budget);
    outcome
}

/// The body of [`continue_join_ranged`], charging `meter`.
#[allow(clippy::too_many_arguments)]
fn join_slice(
    ctx: &MultiwayCtx,
    info: &OrderInfo,
    jumps: &[Jump<'_>],
    state: &mut JoinState,
    offsets: &[RowId],
    max_steps: u64,
    meter: &mut Meter,
    results: &mut ResultSet,
    level0_end: RowId,
) -> Result<SliceOutcome, Timeout> {
    let m = info.order.len();
    let mut steps = 0u64;
    loop {
        if steps >= max_steps {
            return Ok(SliceOutcome::Budget);
        }
        steps += 1;
        meter.charge(1)?;
        let depth = state.depth;
        let ti = info.order[depth];
        let n = ctx.tables[ti].cardinality();
        let bound = if depth == 0 { n.min(level0_end) } else { n };
        let level_jumps = &jumps[info.jump_bounds[depth]..info.jump_bounds[depth + 1]];
        let from = state.s[ti].max(offsets[ti]);
        match next_candidate(level_jumps, &state.s, from, bound, meter)? {
            None => {
                // Level exhausted: reset and backtrack.
                state.s[ti] = offsets[ti];
                if depth == 0 {
                    return Ok(SliceOutcome::Finished);
                }
                state.depth -= 1;
                let tprev = info.order[state.depth];
                state.s[tprev] += 1;
            }
            Some(row) => {
                state.s[ti] = row;
                let checks = &info.checks[depth];
                let ok = if checks.is_empty() {
                    true
                } else {
                    meter.charge(checks.len() as u64)?;
                    let ectx = EvalCtx::new(&ctx.tables, &state.s, &ctx.interner);
                    checks.iter().all(|c| c.eval_bool(&ectx))
                };
                if !ok {
                    state.s[ti] = row + 1;
                } else if depth == m - 1 {
                    if results.insert(&state.s) {
                        meter.produce_tuple()?;
                    }
                    state.s[ti] = row + 1;
                } else {
                    state.depth += 1;
                    let tnext = info.order[state.depth];
                    state.s[tnext] = offsets[tnext];
                }
            }
        }
    }
}

/// Find the next candidate row in `[from, bound)` satisfying all of the
/// level's indexable equality predicates, leapfrogging across their
/// posting lists. `None` when the level is exhausted.
#[inline]
fn next_candidate(
    jumps: &[Jump<'_>],
    s: &[RowId],
    from: RowId,
    bound: RowId,
    meter: &mut Meter,
) -> Result<Option<RowId>, Timeout> {
    let mut cur = from;
    if jumps.is_empty() {
        return Ok((cur < bound).then_some(cur));
    }
    'outer: loop {
        if cur >= bound {
            return Ok(None);
        }
        for j in jumps {
            meter.charge(1)?;
            let key = j.key_col.key_at(s[j.key_table]);
            match j.index.next_match(key, cur) {
                None => return Ok(None),
                Some(m) if m > cur => {
                    cur = m;
                    continue 'outer;
                }
                Some(_) => {}
            }
        }
        return Ok(Some(cur));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog, Value};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("id", Int)]);
        for i in 0..6 {
            a.push_row(&[Value::Int(i)]);
        }
        cat.register(a.finish());
        let mut b = cat.builder("b", schema![("aid", Int), ("w", Int)]);
        for i in 0..9 {
            b.push_row(&[Value::Int(i % 6), Value::Int(i % 3)]);
        }
        cat.register(b.finish());
        let mut c = cat.builder("c", schema![("bw", Int)]);
        for i in 0..3 {
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

    fn ctx_for(q: &JoinQuery) -> MultiwayCtx {
        let mut indexes = HashMap::new();
        for (t, table) in q.tables.iter().enumerate() {
            for col in q.equi_join_columns(t) {
                indexes.insert((t, col), HashIndex::build(table.column(col)));
            }
        }
        MultiwayCtx {
            tables: q.tables.clone(),
            indexes,
            interner: q.tables[0].interner().clone(),
        }
    }

    fn run_to_completion(q: &JoinQuery, order: &[usize], use_jumps: bool) -> (ResultSet, u64) {
        let ctx = ctx_for(q);
        let info = OrderInfo::build(q, &ctx, order, use_jumps);
        let offsets = vec![0; q.num_tables()];
        let mut state = JoinState::fresh(&offsets);
        let mut results = ResultSet::new();
        let budget = WorkBudget::unlimited();
        let mut slices = 0;
        loop {
            slices += 1;
            match continue_join(&ctx, &info, &mut state, &offsets, 64, &budget, &mut results)
                .unwrap()
            {
                SliceOutcome::Finished => break,
                SliceOutcome::Budget => {}
            }
            assert!(slices < 10_000, "no convergence");
        }
        (results, budget.used())
    }

    #[test]
    fn completes_chain_join_in_any_order() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        // Every b row joins one a and one c → 9 results.
        let (r1, _) = run_to_completion(&q, &[0, 1, 2], true);
        assert_eq!(r1.len(), 9);
        let (r2, _) = run_to_completion(&q, &[2, 1, 0], true);
        assert_eq!(r2.len(), 9);
        let (r3, _) = run_to_completion(&q, &[1, 0, 2], true);
        assert_eq!(r3.len(), 9);
    }

    #[test]
    fn jumps_match_scan_semantics() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let (with_jumps, work_jumps) = run_to_completion(&q, &[0, 1, 2], true);
        let (without, work_scan) = run_to_completion(&q, &[0, 1, 2], false);
        let norm = |r: ResultSet| {
            let mut v: Vec<Vec<RowId>> = r.into_tuples().iter().map(|t| t.to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(with_jumps), norm(without));
        // Index jumps skip non-matching tuples: strictly less work here.
        assert!(work_jumps < work_scan, "{work_jumps} !< {work_scan}");
    }

    #[test]
    fn resume_from_backup_is_seamless() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        let offsets = vec![0, 0];
        let budget = WorkBudget::unlimited();
        // Reference: run to completion in one go.
        let mut full_state = JoinState::fresh(&offsets);
        let mut full = ResultSet::new();
        while continue_join(
            &ctx,
            &info,
            &mut full_state,
            &offsets,
            u64::MAX,
            &budget,
            &mut full,
        )
        .unwrap()
            != SliceOutcome::Finished
        {}
        // Interrupted: two-step slices with state carried across.
        let mut state = JoinState::fresh(&offsets);
        let mut partial = ResultSet::new();
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 10_000);
            if continue_join(&ctx, &info, &mut state, &offsets, 2, &budget, &mut partial).unwrap()
                == SliceOutcome::Finished
            {
                break;
            }
        }
        assert_eq!(full.len(), partial.len());
    }

    #[test]
    fn offsets_skip_rows_at_every_level() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        // Offset 3 on table a: rows 0..3 are excluded.
        let offsets = vec![3, 0];
        let mut state = JoinState::fresh(&offsets);
        let mut results = ResultSet::new();
        let budget = WorkBudget::unlimited();
        while continue_join(
            &ctx,
            &info,
            &mut state,
            &offsets,
            u64::MAX,
            &budget,
            &mut results,
        )
        .unwrap()
            != SliceOutcome::Finished
        {}
        // b rows with aid ∈ {3,4,5}: i%6 ∈ {3,4,5} for i in 0..9 → 4 rows
        // (3,4,5 and none above 8 → rows 3,4,5 plus none) → count them.
        let expected = (0..9).filter(|i| i % 6 >= 3).count();
        assert_eq!(results.len(), expected);
    }

    #[test]
    fn ranged_chunks_union_to_the_full_join() {
        let cat = setup();
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw",
            &cat,
        );
        let ctx = ctx_for(&q);
        let order = [1usize, 0, 2]; // leftmost table b, 9 rows
        let info = OrderInfo::build(&q, &ctx, &order, true);
        let budget = WorkBudget::unlimited();
        let (full, _) = run_to_completion(&q, &order, true);
        // Split b's rows into 3 chunks and run each to completion.
        let mut union = ResultSet::new();
        for (lo, hi) in [(0u32, 3u32), (3, 7), (7, 9)] {
            let mut offsets = vec![0; q.num_tables()];
            offsets[1] = lo;
            let mut state = JoinState::fresh(&offsets);
            let mut chunk = ResultSet::new();
            loop {
                let out = continue_join_ranged(
                    &ctx, &info, &mut state, &offsets, 8, &budget, &mut chunk, hi,
                )
                .unwrap();
                if out == SliceOutcome::Finished {
                    break;
                }
            }
            for t in chunk.into_tuples() {
                assert!(union.insert(&t), "chunks produced overlapping tuple {t:?}");
            }
        }
        assert_eq!(union.len(), full.len());
    }

    #[test]
    fn budget_timeout_propagates() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, b WHERE a.id = b.aid", &cat);
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1], true);
        let offsets = vec![0, 0];
        let mut state = JoinState::fresh(&offsets);
        let mut results = ResultSet::new();
        let budget = WorkBudget::with_limit(3);
        let r = continue_join(
            &ctx,
            &info,
            &mut state,
            &offsets,
            u64::MAX,
            &budget,
            &mut results,
        );
        assert!(matches!(r, Err(Timeout)));
    }

    #[test]
    fn slice_local_counting_times_out_exactly_like_per_step_charging() {
        let cat = setup();
        // Jumps at b and c, plus a generic check at c.
        let q = bind(
            "SELECT a.id FROM a, b, c WHERE a.id = b.aid AND b.w = c.bw AND a.id + c.bw < 6",
            &cat,
        );
        let ctx = ctx_for(&q);
        let info = OrderInfo::build(&q, &ctx, &[0, 1, 2], true);
        assert!(!info.jumps.is_empty());
        let max_checks = info.checks.iter().map(Vec::len).max().unwrap() as u64;
        assert!(max_checks > 0);
        let offsets = vec![0; q.num_tables()];
        // Slices of 7 steps until finished, or the first timeout.
        let run = |budget: &WorkBudget| {
            let mut state = JoinState::fresh(&offsets);
            let mut results = ResultSet::new();
            loop {
                match continue_join(&ctx, &info, &mut state, &offsets, 7, budget, &mut results) {
                    Ok(SliceOutcome::Finished) => return Ok(results.len() as u64),
                    Ok(SliceOutcome::Budget) => {}
                    Err(t) => return Err(t),
                }
            }
        };
        let full = WorkBudget::unlimited();
        let rows = run(&full).unwrap();
        let w = full.used();
        assert!(rows > 0 && full.tuples_produced() == rows);
        for limit in 0..=w {
            let budget = WorkBudget::with_limit(limit);
            match run(&budget) {
                Err(Timeout) => {
                    assert!(limit < w, "timed out at limit {limit} >= full work {w}");
                    let used = budget.used();
                    assert!(
                        limit < used && used <= limit + 1 + max_checks,
                        "limit {limit}: used {used}"
                    );
                }
                Ok(n) => {
                    assert!(limit >= w, "finished under limit {limit} < full work {w}");
                    assert_eq!(n, rows);
                    assert_eq!(budget.used(), w);
                    assert_eq!(budget.tuples_produced(), n);
                }
            }
        }
    }

    #[test]
    fn empty_table_finishes_immediately() {
        let cat = setup();
        let e = cat.builder("emp", schema![("x", Int)]);
        cat.register(e.finish());
        let q = bind("SELECT a.id FROM a, emp WHERE a.id = emp.x", &cat);
        let (r, _) = run_to_completion(&q, &[1, 0], true);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn cartesian_product_when_unconnected() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, c", &cat);
        let (r, _) = run_to_completion(&q, &[0, 1], true);
        assert_eq!(r.len(), 18);
    }

    #[test]
    fn generic_predicates_checked_at_latest_position() {
        let cat = setup();
        let q = bind("SELECT a.id FROM a, c WHERE a.id + c.bw = 4", &cat);
        let (r, _) = run_to_completion(&q, &[1, 0], true);
        // pairs (id, bw) with id + bw = 4: (4,0),(3,1),(2,2) → 3.
        assert_eq!(r.len(), 3);
    }
}
