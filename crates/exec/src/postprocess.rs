//! Post-processing: projection, aggregation, grouping, ordering, limit.
//!
//! The paper's post-processor (Section 3) consumes join-result tuples —
//! index vectors into the filtered base tables — and produces the final
//! materialized result. Shared by every evaluation strategy, so result
//! comparison across strategies exercises identical code.
//!
//! Two entry points produce identical results:
//!
//! * [`postprocess`] — the single-threaded pipeline every sequential
//!   strategy uses;
//! * [`postprocess_parallel`] — the same pipeline with the scan split
//!   across a [`crate::WorkerPool`]: each worker does **partial
//!   aggregation** (its own hash of group accumulators) or **projection +
//!   local sort** over a contiguous tuple chunk, and the coordinator
//!   finishes with a hash-merge (GROUP BY — accumulators merge pairwise)
//!   or a k-way merge (ORDER BY — ties resolve to the earlier chunk, which
//!   reproduces the sequential stable sort exactly). Parallel strategies
//!   (`parallel_skinner`) call this so grouping/ordering no longer
//!   serializes on the coordinator thread after the join finishes.
//!
//! Floating-point aggregates (`SUM` over floats, `AVG`) fall back to the
//! sequential scan even under [`postprocess_parallel`]: float addition is
//! not associative, so merging per-worker partial sums could differ from
//! the sequential result in the last ulp — and "identical results at every
//! thread count" is a contract here, not an aspiration.

use std::cmp::Ordering;
use std::sync::Arc;

use skinner_query::expr::EvalCtx;
use skinner_query::{AggFunc, JoinQuery, SelectItem};
use skinner_storage::{DataType, FastMap, FastSet, Interner, Table, Value};

use crate::budget::{Timeout, WorkBudget};
use crate::pool::{partition_tuples, WorkerPool};
use crate::result::QueryResult;
use crate::TupleIxs;

/// Below this many join tuples the parallel path is pure overhead and
/// [`postprocess_parallel`] delegates to the sequential pipeline.
const PARALLEL_MIN_TUPLES: usize = 256;

/// Accumulated groups: group key → (representative tuple — the first seen,
/// used to evaluate non-aggregate select items — and one accumulator per
/// select position).
type GroupMap = FastMap<Vec<u64>, (TupleIxs, Vec<AggAcc>)>;

/// Materialize the final result from join tuples (single-threaded).
pub fn postprocess(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: &[TupleIxs],
    budget: &WorkBudget,
) -> Result<QueryResult, Timeout> {
    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let interner = tables
        .first()
        .map(|t| t.interner().clone())
        .unwrap_or_default();

    let mut rows: Vec<Vec<Value>> = if query.has_aggregates() || !query.group_by.is_empty() {
        let groups = partial_groups(tables, query, tuples, budget, &interner)?;
        finish_groups(tables, query, groups, budget, &interner)?
    } else {
        project_rows(tables, query, tuples, budget, &interner)?
    };

    finalize(query, &mut rows, budget, false);
    Ok(QueryResult { columns, rows })
}

/// Materialize the final result from join tuples, splitting the
/// per-tuple scan across `threads` workers. Produces exactly the same
/// rows as [`postprocess`] — thread count is a performance knob, never a
/// correctness knob (see the module docs for how the merges preserve
/// sequential semantics, and why float aggregation opts out).
pub fn postprocess_parallel(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: Vec<TupleIxs>,
    budget: &WorkBudget,
    threads: usize,
) -> Result<QueryResult, Timeout> {
    let aggregating = query.has_aggregates() || !query.group_by.is_empty();
    let fp_sensitive = aggregating
        && make_accs(query)
            .iter()
            .any(|acc| matches!(acc, AggAcc::SumF(_) | AggAcc::Avg { .. }));
    if threads <= 1 || tuples.len() < PARALLEL_MIN_TUPLES || fp_sensitive {
        return postprocess(tables, query, &tuples, budget);
    }

    let columns: Vec<String> = query.select.iter().map(|s| s.name().to_string()).collect();
    let interner = tables
        .first()
        .map(|t| t.interner().clone())
        .unwrap_or_default();

    let ranges = partition_tuples(0, tuples.len() as u64, threads);
    let nparts = ranges.len().max(1) as u64;
    // Reserve the workers' budget up front (`try_consume` never
    // overspends): one unit per tuple of each chunk — exactly what the
    // scan charges today — plus an equal share of the budget's slack as
    // headroom, so a query that fits the budget sequentially always fits
    // in parallel too. The reservation (≤ `remaining` by construction) is
    // released after the gather and the actual consumption recorded
    // instead — the same discipline as the episode loop.
    let total = tuples.len() as u64;
    let remaining = budget.remaining();
    if total > remaining {
        return Err(Timeout); // the sequential scan would exhaust it too
    }
    let slack = (remaining - total) / nparts;
    let caps: Vec<u64> = ranges.iter().map(|r| r.len() + slack).collect();
    let reserve: u64 = caps.iter().sum();
    if !budget.try_consume(reserve) {
        return Err(Timeout);
    }

    // Workers pre-sort their chunk only when the coordinator can finish
    // with a pure merge: DISTINCT must see rows in input order first (it
    // keeps first occurrences), so with DISTINCT the sort stays sequential.
    let local_sort = !query.order_by.is_empty() && !query.distinct && !aggregating;

    struct PostTask {
        tuples: Arc<Vec<TupleIxs>>,
        tables: Arc<Vec<Arc<Table>>>,
        query: Arc<JoinQuery>,
        interner: Arc<Interner>,
        range: crate::pool::TupleRange,
        chunk: usize,
        cap: u64,
        aggregating: bool,
        local_sort: bool,
    }

    enum PostBody {
        Groups(GroupMap),
        Rows(Vec<Vec<Value>>),
    }

    struct PostReport {
        chunk: usize,
        body: PostBody,
        used: u64,
        capped: bool,
    }

    fn run_post_chunk(task: PostTask) -> PostReport {
        let budget = WorkBudget::with_limit(task.cap);
        let slice = &task.tuples[task.range.start as usize..task.range.end as usize];
        let mut capped = false;
        let body = if task.aggregating {
            match partial_groups(&task.tables, &task.query, slice, &budget, &task.interner) {
                Ok(groups) => PostBody::Groups(groups),
                Err(_) => {
                    capped = true;
                    PostBody::Groups(GroupMap::default())
                }
            }
        } else {
            match project_rows(&task.tables, &task.query, slice, &budget, &task.interner) {
                Ok(mut rows) => {
                    if task.local_sort {
                        rows.sort_by(|a, b| order_cmp(&task.query, a, b));
                    }
                    PostBody::Rows(rows)
                }
                Err(_) => {
                    capped = true;
                    PostBody::Rows(Vec::new())
                }
            }
        };
        PostReport {
            chunk: task.chunk,
            body,
            used: budget.used(),
            capped,
        }
    }

    let shared_tuples = Arc::new(tuples);
    let shared_tables: Arc<Vec<Arc<Table>>> = Arc::new(tables.to_vec());
    let shared_query = Arc::new(query.clone());
    let pool: WorkerPool<PostTask, PostReport> =
        WorkerPool::new(ranges.len(), |_, task| run_post_chunk(task));
    let tasks: Vec<PostTask> = ranges
        .iter()
        .enumerate()
        .map(|(chunk, &range)| PostTask {
            tuples: shared_tuples.clone(),
            tables: shared_tables.clone(),
            query: shared_query.clone(),
            interner: interner.clone(),
            range,
            chunk,
            cap: caps[chunk],
            aggregating,
            local_sort,
        })
        .collect();
    let mut reports: Vec<PostReport> = pool
        .scatter_gather(tasks)
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    // Completion order is arbitrary; merges below must see chunk order
    // (group representatives and concatenation both depend on it).
    reports.sort_by_key(|r| r.chunk);

    budget.refund(reserve);
    let mut timed_out = false;
    for r in &reports {
        let _ = budget.charge(r.used);
        timed_out |= r.capped;
    }
    if timed_out {
        return Err(Timeout);
    }

    let mut rows: Vec<Vec<Value>> = if aggregating {
        // Hash-merge in chunk order: first-seen representatives win, so the
        // representative of each group is the globally earliest tuple —
        // exactly what the sequential scan picks.
        let mut merged = GroupMap::default();
        for r in reports {
            let PostBody::Groups(groups) = r.body else {
                unreachable!("aggregating workers report groups")
            };
            for (key, (repr, accs)) in groups {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((repr, accs));
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        for (mine, theirs) in e.get_mut().1.iter_mut().zip(accs) {
                            mine.merge(theirs);
                        }
                    }
                }
            }
        }
        finish_groups(tables, query, merged, budget, &interner)?
    } else if local_sort {
        let chunks: Vec<Vec<Vec<Value>>> = reports
            .into_iter()
            .map(|r| {
                let PostBody::Rows(rows) = r.body else {
                    unreachable!("projecting workers report rows")
                };
                rows
            })
            .collect();
        kway_merge_sorted(query, chunks)
    } else {
        let mut rows = Vec::new();
        for r in reports {
            let PostBody::Rows(mut chunk_rows) = r.body else {
                unreachable!("projecting workers report rows")
            };
            rows.append(&mut chunk_rows);
        }
        rows
    };

    finalize(query, &mut rows, budget, local_sort);
    Ok(QueryResult { columns, rows })
}

/// Project one output row per join tuple (the non-aggregate pipeline).
fn project_rows(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: &[TupleIxs],
    budget: &WorkBudget,
    interner: &Arc<Interner>,
) -> Result<Vec<Vec<Value>>, Timeout> {
    let mut out = Vec::with_capacity(tuples.len());
    for t in tuples {
        budget.charge(1)?;
        let ctx = EvalCtx::new(tables, t, interner);
        let row: Vec<Value> = query
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => expr.eval(&ctx),
                SelectItem::Agg { .. } => unreachable!(),
            })
            .collect();
        out.push(row);
    }
    Ok(out)
}

/// Scan `tuples` into per-group accumulators: the partial-aggregation
/// kernel both the sequential pipeline (over all tuples) and each parallel
/// worker (over its chunk) run. Group representatives are the first tuple
/// seen per group.
fn partial_groups(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    tuples: &[TupleIxs],
    budget: &WorkBudget,
    interner: &Arc<Interner>,
) -> Result<GroupMap, Timeout> {
    let mut groups = GroupMap::default();
    for t in tuples {
        budget.charge(1)?;
        let ctx = EvalCtx::new(tables, t, interner);
        let key: Vec<u64> = query.group_by.iter().map(|g| g.eval_key(&ctx)).collect();
        let entry = groups
            .entry(key)
            .or_insert_with(|| (t.clone(), make_accs(query)));
        for (item, acc) in query.select.iter().zip(entry.1.iter_mut()) {
            if let SelectItem::Agg { arg, .. } = item {
                let v = arg.as_ref().map(|a| a.eval(&ctx));
                acc.update(v);
            }
        }
    }
    Ok(groups)
}

/// Turn accumulated groups into output rows (plus the scalar-aggregate
/// empty-input row).
fn finish_groups(
    tables: &[Arc<Table>],
    query: &JoinQuery,
    groups: GroupMap,
    budget: &WorkBudget,
    interner: &Arc<Interner>,
) -> Result<Vec<Vec<Value>>, Timeout> {
    // Scalar aggregate over empty input still yields one row.
    if query.group_by.is_empty() && groups.is_empty() {
        let accs = make_accs(query);
        let row = accs.into_iter().map(AggAcc::finish).collect();
        return Ok(vec![row]);
    }
    let mut rows = Vec::with_capacity(groups.len());
    for (_key, (repr, accs)) in groups {
        budget.charge(1)?;
        let ctx = EvalCtx::new(tables, &repr, interner);
        let mut accs = accs.into_iter();
        let row: Vec<Value> = query
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, .. } => {
                    let _ = accs.next();
                    expr.eval(&ctx)
                }
                SelectItem::Agg { .. } => accs.next().unwrap().finish(),
            })
            .collect();
        rows.push(row);
    }
    Ok(rows)
}

/// The shared tail: DISTINCT (keeps first occurrences, in row order), then
/// ORDER BY (stable; skipped when the rows arrive already merged-sorted),
/// then LIMIT.
fn finalize(query: &JoinQuery, rows: &mut Vec<Vec<Value>>, budget: &WorkBudget, sorted: bool) {
    if query.distinct {
        let mut seen = FastSet::default();
        rows.retain(|r| {
            budget.charge(1).ok();
            seen.insert(row_key(r))
        });
    }

    if !query.order_by.is_empty() && !sorted {
        rows.sort_by(|a, b| order_cmp(query, a, b));
    }

    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }
}

/// Compare two output rows under the query's ORDER BY keys.
fn order_cmp(query: &JoinQuery, a: &[Value], b: &[Value]) -> Ordering {
    for k in &query.order_by {
        let ord = a[k.output_col]
            .compare(&b[k.output_col])
            .unwrap_or(Ordering::Equal);
        let ord = if k.asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Merge per-chunk sorted runs into one sorted vector in
/// `O(rows · log chunks)`. Ties on the ORDER BY keys go to the earlier
/// chunk, which makes the merge byte-identical to a stable sort of the
/// chunk concatenation — i.e. to what the sequential pipeline returns.
fn kway_merge_sorted(query: &JoinQuery, chunks: Vec<Vec<Vec<Value>>>) -> Vec<Vec<Value>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One chunk's current head row, ordered by (ORDER BY keys, chunk).
    struct Head<'q> {
        query: &'q JoinQuery,
        chunk: usize,
        row: Vec<Value>,
    }
    impl PartialEq for Head<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Head<'_> {}
    impl PartialOrd for Head<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            // The chunk-index tiebreaker is the stability rule: equal keys
            // emit the earlier chunk's row first.
            order_cmp(self.query, &self.row, &other.row).then(self.chunk.cmp(&other.chunk))
        }
    }

    let total = chunks.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<Vec<Value>>> =
        chunks.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<Head>> = iters
        .iter_mut()
        .enumerate()
        .filter_map(|(chunk, it)| it.next().map(|row| Reverse(Head { query, chunk, row })))
        .collect();
    let mut out: Vec<Vec<Value>> = Vec::with_capacity(total);
    while let Some(Reverse(head)) = heap.pop() {
        if let Some(row) = iters[head.chunk].next() {
            heap.push(Reverse(Head {
                query,
                chunk: head.chunk,
                row,
            }));
        }
        out.push(head.row);
    }
    out
}

fn make_accs(query: &JoinQuery) -> Vec<AggAcc> {
    query
        .select
        .iter()
        .map(|item| match item {
            SelectItem::Expr { .. } => AggAcc::Passthrough,
            SelectItem::Agg { func, arg, .. } => {
                let float = arg
                    .as_ref()
                    .map(|a| a.dtype() == DataType::Float)
                    .unwrap_or(false);
                match func {
                    AggFunc::Count => AggAcc::Count(0),
                    AggFunc::Sum => {
                        if float {
                            AggAcc::SumF(0.0)
                        } else {
                            AggAcc::SumI(0)
                        }
                    }
                    AggFunc::Avg => AggAcc::Avg { sum: 0.0, n: 0 },
                    AggFunc::Min => AggAcc::Min(None),
                    AggFunc::Max => AggAcc::Max(None),
                }
            }
        })
        .collect()
}

/// One aggregate accumulator.
///
/// Divergence from SQL: there are no NULLs in this system, so empty
/// `SUM`/`MIN`/`MAX`/`AVG` groups finish to 0 (respectively 0.0) instead of
/// NULL. Only scalar aggregates over empty inputs can observe this.
#[derive(Debug, Clone)]
enum AggAcc {
    Passthrough,
    Count(u64),
    SumI(i64),
    SumF(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggAcc {
    fn update(&mut self, v: Option<Value>) {
        match self {
            AggAcc::Passthrough => {}
            AggAcc::Count(c) => *c += 1,
            AggAcc::SumI(s) => {
                *s = s.wrapping_add(v.and_then(|x| x.as_i64()).unwrap_or(0));
            }
            AggAcc::SumF(s) => {
                *s += v.and_then(|x| x.as_f64()).unwrap_or(0.0);
            }
            AggAcc::Avg { sum, n } => {
                *sum += v.and_then(|x| x.as_f64()).unwrap_or(0.0);
                *n += 1;
            }
            AggAcc::Min(m) => {
                if let Some(v) = v {
                    let replace = match m {
                        None => true,
                        Some(cur) => v.compare(cur) == Some(Ordering::Less),
                    };
                    if replace {
                        *m = Some(v);
                    }
                }
            }
            AggAcc::Max(m) => {
                if let Some(v) = v {
                    let replace = match m {
                        None => true,
                        Some(cur) => v.compare(cur) == Some(Ordering::Greater),
                    };
                    if replace {
                        *m = Some(v);
                    }
                }
            }
        }
    }

    /// Fold another partial accumulator of the same kind into this one
    /// (the hash-merge step of parallel aggregation). Kinds always match:
    /// both sides were built by `make_accs` for the same select position.
    fn merge(&mut self, other: AggAcc) {
        match (self, other) {
            (AggAcc::Passthrough, AggAcc::Passthrough) => {}
            (AggAcc::Count(a), AggAcc::Count(b)) => *a += b,
            (AggAcc::SumI(a), AggAcc::SumI(b)) => *a = a.wrapping_add(b),
            // Float accumulators never reach the merge: float addition is
            // not associative, so `postprocess_parallel`'s fp_sensitive
            // gate routes them through the sequential scan. Reaching this
            // arm means that gate broke — fail loudly rather than diverge
            // from the sequential result in the last ulp.
            (AggAcc::SumF(_), AggAcc::SumF(_)) | (AggAcc::Avg { .. }, AggAcc::Avg { .. }) => {
                unreachable!("float accumulators must take the sequential path")
            }
            (AggAcc::Min(m), AggAcc::Min(other)) => {
                if let Some(v) = other {
                    let replace = match &m {
                        None => true,
                        Some(cur) => v.compare(cur) == Some(Ordering::Less),
                    };
                    if replace {
                        *m = Some(v);
                    }
                }
            }
            (AggAcc::Max(m), AggAcc::Max(other)) => {
                if let Some(v) = other {
                    let replace = match &m {
                        None => true,
                        Some(cur) => v.compare(cur) == Some(Ordering::Greater),
                    };
                    if replace {
                        *m = Some(v);
                    }
                }
            }
            _ => unreachable!("merging accumulators of different kinds"),
        }
    }

    fn finish(self) -> Value {
        match self {
            AggAcc::Passthrough => Value::Int(0),
            AggAcc::Count(c) => Value::Int(c as i64),
            AggAcc::SumI(s) => Value::Int(s),
            AggAcc::SumF(s) => Value::Float(s),
            AggAcc::Avg { sum, n } => Value::Float(if n == 0 { 0.0 } else { sum / n as f64 }),
            AggAcc::Min(m) => m.unwrap_or(Value::Int(0)),
            AggAcc::Max(m) => m.unwrap_or(Value::Int(0)),
        }
    }
}

fn row_key(row: &[Value]) -> String {
    let mut s = String::new();
    for v in row {
        match v {
            Value::Float(x) => s.push_str(&format!("{x:.9}|")),
            other => {
                s.push_str(&other.to_string());
                s.push('|');
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{bind_select, parser::parse_statement, UdfRegistry};
    use skinner_storage::{schema, Catalog};

    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("g", Int), ("x", Int), ("f", Float)]);
        for i in 0..10 {
            a.push_row(&[
                Value::Int(i % 3),
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
            ]);
        }
        cat.register(a.finish());
        cat
    }

    /// A catalog big enough that `postprocess_parallel` actually splits.
    fn big_setup(n: i64) -> Catalog {
        let cat = Catalog::new();
        let mut a = cat.builder("a", schema![("g", Int), ("x", Int), ("f", Float)]);
        for i in 0..n {
            a.push_row(&[
                Value::Int(i % 7),
                Value::Int((i * 37) % 1000),
                Value::Float(i as f64 * 0.25),
            ]);
        }
        cat.register(a.finish());
        cat
    }

    fn bind(sql: &str, cat: &Catalog) -> JoinQuery {
        let udfs = UdfRegistry::new();
        match parse_statement(sql).unwrap() {
            skinner_query::ast::Statement::Select(s) => bind_select(&s, cat, &udfs).unwrap(),
            _ => unreachable!(),
        }
    }

    fn all_tuples(n: u32) -> Vec<TupleIxs> {
        (0..n).map(|i| vec![i].into_boxed_slice()).collect()
    }

    #[test]
    fn plain_projection() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, &all_tuples(10), &budget).unwrap();
        assert_eq!(r.num_rows(), 10);
        assert_eq!(r.columns, vec!["a.x"]);
    }

    #[test]
    fn group_by_with_all_aggregates() {
        let cat = setup();
        let q = bind(
            "SELECT a.g, COUNT(*) c, SUM(a.x) s, MIN(a.x) mn, MAX(a.x) mx, AVG(a.f) av \
             FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, &all_tuples(10), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
        // Group 0: x ∈ {0,3,6,9} → count 4, sum 18, min 0, max 9, avg f 2.25.
        let row0 = &r.rows[0];
        assert_eq!(row0[0], Value::Int(0));
        assert_eq!(row0[1], Value::Int(4));
        assert_eq!(row0[2], Value::Int(18));
        assert_eq!(row0[3], Value::Int(0));
        assert_eq!(row0[4], Value::Int(9));
        assert!((row0[5].as_f64().unwrap() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let cat = setup();
        let q = bind("SELECT COUNT(*) c, SUM(a.x) s FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, &[], &budget).unwrap();
        assert_eq!(r.num_rows(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert_eq!(r.rows[0][1], Value::Int(0));
    }

    #[test]
    fn order_desc_and_limit() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a ORDER BY a.x DESC LIMIT 3", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, &all_tuples(10), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
        assert_eq!(r.rows[0][0], Value::Int(9));
        assert_eq!(r.rows[2][0], Value::Int(7));
    }

    #[test]
    fn distinct_dedupes() {
        let cat = setup();
        let q = bind("SELECT DISTINCT a.g FROM a", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess(&q.tables, &q, &all_tuples(10), &budget).unwrap();
        assert_eq!(r.num_rows(), 3);
    }

    #[test]
    fn budget_applies_to_postprocessing() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::with_limit(3);
        assert!(postprocess(&q.tables, &q, &all_tuples(10), &budget).is_err());
    }

    #[test]
    fn parallel_matches_sequential_on_every_query_shape() {
        let cat = big_setup(1000);
        for sql in [
            "SELECT a.x FROM a",
            "SELECT a.x FROM a ORDER BY a.x",
            // Heavy cross-chunk ties (7 distinct g over 1000 rows): pins
            // the merge's stability rule — equal keys emit in chunk order.
            "SELECT a.g, a.x FROM a ORDER BY a.g",
            "SELECT a.x, a.g FROM a ORDER BY a.g DESC, a.x",
            "SELECT a.x FROM a ORDER BY a.x LIMIT 17",
            "SELECT DISTINCT a.g FROM a",
            "SELECT DISTINCT a.x FROM a ORDER BY a.x",
            "SELECT a.g, COUNT(*) c, SUM(a.x) s, MIN(a.x) mn, MAX(a.x) mx \
             FROM a GROUP BY a.g ORDER BY a.g",
            "SELECT COUNT(*) c FROM a",
        ] {
            let q = bind(sql, &cat);
            let tuples = all_tuples(1000);
            let seq = postprocess(&q.tables, &q, &tuples, &WorkBudget::unlimited()).unwrap();
            for threads in [2, 3, 4, 8] {
                let par = postprocess_parallel(
                    &q.tables,
                    &q,
                    tuples.clone(),
                    &WorkBudget::unlimited(),
                    threads,
                )
                .unwrap();
                assert_eq!(par.columns, seq.columns, "{sql} ({threads} threads)");
                // Exact row order must match where the query pins it
                // (ORDER BY) — and also where it doesn't but the pipeline
                // is deterministic (projection without sort).
                if !q.order_by.is_empty() || (q.group_by.is_empty() && !q.has_aggregates()) {
                    assert_eq!(par.rows, seq.rows, "{sql} ({threads} threads)");
                } else {
                    assert_eq!(
                        par.canonical_rows(),
                        seq.canonical_rows(),
                        "{sql} ({threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_float_aggregates_fall_back_to_sequential_bits() {
        let cat = big_setup(1000);
        // AVG/SUM(float) must be bit-identical at any thread count: the
        // parallel path detects float accumulators and runs sequentially.
        let q = bind(
            "SELECT a.g, AVG(a.f) av, SUM(a.f) s FROM a GROUP BY a.g ORDER BY a.g",
            &cat,
        );
        let tuples = all_tuples(1000);
        let seq = postprocess(&q.tables, &q, &tuples, &WorkBudget::unlimited()).unwrap();
        for threads in [2, 8] {
            let par = postprocess_parallel(
                &q.tables,
                &q,
                tuples.clone(),
                &WorkBudget::unlimited(),
                threads,
            )
            .unwrap();
            assert_eq!(par.rows, seq.rows, "float rows must match bit-for-bit");
        }
    }

    #[test]
    fn parallel_budget_reservation_times_out() {
        let cat = big_setup(1000);
        let q = bind("SELECT a.x FROM a", &cat);
        let budget = WorkBudget::with_limit(10);
        assert!(postprocess_parallel(&q.tables, &q, all_tuples(1000), &budget, 4).is_err());
        // The scan could never fit, so nothing was reserved or charged.
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn parallel_exact_fit_budget_succeeds_like_sequential() {
        // 1001 tuples at 4 threads → chunks of 251/250/250/250. A flat
        // remaining/nparts cap would floor to 250 and spuriously time out
        // the 251-tuple chunk; per-chunk caps must let a budget that fits
        // the sequential scan exactly fit the parallel one too.
        let cat = big_setup(1001);
        let q = bind("SELECT a.x FROM a", &cat);
        let tuples = all_tuples(1001);
        let seq_budget = WorkBudget::with_limit(1001);
        let seq = postprocess(&q.tables, &q, &tuples, &seq_budget).unwrap();
        for threads in [2, 3, 4, 8] {
            let budget = WorkBudget::with_limit(1001);
            let par = postprocess_parallel(&q.tables, &q, tuples.clone(), &budget, threads)
                .unwrap_or_else(|_| panic!("exact-fit budget timed out at {threads} threads"));
            assert_eq!(par.rows, seq.rows);
            assert_eq!(budget.used(), 1001, "actual work recorded, not caps");
        }
    }

    #[test]
    fn parallel_small_inputs_delegate_to_sequential() {
        let cat = setup();
        let q = bind("SELECT a.x FROM a ORDER BY a.x", &cat);
        let budget = WorkBudget::unlimited();
        let r = postprocess_parallel(&q.tables, &q, all_tuples(10), &budget, 8).unwrap();
        assert_eq!(r.num_rows(), 10);
        assert_eq!(r.rows[0][0], Value::Int(0));
    }
}
