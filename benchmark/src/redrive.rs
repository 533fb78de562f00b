//! Traced re-drive of Skinner-C through the public function of each layer.
//!
//! `run_skinner_c` records only coarse spans, so the traced run does not
//! call it: it replays the engine's steps itself, in the engine's order,
//! and times every call into a layer:
//!
//! `parse_statements` → `bind_select` → `preprocess` → `HashIndex::build`
//! per `equi_join_columns` → loop { `UctTree::choose` → `OrderInfo::build`
//! → `ProgressTracker::restore` → `continue_join` → `slice_reward` +
//! `UctTree::update` → `ProgressTracker::backup` } → `postprocess`, with
//! the loop wrapped in `CacheProbe::probe` / `lookup` / `seed_prior` /
//! `publish` when the context carries a learning cache.
//!
//! A replay is only trusted where it did the same work as the engine: the
//! caller compares every statement's work units, slices and rows with an
//! untraced run and withholds the layer numbers of statements that differ.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

use skinnerdb::skinner_core::skinner_c::join::{
    continue_join, MultiwayCtx, OrderInfo, SliceOutcome,
};
use skinnerdb::skinner_core::skinner_c::result_set::ResultSet;
use skinnerdb::skinner_core::skinner_c::reward::slice_reward;
use skinnerdb::skinner_core::skinner_c::state::ProgressTracker;
use skinnerdb::skinner_core::{CacheProbe, SkinnerCConfig};
use skinnerdb::skinner_exec::{postprocess, preprocess, ExecContext, QueryResult, WorkBudget};
use skinnerdb::skinner_query::ast::Statement;
use skinnerdb::skinner_query::{bind_select, parse_statements, JoinQuery};
use skinnerdb::skinner_storage::{Field, HashIndex, RowId, Schema};
use skinnerdb::skinner_uct::{UctConfig, UctTree};
use skinnerdb::{Database, ScriptOutcome, StatementKind};

/// The layers a span can belong to. `Stmt` is the parent span of one
/// script statement; every other span is its child.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Stmt,
    Parse,
    Bind,
    Preprocess,
    Index,
    Uct,
    State,
    Join,
    Postprocess,
    Cache,
    Storage,
}

pub const LAYERS: usize = 11;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stmt => "statement",
            Layer::Parse => "query.parse",
            Layer::Bind => "query.bind",
            Layer::Preprocess => "exec.preprocess",
            Layer::Index => "core.index",
            Layer::Uct => "uct",
            Layer::State => "core.state",
            Layer::Join => "core.join",
            Layer::Postprocess => "exec.postprocess",
            Layer::Cache => "core.cache",
            Layer::Storage => "storage",
        }
    }
}

pub struct Span {
    pub layer: Layer,
    pub stmt: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Spans are only appended while tracing; they
/// are aggregated and written out after the measured window.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Statement id of the spans being recorded.
    stmt: u32,
    /// Label of every statement id, for the span dump.
    pub labels: Vec<String>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stmt: 0,
            labels: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            stmt: self.stmt,
            start_ns,
            end_ns,
        });
        out
    }

    fn begin_stmt(&mut self, label: String) -> u64 {
        self.stmt = self.labels.len() as u32;
        self.labels.push(label);
        self.now()
    }

    fn end_stmt(&mut self, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            layer: Layer::Stmt,
            stmt: self.stmt,
            start_ns,
            end_ns,
        });
    }

    /// Nanoseconds per layer for every statement id.
    pub fn layer_ns(&self) -> Vec<[u64; LAYERS]> {
        let mut out = vec![[0u64; LAYERS]; self.labels.len()];
        for s in &self.spans {
            out[s.stmt as usize][s.layer as usize] += s.end_ns - s.start_ns;
        }
        out
    }

    /// Write every span as one tab-separated line. A span's parent is the
    /// `statement` span with the same statement id.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "stmt\tlabel\tlayer\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.stmt,
                self.labels[s.stmt as usize],
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Counts taken at the layer boundaries of one script statement.
#[derive(Default, Clone, Debug)]
pub struct StmtCounts {
    pub work_units: u64,
    pub slices: u64,
    pub rows: u64,
    /// Rows entering pre-processing and rows it kept.
    pub rows_in: u64,
    pub rows_kept: u64,
    /// Rows indexed and index bytes built.
    pub index_rows: u64,
    pub index_bytes: u64,
    /// `choose` plus `update` calls.
    pub uct_calls: u64,
    /// Work units charged inside `continue_join`.
    pub join_units: u64,
    /// Join result tuples handed to post-processing.
    pub result_tuples: u64,
    /// Slices run on the order UCT rates best at the end.
    pub best_order_slices: u64,
    /// Episode of the last join-order switch.
    pub last_order_switch: u64,
    /// The statement carried the script's parse.
    pub parsed: bool,
    /// The statement bound and ran a query through Skinner-C.
    pub executed: bool,
    /// Rows written to a temp table.
    pub temp_rows: u64,
}

/// One re-driven statement: its id in the tracer and its counts.
pub struct StmtTrace {
    pub id: u32,
    pub counts: StmtCounts,
}

/// Re-drive one SQL script on `db` under `ctx`, tracing into `tr`.
/// Returns the last SELECT's result and one record per statement, in
/// script order (matching [`ScriptOutcome::statements`]).
pub fn redrive_script(
    db: &Database,
    ctx: &ExecContext,
    cfg: &SkinnerCConfig,
    name: &str,
    sql: &str,
    tr: &mut Tracer,
) -> Result<(QueryResult, Vec<StmtTrace>), String> {
    let mut start = tr.begin_stmt(format!("{name}#0"));
    let stmts = tr
        .span(Layer::Parse, || parse_statements(sql))
        .map_err(|e| format!("{name}: {e}"))?;
    let mut traces = Vec::with_capacity(stmts.len());
    let mut last = None;
    for (i, stmt) in stmts.iter().enumerate() {
        if i > 0 {
            start = tr.begin_stmt(format!("{name}#{i}"));
        }
        let mut counts = StmtCounts {
            parsed: i == 0,
            ..StmtCounts::default()
        };
        match stmt {
            Statement::Select(s) => {
                let q = tr
                    .span(Layer::Bind, || bind_select(s, db.catalog(), db.udfs()))
                    .map_err(|e| format!("{name}: {e}"))?;
                let result = run_select(&q, ctx, cfg, tr, &mut counts)?;
                counts.rows = result.num_rows() as u64;
                last = Some(result);
            }
            Statement::CreateTempTable { name: table, query } => {
                let q = tr
                    .span(Layer::Bind, || bind_select(query, db.catalog(), db.udfs()))
                    .map_err(|e| format!("{name}: {e}"))?;
                let result = run_select(&q, ctx, cfg, tr, &mut counts)?;
                counts.rows = result.num_rows() as u64;
                counts.temp_rows = counts.rows;
                tr.span(Layer::Storage, || materialize(db, table, &q, &result));
            }
            Statement::DropTable { name: table } => {
                tr.span(Layer::Storage, || db.catalog().drop_table(table));
            }
        }
        tr.end_stmt(start);
        traces.push(StmtTrace {
            id: tr.stmt,
            counts,
        });
    }
    let result = last.ok_or_else(|| format!("{name}: script has no SELECT"))?;
    Ok((result, traces))
}

/// Register `result` as table `name`, as `Database::run_script_detailed`
/// does for `CREATE TEMP TABLE … AS`.
fn materialize(db: &Database, name: &str, query: &JoinQuery, result: &QueryResult) {
    let fields: Vec<Field> = result
        .columns
        .iter()
        .zip(query.output_types())
        .map(|(n, dt)| Field::new(n.rsplit('.').next().unwrap_or(n), dt))
        .collect();
    let mut b = db.catalog().builder(name, Schema::new(fields));
    for row in &result.rows {
        b.push_row(row);
    }
    db.catalog().register(b.finish());
}

/// The body of `run_skinner_c`, one traced call per layer. Only the
/// learning configuration the default strategy runs is replayed, not the
/// random-order ablation (`cfg.learning == false`).
fn run_select(
    q: &JoinQuery,
    ctx: &ExecContext,
    cfg: &SkinnerCConfig,
    tr: &mut Tracer,
    c: &mut StmtCounts,
) -> Result<QueryResult, String> {
    const TIMEOUT: &str = "re-drive hit its work limit";
    assert!(
        cfg.learning,
        "the re-drive replays learned join orders only"
    );
    c.executed = true;
    let budget = WorkBudget::with_limit(ctx.effective_limit(cfg.work_limit));
    let m = q.num_tables();

    let pre = tr
        .span(Layer::Preprocess, || {
            preprocess(q, &budget, cfg.preprocess_threads)
        })
        .map_err(|_| TIMEOUT)?;
    c.rows_in = pre.base_rows.iter().sum::<usize>() as u64;
    c.rows_kept = pre.tables.iter().map(|t| t.num_rows() as u64).sum();
    let mut indexes = HashMap::new();
    if cfg.use_jump_indexes {
        for (t, table) in pre.tables.iter().enumerate() {
            for col in q.equi_join_columns(t) {
                let idx = tr
                    .span(Layer::Index, || {
                        budget.charge(table.num_rows() as u64)?;
                        Ok(HashIndex::build(table.column(col)))
                    })
                    .map_err(|_: skinnerdb::skinner_exec::Timeout| TIMEOUT)?;
                c.index_rows += table.num_rows() as u64;
                c.index_bytes += idx.byte_size() as u64;
                indexes.insert((t, col), idx);
            }
        }
    }
    let interner = pre.tables[0].interner().clone();
    let mctx = MultiwayCtx {
        tables: pre.tables,
        indexes,
        interner,
    };
    let cards: Vec<RowId> = mctx.tables.iter().map(|t| t.cardinality()).collect();

    let graph = q.join_graph();
    let mut uct = tr.span(Layer::Uct, || {
        UctTree::new(
            graph,
            UctConfig {
                exploration_weight: cfg.exploration_weight,
                seed: cfg.seed,
            },
        )
    });
    let probe = tr.span(Layer::Cache, || CacheProbe::probe(ctx, q));
    if let Some(p) = &probe {
        if let Some(warm) = tr.span(Layer::Cache, || p.lookup()) {
            tr.span(Layer::Cache, || uct.seed_prior(&warm.prior, p.decay()));
        }
    }
    let mut tracker = ProgressTracker::new(m, cfg.share_progress);
    let mut results = ResultSet::new();
    let mut offsets: Vec<RowId> = vec![0; m];
    let mut order_infos: HashMap<Box<[u8]>, OrderInfo> = HashMap::new();
    let mut order_counts: HashMap<Box<[u8]>, u64> = HashMap::new();
    let mut prev_key: Option<Box<[u8]>> = None;
    let mut slices = 0u64;
    let finished_by_offsets = |offsets: &[RowId]| offsets.iter().zip(&cards).any(|(&o, &n)| o >= n);

    if !q.always_false {
        while !finished_by_offsets(&offsets) {
            let order = tr.span(Layer::Uct, || uct.choose());
            let key: Box<[u8]> = order.iter().map(|&t| t as u8).collect();
            if prev_key.as_deref() != Some(&key[..]) {
                c.last_order_switch = slices + 1;
                prev_key = Some(key.clone());
            }
            let info = match order_infos.entry(key.clone()) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(tr.span(Layer::State, || {
                    OrderInfo::build(q, &mctx, &order, cfg.use_jump_indexes)
                })),
            };
            let (mut state, before) = tr.span(Layer::State, || {
                let state = tracker.restore(&order, &offsets);
                let before = state.clone();
                (state, before)
            });
            let used = budget.used();
            let outcome = tr
                .span(Layer::Join, || {
                    continue_join(
                        &mctx,
                        info,
                        &mut state,
                        &offsets,
                        cfg.slice_steps,
                        &budget,
                        &mut results,
                    )
                })
                .map_err(|_| TIMEOUT)?;
            c.join_units += budget.used() - used;
            let finished = outcome == SliceOutcome::Finished;
            tr.span(Layer::Uct, || {
                let r = slice_reward(cfg.reward, &order, &before, &state, &cards, finished);
                uct.update(&order, r);
            });
            c.uct_calls += 2;
            tr.span(Layer::State, || tracker.backup(&order, &state));
            let t0 = order[0];
            offsets[t0] = offsets[t0].max(state.s[t0]);
            if finished {
                offsets[t0] = offsets[t0].max(cards[t0]);
            }
            slices += 1;
            *order_counts.entry(key).or_insert(0) += 1;
        }
    }
    c.result_tuples = results.len() as u64;
    let result = tr
        .span(Layer::Postprocess, || {
            let tuples = results.into_tuples();
            postprocess(&mctx.tables, q, &tuples, &budget)
        })
        .map_err(|_| TIMEOUT)?;
    if let Some(p) = &probe {
        if slices > 0 {
            tr.span(Layer::Cache, || {
                p.publish(uct.extract_prior(p.max_entries()), slices)
            });
        }
    }
    let best: Box<[u8]> = uct.best_order().iter().map(|&t| t as u8).collect();
    c.best_order_slices = order_counts.get(&best).copied().unwrap_or(0);
    c.slices = slices;
    c.work_units = budget.used();
    ctx.absorb_work(budget.used());
    Ok(result)
}

/// Compare a re-driven script with the untraced run of the same script
/// from the same state. Returns, per statement, `None` when work units,
/// slices and rows agree, or the reason they do not.
pub fn self_check(traced: &[StmtTrace], untraced: &ScriptOutcome) -> Vec<Option<String>> {
    if traced.len() != untraced.statements.len() {
        let why = format!(
            "statement count differs: traced {} vs untraced {}",
            traced.len(),
            untraced.statements.len()
        );
        return traced.iter().map(|_| Some(why.clone())).collect();
    }
    traced
        .iter()
        .zip(&untraced.statements)
        .map(|(t, u)| {
            let c = &t.counts;
            let (u_rows, u_slices) = match u.kind {
                StatementKind::DropTable(_) => (0, 0),
                _ => (u.rows as u64, u.metrics.slices),
            };
            if c.work_units == u.work_units && c.slices == u_slices && c.rows == u_rows {
                None
            } else {
                Some(format!(
                    "work/slices/rows traced {}/{}/{} vs untraced {}/{}/{}",
                    c.work_units, c.slices, c.rows, u.work_units, u_slices, u_rows
                ))
            }
        })
        .collect()
}
