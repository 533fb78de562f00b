//! Cross-query learning: a bounded, thread-safe, *durable* cache of UCT
//! tree priors keyed by query template.
//!
//! SkinnerDB learns join orders from scratch for every query — fine per
//! the paper, wasteful under a serving workload where the same templates
//! recur constantly. The [`TreeCache`] closes the loop: when a learned
//! strategy finishes a query it publishes the tree's exported statistics
//! ([`TreePrior`]) under the query's template key
//! ([`skinner_query::template_key`]); the next query with the same
//! template warm-starts its tree from the decayed prior and converges to
//! the best join order in far fewer episodes.
//!
//! Design constraints, in order:
//!
//! * **correctness is untouchable** — the cache only ever biases *which
//!   orders get explored first*; every engine's offsets discipline makes
//!   results identical for any order sequence, so results are bit-identical
//!   with the cache on or off (the equivalence suite pins this);
//! * **staleness is detected, not assumed away** — entries record each
//!   table's content [`fingerprint`](skinner_storage::Table::fingerprint)
//!   (schema + row count + column data, stable across processes); a lookup
//!   whose fingerprints mismatch invalidates the entry instead of serving
//!   priors learned on different data. Process-local
//!   [`uid`](skinner_storage::Table::uid)s are still recorded for *eager*
//!   purging through the catalog's drop observer, but identity — the thing
//!   that must survive a restart — is content-derived;
//! * **durable** — with a [`DiskStore`] attached, entries persist into the
//!   data directory as a checksummed sidecar written with the same
//!   tmp→fsync→rename discipline as segments ([`persist`]), loaded on
//!   `Database::open` and tombstoned on table drops;
//! * **drift-aware** — per-template feedback quarantines priors whose warm
//!   starts regress instead of helping, with decay-based rehabilitation
//!   (the crate-private `drift` module);
//! * **generalizing** — a never-seen template can warm-start from its
//!   nearest neighbor by join-graph shape (table names + fingerprints,
//!   predicate counts, `skinner_stats::card_bucket` cardinality buckets),
//!   guarded by the same quarantine feedback;
//! * **bounded** — least-recently-used eviction above a fixed capacity;
//! * **thread-safe** — one mutex around the map; flushes snapshot under
//!   the lock and write outside it.

pub(crate) mod drift;
pub mod persist;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use skinner_exec::ExecContext;
use skinner_query::{template_features, template_key, JoinQuery, TemplateFeatures};
use skinner_stats::card_bucket;
use skinner_storage::DiskStore;
use skinner_uct::TreePrior;

use drift::DriftState;
pub use persist::{PRIORS_SIDECAR, PRIORS_VERSION};

/// Tuning knobs of a [`TreeCache`].
#[derive(Debug, Clone, Copy)]
pub struct TreeCacheConfig {
    /// Maximum number of cached templates (LRU-evicted beyond this).
    pub capacity: usize,
    /// Decay applied to cached statistics when seeding a new tree, in
    /// `[0, 1]`: `0.5` halves the prior's confidence per generation, so
    /// fresh rewards can overturn stale knowledge quickly; `0` carries
    /// nothing over (warm starts become inert).
    pub decay: f64,
    /// Maximum prior entries (tree nodes) exported per publication.
    pub max_entries: usize,
    /// Publications between automatic flushes to the attached store
    /// (drops and shutdown always flush).
    pub flush_every: usize,
    /// Whether never-seen templates may warm-start from their
    /// nearest-neighbor template's prior.
    pub generalize: bool,
}

impl Default for TreeCacheConfig {
    fn default() -> Self {
        TreeCacheConfig {
            capacity: 256,
            decay: 0.5,
            max_entries: 128,
            flush_every: 8,
            generalize: true,
        }
    }
}

/// A template's cached state: the prior plus everything needed to decide
/// whether serving it is still sound.
pub(crate) struct CacheEntry {
    /// `Table::uid`s at last validated use, in FROM order — the handle the
    /// catalog's drop observer purges by. Empty for entries loaded from
    /// disk until their first validated lookup re-binds them.
    pub(crate) uids: Vec<u64>,
    /// Content fingerprints of the template's tables, in FROM order: the
    /// restart-stable identity that lookups validate against.
    pub(crate) fingerprints: Vec<u64>,
    /// Cardinality buckets of the tables at publish time.
    pub(crate) buckets: Vec<u8>,
    /// Structural join-graph features (for nearest-neighbor matching).
    pub(crate) features: TemplateFeatures,
    pub(crate) prior: Arc<TreePrior>,
    pub(crate) drift: DriftState,
    /// Recency stamp for LRU eviction (monotonic use counter).
    pub(crate) stamp: u64,
}

impl CacheEntry {
    fn clone_for_snapshot(&self) -> CacheEntry {
        CacheEntry {
            uids: self.uids.clone(),
            fingerprints: self.fingerprints.clone(),
            buckets: self.buckets.clone(),
            features: self.features.clone(),
            prior: self.prior.clone(),
            drift: self.drift.clone(),
            stamp: self.stamp,
        }
    }
}

/// A decoded on-disk entry (key + state), produced by [`persist`].
pub(crate) struct PersistedEntry {
    pub(crate) key: String,
    pub(crate) entry: CacheEntry,
}

/// Monotonic counters of a [`TreeCache`], surfaced by
/// `SHOW SERVER STATS` (plus the current entry counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub published: u64,
    pub evictions: u64,
    pub entries: usize,
    /// Entries currently quarantined (serving nothing).
    pub quarantined: usize,
    /// Quarantines ever entered (monotonic).
    pub quarantines: u64,
    /// Lookups served by a nearest-neighbor template rather than an exact
    /// key match.
    pub generalized_hits: u64,
    /// Entries loaded from the attached store at attach time.
    pub loaded: u64,
    /// Persisted payloads refused (corrupt, truncated, wrong version).
    pub load_rejected: u64,
    /// Successful flushes to the attached store.
    pub flushes: u64,
}

/// Everything a [`TreeCache`] needs to know about one query: the template
/// key plus the identity and shape evidence lookups validate against.
/// Computed once per query by [`CacheProbe::probe`].
#[derive(Debug, Clone)]
pub struct QuerySig {
    pub key: String,
    pub uids: Vec<u64>,
    pub fingerprints: Vec<u64>,
    pub buckets: Vec<u8>,
    pub features: TemplateFeatures,
}

impl QuerySig {
    /// Fingerprint a bound query. Forces each table's content fingerprint
    /// (cached per table incarnation, so the scan cost is paid once).
    pub fn of_query(query: &JoinQuery) -> QuerySig {
        QuerySig {
            key: template_key(query),
            uids: query.tables.iter().map(|t| t.uid()).collect(),
            fingerprints: query.tables.iter().map(|t| t.fingerprint()).collect(),
            buckets: query
                .tables
                .iter()
                .map(|t| card_bucket(t.num_rows() as u64))
                .collect(),
            features: template_features(query),
        }
    }
}

/// What a successful lookup hands the engine.
#[derive(Debug, Clone)]
pub struct WarmStart {
    pub prior: Arc<TreePrior>,
    /// `true` when the prior came from a nearest-neighbor template rather
    /// than an exact key match.
    pub generalized: bool,
    /// The supplying template's key when `generalized`.
    pub donor: Option<String>,
}

/// How the finished run was seeded, reported back at publish time so the
/// supplier of the prior can be judged (see the `drift` module).
#[derive(Debug, Clone)]
enum WarmSource {
    Exact,
    Generalized { donor: String },
}

/// Maximum feature distance at which a nearest-neighbor prior transfers.
const GENERALIZE_MAX_DISTANCE: u32 = 8;

/// A bounded, thread-safe, LRU, optionally-durable cache of cross-query
/// UCT priors.
pub struct TreeCache {
    cfg: TreeCacheConfig,
    inner: Mutex<Inner>,
    store: RwLock<Option<Arc<DiskStore>>>,
    /// Serializes flush writers; snapshotting happens under `inner`.
    flush_lock: Mutex<()>,
    dirty: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    published: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    generalized_hits: AtomicU64,
    loaded: AtomicU64,
    load_rejected: AtomicU64,
    flushes: AtomicU64,
}

struct Inner {
    map: HashMap<String, CacheEntry>,
    clock: u64,
}

impl Default for TreeCache {
    fn default() -> Self {
        Self::new(TreeCacheConfig::default())
    }
}

impl TreeCache {
    pub fn new(cfg: TreeCacheConfig) -> Self {
        TreeCache {
            cfg: TreeCacheConfig {
                capacity: cfg.capacity.max(1),
                decay: cfg.decay.clamp(0.0, 1.0),
                max_entries: cfg.max_entries.max(1),
                flush_every: cfg.flush_every.max(1),
                generalize: cfg.generalize,
            },
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            store: RwLock::new(None),
            flush_lock: Mutex::new(()),
            dirty: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            published: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            generalized_hits: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            load_rejected: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> TreeCacheConfig {
        self.cfg
    }

    /// Look up a prior for `sig`. Resolution order:
    ///
    /// 1. **Exact**: an entry under `sig.key` whose table fingerprints
    ///    match. A fingerprint mismatch (table re-created with different
    ///    content) removes the stale entry — counted as an invalidation —
    ///    and falls through to generalization. A quarantined entry serves
    ///    nothing (the run goes cold, counting its quarantine down at
    ///    publish time).
    /// 2. **Generalized**: the nearest non-quarantined template by
    ///    join-graph feature distance, if close enough.
    pub fn lookup(&self, sig: &QuerySig) -> Option<WarmStart> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(&sig.key) {
            Some(entry) if entry.fingerprints == sig.fingerprints => {
                // Keep quarantined entries warm in LRU terms: they are
                // serving their rehabilitation, not unused.
                entry.stamp = clock;
                if entry.drift.quarantined() {
                    drop(inner);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                entry.uids = sig.uids.clone();
                let prior = entry.prior.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(WarmStart {
                    prior,
                    generalized: false,
                    donor: None,
                });
            }
            Some(_) => {
                inner.map.remove(&sig.key);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.dirty.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        if self.cfg.generalize {
            if let Some((donor_key, dist)) = self.nearest_donor(&inner, sig) {
                let entry = inner.map.get_mut(&donor_key).expect("donor just found");
                entry.stamp = clock;
                let prior = entry.prior.clone();
                drop(inner);
                let _ = dist;
                self.generalized_hits.fetch_add(1, Ordering::Relaxed);
                return Some(WarmStart {
                    prior,
                    generalized: true,
                    donor: Some(donor_key),
                });
            }
        }
        drop(inner);
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The closest serving template by join-graph feature distance, if any
    /// is within [`GENERALIZE_MAX_DISTANCE`].
    fn nearest_donor(&self, inner: &Inner, sig: &QuerySig) -> Option<(String, u32)> {
        let mut best: Option<(&String, u32, u64)> = None;
        for (key, e) in &inner.map {
            if *key == sig.key
                || e.drift.quarantined()
                || e.prior.num_tables != sig.features.tables.len()
                || e.features.tables.len() != sig.features.tables.len()
            {
                continue;
            }
            let d = feature_distance(sig, e);
            if d > GENERALIZE_MAX_DISTANCE {
                continue;
            }
            let better = match best {
                None => true,
                // Prefer closer, then fresher.
                Some((_, bd, bs)) => d < bd || (d == bd && e.stamp > bs),
            };
            if better {
                best = Some((key, d, e.stamp));
            }
        }
        best.map(|(k, d, _)| (k.clone(), d))
    }

    /// Publish a finished run: replace (or create) the entry's prior with
    /// fresher statistics and feed the run's lock-in point back into drift
    /// tracking — judging whichever entry supplied the warm start.
    pub fn publish(&self, sig: &QuerySig, prior: TreePrior, feedback: RunFeedback) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let cost = feedback.cost as f64;

        // Judge the donor first (separate borrow from the entry below).
        if let Some(WarmSource::Generalized { donor }) = &feedback.warm {
            if let Some(donor_entry) = inner.map.get_mut(donor) {
                if donor_entry.drift.judge_warm(cost) {
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                    self.dirty.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Inherit the donor's cold baseline for a borrower's first entry:
        // its own first run was warm, so it has no cold measurement yet,
        // but without *some* baseline its future warm runs are unjudgeable.
        let inherited = match (&feedback.warm, inner.map.contains_key(&sig.key)) {
            (Some(WarmSource::Generalized { donor }), false) => {
                inner.map.get(donor).and_then(|d| d.drift.cold_ewma)
            }
            _ => None,
        };

        let entry = inner
            .map
            .entry(sig.key.clone())
            .or_insert_with(|| CacheEntry {
                uids: Vec::new(),
                fingerprints: Vec::new(),
                buckets: Vec::new(),
                features: sig.features.clone(),
                prior: Arc::new(TreePrior::default()),
                drift: DriftState {
                    cold_ewma: inherited,
                    ..DriftState::default()
                },
                stamp,
            });
        entry.uids = sig.uids.clone();
        entry.fingerprints = sig.fingerprints.clone();
        entry.buckets = sig.buckets.clone();
        entry.features = sig.features.clone();
        entry.prior = Arc::new(prior);
        entry.stamp = stamp;
        match &feedback.warm {
            None => entry.drift.note_cold(cost),
            Some(source) => {
                entry.drift.note_warm_observed(cost);
                if matches!(source, WarmSource::Exact) && entry.drift.judge_warm(cost) {
                    self.quarantines.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        while inner.map.len() > self.cfg.capacity {
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("over-capacity map is non-empty");
            inner.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        drop(inner);
        self.published.fetch_add(1, Ordering::Relaxed);
        if self.dirty.fetch_add(1, Ordering::Relaxed) + 1 >= self.cfg.flush_every {
            self.flush();
        }
    }

    /// Drop every entry whose template involves table `uid` *or* mentions
    /// the (lowercased) table `name` — the catalog's drop observer calls
    /// this so a dropped/replaced table eagerly purges both live entries
    /// (by uid) and restart-loaded ones that predate this process (by
    /// name). When a store is attached the purge flushes immediately: the
    /// on-disk prior is tombstoned, so a recreate-with-the-same-name can
    /// never warm-start from the old table's data — even across a restart.
    pub fn invalidate_table(&self, uid: u64, name: &str) {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner
            .map
            .retain(|_, e| !e.uids.contains(&uid) && !e.features.tables.iter().any(|t| t == name));
        let removed = (before - inner.map.len()) as u64;
        drop(inner);
        if removed > 0 {
            self.invalidations.fetch_add(removed, Ordering::Relaxed);
            self.dirty.fetch_add(removed as usize, Ordering::Relaxed);
            self.flush();
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Attach a persistent store and load any priors it holds. Returns the
    /// number of entries loaded; a corrupt, truncated or future-versioned
    /// payload is *refused* (counted in `load_rejected`) and the cache
    /// starts empty — a prior file is an accelerator, never worth failing
    /// an open over.
    pub fn attach_store(&self, store: Arc<DiskStore>) -> usize {
        let decoded = match store.read_sidecar(PRIORS_SIDECAR, PRIORS_VERSION) {
            Ok(Some(payload)) => match persist::decode_entries(&payload) {
                Ok(entries) => entries,
                Err(_) => {
                    self.load_rejected.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                }
            },
            Ok(None) => Vec::new(),
            Err(_) => {
                self.load_rejected.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        };
        let mut inner = self.inner.lock();
        let mut n = 0usize;
        for p in decoded {
            if inner.map.len() >= self.cfg.capacity {
                break;
            }
            // In-memory entries win: they are at least as fresh.
            if inner.map.contains_key(&p.key) {
                continue;
            }
            inner.clock += 1;
            let mut entry = p.entry;
            entry.stamp = inner.clock;
            inner.map.insert(p.key, entry);
            n += 1;
        }
        drop(inner);
        self.loaded.fetch_add(n as u64, Ordering::Relaxed);
        *self.store.write() = Some(store);
        n
    }

    /// Write the current entries to the attached store (no-op without
    /// one). Returns whether a write happened. Crash-safe: the sidecar
    /// write is tmp→fsync→rename, so a crash mid-flush leaves the
    /// previous priors file intact.
    pub fn flush(&self) -> bool {
        let Some(store) = self.store.read().clone() else {
            return false;
        };
        let _guard = self.flush_lock.lock();
        self.dirty.store(0, Ordering::Relaxed);
        let snapshot: Vec<(String, CacheEntry)> = {
            let inner = self.inner.lock();
            let mut v: Vec<(String, CacheEntry)> = inner
                .map
                .iter()
                .map(|(k, e)| (k.clone(), e.clone_for_snapshot()))
                .collect();
            // Oldest first, so reload assigns them the same relative
            // recency and LRU keeps behaving across a restart.
            v.sort_by_key(|(_, e)| e.stamp);
            v
        };
        let payload = persist::encode_entries(&snapshot);
        match store.write_sidecar(PRIORS_SIDECAR, PRIORS_VERSION, &payload) {
            Ok(()) => {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether a persistent store is attached.
    pub fn is_durable(&self) -> bool {
        self.store.read().is_some()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of entries currently quarantined.
    pub fn quarantined_len(&self) -> usize {
        self.inner
            .lock()
            .map
            .values()
            .filter(|e| e.drift.quarantined())
            .count()
    }

    /// Counter snapshot (see [`TreeCacheStats`]).
    pub fn stats(&self) -> TreeCacheStats {
        let (entries, quarantined) = {
            let inner = self.inner.lock();
            (
                inner.map.len(),
                inner.map.values().filter(|e| e.drift.quarantined()).count(),
            )
        };
        TreeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            quarantined,
            quarantines: self.quarantines.load(Ordering::Relaxed),
            generalized_hits: self.generalized_hits.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            load_rejected: self.load_rejected.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

/// Join-graph feature distance between a query signature and a cached
/// entry. Positional: name/fingerprint agreement per FROM slot, then
/// cardinality-bucket and predicate-shape deltas, then output-shape flags.
fn feature_distance(sig: &QuerySig, e: &CacheEntry) -> u32 {
    let mut d = 0u32;
    for i in 0..sig.features.tables.len() {
        let name_eq = sig.features.tables[i] == e.features.tables[i];
        let fp_eq = sig.fingerprints.get(i) == e.fingerprints.get(i);
        if !name_eq {
            // Table identity dominates: a template over different tables
            // is a poor donor even when every shape feature agrees.
            d += 5;
        } else if !fp_eq {
            // Same name, different content: its knowledge is about data
            // that no longer exists — nearly as foreign as another table.
            d += 2;
        }
        let (a, b) = (
            *sig.buckets.get(i).unwrap_or(&0) as i32,
            *e.buckets.get(i).unwrap_or(&0) as i32,
        );
        d += (a - b).unsigned_abs().min(4);
        let (ua, ub) = (
            *sig.features.unary_counts.get(i).unwrap_or(&0) as i32,
            *e.features.unary_counts.get(i).unwrap_or(&0) as i32,
        );
        d += (ua - ub).unsigned_abs().min(2);
    }
    d += (sig.features.n_equi as i32 - e.features.n_equi as i32)
        .unsigned_abs()
        .min(2)
        * 2;
    d += (sig.features.n_theta as i32 - e.features.n_theta as i32)
        .unsigned_abs()
        .min(2)
        * 2;
    d += (sig.features.has_group != e.features.has_group) as u32;
    d += (sig.features.has_order != e.features.has_order) as u32;
    d += (sig.features.distinct != e.features.distinct) as u32;
    d += (sig.features.limited != e.features.limited) as u32;
    d
}

/// What the engine reports back at publish time.
#[derive(Debug, Clone)]
pub struct RunFeedback {
    warm: Option<WarmSource>,
    /// The run's convergence cost: total exploration episodes to
    /// completion. Prices both a late lock-in and a sticky prior that
    /// pinned a bad order from episode one.
    cost: u64,
}

impl RunFeedback {
    /// Feedback for a cold run (no prior was served).
    pub fn cold(cost: u64) -> RunFeedback {
        RunFeedback { warm: None, cost }
    }
}

/// One query's view of the cache: the signature computed once, shared by
/// the lookup at query start and the publication at query end — which also
/// remembers *who* supplied the warm start so the publication can route
/// drift feedback to it. `probe` returns `None` when the context carries
/// no cache (the knob is off) — the engines then skip all cross-query
/// work.
pub struct CacheProbe {
    cache: Arc<TreeCache>,
    sig: QuerySig,
    served: Mutex<Option<WarmSource>>,
}

impl CacheProbe {
    /// Probe the context for a learning cache and fingerprint `query`
    /// against it. Single-table queries are not worth caching (their only
    /// join order is trivial) and return `None`.
    pub fn probe(ctx: &ExecContext, query: &JoinQuery) -> Option<CacheProbe> {
        if query.num_tables() < 2 {
            return None;
        }
        let cache = ctx.learning_cache::<TreeCache>()?;
        Some(CacheProbe {
            sig: QuerySig::of_query(query),
            cache,
            served: Mutex::new(None),
        })
    }

    /// Look up this query's prior (fingerprint-validated, possibly
    /// generalized). Records the source for publish-time drift feedback.
    pub fn lookup(&self) -> Option<WarmStart> {
        let warm = self.cache.lookup(&self.sig)?;
        *self.served.lock() = Some(match &warm.donor {
            Some(d) => WarmSource::Generalized { donor: d.clone() },
            None => WarmSource::Exact,
        });
        Some(warm)
    }

    /// Publish this query's finished tree statistics along with the run's
    /// convergence cost (total episodes) for drift tracking.
    pub fn publish(&self, prior: TreePrior, cost: u64) {
        let feedback = RunFeedback {
            warm: self.served.lock().clone(),
            cost,
        };
        self.cache.publish(&self.sig, prior, feedback);
    }

    /// Decay factor to apply when seeding from the cached prior.
    pub fn decay(&self) -> f64 {
        self.cache.config().decay
    }

    /// Cap on prior entries exported at publication.
    pub fn max_entries(&self) -> usize {
        self.cache.config().max_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_uct::PriorEntry;

    fn prior(visits: u64) -> TreePrior {
        TreePrior {
            num_tables: 2,
            entries: vec![PriorEntry {
                prefix: vec![],
                visits,
                reward_sum: visits as f64 * 0.5,
            }],
        }
    }

    /// A signature over two fictional tables; `fp` differentiates content
    /// generations of the same names.
    fn sig(key: &str, tables: [&str; 2], fp: u64) -> QuerySig {
        QuerySig {
            key: key.to_string(),
            uids: vec![fp * 10 + 1, fp * 10 + 2],
            fingerprints: vec![fp, fp + 1],
            buckets: vec![4, 8],
            features: TemplateFeatures {
                tables: tables.iter().map(|s| s.to_string()).collect(),
                unary_counts: vec![1, 0],
                n_equi: 1,
                n_theta: 0,
                n_select: 1,
                has_group: false,
                has_order: false,
                distinct: false,
                limited: false,
            },
        }
    }

    fn no_gen() -> TreeCacheConfig {
        TreeCacheConfig {
            generalize: false,
            ..Default::default()
        }
    }

    #[test]
    fn hit_miss_and_counter_accounting() {
        let cache = TreeCache::new(no_gen());
        let q1 = sig("q1", ["a", "b"], 7);
        assert!(cache.lookup(&q1).is_none());
        cache.publish(&q1, prior(10), RunFeedback::cold(5));
        let got = cache.lookup(&q1).expect("hit");
        assert_eq!(got.prior.root_visits(), 10);
        assert!(!got.generalized);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.published, s.entries), (1, 1, 1, 1));
    }

    #[test]
    fn fingerprint_mismatch_invalidates_the_entry() {
        let cache = TreeCache::new(no_gen());
        cache.publish(&sig("q1", ["a", "b"], 7), prior(10), RunFeedback::cold(5));
        // Table content changed: same key, different fingerprints — the
        // stale entry must die, not be served.
        assert!(cache.lookup(&sig("q1", ["a", "b"], 99)).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        // Gone entirely: even the original fingerprints now miss.
        assert!(cache.lookup(&sig("q1", ["a", "b"], 7)).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn lru_eviction_under_tiny_capacity() {
        let cache = TreeCache::new(TreeCacheConfig {
            capacity: 2,
            generalize: false,
            ..Default::default()
        });
        let (a, b, c) = (
            sig("a", ["t1", "t2"], 1),
            sig("b", ["t3", "t4"], 2),
            sig("c", ["t5", "t6"], 3),
        );
        cache.publish(&a, prior(1), RunFeedback::cold(5));
        cache.publish(&b, prior(2), RunFeedback::cold(5));
        // Touch "a" so "b" is the LRU when "c" pushes one out.
        assert!(cache.lookup(&a).is_some());
        cache.publish(&c, prior(3), RunFeedback::cold(5));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a).is_some(), "recently used survives");
        assert!(cache.lookup(&c).is_some(), "new entry present");
        assert!(cache.lookup(&b).is_none(), "LRU evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn republish_refreshes_the_prior() {
        let cache = TreeCache::new(no_gen());
        let q = sig("q", ["a", "b"], 7);
        cache.publish(&q, prior(10), RunFeedback::cold(5));
        cache.publish(&q, prior(20), RunFeedback::cold(5));
        assert_eq!(cache.lookup(&q).unwrap().prior.root_visits(), 20);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eager_table_invalidation_by_uid_and_by_name() {
        let cache = TreeCache::new(no_gen());
        cache.publish(&sig("q1", ["a", "b"], 1), prior(1), RunFeedback::cold(5));
        cache.publish(&sig("q2", ["b", "c"], 2), prior(2), RunFeedback::cold(5));
        cache.publish(&sig("q3", ["d", "e"], 3), prior(3), RunFeedback::cold(5));
        // q1 has uid 11 for table "a"; purge by uid.
        cache.invalidate_table(11, "a");
        assert_eq!(cache.len(), 2);
        // Purge by *name* alone (uid unknown — e.g. a restart-loaded entry).
        cache.invalidate_table(u64::MAX, "c");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&sig("q3", ["d", "e"], 3)).is_some());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn config_is_sanitized() {
        let cache = TreeCache::new(TreeCacheConfig {
            capacity: 0,
            decay: 7.0,
            max_entries: 0,
            flush_every: 0,
            generalize: true,
        });
        let cfg = cache.config();
        assert_eq!(cfg.capacity, 1);
        assert_eq!(cfg.decay, 1.0);
        assert_eq!(cfg.max_entries, 1);
        assert_eq!(cfg.flush_every, 1);
    }

    #[test]
    fn generalization_transfers_from_nearest_neighbor() {
        let cache = TreeCache::default();
        let donor = sig("donor", ["fact", "dim"], 7);
        cache.publish(&donor, prior(40), RunFeedback::cold(20));
        // Same tables + fingerprints, different predicate shape → new key.
        let mut borrower = sig("borrower", ["fact", "dim"], 7);
        borrower.features.unary_counts = vec![0, 1];
        borrower.features.has_order = true;
        let w = cache.lookup(&borrower).expect("nearest-neighbor transfer");
        assert!(w.generalized);
        assert_eq!(w.donor.as_deref(), Some("donor"));
        assert_eq!(w.prior.root_visits(), 40);
        let s = cache.stats();
        assert_eq!((s.hits, s.generalized_hits, s.misses), (0, 1, 0));

        // A template over unrelated tables is too far away.
        let stranger = sig("stranger", ["x", "y"], 3);
        assert!(cache.lookup(&stranger).is_none());
        assert_eq!(cache.stats().misses, 1, "nothing served counts as a miss");
    }

    #[test]
    fn quarantined_entries_serve_nothing_and_rehabilitate() {
        let cache = TreeCache::new(no_gen());
        let q = sig("q", ["a", "b"], 7);
        // Cold baseline: locks in around 10.
        cache.publish(&q, prior(10), RunFeedback::cold(10));
        // Two regressing warm runs → quarantine.
        for _ in 0..2 {
            assert!(cache.lookup(&q).is_some());
            cache.publish(
                &q,
                prior(10),
                RunFeedback {
                    warm: Some(WarmSource::Exact),
                    cost: 50,
                },
            );
        }
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.stats().quarantines, 1);
        // While quarantined: lookups refuse, runs go cold and count down.
        for _ in 0..drift::QUARANTINE_RUNS {
            assert!(cache.lookup(&q).is_none(), "quarantine serves nothing");
            cache.publish(&q, prior(10), RunFeedback::cold(12));
        }
        assert_eq!(cache.stats().quarantined, 0, "rehabilitated");
        assert!(cache.lookup(&q).is_some(), "serving again");
    }

    #[test]
    fn quarantined_donor_is_skipped_for_generalization() {
        let cache = TreeCache::default();
        let donor = sig("donor", ["fact", "dim"], 7);
        cache.publish(&donor, prior(40), RunFeedback::cold(10));
        // Quarantine the donor via regressing exact warm runs.
        for _ in 0..2 {
            assert!(cache.lookup(&donor).is_some());
            cache.publish(
                &donor,
                prior(40),
                RunFeedback {
                    warm: Some(WarmSource::Exact),
                    cost: 100,
                },
            );
        }
        assert_eq!(cache.stats().quarantined, 1);
        let mut borrower = sig("borrower", ["fact", "dim"], 7);
        borrower.features.has_order = true;
        assert!(
            cache.lookup(&borrower).is_none(),
            "a quarantined donor must not transfer"
        );
    }

    #[test]
    fn generalized_regressions_strike_the_donor() {
        let cache = TreeCache::default();
        let donor = sig("donor", ["fact", "dim"], 7);
        cache.publish(&donor, prior(40), RunFeedback::cold(10));
        let mut borrower = sig("borrower", ["fact", "dim"], 7);
        borrower.features.has_order = true;
        // Two borrowing runs that regress badly → donor quarantined.
        for _ in 0..2 {
            let w = cache.lookup(&borrower);
            // (First iteration generalizes; second may hit the borrower's
            // own entry — force donor feedback to model a fresh borrower.)
            let _ = w;
            cache.publish(
                &borrower,
                prior(5),
                RunFeedback {
                    warm: Some(WarmSource::Generalized {
                        donor: "donor".to_string(),
                    }),
                    cost: 100,
                },
            );
        }
        let s = cache.stats();
        assert_eq!(s.quarantines, 1, "donor took the strikes");
        assert!(cache.lookup(&donor).is_none(), "donor quarantined");
    }

    #[test]
    fn concurrent_publish_and_lookup_stay_consistent() {
        let cache = Arc::new(TreeCache::new(TreeCacheConfig {
            capacity: 8,
            generalize: false,
            ..Default::default()
        }));
        let threads = 8;
        let per_thread = 200;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for n in 0..per_thread {
                        let id = (i + n) % 12;
                        let s = sig(&format!("q{id}"), ["a", "b"], id as u64);
                        if let Some(w) = cache.lookup(&s) {
                            assert_eq!(w.prior.num_tables, 2);
                        }
                        cache.publish(&s, prior(n as u64 + 1), RunFeedback::cold(5));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert!(cache.len() <= 8, "capacity respected: {}", cache.len());
        assert_eq!(s.published, (threads * per_thread) as u64);
        assert_eq!(s.hits + s.misses, (threads * per_thread) as u64);
    }

    #[test]
    fn persistence_roundtrip_through_a_store() {
        let dir = std::env::temp_dir().join(format!("skinner_cachep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let cache = TreeCache::new(no_gen());
        assert!(!cache.flush(), "no store attached yet");
        assert_eq!(cache.attach_store(store.clone()), 0);
        assert!(cache.is_durable());
        let q = sig("q", ["a", "b"], 7);
        cache.publish(&q, prior(10), RunFeedback::cold(5));
        assert!(cache.flush());

        // A fresh cache on the same store sees the entry — with the same
        // fingerprints, so validation passes and the prior serves.
        let cache2 = TreeCache::new(no_gen());
        assert_eq!(cache2.attach_store(store.clone()), 1);
        let w = cache2.lookup(&q).expect("persisted prior serves");
        assert_eq!(w.prior.root_visits(), 10);

        // But a content change (new fingerprints) is refused.
        let cache3 = TreeCache::new(no_gen());
        assert_eq!(cache3.attach_store(store), 1);
        assert!(cache3.lookup(&sig("q", ["a", "b"], 99)).is_none());
        assert_eq!(cache3.stats().invalidations, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_purge_tombstones_the_persisted_entry() {
        let dir = std::env::temp_dir().join(format!("skinner_cachet_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let cache = TreeCache::new(no_gen());
        cache.attach_store(store.clone());
        let q = sig("q", ["a", "b"], 7);
        cache.publish(&q, prior(10), RunFeedback::cold(5));
        cache.flush();
        // Drop table "a" (uid unknown): purge + immediate tombstone flush.
        cache.invalidate_table(u64::MAX, "a");
        assert_eq!(cache.len(), 0);
        let cache2 = TreeCache::new(no_gen());
        assert_eq!(
            cache2.attach_store(store),
            0,
            "tombstoned on disk: nothing to load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_priors_file_is_refused_not_served() {
        let dir = std::env::temp_dir().join(format!("skinner_cachec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let cache = TreeCache::new(no_gen());
        cache.attach_store(store.clone());
        cache.publish(&sig("q", ["a", "b"], 7), prior(10), RunFeedback::cold(5));
        cache.flush();
        // Corrupt one payload byte on disk.
        let path = dir.join(format!("{PRIORS_SIDECAR}.side"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x1;
        std::fs::write(&path, &bytes).unwrap();
        let cache2 = TreeCache::new(no_gen());
        assert_eq!(cache2.attach_store(store), 0);
        let s = cache2.stats();
        assert_eq!(s.load_rejected, 1);
        assert_eq!(s.entries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
