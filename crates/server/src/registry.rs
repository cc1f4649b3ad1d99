//! The prepared-statement registry: parse and compile each statement once,
//! cache per-graph bound plans with bounded LRU eviction — behind
//! hash-sharded locks so concurrent pipelined requests stop serializing on
//! one mutex.
//!
//! A *statement* is a named textual ECRPQ. Registering it runs the
//! parse + compile phases of the pipeline (`parse_query` →
//! [`PreparedQuery::prepare`]) exactly once; the automaton artifacts inside
//! the prepared query are additionally memoized per relation, so even
//! re-registering a statement over the same relations recompiles nothing.
//!
//! Executing a statement against a cataloged graph needs a
//! [`BoundStatement`] (the bind phase: constants, symbol translation, CSR
//! adjacency). Those are cached here keyed by `(statement, graph)` with an
//! LRU-style bound — re-running a statement on the same graph skips binding
//! entirely and reports a registry **hit**. The cache watches handle
//! identity: reloading a graph (or re-registering a statement) under the
//! same name makes the stale entry miss and rebind on next use.
//!
//! ## Sharding
//!
//! Both maps are split into [`SHARD_COUNT`] hash-sharded shards: statement
//! lookups shard by statement name, bound-plan lookups by `(statement,
//! graph)`. A request takes exactly one statement-shard read lock and one
//! bound-shard lock — two requests for different statements touch disjoint
//! locks. Recency stamps come from one global atomic clock, so eviction
//! stays **global-LRU-approximate**: an insert at capacity first evicts the
//! least-recent entry of its own shard, and falls back to a cross-shard
//! sweep (one shard locked at a time, never nested) when its shard has
//! nothing to give. A hot plan carries a recent stamp everywhere, so it is
//! never the victim while colder entries remain. Per-shard hit/miss/eviction
//! counters are kept under each shard's lock and aggregated by
//! [`StatementRegistry::stats`].

use crate::ServerError;
use ecrpq::eval::{BoundStatement, PreparedQuery};
use ecrpq::parse_query;
use ecrpq_automata::Alphabet;
use ecrpq_graph::GraphDb;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Shard count for both the statement map and the bound-plan cache (a power
/// of two). Sixteen shards keep the per-shard collision probability low for
/// the worker counts the server runs (every worker on a different shard is
/// the common case) without bloating the fixed footprint.
pub const SHARD_COUNT: usize = 16;

/// FNV-1a over `key` (and an optional second component), folded to a shard
/// index. The same hash family the storage layer uses for text keys; shared
/// with the catalog so both sharded maps agree on the scheme.
pub(crate) fn shard_of(a: &str, b: Option<&str>) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in a.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    if let Some(b) = b {
        h ^= 0xff; // separator: ("ab", "c") must not collide with ("a", "bc")
        h = h.wrapping_mul(0x100_0000_01b3);
        for byte in b.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    // FNV's raw bits cluster for short keys; one xor-shift/multiply round
    // (the splitmix64 finalizer) spreads them before masking.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h as usize) & (SHARD_COUNT - 1)
}

/// A registered statement: the original text and its compiled form.
#[derive(Debug)]
pub struct Statement {
    /// The statement's registry name.
    pub name: String,
    /// The textual query it was parsed from.
    pub text: String,
    /// The graph-independent compiled query.
    pub prepared: Arc<PreparedQuery>,
}

/// Counters describing registry effectiveness, surfaced alongside
/// [`EvalStats`](ecrpq::eval::EvalStats) in server responses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Bound-plan cache hits (bind phase skipped).
    pub hits: u64,
    /// Bound-plan cache misses (fresh bind performed).
    pub misses: u64,
    /// Bound plans evicted by the LRU bound.
    pub evictions: u64,
    /// Statements compiled (including re-registrations).
    pub prepared: u64,
}

/// The hit/miss/eviction counters of one bound-plan shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Cache hits served by this shard.
    pub hits: u64,
    /// Cache misses filled into this shard.
    pub misses: u64,
    /// Entries this shard evicted.
    pub evictions: u64,
}

/// One cached bound plan with its recency stamp.
#[derive(Debug)]
struct BoundEntry {
    plan: Arc<BoundStatement>,
    last_used: u64,
}

/// One shard of the bound-plan cache: its slice of the map plus the
/// counters it owns (mutated under the same lock, read via
/// [`StatementRegistry::shard_counters`]).
#[derive(Debug, Default)]
struct BoundShard {
    map: HashMap<(String, String), BoundEntry>,
    counters: ShardCounters,
}

/// A thread-safe statement registry with a bounded, sharded bound-plan
/// cache.
#[derive(Debug)]
pub struct StatementRegistry {
    /// Statement shards, keyed by statement name.
    statements: Vec<RwLock<HashMap<String, Arc<Statement>>>>,
    /// Bound-plan shards, keyed by `(statement, graph)`.
    bound: Vec<Mutex<BoundShard>>,
    /// Global recency clock; stamps are comparable across shards, which is
    /// what keeps per-shard eviction global-LRU-approximate.
    tick: AtomicU64,
    /// Total cached bound plans across shards (maintained next to each
    /// shard-locked insert/remove; the capacity check reads it lock-free).
    bound_count: AtomicUsize,
    /// Statements compiled (including re-registrations).
    prepared: AtomicU64,
    capacity: usize,
}

/// Default bound on cached `(statement, graph)` plans.
pub const DEFAULT_BOUND_CAPACITY: usize = 64;

impl Default for StatementRegistry {
    fn default() -> Self {
        StatementRegistry::new(DEFAULT_BOUND_CAPACITY)
    }
}

impl StatementRegistry {
    /// A registry whose bound-plan cache holds at most `capacity` entries
    /// (at least 1).
    pub fn new(capacity: usize) -> StatementRegistry {
        StatementRegistry {
            statements: (0..SHARD_COUNT).map(|_| RwLock::new(HashMap::new())).collect(),
            bound: (0..SHARD_COUNT).map(|_| Mutex::new(BoundShard::default())).collect(),
            tick: AtomicU64::new(0),
            bound_count: AtomicUsize::new(0),
            prepared: AtomicU64::new(0),
            capacity: capacity.max(1),
        }
    }

    /// Parses and compiles `text` over `alphabet`, registering it under
    /// `name`. Replaces (and invalidates the cached bindings of) any
    /// previous statement with that name.
    pub fn prepare(
        &self,
        name: &str,
        text: &str,
        alphabet: &Alphabet,
    ) -> Result<Arc<Statement>, ServerError> {
        let query = parse_query(text, alphabet).map_err(ServerError::msg)?;
        let prepared = PreparedQuery::prepare(&query).map_err(ServerError::msg)?;
        let stmt = Arc::new(Statement {
            name: name.to_string(),
            text: text.to_string(),
            prepared: Arc::new(prepared),
        });
        self.prepared.fetch_add(1, Ordering::Relaxed);
        self.invalidate_bound(name);
        self.statements[shard_of(name, None)]
            .write()
            .unwrap()
            .insert(name.to_string(), Arc::clone(&stmt));
        Ok(stmt)
    }

    /// Drops every cached bound plan of statement `name`. Re-registration is
    /// rare, so the cross-shard sweep (one lock at a time, never nested) is
    /// off the hot path.
    fn invalidate_bound(&self, name: &str) {
        for shard in &self.bound {
            let mut shard = shard.lock().unwrap();
            let before = shard.map.len();
            shard.map.retain(|(s, _), _| s != name);
            let removed = before - shard.map.len();
            if removed > 0 {
                self.bound_count.fetch_sub(removed, Ordering::Relaxed);
            }
        }
    }

    /// The statement registered under `name`.
    pub fn statement(&self, name: &str) -> Option<Arc<Statement>> {
        self.statements[shard_of(name, None)].read().unwrap().get(name).cloned()
    }

    /// [`statement`](Self::statement), or the protocol's "unknown statement"
    /// error.
    pub fn require(&self, name: &str) -> Result<Arc<Statement>, ServerError> {
        self.statement(name).ok_or_else(|| ServerError(format!("unknown statement `{name}`")))
    }

    /// Sorted `(name, text)` pairs of every registered statement.
    pub fn summaries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for shard in &self.statements {
            out.extend(shard.read().unwrap().values().map(|s| (s.name.clone(), s.text.clone())));
        }
        out.sort();
        out
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.statements.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// True if no statement is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached bound plans.
    pub fn bound_len(&self) -> usize {
        self.bound.iter().map(|s| s.lock().unwrap().map.len()).sum()
    }

    /// The aggregated cache counters (sum of every shard, plus the global
    /// compile counter).
    pub fn stats(&self) -> RegistryStats {
        let mut out =
            RegistryStats { prepared: self.prepared.load(Ordering::Relaxed), ..Default::default() };
        for shard in &self.bound {
            let c = shard.lock().unwrap().counters;
            out.hits += c.hits;
            out.misses += c.misses;
            out.evictions += c.evictions;
        }
        out
    }

    /// The per-shard hit/miss/eviction counters, in shard order.
    pub fn shard_counters(&self) -> Vec<ShardCounters> {
        self.bound.iter().map(|s| s.lock().unwrap().counters).collect()
    }

    /// Installs a statement rebuilt from a snapshot sidecar: registers it
    /// (replacing any previous statement with the name) *and* seeds the
    /// bound-plan cache with its already-bound plan. The cached entry shares
    /// the registered statement's `Arc<PreparedQuery>` handle, so the next
    /// [`bound`](Self::bound) call is a **hit**. The sidecar reader has
    /// already parsed, compiled and bound the plan; this only installs it,
    /// so the `prepared` counter is not bumped.
    pub fn install_warm(
        &self,
        name: &str,
        text: &str,
        graph_name: &str,
        plan: Arc<BoundStatement>,
    ) {
        let stmt = Arc::new(Statement {
            name: name.to_string(),
            text: text.to_string(),
            prepared: Arc::clone(plan.prepared()),
        });
        self.invalidate_bound(name);
        self.statements[shard_of(name, None)].write().unwrap().insert(name.to_string(), stmt);
        self.insert_bound(name, graph_name, plan, /* count_miss: */ false);
    }

    /// The bound plan of statement `name` against `graph` (cataloged as
    /// `graph_name`), binding and caching on a miss. Returns the plan and
    /// whether it was a cache **hit**.
    ///
    /// A cached entry only hits while both handles are current: a reloaded
    /// graph or re-registered statement changes `Arc` identity, so the stale
    /// plan misses and is rebound against the fresh handles.
    pub fn bound(
        &self,
        name: &str,
        graph_name: &str,
        graph: &Arc<GraphDb>,
    ) -> Result<(Arc<BoundStatement>, bool), ServerError> {
        // Statement shard first, bound shard second — never both at once
        // (prepare/install sweep bound shards without holding a statement
        // lock, so there is no lock order to deadlock on).
        let stmt = self.require(name)?;

        let key = (name.to_string(), graph_name.to_string());
        {
            let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
            let mut shard = self.bound[shard_of(name, Some(graph_name))].lock().unwrap();
            if let Some(entry) = shard.map.get_mut(&key) {
                if Arc::ptr_eq(entry.plan.graph(), graph)
                    && Arc::ptr_eq(entry.plan.prepared(), &stmt.prepared)
                {
                    entry.last_used = tick;
                    let plan = Arc::clone(&entry.plan);
                    shard.counters.hits += 1;
                    return Ok((plan, true));
                }
            }
        }

        // Bind outside every lock: binding is cheap but linear in the graph,
        // and concurrent workers must not serialize on it.
        let plan = Arc::new(
            BoundStatement::bind(Arc::clone(&stmt.prepared), Arc::clone(graph))
                .map_err(ServerError::msg)?,
        );
        self.insert_bound(name, graph_name, Arc::clone(&plan), /* count_miss: */ true);
        Ok((plan, false))
    }

    /// Inserts (or replaces) a bound plan, enforcing the capacity bound.
    /// A fresh insert at capacity overshoots briefly, then evicts the
    /// *globally* least-recent entry — evicting within the inserting shard
    /// would be cheaper but unfair: a cold insert hashing into a hot
    /// entry's shard must not evict the hot entry while colder ones sit in
    /// other shards.
    fn insert_bound(
        &self,
        name: &str,
        graph_name: &str,
        plan: Arc<BoundStatement>,
        count_miss: bool,
    ) {
        let key = (name.to_string(), graph_name.to_string());
        let idx = shard_of(name, Some(graph_name));
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut shard = self.bound[idx].lock().unwrap();
            if count_miss {
                shard.counters.misses += 1;
            }
            if let Some(entry) = shard.map.get_mut(&key) {
                // Replacing a stale entry: the count is unchanged.
                entry.plan = plan;
                entry.last_used = tick;
                return;
            }
            shard.map.insert(key, BoundEntry { plan, last_used: tick });
            self.bound_count.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_global_lru();
    }

    /// Evicts globally least-recent bound plans until the cache is back
    /// under capacity: scan every shard's minimum stamp without holding
    /// more than one lock, then re-lock the winning shard and remove its
    /// minimum (re-derived, in case it moved).
    fn evict_global_lru(&self) {
        while self.bound_count.load(Ordering::Relaxed) > self.capacity {
            let mut victim: Option<(usize, u64)> = None;
            for (i, shard) in self.bound.iter().enumerate() {
                let shard = shard.lock().unwrap();
                if let Some(stamp) = shard.map.values().map(|e| e.last_used).min() {
                    if victim.is_none_or(|(_, best)| stamp < best) {
                        victim = Some((i, stamp));
                    }
                }
            }
            let Some((i, _)) = victim else { return };
            let mut shard = self.bound[i].lock().unwrap();
            let Some(key) =
                shard.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            else {
                continue;
            };
            shard.map.remove(&key);
            shard.counters.evictions += 1;
            self.bound_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_graph::generators;

    fn graph(n: usize) -> Arc<GraphDb> {
        Arc::new(generators::cycle_graph(n, "a"))
    }

    fn registry_with_statement() -> (StatementRegistry, Alphabet) {
        let reg = StatementRegistry::new(2);
        let al = Alphabet::from_labels(["a"]);
        reg.prepare("q", "Ans(x, y) <- (x, p, y), L(p) = a a", &al).unwrap();
        (reg, al)
    }

    #[test]
    fn prepare_parses_and_rejects_bad_text() {
        let (reg, al) = registry_with_statement();
        assert_eq!(reg.len(), 1);
        assert!(reg.statement("q").is_some());
        assert!(reg.prepare("bad", "Ans(x <- ", &al).is_err());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn bound_cache_hits_and_invalidates_on_reload() {
        let (reg, al) = registry_with_statement();
        let g = graph(4);
        let (p1, hit1) = reg.bound("q", "g", &g).unwrap();
        assert!(!hit1);
        let (p2, hit2) = reg.bound("q", "g", &g).unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(reg.stats(), RegistryStats { hits: 1, misses: 1, evictions: 0, prepared: 1 });

        // Same catalog name, fresh graph handle: the stale entry must miss.
        let g2 = graph(5);
        let (_, hit3) = reg.bound("q", "g", &g2).unwrap();
        assert!(!hit3);

        // Re-registering the statement invalidates its bindings too.
        reg.prepare("q", "Ans(x, y) <- (x, p, y), L(p) = a", &al).unwrap();
        let (_, hit4) = reg.bound("q", "g", &g2).unwrap();
        assert!(!hit4);
        assert!(reg.bound("q", "g", &g2).unwrap().1);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let (reg, _) = registry_with_statement();
        let (ga, gb, gc) = (graph(3), graph(4), graph(5));
        reg.bound("q", "a", &ga).unwrap();
        reg.bound("q", "b", &gb).unwrap();
        reg.bound("q", "a", &ga).unwrap(); // refresh `a`
        reg.bound("q", "c", &gc).unwrap(); // evicts `b`, the LRU entry
        assert_eq!(reg.bound_len(), 2);
        assert_eq!(reg.stats().evictions, 1);
        assert!(reg.bound("q", "a", &ga).unwrap().1, "recently used entry must survive");
        assert!(!reg.bound("q", "b", &gb).unwrap().1, "evicted entry must rebind");
    }

    /// The sharding satellite's fairness guarantee: eviction is
    /// global-LRU-approximate, so a *hot* statement (one with a recent
    /// stamp) is never evicted while cold entries remain anywhere — no
    /// matter which shards the keys hash into.
    #[test]
    fn hot_statement_survives_cold_churn_across_shards() {
        let reg = StatementRegistry::new(4);
        let al = Alphabet::from_labels(["a"]);
        reg.prepare("hot", "Ans(x, y) <- (x, p, y), L(p) = a", &al).unwrap();
        reg.prepare("cold", "Ans(x, y) <- (x, p, y), L(p) = a a", &al).unwrap();
        let g = graph(4);
        reg.bound("hot", "g", &g).unwrap();

        // Churn: three dozen cold bindings (distinct graph names → spread
        // over shards), with the hot plan touched between every one so its
        // stamp is always the newest.
        for i in 0..36 {
            let gname = format!("cold-{i}");
            reg.bound("cold", &gname, &g).unwrap();
            let (_, hot_hit) = reg.bound("hot", "g", &g).unwrap();
            assert!(hot_hit, "hot statement evicted after {i} cold insertions");
        }
        assert!(reg.bound_len() <= 4, "capacity must hold: {}", reg.bound_len());
        assert!(reg.stats().evictions >= 32, "cold churn must evict cold entries");
        // And still hot at the end.
        assert!(reg.bound("hot", "g", &g).unwrap().1);
    }

    /// Per-shard counters aggregate exactly to the registry totals.
    #[test]
    fn shard_counters_aggregate_to_stats() {
        let (reg, _) = registry_with_statement();
        let g = graph(4);
        for i in 0..8 {
            let gname = format!("g{i}");
            reg.bound("q", &gname, &g).unwrap();
            reg.bound("q", &gname, &g).unwrap();
        }
        let total = reg.stats();
        let per_shard = reg.shard_counters();
        assert_eq!(per_shard.len(), SHARD_COUNT);
        assert_eq!(per_shard.iter().map(|c| c.hits).sum::<u64>(), total.hits);
        assert_eq!(per_shard.iter().map(|c| c.misses).sum::<u64>(), total.misses);
        assert_eq!(per_shard.iter().map(|c| c.evictions).sum::<u64>(), total.evictions);
        assert!(total.hits >= 8 && total.misses >= 8);
    }

    /// Concurrent binds over disjoint statements must not lose updates or
    /// break the capacity bound (the sharded paths run genuinely in
    /// parallel here).
    #[test]
    fn concurrent_binds_respect_capacity() {
        let reg = Arc::new(StatementRegistry::new(8));
        let al = Alphabet::from_labels(["a"]);
        for i in 0..4 {
            reg.prepare(&format!("s{i}"), "Ans(x, y) <- (x, p, y), L(p) = a", &al).unwrap();
        }
        let g = graph(4);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let reg = Arc::clone(&reg);
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let gname = format!("g{}", (t * 25 + i) % 12);
                        reg.bound(&format!("s{t}"), &gname, &g).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(reg.bound_len() <= 8, "capacity must bound the cache: {}", reg.bound_len());
        let s = reg.stats();
        assert_eq!(s.hits + s.misses, 100, "every bind is either a hit or a miss");
    }

    #[test]
    fn install_warm_seeds_a_hit_without_compiling() {
        let (reg, _) = registry_with_statement();
        let g = graph(4);
        let stmt = reg.statement("q").unwrap();
        let plan =
            Arc::new(BoundStatement::bind(Arc::clone(&stmt.prepared), Arc::clone(&g)).unwrap());
        reg.install_warm("warm", &stmt.text, "g", Arc::clone(&plan));

        // The very first `bound` call must hit the seeded plan.
        let (p, hit) = reg.bound("warm", "g", &g).unwrap();
        assert!(hit, "warm-installed plan must hit on first use");
        assert!(Arc::ptr_eq(&p, &plan));
        assert_eq!(reg.stats().prepared, 1, "install_warm compiles nothing");
        assert_eq!(reg.stats().misses, 0);

        // Installing respects the LRU bound (capacity 2 here).
        let (ga, gb) = (graph(3), graph(5));
        reg.bound("q", "a", &ga).unwrap();
        let plan_b =
            Arc::new(BoundStatement::bind(Arc::clone(&stmt.prepared), Arc::clone(&gb)).unwrap());
        reg.install_warm("warm2", &stmt.text, "b", plan_b);
        assert_eq!(reg.bound_len(), 2, "install_warm must evict at capacity");
    }

    #[test]
    fn unknown_statement_errors() {
        let (reg, _) = registry_with_statement();
        assert!(reg.bound("nope", "g", &graph(3)).is_err());
    }
}
