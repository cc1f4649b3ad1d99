//! The prepared-statement registry: parse and compile each statement once,
//! and cache per-graph bound plans under an exact LRU bound.
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
//! LRU bound — re-running a statement on the same graph skips binding
//! entirely and reports a registry **hit**. The cache watches handle
//! identity: reloading a graph (or re-registering a statement) under the
//! same name makes the stale entry miss and rebind on next use.
//!
//! Statements, bound plans, the recency clock and the counters sit behind
//! one mutex. A request takes it once to find its statement and plan (and
//! once more to insert after a miss); binding and compiling run outside it.
//! An insert at capacity evicts the least-recently-used plan in the same
//! critical section, so the cache never holds more than its capacity.

use crate::ServerError;
use ecrpq::eval::{BoundStatement, PreparedQuery};
use ecrpq::parse_query;
use ecrpq_automata::Alphabet;
use ecrpq_graph::GraphDb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

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

/// One cached bound plan with its recency stamp.
#[derive(Debug)]
struct BoundEntry {
    plan: Arc<BoundStatement>,
    last_used: u64,
}

/// Everything the registry's lock guards.
#[derive(Debug, Default)]
struct State {
    statements: HashMap<String, Arc<Statement>>,
    bound: HashMap<(String, String), BoundEntry>,
    stats: RegistryStats,
    /// Recency clock: bumped on every hit and insert.
    tick: u64,
}

impl State {
    /// Registers `stmt`, dropping every cached binding of its name.
    fn replace_statement(&mut self, stmt: Arc<Statement>) {
        self.bound.retain(|(s, _), _| *s != stmt.name);
        self.statements.insert(stmt.name.clone(), stmt);
    }

    /// Inserts (or replaces) a bound plan. A fresh insert at capacity first
    /// evicts the least-recently-used entry.
    fn insert_bound(&mut self, key: (String, String), plan: Arc<BoundStatement>, capacity: usize) {
        self.tick += 1;
        let last_used = self.tick;
        if let Some(entry) = self.bound.get_mut(&key) {
            *entry = BoundEntry { plan, last_used };
            return;
        }
        if self.bound.len() >= capacity {
            let lru = self.bound.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                self.bound.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.bound.insert(key, BoundEntry { plan, last_used });
    }
}

/// A thread-safe statement registry with a bounded bound-plan cache.
#[derive(Debug)]
pub struct StatementRegistry {
    state: Mutex<State>,
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
        StatementRegistry { state: Mutex::default(), capacity: capacity.max(1) }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap()
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
        let mut state = self.state();
        state.stats.prepared += 1;
        state.replace_statement(Arc::clone(&stmt));
        Ok(stmt)
    }

    /// The statement registered under `name`.
    pub fn statement(&self, name: &str) -> Option<Arc<Statement>> {
        self.state().statements.get(name).cloned()
    }

    /// [`statement`](Self::statement), or the protocol's "unknown statement"
    /// error.
    pub fn require(&self, name: &str) -> Result<Arc<Statement>, ServerError> {
        self.statement(name).ok_or_else(|| unknown_statement(name))
    }

    /// Sorted `(name, text)` pairs of every registered statement.
    pub fn summaries(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> =
            self.state().statements.values().map(|s| (s.name.clone(), s.text.clone())).collect();
        out.sort();
        out
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.state().statements.len()
    }

    /// True if no statement is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of cached bound plans.
    pub fn bound_len(&self) -> usize {
        self.state().bound.len()
    }

    /// The cache and compile counters.
    pub fn stats(&self) -> RegistryStats {
        self.state().stats
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
        let mut state = self.state();
        state.replace_statement(stmt);
        state.insert_bound((name.to_string(), graph_name.to_string()), plan, self.capacity);
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
        let key = (name.to_string(), graph_name.to_string());
        let prepared = {
            let mut guard = self.state();
            let state = &mut *guard;
            let stmt = state.statements.get(name).ok_or_else(|| unknown_statement(name))?;
            if let Some(entry) = state.bound.get_mut(&key) {
                if Arc::ptr_eq(entry.plan.graph(), graph)
                    && Arc::ptr_eq(entry.plan.prepared(), &stmt.prepared)
                {
                    state.tick += 1;
                    entry.last_used = state.tick;
                    state.stats.hits += 1;
                    return Ok((Arc::clone(&entry.plan), true));
                }
            }
            Arc::clone(&stmt.prepared)
        };

        // Bind outside the lock: binding is cheap but linear in the graph,
        // and concurrent workers must not serialize on it.
        let plan =
            Arc::new(BoundStatement::bind(prepared, Arc::clone(graph)).map_err(ServerError::msg)?);
        let mut state = self.state();
        state.stats.misses += 1;
        state.insert_bound(key, Arc::clone(&plan), self.capacity);
        Ok((plan, false))
    }
}

fn unknown_statement(name: &str) -> ServerError {
    ServerError(format!("unknown statement `{name}`"))
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

    /// Eviction is LRU: a *hot* statement (one with a recent stamp) is
    /// never evicted while colder entries remain.
    #[test]
    fn hot_statement_survives_cold_churn() {
        let reg = StatementRegistry::new(4);
        let al = Alphabet::from_labels(["a"]);
        reg.prepare("hot", "Ans(x, y) <- (x, p, y), L(p) = a", &al).unwrap();
        reg.prepare("cold", "Ans(x, y) <- (x, p, y), L(p) = a a", &al).unwrap();
        let g = graph(4);
        reg.bound("hot", "g", &g).unwrap();

        // Churn: three dozen cold bindings (distinct graph names), with the
        // hot plan touched between every one so its stamp is always the
        // newest.
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

    /// Concurrent binds over disjoint statements must not lose updates or
    /// break the capacity bound — not even transiently: an insert at
    /// capacity evicts before it inserts, under the same lock, so a sampler
    /// running beside the binders never sees the cache over capacity.
    #[test]
    fn concurrent_binds_respect_capacity() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Arc::new(StatementRegistry::new(8));
        let al = Alphabet::from_labels(["a"]);
        for i in 0..4 {
            reg.prepare(&format!("s{i}"), "Ans(x, y) <- (x, p, y), L(p) = a", &al).unwrap();
        }
        let g = graph(4);
        let done = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (reg, done) = (Arc::clone(&reg), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut max = 0;
                while !done.load(Ordering::Relaxed) {
                    max = max.max(reg.bound_len());
                    std::thread::yield_now();
                }
                max
            })
        };
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
        done.store(true, Ordering::Relaxed);
        let sampled_max = sampler.join().unwrap();
        assert!(sampled_max <= 8, "the cache overshot its capacity: {sampled_max}");
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
