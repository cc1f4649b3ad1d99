//! The prepared-query pipeline: graph-independent compilation
//! ([`PreparedQuery`]) split from cheap per-graph binding ([`BoundPlan`]).
//!
//! Evaluation is a three-phase pipeline:
//!
//! 1. **parse** — [`crate::parse`] turns textual ECRPQ syntax into an
//!    [`Ecrpq`] (queries can also be built programmatically);
//! 2. **compile** — [`PreparedQuery::prepare`] validates the query, numbers
//!    its variables densely, intersects per-path unary constraints, and owns
//!    the lazily compiled simulation automata of every relation automaton
//!    (shared with the [`RegularRelation`] memoization in `ecrpq_automata`,
//!    so the same relation compiles once per process, not once per query or
//!    per evaluation);
//! 3. **bind/execute** — [`PreparedQuery::bind`] resolves everything that
//!    depends on one concrete graph (named-node constants, the symbol
//!    translation into the merged alphabet, label-count coefficients for
//!    graph-only labels — never a copy of the edges) into a [`BoundPlan`],
//!    whose [`run_rows`](BoundPlan::run_rows) (and the collecting `run*`
//!    conveniences over it) executes the query.
//!
//! `prepare(&query)?` once, then `.bind(&graph)?.run(&config)` as many times
//! as there are graphs: nothing automaton-shaped is recompiled on reuse, and
//! the cache-hit counters of [`EvalStats`] prove it.

use crate::error::QueryError;
use crate::eval::plan::reach::GraphEdges;
use crate::eval::plan::{self, Engine, EvalStats, Mode, ReachRel};
use crate::eval::search::SearchProblem;
use crate::eval::{Answer, EvalConfig, PlannerMode};
use crate::query::{CountTarget, Ecrpq, QLinearConstraint};
use ecrpq_automata::alphabet::{Alphabet, Symbol, TupleSym};
use ecrpq_automata::dfa;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::relation::RegularRelation;
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_automata::sim::CompactNfa;
use ecrpq_graph::{GraphDb, NodeId, Path};
use ecrpq_util::trace::{self as qtrace, Trace};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Largest direct-indexed code table (entries). Below this the tuple-code
/// lookup is one array index; above it, a hash probe.
const CODE_MAP_DENSE_LIMIT: u64 = 1 << 16;

/// Tuple-letter code → dense symbol id. The search performs one lookup per
/// (move, relation); a direct-indexed table avoids hashing entirely whenever
/// `(|A|+2)^arity` is small, which covers every realistic query alphabet.
#[derive(Clone, Debug)]
enum CodeMap {
    Dense(Vec<u32>),
    Hash(HashMap<u64, u32>),
}

impl CodeMap {
    /// The dense symbol id of an encoded tuple letter, if the relation reads
    /// that letter at all.
    #[inline]
    fn get(&self, code: u64) -> Option<u32> {
        match self {
            CodeMap::Dense(table) => {
                table.get(code as usize).copied().filter(|&sid| sid != u32::MAX)
            }
            CodeMap::Hash(map) => map.get(&code).copied(),
        }
    }
}

/// The base-`base` digit of one convolution-letter component: `0` for `⊥`,
/// `index + 1` for a query-alphabet symbol (index < `alphabet_len`), and the
/// reserved top digit `base - 1` for any *foreign* symbol — a graph label
/// the query alphabet does not know (merged index ≥ `alphabet_len`). No
/// relation built over the query alphabet can read a foreign symbol, so all
/// foreign labels collapse into one digit that [`RelSim::build`] never emits
/// into a [`CodeMap`].
#[inline]
fn letter_digit(letter: Option<Symbol>, alphabet_len: usize, base: u64) -> u64 {
    match letter {
        None => 0,
        Some(s) if (s.0 as usize) < alphabet_len => s.0 as u64 + 1,
        Some(_) => base - 1,
    }
}

/// Encodes the convolution letter a relation reads (the projection of the
/// per-variable letters onto its tapes) as one `u64`, for lookup in a
/// [`CodeMap`]. `alphabet_len`/`base` must be the prepared query's
/// [`PreparedQuery::alphabet_len`]/[`PreparedQuery::code_base`], and
/// `base^tapes.len()` must fit in `u64`.
#[inline]
fn tuple_code(tapes: &[usize], letters: &[Option<Symbol>], alphabet_len: usize, base: u64) -> u64 {
    let mut code = 0u64;
    let mut mult = 1u64;
    for &t in tapes {
        code += letter_digit(letters[t], alphabet_len, base) * mult;
        mult *= base;
    }
    code
}

/// The compiled successor lists of one relation automaton plus the
/// tuple-letter code index used to avoid materializing `TupleSym` values in
/// the hot loop. The compiled automaton comes from the [`RegularRelation`]
/// memoization; only the (cheap) code index is built per prepared query.
#[derive(Clone, Debug)]
pub(crate) struct RelSim {
    /// The compiled automaton (shared with every other prepared query using
    /// this relation).
    pub sim: Arc<CompactNfa<TupleSym>>,
    /// Encoded tuple letter → dense symbol id of `sim`; `None` when the
    /// code of a letter, `code_base^arity`, does not fit in `u64`.
    codes: Option<CodeMap>,
}

impl RelSim {
    fn build(rel: &RegularRelation, arity: usize, code_base: u64) -> RelSim {
        let sim = rel.compiled_sim();
        let pairs = sim.symbols().iter().enumerate().map(|(sid, t)| {
            let mut code = 0u64;
            let mut mult = 1u64;
            for i in 0..t.arity() {
                // Exact digits: every relation symbol index is < base - 1 by
                // the radix computation in `prepare`, so the foreign digit
                // can never appear in the code map.
                let digit = match t.get(i) {
                    None => 0,
                    Some(s) => {
                        debug_assert!((s.0 as u64) < code_base - 1);
                        s.0 as u64 + 1
                    }
                };
                code += digit * mult;
                mult *= code_base;
            }
            (code, sid as u32)
        });
        let codes = match code_base.checked_pow(arity as u32) {
            None => None,
            Some(space) if space <= CODE_MAP_DENSE_LIMIT => {
                let mut table = vec![u32::MAX; space as usize];
                for (code, sid) in pairs {
                    table[code as usize] = sid;
                }
                Some(CodeMap::Dense(table))
            }
            Some(_) => Some(CodeMap::Hash(pairs.collect())),
        };
        RelSim { sim, codes }
    }

    /// The symbol id of the convolution letter the relation on `tapes`
    /// reads when the path variables read `letters` (merged-alphabet
    /// symbols, `None` = `⊥`), or `None` if the relation never reads it.
    /// `alphabet_len`/`code_base` are the prepared query's. A relation whose
    /// letter codes would overflow `u64` looks the letter itself up.
    #[inline]
    pub fn letter_id(
        &self,
        tapes: &[usize],
        letters: &[Option<Symbol>],
        alphabet_len: usize,
        code_base: u64,
    ) -> Option<u32> {
        if let Some(codes) = &self.codes {
            return codes.get(tuple_code(tapes, letters, alphabet_len, code_base));
        }
        // A foreign label reads as no relation symbol, as its digit would.
        if tapes.iter().any(|&t| letters[t].is_some_and(|s| s.index() >= alphabet_len)) {
            return None;
        }
        self.sim.sym_id(&TupleSym::new(tapes.iter().map(|&t| letters[t]).collect()))
    }
}

/// A compiled relation atom: the synchronous automaton plus the indices of
/// the path variables on its tapes, with lazily compiled simulation tables
/// so plain-CRPQ evaluation (which never runs the convolution search) pays
/// nothing for them.
#[derive(Debug)]
pub(crate) struct CompiledRel {
    /// The relation (shared automaton handle + its compiled-artifact caches).
    pub rel: RegularRelation,
    /// The synchronous automaton (same handle the relation owns).
    pub nfa: Arc<Nfa<TupleSym>>,
    /// Path-variable indices on the relation's tapes.
    pub tapes: Vec<usize>,
    /// Per-prepared-query code index over the shared tables.
    sim_cell: OnceLock<RelSim>,
}

impl CompiledRel {
    /// The compiled automaton and its code index (built on first call, then
    /// cached both here and — for the compiled automaton — inside the
    /// relation).
    pub fn sim(&self, code_base: u64) -> &RelSim {
        self.sim_cell.get_or_init(|| RelSim::build(&self.rel, self.tapes.len(), code_base))
    }
}

/// The per-path-variable unary constraint: the intersection of the arity-1
/// language atoms and per-tape projections of every relation atom that
/// mentions the variable, plus a handle to its compiled simulation tables.
#[derive(Debug)]
pub(crate) struct UnaryPlan {
    /// The constraint automaton over Σ.
    pub nfa: Arc<Nfa<Symbol>>,
    /// `Some((relation index, tape))` when the constraint is exactly one
    /// relation-tape projection: the compiled tables then come from (and are
    /// cached in) the relation itself, shared across queries.
    pub(crate) source: Option<(usize, usize)>,
    /// Compiled tables for intersected constraints (owned by this query).
    pub(crate) sim_cell: OnceLock<Arc<CompactNfa<Symbol>>>,
    /// Compiled tables of the *reversed* constraint automaton, for
    /// planner-chosen reverse BFS (owned by this query — the relation cache
    /// only stores forward projections).
    pub(crate) rev_sim_cell: OnceLock<Arc<CompactNfa<Symbol>>>,
}

/// A compiled linear-constraint row: per path variable, a length coefficient
/// and per-symbol coefficients (over the query alphabet; coefficients on
/// graph-only labels are resolved at bind time).
#[derive(Clone, Debug)]
pub(crate) struct CounterRow {
    pub length_coeff: Vec<i64>,
    pub symbol_coeff: Vec<Vec<i64>>,
    pub op: CmpOp,
    pub constant: i64,
}

impl CounterRow {
    /// The contribution of one step of path variable `var` reading `label`.
    pub fn step_delta(&self, var: usize, label: Symbol) -> i64 {
        let mut d = self.length_coeff[var];
        if let Some(per_sym) = self.symbol_coeff.get(var) {
            if let Some(&c) = per_sym.get(label.index()) {
                d += c;
            }
        }
        d
    }

    /// Whether a final accumulated value satisfies the row.
    pub fn satisfied(&self, value: i64) -> bool {
        match self.op {
            CmpOp::Ge => value >= self.constant,
            CmpOp::Eq => value == self.constant,
            CmpOp::Le => value <= self.constant,
        }
    }
}

/// A label-count term whose label is not in the query alphabet; resolved
/// against the merged alphabet when the query is bound to a graph.
#[derive(Clone, Debug)]
struct DeferredCountTerm {
    row: usize,
    path: usize,
    label: String,
    coeff: i64,
}

/// A query compiled independently of any graph: validated, densely numbered,
/// with shared handles to every automaton artifact evaluation needs.
///
/// Prepare once, then [`bind`](Self::bind) to each graph. All `eval_*` entry
/// points of [`crate::eval`] are thin wrappers over this type.
#[derive(Debug)]
pub struct PreparedQuery {
    /// The validated query (kept for [`std::fmt::Display`], `Q_len`
    /// evaluation, and the reference engine).
    pub(crate) query: Ecrpq,
    /// Distinct node variables (dense indices).
    pub(crate) node_vars: Vec<String>,
    /// Distinct path variables (dense indices).
    pub(crate) path_vars: Vec<String>,
    /// Per path variable: node-variable indices of its endpoints (from the
    /// first relational atom that binds it).
    pub(crate) path_from: Vec<usize>,
    pub(crate) path_to: Vec<usize>,
    /// Additional endpoint constraints from repeated relational atoms:
    /// `(path var, from node var, to node var)`.
    pub(crate) extra_endpoints: Vec<(usize, usize, usize)>,
    /// Compiled relation atoms (arity ≥ 1).
    pub(crate) relations: Vec<CompiledRel>,
    /// Per path variable: its unary constraint, or `None` if unconstrained.
    pub(crate) unary: Vec<Option<UnaryPlan>>,
    /// Head node variables as indices into `node_vars`.
    pub(crate) head_node_idx: Vec<usize>,
    /// Head path variables as indices into `path_vars`.
    pub(crate) head_path_idx: Vec<usize>,
    /// Node variables bound to named graph constants (names resolved to
    /// `NodeId`s at bind time).
    pub(crate) constants: Vec<(usize, String)>,
    /// Compiled linear constraints (empty for plain queries).
    pub(crate) counters: Vec<CounterRow>,
    /// Label-count terms whose label the query alphabet does not contain.
    deferred_counts: Vec<DeferredCountTerm>,
    /// Size of the query alphabet (merged indices at or past this are
    /// foreign graph labels).
    pub(crate) alphabet_len: usize,
    /// Radix of the tuple-letter codes of [`RelSim::letter_id`]: digit 0 is
    /// `⊥`, digits `1..=|Σ|` are query symbols, and the top digit is
    /// reserved for foreign graph labels.
    pub(crate) code_base: u64,
    /// True if verification by convolution search is unnecessary (plain CRPQ
    /// without repetition or counters).
    pub(crate) relaxation_is_exact: bool,
    /// Per node variable: total unary-automaton states over incident path
    /// variables — the selectivity hint the join-order heuristic combines
    /// with variable connectivity.
    pub(crate) var_weight: Vec<usize>,
}

impl PreparedQuery {
    /// Compiles `query` into its graph-independent prepared form.
    pub fn prepare(query: &Ecrpq) -> Result<PreparedQuery, QueryError> {
        query.validate()?;

        // Dense numbering of node and path variables.
        let node_vars: Vec<String> = query.node_vars().into_iter().map(|v| v.0).collect();
        let node_index: HashMap<&str, usize> =
            node_vars.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();
        let path_vars: Vec<String> = query.path_vars().into_iter().map(|v| v.0).collect();
        let path_index: HashMap<&str, usize> =
            path_vars.iter().enumerate().map(|(i, v)| (v.as_str(), i)).collect();

        // Endpoints per path variable; extra atoms binding the same path
        // variable become additional endpoint constraints.
        let mut path_from = vec![usize::MAX; path_vars.len()];
        let mut path_to = vec![usize::MAX; path_vars.len()];
        let mut extra_endpoints = Vec::new();
        for a in &query.atoms {
            let p = path_index[a.path.name()];
            let f = node_index[a.from.name()];
            let t = node_index[a.to.name()];
            if path_from[p] == usize::MAX {
                path_from[p] = f;
                path_to[p] = t;
            } else {
                extra_endpoints.push((p, f, t));
            }
        }

        // Tuple-code radix: one digit per query symbol plus `⊥` and the
        // reserved foreign digit. Relations pre-built against a larger
        // alphabet widen the radix so their symbols keep unique digits (the
        // max-symbol scan is memoized inside each relation).
        let mut max_sym = query.alphabet.len() as u64;
        for r in &query.relations {
            if let Some(s) = r.relation.max_symbol_index() {
                max_sym = max_sym.max(s as u64 + 1);
            }
        }
        let code_base = max_sym + 2;

        // Compile relation atoms. The simulation automata are compiled
        // lazily (see [`CompiledRel::sim`]).
        let relations: Vec<CompiledRel> = query
            .relations
            .iter()
            .map(|r| CompiledRel {
                rel: r.relation.clone(),
                nfa: r.relation.nfa_shared(),
                tapes: r.paths.iter().map(|p| path_index[p.name()]).collect(),
                sim_cell: OnceLock::new(),
            })
            .collect();

        // Per-path unary constraint: intersection of projections of every
        // relation atom that mentions the path variable. A single-projection
        // constraint keeps a pointer back to its relation so the compiled
        // tables come from the relation's shared cache.
        let mut sources: Vec<Vec<(usize, usize)>> = vec![Vec::new(); path_vars.len()];
        for (j, r) in query.relations.iter().enumerate() {
            for (tape, p) in r.paths.iter().enumerate() {
                sources[path_index[p.name()]].push((j, tape));
            }
        }
        let unary: Vec<Option<UnaryPlan>> = sources
            .iter()
            .map(|srcs| match srcs.as_slice() {
                [] => None,
                &[(j, tape)] => Some(UnaryPlan {
                    nfa: query.relations[j].relation.project(tape),
                    source: Some((j, tape)),
                    sim_cell: OnceLock::new(),
                    rev_sim_cell: OnceLock::new(),
                }),
                srcs => {
                    let mut acc: Option<Arc<Nfa<Symbol>>> = None;
                    for &(j, tape) in srcs {
                        let proj = query.relations[j].relation.project(tape);
                        acc = Some(match acc {
                            None => proj,
                            Some(existing) => Arc::new(existing.intersect(&proj).trim()),
                        });
                    }
                    Some(UnaryPlan {
                        nfa: acc.expect("non-empty source list"),
                        source: None,
                        sim_cell: OnceLock::new(),
                        rev_sim_cell: OnceLock::new(),
                    })
                }
            })
            .collect();

        // Node constants stay names until a graph is bound.
        let constants: Vec<(usize, String)> = query
            .node_constants
            .iter()
            .map(|(v, name)| (node_index[v.name()], name.clone()))
            .collect();

        // Compile linear constraints over the query alphabet; terms counting
        // labels the query alphabet lacks are deferred to bind time.
        let (counters, deferred_counts) = compile_counters(
            &query.linear_constraints,
            &path_index,
            path_vars.len(),
            &query.alphabet,
        );

        let head_node_idx = query.head_nodes.iter().map(|v| node_index[v.name()]).collect();
        let head_path_idx = query.head_paths.iter().map(|p| path_index[p.name()]).collect();

        let has_wide_relation = relations.iter().any(|r| r.tapes.len() >= 2);
        let relaxation_is_exact =
            !has_wide_relation && !query.has_relational_repetition() && counters.is_empty();

        // Join-order hint: per node variable, the total state count of the
        // unary automata on its incident path variables (smaller automata
        // tend to give sparser reachability relations).
        let mut var_weight = vec![0usize; node_vars.len()];
        for p in 0..path_vars.len() {
            let w = unary[p].as_ref().map_or(0, |u| u.nfa.num_states());
            var_weight[path_from[p]] += w;
            var_weight[path_to[p]] += w;
        }

        Ok(PreparedQuery {
            alphabet_len: query.alphabet.len(),
            query: query.clone(),
            node_vars,
            path_vars,
            path_from,
            path_to,
            extra_endpoints,
            relations,
            unary,
            head_node_idx,
            head_path_idx,
            constants,
            counters,
            deferred_counts,
            code_base,
            relaxation_is_exact,
            var_weight,
        })
    }

    /// The query this plan was prepared from.
    pub fn query(&self) -> &Ecrpq {
        &self.query
    }

    /// True when no two candidate assignments can share a head tuple, so a
    /// nodes-mode run needs no head-dedup set. The candidate join yields
    /// pairwise-distinct assignments (every variable iterates distinct
    /// values), so when the head's node variables cover every node variable
    /// not pinned to one of `constants`, distinct assignments have distinct
    /// heads. A property of the query and its bound constants, never of the
    /// graph.
    pub(crate) fn heads_are_distinct(&self, constants: &[(usize, NodeId)]) -> bool {
        (0..self.node_vars.len())
            .all(|v| self.head_node_idx.contains(&v) || constants.iter().any(|&(c, _)| c == v))
    }

    /// Binds the prepared query to one graph: resolves named-node constants,
    /// builds the symbol translation, and resolves deferred label-count
    /// coefficients. No automaton is compiled and no edge is copied — the
    /// run reads the graph's own adjacency — so binding costs O(labels +
    /// constants), independent of the graph size.
    pub fn bind<'a>(&'a self, graph: &'a GraphDb) -> Result<BoundPlan<'a>, QueryError> {
        self.bind_with(graph, PlannerMode::default())
    }

    /// [`bind`](Self::bind) with an explicit planner mode. The mode travels
    /// with the bound plan: every `run*`, `check`, `explain`, and
    /// `answer_automaton` call on it plans with it.
    pub fn bind_with<'a>(
        &'a self,
        graph: &'a GraphDb,
        planner: PlannerMode,
    ) -> Result<BoundPlan<'a>, QueryError> {
        Ok(BoundPlan { pq: self, graph, art: Cow::Owned(self.bind_artifacts(graph)?), planner })
    }

    /// Computes everything [`bind`](Self::bind) resolves against one concrete
    /// graph, as an owned value. [`BoundStatement`] stores this next to
    /// shared handles of the query and graph so a bound plan can be cached
    /// and shared across threads.
    fn bind_artifacts(&self, graph: &GraphDb) -> Result<BindArtifacts, QueryError> {
        // Merge the query alphabet with the graph alphabet (appending any
        // labels the query does not know, so relation symbols stay valid).
        let mut merged_alphabet = self.query.alphabet.clone();
        let graph_symbol_map: Vec<Symbol> =
            graph.alphabet().iter().map(|(_, label)| merged_alphabet.intern(label)).collect();

        // Resolve node constants.
        let mut constants = Vec::new();
        for (v, name) in &self.constants {
            let node = graph
                .node_by_name(name)
                .ok_or_else(|| QueryError::UnknownGraphNode(name.clone()))?;
            constants.push((*v, node));
        }

        // Resolve deferred label-count coefficients against the merged
        // alphabet (a constraint may count a label only the graph knows).
        let mut counters = self.counters.clone();
        for d in &self.deferred_counts {
            let sym = merged_alphabet.symbol(&d.label).ok_or_else(|| {
                QueryError::InvalidLinearConstraint(format!(
                    "label `{}` is not in the query or graph alphabet",
                    d.label
                ))
            })?;
            let row = &mut counters[d.row].symbol_coeff[d.path];
            if row.len() <= sym.index() {
                row.resize(sym.index() + 1, 0);
            }
            row[sym.index()] += d.coeff;
        }

        Ok(BindArtifacts {
            merged_len: merged_alphabet.len(),
            graph_symbol_map,
            constants,
            counters,
        })
    }

    /// Convenience: bind and run in one call (node answers only).
    pub fn run(
        &self,
        graph: &GraphDb,
        config: &EvalConfig,
    ) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        self.bind(graph)?.run(config)
    }

    /// Forces compilation of every automaton artifact a forward run can use
    /// (relation automata and unary constraints). Returns the cache
    /// counters: `(hits, misses)` — on a warmed query the second call
    /// reports only hits. Used by the benchmark harness to measure compile
    /// cost as an explicit, separate phase.
    pub fn warm(&self) -> (u64, u64) {
        let mut stats = EvalStats::default();
        self.force_rel_sims(&mut stats);
        for p in 0..self.path_vars.len() {
            if self.unary[p].is_some() {
                let _ = self.unary_sim(p, &mut stats);
            }
        }
        (stats.sim_cache_hits, stats.sim_cache_misses)
    }

    /// [`warm`](Self::warm) plus the *reversed* unary tables: forces every
    /// compiled artifact any run of this query could ever touch, including
    /// the reverse-BFS tables the planner may pick at evaluation time. The
    /// snapshot sidecar reader calls this on every statement it re-prepares,
    /// so the first run after a warm reopen reports zero `sim_cache_misses`
    /// no matter which direction the planner chooses.
    pub fn warm_full(&self) -> (u64, u64) {
        let (hits, misses) = self.warm();
        let mut stats = EvalStats::default();
        for p in 0..self.path_vars.len() {
            if self.unary[p].is_some() {
                let _ = self.unary_rev_sim(p, &mut stats);
            }
        }
        (hits + stats.sim_cache_hits, misses + stats.sim_cache_misses)
    }

    /// Compiles (or fetches) the successor lists of every relation automaton,
    /// recording cache hits/misses. A hit means the expensive table
    /// compilation was skipped because a previous run (or another query
    /// sharing the relation) already built it.
    pub(crate) fn force_rel_sims(&self, stats: &mut EvalStats) {
        for r in &self.relations {
            if r.rel.compiled_sim_is_cached() {
                stats.sim_cache_hits += 1;
            } else {
                stats.sim_cache_misses += 1;
            }
            let _ = r.sim(self.code_base);
        }
    }

    /// The compiled tables of path variable `p`'s unary constraint,
    /// recording a cache hit or miss. Single-projection constraints share
    /// the relation's cache (closing the `plan::reachability` recompilation
    /// item); intersected constraints cache inside this prepared query.
    pub(crate) fn unary_sim(&self, p: usize, stats: &mut EvalStats) -> Arc<CompactNfa<Symbol>> {
        let u = self.unary[p].as_ref().expect("unary_sim on an unconstrained path variable");
        match u.source {
            Some((j, tape)) => {
                let rel = &self.relations[j].rel;
                if rel.projection_sim_is_cached(tape) {
                    stats.sim_cache_hits += 1;
                } else {
                    stats.sim_cache_misses += 1;
                }
                rel.projection_sim(tape)
            }
            None => {
                if u.sim_cell.get().is_some() {
                    stats.sim_cache_hits += 1;
                } else {
                    stats.sim_cache_misses += 1;
                }
                Arc::clone(
                    u.sim_cell.get_or_init(|| {
                        Arc::new(CompactNfa::compile(&dfa::reduce_for_tables(&u.nfa)))
                    }),
                )
            }
        }
    }

    /// The compiled tables of the *reversed* unary constraint of path
    /// variable `p`, for planner-chosen reverse BFS, recording a cache hit
    /// or miss. Always cached inside this prepared query (the relation cache
    /// only holds forward projections).
    pub(crate) fn unary_rev_sim(&self, p: usize, stats: &mut EvalStats) -> Arc<CompactNfa<Symbol>> {
        let u = self.unary[p].as_ref().expect("unary_rev_sim on an unconstrained path variable");
        if u.rev_sim_cell.get().is_some() {
            stats.sim_cache_hits += 1;
        } else {
            stats.sim_cache_misses += 1;
        }
        Arc::clone(u.rev_sim_cell.get_or_init(|| {
            Arc::new(CompactNfa::compile(&dfa::reduce_for_tables(&u.nfa.reverse())))
        }))
    }
}

fn compile_counters(
    constraints: &[QLinearConstraint],
    path_index: &HashMap<&str, usize>,
    num_paths: usize,
    alphabet: &Alphabet,
) -> (Vec<CounterRow>, Vec<DeferredCountTerm>) {
    let mut rows = Vec::new();
    let mut deferred = Vec::new();
    for (ri, c) in constraints.iter().enumerate() {
        let mut length_coeff = vec![0i64; num_paths];
        let mut symbol_coeff = vec![vec![0i64; alphabet.len()]; num_paths];
        for (coef, target) in &c.terms {
            match target {
                CountTarget::Length(p) => {
                    let pi = path_index[p.name()];
                    length_coeff[pi] += coef;
                }
                CountTarget::LabelCount(p, label) => {
                    let pi = path_index[p.name()];
                    match alphabet.symbol(label) {
                        Some(sym) => symbol_coeff[pi][sym.index()] += coef,
                        None => deferred.push(DeferredCountTerm {
                            row: ri,
                            path: pi,
                            label: label.clone(),
                            coeff: *coef,
                        }),
                    }
                }
            }
        }
        rows.push(CounterRow { length_coeff, symbol_coeff, op: c.op, constant: c.constant });
    }
    (rows, deferred)
}

/// Everything [`PreparedQuery::bind`] resolves against one concrete graph:
/// the symbol translation into the merged alphabet (one entry per graph
/// label), resolved node constants, and counters with bind-time labels.
///
/// Owned and clonable so a bound plan can outlive a borrow: [`BoundPlan`]
/// holds it as [`Cow`] (owned when freshly bound, borrowed when viewed
/// through a cached [`BoundStatement`]).
#[derive(Clone, Debug)]
pub(crate) struct BindArtifacts {
    /// Size of the merged (query + graph) alphabet.
    pub(crate) merged_len: usize,
    /// Translation from graph symbols to merged-alphabet symbols.
    pub(crate) graph_symbol_map: Vec<Symbol>,
    /// Node variables bound to resolved graph constants.
    pub(crate) constants: Vec<(usize, NodeId)>,
    /// Linear-constraint rows with bind-time labels resolved.
    pub(crate) counters: Vec<CounterRow>,
}

/// A prepared query bound to one concrete graph: symbol translation, resolved
/// node constants, and resolved counters.
///
/// Binding performs no automaton compilation and copies no edge; `run*`
/// reads the graph's own adjacency and reuses everything the
/// [`PreparedQuery`] (and the relations inside it) already compiled.
#[derive(Debug)]
pub struct BoundPlan<'a> {
    pub(crate) pq: &'a PreparedQuery,
    pub(crate) graph: &'a GraphDb,
    /// The bind-time data: owned for a fresh [`PreparedQuery::bind`],
    /// borrowed (no copy) when viewed through a [`BoundStatement`].
    art: Cow<'a, BindArtifacts>,
    /// Join-order / BFS-direction planning mode.
    planner: PlannerMode,
}

impl<'a> BoundPlan<'a> {
    /// The prepared query this plan binds.
    pub fn prepared(&self) -> &'a PreparedQuery {
        self.pq
    }

    /// The graph this plan is bound to.
    pub fn graph(&self) -> &'a GraphDb {
        self.graph
    }

    /// Node variables bound to resolved graph constants.
    pub(crate) fn constants(&self) -> &[(usize, NodeId)] {
        &self.art.constants
    }

    /// Linear-constraint rows with bind-time labels resolved.
    pub(crate) fn counters(&self) -> &[CounterRow] {
        &self.art.counters
    }

    /// Size of the merged (query + graph) alphabet.
    pub(crate) fn merged_len(&self) -> usize {
        self.art.merged_len
    }

    /// Translates a graph edge label into the merged alphabet.
    #[inline]
    pub(crate) fn translate(&self, graph_label: Symbol) -> Symbol {
        self.art.graph_symbol_map[graph_label.index()]
    }

    /// One direction of the graph's adjacency — out-edges, or with `IN` the
    /// in-edges — with the symbol map into the merged alphabet, as the
    /// reachability kernel's successor source.
    pub(crate) fn edges<const IN: bool>(&self) -> GraphEdges<'_, IN> {
        GraphEdges { graph: self.graph, symbol_map: &self.art.graph_symbol_map }
    }

    /// Derives the step bound used when counters are present.
    pub(crate) fn step_bound(&self, config: &EvalConfig) -> usize {
        if let Some(b) = config.max_convolution_steps {
            return b;
        }
        let rel_states: usize = self.pq.relations.iter().map(|r| r.nfa.num_states()).sum();
        (self.graph.num_nodes() * (1 + rel_states)).clamp(64, 100_000)
    }

    /// Runs the query: full answers with witness paths when the head has
    /// path variables, node tuples otherwise.
    pub fn run(&self, config: &EvalConfig) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        let mode = if self.pq.head_path_idx.is_empty() { Mode::Nodes } else { Mode::Paths };
        self.run_mode(mode, config, None)
    }

    /// Runs the query, returning the set of head-node tuples and statistics.
    pub fn run_nodes(
        &self,
        config: &EvalConfig,
    ) -> Result<(Vec<Vec<NodeId>>, EvalStats), QueryError> {
        let mut rows = Vec::new();
        let stats =
            self.run_rows(Mode::Nodes, config, None, |nodes, _| rows.push(nodes.to_vec()))?;
        Ok((rows, stats))
    }

    /// Runs the query as a Boolean query (stops at the first answer).
    pub fn run_boolean(&self, config: &EvalConfig) -> Result<(bool, EvalStats), QueryError> {
        let mut holds = false;
        let stats = self.run_rows(Mode::Boolean, config, None, |_, _| holds = true)?;
        Ok((holds, stats))
    }

    /// Runs the query, materializing up to `config.answer_limit` answers
    /// with explicit witness paths for the head path variables.
    pub fn run_with_paths(
        &self,
        config: &EvalConfig,
    ) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        self.run_mode(Mode::Paths, config, None)
    }

    /// The `ECRPQ-EVAL` membership check: does `(nodes, paths)` belong to
    /// `Q(G)`?
    pub fn check(
        &self,
        nodes: &[NodeId],
        paths: &[Path],
        config: &EvalConfig,
    ) -> Result<bool, QueryError> {
        self.check_engine(nodes, paths, config, Engine::Dense)
    }

    /// [`run_rows`](Self::run_rows) with its rows collected as [`Answer`]s,
    /// in the order the sink receives them.
    pub fn run_mode(
        &self,
        mode: Mode,
        config: &EvalConfig,
        trace: Option<&mut Trace>,
    ) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        self.collect_engine(mode, config, Engine::Dense, trace)
    }

    /// The one run entry point: evaluates the plan in `mode` and hands each
    /// answer row to `sink` the moment it is verified, so a caller that
    /// writes rows out (the server's reply text) never holds them all.
    ///
    /// The sink receives the row's head-node values and, in [`Mode::Paths`],
    /// one witness path per head path variable (an empty slice otherwise),
    /// both borrowed for the call only. Rows come in join order — the
    /// planner's variable order, candidates in ascending node order within
    /// it — which is the order of [`run_mode`](Self::run_mode)'s answers.
    /// [`Mode::Nodes`] hands each head tuple once. [`Mode::Paths`] hands
    /// each `(nodes, paths)` row once and stops after `config.answer_limit`
    /// rows; with a limit of 0 it verifies no candidate. [`Mode::Boolean`]
    /// stops at the first row, so its sink is called at most once. On an
    /// error (a candidate or search-state budget exceeded) the run stops and
    /// returns it; rows handed over before it were verified answers, but the
    /// set is incomplete, so a caller discards what it built from them.
    ///
    /// With a `trace`, the run records per-phase wall-clock spans into it —
    /// `plan`, per-atom `reach:<var>` BFS, sim-table `compile`, product
    /// `search` (the sink runs inside it) — with measured pair counts next
    /// to the planner's estimates as span attributes: the engine half of
    /// the server's EXPLAIN ANALYZE-style `trace` op. Without one it pays
    /// one `Option` check per phase and no clock reads.
    pub fn run_rows(
        &self,
        mode: Mode,
        config: &EvalConfig,
        trace: Option<&mut Trace>,
        mut sink: impl FnMut(&[NodeId], &[Path]),
    ) -> Result<EvalStats, QueryError> {
        self.run_engine(mode, config, Engine::Dense, trace, &mut sink)
    }

    /// [`run_mode`](Self::run_mode) with an explicit verification engine.
    pub(crate) fn collect_engine(
        &self,
        mode: Mode,
        config: &EvalConfig,
        engine: Engine,
        trace: Option<&mut Trace>,
    ) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        let mut answers = Vec::new();
        let stats = self.run_engine(mode, config, engine, trace, &mut |nodes, paths| {
            answers.push(Answer { nodes: nodes.to_vec(), paths: paths.to_vec() })
        })?;
        Ok((answers, stats))
    }

    /// [`run_rows`](Self::run_rows) with an explicit verification engine
    /// (the reference engine reruns the same pipeline for the differential
    /// suites).
    ///
    /// A nodes-mode run deduplicates heads — a candidate whose head was
    /// already answered is skipped before verification — only when two
    /// candidates can share a head, i.e. unless
    /// [`PreparedQuery::heads_are_distinct`] holds. The reference engine
    /// always keeps the set, so the differential suites check the skip.
    ///
    /// The sink is a trait object, so this loop is compiled once, not once
    /// per caller's closure.
    pub(crate) fn run_engine(
        &self,
        mode: Mode,
        config: &EvalConfig,
        engine: Engine,
        mut trace: Option<&mut Trace>,
        sink: &mut dyn FnMut(&[NodeId], &[Path]),
    ) -> Result<EvalStats, QueryError> {
        let pq = self.pq;
        let mut stats = EvalStats::default();

        // Plan, then compute the reachability relation of every path
        // variable with its planned direction and pin.
        let sp = qtrace::begin_span(&mut trace, "plan");
        let qplan = plan::cost::plan_query(self, self.constants(), self.planner);
        qtrace::span_attr(&mut trace, sp, "atoms", pq.path_vars.len() as u64);
        qtrace::end_span(&mut trace, sp);
        let reach: Vec<ReachRel> = (0..pq.path_vars.len())
            .map(|p| {
                let sp = trace.as_mut().map(|t| t.begin(&format!("reach:{}", pq.path_vars[p])));
                let r = plan::reachability_planned(self, p, &qplan.atoms[p], &mut stats);
                if trace.is_some() {
                    let pairs: u64 = r.fwd.iter().map(|row| row.len() as u64).sum();
                    qtrace::span_attr(&mut trace, sp, "pairs", pairs);
                    let est = qplan.atoms[p].est_pairs;
                    if est.is_finite() {
                        qtrace::span_attr(&mut trace, sp, "est_pairs", est.max(0.0) as u64);
                    }
                }
                qtrace::end_span(&mut trace, sp);
                r
            })
            .collect();

        let needs_search = !pq.relaxation_is_exact || mode == Mode::Paths;
        if needs_search && engine == Engine::Dense {
            let sp = qtrace::begin_span(&mut trace, "compile");
            let before = (stats.sim_cache_hits, stats.sim_cache_misses);
            pq.force_rel_sims(&mut stats);
            qtrace::span_attr(&mut trace, sp, "sim_cache_hits", stats.sim_cache_hits - before.0);
            qtrace::span_attr(
                &mut trace,
                sp,
                "sim_cache_misses",
                stats.sim_cache_misses - before.1,
            );
            qtrace::end_span(&mut trace, sp);
        }
        let step_bound =
            if self.counters().is_empty() { None } else { Some(self.step_bound(config)) };

        let dedup_heads = mode == Mode::Nodes
            && (engine == Engine::Reference || !pq.heads_are_distinct(self.constants()));
        let mut seen_heads: Option<HashSet<Vec<NodeId>>> = dedup_heads.then(HashSet::new);
        let mut seen_answers: HashSet<(Vec<NodeId>, Vec<Path>)> = HashSet::new();
        let mut head: Vec<NodeId> = Vec::with_capacity(pq.head_node_idx.len());
        let mut rows: usize = 0;
        let mut error: Option<QueryError> = None;
        let mut verified: u64 = 0;
        let mut search_states: u64 = 0;

        let order = Some(qplan.order.as_slice());
        let search_span = qtrace::begin_span(&mut trace, "search");
        // A paths run capped at zero rows has nothing to verify.
        if mode != Mode::Paths || config.answer_limit > 0 {
            plan::enumerate_candidates(
                pq,
                self.graph.num_nodes(),
                self.constants(),
                &reach,
                order,
                config,
                &mut stats,
                |sigma| {
                    head.clear();
                    head.extend(pq.head_node_idx.iter().map(|&i| sigma[i]));
                    if seen_heads.as_ref().is_some_and(|seen| seen.contains(head.as_slice())) {
                        return true;
                    }
                    // Verify the candidate with the convolution search (the
                    // relaxation is exact for plain CRPQs in node modes).
                    let mut paths = Vec::new();
                    if needs_search {
                        let problem = SearchProblem {
                            plan: self,
                            sigma: sigma.to_vec(),
                            pinned: vec![None; pq.path_vars.len()],
                            want_witness: mode == Mode::Paths,
                            step_bound,
                            max_states: config.max_search_states,
                        };
                        let out = match engine.run(&problem) {
                            Ok(out) => out,
                            Err(e) => {
                                error = Some(e);
                                return false;
                            }
                        };
                        search_states += out.states_visited;
                        if !out.accepted {
                            return true;
                        }
                        if let Some(w) = out.witness {
                            paths = pq.head_path_idx.iter().map(|&p| w[p].clone()).collect();
                        }
                    }
                    verified += 1;
                    if let Some(seen) = &mut seen_heads {
                        seen.insert(head.clone());
                    }
                    if mode == Mode::Paths {
                        let row = (head.clone(), paths);
                        if !seen_answers.contains(&row) {
                            sink(&row.0, &row.1);
                            rows += 1;
                            seen_answers.insert(row);
                        }
                        return rows < config.answer_limit;
                    }
                    sink(&head, &paths);
                    rows += 1;
                    mode != Mode::Boolean
                },
            )?;
        }

        stats.verified = verified;
        stats.search_states = search_states;
        qtrace::span_attr(&mut trace, search_span, "candidates", stats.candidates);
        qtrace::span_attr(&mut trace, search_span, "verified", stats.verified);
        qtrace::span_attr(&mut trace, search_span, "search_states", stats.search_states);
        qtrace::span_attr(&mut trace, search_span, "answers", rows as u64);
        qtrace::end_span(&mut trace, search_span);
        if let Some(e) = error {
            return Err(e);
        }
        Ok(stats)
    }

    /// The membership check with an explicit verification engine.
    pub(crate) fn check_engine(
        &self,
        nodes: &[NodeId],
        paths: &[Path],
        config: &EvalConfig,
        engine: Engine,
    ) -> Result<bool, QueryError> {
        let pq = self.pq;
        if nodes.len() != pq.head_node_idx.len() || paths.len() != pq.head_path_idx.len() {
            return Err(QueryError::Unsupported(format!(
                "membership check expects {} node values and {} path values",
                pq.head_node_idx.len(),
                pq.head_path_idx.len()
            )));
        }
        for p in paths {
            if !p.is_valid_in(self.graph) {
                return Ok(false);
            }
        }

        // Pin head paths and derive node-variable bindings from them and
        // from the head node values / constants.
        let mut pinned: Vec<Option<&Path>> = vec![None; pq.path_vars.len()];
        let mut forced: HashMap<usize, NodeId> = HashMap::new();
        let force = |var: usize, value: NodeId, forced: &mut HashMap<usize, NodeId>| -> bool {
            match forced.get(&var) {
                Some(&v) => v == value,
                None => {
                    forced.insert(var, value);
                    true
                }
            }
        };
        for (i, &pi) in pq.head_path_idx.iter().enumerate() {
            pinned[pi] = Some(&paths[i]);
            if !force(pq.path_from[pi], paths[i].start(), &mut forced)
                || !force(pq.path_to[pi], paths[i].end(), &mut forced)
            {
                return Ok(false);
            }
        }
        for (i, &vi) in pq.head_node_idx.iter().enumerate() {
            if !force(vi, nodes[i], &mut forced) {
                return Ok(false);
            }
        }
        for &(vi, n) in self.constants() {
            if !force(vi, n, &mut forced) {
                return Ok(false);
            }
        }
        // Extra endpoint constraints from repeated atoms must also agree.
        for &(p, f, t) in &pq.extra_endpoints {
            if let Some(path) = pinned[p] {
                if !force(f, path.start(), &mut forced) || !force(t, path.end(), &mut forced) {
                    return Ok(false);
                }
            }
        }

        // Reachability for the remaining join, with forced values taking the
        // place of the plan's constants. The forced list is sorted by
        // variable index so the planner (and thus the plan) is deterministic
        // regardless of `HashMap` iteration order.
        let mut stats = EvalStats::default();
        let mut forced: Vec<(usize, NodeId)> = forced.into_iter().collect();
        forced.sort_unstable();
        let qplan = plan::cost::plan_query(self, &forced, self.planner);
        let reach: Vec<ReachRel> = (0..pq.path_vars.len())
            .map(|p| plan::reachability_planned(self, p, &qplan.atoms[p], &mut stats))
            .collect();

        let step_bound =
            if self.counters().is_empty() { None } else { Some(self.step_bound(config)) };
        let mut found = false;
        let mut error: Option<QueryError> = None;
        let order = Some(qplan.order.as_slice());
        let n = self.graph.num_nodes();
        plan::enumerate_candidates(pq, n, &forced, &reach, order, config, &mut stats, |sigma| {
            let problem = SearchProblem {
                plan: self,
                sigma: sigma.to_vec(),
                pinned: pinned.clone(),
                want_witness: false,
                step_bound,
                max_states: config.max_search_states,
            };
            match engine.run(&problem) {
                Ok(out) => {
                    found = out.accepted;
                    !found
                }
                Err(e) => {
                    error = Some(e);
                    false
                }
            }
        })?;
        if let Some(e) = error {
            return Err(e);
        }
        Ok(found)
    }

    /// Runs the query in node mode and reports the plan next to what it
    /// actually cost: the chosen join order, per-atom BFS direction and pin,
    /// estimated *and* measured reachability cardinalities, and the run's
    /// evaluation statistics. The measured cardinalities are the `pairs`
    /// attributes of that one run's `reach:<var>` spans (one span per path
    /// variable, in variable order).
    pub fn explain(&self, config: &EvalConfig) -> Result<crate::eval::ExplainReport, QueryError> {
        let pq = self.pq;
        let qplan = plan::cost::plan_query(self, self.constants(), self.planner);
        let mut trace = Trace::new();
        let mut answers: u64 = 0;
        let run_stats =
            self.run_rows(Mode::Nodes, config, Some(&mut trace), |_, _| answers += 1)?;
        let actual_pairs: Vec<u64> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("reach:"))
            .map(|s| s.attrs.iter().find(|(k, _)| k == "pairs").map_or(0, |&(_, v)| v))
            .collect();
        let atoms = (0..pq.path_vars.len())
            .map(|p| crate::eval::ExplainAtom {
                path_var: pq.path_vars[p].clone(),
                from_var: pq.node_vars[pq.path_from[p]].clone(),
                to_var: pq.node_vars[pq.path_to[p]].clone(),
                direction: qplan.atoms[p].dir,
                pinned: qplan.atoms[p].pin.map(|c| match self.graph.node_name(c) {
                    Some(name) => name.to_string(),
                    None => format!("#{}", c.0),
                }),
                automaton_states: pq.unary[p].as_ref().map_or(0, |u| u.nfa.num_states()),
                est_pairs: qplan.atoms[p].est_pairs,
                est_fwd_frontier: qplan.atoms[p].est_fwd_frontier,
                est_rev_frontier: qplan.atoms[p].est_rev_frontier,
                actual_pairs: actual_pairs[p],
            })
            .collect();
        Ok(crate::eval::ExplainReport {
            planner: self.planner,
            join_order: qplan.order.iter().map(|&v| pq.node_vars[v].clone()).collect(),
            atoms,
            stats: run_stats,
            answers,
        })
    }
}

/// A prepared query bound to a graph, with both held by shared ownership:
/// the self-contained (`'static`, `Send + Sync`) form of [`BoundPlan`].
///
/// Where [`PreparedQuery::bind`] borrows the query and the graph — right for
/// one-shot evaluation — a `BoundStatement` owns `Arc` handles to both plus
/// the bind artifacts, so it can be cached (e.g. in a server's
/// prepared-statement registry keyed by `(statement, graph)`) and executed
/// concurrently from many threads. [`plan`](Self::plan) yields a view-only
/// [`BoundPlan`] without copying any bind artifact.
#[derive(Debug)]
pub struct BoundStatement {
    pq: Arc<PreparedQuery>,
    graph: Arc<GraphDb>,
    pub(crate) art: BindArtifacts,
}

impl BoundStatement {
    /// Binds `pq` to `graph`, keeping shared handles to both. Exactly
    /// [`PreparedQuery::bind`] otherwise: no automaton compilation, no edge
    /// copied, cost O(labels + constants).
    pub fn bind(pq: Arc<PreparedQuery>, graph: Arc<GraphDb>) -> Result<BoundStatement, QueryError> {
        let art = pq.bind_artifacts(&graph)?;
        Ok(BoundStatement { pq, graph, art })
    }

    /// The prepared query this statement binds.
    pub fn prepared(&self) -> &Arc<PreparedQuery> {
        &self.pq
    }

    /// The graph this statement is bound to.
    pub fn graph(&self) -> &Arc<GraphDb> {
        &self.graph
    }

    /// A borrowed [`BoundPlan`] over the cached bind artifacts (no copying;
    /// all `run*`/`check` entry points hang off the returned plan).
    pub fn plan(&self) -> BoundPlan<'_> {
        self.plan_with(PlannerMode::default())
    }

    /// A borrowed [`BoundPlan`] planning with `planner` — how a server
    /// applies a per-request planner mode to a cached statement without
    /// rebinding it.
    pub fn plan_with(&self, planner: PlannerMode) -> BoundPlan<'_> {
        BoundPlan { pq: &self.pq, graph: &self.graph, art: Cow::Borrowed(&self.art), planner }
    }

    /// Convenience for [`BoundPlan::run`].
    pub fn run(&self, config: &EvalConfig) -> Result<(Vec<Answer>, EvalStats), QueryError> {
        self.plan().run(config)
    }

    /// Convenience for [`BoundPlan::run_nodes`].
    pub fn run_nodes(
        &self,
        config: &EvalConfig,
    ) -> Result<(Vec<Vec<NodeId>>, EvalStats), QueryError> {
        self.plan().run_nodes(config)
    }

    /// Convenience for [`BoundPlan::run_boolean`].
    pub fn run_boolean(&self, config: &EvalConfig) -> Result<(bool, EvalStats), QueryError> {
        self.plan().run_boolean(config)
    }

    /// Convenience for [`BoundPlan::check`].
    pub fn check(
        &self,
        nodes: &[NodeId],
        paths: &[Path],
        config: &EvalConfig,
    ) -> Result<bool, QueryError> {
        self.plan().check(nodes, paths, config)
    }
}

/// Compile-time guarantee behind shared statements: everything a run reads —
/// the compiled simulation tables, the per-query code indexes, and the bound
/// plan itself — is shareable across threads by reference, so one cached
/// statement serves concurrent requests. The tables are written once (behind
/// `Arc`/`OnceLock`) and only ever read afterwards; if mutable or
/// thread-local state sneaks into any of these types, this stops compiling
/// before a data race can exist.
const _: fn() = || {
    fn assert_sync_send<T: Sync + Send>() {}
    #[allow(clippy::extra_unused_lifetimes)] // 'a is used, but only in the body
    fn assert_for_any_lifetime<'a>() {
        assert_sync_send::<BoundPlan<'a>>();
        assert_sync_send::<&'a RelSim>();
    }
    let _ = assert_for_any_lifetime;
    assert_sync_send::<RelSim>();
    assert_sync_send::<CompactNfa<TupleSym>>();
    assert_sync_send::<CompactNfa<Symbol>>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ecrpq_automata::builtin;
    use ecrpq_graph::{generators, GraphBuilder};

    fn same_length_query(al: &Alphabet) -> Ecrpq {
        Ecrpq::builder(al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "a+")
            .relation(builtin::equal_length(al), &["p1", "p2"])
            .build()
            .unwrap()
    }

    #[test]
    fn prepare_once_run_many_reuses_compiled_automata() {
        let g1 = generators::cycle_graph(4, "a");
        let g2 = generators::cycle_graph(5, "a");
        let al = g1.alphabet().clone();
        let q = same_length_query(&al);
        let cfg = EvalConfig::default();

        let pq = PreparedQuery::prepare(&q).unwrap();
        let (a1, s1) = pq.bind(&g1).unwrap().run_nodes(&cfg).unwrap();
        assert!(!a1.is_empty());
        assert!(s1.sim_cache_misses > 0, "first run must compile: {s1:?}");

        // Re-running on a fresh graph skips automaton compilation entirely.
        let (a2, s2) = pq.bind(&g2).unwrap().run_nodes(&cfg).unwrap();
        assert!(!a2.is_empty());
        assert_eq!(s2.sim_cache_misses, 0, "reuse must not recompile: {s2:?}");
        assert!(s2.sim_cache_hits > 0, "reuse must hit the caches: {s2:?}");
    }

    #[test]
    fn warm_compiles_everything_once() {
        let al = Alphabet::from_labels(["a"]);
        let q = same_length_query(&al);
        let pq = PreparedQuery::prepare(&q).unwrap();
        let (h0, m0) = pq.warm();
        assert!(m0 > 0, "cold warm() must compile something");
        let (h1, m1) = pq.warm();
        assert_eq!(m1, 0, "second warm() must be all hits");
        assert_eq!(h1, h0 + m0);
    }

    #[test]
    fn traced_run_records_phase_spans_and_matches_untraced() {
        let g = generators::cycle_graph(6, "a");
        let al = g.alphabet().clone();
        let q = same_length_query(&al);
        let cfg = EvalConfig::default();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let plan = pq.bind(&g).unwrap();
        let (plain, _) = plan.run_nodes(&cfg).unwrap();

        let mut trace = Trace::new();
        let (traced, stats) = plan.run_mode(Mode::Nodes, &cfg, Some(&mut trace)).unwrap();
        let traced: Vec<Vec<NodeId>> = traced.into_iter().map(|a| a.nodes).collect();
        let mut plain = plain;
        let mut traced = traced;
        plain.sort();
        traced.sort();
        assert_eq!(plain, traced, "tracing must not change answers");

        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"plan"), "spans: {names:?}");
        assert!(names.contains(&"reach:p1"), "spans: {names:?}");
        assert!(names.contains(&"reach:p2"), "spans: {names:?}");
        assert!(names.contains(&"search"), "spans: {names:?}");
        // Spans are monotonically ordered and all closed.
        for w in trace.spans.windows(2) {
            assert!(w[1].start_ns >= w[0].start_ns);
        }
        assert!(trace.spans.iter().all(|s| s.dur_ns > 0));
        // The search span carries the run's counters as attributes.
        let search = trace.spans.iter().find(|s| s.name == "search").unwrap();
        let attr = |k: &str| search.attrs.iter().find(|(a, _)| a == k).map(|(_, v)| *v);
        assert_eq!(attr("candidates"), Some(stats.candidates));
        assert_eq!(attr("verified"), Some(stats.verified));
    }

    #[test]
    fn prepared_agrees_with_one_shot_eval() {
        let g = generators::random_graph(18, 2.0, &["a", "b"], 5);
        let al = g.alphabet().clone();
        let q = same_length_query(&al);
        let cfg = EvalConfig::default();
        let mut oneshot = crate::eval::eval_nodes(&q, &g, &cfg).unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let (mut prepared, _) = pq.bind(&g).unwrap().run_nodes(&cfg).unwrap();
        oneshot.sort();
        prepared.sort();
        assert_eq!(oneshot, prepared);
    }

    #[test]
    fn bind_resolves_constants_per_graph() {
        let mut g1 = GraphBuilder::default();
        let a1 = g1.add_named_node("start");
        let b1 = g1.add_named_node("end");
        g1.add_edge_labeled(a1, "a", b1);
        let g1 = g1.build();
        let al = g1.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["y"])
            .atom("x", "p", "y")
            .language("p", "a")
            .bind_node("x", "start")
            .build()
            .unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let cfg = EvalConfig::default();
        let (ans, _) = pq.bind(&g1).unwrap().run_nodes(&cfg).unwrap();
        assert_eq!(ans, vec![vec![b1]]);
        // A graph without the named node fails at bind time.
        let g2 = generators::cycle_graph(3, "a");
        assert!(matches!(pq.bind(&g2), Err(QueryError::UnknownGraphNode(_))));
    }

    #[test]
    fn bound_statement_matches_borrowed_bind_and_shares_across_threads() {
        let g = Arc::new(generators::random_graph(18, 2.0, &["a", "b"], 5));
        let al = g.alphabet().clone();
        let q = same_length_query(&al);
        let cfg = EvalConfig::default();
        let pq = Arc::new(PreparedQuery::prepare(&q).unwrap());

        let mut borrowed = pq.bind(&g).unwrap().run_nodes(&cfg).unwrap().0;
        borrowed.sort();

        let stmt = Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(&g)).unwrap());
        // Warm once so the threads below only report cache hits.
        let (mut owned, _) = stmt.run_nodes(&cfg).unwrap();
        owned.sort();
        assert_eq!(borrowed, owned);

        // The same cached statement evaluates concurrently from many threads
        // with identical answers and zero recompilation.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stmt = Arc::clone(&stmt);
                let cfg = cfg.clone();
                std::thread::spawn(move || {
                    let (mut ans, stats) = stmt.run_nodes(&cfg).unwrap();
                    ans.sort();
                    (ans, stats)
                })
            })
            .collect();
        for h in handles {
            let (ans, stats) = h.join().unwrap();
            assert_eq!(ans, borrowed);
            assert_eq!(stats.sim_cache_misses, 0, "cached statement must not recompile");
        }
    }

    /// The head-dedup cases: (query, whether its heads are provably
    /// distinct). Over the `v0…` graph of [`dedup_graph`].
    pub(crate) const DEDUP_CASES: [(&str, bool); 4] = [
        // The head covers every node variable: the set is skipped.
        ("Ans(x, y) <- (x, p, y), L(p) = a (a|b)*", true),
        // A repeated head variable leaves `y` uncovered: kept.
        ("Ans(x, x) <- (x, p, y), L(p) = a (a|b)*", false),
        // A projection: kept.
        ("Ans(x) <- (x, p, y), L(p) = a (a|b)*", false),
        // The only non-head variable is pinned to a constant: skipped.
        ("Ans(y, z) <- (x, p, y), (y, q, z), L(p) = a, L(q) = b*, x = :v0", true),
    ];

    /// A seeded random graph over named nodes `v0…v11`, labels `a`/`b`.
    pub(crate) fn dedup_graph() -> GraphDb {
        let mut rng = ecrpq_graph::prng::SplitMix64::seed_from_u64(11);
        let mut text = String::from("v0 a v1\n");
        for _ in 0..30 {
            let (f, t) = (rng.gen_index(12), rng.gen_index(12));
            let l = ["a", "b"][rng.gen_index(2)];
            text.push_str(&format!("v{f} {l} v{t}\n"));
        }
        GraphDb::from_edge_list(&text).unwrap()
    }

    #[test]
    fn head_dedup_is_skipped_exactly_when_heads_are_distinct() {
        let g = dedup_graph();
        let cfg = EvalConfig::default();
        for (text, distinct) in DEDUP_CASES {
            let q = crate::parse::parse_query(text, g.alphabet()).unwrap();
            let pq = PreparedQuery::prepare(&q).unwrap();
            let plan = pq.bind(&g).unwrap();
            assert_eq!(pq.heads_are_distinct(plan.constants()), distinct, "{text}");
            // The reference engine always deduplicates: answers in the same
            // order, the same candidates and verified counts.
            let (dense, ds) = plan.run_mode(Mode::Nodes, &cfg, None).unwrap();
            let (refr, rs) =
                plan.collect_engine(Mode::Nodes, &cfg, Engine::Reference, None).unwrap();
            let dense: Vec<Vec<NodeId>> = dense.into_iter().map(|a| a.nodes).collect();
            let refr: Vec<Vec<NodeId>> = refr.into_iter().map(|a| a.nodes).collect();
            assert!(!dense.is_empty(), "{text}");
            assert_eq!(dense, refr, "{text}");
            assert_eq!((ds.candidates, ds.verified), (rs.candidates, rs.verified), "{text}");
            // Kept sets matter here: the join yields duplicate heads.
            assert_eq!(ds.candidates > ds.verified, !distinct, "{text}: {ds:?}");
        }
    }

    /// The sink corpus: a CRPQ, ECRPQs with `el` and `edit_le_1`, linear
    /// constraints, and a projection that repeats heads (so nodes mode keeps
    /// its head-dedup set). Path variables sit in the head, so paths mode
    /// hands over witnesses.
    const SINK_CASES: [&str; 5] = [
        "Ans(x, y, p) <- (x, p, y), L(p) = a (a|b)*",
        "Ans(x, y, p, q) <- (x, p, z), (z, q, y), L(p) = a+, R(p, q) = el",
        "Ans(x, p, q) <- (x, p, y), (y, q, z), L(p) = a b?, R(p, q) = edit_le_1",
        "Ans(x, y, p) <- (x, p, y), len(p) >= 2, count(a, p) <= 1",
        "Ans(x) <- (x, p, y), L(p) = a (a|b)*",
    ];

    /// Every row [`BoundPlan::run_rows`] hands over, collected as answers.
    fn sunk(plan: &BoundPlan<'_>, mode: Mode, cfg: &EvalConfig) -> (Vec<Answer>, EvalStats) {
        let mut rows = Vec::new();
        let stats = plan
            .run_rows(mode, cfg, None, |nodes, paths| {
                rows.push(Answer { nodes: nodes.to_vec(), paths: paths.to_vec() })
            })
            .unwrap();
        (rows, stats)
    }

    #[test]
    fn the_sink_and_the_collecting_wrappers_agree() {
        let cfg = EvalConfig { max_search_states: 200_000, ..EvalConfig::default() };
        for seed in 0..4 {
            let g = generators::random_graph(7, 1.8, &["a", "b"], seed);
            for text in SINK_CASES {
                let what = format!("seed {seed}: {text}");
                let q = crate::parse::parse_query(text, g.alphabet()).unwrap();
                let pq = PreparedQuery::prepare(&q).unwrap();
                let plan = pq.bind(&g).unwrap();
                // One run compiles what this binding needs, so every later
                // run reports the same cache hits.
                plan.run_with_paths(&cfg).unwrap();
                for mode in [Mode::Nodes, Mode::Paths, Mode::Boolean] {
                    let (rows, stats) = sunk(&plan, mode, &cfg);
                    let (answers, collected) = plan.run_mode(mode, &cfg, None).unwrap();
                    assert_eq!(rows, answers, "{what} ({mode:?})");
                    assert_eq!(stats, collected, "{what} ({mode:?})");
                }
                // Nodes mode: one row per head, the rows `run_nodes` returns.
                let (rows, stats) = sunk(&plan, Mode::Nodes, &cfg);
                let nodes: Vec<Vec<NodeId>> = rows.iter().map(|a| a.nodes.clone()).collect();
                let distinct: HashSet<&Vec<NodeId>> = nodes.iter().collect();
                assert_eq!(distinct.len(), nodes.len(), "{what}: a head was handed over twice");
                assert_eq!(plan.run_nodes(&cfg).unwrap(), (nodes, stats), "{what}");
                if !pq.heads_are_distinct(plan.constants()) && !rows.is_empty() {
                    assert!(stats.candidates > stats.verified, "{what}: heads must repeat");
                }
                // Boolean mode: the sink is called at most once.
                let (first, _) = sunk(&plan, Mode::Boolean, &cfg);
                assert_eq!(first.len(), usize::from(!rows.is_empty()), "{what}");
                assert_eq!(plan.run_boolean(&cfg).unwrap().0, !rows.is_empty(), "{what}");
                // Paths mode truncates at the limit to a prefix of the full run.
                let (full, _) = sunk(&plan, Mode::Paths, &cfg);
                for limit in [1, 2] {
                    let capped = EvalConfig { answer_limit: limit, ..cfg.clone() };
                    let (rows, _) = sunk(&plan, Mode::Paths, &capped);
                    assert_eq!(rows, full[..limit.min(full.len())], "{what}: limit {limit}");
                }
            }
        }
    }

    #[test]
    fn a_zero_answer_limit_verifies_no_candidate() {
        let g = generators::cycle_graph(6, "a");
        let q = crate::parse::parse_query("Ans(x, y, p) <- (x, p, y), L(p) = a a", g.alphabet())
            .unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let plan = pq.bind(&g).unwrap();
        let cfg = EvalConfig { answer_limit: 0, ..EvalConfig::default() };
        let (answers, stats) = plan.run_with_paths(&cfg).unwrap();
        assert!(answers.is_empty(), "{answers:?}");
        assert_eq!((stats.candidates, stats.verified), (0, 0), "{stats:?}");
        let one = EvalConfig { answer_limit: 1, ..EvalConfig::default() };
        assert_eq!(plan.run_with_paths(&one).unwrap().0.len(), 1);
    }

    #[test]
    fn foreign_graph_labels_do_not_confuse_relations() {
        // Query alphabet {a}; the graph additionally has label `z`, which no
        // relation can read — paths through `z` edges must not satisfy the
        // equality relation, and unconstrained reachability must still work.
        let mut g = GraphBuilder::default();
        let n0 = g.add_named_node("n0");
        let n1 = g.add_named_node("n1");
        let n2 = g.add_named_node("n2");
        g.add_edge_labeled(n0, "a", n1);
        g.add_edge_labeled(n1, "a", n2);
        g.add_edge_labeled(n0, "z", n1); // foreign label
        let g = g.build();
        let al = Alphabet::from_labels(["a"]);
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .relation(builtin::equality(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig::default();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let (mut ans, _) = pq.bind(&g).unwrap().run_nodes(&cfg).unwrap();
        ans.sort();
        // aa split as a|a: (n0, n2) with midpoint n1; plus all the
        // empty-path answers (x = z = y).
        assert!(ans.contains(&vec![n0, n2]));
        // The z edge alone can never appear in an equality witness, because
        // `eq` does not read the foreign letter; but the unconstrained
        // relational part still sees it, so no panic / miscode may occur.
        let (refr, _) = crate::eval::reference::eval_nodes_with_stats(&q, &g, &cfg).unwrap();
        let mut refr = refr;
        refr.sort();
        assert_eq!(ans, refr);
    }
}
