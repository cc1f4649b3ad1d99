//! The convolution search: verifying one candidate node assignment by
//! exploring the on-the-fly product of the padded graph power `G^m` with the
//! query's relation automata (Theorems 6.1 and 6.3).
//!
//! A search state records, for every path variable, either its current node
//! (and, for pinned paths, the position along the pinned path) or the fact
//! that its path has already ended, together with the current state sets of
//! all relation automata and, when linear constraints are present, the
//! accumulated value of each constraint row. A global step chooses one move
//! per still-active path variable — a real edge or "finish here" — with at
//! least one real edge overall (the all-`⊥` letter never occurs in a
//! convolution), advances every relation automaton on the projection of the
//! step onto its tapes, and updates the counters.
//!
//! This is the one production verification engine, for automata of any
//! size: a state is one flat row of `u64` words — one position word per path
//! variable, one word per relation automaton naming its current state set,
//! and one word per counter — interned into an arena of [`super::dense`].
//! The state sets are interned in one [`SetTable`] per relation, which the
//! caller keeps for a whole run: a relation step is a memo lookup, and only
//! a step taken for the first time in the run walks the precompiled
//! successor lists of [`CompactNfa`](ecrpq_automata::sim::CompactNfa). Set
//! words and sets correspond one-to-one, so two keys are equal exactly when
//! the states they encode are. The arena is the BFS queue — ids are handed
//! out in discovery order — and parent pointers hold `u32` state indices;
//! expansion reuses scratch buffers, so the hot loop allocates only when a
//! new set is interned. The classical cloned-state formulation is retained
//! in [`super::reference`] as the differential oracle of the test suites.

use crate::error::QueryError;
use crate::eval::dense::{odometer_next, Arena, Layout};
use crate::eval::prepared::{BoundPlan, RelSim};
use ecrpq_automata::alphabet::Symbol;
use ecrpq_automata::sim::SetTable;
use ecrpq_graph::{NodeId, Path};

/// One candidate-verification problem.
pub(crate) struct SearchProblem<'a> {
    /// The prepared query bound to the graph being searched.
    pub plan: &'a BoundPlan<'a>,
    /// Candidate assignment of the node variables.
    pub sigma: &'a [NodeId],
    /// Pinned paths per path variable (used by the membership check).
    pub pinned: &'a [Option<&'a Path>],
    /// Whether a witness (one path per path variable) should be reconstructed.
    pub want_witness: bool,
    /// Bound on the number of global steps (required when counters are
    /// present, since counter values make the state space infinite).
    pub step_bound: Option<usize>,
    /// Budget on distinct states visited.
    pub max_states: usize,
}

/// Result of a search.
pub(crate) struct SearchOutcome {
    /// Whether an accepting state was reached.
    pub accepted: bool,
    /// Number of distinct states visited.
    pub states_visited: u64,
    /// Witness paths per path variable (only when requested and accepted).
    pub witness: Option<Vec<Path>>,
}

/// The per-variable component of one global step (used for witness
/// reconstruction): `Some((graph label, target node))` for a real edge,
/// `None` for `⊥`.
pub(crate) type MoveVec = Vec<Option<(Symbol, NodeId)>>;

/// True if path variable `p`, currently at `node` after `step` pinned steps,
/// may end its path here.
pub(crate) fn finishable(problem: &SearchProblem<'_>, p: usize, node: NodeId, step: u32) -> bool {
    match problem.pinned[p] {
        Some(path) => step as usize == path.len(),
        None => node == problem.sigma[problem.plan.pq.path_to[p]],
    }
}

/// Position word of the search encoding: `Active { node, step }` →
/// `(node+1) << 32 | step`, `Done` → 0.
#[inline]
fn active_word(node: NodeId, step: u32) -> u64 {
    ((node.0 as u64 + 1) << 32) | step as u64
}

/// The current node of a position word, `None` for a finished path.
#[inline]
pub(crate) fn word_node(w: u64) -> Option<NodeId> {
    (w != 0).then(|| NodeId((w >> 32) as u32 - 1))
}

/// One option for one path variable within a global step.
#[derive(Clone, Copy)]
enum Option1 {
    Real { label: Symbol, to: NodeId, step: u32 },
    Finish,
    Pad,
}

/// The expansion engine: per-variable option lists, the odometer, the
/// scratch buffers of [`Expander::apply`], reused across states, and the
/// run's set tables. The successors of one state are always emitted in
/// odometer order, which fixes the arena's state numbering. The search and
/// the answer-automaton construction both expand with it.
pub(crate) struct Expander<'a, 'p> {
    problem: &'a SearchProblem<'p>,
    layout: &'a Layout,
    sims: &'a [&'a RelSim],
    options: Vec<Vec<Option1>>,
    choice: Vec<usize>,
    letters: Vec<Option<Symbol>>,
    next: Vec<u64>,
    tables: &'a mut [SetTable],
}

impl<'a, 'p> Expander<'a, 'p> {
    pub(crate) fn new(
        problem: &'a SearchProblem<'p>,
        layout: &'a Layout,
        sims: &'a [&'a RelSim],
        tables: &'a mut [SetTable],
    ) -> Self {
        let num_paths = layout.num_paths;
        Expander {
            problem,
            layout,
            sims,
            options: vec![Vec::new(); num_paths],
            choice: vec![0usize; num_paths],
            letters: vec![None; num_paths],
            next: vec![0u64; layout.words],
            tables,
        }
    }

    /// Emits every admissible global successor of the encoded state `cur` in
    /// odometer order: `emit(next_key, move)` (the move only materialized
    /// when a witness is wanted) returns `false` to stop early. States with
    /// a variable that can neither move nor finish emit nothing.
    pub(crate) fn expand(
        &mut self,
        cur: &[u64],
        mut emit: impl FnMut(&[u64], Option<MoveVec>) -> bool,
    ) {
        let problem = self.problem;
        let plan = problem.plan;
        let num_paths = self.layout.num_paths;

        // Per-variable options.
        for (p, &w) in cur.iter().enumerate().take(num_paths) {
            let opts = &mut self.options[p];
            opts.clear();
            if w == 0 {
                opts.push(Option1::Pad);
            } else {
                let node = NodeId((w >> 32) as u32 - 1);
                let step = w as u32;
                match problem.pinned[p] {
                    Some(path) => {
                        if (step as usize) < path.len() {
                            opts.push(Option1::Real {
                                label: path.label()[step as usize],
                                to: path.nodes()[step as usize + 1],
                                step: step + 1,
                            });
                        }
                    }
                    None => {
                        for &(label, to) in plan.graph.out_edges(node) {
                            opts.push(Option1::Real { label, to, step: 0 });
                        }
                    }
                }
                if finishable(problem, p, node, step) {
                    opts.push(Option1::Finish);
                }
            }
            if opts.is_empty() {
                return; // this variable can neither move nor finish
            }
        }

        // Cartesian product of the options (odometer), requiring at least
        // one real move.
        self.choice.fill(0);
        loop {
            let any_real = (0..num_paths)
                .any(|p| matches!(self.options[p][self.choice[p]], Option1::Real { .. }));
            if any_real && self.apply(cur) {
                let mv = problem.want_witness.then(|| {
                    (0..num_paths)
                        .map(|p| match self.options[p][self.choice[p]] {
                            Option1::Real { label, to, .. } => Some((label, to)),
                            Option1::Finish | Option1::Pad => None,
                        })
                        .collect()
                });
                if !emit(&self.next, mv) {
                    return;
                }
            }
            if !odometer_next(&mut self.choice, |i| self.options[i].len()) {
                return;
            }
        }
    }

    /// Applies the global move selected by `choice` to the encoded state
    /// `cur`, writing the successor into `next`. Returns `false` if some
    /// relation automaton has no matching transition (the move is a dead
    /// end).
    fn apply(&mut self, cur: &[u64]) -> bool {
        let plan = self.problem.plan;
        let (num_paths, cnt_off) = (self.layout.num_paths, self.layout.cnt_off);
        let chosen = |p: usize| self.options[p][self.choice[p]];
        for p in 0..num_paths {
            match chosen(p) {
                Option1::Real { label, to, step } => {
                    self.next[p] = active_word(to, step);
                    self.letters[p] = Some(plan.translate(label));
                }
                Option1::Finish | Option1::Pad => {
                    self.next[p] = 0;
                    self.letters[p] = None;
                }
            }
        }

        // Advance every relation automaton on the projection of the step.
        let pq = plan.pq;
        for (j, r) in pq.relations.iter().enumerate() {
            let w = num_paths + j;
            if r.tapes.iter().all(|&t| self.letters[t].is_none()) {
                // This relation's convolution has already ended; it does not
                // read ⊥-only letters.
                self.next[w] = cur[w];
                continue;
            }
            let rs = self.sims[j];
            let Some(sid) = rs.letter_id(&r.tapes, &self.letters, pq.alphabet_len, pq.code_base)
            else {
                return false; // letter not in the relation's alphabet
            };
            let Some(set) = self.tables[j].step(&rs.sim, cur[w] as u32, sid) else {
                return false;
            };
            self.next[w] = set.into();
        }

        // Update counters.
        for (i, row) in plan.counters().iter().enumerate() {
            let mut v = cur[cnt_off + i] as i64;
            for p in 0..num_paths {
                if let Option1::Real { label, .. } = chosen(p) {
                    v += row.step_delta(p, plan.translate(label));
                }
            }
            self.next[cnt_off + i] = v as u64;
        }
        true
    }
}

/// Consistency prechecks: pinned paths must connect the candidate
/// endpoints, and repeated relational atoms must agree. `Some(outcome)`
/// short-circuits the search with a rejection.
pub(crate) fn precheck(problem: &SearchProblem<'_>) -> Option<SearchOutcome> {
    let pq = problem.plan.pq;
    for p in 0..pq.path_vars.len() {
        if let Some(path) = problem.pinned[p] {
            if path.start() != problem.sigma[pq.path_from[p]]
                || path.end() != problem.sigma[pq.path_to[p]]
            {
                return Some(SearchOutcome { accepted: false, states_visited: 0, witness: None });
            }
        }
    }
    for &(p, f, t) in &pq.extra_endpoints {
        if problem.sigma[f] != problem.sigma[pq.path_from[p]]
            || problem.sigma[t] != problem.sigma[pq.path_to[p]]
        {
            return Some(SearchOutcome { accepted: false, states_visited: 0, witness: None });
        }
    }
    None
}

/// Starts one search: encodes its initial state, interning each relation's
/// initial set into `tables`. A run's tables are cleared here, between two
/// searches, once they hold more than `problem.max_states` entries (sets and
/// memo slots), so the state budget bounds them too.
pub(crate) fn initial_key(
    problem: &SearchProblem<'_>,
    layout: &Layout,
    sims: &[&RelSim],
    tables: &mut [SetTable],
) -> Vec<u64> {
    if tables.iter().map(SetTable::entries).sum::<usize>() > problem.max_states {
        tables.iter_mut().for_each(SetTable::clear);
    }
    let pq = problem.plan.pq;
    let mut initial = vec![0u64; layout.words];
    for (p, w) in initial.iter_mut().enumerate().take(layout.num_paths) {
        *w = active_word(problem.sigma[pq.path_from[p]], 0);
    }
    for (j, (rs, table)) in sims.iter().zip(tables).enumerate() {
        initial[layout.num_paths + j] = table.initial(&rs.sim).into();
    }
    // counters start at zero (already 0)
    initial
}

/// Runs the search breadth-first, intern-as-you-expand: the arena hands out
/// ids in discovery order, so it is the queue. A precheck rejection visits
/// no state; an initial state that already accepts counts as one visited
/// state with an empty witness. `tables` holds one [`SetTable`] per
/// relation of the query and serves every search of a run.
pub(crate) fn run(
    problem: &SearchProblem<'_>,
    tables: &mut [SetTable],
) -> Result<SearchOutcome, QueryError> {
    if let Some(outcome) = precheck(problem) {
        return Ok(outcome);
    }
    let pq = problem.plan.pq;
    let sims: Vec<&RelSim> = pq.relations.iter().map(|r| r.sim(pq.code_base)).collect();
    let layout = Layout::new(pq.path_vars.len(), sims.len(), problem.plan.counters().len());
    let initial = initial_key(problem, &layout, &sims, tables);
    if accepts_key(problem, &layout, &initial) {
        let witness = problem.want_witness.then(|| reconstruct(problem, &[], &[], 0));
        return Ok(SearchOutcome { accepted: true, states_visited: 1, witness });
    }
    let mut arena = Arena::new(layout.words);
    arena.intern(&initial);
    // Parent pointers and incoming moves, kept only when a witness must be
    // reconstructed (indexed by arena id; the initial state's entry is the
    // sentinel).
    let (mut parents, mut moves): (Vec<u32>, Vec<MoveVec>) = if problem.want_witness {
        (vec![u32::MAX], vec![Vec::new()])
    } else {
        (Vec::new(), Vec::new())
    };

    let mut expander = Expander::new(problem, &layout, &sims, tables);
    let mut cur = vec![0u64; layout.words];
    // `depth` is the depth of `id`; ids from `level_end` on are one deeper.
    let (mut id, mut depth, mut level_end) = (0u32, 0usize, 1u32);
    while (id as usize) < arena.len() {
        if id == level_end {
            depth += 1;
            level_end = arena.len() as u32;
        }
        if problem.step_bound.is_some_and(|bound| depth >= bound) {
            break; // every state left is at least this deep
        }
        cur.copy_from_slice(arena.get(id));

        let mut found: Option<u32> = None;
        expander.expand(&cur, |next, mv| {
            let (nid, fresh) = arena.intern(next);
            if fresh {
                if problem.want_witness {
                    parents.push(id);
                    moves.push(mv.expect("witness mode emits moves"));
                }
                if accepts_key(problem, &layout, next) {
                    found = Some(nid);
                    return false;
                }
            }
            true
        });
        if let Some(accepting) = found {
            let witness =
                problem.want_witness.then(|| reconstruct(problem, &parents, &moves, accepting));
            let states_visited = arena.len() as u64;
            return Ok(SearchOutcome { accepted: true, states_visited, witness });
        }
        if arena.len() > problem.max_states {
            return Err(QueryError::BudgetExceeded {
                what: format!("convolution search visited more than {} states", problem.max_states),
            });
        }
        id += 1;
    }
    Ok(SearchOutcome { accepted: false, states_visited: arena.len() as u64, witness: None })
}

/// True if the encoded state is accepting: every path variable is finished or
/// can finish at its current node, every relation automaton's state set
/// holds an accepting state (the low bit of its set word), and every counter
/// row is satisfied.
pub(crate) fn accepts_key(problem: &SearchProblem<'_>, layout: &Layout, key: &[u64]) -> bool {
    for (p, &w) in key.iter().enumerate().take(layout.num_paths) {
        if w == 0 {
            continue; // Done
        }
        if !finishable(problem, p, NodeId((w >> 32) as u32 - 1), w as u32) {
            return false;
        }
    }
    if !key[layout.num_paths..layout.cnt_off].iter().all(|&w| SetTable::accepting(w as u32)) {
        return false;
    }
    for (i, row) in problem.plan.counters().iter().enumerate() {
        if !row.satisfied(key[layout.cnt_off + i] as i64) {
            return false;
        }
    }
    true
}

/// Reconstructs one witness path per path variable by following the `u32`
/// parent pointers from the accepting state back to the root.
fn reconstruct(
    problem: &SearchProblem<'_>,
    parents: &[u32],
    moves: &[MoveVec],
    accepting: u32,
) -> Vec<Path> {
    let pq = problem.plan.pq;
    let mut seq: Vec<u32> = Vec::new();
    let mut id = accepting;
    while !parents.is_empty() && parents[id as usize] != u32::MAX {
        seq.push(id);
        id = parents[id as usize];
    }
    seq.reverse();
    (0..pq.path_vars.len())
        .map(|p| {
            let mut path = Path::empty(problem.sigma[pq.path_from[p]]);
            for &mid in &seq {
                if let Some((label, to)) = moves[mid as usize][p] {
                    path.push(label, to);
                }
            }
            path
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::eval::{EvalConfig, PreparedQuery};
    use ecrpq_graph::generators;

    /// Pins what the convolution search reports on fixed ECRPQs — visited
    /// states, candidates and verified counts in nodes and paths mode — and
    /// the smallest state budget each completes in, so a change to the
    /// search loop that visits states in another order or counts them
    /// differently shows up here. The second case is `edit_le_2` over five
    /// labels, a 2,267-state relation automaton: its state sets are the
    /// widest any pin covers.
    #[test]
    fn search_counts_and_budget_are_pinned() {
        let g = generators::random_graph(8, 2.0, &["a", "b"], 23);
        let text = "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a (a|b)*, R(p1, p2) = eq";
        let pair = generators::sequence_pair_graph(
            &["a", "c", "g", "t", "e"],
            &["c", "a", "g", "e", "t"],
            false,
        );
        let edit = "Ans(x1, y1, x2, y2) <- (x1, p1, y1), (x2, p2, y2), R(p1, p2) = edit_le_2";
        for (g, text, pinned, pinned_budget, automaton_states) in [
            (&g, text, (6, 24, 6, 85), 13, 2),
            (&pair.graph, edit, (1_150, 1_764, 1_150, 7_314), 10, 2_267),
        ] {
            let q = crate::parse_query(text, g.alphabet()).unwrap();
            let pq = PreparedQuery::prepare(&q).unwrap();
            let plan = pq.bind(g).unwrap();
            let cfg = EvalConfig::default();
            let (nodes, n) = plan.run_nodes(&cfg).unwrap();
            let (paths, p) = plan.run(&cfg).unwrap();
            let sim_states = pq.relations[0].sim(pq.code_base).sim.num_states();
            assert_eq!(sim_states, automaton_states, "{text}");
            let fits = |budget| {
                let cfg = EvalConfig { max_search_states: budget, ..EvalConfig::default() };
                plan.run_nodes(&cfg).is_ok()
            };
            let budgets: Vec<usize> = (0..100_000).collect();
            let min_budget = budgets.partition_point(|&b| !fits(b));
            for (mode, answers, stats) in [("nodes", nodes.len(), n), ("paths", paths.len(), p)] {
                let counts = (answers, stats.candidates, stats.verified, stats.search_states);
                assert_eq!(counts, pinned, "{mode} {text}: answers/candidates/verified/states");
            }
            assert_eq!(
                min_budget, pinned_budget,
                "{text}: the largest search visits another count"
            );
        }
    }
}
