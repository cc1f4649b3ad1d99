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
//! variable, the bitset blocks of every relation automaton's current state
//! set (stepped through the precompiled successor lists of
//! [`CompactNfa`](ecrpq_automata::sim::CompactNfa)), and one word per counter
//! — interned into an arena of [`super::dense`]. The BFS queue and parent
//! pointers hold `u32` state indices, and expansion reuses scratch buffers,
//! so the hot loop performs no allocation. The classical cloned-state
//! formulation is retained in [`super::reference`] as the differential
//! oracle of the test suites.

use crate::error::QueryError;
use crate::eval::dense::{odometer_next, Arena, Layout};
use crate::eval::plan;
use crate::eval::prepared::{BoundPlan, RelSim};
use ecrpq_automata::alphabet::Symbol;
use ecrpq_automata::sim::StateSet;
use ecrpq_graph::{NodeId, Path};
use std::collections::VecDeque;

/// One candidate-verification problem.
pub(crate) struct SearchProblem<'a> {
    /// The prepared query bound to the graph being searched.
    pub plan: &'a BoundPlan<'a>,
    /// Candidate assignment of the node variables.
    pub sigma: Vec<NodeId>,
    /// Pinned paths per path variable (used by the membership check).
    pub pinned: Vec<Option<&'a Path>>,
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

/// One option for one path variable within a global step.
#[derive(Clone, Copy)]
enum Option1 {
    Real { label: Symbol, to: NodeId, step: u32 },
    Finish,
    Pad,
}

/// The expansion engine: per-variable option lists, the odometer, and the
/// scratch buffers of [`apply_key`], reused across states so the hot loop
/// performs no allocation. The successors of one state are always emitted in
/// odometer order, which fixes the arena's state numbering.
struct Expander<'a, 'p> {
    problem: &'a SearchProblem<'p>,
    layout: &'a Layout,
    sims: &'a [&'a RelSim],
    options: Vec<Vec<Option1>>,
    choice: Vec<usize>,
    letters: Vec<Option<Symbol>>,
    next: Vec<u64>,
    rel_scratch: Vec<StateSet>,
}

impl<'a, 'p> Expander<'a, 'p> {
    fn new(problem: &'a SearchProblem<'p>, layout: &'a Layout, sims: &'a [&'a RelSim]) -> Self {
        let num_paths = layout.num_paths;
        Expander {
            problem,
            layout,
            sims,
            options: vec![Vec::new(); num_paths],
            choice: vec![0usize; num_paths],
            letters: vec![None; num_paths],
            next: vec![0u64; layout.words],
            rel_scratch: sims.iter().map(|rs| StateSet::empty(rs.sim.blocks())).collect(),
        }
    }

    /// Emits every admissible global successor of the encoded state `cur` in
    /// odometer order: `emit(next_key, move)` (the move only materialized
    /// when a witness is wanted) returns `false` to stop early. States with
    /// a variable that can neither move nor finish emit nothing.
    fn expand(&mut self, cur: &[u64], mut emit: impl FnMut(&[u64], Option<MoveVec>) -> bool) {
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
            if any_real
                && apply_key(
                    problem,
                    self.layout,
                    self.sims,
                    cur,
                    &self.options,
                    &self.choice,
                    &mut self.letters,
                    &mut self.rel_scratch,
                    &mut self.next,
                )
            {
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
}

/// Consistency prechecks: pinned paths must connect the candidate
/// endpoints, and repeated relational atoms must agree. `Some(outcome)`
/// short-circuits the search with a rejection.
fn precheck(problem: &SearchProblem<'_>) -> Option<SearchOutcome> {
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

/// Encodes the initial search state.
fn initial_key(problem: &SearchProblem<'_>, layout: &Layout, sims: &[&RelSim]) -> Vec<u64> {
    let pq = problem.plan.pq;
    let mut initial = vec![0u64; layout.words];
    for (p, w) in initial.iter_mut().enumerate().take(layout.num_paths) {
        *w = active_word(problem.sigma[pq.path_from[p]], 0);
    }
    for (j, rs) in sims.iter().enumerate() {
        let off = layout.rel_off[j];
        initial[off..off + layout.rel_blocks[j]].copy_from_slice(rs.sim.initial_set().as_blocks());
    }
    // counters start at zero (already 0)
    initial
}

/// Runs the search: one FIFO queue, intern-as-you-expand. A precheck
/// rejection visits no state; an initial state that already accepts counts
/// as one visited state with an empty witness.
pub(crate) fn run(problem: &SearchProblem<'_>) -> Result<SearchOutcome, QueryError> {
    if let Some(outcome) = precheck(problem) {
        return Ok(outcome);
    }
    let pq = problem.plan.pq;
    let sims: Vec<&RelSim> = pq.relations.iter().map(|r| r.sim(pq.code_base)).collect();
    let layout = Layout::new(pq.path_vars.len(), &sims, problem.plan.counters().len());
    let initial = initial_key(problem, &layout, &sims);
    if accepts_key(problem, &layout, &sims, &initial) {
        let witness = problem.want_witness.then(|| reconstruct(problem, &[], &[], 0));
        return Ok(SearchOutcome { accepted: true, states_visited: 1, witness });
    }
    let mut arena = Arena::new(layout.words);
    let (init_id, _) = arena.intern(&initial);
    // Parent pointers and incoming moves, kept only when a witness must be
    // reconstructed (indexed by arena id; the initial state's entry is the
    // sentinel).
    let (mut parents, mut moves): (Vec<u32>, Vec<MoveVec>) = if problem.want_witness {
        (vec![u32::MAX], vec![Vec::new()])
    } else {
        (Vec::new(), Vec::new())
    };
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    queue.push_back((init_id, 0));

    let mut expander = Expander::new(problem, &layout, &sims);
    let mut cur = vec![0u64; layout.words];

    while let Some((id, depth)) = queue.pop_front() {
        if let Some(bound) = problem.step_bound {
            if depth as usize >= bound {
                continue;
            }
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
                if accepts_key(problem, &layout, &sims, next) {
                    found = Some(nid);
                    return false;
                }
                queue.push_back((nid, depth + 1));
            }
            true
        });
        if let Some(accepting) = found {
            let witness = if problem.want_witness {
                Some(reconstruct(problem, &parents, &moves, accepting))
            } else {
                None
            };
            return Ok(SearchOutcome {
                accepted: true,
                states_visited: arena.len() as u64,
                witness,
            });
        }
        if arena.len() > problem.max_states {
            return Err(QueryError::BudgetExceeded {
                what: format!("convolution search visited more than {} states", problem.max_states),
            });
        }
    }
    Ok(SearchOutcome { accepted: false, states_visited: arena.len() as u64, witness: None })
}

/// True if the encoded state is accepting: every path variable is finished or
/// can finish at its current node, every relation automaton's state set
/// intersects its accepting set, and every counter row is satisfied.
fn accepts_key(
    problem: &SearchProblem<'_>,
    layout: &Layout,
    sims: &[&RelSim],
    key: &[u64],
) -> bool {
    for (p, &w) in key.iter().enumerate().take(layout.num_paths) {
        if w == 0 {
            continue; // Done
        }
        if !finishable(problem, p, NodeId((w >> 32) as u32 - 1), w as u32) {
            return false;
        }
    }
    for (j, rs) in sims.iter().enumerate() {
        let off = layout.rel_off[j];
        if !rs.sim.any_accepting_blocks(&key[off..off + layout.rel_blocks[j]]) {
            return false;
        }
    }
    for (i, row) in problem.plan.counters().iter().enumerate() {
        if !row.satisfied(key[layout.cnt_off + i] as i64) {
            return false;
        }
    }
    true
}

/// Applies the global move selected by `choice` to the encoded state `cur`,
/// writing the successor into `next`. Returns `false` if some relation
/// automaton has no matching transition (the move is a dead end).
#[allow(clippy::too_many_arguments)]
fn apply_key(
    problem: &SearchProblem<'_>,
    layout: &Layout,
    sims: &[&RelSim],
    cur: &[u64],
    options: &[Vec<Option1>],
    choice: &[usize],
    letters: &mut [Option<Symbol>],
    rel_scratch: &mut [StateSet],
    next: &mut [u64],
) -> bool {
    let plan = problem.plan;
    for p in 0..layout.num_paths {
        match options[p][choice[p]] {
            Option1::Real { label, to, step } => {
                next[p] = active_word(to, step);
                letters[p] = Some(plan.translate(label));
            }
            Option1::Finish | Option1::Pad => {
                next[p] = 0;
                letters[p] = None;
            }
        }
    }

    // Advance every relation automaton on the projection of the step.
    if !plan::advance_relations(
        plan.pq,
        sims,
        &layout.rel_off,
        &layout.rel_blocks,
        letters,
        cur,
        rel_scratch,
        next,
    ) {
        return false;
    }

    // Update counters.
    for (i, row) in plan.counters().iter().enumerate() {
        let mut v = cur[layout.cnt_off + i] as i64;
        for p in 0..layout.num_paths {
            if let Option1::Real { label, .. } = options[p][choice[p]] {
                v += row.step_delta(p, plan.translate(label));
            }
        }
        next[layout.cnt_off + i] = v as u64;
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

    /// Pins what the convolution search reports on a fixed ECRPQ — visited
    /// states, candidates and verified counts in nodes and paths mode — and
    /// the smallest state budget it completes in, so a change to the search
    /// loop that visits states in another order or counts them differently
    /// shows up here.
    #[test]
    fn search_counts_and_budget_are_pinned() {
        let g = generators::random_graph(8, 2.0, &["a", "b"], 23);
        let text = "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a (a|b)*, R(p1, p2) = eq";
        let q = crate::parse_query(text, g.alphabet()).unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let plan = pq.bind(&g).unwrap();
        let cfg = EvalConfig::default();
        let (nodes, n) = plan.run_nodes(&cfg).unwrap();
        let (paths, p) = plan.run(&cfg).unwrap();
        let fits = |budget| {
            let cfg = EvalConfig { max_search_states: budget, ..EvalConfig::default() };
            plan.run_nodes(&cfg).is_ok()
        };
        let min_budget = (1..100_000).find(|&b| fits(b)).unwrap();
        for (mode, answers, stats) in [("nodes", nodes.len(), n), ("paths", paths.len(), p)] {
            let counts = (answers, stats.candidates, stats.verified, stats.search_states);
            assert_eq!(counts, (6, 24, 6, 85), "{mode}: answers/candidates/verified/states");
        }
        assert_eq!(min_budget, 13, "the largest single search visits a different state count");
    }
}
