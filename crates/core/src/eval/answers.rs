//! Representing (possibly infinite) sets of output paths.
//!
//! Proposition 5.2 of the paper: for a fixed ECRPQ `Q` with head
//! `Ans(z̄, χ̄)`, a graph `G`, and a tuple of nodes `v̄`, one can construct in
//! polynomial time an automaton that accepts exactly the representations of
//! all tuples of paths `ρ̄` with `(v̄, ρ̄) ∈ Q(G)`. We build that automaton
//! over the encoding alphabet `V^k ∪ (Σ⊥)^k`: an accepted word alternates
//! node tuples and convolution letters,
//! `v̄0 ā1 v̄1 ā2 … āp v̄p`, and uniquely determines (and is determined by) the
//! tuple of paths.
//!
//! The construction explores exactly the states of the convolution search of
//! [`super::search`], so it stays polynomial in the size of the graph for a
//! fixed query (Theorem 6.1), and exponential only in the query.

use crate::error::QueryError;
use crate::eval::dense::{odometer_next, Arena, Layout};
use crate::eval::plan;
use crate::eval::prepared::{BoundPlan, PreparedQuery, RelSim};
use crate::eval::EvalConfig;
use crate::query::Ecrpq;
use ecrpq_automata::alphabet::{Symbol, TupleSym};
use ecrpq_automata::nfa::{Nfa, StateId};
use ecrpq_automata::sim::StateSet;
use ecrpq_graph::{GraphDb, NodeId, Path};
use std::collections::{HashMap, VecDeque};

/// A letter of the path-tuple encoding alphabet `V^k ∪ (Σ⊥)^k`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EncLetter {
    /// A tuple of current nodes, one per output path variable.
    Nodes(Vec<NodeId>),
    /// A convolution letter over the output path variables.
    Letter(TupleSym),
}

/// The answer automaton of Proposition 5.2 for a query, a graph, and a tuple
/// of head-node values.
#[derive(Clone, Debug)]
pub struct AnswerAutomaton {
    /// The automaton over the encoding alphabet.
    pub nfa: Nfa<EncLetter>,
    /// Number of output path variables `k`.
    pub arity: usize,
}

impl AnswerAutomaton {
    /// Tests whether a tuple of paths is represented by the automaton (i.e.
    /// whether `(v̄, ρ̄) ∈ Q(G)` for the `v̄` the automaton was built for).
    pub fn contains(&self, paths: &[Path]) -> bool {
        assert_eq!(paths.len(), self.arity);
        self.nfa.accepts(&encode_paths(paths))
    }

    /// True if the query has no path answers for the given nodes.
    pub fn is_empty(&self) -> bool {
        self.nfa.is_empty()
    }

    /// Number of automaton states (reported by the benchmark harness).
    pub fn num_states(&self) -> usize {
        self.nfa.num_states()
    }
}

/// Encodes a tuple of paths as a word over the encoding alphabet:
/// `v̄0 ā1 v̄1 … āp v̄p`, where finished paths repeat their final node and
/// contribute `⊥` letters.
pub fn encode_paths(paths: &[Path]) -> Vec<EncLetter> {
    let max_len = paths.iter().map(|p| p.len()).max().unwrap_or(0);
    let node_at = |p: &Path, i: usize| -> NodeId {
        if i >= p.nodes().len() {
            p.end()
        } else {
            p.nodes()[i]
        }
    };
    let mut word = Vec::with_capacity(2 * max_len + 1);
    word.push(EncLetter::Nodes(paths.iter().map(|p| node_at(p, 0)).collect()));
    for i in 0..max_len {
        let letter: Vec<Option<Symbol>> = paths.iter().map(|p| p.label().get(i).copied()).collect();
        word.push(EncLetter::Letter(TupleSym::new(letter)));
        word.push(EncLetter::Nodes(paths.iter().map(|p| node_at(p, i + 1)).collect()));
    }
    word
}

/// Builds the answer automaton `A^{(G,v̄)}_Q` for the head path variables of
/// `query`, with the head node variables bound to `nodes`.
///
/// The automaton accepts exactly the encodings of tuples `ρ̄` such that
/// `(nodes, ρ̄) ∈ Q(G)`.
pub fn answer_automaton(
    query: &Ecrpq,
    graph: &GraphDb,
    nodes: &[NodeId],
    config: &EvalConfig,
) -> Result<AnswerAutomaton, QueryError> {
    let prepared = PreparedQuery::prepare(query)?;
    prepared.bind(graph)?.answer_automaton(nodes, config)
}

impl BoundPlan<'_> {
    /// Builds the answer automaton of Proposition 5.2 for this plan's head
    /// path variables with the head node variables bound to `nodes`
    /// (prepared-pipeline counterpart of [`answer_automaton`]).
    pub fn answer_automaton(
        &self,
        nodes: &[NodeId],
        config: &EvalConfig,
    ) -> Result<AnswerAutomaton, QueryError> {
        let pq = self.pq;
        if nodes.len() != pq.head_node_idx.len() {
            return Err(QueryError::Unsupported(format!(
                "expected {} head node values, got {}",
                pq.head_node_idx.len(),
                nodes.len()
            )));
        }
        if !self.counters().is_empty() {
            return Err(QueryError::Unsupported(
                "answer automata are not defined for queries with linear constraints".to_string(),
            ));
        }
        let arity = pq.head_path_idx.len();

        // Build one product automaton per Q-compatible candidate assignment σ
        // that extends the given head nodes, and take their union. The states
        // are the convolution-search states; transitions alternate Letter and
        // Nodes.
        let mut nfa: Nfa<EncLetter> = Nfa::new();
        let mut stats = plan::EvalStats::default();
        if pq.dense_search {
            pq.force_rel_sims(&mut stats);
        }

        // Enumerate candidates via the same machinery as the evaluator, with
        // the head node variables joining the constants.
        let mut constants = self.constants().to_vec();
        for (i, &vi) in pq.head_node_idx.iter().enumerate() {
            constants.push((vi, nodes[i]));
        }
        let reach: Vec<plan::ReachRel> =
            (0..pq.path_vars.len()).map(|p| plan::reachability(self, p, &mut stats)).collect();

        let mut err: Option<QueryError> = None;
        let n = self.graph.num_nodes();
        plan::enumerate_candidates(pq, n, &constants, &reach, None, config, &mut stats, |sigma| {
            if let Err(e) = add_candidate_automaton(&mut nfa, self, sigma, config) {
                err = Some(e);
                return false;
            }
            true
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        Ok(AnswerAutomaton { nfa: nfa.trim(), arity })
    }
}

// The construction explores the same product states as the convolution
// search, using the same dense encoding: a state is one flat row of `u64`
// words — one position word per path variable (`node << 1 | done`) followed
// by the bitset blocks of every relation automaton's state set — interned
// into the arena of [`super::dense`]. Each interned state owns a pair of
// automaton states ("before nodes" / "after nodes"); the pair table is
// indexed by the `u32` arena ids, and since ids are handed out in discovery
// order, expanding ids `0, 1, 2, …` in turn is the breadth-first traversal.

/// Per-variable expansion options plus the scratch of [`apply_move`]: the
/// answer-automaton counterpart of the search's expander. Successors are
/// always emitted in odometer order.
struct AnswersExpander<'a, 'p> {
    plan: &'a BoundPlan<'p>,
    sigma: &'a [NodeId],
    layout: &'a Layout,
    sims: &'a [&'a RelSim],
    options: Vec<Vec<Option<(Symbol, NodeId)>>>,
    choice: Vec<usize>,
    letters: Vec<Option<Symbol>>,
    head_letters: Vec<Option<Symbol>>,
    next: Vec<u64>,
    rel_scratch: Vec<StateSet>,
}

impl<'a, 'p> AnswersExpander<'a, 'p> {
    fn new(
        plan: &'a BoundPlan<'p>,
        sigma: &'a [NodeId],
        layout: &'a Layout,
        sims: &'a [&'a RelSim],
    ) -> Self {
        let num_paths = layout.num_paths;
        AnswersExpander {
            plan,
            sigma,
            layout,
            sims,
            options: vec![Vec::new(); num_paths],
            choice: vec![0usize; num_paths],
            letters: vec![None; num_paths],
            head_letters: vec![None; plan.pq.head_path_idx.len()],
            next: vec![0u64; layout.words],
            rel_scratch: sims.iter().map(|rs| StateSet::empty(rs.sim.blocks())).collect(),
        }
    }

    /// Emits every admissible global successor of `cur` in odometer order:
    /// `emit(next_key, head_letters)` receives the successor key and the
    /// convolution letter projected onto the head path variables.
    fn expand(&mut self, cur: &[u64], mut emit: impl FnMut(&[u64], &[Option<Symbol>])) {
        let plan = self.plan;
        let pq = plan.pq;
        let graph = plan.graph;
        let num_paths = self.layout.num_paths;

        for (p, &w) in cur.iter().enumerate().take(num_paths) {
            let opts = &mut self.options[p];
            opts.clear();
            let node = NodeId((w >> 1) as u32);
            let done = w & 1 == 1;
            if done {
                opts.push(None);
            } else {
                for &(label, to) in graph.out_edges(node) {
                    opts.push(Some((label, to)));
                }
                if node == self.sigma[pq.path_to[p]] {
                    opts.push(None); // finish here
                }
            }
            if opts.is_empty() {
                return; // dead: this variable can neither move nor finish
            }
        }
        self.choice.fill(0);
        loop {
            let any_real = (0..num_paths).any(|p| self.options[p][self.choice[p]].is_some());
            if any_real
                && apply_move(
                    plan,
                    self.sims,
                    &self.layout.rel_off,
                    &self.layout.rel_blocks,
                    cur,
                    &self.options,
                    &self.choice,
                    &mut self.letters,
                    &mut self.rel_scratch,
                    &mut self.next,
                )
            {
                for (h, &p) in self.head_letters.iter_mut().zip(&pq.head_path_idx) {
                    *h = self.options[p][self.choice[p]].map(|(l, _)| plan.translate(l));
                }
                emit(&self.next, &self.head_letters);
            }
            if !odometer_next(&mut self.choice, |i| self.options[i].len()) {
                return;
            }
        }
    }
}

fn add_candidate_automaton(
    nfa: &mut Nfa<EncLetter>,
    plan: &BoundPlan<'_>,
    sigma: &[NodeId],
    config: &EvalConfig,
) -> Result<(), QueryError> {
    let pq = plan.pq;
    // Check repeated-atom endpoint consistency.
    for &(p, f, t) in &pq.extra_endpoints {
        if sigma[f] != sigma[pq.path_from[p]] || sigma[t] != sigma[pq.path_to[p]] {
            return Ok(());
        }
    }
    if !pq.dense_search {
        // Oversized relation automata: fall back to the classical
        // cloned-state construction (see the note on
        // `PreparedQuery::dense_search`).
        return add_candidate_automaton_classic(nfa, plan, sigma, config);
    }
    let num_paths = pq.path_vars.len();
    let head = &pq.head_path_idx;
    let sims: Vec<&RelSim> = pq.relations.iter().map(|r| r.sim(pq.code_base)).collect();

    // Same word layout as the convolution search, without counters.
    let layout = Layout::new(num_paths, &sims, 0);
    let words = layout.words;

    let accepts_key = |key: &[u64]| -> bool {
        (0..num_paths)
            .all(|p| key[p] & 1 == 1 || NodeId((key[p] >> 1) as u32) == sigma[pq.path_to[p]])
            && sims.iter().enumerate().all(|(j, rs)| {
                rs.sim.any_accepting_blocks(
                    &key[layout.rel_off[j]..layout.rel_off[j] + layout.rel_blocks[j]],
                )
            })
    };

    let mut arena = Arena::new(words);
    // Per arena id: the (before-nodes, after-nodes) automaton state pair.
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();

    // Intern helper: creates the before/after pair for a fresh state, linked
    // by the Nodes letter of the head path variables.
    let intern = |key: &[u64],
                  nfa: &mut Nfa<EncLetter>,
                  arena: &mut Arena,
                  pairs: &mut Vec<(StateId, StateId)>|
     -> (StateId, StateId) {
        let (id, fresh) = arena.intern(key);
        if !fresh {
            return pairs[id as usize];
        }
        let b = nfa.add_state();
        let a = nfa.add_state();
        let node_letter =
            EncLetter::Nodes(head.iter().map(|&p| NodeId((key[p] >> 1) as u32)).collect());
        nfa.add_transition(b, node_letter, a);
        nfa.set_accepting(a, accepts_key(key));
        pairs.push((b, a));
        (b, a)
    };

    // Encode the initial state.
    let mut initial = vec![0u64; words];
    for p in 0..num_paths {
        initial[p] = (sigma[pq.path_from[p]].0 as u64) << 1;
    }
    for (j, rs) in sims.iter().enumerate() {
        initial[layout.rel_off[j]..layout.rel_off[j] + layout.rel_blocks[j]]
            .copy_from_slice(rs.sim.initial_set().as_blocks());
    }
    let (b0, _a0) = intern(&initial, nfa, &mut arena, &mut pairs);
    nfa.add_initial(b0);

    let mut expander = AnswersExpander::new(plan, sigma, &layout, &sims);
    let mut cur = vec![0u64; words];
    let mut id = 0u32;
    while (id as usize) < arena.len() {
        if id as usize >= config.max_search_states {
            return Err(QueryError::BudgetExceeded {
                what: "answer-automaton construction exceeded the state budget".to_string(),
            });
        }
        let from_after = pairs[id as usize].1;
        cur.copy_from_slice(arena.get(id));
        expander.expand(&cur, |next, head_letters| {
            let letter = EncLetter::Letter(TupleSym::new(head_letters.to_vec()));
            let (nb, _na) = intern(next, nfa, &mut arena, &mut pairs);
            nfa.add_transition(from_after, letter, nb);
        });
        id += 1;
    }
    Ok(())
}

/// Applies the global move selected by `choice` to the encoded state `cur`,
/// writing the successor into `next`. Returns `false` if some relation
/// automaton has no matching transition.
#[allow(clippy::too_many_arguments)]
fn apply_move(
    plan: &BoundPlan<'_>,
    sims: &[&RelSim],
    rel_off: &[usize],
    rel_blocks: &[usize],
    cur: &[u64],
    options: &[Vec<Option<(Symbol, NodeId)>>],
    choice: &[usize],
    letters: &mut [Option<Symbol>],
    rel_scratch: &mut [StateSet],
    next: &mut [u64],
) -> bool {
    let num_paths = options.len();
    for p in 0..num_paths {
        match options[p][choice[p]] {
            Some((label, to)) => {
                next[p] = (to.0 as u64) << 1;
                letters[p] = Some(plan.translate(label));
            }
            None => {
                next[p] = cur[p] | 1; // keep the node, set the done flag
                letters[p] = None;
            }
        }
    }
    plan::advance_relations(plan.pq, sims, rel_off, rel_blocks, letters, cur, rel_scratch, next)
}

// ---------------------------------------------------------------------------
// Classical fallback (oversized relation automata)
// ---------------------------------------------------------------------------

/// Search state used by the classical answer-automaton construction: current
/// node per path variable plus a "finished" flag, and the relation state
/// sets as sorted vectors.
#[derive(Clone, PartialEq, Eq, Hash)]
struct AState {
    pos: Vec<(NodeId, bool)>,
    rel: Vec<Vec<StateId>>,
}

/// The classical cloned-state construction, retained for queries whose
/// relation automata exceed the dense-table size bound: sparse sorted-vector
/// state sets stepped through [`Nfa::step`] scale with the reachable
/// frontier instead of the automaton size.
fn add_candidate_automaton_classic(
    nfa: &mut Nfa<EncLetter>,
    plan: &BoundPlan<'_>,
    sigma: &[NodeId],
    config: &EvalConfig,
) -> Result<(), QueryError> {
    let pq = plan.pq;
    let graph = plan.graph;
    let num_paths = pq.path_vars.len();
    let head = &pq.head_path_idx;

    let initial = AState {
        pos: (0..num_paths).map(|p| (sigma[pq.path_from[p]], false)).collect(),
        rel: pq.relations.iter().map(|r| r.nfa.epsilon_closure(r.nfa.initial())).collect(),
    };

    // Each search state becomes *two* automaton states: one expecting the
    // next Nodes letter ("before nodes") and one expecting the next
    // convolution letter ("after nodes").
    let mut before_ids: HashMap<AState, StateId> = HashMap::new();
    let mut after_ids: HashMap<AState, StateId> = HashMap::new();
    let mut queue: VecDeque<AState> = VecDeque::new();

    let accepts = |s: &AState| -> bool {
        s.pos.iter().enumerate().all(|(p, &(node, done))| done || node == sigma[pq.path_to[p]])
            && pq
                .relations
                .iter()
                .enumerate()
                .all(|(j, r)| s.rel[j].iter().any(|&q| r.nfa.is_accepting(q)))
    };

    fn intern(
        s: &AState,
        nfa: &mut Nfa<EncLetter>,
        before: &mut HashMap<AState, StateId>,
        after: &mut HashMap<AState, StateId>,
        queue: &mut VecDeque<AState>,
        head: &[usize],
        accepting: bool,
    ) -> (StateId, StateId) {
        if let (Some(&b), Some(&a)) = (before.get(s), after.get(s)) {
            return (b, a);
        }
        let b = nfa.add_state();
        let a = nfa.add_state();
        let node_letter = EncLetter::Nodes(head.iter().map(|&p| s.pos[p].0).collect());
        nfa.add_transition(b, node_letter, a);
        nfa.set_accepting(a, accepting);
        before.insert(s.clone(), b);
        after.insert(s.clone(), a);
        queue.push_back(s.clone());
        (b, a)
    }

    let (b0, _a0) =
        intern(&initial, nfa, &mut before_ids, &mut after_ids, &mut queue, head, accepts(&initial));
    nfa.add_initial(b0);

    let mut visited_budget = config.max_search_states;
    while let Some(state) = queue.pop_front() {
        if visited_budget == 0 {
            return Err(QueryError::BudgetExceeded {
                what: "answer-automaton construction exceeded the state budget".to_string(),
            });
        }
        visited_budget -= 1;
        let from_after = after_ids[&state];
        let mut options: Vec<Vec<Option<(Symbol, NodeId)>>> = Vec::with_capacity(num_paths);
        let mut dead = false;
        for p in 0..num_paths {
            let (node, done) = state.pos[p];
            let mut opts: Vec<Option<(Symbol, NodeId)>> = Vec::new();
            if done {
                opts.push(None);
            } else {
                for &(label, to) in graph.out_edges(node) {
                    opts.push(Some((label, to)));
                }
                if node == sigma[pq.path_to[p]] {
                    opts.push(None); // finish here
                }
            }
            if opts.is_empty() {
                dead = true;
                break;
            }
            options.push(opts);
        }
        if dead {
            continue;
        }
        let mut choice = vec![0usize; num_paths];
        'outer: loop {
            let picks: Vec<Option<(Symbol, NodeId)>> =
                (0..num_paths).map(|p| options[p][choice[p]]).collect();
            if picks.iter().any(|o| o.is_some()) {
                if let Some(next) = apply_move_classic(plan, &state, &picks) {
                    let letter = EncLetter::Letter(TupleSym::new(
                        head.iter().map(|&p| picks[p].map(|(l, _)| plan.translate(l))).collect(),
                    ));
                    let acc = accepts(&next);
                    let (nb, _na) =
                        intern(&next, nfa, &mut before_ids, &mut after_ids, &mut queue, head, acc);
                    nfa.add_transition(from_after, letter, nb);
                }
            }
            let mut i = 0;
            loop {
                if i == num_paths {
                    break 'outer;
                }
                choice[i] += 1;
                if choice[i] < options[i].len() {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }
    Ok(())
}

fn apply_move_classic(
    plan: &BoundPlan<'_>,
    state: &AState,
    picks: &[Option<(Symbol, NodeId)>],
) -> Option<AState> {
    let mut pos = Vec::with_capacity(picks.len());
    let mut letters: Vec<Option<Symbol>> = Vec::with_capacity(picks.len());
    for (p, pick) in picks.iter().enumerate() {
        match pick {
            Some((label, to)) => {
                pos.push((*to, false));
                letters.push(Some(plan.translate(*label)));
            }
            None => {
                pos.push((state.pos[p].0, true));
                letters.push(None);
            }
        }
    }
    let mut rel = Vec::with_capacity(plan.pq.relations.len());
    for (j, r) in plan.pq.relations.iter().enumerate() {
        let tuple: Vec<Option<Symbol>> = r.tapes.iter().map(|&t| letters[t]).collect();
        if tuple.iter().all(|c| c.is_none()) {
            rel.push(state.rel[j].clone());
            continue;
        }
        let next = r.nfa.step(&state.rel[j], &TupleSym::new(tuple));
        if next.is_empty() {
            return None;
        }
        rel.push(next);
    }
    Some(AState { pos, rel })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use ecrpq_automata::builtin;
    use ecrpq_graph::generators;

    #[test]
    fn answer_automaton_represents_exactly_the_answer_paths() {
        // Graph: a cycle of length 3 labeled a; query: Ans(x, π) ← (x, π, y), a+(π)
        // with x bound to node 0 — answers are all paths of positive length from 0.
        let g = generators::cycle_graph(3, "a");
        let al = g.alphabet().clone();
        let q = crate::query::Ecrpq::builder(&al)
            .head_nodes(&["x"])
            .head_paths(&["p"])
            .atom("x", "p", "y")
            .language("p", "a+")
            .build()
            .unwrap();
        let n0 = ecrpq_graph::NodeId(0);
        let aut = answer_automaton(&q, &g, &[n0], &EvalConfig::default()).unwrap();
        assert!(!aut.is_empty());
        // Path of length 3 (full cycle) is an answer; the empty path is not (a+).
        let a = g.alphabet().sym("a");
        let full_cycle = Path::new(
            vec![
                ecrpq_graph::NodeId(0),
                ecrpq_graph::NodeId(1),
                ecrpq_graph::NodeId(2),
                ecrpq_graph::NodeId(0),
            ],
            vec![a, a, a],
        );
        assert!(aut.contains(&[full_cycle]));
        let empty = Path::empty(n0);
        assert!(!aut.contains(&[empty]));
        // A path that does not start at the bound node is rejected.
        let wrong_start = Path::new(vec![ecrpq_graph::NodeId(1), ecrpq_graph::NodeId(2)], vec![a]);
        assert!(!aut.contains(&[wrong_start]));
    }

    #[test]
    fn answer_automaton_agrees_with_eval_with_paths() {
        let g = generators::cycle_graph(4, "a");
        let al = g.alphabet().clone();
        let q = crate::query::Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .head_paths(&["p1", "p2"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let cfg = EvalConfig { answer_limit: 20, ..EvalConfig::default() };
        let answers = eval::eval_with_paths(&q, &g, &cfg).unwrap();
        assert!(!answers.is_empty());
        for ans in answers.iter().take(5) {
            let aut = answer_automaton(&q, &g, &ans.nodes, &cfg).unwrap();
            assert!(
                aut.contains(&ans.paths),
                "witness paths must be accepted by the answer automaton"
            );
        }
    }

    #[test]
    fn encoding_round_trip_shape() {
        let g = generators::cycle_graph(3, "a");
        let a = g.alphabet().sym("a");
        let p1 = Path::new(vec![ecrpq_graph::NodeId(0), ecrpq_graph::NodeId(1)], vec![a]);
        let p2 = Path::new(
            vec![ecrpq_graph::NodeId(1), ecrpq_graph::NodeId(2), ecrpq_graph::NodeId(0)],
            vec![a, a],
        );
        let enc = encode_paths(&[p1, p2]);
        // v̄0 ā1 v̄1 ā2 v̄2 — five letters for max length 2
        assert_eq!(enc.len(), 5);
        assert!(matches!(enc[0], EncLetter::Nodes(_)));
        assert!(matches!(enc[1], EncLetter::Letter(_)));
        if let EncLetter::Letter(t) = &enc[3] {
            // first path finished: ⊥ on tape 0
            assert_eq!(t.get(0), None);
            assert_eq!(t.get(1), Some(a));
        } else {
            panic!("expected a convolution letter");
        }
    }

    /// Pins the shape of the constructed automata (state and transition
    /// counts summed over every node pair of a fixed graph) and the smallest
    /// state budget the construction completes in, so a change to the
    /// construction loop that adds, drops or reorders product states shows
    /// up here.
    #[test]
    fn answer_automaton_shape_and_budget_are_pinned() {
        let g = generators::random_graph(8, 2.0, &["a", "b"], 23);
        let text = "Ans(x, y, p1, p2) <- (x, p1, z), (z, p2, y), L(p1) = a (a|b)*, R(p1, p2) = el";
        let q = crate::parse_query(text, g.alphabet()).unwrap();
        let pq = PreparedQuery::prepare(&q).unwrap();
        let plan = pq.bind(&g).unwrap();
        let cfg = EvalConfig::default();
        let (mut states, mut transitions, mut largest) = (0, 0, (0, [NodeId(0); 2]));
        for x in g.nodes() {
            for y in g.nodes() {
                let aut = plan.answer_automaton(&[x, y], &cfg).unwrap();
                states += aut.num_states();
                transitions += aut.nfa.num_transitions();
                largest = largest.max((aut.num_states(), [x, y]));
            }
        }
        let nodes = largest.1;
        let fits = |budget| {
            let cfg = EvalConfig { max_search_states: budget, ..EvalConfig::default() };
            plan.answer_automaton(&nodes, &cfg).is_ok()
        };
        let min_budget = (1..10_000).find(|&b| fits(b)).unwrap();
        assert_eq!((states, transitions), (228, 447), "automaton shape changed");
        assert_eq!(min_budget, 17, "the construction explores a different state count");
    }
}
