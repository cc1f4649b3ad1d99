//! Per-atom reachability: the one `(node, constraint-state)` product BFS.
//!
//! Every reachability relation in the crate — cold runs, membership checks,
//! explain, and the incrementally maintained rows of `eval::delta` — comes
//! out of [`product_rows`]. The kernel is statically generic over *where
//! successors come from* ([`Successors`]: one direction of a bound plan's
//! pre-translated CSR, or a live-graph overlay) and over *how the unary
//! constraint steps* ([`Constraint`]: none, a sparse NFA, or compiled
//! simulation tables), so each combination monomorphizes to the loop one
//! would write by hand for it.

use crate::eval::plan::cost::{AtomPlan, Direction};
use crate::eval::plan::EvalStats;
use crate::eval::prepared::{BindArtifacts, BoundPlan, PreparedQuery};
use ecrpq_automata::alphabet::Symbol;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::sim::{CompactNfa, StateSet};
use ecrpq_graph::delta::GraphView;
use ecrpq_graph::{GraphDb, NodeId};

/// The binary reachability relation of one path variable: which node pairs
/// are connected by a path whose (translated) label satisfies the variable's
/// unary constraints.
#[derive(Clone, Debug)]
pub(crate) struct ReachRel {
    /// Forward adjacency: successors of each node.
    pub fwd: Vec<Vec<NodeId>>,
    /// Backward adjacency: predecessors of each node.
    pub bwd: Vec<Vec<NodeId>>,
}

impl ReachRel {
    /// The relation with the given sorted successor rows; predecessor rows
    /// follow by transposition.
    pub fn from_fwd(fwd: Vec<Vec<NodeId>>) -> ReachRel {
        ReachRel { bwd: transpose(&fwd), fwd }
    }

    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.fwd[u.index()].binary_search(&v).is_ok()
    }
}

/// The transposed row table. Sources are visited in ascending order, so
/// every transposed row comes out sorted, like the input rows.
fn transpose(rows: &[Vec<NodeId>]) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); rows.len()];
    for (u, row) in rows.iter().enumerate() {
        for &v in row {
            out[v.index()].push(NodeId(u as u32));
        }
    }
    out
}

/// Where the kernel's successors come from; labels are merged-alphabet
/// symbols.
pub(crate) trait Successors {
    fn num_nodes(&self) -> usize;
    /// Calls `f(label, target)` for every edge leaving `v`.
    fn for_each(&self, v: u32, f: impl FnMut(Symbol, u32));
}

/// One direction of a graph's adjacency in CSR form, labels pre-translated
/// into a bound plan's merged alphabet; built once per graph at bind time.
#[derive(Clone, Debug)]
pub(crate) struct CsrTable {
    /// Per-node row offsets (`nodes + 1` entries).
    pub off: Vec<u32>,
    /// The neighbor at the other end of each edge.
    pub to: Vec<u32>,
    /// Each edge's merged-alphabet label.
    pub label: Vec<Symbol>,
}

impl CsrTable {
    /// The out-edges of `graph` — or with `rev` its in-edges — with labels
    /// translated through `symbol_map`. Either way a node's row lists its
    /// neighbors in the graph's edge order (sources ascending, each
    /// source's out-edges in order).
    pub fn build(graph: &GraphDb, symbol_map: &[Symbol], rev: bool) -> CsrTable {
        let n = graph.num_nodes();
        let mut off = vec![0u32; n + 1];
        for v in graph.nodes() {
            let degree =
                if rev { graph.in_degrees()[v.index()] } else { graph.out_edges(v).len() as u32 };
            off[v.index() + 1] = off[v.index()] + degree;
        }
        let total = off[n] as usize;
        let (mut to, mut label) = (vec![0u32; total], vec![Symbol(0); total]);
        let mut cursor = off.clone();
        for v in graph.nodes() {
            for &(l, t) in graph.out_edges(v) {
                let (row, neighbor) = if rev { (t, v) } else { (v, t) };
                let c = cursor[row.index()] as usize;
                to[c] = neighbor.0;
                label[c] = symbol_map[l.index()];
                cursor[row.index()] += 1;
            }
        }
        CsrTable { off, to, label }
    }
}

impl Successors for CsrTable {
    fn num_nodes(&self) -> usize {
        self.off.len() - 1
    }

    #[inline]
    fn for_each(&self, v: u32, mut f: impl FnMut(Symbol, u32)) {
        let (lo, hi) = (self.off[v as usize] as usize, self.off[v as usize + 1] as usize);
        for (&label, &to) in self.label[lo..hi].iter().zip(&self.to[lo..hi]) {
            f(label, to);
        }
    }
}

/// The out-edges of a live-graph overlay, translated like a cold bind on the
/// merged graph would translate them: labels the base alphabet knows go
/// through the bind artifacts' symbol map; a label the delta introduced
/// resolves by name in the query alphabet, and one neither knows becomes a
/// foreign symbol past every alphabet — dead for every constraint, an
/// ordinary edge for an unconstrained variable.
pub(crate) struct Overlay<'a> {
    view: GraphView<'a>,
    symbol_map: Vec<Symbol>,
}

impl<'a> Overlay<'a> {
    pub fn new(view: GraphView<'a>, pq: &PreparedQuery, art: &BindArtifacts) -> Overlay<'a> {
        let symbol_map = view
            .alphabet()
            .iter()
            .map(|(l, name)| match art.graph_symbol_map.get(l.index()) {
                Some(&merged) => merged,
                None => pq.query.alphabet.symbol(name).unwrap_or(Symbol(u32::MAX)),
            })
            .collect();
        Overlay { view, symbol_map }
    }
}

impl Successors for Overlay<'_> {
    fn num_nodes(&self) -> usize {
        self.view.num_nodes()
    }

    #[inline]
    fn for_each(&self, v: u32, mut f: impl FnMut(Symbol, u32)) {
        self.view.for_each_out(NodeId(v), |label, to| f(self.symbol_map[label.index()], to.0));
    }
}

/// How the unary constraint of a path variable steps along an edge label.
pub(crate) trait Constraint {
    fn num_states(&self) -> usize;
    fn for_each_initial(&self, f: impl FnMut(u32));
    fn is_accepting(&self, q: u32) -> bool;
    /// Calls `f` on every state reachable from `q` by reading `label`.
    fn step(&self, q: u32, label: Symbol, f: impl FnMut(u32));
}

/// No constraint: label-oblivious reachability (one accepting state).
struct Unconstrained;

impl Constraint for Unconstrained {
    fn num_states(&self) -> usize {
        1
    }

    fn for_each_initial(&self, mut f: impl FnMut(u32)) {
        f(0);
    }

    fn is_accepting(&self, _: u32) -> bool {
        true
    }

    #[inline]
    fn step(&self, _: u32, _: Symbol, mut f: impl FnMut(u32)) {
        f(0);
    }
}

/// A constraint NFA too big for table compilation (e.g. the 30k-state
/// intersection of several counting languages), stepped through its
/// transition lists with precomputed sparse ε-closures.
struct SparseNfa<'a> {
    nfa: &'a Nfa<Symbol>,
    closures: Vec<Vec<u32>>,
    init: Vec<u32>,
}

impl<'a> SparseNfa<'a> {
    fn new(nfa: &'a Nfa<Symbol>) -> SparseNfa<'a> {
        let closures =
            (0..nfa.num_states().max(1) as u32).map(|q| nfa.epsilon_closure(&[q])).collect();
        SparseNfa { nfa, closures, init: nfa.epsilon_closure(nfa.initial()) }
    }
}

impl Constraint for SparseNfa<'_> {
    fn num_states(&self) -> usize {
        self.closures.len()
    }

    fn for_each_initial(&self, f: impl FnMut(u32)) {
        self.init.iter().copied().for_each(f);
    }

    fn is_accepting(&self, q: u32) -> bool {
        self.nfa.is_accepting(q)
    }

    #[inline]
    fn step(&self, q: u32, label: Symbol, mut f: impl FnMut(u32)) {
        for (t, nq) in self.nfa.transitions_from(q) {
            if *t == label {
                self.closures[*nq as usize].iter().copied().for_each(&mut f);
            }
        }
    }
}

/// The compiled simulation tables of a constraint.
struct Tables<'a> {
    sim: &'a CompactNfa<Symbol>,
    /// Merged symbol → dense sim symbol id (`None`, or past the end: the
    /// constraint never reads this label, so the edge is dead for this
    /// variable).
    label_map: Vec<Option<u32>>,
    init: StateSet,
}

impl<'a> Tables<'a> {
    fn new(sim: &'a CompactNfa<Symbol>) -> Tables<'a> {
        let len = sim.symbols().iter().map(|s| s.index() + 1).max().unwrap_or(0);
        let mut label_map = vec![None; len];
        for (sid, sym) in sim.symbols().iter().enumerate() {
            label_map[sym.index()] = Some(sid as u32);
        }
        Tables { sim, label_map, init: sim.initial_set() }
    }
}

impl Constraint for Tables<'_> {
    fn num_states(&self) -> usize {
        self.sim.num_states().max(1)
    }

    fn for_each_initial(&self, f: impl FnMut(u32)) {
        self.init.iter().for_each(f);
    }

    fn is_accepting(&self, q: u32) -> bool {
        self.sim.is_accepting(q)
    }

    #[inline]
    fn step(&self, q: u32, label: Symbol, mut f: impl FnMut(u32)) {
        let Some(&Some(sid)) = self.label_map.get(label.index()) else {
            return;
        };
        for (bi, &block) in self.sim.row(q, sid).iter().enumerate() {
            let mut b = block;
            while b != 0 {
                f(bi as u32 * 64 + b.trailing_zeros());
                b &= b - 1;
            }
        }
    }
}

/// BFS state, allocated once per call and reset per source by replaying
/// what the source touched — a sparse BFS costs O(|visited pairs|), not
/// O(n·s/64), per start node.
struct Scratch {
    /// Dense bitset over `(node, state)` pairs, `node * s + state`.
    visited: Vec<u64>,
    /// Words of `visited` written for the current source.
    touched: Vec<usize>,
    /// Nodes already reported for the current source.
    result: Vec<bool>,
    stack: Vec<(u32, u32)>,
    hits: Vec<NodeId>,
}

/// Marks `(node, q)` visited; on first visit, queues it and reports `node`
/// if `q` accepts.
#[inline(always)]
fn visit<C: Constraint>(c: &C, s: usize, node: u32, q: u32, sc: &mut Scratch) {
    let bit = node as usize * s + q as usize;
    let (word, mask) = (bit / 64, 1u64 << (bit % 64));
    if sc.visited[word] & mask != 0 {
        return;
    }
    sc.visited[word] |= mask;
    sc.touched.push(word);
    if c.is_accepting(q) && !sc.result[node as usize] {
        sc.result[node as usize] = true;
        sc.hits.push(NodeId(node));
    }
    sc.stack.push((node, q));
}

/// The kernel: one BFS per start node over `(node, constraint-state)` pairs
/// of the product of `adj` with `c`. Returns, per source and in `sources`
/// order, the sorted nodes reachable in an accepting state.
pub(crate) fn product_rows<A: Successors, C: Constraint>(
    adj: &A,
    c: &C,
    sources: &[u32],
) -> Vec<Vec<NodeId>> {
    let n = adj.num_nodes();
    let s = c.num_states();
    let mut sc = Scratch {
        visited: vec![0u64; (n * s).div_ceil(64).max(1)],
        touched: Vec::new(),
        result: vec![false; n],
        stack: Vec::new(),
        hits: Vec::new(),
    };
    let sc = &mut sc;
    sources
        .iter()
        .map(|&u| {
            c.for_each_initial(|q| visit(c, s, u, q, sc));
            while let Some((v, q)) = sc.stack.pop() {
                adj.for_each(v, |label, to| c.step(q, label, |nq| visit(c, s, to, nq, sc)));
            }
            for &w in &sc.touched {
                sc.visited[w] = 0;
            }
            sc.touched.clear();
            let mut hits = std::mem::take(&mut sc.hits);
            for h in &hits {
                sc.result[h.index()] = false;
            }
            hits.sort_unstable();
            hits
        })
        .collect()
}

/// The rows of path variable `p`'s relation from `sources` over `adj`,
/// stepping whichever constraint form the prepared query holds for `p`.
/// With `rev`, `adj` is a reverse adjacency and the constraint is reversed
/// to match (the sparse reversal is built per call — that arm is rare and
/// the reversal is linear in the automaton, dwarfed by the BFS passes).
/// Compiled tables come from the prepared query's (and, for
/// single-projection constraints, the relation's) cache — recorded in
/// `stats` as a hit or miss, fetched once per call.
pub(crate) fn reach_rows<A: Successors>(
    pq: &PreparedQuery,
    p: usize,
    rev: bool,
    adj: &A,
    sources: &[u32],
    stats: &mut EvalStats,
) -> Vec<Vec<NodeId>> {
    match pq.unary[p].as_ref() {
        None => product_rows(adj, &Unconstrained, sources),
        Some(u) if !u.dense => {
            let reversed;
            let nfa = if rev {
                reversed = u.nfa.reverse();
                &reversed
            } else {
                &*u.nfa
            };
            product_rows(adj, &SparseNfa::new(nfa), sources)
        }
        Some(_) => {
            let sim = if rev { pq.unary_rev_sim(p, stats) } else { pq.unary_sim(p, stats) };
            product_rows(adj, &Tables::new(&sim), sources)
        }
    }
}

/// Computes the reachability relation of path variable `p` over the bound
/// plan's graph, with the default plan: all-sources forward BFS. Callers on
/// the planned path use [`reachability_planned`] instead.
pub(crate) fn reachability(bound: &BoundPlan<'_>, p: usize, stats: &mut EvalStats) -> ReachRel {
    reachability_planned(bound, p, &AtomPlan::forward_full(), stats)
}

/// Computes the reachability relation of path variable `p` over the bound
/// plan's graph, following the planned strategy of `atom`.
///
/// Under [`Direction::Reverse`] the BFS walks the reverse CSR with the
/// reversed constraint automaton: a reverse walk from `t` reading the
/// reversed word visits exactly the nodes `u` with a satisfying `u → t`
/// path, so each start computes one `bwd` row and `fwd` follows by
/// transposition — the same relation, built from the side the planner
/// estimates to have the smaller frontier. A pinned atom (`atom.pin`)
/// restricts the BFS to that single start node: the planner only pins a
/// variable that is a constant in every probe of this relation, so the
/// missing rows are never read.
pub(crate) fn reachability_planned(
    bound: &BoundPlan<'_>,
    p: usize,
    atom: &AtomPlan,
    stats: &mut EvalStats,
) -> ReachRel {
    let n = bound.graph.num_nodes();
    let rev = atom.dir == Direction::Reverse;
    let sources: Vec<u32> = match atom.pin {
        Some(c) => vec![c.0],
        None => (0..n as u32).collect(),
    };
    let rows = reach_rows(bound.pq, p, rev, bound.csr(rev), &sources, stats);
    // Scatter per-source rows into a full table (a pinned BFS leaves every
    // other row empty); the other side follows by transposition.
    let mut primary: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (row, &src) in rows.into_iter().zip(&sources) {
        primary[src as usize] = row;
    }
    let rel = ReachRel::from_fwd(primary);
    if rev {
        ReachRel { fwd: rel.bwd, bwd: rel.fwd }
    } else {
        rel
    }
}
