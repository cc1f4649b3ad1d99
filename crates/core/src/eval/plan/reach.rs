//! Per-atom reachability: the one `(node, constraint-state)` product BFS.
//!
//! Every reachability relation in the crate — cold runs, membership checks,
//! explain, and the incrementally maintained rows of `eval::delta` — comes
//! out of [`product_rows`]. The kernel is statically generic over *where
//! successors come from* ([`Successors`]: one direction of the bound graph's
//! own adjacency, or a live-graph overlay) and over *how the unary
//! constraint steps* ([`Constraint`]: none, or a compiled automaton's
//! successor lists), so each combination monomorphizes to the loop one
//! would write by hand for it.

use crate::eval::plan::cost::{AtomPlan, Direction};
use crate::eval::plan::EvalStats;
use crate::eval::prepared::{BindArtifacts, BoundPlan, PreparedQuery};
use ecrpq_automata::alphabet::Symbol;
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

/// Where the kernel's successors come from. Labels are the source's own
/// symbols; a constraint is built over [`symbol_map`](Self::symbol_map), so
/// translating them into the merged alphabet costs nothing per edge.
pub(crate) trait Successors {
    /// True when the edges run backwards (in-edges): the kernel then steps
    /// the reversed constraint.
    const REVERSE: bool = false;
    fn num_nodes(&self) -> usize;
    /// The merged-alphabet symbol of each source label.
    fn symbol_map(&self) -> &[Symbol];
    /// Calls `f(label, target)` for every edge leaving `v`.
    fn for_each(&self, v: u32, f: impl FnMut(Symbol, u32));
}

/// One direction of the bound graph's own adjacency — out-edges, or with
/// `IN` in-edges — with the bind's symbol map. The direction is a type
/// parameter, so each one monomorphizes to its own loop.
pub(crate) struct GraphEdges<'a, const IN: bool> {
    pub graph: &'a GraphDb,
    pub symbol_map: &'a [Symbol],
}

impl<const IN: bool> Successors for GraphEdges<'_, IN> {
    const REVERSE: bool = IN;

    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn symbol_map(&self) -> &[Symbol] {
        self.symbol_map
    }

    #[inline]
    fn for_each(&self, v: u32, mut f: impl FnMut(Symbol, u32)) {
        let row = if IN { self.graph.in_edges(NodeId(v)) } else { self.graph.out_edges(NodeId(v)) };
        for &(label, to) in row {
            f(label, to.0);
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

    fn symbol_map(&self) -> &[Symbol] {
        &self.symbol_map
    }

    #[inline]
    fn for_each(&self, v: u32, mut f: impl FnMut(Symbol, u32)) {
        self.view.for_each_out(NodeId(v), |label, to| f(label, to.0));
    }
}

/// How the unary constraint of a path variable steps along an edge label.
pub(crate) trait Constraint {
    fn num_states(&self) -> usize;
    fn for_each_initial(&self, f: impl FnMut(u32));
    fn is_accepting(&self, q: u32) -> bool;
    /// Calls `f` on every state reachable from `q` by reading `label`, a
    /// label of the successor source the constraint was built for.
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

/// The compiled successor lists of a constraint.
struct Tables<'a> {
    sim: &'a CompactNfa<Symbol>,
    /// The successor source's label → dense sim symbol id, the source's
    /// symbol map folded in so an edge costs one lookup (`None`: the
    /// constraint never reads this label, so the edge is dead for this
    /// variable).
    label_map: Vec<Option<u32>>,
    init: StateSet,
}

impl<'a> Tables<'a> {
    fn new(sim: &'a CompactNfa<Symbol>, symbol_map: &[Symbol]) -> Tables<'a> {
        let len = sim.symbols().iter().map(|s| s.index() + 1).max().unwrap_or(0);
        let mut sid_of = vec![None; len];
        for (sid, sym) in sim.symbols().iter().enumerate() {
            sid_of[sym.index()] = Some(sid as u32);
        }
        let label_map =
            symbol_map.iter().map(|s| sid_of.get(s.index()).copied().flatten()).collect();
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
    fn step(&self, q: u32, label: Symbol, f: impl FnMut(u32)) {
        if let Some(sid) = self.label_map[label.index()] {
            self.sim.row(q, sid).iter().copied().for_each(f);
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
/// stepping `p`'s compiled constraint (none when `p` is unconstrained). Over
/// a reverse adjacency ([`Successors::REVERSE`]) the constraint is the
/// reversed automaton, to match. The compiled automaton comes from the
/// prepared query's (and, for single-projection constraints, the
/// relation's) cache — recorded in `stats` as a hit or miss, fetched once
/// per call.
pub(crate) fn reach_rows<A: Successors>(
    pq: &PreparedQuery,
    p: usize,
    adj: &A,
    sources: &[u32],
    stats: &mut EvalStats,
) -> Vec<Vec<NodeId>> {
    if pq.unary[p].is_none() {
        return product_rows(adj, &Unconstrained, sources);
    }
    let sim = if A::REVERSE { pq.unary_rev_sim(p, stats) } else { pq.unary_sim(p, stats) };
    product_rows(adj, &Tables::new(&sim, adj.symbol_map()), sources)
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
/// Under [`Direction::Reverse`] the BFS walks the graph's in-edges with the
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
    let rows = if rev {
        reach_rows(bound.pq, p, &bound.edges::<true>(), &sources, stats)
    } else {
        reach_rows(bound.pq, p, &bound.edges::<false>(), &sources, stats)
    };
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
