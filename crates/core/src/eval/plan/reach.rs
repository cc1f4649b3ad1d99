//! Per-atom reachability: the one `(node, constraint-state)` product BFS.
//!
//! Every reachability relation in the crate — cold runs, membership checks,
//! answer automata, `Q_len` and explain (through [`reachability_planned`]),
//! and the incrementally maintained rows of `eval::delta` (through
//! [`reach_rows`]) — comes out of [`product_rows`]. The
//! same kernel, walked backwards from the changed edges of a live-graph
//! batch ([`affected_sources`]), also finds which of those maintained rows
//! the batch can change. The kernel is statically generic over *where
//! successors come from* ([`Successors`]: one direction of the bound graph's
//! own adjacency, or of a live-graph overlay's) and over *how the unary
//! constraint steps* ([`Constraint`]: none, or a compiled automaton's
//! successor lists), so each combination monomorphizes to the loop one
//! would write by hand for it.

use crate::eval::plan::cost::{AtomPlan, Direction};
use crate::eval::plan::EvalStats;
use crate::eval::prepared::{BindArtifacts, BoundPlan, PreparedQuery};
use ecrpq_automata::alphabet::Symbol;
use ecrpq_automata::sim::CompactNfa;
use ecrpq_graph::delta::{DeltaBatch, GraphView};
use ecrpq_graph::{GraphDb, NodeId};
use std::cmp::Ordering;

/// The binary reachability relation of one path variable: which node pairs
/// are connected by a path whose (translated) label satisfies the variable's
/// unary constraints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ReachRel {
    /// Forward adjacency: successors of each node.
    pub fwd: Vec<Vec<NodeId>>,
    /// Backward adjacency: predecessors of each node.
    pub bwd: Vec<Vec<NodeId>>,
    /// The nodes whose forward row is non-empty, ascending: where the
    /// candidate join starts a variable that has nothing to narrow by.
    pub sources: Vec<NodeId>,
    /// The nodes whose backward row is non-empty, ascending.
    pub targets: Vec<NodeId>,
}

impl ReachRel {
    /// The relation with the given sorted successor rows; predecessor rows
    /// follow by transposition.
    pub fn from_fwd(fwd: Vec<Vec<NodeId>>) -> ReachRel {
        let (bwd, sources) = transpose(&fwd);
        let targets = (0..bwd.len() as u32).map(NodeId).filter(|v| !bwd[v.index()].is_empty());
        let targets = targets.collect();
        ReachRel { fwd, bwd, sources, targets }
    }

    /// The relation read backwards.
    pub fn reversed(self) -> ReachRel {
        ReachRel { fwd: self.bwd, bwd: self.fwd, sources: self.targets, targets: self.sources }
    }

    /// Extends the relation with empty rows up to `n` nodes.
    pub fn grow(&mut self, n: usize) {
        self.fwd.resize(n, Vec::new());
        self.bwd.resize(n, Vec::new());
    }

    /// Replaces source `u`'s sorted successor row, moving `u` out of the
    /// predecessor rows of the nodes that left it and into those of the
    /// nodes that joined it.
    pub fn set_row(&mut self, u: NodeId, row: Vec<NodeId>) {
        let ReachRel { fwd, bwd, sources, targets } = self;
        set_member(sources, u, !row.is_empty());
        let old = std::mem::replace(&mut fwd[u.index()], row);
        diff_rows(&old, &fwd[u.index()], |v, joined| {
            let col = &mut bwd[v.index()];
            match col.binary_search(&u) {
                Err(k) if joined => col.insert(k, u),
                Ok(k) if !joined => {
                    col.remove(k);
                }
                _ => {}
            }
            set_member(targets, v, !col.is_empty());
        });
    }

    /// The number of pairs in the relation.
    pub fn pairs(&self) -> u64 {
        self.fwd.iter().map(|row| row.len() as u64).sum()
    }

    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.fwd[u.index()].binary_search(&v).is_ok()
    }
}

/// Walks the sorted rows `old` and `new` together and calls
/// `changed(v, joined)` on each node `v` only one of them holds, with
/// `joined` when that one is `new`.
pub(crate) fn diff_rows(old: &[NodeId], new: &[NodeId], mut changed: impl FnMut(NodeId, bool)) {
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            Ordering::Less => {
                changed(old[i], false);
                i += 1;
            }
            Ordering::Greater => {
                changed(new[j], true);
                j += 1;
            }
            Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    old[i..].iter().for_each(|&v| changed(v, false));
    new[j..].iter().for_each(|&v| changed(v, true));
}

/// Adds `v` to (`present`) or takes it out of the ascending `list`.
fn set_member(list: &mut Vec<NodeId>, v: NodeId, present: bool) {
    match (list.binary_search(&v), present) {
        (Err(k), true) => list.insert(k, v),
        (Ok(k), false) => {
            list.remove(k);
        }
        _ => {}
    }
}

/// The transposed row table, and the sources with a non-empty row. Sources
/// are visited in ascending order, so every transposed row, and the list,
/// comes out sorted, like the input rows.
fn transpose(rows: &[Vec<NodeId>]) -> (Vec<Vec<NodeId>>, Vec<NodeId>) {
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); rows.len()];
    let mut sources = Vec::new();
    for (u, row) in rows.iter().enumerate() {
        if !row.is_empty() {
            sources.push(NodeId(u as u32));
        }
        for &v in row {
            out[v.index()].push(NodeId(u as u32));
        }
    }
    (out, sources)
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

/// The edges of a live-graph overlay, translated like a cold bind on the
/// merged graph would translate them: labels the base alphabet knows go
/// through the bind artifacts' symbol map; a label the delta introduced
/// resolves by name in the query alphabet, and one neither knows becomes a
/// foreign symbol past every alphabet — dead for every constraint, an
/// ordinary edge for an unconstrained variable. Out-edges are the overlay's
/// own; with `IN`, the in-edges are those of `base ∪ added` (tombstones
/// kept), a supergraph of the overlay that maintenance walks backwards
/// ([`affected_sources`]).
pub(crate) struct Overlay<'a, const IN: bool = false> {
    view: GraphView<'a>,
    symbol_map: Vec<Symbol>,
}

impl<'a, const IN: bool> Overlay<'a, IN> {
    pub fn new(view: GraphView<'a>, pq: &PreparedQuery, art: &BindArtifacts) -> Overlay<'a, IN> {
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

impl<const IN: bool> Successors for Overlay<'_, IN> {
    const REVERSE: bool = IN;

    fn num_nodes(&self) -> usize {
        self.view.num_nodes()
    }

    fn symbol_map(&self) -> &[Symbol] {
        &self.symbol_map
    }

    #[inline]
    fn for_each(&self, v: u32, mut f: impl FnMut(Symbol, u32)) {
        if IN {
            self.view.for_each_in_unfiltered(NodeId(v), |label, from| f(label, from.0));
        } else {
            self.view.for_each_out(NodeId(v), |label, to| f(label, to.0));
        }
    }
}

/// How the unary constraint of a path variable steps along an edge label.
pub(crate) trait Constraint {
    fn num_states(&self) -> usize;
    fn initial(&self) -> &[u32];
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

    fn initial(&self) -> &[u32] {
        &[0]
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
        Tables { sim, label_map }
    }
}

impl Constraint for Tables<'_> {
    fn num_states(&self) -> usize {
        self.sim.num_states().max(1)
    }

    fn initial(&self) -> &[u32] {
        self.sim.initial()
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

/// BFS state, allocated once per call and reset per walk by replaying what
/// the walk touched — a sparse BFS costs O(|visited pairs|), not
/// O(n·s/64), per walk.
struct Scratch {
    /// Dense bitset over `(node, state)` pairs, `node * s + state`.
    visited: Vec<u64>,
    /// Words of `visited` written by the current walk.
    touched: Vec<usize>,
    /// Nodes already reported by the current walk.
    result: Vec<bool>,
    stack: Vec<(u32, u32)>,
    hits: Vec<NodeId>,
}

impl Scratch {
    fn new(n: usize, s: usize) -> Scratch {
        Scratch {
            visited: vec![0u64; (n * s).div_ceil(64).max(1)],
            touched: Vec::new(),
            result: vec![false; n],
            stack: Vec::new(),
            hits: Vec::new(),
        }
    }
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

/// The kernel: one BFS over `(node, constraint-state)` pairs of the product
/// of `adj` with `c`, from the `seeds` pairs. Returns the sorted nodes
/// reached in an accepting state, and leaves `sc` reset for the next walk.
fn product_walk<A: Successors, C: Constraint>(
    adj: &A,
    c: &C,
    sc: &mut Scratch,
    seeds: impl IntoIterator<Item = (u32, u32)>,
) -> Vec<NodeId> {
    let s = c.num_states();
    for (node, q) in seeds {
        visit(c, s, node, q, sc);
    }
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
}

/// One product walk per start node, seeded with the constraint's initial
/// states there. Returns, per source and in `sources` order, the sorted
/// nodes reachable in an accepting state.
pub(crate) fn product_rows<A: Successors, C: Constraint>(
    adj: &A,
    c: &C,
    sources: &[u32],
) -> Vec<Vec<NodeId>> {
    let mut sc = Scratch::new(adj.num_nodes(), c.num_states());
    sources
        .iter()
        .map(|&u| product_walk(adj, c, &mut sc, c.initial().iter().map(|&q| (u, q))))
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

/// The sorted sources whose row of path variable `p` `batch` can change. A
/// row `u` changes only if some constraint-satisfying `u`-path, in the
/// graph before or after the batch, uses a changed edge; up to the first one,
/// `(s, l, t)`, it runs `u -w-> s` over unchanged edges, which the graph
/// after the batch has, with `w·l` a prefix of the language. That is one
/// backward product walk over `adj`'s in-edges (a supergraph of the graph
/// after the batch; after a merge, that graph itself), stepping `p`'s
/// reversed table, seeded at every changed edge's `s` in each state an
/// `l`-step of that table enters; `u` is affected when the walk reaches it
/// in an accepting state. The table is trimmed (`dfa::reduce_for_tables`) —
/// every state is entered by some word from an initial state and leaves by
/// some word to an accepting one — so over the walked edges the set is
/// exactly the sources with such a `w`, not a superset. For an
/// unconstrained variable the one state enters itself on every label, and
/// the set is every node that reaches a changed edge's source.
pub(crate) fn affected_sources(
    pq: &PreparedQuery,
    p: usize,
    adj: &Overlay<'_, true>,
    batch: &DeltaBatch,
    stats: &mut EvalStats,
) -> Vec<NodeId> {
    fn walk<C: Constraint>(adj: &Overlay<'_, true>, batch: &DeltaBatch, c: &C) -> Vec<NodeId> {
        let mut seeds = Vec::new();
        for e in batch.adds.iter().chain(&batch.removes) {
            for q in 0..c.num_states() as u32 {
                c.step(q, e.label, |nq| seeds.push((e.from.0, nq)));
            }
        }
        product_walk(adj, c, &mut Scratch::new(adj.num_nodes(), c.num_states()), seeds)
    }
    if pq.unary[p].is_none() {
        return walk(adj, batch, &Unconstrained);
    }
    let sim = pq.unary_rev_sim(p, stats);
    walk(adj, batch, &Tables::new(&sim, adj.symbol_map()))
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
        rel.reversed()
    } else {
        rel
    }
}
