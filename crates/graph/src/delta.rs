//! Live graphs: a mutable edge delta over an immutable base.
//!
//! The server's catalog publishes immutable `Arc<GraphDb>` snapshots;
//! readers pin the `Arc` they resolved and never observe a write. Writes
//! land in an [`EdgeDelta`] — a novelty layer recording added edges, removal
//! tombstones against the base, and any nodes/labels the batch introduced —
//! owned by a [`LiveGraph`]. Reads that must see the writes evaluate over
//! the [`GraphView`] overlay (base rows filtered by tombstones, plus the
//! delta rows). When the accumulated delta crosses a threshold,
//! [`LiveGraph::apply`] writes the next epoch's CSR arrays and name arena
//! directly from the base's and the delta's, and hands the new `GraphDb`
//! back for the catalog to swap in; old readers keep their pinned `Arc`s.

use crate::graph::{Csr, Edge, GraphDb, Names, NodeId};
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// Default number of applied mutation operations that triggers a merge.
pub const DEFAULT_MERGE_THRESHOLD: usize = 4096;

/// An in-memory edge delta over an immutable base graph.
///
/// All node ids and symbols are in *overlay* space: node ids `>=
/// base.num_nodes()` and symbols `>= base alphabet len` denote nodes/labels
/// the delta introduced. The overlay alphabet starts as a clone of the
/// base's and grows by interning.
#[derive(Debug)]
pub struct EdgeDelta {
    /// Overlay alphabet: base labels plus any the delta interned.
    alphabet: Alphabet,
    /// Number of nodes in the base (ids below this live in the base).
    base_nodes: usize,
    /// Number of base-alphabet labels.
    base_labels: usize,
    /// Number of live added edge instances (cancelled adds excluded).
    added: usize,
    /// Added edges grouped by source / target for overlay row reads.
    added_out: HashMap<u32, Vec<(Symbol, NodeId)>>,
    added_in: HashMap<u32, Vec<(Symbol, NodeId)>>,
    /// Removal tombstones against base edges, as `(from, label, to)` raw ids.
    removed: HashSet<(u32, u32, u32)>,
    /// How many base edge instances the tombstones cover.
    removed_base_instances: usize,
    /// Names of delta-introduced nodes (id = `base_nodes + index`); a
    /// delta only introduces named nodes.
    new_names: Vec<String>,
    new_name_index: HashMap<String, NodeId>,
    /// Applied operations since creation (adds + removes), for the merge
    /// threshold.
    ops: usize,
}

impl EdgeDelta {
    fn new(base: &GraphDb) -> EdgeDelta {
        EdgeDelta {
            alphabet: base.alphabet().clone(),
            base_nodes: base.num_nodes(),
            base_labels: base.alphabet().len(),
            added: 0,
            added_out: HashMap::new(),
            added_in: HashMap::new(),
            removed: HashSet::new(),
            removed_base_instances: 0,
            new_names: Vec::new(),
            new_name_index: HashMap::new(),
            ops: 0,
        }
    }

    /// Total nodes in the overlay (base plus delta-introduced).
    pub fn num_nodes(&self) -> usize {
        self.base_nodes + self.new_names.len()
    }

    /// The overlay alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Applied operations (adds + removes) since the last merge.
    pub fn ops(&self) -> usize {
        self.ops
    }

    /// True if nothing has been applied since the last merge.
    pub fn is_empty(&self) -> bool {
        self.ops == 0
    }

    fn add_new_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.num_nodes() as u32);
        self.new_names.push(name.to_string());
        self.new_name_index.insert(name.to_string(), id);
        id
    }
}

/// A read view over `base + delta`: the graph the next merge will produce.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    /// The immutable base graph.
    pub base: &'a GraphDb,
    /// The pending delta.
    pub delta: &'a EdgeDelta,
}

impl<'a> GraphView<'a> {
    /// Total nodes in the overlay.
    pub fn num_nodes(&self) -> usize {
        self.delta.num_nodes()
    }

    /// Total edges in the overlay.
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() - self.delta.removed_base_instances + self.delta.added
    }

    /// The overlay alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        self.delta.alphabet()
    }

    /// Calls `f(label, target)` for every outgoing edge of `v` in the
    /// overlay: live base edges (tombstones filtered) then delta edges.
    pub fn for_each_out(&self, v: NodeId, mut f: impl FnMut(Symbol, NodeId)) {
        if (v.index()) < self.delta.base_nodes {
            for &(l, t) in self.base.out_edges(v) {
                if !self.delta.removed.contains(&(v.0, l.index() as u32, t.0)) {
                    f(l, t);
                }
            }
        }
        if let Some(row) = self.delta.added_out.get(&v.0) {
            for &(l, t) in row {
                f(l, t);
            }
        }
    }

    /// Calls `f(label, source)` for every incoming edge of `v` in the
    /// *union* graph `base ∪ added` — tombstones ignored. This is a
    /// supergraph of the current overlay (a cancelled add is in neither),
    /// which is what incremental maintenance walks backwards from a batch's
    /// changed edges to find the sources whose reachability it can change.
    pub fn for_each_in_unfiltered(&self, v: NodeId, mut f: impl FnMut(Symbol, NodeId)) {
        if (v.index()) < self.delta.base_nodes {
            for &(l, s) in self.base.in_edges(v) {
                f(l, s);
            }
        }
        if let Some(row) = self.delta.added_in.get(&v.0) {
            for &(l, s) in row {
                f(l, s);
            }
        }
    }

    /// Looks a node up by name (base first, then delta-introduced nodes).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.base.node_by_name(name).or_else(|| self.delta.new_name_index.get(name).copied())
    }

    /// The name of a node, if it has one (base first, then
    /// delta-introduced nodes).
    pub fn node_name(&self, node: NodeId) -> Option<&'a str> {
        if node.index() < self.delta.base_nodes {
            self.base.node_name(node)
        } else {
            Some(&self.delta.new_names[node.index() - self.delta.base_nodes])
        }
    }
}

/// The per-edge-triple outcome counts of one [`LiveGraph::apply`] batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct ApplyCounts {
    /// Edge instances added.
    pub added: usize,
    /// Edge instances removed (pending adds cancelled + base instances
    /// tombstoned).
    pub removed: usize,
    /// Remove triples that matched no live edge.
    pub missing: usize,
}

/// The resolved form of one applied batch, for incremental maintenance:
/// every changed edge (adds and effective removes) in overlay id space,
/// plus the overlay node count after the batch.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// Edges added by the batch.
    pub adds: Vec<Edge>,
    /// Edges removed by the batch (at least one live instance existed).
    pub removes: Vec<Edge>,
    /// Overlay node count after the batch.
    pub num_nodes: usize,
}

/// What one [`LiveGraph::apply`] call did.
#[derive(Debug)]
pub struct ApplyOutcome {
    /// Per-triple outcome counts.
    pub counts: ApplyCounts,
    /// Monotone version, bumped once per batch.
    pub version: u64,
    /// Overlay node count after the batch.
    pub nodes: usize,
    /// Overlay edge count after the batch.
    pub edges: usize,
    /// Pending delta operations after the batch (0 right after a merge).
    pub pending: usize,
    /// The new sealed epoch, if this batch crossed the merge threshold.
    pub merged: Option<Arc<GraphDb>>,
    /// Total merges performed by this live graph so far.
    pub merges: u64,
    /// The resolved batch, for incremental statement maintenance.
    pub batch: DeltaBatch,
}

/// A mutable graph: an immutable base epoch plus a pending [`EdgeDelta`],
/// merged into a fresh sealed epoch when the delta crosses
/// `merge_threshold` applied operations.
#[derive(Debug)]
pub struct LiveGraph {
    base: Arc<GraphDb>,
    delta: EdgeDelta,
    version: u64,
    merges: u64,
    merge_threshold: usize,
}

impl LiveGraph {
    /// Wraps a base epoch with an empty delta.
    pub fn new(base: Arc<GraphDb>, merge_threshold: usize) -> LiveGraph {
        let delta = EdgeDelta::new(&base);
        LiveGraph { base, delta, version: 0, merges: 0, merge_threshold: merge_threshold.max(1) }
    }

    /// The current base epoch.
    pub fn base(&self) -> &Arc<GraphDb> {
        &self.base
    }

    /// The pending delta.
    pub fn delta(&self) -> &EdgeDelta {
        &self.delta
    }

    /// The overlay read view (base + pending delta).
    pub fn view(&self) -> GraphView<'_> {
        GraphView { base: &self.base, delta: &self.delta }
    }

    /// Pending delta operations.
    pub fn pending(&self) -> usize {
        self.delta.ops
    }

    /// Monotone batch version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Merges performed so far.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// The configured merge threshold.
    pub fn merge_threshold(&self) -> usize {
        self.merge_threshold
    }

    /// Resolves a node token for mutation: an existing name wins; `n<i>`
    /// denotes the anonymous in-range node `i` (mirroring the protocol's
    /// node-resolution rule); anything else becomes a fresh named node.
    fn resolve_or_add(&mut self, token: &str) -> NodeId {
        match self.view().node_by_name(token).or_else(|| self.anon_in_range(token)) {
            Some(id) => id,
            None => self.delta.add_new_node(token),
        }
    }

    /// Applies one batch of edge additions and removals, given as
    /// `(source, label, target)` string triples. Unknown node tokens create
    /// nodes; unknown labels extend the overlay alphabet. Removal takes out
    /// *every* live instance of the triple (parallel duplicates included);
    /// a triple with no live instance counts as `missing`. Crossing the
    /// merge threshold seals `base + delta` into a fresh epoch returned in
    /// [`ApplyOutcome::merged`].
    pub fn apply(
        &mut self,
        adds: &[(String, String, String)],
        removes: &[(String, String, String)],
    ) -> ApplyOutcome {
        let mut counts = ApplyCounts::default();
        let mut batch = DeltaBatch { adds: Vec::new(), removes: Vec::new(), num_nodes: 0 };

        for (f, l, t) in adds {
            let from = self.resolve_or_add(f);
            let to = self.resolve_or_add(t);
            let label = self.delta.alphabet.intern(l);
            let edge = Edge { from, label, to };
            self.delta.added += 1;
            self.delta.added_out.entry(from.0).or_default().push((label, to));
            self.delta.added_in.entry(to.0).or_default().push((label, from));
            self.delta.ops += 1;
            counts.added += 1;
            batch.adds.push(edge);
        }

        for (f, l, t) in removes {
            // A remove never creates nodes or labels: unknown tokens mean
            // the triple cannot match anything live.
            let (from, to, label) = match (
                self.view().node_by_name(f).or_else(|| self.anon_in_range(f)),
                self.view().node_by_name(t).or_else(|| self.anon_in_range(t)),
                self.delta.alphabet.symbol(l),
            ) {
                (Some(from), Some(to), Some(label)) => (from, to, label),
                _ => {
                    counts.missing += 1;
                    continue;
                }
            };
            let mut hit = 0usize;
            // Cancel pending added instances first.
            if let Some(row) = self.delta.added_out.get_mut(&from.0) {
                let before = row.len();
                row.retain(|&(l2, t2)| !(l2 == label && t2 == to));
                hit += before - row.len();
            }
            if hit > 0 {
                if let Some(row) = self.delta.added_in.get_mut(&to.0) {
                    row.retain(|&(l2, f2)| !(l2 == label && f2 == from));
                }
                self.delta.added -= hit;
            }
            // Then tombstone live base instances (only base labels/nodes can
            // have any).
            if from.index() < self.delta.base_nodes
                && to.index() < self.delta.base_nodes
                && label.index() < self.delta.base_labels
            {
                let key = (from.0, label.index() as u32, to.0);
                if !self.delta.removed.contains(&key) {
                    let n = self
                        .base
                        .out_edges(from)
                        .iter()
                        .filter(|&&(l2, t2)| l2 == label && t2 == to)
                        .count();
                    if n > 0 {
                        self.delta.removed.insert(key);
                        self.delta.removed_base_instances += n;
                        hit += n;
                    }
                }
            }
            if hit > 0 {
                counts.removed += hit;
                batch.removes.push(Edge { from, label, to });
            } else {
                counts.missing += 1;
            }
            self.delta.ops += 1;
        }

        self.version += 1;
        batch.num_nodes = self.delta.num_nodes();
        let view = GraphView { base: &self.base, delta: &self.delta };
        let (nodes, edges) = (view.num_nodes(), view.num_edges());

        let merged = if self.delta.ops >= self.merge_threshold { Some(self.merge()) } else { None };
        ApplyOutcome {
            counts,
            version: self.version,
            nodes,
            edges,
            pending: self.delta.ops,
            merged,
            merges: self.merges,
            batch,
        }
    }

    /// `n<i>` ([`NodeId::parse_anon`]) for an in-range *anonymous* node
    /// `i`, mirroring the protocol's resolution rule. Only the base has
    /// anonymous nodes.
    fn anon_in_range(&self, token: &str) -> Option<NodeId> {
        let id = NodeId::parse_anon(token)?;
        (id.index() < self.delta.base_nodes && self.base.node_name(id).is_none()).then_some(id)
    }

    /// Merges `base + delta` into a fresh sealed epoch, resets the delta,
    /// and swaps the new epoch in as this live graph's base. Returns the
    /// new epoch for the caller to publish; returns the *current* base
    /// unchanged if the delta is empty.
    pub fn force_merge(&mut self) -> Arc<GraphDb> {
        if self.delta.is_empty() {
            return Arc::clone(&self.base);
        }
        self.merge()
    }

    /// Writes the next epoch: out-row `v` is base row `v` minus tombstones,
    /// then `added_out[v]` (in-rows likewise from `added_in`); names are the
    /// base's (shared, when the delta added no node) plus the new names;
    /// the alphabet is the overlay's.
    fn merge(&mut self) -> Arc<GraphDb> {
        let (base, delta) = (&*self.base, &self.delta);
        let (n, m) = (delta.num_nodes(), self.view().num_edges());
        let out_dead = delta.removed.iter().map(|&(f, l, t)| (f, (Symbol(l), NodeId(t))));
        let in_dead = delta.removed.iter().map(|&(f, l, t)| (t, (Symbol(l), NodeId(f))));
        let out_edges = merge_rows(&base.out_edges, out_dead.collect(), &delta.added_out, n, m);
        let in_edges = merge_rows(&base.in_edges, in_dead.collect(), &delta.added_in, n, m);
        let names = if delta.new_names.is_empty() {
            Arc::clone(&base.names)
        } else {
            // The merged names are the base's followed by the new ones:
            // extend a copy of the base's index, if it has one, rather than
            // rehash every name on the next lookup.
            let mut arena = base.names.arena.clone();
            for name in &delta.new_names {
                arena.push(Some(name));
            }
            let index = base.names.index.get().map(|index| {
                let mut index = index.clone();
                for v in delta.base_nodes..n {
                    index.insert(&arena, NodeId(v as u32));
                }
                index
            });
            Arc::new(Names { arena, index: index.map_or_else(OnceLock::new, OnceLock::from) })
        };
        let merged = GraphDb::from_parts(delta.alphabet.clone(), names, out_edges, in_edges);
        let merged = Arc::new(merged);
        self.base = Arc::clone(&merged);
        self.delta = EdgeDelta::new(&merged);
        self.merges += 1;
        merged
    }
}

/// One direction of a merged epoch's adjacency over `nodes` nodes: base row
/// `v` without its tombstoned `(v, entry)` pairs in `dead`, then `added[v]`.
/// Tombstones and added rows are sorted by row and walked alongside the
/// nodes, so a row with no tombstone is one `extend_from_slice`.
fn merge_rows(
    base: &Csr,
    mut dead: Vec<(u32, (Symbol, NodeId))>,
    added: &HashMap<u32, Vec<(Symbol, NodeId)>>,
    nodes: usize,
    edges: usize,
) -> Csr {
    dead.sort_unstable_by_key(|&(v, _)| v);
    let mut added: Vec<(u32, &[(Symbol, NodeId)])> =
        added.iter().map(|(&v, row)| (v, row.as_slice())).collect();
    added.sort_unstable_by_key(|&(v, _)| v);
    let (mut dead, mut added) = (dead.as_slice(), added.as_slice());
    let mut out = Csr { off: Vec::with_capacity(nodes + 1), edges: Vec::with_capacity(edges) };
    out.off.push(0);
    for v in 0..nodes as u32 {
        if (v as usize) + 1 < base.off.len() {
            let row = base.row(v as usize);
            let k = dead.iter().take_while(|&&(r, _)| r == v).count();
            if k == 0 {
                out.edges.extend_from_slice(row);
            } else {
                let here = &dead[..k];
                out.edges.extend(row.iter().filter(|&e| !here.iter().any(|(_, d)| d == e)));
                dead = &dead[k..];
            }
        }
        if let Some((&(_, row), rest)) = added.split_first().filter(|((r, _), _)| *r == v) {
            out.edges.extend_from_slice(row);
            added = rest;
        }
        out.off.push(out.edges.len() as u32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(f: &str, l: &str, t: &str) -> (String, String, String) {
        (f.to_string(), l.to_string(), t.to_string())
    }

    fn base() -> Arc<GraphDb> {
        Arc::new(GraphDb::from_edge_list("a x b\nb x c\nc y a\n").unwrap())
    }

    /// Collects the overlay's edges as display triples, sorted.
    fn view_edges(v: &GraphView) -> Vec<(String, String, String)> {
        let display =
            |n: NodeId| v.node_name(n).map_or_else(|| format!("n{}", n.0), str::to_string);
        let mut out = Vec::new();
        for i in 0..v.num_nodes() {
            v.for_each_out(NodeId(i as u32), |l, t| {
                out.push((
                    display(NodeId(i as u32)),
                    v.alphabet().label(l).to_string(),
                    display(t),
                ));
            });
        }
        out.sort();
        out
    }

    /// The merged graph's edges as display triples, sorted.
    fn graph_edges(g: &GraphDb) -> Vec<(String, String, String)> {
        let mut out: Vec<_> = g
            .edges()
            .map(|e| {
                (
                    g.node_display(e.from),
                    g.alphabet().label(e.label).to_string(),
                    g.node_display(e.to),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn adds_removes_and_new_nodes_in_the_overlay() {
        let mut live = LiveGraph::new(base(), 1000);
        let out = live.apply(
            &[triple("c", "x", "d"), triple("d", "z", "a")],
            &[triple("a", "x", "b"), triple("a", "x", "b"), triple("ghost", "x", "a")],
        );
        assert_eq!(out.counts.added, 2);
        assert_eq!(out.counts.removed, 1, "second+ghost removes match nothing");
        assert_eq!(out.counts.missing, 2);
        assert_eq!(out.nodes, 4);
        assert_eq!(out.edges, 4);
        assert!(out.merged.is_none());
        let v = live.view();
        assert_eq!(
            view_edges(&v),
            vec![
                triple("b", "x", "c"),
                triple("c", "x", "d"),
                triple("c", "y", "a"),
                triple("d", "z", "a"),
            ]
        );
        assert_eq!(v.node_by_name("d"), Some(NodeId(3)));
    }

    #[test]
    fn remove_cancels_pending_add_before_tombstoning() {
        let mut live = LiveGraph::new(base(), 1000);
        live.apply(&[triple("a", "x", "b")], &[]);
        // One batch removing the (now two) live instances: the pending add
        // is cancelled AND the base instance tombstoned.
        let out = live.apply(&[], &[triple("a", "x", "b")]);
        assert_eq!(out.counts.removed, 2);
        assert_eq!(out.edges, 2);
        // Re-adding after the tombstone resurrects exactly one instance.
        let out = live.apply(&[triple("a", "x", "b")], &[]);
        assert_eq!(out.edges, 3);
        let merged = live.force_merge();
        assert_eq!(
            graph_edges(&merged),
            vec![triple("a", "x", "b"), triple("b", "x", "c"), triple("c", "y", "a")]
        );
    }

    #[test]
    fn merge_at_threshold_seals_and_matches_the_overlay() {
        let mut live = LiveGraph::new(base(), 3);
        let before = live.apply(&[triple("c", "w", "d")], &[]);
        assert!(before.merged.is_none());
        assert_eq!(before.pending, 1);
        let snapshot = view_edges(&live.view());
        // Crossing the threshold (1 pending + 2 ops) merges.
        let out = live.apply(&[triple("d", "w", "e")], &[triple("b", "x", "c")]);
        let merged = out.merged.expect("threshold crossed");
        assert_eq!(out.pending, 0);
        assert_eq!(out.merges, 1);
        assert_eq!(live.merges(), 1);
        assert!(Arc::ptr_eq(live.base(), &merged));
        let mut want = snapshot;
        want.retain(|t| t != &triple("b", "x", "c"));
        want.push(triple("d", "w", "e"));
        want.sort();
        assert_eq!(graph_edges(&merged), want);
        // The merged epoch is sealed and still resolves names.
        assert!(merged.node_by_name("e").is_some());
        assert_eq!(merged.stats().edges, merged.num_edges() as u64);
        // The overlay over the fresh base equals the merged graph.
        assert_eq!(view_edges(&live.view()), graph_edges(&merged));
    }

    #[test]
    fn overlay_reads_match_a_merge_differentially() {
        // Randomized-ish script (fixed), checked: view == merge result.
        let mut live = LiveGraph::new(base(), 1_000_000);
        let script: Vec<(bool, (String, String, String))> = vec![
            (true, triple("a", "x", "c")),
            (true, triple("n9", "x", "a")), // out-of-range n9 is a *name*
            (false, triple("b", "x", "c")),
            (true, triple("e", "q", "e")), // self-loop, new node+label
            (false, triple("a", "x", "c")),
            (false, triple("nope", "x", "a")),
            (true, triple("b", "x", "c")), // re-add after tombstone
        ];
        for (is_add, t) in &script {
            if *is_add {
                live.apply(std::slice::from_ref(t), &[]);
            } else {
                live.apply(&[], std::slice::from_ref(t));
            }
        }
        let overlay = view_edges(&live.view());
        let merged = live.force_merge();
        assert_eq!(overlay, graph_edges(&merged));
        // Node identity survives the merge: names resolve to the same ids.
        for name in ["a", "b", "c", "n9", "e"] {
            assert!(merged.node_by_name(name).is_some(), "{name} lost in merge");
        }
    }

    /// A merged epoch is exactly the graph a `GraphBuilder` makes from the
    /// surviving edges in insertion order, base names declared first in id
    /// order, then the new names, labels in interning order: the same rows
    /// both ways and the same snapshot bytes. Seeded batches mix parallel
    /// edges, cancelled adds, re-adds after tombstones, and new nodes and
    /// labels, over three merges.
    #[test]
    fn merged_epoch_rows_and_bytes_equal_a_builder_twin() {
        use crate::prng::SplitMix64;
        use crate::snapshot::write_snapshot;
        use crate::GraphBuilder;

        fn note(seen: &mut Vec<String>, s: &str) {
            if !seen.iter().any(|x| x == s) {
                seen.push(s.to_string());
            }
        }
        // Node and label pools grow each round, so later batches introduce
        // new nodes and labels.
        let pick = |rng: &mut SplitMix64, round: usize| {
            let node = |rng: &mut SplitMix64| format!("v{}", rng.gen_index(6 + 3 * round));
            let from = node(rng);
            let label = ["a", "b", "c", "d"][rng.gen_index((2 + round).min(4))];
            (from, label.to_string(), node(rng))
        };
        for seed in 0..16u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let mut edges: Vec<(String, String, String)> = Vec::new();
            for _ in 0..12 {
                let t = pick(&mut rng, 0);
                if rng.gen_index(4) == 0 {
                    edges.push(t.clone());
                }
                edges.push(t);
            }
            let text: String = edges.iter().map(|(f, l, t)| format!("{f} {l} {t}\n")).collect();
            let (mut names, mut labels) = (Vec::new(), Vec::new());
            for (f, l, t) in &edges {
                note(&mut names, f);
                note(&mut names, t);
                note(&mut labels, l);
            }
            let mut live =
                LiveGraph::new(Arc::new(GraphDb::from_edge_list(&text).unwrap()), 1 << 20);
            let mut removed: Vec<(String, String, String)> = Vec::new();
            for round in 1..=3 {
                for _ in 0..4 {
                    let mut adds = Vec::new();
                    for _ in 0..rng.gen_index(5) {
                        let t = match rng.gen_index(3) {
                            0 if !removed.is_empty() => {
                                removed[rng.gen_index(removed.len())].clone()
                            }
                            _ => pick(&mut rng, round),
                        };
                        if rng.gen_index(4) == 0 {
                            adds.push(t.clone());
                        }
                        adds.push(t);
                    }
                    let mut removes = Vec::new();
                    for _ in 0..rng.gen_index(4) {
                        removes.push(match rng.gen_index(3) {
                            0 if !adds.is_empty() => adds[rng.gen_index(adds.len())].clone(),
                            1 if !edges.is_empty() => edges[rng.gen_index(edges.len())].clone(),
                            _ => pick(&mut rng, round + 1),
                        });
                    }
                    live.apply(&adds, &removes);
                    // The reference: adds land first, then each remove takes
                    // out every live instance of its triple.
                    for (f, l, t) in &adds {
                        note(&mut names, f);
                        note(&mut names, t);
                        note(&mut labels, l);
                    }
                    edges.extend(adds);
                    for t in removes {
                        edges.retain(|e| *e != t);
                        removed.push(t);
                    }
                }
                let merged = live.force_merge();
                let mut twin =
                    GraphBuilder::new(Alphabet::from_labels(labels.iter().map(|l| l.as_str())));
                for name in &names {
                    twin.add_named_node(name);
                }
                for (f, l, t) in &edges {
                    let (from, to) = (twin.add_named_node(f), twin.add_named_node(t));
                    twin.add_edge_labeled(from, l, to);
                }
                let twin = twin.build();
                let ctx = format!("seed {seed}, merge {round}");
                assert_eq!(merged.num_nodes(), twin.num_nodes(), "{ctx}");
                for v in twin.nodes() {
                    assert_eq!(merged.out_edges(v), twin.out_edges(v), "{ctx}, out-row {v:?}");
                    assert_eq!(merged.in_edges(v), twin.in_edges(v), "{ctx}, in-row {v:?}");
                }
                let snap = |g: &GraphDb| write_snapshot(g).unwrap();
                assert_eq!(snap(&merged), snap(&twin), "{ctx}, snapshot bytes");
            }
        }
    }

    /// Only the canonical `n<i>` that `node_display` emits names an
    /// anonymous node; `n03` or `n+4` is a fresh named node on an add and
    /// matches nothing on a remove.
    #[test]
    fn only_canonical_anon_tokens_resolve() {
        let base = Arc::new(crate::generators::cycle_graph(6, "a"));
        for (adds, removes, nodes, edges) in [
            (vec![triple("n3", "a", "n4")], vec![], 6, 7),
            (vec![triple("n03", "a", "n+4")], vec![], 8, 7),
            (vec![], vec![triple("n0", "a", "n1")], 6, 5),
            (vec![], vec![triple("n00", "a", "n01")], 6, 6),
        ] {
            let out = LiveGraph::new(Arc::clone(&base), 1000).apply(&adds, &removes);
            assert_eq!((out.nodes, out.edges), (nodes, edges), "{adds:?} {removes:?}");
        }
    }

    /// A merge whose delta added no node shares the base's names and
    /// index; one that added nodes extends a copy of the index, and every
    /// name resolves on the merged epoch.
    #[test]
    fn merges_share_names_until_a_write_adds_a_node() {
        let mut live = LiveGraph::new(base(), 1);
        let b0 = Arc::clone(live.base());
        assert_eq!(b0.node_by_name("c"), Some(NodeId(2)));
        let e1 = live.apply(&[triple("a", "x", "c")], &[]).merged.expect("threshold 1");
        assert!(Arc::ptr_eq(&b0.names, &e1.names));

        let e2 = live.apply(&[triple("a", "y", "d")], &[]).merged.expect("threshold 1");
        assert!(!Arc::ptr_eq(&e1.names, &e2.names));
        assert!(e2.names.index.get().is_some(), "the base's index is carried over");
        assert_eq!(e2.node_by_name("d"), Some(NodeId(3)));
        for v in e2.nodes() {
            assert_eq!(e2.node_by_name(e2.node_name(v).unwrap()), Some(v));
        }
        assert_eq!(e2.node_by_name("e"), None);
    }

    #[test]
    fn force_merge_on_empty_delta_returns_the_same_epoch() {
        let mut live = LiveGraph::new(base(), 10);
        let b0 = Arc::clone(live.base());
        let same = live.force_merge();
        assert!(Arc::ptr_eq(&b0, &same));
        assert_eq!(live.merges(), 0);
    }
}
