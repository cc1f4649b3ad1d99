//! Σ-labeled graph databases.
//!
//! A graph database is a pair `(V, E)` with `E ⊆ V × Σ × V` (Section 2 of the
//! paper). Nodes are dense integer ids, optionally carrying string names for
//! readability in examples and tests. The graph doubles as an NFA over Σ
//! without initial and final states; [`GraphDb::as_nfa`] fixes those.

use crate::stats::GraphStats;
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_automata::nfa::Nfa;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a graph node (dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A directed edge `(source, label, target)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub from: NodeId,
    /// Edge label.
    pub label: Symbol,
    /// Target node.
    pub to: NodeId,
}

/// Adjacency lists in one of two representations.
///
/// `Rows` is the mutable build form every `add_*` call works on. `Csr` is
/// the sealed form a snapshot open constructs directly from the on-disk
/// compressed-sparse-row arrays: two flat allocations instead of one `Vec`
/// per node, which is what makes a million-edge reopen a memcpy-bound
/// operation. Reads are representation-blind ([`Adjacency::row`]); the first
/// mutation of a sealed graph transparently explodes the CSR back into rows.
#[derive(Clone, Debug)]
pub(crate) enum Adjacency {
    /// One growable edge list per node.
    Rows(Vec<Vec<(Symbol, NodeId)>>),
    /// Sealed CSR: `edges[off[v] as usize..off[v + 1] as usize]` is node
    /// `v`'s list. `off` always has `num_nodes + 1` entries and is monotone.
    Csr {
        /// Row offsets into `edges`.
        off: Vec<u32>,
        /// All edges, concatenated in node order.
        edges: Vec<(Symbol, NodeId)>,
    },
}

impl Default for Adjacency {
    fn default() -> Adjacency {
        Adjacency::Rows(Vec::new())
    }
}

impl Adjacency {
    /// Node `v`'s edge list, in either representation.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[(Symbol, NodeId)] {
        match self {
            Adjacency::Rows(rows) => &rows[v],
            Adjacency::Csr { off, edges } => &edges[off[v] as usize..off[v + 1] as usize],
        }
    }

    /// The mutable row form, exploding a sealed CSR on first use.
    fn rows_mut(&mut self) -> &mut Vec<Vec<(Symbol, NodeId)>> {
        if let Adjacency::Csr { off, edges } = self {
            let rows = (0..off.len().saturating_sub(1))
                .map(|v| edges[off[v] as usize..off[v + 1] as usize].to_vec())
                .collect();
            *self = Adjacency::Rows(rows);
        }
        match self {
            Adjacency::Rows(rows) => rows,
            Adjacency::Csr { .. } => unreachable!("unsealed above"),
        }
    }
}

/// Per-node optional names in one of two representations: growable
/// `Rows`, or a sealed `Arena` (one contiguous string plus `(offset, len)`
/// spans) as constructed by a snapshot open — zero per-name allocations.
/// The first name-mutating call on a sealed table rebuilds the rows.
#[derive(Clone, Debug)]
pub(crate) enum NodeNames {
    /// One optional owned name per node.
    Rows(Vec<Option<String>>),
    /// Sealed arena; anonymous nodes carry the span `(u32::MAX, 0)`.
    Arena {
        /// All names, concatenated in node order.
        text: String,
        /// Per-node `(byte offset, byte length)` into `text`.
        spans: Vec<(u32, u32)>,
    },
}

/// Span marker for an anonymous node in [`NodeNames::Arena`].
const ANON_SPAN: (u32, u32) = (u32::MAX, 0);

impl Default for NodeNames {
    fn default() -> NodeNames {
        NodeNames::Rows(Vec::new())
    }
}

impl NodeNames {
    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        match self {
            NodeNames::Rows(rows) => rows.len(),
            NodeNames::Arena { spans, .. } => spans.len(),
        }
    }

    /// Node `v`'s name, if it has one.
    #[inline]
    pub(crate) fn get(&self, v: usize) -> Option<&str> {
        match self {
            NodeNames::Rows(rows) => rows[v].as_deref(),
            NodeNames::Arena { text, spans } => {
                let (off, len) = spans[v];
                if (off, len) == ANON_SPAN {
                    None
                } else {
                    Some(&text[off as usize..(off + len) as usize])
                }
            }
        }
    }

    /// Iterates the per-node optional names in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |v| self.get(v))
    }

    /// The mutable row form, rebuilding it from a sealed arena on first use.
    fn rows_mut(&mut self) -> &mut Vec<Option<String>> {
        if let NodeNames::Arena { .. } = self {
            let rows = self.iter().map(|name| name.map(str::to_string)).collect();
            *self = NodeNames::Rows(rows);
        }
        match self {
            NodeNames::Rows(rows) => rows,
            NodeNames::Arena { .. } => unreachable!("unsealed above"),
        }
    }
}

/// A Σ-labeled graph database.
#[derive(Clone, Debug, Default)]
pub struct GraphDb {
    // Fields are `pub(crate)` so the sibling `snapshot` module can serialize
    // and reassemble a graph without going through the mutating API (which
    // would re-intern and re-count work the snapshot already recorded).
    pub(crate) alphabet: Alphabet,
    pub(crate) node_names: NodeNames,
    /// Name → id lookup, built lazily from `node_names` on first use. A
    /// snapshot open skips building it entirely (names are validated there
    /// without a string map), so a warm reopen only pays for the index if a
    /// query actually resolves a node constant by name.
    pub(crate) name_index: OnceLock<HashMap<String, NodeId>>,
    pub(crate) out_edges: Adjacency,
    pub(crate) in_edges: Adjacency,
    /// Cached per-node degrees (always in sync with the edge lists), so
    /// `has_edge`'s shorter-endpoint choice and the planner's frontier
    /// estimates read an array instead of touching both edge `Vec` headers.
    pub(crate) out_degree: Vec<u32>,
    pub(crate) in_degree: Vec<u32>,
    pub(crate) num_edges: usize,
    /// Lazily computed planner statistics; cleared by every mutation.
    pub(crate) stats_cache: OnceLock<Arc<GraphStats>>,
}

impl GraphDb {
    /// Creates an empty graph over the given alphabet.
    pub fn new(alphabet: Alphabet) -> Self {
        GraphDb {
            alphabet,
            node_names: NodeNames::default(),
            name_index: OnceLock::new(),
            out_edges: Adjacency::default(),
            in_edges: Adjacency::default(),
            out_degree: Vec::new(),
            in_degree: Vec::new(),
            num_edges: 0,
            stats_cache: OnceLock::new(),
        }
    }

    /// Creates an empty graph with an empty alphabet (labels are interned on
    /// the fly by [`GraphDb::add_edge_labeled`]).
    pub fn empty() -> Self {
        GraphDb::new(Alphabet::new())
    }

    /// The edge alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Mutable access to the alphabet (for interning additional labels).
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        &mut self.alphabet
    }

    /// Adds an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.rows_mut().push(None);
        self.out_edges.rows_mut().push(Vec::new());
        self.in_edges.rows_mut().push(Vec::new());
        self.out_degree.push(0);
        self.in_degree.push(0);
        self.stats_cache.take();
        id
    }

    /// Adds a named node (or returns the existing node with that name).
    /// The hit path is a single probe with no allocation; the name is only
    /// copied when the node is actually new.
    pub fn add_named_node(&mut self, name: &str) -> NodeId {
        if self.name_index.get().is_none() {
            let _ = self.name_index.set(Self::build_name_index(&self.node_names));
        }
        if let Some(&id) = self.name_index.get_mut().expect("built above").get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        let owned = name.to_string();
        self.node_names.rows_mut().push(Some(owned.clone()));
        self.name_index.get_mut().expect("built above").insert(owned, id);
        self.out_edges.rows_mut().push(Vec::new());
        self.in_edges.rows_mut().push(Vec::new());
        self.out_degree.push(0);
        self.in_degree.push(0);
        self.stats_cache.take();
        id
    }

    /// Adds `n` anonymous nodes.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Looks up a node by name (building the lazy name index on first use).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get_or_init(|| Self::build_name_index(&self.node_names)).get(name).copied()
    }

    /// Builds the name → id map from the node table. Last write wins on a
    /// duplicate, but duplicates cannot arise through the mutating API and
    /// snapshot opens reject them before constructing a graph.
    fn build_name_index(node_names: &NodeNames) -> HashMap<String, NodeId> {
        let mut index = HashMap::with_capacity(node_names.len());
        for (v, name) in node_names.iter().enumerate() {
            if let Some(name) = name {
                index.insert(name.to_string(), NodeId(v as u32));
            }
        }
        index
    }

    /// The name of a node, if it has one.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.node_names.get(node.index())
    }

    /// A printable identifier for a node (its name, or `n<i>`).
    pub fn node_display(&self, node: NodeId) -> String {
        match self.node_name(node) {
            Some(n) => n.to_string(),
            None => format!("n{}", node.0),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Adds an edge with an already-interned label.
    pub fn add_edge(&mut self, from: NodeId, label: Symbol, to: NodeId) {
        assert!(label.index() < self.alphabet.len(), "label not in alphabet");
        self.out_edges.rows_mut()[from.index()].push((label, to));
        self.in_edges.rows_mut()[to.index()].push((label, from));
        self.out_degree[from.index()] += 1;
        self.in_degree[to.index()] += 1;
        self.num_edges += 1;
        self.stats_cache.take();
    }

    /// Adds an edge, interning the label into the alphabet if necessary.
    pub fn add_edge_labeled(&mut self, from: NodeId, label: &str, to: NodeId) {
        let sym = self.alphabet.intern(label);
        self.add_edge(from, sym, to);
    }

    /// Removes every instance of the edge `(from, label, to)` — parallel
    /// duplicates included — returning how many were removed. Like every
    /// other mutator this unseals a CSR representation on first use and
    /// invalidates the cached planner statistics.
    pub fn remove_edge(&mut self, from: NodeId, label: Symbol, to: NodeId) -> usize {
        let out = self.out_edges.rows_mut();
        let before = out[from.index()].len();
        out[from.index()].retain(|&(l, t)| !(l == label && t == to));
        let removed = before - out[from.index()].len();
        if removed == 0 {
            return 0;
        }
        self.in_edges.rows_mut()[to.index()].retain(|&(l, f)| !(l == label && f == from));
        self.out_degree[from.index()] -= removed as u32;
        self.in_degree[to.index()] -= removed as u32;
        self.num_edges -= removed;
        self.stats_cache.take();
        removed
    }

    /// A sealed copy of this graph: adjacency as CSR, names as one arena
    /// string — the representation a snapshot open constructs. Used when a
    /// mutation delta is merged into a fresh immutable epoch, so readers of
    /// the published graph get the compact two-allocation form. The stats
    /// cache is left unset (the merge path warms it explicitly if wanted).
    pub fn sealed_copy(&self) -> GraphDb {
        let n = self.num_nodes();
        let seal = |adj: &Adjacency| {
            let mut off = Vec::with_capacity(n + 1);
            let mut edges = Vec::with_capacity(self.num_edges);
            off.push(0u32);
            for v in 0..n {
                edges.extend_from_slice(adj.row(v));
                off.push(edges.len() as u32);
            }
            Adjacency::Csr { off, edges }
        };
        let mut text = String::new();
        let mut spans = Vec::with_capacity(n);
        for name in self.node_names.iter() {
            match name {
                Some(s) => {
                    spans.push((text.len() as u32, s.len() as u32));
                    text.push_str(s);
                }
                None => spans.push(ANON_SPAN),
            }
        }
        GraphDb {
            alphabet: self.alphabet.clone(),
            node_names: NodeNames::Arena { text, spans },
            name_index: OnceLock::new(),
            out_edges: seal(&self.out_edges),
            in_edges: seal(&self.in_edges),
            out_degree: self.out_degree.clone(),
            in_degree: self.in_degree.clone(),
            num_edges: self.num_edges,
            stats_cache: OnceLock::new(),
        }
    }

    /// Outgoing edges of a node as `(label, target)` pairs.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[(Symbol, NodeId)] {
        self.out_edges.row(node.index())
    }

    /// Incoming edges of a node as `(label, source)` pairs.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[(Symbol, NodeId)] {
        self.in_edges.row(node.index())
    }

    /// Out-degree of a node (cached; no edge-list access).
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_degree[node.index()] as usize
    }

    /// In-degree of a node (cached; no edge-list access).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_degree[node.index()] as usize
    }

    /// The full out-degree array, indexed by node id (planner frontier
    /// estimates scan this instead of walking edge lists).
    pub fn out_degrees(&self) -> &[u32] {
        &self.out_degree
    }

    /// The full in-degree array, indexed by node id.
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degree
    }

    /// Planner statistics for this graph, computed on first use and cached
    /// (mutations invalidate the cache). Cheap to clone and share: the cache
    /// holds an `Arc`.
    pub fn stats(&self) -> Arc<GraphStats> {
        Arc::clone(self.stats_cache.get_or_init(|| Arc::new(GraphStats::compute(self))))
    }

    /// True if the graph contains the edge `(from, label, to)`.
    ///
    /// Edge lists are unsorted, so this is a linear scan — O(min(out-degree,
    /// in-degree)) per call, choosing whichever endpoint has the shorter
    /// list. Callers that probe many edges of the same node (e.g. validation
    /// loops) should iterate [`GraphDb::out_edges`] directly instead.
    pub fn has_edge(&self, from: NodeId, label: Symbol, to: NodeId) -> bool {
        if self.out_degree[from.index()] <= self.in_degree[to.index()] {
            self.out_edges.row(from.index()).iter().any(|&(l, t)| l == label && t == to)
        } else {
            self.in_edges.row(to.index()).iter().any(|&(l, f)| l == label && f == from)
        }
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.nodes().flat_map(move |from| {
            self.out_edges(from).iter().map(move |&(label, to)| Edge { from, label, to })
        })
    }

    /// Views the graph as an NFA over Σ with the given initial and accepting
    /// states (nodes), as in the constructions of Sections 5 and 6.
    pub fn as_nfa(&self, initial: &[NodeId], accepting: &[NodeId]) -> Nfa<Symbol> {
        let mut nfa = Nfa::new();
        nfa.add_states(self.num_nodes());
        for e in self.edges() {
            nfa.add_transition(e.from.0, e.label, e.to.0);
        }
        nfa.set_initial(initial.iter().map(|n| n.0).collect());
        for n in accepting {
            nfa.set_accepting(n.0, true);
        }
        nfa
    }

    /// Views the graph as an NFA where every node is both initial and
    /// accepting (used when an atom's endpoints are unconstrained).
    pub fn as_nfa_universal(&self) -> Nfa<Symbol> {
        let all: Vec<NodeId> = self.nodes().collect();
        self.as_nfa(&all, &all)
    }

    /// Nodes reachable from `start` (by edges with any label).
    pub fn reachable_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![start];
        seen[start.index()] = true;
        while let Some(v) = stack.pop() {
            for &(_, to) in self.out_edges(v) {
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        (0..self.num_nodes()).filter(|&i| seen[i]).map(|i| NodeId(i as u32)).collect()
    }

    /// Parses a simple edge-list format: one edge per line, `source label
    /// target`, with `#` comments and blank lines ignored. Node tokens become
    /// named nodes. The result is sealed (see [`GraphBuilder`]).
    pub fn from_edge_list(text: &str) -> Result<GraphDb, String> {
        let mut g = GraphBuilder::default();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(format!(
                    "line {}: expected `source label target`, got `{line}`",
                    lineno + 1
                ));
            }
            let from = g.named_node(parts[0]);
            let to = g.named_node(parts[2]);
            g.edge(from, parts[1], to);
        }
        Ok(g.build())
    }

    /// Renders the graph in the edge-list format accepted by
    /// [`GraphDb::from_edge_list`].
    pub fn to_edge_list(&self) -> String {
        let mut out = String::new();
        for e in self.edges() {
            out.push_str(&format!(
                "{} {} {}\n",
                self.node_display(e.from),
                self.alphabet.label(e.label),
                self.node_display(e.to)
            ));
        }
        out
    }
}

/// Collects named nodes and labeled edges, then builds the sealed graph —
/// CSR adjacency in both directions — in one counting pass: the loaders'
/// constructor ([`GraphDb::from_edge_list`], the server's JSON source).
///
/// Node ids and labels are numbered in first-seen order and every row keeps
/// edge-insertion order, exactly as the same calls through
/// [`GraphDb::add_named_node`] / [`GraphDb::add_edge_labeled`] would number
/// and order them, so traversal order and snapshot bytes do not depend on
/// which way a graph was built.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    alphabet: Alphabet,
    names: Vec<Option<String>>,
    index: HashMap<String, NodeId>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// The node named `name`, added on first sight.
    pub fn named_node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        self.names.push(Some(name.to_string()));
        self.index.insert(name.to_string(), id);
        id
    }

    /// Adds the edge `(from, label, to)`, interning the label on first sight.
    pub fn edge(&mut self, from: NodeId, label: &str, to: NodeId) {
        let label = self.alphabet.intern(label);
        self.edges.push(Edge { from, label, to });
    }

    /// The sealed graph.
    pub fn build(self) -> GraphDb {
        let n = self.names.len();
        // Counting sort of the edges by row key; stable, so each row lists
        // its edges in insertion order.
        let seal = |key: fn(&Edge) -> (NodeId, (Symbol, NodeId))| {
            let mut degree = vec![0u32; n];
            for e in &self.edges {
                degree[key(e).0.index()] += 1;
            }
            let mut off = Vec::with_capacity(n + 1);
            off.push(0u32);
            for &d in &degree {
                off.push(off[off.len() - 1] + d);
            }
            let mut cursor = off.clone();
            let mut edges = vec![(Symbol(0), NodeId(0)); self.edges.len()];
            for e in &self.edges {
                let (row, entry) = key(e);
                edges[cursor[row.index()] as usize] = entry;
                cursor[row.index()] += 1;
            }
            (Adjacency::Csr { off, edges }, degree)
        };
        let (out_edges, out_degree) = seal(|e| (e.from, (e.label, e.to)));
        let (in_edges, in_degree) = seal(|e| (e.to, (e.label, e.from)));
        GraphDb {
            alphabet: self.alphabet,
            node_names: NodeNames::Rows(self.names),
            name_index: OnceLock::from(self.index),
            out_edges,
            in_edges,
            out_degree,
            in_degree,
            num_edges: self.edges.len(),
            stats_cache: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GraphDb {
        let mut g = GraphDb::empty();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        let c = g.add_named_node("c");
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(b, "y", c);
        g.add_edge_labeled(c, "x", a);
        g
    }

    #[test]
    fn build_and_query_structure() {
        let g = small();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let x = g.alphabet().sym("x");
        assert!(g.has_edge(a, x, b));
        assert!(!g.has_edge(b, x, a));
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(a).len(), 1);
    }

    #[test]
    fn named_nodes_are_deduplicated() {
        let mut g = GraphDb::empty();
        let a1 = g.add_named_node("a");
        let a2 = g.add_named_node("a");
        assert_eq!(a1, a2);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.node_display(a1), "a");
        let anon = g.add_node();
        assert_eq!(g.node_display(anon), format!("n{}", anon.0));
    }

    #[test]
    fn as_nfa_recognizes_path_labels() {
        let g = small();
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        let nfa = g.as_nfa(&[a], &[c]);
        let (x, y) = (g.alphabet().sym("x"), g.alphabet().sym("y"));
        assert!(nfa.accepts(&[x, y]));
        assert!(!nfa.accepts(&[x]));
        assert!(nfa.accepts(&[x, y, x, x, y]));
    }

    #[test]
    fn reachability() {
        let mut g = GraphDb::empty();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge_labeled(a, "e", b);
        assert_eq!(g.reachable_from(a), vec![a, b]);
        assert_eq!(g.reachable_from(c), vec![c]);
    }

    #[test]
    fn edge_list_round_trip() {
        let g = small();
        let text = g.to_edge_list();
        let g2 = GraphDb::from_edge_list(&text).unwrap();
        assert_eq!(g2.num_nodes(), 3);
        assert_eq!(g2.num_edges(), 3);
        let a = g2.node_by_name("a").unwrap();
        let b = g2.node_by_name("b").unwrap();
        assert!(g2.has_edge(a, g2.alphabet().sym("x"), b));
    }

    #[test]
    fn edge_list_parse_errors() {
        assert!(GraphDb::from_edge_list("a x").is_err());
        assert!(GraphDb::from_edge_list("# comment\n\n a x b \n").is_ok());
    }

    #[test]
    fn remove_edge_removes_all_parallel_instances() {
        let mut g = GraphDb::empty();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(a, "y", b);
        let x = g.alphabet().sym("x");
        let y = g.alphabet().sym("y");
        assert_eq!(g.remove_edge(a, x, b), 2);
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(a, x, b));
        assert!(g.has_edge(a, y, b));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        // Removing an absent edge is a no-op.
        assert_eq!(g.remove_edge(b, x, a), 0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn sealed_copy_preserves_structure_and_stays_mutable() {
        let g = small();
        let sealed = g.sealed_copy();
        assert!(matches!(sealed.out_edges, Adjacency::Csr { .. }));
        assert!(matches!(sealed.node_names, NodeNames::Arena { .. }));
        assert_eq!(sealed.num_nodes(), g.num_nodes());
        assert_eq!(sealed.num_edges(), g.num_edges());
        assert_eq!(sealed.to_edge_list(), g.to_edge_list());
        let a = sealed.node_by_name("a").unwrap();
        assert_eq!(g.node_by_name("a"), Some(a));
        assert_eq!(sealed.out_edges(a), g.out_edges(a));
    }

    /// Mutating a sealed graph must transparently unseal both the CSR
    /// adjacency and the name arena (the `unreachable!` arms in `rows_mut`),
    /// keep `name_index`/degrees/`num_edges` coherent, and invalidate the
    /// stats cache. Mirrors the open → mutate → query scenario.
    #[test]
    fn sealed_graph_mutation_unseals_and_stays_coherent() {
        let mut sealed = small().sealed_copy();
        // Force the lazy name index and stats cache to exist pre-mutation so
        // the mutation paths must keep/invalidate them correctly.
        assert!(sealed.node_by_name("a").is_some());
        let stale_stats = sealed.stats();
        assert_eq!(stale_stats.edges, 3);

        // Twin built through the never-sealed path, mutated identically.
        let mut twin = small();
        for g in [&mut sealed, &mut twin] {
            let d = g.add_named_node("d");
            let a = g.node_by_name("a").unwrap();
            let b = g.node_by_name("b").unwrap();
            g.add_edge_labeled(a, "z", d);
            g.add_edge_labeled(d, "x", b);
            let x = g.alphabet().sym("x");
            assert_eq!(g.remove_edge(a, x, b), 1);
        }

        assert!(matches!(sealed.out_edges, Adjacency::Rows(_)));
        assert!(matches!(sealed.node_names, NodeNames::Rows(_)));
        assert_eq!(sealed.num_nodes(), twin.num_nodes());
        assert_eq!(sealed.num_edges(), twin.num_edges());
        assert_eq!(sealed.to_edge_list(), twin.to_edge_list());
        assert_eq!(sealed.out_degrees(), twin.out_degrees());
        assert_eq!(sealed.in_degrees(), twin.in_degrees());
        // The name index still resolves old and new names to the same ids.
        for name in ["a", "b", "c", "d"] {
            assert_eq!(sealed.node_by_name(name), twin.node_by_name(name), "name {name}");
        }
        // Stats were recomputed, not served stale.
        let fresh = sealed.stats();
        assert_eq!(fresh.edges, sealed.num_edges() as u64);
        assert_eq!(fresh.nodes, sealed.num_nodes() as u64);
        // Re-sealing the mutated graph round-trips.
        let resealed = sealed.sealed_copy();
        assert_eq!(resealed.to_edge_list(), sealed.to_edge_list());
    }

    /// A seeded random edge list over `v0..v{nodes}` with parallel edges,
    /// self-loops and labels first seen in a random order.
    fn random_edges(seed: u64) -> Vec<(String, String, String)> {
        let mut rng = crate::prng::SplitMix64::seed_from_u64(seed);
        let nodes = 1 + rng.gen_index(12);
        let labels = ["d", "a", "c", "b"];
        let mut edges: Vec<(String, String, String)> = Vec::new();
        for _ in 0..rng.gen_index(4 * nodes + 1) {
            let from = format!("v{}", rng.gen_index(nodes));
            let label = labels[rng.gen_index(labels.len())].to_string();
            let to = match rng.gen_index(4) {
                0 => from.clone(),
                _ => format!("v{}", rng.gen_index(nodes)),
            };
            if rng.gen_index(5) == 0 {
                edges.push((from.clone(), label.clone(), to.clone()));
            }
            edges.push((from, label, to));
        }
        edges
    }

    /// Asserts `a` and `b` are the same graph down to row order, including
    /// the bytes (so the id) of their snapshots.
    fn assert_identical(a: &GraphDb, b: &GraphDb, ctx: &str) {
        assert_eq!(a.num_nodes(), b.num_nodes(), "{ctx}");
        assert_eq!(a.num_edges(), b.num_edges(), "{ctx}");
        let labels = |g: &GraphDb| -> Vec<String> {
            g.alphabet().iter().map(|(_, l)| l.to_string()).collect()
        };
        assert_eq!(labels(a), labels(b), "{ctx}");
        for v in a.nodes() {
            assert_eq!(a.node_name(v), b.node_name(v), "{ctx}, {v:?}");
            assert_eq!(a.out_edges(v), b.out_edges(v), "{ctx}, out-row of {v:?}");
            assert_eq!(a.in_edges(v), b.in_edges(v), "{ctx}, in-row of {v:?}");
        }
        assert_eq!(a.out_degrees(), b.out_degrees(), "{ctx}");
        assert_eq!(a.in_degrees(), b.in_degrees(), "{ctx}");
        let snap = |g: &GraphDb| crate::snapshot::write_snapshot(g).unwrap();
        assert_eq!(snap(a), snap(b), "{ctx}, snapshot bytes");
    }

    /// The loader's CSR constructor builds exactly the graph the per-edge
    /// mutating API builds — same ids, labels, rows in insertion order,
    /// degrees and snapshot bytes — and a later mutation unseals it into
    /// the same graph the mutating API reaches.
    #[test]
    fn builder_graph_equals_the_incrementally_built_graph() {
        for seed in 0..64u64 {
            let edges = random_edges(seed);
            let ctx = format!("seed {seed}");
            let text: String = edges.iter().map(|(f, l, t)| format!("{f} {l} {t}\n")).collect();
            let mut built = GraphDb::from_edge_list(&text).unwrap();
            let mut twin = GraphDb::empty();
            for (f, l, t) in &edges {
                let (from, to) = (twin.add_named_node(f), twin.add_named_node(t));
                twin.add_edge_labeled(from, l, to);
            }
            assert!(matches!(built.out_edges, Adjacency::Csr { .. }), "{ctx}");
            assert!(matches!(built.in_edges, Adjacency::Csr { .. }), "{ctx}");
            assert_identical(&built, &twin, &ctx);

            for g in [&mut built, &mut twin] {
                let fresh = g.add_named_node("fresh");
                let v0 = g.node_by_name("v0").unwrap_or(fresh);
                g.add_edge_labeled(v0, "a", fresh);
                g.add_edge_labeled(fresh, "e", v0);
                if let Some((f, l, t)) = edges.first() {
                    let (f, t) = (g.node_by_name(f).unwrap(), g.node_by_name(t).unwrap());
                    let l = g.alphabet().sym(l);
                    assert!(g.remove_edge(f, l, t) >= 1);
                }
            }
            assert!(matches!(built.out_edges, Adjacency::Rows(_)), "{ctx}");
            assert_identical(&built, &twin, &format!("{ctx}, mutated"));
        }
    }
}
