//! Σ-labeled graph databases.
//!
//! A graph database is a pair `(V, E)` with `E ⊆ V × Σ × V` (Section 2 of the
//! paper). Nodes are dense integer ids, optionally carrying string names for
//! readability in examples and tests. The graph doubles as an NFA over Σ
//! without initial and final states; [`GraphDb::as_nfa`] fixes those.
//!
//! A [`GraphDb`] is immutable: [`GraphBuilder`] builds one, and a
//! [`LiveGraph`](crate::LiveGraph) merge writes the next one directly.

use crate::stats::GraphStats;
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_automata::nfa::Nfa;
use ecrpq_storage::fnv1a64;
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

    /// The id an anonymous-node token spells, in exactly the form
    /// [`GraphDb::node_display`] emits: `n0`, or `n` followed by digits with
    /// no leading zero. Anything else (`n+1`, `n01`, `n`, an id beyond `u32`)
    /// is `None`. Whether the id is in range and anonymous is the caller's
    /// check.
    pub fn parse_anon(token: &str) -> Option<NodeId> {
        let digits = token.strip_prefix('n')?;
        let canonical = digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        digits.parse().ok().filter(|_| canonical).map(NodeId)
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

/// One direction of a graph's adjacency in compressed-sparse-row form:
/// `edges[off[v] as usize..off[v + 1] as usize]` is node `v`'s row. `off`
/// has `num_nodes + 1` entries and is monotone, so a degree is one
/// subtraction. Two flat allocations per direction are what make a
/// million-edge snapshot reopen a memcpy-bound operation.
#[derive(Clone, Debug)]
pub(crate) struct Csr {
    /// Row offsets into `edges`.
    pub(crate) off: Vec<u32>,
    /// All edges, concatenated in node order.
    pub(crate) edges: Vec<(Symbol, NodeId)>,
}

impl Csr {
    /// Node `v`'s edge list.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[(Symbol, NodeId)] {
        &self.edges[self.off[v] as usize..self.off[v + 1] as usize]
    }

    /// Node `v`'s row length.
    #[inline]
    pub(crate) fn degree(&self, v: usize) -> u32 {
        self.off[v + 1] - self.off[v]
    }
}

/// Per-node optional names as one arena: every name concatenated in node
/// order, plus a `(byte offset, byte length)` span per node into it — zero
/// per-name allocations.
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeNames {
    /// All names, concatenated in node order.
    pub(crate) text: String,
    /// Per-node span into `text`; anonymous nodes carry [`ANON_SPAN`].
    pub(crate) spans: Vec<(u32, u32)>,
}

/// Span marker for an anonymous node in [`NodeNames`].
pub(crate) const ANON_SPAN: (u32, u32) = (u32::MAX, 0);

impl NodeNames {
    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Node `v`'s name, if it has one.
    #[inline]
    pub(crate) fn get(&self, v: usize) -> Option<&str> {
        let (off, len) = self.spans[v];
        if (off, len) == ANON_SPAN {
            None
        } else {
            Some(&self.text[off as usize..(off + len) as usize])
        }
    }

    /// Iterates the per-node optional names in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |v| self.get(v))
    }

    /// Appends the next node's name (`None` for an anonymous node).
    pub(crate) fn push(&mut self, name: Option<&str>) {
        match name {
            Some(s) => {
                self.spans.push((self.text.len() as u32, s.len() as u32));
                self.text.push_str(s);
            }
            None => self.spans.push(ANON_SPAN),
        }
    }
}

/// A graph's node names with their lookup index. A live graph's merged
/// epochs share the base's `Names` while writes introduce no node, so a
/// merge neither copies the arena nor rebuilds the index.
#[derive(Debug, Default)]
pub(crate) struct Names {
    pub(crate) arena: NodeNames,
    /// Name → id lookup, built from `arena` on first use. A snapshot open
    /// leaves it unbuilt (names are validated there without a string map),
    /// so a warm reopen only pays for the index if a query actually
    /// resolves a node constant by name.
    pub(crate) index: OnceLock<NameIndex>,
}

impl Names {
    /// The arena with its index still unbuilt.
    pub(crate) fn new(arena: NodeNames) -> Names {
        Names { arena, index: OnceLock::new() }
    }

    /// The node named `name` (building the index on first use).
    pub(crate) fn lookup(&self, name: &str) -> Option<NodeId> {
        let index = self.index.get_or_init(|| NameIndex::build(&self.arena));
        index.get(&self.arena, name)
    }
}

/// Name → node lookup over a [`NodeNames`] arena: an open-addressing table
/// of node ids, hashed by name and compared against the arena's text. It
/// owns no strings, so building, copying or dropping it is one allocation
/// however many names there are, and a merge that appends names extends a
/// copy of the slots instead of rehashing every name.
#[derive(Clone, Debug, Default)]
pub(crate) struct NameIndex {
    /// Node ids, [`FREE_SLOT`] where empty: zero or a power of two slots,
    /// at most half of them taken.
    slots: Vec<u32>,
    len: usize,
}

/// An empty [`NameIndex`] slot.
const FREE_SLOT: u32 = u32::MAX;

impl NameIndex {
    /// Indexes every named node of `names`.
    pub(crate) fn build(names: &NodeNames) -> NameIndex {
        let mut index = NameIndex::default();
        for v in 0..names.len() {
            if names.get(v).is_some() {
                index.insert(names, NodeId(v as u32));
            }
        }
        index
    }

    /// The node named `name`.
    pub(crate) fn get(&self, names: &NodeNames, name: &str) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = slot_hash(name) & mask;
        loop {
            match self.slots[i] {
                FREE_SLOT => return None,
                v if names.get(v as usize) == Some(name) => return Some(NodeId(v)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Adds node `v`, which must be named in `names` by a name not indexed
    /// yet.
    pub(crate) fn insert(&mut self, names: &NodeNames, v: NodeId) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![FREE_SLOT; (2 * self.slots.len()).max(16)];
            let old = std::mem::replace(&mut self.slots, grown);
            for u in old.into_iter().filter(|&u| u != FREE_SLOT) {
                self.place(names, u);
            }
        }
        self.place(names, v.0);
        self.len += 1;
    }

    fn place(&mut self, names: &NodeNames, v: u32) {
        let name = names.get(v as usize).expect("only named nodes are indexed");
        let mask = self.slots.len() - 1;
        let mut i = slot_hash(name) & mask;
        while self.slots[i] != FREE_SLOT {
            i = (i + 1) & mask;
        }
        self.slots[i] = v;
    }
}

/// FNV-1a of the name, finalized so that its low bits (the slot) depend on
/// every byte: FNV's own low bits see only the low bits of each byte.
fn slot_hash(name: &str) -> usize {
    let h = fnv1a64(name.as_bytes());
    let h = (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h ^ (h >> 29)) as usize
}

/// A Σ-labeled graph database: forward and reverse CSR adjacency plus one
/// name arena. It has no mutating method; [`GraphBuilder`] constructs it.
#[derive(Clone, Debug)]
pub struct GraphDb {
    // Fields are `pub(crate)` so the sibling `snapshot` and `delta` modules
    // can assemble a graph from arrays they have already laid out.
    pub(crate) alphabet: Alphabet,
    pub(crate) names: Arc<Names>,
    pub(crate) out_edges: Csr,
    pub(crate) in_edges: Csr,
    /// Lazily computed planner statistics.
    pub(crate) stats_cache: OnceLock<Arc<GraphStats>>,
}

impl GraphDb {
    /// Assembles a graph from its parts; the statistics are left to be
    /// computed on first use.
    pub(crate) fn from_parts(
        alphabet: Alphabet,
        names: Arc<Names>,
        out_edges: Csr,
        in_edges: Csr,
    ) -> GraphDb {
        GraphDb { alphabet, names, out_edges, in_edges, stats_cache: OnceLock::new() }
    }

    /// The graph with no nodes over an empty alphabet.
    pub fn empty() -> Self {
        GraphBuilder::default().build()
    }

    /// The edge alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Looks up a node by name (building the lazy name index on first use).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.lookup(name)
    }

    /// The name of a node, if it has one.
    pub fn node_name(&self, node: NodeId) -> Option<&str> {
        self.names.arena.get(node.index())
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
        self.names.arena.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.out_edges.edges.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
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

    /// Out-degree of a node (read from the row offsets).
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges.degree(node.index()) as usize
    }

    /// In-degree of a node (read from the row offsets).
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges.degree(node.index()) as usize
    }

    /// Planner statistics for this graph, computed on first use and cached.
    /// Cheap to clone and share: the cache holds an `Arc`.
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
        if self.out_degree(from) <= self.in_degree(to) {
            self.out_edges(from).iter().any(|&(l, t)| l == label && t == to)
        } else {
            self.in_edges(to).iter().any(|&(l, f)| l == label && f == from)
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
            let from = g.add_named_node(parts[0]);
            let to = g.add_named_node(parts[2]);
            g.add_edge_labeled(from, parts[1], to);
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

/// The one way to make a [`GraphDb`]: collects nodes and labeled edges, then
/// [`build`](GraphBuilder::build) seals them into CSR adjacency in both
/// directions in one counting pass.
///
/// Node ids and labels are numbered in first-seen order and every row keeps
/// edge-insertion order, so traversal order and snapshot bytes follow the
/// order of the calls.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    alphabet: Alphabet,
    names: NodeNames,
    index: NameIndex,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder over the given alphabet (more labels may be interned by
    /// [`GraphBuilder::add_edge_labeled`]).
    pub fn new(alphabet: Alphabet) -> Self {
        GraphBuilder { alphabet, ..GraphBuilder::default() }
    }

    /// The edge alphabet so far.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Adds an anonymous node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(None);
        id
    }

    /// Adds `n` anonymous nodes.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node()).collect()
    }

    /// Adds a named node (or returns the existing node with that name).
    pub fn add_named_node(&mut self, name: &str) -> NodeId {
        if let Some(id) = self.index.get(&self.names, name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        self.names.push(Some(name));
        self.index.insert(&self.names, id);
        id
    }

    /// Adds an edge with an already-interned label.
    pub fn add_edge(&mut self, from: NodeId, label: Symbol, to: NodeId) {
        assert!(label.index() < self.alphabet.len(), "label not in alphabet");
        let n = self.names.len();
        assert!(from.index() < n && to.index() < n, "edge endpoint not in the graph");
        self.edges.push(Edge { from, label, to });
    }

    /// Adds an edge, interning the label into the alphabet if necessary.
    pub fn add_edge_labeled(&mut self, from: NodeId, label: &str, to: NodeId) {
        let label = self.alphabet.intern(label);
        self.add_edge(from, label, to);
    }

    /// The sealed graph.
    pub fn build(self) -> GraphDb {
        let n = self.names.len();
        // Counting sort of the edges by row key; stable, so each row lists
        // its edges in insertion order.
        let seal = |key: fn(&Edge) -> (NodeId, (Symbol, NodeId))| {
            let mut off = vec![0u32; n + 1];
            for e in &self.edges {
                off[key(e).0.index() + 1] += 1;
            }
            for v in 0..n {
                off[v + 1] += off[v];
            }
            let mut cursor = off.clone();
            let mut edges = vec![(Symbol(0), NodeId(0)); self.edges.len()];
            for e in &self.edges {
                let (row, entry) = key(e);
                edges[cursor[row.index()] as usize] = entry;
                cursor[row.index()] += 1;
            }
            Csr { off, edges }
        };
        let out_edges = seal(|e| (e.from, (e.label, e.to)));
        let in_edges = seal(|e| (e.to, (e.label, e.from)));
        let names = Names { arena: self.names, index: OnceLock::from(self.index) };
        GraphDb::from_parts(self.alphabet, Arc::new(names), out_edges, in_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GraphDb {
        let mut g = GraphBuilder::default();
        let a = g.add_named_node("a");
        let b = g.add_named_node("b");
        let c = g.add_named_node("c");
        g.add_edge_labeled(a, "x", b);
        g.add_edge_labeled(b, "y", c);
        g.add_edge_labeled(c, "x", a);
        g.build()
    }

    /// The name index finds every named node — across its growth, built
    /// by the builder or lazily from the arena — and nothing else.
    #[test]
    fn name_index_finds_every_name_and_nothing_else() {
        let mut b = GraphBuilder::default();
        let mut ids = Vec::new();
        for i in 0..1000 {
            if i % 7 == 0 {
                b.add_node();
            }
            ids.push(b.add_named_node(&format!("v{i}")));
        }
        assert_eq!(b.add_named_node("v999"), ids[999]);
        let built = b.build();
        let arena = Arc::new(Names::new(built.names.arena.clone()));
        let (out, inc) = (built.out_edges.clone(), built.in_edges.clone());
        let lazy = GraphDb::from_parts(built.alphabet.clone(), arena, out, inc);
        for g in [&built, &lazy] {
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(g.node_by_name(&format!("v{i}")), Some(id));
            }
            for missing in ["v1000", "v01", "n0", ""] {
                assert_eq!(g.node_by_name(missing), None, "{missing:?}");
            }
        }
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
        let mut b = GraphBuilder::default();
        let a1 = b.add_named_node("a");
        let a2 = b.add_named_node("a");
        assert_eq!(a1, a2);
        let anon = b.add_node();
        let g = b.build();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.node_display(a1), "a");
        assert_eq!(g.node_display(anon), format!("n{}", anon.0));
    }

    #[test]
    fn anon_tokens_are_exactly_the_displayed_form() {
        for (token, want) in [("n0", Some(0)), ("n7", Some(7)), ("n10", Some(10))] {
            assert_eq!(NodeId::parse_anon(token), want.map(NodeId), "{token}");
        }
        for token in ["n", "0", "n01", "n00", "n+0", "n-1", "n 1", "n1x", "N1", "n4294967296"] {
            assert_eq!(NodeId::parse_anon(token), None, "{token}");
        }
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
        let mut g = GraphBuilder::default();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge_labeled(a, "e", b);
        let g = g.build();
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

    /// The builder numbers nodes and labels in first-seen order and keeps
    /// every row, both ways, in edge-insertion order — checked against a
    /// naive per-node list built from the same edge list.
    #[test]
    fn builder_graph_equals_the_incrementally_built_graph() {
        for seed in 0..64u64 {
            let edges = random_edges(seed);
            let ctx = format!("seed {seed}");
            let text: String = edges.iter().map(|(f, l, t)| format!("{f} {l} {t}\n")).collect();
            let built = GraphDb::from_edge_list(&text).unwrap();

            fn first_seen(seen: &mut Vec<String>, s: &str) -> u32 {
                match seen.iter().position(|x| x == s) {
                    Some(i) => i as u32,
                    None => {
                        seen.push(s.to_string());
                        seen.len() as u32 - 1
                    }
                }
            }
            let (mut names, mut labels) = (Vec::new(), Vec::new());
            let mut out_rows: Vec<Vec<(Symbol, NodeId)>> = Vec::new();
            let mut in_rows: Vec<Vec<(Symbol, NodeId)>> = Vec::new();
            for (f, l, t) in &edges {
                let from = NodeId(first_seen(&mut names, f));
                let to = NodeId(first_seen(&mut names, t));
                let label = Symbol(first_seen(&mut labels, l));
                out_rows.resize(names.len(), Vec::new());
                in_rows.resize(names.len(), Vec::new());
                out_rows[from.index()].push((label, to));
                in_rows[to.index()].push((label, from));
            }

            assert_eq!(built.num_nodes(), names.len(), "{ctx}");
            assert_eq!(built.num_edges(), edges.len(), "{ctx}");
            let built_labels: Vec<String> =
                built.alphabet().iter().map(|(_, l)| l.to_string()).collect();
            assert_eq!(built_labels, labels, "{ctx}");
            for v in built.nodes() {
                assert_eq!(built.node_name(v), Some(names[v.index()].as_str()), "{ctx}, {v:?}");
                assert_eq!(built.out_edges(v), &out_rows[v.index()][..], "{ctx}, out-row {v:?}");
                assert_eq!(built.in_edges(v), &in_rows[v.index()][..], "{ctx}, in-row {v:?}");
                assert_eq!(built.out_degree(v), out_rows[v.index()].len(), "{ctx}");
                assert_eq!(built.in_degree(v), in_rows[v.index()].len(), "{ctx}");
            }
        }
    }
}
