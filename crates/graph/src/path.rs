//! Paths in graph databases.
//!
//! A path `ρ = v0 a0 v1 a1 … a(m-1) vm` alternates nodes and edge labels; its
//! label `λ(ρ)` is the word `a0 … a(m-1)` (Section 2 of the paper). The empty
//! path `(v, ε, v)` is allowed and has the empty label.

use crate::graph::{GraphDb, NodeId};
use ecrpq_automata::alphabet::Symbol;

/// A path in a graph database.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Path {
    nodes: Vec<NodeId>,
    labels: Vec<Symbol>,
}

impl Path {
    /// The empty path at a node.
    pub fn empty(node: NodeId) -> Self {
        Path { nodes: vec![node], labels: Vec::new() }
    }

    /// Builds a path from its node sequence and label sequence. Panics if the
    /// lengths are inconsistent (`nodes.len() != labels.len() + 1`).
    pub fn new(nodes: Vec<NodeId>, labels: Vec<Symbol>) -> Self {
        assert_eq!(nodes.len(), labels.len() + 1, "inconsistent path shape");
        Path { nodes, labels }
    }

    /// Extends the path by one edge.
    pub fn push(&mut self, label: Symbol, to: NodeId) {
        self.labels.push(label);
        self.nodes.push(to);
    }

    /// First node.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn end(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// Number of edges (the length `|ρ|`).
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label `λ(ρ)` of the path.
    pub fn label(&self) -> &[Symbol] {
        &self.labels
    }

    /// The node sequence of the path.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Counts the occurrences of a given edge label (used by the
    /// occurrence-count extensions of Section 8.2).
    pub fn count_label(&self, label: Symbol) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Checks that every step of the path is an edge of `graph`.
    pub fn is_valid_in(&self, graph: &GraphDb) -> bool {
        self.nodes.windows(2).zip(&self.labels).all(|(w, &l)| graph.has_edge(w[0], l, w[1]))
    }

    /// Renders the path as `v0 -a0-> v1 -a1-> …` using the graph's node names
    /// and alphabet.
    pub fn display(&self, graph: &GraphDb) -> String {
        let mut out = graph.node_display(self.nodes[0]);
        for (i, &l) in self.labels.iter().enumerate() {
            out.push_str(&format!(
                " -{}-> {}",
                graph.alphabet().label(l),
                graph.node_display(self.nodes[i + 1])
            ));
        }
        out
    }

    /// Concatenates two paths; the first must end where the second starts.
    pub fn concat(&self, other: &Path) -> Option<Path> {
        if self.end() != other.start() {
            return None;
        }
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Some(Path { nodes, labels })
    }
}

/// Enumerates all paths of `graph` from `start` with at most `max_len` edges
/// (and at most `limit` paths), in breadth-first order. This is the naive
/// reference used by tests to validate the query evaluators on small graphs.
pub fn enumerate_paths(graph: &GraphDb, start: NodeId, max_len: usize, limit: usize) -> Vec<Path> {
    let mut out = Vec::new();
    let mut frontier = vec![Path::empty(start)];
    for len in 0..=max_len {
        for p in &frontier {
            out.push(p.clone());
            if out.len() >= limit {
                return out;
            }
        }
        if len == max_len {
            break;
        }
        let mut next = Vec::new();
        for p in &frontier {
            for &(label, to) in graph.out_edges(p.end()) {
                let mut np = p.clone();
                np.push(label, to);
                next.push(np);
            }
        }
        frontier = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> GraphDb {
        GraphDb::from_edge_list("a x b\nb y c\nc z a\n").unwrap()
    }

    #[test]
    fn build_and_inspect_path() {
        let g = triangle();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let c = g.node_by_name("c").unwrap();
        let mut p = Path::empty(a);
        assert!(p.is_empty());
        p.push(g.alphabet().sym("x"), b);
        p.push(g.alphabet().sym("y"), c);
        assert_eq!(p.len(), 2);
        assert_eq!(p.start(), a);
        assert_eq!(p.end(), c);
        assert!(p.is_valid_in(&g));
        assert_eq!(p.display(&g), "a -x-> b -y-> c");
        assert_eq!(p.count_label(g.alphabet().sym("x")), 1);
        assert_eq!(p.count_label(g.alphabet().sym("z")), 0);
    }

    #[test]
    fn invalid_paths_are_detected() {
        let g = triangle();
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        let p = Path::new(vec![a, c], vec![g.alphabet().sym("x")]);
        assert!(!p.is_valid_in(&g));
    }

    #[test]
    fn concat_paths() {
        let g = triangle();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let c = g.node_by_name("c").unwrap();
        let p1 = Path::new(vec![a, b], vec![g.alphabet().sym("x")]);
        let p2 = Path::new(vec![b, c], vec![g.alphabet().sym("y")]);
        let joined = p1.concat(&p2).unwrap();
        assert_eq!(joined.len(), 2);
        assert_eq!(joined.end(), c);
        assert!(p2.concat(&p1).is_none());
    }

    #[test]
    fn enumerate_paths_bounded() {
        let g = triangle();
        let a = g.node_by_name("a").unwrap();
        let paths = enumerate_paths(&g, a, 3, 100);
        // one path of each length 0..=3 (the triangle is deterministic)
        assert_eq!(paths.len(), 4);
        assert!(paths.iter().all(|p| p.is_valid_in(&g)));
        assert_eq!(paths.last().unwrap().len(), 3);
        let limited = enumerate_paths(&g, a, 3, 2);
        assert_eq!(limited.len(), 2);
    }
}
