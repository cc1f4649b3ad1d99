//! Convolution products of graph databases (Section 5 of the paper).
//!
//! `G⊥` is `G` with a `⊥`-labeled loop added to every node; the m-th
//! convolution `G^m = G⊥ ⊗ … ⊗ G⊥` is a `(Σ⊥)^m`-labeled graph whose nodes
//! are m-tuples of nodes of `G` and whose edges move every component either
//! along a real edge or along its `⊥`-loop. The query evaluator in the core
//! crate explores this product *on the fly* — its convolution search and
//! its answer automata of Proposition 5.2 alike; the explicit
//! materialization here exists only to state and test Theorem 5.1 directly
//! on small graphs (`tests/properties.rs` checks it against the evaluator).

use crate::graph::{GraphDb, NodeId};
use ecrpq_automata::alphabet::{PadSymbol, TupleSym};
use ecrpq_automata::nfa::Nfa;
use std::collections::HashMap;

/// An explicit materialization of the convolution product `G^m`.
#[derive(Clone, Debug)]
pub struct ProductGraph {
    arity: usize,
    node_ids: HashMap<Vec<NodeId>, u32>,
    node_tuples: Vec<Vec<NodeId>>,
    out_edges: Vec<Vec<(TupleSym, u32)>>,
}

impl ProductGraph {
    /// Materializes `G^m`. The node set is `|V|^m`, so keep `m` and the graph
    /// small; the evaluator never calls this.
    pub fn power(graph: &GraphDb, m: usize) -> Self {
        assert!(m >= 1);
        let nodes: Vec<NodeId> = graph.nodes().collect();
        // Enumerate all m-tuples of nodes.
        let mut tuples: Vec<Vec<NodeId>> = vec![Vec::new()];
        for _ in 0..m {
            let mut next = Vec::with_capacity(tuples.len() * nodes.len());
            for t in &tuples {
                for &n in &nodes {
                    let mut t2 = t.clone();
                    t2.push(n);
                    next.push(t2);
                }
            }
            tuples = next;
        }
        let node_ids: HashMap<Vec<NodeId>, u32> =
            tuples.iter().enumerate().map(|(i, t)| (t.clone(), i as u32)).collect();

        // Per-component moves: every real out-edge plus the ⊥-loop.
        let mut out_edges: Vec<Vec<(TupleSym, u32)>> = vec![Vec::new(); tuples.len()];
        for (id, tuple) in tuples.iter().enumerate() {
            // options[i] = moves available to component i: (padded label, target node)
            let options: Vec<Vec<(PadSymbol, NodeId)>> = tuple
                .iter()
                .map(|&v| {
                    let mut opts: Vec<(PadSymbol, NodeId)> =
                        graph.out_edges(v).iter().map(|&(l, to)| (Some(l), to)).collect();
                    opts.push((None, v)); // the ⊥-loop
                    opts
                })
                .collect();
            // Cartesian product of the per-component moves.
            let mut combos: Vec<(Vec<PadSymbol>, Vec<NodeId>)> = vec![(Vec::new(), Vec::new())];
            for opts in &options {
                let mut next = Vec::with_capacity(combos.len() * opts.len());
                for (syms, targets) in &combos {
                    for &(l, to) in opts {
                        let mut s = syms.clone();
                        let mut t = targets.clone();
                        s.push(l);
                        t.push(to);
                        next.push((s, t));
                    }
                }
                combos = next;
            }
            for (syms, targets) in combos {
                let letter = TupleSym::new(syms);
                if letter.is_all_pad() {
                    continue; // the all-⊥ move is never part of a convolution
                }
                let to = node_ids[&targets];
                out_edges[id].push((letter, to));
            }
        }
        ProductGraph { arity: m, node_ids, node_tuples: tuples, out_edges }
    }

    /// Arity of the product.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of product nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_tuples.len()
    }

    /// Number of product edges.
    pub fn num_edges(&self) -> usize {
        self.out_edges.iter().map(|e| e.len()).sum()
    }

    /// The id of a product node given its component tuple.
    pub fn node(&self, tuple: &[NodeId]) -> Option<u32> {
        self.node_ids.get(tuple).copied()
    }

    /// The component tuple of a product node.
    pub fn tuple(&self, id: u32) -> &[NodeId] {
        &self.node_tuples[id as usize]
    }

    /// Views the product as an NFA over `(Σ⊥)^m` with the given initial and
    /// accepting product nodes.
    pub fn as_nfa(&self, initial: &[Vec<NodeId>], accepting: &[Vec<NodeId>]) -> Nfa<TupleSym> {
        let mut nfa = Nfa::new();
        nfa.add_states(self.num_nodes());
        for (from, edges) in self.out_edges.iter().enumerate() {
            for (sym, to) in edges {
                nfa.add_transition(from as u32, sym.clone(), *to);
            }
        }
        let init: Vec<u32> = initial.iter().filter_map(|t| self.node(t)).collect();
        nfa.set_initial(init);
        for t in accepting {
            if let Some(id) = self.node(t) {
                nfa.set_accepting(id, true);
            }
        }
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::alphabet::convolution;

    fn two_cycle() -> GraphDb {
        GraphDb::from_edge_list("a x b\nb y a\n").unwrap()
    }

    #[test]
    fn power_sizes() {
        let g = two_cycle();
        let p1 = ProductGraph::power(&g, 1);
        assert_eq!(p1.num_nodes(), 2);
        let p2 = ProductGraph::power(&g, 2);
        assert_eq!(p2.num_nodes(), 4);
        assert_eq!(p2.arity(), 2);
        // each component has out-degree 1, plus the ⊥-loop ⇒ 2·2 − 1 = 3 moves per node
        assert_eq!(p2.num_edges(), 4 * 3);
    }

    #[test]
    fn product_paths_are_convolutions_of_component_paths() {
        let g = two_cycle();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let p2 = ProductGraph::power(&g, 2);
        // Component 1 walks a→b (label x), component 2 walks b→a→b (labels y x).
        let nfa = p2.as_nfa(&[vec![a, b]], &[vec![b, b]]);
        let (x, y) = (g.alphabet().sym("x"), g.alphabet().sym("y"));
        let conv = convolution(&[&[x][..], &[y, x][..]]);
        assert!(nfa.accepts(&conv));
        // A convolution whose second component is not a valid walk from b is rejected.
        let bad = convolution(&[&[x][..], &[x, x][..]]);
        assert!(!nfa.accepts(&bad));
    }

    #[test]
    fn node_tuple_round_trip() {
        let g = two_cycle();
        let a = g.node_by_name("a").unwrap();
        let b = g.node_by_name("b").unwrap();
        let p2 = ProductGraph::power(&g, 2);
        let id = p2.node(&[a, b]).unwrap();
        assert_eq!(p2.tuple(id), &[a, b]);
        assert!(p2.node(&[a]).is_none());
    }
}
