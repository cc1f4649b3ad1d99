//! Workload generators: the graph families used by the examples, tests, and
//! the benchmark harness.
//!
//! Each generator corresponds to a scenario the paper motivates: random
//! labeled graphs (data-complexity scaling), string graphs `G_s`
//! (Proposition 3.2 and pattern matching), the regular-expression
//! intersection gadget `G_Σ` (the PSPACE-hardness reduction of Theorem 6.3),
//! RDF-style graphs with a subproperty hierarchy (ρ-queries, Section 4), DNA
//! sequence graphs (alignment, Section 4), layered flight networks (the
//! route-finding example of Section 8.2), and academic-genealogy graphs (the
//! advisor example of the introduction).

use crate::graph::{GraphBuilder, GraphDb, NodeId};
use crate::prng::SplitMix64;
use ecrpq_automata::alphabet::{Alphabet, Symbol};

/// A uniformly random Σ-labeled graph with `num_nodes` nodes and
/// `num_nodes · avg_degree` edges, labels drawn uniformly from `labels`.
pub fn random_graph(num_nodes: usize, avg_degree: f64, labels: &[&str], seed: u64) -> GraphDb {
    random_graph_builder(num_nodes, avg_degree, labels, seed).build()
}

/// [`random_graph`] before it is built, for fixtures that add to it.
pub fn random_graph_builder(
    num_nodes: usize,
    avg_degree: f64,
    labels: &[&str],
    seed: u64,
) -> GraphBuilder {
    let mut g = GraphBuilder::new(Alphabet::from_labels(labels.iter().copied()));
    let nodes = g.add_nodes(num_nodes);
    let syms: Vec<Symbol> = g.alphabet().symbols().collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let num_edges = (num_nodes as f64 * avg_degree).round() as usize;
    for _ in 0..num_edges {
        let from = nodes[rng.gen_index(num_nodes)];
        let to = nodes[rng.gen_index(num_nodes)];
        let label = syms[rng.gen_index(syms.len())];
        g.add_edge(from, label, to);
    }
    g
}

/// A directed cycle of `n` nodes, all edges labeled `label`.
pub fn cycle_graph(n: usize, label: &str) -> GraphDb {
    let mut g = GraphBuilder::default();
    let nodes = g.add_nodes(n);
    for i in 0..n {
        g.add_edge_labeled(nodes[i], label, nodes[(i + 1) % n]);
    }
    g.build()
}

/// The string graph `G_s` of Proposition 3.2: a simple path `v0 → v1 → … →
/// vn` whose i-th edge is labeled with the i-th letter of `word`. Returns the
/// graph together with its first and last nodes.
pub fn string_graph(word: &[&str]) -> (GraphDb, NodeId, NodeId) {
    let mut g = GraphBuilder::default();
    let nodes = g.add_nodes(word.len() + 1);
    for (i, l) in word.iter().enumerate() {
        g.add_edge_labeled(nodes[i], l, nodes[i + 1]);
    }
    (g.build(), nodes[0], *nodes.last().unwrap())
}

/// The graph `G_Σ` used in the PSPACE-hardness proof of Theorem 6.3: for each
/// node `v` and each string `w ∈ Σ*` there is a path starting at `v` labeled
/// `w`. Concretely, nodes `v1…v(n+1)` with an `a_j`-labeled edge between every
/// ordered pair of distinct nodes as prescribed in the proof.
pub fn rei_gadget_graph(labels: &[&str]) -> GraphDb {
    let n = labels.len();
    let mut g = GraphBuilder::new(Alphabet::from_labels(labels.iter().copied()));
    let nodes: Vec<NodeId> = (0..n + 1).map(|i| g.add_named_node(&format!("v{i}"))).collect();
    let syms: Vec<Symbol> = g.alphabet().symbols().collect();
    for i in 0..n + 1 {
        for j in 0..n + 1 {
            if i == j {
                continue;
            }
            // label a_{j-1} if i < j, a_j otherwise (1-based in the paper).
            let label = if i < j { syms[j - 1] } else { syms[j] };
            g.add_edge(nodes[i], label, nodes[j]);
        }
    }
    g.build()
}

/// Description of an RDF-style workload graph for ρ-queries.
pub struct RdfWorkload {
    /// The generated graph.
    pub graph: GraphDb,
    /// Pairs `(a, b)` with property `a` declared a subproperty of `b`.
    pub subproperties: Vec<(Symbol, Symbol)>,
}

/// A synthetic RDF-style graph: `num_entities` entity nodes (named `e0`,
/// `e1`, …) connected by property edges drawn from `num_properties`
/// properties organized in subproperty pairs (property `2i` is a subproperty
/// of property `2i+1`).
pub fn rdf_subproperty_graph(
    num_entities: usize,
    num_properties: usize,
    avg_degree: f64,
    seed: u64,
) -> RdfWorkload {
    assert!(num_properties >= 2);
    let labels: Vec<String> = (0..num_properties).map(|i| format!("p{i}")).collect();
    let mut g = GraphBuilder::new(Alphabet::from_labels(labels.iter().map(|s| s.as_str())));
    let nodes: Vec<NodeId> =
        (0..num_entities).map(|i| g.add_named_node(&format!("e{i}"))).collect();
    let syms: Vec<Symbol> = g.alphabet().symbols().collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let num_edges = (num_entities as f64 * avg_degree).round() as usize;
    for _ in 0..num_edges {
        let from = nodes[rng.gen_index(num_entities)];
        let to = nodes[rng.gen_index(num_entities)];
        let label = syms[rng.gen_index(syms.len())];
        g.add_edge(from, label, to);
    }
    let subproperties: Vec<(Symbol, Symbol)> =
        (0..num_properties / 2).map(|i| (syms[2 * i], syms[2 * i + 1])).collect();
    RdfWorkload { graph: g.build(), subproperties }
}

/// A DNA-style sequence graph: the concatenation of two sequence paths (one
/// per sequence), each with an `eps`-labeled loop on every node so that
/// alignment queries can skip positions as in Section 4. Returns the graph
/// and the endpoints of both sequences.
pub struct SequencePair {
    /// The generated graph.
    pub graph: GraphDb,
    /// Start and end node of the first sequence.
    pub first: (NodeId, NodeId),
    /// Start and end node of the second sequence.
    pub second: (NodeId, NodeId),
}

/// Builds a sequence-pair graph from two words over the DNA alphabet (or any
/// label set). When `with_eps_loops` is set, every node carries an
/// `eps`-labeled self-loop (used by the alignment query of Section 4).
pub fn sequence_pair_graph(seq1: &[&str], seq2: &[&str], with_eps_loops: bool) -> SequencePair {
    let mut g = GraphBuilder::default();
    let build = |g: &mut GraphBuilder, seq: &[&str], tag: &str| -> (NodeId, NodeId) {
        let nodes: Vec<NodeId> =
            (0..seq.len() + 1).map(|i| g.add_named_node(&format!("{tag}{i}"))).collect();
        for (i, l) in seq.iter().enumerate() {
            g.add_edge_labeled(nodes[i], l, nodes[i + 1]);
        }
        (nodes[0], *nodes.last().unwrap())
    };
    let first = build(&mut g, seq1, "s");
    let second = build(&mut g, seq2, "t");
    if with_eps_loops {
        for v in 0..(seq1.len() + seq2.len() + 2) as u32 {
            g.add_edge_labeled(NodeId(v), "eps", NodeId(v));
        }
    }
    SequencePair { graph: g.build(), first, second }
}

/// A random DNA word of the given length over {A, C, G, T}.
pub fn random_dna(len: usize, seed: u64) -> Vec<&'static str> {
    const BASES: [&str; 4] = ["A", "C", "G", "T"];
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len).map(|_| BASES[rng.gen_index(4)]).collect()
}

/// A layered flight network for the route-finding example of Section 8.2:
/// `num_cities` city nodes; each flight between two cities is broken into
/// `segments` consecutive edges labeled with the operating airline, so that
/// occurrence counts of airline labels measure journey time. Returns the
/// graph; city `i` is the named node `city{i}`.
pub fn flight_network(
    num_cities: usize,
    airlines: &[&str],
    flights: usize,
    segments: usize,
    seed: u64,
) -> GraphDb {
    let mut g = GraphBuilder::new(Alphabet::from_labels(airlines.iter().copied()));
    let cities: Vec<NodeId> =
        (0..num_cities).map(|i| g.add_named_node(&format!("city{i}"))).collect();
    let syms: Vec<Symbol> = g.alphabet().symbols().collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for _ in 0..flights {
        let from = cities[rng.gen_index(num_cities)];
        let to = cities[rng.gen_index(num_cities)];
        if from == to {
            continue;
        }
        let airline = syms[rng.gen_index(syms.len())];
        // break the flight into `segments` edges through fresh intermediate nodes
        let mut prev = from;
        for s in 0..segments {
            let next = if s + 1 == segments { to } else { g.add_node() };
            g.add_edge(prev, airline, next);
            prev = next;
        }
    }
    g.build()
}

/// An academic-genealogy graph (the introduction's student–advisor example):
/// a random forest of `advisor`-labeled edges from students to advisors, with
/// `num_people` people. Person `i` is the named node `person{i}`.
pub fn academic_genealogy(num_people: usize, seed: u64) -> GraphDb {
    let mut g = GraphBuilder::new(Alphabet::from_labels(["advisor"]));
    let people: Vec<NodeId> =
        (0..num_people).map(|i| g.add_named_node(&format!("person{i}"))).collect();
    let advisor = g.alphabet().sym("advisor");
    let mut rng = SplitMix64::seed_from_u64(seed);
    for i in 1..num_people {
        // each person has an advisor among earlier people (so the graph is a DAG)
        let adv = people[rng.gen_index(i)];
        g.add_edge(people[i], advisor, adv);
    }
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_has_requested_size() {
        let g = random_graph(50, 3.0, &["a", "b"], 1);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 150);
        assert_eq!(g.alphabet().len(), 2);
        // determinism
        let g2 = random_graph(50, 3.0, &["a", "b"], 1);
        assert_eq!(g.to_edge_list(), g2.to_edge_list());
    }

    #[test]
    fn cycle_and_string_graphs() {
        let c = cycle_graph(5, "e");
        assert_eq!(c.num_nodes(), 5);
        assert_eq!(c.num_edges(), 5);
        let (s, first, last) = string_graph(&["a", "b", "a"]);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.num_edges(), 3);
        assert_ne!(first, last);
        let nfa = s.as_nfa(&[first], &[last]);
        let (a, b) = (s.alphabet().sym("a"), s.alphabet().sym("b"));
        assert!(nfa.accepts(&[a, b, a]));
        assert!(!nfa.accepts(&[a, b]));
    }

    #[test]
    fn rei_gadget_realizes_every_string() {
        let g = rei_gadget_graph(&["a", "b"]);
        assert_eq!(g.num_nodes(), 3);
        // From every node, every string over {a,b} labels some path: check a few.
        let all: Vec<NodeId> = g.nodes().collect();
        let nfa = g.as_nfa(&all, &all);
        let (a, b) = (g.alphabet().sym("a"), g.alphabet().sym("b"));
        for w in [vec![a], vec![b], vec![a, b, a], vec![b, b, b, a], vec![a, a, a, a]] {
            assert!(nfa.accepts(&w), "word {w:?} should label a path in G_Σ");
        }
    }

    #[test]
    fn rdf_workload_shape() {
        let w = rdf_subproperty_graph(30, 4, 2.0, 7);
        assert_eq!(w.graph.num_nodes(), 30);
        assert_eq!(w.subproperties.len(), 2);
    }

    #[test]
    fn sequence_pair_graph_shape() {
        let sp = sequence_pair_graph(&["A", "C", "G"], &["A", "G"], true);
        // 4 + 3 nodes, 3 + 2 sequence edges + 7 eps loops
        assert_eq!(sp.graph.num_nodes(), 7);
        assert_eq!(sp.graph.num_edges(), 5 + 7);
        assert_eq!(sp.first.0, sp.graph.node_by_name("s0").unwrap());
        assert_eq!(sp.second.1, sp.graph.node_by_name("t2").unwrap());
        let dna = random_dna(16, 3);
        assert_eq!(dna.len(), 16);
    }

    #[test]
    fn generators_are_deterministic_across_runs() {
        // Same seed ⇒ identical node count, names, and edge multiset. This
        // pins the SplitMix64-backed generators: the benchmark workloads and
        // the perf-trajectory pipeline rely on seed-stable graphs.
        for seed in [0u64, 1, 7, 0xDEAD_BEEF] {
            let a = random_graph(40, 2.5, &["a", "b", "c"], seed);
            let b = random_graph(40, 2.5, &["a", "b", "c"], seed);
            assert_eq!(a.num_nodes(), b.num_nodes());
            assert_eq!(a.to_edge_list(), b.to_edge_list());

            let a = rdf_subproperty_graph(25, 4, 1.8, seed);
            let b = rdf_subproperty_graph(25, 4, 1.8, seed);
            assert_eq!(a.graph.to_edge_list(), b.graph.to_edge_list());
            assert_eq!(a.subproperties, b.subproperties);

            let a = flight_network(6, &["SQ", "BA"], 15, 3, seed);
            let b = flight_network(6, &["SQ", "BA"], 15, 3, seed);
            assert_eq!(a.to_edge_list(), b.to_edge_list());

            let a = academic_genealogy(12, seed);
            let b = academic_genealogy(12, seed);
            assert_eq!(a.to_edge_list(), b.to_edge_list());

            assert_eq!(random_dna(24, seed), random_dna(24, seed));
        }
        // Different seeds should (overwhelmingly) give different graphs.
        let a = random_graph(40, 2.5, &["a", "b"], 1);
        let b = random_graph(40, 2.5, &["a", "b"], 2);
        assert_ne!(a.to_edge_list(), b.to_edge_list());
    }

    #[test]
    fn flight_network_and_genealogy() {
        let f = flight_network(6, &["SQ", "BA"], 12, 3, 11);
        assert!(f.num_nodes() >= 6);
        assert!(f.num_edges() > 0);
        assert!(f.node_by_name("city0").is_some());
        let a = academic_genealogy(10, 5);
        assert_eq!(a.num_nodes(), 10);
        assert_eq!(a.num_edges(), 9);
    }
}
