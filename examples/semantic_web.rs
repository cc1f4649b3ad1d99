//! Semantic-web associations (Section 4 of the paper): ρ-isomorphic property
//! sequences over an RDF-style graph with a subproperty hierarchy, and
//! ρ-queries that return the witnessing property sequences.
//!
//! The queries are textual; the ρ-isomorphism relation (built from the
//! subproperty table, so not expressible as a regex) is supplied to the
//! parser through the relation registry of [`parse_query_with`].
//!
//! Run with `cargo run --example semantic_web`.

use ecrpq::prelude::*;
use ecrpq_automata::builtin::rho_isomorphism;

fn main() -> Result<(), QueryError> {
    // An RDF-style graph. Properties: `authored ≺ contributedTo`,
    // `advised ≺ influenced`.
    let mut g = GraphBuilder::default();
    let triples = [
        ("turing", "authored", "computability_paper"),
        ("church", "contributedTo", "computability_paper"),
        ("church", "advised", "turing"),
        ("hilbert", "influenced", "church"),
        ("hilbert", "influenced", "turing"),
        ("goedel", "authored", "incompleteness_paper"),
        ("vonneumann", "contributedTo", "incompleteness_paper"),
        ("hilbert", "advised", "vonneumann"),
        ("brouwer", "influenced", "goedel"),
    ];
    for (s, p, o) in triples {
        let sn = g.add_named_node(s);
        let on = g.add_named_node(o);
        g.add_edge_labeled(sn, p, on);
    }
    let g = g.build();
    let alphabet = g.alphabet().clone();
    let subproperties = vec![
        (alphabet.sym("authored"), alphabet.sym("contributedTo")),
        (alphabet.sym("advised"), alphabet.sym("influenced")),
    ];
    println!("RDF-style graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // The ρ-isomorphism relation: equal-length property sequences whose i-th
    // properties are subproperties of one another (here also reflexively).
    // Registered under its name so textual queries can refer to it.
    let rho = rho_isomorphism(&alphabet, &subproperties, true);
    let registry = [("rho_iso", rho)];
    let config = EvalConfig::default();

    // ρ-isoAssociated pairs: Ans(x, y) ← (x, π1, z1), (y, π2, z2), R(π1, π2)
    // restricted to non-empty sequences.
    let associated = parse_query_with(
        "Ans(x, y) <- (x, p1, z1), (y, p2, z2), L(p1) = . .*, L(p2) = . .*, \
         R(p1, p2) = rho_iso",
        &alphabet,
        &registry,
    )?;
    println!("query: {associated}");
    let answers = eval::eval_nodes(&associated, &g, &config)?;
    let mut pairs: Vec<(String, String)> = answers
        .iter()
        .filter(|a| a[0] < a[1])
        .map(|a| (g.node_display(a[0]), g.node_display(a[1])))
        .collect();
    pairs.sort();
    println!("ρ-isoAssociated pairs ({}):", pairs.len());
    for (x, y) in pairs.iter().take(12) {
        println!("  {x} ~ {y}");
    }

    // A ρ-query: fix the two origins and return the witnessing property
    // sequences themselves (paths in the head).
    let rho_query = parse_query_with(
        "Ans(p1, p2) <- (u, p1, z1), (v, p2, z2), L(p1) = . .*, L(p2) = . .*, \
         R(p1, p2) = rho_iso, u = :turing, v = :church",
        &alphabet,
        &registry,
    )?;
    println!("\nwitness property sequences for (turing, church):");
    for answer in eval::eval_with_paths(&rho_query, &g, &config)?.iter().take(6) {
        println!("  π1: {}", answer.paths[0].display(&g));
        println!("  π2: {}", answer.paths[1].display(&g));
        println!();
    }
    Ok(())
}
