//! Quickstart: building a graph, asking CRPQ and ECRPQ queries in the
//! textual query language, and reading back node and path answers — plus the
//! prepare-once/run-many pipeline.
//!
//! Run with `cargo run --example quickstart`.

use ecrpq::prelude::*;

fn main() -> Result<(), QueryError> {
    // ----------------------------------------------------------------- graph
    // The introduction's academic-genealogy example: a single edge label
    // `advisor` from each student to their advisor.
    let mut g = GraphBuilder::default();
    let people = ["ada", "grace", "alan", "kurt", "alonzo", "david"];
    for p in people {
        g.add_named_node(p);
    }
    for (student, advisor) in [
        ("ada", "alan"),
        ("grace", "kurt"),
        ("alan", "alonzo"),
        ("kurt", "alonzo"),
        ("alonzo", "david"),
    ] {
        let s = g.add_named_node(student);
        let a = g.add_named_node(advisor);
        g.add_edge_labeled(s, "advisor", a);
    }
    let g = g.build();
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    let alphabet = g.alphabet().clone();
    let config = EvalConfig::default();

    // ------------------------------------------------------------------ CRPQ
    // "Who are the academic ancestors of ada?" — a plain regular path query,
    // written in the textual syntax.
    let ancestors = parse_query("Ans(y) <- (x, p, y), L(p) = advisor+, x = :ada", &alphabet)?;
    let answers = eval::eval_nodes(&ancestors, &g, &config)?;
    let mut names: Vec<&str> = answers.iter().map(|a| g.node_name(a[0]).unwrap()).collect();
    names.sort();
    println!("ancestors of ada: {names:?}");

    // ----------------------------------------------------------------- ECRPQ
    // "Pairs of people with same-length advisor chains to a common ancestor" —
    // requires the equal-length relation `el`, beyond CRPQ power.
    let same_generation = parse_query(
        "Ans(x, y) <- (x, p1, z), (y, p2, z), L(p1) = advisor+, L(p2) = advisor+, \
         R(p1, p2) = el",
        &alphabet,
    )?;
    println!("query: {same_generation}");
    let answers = eval::eval_nodes(&same_generation, &g, &config)?;
    let mut pairs: Vec<(String, String)> = answers
        .iter()
        .filter(|a| a[0] != a[1])
        .map(|a| (g.node_display(a[0]), g.node_display(a[1])))
        .collect();
    pairs.sort();
    println!("same-generation pairs: {pairs:?}");

    // ------------------------------------------------------------ path output
    // ECRPQs can also return the witness paths themselves. `p1` appears as a
    // path variable in the body, so `Ans(x, p1)` outputs node + path.
    let witnesses =
        parse_query("Ans(x, p1) <- (x, p1, z), L(p1) = advisor advisor+, z = :david", &alphabet)?;
    for answer in eval::eval_with_paths(&witnesses, &g, &config)? {
        println!(
            "chain of length ≥ 2 from {} to david: {}",
            g.node_display(answer.nodes[0]),
            answer.paths[0].display(&g)
        );
    }

    // -------------------------------------------- prepare once, run many
    // `prepare` compiles the query independently of any graph; `bind` is a
    // cheap per-graph step. Re-running on another graph reuses every
    // compiled automaton (the stats prove it: zero cache misses on reuse).
    let prepared = PreparedQuery::prepare(&same_generation)?;
    let (answers1, stats1) = prepared.bind(&g)?.run_nodes(&config)?;
    let mut g2 = GraphBuilder::default();
    for (student, advisor) in [("x", "y"), ("y", "z"), ("w", "z")] {
        let s = g2.add_named_node(student);
        let a = g2.add_named_node(advisor);
        g2.add_edge_labeled(s, "advisor", a);
    }
    let g2 = g2.build();
    let (answers2, stats2) = prepared.bind(&g2)?.run_nodes(&config)?;
    println!(
        "\nprepared query over two graphs: {} and {} answers; \
         first run compiled {} automata, reuse compiled {} (cache hits: {})",
        answers1.len(),
        answers2.len(),
        stats1.sim_cache_misses,
        stats2.sim_cache_misses,
        stats2.sim_cache_hits,
    );

    // -------------------------------------------------------- answer automata
    // When there are infinitely many answer paths, the full set is returned
    // as an automaton (Proposition 5.2 of the paper).
    let ada = g.node_by_name("ada").unwrap();
    let automaton = eval::answers::answer_automaton(&witnesses, &g, &[ada], &config)?;
    println!(
        "answer automaton for ada: {} states, empty = {}",
        automaton.num_states(),
        automaton.is_empty()
    );
    Ok(())
}
