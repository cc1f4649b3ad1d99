//! Approximate matching and sequence alignment (Section 4 of the paper):
//! deciding whether two DNA sequences are within edit distance k using the
//! regular relation `D≤k` (the textual built-in `edit_le_<k>`), and
//! extracting an alignment's mismatch/gap positions with an ECRPQ whose head
//! contains path variables.
//!
//! Run with `cargo run --example sequence_alignment`.

use ecrpq::prelude::*;
use ecrpq_automata::builtin::levenshtein;
use ecrpq_graph::generators::sequence_pair_graph;

fn main() -> Result<(), QueryError> {
    // -------------------------------------------------- edit-distance checks
    // Two short DNA reads differing by one substitution and one deletion.
    let seq1 = ["A", "C", "G", "T", "A", "C"];
    let seq2 = ["A", "C", "C", "T", "A"];
    let workload = sequence_pair_graph(&seq1, &seq2, false);
    let g = &workload.graph;
    let alphabet = g.alphabet().clone();
    println!("sequence graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    let config = EvalConfig::default();

    // Reference value for comparison.
    let w1: Vec<Symbol> = seq1.iter().map(|l| alphabet.sym(l)).collect();
    let w2: Vec<Symbol> = seq2.iter().map(|l| alphabet.sym(l)).collect();
    println!("Levenshtein distance (dynamic programming): {}", levenshtein(&w1, &w2));

    // ECRPQ check: are the two sequences within edit distance k? The reads
    // are at distance 2, so the sweep crosses from "no" to "yes" at k = 2.
    // (k = 3 works too, but in a debug build its relation automaton, 28,330
    // states over these four labels, takes about 7 s to construct on a
    // 2-vCPU machine — keep the demo snappy.)
    for k in 0..=2 {
        let q = parse_query(
            &format!(
                "Ans() <- (x1, p1, y1), (x2, p2, y2), R(p1, p2) = edit_le_{k}, \
                 x1 = :s0, y1 = :s{}, x2 = :t0, y2 = :t{}",
                seq1.len(),
                seq2.len()
            ),
            &alphabet,
        )?;
        let within = eval::eval_boolean(&q, g, &config)?;
        println!("edit distance ≤ {k}?  {within}");
    }

    // ----------------------------------------------- alignment with k = 1
    // The Section 4 construction: add ε-loops, write each sequence as
    // x0 a1 x1 / y0 b1 y1 with x_i = y_i and (a1, b1) a mismatch or gap, and
    // return the mismatch paths. Here: one substitution between ACGT and ACCT.
    let seq1 = ["A", "C", "G", "T"];
    let seq2 = ["A", "C", "C", "T"];
    let workload = sequence_pair_graph(&seq1, &seq2, true);
    let g = &workload.graph;
    let alphabet = g.alphabet().clone();
    // mismatch relation: single letters (incl. the ε marker) that differ,
    // written as a tuple-letter regex directly in the query text.
    let letters = ["A", "C", "G", "T", "eps"];
    let mut mismatch_expr = String::new();
    for a in letters {
        for b in letters {
            if a != b {
                if !mismatch_expr.is_empty() {
                    mismatch_expr.push('|');
                }
                mismatch_expr.push_str(&format!("<{a},{b}>"));
            }
        }
    }

    let q = parse_query(
        &format!(
            "Ans(a1, b1) <- (x0, m0, x1), (x1, a1, x2), (x2, m1, x3), \
             (y0, n0, y1), (y1, b1, y2), (y2, n1, y3), \
             R(m0, n0) = eq, R(m1, n1) = eq, R(a1, b1) = {mismatch_expr}, \
             x0 = :s0, x3 = :s{}, y0 = :t0, y3 = :t{}",
            seq1.len(),
            seq2.len()
        ),
        &alphabet,
    )?;
    let answers = eval::eval_with_paths(&q, g, &EvalConfig { answer_limit: 3, ..config })?;
    println!("\nalignments of ACGT vs ACCT at distance 1 (up to 3 witnesses):");
    for answer in &answers {
        println!(
            "  mismatch/gap: {}   vs   {}",
            answer.paths[0].display(g),
            answer.paths[1].display(g)
        );
    }
    if answers.is_empty() {
        println!("  (none)");
    }
    Ok(())
}
