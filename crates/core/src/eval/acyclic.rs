//! Tests of Theorem 6.5's first part: an acyclic CRPQ is evaluated in
//! polynomial combined complexity by the projecting candidate join (see the
//! module docs of [`crate::eval`]), with no evaluator of its own. A
//! nodes-mode run projects its existential variables away; a paths-mode run
//! enumerates every full assignment and searches each, so the two must give
//! the same head tuples.

#[cfg(test)]
mod tests {
    use crate::eval::{self, EvalConfig};
    use crate::query::Ecrpq;
    use ecrpq_graph::generators;
    use std::collections::BTreeSet;

    #[test]
    fn acyclic_agrees_with_generic_evaluation() {
        let g = generators::random_graph(30, 2.5, &["a", "b"], 42);
        let al = g.alphabet().clone();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "z"])
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .language("p1", "a (a|b)*")
            .language("p2", "b+")
            .build()
            .unwrap();
        let cfg = EvalConfig { answer_limit: usize::MAX, ..EvalConfig::default() };
        let (projected, stats) = eval::eval_nodes_with_stats(&q, &g, &cfg).unwrap();
        assert_eq!(stats.search_states, 0, "an acyclic CRPQ run searches nothing");
        let projected: BTreeSet<_> = projected.into_iter().collect();
        let searched: BTreeSet<_> =
            eval::eval_with_paths(&q, &g, &cfg).unwrap().into_iter().map(|a| a.nodes).collect();
        assert!(!projected.is_empty());
        assert_eq!(projected, searched);
    }
}
