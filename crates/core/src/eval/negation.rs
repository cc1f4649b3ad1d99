//! Queries with negation and quantification: the languages `CRPQ¬` and
//! `ECRPQ¬` of Section 8.1.
//!
//! Formulas are built from atoms — node equality, relational atoms
//! `(x, π, y)`, language atoms `L(π)`, and relation atoms `R(π̄)` — with
//! negation, conjunction, disjunction, and quantification over nodes and
//! paths.
//!
//! * For **CRPQ¬** (only unary language atoms), [`eval_crpq_neg`] implements
//!   the polynomial-data-complexity procedure behind Theorem 8.1(1) /
//!   Theorem 8.2(1): path quantifiers are evaluated over the finite
//!   *representative structure* `M'` of Claim 8.1.1, which keeps, for every
//!   ordered pair of nodes and every profile of the formula's languages, a
//!   bounded number of representative paths (quantifier rank + number of free
//!   path variables).
//! * For **ECRPQ¬** (relation atoms of arity ≥ 2 under negation), the paper
//!   shows evaluation is decidable but non-elementary (Theorem 8.2(2)). This
//!   engine does not implement the non-elementary automaton construction;
//!   instead, [`eval_formula_bounded`] evaluates path quantifiers over all
//!   paths up to an explicit length bound. That bounded semantics coincides
//!   with the real semantics whenever every path relevant to the formula has
//!   length at most the bound — in particular it is exact on acyclic graphs
//!   when the bound is at least the number of nodes — and the deviation is
//!   the caller's explicit choice of bound, never silent.

use crate::error::QueryError;
use crate::eval::EvalConfig;
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_automata::dfa::Dfa;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::relation::RegularRelation;
use ecrpq_automata::Regex;
use ecrpq_graph::{path::enumerate_paths, GraphDb, NodeId, Path};
use std::collections::{HashMap, VecDeque};

/// A formula of `ECRPQ¬` (`CRPQ¬` when no relation atom has arity ≥ 2).
#[derive(Clone, Debug)]
pub enum Formula {
    /// Node equality `x = y`.
    NodeEq(String, String),
    /// Relational atom `(x, π, y)`.
    Edge(String, String, String),
    /// Language atom `L(π)` (unary).
    Lang(String, Nfa<Symbol>),
    /// Relation atom `R(π̄)` (any arity).
    Rel(RegularRelation, Vec<String>),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Existential quantification over nodes.
    ExistsNode(String, Box<Formula>),
    /// Existential quantification over paths.
    ExistsPath(String, Box<Formula>),
    /// Universal quantification over nodes.
    ForallNode(String, Box<Formula>),
    /// Universal quantification over paths.
    ForallPath(String, Box<Formula>),
}

impl Formula {
    /// Atom `(x, π, y)`.
    pub fn edge(x: &str, path: &str, y: &str) -> Formula {
        Formula::Edge(x.to_string(), path.to_string(), y.to_string())
    }

    /// Atom `L(π)` from a regular expression.
    pub fn lang(path: &str, regex: &str, alphabet: &Alphabet) -> Result<Formula, QueryError> {
        let nfa = Regex::parse(regex)
            .map_err(|e| QueryError::Regex(e.to_string()))?
            .compile(alphabet)
            .map_err(|e| QueryError::Regex(e.to_string()))?;
        Ok(Formula::Lang(path.to_string(), nfa))
    }

    /// Atom `R(π̄)`.
    pub fn rel(relation: RegularRelation, paths: &[&str]) -> Formula {
        Formula::Rel(relation, paths.iter().map(|p| p.to_string()).collect())
    }

    /// Node equality.
    pub fn node_eq(x: &str, y: &str) -> Formula {
        Formula::NodeEq(x.to_string(), y.to_string())
    }

    /// Negation.
    // Part of the formula-building DSL (`phi.not().or(...)`); implementing
    // `std::ops::Not` would force the less readable `!phi` at call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Existential node quantification.
    pub fn exists_node(var: &str, body: Formula) -> Formula {
        Formula::ExistsNode(var.to_string(), Box::new(body))
    }

    /// Existential path quantification.
    pub fn exists_path(var: &str, body: Formula) -> Formula {
        Formula::ExistsPath(var.to_string(), Box::new(body))
    }

    /// Universal node quantification.
    pub fn forall_node(var: &str, body: Formula) -> Formula {
        Formula::ForallNode(var.to_string(), Box::new(body))
    }

    /// Universal path quantification.
    pub fn forall_path(var: &str, body: Formula) -> Formula {
        Formula::ForallPath(var.to_string(), Box::new(body))
    }

    /// True if the formula belongs to `CRPQ¬`: no relation atom of arity ≥ 2.
    pub fn is_crpq_neg(&self) -> bool {
        match self {
            Formula::Rel(rel, _) => rel.arity() <= 1,
            Formula::NodeEq(_, _) | Formula::Edge(_, _, _) | Formula::Lang(_, _) => true,
            Formula::Not(f) => f.is_crpq_neg(),
            Formula::And(a, b) | Formula::Or(a, b) => a.is_crpq_neg() && b.is_crpq_neg(),
            Formula::ExistsNode(_, f)
            | Formula::ExistsPath(_, f)
            | Formula::ForallNode(_, f)
            | Formula::ForallPath(_, f) => f.is_crpq_neg(),
        }
    }

    /// Quantifier rank (depth of nested quantification).
    pub fn quantifier_rank(&self) -> usize {
        match self {
            Formula::NodeEq(_, _)
            | Formula::Edge(_, _, _)
            | Formula::Lang(_, _)
            | Formula::Rel(_, _) => 0,
            Formula::Not(f) => f.quantifier_rank(),
            Formula::And(a, b) | Formula::Or(a, b) => a.quantifier_rank().max(b.quantifier_rank()),
            Formula::ExistsNode(_, f)
            | Formula::ExistsPath(_, f)
            | Formula::ForallNode(_, f)
            | Formula::ForallPath(_, f) => 1 + f.quantifier_rank(),
        }
    }

    /// Collects all unary languages appearing in the formula (language atoms
    /// and arity-1 relation atoms).
    fn collect_languages(&self, out: &mut Vec<Nfa<Symbol>>) {
        match self {
            Formula::Lang(_, nfa) => out.push(nfa.clone()),
            Formula::Rel(rel, _) if rel.arity() == 1 => out.push(rel.project(0).as_ref().clone()),
            Formula::Not(f) => f.collect_languages(out),
            Formula::And(a, b) | Formula::Or(a, b) => {
                a.collect_languages(out);
                b.collect_languages(out);
            }
            Formula::ExistsNode(_, f)
            | Formula::ExistsPath(_, f)
            | Formula::ForallNode(_, f)
            | Formula::ForallPath(_, f) => f.collect_languages(out),
            _ => {}
        }
    }
}

/// An assignment of free variables.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    /// Values of free node variables.
    pub nodes: HashMap<String, NodeId>,
    /// Values of free path variables.
    pub paths: HashMap<String, Path>,
}

impl Assignment {
    /// An empty assignment (for sentences).
    pub fn empty() -> Self {
        Assignment::default()
    }

    /// Binds a node variable.
    pub fn with_node(mut self, var: &str, node: NodeId) -> Self {
        self.nodes.insert(var.to_string(), node);
        self
    }

    /// Binds a path variable.
    pub fn with_path(mut self, var: &str, path: Path) -> Self {
        self.paths.insert(var.to_string(), path);
        self
    }
}

/// Evaluates a `CRPQ¬` formula over a graph under the given assignment of its
/// free variables, using the representative-structure construction of
/// Claim 8.1.1. Returns an error if the formula contains a relation atom of
/// arity ≥ 2 (use [`eval_formula_bounded`] for those).
pub fn eval_crpq_neg(
    formula: &Formula,
    graph: &GraphDb,
    alphabet: &Alphabet,
    assignment: &Assignment,
    config: &EvalConfig,
) -> Result<bool, QueryError> {
    if !formula.is_crpq_neg() {
        return Err(QueryError::Unsupported(
            "eval_crpq_neg only handles CRPQ¬ formulas; relation atoms of arity ≥ 2 require \
             eval_formula_bounded"
                .to_string(),
        ));
    }
    // Merge alphabets so graph labels can be translated into formula symbols.
    let mut merged = alphabet.clone();
    let label_map: Vec<Symbol> = graph.alphabet().iter().map(|(_, l)| merged.intern(l)).collect();

    // Determinize every language of the formula over the merged alphabet.
    let mut languages: Vec<Nfa<Symbol>> = Vec::new();
    formula.collect_languages(&mut languages);
    let full_alphabet: Vec<Symbol> = merged.symbols().collect();
    let dfas: Vec<Dfa<Symbol>> =
        languages.iter().map(|nfa| Dfa::from_nfa(nfa, &full_alphabet)).collect();

    // The representative bound c = quantifier rank + number of free paths.
    let c = formula.quantifier_rank() + assignment.paths.len() + 1;

    // Representative paths: for every source node, the c shortest paths to
    // every (target node, language profile) class.
    let mut representatives: Vec<Path> = Vec::new();
    for u in graph.nodes() {
        let mut paths =
            k_shortest_profile_paths(graph, &label_map, &dfas, u, c, config.max_search_states)?;
        representatives.append(&mut paths);
    }
    // Free paths are part of the structure too.
    let mut domain_paths: Vec<Path> = representatives;
    for p in assignment.paths.values() {
        if !domain_paths.contains(p) {
            domain_paths.push(p.clone());
        }
    }

    let ctx = EvalCtx { graph, label_map: &label_map, domain_paths: Some(&domain_paths), bound: 0 };
    Ok(eval_rec(formula, &ctx, &mut assignment.clone()))
}

/// Evaluates an arbitrary `ECRPQ¬` formula under the *bounded-path*
/// semantics: path quantifiers range over all paths of length at most
/// `path_length_bound`. This is exact whenever every path relevant to the
/// formula is at most that long (e.g. on DAGs with the bound set to the
/// number of nodes); see the module documentation.
pub fn eval_formula_bounded(
    formula: &Formula,
    graph: &GraphDb,
    alphabet: &Alphabet,
    assignment: &Assignment,
    path_length_bound: usize,
) -> Result<bool, QueryError> {
    let mut merged = alphabet.clone();
    let label_map: Vec<Symbol> = graph.alphabet().iter().map(|(_, l)| merged.intern(l)).collect();
    let ctx =
        EvalCtx { graph, label_map: &label_map, domain_paths: None, bound: path_length_bound };
    Ok(eval_rec(formula, &ctx, &mut assignment.clone()))
}

struct EvalCtx<'a> {
    graph: &'a GraphDb,
    label_map: &'a [Symbol],
    /// When `Some`, path quantifiers range over this finite set (the
    /// representative structure); when `None`, they range over all paths of
    /// length ≤ `bound`.
    domain_paths: Option<&'a [Path]>,
    bound: usize,
}

impl EvalCtx<'_> {
    fn translate_label(&self, label: Symbol) -> Symbol {
        self.label_map[label.index()]
    }

    fn translated_word(&self, path: &Path) -> Vec<Symbol> {
        path.label().iter().map(|&l| self.translate_label(l)).collect()
    }

    fn path_domain(&self) -> Vec<Path> {
        match self.domain_paths {
            Some(d) => d.to_vec(),
            None => {
                let mut out = Vec::new();
                for u in self.graph.nodes() {
                    out.extend(enumerate_paths(self.graph, u, self.bound, usize::MAX));
                }
                out
            }
        }
    }
}

fn eval_rec(formula: &Formula, ctx: &EvalCtx<'_>, assignment: &mut Assignment) -> bool {
    match formula {
        Formula::NodeEq(x, y) => assignment.nodes[x] == assignment.nodes[y],
        Formula::Edge(x, p, y) => {
            let path = &assignment.paths[p];
            path.start() == assignment.nodes[x] && path.end() == assignment.nodes[y]
        }
        Formula::Lang(p, nfa) => {
            let word = ctx.translated_word(&assignment.paths[p]);
            nfa.accepts(&word)
        }
        Formula::Rel(rel, paths) => {
            let words: Vec<Vec<Symbol>> =
                paths.iter().map(|p| ctx.translated_word(&assignment.paths[p])).collect();
            let refs: Vec<&[Symbol]> = words.iter().map(|w| w.as_slice()).collect();
            rel.contains(&refs)
        }
        Formula::Not(f) => !eval_rec(f, ctx, assignment),
        Formula::And(a, b) => eval_rec(a, ctx, assignment) && eval_rec(b, ctx, assignment),
        Formula::Or(a, b) => eval_rec(a, ctx, assignment) || eval_rec(b, ctx, assignment),
        Formula::ExistsNode(var, f) => {
            let saved = assignment.nodes.get(var).cloned();
            let mut result = false;
            for v in ctx.graph.nodes() {
                assignment.nodes.insert(var.clone(), v);
                if eval_rec(f, ctx, assignment) {
                    result = true;
                    break;
                }
            }
            restore_node(assignment, var, saved);
            result
        }
        Formula::ForallNode(var, f) => {
            let saved = assignment.nodes.get(var).cloned();
            let mut result = true;
            for v in ctx.graph.nodes() {
                assignment.nodes.insert(var.clone(), v);
                if !eval_rec(f, ctx, assignment) {
                    result = false;
                    break;
                }
            }
            restore_node(assignment, var, saved);
            result
        }
        Formula::ExistsPath(var, f) => {
            let saved = assignment.paths.get(var).cloned();
            let mut result = false;
            for p in ctx.path_domain() {
                assignment.paths.insert(var.clone(), p);
                if eval_rec(f, ctx, assignment) {
                    result = true;
                    break;
                }
            }
            restore_path(assignment, var, saved);
            result
        }
        Formula::ForallPath(var, f) => {
            let saved = assignment.paths.get(var).cloned();
            let mut result = true;
            for p in ctx.path_domain() {
                assignment.paths.insert(var.clone(), p);
                if !eval_rec(f, ctx, assignment) {
                    result = false;
                    break;
                }
            }
            restore_path(assignment, var, saved);
            result
        }
    }
}

fn restore_node(assignment: &mut Assignment, var: &str, saved: Option<NodeId>) {
    match saved {
        Some(v) => {
            assignment.nodes.insert(var.to_string(), v);
        }
        None => {
            assignment.nodes.remove(var);
        }
    }
}

fn restore_path(assignment: &mut Assignment, var: &str, saved: Option<Path>) {
    match saved {
        Some(p) => {
            assignment.paths.insert(var.to_string(), p);
        }
        None => {
            assignment.paths.remove(var);
        }
    }
}

/// Computes, for a fixed source node, up to `c` shortest paths into every
/// (product-state) class of the product of the graph with the language DFAs.
/// Because the DFAs are deterministic, distinct product paths correspond to
/// distinct graph paths, so this yields at least `min(c, available)`
/// representatives for every (target node, language profile) pair
/// (Claim 8.1.1's requirement).
fn k_shortest_profile_paths(
    graph: &GraphDb,
    label_map: &[Symbol],
    dfas: &[Dfa<Symbol>],
    source: NodeId,
    c: usize,
    budget: usize,
) -> Result<Vec<Path>, QueryError> {
    // Product state: (node, one DFA state per language). DFA states are found
    // by running the DFA on the path label incrementally.
    type DState = Vec<u32>;
    let run_step = |states: &DState, sym: Symbol, dfas: &[Dfa<Symbol>]| -> Option<DState> {
        let mut next = Vec::with_capacity(states.len());
        for (i, d) in dfas.iter().enumerate() {
            next.push(d.step(states[i], &sym)?);
        }
        Some(next)
    };
    let initial: DState = dfas.iter().map(|d| d.initial_state()).collect();

    let mut pop_count: HashMap<(NodeId, DState), usize> = HashMap::new();
    let mut queue: VecDeque<(NodeId, DState, Path)> = VecDeque::new();
    let mut out: Vec<Path> = Vec::new();
    queue.push_back((source, initial, Path::empty(source)));
    let mut expanded = 0usize;
    while let Some((node, dstate, path)) = queue.pop_front() {
        let count = pop_count.entry((node, dstate.clone())).or_insert(0);
        if *count >= c {
            continue;
        }
        *count += 1;
        out.push(path.clone());
        expanded += 1;
        if expanded > budget {
            return Err(QueryError::BudgetExceeded {
                what: "representative-path construction exceeded its budget".to_string(),
            });
        }
        for &(label, to) in graph.out_edges(node) {
            let sym = label_map[label.index()];
            if let Some(next_dstate) = run_step(&dstate, sym, dfas) {
                let mut next_path = path.clone();
                next_path.push(label, to);
                queue.push_back((to, next_dstate, next_path));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::builtin;
    use ecrpq_graph::generators;

    fn cfg() -> EvalConfig {
        EvalConfig::default()
    }

    /// The paper's example of a CRPQ¬ query: nodes x, y such that *no* path
    /// between them is labeled by a string in L.
    #[test]
    fn no_path_in_language() {
        let (g, first, last) = generators::string_graph(&["a", "b", "a"]);
        let al = g.alphabet().clone();
        // ¬∃π ((x, π, y) ∧ (a·b·a)(π))
        let phi = Formula::exists_path(
            "pi",
            Formula::edge("x", "pi", "y").and(Formula::lang("pi", "a b a", &al).unwrap()),
        )
        .not();
        // between first and last there IS an aba path, so the formula is false
        let asg = Assignment::empty().with_node("x", first).with_node("y", last);
        assert!(!eval_crpq_neg(&phi, &g, &al, &asg, &cfg()).unwrap());
        // between last and first there is no path at all, so it is true
        let asg2 = Assignment::empty().with_node("x", last).with_node("y", first);
        assert!(eval_crpq_neg(&phi, &g, &al, &asg2, &cfg()).unwrap());
    }

    /// Universal path quantification: every path from x to y has label in a*.
    #[test]
    fn universal_path_quantification() {
        let g = generators::cycle_graph(3, "a");
        let al = g.alphabet().clone();
        let phi = Formula::forall_path(
            "pi",
            Formula::edge("x", "pi", "y").not().or(Formula::lang("pi", "a*", &al).unwrap()),
        );
        let asg = Assignment::empty().with_node("x", NodeId(0)).with_node("y", NodeId(1));
        assert!(eval_crpq_neg(&phi, &g, &al, &asg, &cfg()).unwrap());

        // Add a b-labeled edge 0 → 1 and the property fails.
        let mut g2 = ecrpq_graph::GraphBuilder::default();
        let n = g2.add_nodes(3);
        for i in 0..3 {
            g2.add_edge_labeled(n[i], "a", n[(i + 1) % 3]);
        }
        g2.add_edge_labeled(n[0], "b", n[1]);
        let g2 = g2.build();
        let al2 = g2.alphabet().clone();
        let phi2 = Formula::forall_path(
            "pi",
            Formula::edge("x", "pi", "y").not().or(Formula::lang("pi", "a*", &al2).unwrap()),
        );
        assert!(!eval_crpq_neg(&phi2, &g2, &al2, &asg, &cfg()).unwrap());
    }

    /// Counting-style distinction that needs several representatives per
    /// class: "there exist two distinct paths from x to y with label in a*".
    #[test]
    fn two_distinct_paths() {
        // Graph with exactly two parallel a-paths 0 → 1.
        let mut g = ecrpq_graph::GraphBuilder::default();
        let n0 = g.add_node();
        let n1 = g.add_node();
        let mid = g.add_node();
        g.add_edge_labeled(n0, "a", n1);
        g.add_edge_labeled(n0, "a", mid);
        g.add_edge_labeled(mid, "a", n1);
        let g = g.build();
        let al = g.alphabet().clone();
        let body = |p: &str| Formula::edge("x", p, "y").and(Formula::lang(p, "a*", &al).unwrap());
        let phi = Formula::exists_path(
            "p1",
            Formula::exists_path(
                "p2",
                body("p1").and(body("p2")).and(
                    // distinct paths: different lengths here, expressed as p1 in `a`
                    // and p2 in `a a`
                    Formula::lang("p1", "a", &al)
                        .unwrap()
                        .and(Formula::lang("p2", "a a", &al).unwrap()),
                ),
            ),
        );
        let asg = Assignment::empty().with_node("x", n0).with_node("y", n1);
        assert!(eval_crpq_neg(&phi, &g, &al, &asg, &cfg()).unwrap());
        // but not from mid to n1 (only one path, of length 1)
        let asg2 = Assignment::empty().with_node("x", mid).with_node("y", n1);
        assert!(!eval_crpq_neg(&phi, &g, &al, &asg2, &cfg()).unwrap());
    }

    /// ECRPQ¬ under the bounded semantics: no pair of equal-label paths leaves
    /// x towards two different targets (false on a DAG with duplicated labels).
    #[test]
    fn bounded_ecrpq_neg_with_relations() {
        let mut g = ecrpq_graph::GraphBuilder::default();
        let n0 = g.add_node();
        let n1 = g.add_node();
        let n2 = g.add_node();
        g.add_edge_labeled(n0, "a", n1);
        g.add_edge_labeled(n0, "a", n2);
        let g = g.build();
        let al = g.alphabet().clone();
        let eq = builtin::equality(&al);
        // ∃π1 ∃π2 ((x,π1,y) ∧ (x,π2,z) ∧ ¬(y = z) ∧ π1 = π2 ∧ |π1| ≥ 1)
        let phi = Formula::exists_path(
            "p1",
            Formula::exists_path(
                "p2",
                Formula::edge("x", "p1", "y")
                    .and(Formula::edge("x", "p2", "z"))
                    .and(Formula::node_eq("y", "z").not())
                    .and(Formula::rel(eq.clone(), &["p1", "p2"]))
                    .and(Formula::lang("p1", "a+", &al).unwrap()),
            ),
        );
        let phi_xyz = Formula::exists_node("y", Formula::exists_node("z", phi));
        let asg = Assignment::empty().with_node("x", n0);
        // The graph is a DAG with ≤ 1-length paths, so bound 3 is exact.
        assert!(eval_formula_bounded(&phi_xyz, &g, &al, &asg, 3).unwrap());
        // From n1 there are no outgoing edges at all.
        let asg2 = Assignment::empty().with_node("x", n1);
        assert!(!eval_formula_bounded(&phi_xyz, &g, &al, &asg2, 3).unwrap());
        // CRPQ¬ evaluator refuses relation atoms of arity 2.
        assert!(eval_crpq_neg(&phi_xyz, &g, &al, &asg, &cfg()).is_err());
    }
}
