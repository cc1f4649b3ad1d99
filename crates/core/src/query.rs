//! The query language: conjunctive regular path queries (CRPQs) and their
//! extension with regular relations on tuples of paths (ECRPQs), exactly as
//! defined in Sections 2 and 3 of the paper, plus the linear-constraint
//! extensions of Section 8.2.
//!
//! A query has the form
//!
//! ```text
//! Ans(z̄, χ̄) ← ⋀ (xᵢ, πᵢ, yᵢ), ⋀ Rⱼ(ω̄ⱼ) [, A·ℓ̄ ≥ b]
//! ```
//!
//! where the `(xᵢ, πᵢ, yᵢ)` are *relational atoms* binding path variables to
//! pairs of node variables, the `Rⱼ` are regular relations applied to tuples
//! of path variables (arity-1 relations are ordinary regular languages, i.e.
//! CRPQ atoms), and the optional last clause imposes linear constraints on
//! path lengths or on numbers of label occurrences.

use crate::error::QueryError;
use ecrpq_automata::alphabet::Alphabet;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::relation::RegularRelation;
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_automata::Regex;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A node variable (`x`, `y`, `z`, … in the paper).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeVar(pub String);

impl NodeVar {
    /// Creates a node variable.
    pub fn new(name: &str) -> Self {
        NodeVar(name.to_string())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// A path variable (`π`, `ω`, `χ`, … in the paper).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathVar(pub String);

impl PathVar {
    /// Creates a path variable.
    pub fn new(name: &str) -> Self {
        PathVar(name.to_string())
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// A relational atom `(x, π, y)`: path variable `π` must be bound to a path
/// from the node bound to `x` to the node bound to `y`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationalAtom {
    /// Source node variable.
    pub from: NodeVar,
    /// Path variable.
    pub path: PathVar,
    /// Target node variable.
    pub to: NodeVar,
}

/// A relation atom `R(ω̄)`: the tuple of labels of the paths bound to the
/// listed path variables must belong to the regular relation. Arity-1
/// relations are ordinary regular-language atoms `L(ω)`.
#[derive(Clone, Debug)]
pub struct RelationAtom {
    /// The regular relation.
    pub relation: RegularRelation,
    /// The path variables the relation is applied to (arity many).
    pub paths: Vec<PathVar>,
    /// Optional length abstraction of the relation: linear constraints over
    /// the *lengths* of the paths on its tapes (one coefficient per tape).
    /// Used by the `Q_len` evaluation mode of Theorem 6.7; see
    /// [`infer_length_abstraction`].
    pub length_abstraction: Option<Vec<ecrpq_automata::semilinear::LinearConstraint>>,
}

/// The quantity a linear constraint refers to: the length of a path or the
/// number of occurrences of a label on a path (Section 8.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CountTarget {
    /// `|π|` — the length of the path bound to the variable.
    Length(PathVar),
    /// The number of occurrences of the given edge label on the path.
    LabelCount(PathVar, String),
}

/// One linear constraint `Σ coefficient·target  op  constant` over path
/// lengths and label counts.
#[derive(Clone, Debug)]
pub struct QLinearConstraint {
    /// Terms of the linear combination.
    pub terms: Vec<(i64, CountTarget)>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand-side constant.
    pub constant: i64,
}

/// An extended conjunctive regular path query (Definition 3.1), possibly with
/// the linear-constraint extension of Section 8.2. Plain CRPQs are the
/// special case where every relation atom has arity 1.
#[derive(Clone, Debug)]
pub struct Ecrpq {
    /// Node variables in the head `Ans(z̄, χ̄)`.
    pub head_nodes: Vec<NodeVar>,
    /// Path variables in the head.
    pub head_paths: Vec<PathVar>,
    /// Relational atoms `(x, π, y)`.
    pub atoms: Vec<RelationalAtom>,
    /// Regular language / regular relation atoms.
    pub relations: Vec<RelationAtom>,
    /// Linear constraints on lengths and label counts (empty for plain queries).
    pub linear_constraints: Vec<QLinearConstraint>,
    /// Node variables bound to named graph constants (e.g. the fixed pair of
    /// nodes in a ρ-query). Resolved against the graph at evaluation time.
    pub node_constants: Vec<(NodeVar, String)>,
    /// The alphabet the query was built against.
    pub alphabet: Alphabet,
}

impl Ecrpq {
    /// Starts building a query over the given alphabet.
    pub fn builder(alphabet: &Alphabet) -> EcrpqBuilder {
        EcrpqBuilder::new(alphabet.clone())
    }

    /// True if the query is Boolean (empty head).
    pub fn is_boolean(&self) -> bool {
        self.head_nodes.is_empty() && self.head_paths.is_empty()
    }

    /// True if the query is a CRPQ: every relation atom has arity 1 (possibly
    /// with path variables in the head, per the generalized definition at the
    /// end of Section 3).
    pub fn is_crpq(&self) -> bool {
        self.relations.iter().all(|r| r.relation.arity() <= 1)
    }

    /// The distinct node variables of the query, in order of first occurrence.
    pub fn node_vars(&self) -> Vec<NodeVar> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for a in &self.atoms {
            for v in [&a.from, &a.to] {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// The distinct path variables of the query, in order of first occurrence
    /// in the relational atoms.
    pub fn path_vars(&self) -> Vec<PathVar> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for a in &self.atoms {
            if seen.insert(a.path.clone()) {
                out.push(a.path.clone());
            }
        }
        out
    }

    /// True if some path variable occurs in more than one relational atom
    /// ("relational repetition", Section 6.3).
    pub fn has_relational_repetition(&self) -> bool {
        let mut seen = HashSet::new();
        self.atoms.iter().any(|a| !seen.insert(a.path.clone()))
    }

    /// True if the same tuple of path variables is constrained by more than
    /// one relation atom ("regular repetition", Section 6.3).
    pub fn has_regular_repetition(&self) -> bool {
        let mut seen = HashSet::new();
        self.relations.iter().any(|r| !seen.insert(r.paths.clone()))
    }

    /// True if the relational part of the query is acyclic: the underlying
    /// undirected graph on node variables with one edge per relational atom
    /// (parallel and opposite edges merged, as in hypergraph acyclicity of
    /// the induced conjunctive query) is a forest without self-loops
    /// (Section 6.3).
    pub fn is_acyclic(&self) -> bool {
        let vars = self.node_vars();
        let index: HashMap<&NodeVar, usize> =
            vars.iter().enumerate().map(|(i, v)| (v, i)).collect();
        let mut edges: HashSet<(usize, usize)> = HashSet::new();
        for a in &self.atoms {
            let (u, v) = (index[&a.from], index[&a.to]);
            if u == v {
                return false; // self-loop ⇒ cyclic
            }
            edges.insert((u.min(v), u.max(v)));
        }
        // union-find forest check
        let mut parent: Vec<usize> = (0..vars.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let r = find(parent, parent[x]);
                parent[x] = r;
            }
            parent[x]
        }
        for (u, v) in edges {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                return false;
            }
            parent[ru] = rv;
        }
        true
    }

    /// Validates the well-formedness conditions of Definition 3.1 (adapted to
    /// allow repetitions, which the engine supports — see Proposition 6.8).
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::NoRelationalAtoms);
        }
        let node_vars: HashSet<NodeVar> = self.node_vars().into_iter().collect();
        let path_vars: HashSet<PathVar> = self.path_vars().into_iter().collect();
        for v in &self.head_nodes {
            if !node_vars.contains(v) {
                return Err(QueryError::UnboundHeadVariable(v.name().to_string()));
            }
        }
        for p in &self.head_paths {
            if !path_vars.contains(p) {
                return Err(QueryError::UnboundHeadVariable(p.name().to_string()));
            }
        }
        for r in &self.relations {
            if r.relation.arity() != r.paths.len() {
                return Err(QueryError::RelationArityMismatch {
                    relation: r.relation.name().unwrap_or("<unnamed>").to_string(),
                    arity: r.relation.arity(),
                    supplied: r.paths.len(),
                });
            }
            for p in &r.paths {
                if !path_vars.contains(p) {
                    return Err(QueryError::UnboundPathVariable(p.name().to_string()));
                }
            }
            if let Some(abs) = &r.length_abstraction {
                for c in abs {
                    if c.coefficients.len() != r.relation.arity() {
                        return Err(QueryError::InvalidLinearConstraint(format!(
                            "length abstraction of `{}` has {} coefficients for arity {}",
                            r.relation.name().unwrap_or("<unnamed>"),
                            c.coefficients.len(),
                            r.relation.arity()
                        )));
                    }
                }
            }
        }
        for (v, _) in &self.node_constants {
            if !node_vars.contains(v) {
                return Err(QueryError::UnboundHeadVariable(v.name().to_string()));
            }
        }
        for c in &self.linear_constraints {
            for (_, t) in &c.terms {
                let pv = match t {
                    CountTarget::Length(p) => p,
                    CountTarget::LabelCount(p, _) => p,
                };
                if !path_vars.contains(pv) {
                    return Err(QueryError::UnboundPathVariable(pv.name().to_string()));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Ecrpq {
    /// Pretty-prints the query in the textual syntax of [`crate::parse`], so
    /// the output of `Display` is valid parser input: queries whose relation
    /// atoms carry parseable names (regexes, built-in names, or registered
    /// names) round-trip exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let heads: Vec<String> = self
            .head_nodes
            .iter()
            .map(|v| v.name().to_string())
            .chain(self.head_paths.iter().map(|p| p.name().to_string()))
            .collect();
        write!(f, "Ans({}) <- ", heads.join(", "))?;
        let mut parts: Vec<String> = self
            .atoms
            .iter()
            .map(|a| format!("({}, {}, {})", a.from.name(), a.path.name(), a.to.name()))
            .collect();
        for r in &self.relations {
            let name = r.relation.name().unwrap_or("<unnamed>");
            let args: Vec<&str> = r.paths.iter().map(|p| p.name()).collect();
            let kind = if r.relation.arity() == 1 { "L" } else { "R" };
            parts.push(format!("{}({}) = {}", kind, args.join(", "), name));
        }
        for c in &self.linear_constraints {
            let mut s = String::new();
            for (i, (coef, t)) in c.terms.iter().enumerate() {
                let target = match t {
                    CountTarget::Length(p) => format!("len({})", p.name()),
                    CountTarget::LabelCount(p, l) => format!("count({}, {})", l, p.name()),
                };
                let magnitude = coef.unsigned_abs();
                let term = if magnitude == 1 { target } else { format!("{magnitude}*{target}") };
                if i == 0 {
                    if *coef < 0 {
                        s.push('-');
                    }
                } else {
                    s.push_str(if *coef < 0 { " - " } else { " + " });
                }
                s.push_str(&term);
            }
            let op = match c.op {
                CmpOp::Ge => ">=",
                CmpOp::Eq => "=",
                CmpOp::Le => "<=",
            };
            parts.push(format!("{} {} {}", s, op, c.constant));
        }
        for (v, n) in &self.node_constants {
            let ident_safe = !n.is_empty()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'');
            if ident_safe {
                parts.push(format!("{} = :{}", v.name(), n));
            } else {
                // Quoted form with backslash escaping, so names containing
                // `"` or `\` still round-trip through the parser.
                let escaped = n.replace('\\', "\\\\").replace('"', "\\\"");
                parts.push(format!("{} = :\"{}\"", v.name(), escaped));
            }
        }
        write!(f, "{}", parts.join(", "))
    }
}

/// Infers a length abstraction for the named built-in relations of
/// [`ecrpq_automata::builtin`]: `eq` and `el` become `ℓ1 = ℓ2`, `prefix` and
/// `len_le` become `ℓ1 ≤ ℓ2`, `len_lt` becomes `ℓ1 < ℓ2` (as `ℓ2 − ℓ1 ≥ 1`),
/// and `hamming_le_k` becomes `ℓ1 = ℓ2`. Other relations yield `None`.
pub fn infer_length_abstraction(
    relation: &RegularRelation,
) -> Option<Vec<ecrpq_automata::semilinear::LinearConstraint>> {
    use ecrpq_automata::semilinear::LinearConstraint as LC;
    let name = relation.name()?;
    if name.starts_with("hamming_le_") {
        return Some(vec![LC::eq(vec![1, -1], 0)]);
    }
    match name {
        "eq" | "el" => Some(vec![LC::eq(vec![1, -1], 0)]),
        "prefix" | "len_le" => Some(vec![LC::le(vec![1, -1], 0)]),
        "len_lt" => Some(vec![LC::ge(vec![-1, 1], 1)]),
        "true" => Some(vec![]),
        _ => None,
    }
}

/// Fluent builder for [`Ecrpq`] queries.
#[derive(Clone, Debug)]
pub struct EcrpqBuilder {
    alphabet: Alphabet,
    head_nodes: Vec<NodeVar>,
    head_paths: Vec<PathVar>,
    atoms: Vec<RelationalAtom>,
    relations: Vec<RelationAtom>,
    linear_constraints: Vec<QLinearConstraint>,
    node_constants: Vec<(NodeVar, String)>,
    pending_languages: Vec<(PathVar, String)>,
    error: Option<QueryError>,
}

impl EcrpqBuilder {
    fn new(alphabet: Alphabet) -> Self {
        EcrpqBuilder {
            alphabet,
            head_nodes: Vec::new(),
            head_paths: Vec::new(),
            atoms: Vec::new(),
            relations: Vec::new(),
            linear_constraints: Vec::new(),
            node_constants: Vec::new(),
            pending_languages: Vec::new(),
            error: None,
        }
    }

    /// Adds node variables to the head.
    pub fn head_nodes(mut self, vars: &[&str]) -> Self {
        self.head_nodes.extend(vars.iter().map(|v| NodeVar::new(v)));
        self
    }

    /// Adds path variables to the head.
    pub fn head_paths(mut self, vars: &[&str]) -> Self {
        self.head_paths.extend(vars.iter().map(|v| PathVar::new(v)));
        self
    }

    /// Adds a relational atom `(from, path, to)`.
    pub fn atom(mut self, from: &str, path: &str, to: &str) -> Self {
        self.atoms.push(RelationalAtom {
            from: NodeVar::new(from),
            path: PathVar::new(path),
            to: NodeVar::new(to),
        });
        self
    }

    /// Constrains a single path variable with a regular expression over Σ
    /// (a CRPQ language atom `L(ω)`). The expression is compiled at
    /// [`build`](Self::build) time.
    pub fn language(mut self, path: &str, regex: &str) -> Self {
        self.pending_languages.push((PathVar::new(path), regex.to_string()));
        self
    }

    /// Constrains a tuple of path variables with a pre-built regular relation
    /// (an ECRPQ relation atom `R(ω̄)`).
    pub fn relation(mut self, relation: RegularRelation, paths: &[&str]) -> Self {
        let abstraction = infer_length_abstraction(&relation);
        self.relations.push(RelationAtom {
            relation,
            paths: paths.iter().map(|p| PathVar::new(p)).collect(),
            length_abstraction: abstraction,
        });
        self
    }

    /// Constrains a tuple of path variables with a relation given as a
    /// regular expression over tuple letters (compiled at build time against
    /// the query's alphabet).
    pub fn relation_regex(mut self, regex: &str, paths: &[&str]) -> Self {
        match RegularRelation::from_regex(regex, &self.alphabet, paths.len()) {
            Ok(rel) => {
                let rel = rel.normalize_padding(&self.alphabet);
                self.relations.push(RelationAtom {
                    relation: rel,
                    paths: paths.iter().map(|p| PathVar::new(p)).collect(),
                    length_abstraction: None,
                });
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(QueryError::Regex(e.to_string()));
                }
            }
        }
        self
    }

    /// Overrides the length abstraction of the most recently added relation
    /// atom (used by the `Q_len` evaluation mode for relations whose
    /// abstraction cannot be inferred from their name).
    pub fn with_length_abstraction(
        mut self,
        constraints: Vec<ecrpq_automata::semilinear::LinearConstraint>,
    ) -> Self {
        if let Some(last) = self.relations.last_mut() {
            last.length_abstraction = Some(constraints);
        } else if self.error.is_none() {
            self.error = Some(QueryError::Unsupported(
                "with_length_abstraction called before any relation atom".to_string(),
            ));
        }
        self
    }

    /// Binds a node variable to a named node of the graph (a constant).
    pub fn bind_node(mut self, var: &str, graph_node_name: &str) -> Self {
        self.node_constants.push((NodeVar::new(var), graph_node_name.to_string()));
        self
    }

    /// Adds a linear constraint over path lengths and label counts
    /// (Section 8.2).
    pub fn linear_constraint(
        mut self,
        terms: Vec<(i64, CountTarget)>,
        op: CmpOp,
        constant: i64,
    ) -> Self {
        self.linear_constraints.push(QLinearConstraint { terms, op, constant });
        self
    }

    /// Finishes the query, compiling pending regular expressions and
    /// validating well-formedness.
    pub fn build(mut self) -> Result<Ecrpq, QueryError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        for (path, regex) in std::mem::take(&mut self.pending_languages) {
            let parsed = Regex::parse(&regex).map_err(|e| QueryError::Regex(e.to_string()))?;
            let nfa: Nfa<ecrpq_automata::Symbol> =
                parsed.compile(&self.alphabet).map_err(|e| QueryError::Regex(e.to_string()))?;
            // Lift the language to an arity-1 relation.
            let lifted = nfa.map_symbols(|&s| Some(ecrpq_automata::TupleSym::new(vec![Some(s)])));
            let rel = RegularRelation::from_nfa(1, lifted).named(&regex);
            self.relations.push(RelationAtom {
                relation: rel,
                paths: vec![path],
                length_abstraction: None,
            });
        }
        let q = Ecrpq {
            head_nodes: self.head_nodes,
            head_paths: self.head_paths,
            atoms: self.atoms,
            relations: self.relations,
            linear_constraints: self.linear_constraints,
            node_constants: self.node_constants,
            alphabet: self.alphabet,
        };
        q.validate()?;
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecrpq_automata::builtin;

    fn ab() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    #[test]
    fn build_squares_query() {
        // The "squared strings" query from the introduction:
        // Ans(x, y) ← (x, π1, z), (z, π2, y), π1 = π2.
        let al = ab();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "pi1", "z")
            .atom("z", "pi2", "y")
            .relation(builtin::equality(&al), &["pi1", "pi2"])
            .build()
            .unwrap();
        assert!(!q.is_boolean());
        assert!(!q.is_crpq());
        assert!(q.is_acyclic());
        assert!(!q.has_relational_repetition());
        assert_eq!(q.node_vars().len(), 3);
        assert_eq!(q.path_vars().len(), 2);
        let s = q.to_string();
        assert!(s.contains("Ans(x, y)"));
        assert!(s.contains("R(pi1, pi2) = eq"));
    }

    #[test]
    fn build_crpq_with_languages() {
        let al = ab();
        let q = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p", "y")
            .language("p", "a+ b*")
            .build()
            .unwrap();
        assert!(q.is_crpq());
        assert!(q.is_acyclic());
        assert_eq!(q.relations.len(), 1);
        assert_eq!(q.relations[0].relation.arity(), 1);
    }

    #[test]
    fn validation_errors() {
        let al = ab();
        // unbound head variable
        let e = Ecrpq::builder(&al).head_nodes(&["w"]).atom("x", "p", "y").build().unwrap_err();
        assert!(matches!(e, QueryError::UnboundHeadVariable(_)));
        // no atoms
        let e = Ecrpq::builder(&al).build().unwrap_err();
        assert_eq!(e, QueryError::NoRelationalAtoms);
        // relation over unbound path variable
        let e = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .relation(builtin::equality(&al), &["p", "q"])
            .build()
            .unwrap_err();
        assert!(matches!(e, QueryError::UnboundPathVariable(_)));
        // bad regex
        let e = Ecrpq::builder(&al).atom("x", "p", "y").language("p", "(a").build().unwrap_err();
        assert!(matches!(e, QueryError::Regex(_)));
        // unknown label in a relation regex
        let e = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .atom("y", "q", "z")
            .relation_regex("<c,c>*", &["p", "q"])
            .build()
            .unwrap_err();
        assert!(matches!(e, QueryError::Regex(_)));
    }

    #[test]
    fn acyclicity_detection() {
        let al = ab();
        // a triangle of atoms is cyclic
        let cyclic = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .atom("z", "p3", "x")
            .build()
            .unwrap();
        assert!(!cyclic.is_acyclic());
        // two atoms between the same pair of variables (in either direction)
        // merge into one hyperedge and stay acyclic
        let back_and_forth =
            Ecrpq::builder(&al).atom("x", "p1", "y").atom("y", "p2", "x").build().unwrap();
        assert!(back_and_forth.is_acyclic());
        // chain is acyclic
        let chain = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .atom("z", "p3", "w")
            .build()
            .unwrap();
        assert!(chain.is_acyclic());
        // self-loop atom is cyclic
        let selfloop = Ecrpq::builder(&al).atom("x", "p", "x").build().unwrap();
        assert!(!selfloop.is_acyclic());
    }

    #[test]
    fn repetition_detection() {
        let al = ab();
        let rep = Ecrpq::builder(&al).atom("x", "p", "y").atom("u", "p", "v").build().unwrap();
        assert!(rep.has_relational_repetition());
        let reg_rep = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .language("p", "a*")
            .language("p", "b*")
            .build()
            .unwrap();
        assert!(reg_rep.has_regular_repetition());
        let clean = Ecrpq::builder(&al).atom("x", "p", "y").language("p", "a*").build().unwrap();
        assert!(!clean.has_relational_repetition());
        assert!(!clean.has_regular_repetition());
    }

    #[test]
    fn boolean_queries_and_constants() {
        let al = ab();
        let q = Ecrpq::builder(&al).atom("x", "p", "y").bind_node("x", "london").build().unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.node_constants.len(), 1);
        // constant on a variable not in the body is rejected
        let e =
            Ecrpq::builder(&al).atom("x", "p", "y").bind_node("w", "london").build().unwrap_err();
        assert!(matches!(e, QueryError::UnboundHeadVariable(_)));
    }

    #[test]
    fn length_abstractions_inferred_for_builtins() {
        let al = ab();
        let q = Ecrpq::builder(&al)
            .atom("x", "p1", "y")
            .atom("y", "p2", "z")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        assert!(q.relations[0].length_abstraction.is_some());
        assert!(infer_length_abstraction(&builtin::prefix(&al)).is_some());
        assert!(infer_length_abstraction(&builtin::edit_distance_leq(&al, 1).unwrap()).is_none());
    }

    #[test]
    fn linear_constraint_validation() {
        let al = ab();
        let q = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .linear_constraint(
                vec![(1, CountTarget::LabelCount(PathVar::new("p"), "a".into()))],
                CmpOp::Ge,
                2,
            )
            .build()
            .unwrap();
        assert_eq!(q.linear_constraints.len(), 1);
        let e = Ecrpq::builder(&al)
            .atom("x", "p", "y")
            .linear_constraint(vec![(1, CountTarget::Length(PathVar::new("q")))], CmpOp::Ge, 2)
            .build()
            .unwrap_err();
        assert!(matches!(e, QueryError::UnboundPathVariable(_)));
    }
}
