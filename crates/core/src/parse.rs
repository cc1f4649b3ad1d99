//! Textual ECRPQ syntax: the parse phase of the parse → compile →
//! bind/execute pipeline.
//!
//! The concrete syntax mirrors the paper's rule notation:
//!
//! ```text
//! Ans(x, y) <- (x, pi, y), (y, om, z), L(pi) = (a|b)* c,
//!              R(pi, om) = el, len(pi) - len(om) >= 2, x = :start
//! ```
//!
//! # Grammar (EBNF)
//!
//! ```text
//! query      = "Ans" "(" [ var { "," var } ] ")" "<-" clause { "," clause } ;
//! clause     = atom | language | relation | constraint | binding ;
//! atom       = "(" var "," var "," var ")" ;
//! language   = "L" "(" var ")" "=" regex ;
//! relation   = "R" "(" var { "," var } ")" "=" relspec ;
//! relspec    = builtin | regex ;
//! builtin    = "eq" | "equality" | "el" | "equal_length"
//!            | "len_lt" | "length_less" | "len_le" | "length_leq"
//!            | "prefix" | "true" | "universal"
//!            | "edit_le_" int | "hamming_le_" int ;
//! constraint = [ "-" ] term { ("+" | "-") term } cmp int ;
//! term       = [ int "*" ] ( "len" "(" var ")" | "count" "(" label "," var ")" ) ;
//! cmp        = ">=" | "<=" | "=" ;
//! binding    = var "=" ":" ( name | quoted ) ;
//! var, label = ident ;           (* [A-Za-z0-9_][A-Za-z0-9_']* *)
//! quoted     = '"' ... '"' ;     (* node names that are not idents *)
//! ```
//!
//! Head variables are classified after the body is read: a head variable
//! that occurs as the path of some relational atom is a path variable, all
//! others are node variables. `regex` is the syntax of
//! [`ecrpq_automata::Regex`] (labels, `.`, `()`, `|`, `*`, `+`, `?`, and
//! tuple letters `<a,b>` with `_` for `⊥`), read up to the next top-level
//! comma. Every error carries the byte [`Span`] of the offending input.
//!
//! [`std::fmt::Display`] for [`Ecrpq`] emits exactly this syntax, so
//! `parse → Display → parse` is the identity on the textual fragment (see
//! `tests/parser_roundtrip.rs`).

use crate::query::{infer_length_abstraction, NodeVar, PathVar};
use crate::query::{CountTarget, Ecrpq, QLinearConstraint, RelationAtom, RelationalAtom};
use ecrpq_automata::alphabet::{Alphabet, Symbol, TupleSym};
use ecrpq_automata::builtin;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::regex::{Regex, RegexError};
use ecrpq_automata::relation::{RegularRelation, TooLarge};
use ecrpq_automata::semilinear::CmpOp;
use std::fmt;

/// A byte range of the parser input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first offending character.
    pub start: usize,
    /// Byte offset one past the last offending character.
    pub end: usize,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    fn point(at: usize) -> Span {
        Span { start: at, end: at + 1 }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A parse error: what went wrong and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// The byte range of the offending input.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    fn new(span: Span, message: impl Into<String>) -> ParseError {
        ParseError { span, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for crate::error::QueryError {
    fn from(e: ParseError) -> Self {
        crate::error::QueryError::Regex(e.to_string())
    }
}

/// Parses a textual ECRPQ over `alphabet`.
pub fn parse_query(input: &str, alphabet: &Alphabet) -> Result<Ecrpq, ParseError> {
    parse_query_with(input, alphabet, &[])
}

/// Parses a textual ECRPQ, additionally resolving relation names from
/// `registry` (for relations that cannot be written as a regex or built-in
/// name, e.g. a ρ-isomorphism relation built from a subproperty table).
/// Registry names take precedence over built-in names.
pub fn parse_query_with(
    input: &str,
    alphabet: &Alphabet,
    registry: &[(&str, RegularRelation)],
) -> Result<Ecrpq, ParseError> {
    Parser { input, pos: 0, alphabet, registry }.query()
}

impl Ecrpq {
    /// Parses the textual syntax of [`crate::parse`] (the parse phase of the
    /// prepared-query pipeline).
    pub fn parse(input: &str, alphabet: &Alphabet) -> Result<Ecrpq, ParseError> {
        parse_query(input, alphabet)
    }
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    alphabet: &'a Alphabet,
    registry: &'a [(&'a str, RegularRelation)],
}

/// One parsed body clause, in textual order.
enum Clause {
    Atom(RelationalAtom),
    Relation(RelationAtom),
    Constraint(QLinearConstraint),
    Binding { var: String, var_span: Span, name: String },
}

impl<'a> Parser<'a> {
    // ---------------------------------------------------------------- lexing

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest().chars().next()
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{c}`")))
        }
    }

    fn unexpected(&mut self, expected: &str) -> ParseError {
        let at = {
            self.skip_ws();
            self.pos
        };
        match self.rest().chars().next() {
            Some(c) => ParseError::new(Span::point(at), format!("{expected}, found `{c}`")),
            None => ParseError::new(Span::point(at), format!("{expected}, found end of input")),
        }
    }

    fn is_ident_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || c == '_' || c == '\''
    }

    fn ident(&mut self, what: &str) -> Result<(String, Span), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        for c in self.rest().chars() {
            if Self::is_ident_char(c) {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        if end == start {
            return Err(self.unexpected(&format!("expected {what}")));
        }
        self.pos = end;
        Ok((self.input[start..end].to_string(), Span::new(start, end)))
    }

    fn integer(&mut self, what: &str) -> Result<(i64, Span), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let mut end = start;
        let mut chars = self.rest().chars();
        if let Some(c) = chars.next() {
            if c == '-' || c.is_ascii_digit() {
                end += 1;
            }
        }
        for c in chars {
            if c.is_ascii_digit() {
                end += 1;
            } else {
                break;
            }
        }
        let text = &self.input[start..end];
        let value: i64 = text.parse().map_err(|_| self.unexpected(&format!("expected {what}")))?;
        self.pos = end;
        Ok((value, Span::new(start, end)))
    }

    /// Reads input up to (not including) the next top-level `,` — a regular
    /// expression or relation name. `(`/`)` and `<`/`>` nest.
    fn until_comma(&mut self) -> (String, Span) {
        self.skip_ws();
        let start = self.pos;
        let mut depth = 0i32;
        let mut end = start;
        for c in self.rest().chars() {
            match c {
                '(' | '<' => depth += 1,
                ')' | '>' => depth -= 1,
                ',' if depth == 0 => break,
                _ => {}
            }
            end += c.len_utf8();
        }
        self.pos = end;
        let text = self.input[start..end].trim_end();
        (text.to_string(), Span::new(start, start + text.len()))
    }

    // --------------------------------------------------------------- parsing

    fn query(mut self) -> Result<Ecrpq, ParseError> {
        // Head: Ans(v1, ..., vk)
        let (kw, kw_span) = self.ident("the head keyword `Ans`")?;
        if kw != "Ans" {
            return Err(ParseError::new(kw_span, format!("expected `Ans`, found `{kw}`")));
        }
        self.expect('(')?;
        let mut head: Vec<(String, Span)> = Vec::new();
        if self.peek() != Some(')') {
            loop {
                head.push(self.ident("a head variable")?);
                if !self.eat(',') {
                    break;
                }
            }
        }
        self.expect(')')?;
        self.expect('<')?;
        if !self.eat('-') {
            return Err(self.unexpected("expected `<-`"));
        }

        // Body clauses.
        let mut clauses: Vec<Clause> = Vec::new();
        loop {
            clauses.push(self.clause()?);
            self.skip_ws();
            if !self.eat(',') {
                break;
            }
        }
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.unexpected("expected `,` or end of query"));
        }

        self.assemble(head, clauses)
    }

    fn clause(&mut self) -> Result<Clause, ParseError> {
        match self.peek() {
            Some('(') => self.atom(),
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => self.constraint(None),
            Some(_) => {
                let (name, span) = self.ident("a clause")?;
                match self.peek() {
                    Some('(') if name == "L" => self.language(),
                    Some('(') if name == "R" => self.relation(),
                    Some('(') if name == "len" || name == "count" => {
                        self.constraint(Some((name, span)))
                    }
                    Some('=') => self.binding(name, span),
                    _ => Err(ParseError::new(
                        span,
                        format!(
                            "expected a clause: an atom `(x, p, y)`, `L(p) = <regex>`, \
                             `R(p, ...) = <relation>`, a linear constraint, or a binding \
                             `x = :node` (found `{name}`)"
                        ),
                    )),
                }
            }
            None => Err(self.unexpected("expected a clause")),
        }
    }

    fn atom(&mut self) -> Result<Clause, ParseError> {
        self.expect('(')?;
        let (from, _) = self.ident("a node variable")?;
        self.expect(',')?;
        let (path, _) = self.ident("a path variable")?;
        self.expect(',')?;
        let (to, _) = self.ident("a node variable")?;
        self.expect(')')?;
        Ok(Clause::Atom(RelationalAtom {
            from: NodeVar::new(&from),
            path: PathVar::new(&path),
            to: NodeVar::new(&to),
        }))
    }

    fn language(&mut self) -> Result<Clause, ParseError> {
        self.expect('(')?;
        let (path, _) = self.ident("a path variable")?;
        self.expect(')')?;
        self.expect('=')?;
        let (text, span) = self.until_comma();
        if text.is_empty() {
            return Err(ParseError::new(span, "expected a regular expression".to_string()));
        }
        let parsed = Regex::parse(&text).map_err(|e| regex_error(e, span))?;
        let nfa: Nfa<Symbol> = parsed.compile(self.alphabet).map_err(|e| regex_error(e, span))?;
        let lifted = nfa.map_symbols(|&s| Some(TupleSym::new(vec![Some(s)])));
        let relation = RegularRelation::from_nfa(1, lifted).named(&text);
        Ok(Clause::Relation(RelationAtom {
            relation,
            paths: vec![PathVar::new(&path)],
            length_abstraction: None,
        }))
    }

    fn relation(&mut self) -> Result<Clause, ParseError> {
        self.expect('(')?;
        let mut paths: Vec<PathVar> = Vec::new();
        loop {
            let (p, _) = self.ident("a path variable")?;
            paths.push(PathVar::new(&p));
            if !self.eat(',') {
                break;
            }
        }
        self.expect(')')?;
        self.expect('=')?;
        let (text, span) = self.until_comma();
        if text.is_empty() {
            return Err(ParseError::new(
                span,
                "expected a relation name or regular expression".to_string(),
            ));
        }
        // A single identifier resolves as a registry or built-in relation
        // name; anything else is a regular expression over tuple letters.
        let relation = if text.chars().all(Self::is_ident_char) {
            match self.named_relation(&text) {
                Some(Ok(rel)) => {
                    if rel.arity() != paths.len() {
                        return Err(ParseError::new(
                            span,
                            format!(
                                "relation `{text}` has arity {} but was applied to {} path \
                                 variable(s)",
                                rel.arity(),
                                paths.len()
                            ),
                        ));
                    }
                    rel
                }
                Some(Err(too_large)) => {
                    return Err(ParseError::new(
                        span,
                        format!("relation `{text}` is too large: {too_large}"),
                    ))
                }
                None => {
                    return Err(ParseError::new(
                        span,
                        format!(
                            "unknown relation `{text}` (expected a built-in such as `eq`, \
                             `el`, `prefix`, `len_lt`, `len_le`, `edit_le_<k>`, \
                             `hamming_le_<k>`, a registered relation, or a regular \
                             expression over tuple letters)"
                        ),
                    ))
                }
            }
        } else {
            RegularRelation::from_regex(&text, self.alphabet, paths.len())
                .map_err(|e| regex_error(e, span))?
                .normalize_padding(self.alphabet)
        };
        let length_abstraction = infer_length_abstraction(&relation);
        Ok(Clause::Relation(RelationAtom { relation, paths, length_abstraction }))
    }

    /// Resolves a relation name: registry entries first, then built-ins.
    /// A bounded-distance built-in whose automaton would pass the relation
    /// budget resolves to [`TooLarge`].
    fn named_relation(&self, name: &str) -> Option<Result<RegularRelation, TooLarge>> {
        if let Some((_, rel)) = self.registry.iter().find(|(n, _)| *n == name) {
            return Some(Ok(rel.clone()));
        }
        if let Some(k) = name.strip_prefix("edit_le_").and_then(|s| s.parse::<usize>().ok()) {
            return Some(builtin::edit_distance_leq(self.alphabet, k));
        }
        if let Some(k) = name.strip_prefix("hamming_le_").and_then(|s| s.parse::<usize>().ok()) {
            return Some(builtin::hamming_leq(self.alphabet, k));
        }
        let rel = match name {
            "eq" | "equality" => builtin::equality(self.alphabet),
            "el" | "equal_length" => builtin::equal_length(self.alphabet),
            "len_lt" | "length_less" => builtin::length_less(self.alphabet),
            "len_le" | "length_leq" => builtin::length_leq(self.alphabet),
            "prefix" => builtin::prefix(self.alphabet),
            "true" | "universal" => builtin::universal(self.alphabet),
            _ => return None,
        };
        Some(Ok(rel))
    }

    /// Parses a linear constraint. `first` is a `len`/`count` keyword the
    /// clause dispatcher already consumed.
    fn constraint(&mut self, first: Option<(String, Span)>) -> Result<Clause, ParseError> {
        let mut terms: Vec<(i64, CountTarget)> = Vec::new();
        let mut lead = first;
        let mut sign: i64 = if lead.is_none() && self.peek() == Some('-') {
            self.eat('-');
            -1
        } else {
            if self.peek() == Some('+') {
                self.eat('+');
            }
            1
        };
        loop {
            terms.push(self.term(sign, lead.take())?);
            match self.peek() {
                Some('+') => {
                    self.eat('+');
                    sign = 1;
                }
                Some('-') => {
                    self.eat('-');
                    sign = -1;
                }
                _ => break,
            }
        }
        let op = match self.peek() {
            Some('>') => {
                self.eat('>');
                self.expect('=')?;
                CmpOp::Ge
            }
            Some('<') => {
                self.eat('<');
                self.expect('=')?;
                CmpOp::Le
            }
            Some('=') => {
                self.eat('=');
                CmpOp::Eq
            }
            _ => return Err(self.unexpected("expected a comparison (`>=`, `<=`, or `=`)")),
        };
        let (constant, _) = self.integer("an integer constant")?;
        Ok(Clause::Constraint(QLinearConstraint { terms, op, constant }))
    }

    /// One constraint term: `[int *] len(p)` or `[int *] count(label, p)`.
    /// `sign` is the sign from the surrounding `+`/`-` chain; `keyword` is a
    /// pre-consumed `len`/`count` identifier.
    fn term(
        &mut self,
        sign: i64,
        keyword: Option<(String, Span)>,
    ) -> Result<(i64, CountTarget), ParseError> {
        let mut coeff = 1i64;
        let (kw, kw_span) = match keyword {
            Some(k) => k,
            None => {
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    let (c, _) = self.integer("a coefficient")?;
                    coeff = c;
                    self.expect('*')?;
                }
                self.ident("`len` or `count`")?
            }
        };
        let target = match kw.as_str() {
            "len" => {
                self.expect('(')?;
                let (p, _) = self.ident("a path variable")?;
                self.expect(')')?;
                CountTarget::Length(PathVar::new(&p))
            }
            "count" => {
                self.expect('(')?;
                let (label, _) = self.ident("an edge label")?;
                self.expect(',')?;
                let (p, _) = self.ident("a path variable")?;
                self.expect(')')?;
                CountTarget::LabelCount(PathVar::new(&p), label)
            }
            other => {
                return Err(ParseError::new(
                    kw_span,
                    format!("expected `len` or `count` in a linear constraint, found `{other}`"),
                ))
            }
        };
        Ok((sign * coeff, target))
    }

    /// A node-constant binding `x = :name` or `x = :"name with spaces"`.
    fn binding(&mut self, var: String, var_span: Span) -> Result<Clause, ParseError> {
        self.expect('=')?;
        self.expect(':')?;
        self.skip_ws();
        if self.eat('"') {
            let start = self.pos;
            let mut name = String::new();
            let mut chars = self.rest().char_indices();
            loop {
                match chars.next() {
                    Some((i, '"')) => {
                        self.pos = start + i + 1;
                        return Ok(Clause::Binding { var, var_span, name });
                    }
                    Some((_, '\\')) => match chars.next() {
                        Some((_, c @ ('"' | '\\'))) => name.push(c),
                        Some((_, c)) => {
                            name.push('\\');
                            name.push(c);
                        }
                        None => break,
                    },
                    Some((_, c)) => name.push(c),
                    None => break,
                }
            }
            Err(ParseError::new(Span::point(start), "unterminated quoted node name".to_string()))
        } else {
            let (name, _) = self.ident("a node name")?;
            Ok(Clause::Binding { var, var_span, name })
        }
    }

    // ------------------------------------------------------------- assembly

    fn assemble(
        &self,
        head: Vec<(String, Span)>,
        clauses: Vec<Clause>,
    ) -> Result<Ecrpq, ParseError> {
        let mut atoms: Vec<RelationalAtom> = Vec::new();
        let mut relations: Vec<RelationAtom> = Vec::new();
        let mut linear_constraints: Vec<QLinearConstraint> = Vec::new();
        let mut bindings: Vec<(String, Span, String)> = Vec::new();
        for c in clauses {
            match c {
                Clause::Atom(a) => atoms.push(a),
                Clause::Relation(r) => relations.push(r),
                Clause::Constraint(c) => linear_constraints.push(c),
                Clause::Binding { var, var_span, name } => bindings.push((var, var_span, name)),
            }
        }
        if atoms.is_empty() {
            return Err(ParseError::new(
                Span::new(0, self.input.len()),
                "a query must contain at least one relational atom (x, p, y)".to_string(),
            ));
        }

        // Classify head variables: path variables are those bound as the
        // path of some relational atom.
        let path_names: Vec<&str> = atoms.iter().map(|a| a.path.name()).collect();
        let node_names: Vec<&str> =
            atoms.iter().flat_map(|a| [a.from.name(), a.to.name()]).collect();
        let mut head_nodes: Vec<NodeVar> = Vec::new();
        let mut head_paths: Vec<PathVar> = Vec::new();
        for (v, span) in &head {
            if path_names.contains(&v.as_str()) {
                head_paths.push(PathVar::new(v));
            } else if node_names.contains(&v.as_str()) {
                head_nodes.push(NodeVar::new(v));
            } else {
                return Err(ParseError::new(
                    *span,
                    format!("head variable `{v}` does not occur in the query body"),
                ));
            }
        }
        // Bindings must refer to body node variables.
        let mut node_constants: Vec<(NodeVar, String)> = Vec::new();
        for (v, span, name) in bindings {
            if !node_names.contains(&v.as_str()) {
                return Err(ParseError::new(
                    span,
                    format!("bound variable `{v}` does not occur in the query body"),
                ));
            }
            node_constants.push((NodeVar::new(&v), name));
        }

        let q = Ecrpq {
            head_nodes,
            head_paths,
            atoms,
            relations,
            linear_constraints,
            node_constants,
            alphabet: self.alphabet.clone(),
        };
        q.validate().map_err(|e| ParseError::new(Span::new(0, self.input.len()), e.to_string()))?;
        Ok(q)
    }
}

fn regex_error(e: RegexError, span: Span) -> ParseError {
    match e {
        RegexError::Parse { position, message } => {
            let at = (span.start + position).min(span.end.saturating_sub(1)).max(span.start);
            ParseError::new(Span::point(at), format!("in regular expression: {message}"))
        }
        other => ParseError::new(span, format!("in regular expression: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{self, EvalConfig};
    use ecrpq_graph::generators;

    fn ab() -> Alphabet {
        Alphabet::from_labels(["a", "b"])
    }

    #[test]
    fn parses_the_issue_example() {
        let al = ab();
        let q = parse_query(
            "Ans(x, y) <- (x, pi, y), (y, om, z), L(pi) = (a|b)* a, R(pi, om) = equal_length, \
             len(pi) - len(om) >= 2",
            &al,
        )
        .unwrap();
        assert_eq!(q.head_nodes.len(), 2);
        assert_eq!(q.atoms.len(), 2);
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.linear_constraints.len(), 1);
        assert_eq!(q.relations[1].relation.name(), Some("el"));
        assert!(q.relations[1].length_abstraction.is_some());
    }

    #[test]
    fn parsed_queries_evaluate_like_built_ones() {
        let g = generators::cycle_graph(4, "a");
        let al = g.alphabet().clone();
        let built = Ecrpq::builder(&al)
            .head_nodes(&["x", "y"])
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a+")
            .language("p2", "a+")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .build()
            .unwrap();
        let parsed = parse_query(
            "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a+, L(p2) = a+, R(p1, p2) = el",
            &al,
        )
        .unwrap();
        let cfg = EvalConfig::default();
        let mut a = eval::eval_nodes(&built, &g, &cfg).unwrap();
        let mut b = eval::eval_nodes(&parsed, &g, &cfg).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn boolean_heads_constants_and_quoted_names() {
        let al = ab();
        let q = parse_query(r#"Ans() <- (x, p, y), x = :start, y = :"end node""#, &al).unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.node_constants.len(), 2);
        assert_eq!(q.node_constants[1].1, "end node");
    }

    #[test]
    fn quoted_names_with_escapes_round_trip() {
        let al = ab();
        let q = parse_query(r#"Ans() <- (x, p, y), x = :"say \"hi\" \\ there""#, &al).unwrap();
        assert_eq!(q.node_constants[0].1, r#"say "hi" \ there"#);
        let d = q.to_string();
        let q2 = parse_query(&d, &al).unwrap();
        assert_eq!(q2.node_constants, q.node_constants);
        assert_eq!(q2.to_string(), d);
    }

    #[test]
    fn head_paths_are_recognized() {
        let al = ab();
        let q = parse_query("Ans(x, p) <- (x, p, y), L(p) = a*", &al).unwrap();
        assert_eq!(q.head_nodes, vec![NodeVar::new("x")]);
        assert_eq!(q.head_paths, vec![PathVar::new("p")]);
    }

    #[test]
    fn relation_regexes_and_parameterized_builtins() {
        let al = ab();
        let q = parse_query(
            "Ans() <- (x, p, y), (y, q, z), R(p, q) = (<a,a>|<b,b>)*, R(p, q) = edit_le_1",
            &al,
        )
        .unwrap();
        assert_eq!(q.relations.len(), 2);
        assert_eq!(q.relations[0].relation.arity(), 2);
        assert_eq!(q.relations[1].relation.name(), Some("edit_le_1"));
    }

    #[test]
    fn registry_relations_resolve() {
        let al = ab();
        let rho = builtin::rho_isomorphism(&al, &[], true);
        let q = parse_query_with(
            "Ans() <- (x, p, y), (u, q, v), R(p, q) = rho_iso",
            &al,
            &[("rho_iso", rho)],
        )
        .unwrap();
        assert_eq!(q.relations[0].relation.name(), Some("rho_iso"));
    }

    // ---------------------------------------------------------- error spans

    /// Golden span-accurate error messages: `(input, span, message)`.
    #[test]
    fn golden_error_messages() {
        let al = ab();
        let cases: &[(&str, (usize, usize), &str)] = &[
            ("Answer(x) <- (x, p, y)", (0, 6), "expected `Ans`, found `Answer`"),
            ("Ans(x <- (x, p, y)", (6, 7), "expected `)`, found `<`"),
            ("Ans(x) <- (x, p y)", (16, 17), "expected `,`, found `y`"),
            ("Ans(w) <- (x, p, y)", (4, 5), "head variable `w` does not occur in the query body"),
            ("Ans(x) <- (x, p, y), L(p) = (a", (29, 30), "in regular expression: expected `)`"),
            (
                "Ans(x) <- (x, p, y), R(p) = frobnicate",
                (28, 38),
                "unknown relation `frobnicate` (expected a built-in such as `eq`, `el`, \
                 `prefix`, `len_lt`, `len_le`, `edit_le_<k>`, `hamming_le_<k>`, a registered \
                 relation, or a regular expression over tuple letters)",
            ),
            (
                "Ans(x) <- (x, p, y), R(p) = eq",
                (28, 30),
                "relation `eq` has arity 2 but was applied to 1 path variable(s)",
            ),
            ("Ans(x) <- (x, p, y), len(p) > 2", (30, 31), "expected `=`, found `2`"),
            (
                "Ans(x) <- (x, p, y), z = :home",
                (21, 22),
                "bound variable `z` does not occur in the query body",
            ),
        ];
        for (input, (start, end), message) in cases {
            let err = parse_query(input, &al).unwrap_err();
            assert_eq!(
                (err.span.start, err.span.end, err.message.as_str()),
                (*start, *end, *message),
                "for input {input:?}"
            );
        }
    }

    /// A bounded-distance relation past the relation budget is a parse
    /// error naming it, not a build that runs for minutes (`edit_le_9`
    /// stops partway through synchronization) or allocates `k + 1` states
    /// (`hamming_le_4000000000` is refused before anything is built).
    #[test]
    fn relations_past_the_budget_are_refused() {
        let acgt = Alphabet::from_labels(["a", "c", "g", "t"]);
        let budget = ecrpq_automata::relation::RELATION_BUDGET;
        for name in ["edit_le_9", "hamming_le_4000000000"] {
            let input = format!("Ans() <- (x, p, y), (u, q, v), R(p, q) = {name}");
            let err = parse_query(&input, &acgt).unwrap_err();
            let start = input.len() - name.len();
            assert_eq!(
                (err.span.start, err.span.end, err.message),
                (
                    start,
                    input.len(),
                    format!(
                        "relation `{name}` is too large: its automaton passes the budget of \
                         {budget} states and transitions"
                    )
                ),
            );
        }
    }

    #[test]
    fn display_round_trips() {
        let al = ab();
        let inputs = [
            "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a+, R(p1, p2) = eq",
            "Ans() <- (x, p, y), len(p) >= 3, x = :start",
            "Ans(x, p) <- (x, p, y), L(p) = (a|b)* a, 2*count(a, p) - len(p) <= 0",
        ];
        for input in inputs {
            let q1 = parse_query(input, &al).unwrap();
            let d1 = q1.to_string();
            let q2 = parse_query(&d1, &al).unwrap();
            assert_eq!(d1, q2.to_string(), "Display not a fixpoint for {input:?}");
        }
    }
}
