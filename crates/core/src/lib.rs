//! # ecrpq
//!
//! Extended conjunctive regular path queries (ECRPQs) over graph databases —
//! a from-scratch Rust implementation of the query language, evaluation
//! algorithms, static analysis, and extensions studied in
//!
//! > Pablo Barceló, Leonid Libkin, Anthony W. Lin, Peter T. Wood.
//! > *Expressive Languages for Path Queries over Graph-Structured Data.*
//! > PODS 2010; ACM TODS 37(4), 2012.
//!
//! ECRPQs extend the classical conjunctive regular path queries (CRPQs) in
//! two ways: relation atoms may constrain *tuples* of paths with regular
//! relations (equality, equal length, prefix, bounded edit distance, …), and
//! queries may output paths, not just nodes.
//!
//! ## Quick start
//!
//! ```
//! use ecrpq::prelude::*;
//!
//! // A small graph: advisor edges between people.
//! let mut g = GraphBuilder::default();
//! let alice = g.add_named_node("alice");
//! let bob = g.add_named_node("bob");
//! let carol = g.add_named_node("carol");
//! let dana = g.add_named_node("dana");
//! let emma = g.add_named_node("emma");
//! g.add_edge_labeled(alice, "advisor", carol);
//! g.add_edge_labeled(carol, "advisor", emma);
//! g.add_edge_labeled(bob, "advisor", dana);
//! g.add_edge_labeled(dana, "advisor", emma);
//! let g = g.build();
//!
//! // "Pairs of people with same-length advisor chains to a common ancestor" —
//! // the introduction's example that CRPQs cannot express.
//! let alphabet = g.alphabet().clone();
//! let q = Ecrpq::builder(&alphabet)
//!     .head_nodes(&["x", "y"])
//!     .atom("x", "p1", "z")
//!     .atom("y", "p2", "z")
//!     .language("p1", "advisor+")
//!     .language("p2", "advisor+")
//!     .relation(builtin::equal_length(&alphabet), &["p1", "p2"])
//!     .build()
//!     .unwrap();
//!
//! let answers = eval::eval_nodes(&q, &g, &EvalConfig::default()).unwrap();
//! assert!(answers.contains(&vec![alice, bob]));    // both two steps from emma
//! assert!(!answers.contains(&vec![alice, carol])); // chains of different length only
//! ```
//!
//! ## Crate layout
//!
//! | module | contents | paper sections |
//! |--------|----------|----------------|
//! | [`query`] | CRPQ/ECRPQ abstract syntax, builder, validation, classification | §2, §3, §6.3, §8.2 |
//! | [`eval`] | node/path evaluation (acyclic CRPQs in polynomial time through the projecting join), membership checking, answer automata, length abstraction, linear constraints, negation | §5, §6, §8 |
//! | [`containment`] | bounded canonical-database containment checking | §7 |
//! | [`expressiveness`] | `strings(Q)`, pattern compilation, separating queries | §3, §4 |

#![warn(missing_docs)]

pub mod containment;
pub mod error;
pub mod eval;
pub mod expressiveness;
pub mod parse;
pub mod persist;
pub mod query;

pub use ecrpq_util::trace::{Trace, TraceSpan};
pub use error::QueryError;
pub use eval::{Answer, BoundPlan, BoundStatement, EvalConfig, PreparedQuery};

/// Compile-time guarantee that the compiled query pipeline is shareable
/// across threads: a server prepares a query once (`Arc<PreparedQuery>`),
/// binds it to a cataloged graph (`BoundStatement`), and runs it from a
/// worker pool. Any non-`Send`/`Sync` state sneaking into the pipeline
/// (an `Rc`-based cache, say) breaks this build immediately.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<query::Ecrpq>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<BoundStatement>();
};
pub use parse::{parse_query, parse_query_with, ParseError};
pub use query::{CountTarget, Ecrpq, NodeVar, PathVar};

/// Convenient re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::eval::{self, Answer, BoundPlan, BoundStatement, EvalConfig, PreparedQuery};
    pub use crate::parse::{parse_query, parse_query_with, ParseError};
    pub use crate::query::{CountTarget, Ecrpq, NodeVar, PathVar};
    pub use crate::QueryError;
    pub use ecrpq_automata::builtin;
    pub use ecrpq_automata::{Alphabet, Regex, RegularRelation, Symbol};
    pub use ecrpq_graph::{generators, GraphBuilder, GraphDb, NodeId, Path};
}
