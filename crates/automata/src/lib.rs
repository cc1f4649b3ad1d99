//! # ecrpq-automata
//!
//! Automata-theoretic substrate for the ECRPQ query engine: alphabets, NFAs
//! and DFAs, regular expressions, synchronous multi-tape automata (regular
//! relations), bounded-delay transducer synchronization, length analysis of
//! automata, and a small linear-constraint solver.
//!
//! Everything here is implemented from scratch; the crate corresponds to the
//! "regular languages and regular relations" preliminaries (Section 2) of
//! Barceló, Libkin, Lin & Wood, *Expressive Languages for Path Queries over
//! Graph-Structured Data*, plus the automata constructions used by the
//! evaluation algorithms in Sections 5–8.
//!
//! ## Quick tour
//!
//! ```
//! use ecrpq_automata::alphabet::Alphabet;
//! use ecrpq_automata::regex::Regex;
//! use ecrpq_automata::relation::RegularRelation;
//! use ecrpq_automata::builtin;
//!
//! let alphabet = Alphabet::from_labels(["a", "b"]);
//! // A regular language over Σ.
//! let lang = Regex::parse("a+ b*").unwrap().compile(&alphabet).unwrap();
//! assert!(lang.accepts(&[alphabet.sym("a"), alphabet.sym("b")]));
//!
//! // A regular relation over (Σ⊥)²: the equal-length relation `el`.
//! let el = builtin::equal_length(&alphabet);
//! assert!(el.contains(&[&[alphabet.sym("a")], &[alphabet.sym("b")]]));
//!
//! // Relations can also be written as regular expressions over tuple letters.
//! let eq = RegularRelation::from_regex("(<a,a>|<b,b>)*", &alphabet, 2).unwrap();
//! assert!(eq.contains(&[&[alphabet.sym("a")], &[alphabet.sym("a")]]));
//! ```

#![warn(missing_docs)]

pub mod alphabet;
pub mod builtin;
pub mod dfa;
pub mod nfa;
pub mod regex;
pub mod relation;
pub mod semilinear;
pub mod sim;
pub mod transducer;
pub mod unary;

pub use alphabet::{Alphabet, PadSymbol, Symbol, TupleSym};
pub use nfa::{Nfa, StateId};
pub use regex::Regex;
pub use relation::RegularRelation;
pub use sim::{CompactNfa, StateSet};

/// Compile-time guarantee that every automaton artifact the query pipeline
/// shares across threads really is `Send + Sync`: relations memoize their
/// compiled tables behind `Arc`/`OnceLock` (never `Rc`/`RefCell`), so a
/// prepared query can be evaluated concurrently. A regression here (say, an
/// `Rc` reintroduced into a cache) fails this build instead of surfacing as
/// a trait-bound error in a downstream crate.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Alphabet>();
    assert_send_sync::<Nfa<Symbol>>();
    assert_send_sync::<Nfa<TupleSym>>();
    assert_send_sync::<RegularRelation>();
    assert_send_sync::<CompactNfa<Symbol>>();
    assert_send_sync::<CompactNfa<TupleSym>>();
};
