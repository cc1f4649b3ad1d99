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
pub use sim::{CompactNfa, SetTable};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes the integer keys the constructions of this crate make (transducer
/// configurations, interned state sets): a multiply-rotate step per 8-byte
/// word, then murmur3's 64-bit finalizer. The keys are made by the program,
/// not read from outside it, so SipHash's resistance to crafted collisions
/// buys nothing here.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(26) ^ u64::from_ne_bytes(word))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        z ^ (z >> 33)
    }
}

/// A hash map over [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

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
