//! The flat state arena shared by the dense product engines (the
//! convolution search and the answer-automaton construction).
//!
//! Search states are encoded as fixed-width `u64` words (path positions,
//! one interned state-set word per relation automaton, counter values) and
//! interned into one contiguous `Vec<u64>`; deduplication goes through an
//! open-addressing hash table that stores only `u32` state indices. Compared
//! to hashing and cloning a `State { Vec<Pos>, Vec<Vec<StateId>>, Vec<i64> }`
//! per visit, interning a state costs one hash of `words` machine words and
//! (for fresh states) one `extend_from_slice` — no per-state allocation at
//! all. A key is `num_paths + num_relations + num_counters` words, whatever
//! the size of the relation automata.

/// Word layout of one encoded search state shared by the dense engines:
/// `num_paths` position words, then one word per relation automaton (the
/// [`SetTable`](ecrpq_automata::sim::SetTable) word of its current state
/// set, relation `j` at `num_paths + j`), then one word per
/// linear-constraint counter (none for the answer-automaton construction).
/// Keeping the offset arithmetic in one place means the convolution search
/// and the answer-automaton loop cannot drift apart.
pub(crate) struct Layout {
    pub num_paths: usize,
    /// Word offset of the counter values.
    pub cnt_off: usize,
    /// Total words per state.
    pub words: usize,
}

impl Layout {
    pub fn new(num_paths: usize, num_relations: usize, num_counters: usize) -> Layout {
        let cnt_off = num_paths + num_relations;
        Layout { num_paths, cnt_off, words: (cnt_off + num_counters).max(1) }
    }
}

/// Advances the mixed-radix odometer over per-variable option lists:
/// increments `choice` in place and returns `false` when the Cartesian
/// product is exhausted (also immediately for zero variables).
#[inline]
pub(crate) fn odometer_next(choice: &mut [usize], len_of: impl Fn(usize) -> usize) -> bool {
    for (i, c) in choice.iter_mut().enumerate() {
        *c += 1;
        if *c < len_of(i) {
            return true;
        }
        *c = 0;
    }
    false
}

/// Interns fixed-width `u64` keys, assigning dense `u32` ids in insertion
/// order. Keys live contiguously in one arena vector.
pub(crate) struct Arena {
    words: usize,
    data: Vec<u64>,
    /// Open-addressing table of state ids (`u32::MAX` = empty slot).
    table: Vec<u32>,
    mask: usize,
    len: usize,
}

#[inline]
fn hash_key(key: &[u64]) -> u64 {
    // xor-multiply-shift over the words; the final avalanche is the
    // murmur3/splitmix finalizer constant pair.
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in key {
        h ^= w;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
    }
    h
}

impl Arena {
    /// Creates an empty arena for keys of `words` words each.
    pub fn new(words: usize) -> Arena {
        let cap = 1024;
        Arena { words, data: Vec::new(), table: vec![u32::MAX; cap], mask: cap - 1, len: 0 }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The key stored under `id`.
    #[inline]
    pub fn get(&self, id: u32) -> &[u64] {
        let base = id as usize * self.words;
        &self.data[base..base + self.words]
    }

    /// Interns `key`, returning its id and whether it was newly inserted.
    pub fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        debug_assert_eq!(key.len(), self.words);
        if (self.len + 1) * 4 > self.table.len() * 3 {
            self.grow();
        }
        let mut i = hash_key(key) as usize & self.mask;
        loop {
            let slot = self.table[i];
            if slot == u32::MAX {
                let id = self.len as u32;
                self.data.extend_from_slice(key);
                self.table[i] = id;
                self.len += 1;
                return (id, true);
            }
            if self.get(slot) == key {
                return (slot, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        let mut table = vec![u32::MAX; cap];
        let mask = cap - 1;
        for id in 0..self.len as u32 {
            let mut i = hash_key(self.get(id)) as usize & mask;
            while table[i] != u32::MAX {
                i = (i + 1) & mask;
            }
            table[i] = id;
        }
        self.table = table;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_assigns_dense_ids() {
        let mut a = Arena::new(3);
        let (i0, fresh0) = a.intern(&[1, 2, 3]);
        let (i1, fresh1) = a.intern(&[1, 2, 4]);
        let (i2, fresh2) = a.intern(&[1, 2, 3]);
        assert_eq!((i0, fresh0), (0, true));
        assert_eq!((i1, fresh1), (1, true));
        assert_eq!((i2, fresh2), (0, false));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1), &[1, 2, 4]);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut a = Arena::new(2);
        for i in 0..5000u64 {
            let (id, fresh) = a.intern(&[i, i.wrapping_mul(0x1234_5678_9abc_def1)]);
            assert_eq!(id as u64, i);
            assert!(fresh);
        }
        assert_eq!(a.len(), 5000);
        // every key still resolves to its original id
        for i in 0..5000u64 {
            let (id, fresh) = a.intern(&[i, i.wrapping_mul(0x1234_5678_9abc_def1)]);
            assert_eq!(id as u64, i);
            assert!(!fresh);
        }
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn adversarial_equal_hash_prefixes() {
        // keys differing only in the last word probe into nearby slots
        let mut a = Arena::new(4);
        for i in 0..64u64 {
            a.intern(&[7, 7, 7, i]);
        }
        assert_eq!(a.len(), 64);
        for i in 0..64u64 {
            assert_eq!(a.intern(&[7, 7, 7, i]).0 as u64, i);
        }
    }
}
