//! Memory high-water mark of one large row-valued reply.
//!
//! A std-only counting global allocator tracks live heap bytes and their
//! peak. The one test in this binary (one test per binary, so no other test
//! thread allocates meanwhile) loads a 256 + 256-node two-sided graph —
//! `u -a-> v -b-> u'` around a ring plus one seeded random edge of each
//! kind per node — and measures a single `Service::dispatch` of the warm
//! statement `Ans(x, y) <- (x, p, y), L(p) = (a b)+`, whose reply carries
//! all 256² = 65,536 `(u, u')` rows (about 1 MB of text).
//!
//! The bound is on the peak *above* the level before the dispatch: the
//! row text, the reply text that embeds it, and anything else the run
//! allocates. A run that collects its answers before writing them (48 B
//! plus one heap tuple per row), a renderer that materializes a heap object
//! per row or per node name (a `Value` tree beside the text), or a
//! head-dedup set holding a clone of every answer, lands above it.

use ecrpq_graph::prng::SplitMix64;
use ecrpq_server::protocol::Service;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Count the new block before releasing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Sides of the two-sided graph; the reply has `SIDE²` rows.
const SIDE: usize = 256;

/// Peak heap growth allowed for the one dispatch, in bytes. Measured on
/// x86-64 Linux (debug and release alike): 10,430,646 B when the reply is
/// built as a `Value` per row and per node name next to a head-dedup set;
/// 5,535,638 B with rows written into the reply text from a collected
/// answer vector; 4,026,426 B with each row written as the join verifies
/// it, no answer vector at all. The bound sits halfway between the last two
/// in ratio (their geometric mean, 4.72 MB, rounded down).
const PEAK_BOUND: usize = 4_700_000;

/// The edge list: `u_i -a-> v_i -b-> u_{i+1}` around a ring (so every `u`
/// reaches every `u` through `(a b)+`) plus one seeded random `a` and `b`
/// edge per node.
fn two_sided_edges(seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut text = String::new();
    for i in 0..SIDE {
        text.push_str(&format!("u{i} a v{i}\nv{i} b u{}\n", (i + 1) % SIDE));
        let (u, v) = (rng.gen_index(SIDE), rng.gen_index(SIDE));
        text.push_str(&format!("u{u} a v{v}\n"));
        let (v, u) = (rng.gen_index(SIDE), rng.gen_index(SIDE));
        text.push_str(&format!("v{v} b u{u}\n"));
    }
    text
}

#[test]
fn a_large_row_reply_peaks_within_its_bound() {
    let service = Service::new(8);
    let edges = two_sided_edges(42).replace('\n', "\\n");
    let (reply, _) = service.dispatch(&format!(r#"{{"op":"load","graph":"w","edges":"{edges}"}}"#));
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let (reply, _) = service.dispatch(
        r#"{"op":"prepare","name":"wide","query":"Ans(x, y) <- (x, p, y), L(p) = (a b)+","graph":"w"}"#,
    );
    assert!(reply.contains(r#""ok":true"#), "{reply}");
    let run = r#"{"op":"run","name":"wide","graph":"w"}"#;
    // Warm: bind the statement and compile its tables outside the window.
    let (warm, _) = service.dispatch(run);
    drop(warm);

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let (reply, _) = service.dispatch(run);
    let peak = PEAK.load(Ordering::Relaxed) - start;

    let rows = SIDE * SIDE;
    assert!(reply.contains(&format!(r#""count":{rows},"#)), "{}", &reply[..200]);
    assert_eq!(reply.matches("],[").count(), rows - 1);
    eprintln!("one {rows}-row reply of {} bytes: heap peak {peak} bytes above start", reply.len());
    assert!(peak < PEAK_BOUND, "heap peak {peak} bytes above start exceeds {PEAK_BOUND}");
}
