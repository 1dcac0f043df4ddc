//! Allocation gate for the fused lex → certify → LR path.
//!
//! The fused path writes its derivation onto one flat tape, so the
//! number of heap allocations a parse makes must not grow with the
//! number of tree nodes: only the handful of vectors behind the
//! machine (states, claims, slot starts, the tape) grow, each
//! geometrically. This binary installs a counting global allocator and
//! compares the allocation counts of parses whose inputs differ in size
//! by a factor of about 260. Allocation counts are only meaningful in
//! release builds, where the suite runs in CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lambekd::engine::{PipelineSpec, StrOutcome};

/// Counts the allocations (including reallocations) made by the
/// current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// An arithmetic document of at least `bytes` bytes: sums with
/// multi-digit numerals, whitespace and parenthesized groups.
fn arith_doc(bytes: usize) -> String {
    let mut s = String::from("0");
    let mut i = 0u64;
    while s.len() < bytes {
        i += 1;
        let n = i.wrapping_mul(2_654_435_761) % 100_000;
        if i.is_multiple_of(5) {
            s.push_str(&format!(" + ({n} + {})", n / 7));
        } else {
            s.push_str(&format!("+{n}"));
        }
    }
    s
}

#[test]
fn fused_parse_allocations_do_not_grow_with_the_tree() {
    let pipeline = PipelineSpec::arith_lexed().compile().expect("compiles");
    let backend = pipeline.lexed_backend().expect("lexed pipeline");
    let docs: Vec<String> = [2_500, 40_000, 650_000]
        .into_iter()
        .map(arith_doc)
        .collect();
    // Warm-up: the certifier's lazy derivative states are discovered
    // once per grammar, not per call.
    assert!(backend.parse_str(&docs[2]).expect("no fault").is_accept());
    let mut counts = Vec::new();
    for doc in &docs {
        let before = allocs();
        let out = backend.parse_str(doc).expect("no contract fault");
        let made = allocs() - before;
        let StrOutcome::Accept { tree, .. } = out else {
            panic!("a {}-byte document was not accepted", doc.len());
        };
        assert!(tree.size() > doc.len() / 4, "the tree covers the input");
        counts.push(made);
    }
    eprintln!("allocations per call: {counts:?}");
    assert!(
        counts[2] <= counts[0] + 16,
        "allocations grow with the input: {counts:?} at {} / {} / {} bytes",
        docs[0].len(),
        docs[1].len(),
        docs[2].len()
    );
}
