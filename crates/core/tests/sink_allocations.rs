//! A fingerprint sink folds an answer without allocating per tuple.
//!
//! `Q(x, y) :- Child+(x, y)` on a path of 1,500 nodes has 1,124,250 answer
//! tuples. A counting global allocator (in a test binary of its own, since a
//! global allocator is per binary) counts the heap allocations of the
//! calling thread: folding that answer into a fingerprint makes as many
//! allocations as folding the 4,950 tuples of a 100-node path, while
//! collecting it makes at least one per tuple. The folded value equals
//! `answer_fingerprint` of the collected answer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cqt_core::{answer_fingerprint, Answer, AnswerSink, CompiledQuery, ExecScratch};
use cqt_trees::{PreparedTree, TreeBuilder};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations the calling thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn path(nodes: usize) -> PreparedTree {
    let mut builder = TreeBuilder::new();
    let mut last = builder.add_root(&["A"]);
    for _ in 1..nodes {
        last = builder.add_child(last, &["A"]);
    }
    PreparedTree::new(builder.build().unwrap())
}

/// Folds the plan's answer on `prepared` into a fingerprint sink with a
/// scratch already sized for the tree; returns the sink and the
/// allocations the fold made.
fn fold(plan: &CompiledQuery, prepared: &PreparedTree, key: u64) -> (AnswerSink, u64) {
    let mut scratch = ExecScratch::new();
    plan.execute_into(prepared, &mut scratch, &mut AnswerSink::fingerprint(key, 2));
    allocations(|| {
        let mut sink = AnswerSink::fingerprint(key, 2);
        plan.execute_into(prepared, &mut scratch, &mut sink);
        sink
    })
}

#[test]
fn folding_a_million_tuples_allocates_no_more_than_folding_thousands() {
    let plan = CompiledQuery::parse("Q(x, y) :- Child+(x, y).").unwrap();
    let (small, large) = (path(100), path(1_500));
    let key = 0x5eed;
    let (small_sink, small_allocations) = fold(&plan, &small, key);
    let (large_sink, large_allocations) = fold(&plan, &large, key);
    assert_eq!(small_sink.answers(), 100 * 99 / 2);
    assert_eq!(large_sink.answers(), 1_500 * 1_499 / 2);
    assert!(large_sink.answers() >= 1_000_000);
    assert_eq!(large_allocations, small_allocations);

    let mut scratch = ExecScratch::new();
    let (answer, collect_allocations) = allocations(|| plan.execute(&large, &mut scratch));
    let Answer::Tuples(tuples) = &answer else {
        panic!("k-ary answer expected");
    };
    assert_eq!(tuples.len() as u64, large_sink.answers());
    assert!(collect_allocations >= large_sink.answers());
    assert_eq!(
        large_sink.fingerprint_value(),
        Some(answer_fingerprint(key, &answer))
    );
    let mut count = AnswerSink::count();
    plan.execute_into(&large, &mut scratch, &mut count);
    assert_eq!(count.answers(), large_sink.answers());
}
