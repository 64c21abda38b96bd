//! Word-parallel vs scalar semijoin kernels.
//!
//! Compares the pre-order rank-space kernels of `cqt_core::support`
//! (blockwise `u64` operations into a caller-provided scratch set) against
//! the previous per-node scalar implementations retained in
//! `cqt_core::support::scalar`, on the axes where the rank-space layout
//! matters most: the closure axes (`Child*` — interval fills / ancestor
//! walks), `Following` (rank-threshold masks) and the sibling closure
//! (`NextSibling+` — stop-on-marked chain walks).
//!
//! ```text
//! cargo bench -p cqt-bench --bench semijoin_kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cqt_bench::benchmark_tree;
use cqt_core::support::{pre_supported_sources, pre_supported_targets, scalar};
use cqt_trees::{Axis, NodeSet};

const AXES: [Axis; 3] = [Axis::ChildStar, Axis::Following, Axis::NextSiblingPlus];

fn semijoin_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("semijoin_kernels");
    for &nodes in &[1_000usize, 100_000] {
        let tree = benchmark_tree(nodes, 7);
        // A realistically dense candidate set (~1/5 of the nodes).
        let targets = tree.nodes_with_label_name("A");
        let mut out = NodeSet::empty(tree.len());
        for axis in AXES {
            group.bench_function(
                BenchmarkId::new(format!("sources/scalar/{axis}"), nodes),
                |b| b.iter(|| scalar::supported_sources(&tree, axis, &targets)),
            );
            group.bench_function(
                BenchmarkId::new(format!("sources/word/{axis}"), nodes),
                |b| b.iter(|| pre_supported_sources(&tree, axis, &targets, &mut out)),
            );
            group.bench_function(
                BenchmarkId::new(format!("targets/scalar/{axis}"), nodes),
                |b| b.iter(|| scalar::supported_targets(&tree, axis, &targets)),
            );
            group.bench_function(
                BenchmarkId::new(format!("targets/word/{axis}"), nodes),
                |b| b.iter(|| pre_supported_targets(&tree, axis, &targets, &mut out)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, semijoin_kernels);
criterion_main!(benches);
