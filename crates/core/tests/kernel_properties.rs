//! Property-based cross-checks for the word-parallel semijoin kernels.
//!
//! Every rank-space kernel (`pre_supported_sources` / `pre_supported_targets`
//! via the allocating wrappers) and the retained scalar baseline are
//! checked against the brute-force
//! `support::reference` enumeration on arbitrary trees (up to 300 nodes),
//! all 15 axes, and candidate sets of arbitrary density.

use cqt_core::support::{self, reference, scalar};
use cqt_trees::{Axis, NodeId, NodeSet, Tree, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: an arbitrary unranked tree with up to `max_nodes` nodes, encoded
/// as parent-choice indices (node 0 is the root).
fn arb_tree(max_nodes: usize) -> impl Strategy<Value = Tree> {
    proptest::collection::vec(any::<proptest::sample::Index>(), 1..max_nodes).prop_map(|spec| {
        let mut builder = TreeBuilder::new();
        let mut nodes = Vec::new();
        for (i, parent_choice) in spec.iter().enumerate() {
            let node = if i == 0 {
                builder.add_root(&["L"])
            } else {
                builder.add_child(nodes[parent_choice.index(nodes.len())], &["L"])
            };
            nodes.push(node);
        }
        builder.build().expect("generated trees are valid")
    })
}

fn random_subset(seed: u64, n: usize, density_percent: u8) -> NodeSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = NodeSet::empty(n);
    for i in 0..n {
        if rng.gen_range(0u8..100) < density_percent {
            set.insert(NodeId::from_index(i));
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The word-parallel kernels compute exactly the brute-force semijoin
    /// supports, for every axis, on arbitrary trees and densities.
    #[test]
    fn word_parallel_kernels_match_reference(
        tree in arb_tree(300),
        seed in 0u64..1 << 48,
        density in 0u8..=100,
    ) {
        let set = random_subset(seed, tree.len(), density);
        for axis in Axis::ALL {
            prop_assert_eq!(
                support::supported_sources(&tree, axis, &set),
                reference::supported_sources(&tree, axis, &set),
                "sources mismatch for {} (n={}, density={})", axis, tree.len(), density
            );
            prop_assert_eq!(
                support::supported_targets(&tree, axis, &set),
                reference::supported_targets(&tree, axis, &set),
                "targets mismatch for {} (n={}, density={})", axis, tree.len(), density
            );
        }
    }

    /// The retained scalar baseline stays correct too (it is the measured
    /// "before" of BENCH_2.json and must remain a valid oracle).
    #[test]
    fn scalar_baseline_matches_reference(
        tree in arb_tree(150),
        seed in 0u64..1 << 48,
        density in 0u8..=100,
    ) {
        let set = random_subset(seed, tree.len(), density);
        for axis in Axis::ALL {
            prop_assert_eq!(
                scalar::supported_sources(&tree, axis, &set),
                reference::supported_sources(&tree, axis, &set),
                "scalar sources mismatch for {}", axis
            );
            prop_assert_eq!(
                scalar::supported_targets(&tree, axis, &set),
                reference::supported_targets(&tree, axis, &set),
                "scalar targets mismatch for {}", axis
            );
        }
    }
}
