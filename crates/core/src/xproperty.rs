//! The X̲-property (Definition 3.2) and the classification of Theorem 4.1.
//!
//! A binary relation `R` on a totally ordered domain has the **X̲-property**
//! ("X-underbar"; called *hemichordality* in a companion paper) with respect
//! to the order `<` iff for all `n0 < n1` and `n2 < n3`,
//!
//! ```text
//! R(n1, n2) ∧ R(n0, n3)  ⇒  R(n0, n2).
//! ```
//!
//! Pictured with two vertical bars (Figure 2): whenever two arcs cross, the
//! arc connecting the two lower endpoints must also be present. Gutjahr,
//! Welzl and Woeginger (1992) showed that H-coloring — equivalently Boolean
//! conjunctive query evaluation — is polynomial-time solvable on structures
//! all of whose relations have the X̲-property with respect to a common order;
//! Section 3 of the paper turns this into the evaluation algorithm
//! implemented in [`crate::poly_eval`].
//!
//! This module provides:
//!
//! * [`x_property_violation`] / [`axis_has_x_property`] — checkers for
//!   arbitrary (relation, order) pairs on a concrete tree, returning the
//!   violating quadruple if any (used to machine-verify Theorem 4.1 and the
//!   counterexamples of Example 4.5 / Figure 3);
//! * [`theorem_4_1_orders`] — the paper's classification: for each axis, the
//!   orders with respect to which it has the X̲-property **on every tree**;
//! * [`figure3a_tree`] / [`figure3b_tree`] — the exact counterexample trees
//!   of Figure 3.

use cqt_trees::{Axis, MaterializedRelation, NodeId, Order, Tree, TreeBuilder};

/// A witness that a relation violates the X̲-property with respect to an
/// order: nodes `n0 < n1`, `n2 < n3` (in that order) with `R(n1, n2)` and
/// `R(n0, n3)` but not `R(n0, n2)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XViolation {
    /// The smaller left endpoint (`n0`).
    pub n0: NodeId,
    /// The larger left endpoint (`n1`).
    pub n1: NodeId,
    /// The smaller right endpoint (`n2`).
    pub n2: NodeId,
    /// The larger right endpoint (`n3`).
    pub n3: NodeId,
}

/// Checks Definition 3.2 for an explicit relation and an explicit rank array
/// (`rank[node]` = position of the node in the total order). Returns the
/// first violation found, or `None` if the relation has the X̲-property.
///
/// The check enumerates pairs of relation edges and is therefore
/// O(|R|²) — intended for verification on small structures, not for use
/// inside the evaluator (the evaluator relies on Theorem 4.1 instead).
pub fn relation_x_property_violation(
    relation: &MaterializedRelation,
    rank: &[u32],
) -> Option<XViolation> {
    // Materialize each edge once, together with its endpoint ranks, so the
    // quadratic pair scan below touches flat arrays instead of re-deriving
    // ranks per comparison.
    let edges: Vec<(NodeId, NodeId, u32, u32)> = relation
        .pairs()
        .map(|(u, v)| (u, v, rank[u.index()], rank[v.index()]))
        .collect();
    for &(n1, n2, r1, r2) in &edges {
        for &(n0, n3, r0, r3) in &edges {
            // See (n1, n2) and (n0, n3) as the crossing arcs of Figure 2.
            if r0 < r1 && r2 < r3 && !relation.contains(n0, n2) {
                return Some(XViolation { n0, n1, n2, n3 });
            }
        }
    }
    None
}

/// Checks whether `axis` has the X̲-property with respect to `order` on the
/// given `tree`. Returns the violating quadruple if not.
pub fn x_property_violation(tree: &Tree, axis: Axis, order: Order) -> Option<XViolation> {
    let relation = MaterializedRelation::from_axis(tree, axis);
    let rank: Vec<u32> = tree.nodes().map(|v| tree.rank(order, v)).collect();
    relation_x_property_violation(&relation, &rank)
}

/// Whether `axis` has the X̲-property with respect to `order` on `tree`.
pub fn axis_has_x_property(tree: &Tree, axis: Axis, order: Order) -> bool {
    x_property_violation(tree, axis, order).is_none()
}

/// The classification of Theorem 4.1 (completed by the NP-hardness results of
/// Section 5, which show no further (axis, order) pairs can be added): the
/// orders with respect to which `axis` has the X̲-property **on every tree**.
///
/// * `Child+`, `Child*` — pre-order;
/// * `Following` — post-order;
/// * `Child`, `NextSibling`, `NextSibling+`, `NextSibling*` — BFLR order;
/// * `Self` (the identity) — every order (vacuously);
/// * all other axes (the inverses) — none of the three orders.
pub fn theorem_4_1_orders(axis: Axis) -> &'static [Order] {
    match axis {
        Axis::ChildPlus | Axis::ChildStar => &[Order::Pre],
        Axis::Following => &[Order::Post],
        Axis::Child | Axis::NextSibling | Axis::NextSiblingPlus | Axis::NextSiblingStar => {
            &[Order::Bflr]
        }
        Axis::SelfAxis => &[Order::Pre, Order::Post, Order::Bflr],
        // The inverse axes are not part of the paper's axis set Ax; none of
        // them has the X̲-property with respect to any of the three orders on
        // all trees (e.g. Figure 3(b) refutes Descendant⁻¹ for post-order).
        _ => &[],
    }
}

/// The inclusions listed at the beginning of Section 4: whether `axis` is a
/// subset of the given total order (as a relation), i.e. `R(u, v) ⇒ u ≤ v`
/// in that order on every tree. These inclusions are what make Lemma 3.6
/// applicable in the proof of Theorem 4.1.
pub fn axis_included_in_order(axis: Axis, order: Order) -> bool {
    match order {
        // All paper axes are subsets of the pre-order.
        Order::Pre => axis.is_paper_axis() || axis == Axis::SelfAxis,
        // Child⁻¹, (Child+)⁻¹, (Child*)⁻¹, Following and the sibling axes are
        // subsets of the post-order.
        Order::Post => matches!(
            axis,
            Axis::Parent
                | Axis::AncestorPlus
                | Axis::AncestorStar
                | Axis::Following
                | Axis::NextSibling
                | Axis::NextSiblingPlus
                | Axis::NextSiblingStar
                | Axis::SelfAxis
        ),
        // Child and the sibling axes are subsets of the BFLR order.
        Order::Bflr => matches!(
            axis,
            Axis::Child
                | Axis::ChildPlus
                | Axis::ChildStar
                | Axis::NextSibling
                | Axis::NextSiblingPlus
                | Axis::NextSiblingStar
                | Axis::SelfAxis
        ),
    }
}

/// The tree of Figure 3(a): a witness that `Following` does **not** have the
/// X̲-property with respect to the pre-order.
///
/// The tree is drawn in the paper with nodes numbered 1–6 in pre-order:
///
/// ```text
///           1
///         /   \
///        2     6
///      / | \
///     3  4  5
/// ```
///
/// While `2 <pre 3 <pre 4 <pre 6`, `Following(2, 6)` and `Following(3, 4)`
/// hold but `Following(2, 4)` does not (node 4 is a descendant of node 2).
pub fn figure3a_tree() -> Tree {
    let mut b = TreeBuilder::new();
    let n1 = b.add_root(&["N1"]);
    let n2 = b.add_child(n1, &["N2"]);
    let _n3 = b.add_child(n2, &["N3"]);
    let _n4 = b.add_child(n2, &["N4"]);
    let _n5 = b.add_child(n2, &["N5"]);
    let _n6 = b.add_child(n1, &["N6"]);
    b.build().expect("figure 3(a) tree is valid")
}

/// The tree of Figure 3(b): a witness that `Descendant⁻¹` (and
/// `Descendant-or-self⁻¹`) do **not** have the X̲-property with respect to the
/// post-order.
///
/// Nodes are numbered 1–5 in post-order:
///
/// ```text
///         5
///       /   \
///      1     4
///           / \
///          2   3
/// ```
///
/// While `1 <post 3 <post 4 <post 5`, `Descendant⁻¹(3, 4)` (node 3 is a
/// descendant of node 4) and `Descendant⁻¹(1, 5)` hold, but
/// `Descendant⁻¹(1, 4)` does not — the crossing arcs lack the underbar arc,
/// so `Descendant⁻¹` and `Descendant-or-self⁻¹` violate the X̲-property with
/// respect to the post-order on this tree.
pub fn figure3b_tree() -> Tree {
    let mut b = TreeBuilder::new();
    let n5 = b.add_root(&["N5"]);
    let _n1 = b.add_child(n5, &["N1"]);
    let n4 = b.add_child(n5, &["N4"]);
    let _n2 = b.add_child(n4, &["N2"]);
    let _n3 = b.add_child(n4, &["N3"]);
    b.build().expect("figure 3(b) tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_trees::generate::{random_tree, RandomTreeConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn theorem_4_1_holds_on_random_trees() {
        // For every paper axis and every order claimed by Theorem 4.1, no
        // random tree exhibits a violation.
        let mut rng = StdRng::seed_from_u64(41);
        let config = RandomTreeConfig {
            nodes: 14,
            ..RandomTreeConfig::default()
        };
        for _ in 0..15 {
            let tree = random_tree(&mut rng, &config);
            for axis in Axis::PAPER_AXES {
                for &order in theorem_4_1_orders(axis) {
                    assert!(
                        axis_has_x_property(&tree, axis, order),
                        "{axis} should have the X-property wrt {order} (Theorem 4.1)"
                    );
                }
            }
        }
    }

    #[test]
    fn example_4_5_following_fails_for_preorder() {
        let tree = figure3a_tree();
        let violation = x_property_violation(&tree, Axis::Following, Order::Pre)
            .expect("Figure 3(a) must witness a violation");
        // The paper's witness: nodes 2, 3, 4, 6 (in pre-order numbering).
        let pre = |v: NodeId| tree.rank(Order::Pre, v) + 1; // 1-based like the figure
        assert!(pre(violation.n0) < pre(violation.n1));
        assert!(pre(violation.n2) < pre(violation.n3));
        // The specific quadruple (2, 3, 4, 6) is a violation; the checker may
        // find it or another one, but the paper's one must indeed violate.
        let node_at = |k: u32| tree.node_at(Order::Pre, k - 1);
        let (n2_, n3_, n4_, n6_) = (node_at(2), node_at(3), node_at(4), node_at(6));
        assert!(Axis::Following.holds(&tree, n3_, n4_));
        assert!(Axis::Following.holds(&tree, n2_, n6_));
        assert!(!Axis::Following.holds(&tree, n2_, n4_));
    }

    #[test]
    fn example_4_5_inverse_descendant_fails_for_postorder() {
        let tree = figure3b_tree();
        assert!(
            x_property_violation(&tree, Axis::AncestorPlus, Order::Post).is_some(),
            "Descendant^-1 must violate the X-property wrt post-order (Figure 3(b))"
        );
        assert!(
            x_property_violation(&tree, Axis::AncestorStar, Order::Post).is_some(),
            "Descendant-or-self^-1 must violate the X-property wrt post-order (Figure 3(b))"
        );
    }

    #[test]
    fn negative_cases_justifying_the_np_hard_cells() {
        // The hardness results of Section 5 imply these axes cannot have the
        // X-property with respect to these orders on all trees; exhibit
        // concrete counterexample trees.
        let tree = figure3a_tree();
        // Child does not have the X-property wrt pre-order on all trees
        // (otherwise {Child, Child+} would be tractable, contradicting Thm 5.1).
        let mut found_child_pre = x_property_violation(&tree, Axis::Child, Order::Pre).is_some();
        let mut found_following_bflr =
            x_property_violation(&tree, Axis::Following, Order::Bflr).is_some();
        let mut found_childplus_bflr =
            x_property_violation(&tree, Axis::ChildPlus, Order::Bflr).is_some();
        // Search small random trees for whichever counterexamples the fixed
        // tree does not already provide.
        let mut rng = StdRng::seed_from_u64(42);
        let config = RandomTreeConfig {
            nodes: 10,
            ..RandomTreeConfig::default()
        };
        for _ in 0..200 {
            if found_child_pre && found_following_bflr && found_childplus_bflr {
                break;
            }
            let t = random_tree(&mut rng, &config);
            found_child_pre |= x_property_violation(&t, Axis::Child, Order::Pre).is_some();
            found_following_bflr |=
                x_property_violation(&t, Axis::Following, Order::Bflr).is_some();
            found_childplus_bflr |=
                x_property_violation(&t, Axis::ChildPlus, Order::Bflr).is_some();
        }
        assert!(
            found_child_pre,
            "expected a tree where Child violates X wrt pre"
        );
        assert!(
            found_following_bflr,
            "expected a tree where Following violates X wrt bflr"
        );
        assert!(
            found_childplus_bflr,
            "expected a tree where Child+ violates X wrt bflr"
        );
    }

    #[test]
    fn self_axis_has_x_property_for_all_orders() {
        let tree = figure3a_tree();
        for order in Order::ALL {
            assert!(axis_has_x_property(&tree, Axis::SelfAxis, order));
        }
    }

    #[test]
    fn section_4_inclusions_hold_on_random_trees() {
        // "All the axes in Ax are subsets of the preorder", etc.
        let mut rng = StdRng::seed_from_u64(43);
        let config = RandomTreeConfig {
            nodes: 20,
            ..RandomTreeConfig::default()
        };
        for _ in 0..10 {
            let tree = random_tree(&mut rng, &config);
            for axis in Axis::ALL {
                for order in Order::ALL {
                    if axis_included_in_order(axis, order) {
                        for (u, v) in axis.pairs(&tree) {
                            assert!(
                                tree.rank(order, u) <= tree.rank(order, v),
                                "{axis} pair ({u}, {v}) violates inclusion in {order}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn preorder_is_disjoint_union_of_childstar_and_following() {
        // Used in the proof of Theorem 4.1: ≤pre = Child* ⊎ Following.
        let mut rng = StdRng::seed_from_u64(44);
        let tree = random_tree(
            &mut rng,
            &RandomTreeConfig {
                nodes: 15,
                ..RandomTreeConfig::default()
            },
        );
        for u in tree.nodes() {
            for v in tree.nodes() {
                let le_pre = tree.rank(Order::Pre, u) <= tree.rank(Order::Pre, v);
                let cs = Axis::ChildStar.holds(&tree, u, v);
                let fo = Axis::Following.holds(&tree, u, v);
                assert_eq!(le_pre, cs || fo);
                assert!(!(cs && fo), "Child* and Following must be disjoint");
            }
        }
    }

    #[test]
    fn postorder_is_disjoint_union_of_inverse_childstar_and_following() {
        // Also used in the proof of Theorem 4.1: ≤post = (Child*)⁻¹ ⊎ Following.
        let mut rng = StdRng::seed_from_u64(45);
        let tree = random_tree(
            &mut rng,
            &RandomTreeConfig {
                nodes: 15,
                ..RandomTreeConfig::default()
            },
        );
        for u in tree.nodes() {
            for v in tree.nodes() {
                let le_post = tree.post_rank(u) <= tree.post_rank(v);
                let acs = Axis::AncestorStar.holds(&tree, u, v);
                let fo = Axis::Following.holds(&tree, u, v);
                assert_eq!(le_post, acs || fo, "mismatch at ({u}, {v})");
                assert!(!(acs && fo));
            }
        }
    }
}
