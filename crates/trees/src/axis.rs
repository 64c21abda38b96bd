//! The binary structure relations ("axes") of the paper.
//!
//! Section 2 fixes the axis set
//! `Ax = {Child, Child+, Child*, NextSibling, NextSibling+, NextSibling*, Following}`:
//!
//! * `Child` — the usual parent-to-child edge relation;
//! * `Child+` — its transitive closure (`Descendant` in XPath);
//! * `Child*` — its reflexive-transitive closure (`Descendant-or-self`);
//! * `NextSibling` — `NextSibling(v, w)` iff `w` is the right neighbouring
//!   sibling of `v`;
//! * `NextSibling+` — its transitive closure (`Following-sibling` in XPath);
//! * `NextSibling*` — its reflexive-transitive closure;
//! * `Following` — defined by Eq. (1) of the paper:
//!   `Following(x, y) = ∃z1∃z2 Child*(z1, x) ∧ NextSibling+(z1, z2) ∧ Child*(z2, y)`.
//!
//! This module additionally provides the inverse axes (`Parent`, `Ancestor`,
//! …, `Preceding`) and the trivial `Self` axis, which are needed by the XPath
//! front-end; the paper notes they are redundant for conjunctive queries
//! because atoms may mention variables in either order.
//!
//! Every axis supports an O(1) membership test [`Axis::holds`], successor /
//! predecessor enumeration, and full pair enumeration (used by the naive
//! baseline evaluator and the generic X̲-property checker).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

use crate::node::NodeId;
use crate::order::Order;
use crate::tree::Tree;

/// A binary structure relation over tree nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Axis {
    /// `Child(u, v)`: `v` is a child of `u`.
    Child,
    /// `Child+(u, v)`: `v` is a proper descendant of `u` (XPath `descendant`).
    ChildPlus,
    /// `Child*(u, v)`: `v` is `u` or a descendant of `u` (`descendant-or-self`).
    ChildStar,
    /// `NextSibling(u, v)`: `v` is the immediate right sibling of `u`.
    NextSibling,
    /// `NextSibling+(u, v)`: `v` is a right sibling of `u` (`following-sibling`).
    NextSiblingPlus,
    /// `NextSibling*(u, v)`: `v` is `u` or a right sibling of `u`.
    NextSiblingStar,
    /// `Following(u, v)`: `v` starts after the subtree of `u` ends (XPath
    /// `following`), Eq. (1) of the paper.
    Following,
    /// Inverse of [`Axis::Child`] (XPath `parent`).
    Parent,
    /// Inverse of [`Axis::ChildPlus`] (XPath `ancestor`).
    AncestorPlus,
    /// Inverse of [`Axis::ChildStar`] (XPath `ancestor-or-self`).
    AncestorStar,
    /// Inverse of [`Axis::NextSibling`].
    PrevSibling,
    /// Inverse of [`Axis::NextSiblingPlus`] (XPath `preceding-sibling`).
    PrevSiblingPlus,
    /// Inverse of [`Axis::NextSiblingStar`].
    PrevSiblingStar,
    /// Inverse of [`Axis::Following`] (XPath `preceding`).
    Preceding,
    /// The identity relation (XPath `self`).
    SelfAxis,
}

impl Axis {
    /// The paper's axis set `Ax` (Section 2), in the order used by Table I.
    pub const PAPER_AXES: [Axis; 7] = [
        Axis::Child,
        Axis::ChildPlus,
        Axis::ChildStar,
        Axis::NextSibling,
        Axis::NextSiblingPlus,
        Axis::NextSiblingStar,
        Axis::Following,
    ];

    /// All axes supported by this crate (paper axes, inverses, `self`).
    pub const ALL: [Axis; 15] = [
        Axis::Child,
        Axis::ChildPlus,
        Axis::ChildStar,
        Axis::NextSibling,
        Axis::NextSiblingPlus,
        Axis::NextSiblingStar,
        Axis::Following,
        Axis::Parent,
        Axis::AncestorPlus,
        Axis::AncestorStar,
        Axis::PrevSibling,
        Axis::PrevSiblingPlus,
        Axis::PrevSiblingStar,
        Axis::Preceding,
        Axis::SelfAxis,
    ];

    /// Number of axes in [`Axis::ALL`].
    pub const COUNT: usize = Axis::ALL.len();

    /// Dense index of the axis (its position in [`Axis::ALL`], which matches
    /// declaration order). Used by per-axis cache arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this axis is one of the seven axes of the paper's set `Ax`.
    pub fn is_paper_axis(self) -> bool {
        Self::PAPER_AXES.contains(&self)
    }

    /// The name used in the paper / this crate's query syntax
    /// (e.g. `Child+`, `NextSibling*`, `Following`).
    pub fn paper_name(self) -> &'static str {
        match self {
            Axis::Child => "Child",
            Axis::ChildPlus => "Child+",
            Axis::ChildStar => "Child*",
            Axis::NextSibling => "NextSibling",
            Axis::NextSiblingPlus => "NextSibling+",
            Axis::NextSiblingStar => "NextSibling*",
            Axis::Following => "Following",
            Axis::Parent => "Parent",
            Axis::AncestorPlus => "Ancestor+",
            Axis::AncestorStar => "Ancestor*",
            Axis::PrevSibling => "PrevSibling",
            Axis::PrevSiblingPlus => "PrevSibling+",
            Axis::PrevSiblingStar => "PrevSibling*",
            Axis::Preceding => "Preceding",
            Axis::SelfAxis => "Self",
        }
    }

    /// The XPath axis name corresponding to this relation, when one exists.
    ///
    /// `NextSibling` and `NextSibling*` have no XPath counterpart (the paper
    /// considers them anyway); `self` maps to `self`.
    pub fn xpath_name(self) -> Option<&'static str> {
        match self {
            Axis::Child => Some("child"),
            Axis::ChildPlus => Some("descendant"),
            Axis::ChildStar => Some("descendant-or-self"),
            Axis::NextSiblingPlus => Some("following-sibling"),
            Axis::Following => Some("following"),
            Axis::Parent => Some("parent"),
            Axis::AncestorPlus => Some("ancestor"),
            Axis::AncestorStar => Some("ancestor-or-self"),
            Axis::PrevSiblingPlus => Some("preceding-sibling"),
            Axis::Preceding => Some("preceding"),
            Axis::SelfAxis => Some("self"),
            Axis::NextSibling
            | Axis::NextSiblingStar
            | Axis::PrevSibling
            | Axis::PrevSiblingStar => None,
        }
    }

    /// The inverse axis: `inverse(R)(u, v)` holds iff `R(v, u)` holds.
    pub fn inverse(self) -> Axis {
        match self {
            Axis::Child => Axis::Parent,
            Axis::ChildPlus => Axis::AncestorPlus,
            Axis::ChildStar => Axis::AncestorStar,
            Axis::NextSibling => Axis::PrevSibling,
            Axis::NextSiblingPlus => Axis::PrevSiblingPlus,
            Axis::NextSiblingStar => Axis::PrevSiblingStar,
            Axis::Following => Axis::Preceding,
            Axis::Parent => Axis::Child,
            Axis::AncestorPlus => Axis::ChildPlus,
            Axis::AncestorStar => Axis::ChildStar,
            Axis::PrevSibling => Axis::NextSibling,
            Axis::PrevSiblingPlus => Axis::NextSiblingPlus,
            Axis::PrevSiblingStar => Axis::NextSiblingStar,
            Axis::Preceding => Axis::Following,
            Axis::SelfAxis => Axis::SelfAxis,
        }
    }

    /// Whether the relation is reflexive (contains every pair `(v, v)`).
    pub fn is_reflexive(self) -> bool {
        matches!(
            self,
            Axis::ChildStar
                | Axis::NextSiblingStar
                | Axis::AncestorStar
                | Axis::PrevSiblingStar
                | Axis::SelfAxis
        )
    }

    /// The reflexive closure of the axis, when it is itself an axis of this
    /// crate (e.g. `Child+` ↦ `Child*`). Reflexive axes map to themselves;
    /// `Child`, `NextSibling`, `Following` and their inverses have no axis
    /// representing their reflexive closure and return `None`.
    pub fn reflexive_closure(self) -> Option<Axis> {
        match self {
            Axis::ChildPlus => Some(Axis::ChildStar),
            Axis::NextSiblingPlus => Some(Axis::NextSiblingStar),
            Axis::AncestorPlus => Some(Axis::AncestorStar),
            Axis::PrevSiblingPlus => Some(Axis::PrevSiblingStar),
            axis if axis.is_reflexive() => Some(axis),
            _ => None,
        }
    }

    /// The irreflexive core of the axis (e.g. `Child*` ↦ `Child+`), when it
    /// is itself an axis of this crate.
    pub fn irreflexive_core(self) -> Option<Axis> {
        match self {
            Axis::ChildStar => Some(Axis::ChildPlus),
            Axis::NextSiblingStar => Some(Axis::NextSiblingPlus),
            Axis::AncestorStar => Some(Axis::AncestorPlus),
            Axis::PrevSiblingStar => Some(Axis::PrevSiblingPlus),
            Axis::SelfAxis => None,
            axis if !axis.is_reflexive() => Some(axis),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Containment and composition (the algebra behind query minimization).
    // ------------------------------------------------------------------

    /// Whether `self ⊆ other` on every tree: the chains
    /// `Child ⊆ Child+ ⊆ Child*` and `NextSibling ⊆ NextSibling+ ⊆
    /// NextSibling*`, `NextSibling+ ⊆ Following`, `Self` below every
    /// reflexive closure, and the same for the inverse axes.
    pub fn is_contained_in(self, other: Axis) -> bool {
        use Axis::*;
        self == other
            || matches!(
                (self, other),
                (Child, ChildPlus | ChildStar)
                    | (ChildPlus, ChildStar)
                    | (NextSibling, NextSiblingPlus | NextSiblingStar | Following)
                    | (NextSiblingPlus, NextSiblingStar | Following)
                    | (Parent, AncestorPlus | AncestorStar)
                    | (AncestorPlus, AncestorStar)
                    | (PrevSibling, PrevSiblingPlus | PrevSiblingStar | Preceding)
                    | (PrevSiblingPlus, PrevSiblingStar | Preceding)
                    | (
                        SelfAxis,
                        ChildStar | NextSiblingStar | AncestorStar | PrevSiblingStar
                    )
            )
    }

    /// The composition table: the smallest axis `T` with
    /// `R(x, w) ∧ S(w, z) ⇒ T(x, z)` on every tree, where `R = self` and
    /// `S = next`, or `None` when no axis contains `R ∘ S` (e.g.
    /// `Child* ∘ NextSibling` reaches both descendants and following
    /// nodes). Every axis `T` with the implication is a superset of this
    /// one — see [`Axis::composes_into`].
    ///
    /// These are the axis compositions behind the join lifters of
    /// Definition 6.2 (`Child ∘ NextSibling ⊆ Child`, `Child+ ∘ Child+ ⊆
    /// Child+`, `Following ∘ Following ⊆ Following`, …). The tests check
    /// every entry on every ordered tree with at most seven nodes, and that
    /// no implication holding on all of them is missing.
    pub fn composition(self, next: Axis) -> Option<Axis> {
        use Axis::*;
        match (self, next) {
            (SelfAxis, s) => Some(s),
            (r, SelfAxis) => Some(r),
            // Both inverse: (R ∘ S)⁻¹ = S⁻¹ ∘ R⁻¹, a forward composition.
            (r, s) if !r.is_paper_axis() && !s.is_paper_axis() => {
                s.inverse().composition(r.inverse()).map(Axis::inverse)
            }
            // Forward ∘ forward.
            (Child, Child | ChildPlus | ChildStar) => Some(ChildPlus),
            (Child, NextSibling | NextSiblingPlus | NextSiblingStar) => Some(Child),
            (ChildPlus, Child | ChildPlus | ChildStar) => Some(ChildPlus),
            (ChildPlus, NextSibling | NextSiblingPlus | NextSiblingStar) => Some(ChildPlus),
            (ChildStar, Child | ChildPlus) => Some(ChildPlus),
            (ChildStar, ChildStar) => Some(ChildStar),
            (NextSibling | NextSiblingPlus, Child | ChildPlus | ChildStar) => Some(Following),
            (NextSibling | NextSiblingPlus, NextSibling | NextSiblingPlus | NextSiblingStar) => {
                Some(NextSiblingPlus)
            }
            (NextSiblingStar, NextSibling | NextSiblingPlus) => Some(NextSiblingPlus),
            (NextSiblingStar, NextSiblingStar) => Some(NextSiblingStar),
            (NextSibling | NextSiblingPlus | NextSiblingStar, Following) => Some(Following),
            (Following, s) if s.is_paper_axis() => Some(Following),
            // Forward ∘ inverse.
            (Child, Parent) => Some(SelfAxis),
            (Child, AncestorPlus) => Some(AncestorStar),
            (Child, PrevSibling | PrevSiblingPlus | PrevSiblingStar) => Some(Child),
            (ChildPlus, Parent) => Some(ChildStar),
            (ChildPlus, PrevSibling | PrevSiblingPlus | PrevSiblingStar) => Some(ChildPlus),
            (NextSibling | NextSiblingPlus | NextSiblingStar, Parent) => Some(Parent),
            (NextSibling | NextSiblingPlus | NextSiblingStar, AncestorPlus) => Some(AncestorPlus),
            (NextSibling, PrevSibling) => Some(SelfAxis),
            (NextSibling, PrevSiblingPlus) => Some(PrevSiblingStar),
            (NextSiblingPlus, PrevSibling) => Some(NextSiblingStar),
            // Inverse ∘ forward.
            (Parent | AncestorPlus | AncestorStar, NextSibling | NextSiblingPlus | Following) => {
                Some(Following)
            }
            (PrevSibling | PrevSiblingPlus | Preceding, Child | ChildPlus | ChildStar) => {
                Some(Preceding)
            }
            (PrevSibling, NextSibling) => Some(SelfAxis),
            (PrevSibling, NextSiblingPlus) => Some(NextSiblingStar),
            (PrevSiblingPlus, NextSibling) => Some(PrevSiblingStar),
            _ => None,
        }
    }

    /// Whether `R(x, w) ∧ S(w, z) ⇒ T(x, z)` holds on every tree, where
    /// `R = self`, `S = next` and `T = target`: the entries of the
    /// composition table ([`Axis::composition`]) closed upward under
    /// containment ([`Axis::is_contained_in`]).
    pub fn composes_into(self, next: Axis, target: Axis) -> bool {
        self.composition(next)
            .is_some_and(|strongest| strongest.is_contained_in(target))
    }

    // ------------------------------------------------------------------
    // Membership tests (O(1) thanks to the structural index).
    // ------------------------------------------------------------------

    /// Whether `R(u, v)` holds in `tree`, in O(1).
    pub fn holds(self, tree: &Tree, u: NodeId, v: NodeId) -> bool {
        match self {
            Axis::Child => tree.parent(v) == Some(u),
            Axis::ChildPlus => tree.is_descendant(u, v),
            Axis::ChildStar => u == v || tree.is_descendant(u, v),
            Axis::NextSibling => tree.next_sibling(u) == Some(v),
            Axis::NextSiblingPlus => {
                tree.are_siblings(u, v) && tree.sibling_rank(u) < tree.sibling_rank(v)
            }
            Axis::NextSiblingStar => {
                u == v || (tree.are_siblings(u, v) && tree.sibling_rank(u) < tree.sibling_rank(v))
            }
            Axis::Following => tree.pre_rank(v) > tree.pre_end(u),
            Axis::SelfAxis => u == v,
            // Inverses delegate to the forward direction.
            Axis::Parent
            | Axis::AncestorPlus
            | Axis::AncestorStar
            | Axis::PrevSibling
            | Axis::PrevSiblingPlus
            | Axis::PrevSiblingStar
            | Axis::Preceding => self.inverse().holds(tree, v, u),
        }
    }

    // ------------------------------------------------------------------
    // Enumeration.
    // ------------------------------------------------------------------

    /// All nodes `v` with `R(u, v)`, in an unspecified but deterministic
    /// order. Output-linear.
    pub fn successors(self, tree: &Tree, u: NodeId) -> Vec<NodeId> {
        match self {
            Axis::Child => tree.children(u).to_vec(),
            Axis::ChildPlus => tree.descendants_or_self(u).skip(1).collect(),
            Axis::ChildStar => tree.descendants_or_self(u).collect(),
            Axis::NextSibling => tree.next_sibling(u).into_iter().collect(),
            Axis::NextSiblingPlus => {
                let mut out = Vec::new();
                let mut cur = tree.next_sibling(u);
                while let Some(s) = cur {
                    out.push(s);
                    cur = tree.next_sibling(s);
                }
                out
            }
            Axis::NextSiblingStar => {
                let mut out = vec![u];
                out.extend(Axis::NextSiblingPlus.successors(tree, u));
                out
            }
            Axis::Following => {
                let start = tree.pre_end(u) + 1;
                (start..tree.len() as u32)
                    .map(|r| tree.node_at(Order::Pre, r))
                    .collect()
            }
            Axis::Parent => tree.parent(u).into_iter().collect(),
            Axis::AncestorPlus => tree.ancestors(u).collect(),
            Axis::AncestorStar => {
                let mut out = vec![u];
                out.extend(tree.ancestors(u));
                out
            }
            Axis::PrevSibling => tree.prev_sibling(u).into_iter().collect(),
            Axis::PrevSiblingPlus => {
                let mut out = Vec::new();
                let mut cur = tree.prev_sibling(u);
                while let Some(s) = cur {
                    out.push(s);
                    cur = tree.prev_sibling(s);
                }
                out
            }
            Axis::PrevSiblingStar => {
                let mut out = vec![u];
                out.extend(Axis::PrevSiblingPlus.successors(tree, u));
                out
            }
            Axis::Preceding => tree
                .nodes()
                .filter(|&v| Axis::Following.holds(tree, v, u))
                .collect(),
            Axis::SelfAxis => vec![u],
        }
    }

    /// All nodes `v` with `R(v, u)` (i.e. the successors of `u` under the
    /// inverse axis).
    pub fn predecessors(self, tree: &Tree, u: NodeId) -> Vec<NodeId> {
        self.inverse().successors(tree, u)
    }

    /// All pairs `(u, v)` with `R(u, v)`, in an unspecified but deterministic
    /// order. Quadratic in the worst case (for the closure axes); used by the
    /// naive evaluator, the materialized-relation builder and the generic
    /// X̲-property checker.
    pub fn pairs(self, tree: &Tree) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for u in tree.nodes() {
            for v in self.successors(tree, u) {
                out.push((u, v));
            }
        }
        out
    }

    /// Number of pairs in the relation on `tree` (computed without
    /// materializing them where possible).
    pub fn pair_count(self, tree: &Tree) -> usize {
        match self {
            Axis::Child | Axis::Parent => tree.len() - 1,
            Axis::ChildPlus | Axis::AncestorPlus => {
                tree.nodes().map(|v| tree.depth(v) as usize).sum()
            }
            Axis::ChildStar | Axis::AncestorStar => {
                tree.nodes().map(|v| tree.depth(v) as usize + 1).sum()
            }
            Axis::SelfAxis => tree.len(),
            _ => self.pairs(tree).len(),
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Error returned when parsing an axis name fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAxisError {
    /// The string that could not be parsed.
    pub input: String,
}

impl fmt::Display for ParseAxisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown axis name: {:?}", self.input)
    }
}

impl std::error::Error for ParseAxisError {}

impl FromStr for Axis {
    type Err = ParseAxisError;

    /// Parses either the paper name (`Child+`, `NextSibling*`, …), the
    /// XPath-style aliases (`Descendant`, `Following-sibling`, …), or the
    /// XPath axis names (`descendant-or-self`, …). Case-insensitive.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        let axis = match lower.as_str() {
            "child" => Axis::Child,
            "child+" | "childplus" | "descendant" => Axis::ChildPlus,
            "child*" | "childstar" | "descendant-or-self" | "descendantorself" => Axis::ChildStar,
            "nextsibling" | "next-sibling" => Axis::NextSibling,
            "nextsibling+" | "nextsiblingplus" | "following-sibling" | "followingsibling" => {
                Axis::NextSiblingPlus
            }
            "nextsibling*" | "nextsiblingstar" | "following-sibling-or-self" => {
                Axis::NextSiblingStar
            }
            "following" => Axis::Following,
            "parent" => Axis::Parent,
            "ancestor" | "ancestor+" | "child^-1+" => Axis::AncestorPlus,
            "ancestor*" | "ancestor-or-self" | "ancestororself" => Axis::AncestorStar,
            "prevsibling" | "previous-sibling" => Axis::PrevSibling,
            "prevsibling+" | "preceding-sibling" | "precedingsibling" => Axis::PrevSiblingPlus,
            "prevsibling*" | "preceding-sibling-or-self" => Axis::PrevSiblingStar,
            "preceding" => Axis::Preceding,
            "self" => Axis::SelfAxis,
            _ => {
                return Err(ParseAxisError {
                    input: s.to_owned(),
                })
            }
        };
        Ok(axis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// Tree used in the tests:
    ///
    /// ```text
    ///         r
    ///       / | \
    ///      a  b  c
    ///     / \     \
    ///    d   e     f
    /// ```
    fn sample() -> (Tree, [NodeId; 7]) {
        let mut builder = TreeBuilder::new();
        let r = builder.add_root(&["R"]);
        let a = builder.add_child(r, &["A"]);
        let b = builder.add_child(r, &["B"]);
        let c = builder.add_child(r, &["C"]);
        let d = builder.add_child(a, &["D"]);
        let e = builder.add_child(a, &["E"]);
        let f = builder.add_child(c, &["F"]);
        (builder.build().unwrap(), [r, a, b, c, d, e, f])
    }

    #[test]
    fn child_axes() {
        let (t, [r, a, b, c, d, e, f]) = sample();
        assert!(Axis::Child.holds(&t, r, a));
        assert!(Axis::Child.holds(&t, a, d));
        assert!(!Axis::Child.holds(&t, r, d));
        assert!(!Axis::Child.holds(&t, a, r));
        assert!(Axis::ChildPlus.holds(&t, r, d));
        assert!(Axis::ChildPlus.holds(&t, r, f));
        assert!(!Axis::ChildPlus.holds(&t, r, r));
        assert!(!Axis::ChildPlus.holds(&t, a, f));
        assert!(Axis::ChildStar.holds(&t, r, r));
        assert!(Axis::ChildStar.holds(&t, a, e));
        assert!(!Axis::ChildStar.holds(&t, b, e));
        assert_eq!(Axis::Child.successors(&t, r), vec![a, b, c]);
        assert_eq!(Axis::ChildPlus.successors(&t, a), vec![d, e]);
        assert_eq!(Axis::ChildStar.successors(&t, a), vec![a, d, e]);
    }

    #[test]
    fn sibling_axes() {
        let (t, [_, a, b, c, d, e, _]) = sample();
        assert!(Axis::NextSibling.holds(&t, a, b));
        assert!(Axis::NextSibling.holds(&t, b, c));
        assert!(!Axis::NextSibling.holds(&t, a, c));
        assert!(Axis::NextSiblingPlus.holds(&t, a, c));
        assert!(!Axis::NextSiblingPlus.holds(&t, c, a));
        assert!(!Axis::NextSiblingPlus.holds(&t, a, a));
        assert!(Axis::NextSiblingStar.holds(&t, a, a));
        assert!(Axis::NextSiblingStar.holds(&t, a, c));
        assert!(!Axis::NextSiblingPlus.holds(&t, d, b)); // different parents
        assert_eq!(Axis::NextSiblingPlus.successors(&t, a), vec![b, c]);
        assert_eq!(Axis::NextSiblingStar.successors(&t, d), vec![d, e]);
        assert_eq!(Axis::PrevSibling.successors(&t, c), vec![b]);
        assert_eq!(Axis::PrevSiblingPlus.successors(&t, c), vec![b, a]);
    }

    #[test]
    fn following_axis_matches_eq1_definition() {
        let (t, nodes) = sample();
        // Eq. (1): Following(x, y) = ∃z1∃z2 Child*(z1, x) ∧ NextSibling+(z1, z2) ∧ Child*(z2, y).
        let by_definition = |x: NodeId, y: NodeId| {
            t.nodes().any(|z1| {
                t.nodes().any(|z2| {
                    Axis::ChildStar.holds(&t, z1, x)
                        && Axis::NextSiblingPlus.holds(&t, z1, z2)
                        && Axis::ChildStar.holds(&t, z2, y)
                })
            })
        };
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(
                    Axis::Following.holds(&t, x, y),
                    by_definition(x, y),
                    "Following({x:?}, {y:?}) disagrees with Eq. (1)"
                );
            }
        }
    }

    #[test]
    fn following_examples() {
        let (t, [r, a, b, c, d, e, f]) = sample();
        assert!(Axis::Following.holds(&t, a, b));
        assert!(Axis::Following.holds(&t, d, e));
        assert!(Axis::Following.holds(&t, d, f));
        assert!(Axis::Following.holds(&t, e, b));
        assert!(!Axis::Following.holds(&t, a, d)); // descendant, not following
        assert!(!Axis::Following.holds(&t, b, a)); // preceding
        assert!(!Axis::Following.holds(&t, r, a));
        assert!(Axis::Preceding.holds(&t, b, a));
        assert_eq!(Axis::Following.successors(&t, a), vec![b, c, f]);
    }

    #[test]
    fn inverses_are_involutive_and_correct() {
        let (t, nodes) = sample();
        for axis in Axis::ALL {
            assert_eq!(axis.inverse().inverse(), axis);
            for &u in &nodes {
                for &v in &nodes {
                    assert_eq!(
                        axis.holds(&t, u, v),
                        axis.inverse().holds(&t, v, u),
                        "inverse mismatch for {axis} on ({u:?}, {v:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn successors_agree_with_holds() {
        let (t, nodes) = sample();
        for axis in Axis::ALL {
            for &u in &nodes {
                let successors = axis.successors(&t, u);
                for &v in &nodes {
                    assert_eq!(
                        successors.contains(&v),
                        axis.holds(&t, u, v),
                        "{axis}.successors({u:?}) disagrees with holds at {v:?}"
                    );
                }
                let predecessors = axis.predecessors(&t, u);
                for &v in &nodes {
                    assert_eq!(predecessors.contains(&v), axis.holds(&t, v, u));
                }
            }
        }
    }

    #[test]
    fn pair_counts_match_enumeration() {
        let (t, _) = sample();
        for axis in Axis::ALL {
            assert_eq!(axis.pair_count(&t), axis.pairs(&t).len(), "axis {axis}");
        }
    }

    #[test]
    fn reflexivity_and_closures() {
        assert!(Axis::ChildStar.is_reflexive());
        assert!(!Axis::ChildPlus.is_reflexive());
        assert_eq!(Axis::ChildPlus.reflexive_closure(), Some(Axis::ChildStar));
        assert_eq!(Axis::ChildStar.reflexive_closure(), Some(Axis::ChildStar));
        assert_eq!(Axis::Child.reflexive_closure(), None);
        assert_eq!(Axis::ChildStar.irreflexive_core(), Some(Axis::ChildPlus));
        assert_eq!(Axis::Following.irreflexive_core(), Some(Axis::Following));
        assert_eq!(Axis::SelfAxis.irreflexive_core(), None);
    }

    #[test]
    fn parse_and_display_round_trip() {
        for axis in Axis::ALL {
            let parsed: Axis = axis.paper_name().parse().unwrap();
            assert_eq!(parsed, axis);
        }
        assert_eq!("descendant".parse::<Axis>().unwrap(), Axis::ChildPlus);
        assert_eq!(
            "following-sibling".parse::<Axis>().unwrap(),
            Axis::NextSiblingPlus
        );
        assert_eq!("CHILD*".parse::<Axis>().unwrap(), Axis::ChildStar);
        assert!("sideways".parse::<Axis>().is_err());
    }

    #[test]
    fn xpath_names_exist_for_xpath_axes() {
        assert_eq!(Axis::ChildPlus.xpath_name(), Some("descendant"));
        assert_eq!(Axis::NextSibling.xpath_name(), None);
        assert_eq!(Axis::NextSiblingStar.xpath_name(), None);
        assert_eq!(Axis::Following.xpath_name(), Some("following"));
    }

    /// Every ordered tree with at most `max_nodes` nodes (Catalan many per
    /// size), built from its pre-order depth sequence: the root has depth
    /// 0 and each later node is at most one level deeper than the node
    /// before it.
    fn all_ordered_trees(max_nodes: usize) -> Vec<Tree> {
        fn extend(depths: &mut Vec<u32>, max_nodes: usize, out: &mut Vec<Tree>) {
            let mut builder = TreeBuilder::new();
            let mut path: Vec<NodeId> = Vec::new();
            for &depth in depths.iter() {
                path.truncate(depth as usize);
                let node = match path.last() {
                    None => builder.add_root(&["A"]),
                    Some(&parent) => builder.add_child(parent, &["A"]),
                };
                path.push(node);
            }
            out.push(builder.build().unwrap());
            if depths.len() < max_nodes {
                for depth in 1..=depths[depths.len() - 1] + 1 {
                    depths.push(depth);
                    extend(depths, max_nodes, out);
                    depths.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(&mut vec![0], max_nodes, &mut out);
        out
    }

    /// For every `(R, S)`, the bitmask (by [`Axis::index`]) of the axes `T`
    /// with `R(x, w) ∧ S(w, z) ⇒ T(x, z)` on every node triple of `trees`.
    fn observed_compositions(trees: &[Tree]) -> [[u16; Axis::COUNT]; Axis::COUNT] {
        let every_axis = (1u16 << Axis::COUNT) - 1;
        let mut observed = [[every_axis; Axis::COUNT]; Axis::COUNT];
        for tree in trees {
            let nodes: Vec<NodeId> = tree.nodes().collect();
            let n = nodes.len();
            let mut holding = vec![0u16; n * n];
            for (i, &u) in nodes.iter().enumerate() {
                for (j, &v) in nodes.iter().enumerate() {
                    for axis in Axis::ALL {
                        if axis.holds(tree, u, v) {
                            holding[i * n + j] |= 1 << axis.index();
                        }
                    }
                }
            }
            for x in 0..n {
                for w in 0..n {
                    for z in 0..n {
                        for r in Axis::ALL {
                            if holding[x * n + w] & (1 << r.index()) == 0 {
                                continue;
                            }
                            for s in Axis::ALL {
                                if holding[w * n + z] & (1 << s.index()) != 0 {
                                    observed[r.index()][s.index()] &= holding[x * n + z];
                                }
                            }
                        }
                    }
                }
            }
        }
        observed
    }

    #[test]
    fn composition_table_is_sound_and_complete_on_all_small_trees() {
        let trees = all_ordered_trees(7);
        // 1 + 1 + 2 + 5 + 14 + 42 + 132 trees (Catalan numbers).
        assert_eq!(trees.len(), 197);
        let observed = observed_compositions(&trees);
        for r in Axis::ALL {
            for s in Axis::ALL {
                let holds_everywhere = observed[r.index()][s.index()];
                for t in Axis::ALL {
                    let in_table = r.composes_into(s, t);
                    let holds = holds_everywhere & (1 << t.index()) != 0;
                    assert!(
                        !in_table || holds,
                        "unsound entry: {r}(x, w) ∧ {s}(w, z) ⇒ {t}(x, z) fails on a small tree"
                    );
                    // Completeness is required over the paper's seven
                    // forward axes; the check covers all fifteen.
                    assert!(
                        in_table || !holds,
                        "missing entry: {r}(x, w) ∧ {s}(w, z) ⇒ {t}(x, z) holds on every small tree"
                    );
                }
            }
        }
    }

    #[test]
    fn containment_is_sound_and_complete_on_all_small_trees() {
        // R ⊆ T iff Self(x, w) ∧ R(w, z) ⇒ T(x, z).
        let after_self = observed_compositions(&all_ordered_trees(7))[Axis::SelfAxis.index()];
        for r in Axis::ALL {
            for t in Axis::ALL {
                let holds = after_self[r.index()] & (1 << t.index()) != 0;
                assert_eq!(r.is_contained_in(t), holds, "{r} ⊆ {t}");
            }
        }
    }

    #[test]
    fn composition_examples_from_the_join_lifters() {
        assert!(Axis::ChildPlus.composes_into(Axis::ChildPlus, Axis::ChildPlus));
        assert!(Axis::Following.composes_into(Axis::Following, Axis::Following));
        assert!(Axis::Child.composes_into(Axis::NextSibling, Axis::Child));
        assert!(Axis::Child.composes_into(Axis::ChildPlus, Axis::ChildPlus));
        // Read through an inverse: Child(x, w) ∧ PrevSibling(w, z) ⇒ Child(x, z).
        assert!(Axis::Child.composes_into(Axis::PrevSibling, Axis::Child));
        assert!(!Axis::Child.composes_into(Axis::Child, Axis::Child));
        assert_eq!(Axis::ChildStar.composition(Axis::NextSibling), None);
        assert_eq!(Axis::Child.composition(Axis::Parent), Some(Axis::SelfAxis));
    }

    #[test]
    fn paper_axes_are_the_seven_of_table_one() {
        assert_eq!(Axis::PAPER_AXES.len(), 7);
        for axis in Axis::PAPER_AXES {
            assert!(axis.is_paper_axis());
        }
        assert!(!Axis::Parent.is_paper_axis());
        assert!(!Axis::SelfAxis.is_paper_axis());
    }
}
