//! Plan-time query minimization: dropping axis atoms that a two-atom path
//! implies.
//!
//! An axis atom `T(x, z)` is redundant when two other atoms of the query
//! connect `x` to `z` through some variable `w` as `R(x, w) ∧ S(w, z)` and
//! the axis composition table says `R ∘ S ⊆ T` on every tree
//! ([`Axis::composes_into`]). Every satisfaction of the other atoms then
//! satisfies `T(x, z)` too, so dropping the atom leaves the answer set
//! unchanged at every head arity. This is a special case of conjunctive
//! query minimization (Chandra and Merlin, STOC 1977), with the axis
//! compositions behind the paper's join lifters (Definition 6.2) as the
//! only containment facts used.
//!
//! The pass matters because the dichotomy of Theorem 1.1 routes a query by
//! its shape: a triangle such as
//! `Child+(x, y) ∧ Child+(y, z) ∧ Child+(x, z)` is cyclic and runs the
//! X̲-property engine, while the same query without its third atom is
//! acyclic and runs Yannakakis' semijoin passes.
//!
//! [`Axis::composes_into`]: cqt_trees::Axis::composes_into

use cqt_query::{AxisAtom, ConjunctiveQuery};

/// Returns `query` without the axis atoms implied by a two-atom path of
/// the atoms that remain.
///
/// The pass walks the axis atoms in order. An atom `T(x, z)` is dropped
/// when two remaining atoms form a path `x – w – z` whose axes compose into
/// `T`; each path atom may be read in either direction (through
/// [`cqt_trees::Axis::inverse`]). A dropped atom never serves as a witness
/// for a later one, so each step removes an atom implied by the atoms still
/// present, and the result is equivalent to `query`. Label atoms, the head
/// and the variable indices are unchanged.
///
/// Only paths of length two are considered. In particular an atom contained
/// in a *parallel* one over the same variables (`Child+(x, y)` beside
/// `Child*(x, y)`) is kept: that is containment between two atoms, not a
/// composition through a third variable.
pub fn drop_implied_atoms(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let atoms = query.axis_atoms();
    let mut kept = vec![true; atoms.len()];
    for (index, &target) in atoms.iter().enumerate() {
        kept[index] = false;
        kept[index] = !implied_by_path(atoms, &kept, target);
    }
    let mut minimized = query.clone();
    let mut kept = kept.into_iter();
    minimized.retain_axis_atoms(|_| kept.next().unwrap_or(true));
    minimized
}

/// Whether two atoms still kept form a path `target.from – w – target.to`
/// whose axes compose into `target.axis`.
fn implied_by_path(atoms: &[AxisAtom], kept: &[bool], target: AxisAtom) -> bool {
    // Every kept atom, in both readings.
    let readings = || {
        atoms
            .iter()
            .zip(kept)
            .filter(|&(_, &keep)| keep)
            .flat_map(|(&atom, _)| [atom, atom.flipped()])
    };
    readings()
        .filter(|first| first.from == target.from)
        .any(|first| {
            readings().any(|second| {
                second.from == first.to
                    && second.to == target.to
                    && first.axis.composes_into(second.axis, target.axis)
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqt_query::parse_query;

    fn minimized(text: &str) -> String {
        drop_implied_atoms(&parse_query(text).unwrap()).to_datalog()
    }

    #[test]
    fn drops_the_third_atom_of_a_transitive_triangle() {
        assert_eq!(
            minimized("Q(z) :- A(x), Child+(x, y), Child+(y, z), Child+(x, z), B(y), C(z)."),
            "Q(z) :- A(x), B(y), C(z), Child+(x, y), Child+(y, z)."
        );
    }

    #[test]
    fn reads_path_atoms_through_their_inverse_and_never_through_dropped_ones() {
        // Both Child atoms are implied by the other two atoms:
        // Child(x, z) ∧ PrevSibling(z, y) ⇒ Child(x, y), and
        // Child(x, y) ∧ NextSibling(y, z) ⇒ Child(x, z). The walk drops the
        // first; the second then has no path left and stays.
        let query = parse_query("Q(z) :- Child(x, y), Child(x, z), NextSibling(y, z).").unwrap();
        let out = drop_implied_atoms(&query);
        assert_eq!(out.axis_atoms(), &query.axis_atoms()[1..]);
        assert!(out.is_acyclic());
    }

    #[test]
    fn drops_the_implied_atom_of_a_following_triangle() {
        let query =
            parse_query("Q() :- Following(x, y), Following(y, z), Following(x, z).").unwrap();
        let out = drop_implied_atoms(&query);
        assert_eq!(out.axis_atoms(), &query.axis_atoms()[..2]);
    }

    #[test]
    fn keeps_atoms_without_an_implying_path() {
        for text in [
            // A 4-cycle: no two-atom path closes it.
            "Q() :- Child+(x, y), Child+(y, z), Child+(z, u), Child+(x, u).",
            // Parallel atoms: containment, not composition.
            "Q() :- A(x), Child+(x, y), Child*(x, y).",
            // Child ∘ Child is Child+, not Child.
            "Q() :- Child(x, y), Child(y, z), Child(x, z).",
            // Child* ∘ NextSibling reaches descendants and following nodes.
            "Q() :- Child*(x, y), NextSibling(y, z), Following(x, z).",
        ] {
            let query = parse_query(text).unwrap();
            assert_eq!(drop_implied_atoms(&query), query, "{text}");
        }
    }

    #[test]
    fn keeps_labels_head_and_variables() {
        let query =
            parse_query("Q(x, z) :- A(x), Child(x, y), Child+(y, z), Child+(x, z), C(z).").unwrap();
        let out = drop_implied_atoms(&query);
        assert_eq!(out.head(), query.head());
        assert_eq!(out.label_atoms(), query.label_atoms());
        assert_eq!(out.var_count(), query.var_count());
        // Child(x, y) ∧ Child+(y, z) ⇒ Child+(x, z).
        assert_eq!(out.axis_atoms(), &query.axis_atoms()[..2]);
        assert_eq!(out.signature(), query.signature());
    }
}
