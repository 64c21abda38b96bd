//! Node identifiers.
//!
//! Nodes of a [`Tree`](crate::Tree) are identified by dense `u32` indices into
//! the tree's arena. Identifiers are only meaningful relative to the tree that
//! produced them.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node within a [`Tree`](crate::Tree).
///
/// A built tree's `NodeId`s are its nodes' pre-order ranks (see
/// [`TreeBuilder::build`](crate::TreeBuilder::build)), so ordering ids is
/// ordering nodes in document order; use [`Order`](crate::Order) for the
/// other traversal orders. They are `Copy` and cheap to hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Only meaningful for indices previously handed out by a tree; primarily
    /// useful in tests and when deserializing.
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the raw arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(format!("{id:?}"), "n42");
    }

    #[test]
    fn node_ids_order_by_raw_index() {
        assert!(NodeId::from_index(1) < NodeId::from_index(2));
        assert_eq!(NodeId::from_index(7), NodeId::from_index(7));
    }
}
