//! Binary serialization of [`Tree`]s and [`EditScript`]s.
//!
//! The durability layer of the serving crate persists committed edit
//! scripts (write-ahead log records) and periodic tree snapshots. The
//! vendored serde shim is derive-only — it has no serializer — so this
//! module hand-rolls a small tagged binary format, following the same
//! conventions as the network protocol in `cqt-service::net`:
//!
//! * integers are little-endian (`u8` tags, `u32`/`u64` fields);
//! * strings are a `u32` byte length followed by that many UTF-8 bytes;
//! * decoding never panics: every malformed input (unknown tag, truncated
//!   field, trailing bytes, invalid UTF-8, domain-invalid value) is a
//!   [`CodecError`], and lengths are validated against the remaining input
//!   before any allocation.
//!
//! # Tree encoding
//!
//! A tree is encoded as its node count followed by one entry per node **in
//! pre-order**: the parent's pre-order rank (+1, with `0` marking the
//! root) and the node's label names. Children of a node appear in
//! left-to-right order within pre-order, so decoding can rebuild the tree
//! with a [`TreeBuilder`] by appending each node under its
//! already-decoded parent — the result is the same ordered labeled tree,
//! with the same node ids (ids are pre-order ranks on every tree, see
//! [`crate::tree`]). Round-tripping preserves
//! [`Tree::structure_digest`] (the digest is isomorphism-invariant), which
//! is exactly the property the durability layer's digest chains rely on.
//!
//! Label *symbols* are not persisted — names are. Interners are an
//! in-memory acceleration; re-interning on decode rebuilds an equivalent
//! one (see [`crate::label::LabelInterner`]).

use std::fmt;

use crate::edit::{EditScript, TreeEdit};
use crate::node::NodeId;
use crate::tree::{Tree, TreeBuilder};

/// Why a byte payload could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value's fields did.
    Truncated,
    /// Bytes remained after the value's last field.
    TrailingBytes(usize),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field had a domain-invalid value (e.g. an unknown edit tag, a
    /// parent rank referring to a not-yet-decoded node, or a zero-node
    /// tree).
    BadValue(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated mid-value"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            CodecError::BadValue(what) => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---- encoding primitives (the same shapes as the service wire format) ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a payload being decoded. Lengths are validated against
/// the remaining bytes before any allocation.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Takes the next `n` bytes, or [`CodecError::Truncated`].
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.bytes.len() - self.pos < n {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decodes one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Decodes a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the payload is fully consumed, or
    /// [`CodecError::TrailingBytes`].
    pub fn finish(self) -> Result<(), CodecError> {
        let left = self.remaining();
        if left != 0 {
            return Err(CodecError::TrailingBytes(left));
        }
        Ok(())
    }
}

// ---- trees ----

/// Appends the encoding of `tree` to `out` (see the [module docs](self)
/// for the layout).
pub fn encode_tree(tree: &Tree, out: &mut Vec<u8>) {
    put_u32(out, tree.len() as u32);
    for node in tree.nodes() {
        let parent_plus_1 = match tree.parent(node) {
            Some(parent) => parent.index() as u32 + 1,
            None => 0,
        };
        put_u32(out, parent_plus_1);
        let labels = tree.label_names(node);
        put_u32(out, labels.len() as u32);
        for label in labels {
            put_str(out, label);
        }
    }
}

/// The encoding of `tree` as an owned buffer.
pub fn tree_to_bytes(tree: &Tree) -> Vec<u8> {
    let mut out = Vec::new();
    encode_tree(tree, &mut out);
    out
}

/// Decodes one tree from the cursor (the inverse of [`encode_tree`]).
pub fn decode_tree_from(r: &mut Reader<'_>) -> Result<Tree, CodecError> {
    let nodes = r.u32()? as usize;
    if nodes == 0 {
        return Err(CodecError::BadValue("tree node count"));
    }
    let mut builder = TreeBuilder::new();
    for pre in 0..nodes {
        let parent_plus_1 = r.u32()? as usize;
        let label_count = r.u32()? as usize;
        let mut labels = Vec::with_capacity(label_count.min(r.remaining()));
        for _ in 0..label_count {
            labels.push(r.string()?);
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        if parent_plus_1 == 0 {
            if pre != 0 {
                return Err(CodecError::BadValue("non-first root node"));
            }
            builder.add_root(&label_refs);
        } else {
            if parent_plus_1 > pre {
                return Err(CodecError::BadValue("parent pre-order rank"));
            }
            // Handle `i` is the `i`-th decoded node.
            builder.add_child(NodeId::from_index(parent_plus_1 - 1), &label_refs);
        }
    }
    builder
        .build()
        .map_err(|_| CodecError::BadValue("tree shape"))
}

/// Decodes a tree occupying the whole payload.
pub fn tree_from_bytes(bytes: &[u8]) -> Result<Tree, CodecError> {
    let mut r = Reader::new(bytes);
    let tree = decode_tree_from(&mut r)?;
    r.finish()?;
    Ok(tree)
}

// ---- edit scripts ----

const EDIT_INSERT: u8 = 1;
const EDIT_DELETE: u8 = 2;
const EDIT_RELABEL: u8 = 3;

/// Appends the encoding of one edit to `out`.
fn encode_edit(edit: &TreeEdit, out: &mut Vec<u8>) {
    match edit {
        TreeEdit::InsertSubtree {
            parent_pre,
            position,
            subtree,
        } => {
            out.push(EDIT_INSERT);
            put_u32(out, *parent_pre);
            put_u64(out, *position as u64);
            encode_tree(subtree, out);
        }
        TreeEdit::DeleteSubtree { node_pre } => {
            out.push(EDIT_DELETE);
            put_u32(out, *node_pre);
        }
        TreeEdit::Relabel { node_pre, labels } => {
            out.push(EDIT_RELABEL);
            put_u32(out, *node_pre);
            put_u32(out, labels.len() as u32);
            for label in labels {
                put_str(out, label);
            }
        }
    }
}

fn decode_edit(r: &mut Reader<'_>) -> Result<TreeEdit, CodecError> {
    match r.u8()? {
        EDIT_INSERT => {
            let parent_pre = r.u32()?;
            let position = r.u64()? as usize;
            let subtree = decode_tree_from(r)?;
            Ok(TreeEdit::insert_subtree(parent_pre, position, subtree))
        }
        EDIT_DELETE => Ok(TreeEdit::DeleteSubtree { node_pre: r.u32()? }),
        EDIT_RELABEL => {
            let node_pre = r.u32()?;
            let count = r.u32()? as usize;
            let mut labels = Vec::with_capacity(count.min(r.remaining()));
            for _ in 0..count {
                labels.push(r.string()?);
            }
            Ok(TreeEdit::Relabel { node_pre, labels })
        }
        _ => Err(CodecError::BadValue("edit tag")),
    }
}

/// Appends the encoding of `script` to `out`: a `u32` edit count followed
/// by each tagged edit.
pub fn encode_script(script: &EditScript, out: &mut Vec<u8>) {
    put_u32(out, script.len() as u32);
    for edit in script.edits() {
        encode_edit(edit, out);
    }
}

/// The encoding of `script` as an owned buffer.
pub fn script_to_bytes(script: &EditScript) -> Vec<u8> {
    let mut out = Vec::new();
    encode_script(script, &mut out);
    out
}

/// Decodes one edit script from the cursor.
pub fn decode_script_from(r: &mut Reader<'_>) -> Result<EditScript, CodecError> {
    let count = r.u32()? as usize;
    let mut script = EditScript::new();
    for _ in 0..count {
        script.push(decode_edit(r)?);
    }
    Ok(script)
}

/// Decodes an edit script occupying the whole payload.
pub fn script_from_bytes(bytes: &[u8]) -> Result<EditScript, CodecError> {
    let mut r = Reader::new(bytes);
    let script = decode_script_from(&mut r)?;
    r.finish()?;
    Ok(script)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_edit_script, random_tree, EditScriptConfig, RandomTreeConfig};
    use crate::parse::{parse_term, to_term};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trees_round_trip_preserving_digest_and_term() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        for nodes in [1usize, 2, 7, 40] {
            let tree = random_tree(
                &mut rng,
                &RandomTreeConfig {
                    nodes,
                    alphabet: vec!["A".into(), "B".into(), "C".into()],
                    multi_label_probability: 0.3,
                    attach_window: usize::MAX,
                },
            );
            let decoded = tree_from_bytes(&tree_to_bytes(&tree)).unwrap();
            assert_eq!(decoded.structure_digest(), tree.structure_digest());
            assert_eq!(to_term(&decoded), to_term(&tree));
            // Ids survive the round trip: both sides number in pre-order.
            for node in tree.nodes() {
                assert_eq!(decoded.parent(node), tree.parent(node));
                assert_eq!(decoded.label_names(node), tree.label_names(node));
            }
        }
    }

    #[test]
    fn multi_and_zero_label_nodes_round_trip() {
        // A relabel to the empty set produces unlabeled nodes; the codec
        // must carry them (and multi-label sets) faithfully.
        let tree = parse_term("R(A(B), C)").unwrap();
        let script = EditScript::single(TreeEdit::Relabel {
            node_pre: 2,
            labels: vec![],
        });
        let (edited, _) = script.apply_to(&tree).unwrap();
        let decoded = tree_from_bytes(&tree_to_bytes(&edited)).unwrap();
        assert_eq!(decoded.structure_digest(), edited.structure_digest());
        assert!(decoded.label_names(NodeId::from_index(2)).is_empty());
    }

    #[test]
    fn scripts_round_trip_and_replay_identically() {
        let mut rng = StdRng::seed_from_u64(7);
        let tree = random_tree(
            &mut rng,
            &RandomTreeConfig {
                nodes: 12,
                alphabet: vec!["A".into(), "B".into(), "C".into()],
                multi_label_probability: 0.1,
                attach_window: usize::MAX,
            },
        );
        for _ in 0..8 {
            let script = random_edit_script(&mut rng, &tree, &EditScriptConfig::default());
            let decoded = script_from_bytes(&script_to_bytes(&script)).unwrap();
            assert_eq!(decoded.len(), script.len());
            let (a, _) = script.apply_to(&tree).unwrap();
            let (b, _) = decoded.apply_to(&tree).unwrap();
            assert_eq!(
                a.structure_digest(),
                b.structure_digest(),
                "a decoded script must replay to the identical document"
            );
        }
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        assert_eq!(tree_from_bytes(&[]).unwrap_err(), CodecError::Truncated);
        // Zero nodes is invalid (trees are rooted and non-empty).
        assert_eq!(
            tree_from_bytes(&0u32.to_le_bytes()).unwrap_err(),
            CodecError::BadValue("tree node count")
        );
        // Truncated mid-node and trailing garbage.
        let wire = tree_to_bytes(&parse_term("R(A(B), C)").unwrap());
        assert_eq!(
            tree_from_bytes(&wire[..wire.len() - 1]).unwrap_err(),
            CodecError::Truncated
        );
        let mut trailing = wire.clone();
        trailing.push(0);
        assert_eq!(
            tree_from_bytes(&trailing).unwrap_err(),
            CodecError::TrailingBytes(1)
        );
        // A parent rank pointing at a not-yet-decoded node.
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&0u32.to_le_bytes()); // root, no parent
        bad.extend_from_slice(&0u32.to_le_bytes()); // no labels
        bad.extend_from_slice(&9u32.to_le_bytes()); // parent rank 8: not decoded yet
        bad.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            tree_from_bytes(&bad).unwrap_err(),
            CodecError::BadValue("parent pre-order rank")
        );
        // A second root.
        let mut two_roots = Vec::new();
        two_roots.extend_from_slice(&2u32.to_le_bytes());
        two_roots.extend_from_slice(&0u32.to_le_bytes());
        two_roots.extend_from_slice(&0u32.to_le_bytes());
        two_roots.extend_from_slice(&0u32.to_le_bytes());
        two_roots.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            tree_from_bytes(&two_roots).unwrap_err(),
            CodecError::BadValue("non-first root node")
        );
        // Unknown edit tag; bad UTF-8 in a label; a declared length past the
        // end must not allocate.
        let mut bad_tag = Vec::new();
        bad_tag.extend_from_slice(&1u32.to_le_bytes());
        bad_tag.push(9);
        assert_eq!(
            script_from_bytes(&bad_tag).unwrap_err(),
            CodecError::BadValue("edit tag")
        );
        let mut bad_label = Vec::new();
        bad_label.extend_from_slice(&1u32.to_le_bytes());
        bad_label.push(EDIT_RELABEL);
        bad_label.extend_from_slice(&0u32.to_le_bytes());
        bad_label.extend_from_slice(&1u32.to_le_bytes());
        bad_label.extend_from_slice(&2u32.to_le_bytes());
        bad_label.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            script_from_bytes(&bad_label).unwrap_err(),
            CodecError::BadUtf8
        );
        let mut huge_len = Vec::new();
        huge_len.extend_from_slice(&1u32.to_le_bytes());
        huge_len.push(EDIT_RELABEL);
        huge_len.extend_from_slice(&0u32.to_le_bytes());
        huge_len.extend_from_slice(&1u32.to_le_bytes());
        huge_len.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            script_from_bytes(&huge_len).unwrap_err(),
            CodecError::Truncated
        );
    }
}
