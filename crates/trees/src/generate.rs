//! Workload generators.
//!
//! The paper motivates conjunctive queries over trees with three data sources:
//! XML documents, LDAP directories, and linguistic corpora such as the Penn
//! Treebank (LDC 1999). None of those corpora can be redistributed here, so
//! this module provides synthetic generators that exercise exactly the same
//! code paths (the evaluator only ever sees label relations and axis
//! relations):
//!
//! * [`random_tree`] — uniformly shaped random trees with a configurable
//!   label alphabet and branching behaviour;
//! * [`treebank`] — a phrase-structure grammar generator producing
//!   Treebank-style parse trees (`S`, `NP`, `VP`, `PP`, part-of-speech tags),
//!   the stand-in for the corpus behind the paper's Figure 1 query;
//! * [`xml_document`] — a nested "record/field" document generator mimicking
//!   data-centric XML;
//! * [`path_structure`] / [`scattered_path_structure`] — the path structures
//!   of Section 7 (Lemma 7.2, Theorem 7.1);
//! * [`full_tree`] — complete k-ary trees for scaling experiments;
//! * [`random_edit_script`] — always-valid random [`EditScript`]s, the write
//!   workload of the mutable-corpus benchmarks;
//! * [`document_corpus`] — a multi-document corpus with a controllable
//!   structure-hash collision rate, the workload of the sharded serving
//!   layer (`cqt-service::shard`).

use rand::distributions::{Distribution, WeightedIndex};
use rand::Rng;

use crate::edit::{EditScript, TreeEdit};
use crate::node::NodeId;
use crate::tree::{Tree, TreeBuilder};

/// Configuration for [`random_tree`].
#[derive(Clone, Debug)]
pub struct RandomTreeConfig {
    /// Exact number of nodes to generate.
    pub nodes: usize,
    /// Label alphabet; each node receives one label drawn uniformly from it.
    pub alphabet: Vec<String>,
    /// Probability that a freshly attached node also receives a second label
    /// (the paper's tractable fragment allows multiple labels per node).
    pub multi_label_probability: f64,
    /// Bias towards deep trees: each new node is attached to a node chosen
    /// uniformly from the last `attach_window` created nodes (1 = path,
    /// `nodes` = uniformly random recursive tree).
    pub attach_window: usize,
}

impl Default for RandomTreeConfig {
    fn default() -> Self {
        RandomTreeConfig {
            nodes: 100,
            alphabet: ["A", "B", "C", "D", "E"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            multi_label_probability: 0.0,
            attach_window: usize::MAX,
        }
    }
}

/// Generates a random unranked labeled tree according to `config`.
///
/// # Panics
/// Panics if `config.nodes == 0` or the alphabet is empty.
pub fn random_tree<R: Rng>(rng: &mut R, config: &RandomTreeConfig) -> Tree {
    assert!(config.nodes > 0, "random_tree requires at least one node");
    assert!(
        !config.alphabet.is_empty(),
        "random_tree requires a non-empty alphabet"
    );
    let mut builder = TreeBuilder::new();
    let mut created: Vec<NodeId> = Vec::with_capacity(config.nodes);

    let pick_label = |rng: &mut R| {
        let idx = rng.gen_range(0..config.alphabet.len());
        config.alphabet[idx].clone()
    };

    let root_label = pick_label(rng);
    let root = builder.add_root(&[root_label.as_str()]);
    created.push(root);

    for _ in 1..config.nodes {
        let window = config.attach_window.min(created.len()).max(1);
        let start = created.len() - window;
        let parent = created[rng.gen_range(start..created.len())];
        let label = pick_label(rng);
        let node = builder.add_child(parent, &[label.as_str()]);
        if rng.gen_bool(config.multi_label_probability) {
            let extra = pick_label(rng);
            builder.add_label(node, &extra);
        }
        created.push(node);
    }
    builder.build().expect("generator produced a valid tree")
}

/// Generates a complete `branching`-ary tree of the given `depth` (depth 0 is
/// a single node), labeling every node with `label`.
pub fn full_tree(depth: u32, branching: usize, label: &str) -> Tree {
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(&[label]);
    let mut frontier = vec![root];
    for _ in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * branching);
        for &node in &frontier {
            for _ in 0..branching {
                next.push(builder.add_child(node, &[label]));
            }
        }
        frontier = next;
    }
    builder.build().expect("full tree is valid")
}

/// Builds a *path structure* (Section 7): a tree whose `Child` relation is a
/// path, labeled top-to-bottom with the given label lists (empty list = an
/// unlabeled node).
pub fn path_structure(labels_top_down: &[Vec<String>]) -> Tree {
    assert!(
        !labels_top_down.is_empty(),
        "path structure needs at least one node"
    );
    let mut builder = TreeBuilder::new();
    let first: Vec<&str> = labels_top_down[0].iter().map(String::as_str).collect();
    let mut current = builder.add_root(&first);
    for labels in &labels_top_down[1..] {
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        current = builder.add_child(current, &refs);
    }
    builder.build().expect("path structure is valid")
}

/// Builds a *k-scattered* path structure (Section 7): the labeled positions
/// given by `labels` (top to bottom, each used exactly once) are separated
/// from each other and from both ends of the path by at least `k` unlabeled
/// nodes.
///
/// The resulting structure satisfies the definition before Lemma 7.2:
/// at least `k` nodes, at most one label per node, no repeated labels, and
/// pairwise distance ≥ `k` between labeled nodes and the path endpoints.
pub fn scattered_path_structure(labels_top_down: &[String], k: usize) -> Tree {
    let mut spec: Vec<Vec<String>> = Vec::new();
    // k unlabeled nodes before the first label, between labels, and after the
    // last label guarantee all distances are at least k.
    let pad = |spec: &mut Vec<Vec<String>>| {
        for _ in 0..k {
            spec.push(Vec::new());
        }
    };
    pad(&mut spec);
    for (i, label) in labels_top_down.iter().enumerate() {
        if i > 0 {
            pad(&mut spec);
        }
        spec.push(vec![label.clone()]);
    }
    pad(&mut spec);
    if spec.is_empty() {
        spec.push(Vec::new());
    }
    path_structure(&spec)
}

/// Configuration for the synthetic Treebank-style generator.
#[derive(Clone, Debug)]
pub struct TreebankConfig {
    /// Number of sentence subtrees below the corpus root.
    pub sentences: usize,
    /// Maximum depth of recursive phrase expansion within a sentence.
    pub max_depth: u32,
    /// Probability of attaching a prepositional phrase to a noun/verb phrase.
    pub pp_probability: f64,
}

impl Default for TreebankConfig {
    fn default() -> Self {
        TreebankConfig {
            sentences: 10,
            max_depth: 6,
            pp_probability: 0.4,
        }
    }
}

/// Generates a synthetic phrase-structure corpus in the style of the Penn
/// Treebank: a `CORPUS` root with `S` (sentence) children, each expanded by a
/// small probabilistic grammar over the nonterminals `NP`, `VP`, `PP` and the
/// part-of-speech tags `DT`, `NN`, `NNS`, `VB`, `VBD`, `IN`, `JJ`.
///
/// This is the substitute for the Penn Treebank evaluation data motivating
/// the query of Figure 1 (`S`–`NP`–`PP`–`Following`); see DESIGN.md §5.
pub fn treebank<R: Rng>(rng: &mut R, config: &TreebankConfig) -> Tree {
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(&["CORPUS"]);
    for _ in 0..config.sentences.max(1) {
        let s = builder.add_child(root, &["S"]);
        expand_np(
            rng,
            &mut builder,
            s,
            config.max_depth,
            config.pp_probability,
        );
        expand_vp(
            rng,
            &mut builder,
            s,
            config.max_depth,
            config.pp_probability,
        );
    }
    builder
        .build()
        .expect("treebank generator produced a valid tree")
}

fn expand_np<R: Rng>(rng: &mut R, b: &mut TreeBuilder, parent: NodeId, depth: u32, pp_prob: f64) {
    let np = b.add_child(parent, &["NP"]);
    if depth == 0 || rng.gen_bool(0.7) {
        // Flat NP: (DT) (JJ) NN/NNS
        if rng.gen_bool(0.6) {
            b.add_child(np, &["DT"]);
        }
        if rng.gen_bool(0.3) {
            b.add_child(np, &["JJ"]);
        }
        b.add_child(np, &[if rng.gen_bool(0.5) { "NN" } else { "NNS" }]);
    } else {
        // Recursive NP with PP attachment: NP -> NP PP
        expand_np(rng, b, np, depth - 1, pp_prob);
        expand_pp(rng, b, np, depth - 1, pp_prob);
    }
    if depth > 0 && rng.gen_bool(pp_prob / 2.0) {
        expand_pp(rng, b, np, depth - 1, pp_prob);
    }
}

fn expand_vp<R: Rng>(rng: &mut R, b: &mut TreeBuilder, parent: NodeId, depth: u32, pp_prob: f64) {
    let vp = b.add_child(parent, &["VP"]);
    b.add_child(vp, &[if rng.gen_bool(0.5) { "VB" } else { "VBD" }]);
    if depth == 0 {
        return;
    }
    if rng.gen_bool(0.8) {
        expand_np(rng, b, vp, depth - 1, pp_prob);
    }
    if rng.gen_bool(pp_prob) {
        expand_pp(rng, b, vp, depth - 1, pp_prob);
    }
}

fn expand_pp<R: Rng>(rng: &mut R, b: &mut TreeBuilder, parent: NodeId, depth: u32, pp_prob: f64) {
    let pp = b.add_child(parent, &["PP"]);
    b.add_child(pp, &["IN"]);
    if depth > 0 {
        expand_np(rng, b, pp, depth.saturating_sub(1), pp_prob);
    } else {
        b.add_child(pp, &["NN"]);
    }
}

/// Configuration for the data-centric XML document generator.
#[derive(Clone, Debug)]
pub struct XmlDocumentConfig {
    /// Number of top-level records.
    pub records: usize,
    /// Fields per record.
    pub fields_per_record: usize,
    /// Probability that a field has a nested sub-record instead of being flat.
    pub nesting_probability: f64,
    /// Maximum nesting depth of sub-records.
    pub max_nesting: u32,
}

impl Default for XmlDocumentConfig {
    fn default() -> Self {
        XmlDocumentConfig {
            records: 20,
            fields_per_record: 5,
            nesting_probability: 0.3,
            max_nesting: 3,
        }
    }
}

/// Generates a data-centric XML-like document tree: a `doc` root containing
/// `record` elements, each with `field` children (`name`, `value`, `item`,…),
/// some of which nest sub-records.
pub fn xml_document<R: Rng>(rng: &mut R, config: &XmlDocumentConfig) -> Tree {
    const FIELD_LABELS: [&str; 5] = ["name", "value", "item", "ref", "note"];
    let mut builder = TreeBuilder::new();
    let root = builder.add_root(&["doc"]);
    fn record<R: Rng>(
        rng: &mut R,
        b: &mut TreeBuilder,
        parent: NodeId,
        fields: usize,
        nest_prob: f64,
        depth: u32,
    ) {
        let rec = b.add_child(parent, &["record"]);
        for i in 0..fields.max(1) {
            let label = FIELD_LABELS[i % FIELD_LABELS.len()];
            let field = b.add_child(rec, &[label]);
            if depth > 0 && rng.gen_bool(nest_prob) {
                record(rng, b, field, fields, nest_prob, depth - 1);
            }
        }
    }
    for _ in 0..config.records.max(1) {
        record(
            rng,
            &mut builder,
            root,
            config.fields_per_record,
            config.nesting_probability,
            config.max_nesting,
        );
    }
    builder
        .build()
        .expect("xml document generator produced a valid tree")
}

/// Configuration for [`random_edit_script`].
#[derive(Clone, Debug)]
pub struct EditScriptConfig {
    /// Number of edits in the script.
    pub edits: usize,
    /// Relative weight of insert-subtree edits.
    pub insert_weight: u32,
    /// Relative weight of delete-subtree edits (skipped while the tree has a
    /// single node, since the root cannot be deleted).
    pub delete_weight: u32,
    /// Relative weight of relabel edits.
    pub relabel_weight: u32,
    /// Largest fragment an insert may graft (≥ 1).
    pub max_insert_nodes: usize,
    /// Alphabet for grafted fragments and new label sets.
    pub alphabet: Vec<String>,
}

impl Default for EditScriptConfig {
    fn default() -> Self {
        EditScriptConfig {
            edits: 4,
            insert_weight: 2,
            delete_weight: 1,
            relabel_weight: 2,
            max_insert_nodes: 6,
            alphabet: ["A", "B", "C", "D", "E"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }
}

/// Generates a random, always-valid [`EditScript`] against `tree`.
///
/// Each edit is drawn for the tree state left by the preceding edits (the
/// generator applies them as it goes), so the script applies cleanly via
/// [`EditScript::apply_to`] — the workload shape of the mutable-corpus
/// serving benchmarks and the differential edit-property tests.
///
/// # Panics
/// Panics if all three weights are zero or the alphabet is empty.
pub fn random_edit_script<R: Rng>(
    rng: &mut R,
    tree: &Tree,
    config: &EditScriptConfig,
) -> EditScript {
    assert!(
        config.insert_weight + config.relabel_weight > 0,
        "insert or relabel must have positive weight: a delete-only script \
         cannot be generated for every tree (the root is undeletable)"
    );
    assert!(
        !config.alphabet.is_empty(),
        "edit generation requires a non-empty alphabet"
    );
    let mut current = tree.clone();
    let mut script = EditScript::new();
    for _ in 0..config.edits {
        let total = config.insert_weight + config.delete_weight + config.relabel_weight;
        let mut roll = rng.gen_range(0..total);
        // Deletes need a non-root victim; redraw over the remaining kinds
        // otherwise (so a zero-weight kind is never emitted by fallback).
        if roll >= config.insert_weight
            && roll < config.insert_weight + config.delete_weight
            && current.len() == 1
        {
            let redraw = rng.gen_range(0..config.insert_weight + config.relabel_weight);
            roll = if redraw < config.insert_weight {
                redraw
            } else {
                config.delete_weight + redraw
            };
        }
        let edit = if roll < config.insert_weight {
            let parent_pre = rng.gen_range(0..current.len()) as u32;
            let parent = NodeId::from_index(parent_pre as usize);
            let position = rng.gen_range(0..=current.children(parent).len());
            let nodes = rng.gen_range(1..=config.max_insert_nodes.max(1));
            let subtree = random_tree(
                rng,
                &RandomTreeConfig {
                    nodes,
                    alphabet: config.alphabet.clone(),
                    multi_label_probability: 0.1,
                    attach_window: usize::MAX,
                },
            );
            TreeEdit::insert_subtree(parent_pre, position, subtree)
        } else if roll < config.insert_weight + config.delete_weight {
            TreeEdit::DeleteSubtree {
                node_pre: rng.gen_range(1..current.len()) as u32,
            }
        } else {
            let node_pre = rng.gen_range(0..current.len()) as u32;
            let count = rng.gen_range(0..=2usize);
            let labels = (0..count)
                .map(|_| config.alphabet[rng.gen_range(0..config.alphabet.len())].clone())
                .collect();
            TreeEdit::Relabel { node_pre, labels }
        };
        let (next, _) = edit
            .apply_to(&current)
            .expect("generated edits target live nodes");
        script.push(edit);
        current = next;
    }
    script
}

/// How the label vocabularies of the corpus templates relate — the
/// **selectivity control** of [`document_corpus`]. Label-based pruning
/// layers are exercised at both extremes: a [`Shared`] vocabulary makes
/// every document a candidate for every label query (pruning rate ~0), a
/// [`Disjoint`] one makes only one template family a candidate (pruning
/// rate `1 - 1/distinct`).
///
/// [`Shared`]: LabelVocabulary::Shared
/// [`Disjoint`]: LabelVocabulary::Disjoint
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LabelVocabulary {
    /// Every template draws from the same alphabet (the historical
    /// behaviour, and the default).
    #[default]
    Shared,
    /// Template `t` draws from the shared first half of the alphabet plus a
    /// private `T{t}_`-prefixed copy of the second half: some queries hit
    /// every document, some hit one template family.
    Overlapping,
    /// Template `t` draws exclusively from a private `T{t}_`-prefixed copy
    /// of the alphabet: label vocabularies of distinct templates are
    /// disjoint, the low-selectivity extreme.
    Disjoint,
}

/// Configuration for [`document_corpus`].
#[derive(Clone, Debug)]
pub struct DocumentCorpusConfig {
    /// Number of documents to generate.
    pub documents: usize,
    /// Number of *distinct* template trees among them (clamped to
    /// `1..=documents`). Documents cycle through the templates, so
    /// `documents - distinct` of them are exact clones of an earlier
    /// document — the **structure-hash collision rate** of the corpus is
    /// `1 - distinct/documents`, which the sharded serving layer's
    /// cross-document plan-cache sharing exploits (and its tests control).
    pub distinct: usize,
    /// Nodes per document.
    pub nodes_per_document: usize,
    /// Base label alphabet; how templates share it is governed by
    /// `vocabulary`.
    pub alphabet: Vec<String>,
    /// Selectivity control: how template vocabularies relate.
    pub vocabulary: LabelVocabulary,
}

impl Default for DocumentCorpusConfig {
    fn default() -> Self {
        DocumentCorpusConfig {
            documents: 16,
            distinct: 8,
            nodes_per_document: 100,
            alphabet: ["A", "B", "C", "D", "E"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            vocabulary: LabelVocabulary::Shared,
        }
    }
}

/// The alphabet template `t` draws from under `vocabulary` (see
/// [`LabelVocabulary`]).
fn template_alphabet(config: &DocumentCorpusConfig, t: usize) -> Vec<String> {
    match config.vocabulary {
        LabelVocabulary::Shared => config.alphabet.clone(),
        LabelVocabulary::Overlapping => {
            let shared = (config.alphabet.len() / 2).max(1);
            config.alphabet[..shared]
                .iter()
                .cloned()
                .chain(
                    config.alphabet[shared.min(config.alphabet.len())..]
                        .iter()
                        .map(|l| format!("T{t}_{l}")),
                )
                .collect()
        }
        LabelVocabulary::Disjoint => config
            .alphabet
            .iter()
            .map(|l| format!("T{t}_{l}"))
            .collect(),
    }
}

/// Generates a multi-document corpus with a **controllable structure-hash
/// collision rate**: `config.distinct` independent random template trees,
/// cycled across `config.documents` documents (document `i` is a clone of
/// template `i % distinct`).
///
/// Two clones have equal [`Tree::structure_digest`]s, so a serving layer
/// keying plan caches by document structure hash shares entries between
/// them; two distinct templates collide only with probability ~2⁻⁶⁴. The
/// sharded-corpus benchmarks and the cross-document cache tests both build
/// their corpora here.
///
/// # Panics
/// Panics if `config.documents == 0`, `config.nodes_per_document == 0` or
/// the alphabet is empty.
pub fn document_corpus<R: Rng>(rng: &mut R, config: &DocumentCorpusConfig) -> Vec<Tree> {
    assert!(config.documents > 0, "corpus needs at least one document");
    let distinct = config.distinct.clamp(1, config.documents);
    let templates: Vec<Tree> = (0..distinct)
        .map(|t| {
            random_tree(
                rng,
                &RandomTreeConfig {
                    nodes: config.nodes_per_document,
                    alphabet: template_alphabet(config, t),
                    multi_label_probability: 0.05,
                    attach_window: usize::MAX,
                },
            )
        })
        .collect();
    (0..config.documents)
        .map(|i| templates[i % distinct].clone())
        .collect()
}

/// Label weights for [`weighted_random_tree`]: a label alphabet where some
/// labels are rarer than others (useful for selective queries).
#[derive(Clone, Debug)]
pub struct WeightedAlphabet {
    /// `(label, weight)` pairs; weights need not sum to 1.
    pub labels: Vec<(String, f64)>,
}

impl WeightedAlphabet {
    /// A Zipf-like alphabet of `size` labels `L0..L{size-1}` with weight
    /// `1/(rank+1)`.
    pub fn zipf(size: usize) -> Self {
        WeightedAlphabet {
            labels: (0..size.max(1))
                .map(|i| (format!("L{i}"), 1.0 / (i as f64 + 1.0)))
                .collect(),
        }
    }
}

/// Like [`random_tree`] but draws labels from a weighted alphabet.
pub fn weighted_random_tree<R: Rng>(
    rng: &mut R,
    nodes: usize,
    alphabet: &WeightedAlphabet,
    attach_window: usize,
) -> Tree {
    assert!(nodes > 0);
    let weights: Vec<f64> = alphabet.labels.iter().map(|(_, w)| *w).collect();
    let dist = WeightedIndex::new(&weights).expect("weights must be positive");
    let mut builder = TreeBuilder::new();
    let mut created = Vec::with_capacity(nodes);
    let root_label = alphabet.labels[dist.sample(rng)].0.clone();
    created.push(builder.add_root(&[root_label.as_str()]));
    for _ in 1..nodes {
        let window = attach_window.min(created.len()).max(1);
        let start = created.len() - window;
        let parent = created[rng.gen_range(start..created.len())];
        let label = alphabet.labels[dist.sample(rng)].0.clone();
        created.push(builder.add_child(parent, &[label.as_str()]));
    }
    builder
        .build()
        .expect("weighted generator produced a valid tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::Axis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_has_requested_size() {
        let mut rng = StdRng::seed_from_u64(1);
        for nodes in [1usize, 2, 10, 257] {
            let config = RandomTreeConfig {
                nodes,
                ..RandomTreeConfig::default()
            };
            let tree = random_tree(&mut rng, &config);
            assert_eq!(tree.len(), nodes);
        }
    }

    #[test]
    fn attach_window_one_yields_a_path() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = RandomTreeConfig {
            nodes: 30,
            attach_window: 1,
            ..RandomTreeConfig::default()
        };
        let tree = random_tree(&mut rng, &config);
        assert_eq!(tree.height(), 29);
        assert!(tree.nodes().all(|n| tree.children(n).len() <= 1));
    }

    #[test]
    fn multi_labels_appear_when_requested() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = RandomTreeConfig {
            nodes: 200,
            multi_label_probability: 0.8,
            ..RandomTreeConfig::default()
        };
        let tree = random_tree(&mut rng, &config);
        assert!(tree.nodes().any(|n| tree.labels(n).len() > 1));
    }

    #[test]
    fn full_tree_size_is_geometric() {
        let tree = full_tree(3, 2, "N");
        assert_eq!(tree.len(), 1 + 2 + 4 + 8);
        assert_eq!(tree.height(), 3);
        let tree = full_tree(0, 5, "N");
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn path_structure_is_a_path() {
        let labels: Vec<Vec<String>> = vec![
            vec!["A".into()],
            vec![],
            vec!["B".into(), "C".into()],
            vec![],
        ];
        let tree = path_structure(&labels);
        assert_eq!(tree.len(), 4);
        assert_eq!(tree.height(), 3);
        assert!(tree.nodes().all(|n| tree.children(n).len() <= 1));
        assert!(tree.has_label_name(tree.root(), "A"));
        let third = tree
            .nodes()
            .find(|&n| tree.depth(n) == 2)
            .expect("depth-2 node exists");
        assert!(tree.has_label_name(third, "B"));
        assert!(tree.has_label_name(third, "C"));
    }

    #[test]
    fn scattered_path_structure_respects_distances() {
        let labels = vec!["X".to_string(), "Y".to_string(), "Z".to_string()];
        let k = 5;
        let tree = scattered_path_structure(&labels, k);
        // At most one label per node, no repeats.
        let labeled: Vec<_> = tree
            .nodes()
            .filter(|&n| !tree.labels(n).is_empty())
            .collect();
        assert_eq!(labeled.len(), 3);
        for &n in &labeled {
            assert_eq!(tree.labels(n).len(), 1);
        }
        // Distances between labeled nodes and to both endpoints are >= k.
        let top = tree.root();
        let bottom = tree.nodes().find(|&n| tree.is_leaf(n)).unwrap();
        for &n in &labeled {
            assert!(tree.depth(n) >= k as u32, "too close to the top");
            assert!(
                tree.depth(bottom) - tree.depth(n) >= k as u32,
                "too close to the bottom"
            );
            assert_ne!(n, top);
            assert_ne!(n, bottom);
        }
        for &a in &labeled {
            for &b in &labeled {
                if a != b {
                    let dist = (tree.depth(a) as i64 - tree.depth(b) as i64).unsigned_abs();
                    assert!(dist >= k as u64, "labels closer than k");
                }
            }
        }
    }

    #[test]
    fn treebank_contains_expected_nonterminals() {
        let mut rng = StdRng::seed_from_u64(4);
        let tree = treebank(&mut rng, &TreebankConfig::default());
        assert!(tree.has_label_name(tree.root(), "CORPUS"));
        for label in ["S", "NP", "VP"] {
            assert!(
                !tree.nodes_with_label_name(label).is_empty(),
                "expected at least one {label} node"
            );
        }
        // Every S is a child of the corpus root.
        for s in tree.nodes_with_label_name("S").iter() {
            assert_eq!(tree.parent(s), Some(tree.root()));
        }
        // NP nodes never have NP parents *and* grandparents that are leaves
        // (sanity: grammar produces well-formed phrase structure).
        assert!(tree.len() > 20);
    }

    #[test]
    fn treebank_fig1_query_has_witnesses() {
        // The Figure 1 query asks for S nodes with an NP descendant and a PP
        // descendant where the PP follows the NP. The generator should produce
        // corpora where such configurations exist (with PP probability 1.0).
        let mut rng = StdRng::seed_from_u64(5);
        let config = TreebankConfig {
            sentences: 30,
            max_depth: 6,
            pp_probability: 1.0,
        };
        let tree = treebank(&mut rng, &config);
        let witness = tree.nodes_with_label_name("S").iter().any(|s| {
            let nps: Vec<_> = tree
                .nodes_with_label_name("NP")
                .iter()
                .filter(|&np| Axis::ChildPlus.holds(&tree, s, np))
                .collect();
            let pps: Vec<_> = tree
                .nodes_with_label_name("PP")
                .iter()
                .filter(|&pp| Axis::ChildPlus.holds(&tree, s, pp))
                .collect();
            nps.iter()
                .any(|&np| pps.iter().any(|&pp| Axis::Following.holds(&tree, np, pp)))
        });
        assert!(witness, "expected at least one S with NP followed by PP");
    }

    #[test]
    fn xml_document_structure() {
        let mut rng = StdRng::seed_from_u64(6);
        let tree = xml_document(&mut rng, &XmlDocumentConfig::default());
        assert!(tree.has_label_name(tree.root(), "doc"));
        let records = tree.nodes_with_label_name("record");
        assert!(records.len() >= 20);
        assert!(!tree.nodes_with_label_name("name").is_empty());
    }

    #[test]
    fn random_edit_scripts_apply_cleanly() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = random_tree(&mut rng, &RandomTreeConfig::default());
        for _ in 0..10 {
            let script = random_edit_script(
                &mut rng,
                &base,
                &EditScriptConfig {
                    edits: 5,
                    ..EditScriptConfig::default()
                },
            );
            assert_eq!(script.len(), 5);
            let (tree, summary) = script.apply_to(&base).unwrap();
            assert!(!tree.is_empty());
            if summary.structure_changed {
                assert!(summary.inserted_nodes + summary.deleted_nodes > 0);
            }
        }
    }

    #[test]
    fn document_corpus_controls_structure_hash_collisions() {
        let mut rng = StdRng::seed_from_u64(9);
        let config = DocumentCorpusConfig {
            documents: 12,
            distinct: 3,
            nodes_per_document: 40,
            ..DocumentCorpusConfig::default()
        };
        let corpus = document_corpus(&mut rng, &config);
        assert_eq!(corpus.len(), 12);
        assert!(corpus.iter().all(|t| t.len() == 40));
        let digests: std::collections::BTreeSet<u64> =
            corpus.iter().map(|t| t.structure_digest()).collect();
        assert_eq!(digests.len(), 3, "exactly `distinct` structure hashes");
        // Clones cycle: documents i and i+3 share a template.
        assert_eq!(corpus[0].structure_digest(), corpus[3].structure_digest());
        assert_ne!(corpus[0].structure_digest(), corpus[1].structure_digest());
        // A fully-distinct corpus has no collisions at all.
        let all_distinct = document_corpus(
            &mut rng,
            &DocumentCorpusConfig {
                documents: 6,
                distinct: 6,
                nodes_per_document: 30,
                ..DocumentCorpusConfig::default()
            },
        );
        let digests: std::collections::BTreeSet<u64> =
            all_distinct.iter().map(|t| t.structure_digest()).collect();
        assert_eq!(digests.len(), 6);
    }

    #[test]
    fn document_corpus_vocabulary_controls_selectivity() {
        let mut rng = StdRng::seed_from_u64(11);
        let labels_of = |t: &Tree| -> std::collections::BTreeSet<String> {
            t.interner()
                .iter()
                .filter(|(l, _)| !t.nodes_with_label(*l).is_empty())
                .map(|(_, name)| name.to_owned())
                .collect()
        };
        // Disjoint: distinct templates share no label at all.
        let disjoint = document_corpus(
            &mut rng,
            &DocumentCorpusConfig {
                documents: 4,
                distinct: 4,
                nodes_per_document: 60,
                vocabulary: LabelVocabulary::Disjoint,
                ..DocumentCorpusConfig::default()
            },
        );
        for i in 0..4 {
            for j in (i + 1)..4 {
                let a = labels_of(&disjoint[i]);
                let b = labels_of(&disjoint[j]);
                assert!(
                    a.is_disjoint(&b),
                    "templates {i} and {j} share labels: {:?}",
                    a.intersection(&b).collect::<Vec<_>>()
                );
            }
        }
        assert!(labels_of(&disjoint[0]).iter().all(|l| l.starts_with("T0_")));
        // Overlapping: a shared core plus template-private labels.
        let overlapping = document_corpus(
            &mut rng,
            &DocumentCorpusConfig {
                documents: 2,
                distinct: 2,
                nodes_per_document: 400,
                vocabulary: LabelVocabulary::Overlapping,
                ..DocumentCorpusConfig::default()
            },
        );
        let a = labels_of(&overlapping[0]);
        let b = labels_of(&overlapping[1]);
        assert!(!a.is_disjoint(&b), "shared core labels appear in both");
        assert!(a.iter().any(|l| l.starts_with("T0_")));
        assert!(b.iter().any(|l| l.starts_with("T1_")));
        assert!(a.iter().all(|l| !l.starts_with("T1_")));
    }

    #[test]
    fn weighted_random_tree_uses_common_labels_more() {
        let mut rng = StdRng::seed_from_u64(7);
        let alphabet = WeightedAlphabet::zipf(5);
        let tree = weighted_random_tree(&mut rng, 2000, &alphabet, usize::MAX);
        assert_eq!(tree.len(), 2000);
        let common = tree.nodes_with_label_name("L0").len();
        let rare = tree.nodes_with_label_name("L4").len();
        assert!(
            common > rare,
            "L0 ({common}) should be more frequent than L4 ({rare})"
        );
    }
}
