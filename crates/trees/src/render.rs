//! Human-readable tree rendering: ASCII art and Graphviz DOT.
//!
//! These renderers are used by the examples and the experiment harness to
//! show the data trees of the paper's figures (e.g. the gadget trees of
//! Section 5) and the query/data structures side by side.

use crate::node::NodeId;
use crate::tree::Tree;

/// Renders `tree` as an indented ASCII diagram, one node per line, children
/// indented below their parent. Nodes are shown as `labels [node-id]`.
///
/// ```
/// use cqt_trees::parse::parse_term;
/// use cqt_trees::render::ascii_tree;
///
/// let tree = parse_term("A(B, C(D))").unwrap();
/// let art = ascii_tree(&tree);
/// assert!(art.contains("A"));
/// assert!(art.contains("`- C"));
/// ```
pub fn ascii_tree(tree: &Tree) -> String {
    let mut out = String::new();
    render_ascii(tree, tree.root(), "", "", &mut out);
    out
}

fn render_ascii(tree: &Tree, node: NodeId, prefix: &str, child_prefix: &str, out: &mut String) {
    let labels = tree.label_names(node);
    let label_text = if labels.is_empty() {
        "_".to_owned()
    } else {
        labels.join("|")
    };
    out.push_str(prefix);
    out.push_str(&label_text);
    out.push_str(&format!(" [{node}]\n"));
    let children = tree.children(node);
    for (i, &child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, next_prefix) = if last {
            (format!("{child_prefix}`- "), format!("{child_prefix}   "))
        } else {
            (format!("{child_prefix}|- "), format!("{child_prefix}|  "))
        };
        render_ascii(tree, child, &branch, &next_prefix, out);
    }
}

/// Renders `tree` as a Graphviz DOT digraph with child edges.
pub fn to_dot(tree: &Tree) -> String {
    let mut out = String::from("digraph tree {\n  node [shape=box];\n");
    for node in tree.nodes() {
        let labels = tree.label_names(node).join("|");
        let labels = if labels.is_empty() {
            "_".to_owned()
        } else {
            labels
        };
        out.push_str(&format!("  {} [label=\"{}\"];\n", node.index(), labels));
    }
    for node in tree.nodes() {
        for &child in tree.children(node) {
            out.push_str(&format!("  {} -> {};\n", node.index(), child.index()));
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a one-line summary of `tree`: node count, height, label alphabet
/// size, maximum branching factor.
pub fn summary(tree: &Tree) -> String {
    let max_branching = tree
        .nodes()
        .map(|n| tree.children(n).len())
        .max()
        .unwrap_or(0);
    format!(
        "{} nodes, height {}, {} labels, max fan-out {}",
        tree.len(),
        tree.height(),
        tree.interner().len(),
        max_branching
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_term;

    #[test]
    fn ascii_tree_contains_every_label_and_indentation() {
        let tree = parse_term("A(B(D), C)").unwrap();
        let art = ascii_tree(&tree);
        for label in ["A", "B", "C", "D"] {
            assert!(art.contains(label), "missing {label} in:\n{art}");
        }
        assert!(art.contains("|- B"));
        assert!(art.contains("`- C"));
        assert!(art.contains("|  `- D"));
        assert_eq!(art.lines().count(), 4);
    }

    #[test]
    fn dot_output_has_all_nodes_and_edges() {
        let tree = parse_term("A(B, C)").unwrap();
        let dot = to_dot(&tree);
        assert!(dot.starts_with("digraph tree {"));
        assert_eq!(dot.matches("->").count(), 2);
        assert!(dot.contains("label=\"A\""));
        assert!(dot.contains("label=\"B\""));
    }

    #[test]
    fn summary_reports_basic_stats() {
        let tree = parse_term("A(B(D, E), C)").unwrap();
        let s = summary(&tree);
        assert!(s.contains("5 nodes"));
        assert!(s.contains("height 2"));
        assert!(s.contains("max fan-out 2"));
    }
}
