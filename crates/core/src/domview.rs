//! Adapter exposing a [`cp_html::Document`] as a
//! [`cp_treediff::TreeView`], with the paper's visibility restriction.

use cp_html::{Document, NodeId};
use cp_treediff::TreeView;

/// A view of (a subtree of) an HTML document as a rooted labeled ordered
/// tree for the matching algorithms.
///
/// * Labels are W3C node names (`div`, `#text`, `#comment`, …).
/// * [`countable`](TreeView::countable) implements Figure 2 line 5: only
///   *visible* nodes count — comments, scripts, styles, head metadata and
///   `display:none`/`hidden` elements do not. Text nodes are labelled but
///   never countable (they are leaves; CVCE analyses them instead).
///
/// ```
/// use cp_html::parse_document;
/// use cookiepicker_core::DomTreeView;
/// use cp_treediff::n_tree_sim;
///
/// let a = parse_document("<body><div><p>x</p></div></body>");
/// let b = parse_document("<body><div><p>y</p></div></body>");
/// // Leaf text differs; upper structure is identical.
/// assert_eq!(n_tree_sim(&DomTreeView::from_body(&a), &DomTreeView::from_body(&b), 5), 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DomTreeView<'a> {
    doc: &'a Document,
    root: Option<NodeId>,
}

impl<'a> DomTreeView<'a> {
    /// Views the subtree rooted at the document's `<body>` element — the
    /// comparison root the paper uses ("the top five level of DOM tree
    /// starting from the body HTML node", §5.2). Falls back to `<html>` or
    /// the document node when no body exists.
    pub fn from_body(doc: &'a Document) -> Self {
        let root = doc.body().or_else(|| doc.html()).or(Some(NodeId::DOCUMENT));
        DomTreeView { doc, root }
    }

    /// Views the whole document from its root.
    pub fn from_document(doc: &'a Document) -> Self {
        DomTreeView { doc, root: Some(NodeId::DOCUMENT) }
    }

    /// The underlying document.
    pub fn document(&self) -> &'a Document {
        self.doc
    }
}

impl TreeView for DomTreeView<'_> {
    type Node = NodeId;

    fn root(&self) -> Option<NodeId> {
        self.root
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.doc.children(n).to_vec()
    }

    fn label(&self, n: NodeId) -> &str {
        self.doc.node_name(n)
    }

    fn countable(&self, n: NodeId) -> bool {
        self.doc.is_element(n) && cp_html::is_node_visible(self.doc, n)
    }
}

/// A DOM view whose labels include the element's `id` attribute
/// (`div#main` instead of `div`) — an implementation refinement in the
/// spirit of the paper's closing note that the two algorithms' tuning is
/// future work.
///
/// With id-aware labels, RSTM distinguishes a page whose *identities*
/// changed even when the tag skeleton is isomorphic (e.g. `#ads` replaced
/// by `#recs`). The trade-off: sites that randomize ids per render would
/// look noisy, so the default picker uses plain tag labels like the paper.
///
/// ```
/// use cp_html::parse_document;
/// use cookiepicker_core::domview::IdAwareDomView;
/// use cp_treediff::n_tree_sim;
///
/// let a = parse_document("<body><div id=ads><p>x</p></div></body>");
/// let b = parse_document("<body><div id=recs><p>x</p></div></body>");
/// let (va, vb) = (IdAwareDomView::from_body(&a), IdAwareDomView::from_body(&b));
/// // Plain labels would match these perfectly; id-aware labels do not.
/// assert!(n_tree_sim(&va, &vb, 5) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct IdAwareDomView<'a> {
    doc: &'a Document,
    root: Option<NodeId>,
    labels: Vec<String>,
}

impl<'a> IdAwareDomView<'a> {
    /// Views the subtree from `<body>` with id-aware labels.
    pub fn from_body(doc: &'a Document) -> Self {
        let root = doc.body().or_else(|| doc.html()).or(Some(NodeId::DOCUMENT));
        let mut labels = vec![String::new(); doc.len()];
        for n in doc.preorder_all() {
            let mut label = doc.node_name(n).to_string();
            if let Some(id) = doc.attr(n, "id") {
                label.push('#');
                label.push_str(id);
            }
            labels[n.index()] = label;
        }
        IdAwareDomView { doc, root, labels }
    }
}

impl TreeView for IdAwareDomView<'_> {
    type Node = NodeId;

    fn root(&self) -> Option<NodeId> {
        self.root
    }

    fn children(&self, n: NodeId) -> Vec<NodeId> {
        self.doc.children(n).to_vec()
    }

    fn label(&self, n: NodeId) -> &str {
        &self.labels[n.index()]
    }

    fn countable(&self, n: NodeId) -> bool {
        self.doc.is_element(n) && cp_html::is_node_visible(self.doc, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_html::parse_document;
    use cp_treediff::{countable_nodes, n_tree_sim, rstm};

    #[test]
    fn body_root_selected() {
        let doc = parse_document("<body><div>x</div></body>");
        let v = DomTreeView::from_body(&doc);
        assert_eq!(v.root(), doc.body());
        assert_eq!(v.label(v.root().unwrap()), "body");
    }

    #[test]
    fn scripts_and_comments_not_countable() {
        let doc = parse_document("<body><script>s()</script><!--c--><div><p>t</p></div></body>");
        let v = DomTreeView::from_body(&doc);
        // countable at l=5: body, div, p (script excluded, comment excluded,
        // text is a leaf).
        assert_eq!(countable_nodes(&v, 5), 3);
    }

    #[test]
    fn identical_pages_sim_one() {
        let html = "<body><div id=a><p>x</p></div><div id=b><ul><li>1</li></ul></div></body>";
        let d1 = parse_document(html);
        let d2 = parse_document(html);
        assert_eq!(n_tree_sim(&DomTreeView::from_body(&d1), &DomTreeView::from_body(&d2), 5), 1.0);
    }

    #[test]
    fn removed_panel_lowers_sim() {
        let d1 = parse_document(
            "<body><div><ul><li>a</li><li>b</li></ul></div><div><table><tr><td>x</td></tr></table></div></body>",
        );
        let d2 = parse_document("<body><div><ul><li>a</li><li>b</li></ul></div></body>");
        let sim = n_tree_sim(&DomTreeView::from_body(&d1), &DomTreeView::from_body(&d2), 5);
        assert!(sim < 1.0);
    }

    #[test]
    fn change_inside_script_invisible() {
        let d1 = parse_document("<body><script>var a=1;</script><div><p>t</p></div></body>");
        let d2 = parse_document("<body><script>var a=999;</script><div><p>t</p></div></body>");
        let (v1, v2) = (DomTreeView::from_body(&d1), DomTreeView::from_body(&d2));
        assert_eq!(rstm(&v1, &v2, 5), rstm(&v1, &v1, 5));
    }

    #[test]
    fn id_aware_view_distinguishes_renamed_panels() {
        let a =
            parse_document("<body><div id=ads><p>t</p></div><div><ul><li>x</li></ul></div></body>");
        let b = parse_document(
            "<body><div id=recs><p>t</p></div><div><ul><li>x</li></ul></div></body>",
        );
        // Plain labels: identical structure.
        assert_eq!(n_tree_sim(&DomTreeView::from_body(&a), &DomTreeView::from_body(&b), 5), 1.0);
        // Id-aware labels: the renamed panel's subtree no longer matches.
        let sim = n_tree_sim(&IdAwareDomView::from_body(&a), &IdAwareDomView::from_body(&b), 5);
        assert!(sim < 1.0);
    }

    #[test]
    fn id_aware_view_self_similarity_still_one() {
        let a = parse_document("<body><div id=x><p>t</p></div></body>");
        let v = IdAwareDomView::from_body(&a);
        assert_eq!(n_tree_sim(&v, &v, 5), 1.0);
        assert_eq!(v.label(a.element_by_id("x").unwrap()), "div#x");
    }

    #[test]
    fn display_none_subtree_not_counted() {
        let d1 = parse_document(
            r#"<body><div style="display:none"><p>a</p><p>b</p></div><div><p>x</p></div></body>"#,
        );
        let v = DomTreeView::from_body(&d1);
        // body + visible div + its p = 3.
        assert_eq!(countable_nodes(&v, 5), 3);
    }
}
