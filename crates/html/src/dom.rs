//! An arena-backed W3C-style Document Object Model.
//!
//! Nodes live in a flat `Vec` inside [`Document`]; [`NodeId`] is an index
//! newtype. The tree is rooted (node 0 is always the document node), labeled
//! (every node has a [node name](Document::node_name)) and ordered — exactly
//! the three properties the paper's tree-matching algorithms require (§4.1).

use std::fmt;

/// Handle to a node inside a [`Document`] arena.
///
/// Only meaningful together with the `Document` that created it. Ids are
/// assigned in creation order and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The document root node (always present).
    pub const DOCUMENT: NodeId = NodeId(0);

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// The document root (exactly one per tree, always node 0).
    Document,
    /// A `<!DOCTYPE …>` declaration.
    Doctype {
        /// The doctype name, e.g. `html`.
        name: String,
    },
    /// An element node.
    Element {
        /// Lower-cased tag name.
        name: String,
        /// Attributes in source order, names lower-cased.
        attrs: Vec<(String, String)>,
    },
    /// A text node (character data, entities already decoded).
    Text(
        /// The decoded text.
        String,
    ),
    /// A comment node.
    Comment(
        /// The comment body, without `<!--`/`-->` delimiters.
        String,
    ),
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    data: NodeData,
}

/// An HTML document: an arena of [`NodeData`] nodes forming a rooted,
/// labeled, ordered tree.
///
/// ```
/// use cp_html::{Document, NodeData, NodeId};
///
/// let mut doc = Document::new();
/// let html = doc.create_element("html", vec![]);
/// doc.append_child(NodeId::DOCUMENT, html);
/// let body = doc.create_element("body", vec![]);
/// doc.append_child(html, body);
/// let text = doc.create_text("hi");
/// doc.append_child(body, text);
/// assert_eq!(doc.text_content(html), "hi");
/// assert_eq!(doc.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Creates a document containing only the root document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![Node { parent: None, children: Vec::new(), data: NodeData::Document }],
        }
    }

    /// Total number of nodes, including the document node.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document holds only the root node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    pub(crate) fn push(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("more than u32::MAX DOM nodes"));
        self.nodes.push(Node { parent: None, children: Vec::new(), data });
        id
    }

    /// Creates a detached element node. Tag and attribute names are
    /// lower-cased.
    pub fn create_element(
        &mut self,
        name: impl Into<String>,
        attrs: Vec<(String, String)>,
    ) -> NodeId {
        let name = name.into().to_ascii_lowercase();
        let attrs = attrs.into_iter().map(|(k, v)| (k.to_ascii_lowercase(), v)).collect::<Vec<_>>();
        self.push(NodeData::Element { name, attrs })
    }

    /// Creates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.push(NodeData::Text(text.into()))
    }

    /// Creates a detached comment node.
    pub fn create_comment(&mut self, text: impl Into<String>) -> NodeId {
        self.push(NodeData::Comment(text.into()))
    }

    /// Creates a detached doctype node.
    pub fn create_doctype(&mut self, name: impl Into<String>) -> NodeId {
        self.push(NodeData::Doctype { name: name.into() })
    }

    /// Appends `child` as the last child of `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `child` already has a parent, or if either id is invalid.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert!(self.nodes[child.index()].parent.is_none(), "node {child} already attached");
        assert_ne!(parent, child, "cannot append a node to itself");
        self.nodes[child.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(child);
    }

    /// The node's payload.
    pub fn data(&self, id: NodeId) -> &NodeData {
        &self.nodes[id.index()].data
    }

    /// The node's parent, `None` for the document node (or detached nodes).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The node's children, in document order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Only the element children of `id`, in document order.
    pub fn element_children(&self, id: NodeId) -> Vec<NodeId> {
        self.children(id).iter().copied().filter(|&c| self.is_element(c)).collect()
    }

    /// The W3C node name: `#document`, `#text`, `#comment`, the doctype
    /// name, or the element tag name.
    pub fn node_name(&self, id: NodeId) -> &str {
        match self.data(id) {
            NodeData::Document => "#document",
            NodeData::Doctype { name } => name,
            NodeData::Element { name, .. } => name,
            NodeData::Text(_) => "#text",
            NodeData::Comment(_) => "#comment",
        }
    }

    /// Whether the node is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.data(id), NodeData::Element { .. })
    }

    /// The element's tag name, or `None` for non-elements.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        match self.data(id) {
            NodeData::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// The text of a text node, or `None` otherwise.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.data(id) {
            NodeData::Text(t) => Some(t),
            _ => None,
        }
    }

    /// Attribute lookup (name is matched case-insensitively).
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match self.data(id) {
            NodeData::Element { attrs, .. } => {
                attrs.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
            }
            _ => None,
        }
    }

    /// Sets (or adds) an attribute on an element node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an element.
    pub fn set_attr(&mut self, id: NodeId, name: &str, value: impl Into<String>) {
        let name = name.to_ascii_lowercase();
        match &mut self.nodes[id.index()].data {
            NodeData::Element { attrs, .. } => {
                let value = value.into();
                if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == name) {
                    slot.1 = value;
                } else {
                    attrs.push((name, value));
                }
            }
            _ => panic!("set_attr on non-element node {id}"),
        }
    }

    /// Preorder (document-order) traversal starting at `id`, inclusive.
    pub fn preorder(&self, id: NodeId) -> Preorder<'_> {
        Preorder { doc: self, stack: vec![id] }
    }

    /// Preorder traversal of the whole document.
    pub fn preorder_all(&self) -> Preorder<'_> {
        self.preorder(NodeId::DOCUMENT)
    }

    /// First element (in document order) with the given tag name, searching
    /// the subtree rooted at `from`.
    pub fn find_element(&self, from: NodeId, name: &str) -> Option<NodeId> {
        self.preorder(from).find(|&n| self.tag_name(n).is_some_and(|t| t == name))
    }

    /// Every element with the given tag name in the subtree rooted at `from`.
    pub fn find_all(&self, from: NodeId, name: &str) -> Vec<NodeId> {
        self.preorder(from).filter(|&n| self.tag_name(n).is_some_and(|t| t == name)).collect()
    }

    /// First element with the given `id` attribute value.
    pub fn element_by_id(&self, id_value: &str) -> Option<NodeId> {
        self.preorder_all().find(|&n| self.attr(n, "id") == Some(id_value))
    }

    /// The `<html>` element, if present.
    pub fn html(&self) -> Option<NodeId> {
        self.element_children(NodeId::DOCUMENT)
            .into_iter()
            .find(|&n| self.tag_name(n) == Some("html"))
    }

    /// The `<head>` element, if present.
    pub fn head(&self) -> Option<NodeId> {
        self.html().and_then(|h| {
            self.element_children(h).into_iter().find(|&n| self.tag_name(n) == Some("head"))
        })
    }

    /// The `<body>` element, if present.
    pub fn body(&self) -> Option<NodeId> {
        self.html().and_then(|h| {
            self.element_children(h).into_iter().find(|&n| self.tag_name(n) == Some("body"))
        })
    }

    /// Concatenated text of every text node under `id` (inclusive).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.preorder(id) {
            if let NodeData::Text(t) = self.data(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth of `id`: the document node is depth 0, `<html>` depth 1, …
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Maximum node depth in the document.
    pub fn max_depth(&self) -> usize {
        self.preorder_all().map(|n| self.depth(n)).max().unwrap_or(0)
    }

    /// The root-to-node path of node names, joined by `:` — the *context*
    /// of a text node in the paper's CVCE algorithm (§4.2).
    ///
    /// The document node itself is omitted.
    ///
    /// ```
    /// use cp_html::parse_document;
    /// let doc = parse_document("<p><b>x</b></p>");
    /// let b = doc.find_element(cp_html::NodeId::DOCUMENT, "b").unwrap();
    /// let text = doc.children(b)[0];
    /// assert_eq!(doc.context_path(text), "html:body:p:b");
    /// ```
    pub fn context_path(&self, id: NodeId) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p != NodeId::DOCUMENT {
                names.push(self.node_name(p));
            }
            cur = self.parent(p);
        }
        names.reverse();
        names.join(":")
    }
}

/// Iterator returned by [`Document::preorder`].
#[derive(Debug)]
pub struct Preorder<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let kids = self.doc.children(id);
        self.stack.extend(kids.iter().rev().copied());
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId) {
        let mut doc = Document::new();
        let html = doc.create_element("HTML", vec![("LANG".into(), "en".into())]);
        doc.append_child(NodeId::DOCUMENT, html);
        let body = doc.create_element("body", vec![]);
        doc.append_child(html, body);
        (doc, html, body)
    }

    #[test]
    fn names_are_lowercased() {
        let (doc, html, _) = small_doc();
        assert_eq!(doc.tag_name(html), Some("html"));
        assert_eq!(doc.attr(html, "lang"), Some("en"));
        assert_eq!(doc.attr(html, "LANG"), Some("en"));
    }

    #[test]
    fn parent_child_links() {
        let (doc, html, body) = small_doc();
        assert_eq!(doc.parent(body), Some(html));
        assert_eq!(doc.parent(html), Some(NodeId::DOCUMENT));
        assert_eq!(doc.parent(NodeId::DOCUMENT), None);
        assert_eq!(doc.children(html), &[body]);
    }

    #[test]
    #[should_panic(expected = "already attached")]
    fn double_append_panics() {
        let (mut doc, html, body) = small_doc();
        doc.append_child(html, body);
    }

    #[test]
    fn preorder_is_document_order() {
        let (mut doc, _, body) = small_doc();
        let p1 = doc.create_element("p", vec![]);
        doc.append_child(body, p1);
        let t1 = doc.create_text("one");
        doc.append_child(p1, t1);
        let p2 = doc.create_element("p", vec![]);
        doc.append_child(body, p2);
        let names: Vec<String> = doc.preorder_all().map(|n| doc.node_name(n).to_string()).collect();
        assert_eq!(names, ["#document", "html", "body", "p", "#text", "p"]);
    }

    #[test]
    fn text_content_concatenates() {
        let (mut doc, html, body) = small_doc();
        let t1 = doc.create_text("a");
        doc.append_child(body, t1);
        let b = doc.create_element("b", vec![]);
        doc.append_child(body, b);
        let t2 = doc.create_text("c");
        doc.append_child(b, t2);
        assert_eq!(doc.text_content(html), "ac");
    }

    #[test]
    fn set_attr_overwrites_or_adds() {
        let (mut doc, html, _) = small_doc();
        doc.set_attr(html, "lang", "fr");
        assert_eq!(doc.attr(html, "lang"), Some("fr"));
        doc.set_attr(html, "data-x", "1");
        assert_eq!(doc.attr(html, "data-x"), Some("1"));
    }

    #[test]
    fn depth_and_context() {
        let (mut doc, html, body) = small_doc();
        let p = doc.create_element("p", vec![]);
        doc.append_child(body, p);
        let t = doc.create_text("x");
        doc.append_child(p, t);
        assert_eq!(doc.depth(NodeId::DOCUMENT), 0);
        assert_eq!(doc.depth(html), 1);
        assert_eq!(doc.depth(t), 4);
        assert_eq!(doc.context_path(t), "html:body:p");
        assert_eq!(doc.max_depth(), 4);
    }

    #[test]
    fn element_by_id_lookup() {
        let (mut doc, _, body) = small_doc();
        let d = doc.create_element("div", vec![("id".into(), "main".into())]);
        doc.append_child(body, d);
        assert_eq!(doc.element_by_id("main"), Some(d));
        assert_eq!(doc.element_by_id("nope"), None);
    }

    #[test]
    fn find_all_collects_in_order() {
        let (mut doc, _, body) = small_doc();
        for _ in 0..3 {
            let d = doc.create_element("div", vec![]);
            doc.append_child(body, d);
        }
        assert_eq!(doc.find_all(NodeId::DOCUMENT, "div").len(), 3);
        assert_eq!(doc.find_all(NodeId::DOCUMENT, "table").len(), 0);
    }
}
