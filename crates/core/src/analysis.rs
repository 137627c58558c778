//! The compiled per-page analysis: everything `decide` needs from a page,
//! derived once and reusable across comparisons.
//!
//! [`decide`](crate::decision::decide) consumes a page twice — as a tree
//! (RSTM over the DOM structure) and as a content set (CVCE over its
//! visible text). Both derivations depend only on the page and the
//! `compare_from_body` flag, never on the *other* page of a comparison, so
//! they can be compiled ahead of time into a [`PageAnalysis`]: a
//! [`DetectTree`] arena plus a [`CompiledContentSet`]. `cp-serve` keys
//! these by a keyed hash of the body bytes and caches them, so repeated
//! bodies skip parsing and extraction entirely.
//!
//! One page compiler builds both derivations, node by node. It has two
//! sources, and the per-element rule (visibility, noise containers, ad
//! attributes) is written once, in the compiler:
//!
//! * [`PageAnalysis::from_html`] runs `cp-html`'s tree builder with the
//!   compiler as its sink, so raw markup is compiled with no `Document`
//!   in between — the path `cp-serve` takes on every cache miss;
//! * [`PageAnalysis::from_document`] walks a parsed `Document` and feeds
//!   the compiler the same nodes.

use std::borrow::Cow;

use cp_html::{AttrView, Attribute, Document, NodeData, NodeId, TextSpan, TreeSink};
use cp_treediff::{DetectTree, DetectTreeBuilder, TreeView as _};

use crate::cvce::{
    ad_attrs, content_text, context_hash, noise_container, CompiledContentSet, HashSink,
    ROOT_CONTEXT,
};
use crate::domview::DomTreeView;

/// The compiled form of one page version: ready for any number of
/// [`decide_analyzed`](crate::decision::decide_analyzed) comparisons
/// without touching the source `Document` again.
#[derive(Debug, Clone, Default)]
pub struct PageAnalysis {
    tree: DetectTree,
    content: CompiledContentSet,
}

impl PageAnalysis {
    /// Compiles a parsed document. `compare_from_body` selects the same
    /// comparison root `decide` uses: the `<body>` subtree (falling back to
    /// `<html>`, then the document) or the whole document.
    pub fn from_document(doc: &Document, compare_from_body: bool) -> Self {
        let view = if compare_from_body {
            DomTreeView::from_body(doc)
        } else {
            DomTreeView::from_document(doc)
        };
        let root = view.root().unwrap_or(NodeId::DOCUMENT);
        let mut compiler = Compiler::with_capacity(doc.len());
        walk(doc, root, None, &mut compiler);
        compiler.finish()
    }

    /// Parses and compiles raw markup in one pass, without building a
    /// `Document`: equal to `from_document(&parse_document(html), ..)`.
    pub fn from_html(html: &str, compare_from_body: bool) -> Self {
        // Rendered pages run one node per ten to fifteen bytes: reserving
        // for one per ten spares the arrays their regrowth.
        let sink = PageSink::new(Compiler::with_capacity(html.len() / 10), compare_from_body);
        cp_html::build_tree(html, sink).compiler.finish()
    }

    /// The compiled tree (RSTM input).
    pub fn tree(&self) -> &DetectTree {
        &self.tree
    }

    /// The compiled content set (CVCE input).
    pub fn content(&self) -> &CompiledContentSet {
        &self.content
    }
}

/// The per-element rule both sources share: whether the element counts
/// for RSTM (visible, Figure 2 line 5) and whether its subtree can hold
/// CVCE content (visible, not a noise container, not an ad — the
/// Figure-4 element filter).
fn judge<A: AttrView>(name: &str, attrs: &[A]) -> (bool, bool) {
    let visible = cp_html::element_visible(name, attrs);
    (visible, visible && !noise_container(name) && !ad_attrs(attrs))
}

/// The content context a node hands to its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Context {
    /// The node or an ancestor failed the element filter: no content.
    Off,
    /// The empty path (the document node, or no parent at all).
    Root,
    /// The hash of the element-name path from the root to the node.
    Path(u64),
}

/// Builds a [`PageAnalysis`] from nodes named by their parent: the tree
/// arena sees every node, the content sink sees the text the Figure-4
/// filter keeps, and each element is judged once for both.
struct Compiler {
    tree: DetectTreeBuilder,
    content: HashSink,
    /// The `#text` symbol, interned once: text is the commonest node.
    text: u32,
    /// Per node id, the context its children inherit.
    contexts: Vec<Context>,
    /// Set when `<html>` or `<body>` failed the element filter after
    /// content was already let through (see [`Compiler::merge`]).
    content_off: bool,
}

impl Compiler {
    fn with_capacity(nodes: usize) -> Self {
        let mut tree = DetectTreeBuilder::with_capacity(nodes);
        let text = tree.intern("#text");
        Compiler {
            tree,
            content: HashSink::new(),
            text,
            contexts: Vec::with_capacity(nodes),
            content_off: false,
        }
    }

    fn push(&mut self, parent: Option<u32>, sym: u32, countable: bool, context: Context) -> u32 {
        self.contexts.push(context);
        self.tree.append_sym(parent, sym, countable)
    }

    fn context_of(&self, parent: Option<u32>) -> Context {
        parent.map_or(Context::Root, |p| self.contexts[p as usize])
    }

    fn document(&mut self) -> u32 {
        let sym = self.tree.intern("#document");
        self.push(None, sym, false, Context::Root)
    }

    fn element<A: AttrView>(&mut self, parent: Option<u32>, name: &str, attrs: &[A]) -> u32 {
        let (visible, content) = judge(name, attrs);
        let context = match self.context_of(parent) {
            _ if !content => Context::Off,
            Context::Off => Context::Off,
            Context::Root => Context::Path(context_hash(None, name)),
            Context::Path(h) => Context::Path(context_hash(Some(h), name)),
        };
        let sym = self.tree.intern(name);
        self.push(parent, sym, visible, context)
    }

    /// A text node; `text` is read only when the node can be content.
    fn text<'t>(&mut self, parent: Option<u32>, text: impl FnOnce() -> Cow<'t, str>) {
        let context = match self.context_of(parent) {
            Context::Off => None,
            Context::Root => Some(ROOT_CONTEXT),
            Context::Path(h) => Some(h),
        };
        self.push(parent, self.text, false, Context::Off);
        if let Some(context) = context.filter(|_| !self.content_off) {
            if let Some(kept) = content_text(&text()) {
                self.content.text_in(context, &kept);
            }
        }
    }

    /// A comment or doctype: a leaf that never counts.
    fn leaf(&mut self, parent: Option<u32>, label: &str) {
        let sym = self.tree.intern(label);
        self.push(parent, sym, false, Context::Off);
    }

    /// Judges attributes that arrive after element `id` was added. A merge
    /// only adds names the element lacked, and each name the rule reads
    /// decides on its own, so the merged element passes exactly when it
    /// passed before and the new attributes pass too: countable and
    /// content can only turn off.
    ///
    /// The tree builder merges into `<html>`, `<head>` and `<body>` only.
    /// `<head>` is never content, and once `<html>` (or `<body>`) exists
    /// every later node lands inside it. So when either turns content off,
    /// nothing on the page can be content any more: what was let through
    /// is dropped and nothing more is taken.
    fn merge<A: AttrView>(&mut self, id: u32, name: &str, attrs: &[A]) {
        let (visible, content) = judge(name, attrs);
        if !visible {
            self.tree.set_countable(id, false);
        }
        if !content && self.contexts[id as usize] != Context::Off {
            self.contexts[id as usize] = Context::Off;
            self.content.clear();
            self.content_off = true;
        }
    }

    fn finish(self) -> PageAnalysis {
        PageAnalysis { tree: self.tree.finish(), content: self.content.finish() }
    }
}

/// [`PageAnalysis::from_document`]'s source: a preorder walk of the
/// subtree at `node`, with every attribute already in place.
fn walk(doc: &Document, node: NodeId, parent: Option<u32>, compiler: &mut Compiler) {
    let id = match doc.data(node) {
        NodeData::Text(text) => return compiler.text(parent, || Cow::Borrowed(text)),
        NodeData::Comment(_) | NodeData::Doctype { .. } => {
            return compiler.leaf(parent, doc.node_name(node))
        }
        NodeData::Element { name, attrs } => compiler.element(parent, name, attrs),
        NodeData::Document => compiler.document(),
    };
    for &child in doc.children(node) {
        walk(doc, child, Some(id), compiler);
    }
}

/// [`PageAnalysis::from_html`]'s source: the tree builder's sink. Nodes
/// outside the comparison root are not compiled, and neither is anything
/// appended to them; when comparing from the body, `<body>` — the builder
/// creates exactly one — becomes the root.
struct PageSink {
    compiler: Compiler,
    document: Handle,
    /// Outside nodes handed out so far.
    outside: u32,
    from_body: bool,
}

/// A node of the page as the tree builder sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handle {
    /// A compiled node, by its tree id.
    Compiled(u32),
    /// A node outside the comparison root, numbered so that the builder
    /// can still tell such nodes apart.
    Outside(u32),
}

impl Handle {
    fn compiled(self) -> Option<u32> {
        match self {
            Handle::Compiled(id) => Some(id),
            Handle::Outside(_) => None,
        }
    }
}

impl PageSink {
    fn new(mut compiler: Compiler, from_body: bool) -> Self {
        let document =
            if from_body { Handle::Outside(0) } else { Handle::Compiled(compiler.document()) };
        PageSink { compiler, document, outside: 0, from_body }
    }

    fn outside(&mut self) -> Handle {
        self.outside += 1;
        Handle::Outside(self.outside)
    }
}

impl<'a> TreeSink<'a> for PageSink {
    type Handle = Handle;

    fn document(&self) -> Handle {
        self.document
    }

    fn append_doctype(&mut self, parent: Handle, name: Cow<'a, str>) {
        if let Handle::Compiled(id) = parent {
            self.compiler.leaf(Some(id), &name);
        }
    }

    fn append_comment(&mut self, parent: Handle, _text: &'a str) {
        if let Handle::Compiled(id) = parent {
            self.compiler.leaf(Some(id), "#comment");
        }
    }

    fn append_text(&mut self, parent: Handle, text: TextSpan<'a>) {
        if let Handle::Compiled(id) = parent {
            self.compiler.text(Some(id), || text.decode());
        }
    }

    fn append_element(&mut self, parent: Handle, name: &str, attrs: &[Attribute<'a>]) -> Handle {
        match parent {
            Handle::Outside(_) if !(self.from_body && name == "body") => self.outside(),
            _ => Handle::Compiled(self.compiler.element(parent.compiled(), name, attrs)),
        }
    }

    fn merge_attrs(&mut self, element: Handle, name: &str, attrs: &[Attribute<'a>]) {
        if let Handle::Compiled(id) = element {
            self.compiler.merge(id, name, attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_html::parse_document;
    use cp_treediff::{countable_nodes, countable_nodes_detect};

    #[test]
    fn body_root_matches_domview_choice() {
        let doc = parse_document("<body><div><p>text here</p></div></body>");
        let a = PageAnalysis::from_document(&doc, true);
        let view = DomTreeView::from_body(&doc);
        for level in 1..6 {
            assert_eq!(countable_nodes_detect(a.tree(), level), countable_nodes(&view, level));
        }
        assert_eq!(a.content().len(), 1);
    }

    #[test]
    fn document_root_sees_the_whole_tree() {
        let doc = parse_document("<body><p>x1</p></body>");
        let from_body = PageAnalysis::from_document(&doc, true);
        let from_doc = PageAnalysis::from_document(&doc, false);
        // The document-rooted tree is strictly taller (document + html
        // wrappers above body).
        assert!(from_doc.tree().len() > from_body.tree().len());
        assert_eq!(from_doc.content().len(), from_body.content().len());
    }

    #[test]
    fn from_html_equals_from_document() {
        let html = "<body><div><p>same page</p></div></body>";
        let a = PageAnalysis::from_html(html, true);
        let b = PageAnalysis::from_document(&parse_document(html), true);
        assert_eq!(a.content(), b.content());
        assert_eq!(a.tree().len(), b.tree().len());
    }
}
