//! A forgiving tree builder in the spirit of browser HTML parsers.
//!
//! Real-world HTML is often malformed; the paper's step 3 (§3.2) requires
//! that both the regular and the hidden page version be built by the *same*
//! parser so malformed input is treated identically. This builder implements
//! the recovery rules that matter for 2007-era page structure:
//!
//! * implied `<html>`, `<head>` and `<body>`;
//! * void elements never open a scope (`<br>`, `<img>`, `<meta>`, …);
//! * automatic closing of `<p>`, `<li>`, `<dt>/<dd>`, `<tr>`, `<td>/<th>`,
//!   `<option>`, table sections and nested `<a>`;
//! * stray end tags are ignored; mis-nested end tags close up to the nearest
//!   matching open element;
//! * unterminated elements are closed at end of input.
//!
//! The rules are written once, in [`build_tree`], and the nodes they create
//! go to a [`TreeSink`]. [`parse_document`] is that builder with a
//! [`Document`] as the sink; `cookiepicker-core` runs the same builder with
//! a sink that compiles the page for detection directly, with no
//! `Document` in between.

use std::borrow::Cow;

use crate::dom::{Document, NodeData, NodeId};
use crate::tokenizer::{Attribute, TextSpan, Token, Tokenizer};

/// Elements that never have content (HTML void elements).
fn is_void(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Elements whose start tag belongs in `<head>` when seen before `<body>`.
fn is_head_content(name: &str) -> bool {
    matches!(name, "title" | "meta" | "link" | "base" | "style" | "noscript")
}

/// Block-level elements that implicitly close an open `<p>`.
fn closes_p(name: &str) -> bool {
    matches!(
        name,
        "address"
            | "article"
            | "aside"
            | "blockquote"
            | "div"
            | "dl"
            | "fieldset"
            | "footer"
            | "form"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "header"
            | "hr"
            | "main"
            | "nav"
            | "ol"
            | "p"
            | "pre"
            | "section"
            | "table"
            | "ul"
    )
}

/// Where the tree builder puts the nodes it creates.
///
/// The builder only ever appends: every node is created as the last child
/// of a node created before it, so a sink may lay nodes out in creation
/// order. That order is preorder with one exception: head content seen
/// after `</head>` (and before `<body>`) re-opens `<head>`, so it lands
/// there behind nodes already appended to `<html>`.
///
/// The other exception to "a node is complete when created" is
/// [`merge_attrs`](TreeSink::merge_attrs): a later `<html>`, `<head>` or
/// `<body>` tag adds attributes to an element whose subtree may already
/// have been built. Once `<html>` exists every later node lands inside it,
/// and once `<body>` exists every later node lands inside `<body>`.
pub trait TreeSink<'a> {
    /// A created node, as the sink names it. Distinct nodes need distinct
    /// handles: the builder compares them to find elements on its stack.
    type Handle: Copy + PartialEq;

    /// The document node, parent of the doctype and of `<html>`.
    fn document(&self) -> Self::Handle;

    /// Appends a doctype to `parent` (always the document).
    fn append_doctype(&mut self, parent: Self::Handle, name: Cow<'a, str>);

    /// Appends a comment to `parent`.
    fn append_comment(&mut self, parent: Self::Handle, text: &'a str);

    /// Appends a text node to `parent`.
    fn append_text(&mut self, parent: Self::Handle, text: TextSpan<'a>);

    /// Appends an element to `parent` and returns its handle. Attribute
    /// names are lower-case and unique.
    fn append_element(
        &mut self,
        parent: Self::Handle,
        name: &str,
        attrs: &[Attribute<'a>],
    ) -> Self::Handle;

    /// Adds attributes to `element` (`<html>`, `<head>` or `<body>`, named
    /// `name`). Only names the element does not carry yet are passed, so
    /// merging never changes a value.
    fn merge_attrs(&mut self, element: Self::Handle, name: &str, attrs: &[Attribute<'a>]);
}

/// Parses an HTML document into a [`Document`] DOM tree. Never fails.
///
/// ```
/// use cp_html::parse_document;
///
/// // Implied structure and recovery from unclosed tags:
/// let doc = parse_document("<title>t</title><p>one<p>two");
/// assert!(doc.head().is_some());
/// let body = doc.body().unwrap();
/// assert_eq!(doc.element_children(body).len(), 2);
/// ```
pub fn parse_document(input: &str) -> Document {
    build_tree(input, Document::new())
}

/// Runs the tree builder over `input`, sending every node to `sink`, and
/// returns the sink. Never fails: any input yields the `<html>`, `<head>`
/// and `<body>` skeleton at least.
pub fn build_tree<'a, S: TreeSink<'a>>(input: &'a str, sink: S) -> S {
    let mut builder = TreeBuilder::new(sink);
    for token in Tokenizer::new(input) {
        builder.process(token);
    }
    builder.finish()
}

/// The `<html>`, `<head>` and `<body>` elements: the only ones that take
/// attributes after creation.
#[derive(Clone, Copy)]
enum Skeleton {
    Html,
    Head,
    Body,
}

impl Skeleton {
    fn name(self) -> &'static str {
        match self {
            Skeleton::Html => "html",
            Skeleton::Head => "head",
            Skeleton::Body => "body",
        }
    }
}

struct TreeBuilder<'a, S: TreeSink<'a>> {
    sink: S,
    /// Open element stack with tag names; `stack[0]` is the document node,
    /// named "" (no tag name matches it).
    stack: Vec<(S::Handle, Cow<'a, str>)>,
    html: Option<S::Handle>,
    head: Option<S::Handle>,
    body: Option<S::Handle>,
    head_closed: bool,
    /// Attribute names already on `<html>`, `<head>` and `<body>`, in
    /// [`Skeleton`] order.
    skeleton_attrs: [Vec<Cow<'a, str>>; 3],
}

impl<'a, S: TreeSink<'a>> TreeBuilder<'a, S> {
    fn new(sink: S) -> Self {
        let document = sink.document();
        TreeBuilder {
            sink,
            stack: vec![(document, Cow::Borrowed(""))],
            html: None,
            head: None,
            body: None,
            head_closed: false,
            skeleton_attrs: Default::default(),
        }
    }

    fn current(&self) -> S::Handle {
        self.stack.last().expect("stack never empty").0
    }

    fn current_name(&self) -> &str {
        &self.stack.last().expect("stack never empty").1
    }

    fn is_open(&self, node: S::Handle) -> bool {
        self.stack.iter().any(|&(n, _)| n == node)
    }

    fn ensure_html(&mut self) -> S::Handle {
        if let Some(h) = self.html {
            return h;
        }
        let document = self.sink.document();
        let h = self.sink.append_element(document, "html", &[]);
        self.stack.push((h, Cow::Borrowed("html")));
        self.html = Some(h);
        h
    }

    fn ensure_head(&mut self) -> S::Handle {
        if let Some(h) = self.head {
            return h;
        }
        let html = self.ensure_html();
        let h = self.sink.append_element(html, "head", &[]);
        self.head = Some(h);
        h
    }

    fn ensure_body(&mut self) -> S::Handle {
        if let Some(b) = self.body {
            return b;
        }
        // Close the head if it is on the stack.
        if let Some(head) = self.head {
            while self.is_open(head) && self.current() != head {
                self.stack.pop();
            }
            if self.current() == head {
                self.stack.pop();
            }
        } else {
            self.ensure_head();
        }
        self.head_closed = true;
        let html = self.ensure_html();
        // Reset stack to [document, html] before opening body.
        self.stack.truncate(1);
        self.stack.push((html, Cow::Borrowed("html")));
        let b = self.sink.append_element(html, "body", &[]);
        self.stack.push((b, Cow::Borrowed("body")));
        self.body = Some(b);
        b
    }

    fn in_body(&self) -> bool {
        self.body.is_some()
    }

    /// Merges `attrs` into a skeleton element: names it already carries
    /// keep their values, as in browsers.
    fn merge(&mut self, which: Skeleton, element: S::Handle, mut attrs: Vec<Attribute<'a>>) {
        let present = &mut self.skeleton_attrs[which as usize];
        attrs.retain(|a| !present.contains(&a.name));
        if !attrs.is_empty() {
            present.extend(attrs.iter().map(|a| a.name.clone()));
            self.sink.merge_attrs(element, which.name(), &attrs);
        }
    }

    fn process(&mut self, token: Token<'a>) {
        match token {
            Token::Doctype(name) => {
                if self.html.is_none() {
                    let document = self.sink.document();
                    self.sink.append_doctype(document, name);
                }
            }
            Token::Comment(text) => {
                let parent = self.current();
                self.sink.append_comment(parent, text);
            }
            Token::Text(text) => self.process_text(text),
            Token::StartTag { name, attrs, self_closing } => {
                self.process_start(name, attrs, self_closing)
            }
            Token::EndTag(name) => self.process_end(&name),
        }
    }

    /// Whether the open element keeps text seen before `<body>`: a head
    /// raw-text element (title/style) or a script.
    fn keeps_head_text(&self) -> bool {
        let current = self.current_name();
        is_head_content(current) || current == "script"
    }

    fn process_text(&mut self, text: TextSpan<'a>) {
        if !self.in_body() {
            // Whitespace before <body> is dropped unless a head element
            // keeps it; real text forces the body.
            if self.keeps_head_text() {
                let cur = self.current();
                self.sink.append_text(cur, text);
                return;
            }
            if text.decode().trim().is_empty() {
                return;
            }
            self.ensure_body();
        }
        let cur = self.current();
        self.sink.append_text(cur, text);
    }

    fn process_start(&mut self, name: Cow<'a, str>, attrs: Vec<Attribute<'a>>, self_closing: bool) {
        match &*name {
            "html" => {
                let h = self.ensure_html();
                return self.merge(Skeleton::Html, h, attrs);
            }
            "head" => {
                let h = self.ensure_head();
                if !self.head_closed && !self.is_open(h) {
                    self.stack.push((h, Cow::Borrowed("head")));
                }
                return self.merge(Skeleton::Head, h, attrs);
            }
            "body" => {
                let b = self.ensure_body();
                return self.merge(Skeleton::Body, b, attrs);
            }
            _ => {}
        }

        // Decide placement: head-content elements go to the head until the
        // body opens; everything else forces the body (scripts may live in
        // either — they stay wherever we currently are).
        if !self.in_body() {
            if is_head_content(&name) || name == "script" {
                let head = self.ensure_head();
                if !self.is_open(head) {
                    self.stack.push((head, Cow::Borrowed("head")));
                }
            } else {
                self.ensure_body();
            }
        }

        // Automatic closing rules.
        match &*name {
            "p" if self.has_open("p") => self.close_nearest("p"),
            n if closes_p(n) && self.has_open("p") => self.close_nearest("p"),
            "li" if self.has_open_until("li", &["ul", "ol", "menu"]) => self.close_nearest("li"),
            "dt" | "dd" => {
                if self.has_open_until("dt", &["dl"]) {
                    self.close_nearest("dt");
                }
                if self.has_open_until("dd", &["dl"]) {
                    self.close_nearest("dd");
                }
            }
            "tr" if self.has_open_until("tr", &["table"]) => self.close_nearest("tr"),
            "td" | "th" => {
                if self.has_open_until("td", &["tr", "table"]) {
                    self.close_nearest("td");
                }
                if self.has_open_until("th", &["tr", "table"]) {
                    self.close_nearest("th");
                }
            }
            "option" if self.has_open("option") => self.close_nearest("option"),
            "thead" | "tbody" | "tfoot" => {
                for s in ["thead", "tbody", "tfoot"] {
                    if self.has_open_until(s, &["table"]) {
                        self.close_nearest(s);
                    }
                }
            }
            "a" if self.has_open("a") => self.close_nearest("a"),
            _ => {}
        }

        let parent = self.current();
        let el = self.sink.append_element(parent, &name, &attrs);
        if !is_void(&name) && !self_closing {
            self.stack.push((el, name));
        }
    }

    fn process_end(&mut self, name: &str) {
        match name {
            "html" | "body" => {
                // Keep them open until EOF; browsers effectively do the same.
                return;
            }
            "head" => {
                if let Some(head) = self.head {
                    if self.is_open(head) {
                        while self.current() != head {
                            self.stack.pop();
                        }
                        self.stack.pop();
                        self.head_closed = true;
                    }
                }
                return;
            }
            "p" if !self.has_open("p") => {
                // A stray </p> creates an empty paragraph in browsers.
                if self.in_body() {
                    let parent = self.current();
                    self.sink.append_element(parent, "p", &[]);
                }
                return;
            }
            _ => {}
        }
        if self.has_open(name) {
            self.close_nearest(name);
        }
        // Otherwise: stray end tag, ignored.
    }

    fn has_open(&self, name: &str) -> bool {
        self.stack.iter().any(|(_, n)| n == name)
    }

    /// Whether `name` is open *above* (closer to the top than) any of the
    /// `barriers` — used for scoped auto-closing (e.g. `li` within `ul`).
    fn has_open_until(&self, name: &str, barriers: &[&str]) -> bool {
        for (_, n) in self.stack.iter().rev() {
            if n == name {
                return true;
            }
            if barriers.contains(&&**n) {
                return false;
            }
        }
        false
    }

    fn close_nearest(&mut self, name: &str) {
        while self.stack.len() > 1 {
            let (_, top) = self.stack.pop().expect("stack holds more than the document");
            if top == name {
                break;
            }
        }
    }

    fn finish(mut self) -> S {
        // Guarantee the skeleton exists even for empty input.
        self.ensure_body();
        self.sink
    }
}

/// The DOM as a sink: every node becomes an arena node.
impl<'a> TreeSink<'a> for Document {
    type Handle = NodeId;

    fn document(&self) -> NodeId {
        NodeId::DOCUMENT
    }

    fn append_doctype(&mut self, parent: NodeId, name: Cow<'a, str>) {
        let d = self.create_doctype(name.into_owned());
        self.append_child(parent, d);
    }

    fn append_comment(&mut self, parent: NodeId, text: &'a str) {
        let c = self.create_comment(text);
        self.append_child(parent, c);
    }

    fn append_text(&mut self, parent: NodeId, text: TextSpan<'a>) {
        let t = self.create_text(text.decode().into_owned());
        self.append_child(parent, t);
    }

    fn append_element(&mut self, parent: NodeId, name: &str, attrs: &[Attribute<'a>]) -> NodeId {
        let attrs = attrs.iter().map(|a| (a.name.to_string(), a.value.decode().into_owned()));
        let el = self.push(NodeData::Element { name: name.to_string(), attrs: attrs.collect() });
        self.append_child(parent, el);
        el
    }

    fn merge_attrs(&mut self, element: NodeId, _name: &str, attrs: &[Attribute<'a>]) {
        for a in attrs {
            self.set_attr(element, &a.name, a.value.decode().into_owned());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::NodeId;

    #[test]
    fn empty_input_has_skeleton() {
        let doc = parse_document("");
        assert!(doc.html().is_some());
        assert!(doc.head().is_some());
        assert!(doc.body().is_some());
    }

    #[test]
    fn full_document() {
        let doc = parse_document(
            "<!DOCTYPE html><html lang=en><head><title>T</title></head><body><p>x</p></body></html>",
        );
        assert_eq!(doc.attr(doc.html().unwrap(), "lang"), Some("en"));
        let title = doc.find_element(NodeId::DOCUMENT, "title").unwrap();
        assert_eq!(doc.text_content(title), "T");
        assert_eq!(doc.parent(title), doc.head());
        let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
        assert_eq!(doc.parent(p), doc.body());
    }

    #[test]
    fn implied_structure() {
        let doc = parse_document("just text");
        let body = doc.body().unwrap();
        assert_eq!(doc.text_content(body), "just text");
    }

    #[test]
    fn head_elements_to_head_body_elements_to_body() {
        let doc = parse_document("<meta charset=utf-8><div>x</div>");
        let meta = doc.find_element(NodeId::DOCUMENT, "meta").unwrap();
        assert_eq!(doc.parent(meta), doc.head());
        let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
        assert_eq!(doc.parent(div), doc.body());
    }

    #[test]
    fn unclosed_paragraphs_are_siblings() {
        let doc = parse_document("<p>one<p>two<p>three");
        let body = doc.body().unwrap();
        let ps = doc.element_children(body);
        assert_eq!(ps.len(), 3);
        assert_eq!(doc.text_content(ps[0]), "one");
        assert_eq!(doc.text_content(ps[2]), "three");
    }

    #[test]
    fn p_closed_by_block_elements() {
        let doc = parse_document("<p>para<div>block</div>");
        let body = doc.body().unwrap();
        let kids = doc.element_children(body);
        assert_eq!(kids.len(), 2);
        assert_eq!(doc.tag_name(kids[0]), Some("p"));
        assert_eq!(doc.tag_name(kids[1]), Some("div"));
        assert_eq!(doc.parent(kids[1]), Some(body));
    }

    #[test]
    fn list_items_autoclose() {
        let doc = parse_document("<ul><li>a<li>b<li>c</ul>");
        let ul = doc.find_element(NodeId::DOCUMENT, "ul").unwrap();
        assert_eq!(doc.element_children(ul).len(), 3);
    }

    #[test]
    fn nested_list_items_stay_nested() {
        let doc = parse_document("<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>");
        let uls = doc.find_all(NodeId::DOCUMENT, "ul");
        assert_eq!(uls.len(), 2);
        assert_eq!(doc.element_children(uls[0]).len(), 2); // li a (contains inner ul), li b
        assert_eq!(doc.element_children(uls[1]).len(), 2); // a1, a2
    }

    #[test]
    fn table_rows_and_cells_autoclose() {
        let doc = parse_document("<table><tr><td>1<td>2<tr><td>3</table>");
        let trs = doc.find_all(NodeId::DOCUMENT, "tr");
        assert_eq!(trs.len(), 2);
        assert_eq!(doc.element_children(trs[0]).len(), 2);
        assert_eq!(doc.element_children(trs[1]).len(), 1);
    }

    #[test]
    fn void_elements_do_not_nest() {
        let doc = parse_document("<br><br><img src=x><hr>");
        let body = doc.body().unwrap();
        assert_eq!(doc.element_children(body).len(), 4);
        let img = doc.find_element(NodeId::DOCUMENT, "img").unwrap();
        assert!(doc.children(img).is_empty());
    }

    #[test]
    fn misnested_end_tag_recovers() {
        // </b> with b not open: ignored. </i> closes through b.
        let doc = parse_document("<i><b>x</i>y");
        let body = doc.body().unwrap();
        let i = doc.element_children(body)[0];
        assert_eq!(doc.tag_name(i), Some("i"));
        // y lands in body because </i> closed both.
        assert_eq!(doc.text_content(body), "xy");
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = parse_document("</div></span>text");
        assert_eq!(doc.text_content(doc.body().unwrap()), "text");
    }

    #[test]
    fn script_in_head_and_body() {
        let doc = parse_document("<script>var a=1;</script><div><script>b</script></div>");
        let scripts = doc.find_all(NodeId::DOCUMENT, "script");
        assert_eq!(scripts.len(), 2);
        assert_eq!(doc.parent(scripts[0]), doc.head());
        let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
        assert_eq!(doc.parent(scripts[1]), Some(div));
    }

    #[test]
    fn comments_preserved() {
        let doc = parse_document("<body><!-- note --><p>x</p></body>");
        let body = doc.body().unwrap();
        let kids = doc.children(body);
        assert!(matches!(doc.data(kids[0]), crate::dom::NodeData::Comment(c) if c == " note "));
    }

    #[test]
    fn nested_anchors_autoclose() {
        let doc = parse_document("<a href=1>one<a href=2>two</a>");
        let anchors = doc.find_all(NodeId::DOCUMENT, "a");
        assert_eq!(anchors.len(), 2);
        assert_eq!(doc.parent(anchors[1]), doc.body());
    }

    #[test]
    fn select_options_autoclose() {
        let doc = parse_document("<select><option>a<option>b</select>");
        let sel = doc.find_element(NodeId::DOCUMENT, "select").unwrap();
        assert_eq!(doc.element_children(sel).len(), 2);
    }

    #[test]
    fn attributes_survive_parsing() {
        let doc = parse_document(r#"<div id="main" class="x y" data-v=3>c</div>"#);
        let div = doc.element_by_id("main").unwrap();
        assert_eq!(doc.attr(div, "class"), Some("x y"));
        assert_eq!(doc.attr(div, "data-v"), Some("3"));
    }

    #[test]
    fn deterministic_for_same_input() {
        // Cornerstone of the paper's step 3: same parser ⇒ same tree.
        let html = "<div><p>a<p>b<table><tr><td>x</table><script>s</script>";
        let d1 = parse_document(html);
        let d2 = parse_document(html);
        let n1: Vec<String> = d1.preorder_all().map(|n| d1.node_name(n).to_string()).collect();
        let n2: Vec<String> = d2.preorder_all().map(|n| d2.node_name(n).to_string()).collect();
        assert_eq!(n1, n2);
    }

    #[test]
    fn text_before_head_content_forces_body() {
        let doc = parse_document("hello<title>late</title>");
        assert_eq!(doc.text_content(doc.body().unwrap()), "hellolate");
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "<table><div></table>",
            "</p></p></p>",
            "<head><div>x</div></head>",
            "<body><head><title>t</title></head></body>",
            "<p><table><p>inner</table>after",
            "<<<<",
            "<html><html><body><body>",
            // Multi-byte characters inside markup; the first once failed.
            "<!\u{31ef}",
            "<\u{31ef}",
            "</\u{31ef}",
            "&\u{31ef};",
            "<a \u{31ef}=\u{31ef}>",
            "<!--\u{31ef}",
        ] {
            let doc = parse_document(garbage);
            assert!(doc.body().is_some(), "body must exist for {garbage:?}");
        }
    }

    #[test]
    fn stray_close_p_makes_empty_paragraph() {
        let doc = parse_document("<body></p>x");
        let body = doc.body().unwrap();
        assert_eq!(doc.element_children(body).len(), 1);
    }
}
