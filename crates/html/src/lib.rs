//! A browser-grade-enough HTML parsing stack for the CookiePicker
//! reproduction.
//!
//! CookiePicker (DSN 2007) compares two versions of a Web page by comparing
//! their **DOM trees**, and the paper stresses that both versions must be
//! built "using the same HTML parser of the Web browser" so that malformed
//! pages are treated identically (§3.2, step 3). This crate is that parser:
//!
//! * [`tokenizer`] — an HTML5-flavoured streaming tokenizer that never fails:
//!   any byte sequence produces a token stream (tags, text, comments,
//!   doctype), with raw-text handling for `<script>`/`<style>`/`<title>`/
//!   `<textarea>`. Tokens borrow from the input; names are lower-cased and
//!   entities decoded only where needed.
//! * [`parser`] — a forgiving tree builder: implied `<html>/<head>/<body>`,
//!   void elements, automatic closing of `<p>`, `<li>`, table sections and
//!   friends, recovery from mis-nested end tags. It writes to any
//!   [`TreeSink`]: [`parse_document`] builds a [`Document`], and the
//!   detector's page compiler consumes the same node stream without one.
//! * [`dom`] — an arena [`Document`] of
//!   rooted-labeled-ordered nodes with traversal, query and text-extraction
//!   helpers.
//! * [`visibility`] — the paper's *visual effect* classification: which nodes
//!   can influence what a user perceives (comments, scripts, `<head>`
//!   content, `display:none` subtrees do not).
//! * [`entities`] — named/numeric character reference decoding and escaping.
//!
//! # Example
//!
//! ```
//! use cp_html::parse_document;
//!
//! let doc = parse_document("<p>Hello <b>world</b><p>unclosed paragraphs are fine");
//! let body = doc.body().expect("implied body");
//! assert_eq!(doc.element_children(body).len(), 2); // two <p> elements
//! assert_eq!(doc.text_content(body), "Hello worldunclosed paragraphs are fine");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dom;
pub mod entities;
pub mod parser;
pub mod text;
pub mod tokenizer;
pub mod visibility;

pub use dom::{Document, NodeData, NodeId};
pub use parser::{build_tree, parse_document, TreeSink};
pub use text::inner_text;
pub use tokenizer::{tokenize, AttrView, Attribute, TextSpan, Token, Tokenizer};
pub use visibility::{element_visible, is_invisible_element_name, is_node_visible};
