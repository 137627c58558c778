//! A forgiving, HTML5-flavoured streaming tokenizer that borrows from its
//! input.
//!
//! [`Tokenizer`] turns arbitrary input into a stream of [`Token`]s and
//! **never fails**: malformed markup degrades into text or bogus comments,
//! mirroring the error-recovery behaviour real browser parsers exhibit. This
//! matters for CookiePicker because both page versions must be tokenized
//! identically, malformed or not (paper §3.2, step 3).
//!
//! Tokens are slices of the input. Tag and attribute names are lower-cased
//! (copied) only when the source spells them with upper case, and character
//! references in text and attribute values are decoded only when a consumer
//! reads them ([`TextSpan::decode`]): a consumer that wants the tree shape
//! alone decodes nothing and allocates only the attribute lists.
//!
//! Raw-text elements (`script`, `style`, `textarea`, `title`, `xmp`,
//! `noframes`) are handled as in browsers: after their start tag,
//! everything up to the matching case-insensitive end tag is a single text
//! token. Entities are decoded for `textarea` and `title`, per spec; script
//! and style bytes stay raw.

use std::borrow::Cow;
use std::fmt;

use crate::entities::decode_entities;

/// How a [`TextSpan`]'s source becomes characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decoding {
    /// Character data between tags: entities decoded, `<![CDATA[…]]>`
    /// sections kept verbatim without their delimiters.
    Data,
    /// Attribute values and `title`/`textarea` content: entities decoded.
    Escapable,
    /// Script and style content: the bytes as they are.
    Verbatim,
}

/// A run of characters borrowed from the input and decoded on demand.
///
/// Two spans are equal when they decode to the same string; a `&str`
/// converts into a span that stands for exactly that string.
#[derive(Clone, Copy)]
pub struct TextSpan<'a> {
    raw: &'a str,
    decoding: Decoding,
}

impl<'a> TextSpan<'a> {
    /// The characters the span stands for, borrowed from the input unless
    /// a character reference or a CDATA section had to be rewritten.
    pub fn decode(&self) -> Cow<'a, str> {
        match self.decoding {
            Decoding::Data => decode_data(self.raw),
            Decoding::Escapable => decode_entities(self.raw),
            Decoding::Verbatim => Cow::Borrowed(self.raw),
        }
    }
}

/// Decodes a data-state run: entities are decoded between CDATA sections,
/// whose content is kept verbatim. The tokenizer lets `<!` into a run only
/// as the opener of a CDATA section, and a lone `<` can never be part of a
/// character reference, so decoding the stretch between two sections in one
/// call equals decoding each of its `<`-separated pieces on its own.
fn decode_data(raw: &str) -> Cow<'_, str> {
    if !raw.contains("<!") {
        return decode_entities(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(open) = rest.find("<!") {
        out.push_str(&decode_entities(&rest[..open]));
        let section = &rest[open + CDATA_OPEN.len()..];
        match section.find("]]>") {
            Some(close) => {
                out.push_str(&section[..close]);
                rest = &section[close + 3..];
            }
            None => {
                out.push_str(section);
                rest = "";
            }
        }
    }
    out.push_str(&decode_entities(rest));
    Cow::Owned(out)
}

impl PartialEq for TextSpan<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.decode() == other.decode()
    }
}

impl Eq for TextSpan<'_> {}

impl PartialEq<str> for TextSpan<'_> {
    fn eq(&self, other: &str) -> bool {
        self.decode() == other
    }
}

impl PartialEq<&str> for TextSpan<'_> {
    fn eq(&self, other: &&str) -> bool {
        self.decode() == *other
    }
}

impl fmt::Debug for TextSpan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.decode(), f)
    }
}

impl<'a> From<&'a str> for TextSpan<'a> {
    fn from(text: &'a str) -> Self {
        TextSpan { raw: text, decoding: Decoding::Verbatim }
    }
}

/// An attribute parsed from a start tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Lower-cased attribute name.
    pub name: Cow<'a, str>,
    /// Attribute value, entities decoded on read; empty for valueless
    /// attributes.
    pub value: TextSpan<'a>,
}

/// Read access to one attribute, whether it is an owned `(name, value)`
/// pair of a [`Document`](crate::Document) element or an [`Attribute`]
/// straight from the tokenizer. Rules that judge an element by its
/// attributes ([`element_visible`](crate::element_visible)) are written
/// once over this trait and read only the values they need.
pub trait AttrView {
    /// The lower-cased name.
    fn name(&self) -> &str;
    /// The decoded value.
    fn value(&self) -> Cow<'_, str>;
}

impl AttrView for Attribute<'_> {
    fn name(&self) -> &str {
        &self.name
    }

    fn value(&self) -> Cow<'_, str> {
        self.value.decode()
    }
}

impl AttrView for (String, String) {
    fn name(&self) -> &str {
        &self.0
    }

    fn value(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.1)
    }
}

/// A lexical token produced by [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// `<!DOCTYPE name …>`.
    Doctype(
        /// The doctype name (lower-cased).
        Cow<'a, str>,
    ),
    /// `<name attr="…" …>` or `<name … />`.
    StartTag {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
        /// Attributes in source order; the first of a repeated name wins.
        attrs: Vec<Attribute<'a>>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</name>`.
    EndTag(
        /// Lower-cased tag name.
        Cow<'a, str>,
    ),
    /// Character data between tags. Adjacent runs, lone `<` and CDATA
    /// sections form one token.
    Text(
        /// The text, decoded on read.
        TextSpan<'a>,
    ),
    /// `<!-- … -->` (body without delimiters), or bogus markup.
    Comment(
        /// The comment body.
        &'a str,
    ),
}

/// Tokenizes an HTML document into a vector. Never fails; any input
/// produces tokens. [`Tokenizer`] yields the same tokens one at a time.
///
/// ```
/// use cp_html::{tokenize, Token};
/// let toks = tokenize("<p class=a>hi</p>");
/// assert_eq!(toks.len(), 3);
/// assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "p"));
/// assert!(matches!(&toks[1], Token::Text(t) if t == "hi"));
/// assert!(matches!(&toks[2], Token::EndTag(n) if n == "p"));
/// ```
pub fn tokenize(input: &str) -> Vec<Token<'_>> {
    Tokenizer::new(input).collect()
}

const CDATA_OPEN: &str = "<![CDATA[";

/// The raw-text element `name` opens, if any (no tags are recognized
/// inside one until its own end tag).
fn raw_text_element(name: &str) -> Option<&'static str> {
    ["script", "style", "textarea", "title", "xmp", "noframes"].into_iter().find(|&e| e == name)
}

/// `s` lower-cased, copied only when it holds upper case.
fn lower(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// The streaming tokenizer: an iterator of [`Token`]s borrowing from one
/// input.
///
/// ```
/// use cp_html::{Token, Tokenizer};
/// let mut tokens = Tokenizer::new("<B>1 &lt; 2</b>");
/// assert!(matches!(tokens.next(), Some(Token::StartTag { name, .. }) if name == "b"));
/// let Some(Token::Text(text)) = tokens.next() else { panic!("text") };
/// assert_eq!(text.decode(), "1 < 2");
/// ```
#[derive(Debug, Clone)]
pub struct Tokenizer<'a> {
    input: &'a str,
    pos: usize,
    /// Set by the start tag of a raw-text element: the element whose end
    /// tag closes the raw text that comes next.
    raw: Option<&'static str>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Tokenizer { input, pos: 0, raw: None }
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with_ci(&self, s: &str) -> bool {
        let end = self.pos + s.len();
        end <= self.input.len() && self.bytes()[self.pos..end].eq_ignore_ascii_case(s.as_bytes())
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Advances while `keep` holds for the current byte; returns the slice
    /// passed over.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        &self.input[start..self.pos]
    }

    /// Character data up to the next markup (or the end of input). Lone
    /// `<` and CDATA sections are folded into the run; a run that stands
    /// for no characters at all (only empty CDATA sections) yields nothing.
    fn data(&mut self) -> Option<Token<'a>> {
        let start = self.pos;
        let mut has_chars = false;
        loop {
            let Some(run) = self.input[self.pos..].find('<') else {
                has_chars |= self.pos < self.input.len();
                self.pos = self.input.len();
                break;
            };
            has_chars |= run > 0;
            self.pos += run;
            match self.bytes().get(self.pos + 1) {
                Some(b'/' | b'?') => break,
                Some(c) if c.is_ascii_alphabetic() => break,
                Some(b'!') => {
                    if !self.starts_with_ci(CDATA_OPEN) {
                        break;
                    }
                    let content = self.pos + CDATA_OPEN.len();
                    match self.input[content..].find("]]>") {
                        Some(len) => {
                            has_chars |= len > 0;
                            self.pos = content + len + 3;
                        }
                        None => {
                            has_chars |= content < self.input.len();
                            self.pos = self.input.len();
                            break;
                        }
                    }
                }
                // A lone '<' is literal text.
                _ => {
                    has_chars = true;
                    self.pos += 1;
                }
            }
        }
        has_chars.then(|| {
            Token::Text(TextSpan { raw: &self.input[start..self.pos], decoding: Decoding::Data })
        })
    }

    fn start_tag(&mut self) -> Token<'a> {
        self.pos += 1; // consume '<'
        let name = self.tag_name();
        let mut attrs: Vec<Attribute<'a>> = Vec::new();
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            match self.peek() {
                None => break,
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                    // stray '/': ignore, continue attribute scanning
                }
                Some(_) => {
                    if let Some(attr) = self.attribute() {
                        // First occurrence wins, as in browsers.
                        if !attrs.iter().any(|a| a.name == attr.name) {
                            attrs.push(attr);
                        }
                    }
                }
            }
        }
        if !self_closing {
            self.raw = raw_text_element(&name);
        }
        Token::StartTag { name, attrs, self_closing }
    }

    /// The content of raw-text `element`: everything up to its
    /// case-insensitive end tag, which is left for the data state.
    fn raw_text(&mut self, element: &'static str) -> Option<Token<'a>> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut end = bytes.len();
        let mut at = start;
        while let Some(offset) = self.input[at..].find('<') {
            at += offset;
            let name_end = at + 2 + element.len();
            if name_end <= bytes.len()
                && bytes[at + 1] == b'/'
                && bytes[at + 2..name_end].eq_ignore_ascii_case(element.as_bytes())
            {
                end = at;
                break;
            }
            at += 1;
        }
        self.pos = end;
        let decoding = match element {
            "textarea" | "title" => Decoding::Escapable,
            _ => Decoding::Verbatim,
        };
        (end > start).then(|| Token::Text(TextSpan { raw: &self.input[start..end], decoding }))
    }

    fn end_tag(&mut self) -> Token<'a> {
        self.pos += 2; // consume '</'
        if !self.peek().is_some_and(|c| c.is_ascii_alphabetic()) {
            // '</>' or '</ ': bogus comment per spec; we skip to '>'.
            return self.bogus_comment(self.pos);
        }
        let name = self.tag_name();
        // Skip anything up to '>'.
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == b'>' {
                break;
            }
        }
        Token::EndTag(name)
    }

    /// At `<!` that does not open a CDATA section (the data state folds
    /// those into text).
    fn markup_declaration(&mut self) -> Token<'a> {
        if self.starts_with_ci("<!--") {
            self.pos += 4;
            let start = self.pos;
            let end = self.input[start..].find("-->").map_or(self.input.len(), |p| start + p);
            self.pos = (end + 3).min(self.input.len());
            Token::Comment(&self.input[start..end])
        } else if self.starts_with_ci("<!doctype") {
            self.pos += "<!doctype".len();
            self.skip_whitespace();
            let name = self.take_while(|c| !c.is_ascii_whitespace() && c != b'>');
            while let Some(c) = self.peek() {
                self.pos += 1;
                if c == b'>' {
                    break;
                }
            }
            Token::Doctype(lower(name))
        } else {
            self.bogus_comment(self.pos + 2)
        }
    }

    /// Everything from `content_start` up to the next '>' (consumed) is a
    /// comment.
    fn bogus_comment(&mut self, content_start: usize) -> Token<'a> {
        let end =
            self.input[content_start..].find('>').map_or(self.input.len(), |p| content_start + p);
        self.pos = (end + 1).min(self.input.len());
        Token::Comment(&self.input[content_start..end])
    }

    fn tag_name(&mut self) -> Cow<'a, str> {
        lower(self.take_while(|c| !c.is_ascii_whitespace() && !matches!(c, b'>' | b'/')))
    }

    fn attribute(&mut self) -> Option<Attribute<'a>> {
        let name =
            self.take_while(|c| !c.is_ascii_whitespace() && !matches!(c, b'=' | b'>' | b'/'));
        if name.is_empty() {
            // Unexpected byte (e.g. '=' with no name): skip it to progress.
            self.pos += 1;
            return None;
        }
        let name = lower(name);
        self.skip_whitespace();
        if self.peek() != Some(b'=') {
            return Some(Attribute {
                name,
                value: TextSpan { raw: "", decoding: Decoding::Escapable },
            });
        }
        self.pos += 1; // consume '='
        self.skip_whitespace();
        let raw = match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let raw = self.take_while(|c| c != q);
                if self.pos < self.input.len() {
                    self.pos += 1; // closing quote
                }
                raw
            }
            _ => self.take_while(|c| !c.is_ascii_whitespace() && c != b'>'),
        };
        Some(Attribute { name, value: TextSpan { raw, decoding: Decoding::Escapable } })
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        if let Some(element) = self.raw.take() {
            if let Some(text) = self.raw_text(element) {
                return Some(text);
            }
        }
        if let Some(text) = self.data() {
            return Some(text);
        }
        // At the end, or at a '<' that opens markup.
        let next = *self.bytes().get(self.pos + 1)?;
        Some(match next {
            b'/' => self.end_tag(),
            b'!' => self.markup_declaration(),
            b'?' => self.bogus_comment(self.pos + 1),
            _ => self.start_tag(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(name: &str) -> Token<'_> {
        Token::StartTag { name: name.into(), attrs: vec![], self_closing: false }
    }

    #[test]
    fn simple_tags_and_text() {
        assert_eq!(
            tokenize("<p>hi</p>"),
            vec![start("p"), Token::Text("hi".into()), Token::EndTag("p".into())]
        );
    }

    #[test]
    fn tag_names_lowercased() {
        assert_eq!(tokenize("<DIV></DiV>"), vec![start("div"), Token::EndTag("div".into())]);
    }

    #[test]
    fn attributes_quoted_unquoted_valueless() {
        let toks = tokenize(r#"<input type="text" value='a b' checked data-n=5>"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!("expected start tag") };
        assert_eq!(attrs.len(), 4);
        assert_eq!(attrs[0], Attribute { name: "type".into(), value: "text".into() });
        assert_eq!(attrs[1], Attribute { name: "value".into(), value: "a b".into() });
        assert_eq!(attrs[2], Attribute { name: "checked".into(), value: "".into() });
        assert_eq!(attrs[3], Attribute { name: "data-n".into(), value: "5".into() });
    }

    #[test]
    fn duplicate_attributes_first_wins() {
        let toks = tokenize(r#"<a href="one" href="two">"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!() };
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].value, "one");
    }

    #[test]
    fn self_closing() {
        let toks = tokenize("<br/><img src=x />");
        assert!(matches!(&toks[0], Token::StartTag { self_closing: true, .. }));
        assert!(matches!(&toks[1], Token::StartTag { self_closing: true, .. }));
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let toks = tokenize(r#"<a title="A &amp; B">x &lt; y</a>"#);
        let Token::StartTag { attrs, .. } = &toks[0] else { panic!() };
        assert_eq!(attrs[0].value, "A & B");
        assert_eq!(toks[1], Token::Text("x < y".into()));
    }

    #[test]
    fn comments() {
        let toks = tokenize("a<!-- hidden -->b");
        assert_eq!(
            toks,
            vec![Token::Text("a".into()), Token::Comment(" hidden "), Token::Text("b".into())]
        );
    }

    #[test]
    fn unterminated_comment_consumes_rest() {
        let toks = tokenize("x<!-- never closed");
        assert_eq!(toks[1], Token::Comment(" never closed"));
    }

    #[test]
    fn doctype() {
        let toks = tokenize("<!DOCTYPE html><html>");
        assert_eq!(toks[0], Token::Doctype("html".into()));
    }

    #[test]
    fn script_raw_text() {
        let toks = tokenize("<script>if (a < b) { x = '<div>'; }</script>after");
        assert_eq!(toks[1], Token::Text("if (a < b) { x = '<div>'; }".into()));
        assert_eq!(toks[2], Token::EndTag("script".into()));
        assert_eq!(toks[3], Token::Text("after".into()));
    }

    #[test]
    fn script_end_tag_case_insensitive() {
        let toks = tokenize("<script>x</SCRIPT>");
        assert_eq!(toks[1], Token::Text("x".into()));
        assert_eq!(toks[2], Token::EndTag("script".into()));
    }

    #[test]
    fn unterminated_script() {
        let toks = tokenize("<script>var x = 1;");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Text("var x = 1;".into()));
    }

    #[test]
    fn title_decodes_entities() {
        let toks = tokenize("<title>A &amp; B</title>");
        assert_eq!(toks[1], Token::Text("A & B".into()));
    }

    #[test]
    fn lone_angle_bracket_is_text() {
        let toks = tokenize("1 < 2");
        assert_eq!(toks, vec![Token::Text("1 < 2".into())]);
    }

    #[test]
    fn bogus_markup_becomes_comment() {
        let toks = tokenize("<?php echo ?>x<!weird>y");
        assert!(matches!(&toks[0], Token::Comment(_)));
        assert_eq!(toks[1], Token::Text("x".into()));
        assert!(matches!(&toks[2], Token::Comment(_)));
        assert_eq!(toks[3], Token::Text("y".into()));
    }

    #[test]
    fn cdata_is_text() {
        let toks = tokenize("<![CDATA[raw <stuff>]]>");
        assert_eq!(toks, vec![Token::Text("raw <stuff>".into())]);
    }

    #[test]
    fn stray_end_tag_slash() {
        let toks = tokenize("</>text");
        assert!(matches!(&toks[0], Token::Comment(_)));
        assert_eq!(toks[1], Token::Text("text".into()));
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let toks = tokenize("<div class=");
        assert!(matches!(&toks[0], Token::StartTag { name, .. } if name == "div"));
    }

    #[test]
    fn never_panics_on_garbage() {
        for garbage in [
            "<",
            "</",
            "<!",
            "<!-",
            "<a b=\"",
            "<a b='",
            "\u{0}<>\u{ffff}",
            "<<<>>>",
            "&#;",
            "&#x;",
            "<a/ b>",
            "< a>",
            "<a =>",
            "<!doctype",
            "<![CDATA[",
        ] {
            let _ = tokenize(garbage);
        }
    }

    #[test]
    fn adjacent_text_coalesced() {
        let toks = tokenize("a&amp;b");
        assert_eq!(toks, vec![Token::Text("a&b".into())]);
    }
}
