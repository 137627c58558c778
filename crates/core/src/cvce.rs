//! Context-aware Visual Content Extraction (§4.2, Figure 4) and the
//! normalized context-content similarity metric (Formula 3).
//!
//! Every *non-noise* text node is paired with its **context** — the path of
//! element names from the root to the node — producing a set of
//! context-content strings. Two such sets are compared with a modified
//! Jaccard coefficient whose `s` term forgives *replacement* of text within
//! an identical context (rotating ads, tickers, timestamps), so only text
//! that appears under a context unique to one version counts as difference.

use std::borrow::Cow;
use std::collections::HashMap;

use cp_html::{AttrView, Document, NodeData, NodeId};

/// The separator between context and content in a context-content string
/// (the `SEPARATOR` of Figure 4).
pub const SEPARATOR: &str = "||";

/// A multiset of context-content strings extracted from one DOM tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentSet {
    /// `context → texts` under that context (a multiset per context).
    by_context: HashMap<String, Vec<String>>,
    len: usize,
}

impl ContentSet {
    /// Total number of context-content strings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no content was extracted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct contexts present.
    pub fn contexts(&self) -> impl Iterator<Item = &str> {
        self.by_context.keys().map(String::as_str)
    }

    /// All context-content strings, `context||text`, unordered.
    pub fn strings(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.len);
        for (ctx, texts) in &self.by_context {
            for t in texts {
                out.push(format!("{ctx}{SEPARATOR}{t}"));
            }
        }
        out
    }

    fn insert(&mut self, context: String, text: String) {
        self.by_context.entry(context).or_default().push(text);
        self.len += 1;
    }
}

/// Element names whose text content is noise per the paper (scripts,
/// styles, dropdown options) — §4.2: "scripts, styles, obvious
/// advertisement text, date and time string, and option text in dropdown
/// list … are regarded as noises".
pub(crate) fn noise_container(name: &str) -> bool {
    matches!(name, "script" | "style" | "option" | "select" | "noscript" | "template")
}

/// Heuristic for "obvious advertisement" containers: an `ad`-ish class
/// token or id.
pub(crate) fn ad_container(doc: &Document, id: NodeId) -> bool {
    match doc.data(id) {
        NodeData::Element { attrs, .. } => ad_attrs(attrs),
        _ => false,
    }
}

/// [`ad_container`] judged from the attribute list directly — one pass
/// instead of a scan per attribute name, over a `Document`'s pairs or the
/// tokenizer's attributes alike. First `class`/`id` occurrence wins,
/// matching `Document::attr`.
pub(crate) fn ad_attrs<A: AttrView>(attrs: &[A]) -> bool {
    const AD_TOKENS: [&str; 6] = ["ad", "ads", "advert", "advertisement", "sponsor", "sponsored"];
    let has_ad_token = |a: &A| {
        a.value()
            .split([' ', '-', '_'])
            .any(|tok| AD_TOKENS.iter().any(|t| tok.eq_ignore_ascii_case(t)))
    };
    let (mut class, mut id) = (None, None);
    for a in attrs {
        match a.name() {
            "class" if class.is_none() => class = Some(a),
            "id" if id.is_none() => id = Some(a),
            _ => {}
        }
    }
    class.is_some_and(has_ad_token) || id.is_some_and(has_ad_token)
}

/// Case-insensitive prefix probe for an ASCII-lowercase needle.
fn probe(rest: &[u8], needle: &str) -> bool {
    let n = needle.as_bytes();
    rest.len() >= n.len() && rest[..n.len()].eq_ignore_ascii_case(n)
}

/// Heuristic for date/time strings: wall-clock patterns, month-year pairs,
/// or generation timestamps.
pub fn looks_like_datetime(text: &str) -> bool {
    // One pass over the raw bytes finds the digit-driven gates and anchors
    // the timestamp phrases on their rarest bytes, so ordinary prose pays
    // roughly one branch per byte:
    //
    // * an hh:mm pattern — a colon flanked by a digit and two digits
    //   (digits and ':' are unaffected by case);
    // * a year — a run of exactly four digit bytes (digit runs are
    //   delimited identically whether scanned as chars or bytes, since
    //   UTF-8 continuation bytes are never ASCII digits);
    // * "generated at" and " gmt" both anchor on a `g`, "last updated" on
    //   the `p` of "updated" (six bytes in), all uncommon in prose.
    //
    // Month names only matter alongside a year, so that scan runs after
    // the pass, and only over the rare texts that contain one.
    let bytes = text.as_bytes();
    let mut run = 0usize;
    let mut has_year = false;
    for (i, &b) in bytes.iter().enumerate() {
        if b.is_ascii_digit() {
            run += 1;
            continue;
        }
        has_year |= run == 4;
        run = 0;
        match b {
            b':' if i >= 1
                && i + 2 < bytes.len()
                && bytes[i - 1].is_ascii_digit()
                && bytes[i + 1].is_ascii_digit()
                && bytes[i + 2].is_ascii_digit() =>
            {
                return true;
            }
            b'g' | b'G'
                if probe(&bytes[i..], "generated at")
                    || (i >= 1 && bytes[i - 1] == b' ' && probe(&bytes[i..], "gmt")) =>
            {
                return true;
            }
            b'p' | b'P' if i >= 6 && probe(&bytes[i - 6..], "last updated") => {
                return true;
            }
            _ => {}
        }
    }
    has_year |= run == 4;
    has_year && contains_month_name(bytes)
}

/// Any English month name as a case-insensitive substring. Candidate
/// positions are found by first letter, so non-matching text costs one
/// byte compare per position instead of twelve window searches.
fn contains_month_name(bytes: &[u8]) -> bool {
    for i in 0..bytes.len() {
        let rest = &bytes[i..];
        // `| 0x20` lowercases ASCII letters; other bytes map to values that
        // simply miss every arm.
        let hit = match bytes[i] | 0x20 {
            b'j' => probe(rest, "january") || probe(rest, "june") || probe(rest, "july"),
            b'f' => probe(rest, "february"),
            b'm' => probe(rest, "march") || probe(rest, "may"),
            b'a' => probe(rest, "april") || probe(rest, "august"),
            b's' => probe(rest, "september"),
            b'o' => probe(rest, "october"),
            b'n' => probe(rest, "november"),
            b'd' => probe(rest, "december"),
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

fn has_alphanumeric(text: &str) -> bool {
    text.chars().any(|c| c.is_alphanumeric())
}

/// Extracts the context-content string set of the subtree rooted at `root`
/// (Figure 4's `contentExtract`, plus the noise rules of §4.2).
///
/// ```
/// use cp_html::parse_document;
/// use cookiepicker_core::content_extract;
///
/// let doc = parse_document("<body><p>keep me</p><script>drop()</script><p>. .</p></body>");
/// let set = content_extract(&doc, doc.body().unwrap());
/// assert_eq!(set.len(), 1); // script text and non-alphanumeric text dropped
/// ```
pub fn content_extract(doc: &Document, root: NodeId) -> ContentSet {
    let mut sink =
        StringSink { context: String::new(), saved_lens: Vec::new(), set: ContentSet::default() };
    walk(doc, root, &mut sink);
    sink.set
}

/// Receives the CVCE traversal events. The reference and compiled
/// extractors are two sinks behind the *same* walker ([`walk`]), so both
/// see the identical sequence of visible, non-noise element entries and
/// normalized text nodes — the only difference is whether the context is
/// materialized as a string or folded into a hash.
pub(crate) trait ContentSink {
    fn enter(&mut self, name: &str);
    fn leave(&mut self);
    fn text(&mut self, normalized: &str);
}

/// The reference sink: materializes context path strings.
struct StringSink {
    context: String,
    saved_lens: Vec<usize>,
    set: ContentSet,
}

impl ContentSink for StringSink {
    fn enter(&mut self, name: &str) {
        self.saved_lens.push(self.context.len());
        if !self.context.is_empty() {
            self.context.push(':');
        }
        self.context.push_str(name);
    }

    fn leave(&mut self) {
        let saved = self.saved_lens.pop().unwrap_or(0);
        self.context.truncate(saved);
    }

    fn text(&mut self, normalized: &str) {
        self.set.insert(self.context.clone(), normalized.to_string());
    }
}

/// The hash of the empty context path: the context of text with no
/// element between it and the extraction root.
pub(crate) const ROOT_CONTEXT: u64 = FNV_OFFSET;

/// The hash of the context path `parent:name` (just `name` under the
/// empty path) — `fnv1a64` of the path string the reference sink builds,
/// extended by one element.
pub(crate) fn context_hash(parent: Option<u64>, name: &str) -> u64 {
    let start = match parent {
        Some(h) => fnv_step(h, b':'),
        None => FNV_OFFSET,
    };
    name.bytes().fold(start, fnv_step)
}

/// The compiled sink: maintains a stack of running FNV-1a states so that
/// the hash at the top always equals `fnv1a64` of the context path string
/// the reference sink would have built. Callers that know each text's
/// context hash already add items with [`HashSink::text_in`] instead.
pub(crate) struct HashSink {
    context_hashes: Vec<u64>,
    items: Vec<(u64, u64)>,
}

impl HashSink {
    /// An empty sink with no open context, pre-sized for a typical page so
    /// the vectors don't reallocate while the walk runs.
    pub(crate) fn new() -> Self {
        HashSink { context_hashes: Vec::with_capacity(16), items: Vec::with_capacity(64) }
    }

    /// Adds a normalized text under the context with hash `context`.
    pub(crate) fn text_in(&mut self, context: u64, normalized: &str) {
        self.items.push((context, fnv1a64(normalized.as_bytes())));
    }

    /// Drops every item added so far.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }

    /// Sorts the collected pairs into their comparable form.
    pub(crate) fn finish(mut self) -> CompiledContentSet {
        self.items.sort_unstable();
        CompiledContentSet { items: self.items }
    }
}

impl ContentSink for HashSink {
    fn enter(&mut self, name: &str) {
        let h = context_hash(self.context_hashes.last().copied(), name);
        self.context_hashes.push(h);
    }

    fn leave(&mut self) {
        self.context_hashes.pop();
    }

    fn text(&mut self, normalized: &str) {
        let ctx = self.context_hashes.last().copied().unwrap_or(ROOT_CONTEXT);
        self.text_in(ctx, normalized);
    }
}

/// The Text-node filter of Figure 4: normalize, then drop empty,
/// non-alphanumeric, and datetime-looking strings. Shared by the recursive
/// [`walk`] and the page compiler in [`crate::analysis`], so every
/// extractor applies the identical filter sequence.
pub(crate) fn sink_text<S: ContentSink>(raw: &str, sink: &mut S) {
    if let Some(text) = content_text(raw) {
        sink.text(&text);
    }
}

/// [`sink_text`]'s verdict: the normalized text when the filter keeps it.
pub(crate) fn content_text(raw: &str) -> Option<Cow<'_, str>> {
    // Trimming first changes nothing (`split_whitespace` ignores the ends)
    // but short-circuits the whitespace-only nodes markup is full of, and
    // lets surrounding-whitespace-only text keep the borrowed fast path.
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match classify_trimmed(trimmed.as_bytes()) {
        TextClass::Keep => Some(Cow::Borrowed(trimmed)),
        TextClass::Drop => None,
        TextClass::Slow => {
            let text = normalize_text(trimmed);
            (has_alphanumeric(&text) && !looks_like_datetime(&text)).then_some(text)
        }
    }
}

/// Verdict of the single-pass text classification.
enum TextClass {
    /// Normalized, alphanumeric, not datetime-looking: emit as-is.
    Keep,
    /// Fails the Figure-4 / §4.2 filters: discard.
    Drop,
    /// Non-ASCII or not whitespace-normalized: re-run the multi-scan
    /// reference path on the normalized copy.
    Slow,
}

/// One fused scan over an already-trimmed text doing the entire filter
/// chain of [`sink_text`] — the whitespace-normalized check, the
/// has-alphanumeric check, and [`looks_like_datetime`] — for the common
/// case of pure-ASCII, already-normalized text. Any non-ASCII byte or
/// whitespace irregularity defers to the slow path, which normalizes first
/// (the datetime needles are whitespace-sensitive, so they must be judged
/// on the normalized string).
fn classify_trimmed(bytes: &[u8]) -> TextClass {
    let mut prev_space = false;
    let mut run = 0usize;
    let mut has_year = false;
    let mut has_alnum = false;
    for (i, &b) in bytes.iter().enumerate() {
        if !b.is_ascii() {
            return TextClass::Slow;
        }
        if b == b' ' {
            if prev_space {
                return TextClass::Slow;
            }
            prev_space = true;
            has_year |= run == 4;
            run = 0;
            continue;
        }
        // Any other whitespace char would be rewritten by normalization
        // (VT 0x0b and FF 0x0c are whitespace to `char::is_whitespace` but
        // not to `u8::is_ascii_whitespace`, so they are spelled out).
        if matches!(b, b'\t' | b'\n' | b'\r' | 0x0b | 0x0c) {
            return TextClass::Slow;
        }
        prev_space = false;
        if b.is_ascii_digit() {
            run += 1;
            has_alnum = true;
            continue;
        }
        has_year |= run == 4;
        run = 0;
        has_alnum |= b.is_ascii_alphabetic();
        match b {
            b':' if i >= 1
                && i + 2 < bytes.len()
                && bytes[i - 1].is_ascii_digit()
                && bytes[i + 1].is_ascii_digit()
                && bytes[i + 2].is_ascii_digit() =>
            {
                return TextClass::Drop;
            }
            b'g' | b'G'
                if probe(&bytes[i..], "generated at")
                    || (i >= 1 && bytes[i - 1] == b' ' && probe(&bytes[i..], "gmt")) =>
            {
                return TextClass::Drop;
            }
            b'p' | b'P' if i >= 6 && probe(&bytes[i - 6..], "last updated") => {
                return TextClass::Drop;
            }
            _ => {}
        }
    }
    has_year |= run == 4;
    if !has_alnum || (has_year && contains_month_name(bytes)) {
        return TextClass::Drop;
    }
    TextClass::Keep
}

fn walk<S: ContentSink>(doc: &Document, node: NodeId, sink: &mut S) {
    match doc.data(node) {
        NodeData::Text(text) => sink_text(text, sink),
        NodeData::Element { name, .. } => {
            if noise_container(name)
                || ad_container(doc, node)
                || !cp_html::is_node_visible(doc, node)
            {
                return;
            }
            sink.enter(name);
            for &c in doc.children(node) {
                walk(doc, c, sink);
            }
            sink.leave();
        }
        NodeData::Document => {
            for &c in doc.children(node) {
                walk(doc, c, sink);
            }
        }
        NodeData::Comment(_) | NodeData::Doctype { .. } => {}
    }
}

/// Collapses runs of whitespace to single spaces. Returns the input
/// borrowed when it is already normalized — the common case for rendered
/// markup — so the hot path usually allocates nothing.
fn normalize_text(text: &str) -> Cow<'_, str> {
    if is_whitespace_normalized(text) {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.split_whitespace().collect::<Vec<_>>().join(" "))
    }
}

/// True iff `text == text.split_whitespace().join(" ")`: every whitespace
/// char is a single ASCII space with non-whitespace on both sides.
fn is_whitespace_normalized(text: &str) -> bool {
    if text.is_empty() {
        return true;
    }
    let mut prev_was_space = true; // rejects a leading space
    for c in text.chars() {
        if c.is_whitespace() {
            if c != ' ' || prev_was_space {
                return false;
            }
            prev_was_space = true;
        } else {
            prev_was_space = false;
        }
    }
    !prev_was_space // rejects a trailing space
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(hash: u64, byte: u8) -> u64 {
    (hash ^ byte as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a 64-bit hash — the workhorse of the compiled detection path
/// (context/text hashing here, page-body cache keys in `cp-serve`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_step(h, b))
}

/// A [`ContentSet`] compiled for comparison: each context-content string is
/// reduced to a `(context_hash, text_hash)` pair and the pairs are sorted,
/// so [`n_text_sim_compiled`] is a single merge-join with no per-call
/// allocation — versus a `HashMap` build per shared context in the
/// reference [`n_text_sim`].
///
/// Equality of hashes stands in for equality of strings, so the compiled
/// similarity equals the reference bit-for-bit unless two *distinct*
/// contexts or texts on the same page pair collide in 64 bits — vanishingly
/// unlikely, and checked continuously by the seeded equivalence tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledContentSet {
    items: Vec<(u64, u64)>,
}

impl CompiledContentSet {
    /// Total number of context-content pairs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no content was extracted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Extracts the compiled content set of the subtree rooted at `root` — the
/// hash-level image of [`content_extract`] over the same traversal.
pub fn content_compile(doc: &Document, root: NodeId) -> CompiledContentSet {
    let mut sink = HashSink::new();
    walk(doc, root, &mut sink);
    sink.finish()
}

/// Merge-join over two sorted compiled sets, returning the multiset
/// intersection size and the forgiven (same-context replacement) count —
/// the same integers the reference `HashMap` walk produces.
fn compiled_overlap(s1: &[(u64, u64)], s2: &[(u64, u64)]) -> (usize, usize) {
    let (mut i, mut j) = (0usize, 0usize);
    let (mut intersection, mut forgiven) = (0usize, 0usize);
    while i < s1.len() && j < s2.len() {
        let (c1, c2) = (s1[i].0, s2[j].0);
        if c1 < c2 {
            while i < s1.len() && s1[i].0 == c1 {
                i += 1;
            }
        } else if c2 < c1 {
            while j < s2.len() && s2[j].0 == c2 {
                j += 1;
            }
        } else {
            // Shared context: both groups are sorted by text hash, so the
            // multiset intersection is an in-group merge.
            let (start1, start2) = (i, j);
            let mut end1 = i;
            while end1 < s1.len() && s1[end1].0 == c1 {
                end1 += 1;
            }
            let mut end2 = j;
            while end2 < s2.len() && s2[end2].0 == c2 {
                end2 += 1;
            }
            let mut shared = 0usize;
            while i < end1 && j < end2 {
                match s1[i].1.cmp(&s2[j].1) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        shared += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            intersection += shared;
            let u1 = (end1 - start1) - shared;
            let u2 = (end2 - start2) - shared;
            forgiven += u1.min(u2) * 2;
            i = end1;
            j = end2;
        }
    }
    (intersection, forgiven)
}

/// [`n_text_sim`] over compiled sets — identical result (modulo 64-bit hash
/// collisions), allocation-free.
pub fn n_text_sim_compiled(s1: &CompiledContentSet, s2: &CompiledContentSet) -> f64 {
    if s1.is_empty() && s2.is_empty() {
        return 1.0;
    }
    let (intersection, forgiven) = compiled_overlap(&s1.items, &s2.items);
    let union = s1.len() + s2.len() - intersection;
    if union == 0 {
        return 1.0;
    }
    (((intersection + forgiven) as f64) / union as f64).clamp(0.0, 1.0)
}

/// [`n_text_sim_strict`] over compiled sets — plain multiset Jaccard with
/// no same-context forgiveness.
pub fn n_text_sim_strict_compiled(s1: &CompiledContentSet, s2: &CompiledContentSet) -> f64 {
    if s1.is_empty() && s2.is_empty() {
        return 1.0;
    }
    let (intersection, _) = compiled_overlap(&s1.items, &s2.items);
    let union = s1.len() + s2.len() - intersection;
    if union == 0 {
        return 1.0;
    }
    (intersection as f64 / union as f64).clamp(0.0, 1.0)
}

/// `NTextSim(S1, S2)` — Formula 3: `(|S1 ∩ S2| + s) / |S1 ∪ S2|`.
///
/// The sets are multisets of context-content strings; the intersection is
/// multiset intersection. The `s` term counts the strings (on both sides)
/// that differ in content but live under a context present in **both**
/// versions — i.e. text *replacement* in the same context, which is
/// disregarded. Only text under a context unique to one version reduces the
/// similarity.
///
/// Two empty sets are fully similar (`1.0`).
///
/// ```
/// use cp_html::parse_document;
/// use cookiepicker_core::{content_extract, n_text_sim};
///
/// let a = parse_document("<body><div class=x><p>today sunny</p></div></body>");
/// let b = parse_document("<body><div class=x><p>today rainy</p></div></body>");
/// let (sa, sb) = (content_extract(&a, cp_html::NodeId::DOCUMENT), content_extract(&b, cp_html::NodeId::DOCUMENT));
/// // Pure replacement in the same context: fully forgiven.
/// assert_eq!(n_text_sim(&sa, &sb), 1.0);
/// ```
pub fn n_text_sim(s1: &ContentSet, s2: &ContentSet) -> f64 {
    if s1.is_empty() && s2.is_empty() {
        return 1.0;
    }
    let mut intersection = 0usize;
    let mut forgiven = 0usize;

    for (ctx, texts1) in &s1.by_context {
        if let Some(texts2) = s2.by_context.get(ctx) {
            // Multiset intersection of the texts under this context.
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for t in texts2 {
                *counts.entry(t.as_str()).or_default() += 1;
            }
            let mut shared = 0usize;
            for t in texts1 {
                if let Some(c) = counts.get_mut(t.as_str()) {
                    if *c > 0 {
                        *c -= 1;
                        shared += 1;
                    }
                }
            }
            intersection += shared;
            // Replacements: unmatched strings under a context both
            // versions share. Both sides' replaced strings are forgiven.
            let u1 = texts1.len() - shared;
            let u2 = texts2.len() - shared;
            forgiven += u1.min(u2) * 2;
        }
    }

    let union = s1.len() + s2.len() - intersection;
    if union == 0 {
        return 1.0;
    }
    (((intersection + forgiven) as f64) / union as f64).clamp(0.0, 1.0)
}

/// The plain Jaccard variant of [`n_text_sim`] **without** the `s` term —
/// the ablation the paper's Formula 3 discussion motivates: without the
/// same-context forgiveness, rotating ads and tickers register as real
/// content differences.
pub fn n_text_sim_strict(s1: &ContentSet, s2: &ContentSet) -> f64 {
    if s1.is_empty() && s2.is_empty() {
        return 1.0;
    }
    let mut intersection = 0usize;
    for (ctx, texts1) in &s1.by_context {
        if let Some(texts2) = s2.by_context.get(ctx) {
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for t in texts2 {
                *counts.entry(t.as_str()).or_default() += 1;
            }
            for t in texts1 {
                if let Some(c) = counts.get_mut(t.as_str()) {
                    if *c > 0 {
                        *c -= 1;
                        intersection += 1;
                    }
                }
            }
        }
    }
    let union = s1.len() + s2.len() - intersection;
    if union == 0 {
        return 1.0;
    }
    (intersection as f64 / union as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_html::parse_document;

    fn set(html: &str) -> ContentSet {
        let doc = parse_document(html);
        content_extract(&doc, NodeId::DOCUMENT)
    }

    #[test]
    fn extraction_contexts() {
        let s = set("<body><div><p>alpha</p></div><p>beta</p></body>");
        let mut strings = s.strings();
        strings.sort();
        assert_eq!(strings, vec!["html:body:div:p||alpha", "html:body:p||beta"]);
    }

    #[test]
    fn whitespace_normalized() {
        let s = set("<body><p>  a   b\n c </p></body>");
        assert_eq!(s.strings(), vec!["html:body:p||a b c"]);
    }

    #[test]
    fn scripts_styles_options_dropped() {
        let s = set(
            "<body><script>x()</script><style>.a{}</style><select><option>USA</option></select><p>keep</p></body>",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ad_containers_dropped() {
        let s = set(
            r#"<body><div class="ad-slot"><p>BUY NOW</p></div><div id="ads"><p>x</p></div><p>keep</p></body>"#,
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn datetime_dropped() {
        assert!(looks_like_datetime("12:34:56 GMT"));
        assert!(looks_like_datetime("January 5, 2007"));
        assert!(looks_like_datetime("Page generated at t plus 88 ms"));
        assert!(!looks_like_datetime("regular prose about markets"));
        let s = set("<body><p>Updated 10:30</p><p>news text</p></body>");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn non_alphanumeric_dropped() {
        let s = set("<body><p>***</p><p>— · —</p><p>ok1</p></body>");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn fused_classification_matches_reference_filters() {
        // The fused single-pass classifier must agree with the multi-scan
        // reference composition (normalize, then the Figure-4 filters) on
        // every input, including the whitespace and non-ASCII shapes that
        // force its slow path.
        let cases = [
            "plain prose about markets",
            "12:34",
            "1:23",
            "ends with 12:",
            ":345 starts",
            "May 2021",
            "may2021",
            "2021 in december",
            "2021 but no month",
            "20213 five digits",
            "meeting january 99",
            "Generated at build time",
            "regenerated atlas",
            "page Last Updated today",
            "blast updated",
            "10 Jan GMT offset",
            "elegantly",
            " gmt",
            "x\tgmt",
            "x \u{0b} gmt",
            "double  space 2021 may",
            "café opened 2021 in june",
            "***",
            "— · —",
            "100%",
            "a",
            "7",
        ];
        for raw in cases {
            let trimmed = raw.trim();
            let reference = {
                let text = normalize_text(trimmed);
                if text.is_empty() || !has_alphanumeric(&text) || looks_like_datetime(&text) {
                    None
                } else {
                    Some(text.into_owned())
                }
            };
            let mut sink = StringSink {
                context: String::new(),
                saved_lens: Vec::new(),
                set: ContentSet::default(),
            };
            sink_text(raw, &mut sink);
            let fused = sink.set.strings().pop().map(|s| s.split_once("||").unwrap().1.to_string());
            assert_eq!(fused, reference, "filter divergence on {raw:?}");
        }
    }

    #[test]
    fn hidden_subtrees_dropped() {
        let s = set(r#"<body><div style="display:none"><p>secret</p></div><p>seen</p></body>"#);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn identical_sets_sim_one() {
        let a = set("<body><p>one</p><div><p>two</p></div></body>");
        let b = set("<body><p>one</p><div><p>two</p></div></body>");
        assert_eq!(n_text_sim(&a, &b), 1.0);
    }

    #[test]
    fn replacement_same_context_forgiven() {
        let a = set("<body><div class=t><p>story about markets</p></div><p>base</p></body>");
        let b = set("<body><div class=t><p>story about gardens</p></div><p>base</p></body>");
        assert_eq!(n_text_sim(&a, &b), 1.0, "same-context replacement is noise");
    }

    #[test]
    fn unique_context_counts() {
        let a = set("<body><p>base</p><div id=x class=pane><h3>panel</h3><ul><li>i1</li><li>i2</li></ul></div></body>");
        let b = set("<body><p>base</p></body>");
        let sim = n_text_sim(&a, &b);
        assert!(sim < 0.5, "a whole new panel is a real difference: {sim}");
    }

    #[test]
    fn asymmetric_extras_partially_penalized() {
        // Context shared, but one side has MORE strings under it.
        let a = set("<body><ul><li>a</li><li>b</li><li>c</li></ul></body>");
        let b = set("<body><ul><li>a</li></ul></body>");
        let sim = n_text_sim(&a, &b);
        assert!(sim < 1.0 && sim > 0.0, "{sim}");
    }

    #[test]
    fn empty_sets() {
        let e = ContentSet::default();
        assert_eq!(n_text_sim(&e, &e), 1.0);
        let a = set("<body><p>text</p></body>");
        assert!(n_text_sim(&a, &e) < 1.0);
    }

    #[test]
    fn sim_symmetric_and_bounded() {
        let a = set("<body><p>x</p><div><p>y</p></div></body>");
        let b = set("<body><p>x</p><span>z</span></body>");
        let ab = n_text_sim(&a, &b);
        let ba = n_text_sim(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn normalize_borrows_when_already_clean() {
        assert!(matches!(normalize_text("alpha beta"), Cow::Borrowed(_)));
        assert!(matches!(normalize_text(""), Cow::Borrowed(_)));
        assert!(matches!(normalize_text("one"), Cow::Borrowed(_)));
        for dirty in [" a", "a ", "a  b", "a\tb", "a\nb", "a\u{a0}b", " "] {
            let out = normalize_text(dirty);
            assert!(matches!(out, Cow::Owned(_)), "{dirty:?}");
            assert_eq!(*out, dirty.split_whitespace().collect::<Vec<_>>().join(" "));
        }
    }

    const PAGES: [&str; 6] = [
        "<body><div><p>alpha</p></div><p>beta</p></body>",
        "<body><div><p>alpha</p></div><p>gamma</p><p>beta</p></body>",
        "<body><ul><li>a</li><li>b</li><li>b</li><li>c</li></ul></body>",
        "<body><ul><li>a</li><li>b</li></ul><div class=x><span>deep</span></div></body>",
        "<body></body>",
        "<body><div><div><div><p>nested deep text</p></div></div></div></body>",
    ];

    fn compiled(html: &str) -> CompiledContentSet {
        content_compile(&parse_document(html), NodeId::DOCUMENT)
    }

    #[test]
    fn compiled_sims_bit_identical_to_reference() {
        for pa in PAGES {
            for pb in PAGES {
                let (ra, rb) = (set(pa), set(pb));
                let (ca, cb) = (compiled(pa), compiled(pb));
                assert_eq!(ca.len(), ra.len(), "{pa}");
                let sim = n_text_sim_compiled(&ca, &cb);
                assert_eq!(sim.to_bits(), n_text_sim(&ra, &rb).to_bits(), "{pa} vs {pb}");
                let strict = n_text_sim_strict_compiled(&ca, &cb);
                assert_eq!(
                    strict.to_bits(),
                    n_text_sim_strict(&ra, &rb).to_bits(),
                    "strict {pa} vs {pb}"
                );
            }
        }
    }

    #[test]
    fn incremental_context_hash_equals_whole_string_hash() {
        // The hash stack must produce exactly fnv1a64(context string) at
        // every depth, or compiled and reference comparisons would diverge.
        let doc = parse_document("<body><div><p>alpha</p></div><p>beta</p></body>");
        let reference = content_extract(&doc, NodeId::DOCUMENT);
        let compiled = content_compile(&doc, NodeId::DOCUMENT);
        for (ctx, texts) in &reference.by_context {
            for text in texts {
                let pair = (fnv1a64(ctx.as_bytes()), fnv1a64(text.as_bytes()));
                assert!(compiled.items.contains(&pair), "missing {ctx}||{text}");
            }
        }
        assert_eq!(compiled.len(), reference.len());
    }

    #[test]
    fn compiled_handles_multiset_counts() {
        // Duplicate texts under one context: multiset semantics must hold.
        let a = compiled("<body><ul><li>x</li><li>x</li><li>x</li></ul></body>");
        let b = compiled("<body><ul><li>x</li></ul></body>");
        let ra = set("<body><ul><li>x</li><li>x</li><li>x</li></ul></body>");
        let rb = set("<body><ul><li>x</li></ul></body>");
        assert_eq!(n_text_sim_compiled(&a, &b).to_bits(), n_text_sim(&ra, &rb).to_bits());
    }
}
