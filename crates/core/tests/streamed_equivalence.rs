//! Differential suite for the streamed page compiler: compiling raw markup
//! ([`PageAnalysis::from_html`], the tree builder feeding the compiler
//! directly) must equal compiling the parsed document
//! ([`PageAnalysis::from_document`] over `parse_document`), for both
//! comparison roots.
//!
//! Trees are compared node by node in preorder (label, countable flag,
//! child count), content sets with `==`. Inputs are seeded random
//! HTML-ish strings, rendered Table-1 and uniform-world pages (regular and
//! hidden versions), and named cases for the builder's recovery rules that
//! do not simply append: attributes merged into an `<html>` or `<body>`
//! whose subtree was already built, and head content that re-opens
//! `<head>` behind a comment already appended to `<html>`.

use cookiepicker_core::PageAnalysis;
use cp_cookies::SimTime;
use cp_html::parse_document;
use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_treediff::TreeView;
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::{table1_population, SiteSpec, Universe};

/// `(label, countable, child count)` of every node, in preorder.
fn preorder<T: TreeView>(tree: &T) -> Vec<(String, bool, usize)> {
    let mut out = Vec::new();
    let mut stack: Vec<T::Node> = tree.root().into_iter().collect();
    while let Some(n) = stack.pop() {
        let children = tree.children(n);
        out.push((tree.label(n).to_string(), tree.countable(n), children.len()));
        stack.extend(children.into_iter().rev());
    }
    out
}

/// Asserts both compilations of `html` agree for both roots.
fn assert_streamed_equals_parsed(html: &str) {
    let doc = parse_document(html);
    for from_body in [true, false] {
        let streamed = PageAnalysis::from_html(html, from_body);
        let parsed = PageAnalysis::from_document(&doc, from_body);
        assert_eq!(
            preorder(streamed.tree()),
            preorder(parsed.tree()),
            "trees differ (from_body {from_body}) for {html:?}"
        );
        assert_eq!(
            streamed.content(),
            parsed.content(),
            "content differs (from_body {from_body}) for {html:?}"
        );
    }
}

/// Pieces of random "HTML-ish" input: real tags, entities, stray markup.
const PIECES: &[&str] = &[
    "<div>",
    "</div>",
    "<p>",
    "</p>",
    "<span>",
    "</span>",
    "<br>",
    "<li>",
    "<ul>",
    "</ul>",
    "<table>",
    "<tr>",
    "<td>",
    "</table>",
    "<script>",
    "</script>",
    "<!-- c -->",
    "<a href=x>",
    "</a>",
    "<img src=y>",
    "<input type=hidden>",
    "<b>",
    "</b>",
    "<title>",
    "</title>",
    "&amp;",
    "&#65;",
    "&bogus;",
    "<",
    ">",
    "<!doctype html>",
    "<body>",
    "<head>",
    "</head>",
    "<option>",
    "<select>",
];

/// A random string of up to 40 pieces, each a [`PIECES`] entry or up to 12
/// characters of plain text — the `arb_htmlish` shape of the HTML
/// property tests.
fn htmlish(rng: &mut StdRng) -> String {
    const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,!?";
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..40usize) {
        if rng.gen_range(0..2u32) == 0 {
            out.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        } else {
            for _ in 0..rng.gen_range(0..=12usize) {
                out.push(TEXT[rng.gen_range(0..TEXT.len())] as char);
            }
        }
    }
    out
}

#[test]
fn random_htmlish_strings() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4854_4D4C);
    for _ in 0..3_000 {
        assert_streamed_equals_parsed(&htmlish(&mut rng));
    }
}

/// The regular render of `spec`'s first `paths` pages (every cookie sent)
/// and a hidden one (a random subset withheld), each with its own noise.
fn renders(spec: &SiteSpec, paths: usize, rng: &mut StdRng) -> Vec<String> {
    let all: Vec<(String, String)> =
        spec.cookies.iter().map(|c| (c.name.clone(), format!("v{:x}", spec.seed))).collect();
    let mut out = Vec::new();
    for path in spec.page_paths().iter().take(paths) {
        let kept: Vec<(String, String)> =
            all.iter().filter(|_| rng.gen_range(0..3u32) > 0).cloned().collect();
        for cookies in [&all, &kept] {
            let input = RenderInput { spec, path, cookies, now: SimTime::EPOCH };
            out.push(render_page(&input, &mut StdRng::seed_from_u64(rng.gen::<u64>())));
        }
    }
    out
}

#[test]
fn table1_and_uniform_renders() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut pages = 0;
    for spec in table1_population(19) {
        for html in renders(&spec, 3, &mut rng) {
            assert_streamed_equals_parsed(&html);
            pages += 1;
        }
    }
    let universe = Universe::uniform(19, 1_000_000);
    for i in 0..60u64 {
        let host = universe.host_at(i * 16_661).expect("index in range");
        let spec = universe.derive(&host).expect("enumerable host");
        for html in renders(&spec, 2, &mut rng) {
            assert_streamed_equals_parsed(&html);
            pages += 1;
        }
    }
    assert_eq!(pages, 30 * 3 * 2 + 60 * 2 * 2);
}

/// Recovery rules, entity and raw-text corners, each checked both ways.
const NAMED: &[&str] = &[
    // Attributes merged after the subtree was built.
    "<body><p>x</p><body hidden>",
    "<p>x</p><html style=\"display:none\">",
    "<p>x</p><body class=\"ad\"><p>y</p>",
    "<html><body style=\"color:red\"><p>x</p></body><body style=\"display:none\">",
    // Head content after </head> re-opens <head> behind the comment.
    "<html><head></head><!--c--><meta charset=u><p>y",
    // Character references that decode to whitespace before <body>.
    "&nbsp;<body><p>x</p>",
    "&#32;<body><p>x</p>",
    "<title>t</title>&#32;&nbsp;<div>y</div>",
    // One text node each.
    "<p>1 < 2</p>",
    "<p>a<![CDATA[b]]>c</p>",
    "a<![CDATA[]]>b<![CDATA[&amp;]]>",
    // An entity in an attribute value the visibility rule reads.
    "<div style=\"display&#58;none\"><p>hidden text</p></div><p>shown</p>",
    // Upper-case tags and attributes.
    "<DIV CLASS=\"Ad\"><P>sponsored text</P></DIV><P STYLE=\"DISPLAY: NONE\">x</P><Span>y</SPAN>",
    // Duplicate attributes: the first wins.
    "<div class=ad class=main>x</div><div style=\"color:red\" style=\"display:none\">y</div>",
    // Raw text: a partial end tag inside, and unterminated content.
    "<script>a</scr b</script><p>after</p>",
    "<p>x</p><script>var unterminated = 1;",
    "<p>x</p><title>unterminated &amp; title",
    "",
];

#[test]
fn named_cases() {
    for html in NAMED {
        assert_streamed_equals_parsed(html);
    }
}

fn labels(analysis: &PageAnalysis) -> Vec<String> {
    preorder(analysis.tree()).into_iter().map(|(label, _, _)| label).collect()
}

#[test]
fn late_attributes_turn_visibility_and_content_off() {
    // A later <body hidden> hides the whole body: not countable, no content.
    let hidden = PageAnalysis::from_html("<body><p>x</p><body hidden>", true);
    assert!(!hidden.tree().countable(0));
    assert!(hidden.content().is_empty());
    // A later ad class keeps body countable but drops its content.
    let ad = PageAnalysis::from_html("<p>x</p><body class=\"ad\"><p>y</p>", true);
    assert!(ad.tree().countable(0));
    assert!(ad.content().is_empty());
    // A hidden <html> drops content only when comparing from the document.
    let html = "<p>x</p><html style=\"display:none\">";
    assert!(PageAnalysis::from_html(html, false).content().is_empty());
    assert_eq!(PageAnalysis::from_html(html, true).content().len(), 1);
}

#[test]
fn reopened_head_takes_late_head_content() {
    let analysis =
        PageAnalysis::from_html("<html><head></head><!--c--><meta charset=u><p>y", false);
    assert_eq!(
        labels(&analysis),
        ["#document", "html", "head", "meta", "#comment", "body", "p", "#text"]
    );
}
