//! Seeded property tests for CVCE and the decision algorithm: each
//! property holds for every random `<body>` fragment (or pair of them)
//! drawn from a fixed seed.

use cookiepicker_core::{
    content_extract, decide, n_text_sim, n_text_sim_strict, ContentSet, CookiePickerConfig,
    DomTreeView,
};
use cp_html::{parse_document, NodeId};
use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_treediff::{n_tree_sim, TreeView};

const CASES: usize = 128;

/// Markup pieces: blocks, lists, tables, a script, a comment and an ad
/// container.
const PIECES: &[&str] = &[
    "<div>",
    "</div>",
    "<p>",
    "</p>",
    "<ul><li>",
    "</li></ul>",
    "<span>",
    "</span>",
    "<table><tr><td>",
    "</td></tr></table>",
    "<script>junk()</script>",
    "<!-- c -->",
    "<h2>",
    "</h2>",
    "<div class=ad>",
    "<b>",
    "</b>",
];

/// A `<body>` of up to 30 pieces, each a [`PIECES`] entry or 1–12
/// characters of lower-case words.
fn body(rng: &mut StdRng) -> String {
    let mut out = String::from("<body>");
    for _ in 0..rng.gen_range(0..30usize) {
        if rng.gen_bool(0.5) {
            out.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        } else {
            let text = b"abcdefghijklmnopqrstuvwxyz ";
            out.extend((0..rng.gen_range(1..=12usize)).map(|_| text[rng.gen_range(0..27)] as char));
        }
    }
    out + "</body>"
}

fn extract(html: &str) -> ContentSet {
    content_extract(&parse_document(html), NodeId::DOCUMENT)
}

/// Runs `check` on `CASES` random pairs of bodies.
fn for_pairs(seed: u64, check: impl Fn(&str, &str)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..CASES {
        check(&body(&mut rng), &body(&mut rng));
    }
}

#[test]
fn n_text_sim_is_a_symmetric_unit_score_one_on_itself_and_never_below_strict() {
    for_pairs(1, |a, b| {
        let (sa, sb) = (extract(a), extract(b));
        assert_eq!(n_text_sim(&sa, &sa), 1.0);
        assert_eq!(n_text_sim_strict(&sa, &sa), 1.0);
        let (ab, ba) = (n_text_sim(&sa, &sb), n_text_sim(&sb, &sa));
        assert!((0.0..=1.0).contains(&ab) && (ab - ba).abs() < 1e-12);
        // The `s` term forgives replacements; it never penalizes.
        assert!(ab >= n_text_sim_strict(&sa, &sb) - 1e-12);
    });
}

#[test]
fn decision_follows_both_thresholds_and_never_flags_a_page_against_itself() {
    let config = CookiePickerConfig::default();
    for_pairs(2, |a, b| {
        let (da, db) = (parse_document(a), parse_document(b));
        let d = decide(&da, &db, &config);
        assert!((0.0..=1.0).contains(&d.tree_sim) && (0.0..=1.0).contains(&d.text_sim));
        assert_eq!(
            d.cookies_caused_difference,
            d.tree_sim <= config.thresh1 && d.text_sim <= config.thresh2
        );
        let same = decide(&da, &da, &config);
        assert!(!same.cookies_caused_difference);
        assert_eq!((same.tree_sim, same.text_sim), (1.0, 1.0));
    });
}

#[test]
fn n_tree_sim_over_dom_views_is_a_unit_score_at_every_level() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let (da, db) = (parse_document(&body(&mut rng)), parse_document(&body(&mut rng)));
        let level = rng.gen_range(1..8usize);
        let s = n_tree_sim(&DomTreeView::from_body(&da), &DomTreeView::from_body(&db), level);
        assert!((0.0..=1.0).contains(&s));
    }
}

#[test]
fn dom_view_counts_only_visible_elements() {
    for_pairs(4, |a, _| {
        let doc = parse_document(a);
        let view = DomTreeView::from_body(&doc);
        let mut stack: Vec<_> = view.root().into_iter().collect();
        while let Some(n) = stack.pop() {
            if view.countable(n) {
                assert!(doc.is_element(n) && cp_html::is_node_visible(&doc, n));
            }
            stack.extend(view.children(n));
        }
    });
}

#[test]
fn content_extract_drops_scripts() {
    for_pairs(5, |a, _| {
        for s in extract(a).strings() {
            assert!(!s.contains("script") && !s.contains("junk()"), "script text leaked: {s}");
        }
    });
}
