//! Parser corpus tests: structure assertions over a gallery of real-world
//! HTML patterns (and pathologies) of the 2007-era Web.

use cp_html::{inner_text, parse_document, NodeId};

fn tags(html: &str) -> Vec<String> {
    let doc = parse_document(html);
    doc.preorder_all().filter_map(|n| doc.tag_name(n).map(str::to_string)).collect()
}

#[test]
fn classic_table_layout_page() {
    // The table-based layouts of the era.
    let doc = parse_document(
        r##"<html><body bgcolor="#ffffff">
        <table width="100%" border=0 cellpadding=0>
          <tr><td colspan=2><img src="/banner.gif"></td></tr>
          <tr>
            <td width="20%"><table><tr><td><a href="/a">Nav A</a></td></tr>
                <tr><td><a href="/b">Nav B</a></td></tr></table></td>
            <td><h1>Welcome</h1><p>Body text</p></td>
          </tr>
        </table></body></html>"##,
    );
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "table").len(), 2);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "tr").len(), 4);
    // Both links sit in the navigation table nested inside the layout table.
    let tables = doc.find_all(NodeId::DOCUMENT, "table");
    assert_eq!(doc.find_all(tables[0], "table"), tables);
    assert_eq!(doc.find_all(tables[1], "a").len(), 2);
    let body = doc.body().unwrap();
    assert!(inner_text(&doc, body).contains("Welcome"));
}

#[test]
fn font_tags_and_presentational_markup() {
    let doc = parse_document(
        r##"<center><font face="Arial" size=2 color=red><b>SALE!</b></font></center>
           <marquee>scrolling text</marquee><blink>nineties</blink>"##,
    );
    for tag in ["center", "font", "marquee", "blink"] {
        assert!(doc.find_element(NodeId::DOCUMENT, tag).is_some(), "missing {tag}");
    }
    let font = doc.find_element(NodeId::DOCUMENT, "font").unwrap();
    assert_eq!(doc.attr(font, "color"), Some("red"));
}

#[test]
fn deeply_nested_divs() {
    let html = format!("{}x{}", "<div>".repeat(100), "</div>".repeat(100));
    let doc = parse_document(&html);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "div").len(), 100);
    assert!(doc.max_depth() >= 100);
}

#[test]
fn frameset_era_page() {
    let doc = parse_document(
        r##"<frameset cols="20%,80%"><frame src="nav.html"><frame src="main.html">
           <noframes><body><p>No frames fallback</p></body></noframes></frameset>"##,
    );
    // We don't implement frameset layout, but nothing is lost or panics.
    assert!(doc.find_element(NodeId::DOCUMENT, "frameset").is_some());
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "frame").len(), 2);
}

#[test]
fn conditional_comments_and_doctype_variants() {
    let doc = parse_document(
        r##"<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01 Transitional//EN">
           <!--[if IE 6]><p>IE6 only</p><![endif]-->
           <body><p>real</p></body>"##,
    );
    // Conditional comments stay comments: their payload must not render.
    let body = doc.body().unwrap();
    assert_eq!(inner_text(&doc, body), "real");
}

#[test]
fn entity_soup() {
    let doc = parse_document(
        "<p>&copy; 2007 &mdash; S&eacute;bastien &amp; C&#244;me &lt;admins&gt; &curren;&euro;</p>",
    );
    let p = doc.find_element(NodeId::DOCUMENT, "p").unwrap();
    let text = doc.text_content(p);
    assert!(text.contains('\u{a9}'));
    assert!(text.contains('\u{2014}'));
    assert!(text.contains("Sébastien"));
    assert!(text.contains("Côme"));
    assert!(text.contains("<admins>"));
    assert!(text.contains('\u{20ac}'));
}

#[test]
fn inline_javascript_document_write() {
    let doc = parse_document(
        r##"<body><script type="text/javascript">
            document.write("<div id='generated'>" + "stuff" + "</div>");
            if (a < b && c > d) { alert("x"); }
        </script><p>static</p></body>"##,
    );
    // Script content is a single text node; the markup inside it is NOT
    // parsed into elements.
    assert!(doc.element_by_id("generated").is_none());
    let script = doc.find_element(NodeId::DOCUMENT, "script").unwrap();
    assert!(doc.text_content(script).contains("document.write"));
    assert_eq!(inner_text(&doc, doc.body().unwrap()), "static");
}

#[test]
fn forms_with_all_control_types() {
    let doc = parse_document(
        r##"<form action="/submit" method=post>
            <input type=text name=a><input type=password name=b>
            <input type=checkbox checked><input type=radio>
            <input type=hidden name=csrf value=tok>
            <select name=c><option selected>one<option>two</select>
            <textarea name=d>initial <not a tag></textarea>
            <input type=submit value=Go>
        </form>"##,
    );
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "input").len(), 6);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "option").len(), 2);
    let ta = doc.find_element(NodeId::DOCUMENT, "textarea").unwrap();
    assert_eq!(doc.text_content(ta), "initial <not a tag>");
    let inputs = doc.find_all(NodeId::DOCUMENT, "input");
    assert_eq!(inputs.iter().filter(|&&n| doc.attr(n, "type") == Some("hidden")).count(), 1);
}

#[test]
fn definition_lists_and_nested_lists() {
    let doc = parse_document(
        "<dl><dt>term1<dd>def1<dt>term2<dd>def2a<dd>def2b</dl><ol><li>1<ul><li>1a</ul><li>2</ol>",
    );
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "dt").len(), 2);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "dd").len(), 3);
    let ol = doc.find_element(NodeId::DOCUMENT, "ol").unwrap();
    assert_eq!(doc.element_children(ol).len(), 2);
}

#[test]
fn real_world_head_section() {
    let doc = parse_document(
        r##"<head>
            <meta http-equiv="Content-Type" content="text/html; charset=iso-8859-1">
            <meta name="keywords" content="news, sports">
            <title>My 2007 Site</title>
            <link rel="stylesheet" type="text/css" href="/style.css">
            <style type="text/css">body { margin: 0; }</style>
            <script language="JavaScript" src="/lib.js"></script>
        </head><body>content</body>"##,
    );
    let head = doc.head().unwrap();
    let in_head = |tag: &str| {
        doc.find_all(NodeId::DOCUMENT, tag).iter().all(|&n| {
            let mut cur = doc.parent(n);
            while let Some(p) = cur {
                if p == head {
                    return true;
                }
                cur = doc.parent(p);
            }
            false
        })
    };
    for tag in ["meta", "title", "link", "style", "script"] {
        assert!(in_head(tag), "{tag} should be in head");
    }
    assert_eq!(inner_text(&doc, NodeId::DOCUMENT), "content");
}

#[test]
fn unclosed_everything_still_structured() {
    let doc =
        parse_document("<html><body><div class=a><p>one<div class=b><p>two<table><tr><td>cell");
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "div").len(), 2);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "p").len(), 2);
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "td").len(), 1);
}

#[test]
fn attribute_edge_cases() {
    let doc = parse_document(
        r##"<div data-json='{"a": 1}' style="color: red; background: url(x.png)"
             onclick="do(this)" checked DISABLED empty="">x</div>"##,
    );
    let div = doc.find_element(NodeId::DOCUMENT, "div").unwrap();
    assert_eq!(doc.attr(div, "data-json"), Some(r##"{"a": 1}"##));
    assert!(doc.attr(div, "style").unwrap().contains("url(x.png)"));
    assert_eq!(doc.attr(div, "checked"), Some(""));
    assert_eq!(doc.attr(div, "disabled"), Some(""));
    assert_eq!(doc.attr(div, "empty"), Some(""));
}

#[test]
fn mixed_case_tag_soup_normalizes() {
    assert_eq!(tags("<DIV><SpAn>x</SPAN></div>"), ["html", "head", "body", "div", "span"]);
}

#[test]
fn comments_inside_everything() {
    let doc = parse_document(
        "<table><!-- layout --><tr><!-- row --><td>x<!-- cell --></td></tr></table>",
    );
    assert_eq!(doc.find_all(NodeId::DOCUMENT, "td").len(), 1);
    let text = inner_text(&doc, NodeId::DOCUMENT);
    assert_eq!(text, "x");
}

#[test]
fn image_maps_and_objects() {
    let doc = parse_document(
        r##"<map name=m><area shape=rect coords="0,0,10,10" href="/a"></map>
           <object classid="clsid:X"><param name=movie value=x.swf><embed src=x.swf></object>"##,
    );
    assert!(doc.find_element(NodeId::DOCUMENT, "area").is_some());
    assert!(doc.find_element(NodeId::DOCUMENT, "param").is_some());
    assert!(doc.find_element(NodeId::DOCUMENT, "embed").is_some());
    // area/param/embed are void: no children swallowed.
    let area = doc.find_element(NodeId::DOCUMENT, "area").unwrap();
    assert!(doc.children(area).is_empty());
}
