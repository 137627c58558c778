//! Character-reference decoding and escaping.
//!
//! Supports the named references that actually occur in real-world markup
//! plus decimal/hexadecimal numeric references. Unknown references are left
//! verbatim, as browsers do for unterminated/unrecognized entities.

use std::borrow::Cow;

/// Named character references recognized by [`decode_entities`].
///
/// The table covers the HTML 4 core set (the 2007-era Web the paper crawled)
/// plus the most common aliases. Entries are `(name, replacement)` where the
/// name excludes `&` and `;`.
const NAMED: &[(&str, &str)] = &[
    ("amp", "&"),
    ("lt", "<"),
    ("gt", ">"),
    ("quot", "\""),
    ("apos", "'"),
    ("nbsp", "\u{a0}"),
    ("copy", "\u{a9}"),
    ("reg", "\u{ae}"),
    ("trade", "\u{2122}"),
    ("hellip", "\u{2026}"),
    ("mdash", "\u{2014}"),
    ("ndash", "\u{2013}"),
    ("lsquo", "\u{2018}"),
    ("rsquo", "\u{2019}"),
    ("ldquo", "\u{201c}"),
    ("rdquo", "\u{201d}"),
    ("bull", "\u{2022}"),
    ("middot", "\u{b7}"),
    ("sect", "\u{a7}"),
    ("para", "\u{b6}"),
    ("plusmn", "\u{b1}"),
    ("times", "\u{d7}"),
    ("divide", "\u{f7}"),
    ("frac12", "\u{bd}"),
    ("frac14", "\u{bc}"),
    ("frac34", "\u{be}"),
    ("sup1", "\u{b9}"),
    ("sup2", "\u{b2}"),
    ("sup3", "\u{b3}"),
    ("deg", "\u{b0}"),
    ("cent", "\u{a2}"),
    ("pound", "\u{a3}"),
    ("yen", "\u{a5}"),
    ("euro", "\u{20ac}"),
    ("curren", "\u{a4}"),
    ("laquo", "\u{ab}"),
    ("raquo", "\u{bb}"),
    ("iexcl", "\u{a1}"),
    ("iquest", "\u{bf}"),
    ("szlig", "\u{df}"),
    ("agrave", "\u{e0}"),
    ("aacute", "\u{e1}"),
    ("acirc", "\u{e2}"),
    ("atilde", "\u{e3}"),
    ("auml", "\u{e4}"),
    ("aring", "\u{e5}"),
    ("aelig", "\u{e6}"),
    ("ccedil", "\u{e7}"),
    ("egrave", "\u{e8}"),
    ("eacute", "\u{e9}"),
    ("ecirc", "\u{ea}"),
    ("euml", "\u{eb}"),
    ("igrave", "\u{ec}"),
    ("iacute", "\u{ed}"),
    ("icirc", "\u{ee}"),
    ("iuml", "\u{ef}"),
    ("ntilde", "\u{f1}"),
    ("ograve", "\u{f2}"),
    ("oacute", "\u{f3}"),
    ("ocirc", "\u{f4}"),
    ("otilde", "\u{f5}"),
    ("ouml", "\u{f6}"),
    ("oslash", "\u{f8}"),
    ("ugrave", "\u{f9}"),
    ("uacute", "\u{fa}"),
    ("ucirc", "\u{fb}"),
    ("uuml", "\u{fc}"),
    ("yacute", "\u{fd}"),
    ("yuml", "\u{ff}"),
    ("alpha", "\u{3b1}"),
    ("beta", "\u{3b2}"),
    ("gamma", "\u{3b3}"),
    ("delta", "\u{3b4}"),
    ("pi", "\u{3c0}"),
    ("sigma", "\u{3c3}"),
    ("omega", "\u{3c9}"),
    ("infin", "\u{221e}"),
    ("ne", "\u{2260}"),
    ("le", "\u{2264}"),
    ("ge", "\u{2265}"),
    ("larr", "\u{2190}"),
    ("uarr", "\u{2191}"),
    ("rarr", "\u{2192}"),
    ("darr", "\u{2193}"),
    ("harr", "\u{2194}"),
    ("spades", "\u{2660}"),
    ("clubs", "\u{2663}"),
    ("hearts", "\u{2665}"),
    ("diams", "\u{2666}"),
];

fn lookup_named(name: &str) -> Option<&'static str> {
    NAMED.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// Decodes character references (`&amp;`, `&#65;`, `&#x41;`) in `input`.
///
/// Unknown or malformed references are copied through unchanged, matching
/// lenient browser behaviour. Input without a `&` comes back borrowed.
///
/// ```
/// use cp_html::entities::decode_entities;
/// assert_eq!(decode_entities("a &amp; b"), "a & b");
/// assert_eq!(decode_entities("&#65;&#x42;"), "AB");
/// assert_eq!(decode_entities("&bogus; &amp"), "&bogus; &amp");
/// ```
pub fn decode_entities(input: &str) -> Cow<'_, str> {
    if !input.contains('&') {
        return Cow::Borrowed(input);
    }
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the full UTF-8 character.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        // Find a terminating ';' within a reasonable window.
        let rest = &input[i + 1..];
        if let Some(semi) = rest.find(';').filter(|&p| p > 0 && p <= 32) {
            let name = &rest[..semi];
            if let Some(decoded) = decode_reference(name) {
                out.push_str(&decoded);
                i += 1 + semi + 1;
                continue;
            }
        }
        out.push('&');
        i += 1;
    }
    Cow::Owned(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn decode_reference(name: &str) -> Option<String> {
    if let Some(num) = name.strip_prefix('#') {
        let code = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        let ch = char::from_u32(code).unwrap_or('\u{fffd}');
        return Some(ch.to_string());
    }
    // Named references are case-sensitive in HTML5 but legacy pages often use
    // odd casing; we accept an exact match first, then a lowercase fallback.
    lookup_named(name).or_else(|| lookup_named(&name.to_ascii_lowercase())).map(|s| s.to_string())
}

/// Escapes `<`, `>` and `&` for text-node serialization.
///
/// ```
/// use cp_html::entities::escape_text;
/// assert_eq!(escape_text("a < b & c"), "a &lt; b &amp; c");
/// ```
pub fn escape_text(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes attribute values for double-quoted serialization.
///
/// ```
/// use cp_html::entities::escape_attr;
/// assert_eq!(escape_attr("say \"hi\" & go"), "say &quot;hi&quot; &amp; go");
/// ```
pub fn escape_attr(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for c in input.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '<' => out.push_str("&lt;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_entities() {
        assert_eq!(decode_entities("&lt;p&gt;"), "<p>");
        assert_eq!(decode_entities("&quot;x&quot;"), "\"x\"");
        assert_eq!(decode_entities("&nbsp;"), "\u{a0}");
    }

    #[test]
    fn numeric_entities() {
        assert_eq!(decode_entities("&#97;"), "a");
        assert_eq!(decode_entities("&#x61;"), "a");
        assert_eq!(decode_entities("&#X61;"), "a");
    }

    #[test]
    fn invalid_code_point_replaced() {
        assert_eq!(decode_entities("&#xD800;"), "\u{fffd}");
        assert_eq!(decode_entities("&#1114112;"), "\u{fffd}"); // beyond char range → U+FFFD
    }

    #[test]
    fn unknown_left_verbatim() {
        assert_eq!(decode_entities("&unknown;"), "&unknown;");
        assert_eq!(decode_entities("AT&T"), "AT&T");
        assert_eq!(decode_entities("&"), "&");
        assert_eq!(decode_entities("a && b"), "a && b");
    }

    #[test]
    fn no_ampersand_fast_path() {
        assert_eq!(decode_entities("plain text"), "plain text");
    }

    #[test]
    fn multibyte_passthrough() {
        assert_eq!(decode_entities("héllo &amp; wörld 🎉"), "héllo & wörld 🎉");
    }

    #[test]
    fn escape_round_trip() {
        let original = "a < b > c & \"d\"";
        assert_eq!(decode_entities(&escape_text(original)), original);
        assert_eq!(decode_entities(&escape_attr(original)), original);
    }

    #[test]
    fn case_fallback_for_named() {
        assert_eq!(decode_entities("&AMP;"), "&");
        assert_eq!(decode_entities("&NBSP;"), "\u{a0}");
    }
}
