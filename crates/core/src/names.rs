//! Compact sorted sets of cookie names.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

/// A sorted set of distinct names, held in one allocation.
///
/// The names are joined into one `Box<str>` in byte order, each preceded
/// by its byte length in base 64: one ASCII byte per digit, most
/// significant first, with bit `0x40` set on every digit but the last. A
/// name under 64 bytes thus costs one byte beyond its own, where a
/// `Vec<String>` or `BTreeSet<String>` costs an allocation per name plus
/// the collection's own. Lookups walk the set in order, which suits
/// FORCUM's sets: a site's handful of cookie names.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct NameSet(Box<str>);

/// Flag on a length digit that more digits follow.
const MORE: u8 = 0x40;
/// The value bits of a length digit.
const DIGIT: u8 = 0x3F;

impl NameSet {
    /// The names, in byte order.
    pub fn iter(&self) -> Names<'_> {
        Names { set: &self.0, at: 0 }
    }

    /// Number of names.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the set holds no name.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `name` is in the set.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Adds `name`; returns whether it was new. Allocates only then.
    pub fn insert(&mut self, name: &str) -> bool {
        let Err(at) = self.find(name) else { return false };
        self.splice(at..at, Some(name));
        true
    }

    /// Removes `name`; returns whether it was present.
    pub fn remove(&mut self, name: &str) -> bool {
        let Ok(entry) = self.find(name) else { return false };
        self.splice(entry, None);
        true
    }

    /// The byte range of `name`'s entry, or the offset where it belongs.
    fn find(&self, name: &str) -> Result<Range<usize>, usize> {
        let mut names = self.iter();
        loop {
            let start = names.at;
            match names.next().map(|entry| entry.cmp(name)) {
                Some(Ordering::Less) => {}
                Some(Ordering::Equal) => return Ok(start..names.at),
                Some(Ordering::Greater) | None => return Err(start),
            }
        }
    }

    /// Replaces the bytes in `range` with `name`'s entry, or with nothing,
    /// into one exactly sized allocation.
    fn splice(&mut self, range: Range<usize>, name: Option<&str>) {
        let added = name.map_or(0, entry_len);
        let mut out = String::with_capacity(self.0.len() - range.len() + added);
        out.push_str(&self.0[..range.start]);
        if let Some(name) = name {
            push_entry(&mut out, name);
        }
        out.push_str(&self.0[range.end..]);
        self.0 = out.into_boxed_str();
    }
}

/// Base-64 digits in `len`'s length prefix.
fn digits(len: usize) -> usize {
    let mut n = 1;
    while n < 11 && len >> (6 * n) != 0 {
        n += 1;
    }
    n
}

fn entry_len(name: &str) -> usize {
    digits(name.len()) + name.len()
}

fn push_entry(out: &mut String, name: &str) {
    for i in (0..digits(name.len())).rev() {
        let digit = (name.len() >> (6 * i)) as u8 & DIGIT;
        out.push(char::from(if i > 0 { digit | MORE } else { digit }));
    }
    out.push_str(name);
}

impl<S: AsRef<str>> FromIterator<S> for NameSet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut names: Vec<S> = iter.into_iter().collect();
        names.sort_unstable_by(|a, b| a.as_ref().cmp(b.as_ref()));
        names.dedup_by(|a, b| a.as_ref() == b.as_ref());
        let mut out = String::with_capacity(names.iter().map(|n| entry_len(n.as_ref())).sum());
        for name in &names {
            push_entry(&mut out, name.as_ref());
        }
        NameSet(out.into_boxed_str())
    }
}

/// The names of a [`NameSet`], in byte order.
#[derive(Debug, Clone)]
pub struct Names<'a> {
    set: &'a str,
    at: usize,
}

impl<'a> Iterator for Names<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let mut len = 0usize;
        loop {
            let byte = *self.set.as_bytes().get(self.at)?;
            self.at += 1;
            len = len << 6 | usize::from(byte & DIGIT);
            if byte & MORE == 0 {
                break;
            }
        }
        let name = &self.set[self.at..self.at + len];
        self.at += len;
        Some(name)
    }
}

impl fmt::Debug for NameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn behaves_like_a_sorted_set_of_strings() {
        let long = "L".repeat(70);
        let huge = "x".repeat(5_000);
        let names = ["sid", "", "café", "t0", "日本語", "🍪", "a", &long, &huge, "t0", "Zz"];
        let mut set = NameSet::default();
        let mut model = BTreeSet::new();
        for name in names {
            assert_eq!(set.insert(name), model.insert(name.to_string()), "{name:?}");
            assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
        }
        assert_eq!(set.len(), model.len());
        assert_eq!(set, names.into_iter().collect());
        assert_eq!(format!("{set:?}"), format!("{model:?}"));
        for name in ["t0", "missing", &huge, "", "sid", "sid"] {
            assert_eq!(set.contains(name), model.contains(name), "{name:?}");
            assert_eq!(set.remove(name), model.remove(name), "{name:?}");
            assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().collect::<Vec<_>>());
        }
        assert!(!set.is_empty());
        assert!(NameSet::default().is_empty());
    }

    #[test]
    fn short_names_cost_one_byte_each_beyond_their_own() {
        let set: NameSet = ["t0", "t1", "sid"].into_iter().collect();
        assert_eq!(set.0.len(), (1 + 2) + (1 + 2) + (1 + 3));
        assert_eq!(digits(63), 1);
        assert_eq!(digits(64), 2);
        assert_eq!(digits(4_096), 3);
        assert_eq!(digits(usize::MAX), 11);
    }
}
