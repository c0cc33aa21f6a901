//! [`Text`], the one string type of the SIP message model.
//!
//! A parsed message copies its header section once into a shared buffer,
//! and every textual field of the message is a range of that buffer.
//! Cloning a field, or a whole message, bumps a reference count instead of
//! copying bytes — which is what a proxy does all day: a response copies
//! its request's Vias, `From`, `To` and `Call-ID`, and a forward keeps the
//! request's text under one more Via.
//!
//! The price is that every field keeps its whole buffer alive: a tag held
//! past its message pins that message's header copy. Long-lived state that
//! stores a field on its own should copy it out (`String::from(&*text)`).

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;

/// An immutable string: a range of a shared `Rc<str>`.
///
/// It derefs to `&str`; compares, hashes and orders by content; and prints
/// under `Debug` and `Display` exactly as a `String` with the same content
/// does.
#[derive(Clone)]
pub struct Text {
    buf: Rc<str>,
    start: usize,
    end: usize,
}

impl Text {
    /// The `start..end` byte range of `buf`, sharing it.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie within `buf` on `char` boundaries:
    /// [`as_str`](Self::as_str) relies on it, so it is checked once here
    /// rather than on every read.
    pub(crate) fn slice(buf: &Rc<str>, start: usize, end: usize) -> Text {
        assert!(
            buf.get(start..end).is_some(),
            "{start}..{end} is not a str range"
        );
        Text {
            buf: Rc::clone(buf),
            start,
            end,
        }
    }

    /// Copies `parts` into one new shared buffer and returns a `Text` for
    /// each, so a builder pays for one buffer however many fields it fills.
    pub(crate) fn share<const N: usize>(parts: [&str; N]) -> [Text; N] {
        let buf: Rc<str> = Rc::from(parts.concat());
        let mut at = 0;
        parts.map(|part| {
            at += part.len();
            Text::slice(&buf, at - part.len(), at)
        })
    }

    /// The text as a `&str`.
    pub fn as_str(&self) -> &str {
        // SAFETY: `slice`, the only constructor, asserts that `start..end`
        // lies within `buf` on char boundaries, and neither the range nor
        // the immutable buffer changes afterwards.
        unsafe { self.buf.get_unchecked(self.start..self.end) }
    }

    /// The length in bytes, without slicing the shared buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Text {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        let buf: Rc<str> = Rc::from(s);
        Text::slice(&buf, 0, s.len())
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::from(s.as_str())
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(x: &(impl Hash + ?Sized)) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn behaves_like_the_string_it_holds() {
        let [a, b, c] = Text::share(["alice", "", "bob é"]);
        for (t, s) in [(&a, "alice"), (&b, ""), (&c, "bob é")] {
            assert_eq!(&**t, s);
            assert_eq!(*t, s);
            assert_eq!(format!("{t}"), format!("{s}"));
            assert_eq!(format!("{t:?}"), format!("{:?}", s.to_string()));
            assert_eq!(format!("{t:>8}|"), format!("{s:>8}|"));
            assert_eq!(hash_of(t), hash_of(s));
            assert_eq!(t.len(), s.len());
            assert_eq!(t.is_empty(), s.is_empty());
        }
        assert!(a < c && b < a);
        assert_eq!(Text::from("bob é"), c);
    }

    #[test]
    fn clones_share_one_buffer() {
        let [a, b] = Text::share(["sip", "lab"]);
        assert!(Rc::ptr_eq(&a.buf, &b.buf));
        let a2 = a.clone();
        assert!(Rc::ptr_eq(&a.buf, &a2.buf));
        assert_eq!(Rc::strong_count(&a.buf), 3);
    }

    #[test]
    fn borrows_as_str_in_maps() {
        let mut map = std::collections::HashMap::new();
        map.insert(Text::from("bob"), 1);
        assert_eq!(map.get("bob"), Some(&1));
    }
}
