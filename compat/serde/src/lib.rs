//! Offline stand-in for the `serde` crate.
//!
//! The real serde is a zero-copy visitor framework; this subset keeps
//! the *surface* CrowdWeb uses — `#[derive(Serialize, Deserialize)]`,
//! the `Serialize`/`Deserialize` traits, and the container attributes
//! `skip`, `default`, `rename`, `untagged`, and `tag`/`content` — but
//! routes everything through one concrete self-describing tree,
//! [`Content`]. `serde_json` (the sibling compat crate) prints and
//! parses that tree as JSON.
//!
//! Design notes:
//!
//! - Serialization is total: `to_content` cannot fail. Map keys are
//!   converted to strings at print time (numbers allowed, like
//!   `serde_json`).
//! - Deserialization is checked: wrong shapes produce [`Error`] values
//!   with a short path-free message (enough for tests and the HTTP
//!   400 path).
//! - `HashMap` serialization sorts entries by key so every serialized
//!   byte stream is deterministic — a repo-wide invariant the
//!   determinism tests rely on.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash};

pub use serde_derive::{Deserialize, Serialize};

/// The self-describing serialized form: a JSON-shaped tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative (or any signed) integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Content>),
    /// Object; keys are stringified at print time.
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// The content's JSON type name, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) | Content::I64(_) => "integer",
            Content::F64(_) => "number",
            Content::Str(_) => "string",
            Content::Seq(_) => "array",
            Content::Map(_) => "object",
        }
    }

    /// Looks up a map entry by string key.
    pub fn get_field(&self, key: &str) -> Option<&Content> {
        match self {
            Content::Map(entries) => entries.iter().find_map(|(k, v)| match k {
                Content::Str(s) if s == key => Some(v),
                _ => None,
            }),
            _ => None,
        }
    }
}

/// Deserialization error: a message, `std::error::Error`-compatible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn msg(message: impl Into<String>) -> Error {
        Error(message.into())
    }

    /// Shorthand for "expected X, found Y" shape errors.
    pub fn expected(what: &str, found: &Content) -> Error {
        Error(format!("expected {what}, found {}", found.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types serializable into a [`Content`] tree.
pub trait Serialize {
    /// Converts `self` into its serialized form.
    fn to_content(&self) -> Content;
}

/// Types reconstructible from a [`Content`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds a value, validating the tree's shape.
    fn from_content(content: &Content) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::U64(u64::from(*self)) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let v = match c {
                    Content::U64(v) => *v,
                    Content::I64(v) if *v >= 0 => *v as u64,
                    // JSON object keys arrive as strings; accept digits.
                    Content::Str(s) => s.parse::<u64>()
                        .map_err(|_| Error::expected("unsigned integer", c))?,
                    _ => return Err(Error::expected("unsigned integer", c)),
                };
                <$t>::try_from(v).map_err(|_| Error::msg(
                    format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32);

impl Serialize for u64 {
    fn to_content(&self) -> Content {
        Content::U64(*self)
    }
}
impl Deserialize for u64 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::U64(v) => Ok(*v),
            Content::I64(v) if *v >= 0 => Ok(*v as u64),
            Content::Str(s) => s
                .parse::<u64>()
                .map_err(|_| Error::expected("unsigned integer", c)),
            _ => Err(Error::expected("unsigned integer", c)),
        }
    }
}

impl Serialize for usize {
    fn to_content(&self) -> Content {
        Content::U64(*self as u64)
    }
}
impl Deserialize for usize {
    fn from_content(c: &Content) -> Result<Self, Error> {
        u64::from_content(c).and_then(|v| {
            usize::try_from(v).map_err(|_| Error::msg("integer out of range for usize"))
        })
    }
}

impl Serialize for u128 {
    fn to_content(&self) -> Content {
        // Timings (`Duration::as_micros`) fit u64 in practice; huge
        // values fall back to a digit string to stay lossless.
        match u64::try_from(*self) {
            Ok(v) => Content::U64(v),
            Err(_) => Content::Str(self.to_string()),
        }
    }
}
impl Deserialize for u128 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::U64(v) => Ok(u128::from(*v)),
            Content::I64(v) if *v >= 0 => Ok(*v as u128),
            Content::Str(s) => s
                .parse::<u128>()
                .map_err(|_| Error::expected("unsigned integer", c)),
            _ => Err(Error::expected("unsigned integer", c)),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content {
                let v = i64::from(*self);
                if v >= 0 { Content::U64(v as u64) } else { Content::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, Error> {
                let v = match c {
                    Content::I64(v) => *v,
                    Content::U64(v) => i64::try_from(*v)
                        .map_err(|_| Error::msg("integer too large"))?,
                    Content::Str(s) => s.parse::<i64>()
                        .map_err(|_| Error::expected("integer", c))?,
                    _ => return Err(Error::expected("integer", c)),
                };
                <$t>::try_from(v).map_err(|_| Error::msg(
                    format!("integer {v} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32);

impl Serialize for i64 {
    fn to_content(&self) -> Content {
        if *self >= 0 {
            Content::U64(*self as u64)
        } else {
            Content::I64(*self)
        }
    }
}
impl Deserialize for i64 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::I64(v) => Ok(*v),
            Content::U64(v) => i64::try_from(*v).map_err(|_| Error::msg("integer too large")),
            Content::Str(s) => s.parse::<i64>().map_err(|_| Error::expected("integer", c)),
            _ => Err(Error::expected("integer", c)),
        }
    }
}

impl Serialize for isize {
    fn to_content(&self) -> Content {
        (*self as i64).to_content()
    }
}
impl Deserialize for isize {
    fn from_content(c: &Content) -> Result<Self, Error> {
        i64::from_content(c).and_then(|v| {
            isize::try_from(v).map_err(|_| Error::msg("integer out of range for isize"))
        })
    }
}

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}
impl Deserialize for f64 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::F64(v) => Ok(*v),
            Content::U64(v) => Ok(*v as f64),
            Content::I64(v) => Ok(*v as f64),
            _ => Err(Error::expected("number", c)),
        }
    }
}

impl Serialize for f32 {
    fn to_content(&self) -> Content {
        Content::F64(f64::from(*self))
    }
}
impl Deserialize for f32 {
    fn from_content(c: &Content) -> Result<Self, Error> {
        f64::from_content(c).map(|v| v as f32)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", c)),
        }
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}
impl Deserialize for char {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::expected("single-character string", c)),
        }
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", c)),
        }
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn to_content(&self) -> Content {
        Content::Null
    }
}
impl Deserialize for () {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(()),
            _ => Err(Error::expected("null", c)),
        }
    }
}

// ---------------------------------------------------------------------
// Composite impls.
// ---------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        T::from_content(c).map(Box::new)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}
impl Deserialize for std::sync::Arc<str> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        String::from_content(c).map(std::sync::Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_content(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.to_content(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(None),
            other => T::from_content(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Seq(items) => items.iter().map(T::from_content).collect(),
            _ => Err(Error::expected("array", c)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}
impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_content(c: &Content) -> Result<Self, Error> {
        let v = Vec::<T>::from_content(c)?;
        let n = v.len();
        <[T; N]>::try_from(v)
            .map_err(|_| Error::msg(format!("expected array of length {N}, found {n}")))
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+)),+) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_content(&self) -> Content {
                Content::Seq(vec![$(self.$idx.to_content()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_content(c: &Content) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                match c {
                    Content::Seq(items) if items.len() == LEN => {
                        Ok(($($t::from_content(&items[$idx])?,)+))
                    }
                    _ => Err(Error::expected("fixed-length array", c)),
                }
            }
        }
    )+};
}

impl_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_content(&self) -> Content {
        Content::Map(
            self.iter()
                .map(|(k, v)| (k.to_content(), v.to_content()))
                .collect(),
        )
    }
}
impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            _ => Err(Error::expected("object", c)),
        }
    }
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_content(&self) -> Content {
        let mut entries: Vec<(Content, Content)> = self
            .iter()
            .map(|(k, v)| (k.to_content(), v.to_content()))
            .collect();
        // Hash iteration order is arbitrary; sort on the printed key so
        // serialized output is deterministic.
        entries.sort_by_key(|entry| key_string(&entry.0));
        Content::Map(entries)
    }
}
impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn from_content(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_content(k)?, V::from_content(v)?)))
                .collect(),
            _ => Err(Error::expected("object", c)),
        }
    }
}

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}
impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, Error> {
        Ok(c.clone())
    }
}

/// Stringifies a map key the way the JSON printer will (used for
/// deterministic `HashMap` ordering).
pub fn key_string(key: &Content) -> String {
    match key {
        Content::Str(s) => s.clone(),
        Content::U64(v) => v.to_string(),
        Content::I64(v) => v.to_string(),
        Content::F64(v) => v.to_string(),
        Content::Bool(b) => b.to_string(),
        Content::Null => "null".to_owned(),
        _ => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(v: T) {
        let c = v.to_content();
        assert_eq!(T::from_content(&c).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(42u32);
        round_trip(-17i64);
        round_trip(2.5f64);
        round_trip(true);
        round_trip('x');
        round_trip("hello".to_owned());
        round_trip(Some(3u8));
        round_trip(Option::<u8>::None);
    }

    #[test]
    fn composites_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip([1.5f64, -2.5]);
        round_trip((1u8, "a".to_owned()));
        let mut m = BTreeMap::new();
        m.insert("k".to_owned(), 9usize);
        round_trip(m);
    }

    #[test]
    fn hashmap_serializes_sorted() {
        let mut m = HashMap::new();
        m.insert(10u32, 1u8);
        m.insert(2u32, 2u8);
        m.insert(7u32, 3u8);
        let Content::Map(entries) = m.to_content() else {
            panic!("expected map");
        };
        let keys: Vec<String> = entries.iter().map(|(k, _)| key_string(k)).collect();
        assert_eq!(keys, vec!["10", "2", "7"]); // lexicographic, stable
        round_trip(m);
    }

    #[test]
    fn signed_integers_use_compact_form() {
        assert_eq!(5i64.to_content(), Content::U64(5));
        assert_eq!((-5i64).to_content(), Content::I64(-5));
        assert_eq!(i64::from_content(&Content::U64(5)).unwrap(), 5);
    }

    #[test]
    fn errors_describe_the_mismatch() {
        let err = u32::from_content(&Content::Str("zz".into())).unwrap_err();
        assert!(err.to_string().contains("unsigned integer"));
        let err = u8::from_content(&Content::U64(999)).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
