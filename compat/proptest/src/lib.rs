//! Offline stand-in for `proptest`.
//!
//! Implements the subset CrowdWeb's suites use: range strategies over
//! integers and floats, `any::<T>()`, tuple strategies,
//! `collection::vec`, and the `proptest!`/`prop_assert*` macros. Each
//! property runs a fixed number of deterministic cases (seeded from the
//! test body's source position), so failures reproduce exactly across
//! runs. No shrinking: the failing inputs are printed instead.

#![forbid(unsafe_code)]

/// Deterministic case generator handed to strategies.
///
/// SplitMix64: tiny, full-period, and plenty for fuzzing inputs.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds a generator for one test run.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, span: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }
}

/// A source of values for one property argument.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! impl_int_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty range strategy");
                let span = (b as i128 - a as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (a as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

impl_int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        // Hit the endpoints occasionally; properties often depend on them.
        match rng.below(16) {
            0 => a,
            1 => b,
            _ => a + rng.unit_f64() * (b - a),
        }
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn sample(&self, rng: &mut TestRng) -> f32 {
        let v = (f64::from(self.start)..f64::from(self.end)).sample(rng) as f32;
        if v < self.end {
            v
        } else {
            self.start
        }
    }
}

macro_rules! impl_tuple_strategies {
    ($(($($s:ident : $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Marker returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()`: the full domain of `T`.
pub fn any<T>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_any {
    ($($t:ty => $f:expr),*) => {$(
        impl Strategy for Any<$t> {
            type Value = $t;
            #[allow(clippy::redundant_closure_call)]
            fn sample(&self, rng: &mut TestRng) -> $t {
                ($f)(rng)
            }
        }
    )*};
}

impl_any! {
    u8 => |r: &mut TestRng| r.next_u64() as u8,
    u16 => |r: &mut TestRng| r.next_u64() as u16,
    u32 => |r: &mut TestRng| r.next_u64() as u32,
    u64 => |r: &mut TestRng| r.next_u64(),
    usize => |r: &mut TestRng| r.next_u64() as usize,
    i8 => |r: &mut TestRng| r.next_u64() as i8,
    i16 => |r: &mut TestRng| r.next_u64() as i16,
    i32 => |r: &mut TestRng| r.next_u64() as i32,
    i64 => |r: &mut TestRng| r.next_u64() as i64,
    isize => |r: &mut TestRng| r.next_u64() as isize,
    bool => |r: &mut TestRng| r.next_u64() & 1 == 1
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length bound for [`vec()`]; built from a range or a fixed size.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max_exclusive: *r.end() + 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Number of cases each `proptest!` property runs.
pub const CASES: u64 = 64;

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::{
        any, collection, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Strategy,
    };
}

/// Declares deterministic property tests.
///
/// Accepts the standard `proptest!` block form with `arg in strategy`
/// parameters; each test runs [`CASES`] cases seeded from the source
/// location, printing the failing inputs on panic.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                // Per-test deterministic seed: source position of the body.
                let seed = (line!() as u64) << 32 | column!() as u64;
                for case in 0..$crate::CASES {
                    let mut rng = $crate::TestRng::seed_from_u64(
                        seed ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D),
                    );
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut rng);)+
                    $body
                }
            }
        )+
    };
}

/// `assert!` that reports the property-test case on failure.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` that reports the property-test case on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` that reports the property-test case on failure.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u8..17, y in -4i64..=4, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_size(v in collection::vec(0u8..4, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b < 4));
        }

        #[test]
        fn tuples_compose(pair in (0u32..8, 0.0f64..1.0), seed in any::<u64>()) {
            prop_assert!(pair.0 < 8);
            prop_assert!((0.0..1.0).contains(&pair.1));
            let _ = seed;
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let draw = |seed| {
            let mut rng = crate::TestRng::seed_from_u64(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
