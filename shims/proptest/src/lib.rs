//! Offline stand-in for `proptest`.
//!
//! Implements the slice of proptest the workspace's property suites use:
//! the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! [`Strategy`] with `prop_map`/`prop_flat_map`, numeric-range and
//! `prop::collection::vec` strategies, and the `prop_assert*`/`prop_assume!`
//! macros. Cases are generated deterministically from a seed derived from
//! the test name, so failures reproduce exactly.
//!
//! Differences from real proptest, accepted for an offline environment:
//! no shrinking (the failing inputs are printed as drawn), and no
//! persistence file — determinism makes reruns exact anyway.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The RNG handed to strategies by the runner.
pub type TestRng = StdRng;

/// Why a single generated case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is not counted.
    Reject,
    /// A `prop_assert*` failed with this message.
    Fail(String),
}

/// Runner configuration; only the case count is configurable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases each test must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` accepted cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; the workspace's suites are
        // compute-bound (training loops inside cases), so stay moderate.
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then uses it to pick a second strategy to draw
    /// the final value from.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// A strategy that always yields clones of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + fmt::Debug>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_float_range_strategy!(f32, f64);

/// String strategies from a regex subset, mirroring proptest's `&str`
/// strategy. Supported syntax: literal characters, `[...]` classes with
/// ranges and single characters, `.` (printable ASCII), and the repeaters
/// `{m}`, `{m,n}`, `?`, `+`, `*` (the open-ended ones capped at 8).
mod string_strategy {
    use super::{Strategy, TestRng};
    use rand::RngExt;

    #[derive(Debug, Clone)]
    enum Piece {
        Literal(char),
        Class(Vec<(char, char)>),
        Any,
    }

    fn parse(pattern: &str) -> Vec<(Piece, usize, usize)> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let piece = match chars[i] {
                '[' => {
                    let mut ranges = Vec::new();
                    i += 1;
                    while i < chars.len() && chars[i] != ']' {
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((chars[i], chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((chars[i], chars[i]));
                            i += 1;
                        }
                    }
                    assert!(i < chars.len(), "unterminated `[` in pattern {pattern:?}");
                    i += 1; // closing ]
                    Piece::Class(ranges)
                }
                '.' => {
                    i += 1;
                    Piece::Any
                }
                '\\' => {
                    i += 1;
                    assert!(i < chars.len(), "trailing `\\` in pattern {pattern:?}");
                    let c = chars[i];
                    i += 1;
                    Piece::Literal(c)
                }
                c => {
                    i += 1;
                    Piece::Literal(c)
                }
            };
            let (lo, hi) = if i < chars.len() {
                match chars[i] {
                    '{' => {
                        let close = chars[i..]
                            .iter()
                            .position(|&c| c == '}')
                            .map(|p| i + p)
                            .unwrap_or_else(|| panic!("unterminated `{{` in pattern {pattern:?}"));
                        let body: String = chars[i + 1..close].iter().collect();
                        i = close + 1;
                        match body.split_once(',') {
                            Some((lo, hi)) => (
                                lo.trim().parse().expect("bad repeat lower bound"),
                                hi.trim().parse().expect("bad repeat upper bound"),
                            ),
                            None => {
                                let n = body.trim().parse().expect("bad repeat count");
                                (n, n)
                            }
                        }
                    }
                    '?' => {
                        i += 1;
                        (0, 1)
                    }
                    '+' => {
                        i += 1;
                        (1, 8)
                    }
                    '*' => {
                        i += 1;
                        (0, 8)
                    }
                    _ => (1, 1),
                }
            } else {
                (1, 1)
            };
            pieces.push((piece, lo, hi));
        }
        pieces
    }

    fn sample_piece(piece: &Piece, rng: &mut TestRng) -> char {
        match piece {
            Piece::Literal(c) => *c,
            Piece::Any => rng.random_range(0x20u32..0x7f) as u8 as char,
            Piece::Class(ranges) => {
                let idx = rng.random_range(0..ranges.len());
                let (lo, hi) = ranges[idx];
                char::from_u32(rng.random_range(lo as u32..=hi as u32))
                    .expect("class range produced invalid char")
            }
        }
    }

    impl Strategy for str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for (piece, lo, hi) in parse(self) {
                let n = rng.random_range(lo..=hi);
                for _ in 0..n {
                    out.push(sample_piece(&piece, rng));
                }
            }
            out
        }
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::RngExt;
    use std::ops::{Range, RangeInclusive};

    /// An inclusive length interval, mirroring proptest's `SizeRange`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    /// Length specifications accepted by [`vec`](fn@vec): an exact `usize`, a
    /// half-open `Range`, or a `RangeInclusive`.
    pub trait IntoSizeRange {
        /// Converts into the canonical inclusive interval.
        fn into_size_range(self) -> SizeRange;
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> SizeRange {
            SizeRange { lo: self, hi: self }
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn into_size_range(self) -> SizeRange {
            assert!(self.start < self.end, "empty length range");
            SizeRange { lo: self.start, hi: self.end - 1 }
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn into_size_range(self) -> SizeRange {
            assert!(self.start() <= self.end(), "empty length range");
            SizeRange { lo: *self.start(), hi: *self.end() }
        }
    }

    /// Strategy for `Vec<T>` with element strategy `element` and a length
    /// drawn uniformly from `len`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy { element, len: len.into_size_range() }
    }

    /// Strategy returned by [`vec`](fn@vec).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.lo..=self.len.hi);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Derives a per-test seed from the test's module path and name so each
/// test draws an independent, stable stream.
pub fn seed_from_name(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate test streams.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Drives one property test: draws cases, counts rejects, panics on the
/// first failure with the rendered inputs.
///
/// This is the runtime behind the [`proptest!`] macro; user code does not
/// call it directly.
pub fn run_property_test<F: FnMut(&mut TestRng) -> Result<(), TestCaseError>>(
    name: &str,
    config: ProptestConfig,
    mut case: F,
) {
    let mut rng = TestRng::seed_from_u64(seed_from_name(name));
    let mut passed = 0u32;
    let mut rejected = 0u64;
    let max_rejects = (config.cases as u64) * 256;
    while passed < config.cases {
        match case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "proptest `{name}`: too many prop_assume! rejections \
                     ({rejected} rejects for {passed} accepted cases)"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed after {passed} passing case(s): {msg}");
            }
        }
    }
}

/// Everything the suites import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError,
    };

    /// Mirrors real proptest's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Fails the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Rejects the current case (not counted toward the case budget) unless
/// `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Declares property tests. Mirrors real proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn my_prop(x in 0u64..100, v in prop::collection::vec(0.0f32..1.0, 1..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_property_test(
                    concat!(module_path!(), "::", stringify!($name)),
                    $cfg,
                    |__proptest_rng| {
                        let mut __proptest_inputs = ::std::string::String::new();
                        $(
                            let __proptest_drawn =
                                $crate::Strategy::sample(&($strat), __proptest_rng);
                            __proptest_inputs.push_str(&format!(
                                "\n    {} = {:?}",
                                stringify!($pat),
                                __proptest_drawn
                            ));
                            let $pat = __proptest_drawn;
                        )*
                        let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                            (|| {
                                $body
                                ::std::result::Result::Ok(())
                            })();
                        match __proptest_result {
                            ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                                ::std::result::Result::Err($crate::TestCaseError::Fail(
                                    format!("{msg}\n  inputs:{__proptest_inputs}"),
                                ))
                            }
                            other => other,
                        }
                    },
                );
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::seed_from_u64(1);
        for _ in 0..1000 {
            let f = (0.25f32..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let u = (3usize..9).sample(&mut rng);
            assert!((3..9).contains(&u));
        }
    }

    #[test]
    fn vec_strategy_respects_len_and_elements() {
        let mut rng = TestRng::seed_from_u64(2);
        let strat = collection::vec(0.0f32..1.0, 2..5);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::seed_from_u64(3);
        let strat = (1usize..4)
            .prop_flat_map(|n| collection::vec(0.0f32..1.0, n..n + 1))
            .prop_map(|v| v.len());
        for _ in 0..100 {
            let n = strat.sample(&mut rng);
            assert!((1..4).contains(&n));
        }
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut first = Vec::new();
        run_property_test("demo", ProptestConfig::with_cases(5), |rng| {
            first.push((0u64..100).sample(rng));
            Ok(())
        });
        let mut second = Vec::new();
        run_property_test("demo", ProptestConfig::with_cases(5), |rng| {
            second.push((0u64..100).sample(rng));
            Ok(())
        });
        assert_eq!(first, second);
    }

    proptest! {
        #[test]
        fn macro_end_to_end(x in 0u64..50, v in prop::collection::vec(0.0f32..1.0, 1..4)) {
            prop_assume!(x != 13);
            prop_assert!(x < 50);
            prop_assert_eq!(v.len(), v.len());
            prop_assert_ne!(v.len(), 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]
        #[test]
        fn macro_with_config(pair in (0usize..3).prop_map(|a| (a, a + 1))) {
            let (a, b) = pair;
            prop_assert_eq!(a + 1, b);
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failures_panic_with_context() {
        run_property_test("always_fails", ProptestConfig::with_cases(3), |_rng| {
            Err(TestCaseError::Fail("nope".to_string()))
        });
    }
}
