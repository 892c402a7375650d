//! Offline stand-in for `proptest`.
//!
//! Same surface, simpler engine: strategies are direct random generators
//! (no shrinking, no persisted failure seeds). Each `proptest!` test runs
//! `ProptestConfig::cases` iterations with an RNG seeded from the test's
//! name, so failures are reproducible run-to-run. `prop_assert*` failures
//! report the case number and message; `prop_assume!` rejects the case.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Range;

/// The RNG driving test-case generation.
pub type TestRng = StdRng;

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per test.
    pub cases: u32,
    /// Base seed, mixed with the test name.
    pub seed: u64,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            seed: 0,
        }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` failed: skip the case, try another.
    Reject(String),
    /// `prop_assert*` failed: the property is violated.
    Fail(String),
}

/// Builds the deterministic RNG for one test (used by the macro).
pub fn rng_for_test(test_name: &str, config_seed: u64) -> TestRng {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut hasher);
    StdRng::seed_from_u64(hasher.finish() ^ config_seed)
}

/// A generator of test-case values.
pub trait Strategy {
    /// The values produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe strategy used behind [`BoxedStrategy`].
trait DynStrategy {
    type Value;
    fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;

    fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_dyn(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (behind `prop_oneof!`).
pub struct Union<T> {
    options: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds a union; panics on an empty option list.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let pick = rng.gen_range(0..self.options.len());
        self.options[pick].generate(rng)
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uniform {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen()
            }
        }
    )*};
}

impl_arbitrary_uniform!(u8, u16, u32, u64, usize, bool);

/// Strategy for any value of `T`; see [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! impl_strategy_for_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_strategy_for_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_strategy_for_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

/// `&str` as a regex strategy. The shim supports the single pattern shape
/// the workspace uses — `.{lo,hi}` — generating printable ASCII of a
/// length in `[lo, hi]`. Anything else panics loudly.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_dot_repeat(self).unwrap_or_else(|| {
            panic!(
                "proptest shim: unsupported regex strategy {self:?} \
                 (only `.{{lo,hi}}` is implemented)"
            )
        });
        let len = rng.gen_range(lo..=hi);
        (0..len)
            .map(|_| rng.gen_range(0x20u8..0x7F) as char)
            .collect()
    }
}

fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Strategy namespace mirror of proptest's `prop` module.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use rand::Rng;
        use std::collections::HashSet;
        use std::hash::Hash;
        use std::ops::Range;

        /// `Vec<T>` with a length drawn from `size` and elements from
        /// `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        /// See [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let len = rng.gen_range(self.size.clone());
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `HashSet<T>` with a target size drawn from `size`; keeps
        /// drawing to reach the target (bounded retries).
        pub fn hash_set<S>(element: S, size: Range<usize>) -> HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            HashSetStrategy { element, size }
        }

        /// See [`hash_set`].
        pub struct HashSetStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S> Strategy for HashSetStrategy<S>
        where
            S: Strategy,
            S::Value: Hash + Eq,
        {
            type Value = HashSet<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
                let target = rng.gen_range(self.size.clone());
                let mut out = HashSet::new();
                let mut attempts = 0usize;
                while out.len() < target && attempts < 100 + target * 10 {
                    out.insert(self.element.generate(rng));
                    attempts += 1;
                }
                out
            }
        }
    }

    /// `Option<T>` strategies.
    pub mod option {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// `None` 25% of the time (like upstream's default), `Some`
        /// otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// See [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
                if rng.gen_bool(0.25) {
                    None
                } else {
                    Some(self.inner.generate(rng))
                }
            }
        }
    }

    /// `bool` strategies.
    pub mod bool {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Either boolean, uniformly.
        #[derive(Debug, Clone, Copy)]
        pub struct BoolAny;

        /// The uniform boolean strategy.
        pub const ANY: BoolAny = BoolAny;

        impl Strategy for BoolAny {
            type Value = bool;

            fn generate(&self, rng: &mut TestRng) -> bool {
                rng.gen()
            }
        }
    }

    /// Sampling helpers.
    pub mod sample {
        use super::super::{Arbitrary, TestRng};
        use rand::Rng;

        /// A collection index independent of the collection's length:
        /// resolve it against a concrete length with [`Index::index`].
        #[derive(Debug, Clone, Copy)]
        pub struct Index(usize);

        impl Index {
            /// The index as a position in a collection of `len` items.
            ///
            /// # Panics
            /// On `len == 0`.
            pub fn index(&self, len: usize) -> usize {
                assert!(len > 0, "Index::index on empty collection");
                self.0 % len
            }
        }

        impl Arbitrary for Index {
            fn arbitrary(rng: &mut TestRng) -> Self {
                Index(rng.gen())
            }
        }
    }
}

/// Everything a property test needs; `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Runs one test's cases; `body` returns `Err(Reject)` to skip a case.
/// Used by the `proptest!` macro, public for that reason only.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = rng_for_test(test_name, config.seed);
    let mut rejected = 0u32;
    for case in 0..config.cases {
        match body(&mut rng) {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => rejected += 1,
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest case {case}/{} failed: {msg}", config.cases)
            }
        }
    }
    if rejected == config.cases {
        panic!("proptest: every case of {test_name} was rejected by prop_assume!");
    }
}

/// Defines property tests; see the crate docs for supported syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Internal muncher behind [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            $crate::run_cases(stringify!($name), &__config, |__rng| {
                $(let $pat = $crate::Strategy::generate(&($strat), __rng);)*
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

/// Asserts inside a property; failure fails the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let __a = $a;
        let __b = $b;
        $crate::prop_assert!(
            __a == __b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        $crate::prop_assert!(
            __a == __b,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            __a,
            __b
        );
    }};
}

/// Asserts two expressions are unequal inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let __a = $a;
        let __b = $b;
        $crate::prop_assert!(
            __a != __b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            __a
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let __a = $a;
        let __b = $b;
        $crate::prop_assert!(
            __a != __b,
            "{}\n  both: {:?}",
            format!($($fmt)+),
            __a
        );
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($option)),+])
    };
}

// The shim's own behaviour, tested through its public macro surface.
#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, f in -2.0f64..2.0, b in prop::bool::ANY) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.0..2.0).contains(&f));
            prop_assert!(matches!(b, true | false));
        }

        #[test]
        fn vec_and_set_respect_sizes(
            v in prop::collection::vec(0u8..100, 2..7),
            s in prop::collection::hash_set(0u32..100_000, 1..10),
        ) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(!s.is_empty() && s.len() < 10);
        }

        #[test]
        fn oneof_map_just_and_regex(
            choice in prop_oneof![Just(0u32), (5u32..9).prop_map(|v| v * 10)],
            text in ".{0,16}",
            opt in prop::option::of(0u32..5),
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assert!(choice == 0 || (50..90).contains(&choice));
            prop_assert!(text.len() <= 16);
            if let Some(v) = opt {
                prop_assert!(v < 5);
            }
            prop_assert!(idx.index(7) < 7);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn same_name_same_stream() {
        use crate::Strategy;
        let strat = crate::prop::collection::vec(0u64..1_000, 3..9);
        let mut a = crate::rng_for_test("x", 0);
        let mut b = crate::rng_for_test("x", 0);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_panic_with_case_number() {
        crate::run_cases(
            "always_fails",
            &crate::ProptestConfig::with_cases(3),
            |_| Err(crate::TestCaseError::Fail("boom".into())),
        );
    }
}
