//! Minimal, self-contained stand-in for the parts of `proptest` this
//! workspace uses. The build environment has no registry access, so the
//! workspace vendors the subset of the API its tests rely on:
//!
//! * the [`Strategy`] trait with [`Strategy::prop_map`];
//! * strategies for primitive ranges, tuples, [`Just`], [`any`],
//!   [`prop_oneof!`], and [`collection::vec`];
//! * the [`proptest!`] test macro with `#![proptest_config(..)]`,
//!   [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`], and
//!   [`prop_assume!`].
//!
//! Differences from upstream, by design: no shrinking (a failing case
//! reports the deterministic seed and case index instead of a minimized
//! input) and no persistence (`proptest-regressions` files are neither read
//! nor written — the generator is fully deterministic per test name, so a
//! failure always reproduces). Each test derives its RNG stream from a hash
//! of the test function's name; set `PROPTEST_SHIM_SEED` to perturb every
//! stream at once when hunting flakes.

use std::fmt;
use std::ops::Range;

pub use rand::RngCore;

/// Deterministic RNG handed to strategies.
pub struct TestRng(rand::rngs::StdRng);

impl TestRng {
    /// Derive a stream from a test name (FNV-1a) plus an optional
    /// environment override.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        if let Ok(extra) = std::env::var("PROPTEST_SHIM_SEED") {
            if let Ok(v) = extra.trim().parse::<u64>() {
                h ^= v.rotate_left(17);
            }
        }
        TestRng(<rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(h))
    }
}

impl RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the input; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// Build a failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Build a rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

/// Per-block configuration (`cases` is the only knob this workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
    /// Maximum consecutive `prop_assume!` rejections before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating values. Object-safe: `generate` is the only
/// required method, so `Box<dyn Strategy<Value = T>>` works (needed by
/// [`prop_oneof!`]).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Generate a dependent strategy from each value and sample it.
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Erase the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among equally-weighted alternatives ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Build from the already-boxed arms (non-empty).
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[i].generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng as _;
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng as _;
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Types with a canonical full-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: an exact count or a range,
    /// mirroring upstream's `Into<SizeRange>` conversions.
    pub trait IntoSizeRange {
        /// Lower bound and inclusive upper bound.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec length range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// A `Vec` whose length is drawn from `len` and whose elements come
    /// from `elem`.
    pub struct VecStrategy<S> {
        elem: S,
        len: (usize, usize),
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.bounds(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = (self.len.0..=self.len.1).generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Module-style access (`prop::collection::vec`), mirroring upstream.
    pub mod prop {
        pub use crate::collection;
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Equal-weight union of strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Assert inside a proptest body; failure fails the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// `prop_assert!` for equality, with value dumps on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}: {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), format!($($fmt)+), l, r
            )));
        }
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}` at {}:{}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l
            )));
        }
    }};
}

/// Skip the current case when its generated input is unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The test-block macro. Supports an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn` items whose
/// arguments are `name in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            // Build the strategies once as a single tuple strategy (so arg
            // binders may be arbitrary irrefutable patterns); generation
            // draws fresh values per case.
            let strat = ($($strat,)+);
            let mut rejects: u32 = 0;
            let mut case: u32 = 0;
            while case < cfg.cases {
                let ($($arg,)+) = $crate::Strategy::generate(&strat, &mut rng);
                // The closure captures `?`/`return` from the test body; it
                // must be called here, not inlined.
                #[allow(clippy::redundant_closure_call)]
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match outcome {
                    ::std::result::Result::Ok(()) => { case += 1; }
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejects += 1;
                        if rejects > cfg.max_global_rejects {
                            panic!(
                                "proptest '{}': too many prop_assume! rejections ({})",
                                stringify!($name), rejects
                            );
                        }
                    }
                    ::std::result::Result::Err(e) => {
                        panic!("proptest '{}' failed at case {}: {}", stringify!($name), case, e);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..100).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(v in 3usize..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&v));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn map_and_oneof_work(
            v in small_even(),
            pick in prop_oneof![Just(1u8), Just(3u8)],
        ) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(pick == 1 || pick == 3);
        }

        #[test]
        fn vec_lengths_respected(xs in prop::collection::vec(0u8..5, 2..9)) {
            prop_assert!((2..9).contains(&xs.len()));
            prop_assert!(xs.iter().all(|&x| x < 5));
        }

        #[test]
        fn assume_skips(v in 0u32..10) {
            prop_assume!(v != 3);
            prop_assert_ne!(v, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(v in any::<u32>()) {
            let _ = v;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        use crate::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
