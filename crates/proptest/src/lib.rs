//! A vendored, dependency-free subset of the `proptest` API.
//!
//! The workspace builds in fully offline environments, so the real
//! `proptest` crate (and its dependency tree) cannot be fetched from a
//! registry. This crate re-implements exactly the surface the test
//! suite uses — `proptest!`, `prop_assert!`/`prop_assert_eq!`,
//! `prop_oneof!`, `Strategy`/`prop_map`, integer-range and tuple
//! strategies, `any::<T>()`, `prop::sample::select`, and
//! `prop::collection::vec` — on top of a small deterministic
//! [SplitMix64](https://prng.di.unimi.it/splitmix64.c) generator.
//!
//! Differences from upstream, by design:
//!
//! * **Deterministic by default.** Every test derives its seed from its
//!   own module path + name (FNV-1a), so runs are reproducible across
//!   machines and invocations. Set `PROPTEST_SEED=<u64>` to perturb all
//!   seeds at once when hunting for new counterexamples.
//! * **No shrinking.** A failing case reports its case index and seed;
//!   re-running reproduces it exactly, which is what shrinking mostly
//!   buys in CI.
//! * **String "regex" strategies** support only the `.{lo,hi}` shape
//!   (arbitrary text of bounded length) that the suite uses.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Config, RNG, and the error type threaded by `prop_assert!`.

    /// Deterministic SplitMix64 generator. Small state, passes BigCrush
    /// on its output, and — crucially for this workspace — trivially
    /// reproducible from a single `u64` seed.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from an explicit seed.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Derives a per-test seed from the test's fully qualified name
        /// (FNV-1a), optionally perturbed by `PROPTEST_SEED`.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            if let Ok(s) = std::env::var("PROPTEST_SEED") {
                if let Ok(v) = s.parse::<u64>() {
                    h ^= v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
            }
            TestRng::new(h)
        }

        /// Next 64 random bits (SplitMix64 step).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Next 32 random bits.
        pub fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        /// Uniform value in `[0, n)`. `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0, "below(0)");
            self.next_u64() % n
        }

        /// Uniform boolean.
        pub fn bool(&mut self) -> bool {
            self.next_u64() & 1 == 1
        }
    }

    /// Mirror of `proptest::test_runner::Config` — only `cases` is
    /// honoured.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Failure raised by `prop_assert!` family; carried out of the test
    /// body as an `Err` so the harness can attach case/seed context.
    #[derive(Debug)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// Builds a failure with the given message.
        pub fn fail(message: String) -> Self {
            TestCaseError { message }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and the combinators the suite uses.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe: `generate` takes the concrete [`TestRng`], so
    /// heterogeneous strategies can be unified behind
    /// `Box<dyn Strategy<Value = T>>` (see [`prop_oneof!`](crate::prop_oneof!)).
    pub trait Strategy {
        /// The type of value this strategy produces.
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

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// Type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, O> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Weighted union over same-`Value` strategies ([`prop_oneof!`](crate::prop_oneof!)).
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds a union; weights must sum to a non-zero total.
        pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! requires a positive total weight");
            Union { arms, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total);
            for (w, arm) in &self.arms {
                let w = u64::from(*w);
                if pick < w {
                    return arm.generate(rng);
                }
                pick -= w;
            }
            unreachable!("weights sum to total")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128) - (self.start as i128);
                    let off = rng.below(span as u64) as i128;
                    ((self.start as i128) + off) as $t
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u128;
                    // span can be 2^64 for full-width inclusive ranges.
                    let off = if span > u64::MAX as u128 {
                        rng.next_u64() as u128
                    } else {
                        rng.below(span as u64) as u128
                    };
                    (lo + off as i128) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategy {
        ($($s:ident . $idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A.0);
    tuple_strategy!(A.0, B.1);
    tuple_strategy!(A.0, B.1, C.2);
    tuple_strategy!(A.0, B.1, C.2, D.3);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6);
    tuple_strategy!(A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7);

    /// Pool from which `.{lo,hi}` string strategies draw: printable
    /// ASCII plus whitespace and a few multi-byte code points so UTF-8
    /// boundary handling gets exercised.
    const TEXT_POOL: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '1', '9', ' ', ' ', '\t', '\n', ',', ':', ';',
        '.', '!', '%', '[', ']', '(', ')', '+', '-', '*', '/', '"', '\'', '\\', '_', '#', '{', '}',
        '=', '<', '>', '@', '~', '^', '&', '|', '?', '$', '`', 'é', 'λ', '→', '∀', '\u{0}',
    ];

    /// Minimal "regex" strategy: `".{lo,hi}"` generates text whose
    /// char-length is uniform in `[lo, hi]`. Any other pattern is
    /// produced literally (sufficient for the suite's usage).
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            if let Some((lo, hi)) = parse_dot_repeat(self) {
                let len = lo + rng.below((hi - lo + 1) as u64) as usize;
                (0..len).map(|_| TEXT_POOL[rng.below(TEXT_POOL.len() as u64) as usize]).collect()
            } else {
                (*self).to_owned()
            }
        }
    }

    fn parse_dot_repeat(pat: &str) -> Option<(usize, usize)> {
        let body = pat.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = body.split_once(',')?;
        let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        (lo <= hi).then_some((lo, hi))
    }
}

pub mod arbitrary {
    //! `any::<T>()` for the primitive types the suite uses.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draws a uniformly random value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.bool()
        }
    }

    /// Marker strategy returned by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod sample {
    //! `prop::sample::select`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniformly selects one element of a non-empty vector.
    pub struct Select<T: Clone>(Vec<T>);

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// Strategy choosing uniformly from `options` (must be non-empty).
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select() requires options");
        Select(options)
    }
}

pub mod collection {
    //! `prop::collection::vec`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Vector of values from `element`, length uniform in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty vec size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for vectors of `element` with length in `size`
    /// (half-open, matching the suite's call sites).
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Everything a test needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespaced re-exports (`prop::sample::select`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Weighted (or unweighted) choice between strategies producing the
/// same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (($weight) as u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( (1u32, $crate::strategy::Strategy::boxed($strat)) ),+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body, failing the current
/// case (with context) rather than aborting the whole process state.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: `{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Declares property tests. Each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (@run ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let test_name = concat!(module_path!(), "::", stringify!($name));
                let mut rng = $crate::test_runner::TestRng::for_test(test_name);
                for case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{} (set PROPTEST_SEED to vary): {}",
                            test_name, case, config.cases, e
                        );
                    }
                }
            }
        )*
    };
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}
