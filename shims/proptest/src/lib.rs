//! Offline stand-in for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! numeric-range and tuple strategies, [`Just`](strategy::Just),
//! `any::<T>()`, `collection::{vec, btree_set}`, and the `proptest!`/`prop_assert!`/`prop_assert_eq!`
//! macros. Each test runs `PROPTEST_CASES` random cases (default 32)
//! from a seed derived deterministically from the test name, so failures
//! reproduce run-to-run. Unlike real proptest there is **no shrinking**:
//! a failing case reports its case index and seed instead.

pub mod strategy;

pub mod arbitrary;
pub mod collection;
pub mod test_runner;

/// The imports property tests conventionally glob in.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Declares property tests: `#[test] fn name(arg in strategy, ...) { body }`.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        // `#[test]` at the call site is captured by this repetition and
        // re-emitted verbatim (capturing it separately would be ambiguous).
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(stringify!($name), |__pt_rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), __pt_rng);)+
                let mut __pt_case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                __pt_case()
            });
        }
        $crate::proptest! { $($rest)* }
    };
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// panicking) so the runner can report the generating seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// `prop_assert!` for equality, with both operands in the failure message.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

/// `prop_assert!` for inequality.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{}` != `{}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            left
        );
    }};
}
