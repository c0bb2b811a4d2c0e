//! Maps workspace-relative paths to the rule set that applies to them.
//!
//! The scope table encodes the repo's invariants (see README "Static
//! guarantees"):
//!
//! | scope | panic | unsafe | thread | env | time | hasher | entropy | cast | arith | result |
//! |---|---|---|---|---|---|---|---|---|---|---|
//! | library crates (`graph`, `runtime`, `core`, `baselines`) + facade | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | –¹ | ✓ |
//! | `crates/lint` (dogfood) | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | – | ✓ |
//! | `crates/bench`, `crates/cli` (timing/presentation layers) | – | ✓ | ✓ | ✓ | – | – | ✓ | – | – | – |
//! | `vendor/rayon` (the pool: owns threads + `DECOLOR_THREADS`) | – | ✓ | – | – | ✓ | ✓ | ✓ | – | – | – |
//! | `vendor/criterion` (the timing harness) | – | ✓ | ✓ | ✓ | – | ✓ | ✓ | – | – | – |
//! | other `vendor/*` | – | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ | – | – | – |
//!
//! ¹ the offset-arithmetic rule (`ARITH01`) applies only inside
//! `crates/graph/src/storage/` and `crates/core/src/checkpoint.rs` (raw
//! byte-offset arithmetic against mmap'd stores) plus the hot-path
//! word/slot kernel `crates/core/src/bitset.rs`, where a wrapping word
//! index silently corrupts a palette.
//! Vendor crates are exempt from the cast/result rules because they are
//! vendored upstream API surfaces (see `vendor/README.md`), not code
//! this workspace authors.

use crate::rules::RuleSet;

/// The crates that must keep their `#![forbid(unsafe_code)]` attribute
/// (workspace-relative `lib.rs` paths).
pub const FORBID_UNSAFE_LIBS: [&str; 5] = [
    "crates/graph/src/lib.rs",
    "crates/runtime/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/baselines/src/lib.rs",
    "crates/bench/src/lib.rs",
];

const LIBRARY_SCOPES: [&str; 6] = [
    "src/",
    "crates/graph/src/",
    "crates/runtime/src/",
    "crates/core/src/",
    "crates/baselines/src/",
    "crates/lint/src/",
];

const TIMING_SCOPES: [&str; 2] = ["crates/bench/src/", "crates/cli/src/"];

/// The scopes whose `+`/`*` byte-offset arithmetic must be checked
/// (`ARITH01`): the mmap'd-store layers where a wrapping offset multiply
/// misreads a "verified" store, plus the bitset hot-path kernel whose
/// word indices must not wrap.
const ARITH_SCOPES: [&str; 3] = [
    "crates/graph/src/storage/",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/bitset.rs",
];

/// The rule set for a workspace-relative path (forward slashes), or
/// `None` when the file is out of scope (tests, examples, fixtures).
pub fn rules_for(rel_path: &str) -> Option<RuleSet> {
    if LIBRARY_SCOPES.iter().any(|p| rel_path.starts_with(p)) {
        return Some(RuleSet {
            panic: true,
            safety: true,
            thread: true,
            env: true,
            time: true,
            hasher: true,
            entropy: true,
            cast: true,
            arith: ARITH_SCOPES.iter().any(|p| rel_path.starts_with(p)),
            result: true,
        });
    }
    if TIMING_SCOPES.iter().any(|p| rel_path.starts_with(p)) {
        return Some(RuleSet {
            panic: false,
            safety: true,
            thread: true,
            env: true,
            time: false,
            hasher: false,
            entropy: true,
            cast: false,
            arith: false,
            result: false,
        });
    }
    if rel_path.starts_with("vendor/rayon/src/") {
        // The pool legitimately owns scoped worker threads and the
        // `DECOLOR_THREADS` environment read.
        return Some(RuleSet {
            panic: false,
            safety: true,
            thread: false,
            env: false,
            time: true,
            hasher: true,
            entropy: true,
            cast: false,
            arith: false,
            result: false,
        });
    }
    if rel_path.starts_with("vendor/criterion/src/") {
        // The bench harness legitimately measures wall-clock time.
        return Some(RuleSet {
            panic: false,
            safety: true,
            thread: true,
            env: true,
            time: false,
            hasher: true,
            entropy: true,
            cast: false,
            arith: false,
            result: false,
        });
    }
    if rel_path.starts_with("vendor/") && rel_path.contains("/src/") {
        return Some(RuleSet {
            panic: false,
            safety: true,
            thread: true,
            env: true,
            time: true,
            hasher: true,
            entropy: true,
            cast: false,
            arith: false,
            result: false,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_crates_get_the_full_set() {
        let r = rules_for("crates/core/src/linial.rs").unwrap();
        assert!(r.panic && r.hasher && r.time && r.thread && r.env);
        assert!(r.cast && r.result && r.entropy);
        assert!(!r.arith, "arith is scoped to storage/checkpoint only");
    }

    #[test]
    fn storage_and_checkpoint_get_the_arith_rule() {
        assert!(rules_for("crates/graph/src/storage/csr.rs").unwrap().arith);
        assert!(
            rules_for("crates/graph/src/storage/manifest.rs")
                .unwrap()
                .arith
        );
        assert!(rules_for("crates/core/src/checkpoint.rs").unwrap().arith);
        assert!(rules_for("crates/core/src/bitset.rs").unwrap().arith);
        assert!(!rules_for("crates/graph/src/generators.rs").unwrap().arith);
    }

    #[test]
    fn bench_and_cli_may_time_and_panic() {
        let r = rules_for("crates/bench/src/bin/scaling.rs").unwrap();
        assert!(!r.panic && !r.time && r.thread);
        assert!(!r.cast && !r.result, "presentation layers may cast freely");
        assert!(r.entropy, "entropy-seeded RNG is banned even in bench");
    }

    #[test]
    fn rayon_owns_threads_and_env() {
        let r = rules_for("vendor/rayon/src/lib.rs").unwrap();
        assert!(!r.thread && !r.env && r.safety);
        assert!(!r.cast && !r.arith && !r.result, "vendor is cast-exempt");
        assert!(r.entropy);
    }

    #[test]
    fn tests_and_fixtures_are_out_of_scope() {
        assert!(rules_for("crates/core/tests/golden.rs").is_none());
        assert!(rules_for("examples/quickstart.rs").is_none());
    }
}
