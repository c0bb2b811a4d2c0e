//! Deterministic fault injection for the out-of-core build path.
//!
//! A [`FaultPlan`] is installed on a
//! [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) and consulted
//! at every **fault point** — each shard write and each durability step
//! (fsync, atomic rename, journal update) the builder performs, in the
//! deterministic order the build performs them. The plan trips exactly
//! once, at a caller-chosen point index, simulating:
//!
//! * a **kill** — the operation never happens (a crash between steps);
//! * a **short write** — a seeded prefix of the payload reaches the file
//!   before the failure (a torn write);
//! * **ENOSPC** — the write fails cleanly without touching the file.
//!
//! Plans share their state through a handle (`Clone` keeps pointing at
//! the same counters), so a test can keep a clone, run a build that
//! consumes the builder, and still ask afterwards *which* point tripped
//! and how many points the build reached — that is what lets the
//! `crash_recovery` suite sweep every kill point without counting them by
//! hand. Everything is seeded and counter-driven: no clocks, no ambient
//! randomness, identical behavior at any `DECOLOR_THREADS`.

use std::sync::{Arc, Mutex};

/// How the plan fails at its trip point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation does not happen at all (crash between steps).
    Kill,
    /// A seeded prefix of the payload is written, then the write fails
    /// (torn write). For non-write points this degrades to [`Kill`](FaultKind::Kill).
    ShortWrite,
    /// The write fails without touching the file (out of disk space).
    Enospc,
}

#[derive(Debug)]
struct FaultState {
    kind: FaultKind,
    trip_at: u64,
    seed: u64,
    ops: u64,
    tripped: Option<String>,
}

/// A seeded, single-trip fault plan (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    state: Arc<Mutex<FaultState>>,
}

/// What the builder should do at a fault point carrying payload bytes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// No fault here: perform the operation normally.
    Proceed,
    /// Write only the first `n` payload bytes, then fail.
    Short(usize),
    /// Fail without performing the operation.
    Fail,
}

impl FaultPlan {
    fn new(kind: FaultKind, trip_at: u64, seed: u64) -> FaultPlan {
        FaultPlan {
            state: Arc::new(Mutex::new(FaultState {
                kind,
                trip_at,
                seed,
                ops: 0,
                tripped: None,
            })),
        }
    }

    /// Crash (operation skipped) at fault point `k` (0-based).
    pub fn kill_at(k: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Kill, k, 0)
    }

    /// Torn write at fault point `k`: a seeded prefix of the payload
    /// lands before the failure.
    pub fn short_write_at(k: u64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::ShortWrite, k, seed)
    }

    /// Clean ENOSPC failure at fault point `k`.
    pub fn enospc_at(k: u64) -> FaultPlan {
        FaultPlan::new(FaultKind::Enospc, k, 0)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A poisoned lock only means another holder panicked mid-update;
        // the counters are plain integers, safe to keep reading.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of fault points the instrumented build has passed so far.
    /// A completed build with `tripped() == None` means `trip_at` was
    /// beyond the last point — the sweep is done.
    pub fn ops_seen(&self) -> u64 {
        self.lock().ops
    }

    /// The label of the point that tripped, if the plan has fired.
    pub fn tripped(&self) -> Option<String> {
        self.lock().tripped.clone()
    }

    /// Consults the plan at the fault point `label`, whose operation
    /// would write `payload_len` bytes (0 for pure barrier steps).
    pub(crate) fn decide(&self, label: &str, payload_len: usize) -> FaultDecision {
        let mut s = self.lock();
        let here = s.ops;
        s.ops += 1;
        if s.tripped.is_some() || here != s.trip_at {
            return FaultDecision::Proceed;
        }
        s.tripped = Some(label.to_string());
        match s.kind {
            FaultKind::Kill | FaultKind::Enospc => FaultDecision::Fail,
            FaultKind::ShortWrite => {
                if payload_len == 0 {
                    FaultDecision::Fail
                } else {
                    // Seeded splitmix-style mix of (seed, point index) —
                    // deterministic, and varies with both.
                    let mut z = s.seed ^ here.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    // lint: allow(cast, "z % payload_len < payload_len, which is itself a usize")
                    FaultDecision::Short((z % crate::num::to_u64(payload_len)) as usize)
                }
            }
        }
    }
}

/// The error every tripped fault surfaces as (an injected I/O failure).
pub(crate) fn injected(label: &str) -> crate::error::GraphError {
    crate::error::GraphError::Io {
        reason: format!("injected fault at point `{label}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_once_at_the_chosen_point() {
        let plan = FaultPlan::kill_at(2);
        assert_eq!(plan.decide("a", 0), FaultDecision::Proceed);
        assert_eq!(plan.decide("b", 0), FaultDecision::Proceed);
        assert_eq!(plan.decide("c", 0), FaultDecision::Fail);
        assert_eq!(plan.decide("d", 0), FaultDecision::Proceed);
        assert_eq!(plan.tripped().as_deref(), Some("c"));
        assert_eq!(plan.ops_seen(), 4);
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::enospc_at(0);
        let handle = plan.clone();
        assert_eq!(plan.decide("w", 8), FaultDecision::Fail);
        assert_eq!(handle.tripped().as_deref(), Some("w"));
        assert_eq!(handle.ops_seen(), 1);
    }

    #[test]
    fn short_writes_are_seeded_and_bounded() {
        for seed in 0..20u64 {
            let plan = FaultPlan::short_write_at(0, seed);
            match plan.decide("w", 100) {
                FaultDecision::Short(n) => assert!(n < 100),
                other => panic!("expected Short, got {other:?}"),
            }
            // Same seed, same decision.
            let again = FaultPlan::short_write_at(0, seed);
            assert_eq!(again.decide("w", 100), plan_decision(seed));
        }
    }

    fn plan_decision(seed: u64) -> FaultDecision {
        FaultPlan::short_write_at(0, seed).decide("w", 100)
    }

    #[test]
    fn short_write_on_barrier_degrades_to_fail() {
        let plan = FaultPlan::short_write_at(0, 7);
        assert_eq!(plan.decide("fsync", 0), FaultDecision::Fail);
    }
}
