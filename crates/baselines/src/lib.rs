//! # decolor-baselines
//!
//! Baseline coloring algorithms the paper compares against (§1.4 and the
//! "previous results" columns of Tables 1–2):
//!
//! * [`greedy`] — centralized greedy vertex ((Δ+1) / (degeneracy+1)) and
//!   edge ((2Δ−1)) colorings: the color-count floor any distributed
//!   algorithm is measured against.
//! * [`misra_gries`] — the centralized Misra–Gries implementation of
//!   Vizing's theorem: every simple graph is (Δ+1)-edge-colorable \[36\].
//!   This is the "optimal colors, centralized" reference point.
//! * [`distributed`] — the distributed (2Δ−1)-edge-coloring in the
//!   Panconesi–Rizzi round-shape class \[33, 3, 17\], realized directly in
//!   edge space and, as its reference, through the line graph.
//! * [`randomized`] — a seeded Luby-style randomized (2Δ−1)-edge-coloring,
//!   the randomized contrast to the paper's deterministic algorithms.
//!
//! The distributed baselines charge their rounds and messages to the same
//! `decolor-runtime` cost ledger as the paper's algorithms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod greedy;
pub mod misra_gries;
pub mod randomized;
