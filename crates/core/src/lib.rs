//! # decolor-core
//!
//! The paper's contribution: **connector-based deterministic distributed
//! coloring** (Barenboim, Elkin, Maimon; PODC 2017).
//!
//! * [`algorithms`] — the paper's six edge-coloring algorithms as one
//!   table: parameter schema, run entry point, palette bound and round
//!   shape, read by the CLI, the bench and the verifier.
//! * [`linial`] / [`reduction`] / [`delta_plus_one`] — the coloring
//!   subroutine stack standing in for the paper's black box \[17\].
//! * [`bitset`] — u64 palette-set kernels backing every hot mex loop
//!   (allocation-free color selection in the reductions and trims).
//! * [`edge_space`] — the same edge-coloring pipeline run directly on
//!   edge agents (no line-graph materialization), used by the (2Δ − 1)
//!   baseline at large Δ.
//! * [`connectors`] — the three connector constructions: clique connectors
//!   (§2), edge connectors (§4) and orientation connectors (§5).
//! * [`cd_coloring`] — Algorithm 1 (CD-Coloring) via clique
//!   decompositions; Theorems 2.4–3.3.
//! * [`star_partition`] — (2^{x+1}Δ)-edge-coloring via star partitions;
//!   Theorem 4.1.
//! * [`h_partition`] / [`crossing_merge`] / [`arboricity`] — H-partitions,
//!   Lemma 5.1, and the Δ + o(Δ) edge-colorings of Theorems 5.2–5.4 and
//!   Corollary 5.5.
//! * [`decomposition`] — Theorem 2.4 clique-decompositions and §4
//!   (p, q)-star-partitions as standalone verified objects, built by the
//!   CD-Coloring levels and the star-partition stages with a labelling
//!   leaf in place of the final coloring.
//! * [`checkpoint`] — durable round checkpoints letting killed chunked
//!   (out-of-core) runs resume mid-algorithm, byte-identically.
//! * [`analysis`] — the paper's analytic color/round formulas (Tables
//!   1–2), printed next to measured values by the bench harness.
//! * [`verify`] — certificate checks turning the paper's bounds into
//!   auditable reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod analysis;
pub mod arboricity;
pub mod bitset;
pub mod cd_coloring;
pub mod checkpoint;
pub mod connectors;
pub mod crossing_merge;
pub mod decomposition;
pub mod delta_plus_one;
pub mod edge_space;
mod error;
pub mod h_partition;
pub mod linial;
mod product;
pub mod reduction;
pub mod star_partition;
pub mod util;
pub mod verify;

pub use error::AlgoError;
