//! # decolor
//!
//! Facade crate for the *decolor* workspace — a from-scratch reproduction
//! of **"Deterministic Distributed (Δ + o(Δ))-Edge-Coloring, and
//! Vertex-Coloring of Graphs with Bounded Diversity"** (Barenboim, Elkin,
//! Maimon; PODC 2017).
//!
//! Re-exports the substrate crates under stable module names:
//!
//! * [`graph`] — CSR graphs, generators, line graphs, clique covers.
//! * [`runtime`] — the LOCAL-model cost ledger (rounds, messages,
//!   payload bytes) and vertex identifier assignments.
//! * [`core`] — connectors and the paper's coloring algorithms.
//! * [`baselines`] — greedy, Misra–Gries, and the randomized and
//!   deterministic (2Δ−1) distributed baselines.
//!
//! # Quickstart
//!
//! ```rust
//! use decolor::graph::generators;
//! use decolor::core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::gnm(200, 800, 42)?;
//! let result = star_partition_edge_coloring(&g, &StarPartitionParams::for_levels(&g, 1))?;
//! assert!(result.coloring.is_proper(&g));
//! # Ok(())
//! # }
//! ```

pub use decolor_baselines as baselines;
pub use decolor_core as core;
pub use decolor_graph as graph;
pub use decolor_runtime as runtime;
