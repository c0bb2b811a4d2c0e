//! # decolor-graph
//!
//! Graph substrate for the `decolor` workspace — a from-scratch
//! reproduction of the data structures needed by *"Deterministic
//! Distributed (Δ + o(Δ))-Edge-Coloring, and Vertex-Coloring of Graphs
//! with Bounded Diversity"* (Barenboim, Elkin, Maimon; PODC 2017).
//!
//! The crate provides:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) undirected
//!   graph with stable vertex and edge identifiers ([`VertexId`],
//!   [`EdgeId`]), built through [`GraphBuilder`].
//! * Subgraph representations with back-mappings to the parent graph:
//!   borrowed activation-mask views served off the parent CSR
//!   ([`subgraph::GraphView`] — the topology trait the LOCAL cost
//!   ledger is generic over — [`subgraph::EdgeSubgraphView`],
//!   [`subgraph::VertexSubsetView`], [`subgraph::InducedSubgraphView`]),
//!   which every algorithm recursion runs on, and the materializing
//!   copies ([`subgraph::InducedSubgraph`],
//!   [`subgraph::SpanningEdgeSubgraph`]) the view tests compare them
//!   against.
//! * One coloring type with validation, [`coloring::Coloring`], for
//!   vertices ([`coloring::VertexColoring`]) and edges
//!   ([`coloring::EdgeColoring`]); the paper's `⟨ϕ, ψ⟩` pairing is
//!   `decolor_core`'s `product::color_classes`.
//! * Clique covers and the paper's *diversity* measure
//!   ([`cliques::CliqueCover`]).
//! * Line graphs of graphs and of c-uniform hypergraphs with consistent
//!   clique identification ([`line_graph`], [`hypergraph`]).
//! * Acyclic orientations and arboricity certificates ([`orientation`],
//!   [`properties`]).
//! * Deterministic workload generators ([`generators`]), with streaming
//!   `*_stream` variants that emit edges into any [`EdgeSink`].
//! * Out-of-core storage: [`storage::ShardedCsr`], a sharded mmap-backed
//!   CSR serving the same [`subgraph::GraphView`] interface bit-for-bit,
//!   built by the streaming [`storage::ShardedCsrBuilder`].
//!
//! # Example
//!
//! ```rust
//! use decolor_graph::{GraphBuilder, generators};
//!
//! # fn main() -> Result<(), decolor_graph::GraphError> {
//! // Hand-built triangle.
//! let mut b = GraphBuilder::new(3);
//! b.add_edge(0, 1)?;
//! b.add_edge(1, 2)?;
//! b.add_edge(0, 2)?;
//! let g = b.build();
//! assert_eq!(g.max_degree(), 2);
//!
//! // Generated workload.
//! let g = generators::gnm(1_000, 5_000, 42)?;
//! assert_eq!(g.num_vertices(), 1_000);
//! assert_eq!(g.num_edges(), 5_000);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod cliques;
pub mod coloring;
pub mod dot;
mod error;
pub mod generators;
mod graph;
pub mod hypergraph;
mod ids;
pub mod io;
pub mod line_graph;
pub mod num;
pub mod ops;
pub mod orientation;
pub mod properties;
pub mod storage;
pub mod subgraph;

pub use builder::{builder_from_edges, EdgeSink, GraphBuilder};
pub use error::GraphError;
pub use graph::Graph;
pub use ids::{EdgeId, VertexId};
