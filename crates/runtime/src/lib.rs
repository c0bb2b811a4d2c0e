//! # decolor-runtime
//!
//! The **cost model** of the synchronous message-passing (LOCAL) model of
//! §1.1 of the paper: a communication network is a graph whose vertices
//! perform unrestricted local computation and exchange messages over
//! edges in discrete synchronized rounds; the running time is the number
//! of rounds.
//!
//! The central type is [`Network`], a ledger of [`NetworkStats`]
//! (rounds, messages, payload bytes) over any **topology** — an
//! implementor of the [`Topology`] trait (`GraphView`), i.e. a whole
//! [`Graph`](decolor_graph::Graph), a borrowed subgraph view served off a
//! parent CSR, or an out-of-core CSR. The algorithms in `decolor-core`
//! carry no messages: each computes a round's outcome in place, reading
//! its neighbors' values from a shared table, and charges that round's
//! cost by formula ([`Network::broadcast_cost`],
//! [`Network::charge_local_rounds`], [`Network::absorb_sequential`]).
//! Phases on disjoint subgraphs compose with
//! [`NetworkStats::in_parallel`] (rounds take the max) and sequential
//! phases with [`NetworkStats::then`] (everything adds). The reported
//! counts are therefore *modelled*; the outputs and the full ledger of
//! every paper algorithm are pinned by golden digests in `decolor-core`.
//!
//! [`IdAssignment`] supplies the model's distinct vertex identifiers.
//!
//! # Example
//!
//! ```rust
//! use decolor_graph::builder_from_edges;
//! use decolor_runtime::{Network, NetworkStats};
//!
//! let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
//! let mut net = Network::new(&g);
//! // One round in which every vertex tells each neighbor a `u32`: one
//! // message per (vertex, port) pair, 2m = 4 in all.
//! net.absorb_sequential(net.broadcast_cost::<u32>());
//! assert_eq!(
//!     net.stats(),
//!     NetworkStats { rounds: 1, messages: 4, payload_bytes: 16 }
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod metrics;
mod network;

pub use ids::IdAssignment;
pub use metrics::NetworkStats;
pub use network::Network;

/// The topology trait [`Network`] is generic over: `decolor_graph`'s
/// [`GraphView`](decolor_graph::subgraph::GraphView), satisfied by a
/// whole [`decolor_graph::Graph`] and by the borrowed subgraph views
/// (`EdgeSubgraphView`, `InducedSubgraphView`). Re-exported under the
/// runtime's name for it so callers can write `Network<'_, impl
/// Topology>` without reaching into the graph crate's module tree.
pub use decolor_graph::subgraph::GraphView as Topology;
