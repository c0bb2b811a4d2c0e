//! The round/message ledger of a LOCAL execution.

use decolor_graph::num;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{Graph, VertexId};

use crate::metrics::NetworkStats;

/// The cost ledger of a LOCAL execution over a **topology** — any
/// implementor of [`GraphView`] (re-exported from this crate as
/// [`Topology`](crate::Topology)): a whole [`Graph`], a borrowed
/// edge-subset view (`EdgeSubgraphView`), a borrowed induced-subgraph
/// view (`InducedSubgraphView`) or an out-of-core CSR. Recursive
/// pipelines charge a color class's rounds directly on an
/// activation-bitset view of a parent CSR — no per-class graph is
/// materialized.
///
/// No message is carried: an algorithm computes each round's outcome in
/// place (every vertex reads its neighbors' values from a shared table,
/// which is exactly what one LOCAL round delivers) and charges what the
/// round costs — [`Network::broadcast_cost`] for a round in which every
/// vertex sends one value on each port, [`Network::charge_local_rounds`]
/// for message-free bookkeeping rounds, [`Network::absorb_sequential`]
/// for a phase whose cost was computed elsewhere.
#[derive(Debug)]
pub struct Network<'g, V: GraphView = Graph> {
    graph: &'g V,
    stats: NetworkStats,
}

impl<'g, V: GraphView> Network<'g, V> {
    /// Wraps a topology in a ledger with zeroed statistics. O(1).
    pub fn new(graph: &'g V) -> Self {
        Network {
            graph,
            stats: NetworkStats::default(),
        }
    }

    /// The underlying topology (the graph itself for `Network<Graph>`).
    #[inline]
    pub fn graph(&self) -> &'g V {
        self.graph
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// What one round in which every vertex sends one `M` value on
    /// **all** its ports costs: one round and one `size_of::<M>()`-byte
    /// message per (vertex, port) pair, i.e. `Σ deg` messages. Pipelines
    /// that read the neighbors' values from a shared table charge this
    /// with [`Network::absorb_sequential`].
    pub fn broadcast_cost<M>(&self) -> NetworkStats {
        let messages: u64 = (0..self.graph.num_vertices())
            .map(|v| num::to_u64(self.graph.degree(VertexId::new(v))))
            .sum();
        NetworkStats {
            rounds: 1,
            messages,
            payload_bytes: messages * num::to_u64(std::mem::size_of::<M>()),
        }
    }

    /// Charges `rounds` of *local restructuring* to the ledger without
    /// exchanging messages — the paper's "performed in O(1) rounds"
    /// bookkeeping for connector constructions and virtual-vertex setup.
    pub fn charge_local_rounds(&mut self, rounds: u64) {
        self.stats.rounds += rounds;
    }

    /// Absorbs statistics of a phase run *sequentially after* the work
    /// recorded so far.
    pub fn absorb_sequential(&mut self, phase: NetworkStats) {
        self.stats = self.stats.then(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::storage::{ScratchDir, ShardedCsr};
    use decolor_graph::subgraph::{EdgeSubgraphView, InducedSubgraphView};
    use decolor_graph::{generators, EdgeId};

    /// `broadcast_cost::<M>()` is `(1, Σ deg, Σ deg · size_of::<M>())`
    /// on every topology, with `Σ deg` read off the parent graph's edge
    /// list rather than the topology's own degrees.
    #[test]
    fn broadcast_cost_is_one_round_of_sum_deg_messages() {
        fn check<V: GraphView>(name: &str, topology: &V, sum_deg: u64) {
            let net = Network::new(topology);
            assert_eq!(
                net.broadcast_cost::<Vec<u32>>(),
                NetworkStats {
                    rounds: 1,
                    messages: sum_deg,
                    payload_bytes: sum_deg * std::mem::size_of::<Vec<u32>>() as u64,
                },
                "{name}"
            );
            assert_eq!(
                net.broadcast_cost::<u8>(),
                NetworkStats {
                    rounds: 1,
                    messages: sum_deg,
                    payload_bytes: sum_deg,
                },
                "{name}"
            );
        }
        let g = generators::barabasi_albert(200, 3, 4).unwrap();
        check("graph", &g, 2 * g.num_edges() as u64);

        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 != 0).collect();
        let kept = 2 * class.len() as u64;
        let view = EdgeSubgraphView::new(&g, class).unwrap();
        check("edge view", &view, kept);

        let inside = |v: VertexId| v.index() % 4 != 1;
        let induced = 2 * g
            .edge_list()
            .filter(|(_, [u, v])| inside(*u) && inside(*v))
            .count() as u64;
        let view =
            InducedSubgraphView::new(&g, g.vertices().filter(|&v| inside(v)).collect()).unwrap();
        check("induced view", &view, induced);

        let dir = ScratchDir::new(&std::env::temp_dir(), "decolor-bcost");
        let csr = ShardedCsr::from_graph(&dir, &g).unwrap();
        check("sharded csr", &csr, 2 * g.num_edges() as u64);
    }

    #[test]
    fn local_rounds_are_charged() {
        let g = generators::path(3).unwrap();
        let mut net = Network::new(&g);
        net.charge_local_rounds(3);
        assert_eq!(net.stats().rounds, 3);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn absorb_compositions() {
        let g = generators::path(3).unwrap();
        let mut net = Network::new(&g);
        net.charge_local_rounds(2);
        net.absorb_sequential(NetworkStats::in_parallel([
            NetworkStats {
                rounds: 5,
                messages: 1,
                payload_bytes: 4,
            },
            NetworkStats {
                rounds: 2,
                messages: 1,
                payload_bytes: 4,
            },
        ]));
        assert_eq!(
            net.stats(),
            NetworkStats {
                rounds: 7,
                messages: 2,
                payload_bytes: 8,
            }
        );
        net.absorb_sequential(net.broadcast_cost::<u32>());
        assert_eq!(
            net.stats(),
            NetworkStats {
                rounds: 8,
                messages: 6,
                payload_bytes: 24,
            }
        );
    }
}
