//! The topology-generic [`Network`] must behave **bit-identically** on a
//! borrowed subgraph view and on the materialized subgraph the view
//! stands for: same inboxes, same port tags, same port table answers,
//! same [`NetworkStats`] ledger. This is the foundation the view-generic
//! pipelines (CD-Coloring, Theorems 5.2–5.4) rest on. The ledger
//! charge a pipeline books for an in-place broadcast
//! ([`Network::broadcast_cost`]) is pinned here against the real
//! exchange on each topology.

use decolor_graph::storage::ShardedCsr;
use decolor_graph::subgraph::{
    EdgeSubgraphView, GraphView, InducedSubgraph, InducedSubgraphView, SpanningEdgeSubgraph,
};
use decolor_graph::{generators, EdgeId, Graph, VertexId};
use decolor_runtime::Network;
use proptest::prelude::*;

/// Collects every vertex's `(port, message)` inbox rows from a buffer.
fn rows<V: GraphView, M: Clone + std::fmt::Debug + PartialEq>(
    net: &Network<'_, V>,
    buf: &decolor_runtime::RoundBuffer<M>,
) -> Vec<Vec<(usize, M)>> {
    (0..net.graph().num_vertices())
        .map(|v| {
            buf.inbox(VertexId::new(v))
                .map(|(p, m)| (p, m.clone()))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Broadcast, active-set broadcast, edge exchange, and the port table
    /// agree between an [`EdgeSubgraphView`] and the materialized
    /// [`SpanningEdgeSubgraph`] of the same class.
    #[test]
    fn edge_view_network_matches_materialized(seed in 0u64..500, modulus in 2usize..5) {
        let g = generators::gnm(40, 140, seed).unwrap();
        let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % modulus == 0).collect();
        let sub = SpanningEdgeSubgraph::new(&g, &class);
        let view = EdgeSubgraphView::new(&g, class).unwrap();

        let mut net_view = Network::new(&view);
        let mut net_mat = Network::new(sub.graph());
        let values: Vec<u64> = (0..g.num_vertices() as u64).map(|v| v * 7 + 1).collect();

        // Full broadcast.
        let mut buf_view = net_view.make_buffer();
        let mut buf_mat = net_mat.make_buffer();
        net_view.broadcast_into(&values, &mut buf_view).unwrap();
        net_mat.broadcast_into(&values, &mut buf_mat).unwrap();
        prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());

        // Active-set broadcast (odd vertices only) — exercises the lazy
        // port table.
        let active: Vec<VertexId> = g.vertices().filter(|v| v.index() % 2 == 1).collect();
        net_view
            .broadcast_on_active_into(&values, &active, &mut buf_view)
            .unwrap();
        net_mat
            .broadcast_on_active_into(&values, &active, &mut buf_mat)
            .unwrap();
        prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());

        // The port table itself.
        for e in (0..view.num_edges()).map(EdgeId::new) {
            let [u, v] = GraphView::endpoints(&view, e);
            prop_assert_eq!(net_view.port_of(u, e).unwrap(), net_mat.port_of(u, e).unwrap());
            prop_assert_eq!(net_view.port_of(v, e).unwrap(), net_mat.port_of(v, e).unwrap());
        }
    }

    /// Broadcast and exchange agree between an [`InducedSubgraphView`]
    /// and the materialized [`InducedSubgraph`] of the same class.
    #[test]
    fn induced_view_network_matches_materialized(seed in 0u64..500, modulus in 2usize..5) {
        let g = generators::gnm(36, 120, seed).unwrap();
        let subset: Vec<VertexId> = g.vertices().filter(|v| v.index() % modulus != 1).collect();
        let sub = InducedSubgraph::new(&g, &subset);
        let view = InducedSubgraphView::new(&g, subset).unwrap();
        let k = view.num_vertices();
        prop_assert_eq!(k, sub.graph().num_vertices());

        let mut net_view = Network::new(&view);
        let mut net_mat = Network::new(sub.graph());
        let values: Vec<u32> = (0..k as u32).map(|v| v * 3 + 2).collect();

        let mut buf_view = net_view.make_buffer();
        let mut buf_mat = net_mat.make_buffer();
        for round in 0..3u32 {
            let vals: Vec<u32> = values.iter().map(|&v| v + round).collect();
            net_view.broadcast_into(&vals, &mut buf_view).unwrap();
            net_mat.broadcast_into(&vals, &mut buf_mat).unwrap();
            prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
            prop_assert_eq!(net_view.stats(), net_mat.stats());
        }

        // Point-to-point: every vertex sends on its even ports.
        let outbox: Vec<Vec<(usize, u32)>> = (0..k)
            .map(|v| {
                (0..GraphView::degree(&view, VertexId::new(v)))
                    .step_by(2)
                    .map(|p| (p, (v * 100 + p) as u32))
                    .collect()
            })
            .collect();
        net_view.exchange_into(&outbox, &mut buf_view).unwrap();
        net_mat.exchange_into(&outbox, &mut buf_mat).unwrap();
        prop_assert_eq!(rows(&net_view, &buf_view), rows(&net_mat, &buf_mat));
        prop_assert_eq!(net_view.stats(), net_mat.stats());
    }
}

/// A full edge view over the whole graph is indistinguishable from the
/// graph itself — including the inboxes of a mixed exchange round.
#[test]
fn full_view_is_the_graph() {
    let g: Graph = generators::random_regular(30, 6, 3).unwrap();
    let view = EdgeSubgraphView::full(&g);
    let mut net_g = Network::new(&g);
    let mut net_v = Network::new(&view);
    let values: Vec<u16> = (0..30u16).collect();
    let mut buf_g = net_g.make_buffer();
    let mut buf_v = net_v.make_buffer();
    net_g.broadcast_into(&values, &mut buf_g).unwrap();
    net_v.broadcast_into(&values, &mut buf_v).unwrap();
    assert_eq!(rows(&net_g, &buf_g), rows(&net_v, &buf_v));
    assert_eq!(net_g.stats(), net_v.stats());
}

/// `broadcast_cost` is exactly what one real `broadcast_into` adds to the
/// ledger, on every topology: a whole graph, an edge-subset view and the
/// out-of-core sharded CSR.
#[test]
fn broadcast_cost_matches_a_real_broadcast() {
    fn check<V: GraphView, M: Clone + Default>(name: &str, topology: &V, values: &[M]) {
        let mut net = Network::new(topology);
        let mut buf = net.make_buffer::<M>();
        // A non-empty ledger first: the cost is a delta, not a total.
        net.broadcast_into(values, &mut buf).unwrap();
        let before = net.stats();
        let cost = net.broadcast_cost::<M>();
        net.broadcast_into(values, &mut buf).unwrap();
        let after = net.stats();
        assert_eq!(cost.rounds, after.rounds - before.rounds, "{name}: rounds");
        assert_eq!(
            cost.messages,
            after.messages - before.messages,
            "{name}: messages"
        );
        assert_eq!(
            cost.payload_bytes,
            after.payload_bytes - before.payload_bytes,
            "{name}: payload bytes"
        );
    }
    let g = generators::barabasi_albert(200, 3, 4).unwrap();
    let lists: Vec<Vec<u32>> = (0..200u32).map(|v| (0..v % 5).collect()).collect();
    let words: Vec<u64> = (0..200u64).collect();
    let class: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 != 0).collect();
    let view = EdgeSubgraphView::new(&g, class).unwrap();
    let dir = std::env::temp_dir().join(format!("decolor-bcost-{}", std::process::id()));
    let csr = ShardedCsr::from_graph(&dir, &g).unwrap();
    check("graph", &g, &lists);
    check("graph", &g, &words);
    check("edge view", &view, &lists);
    check("edge view", &view, &words);
    check("sharded csr", &csr, &lists);
    check("sharded csr", &csr, &words);
    drop(csr);
    std::fs::remove_dir_all(&dir).unwrap();
}
