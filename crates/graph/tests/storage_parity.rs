//! Streaming/out-of-core parity: the shard-streamed builds must be
//! **byte-identical** — CSR incidence arrays, endpoint table, and degree
//! sequence — to the one-shot in-memory builds, at any worker-pool size.

use decolor_graph::storage::{ScratchDir, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{generators, EdgeId, Graph, Relabeling, VertexId};
use proptest::prelude::*;

fn scratch(tag: &str) -> ScratchDir {
    ScratchDir::new(&std::env::temp_dir(), &format!("decolor-parity-{tag}"))
}

/// Asserts the topology `sc` (a sharded store or a view) serves exactly
/// `g`'s CSR: degrees, adjacency slots (incidence order included), the
/// port table, and endpoints.
fn assert_csr_identical(sc: &impl GraphView, g: &Graph) {
    assert_eq!(sc.num_vertices(), g.num_vertices());
    assert_eq!(sc.num_edges(), g.num_edges());
    assert_eq!(sc.max_degree(), g.max_degree());
    for v in g.vertices() {
        assert_eq!(sc.degree(v), g.degree(v), "degree of {v}");
        let mut edges = Vec::new();
        sc.for_each_incident_edge(v, |e| edges.push(e));
        assert_eq!(
            edges,
            g.incident_edges(v).collect::<Vec<_>>(),
            "incident edges of {v}"
        );
        let mut ports = Vec::new();
        sc.for_each_port(v, |u, e| ports.push((u, e)));
        assert_eq!(ports, g.incidence(v).to_vec(), "incidence run of {v}");
        for (p, &pair) in g.incidence(v).iter().enumerate() {
            assert_eq!(sc.port(v, p), Some(pair), "port {p} of {v}");
        }
        assert_eq!(sc.port(v, g.degree(v)), None, "past the ports of {v}");
    }
    for (e, ep) in g.edge_list() {
        assert_eq!(sc.endpoints(e), ep, "endpoints of {e}");
    }
}

/// Streams `stream(sink)` into an on-disk builder with small shards (so
/// runs straddle shard files) and checks the result against `reference`.
fn check_stream(
    tag: &str,
    n: usize,
    reference: &Graph,
    stream: impl Fn(&mut ShardedCsrBuilder) -> Result<(), decolor_graph::GraphError>,
) {
    let dir = scratch(tag);
    let mut b = ShardedCsrBuilder::with_shard_bits(&dir, n, 8).unwrap();
    stream(&mut b).unwrap();
    let sc = b.finish().unwrap();
    assert_csr_identical(&sc, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Shard-streamed random_regular ≡ one-shot, at 1 and 4 workers.
    #[test]
    fn random_regular_stream_parity(seed in 0u64..200, d in 2usize..7) {
        let n = 120 + (seed as usize % 3); // even nd guaranteed below
        let n = if (n * d) % 2 == 1 { n + 1 } else { n };
        for threads in [1usize, 4] {
            rayon::with_num_threads(threads, || {
                let g = generators::random_regular(n, d, seed).unwrap();
                check_stream(
                    &format!("regular-{seed}-{d}-{threads}"),
                    n,
                    &g,
                    |sink| generators::random_regular_stream(n, d, seed, sink),
                );
            });
        }
    }

    /// Shard-streamed gnp ≡ one-shot.
    #[test]
    fn gnp_stream_parity(seed in 0u64..200) {
        let n = 150usize;
        let p = 0.05;
        for threads in [1usize, 4] {
            rayon::with_num_threads(threads, || {
                let g = generators::gnp(n, p, seed).unwrap();
                check_stream(&format!("gnp-{seed}-{threads}"), n, &g, |sink| {
                    generators::gnp_stream(n, p, seed, sink)
                });
            });
        }
    }
}

#[test]
fn hypercube_and_grid_stream_parity() {
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let g = generators::hypercube(7).unwrap();
            check_stream(&format!("cube-{threads}"), 128, &g, |sink| {
                generators::hypercube_stream(7, sink)
            });
            let g = generators::grid(17, 23).unwrap();
            check_stream(&format!("grid-{threads}"), 17 * 23, &g, |sink| {
                generators::grid_stream(17, 23, sink)
            });
        });
    }
}

#[test]
fn relabeling_sink_over_sharded_builder_matches_spilled_relayout() {
    // The streamed relayout seam: pushing edges through
    // `Relabeling::sink` into a ShardedCsrBuilder must serve the same
    // CSR as materializing `apply_to_graph` in RAM and spilling it —
    // at both pool widths, since both builds cross the parallel seams.
    let g = generators::forest_union(200, 2, 7, 13).unwrap();
    let relab = Relabeling::by_degree_classes(&g).unwrap();
    let relaid = relab.apply_to_graph(&g).unwrap();
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let dir = scratch(&format!("relabel-sink-{threads}"));
            let mut b = ShardedCsrBuilder::with_shard_bits(&dir, g.num_vertices(), 8).unwrap();
            {
                let mut sink = relab.sink(&mut b);
                for (_, [u, v]) in g.edge_list() {
                    decolor_graph::EdgeSink::add_edge(&mut sink, u.index(), v.index()).unwrap();
                }
            }
            let sc = b.finish().unwrap();
            assert_csr_identical(&sc, &relaid);
            drop(sc);
        });
    }
}

#[test]
fn spilled_graph_round_trips_through_open() {
    let g = generators::forest_union(300, 2, 8, 11).unwrap();
    let dir = scratch("spill-open");
    let sc = ShardedCsr::from_graph(&dir, &g).unwrap();
    assert_csr_identical(&sc, &g);
    drop(sc);
    let reopened = ShardedCsr::open(&dir).unwrap();
    assert_csr_identical(&reopened, &g);
}

#[test]
fn views_borrow_a_sharded_parent() {
    // The genericized views must answer identically over a ShardedCsr
    // parent and over the in-memory parent.
    use decolor_graph::subgraph::{EdgeSubgraphView, InducedSubgraphView, SpanningEdgeSubgraph};
    let g = generators::gnm(80, 300, 5).unwrap();
    let dir = scratch("views");
    let sc = ShardedCsr::from_graph(&dir, &g).unwrap();

    // A color-class shape, which leaves some vertices isolated, and the
    // empty view; the materialized subgraph is the oracle for both parents.
    let every_third: Vec<EdgeId> = g.edges().filter(|e| e.index() % 3 == 0).collect();
    for subset in [every_third, vec![]] {
        let oracle = SpanningEdgeSubgraph::new(&g, &subset);
        assert!(g.vertices().any(|v| oracle.graph().degree(v) == 0));
        assert_csr_identical(
            &EdgeSubgraphView::new(&g, subset.clone()).unwrap(),
            oracle.graph(),
        );
        assert_csr_identical(&EdgeSubgraphView::new(&sc, subset).unwrap(), oracle.graph());
    }

    let vertices: Vec<VertexId> = g.vertices().filter(|v| v.index() % 2 == 0).collect();
    let ram = InducedSubgraphView::new(&g, vertices.clone()).unwrap();
    let mmap = InducedSubgraphView::new(&sc, vertices).unwrap();
    assert_eq!(GraphView::num_edges(&ram), GraphView::num_edges(&mmap));
    for lv in 0..GraphView::num_vertices(&ram) {
        let v = VertexId::new(lv);
        assert_eq!(ram.incidence(v), mmap.incidence(v), "induced ports of {v}");
    }
}

#[test]
fn has_parallel_edges_on_every_topology() {
    use decolor_graph::subgraph::EdgeSubgraphView;
    use decolor_graph::GraphBuilder;
    // A multigraph whose only parallel pair is edges 2 and 5 = {1, 3},
    // listed with opposite orientations.
    let mut b = GraphBuilder::new_multi(6);
    for (u, v) in [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (3, 1), (0, 5)] {
        b.add_edge(u, v).unwrap();
    }
    let multi = b.build();
    let simple = generators::gnm(40, 120, 9).unwrap();
    assert!(multi.has_parallel_edges());
    assert!(GraphView::has_parallel_edges(&multi));
    assert!(!simple.has_parallel_edges());
    assert!(!GraphBuilder::new_multi(3).build().has_parallel_edges());

    // Views: keeping both copies is parallel, keeping one is not.
    let ids = |raw: &[usize]| raw.iter().map(|&e| EdgeId::new(e)).collect::<Vec<_>>();
    let both = EdgeSubgraphView::new(&multi, ids(&[2, 4, 5])).unwrap();
    let one = EdgeSubgraphView::new(&multi, ids(&[0, 1, 2, 3, 4, 6])).unwrap();
    assert!(both.has_parallel_edges());
    assert!(!one.has_parallel_edges());
    assert!(!EdgeSubgraphView::full(&simple).has_parallel_edges());

    for (tag, g, want) in [("multi", &multi, true), ("simple", &simple, false)] {
        let dir = scratch(&format!("parallel-{tag}"));
        let sc = ShardedCsr::from_graph(&dir, g).unwrap();
        assert_eq!(sc.has_parallel_edges(), want, "{tag} store");
        assert_eq!(
            EdgeSubgraphView::new(&sc, ids(&[2, 4, 5]))
                .unwrap()
                .has_parallel_edges(),
            want,
            "{tag} store view"
        );
    }
}
