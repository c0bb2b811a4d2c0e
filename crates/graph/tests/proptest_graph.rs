//! Property-based tests of the graph substrate.

use decolor_graph::coloring::{EdgeColoring, VertexColoring};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::orientation::Orientation;
use decolor_graph::subgraph::{InducedSubgraph, SpanningEdgeSubgraph, VertexSubsetView};
use decolor_graph::{generators, properties, EdgeId, VertexId};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR invariants: degree sums, incidence symmetry.
    #[test]
    fn csr_consistency(n in 2usize..60, seed in 0u64..1000) {
        let max_m = n * (n - 1) / 2;
        let m = (seed as usize * 7) % (max_m + 1);
        let g = generators::gnm(n, m, seed).unwrap();
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        for v in g.vertices() {
            for &(u, e) in g.incidence(v) {
                prop_assert_eq!(g.other_endpoint(e, v).unwrap(), u);
                prop_assert!(g.incidence(u).iter().any(|&(w, f)| w == v && f == e));
            }
        }
    }

    /// Induced subgraphs preserve adjacency exactly.
    #[test]
    fn induced_subgraph_adjacency(seed in 0u64..500, keep in 1usize..30) {
        let g = generators::gnm(30, 120, seed).unwrap();
        let vertices: Vec<VertexId> = (0..keep).map(VertexId::new).collect();
        let sub = InducedSubgraph::new(&g, &vertices);
        for (le, [lu, lv]) in sub.graph().edge_list() {
            let pu = sub.to_parent_vertex(lu);
            let pv = sub.to_parent_vertex(lv);
            prop_assert!(g.has_edge(pu, pv));
            let pe = sub.to_parent_edge(le);
            let [a, b] = g.endpoints(pe);
            prop_assert!((a == pu && b == pv) || (a == pv && b == pu));
        }
        let inside = g
            .edge_list()
            .filter(|&(_, [u, v])| u.index() < keep && v.index() < keep)
            .count();
        prop_assert_eq!(inside, sub.graph().num_edges());
    }

    /// Cover restriction composes: restricting a line graph's cover
    /// straight to a subset view of the root equals restricting it level
    /// by level through two nested induced subgraphs, the way a class
    /// recursion descends. CD-Coloring and the clique decomposition rely
    /// on this to restrict the root cover once per class.
    #[test]
    fn restriction_composes(seed in 0u64..500, salt in 1u64..97) {
        let lg = LineGraph::new(&generators::random_regular(24, 6, seed).unwrap());
        let hash = |v: &VertexId| (v.index() as u64).wrapping_mul(salt + 2 * seed) % 7;
        let outer: Vec<VertexId> = lg.graph.vertices().filter(|v| hash(v) < 5).collect();
        let inner: Vec<VertexId> = outer.iter().copied().filter(|v| hash(v) < 3).collect();

        let outer_sub = InducedSubgraph::new(&lg.graph, &outer);
        let inner_local: Vec<VertexId> =
            inner.iter().map(|&v| outer_sub.from_parent_vertex(v).unwrap()).collect();
        let inner_sub = InducedSubgraph::new(outer_sub.graph(), &inner_local);
        let stepwise = lg.cover.restrict(&outer_sub).restrict(&inner_sub);

        let view = VertexSubsetView::new(&lg.graph, inner).unwrap();
        let direct = lg.cover.restrict_to_subset(&view);
        prop_assert_eq!(
            direct.cliques().collect::<Vec<_>>(),
            stepwise.cliques().collect::<Vec<_>>()
        );
        prop_assert_eq!(direct.diversity(), stepwise.diversity());
    }

    /// Spanning edge subgraphs are exactly the requested edges.
    #[test]
    fn spanning_subgraph_roundtrip(seed in 0u64..500) {
        let g = generators::gnm(25, 80, seed).unwrap();
        let picked: Vec<EdgeId> =
            g.edges().filter(|e| e.index() % 3 == (seed % 3) as usize).collect();
        let sub = SpanningEdgeSubgraph::new(&g, &picked);
        prop_assert_eq!(sub.graph().num_edges(), picked.len());
        for (i, &e) in picked.iter().enumerate() {
            prop_assert_eq!(sub.to_parent_edge(EdgeId::new(i)), e);
            prop_assert_eq!(sub.graph().endpoints(EdgeId::new(i)), g.endpoints(e));
        }
    }

    /// Degeneracy ordering certifies itself; forest decomposition covers.
    #[test]
    fn degeneracy_and_forests(seed in 0u64..500, m in 10usize..200) {
        let g = generators::gnm(40, m.min(40 * 39 / 2), seed).unwrap();
        let ord = properties::degeneracy_ordering(&g);
        for v in g.vertices() {
            let later = g.neighbors(v).filter(|u| ord.rank[u.index()] > ord.rank[v.index()]).count();
            prop_assert!(later <= ord.degeneracy);
        }
        let forests = properties::forest_decomposition(&g);
        let total: usize = forests.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_edges());
        for f in &forests {
            let sub = SpanningEdgeSubgraph::new(&g, f);
            prop_assert!(properties::is_forest(sub.graph()));
        }
    }

    /// Orientation from any rank vector is acyclic.
    #[test]
    fn rank_orientations_acyclic(seed in 0u64..500, salt in 0u64..97) {
        let g = generators::gnm(30, 100, seed).unwrap();
        let rank: Vec<u64> = (0..30).map(|v| (v as u64 * salt) % 13).collect();
        let o = Orientation::from_rank(&g, &rank);
        prop_assert!(o.is_acyclic(&g));
        let out_sum: usize = g.vertices().map(|v| o.out_degree(&g, v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
    }

    /// Product coloring with a proper outer factor is proper.
    #[test]
    fn product_coloring_properness(seed in 0u64..500) {
        let g = generators::gnm(20, 60, seed).unwrap();
        let inner = VertexColoring::new((0..20).map(|v| (v % 2) as u32).collect(), 2).unwrap();
        let mut colors = vec![u32::MAX; 20];
        let palette = g.max_degree() as u32 + 1;
        for v in g.vertices() {
            let used: std::collections::HashSet<u32> = g
                .neighbors(v)
                .filter(|u| colors[u.index()] != u32::MAX)
                .map(|u| colors[u.index()])
                .collect();
            colors[v.index()] = (0..=palette).find(|c| !used.contains(c)).unwrap();
        }
        let outer = VertexColoring::new(colors, u64::from(palette) + 1).unwrap();
        prop_assert!(outer.is_proper(&g));
        let prod = inner.product(&outer);
        prop_assert!(prod.is_proper(&g));
        prop_assert_eq!(prod.palette(), 2 * (u64::from(palette) + 1));
    }

    /// Classes of a proper edge coloring are matchings.
    #[test]
    fn proper_edge_classes_are_matchings(seed in 0u64..300) {
        let g = generators::gnm(25, 70, seed).unwrap();
        let ec = EdgeColoring::new(
            (0..g.num_edges() as u32).collect(),
            g.num_edges().max(1) as u64,
        )
        .unwrap();
        prop_assert!(ec.is_proper(&g));
        for class in ec.classes() {
            let mut seen = std::collections::HashSet::new();
            for e in class {
                let [u, v] = g.endpoints(e);
                prop_assert!(seen.insert(u));
                prop_assert!(seen.insert(v));
            }
        }
    }
}
