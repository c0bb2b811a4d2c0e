//! Backend equivalence: every pipeline must be **bit-identical** between
//! the in-memory `Graph` and the out-of-core mmap `ShardedCsr` backend —
//! colorings, palettes, rounds, and full `NetworkStats` — at
//! `DECOLOR_THREADS ∈ {1, 4}` (the `with_num_threads` hook stands in for
//! the environment knob). The Linial rows additionally pin the chunked
//! streaming realization against the `Network` one.

use decolor_core::algorithms::Algorithm;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::linial::{linial_coloring, linial_coloring_chunked};
use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor_graph::line_graph::LineGraph;
use decolor_graph::storage::{ScratchDir, ShardedCsr};
use decolor_graph::{generators, Graph};
use decolor_runtime::{IdAssignment, Network};

/// Spills `g` to `store/` under a fresh scratch root, removed when the
/// guard (bound first, so it drops after the store) goes out of scope;
/// derived graphs go to `scratch/` beside the store.
fn spill(tag: &str, g: &Graph) -> (ScratchDir, ShardedCsr) {
    let dir = ScratchDir::new(&std::env::temp_dir(), &format!("decolor-backend-{tag}"));
    let sc = ShardedCsr::from_graph(dir.join("store"), g).unwrap();
    (dir, sc)
}

#[test]
fn linial_mmap_and_chunked_match_ram_network() {
    let g = generators::random_regular(600, 8, 1).unwrap();
    let ids = IdAssignment::sparse(600, 1 << 10, 2);
    let (_dir, sc) = spill("linial", &g);
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let mut net = Network::new(&g);
            let reference = linial_coloring(&mut net, &ids).unwrap();
            let ref_stats = net.stats();

            // The Network ledger over the mmap backend.
            let mut net_sc = Network::new(&sc);
            let on_mmap = linial_coloring(&mut net_sc, &ids).unwrap();
            assert_eq!(
                on_mmap.coloring.as_slice(),
                reference.coloring.as_slice(),
                "Network-on-mmap coloring diverges at {threads} threads"
            );
            assert_eq!(on_mmap.palette_trace, reference.palette_trace);
            assert_eq!(net_sc.stats(), ref_stats);

            // The chunked streaming realization over both backends.
            for (name, chunked) in [
                ("ram", linial_coloring_chunked(&g, &ids, None, None)),
                ("mmap", linial_coloring_chunked(&sc, &ids, None, None)),
            ] {
                let out = chunked.unwrap();
                let (res, stats) = (out.result, out.stats);
                assert_eq!(
                    res.coloring.as_slice(),
                    reference.coloring.as_slice(),
                    "chunked-{name} coloring diverges at {threads} threads"
                );
                assert_eq!(res.coloring.palette(), reference.coloring.palette());
                assert_eq!(res.palette_trace, reference.palette_trace);
                assert_eq!(stats, ref_stats, "chunked-{name} ledger diverges");
            }
        });
    }
}

#[test]
fn star_partition_mmap_matches_ram() {
    let g = generators::random_regular(256, 16, 5).unwrap();
    let (_dir, sc) = spill("star", &g);
    let params = StarPartitionParams::for_levels(&g, 1);
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let ram = star_partition_edge_coloring(&g, &params).unwrap();
            let mmap = star_partition_edge_coloring(&sc, &params).unwrap();
            assert_eq!(
                mmap.coloring.as_slice(),
                ram.coloring.as_slice(),
                "star coloring diverges at {threads} threads"
            );
            assert_eq!(mmap.coloring.palette(), ram.coloring.palette());
            assert_eq!(mmap.untrimmed_palette, ram.untrimmed_palette);
            assert_eq!(mmap.stats, ram.stats, "star ledger diverges");
        });
    }
}

/// The streamed (spilled-connector) star path against the fully in-RAM
/// one, with the mmap CSR as the root view: top-level connector colors,
/// palettes, trims, and the full message ledger must be bit-identical,
/// and the connector scratch must be gone afterwards.
#[test]
fn star_spilled_connector_matches_materialized() {
    let g = generators::random_regular(256, 16, 5).unwrap();
    let (dir, sc) = spill("star-spill", &g);
    let params = StarPartitionParams::for_levels(&g, 1);
    let scratch = dir.join("scratch");
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let ram = star_partition_edge_coloring(&g, &params).unwrap();
            let (spilled, stats) = Algorithm::Star { x: 1 }.run(&sc, Some(&scratch)).unwrap();
            assert_eq!(
                spilled.as_slice(),
                ram.coloring.as_slice(),
                "spilled star coloring diverges at {threads} threads"
            );
            assert_eq!(spilled.palette(), ram.coloring.palette());
            assert_eq!(stats, ram.stats, "spilled star ledger diverges");
            let left = std::fs::read_dir(&scratch).map_or(0, Iterator::count);
            assert_eq!(left, 0, "connector scratch survived");
        });
    }
}

/// Every paper algorithm through the [`Algorithm`] table: the mmap root
/// with scratch (star streams its top-level connector, cd its line graph)
/// against the in-RAM run. Colorings, palettes and full ledgers must be
/// bit-identical, and the derived-graph scratch must be gone afterwards.
#[test]
fn paper_algorithms_on_mmap_match_ram() {
    let cases = [
        (
            generators::random_regular(256, 16, 5).unwrap(),
            vec![Algorithm::Star { x: 1 }],
        ),
        (
            generators::random_regular(64, 8, 1).unwrap(),
            vec![Algorithm::Cd { x: 1 }],
        ),
        (
            generators::forest_union(500, 2, 10, 3).unwrap(),
            Algorithm::all()
                .into_iter()
                .filter(|a| !matches!(a, Algorithm::Star { .. } | Algorithm::Cd { .. }))
                .collect(),
        ),
    ];
    for (i, (g, algos)) in cases.iter().enumerate() {
        let (dir, sc) = spill(&format!("table-{i}"), g);
        let scratch = dir.join("scratch");
        for algo in algos {
            for threads in [1usize, 4] {
                rayon::with_num_threads(threads, || {
                    let (ram, ram_stats) = algo.run(g, None).unwrap();
                    let (mmap, mmap_stats) = algo.run(&sc, Some(&scratch)).unwrap();
                    assert_eq!(
                        mmap.as_slice(),
                        ram.as_slice(),
                        "{algo} coloring diverges at {threads} threads"
                    );
                    assert_eq!(mmap.palette(), ram.palette());
                    assert_eq!(mmap_stats, ram_stats, "{algo} ledger diverges");
                    assert!(ram.is_proper(g));
                    let left = std::fs::read_dir(&scratch).map_or(0, Iterator::count);
                    assert_eq!(left, 0, "{algo} left derived-graph scratch behind");
                });
            }
        }
    }
}

#[test]
fn cd_coloring_mmap_matches_ram() {
    let base = generators::random_regular(64, 8, 1).unwrap();
    let lg = LineGraph::new(&base);
    let params = CdParams::for_levels(lg.cover.max_clique_size(), 1);
    let ids = IdAssignment::sequential(lg.graph.num_vertices());
    let (_dir, sc) = spill("cd", &lg.graph);
    for threads in [1usize, 4] {
        rayon::with_num_threads(threads, || {
            let ram = cd_coloring(&lg.graph, &lg.cover, &params, &ids).unwrap();
            let mmap = cd_coloring(&sc, &lg.cover, &params, &ids).unwrap();
            assert_eq!(
                mmap.coloring.as_slice(),
                ram.coloring.as_slice(),
                "cd coloring diverges at {threads} threads"
            );
            assert_eq!(mmap.coloring.palette(), ram.coloring.palette());
            assert_eq!(mmap.palette_bound, ram.palette_bound);
            assert_eq!(mmap.stats, ram.stats, "cd ledger diverges");
        });
    }
}
