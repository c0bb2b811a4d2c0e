//! Golden output digests for every algorithm in the table: star
//! partition (Theorem 4.1), CD-Coloring (Theorem 3.3), Theorems 5.2, 5.3,
//! 5.4 and Corollary 5.5, on a power-law, a forest, a grid and a sparse
//! random graph.
//!
//! Below the table rows sit the **kernel rows**: the black-box coloring
//! subroutine those algorithms call, pinned on its own. They cover Linial
//! (network and chunked, with the palette trace), the vertex subroutine
//! from ids and from an inherited coloring, the edge-space subroutine at
//! targets 2Δ − 1 and 2Δ + 6, each under the basic and the
//! Kuhn–Wattenhofer reduction, and one star partition whose final palette
//! trim runs. Four more pin the edges of Linial's GF(q) arithmetic (ids
//! near 2^32, a declared palette above 2^32) and of the edge agents'
//! point-0 screen (a multigraph whose parallel edges share both rows).
//! Two more pairs run the reductions at t > 64 on complete graphs, where
//! a decider's first 64-color window of free colors fills.
//!
//! Last come the **sweep rows**: each class recursion (star partition
//! coloring and labels, CD-Coloring with and without the §3 trim,
//! Theorems 5.2–5.4, the Theorem 2.4 clique decomposition) on 32 seeded
//! graphs per row, folded into one CRC per row, plus the degenerate
//! shapes and the adaptive-t ablation.
//!
//! Each run is folded into one CRC32 over the coloring, the palette and
//! the full `NetworkStats` (rounds, messages, payload bytes) and checked
//! against `golden.txt` at pool widths 1 and 4, so a changed decision or
//! ledger entry in any of these pipelines fails here.
//!
//! Regenerate the table only on purpose:
//!
//! ```sh
//! DECOLOR_BLESS=1 cargo test -p decolor-core --test golden
//! ```

use decolor_core::algorithms::Algorithm;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::decomposition::{clique_decomposition, star_partition};
use decolor_core::delta_plus_one::{
    vertex_coloring_with_target, ReductionStrategy, Seed, SubroutineConfig,
};
use decolor_core::edge_space::edge_coloring_direct;
use decolor_core::linial::{linial_coloring, linial_coloring_chunked, linial_from_coloring};
use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor_graph::cliques::{cover_from_all_maximal_cliques, CliqueCover};
use decolor_graph::coloring::VertexColoring;
use decolor_graph::line_graph::LineGraph;
use decolor_graph::storage::Crc32;
use decolor_graph::{generators, Graph, GraphBuilder};
use decolor_runtime::{IdAssignment, Network, NetworkStats};

const TABLE: &str = include_str!("golden.txt");

/// Every table entry at its defaults, plus a second connector level for
/// star partition and CD-Coloring, a wider `d` for Theorem 5.2 and a
/// Corollary 5.5 whose automatic (x, q) differs from Theorem 5.4's
/// defaults.
const ALGORITHMS: [&str; 10] = [
    "star",
    "star:x=2",
    "cd",
    "cd:x=2",
    "t52",
    "t52:a=3,q=3",
    "t53",
    "t54",
    "c55",
    "c55:a=4",
];

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("ba", generators::barabasi_albert(1500, 2, 1).unwrap()),
        ("forest", generators::forest_union(1200, 2, 8, 2).unwrap()),
        ("grid", generators::grid(24, 30).unwrap()),
        ("gnm", generators::gnm(800, 1400, 3).unwrap()),
    ]
}

/// One table line: `<row> <graph> palette=… rounds=… crc=…`, the CRC
/// folding the colors, then the palette, the full ledger and any `extra`
/// words (a palette trace).
fn digest_line(
    row: &str,
    name: &str,
    colors: &[u32],
    palette: u64,
    stats: NetworkStats,
    extra: &[u64],
) -> String {
    let mut crc = Crc32::new();
    for &c in colors {
        crc.update(&c.to_le_bytes());
    }
    for word in [palette, stats.rounds, stats.messages, stats.payload_bytes]
        .iter()
        .chain(extra)
    {
        crc.update(&word.to_le_bytes());
    }
    format!(
        "{row} {name} palette={palette} rounds={} crc={:08x}",
        stats.rounds,
        crc.finish()
    )
}

fn golden_line(algo: &Algorithm, name: &str, g: &Graph) -> String {
    let (coloring, stats) = algo
        .run(g, None)
        .unwrap_or_else(|e| panic!("{algo} on {name}: {e}"));
    assert!(coloring.is_proper(g), "{algo} on {name}: improper coloring");
    digest_line(
        &algo.to_string(),
        name,
        coloring.as_slice(),
        coloring.palette(),
        stats,
        &[],
    )
}

const STRATEGIES: [(&str, ReductionStrategy); 2] = [
    ("basic", ReductionStrategy::Basic),
    ("kw", ReductionStrategy::KuhnWattenhofer),
];

/// The kernel rows for one graph.
fn kernel_lines(name: &str, g: &Graph) -> Vec<String> {
    let n = g.num_vertices();
    let ids = IdAssignment::shuffled(n, 5);
    let mut lines = Vec::new();

    let mut net = Network::new(g);
    let lin = linial_coloring(&mut net, &ids).unwrap();
    let c = &lin.coloring;
    let trace = &lin.palette_trace;
    lines.push(digest_line(
        "linial",
        name,
        c.as_slice(),
        c.palette(),
        net.stats(),
        trace,
    ));
    let out = linial_coloring_chunked(g, &ids, None, None).unwrap();
    let (lin, stats) = (out.result, out.stats);
    let c = &lin.coloring;
    let trace = &lin.palette_trace;
    lines.push(digest_line(
        "linial:chunked",
        name,
        c.as_slice(),
        c.palette(),
        stats,
        trace,
    ));

    let inherited = spread(&ids);
    lines.extend(vertex_lines(name, g, "ids", Seed::Ids(&ids), |_| {}));
    lines.extend(vertex_lines(
        name,
        g,
        "coloring",
        Seed::Coloring(&inherited),
        |_| {},
    ));

    let delta = g.max_degree() as u64;
    lines.extend(direct_lines(name, g, "2d-1", 2 * delta - 1));
    lines.extend(direct_lines(name, g, "2d+6", 2 * delta + 6));
    lines
}

/// A proper but wasteful inherited coloring: spread, offset ids `3i + 1`.
fn spread(ids: &IdAssignment) -> VertexColoring {
    let spread: Vec<u32> = ids.as_slice().iter().map(|&i| 3 * i as u32 + 1).collect();
    VertexColoring::new(spread, 3 * ids.as_slice().len() as u64 + 1).unwrap()
}

/// The `vertex:<seed_name>:{basic,kw}` rows: the vertex subroutine from
/// `seed` to Δ + 1 under each reduction; `check` sees each coloring.
fn vertex_lines(
    name: &str,
    g: &Graph,
    seed_name: &str,
    seed: Seed<'_>,
    check: impl Fn(&[u32]),
) -> Vec<String> {
    let target = g.max_degree() as u64 + 1;
    STRATEGIES
        .iter()
        .map(|&(strategy, reduction)| {
            let cfg = SubroutineConfig { reduction };
            let (c, stats) = vertex_coloring_with_target(g, seed, target, cfg).unwrap();
            assert!(c.is_proper(g));
            check(c.as_slice());
            let row = format!("vertex:{seed_name}:{strategy}");
            digest_line(&row, name, c.as_slice(), c.palette(), stats, &[])
        })
        .collect()
}

/// The `direct:<target_name>:{basic,kw}` rows: the edge-space subroutine
/// to `target` under each reduction.
fn direct_lines(name: &str, g: &Graph, target_name: &str, target: u64) -> Vec<String> {
    STRATEGIES
        .iter()
        .map(|&(strategy, reduction)| {
            let cfg = SubroutineConfig { reduction };
            let (c, stats) = edge_coloring_direct(g, target, cfg).unwrap();
            assert!(c.is_proper(g));
            let row = format!("direct:{target_name}:{strategy}");
            digest_line(&row, name, c.as_slice(), c.palette(), stats, &[])
        })
        .collect()
}

/// Kernel rows whose reductions run with t > 64, where a decider's first
/// 64-color window fills: the vertex subroutine on K70 (t = 70) from the
/// spread seed (palette 211; the ids seed would reduce nothing), and the
/// edge-space subroutine on K40 at 2Δ − 1 = 77, where every edge has 76
/// neighbors.
fn window_lines() -> Vec<String> {
    let g = generators::complete(70).unwrap();
    let ids = IdAssignment::shuffled(70, 5);
    let inherited = spread(&ids);
    let seeded = inherited.as_slice();
    let mut lines = vertex_lines(
        "complete(70)",
        &g,
        "coloring",
        Seed::Coloring(&inherited),
        |c| {
            // Every color is used, and 65, 66, 68 and 69 are not seed
            // colors: deciders took them past a full window 0..64.
            assert!((0..70).all(|k| c.contains(&k)));
            assert!([65, 66, 68, 69].iter().all(|k| !seeded.contains(k)));
        },
    );
    let g = generators::complete(40).unwrap();
    lines.extend(direct_lines("complete(40)", &g, "2d-1", 77));
    lines
}

/// A star partition whose product palette exceeds its target, so the
/// final edge palette trim really recolors: at Δ = 27 a group size of
/// t = 26 leaves stars of two edges, so ⟨ϕ, ψ⟩ spans 51 · 3 = 153 > 4Δ
/// colors.
fn trim_line() -> String {
    let g = generators::random_regular(128, 27, 2).unwrap();
    let params = StarPartitionParams {
        t: 26,
        ..StarPartitionParams::for_levels(&g, 1)
    };
    let res = star_partition_edge_coloring(&g, &params).unwrap();
    let c = &res.coloring;
    assert!(c.is_proper(&g));
    assert!(res.untrimmed_palette > c.palette(), "the trim did not run");
    let extra = [res.untrimmed_palette];
    digest_line(
        "star:trim",
        "regular27",
        c.as_slice(),
        c.palette(),
        res.stats,
        &extra,
    )
}

/// Kernel rows at the edges of Linial's GF(q) arithmetic and of the edge
/// agents' point-0 screen: Linial from sparse ids whose id space is near
/// 2^32 (a degree-7 polynomial round, then three rounds in all), from an
/// inherited coloring whose declared palette exceeds 2^32, and the
/// edge-space subroutine on a multigraph whose doubled edges meet each
/// other in both endpoint rows.
fn arithmetic_lines() -> Vec<String> {
    let mut lines = Vec::new();

    let g = generators::random_regular(4096, 3, 1).unwrap();
    let stride = u64::from(u32::MAX) / 4096;
    let ids = IdAssignment::sparse(4096, stride, 3);
    assert!(ids.id_space() > 1 << 31);
    let mut net = Network::new(&g);
    let lin = linial_coloring(&mut net, &ids).unwrap();
    assert!(lin.palette_trace.len() >= 4, "{:?}", lin.palette_trace);
    let c = &lin.coloring;
    let trace = &lin.palette_trace;
    lines.push(digest_line(
        "linial:sparse-ids",
        "regular(4096,3)",
        c.as_slice(),
        c.palette(),
        net.stats(),
        trace,
    ));

    let g = generators::random_regular(2048, 5, 2).unwrap();
    let ids = IdAssignment::shuffled(2048, 4);
    let spread: Vec<u32> = ids.as_slice().iter().map(|&i| 3 * i as u32 + 1).collect();
    let inherited = VertexColoring::new(spread, 1 << 40).unwrap();
    let mut net = Network::new(&g);
    let lin = linial_from_coloring(&mut net, &inherited).unwrap();
    assert!(lin.palette_trace[0] > 1 << 32);
    let c = &lin.coloring;
    let trace = &lin.palette_trace;
    lines.push(digest_line(
        "linial:palette-2^40",
        "regular(2048,5)",
        c.as_slice(),
        c.palette(),
        net.stats(),
        trace,
    ));

    let simple = generators::gnm(300, 900, 7).unwrap();
    let mut b = GraphBuilder::new_multi(300);
    for (e, [u, v]) in simple.edge_list() {
        b.add_edge(u.index(), v.index()).unwrap();
        if e.index() % 3 == 0 {
            b.add_edge(u.index(), v.index()).unwrap();
        }
    }
    let g = b.build();
    assert!(g.has_parallel_edges());
    let delta = g.max_degree() as u64;
    lines.extend(direct_lines(
        "gnm(300,900,7)+every-third-doubled",
        &g,
        "2d-1",
        2 * delta - 1,
    ));
    lines
}

/// The seeds every sweep row folds into its one CRC.
const SEEDS: std::ops::Range<u64> = 0..32;

fn seeded<T>(make: impl Fn(u64) -> T) -> Vec<T> {
    SEEDS.map(make).collect()
}

/// Folds one run into `crc`: its labels (colors, class or part indices),
/// then `words` (palettes, counts, bounds) and the full ledger.
fn fold(crc: &mut Crc32, labels: impl Iterator<Item = u64>, words: &[u64], stats: NetworkStats) {
    let ledger = [stats.rounds, stats.messages, stats.payload_bytes];
    for word in labels.chain(words.iter().copied()).chain(ledger) {
        crc.update(&word.to_le_bytes());
    }
}

fn colors(c: &[u32]) -> impl Iterator<Item = u64> + '_ {
    c.iter().map(|&c| u64::from(c))
}

fn indices(l: &[usize]) -> impl Iterator<Item = u64> + '_ {
    l.iter().map(|&l| l as u64)
}

/// One sweep line: `sweep:<row> <inputs> crc=…`, the CRC folding
/// `run(i, …)` for every input index `i` in order.
fn sweep_line(row: &str, inputs: &str, runs: usize, run: impl Fn(usize, &mut Crc32)) -> String {
    let mut crc = Crc32::new();
    for i in 0..runs {
        run(i, &mut crc);
    }
    format!("sweep:{row} {inputs} crc={:08x}", crc.finish())
}

/// A star-partition edge coloring folded with both of its palettes.
fn fold_star(crc: &mut Crc32, g: &Graph, params: &StarPartitionParams) {
    let r = star_partition_edge_coloring(g, params).unwrap();
    assert!(r.coloring.is_proper(g), "star: improper coloring");
    let c = &r.coloring;
    fold(
        crc,
        colors(c.as_slice()),
        &[c.palette(), r.untrimmed_palette],
        r.stats,
    );
}

fn fold_cd(crc: &mut Crc32, g: &Graph, cover: &CliqueCover, params: &CdParams, ids: &IdAssignment) {
    let r = cd_coloring(g, cover, params, ids).unwrap();
    assert!(r.coloring.is_proper(g), "cd: improper coloring");
    let c = &r.coloring;
    fold(
        crc,
        colors(c.as_slice()),
        &[c.palette(), r.palette_bound],
        r.stats,
    );
}

/// The **sweep rows**: every class recursion (star partition coloring and
/// labels, CD-Coloring, Theorems 5.2–5.4, the clique decomposition) run on
/// 32 seeded graphs per row, plus odd shapes and the adaptive-t ablation.
fn sweep_lines() -> Vec<String> {
    let n = SEEDS.end as usize;
    let mut lines = Vec::new();
    for (name, graphs) in [
        (
            "gnm(90,270)",
            seeded(|s| generators::gnm(90, 270, s).unwrap()),
        ),
        (
            "regular(96,12)",
            seeded(|s| generators::random_regular(96, 12, s).unwrap()),
        ),
        (
            "ba(80,3)",
            seeded(|s| generators::barabasi_albert(80, 3, s).unwrap()),
        ),
    ] {
        let inputs = format!("{name}:seeds=0..{n}");
        for x in 1..=3 {
            lines.push(sweep_line(&format!("star:x={x}"), &inputs, n, |s, crc| {
                fold_star(
                    crc,
                    &graphs[s],
                    &StarPartitionParams::for_levels(&graphs[s], x),
                );
            }));
        }
        for (t, x) in [(4, 1), (2, 2), (2, 3)] {
            lines.push(sweep_line(
                &format!("partition:t={t},x={x}"),
                &inputs,
                n,
                |s, crc| {
                    let p = star_partition(&graphs[s], t, x).unwrap();
                    p.verify(&graphs[s]).unwrap();
                    let words = [p.num_classes as u64, p.star_bound as u64];
                    fold(crc, indices(&p.class), &words, p.stats);
                },
            ));
        }
    }

    let line_graphs = seeded(|s| LineGraph::new(&generators::random_regular(72, 9, s).unwrap()));
    let inputs = format!("line(regular(72,9)):seeds=0..{n}");
    for x in 1..=2 {
        for per_level_t in [false, true] {
            let row = format!("cd:x={x},per_level_t={per_level_t}");
            lines.push(sweep_line(&row, &inputs, n, |s, crc| {
                let lg = &line_graphs[s];
                let params = CdParams {
                    per_level_t,
                    ..CdParams::for_levels(lg.cover.max_clique_size(), x)
                };
                let ids = IdAssignment::shuffled(lg.graph.num_vertices(), s as u64);
                fold_cd(crc, &lg.graph, &lg.cover, &params, &ids);
            }));
        }
    }
    let graphs = seeded(|s| generators::gnm(48, 160, s).unwrap());
    let inputs = format!("gnm(48,160):seeds=0..{n}");
    lines.push(sweep_line("cd:trim,bron-kerbosch", &inputs, n, |s, crc| {
        let g = &graphs[s];
        let cover = cover_from_all_maximal_cliques(g).unwrap();
        let params = CdParams {
            trim_to: Some(g.max_degree() as u64 + 3),
            ..CdParams::for_levels(cover.max_clique_size().max(4), 1)
        };
        fold_cd(
            crc,
            g,
            &cover,
            &params,
            &IdAssignment::sequential(g.num_vertices()),
        );
    }));

    let graphs = seeded(|s| generators::forest_union(220, 2, 12, s).unwrap());
    let inputs = format!("forest(220,2,12):seeds=0..{n}");
    for spec in [
        "t52:a=2,q=2.5",
        "t53:a=2,q=2.5",
        "t54:a=2,q=2.5,x=1",
        "t54:a=2,q=2.5,x=2",
        "t54:a=2,q=2.5,x=3",
    ] {
        let algo: Algorithm = spec.parse().unwrap();
        lines.push(sweep_line(spec, &inputs, n, |s, crc| {
            let (c, stats) = algo.run(&graphs[s], None).unwrap();
            assert!(c.is_proper(&graphs[s]), "{spec}: improper coloring");
            fold(crc, colors(c.as_slice()), &[c.palette()], stats);
        }));
    }

    let line_graphs = seeded(|s| LineGraph::new(&generators::random_regular(64, 8, s).unwrap()));
    let inputs = format!("line(regular(64,8)):seeds=0..{n}");
    for (t, x) in [(3, 1), (2, 2)] {
        lines.push(sweep_line(
            &format!("decomposition:t={t},x={x}"),
            &inputs,
            n,
            |s, crc| {
                let lg = &line_graphs[s];
                let ids = IdAssignment::shuffled(lg.graph.num_vertices(), s as u64);
                let d = clique_decomposition(&lg.graph, &lg.cover, t, x, &ids).unwrap();
                d.verify(&lg.graph, &lg.cover).unwrap();
                let words = [d.num_parts as u64, d.clique_bound as u64];
                fold(crc, indices(&d.part), &words, d.stats);
            },
        ));
    }

    for (name, g) in [
        ("path(17)", generators::path(17).unwrap()),
        ("star(30)", generators::star(30).unwrap()),
        ("grid(6,7)", generators::grid(6, 7).unwrap()),
        ("edgeless(5)", GraphBuilder::new(5).build()),
    ] {
        lines.push(sweep_line(
            "star:x=1+partition:t=2,x=2",
            name,
            1,
            |_, crc| {
                fold_star(crc, &g, &StarPartitionParams::for_levels(&g, 1));
                if g.num_edges() > 0 {
                    let p = star_partition(&g, 2, 2).unwrap();
                    fold(crc, indices(&p.class), &[], p.stats);
                }
            },
        ));
    }
    let g = generators::barabasi_albert(150, 4, 9).unwrap();
    lines.push(sweep_line(
        "star:x=2,adaptive_t",
        "ba(150,4,9)",
        1,
        |_, crc| {
            let params = StarPartitionParams {
                adaptive_t: true,
                ..StarPartitionParams::for_levels(&g, 2)
            };
            fold_star(crc, &g, &params);
        },
    ));
    lines
}

fn table_at(threads: usize) -> Vec<String> {
    let graphs = graphs();
    rayon::with_num_threads(threads, || {
        let mut lines: Vec<String> = ALGORITHMS
            .iter()
            .map(|name| name.parse::<Algorithm>().unwrap())
            .flat_map(|algo| {
                graphs
                    .iter()
                    .map(move |(name, g)| golden_line(&algo, name, g))
            })
            .collect();
        for (name, g) in &graphs {
            lines.extend(kernel_lines(name, g));
        }
        lines.push(trim_line());
        lines.extend(arithmetic_lines());
        lines.extend(window_lines());
        lines.extend(sweep_lines());
        lines
    })
}

#[test]
fn every_algorithm_matches_golden_digests() {
    let single = table_at(1);
    let wide = table_at(4);
    for (got, want) in wide.iter().zip(&single) {
        assert_eq!(got, want, "pool widths 1 and 4 disagree");
    }
    if std::env::var_os("DECOLOR_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt");
        std::fs::write(&path, single.join("\n") + "\n").unwrap();
        return;
    }
    let golden: Vec<&str> = TABLE.lines().collect();
    assert_eq!(golden.len(), single.len(), "golden table is missing rows");
    for (got, want) in single.iter().zip(&golden) {
        assert_eq!(got, want, "output drift");
    }
}
