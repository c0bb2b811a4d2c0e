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
//! trim runs.
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
use decolor_core::delta_plus_one::{
    vertex_coloring_with_target, ReductionStrategy, Seed, SubroutineConfig,
};
use decolor_core::edge_space::edge_coloring_direct;
use decolor_core::linial::{linial_coloring, linial_coloring_chunked};
use decolor_core::star_partition::{star_partition_edge_coloring, StarPartitionParams};
use decolor_graph::coloring::VertexColoring;
use decolor_graph::storage::Crc32;
use decolor_graph::{generators, Graph};
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
    let (lin, stats) = linial_coloring_chunked(g, &ids).unwrap();
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

    // A proper but wasteful inherited coloring: spread, offset ids.
    let spread: Vec<u32> = ids.as_slice().iter().map(|&i| 3 * i as u32 + 1).collect();
    let inherited = VertexColoring::new(spread, 3 * n as u64 + 1).unwrap();
    let target = g.max_degree() as u64 + 1;
    for (seed_name, seed) in [
        ("ids", Seed::Ids(&ids)),
        ("coloring", Seed::Coloring(&inherited)),
    ] {
        for (strategy, reduction) in STRATEGIES {
            let cfg = SubroutineConfig { reduction };
            let (c, stats) = vertex_coloring_with_target(g, seed, target, cfg).unwrap();
            assert!(c.is_proper(g));
            let row = format!("vertex:{seed_name}:{strategy}");
            lines.push(digest_line(
                &row,
                name,
                c.as_slice(),
                c.palette(),
                stats,
                &[],
            ));
        }
    }

    let delta = g.max_degree() as u64;
    for (target_name, target) in [("2d-1", 2 * delta - 1), ("2d+6", 2 * delta + 6)] {
        for (strategy, reduction) in STRATEGIES {
            let cfg = SubroutineConfig { reduction };
            let (c, stats) = edge_coloring_direct(g, target, cfg).unwrap();
            assert!(c.is_proper(g));
            let row = format!("direct:{target_name}:{strategy}");
            lines.push(digest_line(
                &row,
                name,
                c.as_slice(),
                c.palette(),
                stats,
                &[],
            ));
        }
    }
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
        lines
    })
}

#[test]
fn every_algorithm_matches_golden_digests() {
    let single = table_at(1);
    if std::env::var_os("DECOLOR_BLESS").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden.txt");
        std::fs::write(&path, single.join("\n") + "\n").unwrap();
        return;
    }
    let golden: Vec<&str> = TABLE.lines().collect();
    assert_eq!(golden.len(), single.len(), "golden table is missing rows");
    for (threads, lines) in [(1, single), (4, table_at(4))] {
        for (got, want) in lines.iter().zip(&golden) {
            assert_eq!(got, want, "output drift at pool width {threads}");
        }
    }
}
