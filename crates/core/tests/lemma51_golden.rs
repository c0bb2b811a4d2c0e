//! Golden output digests for every caller of Lemma 5.1's crossing merge
//! (`crossing_merge::color_crossing_edges`): Theorems 5.2, 5.3, 5.4 and
//! Corollary 5.5, each at its table defaults, on a power-law, a forest,
//! a grid and a sparse random graph.
//!
//! Each run is folded into one CRC32 over the coloring, the palette and
//! the full `NetworkStats` (rounds, messages, payload bytes) and checked
//! against `lemma51_golden.txt` at pool widths 1 and 4, so a changed
//! decision or ledger entry in any of these pipelines fails here.
//!
//! Regenerate the table only on purpose:
//!
//! ```sh
//! DECOLOR_BLESS=1 cargo test -p decolor-core --test lemma51_golden
//! ```

use decolor_core::algorithms::Algorithm;
use decolor_graph::storage::Crc32;
use decolor_graph::{generators, Graph};

const TABLE: &str = include_str!("lemma51_golden.txt");

/// The algorithms that reach `color_crossing_edges`: the four table
/// entries at their defaults, plus a wider `d` for Theorem 5.2 and a
/// Corollary 5.5 whose automatic (x, q) differs from Theorem 5.4's
/// defaults.
const ALGORITHMS: [&str; 6] = ["t52", "t52:a=3,q=3", "t53", "t54", "c55", "c55:a=4"];

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("ba", generators::barabasi_albert(1500, 2, 1).unwrap()),
        ("forest", generators::forest_union(1200, 2, 8, 2).unwrap()),
        ("grid", generators::grid(24, 30).unwrap()),
        ("gnm", generators::gnm(800, 1400, 3).unwrap()),
    ]
}

/// One table line: `<algorithm> <graph> palette=… rounds=… crc=…`.
fn golden_line(algo: &Algorithm, name: &str, g: &Graph) -> String {
    let (coloring, stats) = algo
        .run(g, None)
        .unwrap_or_else(|e| panic!("{algo} on {name}: {e}"));
    assert!(coloring.is_proper(g), "{algo} on {name}: improper coloring");
    let mut crc = Crc32::new();
    for &c in coloring.as_slice() {
        crc.update(&c.to_le_bytes());
    }
    for word in [
        coloring.palette(),
        stats.rounds,
        stats.messages,
        stats.payload_bytes,
    ] {
        crc.update(&word.to_le_bytes());
    }
    format!(
        "{algo} {name} palette={} rounds={} crc={:08x}",
        coloring.palette(),
        stats.rounds,
        crc.finish()
    )
}

fn table_at(threads: usize) -> Vec<String> {
    let graphs = graphs();
    rayon::with_num_threads(threads, || {
        ALGORITHMS
            .iter()
            .map(|name| name.parse::<Algorithm>().unwrap())
            .flat_map(|algo| {
                graphs
                    .iter()
                    .map(move |(name, g)| golden_line(&algo, name, g))
            })
            .collect()
    })
}

#[test]
fn lemma51_callers_match_golden_digests() {
    let single = table_at(1);
    if std::env::var_os("DECOLOR_BLESS").is_some() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/lemma51_golden.txt");
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
