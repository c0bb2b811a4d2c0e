//! Scaling study: how measured rounds grow with `n` at fixed Δ — the
//! log* n (Linial), O(log n) (Theorem 5.2 via the H-partition),
//! n-independent (star partition beyond its log* entry cost), and
//! CD-Coloring (Algorithm 1 on the line graph, §2–§3) signatures the
//! paper's running times predict.
//!
//! Two storage backends:
//!
//! * `--backend ram` (default) — the in-memory CSR paths exactly as
//!   before: Linial on the flat-buffer exchange, composites on the
//!   borrowed subgraph views.
//! * `--backend mmap` — the **out-of-core** paths: workloads are
//!   streamed by the `*_stream` generators into a sharded mmap CSR
//!   (`decolor_graph::storage::ShardedCsr`; the forest/line-graph
//!   workloads are generated in RAM and spilled), Linial runs the
//!   chunked gather pass (no O(m) round buffer), and the composite rows
//!   run the unmodified view-generic pipelines over the mmap root. Rows
//!   are bit-identical to the ram backend (pinned by the
//!   backend-equivalence tests), so only the wall/RSS columns differ.
//!
//! The mmap backend raises the row ceilings: Linial runs to
//! `--max-n` ≤ 10⁸, and Theorem 5.2, the star partition, and
//! CD-Coloring to 10⁷ — star streams its top-level edge connector and
//! cd its line graph into sharded CSR scratch, so no in-RAM `Graph` is
//! materialized on any mmap row. Theorems 5.3/5.4 rows run on both
//! backends up to 2²⁰.
//!
//! Flags:
//! * `--quick` — CI sizes only (256, 1024).
//! * `--only <linial|star|t52|t53|t54|cd>` — run a single row (gives clean
//!   per-row peak-RSS numbers; `VmHWM` is a process-lifetime high-water
//!   mark, so in a full run the column is cumulative across rows).
//! * `--backend <ram|mmap>` — storage backend (see above).
//! * `--max-n <N>` — extend the size ladder up to `N` (default 1048576;
//!   ladder stops at 10⁸).
//! * `--checkpoint` — (mmap backend) run the crash-safe paths: the
//!   workload build journals its durable prefix every 2²⁰ edges and the
//!   chunked Linial pass persists a round checkpoint, so a killed
//!   n = 10⁸ run resumes instead of restarting (results byte-identical
//!   — pinned by the crash-recovery suite).
//! * `--threads 1,2,4,8` — run the whole ladder once per pool width in
//!   this single process (`rayon::with_num_threads`), appending one
//!   provenance record per (row, width); the experiments report renders
//!   the widths into its speedup-vs-threads table. Without the flag the
//!   ambient pool (the `DECOLOR_THREADS` knob) is used, as before.
//! * `--relayout` — (ram backend) rebuild the star/t52/t53/t54 workloads under
//!   the degree-class relabeling (`decolor_graph::Relabeling`) before
//!   coloring, and assert the result proper on the **original** graph
//!   (edge ids survive the relayout; rounds/palettes are pinned
//!   identical by the relayout-equivalence proptests). Rows are tagged
//!   `[relayout]` in the provenance records.
//!
//! * `--help` — print the flags and exit; any other flag is an error.
//!
//! The star, t52, t53 and t54 rows are the paper's
//! [`Algorithm`] table entries, each run through the same row body;
//! their record bound is the table's `palette_bound`.
//!
//! `cargo run --release -p decolor-bench --bin scaling [-- --quick]`

use decolor_bench::{
    append_record, arboricity_workload, markdown_table, peak_rss_mb, regular_workload, Record,
};
use decolor_core::algorithms::Algorithm;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::linial::{linial_coloring, linial_coloring_chunked};
use decolor_graph::coloring::EdgeColoring;
use decolor_graph::line_graph::{line_graph_cover, line_graph_stream, LineGraph};
use decolor_graph::storage::{ScratchDir, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::GraphView;
use decolor_graph::{generators, Graph, Relabeling};
use decolor_runtime::{IdAssignment, Network, NetworkStats};
use std::path::Path;
use std::time::Instant;

/// The full size ladder; `--max-n` selects a prefix. The two rungs past
/// 10⁶ are sized for the mmap backend (an explicit
/// `--backend ram --max-n 10000000` still runs them fully in RAM — at
/// n = 10⁸ that needs tens of GB, so opting in is on the caller).
const SIZES: &[usize] = &[
    256,
    1024,
    4096,
    16384,
    65536,
    262_144,
    1_048_576,
    10_000_000,
    100_000_000,
];
/// Ceiling for the Theorem 5.2 composite row (mmap backend).
const T52_CAP: usize = 10_000_000;
/// Ceiling for the star-partition and CD-Coloring rows on the **ram**
/// backend, where the connector / line graph is materialized in memory.
const STAR_CD_RAM_CAP: usize = 1_048_576;
/// Ceiling for star/cd on the **mmap** backend: the top-level connector
/// and the line graph are streamed into sharded CSR scratch, so the rows
/// scale like the other out-of-core composites.
const STAR_CD_MMAP_CAP: usize = 10_000_000;
/// Ceiling for the Theorem 5.3 / 5.4 rows (recursive pipelines; enough
/// to show the n-trend on both backends).
const T53_T54_CAP: usize = 1_048_576;

fn rss_cell() -> String {
    peak_rss_mb().map_or_else(|| "-".into(), |mb| format!("{mb}"))
}

/// Scratch directory for one mmap workload, removed after the row: a
/// fresh `{tag}-{n}-{pid}-{seq}` under `target/scaling-mmap`, so neither
/// concurrent processes nor repeated ladders (`--threads`) share one.
fn mmap_dir(tag: &str, n: usize) -> ScratchDir {
    let root = Path::new("target").join("scaling-mmap");
    ScratchDir::new(&root, &format!("{tag}-{n}"))
}

/// Streams the standard 8-regular workload into a sharded CSR. With
/// `journal_every > 0` the build checkpoints its durable prefix (the
/// `--checkpoint` path), so an interrupted build can resume.
fn regular_workload_mmap(
    dir: &Path,
    n: usize,
    d: usize,
    seed: u64,
    journal_every: usize,
) -> ShardedCsr {
    let opts = decolor_graph::storage::BuildOptions {
        journal_every,
        ..Default::default()
    };
    let mut b =
        ShardedCsrBuilder::with_options(dir, n, opts).expect("scratch storage dir is writable");
    generators::random_regular_stream(n, d, seed, &mut b).expect("workload parameters are valid");
    b.finish().expect("sharded CSR build succeeds")
}

/// Rebuilds `g` under its degree-class relabeling (the `--relayout`
/// path). Edge ids are preserved, so edge colorings of the result are
/// asserted on `g` directly.
fn relay(g: &Graph) -> Graph {
    let relab = Relabeling::by_degree_classes(g).expect("vertex ids fit u32");
    relab.apply_to_graph(g).expect("same vertex count")
}

/// The input graph family of an [`Algorithm`] row.
#[derive(Clone, Copy)]
enum Workload {
    /// Random 8-regular (seed 1).
    Regular8,
    /// Union of two forests with degree cap 8 (seed 3): arboricity ≤ 2.
    Arboricity2,
}

impl Workload {
    fn ram(self, n: usize) -> Graph {
        match self {
            Workload::Regular8 => regular_workload(n, 8, 1),
            Workload::Arboricity2 => arboricity_workload(n, 2, 8, 3),
        }
    }

    /// The workload as a sharded CSR under `dir`: the regular graph is
    /// streamed straight to disk, the forest union built in RAM and
    /// spilled.
    fn mmap(self, dir: &Path, n: usize, journal_every: usize) -> ShardedCsr {
        match self {
            Workload::Regular8 => regular_workload_mmap(dir, n, 8, 1, journal_every),
            Workload::Arboricity2 => {
                ShardedCsr::from_graph(dir, &self.ram(n)).expect("sharded CSR spill succeeds")
            }
        }
    }
}

/// The star partition and Section 5 rows: the [`Algorithm`] table entry
/// at the bench's parameters, its workload, its size ceiling on the
/// `[ram, mmap]` backends, and the `x` recorded in provenance. On ram
/// star materializes its top-level connector, hence the lower ceiling;
/// Theorems 5.3/5.4 are recursive pipelines, capped where the n-trend is
/// already visible.
const ALGORITHM_ROWS: [(Algorithm, Workload, [usize; 2], u32); 4] = [
    (
        Algorithm::Star { x: 1 },
        Workload::Regular8,
        [STAR_CD_RAM_CAP, STAR_CD_MMAP_CAP],
        1,
    ),
    (
        Algorithm::T52 { a: 2, q: 2.5 },
        Workload::Arboricity2,
        [T52_CAP; 2],
        1,
    ),
    (
        Algorithm::T53 { a: 2, q: 2.5 },
        Workload::Arboricity2,
        [T53_T54_CAP; 2],
        1,
    ),
    (
        Algorithm::T54 { a: 2, q: 2.5, x: 2 },
        Workload::Arboricity2,
        [T53_T54_CAP; 2],
        2,
    ),
];

/// Times one run of `algo` on `g`.
fn timed<G: GraphView + Sync>(
    algo: &Algorithm,
    g: &G,
    scratch: Option<&Path>,
) -> (EdgeColoring, NetworkStats, f64) {
    let started = Instant::now();
    let (coloring, stats) = algo
        .run(g, scratch)
        .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
    (coloring, stats, started.elapsed().as_secs_f64())
}

/// One pass over the size ladder at the ambient pool width. Returns the
/// printed table rows; records provenance (including the live pool
/// width) per row.
struct LadderCfg<'a> {
    sizes: &'a [usize],
    mmap: bool,
    checkpoint: bool,
    journal_every: usize,
    relayout: bool,
    tag: &'a str,
}

fn run_ladder(cfg: &LadderCfg<'_>, runs: impl Fn(&str) -> bool) -> Vec<Vec<String>> {
    let (nproc, threads) = decolor_bench::pool_provenance();
    let &LadderCfg {
        mmap,
        checkpoint,
        journal_every,
        relayout,
        tag,
        ..
    } = cfg;
    let mut rows = Vec::new();
    for &n in cfg.sizes {
        // (rounds, wall seconds) per column; None renders as "-".
        let mut cells: Vec<Option<(u64, f64)>> = Vec::new();
        let mut linial: Option<(u64, f64)> = None;
        if runs("linial") {
            // Linial on 8-regular graphs: rounds should be ~flat (log* n).
            // Sparse ID space so the log* cascade is exercised (dense IDs
            // can start below the O(Δ²) fixed point); the stride shrinks
            // at large n to keep identifiers inside the model's
            // O(log n)-bit budget.
            let stride = (u64::from(u32::MAX) / n as u64).min(1 << 16);
            let ids = IdAssignment::sparse(n, stride, 2);
            let (m, delta, lin, stats, secs) = if mmap {
                let dir = mmap_dir("linial", n);
                let g = regular_workload_mmap(dir.path(), n, 8, 1, journal_every);
                let started = Instant::now();
                let ckpt = checkpoint.then(|| dir.path().join("linial.ckpt"));
                let out = linial_coloring_chunked(&g, &ids, ckpt.as_deref(), None)
                    .expect("linial succeeds");
                assert!(out.completed, "unbudgeted run always completes");
                let (lin, stats) = (out.result, out.stats);
                let secs = started.elapsed().as_secs_f64();
                // Properness of the full coloring is re-checked on the
                // mmap CSR itself (one streaming endpoint pass).
                assert!(lin.coloring.is_proper(&g));
                (g.num_edges(), GraphView::max_degree(&g), lin, stats, secs)
            } else {
                let g = regular_workload(n, 8, 1);
                let mut net = Network::new(&g);
                let started = Instant::now();
                let lin = linial_coloring(&mut net, &ids).expect("linial succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(lin.coloring.is_proper(&g));
                (g.num_edges(), g.max_degree(), lin, net.stats(), secs)
            };
            linial = Some((stats.rounds, secs));
            append_record(&Record {
                experiment: "scaling_linial".into(),
                workload: format!("n={n}{tag}"),
                n,
                m,
                delta,
                x: 1,
                palette: lin.coloring.palette(),
                colors_used: lin.coloring.distinct_colors(),
                bound: decolor_core::linial::final_palette_bound(delta),
                rounds: stats.rounds,
                messages: stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }
        cells.push(linial);

        for (algo, workload, caps, x) in ALGORITHM_ROWS {
            if !runs(algo.name()) || n > caps[usize::from(mmap)] {
                cells.push(None);
                continue;
            }
            let (coloring, stats, secs, m, delta) = if mmap {
                // Star streams its top-level connector into the same
                // scratch root — no in-RAM Graph on this path.
                let dir = mmap_dir(algo.name(), n);
                let g = workload.mmap(&dir.path().join("input"), n, journal_every);
                let (coloring, stats, secs) = timed(&algo, &g, Some(dir.path()));
                assert!(coloring.is_proper(&g));
                (
                    coloring,
                    stats,
                    secs,
                    g.num_edges(),
                    GraphView::max_degree(&g),
                )
            } else {
                let g = workload.ram(n);
                let relaid = relayout.then(|| relay(&g));
                let (coloring, stats, secs) = timed(&algo, relaid.as_ref().unwrap_or(&g), None);
                // Edge ids survive the relayout, so the coloring must be
                // proper on the *original* workload either way.
                assert!(coloring.is_proper(&g));
                (coloring, stats, secs, g.num_edges(), g.max_degree())
            };
            cells.push(Some((stats.rounds, secs)));
            append_record(&Record {
                experiment: format!("scaling_{}", algo.name()),
                workload: format!("n={n}{tag}"),
                n,
                m,
                delta,
                x,
                palette: coloring.palette(),
                colors_used: coloring.distinct_colors(),
                bound: algo.palette_bound(delta),
                rounds: stats.rounds,
                messages: stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }

        // CD-Coloring (Algorithm 1) on the line graph of an 8-regular
        // graph with n/4 base vertices: the colored graph has exactly n
        // vertices, diversity 2, clique size Δ = 8.
        let mut cd_row: Option<(u64, f64)> = None;
        let cd_cap = if mmap {
            STAR_CD_MMAP_CAP
        } else {
            STAR_CD_RAM_CAP
        };
        if runs("cd") && n <= cd_cap {
            let base_n = (n / 4).max(8);
            let (cd, secs, lg_n, lg_m, lg_delta) = if mmap {
                // Fully streamed: the base workload goes straight to a
                // sharded CSR, the canonical cover is computed off that
                // view, and L(base) is streamed into a second sharded
                // CSR — L(base) never exists as an in-RAM Graph.
                let dir = mmap_dir("cd", n);
                let base =
                    regular_workload_mmap(&dir.path().join("base"), base_n, 8, 1, journal_every);
                let cover = line_graph_cover(&base).expect("canonical line cover is well-formed");
                let lg = {
                    let mut b = ShardedCsrBuilder::create(dir.path().join("lg"), base.num_edges())
                        .expect("scratch storage dir is writable");
                    line_graph_stream(&base, &mut b).expect("line edges are valid");
                    b.finish().expect("sharded CSR build succeeds")
                };
                let params = CdParams::for_levels(cover.max_clique_size(), 1);
                let ids = IdAssignment::sequential(lg.num_vertices());
                let started = Instant::now();
                let cd = cd_coloring(&lg, &cover, &params, &ids).expect("cd coloring succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(cd.coloring.is_proper(&lg));
                let (lg_n, lg_m, lg_delta) = (
                    lg.num_vertices(),
                    lg.num_edges(),
                    GraphView::max_degree(&lg),
                );
                (cd, secs, lg_n, lg_m, lg_delta)
            } else {
                let base = regular_workload(base_n, 8, 1);
                let lg = LineGraph::new(&base);
                let params = CdParams::for_levels(lg.cover.max_clique_size(), 1);
                let ids = IdAssignment::sequential(lg.graph.num_vertices());
                let started = Instant::now();
                let cd =
                    cd_coloring(&lg.graph, &lg.cover, &params, &ids).expect("cd coloring succeeds");
                let secs = started.elapsed().as_secs_f64();
                assert!(cd.coloring.is_proper(&lg.graph));
                let (lg_n, lg_m, lg_delta) = (
                    lg.graph.num_vertices(),
                    lg.graph.num_edges(),
                    lg.graph.max_degree(),
                );
                (cd, secs, lg_n, lg_m, lg_delta)
            };
            cd_row = Some((cd.stats.rounds, secs));
            append_record(&Record {
                experiment: "scaling_cd".into(),
                workload: format!("n={n} (line graph, D=2, S=8){tag}"),
                n: lg_n,
                m: lg_m,
                delta: lg_delta,
                x: 1,
                palette: cd.coloring.palette(),
                colors_used: cd.coloring.distinct_colors(),
                bound: cd.palette_bound,
                rounds: cd.stats.rounds,
                messages: cd.stats.messages,
                time_shape: 0.0,
                wall_s: secs,
                nproc,
                threads,
            });
        }
        cells.push(cd_row);

        // Rows not selected by --only (or beyond their ceiling) render as
        // "-", never as a fake 0.
        let mut row = vec![format!("{n}")];
        row.extend(
            cells
                .iter()
                .map(|c| c.map_or_else(|| "-".into(), |(k, _)| format!("{k}"))),
        );
        row.extend(
            cells
                .iter()
                .map(|c| c.map_or_else(|| "-".into(), |(_, s)| format!("{s:.3}"))),
        );
        row.push(rss_cell());
        rows.push(row);
    }
    rows
}

/// Prints [`run_ladder`]'s rows under one rounds and one wall column per
/// ladder row.
fn print_ladder(rows: &[Vec<String>]) {
    let names: Vec<String> = std::iter::once("linial".to_string())
        .chain(ALGORITHM_ROWS.iter().map(|r| r.0.to_string()))
        .chain(std::iter::once("cd:x=1 (line graph)".to_string()))
        .collect();
    let mut header = vec!["n".to_string()];
    header.extend(names.iter().map(|name| format!("{name} rounds")));
    header.extend(names.iter().map(|name| format!("{name} wall (s)")));
    header.push("peak RSS (MB)".into());
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", markdown_table(&header, rows));
}

const USAGE: &str = "\
usage: scaling [--quick] [--only <row>] [--backend ram|mmap] [--max-n N]
               [--checkpoint] [--threads W1,W2,...] [--relayout] [--help]

Rows: linial, star, t52, t53, t54, cd. See the module docs of
crates/bench/src/bin/scaling.rs for what each flag does.
";

/// Prints `msg` and the usage to stderr and exits non-zero.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n\n{USAGE}");
    std::process::exit(1);
}

fn main() {
    let mut quick = false;
    let mut checkpoint = false;
    let mut relayout = false;
    let mut only: Option<String> = None;
    let mut backend = "ram".to_string();
    let mut max_n: usize = 1_048_576;
    // Pool widths for the thread-scaling axis; empty = ambient pool.
    let mut widths: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--checkpoint" => checkpoint = true,
            "--relayout" => relayout = true,
            "--only" => only = Some(value()),
            "--backend" => backend = value(),
            "--max-n" => {
                let v = value();
                max_n = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--max-n expects an integer, got `{v}`")));
            }
            "--threads" => {
                let v = value();
                widths = v
                    .split(',')
                    .map(|w| w.trim().parse().ok().filter(|&w| w >= 1))
                    .collect::<Option<_>>()
                    .unwrap_or_else(|| {
                        fail(&format!(
                            "--threads expects a comma list of widths ≥ 1, got `{v}`"
                        ))
                    });
            }
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let row_names: Vec<&str> = std::iter::once("linial")
        .chain(ALGORITHM_ROWS.iter().map(|r| r.0.name()))
        .chain(std::iter::once("cd"))
        .collect();
    if let Some(o) = only.as_deref().filter(|o| !row_names.contains(o)) {
        fail(&format!(
            "unknown --only row `{o}` (rows: {})",
            row_names.join(", ")
        ));
    }
    let mmap = match backend.as_str() {
        "ram" => false,
        "mmap" => true,
        other => fail(&format!(
            "unknown --backend `{other}` (expected ram or mmap)"
        )),
    };
    if checkpoint && !mmap {
        fail("--checkpoint applies to the out-of-core paths; add --backend mmap");
    }
    if relayout && mmap {
        fail(
            "--relayout rebuilds the in-RAM workloads; the streamed mmap \
             builds take the relabeling through `Relabeling::sink` (see \
             the storage tests) and are not benched here",
        );
    }
    // Journal cadence for --checkpoint builds: every 2^20 edges.
    let journal_every = if checkpoint { 1 << 20 } else { 0 };
    let runs = move |row: &str| only.as_deref().is_none_or(|o| o == row);
    let sizes: Vec<usize> = if quick {
        vec![256, 1024]
    } else {
        SIZES.iter().copied().filter(|&n| n <= max_n).collect()
    };
    let path = if mmap {
        "out-of-core mmap backend (sharded CSR + chunked Linial)"
    } else {
        "borrowed-view paths"
    };
    // Rows measured under --backend mmap / --relayout are tagged in the
    // provenance records so EXPERIMENTS.md can tell the paths apart.
    let mut tag = String::new();
    if mmap {
        tag.push_str(" [mmap]");
    }
    if relayout {
        tag.push_str(" [relayout]");
    }
    let cfg = LadderCfg {
        sizes: &sizes,
        mmap,
        checkpoint,
        journal_every,
        relayout,
        tag: &tag,
    };

    println!("# Scaling study — rounds vs n at fixed Δ ({path})\n");
    if widths.is_empty() {
        print_ladder(&run_ladder(&cfg, &runs));
    } else {
        // One process, one ladder per pool width: per-width wall/RSS
        // rows land in experiments.jsonl with distinct `threads`
        // provenance (RSS stays cumulative across widths — it is a
        // process-lifetime high-water mark).
        for &w in &widths {
            println!("## pool width {w}\n");
            let rows = rayon::with_num_threads(w, || run_ladder(&cfg, &runs));
            print_ladder(&rows);
        }
    }
    println!(
        "Expected shapes: Linial ~flat; star partition and CD-Coloring \
         ~flat after the log* entry; Theorem 5.2 grows ~logarithmically \
         (ℓ peeling stages × d label rounds). Rows are bit-identical \
         across backends; the mmap backend serves the CSR from sharded \
         files (page-cache resident) and runs Linial as the chunked \
         gather pass. The peak-RSS column is the process high-water mark \
         so far — use `--only <row>` for clean per-row numbers."
    );
}
