//! The benchmark's workloads: input set-up, the monolithic entry-point
//! call, the traced decomposition of that call into the library's public
//! functions, and the benchmark's own correctness checks.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use decolor_core::analysis;
use decolor_core::arboricity::theorem52;
use decolor_core::cd_coloring::{cd_coloring, CdParams};
use decolor_core::connectors::clique::clique_connector_on;
use decolor_core::connectors::edge::edge_connector_graph_on;
use decolor_core::crossing_merge::color_crossing_edges;
use decolor_core::delta_plus_one::{ReductionStrategy, SubroutineConfig};
use decolor_core::edge_space::{edge_coloring_direct, edge_coloring_direct_on};
use decolor_core::h_partition::h_partition;
use decolor_core::linial::{linial_coloring, linial_from_coloring};
use decolor_core::reduction::{basic_reduction, edge_palette_trim, kw_reduction};
use decolor_core::star_partition::{
    star_partition_edge_coloring, star_partition_edge_coloring_on, StarPartitionParams,
};
use decolor_graph::cliques::CliqueCover;
use decolor_graph::coloring::{Color, EdgeColoring, VertexColoring};
use decolor_graph::line_graph::{line_graph_cover, line_graph_stream};
use decolor_graph::storage::{Crc32, ShardedCsr, ShardedCsrBuilder};
use decolor_graph::subgraph::{EdgeSubgraphView, GraphView, InducedSubgraphView, VertexSubsetView};
use decolor_graph::{builder_from_edges, generators, EdgeId, Graph, GraphError, VertexId};
use decolor_runtime::{IdAssignment, Network, NetworkStats};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

use crate::trace::{SpanId, Tracer};

/// Degree of the star workload's random regular graph.
const STAR_DEGREE: usize = 16;
/// Star-partition levels `x` (palette bound 2^{x+1}Δ).
const STAR_LEVELS: usize = 1;
/// Edges added per vertex by the Barabási–Albert generator; the graph's
/// arboricity is at most this.
const T52_ATTACH: usize = 2;
/// The t52 graph is one fixed Barabási–Albert graph; `--seed` draws its
/// vertex ids and edge order. Its cost follows Σ deg² over a few hubs,
/// which differs by tens of percent between generator seeds, so varying
/// the structure per seed would swamp any change to the code.
const T52_GRAPH_SEED: u64 = 1;
/// Theorem 5.2 arboricity bound `a` and slack `q` (d = ⌈q·a⌉ = 5).
const T52_A: usize = 2;
const T52_Q: f64 = 2.5;
/// Degree of the regular graph whose line graph cd colors.
const CD_BASE_DEGREE: usize = 8;
/// CD-Coloring levels `x`.
const CD_LEVELS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    StarRegular16,
    T52Powerlaw,
    CdLinegraphMmap,
}

/// `Full` is the measured size; `Smoke` is a tiny size for self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StarRegular16,
        Workload::T52Powerlaw,
        Workload::CdLinegraphMmap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StarRegular16 => "star-regular16",
            Workload::T52Powerlaw => "t52-powerlaw",
            Workload::CdLinegraphMmap => "cd-linegraph-mmap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Vertices of the generated graph (of the base graph for cd, whose
    /// line graph has `n · 8 / 2` vertices).
    fn vertices(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::StarRegular16, Scale::Full) => 16_384,
            (Workload::T52Powerlaw, Scale::Full) => 32_768,
            (Workload::CdLinegraphMmap, Scale::Full) => 16_384,
            (Workload::StarRegular16, Scale::Smoke) => 256,
            (Workload::T52Powerlaw, Scale::Smoke) => 1_024,
            (Workload::CdLinegraphMmap, Scale::Smoke) => 128,
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn to_u64(x: usize) -> u64 {
    u64::try_from(x).expect("usize fits u64")
}

/// A per-process scratch directory, removed when dropped (on success and
/// on every error path).
struct Scratch(PathBuf);

impl Scratch {
    fn new(root: &Path, tag: &str) -> Result<Scratch, String> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("scratch-{tag}-{}-{seq}", std::process::id()));
        let scratch = Scratch(dir);
        std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
        Ok(scratch)
    }

    /// Total size of the files under the directory.
    fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// One input lives per process, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
enum Kind {
    Star {
        g: Graph,
        params: StarPartitionParams,
    },
    T52 {
        g: Graph,
    },
    // Field order matters: the mmap'd line graph drops before its scratch
    // directory is removed.
    Cd {
        lg: ShardedCsr,
        cover: CliqueCover,
        ids: IdAssignment,
        params: CdParams,
        _scratch: Scratch,
    },
}

/// A workload's input, ready to color.
pub struct Input {
    kind: Kind,
    /// Edges of the colored graph (of the line graph for cd).
    pub m: usize,
    /// Maximum degree of the colored graph.
    pub delta: usize,
}

/// What one coloring call returns, reduced to what the checks and the
/// digest need.
pub struct Outcome {
    pub colors: Vec<Color>,
    pub palette: u64,
    pub stats: NetworkStats,
}

impl Outcome {
    /// CRC32 over the coloring, its palette and the full `NetworkStats`.
    pub fn digest(&self) -> u32 {
        let mut crc = Crc32::new();
        for c in &self.colors {
            crc.update(&c.to_le_bytes());
        }
        for x in [
            self.palette,
            self.stats.rounds,
            self.stats.messages,
            self.stats.payload_bytes,
        ] {
            crc.update(&x.to_le_bytes());
        }
        crc.finish()
    }
}

/// Builds the workload input from `seed`, recording spans for each
/// set-up step under a `setup` root span. Scratch files go under
/// `scratch_root`.
pub fn setup(
    w: Workload,
    scale: Scale,
    seed: u64,
    scratch_root: &Path,
    tr: &Tracer,
) -> Result<Input, String> {
    let n = w.vertices(scale);
    tr.span("setup", None, |root| match w {
        Workload::StarRegular16 => {
            let g = tr
                .span("generators", Some(root), |_| {
                    generators::random_regular(n, STAR_DEGREE, seed)
                })
                .map_err(err)?;
            let params = StarPartitionParams::for_levels(&g, STAR_LEVELS);
            Ok(Input {
                m: g.num_edges(),
                delta: g.max_degree(),
                kind: Kind::Star { g, params },
            })
        }
        Workload::T52Powerlaw => {
            let g = tr
                .span("generators", Some(root), |_| {
                    let g = generators::barabasi_albert(n, T52_ATTACH, T52_GRAPH_SEED)?;
                    relabeled(&g, seed)
                })
                .map_err(err)?;
            Ok(Input {
                m: g.num_edges(),
                delta: g.max_degree(),
                kind: Kind::T52 { g },
            })
        }
        Workload::CdLinegraphMmap => {
            let base = tr
                .span("generators", Some(root), |_| {
                    generators::random_regular(n, CD_BASE_DEGREE, seed)
                })
                .map_err(err)?;
            let cover = tr
                .span("line_graph.cover", Some(root), |_| line_graph_cover(&base))
                .map_err(err)?;
            let scratch = Scratch::new(scratch_root, w.name())?;
            let lg = tr.span("storage.build", Some(root), |id| {
                let mut b = ShardedCsrBuilder::create(scratch.0.join("lg"), base.num_edges())
                    .map_err(err)?;
                tr.span("line_graph.stream", Some(id), |_| {
                    line_graph_stream(&base, &mut b)
                })
                .map_err(err)?;
                b.finish().map_err(err)
            })?;
            tr.count("storage.bytes_written", scratch.bytes() as f64);
            let params = CdParams::for_levels(cover.max_clique_size(), CD_LEVELS);
            let ids = IdAssignment::sequential(GraphView::num_vertices(&lg));
            Ok(Input {
                m: GraphView::num_edges(&lg),
                delta: GraphView::max_degree(&lg),
                kind: Kind::Cd {
                    lg,
                    cover,
                    ids,
                    params,
                    _scratch: scratch,
                },
            })
        }
    })
}

/// `g` under a random vertex permutation and edge order drawn from
/// `seed`: the same network with another ID and port assignment.
fn relabeled(g: &Graph, seed: u64) -> Result<Graph, GraphError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut id: Vec<usize> = (0..g.num_vertices()).collect();
    id.shuffle(&mut rng);
    let mut edges: Vec<(usize, usize)> = (0..g.num_edges())
        .map(|e| {
            let [u, v] = g.endpoints(EdgeId::new(e));
            (id[u.index()], id[v.index()])
        })
        .collect();
    edges.shuffle(&mut rng);
    builder_from_edges(g.num_vertices(), &edges)
}

impl Input {
    /// One call of the workload's library entry point.
    pub fn color(&self) -> Result<Outcome, String> {
        match &self.kind {
            Kind::Star { g, params } => {
                let r = star_partition_edge_coloring(g, params).map_err(err)?;
                Ok(Outcome {
                    palette: r.coloring.palette(),
                    colors: r.coloring.into_inner(),
                    stats: r.stats,
                })
            }
            Kind::T52 { g } => {
                let r = theorem52(g, T52_A, T52_Q, SubroutineConfig::default()).map_err(err)?;
                Ok(Outcome {
                    palette: r.coloring.palette(),
                    colors: r.coloring.into_inner(),
                    stats: r.stats,
                })
            }
            Kind::Cd {
                lg,
                cover,
                ids,
                params,
                ..
            } => {
                let r = cd_coloring(lg, cover, params, ids).map_err(err)?;
                Ok(Outcome {
                    palette: r.coloring.palette(),
                    colors: r.coloring.into_inner(),
                    stats: r.stats,
                })
            }
        }
    }

    /// The analytic palette bound: 2^{x+1}Δ for star, Theorem 5.2's
    /// `max(4d + 1, Δ + d)` for t52, and the CD-Coloring palette product
    /// for cd.
    pub fn palette_bound(&self) -> u64 {
        let delta = to_u64(self.delta);
        match &self.kind {
            Kind::Star { .. } => (1u64 << (STAR_LEVELS + 1)) * delta,
            Kind::T52 { .. } => analysis::theorem52_palette(delta, to_u64(T52_A), T52_Q),
            Kind::Cd { cover, params, .. } => analysis::cd_palette_product(
                to_u64(cover.diversity()),
                to_u64(cover.max_clique_size()),
                to_u64(params.t),
                u32::try_from(params.x).expect("few levels"),
            ),
        }
    }

    /// The benchmark's own check: the coloring is proper on the input and
    /// within the analytic palette bound.
    pub fn check(&self, out: &Outcome) -> Result<(), String> {
        if out.palette > self.palette_bound() {
            return Err(format!(
                "palette {} exceeds the analytic bound {}",
                out.palette,
                self.palette_bound()
            ));
        }
        if let Some(c) = out.colors.iter().find(|&&c| u64::from(c) >= out.palette) {
            return Err(format!("color {c} outside palette {}", out.palette));
        }
        match &self.kind {
            Kind::Star { g, .. } | Kind::T52 { g } => {
                check_edge_coloring(g, &out.colors, out.palette)
            }
            Kind::Cd { lg, .. } => check_vertex_coloring(lg, &out.colors),
        }
    }

    /// The entry point rebuilt from public calls, one span per call. Its
    /// outcome must digest like [`Input::color`]'s.
    pub fn color_traced(&self, tr: &Tracer) -> Result<Outcome, String> {
        match &self.kind {
            Kind::Star { g, params } => tr.span("star_partition", None, |root| {
                star_traced(tr, root, g, params)
            }),
            Kind::T52 { g } => tr.span("theorem52", None, |root| t52_traced(tr, root, g)),
            Kind::Cd {
                lg,
                cover,
                ids,
                params,
                ..
            } => tr.span("cd_coloring", None, |root| {
                cd_traced(tr, root, lg, cover, params, ids)
            }),
        }
    }
}

/// No two edges sharing an endpoint have the same color.
fn check_edge_coloring(g: &Graph, colors: &[Color], palette: u64) -> Result<(), String> {
    if colors.len() != g.num_edges() {
        return Err(format!(
            "{} colors for {} edges",
            colors.len(),
            g.num_edges()
        ));
    }
    let mut seen_at = vec![usize::MAX; usize::try_from(palette).map_err(err)?];
    for v in 0..g.num_vertices() {
        for e in g.incident_edges(VertexId::new(v)) {
            let c = colors[e.index()] as usize;
            if seen_at[c] == v {
                return Err(format!("two edges at vertex {v} share color {c}"));
            }
            seen_at[c] = v;
        }
    }
    Ok(())
}

/// No edge has equally colored endpoints.
fn check_vertex_coloring<G: GraphView>(g: &G, colors: &[Color]) -> Result<(), String> {
    if colors.len() != g.num_vertices() {
        return Err(format!(
            "{} colors for {} vertices",
            colors.len(),
            g.num_vertices()
        ));
    }
    for e in 0..g.num_edges() {
        let [u, v] = g.endpoints(EdgeId::new(e));
        if colors[u.index()] == colors[v.index()] {
            return Err(format!(
                "edge {e} joins two vertices of color {}",
                colors[u.index()]
            ));
        }
    }
    Ok(())
}

/// Colors, palette and stats of one class of a recursion.
type ClassOutcome = Result<Option<(Vec<Color>, u64, NetworkStats)>, String>;

/// Combines class colorings as ⟨class index, inner color⟩, the encoding
/// both recursions use; `index` maps a class member to its slot.
fn combine<T>(
    len: usize,
    classes: &[Vec<T>],
    index: impl Fn(&T) -> usize,
    results: Vec<ClassOutcome>,
) -> Result<(Vec<Color>, u64, NetworkStats), String> {
    let mut done = Vec::with_capacity(results.len());
    for r in results {
        done.push(r?);
    }
    let inner = done.iter().flatten().map(|r| r.1).max().unwrap_or(1);
    let mut out = vec![0 as Color; len];
    for (c, (class, result)) in classes.iter().zip(&done).enumerate() {
        let Some((colors, _, _)) = result else {
            continue;
        };
        for (child_local, member) in class.iter().enumerate() {
            let combined = to_u64(c) * inner + u64::from(colors[child_local]);
            out[index(member)] = u32::try_from(combined).map_err(err)?;
        }
    }
    let stats = NetworkStats::in_parallel(done.iter().flatten().map(|r| r.2));
    Ok((out, inner, stats))
}

fn count_stats(tr: &Tracer, layer: [&'static str; 2], s: NetworkStats) {
    tr.count(layer[0], s.rounds as f64);
    tr.count(layer[1], s.messages as f64);
}

/// `star_partition_edge_coloring` with x = 1: edge connector, its
/// edge-space coloring, one edge-space coloring per connector class, then
/// the palette trim on a `Network`.
fn star_traced(
    tr: &Tracer,
    root: SpanId,
    g: &Graph,
    params: &StarPartitionParams,
) -> Result<Outcome, String> {
    let cfg = params.subroutine;
    let t = params.t;
    let conn = tr
        .span("connectors.edge", Some(root), |_| {
            edge_connector_graph_on(g, t)
        })
        .map_err(err)?;
    tr.count("connectors.edge.edges", conn.num_edges() as f64);
    let target_conn = (2 * to_u64(t) - 1).max(1);
    let (phi, phi_stats) = tr
        .span("edge_space", Some(root), |_| {
            edge_coloring_direct(&conn, target_conn, cfg)
        })
        .map_err(err)?;
    tr.count("edge_space.calls", 1.0);
    count_stats(tr, ["edge_space.rounds", "edge_space.messages"], phi_stats);

    let classes = phi.classes();
    let star_bound = g.max_degree().div_ceil(t);
    let results: Vec<ClassOutcome> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                return Ok(None);
            }
            tr.span("star_partition.class", Some(root), |id| {
                let edges = class.iter().map(|&e| g.to_parent_edge(e)).collect();
                let child = EdgeSubgraphView::new(g, edges).map_err(err)?;
                let delta = GraphView::max_degree(&child);
                if delta > star_bound {
                    return Err(format!(
                        "class star size {delta} exceeds ⌈Δ/t⌉ = {star_bound}"
                    ));
                }
                let target = (2 * to_u64(delta) - 1).max(1);
                let r = tr
                    .span("edge_space", Some(id), |_| {
                        edge_coloring_direct_on(&child, target, cfg)
                    })
                    .map_err(err)?;
                tr.count("edge_space.calls", 1.0);
                count_stats(tr, ["edge_space.rounds", "edge_space.messages"], r.2);
                Ok(Some(r))
            })
        })
        .collect();
    let nonempty = classes.iter().filter(|c| !c.is_empty()).count();
    tr.count("star_partition.classes", nonempty as f64);
    let (mut colors, inner, class_stats) =
        combine(g.num_edges(), &classes, |e| e.index(), results)?;
    let mut palette = target_conn * inner;
    let mut stats = NetworkStats {
        rounds: 1,
        ..Default::default()
    }
    .then(phi_stats)
    .then(class_stats);

    tr.count("reduction.trim_palette_in", palette as f64);
    let delta = to_u64(g.max_degree());
    let target =
        ((1u64 << (params.x + 1)) * delta.max(1)).max(2 * delta.saturating_sub(1).max(1) + 1);
    if params.trim && g.num_edges() > 0 && palette > target {
        let mut net = tr.span("runtime.network_new", Some(root), |_| Network::new(g));
        palette = tr
            .span("reduction.trim", Some(root), |_| {
                edge_palette_trim(&mut net, &mut colors, palette, target)
            })
            .map_err(err)?;
        tr.count("reduction.trim_rounds", net.stats().rounds as f64);
        stats = stats.then(net.stats());
    }
    let coloring = EdgeColoring::new(colors, palette).map_err(err)?;
    coloring.validate(g).map_err(err)?;
    Ok(Outcome {
        colors: coloring.into_inner(),
        palette,
        stats,
    })
}

/// `theorem52(g, 2, 2.5, default)`: H-partition, the star partition of
/// the intra-set edges, then one Lemma 5.1 merge per crossing stage.
fn t52_traced(tr: &Tracer, root: SpanId, g: &Graph) -> Result<Outcome, String> {
    let cfg = SubroutineConfig::default();
    // d = ⌈q·a⌉, the H-partition degree bound.
    let d = (T52_Q * T52_A as f64).ceil() as usize;
    let m = g.num_edges();
    let delta = to_u64(g.max_degree());
    let hp = tr
        .span("h_partition", Some(root), |_| h_partition(g, d))
        .map_err(err)?;
    tr.count("h_partition.rounds", hp.stats.rounds as f64);
    tr.count("h_partition.sets", hp.num_sets as f64);
    let mut stats = hp.stats;

    let same: Vec<EdgeId> = (0..m)
        .map(EdgeId::new)
        .filter(|&e| {
            let [u, v] = g.endpoints(e);
            hp.index[u.index()] == hp.index[v.index()]
        })
        .collect();
    let mut edge_colors: Vec<Option<Color>> = vec![None; m];
    let mut intra_palette = 1u64;
    if !same.is_empty() {
        let star = tr.span("star_partition.intra", Some(root), |_| {
            let parent = same.iter().map(|&e| g.to_parent_edge(e)).collect();
            let intra = EdgeSubgraphView::new(g, parent).map_err(err)?;
            let params = StarPartitionParams {
                subroutine: cfg,
                ..StarPartitionParams::for_max_degree(to_u64(GraphView::max_degree(&intra)), 1)
            };
            star_partition_edge_coloring_on(g, &intra, &params).map_err(err)
        })?;
        intra_palette = star.coloring.palette();
        for (local, &e) in same.iter().enumerate() {
            edge_colors[e.index()] = Some(star.coloring.color(EdgeId::new(local)));
        }
        stats = stats.then(star.stats);
    }

    let palette = intra_palette.max(delta + to_u64(d));
    let mut net = tr.span("runtime.network_new", Some(root), |_| Network::new(g));
    for i in (0..hp.num_sets.saturating_sub(1)).rev() {
        let in_a: Vec<bool> = hp.index.iter().map(|&h| h == i).collect();
        let crossing: Vec<EdgeId> = (0..m)
            .map(EdgeId::new)
            .filter(|&e| {
                let [u, v] = g.endpoints(e);
                let (hu, hv) = (hp.index[u.index()], hp.index[v.index()]);
                hu.min(hv) == i && hu != hv
            })
            .collect();
        if crossing.is_empty() {
            continue;
        }
        tr.count("crossing_merge.stages", 1.0);
        tr.count("crossing_merge.edges", crossing.len() as f64);
        tr.span("crossing_merge", Some(root), |_| {
            color_crossing_edges(&mut net, &in_a, &mut edge_colors, &crossing, palette)
        })
        .map_err(err)?;
    }
    tr.count("crossing_merge.rounds", net.stats().rounds as f64);
    stats = stats.then(net.stats());

    let colors: Vec<Color> = edge_colors
        .into_iter()
        .map(|c| c.ok_or_else(|| "edge left uncolored".to_string()))
        .collect::<Result<_, _>>()?;
    let coloring = EdgeColoring::new(colors, palette).map_err(err)?;
    coloring.validate(g).map_err(err)?;
    Ok(Outcome {
        colors: coloring.into_inner(),
        palette,
        stats,
    })
}

/// `vertex_coloring_with_target` with an inherited seed coloring: Linial
/// from the seed, then the configured Δ+1 reduction, on one `Network`.
fn delta_plus_one_traced<V: GraphView>(
    tr: &Tracer,
    parent: SpanId,
    g: &V,
    seed: &VertexColoring,
    target: u64,
    cfg: SubroutineConfig,
) -> Result<(VertexColoring, NetworkStats), String> {
    tr.span("delta_plus_one", Some(parent), |id| {
        if target < to_u64(g.max_degree()) + 1 {
            return Err(format!("target {target} below Δ + 1"));
        }
        let mut net = tr.span("runtime.network_new", Some(id), |_| Network::new(g));
        let lin = tr
            .span("linial", Some(id), |_| linial_from_coloring(&mut net, seed))
            .map_err(err)?;
        count_stats(tr, ["linial.rounds", "linial.messages"], net.stats());
        let mut colors = lin.coloring.as_slice().to_vec();
        let palette = lin.coloring.palette();
        let reduced = tr.span("reduction.vertex", Some(id), |_| match cfg.reduction {
            ReductionStrategy::Basic => basic_reduction(&mut net, &mut colors, palette, target),
            ReductionStrategy::KuhnWattenhofer => {
                kw_reduction(&mut net, &mut colors, palette, target)
            }
        });
        let coloring = VertexColoring::new(colors, reduced.map_err(err)?).map_err(err)?;
        coloring.validate(g).map_err(err)?;
        tr.count("delta_plus_one.rounds", net.stats().rounds as f64);
        Ok((coloring, net.stats()))
    })
}

/// `cd_coloring` with x = 1: Linial from the ids, the clique connector of
/// the restricted cover, its Δ+1 coloring, one Δ+1 coloring per connector
/// class on an induced view, combined.
fn cd_traced(
    tr: &Tracer,
    root: SpanId,
    g: &ShardedCsr,
    cover: &CliqueCover,
    params: &CdParams,
    ids: &IdAssignment,
) -> Result<Outcome, String> {
    if params.x != 1 || params.per_level_t || params.trim_to.is_some() {
        return Err("the traced cd decomposition covers x = 1 without trims".into());
    }
    let cfg = params.subroutine;
    let t = params.t;
    let diversity = to_u64(cover.diversity().max(1));
    let mut net = tr.span("runtime.network_new", Some(root), |_| Network::new(g));
    let base = tr
        .span("linial", Some(root), |_| linial_coloring(&mut net, ids))
        .map_err(err)?
        .coloring;
    let base_stats = net.stats();
    count_stats(tr, ["linial.rounds", "linial.messages"], base_stats);

    let n = GraphView::num_vertices(g);
    let full = VertexSubsetView::new(g, (0..n).map(VertexId::new).collect()).map_err(err)?;
    if !full.has_induced_edge() {
        return Err("the cd workload has edges".into());
    }
    let (local_cover, conn) = tr.span("connectors.clique", Some(root), |_| {
        let local_cover = cover.restrict_to_subset(&full);
        let conn = clique_connector_on(&full, &local_cover, t);
        (local_cover, conn)
    });
    let conn = conn.map_err(err)?;
    tr.count("connectors.clique.edges", conn.graph.num_edges() as f64);
    let gamma = diversity * (to_u64(t) - 1) + 1;
    if to_u64(conn.graph.max_degree()) >= gamma {
        return Err(format!("connector degree reaches γ = {gamma}"));
    }
    let restrict = |vertices: &[VertexId]| {
        VertexColoring::new(
            vertices.iter().map(|&v| base.color(v)).collect(),
            base.palette(),
        )
        .map_err(err)
    };
    let sub_base = restrict(full.parent_vertices())?;
    let (phi, phi_stats) = delta_plus_one_traced(tr, root, &conn.graph, &sub_base, gamma, cfg)?;

    let k_bound = to_u64(local_cover.max_clique_size().div_ceil(t));
    let target = diversity * (k_bound - 1) + 1;
    let classes = phi.classes();
    let results: Vec<ClassOutcome> = classes
        .par_iter()
        .map(|class| {
            if class.is_empty() {
                return Ok(None);
            }
            tr.span("cd_coloring.class", Some(root), |id| {
                let parents = class.iter().map(|&lv| full.to_parent_vertex(lv)).collect();
                let child = InducedSubgraphView::new(g, parents).map_err(err)?;
                if to_u64(child.max_degree()) >= target.max(1) {
                    return Err(format!("class degree reaches D(k−1)+1 = {target}"));
                }
                let child_base = restrict(child.parent_vertices())?;
                let (c, s) = delta_plus_one_traced(tr, id, &child, &child_base, target, cfg)?;
                Ok(Some((c.as_slice().to_vec(), c.palette(), s)))
            })
        })
        .collect();
    let (colors, inner, class_stats) = combine(n, &classes, |v| v.index(), results)?;
    let palette = gamma * inner;
    let stats = base_stats.then(
        NetworkStats {
            rounds: 1,
            ..Default::default()
        }
        .then(phi_stats)
        .then(class_stats),
    );
    let coloring = VertexColoring::new(colors, palette).map_err(err)?;
    coloring.validate(g).map_err(err)?;
    Ok(Outcome {
        colors: coloring.into_inner(),
        palette,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{check_well_formed, self_times};

    fn test_dir(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    /// Two positions of the coloring that must differ: edges sharing
    /// vertex 0, or the endpoints of edge 0.
    fn adjacent_pair(input: &Input) -> (usize, usize) {
        match &input.kind {
            Kind::Star { g, .. } | Kind::T52 { g } => {
                let es: Vec<EdgeId> = g.incident_edges(VertexId::new(0)).collect();
                (es[0].index(), es[1].index())
            }
            Kind::Cd { lg, .. } => {
                let [u, v] = lg.endpoints(EdgeId::new(0));
                (u.index(), v.index())
            }
        }
    }

    #[test]
    fn every_workload_smokes_and_its_trace_reproduces_the_entry_point() {
        let dir = test_dir("smoke");
        for w in Workload::ALL {
            let tr = Tracer::default();
            let input = setup(w, Scale::Smoke, 3, &dir, &tr).unwrap();
            let out = input.color().unwrap();
            input.check(&out).unwrap();
            let traced = input.color_traced(&tr).unwrap();
            assert_eq!(
                traced.digest(),
                out.digest(),
                "{} decomposition diverged",
                w.name()
            );
            let spans = tr.spans();
            check_well_formed(&spans).unwrap();
            assert!(self_times(&spans).iter().all(|&s| s >= 0.0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_checks_reject_improper_and_oversized_colorings() {
        let dir = test_dir("neg");
        for w in Workload::ALL {
            let input = setup(w, Scale::Smoke, 5, &dir, &Tracer::default()).unwrap();
            let (a, b) = adjacent_pair(&input);
            let mut out = input.color().unwrap();
            out.colors[b] = out.colors[a];
            assert!(input.check(&out).is_err(), "{}: clash not caught", w.name());
            let mut out = input.color().unwrap();
            out.palette = input.palette_bound() + 1;
            assert!(
                input.check(&out).is_err(),
                "{}: palette not caught",
                w.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cd_scratch_is_removed_with_its_input() {
        let dir = test_dir("gc");
        let tr = Tracer::default();
        let input = setup(Workload::CdLinegraphMmap, Scale::Smoke, 1, &dir, &tr).unwrap();
        assert!(tr.counts(0)["storage.bytes_written"] > 0.0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        drop(input);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
