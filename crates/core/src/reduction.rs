//! Deterministic color-reduction subroutines.
//!
//! * [`basic_reduction`] — the paper's "basic color reduction" (Appendix
//!   B): a proper (Δ + r)-coloring becomes a (Δ + 1)-coloring in r − 1
//!   rounds by recoloring one top color class per round (a color class is
//!   an independent set, so its vertices act simultaneously).
//! * [`kw_reduction`] — Kuhn–Wattenhofer blockwise divide-and-conquer:
//!   reduces an `m`-coloring to `target` colors in
//!   O(target · log(m / target)) rounds by running basic reductions on
//!   vertex-disjoint palette blocks in parallel.
//! * [`edge_palette_trim`] — the edge-coloring analogue used by §4's
//!   "within an additional round the number of colors can be reduced":
//!   each top edge-color class is a matching, so it recolors in one round.
//!
//! All three run one kernel over the agent sets of [`crate::linial`]:
//! the vertex reductions on vertex agents, the trim and the edge-space
//! subroutine ([`crate::edge_space`]) on edge agents. A round's deciders
//! share one color (one per palette block for KW), so no two of them
//! constrain each other: they recolor in place, which reads the same
//! colors as the round's broadcast would deliver. Each round is charged
//! at the broadcast's full ledger cost; only the deciding class is
//! touched.

use decolor_graph::coloring::Color;
use decolor_graph::num;
use decolor_graph::subgraph::GraphView;
use decolor_runtime::{Network, NetworkStats};

use crate::bitset::PaletteSet;
use crate::edge_space::EdgeAgents;
use crate::error::AlgoError;
use crate::linial::{Agents, VertexAgents};

/// Smallest color `< limit` absent from `used` (the "mex below limit").
///
/// Returns `None` if all of `0..limit` are used.
///
/// This is the allocating **reference** implementation: the hot loops
/// below all route through the u64-word [`PaletteSet`] kernel instead
/// (no per-decision allocation, word-at-a-time scan). A unit test pins
/// kernel ≡ reference over random used-sets.
#[cfg_attr(not(test), allow(dead_code))] // retained as the reference oracle
pub(crate) fn mex_below(used: impl Iterator<Item = Color>, limit: u64) -> Option<Color> {
    // lint: allow(cast, "callers pass limit <= palette <= 2 * max_degree, which fits usize")
    let mut taken = vec![false; limit as usize];
    for c in used {
        if u64::from(c) < limit {
            taken[num::usize_from(c)] = true;
        }
    }
    taken.iter().position(|&t| !t).map(|p| p as Color)
}

/// One reduction phase over `agents`: for each local color `top` in
/// `t..block`, from the top down, one round in which every agent whose
/// color is `top` within its block of `block` colors moves to the
/// smallest local color below `t` held by no same-block neighbor. Needs
/// `t` above the conflict degree; afterwards every local color is below
/// `t`. The basic reduction is the one-block case (`block` = palette).
fn reduce_blocks<A: Agents>(
    agents: &A,
    colors: &mut [Color],
    block: u64,
    t: u64,
    stats: &mut NetworkStats,
) {
    // Deciders bucketed by local color (a counting sort over `t..block`),
    // so a round touches only its own class.
    let slot = |c: Color| {
        let local = u64::from(c) % block;
        // lint: allow(cast, "local − t < block − t, the slot count, which is allocated below")
        (local >= t).then(|| (local - t) as usize)
    };
    // lint: allow(cast, "block − t ≤ the palette, a color count of in-memory agents")
    let slots = (block - t) as usize;
    let mut start = vec![0usize; slots + 1];
    for &c in colors.iter() {
        if let Some(k) = slot(c) {
            start[k + 1] += 1;
        }
    }
    for k in 0..slots {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut order = vec![0usize; start[slots]];
    for (a, &c) in colors.iter().enumerate() {
        if let Some(k) = slot(c) {
            order[next[k]] = a;
            next[k] += 1;
        }
    }
    let mut set = PaletteSet::new();
    for k in (0..slots).rev() {
        for &a in &order[start[k]..start[k + 1]] {
            let b = u64::from(colors[a]) / block;
            let free = set
                .mex_marked(t, |mark| {
                    agents.for_each_neighbor(a, |n| {
                        let c = u64::from(colors[n]);
                        if c / block == b {
                            mark(c % block);
                        }
                    });
                })
                // lint: allow(panic, "Δ same-block neighbors cannot block t ≥ Δ + 1 colors")
                .expect("Δ same-block neighbors cannot block t ≥ Δ + 1 colors");
            colors[a] = (b * block + free) as Color;
        }
        *stats = stats.then(agents.round_cost());
    }
}

/// The basic reduction over `agents`: one top color class per round, from
/// `palette` down to `target` (above the conflict degree). Returns the
/// resulting palette.
pub(crate) fn basic_pass<A: Agents>(
    agents: &A,
    colors: &mut [Color],
    palette: u64,
    target: u64,
    stats: &mut NetworkStats,
) -> u64 {
    if palette <= target {
        return palette.max(1);
    }
    reduce_blocks(agents, colors, palette, target, stats);
    target
}

/// The Kuhn–Wattenhofer reduction over `agents`: halving phases, in which
/// the palette blocks of 2t colors each reduce to t colors in the same t
/// rounds, then the basic tail. Returns the resulting palette.
pub(crate) fn kw_pass<A: Agents>(
    agents: &A,
    colors: &mut [Color],
    palette: u64,
    t: u64,
    stats: &mut NetworkStats,
) -> u64 {
    let mut m = palette.max(1);
    while m > 2 * t {
        reduce_blocks(agents, colors, 2 * t, t, stats);
        // All local colors are now < t; renumber blocks densely.
        for c in colors.iter_mut() {
            let b = u64::from(*c) / (2 * t);
            let local = u64::from(*c) % (2 * t);
            debug_assert!(local < t, "halving phase left a local color ≥ t");
            *c = (b * t + local) as Color;
        }
        m = m.div_ceil(2 * t) * t;
    }
    basic_pass(agents, colors, m, t, stats)
}

/// The vertex agents of `net`'s graph for a reduction of `colors` to
/// `target`, after the checks both vertex reductions share.
fn vertex_agents<'g, V: GraphView>(
    net: &Network<'g, V>,
    colors: &[Color],
    target: u64,
) -> Result<VertexAgents<'g, V>, AlgoError> {
    let g = net.graph();
    if colors.len() != g.num_vertices() {
        return Err(AlgoError::InvalidParameters {
            reason: format!("{} colors for {} vertices", colors.len(), g.num_vertices()),
        });
    }
    if target < num::to_u64(g.max_degree()) + 1 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {} below Δ + 1 = {}", target, g.max_degree() + 1),
        });
    }
    Ok(VertexAgents::new(g, net.broadcast_cost::<Color>()))
}

/// Reduces a proper vertex coloring with palette `palette` to palette
/// `target` by recoloring top color classes one round at a time.
///
/// Costs exactly `palette − target` communication rounds (0 if the palette
/// is already within target).
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < Δ + 1` or the coloring
/// length mismatches the network's graph.
pub fn basic_reduction<V: GraphView>(
    net: &mut Network<'_, V>,
    colors: &mut [Color],
    palette: u64,
    target: u64,
) -> Result<u64, AlgoError> {
    let agents = vertex_agents(net, colors, target)?;
    let mut stats = NetworkStats::default();
    let reached = basic_pass(&agents, colors, palette, target, &mut stats);
    net.absorb_sequential(stats);
    Ok(reached)
}

/// Kuhn–Wattenhofer reduction: proper `palette`-coloring → proper
/// `target`-coloring in O(target · log(palette / target)) rounds.
///
/// # Errors
///
/// Same preconditions as [`basic_reduction`].
pub fn kw_reduction<V: GraphView>(
    net: &mut Network<'_, V>,
    colors: &mut [Color],
    palette: u64,
    target: u64,
) -> Result<u64, AlgoError> {
    let agents = vertex_agents(net, colors, target)?;
    let mut stats = NetworkStats::default();
    let reached = kw_pass(&agents, colors, palette, target, &mut stats);
    net.absorb_sequential(stats);
    Ok(reached)
}

/// Reduces a proper **edge** coloring to palette `target` one top class
/// per round. Each top class is a matching, so its edges recolor
/// simultaneously; both endpoints broadcast their incident colors each
/// round (LOCAL messages are unbounded), charged at the ledger cost of a
/// `Vec<Color>` broadcast, and the lower endpoint computes the mex.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `target < 2Δ − 1` (an edge can have
/// up to 2Δ − 2 incident edges) or lengths mismatch.
pub fn edge_palette_trim<V: GraphView>(
    net: &mut Network<'_, V>,
    colors: &mut [Color],
    palette: u64,
    target: u64,
) -> Result<u64, AlgoError> {
    let g = net.graph();
    if colors.len() != g.num_edges() {
        return Err(AlgoError::InvalidParameters {
            reason: format!("{} colors for {} edges", colors.len(), g.num_edges()),
        });
    }
    let delta = num::to_u64(g.max_degree());
    let needed = if delta == 0 { 1 } else { 2 * delta - 1 };
    if target < needed {
        return Err(AlgoError::InvalidParameters {
            reason: format!("target {target} below 2Δ − 1 = {needed}"),
        });
    }
    let agents = EdgeAgents::new(g, net.broadcast_cost::<Vec<Color>>());
    let mut stats = NetworkStats::default();
    let reached = basic_pass(&agents, colors, palette, target, &mut stats);
    net.absorb_sequential(stats);
    Ok(reached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::coloring::{EdgeColoring, VertexColoring};
    use decolor_graph::generators;
    use decolor_runtime::{IdAssignment, Network};

    /// A proper but wasteful coloring to reduce: Linial output.
    fn start(g: &decolor_graph::Graph, seed: u64) -> Vec<Color> {
        let mut net = Network::new(g);
        let ids = IdAssignment::shuffled(g.num_vertices(), seed);
        crate::linial::linial_coloring(&mut net, &ids)
            .unwrap()
            .coloring
            .into_inner()
    }

    #[test]
    fn basic_reduction_reaches_delta_plus_one() {
        let g = generators::gnm(120, 500, 1).unwrap();
        let target = g.max_degree() as u64 + 1;
        let mut net = Network::new(&g);
        let mut colors = start(&g, 1);
        let m = crate::linial::final_palette_bound(g.max_degree());
        let new_palette = basic_reduction(&mut net, &mut colors, m, target).unwrap();
        assert_eq!(new_palette, target);
        let c = VertexColoring::new(colors, target).unwrap();
        assert!(c.is_proper(&g));
        assert_eq!(net.stats().rounds, m - target);
    }

    #[test]
    fn kw_reduction_reaches_target_with_fewer_rounds() {
        let g = generators::gnm(200, 1000, 2).unwrap();
        let target = g.max_degree() as u64 + 1;
        let m = crate::linial::final_palette_bound(g.max_degree());

        let mut net_kw = Network::new(&g);
        let mut kw_colors = start(&g, 2);
        kw_reduction(&mut net_kw, &mut kw_colors, m, target).unwrap();
        let c = VertexColoring::new(kw_colors, target).unwrap();
        assert!(c.is_proper(&g));

        let mut net_basic = Network::new(&g);
        let mut basic_colors = start(&g, 2);
        basic_reduction(&mut net_basic, &mut basic_colors, m, target).unwrap();

        assert!(
            net_kw.stats().rounds < net_basic.stats().rounds,
            "KW ({}) should beat basic ({}) for m ≫ Δ",
            net_kw.stats().rounds,
            net_basic.stats().rounds
        );
    }

    #[test]
    fn kw_round_bound_matches_theory() {
        let g = generators::random_regular(256, 8, 3).unwrap();
        let target = g.max_degree() as u64 + 1;
        let m = 4096u64;
        // Build a proper coloring with palette m by spreading IDs.
        let mut colors: Vec<Color> = (0..g.num_vertices() as u32).collect();
        for c in colors.iter_mut() {
            *c *= (m as u32) / g.num_vertices() as u32;
        }
        let mut net = Network::new(&g);
        kw_reduction(&mut net, &mut colors, m, target).unwrap();
        let c = VertexColoring::new(colors, target).unwrap();
        assert!(c.is_proper(&g));
        // O(t log(m/t)): generous constant check.
        let bound = target * ((m / target) as f64).log2().ceil() as u64 * 2 + target;
        assert!(
            net.stats().rounds <= bound,
            "{} > {}",
            net.stats().rounds,
            bound
        );
    }

    #[test]
    fn rejects_target_below_delta_plus_one() {
        let g = generators::complete(5).unwrap();
        let mut net = Network::new(&g);
        let mut colors: Vec<Color> = (0..5).collect();
        assert!(basic_reduction(&mut net, &mut colors, 5, 4).is_err());
        assert!(kw_reduction(&mut net, &mut colors, 5, 4).is_err());
    }

    #[test]
    fn noop_when_palette_already_small() {
        let g = generators::cycle(6).unwrap();
        let mut net = Network::new(&g);
        let mut colors: Vec<Color> = vec![0, 1, 0, 1, 0, 2];
        let p = basic_reduction(&mut net, &mut colors, 3, 3).unwrap();
        assert_eq!(p, 3);
        assert_eq!(net.stats().rounds, 0);
    }

    #[test]
    fn edge_trim_reduces_matching_classes() {
        let g = generators::gnm(60, 150, 4).unwrap();
        let delta = g.max_degree() as u64;
        // Start from a trivially proper edge coloring: all edges distinct.
        let m = g.num_edges() as u64;
        let mut colors: Vec<Color> = (0..g.num_edges() as u32).collect();
        let target = 2 * delta - 1 + 5;
        let mut net = Network::new(&g);
        let p = edge_palette_trim(&mut net, &mut colors, m, target).unwrap();
        assert_eq!(p, target);
        let c = EdgeColoring::new(colors, target).unwrap();
        assert!(c.is_proper(&g), "trimmed edge coloring must stay proper");
        assert_eq!(net.stats().rounds, m - target);
    }

    #[test]
    fn edge_trim_rejects_tight_target() {
        let g = generators::complete(4).unwrap(); // Δ = 3
        let mut net = Network::new(&g);
        let mut colors: Vec<Color> = (0..6).collect();
        assert!(edge_palette_trim(&mut net, &mut colors, 6, 4).is_err());
    }

    #[test]
    fn palette_set_kernel_matches_reference_mex() {
        // Deterministic splitmix-style stream; covers empty used-sets,
        // saturated prefixes, colors beyond the limit, and limits past
        // the kernel's inline words (spill path).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut set = crate::bitset::PaletteSet::new();
        for trial in 0..600u64 {
            let limit = match trial % 4 {
                0 => 1 + next() % 8,
                1 => 1 + next() % 200,
                2 => 1 + next() % 700,
                // Past INLINE_COLORS: exercises the spill buffer.
                _ => crate::bitset::INLINE_COLORS + 1 + next() % 300,
            };
            let count = (next() % (2 * limit + 2)) as usize;
            let used: Vec<Color> = (0..count)
                .map(|_| (next() % (limit + limit / 2 + 2)) as Color)
                .collect();
            let reference = mex_below(used.iter().copied(), limit);
            set.reset(limit);
            for &c in &used {
                set.insert(u64::from(c));
            }
            assert_eq!(
                set.mex().map(|c| c as Color),
                reference,
                "kernel diverges from reference at limit {limit}, used {used:?}"
            );
            // The closure-marking shape must agree too.
            let marked = set.mex_marked(limit, |mark| {
                for &c in &used {
                    mark(u64::from(c));
                }
            });
            assert_eq!(marked.map(|c| c as Color), reference);
        }
    }

    #[test]
    fn mex_below_basics() {
        assert_eq!(mex_below([0, 1, 3].into_iter(), 5), Some(2));
        assert_eq!(mex_below([1, 2].into_iter(), 5), Some(0));
        assert_eq!(mex_below([0, 1, 2].into_iter(), 3), None);
        assert_eq!(mex_below(std::iter::empty(), 1), Some(0));
    }
}
