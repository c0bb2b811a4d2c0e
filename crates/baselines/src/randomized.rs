//! A randomized distributed (2Δ − 1)-edge-coloring in O(log m) expected
//! rounds — the classic Luby-style contrast to the paper's deterministic
//! algorithms (the intro cites the randomized line of work \[14, 16, 22\];
//! this is its simplest representative, *not* their (1+ε)Δ nibble
//! methods).
//!
//! Each round, every uncolored edge proposes a uniformly random color
//! that is free at both endpoints (the lower endpoint samples, per the
//! usual symmetry-breaking convention); a proposal sticks iff no incident
//! edge proposed the same color in the same round. With palette 2Δ − 1 a
//! constant fraction of edges succeeds per round in expectation.

use decolor_core::AlgoError;
use decolor_graph::coloring::{Color, EdgeColoring};
use decolor_graph::{num, Graph};
use decolor_runtime::{Network, NetworkStats};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Runs the randomized edge coloring with a seeded RNG (reproducible).
///
/// # Errors
///
/// * [`AlgoError::InvalidParameters`] if `palette < 2Δ − 1`.
/// * [`AlgoError::InvariantViolated`] if the round cap (64·log₂ m + 64)
///   is exceeded — astronomically unlikely with a valid palette.
pub fn randomized_edge_coloring(
    g: &Graph,
    palette: u64,
    seed: u64,
) -> Result<(EdgeColoring, NetworkStats), AlgoError> {
    let delta = num::to_u64(g.max_degree());
    let m = g.num_edges();
    if m == 0 {
        let empty = EdgeColoring::new(vec![], 1).map_err(AlgoError::invariant)?;
        return Ok((empty, NetworkStats::default()));
    }
    let needed = 2 * delta - 1;
    if palette < needed {
        return Err(AlgoError::InvalidParameters {
            reason: format!("palette {palette} below 2Δ − 1 = {needed}"),
        });
    }
    let palette_len = num::to_usize(palette)?;
    let palette32 = num::to_u32(palette_len)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new(g);
    let mut colors: Vec<Option<Color>> = vec![None; m];
    let mut uncolored = m;
    // lint: allow(cast, "ceil of log2 of an edge count is a small positive integer")
    let cap = 64 * num::approx_f64(m.max(2)).log2().ceil() as u64 + 64;

    while uncolored > 0 {
        if net.stats().rounds > cap {
            return Err(AlgoError::InvariantViolated {
                reason: format!("randomized coloring exceeded {cap} rounds"),
            });
        }
        // Propose: the lower endpoint of each uncolored edge samples a
        // color free at both endpoints.
        let mut proposal: Vec<Option<Color>> = vec![None; m];
        for (e, [u, v]) in g.edge_list() {
            if colors[e.index()].is_some() {
                continue;
            }
            let mut used = vec![false; palette_len];
            for w in [u, v] {
                for f in g.incident_edges(w) {
                    if let Some(c) = colors[f.index()] {
                        used[num::usize_from(c)] = true;
                    }
                }
            }
            let free: Vec<Color> = (0..palette32)
                .filter(|&c| !used[num::usize_from(c)])
                .collect();
            proposal[e.index()] = free.choose(&mut rng).copied();
        }
        // One round: every vertex broadcasts the `(edge, color)`
        // proposals of its incident edges; the acceptance test below reads
        // them from `proposal` in place.
        net.absorb_sequential(net.broadcast_cost::<Vec<(u32, Color)>>());
        // Accept proposals unique among both endpoints' incident
        // proposals.
        let mut accepted: Vec<(usize, Color)> = Vec::new();
        for (e, [u, v]) in g.edge_list() {
            let Some(cand) = proposal[e.index()] else {
                continue;
            };
            let conflict = [u, v].iter().any(|&w| {
                g.incident_edges(w)
                    .any(|f| f != e && proposal[f.index()] == Some(cand))
            });
            if !conflict {
                accepted.push((e.index(), cand));
            }
        }
        for (i, c) in accepted {
            colors[i] = Some(c);
            uncolored -= 1;
        }
    }

    let out: Vec<Color> = colors
        .into_iter()
        // lint: allow(panic, "loop exits only when all edges are colored")
        .map(|c| c.expect("loop exits only when all edges are colored"))
        .collect();
    let ec = EdgeColoring::new(out, palette).map_err(AlgoError::invariant)?;
    ec.validate(g).map_err(AlgoError::invariant)?;
    Ok((ec, net.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::generators;

    #[test]
    fn colors_random_graphs_with_two_delta_minus_one() {
        for seed in 0..3u64 {
            let g = generators::gnm(100, 400, seed).unwrap();
            let delta = g.max_degree() as u64;
            let (c, stats) = randomized_edge_coloring(&g, 2 * delta - 1, seed).unwrap();
            assert!(c.is_proper(&g));
            assert_eq!(c.palette(), 2 * delta - 1);
            assert!(stats.rounds > 0);
        }
    }

    #[test]
    fn log_rounds_in_practice() {
        let g = generators::random_regular(1024, 8, 1).unwrap();
        let (c, stats) = randomized_edge_coloring(&g, 15, 2).unwrap();
        assert!(c.is_proper(&g));
        // O(log m) whp: generous cap for the assertion.
        assert!(stats.rounds <= 60, "took {} rounds", stats.rounds);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnm(60, 200, 5).unwrap();
        let delta = g.max_degree() as u64;
        let (a, _) = randomized_edge_coloring(&g, 2 * delta - 1, 9).unwrap();
        let (b, _) = randomized_edge_coloring(&g, 2 * delta - 1, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn larger_palettes_converge_faster() {
        let g = generators::random_regular(256, 10, 3).unwrap();
        let (_, tight) = randomized_edge_coloring(&g, 19, 4).unwrap();
        let (_, loose) = randomized_edge_coloring(&g, 40, 4).unwrap();
        assert!(loose.rounds <= tight.rounds + 2);
    }

    #[test]
    fn ledger_charges_one_proposal_broadcast_per_round() {
        let g = generators::gnm(60, 200, 5).unwrap();
        let delta = g.max_degree() as u64;
        let (_, stats) = randomized_edge_coloring(&g, 2 * delta - 1, 9).unwrap();
        let two_m = 2 * g.num_edges() as u64;
        assert_eq!(stats.messages, stats.rounds * two_m);
        assert_eq!(
            stats.payload_bytes,
            stats.messages * std::mem::size_of::<Vec<(u32, Color)>>() as u64
        );
        assert_eq!(
            stats,
            NetworkStats {
                rounds: 4,
                messages: 1600,
                payload_bytes: 38400,
            }
        );
    }

    #[test]
    fn rejects_undersized_palette_and_handles_empty() {
        let g = generators::complete(5).unwrap();
        assert!(randomized_edge_coloring(&g, 5, 0).is_err());
        let e = decolor_graph::GraphBuilder::new(3).build();
        let (c, _) = randomized_edge_coloring(&e, 1, 0).unwrap();
        assert!(c.is_empty());
    }
}
