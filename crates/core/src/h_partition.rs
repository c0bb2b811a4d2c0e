//! **H-partitions** (Nash–Williams forest-decomposition peeling, \[4\]; used
//! throughout §5).
//!
//! An H-partition with degree `d` splits `V` into sets `H_1, …, H_ℓ` such
//! that every `v ∈ H_i` has at most `d` neighbors in `H_i ∪ … ∪ H_ℓ`. For
//! a graph of arboricity `a` and `d = ⌈q·a⌉` with `q ≥ 2 + ε`, repeatedly
//! peeling all vertices of remaining degree ≤ d removes at least an
//! ε/(2+ε) fraction of the remaining vertices per round, so ℓ = O(log n)
//! (O(log n / log q) for larger q, which Theorem 5.4 exploits).
//!
//! Orienting every edge toward the higher-index H-set (ties toward the
//! higher ID) yields an **acyclic orientation with out-degree ≤ d** — the
//! arboricity certificate consumed by the orientation connectors.

use decolor_graph::num;
use decolor_graph::orientation::Orientation;
use decolor_graph::subgraph::GraphView;
use decolor_graph::VertexId;
use decolor_runtime::NetworkStats;

use crate::error::AlgoError;

/// An H-partition of a graph.
#[derive(Clone, Debug)]
pub struct HPartition {
    /// H-set index of each vertex (0-based: `H_1` is index 0).
    pub index: Vec<usize>,
    /// Number of sets ℓ.
    pub num_sets: usize,
    /// The peeling threshold `d`.
    pub degree_bound: usize,
    /// Measured LOCAL statistics of the peeling.
    pub stats: NetworkStats,
}

/// Computes an H-partition with degree bound `d` by parallel peeling.
///
/// Each peeling level is one communication round in which every
/// still-active vertex announces itself on all its ports; a vertex's
/// active degree is the number of announcements it hears. The round is
/// simulated by one **active-degree counter** per vertex instead of a
/// message buffer: a level peels the active vertices whose counter, read
/// at the start of the level, is ≤ d, then decrements the counters of
/// their neighbours port by port (so a parallel edge counts once per
/// copy). The ledger charges each level exactly what the announcement
/// costs: one round and one 1-byte message per port of an active vertex,
/// Σ_{v active} deg(v). Peeled vertices stay silent, so the whole
/// partition costs O(n + m) work however many levels it takes.
///
/// ```rust
/// use decolor_core::h_partition::h_partition;
/// use decolor_graph::generators;
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::random_tree(100, 1).unwrap(); // arboricity 1
/// let hp = h_partition(&g, 3)?;
/// hp.verify(&g)?;
/// let o = hp.orientation(&g);
/// assert!(o.is_acyclic(&g));
/// assert!(o.max_out_degree(&g) <= 3);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `d` is too small to peel — i.e.
/// some remaining subgraph has minimum degree > d, which happens exactly
/// when `d < 2·density`; pass `d ≥ ⌈(2 + ε)·a⌉`.
pub fn h_partition<V: GraphView>(g: &V, d: usize) -> Result<HPartition, AlgoError> {
    let n = g.num_vertices();
    let mut index = vec![usize::MAX; n];
    // `active_degree[v]`: ports of v whose other end is still active —
    // the announcements v would hear this level.
    let mut active_degree: Vec<usize> = (0..n).map(|v| g.degree(VertexId::new(v))).collect();
    let mut active_list: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    // Σ_{v active} deg(v): the messages one announcement round delivers.
    let mut active_ports: u64 = active_degree.iter().map(|&k| num::to_u64(k)).sum();
    let mut stats = NetworkStats::default();
    let mut peeled = Vec::new();
    let mut level = 0usize;
    while !active_list.is_empty() {
        stats = stats.then(NetworkStats {
            rounds: 1,
            messages: active_ports,
            // One presence byte per message.
            payload_bytes: active_ports,
        });
        peeled.clear();
        peeled.extend(
            active_list
                .iter()
                .copied()
                .filter(|v| active_degree[v.index()] <= d),
        );
        if peeled.is_empty() {
            return Err(AlgoError::InvalidParameters {
                reason: format!(
                    "H-partition stuck at level {level} with {} vertices: \
                     threshold d = {d} is below twice the remaining density",
                    active_list.len()
                ),
            });
        }
        for &v in &peeled {
            index[v.index()] = level;
            active_ports -= num::to_u64(g.degree(v));
            g.for_each_port(v, |u, _| active_degree[u.index()] -= 1);
        }
        active_list.retain(|v| index[v.index()] == usize::MAX);
        level += 1;
    }
    Ok(HPartition {
        index,
        num_sets: level,
        degree_bound: d,
        stats,
    })
}

impl HPartition {
    /// Checks the defining property: every `v ∈ H_i` has at most `d`
    /// neighbors in `H_i ∪ … ∪ H_ℓ`.
    ///
    /// # Errors
    ///
    /// [`AlgoError::InvariantViolated`] naming the violating vertex.
    pub fn verify<V: GraphView>(&self, g: &V) -> Result<(), AlgoError> {
        for vi in 0..g.num_vertices() {
            let v = VertexId::new(vi);
            let i = self.index[v.index()];
            let mut later = 0usize;
            g.for_each_port(v, |u, _| {
                if self.index[u.index()] >= i {
                    later += 1;
                }
            });
            if later > self.degree_bound {
                return Err(AlgoError::InvariantViolated {
                    reason: format!(
                        "vertex {v} in H_{} has {later} ≥-index neighbors > d = {}",
                        i + 1,
                        self.degree_bound
                    ),
                });
            }
        }
        Ok(())
    }

    /// The acyclic orientation of \[4\]: edges point to the higher H-index,
    /// ties to the higher ID. Out-degree ≤ `d`.
    pub fn orientation<V: GraphView>(&self, g: &V) -> Orientation {
        let rank: Vec<u64> = self.index.iter().map(|&i| num::to_u64(i)).collect();
        Orientation::from_rank(g, &rank)
    }

    /// Vertices of H-set `i` (0-based).
    pub fn set(&self, i: usize) -> Vec<VertexId> {
        (0..self.index.len())
            .filter(|&v| self.index[v] == i)
            .map(VertexId::new)
            .collect()
    }
}

/// Convenience: the paper's threshold `d = ⌈q·a⌉` for arboricity `a`.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `q < 2` (peeling can stall) or
/// `a == 0` on a non-edgeless graph.
pub fn h_partition_for_arboricity<V: GraphView>(
    g: &V,
    a: usize,
    q: f64,
) -> Result<HPartition, AlgoError> {
    if q < 2.0 {
        return Err(AlgoError::InvalidParameters {
            reason: format!("q = {q} must be ≥ 2 (+ε) for the peeling to make progress"),
        });
    }
    if a == 0 && g.num_edges() > 0 {
        return Err(AlgoError::InvalidParameters {
            reason: "arboricity bound 0 for a graph with edges".into(),
        });
    }
    let d = num::f64_to_usize((q * num::approx_f64(a)).ceil())?;
    h_partition(g, d.max(1))
}

/// The peeling as a plain per-level rescan: at each level every active
/// vertex counts its active ports afresh (the presence bytes its active
/// neighbours send it), and the level is charged one round and
/// `Σ deg(active)` one-byte messages. Test-only oracle for the counter
/// peeling of [`h_partition`].
#[cfg(test)]
pub(crate) fn h_partition_by_broadcast<V: GraphView>(
    g: &V,
    d: usize,
) -> Result<HPartition, AlgoError> {
    let n = g.num_vertices();
    let mut stats = NetworkStats::default();
    let mut index = vec![usize::MAX; n];
    let mut active_list: Vec<VertexId> = (0..n).map(VertexId::new).collect();
    let mut level = 0usize;
    while !active_list.is_empty() {
        let mut messages = 0u64;
        let mut peeled = Vec::new();
        for &v in &active_list {
            messages += num::to_u64(g.degree(v));
            let mut active_ports = 0usize;
            g.for_each_port(v, |u, _| {
                if index[u.index()] == usize::MAX {
                    active_ports += 1;
                }
            });
            if active_ports <= d {
                peeled.push(v);
            }
        }
        stats = stats.then(NetworkStats {
            rounds: 1,
            messages,
            payload_bytes: messages,
        });
        if peeled.is_empty() {
            return Err(AlgoError::InvalidParameters {
                reason: format!("H-partition stuck at level {level}: threshold d = {d}"),
            });
        }
        for &v in &peeled {
            index[v.index()] = level;
        }
        active_list.retain(|v| index[v.index()] == usize::MAX);
        level += 1;
    }
    Ok(HPartition {
        index,
        num_sets: level,
        degree_bound: d,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::subgraph::EdgeSubgraphView;
    use decolor_graph::{generators, EdgeId};

    #[test]
    fn partition_of_forest_union() {
        let g = generators::forest_union(300, 3, 6, 1).unwrap();
        let hp = h_partition_for_arboricity(&g, 3, 2.5).unwrap();
        hp.verify(&g).unwrap();
        assert!(hp.num_sets >= 1);
        // One round per peeling level.
        assert_eq!(hp.stats.rounds, hp.num_sets as u64);
    }

    #[test]
    fn orientation_is_acyclic_with_bounded_out_degree() {
        let g = generators::forest_union(200, 4, 5, 2).unwrap();
        let hp = h_partition_for_arboricity(&g, 4, 2.5).unwrap();
        let o = hp.orientation(&g);
        assert!(o.is_acyclic(&g));
        assert!(o.max_out_degree(&g) <= hp.degree_bound);
    }

    #[test]
    fn tree_peels_fast() {
        let g = generators::random_tree(1000, 3).unwrap();
        let hp = h_partition_for_arboricity(&g, 1, 3.0).unwrap();
        hp.verify(&g).unwrap();
        // d = 3 peeling on a tree: ℓ = O(log n), generously < 20.
        assert!(hp.num_sets < 20, "ℓ = {}", hp.num_sets);
    }

    #[test]
    fn larger_q_gives_fewer_levels() {
        let g = generators::forest_union(500, 2, 8, 3).unwrap();
        let small_q = h_partition_for_arboricity(&g, 2, 2.5).unwrap();
        let large_q = h_partition_for_arboricity(&g, 2, 8.0).unwrap();
        assert!(large_q.num_sets <= small_q.num_sets);
    }

    #[test]
    fn stall_detected_for_undersized_threshold() {
        // K6 has min degree 5; threshold 2 cannot peel anything.
        let g = generators::complete(6).unwrap();
        assert!(h_partition(&g, 2).is_err());
    }

    #[test]
    fn sets_partition_the_vertices() {
        let g = generators::grid(10, 12).unwrap();
        let hp = h_partition_for_arboricity(&g, 2, 2.5).unwrap();
        let total: usize = (0..hp.num_sets).map(|i| hp.set(i).len()).sum();
        assert_eq!(total, g.num_vertices());
        assert!(hp.set(hp.num_sets).is_empty());
    }

    #[test]
    fn rejects_invalid_parameters() {
        let g = generators::path(5).unwrap();
        assert!(h_partition_for_arboricity(&g, 1, 1.5).is_err());
        assert!(h_partition_for_arboricity(&g, 0, 2.5).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = decolor_graph::GraphBuilder::new(0).build();
        let hp = h_partition(&g, 1).unwrap();
        assert_eq!(hp.num_sets, 0);
    }

    /// The counter peeling against the broadcast oracle: same levels,
    /// same set count, same ledger, on skewed, sparse, grid, multigraph
    /// and class-view topologies, at the tight and a loose threshold.
    #[test]
    fn counter_peeling_matches_the_broadcast_oracle() {
        fn check<V: GraphView>(name: &str, g: &V, d: usize) {
            let hp = h_partition(g, d).unwrap();
            let oracle = h_partition_by_broadcast(g, d).unwrap();
            assert_eq!(hp.index, oracle.index, "{name} d = {d}: index");
            assert_eq!(hp.num_sets, oracle.num_sets, "{name} d = {d}: sets");
            assert_eq!(hp.stats, oracle.stats, "{name} d = {d}: stats");
            hp.verify(g).unwrap();
        }
        for seed in 0..3u64 {
            let ba2 = generators::barabasi_albert(2_000, 2, seed).unwrap();
            let ba4 = generators::barabasi_albert(2_000, 4, seed).unwrap();
            for d in [5, 9] {
                check("ba(2)", &ba2, d);
            }
            for d in [10, 16] {
                check("ba(4)", &ba4, d);
            }
            // The t53 class case: one color class of the root as a view.
            let class: Vec<EdgeId> = ba4.edges().filter(|e| e.index() % 3 != 0).collect();
            let view = EdgeSubgraphView::new(&ba4, class).unwrap();
            check("ba(4) class view", &view, 8);
        }
        let forests = generators::forest_union(600, 3, 9, 4).unwrap();
        check("forest_union", &forests, 8);
        let grid = generators::grid(30, 40).unwrap();
        check("grid", &grid, 5);
        // Parallel edges: each copy is a port, so it counts once per copy.
        // Every third edge of a sparse random graph is doubled; below the
        // stall threshold both peelings must refuse.
        let base = generators::gnm(150, 500, 3).unwrap();
        let mut b = decolor_graph::GraphBuilder::new_multi(150);
        for (e, [u, v]) in base.edge_list() {
            for _ in 0..1 + usize::from(e.index() % 3 == 0) {
                b.add_edge(u.index(), v.index()).unwrap();
            }
        }
        let multi = b.build();
        assert!(multi.has_parallel_edges());
        for d in 1..=16 {
            match h_partition_by_broadcast(&multi, d) {
                Ok(_) => check("multigraph", &multi, d),
                Err(_) => assert!(h_partition(&multi, d).is_err(), "multigraph d = {d}"),
            }
        }
    }

    #[test]
    fn stall_names_the_level_and_threshold() {
        let g = generators::complete(6).unwrap();
        let err = h_partition(&g, 2).unwrap_err().to_string();
        assert!(
            err.contains("stuck at level 0") && err.contains("d = 2"),
            "{err}"
        );
        assert!(h_partition_by_broadcast(&g, 2).is_err());
    }
}
