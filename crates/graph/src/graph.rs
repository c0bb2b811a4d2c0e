//! The immutable CSR graph type.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rayon::prelude::*;

use crate::ids::{EdgeId, VertexId};
use crate::num;

/// Below this edge count the sharded CSR build falls back to the
/// sequential one — the scatter is cache-resident and thread setup would
/// dominate.
const PARALLEL_CSR_THRESHOLD: usize = 1 << 15;

/// An immutable undirected graph in CSR (compressed sparse row) form.
///
/// Vertices are `0..n`, edges are `0..m` in insertion order. Each edge
/// stores its two endpoints; each vertex stores its incidence list of
/// `(neighbor, edge)` pairs. Parallel edges are representable (some
/// connector constructions in the paper conceptually produce multigraphs)
/// but self-loops are not.
///
/// Construct via [`GraphBuilder`](crate::GraphBuilder) or a generator from
/// [`generators`](crate::generators).
///
/// ```rust
/// use decolor_graph::{GraphBuilder, VertexId};
/// # fn main() -> Result<(), decolor_graph::GraphError> {
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(2, 3)?;
/// let g = b.build();
/// assert_eq!(g.degree(VertexId::new(1)), 2);
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    /// CSR offsets into `adj`; length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened incidence lists: `(neighbor, incident edge)`.
    adj: Vec<(VertexId, EdgeId)>,
    /// Endpoints per edge, with `endpoints[e][0] <= endpoints[e][1]`.
    endpoints: Vec<[VertexId; 2]>,
}

impl Graph {
    /// Internal constructor used by [`GraphBuilder`](crate::GraphBuilder).
    pub(crate) fn from_parts(n: usize, edges: Vec<[VertexId; 2]>) -> Self {
        let mut degree = vec![0usize; n];
        for [u, v] in &edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(VertexId::new(0), EdgeId::new(0)); acc];
        for (i, [u, v]) in edges.iter().enumerate() {
            let e = EdgeId::new(i);
            adj[cursor[u.index()]] = (*v, e);
            cursor[u.index()] += 1;
            adj[cursor[v.index()]] = (*u, e);
            cursor[v.index()] += 1;
        }
        Graph {
            n,
            offsets,
            adj,
            endpoints: edges,
        }
    }

    /// [`Graph::from_parts`] with the CSR built on the worker pool:
    /// per-shard degree counts over contiguous edge ranges, one prefix
    /// sum, and a parallel scatter into packed `(neighbor, edge)` slots.
    ///
    /// Every adjacency slot has exactly one writer (shard `c` owns the
    /// run `[starts_c[v], starts_{c+1}[v])` of each vertex's incidence
    /// region, and within a shard edges are scanned in id order), so the
    /// result is **bit-identical** to the sequential build at any worker
    /// count — the thread-count-invariance test pins this. Falls back to
    /// [`Graph::from_parts`] for small inputs, a 1-thread pool, or
    /// adjacency sizes beyond `u32` cursors.
    pub(crate) fn from_parts_parallel(n: usize, edges: Vec<[VertexId; 2]>) -> Self {
        let m = edges.len();
        // Shard count is capped so the transient per-shard cursor tables
        // (shards × n u32 words) stay far below the CSR being built.
        let shards = rayon::current_num_threads().min(8);
        if shards <= 1 || m < PARALLEL_CSR_THRESHOLD || 2 * m > num::usize_from(u32::MAX) {
            return Graph::from_parts(n, edges);
        }
        let chunk = m.div_ceil(shards);
        let ranges: Vec<std::ops::Range<usize>> = (0..shards)
            .map(|s| (s * chunk)..((s + 1) * chunk).min(m))
            .filter(|r| !r.is_empty())
            .collect();

        // Pass 1: per-shard degree counts.
        let counts: Vec<Vec<u32>> = ranges
            .par_iter()
            .map(|r| {
                let mut c = vec![0u32; n];
                for [u, v] in &edges[r.clone()] {
                    c[u.index()] += 1;
                    c[v.index()] += 1;
                }
                c
            })
            .collect();

        // Prefix sums: global CSR offsets, then each shard's starting
        // cursor per vertex (reusing the count allocations).
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for v in 0..n {
            acc += counts.iter().map(|c| num::usize_from(c[v])).sum::<usize>();
            offsets.push(acc);
        }
        // lint: allow(cast, "guarded above: 2 * m <= u32::MAX and every CSR offset is at most 2m")
        let mut run: Vec<u32> = offsets[..n].iter().map(|&o| o as u32).collect();
        let jobs: Vec<(std::ops::Range<usize>, Mutex<Vec<u32>>)> = ranges
            .into_iter()
            .zip(counts)
            .map(|(r, c)| {
                let start = run.clone();
                for v in 0..n {
                    run[v] += c[v];
                }
                (r, Mutex::new(start))
            })
            .collect();

        // Pass 2: parallel scatter. Slots are atomics only because they
        // are shared across the scoped workers; each is stored exactly
        // once, so `Relaxed` plus the scope join is enough.
        let slots: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0))
            .take(acc)
            .collect();
        let pack =
            |neighbor: VertexId, e: usize| (num::to_u64(neighbor.index()) << 32) | num::to_u64(e);
        jobs.par_iter().for_each(|(r, cursor)| {
            // lint: allow(panic, "each shard locks only its own cursor")
            let mut cursor = cursor.lock().expect("each shard locks only its own cursor");
            for (k, [u, v]) in edges[r.clone()].iter().enumerate() {
                let e = r.start + k;
                let pu = cursor[u.index()];
                cursor[u.index()] += 1;
                slots[num::usize_from(pu)].store(pack(*v, e), Ordering::Relaxed);
                let pv = cursor[v.index()];
                cursor[v.index()] += 1;
                slots[num::usize_from(pv)].store(pack(*u, e), Ordering::Relaxed);
            }
        });
        drop(jobs);

        let adj: Vec<(VertexId, EdgeId)> = slots
            .iter()
            .map(|s| {
                let w = s.load(Ordering::Relaxed);
                (
                    // lint: allow(cast, "the high half of the packed word is a u32 vertex id")
                    VertexId::new((w >> 32) as usize),
                    // lint: allow(cast, "masked to the low 32 bits, which fit usize")
                    EdgeId::new((w & u64::from(u32::MAX)) as usize),
                )
            })
            .collect();
        Graph {
            n,
            offsets,
            adj,
            endpoints: edges,
        }
    }

    /// Returns the number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Returns the number of edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Returns the degree of `v` (counting parallel edges).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Returns the maximum degree Δ of the graph (0 for edgeless graphs).
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|v| self.degree(VertexId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// Returns the incidence list of `v` as `(neighbor, edge)` pairs.
    ///
    /// The *port numbering* of the LOCAL model is exactly the position in
    /// this slice: port `p` of `v` is `self.incidence(v)[p]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn incidence(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// Iterates over the neighbors of `v` (with multiplicity).
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.incidence(v).iter().map(|&(u, _)| u)
    }

    /// Iterates over the edges incident on `v`.
    pub fn incident_edges(&self, v: VertexId) -> impl Iterator<Item = EdgeId> + '_ {
        self.incidence(v).iter().map(|&(_, e)| e)
    }

    /// Returns the endpoints of edge `e`, in ascending vertex order.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> [VertexId; 2] {
        self.endpoints[e.index()]
    }

    /// Given edge `e` and one endpoint `v`, returns the other endpoint.
    ///
    /// # Errors
    ///
    /// [`GraphError`](crate::GraphError)`::NotAnEndpoint` if `v` is not
    /// an endpoint of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, v: VertexId) -> Result<VertexId, crate::GraphError> {
        let [a, b] = self.endpoints(e);
        if a == v {
            Ok(b)
        } else if b == v {
            Ok(a)
        } else {
            Err(crate::GraphError::NotAnEndpoint {
                vertex: v.index(),
                edge: e.index(),
            })
        }
    }

    /// Iterates over all vertex identifiers.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.n).map(VertexId::new)
    }

    /// Iterates over all edge identifiers.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.num_edges()).map(EdgeId::new)
    }

    /// Iterates over `(edge, [u, v])` for all edges.
    pub fn edge_list(&self) -> impl Iterator<Item = (EdgeId, [VertexId; 2])> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| (EdgeId::new(i), *ep))
    }

    /// Returns `true` if `u` and `v` are adjacent.
    ///
    /// Runs in O(min(deg(u), deg(v))).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).any(|w| w == b)
    }

    /// Returns `true` if the graph contains at least one parallel edge
    /// ([`GraphView::has_parallel_edges`](crate::subgraph::GraphView::has_parallel_edges)).
    pub fn has_parallel_edges(&self) -> bool {
        crate::subgraph::GraphView::has_parallel_edges(self)
    }

    /// Number of edges in the line graph of this graph, i.e.
    /// `Σ_v C(deg(v), 2)` (assuming no parallel edges).
    pub fn line_graph_edge_count(&self) -> usize {
        self.vertices()
            .map(|v| self.degree(v) * self.degree(v).saturating_sub(1) / 2)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path4() -> Graph {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            b.add_edge(u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn degrees_of_path() {
        let g = path4();
        assert_eq!(g.degree(VertexId::new(0)), 1);
        assert_eq!(g.degree(VertexId::new(1)), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn incidence_lists_are_consistent() {
        let g = path4();
        for v in g.vertices() {
            for &(u, e) in g.incidence(v) {
                let [a, b] = g.endpoints(e);
                assert!((a == v && b == u) || (a == u && b == v));
            }
        }
    }

    #[test]
    fn other_endpoint_flips() {
        let g = path4();
        let e = EdgeId::new(0);
        let [u, v] = g.endpoints(e);
        assert_eq!(g.other_endpoint(e, u), Ok(v));
        assert_eq!(g.other_endpoint(e, v), Ok(u));
    }

    #[test]
    fn other_endpoint_errors_on_nonincident() {
        let g = path4();
        assert_eq!(
            g.other_endpoint(EdgeId::new(0), VertexId::new(3)),
            Err(crate::GraphError::NotAnEndpoint { vertex: 3, edge: 0 })
        );
    }

    #[test]
    fn has_edge_works() {
        let g = path4();
        assert!(g.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!g.has_edge(VertexId::new(0), VertexId::new(2)));
    }

    #[test]
    fn edgeless_graph() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn line_graph_edge_count_of_star() {
        // K_{1,4}: center has degree 4 => C(4,2) = 6 line-graph edges.
        let mut b = GraphBuilder::new(5);
        for v in 1..5 {
            b.add_edge(0, v).unwrap();
        }
        let g = b.build();
        assert_eq!(g.line_graph_edge_count(), 6);
    }

    #[test]
    fn parallel_csr_build_is_thread_count_invariant() {
        // Big enough to clear PARALLEL_CSR_THRESHOLD so the sharded path
        // actually runs.
        let g = crate::generators::gnm(3000, 40_000, 7).unwrap();
        let edges: Vec<[VertexId; 2]> = g.edge_list().map(|(_, ep)| ep).collect();
        let sequential = Graph::from_parts(3000, edges.clone());
        assert_eq!(sequential, g);
        for threads in [1usize, 2, 4, 7] {
            let parallel = rayon::with_num_threads(threads, || {
                Graph::from_parts_parallel(3000, edges.clone())
            });
            assert_eq!(parallel, sequential, "CSR diverges at {threads} threads");
        }
    }

    #[test]
    fn parallel_edge_detection() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).unwrap();
        let g = b.build();
        assert!(!g.has_parallel_edges());

        let mut b = GraphBuilder::new_multi(2);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        let g = b.build();
        assert!(g.has_parallel_edges());
        assert_eq!(g.degree(VertexId::new(0)), 2);
    }
}
