//! Deterministic workload generators.
//!
//! Every generator takes an explicit `seed` and uses a small deterministic
//! PRNG, so experiments are exactly reproducible. The families mirror the
//! ones the paper names: general graphs (Tables 1), bounded-arboricity
//! graphs — forests, grids, unions of bounded-degree forests — (Section 5),
//! unit-disk-style sensor networks (§1.2 motivation), and c-uniform
//! hypergraphs whose line graphs have bounded diversity (Table 2).

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::builder::{EdgeSink, GraphBuilder};
use crate::error::GraphError;
use crate::graph::Graph;
use crate::hypergraph::Hypergraph;
use crate::ids::VertexId;
use crate::num;

/// Internal sink that stages the emitted edge list for an in-memory
/// build, so the one-shot generators are literally their `*_stream`
/// variants draining into `Graph::from_parts` — which is what makes the
/// streamed and one-shot builds byte-identical by construction.
struct CollectSink {
    edges: Vec<[VertexId; 2]>,
}

impl EdgeSink for CollectSink {
    fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        self.edges.push([VertexId::new(lo), VertexId::new(hi)]);
        Ok(())
    }

    fn reset(&mut self) -> Result<(), GraphError> {
        self.edges.clear();
        Ok(())
    }
}

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer — a cheap, statistically solid 64-bit mixer used
/// as the round function of the stub permutation and for shard seeds.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A keyed pseudorandom permutation of `0..domain` evaluable point-wise —
/// a 4-round balanced Feistel network over the next even bit-width, with
/// cycle-walking to stay inside the domain. Each position can be permuted
/// independently (O(1), no shared state), which is what lets the stub
/// shuffle of [`random_regular`] run in parallel shards.
#[derive(Clone, Copy, Debug)]
struct FeistelPerm {
    domain: u64,
    half_bits: u32,
    half_mask: u64,
    keys: [u64; 4],
}

impl FeistelPerm {
    fn new(domain: u64, seed: u64) -> Self {
        debug_assert!(domain >= 2);
        let bits = (64 - (domain - 1).leading_zeros()).max(2);
        let half_bits = bits.div_ceil(2);
        FeistelPerm {
            domain,
            half_bits,
            half_mask: (1u64 << half_bits) - 1,
            keys: [
                mix64(seed ^ 0xa076_1d64_78bd_642f),
                mix64(seed ^ 0xe703_7ed1_a0b4_28db),
                mix64(seed ^ 0x8ebc_6af0_9c88_c6e3),
                mix64(seed ^ 0x5899_65cc_7537_4cc3),
            ],
        }
    }

    #[inline]
    fn encrypt_once(&self, x: u64) -> u64 {
        let mut l = x >> self.half_bits;
        let mut r = x & self.half_mask;
        for &k in &self.keys {
            // One-multiply round mixer (full mix64 is overkill for a
            // workload shuffle and triples the multiply count in what is
            // the innermost loop of generation).
            let mut z = (r ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z ^= z >> 31;
            let next = l ^ (z & self.half_mask);
            l = r;
            r = next;
        }
        (l << self.half_bits) | r
    }

    /// The image of `x` under the permutation (cycle-walked into range).
    #[inline]
    fn permute(&self, x: u64) -> u64 {
        let mut y = self.encrypt_once(x);
        while y >= self.domain {
            y = self.encrypt_once(y);
        }
        y
    }
}

/// Path graph P_n (n ≥ 1).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0`.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "path needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n).with_edge_capacity(n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v - 1, v)?;
    }
    Ok(b.build())
}

/// Cycle graph C_n (n ≥ 3).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "cycle needs n >= 3".into(),
        });
    }
    let mut b = GraphBuilder::new(n).with_edge_capacity(n);
    for v in 1..n {
        b.add_edge(v - 1, v)?;
    }
    b.add_edge(n - 1, 0)?;
    Ok(b.build())
}

/// Star K_{1,n-1}: vertex 0 joined to all others (n ≥ 1).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "star needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n).with_edge_capacity(n - 1);
    for v in 1..n {
        b.add_edge(0, v)?;
    }
    Ok(b.build())
}

/// Complete graph K_n.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "complete needs n >= 1".into(),
        });
    }
    let mut b = GraphBuilder::new(n).with_edge_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v)?;
        }
    }
    Ok(b.build())
}

/// Complete bipartite graph K_{p,q} (sides `0..p` and `p..p+q`).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if either side is empty.
pub fn complete_bipartite(p: usize, q: usize) -> Result<Graph, GraphError> {
    if p == 0 || q == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "complete bipartite needs both sides nonempty".into(),
        });
    }
    let mut b = GraphBuilder::new(p + q).with_edge_capacity(p * q);
    for u in 0..p {
        for v in 0..q {
            b.add_edge(u, p + v)?;
        }
    }
    Ok(b.build())
}

/// `rows × cols` grid graph. Planar, arboricity ≤ 2, Δ ≤ 4.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if either dimension is 0.
pub fn grid(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "grid needs positive dims".into(),
        });
    }
    let mut sink = CollectSink { edges: Vec::new() };
    grid_stream(rows, cols, &mut sink)?;
    Ok(Graph::from_parts_parallel(rows * cols, sink.edges))
}

/// [`grid`] emitting edges into any [`EdgeSink`] — the identical edge
/// sequence, never materialized (the bounded-arboricity workload for
/// out-of-core composite runs).
///
/// # Errors
///
/// As [`grid`], plus sink errors.
pub fn grid_stream(rows: usize, cols: usize, sink: &mut impl EdgeSink) -> Result<(), GraphError> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "grid needs positive dims".into(),
        });
    }
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                sink.add_edge(v, v + 1)?;
            }
            if r + 1 < rows {
                sink.add_edge(v, v + cols)?;
            }
        }
    }
    Ok(())
}

/// `rows × cols` torus (grid with wraparound); 4-regular for dims ≥ 3.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if either dimension is < 3.
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidParameters {
            reason: "torus needs dims >= 3".into(),
        });
    }
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            b.add_edge(v, r * cols + (c + 1) % cols)?;
            b.add_edge(v, ((r + 1) % rows) * cols + c)?;
        }
    }
    Ok(b.build())
}

/// Erdős–Rényi G(n, m): exactly `m` distinct edges chosen uniformly.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `m` exceeds C(n, 2).
pub fn gnm(n: usize, m: usize, seed: u64) -> Result<Graph, GraphError> {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > max_m {
        return Err(GraphError::InvalidParameters {
            reason: format!("m = {m} exceeds C({n},2) = {max_m}"),
        });
    }
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n).with_edge_capacity(m);
    while b.num_edges() < m {
        let u = r.gen_range(0..n);
        let v = r.gen_range(0..n);
        if u != v {
            // lint: allow(result, "the dedup builder's inserted/duplicate bool is deliberately ignored; errors still propagate via ?")
            let _ = b.add_edge_dedup(u, v)?;
        }
    }
    Ok(b.build())
}

/// Erdős–Rényi G(n, p): each pair independently with probability `p`.
///
/// Sampled by **geometric skipping** over the linearized upper triangle:
/// instead of `C(n, 2)` Bernoulli draws, the gap to the next present edge
/// is drawn from the geometric distribution, so generation costs
/// O(n + expected edges) — sparse G(n, p) at n = 10⁶ is instant where the
/// pair loop needed ~5·10¹¹ draws.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `p ∉ [0, 1]`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Result<Graph, GraphError> {
    let mut sink = CollectSink { edges: Vec::new() };
    gnp_stream(n, p, seed, &mut sink)?;
    Ok(Graph::from_parts_parallel(n, sink.edges))
}

/// [`gnp`] emitting edges into any [`EdgeSink`] instead of materializing
/// them — the identical skip-sampling stream, so the streamed build is
/// byte-identical to the one-shot one (pinned by the parity tests). With
/// a [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) sink the
/// peak RAM of generation is O(1).
///
/// # Errors
///
/// As [`gnp`], plus sink errors.
pub fn gnp_stream(n: usize, p: f64, seed: u64, sink: &mut impl EdgeSink) -> Result<(), GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters {
            reason: format!("p = {p} not in [0,1]"),
        });
    }
    let big = |v: usize| u128::from(num::to_u64(v));
    let total_pairs = big(n) * (big(n) - big(n.min(1))) / 2;
    if p <= 0.0 || total_pairs == 0 {
        return Ok(());
    }
    if p >= 1.0 {
        for u in 0..n {
            for v in (u + 1)..n {
                sink.add_edge(u, v)?;
            }
        }
        return Ok(());
    }
    let mut r = rng(seed);
    let log_q = (1.0 - p).ln();
    // `row_base(u)` = linear index of pair (u, u + 1); invert by solving
    // the triangular-number equation in floats, then correcting locally.
    let row_base = |u: u128| u * (2 * big(n) - u - 1) / 2;
    let mut idx: u128 = 0;
    let mut first = true;
    loop {
        // Gap ~ Geometric(p): floor(ln(U) / ln(1 − p)) extra skips.
        let u01: f64 = r.gen::<f64>();
        let gap = (u01.max(f64::MIN_POSITIVE).ln() / log_q).floor();
        // lint: allow(cast, "approximate comparison; mantissa loss only affects the final-gap break, re-checked exactly below")
        if !gap.is_finite() || gap >= total_pairs as f64 {
            break;
        }
        // lint: allow(cast, "gap is a non-negative finite floor, checked < total_pairs above")
        idx += if first { gap as u128 } else { gap as u128 + 1 };
        first = false;
        if idx >= total_pairs {
            break;
        }
        let mut u = {
            // Float guess for the row containing `idx`, then correct.
            let nn = num::approx_f64(n);
            // lint: allow(cast, "float guess only; the exact integer walk below corrects any rounding")
            let x = idx as f64;
            let guess = nn - 0.5 - ((nn - 0.5) * (nn - 0.5) - 2.0 * x).max(0.0).sqrt();
            // lint: allow(cast, "non-negative floored guess, clamped below n; exactness is restored by the walk")
            (guess.floor().max(0.0) as u128).min(big(n) - 1)
        };
        while u > 0 && row_base(u) > idx {
            u -= 1;
        }
        while row_base(u + 1) <= idx {
            u += 1;
        }
        let v = u + 1 + (idx - row_base(u));
        // lint: allow(cast, "u < v < n, and n is a usize")
        sink.add_edge(u as usize, v as usize)?;
    }
    Ok(())
}

/// Pairs per shard of the parallel stub pairing (fixed — shard layout
/// must not depend on the worker-pool size, or results would vary with
/// `DECOLOR_THREADS`).
const PAIRING_SHARD: u64 = 1 << 15;

/// Random `d`-regular graph via the pairing (configuration) model.
///
/// The stub shuffle is a keyed Feistel permutation evaluated point-wise, so
/// the bulk pairing runs as **parallel seeded shards** (fixed shard
/// layout ⇒ output independent of the worker-pool size): shard `s` pairs
/// permuted stubs `2i` and `2i + 1` for its pair range. A sequential
/// repair pass then resolves the few self-loops/parallel collisions with
/// the classic Steger–Wormald retry loop over the leftover stubs,
/// restarting with a fresh permutation key only if the tail gets stuck.
///
/// # Errors
///
/// * [`GraphError::InvalidParameters`] if `n·d` overflows, is odd, or
///   `d ≥ n`.
/// * [`GraphError::GenerationFailed`] if the retry budget is exhausted
///   (practically only for d close to n).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, GraphError> {
    let mut sink = CollectSink { edges: Vec::new() };
    random_regular_stream(n, d, seed, &mut sink)?;
    Ok(Graph::from_parts_parallel(n, sink.edges))
}

/// Shards processed per staging batch of the streamed pairing: each batch
/// is proposed on the worker pool, then drained into the sink in shard
/// order, bounding the staged memory to `64 · PAIRING_SHARD` pairs while
/// keeping the emitted edge sequence identical at any pool size.
const PAIRING_BATCH: u64 = 64;

/// [`random_regular`] emitting edges into any [`EdgeSink`]: the pairing
/// proposes stub pairs **shard by shard on the worker pool** and drains
/// each batch straight into the sink, so with a
/// [`ShardedCsrBuilder`](crate::storage::ShardedCsrBuilder) sink the full
/// edge list is never materialized — the only O(m) state is the dedup set
/// the pairing model itself requires. The emitted sequence is
/// byte-identical to [`random_regular`]'s build at any `DECOLOR_THREADS`
/// (pinned by the parity tests). The rare salt retry (repair tail stuck)
/// calls [`EdgeSink::reset`] and restarts the stream.
///
/// # Errors
///
/// As [`random_regular`], plus sink errors.
pub fn random_regular_stream(
    n: usize,
    d: usize,
    seed: u64,
    sink: &mut impl EdgeSink,
) -> Result<(), GraphError> {
    let stubs_total = n
        .checked_mul(d)
        .ok_or_else(|| GraphError::InvalidParameters {
            reason: format!("stub count n·d overflows for n = {n}, d = {d}"),
        })?;
    if n == 0 || d >= n || !stubs_total.is_multiple_of(2) {
        return Err(GraphError::InvalidParameters {
            reason: format!("no simple {d}-regular graph on {n} vertices (need nd even, d < n)"),
        });
    }
    if d == 0 {
        return Ok(());
    }
    let pairs_total = num::to_u64(stubs_total / 2);
    let num_shards = pairs_total.div_ceil(PAIRING_SHARD);
    let norm = |u: usize, v: usize| {
        if u < v {
            (num::to_u64(u), num::to_u64(v))
        } else {
            (num::to_u64(v), num::to_u64(u))
        }
    };
    'attempt: for salt in 0..200u64 {
        sink.reset()?;
        // lint: allow(determinism, "membership-only dedup probe on the hot pairing loop; never iterated, so hash order cannot reach the emitted edge stream")
        let mut seen = std::collections::HashSet::<(u64, u64)>::with_capacity(stubs_total / 2);
        let perm = FeistelPerm::new(num::to_u64(stubs_total), mix64(seed).wrapping_add(salt));
        let mut leftover: Vec<usize> = Vec::new();
        // Phase 1: propose one edge per stub pair, one batch of shards at
        // a time — the batch fans out on the pool, the drain is
        // sequential in shard order (so the stream is pool-size
        // independent), and legal pairs go straight to the sink.
        let mut batch_start = 0u64;
        while batch_start < num_shards {
            let batch: Vec<u64> =
                (batch_start..(batch_start + PAIRING_BATCH).min(num_shards)).collect();
            let proposed: Vec<Vec<(u64, u64)>> = batch
                .par_iter()
                .map(|&s| {
                    let lo = s * PAIRING_SHARD;
                    let hi = (lo + PAIRING_SHARD).min(pairs_total);
                    (lo..hi)
                        .map(|i| {
                            let u = perm.permute(2 * i) / num::to_u64(d);
                            let v = perm.permute(2 * i + 1) / num::to_u64(d);
                            (u, v)
                        })
                        .collect()
                })
                .collect();
            for (u, v) in proposed.into_iter().flatten() {
                let (u, v) = (num::to_usize(u)?, num::to_usize(v)?);
                if u != v && seen.insert(norm(u, v)) {
                    sink.add_edge(u, v)?;
                } else {
                    leftover.push(u);
                    leftover.push(v);
                }
            }
            batch_start += PAIRING_BATCH;
        }
        // Repair: classic legal-pair retries over the leftover stubs.
        let mut r = rng(mix64(seed ^ 0xda94_2042_e4dd_58b5).wrapping_add(salt));
        while leftover.len() > 1 {
            let mut placed = false;
            for _ in 0..100 {
                let i = r.gen_range(0..leftover.len());
                let mut j = r.gen_range(0..leftover.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (u, v) = (leftover[i], leftover[j]);
                if u != v && seen.insert(norm(u, v)) {
                    sink.add_edge(u, v)?;
                    let (hi, lo) = (i.max(j), i.min(j));
                    leftover.swap_remove(hi);
                    leftover.swap_remove(lo);
                    placed = true;
                    break;
                }
            }
            if !placed {
                continue 'attempt;
            }
        }
        return Ok(());
    }
    Err(GraphError::GenerationFailed {
        reason: format!("stub pairing failed for n = {n}, d = {d} after 200 attempts"),
    })
}

/// Uniform random labelled tree on `n` vertices via a random Prüfer
/// sequence (n ≥ 1). Arboricity 1.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "tree needs n >= 1".into(),
        });
    }
    if n == 1 {
        return Ok(GraphBuilder::new(1).build());
    }
    if n == 2 {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1)?;
        return Ok(b.build());
    }
    let mut r = rng(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| r.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut b = GraphBuilder::new(n).with_edge_capacity(n - 1);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &prufer {
        // lint: allow(panic, "prüfer invariant: a leaf exists")
        let std::cmp::Reverse(leaf) = leaves.pop().expect("prüfer invariant: a leaf exists");
        b.add_edge(leaf, v)?;
        degree[leaf] -= 1;
        degree[v] -= 1;
        if degree[v] == 1 {
            leaves.push(std::cmp::Reverse(v));
        }
    }
    // lint: allow(panic, "two leaves remain")
    let std::cmp::Reverse(u) = leaves.pop().expect("two leaves remain");
    // lint: allow(panic, "two leaves remain")
    let std::cmp::Reverse(v) = leaves.pop().expect("two leaves remain");
    b.add_edge(u, v)?;
    Ok(b.build())
}

/// Random tree on `n` vertices with maximum degree ≤ `max_degree`:
/// each vertex `i ≥ 1` attaches to a uniformly random earlier vertex that
/// still has spare capacity.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0` or `max_degree < 2` with
/// `n > 2`.
pub fn random_tree_bounded_degree(
    n: usize,
    max_degree: usize,
    seed: u64,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "tree needs n >= 1".into(),
        });
    }
    if n > 2 && max_degree < 2 {
        return Err(GraphError::InvalidParameters {
            reason: format!("cannot build a tree on {n} > 2 vertices with max degree < 2"),
        });
    }
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n).with_edge_capacity(n.saturating_sub(1));
    let mut capacity: Vec<usize> = vec![max_degree.max(1); n];
    // Vertices with spare capacity, compacted lazily.
    let mut open: Vec<usize> = vec![0];
    for v in 1..n {
        let idx = r.gen_range(0..open.len());
        let parent = open[idx];
        b.add_edge(parent, v)?;
        capacity[parent] -= 1;
        if capacity[parent] == 0 {
            open.swap_remove(idx);
        }
        capacity[v] -= 1;
        if capacity[v] > 0 {
            open.push(v);
        }
        if open.is_empty() && v + 1 < n {
            return Err(GraphError::GenerationFailed {
                reason: "ran out of attachment capacity".into(),
            });
        }
    }
    Ok(b.build())
}

/// A graph with **arboricity ≤ `a`** and **maximum degree ≤ `a · cap`**:
/// the union of `a` independent random bounded-degree forests on the same
/// vertex set (duplicate edges dropped). `cap` is the per-forest degree
/// bound.
///
/// Returns the graph together with the number of forests actually used
/// (= `a`), which certifies the arboricity bound.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `n == 0`, `a == 0`, or `cap < 2`.
pub fn forest_union(n: usize, a: usize, cap: usize, seed: u64) -> Result<Graph, GraphError> {
    if n == 0 || a == 0 || cap < 2 {
        return Err(GraphError::InvalidParameters {
            reason: "forest_union needs n >= 1, a >= 1, cap >= 2".into(),
        });
    }
    let mut b = GraphBuilder::new(n);
    for f in 0..a {
        // Each forest is a bounded-degree random tree over a random
        // permutation of the vertices, so the unions overlap arbitrarily.
        let mut r = rng(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(num::to_u64(f) + 1)));
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut r);
        let tree = random_tree_bounded_degree(n, cap, r.gen())?;
        for (_, [u, v]) in tree.edge_list() {
            // lint: allow(result, "the dedup builder's inserted/duplicate bool is deliberately ignored; errors still propagate via ?")
            let _ = b.add_edge_dedup(perm[u.index()], perm[v.index()])?;
        }
    }
    Ok(b.build())
}

/// Unit-disk graph: `n` points uniform in the unit square, edges between
/// pairs at distance ≤ `radius`. The classic model for the sensor-network
/// link-scheduling motivation (§1.2).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `radius` is not positive/finite.
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Result<Graph, GraphError> {
    if !radius.is_finite() || radius <= 0.0 {
        return Err(GraphError::InvalidParameters {
            reason: format!("radius {radius} must be positive and finite"),
        });
    }
    let mut r = rng(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (r.gen::<f64>(), r.gen::<f64>())).collect();
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                b.add_edge(u, v)?;
            }
        }
    }
    Ok(b.build())
}

/// Random `c`-uniform hypergraph: `m` distinct hyperedges, each a uniform
/// random `c`-subset of `0..n`, with every vertex appearing in at most
/// `max_vertex_degree` hyperedges. Its line graph has diversity ≤ `c`.
///
/// # Errors
///
/// * [`GraphError::InvalidParameters`] if `c < 2`, `c > n`, or the degree
///   budget `n · max_vertex_degree < m · c`.
/// * [`GraphError::GenerationFailed`] if sampling stalls (too-tight
///   parameters).
pub fn random_uniform_hypergraph(
    n: usize,
    m: usize,
    c: usize,
    max_vertex_degree: usize,
    seed: u64,
) -> Result<Hypergraph, GraphError> {
    if c < 2 || c > n {
        return Err(GraphError::InvalidParameters {
            reason: format!("need 2 <= c <= n, got c = {c}, n = {n}"),
        });
    }
    if n * max_vertex_degree < m * c {
        return Err(GraphError::InvalidParameters {
            reason: format!(
                "degree budget too small: n·max_deg = {} < m·c = {}",
                n * max_vertex_degree,
                m * c
            ),
        });
    }
    let mut r = rng(seed);
    let mut degree = vec![0usize; n];
    let mut seen: std::collections::BTreeSet<Vec<u64>> = std::collections::BTreeSet::new();
    let mut edges: Vec<Vec<usize>> = Vec::with_capacity(m);
    let mut stall = 0usize;
    while edges.len() < m {
        stall += 1;
        if stall > 200 * m + 10_000 {
            return Err(GraphError::GenerationFailed {
                reason: format!(
                    "hypergraph sampling stalled at {} of {m} hyperedges",
                    edges.len()
                ),
            });
        }
        let available: Vec<usize> = (0..n).filter(|&v| degree[v] < max_vertex_degree).collect();
        if available.len() < c {
            return Err(GraphError::GenerationFailed {
                reason: "fewer available vertices than hyperedge size".into(),
            });
        }
        let mut pick: Vec<usize> = available.choose_multiple(&mut r, c).copied().collect();
        pick.sort_unstable();
        let key: Vec<u64> = pick.iter().map(|&v| num::to_u64(v)).collect();
        if seen.insert(key) {
            for &v in &pick {
                degree[v] += 1;
            }
            edges.push(pick);
            stall = 0;
        }
    }
    Hypergraph::new(n, edges)
}

/// The vertex count 2^dim of the hypercube Q_dim — the one place the
/// hypercube generators' dimension range is checked.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `dim == 0` or `dim > 20`.
pub fn hypercube_order(dim: u32) -> Result<usize, GraphError> {
    if dim == 0 || dim > 20 {
        return Err(GraphError::InvalidParameters {
            reason: format!("hypercube dimension {dim} out of range 1..=20"),
        });
    }
    Ok(1usize << dim)
}

/// Hypercube graph Q_dim: vertices are bit strings of length `dim`,
/// edges between strings at Hamming distance 1. `dim`-regular, vertex- and
/// edge-transitive — a classic symmetric-network stress test for
/// symmetry-breaking algorithms.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `dim == 0` or `dim > 20`.
pub fn hypercube(dim: u32) -> Result<Graph, GraphError> {
    let n = hypercube_order(dim)?;
    let mut sink = CollectSink {
        edges: Vec::with_capacity(n * num::usize_from(dim) / 2),
    };
    hypercube_stream(dim, &mut sink)?;
    Ok(Graph::from_parts_parallel(n, sink.edges))
}

/// [`hypercube`] emitting edges into any [`EdgeSink`] — the identical
/// edge sequence, never materialized.
///
/// # Errors
///
/// As [`hypercube`], plus sink errors.
pub fn hypercube_stream(dim: u32, sink: &mut impl EdgeSink) -> Result<(), GraphError> {
    let n = hypercube_order(dim)?;
    for v in 0..n {
        for bit in 0..dim {
            let u = v ^ (1 << bit);
            if u > v {
                sink.add_edge(v, u)?;
            }
        }
    }
    Ok(())
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `k` existing vertices sampled proportionally to degree. Produces the
/// skewed degree distributions of real networks (heavy-tailed Δ with low
/// arboricity — the regime where Section 5 shines).
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `k == 0` or `n <= k`.
pub fn barabasi_albert(n: usize, k: usize, seed: u64) -> Result<Graph, GraphError> {
    if k == 0 || n <= k {
        return Err(GraphError::InvalidParameters {
            reason: format!("barabasi_albert needs 0 < k < n, got k = {k}, n = {n}"),
        });
    }
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * k);
    // Seed clique on the first k + 1 vertices.
    for u in 0..=k {
        for v in (u + 1)..=k {
            b.add_edge(u, v)?;
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (k + 1)..n {
        // An ordered set: `targets` is iterated below to emit edges, so a
        // hash set would make the edge order (and through `endpoints`,
        // every later attachment draw) depend on the per-process hasher
        // seed — the exact failure the det-hasher lint exists to catch.
        let mut targets = std::collections::BTreeSet::new();
        let mut guard = 0usize;
        while targets.len() < k {
            let t = endpoints[r.gen_range(0..endpoints.len())];
            targets.insert(t);
            guard += 1;
            if guard > 100 * k + 1000 {
                return Err(GraphError::GenerationFailed {
                    reason: "preferential attachment stalled".into(),
                });
            }
        }
        for &t in &targets {
            b.add_edge(v, t)?;
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    Ok(b.build())
}

/// Random bipartite graph: sides `0..p` and `p..p+q`, each cross pair
/// independently with probability `prob`.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if a side is empty or `prob ∉ [0,1]`.
pub fn random_bipartite(p: usize, q: usize, prob: f64, seed: u64) -> Result<Graph, GraphError> {
    if p == 0 || q == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "random bipartite needs both sides nonempty".into(),
        });
    }
    if !(0.0..=1.0).contains(&prob) {
        return Err(GraphError::InvalidParameters {
            reason: format!("prob = {prob} not in [0,1]"),
        });
    }
    let mut r = rng(seed);
    let mut b = GraphBuilder::new(p + q);
    for u in 0..p {
        for v in 0..q {
            if r.gen_bool(prob) {
                b.add_edge(u, p + v)?;
            }
        }
    }
    Ok(b.build())
}

/// Caterpillar: a spine path of `spine` vertices, each with `legs` leaves.
/// A tree (arboricity 1) with Δ = legs + 2 — exercises the "star-heavy"
/// corner of the edge-coloring algorithms.
///
/// # Errors
///
/// [`GraphError::InvalidParameters`] if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Result<Graph, GraphError> {
    if spine == 0 {
        return Err(GraphError::InvalidParameters {
            reason: "caterpillar needs a spine".into(),
        });
    }
    let n = spine * (legs + 1);
    let mut b = GraphBuilder::new(n).with_edge_capacity(n - 1);
    for i in 1..spine {
        b.add_edge(i - 1, i)?;
    }
    for i in 0..spine {
        for l in 0..legs {
            b.add_edge(i, spine + i * legs + l)?;
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn deterministic_given_seed() {
        let a = gnm(50, 100, 7).unwrap();
        let b = gnm(50, 100, 7).unwrap();
        assert_eq!(a, b);
        let c = gnm(50, 100, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn gnm_edge_count_exact() {
        let g = gnm(30, 200, 1).unwrap();
        assert_eq!(g.num_edges(), 200);
        assert!(!g.has_parallel_edges());
        assert!(gnm(5, 11, 0).is_err());
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 0).unwrap().num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 0).unwrap().num_edges(), 45);
        assert!(gnp(10, 1.5, 0).is_err());
    }

    #[test]
    fn regular_graph_is_regular() {
        let g = random_regular(40, 6, 3).unwrap();
        for v in g.vertices() {
            assert_eq!(g.degree(v), 6);
        }
        assert!(random_regular(5, 3, 0).is_err()); // nd odd
        assert!(random_regular(4, 4, 0).is_err()); // d >= n
    }

    #[test]
    fn regular_rejects_overflowing_stub_count() {
        // n·d overflows usize: must be a clean parameter error, not a
        // release-mode wraparound.
        let huge = usize::MAX / 2;
        assert!(matches!(
            random_regular(huge, huge - 1, 0),
            Err(GraphError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn regular_is_thread_count_invariant() {
        // The sharded pairing must give one graph per seed regardless of
        // the worker-pool size.
        let reference = rayon::with_num_threads(1, || random_regular(500, 8, 11).unwrap());
        for threads in [2, 4, 7] {
            let parallel = rayon::with_num_threads(threads, || random_regular(500, 8, 11).unwrap());
            assert_eq!(reference, parallel, "divergence at {threads} threads");
        }
    }

    #[test]
    fn regular_spans_multiple_shards() {
        // n·d/2 > PAIRING_SHARD exercises the multi-shard path.
        let n = 1 << 13;
        let d = 10;
        assert!((n * d / 2) as u64 > super::PAIRING_SHARD);
        let g = random_regular(n, d, 5).unwrap();
        for v in g.vertices() {
            assert_eq!(g.degree(v), d);
        }
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn regular_handles_dense_degrees() {
        // d close to n stresses the repair pass and the salt retries.
        let g = random_regular(12, 9, 2).unwrap();
        for v in g.vertices() {
            assert_eq!(g.degree(v), 9);
        }
        assert_eq!(random_regular(6, 0, 0).unwrap().num_edges(), 0);
    }

    #[test]
    fn feistel_is_a_permutation() {
        for domain in [2u64, 7, 64, 1000, 12345] {
            let perm = super::FeistelPerm::new(domain, 99);
            let mut seen = vec![false; domain as usize];
            for x in 0..domain {
                let y = perm.permute(x);
                assert!(y < domain);
                assert!(!seen[y as usize], "collision at {x} -> {y}");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn gnp_skip_sampling_hits_expected_density() {
        let n = 400;
        let p = 0.02;
        let g = gnp(n, p, 9).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        // Loose 4σ-style band around the mean.
        let slack = 4.0 * expected.sqrt();
        assert!(
            (g.num_edges() as f64 - expected).abs() < slack,
            "m = {} vs expected {expected:.0} ± {slack:.0}",
            g.num_edges()
        );
        assert!(!g.has_parallel_edges());
        assert_eq!(gnp(n, p, 9).unwrap(), g, "same seed, same graph");
    }

    #[test]
    fn prufer_tree_is_tree() {
        for n in [1usize, 2, 3, 10, 100] {
            let g = random_tree(n, 9).unwrap();
            assert_eq!(g.num_edges(), n.saturating_sub(1));
            assert!(properties::is_forest(&g));
            assert!(properties::is_connected(&g));
        }
    }

    #[test]
    fn bounded_degree_tree_respects_cap() {
        let g = random_tree_bounded_degree(200, 3, 4).unwrap();
        assert!(g.max_degree() <= 3);
        assert!(properties::is_forest(&g));
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn forest_union_arboricity_and_degree() {
        let (a, cap) = (4usize, 8usize);
        let g = forest_union(500, a, cap, 77).unwrap();
        assert!(g.max_degree() <= a * cap);
        // Degeneracy upper-bounds... no: degeneracy >= a possible; we check
        // the *certified* bound via densities of the whole graph.
        assert!(properties::arboricity_lower_bound(&g) <= a);
        assert!(properties::arboricity_upper_bound(&g) <= 2 * a);
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(4, 5).unwrap();
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 4 * 4 + 3 * 5);
        assert_eq!(g.max_degree(), 4);
        let t = torus(4, 5).unwrap();
        assert_eq!(t.num_edges(), 2 * 20);
        for v in t.vertices() {
            assert_eq!(t.degree(v), 4);
        }
    }

    #[test]
    fn unit_disk_radius_monotone() {
        let small = unit_disk(60, 0.05, 5).unwrap();
        let large = unit_disk(60, 0.3, 5).unwrap();
        assert!(small.num_edges() <= large.num_edges());
        assert!(unit_disk(10, -1.0, 0).is_err());
    }

    #[test]
    fn hypergraph_generator_constraints() {
        let h = random_uniform_hypergraph(60, 40, 3, 5, 11).unwrap();
        assert_eq!(h.num_hyperedges(), 40);
        assert!(h.is_uniform(3));
        assert!(h.max_vertex_degree() <= 5);
        assert!(random_uniform_hypergraph(10, 100, 3, 2, 0).is_err());
    }

    #[test]
    fn classic_families() {
        assert_eq!(complete(6).unwrap().num_edges(), 15);
        assert_eq!(complete_bipartite(3, 4).unwrap().num_edges(), 12);
        assert_eq!(path(5).unwrap().num_edges(), 4);
        assert_eq!(cycle(5).unwrap().num_edges(), 5);
        assert_eq!(star(5).unwrap().max_degree(), 4);
        assert!(cycle(2).is_err());
        assert!(complete(0).is_err());
    }

    #[test]
    fn hypercube_is_regular_and_bipartite_sized() {
        let g = hypercube(5).unwrap();
        assert_eq!(g.num_vertices(), 32);
        assert_eq!(g.num_edges(), 32 * 5 / 2);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 5);
        }
        assert!(hypercube(0).is_err());
        assert!(hypercube(21).is_err());
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        assert_eq!(g.num_vertices(), 300);
        // m = C(k+1, 2) + (n - k - 1)·k
        assert_eq!(g.num_edges(), 6 + (300 - 4) * 3);
        // Heavy tail: Δ well above the mean.
        let stats = properties::degree_stats(&g);
        assert!(stats.max as f64 > 2.0 * stats.mean);
        assert!(barabasi_albert(3, 3, 0).is_err());
    }

    #[test]
    fn random_bipartite_is_bipartite() {
        let g = random_bipartite(20, 30, 0.2, 7).unwrap();
        for (_, [u, v]) in g.edge_list() {
            assert!(u.index() < 20 && v.index() >= 20);
        }
        assert!(random_bipartite(0, 5, 0.5, 0).is_err());
    }

    #[test]
    fn caterpillar_is_a_tree_with_expected_delta() {
        let g = caterpillar(10, 4).unwrap();
        assert!(properties::is_forest(&g));
        assert!(properties::is_connected(&g));
        assert_eq!(g.num_vertices(), 50);
        assert_eq!(g.max_degree(), 6); // interior spine: 2 spine + 4 legs
        assert!(caterpillar(0, 3).is_err());
    }
}
