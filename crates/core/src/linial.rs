//! Linial's deterministic O(Δ²)-coloring in O(log* n) rounds \[30\].
//!
//! Each iteration reduces a proper `m`-coloring to a proper `q²`-coloring
//! where `q` is a prime chosen so that colors embed into polynomials of
//! degree ≤ `deg` over GF(q) with `q > Δ·deg` and `q^(deg+1) ≥ m`
//! (the Erdős–Frankl–Füredi cover-free-family construction). A vertex with
//! polynomial `p` picks an evaluation point `α` at which it differs from
//! all neighbors' polynomials — at most `Δ·deg < q` points are ruled out —
//! and recolors to `(α, p(α))`. Palettes shrink log-log per round, so
//! O(log* m) rounds reach the fixed point `q²` with
//! `q = nextprime(Δ·deg + 1)`, i.e. O(Δ²) colors.
//!
//! The initial coloring is either the distinct IDs (§1.1) or, per §3's
//! optimization, an inherited proper coloring of a parent graph.

use decolor_graph::coloring::VertexColoring;
use decolor_graph::subgraph::GraphView;
use decolor_graph::VertexId;
use decolor_runtime::{IdAssignment, Network, NetworkStats, RoundBuffer};
use rayon::prelude::*;

use crate::error::AlgoError;
use crate::util::{integer_root_ceil, next_prime};
use decolor_graph::num;

/// Outcome of [`linial_coloring`]: the coloring plus per-iteration palette
/// trace (useful for the log* verification in tests and benches).
#[derive(Clone, Debug)]
pub struct LinialResult {
    /// The resulting proper coloring (palette ≤ [`final_palette_bound`]).
    pub coloring: VertexColoring,
    /// Palette sizes after each communication round (starting palette
    /// first).
    pub palette_trace: Vec<u64>,
}

/// The guaranteed fixed-point palette bound of the iteration for maximum
/// degree `delta`: `q²` with `q = nextprime(2Δ + 1)` — O(Δ²), and
/// ≤ `(4Δ + 2)²` by Bertrand's postulate.
///
/// (Why `2Δ + 1`: a degree-2 polynomial step needs a prime `q > 2Δ`;
/// degree-1 steps stall once `√m ≈ 2Δ`, so the iteration's true fixed
/// point is `nextprime(2Δ + 1)²`, the usual "O(Δ²) colors" of \[30\].)
pub fn final_palette_bound(delta: usize) -> u64 {
    let q = next_prime(2 * num::to_u64(delta).max(1) + 1);
    q * q
}

/// Picks `(q, deg)` minimizing the next palette `q²` subject to
/// `q > Δ·deg`, `q prime`, `q^(deg+1) ≥ m`.
pub(crate) fn choose_parameters(m: u64, delta: u64) -> (u64, u32) {
    debug_assert!(m >= 2);
    let mut best: Option<(u64, u32)> = None;
    for deg in 1..=64u32 {
        // q must satisfy q >= Δ·deg + 1 and q >= ceil(m^{1/(deg+1)}).
        let lower = (delta * u64::from(deg) + 1)
            .max(integer_root_ceil(m, deg + 1))
            .max(2);
        let q = next_prime(lower);
        match best {
            Some((bq, _)) if bq <= q => {}
            _ => best = Some((q, deg)),
        }
        // Once Δ·deg dominates the root bound, larger deg only hurts.
        if delta * u64::from(deg) + 1 >= integer_root_ceil(m, deg + 1) {
            break;
        }
    }
    // lint: allow(panic, "deg = 1 always yields a candidate")
    best.expect("deg = 1 always yields a candidate")
}

/// Evaluates the polynomial with base-`q` digit coefficients of `c` at
/// point `a`, over GF(q).
///
/// Allocation-free (this sits in the innermost loop of both Linial
/// realizations): digits are consumed least-significant-first with a
/// running power of `a`, which is the same sum `Σ digit_i a^i mod q` as
/// Horner's rule. `(c % q) * pw < q²` fits u64 for every `q` the
/// parameter chooser can produce.
pub(crate) fn eval_poly(mut c: u64, q: u64, a: u64) -> u64 {
    let mut acc = 0u64;
    let mut pw = 1 % q;
    while c > 0 {
        acc = (acc + (c % q) * pw) % q;
        pw = (pw * a) % q;
        c /= q;
    }
    acc
}

/// One Linial recoloring round over the network: all vertices broadcast
/// their colors (into the reusable `buf`), then recolor from palette `m`
/// to palette `q²`.
///
/// Precondition (checked in debug): `colors` is proper with values `< m`.
fn linial_round<V: GraphView>(
    net: &mut Network<'_, V>,
    buf: &mut RoundBuffer<u64>,
    colors: &mut [u64],
    m: u64,
    delta: u64,
) -> Result<u64, AlgoError> {
    let (q, _deg) = choose_parameters(m, delta);
    net.broadcast_into(colors, buf)?;
    #[allow(clippy::needless_range_loop)] // v also names the buffer row
    for v in 0..colors.len() {
        let my = colors[v];
        // Choose the smallest α where p_v differs from every neighbor's
        // polynomial (their colors differ, so polynomials differ and agree
        // on ≤ deg points each; Δ·deg < q points are excluded in total).
        let mut alpha = None;
        'points: for a in 0..q {
            let mine = eval_poly(my, q, a);
            for &their in buf.row(VertexId::new(v)) {
                if their != my && eval_poly(their, q, a) == mine {
                    continue 'points;
                }
                // Neighbors with *equal* color would break properness of
                // the input; debug-checked below.
                debug_assert_ne!(their, my, "input coloring is not proper");
            }
            alpha = Some(a);
            break;
        }
        // lint: allow(panic, "a valid evaluation point exists by the pigeonhole argument")
        let a = alpha.expect("a valid evaluation point exists by the pigeonhole argument");
        colors[v] = a * q + eval_poly(my, q, a);
    }
    Ok(q * q)
}

/// Runs Linial's iteration from an arbitrary proper coloring down to its
/// fixed point (an O(Δ²)-coloring), counting real communication rounds on
/// `net`.
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `initial` has the wrong length or
/// is not a proper coloring of the network's graph.
pub fn linial_from_coloring<V: GraphView>(
    net: &mut Network<'_, V>,
    initial: &VertexColoring,
) -> Result<LinialResult, AlgoError> {
    let g = net.graph();
    initial
        .validate(g)
        .map_err(|e| AlgoError::InvalidParameters {
            reason: e.to_string(),
        })?;
    let delta = num::to_u64(g.max_degree());
    let mut colors: Vec<u64> = initial.as_slice().iter().map(|&c| u64::from(c)).collect();
    let mut m = initial.palette().max(1);
    let mut trace = vec![m];

    if g.num_vertices() == 0 {
        // lint: allow(panic, "empty coloring is valid")
        let coloring = VertexColoring::new(vec![], 1).expect("empty coloring is valid");
        return Ok(LinialResult {
            coloring,
            palette_trace: trace,
        });
    }
    if delta == 0 {
        // No edges: everything can take color 0 without communication.
        let coloring =
            // lint: allow(panic, "constant coloring")
            VertexColoring::new(vec![0; g.num_vertices()], 1).expect("constant coloring");
        return Ok(LinialResult {
            coloring,
            palette_trace: trace,
        });
    }

    let target = final_palette_bound(g.max_degree());
    let mut buf = net.make_buffer();
    while m > target {
        let next = {
            let (q, _) = choose_parameters(m, delta);
            q * q
        };
        if next >= m {
            break; // fixed point reached early
        }
        let reached = linial_round(net, &mut buf, &mut colors, m, delta)?;
        m = reached;
        trace.push(m);
    }

    let colors_u32: Vec<u32> = colors
        .iter()
        // lint: allow(panic, "palette fits u32 at the fixed point")
        .map(|&c| u32::try_from(c).expect("palette fits u32 at the fixed point"))
        .collect();
    let coloring =
        VertexColoring::new(colors_u32, m).map_err(|e| AlgoError::InvariantViolated {
            reason: e.to_string(),
        })?;
    debug_assert!(coloring.is_proper(g));
    Ok(LinialResult {
        coloring,
        palette_trace: trace,
    })
}

/// The distinct-ID assignment as the initial proper coloring every Linial
/// entry point starts from.
fn initial_from_ids<V: GraphView>(g: &V, ids: &IdAssignment) -> Result<VertexColoring, AlgoError> {
    if ids.len() != g.num_vertices() {
        return Err(AlgoError::InvalidParameters {
            reason: format!("{} ids for {} vertices", ids.len(), g.num_vertices()),
        });
    }
    let colors: Result<Vec<u32>, _> = ids.as_slice().iter().map(|&i| u32::try_from(i)).collect();
    let colors = colors.map_err(|_| AlgoError::InvalidParameters {
        reason: "identifier exceeds u32 (IDs must be O(log n)-bit)".into(),
    })?;
    VertexColoring::new(colors, ids.id_space().max(1)).map_err(|e| AlgoError::InvalidParameters {
        reason: e.to_string(),
    })
}

/// Runs Linial's algorithm from the distinct-ID assignment (the standard
/// entry point).
///
/// ```rust
/// use decolor_core::linial::{final_palette_bound, linial_coloring};
/// use decolor_graph::generators;
/// use decolor_runtime::{IdAssignment, Network};
///
/// # fn main() -> Result<(), decolor_core::AlgoError> {
/// let g = generators::random_regular(500, 4, 1).unwrap();
/// let mut net = Network::new(&g);
/// let ids = IdAssignment::shuffled(500, 7);
/// let res = linial_coloring(&mut net, &ids)?;
/// assert!(res.coloring.is_proper(&g));
/// assert!(res.coloring.palette() <= final_palette_bound(4)); // O(Δ²)
/// assert!(net.stats().rounds <= 5); // log* n
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`AlgoError::InvalidParameters`] if `ids` does not cover the graph or
/// an identifier exceeds `u32` (identifiers are O(log n)-bit).
pub fn linial_coloring<V: GraphView>(
    net: &mut Network<'_, V>,
    ids: &IdAssignment,
) -> Result<LinialResult, AlgoError> {
    let initial = initial_from_ids(net.graph(), ids)?;
    linial_from_coloring(net, &initial)
}

/// Vertices recolored per work item of the chunked pass — small enough
/// that a chunk's output is cache-resident, large enough that the pool
/// fan-out amortizes.
const LINIAL_CHUNK: usize = 1 << 16;

/// The **streaming/chunked realization** of [`linial_coloring`]: no
/// [`Network`], no O(m)-slot [`RoundBuffer`] — each round gathers
/// neighbor colors straight off the topology's CSR (in-memory `Graph` or
/// out-of-core `ShardedCsr`) into per-chunk scratch, double-buffering the
/// color array, with the chunks fanned out on the worker pool. Peak
/// algorithm state is 2n u64 words instead of n + 2m, which is what opens
/// the `scaling` Linial row to n ≈ 10⁸.
///
/// A vertex's recoloring decision depends only on the previous round's
/// colors, so the output is **bit-identical** at any `DECOLOR_THREADS`
/// and bit-identical to the [`Network`]-simulated path — colorings,
/// palette traces, round counts, and the returned [`NetworkStats`]
/// (synthesized from the same per-round ledger a broadcast charges:
/// Σ deg(v) messages of 8 payload bytes each) — pinned by the
/// backend-equivalence tests.
///
/// # Errors
///
/// As [`linial_coloring`].
pub fn linial_coloring_chunked<V: GraphView + Sync>(
    g: &V,
    ids: &IdAssignment,
) -> Result<(LinialResult, NetworkStats), AlgoError> {
    let out = chunked_core(g, &initial_from_ids(g, ids)?, None, None)?;
    Ok((out.result, out.stats))
}

/// Outcome of a (possibly checkpointed, possibly round-limited) chunked
/// Linial run.
#[derive(Clone, Debug)]
pub struct ChunkedOutcome {
    /// The coloring + palette trace (partial if `!completed`: the state
    /// after the last completed round, still a proper coloring).
    pub result: LinialResult,
    /// The synthesized communication ledger so far.
    pub stats: NetworkStats,
    /// Whether the iteration reached its fixed point (`false` only when a
    /// round budget stopped it early; the checkpoint holds the rest).
    pub completed: bool,
    /// The round count restored from a checkpoint, if this run resumed.
    pub resumed_at_round: Option<u64>,
}

/// [`linial_coloring_chunked`] with **durable round checkpoints**: after
/// every completed round the full inter-round state is written atomically
/// to `ckpt` (see [`crate::checkpoint`]), and a later call with the same
/// inputs resumes from it — producing a coloring, trace, and ledger
/// byte-identical to an uninterrupted run. On completion the checkpoint
/// file is removed. `round_budget` bounds the rounds executed by *this*
/// call (`None` = run to the fixed point); the crash-recovery suite and
/// the CLI use it to model a kill between rounds.
///
/// # Errors
///
/// As [`linial_coloring_chunked`], plus
/// [`GraphError::Corrupt`](decolor_graph::GraphError::Corrupt) (via
/// [`AlgoError::Graph`]) for a torn checkpoint or one fingerprinted for
/// different inputs.
pub fn linial_coloring_chunked_checkpointed<V: GraphView + Sync>(
    g: &V,
    ids: &IdAssignment,
    ckpt: &std::path::Path,
    round_budget: Option<u64>,
) -> Result<ChunkedOutcome, AlgoError> {
    chunked_core(g, &initial_from_ids(g, ids)?, Some(ckpt), round_budget)
}

/// The shared chunked-Linial engine behind both public entry points.
fn chunked_core<V: GraphView + Sync>(
    g: &V,
    initial: &VertexColoring,
    ckpt: Option<&std::path::Path>,
    round_budget: Option<u64>,
) -> Result<ChunkedOutcome, AlgoError> {
    use crate::checkpoint::{input_fingerprint, RoundCheckpoint};

    initial
        .validate(g)
        .map_err(|e| AlgoError::InvalidParameters {
            reason: e.to_string(),
        })?;
    let n = g.num_vertices();
    let delta = num::to_u64(g.max_degree());
    let mut colors: Vec<u64> = initial.as_slice().iter().map(|&c| u64::from(c)).collect();
    let mut m = initial.palette().max(1);
    let mut trace = vec![m];
    let mut stats = NetworkStats::default();
    let mut resumed_at_round = None;

    // Bind any checkpoint to this exact run before trusting its state: a
    // checkpoint for a different graph or id assignment must surface as
    // Corrupt, never resume into a silently wrong coloring.
    let fingerprint = ckpt.map(|path| {
        (
            path,
            input_fingerprint(n, g.num_edges(), g.max_degree(), m, initial.as_slice()),
        )
    });
    if let Some((path, fp)) = fingerprint {
        if let Some(saved) = RoundCheckpoint::load(path)? {
            if saved.fingerprint != fp || saved.n != num::to_u64(n) || saved.delta != delta {
                return Err(AlgoError::Graph(decolor_graph::GraphError::Corrupt {
                    path: path.display().to_string(),
                    reason: format!(
                        "checkpoint fingerprint {:#010x} does not match this run's inputs {fp:#010x}",
                        saved.fingerprint
                    ),
                }));
            }
            colors = saved.colors;
            m = saved.m;
            trace = saved.trace;
            stats.rounds = saved.rounds;
            stats.messages = saved.messages;
            stats.payload_bytes = saved.payload_bytes;
            resumed_at_round = Some(saved.rounds);
        }
    }

    if n == 0 {
        // lint: allow(panic, "empty coloring is valid")
        let coloring = VertexColoring::new(vec![], 1).expect("empty coloring is valid");
        return Ok(ChunkedOutcome {
            result: LinialResult {
                coloring,
                palette_trace: trace,
            },
            stats,
            completed: true,
            resumed_at_round,
        });
    }
    if delta == 0 {
        // lint: allow(panic, "constant coloring")
        let coloring = VertexColoring::new(vec![0; n], 1).expect("constant coloring");
        return Ok(ChunkedOutcome {
            result: LinialResult {
                coloring,
                palette_trace: trace,
            },
            stats,
            completed: true,
            resumed_at_round,
        });
    }

    let target = final_palette_bound(g.max_degree());
    // One broadcast's ledger: every vertex sends its color on all ports.
    let round_messages = 2 * num::to_u64(g.num_edges());
    let round_payload = round_messages * num::to_u64(std::mem::size_of::<u64>());
    let chunks: Vec<std::ops::Range<usize>> = (0..n.div_ceil(LINIAL_CHUNK))
        .map(|c| (c * LINIAL_CHUNK)..((c + 1) * LINIAL_CHUNK).min(n))
        .collect();
    let mut rounds_this_call = 0u64;
    let mut completed = true;
    while m > target {
        let (q, _deg) = choose_parameters(m, delta);
        if q * q >= m {
            break; // fixed point reached early
        }
        if round_budget.is_some_and(|b| rounds_this_call >= b) {
            // Round budget exhausted: stop between rounds, exactly where
            // a kill would land. The last checkpoint carries the state.
            completed = false;
            break;
        }
        // One "round": recolor every chunk off the previous colors.
        let outs: Vec<Vec<u64>> = chunks
            .par_iter()
            .map(|range| {
                let mut out = Vec::with_capacity(range.len());
                let mut neigh: Vec<u64> = Vec::new();
                for vi in range.clone() {
                    let my = colors[vi];
                    neigh.clear();
                    g.for_each_port(VertexId::new(vi), |u, _| neigh.push(colors[u.index()]));
                    // Smallest α where p_v differs from every neighbor's
                    // polynomial — the same decision `linial_round` makes
                    // off the broadcast buffer.
                    let mut alpha = None;
                    'points: for a in 0..q {
                        let mine = eval_poly(my, q, a);
                        for &their in &neigh {
                            if their != my && eval_poly(their, q, a) == mine {
                                continue 'points;
                            }
                            debug_assert_ne!(their, my, "input coloring is not proper");
                        }
                        alpha = Some(a);
                        break;
                    }
                    let a =
                        // lint: allow(panic, "a valid evaluation point exists by the pigeonhole argument")
                        alpha.expect("a valid evaluation point exists by the pigeonhole argument");
                    out.push(a * q + eval_poly(my, q, a));
                }
                out
            })
            .collect();
        // The chunk outputs *are* the round's second buffer: every
        // vertex's decision read only the pre-round `colors`, so writing
        // them back in place keeps peak state at 2n words (colors +
        // outs), never 3n.
        for (range, out) in chunks.iter().zip(outs) {
            colors[range.clone()].copy_from_slice(&out);
        }
        stats.rounds += 1;
        stats.messages += round_messages;
        stats.payload_bytes += round_payload;
        rounds_this_call += 1;
        m = q * q;
        trace.push(m);
        if let Some((path, fp)) = fingerprint {
            // The color array is *moved* into the checkpoint for the save
            // (no n-word copy) and moved back out afterwards.
            let ck = RoundCheckpoint {
                n: num::to_u64(n),
                delta,
                fingerprint: fp,
                m,
                rounds: stats.rounds,
                messages: stats.messages,
                payload_bytes: stats.payload_bytes,
                trace: trace.clone(),
                colors: std::mem::take(&mut colors),
            };
            let saved = ck.save(path);
            colors = ck.colors;
            saved.map_err(AlgoError::Graph)?;
        }
    }

    if completed {
        if let Some((path, _)) = fingerprint {
            // The run is done; the checkpoint is obsolete.
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    return Err(AlgoError::Graph(decolor_graph::GraphError::Io {
                        reason: format!("cannot remove {}: {e}", path.display()),
                    }))
                }
            }
        }
    }
    let colors_u32: Vec<u32> = colors
        .iter()
        // lint: allow(panic, "palette fits u32 at the fixed point")
        .map(|&c| u32::try_from(c).expect("palette fits u32 at the fixed point"))
        .collect();
    let coloring =
        VertexColoring::new(colors_u32, m).map_err(|e| AlgoError::InvariantViolated {
            reason: e.to_string(),
        })?;
    Ok(ChunkedOutcome {
        result: LinialResult {
            coloring,
            palette_trace: trace,
        },
        stats,
        completed,
        resumed_at_round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::{generators, Graph};

    fn run(g: &Graph, seed: u64) -> (LinialResult, decolor_runtime::NetworkStats) {
        let mut net = Network::new(g);
        let ids = IdAssignment::shuffled(g.num_vertices(), seed);
        let res = linial_coloring(&mut net, &ids).unwrap();
        (res, net.stats())
    }

    #[test]
    fn proper_and_within_bound_on_random_graphs() {
        for (n, m, seed) in [(50, 200, 1u64), (200, 1000, 2), (400, 800, 3)] {
            let g = generators::gnm(n, m, seed).unwrap();
            let (res, _) = run(&g, seed);
            assert!(res.coloring.is_proper(&g));
            assert!(
                res.coloring.palette() <= final_palette_bound(g.max_degree()),
                "palette {} exceeds bound {}",
                res.coloring.palette(),
                final_palette_bound(g.max_degree())
            );
        }
    }

    #[test]
    fn round_count_is_log_star_like() {
        // Rounds should be tiny (≤ ~6) even for large sparse instances.
        let g = generators::random_regular(2000, 4, 7).unwrap();
        let (res, stats) = run(&g, 9);
        assert!(res.coloring.is_proper(&g));
        assert!(stats.rounds <= 6, "took {} rounds", stats.rounds);
    }

    #[test]
    fn palette_trace_is_strictly_decreasing() {
        let g = generators::gnm(300, 900, 4).unwrap();
        let (res, _) = run(&g, 4);
        for w in res.palette_trace.windows(2) {
            assert!(w[1] < w[0], "trace not decreasing: {:?}", res.palette_trace);
        }
    }

    #[test]
    fn fixed_point_bound_is_o_delta_squared() {
        for delta in 1usize..200 {
            let b = final_palette_bound(delta);
            assert!(b <= (4 * delta as u64 + 2).pow(2), "Δ = {delta} gives {b}");
        }
    }

    #[test]
    fn handles_edgeless_and_empty_graphs() {
        let g = decolor_graph::GraphBuilder::new(5).build();
        let (res, stats) = run(&g, 0);
        assert_eq!(res.coloring.palette(), 1);
        assert_eq!(stats.rounds, 0);

        let g = decolor_graph::GraphBuilder::new(0).build();
        let mut net = Network::new(&g);
        let ids = IdAssignment::sequential(0);
        let res = linial_coloring(&mut net, &ids).unwrap();
        assert!(res.coloring.is_empty());
    }

    #[test]
    fn accepts_inherited_coloring_entry_point() {
        let g = generators::gnm(100, 300, 5).unwrap();
        let mut net = Network::new(&g);
        // A proper coloring with a wasteful palette.
        let init = VertexColoring::new((0..100u32).map(|i| i * 3).collect(), 300).unwrap();
        let res = linial_from_coloring(&mut net, &init).unwrap();
        assert!(res.coloring.is_proper(&g));
        assert!(res.coloring.palette() <= final_palette_bound(g.max_degree()));
    }

    #[test]
    fn rejects_improper_initial_coloring() {
        let g = generators::complete(3).unwrap();
        let mut net = Network::new(&g);
        let bad = VertexColoring::new(vec![0, 0, 1], 2).unwrap();
        assert!(linial_from_coloring(&mut net, &bad).is_err());
    }

    #[test]
    fn works_on_dense_graph() {
        let g = generators::complete(30).unwrap();
        let (res, _) = run(&g, 11);
        assert!(res.coloring.is_proper(&g));
        // K_30 already has only 30 colors from IDs; fixed point for Δ=29
        // is larger than 30, so the algorithm must not blow the palette up.
        assert!(res.coloring.palette() <= final_palette_bound(29).max(30));
    }

    #[test]
    fn chunked_realization_matches_network_path() {
        for (n, m, seed) in [(60, 180, 1u64), (300, 900, 2), (1000, 2500, 3)] {
            let g = generators::gnm(n, m, seed).unwrap();
            let ids = IdAssignment::shuffled(n, seed ^ 7);
            let mut net = Network::new(&g);
            let reference = linial_coloring(&mut net, &ids).unwrap();
            let (chunked, stats) = linial_coloring_chunked(&g, &ids).unwrap();
            assert_eq!(
                chunked.coloring.as_slice(),
                reference.coloring.as_slice(),
                "colorings diverge at n = {n}"
            );
            assert_eq!(chunked.coloring.palette(), reference.coloring.palette());
            assert_eq!(chunked.palette_trace, reference.palette_trace);
            assert_eq!(stats, net.stats(), "synthesized ledger diverges");
        }
    }

    #[test]
    fn chunked_is_thread_count_invariant() {
        let g = generators::random_regular(800, 6, 4).unwrap();
        let ids = IdAssignment::shuffled(800, 9);
        let reference = rayon::with_num_threads(1, || linial_coloring_chunked(&g, &ids).unwrap());
        for threads in [2usize, 4] {
            let parallel =
                rayon::with_num_threads(threads, || linial_coloring_chunked(&g, &ids).unwrap());
            assert_eq!(
                parallel.0.coloring.as_slice(),
                reference.0.coloring.as_slice(),
                "divergence at {threads} threads"
            );
            assert_eq!(parallel.1, reference.1);
        }
    }

    #[test]
    fn chunked_handles_degenerate_graphs() {
        let g = decolor_graph::GraphBuilder::new(4).build();
        let ids = IdAssignment::sequential(4);
        let (res, stats) = linial_coloring_chunked(&g, &ids).unwrap();
        assert_eq!(res.coloring.palette(), 1);
        assert_eq!(stats, decolor_runtime::NetworkStats::default());

        let empty = decolor_graph::GraphBuilder::new(0).build();
        let (res, _) = linial_coloring_chunked(&empty, &IdAssignment::sequential(0)).unwrap();
        assert!(res.coloring.is_empty());
    }

    #[test]
    fn checkpointed_resume_is_byte_identical() {
        // Sparse regular graph: palette 3000 is far above the Δ = 4
        // fixed point, so the iteration takes several real rounds.
        let g = generators::random_regular(3000, 4, 6).unwrap();
        let ids = IdAssignment::shuffled(3000, 3);
        let (reference, ref_stats) = linial_coloring_chunked(&g, &ids).unwrap();
        let dir = std::env::temp_dir().join(format!("decolor-linial-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("rounds.ckpt");
        // One round per call, "killed" between rounds every time.
        let mut resumed_any = false;
        let mut last = None;
        for _ in 0..32 {
            let out = linial_coloring_chunked_checkpointed(&g, &ids, &ckpt, Some(1)).unwrap();
            resumed_any |= out.resumed_at_round.is_some();
            let done = out.completed;
            last = Some(out);
            if done {
                break;
            }
        }
        let out = last.unwrap();
        assert!(out.completed, "never reached the fixed point");
        assert!(resumed_any, "test never exercised a resume");
        assert!(!ckpt.exists(), "checkpoint must be removed on completion");
        assert_eq!(
            out.result.coloring.as_slice(),
            reference.coloring.as_slice()
        );
        assert_eq!(out.result.coloring.palette(), reference.coloring.palette());
        assert_eq!(out.result.palette_trace, reference.palette_trace);
        assert_eq!(out.stats, ref_stats);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_for_different_inputs_is_rejected() {
        let g = generators::random_regular(2000, 4, 8).unwrap();
        let ids = IdAssignment::shuffled(2000, 1);
        let dir = std::env::temp_dir().join(format!("decolor-linial-fpr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("rounds.ckpt");
        let out = linial_coloring_chunked_checkpointed(&g, &ids, &ckpt, Some(1)).unwrap();
        assert!(!out.completed);
        assert!(ckpt.exists());
        // Same graph, different id assignment: the fingerprint must trip.
        let other = IdAssignment::shuffled(2000, 2);
        let err = linial_coloring_chunked_checkpointed(&g, &other, &ckpt, None).unwrap_err();
        assert!(
            matches!(
                err,
                AlgoError::Graph(decolor_graph::GraphError::Corrupt { .. })
            ),
            "expected Corrupt, got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parameter_chooser_respects_constraints() {
        for (m, delta) in [
            (1_000u64, 5u64),
            (1 << 20, 16),
            (u32::MAX as u64, 100),
            (50, 3),
        ] {
            let (q, deg) = super::choose_parameters(m, delta);
            assert!(q > delta * deg as u64);
            assert!(super::super::util::is_prime(q));
            // q^(deg+1) >= m
            let mut acc: u128 = 1;
            for _ in 0..=deg {
                acc = acc.saturating_mul(q as u128);
            }
            assert!(acc >= m as u128);
        }
    }
}
