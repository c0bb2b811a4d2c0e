//! Linial's deterministic O(Δ²)-coloring in O(log* n) rounds \[30\], and
//! the agent sets the whole coloring subroutine runs on.
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
//!
//! [`linial_coloring_chunked`] is the same iteration without a
//! [`Network`], on the worker pool and on either backend; given a
//! checkpoint path it persists every round and resumes an interrupted
//! run.
//!
//! Every algorithm of the paper calls one black box — Linial, then a color
//! reduction ([`crate::reduction`]) — on vertices (CD-Coloring, bounded
//! diversity) or on edges (star partition, §5: an edge coloring is a
//! vertex coloring of the line graph). Both kernels are written once, over
//! a private `Agents` set: an agent count, the Δ of the conflict graph, a
//! neighbor enumerator and the ledger cost of one round. The vertex agents
//! live here; the edge agents live in [`crate::edge_space`]. A Linial
//! round recolors every agent from the previous round's colors, chunk by
//! chunk (on the worker pool for `Pooled` agents), so the output is the
//! same at any pool width, and each round is charged the broadcast it
//! stands for on a [`Network`].
//!
//! A round's GF(q) arithmetic is chosen once, before its agents run: for
//! every round from a palette `m ≤ 2^32` (all but a caller-declared
//! palette above 2^32) digits, remainders and polynomial values come from
//! `q`'s 64-bit reciprocal (`Modulus`) with no divide instruction; the
//! rest keep plain `%` (`Wide`). Before a round an agent set may screen
//! point 0 for everyone at once (`Agents::screen_point_zero`): the edge
//! agents do, with one pass over the vertex rows, so an edge no neighbor
//! ties at point 0 recolors without a walk of its own; vertex agents test
//! point 0 on their own neighbor walk.

use std::ops::Range;

use decolor_graph::coloring::{Color, VertexColoring};
use decolor_graph::subgraph::GraphView;
use decolor_graph::VertexId;
use decolor_runtime::{IdAssignment, Network, NetworkStats};
use rayon::prelude::*;

use crate::bitset::PaletteSet;
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

/// GF(q) arithmetic of one Linial round. A color `c` stands for the
/// polynomial whose coefficients are the base-`q` digits of `c`.
pub(crate) trait Field: Copy + Sync {
    /// The prime `q`.
    fn q(self) -> u64;
    /// `c mod q`: the polynomial's value at point 0.
    fn rem(self, c: u64) -> u64;
    /// `c div q`.
    fn div(self, c: u64) -> u64;

    /// The polynomial of `c` at point `x < q`, over GF(q).
    ///
    /// Allocation-free (this sits in the innermost loop of every Linial
    /// round): the digits are peeled least-significant first and summed
    /// against a running power of `x`, which is the same sum
    /// `Σ digit_i x^i mod q` as Horner's rule without buffering the digits.
    /// Every intermediate (`acc + digit · x^i`, `x^i · x`) is below `q²`.
    #[inline]
    fn poly(self, c: u64, x: u64) -> u64 {
        if x == 0 {
            return self.rem(c);
        }
        let (mut rest, mut acc, mut pw) = (c, 0, 1);
        while rest > 0 {
            let quot = self.div(rest);
            acc = self.rem(acc + (rest - quot * self.q()) * pw);
            pw = self.rem(pw * x);
            rest = quot;
        }
        acc
    }
}

/// `q` with its 64-bit reciprocal `⌈2^64 / q⌉`: remainders and quotients
/// by multiplication, with no divide instruction (Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation", SPE 2019).
///
/// Exact for `q < 2^16` and operands `< 2^32`, which covers every round
/// whose input palette is `m ≤ 2^32`: colors are below `m`, a round runs
/// only when `q² < m`, and the polynomial's intermediates stay below
/// `q²`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Modulus {
    q: u64,
    recip: u64,
}

impl Modulus {
    /// The reciprocal arithmetic for a round from palette `m` with prime
    /// `q`, or `None` when the round lies outside its exact domain (only
    /// a caller-declared palette above 2^32 gets there).
    pub(crate) fn for_round(q: u64, m: u64) -> Option<Self> {
        ((2..1 << 16).contains(&q) && m <= 1 << 32).then(|| Modulus {
            q,
            recip: u64::MAX / q + 1,
        })
    }
}

/// The high word of the 128-bit product `a · b`.
#[inline]
fn mul_hi(a: u64, b: u64) -> u64 {
    // lint: allow(cast, "the high word of a u64 × u64 product fits u64")
    ((u128::from(a) * u128::from(b)) >> 64) as u64
}

impl Field for Modulus {
    #[inline]
    fn q(self) -> u64 {
        self.q
    }
    #[inline]
    fn rem(self, c: u64) -> u64 {
        debug_assert!(c < 1 << 32, "operand {c} outside the reciprocal's domain");
        mul_hi(self.recip.wrapping_mul(c), self.q)
    }
    #[inline]
    fn div(self, c: u64) -> u64 {
        debug_assert!(c < 1 << 32, "operand {c} outside the reciprocal's domain");
        mul_hi(self.recip, c)
    }
}

/// Plain `%` and `/`: the arithmetic of a round whose palette exceeds
/// 2^32, outside [`Modulus`]'s domain.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Wide(u64);

impl Field for Wide {
    #[inline]
    fn q(self) -> u64 {
        self.0
    }
    #[inline]
    fn rem(self, c: u64) -> u64 {
        c % self.0
    }
    #[inline]
    fn div(self, c: u64) -> u64 {
        c / self.0
    }
}

/// A set of agents recoloring in synchronous LOCAL rounds: the vertices
/// of a graph, or its edges (the vertices of its line graph).
pub(crate) trait Agents {
    /// Number of agents; agents are `0..count()`.
    fn count(&self) -> usize;
    /// Maximum degree of the conflict graph.
    fn conflict_degree(&self) -> u64;
    /// What one round adds to the ledger.
    fn round_cost(&self) -> NetworkStats;
    /// Calls `f` with every conflict neighbor of agent `a`, with
    /// multiplicity.
    fn for_each_neighbor(&self, a: usize, f: impl FnMut(usize));
    /// Screens point 0 for a whole round: re-arms `taken` for the agents
    /// and marks every agent whose residue `colors[a] mod q` some conflict
    /// neighbor shares, so an unmarked agent takes point 0 without a walk
    /// of its own. Returns whether it screened; by default it does not,
    /// and each agent tests point 0 on its own neighbor walk.
    fn screen_point_zero(&self, _colors: &[u64], _f: Modulus, _taken: &mut PaletteSet) -> bool {
        false
    }
    /// Maps `f` over `chunks`, in order. [`Pooled`] agents fan the chunks
    /// out on the worker pool.
    fn map_chunks<R: Send>(
        &self,
        chunks: &[Range<usize>],
        f: impl Fn(&Self, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        chunks.iter().map(|r| f(self, r.clone())).collect()
    }
}

/// Agents whose Linial rounds run their chunks on the worker pool; this
/// needs a `Sync` topology, which the [`Network`]-driven entry points do
/// not require.
pub(crate) struct Pooled<A>(pub(crate) A);

impl<A: Agents + Sync> Agents for Pooled<A> {
    fn count(&self) -> usize {
        self.0.count()
    }
    fn conflict_degree(&self) -> u64 {
        self.0.conflict_degree()
    }
    fn round_cost(&self) -> NetworkStats {
        self.0.round_cost()
    }
    fn for_each_neighbor(&self, a: usize, f: impl FnMut(usize)) {
        self.0.for_each_neighbor(a, f);
    }
    fn screen_point_zero(&self, colors: &[u64], f: Modulus, taken: &mut PaletteSet) -> bool {
        self.0.screen_point_zero(colors, f, taken)
    }
    fn map_chunks<R: Send>(
        &self,
        chunks: &[Range<usize>],
        f: impl Fn(&Self, Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        chunks.par_iter().map(|r| f(self, r.clone())).collect()
    }
}

/// The vertices of a [`GraphView`] as agents; each round costs `round`,
/// which the callers take from [`Network::broadcast_cost`]: the cost of
/// one broadcast round on a [`Network`].
pub(crate) struct VertexAgents<'g, V> {
    g: &'g V,
    round: NetworkStats,
}

impl<'g, V: GraphView> VertexAgents<'g, V> {
    pub(crate) fn new(g: &'g V, round: NetworkStats) -> Self {
        VertexAgents { g, round }
    }
}

impl<V: GraphView> Agents for VertexAgents<'_, V> {
    fn count(&self) -> usize {
        self.g.num_vertices()
    }
    fn conflict_degree(&self) -> u64 {
        num::to_u64(self.g.max_degree())
    }
    fn round_cost(&self) -> NetworkStats {
        self.round
    }
    fn for_each_neighbor(&self, a: usize, mut f: impl FnMut(usize)) {
        self.g.for_each_port(VertexId::new(a), |u, _| f(u.index()));
    }
}

/// Agents recolored per work item of a Linial round — small enough that a
/// chunk's output is cache-resident, large enough that the pool fan-out
/// amortizes.
const LINIAL_CHUNK: usize = 1 << 16;

/// Linial's state between rounds — what a checkpoint saves.
pub(crate) struct LinialState {
    /// The color of every agent.
    pub(crate) colors: Vec<u64>,
    /// The current palette.
    pub(crate) m: u64,
    /// Palette sizes after each round (starting palette first).
    pub(crate) trace: Vec<u64>,
    /// The ledger so far.
    pub(crate) stats: NetworkStats,
}

impl LinialState {
    /// The state before the first round, from a proper coloring of `g`.
    fn start<V: GraphView>(g: &V, initial: &VertexColoring) -> Result<Self, AlgoError> {
        initial
            .validate(g)
            .map_err(|e| AlgoError::InvalidParameters {
                reason: e.to_string(),
            })?;
        let m = initial.palette().max(1);
        Ok(LinialState {
            colors: initial.as_slice().iter().map(|&c| u64::from(c)).collect(),
            m,
            trace: vec![m],
            stats: NetworkStats::default(),
        })
    }

    fn into_result(self) -> Result<LinialResult, AlgoError> {
        Ok(LinialResult {
            coloring: VertexColoring::new(narrow(self.colors)?, self.m)
                .map_err(AlgoError::invariant)?,
            palette_trace: self.trace,
        })
    }
}

/// Narrows kernel colors to [`Color`]s.
pub(crate) fn narrow(colors: Vec<u64>) -> Result<Vec<Color>, AlgoError> {
    colors
        .into_iter()
        .map(Color::try_from)
        .collect::<Result<_, _>>()
        .map_err(|_| AlgoError::InvariantViolated {
            reason: "palette exceeds u32".into(),
        })
}

/// One Linial round over `agents` in GF(q) arithmetic `f`: every agent
/// picks, off the previous round's colors `prev`, the smallest evaluation
/// point at which its polynomial differs from all its neighbors', and
/// recolors to `(α, p(α))`. With a point-0 screen `taken`, an unmarked
/// agent takes point 0 at once and a marked one searches from point 1.
/// Returns each chunk's new colors.
fn linial_round<A: Agents, F: Field>(
    agents: &A,
    prev: &[u64],
    chunks: &[Range<usize>],
    f: F,
    taken: Option<&PaletteSet>,
) -> Vec<Vec<u64>> {
    let q = f.q();
    let first = u64::from(taken.is_some());
    agents.map_chunks(chunks, |agents, range| {
        let mut neigh: Vec<u64> = Vec::new();
        range
            .map(|a| {
                let my = prev[a];
                if taken.is_some_and(|t| !t.contains(num::to_u64(a))) {
                    return f.rem(my);
                }
                neigh.clear();
                agents.for_each_neighbor(a, |b| {
                    // Equal colors would break properness of the input.
                    debug_assert_ne!(prev[b], my, "input coloring is not proper");
                    if prev[b] != my {
                        neigh.push(prev[b]);
                    }
                });
                // Smallest α where p_a differs from every neighbor's
                // polynomial (they agree on ≤ deg points each, and Δ·deg < q
                // points are excluded in total).
                (first..q)
                    .find_map(|x| {
                        let mine = f.poly(my, x);
                        neigh
                            .iter()
                            .all(|&their| f.poly(their, x) != mine)
                            .then_some(x * q + mine)
                    })
                    // lint: allow(panic, "a valid evaluation point exists by the pigeonhole argument")
                    .expect("a valid evaluation point exists by the pigeonhole argument")
            })
            .collect()
    })
}

/// Runs Linial's iteration over `agents` from the proper coloring in `st`
/// down to its O(Δ²) fixed point, charging `round_cost` per round. In a
/// round every agent picks, off the previous round's colors, the smallest
/// evaluation point at which its polynomial differs from all its
/// neighbors'. `after_round` sees the state after each round (the
/// checkpoint hook), and `round_budget` caps the rounds of this call.
///
/// Returns `false` only when the budget stopped the iteration early.
pub(crate) fn linial_pass<A: Agents>(
    agents: &A,
    st: &mut LinialState,
    round_budget: Option<u64>,
    mut after_round: impl FnMut(&mut LinialState) -> Result<(), AlgoError>,
) -> Result<bool, AlgoError> {
    let delta = agents.conflict_degree();
    if delta == 0 {
        // No conflicts: every agent takes color 0 without communication.
        st.colors.fill(0);
        st.m = 1;
        return Ok(true);
    }
    let target = final_palette_bound(num::to_usize(delta)?);
    let n = agents.count();
    let chunks: Vec<Range<usize>> = (0..n.div_ceil(LINIAL_CHUNK))
        .map(|c| (c * LINIAL_CHUNK)..((c + 1) * LINIAL_CHUNK).min(n))
        .collect();
    let mut rounds = 0u64;
    let mut taken = PaletteSet::new();
    while st.m > target {
        let (q, _deg) = choose_parameters(st.m, delta);
        if q * q >= st.m {
            break; // fixed point reached early
        }
        if round_budget.is_some_and(|b| rounds >= b) {
            // Stop between rounds, exactly where a kill would land.
            return Ok(false);
        }
        // The arithmetic is chosen once per round, never per evaluation.
        let outs = match Modulus::for_round(q, st.m) {
            Some(f) => {
                let screened = agents.screen_point_zero(&st.colors, f, &mut taken);
                linial_round(agents, &st.colors, &chunks, f, screened.then_some(&taken))
            }
            None => linial_round(agents, &st.colors, &chunks, Wide(q), None),
        };
        // The chunk outputs are the round's second buffer: every decision
        // read only the previous colors, so writing them back in place
        // keeps peak state at two words per agent.
        for (range, out) in chunks.iter().zip(outs) {
            st.colors[range.clone()].copy_from_slice(&out);
        }
        st.stats = st.stats.then(agents.round_cost());
        st.m = q * q;
        st.trace.push(st.m);
        rounds += 1;
        after_round(st)?;
    }
    Ok(true)
}

/// Runs Linial's iteration from an arbitrary proper coloring down to its
/// fixed point (an O(Δ²)-coloring), charging each round to `net` as a
/// broadcast of the colors.
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
    let mut st = LinialState::start(g, initial)?;
    let agents = VertexAgents::new(g, net.broadcast_cost::<u64>());
    linial_pass(&agents, &mut st, None, |_| Ok(()))?;
    net.absorb_sequential(st.stats);
    let result = st.into_result()?;
    debug_assert!(result.coloring.is_proper(g));
    Ok(result)
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

/// Outcome of a (possibly checkpointed, possibly round-limited)
/// [`linial_coloring_chunked`] run.
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

/// The **pooled realization** of [`linial_coloring`], without a
/// [`Network`]: the same kernel, reading neighbor colors straight off the
/// topology's CSR (in-memory `Graph` or out-of-core `ShardedCsr`), with
/// each round's chunks fanned out on the worker pool. Peak algorithm state
/// is 2n u64 words, which is what opens the `scaling` Linial row to
/// n ≈ 10⁸.
///
/// A vertex's recoloring decision depends only on the previous round's
/// colors, so the output is **bit-identical** at any `DECOLOR_THREADS`
/// and bit-identical to [`linial_coloring`] — colorings, palette traces,
/// round counts, and the returned [`NetworkStats`] (the ledger a
/// broadcast charges: Σ deg(v) messages of 8 payload bytes each per
/// round) — pinned by the backend-equivalence tests.
///
/// With `ckpt` set, every completed round writes the full inter-round
/// state atomically to that file (see [`crate::checkpoint`]), and a later
/// call with the same inputs resumes from it — producing a coloring,
/// trace, and ledger byte-identical to an uninterrupted run. On
/// completion the checkpoint file is removed. `round_budget` bounds the
/// rounds executed by *this* call (`None` = run to the fixed point); the
/// crash-recovery suite uses it to model a kill between rounds.
///
/// # Errors
///
/// As [`linial_coloring`], plus
/// [`GraphError::Corrupt`](decolor_graph::GraphError::Corrupt) (via
/// [`AlgoError::Graph`]) for a torn checkpoint or one fingerprinted for
/// different inputs.
pub fn linial_coloring_chunked<V: GraphView + Sync>(
    g: &V,
    ids: &IdAssignment,
    ckpt: Option<&std::path::Path>,
    round_budget: Option<u64>,
) -> Result<ChunkedOutcome, AlgoError> {
    use crate::checkpoint::{input_fingerprint, RoundCheckpoint};

    let initial = initial_from_ids(g, ids)?;
    let mut st = LinialState::start(g, &initial)?;
    let n = num::to_u64(g.num_vertices());
    let delta = num::to_u64(g.max_degree());
    let mut resumed_at_round = None;

    // Bind any checkpoint to this exact run before trusting its state: a
    // checkpoint for a different graph or id assignment must surface as
    // Corrupt, never resume into a silently wrong coloring.
    let fingerprint = ckpt.map(|path| {
        let (edges, max_degree) = (g.num_edges(), g.max_degree());
        let fp = input_fingerprint(
            g.num_vertices(),
            edges,
            max_degree,
            st.m,
            initial.as_slice(),
        );
        (path, fp)
    });
    if let Some((path, fp)) = fingerprint {
        if let Some(saved) = RoundCheckpoint::load(path)? {
            if saved.fingerprint != fp || saved.n != n || saved.delta != delta {
                return Err(AlgoError::Graph(decolor_graph::GraphError::Corrupt {
                    path: path.display().to_string(),
                    reason: format!(
                        "checkpoint fingerprint {:#010x} does not match this run's inputs {fp:#010x}",
                        saved.fingerprint
                    ),
                }));
            }
            resumed_at_round = Some(saved.rounds);
            st = LinialState {
                colors: saved.colors,
                m: saved.m,
                trace: saved.trace,
                stats: NetworkStats {
                    rounds: saved.rounds,
                    messages: saved.messages,
                    payload_bytes: saved.payload_bytes,
                },
            };
        }
    }

    let agents = Pooled(VertexAgents::new(
        g,
        Network::new(g).broadcast_cost::<u64>(),
    ));
    let completed = linial_pass(&agents, &mut st, round_budget, |st| {
        let Some((path, fp)) = fingerprint else {
            return Ok(());
        };
        // The color array is *moved* into the checkpoint for the save (no
        // n-word copy) and moved back out afterwards.
        let ck = RoundCheckpoint {
            n,
            delta,
            fingerprint: fp,
            m: st.m,
            rounds: st.stats.rounds,
            messages: st.stats.messages,
            payload_bytes: st.stats.payload_bytes,
            trace: st.trace.clone(),
            colors: std::mem::take(&mut st.colors),
        };
        let saved = ck.save(path);
        st.colors = ck.colors;
        saved.map_err(AlgoError::Graph)
    })?;

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
    let stats = st.stats;
    Ok(ChunkedOutcome {
        result: st.into_result()?,
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
        // The round count should be tiny (≤ ~6) even for large sparse instances.
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
            let out = linial_coloring_chunked(&g, &ids, None, None).unwrap();
            let (chunked, stats) = (out.result, out.stats);
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
        let run = || linial_coloring_chunked(&g, &ids, None, None).unwrap();
        let reference = rayon::with_num_threads(1, run);
        for threads in [2usize, 4] {
            let parallel = rayon::with_num_threads(threads, run);
            assert_eq!(
                parallel.result.coloring.as_slice(),
                reference.result.coloring.as_slice(),
                "divergence at {threads} threads"
            );
            assert_eq!(parallel.stats, reference.stats);
        }
    }

    #[test]
    fn chunked_handles_degenerate_graphs() {
        let g = decolor_graph::GraphBuilder::new(4).build();
        let ids = IdAssignment::sequential(4);
        let out = linial_coloring_chunked(&g, &ids, None, None).unwrap();
        assert_eq!(out.result.coloring.palette(), 1);
        assert_eq!(out.stats, decolor_runtime::NetworkStats::default());

        let empty = decolor_graph::GraphBuilder::new(0).build();
        let ids = IdAssignment::sequential(0);
        let out = linial_coloring_chunked(&empty, &ids, None, None).unwrap();
        assert!(out.result.coloring.is_empty());
    }

    #[test]
    fn checkpointed_resume_is_byte_identical() {
        // Sparse regular graph: palette 3000 is far above the Δ = 4
        // fixed point, so the iteration takes several real rounds.
        let g = generators::random_regular(3000, 4, 6).unwrap();
        let ids = IdAssignment::shuffled(3000, 3);
        let straight = linial_coloring_chunked(&g, &ids, None, None).unwrap();
        let (reference, ref_stats) = (straight.result, straight.stats);
        let dir = std::env::temp_dir().join(format!("decolor-linial-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("rounds.ckpt");
        // One round per call, "killed" between rounds every time.
        let mut resumed_any = false;
        let mut last = None;
        for _ in 0..32 {
            let out = linial_coloring_chunked(&g, &ids, Some(&ckpt), Some(1)).unwrap();
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
        let out = linial_coloring_chunked(&g, &ids, Some(&ckpt), Some(1)).unwrap();
        assert!(!out.completed);
        assert!(ckpt.exists());
        // Same graph, different id assignment: the fingerprint must trip.
        let other = IdAssignment::shuffled(2000, 2);
        let err = linial_coloring_chunked(&g, &other, Some(&ckpt), None).unwrap_err();
        assert!(
            matches!(
                err,
                AlgoError::Graph(decolor_graph::GraphError::Corrupt { .. })
            ),
            "expected Corrupt, got {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `Σ digit_i x^i mod q` over the base-`q` digits of `c`, by `%`-Horner.
    fn horner_by_division(c: u64, q: u64, x: u64) -> u64 {
        let mut digits = Vec::new();
        let mut rest = c;
        while rest > 0 {
            digits.push(rest % q);
            rest /= q;
        }
        digits.iter().rev().fold(0, |acc, &d| (acc * x + d) % q)
    }

    #[test]
    fn modulus_matches_hardware_division() {
        // Deterministic splitmix-style stream of numerators below 2^32.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) >> 32
        };
        let primes = (2..1u64 << 16).filter(|&q| super::super::util::is_prime(q));
        for q in primes {
            let f = Modulus::for_round(q, 1 << 32).unwrap();
            let fixed = [0, 1, q - 1, q, q * q - 1, u64::from(u32::MAX)];
            let random = [next(), next(), next(), next()];
            for c in fixed.into_iter().chain(random) {
                assert_eq!(f.rem(c), c % q, "rem: c = {c}, q = {q}");
                assert_eq!(f.div(c), c / q, "div: c = {c}, q = {q}");
                for x in [0, 1, q / 2, q - 1] {
                    let want = horner_by_division(c, q, x);
                    assert_eq!(f.poly(c, x), want, "poly: c = {c}, q = {q}, x = {x}");
                    assert_eq!(Wide(q).poly(c, x), want, "wide: c = {c}, q = {q}, x = {x}");
                }
            }
        }
        // The reciprocal stops at its domain; wider rounds keep `%`.
        assert!(Modulus::for_round(65_537, 1 << 40).is_none());
        assert!(Modulus::for_round(13, (1 << 32) + 1).is_none());
        let wide = Wide(4_294_967_311); // the first prime above 2^32
        assert!(super::super::util::is_prime(wide.q()));
        let c = u64::MAX - 12_345;
        assert_eq!(wide.poly(c, 7), horner_by_division(c, wide.q(), 7));
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
