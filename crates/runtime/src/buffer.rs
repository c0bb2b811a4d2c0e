//! Reusable flat message buffers for the exchange hot path.
//!
//! [`RoundBuffer`] is the allocation-free counterpart of the `Vec<Vec<_>>`
//! inboxes returned by [`Network::exchange`](crate::Network::exchange): one
//! contiguous `(port, message)` arena indexed CSR-style by per-vertex
//! offsets built once from the incidence structure. A buffer is created
//! once per (graph, message type) pair and refilled every round by
//! [`Network::exchange_into`](crate::Network::exchange_into) /
//! [`Network::broadcast_into`](crate::Network::broadcast_into), so the
//! per-round cost is the messages themselves — no `Vec` is allocated after
//! construction.

use decolor_graph::subgraph::GraphView;
use decolor_graph::{num, VertexId};

use crate::error::RuntimeError;

/// A reusable, flat per-round inbox for one graph and one message type.
///
/// Layout: vertex `v` owns the arena region `offsets[v]..offsets[v + 1]`
/// (capacity `deg(v)`, the most messages a vertex can receive in one round
/// of the LOCAL model — at most one per incident port). `len[v]` counts
/// the messages actually delivered this round; slots beyond it hold stale
/// payloads from earlier rounds and are never observed.
///
/// ```rust
/// use decolor_graph::builder_from_edges;
/// use decolor_runtime::{Network, RoundBuffer};
///
/// let g = builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let mut net = Network::new(&g);
/// let mut buf = RoundBuffer::new(&g);
/// for round in 0..4u32 {
///     let values = vec![round, round + 1, round + 2];
///     net.broadcast_into(&values, &mut buf).unwrap();
///     let mid: Vec<u32> = buf.row(decolor_graph::VertexId::new(1)).copied().collect();
///     assert_eq!(mid, vec![round, round + 2]); // port order, no allocation
/// }
/// assert_eq!(net.stats().rounds, 4);
/// ```
#[derive(Debug)]
pub struct RoundBuffer<M> {
    /// CSR offsets into `ports`/`slots`; length `n + 1`.
    offsets: Vec<usize>,
    /// Messages received by each vertex this round; length `n`.
    len: Vec<usize>,
    /// Receiving-port tags, parallel to `slots`.
    ports: Vec<u32>,
    /// Message payloads. Slots start as `M::default()` and are
    /// overwritten before being readable (`len` gates reads), so no
    /// `Option` discriminant is paid — for `M = u64` this halves the
    /// arena.
    slots: Vec<M>,
    /// Number of edges of the graph this buffer was built for.
    num_edges: usize,
}

impl<M: Clone + Default> RoundBuffer<M> {
    /// Builds an empty buffer shaped for the topology `g` — a
    /// [`Graph`](decolor_graph::Graph) or any borrowed subgraph view (O(n + m),
    /// done once). Slots are default-initialized (never readable before
    /// a round writes them).
    pub fn new<V: GraphView>(g: &V) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for v in 0..n {
            acc += g.degree(VertexId::new(v));
            offsets.push(acc);
        }
        let slots = vec![M::default(); acc];
        RoundBuffer {
            offsets,
            len: vec![0; n],
            ports: vec![0; acc],
            slots,
            num_edges: g.num_edges(),
        }
    }
}

impl<M> RoundBuffer<M> {
    /// Number of vertices this buffer is shaped for.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.len.len()
    }

    /// Whether this buffer was built for a topology shaped like `g`.
    ///
    /// Release builds compare the cheap invariants (vertex and edge
    /// counts); debug builds additionally verify the full per-vertex
    /// degree layout, catching distinct topologies that share those
    /// totals.
    pub(crate) fn fits<V: GraphView>(&self, g: &V) -> bool {
        debug_assert!(
            self.len.len() != g.num_vertices()
                || self.num_edges != g.num_edges()
                || (0..g.num_vertices()).all(|v| {
                    self.offsets[v + 1] - self.offsets[v] == g.degree(VertexId::new(v))
                }),
            "round buffer degree layout does not match the topology"
        );
        self.len.len() == g.num_vertices() && self.num_edges == g.num_edges()
    }

    /// Messages received by `v` in the round most recently written.
    #[inline]
    pub fn received(&self, v: VertexId) -> usize {
        self.len[v.index()]
    }

    /// The messages delivered to `v` this round, in delivery order (for
    /// [`Network::broadcast_into`](crate::Network::broadcast_into) this is
    /// port order: element `p` is the value of the neighbor across port
    /// `p`).
    #[inline]
    pub fn row(&self, v: VertexId) -> impl Iterator<Item = &M> + '_ {
        let base = self.offsets[v.index()];
        self.slots[base..base + self.len[v.index()]].iter()
    }

    /// The `(receiving port, message)` pairs delivered to `v` this round,
    /// in delivery order — the flat equivalent of `inbox[v]` from
    /// [`Network::exchange`](crate::Network::exchange).
    #[inline]
    pub fn inbox(&self, v: VertexId) -> impl Iterator<Item = (usize, &M)> + '_ {
        let base = self.offsets[v.index()];
        let end = base + self.len[v.index()];
        self.ports[base..end]
            .iter()
            .zip(&self.slots[base..end])
            .map(|(&p, s)| (num::usize_from(p), s))
    }

    /// The `i`-th message delivered to `v` this round.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.received(v)`.
    #[inline]
    pub fn msg(&self, v: VertexId, i: usize) -> &M {
        assert!(i < self.len[v.index()], "message {i} not delivered to {v}");
        &self.slots[self.offsets[v.index()] + i]
    }

    /// Resets the per-round message counts. Refilling entry points call
    /// this themselves; it is only needed when a stale buffer must not be
    /// read again.
    pub fn clear(&mut self) {
        self.len.fill(0);
    }

    /// Starts a new round: zeroes every per-vertex message count.
    #[inline]
    pub(crate) fn begin_round(&mut self) {
        self.len.fill(0);
    }

    /// Appends a message for vertex `u` with receiving-port tag `port`,
    /// reusing the slot's previous allocation when possible.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InboxOverflow`] if `u` already received `deg(u)`
    /// messages this round (a sender placed two messages on one port,
    /// violating the LOCAL model).
    #[inline]
    pub(crate) fn push(&mut self, u: VertexId, port: u32, message: &M) -> Result<(), RuntimeError>
    where
        M: Clone,
    {
        let k = self.len[u.index()];
        let base = self.offsets[u.index()];
        if base + k >= self.offsets[u.index() + 1] {
            return Err(RuntimeError::InboxOverflow { vertex: u });
        }
        self.ports[base + k] = port;
        // `clone_from` reuses the previous payload's allocation (for
        // `M = Vec<_>` the capacity survives across rounds).
        self.slots[base + k].clone_from(message);
        self.len[u.index()] = k + 1;
        Ok(())
    }

    /// Writes the broadcast value arriving at `v`'s port `p` directly into
    /// slot `p` (deterministic sender order makes the position known
    /// without sorting).
    #[inline]
    pub(crate) fn place_at_port(&mut self, v: VertexId, p: usize, message: &M)
    where
        M: Clone,
    {
        let base = self.offsets[v.index()];
        // lint: allow(cast, "port indices are below a u32 vertex degree")
        self.ports[base + p] = p as u32;
        self.slots[base + p].clone_from(message);
    }

    /// Marks `v` as having received exactly its full degree of messages
    /// (after a broadcast filled every port slot).
    #[inline]
    pub(crate) fn set_full(&mut self, v: VertexId) {
        self.len[v.index()] = self.offsets[v.index() + 1] - self.offsets[v.index()];
    }

    /// Moves this round's inbox of `v` out of the arena (used by the
    /// compatibility wrappers to avoid a second clone), leaving default
    /// payloads behind.
    pub(crate) fn take_inbox(&mut self, v: VertexId) -> Vec<(usize, M)>
    where
        M: Default,
    {
        let base = self.offsets[v.index()];
        let k = self.len[v.index()];
        (0..k)
            .map(|i| {
                (
                    num::usize_from(self.ports[base + i]),
                    std::mem::take(&mut self.slots[base + i]),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::builder_from_edges;

    #[test]
    fn regions_match_degrees() {
        let g = builder_from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]).unwrap();
        let buf = RoundBuffer::<u32>::new(&g);
        assert_eq!(buf.num_vertices(), 4);
        assert_eq!(buf.offsets, vec![0, 1, 4, 6, 8]);
        assert_eq!(buf.slots.len(), 2 * g.num_edges());
    }

    #[test]
    fn push_and_drain_round_trip() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let mut buf = RoundBuffer::new(&g);
        buf.begin_round();
        buf.push(VertexId::new(1), 0, &42u64).unwrap();
        assert_eq!(buf.received(VertexId::new(1)), 1);
        assert_eq!(buf.inbox(VertexId::new(1)).collect::<Vec<_>>(), [(0, &42)]);
        assert_eq!(buf.take_inbox(VertexId::new(1)), vec![(0, 42)]);
        // A fresh round starts empty even though slots hold stale payloads.
        buf.begin_round();
        assert_eq!(buf.received(VertexId::new(1)), 0);
        assert_eq!(buf.row(VertexId::new(1)).count(), 0);
    }

    #[test]
    fn overflow_is_rejected() {
        let g = builder_from_edges(2, &[(0, 1)]).unwrap();
        let mut buf = RoundBuffer::new(&g);
        buf.begin_round();
        buf.push(VertexId::new(1), 0, &1u8).unwrap();
        assert_eq!(
            buf.push(VertexId::new(1), 0, &2u8),
            Err(RuntimeError::InboxOverflow {
                vertex: VertexId::new(1)
            })
        );
    }
}
