//! The port-numbered synchronous network.

use std::cell::OnceCell;

use decolor_graph::num;
use decolor_graph::subgraph::GraphView;
use decolor_graph::{EdgeId, Graph, VertexId};

use crate::buffer::RoundBuffer;
use crate::error::RuntimeError;
use crate::metrics::NetworkStats;

/// A synchronous port-numbered network over a **topology** — any
/// implementor of [`GraphView`] (re-exported from this crate as
/// [`Topology`](crate::Topology)): a whole [`Graph`], a borrowed
/// edge-subset view (`EdgeSubgraphView`), or a borrowed induced-subgraph
/// view (`InducedSubgraphView`). Recursive pipelines can therefore
/// simulate rounds directly on an activation-bitset view of a parent CSR
/// — no per-class graph or network state is materialized.
///
/// Port `p` of vertex `v` is the `p`-th pair yielded by the topology's
/// incidence (for [`Graph`], position `p` in `graph.incidence(v)`); a
/// message sent by `v` on port `p` traverses that edge and is delivered to
/// the opposite endpoint, tagged with *its* port for the same edge. One
/// call to [`Network::exchange`] (or any helper built on it) is one round.
///
/// The per-edge port table is built **lazily**, on the first primitive
/// that needs receiving-port tags ([`Network::exchange_into`],
/// [`Network::broadcast_on_active_into`], [`Network::port_of`]); the
/// broadcast-only pipelines (Linial, the color reductions — i.e. the
/// whole vertex-coloring subroutine) never allocate one.
///
/// Malformed traffic (out-of-range ports, over-full inboxes, foreign
/// buffers) is reported as a [`RuntimeError`] instead of aborting the
/// process.
#[derive(Debug)]
pub struct Network<'g, V: GraphView = Graph> {
    graph: &'g V,
    /// For every (local) edge, the port index it occupies at each
    /// endpoint: `ports[e] = (port at lower endpoint, port at higher
    /// endpoint)`. Built on first use.
    ports: OnceCell<Vec<(u32, u32)>>,
    stats: NetworkStats,
}

impl<'g, V: GraphView> Network<'g, V> {
    /// Wraps a topology in a network with zeroed statistics. O(1): the
    /// port table is deferred to the first port-dependent primitive.
    pub fn new(graph: &'g V) -> Self {
        Network {
            graph,
            ports: OnceCell::new(),
            stats: NetworkStats::default(),
        }
    }

    /// The underlying topology (the graph itself for `Network<Graph>`).
    #[inline]
    pub fn graph(&self) -> &'g V {
        self.graph
    }

    /// Statistics accumulated so far.
    #[inline]
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Zeroes the statistics ledger while keeping the port table (if one
    /// was built), so measurement loops can construct the network once
    /// and call this between iterations.
    #[inline]
    pub fn reset_stats(&mut self) {
        self.stats = NetworkStats::default();
    }

    /// Builds a [`RoundBuffer`] shaped for this network's topology, for
    /// use with [`Network::exchange_into`] / [`Network::broadcast_into`].
    pub fn make_buffer<M: Clone + Default>(&self) -> RoundBuffer<M> {
        RoundBuffer::new(self.graph)
    }

    /// The port table, built on first use (one O(n + m) incidence scan).
    fn ports(&self) -> &[(u32, u32)] {
        self.ports.get_or_init(|| {
            let mut ports = vec![(0u32, 0u32); self.graph.num_edges()];
            for vi in 0..self.graph.num_vertices() {
                let v = VertexId::new(vi);
                let mut p = 0u32;
                self.graph.for_each_port(v, |_, e| {
                    let [lo, _hi] = self.graph.endpoints(e);
                    if v == lo {
                        ports[e.index()].0 = p;
                    } else {
                        ports[e.index()].1 = p;
                    }
                    p += 1;
                });
            }
            ports
        })
    }

    /// The port of (local) edge `e` at endpoint `v`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::EdgeOutOfRange`] if `e` is not an edge of the
    /// topology; [`RuntimeError::NotAnEndpoint`] if `v` is not an
    /// endpoint of `e`.
    #[inline]
    pub fn port_of(&self, v: VertexId, e: EdgeId) -> Result<usize, RuntimeError> {
        if e.index() >= self.graph.num_edges() {
            return Err(RuntimeError::EdgeOutOfRange {
                edge: e.index(),
                num_edges: self.graph.num_edges(),
            });
        }
        let [lo, hi] = self.graph.endpoints(e);
        if v == lo {
            Ok(num::usize_from(self.ports()[e.index()].0))
        } else if v == hi {
            Ok(num::usize_from(self.ports()[e.index()].1))
        } else {
            Err(RuntimeError::NotAnEndpoint { vertex: v, edge: e })
        }
    }

    /// [`Network::port_of`] for an `(endpoint, edge)` pair already known
    /// to be incident (internal delivery path; inputs come from the
    /// topology's own incidence lists, so no validation is needed).
    #[inline]
    fn port_of_incident(&self, v: VertexId, e: EdgeId) -> usize {
        let [lo, _hi] = self.graph.endpoints(e);
        if v == lo {
            num::usize_from(self.ports()[e.index()].0)
        } else {
            num::usize_from(self.ports()[e.index()].1)
        }
    }

    /// Executes one communication round with explicit per-port outboxes,
    /// delivering into a reusable [`RoundBuffer`] without allocating.
    ///
    /// `outbox[v]` lists `(port, message)` pairs sent by `v`; afterwards
    /// `buf.inbox(u)` yields `(port at u, message)` in deterministic
    /// (sender-index) order, exactly like the rows of
    /// [`Network::exchange`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] if `outbox` does not have one entry
    /// per vertex, [`RuntimeError::PortOutOfRange`] for a bad port,
    /// [`RuntimeError::ForeignBuffer`] if the buffer was built for a
    /// different graph shape, and [`RuntimeError::InboxOverflow`] if a
    /// vertex would receive more messages than its degree. The round is
    /// not charged to the ledger on error, and the buffer is left
    /// *empty* — never holding a half-delivered round.
    pub fn exchange_into<M: Clone>(
        &mut self,
        outbox: &[Vec<(usize, M)>],
        buf: &mut RoundBuffer<M>,
    ) -> Result<(), RuntimeError> {
        if outbox.len() != self.graph.num_vertices() {
            return Err(RuntimeError::ShapeMismatch {
                what: "outbox",
                expected: self.graph.num_vertices(),
                got: outbox.len(),
            });
        }
        if !buf.fits(self.graph) {
            return Err(RuntimeError::ForeignBuffer);
        }
        buf.begin_round();
        let deliver = |buf: &mut RoundBuffer<M>| -> Result<u64, RuntimeError> {
            let mut messages = 0u64;
            for (vi, sends) in outbox.iter().enumerate() {
                let v = VertexId::new(vi);
                for (port, msg) in sends {
                    let (u, e) =
                        self.graph
                            .port(v, *port)
                            .ok_or_else(|| RuntimeError::PortOutOfRange {
                                vertex: v,
                                port: *port,
                                degree: self.graph.degree(v),
                            })?;
                    // lint: allow(cast, "ports are stored as u32 pairs, so the incident port fits u32")
                    let their_port = self.port_of_incident(u, e) as u32;
                    buf.push(u, their_port, msg)?;
                    messages += 1;
                }
            }
            Ok(messages)
        };
        let messages = match deliver(buf) {
            Ok(m) => m,
            Err(e) => {
                // Do not leave a partially delivered round readable.
                buf.begin_round();
                return Err(e);
            }
        };
        self.stats = self.stats.then(round_cost::<M>(messages));
        Ok(())
    }

    /// Executes one communication round with explicit per-port outboxes.
    ///
    /// `outbox[v]` lists `(port, message)` pairs sent by `v`; the returned
    /// inbox mirrors that shape on the receiving side: `inbox[u]` lists
    /// `(port at u, message)` in deterministic (sender-index) order.
    ///
    /// Compatibility wrapper over [`Network::exchange_into`]; loops that
    /// exchange every round should hold a [`RoundBuffer`] and call the
    /// `_into` variant directly.
    ///
    /// # Errors
    ///
    /// As [`Network::exchange_into`].
    pub fn exchange<M: Clone + Default>(
        &mut self,
        outbox: &[Vec<(usize, M)>],
    ) -> Result<Vec<Vec<(usize, M)>>, RuntimeError> {
        let mut buf = RoundBuffer::new(self.graph);
        self.exchange_into(outbox, &mut buf)?;
        Ok((0..self.graph.num_vertices())
            .map(|v| buf.take_inbox(VertexId::new(v)))
            .collect())
    }

    /// One round in which every vertex sends `values[v]` on **all** its
    /// ports, delivered into a reusable [`RoundBuffer`] without
    /// allocating: afterwards `buf.row(v)` yields the neighbor values of
    /// `v` *in port order* (element `p` is the value across port `p`).
    ///
    /// The sender order of a broadcast is deterministic — the message
    /// arriving at port `p` of `v` is always `values[incidence(v)[p].0]` —
    /// so each payload is written straight into slot `p`; no per-vertex
    /// sort is involved.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] if `values` does not have one entry
    /// per vertex; [`RuntimeError::ForeignBuffer`] if the buffer was built
    /// for a different graph shape.
    pub fn broadcast_into<M: Clone>(
        &mut self,
        values: &[M],
        buf: &mut RoundBuffer<M>,
    ) -> Result<(), RuntimeError> {
        if values.len() != self.graph.num_vertices() {
            return Err(RuntimeError::ShapeMismatch {
                what: "values",
                expected: self.graph.num_vertices(),
                got: values.len(),
            });
        }
        if !buf.fits(self.graph) {
            return Err(RuntimeError::ForeignBuffer);
        }
        let mut messages = 0u64;
        for vi in 0..self.graph.num_vertices() {
            let v = VertexId::new(vi);
            let mut p = 0usize;
            self.graph.for_each_port(v, |u, _| {
                buf.place_at_port(v, p, &values[u.index()]);
                p += 1;
            });
            buf.set_full(v);
            messages += num::to_u64(self.graph.degree(v));
        }
        self.stats = self.stats.then(round_cost::<M>(messages));
        Ok(())
    }

    /// One round in which every vertex sends `values[v]` on **all** its
    /// ports. Returns, per vertex, the received neighbor values *in port
    /// order* (`result[v][p]` = value of the neighbor across port `p`).
    ///
    /// This is the workhorse of color-exchange algorithms. Like
    /// [`Network::broadcast_into`] it exploits the deterministic sender
    /// order of a broadcast instead of sorting each inbox; hot loops
    /// should prefer the `_into` variant, which also skips the per-vertex
    /// `Vec`s.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] if `values` does not have one entry
    /// per vertex.
    pub fn broadcast<M: Clone>(&mut self, values: &[M]) -> Result<Vec<Vec<M>>, RuntimeError> {
        if values.len() != self.graph.num_vertices() {
            return Err(RuntimeError::ShapeMismatch {
                what: "values",
                expected: self.graph.num_vertices(),
                got: values.len(),
            });
        }
        let mut messages = 0u64;
        let inbox: Vec<Vec<M>> = (0..self.graph.num_vertices())
            .map(|vi| {
                let v = VertexId::new(vi);
                messages += num::to_u64(self.graph.degree(v));
                let mut row = Vec::with_capacity(self.graph.degree(v));
                self.graph
                    .for_each_port(v, |u, _| row.push(values[u.index()].clone()));
                row
            })
            .collect();
        self.stats = self.stats.then(round_cost::<M>(messages));
        Ok(inbox)
    }

    /// One round restricted to an **active vertex set**: only the vertices
    /// in `active` send (their `values` entry, on all their ports);
    /// everyone listens. Afterwards `buf.inbox(u)` lists `(port at u,
    /// value)` pairs from active neighbors in sender-index order, and
    /// `buf.received(u)` counts `u`'s active neighbors.
    ///
    /// This is the LOCAL-faithful way to simulate a round on a subgraph
    /// activated inside a larger network (per-class phases of the
    /// recursive decompositions; the H-partition's counter peeling charges
    /// each level exactly this round's cost): inactive vertices stay
    /// silent, so the message ledger charges `Σ deg(active)` instead of
    /// `2m`, while the round still costs 1.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] if `values` does not have one entry
    /// per vertex, [`RuntimeError::VertexOutOfRange`] for a bad active
    /// entry, [`RuntimeError::ForeignBuffer`] for a buffer of the wrong
    /// shape, and [`RuntimeError::InboxOverflow`] if a vertex appears
    /// twice in `active` often enough to over-fill a neighbor's inbox.
    /// The round is not charged on error and the buffer is left empty.
    pub fn broadcast_on_active_into<M: Clone>(
        &mut self,
        values: &[M],
        active: &[VertexId],
        buf: &mut RoundBuffer<M>,
    ) -> Result<(), RuntimeError> {
        if values.len() != self.graph.num_vertices() {
            return Err(RuntimeError::ShapeMismatch {
                what: "values",
                expected: self.graph.num_vertices(),
                got: values.len(),
            });
        }
        if !buf.fits(self.graph) {
            return Err(RuntimeError::ForeignBuffer);
        }
        // Validate the whole activation list before touching the buffer.
        for &v in active {
            if v.index() >= self.graph.num_vertices() {
                return Err(RuntimeError::VertexOutOfRange {
                    vertex: v.index(),
                    num_vertices: self.graph.num_vertices(),
                });
            }
        }
        buf.begin_round();
        let mut messages = 0u64;
        for &v in active {
            let mut failed = None;
            self.graph.for_each_port(v, |u, e| {
                if failed.is_some() {
                    return;
                }
                // lint: allow(cast, "ports are stored as u32 pairs, so the incident port fits u32")
                let their_port = self.port_of_incident(u, e) as u32;
                match buf.push(u, their_port, &values[v.index()]) {
                    Ok(()) => messages += 1,
                    Err(err) => failed = Some(err),
                }
            });
            if let Some(err) = failed {
                // Do not leave a partially delivered round readable.
                buf.begin_round();
                return Err(err);
            }
        }
        self.stats = self.stats.then(round_cost::<M>(messages));
        Ok(())
    }

    /// What one [`Network::broadcast_into`] of `M` values adds to the
    /// ledger: one round and one `size_of::<M>()`-byte message per
    /// (vertex, port) pair. Pipelines that realize a broadcast by reading
    /// a shared table in place charge this with
    /// [`Network::absorb_sequential`], so their ledger matches the
    /// materialized exchange bit for bit.
    pub fn broadcast_cost<M>(&self) -> NetworkStats {
        let messages = (0..self.graph.num_vertices())
            .map(|v| num::to_u64(self.graph.degree(VertexId::new(v))))
            .sum();
        round_cost::<M>(messages)
    }

    /// Charges `rounds` of *local restructuring* to the ledger without
    /// exchanging messages — the paper's "performed in O(1) rounds"
    /// bookkeeping for connector constructions and virtual-vertex setup.
    pub fn charge_local_rounds(&mut self, rounds: u64) {
        self.stats.rounds += rounds;
    }

    /// Absorbs statistics of networks run *in parallel on disjoint
    /// subgraphs* (rounds: max; messages/payload: sum).
    pub fn absorb_parallel(&mut self, phases: impl IntoIterator<Item = NetworkStats>) {
        self.stats = self.stats.then(NetworkStats::in_parallel(phases));
    }

    /// Absorbs statistics of a network run *sequentially after* the work
    /// recorded so far.
    pub fn absorb_sequential(&mut self, phase: NetworkStats) {
        self.stats = self.stats.then(phase);
    }
}

/// The ledger charge of one round delivering `messages` values of type `M`.
fn round_cost<M>(messages: u64) -> NetworkStats {
    NetworkStats {
        rounds: 1,
        messages,
        payload_bytes: messages * num::to_u64(std::mem::size_of::<M>()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decolor_graph::builder_from_edges;

    fn p3() -> Graph {
        builder_from_edges(3, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn ports_are_mutually_consistent() {
        let g = decolor_graph::generators::gnm(30, 90, 4).unwrap();
        let net = Network::new(&g);
        for (e, [u, v]) in g.edge_list() {
            let pu = net.port_of(u, e).unwrap();
            let pv = net.port_of(v, e).unwrap();
            assert_eq!(g.incidence(u)[pu], (v, e));
            assert_eq!(g.incidence(v)[pv], (u, e));
        }
    }

    #[test]
    fn port_of_rejects_malformed_queries() {
        let g = p3();
        let net = Network::new(&g);
        assert_eq!(
            net.port_of(VertexId::new(2), EdgeId::new(0)),
            Err(RuntimeError::NotAnEndpoint {
                vertex: VertexId::new(2),
                edge: EdgeId::new(0)
            })
        );
        assert_eq!(
            net.port_of(VertexId::new(0), EdgeId::new(9)),
            Err(RuntimeError::EdgeOutOfRange {
                edge: 9,
                num_edges: 2
            })
        );
    }

    #[test]
    fn broadcast_delivers_neighbor_values_in_port_order() {
        let g = p3();
        let mut net = Network::new(&g);
        let vals = vec![10u32, 20, 30];
        let inbox = net.broadcast(&vals).unwrap();
        assert_eq!(inbox[0], vec![20]);
        assert_eq!(inbox[1], vec![10, 30]);
        assert_eq!(inbox[2], vec![20]);
        assert_eq!(net.stats().rounds, 1);
        assert_eq!(net.stats().messages, 4); // 2 per edge
    }

    #[test]
    fn exchange_point_to_point() {
        let g = p3();
        let mut net = Network::new(&g);
        // Vertex 1 sends distinct messages to each neighbor.
        let outbox: Vec<Vec<(usize, u64)>> = vec![vec![], vec![(0, 100), (1, 200)], vec![]];
        let inbox = net.exchange(&outbox).unwrap();
        assert_eq!(inbox[0], vec![(0, 100)]);
        assert_eq!(inbox[2], vec![(0, 200)]);
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn exchange_reports_port_out_of_range() {
        let g = p3();
        let mut net = Network::new(&g);
        let outbox: Vec<Vec<(usize, u64)>> = vec![vec![(5, 1)], vec![], vec![]];
        assert_eq!(
            net.exchange(&outbox),
            Err(RuntimeError::PortOutOfRange {
                vertex: VertexId::new(0),
                port: 5,
                degree: 1
            })
        );
        // Failed rounds are not charged.
        assert_eq!(net.stats(), NetworkStats::default());
    }

    #[test]
    fn failed_round_leaves_the_buffer_empty() {
        let g = p3();
        let mut net = Network::new(&g);
        let mut buf = net.make_buffer();
        // A good round first, so stale data exists to destroy.
        net.broadcast_into(&[7u32, 8, 9], &mut buf).unwrap();
        assert_eq!(buf.received(VertexId::new(1)), 2);
        // Vertex 1 sends a valid message, then vertex 2 a bad port: the
        // partial delivery must not be readable afterwards.
        let outbox: Vec<Vec<(usize, u32)>> = vec![vec![], vec![(0, 1)], vec![(9, 2)]];
        assert!(net.exchange_into(&outbox, &mut buf).is_err());
        for v in g.vertices() {
            assert_eq!(buf.received(v), 0, "{v} read a half-delivered round");
        }
    }

    #[test]
    fn local_rounds_are_charged() {
        let g = p3();
        let mut net = Network::new(&g);
        net.charge_local_rounds(3);
        assert_eq!(net.stats().rounds, 3);
        assert_eq!(net.stats().messages, 0);
    }

    #[test]
    fn absorb_compositions() {
        let g = p3();
        let mut net = Network::new(&g);
        net.absorb_parallel([
            NetworkStats {
                rounds: 5,
                messages: 1,
                payload_bytes: 4,
            },
            NetworkStats {
                rounds: 2,
                messages: 1,
                payload_bytes: 4,
            },
        ]);
        assert_eq!(net.stats().rounds, 5);
        assert_eq!(net.stats().messages, 2);
        net.absorb_sequential(NetworkStats {
            rounds: 1,
            messages: 0,
            payload_bytes: 0,
        });
        assert_eq!(net.stats().rounds, 6);
    }

    #[test]
    fn exchange_shape_is_validated() {
        let g = p3();
        let mut net = Network::new(&g);
        assert_eq!(
            net.exchange::<u32>(&[vec![]]),
            Err(RuntimeError::ShapeMismatch {
                what: "outbox",
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn broadcast_into_reuses_one_buffer_across_rounds() {
        let g = p3();
        let mut net = Network::new(&g);
        let mut buf = net.make_buffer();
        for round in 0..3u32 {
            let vals = vec![10 + round, 20 + round, 30 + round];
            net.broadcast_into(&vals, &mut buf).unwrap();
            let mid: Vec<u32> = buf.row(VertexId::new(1)).copied().collect();
            assert_eq!(mid, vec![10 + round, 30 + round]);
            assert_eq!(buf.received(VertexId::new(0)), 1);
        }
        assert_eq!(net.stats().rounds, 3);
        assert_eq!(net.stats().messages, 12);
    }

    #[test]
    fn exchange_into_matches_exchange() {
        let g = decolor_graph::generators::gnm(20, 60, 9).unwrap();
        let mut net = Network::new(&g);
        let outbox: Vec<Vec<(usize, u64)>> = g
            .vertices()
            .map(|v| {
                (0..g.degree(v))
                    .step_by(2)
                    .map(|p| (p, (v.index() * 100 + p) as u64))
                    .collect()
            })
            .collect();
        let legacy = net.exchange(&outbox).unwrap();
        let legacy_stats = net.stats();
        net.reset_stats();
        let mut buf = net.make_buffer();
        net.exchange_into(&outbox, &mut buf).unwrap();
        for v in g.vertices() {
            let flat: Vec<(usize, u64)> = buf.inbox(v).map(|(p, &m)| (p, m)).collect();
            assert_eq!(flat, legacy[v.index()]);
        }
        assert_eq!(net.stats(), legacy_stats);
    }

    #[test]
    fn foreign_buffer_is_rejected() {
        let g = p3();
        let other = decolor_graph::builder_from_edges(3, &[(0, 1)]).unwrap();
        let mut net = Network::new(&g);
        let mut buf = RoundBuffer::<u32>::new(&other);
        assert_eq!(
            net.broadcast_into(&[1, 2, 3], &mut buf),
            Err(RuntimeError::ForeignBuffer)
        );
    }

    #[test]
    fn broadcast_on_active_restricts_senders() {
        let g = p3();
        let mut net = Network::new(&g);
        let mut buf = net.make_buffer();
        // Only vertex 0 is active: vertex 1 hears one message, vertex 2
        // none, and vertex 0 itself hears nothing (its neighbor is
        // silent).
        net.broadcast_on_active_into(&[5u32, 6, 7], &[VertexId::new(0)], &mut buf)
            .unwrap();
        assert_eq!(buf.received(VertexId::new(0)), 0);
        assert_eq!(buf.received(VertexId::new(1)), 1);
        assert_eq!(buf.received(VertexId::new(2)), 0);
        assert_eq!(
            buf.inbox(VertexId::new(1))
                .map(|(p, &m)| (p, m))
                .collect::<Vec<_>>(),
            vec![(0, 5)]
        );
        assert_eq!(net.stats().rounds, 1);
        assert_eq!(net.stats().messages, 1);

        // All vertices active == a plain broadcast inbox (port-order may
        // differ from sender order, but the multiset per vertex matches).
        let all: Vec<VertexId> = g.vertices().collect();
        net.broadcast_on_active_into(&[5u32, 6, 7], &all, &mut buf)
            .unwrap();
        assert_eq!(buf.received(VertexId::new(1)), 2);
        assert_eq!(net.stats().messages, 1 + 4);
    }

    #[test]
    fn broadcast_on_active_validates_vertices() {
        let g = p3();
        let mut net = Network::new(&g);
        let mut buf = net.make_buffer();
        assert_eq!(
            net.broadcast_on_active_into(&[1u8, 2, 3], &[VertexId::new(9)], &mut buf),
            Err(RuntimeError::VertexOutOfRange {
                vertex: 9,
                num_vertices: 3
            })
        );
    }

    #[test]
    fn reset_stats_keeps_port_table() {
        let g = p3();
        let mut net = Network::new(&g);
        let _ = net.broadcast(&[1u8, 2, 3]).unwrap();
        assert_eq!(net.stats().rounds, 1);
        net.reset_stats();
        assert_eq!(net.stats(), NetworkStats::default());
        assert_eq!(net.port_of(VertexId::new(0), EdgeId::new(0)).unwrap(), 0);
    }
}
