//! Centralized adaptive routing schedules (paper Definition 14).
//!
//! An *adaptive routing schedule* is a sequence of functions — one per
//! round — that sees (i) the entire topology and (ii) every tuple
//! `(u, i)` such that node `u` has received message `m_i` so far, and
//! outputs for each node either *stay silent* or *broadcast a message
//! the node knows*. This is deliberately stronger than any distributed
//! routing algorithm (real algorithms get far less feedback), which
//! makes routing *lower bounds* proved against it — and measured
//! against it here — meaningful.
//!
//! A [`RoutingController`] states a round sparsely: it pushes one
//! `(node, message)` send per broadcasting node into a buffer the
//! runner reuses, and every node it does not name stays silent. The
//! runner enforces the routing semantics of §3.1 — a send of a message
//! the node has not received leaves the node silent — and resolves the
//! round through the shared collision kernel, [`crate::Resolver`], so
//! a round costs time in the broadcasters' degrees, not in `n`.
//! [`Knowledge`] tracks how many nodes hold each message, which makes
//! the completion test and [`Knowledge::lowest_incomplete`] O(1).

use netgraph::{Bitset, Graph, NodeId};
use radio_obs::{PhaseSet, SpanTimer};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::rng::fork_rng;
use crate::{BitMatrix, Channel, ModelError, Resolver};

/// Index of one of the `k` broadcast messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u32);

impl MsgId {
    /// The message index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The global knowledge state: `knows(v, i)` iff node `v` has message
/// `i`. This is exactly the information an adaptive routing schedule
/// is allowed to consult (Definition 14).
#[derive(Debug, Clone)]
pub struct Knowledge {
    matrix: BitMatrix,
    /// `holders[i]`: how many nodes know message `i`.
    holders: Vec<usize>,
    /// The lowest message some node still misses (`k` once none is).
    /// Holder counts only grow, so it only moves forward.
    lowest_incomplete: usize,
}

impl Knowledge {
    /// Creates an empty knowledge state for `n` nodes and `k` messages.
    pub fn new(n: usize, k: usize) -> Self {
        Knowledge {
            matrix: BitMatrix::new(n, k),
            holders: vec![0; k],
            // With no nodes, every message is trivially complete.
            lowest_incomplete: if n == 0 { k } else { 0 },
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.matrix.rows()
    }

    /// Number of messages `k`.
    pub fn message_count(&self) -> usize {
        self.matrix.cols()
    }

    /// Grants message `m` to node `v`. Returns whether this was new.
    ///
    /// # Panics
    ///
    /// If `v` or `m` is out of range.
    pub fn grant(&mut self, v: NodeId, m: MsgId) -> bool {
        self.grant_if(v, m, true)
    }

    /// [`Knowledge::grant`] iff `ok`, without branching on `ok` (a
    /// loss draw is a coin flip the branch predictor cannot learn).
    #[inline(always)]
    fn grant_if(&mut self, v: NodeId, m: MsgId, ok: bool) -> bool {
        let i = m.index();
        assert!(
            v.index() < self.node_count() && i < self.message_count(),
            "grant ({v}, m{i}) out of range"
        );
        let fresh = self.matrix.set_if(v.index(), i, ok);
        self.holders[i] += usize::from(fresh);
        // No test of `fresh` here: it follows a loss draw, and a branch
        // on it would mispredict half the time.
        if self.holders[i] == self.node_count() {
            self.advance_cursor();
        }
        fresh
    }

    /// Moves the lowest-incomplete cursor past completed messages.
    #[cold]
    fn advance_cursor(&mut self) {
        while self.lowest_incomplete < self.message_count()
            && self.holders[self.lowest_incomplete] == self.node_count()
        {
            self.lowest_incomplete += 1;
        }
    }

    /// Grants all messages to `v` (the source's initial state).
    ///
    /// # Panics
    ///
    /// If `v` is out of range.
    pub fn grant_all(&mut self, v: NodeId) {
        for i in 0..self.message_count() {
            self.grant(v, MsgId(i as u32));
        }
    }

    /// Whether node `v` knows message `m` (`false` for a node or
    /// message out of range).
    pub fn knows(&self, v: NodeId, m: MsgId) -> bool {
        v.index() < self.node_count()
            && m.index() < self.message_count()
            && self.matrix.get(v.index(), m.index())
    }

    /// Number of messages `v` knows.
    pub fn known_count(&self, v: NodeId) -> usize {
        self.matrix.row_count_ones(v.index())
    }

    /// Whether `v` knows all messages.
    pub fn node_complete(&self, v: NodeId) -> bool {
        self.matrix.row_all_ones(v.index())
    }

    /// Whether every node knows every message (broadcast solved), in
    /// O(1).
    pub fn all_complete(&self) -> bool {
        self.lowest_incomplete == self.message_count()
    }

    /// The lowest message some node is still missing, if any, in O(1).
    pub fn lowest_incomplete(&self) -> Option<MsgId> {
        (!self.all_complete()).then_some(MsgId(self.lowest_incomplete as u32))
    }

    /// The smallest message index `v` is missing, if any.
    pub fn first_missing(&self, v: NodeId) -> Option<MsgId> {
        self.matrix
            .first_zero_in_row(v.index())
            .map(|c| MsgId(c as u32))
    }
}

/// A centralized adaptive routing schedule: sees the topology (however
/// it was captured at construction) and the full [`Knowledge`] each
/// round, and names the nodes that broadcast.
pub trait RoutingController {
    /// Pushes round `round`'s sends onto `sends`, one `(node, message)`
    /// pair per broadcasting node; every node not named stays silent.
    ///
    /// The runner hands `sends` over empty and reuses it across
    /// rounds. It applies the pairs in push order: a send of a message
    /// the node does not know is dropped (the node stays silent, §3.1),
    /// and of several surviving sends for one node the first wins —
    /// a node broadcasts at most once per round and is counted once.
    /// A send naming a node outside the graph fails the run with
    /// [`ModelError::SendOutOfRange`].
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        sends: &mut Vec<(NodeId, MsgId)>,
    );
}

impl<F> RoutingController for F
where
    F: FnMut(u64, &Knowledge, &mut SmallRng, &mut Vec<(NodeId, MsgId)>),
{
    fn decide(
        &mut self,
        round: u64,
        knowledge: &Knowledge,
        rng: &mut SmallRng,
        sends: &mut Vec<(NodeId, MsgId)>,
    ) {
        self(round, knowledge, rng, sends)
    }
}

/// Outcome of an adaptive-routing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingOutcome {
    /// Rounds until every node had every message, or `None` if the
    /// round budget ran out first.
    pub rounds: Option<u64>,
    /// Total broadcast actions taken (after the knows-it filter).
    pub broadcasts: u64,
    /// Total successful deliveries that granted a *new* message.
    pub fresh_deliveries: u64,
}

/// Runs a [`RoutingController`] on `graph` under `channel` until all
/// nodes know all `k` messages or `max_rounds` elapse.
///
/// `source` initially knows all `k` messages; everyone else knows
/// nothing.
///
/// Each round draws, from one fault stream, first one sender-fault
/// coin per broadcaster in ascending node order, then one delivery
/// coin per unique-sender slot whose sender did not fault, in
/// ascending listener order ([`crate::Resolver`]'s contract).
///
/// In this centralized model the controller already sees the full
/// knowledge matrix, so a lost delivery grants nothing whether the
/// channel presents it as noise or as a detected erasure —
/// [`Channel::erasure`] and [`Channel::receiver`] behave identically
/// here (and lose identical slots under the same seed).
///
/// # Errors
///
/// [`ModelError::SendOutOfRange`] if the controller names a node
/// outside the graph.
///
/// # Panics
///
/// If `source` is not a node of `graph`.
pub fn run_routing(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
) -> Result<RoutingOutcome, ModelError> {
    run_routing_inner(
        graph, channel, source, k, controller, seed, max_rounds, false,
    )
    .map(|(out, _)| out)
}

/// [`run_routing`] with per-phase wall-clock attribution: returns the
/// outcome together with a [`PhaseSet`] splitting the run between
/// `routing/decide` (the controller's decision plus the knows-it
/// filter) and `routing/resolve` (fault draws and per-listener slot
/// resolution), one call tallied per round.
///
/// Timing is observational only: the outcome is bit-identical to
/// [`run_routing`] under the same arguments.
///
/// # Errors
///
/// Same as [`run_routing`].
pub fn run_routing_telemetry(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
) -> Result<(RoutingOutcome, PhaseSet), ModelError> {
    run_routing_inner(
        graph, channel, source, k, controller, seed, max_rounds, true,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_routing_inner(
    graph: &Graph,
    channel: Channel,
    source: NodeId,
    k: usize,
    controller: &mut dyn RoutingController,
    seed: u64,
    max_rounds: u64,
    timed: bool,
) -> Result<(RoutingOutcome, PhaseSet), ModelError> {
    let n = graph.node_count();
    let mut knowledge = Knowledge::new(n, k);
    knowledge.grant_all(source);
    let mut ctrl_rng = fork_rng(seed, 0);
    let mut fault_rng = fork_rng(seed, 1);
    let sender_fault = channel.sender_fault();
    let delivery_fault = channel.delivery_fault();

    let mut outcome = RoutingOutcome {
        rounds: None,
        broadcasts: 0,
        fresh_deliveries: 0,
    };
    let mut round = 0u64;
    let mut resolver = Resolver::new(n);
    let mut sends = Vec::new();
    // This round's broadcasters, as a set for the kernel and as a
    // list for the sparse reset and the sender-fault draws.
    let mut broadcasters = Bitset::new(n);
    let mut on_air: Vec<NodeId> = Vec::new();
    // What a broadcaster delivers: `None` once its sender fault hit.
    let mut carried: Vec<Option<MsgId>> = vec![None; n];
    let mut phases = PhaseSet::new();

    while !knowledge.all_complete() {
        if round >= max_rounds {
            return Ok((outcome, phases));
        }
        let decide_timer = SpanTimer::start(timed);
        sends.clear();
        controller.decide(round, &knowledge, &mut ctrl_rng, &mut sends);
        for u in on_air.drain(..) {
            broadcasters.remove(u.index());
        }
        for &(u, m) in &sends {
            if u.index() >= n {
                return Err(ModelError::SendOutOfRange {
                    node: u.index(),
                    nodes: n,
                });
            }
            // Routing semantics: broadcasting an unknown message =
            // silence; a node's first surviving send wins.
            if !broadcasters.contains(u.index()) && knowledge.knows(u, m) {
                broadcasters.insert(u.index());
                carried[u.index()] = Some(m);
                on_air.push(u);
            }
        }
        outcome.broadcasts += on_air.len() as u64;
        if decide_timer.enabled() {
            phases.add("routing/decide", decide_timer.elapsed_nanos());
        }
        let resolve_timer = SpanTimer::start(timed);
        // Sender faults: one draw per broadcaster, ascending (composed
        // channels contribute their sender-side component).
        if let Some(p) = sender_fault {
            on_air.sort_unstable();
            for &u in &on_air {
                if fault_rng.gen_bool(p) {
                    carried[u.index()] = None;
                }
            }
        }
        for (v, u) in resolver.resolve(graph, &broadcasters) {
            if let Some(m) = carried[u.index()] {
                let lost = delivery_fault.is_some_and(|p| fault_rng.gen_bool(p));
                outcome.fresh_deliveries += u64::from(knowledge.grant_if(v, m, !lost));
            }
        }
        if resolve_timer.enabled() {
            phases.add("routing/resolve", resolve_timer.elapsed_nanos());
        }
        round += 1;
    }
    outcome.rounds = Some(round);
    Ok((outcome, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    type Sends = Vec<(NodeId, MsgId)>;

    /// Controller: the source broadcasts the lowest message some node
    /// is still missing; everyone else is silent. On a star this is
    /// the Lemma 15 schedule.
    struct SourceSweep {
        source: NodeId,
    }

    impl RoutingController for SourceSweep {
        fn decide(
            &mut self,
            _round: u64,
            knowledge: &Knowledge,
            _rng: &mut SmallRng,
            sends: &mut Sends,
        ) {
            if let Some(m) = knowledge.lowest_incomplete() {
                sends.push((self.source, m));
            }
        }
    }

    fn sweep() -> SourceSweep {
        SourceSweep {
            source: NodeId::new(0),
        }
    }

    #[test]
    fn faultless_star_takes_k_rounds() {
        let g = generators::star(10);
        let out = run_routing(
            &g,
            Channel::faultless(),
            NodeId::new(0),
            5,
            &mut sweep(),
            3,
            1000,
        )
        .unwrap();
        assert_eq!(out.rounds, Some(5));
        assert_eq!(out.broadcasts, 5);
        assert_eq!(out.fresh_deliveries, 50);
    }

    #[test]
    fn receiver_faults_need_about_log_n_rounds_per_message() {
        let n_leaves = 256;
        let g = generators::star(n_leaves);
        let fault = Channel::receiver(0.5).unwrap();
        let k = 20;
        let out = run_routing(&g, fault, NodeId::new(0), k, &mut sweep(), 3, 1_000_000).unwrap();
        let rounds = out.rounds.expect("must complete") as f64;
        let per_msg = rounds / k as f64;
        // E[rounds per message] ≈ log2(256) + O(1) = 8 + O(1).
        assert!(per_msg >= 6.0, "per-message rounds {per_msg} too small");
        assert!(per_msg <= 14.0, "per-message rounds {per_msg} too large");
    }

    #[test]
    fn unknown_message_broadcast_is_silenced() {
        // Controller tells a leaf (which knows nothing) to broadcast:
        // nothing should ever be delivered, and broadcast count stays 0.
        // A message index past k is unknown to everyone, too.
        let g = generators::star(2);
        let mut c = |_round: u64, _k: &Knowledge, _rng: &mut SmallRng, sends: &mut Sends| {
            sends.push((NodeId::new(1), MsgId(0)));
            sends.push((NodeId::new(0), MsgId(7)));
        };
        let out = run_routing(&g, Channel::faultless(), NodeId::new(0), 1, &mut c, 0, 10).unwrap();
        assert_eq!(out.rounds, None);
        assert_eq!(out.broadcasts, 0);
    }

    #[test]
    fn send_from_missing_node_is_an_error() {
        let g = generators::star(2);
        let mut c = |_round: u64, _k: &Knowledge, _rng: &mut SmallRng, sends: &mut Sends| {
            sends.push((NodeId::new(0), MsgId(0)));
            sends.push((NodeId::new(3), MsgId(0)));
        };
        let err =
            run_routing(&g, Channel::faultless(), NodeId::new(0), 1, &mut c, 0, 10).unwrap_err();
        assert_eq!(err, ModelError::SendOutOfRange { node: 3, nodes: 3 });
        assert_eq!(
            err.to_string(),
            "controller scheduled a send from node 3 in a graph of 3 nodes"
        );
        // Far past the end, and in a graph with no nodes at all.
        let mut far = |_round: u64, _k: &Knowledge, _rng: &mut SmallRng, sends: &mut Sends| {
            sends.push((NodeId::new(u32::MAX), MsgId(0)));
        };
        let empty = Graph::from_edges(0, []).unwrap();
        let out = run_routing(
            &empty,
            Channel::faultless(),
            NodeId::new(0),
            0,
            &mut far,
            0,
            10,
        );
        assert_eq!(out.unwrap().rounds, Some(0), "nothing to do, no decide");
        let err =
            run_routing(&g, Channel::faultless(), NodeId::new(0), 1, &mut far, 0, 10).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "controller scheduled a send from node {} in a graph of 3 nodes",
                u32::MAX
            )
        );
    }

    #[test]
    fn duplicate_sends_first_surviving_send_wins() {
        // Source knows m0 and m1 of k = 2. Round 0 names the source
        // three times: an unknown message (dropped), then m1 (wins),
        // then m0 (ignored). One broadcast, m1 delivered to both
        // leaves; round 1 sends m0 once.
        let g = generators::star(2);
        let mut c = |round: u64, k: &Knowledge, _rng: &mut SmallRng, sends: &mut Sends| {
            let src = NodeId::new(0);
            if round == 0 {
                sends.extend([(src, MsgId(9)), (src, MsgId(1)), (src, MsgId(0))]);
            } else {
                sends.push((src, k.lowest_incomplete().unwrap()));
            }
        };
        let out = run_routing(&g, Channel::faultless(), NodeId::new(0), 2, &mut c, 0, 10).unwrap();
        assert_eq!(
            out,
            RoutingOutcome {
                rounds: Some(2),
                broadcasts: 2,
                fresh_deliveries: 4,
            }
        );
    }

    #[test]
    fn collision_between_two_senders_blocks_delivery() {
        // Diamond 0-{1,2}-3: round 0 the source informs 1 and 2. After
        // that, 1 and 2 broadcasting together collide at 3 forever;
        // node 1 alone informs it.
        let g = Graph::from_edges(
            4,
            [(0, 1), (0, 2), (1, 3), (2, 3)].map(|(a, b)| (NodeId::new(a), NodeId::new(b))),
        )
        .unwrap();
        for (both, expected) in [(true, None), (false, Some(2))] {
            let mut c = |round: u64, _k: &Knowledge, _rng: &mut SmallRng, sends: &mut Sends| {
                let m = MsgId(0);
                if round == 0 {
                    sends.push((NodeId::new(0), m));
                } else {
                    sends.push((NodeId::new(1), m));
                    if both {
                        sends.push((NodeId::new(2), m));
                    }
                }
            };
            let out =
                run_routing(&g, Channel::faultless(), NodeId::new(0), 1, &mut c, 0, 10).unwrap();
            assert_eq!(out.rounds, expected, "both = {both}");
            assert_eq!(out.fresh_deliveries, if both { 2 } else { 3 });
        }
    }

    #[test]
    fn knowledge_bookkeeping() {
        let mut k = Knowledge::new(3, 4);
        assert_eq!(k.node_count(), 3);
        assert_eq!(k.message_count(), 4);
        k.grant_all(NodeId::new(0));
        assert!(k.node_complete(NodeId::new(0)));
        assert!(!k.all_complete());
        assert!(k.grant(NodeId::new(1), MsgId(2)));
        assert!(!k.grant(NodeId::new(1), MsgId(2)), "regrant is not fresh");
        assert_eq!(k.known_count(NodeId::new(1)), 1);
        assert_eq!(k.first_missing(NodeId::new(1)), Some(MsgId(0)));
        assert_eq!(k.first_missing(NodeId::new(0)), None);
        assert!(!k.knows(NodeId::new(3), MsgId(0)), "node out of range");
        assert!(!k.knows(NodeId::new(0), MsgId(4)), "message out of range");
    }

    #[test]
    fn lowest_incomplete_cursor_skips_completed_messages() {
        let mut k = Knowledge::new(2, 3);
        assert_eq!(k.lowest_incomplete(), Some(MsgId(0)));
        // Completing m1 first leaves the cursor on m0 ...
        k.grant(NodeId::new(0), MsgId(1));
        k.grant(NodeId::new(1), MsgId(1));
        assert_eq!(k.lowest_incomplete(), Some(MsgId(0)));
        // ... and completing m0 jumps it past m1 to m2.
        k.grant_all(NodeId::new(0));
        k.grant(NodeId::new(1), MsgId(0));
        assert_eq!(k.lowest_incomplete(), Some(MsgId(2)));
        k.grant(NodeId::new(1), MsgId(2));
        assert_eq!(k.lowest_incomplete(), None);
        assert!(k.all_complete());
        // With no nodes, every message is complete from the start.
        assert!(Knowledge::new(0, 5).all_complete());
    }

    #[test]
    fn sender_faults_slow_single_link() {
        let g = generators::single_link();
        let fault = Channel::sender(0.5).unwrap();
        let k = 64;
        let out = run_routing(&g, fault, NodeId::new(0), k, &mut sweep(), 9, 100_000).unwrap();
        let rounds = out.rounds.unwrap();
        // Each message takes Geom(1/2) rounds: expect ~2k total, far
        // more than k but far less than 10k.
        assert!(rounds > k as u64, "rounds {rounds} should exceed k={k}");
        assert!(rounds < 6 * k as u64, "rounds {rounds} unexpectedly large");
    }

    #[test]
    fn zero_messages_complete_immediately() {
        let g = generators::single_link();
        let out = run_routing(
            &g,
            Channel::faultless(),
            NodeId::new(0),
            0,
            &mut sweep(),
            0,
            10,
        )
        .unwrap();
        assert_eq!(out.rounds, Some(0));
    }
}
