//! An independent oracle for the collision kernel, the adaptive
//! routing runner and the Lemma 25–26 transforms.
//!
//! `naive` is written straight from the model definition (paper §2):
//! every round scans every node, lists its broadcasting neighbours
//! from an adjacency matrix, and delivers iff there is exactly one.
//! It uses no bitsets, no sparsity and nothing from the code under
//! test; the only things shared are the input topology (as an edge
//! list) and the seeded random streams that fix each run's draw order
//! (`fork_rng(seed, 1)` for routing, `0x25` / `0x26` for the two
//! transforms; one coin per broadcaster in node order, then one per
//! delivery in listener order).

use std::collections::HashMap;

use netgraph::{generators, Bitset, Graph, NodeId};
use noisy_radio_core::transform::{
    BaseSchedule, CodingFaultTransform, SenderFaultRoutingTransform,
};
use proptest::prelude::*;
use radio_model::adaptive::{run_routing, Knowledge, MsgId, RoutingOutcome};
use radio_model::{fork_rng, Channel, ModelError, Resolver};
use rand::rngs::SmallRng;
use rand::Rng;

mod naive {
    use super::*;

    /// `adj[v][u]` iff `{u, v}` is an edge.
    pub type Adj = Vec<Vec<bool>>;

    /// The channel as its two loss probabilities.
    #[derive(Debug, Clone, Copy)]
    pub struct Loss {
        /// Per broadcaster per round.
        pub sender: Option<f64>,
        /// Per would-be delivery.
        pub delivery: Option<f64>,
    }

    pub fn adjacency(n: usize, edges: &[(usize, usize)]) -> Adj {
        let mut adj = vec![vec![false; n]; n];
        for &(u, v) in edges {
            adj[u][v] = true;
            adj[v][u] = true;
        }
        adj
    }

    /// Every listening node with exactly one broadcasting neighbour, as
    /// `(listener, sender)`, by listener.
    pub fn unique_senders(adj: &Adj, sending: &[bool]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for v in 0..adj.len() {
            if sending[v] {
                continue;
            }
            let heard: Vec<usize> = (0..adj.len())
                .filter(|&u| adj[v][u] && sending[u])
                .collect();
            if heard.len() == 1 {
                out.push((v, heard[0]));
            }
        }
        out
    }

    /// One coin per broadcaster, in node order.
    fn sender_faults(rng: &mut SmallRng, loss: Loss, sending: &[bool]) -> Vec<bool> {
        let mut faulted = vec![false; sending.len()];
        if let Some(p) = loss.sender {
            for v in 0..sending.len() {
                if sending[v] {
                    faulted[v] = rng.gen_bool(p);
                }
            }
        }
        faulted
    }

    fn lost(rng: &mut SmallRng, loss: Loss) -> bool {
        loss.delivery.is_some_and(|p| rng.gen_bool(p))
    }

    pub enum Controller<'a> {
        /// Round `r` sends `script[r]`, in that order.
        Script(&'a [Vec<(u32, u32)>]),
        /// The source sends the lowest message some node misses.
        LowestIncomplete(usize),
    }

    /// Definition 14 routing: `Ok((rounds, broadcasts, fresh))`, or
    /// `Err((node, n))` for a send from a node outside the graph.
    #[allow(clippy::type_complexity)]
    pub fn routing(
        adj: &Adj,
        loss: Loss,
        source: usize,
        k: usize,
        controller: &Controller,
        seed: u64,
        max_rounds: u64,
    ) -> Result<(Option<u64>, u64, u64), (usize, usize)> {
        let n = adj.len();
        let mut knows = vec![vec![false; k]; n];
        knows[source] = vec![true; k];
        let mut rng = fork_rng(seed, 1);
        let (mut broadcasts, mut fresh) = (0, 0);
        let mut round = 0;
        loop {
            if knows.iter().all(|row| row.iter().all(|&b| b)) {
                return Ok((Some(round), broadcasts, fresh));
            }
            if round >= max_rounds {
                return Ok((None, broadcasts, fresh));
            }
            let sends: Vec<(usize, usize)> = match controller {
                Controller::Script(script) => script
                    .get(round as usize)
                    .map(|s| s.iter().map(|&(u, m)| (u as usize, m as usize)).collect())
                    .unwrap_or_default(),
                Controller::LowestIncomplete(source) => (0..k)
                    .find(|&m| knows.iter().any(|row| !row[m]))
                    .map(|m| (*source, m))
                    .into_iter()
                    .collect(),
            };
            let mut msg = vec![None; n];
            for (u, m) in sends {
                if u >= n {
                    return Err((u, n));
                }
                if msg[u].is_none() && m < k && knows[u][m] {
                    msg[u] = Some(m);
                    broadcasts += 1;
                }
            }
            let sending: Vec<bool> = msg.iter().map(Option::is_some).collect();
            let faulted = sender_faults(&mut rng, loss, &sending);
            for (v, u) in unique_senders(adj, &sending) {
                if faulted[u] || lost(&mut rng, loss) {
                    continue;
                }
                let m = msg[u].unwrap();
                if !knows[v][m] {
                    knows[v][m] = true;
                    fresh += 1;
                }
            }
            round += 1;
        }
    }

    /// The faultless run of a base schedule: `(complete, deliveries)`
    /// with one `(round, sender, receiver)` per fresh delivery.
    pub fn faultless(
        adj: &Adj,
        actions: &[Vec<Option<usize>>],
        k: usize,
        source: usize,
    ) -> (bool, Vec<(u64, usize, usize)>) {
        let n = adj.len();
        let mut knows = vec![vec![false; k]; n];
        knows[source] = vec![true; k];
        let mut deliveries = Vec::new();
        for (r, row) in actions.iter().enumerate() {
            let msg: Vec<Option<usize>> = (0..n).map(|v| row[v].filter(|&m| knows[v][m])).collect();
            let sending: Vec<bool> = msg.iter().map(Option::is_some).collect();
            for (v, u) in unique_senders(adj, &sending) {
                let m = msg[u].unwrap();
                if !knows[v][m] {
                    knows[v][m] = true;
                    deliveries.push((r as u64, u, v));
                }
            }
        }
        (knows.iter().flatten().all(|&b| b), deliveries)
    }

    /// Lemma 25: success of the sender-fault routing transform.
    #[allow(clippy::too_many_arguments)]
    pub fn routing_transform(
        adj: &Adj,
        actions: &[Vec<Option<usize>>],
        k: usize,
        source: usize,
        x: usize,
        meta_len: u64,
        p: f64,
        seed: u64,
    ) -> bool {
        let n = adj.len();
        let mut knows = vec![vec![false; k * x]; n];
        knows[source] = vec![true; k * x];
        let mut rng = fork_rng(seed, 0x25);
        let loss = Loss {
            sender: Some(p),
            delivery: None,
        };
        for row in actions {
            // Each base broadcaster's group, lowest message first.
            let mut queues: Vec<Vec<usize>> = (0..n)
                .map(|v| match row[v] {
                    Some(i) => (i * x..(i + 1) * x).filter(|&m| knows[v][m]).collect(),
                    None => Vec::new(),
                })
                .collect();
            for _ in 0..meta_len {
                let msg: Vec<Option<usize>> = queues.iter().map(|q| q.first().copied()).collect();
                let sending: Vec<bool> = msg.iter().map(Option::is_some).collect();
                let faulted = sender_faults(&mut rng, loss, &sending);
                for (v, u) in unique_senders(adj, &sending) {
                    if !faulted[u] {
                        knows[v][msg[u].unwrap()] = true;
                    }
                }
                for v in 0..n {
                    if sending[v] && !faulted[v] {
                        queues[v].remove(0);
                    }
                }
            }
        }
        knows.iter().flatten().all(|&b| b)
    }

    /// Lemma 26: success of the coding transform — every base delivery
    /// `(r, u → v)` gets at least `x` of `u`'s packets in meta-round `r`.
    pub fn coding_transform(
        adj: &Adj,
        actions: &[Vec<Option<usize>>],
        deliveries: &[(u64, usize, usize)],
        x: u64,
        meta_len: u64,
        loss: Loss,
        seed: u64,
    ) -> bool {
        let mut received: HashMap<(u64, usize, usize), u64> =
            deliveries.iter().map(|&d| (d, 0)).collect();
        let mut rng = fork_rng(seed, 0x26);
        for (r, row) in actions.iter().enumerate() {
            let sending: Vec<bool> = row.iter().map(Option::is_some).collect();
            for _ in 0..meta_len {
                let faulted = sender_faults(&mut rng, loss, &sending);
                for (v, u) in unique_senders(adj, &sending) {
                    if faulted[u] || lost(&mut rng, loss) {
                        continue;
                    }
                    if let Some(c) = received.get_mut(&(r as u64, u, v)) {
                        *c += 1;
                    }
                }
            }
        }
        received.values().all(|&c| c >= x)
    }
}

use naive::{Adj, Loss};

/// A topology under test: the graph, built by the library, and the
/// same edges as the oracle's adjacency matrix.
struct Topology {
    graph: Graph,
    adj: Adj,
}

/// `kind` 0 = random (edge density from `seed`), 1 = star, 2 = path.
fn topology(kind: u8, n: usize, seed: u64) -> Topology {
    let (graph, edges): (Graph, Vec<(usize, usize)>) = match kind {
        0 => {
            let mut rng = fork_rng(seed, 7);
            let density = rng.gen_range(0.05..0.6);
            let edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|_| rng.gen_bool(density))
                .collect();
            let graph = Graph::from_edges(
                n,
                edges
                    .iter()
                    .map(|&(u, v)| (NodeId::from_index(u), NodeId::from_index(v))),
            )
            .unwrap();
            (graph, edges)
        }
        1 => (generators::star(n - 1), (1..n).map(|v| (0, v)).collect()),
        _ => (generators::path(n), (1..n).map(|v| (v - 1, v)).collect()),
    };
    let adj = naive::adjacency(n, &edges);
    Topology { graph, adj }
}

/// `kind` 0 = faultless, 1 = sender(p), 2 = receiver(p),
/// 3 = erasure(p), 4 = sender(p)+erasure(q).
fn channel(kind: u8, p: f64, q: f64) -> (Channel, Loss) {
    let loss = |sender, delivery| Loss { sender, delivery };
    match kind {
        0 => (Channel::faultless(), loss(None, None)),
        1 => (Channel::sender(p).unwrap(), loss(Some(p), None)),
        2 => (Channel::receiver(p).unwrap(), loss(None, Some(p))),
        3 => (Channel::erasure(p).unwrap(), loss(None, Some(p))),
        _ => {
            let c = Channel::sender(p)
                .unwrap()
                .compose(Channel::erasure(q).unwrap())
                .unwrap();
            (c, loss(Some(p), Some(q)))
        }
    }
}

/// A random send script: per round, sends from random nodes (some
/// outside the graph when `allow_bad`), often from the source, with
/// random messages (some past `k`), in random order with repeats.
fn script(n: usize, k: usize, rounds: usize, seed: u64, allow_bad: bool) -> Vec<Vec<(u32, u32)>> {
    let mut rng = fork_rng(seed, 11);
    (0..rounds)
        .map(|_| {
            let sends = rng.gen_range(0..4usize.min(n) + 1);
            (0..sends)
                .map(|_| {
                    let node = if rng.gen_bool(0.3) {
                        0
                    } else if allow_bad && rng.gen_bool(0.02) {
                        (n + rng.gen_range(0..3usize)) as u32
                    } else {
                        rng.gen_range(0..n) as u32
                    };
                    (node, rng.gen_range(0..k + 1) as u32)
                })
                .collect()
        })
        .collect()
}

fn outcome(o: RoutingOutcome) -> (Option<u64>, u64, u64) {
    (o.rounds, o.broadcasts, o.fresh_deliveries)
}

/// A random base schedule: each node sends a random message with
/// probability 1/3 per round.
fn random_base(n: usize, k: usize, rounds: usize, seed: u64) -> BaseSchedule {
    let mut rng = fork_rng(seed, 13);
    let actions = (0..rounds)
        .map(|_| {
            (0..n)
                .map(|_| rng.gen_bool(0.33).then(|| rng.gen_range(0..k)))
                .collect()
        })
        .collect();
    BaseSchedule { k, actions }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The kernel yields exactly the oracle's unique-sender slots, in
    /// listener order, round after round on one reused kernel.
    #[test]
    fn kernel_matches_naive_rule(
        (kind, n) in (0u8..3, 2usize..150), seed in any::<u64>(), density in 0.0..0.5f64,
    ) {
        let t = topology(kind, n, seed);
        let mut rng = fork_rng(seed, 17);
        let mut resolver = Resolver::new(n);
        for _ in 0..6 {
            let sending: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
            let mut broadcasters = Bitset::new(n);
            for v in (0..n).filter(|&v| sending[v]) {
                broadcasters.insert(v);
            }
            let got: Vec<(usize, usize)> = resolver
                .resolve(&t.graph, &broadcasters)
                .map(|(v, u)| (v.index(), u.index()))
                .collect();
            prop_assert_eq!(got, naive::unique_senders(&t.adj, &sending));
        }
    }

    /// `run_routing` with a scripted controller (unknown messages,
    /// repeated and out-of-range nodes) matches the oracle run, error
    /// included.
    #[test]
    fn scripted_routing_matches_naive(
        (kind, n, k) in (0u8..3, 2usize..24, 1usize..5), seed in any::<u64>(),
        (ch, p, q) in (0u8..5, 0.0..0.7f64, 0.0..0.7f64),
    ) {
        let t = topology(kind, n, seed);
        let (channel, loss) = channel(ch, p, q);
        let script = script(n, k, 40, seed, true);
        let expected = naive::routing(
            &t.adj, loss, 0, k, &naive::Controller::Script(&script), seed, 40,
        );
        let mut controller =
            |round: u64, _: &Knowledge, _: &mut SmallRng, sends: &mut Vec<(NodeId, MsgId)>| {
                if let Some(s) = script.get(round as usize) {
                    sends.extend(s.iter().map(|&(u, m)| (NodeId::new(u), MsgId(m))));
                }
            };
        let got = run_routing(&t.graph, channel, NodeId::new(0), k, &mut controller, seed, 40);
        match expected {
            Ok(want) => prop_assert_eq!(outcome(got.unwrap()), want),
            Err((node, nodes)) => {
                prop_assert_eq!(got.unwrap_err(), ModelError::SendOutOfRange { node, nodes })
            }
        }
    }

    /// The Lemma 15 source schedule through `run_routing` matches the
    /// oracle under every channel.
    #[test]
    fn source_routing_matches_naive(
        (kind, n, k) in (0u8..3, 2usize..40, 1usize..6), seed in any::<u64>(),
        (ch, p, q) in (0u8..5, 0.0..0.7f64, 0.0..0.7f64),
    ) {
        let t = topology(kind, n, seed);
        let (channel, loss) = channel(ch, p, q);
        let expected = naive::routing(
            &t.adj, loss, 0, k, &naive::Controller::LowestIncomplete(0), seed, 80,
        );
        let mut controller = noisy_radio_core::schedules::SequentialSourceController {
            source: NodeId::new(0),
        };
        let got = run_routing(&t.graph, channel, NodeId::new(0), k, &mut controller, seed, 80);
        prop_assert_eq!(outcome(got.unwrap()), expected.unwrap());
    }

    /// The faultless trace and the Lemma 25 sender-fault routing
    /// transform match the oracle on pipelined paths, stars and random
    /// bases.
    #[test]
    fn routing_transform_matches_naive(
        (kind, n, k) in (0u8..3, 2usize..16, 1usize..4), seed in any::<u64>(),
        (x, eta, p) in (1usize..6, 0.05..0.8f64, 0.0..0.7f64),
    ) {
        let t = topology(kind, n, seed);
        let base = match kind {
            0 => random_base(n, k, 12, seed),
            1 => BaseSchedule::star(n - 1, k),
            _ => BaseSchedule::path_pipelined(n, k),
        };
        let trace = base.validate_faultless(&t.graph, NodeId::new(0)).unwrap();
        let (complete, deliveries) = naive::faultless(&t.adj, &base.actions, k, 0);
        prop_assert_eq!(trace.complete, complete);
        let got: Vec<(u64, usize, usize)> = trace
            .deliveries
            .iter()
            .map(|&(r, u, v)| (r, u.index(), v.index()))
            .collect();
        prop_assert_eq!(got, deliveries);

        let transform = SenderFaultRoutingTransform { group_size: x, eta };
        let run = transform.run(&t.graph, &base, NodeId::new(0), p, seed).unwrap();
        let meta_len = (x as f64 * (1.0 + eta) / (1.0 - p)).ceil() as u64;
        prop_assert_eq!(run.total_rounds, meta_len * base.actions.len() as u64);
        prop_assert_eq!(run.messages, (k * x) as u64);
        prop_assert_eq!(
            run.success,
            naive::routing_transform(&t.adj, &base.actions, k, 0, x, meta_len, p, seed)
        );
    }

    /// The Lemma 26 coding transform matches the oracle under every
    /// channel.
    #[test]
    fn coding_transform_matches_naive(
        (kind, n, k) in (0u8..3, 2usize..16, 1usize..4), seed in any::<u64>(),
        (x, eta) in (1usize..8, 0.05..0.6f64),
        (ch, p, q) in (0u8..5, 0.0..0.6f64, 0.0..0.6f64),
    ) {
        let t = topology(kind, n, seed);
        let base = match kind {
            0 => random_base(n, k, 12, seed),
            1 => BaseSchedule::star(n - 1, k),
            _ => BaseSchedule::path_pipelined(n, k),
        };
        let trace = base.validate_faultless(&t.graph, NodeId::new(0)).unwrap();
        let (channel, loss) = channel(ch, p, q);
        let transform = CodingFaultTransform { group_size: x, eta };
        let run = transform.run(&t.graph, &base, &trace, channel, seed).unwrap();
        let overall = channel.fault_probability();
        let meta_len = (x as f64 / ((1.0 - overall) * (1.0 - eta))).ceil() as u64;
        prop_assert_eq!(run.total_rounds, meta_len * base.actions.len() as u64);
        let (_, deliveries) = naive::faultless(&t.adj, &base.actions, k, 0);
        prop_assert_eq!(
            run.success,
            naive::coding_transform(&t.adj, &base.actions, &deliveries, x as u64, meta_len, loss, seed)
        );
    }
}
