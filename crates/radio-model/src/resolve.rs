//! The model's reception rule, coded once for the centralized runners.
//!
//! A listener receives a packet iff **exactly one** of its neighbours
//! broadcasts (paper §2); the channel then decides whether the packet
//! survives. [`Resolver`] applies the first half of that rule and
//! yields each unique-sender slot; the caller applies its own loss
//! process. The adaptive routing runner and the Lemma 25–26 transforms
//! resolve their rounds here; the engine keeps its own sharded sweep.

use std::ops::Range;

use netgraph::bitset::Ones;
use netgraph::{Bitset, Graph, NodeId};

/// A reusable collision-resolution kernel for one graph size.
///
/// It owns bitsets of the listeners that heard at least one and at
/// least two broadcasting neighbours, the resulting unique-sender set,
/// and one sender slot per node. A round costs the broadcasters'
/// degrees plus the word span of the nodes they reach; nothing is
/// allocated after [`Resolver::new`].
///
/// # Example
///
/// ```
/// use netgraph::{generators, Bitset};
/// use radio_model::Resolver;
///
/// // Path 0-1-2-3-4 with broadcasters 0 and 2: node 1 hears both
/// // (collision), node 3 hears only node 2.
/// let g = generators::path(5);
/// let mut broadcasters = Bitset::new(5);
/// broadcasters.insert(0);
/// broadcasters.insert(2);
/// let mut resolver = Resolver::new(5);
/// let heard: Vec<(u32, u32)> = resolver
///     .resolve(&g, &broadcasters)
///     .map(|(v, u)| (v.raw(), u.raw()))
///     .collect();
/// assert_eq!(heard, vec![(3, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct Resolver {
    heard: Bitset,
    collided: Bitset,
    /// Last round's unique-sender listeners, over the words `swept`.
    unique: Bitset,
    swept: Range<usize>,
    /// For a node in `unique`: its sole sender.
    sender: Vec<NodeId>,
}

impl Resolver {
    /// A kernel for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        Resolver {
            heard: Bitset::new(n),
            collided: Bitset::new(n),
            unique: Bitset::new(n),
            swept: 0..0,
            sender: vec![NodeId::new(0); n],
        }
    }

    /// Resolves one round: yields `(listener, sender)` for every node
    /// that is not in `broadcasters` and has exactly one neighbour in
    /// it, in **ascending listener order**.
    ///
    /// The order is the contract callers rely on: each draws its
    /// per-delivery losses from one stream while iterating, so the
    /// draws come out as in a plain `for v in 0..n` scan.
    ///
    /// # Panics
    ///
    /// If `graph` or `broadcasters` does not have the node count this
    /// kernel was built for.
    pub fn resolve<'a>(&'a mut self, graph: &'a Graph, broadcasters: &Bitset) -> Slots<'a> {
        let n = self.sender.len();
        assert_eq!(graph.node_count(), n, "resolver built for {n} nodes");
        assert_eq!(broadcasters.len(), n, "resolver built for {n} nodes");
        self.unique.clear_words(self.swept.clone());
        self.swept = 0..0;
        let mut on_air = broadcasters.ones();
        let (Some(first), second) = (on_air.next(), on_air.next()) else {
            return Slots(Inner::Sweep(self.unique.ones_in(0..0), &self.sender));
        };
        if second.is_none() {
            // A lone broadcaster reaches each neighbour uniquely (graphs
            // have no self-loops), in sorted neighbour-list order.
            let u = NodeId::from_index(first);
            return Slots(Inner::Lone(u, graph.neighbors(u).iter()));
        }
        // Word span of the reached nodes (neighbour lists are sorted).
        let (mut lo, mut hi) = (usize::MAX, 0);
        for u in broadcasters.ones() {
            let u = NodeId::from_index(u);
            let neighbors = graph.neighbors(u);
            let (Some(first), Some(last)) = (neighbors.first(), neighbors.last()) else {
                continue;
            };
            lo = lo.min(first.index() / 64);
            hi = hi.max(last.index() / 64 + 1);
            // Gather each word's bits in a register: sorted neighbours
            // fill one word before moving to the next.
            let mut word = first.index() / 64;
            let mut bits = 0u64;
            for &v in neighbors {
                let i = v.index();
                if i / 64 != word {
                    self.mark(word, bits);
                    (word, bits) = (i / 64, 0);
                }
                bits |= 1 << (i % 64);
                self.sender[i] = u;
            }
            self.mark(word, bits);
        }
        let span = lo.min(hi)..hi;
        for w in span.clone() {
            let (heard, collided) = (self.heard.words()[w], self.collided.words()[w]);
            self.unique
                .or_word(w, heard & !collided & !broadcasters.words()[w]);
        }
        self.heard.clear_words(span.clone());
        self.collided.clear_words(span.clone());
        self.swept = span.clone();
        let bits = span.start * 64..(span.end * 64).min(n);
        Slots(Inner::Sweep(self.unique.ones_in(bits), &self.sender))
    }

    /// Records one broadcaster's neighbours `bits` in word `word`: a
    /// node already heard this round has now collided.
    fn mark(&mut self, word: usize, bits: u64) {
        let before = self.heard.or_word(word, bits);
        self.collided.or_word(word, before & bits);
    }
}

/// The unique-sender slots of one round, as `(listener, sender)` in
/// ascending listener order; see [`Resolver::resolve`].
#[derive(Debug)]
pub struct Slots<'a>(Inner<'a>);

#[derive(Debug)]
enum Inner<'a> {
    /// The round's only broadcaster and its neighbours not yet yielded.
    Lone(NodeId, std::slice::Iter<'a, NodeId>),
    /// The unique-sender set and the sender slots.
    Sweep(Ones<'a>, &'a [NodeId]),
}

impl Iterator for Slots<'_> {
    type Item = (NodeId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        match &mut self.0 {
            Inner::Lone(u, neighbors) => neighbors.next().map(|&v| (v, *u)),
            Inner::Sweep(ones, sender) => ones.next().map(|i| (NodeId::from_index(i), sender[i])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::generators;

    fn resolve(g: &Graph, senders: &[usize]) -> Vec<(u32, u32)> {
        let mut b = Bitset::new(g.node_count());
        for &s in senders {
            b.insert(s);
        }
        let mut r = Resolver::new(g.node_count());
        let out = r.resolve(g, &b).map(|(v, u)| (v.raw(), u.raw())).collect();
        out
    }

    #[test]
    fn star_center_reaches_every_leaf_in_order() {
        let g = generators::star(130);
        let got = resolve(&g, &[0]);
        assert_eq!(got, (1..=130).map(|v| (v, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn two_leaves_collide_at_the_center() {
        let g = generators::star(4);
        assert!(resolve(&g, &[1, 2]).is_empty());
        assert_eq!(resolve(&g, &[3]), vec![(0, 3)]);
    }

    #[test]
    fn broadcasters_do_not_listen() {
        // Complete graph: two broadcasters collide everywhere else and
        // never hear each other.
        let g = generators::complete(3);
        assert!(resolve(&g, &[0, 1]).is_empty());
        assert_eq!(resolve(&g, &[0]), vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn no_broadcasters_no_deliveries() {
        assert!(resolve(&generators::path(3), &[]).is_empty());
        assert!(resolve(&Graph::from_edges(0, []).unwrap(), &[]).is_empty());
        // Isolated broadcasters reach nobody, alone or together.
        let isolated = Graph::from_edges(3, []).unwrap();
        assert!(resolve(&isolated, &[1]).is_empty());
        assert!(resolve(&isolated, &[0, 2]).is_empty());
    }

    #[test]
    fn state_resets_between_rounds() {
        let g = generators::path(200);
        let mut r = Resolver::new(200);
        let mut b = Bitset::new(200);
        b.insert(100);
        b.insert(102);
        let first: Vec<_> = r.resolve(&g, &b).map(|(v, u)| (v.raw(), u.raw())).collect();
        assert_eq!(first, vec![(99, 100), (103, 102)]);
        // Node 101 collided last round; now 102 reaches it.
        let mut b = Bitset::new(200);
        b.insert(102);
        b.insert(150);
        let second: Vec<_> = r.resolve(&g, &b).map(|(v, u)| (v.raw(), u.raw())).collect();
        assert_eq!(second, vec![(101, 102), (103, 102), (149, 150), (151, 150)]);
    }

    #[test]
    #[should_panic(expected = "resolver built for 4 nodes")]
    fn size_mismatch_panics() {
        let _ = Resolver::new(4).resolve(&generators::path(5), &Bitset::new(5));
    }
}
