//! Random linear network coding (RLNC).
//!
//! The multi-message broadcast algorithms of the paper (Lemmas 12–13)
//! run a single-message-style schedule in which every broadcast slot
//! carries a *uniformly random linear combination* of everything the
//! node has received so far. A node decodes all `k` messages once it
//! has accumulated `k` linearly independent combinations (Haeupler,
//! STOC 2011: projection analysis of network coding gossip).
//!
//! [`RlncNode`] keeps a node's received combinations in reduced row
//! echelon form, so rank queries are `O(1)`, a fresh-innovation check
//! touches only the `k` coefficients of each basis row (the payload is
//! reduced only for innovative packets), and decoding is a
//! back-substitution-free read. All row arithmetic goes through the
//! [`Field::mul_acc`] and [`Field::scale_slice`] kernels.

use rand::Rng;

use crate::{CodingError, Field};

/// A coded packet: the coefficient vector over the `k` source messages
/// and the correspondingly combined payload symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodedPacket<F> {
    /// Coefficients over the `k` source messages.
    pub coeffs: Vec<F>,
    /// Combined payload (`Σ coeffs[i] · message_i`, symbol-wise).
    /// Empty when the experiment tracks coefficients only.
    pub payload: Vec<F>,
}

impl<F: Field> CodedPacket<F> {
    /// The trivial packet carrying source message `i` of `k` with the
    /// given payload.
    pub fn unit(k: usize, i: usize, payload: Vec<F>) -> Self {
        assert!(i < k, "unit index {i} out of range for k = {k}");
        let mut coeffs = vec![F::ZERO; k];
        coeffs[i] = F::ONE;
        CodedPacket { coeffs, payload }
    }

    /// Whether all coefficients are zero (an uninformative packet).
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|c| c.is_zero())
    }
}

/// Per-node RLNC decoder state: a basis of received combinations in
/// reduced row echelon form.
///
/// # Example
///
/// ```
/// use radio_coding::{rlnc::{CodedPacket, RlncNode}, Field, Gf256};
///
/// let mut node = RlncNode::<Gf256>::new(2, 1);
/// let m0 = vec![Gf256::new(7)];
/// let m1 = vec![Gf256::new(9)];
/// assert!(node.absorb(CodedPacket::unit(2, 0, m0.clone())));
/// assert!(!node.can_decode());
/// assert!(node.absorb(CodedPacket::unit(2, 1, m1.clone())));
/// assert_eq!(node.decode().unwrap(), vec![m0, m1]);
/// ```
#[derive(Debug, Clone)]
pub struct RlncNode<F> {
    k: usize,
    payload_len: usize,
    /// Basis rows in RREF; `pivots[r]` is the pivot column of row `r`.
    rows: Vec<CodedPacket<F>>,
    pivots: Vec<usize>,
    /// Scratch for [`RlncNode::absorb`]: the multiplier of each basis
    /// row while reducing a packet's coefficients, reused across calls.
    multipliers: Vec<F>,
}

impl<F: Field> RlncNode<F> {
    /// Creates an empty decoder for `k` messages with `payload_len`
    /// payload symbols per message (0 tracks coefficients only).
    pub fn new(k: usize, payload_len: usize) -> Self {
        RlncNode {
            k,
            payload_len,
            rows: Vec::new(),
            pivots: Vec::new(),
            multipliers: Vec::with_capacity(k),
        }
    }

    /// A decoder pre-loaded with all `k` source messages — the state
    /// of the broadcast source.
    ///
    /// # Panics
    ///
    /// Panics if `messages.len() != k` or payload lengths disagree
    /// with `payload_len`.
    pub fn source(k: usize, payload_len: usize, messages: &[Vec<F>]) -> Self {
        assert_eq!(messages.len(), k, "source must hold all k messages");
        let mut node = Self::new(k, payload_len);
        for (i, m) in messages.iter().enumerate() {
            assert_eq!(m.len(), payload_len, "message {i} has wrong payload length");
            let fresh = node.absorb(CodedPacket::unit(k, i, m.clone()));
            debug_assert!(fresh);
        }
        node
    }

    /// Number of messages `k`.
    pub fn message_count(&self) -> usize {
        self.k
    }

    /// Current rank (number of independent combinations held).
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Whether the node can reconstruct all `k` messages.
    pub fn can_decode(&self) -> bool {
        self.rank() == self.k
    }

    /// Absorbs a received packet; returns `true` iff it was
    /// *innovative* (increased the rank).
    ///
    /// The coefficients are reduced first, recording each basis row's
    /// multiplier; the payload is reduced (by replaying those
    /// multipliers) only when the packet turns out to be innovative.
    /// A decoder at full rank rejects every packet without arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the packet dimensions disagree with this decoder.
    pub fn absorb(&mut self, mut packet: CodedPacket<F>) -> bool {
        assert_eq!(packet.coeffs.len(), self.k, "coefficient count mismatch");
        assert_eq!(
            packet.payload.len(),
            self.payload_len,
            "payload length mismatch"
        );
        if self.rank() == self.k {
            return false;
        }
        // Reduce the coefficients against the basis rows. In
        // characteristic 2, subtracting `c · row` is adding it.
        self.multipliers.clear();
        for (row, &p) in self.rows.iter().zip(&self.pivots) {
            let c = packet.coeffs[p];
            if !c.is_zero() {
                F::mul_acc(&mut packet.coeffs, &row.coeffs, c);
            }
            self.multipliers.push(c);
        }
        let Some(pivot) = packet.coeffs.iter().position(|c| !c.is_zero()) else {
            return false; // not innovative
        };
        for (row, &c) in self.rows.iter().zip(&self.multipliers) {
            if !c.is_zero() {
                F::mul_acc(&mut packet.payload, &row.payload, c);
            }
        }
        // Normalize the new row.
        let inv = packet.coeffs[pivot].inv();
        F::scale_slice(&mut packet.coeffs, inv);
        F::scale_slice(&mut packet.payload, inv);
        // Back-substitute into existing rows to keep RREF.
        for (row, &p) in self.rows.iter_mut().zip(&self.pivots) {
            debug_assert_ne!(p, pivot);
            let c = row.coeffs[pivot];
            if !c.is_zero() {
                F::mul_acc(&mut row.coeffs, &packet.coeffs, c);
                F::mul_acc(&mut row.payload, &packet.payload, c);
            }
        }
        // Insert keeping pivot order.
        let pos = self.pivots.partition_point(|&p| p < pivot);
        self.rows.insert(pos, packet);
        self.pivots.insert(pos, pivot);
        true
    }

    /// Emits a uniformly random combination of the held basis, or
    /// `None` when the node holds nothing (an uninformed node stays
    /// silent).
    ///
    /// Coefficients are resampled until the combination is nonzero,
    /// so the packet always carries information about the basis.
    pub fn random_combination<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<CodedPacket<F>> {
        if self.rows.is_empty() {
            return None;
        }
        loop {
            let mut out = CodedPacket {
                coeffs: vec![F::ZERO; self.k],
                payload: vec![F::ZERO; self.payload_len],
            };
            let mut any = false;
            for row in &self.rows {
                let c = F::random(rng);
                if c.is_zero() {
                    continue;
                }
                any = true;
                F::mul_acc(&mut out.coeffs, &row.coeffs, c);
                F::mul_acc(&mut out.payload, &row.payload, c);
            }
            if any && !out.is_zero() {
                return Some(out);
            }
        }
    }

    /// Reconstructs the `k` source messages.
    ///
    /// # Errors
    ///
    /// [`CodingError::NotEnoughPackets`] if the rank is below `k`.
    pub fn decode(&self) -> Result<Vec<Vec<F>>, CodingError> {
        if !self.can_decode() {
            return Err(CodingError::NotEnoughPackets {
                got: self.rank(),
                need: self.k,
            });
        }
        // In RREF with full rank, row r has pivot r and zeros
        // elsewhere: payload r IS message r.
        let mut out = vec![Vec::new(); self.k];
        for (row, &p) in self.rows.iter().zip(&self.pivots) {
            debug_assert!(row.coeffs.iter().enumerate().all(|(j, c)| {
                if j == p {
                    *c == F::ONE
                } else {
                    c.is_zero()
                }
            }));
            out[p] = row.payload.clone();
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn messages(k: usize, len: usize, seed: u64) -> Vec<Vec<Gf256>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| Gf256::random(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn source_decodes_immediately() {
        let msgs = messages(4, 3, 1);
        let src = RlncNode::source(4, 3, &msgs);
        assert!(src.can_decode());
        assert_eq!(src.decode().unwrap(), msgs);
    }

    #[test]
    fn gossip_from_source_to_sink() {
        let msgs = messages(5, 2, 2);
        let src = RlncNode::source(5, 2, &msgs);
        let mut sink = RlncNode::new(5, 2);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sent = 0;
        while !sink.can_decode() {
            let p = src.random_combination(&mut rng).unwrap();
            sink.absorb(p);
            sent += 1;
            assert!(sent < 100, "sink failed to reach full rank");
        }
        assert_eq!(sink.decode().unwrap(), msgs);
        // With |F| = 256, each packet is innovative w.p. ≥ 1 - 1/256:
        // 5 messages should almost always take exactly 5-6 packets.
        assert!(sent <= 8, "took {sent} packets for rank 5");
    }

    #[test]
    fn multi_hop_relay_chain() {
        // src -> a -> b: relays forward random combinations of what
        // they have; everything decodes along the chain.
        let msgs = messages(3, 2, 4);
        let src = RlncNode::source(3, 2, &msgs);
        let mut a = RlncNode::new(3, 2);
        let mut b = RlncNode::new(3, 2);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..40 {
            if let Some(p) = src.random_combination(&mut rng) {
                a.absorb(p);
            }
            if let Some(p) = a.random_combination(&mut rng) {
                b.absorb(p);
            }
        }
        assert_eq!(b.decode().unwrap(), msgs);
    }

    #[test]
    fn duplicate_packets_not_innovative() {
        let msgs = messages(3, 1, 6);
        let mut node = RlncNode::new(3, 1);
        let p = CodedPacket::unit(3, 1, msgs[1].clone());
        assert!(node.absorb(p.clone()));
        assert!(!node.absorb(p), "same packet absorbed twice");
        assert_eq!(node.rank(), 1);
    }

    #[test]
    fn linear_combination_of_known_rows_not_innovative() {
        let msgs = messages(3, 1, 7);
        let mut node = RlncNode::new(3, 1);
        node.absorb(CodedPacket::unit(3, 0, msgs[0].clone()));
        node.absorb(CodedPacket::unit(3, 1, msgs[1].clone()));
        // c0*m0 + c1*m1 is already in the span.
        let c0 = Gf256::new(10);
        let c1 = Gf256::new(99);
        let combo = CodedPacket {
            coeffs: vec![c0, c1, Gf256::ZERO],
            payload: vec![c0.mul(msgs[0][0]).add(c1.mul(msgs[1][0]))],
        };
        assert!(!node.absorb(combo));
        assert_eq!(node.rank(), 2);
    }

    #[test]
    fn decode_before_full_rank_errors() {
        let node = RlncNode::<Gf256>::new(2, 1);
        assert_eq!(
            node.decode().unwrap_err(),
            CodingError::NotEnoughPackets { got: 0, need: 2 }
        );
    }

    #[test]
    fn empty_node_emits_nothing() {
        let node = RlncNode::<Gf256>::new(2, 1);
        let mut rng = SmallRng::seed_from_u64(8);
        assert!(node.random_combination(&mut rng).is_none());
    }

    #[test]
    fn partial_rank_combination_still_useful() {
        // A node with rank 1 emits combinations spanning its single row.
        let msgs = messages(3, 2, 9);
        let mut a = RlncNode::new(3, 2);
        a.absorb(CodedPacket::unit(3, 2, msgs[2].clone()));
        let mut rng = SmallRng::seed_from_u64(10);
        let p = a.random_combination(&mut rng).unwrap();
        assert!(!p.is_zero());
        // Combination of row {e2} must be a multiple of e2.
        assert!(p.coeffs[0].is_zero() && p.coeffs[1].is_zero() && !p.coeffs[2].is_zero());
        let scale = p.coeffs[2];
        assert_eq!(p.payload[0], scale.mul(msgs[2][0]));
    }

    #[test]
    fn zero_payload_len_tracks_rank_only() {
        let mut node = RlncNode::<Gf256>::new(4, 0);
        for i in 0..4 {
            assert!(node.absorb(CodedPacket::unit(4, i, vec![])));
        }
        assert!(node.can_decode());
        assert_eq!(node.decode().unwrap(), vec![Vec::<Gf256>::new(); 4]);
    }

    #[test]
    #[should_panic(expected = "coefficient count mismatch")]
    fn dimension_mismatch_panics() {
        let mut node = RlncNode::<Gf256>::new(3, 0);
        node.absorb(CodedPacket::unit(2, 0, vec![]));
    }

    #[test]
    fn rref_invariant_held() {
        let msgs = messages(6, 1, 11);
        let src = RlncNode::source(6, 1, &msgs);
        let mut node = RlncNode::new(6, 1);
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..10 {
            if let Some(p) = src.random_combination(&mut rng) {
                node.absorb(p);
            }
            // Invariant: pivots strictly increasing, pivot columns are
            // elementary across rows.
            for w in node.pivots.windows(2) {
                assert!(w[0] < w[1]);
            }
            for i in 0..node.rows.len() {
                for (j, other) in node.rows.iter().enumerate() {
                    let c = other.coeffs[node.pivots[i]];
                    if i == j {
                        assert_eq!(c, Gf256::ONE);
                    } else {
                        assert!(c.is_zero());
                    }
                }
            }
        }
        assert!(node.can_decode());
        assert_eq!(node.decode().unwrap(), msgs);
    }
}
