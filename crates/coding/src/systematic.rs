//! Systematic Reed–Solomon erasure coding.
//!
//! The [`crate::rs`] code is *non-systematic*: every packet is a
//! polynomial evaluation and decoding always solves a linear system.
//! In practice (and in the paper's single-link/star schedules it makes
//! no asymptotic difference, but real deployments care): a
//! **systematic** code emits the `k` source messages verbatim as
//! packets `0..k` and only the parity packets `k..` require work —
//! receivers that happen to catch all `k` systematic packets decode
//! for free.
//!
//! Construction: interpret message `i` as the value of a degree-`<k`
//! polynomial at point `x_i = from_index(i + 1)`; parity packet `j ≥ k`
//! is that polynomial evaluated at `x_j`. Decoding from any `k`
//! packets is Lagrange interpolation back to the first `k` points.

use crate::matrix::Matrix;
use crate::{CodingError, Field};

/// A systematic Reed–Solomon code of dimension `k` over field `F`.
///
/// # Example
///
/// ```
/// use radio_coding::{systematic::SystematicRs, Gf256};
///
/// let data = vec![vec![Gf256::new(7)], vec![Gf256::new(9)]];
/// let rs = SystematicRs::<Gf256>::new(2).unwrap();
/// // Packets 0..k are the messages themselves:
/// assert_eq!(rs.packet(&data, 0).unwrap(), data[0]);
/// assert_eq!(rs.packet(&data, 1).unwrap(), data[1]);
/// // Any k packets decode — here one systematic + one parity:
/// let p5 = rs.packet(&data, 5).unwrap();
/// let decoded = rs.decode(&[(1, data[1].clone()), (5, p5)]).unwrap();
/// assert_eq!(decoded, data);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystematicRs<F> {
    k: usize,
    _marker: std::marker::PhantomData<F>,
}

impl<F: Field> SystematicRs<F> {
    /// Creates a systematic code of dimension `k`.
    ///
    /// # Errors
    ///
    /// [`CodingError::ZeroDimension`] if `k == 0`;
    /// [`CodingError::PacketIndexOutOfRange`] if `k` exceeds the
    /// packet capacity `|F| - 1`.
    pub fn new(k: usize) -> Result<Self, CodingError> {
        if k == 0 {
            return Err(CodingError::ZeroDimension);
        }
        if k > Self::capacity() {
            return Err(CodingError::PacketIndexOutOfRange {
                index: k,
                capacity: Self::capacity(),
            });
        }
        Ok(SystematicRs {
            k,
            _marker: std::marker::PhantomData,
        })
    }

    /// The code dimension `k`.
    pub fn dimension(&self) -> usize {
        self.k
    }

    /// Number of distinct packets (`|F| - 1` evaluation points).
    pub fn capacity() -> usize {
        F::ORDER - 1
    }

    /// Whether packet `j` is systematic (a verbatim source message).
    pub fn is_systematic(&self, j: usize) -> bool {
        j < self.k
    }

    fn point(j: usize) -> F {
        F::from_index(j + 1)
    }

    /// Produces packet `j`: message `j` itself for `j < k`, otherwise
    /// the interpolating polynomial evaluated at `x_j`.
    ///
    /// # Errors
    ///
    /// As [`crate::rs::ReedSolomon::packet`].
    pub fn packet(&self, data: &[Vec<F>], j: usize) -> Result<Vec<F>, CodingError> {
        if data.len() != self.k {
            return Err(CodingError::NotEnoughPackets {
                got: data.len(),
                need: self.k,
            });
        }
        if j >= Self::capacity() {
            return Err(CodingError::PacketIndexOutOfRange {
                index: j,
                capacity: Self::capacity(),
            });
        }
        let len = data[0].len();
        for msg in data {
            if msg.len() != len {
                return Err(CodingError::PayloadLengthMismatch {
                    expected: len,
                    got: msg.len(),
                });
            }
        }
        if j < self.k {
            return Ok(data[j].clone());
        }
        // Lagrange evaluation at x_j over the systematic points:
        // P(x_j) = Σ_i data[i] · L_i(x_j).
        let x = Self::point(j);
        let mut out = vec![F::ZERO; len];
        for (i, msg) in data.iter().enumerate() {
            let xi = Self::point(i);
            let mut basis = F::ONE;
            for m in 0..self.k {
                if m == i {
                    continue;
                }
                let xm = Self::point(m);
                basis = basis.mul(x.sub(xm)).div(xi.sub(xm));
            }
            F::mul_acc(&mut out, msg, basis);
        }
        Ok(out)
    }

    /// Reconstructs the `k` source messages from any `k` (or more)
    /// distinct packets `(packet_index, payload)`. Free when all `k`
    /// systematic packets are present.
    ///
    /// # Errors
    ///
    /// As [`crate::rs::ReedSolomon::decode`].
    pub fn decode(&self, packets: &[(usize, Vec<F>)]) -> Result<Vec<Vec<F>>, CodingError> {
        if packets.len() < self.k {
            return Err(CodingError::NotEnoughPackets {
                got: packets.len(),
                need: self.k,
            });
        }
        let used = &packets[..self.k];
        let len = used[0].1.len();
        let mut seen = std::collections::HashSet::with_capacity(self.k);
        for &(j, ref payload) in used {
            if j >= Self::capacity() {
                return Err(CodingError::PacketIndexOutOfRange {
                    index: j,
                    capacity: Self::capacity(),
                });
            }
            if !seen.insert(j) {
                return Err(CodingError::DuplicatePacketIndex { index: j });
            }
            if payload.len() != len {
                return Err(CodingError::PayloadLengthMismatch {
                    expected: len,
                    got: payload.len(),
                });
            }
        }
        // Fast path: all systematic.
        if used.iter().all(|&(j, _)| j < self.k) {
            let mut out = vec![Vec::new(); self.k];
            for &(j, ref payload) in used {
                out[j] = payload.clone();
            }
            return Ok(out);
        }
        // General path: the packets are evaluations of the degree-<k
        // polynomial at their points; solve the Vandermonde-like
        // system for the polynomial's *values at the systematic
        // points* directly. Using the monomial basis: packet_j =
        // Σ_c coeffs[c]·x_j^c, then re-evaluate at the systematic
        // points.
        let points: Vec<usize> = used.iter().map(|&(j, _)| j + 1).collect();
        let v = Matrix::<F>::vandermonde(&points, self.k);
        let mut coeffs = vec![vec![F::ZERO; len]; self.k];
        for pos in 0..len {
            let b: Vec<F> = used.iter().map(|(_, p)| p[pos]).collect();
            let x = v.solve(&b)?;
            for (c, &val) in x.iter().enumerate() {
                coeffs[c][pos] = val;
            }
        }
        // Evaluate at systematic points 1..=k.
        let mut out = vec![vec![F::ZERO; len]; self.k];
        for i in 0..self.k {
            let x = Self::point(i);
            for pos in 0..len {
                let mut acc = F::ZERO;
                for c in (0..self.k).rev() {
                    acc = acc.mul(x).add(coeffs[c][pos]);
                }
                out[i][pos] = acc;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf256, Gf65536};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_data<F: Field>(k: usize, len: usize, seed: u64) -> Vec<Vec<F>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..k)
            .map(|_| (0..len).map(|_| F::random(&mut rng)).collect())
            .collect()
    }

    #[test]
    fn systematic_packets_are_verbatim() {
        let data = random_data::<Gf256>(4, 3, 1);
        let rs = SystematicRs::<Gf256>::new(4).unwrap();
        for j in 0..4 {
            assert_eq!(rs.packet(&data, j).unwrap(), data[j]);
            assert!(rs.is_systematic(j));
        }
        assert!(!rs.is_systematic(4));
    }

    #[test]
    fn all_systematic_decode_is_identity() {
        let data = random_data::<Gf256>(3, 2, 2);
        let rs = SystematicRs::<Gf256>::new(3).unwrap();
        let packets: Vec<_> = (0..3).map(|j| (j, data[j].clone())).collect();
        assert_eq!(rs.decode(&packets).unwrap(), data);
    }

    #[test]
    fn parity_only_decode() {
        let data = random_data::<Gf256>(4, 2, 3);
        let rs = SystematicRs::<Gf256>::new(4).unwrap();
        let packets: Vec<_> = [10usize, 20, 30, 40]
            .iter()
            .map(|&j| (j, rs.packet(&data, j).unwrap()))
            .collect();
        assert_eq!(rs.decode(&packets).unwrap(), data);
    }

    #[test]
    fn mixed_systematic_and_parity_decode() {
        let data = random_data::<Gf256>(5, 3, 4);
        let rs = SystematicRs::<Gf256>::new(5).unwrap();
        let idx = [0usize, 2, 7, 19, 100];
        let packets: Vec<_> = idx
            .iter()
            .map(|&j| (j, rs.packet(&data, j).unwrap()))
            .collect();
        assert_eq!(rs.decode(&packets).unwrap(), data);
    }

    #[test]
    fn random_subsets_always_decode() {
        let data = random_data::<Gf256>(6, 2, 5);
        let rs = SystematicRs::<Gf256>::new(6).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..20 {
            let mut idx: Vec<usize> = (0..SystematicRs::<Gf256>::capacity()).collect();
            for i in 0..6 {
                let j = rand::Rng::gen_range(&mut rng, i..idx.len());
                idx.swap(i, j);
            }
            let packets: Vec<_> = idx[..6]
                .iter()
                .map(|&j| (j, rs.packet(&data, j).unwrap()))
                .collect();
            assert_eq!(rs.decode(&packets).unwrap(), data, "subset {:?}", &idx[..6]);
        }
    }

    #[test]
    fn agrees_with_gf65536() {
        let data = random_data::<Gf65536>(3, 2, 7);
        let rs = SystematicRs::<Gf65536>::new(3).unwrap();
        let idx = [1usize, 5000, 60000];
        let packets: Vec<_> = idx
            .iter()
            .map(|&j| (j, rs.packet(&data, j).unwrap()))
            .collect();
        assert_eq!(rs.decode(&packets).unwrap(), data);
    }

    #[test]
    fn error_cases() {
        assert!(SystematicRs::<Gf256>::new(0).is_err());
        assert!(SystematicRs::<Gf256>::new(256).is_err());
        let data = random_data::<Gf256>(2, 2, 8);
        let rs = SystematicRs::<Gf256>::new(2).unwrap();
        assert!(rs.packet(&data, 255).is_err());
        assert!(rs.decode(&[(0, data[0].clone())]).is_err());
        assert!(rs
            .decode(&[(0, data[0].clone()), (0, data[0].clone())])
            .is_err());
    }

    #[test]
    fn nonsystematic_rs_and_systematic_rs_both_roundtrip_same_data() {
        let data = random_data::<Gf256>(4, 5, 9);
        let sys = SystematicRs::<Gf256>::new(4).unwrap();
        let plain = crate::rs::ReedSolomon::<Gf256>::new(4).unwrap();
        let sp: Vec<_> = (4..8).map(|j| (j, sys.packet(&data, j).unwrap())).collect();
        let pp: Vec<_> = (4..8)
            .map(|j| (j, plain.packet(&data, j).unwrap()))
            .collect();
        assert_eq!(sys.decode(&sp).unwrap(), data);
        assert_eq!(plain.decode(&pp).unwrap(), data);
    }
}
