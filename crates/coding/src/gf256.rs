//! GF(256) arithmetic via compile-time tables.
//!
//! The `exp`/`log` tables and the full 64 KiB product table
//! `MUL[a][b] = a·b` are `static`s built by `const fn` at compile time,
//! so nothing is initialised at run time and [`Field::mul`] is one
//! table load. The slice kernels [`Field::mul_acc`] and
//! [`Field::scale_slice`] look up the row `MUL[c]` once and then do one
//! branch-free load per byte.

use std::fmt;

use rand::Rng;

use crate::Field;

/// The AES-style primitive polynomial x⁸ + x⁴ + x³ + x² + 1 (0x11D).
const POLY: u16 = 0x11D;
/// Generator element 0x02 is primitive for 0x11D.
const GENERATOR: u8 = 0x02;

struct LogExp {
    exp: [u8; 512], // doubled to skip a mod in mul
    log: [u8; 256],
}

const fn build_log_exp() -> LogExp {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    assert!(exp[0] == 1 && exp[1] == GENERATOR);
    LogExp { exp, log }
}

const fn build_mul() -> [[u8; 256]; 256] {
    let t = build_log_exp();
    let mut mul = [[0u8; 256]; 256];
    let mut a = 1;
    while a < 256 {
        let mut b = 1;
        while b < 256 {
            mul[a][b] = t.exp[t.log[a] as usize + t.log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    mul
}

/// The `exp`/`log` tables, used by [`Field::inv`].
static LOG_EXP: LogExp = build_log_exp();
/// `MUL[a][b]` is the product `a·b`; row and column 0 are zero.
static MUL: [[u8; 256]; 256] = build_mul();

/// An element of GF(2⁸) with the primitive polynomial
/// x⁸ + x⁴ + x³ + x² + 1.
///
/// # Example
///
/// ```
/// use radio_coding::{Field, Gf256};
///
/// let a = Gf256::new(0x53);
/// let b = Gf256::new(0xCA);
/// assert_eq!(a.add(b), Gf256::new(0x99)); // addition is XOR
/// assert_eq!(a.mul(a.inv()), Gf256::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf256(u8);

impl Gf256 {
    /// Wraps a raw byte as a field element.
    pub const fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// The raw byte.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf256(0x{:02X})", self.0)
    }
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02X}", self.0)
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const ORDER: usize = 256;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Gf256(self.0 ^ rhs.0)
    }

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.add(rhs)
    }

    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Gf256(MUL[self.0 as usize][rhs.0 as usize])
    }

    #[inline]
    fn inv(self) -> Self {
        assert!(self.0 != 0, "inverse of zero in GF(256)");
        Gf256(LOG_EXP.exp[255 - LOG_EXP.log[self.0 as usize] as usize])
    }

    fn from_index(i: usize) -> Self {
        assert!(i < Self::ORDER, "index {i} out of range for GF(256)");
        Gf256(i as u8)
    }

    fn to_index(self) -> usize {
        self.0 as usize
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf256(rng.gen())
    }

    #[inline]
    fn mul_acc(dst: &mut [Self], src: &[Self], c: Self) {
        assert_eq!(dst.len(), src.len(), "mul_acc length mismatch");
        let row = &MUL[c.0 as usize];
        for (d, s) in dst.iter_mut().zip(src) {
            d.0 ^= row[s.0 as usize];
        }
    }

    #[inline]
    fn scale_slice(dst: &mut [Self], c: Self) {
        let row = &MUL[c.0 as usize];
        for d in dst {
            d.0 = row[d.0 as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn addition_is_xor() {
        assert_eq!(
            Gf256::new(0b1010).add(Gf256::new(0b0110)),
            Gf256::new(0b1100)
        );
        assert_eq!(Gf256::new(7).sub(Gf256::new(7)), Gf256::ZERO);
    }

    #[test]
    fn multiplication_identities() {
        for v in 0..=255u8 {
            let x = Gf256::new(v);
            assert_eq!(x.mul(Gf256::ONE), x);
            assert_eq!(x.mul(Gf256::ZERO), Gf256::ZERO);
        }
    }

    /// Bitwise carry-less reference multiplication modulo POLY.
    fn slow_mul(a: u8, b: u8) -> u8 {
        let mut acc: u16 = 0;
        let mut a = a as u16;
        let mut b = b as u16;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLY;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn table_mul_matches_bitwise_reference() {
        // All 65,536 entries of the product table.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let want = slow_mul(a, b);
                assert_eq!(MUL[a as usize][b as usize], want, "MUL[{a:#x}][{b:#x}]");
                assert_eq!(Gf256::new(a).mul(Gf256::new(b)).raw(), want);
            }
        }
    }

    #[test]
    fn every_nonzero_has_inverse() {
        for v in 1..=255u8 {
            let x = Gf256::new(v);
            assert_eq!(x.mul(x.inv()), Gf256::ONE, "inverse failed for {v:#x}");
            assert_eq!(x.div(x), Gf256::ONE);
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        let _ = Gf256::ZERO.inv();
    }

    #[test]
    fn multiplication_commutative_associative_distributive() {
        // Spot-check algebraic laws over a grid of elements.
        let vals: Vec<Gf256> = (0..=255).step_by(17).map(Gf256::new).collect();
        for &a in &vals {
            for &b in &vals {
                assert_eq!(a.mul(b), b.mul(a));
                for &c in &vals {
                    assert_eq!(a.mul(b.mul(c)), a.mul(b).mul(c));
                    assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let g = Gf256::new(GENERATOR);
        let mut acc = Gf256::ONE;
        for e in 0..20u64 {
            assert_eq!(g.pow(e), acc);
            acc = acc.mul(g);
        }
        // Fermat: g^255 = 1.
        assert_eq!(g.pow(255), Gf256::ONE);
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::new(GENERATOR);
        let mut seen = std::collections::HashSet::new();
        let mut x = Gf256::ONE;
        for _ in 0..255 {
            assert!(seen.insert(x), "generator order < 255");
            x = x.mul(g);
        }
        assert_eq!(x, Gf256::ONE);
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..256 {
            assert_eq!(Gf256::from_index(i).to_index(), i);
        }
        assert_eq!(Gf256::from_index(0), Gf256::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_out_of_range() {
        let _ = Gf256::from_index(256);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(Gf256::random(&mut a), Gf256::random(&mut b));
        }
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(Gf256::new(0xAB).to_string(), "AB");
        assert_eq!(format!("{:?}", Gf256::new(0xAB)), "Gf256(0xAB)");
    }
}
