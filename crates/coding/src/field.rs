//! The finite-field abstraction shared by all codes.

use std::fmt::Debug;
use std::hash::Hash;

use rand::Rng;

/// A finite field, as needed by Reed–Solomon and RLNC.
///
/// Implemented by [`Gf256`](crate::Gf256) (GF(2⁸)) and
/// [`Gf65536`](crate::Gf65536) (GF(2¹⁶)). The trait is deliberately
/// minimal: the codes only need arithmetic, inversion, a way to
/// enumerate distinct evaluation points, and uniform sampling. Both
/// implementations have characteristic 2, so [`Field::sub`] equals
/// [`Field::add`] and [`Field::mul_acc`] also subtracts a scaled row.
pub trait Field: Copy + Eq + Hash + Debug + Send + Sync + 'static {
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Number of field elements.
    const ORDER: usize;

    /// Field addition (XOR in characteristic 2).
    fn add(self, rhs: Self) -> Self;
    /// Field subtraction (same as addition in characteristic 2).
    fn sub(self, rhs: Self) -> Self;
    /// Field multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    fn inv(self) -> Self;

    /// The `i`-th field element under some fixed enumeration
    /// (`from_index(0) == ZERO`, indices `1..ORDER` enumerate the
    /// nonzero elements distinctly).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ORDER`.
    fn from_index(i: usize) -> Self;

    /// The position of this element in the [`Field::from_index`]
    /// enumeration.
    fn to_index(self) -> usize;

    /// A uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// Field division.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Self) -> Self {
        self.mul(rhs.inv())
    }

    /// Whether this is the zero element.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// The row kernel `dst[i] += c · src[i]`, the one add-scaled-row
    /// operation of every elimination and combination in this crate.
    ///
    /// The default is an element-at-a-time loop;
    /// [`Gf256`](crate::Gf256) overrides it with a product-table row.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() != src.len()`.
    fn mul_acc(dst: &mut [Self], src: &[Self], c: Self) {
        assert_eq!(dst.len(), src.len(), "mul_acc length mismatch");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = d.add(c.mul(s));
        }
    }

    /// The row kernel `dst[i] = c · dst[i]`.
    ///
    /// The default is an element-at-a-time loop;
    /// [`Gf256`](crate::Gf256) overrides it with a product-table row.
    fn scale_slice(dst: &mut [Self], c: Self) {
        for d in dst {
            *d = d.mul(c);
        }
    }

    /// Exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }
}
