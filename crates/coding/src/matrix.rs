//! Dense matrices over a [`Field`] with Gaussian elimination.
//!
//! Small and purpose-built: Reed–Solomon decoding solves Vandermonde
//! systems and RLNC tracks rank incrementally; both reduce to row
//! echelon operations provided here.

use crate::{CodingError, Field};

/// A dense `rows × cols` matrix over `F`, row-major.
///
/// # Example
///
/// ```
/// use radio_coding::{matrix::Matrix, Field, Gf256};
///
/// let m = Matrix::identity(3);
/// let x = vec![Gf256::new(5), Gf256::new(7), Gf256::new(9)];
/// assert_eq!(m.mul_vec(&x), x);
/// assert_eq!(m.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// An all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<F>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// The Vandermonde matrix with `rows` evaluation points
    /// `x_i = F::from_index(points[i])` and `cols` powers:
    /// `M[i][j] = x_i^j`.
    pub fn vandermonde(points: &[usize], cols: usize) -> Self {
        let mut m = Self::zero(points.len(), cols);
        for (i, &pt) in points.iter().enumerate() {
            let x = F::from_index(pt);
            let mut p = F::ONE;
            for j in 0..cols {
                m[(i, j)] = p;
                p = p.mul(x);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[F]) -> Vec<F> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let mut acc = F::ZERO;
                for j in 0..self.cols {
                    acc = acc.add(self[(i, j)].mul(v[j]));
                }
                acc
            })
            .collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_mat(&self, rhs: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch");
        let mut out = Matrix::<F>::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if !a.is_zero() {
                    let src = &rhs.data[l * rhs.cols..(l + 1) * rhs.cols];
                    F::mul_acc(out.row_mut(i), src, a);
                }
            }
        }
        out
    }

    /// The rank, via Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.row_echelon()
    }

    /// In-place reduction to row echelon form; returns the rank.
    pub fn row_echelon(&mut self) -> usize {
        let n = self.cols;
        aug_row_echelon_first_n(self, n)
    }

    /// Solves `self * x = b` for square, invertible `self`.
    ///
    /// # Errors
    ///
    /// [`CodingError::SingularSystem`] if the matrix is singular or
    /// non-square.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.rows()`.
    pub fn solve(&self, b: &[F]) -> Result<Vec<F>, CodingError> {
        assert_eq!(b.len(), self.rows, "dimension mismatch");
        if self.rows != self.cols {
            return Err(CodingError::SingularSystem);
        }
        let n = self.rows;
        // Augment with b and eliminate.
        let mut aug = Matrix::zero(n, n + 1);
        for i in 0..n {
            for j in 0..n {
                aug[(i, j)] = self[(i, j)];
            }
            aug[(i, n)] = b[i];
        }
        let rank = aug_row_echelon_first_n(&mut aug, n);
        if rank < n {
            return Err(CodingError::SingularSystem);
        }
        Ok((0..n).map(|i| aug[(i, n)]).collect())
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let t = self[(a, j)];
            self[(a, j)] = self[(b, j)];
            self[(b, j)] = t;
        }
    }

    fn row_mut(&mut self, r: usize) -> &mut [F] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn scale_row(&mut self, r: usize, by: F) {
        F::scale_slice(self.row_mut(r), by);
    }

    /// `row[dst] -= by · row[src]` (an addition in characteristic 2).
    fn sub_scaled_row(&mut self, dst: usize, src: usize, by: F) {
        debug_assert_ne!(dst, src);
        let cols = self.cols;
        let (d, s) = if dst < src {
            let (lo, hi) = self.data.split_at_mut(src * cols);
            (&mut lo[dst * cols..(dst + 1) * cols], &hi[..cols])
        } else {
            let (lo, hi) = self.data.split_at_mut(dst * cols);
            (&mut hi[..cols], &lo[src * cols..(src + 1) * cols])
        };
        F::mul_acc(d, s, by);
    }
}

/// Row-reduce an augmented matrix on its first `n` columns; returns
/// the rank of that block.
fn aug_row_echelon_first_n<F: Field>(m: &mut Matrix<F>, n: usize) -> usize {
    let mut pivot_row = 0;
    for col in 0..n {
        if pivot_row == m.rows() {
            break;
        }
        let Some(src) = (pivot_row..m.rows()).find(|&r| !m[(r, col)].is_zero()) else {
            continue;
        };
        m.swap_rows(pivot_row, src);
        let inv = m[(pivot_row, col)].inv();
        m.scale_row(pivot_row, inv);
        for r in 0..m.rows() {
            if r != pivot_row && !m[(r, col)].is_zero() {
                let factor = m[(r, col)];
                m.sub_scaled_row(r, pivot_row, factor);
            }
        }
        pivot_row += 1;
    }
    pivot_row
}

impl<F: Field> std::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = F;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &F {
        &self.data[r * self.cols + c]
    }
}

impl<F: Field> std::ops::IndexMut<(usize, usize)> for Matrix<F> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut F {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    fn f(v: u8) -> Gf256 {
        Gf256::new(v)
    }

    #[test]
    fn identity_properties() {
        let id = Matrix::<Gf256>::identity(4);
        assert_eq!(id.rank(), 4);
        let v = vec![f(1), f(2), f(3), f(4)];
        assert_eq!(id.mul_vec(&v), v);
        assert_eq!(id.mul_mat(&id), id);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = Matrix::from_rows(&[
            vec![f(1), f(2), f(3)],
            vec![f(2), f(4), f(6)], // 2 * row0 in GF(256)
            vec![f(0), f(1), f(0)],
        ]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn vandermonde_full_rank_on_distinct_points() {
        let m = Matrix::<Gf256>::vandermonde(&[1, 2, 3, 4, 5], 5);
        assert_eq!(m.rank(), 5);
    }

    #[test]
    fn vandermonde_repeated_points_rank_deficient() {
        let m = Matrix::<Gf256>::vandermonde(&[1, 2, 2], 3);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn solve_roundtrip() {
        let m = Matrix::<Gf256>::vandermonde(&[3, 7, 11], 3);
        let x = vec![f(9), f(30), f(200)];
        let b = m.mul_vec(&x);
        let solved = m.solve(&b).unwrap();
        assert_eq!(solved, x);
    }

    #[test]
    fn solve_singular_errors() {
        let m = Matrix::from_rows(&[vec![f(1), f(2)], vec![f(1), f(2)]]);
        assert_eq!(
            m.solve(&[f(1), f(1)]).unwrap_err(),
            CodingError::SingularSystem
        );
    }

    #[test]
    fn solve_non_square_errors() {
        let m = Matrix::from_rows(&[vec![f(1), f(2), f(3)], vec![f(0), f(1), f(1)]]);
        assert!(m.solve(&[f(1), f(1)]).is_err());
    }

    #[test]
    fn row_echelon_idempotent_rank() {
        let mut m = Matrix::<Gf256>::vandermonde(&[1, 5, 9, 13], 4);
        let r1 = m.row_echelon();
        let r2 = m.clone().row_echelon();
        assert_eq!(r1, 4);
        assert_eq!(r1, r2);
    }

    #[test]
    fn zero_matrix_rank_zero() {
        assert_eq!(Matrix::<Gf256>::zero(3, 5).rank(), 0);
    }

    #[test]
    fn mul_mat_associativity_spot() {
        let a = Matrix::<Gf256>::vandermonde(&[1, 2], 2);
        let b = Matrix::<Gf256>::vandermonde(&[3, 4], 2);
        let c = Matrix::<Gf256>::vandermonde(&[5, 6], 2);
        assert_eq!(a.mul_mat(&b).mul_mat(&c), a.mul_mat(&b.mul_mat(&c)));
    }
}
