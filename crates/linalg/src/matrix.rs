//! Row-major dense matrix type and core operations.

use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the workhorse container of the workspace: datasets are stored
/// as one row per sample, neural-network weights as `(out, in)` matrices,
/// covariance matrices as square symmetric matrices, and so on.
///
/// # Example
///
/// ```
/// use fsda_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
/// assert_eq!(m.shape(), (2, 3));
/// assert_eq!(m.get(1, 2), 6.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "from_rows: row {i} has length {} != {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds");
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// Dispatches through the blocked, runtime-selected kernels in
    /// [`crate::kernel`]; the result is bit-identical to
    /// [`Matrix::matmul_naive`] for every input (see the kernel module's
    /// bit-exactness contract).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        <f64 as crate::kernel::Element>::gemm_nn(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Reference matrix product: the pre-kernel `ikj` triple loop (the
    /// workspace's legacy `matmul`).
    ///
    /// This is the bit-exactness reference the blocked kernels are pinned
    /// against (see `tests/kernel_props.rs`). Prefer [`Matrix::matmul`]
    /// everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order: cache-friendly for row-major layout.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[k * other.cols..(k + 1) * other.cols];
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Textbook matrix product: the `ijk` triple loop — one serial dot
    /// product per output cell over a column-strided right-hand side.
    ///
    /// Bit-identical to [`Matrix::matmul_naive`] for every input (each cell
    /// accumulates its `k` terms in ascending order with the same
    /// multiply-then-add rounding and the same zero-skip), but the serial
    /// scalar accumulator and strided `B` walk keep it at latency-bound
    /// throughput — this is the "naive-f64" baseline of the
    /// `reconstruction_kernels` bench section, the classic starting point
    /// every blocked GEMM is measured against.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_textbook(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let k = self.cols;
        let n = other.cols;
        let mut out = Matrix::zeros(self.rows, n);
        for i in 0..self.rows {
            let arow = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let mut acc = 0.0;
                for (kk, &a) in arow.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    acc += a * other.data[kk * n + j];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Symmetric Gram product `self * selfᵀ`, computing only the upper
    /// triangle and mirroring it.
    ///
    /// Bit-identical to `self.matmul(&self.transpose())` for every input:
    /// the upper triangle runs the exact reference accumulation; the mirror
    /// is bit-safe because IEEE multiplication commutes bitwise and an
    /// accumulator that starts at `+0.0` can never become `-0.0` (so the
    /// differing zero-skip pattern between `[i][j]` and `[j][i]` cannot
    /// change the sum); entries involving a non-finite row — where those
    /// two arguments break down — are recomputed with the reference loop.
    pub fn gram(&self) -> Matrix {
        let m = self.rows;
        let k = self.cols;
        let zt = self.transpose();
        let mut out = Matrix::zeros(m, m);
        let finite: Vec<bool> = self
            .iter_rows()
            .map(|r| r.iter().all(|v| v.is_finite()))
            .collect();
        for i in 0..m {
            // Upper-triangle segment out[i][i..]: ascending-k accumulation
            // with the reference's zero-skip on the left factor.
            for kk in 0..k {
                let a = self.data[i * k + kk];
                if a == 0.0 {
                    continue;
                }
                let zrow = &zt.data[kk * m + i..(kk + 1) * m];
                let orow = &mut out.data[i * m + i..(i + 1) * m];
                for (o, &b) in orow.iter_mut().zip(zrow) {
                    *o += a * b;
                }
            }
            for j in (i + 1)..m {
                out.data[j * m + i] = if finite[i] && finite[j] {
                    out.data[i * m + j]
                } else {
                    dot_skip(self.row(j), self.row(i))
                };
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec: vector length {} != cols {}",
            v.len(),
            self.cols
        );
        self.iter_rows().map(|row| dot(row, v)).collect()
    }

    /// Elementwise sum; fails on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn try_add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference; fails on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn try_sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product; fails on shape mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn try_hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a * b)
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch(format!(
                "{}x{} vs {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Multiplies every element by `s` and returns the result.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `s * other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, s: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Selects the given rows (in order, duplicates allowed) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &r) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Selects the given columns (in order) into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (k, &c) in indices.iter().enumerate() {
                dst[k] = src[c];
            }
        }
        out
    }

    /// Stacks `self` on top of `other` (row-wise concatenation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch(format!(
                "vstack: {} cols vs {} cols",
                self.cols, other.cols
            )));
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates `self` and `other` side by side (column-wise).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch(format!(
                "hstack: {} rows vs {} rows",
                self.rows, other.rows
            )));
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Matrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Mean of each column.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Sample standard deviation of each column (denominator `n - 1`;
    /// zero when fewer than two rows).
    pub fn col_stds(&self) -> Vec<f64> {
        if self.rows < 2 {
            return vec![0.0; self.cols];
        }
        let means = self.col_means();
        let mut acc = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for ((a, &x), &m) in acc.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *a += d * d;
            }
        }
        let n = (self.rows - 1) as f64;
        acc.into_iter().map(|a| (a / n).sqrt()).collect()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute element; 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &x| acc.max(x.abs()))
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows().take(8) {
            write!(f, "  ")?;
            for v in row.iter().take(10) {
                write!(f, "{v:>10.4} ")?;
            }
            if self.cols > 10 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: lengths {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Dot product with the matmul reference's zero-skip on the left factor:
/// per-element it is exactly one output cell of [`Matrix::matmul_naive`].
fn dot_skip(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        if x == 0.0 {
            continue;
        }
        acc += x * y;
    }
    acc
}

/// Euclidean norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean_distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity between two slices; 0.0 when either has zero norm.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn identity_is_diagonal() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = sample();
        let b = a.transpose();
        let p = a.matmul(&b);
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.get(0, 0), 14.0);
        assert_eq!(p.get(0, 1), 32.0);
        assert_eq!(p.get(1, 1), 77.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let id = Matrix::identity(3);
        assert_eq!(m.matmul(&id), m);
    }

    #[test]
    fn matvec_matches_matmul() {
        let m = sample();
        let v = vec![1.0, 0.5, -1.0];
        let got = m.matvec(&v);
        assert!((got[0] - (1.0 + 1.0 - 3.0)).abs() < 1e-12);
        assert!((got[1] - (4.0 + 2.5 - 6.0)).abs() < 1e-12);
    }

    #[test]
    fn add_sub_hadamard() {
        let m = sample();
        let sum = m.try_add(&m).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = sum.try_sub(&m).unwrap();
        assert_eq!(diff, m);
        let had = m.try_hadamard(&m).unwrap();
        assert_eq!(had.get(0, 2), 9.0);
    }

    #[test]
    fn shape_mismatch_errors() {
        let m = sample();
        let other = Matrix::zeros(3, 3);
        assert!(matches!(
            m.try_add(&other),
            Err(LinalgError::ShapeMismatch(_))
        ));
        assert!(matches!(
            m.vstack(&Matrix::zeros(1, 2)),
            Err(LinalgError::ShapeMismatch(_))
        ));
        assert!(matches!(
            m.hstack(&Matrix::zeros(3, 1)),
            Err(LinalgError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn stacking() {
        let m = sample();
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(2), m.row(0));
        let h = m.hstack(&m).unwrap();
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.get(0, 4), 2.0);
    }

    #[test]
    fn selection() {
        let m = sample();
        let r = m.select_rows(&[1, 0, 1]);
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r.row(0), m.row(1));
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn column_statistics() {
        let m = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 10.0]]);
        assert_eq!(m.col_means(), vec![2.0, 10.0]);
        let stds = m.col_stds();
        assert!((stds[0] - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
    }

    #[test]
    fn norms_and_similarity() {
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        let other = Matrix::identity(2);
        m.axpy(2.0, &other);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn display_has_dims() {
        let s = format!("{}", sample());
        assert!(s.contains("2x3"));
    }

    #[test]
    fn from_fn_builds_expected_values() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.get(1, 1), 11.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        sample().get(5, 0);
    }
}
