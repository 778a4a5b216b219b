//! Property tests pinning the blocked, dispatched kernels to the naive
//! reference loop — bit-for-bit at `f64`, within a measured envelope at
//! `f32` — across arbitrary shapes, sparsity patterns, and special values.

use fsda_linalg::kernel::{matmul_at, matmul_nt, Act, Element};
use fsda_linalg::{Matrix, SeededRng};
use proptest::prelude::*;

/// A random matrix with an exact-zero mass: the kernels preserve the
/// reference's zero-skip, so zero-rich inputs probe that path (post-ReLU
/// activations are roughly half zeros in practice).
fn sparse_matrix(seed: u64, rows: usize, cols: usize, zero_pct: f64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.uniform() < zero_pct {
            0.0
        } else {
            rng.uniform_range(-2.0, 2.0)
        }
    })
}

fn assert_bits_eq(fast: &Matrix, slow: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), slow.shape());
    for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
        // NaN payloads are outside the contract (LLVM may commute the
        // operands of an addition, flipping which input NaN propagates);
        // NaN *placement* is exact, as is every non-NaN bit pattern.
        prop_assert!(
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
            "element {} diverged: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dispatched `Matrix::matmul` is bit-identical to the naive loop
    /// at arbitrary shapes — including shapes that exercise the register
    /// panel's row remainder and the AVX2 column-panel remainders — and the
    /// textbook `ijk` loop agrees bitwise with both (same ascending-`k`
    /// chain per cell, so all three are one equivalence class).
    #[test]
    fn matmul_bit_identical_to_naive(
        seed in 0u64..2000,
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..40,
        zero_pct in 0.0f64..0.9,
    ) {
        let a = sparse_matrix(seed, m, k, zero_pct);
        let b = sparse_matrix(seed ^ 0xB0B, k, n, zero_pct * 0.5);
        let reference = a.matmul_naive(&b);
        assert_bits_eq(&a.matmul(&b), &reference)?;
        assert_bits_eq(&a.matmul_textbook(&b), &reference)?;
    }

    /// The B-transposed product (dense-layer forward orientation) matches
    /// transpose-then-multiply bitwise on both the small-batch dot path and
    /// the packed GEMM path.
    #[test]
    fn matmul_nt_bit_identical(
        seed in 0u64..2000,
        m in 1usize..20,
        k in 1usize..16,
        n in 1usize..16,
        zero_pct in 0.0f64..0.9,
    ) {
        let a = sparse_matrix(seed, m, k, zero_pct);
        let w = sparse_matrix(seed ^ 0x17, n, k, zero_pct * 0.3);
        assert_bits_eq(&matmul_nt(&a, &w), &a.matmul_naive(&w.transpose()))?;
    }

    /// The A-transposed product (dense-layer weight-gradient orientation)
    /// matches transpose-then-multiply bitwise.
    #[test]
    fn matmul_at_bit_identical(
        seed in 0u64..2000,
        k in 1usize..16,
        m in 1usize..12,
        n in 1usize..12,
        zero_pct in 0.0f64..0.9,
    ) {
        let a = sparse_matrix(seed, k, m, zero_pct);
        let b = sparse_matrix(seed ^ 0x33, k, n, zero_pct * 0.3);
        assert_bits_eq(&matmul_at(&a, &b), &a.transpose().matmul_naive(&b))?;
    }

    /// `gram` (one triangle + mirror) is bit-identical to the full
    /// multiply-by-own-transpose, including zero-heavy rows where the
    /// mirrored skip pattern differs from the reference's.
    #[test]
    fn gram_bit_identical(
        seed in 0u64..2000,
        m in 1usize..14,
        k in 1usize..14,
        zero_pct in 0.0f64..0.95,
    ) {
        let z = sparse_matrix(seed, m, k, zero_pct);
        assert_bits_eq(&z.gram(), &z.matmul_naive(&z.transpose()))?;
    }

    /// Non-finite values flow through the kernels exactly as through the
    /// reference: the zero-skip masks them where the reference masks them
    /// and propagates them where the reference propagates them.
    #[test]
    fn special_values_match_reference(
        seed in 0u64..500,
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        poison_a in 0usize..2,
    ) {
        let poison_a = poison_a == 1;
        let mut a = sparse_matrix(seed, m, k, 0.5);
        let mut b = sparse_matrix(seed ^ 0x44, k, n, 0.5);
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let mut rng = SeededRng::new(seed ^ 0x99);
        for &s in &specials {
            let target = if poison_a { &mut a } else { &mut b };
            let (r, c) = (
                (rng.uniform() * target.rows() as f64) as usize % target.rows(),
                (rng.uniform() * target.cols() as f64) as usize % target.cols(),
            );
            target.set(r, c, s);
        }
        assert_bits_eq(&a.matmul(&b), &a.matmul_naive(&b))?;
        let g = a.gram();
        assert_bits_eq(&g, &a.matmul_naive(&a.transpose()))?;
    }

    /// The fused `act(A·B + bias)` epilogue is bit-identical to the unfused
    /// multiply / add-bias / activate sequence at `f64`.
    #[test]
    fn fused_affine_act_bit_identical(
        seed in 0u64..1000,
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        act_idx in 0usize..5,
    ) {
        let act = [Act::Identity, Act::Relu, Act::LeakyRelu, Act::Tanh, Act::Sigmoid][act_idx];
        let a = sparse_matrix(seed, m, k, 0.4);
        let b = sparse_matrix(seed ^ 0x7A, k, n, 0.0);
        let mut rng = SeededRng::new(seed ^ 0xF1);
        let bias: Vec<f64> = (0..n).map(|_| rng.uniform_range(-1.0, 1.0)).collect();

        // Fused kernel path.
        let mut c = vec![0.0; m * n];
        <f64 as Element>::gemm_nn(m, k, n, a.as_slice(), b.as_slice(), &mut c);
        <f64 as Element>::bias_act(&mut c, &bias, act);

        // Unfused reference sequence (exactly the legacy layer chain).
        let mut reference = a.matmul_naive(&b);
        for r in 0..m {
            let row = reference.row_mut(r);
            for (o, &bv) in row.iter_mut().zip(&bias) {
                *o += bv;
            }
        }
        let reference = reference.map(|x| act.eval_f64(x));
        for (x, y) in c.iter().zip(reference.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// The `f32` GEMM stays within a tight envelope of the exact `f64`
    /// product for unit-scale inputs (the normalized regime the inference
    /// plane runs in).
    #[test]
    fn f32_gemm_divergence_bounded(
        seed in 0u64..1000,
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..40,
    ) {
        let a = sparse_matrix(seed, m, k, 0.2);
        let b = sparse_matrix(seed ^ 0x5C, k, n, 0.2);
        let a32: Vec<f32> = a.as_slice().iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b.as_slice().iter().map(|&v| v as f32).collect();
        let mut c32 = vec![0.0f32; m * n];
        <f32 as Element>::gemm_nn(m, k, n, &a32, &b32, &mut c32);
        let c64 = a.matmul_naive(&b);
        // |error| <= k * max|a| * max|b| * ~f32 eps, with slack for the
        // double rounding of the inputs themselves.
        let bound = (k as f64) * 2.0 * 2.0 * 1e-6 + 1e-6;
        for (x, y) in c32.iter().zip(c64.as_slice()) {
            prop_assert!(
                (f64::from(*x) - y).abs() <= bound,
                "f32 {} vs f64 {} beyond {}",
                x, y, bound
            );
        }
    }
}
