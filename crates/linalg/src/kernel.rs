//! Blocked, runtime-dispatched GEMM kernels for `f32` and `f64`.
//!
//! This module is the bottom layer of the workspace's inference plane: the
//! dense forward passes in `fsda_nn` compile down to the kernels here, and
//! [`crate::Matrix::matmul`] itself dispatches through [`Element::gemm_nn`].
//!
//! # Bit-exactness contract
//!
//! The `f64` kernels are **bit-identical** to the naive reference loop
//! ([`crate::Matrix::matmul_naive`]) for *every* input, including NaN and
//! infinity (the one exception is the payload of a NaN result, which the
//! compiler does not keep stable even between two scalar builds; NaN
//! *placement* is exact):
//!
//! - each output element accumulates its `k` terms in ascending order into a
//!   single accumulator (no split-`k`, no pairwise reduction),
//! - the reference's zero-skip (`a == 0.0` terms are omitted) is preserved,
//!   so non-finite right-hand values multiplied by an exact zero are skipped
//!   exactly like the reference skips them,
//! - the AVX2 path vectorizes across *output columns only* — every lane is
//!   an independent output element running the identical ascending-`k`
//!   multiply-then-add chain — and never uses FMA, whose single rounding
//!   would diverge from the two-rounding scalar sequence.
//!
//! The `f32` kernels carry no bit contract against `f64`; they use FMA and
//! are simply deterministic for a fixed dispatch path. Divergence versus the
//! exact path is measured and recorded by the `perf_baseline` bench (see
//! `docs/KERNELS.md`).
//!
//! # Dispatch
//!
//! [`kernel_path`] probes the CPU once per process (`std::arch` feature
//! detection) and selects AVX2 micro-kernels when AVX2+FMA are available,
//! falling back to portable scalar loops otherwise. The selected path is
//! reported once per process through the `linalg.kernel.dispatch` telemetry
//! event.
//!
//! # Example
//!
//! ```
//! use fsda_linalg::kernel::{matmul_nt, Element};
//! use fsda_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
//! // A · Wᵀ without materializing the transpose:
//! assert_eq!(matmul_nt(&a, &w), a);
//! // The generic entry point, usable at f32 or f64: C += A · B.
//! let mut c = vec![1.0f32; 2];
//! f32::gemm_nn(1, 2, 2, &[5.0, 7.0], &[1.0, 0.0, 0.0, 1.0], &mut c);
//! assert_eq!(c, [6.0, 8.0]);
//! ```

use crate::Matrix;
use fsda_telemetry::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Rows of `A` processed per register tile: each packed `B` row loaded from
/// L1 is reused across this many output rows.
const TILE_ROWS: usize = 4;

/// Minimum batch size at which [`matmul_nt`] packs `Bᵀ` into thread-local
/// scratch and runs the blocked kernel; smaller batches use latency-bound
/// dot products directly on the untransposed weights, which is cheaper than
/// paying the `O(k·n)` pack.
const PACK_MIN_ROWS: usize = 8;

/// Elementwise activation applied by the fused affine epilogue.
///
/// The formulas are *exactly* those of `fsda_nn`'s activation layers (ReLU
/// `x.max(0.0)`, LeakyReLU slope `0.2`, tanh, and the numerically-stable
/// two-branch sigmoid), so a fused `act(x·Wᵀ + b)` kernel at `f64` is
/// bit-identical to the unfused layer sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Pass-through (affine layer with no fused activation).
    Identity,
    /// `max(0, x)`.
    Relu,
    /// `x` for `x > 0`, `0.2 * x` otherwise.
    LeakyRelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Numerically-stable logistic sigmoid.
    Sigmoid,
}

impl Act {
    /// Evaluates the activation at `f64`, bit-identical to the `fsda_nn`
    /// layer formulas.
    #[inline]
    pub fn eval_f64(self, x: f64) -> f64 {
        match self {
            Act::Identity => x,
            Act::Relu => x.max(0.0),
            Act::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Act::Tanh => x.tanh(),
            Act::Sigmoid => {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
        }
    }

    /// Evaluates the activation at `f32` (same formulas, single precision).
    #[inline]
    pub fn eval_f32(self, x: f32) -> f32 {
        match self {
            Act::Identity => x,
            Act::Relu => x.max(0.0),
            Act::LeakyRelu => {
                if x > 0.0 {
                    x
                } else {
                    0.2 * x
                }
            }
            Act::Tanh => x.tanh(),
            Act::Sigmoid => {
                if x >= 0.0 {
                    1.0 / (1.0 + (-x).exp())
                } else {
                    let e = x.exp();
                    e / (1.0 + e)
                }
            }
        }
    }
}

/// The instruction path the kernels selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// AVX2 micro-kernels: 4-lane `f64` (multiply + add, FMA deliberately
    /// unused to preserve bit-exactness) and 8-lane FMA `f32`.
    Avx2,
    /// Portable scalar fallback (still blocked and auto-vectorizable).
    Scalar,
}

impl KernelPath {
    /// Short human-readable label (used in telemetry and benches).
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Avx2 => "avx2+fma",
            KernelPath::Scalar => "scalar",
        }
    }
}

static PATH: OnceLock<KernelPath> = OnceLock::new();

/// The kernel path selected for this process (probed once, then cached).
pub fn kernel_path() -> KernelPath {
    *PATH.get_or_init(detect)
}

fn detect() -> KernelPath {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return KernelPath::Avx2;
        }
    }
    KernelPath::Scalar
}

static DISPATCH_NOTED: AtomicBool = AtomicBool::new(false);

/// Emits the `linalg.kernel.dispatch` event the first time a kernel runs
/// while telemetry is enabled. The flag is only consumed when a recorder can
/// observe the event, so a recorder installed later in the process still
/// receives exactly one dispatch report.
#[inline]
fn note_dispatch() {
    if fsda_telemetry::enabled() && !DISPATCH_NOTED.swap(true, Ordering::Relaxed) {
        let path = kernel_path();
        let (f64_lanes, f32_lanes) = match path {
            KernelPath::Avx2 => (4, 8),
            KernelPath::Scalar => (1, 1),
        };
        fsda_telemetry::event(
            "linalg.kernel.dispatch",
            &[
                ("path", Value::Str(path.label().to_string())),
                ("f64_lanes", Value::Int(f64_lanes)),
                ("f32_lanes", Value::Int(f32_lanes)),
                ("tile_rows", Value::Int(TILE_ROWS as i64)),
            ],
        );
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A scalar element the kernel plane is generic over (`f64` or `f32`).
///
/// The trait carries exactly the operations the inference plane needs —
/// GEMM over a pre-transposed weight panel, the fused bias+activation
/// epilogue, and the batch-norm affine — so the
/// stage logic in `fsda_nn`'s `InferPlan` is written once and instantiated
/// at both precisions. `Matrix` itself (and the decompositions and
/// statistics built on it) stays `f64`-only: the exact path is the
/// reference, and no numerical-analysis code is duplicated per precision.
pub trait Element:
    sealed::Sealed + Copy + Send + Sync + std::fmt::Debug + PartialEq + 'static
{
    /// Additive identity.
    const ZERO: Self;

    /// Converts from the workspace's canonical `f64`.
    fn from_f64(x: f64) -> Self;

    /// Converts back to `f64`.
    fn to_f64(self) -> f64;

    /// Whether the value is finite.
    fn is_finite_elem(self) -> bool;

    /// Evaluates an [`Act`] at this precision.
    fn eval_act(act: Act, x: Self) -> Self;

    /// The batch-norm inference affine in the exact operation order of
    /// `fsda_nn`'s layer: `gamma * ((x - mean) * std_inv) + beta`.
    fn batch_norm(x: Self, mean: Self, std_inv: Self, gamma: Self, beta: Self) -> Self;

    /// `C += A · B` with `A` `(m, k)`, `B` `(k, n)`, and `C` `(m, n)`, all
    /// row-major. `C` is accumulated into (callers pass a zeroed buffer for
    /// a plain product): each output element adds its `k` terms in
    /// ascending order onto the value `C` already holds, so splitting `k`
    /// into consecutive calls over consecutive row blocks of `B` gives the
    /// same bits as one call. At `f64` this is bit-identical to
    /// [`crate::Matrix::matmul_naive`] for every input, and no row's result
    /// depends on `m`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when a slice length disagrees with the
    /// stated shape.
    fn gemm_nn(m: usize, k: usize, n: usize, a: &[Self], b: &[Self], c: &mut [Self]);

    /// Fused epilogue: `c[r][j] = act(c[r][j] + bias[j])` over an
    /// `(m, n)` row-major `c` with `n = bias.len()`. At `f64` the
    /// add-then-activate order matches the unfused layer sequence
    /// bit-for-bit.
    fn bias_act(c: &mut [Self], bias: &[Self], act: Act);
}

impl Element for f64 {
    const ZERO: f64 = 0.0;

    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline]
    fn is_finite_elem(self) -> bool {
        self.is_finite()
    }

    #[inline]
    fn eval_act(act: Act, x: f64) -> f64 {
        act.eval_f64(x)
    }

    #[inline]
    fn batch_norm(x: f64, mean: f64, std_inv: f64, gamma: f64, beta: f64) -> f64 {
        let xh = (x - mean) * std_inv;
        gamma * xh + beta
    }

    fn gemm_nn(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
        debug_assert_eq!(a.len(), m * k, "gemm_nn: A length");
        debug_assert_eq!(b.len(), k * n, "gemm_nn: B length");
        debug_assert_eq!(c.len(), m * n, "gemm_nn: C length");
        note_dispatch();
        #[cfg(target_arch = "x86_64")]
        if kernel_path() == KernelPath::Avx2 {
            // SAFETY: AVX2 support was verified by `kernel_path`.
            unsafe { gemm_nn_f64_avx2(m, k, n, a, b, c) };
            return;
        }
        gemm_nn_f64_scalar(m, k, n, a, b, c);
    }

    fn bias_act(c: &mut [f64], bias: &[f64], act: Act) {
        let n = bias.len();
        if n == 0 {
            return;
        }
        debug_assert_eq!(c.len() % n, 0, "bias_act: C not a whole number of rows");
        for row in c.chunks_exact_mut(n) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv = act.eval_f64(*cv + bv);
            }
        }
    }
}

impl Element for f32 {
    const ZERO: f32 = 0.0;

    #[inline]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline]
    fn is_finite_elem(self) -> bool {
        self.is_finite()
    }

    #[inline]
    fn eval_act(act: Act, x: f32) -> f32 {
        act.eval_f32(x)
    }

    #[inline]
    fn batch_norm(x: f32, mean: f32, std_inv: f32, gamma: f32, beta: f32) -> f32 {
        let xh = (x - mean) * std_inv;
        gamma * xh + beta
    }

    fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        debug_assert_eq!(a.len(), m * k, "gemm_nn: A length");
        debug_assert_eq!(b.len(), k * n, "gemm_nn: B length");
        debug_assert_eq!(c.len(), m * n, "gemm_nn: C length");
        note_dispatch();
        #[cfg(target_arch = "x86_64")]
        if kernel_path() == KernelPath::Avx2 {
            // SAFETY: AVX2+FMA support was verified by `kernel_path`.
            unsafe { gemm_nn_f32_avx2(m, k, n, a, b, c) };
            return;
        }
        gemm_nn_f32_scalar(m, k, n, a, b, c);
    }

    fn bias_act(c: &mut [f32], bias: &[f32], act: Act) {
        let n = bias.len();
        if n == 0 {
            return;
        }
        debug_assert_eq!(c.len() % n, 0, "bias_act: C not a whole number of rows");
        for row in c.chunks_exact_mut(n) {
            for (cv, &bv) in row.iter_mut().zip(bias) {
                *cv = act.eval_f32(*cv + bv);
            }
        }
    }
}

/// Scalar blocked GEMM: `TILE_ROWS` rows of `A` share each streamed `B` row,
/// with the reference's ascending-`k` accumulation and zero-skip intact.
fn gemm_nn_f64_scalar(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + TILE_ROWS).min(m);
        for kk in 0..k {
            let brow = &b[kk * n..kk * n + n];
            for i in i0..i1 {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let crow = &mut c[i * n..i * n + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        i0 = i1;
    }
}

fn gemm_nn_f32_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + TILE_ROWS).min(m);
        for kk in 0..k {
            let brow = &b[kk * n..kk * n + n];
            for i in i0..i1 {
                let av = a[i * k + kk];
                if av == 0.0 {
                    continue;
                }
                let crow = &mut c[i * n..i * n + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
        i0 = i1;
    }
}

/// AVX2 `f64` GEMM. Register-blocked: a 2-row × 16-column panel of `C`
/// lives in eight ymm accumulators across the entire `k` loop, so `C` is
/// loaded and stored once per panel instead of once per `k` step. Lanes are
/// independent output columns; each runs the scalar reference's exact
/// multiply-then-add ascending-`k` chain with the zero-skip, so the result
/// is bit-identical to [`gemm_nn_f64_scalar`] (FMA is deliberately not
/// used — its single rounding would break the two-rounding contract).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_f64_avx2(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    // 16-column panels, two A rows per pass.
    let mut j0 = 0;
    while j0 + 16 <= n {
        let mut i = 0;
        while i + 2 <= m {
            let c0 = cp.add(i * n + j0);
            let c1 = cp.add((i + 1) * n + j0);
            let mut acc00 = _mm256_loadu_pd(c0);
            let mut acc01 = _mm256_loadu_pd(c0.add(4));
            let mut acc02 = _mm256_loadu_pd(c0.add(8));
            let mut acc03 = _mm256_loadu_pd(c0.add(12));
            let mut acc10 = _mm256_loadu_pd(c1);
            let mut acc11 = _mm256_loadu_pd(c1.add(4));
            let mut acc12 = _mm256_loadu_pd(c1.add(8));
            let mut acc13 = _mm256_loadu_pd(c1.add(12));
            for kk in 0..k {
                let brow = bp.add(kk * n + j0);
                let vb0 = _mm256_loadu_pd(brow);
                let vb1 = _mm256_loadu_pd(brow.add(4));
                let vb2 = _mm256_loadu_pd(brow.add(8));
                let vb3 = _mm256_loadu_pd(brow.add(12));
                let av0 = *ap.add(i * k + kk);
                if av0 != 0.0 {
                    let va = _mm256_set1_pd(av0);
                    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(va, vb0));
                    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(va, vb1));
                    acc02 = _mm256_add_pd(acc02, _mm256_mul_pd(va, vb2));
                    acc03 = _mm256_add_pd(acc03, _mm256_mul_pd(va, vb3));
                }
                let av1 = *ap.add((i + 1) * k + kk);
                if av1 != 0.0 {
                    let va = _mm256_set1_pd(av1);
                    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(va, vb0));
                    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(va, vb1));
                    acc12 = _mm256_add_pd(acc12, _mm256_mul_pd(va, vb2));
                    acc13 = _mm256_add_pd(acc13, _mm256_mul_pd(va, vb3));
                }
            }
            _mm256_storeu_pd(c0, acc00);
            _mm256_storeu_pd(c0.add(4), acc01);
            _mm256_storeu_pd(c0.add(8), acc02);
            _mm256_storeu_pd(c0.add(12), acc03);
            _mm256_storeu_pd(c1, acc10);
            _mm256_storeu_pd(c1.add(4), acc11);
            _mm256_storeu_pd(c1.add(8), acc12);
            _mm256_storeu_pd(c1.add(12), acc13);
            i += 2;
        }
        if i < m {
            let c0 = cp.add(i * n + j0);
            let mut acc0 = _mm256_loadu_pd(c0);
            let mut acc1 = _mm256_loadu_pd(c0.add(4));
            let mut acc2 = _mm256_loadu_pd(c0.add(8));
            let mut acc3 = _mm256_loadu_pd(c0.add(12));
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                let brow = bp.add(kk * n + j0);
                let va = _mm256_set1_pd(av);
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(va, _mm256_loadu_pd(brow)));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(va, _mm256_loadu_pd(brow.add(4))));
                acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(va, _mm256_loadu_pd(brow.add(8))));
                acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(va, _mm256_loadu_pd(brow.add(12))));
            }
            _mm256_storeu_pd(c0, acc0);
            _mm256_storeu_pd(c0.add(4), acc1);
            _mm256_storeu_pd(c0.add(8), acc2);
            _mm256_storeu_pd(c0.add(12), acc3);
        }
        j0 += 16;
    }
    // 4-column panels for the tail.
    while j0 + 4 <= n {
        for i in 0..m {
            let mut acc = _mm256_loadu_pd(cp.add(i * n + j0));
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                let vb = _mm256_loadu_pd(bp.add(kk * n + j0));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(av), vb));
            }
            _mm256_storeu_pd(cp.add(i * n + j0), acc);
        }
        j0 += 4;
    }
    // Remaining scalar columns.
    while j0 < n {
        for i in 0..m {
            let mut acc = *cp.add(i * n + j0);
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                acc += av * *bp.add(kk * n + j0);
            }
            *cp.add(i * n + j0) = acc;
        }
        j0 += 1;
    }
}

/// AVX2+FMA `f32` GEMM: register-blocked 2-row × 32-column `C` panels with
/// 8-lane fused multiply-add. No bit contract against the `f64` reference —
/// divergence is measured, not forbidden — but the result is deterministic
/// for a fixed dispatch path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nn_f32_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    use std::arch::x86_64::*;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let cp = c.as_mut_ptr();
    // 32-column panels, two A rows per pass.
    let mut j0 = 0;
    while j0 + 32 <= n {
        let mut i = 0;
        while i + 2 <= m {
            let c0 = cp.add(i * n + j0);
            let c1 = cp.add((i + 1) * n + j0);
            let mut acc00 = _mm256_loadu_ps(c0);
            let mut acc01 = _mm256_loadu_ps(c0.add(8));
            let mut acc02 = _mm256_loadu_ps(c0.add(16));
            let mut acc03 = _mm256_loadu_ps(c0.add(24));
            let mut acc10 = _mm256_loadu_ps(c1);
            let mut acc11 = _mm256_loadu_ps(c1.add(8));
            let mut acc12 = _mm256_loadu_ps(c1.add(16));
            let mut acc13 = _mm256_loadu_ps(c1.add(24));
            for kk in 0..k {
                let brow = bp.add(kk * n + j0);
                let vb0 = _mm256_loadu_ps(brow);
                let vb1 = _mm256_loadu_ps(brow.add(8));
                let vb2 = _mm256_loadu_ps(brow.add(16));
                let vb3 = _mm256_loadu_ps(brow.add(24));
                let av0 = *ap.add(i * k + kk);
                if av0 != 0.0 {
                    let va = _mm256_set1_ps(av0);
                    acc00 = _mm256_fmadd_ps(va, vb0, acc00);
                    acc01 = _mm256_fmadd_ps(va, vb1, acc01);
                    acc02 = _mm256_fmadd_ps(va, vb2, acc02);
                    acc03 = _mm256_fmadd_ps(va, vb3, acc03);
                }
                let av1 = *ap.add((i + 1) * k + kk);
                if av1 != 0.0 {
                    let va = _mm256_set1_ps(av1);
                    acc10 = _mm256_fmadd_ps(va, vb0, acc10);
                    acc11 = _mm256_fmadd_ps(va, vb1, acc11);
                    acc12 = _mm256_fmadd_ps(va, vb2, acc12);
                    acc13 = _mm256_fmadd_ps(va, vb3, acc13);
                }
            }
            _mm256_storeu_ps(c0, acc00);
            _mm256_storeu_ps(c0.add(8), acc01);
            _mm256_storeu_ps(c0.add(16), acc02);
            _mm256_storeu_ps(c0.add(24), acc03);
            _mm256_storeu_ps(c1, acc10);
            _mm256_storeu_ps(c1.add(8), acc11);
            _mm256_storeu_ps(c1.add(16), acc12);
            _mm256_storeu_ps(c1.add(24), acc13);
            i += 2;
        }
        if i < m {
            let c0 = cp.add(i * n + j0);
            let mut acc0 = _mm256_loadu_ps(c0);
            let mut acc1 = _mm256_loadu_ps(c0.add(8));
            let mut acc2 = _mm256_loadu_ps(c0.add(16));
            let mut acc3 = _mm256_loadu_ps(c0.add(24));
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                let brow = bp.add(kk * n + j0);
                let va = _mm256_set1_ps(av);
                acc0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow), acc0);
                acc1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(8)), acc1);
                acc2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(16)), acc2);
                acc3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(brow.add(24)), acc3);
            }
            _mm256_storeu_ps(c0, acc0);
            _mm256_storeu_ps(c0.add(8), acc1);
            _mm256_storeu_ps(c0.add(16), acc2);
            _mm256_storeu_ps(c0.add(24), acc3);
        }
        j0 += 32;
    }
    // 8-column panels for the tail.
    while j0 + 8 <= n {
        for i in 0..m {
            let mut acc = _mm256_loadu_ps(cp.add(i * n + j0));
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                let vb = _mm256_loadu_ps(bp.add(kk * n + j0));
                acc = _mm256_fmadd_ps(_mm256_set1_ps(av), vb, acc);
            }
            _mm256_storeu_ps(cp.add(i * n + j0), acc);
        }
        j0 += 8;
    }
    // Remaining scalar columns.
    while j0 < n {
        for i in 0..m {
            let mut acc = *cp.add(i * n + j0);
            for kk in 0..k {
                let av = *ap.add(i * k + kk);
                if av == 0.0 {
                    continue;
                }
                acc += av * *bp.add(kk * n + j0);
            }
            *cp.add(i * n + j0) = acc;
        }
        j0 += 1;
    }
}

thread_local! {
    /// Per-thread pack buffer for [`matmul_nt`], so the hot serving path
    /// never allocates a transpose per call.
    static NT_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// `A · Wᵀ` with `A` `(m, k)` and `W` `(n, k)` — the dense-layer forward
/// orientation — **without** materializing `Wᵀ` per call.
///
/// Batches of at least `PACK_MIN_ROWS` rows pack `Wᵀ` into thread-local
/// scratch once and run the blocked GEMM; smaller batches use dot products
/// directly on `W`'s rows. Both paths are bit-identical to
/// `a.matmul(&w.transpose())` for every input (the zero-skip on `A`
/// elements is preserved exactly).
///
/// # Panics
///
/// Panics when `a.cols() != w.cols()`.
pub fn matmul_nt(a: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        w.cols(),
        "matmul_nt: {}x{} * ({}x{})^T",
        a.rows(),
        a.cols(),
        w.rows(),
        w.cols()
    );
    let (m, k) = a.shape();
    let n = w.rows();
    let mut out = Matrix::zeros(m, n);
    if n == 0 || k == 0 {
        return out;
    }
    if m >= PACK_MIN_ROWS {
        NT_SCRATCH.with(|scratch| {
            let mut packed = scratch.borrow_mut();
            packed.clear();
            packed.resize(k * n, 0.0);
            let wd = w.as_slice();
            for (j, wrow) in wd.chunks_exact(k).enumerate() {
                for (kk, &wv) in wrow.iter().enumerate() {
                    packed[kk * n + j] = wv;
                }
            }
            <f64 as Element>::gemm_nn(m, k, n, a.as_slice(), &packed, out.as_mut_slice());
        });
    } else {
        for (arow, orow) in a.iter_rows().zip(out.as_mut_slice().chunks_exact_mut(n)) {
            for (o, wrow) in orow.iter_mut().zip(w.as_slice().chunks_exact(k)) {
                // Ascending-`k` dot product with the reference's zero-skip.
                for (&av, &wv) in arow.iter().zip(wrow) {
                    if av != 0.0 {
                        *o += av * wv;
                    }
                }
            }
        }
    }
    out
}

/// `Aᵀ · B` with `A` `(k, m)` and `B` `(k, n)` — the dense-layer
/// weight-gradient orientation — without materializing `Aᵀ`.
///
/// Bit-identical to `a.transpose().matmul(b)` for every input.
///
/// # Panics
///
/// Panics when `a.rows() != b.rows()`.
pub fn matmul_at(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_at: ({}x{})^T * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    if n == 0 {
        return out;
    }
    let ad = a.as_slice();
    let bd = b.as_slice();
    let od = out.as_mut_slice();
    for i in 0..m {
        let orow = &mut od[i * n..i * n + n];
        for kk in 0..k {
            let av = ad[kk * m + i];
            if av == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..kk * n + n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_nt(a: &Matrix, w: &Matrix) -> Matrix {
        a.matmul_naive(&w.transpose())
    }

    #[test]
    fn dispatch_is_stable() {
        assert_eq!(kernel_path(), kernel_path());
        assert!(!kernel_path().label().is_empty());
    }

    #[test]
    fn gemm_matches_naive_bitwise() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 31 + j * 17) as f64).sin());
        let b = Matrix::from_fn(5, 9, |i, j| ((i * 13 + j * 7) as f64).cos());
        let mut c = vec![0.0; 7 * 9];
        <f64 as Element>::gemm_nn(7, 5, 9, a.as_slice(), b.as_slice(), &mut c);
        let reference = a.matmul_naive(&b);
        for (x, y) in c.iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gemm_preserves_zero_skip_under_nan() {
        // A zero in A must mask a NaN in B, exactly like the reference.
        let a = Matrix::from_rows(&[&[0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[f64::NAN, 1.0], &[3.0, 4.0]]);
        let mut c = vec![0.0; 2];
        <f64 as Element>::gemm_nn(1, 2, 2, a.as_slice(), b.as_slice(), &mut c);
        let reference = a.matmul_naive(&b);
        assert_eq!(c[0].to_bits(), reference.get(0, 0).to_bits());
        assert_eq!(c[1].to_bits(), reference.get(0, 1).to_bits());
        assert!(c[0].is_finite());
    }

    #[test]
    fn matmul_nt_matches_both_paths() {
        let w = Matrix::from_fn(6, 5, |i, j| ((i + 2 * j) as f64).sin());
        // Small batch: dot path. Large batch: pack path.
        for m in [1, 3, PACK_MIN_ROWS, 33] {
            let a = Matrix::from_fn(m, 5, |i, j| ((3 * i + j) as f64).cos());
            let fast = matmul_nt(&a, &w);
            let slow = naive_nt(&a, &w);
            assert_eq!(fast.shape(), slow.shape());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m}");
            }
        }
    }

    #[test]
    fn matmul_at_matches_transpose_matmul() {
        let a = Matrix::from_fn(5, 4, |i, j| (i as f64 - j as f64) * 0.7);
        let b = Matrix::from_fn(5, 6, |i, j| (i as f64 + j as f64) * 0.3);
        let fast = matmul_at(&a, &b);
        let slow = a.transpose().matmul_naive(&b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fused_bias_act_matches_unfused() {
        let bias = [0.5, -0.25, 1.5];
        let mut c = vec![-1.0, 0.0, 2.0, 3.0, -0.5, 0.25];
        let mut unfused = c.clone();
        <f64 as Element>::bias_act(&mut c, &bias, Act::LeakyRelu);
        for row in unfused.chunks_exact_mut(3) {
            for (v, &b) in row.iter_mut().zip(&bias) {
                *v += b;
            }
            for v in row.iter_mut() {
                *v = if *v > 0.0 { *v } else { 0.2 * *v };
            }
        }
        for (x, y) in c.iter().zip(&unfused) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn f32_gemm_is_close_to_f64() {
        let a64 = Matrix::from_fn(10, 8, |i, j| ((i * 3 + j) as f64 * 0.13).sin());
        let b64 = Matrix::from_fn(8, 12, |i, j| ((i + j * 5) as f64 * 0.07).cos());
        let a32: Vec<f32> = a64.as_slice().iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b64.as_slice().iter().map(|&v| v as f32).collect();
        let mut c32 = vec![0.0f32; 10 * 12];
        <f32 as Element>::gemm_nn(10, 8, 12, &a32, &b32, &mut c32);
        let c64 = a64.matmul_naive(&b64);
        for (x, y) in c32.iter().zip(c64.as_slice()) {
            assert!((f64::from(*x) - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn act_formulas_match_reference() {
        for &x in &[-3.0, -0.5, 0.0, 0.5, 3.0, 1000.0, -1000.0] {
            assert_eq!(Act::Relu.eval_f64(x).to_bits(), x.max(0.0).to_bits());
            let leaky = if x > 0.0 { x } else { 0.2 * x };
            assert_eq!(Act::LeakyRelu.eval_f64(x).to_bits(), leaky.to_bits());
            assert_eq!(Act::Tanh.eval_f64(x).to_bits(), x.tanh().to_bits());
            assert!(Act::Sigmoid.eval_f64(x).is_finite());
            assert_eq!(Act::Identity.eval_f64(x).to_bits(), x.to_bits());
        }
        assert!((Act::Sigmoid.eval_f64(0.0) - 0.5).abs() < 1e-12);
        assert!((Act::Sigmoid.eval_f32(0.0) - 0.5).abs() < 1e-6);
    }
}
