//! Compiled, precision-generic inference plans.
//!
//! A [`Sequential`] network is an open-ended stack of boxed [`Layer`]s;
//! its [`Sequential::infer`] walks that stack layer by layer, transposing
//! weights and allocating an intermediate matrix per layer. An
//! [`InferPlan`] is the closed, immutable alternative: at compile time
//! (once per fitted model, not per batch) every supported layer is lowered
//! to a [`PlanOp`], the ops are fused (`Dense -> Activation` and
//! `BatchNorm -> Activation` become single stages with a fused epilogue),
//! weights are pre-transposed into the kernels' `(in, out)` layout, and
//! the whole stack is materialized at **both** `f64` and `f32` so callers
//! pick a precision per call with [`InferPrecision`].
//!
//! # Precision contract
//!
//! * [`InferPrecision::F64Exact`] (the default) is **bit-identical** to the
//!   legacy layer-by-layer path and to [`InferPlan::infer_textbook`]: the
//!   kernels preserve the naive reference's accumulation order, zero-skip,
//!   and two-rounding multiply/add (see [`fsda_linalg::kernel`]).
//! * [`InferPrecision::F32Fast`] converts weights once at compile time and
//!   inputs once per call, runs the 8-lane FMA `f32` kernels, and converts
//!   the output back to `f64`. Divergence from the exact path is bounded
//!   and benchmarked (`BENCH_runtime.json`, `f32_divergence`), not assumed.
//!
//! Networks containing a layer that does not lower (e.g. a Gumbel-softmax
//! discrete head, which needs per-block softmax) fail to compile with
//! [`PlanError::Unsupported`]; callers keep the legacy path as fallback.

use crate::{Layer, Sequential};
use fsda_linalg::kernel::{Act, Element};
use fsda_linalg::Matrix;

/// Numeric precision for a compiled forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InferPrecision {
    /// Exact `f64` kernels, bit-identical to the legacy layer-by-layer
    /// inference path. The default.
    #[default]
    F64Exact,
    /// Single-precision kernels (8-lane FMA on AVX2): roughly twice the
    /// arithmetic throughput and half the memory traffic, with a small,
    /// measured divergence from the exact path.
    F32Fast,
}

impl InferPrecision {
    /// Short label used in telemetry counter names and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            InferPrecision::F64Exact => "f64_exact",
            InferPrecision::F32Fast => "f32_fast",
        }
    }
}

/// Why a network could not be compiled into an [`InferPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A layer has no plan lowering (the payload names it).
    Unsupported(&'static str),
    /// Adjacent ops disagree about the feature dimension.
    DimMismatch {
        /// Dimension produced by the previous op.
        expected: usize,
        /// Dimension the offending op was built for.
        got: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Unsupported(what) => write!(f, "no plan lowering for {what}"),
            PlanError::DimMismatch { expected, got } => {
                write!(f, "plan dim mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A layer lowered to plan form (returned by [`Layer::plan_op`]).
///
/// `Identity` ops (dropout at eval, gradient reversal) are dropped during
/// compilation; `Nested` flattens; `Unsupported` aborts it.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Affine layer `y = x W^T + b` with `weight` in the layer's native
    /// `(out, in)` layout.
    Dense {
        /// Weight matrix, `(out, in)` row-major.
        weight: Matrix,
        /// Bias vector of length `out`.
        bias: Vec<f64>,
    },
    /// Batch normalization in evaluation mode (running statistics).
    BatchNorm {
        /// Running per-feature means.
        mean: Vec<f64>,
        /// Running per-feature (biased) variances.
        var: Vec<f64>,
        /// Variance floor added before the square root.
        eps: f64,
        /// Learned scale.
        gamma: Vec<f64>,
        /// Learned shift.
        beta: Vec<f64>,
    },
    /// Elementwise activation.
    Activation(Act),
    /// A layer that is the identity at inference time.
    Identity,
    /// A container's children, in order.
    Nested(Vec<PlanOp>),
    /// A layer with no plan lowering; the payload names the layer kind.
    Unsupported(&'static str),
}

/// One fused, precision-`T` execution stage.
#[derive(Debug, Clone)]
enum Stage<T> {
    /// `y = act(x · wt + bias)` with `wt` pre-transposed to `(in, out)`.
    Affine {
        in_dim: usize,
        out_dim: usize,
        wt: Vec<T>,
        bias: Vec<T>,
        act: Act,
    },
    /// `y = act(gamma * (x - mean) * std_inv + beta)` per feature, with
    /// `std_inv = 1 / sqrt(var + eps)` precomputed at compile time.
    Norm {
        mean: Vec<T>,
        std_inv: Vec<T>,
        gamma: Vec<T>,
        beta: Vec<T>,
        act: Act,
    },
    /// A bare elementwise activation that had nothing to fuse into.
    Act(Act),
}

impl Stage<f64> {
    fn to_f32(&self) -> Stage<f32> {
        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        match self {
            Stage::Affine {
                in_dim,
                out_dim,
                wt,
                bias,
                act,
            } => Stage::Affine {
                in_dim: *in_dim,
                out_dim: *out_dim,
                wt: narrow(wt),
                bias: narrow(bias),
                act: *act,
            },
            Stage::Norm {
                mean,
                std_inv,
                gamma,
                beta,
                act,
            } => Stage::Norm {
                mean: narrow(mean),
                std_inv: narrow(std_inv),
                gamma: narrow(gamma),
                beta: narrow(beta),
                act: *act,
            },
            Stage::Act(act) => Stage::Act(*act),
        }
    }
}

/// An immutable, compiled forward pass at both precisions.
///
/// # Example
///
/// ```
/// use fsda_linalg::{Matrix, SeededRng};
/// use fsda_nn::layer::{Activation, Dense};
/// use fsda_nn::plan::{InferPlan, InferPrecision};
/// use fsda_nn::Sequential;
///
/// let mut rng = SeededRng::new(7);
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, &mut rng));
/// net.push(Activation::relu());
/// net.push(Dense::new(8, 2, &mut rng));
///
/// let plan = InferPlan::compile(&net).unwrap();
/// let x = Matrix::from_fn(5, 4, |i, j| (i as f64 - j as f64) * 0.3);
/// let exact = plan.infer(&x, InferPrecision::F64Exact);
/// // The compiled f64 path is bit-identical to the layer-by-layer path.
/// assert_eq!(exact.as_slice(), net.infer(&x).as_slice());
/// ```
#[derive(Debug, Clone)]
pub struct InferPlan {
    stages64: Vec<Stage<f64>>,
    stages32: Vec<Stage<f32>>,
    in_dim: Option<usize>,
    out_dim: Option<usize>,
}

impl InferPlan {
    /// Compiles a [`Sequential`] network.
    pub fn compile(net: &Sequential) -> Result<Self, PlanError> {
        Self::from_op(Layer::plan_op(net))
    }

    /// Compiles a single layer (e.g. a bare [`crate::layer::Dense`] head).
    pub fn compile_layer(layer: &dyn Layer) -> Result<Self, PlanError> {
        Self::from_op(layer.plan_op())
    }

    /// Compiles an explicit op tree.
    pub fn from_op(op: PlanOp) -> Result<Self, PlanError> {
        let mut ops = Vec::new();
        flatten(op, &mut ops)?;
        let mut stages64: Vec<Stage<f64>> = Vec::new();
        let mut in_dim = None;
        let mut dim: Option<usize> = None;
        for op in ops {
            match op {
                PlanOp::Dense { weight, bias } => {
                    let (out_d, in_d) = weight.shape();
                    if let Some(d) = dim {
                        if d != in_d {
                            return Err(PlanError::DimMismatch {
                                expected: d,
                                got: in_d,
                            });
                        }
                    }
                    in_dim.get_or_insert(in_d);
                    stages64.push(Stage::Affine {
                        in_dim: in_d,
                        out_dim: out_d,
                        wt: weight.transpose().into_vec(),
                        bias,
                        act: Act::Identity,
                    });
                    dim = Some(out_d);
                }
                PlanOp::BatchNorm {
                    mean,
                    var,
                    eps,
                    gamma,
                    beta,
                } => {
                    let d = mean.len();
                    if let Some(prev) = dim {
                        if prev != d {
                            return Err(PlanError::DimMismatch {
                                expected: prev,
                                got: d,
                            });
                        }
                    }
                    in_dim.get_or_insert(d);
                    // Precompute 1/sqrt(var + eps) exactly as the layer does
                    // per call, so the per-element math is unchanged.
                    let std_inv = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
                    stages64.push(Stage::Norm {
                        mean,
                        std_inv,
                        gamma,
                        beta,
                        act: Act::Identity,
                    });
                    dim = Some(d);
                }
                PlanOp::Activation(act) => match stages64.last_mut() {
                    Some(Stage::Affine { act: slot, .. } | Stage::Norm { act: slot, .. })
                        if *slot == Act::Identity =>
                    {
                        *slot = act;
                    }
                    _ => stages64.push(Stage::Act(act)),
                },
                PlanOp::Identity | PlanOp::Nested(_) | PlanOp::Unsupported(_) => {
                    unreachable!("flatten removes structural ops")
                }
            }
        }
        let stages32 = stages64.iter().map(Stage::to_f32).collect();
        Ok(InferPlan {
            stages64,
            stages32,
            in_dim,
            out_dim: dim,
        })
    }

    /// Input width the plan expects (`None` when no stage fixes it).
    pub fn in_dim(&self) -> Option<usize> {
        self.in_dim
    }

    /// Output width the plan produces (`None` when no stage fixes it).
    pub fn out_dim(&self) -> Option<usize> {
        self.out_dim
    }

    /// Number of fused stages (after dropping identities).
    pub fn num_stages(&self) -> usize {
        self.stages64.len()
    }

    /// Runs the compiled forward pass at the requested precision.
    ///
    /// `F64Exact` is bit-identical to the layer-by-layer path;
    /// `F32Fast` converts in/out once and runs the `f32` kernels.
    pub fn infer(&self, input: &Matrix, precision: InferPrecision) -> Matrix {
        match precision {
            InferPrecision::F64Exact => run(&self.stages64, input),
            InferPrecision::F32Fast => run(&self.stages32, input),
        }
    }

    /// Forward pass over `[shared | tail]` rows when the leading `p`
    /// columns are common to several draws: `shared` is `(rows, p)` and
    /// `tail` stacks `draws` per-draw `(rows, q)` blocks draw-major, so
    /// tail row `d·rows + r` pairs with shared row `r`. The first stage's
    /// product over `shared` is computed once; each draw group copies it
    /// and accumulates only the tail's columns on top.
    ///
    /// Bit-identical, at both precisions, to [`InferPlan::infer`] on the
    /// explicitly tiled `(draws·rows, p + q)` input: the kernels add a
    /// row's terms in ascending column order onto what the output already
    /// holds, and no row's result depends on the batch it is computed in.
    ///
    /// # Panics
    ///
    /// Panics when the first stage is not affine, when `p + q` differs
    /// from the plan's input width, or when `tail.rows()` is not a
    /// multiple of `shared.rows()`.
    pub fn infer_shared_prefix(
        &self,
        shared: &Matrix,
        tail: &Matrix,
        precision: InferPrecision,
    ) -> Matrix {
        match precision {
            InferPrecision::F64Exact => {
                run_shared_prefix(&self.stages64, self.out_dim, shared, tail)
            }
            InferPrecision::F32Fast => {
                run_shared_prefix(&self.stages32, self.out_dim, shared, tail)
            }
        }
    }

    /// The textbook naive forward pass: per-stage weight materialization,
    /// the `ijk` dot-product triple loop ([`Matrix::matmul_textbook`]), and
    /// separate bias / activation / norm passes. Bit-identical to
    /// `infer(x, F64Exact)`; this is the plan tests' oracle and the
    /// "naive-f64" baseline the `reconstruction_kernels` bench section
    /// measures the blocked kernels against.
    pub fn infer_textbook(&self, input: &Matrix) -> Matrix {
        let mut cur = input.clone();
        for stage in &self.stages64 {
            match stage {
                Stage::Affine {
                    in_dim,
                    out_dim,
                    wt,
                    bias,
                    act,
                    ..
                } => {
                    // Re-materializing the weights per call mirrors the
                    // legacy path's per-call `weight.transpose()`.
                    let w = Matrix::from_vec(*in_dim, *out_dim, wt.clone());
                    let mut out = cur.matmul_textbook(&w);
                    for r in 0..out.rows() {
                        for (o, &b) in out.row_mut(r).iter_mut().zip(bias) {
                            *o += b;
                        }
                    }
                    cur = out.map(|x| act.eval_f64(x));
                }
                Stage::Norm {
                    mean,
                    std_inv,
                    gamma,
                    beta,
                    act,
                } => {
                    let d = mean.len();
                    let mut out = Matrix::zeros(cur.rows(), d);
                    for r in 0..cur.rows() {
                        let row = cur.row(r);
                        for c in 0..d {
                            let xh = (row[c] - mean[c]) * std_inv[c];
                            out.set(r, c, gamma[c] * xh + beta[c]);
                        }
                    }
                    cur = out.map(|x| act.eval_f64(x));
                }
                Stage::Act(act) => cur = cur.map(|x| act.eval_f64(x)),
            }
        }
        cur
    }
}

/// Flattens nested ops, drops identities, and rejects unsupported layers.
fn flatten(op: PlanOp, out: &mut Vec<PlanOp>) -> Result<(), PlanError> {
    match op {
        PlanOp::Identity => {}
        PlanOp::Nested(children) => {
            for child in children {
                flatten(child, out)?;
            }
        }
        PlanOp::Unsupported(what) => return Err(PlanError::Unsupported(what)),
        other => out.push(other),
    }
    Ok(())
}

/// Rows per GEMM batch in [`InferPlan::infer_shared_prefix`]: draws are
/// stacked until a group would exceed this many rows. Larger stacks gain
/// nothing per row and grow the working set.
const DRAW_GROUP_ROWS: usize = 64;

fn to_elems<T: Element>(values: &[f64]) -> Vec<T> {
    values.iter().map(|&v| T::from_f64(v)).collect()
}

/// Executes the stage list at precision `T`.
fn run<T: Element>(stages: &[Stage<T>], input: &Matrix) -> Matrix {
    let rows = input.rows();
    let (out, dim) = run_stages(stages, rows, input.cols(), to_elems(input.as_slice()));
    Matrix::from_vec(rows, dim, out.into_iter().map(Element::to_f64).collect())
}

/// Runs `stages` over a `(rows, dim)` batch already at precision `T`, with
/// two ping-ponged batch buffers (one allocation pair per call, regardless
/// of depth). Returns the output and its width.
fn run_stages<T: Element>(
    stages: &[Stage<T>],
    rows: usize,
    mut dim: usize,
    mut cur: Vec<T>,
) -> (Vec<T>, usize) {
    let mut next: Vec<T> = Vec::new();
    for stage in stages {
        match stage {
            Stage::Affine {
                in_dim,
                out_dim,
                wt,
                bias,
                act,
            } => {
                debug_assert_eq!(dim, *in_dim, "InferPlan: stage input dim mismatch");
                next.clear();
                next.resize(rows * out_dim, T::ZERO);
                T::gemm_nn(rows, *in_dim, *out_dim, &cur, wt, &mut next);
                T::bias_act(&mut next, bias, *act);
                std::mem::swap(&mut cur, &mut next);
                dim = *out_dim;
            }
            Stage::Norm {
                mean,
                std_inv,
                gamma,
                beta,
                act,
            } => {
                debug_assert_eq!(dim, mean.len(), "InferPlan: norm dim mismatch");
                for row in cur.chunks_exact_mut(dim) {
                    let feats = row.iter_mut().zip(mean).zip(std_inv).zip(gamma).zip(beta);
                    for ((((v, &m), &s), &g), &b) in feats {
                        *v = T::eval_act(*act, T::batch_norm(*v, m, s, g, b));
                    }
                }
            }
            Stage::Act(act) => {
                for v in &mut cur {
                    *v = T::eval_act(*act, *v);
                }
            }
        }
    }
    (cur, dim)
}

/// [`InferPlan::infer_shared_prefix`] at precision `T`.
fn run_shared_prefix<T: Element>(
    stages: &[Stage<T>],
    out_dim: Option<usize>,
    shared: &Matrix,
    tail: &Matrix,
) -> Matrix {
    let Some((
        Stage::Affine {
            in_dim,
            out_dim: h,
            wt,
            bias,
            act,
        },
        rest,
    )) = stages.split_first()
    else {
        panic!("InferPlan::infer_shared_prefix: the first stage must be affine");
    };
    let (rows, p) = shared.shape();
    let q = tail.cols();
    assert_eq!(
        p + q,
        *in_dim,
        "InferPlan::infer_shared_prefix: shared width {p} + tail width {q} != input width {in_dim}"
    );
    let draws = tail.rows().checked_div(rows).unwrap_or(0);
    assert_eq!(
        draws * rows,
        tail.rows(),
        "InferPlan::infer_shared_prefix: {} tail rows are not a whole number of {rows}-row draws",
        tail.rows()
    );
    let h = *h;
    // `C += A·B` adds each row's `k` terms in ascending order onto what `C`
    // already holds, so the shared columns' products followed by the tail's
    // are the same chain as the full `[shared | tail]` row.
    let (wt_shared, wt_tail) = wt.split_at(p * h);
    let mut prefix = vec![T::ZERO; rows * h];
    T::gemm_nn(
        rows,
        p,
        h,
        &to_elems(shared.as_slice()),
        wt_shared,
        &mut prefix,
    );
    let tail_elems: Vec<T> = to_elems(tail.as_slice());
    let per_group = (DRAW_GROUP_ROWS / rows.max(1)).max(1);
    let mut out = Vec::new();
    for first in (0..draws).step_by(per_group) {
        let group = per_group.min(draws - first);
        let m = group * rows;
        let mut c = prefix.repeat(group);
        let a = &tail_elems[first * rows * q..(first * rows + m) * q];
        T::gemm_nn(m, q, h, a, wt_tail, &mut c);
        T::bias_act(&mut c, bias, *act);
        let (y, _) = run_stages(rest, m, h, c);
        out.extend(y.into_iter().map(Element::to_f64));
    }
    let width = out_dim.expect("an affine first stage fixes the output width");
    Matrix::from_vec(tail.rows(), width, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, Dense, GradientReversal, MixedActivation, OutputSpec};
    use crate::norm::{BatchNorm1d, Dropout};
    use fsda_linalg::SeededRng;

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    /// A generator-shaped net with every supported layer kind, with
    /// nontrivial batch-norm running statistics.
    fn rich_net(seed: u64) -> Sequential {
        let mut rng = SeededRng::new(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 16, &mut rng));
        net.push(BatchNorm1d::new(16));
        net.push(Activation::relu());
        net.push(Dropout::new(0.3, SeededRng::new(seed ^ 1)));
        net.push(Dense::new(16, 12, &mut rng));
        net.push(Activation::leaky_relu());
        net.push(GradientReversal::new(0.7));
        net.push(Dense::new(12, 5, &mut rng));
        net.push(MixedActivation::new(
            OutputSpec::continuous(5),
            0.5,
            SeededRng::new(seed ^ 2),
        ));
        // Populate the running statistics so Norm stages are nontrivial.
        let warm = Matrix::from_fn(32, 6, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.21 - 1.0);
        for _ in 0..5 {
            net.forward(&warm, true);
        }
        net
    }

    #[test]
    fn plan_f64_bit_identical_to_sequential() {
        let net = rich_net(11);
        let plan = InferPlan::compile(&net).expect("all layers lower");
        let x = Matrix::from_fn(9, 6, |i, j| (i as f64 * 0.4 - j as f64 * 0.7).sin());
        assert_bits_eq(&plan.infer(&x, InferPrecision::F64Exact), &net.infer(&x));
    }

    #[test]
    fn plan_textbook_bit_identical_to_kernel_path() {
        let net = rich_net(12);
        let plan = InferPlan::compile(&net).expect("all layers lower");
        let x = Matrix::from_fn(7, 6, |i, j| (i as f64 - 2.0 * j as f64) * 0.31);
        assert_bits_eq(
            &plan.infer_textbook(&x),
            &plan.infer(&x, InferPrecision::F64Exact),
        );
    }

    #[test]
    fn plan_fuses_activations() {
        let net = rich_net(13);
        let plan = InferPlan::compile(&net).unwrap();
        // Dense, Norm(+relu fused), Affine(+leaky fused), Affine(+tanh fused):
        // dropout and gradient reversal vanish, activations fuse.
        assert_eq!(plan.num_stages(), 4);
        assert_eq!(plan.in_dim(), Some(6));
        assert_eq!(plan.out_dim(), Some(5));
    }

    #[test]
    fn plan_f32_stays_close() {
        let net = rich_net(14);
        let plan = InferPlan::compile(&net).unwrap();
        let x = Matrix::from_fn(16, 6, |i, j| ((i + 2 * j) % 7) as f64 * 0.3 - 0.9);
        let exact = plan.infer(&x, InferPrecision::F64Exact);
        let fast = plan.infer(&x, InferPrecision::F32Fast);
        for (a, b) in exact.as_slice().iter().zip(fast.as_slice()) {
            assert!((a - b).abs() < 1e-4, "f32 drifted: {a} vs {b}");
        }
    }

    #[test]
    fn single_row_bit_identical_to_batched() {
        // A serve request that arrives alone has to produce the same bits
        // as the same request inside a batch: one-row batches take the
        // same GEMM kernels as every other batch size.
        let net = rich_net(18);
        let plan = InferPlan::compile(&net).unwrap();
        let x = Matrix::from_fn(9, 6, |i, j| (i as f64 * 0.9 - j as f64 * 0.45).cos());
        for precision in [InferPrecision::F64Exact, InferPrecision::F32Fast] {
            let batched = plan.infer(&x, precision);
            for r in 0..x.rows() {
                let row = Matrix::from_rows(&[x.row(r)]);
                let single = plan.infer(&row, precision);
                assert_bits_eq(&single, &Matrix::from_rows(&[batched.row(r)]));
            }
        }
        // The exact path also still matches the legacy layer chain.
        for r in 0..x.rows() {
            let row = Matrix::from_rows(&[x.row(r)]);
            assert_bits_eq(
                &plan.infer(&row, InferPrecision::F64Exact),
                &net.infer(&row),
            );
        }
    }

    #[test]
    fn discrete_head_is_unsupported() {
        let mut rng = SeededRng::new(15);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 6, &mut rng));
        net.push(MixedActivation::new(
            OutputSpec {
                continuous: 2,
                discrete_blocks: vec![4],
            },
            0.5,
            SeededRng::new(16),
        ));
        match InferPlan::compile(&net) {
            Err(PlanError::Unsupported(_)) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let op = PlanOp::Nested(vec![
            PlanOp::Dense {
                weight: Matrix::zeros(4, 3),
                bias: vec![0.0; 4],
            },
            PlanOp::BatchNorm {
                mean: vec![0.0; 5],
                var: vec![1.0; 5],
                eps: 1e-5,
                gamma: vec![1.0; 5],
                beta: vec![0.0; 5],
            },
        ]);
        match InferPlan::from_op(op) {
            Err(PlanError::DimMismatch {
                expected: 4,
                got: 5,
            }) => {}
            other => panic!("expected DimMismatch, got {other:?}"),
        }
    }

    #[test]
    fn lone_dense_head_compiles() {
        let mut rng = SeededRng::new(17);
        let head = Dense::new(8, 3, &mut rng);
        let plan = InferPlan::compile_layer(&head).unwrap();
        let x = Matrix::from_fn(4, 8, |i, j| (i as f64 + j as f64) * 0.1);
        assert_bits_eq(&plan.infer(&x, InferPrecision::F64Exact), &head.infer(&x));
    }

    #[test]
    fn precision_labels_are_stable() {
        assert_eq!(InferPrecision::default(), InferPrecision::F64Exact);
        assert_eq!(InferPrecision::F64Exact.label(), "f64_exact");
        assert_eq!(InferPrecision::F32Fast.label(), "f32_fast");
    }

    #[test]
    fn plan_error_display_is_informative() {
        assert!(PlanError::Unsupported("foo").to_string().contains("foo"));
        assert!(PlanError::DimMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains("2"));
    }
}
