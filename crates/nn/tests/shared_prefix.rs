//! Property tests for [`InferPlan::infer_shared_prefix`]: computing the
//! first layer's product over the shared columns once and accumulating
//! each draw's tail columns on top must give exactly the bits of
//! [`InferPlan::infer`] on the explicitly tiled `[shared | tail]` input.

use fsda_linalg::{Matrix, SeededRng};
use fsda_nn::layer::{Activation, Dense, MixedActivation, OutputSpec};
use fsda_nn::norm::BatchNorm1d;
use fsda_nn::plan::{InferPlan, InferPrecision};
use fsda_nn::Sequential;
use proptest::prelude::*;

/// A generator-shaped net (`Dense → BatchNorm → ReLU → Dense → LeakyReLU →
/// Dense → tanh`) over `inputs` columns, with nontrivial running statistics.
fn generator(seed: u64, inputs: usize, hidden: usize, out: usize) -> Sequential {
    let mut rng = SeededRng::new(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(inputs, hidden, &mut rng));
    net.push(BatchNorm1d::new(hidden));
    net.push(Activation::relu());
    net.push(Dense::new(hidden, hidden, &mut rng));
    net.push(Activation::leaky_relu());
    net.push(Dense::new_xavier(hidden, out, &mut rng));
    net.push(MixedActivation::new(
        OutputSpec::continuous(out),
        1.0,
        SeededRng::new(seed ^ 3),
    ));
    let warm = rng.normal_matrix(16, inputs, 0.3, 1.5);
    for _ in 0..3 {
        net.forward(&warm, true);
    }
    net
}

/// A random matrix where roughly `zero_pct` of the cells are exact zeros,
/// so the kernels' zero-skip is exercised in both blocks.
fn sparse(rng: &mut SeededRng, rows: usize, cols: usize, zero_pct: f64) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.uniform() < zero_pct {
            0.0
        } else {
            rng.uniform_range(-2.0, 2.0)
        }
    })
}

/// `[shared | tail]` with shared row `r` repeated for every draw.
fn tiled(shared: &Matrix, tail: &Matrix) -> Matrix {
    let rows = shared.rows();
    Matrix::from_fn(tail.rows(), shared.cols() + tail.cols(), |i, j| {
        if j < shared.cols() {
            shared.get(i % rows, j)
        } else {
            tail.get(i, j - shared.cols())
        }
    })
}

/// Bitwise equality, except that two NaNs match whatever their payloads
/// (payloads are outside the kernels' contract; placement is exact).
fn assert_bits_eq(fast: &Matrix, slow: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.shape(), slow.shape());
    for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice()).enumerate() {
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

fn check(
    plan: &InferPlan,
    shared: &Matrix,
    tail: &Matrix,
    precision: InferPrecision,
) -> Result<(), TestCaseError> {
    let stacked = plan.infer_shared_prefix(shared, tail, precision);
    assert_bits_eq(&stacked, &plan.infer(&tiled(shared, tail), precision))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, including more than one 64-row draw group and tails
    /// whose row count is not a multiple of the group, with exact zeros in
    /// both blocks and NaN/Inf cells in the tail.
    #[test]
    fn shared_prefix_matches_tiled_infer(
        seed in 0u64..5000,
        rows in 1usize..70,
        draws in 1usize..10,
        p in 0usize..14,
        q in 1usize..8,
        hidden in 1usize..40,
        zero_pct in 0.0f64..0.8,
        specials in 0usize..4,
    ) {
        let mut rng = SeededRng::new(seed);
        let plan = InferPlan::compile(&generator(seed, p + q, hidden, 5)).unwrap();
        let shared = sparse(&mut rng, rows, p, zero_pct);
        let mut tail = sparse(&mut rng, draws * rows, q, zero_pct);
        for _ in 0..specials {
            let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)];
            tail.set(rng.index(tail.rows()), rng.index(q), v);
        }
        check(&plan, &shared, &tail, InferPrecision::F64Exact)?;
        check(&plan, &shared, &tail, InferPrecision::F32Fast)?;
    }
}

#[test]
fn single_row_draw_stacks_match_tiled_infer() {
    let plan = InferPlan::compile(&generator(7, 9, 24, 3)).unwrap();
    let mut rng = SeededRng::new(8);
    let shared = sparse(&mut rng, 1, 6, 0.3);
    for draws in 1..=9 {
        let tail = sparse(&mut rng, draws, 3, 0.3);
        for precision in [InferPrecision::F64Exact, InferPrecision::F32Fast] {
            check(&plan, &shared, &tail, precision).unwrap();
        }
    }
}

#[test]
fn empty_batch_has_the_output_width() {
    let plan = InferPlan::compile(&generator(9, 5, 8, 4)).unwrap();
    let out = plan.infer_shared_prefix(
        &Matrix::zeros(0, 3),
        &Matrix::zeros(0, 2),
        InferPrecision::F64Exact,
    );
    assert_eq!(out.shape(), (0, 4));
}

#[test]
#[should_panic(expected = "first stage must be affine")]
fn non_affine_first_stage_panics() {
    let mut net = Sequential::new();
    net.push(BatchNorm1d::new(4));
    net.push(Dense::new(4, 2, &mut SeededRng::new(1)));
    let plan = InferPlan::compile(&net).unwrap();
    plan.infer_shared_prefix(
        &Matrix::zeros(2, 3),
        &Matrix::zeros(2, 1),
        InferPrecision::F64Exact,
    );
}

#[test]
#[should_panic(expected = "!= input width 5")]
fn width_mismatch_panics() {
    let plan = InferPlan::compile(&generator(2, 5, 8, 2)).unwrap();
    plan.infer_shared_prefix(
        &Matrix::zeros(2, 3),
        &Matrix::zeros(4, 3),
        InferPrecision::F64Exact,
    );
}

#[test]
#[should_panic(expected = "not a whole number of 2-row draws")]
fn ragged_tail_panics() {
    let plan = InferPlan::compile(&generator(3, 5, 8, 2)).unwrap();
    plan.infer_shared_prefix(
        &Matrix::zeros(2, 3),
        &Matrix::zeros(5, 2),
        InferPrecision::F64Exact,
    );
}
