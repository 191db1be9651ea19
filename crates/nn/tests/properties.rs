//! Property tests pinning the optimized GEMM/im2col kernels to the
//! retained naive reference across random shapes, strides and
//! paddings, and bit for bit to the order oracle
//! (`reference::order`) that fixes each element's sequence of float
//! operations. These run in release CI too, where the per-call debug
//! oracle assertions inside the layers are compiled out.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_nn::reference::order;
use rlmul_nn::{gemm, im2col, reference, BatchNorm2d, Conv2d, Layer, Linear, Tensor};

fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Collects (value, grad) snapshots of a layer's parameters in
/// declaration order (weight first, then bias).
fn params(layer: &mut dyn Layer) -> Vec<(Vec<f32>, Vec<f32>)> {
    let mut out = Vec::new();
    layer.visit_params(&mut |p| out.push((p.value.data().to_vec(), p.grad.data().to_vec())));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_variants_match_naive_matmul(
        dims in (1usize..9, 1usize..33, 1usize..17),
        seed in 0u64..1 << 32,
    ) {
        let (m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let c0 = fill(&mut rng, m * n); // accumulate into non-zero C

        let bt: Vec<f32> = (0..n * k).map(|i| b[(i % k) * n + i / k]).collect();
        let at: Vec<f32> = (0..k * m).map(|i| a[(i % m) * k + i / m]).collect();

        let mut got = c0.clone();
        gemm::gemm_nn(&a, &b, &mut got, m, k, n);
        let mut want = c0.clone();
        reference::matmul_nn(&a, &b, &mut want, m, k, n);
        reference::assert_close("gemm_nn", &got, &want);

        let mut got = c0.clone();
        gemm::gemm_nt(&a, &bt, &mut got, m, k, n);
        reference::assert_close("gemm_nt", &got, &want);

        let mut got = c0.clone();
        gemm::gemm_tn(&at, &b, &mut got, m, k, n);
        reference::assert_close("gemm_tn", &got, &want);
    }

    #[test]
    fn im2col_gemm_conv_matches_naive_loops(
        geom in (1usize..4, 1usize..4, 1usize..4, 1usize..4),
        hw in (1usize..7, 1usize..7),
        sp in (1usize..3, 0usize..3),
        seed in 0u64..1 << 32,
    ) {
        let (n, in_c, out_c, k) = geom;
        let (mut h, mut w) = hw;
        let (stride, pad) = sp;
        // Keep the geometry valid while still covering kernels larger
        // than the unpadded input (k > h with pad making up the rest).
        h = h.max(k.saturating_sub(2 * pad));
        w = w.max(k.saturating_sub(2 * pad));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(in_c, out_c, k, stride, pad, &mut rng);
        let x = Tensor::from_vec(&[n, in_c, h, w], fill(&mut rng, n * in_c * h * w));

        let before = params(&mut conv);
        let (weight, bias) = (&before[0].0, &before[1].0);
        let y = conv.forward(&x, true);
        let want_y = reference::conv2d_forward(
            x.data(), weight, bias, n, in_c, h, w, out_c, k, stride, pad,
        );
        reference::assert_close("conv forward", y.data(), &want_y);

        let g = Tensor::from_vec(y.shape(), fill(&mut rng, y.len()));
        let dx = conv.backward(&g);
        let mut dw_ref = before[0].1.clone();
        let mut db_ref = before[1].1.clone();
        let dx_ref = reference::conv2d_backward(
            x.data(), g.data(), weight, &mut dw_ref, &mut db_ref,
            n, in_c, h, w, out_c, k, stride, pad,
        );
        reference::assert_close("conv dx", dx.data(), &dx_ref);
        let after = params(&mut conv);
        reference::assert_close("conv dW", &after[0].1, &dw_ref);
        reference::assert_close("conv db", &after[1].1, &db_ref);
    }

    #[test]
    fn linear_matches_naive_loops(
        dims in (1usize..9, 1usize..33, 1usize..17),
        seed in 0u64..1 << 32,
    ) {
        let (n, in_f, out_f) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lin = Linear::new(in_f, out_f, &mut rng);
        let x = Tensor::from_vec(&[n, in_f], fill(&mut rng, n * in_f));

        let before = params(&mut lin);
        let (weight, bias) = (&before[0].0, &before[1].0);
        let y = lin.forward(&x, true);
        let want_y = reference::linear_forward(x.data(), weight, bias, n, in_f, out_f);
        reference::assert_close("linear forward", y.data(), &want_y);

        let g = Tensor::from_vec(y.shape(), fill(&mut rng, y.len()));
        let dx = lin.backward(&g);
        let mut dw_ref = before[0].1.clone();
        let mut db_ref = before[1].1.clone();
        let dx_ref = reference::linear_backward(
            x.data(), g.data(), weight, &mut dw_ref, &mut db_ref, n, in_f, out_f,
        );
        reference::assert_close("linear dx", dx.data(), &dx_ref);
        let after = params(&mut lin);
        reference::assert_close("linear dW", &after[0].1, &dw_ref);
        reference::assert_close("linear db", &after[1].1, &db_ref);
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col(
        geom in (1usize..4, 1usize..4),
        hw in (1usize..7, 1usize..7),
        sp in (1usize..3, 0usize..3),
        seed in 0u64..1 << 32,
    ) {
        let (c, k) = geom;
        let (mut h, mut w) = hw;
        let (stride, pad) = sp;
        h = h.max(k.saturating_sub(2 * pad));
        w = w.max(k.saturating_sub(2 * pad));
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;

        let mut rng = StdRng::seed_from_u64(seed);
        let x = fill(&mut rng, c * h * w);
        let g = fill(&mut rng, c * k * k * oh * ow);
        let mut cols = vec![0.0f32; c * k * k * oh * ow];
        im2col::im2col(&x, c, h, w, k, stride, pad, oh, ow, &mut cols);
        let mut dx = vec![0.0f32; c * h * w];
        im2col::col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut dx);

        // <im2col(x), g> == <x, col2im(g)> — the defining adjoint
        // identity, in f64 to keep the comparison itself exact-ish.
        let lhs: f64 = cols.iter().zip(&g).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&dx).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!(
            (lhs - rhs).abs() <= 1e-3 * lhs.abs().max(1.0),
            "adjoint identity violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn gemm_variants_are_bit_identical_to_the_order_oracle(
        dims in (1usize..19, 1usize..41, 1usize..27),
        seed in 0u64..1 << 32,
    ) {
        // Row tails (m % 4, m % 8), column tails (n % 8, n % 4), k = 1
        // and k % 8 != 0 all occur in these ranges.
        let (m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let c0 = fill(&mut rng, m * n);
        type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let pairs: [(&str, Kernel, Kernel); 3] = [
            ("nn", gemm::gemm_nn, order::gemm_nn),
            ("nt", gemm::gemm_nt, order::gemm_nt),
            ("tn", gemm::gemm_tn, order::gemm_tn),
        ];
        for (name, fast, oracle) in pairs {
            let mut got = c0.clone();
            fast(&a, &b, &mut got, m, k, n);
            let mut want = c0.clone();
            oracle(&a, &b, &mut want, m, k, n);
            prop_assert_eq!(bits(&got), bits(&want), "gemm_{} {}x{}x{}", name, m, k, n);
        }
    }

    #[test]
    fn col2im_is_bit_identical_to_the_order_oracle(
        geom in (1usize..4, 1usize..5),
        hw in (1usize..9, 1usize..9),
        sp in (1usize..3, 0usize..3),
        seed in 0u64..1 << 32,
    ) {
        let (c, k) = geom;
        let (mut h, mut w) = hw;
        let (stride, pad) = sp;
        h = h.max(k.saturating_sub(2 * pad));
        w = w.max(k.saturating_sub(2 * pad));
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = fill(&mut rng, c * k * k * oh * ow);
        let dx0 = fill(&mut rng, c * h * w);
        let mut got = dx0.clone();
        im2col::col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut got);
        let mut want = dx0;
        order::col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn batch_norm_is_bit_identical_to_the_order_oracle(
        dims in (1usize..5, 1usize..20, 1usize..6, 1usize..6),
        seed in 0u64..1 << 32,
    ) {
        // Channel counts cover full interleave groups of 8 plus tails.
        let (n, c, h, w) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bn = BatchNorm2d::new(c);
        let gamma = fill(&mut rng, c);
        let beta = fill(&mut rng, c);
        let mut values = [&gamma, &beta].into_iter();
        bn.visit_params(&mut |p| p.value.data_mut().copy_from_slice(values.next().unwrap()));
        let x = fill(&mut rng, n * c * h * w);
        let dy = fill(&mut rng, n * c * h * w);
        let shape = [n, c, h, w];
        let eps = 1e-5;

        let y = bn.forward(&Tensor::from_vec(&shape, x.clone()), true);
        let want = order::batch_norm_train(&x, &gamma, &beta, (n, c, h * w), eps);
        prop_assert_eq!(bits(y.data()), bits(&want.y));
        let mut state = Vec::new();
        bn.visit_state(&mut |s| state.push(s.clone()));
        // Momentum 0.1 from the initial running statistics (0, 1).
        let running_mean: Vec<f32> =
            want.mean.iter().map(|m| (1.0f32 - 0.1) * 0.0 + 0.1 * m).collect();
        let running_var: Vec<f32> =
            want.var.iter().map(|v| (1.0f32 - 0.1) * 1.0 + 0.1 * v).collect();
        prop_assert_eq!(bits(&state[0]), bits(&running_mean));
        prop_assert_eq!(bits(&state[1]), bits(&running_var));

        // An evaluation forward in between must not disturb backward.
        let eval = bn.forward(&Tensor::from_vec(&shape, dy.clone()), false);
        let want_eval = order::batch_norm_eval(
            &dy, &gamma, &beta, (&state[0], &state[1]), (c, h * w), eps,
        );
        prop_assert_eq!(bits(eval.data()), bits(&want_eval));

        let dx = bn.backward(&Tensor::from_vec(&shape, dy.clone()));
        let (mut dgamma, mut dbeta) = (vec![0.0; c], vec![0.0; c]);
        let want_dx = order::batch_norm_backward(
            &dy, &want.x_hat, &want.inv_std, &gamma, &mut dgamma, &mut dbeta, (n, c, h * w),
        );
        prop_assert_eq!(bits(dx.data()), bits(&want_dx));
        let mut grads = Vec::new();
        bn.visit_params(&mut |p| grads.push(p.grad.data().to_vec()));
        prop_assert_eq!(bits(&grads[0]), bits(&dgamma));
        prop_assert_eq!(bits(&grads[1]), bits(&dbeta));
    }
}

/// f32 bit patterns, so signed zeros and NaN payloads compare exactly.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
