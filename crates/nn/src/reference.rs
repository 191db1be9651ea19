//! Naive loop kernels retained as the correctness oracle.
//!
//! These are the seed implementations of `Conv2d` and `Linear` (and a
//! triple-loop matmul), kept verbatim after the layers moved to the
//! GEMM/im2col path. They pin the optimized kernels three ways:
//!
//! * debug builds re-run every layer call through the oracle and
//!   assert near-equality (see `assert_close` — a tight
//!   relative-plus-absolute tolerance that only absorbs summation-
//!   order differences),
//! * the property tests in `tests/properties.rs` compare random
//!   shapes/strides/paddings against them,
//! * the criterion benches measure the optimized path's speedup over
//!   them.
//!
//! They are compiled unconditionally (the code is small) but only
//! the debug-assertion oracle calls them on the hot path.
//!
//! The [`order`] submodule is the second, exact oracle: the loop
//! bodies the optimized kernels must match bit for bit.

/// `C[m×n] += A[m×k]·B[k×n]`, triple loop.
pub fn matmul_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C[m×n] += A[m×k]·B[n×k]ᵀ`, triple loop.
pub fn matmul_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C[m×n] += A[k×m]ᵀ·B[k×n]`, triple loop.
pub fn matmul_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for kk in 0..k {
                acc += a[kk * m + i] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Direct 6-deep-loop NCHW convolution forward (the seed kernel).
/// Returns `y[n, oc, oh, ow]` as a flat vector.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut y = vec![0.0f32; n * out_c * oh * ow];
    for ni in 0..n {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc];
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let wv = weight[((oc * in_c + ic) * k + ky) * k + kx];
                                let xv = x[((ni * in_c + ic) * h + iy as usize) * w + ix as usize];
                                acc += wv * xv;
                            }
                        }
                    }
                    y[((ni * out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    y
}

/// Direct-loop convolution backward (the seed kernel). Accumulates
/// the weight/bias gradients into `dw`/`db` and returns `dx`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward(
    x: &[f32],
    grad_out: &[f32],
    weight: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    n: usize,
    in_c: usize,
    h: usize,
    w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = (h + 2 * pad - k) / stride + 1;
    let ow = (w + 2 * pad - k) / stride + 1;
    let mut dx = vec![0.0f32; n * in_c * h * w];
    for ni in 0..n {
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = grad_out[((ni * out_c + oc) * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    db[oc] += g;
                    for ic in 0..in_c {
                        for ky in 0..k {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let widx = ((oc * in_c + ic) * k + ky) * k + kx;
                                let xidx = ((ni * in_c + ic) * h + iy as usize) * w + ix as usize;
                                dw[widx] += g * x[xidx];
                                dx[xidx] += g * weight[widx];
                            }
                        }
                    }
                }
            }
        }
    }
    dx
}

/// Row-loop dense forward (the seed `Linear` kernel):
/// `y = x·Wᵀ + b`.
pub fn linear_forward(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<f32> {
    let mut y = vec![0.0f32; n * out_f];
    for ni in 0..n {
        for o in 0..out_f {
            let mut acc = bias[o];
            let wrow = &weight[o * in_f..(o + 1) * in_f];
            let xrow = &x[ni * in_f..(ni + 1) * in_f];
            for (wv, xv) in wrow.iter().zip(xrow) {
                acc += wv * xv;
            }
            y[ni * out_f + o] = acc;
        }
    }
    y
}

/// Row-loop dense backward (the seed `Linear` kernel). Accumulates
/// into `dw`/`db` and returns `dx`.
#[allow(clippy::too_many_arguments)]
pub fn linear_backward(
    x: &[f32],
    grad_out: &[f32],
    weight: &[f32],
    dw: &mut [f32],
    db: &mut [f32],
    n: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<f32> {
    let mut dx = vec![0.0f32; n * in_f];
    for ni in 0..n {
        for o in 0..out_f {
            let g = grad_out[ni * out_f + o];
            if g == 0.0 {
                continue;
            }
            db[o] += g;
            for i in 0..in_f {
                dw[o * in_f + i] += g * x[ni * in_f + i];
                dx[ni * in_f + i] += g * weight[o * in_f + i];
            }
        }
    }
    dx
}

/// The previous kernels' loop bodies, kept as the *order* oracle.
///
/// The optimized kernels in [`crate::gemm`], [`crate::im2col`] and
/// `BatchNorm2d` promise the exact per-element sequence of float
/// operations these loops perform, so tests compare the two with
/// `assert_eq!` rather than a tolerance. The naive kernels above sum
/// in a different order (they skip padding taps, and `gemm_nt`'s
/// eight lanes reduce pairwise), so only these loops can pin bits.
pub mod order {
    // Cache-block sizes of the blocked `gemm_nn` loop.
    const KC: usize = 64;
    const NC: usize = 256;

    /// `C[m×n] += A[m×k] · B[k×n]`: blocked axpy form; per output
    /// element the `k` contributions accumulate in ascending order.
    pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for j0 in (0..n).step_by(NC) {
            let jl = NC.min(n - j0);
            for k0 in (0..k).step_by(KC) {
                let kl = KC.min(k - k0);
                for i in 0..m {
                    let arow = &a[i * k + k0..i * k + k0 + kl];
                    let crow = &mut c[i * n + j0..i * n + j0 + jl];
                    for (kk, &av) in arow.iter().enumerate() {
                        let brow = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + jl];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
            }
        }
    }

    /// `C[m×n] += A[m×k] · B[n×k]ᵀ`: eight accumulator lanes over
    /// `chunks_exact(8)`, pairwise lane reduction, then the `k % 8`
    /// remainder in ascending order, then one add into `C`.
    pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut c[i * n..(i + 1) * n];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                let mut lanes = [0.0f32; 8];
                let ac = arow.chunks_exact(8);
                let bc = brow.chunks_exact(8);
                let (ra, rb) = (ac.remainder(), bc.remainder());
                for (av, bv) in ac.zip(bc) {
                    for l in 0..8 {
                        lanes[l] += av[l] * bv[l];
                    }
                }
                let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
                    + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
                for (av, bv) in ra.iter().zip(rb) {
                    acc += av * bv;
                }
                *cv += acc;
            }
        }
    }

    /// `C[m×n] += A[k×m]ᵀ · B[k×n]`: rank-1 axpy updates in ascending
    /// `k`.
    pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for kk in 0..k {
            let arow = &a[kk * m..(kk + 1) * m];
            let brow = &b[kk * n..(kk + 1) * n];
            for (i, &av) in arow.iter().enumerate() {
                let crow = &mut c[i * n..(i + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// Adjoint scatter of one sample's column-space gradient, with
    /// the per-tap bounds test of the original loop.
    #[allow(clippy::too_many_arguments)]
    pub fn col2im(
        cols: &[f32],
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        oh: usize,
        ow: usize,
        dx: &mut [f32],
    ) {
        let ohow = oh * ow;
        for ic in 0..c {
            let dxc = &mut dx[ic * h * w..(ic + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ic * k + ky) * k + kx;
                    let src = &cols[row * ohow..(row + 1) * ohow];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        let drow = &mut dxc[iy as usize * w..(iy as usize + 1) * w];
                        let srow = &src[oy * ow..(oy + 1) * ow];
                        for (ox, &v) in srow.iter().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && (ix as usize) < w {
                                drow[ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Batch-norm outputs of the original layer for one NCHW batch.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BnTrain {
        /// Normalized output `gamma·x̂ + beta`.
        pub y: Vec<f32>,
        /// Cached `x̂`.
        pub x_hat: Vec<f32>,
        /// Per-channel `1/sqrt(var + eps)`.
        pub inv_std: Vec<f32>,
        /// Per-channel batch mean.
        pub mean: Vec<f32>,
        /// Per-channel biased batch variance.
        pub var: Vec<f32>,
    }

    /// Training-mode batch norm over `x[n, c, hw]`: one channel at a
    /// time, sequential sums in `(n, h, w)` order.
    pub fn batch_norm_train(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        (n, c, hw): (usize, usize, usize),
        eps: f32,
    ) -> BnTrain {
        let at = |ni: usize, ch: usize, p: usize| (ni * c + ch) * hw + p;
        let count = n * hw;
        let mut out = BnTrain {
            y: vec![0.0; x.len()],
            x_hat: vec![0.0; x.len()],
            inv_std: vec![0.0; c],
            mean: vec![0.0; c],
            var: vec![0.0; c],
        };
        for ch in 0..c {
            let mut mean = 0.0f32;
            for ni in 0..n {
                for p in 0..hw {
                    mean += x[at(ni, ch, p)];
                }
            }
            mean /= count as f32;
            let mut var = 0.0f32;
            for ni in 0..n {
                for p in 0..hw {
                    let d = x[at(ni, ch, p)] - mean;
                    var += d * d;
                }
            }
            var /= count as f32;
            let istd = 1.0 / (var + eps).sqrt();
            out.inv_std[ch] = istd;
            out.mean[ch] = mean;
            out.var[ch] = var;
            for ni in 0..n {
                for p in 0..hw {
                    let xh = (x[at(ni, ch, p)] - mean) * istd;
                    out.x_hat[at(ni, ch, p)] = xh;
                    out.y[at(ni, ch, p)] = gamma[ch] * xh + beta[ch];
                }
            }
        }
        out
    }

    /// Evaluation-mode batch norm with running statistics.
    pub fn batch_norm_eval(
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        running: (&[f32], &[f32]),
        (c, hw): (usize, usize),
        eps: f32,
    ) -> Vec<f32> {
        let (rm, rv) = running;
        let mut y = vec![0.0; x.len()];
        for (i, (yv, &xv)) in y.iter_mut().zip(x).enumerate() {
            let ch = i / hw % c;
            let istd = 1.0 / (rv[ch] + eps).sqrt();
            let xh = (xv - rm[ch]) * istd;
            *yv = gamma[ch] * xh + beta[ch];
        }
        y
    }

    /// Batch-norm backward: accumulates into `dgamma`/`dbeta` and
    /// returns `dx`.
    #[allow(clippy::too_many_arguments)]
    pub fn batch_norm_backward(
        dy: &[f32],
        x_hat: &[f32],
        inv_std: &[f32],
        gamma: &[f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
        (n, c, hw): (usize, usize, usize),
    ) -> Vec<f32> {
        let at = |ni: usize, ch: usize, p: usize| (ni * c + ch) * hw + p;
        let m = (n * hw) as f32;
        let mut dx = vec![0.0; dy.len()];
        for ch in 0..c {
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for ni in 0..n {
                for p in 0..hw {
                    sum_dy += dy[at(ni, ch, p)];
                    sum_dy_xhat += dy[at(ni, ch, p)] * x_hat[at(ni, ch, p)];
                }
            }
            dgamma[ch] += sum_dy_xhat;
            dbeta[ch] += sum_dy;
            let k = gamma[ch] * inv_std[ch];
            for ni in 0..n {
                for p in 0..hw {
                    let (d, xh) = (dy[at(ni, ch, p)], x_hat[at(ni, ch, p)]);
                    dx[at(ni, ch, p)] = k * (d - sum_dy / m - xh * sum_dy_xhat / m);
                }
            }
        }
        dx
    }
}

/// Oracle comparison: every element of `got` must match `want` to a
/// tight relative tolerance (absorbing only summation-order drift).
///
/// # Panics
///
/// Panics with the offending index and values on mismatch.
pub fn assert_close(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, v)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4 * 1.0f32.max(v.abs()) + 1e-6;
        assert!((g - v).abs() <= tol, "{what}: oracle mismatch at {i}: optimized {g} vs naive {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_variants_agree_on_a_transposable_case() {
        // A 2×2·2×2 product small enough to check by hand.
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        matmul_nn(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);

        // A·Bᵀ with B stored transposed equals the same product.
        let bt = vec![5.0, 7.0, 6.0, 8.0];
        let mut c2 = vec![0.0; 4];
        matmul_nt(&a, &bt, &mut c2, 2, 2, 2);
        assert_eq!(c2, c);

        // Aᵀ·B with A stored transposed likewise.
        let at = vec![1.0, 3.0, 2.0, 4.0];
        let mut c3 = vec![0.0; 4];
        matmul_tn(&at, &b, &mut c3, 2, 2, 2);
        assert_eq!(c3, c);
    }

    #[test]
    #[should_panic(expected = "oracle mismatch")]
    fn assert_close_rejects_real_differences() {
        assert_close("unit", &[1.0], &[1.01]);
    }
}
