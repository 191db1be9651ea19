//! Patch-matrix lowering for convolutions (im2col / col2im).
//!
//! One NCHW sample `c×h×w` expands into a `[c·k·k, oh·ow]` column
//! matrix whose rows follow the weight layout `(ic, ky, kx)`; the
//! convolution then becomes a single GEMM `W[oc, c·k·k] · cols`
//! ([`crate::gemm::gemm_tn`] on the transposed weight), and both
//! gradients become one GEMM each
//! (`gemm_nt` for the weight gradient, `gemm_tn` + [`col2im`] for the
//! input gradient). Because the column rows keep the `(ic, ky, kx)`
//! order of the naive kernel loops, the GEMM accumulates every output
//! element in the same order as the reference implementation.
//!
//! Out-of-bounds taps (zero padding) are written as explicit zeros —
//! the buffer is fully overwritten on every call, so layers can reuse
//! one scratch allocation across steps without clearing it.

/// Expands one sample `x` (`c·h·w` values) into `cols`
/// (`c·k·k × oh·ow`, fully overwritten). Stride-1 "same" geometries
/// copy each tap row as one shifted block; other geometries copy the
/// in-image (strided) taps of each output row and zero its edges.
///
/// # Panics
///
/// Panics when the slice lengths do not match the geometry.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    cols: &mut [f32],
) {
    assert_eq!(x.len(), c * h * w, "im2col: input length mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "im2col: column buffer length mismatch");
    let ohow = oh * ow;
    for ic in 0..c {
        let xc = &x[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic * k + ky) * k + kx;
                let out = &mut cols[row * ohow..(row + 1) * ohow];
                if stride == 1 && ow == w {
                    shifted_copy(
                        xc,
                        out,
                        w,
                        ky as isize - pad as isize,
                        kx as isize - pad as isize,
                    );
                    continue;
                }
                let (lo, hi, ix_lo) = tap_range(kx, stride, pad, w, ow);
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let orow = &mut out[oy * ow..(oy + 1) * ow];
                    if iy < 0 || iy as usize >= h {
                        orow.fill(0.0);
                        continue;
                    }
                    let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                    orow[..lo].fill(0.0);
                    orow[hi..].fill(0.0);
                    let taps = xrow[ix_lo..].iter().step_by(stride);
                    for (o, &v) in orow[lo..hi].iter_mut().zip(taps) {
                        *o = v;
                    }
                }
            }
        }
    }
}

/// The output columns `lo..hi` whose tap `kx` lands inside a row of
/// width `w`, and the input column `ix_lo` of the first of them
/// (clamped to `w` when the range is empty).
fn tap_range(kx: usize, stride: usize, pad: usize, w: usize, ow: usize) -> (usize, usize, usize) {
    // ix = ox·stride + kx − pad must satisfy 0 ≤ ix < w.
    let lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
    let hi = (w + pad).saturating_sub(kx).div_ceil(stride).clamp(lo, ow);
    (lo, hi, (lo * stride + kx).saturating_sub(pad).min(w))
}

/// One tap row of a "same"-padded stride-1 convolution, where output
/// and input rows have the same width `w`: `out[q] = x[q + dy·w + dx]`
/// wherever the tap lands inside the image, else 0. That is one
/// contiguous copy, followed by zeroing the `|dx|` edge columns the
/// copy wrapped into from neighbouring rows.
fn shifted_copy(x: &[f32], out: &mut [f32], w: usize, dy: isize, dx: isize) {
    let len = out.len() as isize;
    let shift = dy * w as isize + dx;
    let q0 = (-shift).clamp(0, len) as usize;
    let q1 = (x.len() as isize - shift).clamp(q0 as isize, len) as usize;
    out[..q0].fill(0.0);
    out[q1..].fill(0.0);
    if q1 > q0 {
        let src = (q0 as isize + shift) as usize;
        out[q0..q1].copy_from_slice(&x[src..src + (q1 - q0)]);
    }
    let edge = dx.unsigned_abs().min(w);
    let cols = if dx < 0 { 0..edge } else { w - edge..w };
    for orow in out.chunks_exact_mut(w) {
        orow[cols.clone()].fill(0.0);
    }
}

/// Scatters a column-space gradient back onto one sample: for every
/// tap inside the image, `dx[ic, iy, ix] += cols[(ic,ky,kx), (oy,ox)]`
/// (padding taps are dropped). Inverse of [`im2col`] in the adjoint
/// sense; `dx` is accumulated into, not overwritten. Every element
/// receives its contributions in the same `(ky, kx, oy, ox)` order as
/// [`crate::reference::order::col2im`]; each tap row's in-image range
/// is computed once instead of testing every element.
///
/// # Panics
///
/// Panics when the slice lengths do not match the geometry.
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
    assert_eq!(dx.len(), c * h * w, "col2im: output length mismatch");
    assert_eq!(cols.len(), c * k * k * oh * ow, "col2im: column buffer length mismatch");
    let ohow = oh * ow;
    for ic in 0..c {
        let dxc = &mut dx[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ic * k + ky) * k + kx;
                let src = &cols[row * ohow..(row + 1) * ohow];
                let (lo, hi, ix_lo) = tap_range(kx, stride, pad, w, ow);
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    let drow = &mut dxc[iy as usize * w..(iy as usize + 1) * w];
                    let srow = &src[oy * ow..(oy + 1) * ow];
                    // `step_by(1)` does not vectorize; stride 1 is the
                    // common case, so it gets the plain slice zip.
                    if stride == 1 {
                        let taps = &mut drow[ix_lo..ix_lo + (hi - lo)];
                        for (d, &v) in taps.iter_mut().zip(&srow[lo..hi]) {
                            *d += v;
                        }
                    } else {
                        let taps = drow[ix_lo..].iter_mut().step_by(stride);
                        for (d, &v) in taps.zip(&srow[lo..hi]) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_geometry_copies_each_pixel_once() {
        // 1×1 kernel, stride 1, no padding: cols == x.
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut cols = vec![f32::NAN; 12];
        im2col(&x, 3, 2, 2, 1, 1, 0, 2, 2, &mut cols);
        assert_eq!(cols, x);
    }

    #[test]
    fn padding_taps_are_zero() {
        let x = vec![1.0, 2.0, 3.0, 4.0]; // 1×2×2
        let mut cols = vec![f32::NAN; 9 * 4];
        im2col(&x, 1, 2, 2, 3, 1, 1, 2, 2, &mut cols);
        // Center tap (ky=1, kx=1) reproduces the image.
        assert_eq!(&cols[4 * 4..5 * 4], &x[..]);
        // Top-left tap (ky=0, kx=0) sees padding except at (1,1).
        assert_eq!(&cols[..4], &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn strided_rows_match_scalar_path() {
        // stride 2 exercises the scalar branch; compare against a
        // hand-walked gather.
        let h = 5;
        let w = 5;
        let x: Vec<f32> = (0..(h * w)).map(|i| i as f32).collect();
        let (k, stride, pad) = (3, 2, 1);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let mut cols = vec![f32::NAN; k * k * oh * ow];
        im2col(&x, 1, h, w, k, stride, pad, oh, ow, &mut cols);
        for ky in 0..k {
            for kx in 0..k {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        let want = if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            x[iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        assert_eq!(cols[((ky * k + kx) * oh + oy) * ow + ox], want);
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), g> == <x, col2im(g)> for random-ish data — the
        // defining property of the adjoint scatter.
        let (c, h, w, k, stride, pad) = (2, 4, 4, 3, 1, 1);
        let oh = (h + 2 * pad - k) / stride + 1;
        let ow = (w + 2 * pad - k) / stride + 1;
        let x: Vec<f32> = (0..(c * h * w)).map(|i| (i as f32 * 0.37).sin()).collect();
        let g: Vec<f32> = (0..(c * k * k * oh * ow)).map(|i| (i as f32 * 0.13).cos()).collect();
        let mut cols = vec![0.0; g.len()];
        im2col(&x, c, h, w, k, stride, pad, oh, ow, &mut cols);
        let lhs: f32 = cols.iter().zip(&g).map(|(a, b)| a * b).sum();
        let mut dx = vec![0.0; x.len()];
        col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut dx);
        let rhs: f32 = x.iter().zip(&dx).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    /// The original per-element gather, for comparing every fast path.
    #[allow(clippy::too_many_arguments)]
    fn gather(x: &[f32], c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> Vec<f32> {
        let oh = (h + 2 * p - k) / s + 1;
        let ow = (w + 2 * p - k) / s + 1;
        let mut cols = Vec::new();
        for ic in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let iy = (oy * s + ky) as isize - p as isize;
                            let ix = (ox * s + kx) as isize - p as isize;
                            let inside =
                                iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w;
                            let at = (ic * h + iy.max(0) as usize) * w + ix.max(0) as usize;
                            cols.push(if inside { x[at] } else { 0.0 });
                        }
                    }
                }
            }
        }
        cols
    }

    #[test]
    fn every_path_matches_the_per_element_gather() {
        for &(c, h, w, k, s, p) in &[
            (2, 4, 4, 3, 1, 1),
            (2, 32, 16, 3, 1, 1),
            (3, 8, 4, 3, 1, 1),
            (1, 1, 1, 3, 1, 1),
            (1, 2, 3, 5, 1, 2),
            (1, 3, 1, 5, 1, 2),
            (2, 5, 6, 3, 1, 0),
            (2, 6, 5, 2, 1, 1),
            (2, 7, 5, 3, 2, 1),
            (2, 8, 8, 1, 2, 0),
            (1, 1, 1, 5, 2, 2),
            (1, 2, 1, 5, 3, 2),
        ] {
            let oh = (h + 2 * p - k) / s + 1;
            let ow = (w + 2 * p - k) / s + 1;
            let x: Vec<f32> = (0..(c * h * w)).map(|i| i as f32 + 1.0).collect();
            let mut cols = vec![f32::NAN; c * k * k * oh * ow];
            im2col(&x, c, h, w, k, s, p, oh, ow, &mut cols);
            assert_eq!(cols, gather(&x, c, h, w, k, s, p), "c{c} {h}x{w} k{k} s{s} p{p}");
        }
    }

    #[test]
    fn col2im_is_bit_identical_to_the_order_oracle() {
        for &(c, h, w, k, stride, pad) in &[
            (2, 4, 4, 3, 1, 1),
            (1, 5, 3, 3, 2, 1),
            (3, 32, 16, 3, 1, 1),
            (2, 1, 1, 3, 1, 2),
            (1, 1, 1, 5, 2, 2),
            (2, 6, 5, 2, 1, 1),
        ] {
            let oh = (h + 2 * pad - k) / stride + 1;
            let ow = (w + 2 * pad - k) / stride + 1;
            let g: Vec<f32> = (0..(c * k * k * oh * ow)).map(|i| (i as f32 * 0.71).sin()).collect();
            let mut got: Vec<f32> = (0..(c * h * w)).map(|i| (i as f32 * 0.3).cos()).collect();
            let mut want = got.clone();
            col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut got);
            crate::reference::order::col2im(&g, c, h, w, k, stride, pad, oh, ow, &mut want);
            assert_eq!(got, want, "c{c} {h}x{w} k{k} s{stride} p{pad}");
        }
    }

    #[test]
    fn kernel_larger_than_image_is_all_padding_but_center() {
        // k > h: legal when padding makes h + 2p ≥ k; output is 1×1.
        let x = vec![5.0]; // 1×1×1
        let mut cols = vec![f32::NAN; 9];
        im2col(&x, 1, 1, 1, 3, 1, 1, 1, 1, &mut cols);
        assert_eq!(cols, vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }
}
