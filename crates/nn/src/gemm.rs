//! Shared dense matrix kernels for every layer in this crate.
//!
//! Three f32 GEMM variants cover the whole forward and backward hot
//! path once convolutions are lowered through im2col:
//!
//! * [`gemm_nn`] — `C += A·B` (`Linear` input-gradient),
//! * [`gemm_nt`] — `C += A·Bᵀ` (`Linear` forward, convolution
//!   weight-gradient),
//! * [`gemm_tn`] — `C += Aᵀ·B` (convolution forward on a transposed
//!   weight, `Linear` weight-gradient, convolution input-gradient into
//!   column space).
//!
//! All matrices are dense row-major slices and the kernels accumulate
//! into `C` (callers initialize it with zeros or the layer bias).
//!
//! # Order contract
//!
//! Every kernel performs, for each output element, exactly the float
//! operations of the loops kept in [`crate::reference::order`], in the
//! same order, so results are bit-identical to them (tests compare
//! with `assert_eq!`). Speed comes only from which elements are in
//! flight together:
//!
//! * `nn`/`tn` hold an `MR × NR` (4×8) tile of `C` in registers and run
//!   the whole ascending `k` loop on it as rank-1 updates;
//! * `nt` keeps the eight-lane dot-product form, but computes each lane
//!   of a tile of outputs as its own rank-1 update over a transposed
//!   copy of `A` (lane `l` sums the `k ≡ l (mod 8)` terms), then
//!   reduces the lanes pairwise and adds the `k % 8` tail exactly as
//!   the dot form does.
//!
//! There is no threading: the agent's GEMMs are a few hundred
//! microseconds at most, and a scoped-thread fan-out measured slower
//! than one core even before spawn costs are counted on a busy host.

/// Rows of `C` per register tile of the rank-1 (`nn`/`tn`) kernel.
const MR: usize = 4;
/// Columns of `C` per register tile of the rank-1 kernel: two 4-wide
/// SIMD registers per row.
const NR: usize = 8;
/// Accumulator lanes of the dot-product form (`nt`).
const LANES: usize = 8;
/// Rows of `C` per `nt` tile: the vectorized dimension.
const NT_MR: usize = 8;
/// Columns of `C` per `nt` tile.
const NT_NR: usize = 4;

/// Panics unless the three slices match the given dimensions.
#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], am: usize, bm: usize, cm: usize) {
    assert_eq!(a.len(), am, "GEMM: A length mismatch");
    assert_eq!(b.len(), bm, "GEMM: B length mismatch");
    assert_eq!(c.len(), cm, "GEMM: C length mismatch");
}

/// `A[rows×cols]` transposed into `t`, resized to `[cols×rows]`.
pub(crate) fn transpose_into(a: &[f32], rows: usize, cols: usize, t: &mut Vec<f32>) {
    assert_eq!(a.len(), rows * cols, "transpose: length mismatch");
    t.resize(rows * cols, 0.0);
    if a.is_empty() {
        return;
    }
    for (i, arow) in a.chunks_exact(cols).enumerate() {
        for (kk, &v) in arow.iter().enumerate() {
            t[kk * rows + i] = v;
        }
    }
}

/// `A[rows×cols]` transposed into a fresh `[cols×rows]` buffer.
fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = Vec::new();
    transpose_into(a, rows, cols, &mut t);
    t
}

/// One `I×J` tile of `C` at `(i0, j0)`: loads it, applies the rank-1
/// updates `C[i0+r, j0+l] += Aᵀ[kk, i0+r] · B[kk, j0+l]` for `kk`
/// ascending, and stores it back. `at` is `[k×m]`, `b` is `[k×n]`.
#[inline(always)]
fn rank1_tile<const I: usize, const J: usize>(
    at: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, n): (usize, usize),
    (i0, j0): (usize, usize),
) {
    let mut acc = [[0.0f32; J]; I];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i0 + r) * n + j0..][..J]);
    }
    for (arow, brow) in at.chunks_exact(m).zip(b.chunks_exact(n)) {
        let av: &[f32; I] = arow[i0..i0 + I].try_into().expect("tile rows");
        let bv: &[f32; J] = brow[j0..j0 + J].try_into().expect("tile columns");
        for (row, &a) in acc.iter_mut().zip(av) {
            for (cv, &bv) in row.iter_mut().zip(bv) {
                *cv += a * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..J].copy_from_slice(row);
    }
}

/// `C[m×n] += Aᵀ·B` with `at = A` stored `[k×m]`, tiled `MR × NR`
/// with single-row/single-column tails. Column blocks are the outer
/// loop, so each `k × NR` panel of `B` is reused across the row
/// blocks. Tile order never changes any element's result.
fn rank1(at: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize) {
    let (mb, nb) = (m - m % MR, n - n % NR);
    let dims = (m, n);
    for j0 in (0..nb).step_by(NR) {
        for i0 in (0..mb).step_by(MR) {
            rank1_tile::<MR, NR>(at, b, c, dims, (i0, j0));
        }
        for i0 in mb..m {
            rank1_tile::<1, NR>(at, b, c, dims, (i0, j0));
        }
    }
    for j0 in nb..n {
        for i0 in (0..mb).step_by(MR) {
            rank1_tile::<MR, 1>(at, b, c, dims, (i0, j0));
        }
        for i0 in mb..m {
            rank1_tile::<1, 1>(at, b, c, dims, (i0, j0));
        }
    }
}

/// One `I×J` tile of `C += A·Bᵀ` in the eight-lane dot form, with
/// `at = A` stored `[k×m]` (the vectorized dimension is `i`) and `b`
/// in its natural `[n×k]` layout. Each lane is a run of rank-1
/// updates over every eighth `k`.
#[inline(always)]
fn dot8_tile<const I: usize, const J: usize>(
    at: &[f32],
    b: &[f32],
    c: &mut [f32],
    (m, k, n): (usize, usize, usize),
    (i0, j0): (usize, usize),
) {
    let kb = k - k % LANES;
    let brows: [&[f32]; J] = std::array::from_fn(|jj| &b[(j0 + jj) * k..(j0 + jj + 1) * k]);
    let ablocks = at[..kb * m].chunks_exact(LANES * m);
    // lanes[l][jj][r]: lane `l` of the dot product for C[i0+r, j0+jj].
    let mut lanes = [[[0.0f32; I]; J]; LANES];
    for (l, lane) in lanes.iter_mut().enumerate() {
        let mut acc = [[0.0f32; I]; J];
        for (blk, ablk) in ablocks.clone().enumerate() {
            let av: &[f32; I] = ablk[l * m + i0..][..I].try_into().expect("tile rows");
            for (row, brow) in acc.iter_mut().zip(&brows) {
                let bv = brow[blk * LANES + l];
                for (cv, &a) in row.iter_mut().zip(av) {
                    *cv += a * bv;
                }
            }
        }
        *lane = acc;
    }
    for (jj, brow) in brows.iter().enumerate() {
        let mut sum = [0.0f32; I];
        for (r, s) in sum.iter_mut().enumerate() {
            let v = |l: usize| lanes[l][jj][r];
            *s = ((v(0) + v(4)) + (v(2) + v(6))) + ((v(1) + v(5)) + (v(3) + v(7)));
        }
        for (arow, &bv) in at[kb * m..].chunks_exact(m).zip(&brow[kb..]) {
            for (s, &a) in sum.iter_mut().zip(&arow[i0..i0 + I]) {
                *s += a * bv;
            }
        }
        for (r, s) in sum.into_iter().enumerate() {
            c[(i0 + r) * n + j0 + jj] += s;
        }
    }
}

/// `C[m×n] += A[m×k] · B[k×n]`.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, k * n, m * n);
    rank1(&transpose(a, m, k), b, c, m, n);
}

/// `C[m×n] += A[m×k] · B[n×k]ᵀ`.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m * k, n * k, m * n);
    let at = transpose(a, m, k);
    let dims = (m, k, n);
    let (mb, nb) = (m - m % NT_MR, n - n % NT_NR);
    for i0 in (0..mb).step_by(NT_MR) {
        for j0 in (0..nb).step_by(NT_NR) {
            dot8_tile::<NT_MR, NT_NR>(&at, b, c, dims, (i0, j0));
        }
        for j0 in nb..n {
            dot8_tile::<NT_MR, 1>(&at, b, c, dims, (i0, j0));
        }
    }
    for i0 in mb..m {
        for j0 in (0..nb).step_by(NT_NR) {
            dot8_tile::<1, NT_NR>(&at, b, c, dims, (i0, j0));
        }
        for j0 in nb..n {
            dot8_tile::<1, 1>(&at, b, c, dims, (i0, j0));
        }
    }
}

/// `C[m×n] += A[k×m]ᵀ · B[k×n]`.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, k * m, k * n, m * n);
    rank1(a, b, c, m, n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::order;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::kaiming(&[rows, cols], cols.max(1), &mut rng).data().to_vec()
    }

    /// Shapes with row tails (`m % 4`, `m % 8`), column tails
    /// (`n % 8`, `n % 4`), `k = 1`, `k % 8 != 0`, empty dimensions,
    /// and the agent's own conv and head shapes.
    const SHAPES: &[(usize, usize, usize)] = &[
        (0, 3, 2),
        (2, 0, 3),
        (3, 2, 0),
        (1, 1, 1),
        (3, 7, 5),
        (5, 1, 9),
        (7, 13, 3),
        (9, 17, 11),
        (17, 33, 9),
        (8, 72, 512),
        (16, 144, 128),
        (32, 288, 32),
        (8, 32, 128),
        (8, 512, 18),
        (13, 29, 7),
    ];

    #[test]
    fn nn_is_bit_identical_to_the_order_oracle() {
        for &(m, k, n) in SHAPES {
            let a = rand_mat(m, k, 1);
            let b = rand_mat(k, n, 2);
            let mut c = rand_mat(m, n, 3);
            let mut r = c.clone();
            gemm_nn(&a, &b, &mut c, m, k, n);
            order::gemm_nn(&a, &b, &mut r, m, k, n);
            assert_eq!(c, r, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn nt_is_bit_identical_to_the_order_oracle() {
        for &(m, k, n) in SHAPES {
            let a = rand_mat(m, k, 4);
            let b = rand_mat(n, k, 5);
            let mut c = rand_mat(m, n, 6);
            let mut r = c.clone();
            gemm_nt(&a, &b, &mut c, m, k, n);
            order::gemm_nt(&a, &b, &mut r, m, k, n);
            assert_eq!(c, r, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tn_is_bit_identical_to_the_order_oracle() {
        for &(m, k, n) in SHAPES {
            let a = rand_mat(k, m, 7);
            let b = rand_mat(k, n, 8);
            let mut c = rand_mat(m, n, 9);
            let mut r = c.clone();
            gemm_tn(&a, &b, &mut c, m, k, n);
            order::gemm_tn(&a, &b, &mut r, m, k, n);
            assert_eq!(c, r, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn kernels_match_the_naive_product() {
        let (m, k, n) = (5, 11, 9);
        let a = rand_mat(m, k, 10);
        let b = rand_mat(k, n, 11);
        let mut c = vec![0.1; m * n];
        let mut r = c.clone();
        gemm_nn(&a, &b, &mut c, m, k, n);
        crate::reference::matmul_nn(&a, &b, &mut r, m, k, n);
        crate::reference::assert_close("gemm_nn", &c, &r);
    }

    #[test]
    fn kernels_accumulate_instead_of_overwrite() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        let mut c = vec![10.0];
        gemm_nn(&a, &b, &mut c, 1, 2, 1);
        assert_eq!(c, vec![10.0 + 3.0 + 8.0]);
        gemm_nt(&a, &b, &mut c, 1, 2, 1);
        assert_eq!(c, vec![21.0 + 3.0 + 8.0]);
        gemm_tn(&a, &b, &mut c, 1, 2, 1);
        assert_eq!(c, vec![32.0 + 3.0 + 8.0]);
    }

    #[test]
    fn signed_zeros_follow_the_oracle() {
        // -0.0 products and +0.0 starts are where a reordered sum would
        // first show a different bit pattern.
        let a = vec![-0.0, 0.0, -1.0, 0.0, 2.0, -0.0, 0.0, 0.0, -0.0];
        let b = vec![0.0, -0.0, 0.0, 1.0, -0.0, 0.0, 0.0, -2.0, 0.0];
        for &(m, k, n) in &[(1, 9, 1), (3, 3, 3), (9, 1, 1), (1, 1, 9)] {
            let (a, b) = (&a[..m * k], &b[..n * k]);
            let mut got = vec![-0.0; m * n];
            let mut want = got.clone();
            gemm_nt(a, b, &mut got, m, k, n);
            order::gemm_nt(a, b, &mut want, m, k, n);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "nt {m}x{k}x{n}");
        }
    }
}
