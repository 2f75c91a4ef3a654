//! In-place panel kernels on flat row-major `f64` buffers.
//!
//! The arena-backed execution path (`SolvePlan` workspaces and the
//! compiler's register file) lays every frontal matrix out as a contiguous
//! row-major panel inside one pre-sized buffer. This module provides the
//! numeric kernels that operate directly on such panels without ever
//! materializing a [`crate::Mat`]:
//!
//! * [`matmul_into`] — blocked column-panel matrix product. The output is
//!   computed in fixed-width column chunks held in register accumulators,
//!   but every output element still accumulates its `k` terms in ascending
//!   order, so the result is **bitwise identical** to the naive triple loop
//!   (and therefore reproducible across runs and thread counts).
//! * [`triangularize`] — in-place R-only Householder triangularization of
//!   a `rows × width` panel stored at row stride [`stride`]`(width)`.
//!   Applies exactly the reflection schedule of [`crate::householder_qr`]
//!   and skips the orthogonal-factor accumulation, so the panel's `width`
//!   real columns afterwards hold `zero_below_diag(R)` bit for bit.
//!
//! ## SIMD dispatch
//!
//! QR panels are padded: each row holds `width` real columns followed by
//! zero padding up to [`stride`]`(width)`, a multiple of [`LANES`]. The
//! Householder apply of [`triangularize`] — the hot inner loop — then runs
//! in whole AVX f64×4 vectors, selected at runtime via
//! [`crate::simd::enabled`]: reflection `k` covers columns `k & !3` up to
//! the stride in blocks of up to four vectors, one accumulator per vector,
//! with no masks and no scalar tail. The columns `k & !3..k` it also
//! reflects hold only sub-diagonal residue in rows `≥ k`, which no later
//! reflection reads and the final cleanup zeroes; padding lanes compute
//! `0 − 2·(Σ vᵢ·0)·vᵢ = +0` on finite input and are never read.
//!
//! The kernels vectorize **across output columns**: each of the four lanes
//! owns one column and accumulates its row terms in the same ascending
//! order as the scalar loop, with a separate multiply and add per term (no
//! FMA). Lane-independent vectorization plus unfused arithmetic means
//! every output element sees the identical IEEE operation sequence, so the
//! AVX path is bitwise identical to the scalar one
//! ([`triangularize_scalar`], which walks only the `width` real columns at
//! the same stride, is kept public as the conformance reference). The
//! Householder *norm* ([`householder_vector`]) is deliberately scalar: it
//! is a sequential reduction whose summation order defines the bitwise
//! contract, and it is O(rows) against the apply's O(rows × width).
//!
//! [`reflect_left`] is the unpadded apply behind the reference
//! [`crate::householder_qr`]: its AVX path runs 16-column and 4-column
//! chunks, then scalar tail columns, through the same block kernel.
//!
//! [`matmul_into`] is scalar only: the construction products it serves
//! are mostly narrower than four output columns, and an AVX chunk never
//! beat the scalar chunks on them.
//!
//! All kernels record MACs identically to the `Mat`-based paths they mirror
//! so the paper's arithmetic-saving accounting is unaffected.

use crate::macs;
use crate::simd;

/// Width of the column chunk held in register accumulators by
/// [`matmul_into`]; the chunk is narrowed at the right edge of the
/// output, never widened.
const CHUNK: usize = 4;

/// Doubles per AVX vector: QR panel strides are padded to a multiple of it.
pub const LANES: usize = 4;

/// Row stride of a QR panel with `width` columns: `width` rounded up to a
/// multiple of [`LANES`]. Columns `width..stride(width)` are padding.
pub const fn stride(width: usize) -> usize {
    width.next_multiple_of(LANES)
}

/// Blocked matrix product `out = a · b` on flat row-major buffers where `a`
/// is `m×k`, `b` is `k×n` and `out` is `m×n`. Zero rows of `a` are skipped
/// exactly like the naive kernel. Does **not** record MACs — callers that
/// model arithmetic cost record `m·k·n` themselves.
///
/// # Panics
/// Panics (in debug builds) when the slice lengths disagree with the shapes.
pub fn matmul_into(out: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    out.fill(0.0);
    let mut c0 = 0;
    while c0 < n {
        let w = CHUNK.min(n - c0);
        match w {
            4 => matmul_chunk::<4>(out, a, b, m, k, n, c0),
            3 => matmul_chunk::<3>(out, a, b, m, k, n, c0),
            2 => matmul_chunk::<2>(out, a, b, m, k, n, c0),
            _ => matmul_chunk::<1>(out, a, b, m, k, n, c0),
        }
        c0 += w;
    }
}

/// Computes output columns `c0..c0 + W` of `out = a · b`. Per output
/// element the `k` terms are added in ascending order with the same
/// zero-skip as the naive kernel, so each element is bitwise identical to
/// the triple-loop result.
fn matmul_chunk<const W: usize>(
    out: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    c0: usize,
) {
    for r in 0..m {
        let arow = &a[r * k..(r + 1) * k];
        let mut acc = [0.0f64; W];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n + c0..kk * n + c0 + W];
            for (j, accj) in acc.iter_mut().enumerate() {
                *accj += av * brow[j];
            }
        }
        out[r * n + c0..r * n + c0 + W].copy_from_slice(&acc);
    }
}

/// In-place R-only Householder triangularization of a `rows × width` panel
/// stored row-major at row stride `stride` (a multiple of [`LANES`], at
/// least `width`; see [`stride`]). Padding columns must be finite — the
/// callers zero them — and are never read into the real columns.
///
/// Runs the exact reflection schedule of [`crate::householder_qr`] (same
/// Householder vectors, same application order, same MAC total, recorded
/// once per panel) but never touches an orthogonal accumulator, then
/// zeroes the sub-diagonal the way `householder_qr` does before returning
/// `R`. The real columns afterwards are bitwise identical to
/// `householder_qr(&a).r` for the same data. `vbuf` must hold at least
/// `rows` elements.
///
/// # Panics
/// Panics when `stride` is not a multiple of [`LANES`] at least `width`,
/// or `panel` is not `rows × stride` long.
pub fn triangularize(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    stride: usize,
    vbuf: &mut [f64],
) {
    triangularize_impl(panel, rows, width, stride, vbuf, simd::enabled());
}

/// The scalar reference for [`triangularize`]: reflects only the `width`
/// real columns, one column at a time, at the same stride. Public so
/// conformance tests can compare the two paths bitwise regardless of the
/// host CPU.
pub fn triangularize_scalar(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    stride: usize,
    vbuf: &mut [f64],
) {
    triangularize_impl(panel, rows, width, stride, vbuf, false);
}

fn triangularize_impl(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    stride: usize,
    vbuf: &mut [f64],
    use_simd: bool,
) {
    // The AVX apply indexes rows `k..rows` up to the stride unchecked.
    assert!(
        width <= stride && stride.is_multiple_of(LANES) && panel.len() == rows * stride,
        "{rows}x{width} panel at stride {stride} in {} doubles",
        panel.len()
    );
    // `householder_qr` charges `rows − k` per norm and a full-width apply
    // per reflection; the total is recorded once.
    let mut mac = 0;
    for k in 0..width.min(rows.saturating_sub(1)) {
        let v = &mut vbuf[..rows - k];
        mac += rows - k;
        if !reflector(panel, rows, stride, k, v) {
            continue;
        }
        mac += 2 * (rows - k) * width;
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // Safety: `use_simd` implies AVX was detected; the assert above
            // makes every row `stride` long, a multiple of `LANES`, so each
            // vector from column `k & !3` to the stride is in bounds, and
            // `v` is `rows − k` long.
            unsafe { avx::reflect_padded(panel, rows, stride, v, k) };
            continue;
        }
        // Columns left of `k` hold only sub-diagonal residue in rows
        // `≥ k`: no later reflection reads it and the cleanup below
        // zeroes it, so the scalar path reflects columns `k..width`.
        for c in k..width {
            reflect_col(panel, rows, stride, v, k, c);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    macs::record(mac);
    // Clean sub-diagonal residue exactly like `householder_qr`: reflections
    // leave values around `eps · |a|` below the diagonal, which downstream
    // keep-row scans at absolute tolerances must never see.
    for r in 1..rows {
        panel[r * stride..r * stride + r.min(width)].fill(0.0);
    }
}

/// Computes the normalized Householder vector annihilating column `k` of the
/// `rows × stride` panel below the diagonal into `v` (length `rows − k`) and
/// records its `rows − k` MACs. Returns `false` when the column is already
/// zero there. Arithmetic mirrors the `Mat`-based helper in [`crate::qr`]
/// operation for operation. Deliberately scalar — the norm is an
/// order-sensitive sequential reduction (module docs).
pub fn householder_vector(
    panel: &[f64],
    rows: usize,
    stride: usize,
    k: usize,
    v: &mut [f64],
) -> bool {
    macs::record(rows - k);
    reflector(panel, rows, stride, k, v)
}

/// [`householder_vector`] without the MAC record. One pass reads the
/// column and accumulates both the full norm (rows `k..`) and the
/// below-diagonal sum (rows `k + 1..`), each in ascending row order.
fn reflector(panel: &[f64], rows: usize, stride: usize, k: usize, v: &mut [f64]) -> bool {
    debug_assert_eq!(v.len(), rows - k);
    let x0 = panel[k * stride + k];
    v[0] = x0;
    let mut norm2 = 0.0;
    norm2 += x0 * x0;
    let mut below = 0.0;
    for (i, vi) in (k + 1..rows).zip(&mut v[1..]) {
        let x = panel[i * stride + k];
        *vi = x;
        norm2 += x * x;
        below += x * x;
    }
    if below < 1e-300 {
        return false;
    }
    let alpha = -v[0].signum() * norm2.sqrt();
    v[0] -= alpha;
    let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if vnorm < 1e-300 {
        return false;
    }
    let inv = 1.0 / vnorm;
    for x in v.iter_mut() {
        *x *= inv;
    }
    true
}

/// Applies `(I − 2 v vᵀ)` to rows `k..` of the unpadded `rows × width`
/// panel, column-major traversal identical to the `Mat`-based helper. Uses
/// the AVX kernels when available (bitwise identical — each lane owns one
/// column and runs the scalar operation sequence).
pub fn reflect_left(panel: &mut [f64], rows: usize, width: usize, v: &[f64], k: usize) {
    reflect_left_impl(panel, rows, width, v, k, simd::enabled());
}

/// The scalar reference for [`reflect_left`]. Public so conformance tests
/// can compare the two paths bitwise regardless of the host CPU.
pub fn reflect_left_scalar(panel: &mut [f64], rows: usize, width: usize, v: &[f64], k: usize) {
    reflect_left_impl(panel, rows, width, v, k, false);
}

/// With AVX the columns go in 16-wide chunks (four accumulators), then
/// 4-wide chunks, then one at a time; every lane owns one column and runs
/// `reflect_col`'s operation sequence.
fn reflect_left_impl(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    v: &[f64],
    k: usize,
    use_simd: bool,
) {
    // The AVX chunks index rows `k..rows` of columns `..width` unchecked.
    assert!(panel.len() >= rows * width && v.len() == rows - k);
    let mut c = 0;
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        while c + 16 <= width {
            // Safety: `use_simd` implies AVX was detected; columns
            // `c..c + 16` are in bounds for every touched row.
            unsafe { avx::reflect_block::<4>(panel, rows, width, v, k, c) };
            c += 16;
        }
        while c + 4 <= width {
            // Safety: as above, for columns `c..c + 4`.
            unsafe { avx::reflect_block::<1>(panel, rows, width, v, k, c) };
            c += 4;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    while c < width {
        reflect_col(panel, rows, width, v, k, c);
        c += 1;
    }
    macs::record(2 * (rows - k) * width);
}

/// One column of the Householder apply: dot in ascending row order, then
/// the rank-1 update. The scalar paths and the unpadded tail use this.
#[inline]
fn reflect_col(panel: &mut [f64], rows: usize, stride: usize, v: &[f64], k: usize, c: usize) {
    let mut dot = 0.0;
    for i in k..rows {
        dot += v[i - k] * panel[i * stride + c];
    }
    let f = 2.0 * dot;
    for i in k..rows {
        panel[i * stride + c] -= f * v[i - k];
    }
}

/// AVX f64×4 Householder apply. Every kernel vectorizes across output
/// columns — one column per lane — with separate multiply and add
/// intrinsics, so each element's IEEE operation sequence is exactly the
/// scalar one (see the module docs).
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::LANES;
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Reflects whole vectors of a padded panel: columns `k & !3` up to
    /// `stride`, in blocks of four vectors and one final block of the
    /// remaining one to three.
    ///
    /// # Safety
    /// Requires AVX; `stride % LANES == 0`, `panel.len() == rows * stride`,
    /// `k < rows` and `v.len() == rows - k`.
    #[target_feature(enable = "avx")]
    pub unsafe fn reflect_padded(
        panel: &mut [f64],
        rows: usize,
        stride: usize,
        v: &[f64],
        k: usize,
    ) {
        debug_assert!(stride.is_multiple_of(LANES));
        debug_assert_eq!(panel.len(), rows * stride);
        let mut c = k & !(LANES - 1);
        while c + 4 * LANES <= stride {
            reflect_block::<4>(panel, rows, stride, v, k, c);
            c += 4 * LANES;
        }
        match (stride - c) / LANES {
            3 => reflect_block::<3>(panel, rows, stride, v, k, c),
            2 => reflect_block::<2>(panel, rows, stride, v, k, c),
            1 => reflect_block::<1>(panel, rows, stride, v, k, c),
            _ => {}
        }
    }

    /// Householder apply to columns `c0..c0 + 4·N` in `N` accumulators,
    /// lane `j` of vector `n` owning column `c0 + 4n + j`: per lane the
    /// dot accumulates in ascending row order and the update subtracts
    /// `f·vᵢ` exactly like `reflect_col`.
    ///
    /// # Safety
    /// Requires AVX; `c0 + 4·N <= stride`, `panel.len() >= rows * stride`
    /// and `v.len() == rows - k`.
    #[target_feature(enable = "avx")]
    pub unsafe fn reflect_block<const N: usize>(
        panel: &mut [f64],
        rows: usize,
        stride: usize,
        v: &[f64],
        k: usize,
        c0: usize,
    ) {
        debug_assert!(c0 + N * LANES <= stride);
        debug_assert!(panel.len() >= rows * stride);
        debug_assert_eq!(v.len(), rows - k);
        let p = panel.as_mut_ptr();
        let mut dot = [_mm256_setzero_pd(); N];
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let at = p.add(i * stride + c0);
            for (n, d) in dot.iter_mut().enumerate() {
                *d = _mm256_add_pd(*d, _mm256_mul_pd(vi, _mm256_loadu_pd(at.add(n * LANES))));
            }
        }
        let two = _mm256_set1_pd(2.0);
        let mut f = dot;
        for fn_ in f.iter_mut() {
            *fn_ = _mm256_mul_pd(two, *fn_);
        }
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let at = p.add(i * stride + c0);
            for (n, fn_) in f.iter().enumerate() {
                let row = _mm256_loadu_pd(at.add(n * LANES));
                _mm256_storeu_pd(
                    at.add(n * LANES),
                    _mm256_sub_pd(row, _mm256_mul_pd(*fn_, vi)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{householder_qr, Mat};

    fn random_like(rows: usize, cols: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut m = Mat::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = next();
            }
        }
        m
    }

    /// The naive triple loop `mul_mat` used before blocking, kept here as
    /// the bitwise reference.
    fn naive_mul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a[(r, k)];
                if av == 0.0 {
                    continue;
                }
                for c in 0..b.cols() {
                    out[(r, c)] += av * b[(k, c)];
                }
            }
        }
        out
    }

    #[test]
    fn blocked_matmul_is_bitwise_identical_to_naive() {
        for (m, k, n, seed) in [
            (1, 1, 1, 1),
            (3, 4, 5, 2),
            (4, 4, 4, 3),
            (7, 5, 9, 4),
            (8, 8, 13, 5),
            (2, 9, 3, 6),
        ] {
            let a = random_like(m, k, seed);
            let b = random_like(k, n, seed + 100);
            let naive = naive_mul(&a, &b);
            let mut blocked = vec![0.0f64; m * n];
            matmul_into(&mut blocked, a.as_slice(), b.as_slice(), m, k, n);
            assert_eq!(blocked.as_slice(), naive.as_slice(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_matmul_skips_zero_rows_like_naive() {
        let mut a = random_like(4, 4, 9);
        for c in 0..4 {
            a[(2, c)] = 0.0;
        }
        let b = random_like(4, 6, 10);
        let naive = naive_mul(&a, &b);
        let mut blocked = vec![0.0f64; 4 * 6];
        matmul_into(&mut blocked, a.as_slice(), b.as_slice(), 4, 4, 6);
        assert_eq!(blocked.as_slice(), naive.as_slice());
    }

    #[test]
    fn simd_reflect_is_bitwise_identical_to_scalar() {
        for (rows, width, k, seed) in [
            (6, 4, 0, 31),
            (8, 9, 2, 32),
            (12, 7, 5, 33),
            (5, 12, 1, 34),
            (16, 16, 3, 35),
            (24, 37, 4, 36),
        ] {
            let base = random_like(rows, width, seed);
            let mut v: Vec<f64> = (0..rows - k).map(|i| (i as f64 + 1.0).recip()).collect();
            let vnorm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            v.iter_mut().for_each(|x| *x /= vnorm);
            let mut dispatched = base.as_slice().to_vec();
            let mut scalar = base.as_slice().to_vec();
            reflect_left(&mut dispatched, rows, width, &v, k);
            reflect_left_scalar(&mut scalar, rows, width, &v, k);
            assert_eq!(dispatched, scalar, "{rows}x{width} k={k}");
        }
    }

    #[test]
    fn simd_reflect_records_same_macs_as_scalar() {
        let rows = 9;
        let width = 10;
        let k = 2;
        let base = random_like(rows, width, 41);
        let v: Vec<f64> = (0..rows - k).map(|i| (i as f64 + 0.5).sin()).collect();
        let mut a = base.as_slice().to_vec();
        let (_, simd_macs) = macs::measure(|| reflect_left(&mut a, rows, width, &v, k));
        let mut b = base.as_slice().to_vec();
        let (_, scalar_macs) = macs::measure(|| reflect_left_scalar(&mut b, rows, width, &v, k));
        assert_eq!(simd_macs, scalar_macs);
    }

    /// `a` laid out at the padded stride, padding zeroed.
    fn padded(a: &Mat) -> Vec<f64> {
        let (rows, width) = a.shape();
        let s = stride(width);
        let mut p = vec![0.0f64; rows * s];
        for r in 0..rows {
            p[r * s..r * s + width].copy_from_slice(a.row(r));
        }
        p
    }

    /// The real columns of a padded panel, unpadded.
    fn real(p: &[f64], rows: usize, width: usize) -> Vec<f64> {
        let s = stride(width);
        (0..rows)
            .flat_map(|r| p[r * s..r * s + width].iter().copied())
            .collect()
    }

    fn bits(p: &[f64]) -> Vec<u64> {
        p.iter().map(|x| x.to_bits()).collect()
    }

    /// The full-width schedule on an unpadded panel: every reflection
    /// applied to every column through [`reflect_left`], then the
    /// sub-diagonal cleanup.
    fn triangularize_full_width(panel: &mut [f64], rows: usize, width: usize) {
        let mut vbuf = vec![0.0f64; rows];
        for k in 0..width.min(rows.saturating_sub(1)) {
            let v = &mut vbuf[..rows - k];
            if householder_vector(panel, rows, width, k, v) {
                reflect_left(panel, rows, width, v, k);
            }
        }
        for r in 1..rows {
            panel[r * width..r * width + r.min(width)].fill(0.0);
        }
    }

    /// Both kernels on the padded layout of `a`, checked against
    /// `householder_qr` and the full-width MAC schedule; padding must stay
    /// `+0.0`.
    fn check_padded(a: &Mat) {
        let (m, n) = a.shape();
        let reference = householder_qr(a).r;
        let mut full = a.as_slice().to_vec();
        let (_, full_macs) = macs::measure(|| triangularize_full_width(&mut full, m, n));
        assert_eq!(
            bits(&full),
            bits(reference.as_slice()),
            "{m}x{n} full width"
        );
        let mut vbuf = vec![0.0f64; m];
        let mut panel = padded(a);
        let (_, macs_simd) =
            macs::measure(|| triangularize(&mut panel, m, n, stride(n), &mut vbuf));
        let mut scalar = padded(a);
        let (_, macs_scalar) =
            macs::measure(|| triangularize_scalar(&mut scalar, m, n, stride(n), &mut vbuf));
        assert_eq!(
            bits(&real(&panel, m, n)),
            bits(reference.as_slice()),
            "{m}x{n}"
        );
        assert_eq!(bits(&scalar), bits(&panel), "{m}x{n} scalar");
        assert_eq!(macs_simd, full_macs, "{m}x{n} macs");
        assert_eq!(macs_scalar, full_macs, "{m}x{n} scalar macs");
        for r in 0..m {
            for &x in &panel[r * stride(n) + n..(r + 1) * stride(n)] {
                assert_eq!(x.to_bits(), 0.0f64.to_bits(), "{m}x{n} padding");
            }
        }
    }

    #[test]
    fn stride_pads_to_whole_vectors() {
        assert_eq!(
            (0..10).map(stride).collect::<Vec<_>>(),
            [0, 4, 4, 4, 4, 8, 8, 8, 8, 12]
        );
    }

    #[test]
    fn triangularize_matches_householder_qr_bitwise() {
        // Every `width % 4`, tall, square and wide panels, and widths past
        // one four-vector block.
        for (m, n, seed) in [
            (4, 4, 1),
            (6, 3, 2),
            (3, 5, 3),
            (8, 8, 4),
            (9, 2, 5),
            (7, 1, 6),
            (2, 7, 7),
            (20, 17, 51),
            (40, 37, 52),
            (33, 50, 53),
            (104, 86, 54),
        ] {
            check_padded(&random_like(m, n, seed));
        }
    }

    #[test]
    fn zero_pivot_columns_skip_their_reflection() {
        // Columns 0 and 1 start upper-triangular, so reflections 0 and 1
        // find nothing below a non-zero diagonal; column 3 is all zero and
        // stays zero through reflection 2, so reflection 3 finds a zero
        // pivot column. All three take the early `false` return.
        let mut a = random_like(9, 6, 61);
        for r in 1..9 {
            a[(r, 0)] = 0.0;
        }
        for r in 2..9 {
            a[(r, 1)] = 0.0;
        }
        for r in 0..9 {
            a[(r, 3)] = 0.0;
        }
        check_padded(&a);
        check_padded(&Mat::zeros(5, 7));
    }

    #[test]
    fn non_finite_panels_agree_in_real_columns() {
        for (m, n, seed) in [(6, 5, 71), (9, 11, 72), (18, 18, 73)] {
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = random_like(m, n, seed);
                a[(m / 2, n / 2)] = poison;
                let mut vbuf = vec![0.0f64; m];
                let mut panel = padded(&a);
                triangularize(&mut panel, m, n, stride(n), &mut vbuf);
                let mut scalar = padded(&a);
                triangularize_scalar(&mut scalar, m, n, stride(n), &mut vbuf);
                assert_eq!(
                    bits(&real(&panel, m, n)),
                    bits(&real(&scalar, m, n)),
                    "{m}x{n} {poison}"
                );
            }
        }
    }
}
