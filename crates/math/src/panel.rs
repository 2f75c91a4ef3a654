//! In-place panel kernels on flat row-major `f64` buffers.
//!
//! The arena-backed execution path (`SolvePlan` workspaces, the compiler's
//! register file, the hardware QR template) lays every frontal matrix out as
//! a contiguous `rows × width` row-major panel inside one pre-sized buffer.
//! This module provides the numeric kernels that operate directly on such
//! panels without ever materializing a [`crate::Mat`]:
//!
//! * [`matmul_into`] — blocked column-panel matrix product. The output is
//!   computed in fixed-width column chunks held in register accumulators,
//!   but every output element still accumulates its `k` terms in ascending
//!   order, so the result is **bitwise identical** to the naive triple loop
//!   (and therefore reproducible across runs and thread counts).
//! * [`triangularize`] — in-place R-only Householder triangularization.
//!   Applies exactly the reflection schedule of [`crate::householder_qr`]
//!   to the columns that still matter (reflection `k` skips columns left
//!   of `k`, whose rows `≥ k` hold only residue the final cleanup zeroes)
//!   and skips the orthogonal-factor accumulation, so the panel afterwards
//!   holds `zero_below_diag(R)` bit for bit.
//!
//! ## SIMD dispatch
//!
//! The Householder apply ([`reflect_left`]) — the hot inner loop of
//! triangularization — has AVX f64×4 variants selected at runtime via
//! [`crate::simd::enabled`] (it also runs 16-column chunks in four
//! accumulators). They vectorize **across output columns**: each of the
//! four lanes owns one column and accumulates its row terms in the same
//! ascending order as the scalar loop, with a separate multiply and add
//! per term (no FMA). Lane-independent vectorization plus unfused
//! arithmetic means every output element sees the identical IEEE
//! operation sequence, so the AVX kernels are bitwise identical to the
//! scalar fallbacks ([`reflect_left_scalar`], [`triangularize_scalar`] —
//! kept public as conformance references). The Householder *norm*
//! ([`householder_vector`]) is deliberately left scalar: it is a
//! sequential reduction whose summation order defines the bitwise
//! contract, and it is O(rows) against the apply's O(rows × width).
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

/// In-place R-only Householder triangularization of a `rows × width` panel.
///
/// Runs the exact reflection schedule of [`crate::householder_qr`] (same
/// Householder vectors, same application order, same MAC accounting) but
/// never touches an orthogonal accumulator nor the columns left of the
/// current reflection, then zeroes the sub-diagonal the way
/// `householder_qr` does before returning `R`. The panel afterwards is
/// bitwise identical to `householder_qr(&a).r` for the same data. `vbuf`
/// must hold at least `rows` elements.
pub fn triangularize(panel: &mut [f64], rows: usize, width: usize, vbuf: &mut [f64]) {
    triangularize_impl(panel, rows, width, vbuf, simd::enabled());
}

/// The scalar reference for [`triangularize`]: forces the scalar
/// Householder apply. Public so conformance tests can compare the two
/// paths bitwise regardless of the host CPU.
pub fn triangularize_scalar(panel: &mut [f64], rows: usize, width: usize, vbuf: &mut [f64]) {
    triangularize_impl(panel, rows, width, vbuf, false);
}

fn triangularize_impl(panel: &mut [f64], rows: usize, width: usize, vbuf: &mut [f64], simd: bool) {
    debug_assert_eq!(panel.len(), rows * width);
    debug_assert!(vbuf.len() >= rows);
    for k in 0..width.min(rows.saturating_sub(1)) {
        let v = &mut vbuf[..rows - k];
        if householder_vector(panel, rows, width, k, v) {
            // Columns left of `k` hold only sub-diagonal residue in rows
            // `≥ k`: no later reflection reads it and the cleanup below
            // zeroes it, so only columns `k..` are reflected. The MAC
            // record still charges the full-width apply of `householder_qr`.
            apply_reflection(panel, rows, width, v, k, k, simd);
            macs::record(2 * (rows - k) * width);
        }
    }
    // Clean sub-diagonal residue exactly like `householder_qr`: reflections
    // leave values around `eps · |a|` below the diagonal, which downstream
    // keep-row scans at absolute tolerances must never see.
    for r in 1..rows {
        let row = &mut panel[r * width..(r + 1) * width];
        row[..r.min(width)].fill(0.0);
    }
}

/// Computes the normalized Householder vector annihilating column `k` of the
/// panel below the diagonal into `v` (length `rows − k`). Returns `false`
/// when the column is already zero there. Arithmetic mirrors the `Mat`-based
/// helper in [`crate::qr`] operation for operation. Deliberately scalar —
/// the norm is an order-sensitive sequential reduction (module docs).
pub fn householder_vector(
    panel: &[f64],
    rows: usize,
    width: usize,
    k: usize,
    v: &mut [f64],
) -> bool {
    debug_assert_eq!(v.len(), rows - k);
    let mut norm2 = 0.0;
    for i in k..rows {
        let x = panel[i * width + k];
        v[i - k] = x;
        norm2 += x * x;
    }
    macs::record(rows - k);
    let below: f64 = (k + 1..rows)
        .map(|i| panel[i * width + k] * panel[i * width + k])
        .sum();
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

/// Applies `(I − 2 v vᵀ)` to rows `k..` of the `rows × width` panel,
/// column-major traversal identical to the `Mat`-based helper. Uses the
/// AVX four-column kernel when available (bitwise identical — each lane
/// owns one column and runs the scalar operation sequence).
pub fn reflect_left(panel: &mut [f64], rows: usize, width: usize, v: &[f64], k: usize) {
    reflect_left_impl(panel, rows, width, v, k, simd::enabled());
}

/// The scalar reference for [`reflect_left`]. Public so conformance tests
/// can compare the two paths bitwise regardless of the host CPU.
pub fn reflect_left_scalar(panel: &mut [f64], rows: usize, width: usize, v: &[f64], k: usize) {
    reflect_left_impl(panel, rows, width, v, k, false);
}

fn reflect_left_impl(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    v: &[f64],
    k: usize,
    use_simd: bool,
) {
    apply_reflection(panel, rows, width, v, k, 0, use_simd);
    macs::record(2 * (rows - k) * width);
}

/// Applies `(I − 2 v vᵀ)` to rows `k..` of columns `c0..width`, without
/// recording MACs. With AVX the columns go in 16-wide chunks (four
/// accumulators), then 4-wide chunks, then one at a time; every lane owns
/// one column and runs `reflect_col`'s operation sequence.
fn apply_reflection(
    panel: &mut [f64],
    rows: usize,
    width: usize,
    v: &[f64],
    k: usize,
    c0: usize,
    use_simd: bool,
) {
    debug_assert_eq!(v.len(), rows - k);
    let mut c = c0;
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        while c + 16 <= width {
            // Safety: `use_simd` implies AVX was detected; columns
            // `c..c + 16` are in bounds for every touched row.
            unsafe { avx::reflect_cols16(panel, rows, width, v, k, c) };
            c += 16;
        }
        while c + 4 <= width {
            // Safety: as above, for columns `c..c + 4`.
            unsafe { avx::reflect_cols4(panel, rows, width, v, k, c) };
            c += 4;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    while c < width {
        reflect_col(panel, rows, width, v, k, c);
        c += 1;
    }
}

/// One column of the Householder apply: dot in ascending row order, then
/// the rank-1 update. Both the scalar and remainder paths use this.
#[inline]
fn reflect_col(panel: &mut [f64], rows: usize, width: usize, v: &[f64], k: usize, c: usize) {
    let mut dot = 0.0;
    for i in k..rows {
        dot += v[i - k] * panel[i * width + c];
    }
    let f = 2.0 * dot;
    for i in k..rows {
        panel[i * width + c] -= f * v[i - k];
    }
}

/// AVX f64×4 variants of the Householder apply. Every kernel vectorizes
/// across four output columns — one column per lane — with separate
/// multiply and add intrinsics, so each element's IEEE operation sequence
/// is exactly the scalar one (see the module docs).
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm256_sub_pd,
    };

    /// Householder apply to columns `c0..c0 + 4`, lane `j` owning column
    /// `c0 + j`: per lane the dot accumulates in ascending row order and
    /// the update subtracts `f·vᵢ` exactly like `reflect_col`.
    ///
    /// # Safety
    /// Requires AVX; `c0 + 4 <= width` and `v.len() == rows - k`.
    #[target_feature(enable = "avx")]
    pub unsafe fn reflect_cols4(
        panel: &mut [f64],
        rows: usize,
        width: usize,
        v: &[f64],
        k: usize,
        c0: usize,
    ) {
        debug_assert!(c0 + 4 <= width);
        debug_assert_eq!(v.len(), rows - k);
        let mut dot = _mm256_setzero_pd();
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let row = _mm256_loadu_pd(panel.as_ptr().add(i * width + c0));
            dot = _mm256_add_pd(dot, _mm256_mul_pd(vi, row));
        }
        let f = _mm256_mul_pd(_mm256_set1_pd(2.0), dot);
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let row = _mm256_loadu_pd(panel.as_ptr().add(i * width + c0));
            let updated = _mm256_sub_pd(row, _mm256_mul_pd(f, vi));
            _mm256_storeu_pd(panel.as_mut_ptr().add(i * width + c0), updated);
        }
    }

    /// Householder apply to columns `c0..c0 + 16` in four accumulators,
    /// lane by lane the same operation sequence as [`reflect_cols4`].
    ///
    /// # Safety
    /// Requires AVX; `c0 + 16 <= width` and `v.len() == rows - k`.
    #[target_feature(enable = "avx")]
    pub unsafe fn reflect_cols16(
        panel: &mut [f64],
        rows: usize,
        width: usize,
        v: &[f64],
        k: usize,
        c0: usize,
    ) {
        debug_assert!(c0 + 16 <= width);
        debug_assert_eq!(v.len(), rows - k);
        let p = panel.as_mut_ptr();
        let (mut d0, mut d1, mut d2, mut d3) = (
            _mm256_setzero_pd(),
            _mm256_setzero_pd(),
            _mm256_setzero_pd(),
            _mm256_setzero_pd(),
        );
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let at = p.add(i * width + c0);
            d0 = _mm256_add_pd(d0, _mm256_mul_pd(vi, _mm256_loadu_pd(at)));
            d1 = _mm256_add_pd(d1, _mm256_mul_pd(vi, _mm256_loadu_pd(at.add(4))));
            d2 = _mm256_add_pd(d2, _mm256_mul_pd(vi, _mm256_loadu_pd(at.add(8))));
            d3 = _mm256_add_pd(d3, _mm256_mul_pd(vi, _mm256_loadu_pd(at.add(12))));
        }
        let two = _mm256_set1_pd(2.0);
        let (f0, f1, f2, f3) = (
            _mm256_mul_pd(two, d0),
            _mm256_mul_pd(two, d1),
            _mm256_mul_pd(two, d2),
            _mm256_mul_pd(two, d3),
        );
        for i in k..rows {
            let vi = _mm256_set1_pd(*v.get_unchecked(i - k));
            let at = p.add(i * width + c0);
            for (j, f) in [(0, f0), (4, f1), (8, f2), (12, f3)] {
                let row = _mm256_loadu_pd(at.add(j));
                _mm256_storeu_pd(at.add(j), _mm256_sub_pd(row, _mm256_mul_pd(f, vi)));
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

    #[test]
    fn triangularize_matches_householder_qr_bitwise() {
        for (m, n, seed) in [(4, 4, 1), (6, 3, 2), (3, 5, 3), (8, 8, 4), (9, 2, 5)] {
            let a = random_like(m, n, seed);
            let reference = householder_qr(&a).r;
            let mut panel = a.as_slice().to_vec();
            let mut vbuf = vec![0.0f64; m];
            triangularize(&mut panel, m, n, &mut vbuf);
            assert_eq!(panel.as_slice(), reference.as_slice(), "{m}x{n}");
            // And the forced-scalar path agrees with the dispatched one.
            let mut panel2 = a.as_slice().to_vec();
            triangularize_scalar(&mut panel2, m, n, &mut vbuf);
            assert_eq!(panel2, panel, "{m}x{n} scalar");
        }
    }

    /// The full-width schedule: every reflection applied to every column
    /// through [`reflect_left`], then the sub-diagonal cleanup.
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

    #[test]
    fn wide_triangularize_matches_full_width_schedule_and_macs() {
        // Widths ≥ 16 reach the 16-column AVX chunk; the remainders
        // exercise the 4-wide and scalar tails after it.
        for (m, n, seed) in [(20, 17, 51), (40, 37, 52), (33, 50, 53), (104, 86, 54)] {
            let a = random_like(m, n, seed);
            let reference = householder_qr(&a).r;
            let mut full = a.as_slice().to_vec();
            let (_, full_macs) = macs::measure(|| triangularize_full_width(&mut full, m, n));
            assert_eq!(full.as_slice(), reference.as_slice(), "{m}x{n} full width");
            let mut vbuf = vec![0.0f64; m];
            let mut panel = a.as_slice().to_vec();
            let (_, live_macs) = macs::measure(|| triangularize(&mut panel, m, n, &mut vbuf));
            assert_eq!(panel.as_slice(), reference.as_slice(), "{m}x{n}");
            let mut scalar = a.as_slice().to_vec();
            let (_, scalar_macs) =
                macs::measure(|| triangularize_scalar(&mut scalar, m, n, &mut vbuf));
            assert_eq!(scalar, panel, "{m}x{n} scalar");
            assert_eq!(live_macs, full_macs, "{m}x{n} macs");
            assert_eq!(scalar_macs, full_macs, "{m}x{n} scalar macs");
        }
    }
}
