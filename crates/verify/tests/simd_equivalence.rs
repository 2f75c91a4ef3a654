//! Property tests for the SIMD panel kernels and the auto-gated
//! parallelism mode: the runtime-dispatched AVX f64×4 kernels must be
//! **bitwise identical** to their scalar fallbacks on panels drawn from
//! every generator family and on adversarial shapes (every width modulo
//! four, wide panels, zero pivot columns, non-finite entries, unaligned
//! base pointers), the padded triangularization must reproduce
//! `householder_qr` bit for bit, and the `Parallelism::auto` cost gate
//! that routes request-level fan-out must behave at its extremes.
//!
//! On a machine without AVX (or under `ORIANNA_NO_SIMD=1`) the dispatch
//! resolves to the scalar path and these tests degenerate to
//! self-comparisons — still useful as fallback-path coverage, which is
//! exactly what the CI `ORIANNA_NO_SIMD` matrix leg runs.

use orianna_math::{householder_qr, macs, panel, Mat, Parallelism};
use orianna_verify::{generate, Family, GenConfig};
use proptest::prelude::*;

fn family_of(idx: usize) -> Family {
    Family::ALL[idx % Family::ALL.len()]
}

/// Deterministic pseudo-random fill, decoupled from proptest's shrinker
/// so failures reproduce from the seed alone.
fn fill(buf: &mut [f64], seed: u64) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for x in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *x = (state as f64 / u64::MAX as f64) * 2.0 - 1.0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatched Householder apply equals the scalar reference bitwise
    /// on random panels and reflection offsets.
    #[test]
    fn simd_reflect_matches_scalar_bitwise(
        rows in 2usize..16,
        width in 1usize..40,
        kfrac in 0usize..4,
        offset in 0usize..4,
        seed in 0u64..1024,
    ) {
        let k = kfrac * (rows - 1) / 4;
        let mut backing = vec![0.0f64; rows * width + offset];
        fill(&mut backing, seed);
        let mut v = vec![0.0f64; rows - k];
        fill(&mut v, seed ^ 0x5EED);
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
        v.iter_mut().for_each(|x| *x /= norm);
        let mut dispatched = backing[offset..].to_vec();
        let mut scalar = dispatched.clone();
        panel::reflect_left(&mut dispatched, rows, width, &v, k);
        panel::reflect_left_scalar(&mut scalar, rows, width, &v, k);
        prop_assert_eq!(
            dispatched.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Full triangularization dispatch equals the forced-scalar path
    /// bitwise on the panels a real solve stacks: every linear factor of
    /// every generator family, laid out `[blocks | rhs]` at the padded
    /// stride like the arena.
    #[test]
    fn simd_triangularize_matches_scalar_on_family_panels(
        fam in 0usize..4,
        vars in 3usize..9,
        dstep in 0usize..4,
        seed in 0u64..512,
    ) {
        let g = generate(&GenConfig::new(family_of(fam), vars, dstep as f64 * 0.25, seed));
        let sys = g.linearize();
        for f in &sys.factors {
            let rows = f.rows();
            let width: usize = f.blocks.iter().map(|b| b.cols()).sum::<usize>() + 1;
            let stride = panel::stride(width);
            let mut panel_buf = vec![0.0f64; rows * stride];
            for r in 0..rows {
                let mut c = 0;
                for blk in &f.blocks {
                    panel_buf[r * stride + c..r * stride + c + blk.cols()]
                        .copy_from_slice(blk.row(r));
                    c += blk.cols();
                }
                panel_buf[r * stride + width - 1] = f.rhs[r];
            }
            let mut dispatched = panel_buf.clone();
            let mut scalar = panel_buf;
            let mut vbuf = vec![0.0f64; rows.max(1)];
            panel::triangularize(&mut dispatched, rows, width, stride, &mut vbuf);
            panel::triangularize_scalar(&mut scalar, rows, width, stride, &mut vbuf);
            prop_assert_eq!(bits(&dispatched), bits(&scalar));
        }
    }
}

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

/// `a` (`rows × width`, unpadded) laid out at the padded stride.
fn pad(a: &[f64], rows: usize, width: usize) -> Vec<f64> {
    let stride = panel::stride(width);
    let mut p = vec![0.0f64; rows * stride];
    for r in 0..rows {
        p[r * stride..r * stride + width].copy_from_slice(&a[r * width..(r + 1) * width]);
    }
    p
}

/// The real columns of a padded panel, and whether every padding lane
/// holds `+0.0`.
fn unpad(p: &[f64], rows: usize, width: usize) -> (Vec<f64>, bool) {
    let stride = panel::stride(width);
    let mut real = Vec::with_capacity(rows * width);
    let mut padding_zero = true;
    for row in p.chunks(stride.max(1)).take(rows) {
        real.extend_from_slice(&row[..width]);
        padding_zero &= row[width..].iter().all(|x| x.to_bits() == 0);
    }
    (real, padding_zero)
}

/// The full-width reflection schedule on an unpadded panel: every
/// reflection applied to every column through `reflect_left`, then the
/// sub-diagonal cleanup — the arithmetic `householder_qr` runs on `R`,
/// and the MACs it records.
fn triangularize_full_width(a: &mut [f64], rows: usize, width: usize) {
    let mut vbuf = vec![0.0f64; rows];
    for k in 0..width.min(rows.saturating_sub(1)) {
        let v = &mut vbuf[..rows - k];
        if panel::householder_vector(a, rows, width, k, v) {
            panel::reflect_left(a, rows, width, v, k);
        }
    }
    for r in 1..rows {
        a[r * width..r * width + r.min(width)].fill(0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one QR-panel kernel on padded panels of every shape (every
    /// `width % 4`, tall and wide): the dispatched and scalar paths leave
    /// `householder_qr(&a).r` bit for bit in the real columns, record the
    /// full-width schedule's MACs, and keep the padding at `+0.0`.
    /// `zero_col < width` zeroes that column (a zero pivot column when
    /// its reflection comes); `upper` makes the first column zero below
    /// the diagonal (a zero sub-column under a non-zero pivot). Both take
    /// `householder_vector`'s early `false` return.
    #[test]
    fn padded_triangularize_matches_householder_qr(
        rows in 1usize..73,
        width in 1usize..73,
        zero_col in 0usize..96,
        upper in 0usize..2,
        seed in 0u64..1024,
    ) {
        let mut a = vec![0.0f64; rows * width];
        fill(&mut a, seed);
        if zero_col < width {
            (0..rows).for_each(|r| a[r * width + zero_col] = 0.0);
        }
        if upper == 1 {
            (1..rows).for_each(|r| a[r * width] = 0.0);
        }
        let reference = householder_qr(&Mat::from_row_major(rows, width, &a)).r;
        let mut full = a.clone();
        let (_, full_macs) = macs::measure(|| triangularize_full_width(&mut full, rows, width));
        prop_assert_eq!(bits(&full), bits(reference.as_slice()));

        let stride = panel::stride(width);
        let mut vbuf = vec![0.0f64; rows];
        let mut dispatched = pad(&a, rows, width);
        let (_, dispatched_macs) = macs::measure(|| {
            panel::triangularize(&mut dispatched, rows, width, stride, &mut vbuf)
        });
        let mut scalar = pad(&a, rows, width);
        let (_, scalar_macs) = macs::measure(|| {
            panel::triangularize_scalar(&mut scalar, rows, width, stride, &mut vbuf)
        });
        let (d_real, d_pad_zero) = unpad(&dispatched, rows, width);
        let (s_real, s_pad_zero) = unpad(&scalar, rows, width);
        prop_assert_eq!(bits(&d_real), bits(reference.as_slice()));
        prop_assert_eq!(bits(&s_real), bits(reference.as_slice()));
        prop_assert!(d_pad_zero && s_pad_zero, "padding left +0.0");
        prop_assert_eq!(dispatched_macs, full_macs);
        prop_assert_eq!(scalar_macs, full_macs);
    }

    /// A panel seeded with NaN or ±Inf: the two paths still leave equal
    /// bits in the real columns (padding lanes may turn NaN on the AVX
    /// path, and nothing reads them).
    #[test]
    fn non_finite_panels_agree_in_real_columns(
        rows in 1usize..40,
        width in 1usize..40,
        at in 0usize..1600,
        kind in 0usize..3,
        seed in 0u64..1024,
    ) {
        let mut a = vec![0.0f64; rows * width];
        fill(&mut a, seed);
        a[at % (rows * width)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let stride = panel::stride(width);
        let mut vbuf = vec![0.0f64; rows];
        let mut dispatched = pad(&a, rows, width);
        panel::triangularize(&mut dispatched, rows, width, stride, &mut vbuf);
        let mut scalar = pad(&a, rows, width);
        panel::triangularize_scalar(&mut scalar, rows, width, stride, &mut vbuf);
        prop_assert_eq!(
            bits(&unpad(&dispatched, rows, width).0),
            bits(&unpad(&scalar, rows, width).0)
        );
    }
}

/// Gate extremes behave: zero work runs serial, unbounded work grants
/// the full (non-auto) thread budget — which auto mode clamps to the
/// cores actually available.
#[test]
fn auto_mode_routes_without_perturbing_the_solve() {
    let auto_par = Parallelism::auto_with_threads(4);
    assert!(!auto_par.gate(0).is_parallel());
    let full = auto_par.gate(u64::MAX);
    assert!(!full.is_auto());
    assert_eq!(
        full.effective_threads(0),
        4usize.min(orianna_math::par::available_threads())
    );
}
