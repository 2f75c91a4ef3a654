//! Property tests for the SIMD panel kernels and the auto-gated
//! parallelism mode: the runtime-dispatched AVX f64×4 kernels must be
//! **bitwise identical** to their scalar fallbacks on panels drawn from
//! every generator family and on adversarial shapes (remainder widths,
//! unaligned base pointers), and the `Parallelism::auto` cost gate that
//! routes request-level fan-out must behave at its extremes.
//!
//! On a machine without AVX (or under `ORIANNA_NO_SIMD=1`) the dispatch
//! resolves to the scalar path and these tests degenerate to
//! self-comparisons — still useful as fallback-path coverage, which is
//! exactly what the CI `ORIANNA_NO_SIMD` matrix leg runs.

use orianna_math::{macs, panel, Parallelism};
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
    /// every generator family, laid out `[blocks | rhs]` like the arena.
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
            let mut panel_buf = vec![0.0f64; rows * width];
            for r in 0..rows {
                let mut c = 0;
                for blk in &f.blocks {
                    panel_buf[r * width + c..r * width + c + blk.cols()]
                        .copy_from_slice(blk.row(r));
                    c += blk.cols();
                }
                panel_buf[r * width + width - 1] = f.rhs[r];
            }
            let mut dispatched = panel_buf.clone();
            let mut scalar = panel_buf;
            let mut vbuf = vec![0.0f64; rows.max(1)];
            panel::triangularize(&mut dispatched, rows, width, &mut vbuf);
            panel::triangularize_scalar(&mut scalar, rows, width, &mut vbuf);
            prop_assert_eq!(
                dispatched.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

/// The full-width reflection schedule: every reflection applied to every
/// column through `reflect_left`, then the sub-diagonal cleanup — the
/// arithmetic `householder_qr` runs on `R`.
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Panels at least 16 wide reach the 16-column AVX chunk: the
    /// dispatched and scalar kernels, which reflect only the columns
    /// right of each pivot, agree bitwise with the full-width schedule
    /// and record the same MACs.
    #[test]
    fn wide_triangularize_matches_full_width_schedule(
        rows in 2usize..72,
        width in 16usize..72,
        seed in 0u64..1024,
    ) {
        let mut a = vec![0.0f64; rows * width];
        fill(&mut a, seed);
        let mut full = a.clone();
        let (_, full_macs) = macs::measure(|| triangularize_full_width(&mut full, rows, width));
        let mut vbuf = vec![0.0f64; rows];
        let mut dispatched = a.clone();
        let (_, dispatched_macs) =
            macs::measure(|| panel::triangularize(&mut dispatched, rows, width, &mut vbuf));
        let mut scalar = a;
        let (_, scalar_macs) =
            macs::measure(|| panel::triangularize_scalar(&mut scalar, rows, width, &mut vbuf));
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&dispatched), bits(&full));
        prop_assert_eq!(bits(&scalar), bits(&full));
        prop_assert_eq!(dispatched_macs, full_macs);
        prop_assert_eq!(scalar_macs, full_macs);
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
