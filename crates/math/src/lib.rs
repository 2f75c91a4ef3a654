//! # orianna-math
//!
//! Dense linear-algebra substrate for the ORIANNA framework.
//!
//! ORIANNA (ASPLOS'24) lowers optimization-based robotic algorithms to a
//! small set of matrix operations (Tbl. 3 of the paper) and solves the
//! resulting linear systems with incremental partial QR decompositions and
//! back-substitutions (Fig. 5/6). This crate provides those kernels:
//!
//! * [`Mat`] / [`Vec64`] — small dense row-major matrices and vectors,
//! * [`qr`] — full Householder QR, the reference factorization,
//! * [`panel`] — in-place panel kernels (blocked matmul, Householder
//!   triangularization) on flat row-major buffers,
//! * [`triangular`] — forward/back substitution,
//! * [`solve`] — dense least-squares helpers used as a ground-truth oracle
//!   in tests,
//! * [`macs`] — multiply–accumulate counting, used to reproduce the paper's
//!   Sec. 4.3 arithmetic-saving claims and to drive baseline cost models,
//! * [`par`] — the [`Parallelism`] configuration and the scoped-thread
//!   fan-out across independent requests (solves themselves are serial),
//! * [`scratch`] — per-thread reusable buffers so the hot QR/matmul
//!   kernels allocate no per-operation temporaries,
//! * [`simd`] — runtime feature detection for the AVX f64×4 panel
//!   microkernels (bitwise identical to their scalar fallbacks).
//!
//! All kernels are written from scratch on `f64`; no external linear algebra
//! crates are used.
//!
//! ## Example
//!
//! ```
//! use orianna_math::{Mat, Vec64};
//!
//! let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
//! let x = Vec64::from_slice(&[1.0, 1.0]);
//! let y = a.mul_vec(&x);
//! assert_eq!(y.as_slice(), &[2.0, 3.0]);
//! ```

pub mod macs;
pub mod mat;
pub mod panel;
pub mod par;
pub mod qr;
pub mod scratch;
pub mod simd;
pub mod solve;
pub mod triangular;

pub use mat::{Mat, Vec64};
pub use par::Parallelism;
pub use qr::{householder_qr, QrFactors};
pub use solve::{least_squares, solve_upper_triangular};

/// Comparison tolerance used throughout the test-suite of the workspace.
pub const EPS: f64 = 1e-9;

/// Returns `true` when two floats agree to within `tol` absolutely or
/// relatively (whichever is looser), which is robust for both tiny and
/// large magnitudes.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}
