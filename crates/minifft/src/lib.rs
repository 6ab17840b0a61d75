#![warn(missing_docs)]

//! An FFTW-style baseline FFT library, built from scratch.
//!
//! The paper compares SPL-generated code against FFTW 2.x, which computes
//! large FFTs recursively from three components: *codelets* (optimized
//! straight-line transforms for small sizes, parameterized by input and
//! output stride), a *planner* (run-time dynamic programming over
//! factorizations, either by **measuring** candidate execution times or by
//! **estimating** them with a cost model), and an *executor* that walks
//! the chosen plan. This crate implements that architecture directly (see
//! DESIGN.md, substitution 2) so the benchmark harness can reproduce the
//! paper's `FFTW` and `FFTW estimate` series.
//!
//! FFTW's codelets are generated code (genfft's output, shipped as C
//! source); so are these. The [`codelet`] module links the straight-line
//! C that `splc -B 64` emitted for the six formulas in `codelets/*.spl`,
//! which the build script compiles with the host `cc` on `spl-native`'s
//! line. At n ≤ 64 the baseline therefore runs the same arithmetic as
//! SPL's own straight-line code, through a different call path; the
//! planner and executor above the leaves are Rust.
//!
//! Data layout: complex vectors as interleaved `f64` (`re0, im0, re1,
//! im1, ...`), the same layout the SPL compiler's real-typed output uses.
//!
//! # Examples
//!
//! ```
//! use spl_minifft::{Plan, PlanMode};
//!
//! let plan = Plan::new(8, PlanMode::Estimate);
//! let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
//! let mut y = vec![0.0; 16];
//! plan.execute(&x, &mut y);
//! // y[0..2] is the DC term: sum of the 8 complex points.
//! assert!((y[0] - (0..8).map(|k| 2.0 * k as f64).sum::<f64>()).abs() < 1e-9);
//! ```

pub mod codelet;
pub mod estimate;
pub mod planner;

pub use codelet::Codelet;
pub use planner::{Plan, PlanMode, PlanNode};
