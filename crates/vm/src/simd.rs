//! Runtime-detected f64 SIMD lane backends for the resolved engine's
//! vector path.
//!
//! The resolved engine executes loops the compiler's `vectorize` pass
//! marked lane-safe in chunks of `W` iterations, all lanes of one
//! resolved op at a time (see `resolved::VecPlan`). This module
//! supplies the lane arithmetic: a [`Lanes`] implementation per
//! target — SSE2 (2×f64, the x86-64 baseline), AVX (4×f64, behind
//! `is_x86_feature_detected!`), and NEON (2×f64, the aarch64
//! baseline) — selected once at runtime and cached.
//!
//! Every backend performs exactly the IEEE-754 double operations the
//! scalar engine performs (adds, subs, muls, divs, sign flips — all
//! correctly rounded, never fused), so vector execution is
//! **bit-identical** to scalar execution by construction; the
//! differential tests in `spl-fuzz` assert this on every target.
//!
//! The scalar fallback can be forced for testing: programmatically via
//! [`set_force_scalar`], or for a whole process via the
//! `SPL_VM_FORCE_SCALAR` environment variable (any non-empty value
//! other than `0`). When forced, [`active`] reports
//! [`Backend::Scalar`] and the engine runs every loop through the
//! ordinary scalar body path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The widest lane count any backend exposes (AVX: 4 × f64). Plan
/// verification in `resolved` treats alias distances at or beyond
/// this as always crossing a chunk boundary.
pub(crate) const MAX_VEC_WIDTH: usize = 4;

/// A vector execution backend, as reported by [`active`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// No vector path: unsupported target or scalar execution forced.
    Scalar,
    /// SSE2, 2 × f64 (baseline on x86-64).
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// AVX, 4 × f64 (runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx,
    /// NEON, 2 × f64 (baseline on aarch64).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

fn env_force() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SPL_VM_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether the scalar fallback is currently forced (programmatically
/// or via `SPL_VM_FORCE_SCALAR`).
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) || env_force()
}

/// Forces (or un-forces) the scalar fallback for subsequent runs.
///
/// Used by the differential harnesses to compare vector and scalar
/// execution of the same program. Scalar and vector paths are
/// bit-identical, so flipping this concurrently with a run is benign —
/// it only affects which (equivalent) path later loops take. The
/// environment-variable force cannot be un-forced.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Serializes tests (across the crate) that flip the process-wide
/// override above, so concurrent tests cannot observe each other's
/// settings.
#[cfg(test)]
pub(crate) fn override_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// The backend the hardware supports, detected once and cached.
fn detected() -> Backend {
    static DET: OnceLock<Backend> = OnceLock::new();
    *DET.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx") {
                return Backend::Avx;
            }
            // SSE2 is part of the x86-64 baseline.
            return Backend::Sse2;
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON (with f64 lanes) is part of the aarch64 baseline.
            return Backend::Neon;
        }
        #[allow(unreachable_code)]
        Backend::Scalar
    })
}

/// The backend the engine will use right now: the detected one, or
/// [`Backend::Scalar`] when the fallback is forced.
pub fn active() -> Backend {
    if force_scalar() {
        Backend::Scalar
    } else {
        detected()
    }
}

/// The active lane width in f64 elements: 0 (no vector path), 2, or 4.
pub fn width() -> usize {
    match active() {
        Backend::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => 2,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx => 4,
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => 2,
    }
}

/// Short human-readable name of the active backend (telemetry, bench
/// reports).
pub fn backend_name() -> &'static str {
    match active() {
        Backend::Scalar => "scalar",
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => "sse2",
        #[cfg(target_arch = "x86_64")]
        Backend::Avx => "avx",
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => "neon",
    }
}

/// `W` f64 lanes and the operations the vector plan executor needs.
///
/// Contract: every arithmetic method performs lane-wise exactly the
/// IEEE-754 binary64 operation its name says (correctly rounded,
/// no fusing, `neg` a pure sign flip), so results are bit-identical
/// to scalar execution.
pub(crate) trait Lanes {
    /// Lane count.
    const W: usize;
    /// The vector value type.
    type V: Copy;
    /// All lanes set to `x`.
    fn splat(x: f64) -> Self::V;
    /// Loads lane `l` from `base + l·stride` (stride in elements;
    /// `stride == 0` splats `*base`).
    ///
    /// # Safety
    ///
    /// Every lane address must be in bounds of the allocation.
    unsafe fn load(base: *const f64, stride: i64) -> Self::V;
    /// Stores lane `l` to `base + l·stride`.
    ///
    /// # Safety
    ///
    /// Every lane address must be in bounds, and `stride != 0`.
    unsafe fn store(base: *mut f64, stride: i64, v: Self::V);
    /// Lane-wise `a + b`.
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a - b`.
    fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a / b`.
    fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise sign flip.
    fn neg(a: Self::V) -> Self::V;
    /// Extracts lane `l`.
    fn lane(v: Self::V, l: usize) -> f64;
}

#[cfg(target_arch = "x86_64")]
pub(crate) struct Sse2;

#[cfg(target_arch = "x86_64")]
impl Lanes for Sse2 {
    const W: usize = 2;
    type V = core::arch::x86_64::__m128d;

    #[inline(always)]
    fn splat(x: f64) -> Self::V {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { core::arch::x86_64::_mm_set1_pd(x) }
    }

    #[inline(always)]
    unsafe fn load(base: *const f64, stride: i64) -> Self::V {
        use core::arch::x86_64::*;
        if stride == 1 {
            _mm_loadu_pd(base)
        } else if stride == 0 {
            _mm_set1_pd(*base)
        } else {
            // `_mm_set_pd` takes (high lane, low lane).
            _mm_set_pd(*base.offset(stride as isize), *base)
        }
    }

    #[inline(always)]
    unsafe fn store(base: *mut f64, stride: i64, v: Self::V) {
        use core::arch::x86_64::*;
        if stride == 1 {
            _mm_storeu_pd(base, v);
        } else {
            *base = Self::lane(v, 0);
            *base.offset(stride as isize) = Self::lane(v, 1);
        }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm_add_pd(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm_sub_pd(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm_mul_pd(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm_div_pd(a, b) }
    }

    #[inline(always)]
    fn neg(a: Self::V) -> Self::V {
        // XOR with the sign mask: an exact sign flip, like scalar `-x`
        // (0.0 - x would mishandle signed zeros).
        unsafe { core::arch::x86_64::_mm_xor_pd(a, Self::splat(-0.0)) }
    }

    #[inline(always)]
    fn lane(v: Self::V, l: usize) -> f64 {
        // SAFETY: __m128d and [f64; 2] have identical layout.
        let a: [f64; 2] = unsafe { core::mem::transmute(v) };
        a[l]
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) struct Avx;

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx {
    const W: usize = 4;
    type V = core::arch::x86_64::__m256d;

    // SAFETY (whole impl): AVX intrinsics are only reached through the
    // `#[target_feature(enable = "avx")]` entry point in `resolved`,
    // which the dispatcher calls only when `Backend::Avx` was
    // runtime-detected; all methods are `#[inline(always)]` so they
    // compile inside that feature-enabled frame.

    #[inline(always)]
    fn splat(x: f64) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_set1_pd(x) }
    }

    #[inline(always)]
    unsafe fn load(base: *const f64, stride: i64) -> Self::V {
        use core::arch::x86_64::*;
        if stride == 1 {
            _mm256_loadu_pd(base)
        } else if stride == 0 {
            _mm256_set1_pd(*base)
        } else {
            let s = stride as isize;
            _mm256_setr_pd(
                *base,
                *base.offset(s),
                *base.offset(2 * s),
                *base.offset(3 * s),
            )
        }
    }

    #[inline(always)]
    unsafe fn store(base: *mut f64, stride: i64, v: Self::V) {
        use core::arch::x86_64::*;
        if stride == 1 {
            _mm256_storeu_pd(base, v);
        } else {
            let a: [f64; 4] = core::mem::transmute(v);
            let s = stride as isize;
            *base = a[0];
            *base.offset(s) = a[1];
            *base.offset(2 * s) = a[2];
            *base.offset(3 * s) = a[3];
        }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_add_pd(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_sub_pd(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_mul_pd(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_div_pd(a, b) }
    }

    #[inline(always)]
    fn neg(a: Self::V) -> Self::V {
        unsafe { core::arch::x86_64::_mm256_xor_pd(a, Self::splat(-0.0)) }
    }

    #[inline(always)]
    fn lane(v: Self::V, l: usize) -> f64 {
        // SAFETY: __m256d and [f64; 4] have identical layout.
        let a: [f64; 4] = unsafe { core::mem::transmute(v) };
        a[l]
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) struct Neon;

#[cfg(target_arch = "aarch64")]
impl Lanes for Neon {
    const W: usize = 2;
    type V = core::arch::aarch64::float64x2_t;

    // SAFETY (whole impl): NEON with f64 lanes is part of the aarch64
    // baseline.

    #[inline(always)]
    fn splat(x: f64) -> Self::V {
        unsafe { core::arch::aarch64::vdupq_n_f64(x) }
    }

    #[inline(always)]
    unsafe fn load(base: *const f64, stride: i64) -> Self::V {
        use core::arch::aarch64::*;
        if stride == 1 {
            vld1q_f64(base)
        } else if stride == 0 {
            vdupq_n_f64(*base)
        } else {
            let a = [*base, *base.offset(stride as isize)];
            vld1q_f64(a.as_ptr())
        }
    }

    #[inline(always)]
    unsafe fn store(base: *mut f64, stride: i64, v: Self::V) {
        use core::arch::aarch64::*;
        if stride == 1 {
            vst1q_f64(base, v);
        } else {
            *base = Self::lane(v, 0);
            *base.offset(stride as isize) = Self::lane(v, 1);
        }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::aarch64::vaddq_f64(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::aarch64::vsubq_f64(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::aarch64::vmulq_f64(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        unsafe { core::arch::aarch64::vdivq_f64(a, b) }
    }

    #[inline(always)]
    fn neg(a: Self::V) -> Self::V {
        unsafe { core::arch::aarch64::vnegq_f64(a) }
    }

    #[inline(always)]
    fn lane(v: Self::V, l: usize) -> f64 {
        use core::arch::aarch64::*;
        unsafe {
            match l {
                0 => vgetq_lane_f64::<0>(v),
                _ => vgetq_lane_f64::<1>(v),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_matches_backend() {
        let _g = override_lock();
        match active() {
            Backend::Scalar => assert_eq!(width(), 0),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => assert_eq!(width(), 2),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx => assert_eq!(width(), 4),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => assert_eq!(width(), 2),
        }
        assert!(width() <= MAX_VEC_WIDTH);
    }

    #[test]
    fn force_scalar_round_trips() {
        let _g = override_lock();
        let before = force_scalar();
        set_force_scalar(true);
        assert_eq!(active(), Backend::Scalar);
        assert_eq!(width(), 0);
        set_force_scalar(before);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_lane_ops_are_exact() {
        let a = [1.5f64, -2.25];
        let b = [0.25f64, 4.0];
        let va = unsafe { Sse2::load(a.as_ptr(), 1) };
        let vb = unsafe { Sse2::load(b.as_ptr(), 1) };
        let sum = Sse2::add(va, vb);
        for l in 0..2 {
            assert_eq!(Sse2::lane(sum, l).to_bits(), (a[l] + b[l]).to_bits());
        }
        // neg is a sign flip, exact on signed zero.
        let z = Sse2::neg(Sse2::splat(0.0));
        assert_eq!(Sse2::lane(z, 0).to_bits(), (-0.0f64).to_bits());
        // Strided store scatters to the right cells.
        let mut out = [0.0f64; 4];
        unsafe { Sse2::store(out.as_mut_ptr(), 2, sum) };
        assert_eq!(out[0], a[0] + b[0]);
        assert_eq!(out[2], a[1] + b[1]);
        assert_eq!(out[1], 0.0);
    }
}
