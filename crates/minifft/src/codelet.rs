//! Codelets: small fixed-size FFT kernels with stride parameters.
//!
//! Like FFTW's codelets, each computes one n-point DFT reading the input
//! at stride `is` and writing the output at stride `os` (strides counted
//! in complex elements over interleaved-real storage). And like FFTW's,
//! they are generated, not written: `splc -B 64` compiled the six
//! formulas in `codelets/fft{2,4,8,16,32,64}.spl` (a balanced
//! Cooley–Tukey split, left factor `2^⌈k/2⌉` at every level) into one
//! straight-line C function each, with its constants inline and no static
//! state. The crate's build script compiles that C with the host `cc`,
//! and a codelet is the address of its function. At unit stride
//! [`Codelet::apply`] hands it the caller's slices; at any other stride it
//! gathers the input into a stack buffer and scatters the output from
//! one, as FFTW's buffered codelets do.

/// Sizes for which codelets exist (powers of two up to 64, as in the
/// paper's experiments).
pub const CODELET_SIZES: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// The C signature `splc` gives a straight-line subroutine:
/// `void name(double *restrict y, const double *restrict x)`.
type Entry = unsafe extern "C" fn(*mut f64, *const f64);

extern "C" {
    fn minifft_codelet_2(y: *mut f64, x: *const f64);
    fn minifft_codelet_4(y: *mut f64, x: *const f64);
    fn minifft_codelet_8(y: *mut f64, x: *const f64);
    fn minifft_codelet_16(y: *mut f64, x: *const f64);
    fn minifft_codelet_32(y: *mut f64, x: *const f64);
    fn minifft_codelet_64(y: *mut f64, x: *const f64);
}

/// A small fixed-size DFT kernel.
#[derive(Debug, Clone)]
pub struct Codelet {
    n: usize,
    entry: Entry,
}

impl Codelet {
    /// The codelet for `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not one of [`CODELET_SIZES`].
    pub fn new(n: usize) -> Codelet {
        let entry: Entry = match n {
            2 => minifft_codelet_2,
            4 => minifft_codelet_4,
            8 => minifft_codelet_8,
            16 => minifft_codelet_16,
            32 => minifft_codelet_32,
            64 => minifft_codelet_64,
            _ => panic!("no codelet for size {n} (have {CODELET_SIZES:?})"),
        };
        Codelet { n, entry }
    }

    /// The transform size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes held by the codelet: none, its constants are immediates in
    /// the object's `.text`.
    pub fn bytes(&self) -> usize {
        0
    }

    /// Computes `y = DFT_n(x)` with input stride `is` and output stride
    /// `os` (complex elements).
    ///
    /// # Panics
    ///
    /// Panics if a strided access falls outside either slice.
    pub fn apply(&self, x: &[f64], is: usize, y: &mut [f64], os: usize) {
        let len = 2 * self.n;
        if is == 1 && os == 1 {
            return self.call(&x[..len], &mut y[..len]);
        }
        match self.n {
            2 => self.buffered::<4>(x, is, y, os),
            4 => self.buffered::<8>(x, is, y, os),
            8 => self.buffered::<16>(x, is, y, os),
            16 => self.buffered::<32>(x, is, y, os),
            32 => self.buffered::<64>(x, is, y, os),
            _ => self.buffered::<128>(x, is, y, os),
        }
    }

    /// [`Codelet::apply`] through stack buffers of `L = 2n` reals: the
    /// input is gathered into one unless `is` is 1, and the output
    /// scattered from one unless `os` is 1.
    fn buffered<const L: usize>(&self, x: &[f64], is: usize, y: &mut [f64], os: usize) {
        let mut xb = [0.0f64; L];
        let x = if is == 1 {
            &x[..L]
        } else {
            for (k, pair) in xb.chunks_exact_mut(2).enumerate() {
                pair.copy_from_slice(&x[2 * k * is..2 * k * is + 2]);
            }
            &xb
        };
        if os == 1 {
            return self.call(x, &mut y[..L]);
        }
        let mut yb = [0.0f64; L];
        self.call(x, &mut yb);
        for (k, pair) in yb.chunks_exact(2).enumerate() {
            y[2 * k * os..2 * k * os + 2].copy_from_slice(pair);
        }
    }

    /// Runs the generated function on `2n` contiguous reals.
    fn call(&self, x: &[f64], y: &mut [f64]) {
        assert!(x.len() == 2 * self.n && y.len() == 2 * self.n);
        // SAFETY: `entry` is the generated function for `self.n`
        // (`Codelet::new` pairs them). Its body is straight-line code that
        // reads `x[0..2n)`, writes `y[0..2n)` and touches no other memory
        // and no static state, so concurrent calls are fine. Both slices
        // are exactly `2n` long, and a `&` and a `&mut` never overlap,
        // which is the `restrict` its parameters declare.
        unsafe { (self.entry)(y.as_mut_ptr(), x.as_ptr()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_numeric::{reference, Complex};

    fn pack(x: &[Complex]) -> Vec<f64> {
        x.iter().flat_map(|c| [c.re, c.im]).collect()
    }

    fn unpack(x: &[f64]) -> Vec<Complex> {
        x.chunks(2).map(|p| Complex::new(p[0], p[1])).collect()
    }

    fn workload(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.81).cos()))
            .collect()
    }

    #[test]
    fn all_codelet_sizes_match_reference() {
        for n in CODELET_SIZES {
            let c = Codelet::new(n);
            let x = workload(n);
            let mut y = vec![0.0; 2 * n];
            c.apply(&pack(&x), 1, &mut y, 1);
            let got = unpack(&y);
            let want = reference::dft(&x);
            for (a, b) in got.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-11), "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn strided_input_and_output() {
        // Gather and scatter, gather only, scatter only.
        for (is, os) in [(3, 2), (3, 1), (1, 2)] {
            for n in CODELET_SIZES {
                let c = Codelet::new(n);
                let x = workload(n);
                let mut xe = vec![0.0; 2 * n * is];
                for (k, z) in x.iter().enumerate() {
                    xe[2 * k * is] = z.re;
                    xe[2 * k * is + 1] = z.im;
                }
                let mut ye = vec![0.0; 2 * n * os];
                c.apply(&xe, is, &mut ye, os);
                let want = reference::dft(&x);
                for (k, w) in want.iter().enumerate() {
                    let got = Complex::new(ye[2 * k * os], ye[2 * k * os + 1]);
                    assert!(got.approx_eq(*w, 1e-11), "n={n} is={is} os={os} k={k}");
                }
            }
        }
    }

    #[test]
    fn repeated_application_is_deterministic() {
        let n = 32;
        let c = Codelet::new(n);
        let x = pack(&workload(n));
        let mut y1 = vec![0.0; 2 * n];
        let mut y2 = vec![0.0; 2 * n];
        c.apply(&x, 1, &mut y1, 1);
        c.apply(&x, 1, &mut y2, 1);
        assert_eq!(y1, y2);
    }

    #[test]
    fn codelets_hold_no_bytes() {
        for n in CODELET_SIZES {
            assert_eq!(Codelet::new(n).bytes(), 0, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "no codelet for size")]
    fn unsupported_size_panics() {
        Codelet::new(6);
    }
}
