//! The committed plans, the seeded inputs, and the output oracle.

use spl_generator::fft::FftTree;
use spl_numeric::rng::Rng;
use spl_numeric::{omega, reference, relative_rms_error, Complex};

pub const PLANS_FILE: &str = "benchmark/plans.wisdom";

/// Largest relative RMS error a correct double-precision FFT of these
/// sizes can show against the definition; generated code lands near
/// 1e-15, so anything above this is a wrong answer, not roundoff.
pub const RMS_LIMIT: f64 = 1e-9;

/// Up to this size every output bin is checked against the O(n²) DFT;
/// above it the O(n²) sum is taken at `SAMPLED_BINS` seeded bins.
pub const FULL_ORACLE_MAX: usize = 1 << 12;
const SAMPLED_BINS: usize = 64;

#[derive(Debug)]
pub struct PlanLine {
    pub n: usize,
    pub tree: FftTree,
}

/// Parses flat wisdom text (`size: spec` lines, `#` comments): every
/// line must parse through `FftTree::from_spec` and compute the size it
/// is labelled with.
pub fn parse_wisdom(text: &str) -> Result<Vec<PlanLine>, String> {
    let mut plans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("wisdom line {}: {msg}", lineno + 1);
        let (label, spec) = line.split_once(':').ok_or_else(|| at("no ':'".into()))?;
        let n: usize = label
            .trim()
            .parse()
            .map_err(|_| at(format!("bad size {label:?}")))?;
        let tree = FftTree::from_spec(spec.trim()).map_err(|e| at(e.to_string()))?;
        if tree.size() != n {
            return Err(at(format!(
                "spec computes {} points, labelled {n}",
                tree.size()
            )));
        }
        plans.push(PlanLine { n, tree });
    }
    Ok(plans)
}

pub fn load_committed() -> Result<Vec<PlanLine>, String> {
    let text = std::fs::read_to_string(PLANS_FILE).map_err(|e| format!("{PLANS_FILE}: {e}"))?;
    parse_wisdom(&text)
}

pub fn select(plans: &[PlanLine], sizes: &[usize]) -> Result<Vec<(usize, FftTree)>, String> {
    sizes
        .iter()
        .map(|&n| {
            plans
                .iter()
                .find(|p| p.n == n)
                .map(|p| (n, p.tree.clone()))
                .ok_or_else(|| format!("{PLANS_FILE} has no plan for n={n}"))
        })
        .collect()
}

/// Input vector `k` of size `n` for this seed: `2n` interleaved re/im
/// samples, uniform in (-1, 1).
pub fn input(seed: u64, n: usize, k: u64) -> Vec<f64> {
    let mut rng =
        Rng::new(seed ^ (n as u64).rotate_left(32) ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..2 * n).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn to_complex(v: &[f64]) -> Vec<Complex> {
    v.chunks_exact(2)
        .map(|c| Complex::new(c[0], c[1]))
        .collect()
}

/// What the DFT of one input must be, computed from the definition and
/// never through the compiler, the VM, the C back end or `minifft`.
pub struct Expected {
    bins: Vec<usize>,
    values: Vec<Complex>,
}

impl Expected {
    pub fn of(x: &[f64]) -> Expected {
        let x = to_complex(x);
        let n = x.len();
        if n <= FULL_ORACLE_MAX {
            return Expected {
                bins: (0..n).collect(),
                values: reference::dft(&x),
            };
        }
        let mut rng = Rng::new(n as u64);
        let bins: Vec<usize> = (0..SAMPLED_BINS)
            .map(|_| rng.below(n as u64) as usize)
            .collect();
        let values = bins
            .iter()
            .map(|&p| {
                let mut acc = Complex::ZERO;
                for (q, &xq) in x.iter().enumerate() {
                    acc += omega(n, ((p * q) % n) as i64) * xq;
                }
                acc
            })
            .collect();
        Expected { bins, values }
    }

    /// Relative RMS error of an interleaved output over the checked bins.
    pub fn error_of(&self, y: &[f64]) -> f64 {
        let got: Vec<Complex> = self
            .bins
            .iter()
            .map(|&p| Complex::new(y[2 * p], y[2 * p + 1]))
            .collect();
        relative_rms_error(&got, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_compiler::{Compiler, CompilerOptions};
    use spl_vm::{lower, VmState};

    /// Run from the package directory by `cargo test`, so the path is
    /// relative to it rather than to the repository root.
    const HERE: &str = "plans.wisdom";
    const SIZES: [usize; 12] = [2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536];

    #[test]
    fn committed_plans_parse_have_their_size_and_pass_the_oracle() {
        let plans = parse_wisdom(&std::fs::read_to_string(HERE).unwrap()).unwrap();
        assert_eq!(plans.iter().map(|p| p.n).collect::<Vec<_>>(), SIZES);
        for p in &plans {
            let mut compiler = Compiler::with_options(CompilerOptions {
                unroll_threshold: Some(64),
                ..Default::default()
            });
            let unit = compiler
                .compile_formula_str(&p.tree.to_sexp().to_string())
                .unwrap();
            let vm = lower(&unit.program).unwrap();
            let x = input(1, p.n, 0);
            let mut y = vec![0.0; 2 * p.n];
            vm.run(&x, &mut y, &mut VmState::new(&vm));
            let err = Expected::of(&x).error_of(&y);
            assert!(err <= RMS_LIMIT, "n={} relative RMS {err:e}", p.n);
        }
    }

    #[test]
    fn mislabelled_and_malformed_lines_are_rejected() {
        assert!(parse_wisdom("8: (ct 2 2)")
            .unwrap_err()
            .contains("labelled 8"));
        assert!(parse_wisdom("4 (ct 2 2)").is_err());
        assert!(parse_wisdom("4: (ct 2").is_err());
        assert_eq!(parse_wisdom("# note\n\n2: 2\n").unwrap().len(), 1);
    }

    #[test]
    fn oracle_rejects_a_wrong_answer() {
        let x = input(3, 8, 0);
        let want = Expected::of(&x);
        let mut y: Vec<f64> = want.values.iter().flat_map(|c| [c.re, c.im]).collect();
        assert!(want.error_of(&y) <= RMS_LIMIT);
        y[5] += 1e-6;
        assert!(want.error_of(&y) > RMS_LIMIT);
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        assert_eq!(input(7, 64, 2), input(7, 64, 2));
        assert_ne!(input(7, 64, 2), input(8, 64, 2));
        assert_ne!(input(7, 64, 2), input(7, 64, 3));
    }
}
