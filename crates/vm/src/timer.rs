//! Adaptive timing of VM programs.
//!
//! The paper's performance evaluation times each candidate implementation
//! and reports "pseudo MFlops" (`5 N log₂N / t`, `t` in µs). This module
//! provides the measurement loop: repetitions are scaled until the total
//! elapsed time passes a floor, which keeps per-call noise manageable even
//! for 2-point transforms.

use std::time::{Duration, Instant};

use spl_telemetry::Telemetry;

use crate::program::{VmProgram, VmState};

/// A timing result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Time per single execution, in seconds.
    pub secs_per_call: f64,
    /// Repetitions actually executed.
    pub reps: u64,
    /// Untimed warm-up executions run before measurement started.
    pub warmup_reps: u64,
}

impl Measurement {
    /// Time per call in microseconds.
    pub fn micros_per_call(&self) -> f64 {
        self.secs_per_call * 1e6
    }

    /// Records this measurement into `tel`: counters `<prefix>.reps`
    /// and `<prefix>.warmup_reps` accumulate across calls, metric
    /// `<prefix>.secs_per_call` keeps the latest value.
    pub fn record(&self, tel: &mut Telemetry, prefix: &str) {
        tel.add(&format!("{prefix}.reps"), self.reps);
        tel.add(&format!("{prefix}.warmup_reps"), self.warmup_reps);
        tel.set_metric(&format!("{prefix}.secs_per_call"), self.secs_per_call);
    }
}

/// Describes the measurement policy in a telemetry section, so run
/// reports say how the numbers they carry were produced.
pub fn describe_policy(tel: &mut Telemetry, min_time: Duration) {
    tel.note("timer.strategy", "warmup + adaptive repetitions");
    tel.set_metric("timer.min_time_secs", min_time.as_secs_f64());
}

/// The default iteration ceiling for [`measure`]'s min-time loop. At
/// ~25 ns per 2-point transform this is well past any `min_time` the
/// search uses, while guaranteeing a pathological (near-zero-cost or
/// mis-calibrated) program cannot pin the measurement loop for minutes.
pub const DEFAULT_MAX_REPS: u64 = 1 << 22;

/// Everything a timing loop calls per repetition: [`VmProgram::run`]
/// over a deterministic pseudo-random input (so every candidate in a
/// search sees identical data) with buffers and state reused across
/// calls, matching how generated library code is used. One call has
/// already been made when this returns, so cold caches, lazy page
/// faults, and table initialization don't bias the first timed
/// repetition.
fn warmed_up(prog: &VmProgram) -> impl FnMut() + '_ {
    let x: Vec<f64> = (0..prog.n_in)
        .map(|i| ((i as f64) * 0.7311).sin())
        .collect();
    let mut y = vec![0.0f64; prog.n_out];
    let mut st = VmState::new(prog);
    let mut call = move || prog.run(&x, &mut y, &mut st);
    call();
    call
}

/// The adaptive measurement of `call`, which has been warmed up once.
fn adaptive(call: impl FnMut(), min_time: Duration, max_reps: u64) -> Measurement {
    // The calibration call inside the counted timer also runs the
    // program but is not part of the average; `run.reps` is exactly the
    // timed-loop count, so the reported reps agrees with the divisor of
    // `secs_per_call`. The calibration call is a second warm-up.
    let run = spl_numeric::metrics::time_adaptive_counted(min_time, max_reps, call);
    Measurement {
        secs_per_call: run.secs_per_call,
        reps: run.reps,
        warmup_reps: 1 + run.untimed_calls,
    }
}

/// Times a program with an adaptive repetition count until at least
/// `min_time` has elapsed, capped at [`DEFAULT_MAX_REPS`] repetitions.
pub fn measure(prog: &VmProgram, min_time: Duration) -> Measurement {
    measure_capped(prog, min_time, DEFAULT_MAX_REPS)
}

/// [`measure`] with an explicit repetition ceiling: the timing loop
/// stops at `max_reps` even if `min_time` has not elapsed, so one
/// degenerate candidate cannot stall a long search.
pub fn measure_capped(prog: &VmProgram, min_time: Duration, max_reps: u64) -> Measurement {
    adaptive(warmed_up(prog), min_time, max_reps)
}

/// Times a program with a fixed repetition count (used by tests and by
/// the search when a cheap, deterministic-cost estimate is enough),
/// after the same single warm-up call as the adaptive path.
pub fn measure_with_reps(prog: &VmProgram, reps: u64) -> Measurement {
    let mut call = warmed_up(prog);
    let reps = reps.max(1);
    let start = Instant::now();
    for _ in 0..reps {
        call();
    }
    Measurement {
        secs_per_call: start.elapsed().as_secs_f64() / reps as f64,
        reps,
        warmup_reps: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::lower;
    use spl_compiler::Compiler;

    fn vm(src: &str) -> VmProgram {
        let mut c = Compiler::new();
        lower(&c.compile_formula_str(src).unwrap().program).unwrap()
    }

    #[test]
    fn measurement_is_positive() {
        let p = vm("(F 4)");
        let m = measure(&p, Duration::from_millis(5));
        assert!(m.secs_per_call > 0.0);
        assert!(m.reps >= 1);
        assert!(m.micros_per_call() > 0.0);
    }

    #[test]
    fn bigger_transforms_take_longer() {
        let small = vm("(F 2)");
        let big = vm("(F 16)"); // O(n^2) definition: 64x the work
        let ms = measure(&small, Duration::from_millis(20));
        let mb = measure(&big, Duration::from_millis(20));
        assert!(
            mb.secs_per_call > ms.secs_per_call,
            "{} vs {}",
            mb.secs_per_call,
            ms.secs_per_call
        );
    }

    #[test]
    fn capped_measure_cannot_spin_forever() {
        // A cheap program with an hour-long floor: without the cap this
        // would run the min-time loop for an hour; with it the call
        // returns promptly having done at most `cap` repetitions.
        let p = vm("(F 2)");
        let start = std::time::Instant::now();
        let m = measure_capped(&p, Duration::from_secs(3600), 64);
        assert!(m.reps >= 1 && m.reps <= 64, "reps {}", m.reps);
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(m.secs_per_call > 0.0);
    }

    #[test]
    fn reported_reps_match_the_timed_loop_exactly() {
        // Regression: the calibration call used to leak into `reps`,
        // so a capped measurement reported cap + 1 repetitions while
        // `secs_per_call` was averaged over only `cap`. With an
        // hour-long floor the adaptive count pins the cap exactly, so
        // any calibration leak shows up as an off-by-one here.
        let p = vm("(F 2)");
        for cap in [1u64, 7, 64] {
            let m = measure_capped(&p, Duration::from_secs(3600), cap);
            assert_eq!(m.reps, cap, "calibration call leaked into reps");
        }
    }

    #[test]
    fn default_measure_respects_global_cap() {
        let p = vm("(F 2)");
        let m = measure(&p, Duration::from_millis(1));
        assert!(m.reps <= DEFAULT_MAX_REPS);
    }

    #[test]
    fn fixed_reps_variant() {
        let p = vm("(F 4)");
        let m = measure_with_reps(&p, 100);
        assert_eq!(m.reps, 100);
        assert_eq!(m.warmup_reps, 1);
        assert!(m.secs_per_call > 0.0);
    }

    #[test]
    fn fixed_and_adaptive_paths_agree_on_a_tiny_program() {
        // Regression: the fixed-rep path used to time a cold first call
        // while the adaptive path warmed up, biasing short fixed-rep
        // estimates by orders of magnitude (a cold (F 2) call pays page
        // faults and lazy init). Warmed up, the two estimates land in
        // the same ballpark; the tolerance is deliberately loose so the
        // test checks the warm-up, not the scheduler's mood.
        let p = vm("(F 2)");
        let adaptive = measure(&p, Duration::from_millis(20));
        let fixed = measure_with_reps(&p, adaptive.reps.clamp(100, 100_000));
        let ratio = fixed.secs_per_call / adaptive.secs_per_call;
        assert!(
            (0.02..=50.0).contains(&ratio),
            "fixed {} vs adaptive {} (ratio {ratio})",
            fixed.secs_per_call,
            adaptive.secs_per_call
        );
    }

    #[test]
    fn measure_warms_up_and_records_telemetry() {
        let p = vm("(F 4)");
        let m = measure(&p, Duration::from_millis(2));
        // One explicit warm-up call plus the untimed calibration call.
        assert_eq!(m.warmup_reps, 2);
        let mut tel = Telemetry::new();
        describe_policy(&mut tel, Duration::from_millis(2));
        m.record(&mut tel, "timer");
        m.record(&mut tel, "timer");
        assert_eq!(tel.counter("timer.reps"), Some(2 * m.reps));
        assert_eq!(tel.counter("timer.warmup_reps"), Some(4));
        assert!(tel.metric("timer.secs_per_call").unwrap() > 0.0);
        assert_eq!(tel.metric("timer.min_time_secs"), Some(0.002));
        assert!(tel
            .notes()
            .iter()
            .any(|(k, v)| k == "timer.strategy" && v.contains("warmup")));
    }
}
