//! Differential fuzzing for the SPL compiler pipeline.
//!
//! This crate closes the robustness loop around the reproduction of
//! Xiong, Johnson, Johnson & Padua, *SPL: A Language and Compiler for
//! DSP Algorithms* (PLDI 2001): the paper's pipeline is only as
//! trustworthy as its agreement with the mathematics, so we generate
//! random formulas over the full SPL operator vocabulary and check
//! every independent implementation against the dense-matrix ground
//! truth.
//!
//! Three pieces, usable separately:
//!
//! * [`gen`] — a seeded, grammar-aware formula generator biased toward
//!   shapes that historically break compilers (deep nesting, rank-1
//!   tensor factors, repeated sub-formulas, near-miss invalid sizes);
//! * [`oracle`] — the differential oracle (dense vs. i-code VM vs.
//!   optional sandboxed native kernel) with panic capture and typed
//!   bug classes;
//! * [`shrink`] — a delta-debugging shrinker that minimizes a failing
//!   formula while preserving its bug class.
//!
//! [`run`] ties them together: generate, check, dedup by bug class,
//! shrink, and write reproducer files under `results/fuzz/`. The
//! `splfuzz` binary is a thin CLI over [`run`].

#![warn(missing_docs)]

pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{gen_formula, gen_program, GenConfig};
pub use oracle::{Bug, BugClass, Oracle, Verdict};
pub use shrink::{shrink, ShrinkConfig};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use spl_frontend::sexp::Sexp;
use spl_numeric::rng::Rng;
use spl_telemetry::Telemetry;

/// Everything a fuzzing campaign needs to know.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; case `i` derives its own generator stream from it.
    pub seed: u64,
    /// Number of formulas to generate and check.
    pub count: usize,
    /// Formula generation knobs (size/depth bounds, invalid-mutation
    /// probability).
    pub gen: GenConfig,
    /// Differential-oracle knobs (tolerance, native stage).
    pub oracle: Oracle,
    /// Whether to minimize each first-of-class bug before reporting.
    pub shrink: bool,
    /// Shrinker budget.
    pub shrink_cfg: ShrinkConfig,
    /// After shrinking, recompile each reproducer under per-pass
    /// translation validation to name the optimization pass (if any)
    /// that miscompiles it ([`Oracle::localize_pass`]).
    pub localize: bool,
    /// Directory for reproducer files; `None` disables emission.
    pub out_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            count: 100,
            gen: GenConfig::default(),
            oracle: Oracle::default(),
            shrink: true,
            shrink_cfg: ShrinkConfig::default(),
            localize: false,
            out_dir: Some(PathBuf::from("results/fuzz")),
        }
    }
}

/// One reported bug: the first member of its class seen in the run.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// The triaged bug.
    pub bug: Bug,
    /// Index of the generated case that first hit this class.
    pub case: usize,
    /// The formula exactly as generated.
    pub original: Sexp,
    /// The minimized reproducer (equals `original` when shrinking is
    /// off or found nothing smaller).
    pub shrunk: Sexp,
    /// The optimization pass per-pass validation blames for the bug
    /// (`--localize`); `None` when localization is off, every pass
    /// validates, or the bug is not an optimizer miscompile.
    pub guilty_pass: Option<String>,
    /// Where the reproducer file was written, if emission is on.
    pub file: Option<PathBuf>,
}

/// Aggregate outcome of a fuzzing campaign.
#[derive(Debug, Default)]
pub struct FuzzReport {
    /// Cases where every oracle computed the same result.
    pub agree_ok: usize,
    /// Cases where every oracle rejected with a typed error.
    pub agree_reject: usize,
    /// Cases skipped as too large to evaluate numerically.
    pub skipped: usize,
    /// Total cases that hit an already-reported bug class.
    pub duplicate_bugs: usize,
    /// First-of-class bugs, in discovery order.
    pub bugs: Vec<FoundBug>,
    /// `fuzz.*` counters for `--trace-json` and tests.
    pub telemetry: Telemetry,
}

impl FuzzReport {
    /// Total generated cases.
    pub fn total(&self) -> usize {
        self.agree_ok + self.agree_reject + self.skipped + self.duplicate_bugs + self.bugs.len()
    }
}

/// Runs a fuzzing campaign: generate `cfg.count` formulas, check each
/// against the differential oracle, shrink and persist the first bug
/// of every class.
///
/// Determinism: the same `cfg` always produces the same cases in the
/// same order (each case derives its generator from `seed` and the
/// case index, so changing `count` only appends cases).
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut seen: BTreeMap<BugClass, usize> = BTreeMap::new();
    for case in 0..cfg.count {
        let mut rng = case_rng(cfg.seed, case as u64);
        let sexp = gen_formula(&mut rng, &cfg.gen);
        report.telemetry.add("fuzz.cases", 1);
        match cfg.oracle.check(&sexp) {
            Verdict::AgreeOk { .. } => {
                report.agree_ok += 1;
                report.telemetry.add("fuzz.agree_ok", 1);
            }
            Verdict::AgreeReject => {
                report.agree_reject += 1;
                report.telemetry.add("fuzz.agree_reject", 1);
            }
            Verdict::Skipped => {
                report.skipped += 1;
                report.telemetry.add("fuzz.skipped", 1);
            }
            Verdict::Bug(bug) => {
                if seen.contains_key(&bug.class) {
                    report.duplicate_bugs += 1;
                    report.telemetry.add("fuzz.duplicate_bugs", 1);
                    continue;
                }
                seen.insert(bug.class, case);
                report
                    .telemetry
                    .add(&format!("fuzz.bugs.{}", bug.class.name()), 1);
                let found = triage(cfg, case, &sexp, bug, &mut report.telemetry);
                report.bugs.push(found);
            }
        }
    }
    if cfg.oracle.native {
        let forms = cfg.oracle.native_forms.take();
        let tel = &mut report.telemetry;
        tel.add("codegen.packed_loops", forms.packed_loops);
        tel.add("codegen.wide_loops", forms.wide_loops);
        tel.add("codegen.lane_nests", forms.lane_nests);
    }
    report
}

/// Derives the per-case generator stream: a SplitMix64 jump keyed by
/// the master seed and the case index.
fn case_rng(seed: u64, case: u64) -> Rng {
    Rng::new(
        seed ^ case
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03),
    )
}

/// Shrinks (when enabled) and writes the reproducer file for a
/// first-of-class bug.
fn triage(cfg: &FuzzConfig, case: usize, sexp: &Sexp, bug: Bug, tel: &mut Telemetry) -> FoundBug {
    let (shrunk, spent) = if cfg.shrink {
        shrink::shrink(
            sexp,
            &cfg.shrink_cfg,
            |cand| matches!(cfg.oracle.check(cand), Verdict::Bug(b) if b.class == bug.class),
        )
    } else {
        (sexp.clone(), 0)
    };
    tel.add("fuzz.shrink_steps", spent as u64);
    let guilty_pass = if cfg.localize {
        let guilty = cfg.oracle.localize_pass(&shrunk);
        if guilty.is_some() {
            tel.add("fuzz.localized", 1);
        }
        guilty
    } else {
        None
    };
    let file = cfg.out_dir.as_deref().and_then(|dir| {
        write_reproducer(
            dir,
            cfg.seed,
            case,
            &bug,
            sexp,
            &shrunk,
            guilty_pass.as_deref(),
        )
        .map_err(|e| eprintln!("splfuzz: cannot write reproducer: {e}"))
        .ok()
    });
    FoundBug {
        bug,
        case,
        original: sexp.clone(),
        shrunk,
        guilty_pass,
        file,
    }
}

/// Writes `<class>-seed<N>-i<K>.spl`: a parse-ready SPL file whose
/// comment header carries the triage context.
fn write_reproducer(
    dir: &Path,
    seed: u64,
    case: usize,
    bug: &Bug,
    original: &Sexp,
    shrunk: &Sexp,
    guilty_pass: Option<&str>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{}-i{}.spl", bug.class.name(), seed, case));
    let mut text = String::new();
    text.push_str(&format!("; splfuzz reproducer: {}\n", bug.class.name()));
    text.push_str(&format!("; stage:  {}\n", bug.stage));
    text.push_str(&format!("; detail: {}\n", bug.detail.replace('\n', " ")));
    if let Some(pass) = guilty_pass {
        text.push_str(&format!("; guilty-pass: {pass}\n"));
    }
    text.push_str(&format!("; seed {seed}, case {case}\n"));
    if format!("{original}") != format!("{shrunk}") {
        text.push_str(&format!("; original: {original}\n"));
    }
    text.push_str(&format!("{shrunk}\n"));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_finds_no_bugs_on_valid_formulas() {
        let cfg = FuzzConfig {
            seed: 7,
            count: 40,
            gen: GenConfig {
                p_invalid: 0.0,
                ..GenConfig::default()
            },
            out_dir: None,
            ..FuzzConfig::default()
        };
        let report = run(&cfg);
        assert_eq!(report.total(), 40);
        assert!(report.bugs.is_empty(), "{:?}", report.bugs);
        assert!(report.agree_ok > 0, "nothing actually evaluated");
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = FuzzConfig {
            seed: 11,
            count: 30,
            out_dir: None,
            ..FuzzConfig::default()
        };
        let (a, b) = (run(&cfg), run(&cfg));
        assert_eq!(a.agree_ok, b.agree_ok);
        assert_eq!(a.agree_reject, b.agree_reject);
        assert_eq!(a.bugs.len(), b.bugs.len());
    }

    #[test]
    fn invalid_mutants_reject_but_never_panic() {
        let cfg = FuzzConfig {
            seed: 3,
            count: 60,
            gen: GenConfig {
                p_invalid: 0.9,
                ..GenConfig::default()
            },
            out_dir: None,
            ..FuzzConfig::default()
        };
        let report = run(&cfg);
        // Mutants may legally still be valid; what must not happen is a
        // panic escaping any stage, or the oracles disagreeing.
        if let Some(bug) = report.bugs.first() {
            panic!("{}: {} ({})", bug.bug.class, bug.bug.detail, bug.original);
        }
        assert!(report.agree_reject > 0, "mutation produced no rejects");
    }

    #[test]
    fn reproducers_are_written_and_parse_back() {
        // Force a bug through a poisoned oracle: a negative tolerance
        // turns every computed agreement into a reported mismatch.
        let dir = std::env::temp_dir().join(format!("spl-fuzz-test-{}", std::process::id()));
        let cfg = FuzzConfig {
            seed: 5,
            count: 20,
            gen: GenConfig {
                p_invalid: 0.0,
                ..GenConfig::default()
            },
            oracle: Oracle {
                tolerance: -1.0,
                ..Oracle::default()
            },
            out_dir: Some(dir.clone()),
            ..FuzzConfig::default()
        };
        let report = run(&cfg);
        assert!(!report.bugs.is_empty(), "poisoned oracle found nothing");
        for bug in &report.bugs {
            let path = bug.file.as_ref().expect("reproducer path");
            let text = std::fs::read_to_string(path).expect("reproducer readable");
            assert!(text.starts_with("; splfuzz reproducer:"), "{text}");
            let body: String = text.lines().filter(|l| !l.starts_with(';')).collect();
            spl_frontend::parse_formula(&body).expect("reproducer parses");
            assert!(
                bug.shrunk.node_count() <= bug.original.node_count(),
                "shrinker grew the formula"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
