//! Comparing two result files: per workload and end-to-end metric, both
//! medians, the ratio with its base, the bound, and a verdict.

use std::path::Path;

use spl_telemetry::json::{self, Json};

use crate::metrics::{EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Environment fields that must agree for two results to be comparable;
/// commit, seed and run length may differ.
const SAME_MACHINE: [&str; 5] = [
    "nproc",
    "cpu_model",
    "bench_cpus",
    "simd_backend",
    "cc_version",
];

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot show that the metric held.
    Unresolved,
}

/// `a` is the base (the parent), `b` the candidate.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let lower = m.better == "lower";
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if lower {
        med_b / med_a - 1.0
    } else {
        1.0 - med_b / med_a
    };
    // Set-up time is judged on medians alone, as the gate judges it: it
    // is a handful of `cc` runs, and one slow one is a wide spread.
    let widest = if a.len() >= 2 && b.len() >= 2 && m.name != "setup_s" {
        spread(a).max(spread(b))
    } else {
        0.0
    };
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_b_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let verdict = if widest > m.bound && !all_b_better && !(worse_by > m.bound && all_b_worse) {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, widest, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// The untraced runs' values of one metric.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_arr)
        .map(|runs| {
            runs.iter()
                .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
                .filter_map(|r| r.get("metrics")?.get(metric)?.as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when every pairing is `ok`.
pub fn compare_files(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for field in SAME_MACHINE {
        let of = |d: &Json| d.get("environment").and_then(|e| e.get(field)).cloned();
        if of(&a) != of(&b) {
            return Err(format!(
                "refusing to compare: {field} differs ({:?} in {}, {:?} in {})",
                of(&a),
                a_path.display(),
                of(&b),
                b_path.display()
            ));
        }
    }
    println!(
        "\nA = {} (base), B = {}",
        a_path.display(),
        b_path.display()
    );
    println!(
        "{:<10} {:<20} {:>13} {:>13} {:>7} {:>9} {:>6} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "worse by", "bound", "spread"
    );
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, workload, m.name), values(&b, workload, m.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, widest, verdict) = judge(m, &va, &vb);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{:<10} {:<20} {:>13.4} {:>13.4} {:>7.3} {:>8.1}% {:>5.0}% {:>6.1}%  {}",
                workload,
                m.name,
                median(&va),
                median(&vb),
                median(&vb) / median(&va),
                100.0 * worse_by,
                100.0 * m.bound,
                100.0 * widest,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "latency",
        unit: "us",
        better: "lower",
        bound: 0.10,
        home: &[],
    };
    const RATE: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
        home: &[],
    };

    #[test]
    fn steady_and_within_bound_is_ok() {
        let (worse, _, v) = judge(&LATENCY, &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]);
        assert!((worse - 0.04).abs() < 1e-9);
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn worse_than_the_bound_regresses_in_either_direction() {
        assert_eq!(
            judge(&LATENCY, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]).2,
            Verdict::Ok
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&LATENCY, &noisy, &[90.0, 100.0, 120.0]).2,
            Verdict::Unresolved
        );
        assert_eq!(judge(&LATENCY, &noisy, &[50.0, 60.0, 70.0]).2, Verdict::Ok);
        assert_eq!(
            judge(&LATENCY, &noisy, &[150.0, 160.0, 170.0]).2,
            Verdict::Regressed
        );
    }
}
