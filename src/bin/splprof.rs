//! `splprof` — deep profiling of compiled SPL programs.
//!
//! Compiles a formula (or the plan a wisdom file holds for 2^k, or a
//! fixed radix-8 FFT plan of that size), executes it through the VM's
//! *profiled* resolved engine,
//! and reports where the time went: a hot-spot table over dynamic op
//! classes, per-formula-node time/flop attribution (exact by
//! telescoping — node self times sum to the whole instrumented run),
//! loop-block figures, and the achieved cost against the analytic model
//! of `spl-minifft`'s estimate mode.

use std::process::ExitCode;
use std::rc::Rc;

use spl::compiler::{Compiler, CompilerOptions, OptLevel};
use spl::generator::fft::{ct_sequence, Rule};
use spl::minifft::estimate::node_cost;
use spl::minifft::{Codelet, PlanNode};
use spl::search::{compile_tree, wisdom_from_string};
use spl::telemetry::cli::{ReportOptions, USAGE as REPORT_USAGE};
use spl::telemetry::json::Json;
use spl::telemetry::{out, outln};
use spl::telemetry::{RunReport, Telemetry};
use spl::vm::profile::OP_CLASS_NAMES;
use spl::vm::simd::LANE_WIDTHS;
use spl::vm::{VmProfile, VmProgram, VmState};

const USAGE: &str = "\
usage: splprof [options]

  --size <k>     profile the fixed radix-8 FFT of size 2^k (default 8)
  --wisdom <file>
                 profile the plan <file> holds for 2^k instead: flat
                 wisdom, one `size: spec` line per plan, as spld --wisdom
                 reads and benchmark/plans.wisdom is written
  --formula <file>
                 profile the first formula in <file> instead
  --unroll <n>   fully unroll sub-formulas with input size <= n
                 (default 64, the paper's setting)
  --reps <r>     profiled repetitions; the last (warmed) one is
                 reported (default 3)
  --top <n>      rows in the hot-spot tables (default 12)
  --json <file>  write the profile report as JSON
  --check-attribution
                 exit nonzero unless per-node attribution sums to
                 within 5% of the instrumented wall time
  --force-scalar profile with the VM's lane-wide (SIMD) loop execution
                 disabled (same results bit-for-bit; vector op classes
                 rebin into their scalar counterparts)
  -h, --help     print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("splprof: {msg}");
    ExitCode::FAILURE
}

/// The fixed radix-8 factorization of 2^k.
fn factors(k: u32) -> Vec<usize> {
    let mut rem = k;
    let mut f = Vec::new();
    while rem > 3 {
        f.push(8);
        rem -= 3;
    }
    if rem > 0 {
        f.push(1 << rem);
    }
    f
}

/// Models the factorization as a right-expanded minifft plan and
/// charges it through the estimate-mode cost model.
fn predicted_cost(factors: &[usize]) -> f64 {
    fn build(f: &[usize]) -> PlanNode {
        let n: usize = f.iter().product();
        if f.len() == 1 {
            PlanNode::Leaf(Codelet::new(n))
        } else {
            let r = f[0];
            PlanNode::Split {
                r,
                s: n / r,
                codelet: Codelet::new(r),
                twiddles: Vec::new(),
                child: Rc::new(build(&f[1..])),
            }
        }
    }
    node_cost(&build(factors))
}

fn truncate_label(label: &str, budget: usize) -> String {
    if label.chars().count() <= budget {
        return label.to_string();
    }
    let cut: String = label.chars().take(budget.saturating_sub(1)).collect();
    format!("{cut}\u{2026}")
}

struct Options {
    size: u32,
    wisdom: Option<String>,
    formula: Option<String>,
    unroll: usize,
    reps: usize,
    top: usize,
    json: Option<String>,
    check_attribution: bool,
    force_scalar: bool,
    report: ReportOptions,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut o = Options {
        size: 8,
        wisdom: None,
        formula: None,
        unroll: 64,
        reps: 3,
        top: 12,
        json: None,
        check_attribution: false,
        force_scalar: false,
        report: ReportOptions::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if o.report.accept(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) if (1..=24).contains(&k) => o.size = k,
                _ => return Err("--size requires a log2 exponent in 1..=24".into()),
            },
            "--wisdom" => match it.next() {
                Some(path) => o.wisdom = Some(path.clone()),
                None => return Err("--wisdom requires a file path".into()),
            },
            "--formula" => match it.next() {
                Some(path) => o.formula = Some(path.clone()),
                None => return Err("--formula requires a file path".into()),
            },
            "--unroll" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => o.unroll = n,
                None => return Err("--unroll requires an integer".into()),
            },
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) if r >= 1 => o.reps = r,
                _ => return Err("--reps requires an integer >= 1".into()),
            },
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => o.top = n,
                None => return Err("--top requires an integer".into()),
            },
            "--json" => match it.next() {
                Some(path) => o.json = Some(path.clone()),
                None => return Err("--json requires a file path".into()),
            },
            "--check-attribution" => o.check_attribution = true,
            "--force-scalar" => o.force_scalar = true,
            "-h" | "--help" => {
                out!("{USAGE}\nshared reporting flags:\n{REPORT_USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown option {other} (try --help)")),
        }
    }
    Ok(Some(o))
}

/// Builds the program to profile: the first formula of a source file,
/// or a plan for 2^k — the one a wisdom file holds, else radix-8.
fn build_program(o: &Options) -> Result<(VmProgram, String, Option<f64>), String> {
    let read =
        |path: &String| std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"));
    if let Some(path) = &o.formula {
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(o.unroll),
            opt_level: OptLevel::Default,
            ..Default::default()
        });
        let units = compiler
            .compile_source(&read(path)?)
            .map_err(|e| e.to_string())?;
        let unit = units
            .into_iter()
            .next()
            .ok_or_else(|| format!("no formulas in {path}"))?;
        let vm = spl::vm::lower(&unit.program).map_err(|e| e.to_string())?;
        return Ok((vm, format!("{path}:{}", unit.name), None));
    }
    let (tree, origin, predicted) = match &o.wisdom {
        Some(path) => {
            let plans = wisdom_from_string(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
            let tree = plans
                .into_iter()
                .map(|p| p.tree)
                .find(|t| t.size() == 1usize << o.size)
                .ok_or_else(|| format!("{path} holds no plan for 2^{}", o.size))?;
            (tree, format!(" of {path}"), None)
        }
        None => {
            let f = factors(o.size);
            let cost = predicted_cost(&f);
            (
                ct_sequence(&f, Rule::CooleyTukey),
                String::new(),
                Some(cost),
            )
        }
    };
    let vm = compile_tree(&tree, o.unroll).map_err(|e| e.to_string())?;
    let describe = format!("2^{} FFT, plan {}{origin}", o.size, tree.describe());
    Ok((vm, describe, predicted))
}

fn print_profile(prof: &VmProfile, top: usize, predicted: Option<f64>) {
    let total_ns = prof.total_ns.max(1) as f64;

    // Hot-spot table: dynamic op classes, busiest first.
    let mut classes: Vec<(usize, u64)> = prof
        .op_counts
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    classes.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let dyn_ops: u64 = prof.op_counts.iter().sum();
    outln!("\nop classes (dynamic)");
    outln!("{:<14} {:>12} {:>8}", "class", "count", "share");
    for &(class, count) in classes.iter().take(top) {
        outln!(
            "{:<14} {:>12} {:>7.1}%",
            OP_CLASS_NAMES[class],
            count,
            100.0 * count as f64 / dyn_ops.max(1) as f64
        );
    }
    outln!(
        "{} ops, {} flops, fused utilization {:.1}%",
        dyn_ops,
        prof.flops(),
        100.0 * prof.fused_utilization()
    );
    // Each rung of the host's width ladder, with its share of the lanes.
    let lanes = prof.vector_lane_ops().max(1) as f64;
    let rungs: Vec<String> = LANE_WIDTHS
        .iter()
        .zip(prof.lane_ops_by_width)
        .filter(|&(&w, _)| w <= spl::vm::simd::width())
        .map(|(w, n)| format!("{w}-wide {:.1} %", 100.0 * n as f64 / lanes))
        .collect();
    outln!(
        "vector lane-ops {} ({:.1}% of float ops; backend {}{}{})",
        prof.vector_lane_ops(),
        100.0 * prof.vector_utilization(),
        spl::vm::simd::backend_name(),
        if rungs.is_empty() { "" } else { ": " },
        rungs.join(", ")
    );

    // Per-node attribution, hottest self time first.
    if prof.nodes.is_empty() {
        outln!("\n(no formula-node provenance: per-node attribution unavailable)");
    } else {
        let incl = prof.inclusive_ns();
        let mut by_self: Vec<usize> = (0..prof.nodes.len()).collect();
        by_self.sort_by(|&a, &b| prof.nodes[b].self_ns.cmp(&prof.nodes[a].self_ns));
        outln!("\nformula-node attribution (self time)");
        outln!(
            "{:>6} {:>10} {:>10} {:>9} {:>10}  node",
            "self%",
            "self us",
            "incl us",
            "flops",
            "ops"
        );
        for &id in by_self.iter().take(top) {
            let n = &prof.nodes[id];
            if n.ops == 0 && n.self_ns == 0 {
                continue;
            }
            outln!(
                "{:>5.1}% {:>10.1} {:>10.1} {:>9} {:>10}  #{id} {}",
                100.0 * n.self_ns as f64 / total_ns,
                n.self_ns as f64 / 1e3,
                incl[id] as f64 / 1e3,
                n.flops,
                n.ops,
                truncate_label(&n.label, 48)
            );
        }
        let attributed = prof.attributed_ns();
        outln!(
            "attributed {:.2}% of {:.1} us ({} nodes; telescoped, remainder {:.1} us unattributed)",
            100.0 * attributed as f64 / total_ns,
            prof.total_ns as f64 / 1e3,
            prof.nodes.len(),
            prof.unattributed_ns as f64 / 1e3
        );
    }

    // Loop blocks, most expensive first.
    if !prof.loops.is_empty() {
        let mut loops = prof.loops.clone();
        loops.sort_by_key(|l| std::cmp::Reverse(l.wall_ns));
        outln!("\nloop blocks (inclusive wall time)");
        outln!(
            "{:>6} {:>6} {:>9} {:>11} {:>10}",
            "node",
            "depth",
            "entries",
            "iterations",
            "wall us"
        );
        for l in loops.iter().take(top) {
            outln!(
                "{:>6} {:>6} {:>9} {:>11} {:>10.1}",
                l.node,
                l.depth,
                l.entries,
                l.iterations,
                l.wall_ns as f64 / 1e3
            );
        }
    }

    // Achieved vs. the analytic cost model.
    if let Some(pred) = predicted {
        outln!("\ncost model (minifft estimate mode)");
        outln!("predicted cost          {pred:>12.0} units");
        outln!("achieved flops          {:>12}", prof.flops());
        outln!(
            "flops per unit          {:>12.3}",
            prof.flops() as f64 / pred
        );
        outln!(
            "achieved ns per unit    {:>12.3}",
            prof.total_ns as f64 / pred
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => return fail(&e),
    };

    if o.force_scalar {
        spl::vm::simd::set_force_scalar(true);
    }

    let mut tel = Telemetry::new();
    tel.begin_span("splprof");
    tel.begin_span("compile");
    let built = build_program(&o);
    tel.end_span();
    let (vm, describe, predicted) = match built {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    if !vm.is_resolved() {
        return fail(&format!(
            "program fell back to the reference executor ({}); \
             the profiled engine needs a resolved program",
            vm.resolve_fallback().unwrap_or("unknown")
        ));
    }

    let x: Vec<f64> = (0..vm.n_in).map(|i| ((i as f64) * 0.7).sin()).collect();
    let mut y = vec![0.0; vm.n_out];
    let mut st = VmState::new(&vm);
    let mut prof = None;
    for rep in 0..o.reps {
        tel.begin_span(&format!("profiled run {}", rep + 1));
        prof = vm.run_profiled(&x, &mut y, &mut st);
        tel.end_span();
    }
    tel.end_span(); // splprof
    let prof = prof.expect("resolved program profiles");

    outln!(
        "profiling {describe}  ({} -> {} reals, {} static float ops)",
        vm.n_in,
        vm.n_out,
        vm.float_ops()
    );
    print_profile(&prof, o.top, predicted);

    if let Some(path) = &o.json {
        let mut pairs = vec![
            ("tool", Json::Str("splprof".into())),
            ("program", Json::Str(describe.clone())),
            ("reps", Json::Num(o.reps as f64)),
        ];
        if let Some(pred) = predicted {
            pairs.push(("predicted_cost", Json::Num(pred)));
        }
        pairs.push(("profile", prof.to_json()));
        let json = Json::obj(pairs).to_string();
        if let Err(e) = std::fs::write(path, json + "\n") {
            return fail(&format!("writing {path}: {e}"));
        }
        eprintln!("wrote {path}");
    }

    prof.record(&mut tel);
    if let Some(rs) = vm.resolve_stats() {
        rs.record(&mut tel);
    }
    let mut report = RunReport::new("splprof");
    report.meta("program", &describe);
    report.push_section("profile", tel);
    if let Err(e) = o.report.finish(&report) {
        return fail(&e);
    }

    if o.check_attribution {
        if prof.nodes.is_empty() {
            return fail("--check-attribution: program carries no provenance");
        }
        let attributed = prof.attributed_ns() as f64;
        let share = attributed / prof.total_ns.max(1) as f64;
        if share < 0.95 {
            return fail(&format!(
                "--check-attribution: only {:.1}% of {} ns attributed to formula nodes",
                100.0 * share,
                prof.total_ns
            ));
        }
        eprintln!(
            "attribution check: {:.2}% of {} ns attributed across {} nodes",
            100.0 * share,
            prof.total_ns,
            prof.nodes.len()
        );
    }
    ExitCode::SUCCESS
}
