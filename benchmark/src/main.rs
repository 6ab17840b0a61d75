//! splbench — the repository's benchmark.
//!
//! Four workloads (`fft-small`, `fft-large`, `search`, `serve`), ten
//! end-to-end metrics and the per-layer metrics behind them, measured
//! from outside through public surfaces and the `splsearch` and `spld`
//! binaries. See `benchmark/README.md` for why each workload, size and
//! weight was chosen and how the metrics are expected to interact.

mod compare;
mod kernels;
mod metrics;
mod plans;
mod search;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use spl_telemetry::json::Json;

use kernels::{Sampler, Tier};
use metrics::{END_TO_END, ROW_SIZES, WORKLOADS};
use plans::PlanLine;
use trace::{Span, Tracer};

const SMALL: [usize; 6] = [2, 4, 8, 16, 32, 64];
const LARGE: [usize; 6] = [128, 256, 1024, 4096, 16384, 65536];
/// The kernel panel of the `search` and `serve` workloads: the sizes
/// `spld` serves.
const SERVED: [usize; 3] = [64, 1024, 16384];

/// A run is this many rounds, and every round gives each stage a turn:
/// a pass of compile timings, a slice of kernel samples, a drive of the
/// daemon, a cold search and its warm ones. A stretch in which the box is
/// slow then costs every metric a few of its repeats and no metric all
/// of them, and each metric is taken from the fast side of its repeats.
const ROUNDS: u32 = 5;
/// Every round times compiles of every formula, pass after pass, for
/// this long and at least twice: 13 passes a round over the formulas of
/// `fft-small`, 2 over those of `fft-large`.
const COMPILE_SLICE: Duration = Duration::from_millis(600);
/// One sample of a (size, tier) pair lasts about this long, or one call
/// where that is longer: short, so that a box that is busy most of the
/// time still leaves some samples untouched.
const SAMPLE: Duration = Duration::from_micros(250);
const PANEL_KERNEL_WINDOW: Duration = Duration::from_secs(3);
const PANEL_SERVE_WINDOW: Duration = Duration::from_secs(6);
/// Samples per pair of the rows a traced run adds (see `run_workload`).
const ROWS_SAMPLES: usize = 50;

/// Operations attempted and failed: one (size, tier) output check, one
/// searched size, one served request, one repeat of a compile whose
/// counts must not change.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    /// One output check against the oracle's relative RMS limit.
    pub fn check(&mut self, error: f64, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if error.is_nan() || error > plans::RMS_LIMIT {
            self.fail(format!("{}: relative RMS error {error:e}", what()));
        }
    }
}

/// Appends a child's pid to the run directory's list, from which
/// `run.sh` kills whatever is still alive when it exits: the path that
/// covers a panic with `abort`, a `kill` and Ctrl-C, where no `Drop`
/// runs.
pub fn track_child(run_dir: &Path, pid: u32) {
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(run_dir.join("pids"))
    {
        let _ = writeln!(f, "{pid}");
    }
}

/// CPU lists (`taskset -c` syntax) `run.sh` worked out: everything that
/// is timed in or from this process (compiles, kernels, the client, the
/// daemon it talks to) shares the last allowed core; a search gets all
/// of them.
pub struct Pinning {
    pub bench: String,
    pub all: String,
}

pub enum Cores {
    Bench,
    All,
}

pub struct Ctx {
    pub bin_dir: PathBuf,
    pub run_dir: PathBuf,
    pub pinning: Option<Pinning>,
    plans: Vec<PlanLine>,
}

/// glibc heap settings `run.sh` starts this process under: memory once
/// obtained is kept, so that a timed compile is the compiler's own work
/// and not the page faults of a heap that shrinks and grows again (on
/// the reference box those go through the host and took an eighth more
/// or less from one minute to the next). Children run without them.
const HEAP_ENV: [&str; 3] = [
    "MALLOC_TOP_PAD_",
    "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_MMAP_THRESHOLD_",
];

impl Ctx {
    /// A command for one of the binaries under test, in the environment
    /// `run.sh` was started in.
    pub fn command(&self, bin: &str) -> std::process::Command {
        let mut command = std::process::Command::new(self.bin_dir.join(bin));
        for name in HEAP_ENV {
            command.env_remove(name);
        }
        command
    }

    /// Moves this process, all its threads and so every child it starts
    /// from now on to the given cores. Children are placed this way, not
    /// by starting them under `taskset`: a second `exec` adds a quarter
    /// to a 4 ms warm search.
    pub fn move_to(&self, cores: Cores) {
        let Some(p) = &self.pinning else { return };
        let cpus = match cores {
            Cores::Bench => &p.bench,
            Cores::All => &p.all,
        };
        let moved = std::process::Command::new("taskset")
            .args(["-a", "-cp", cpus, &std::process::id().to_string()])
            .stdout(std::process::Stdio::null())
            .status();
        if !moved.is_ok_and(|s| s.success()) {
            eprintln!("splbench: taskset could not move this process to cores {cpus}");
        }
    }
}

/// What one run of one workload produced.
struct Run {
    workload: &'static str,
    seed: u64,
    traced: bool,
    /// Every metric measured, end-to-end and (traced runs) per-layer.
    values: BTreeMap<String, f64>,
    tally: Tally,
    duration_s: f64,
    /// Sample counts and the like, for the environment block.
    notes: Vec<(String, f64)>,
    spans: Vec<Span>,
}

/// Which stage a workload measures for `--seconds`; the other two run
/// as fixed, shorter panels.
#[derive(Clone, Copy, PartialEq)]
enum Home {
    Kernel,
    Search,
    Serve,
}

/// What one workload runs.
struct Shape {
    home: Home,
    sizes: &'static [usize],
    /// Total length of the kernel slices and of the serve drives.
    kernel: Duration,
    serve: Duration,
    search: &'static search::Shape,
}

fn shape_of(workload: &str, seconds: u64) -> Result<Shape, String> {
    let window = Duration::from_secs(seconds);
    let kernel_home = |sizes| Shape {
        home: Home::Kernel,
        sizes,
        kernel: window,
        serve: PANEL_SERVE_WINDOW,
        search: &search::PANEL,
    };
    let kernel_panel = |home, serve, search| Shape {
        home,
        sizes: &SERVED,
        kernel: PANEL_KERNEL_WINDOW,
        serve,
        search,
    };
    match workload {
        "fft-small" => Ok(kernel_home(&SMALL)),
        "fft-large" => Ok(kernel_home(&LARGE)),
        // Time to solution: the window length does not apply.
        "search" => Ok(kernel_panel(
            Home::Search,
            PANEL_SERVE_WINDOW,
            &search::HOME,
        )),
        "serve" => Ok(kernel_panel(Home::Serve, window, &search::PANEL)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// One run: set-up of all three stages, then `ROUNDS` rounds in which
/// each stage has its turn. In a traced run every turn is split: its
/// first half runs with the recorder off, its second half with it on,
/// and the two halves are kept apart.
fn run_workload(
    ctx: &Ctx,
    workload: &'static str,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Run, String> {
    let start = Instant::now();
    let shape = shape_of(workload, seconds)?;
    let mut tr = Tracer::new(traced, start);
    let mut off = Tracer::new(false, start);
    let mut tally = Tally::default();

    // Set-up. The kernels go first: their compile timings run in this
    // process, whose heap the serve stage's buffers would otherwise have
    // churned (compile times moved by a quarter when they came second).
    ctx.move_to(Cores::Bench);
    let trees = plans::select(&ctx.plans, shape.sizes)?;
    let cache = ctx.run_dir.join("kernel-cache");
    let (set, mut compiles) = kernels::build(&trees, seed, &cache, &mut tr, &mut tally)?;
    // Two samplers and two of every list below: [0] is filled with the
    // recorder off, [1] with it on, in a traced run only.
    let plain = Sampler::calibrate(&set, seed, SAMPLE);
    let mut samplers = [plain.twin(), plain];
    let mut serve = serve::Serve::start(ctx, &ctx.plans, seed, &mut tally)?;
    let mut loads = [serve::Load::default(), serve::Load::default()];
    let mut search = search::Search::start(ctx, shape.search)?;
    let mut warm_ms = [Vec::new(), Vec::new()];
    let setup_s = start.elapsed().as_secs_f64();

    let halves: &[usize] = if traced { &[0, 1] } else { &[0] };
    let share = ROUNDS * halves.len() as u32;
    for _ in 0..ROUNDS {
        let slice = Instant::now();
        for pass in 0.. {
            if pass >= 2 && slice.elapsed() >= COMPILE_SLICE {
                break;
            }
            compiles.pass(&mut tr, &mut tally)?;
        }
        for &h in halves {
            let tr = if h == 1 { &mut tr } else { &mut off };
            samplers[h].sample(shape.kernel / share, 1, tr);
            serve.drive(shape.serve / share, &mut loads[h], tr, &mut tally)?;
        }
        // A search gets every core, cold and warm: the store is keyed by
        // the cores a search may use, and a warm run on fewer is a cold
        // one. The children inherit the placement.
        ctx.move_to(Cores::All);
        search.cold(&mut tr, &mut tally)?;
        for &h in halves {
            let tr = if h == 1 { &mut tr } else { &mut off };
            let runs = shape.search.warm_runs / halves.len();
            search.warm(runs, tr, &mut warm_ms[h])?;
        }
        ctx.move_to(Cores::Bench);
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    // End-to-end numbers come from the halves the recorder was off for,
    // per-layer numbers from the others.
    let [plain, recorded] = &samplers;
    for sampler in halves.iter().map(|&h| &samplers[h]) {
        sampler.check_outputs(&mut tally);
    }
    put("setup_s", setup_s);
    put("compile_ms", compiles.compile_ms());
    for tier in Tier::ALL {
        put(&format!("{}_mflops", tier.name()), plain.mflops(tier));
    }
    put("search_cold_s", stats::fastest(&search.cold_s));
    put("search_warm_ms", stats::fastest(&warm_ms[0]));
    put("serve_rps", loads[0].rps());
    put("serve_small_p50_us", loads[0].p50_us(0));
    put("serve_large_p50_us", loads[0].p50_us(2));
    let mut notes = vec![
        (
            "compile_timings_per_formula".to_string(),
            compiles.timings_per_formula() as f64,
        ),
        (
            "kernel_samples_per_pair".to_string(),
            plain
                .pairs
                .iter()
                .map(|p| p.samples.len())
                .min()
                .unwrap_or(0) as f64,
        ),
        ("search_cold_runs".to_string(), search.cold_s.len() as f64),
        ("search_warm_runs".to_string(), warm_ms[0].len() as f64),
        ("serve_hands".to_string(), loads[0].hands() as f64),
    ];
    for (class, (name, ..)) in serve::CLASSES.iter().enumerate() {
        notes.push((
            format!("serve_samples_{name}"),
            loads[0].latency_us[class].len() as f64,
        ));
    }

    if traced {
        let headline = |s: &Sampler| stats::geomean(&Tier::ALL.map(|t| s.mflops(t)));
        // The home stage's headline, as "higher is better", off and on.
        let (untraced, with_trace) = match shape.home {
            Home::Kernel => (headline(plain), headline(recorded)),
            Home::Search => (
                1.0 / stats::fastest(&warm_ms[0]),
                1.0 / stats::fastest(&warm_ms[1]),
            ),
            Home::Serve => (loads[0].rps(), loads[1].rps()),
        };
        put(
            "bench.trace_overhead_pct",
            100.0 * (untraced / with_trace - 1.0),
        );
        for (name, v) in set.layers.iter().map(|(n, v)| (n.clone(), *v)) {
            put(&name, v);
        }
        for (name, v) in compiles.layers() {
            put(&name, v);
        }
        put("native.cache_load_ms", set.cache_load_ms()?);
        put(
            "native_over_minifft",
            recorded.speedup(Tier::Native, Tier::Minifft),
        );
        put("native_over_vm", recorded.speedup(Tier::Native, Tier::Vm));
        put("bench.noise_iqr_pct", recorded.noise_iqr_pct());
        for p in &recorded.pairs {
            put(&format!("{}.ns.n{}", p.tier.name(), p.n), p.ns());
        }
        let [_, recorded] = &mut samplers;
        let mut vec_ratios = recorded.vec_speedups(&LARGE);
        // The Fig. 3/4 rows this workload's sizes leave out, from a short
        // pass of their own so that every row is measured in every run.
        let rest: Vec<usize> = ROW_SIZES
            .iter()
            .copied()
            .filter(|n| !shape.sizes.contains(n))
            .collect();
        let trees = plans::select(&ctx.plans, &rest)?;
        let cache = ctx.run_dir.join("kernel-cache-rows");
        let (rest_set, _) = kernels::build(&trees, seed, &cache, &mut off, &mut tally)?;
        let mut rest_sampler = Sampler::calibrate(&rest_set, seed, SAMPLE);
        rest_sampler.sample(Duration::ZERO, ROWS_SAMPLES, &mut off);
        rest_sampler.check_outputs(&mut tally);
        for p in &rest_sampler.pairs {
            put(&format!("{}.ns.n{}", p.tier.name(), p.n), p.ns());
        }
        vec_ratios.extend(rest_sampler.vec_speedups(&LARGE));
        put("vm.vec_speedup", stats::geomean(&vec_ratios));
        ctx.move_to(Cores::All);
        for (name, v) in search.finish(true, &mut tally)? {
            put(&name, v);
        }
        ctx.move_to(Cores::Bench);
        for (name, v) in serve.finish(&loads[1])? {
            put(&name, v);
        }
        put("bench.peak_rss_mb", serve::peak_rss_mb("/proc/self/status"));
        put(
            "fail_share",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        );
    } else {
        search.finish(false, &mut tally)?;
    }
    Ok(Run {
        workload,
        seed,
        traced,
        values,
        tally,
        duration_s: start.elapsed().as_secs_f64(),
        notes,
        spans: tr.into_spans(),
    })
}

impl Run {
    /// The metrics the contract asks of this kind of run: name, unit,
    /// value.
    fn reported(&self) -> Result<Vec<(String, &'static str, f64)>, String> {
        let names: Vec<(String, &'static str)> = if self.traced {
            let layers = metrics::per_layer().into_iter();
            layers.map(|l| (l.name, l.unit)).collect()
        } else {
            let metrics = END_TO_END.iter();
            metrics.map(|m| (m.name.to_string(), m.unit)).collect()
        };
        names
            .into_iter()
            .map(|(n, unit)| match self.values.get(&n) {
                Some(v) if v.is_finite() => Ok((n, unit, *v)),
                other => Err(format!("{}: metric {n} is {other:?}", self.workload)),
            })
            .collect()
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn print(&self) -> Result<(), String> {
        println!(
            "\n== {} (seed {}, {}, {:.1} s) ==",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.duration_s
        );
        for (name, unit, v) in self.reported()? {
            let panel = END_TO_END
                .iter()
                .any(|m| m.name == name && !m.home.contains(&self.workload));
            println!(
                "  {name:<44} {v:>16.4} {unit}{}",
                if panel { "  (panel)" } else { "" }
            );
        }
        for (name, v) in &self.notes {
            println!("  {name:<44} {v:>16}");
        }
        println!(
            "  operations: {} attempted, {} failed",
            self.tally.attempted, self.tally.failed
        );
        for f in &self.tally.failures {
            println!("  FAILED: {f}");
        }
        if self.traced {
            print!("{}", trace::render_self_times(self.workload, &self.spans));
        }
        Ok(())
    }

    /// The one-line result the driver reads.
    fn driver_line(&self) -> Result<String, String> {
        let metrics: Vec<String> = self
            .reported()?
            .into_iter()
            .map(|(n, unit, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        ))
    }

    fn to_json(&self) -> Result<Json, String> {
        let nums = |pairs: Vec<(String, f64)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
        };
        let reported = self.reported()?.into_iter().map(|(n, _, v)| (n, v));
        Ok(Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("duration_s", Json::Num(self.duration_s)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", nums(reported.collect())),
            ("counts", nums(self.notes.clone())),
        ]))
    }
}

fn write_trace(runs: &[&Run]) -> Result<(), String> {
    let tracks: Vec<(String, &[Span])> = runs
        .iter()
        .filter(|r| r.traced)
        .map(|r| (r.workload.to_string(), r.spans.as_slice()))
        .collect();
    if tracks.is_empty() {
        return Ok(());
    }
    let path = "benchmark/out/trace.json";
    std::fs::write(path, trace::chrome_trace(&tracks)).map_err(|e| format!("{path}: {e}"))?;
    println!("trace written to {path}");
    Ok(())
}

/// What produced the numbers: read with every result.
fn environment(ctx: &Ctx, seed: u64, seconds: u64) -> Json {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("git_commit", Json::Str(commit)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(cpu)),
        (
            "bench_cpus",
            Json::Str(
                ctx.pinning
                    .as_ref()
                    .map_or("unpinned".into(), |p| p.bench.clone()),
            ),
        ),
        (
            "simd_backend",
            Json::Str(spl_vm::simd::backend_name().to_string()),
        ),
        (
            "cc_version",
            Json::Str(spl_native::cache::cc_version().to_string()),
        ),
    ])
}

/// Runs every workload `runs` times untraced (seeds `seed`, `seed+1`, …)
/// and, if asked, once traced; prints every metric and writes the set.
fn run_set(
    ctx: &Ctx,
    only: Option<&'static str>,
    seed: u64,
    seconds: u64,
    runs: u64,
    traced: bool,
    out_file: &Path,
) -> Result<bool, String> {
    let mut all = Vec::new();
    for (workload, _) in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == w.0)) {
        for r in 0..runs {
            let run = run_workload(ctx, workload, seed + r, seconds, false)?;
            run.print()?;
            all.push(run);
        }
        if traced {
            let run = run_workload(ctx, workload, seed, seconds, true)?;
            run.print()?;
            all.push(run);
        }
    }
    write_trace(&all.iter().collect::<Vec<_>>())?;
    let mut by_workload: Vec<(String, Json)> = Vec::new();
    for (workload, _) in WORKLOADS {
        let runs: Vec<Json> = all
            .iter()
            .filter(|r| r.workload == workload)
            .map(Run::to_json)
            .collect::<Result<_, _>>()?;
        if !runs.is_empty() {
            by_workload.push((workload.to_string(), Json::Arr(runs)));
        }
    }
    let doc = Json::obj(vec![
        ("environment", environment(ctx, seed, seconds)),
        ("workloads", Json::Obj(by_workload)),
    ]);
    std::fs::write(out_file, format!("{doc}\n"))
        .map_err(|e| format!("{}: {e}", out_file.display()))?;
    println!("\nresults written to {}", out_file.display());
    Ok(all.iter().all(Run::correct))
}

const USAGE: &str = "\
usage: benchmark/run.sh [options]

  (no mode)                 run the set: every workload untraced, print
                            every metric, write benchmark/out/result.json
  --workload <name>         only this workload (fft-small, fft-large,
                            search, serve); with --trace 0|1 given as
                            well, also print the driver's one-line result
  --seed <n>                seeds input vectors, sample interleave order
                            and the serve size draw (default 1)
  --seconds <n>             length of the home stage's window (default 8)
  --runs <n>                untraced runs per workload, seeds n, n+1, …
  --trace [0|1]             also run each workload traced: per-layer
                            metrics, a self-time table per workload and
                            benchmark/out/trace.json (Chrome trace format)
  --out <file>              where the set's results go
  --compare <A> <B>         compare two result files: per workload and
                            end-to-end metric, both medians, the ratio,
                            the bound, and ok / regressed / unresolved
  --selftest                two sets back to back (--runs, default 5),
                            then --compare them
  --contract                print the text of BENCHMARK.json
";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: u64,
    runs: Option<u64>,
    /// `Some` once `--trace` was seen; the driver always passes a value.
    trace: Option<bool>,
    driver: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    selftest: bool,
    contract: bool,
    bin_dir: PathBuf,
    run_dir: PathBuf,
    pin: Option<Pinning>,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        runs: None,
        trace: None,
        driver: false,
        out: None,
        compare: None,
        selftest: false,
        contract: false,
        bin_dir: PathBuf::new(),
        run_dir: PathBuf::new(),
        pin: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|w| w.0)
                        .find(|w| *w == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => a.seed = number("--seed", value("--seed")?)?,
            "--seconds" => a.seconds = number("--seconds", value("--seconds")?)?.max(1),
            "--runs" => a.runs = Some(number("--runs", value("--runs")?)?.max(1)),
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some(v @ ("0" | "1")) => {
                    a.trace = Some(v == "1");
                    a.driver = true;
                    it.next();
                }
                _ => a.trace = Some(true),
            },
            "--out" => a.out = Some(value("--out")?.into()),
            "--compare" => {
                a.compare = Some((value("--compare")?.into(), value("--compare")?.into()))
            }
            "--selftest" => a.selftest = true,
            "--contract" => a.contract = true,
            "--bin-dir" => a.bin_dir = value("--bin-dir")?.into(),
            "--run-dir" => a.run_dir = value("--run-dir")?.into(),
            "--pin" => {
                a.pin = Some(Pinning {
                    bench: value("--pin")?,
                    all: value("--pin")?,
                })
            }
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option {other} (try --help)")),
        }
    }
    Ok(Some(a))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv)? else {
        print!("{USAGE}");
        return Ok(true);
    };
    if args.contract {
        print!("{}", metrics::contract());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::compare_files(a, b);
    }
    if args.bin_dir.as_os_str().is_empty() || args.run_dir.as_os_str().is_empty() {
        return Err(
            "start the benchmark through benchmark/run.sh, which builds the binaries".into(),
        );
    }
    let ctx = Ctx {
        bin_dir: args.bin_dir.clone(),
        run_dir: args.run_dir.clone(),
        pinning: args.pin,
        plans: plans::load_committed()?,
    };
    if args.selftest {
        let runs = args.runs.unwrap_or(5);
        let (a, b) = (
            PathBuf::from("benchmark/out/selftest-A.json"),
            PathBuf::from("benchmark/out/selftest-B.json"),
        );
        let ok_a = run_set(
            &ctx,
            args.workload,
            args.seed,
            args.seconds,
            runs,
            false,
            &a,
        )?;
        let ok_b = run_set(
            &ctx,
            args.workload,
            args.seed + runs,
            args.seconds,
            runs,
            false,
            &b,
        )?;
        return Ok(compare::compare_files(&a, &b)? && ok_a && ok_b);
    }
    if let (true, Some(workload), Some(traced)) = (args.driver, args.workload, args.trace) {
        let run = run_workload(&ctx, workload, args.seed, args.seconds, traced)?;
        run.print()?;
        write_trace(&[&run])?;
        println!("{}", run.driver_line()?);
        return Ok(run.correct());
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/result.json".into());
    run_set(
        &ctx,
        args.workload,
        args.seed,
        args.seconds,
        args.runs.unwrap_or(1),
        args.trace.unwrap_or(false),
        &out,
    )
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("splbench: failed operations or a regression; see above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("splbench: {e}");
            ExitCode::from(2)
        }
    }
}
