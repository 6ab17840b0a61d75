//! `splsearch` — the SPIRAL-style FFT plan search as a command-line
//! tool.
//!
//! Runs the paper's dynamic-programming search (small sizes by
//! Equation 10, large sizes by k-best binary splits) under a
//! fault-tolerant evaluation chain, and prints the winning plans as
//! wisdom text. With `--wisdom-db` the search persists every completed
//! size to a crash-safe store, resumes from it after a kill and reuses
//! it across runs; with `--faulty` it injects deterministic faults to
//! exercise the degradation path end-to-end.
//!
//! Candidate evaluation is parallel (`--jobs`, defaulting to the
//! machine's parallelism): compilation, `cc`, and verification fan out
//! over a worker pool while wall-clock timing stays serialized behind a
//! single measurement token, and results merge deterministically — the
//! winners are bit-identical to `--jobs 1` under any deterministic
//! evaluator. Native kernel builds go through a content-addressed
//! cache (in-memory by default; `--kernel-cache <dir>` persists it
//! across runs) so identical generated C is compiled at most once.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use spl::native::KernelCache;
use spl::search::{
    Evaluator, EvaluatorPool, FaultyEvaluator, MeasuredEvaluator, NativeEvaluator,
    OpCountEvaluator, ResilientEvaluator, Search, SearchConfig, WisdomDb, WorkerContext,
};
use spl::telemetry::cli::ReportOptions;
use spl::telemetry::out;
use spl::telemetry::{RunReport, Telemetry};

const USAGE: &str = "\
usage: splsearch [options]

  --max-log <k>      search FFT sizes 2^1 ... 2^k (default 6)
  --leaf-max <n>     largest leaf transform / small-search boundary
                     (default 64, as in the paper)
  --keep <k>         k-best plans kept per large size (default 3)
  -B <n>             unroll threshold handed to the compiler (default 64)
  --eval resilient|native|vm|opcount
                     cost evaluator (default resilient: native timing,
                     degrading per candidate to VM timing, then to the
                     operation-count model)
  --jobs <n>         parallel evaluation workers (default: the machine's
                     available parallelism); timing is always serialized
                     behind a single measurement token, and winners are
                     bit-identical to --jobs 1 under deterministic
                     evaluators
  --kernel-cache <dir>
                     persist the content-addressed compiled-kernel cache
                     to <dir>, so a rerun reuses every shared object
                     whose generated C, build options, and cc version
                     are unchanged (default: in-memory only)
  --min-time <ms>    measurement budget per candidate (default 10)
  --eval-timeout <s> sandbox timeout per candidate kernel (default 30)
  --no-verify        skip dense-reference verification of candidates
  --wisdom-db <dir>  crash-safe, mergeable wisdom database: reuse winners
                     recorded under the current configuration, evaluator,
                     compiler and machine, append each size as it
                     finishes (a killed search resumes), share the store
                     safely with concurrent searches
  --faulty <seed>    inject deterministic faults at the primary
                     evaluation tier, degrading failed candidates to the
                     operation-count model (faults are keyed per
                     candidate, so the pattern is identical at any --jobs)
  --fault-rate <p>   total injected-fault probability (default 0.1)
  --wisdom-out <file>
                     also write the winners as wisdom text to <file>
  -h, --help         print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("splsearch: {msg}");
    ExitCode::FAILURE
}

struct Options {
    max_log: u32,
    config: SearchConfig,
    eval: String,
    jobs: Option<usize>,
    kernel_cache: Option<PathBuf>,
    min_time: Duration,
    eval_timeout: Duration,
    verify: bool,
    wisdom_db: Option<PathBuf>,
    faulty: Option<u64>,
    fault_rate: f64,
    wisdom_out: Option<String>,
    report: ReportOptions,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_log: 6,
            config: SearchConfig::default(),
            eval: "resilient".to_string(),
            jobs: None,
            kernel_cache: None,
            min_time: Duration::from_millis(10),
            eval_timeout: Duration::from_secs(30),
            verify: true,
            wisdom_db: None,
            faulty: None,
            fault_rate: 0.1,
            wisdom_out: None,
            report: ReportOptions::default(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if opts.report.accept(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--max-log" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) if (1..=24).contains(&k) => opts.max_log = k,
                _ => return Err("--max-log requires an integer in 1..=24".into()),
            },
            "--leaf-max" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n.is_power_of_two() && n >= 2 => opts.config.leaf_max = n,
                _ => return Err("--leaf-max requires a power of two >= 2".into()),
            },
            "--keep" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) if k >= 1 => opts.config.keep = k,
                _ => return Err("--keep requires an integer >= 1".into()),
            },
            "-B" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => opts.config.unroll_threshold = n,
                None => return Err("-B requires an integer".into()),
            },
            "--eval" => match it.next().map(String::as_str) {
                Some(e @ ("resilient" | "native" | "vm" | "opcount")) => opts.eval = e.to_string(),
                _ => return Err("--eval requires resilient, native, vm, or opcount".into()),
            },
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if (1..=256).contains(&n) => opts.jobs = Some(n),
                _ => return Err("--jobs requires an integer in 1..=256".into()),
            },
            "--kernel-cache" => match it.next() {
                Some(dir) => opts.kernel_cache = Some(PathBuf::from(dir)),
                None => return Err("--kernel-cache requires a directory path".into()),
            },
            "--min-time" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => opts.min_time = Duration::from_millis(ms),
                None => return Err("--min-time requires milliseconds".into()),
            },
            "--eval-timeout" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => opts.eval_timeout = Duration::from_secs(s),
                None => return Err("--eval-timeout requires seconds".into()),
            },
            "--no-verify" => opts.verify = false,
            "--wisdom-db" => match it.next() {
                Some(dir) => opts.wisdom_db = Some(PathBuf::from(dir)),
                None => return Err("--wisdom-db requires a directory path".into()),
            },
            "--faulty" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => opts.faulty = Some(seed),
                None => return Err("--faulty requires an integer seed".into()),
            },
            "--fault-rate" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(p) if (0.0..=1.0).contains(&p) => opts.fault_rate = p,
                _ => return Err("--fault-rate requires a probability in 0..=1".into()),
            },
            "--wisdom-out" => match it.next() {
                Some(path) => opts.wisdom_out = Some(path.clone()),
                None => return Err("--wisdom-out requires a file path".into()),
            },
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown option {other} (try --help)")),
        }
    }
    Ok(Some(opts))
}

/// Builds one worker's evaluation chain. Measured evaluators adopt the
/// worker's measurement gate so at most one kernel is ever being timed
/// across the pool; native evaluators share the pool-wide kernel cache
/// so identical generated C is compiled once.
fn build_evaluator(
    opts: &Options,
    ctx: &WorkerContext,
    cache: &Arc<KernelCache>,
) -> Box<dyn Evaluator> {
    let native = || {
        NativeEvaluator::new(opts.config.unroll_threshold, opts.min_time)
            .with_timeout(opts.eval_timeout)
            .with_verify(opts.verify)
            .with_gate(ctx.gate.clone())
            .with_kernel_cache(Arc::clone(cache))
    };
    let vm = || {
        MeasuredEvaluator::new(opts.config.unroll_threshold, opts.min_time)
            .with_verify(opts.verify)
            .with_gate(ctx.gate.clone())
    };
    let base: Box<dyn Evaluator> = match opts.eval.as_str() {
        "native" => Box::new(native()),
        "vm" => Box::new(vm()),
        "opcount" => Box::new(OpCountEvaluator::default()),
        _ => Box::new(
            ResilientEvaluator::new()
                .tier("native", Box::new(native()))
                .tier("vm", Box::new(vm()))
                .tier("opcount", Box::new(OpCountEvaluator::default())),
        ),
    };
    match opts.faulty {
        // Faults are injected at the primary tier with the op-count
        // model as the fallback, so `--faulty` exercises the full
        // degradation path rather than merely skipping candidates.
        // Keyed injection draws per candidate, not per call, so the
        // fault pattern is identical at any worker count.
        Some(seed) => Box::new(
            ResilientEvaluator::new()
                .tier(
                    "faulty",
                    Box::new(FaultyEvaluator::keyed(base, seed, opts.fault_rate)),
                )
                .tier("opcount", Box::new(OpCountEvaluator::default())),
        ),
        None => base,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            out!("{USAGE}{}", spl::telemetry::cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(msg) => return fail(&msg),
    };

    let jobs = opts.jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    let cache = match &opts.kernel_cache {
        Some(dir) => match KernelCache::with_dir(dir) {
            Ok(c) => Arc::new(c),
            Err(e) => return fail(&format!("opening kernel cache {}: {e}", dir.display())),
        },
        None => Arc::new(KernelCache::in_memory()),
    };

    let mut tel = Telemetry::new();
    tel.set("search.jobs", jobs as u64);
    // Root of the hierarchical trace: everything below nests under it,
    // so `--trace-chrome` renders the whole run as one flame chart.
    tel.begin_span("splsearch");
    tel.begin_span("build_pool");
    let mut pool = EvaluatorPool::new(jobs, |ctx| build_evaluator(&opts, ctx, &cache));
    tel.end_span();

    let mut search = Search::new(opts.config.clone());
    if let Some(dir) = &opts.wisdom_db {
        match WisdomDb::open(dir) {
            Ok(db) => search = search.with_store(db),
            Err(e) => return fail(&format!("opening wisdom db {}: {e}", dir.display())),
        }
    }
    let winners = match search.run(opts.max_log, &mut pool, &mut tel) {
        Ok(found) => found.winners(),
        Err(e) => return fail(&e.to_string()),
    };

    // Cache activity not yet drained through any evaluator (take
    // semantics make this the remainder) still belongs in the report.
    tel.merge(&cache.drain_telemetry());
    tel.end_span(); // splsearch

    // One winner per size, small sizes first, as wisdom text.
    let wisdom = spl::search::wisdom_to_string(&winners);
    out!("{wisdom}");
    for w in &winners {
        eprintln!(
            "splsearch: n={:<6} cost={:<12.6e} {}",
            w.tree.size(),
            w.cost,
            w.tree.describe()
        );
    }

    if let Some(path) = &opts.wisdom_out {
        if let Err(e) = std::fs::write(path, &wisdom) {
            return fail(&format!("writing {path}: {e}"));
        }
    }
    let mut report = RunReport::new("splsearch");
    report.meta("max_log", &opts.max_log.to_string());
    report.meta("eval", &opts.eval);
    report.meta("jobs", &jobs.to_string());
    report.meta("verify", if opts.verify { "on" } else { "off" });
    if matches!(opts.eval.as_str(), "resilient" | "native") {
        let target = spl::native::CcTarget::host();
        target.report(&mut tel);
        report.meta("native.isa", &target.isa_label());
    }
    if let Some(dir) = &opts.kernel_cache {
        report.meta("kernel_cache", &dir.display().to_string());
    }
    if let Some(dir) = &opts.wisdom_db {
        report.meta("wisdom_db", &dir.display().to_string());
    }
    if let Some(seed) = opts.faulty {
        report.meta("faulty_seed", &seed.to_string());
        report.meta("fault_rate", &opts.fault_rate.to_string());
    }
    report.push_section("search", tel);
    if let Err(e) = opts.report.finish(&report) {
        return fail(&e);
    }
    ExitCode::SUCCESS
}
