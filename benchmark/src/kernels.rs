//! The kernel stage: compile each plan (SPL text → i-code → VM program
//! → C → `cc` → `dlopen`), plan the `minifft` baseline, check every
//! tier against the oracle, then time the three tiers interleaved.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use spl_compiler::{CompiledUnit, Compiler, CompilerOptions};
use spl_frontend::ast::Language;
use spl_generator::fft::FftTree;
use spl_minifft::{Plan, PlanMode};
use spl_native::{BuildOptions, KernelCache, NativeKernel};
use spl_numeric::pseudo_mflops;
use spl_numeric::rng::Rng;
use spl_telemetry::Telemetry;
use spl_vm::{lower, VmProgram, VmState};

use crate::plans::{self, Expected};
use crate::stats::{fastest, geomean, median, quantile};
use crate::trace::Tracer;
use crate::Tally;

/// `-B 64`: sub-formulas of up to 64 points become straight-line code,
/// the setting of the paper's experiments and of `spld` and `splsearch`.
const UNROLL_THRESHOLD: usize = 64;
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Native,
    Vm,
    Minifft,
}

impl Tier {
    pub const ALL: [Tier; 3] = [Tier::Native, Tier::Vm, Tier::Minifft];

    pub fn name(self) -> &'static str {
        match self {
            Tier::Native => "native",
            Tier::Vm => "vm",
            Tier::Minifft => "minifft",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Tier::Native => "native.run",
            Tier::Vm => "vm.run",
            Tier::Minifft => "minifft.execute",
        }
    }
}

/// Compiler phases as `take_telemetry()` names them, with the span and
/// per-layer metric name each is reported under, in execution order.
/// Passes run inside `optimize`.
const PHASES: [(&str, &str, bool); 12] = [
    ("parse", "frontend.parse", false),
    ("expand", "templates.expand", false),
    ("unroll", "compiler.unroll", false),
    ("intrinsics", "compiler.intrinsics", false),
    ("typetrans", "compiler.typetrans", false),
    ("optimize", "compiler.optimize", false),
    ("pass.scalarize", "compiler.pass.scalarize", true),
    ("pass.value-number", "compiler.pass.value-number", true),
    (
        "pass.forward-substitute",
        "compiler.pass.forward-substitute",
        true,
    ),
    ("pass.dce", "compiler.pass.dce", true),
    ("pass.compact", "compiler.pass.compact", true),
    ("pass.vectorize", "compiler.pass.vectorize", true),
];

/// Every timed step of one compile, as its per-layer metric is named:
/// the phases the compiler reports, then the two calls timed from here.
fn step_names() -> impl Iterator<Item = &'static str> {
    PHASES
        .iter()
        .map(|p| p.1)
        .chain(["vm.lower", "codegen.emit"])
}

/// Counts a deterministic compiler must reproduce exactly.
const COUNTS: [&str; 11] = [
    "compiler.icode_instrs",
    "compiler.instrs_before",
    "compiler.instrs_after",
    "compiler.cse_hits",
    "compiler.loops_vectorized",
    "vm.fused_ops",
    "vm.cursors",
    "vm.vec_loops",
    "vm.vec_demoted",
    "vm.memory_bytes",
    "codegen.c_bytes",
];

fn counts_of(unit: &CompiledUnit, tel: &Telemetry, vm: &VmProgram, c_src: &str) -> [u64; 11] {
    let c = |name| tel.counter(name).unwrap_or(0);
    let rs = vm.resolve_stats();
    [
        unit.program.static_instr_count() as u64,
        c("optimize.instrs_before"),
        c("optimize.instrs_after"),
        c("optimize.cse_hits"),
        c("optimize.loops_vectorized"),
        rs.map_or(0, |s| s.fused_muladd + s.fused_negfold + s.fused_butterfly),
        rs.map_or(0, |s| s.cursors),
        rs.map_or(0, |s| s.vec_loops),
        rs.map_or(0, |s| s.vec_demoted),
        vm.memory_bytes() as u64,
        c_src.len() as u64,
    ]
}

/// One plan, built on every tier.
pub struct Built {
    pub n: usize,
    pub vm: VmProgram,
    pub native: NativeKernel,
    pub fft: Plan,
    unit: CompiledUnit,
}

pub struct KernelSet {
    pub items: Vec<Built>,
    /// Per-layer build times (ms or µs, by name) and counts, summed over
    /// the set's formulas.
    pub layers: BTreeMap<String, f64>,
    /// One seeded input per item, and what its DFT must be.
    inputs: Vec<Vec<f64>>,
    wants: Vec<Expected>,
    cache_dir: std::path::PathBuf,
}

/// The resolved VM program of one plan, compiled as `spld` compiles it:
/// what a served reply must equal bit for bit.
pub fn compile_vm(tree: &FftTree) -> Result<VmProgram, String> {
    let unit = compiler()
        .compile_formula_str(&tree.to_sexp().to_string())
        .map_err(|e| format!("n={}: {e}", tree.size()))?;
    lower(&unit.program).map_err(|e| format!("n={}: {e}", tree.size()))
}

fn compiler() -> Compiler {
    Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(UNROLL_THRESHOLD),
        language_override: Some(Language::C),
        ..Default::default()
    })
}

/// One timed compile: SPL text → `compile_formula_str` → `lower` →
/// `emit`, no `cc`.
struct Compiled {
    unit: CompiledUnit,
    vm: VmProgram,
    total_ms: f64,
    /// µs of every step, in `step_names()` order.
    step_us: Vec<f64>,
    counts: [u64; 11],
}

fn compile_once(src: &str, n: usize, tr: &mut Tracer) -> Result<Compiled, String> {
    let id = n as u64;
    // A fresh compiler each time, so generated names (and with them the
    // emitted bytes) repeat.
    let mut c = compiler();
    let t0 = Instant::now();
    tr.begin("compiler.compile", id);
    let unit = c
        .compile_formula_str(src)
        .map_err(|e| format!("n={n}: {e}"))?;
    tr.end();
    let tel = c.take_telemetry();
    let reported: Vec<(&'static str, u64, bool)> = PHASES
        .iter()
        .map(|&(key, span, nested)| (span, tel.span_ns(key).unwrap_or(0) as u64, nested))
        .collect();
    tr.attach_reported(&reported);
    let t1 = Instant::now();
    let vm = tr
        .span("vm.lower", id, || lower(&unit.program))
        .map_err(|e| format!("n={n}: {e}"))?;
    let t2 = Instant::now();
    let c_src = tr.span("codegen.emit", id, || unit.emit());
    let t3 = Instant::now();
    let step_us = reported
        .iter()
        .map(|r| r.1 as f64 / 1e3)
        .chain([t2 - t1, t3 - t2].map(|d| d.as_secs_f64() * 1e6))
        .collect();
    let counts = counts_of(&unit, &tel, &vm, &c_src);
    Ok(Compiled {
        unit,
        vm,
        total_ms: (t3 - t0).as_secs_f64() * 1e3,
        step_us,
        counts,
    })
}

/// The compile timings of one stage's formulas. The first is taken when
/// the kernels are built; `pass` adds one more of every formula, and is
/// called throughout the run so that the timings of one formula are
/// seconds apart, not back to back inside one slow stretch.
pub struct CompileTimes {
    formulas: Vec<Formula>,
}

struct Formula {
    n: usize,
    src: String,
    counts: [u64; 11],
    total_ms: Vec<f64>,
    /// Per step, one value per timing.
    step_us: Vec<Vec<f64>>,
}

impl CompileTimes {
    /// Compiles every formula once more. The counts a deterministic
    /// compiler must reproduce are compared with the first compile's:
    /// one operation each.
    pub fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        for f in &mut self.formulas {
            let c = compile_once(&f.src, f.n, tr)?;
            f.total_ms.push(c.total_ms);
            for (slot, us) in f.step_us.iter_mut().zip(c.step_us) {
                slot.push(us);
            }
            tally.attempted += 1;
            if c.counts != f.counts {
                tally.fail(format!(
                    "n={}: counts differ between two compiles of one formula: {:?} then {:?}",
                    f.n, f.counts, c.counts
                ));
            }
        }
        Ok(())
    }

    pub fn timings_per_formula(&self) -> usize {
        self.formulas
            .iter()
            .map(|f| f.total_ms.len())
            .min()
            .unwrap_or(0)
    }

    /// Geometric mean over the formulas of each one's fastest compile.
    pub fn compile_ms(&self) -> f64 {
        geomean(
            &self
                .formulas
                .iter()
                .map(|f| fastest(&f.total_ms))
                .collect::<Vec<_>>(),
        )
    }

    /// Per step the sum over formulas of its fastest time, and how much
    /// of the compile wall time the named steps explain.
    pub fn layers(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        let mut named = 0.0;
        for (i, step) in step_names().enumerate() {
            let us: f64 = self.formulas.iter().map(|f| fastest(&f.step_us[i])).sum();
            // Passes run inside `optimize`, which already counts them.
            if PHASES.get(i).is_none_or(|phase| !phase.2) {
                named += us;
            }
            out.push((format!("{step}_us"), us));
        }
        let total_us: f64 = self
            .formulas
            .iter()
            .map(|f| fastest(&f.total_ms) * 1e3)
            .sum();
        out.push((
            "bench.compile_attributed_pct".into(),
            100.0 * named / total_us,
        ));
        out
    }
}

/// Compiles, builds, plans and checks every tree. `cache_dir` is emptied
/// first: every `cc` run is a cold one.
pub fn build(
    trees: &[(usize, FftTree)],
    seed: u64,
    cache_dir: &Path,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(KernelSet, CompileTimes), String> {
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = KernelCache::with_dir(cache_dir).map_err(|e| e.to_string())?;
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    fn add(layers: &mut BTreeMap<String, f64>, name: &str, v: f64) {
        *layers.entry(name.to_string()).or_insert(0.0) += v;
    }
    let mut cc_max = 0.0f64;
    let mut items: Vec<Built> = Vec::new();
    let mut formulas: Vec<Formula> = Vec::new();
    for (n, tree) in trees {
        let (n, id) = (*n, *n as u64);
        // The front end is on the path, as it is for `splc`.
        let src = tree.to_sexp().to_string();
        let c = compile_once(&src, n, tr)?;
        for (name, v) in COUNTS.iter().zip(c.counts) {
            add(&mut layers, name, v as f64);
        }
        formulas.push(Formula {
            n,
            src,
            counts: c.counts,
            total_ms: vec![c.total_ms],
            step_us: c.step_us.iter().map(|us| vec![*us]).collect(),
        });
        let (unit, vm) = (c.unit, c.vm);

        let t = Instant::now();
        let (native, _) = tr
            .span("native.cc_dlopen", id, || {
                NativeKernel::compile_cached(&unit, &BuildOptions::default(), &cache)
            })
            .map_err(|e| format!("n={n}: {e}"))?;
        let cc_ms = t.elapsed().as_secs_f64() * 1e3;
        add(&mut layers, "native.cc_dlopen_ms.sum", cc_ms);
        cc_max = cc_max.max(cc_ms);

        let t = Instant::now();
        let fft = tr.span("minifft.plan", id, || Plan::new(n, PlanMode::Measure));
        add(
            &mut layers,
            "minifft.plan_us",
            t.elapsed().as_secs_f64() * 1e6,
        );

        items.push(Built {
            n,
            vm,
            native,
            fft,
            unit,
        });
    }
    add(&mut layers, "native.cc_dlopen_ms.max", cc_max);
    // The oracle check, before anything is timed.
    let inputs: Vec<Vec<f64>> = items.iter().map(|b| plans::input(seed, b.n, 0)).collect();
    let wants: Vec<Expected> = inputs.iter().map(|x| Expected::of(x)).collect();
    for ((item, x), want) in items.iter().zip(&inputs).zip(&wants) {
        let mut y = vec![0.0; 2 * item.n];
        let mut st = VmState::new(&item.vm);
        for tier in Tier::ALL {
            y.fill(0.0);
            tr.span(tier.span(), item.n as u64, || {
                item.run(tier, x, &mut y, &mut st)
            });
            tally.check(want.error_of(&y), || {
                format!("n={} {} (set-up)", item.n, tier.name())
            });
        }
    }
    let set = KernelSet {
        items,
        layers,
        inputs,
        wants,
        cache_dir: cache_dir.to_path_buf(),
    };
    Ok((set, CompileTimes { formulas }))
}

impl Built {
    #[inline]
    fn run(&self, tier: Tier, x: &[f64], y: &mut [f64], st: &mut VmState) {
        match tier {
            Tier::Native => self.native.run(x, y),
            Tier::Vm => self.vm.run(x, y, st),
            Tier::Minifft => self.fft.execute(x, y),
        }
    }
}

impl KernelSet {
    /// Re-opens every kernel through a second `KernelCache` over the
    /// directory the cold builds filled: the warm use of the layer.
    pub fn cache_load_ms(&self) -> Result<f64, String> {
        let t = Instant::now();
        let cache = KernelCache::with_dir(&self.cache_dir).map_err(|e| e.to_string())?;
        for item in &self.items {
            let (_, outcome) =
                NativeKernel::compile_cached(&item.unit, &BuildOptions::default(), &cache)
                    .map_err(|e| e.to_string())?;
            if outcome != spl_native::CacheOutcome::DiskHit {
                return Err(format!(
                    "n={}: kernel cache re-open was {outcome:?}",
                    item.n
                ));
            }
        }
        Ok(t.elapsed().as_secs_f64() * 1e3)
    }
}

/// One (size, tier) pair and its samples.
pub struct Pair {
    pub item: usize,
    pub n: usize,
    pub tier: Tier,
    reps: u64,
    /// ns per call, one value per sample of `reps` calls.
    pub samples: Vec<f64>,
}

impl Pair {
    /// ns per call of the fastest sample: see `fastest`.
    pub fn ns(&self) -> f64 {
        fastest(&self.samples)
    }

    pub fn mflops(&self) -> f64 {
        pseudo_mflops(self.n, self.ns() / 1e3)
    }
}

pub struct Sampler<'a> {
    set: &'a KernelSet,
    pub pairs: Vec<Pair>,
    outputs: Vec<Vec<f64>>,
    states: Vec<VmState>,
    seed: u64,
    order: Rng,
}

impl<'a> Sampler<'a> {
    /// Allocates buffers and picks, per pair, the repetition count that
    /// makes one sample last about `sample`. Part of set-up.
    pub fn calibrate(set: &'a KernelSet, seed: u64, sample: Duration) -> Sampler<'a> {
        let inputs = &set.inputs;
        let mut states: Vec<VmState> = set.items.iter().map(|b| VmState::new(&b.vm)).collect();
        let mut pairs = Vec::new();
        let mut outputs = Vec::new();
        for (i, b) in set.items.iter().enumerate() {
            for tier in Tier::ALL {
                let mut y = vec![0.0; 2 * b.n];
                let mut reps = 1u64;
                let per_call = loop {
                    let t = Instant::now();
                    for _ in 0..reps {
                        b.run(tier, black_box(&inputs[i]), &mut y, &mut states[i]);
                    }
                    let dt = t.elapsed();
                    if dt >= sample / 4 {
                        break dt.as_secs_f64() / reps as f64;
                    }
                    reps *= 2;
                };
                pairs.push(Pair {
                    item: i,
                    n: b.n,
                    tier,
                    reps: ((sample.as_secs_f64() / per_call).round() as u64).max(1),
                    samples: Vec::new(),
                });
                outputs.push(y);
            }
        }
        Sampler {
            set,
            pairs,
            outputs,
            states,
            seed,
            order: Rng::new(seed ^ 0x5eed_0bde),
        }
    }

    /// A second sampler over the same kernels with the same repetition
    /// counts and no samples: the traced half of a traced run.
    pub fn twin(&self) -> Sampler<'a> {
        Sampler {
            set: self.set,
            pairs: self
                .pairs
                .iter()
                .map(|p| Pair {
                    samples: Vec::new(),
                    ..*p
                })
                .collect(),
            outputs: self.outputs.clone(),
            states: self.set.items.iter().map(|b| VmState::new(&b.vm)).collect(),
            seed: self.seed,
            order: Rng::new(self.seed ^ 0x7a1c_ed00),
        }
    }

    /// Takes samples round-robin over all pairs, in a freshly shuffled
    /// order each round, until `window` has passed and `min_rounds` are
    /// done: a burst of outside load touches a few samples of each pair,
    /// never all samples of one.
    pub fn sample(&mut self, window: Duration, min_rounds: usize, tr: &mut Tracer) {
        let start = Instant::now();
        let mut round = 0;
        let mut order: Vec<usize> = (0..self.pairs.len()).collect();
        while start.elapsed() < window || round < min_rounds {
            for i in (1..order.len()).rev() {
                order.swap(i, self.order.below(i as u64 + 1) as usize);
            }
            for &p in &order {
                let pair = &mut self.pairs[p];
                let b = &self.set.items[pair.item];
                let (x, y, st) = (
                    &self.set.inputs[pair.item],
                    &mut self.outputs[p],
                    &mut self.states[pair.item],
                );
                tr.begin(pair.tier.span(), pair.n as u64);
                let t = Instant::now();
                for _ in 0..pair.reps {
                    b.run(pair.tier, black_box(x), y, st);
                }
                let dt = t.elapsed();
                tr.end();
                black_box(&y);
                pair.samples.push(dt.as_nanos() as f64 / pair.reps as f64);
            }
            round += 1;
        }
    }

    /// Checks the output every pair's last timed call left behind.
    pub fn check_outputs(&self, tally: &mut Tally) {
        for (pair, y) in self.pairs.iter().zip(&self.outputs) {
            tally.check(self.set.wants[pair.item].error_of(y), || {
                format!("n={} {} (timed)", pair.n, pair.tier.name())
            });
        }
    }

    pub fn mflops(&self, tier: Tier) -> f64 {
        geomean(&self.of(tier).map(Pair::mflops).collect::<Vec<_>>())
    }

    fn of(&self, tier: Tier) -> impl Iterator<Item = &Pair> {
        self.pairs.iter().filter(move |p| p.tier == tier)
    }

    /// How many times faster `fast` runs than `slow`, geometric mean
    /// over sizes.
    pub fn speedup(&self, fast: Tier, slow: Tier) -> f64 {
        geomean(
            &self
                .of(fast)
                .zip(self.of(slow))
                .map(|(f, s)| s.ns() / f.ns())
                .collect::<Vec<_>>(),
        )
    }

    /// Median over pairs of (p75 − p25) / p50, in percent.
    pub fn noise_iqr_pct(&self) -> f64 {
        100.0
            * median(
                &self
                    .pairs
                    .iter()
                    .map(|p| {
                        (quantile(&p.samples, 0.75) - quantile(&p.samples, 0.25))
                            / quantile(&p.samples, 0.5)
                    })
                    .collect::<Vec<_>>(),
            )
    }

    /// VM time with the vector path forced off ÷ as detected, for each
    /// of the given sizes this sampler holds; a few samples of each,
    /// alternating.
    pub fn vec_speedups(&mut self, sizes: &[usize]) -> Vec<f64> {
        let mut ratios = Vec::new();
        for p in 0..self.pairs.len() {
            let pair = &self.pairs[p];
            if pair.tier != Tier::Vm || !sizes.contains(&pair.n) {
                continue;
            }
            let b = &self.set.items[pair.item];
            let mut time = |scalar: bool| {
                spl_vm::simd::set_force_scalar(scalar);
                let t = Instant::now();
                for _ in 0..pair.reps {
                    b.run(
                        Tier::Vm,
                        black_box(&self.set.inputs[pair.item]),
                        &mut self.outputs[p],
                        &mut self.states[pair.item],
                    );
                }
                t.elapsed().as_secs_f64()
            };
            let (mut vector, mut scalar) = (Vec::new(), Vec::new());
            for _ in 0..5 {
                vector.push(time(false));
                scalar.push(time(true));
            }
            spl_vm::simd::set_force_scalar(false);
            ratios.push(fastest(&scalar) / fastest(&vector));
        }
        ratios
    }
}
