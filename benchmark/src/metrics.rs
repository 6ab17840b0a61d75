//! The names every later change must use: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics. `BENCHMARK.json` at
//! the repository root is this table serialised (`run.sh --contract`).

use crate::serve::CLASSES;

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fft-small",
        "FFT 2^1..2^6, one straight-line block each (paper Fig. 3): unroll, value numbering, VM op fusion and C quality do all the work; loops, vectorisation and memory do none",
    ),
    (
        "fft-large",
        "FFT 2^7..2^16, loops over unrolled leaves (paper Fig. 4): vector loops, strength reduction, native loop code and the cache knee do the work and are absent in fft-small",
    ),
    (
        "search",
        "splsearch to 2^10 five times cold, each time then warm: the compiler's heaviest traffic, and the write-beside-read pair for the wisdom store",
    ),
    (
        "serve",
        "a real spld driven closed-loop by one blocking client, 70% n=64 / 20% n=1024 / 10% n=16384: protocol, admission and queue cost for small requests, frames and kernel for large",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// The workloads that give its stage the whole `--seconds`; the
    /// others report it from their fixed panel of that stage.
    pub home: &'static [&'static str],
}

const FFT: &[&str] = &["fft-small", "fft-large"];

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        home: &["fft-small", "fft-large", "search", "serve"],
    },
    EndToEnd {
        name: "compile_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        home: FFT,
    },
    EndToEnd {
        name: "native_mflops",
        unit: "MFLOPS",
        better: "higher",
        bound: 0.25,
        home: FFT,
    },
    EndToEnd {
        name: "vm_mflops",
        unit: "MFLOPS",
        better: "higher",
        bound: 0.25,
        home: FFT,
    },
    EndToEnd {
        name: "minifft_mflops",
        unit: "MFLOPS",
        better: "higher",
        bound: 0.25,
        home: FFT,
    },
    EndToEnd {
        name: "search_cold_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        home: &["search"],
    },
    EndToEnd {
        name: "search_warm_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        home: &["search"],
    },
    EndToEnd {
        name: "serve_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        home: &["serve"],
    },
    EndToEnd {
        name: "serve_small_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        home: &["serve"],
    },
    EndToEnd {
        name: "serve_large_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
        home: &["serve"],
    },
];

pub const ROW_SIZES: [usize; 12] = [2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096, 16384, 65536];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric a traced run prints, layer = crate name.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut put = |name: String, unit, better| out.push(Layer { name, unit, better });
    for phase in [
        "frontend.parse",
        "templates.expand",
        "compiler.unroll",
        "compiler.intrinsics",
        "compiler.typetrans",
        "compiler.optimize",
        "compiler.pass.scalarize",
        "compiler.pass.value-number",
        "compiler.pass.forward-substitute",
        "compiler.pass.dce",
        "compiler.pass.compact",
        "compiler.pass.vectorize",
        "vm.lower",
        "codegen.emit",
    ] {
        put(format!("{phase}_us"), "us", "lower");
    }
    for (count, unit, better) in [
        ("compiler.icode_instrs", "count", "lower"),
        ("compiler.instrs_before", "count", "lower"),
        ("compiler.instrs_after", "count", "lower"),
        ("compiler.cse_hits", "count", "higher"),
        ("compiler.loops_vectorized", "count", "higher"),
        ("vm.fused_ops", "count", "higher"),
        ("vm.cursors", "count", "lower"),
        ("vm.vec_loops", "count", "higher"),
        ("vm.vec_demoted", "count", "lower"),
        ("vm.memory_bytes", "bytes", "lower"),
        ("codegen.c_bytes", "bytes", "lower"),
    ] {
        put(count.into(), unit, better);
    }
    for tier in ["vm", "native", "minifft"] {
        for n in ROW_SIZES {
            put(format!("{tier}.ns.n{n}"), "ns", "lower");
        }
    }
    put("vm.vec_speedup".into(), "ratio", "higher");
    put("native_over_minifft".into(), "ratio", "higher");
    put("native_over_vm".into(), "ratio", "higher");
    put("native.cc_dlopen_ms.sum".into(), "ms", "lower");
    put("native.cc_dlopen_ms.max".into(), "ms", "lower");
    put("native.cache_load_ms".into(), "ms", "lower");
    put("minifft.plan_us".into(), "us", "lower");
    for (name, unit, better) in [
        ("search.cold_wall_s", "s", "lower"),
        ("search.calibration_s", "s", "lower"),
        ("search.small_s", "s", "lower"),
        ("search.large_s", "s", "lower"),
        ("search.calibration.probes", "count", "lower"),
        ("search.calibration.rel_rms", "ratio", "lower"),
        ("search.plans_evaluated", "count", "lower"),
        ("search.verifications", "count", "lower"),
        ("search.eval_cache_hits", "count", "higher"),
        ("wisdom.db.hits", "count", "higher"),
        ("wisdom.db.misses", "count", "lower"),
        ("wisdom.db.records_written", "count", "lower"),
        ("wisdom.db.bytes", "bytes", "lower"),
        ("search.warm.spawn_ms", "ms", "lower"),
    ] {
        put(name.into(), unit, better);
    }
    for (class, _) in CLASSES {
        put(format!("serve.client.p90_us.{class}"), "us", "lower");
        put(format!("serve.client.p99_us.{class}"), "us", "lower");
        put(format!("serve.client.samples.{class}"), "count", "higher");
        put(
            format!("serve.cold_first_request_ms.{class}"),
            "ms",
            "lower",
        );
    }
    put("serve.mid_p50_us".into(), "us", "lower");
    for class in ["small", "large"] {
        put(
            format!("serve.protocol.roundtrip_us.{class}"),
            "us",
            "lower",
        );
        put(format!("serve.plans.run_single_us.{class}"), "us", "lower");
        put(format!("serve.transport_queue_us.{class}"), "us", "lower");
    }
    put(
        "serve.plans.run_batched_us_per_item.small".into(),
        "us",
        "lower",
    );
    put("serve.tier_share.native".into(), "ratio", "higher");
    put("serve.tier_share.vm".into(), "ratio", "lower");
    put("serve.tier_share.batched".into(), "ratio", "lower");
    put("serve.batches".into(), "count", "lower");
    put("serve.shed".into(), "count", "lower");
    put("serve.daemon.p50_us".into(), "us", "lower");
    put("serve.daemon.p99_us".into(), "us", "lower");
    put("serve.daemon_rss_mb".into(), "MiB", "lower");
    put("bench.noise_iqr_pct".into(), "%", "lower");
    put("bench.trace_overhead_pct".into(), "%", "lower");
    put("bench.peak_rss_mb".into(), "MiB", "lower");
    put("bench.compile_attributed_pct".into(), "%", "higher");
    put("fail_share".into(), "ratio", "lower");
    out
}

/// How long the gate lets one run's home stage measure: its 92 runs
/// and two builds must fit in 3420 s, and a run is set-up, this, the two
/// panels and five cold searches: 23 to 40 s.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`.
pub fn contract() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|l| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                l.name, l.unit, l.better
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|l| l.name.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        for n in &names {
            assert!(ok_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(layers.iter().all(|l| ok_unit(l.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
    }

    #[test]
    fn committed_contract_is_this_table() {
        let committed = std::fs::read_to_string("../BENCHMARK.json").unwrap();
        assert!(
            committed == contract(),
            "BENCHMARK.json is stale: regenerate it with run.sh --contract"
        );
    }
}
