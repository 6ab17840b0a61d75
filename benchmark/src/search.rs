//! The search stage: `splsearch` as a child process, cold against a
//! fresh wisdom store and then the identical command warm, once per
//! round of the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Stdio;
use std::time::Instant;

use spl_telemetry::json::{self, Json};

use crate::plans::parse_wisdom;
use crate::stats::fastest;
use crate::trace::Tracer;
use crate::{track_child, Ctx, Tally};

pub struct Shape {
    /// Sizes 2^1 … 2^max_log are searched.
    pub max_log: u32,
    /// `--leaf-max`: the largest leaf and the boundary between the small
    /// and the large search.
    pub leaf_max: usize,
    /// Warm runs after each cold run.
    pub warm_runs: usize,
}

/// The compiler's heaviest real traffic: every candidate up to 2^10 is
/// compiled, lowered, verified and timed on the VM (`--eval vm` keeps
/// `cc` out; native build cost is measured by the kernel stage). Leaves
/// up to 32 points make one cold run about 4.5 s, so that a run affords
/// one per round; with the default 64-point leaves it takes 45 s, nine
/// tenths of them in the calibration's 64-point probes, and can be run
/// once, which is a single sample of a shared box's speed.
pub const HOME: Shape = Shape {
    max_log: 10,
    leaf_max: 32,
    warm_runs: 12,
};

/// The same command scaled down (leaves up to 8, sizes up to 2^8) so it
/// still calibrates, searches small and large sizes and writes the
/// store, in under a second. One such run in three lands in a mode half
/// as slow again, by how the two workers interleave. (With leaves up to
/// 4 there is no such mode, but the calibration is not kept either, and
/// a warm run takes 0.14 s to repeat it.)
pub const PANEL: Shape = Shape {
    max_log: 8,
    leaf_max: 8,
    warm_runs: 12,
};

fn splsearch(ctx: &Ctx, args: &[String]) -> Result<(String, f64), String> {
    let t = Instant::now();
    let child = ctx
        .command("splsearch")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning splsearch: {e}"))?;
    track_child(&ctx.run_dir, child.id());
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for splsearch: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("splsearch {}: {}", args.join(" "), out.status));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), secs))
}

/// The winners a run printed, by size, as the exact line it printed.
fn winners(stdout: &str) -> BTreeMap<usize, String> {
    stdout
        .lines()
        .filter_map(|l| Some((l.split_once(':')?.0.trim().parse().ok()?, l.to_string())))
        .collect()
}

/// What the latest cold run left behind: what the warm runs after it
/// must reproduce, and the telemetry it wrote.
struct Cold {
    winners: BTreeMap<usize, String>,
    /// Sizes missing from its output or answered differently warm.
    bad: BTreeMap<usize, String>,
    trace: Json,
    secs: f64,
}

/// The search stage of one run: `cold` and `warm` are called once per
/// round, `finish` at the end.
pub struct Search<'a> {
    ctx: &'a Ctx,
    shape: &'static Shape,
    args: Vec<String>,
    db: PathBuf,
    trace_file: PathBuf,
    last: Option<Cold>,
    /// Wall seconds of every cold child process.
    pub cold_s: Vec<f64>,
}

fn phase_ns(trace: &Json, name: &str) -> f64 {
    trace
        .get("merged")
        .and_then(|m| m.get("phases"))
        .and_then(Json::as_arr)
        .and_then(|ps| {
            ps.iter()
                .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|p| p.get("wall_ns"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn counter(trace: Option<&Json>, name: &str) -> f64 {
    trace
        .and_then(|d| d.get("merged"))
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

impl<'a> Search<'a> {
    pub fn start(ctx: &'a Ctx, shape: &'static Shape) -> Result<Search<'a>, String> {
        let db = ctx.run_dir.join("wisdom-db");
        let trace_file = ctx.run_dir.join("search-trace.json");
        let mut args: Vec<String> = [
            "--max-log",
            &shape.max_log.to_string(),
            "--leaf-max",
            &shape.leaf_max.to_string(),
            "--eval",
            "vm",
            "--jobs",
            "2",
            "--min-time",
            "10",
            "--wisdom-db",
        ]
        .map(String::from)
        .to_vec();
        args.push(db.display().to_string());
        args.extend(["--trace-json".into(), trace_file.display().to_string()]);
        let search = Search {
            ctx,
            shape,
            args,
            db,
            trace_file,
            last: None,
            cold_s: Vec::new(),
        };
        search.fresh_store()?;
        Ok(search)
    }

    fn fresh_store(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.db);
        std::fs::create_dir_all(&self.db).map_err(|e| format!("{}: {e}", self.db.display()))
    }

    /// One operation per size the latest cold run searched.
    fn settle(&mut self, tally: &mut Tally) {
        if let Some(cold) = self.last.take() {
            tally.attempted += u64::from(self.shape.max_log);
            for (n, why) in cold.bad {
                tally.fail(format!("search n={n}: {why}"));
            }
        }
    }

    /// The command against a fresh store. The children inherit this
    /// process's cores: the caller gives a search all of them.
    pub fn cold(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        self.settle(tally);
        self.fresh_store()?;
        tr.begin("search.cold", self.cold_s.len() as u64);
        let (out, secs) = splsearch(self.ctx, &self.args)?;
        tr.end();
        let trace =
            std::fs::read_to_string(&self.trace_file).map_err(|e| format!("cold trace: {e}"))?;
        let trace = json::parse(&trace).map_err(|e| format!("cold trace: {e:?}"))?;
        if trace.get("merged").is_none() {
            return Err("cold trace has no merged section".into());
        }
        // The phases the child reported, as children of the span around
        // it. Calibration runs inside the small-size search.
        tr.attach_reported(&[
            (
                "search.small",
                phase_ns(&trace, "search.small") as u64,
                false,
            ),
            (
                "search.calibration",
                phase_ns(&trace, "search.calibration") as u64,
                true,
            ),
            (
                "search.large",
                phase_ns(&trace, "search.large") as u64,
                false,
            ),
        ]);
        let winners = winners(&out);
        if let Err(e) = parse_wisdom(&out) {
            tally.fail(format!("cold search output: {e}"));
        }
        let mut bad = BTreeMap::new();
        for k in 1..=self.shape.max_log {
            if !winners.contains_key(&(1usize << k)) {
                bad.insert(1 << k, "missing from the cold output".to_string());
            }
        }
        self.cold_s.push(secs);
        self.last = Some(Cold {
            winners,
            bad,
            trace,
            secs,
        });
        Ok(())
    }

    /// The identical command against the store the latest cold run
    /// filled, `runs` times; wall ms of each child goes to `into`. Every
    /// winner must be byte-identical to that cold run's.
    pub fn warm(
        &mut self,
        runs: usize,
        tr: &mut Tracer,
        into: &mut Vec<f64>,
    ) -> Result<(), String> {
        let cold = self
            .last
            .as_mut()
            .ok_or("a warm search before any cold one")?;
        for _ in 0..runs {
            tr.begin("search.warm", into.len() as u64 + 1);
            let (out, secs) = splsearch(self.ctx, &self.args)?;
            tr.end();
            into.push(secs * 1e3);
            let warm = winners(&out);
            for (n, line) in &cold.winners {
                if warm.get(n) != Some(line) {
                    cold.bad.entry(*n).or_insert_with(|| {
                        format!("a warm run answered {:?}, cold {line:?}", warm.get(n))
                    });
                }
            }
        }
        Ok(())
    }

    /// Settles the last cold run's operations, removes the store and,
    /// for a traced run, reads the per-layer metrics out of the last cold
    /// run's telemetry, the last warm run's, and the store directory.
    pub fn finish(mut self, traced: bool, tally: &mut Tally) -> Result<Vec<(String, f64)>, String> {
        let mut layers = Vec::new();
        if let (true, Some(cold)) = (traced, &self.last) {
            let warm_trace = std::fs::read_to_string(&self.trace_file)
                .ok()
                .and_then(|t| json::parse(&t).ok());
            let cold_counter = |name: &str| counter(Some(&cold.trace), name);
            let mut put = |name: &str, v: f64| layers.push((name.to_string(), v));
            put("search.cold_wall_s", cold.secs);
            put(
                "search.calibration_s",
                phase_ns(&cold.trace, "search.calibration") / 1e9,
            );
            put(
                "search.small_s",
                phase_ns(&cold.trace, "search.small") / 1e9,
            );
            put(
                "search.large_s",
                phase_ns(&cold.trace, "search.large") / 1e9,
            );
            put(
                "search.calibration.probes",
                cold_counter("search.calibration.probes"),
            );
            put(
                "search.calibration.rel_rms",
                cold.trace
                    .get("merged")
                    .and_then(|m| m.get("metrics"))
                    .and_then(|m| m.get("search.calibration.rel_rms"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
            );
            put(
                "search.plans_evaluated",
                cold_counter("search.plans_evaluated"),
            );
            put("search.verifications", cold_counter("search.verifications"));
            put(
                "search.eval_cache_hits",
                cold_counter("search.eval_cache_hits"),
            );
            // Hits are what the warm run does; misses and writes the cold.
            put(
                "wisdom.db.hits",
                counter(warm_trace.as_ref(), "wisdom.db.hits"),
            );
            put("wisdom.db.misses", cold_counter("wisdom.db.misses"));
            put(
                "wisdom.db.records_written",
                cold_counter("wisdom.db.records_written"),
            );
            let bytes: u64 = std::fs::read_dir(&self.db)
                .map_err(|e| e.to_string())?
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum();
            put("wisdom.db.bytes", bytes as f64);
            // The process-start floor under every warm run.
            let mut spawn_ms = Vec::new();
            for _ in 0..21 {
                spawn_ms.push(splsearch(self.ctx, &["--help".to_string()])?.1 * 1e3);
            }
            put("search.warm.spawn_ms", fastest(&spawn_ms));
        }
        self.settle(tally);
        Ok(layers)
    }
}

impl Drop for Search<'_> {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.db);
        let _ = std::fs::remove_file(&self.trace_file);
    }
}
