//! The wisdom database and the one search driver over it.
//!
//! Flat wisdom text (`size: spec` lines) records *what* won but not
//! *where*, *under which compiler* or *by which cost*, so it cannot be
//! merged across runs, jobs, or machines; it remains as the import and
//! export format. [`WisdomDb`] is the store: every entry is keyed by
//! `(transform, size, cc fingerprint, machine fingerprint)` — the
//! transform component ([`transform_key`]) names the search
//! configuration and the evaluator, and the compiler component is a
//! fingerprint only where the evaluator's costs depend on the compiler
//! ([`cc_key`]: a key names only what the value depends on) — and
//! carries the retained plans with their measured costs. On disk it is
//! one CRC-framed append-only journal (`spl-resilience`) guarded by an
//! `flock` lockfile, so concurrent `splsearch --jobs` runs and other
//! processes append winners safely; merge is best-cost-wins and
//! commutative, so every reader converges to the same entries no matter
//! the append order.
//! Entries whose fingerprints do not match the current
//! toolchain/machine are kept but not trusted: [`WisdomDb::lookup`]
//! never serves them, and [`WisdomDb::export_flat`] ranks them below
//! trusted ones.
//!
//! On-disk schema (one payload per journal record):
//!
//! ```text
//! entry <transform> <n> <cc_fp> <machine_fp> | <cost_bits> <spec> | ...
//! ```
//!
//! Costs are exact `f64` bit patterns, so a resumed run reproduces the
//! original DP decisions bit-for-bit; a cost of `0.0` marks an entry
//! imported from flat wisdom that has not been re-measured yet. Unknown
//! record types (another writer's schema, and the `calib` records older
//! versions of this one wrote) are skipped; torn tails are healed by the
//! journal layer. [`WisdomDb::in_memory`] is the same store without the
//! directory: what a search that persists nothing runs over.
//!
//! The second half of this module is [`Search`], the paper's Section 4
//! DP over measured costs. Per size it (1) reuses a trusted measured
//! store entry without evaluating anything — which is how a killed
//! search resumes and how a rerun costs nothing; else (2) measures only
//! the plans of an unmeasured flat import; else (3) measures every
//! candidate.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use spl_generator::fft::FftTree;
use spl_resilience::{FileLock, Journal, JournalError};
use spl_telemetry::Telemetry;

use crate::{
    large_candidates, small_candidates, EvaluatorPool, Plan, SearchConfig, SearchError, SizeResult,
};

// ---------------------------------------------------------------------
// Typed wisdom errors + the flat-format parser (the import path)
// ---------------------------------------------------------------------

/// What went wrong on a wisdom line.
#[derive(Debug, Clone, PartialEq)]
pub enum WisdomErrorKind {
    /// The line has no `size: spec` separator.
    MissingColon,
    /// The size label is not a number.
    BadSize,
    /// The spec does not parse as a factorization tree.
    BadSpec(String),
    /// The spec parses but computes a different size than its label.
    SizeMismatch {
        /// Points the spec actually computes.
        computed: usize,
        /// Points the label claims.
        labelled: usize,
    },
}

/// A structured wisdom parse failure: which line, and what kind of
/// damage. Replaces the old stringly `SearchError::Other("wisdom line
/// ...")` errors; the rendered message is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct WisdomError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// The failure class.
    pub kind: WisdomErrorKind,
}

impl fmt::Display for WisdomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wisdom line {}: ", self.line)?;
        match &self.kind {
            WisdomErrorKind::MissingColon => write!(f, "missing ':'"),
            WisdomErrorKind::BadSize => write!(f, "bad size"),
            WisdomErrorKind::BadSpec(m) => write!(f, "{m}"),
            WisdomErrorKind::SizeMismatch { computed, labelled } => {
                write!(f, "spec computes {computed} points, labelled {labelled}")
            }
        }
    }
}

impl Error for WisdomError {}

impl From<WisdomError> for SearchError {
    fn from(e: WisdomError) -> Self {
        SearchError::Wisdom(e)
    }
}

/// Serializes search winners to "wisdom" text — one `size: spec` line per
/// entry — so a later session can reuse plans without re-searching
/// (FFTW's save-a-plan workflow, paper Section 4.2).
pub fn wisdom_to_string(results: &[SizeResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in results {
        let _ = writeln!(out, "{}: {}", r.tree.size(), r.tree.to_spec());
    }
    out
}

/// Parses wisdom text back into trees (costs are not stored; entries come
/// back with cost 0 and can be re-measured if needed). This flat format
/// is also [`WisdomDb`]'s import path.
///
/// # Errors
///
/// Fails on malformed lines, bad specs, or a spec whose size disagrees
/// with its label.
pub fn wisdom_from_string(text: &str) -> Result<Vec<SizeResult>, WisdomError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |kind| WisdomError {
            line: lineno + 1,
            kind,
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (size, spec) = line
            .split_once(':')
            .ok_or_else(|| err(WisdomErrorKind::MissingColon))?;
        let size: usize = size
            .trim()
            .parse()
            .map_err(|_| err(WisdomErrorKind::BadSize))?;
        let tree = FftTree::from_spec(spec.trim())
            .map_err(|e| err(WisdomErrorKind::BadSpec(e.to_string())))?;
        if tree.size() != size {
            return Err(err(WisdomErrorKind::SizeMismatch {
                computed: tree.size(),
                labelled: size,
            }));
        }
        out.push(SizeResult { tree, cost: 0.0 });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of how this host builds native kernels: a hash of
/// [`spl_native::cc_command_line`] (flags, ISA tokens, `cc` version
/// banner), the same text the kernel cache keys on. DB entries recorded
/// under a different compiler *or different flags* are kept but not
/// trusted: a cost measured on SSE2 code says little about AVX2 code.
/// The first call runs `cc --version`; only a key whose costs came
/// through `cc` asks for it ([`cc_key`]).
pub fn cc_fingerprint() -> &'static str {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| cc_fingerprint_of(spl_native::cc_command_line()))
}

/// [`cc_fingerprint`] of an arbitrary command line.
fn cc_fingerprint_of(cc_line: &str) -> String {
    format!("{:016x}", fnv64(cc_line))
}

/// The compiler component of entries no C compiler had a part in: not
/// sixteen hex digits, so no [`cc_fingerprint`] can equal it.
const NO_CC: &str = "-";

/// The compiler component of a DB key for costs priced by the evaluator
/// labelled `evaluator` — a key names only what the value depends on.
/// The VM's seconds and the op counts never pass through `cc`, so their
/// entries are filed under a constant: no compiler is asked for its
/// version on their account, and a compiler upgrade leaves them
/// trusted. Every other label (`native`, which a resilient chain
/// reports as its first tier, and any evaluator this crate does not
/// know) keeps [`cc_fingerprint`].
pub fn cc_key(evaluator: &str) -> &'static str {
    match evaluator {
        "vm" | "opcount" => NO_CC,
        _ => cc_fingerprint(),
    }
}

/// [`cc_key`] of the evaluator label inside a [`transform_key`] (a
/// transform component of another shape names no evaluator we know).
fn cc_key_of(transform: &str) -> &'static str {
    cc_key(transform.splitn(5, '-').nth(4).unwrap_or(""))
}

/// Fingerprint of the machine (arch, OS, CPU model, core count) —
/// measured costs only transfer between identical fingerprints.
pub fn machine_fingerprint() -> &'static str {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| machine_fingerprint_of(first_model_name()))
}

fn machine_fingerprint_of(model_name: Option<String>) -> String {
    let mut desc = format!("{} {}", std::env::consts::ARCH, std::env::consts::OS);
    if let Some(line) = model_name {
        desc.push(' ');
        desc.push_str(line.trim());
    }
    let par = std::thread::available_parallelism().map_or(1, |p| p.get());
    desc.push_str(&format!(" x{par}"));
    format!("{:016x}", fnv64(&desc))
}

/// The first `model name` line of `/proc/cpuinfo`. The kernel renders
/// that file per read, one stanza per CPU, and the line is in the first
/// few hundred bytes: reading stops there, a small buffer at a time.
fn first_model_name() -> Option<String> {
    let info = std::fs::File::open("/proc/cpuinfo").ok()?;
    BufReader::with_capacity(512, info)
        .lines()
        .map_while(Result::ok)
        .find(|l| l.starts_with("model name"))
}

/// The transform component of a DB key: the transform family, the
/// search configuration that produced the plans and the
/// [`Evaluator::label`](crate::Evaluator::label) that priced them, so
/// winners from incompatible searches never shadow each other and op
/// counts are never served as seconds. Contains no spaces (it is one
/// token of a journal record).
pub fn transform_key(config: &SearchConfig, evaluator: &str) -> String {
    format!(
        "fft/{:?}-l{}-k{}-u{}-{evaluator}",
        config.rule, config.leaf_max, config.keep, config.unroll_threshold
    )
}

// ---------------------------------------------------------------------
// The database
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct EntryKey {
    transform: String,
    n: usize,
    cc_fp: String,
    machine_fp: String,
}

/// One wisdom-DB entry: the retained plans (best first) for a size
/// under one transform/configuration on one toolchain+machine.
#[derive(Debug, Clone)]
pub struct WisdomEntry {
    /// The transform/configuration key component.
    pub transform: String,
    /// The transform size.
    pub n: usize,
    /// Compiler fingerprint the costs were measured under.
    pub cc_fp: String,
    /// Machine fingerprint the costs were measured on.
    pub machine_fp: String,
    /// Retained plans, best first. Cost `0.0` marks an entry imported
    /// from flat wisdom that has not been re-measured.
    pub plans: Vec<Plan>,
}

impl WisdomEntry {
    /// Whether this entry carries real measurements (flat imports don't).
    pub fn measured(&self) -> bool {
        self.plans.first().is_some_and(|p| p.cost > 0.0)
    }

    /// The best retained plan.
    pub fn best(&self) -> &Plan {
        &self.plans[0]
    }

    fn key(&self) -> EntryKey {
        EntryKey {
            transform: self.transform.clone(),
            n: self.n,
            cc_fp: self.cc_fp.clone(),
            machine_fp: self.machine_fp.clone(),
        }
    }
}

/// The commutative merge order: measured beats unmeasured, then lower
/// best cost, then (for determinism across processes) the smaller best
/// spec string. Returns whether `a` strictly beats `b`.
fn entry_beats(a: &WisdomEntry, b: &WisdomEntry) -> bool {
    if a.measured() != b.measured() {
        return a.measured();
    }
    if a.plans.is_empty() || b.plans.is_empty() {
        return !a.plans.is_empty();
    }
    let (ca, cb) = (a.best().cost, b.best().cost);
    match ca.total_cmp(&cb) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.best().tree.to_spec() < b.best().tree.to_spec(),
    }
}

fn jerr(e: JournalError) -> SearchError {
    match e {
        JournalError::Corrupt { line, reason } => {
            SearchError::JournalCorrupt(format!("wisdom db line {line}: {reason}"))
        }
        other => SearchError::Other(other.to_string()),
    }
}

fn parse_cost_bits(bits: &str) -> Result<f64, SearchError> {
    u64::from_str_radix(bits, 16)
        .map(f64::from_bits)
        .map_err(|_| SearchError::JournalCorrupt(format!("wisdom db: bad cost bits {bits:?}")))
}

/// Parses `entry <transform> <n> <cc_fp> <machine_fp> | <bits> <spec> | ...`.
fn parse_entry(payload: &str) -> Result<WisdomEntry, SearchError> {
    let bad = || SearchError::JournalCorrupt(format!("wisdom db: malformed entry {payload:?}"));
    let rest = payload.strip_prefix("entry ").ok_or_else(bad)?;
    let mut chunks = rest.split(" | ");
    let head = chunks.next().ok_or_else(bad)?;
    let fields: Vec<&str> = head.split_whitespace().collect();
    let [transform, n, cc_fp, machine_fp] = fields.as_slice() else {
        return Err(bad());
    };
    let n: usize = n.parse().map_err(|_| bad())?;
    let mut plans = Vec::new();
    for chunk in chunks {
        let (bits, spec) = chunk.split_once(' ').ok_or_else(bad)?;
        let tree = FftTree::from_spec(spec).map_err(|e| {
            SearchError::JournalCorrupt(format!("wisdom db: bad spec {spec:?}: {e}"))
        })?;
        if tree.size() != n {
            return Err(SearchError::JournalCorrupt(format!(
                "wisdom db: spec {spec:?} computes {} points, entry says {n}",
                tree.size()
            )));
        }
        plans.push(Plan {
            cost: parse_cost_bits(bits)?,
            tree,
        });
    }
    if plans.is_empty() {
        return Err(bad());
    }
    Ok(WisdomEntry {
        transform: transform.to_string(),
        n,
        cc_fp: cc_fp.to_string(),
        machine_fp: machine_fp.to_string(),
        plans,
    })
}

fn format_entry(e: &WisdomEntry) -> String {
    use std::fmt::Write as _;
    let mut out = format!("entry {} {} {} {}", e.transform, e.n, e.cc_fp, e.machine_fp);
    for p in &e.plans {
        let _ = write!(out, " | {:016x} {}", p.cost.to_bits(), p.tree.to_spec());
    }
    out
}

/// The keyed, persistent, mergeable wisdom store. See the module docs
/// for the on-disk schema and merge semantics.
#[derive(Debug)]
pub struct WisdomDb {
    /// `None` for [`WisdomDb::in_memory`]: nothing is read or appended.
    dir: Option<PathBuf>,
    entries: HashMap<EntryKey, WisdomEntry>,
    tel: Telemetry,
}

impl WisdomDb {
    /// Opens (creating if needed) the database directory and loads all
    /// merged entries.
    ///
    /// # Errors
    ///
    /// I/O failures and corrupt (non-torn) records.
    pub fn open(dir: &Path) -> Result<WisdomDb, SearchError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| SearchError::Other(format!("creating {}: {e}", dir.display())))?;
        let mut db = WisdomDb {
            dir: Some(dir.to_path_buf()),
            ..WisdomDb::in_memory()
        };
        db.reload()?;
        Ok(db)
    }

    /// An empty store that lives and dies with this value: same
    /// lookups, merge order and counters, no directory.
    pub fn in_memory() -> WisdomDb {
        WisdomDb {
            dir: None,
            entries: HashMap::new(),
            tel: Telemetry::new(),
        }
    }

    /// Re-reads the journal from disk, replacing the in-memory view
    /// with the merged result (picks up other processes' appends). An
    /// in-memory store has nothing to re-read and keeps what it holds.
    ///
    /// # Errors
    ///
    /// As [`WisdomDb::open`].
    pub fn reload(&mut self) -> Result<(), SearchError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        // The lock serializes against writers: `Journal::open` heals a
        // torn tail by rewriting the file, which must never race an
        // append in another process.
        let _lock = FileLock::acquire_or_noop(&dir.join("db.lock"));
        let (_, loaded) = Journal::open(&dir.join("db.journal")).map_err(jerr)?;
        if loaded.dropped > 0 {
            self.tel
                .add("wisdom.db.dropped_records", loaded.dropped as u64);
        }
        self.entries.clear();
        for rec in &loaded.records {
            self.absorb(rec)?;
        }
        self.tel.add("wisdom.db.loads", 1);
        Ok(())
    }

    fn absorb(&mut self, payload: &str) -> Result<(), SearchError> {
        if payload.starts_with("entry ") {
            let e = parse_entry(payload)?;
            self.merge_in_memory(e);
            return Ok(());
        }
        // Unknown record type: another writer's schema. Skip it.
        self.tel.add("wisdom.db.unknown_records", 1);
        Ok(())
    }

    fn merge_in_memory(&mut self, e: WisdomEntry) {
        let key = e.key();
        match self.entries.get(&key) {
            Some(incumbent) if !entry_beats(&e, incumbent) => {
                self.tel.add("wisdom.db.merge_losses", 1);
            }
            _ => {
                self.entries.insert(key, e);
            }
        }
    }

    fn append(&mut self, payload: &str) -> Result<(), SearchError> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let _lock = FileLock::acquire_or_noop(&dir.join("db.lock"));
        let (mut journal, _) = Journal::open(&dir.join("db.journal")).map_err(jerr)?;
        journal.append(payload).map_err(jerr)
    }

    /// The trusted entry (current fingerprints) for a size, if any.
    pub fn lookup(&mut self, transform: &str, n: usize) -> Option<WisdomEntry> {
        let key = EntryKey {
            transform: transform.to_string(),
            n,
            cc_fp: cc_key_of(transform).to_string(),
            machine_fp: machine_fingerprint().to_string(),
        };
        match self.entries.get(&key) {
            Some(e) => {
                self.tel.add("wisdom.db.hits", 1);
                Some(e.clone())
            }
            None => {
                self.tel.add("wisdom.db.misses", 1);
                None
            }
        }
    }

    /// Records plans (best first) for a size under the current
    /// fingerprints. The append is skipped when the store already holds
    /// a better entry for the key (best-cost-wins).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn record(&mut self, transform: &str, n: usize, plans: &[Plan]) -> Result<(), SearchError> {
        let cc_fp = cc_key_of(transform);
        self.record_with(transform, n, plans, cc_fp, machine_fingerprint())
    }

    /// [`WisdomDb::record`] under explicit fingerprints (imports,
    /// tests, tooling).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn record_with(
        &mut self,
        transform: &str,
        n: usize,
        plans: &[Plan],
        cc_fp: &str,
        machine_fp: &str,
    ) -> Result<(), SearchError> {
        if plans.is_empty() {
            return Ok(());
        }
        let e = WisdomEntry {
            transform: transform.to_string(),
            n,
            cc_fp: cc_fp.to_string(),
            machine_fp: machine_fp.to_string(),
            plans: plans.to_vec(),
        };
        if let Some(incumbent) = self.entries.get(&e.key()) {
            if !entry_beats(&e, incumbent) {
                self.tel.add("wisdom.db.merge_losses", 1);
                return Ok(());
            }
        }
        self.append(&format_entry(&e))?;
        self.tel.add("wisdom.db.records_written", 1);
        self.entries.insert(e.key(), e);
        Ok(())
    }

    /// Imports flat wisdom text as unmeasured entries (cost 0) under
    /// the given transform key and the current fingerprints. Returns
    /// the number of entries imported.
    ///
    /// # Errors
    ///
    /// [`SearchError::Wisdom`] on malformed text; I/O failures.
    pub fn import_flat(&mut self, text: &str, transform: &str) -> Result<usize, SearchError> {
        let results = wisdom_from_string(text)?;
        let count = results.len();
        for r in &results {
            self.record(
                transform,
                r.tree.size(),
                &[Plan {
                    tree: r.tree.clone(),
                    cost: r.cost,
                }],
            )?;
        }
        self.tel.add("wisdom.db.imported_entries", count as u64);
        Ok(count)
    }

    /// Exports the best plan per size across *all* entries as flat
    /// wisdom text (trusted entries preferred over stale, then the
    /// merge order). This is `spld`'s preload path and the lossless
    /// round-trip counterpart of [`WisdomDb::import_flat`].
    pub fn export_flat(&self) -> String {
        let trusted = |e: &WisdomEntry| {
            e.cc_fp == cc_key_of(&e.transform) && e.machine_fp == machine_fingerprint()
        };
        let mut per_size: HashMap<usize, &WisdomEntry> = HashMap::new();
        for e in self.entries.values() {
            match per_size.get(&e.n) {
                Some(cur) => {
                    let better = match (trusted(e), trusted(cur)) {
                        (true, false) => true,
                        (false, true) => false,
                        _ => entry_beats(e, cur),
                    };
                    if better {
                        per_size.insert(e.n, e);
                    }
                }
                None => {
                    per_size.insert(e.n, e);
                }
            }
        }
        let mut sizes: Vec<usize> = per_size.keys().copied().collect();
        sizes.sort_unstable();
        let results: Vec<SizeResult> = sizes
            .into_iter()
            .map(|n| SizeResult {
                tree: per_size[&n].best().tree.clone(),
                cost: per_size[&n].best().cost,
            })
            .collect();
        wisdom_to_string(&results)
    }

    /// All merged entries, in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = &WisdomEntry> {
        self.entries.values()
    }

    /// Number of merged entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes the accumulated `wisdom.db.*` telemetry.
    pub fn drain_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.tel)
    }
}

// ---------------------------------------------------------------------
// The search driver
// ---------------------------------------------------------------------

/// What [`Search::run`] found.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// One winner per size `2^1 … min(config.leaf_max, 2^max_log)`,
    /// smallest first (the Equation-10 DP).
    pub small: Vec<SizeResult>,
    /// The retained plans, best first, of each larger size up to
    /// `2^max_log`, smallest size first (the k-best right-most DP).
    pub large: Vec<Vec<Plan>>,
}

impl SearchOutcome {
    /// The best plan of every size searched, smallest first — what
    /// [`wisdom_to_string`] prints.
    pub fn winners(&self) -> Vec<SizeResult> {
        let large = self.large.iter().map(|plans| SizeResult {
            tree: plans[0].tree.clone(),
            cost: plans[0].cost,
        });
        self.small.iter().cloned().chain(large).collect()
    }
}

/// The search: a configuration and the store it reads and records to.
///
/// `Search::new(config)` measures every candidate and persists nothing;
/// [`Search::with_store`] changes the latter. Where the costs come from
/// — which evaluator, how many workers, what faults — is the
/// [`EvaluatorPool`] handed to [`Search::run`].
#[derive(Debug)]
pub struct Search {
    config: SearchConfig,
    db: WisdomDb,
}

impl Search {
    /// The search over an empty in-memory store.
    pub fn new(config: SearchConfig) -> Self {
        Search {
            config,
            db: WisdomDb::in_memory(),
        }
    }

    /// Reads from and records to `db`: sizes it already holds under this
    /// configuration, evaluator, compiler and machine are reused without
    /// measuring, every size completed is appended to it at once.
    pub fn with_store(mut self, db: WisdomDb) -> Self {
        self.db = db;
        self
    }

    /// Searches sizes `2^1 … 2^max_log`: dynamic programming over all
    /// Equation-10 splits up to `config.leaf_max` (one winner per size),
    /// then the k-best DP over binary right-most splits whose left
    /// factor is one of those winners (paper Section 4.2).
    ///
    /// Each size's candidates are evaluated by the pool's workers and
    /// merged back in candidate order; the survivors are stable-sorted
    /// by cost, so with a deterministic evaluator the winners are
    /// bit-identical at any job count. Candidates whose evaluation fails
    /// are skipped (`search.skipped.<kind>`).
    ///
    /// Telemetry: spans `search.small` and `search.large`, one nested span
    /// per size, `search.plans_evaluated`, `search.plans_kept`, one
    /// `search.best_cost.<n>` metric per size, and everything the pool
    /// and the store counted.
    ///
    /// # Errors
    ///
    /// [`SearchError::NoCandidates`] when every candidate of a size
    /// failed; store I/O failures.
    pub fn run(
        &mut self,
        max_log: u32,
        pool: &mut EvaluatorPool,
        tel: &mut Telemetry,
    ) -> Result<SearchOutcome, SearchError> {
        let transform = transform_key(&self.config, pool.label());
        let small_max_k = self.config.leaf_max.trailing_zeros().min(max_log);

        tel.begin_span("search.small");
        let mut small: Vec<SizeResult> = Vec::new();
        for k in 1..=small_max_k {
            tel.begin_span(&format!("small 2^{k}"));
            let candidates = small_candidates(k, &self.config, &small);
            let plans = self.step(1usize << k, &candidates, 1, pool, tel, &transform);
            tel.end_span();
            let best = plans?.swap_remove(0);
            small.push(SizeResult {
                tree: best.tree,
                cost: best.cost,
            });
        }
        tel.end_span();

        let mut large = Vec::new();
        if max_log > small_max_k {
            tel.begin_span("search.large");
            // `kbest[k]` holds the retained plans of size `2^k`.
            let mut kbest: HashMap<u32, Vec<Plan>> = HashMap::new();
            for (k, r) in (1..).zip(&small) {
                let plan = Plan {
                    tree: r.tree.clone(),
                    cost: r.cost,
                };
                kbest.insert(k, vec![plan]);
            }
            for k in (small_max_k + 1)..=max_log {
                tel.begin_span(&format!("large 2^{k}"));
                let candidates = large_candidates(k, &self.config, &kbest);
                let keep = self.config.keep;
                let plans = self.step(1usize << k, &candidates, keep, pool, tel, &transform);
                tel.end_span();
                let plans = plans?;
                tel.add("search.plans_kept", plans.len() as u64);
                kbest.insert(k, plans.clone());
                large.push(plans);
            }
            tel.end_span();
        }
        tel.merge(&pool.drain_telemetry());
        tel.merge(&self.db.drain_telemetry());
        Ok(SearchOutcome { small, large })
    }

    /// One DP step against the store: reuse a trusted measured entry,
    /// measure an unmeasured import, or measure every candidate.
    /// Returns the `keep` cheapest surviving plans, best first, and
    /// records them to the store. The sort is stable over the canonical
    /// candidate order, so of equal costs the earliest candidate wins.
    fn step(
        &mut self,
        n: usize,
        candidates: &[FftTree],
        keep: usize,
        pool: &mut EvaluatorPool,
        tel: &mut Telemetry,
        transform: &str,
    ) -> Result<Vec<Plan>, SearchError> {
        let imported = match self.db.lookup(transform, n) {
            Some(e) if e.measured() => {
                tel.add("wisdom.db.reused_sizes", 1);
                tel.set_metric(&format!("search.best_cost.{n}"), e.best().cost);
                return Ok(e.plans);
            }
            // An unmeasured flat import: trust the plan, measure only it.
            Some(e) => {
                let trees: Vec<FftTree> = e.plans.into_iter().map(|p| p.tree).collect();
                measure(&trees, pool, tel)
            }
            None => Vec::new(),
        };
        let mut plans = if imported.is_empty() {
            // Nothing imported, or every imported plan failed here.
            measure(candidates, pool, tel)
        } else {
            tel.add("wisdom.db.imports_measured", 1);
            imported
        };
        plans.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        plans.truncate(keep);
        if plans.is_empty() {
            return Err(SearchError::NoCandidates { n });
        }
        tel.set_metric(&format!("search.best_cost.{n}"), plans[0].cost);
        self.db.record(transform, n, &plans)?;
        Ok(plans)
    }
}

/// Measures every tree, returning surviving plans in candidate order.
/// Failures are skipped and counted, successes counted under
/// `search.plans_evaluated`.
fn measure(trees: &[FftTree], pool: &mut EvaluatorPool, tel: &mut Telemetry) -> Vec<Plan> {
    let costs = pool.costs(trees);
    let mut plans = Vec::new();
    for (tree, cost) in trees.iter().zip(costs) {
        match cost {
            Ok(cost) => {
                tel.add("search.plans_evaluated", 1);
                plans.push(Plan {
                    tree: tree.clone(),
                    cost,
                });
            }
            Err(e) => tel.add(&format!("search.skipped.{}", e.kind()), 1),
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Evaluator, OpCountEvaluator};
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spl_wisdom_db_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opcount_pool() -> EvaluatorPool {
        EvaluatorPool::single(OpCountEvaluator::default())
    }

    fn plan(spec: &str, cost: f64) -> Plan {
        Plan {
            tree: FftTree::from_spec(spec).unwrap(),
            cost,
        }
    }

    #[test]
    fn db_round_trips_entries_across_open() {
        let dir = tmp_dir("roundtrip");
        let mut db = WisdomDb::open(&dir).unwrap();
        db.record("fft/t", 8, &[plan("(ct 2 4)", 3.5), plan("(ct 4 2)", 4.0)])
            .unwrap();
        db.record("fft/t", 4, &[plan("(ct 2 2)", 1.25)]).unwrap();
        drop(db);
        let mut db = WisdomDb::open(&dir).unwrap();
        assert_eq!(db.len(), 2);
        let e = db.lookup("fft/t", 8).expect("trusted hit");
        assert_eq!(e.plans.len(), 2);
        assert_eq!(e.best().cost, 3.5);
        assert_eq!(e.best().tree.to_spec(), "(ct 2 4)");
        assert!(e.measured());
        assert!(db.lookup("fft/t", 16).is_none());
        let tel = db.drain_telemetry();
        assert_eq!(tel.counter("wisdom.db.hits"), Some(1));
        assert_eq!(tel.counter("wisdom.db.misses"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_merge_is_best_cost_wins_and_commutative() {
        let dir = tmp_dir("merge");
        let mut db = WisdomDb::open(&dir).unwrap();
        db.record("fft/t", 8, &[plan("(ct 2 4)", 5.0)]).unwrap();
        // A better cost replaces; a worse one is a merge loss and is
        // not served.
        db.record("fft/t", 8, &[plan("(ct 4 2)", 4.0)]).unwrap();
        db.record("fft/t", 8, &[plan("(ct 2 4)", 9.0)]).unwrap();
        assert_eq!(db.lookup("fft/t", 8).unwrap().best().cost, 4.0);
        let tel = db.drain_telemetry();
        assert_eq!(tel.counter("wisdom.db.merge_losses"), Some(1));
        // Reload sees both appended records and converges to the same
        // winner regardless of order.
        db.reload().unwrap();
        assert_eq!(db.lookup("fft/t", 8).unwrap().best().cost, 4.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_measured_beats_unmeasured_import() {
        let dir = tmp_dir("measured");
        let mut db = WisdomDb::open(&dir).unwrap();
        db.record("fft/t", 4, &[plan("(ct 2 2)", 0.0)]).unwrap();
        assert!(!db.lookup("fft/t", 4).unwrap().measured());
        db.record("fft/t", 4, &[plan("4", 7.0)]).unwrap();
        let e = db.lookup("fft/t", 4).unwrap();
        assert!(e.measured());
        assert_eq!(e.best().tree.to_spec(), "4");
        // An unmeasured import never displaces a measurement.
        db.record("fft/t", 4, &[plan("(ct 2 2)", 0.0)]).unwrap();
        assert!(db.lookup("fft/t", 4).unwrap().measured());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_stale_fingerprints_kept_but_not_trusted() {
        let dir = tmp_dir("stale");
        let mut db = WisdomDb::open(&dir).unwrap();
        db.record_with("fft/t", 8, &[plan("(ct 2 4)", 1.0)], "deadbeef", "cafebabe")
            .unwrap();
        assert!(db.lookup("fft/t", 8).is_none(), "stale must not be trusted");
        let kept: Vec<&str> = db.entries().map(|e| e.cc_fp.as_str()).collect();
        assert_eq!(kept, ["deadbeef"], "stale must be kept");
        // A trusted entry for the same size coexists under its own key.
        db.record("fft/t", 8, &[plan("(ct 4 2)", 2.0)]).unwrap();
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.lookup("fft/t", 8).unwrap().best().tree.to_spec(),
            "(ct 4 2)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn db_entries_recorded_under_another_cc_line_are_kept_but_not_trusted() {
        // Same compiler, same machine; only a flag differs.
        let line = spl_native::cc_command_line();
        assert_eq!(cc_fingerprint(), cc_fingerprint_of(line));
        let old_fp = cc_fingerprint_of(&line.replace(" -ffp-contract=off", ""));
        assert_ne!(old_fp, cc_fingerprint());

        let dir = tmp_dir("stale_flags");
        let mut db = WisdomDb::open(&dir).unwrap();
        db.record_with(
            "fft/t",
            8,
            &[plan("(ct 2 4)", 1.0)],
            &old_fp,
            machine_fingerprint(),
        )
        .unwrap();
        assert!(db.lookup("fft/t", 8).is_none(), "stale must not be trusted");
        let kept: Vec<&str> = db.entries().map(|e| e.cc_fp.as_str()).collect();
        assert_eq!(kept, [old_fp.as_str()], "stale must be kept");
        drop(db);
        let mut db = WisdomDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1, "kept across a reopen");
        assert!(db.lookup("fft/t", 8).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_wisdom_imports_losslessly() {
        let dir = tmp_dir("import");
        let mut db = WisdomDb::open(&dir).unwrap();
        let flat = "2: 2\n4: (ct 2 2)\n8: (ct 2 (ct 2 2))\n";
        assert_eq!(db.import_flat(flat, "fft/t").unwrap(), 3);
        assert_eq!(db.export_flat(), flat);
        // Round-trips across a reopen too.
        drop(db);
        let db = WisdomDb::open(&dir).unwrap();
        assert_eq!(db.export_flat(), flat);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn import_flat_reports_typed_errors() {
        let dir = tmp_dir("import_err");
        let mut db = WisdomDb::open(&dir).unwrap();
        let err = db.import_flat("16: (ct 2 2)", "fft/t").unwrap_err();
        match err {
            SearchError::Wisdom(e) => assert_eq!(
                e.kind,
                WisdomErrorKind::SizeMismatch {
                    computed: 4,
                    labelled: 16
                }
            ),
            other => panic!("expected wisdom error, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_search_matches_in_memory_and_reuses_on_rerun() {
        let dir = tmp_dir("search");
        let config = SearchConfig {
            leaf_max: 8,
            ..SearchConfig::default()
        };
        let mut plain_tel = Telemetry::new();
        let plain = Search::new(config.clone())
            .run(6, &mut opcount_pool(), &mut plain_tel)
            .unwrap();

        let mut tel = Telemetry::new();
        let stored = Search::new(config.clone())
            .with_store(WisdomDb::open(&dir).unwrap())
            .run(6, &mut opcount_pool(), &mut tel)
            .unwrap();
        assert_eq!(stored, plain);
        assert_eq!(
            tel.counter("search.plans_evaluated"),
            plain_tel.counter("search.plans_evaluated")
        );

        // A second search over the same directory reuses every size:
        // zero evaluations, the same plans and costs.
        let mut tel2 = Telemetry::new();
        let again = Search::new(config)
            .with_store(WisdomDb::open(&dir).unwrap())
            .run(6, &mut opcount_pool(), &mut tel2)
            .unwrap();
        assert_eq!(tel2.counter("search.plans_evaluated"), None);
        assert_eq!(tel2.counter("wisdom.db.reused_sizes"), Some(6));
        assert_eq!(again, plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Op counts scaled to look like seconds, under a label of its own.
    struct Scaled(OpCountEvaluator);

    impl Evaluator for Scaled {
        fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
            Ok(self.0.cost(tree)? * 1e-9)
        }

        fn label(&self) -> &str {
            "scaled"
        }
    }

    #[test]
    fn two_evaluators_share_a_store_without_reusing_each_other() {
        // In either order: the second evaluator finds none of the
        // first's entries, measures everything itself, and reports costs
        // in its own unit.
        let config = SearchConfig {
            leaf_max: 8,
            ..SearchConfig::default()
        };
        let pools: [fn() -> EvaluatorPool; 2] = [opcount_pool, || {
            EvaluatorPool::single(Scaled(OpCountEvaluator::default()))
        }];
        for order in [[0, 1], [1, 0]] {
            let mut search = Search::new(config.clone());
            let mut evaluated = Vec::new();
            for i in order {
                let mut tel = Telemetry::new();
                let found = search.run(6, &mut pools[i](), &mut tel).unwrap();
                assert_eq!(tel.counter("wisdom.db.reused_sizes"), None, "{order:?}");
                assert_eq!(tel.counter("wisdom.db.hits"), None, "{order:?}");
                evaluated.push(tel.counter("search.plans_evaluated").unwrap());
                let ops = OpCountEvaluator::default()
                    .cost(&found.small[0].tree)
                    .unwrap();
                let unit = [1.0, 1e-9][i];
                assert_eq!(found.small[0].cost, ops * unit, "{order:?}");
            }
            assert_eq!(evaluated[0], evaluated[1], "{order:?}");
            // Each evaluator does find its own entries again.
            let mut tel = Telemetry::new();
            search.run(6, &mut pools[order[0]](), &mut tel).unwrap();
            assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(6));
        }
    }

    #[test]
    fn unmeasured_import_is_measured_not_searched() {
        let dir = tmp_dir("import_measure");
        let config = SearchConfig {
            leaf_max: 8,
            ..SearchConfig::default()
        };
        let mut db = WisdomDb::open(&dir).unwrap();
        // Deliberately import a non-winning plan for size 8.
        db.import_flat(
            "2: 2\n4: (ct 2 2)\n8: (ct 4 2)\n",
            &transform_key(&config, "opcount"),
        )
        .unwrap();
        let mut tel = Telemetry::new();
        let small = Search::new(config.clone())
            .with_store(db)
            .run(3, &mut opcount_pool(), &mut tel)
            .unwrap()
            .small;
        // The imported plan was trusted: measured as-is, not re-searched.
        assert_eq!(small[2].tree.to_spec(), "(ct 4 2)");
        assert!(small[2].cost > 0.0, "import must be re-measured");
        assert_eq!(tel.counter("wisdom.db.imports_measured"), Some(3));
        assert_eq!(tel.counter("search.plans_evaluated"), Some(3));
        // The measurement was recorded: a fresh search reuses it.
        let mut tel2 = Telemetry::new();
        Search::new(config)
            .with_store(WisdomDb::open(&dir).unwrap())
            .run(3, &mut opcount_pool(), &mut tel2)
            .unwrap();
        assert_eq!(tel2.counter("search.plans_evaluated"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_are_stable_hex() {
        assert_eq!(cc_fingerprint().len(), 16);
        assert_eq!(machine_fingerprint().len(), 16);
        assert_eq!(cc_fingerprint(), cc_fingerprint());
        assert!(cc_fingerprint().chars().all(|c| c.is_ascii_hexdigit()));
        assert!(machine_fingerprint().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn machine_fingerprint_reads_what_the_whole_file_form_read() {
        let whole = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .map(str::to_string)
            });
        assert_eq!(first_model_name(), whole);
        assert_eq!(machine_fingerprint(), machine_fingerprint_of(whole));
    }

    #[test]
    fn only_costs_that_came_through_cc_are_keyed_by_it() {
        let config = SearchConfig::default();
        for label in ["vm", "opcount"] {
            assert_eq!(cc_key(label), NO_CC);
            assert_eq!(cc_key_of(&transform_key(&config, label)), NO_CC);
        }
        for label in ["native", "scaled", ""] {
            assert_eq!(cc_key(label), cc_fingerprint(), "{label:?}");
        }
        assert_eq!(
            cc_key_of(&transform_key(&config, "native")),
            cc_fingerprint()
        );
        assert_eq!(cc_key_of("fft/t"), cc_fingerprint());
        assert_ne!(NO_CC.len(), cc_fingerprint().len());
    }

    #[test]
    fn unknown_record_types_are_skipped() {
        let dir = tmp_dir("unknown");
        {
            let mut db = WisdomDb::open(&dir).unwrap();
            db.record("fft/t", 8, &[plan("(ct 2 4)", 2.0)]).unwrap();
            let (mut journal, _) = Journal::open(&dir.join("db.journal")).unwrap();
            journal.append("future v2 something").unwrap();
            // The two calibration records older versions wrote: before
            // and after the evaluator became part of their key.
            let words = vec![format!("{:016x}", 0.5f64.to_bits()); 7].join(" ");
            journal.append(&format!("calib m c {words}")).unwrap();
            journal.append(&format!("calib m c vm {words}")).unwrap();
        }
        let mut db = WisdomDb::open(&dir).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(
            db.drain_telemetry().counter("wisdom.db.unknown_records"),
            Some(3)
        );
        db.record("fft/t", 4, &[plan("(ct 2 2)", 1.0)]).unwrap();
        db.reload().unwrap();
        assert_eq!(
            db.lookup("fft/t", 8).expect("recorded before").best().cost,
            2.0
        );
        assert_eq!(
            db.lookup("fft/t", 4).expect("recorded after").best().cost,
            1.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
