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
//! a directory of immutable sealed files (`spl-resilience`), one per
//! recorded entry, each renamed into place whole; merge is
//! best-cost-wins over a total order, so concurrent `splsearch --jobs`
//! runs and other processes need no lock, and every reader converges to
//! the same entries whatever order it lists the files in.
//! Entries whose fingerprints do not match the current
//! toolchain/machine are kept but not trusted: [`WisdomDb::lookup`]
//! never serves them, and [`WisdomDb::export_flat`] ranks them below
//! trusted ones.
//!
//! On-disk schema: `<fnv64 of key>-<fnv64 of text>.entry` holds the text
//!
//! ```text
//! entry <transform> <n> <cc_fp> <machine_fp> | <cost_bits> <spec> | ...
//! ```
//!
//! followed by the sealed-file trailer (length, CRC-32, magic). Costs
//! are exact `f64` bit patterns, so a resumed run reproduces the
//! original DP decisions bit-for-bit; a cost of `0.0` marks an entry
//! imported from flat wisdom that has not been re-measured yet. A file
//! that fails its trailer or does not parse is unlinked and counted; a
//! sealed record of another type (another writer's schema) is counted
//! and kept. A file beaten by a better one of its key is unlinked by any
//! process that reads both, and by the [`WisdomDb::record`] that
//! displaced it, so the store holds one file per key. The `db.journal`
//! and `db.lock` of the older, journal-framed format are neither read
//! nor touched. [`WisdomDb::in_memory`] is the same store without the
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
use std::io::{BufRead, BufReader, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use spl_generator::fft::FftTree;
use spl_resilience::sealed::{unseal, write_sealed};
use spl_telemetry::Telemetry;

use crate::{
    large_candidates, small_candidates, EvaluatorPool, Plan, Reading, SearchConfig, SearchError,
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
pub fn wisdom_to_string(results: &[Plan]) -> String {
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
pub fn wisdom_from_string(text: &str) -> Result<Vec<Plan>, WisdomError> {
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
        out.push(Plan { tree, cost: 0.0 });
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
/// trusted. Every other label (`native`, and any evaluator this crate
/// does not know) keeps [`cc_fingerprint`].
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
/// token of an entry's text).
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
/// spec string, then the smaller whole entry text. Returns whether `a`
/// strictly beats `b`; of two entries of one key, one beats the other
/// unless their texts are equal.
fn entry_beats(a: &WisdomEntry, b: &WisdomEntry) -> bool {
    if a.measured() != b.measured() {
        return a.measured();
    }
    if a.plans.is_empty() || b.plans.is_empty() {
        return !a.plans.is_empty();
    }
    a.best()
        .cost
        .total_cmp(&b.best().cost)
        .then_with(|| a.best().tree.to_spec().cmp(&b.best().tree.to_spec()))
        .then_with(|| format_entry(a).cmp(&format_entry(b)))
        .is_lt()
}

/// Parses `entry <transform> <n> <cc_fp> <machine_fp> | <bits> <spec> | ...`;
/// `None` when any part is malformed.
fn parse_entry(payload: &str) -> Option<WisdomEntry> {
    let mut chunks = payload.strip_prefix("entry ")?.split(" | ");
    let fields: Vec<&str> = chunks.next()?.split_whitespace().collect();
    let [transform, n, cc_fp, machine_fp] = fields.as_slice() else {
        return None;
    };
    let n: usize = n.parse().ok()?;
    let mut plans = Vec::new();
    for chunk in chunks {
        let (bits, spec) = chunk.split_once(' ')?;
        let tree = FftTree::from_spec(spec).ok().filter(|t| t.size() == n)?;
        let cost = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
        plans.push(Plan { cost, tree });
    }
    if plans.is_empty() {
        return None;
    }
    Some(WisdomEntry {
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

/// The file of the entry whose text is `text`: the key (the text before
/// its first plan) and the whole text hashed, so two writers of one
/// result write one name.
fn entry_file(dir: &Path, text: &str) -> PathBuf {
    let key = text.split(" | ").next().unwrap_or(text);
    dir.join(format!("{:016x}-{:016x}.entry", fnv64(key), fnv64(text)))
}

/// Unlinks a file a better entry of its key beat; one that is gone
/// already (another process pruned it) is not counted.
fn prune(file: &Path, tel: &mut Telemetry) {
    if std::fs::remove_file(file).is_ok() {
        tel.add("wisdom.db.pruned", 1);
    }
}

fn io_err(what: &Path, e: std::io::Error) -> SearchError {
    SearchError::Other(format!("{}: {e}", what.display()))
}

/// The keyed, persistent, mergeable wisdom store. See the module docs
/// for the on-disk schema and merge semantics.
#[derive(Debug)]
pub struct WisdomDb {
    /// `None` for [`WisdomDb::in_memory`]: nothing is read or written.
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
    /// I/O failures creating or listing the directory, or reading an
    /// entry file that is there.
    pub fn open(dir: &Path) -> Result<WisdomDb, SearchError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
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

    /// Re-reads the directory, replacing the in-memory view with the
    /// merged result (picks up other processes' entries), and unlinks
    /// every file a better one of its key beat. An in-memory store has
    /// nothing to re-read and keeps what it holds.
    ///
    /// # Errors
    ///
    /// As [`WisdomDb::open`].
    pub fn reload(&mut self) -> Result<(), SearchError> {
        let Some(dir) = &self.dir else {
            return Ok(());
        };
        self.entries.clear();
        // The file each merged entry came from, to prune when beaten.
        let mut files: HashMap<EntryKey, PathBuf> = HashMap::new();
        for item in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let path = item.map_err(|e| io_err(dir, e))?.path();
            if path.extension().is_none_or(|x| x != "entry") {
                continue;
            }
            let text = match std::fs::read(&path) {
                Ok(file) => unseal(file).map(|t| String::from_utf8_lossy(&t).into_owned()),
                // Pruned by another process since the listing.
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err(&path, e)),
            };
            let entry = match text {
                Some(t) if !t.starts_with("entry ") => {
                    // Another writer's record type: keep it, skip it.
                    self.tel.add("wisdom.db.unknown_records", 1);
                    continue;
                }
                Some(t) => parse_entry(&t),
                None => None,
            };
            let Some(e) = entry else {
                // Torn, bit-flipped or malformed.
                let _ = std::fs::remove_file(&path);
                self.tel.add("wisdom.db.dropped_records", 1);
                continue;
            };
            let key = e.key();
            let beaten = match self.entries.get(&key) {
                Some(incumbent) if !entry_beats(&e, incumbent) => {
                    entry_beats(incumbent, &e).then_some(path)
                }
                _ => {
                    self.entries.insert(key.clone(), e);
                    files.insert(key, path)
                }
            };
            if let Some(beaten) = beaten {
                prune(&beaten, &mut self.tel);
            }
        }
        self.tel.add("wisdom.db.loads", 1);
        Ok(())
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
        let key = e.key();
        if let Some(incumbent) = self.entries.get(&key) {
            if !entry_beats(&e, incumbent) {
                self.tel.add("wisdom.db.merge_losses", 1);
                return Ok(());
            }
        }
        if let Some(dir) = &self.dir {
            let text = format_entry(&e);
            let path = entry_file(dir, &text);
            write_sealed(&path, text.as_bytes(), true).map_err(|err| io_err(&path, err))?;
        }
        self.tel.add("wisdom.db.records_written", 1);
        if let (Some(dir), Some(old)) = (&self.dir, self.entries.insert(key, e)) {
            prune(&entry_file(dir, &format_entry(&old)), &mut self.tel);
        }
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
        let plans = wisdom_from_string(text)?;
        let count = plans.len();
        for p in &plans {
            self.record(transform, p.tree.size(), std::slice::from_ref(p))?;
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
        let best: Vec<Plan> = sizes.iter().map(|n| per_size[n].best().clone()).collect();
        wisdom_to_string(&best)
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
    pub small: Vec<Plan>,
    /// The retained plans, best first, of each larger size up to
    /// `2^max_log`, smallest size first (the k-best right-most DP).
    pub large: Vec<Vec<Plan>>,
}

impl SearchOutcome {
    /// The best plan of every size searched, smallest first — what
    /// [`wisdom_to_string`] prints.
    pub fn winners(&self) -> Vec<Plan> {
        let large = self.large.iter().map(|plans| &plans[0]);
        self.small.iter().chain(large).cloned().collect()
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
    /// failed; store I/O failures. The pool's and the store's counts
    /// (the faults and skips that explain a failure) are merged into
    /// `tel` on every exit.
    pub fn run(
        &mut self,
        max_log: u32,
        pool: &mut EvaluatorPool,
        tel: &mut Telemetry,
    ) -> Result<SearchOutcome, SearchError> {
        let found = self.run_sizes(max_log, pool, tel);
        tel.merge(&pool.drain_telemetry());
        tel.merge(&self.db.drain_telemetry());
        found
    }

    /// [`Search::run`] without the final telemetry merge.
    fn run_sizes(
        &mut self,
        max_log: u32,
        pool: &mut EvaluatorPool,
        tel: &mut Telemetry,
    ) -> Result<SearchOutcome, SearchError> {
        let transform = transform_key(&self.config, pool.label());
        let small_max_k = self.config.leaf_max.trailing_zeros().min(max_log);

        tel.begin_span("search.small");
        let mut small: Vec<Plan> = Vec::new();
        for k in 1..=small_max_k {
            tel.begin_span(&format!("small 2^{k}"));
            let candidates = small_candidates(k, &self.config, &small);
            let plans = self.step(1usize << k, &candidates, 1, pool, tel, &transform);
            tel.end_span();
            small.push(plans?.swap_remove(0));
        }
        tel.end_span();

        let mut large = Vec::new();
        if max_log > small_max_k {
            tel.begin_span("search.large");
            // `kbest[k]` holds the retained plans of size `2^k`.
            let mut kbest: HashMap<u32, Vec<Plan>> = HashMap::new();
            for (k, best) in (1..).zip(&small) {
                kbest.insert(k, vec![best.clone()]);
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
        let unroll = self.config.unroll_threshold;
        let imported = match self.db.lookup(transform, n) {
            Some(e) if e.measured() => {
                tel.add("wisdom.db.reused_sizes", 1);
                tel.set_metric(&format!("search.best_cost.{n}"), e.best().cost);
                return Ok(e.plans);
            }
            // An unmeasured flat import: trust the plan, measure only it.
            Some(e) => {
                let trees: Vec<FftTree> = e.plans.into_iter().map(|p| p.tree).collect();
                measure(&trees, unroll, keep, pool, tel)
            }
            None => Vec::new(),
        };
        let mut plans = if imported.is_empty() {
            // Nothing imported, or every imported plan failed here.
            measure(candidates, unroll, keep, pool, tel)
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

/// Compiles (under `-B unroll`) and measures every tree for a step that
/// keeps `keep` plans, returning the plans read in full in candidate
/// order: a candidate a race pruned ranks after every one of them, so
/// it is never kept. Failures are skipped and counted, successes
/// counted under `search.plans_evaluated`.
fn measure(
    trees: &[FftTree],
    unroll: usize,
    keep: usize,
    pool: &mut EvaluatorPool,
    tel: &mut Telemetry,
) -> Vec<Plan> {
    let costs = pool.costs(trees, unroll, keep);
    let mut plans = Vec::new();
    for (tree, reading) in trees.iter().zip(costs) {
        match reading {
            Ok(reading) => {
                tel.add("search.plans_evaluated", 1);
                if let Reading::Full(cost) = reading {
                    plans.push(Plan {
                        tree: tree.clone(),
                        cost,
                    });
                }
            }
            Err(e) => tel.add(&format!("search.skipped.{}", e.kind()), 1),
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_unit_for_tree, CompiledUnit, Evaluator, OpCountEvaluator};
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spl_wisdom_db_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opcount_pool() -> EvaluatorPool {
        EvaluatorPool::single(OpCountEvaluator)
    }

    fn plan(spec: &str, cost: f64) -> Plan {
        Plan {
            tree: FftTree::from_spec(spec).unwrap(),
            cost,
        }
    }

    #[test]
    fn a_failed_search_reports_the_faults_and_skips_that_explain_it() {
        let eval = crate::FaultyEvaluator::with_rates(OpCountEvaluator, 1, 1.0, 0.0, 0.0);
        let mut pool = EvaluatorPool::single(eval);
        let mut tel = Telemetry::new();
        let err = Search::new(SearchConfig::default())
            .run(3, &mut pool, &mut tel)
            .unwrap_err();
        assert!(matches!(err, SearchError::NoCandidates { n: 2 }), "{err}");
        assert_eq!(tel.counter("search.faults_injected.timeout"), Some(1));
        assert_eq!(tel.counter("search.skipped.timeout"), Some(1));
        // Nothing of this run is left in the pool for the next one.
        assert!(pool
            .drain_telemetry()
            .counter("search.faults_injected.timeout")
            .is_none());
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
        // Reload sees the one file left and converges to the same
        // winner.
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
        fn cost(&mut self, tree: &FftTree, unit: &CompiledUnit) -> Result<f64, SearchError> {
            Ok(self.0.cost(tree, unit)? * 1e-9)
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
            EvaluatorPool::single(Scaled(OpCountEvaluator))
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
                let tree = &found.small[0].tree;
                let unit = compile_unit_for_tree(tree, config.unroll_threshold).unwrap();
                let ops = OpCountEvaluator.cost(tree, &unit).unwrap();
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

    /// The `*.entry` file names in `dir`, sorted.
    fn entry_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".entry"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn unknown_record_types_are_skipped() {
        let dir = tmp_dir("unknown");
        // The two calibration records older versions wrote: before and
        // after the evaluator became part of their key.
        let words = vec![format!("{:016x}", 0.5f64.to_bits()); 7].join(" ");
        let foreign = [
            "future v2 something".to_string(),
            format!("calib m c {words}"),
            format!("calib m c vm {words}"),
        ];
        {
            let mut db = WisdomDb::open(&dir).unwrap();
            db.record("fft/t", 8, &[plan("(ct 2 4)", 2.0)]).unwrap();
            for (i, text) in foreign.iter().enumerate() {
                let path = dir.join(format!("foreign{i}.entry"));
                spl_resilience::sealed::write_sealed(&path, text.as_bytes(), false).unwrap();
            }
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
        // Kept: two entries of ours and the three foreign records.
        assert_eq!(entry_files(&dir).len(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_full_tie_has_one_winner_in_either_order() {
        // Same measured-ness, cost bits and best spec; the tails differ.
        let a = [plan("(ct 2 4)", 3.0), plan("(ct 4 2)", 4.0)];
        let b = [plan("(ct 2 4)", 3.0), plan("(ct 4 2)", 5.0)];
        let mut winners = Vec::new();
        for (first, second) in [(&a, &b), (&b, &a)] {
            // One store records both, one after the other.
            let dir = tmp_dir("tie_one");
            let mut db = WisdomDb::open(&dir).unwrap();
            db.record("fft/t", 8, first).unwrap();
            db.record("fft/t", 8, second).unwrap();
            db.reload().unwrap();
            winners.push(db.lookup("fft/t", 8).unwrap().plans);
            assert_eq!(entry_files(&dir).len(), 1);
            // Two stores opened before either records, each one of them.
            let dir = tmp_dir("tie_two");
            let mut one = WisdomDb::open(&dir).unwrap();
            let mut two = WisdomDb::open(&dir).unwrap();
            one.record("fft/t", 8, first).unwrap();
            two.record("fft/t", 8, second).unwrap();
            assert_eq!(entry_files(&dir).len(), 2);
            let mut db = WisdomDb::open(&dir).unwrap();
            winners.push(db.lookup("fft/t", 8).unwrap().plans);
            assert_eq!(entry_files(&dir).len(), 1, "the loser is pruned");
            assert_eq!(db.drain_telemetry().counter("wisdom.db.pruned"), Some(1));
        }
        assert!(winners.iter().all(|w| *w == winners[0]), "{winners:?}");
        let _ = std::fs::remove_dir_all(tmp_dir("tie_one"));
        let _ = std::fs::remove_dir_all(tmp_dir("tie_two"));
    }

    #[test]
    fn a_store_keeps_one_file_per_key() {
        let dir = tmp_dir("one_file");
        let mut db = WisdomDb::open(&dir).unwrap();
        let mut other = WisdomDb::open(&dir).unwrap();
        db.record("fft/t", 8, &[plan("(ct 2 4)", 5.0)]).unwrap();
        db.record("fft/t", 8, &[plan("(ct 4 2)", 4.0)]).unwrap();
        assert_eq!(entry_files(&dir).len(), 1, "the displaced file goes");
        assert_eq!(db.drain_telemetry().counter("wisdom.db.pruned"), Some(1));
        // Another store filing the same result writes the same name.
        other.record("fft/t", 8, &[plan("(ct 4 2)", 4.0)]).unwrap();
        assert_eq!(entry_files(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_era_directory_opens_empty_and_keeps_its_files() {
        let dir = tmp_dir("journal_era");
        std::fs::create_dir_all(&dir).unwrap();
        // One valid record in the old framing, `splj1 <crc> <payload>`.
        let record = "entry fft/t 4 - - | 3ff0000000000000 (ct 2 2)";
        let crc = spl_resilience::crc32::crc32(record.as_bytes());
        let journal = format!("splj1 {crc:08x} {record}\n");
        std::fs::write(dir.join("db.journal"), &journal).unwrap();
        std::fs::write(dir.join("db.lock"), b"").unwrap();

        let mut db = WisdomDb::open(&dir).unwrap();
        assert!(db.is_empty());
        db.record("fft/t", 8, &[plan("(ct 2 4)", 2.0)]).unwrap();
        drop(db);
        assert_eq!(WisdomDb::open(&dir).unwrap().len(), 1);
        assert_eq!(
            std::fs::read_to_string(dir.join("db.journal")).unwrap(),
            journal
        );
        assert_eq!(std::fs::read(dir.join("db.lock")).unwrap(), b"");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
