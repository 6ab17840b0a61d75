//! The daemon proper: admission, batching, deadlines, drain.
//!
//! Connection threads read frames, *admit* transform jobs into one
//! bounded queue — and execute them: there is no worker pool. A
//! transform's samples are read from the socket into the connection's
//! input buffer, the kernel writes the connection's output buffer, and
//! the reply is written from there: two buffers per connection that
//! only grow, no per-request allocation, no copy in between. A job's
//! *owner*, the thread that admitted it, stays until the job's reply
//! slot is filled; while fewer than `workers` batches are executing it
//! pops the *front* job (its own or an older one), opportunistically
//! gathers queued same-size jobs into an `I_m ⊗ A` batch, executes
//! through the [`PlanStore`] degradation chain and fills each job's
//! slot; otherwise it parks. A lone client is answered by the thread
//! that read its request: no hand-off, no futex call. Robustness
//! decisions, in one place:
//!
//! * **Backpressure** — a full queue sheds with an explicit
//!   [`Response::Overloaded`]; nothing is silently dropped.
//! * **Deadlines** — checked at admission, again when an executor picks
//!   the job up (an expired job is *cancelled*, never executed), and
//!   implicitly bounded by the client's own frame read.
//! * **Drain** — the `drain` verb stops admissions (new transforms get
//!   [`Response::Draining`]), waits for the queue and in-flight work to
//!   empty, answers, and stops the daemon. In-flight requests always
//!   finish.
//! * **Chaos** — an optional seeded [`ChaosInjector`] adds artificial
//!   latency per job and simulated kernel faults per native run, so
//!   fault paths are exercised deterministically in tests.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spl_telemetry::cli::render_stats;
use spl_telemetry::Telemetry;

use crate::chaos::{ChaosConfig, ChaosInjector};
use crate::plans::{PlanStore, PlanStoreOptions, ServeError};
use crate::protocol::{
    encode_response, read_request, write_frame, write_samples_frame, Incoming, ProtocolError,
    Request, Response, Tier,
};

/// Everything configurable about one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Serving state directory (kernel cache + plan journal).
    pub state_dir: Option<PathBuf>,
    /// Wisdom file preloaded at startup.
    pub wisdom: Option<PathBuf>,
    /// Wisdom *database* directory (`spl_search::WisdomDb`) preloaded
    /// at startup and re-read by the `reload wisdom` verb, so plans
    /// learned by concurrent `splsearch --wisdom-db` runs become
    /// servable without a restart.
    pub wisdom_db: Option<PathBuf>,
    /// Bound on concurrent executions (by connection threads: no pool).
    pub workers: usize,
    /// Bounded admission-queue capacity; beyond it requests shed.
    pub queue_cap: usize,
    /// Largest batch one dispatch may gather (1 disables batching).
    pub batch_max: usize,
    /// How long an executor holding one job waits for same-size company
    /// before dispatching (0 = only batch what is already queued).
    pub batch_window: Duration,
    /// `-B` unrolling threshold for plan compilation.
    pub unroll_threshold: usize,
    /// Largest servable transform size.
    pub max_size: usize,
    /// Compile native kernels (else VM-only serving).
    pub native: bool,
    /// Optional fault injection.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            state_dir: None,
            wisdom: None,
            wisdom_db: None,
            workers: 2,
            queue_cap: 64,
            batch_max: 16,
            batch_window: Duration::ZERO,
            unroll_threshold: 64,
            max_size: 1 << 16,
            native: true,
            chaos: None,
        }
    }
}

/// A connection's sample buffers: a request's samples are the front of
/// `input`, its reply the front of `output`. Both only grow — what lies
/// beyond the current request's lengths is an earlier request's and is
/// never sent — up to `2 · max_size` samples each (see
/// [`Server::serve_connection`]).
#[derive(Default)]
struct Buffers {
    input: Vec<f64>,
    output: Vec<f64>,
}

/// How a transform request ended.
enum Outcome {
    /// The reply is the first `n_out` samples of the owner's output
    /// buffer.
    Transformed { tier: Tier, n_out: usize },
    /// Refused, cancelled or failed: a reply without samples.
    Other(Response),
}

/// One admitted transform job.
struct Job {
    n: usize,
    /// The owner's buffers, which travel with the job — its executor may
    /// be another connection's thread — and return through `reply`.
    bufs: Buffers,
    deadline: Option<Instant>,
    admitted: Instant,
    /// Where the job's executor leaves the outcome, and the buffers, for
    /// the job's owner.
    reply: Arc<Mutex<Option<(Outcome, Buffers)>>>,
}

impl Job {
    /// Answers the job, unless it is answered already.
    fn answer(&mut self, outcome: Outcome) {
        // Also called from a `Drop`: must not panic. Behind a poisoned
        // slot the owner has panicked too and no one is left to read it.
        if let Ok(mut reply) = self.reply.lock() {
            reply.get_or_insert_with(|| (outcome, std::mem::take(&mut self.bufs)));
        }
    }
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// No new admissions (drain or stop); queued work still finishes.
    draining: bool,
    /// Batches executing right now, at most `config.workers`.
    executing: usize,
    /// Threads inside a wait on `Server::changed`.
    waiting: usize,
    peak_depth: usize,
}

/// One execution slot and the batch that holds it. Dropping it — on
/// return or on a panic out of the kernel path — answers every job of
/// the batch still without a reply with an internal error, and only
/// then takes the queue lock to free the slot and wake the parked: an
/// owner that misses its reply under that lock is counted in `waiting`.
struct ExecutionSlot<'a> {
    server: &'a Server,
    jobs: Vec<Job>,
}

impl Drop for ExecutionSlot<'_> {
    fn drop(&mut self) {
        // Must not panic; behind a poisoned lock no one is left to wake.
        for job in &mut self.jobs {
            job.answer(Outcome::Other(Response::Error {
                class: b'i',
                message: "the executor panicked before answering".into(),
            }));
        }
        if let Ok(mut q) = self.server.queue.lock() {
            q.executing -= 1;
            self.server.wake_parked(&q);
        }
    }
}

/// Latency ring: enough samples for stable p50/p99 without unbounded
/// growth.
const LATENCY_RING: usize = 4096;

/// Shared daemon state: plan store, queue, counters.
pub struct Server {
    config: ServerConfig,
    store: PlanStore,
    chaos: Option<ChaosInjector>,
    queue: Mutex<QueueState>,
    /// Wakes the parked: a job was pushed or an execution slot came free.
    changed: Condvar,
    /// Accept loops exit when set.
    shutdown: AtomicBool,
    tel: Mutex<Telemetry>,
    latencies: Mutex<VecDeque<u64>>,
    started: Instant,
}

impl Server {
    /// Builds the daemon: opens the plan store (replaying its journal),
    /// loads wisdom, and starts nothing yet — call [`Server::serve_unix`]
    /// or [`Server::serve_stream`].
    ///
    /// # Errors
    ///
    /// Propagates state-directory and wisdom failures.
    pub fn new(config: ServerConfig) -> Result<Arc<Server>, ServeError> {
        let store = PlanStore::new(PlanStoreOptions {
            state_dir: config.state_dir.clone(),
            unroll_threshold: config.unroll_threshold,
            max_size: config.max_size,
            native: config.native,
            ..Default::default()
        })?;
        load_wisdom_sources(&config, &store)?;
        let chaos = config.chaos.map(ChaosInjector::new);
        Ok(Arc::new(Server {
            config,
            store,
            chaos,
            queue: Mutex::default(),
            changed: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tel: Mutex::new(Telemetry::new()),
            latencies: Mutex::new(VecDeque::with_capacity(LATENCY_RING)),
            started: Instant::now(),
        }))
    }

    /// Serves a Unix socket at `path` until drained: binds (replacing a
    /// stale socket file), accepts connections, one thread per client.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; per-connection errors are contained.
    #[cfg(unix)]
    pub fn serve_unix(self: &Arc<Server>, path: &Path) -> std::io::Result<()> {
        use std::os::unix::net::UnixListener;
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            // A finished thread keeps its stack mapped until its handle
            // is joined or dropped: holding every handle until shutdown
            // would grow the daemon by one stack per connection it ever
            // accepted. Live ones stay, and are joined below.
            conns.retain(|c| !c.is_finished());
            match listener.accept() {
                Ok((stream, _)) => {
                    // An idle client must not pin its connection thread
                    // past shutdown: the read timeout bounds how long a
                    // blocked read can outlive the drain.
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
                    let server = Arc::clone(self);
                    conns.push(std::thread::spawn(move || {
                        let mut reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        let mut writer = stream;
                        server.serve_connection(&mut reader, &mut writer);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        for c in conns {
            let _ = c.join();
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    /// Serves exactly one connection over any byte stream (`--stdio`
    /// mode and in-process tests) on the calling thread.
    pub fn serve_stream(self: &Arc<Server>, r: &mut impl Read, w: &mut impl Write) {
        self.serve_connection(r, w);
        // One-shot service: when the single client is done, stop.
        self.stop();
    }

    /// Whether drain (or stop) has completed.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Refuses further admissions and stops the accept loop without
    /// waiting for queued work, which its owners still finish (used
    /// after a connection-driven drain, and by tests).
    pub fn stop(&self) {
        self.queue.lock().unwrap().draining = true;
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The per-connection read-dispatch-reply loop. Protocol errors are
    /// answered (typed) when the stream still has integrity, and close
    /// the connection when it does not; they never take the daemon
    /// down.
    ///
    /// The connection owns one [`Buffers`] for its lifetime. A frame is
    /// read whole before it is judged, so a frame of any admissible
    /// length lands in the input buffer; one that grew it past what the
    /// largest servable transform needs is answered (it is refused) and
    /// the buffer dropped, so an idle connection holds at most
    /// `2 · 16 · max_size` bytes of samples.
    fn serve_connection(self: &Arc<Server>, r: &mut impl Read, w: &mut impl Write) {
        let mut bufs = Buffers::default();
        loop {
            if bufs.input.len() > self.config.max_size.saturating_mul(2) {
                bufs.input = Vec::new();
            }
            let incoming = match read_request(r, &mut bufs.input) {
                Ok(None) => return, // clean disconnect
                Ok(Some(incoming)) => incoming,
                Err(ProtocolError::IdleTimeout) => {
                    // Idle connection: keep waiting unless the daemon is
                    // going away under us.
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(err) => {
                    self.count("spld.protocol_errors");
                    // A lost stream offset (oversized/truncated) cannot
                    // be answered reliably; try once, then close.
                    if self.reply_protocol_error(w, &err).is_err() || !err.recoverable() {
                        return;
                    }
                    continue;
                }
            };
            let (written, drain_after) = match incoming {
                Incoming::Transform { n, deadline_ms } => {
                    let written = match self.admit(n, &mut bufs, deadline_ms) {
                        Outcome::Transformed { tier, n_out } => {
                            write_samples_frame(w, &[b'K', tier.to_byte()], &bufs.output[..n_out])
                        }
                        Outcome::Other(response) => write_frame(w, &encode_response(&response)),
                    };
                    (written, false)
                }
                Incoming::Control(request) => {
                    let (response, drain_after) = self.control(request);
                    (write_frame(w, &encode_response(&response)), drain_after)
                }
            };
            if written.is_err() {
                // Mid-flight disconnect: the work is already done; drop
                // the reply and the connection.
                self.count("spld.disconnects");
                return;
            }
            if drain_after {
                self.stop();
                return;
            }
        }
    }

    fn reply_protocol_error(
        &self,
        w: &mut impl Write,
        err: &ProtocolError,
    ) -> Result<(), ProtocolError> {
        write_frame(
            w,
            &encode_response(&Response::Error {
                class: b'p',
                message: err.to_string(),
            }),
        )
    }

    /// Answers a control verb. The bool asks the connection loop to
    /// finish the daemon's shutdown after the reply is written (drain).
    fn control(self: &Arc<Server>, request: Request) -> (Response, bool) {
        match request {
            Request::Health => (
                Response::Text(format!(
                    "ok uptime_ms={} plans={} queue_depth={}",
                    self.started.elapsed().as_millis(),
                    self.store.plan_count(),
                    self.queue.lock().unwrap().jobs.len(),
                )),
                false,
            ),
            Request::Stats => (Response::Text(self.stats_text()), false),
            Request::Drain => {
                self.drain();
                (Response::Text("drained".into()), true)
            }
            Request::ReloadWisdom => {
                self.count("spld.wisdom.reloads");
                match load_wisdom_sources(&self.config, &self.store) {
                    Ok(sizes) => (
                        Response::Text(format!("wisdom reloaded sizes={sizes}")),
                        false,
                    ),
                    Err(err) => (
                        Response::Error {
                            class: err.class(),
                            message: err.to_string(),
                        },
                        false,
                    ),
                }
            }
            // `read_request` hands transforms over as samples in the
            // connection's buffer, never as a `Request` that owns them.
            Request::Transform { .. } => (
                Response::Error {
                    class: b'i',
                    message: "a transform reached the control path".into(),
                },
                false,
            ),
        }
    }

    /// Admission control — deadline bookkeeping, drain refusal, bounded
    /// queue with explicit shedding — then the owner loop, until the job
    /// is answered. Every queued job has its owner in that loop, and an
    /// owner parks only while `workers` batches are executing or the
    /// queue is empty (its job is inside a batch), so a slot release
    /// finds an empty queue or an owner to wake: no job is stranded.
    ///
    /// The request's samples are `bufs.input[..2n]`. `bufs` goes with the
    /// job and is back in place on return, whoever executed it; after
    /// [`Outcome::Transformed`] the reply is the front of `bufs.output`.
    fn admit(&self, n: usize, bufs: &mut Buffers, deadline_ms: Option<u32>) -> Outcome {
        self.count("spld.requests");
        if bufs.input.len() < 2 * n {
            return Outcome::Other(Response::Error {
                class: b'p',
                message: format!("{} samples for size {n}", bufs.input.len()),
            });
        }
        let admitted = Instant::now();
        let deadline = deadline_ms.map(|ms| admitted + Duration::from_millis(u64::from(ms)));
        let reply = Arc::new(Mutex::new(None));
        let mut q = self.queue.lock().unwrap();
        if q.draining {
            return Outcome::Other(Response::Draining);
        }
        if q.jobs.len() >= self.config.queue_cap {
            self.count("spld.shed");
            return Outcome::Other(Response::Overloaded);
        }
        q.jobs.push_back(Job {
            n,
            bufs: std::mem::take(bufs),
            deadline,
            admitted,
            reply: Arc::clone(&reply),
        });
        q.peak_depth = q.peak_depth.max(q.jobs.len());
        self.wake_parked(&q);
        loop {
            if let Some((outcome, returned)) = reply.lock().unwrap().take() {
                *bufs = returned;
                return outcome;
            }
            if q.executing >= self.config.workers.max(1) || q.jobs.is_empty() {
                q = self.park(q);
                continue;
            }
            // Counted while the queue lock is held, so drain never observes
            // "queue empty, nothing executing" between a pop and its execution.
            q.executing += 1;
            let first = q.jobs.pop_front().expect("checked non-empty");
            let jobs = self.gather_batch(q, first);
            let mut slot = ExecutionSlot { server: self, jobs };
            self.execute_batch(&mut slot.jobs);
            drop(slot);
            q = self.queue.lock().unwrap();
        }
    }

    /// `notify_all`, unless nobody is parked: a notify is a futex call
    /// either way, and one client never parks. Skipping it on any other
    /// ground loses wake-ups (V runs T's older job, a third answers V's).
    fn wake_parked(&self, q: &QueueState) {
        if q.waiting > 0 {
            self.changed.notify_all();
        }
    }

    /// Waits for the next push or slot release, counted in `waiting`.
    fn park<'a>(&self, mut q: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        q.waiting += 1;
        q = self.changed.wait(q).unwrap();
        q.waiting -= 1;
        q
    }

    /// The drain handshake: stop admissions, wake everyone, wait for the
    /// queue and the executing batches to empty (a slot release wakes
    /// us), then call off the native build in flight, if any — a `cc`
    /// nobody will wait for must not outlive the daemon, nor its
    /// temporary files.
    fn drain(&self) {
        let mut q = self.queue.lock().unwrap();
        q.draining = true;
        self.wake_parked(&q);
        while !q.jobs.is_empty() || q.executing > 0 {
            q = self.park(q);
        }
        drop(q);
        self.store.call_off_builds();
        self.count("spld.drains");
    }

    /// Greedy same-size batch gathering: everything already queued for
    /// the first job's size (up to `batch_max`), plus — when a batch
    /// window is configured — a short wait for more company.
    fn gather_batch(&self, mut q: MutexGuard<'_, QueueState>, first: Job) -> Vec<Job> {
        let n = first.n;
        let mut batch = vec![first];
        loop {
            while batch.len() < self.config.batch_max {
                if let Some(pos) = q.jobs.iter().position(|j| j.n == n) {
                    batch.push(q.jobs.remove(pos).expect("position is in range"));
                } else {
                    break;
                }
            }
            if batch.len() >= self.config.batch_max
                || self.config.batch_window.is_zero()
                || q.draining
            {
                return batch;
            }
            // Hold the single job briefly: under concurrent load the
            // window converts back-to-back arrivals into real batches.
            let deadline_ok = batch.iter().all(|j| {
                j.deadline
                    .is_none_or(|d| Instant::now() + self.config.batch_window < d)
            });
            if batch.len() > 1 || !deadline_ok {
                return batch;
            }
            q.waiting += 1;
            let (guard, timeout) = self
                .changed
                .wait_timeout(q, self.config.batch_window)
                .unwrap();
            q = guard;
            q.waiting -= 1;
            if let Some(pos) = q.jobs.iter().position(|j| j.n == n) {
                batch.push(q.jobs.remove(pos).expect("position is in range"));
            }
            if timeout.timed_out() {
                return batch;
            }
        }
    }

    /// Executes one gathered batch end to end and replies per job.
    fn execute_batch(&self, batch: &mut [Job]) {
        // Cancellation: jobs whose deadline passed while queued are
        // answered (never executed), and drop out of the batch.
        let now = Instant::now();
        let (expired, mut live): (Vec<&mut Job>, Vec<&mut Job>) = batch
            .iter_mut()
            .partition(|j| j.deadline.is_some_and(|d| d <= now));
        for job in expired {
            self.count("spld.deadline.missed");
            job.answer(Outcome::Other(Response::DeadlineExceeded));
        }
        if live.is_empty() {
            return;
        }
        if let Some(chaos) = &self.chaos {
            if let Some(delay) = chaos.latency() {
                self.count("spld.chaos.latency_injected");
                std::thread::sleep(delay);
            }
        }
        let n = live[0].n;
        #[cfg(test)]
        assert_ne!(n, tests::PANICKING_SIZE, "test hook: a kernel path panics");
        let plan = match self.store.plan(n) {
            Ok(plan) => plan,
            Err(err) => {
                for job in live {
                    job.answer(Outcome::Other(Response::Error {
                        class: err.class(),
                        message: err.to_string(),
                    }));
                }
                return;
            }
        };
        let (n_in, n_out) = (plan.vm().n_in, plan.vm().n_out);
        for job in &mut live {
            if job.bufs.output.len() < n_out {
                job.bufs.output.resize(n_out, 0.0);
            }
        }
        let m = live.len();
        self.count("spld.batch.dispatches");
        self.tel
            .lock()
            .unwrap()
            .add("spld.batch.requests", m as u64);
        if m > 1 {
            self.count("spld.batch.multi");
            let mut xs = Vec::with_capacity(m * n_in);
            for job in &live {
                xs.extend_from_slice(&job.bufs.input[..2 * n]);
            }
            if let Some(ys) = self.store.run_batched(&plan, m, &xs) {
                self.count("spld.tier.batched");
                for (job, y) in live.into_iter().zip(ys.chunks_exact(n_out)) {
                    job.bufs.output[..n_out].copy_from_slice(y);
                    self.finish(
                        job,
                        Outcome::Transformed {
                            tier: Tier::BatchedVm,
                            n_out,
                        },
                    );
                }
                return;
            }
            // Batched program unavailable (self-check failed): degrade
            // to per-request execution — correctness over speed.
            self.count("spld.batch.fallback_singles");
        }
        for job in live {
            let Buffers { input, output } = &mut job.bufs;
            let run = self.store.run_single_into(
                &plan,
                &input[..2 * n],
                &mut output[..n_out],
                self.chaos.as_ref(),
            );
            let outcome = match run {
                Ok(tier) => {
                    if tier == Tier::Vm {
                        self.count("spld.tier.vm");
                    }
                    Outcome::Transformed { tier, n_out }
                }
                Err(err) => Outcome::Other(Response::Error {
                    class: err.class(),
                    message: err.to_string(),
                }),
            };
            self.finish(job, outcome);
        }
    }

    /// Final deadline check plus latency accounting, then the reply.
    fn finish(&self, job: &mut Job, outcome: Outcome) {
        let elapsed = job.admitted.elapsed();
        let outcome = match job.deadline {
            Some(d) if Instant::now() > d => {
                self.count("spld.deadline.missed");
                Outcome::Other(Response::DeadlineExceeded)
            }
            _ => outcome,
        };
        if matches!(outcome, Outcome::Transformed { .. }) {
            self.count("spld.replies.ok");
            let mut ring = self.latencies.lock().unwrap();
            if ring.len() == LATENCY_RING {
                ring.pop_front();
            }
            ring.push_back(elapsed.as_micros() as u64);
        }
        job.answer(outcome);
    }

    /// The `stats` verb body: merged daemon + plan-store + kernel-cache
    /// telemetry rendered as the standard `--stats` table (script-
    /// friendly counter lines).
    pub fn stats_text(&self) -> String {
        let peak_depth = self.queue.lock().unwrap().peak_depth;
        let mut tel = self.tel.lock().unwrap();
        tel.set_metric("spld.queue.peak_depth", peak_depth as f64);
        tel.merge(&self.store.drain_telemetry());
        spl_native::CcTarget::host().report(&mut tel);
        let ring = self.latencies.lock().unwrap();
        if !ring.is_empty() {
            let mut sorted: Vec<u64> = ring.iter().copied().collect();
            sorted.sort_unstable();
            let pick = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
            tel.set_metric("spld.latency.p50_us", pick(0.50) as f64);
            tel.set_metric("spld.latency.p99_us", pick(0.99) as f64);
        }
        render_stats(&tel)
    }

    fn count(&self, key: &str) {
        self.tel.lock().unwrap().add(key, 1);
    }
}

/// (Re-)reads every configured wisdom source into the plan store's
/// tree table: the flat wisdom file first, then the wisdom DB (whose
/// trusted best plans are exported in the same flat format). Returns
/// how many sizes were loaded across both. Only plans not yet
/// instantiated pick up new trees — already-warm sizes keep serving
/// their current plan.
fn load_wisdom_sources(config: &ServerConfig, store: &PlanStore) -> Result<usize, ServeError> {
    let mut sizes = 0;
    if let Some(path) = &config.wisdom {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ServeError::Unsupported(format!("reading wisdom {}: {e}", path.display()))
        })?;
        sizes += store.load_wisdom(&text)?;
    }
    if let Some(dir) = &config.wisdom_db {
        let db = spl_search::WisdomDb::open(dir)
            .map_err(|e| ServeError::Unsupported(format!("wisdom db {}: {e}", dir.display())))?;
        sizes += store.load_wisdom(&db.export_flat())?;
    }
    Ok(sizes)
}

#[cfg(test)]
mod tests;
