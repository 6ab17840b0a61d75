//! The serve stage: a real `spld` child at default settings, driven
//! closed-loop by one blocking client on the daemon's own core, once per
//! round of the run; every reply is compared bitwise with a local VM run
//! of the same plan.
//!
//! One client and one core, because on the reference box (two virtual
//! CPUs of a shared host) a hand-off to a thread on the other core has
//! to wake an idle virtual CPU through the host's scheduler: 45 µs on a
//! good minute, milliseconds on a bad one, against the 14 µs the whole
//! n=64 request costs when the next thread of its path simply runs next
//! on the same core. Two clients, or the daemon on a core of its own,
//! measured the host: identical runs read 2300 to 10800 requests a
//! second.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::time::{Duration, Instant};

use spl_numeric::rng::Rng;
use spl_serve::protocol::{
    encode_request, encode_response, parse_request, parse_response, write_frame, KIND_DFT,
};
use spl_serve::{Client, PlanStore, PlanStoreOptions, Request, Response, Tier};
use spl_vm::VmState;

use crate::kernels::compile_vm;
use crate::plans::{self, PlanLine, PLANS_FILE};
use crate::stats::{fastest, median, quantile};
use crate::trace::Tracer;
use crate::{track_child, Cores, Ctx, Tally};

/// The three request classes. n=64 is all protocol, admission, queue
/// and hand-off (the kernel is under 1 % of its latency); n=16384 adds
/// 256 KiB frames and a real kernel; n=1024 sits between.
pub const CLASSES: [(&str, usize); 3] = [("small", 64), ("mid", 1024), ("large", 16384)];
/// Requests per class in the client's deck of ten, which it shuffles
/// and sends, over and over: every ten requests are the 70 / 20 / 10 mix
/// exactly, in a seeded order, so that a short slice of the load holds
/// the same work as any other and differs only in how fast it went.
const MIX: [usize; 3] = [7, 2, 1];
/// Seeded input vectors per class.
const POOL: u64 = 8;
const WARM_UP: Duration = Duration::from_millis(500);

/// A running `spld` with its private state directory. Dropping it kills
/// the process, waits for it, and removes the directory.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns `spld` at default settings (2 workers, `--batch-max 16`,
    /// window 0, native on) over the committed plans, on this process's
    /// cores, and waits until its socket accepts.
    pub fn spawn(ctx: &Ctx) -> Result<Daemon, String> {
        let run_dir = &ctx.run_dir;
        let dir = run_dir.join("spld");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s");
        let child = ctx
            .command("spld")
            .arg("--socket")
            .arg(&socket)
            .args(["--wisdom", PLANS_FILE])
            .arg("--state-dir")
            .arg(dir.join("state"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning spld: {e}"))?;
        track_child(run_dir, child.id());
        let mut daemon = Daemon { child, socket, dir };
        let start = Instant::now();
        loop {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("spld exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("spld did not open its socket within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> Result<Client<UnixStream>, String> {
        Client::connect_unix(&self.socket).map_err(|e| format!("connecting to spld: {e}"))
    }

    /// The `S` verb's table as (name, value) pairs.
    fn stats(&self) -> Result<Vec<(String, f64)>, String> {
        match self.connect()?.stats() {
            Ok(Response::Text(text)) => Ok(text
                .lines()
                .filter_map(|l| {
                    let mut words = l.split_whitespace();
                    Some((words.next()?.to_string(), words.next()?.parse().ok()?))
                })
                .collect()),
            other => Err(format!("stats verb answered {other:?}")),
        }
    }

    /// Peak resident set of the daemon so far (`VmHWM`), in MiB.
    fn rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Ask for a drain first so in-flight work ends cleanly; the
        // kill below is what guarantees the process is gone.
        if let Ok(mut c) = self.connect() {
            let _ = c.drain();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn peak_rss_mb(status_file: &str) -> f64 {
    std::fs::read_to_string(status_file)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pre-built requests and the replies they must get, per class.
struct Pool {
    requests: Vec<Vec<Request>>,
    /// Bit patterns of the local VM's output for the same plan.
    expected: Vec<Vec<Vec<u64>>>,
}

impl Pool {
    fn new(plans: &[PlanLine], seed: u64) -> Result<Pool, String> {
        let mut pool = Pool {
            requests: Vec::new(),
            expected: Vec::new(),
        };
        for (_, n) in CLASSES {
            let (_, tree) = plans::select(plans, &[n])?.remove(0);
            let vm = compile_vm(&tree)?;
            let mut st = VmState::new(&vm);
            let (mut reqs, mut wants) = (Vec::new(), Vec::new());
            for k in 0..POOL {
                let data = plans::input(seed, n, 100 + k);
                let mut y = vec![0.0; 2 * n];
                vm.run(&data, &mut y, &mut st);
                wants.push(y.iter().map(|v| v.to_bits()).collect());
                reqs.push(Request::Transform {
                    kind: KIND_DFT,
                    n,
                    deadline_ms: None,
                    data,
                });
            }
            pool.requests.push(reqs);
            pool.expected.push(wants);
        }
        Ok(pool)
    }

    /// Anything but `Transformed` with bit-identical data is a failure:
    /// `Overloaded`, `DeadlineExceeded` and `Error` included.
    fn verdict(&self, class: usize, k: usize, reply: &Response) -> Result<Tier, String> {
        match reply {
            Response::Transformed { tier, data } => {
                let want = &self.expected[class][k];
                if data.len() == want.len() && data.iter().zip(want).all(|(g, w)| g.to_bits() == *w)
                {
                    Ok(*tier)
                } else {
                    Err(format!(
                        "n={} {tier:?} reply differs bitwise from the local VM run",
                        CLASSES[class].1
                    ))
                }
            }
            other => Err(format!("n={} answered {other:?}", CLASSES[class].1)),
        }
    }
}

/// Decks per hand. A hand — 80 requests, 56 + 16 + 8, about 5 ms — is
/// the unit the headline numbers are taken over: every hand is the same
/// work, so hands differ only in how fast they went, and the box's other
/// tenants only ever slow one. The headline is the best hand's: its
/// rate, and per class the lowest of the hands' median latencies. A
/// hand is short so that a box that is busy most of the time still
/// leaves some hands untouched.
const HAND: usize = 8;
/// Before its first counted hand a drive runs this long uncounted: the
/// daemon sat idle while the run's other stages had their turn, and its
/// threads, the connection and the caches come back within a few
/// milliseconds.
const LEAD: Duration = Duration::from_millis(100);

/// What the counted hands of a run's drives measured.
#[derive(Default)]
pub struct Load {
    /// Completed-and-correct replies per second, one value per hand.
    rates: Vec<f64>,
    /// Median client-side latency in µs per class, one value per hand.
    medians: [Vec<f64>; 3],
    /// Every counted latency in µs, per class, for the tail percentiles.
    pub latency_us: [Vec<f64>; 3],
    /// Replies by tier byte: native, vm, batched.
    tiers: [u64; 3],
}

impl Load {
    /// The best hand's rate.
    pub fn rps(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// The lowest median latency of a hand.
    pub fn p50_us(&self, class: usize) -> f64 {
        fastest(&self.medians[class])
    }

    pub fn hands(&self) -> usize {
        self.rates.len()
    }
}

/// Operations of one drive, counted or not.
#[derive(Default)]
struct Checked {
    attempted: u64,
    failures: Vec<String>,
}

/// The blocking client: hand after hand until `lead + length` has
/// passed, it takes the next class off its shuffled deck and a vector
/// from its seeded stream, sends, waits for the reply, checks it. Hands
/// begun after `lead` in which every reply was correct go to `load`.
/// One connection; this thread.
fn drive(
    daemon: &Daemon,
    pool: &Pool,
    seed: u64,
    (lead, length): (Duration, Duration),
    load: &mut Load,
    tr: &mut Tracer,
) -> Result<Checked, String> {
    let mut conn = daemon.connect()?;
    let stream = conn.stream_mut();
    let mut rng = Rng::new(seed);
    let mut checked = Checked::default();
    let mut id = seed << 32;
    let mut deck: Vec<usize> = Vec::new();
    let opened = Instant::now();
    while opened.elapsed() < lead + length {
        let hand = Instant::now();
        let failures_before = checked.failures.len();
        let mut latency_us: [Vec<f64>; 3] = Default::default();
        let mut tiers = [0u64; 3];
        for _ in 0..HAND {
            for (class, count) in MIX.iter().enumerate() {
                deck.extend(std::iter::repeat_n(class, *count));
            }
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i as u64 + 1) as usize);
            }
            while let Some(class) = deck.pop() {
                let k = rng.below(POOL) as usize;
                id += 1;
                checked.attempted += 1;
                let start = Instant::now();
                tr.begin("client.request", id);
                tr.begin("client.encode", id);
                let frame = encode_request(&pool.requests[class][k]);
                tr.next("client.write", id);
                write_frame(stream, &frame).map_err(|e| format!("request write: {e}"))?;
                tr.next("client.wait", id);
                let mut len = [0u8; 4];
                stream
                    .read_exact(&mut len)
                    .map_err(|e| format!("reply read: {e}"))?;
                tr.next("client.read_decode", id);
                let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
                stream
                    .read_exact(&mut payload)
                    .map_err(|e| format!("reply read: {e}"))?;
                let reply = parse_response(&payload).map_err(|e| format!("reply parse: {e}"))?;
                tr.end();
                tr.end();
                let elapsed = start.elapsed();
                match pool.verdict(class, k, &reply) {
                    Ok(tier) => {
                        latency_us[class].push(elapsed.as_secs_f64() * 1e6);
                        tiers[match tier {
                            Tier::Native => 0,
                            Tier::Vm => 1,
                            Tier::BatchedVm => 2,
                        }] += 1;
                    }
                    Err(e) => checked.failures.push(e),
                }
            }
        }
        let took = hand.elapsed().as_secs_f64();
        if hand - opened < lead || checked.failures.len() > failures_before {
            continue;
        }
        let replies: usize = latency_us.iter().map(Vec::len).sum();
        load.rates.push(replies as f64 / took);
        for (class, l) in latency_us.into_iter().enumerate() {
            load.medians[class].push(median(&l));
            load.latency_us[class].extend(l);
        }
        for (a, b) in load.tiers.iter_mut().zip(tiers) {
            *a += b;
        }
    }
    Ok(checked)
}

/// The serve stage of one run: a daemon started and warmed in set-up,
/// then driven once per round.
pub struct Serve<'a> {
    ctx: &'a Ctx,
    daemon: Daemon,
    pool: Pool,
    seed: u64,
    drives: u64,
    cold_ms: [f64; 3],
    /// The `S` verb's table, read after every traced drive: the daemon's
    /// latency ring holds its last 4096 replies, under a second of this
    /// load.
    ring_reads: Vec<Vec<(String, f64)>>,
}

impl<'a> Serve<'a> {
    /// Spawns the daemon, sends the first request of each size, and
    /// warms it with the real mix.
    pub fn start(
        ctx: &'a Ctx,
        plans: &[PlanLine],
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Serve<'a>, String> {
        ctx.move_to(Cores::Bench);
        let pool = Pool::new(plans, seed)?;
        let daemon = Daemon::spawn(ctx)?;
        // The first request of each size pays compile + cc + promotion.
        let mut cold_ms = [0.0; 3];
        let mut conn = daemon.connect()?;
        for (class, cold) in cold_ms.iter_mut().enumerate() {
            let t = Instant::now();
            let reply = conn
                .call(&pool.requests[class][0])
                .map_err(|e| format!("first n={} request: {e}", CLASSES[class].1))?;
            *cold = t.elapsed().as_secs_f64() * 1e3;
            tally.attempted += 1;
            if let Err(e) = pool.verdict(class, 0, &reply) {
                tally.fail(format!("{e} (first request)"));
            }
        }
        drop(conn);
        // Warm-up with the real mix. Its replies are checked, not timed.
        let warm = drive(
            &daemon,
            &pool,
            seed ^ 0xaaaa,
            (WARM_UP, Duration::ZERO),
            &mut Load::default(),
            &mut Tracer::new(false, Instant::now()),
        )?;
        tally.attempted += warm.attempted;
        for f in warm.failures {
            tally.fail(format!("{f} (warm-up)"));
        }
        Ok(Serve {
            ctx,
            daemon,
            pool,
            seed,
            drives: 0,
            cold_ms,
            ring_reads: Vec::new(),
        })
    }

    /// Drives the daemon for `LEAD` and then `window`, and adds the
    /// window's hands to `load`. Every reply is checked, the lead's too.
    pub fn drive(
        &mut self,
        window: Duration,
        load: &mut Load,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<(), String> {
        self.drives += 1;
        let seed = self.seed ^ (self.drives << 20);
        let checked = drive(&self.daemon, &self.pool, seed, (LEAD, window), load, tr)?;
        if tr.on() {
            self.ring_reads.push(self.daemon.stats()?);
        }
        tally.attempted += checked.attempted;
        for f in checked.failures {
            tally.fail(f);
        }
        Ok(())
    }

    /// Stops the daemon and returns the per-layer metrics of a traced
    /// run, whose traced drives filled `load`.
    pub fn finish(self, load: &Load) -> Result<Vec<(String, f64)>, String> {
        let mut layers = Vec::new();
        let mut put = |name: String, v: f64| layers.push((name, v));
        for (class, (name, ..)) in CLASSES.iter().enumerate() {
            let l = &load.latency_us[class];
            put(format!("serve.client.p90_us.{name}"), quantile(l, 0.90));
            put(format!("serve.client.p99_us.{name}"), quantile(l, 0.99));
            put(format!("serve.client.samples.{name}"), l.len() as f64);
            put(
                format!("serve.cold_first_request_ms.{name}"),
                self.cold_ms[class],
            );
        }
        put("serve.mid_p50_us".into(), load.p50_us(1));
        let replies: u64 = load.tiers.iter().sum();
        for (tier, count) in ["native", "vm", "batched"].iter().zip(load.tiers) {
            put(
                format!("serve.tier_share.{tier}"),
                count as f64 / replies as f64,
            );
        }
        let stat = |stats: &[(String, f64)], name: &str| {
            stats
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let ring_mean = |name: &str| {
            self.ring_reads.iter().map(|r| stat(r, name)).sum::<f64>()
                / self.ring_reads.len() as f64
        };
        let totals = self.ring_reads.last().ok_or("no traced drive")?;
        put("serve.batches".into(), stat(totals, "spld.batch.multi"));
        put("serve.shed".into(), stat(totals, "spld.shed"));
        put(
            "serve.daemon.p50_us".into(),
            ring_mean("spld.latency.p50_us"),
        );
        put(
            "serve.daemon.p99_us".into(),
            ring_mean("spld.latency.p99_us"),
        );
        put("serve.daemon_rss_mb".into(), self.daemon.rss_mb());
        drop(self.daemon);
        // The same payloads through each layer alone, in this process.
        let run_dir = &self.ctx.run_dir;
        let store = PlanStore::new(PlanStoreOptions {
            state_dir: Some(run_dir.join("planstore")),
            ..Default::default()
        })
        .map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(PLANS_FILE).map_err(|e| e.to_string())?;
        store.load_wisdom(&text).map_err(|e| e.to_string())?;
        for class in [0, 2] {
            let (name, n) = CLASSES[class];
            let protocol = protocol_roundtrip_us(&self.pool.requests[class][0], n);
            let (single, batched) = plan_store_us(&store, &self.pool, class, class == 0)?;
            put(format!("serve.protocol.roundtrip_us.{name}"), protocol);
            put(format!("serve.plans.run_single_us.{name}"), single);
            if let Some(batched) = batched {
                put(
                    format!("serve.plans.run_batched_us_per_item.{name}"),
                    batched,
                );
            }
            // What is left of the client's median once the protocol and
            // the kernel are taken out: socket, admission, queue and
            // thread hand-off. A residual, not a measurement.
            put(
                format!("serve.transport_queue_us.{name}"),
                load.p50_us(class) - protocol - single,
            );
        }
        let _ = std::fs::remove_dir_all(run_dir.join("planstore"));
        Ok(layers)
    }
}

/// Median µs of encode_request → parse_request → encode_response →
/// parse_response on one request and a reply of the same size.
fn protocol_roundtrip_us(request: &Request, n: usize) -> f64 {
    let reply = Response::Transformed {
        tier: Tier::Native,
        data: vec![0.5; 2 * n],
    };
    let mut times = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let frame = encode_request(request);
        let parsed = parse_request(&frame).expect("own request parses");
        let frame = encode_response(&reply);
        let back = parse_response(&frame).expect("own reply parses");
        times.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box((parsed, back));
    }
    median(&times)
}

/// Median µs of `PlanStore::run_single` and, when asked, of
/// `run_batched` with m = 2 per item, on the class's first pool vectors.
fn plan_store_us(
    store: &PlanStore,
    pool: &Pool,
    class: usize,
    with_batched: bool,
) -> Result<(f64, Option<f64>), String> {
    let n = CLASSES[class].1;
    let data = |k: usize| match &pool.requests[class][k] {
        Request::Transform { data, .. } => data.as_slice(),
        _ => unreachable!("the pool holds transform requests"),
    };
    let plan = store.entry(n).map_err(|e| e.to_string())?;
    let (mut single, mut batched) = (Vec::new(), Vec::new());
    let pair: Vec<f64> = [data(0), data(1)].concat();
    for i in 0..201 {
        let t = Instant::now();
        let (y, _) = store
            .run_single(&plan, data(0), None)
            .map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(y);
        // The first call is the sandboxed promotion run.
        if i > 0 {
            single.push(dt);
        }
        if !with_batched {
            continue;
        }
        let t = Instant::now();
        let ys = store.run_batched(&plan, 2, &pair);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        if ys.is_none() {
            return Err(format!("n={n}: no batched program"));
        }
        // The first call compiles and self-checks the batched program.
        if i > 0 {
            batched.push(dt / 2.0);
        }
    }
    Ok((median(&single), with_batched.then(|| median(&batched))))
}
