//! The chaos soak: the real `spld` binary under concurrent clients,
//! seeded fault injection, malformed frames, mid-flight disconnects,
//! `SIGKILL`, and a warm restart — with the acceptance bar that every
//! completed reply is bit-identical to the plan's VM output and the
//! restart comes back warm (compiles several times fewer kernels than
//! the cold start, proven from the daemon's own telemetry).

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use spl::serve::plans::{PlanStore, PlanStoreOptions};
use spl::serve::protocol::{encode_request, KIND_DFT};
use spl::serve::{Client, Request, Response};

/// Transform sizes the soak exercises: six distinct kernels, so the
/// cold run provably invokes `cc` at least five times.
const SIZES: [usize; 6] = [4, 8, 16, 32, 64, 128];

fn sample_input(n: usize, salt: u64) -> Vec<f64> {
    (0..2 * n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(37)
                .wrapping_add(salt.wrapping_mul(101));
            (h % 97) as f64 * 0.25 - 12.0
        })
        .collect()
}

/// Local VM reference for bitwise comparison (one store per thread;
/// VM-only resolution is cheap).
struct Reference {
    store: PlanStore,
}

impl Reference {
    fn new() -> Reference {
        Reference {
            store: PlanStore::new(PlanStoreOptions {
                native: false,
                ..Default::default()
            })
            .expect("reference store"),
        }
    }

    fn check(&self, n: usize, x: &[f64], got: &[f64]) {
        let plan = self.store.entry(n).expect("reference plan");
        let mut want = vec![0.0; plan.vm().n_out];
        plan.run_vm(x, &mut want);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "size {n} sample {i}: daemon said {g:?}, VM reference {w:?}"
            );
        }
    }
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    /// The child's `TMPDIR`: where its native builds put their
    /// `spl_native_<pid>_*.{c,so}` pairs.
    tmp: PathBuf,
}

impl Daemon {
    fn spawn(socket: &Path, extra: &[&str]) -> Daemon {
        // A SIGKILLed daemon leaves its socket file behind; remove it
        // so `socket.exists()` below means *this* daemon bound it.
        let _ = std::fs::remove_file(socket);
        let tmp = socket.with_file_name("tmp");
        std::fs::create_dir_all(&tmp).expect("daemon TMPDIR");
        let child = Command::new(env!("CARGO_BIN_EXE_spld"))
            .arg("--socket")
            .arg(socket)
            .args(extra)
            .env("TMPDIR", &tmp)
            .spawn()
            .expect("spawn spld");
        // Binding happens after the wisdom load, which an unoptimized
        // build takes its time over.
        let deadline = Instant::now() + Duration::from_secs(120);
        while !socket.exists() {
            assert!(Instant::now() < deadline, "spld never bound {socket:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        Daemon {
            child,
            socket: socket.to_path_buf(),
            tmp,
        }
    }

    fn client(&self) -> Client<UnixStream> {
        self.try_client()
            .unwrap_or_else(|| panic!("could not connect to {:?}", self.socket))
    }

    /// `None` when the daemon is gone — the kill phase races clients
    /// against `SIGKILL`, and losing that race is not a failure.
    fn try_client(&self) -> Option<Client<UnixStream>> {
        for _ in 0..100 {
            if let Ok(c) = Client::connect_unix(&self.socket) {
                return Some(c);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        None
    }

    fn stats(&self) -> String {
        match self.client().stats().expect("stats") {
            Response::Text(t) => t,
            other => panic!("stats answered {other:?}"),
        }
    }

    /// Waits until the daemon's builder thread has been handed at least
    /// `at_least` native builds and has finished every one it was handed:
    /// cold sizes are served by the VM meanwhile, so what a test says
    /// about kernels it can only say after this.
    fn wait_builds(&self, at_least: u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let stats = self.stats();
            let queued = counter(&stats, "spld.native.builds_queued");
            if queued >= at_least && queued == counter(&stats, "spld.native.builds_finished") {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "native builds never settled (want {at_least}):\n{stats}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGKILL — no warning, no cleanup; crash-safety is the point.
    /// By pid (not [`Child::kill`]) so concurrent clients can keep
    /// holding `&Daemon` while the axe falls.
    fn kill9(&self) {
        let status = Command::new("kill")
            .args(["-9", &self.child.id().to_string()])
            .status()
            .expect("kill -9");
        assert!(status.success());
    }

    fn drain_and_wait(mut self) {
        match self.client().drain().expect("drain") {
            Response::Text(t) => assert_eq!(t, "drained"),
            other => panic!("drain answered {other:?}"),
        }
        let status = self.child.wait().expect("wait");
        assert!(status.success(), "spld exited {status:?} after drain");
        // A drained daemon takes its builds' temporaries with it, those
        // of a build the drain interrupted included (a killed one, which
        // may have shared this directory, does not).
        let mine = format!("spl_native_{}_", self.child.id());
        let left: Vec<String> = std::fs::read_dir(&self.tmp)
            .expect("daemon TMPDIR")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .filter(|name| name.starts_with(&mine))
            .collect();
        assert!(left.is_empty(), "left in TMPDIR after drain: {left:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn counter(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .filter_map(|line| {
            let mut it = line.split_whitespace();
            match (it.next(), it.next()) {
                (Some(k), Some(v)) if k == key => v.parse().ok(),
                _ => None,
            }
        })
        .next()
        .unwrap_or(0)
}

/// A test's directory under `$TMPDIR`, removed when dropped: at the end
/// of the test, or while a failing one unwinds.
struct TestDir(PathBuf);

impl std::ops::Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn test_dir(name: &str) -> TestDir {
    let dir = std::env::temp_dir().join(format!("spld-soak-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    TestDir(dir)
}

/// One soak client: `rounds` transforms of rotating sizes, every OK
/// reply bitwise-checked. Returns (ok, refused) counts; errors on the
/// *stream* (daemon killed under us) end the loop quietly.
fn run_traffic(
    daemon: &Daemon,
    thread_id: u64,
    rounds: u64,
    deadline_every: Option<u64>,
) -> (u64, u64) {
    let reference = Reference::new();
    let Some(mut client) = daemon.try_client() else {
        return (0, 0);
    };
    let (mut ok, mut refused) = (0, 0);
    for i in 0..rounds {
        let n = SIZES[((thread_id + i) % SIZES.len() as u64) as usize];
        let x = sample_input(n, thread_id * 1000 + i);
        let deadline = match deadline_every {
            Some(k) if i % k == 0 => Some(Duration::from_millis(500)),
            _ => None,
        };
        match client.transform(n, deadline, &x) {
            Ok(Response::Transformed { data, .. }) => {
                reference.check(n, &x, &data);
                ok += 1;
            }
            Ok(Response::Overloaded | Response::DeadlineExceeded | Response::Draining) => {
                refused += 1;
            }
            Ok(Response::Error { class, message }) => {
                panic!("thread {thread_id} round {i}: error class {class}: {message}")
            }
            Ok(Response::Text(t)) => panic!("unexpected text reply: {t}"),
            Err(_) => break, // daemon gone (kill phase): stop quietly
        }
    }
    (ok, refused)
}

/// Client-side chaos: malformed frames, torn frames, and mid-flight
/// disconnects, all seeded. The daemon must absorb every one.
fn run_protocol_chaos(daemon: &Daemon, seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for round in 0..30u64 {
        let mut client = match Client::connect_unix(&daemon.socket) {
            Ok(c) => c,
            Err(_) => return, // daemon gone (kill phase)
        };
        match round % 3 {
            0 => {
                // Framed garbage payload (never a valid drain verb).
                let len = (next() % 40) as usize + 1;
                let mut payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
                if payload[0] == b'D' {
                    payload[0] = b'?';
                }
                if client.send_raw_frame(&payload).is_ok() {
                    let _ = client.read_response();
                }
            }
            1 => {
                // Torn frame: length prefix promising more than is sent.
                let _ = client.send_raw_bytes(&[0, 0, 4, 0, b'T', b'F']);
                // ...then vanish mid-frame.
            }
            _ => {
                // Mid-flight disconnect: a real request, no read.
                let n = SIZES[(next() % SIZES.len() as u64) as usize];
                let _ = client.send_raw_frame(&encode_request(&Request::Transform {
                    kind: KIND_DFT,
                    n,
                    deadline_ms: None,
                    data: sample_input(n, next()),
                }));
            }
        }
    }
}

/// The headline soak. One daemon with latency chaos, eight traffic
/// clients plus two protocol-chaos clients; then `SIGKILL` mid-traffic; then a restart on the same state directory
/// that must come back warm (≥5× fewer `cc` invocations, from the
/// daemon's own stats) and keep serving bit-identical answers.
#[test]
fn soak_chaos_kill9_warm_restart() {
    let dir = test_dir("main");
    let socket = dir.join("sock");
    let state = dir.join("state");
    let state_str = state.to_str().expect("utf-8 path").to_owned();
    let flags: Vec<&str> = vec![
        "--state-dir",
        &state_str,
        "--workers",
        "3",
        "--queue-cap",
        "64",
        "--chaos-seed",
        "42",
        "--chaos-latency-p",
        "0.05",
        "--chaos-latency-ms",
        "3",
    ];

    // ---- Phase 1: cold start, concurrent chaos traffic. ----
    let daemon = Daemon::spawn(&socket, &flags);
    let traffic_threads = 8;
    let barrier = Arc::new(Barrier::new(traffic_threads + 2));
    let (ok_total, refused_total) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..traffic_threads as u64 {
            let daemon = &daemon;
            let barrier = Arc::clone(&barrier);
            handles.push(scope.spawn(move || {
                barrier.wait();
                run_traffic(daemon, t, 18, Some(6))
            }));
        }
        for c in 0..2u64 {
            let daemon = &daemon;
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                run_protocol_chaos(daemon, 0xc4a05 + c);
            });
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traffic client"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(
        ok_total >= 100,
        "cold soak served too little: ok={ok_total} refused={refused_total}"
    );

    daemon.wait_builds(SIZES.len() as u64);
    let cold = daemon.stats();
    let cold_cc = counter(&cold, "native.cc_invocations");
    assert!(
        cold_cc >= 5,
        "cold start must compile each size once (≥5):\n{cold}"
    );
    assert!(
        counter(&cold, "spld.replies.ok") >= ok_total,
        "replies.ok must cover this client's successes:\n{cold}"
    );
    assert!(
        counter(&cold, "spld.protocol_errors") >= 1,
        "the chaos clients' garbage must be counted:\n{cold}"
    );

    // ---- Phase 2: SIGKILL mid-traffic. ----
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..traffic_threads as u64)
            .map(|t| {
                let daemon = &daemon;
                scope.spawn(move || run_traffic(daemon, 100 + t, 10_000, None))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(150));
        daemon.kill9();
        // Clients observe the dead socket and stop; any reply they DID
        // complete was bitwise-checked inside run_traffic.
        for h in handles {
            let _ = h.join().expect("kill-phase client");
        }
    });
    drop(daemon);

    // ---- Phase 3: restart on the same state dir — warm. ----
    let daemon = Daemon::spawn(&socket, &flags);
    let (warm_ok, _) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..traffic_threads as u64)
            .map(|t| {
                let daemon = &daemon;
                scope.spawn(move || run_traffic(daemon, 200 + t, SIZES.len() as u64, None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm client"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(warm_ok >= 40, "warm restart must serve: ok={warm_ok}");
    daemon.wait_builds(SIZES.len() as u64);
    let warm = daemon.stats();
    let warm_cc = counter(&warm, "native.cc_invocations");
    assert!(
        warm_cc * 5 <= cold_cc,
        "restart must come back warm: cold cc={cold_cc}, warm cc={warm_cc}\n{warm}"
    );
    assert!(
        counter(&warm, "native.cache.disk_hits") >= SIZES.len() as u64,
        "the kernel cache must reload every seen size:\n{warm}"
    );
    daemon.drain_and_wait();
    assert!(!socket.exists(), "socket removed after drain");
}

/// Kernel-fault chaos: with native runs failing half the time, the
/// daemon degrades (quarantines the kernel, serves from the VM) and
/// still never returns a wrong answer.
#[test]
fn soak_kernel_faults_degrade_without_wrong_answers() {
    let dir = test_dir("faults");
    let socket = dir.join("sock");
    let state = dir.join("state");
    let state_str = state.to_str().expect("utf-8 path").to_owned();
    let daemon = Daemon::spawn(
        &socket,
        &[
            "--state-dir",
            &state_str,
            "--workers",
            "2",
            "--chaos-seed",
            "7",
            "--chaos-kernel-fault",
            "0.5",
        ],
    );
    // The kernels must exist for faults to hit them: one request per
    // size, then wait for the builder.
    let (asked, _) = run_traffic(&daemon, 0, SIZES.len() as u64, None);
    assert_eq!(asked, SIZES.len() as u64);
    daemon.wait_builds(SIZES.len() as u64);
    let (ok, _) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let daemon = &daemon;
                scope.spawn(move || run_traffic(daemon, 300 + t, 24, None))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fault client"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert_eq!(ok, 4 * 24, "every request must be answered correctly");
    let stats = daemon.stats();
    assert!(
        counter(&stats, "spld.degradations") >= 1,
        "p=0.5 kernel faults must trip the degradation chain:\n{stats}"
    );
    assert!(
        counter(&stats, "spld.quarantined") >= 1,
        "a faulting kernel must be quarantined:\n{stats}"
    );
    daemon.drain_and_wait();
}

/// Overload through the real binary: a tiny queue and one slow worker
/// shed with an explicit `OVERLOADED`, never a hang or a silent drop.
#[test]
fn soak_overload_sheds_explicitly() {
    let dir = test_dir("overload");
    let socket = dir.join("sock");
    let daemon = Daemon::spawn(
        &socket,
        &[
            "--no-native",
            "--workers",
            "1",
            "--queue-cap",
            "2",
            "--chaos-seed",
            "3",
            "--chaos-latency-p",
            "1.0",
            "--chaos-latency-ms",
            "40",
        ],
    );
    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let (ok, refused) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|t| {
                let daemon = &daemon;
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    run_traffic(daemon, 400 + t, 1, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst client"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert_eq!(ok + refused, clients as u64, "every request answered");
    assert!(refused >= 1, "a 2-deep queue under 12 clients must shed");
    let stats = daemon.stats();
    assert!(counter(&stats, "spld.shed") >= 1, "sheds counted:\n{stats}");
    daemon.drain_and_wait();
}

/// A drain that arrives while the builder thread is inside `cc`: the
/// compiler is stopped and the daemon exits with nothing of the build in
/// its `TMPDIR`.
#[test]
fn soak_drain_during_a_native_build_leaves_no_temporaries() {
    let dir = test_dir("midbuild");
    let socket = dir.join("sock");
    let daemon = Daemon::spawn(&socket, &[]);
    // One cold size whose kernel keeps `cc` busy far longer than the two
    // requests below take: the reply comes from the VM at once.
    let n = 4096;
    let x = sample_input(n, 9);
    match daemon.client().transform(n, None, &x).expect("transform") {
        Response::Transformed { data, .. } => Reference::new().check(n, &x, &data),
        other => panic!("size {n} answered {other:?}"),
    }
    let stats = daemon.stats();
    assert_eq!(counter(&stats, "spld.native.builds_queued"), 1, "{stats}");
    assert_eq!(counter(&stats, "spld.native.builds_finished"), 0, "{stats}");
    let tmp = daemon.tmp.clone();
    daemon.drain_and_wait();
    // Nor anything of the compiler's own: its driver was told to stop,
    // not just killed, and its children with it.
    let left: Vec<_> = std::fs::read_dir(&tmp)
        .expect("daemon TMPDIR")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "left in TMPDIR after drain: {left:?}");
}
