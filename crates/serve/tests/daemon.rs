//! Live-daemon integration tests: Unix-socket serving, batching,
//! overload shedding, deadline cancellation, drain, and protocol
//! robustness against a *running* server (the parser-level robustness
//! corpus lives in the protocol unit tests; these prove the daemon
//! stays alive behind it).

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use spl_serve::plans::{PlanStore, PlanStoreOptions};
use spl_serve::{ChaosConfig, Client, Response, Server, ServerConfig, Tier};

/// Bitwise equality — the serving invariant is *bit-identical to the
/// plan's VM output*, so `==` on floats (which would equate 0.0 and
/// -0.0) is not strict enough.
fn assert_bits_eq(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "sample {i} differs: {g:?} vs {w:?}"
        );
    }
}

/// The reference a reply must bitwise-match: the same VM program the
/// daemon resolves for `n`, run locally.
fn expected_vm(n: usize, x: &[f64]) -> Vec<f64> {
    let store = PlanStore::new(PlanStoreOptions {
        native: false,
        ..Default::default()
    })
    .expect("local plan store");
    let plan = store.entry(n).expect("plan");
    let mut y = vec![0.0; plan.vm().n_out];
    plan.run_vm(x, &mut y);
    y
}

fn sample_input(n: usize, salt: u64) -> Vec<f64> {
    (0..2 * n)
        .map(|i| ((i as u64 * 37 + salt * 101) % 97) as f64 * 0.25 - 12.0)
        .collect()
}

struct TestDaemon {
    socket: PathBuf,
    server: Arc<Server>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TestDaemon {
    fn start(name: &str, config: ServerConfig) -> TestDaemon {
        let dir = std::env::temp_dir().join(format!("spld-it-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        let socket = dir.join("sock");
        let server = Server::new(config).expect("server");
        let s = Arc::clone(&server);
        let path = socket.clone();
        let handle = std::thread::spawn(move || {
            s.serve_unix(&path).expect("serve_unix");
        });
        // Wait for the listener to bind.
        for _ in 0..400 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(socket.exists(), "daemon never bound its socket");
        TestDaemon {
            socket,
            server,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client<UnixStream> {
        for _ in 0..50 {
            if let Ok(c) = Client::connect_unix(&self.socket) {
                return c;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("could not connect to {}", self.socket.display());
    }

    /// Drains over the wire and joins the daemon thread.
    fn shut_down(mut self) {
        let mut c = self.client();
        match c.drain().expect("drain") {
            Response::Text(t) => assert_eq!(t, "drained"),
            other => panic!("drain answered {other:?}"),
        }
        self.handle
            .take()
            .expect("not yet joined")
            .join()
            .expect("daemon thread");
        assert!(self.server.is_shut_down());
    }

    fn counter(&self, stats: &str, key: &str) -> u64 {
        stats
            .lines()
            .filter_map(|line| {
                let mut it = line.split_whitespace();
                match (it.next(), it.next()) {
                    // Metrics print as decimals (`2.000000`).
                    (Some(k), Some(v)) if k == key => v.parse::<f64>().ok().map(|v| v as u64),
                    _ => None,
                }
            })
            .next()
            .unwrap_or(0)
    }
}

/// Asks for size `n` until a native kernel answers: a cold size is
/// served by the VM while the daemon's builder compiles and promotes
/// its kernel. Every reply on the way is held to the VM's bits.
fn warm_native(daemon: &TestDaemon, n: usize) {
    let x = sample_input(n, 7);
    let want = expected_vm(n, &x);
    let mut client = daemon.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        match client.transform(n, None, &x).expect("transform") {
            Response::Transformed { tier, data } => {
                assert_bits_eq(&data, &want);
                if tier == Tier::Native {
                    return;
                }
            }
            other => panic!("warming size {n} answered {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "size {n} never reached the native tier"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn vm_only(config: ServerConfig) -> ServerConfig {
    ServerConfig {
        native: false,
        ..config
    }
}

#[test]
fn daemon_serves_bit_identical_to_vm_over_socket() {
    let daemon = TestDaemon::start("serve", vm_only(ServerConfig::default()));
    let mut client = daemon.client();
    for (salt, n) in [(1u64, 4usize), (2, 8), (3, 16), (4, 8)] {
        let x = sample_input(n, salt);
        match client.transform(n, None, &x).expect("transform") {
            Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(n, &x)),
            other => panic!("size {n} answered {other:?}"),
        }
    }
    // Health names the warm plans.
    match client.health().expect("health") {
        Response::Text(t) => assert!(t.contains("plans=3"), "health said: {t}"),
        other => panic!("health answered {other:?}"),
    }
    drop(client);
    daemon.shut_down();
}

#[test]
fn unsupported_sizes_get_typed_errors_not_disconnects() {
    let daemon = TestDaemon::start("unsupported", vm_only(ServerConfig::default()));
    let mut client = daemon.client();
    // Size 6 has no radix-2 plan and no wisdom: a typed error...
    match client
        .transform(6, None, &sample_input(6, 9))
        .expect("transform")
    {
        Response::Error { class, .. } => assert_eq!(class, b'u'),
        other => panic!("size 6 answered {other:?}"),
    }
    // ...and the connection still serves the next request.
    let x = sample_input(4, 10);
    match client.transform(4, None, &x).expect("transform") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(4, &x)),
        other => panic!("size 4 answered {other:?}"),
    }
    drop(client);
    daemon.shut_down();
}

#[test]
fn overload_sheds_with_explicit_reply() {
    let config = ServerConfig {
        workers: 1,
        queue_cap: 2,
        batch_max: 1, // no batching: keep the queue under real pressure
        chaos: Some(ChaosConfig {
            seed: 7,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency: Duration::from_millis(40),
        }),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("overload", vm_only(config));
    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let results: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|salt| {
                let mut client = daemon.client();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let x = sample_input(4, salt as u64);
                    barrier.wait();
                    let resp = client.transform(4, None, &x).expect("transform");
                    if let Response::Transformed { data, .. } = &resp {
                        assert_bits_eq(data, &expected_vm(4, &x));
                    }
                    resp
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let shed = results
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    let ok = results
        .iter()
        .filter(|r| matches!(r, Response::Transformed { .. }))
        .count();
    assert!(
        shed >= 1,
        "queue_cap=2 with 12 clients must shed: {results:?}"
    );
    // At least the queue_cap jobs admitted before the burst filled the
    // queue are always served; how many more depends on whether the
    // worker frees a slot mid-burst, which is scheduler timing.
    assert!(ok >= 2, "the queue still serves: {results:?}");
    assert_eq!(shed + ok, clients, "every request answered explicitly");
    let mut client = daemon.client();
    // A lone request afterwards (depth 1) must not overwrite the peak.
    let x = sample_input(4, 99);
    match client.transform(4, None, &x).expect("transform") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(4, &x)),
        other => panic!("lone request answered {other:?}"),
    }
    let stats = match client.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert_eq!(daemon.counter(&stats, "spld.shed"), shed as u64);
    assert_eq!(daemon.counter(&stats, "spld.queue.peak_depth"), 2);
    drop(client);
    daemon.shut_down();
}

#[test]
fn workers_bound_concurrent_executions() {
    // Connection threads execute, but only `workers` of them at a time:
    // four requests that cannot batch, one slot, 30 ms each.
    let latency = Duration::from_millis(30);
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        chaos: Some(ChaosConfig {
            seed: 19,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency,
        }),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("bound", vm_only(config));
    let sizes = [4usize, 8, 16, 32];
    let barrier = Barrier::new(sizes.len());
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for n in sizes {
            let mut client = daemon.client();
            let barrier = &barrier;
            scope.spawn(move || {
                let x = sample_input(n, n as u64);
                let want = expected_vm(n, &x);
                barrier.wait();
                match client.transform(n, None, &x).expect("transform") {
                    Response::Transformed { data, .. } => assert_bits_eq(&data, &want),
                    other => panic!("size {n} answered {other:?}"),
                }
            });
        }
    });
    let wall = started.elapsed();
    assert!(
        wall >= latency * sizes.len() as u32,
        "four 30 ms executions through one slot took {wall:?}"
    );
    daemon.shut_down();
}

#[test]
fn no_reply_is_lost_when_owners_execute_each_others_jobs() {
    // With two slots and six owners a thread regularly executes an older
    // job than its own while a third thread answers that one: a wake-up
    // skipped on slot release parks its owner for ever — unless a later
    // push happens to wake it, so the clients send in rounds and a round's
    // last replies have no later push to rescue them; the injected delay
    // makes executions outlast the spread of a round's arrivals, so owners
    // do park. The body runs on a thread of its own so that this one can
    // give up on a hang.
    const CLIENTS: u64 = 6;
    const REQUESTS: usize = 300;
    const SIZES: [usize; 3] = [8, 16, 32];
    let (done, finished) = std::sync::mpsc::channel();
    let body = std::thread::spawn(move || {
        let config = ServerConfig {
            workers: 2,
            batch_max: 1,
            chaos: Some(ChaosConfig {
                seed: 23,
                p_kernel_fault: 0.0,
                p_latency: 1.0,
                latency: Duration::from_micros(200),
            }),
            ..ServerConfig::default()
        };
        let daemon = TestDaemon::start("wakeups", vm_only(config));
        let barrier = Barrier::new(CLIENTS as usize);
        std::thread::scope(|scope| {
            for salt in 0..CLIENTS {
                let mut client = daemon.client();
                let barrier = &barrier;
                scope.spawn(move || {
                    let cases = SIZES.map(|n| {
                        let x = sample_input(n, 200 + salt);
                        let want = expected_vm(n, &x);
                        (n, x, want)
                    });
                    for i in 0..REQUESTS {
                        barrier.wait();
                        let (n, x, want) = &cases[(i + salt as usize) % SIZES.len()];
                        match client.transform(*n, None, x).expect("transform") {
                            Response::Transformed { data, .. } => assert_bits_eq(&data, want),
                            other => panic!("client {salt} request {i} answered {other:?}"),
                        }
                    }
                });
            }
        });
        daemon.shut_down();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("a reply was lost: six clients still waiting after 60 s")
        }
        // Done, or the body panicked and dropped the sender: join says which.
        _ => body.join().expect("test body"),
    }
}

#[test]
fn deadlines_cancel_rather_than_serve_late() {
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        chaos: Some(ChaosConfig {
            seed: 11,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency: Duration::from_millis(60),
        }),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("deadline", vm_only(config));
    let mut client = daemon.client();
    let x = sample_input(8, 5);
    match client
        .transform(8, Some(Duration::from_millis(5)), &x)
        .expect("transform")
    {
        Response::DeadlineExceeded => {}
        other => panic!("5ms deadline under 60ms injected latency answered {other:?}"),
    }
    // Without a deadline the same request succeeds, bit-identical.
    match client.transform(8, None, &x).expect("transform") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(8, &x)),
        other => panic!("undeadlined request answered {other:?}"),
    }
    let stats = match client.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert!(daemon.counter(&stats, "spld.deadline.missed") >= 1);
    assert!(daemon.counter(&stats, "spld.chaos.latency_injected") >= 2);
    drop(client);
    daemon.shut_down();
}

#[test]
fn two_clients_on_one_looped_native_kernel_get_bitwise_vm_answers() {
    // Generated C keeps a looped kernel's temporaries in statics, and the
    // workers share one kernel per size: two requests for the same size
    // inside it at once used to corrupt each other (nearly half of these
    // replies came back wrong). Batching is off so that both workers take
    // the native tier, request after request, on the same kernel.
    const N: usize = 1024;
    const REQUESTS: usize = 400;
    let config = ServerConfig {
        workers: 2,
        batch_max: 1,
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("reentrant", config);
    // Promote the kernel first, so the race below is native against native.
    warm_native(&daemon, N);
    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        for salt in [71u64, 72] {
            let mut client = daemon.client();
            let barrier = &barrier;
            scope.spawn(move || {
                let x = sample_input(N, salt);
                let want = expected_vm(N, &x);
                barrier.wait();
                for _ in 0..REQUESTS {
                    match client.transform(N, None, &x).expect("transform") {
                        Response::Transformed { tier, data } => {
                            assert_eq!(tier, Tier::Native);
                            assert_bits_eq(&data, &want);
                        }
                        other => panic!("client {salt} answered {other:?}"),
                    }
                }
            });
        }
    });
    daemon.shut_down();
}

#[test]
fn batching_fuses_concurrent_same_size_requests() {
    let config = ServerConfig {
        workers: 1,
        batch_max: 8,
        batch_window: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("batch", vm_only(config));
    let clients = 6;
    let barrier = Arc::new(Barrier::new(clients));
    let tiers: Vec<Tier> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|salt| {
                let mut client = daemon.client();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let x = sample_input(8, 20 + salt as u64);
                    barrier.wait();
                    match client.transform(8, None, &x).expect("transform") {
                        Response::Transformed { tier, data } => {
                            // The batched path must stay bit-identical to
                            // the single-request VM answer.
                            assert_bits_eq(&data, &expected_vm(8, &x));
                            tier
                        }
                        other => panic!("batched client answered {other:?}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    assert!(
        tiers.contains(&Tier::BatchedVm),
        "no request was served from a batch: {tiers:?}"
    );
    let mut client = daemon.client();
    let stats = match client.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert!(
        daemon.counter(&stats, "spld.batch.multi") >= 1,
        "stats must show a multi-request dispatch:\n{stats}"
    );
    assert!(
        daemon.counter(&stats, "spld.batch.requests")
            > daemon.counter(&stats, "spld.batch.dispatches"),
        "batched dispatches must cover more requests than dispatches:\n{stats}"
    );
    drop(client);
    daemon.shut_down();
}

#[test]
fn drain_finishes_in_flight_work_before_stopping() {
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        chaos: Some(ChaosConfig {
            seed: 13,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency: Duration::from_millis(80),
        }),
        ..ServerConfig::default()
    };
    let mut daemon = TestDaemon::start("drain", vm_only(config));
    let x = sample_input(4, 31);
    let slow = {
        let mut client = daemon.client();
        let x = x.clone();
        std::thread::spawn(move || client.transform(4, None, &x).expect("transform"))
    };
    // Let the slow job get admitted, then drain concurrently.
    std::thread::sleep(Duration::from_millis(20));
    let mut drainer = daemon.client();
    let drained = drainer.drain().expect("drain");
    assert_eq!(drained, Response::Text("drained".into()));
    // The in-flight job was finished, not abandoned.
    match slow.join().expect("slow client") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(4, &x)),
        other => panic!("in-flight request answered {other:?}"),
    }
    daemon
        .handle
        .take()
        .expect("handle")
        .join()
        .expect("daemon thread");
    assert!(daemon.server.is_shut_down());
    assert!(!daemon.socket.exists(), "socket file removed on shutdown");
}

#[test]
fn malformed_frames_answered_and_daemon_survives() {
    let daemon = TestDaemon::start("malformed", vm_only(ServerConfig::default()));

    // A complete frame with a bad verb: typed error, connection lives.
    let mut client = daemon.client();
    client.send_raw_frame(&[b'Z', 1, 2, 3]).expect("send");
    match client.read_response().expect("reply") {
        Response::Error { class, .. } => assert_eq!(class, b'p'),
        other => panic!("bad verb answered {other:?}"),
    }
    match client.health().expect("health after bad verb") {
        Response::Text(_) => {}
        other => panic!("health answered {other:?}"),
    }

    // An oversized length prefix: answered once, then the connection is
    // closed (stream offset is unrecoverable).
    client
        .send_raw_bytes(&[0xff, 0xff, 0xff, 0xff])
        .expect("send");
    match client.read_response() {
        Ok(Response::Error { class, .. }) => assert_eq!(class, b'p'),
        Ok(other) => panic!("oversized length answered {other:?}"),
        Err(_) => {} // already closed: also acceptable
    }
    drop(client);

    // Seeded garbage corpus against the live daemon: framed garbage is
    // answered or the connection is dropped — the daemon never dies.
    let mut state = 0x0dd_ba11u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..40 {
        let mut garbage = daemon.client();
        let len = (next() % 48) as usize + 1;
        let mut payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
        if payload[0] == b'D' {
            // Fuzz must not accidentally speak a valid drain verb.
            payload[0] = b'!';
        }
        if garbage.send_raw_frame(&payload).is_ok() {
            let _ = garbage.read_response();
        }
    }
    // Torn frame: a length prefix promising more than is sent, then a
    // hard disconnect mid-frame.
    let mut torn = daemon.client();
    torn.send_raw_bytes(&[0, 0, 1, 0, b'T']).expect("send");
    drop(torn);

    // After all of it: a fresh client gets correct answers.
    let mut fresh = daemon.client();
    let x = sample_input(4, 77);
    match fresh.transform(4, None, &x).expect("transform") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(4, &x)),
        other => panic!("post-garbage transform answered {other:?}"),
    }
    let stats = match fresh.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert!(daemon.counter(&stats, "spld.protocol_errors") >= 2);
    drop(fresh);
    daemon.shut_down();
}

#[test]
fn reload_wisdom_makes_new_sizes_servable_live() {
    // A wisdom DB directory the daemon watches; empty at startup.
    let dir = std::env::temp_dir().join(format!("spld-it-wreload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let wdb = dir.join("wdb");
    let config = ServerConfig {
        wisdom_db: Some(wdb.clone()),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("wreload", vm_only(config));
    let mut client = daemon.client();

    // Size 12 is not a power of two and no wisdom covers it yet.
    match client
        .transform(12, None, &sample_input(12, 51))
        .expect("transform")
    {
        Response::Error { class, .. } => assert_eq!(class, b'u'),
        other => panic!("size 12 before reload answered {other:?}"),
    }

    // A concurrent searcher learns 12 = (ct 3 4) and records it into
    // the shared DB — exactly what `splsearch --wisdom-db` does.
    {
        let mut db = spl_search::WisdomDb::open(&wdb).expect("wisdom db");
        db.import_flat("12: (ct 3 4)\n", "fft/daemon-test")
            .expect("import");
    }

    // The W verb makes the new size servable without a restart.
    match client.reload_wisdom().expect("reload") {
        Response::Text(t) => assert_eq!(t, "wisdom reloaded sizes=1"),
        other => panic!("reload answered {other:?}"),
    }
    let x = sample_input(12, 52);
    match client.transform(12, None, &x).expect("transform") {
        Response::Transformed { data, .. } => {
            // Bit-identical to the same plan's VM program run locally.
            let store = PlanStore::new(PlanStoreOptions {
                native: false,
                ..Default::default()
            })
            .expect("local plan store");
            store.load_wisdom("12: (ct 3 4)\n").expect("wisdom");
            let plan = store.entry(12).expect("plan");
            let mut want = vec![0.0; plan.vm().n_out];
            plan.run_vm(&x, &mut want);
            assert_bits_eq(&data, &want);
        }
        other => panic!("size 12 after reload answered {other:?}"),
    }
    let stats = match client.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert_eq!(daemon.counter(&stats, "spld.wisdom.reloads"), 1);
    assert!(
        daemon.counter(&stats, "spld.wisdom.sizes") >= 1,
        "reload must load the new size:\n{stats}"
    );
    drop(client);
    daemon.shut_down();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_flight_disconnect_does_not_kill_the_daemon() {
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        chaos: Some(ChaosConfig {
            seed: 17,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency: Duration::from_millis(60),
        }),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("disconnect", vm_only(config));
    {
        let mut client = daemon.client();
        let x = sample_input(8, 41);
        // Fire the request, then vanish before the (delayed) reply.
        client
            .send_raw_frame(&spl_serve::protocol::encode_request(
                &spl_serve::Request::Transform {
                    kind: spl_serve::protocol::KIND_DFT,
                    n: 8,
                    deadline_ms: None,
                    data: x,
                },
            ))
            .expect("send");
    } // dropped: mid-flight disconnect
      // Give the worker time to finish and hit the dead socket.
    std::thread::sleep(Duration::from_millis(120));
    let mut fresh = daemon.client();
    let x = sample_input(8, 42);
    match fresh.transform(8, None, &x).expect("transform") {
        Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(8, &x)),
        other => panic!("post-disconnect transform answered {other:?}"),
    }
    let stats = match fresh.stats().expect("stats") {
        Response::Text(t) => t,
        other => panic!("stats answered {other:?}"),
    };
    assert!(
        daemon.counter(&stats, "spld.disconnects") >= 1,
        "the dropped reply must be counted:\n{stats}"
    );
    drop(fresh);
    daemon.shut_down();
}

/// Runs `cases` (size, salt) in order on one connection, holds every
/// reply to the local VM's bits and returns the tiers that answered. The
/// references come from one local store: a 2¹⁴ plan is not something to
/// compile per request.
fn serve_in_order(client: &mut Client<UnixStream>, cases: &[(usize, u64)]) -> Vec<Tier> {
    let store = PlanStore::new(PlanStoreOptions {
        native: false,
        ..Default::default()
    })
    .expect("local plan store");
    let mut tiers = Vec::new();
    for &(n, salt) in cases {
        let x = sample_input(n, salt);
        let plan = store.entry(n).expect("plan");
        let mut want = vec![0.0; plan.vm().n_out];
        plan.run_vm(&x, &mut want);
        match client.transform(n, None, &x).expect("transform") {
            Response::Transformed { tier, data } => {
                assert_bits_eq(&data, &want);
                tiers.push(tier);
            }
            other => panic!("size {n} salt {salt} answered {other:?}"),
        }
    }
    tiers
}

#[test]
fn one_connection_serves_mixed_sizes_out_of_the_same_two_buffers() {
    // A connection's buffers grow to its largest request and stay: what a
    // 2^14 request left behind its first 128 samples must not reach the
    // 2^6 reply after it, nor may a short request's leftovers reach a long
    // one. On the fresh native daemon the first pass is the interesting
    // one: each size is answered by the VM until the builder has promoted
    // its kernel, so replies switch tier mid-connection out of the same
    // two buffers, and every one must still be the VM's bits. The second
    // pass, on warm kernels, is native throughout; the VM-only daemon
    // reuses one execution state per size throughout.
    let cases: Vec<(usize, u64)> = [16384usize, 64, 16384, 1024, 16384, 64, 16384, 1024]
        .into_iter()
        .zip(300u64..)
        .collect();
    for native in [false, true] {
        let config = ServerConfig {
            native,
            ..ServerConfig::default()
        };
        let daemon = TestDaemon::start(if native { "mixed-native" } else { "mixed-vm" }, config);
        let mut client = daemon.client();
        if native {
            let cold = serve_in_order(&mut client, &cases);
            assert_eq!(cold[0], Tier::Vm, "no request waits for cc: {cold:?}");
            for n in [64, 1024, 16384] {
                warm_native(&daemon, n);
            }
        }
        let tiers = serve_in_order(&mut client, &cases);
        let want = if native { Tier::Native } else { Tier::Vm };
        assert!(
            tiers.iter().all(|&t| t == want),
            "{want:?} daemon: {tiers:?}"
        );
        drop(client);
        daemon.shut_down();
    }
}

#[test]
fn buffers_return_to_the_connection_that_owns_them() {
    // One slot, three owners, a delay that outlasts a round's arrivals:
    // every round two owners are parked behind the executing one and race
    // for the front job when it finishes, so about every other round an
    // owner executes a job that is not its own, out of and into buffers
    // that are not its own. (Two owners would not do: the one woken is the
    // one whose job is in front.) Each connection asks for its own sizes
    // with its own inputs: a buffer that came back to the wrong owner is a
    // reply of the wrong length or with another request's bits.
    const ROUNDS: usize = 200;
    const SIZES: [[usize; 2]; 3] = [[8, 64], [16, 128], [32, 4]];
    let config = ServerConfig {
        workers: 1,
        batch_max: 1,
        chaos: Some(ChaosConfig {
            seed: 29,
            p_kernel_fault: 0.0,
            p_latency: 1.0,
            latency: Duration::from_micros(300),
        }),
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("owners", vm_only(config));
    let barrier = Barrier::new(SIZES.len());
    std::thread::scope(|scope| {
        for (who, sizes) in SIZES.into_iter().enumerate() {
            let mut client = daemon.client();
            let barrier = &barrier;
            scope.spawn(move || {
                let cases: Vec<_> = (0..6u64)
                    .map(|k| {
                        let n = sizes[k as usize % 2];
                        let x = sample_input(n, 400 + 10 * who as u64 + k);
                        let want = expected_vm(n, &x);
                        (n, x, want)
                    })
                    .collect();
                for round in 0..ROUNDS {
                    barrier.wait();
                    let (n, x, want) = &cases[round % cases.len()];
                    match client.transform(*n, None, x).expect("transform") {
                        Response::Transformed { data, .. } => assert_bits_eq(&data, want),
                        other => panic!("connection {who} round {round} answered {other:?}"),
                    }
                }
            });
        }
    });
    daemon.shut_down();
}

#[test]
fn a_refused_frame_leaves_the_connection_serving() {
    // The daemon reads a transform's samples before it judges the frame:
    // a refusal must still consume exactly the frame, whatever its size.
    let config = ServerConfig {
        max_size: 1024,
        ..ServerConfig::default()
    };
    let daemon = TestDaemon::start("refused", vm_only(config));
    let mut client = daemon.client();
    let transform = |kind: u8, n: usize, samples: usize| {
        let mut payload = vec![b'T', kind];
        payload.extend_from_slice(&(n as u64).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend(
            sample_input(samples, 7)
                .iter()
                .flat_map(|v| v.to_le_bytes()),
        );
        payload
    };
    let refusals: [(&str, Vec<u8>, u8); 5] = [
        ("bad kind, a 2^14 body", transform(b'Q', 16384, 16384), b'p'),
        ("a sample short", transform(b'F', 64, 63), b'p'),
        ("a sample long", transform(b'F', 64, 65), b'p'),
        ("n = 0 with a body", transform(b'F', 0, 8), b'p'),
        // Well-formed, but beyond this daemon's `max_size`: the frame is
        // read into the connection's buffer, refused, the buffer let go.
        ("beyond max_size", transform(b'F', 4096, 4096), b'u'),
    ];
    for (salt, (what, payload, want_class)) in refusals.into_iter().enumerate() {
        client.send_raw_frame(&payload).expect("send");
        match client.read_response().expect("reply") {
            Response::Error { class, .. } => assert_eq!(class, want_class, "{what}"),
            other => panic!("{what} answered {other:?}"),
        }
        let x = sample_input(64, 500 + salt as u64);
        match client.transform(64, None, &x).expect("transform") {
            Response::Transformed { data, .. } => assert_bits_eq(&data, &expected_vm(64, &x)),
            other => panic!("after {what}: {other:?}"),
        }
    }
    drop(client);
    daemon.shut_down();
}
