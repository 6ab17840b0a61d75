//! A long-lived daemon must not grow with the number of connections it
//! has *ever* accepted. A finished connection thread whose `JoinHandle`
//! is still held keeps its stack mapped (~2 MiB of address space and
//! two mappings each), so an accept loop that only joins at shutdown
//! meets `vm.max_map_count` after a few tens of thousands of clients.
//!
//! The measurement is the process's own `VmSize`, which every thread of
//! the test binary shares: hence a file (a process) of its own.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::Duration;

use spl_serve::{Client, Response, Server, ServerConfig};

/// Default stack of a `std::thread::spawn` thread.
const STACK_MIB: u64 = 2;
const CYCLES: u64 = 300;

fn vm_size_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmSize:"))
        .expect("VmSize line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmSize value in kB");
    kib / 1024
}

#[test]
fn finished_connections_do_not_accumulate_stacks() {
    let dir = std::env::temp_dir().join(format!("spld-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    let socket = dir.join("sock");
    let server = Server::new(ServerConfig {
        native: false,
        ..ServerConfig::default()
    })
    .expect("server");
    let daemon = {
        let (server, socket) = (Arc::clone(&server), socket.clone());
        std::thread::spawn(move || server.serve_unix(&socket).expect("serve_unix"))
    };
    for _ in 0..400 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    let cycle = || {
        let mut client = Client::connect_unix(&socket).expect("connect");
        match client.health().expect("health") {
            Response::Text(_) => {}
            other => panic!("health answered {other:?}"),
        }
    };
    // What the first connections allocate for good (the allocator's
    // per-thread arena, the stack cache) belongs to the baseline.
    for _ in 0..10 {
        cycle();
    }
    let before = vm_size_mib();
    for _ in 0..CYCLES {
        cycle();
    }
    let grown = vm_size_mib().saturating_sub(before);

    server.stop();
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);

    let kept_every_stack = CYCLES * STACK_MIB;
    assert!(
        grown < kept_every_stack / 4,
        "VmSize grew {grown} MiB over {CYCLES} connect/disconnect cycles; \
         keeping every finished thread's stack would be {kept_every_stack} MiB"
    );
}
