//! Cold start: no request waits for the C compiler. The real `spld`
//! binary runs with a fake `cc` first on its `PATH` — one that passes
//! `--version` straight through and otherwise does what a `mode` file
//! says: `block` (wait), `pass` (become the real `cc`) or `fail`
//! (exit 1; also once the file is gone) — so the tests decide when, and
//! whether, a kernel gets built, and watch what the daemon answers
//! meanwhile.

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

use spl::serve::plans::{PlanStore, PlanStoreOptions};
use spl::serve::{Client, Response, Tier};

const PATIENCE: Duration = Duration::from_secs(120);

/// A `spld` child whose `cc` the test controls. Everything it and its
/// compiler write — socket, state, temporary `.c`/`.so` files — lives in
/// `dir`, which goes when this does.
struct Daemon {
    child: Child,
    dir: PathBuf,
    reference: PlanStore,
}

impl Daemon {
    fn spawn(name: &str, mode: &str) -> Daemon {
        let dir = std::env::temp_dir().join(format!("spld-cold-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bin = dir.join("bin");
        std::fs::create_dir_all(&bin).expect("test dir");
        let path = std::env::var("PATH").expect("PATH");
        let real_cc = std::env::split_paths(&path)
            .map(|p| p.join("cc"))
            .find(|p| p.is_file())
            .expect("a cc on PATH");
        let script = format!(
            "#!/bin/sh\n\
             [ \"$1\" = --version ] && exec {cc} --version\n\
             while :; do\n\
             \x20 case $(cat {mode} 2>/dev/null || echo fail) in\n\
             \x20   pass) exec {cc} \"$@\" ;;\n\
             \x20   fail) exit 1 ;;\n\
             \x20 esac\n\
             \x20 sleep 0.02\n\
             done\n",
            cc = real_cc.display(),
            mode = dir.join("mode").display(),
        );
        std::fs::write(bin.join("cc"), script).expect("fake cc");
        std::fs::set_permissions(bin.join("cc"), std::fs::Permissions::from_mode(0o755))
            .expect("chmod fake cc");
        std::fs::write(dir.join("mode"), mode).expect("mode file");
        let child = Command::new(env!("CARGO_BIN_EXE_spld"))
            .arg("--socket")
            .arg(dir.join("sock"))
            .arg("--state-dir")
            .arg(dir.join("state"))
            .env("PATH", format!("{}:{path}", bin.display()))
            .env("TMPDIR", &dir)
            .spawn()
            .expect("spawn spld");
        let daemon = Daemon {
            child,
            dir,
            reference: PlanStore::new(PlanStoreOptions {
                native: false,
                ..Default::default()
            })
            .expect("reference store"),
        };
        let deadline = Instant::now() + PATIENCE;
        while !daemon.dir.join("sock").exists() {
            assert!(Instant::now() < deadline, "spld never bound its socket");
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon
    }

    /// What the fake `cc` does from now on, running invocations included.
    fn set_cc(&self, mode: &str) {
        let staged = self.dir.join("mode.new");
        std::fs::write(&staged, mode).expect("mode file");
        std::fs::rename(staged, self.dir.join("mode")).expect("mode file");
    }

    fn client(&self) -> Client<UnixStream> {
        let socket = self.dir.join("sock");
        for _ in 0..200 {
            if let Ok(c) = Client::connect_unix(&socket) {
                return c;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("could not connect to {socket:?}");
    }

    /// One request for size `n`: the reply must be the local VM's bits,
    /// whichever tier it names.
    fn transform(&self, n: usize, salt: u64) -> Tier {
        let x: Vec<f64> = (0..2 * n as u64)
            .map(|i| ((i * 37 + salt * 101) % 97) as f64 * 0.25 - 12.0)
            .collect();
        let plan = self.reference.entry(n).expect("reference plan");
        let mut want = vec![0.0; plan.vm().n_out];
        plan.run_vm(&x, &mut want);
        match self.client().transform(n, None, &x).expect("transform") {
            Response::Transformed { tier, data } => {
                assert!(
                    data.len() == want.len()
                        && data
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "size {n}: the {tier:?} reply is not the VM's bits"
                );
                tier
            }
            other => panic!("size {n} answered {other:?}"),
        }
    }

    fn stats(&self) -> String {
        match self.client().stats().expect("stats") {
            Response::Text(t) => t,
            other => panic!("stats answered {other:?}"),
        }
    }

    fn counter(&self, key: &str) -> u64 {
        self.stats()
            .lines()
            .find_map(|line| {
                let mut it = line.split_whitespace();
                (it.next() == Some(key)).then(|| it.next()?.parse().ok())?
            })
            .unwrap_or(0)
    }

    /// Polls `ready` until it holds.
    fn wait(&self, what: &str, mut ready: impl FnMut(&Daemon) -> bool) {
        let deadline = Instant::now() + PATIENCE;
        while !ready(self) {
            assert!(
                Instant::now() < deadline,
                "{what} never happened:\n{}",
                self.stats()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Drains; the process must be gone within `within`.
    fn drain_and_wait(&mut self, within: Duration) {
        match self.client().drain().expect("drain") {
            Response::Text(t) => assert_eq!(t, "drained"),
            other => panic!("drain answered {other:?}"),
        }
        let deadline = Instant::now() + within;
        loop {
            if let Some(status) = self.child.try_wait().expect("wait") {
                assert!(status.success(), "spld exited {status:?} after drain");
                return;
            }
            assert!(Instant::now() < deadline, "spld outlived its drain");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // A fake cc the daemon left behind goes when its mode file does.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn is_free_of_temporaries(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .expect("test dir")
        .filter_map(Result::ok)
        .all(|e| !e.file_name().to_string_lossy().starts_with("spl_native_"))
}

#[test]
fn cold_sizes_are_served_by_the_vm_while_cc_is_blocked() {
    let mut daemon = Daemon::spawn("blocked", "pass");
    // A warm size to hold the cold ones against.
    assert_eq!(daemon.transform(4, 1), Tier::Vm, "the very first reply");
    daemon.wait("size 4 on its kernel", |d| {
        d.transform(4, 2) == Tier::Native
    });

    daemon.set_cc("block");
    assert_eq!(daemon.transform(8, 3), Tier::Vm);
    assert_eq!(daemon.transform(16, 4), Tier::Vm);
    assert_eq!(daemon.counter("spld.native.builds_queued"), 3);
    assert_eq!(daemon.counter("spld.native.builds_finished"), 1);
    // The builder is inside a cc that will not return; the request path
    // neither waits for it nor loses the kernels it has.
    let asked = Instant::now();
    assert_eq!(daemon.transform(4, 5), Tier::Native);
    assert_eq!(daemon.transform(8, 6), Tier::Vm);
    assert!(
        asked.elapsed() < Duration::from_secs(10),
        "requests waited on the blocked build: {:?}",
        asked.elapsed()
    );

    daemon.set_cc("pass");
    daemon.wait("size 8 on its kernel", |d| {
        d.transform(8, 7) == Tier::Native
    });
    daemon.wait("size 16 on its kernel", |d| {
        d.transform(16, 8) == Tier::Native
    });
    daemon.wait("every build finished", |d| {
        d.counter("spld.native.builds_finished") == 3
    });
    assert_eq!(
        daemon.counter("native.cc_invocations"),
        3,
        "one cc per plan"
    );
    assert_eq!(daemon.counter("spld.native.promoted"), 3);
    assert_eq!(daemon.counter("spld.native.compile_failures"), 0);
    daemon.drain_and_wait(PATIENCE);
    assert!(is_free_of_temporaries(&daemon.dir));
}

#[test]
fn a_failing_cc_leaves_the_size_on_the_vm() {
    let mut daemon = Daemon::spawn("failing", "fail");
    assert_eq!(daemon.transform(8, 1), Tier::Vm);
    daemon.wait("the failed build to finish", |d| {
        d.counter("spld.native.builds_finished") == 1
    });
    assert_eq!(daemon.counter("spld.native.compile_failures"), 1);
    assert_eq!(daemon.counter("spld.native.promoted"), 0);
    // Forever: nothing retries the build, nothing but the VM answers.
    for salt in 2..6 {
        assert_eq!(daemon.transform(8, salt), Tier::Vm);
    }
    assert_eq!(daemon.counter("spld.native.builds_queued"), 1);
    assert_eq!(daemon.counter("spld.tier.vm"), 5);
    daemon.drain_and_wait(PATIENCE);
}

#[test]
fn drain_does_not_wait_for_a_build() {
    let mut daemon = Daemon::spawn("drain", "block");
    assert_eq!(daemon.transform(8, 1), Tier::Vm);
    assert_eq!(daemon.transform(16, 2), Tier::Vm);
    assert_eq!(daemon.counter("spld.native.builds_queued"), 2);
    assert_eq!(daemon.counter("spld.native.builds_finished"), 0);
    // One build is inside a cc that never returns, one is queued behind
    // it: the drain kills the first, drops the second, and takes the
    // killed build's `.c`/`.so` pair with it.
    daemon.drain_and_wait(Duration::from_secs(20));
    assert!(is_free_of_temporaries(&daemon.dir));
}
