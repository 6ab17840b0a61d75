//! Running external commands under a wall-clock timeout.
//!
//! A hung host compiler must not wedge a search that has thousands of
//! candidates left; the runner here polls the child and kills it when
//! the budget expires, draining stdout/stderr on threads so a chatty
//! child cannot deadlock on a full pipe either.

use std::io::Read;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Why a command run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandError {
    /// The process could not be spawned at all.
    Spawn(String),
    /// The process ran past the timeout and was killed.
    TimedOut {
        /// The budget that was exceeded.
        timeout: Duration,
    },
    /// Waiting on the process failed.
    Wait(String),
    /// The caller called the run off and the process was killed.
    CalledOff,
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::Spawn(e) => write!(f, "spawning command: {e}"),
            CommandError::TimedOut { timeout } => {
                write!(f, "command timed out after {:.1}s", timeout.as_secs_f64())
            }
            CommandError::Wait(e) => write!(f, "waiting on command: {e}"),
            CommandError::CalledOff => write!(f, "command called off by its caller"),
        }
    }
}

impl std::error::Error for CommandError {}

/// A finished command: exit status plus captured output.
#[derive(Debug)]
pub struct CommandOutput {
    /// The child's exit status.
    pub status: ExitStatus,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
}

fn drain(mut r: impl Read + Send + 'static) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = r.read_to_end(&mut buf);
        buf
    })
}

/// Runs `cmd` to completion with stdout/stderr captured, killing it if
/// it exceeds `timeout`.
///
/// # Errors
///
/// [`CommandError::Spawn`] when the binary cannot be started,
/// [`CommandError::TimedOut`] when the budget expires (the child is
/// killed and reaped first).
pub fn run_command_with_timeout(
    cmd: &mut Command,
    timeout: Duration,
) -> Result<CommandOutput, CommandError> {
    run_command_unless(cmd, timeout, &AtomicBool::new(false))
}

/// Stops a child spawned by [`run_command_unless`] and everything it
/// started, and reaps it. The child leads a process group of its own, so
/// the signals reach the whole tree (`cc` is a driver: the work is in
/// its `cc1`/`as`/`ld` children, which outlive a driver killed alone).
/// `SIGTERM` first, so that a driver which cleans up after itself does
/// (gcc removes its `cc*.s`/`.o` temporaries); `SIGKILL` for whatever is
/// still there a moment later.
#[cfg(unix)]
fn stop(child: &mut Child) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    const SIGKILL: i32 = 9;
    const GRACE: Duration = Duration::from_millis(200);
    let Ok(group) = i32::try_from(child.id()) else {
        let _ = child.kill();
        let _ = child.wait();
        return;
    };
    // SAFETY: `kill` takes two integers and touches no memory of ours.
    // `-group` names the process group the child was spawned to lead
    // (`process_group(0)` below); the child is not reaped yet, so its
    // pid, and with it the group id, cannot have been reused.
    unsafe { kill(-group, SIGTERM) };
    let patience = Instant::now() + GRACE;
    while matches!(child.try_wait(), Ok(None)) && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(2));
    }
    // SAFETY: as above; the leader is reaped only after this (`wait`
    // below, or the `try_wait` that just saw it exit — then its group id
    // is held by the members still alive, or by nobody and this fails).
    unsafe { kill(-group, SIGKILL) };
    let _ = child.wait();
}

#[cfg(not(unix))]
fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// [`run_command_with_timeout`] that another thread can call off: once
/// `called_off` reads true the child and everything it started are
/// stopped and reaped, as on a timeout (and a command not yet started
/// is not started).
///
/// # Errors
///
/// As [`run_command_with_timeout`], plus [`CommandError::CalledOff`].
pub fn run_command_unless(
    cmd: &mut Command,
    timeout: Duration,
    called_off: &AtomicBool,
) -> Result<CommandOutput, CommandError> {
    // SeqCst here and below: the flag is set once, by a thread that then
    // waits for this one, and nothing is gained by anything weaker.
    if called_off.load(Ordering::SeqCst) {
        return Err(CommandError::CalledOff);
    }
    #[cfg(unix)]
    std::os::unix::process::CommandExt::process_group(cmd, 0);
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| CommandError::Spawn(e.to_string()))?;
    let out_h = child.stdout.take().map(drain);
    let err_h = child.stderr.take().map(drain);
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                let called_off = called_off.load(Ordering::SeqCst);
                if called_off || Instant::now() >= deadline {
                    stop(&mut child);
                    // Do NOT join the drain threads here: a descendant
                    // that left the group may still hold the pipe open,
                    // and the output of a killed command is unwanted
                    // anyway. Dropping the handles detaches the
                    // drainers; they exit on EOF.
                    drop(out_h);
                    drop(err_h);
                    return Err(if called_off {
                        CommandError::CalledOff
                    } else {
                        CommandError::TimedOut { timeout }
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                stop(&mut child);
                return Err(CommandError::Wait(e.to_string()));
            }
        }
    };
    let stdout = out_h
        .map(|h| h.join().unwrap_or_default())
        .unwrap_or_default();
    let stderr = err_h
        .map(|h| h.join().unwrap_or_default())
        .unwrap_or_default();
    Ok(CommandOutput {
        status,
        stdout,
        stderr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_of_quick_command() {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("echo out; echo err >&2");
        let out = run_command_with_timeout(&mut cmd, Duration::from_secs(10)).unwrap();
        assert!(out.status.success());
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "out");
        assert_eq!(String::from_utf8_lossy(&out.stderr).trim(), "err");
    }

    #[test]
    fn reports_nonzero_exit() {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("exit 3");
        let out = run_command_with_timeout(&mut cmd, Duration::from_secs(10)).unwrap();
        assert!(!out.status.success());
    }

    #[test]
    fn kills_hung_command() {
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("sleep 30");
        let start = Instant::now();
        let err = run_command_with_timeout(&mut cmd, Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, CommandError::TimedOut { .. }));
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_called_off_command_is_killed_at_once() {
        let called_off = AtomicBool::new(false);
        let start = Instant::now();
        let err = std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("sleep 30");
                run_command_unless(&mut cmd, Duration::from_secs(60), &called_off)
            });
            std::thread::sleep(Duration::from_millis(50));
            called_off.store(true, Ordering::SeqCst);
            run.join().expect("runner thread").unwrap_err()
        });
        assert_eq!(err, CommandError::CalledOff);
        assert!(start.elapsed() < Duration::from_secs(10));
        // And once called off, nothing is started.
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg("exit 0");
        let err = run_command_unless(&mut cmd, Duration::from_secs(1), &called_off).unwrap_err();
        assert_eq!(err, CommandError::CalledOff);
    }

    #[cfg(unix)]
    #[test]
    fn a_killed_command_takes_its_children_with_it() {
        // The shell's child would write the file half a second from now.
        let marker =
            std::env::temp_dir().join(format!("spl_command_orphan_{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!(
            "(sleep 0.5; echo late > {}) & wait",
            marker.display()
        ));
        let err = run_command_with_timeout(&mut cmd, Duration::from_millis(100)).unwrap_err();
        assert!(matches!(err, CommandError::TimedOut { .. }));
        std::thread::sleep(Duration::from_millis(1000));
        assert!(!marker.exists(), "a grandchild outlived the kill");
    }

    #[test]
    fn missing_binary_is_spawn_error() {
        let mut cmd = Command::new("/nonexistent/definitely-not-a-binary");
        let err = run_command_with_timeout(&mut cmd, Duration::from_secs(1)).unwrap_err();
        assert!(matches!(err, CommandError::Spawn(_)));
    }
}
