#![warn(missing_docs)]

//! Fault-tolerance primitives for long-running SPL searches.
//!
//! The paper's evaluation (Section 4) rests on timing searches over
//! thousands of generated candidates — exactly the workload where one
//! miscompiled kernel, hung `cc` invocation, or process crash would
//! otherwise lose hours of work. This crate provides the substrate the
//! search and native-execution layers build their resilience on:
//!
//! * [`sealed`] — self-checking files (a length + CRC-32 trailer)
//!   renamed into place, so processes share a directory of them with no
//!   log and no lock: the kernel cache's objects and the wisdom DB's
//!   entries (FFTW-style saved plans, so a killed search resumes from
//!   the last completed size).
//! * [`retry`] — a bounded retry budget with exponential backoff for
//!   flaky external steps (spawning the host C compiler).
//! * [`command`] — running external commands under a wall-clock timeout,
//!   so a hung `cc` is killed and reported instead of wedging the search.
//! * [`sandbox`] — executing untrusted generated code in a forked child
//!   process, so a SIGSEGV or infinite loop in a candidate kernel is
//!   contained and classified (`Crashed` / `TimedOut`) rather than taking
//!   the whole search down.
//!
//! Everything is dependency-free; the process plumbing uses the same
//! direct `extern "C"` bindings the `spl-native` crate already uses for
//! `dlopen`.

pub mod command;
pub mod crc32;
pub mod retry;
pub mod sandbox;
pub mod sealed;

pub use command::{run_command_unless, run_command_with_timeout, CommandError};
pub use retry::RetryPolicy;
pub use sandbox::{run_isolated, SandboxError};
