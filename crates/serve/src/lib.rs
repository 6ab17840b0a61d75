#![warn(missing_docs)]

//! `spl-serve`: a fault-tolerant transform-serving daemon.
//!
//! The paper's end state is a library wrapper that answers `y = Mx`
//! from generated code; this crate grows that into `spld`, a resident
//! service that keeps wisdom, resolved [`spl_vm`] programs, and
//! natively compiled kernels hot across many concurrent clients — and
//! treats robustness as the design center rather than an afterthought.
//! A one-shot CLI can crash and be re-run; a daemon must survive slow
//! clients, poisoned kernels, `cc` outages, and `SIGKILL` without ever
//! serving a wrong answer.
//!
//! The pieces:
//!
//! * [`protocol`] — the length-prefixed binary frame format, request /
//!   response types, and typed [`protocol::ProtocolError`]s (malformed
//!   frames are answered or dropped, never panics).
//! * [`plans`] — the warm plan store: per-size VM programs, native
//!   kernels through the shared on-disk cache (the one store spld
//!   writes, which makes a `kill -9` restart reload kernels without
//!   `cc`), and the `native → VM → reject` degradation chain with
//!   quarantine. A request is answered by a trusted kernel or by the VM,
//!   nothing else.
//! * [`server`] — admission with a bounded queue and explicit
//!   `OVERLOADED` shedding, per-request deadlines with cancellation,
//!   one execution per request (no batching), `health`/`stats`/`drain`
//!   control verbs, and
//!   Unix-socket / stdio transports.
//! * [`chaos`] — seeded, deterministic fault injection (kernel faults,
//!   artificial latency) for the soak harness.
//! * [`client`] — the blocking client the CLI, tests, and soak use.
//!
//! Telemetry counters all live under `spld.*` (queue depth, sheds,
//! deadline misses, degradations, serving tiers, latency percentiles)
//! and are served over the `stats` verb in the standard `--stats`
//! table format, so scripts can grep them.

pub mod chaos;
pub mod client;
pub mod plans;
pub mod protocol;
pub mod server;

pub use chaos::{ChaosConfig, ChaosInjector};
pub use client::Client;
pub use plans::{PlanEntry, PlanStore, PlanStoreOptions, ServeError};
pub use protocol::{ProtocolError, Request, Response, Tier};
pub use server::{Server, ServerConfig};
