//! Simulation-as-a-service front-end over the `ca-sim` session layer.
//!
//! A hand-rolled HTTP/1.1 daemon on `std::net` — the container is
//! offline, so no tokio/hyper; the protocol layer is vendored in the
//! same spirit as `crates/shims`. The server accepts JSON jobs
//! carrying either an OpenQASM 3 circuit (via [`ca_circuit::parse`])
//! or the native instruction schema, and executes them through
//! per-tenant [`ca_sim::Session`]s so each tenant gets its own
//! verified LRU plan cache.
//!
//! Operational contract:
//!
//! * **Fixed thread pool** — one acceptor plus `workers` handler
//!   threads draining a bounded connection queue
//!   (`Mutex<VecDeque> + Condvar`). When the queue is full the
//!   acceptor answers `429 Too Many Requests` immediately
//!   (backpressure, never unbounded buffering).
//! * **Admission** — per-tenant token buckets denominated in *shots*
//!   ([`quota`]): a job is admitted only if the tenant's bucket
//!   covers its shot count, otherwise `429` with a `Retry-After`
//!   hint. Oversized jobs and bodies are rejected up front
//!   (`400`/`413`).
//! * **Deadlines & cancellation** — a job's `deadline_ms` arms a
//!   [`ca_sim::CancelToken`] through [`ca_sim::session::Job::with_deadline`];
//!   expiry surfaces as `408` with a structured error, and the worker
//!   is freed at the next shot-chunk boundary rather than pinned.
//! * **Streaming** — large count maps stream back with
//!   `Transfer-Encoding: chunked` so a 127-qubit result never
//!   materialises twice in memory.
//! * **Determinism** — results are produced by the session layer and
//!   inherit its bit-identity guarantees; the server adds no RNG and
//!   reads the clock only through `ca_obs::monotonic_ns`.
//!
//! `GET /stats` surfaces per-tenant [`ca_sim::session::CacheStats`]
//! plus the `ca-obs` counters/histograms, `GET /healthz` is a
//! liveness probe, and `POST /v1/jobs` runs a job. The `ca-serverd`
//! bin wires this up behind a CLI; the `serve_mix8` workload of the
//! end-to-end benchmark (`e2ebench/`) drives it with closed-loop
//! clients.

#![forbid(unsafe_code)]

pub mod http;
pub mod quota;
pub mod schema;
pub mod server;

pub use quota::{Admission, QuotaConfig, QuotaRegistry};
pub use schema::{parse_job, JobRequest, SchemaError};
pub use server::{Server, ServerConfig, ServerHandle};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning: a handler that panicked
/// while holding a server lock must not take the whole daemon down,
/// and every structure guarded here (connection queue, session map,
/// quota buckets) stays internally consistent across unwinds.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
