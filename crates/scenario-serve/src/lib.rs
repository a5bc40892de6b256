//! The resident scenario service: graph catalog + worker pool +
//! line-oriented submit protocol.
//!
//! The paper's value is answering *what-if* reliability questions —
//! replication fraction vs App_FIT target vs makespan — and every
//! question pays the graph build (`bench/`'s `graph.build_s` layer)
//! even when thousands of queries share one topology. This crate keeps
//! the simulator resident so that cost is paid once per topology:
//!
//! * [`GraphCatalog`] — immutable [`cluster_sim::SimGraph`]s behind
//!   `Arc`, keyed by [`scenario::ScenarioSpec::graph_key`] (the
//!   canonical render of everything `build_graph` reads), built once
//!   under a striped lock and LRU-capped.
//! * [`WorkerPool`] — a mailbox-per-worker execution pool (std
//!   primitives only) running scenario cells concurrently.
//! * [`Service`] — ties the two together: submit a spec (optionally
//!   `[sweep]`-bearing), get every cell's [`RunResult`] back in
//!   canonical expansion order.
//! * [`proto`] / [`server`] / [`client`] — the `scenario-serve/v2`
//!   line protocol over a Unix socket or stdio, `repro serve` being
//!   the CLI entry.
//!
//! The service is hardened against misbehaving peers and its own
//! demise:
//!
//! * [`Admission`] — a bounded admission gate in front of the pool:
//!   full queues reject submits with typed `busy` errors and a
//!   retry-after hint instead of queueing unboundedly.
//! * Deadlines — a per-submit deadline cancels not-yet-started cells
//!   with typed `deadline-exceeded` errors; server-side write
//!   timeouts disconnect stalled readers so one slow client cannot
//!   wedge pool workers.
//! * [`RetryingClient`] — reconnect + resubmit with exponential
//!   backoff, seeded jitter, and a retry budget, honoring
//!   `busy`/retry-after; grid tokens make retries idempotent.
//! * [`Journal`] — per-token completion journals: a resubmitted grid
//!   token replays completed cells byte-identically and runs only the
//!   rest, so a killed-and-restarted server resumes a sweep.
//! * [`chaos`] — seeded, replayable fault injection (torn frames,
//!   truncated reads, disconnects, stalls, worker panics, delayed
//!   accepts) backing the chaos test suite and verify gate.
//!
//! The determinism contract extends unchanged: a run submitted to the
//! service is bit-identical (report, App_FIT trajectory, decision and
//! recovery streams) to `scenario::run` of the same spec, regardless
//! of worker count, catalog hit/miss, or interleaving with other runs.
//! Engines are pure functions of `(graph, config)`; the catalog only
//! ever returns a value-identical graph; and worker scheduling decides
//! *when* a cell runs, never *what* it computes. Faults narrow the
//! contract to an either/or, never a maybe: each submitted cell either
//! completes bit-identical to the direct run or yields exactly one
//! typed error.

#![deny(missing_docs)]

pub mod admission;
pub mod catalog;
pub mod chaos;
pub mod client;
pub mod journal;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;

pub use admission::{Admission, AdmissionConfig, AdmissionStats, Busy};
pub use catalog::{CatalogConfig, CatalogStats, GraphCatalog};
pub use chaos::{ChaosPlan, ChaosRng};
pub use client::{CellReply, Client, ClientError, RetryPolicy};
#[cfg(unix)]
pub use client::{RetryingClient, UnixClient};
pub use journal::{GridHeader, GridJournal, Journal, JournalEntry};
pub use pool::{CancelToken, WorkerPool};
pub use proto::{
    AppFitSummary, ErrorKind, Request, Response, RunSummary, SubmitOptions, GREETING, GREETING_V1,
};
#[cfg(unix)]
pub use server::serve_unix_with;
pub use server::{serve_connection, serve_stdio, serve_unix, ServeExit, ServerOptions};
pub use service::{
    CellError, RunOptions, RunResult, Service, ServiceConfig, ServiceStats, SubmitError,
};
