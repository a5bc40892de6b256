//! The service proper: expand a spec into cells, fan the cells across
//! the worker pool against catalog-shared graphs, and hand results
//! back in canonical expansion order.
//!
//! This layer also owns the service's robustness machinery:
//!
//! - **Admission** — every submit passes the bounded [`Admission`]
//!   gate before any cell reaches a mailbox; full queues reject with
//!   [`Busy`] instead of queueing unboundedly.
//! - **Windowed dispatch** — at most [`AdmissionConfig::conn_window`]
//!   of one submit's cells sit in pool mailboxes at a time, so a
//!   single connection cannot monopolize the pool and the in-order
//!   result buffer stays bounded.
//! - **Deadlines** — an expired [`RunOptions::deadline`] cancels every
//!   not-yet-started cell; each answers a typed
//!   [`ErrorKind::DeadlineExceeded`] error instead of running. Cells
//!   already executing always finish (determinism forbids reaching
//!   into a run).
//! - **Panic containment** — a panicking cell (real bug or injected
//!   chaos) becomes a typed [`ErrorKind::CellFailed`] error for that
//!   cell alone; siblings and the pool are unaffected.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use scenario::{record_on_with, run_on, ScenarioSpec, TraceOptions};

use crate::admission::{Admission, AdmissionConfig, AdmissionStats, Busy};
use crate::catalog::{CatalogConfig, CatalogStats, GraphCatalog};
use crate::pool::{CancelToken, WorkerPool};
use crate::proto::ErrorKind;

/// Service sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads running scenario cells.
    pub workers: usize,
    /// Graph catalog sizing.
    pub catalog: CatalogConfig,
    /// Admission queue sizing and back-off hinting.
    pub admission: AdmissionConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            catalog: CatalogConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// `Some` records a [`scenario::Trace`] per cell (with the given
    /// timing/recovery streams); `None` skips recording entirely —
    /// the sweep driver's fast path.
    pub trace: Option<TraceOptions>,
    /// End-to-end deadline: cells that cannot start before this
    /// instant answer a typed `deadline-exceeded` error instead of
    /// running. `None` never expires.
    pub deadline: Option<Instant>,
}

/// One finished cell.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The expanded cell spec that ran (sweep-free).
    pub spec: ScenarioSpec,
    /// The run's outcome, bit-identical to `scenario::run(&spec)`.
    pub outcome: scenario::Outcome,
    /// The recorded trace when [`RunOptions::trace`] was set.
    pub trace: Option<scenario::Trace>,
    /// Wall-clock run time of this cell (excludes any graph build).
    pub wall: Duration,
}

/// A typed per-cell failure: the cell answered this instead of a
/// [`RunResult`]; sibling cells are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Machine-readable classification (maps straight onto the
    /// protocol's `error` frame).
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl CellError {
    /// The cell ran (or tried to) and failed.
    pub fn failed(message: impl Into<String>) -> Self {
        CellError {
            kind: ErrorKind::CellFailed,
            message: message.into(),
        }
    }

    /// The cell was shed before starting: its deadline expired (or its
    /// submit was aborted).
    pub fn shed() -> Self {
        CellError {
            kind: ErrorKind::DeadlineExceeded,
            message: "deadline exceeded before the cell started".into(),
        }
    }

    /// The cell panicked in the worker pool.
    pub fn panicked() -> Self {
        CellError {
            kind: ErrorKind::CellFailed,
            message: "cell panicked in the worker pool".into(),
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for CellError {}

/// A submit the service refused wholesale — nothing ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue was full.
    Busy(Busy),
    /// The spec failed validation.
    InvalidSpec(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy(busy) => busy.fmt(f),
            SubmitError::InvalidSpec(e) => write!(f, "invalid scenario: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<Busy> for SubmitError {
    fn from(busy: Busy) -> Self {
        SubmitError::Busy(busy)
    }
}

/// Catalog and admission counters together — what `stats` reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// Graph catalog counters.
    pub catalog: CatalogStats,
    /// Admission gate counters.
    pub admission: AdmissionStats,
}

/// The resident scenario service: a worker pool over a shared graph
/// catalog, behind a bounded admission gate.
pub struct Service {
    pool: WorkerPool,
    catalog: Arc<GraphCatalog>,
    admission: Admission,
}

impl Service {
    /// Spawns the pool and an empty catalog.
    pub fn new(config: ServiceConfig) -> Self {
        Service {
            pool: WorkerPool::new(config.workers),
            catalog: Arc::new(GraphCatalog::new(config.catalog)),
            admission: Admission::new(config.admission),
        }
    }

    /// The shared catalog (stats, tests).
    pub fn catalog(&self) -> &GraphCatalog {
        &self.catalog
    }

    /// The admission gate (stats, tests, bench probes).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Combined counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            catalog: self.catalog.stats(),
            admission: self.admission.stats(),
        }
    }

    /// Runs `spec` — every cell of it, if `[sweep]`-bearing — and
    /// calls `emit(index, total, result)` once per cell **in canonical
    /// expansion order** (index 0..total in sequence), regardless of
    /// completion order across workers. Errors are per-cell: one
    /// failing cell does not abort its siblings. `emit` returning
    /// `false` aborts the submit: remaining cells are shed (and still
    /// emitted, as `deadline-exceeded` errors, which the aborting
    /// caller typically ignores).
    ///
    /// `Err` means nothing ran: the spec was invalid, or the admission
    /// queue was full and the submit must be retried later.
    pub fn run_streaming(
        &self,
        spec: &ScenarioSpec,
        options: RunOptions,
        emit: impl FnMut(usize, usize, Result<RunResult, CellError>) -> bool,
    ) -> Result<(), SubmitError> {
        if let Err(e) = spec.validate() {
            return Err(SubmitError::InvalidSpec(e.to_string()));
        }
        let cells: Vec<(usize, ScenarioSpec)> = spec.expand().into_iter().enumerate().collect();
        let total = cells.len();
        self.run_cells_streaming(cells, total, options, emit)
            .map_err(SubmitError::from)
    }

    /// The core dispatch loop under [`run_streaming`]: runs an
    /// explicit subset of a grid's cells, each tagged with its
    /// original expansion index (the journal-resume path runs only the
    /// incomplete cells of a resubmitted grid). `cells` must be sorted
    /// ascending by index; `total` is the full grid's size, echoed to
    /// `emit`. Admission accounts `cells.len()` permits.
    ///
    /// [`run_streaming`]: Service::run_streaming
    pub fn run_cells_streaming(
        &self,
        cells: Vec<(usize, ScenarioSpec)>,
        total: usize,
        options: RunOptions,
        mut emit: impl FnMut(usize, usize, Result<RunResult, CellError>) -> bool,
    ) -> Result<(), Busy> {
        let pending = cells.len();
        if pending == 0 {
            return Ok(());
        }
        let mut grant = self.admission.try_admit(pending, self.workers())?;
        let cancel = CancelToken::new();
        // Position in `cells` (not original index) keys the channel and
        // the in-order buffer; original indices ride along for `emit`.
        let (tx, rx) = mpsc::channel::<(usize, usize, Result<RunResult, CellError>)>();
        let window = self.admission.config().conn_window.max(1);
        let mut iter = cells.into_iter().enumerate();
        let mut dispatched = 0usize;
        let mut received = 0usize;
        let mut dispatch_up_to_window = |dispatched: &mut usize, received: usize| {
            while *dispatched - received < window {
                let Some((position, (index, cell))) = iter.next() else {
                    break;
                };
                let catalog = Arc::clone(&self.catalog);
                let tx = tx.clone();
                let deadline = options.deadline;
                self.pool.submit_cancellable(&cancel, move |cancelled| {
                    let expired = cancelled || deadline.is_some_and(|d| Instant::now() >= d);
                    let result = if expired {
                        Err(CellError::shed())
                    } else {
                        catch_unwind(AssertUnwindSafe(|| run_cell(&catalog, cell, options)))
                            .unwrap_or_else(|_| Err(CellError::panicked()))
                    };
                    // The collector holds the receiver for the whole
                    // submit, so this only fails if the service is
                    // tearing down.
                    let _ = tx.send((position, index, result));
                });
                *dispatched += 1;
            }
        };
        dispatch_up_to_window(&mut dispatched, received);

        let mut buffer: BTreeMap<usize, (usize, Result<RunResult, CellError>)> = BTreeMap::new();
        let mut next = 0usize;
        let mut aborted = false;
        while received < pending {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok((position, index, result)) => {
                    received += 1;
                    if matches!(&result, Err(e) if e.kind == ErrorKind::DeadlineExceeded) {
                        grant.release_shed();
                    } else {
                        grant.release_one();
                    }
                    buffer.insert(position, (index, result));
                    while let Some((index, result)) = buffer.remove(&next) {
                        next += 1;
                        if !aborted && !emit(index, total, result) {
                            aborted = true;
                            cancel.cancel();
                        }
                    }
                    // Cancelled jobs still flow through the pool and
                    // answer `shed` instantly, so refilling after an
                    // abort just drains the remainder quickly.
                    dispatch_up_to_window(&mut dispatched, received);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if options.deadline.is_some_and(|d| Instant::now() >= d) {
                        cancel.cancel();
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Ok(())
    }

    /// [`run_streaming`], collected. Results are in canonical
    /// expansion order.
    ///
    /// [`run_streaming`]: Service::run_streaming
    pub fn run_all(
        &self,
        spec: &ScenarioSpec,
        options: RunOptions,
    ) -> Result<Vec<Result<RunResult, CellError>>, SubmitError> {
        let mut out = Vec::new();
        self.run_streaming(spec, options, |_, _, result| {
            out.push(result);
            true
        })?;
        Ok(out)
    }
}

fn run_cell(
    catalog: &GraphCatalog,
    cell: ScenarioSpec,
    options: RunOptions,
) -> Result<RunResult, CellError> {
    if crate::chaos::take_armed_panic(&cell.name) {
        panic!("chaos: injected worker panic in `{}`", cell.name);
    }
    let graph = catalog
        .get_or_build(&cell)
        .map_err(|e| CellError::failed(e.to_string()))?;
    let start = Instant::now();
    let (outcome, trace) = match options.trace {
        None => (
            run_on(&cell, &graph, None).map_err(|e| CellError::failed(e.to_string()))?,
            None,
        ),
        Some(trace_options) => {
            let (outcome, trace) = record_on_with(&cell, &graph, trace_options)
                .map_err(|e| CellError::failed(e.to_string()))?;
            (outcome, Some(trace))
        }
    };
    Ok(RunResult {
        spec: cell,
        outcome,
        trace,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::preset;

    #[test]
    fn grid_results_arrive_in_canonical_order_and_share_one_graph() {
        let service = Service::new(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let grid = preset("grid-smoke").expect("catalog preset");
        let expected: Vec<String> = grid.expand().into_iter().map(|c| c.name).collect();
        let mut seen = Vec::new();
        service
            .run_streaming(&grid, RunOptions::default(), |index, total, result| {
                assert_eq!(index, seen.len(), "contiguous in-order emission");
                assert_eq!(total, 8);
                seen.push(result.expect("cell runs").spec.name);
                true
            })
            .expect("admitted");
        assert_eq!(seen, expected);
        let stats = service.stats();
        assert_eq!(stats.catalog.builds, 1, "eight cells share one graph build");
        assert_eq!(stats.catalog.hits + stats.catalog.misses, 8);
        assert_eq!(stats.admission.admitted, 8);
        assert_eq!(stats.admission.inflight, 0, "permits all returned");
    }

    #[test]
    fn single_runs_match_direct_execution_bitwise() {
        let service = Service::new(ServiceConfig::default());
        let smoke = preset("smoke").expect("catalog preset");
        let results = service
            .run_all(
                &smoke,
                RunOptions {
                    trace: Some(TraceOptions {
                        timing: true,
                        recovery: true,
                    }),
                    ..RunOptions::default()
                },
            )
            .expect("admitted");
        assert_eq!(results.len(), 1);
        let served = results.into_iter().next().unwrap().expect("runs");
        let (direct, trace) = scenario::record_with(
            &smoke,
            TraceOptions {
                timing: true,
                recovery: true,
            },
        )
        .expect("direct run");
        assert_eq!(served.outcome, direct, "report + App_FIT bit-identical");
        assert_eq!(
            served.trace.expect("recorded").to_bytes(),
            trace.to_bytes(),
            "decision/timing/recovery streams bit-identical"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_without_running() {
        let service = Service::new(ServiceConfig::default());
        let mut bad = preset("smoke").expect("catalog preset");
        bad.topology.nodes = 0;
        match service.run_all(&bad, RunOptions::default()) {
            Err(SubmitError::InvalidSpec(_)) => {}
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        assert_eq!(service.catalog().stats().misses, 0, "nothing was built");
        assert_eq!(service.stats().admission.admitted, 0, "nothing admitted");
    }

    #[test]
    fn an_expired_deadline_sheds_every_cell_with_typed_errors() {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let grid = preset("grid-smoke").expect("catalog preset");
        let results = service
            .run_all(
                &grid,
                RunOptions {
                    trace: None,
                    // Already expired: every cell must shed, none run.
                    deadline: Some(Instant::now() - Duration::from_millis(1)),
                },
            )
            .expect("admitted");
        assert_eq!(results.len(), 8);
        for result in &results {
            let err = result.as_ref().expect_err("shed");
            assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        }
        let stats = service.stats();
        assert_eq!(stats.admission.shed, 8, "all eight counted as shed");
        assert_eq!(stats.admission.inflight, 0);
        assert_eq!(stats.catalog.builds, 0, "no cell ever started");
    }

    #[test]
    fn a_full_queue_rejects_with_busy_and_recovers() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                queue_capacity: 4,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        });
        let smoke = preset("smoke").expect("catalog preset");
        // Hold the whole capacity with a probe grant, as the bench's
        // over-subscription probe does.
        let grant = service.admission().try_admit(4, 1).expect("fits");
        match service.run_all(&smoke, RunOptions::default()) {
            Err(SubmitError::Busy(busy)) => assert!(busy.retry_after_ms > 0),
            other => panic!("expected Busy, got {other:?}"),
        }
        drop(grant);
        let results = service
            .run_all(&smoke, RunOptions::default())
            .expect("capacity freed");
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
        assert_eq!(service.stats().admission.rejected, 1);
    }

    #[test]
    fn an_injected_panic_fails_one_cell_and_spares_its_siblings() {
        let service = Service::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        // Renamed so the armed cell name cannot fire in another test
        // of this binary that runs the same preset concurrently.
        let mut grid = preset("grid-smoke").expect("catalog preset");
        grid.name = "grid-injected-panic".to_string();
        let victim = grid.expand()[3].name.clone();
        crate::chaos::arm_panic(&victim);
        let results = service
            .run_all(&grid, RunOptions::default())
            .expect("admitted");
        assert_eq!(results.len(), 8);
        for (k, result) in results.iter().enumerate() {
            if k == 3 {
                let err = result.as_ref().expect_err("injected panic");
                assert_eq!(err.kind, ErrorKind::CellFailed);
            } else {
                assert!(result.is_ok(), "sibling {k} unaffected");
            }
        }
        assert_eq!(service.stats().admission.inflight, 0);
        // One-shot: the same grid reruns clean.
        let retry = service
            .run_all(&grid, RunOptions::default())
            .expect("admitted");
        assert!(retry.iter().all(Result::is_ok), "panic was consumed");
    }

    #[test]
    fn aborting_emit_sheds_the_remaining_cells() {
        let service = Service::new(ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                conn_window: 1,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        });
        let grid = preset("grid-smoke").expect("catalog preset");
        let mut emitted = 0;
        service
            .run_streaming(&grid, RunOptions::default(), |_, _, _| {
                emitted += 1;
                emitted < 2 // abort after the second cell
            })
            .expect("admitted");
        assert_eq!(emitted, 2, "nothing emitted past the abort");
        let stats = service.stats();
        assert_eq!(stats.admission.inflight, 0, "grant fully returned");
        assert!(stats.admission.shed >= 1, "tail cells were shed");
    }
}
