//! Turns a [`ScenarioSpec`] into a simulation run — and, on request,
//! into a recorded [`Trace`] or a replayed one.
//!
//! The runner is the single entry point the drivers (`repro-bench`'s
//! binaries, the examples) share: graph construction (in-memory,
//! streamed or synthetic), policy and fault-model assembly, engine
//! selection, and the [`DecisionSink`]-backed trace recorder.

use std::fmt;
use std::sync::Arc;

use appfit_core::{
    AppFit, AppFitConfig, DecisionCtx, DecisionSink, EpochDecision, Observed, PeriodicPolicy,
    RandomPolicy, ReplicateAll, ReplicateNone, ReplicationPolicy,
};
use cluster_sim::{
    simulate, simulate_sharded_stats, CostModel, DeliveryStats, RecoveryConfig, RecoveryStrategy,
    ShardedConfig, SimConfig, SimGraph, SimReport, SyntheticSpec,
};
use fault_inject::{FaultModel, InjectionConfig, NoFaults, SeededInjector};
use fit_model::{Fit, RateModel};
use parking_lot::Mutex;
use workloads::{all_workloads, streamed_workload};

use crate::spec::{
    EngineSpec, EpochSpec, LookaheadSpec, ParseError, PolicySpec, ScenarioSpec, SyncSpec,
    TargetSpec, WorkloadSpec,
};
use crate::trace::{
    Divergence, Trace, TraceDecision, TraceEpoch, TraceError, TraceRecovery, TraceTiming,
};

/// Anything that can go wrong building, running or replaying a
/// scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The spec text did not parse or validate.
    Parse(ParseError),
    /// The spec names a benchmark the catalog does not contain.
    UnknownBench(String),
    /// A semantic problem detected outside parsing.
    Invalid(String),
    /// A trace byte stream did not decode.
    Trace(TraceError),
    /// A replay did not reproduce the recorded trace.
    Diverged(Divergence),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::UnknownBench(name) => {
                write!(
                    f,
                    "unknown benchmark `{name}` (see `workloads::all_workloads`)"
                )
            }
            ScenarioError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            ScenarioError::Trace(e) => write!(f, "{e}"),
            ScenarioError::Diverged(d) => write!(f, "replay diverged: {d}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<TraceError> for ScenarioError {
    fn from(e: TraceError) -> Self {
        ScenarioError::Trace(e)
    }
}

/// App_FIT-specific statistics of a finished run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppFitOutcome {
    /// The resolved FIT threshold (absolute, after applying a
    /// fraction target to the graph's total rate).
    pub threshold: f64,
    /// Unprotected FIT accumulated by the end of the run.
    pub current_fit: f64,
    /// Decisions taken.
    pub decided: u64,
    /// Replicate decisions taken.
    pub replicated: u64,
}

/// A finished scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The simulation report (makespan, per-task records, metrics).
    pub report: SimReport,
    /// The deciding policy's display name.
    pub policy: &'static str,
    /// App_FIT statistics when the policy was App_FIT.
    pub appfit: Option<AppFitOutcome>,
    /// Delivery-path perf counters when the engine was sharded
    /// (`None` for the sequential engine). Diagnostics only — never
    /// part of the report, so bit-identity comparisons stay strict.
    pub delivery: Option<DeliveryStats>,
}

/// The failure-rate model a scenario implies (Roadrunner base rates ×
/// the spec's error-rate multiplier).
pub fn rate_model(spec: &ScenarioSpec) -> RateModel {
    RateModel::roadrunner().with_multiplier(spec.faults.multiplier)
}

/// A `[sweep]`-bearing spec is a grid, not a run: it must be
/// [`ScenarioSpec::expand`]ed into cells first (the scenario service
/// does this for callers).
fn reject_sweep(spec: &ScenarioSpec) -> Result<(), ScenarioError> {
    if spec.sweep.is_some() {
        return Err(ScenarioError::Invalid(format!(
            "scenario `{}` has a [sweep] section ({} cells); expand it before running",
            spec.name,
            spec.sweep_cells()
        )));
    }
    Ok(())
}

/// Builds the scenario's simulation graph: the named Table-I benchmark
/// (in-memory or streamed) or the chain+halo synthetic.
pub fn build_graph(spec: &ScenarioSpec) -> Result<SimGraph, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    reject_sweep(spec)?;
    let rates = rate_model(spec);
    match &spec.workload {
        WorkloadSpec::Synthetic {
            chains_per_node,
            tasks_per_chain,
            flops_per_task,
            jitter,
            argument_bytes,
            cross_node_every,
            seed,
        } => Ok(SimGraph::synthetic(
            &SyntheticSpec {
                nodes: spec.topology.nodes,
                chains_per_node: *chains_per_node,
                tasks_per_chain: *tasks_per_chain,
                flops_per_task: *flops_per_task,
                jitter: *jitter,
                argument_bytes: *argument_bytes,
                cross_node_every: *cross_node_every,
                seed: *seed,
            },
            &rates,
        )),
        WorkloadSpec::Bench {
            bench,
            scale,
            streamed,
        } => {
            if *streamed {
                let mut stream = streamed_workload(bench, *scale, spec.topology.nodes)
                    .ok_or_else(|| ScenarioError::UnknownBench(bench.clone()))?;
                Ok(SimGraph::from_stream(stream.as_mut(), &rates))
            } else {
                let workload = all_workloads()
                    .into_iter()
                    .find(|w| w.name() == bench.as_str())
                    .ok_or_else(|| ScenarioError::UnknownBench(bench.clone()))?;
                let built = workload.build(*scale, spec.topology.nodes, false);
                Ok(SimGraph::from_task_graph(
                    &built.graph,
                    &rates,
                    built.placement_fn(),
                ))
            }
        }
    }
}

/// Runs a scenario end to end. Equivalent to
/// [`build_graph`] + [`run_on`] (every graph source already places
/// tasks within `0..topology.nodes`, so no placement folding is
/// needed in between).
pub fn run(spec: &ScenarioSpec) -> Result<Outcome, ScenarioError> {
    let graph = build_graph(spec)?;
    run_on(spec, &graph, None)
}

/// Runs a scenario on a pre-built graph (callers fanning one graph
/// across many policy/fault cells — the sweep driver — build once and
/// run many). The optional `sink` observes every replication decision
/// in accounting order.
pub fn run_on(
    spec: &ScenarioSpec,
    graph: &SimGraph,
    sink: Option<Arc<dyn DecisionSink>>,
) -> Result<Outcome, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    reject_sweep(spec)?;

    // Policy: keep a concrete App_FIT handle for statistics while the
    // engine sees an (optionally observed) trait object.
    let mut appfit_handle: Option<Arc<AppFit>> = None;
    let base: Arc<dyn ReplicationPolicy> = match spec.policy {
        PolicySpec::ReplicateAll => Arc::new(ReplicateAll),
        PolicySpec::ReplicateNone => Arc::new(ReplicateNone),
        PolicySpec::Random { probability, seed } => Arc::new(RandomPolicy::new(probability, seed)),
        PolicySpec::Periodic { every } => Arc::new(PeriodicPolicy::new(every)),
        PolicySpec::AppFit { target } => {
            let threshold = match target {
                TargetSpec::Fit(fit) => fit,
                TargetSpec::Fraction(fraction) => {
                    let total: f64 = graph.tasks().iter().map(|t| t.rates.total().value()).sum();
                    total * fraction
                }
            };
            let handle = Arc::new(AppFit::new(AppFitConfig::new(
                Fit::new(threshold),
                (graph.len() as u64).max(1),
            )));
            appfit_handle = Some(Arc::clone(&handle));
            handle
        }
    };
    let policy: Arc<dyn ReplicationPolicy> = match sink {
        Some(sink) => Arc::new(Observed::new(base, sink)),
        None => base,
    };

    let inject = spec.faults.p_due > 0.0 || spec.faults.p_sdc > 0.0 || spec.faults.p_crash > 0.0;
    let faults: Arc<dyn FaultModel> = if inject {
        Arc::new(SeededInjector::new(spec.faults.seed))
    } else {
        Arc::new(NoFaults)
    };
    let cfg = SimConfig {
        cluster: spec.topology.to_cluster(),
        cost: CostModel::default(),
        policy,
        faults,
        injection: if inject {
            InjectionConfig::PerTask {
                p_due: spec.faults.p_due,
                p_sdc: spec.faults.p_sdc,
                p_crash: spec.faults.p_crash,
            }
        } else {
            InjectionConfig::Disabled
        },
        recovery: RecoveryConfig {
            crash_repair_secs: spec.faults.crash_repair_secs,
            heartbeat_secs: spec.recovery.heartbeat_secs,
            preempt: spec.faults.preempt,
            strategy: match spec.recovery.checkpoint {
                Some(ck) => RecoveryStrategy::Checkpoint {
                    interval_secs: ck.interval_secs,
                    snapshot_bytes: ck.snapshot_bytes,
                },
                None => RecoveryStrategy::Replication,
            },
        },
    };

    let (report, delivery) = match spec.engine {
        EngineSpec::Sequential => (simulate(graph, &cfg), None),
        EngineSpec::Sharded {
            shards,
            epoch,
            threads,
            sync,
        } => {
            let lookahead_secs = match sync {
                SyncSpec::Epoch => None,
                // `auto`: the interconnect transfer latency floor;
                // explicit values are nanoseconds of virtual time
                // (`inf` degenerates to epoch mode in with_lookahead).
                SyncSpec::Lookahead(LookaheadSpec::Auto) => {
                    Some(ShardedConfig::auto_lookahead(graph, &cfg))
                }
                SyncSpec::Lookahead(LookaheadSpec::Ns(ns)) => Some(ns * 1e-9),
            };
            let mut sharded = match epoch {
                // A finite lookahead ignores the epoch entirely — skip
                // the O(n) auto-epoch cost pass.
                EpochSpec::Auto if matches!(lookahead_secs, Some(l) if l.is_finite()) => {
                    ShardedConfig::new(shards, 1.0)
                }
                EpochSpec::Auto => ShardedConfig::auto(graph, &cfg, shards),
                EpochSpec::Seconds(s) => ShardedConfig::new(shards, s),
            }
            .with_threads(threads);
            if let Some(secs) = lookahead_secs {
                sharded = sharded.with_lookahead(secs);
            }
            let (report, stats) = simulate_sharded_stats(graph, &cfg, &sharded);
            (report, Some(stats))
        }
    };

    Ok(Outcome {
        policy: cfg.policy.name(),
        appfit: appfit_handle.map(|h| AppFitOutcome {
            threshold: h.threshold().value(),
            current_fit: h.current_fit().value(),
            decided: h.decided(),
            replicated: h.replicated(),
        }),
        delivery,
        report,
    })
}

/// The [`DecisionSink`] behind [`record`]: accumulates the decision
/// stream and the running unprotected-FIT fold. The fold applies each
/// decision exactly where the engine accounts it, so for an App_FIT
/// policy the recorded trajectory is bit-identical to the policy's own
/// `current_fit` state.
struct TraceRecorder {
    state: Mutex<RecorderState>,
}

#[derive(Default)]
struct RecorderState {
    epochs: Vec<TraceEpoch>,
    open: Vec<TraceDecision>,
    fit: f64,
    decided: u64,
    replicated: u64,
}

impl RecorderState {
    fn push(&mut self, task: u32, replicate: bool, lambda: f64) {
        self.decided += 1;
        if replicate {
            self.replicated += 1;
        } else {
            self.fit += lambda;
        }
        self.open.push(TraceDecision {
            task,
            replicate,
            lambda,
        });
    }

    fn close_epoch(&mut self) {
        let decisions = std::mem::take(&mut self.open);
        self.epochs.push(TraceEpoch {
            decisions,
            fit_after: self.fit,
            decided_after: self.decided,
            replicated_after: self.replicated,
        });
    }
}

impl DecisionSink for TraceRecorder {
    fn on_decision(&self, ctx: &DecisionCtx, replicate: bool) {
        let mut s = self.state.lock();
        s.push(ctx.id as u32, replicate, ctx.rates.total().value());
    }

    fn on_epoch_commit(&self, decisions: &[EpochDecision]) {
        let mut s = self.state.lock();
        // `close_epoch` moves `open` out, so every epoch starts it with
        // no capacity: reserve the known count once instead of doubling.
        s.open.reserve_exact(decisions.len());
        for d in decisions {
            s.push(d.ctx.id as u32, d.replicate, d.ctx.rates.total().value());
        }
        s.close_epoch();
    }
}

/// Options for [`record_with`] / [`record_on_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Record per-task dispatch/completion timing (the Trace-v2
    /// timing flag, ~16 bytes per task — roughly 3× the decision
    /// stream). Lets `trace diff` localize makespan regressions to
    /// the earliest diverging task in virtual time.
    pub timing: bool,
    /// Record the recovery stream (the Trace-v3 recovery flag, 17
    /// bytes per crash/repair/preempt/restart/lag/checkpoint event).
    /// Lets `trace diff` localize a divergence between crash-bearing
    /// runs to the first recovery *action* that differs.
    pub recovery: bool,
}

/// Runs a scenario with recording on: returns the outcome plus the
/// [`Trace`] that replays it.
pub fn record(spec: &ScenarioSpec) -> Result<(Outcome, Trace), ScenarioError> {
    record_with(spec, TraceOptions::default())
}

/// [`record`] with explicit [`TraceOptions`].
pub fn record_with(
    spec: &ScenarioSpec,
    options: TraceOptions,
) -> Result<(Outcome, Trace), ScenarioError> {
    let graph = build_graph(spec)?;
    record_on_with(spec, &graph, options)
}

/// [`record`] on a pre-built graph.
pub fn record_on(spec: &ScenarioSpec, graph: &SimGraph) -> Result<(Outcome, Trace), ScenarioError> {
    record_on_with(spec, graph, TraceOptions::default())
}

/// [`record_on`] with explicit [`TraceOptions`].
pub fn record_on_with(
    spec: &ScenarioSpec,
    graph: &SimGraph,
    options: TraceOptions,
) -> Result<(Outcome, Trace), ScenarioError> {
    let recorder = Arc::new(TraceRecorder {
        state: Mutex::new(RecorderState::default()),
    });
    let outcome = run_on(
        spec,
        graph,
        Some(Arc::clone(&recorder) as Arc<dyn DecisionSink>),
    )?;
    let mut state = std::mem::take(&mut *recorder.state.lock());
    if !state.open.is_empty() {
        // Sequential-engine runs stream decisions without barriers;
        // close them as one epoch.
        state.close_epoch();
    }
    let timing = options.timing.then(|| {
        let records = outcome.report.records();
        let mut timing = TraceTiming {
            dispatched: Vec::with_capacity(records.len()),
            completed: Vec::with_capacity(records.len()),
        };
        for r in records {
            timing.dispatched.push(r.dispatched);
            timing.completed.push(r.completed);
        }
        timing
    });
    let recovery = options.recovery.then(|| {
        outcome
            .report
            .recovery()
            .iter()
            .map(|e| TraceRecovery {
                time: e.time,
                node: e.node,
                task: e.task,
                kind: e.kind.code(),
            })
            .collect()
    });
    let trace = Trace {
        spec_text: spec.to_string(),
        makespan: outcome.report.makespan,
        epochs: state.epochs,
        timing,
        recovery,
    };
    Ok((outcome, trace))
}

/// A successful replay's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Decisions verified bitwise.
    pub decisions: usize,
    /// Accounting epochs verified.
    pub epochs: usize,
    /// The (reproduced) final unprotected FIT.
    pub final_fit: f64,
    /// The (reproduced) makespan.
    pub makespan: f64,
}

/// Re-drives the simulation described by the trace's embedded spec and
/// asserts the recorded App_FIT trajectory reproduces **bit for bit**
/// — decisions, per-epoch accounting and makespan. This extends the
/// sharded engine's determinism contract across process boundaries: a
/// trace recorded yesterday on another machine must replay cleanly
/// today, or something (code, environment, spec) changed.
pub fn replay(trace: &Trace) -> Result<ReplayReport, ScenarioError> {
    let spec = ScenarioSpec::parse(&trace.spec_text)?;
    let (_outcome, fresh) = record_with(
        &spec,
        TraceOptions {
            // Timed traces replay their per-task timelines bitwise too,
            // and recovery-bearing traces their recovery streams.
            timing: trace.timing.is_some(),
            recovery: trace.recovery.is_some(),
        },
    )?;
    match trace.divergence_from(&fresh) {
        Some(d) => Err(ScenarioError::Diverged(d)),
        None => Ok(ReplayReport {
            decisions: trace.decision_count(),
            epochs: trace.epochs.len(),
            final_fit: trace.final_fit(),
            makespan: trace.makespan,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultSpec, TopologySpec};
    use workloads::Scale;

    fn tiny_spec(engine: EngineSpec, policy: PolicySpec) -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".into(),
            topology: TopologySpec::distributed(4),
            workload: WorkloadSpec::Synthetic {
                chains_per_node: 2,
                tasks_per_chain: 30,
                flops_per_task: 2.0e8,
                jitter: 0.25,
                argument_bytes: 1 << 16,
                cross_node_every: 4,
                seed: 11,
            },
            faults: FaultSpec {
                multiplier: 10.0,
                p_due: 0.01,
                p_sdc: 0.02,
                seed: 5,
                ..FaultSpec::default()
            },
            policy,
            recovery: crate::spec::RecoverySpec::default(),
            engine,
            sweep: None,
        }
    }

    #[test]
    fn runs_and_reports_appfit_stats() {
        let spec = tiny_spec(
            EngineSpec::Sharded {
                shards: 2,
                epoch: EpochSpec::Auto,
                threads: 1,
                sync: SyncSpec::Epoch,
            },
            PolicySpec::AppFit {
                target: TargetSpec::Fraction(0.5),
            },
        );
        let outcome = run(&spec).expect("runs");
        assert_eq!(outcome.report.records().len(), 4 * 2 * 30);
        let stats = outcome.appfit.expect("app-fit stats");
        assert_eq!(stats.decided, 240);
        assert!(stats.current_fit <= stats.threshold + 1e-12);
        assert!(stats.replicated > 0 && stats.replicated < 240);
    }

    #[test]
    fn record_then_replay_is_bitwise_identical() {
        for engine in [
            EngineSpec::Sequential,
            EngineSpec::Sharded {
                shards: 3,
                epoch: EpochSpec::Seconds(0.4),
                threads: 2,
                sync: SyncSpec::Epoch,
            },
            EngineSpec::Sharded {
                shards: 3,
                epoch: EpochSpec::Auto,
                threads: 2,
                sync: SyncSpec::Lookahead(LookaheadSpec::Auto),
            },
        ] {
            let spec = tiny_spec(
                engine,
                PolicySpec::AppFit {
                    target: TargetSpec::Fraction(0.4),
                },
            );
            let (outcome, trace) = record(&spec).expect("records");
            assert_eq!(trace.decision_count(), 240);
            assert_eq!(trace.makespan, outcome.report.makespan);
            // Through bytes, like a cross-process replay would.
            let decoded = Trace::from_bytes(&trace.to_bytes()).expect("decodes");
            let report = replay(&decoded).expect("replays bitwise");
            assert_eq!(report.decisions, 240);
            assert_eq!(report.makespan, outcome.report.makespan);
        }
    }

    #[test]
    fn recorded_fit_matches_policy_state_bitwise() {
        let spec = tiny_spec(
            EngineSpec::Sharded {
                shards: 4,
                epoch: EpochSpec::Auto,
                threads: 2,
                sync: SyncSpec::Epoch,
            },
            PolicySpec::AppFit {
                target: TargetSpec::Fraction(0.3),
            },
        );
        let (outcome, trace) = record(&spec).expect("records");
        let stats = outcome.appfit.expect("stats");
        assert_eq!(
            trace.final_fit().to_bits(),
            stats.current_fit.to_bits(),
            "recorded trajectory must equal the policy's own accounting"
        );
        assert_eq!(trace.replicated_count() as u64, stats.replicated);
    }

    #[test]
    fn timed_record_replays_bitwise_and_localizes_seeded_regression() {
        // Two runs of the same scenario differing only in the fault
        // seed: the injected recovery work moves per-task timelines
        // and the makespan. The Trace-v2 timing diff must localize
        // where the regression *starts* in virtual time.
        let timed = |seed: u64| {
            let mut spec = tiny_spec(
                EngineSpec::Sharded {
                    shards: 2,
                    epoch: EpochSpec::Auto,
                    threads: 1,
                    sync: SyncSpec::Epoch,
                },
                PolicySpec::AppFit {
                    target: TargetSpec::Fraction(0.4),
                },
            );
            spec.name = format!("tiny-seed-{seed}");
            spec.faults.seed = seed;
            spec.faults.p_due = 0.05;
            spec.faults.p_sdc = 0.1;
            record_with(
                &spec,
                TraceOptions {
                    timing: true,
                    ..TraceOptions::default()
                },
            )
            .expect("records")
        };
        let (outcome_a, trace_a) = timed(5);
        let (outcome_b, trace_b) = timed(1234);

        // Round trip through bytes, then bitwise replay — timing and
        // all.
        let decoded = Trace::from_bytes(&trace_a.to_bytes()).expect("decodes");
        assert_eq!(decoded.timing, trace_a.timing);
        replay(&decoded).expect("timed replay is bitwise identical");

        // The seeds must actually produce a makespan regression…
        assert_ne!(
            outcome_a.report.makespan, outcome_b.report.makespan,
            "seeds chosen to move the makespan"
        );
        // …and the diff localizes it: the reported task is the
        // earliest-dispatched task whose timeline differs, computed
        // independently from the reports.
        let d = crate::trace::diff(&trace_a, &trace_b);
        let timing = d.timing.expect("both sides timed");
        assert!(timing.differing > 0);
        let expected = outcome_a
            .report
            .records()
            .iter()
            .zip(outcome_b.report.records())
            .filter(|(x, y)| {
                x.dispatched.to_bits() != y.dispatched.to_bits()
                    || x.completed.to_bits() != y.completed.to_bits()
            })
            .min_by(|(xa, xb), (ya, yb)| {
                xa.dispatched
                    .min(xb.dispatched)
                    .total_cmp(&ya.dispatched.min(yb.dispatched))
            })
            .map(|(x, _)| x.task)
            .expect("some timeline differs");
        assert_eq!(timing.first_diverging_task, Some(expected));
    }

    #[test]
    fn crash_bearing_record_replays_and_localizes_recovery_divergence() {
        // A crash-bearing scenario recorded with the Trace-v3 recovery
        // stream: the stream is non-empty, replays bitwise through
        // bytes, and a doctored recovery event is what the diff
        // reports — before any timing fallout.
        let mut spec = tiny_spec(
            EngineSpec::Sharded {
                shards: 2,
                epoch: EpochSpec::Auto,
                threads: 2,
                sync: SyncSpec::Epoch,
            },
            PolicySpec::AppFit {
                target: TargetSpec::Fraction(0.5),
            },
        );
        spec.name = "tiny-crash".into();
        spec.faults.p_crash = 0.05;
        spec.faults.crash_repair_secs = 5.0;
        let (_, trace) = record_with(
            &spec,
            TraceOptions {
                timing: true,
                recovery: true,
            },
        )
        .expect("records");
        let events = trace.recovery.as_ref().expect("recovery recorded");
        assert!(!events.is_empty(), "p-crash = 0.05 must crash something");
        let decoded = Trace::from_bytes(&trace.to_bytes()).expect("decodes");
        assert_eq!(decoded.recovery, trace.recovery);
        replay(&decoded).expect("crash-bearing replay is bitwise identical");

        let mut doctored = decoded.clone();
        doctored.recovery.as_mut().unwrap()[0].time += 1.0;
        match replay(&doctored) {
            Err(ScenarioError::Diverged(Divergence::Recovery { index: 0, .. })) => {}
            other => panic!("expected recovery divergence, got {other:?}"),
        }
    }

    #[test]
    fn doctored_trace_fails_replay() {
        let spec = tiny_spec(EngineSpec::Sequential, PolicySpec::ReplicateNone);
        let (_, mut trace) = record(&spec).expect("records");
        let epoch = trace.epochs.last_mut().expect("has decisions");
        let d = epoch.decisions.last_mut().expect("decision");
        d.replicate = !d.replicate;
        match replay(&trace) {
            Err(ScenarioError::Diverged(Divergence::Decision { .. })) => {}
            other => panic!("expected decision divergence, got {other:?}"),
        }
    }

    #[test]
    fn unknown_bench_is_reported() {
        let mut spec = tiny_spec(EngineSpec::Sequential, PolicySpec::ReplicateAll);
        spec.workload = WorkloadSpec::Bench {
            bench: "NoSuchBench".into(),
            scale: Scale::Small,
            streamed: false,
        };
        match run(&spec) {
            Err(ScenarioError::UnknownBench(name)) => assert_eq!(name, "NoSuchBench"),
            other => panic!("expected unknown bench, got {other:?}"),
        }
    }

    #[test]
    fn bench_workload_runs_both_paths_identically() {
        // The same scenario through the in-memory and streamed builders
        // must produce the same simulation (the stream fidelity
        // contract, end to end through the runner).
        let mut spec = tiny_spec(EngineSpec::Sequential, PolicySpec::ReplicateAll);
        spec.workload = WorkloadSpec::Bench {
            bench: "Cholesky".into(),
            scale: Scale::Small,
            streamed: false,
        };
        spec.topology = TopologySpec::shared_memory(4);
        let in_memory = run(&spec).expect("in-memory runs");
        if let WorkloadSpec::Bench { streamed, .. } = &mut spec.workload {
            *streamed = true;
        }
        let streamed = run(&spec).expect("streamed runs");
        assert_eq!(in_memory.report, streamed.report);
    }
}
