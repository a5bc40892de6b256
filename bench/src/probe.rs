//! Layer probes of the traced pass that both kinds of workload share:
//! the engine, policy, spec and trace layers, timed from outside
//! around their public functions. A probe works on the request's
//! *cells* — one `(spec, graph)` for a direct workload, the grid's 64
//! for `serve-grid` — and reports per request, i.e. summed over cells.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use appfit_core::{
    AppFit, AppFitConfig, DecisionCtx, DecisionSink, EpochDecision, ReplicationPolicy,
};
use cluster_sim::{
    simulate_delayed, CostModel, RecoveryConfig, ShardedConfig, SimConfig, SimGraph,
};
use fault_inject::{InjectionConfig, SeededInjector};
use fit_model::Fit;
use scenario::{
    run_on, EngineSpec, EpochSpec, LookaheadSpec, Outcome, PolicySpec, ScenarioSpec, SyncSpec,
    TargetSpec, Trace,
};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::Plan;

/// One concrete run of a request: an expanded spec and its graph.
pub struct Cell {
    pub spec: ScenarioSpec,
    pub graph: Arc<SimGraph>,
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds of `reps` runs of `f`.
pub fn median_s(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// Resident set size now (`VmRSS`) or at its peak (`VmHWM`), in MiB.
pub fn rss_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The engine configuration `scenario::run_on` assembles for `spec`
/// (the runner keeps it private), with a fresh App_FIT policy. The
/// benchmark's specs are all App_FIT at a fraction target with
/// injection on and default recovery, so only that shape is built.
fn sim_config(spec: &ScenarioSpec, graph: &SimGraph) -> SimConfig {
    let PolicySpec::AppFit {
        target: TargetSpec::Fraction(fraction),
    } = spec.policy
    else {
        panic!("benchmark specs use app-fit with a fraction target");
    };
    let total: f64 = graph.tasks().iter().map(|t| t.rates.total().value()).sum();
    SimConfig {
        cluster: spec.topology.to_cluster(),
        cost: CostModel::default(),
        policy: Arc::new(AppFit::new(AppFitConfig::new(
            Fit::new(total * fraction),
            (graph.len() as u64).max(1),
        ))),
        faults: Arc::new(SeededInjector::new(spec.faults.seed)),
        injection: InjectionConfig::PerTask {
            p_due: spec.faults.p_due,
            p_sdc: spec.faults.p_sdc,
            p_crash: spec.faults.p_crash,
        },
        recovery: RecoveryConfig::default(),
    }
}

/// Collects the decision inputs of a run, in accounting order.
#[derive(Default)]
struct CtxSink(Mutex<Vec<DecisionCtx>>);

impl DecisionSink for CtxSink {
    fn on_decision(&self, ctx: &DecisionCtx, _replicate: bool) {
        self.0.lock().expect("sink poisoned").push(*ctx);
    }

    fn on_epoch_commit(&self, decisions: &[EpochDecision]) {
        let mut all = self.0.lock().expect("sink poisoned");
        all.extend(decisions.iter().map(|d| d.ctx));
    }
}

/// `spec` with the sharded engine's `shards` and `threads` replaced.
fn with_layout(spec: &ScenarioSpec, new_shards: usize, new_threads: usize) -> ScenarioSpec {
    let mut spec = spec.clone();
    if let EngineSpec::Sharded {
        shards, threads, ..
    } = &mut spec.engine
    {
        *shards = new_shards;
        *threads = new_threads;
    }
    spec
}

fn shards_of(spec: &ScenarioSpec) -> Option<usize> {
    match spec.engine {
        EngineSpec::Sharded { shards, .. } => Some(shards),
        EngineSpec::Sequential => None,
    }
}

/// Runs every cell through `run_on` without a sink; the outcomes are
/// returned so that dropping them stays outside the caller's timing.
fn run_cells(cells: &[Cell], rewrite: impl Fn(&ScenarioSpec) -> ScenarioSpec) -> Vec<Outcome> {
    cells
        .iter()
        .map(|c| run_on(&rewrite(&c.spec), &c.graph, None).expect("benchmark cell runs"))
        .collect()
}

fn median_run_s(
    cells: &[Cell],
    reps: usize,
    rewrite: impl Fn(&ScenarioSpec) -> ScenarioSpec,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| timed(|| run_cells(cells, &rewrite)).1)
        .collect();
    median(&samples)
}

/// The engine and policy layers. `recorded_s` is the traced pass's
/// median time in `record_on_with` per request, the other side of
/// `hooks.record_overhead_s`.
pub fn engine(cells: &[Cell], recorded_s: f64, plan: &Plan, m: &mut Metrics) {
    let tasks: usize = cells.iter().map(|c| c.graph.len()).sum();
    let per_task_ns = |secs: f64| secs * 1e9 / tasks as f64;

    let mut outcomes = Vec::new();
    let plain: Vec<f64> = (0..plan.reps(5))
        .map(|_| {
            let (out, secs) = timed(|| run_cells(cells, ScenarioSpec::clone));
            outcomes = out;
            secs
        })
        .collect();
    let sim_s = median(&plain);
    m.set("hooks.record_overhead_s", recorded_s - sim_s);

    let sharded = cells.iter().all(|c| shards_of(&c.spec).is_some());
    if sharded {
        m.set("shard.sim_s", sim_s);
        m.set("shard.ns_per_task", per_task_ns(sim_s));
        let sum = |f: fn(&cluster_sim::DeliveryStats) -> u64| -> f64 {
            outcomes
                .iter()
                .map(|o| f(o.delivery.as_ref().expect("sharded run reports delivery")))
                .sum::<u64>() as f64
        };
        let windows = sum(|d| d.windows);
        m.set("shard.windows", windows);
        m.set("shard.ns_per_window", sim_s * 1e9 / windows);
        m.set("shard.events_coalesced", sum(|d| d.events_coalesced));
        m.set("shard.delivery_batches", sum(|d| d.delivery_batches));
        m.set("shard.batches_recycled", sum(|d| d.batches_recycled));

        let reps = plan.reps(3);
        m.set(
            "shard.sim_s_shards1",
            median_run_s(cells, reps, |s| with_layout(s, 1, 1)),
        );
        let two = median_run_s(cells, reps, |s| {
            with_layout(s, shards_of(s).expect("sharded"), 2)
        });
        m.set("shard.threads2_speedup", sim_s / two);

        // `run_on` derives the epoch with `ShardedConfig::auto` only
        // for `epoch = auto` under `sync = epoch`.
        let auto_epoch = |s: &ScenarioSpec| {
            matches!(
                s.engine,
                EngineSpec::Sharded {
                    epoch: EpochSpec::Auto,
                    sync: SyncSpec::Epoch,
                    ..
                }
            )
        };
        if cells.iter().all(|c| auto_epoch(&c.spec)) {
            let configs: Vec<SimConfig> = cells
                .iter()
                .map(|c| sim_config(&c.spec, &c.graph))
                .collect();
            m.set(
                "shard.auto_config_s",
                median_s(plan.reps(5), || {
                    for (c, cfg) in cells.iter().zip(&configs) {
                        let shards = shards_of(&c.spec).expect("sharded");
                        std::hint::black_box(ShardedConfig::auto(&c.graph, cfg, shards));
                    }
                }),
            );
        }
    } else {
        m.set("sim.sim_s", sim_s);
        m.set("sim.ns_per_task", per_task_ns(sim_s));
    }

    // The sequential reference the lookahead engine is judged against.
    let lookahead_s = |s: &ScenarioSpec| match s.engine {
        EngineSpec::Sharded {
            sync: SyncSpec::Lookahead(LookaheadSpec::Ns(ns)),
            ..
        } => Some(ns * 1e-9),
        _ => None,
    };
    if cells.iter().all(|c| lookahead_s(&c.spec).is_some()) {
        let samples: Vec<f64> = (0..plan.reps(3))
            .map(|_| {
                // A fresh policy per run: App_FIT accumulates state.
                let configs: Vec<SimConfig> = cells
                    .iter()
                    .map(|c| sim_config(&c.spec, &c.graph))
                    .collect();
                timed(|| {
                    cells
                        .iter()
                        .zip(&configs)
                        .map(|(c, cfg)| {
                            simulate_delayed(&c.graph, cfg, lookahead_s(&c.spec).expect("checked"))
                        })
                        .collect::<Vec<_>>()
                })
                .1
            })
            .collect();
        m.set("sim.delayed_ns_per_task", per_task_ns(median(&samples)));
    }

    let stats: Vec<_> = outcomes.iter().filter_map(|o| o.appfit).collect();
    let decided: u64 = stats.iter().map(|a| a.decided).sum();
    let replicated: u64 = stats.iter().map(|a| a.replicated).sum();
    m.set("appfit.decided", decided as f64);
    m.set("appfit.replicated_frac", replicated as f64 / decided as f64);
    let worst = stats
        .iter()
        .filter(|a| a.threshold > 0.0)
        .map(|a| a.current_fit / a.threshold)
        .fold(0.0, f64::max);
    m.set("appfit.fit_over_target", worst);
    drop(outcomes);

    m.set("appfit.decide_ns", decide_ns(cells, plan));
}

/// Nanoseconds per App_FIT decision: the recorded decision inputs of
/// each cell replayed through `fork_epoch` / `decide` / `commit_epoch`
/// in windows of 1024, without the engine around them.
fn decide_ns(cells: &[Cell], plan: &Plan) -> f64 {
    let streams: Vec<Vec<DecisionCtx>> = cells
        .iter()
        .map(|c| {
            let sink = Arc::new(CtxSink::default());
            run_on(
                &c.spec,
                &c.graph,
                Some(Arc::clone(&sink) as Arc<dyn DecisionSink>),
            )
            .expect("benchmark cell runs");
            let stream = std::mem::take(&mut *sink.0.lock().expect("sink poisoned"));
            stream
        })
        .collect();
    let decisions: usize = streams.iter().map(Vec::len).sum();
    let secs = median_s(plan.reps(5), || {
        let mut committed = Vec::with_capacity(1024);
        for (c, stream) in cells.iter().zip(&streams) {
            let policy = sim_config(&c.spec, &c.graph).policy;
            for window in stream.chunks(1024) {
                committed.clear();
                let mut fork = policy.fork_epoch();
                for ctx in window {
                    committed.push(EpochDecision {
                        ctx: *ctx,
                        replicate: fork.decide(ctx),
                        replica_lagged: false,
                    });
                }
                drop(fork);
                policy.commit_epoch(&committed);
            }
            std::hint::black_box(&policy);
        }
    });
    secs * 1e9 / decisions as f64
}

/// The spec layer's pure functions on the text a request carries.
pub fn spec(text: &str, m: &mut Metrics) {
    let parsed = ScenarioSpec::parse(text).expect("benchmark text parses");
    let cells = parsed.expand();
    let us = |secs: f64| secs * 1e6;
    m.set(
        "spec.expand_us",
        us(median_s(21, || {
            std::hint::black_box(parsed.expand());
        })),
    );
    m.set(
        "spec.graph_key_us",
        us(median_s(21, || {
            for cell in &cells {
                std::hint::black_box(cell.graph_key());
            }
        })),
    );
    m.set(
        "spec.render_us",
        us(median_s(21, || {
            for cell in &cells {
                std::hint::black_box(cell.to_string());
            }
        })),
    );
}

/// The trace layer's decoder on a request's encoded traces.
pub fn trace_decode(encoded: &[Vec<u8>], plan: &Plan, m: &mut Metrics) {
    m.set(
        "trace.decode_s",
        median_s(plan.reps(3), || {
            for bytes in encoded {
                std::hint::black_box(Trace::from_bytes(bytes).expect("own trace decodes"));
            }
        }),
    );
}
