//! Recovery-subsystem properties that go beyond cross-engine
//! conformance:
//!
//! * a scripted fail-stop crash at time `T` re-dispatches **exactly**
//!   the set of tasks that were in flight on the crashed machine at
//!   `T` — nothing lost, nothing spuriously retried;
//! * the post-recovery App_FIT trajectory is bit-identical across
//!   {1, 2, 7} shards in **both** synchronization modes;
//! * on a single node, the sequential engine and the one-shard epoch
//!   engine agree bit for bit under every recovery event type.
//!
//! The crash is scripted through a [`FaultPlan`] (attempt-keyed, fires
//! once), with a non-zero `p_crash` in the injection config so the
//! engines arm the recovery runtime (the plan itself ignores the
//! probabilities).

use std::collections::BTreeSet;
use std::sync::Arc;

use appfit_core::{AppFit, AppFitConfig, RandomPolicy, ReplicateAll, ReplicateNone};
use cluster_sim::{
    simulate, simulate_delayed, simulate_sharded, ClusterSpec, CostModel, NodeSpec, PreemptSpec,
    RecoveryConfig, RecoveryKind, RecoveryStrategy, ShardedConfig, SimConfig, SimGraph,
    SyntheticSpec,
};
use fault_inject::{ErrorClass, FaultPlan, InjectionConfig, NoFaults, SeededInjector};
use fit_model::{Fit, RateModel};

fn cluster(nodes: usize) -> ClusterSpec {
    ClusterSpec {
        nodes,
        node: NodeSpec {
            cores: 2,
            spare_cores: 1,
            gflops_per_core: 1e-9, // 1 flop = 1 virtual second
            mem_bw_gbs: f64::INFINITY,
        },
        net_latency_us: 200_000.0,
        net_bandwidth_gbs: 5.0,
    }
}

fn graph() -> SimGraph {
    SimGraph::synthetic(
        &SyntheticSpec {
            nodes: 3,
            chains_per_node: 3,
            tasks_per_chain: 12,
            flops_per_task: 2.5,
            jitter: 0.25,
            argument_bytes: 4096,
            cross_node_every: 2,
            seed: 42,
        },
        &RateModel::roadrunner(),
    )
}

/// A config with a crash scripted for attempt 0 of `victim` (pass
/// `None` for a clean run). `p_crash` is set non-zero purely to arm
/// the recovery runtime; the plan decides every injection.
fn crash_cfg(nodes: usize, victim: Option<u64>) -> SimConfig {
    SimConfig {
        cluster: cluster(nodes),
        cost: CostModel::default(),
        policy: Arc::new(ReplicateNone),
        faults: match victim {
            Some(v) => Arc::new(FaultPlan::new().with(v, 0, ErrorClass::NodeCrash)),
            None => Arc::new(NoFaults),
        },
        injection: match victim {
            Some(_) => InjectionConfig::PerTask {
                p_due: 0.0,
                p_sdc: 0.0,
                p_crash: 1.0,
            },
            None => InjectionConfig::Disabled,
        },
        recovery: RecoveryConfig {
            crash_repair_secs: 4.0,
            ..RecoveryConfig::default()
        },
    }
}

/// Picks a mid-schedule task on node 1 from the clean timeline — far
/// enough in that other work is in flight alongside it.
fn pick_victim(clean: &cluster_sim::SimReport) -> (u64, u32) {
    let mut on_node: Vec<_> = clean
        .records()
        .iter()
        .filter(|r| r.node == 1 && !r.is_barrier)
        .collect();
    on_node.sort_by(|a, b| a.dispatched.total_cmp(&b.dispatched));
    let mid = &on_node[on_node.len() / 2];
    (u64::from(mid.task), mid.node)
}

/// Crash-at-`T` re-dispatches exactly the lost in-flight set. The
/// pre-crash timeline is identical to the clean run (the scripted
/// crash only replaces the victim's completion event), so the clean
/// records tell us precisely which tasks were occupying the machine
/// when it died: those with `dispatched <= T < completed` on the
/// crashed node. The engine's `Restart` stream must equal that set.
#[test]
fn crash_redispatches_exactly_the_lost_inflight_set() {
    let g = graph();
    let clean = simulate(&g, &crash_cfg(3, None));
    let (victim, victim_node) = pick_victim(&clean);

    let crashed = simulate(&g, &crash_cfg(3, Some(victim)));
    let stream = crashed.recovery();
    let crash_events: Vec<_> = stream
        .iter()
        .filter(|r| r.kind == RecoveryKind::Crash)
        .collect();
    assert_eq!(crash_events.len(), 1, "one scripted crash: {stream:?}");
    let crash = crash_events[0];
    assert_eq!(crash.node, victim_node);
    assert_eq!(crash.task, u32::MAX, "crashes are machine-level events");
    let t = crash.time;

    // The victim was mid-execution when the machine died.
    let victim_clean = clean
        .records()
        .iter()
        .find(|r| u64::from(r.task) == victim)
        .unwrap();
    assert!(victim_clean.dispatched < t && t < victim_clean.completed);

    let expected: BTreeSet<u32> = clean
        .records()
        .iter()
        .filter(|r| r.node == victim_node && !r.is_barrier && r.dispatched <= t && r.completed > t)
        .map(|r| r.task)
        .collect();
    let restarted: BTreeSet<u32> = stream
        .iter()
        .filter(|r| r.kind == RecoveryKind::Restart)
        .map(|r| r.task)
        .collect();
    assert_eq!(
        restarted, expected,
        "restarts must be exactly the in-flight set at the crash"
    );
    let restart_count = stream
        .iter()
        .filter(|r| r.kind == RecoveryKind::Restart)
        .count();
    assert_eq!(restart_count, expected.len(), "exactly one restart each");

    // One repair, after the configured outage; the run still finishes
    // every task, just later.
    let repairs: Vec<_> = stream
        .iter()
        .filter(|r| r.kind == RecoveryKind::Repair)
        .collect();
    assert_eq!(repairs.len(), 1);
    assert_eq!(repairs[0].time, t + 4.0);
    assert_eq!(crashed.records().len(), clean.records().len());
    assert!(crashed.makespan > clean.makespan);
}

/// App_FIT state after a scripted crash + recovery is bit-identical
/// across {1, 2, 7} shards in both synchronization modes (lookahead
/// additionally matches its sequential reference), and the recovery
/// streams agree — the crash does not open any layout-dependent seam
/// in the policy's non-associative accumulation.
#[test]
fn post_recovery_appfit_trajectory_is_layout_invariant() {
    let g = graph();
    let clean = simulate(&g, &crash_cfg(3, None));
    let (victim, _) = pick_victim(&clean);

    let total: f64 = g.tasks().iter().map(|t| t.rates.total().value()).sum();
    let n = g.tasks().iter().filter(|t| !t.is_barrier).count() as u64;
    let run = |shards: Option<(usize, Option<f64>)>, lookahead_ref: Option<f64>| {
        let policy = Arc::new(AppFit::new(AppFitConfig::new(Fit::new(total * 0.5), n)));
        let mut cfg = crash_cfg(3, Some(victim));
        cfg.policy = Arc::clone(&policy) as Arc<dyn appfit_core::ReplicationPolicy>;
        let report = match (shards, lookahead_ref) {
            (Some((s, la)), _) => {
                let mut sc = ShardedConfig::auto(&g, &cfg, s).with_threads(2);
                if let Some(l) = la {
                    sc = sc.with_lookahead(l);
                }
                simulate_sharded(&g, &cfg, &sc)
            }
            (None, Some(l)) => simulate_delayed(&g, &cfg, l),
            (None, None) => simulate(&g, &cfg),
        };
        let bits = (
            policy.current_fit().value().to_bits(),
            policy.decided(),
            policy.replicated(),
        );
        (report, bits)
    };

    let probe = crash_cfg(3, None);
    let lookahead = ShardedConfig::auto_lookahead(&g, &probe);

    // Epoch mode: {1,2,7} shards agree bitwise.
    let (ep_report, ep_bits) = run(Some((1, None)), None);
    assert!(
        ep_report
            .recovery()
            .iter()
            .any(|r| r.kind == RecoveryKind::Restart),
        "the scripted crash must actually lose work"
    );
    for shards in [2usize, 7] {
        let (report, bits) = run(Some((shards, None)), None);
        assert_eq!(ep_report, report, "epoch report, shards={shards}");
        assert_eq!(ep_bits, bits, "epoch App_FIT bits, shards={shards}");
    }

    // Lookahead mode: {1,2,7} shards agree with the sequential
    // lookahead reference bitwise.
    let (la_ref_report, la_ref_bits) = run(None, Some(lookahead));
    for shards in [1usize, 2, 7] {
        let (report, bits) = run(Some((shards, Some(lookahead))), None);
        assert_eq!(la_ref_report, report, "lookahead report, shards={shards}");
        assert_eq!(la_ref_bits, bits, "lookahead App_FIT bits, shards={shards}");
    }
}

/// On a single node the sequential engine and the one-shard epoch
/// engine must agree bit for bit under every recovery event type —
/// crash, preemption, heartbeat lag and checkpoint/restart, each with
/// the policy `tests/conformance.rs` pairs it with — so the sequential
/// decision wiring (decide at dispatch) and the windowed one (fork
/// views committed at the barrier) stay interchangeable on every
/// control path. Reports embed the canonical recovery stream; App_FIT's
/// accumulated state is compared through its bits.
#[test]
fn single_node_sequential_matches_epoch_under_every_recovery_kind() {
    let g = SimGraph::synthetic(
        &SyntheticSpec {
            nodes: 1,
            chains_per_node: 4,
            tasks_per_chain: 30,
            flops_per_task: 2.5,
            jitter: 0.25,
            argument_bytes: 4096,
            cross_node_every: 0,
            seed: 5,
        },
        &RateModel::roadrunner(),
    );
    let total: f64 = g.tasks().iter().map(|t| t.rates.total().value()).sum();
    let n = g.tasks().iter().filter(|t| !t.is_barrier).count() as u64;
    let profiles = [
        (
            "crash",
            RecoveryKind::Crash,
            31,
            0.08,
            RecoveryConfig {
                crash_repair_secs: 5.0,
                ..RecoveryConfig::default()
            },
        ),
        (
            "preempt",
            RecoveryKind::Preempt,
            7,
            0.0,
            RecoveryConfig {
                crash_repair_secs: 5.0,
                preempt: Some(PreemptSpec {
                    up_secs: 60.0,
                    down_secs: 4.0,
                    seed: 3,
                }),
                ..RecoveryConfig::default()
            },
        ),
        (
            "heartbeat",
            RecoveryKind::ReplicaLag,
            13,
            0.0,
            RecoveryConfig {
                heartbeat_secs: Some(0.5),
                ..RecoveryConfig::default()
            },
        ),
        (
            "checkpoint",
            RecoveryKind::Checkpoint,
            19,
            0.02,
            RecoveryConfig {
                crash_repair_secs: 5.0,
                strategy: RecoveryStrategy::Checkpoint {
                    interval_secs: 6.0,
                    snapshot_bytes: 4096,
                },
                ..RecoveryConfig::default()
            },
        ),
    ];
    for (name, kind, seed, p_crash, recovery) in profiles {
        let run = |sharded: bool| {
            let appfit = Arc::new(AppFit::new(AppFitConfig::new(Fit::new(total * 0.5), n)));
            let policy: Arc<dyn appfit_core::ReplicationPolicy> = match name {
                "crash" => Arc::clone(&appfit) as _,
                "preempt" => Arc::new(RandomPolicy::new(0.4, 77)),
                "heartbeat" => Arc::new(ReplicateAll),
                _ => Arc::new(ReplicateNone),
            };
            let cfg = SimConfig {
                cluster: cluster(1),
                cost: CostModel::default(),
                policy,
                faults: Arc::new(SeededInjector::new(seed)),
                injection: InjectionConfig::PerTask {
                    p_due: 0.04,
                    p_sdc: 0.06,
                    p_crash,
                },
                recovery,
            };
            let report = if sharded {
                simulate_sharded(&g, &cfg, &ShardedConfig::auto(&g, &cfg, 1))
            } else {
                simulate(&g, &cfg)
            };
            let bits = (
                appfit.current_fit().value().to_bits(),
                appfit.decided(),
                appfit.replicated(),
            );
            (report, bits)
        };
        let (reference, ref_bits) = run(false);
        assert!(
            reference.recovery().iter().any(|r| r.kind == kind),
            "{name}: the profile must produce a {kind:?} event"
        );
        let (got, bits) = run(true);
        assert_eq!(
            reference.recovery(),
            got.recovery(),
            "{name}: recovery stream"
        );
        assert_eq!(reference, got, "{name}: report");
        assert_eq!(ref_bits, bits, "{name}: App_FIT bits");
    }
}
