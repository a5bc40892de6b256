//! The named preset catalog: one scenario per experiment family of the
//! paper's Figures 3–6, plus million-task stress scenarios and a
//! seconds-scale smoke preset for CI.
//!
//! Presets are ordinary [`ScenarioSpec`] values — render one with
//! `preset("fig5-cholesky").unwrap().to_string()` to get a spec file
//! to edit, or run it directly via [`crate::run`].

use workloads::{all_workloads, Scale, WorkloadKind};

use crate::spec::{
    CheckpointSpec, EngineSpec, EpochSpec, FaultSpec, LookaheadSpec, PolicySpec, RecoverySpec,
    ScenarioSpec, SweepSection, SyncSpec, TargetSpec, TopologySpec, WorkloadSpec,
};

/// No injection; rates still scaled by the multiplier.
fn clean_faults(multiplier: f64) -> FaultSpec {
    FaultSpec {
        multiplier,
        p_due: 0.0,
        p_sdc: 0.0,
        seed: 2016,
        ..FaultSpec::default()
    }
}

/// 1 % per-task faults, split evenly DUE/SDC.
fn faulty(multiplier: f64) -> FaultSpec {
    FaultSpec {
        multiplier,
        p_due: 0.005,
        p_sdc: 0.005,
        seed: 2016,
        ..FaultSpec::default()
    }
}

fn bench(name: &str, scale: Scale, streamed: bool) -> WorkloadSpec {
    WorkloadSpec::Bench {
        bench: name.to_string(),
        scale,
        streamed,
    }
}

fn appfit(fraction: f64) -> PolicySpec {
    PolicySpec::AppFit {
        target: TargetSpec::Fraction(fraction),
    }
}

fn sharded(shards: usize, threads: usize) -> EngineSpec {
    EngineSpec::Sharded {
        shards,
        epoch: EpochSpec::Auto,
        threads,
        sync: SyncSpec::Epoch,
    }
}

fn lookahead(shards: usize, threads: usize, lookahead: LookaheadSpec) -> EngineSpec {
    EngineSpec::Sharded {
        shards,
        epoch: EpochSpec::Auto,
        threads,
        sync: SyncSpec::Lookahead(lookahead),
    }
}

/// All presets, in catalog order.
pub fn presets() -> Vec<ScenarioSpec> {
    let mut out = Vec::new();

    // CI smoke: small synthetic, App_FIT split, faults on, sharded —
    // exercises every pipeline stage in well under a second.
    out.push(ScenarioSpec {
        name: "smoke".into(),
        topology: TopologySpec::distributed(4),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 4,
            tasks_per_chain: 32,
            flops_per_task: 2.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 18,
            cross_node_every: 4,
            seed: 2016,
        },
        faults: faulty(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: sharded(2, 2),
        sweep: None,
    });

    // The smoke scenario with a small `[sweep]` grid bolted on: a
    // 2×2×2 cartesian over fault rate, App_FIT target fraction and
    // seed (8 cells, one shared graph). CI's serve smoke submits this
    // to the resident service and diffs every cell against a direct
    // run.
    out.push(ScenarioSpec {
        name: "grid-smoke".into(),
        topology: TopologySpec::distributed(4),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 4,
            tasks_per_chain: 32,
            flops_per_task: 2.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 18,
            cross_node_every: 4,
            seed: 2016,
        },
        faults: faulty(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: sharded(2, 2),
        sweep: Some(SweepSection {
            fault_rate: vec![0.005, 0.02],
            target_fraction: vec![0.25, 0.75],
            seed: vec![2016, 4032],
            ..SweepSection::default()
        }),
    });

    // The smoke scenario under conservative-lookahead synchronization:
    // cross-node activations arrive one interconnect-latency-floor
    // after production instead of quantizing to epoch barriers. CI
    // runs it as the lookahead pipeline smoke.
    out.push(ScenarioSpec {
        name: "smoke-lookahead".into(),
        topology: TopologySpec::distributed(4),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 4,
            tasks_per_chain: 32,
            flops_per_task: 2.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 18,
            cross_node_every: 4,
            seed: 2016,
        },
        faults: faulty(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: lookahead(2, 2, LookaheadSpec::Auto),
        sweep: None,
    });

    // Figure 3 — App_FIT replication percentages per benchmark at a
    // 50 % target under 10× error rates; shared-memory benchmarks on
    // one 16-core node, distributed ones on the 64-node cluster.
    for w in all_workloads() {
        let (topology, engine) = match w.kind() {
            WorkloadKind::SharedMemory => (TopologySpec::shared_memory(16), EngineSpec::Sequential),
            WorkloadKind::Distributed => (TopologySpec::distributed(64), sharded(8, 2)),
        };
        out.push(ScenarioSpec {
            name: format!("fig3-{}", w.name().to_lowercase()),
            topology,
            workload: bench(w.name(), Scale::Medium, false),
            faults: clean_faults(10.0),
            policy: appfit(0.5),
            recovery: RecoverySpec::default(),
            engine,
            sweep: None,
        });
    }

    // Figure 4 — replication overhead: App_FIT on a fault-free
    // shared-memory node (compare with a replicate-none run).
    out.push(ScenarioSpec {
        name: "fig4-cholesky".into(),
        topology: TopologySpec::shared_memory(16),
        workload: bench("Cholesky", Scale::Medium, false),
        faults: clean_faults(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: EngineSpec::Sequential,
        sweep: None,
    });
    out.push(ScenarioSpec {
        name: "fig4-stream".into(),
        topology: TopologySpec::shared_memory(16),
        workload: bench("Stream", Scale::Medium, false),
        faults: clean_faults(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: EngineSpec::Sequential,
        sweep: None,
    });

    // Figure 5 — shared-memory scalability under complete replication
    // with faults (one representative core count; sweep cores by
    // editing the spec).
    out.push(ScenarioSpec {
        name: "fig5-cholesky".into(),
        topology: TopologySpec::shared_memory(16),
        workload: bench("Cholesky", Scale::Medium, false),
        faults: faulty(10.0),
        policy: PolicySpec::ReplicateAll,
        recovery: RecoverySpec::default(),
        engine: EngineSpec::Sequential,
        sweep: None,
    });

    // Figure 6 — distributed scalability: paper-scale Linpack over the
    // 64-node, 1024-core cluster under complete replication.
    out.push(ScenarioSpec {
        name: "fig6-linpack".into(),
        topology: TopologySpec::distributed(64),
        workload: bench("Linpack", Scale::Paper, false),
        faults: faulty(10.0),
        policy: PolicySpec::ReplicateAll,
        recovery: RecoverySpec::default(),
        engine: sharded(8, 4),
        sweep: None,
    });

    // The sweep driver's largest cell as a named scenario: 1,048,576
    // synthetic tasks over 1024 machines, App_FIT at 25 %.
    out.push(ScenarioSpec {
        name: "sweep-1m".into(),
        topology: TopologySpec::distributed(1024),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 16,
            tasks_per_chain: 64,
            flops_per_task: 4.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 20,
            cross_node_every: 8,
            seed: 2016,
        },
        faults: faulty(10.0),
        policy: appfit(0.25),
        recovery: RecoverySpec::default(),
        engine: sharded(32, 8),
        sweep: None,
    });

    // The same million-task cell under conservative lookahead: a 10 ms
    // activation delay (≫ the 1.5 µs wire floor, ≪ the ~0.8 s auto
    // epoch) trades some of epoch mode's batching throughput for
    // cross-node timing ~80× tighter than the epoch quantization —
    // `bench/`'s `lookahead-1m` workload tracks its throughput next to
    // `epoch-1m`'s (`sweep-1m`).
    out.push(ScenarioSpec {
        name: "lookahead-1m".into(),
        topology: TopologySpec::distributed(1024),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 16,
            tasks_per_chain: 64,
            flops_per_task: 4.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 20,
            cross_node_every: 8,
            seed: 2016,
        },
        faults: faulty(10.0),
        policy: appfit(0.25),
        recovery: RecoverySpec::default(),
        engine: lookahead(32, 8, LookaheadSpec::Ns(1.0e7)),
        sweep: None,
    });

    // Million-task Table-I stress scenarios through the streamed path.
    out.push(ScenarioSpec {
        name: "stress-huge-matmul".into(),
        topology: TopologySpec::distributed(64),
        workload: bench("Matmul", Scale::Huge, true),
        faults: faulty(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: sharded(16, 4),
        sweep: None,
    });
    out.push(ScenarioSpec {
        name: "stress-huge-cholesky".into(),
        topology: TopologySpec::shared_memory(16),
        workload: bench("Cholesky", Scale::Huge, true),
        faults: faulty(10.0),
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: EngineSpec::Sequential,
        sweep: None,
    });
    out.push(ScenarioSpec {
        name: "stress-huge-pingpong".into(),
        topology: TopologySpec::distributed(64),
        workload: bench("Pingpong", Scale::Huge, true),
        faults: faulty(10.0),
        policy: appfit(0.25),
        recovery: RecoverySpec::default(),
        engine: sharded(16, 4),
        sweep: None,
    });

    // Fail-stop sweep: machines crash mid-run (2 % of tasks draw a
    // NodeCrash), losing every task in flight on the victim, and come
    // back after a 5 s outage. Small enough that `verify.sh` records,
    // replays and diffs it in well under a second.
    out.push(ScenarioSpec {
        name: "crash-sweep".into(),
        topology: TopologySpec::distributed(4),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 4,
            tasks_per_chain: 32,
            flops_per_task: 2.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 18,
            cross_node_every: 4,
            seed: 2016,
        },
        faults: FaultSpec {
            multiplier: 10.0,
            p_due: 0.004,
            p_sdc: 0.004,
            p_crash: 0.02,
            seed: 2016,
            crash_repair_secs: 5.0,
            preempt: None,
        },
        policy: appfit(0.5),
        recovery: RecoverySpec::default(),
        engine: sharded(2, 2),
        sweep: None,
    });

    // Preemptible machines at the million-task cell: every node runs a
    // seeded on/off availability trace (up an hour, down a minute —
    // Trua-style spot semantics) through the same unavailability
    // machinery as crashes.
    out.push(ScenarioSpec {
        name: "preempt-1m".into(),
        topology: TopologySpec::distributed(1024),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 16,
            tasks_per_chain: 64,
            flops_per_task: 4.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 20,
            cross_node_every: 8,
            seed: 2016,
        },
        faults: FaultSpec {
            multiplier: 10.0,
            p_due: 0.005,
            p_sdc: 0.005,
            preempt: Some(cluster_sim::PreemptSpec {
                up_secs: 3600.0,
                down_secs: 60.0,
                seed: 2016,
            }),
            ..FaultSpec::default()
        },
        policy: appfit(0.25),
        recovery: RecoverySpec::default(),
        engine: sharded(32, 8),
        sweep: None,
    });

    // Checkpoint/restart as the rival of replication: no replicas at
    // all — crashed work restarts from the last 30 s snapshot instead
    // (`repro -- ablate-recovery` compares the two at equal overhead).
    out.push(ScenarioSpec {
        name: "ckpt-vs-rep".into(),
        topology: TopologySpec::distributed(4),
        workload: WorkloadSpec::Synthetic {
            chains_per_node: 4,
            tasks_per_chain: 32,
            flops_per_task: 2.0e8,
            jitter: 0.25,
            argument_bytes: 1 << 18,
            cross_node_every: 4,
            seed: 2016,
        },
        faults: FaultSpec {
            multiplier: 10.0,
            p_due: 0.005,
            p_sdc: 0.0,
            p_crash: 0.02,
            seed: 2016,
            crash_repair_secs: 5.0,
            preempt: None,
        },
        policy: PolicySpec::ReplicateNone,
        recovery: RecoverySpec {
            heartbeat_secs: None,
            checkpoint: Some(CheckpointSpec {
                interval_secs: 30.0,
                snapshot_bytes: 1 << 20,
            }),
        },
        engine: sharded(2, 2),
        sweep: None,
    });

    out
}

/// Every preset name, in catalog order.
pub fn preset_names() -> Vec<String> {
    presets().into_iter().map(|p| p.name).collect()
}

/// Looks a preset up by name.
pub fn preset(name: &str) -> Option<ScenarioSpec> {
    presets().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_nonempty_and_unique() {
        let names = preset_names();
        assert!(names.len() >= 15, "got {}", names.len());
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate preset names");
    }

    #[test]
    fn every_preset_validates_and_round_trips() {
        for p in presets() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let text = p.to_string();
            let back = ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert_eq!(p, back, "{} round trip", p.name);
        }
    }

    #[test]
    fn figures_three_through_six_are_covered() {
        let names = preset_names();
        for family in ["fig3-", "fig4-", "fig5-", "fig6-"] {
            assert!(
                names.iter().any(|n| n.starts_with(family)),
                "missing {family} preset"
            );
        }
        assert!(names.iter().any(|n| n.starts_with("stress-")));
        assert!(names.contains(&"smoke".to_string()));
    }

    #[test]
    fn lookup_by_name() {
        assert!(preset("smoke").is_some());
        assert!(preset("fig3-cholesky").is_some());
        assert!(preset("nope").is_none());
    }

    #[test]
    fn recovery_presets_exercise_each_fault_class() {
        let crash = preset("crash-sweep").unwrap();
        assert!(crash.faults.p_crash > 0.0);
        let pre = preset("preempt-1m").unwrap();
        assert!(pre.faults.preempt.is_some());
        let ckpt = preset("ckpt-vs-rep").unwrap();
        assert!(ckpt.recovery.checkpoint.is_some());
        assert_eq!(ckpt.policy, PolicySpec::ReplicateNone);
    }
}
