//! End-to-end integration: every Table-I workload through the threaded
//! runtime with the full protection stack (App_FIT + replication +
//! fault injection), verifying numerics and the reliability guarantee.

use std::sync::Arc;

use appfit::dataflow::{DataArena, Executor, Region, TaskGraph, TaskSpec};
use appfit::fault::{InjectionConfig, SeededInjector};
use appfit::fit::{Fit, RateModel};
use appfit::heuristic::{AppFit, AppFitConfig, DecisionCtx, ReplicateAll, ReplicationPolicy};
use appfit::replication::ReplicationEngine;
use appfit::scenario::{preset, rate_model, run_on};
use appfit::sim::SimGraph;
use appfit::workloads::{all_workloads, Scale};

/// Today's FIT of a graph = Σ task rates at 1×.
fn todays_fit(graph: &appfit::dataflow::TaskGraph) -> f64 {
    let model = RateModel::roadrunner();
    graph
        .tasks()
        .map(|t| {
            model
                .rates_for_arguments(t.accesses.iter().map(|a| a.bytes()))
                .total()
                .value()
        })
        .sum()
}

#[test]
fn every_workload_verifies_unprotected() {
    for w in all_workloads() {
        let built = w.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        Executor::new(2).run(&built.graph, &mut arena);
        (built.verify)(&mut arena).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn every_workload_verifies_under_complete_replication_with_faults() {
    // Complete replication + injected faults: results must stay correct
    // because every task is protected.
    for w in all_workloads() {
        let built = w.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        let engine = Arc::new(
            ReplicationEngine::new(Arc::new(ReplicateAll), RateModel::roadrunner()).with_faults(
                Arc::new(SeededInjector::new(0xC0FFEE)),
                InjectionConfig::PerTask {
                    p_due: 0.02,
                    p_sdc: 0.05,
                    p_crash: 0.0,
                },
            ),
        );
        let log = engine.log();
        let report = Executor::new(2)
            .with_hooks(engine)
            .run(&built.graph, &mut arena);
        (built.verify)(&mut arena).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(
            log.counts().uncovered_sdc,
            0,
            "{}: complete replication must cover all SDCs",
            w.name()
        );
        assert_eq!(report.replicated_task_fraction(), 1.0, "{}", w.name());
    }
}

#[test]
fn appfit_meets_threshold_on_every_workload() {
    // The paper's core guarantee, end to end on the real runtime: run
    // each workload at 10× rates with the threshold at today's FIT and
    // check the accumulated unprotected FIT never exceeds it.
    for w in all_workloads() {
        let built = w.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        let threshold = todays_fit(&built.graph);
        let n = built.graph.compute_task_count() as u64;
        let policy = Arc::new(AppFit::new(AppFitConfig::new(Fit::new(threshold), n)));
        let engine = Arc::new(ReplicationEngine::new(
            Arc::clone(&policy) as Arc<dyn ReplicationPolicy>,
            RateModel::roadrunner().with_multiplier(10.0),
        ));
        let report = Executor::new(2)
            .with_hooks(engine)
            .run(&built.graph, &mut arena);
        (built.verify)(&mut arena).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            policy.current_fit().value() <= threshold * (1.0 + 1e-9),
            "{}: unprotected FIT {} exceeds threshold {}",
            w.name(),
            policy.current_fit().value(),
            threshold
        );
        // Selective: strictly cheaper than complete replication, but
        // protection at 10× rates with a 1× budget cannot be free.
        let frac = report.replicated_task_fraction();
        assert!(frac > 0.0 && frac < 1.0, "{}: fraction {frac}", w.name());
    }
}

#[test]
fn uncovered_sdc_actually_corrupts_results() {
    // Negative control: with no replication and aggressive SDC
    // injection, at least one workload verifier must fail — proving
    // verifiers detect corruption and injection is real.
    use appfit::heuristic::ReplicateNone;
    let mut any_corrupted = false;
    for w in all_workloads() {
        let built = w.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        let engine = Arc::new(
            ReplicationEngine::new(Arc::new(ReplicateNone), RateModel::roadrunner()).with_faults(
                Arc::new(SeededInjector::new(13)),
                InjectionConfig::PerTask {
                    p_due: 0.0,
                    p_sdc: 0.3,
                    p_crash: 0.0,
                },
            ),
        );
        let log = engine.log();
        Executor::sequential()
            .with_hooks(engine)
            .run(&built.graph, &mut arena);
        if log.counts().uncovered_sdc > 0 && (built.verify)(&mut arena).is_err() {
            any_corrupted = true;
        }
    }
    assert!(
        any_corrupted,
        "SDC injection must corrupt unprotected results"
    );
}

#[test]
fn parallel_and_sequential_protected_runs_agree() {
    // Replication must not perturb results regardless of thread count.
    use appfit::workloads::matmul::Matmul;
    use appfit::workloads::Workload;
    let reference = {
        let built = Matmul.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        Executor::sequential().run(&built.graph, &mut arena);
        let c = appfit::dataflow::BufferId::from_raw(2);
        arena.read(c).to_vec()
    };
    for threads in [1usize, 2, 4] {
        let built = Matmul.build(Scale::Small, 1, true);
        let mut arena = built.arena;
        let engine = Arc::new(ReplicationEngine::new(
            Arc::new(ReplicateAll),
            RateModel::roadrunner(),
        ));
        Executor::new(threads)
            .with_hooks(engine)
            .run(&built.graph, &mut arena);
        let c = appfit::dataflow::BufferId::from_raw(2);
        assert_eq!(arena.read(c), &reference[..], "threads={threads}");
    }
}

/// App_FIT's N counts compute tasks only: `taskwait` barriers are never
/// decided, so the scenario runner must not budget for them.
#[test]
fn scenario_appfit_budget_excludes_barriers() {
    // Every task updates `token`, so the graph is a chain and the
    // engine decides in id order; the read buffers vary the rates.
    let mut arena = DataArena::new();
    let token = arena.alloc_virtual("token", 1);
    let mut graph = TaskGraph::new();
    for i in 0..60 {
        let len = 1 + (i * 37) % 500;
        let buf = arena.alloc_virtual("in", len);
        graph.submit(
            TaskSpec::new("work")
                .reads(Region::full(buf, len))
                .updates(Region::full(token, 1)),
        );
        if i % 4 == 3 {
            graph.taskwait();
        }
    }
    // One fault-free node, App_FIT at a 50 % target, sequential engine.
    let spec = preset("fig4-cholesky").expect("catalog preset");
    let sim = SimGraph::from_task_graph(&graph, &rate_model(&spec), |_| 0);
    let outcome = run_on(&spec, &sim, None).expect("runs");

    let compute: Vec<_> = sim.tasks().iter().filter(|t| !t.is_barrier).collect();
    let threshold = outcome.appfit.expect("App_FIT stats").threshold;
    let h = AppFit::new(AppFitConfig::new(Fit::new(threshold), compute.len() as u64));
    let expected: Vec<bool> = compute
        .iter()
        .map(|t| {
            h.decide(&DecisionCtx {
                id: t.id as u64,
                rates: t.rates,
                argument_bytes: t.argument_bytes,
            })
        })
        .collect();
    let replicated: Vec<bool> = outcome
        .report
        .records()
        .iter()
        .filter(|r| !r.is_barrier)
        .map(|r| r.replicated)
        .collect();
    assert!(expected.contains(&true) && expected.contains(&false));
    assert_eq!(replicated, expected);
}
