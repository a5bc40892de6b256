//! Property-based tests of the App_FIT invariants and the oracles.

use appfit_core::{
    evaluate_policy, oracle_dp, oracle_greedy, AppFit, AppFitConfig, ChargeOn, DecisionCtx,
    EpochDecision, ReplicationPolicy, TaskSample,
};
use fit_model::{Fit, TaskRates};
use proptest::prelude::*;

fn lambda_stream() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..100.0, 1..200)
}

fn ctx(id: u64, lambda: f64) -> DecisionCtx {
    DecisionCtx {
        id,
        rates: TaskRates::new(Fit::new(lambda), Fit::ZERO),
        argument_bytes: 0,
    }
}

proptest! {
    /// **The paper's central guarantee**: with residual 0, the FIT
    /// accumulated by unprotected tasks never exceeds the threshold —
    /// for any task stream, any threshold, either charging discipline.
    #[test]
    fn threshold_never_exceeded(
        lambdas in lambda_stream(),
        threshold in 0.0f64..1000.0,
        charge_on_completion in proptest::bool::ANY,
    ) {
        let config = AppFitConfig {
            charge_on: if charge_on_completion { ChargeOn::Completion } else { ChargeOn::Decision },
            ..AppFitConfig::new(Fit::new(threshold), lambdas.len() as u64)
        };
        let h = AppFit::new(config);
        for (i, &lam) in lambdas.iter().enumerate() {
            let c = ctx(i as u64, lam);
            let r = h.decide(&c);
            h.on_complete(&c, r);
        }
        prop_assert!(h.current_fit().value() <= threshold + threshold * 1e-12 + 1e-9,
            "current_fit {} > threshold {}", h.current_fit().value(), threshold);
    }

    /// Intermediate prefixes also respect the pro-rated budget: after i
    /// decisions, current_fit ≤ (threshold/N)·i (+ float slack). This is
    /// the "while the application is executing, the threshold is never
    /// exceeded" property.
    #[test]
    fn prorated_budget_respected_at_every_step(
        lambdas in lambda_stream(),
        threshold in 0.0f64..500.0,
    ) {
        let n = lambdas.len() as u64;
        let h = AppFit::new(AppFitConfig::new(Fit::new(threshold), n));
        for (i, &lam) in lambdas.iter().enumerate() {
            h.decide(&ctx(i as u64, lam));
            let budget = (threshold / n as f64) * (i as f64 + 1.0);
            prop_assert!(h.current_fit().value() <= budget + budget * 1e-12 + 1e-9);
        }
    }

    /// Monotonicity in the threshold: a looser target never replicates
    /// more tasks (uniform streams).
    #[test]
    fn threshold_monotonicity_uniform(
        lam in 0.01f64..10.0,
        n in 1usize..300,
        t1 in 0.0f64..100.0,
        t2 in 0.0f64..100.0,
    ) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let run = |th: f64| {
            let h = AppFit::new(AppFitConfig::new(Fit::new(th), n as u64));
            (0..n).filter(|&i| h.decide(&ctx(i as u64, lam))).count()
        };
        prop_assert!(run(hi) <= run(lo));
    }

    /// The oracles always produce feasible plans, and the DP — exact on
    /// its ceil-rounded instance — dominates any other plan feasible on
    /// those rounded weights, in particular a density greedy run on
    /// them. (Against the *continuous* greedy no domination is provable:
    /// rounding can exclude packings that sit within `n/grid` of the
    /// capacity; `oracle::tests` checks near-optimality against brute
    /// force on small instances instead.)
    #[test]
    fn oracles_feasible_dp_dominates_rounded_greedy(
        spec in proptest::collection::vec((0.0f64..10.0, 0.0f64..50.0), 1..40),
        threshold in 0.001f64..80.0,
    ) {
        const GRID: usize = 20_000;
        let tasks: Vec<(TaskRates, f64)> = spec
            .iter()
            .map(|&(l, c)| (TaskRates::new(Fit::new(l), Fit::ZERO), c))
            .collect();
        let dp = oracle_dp(&tasks, threshold, GRID);
        let greedy = oracle_greedy(&tasks, threshold);
        prop_assert!(dp.unprotected_fit <= threshold + 1e-9);
        prop_assert!(greedy.unprotected_fit <= threshold + 1e-9);

        // Greedy on the same rounded weights the DP used.
        let weights: Vec<usize> = spec
            .iter()
            .map(|&(l, _)| ((l / threshold) * GRID as f64).ceil() as usize)
            .collect();
        let mut order: Vec<usize> = (0..spec.len()).collect();
        order.sort_by(|&a, &b| {
            let da = if weights[a] == 0 { f64::INFINITY } else { spec[a].1 / weights[a] as f64 };
            let db = if weights[b] == 0 { f64::INFINITY } else { spec[b].1 / weights[b] as f64 };
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut budget = GRID;
        let mut rounded_greedy_kept = 0.0;
        for &i in &order {
            if weights[i] <= budget {
                budget -= weights[i];
                rounded_greedy_kept += spec[i].1;
            }
        }

        let total: f64 = spec.iter().map(|&(_, c)| c).sum();
        let dp_kept = total - dp.replicated_cost;
        prop_assert!(dp_kept >= rounded_greedy_kept - 1e-9,
            "dp kept {dp_kept} < rounded greedy kept {rounded_greedy_kept}");
    }

    /// App_FIT's unprotected FIT through the evaluator equals the sum of
    /// the λ of unreplicated tasks (accounting consistency).
    #[test]
    fn evaluator_accounting_consistent(
        spec in proptest::collection::vec((0.0f64..10.0, 0.001f64..10.0), 1..100),
        threshold in 0.0f64..100.0,
    ) {
        let samples: Vec<TaskSample> = spec
            .iter()
            .map(|&(l, d)| TaskSample {
                rates: TaskRates::new(Fit::new(l), Fit::ZERO),
                argument_bytes: 0,
                duration: d,
            })
            .collect();
        let h = AppFit::new(AppFitConfig::new(Fit::new(threshold), samples.len() as u64));
        let sum = evaluate_policy(&h, &samples);
        // The heuristic's internal accumulator agrees with the
        // evaluator's external bookkeeping.
        prop_assert!((sum.unprotected_fit - h.current_fit().value()).abs()
            <= sum.total_fit * 1e-12 + 1e-9);
        prop_assert!(sum.task_fraction >= 0.0 && sum.task_fraction <= 1.0);
        prop_assert!(sum.time_fraction >= 0.0 && sum.time_fraction <= 1.0);
    }

    /// One fork serving `k` views decides bit for bit like `k`
    /// independent forks each fed its view's subsequence — views share
    /// the committed snapshot and nothing else — and the index-free
    /// `decide` / `on_replica_failed` are view 0.
    #[test]
    fn fork_views_equal_independent_forks(
        committed in proptest::collection::vec((0.0f64..100.0, proptest::bool::ANY), 0..20),
        stream in proptest::collection::vec((0usize..5, 0.0f64..100.0, proptest::bool::ANY), 1..200),
        threshold in 0.0f64..2000.0,
        residual in 0.0f64..1.0,
    ) {
        let config = AppFitConfig {
            residual_factor: residual,
            ..AppFitConfig::new(Fit::new(threshold), (committed.len() + stream.len()) as u64)
        };
        let h = AppFit::new(config);
        // A non-trivial snapshot for every fork to start from.
        let prior: Vec<EpochDecision> = committed
            .iter()
            .enumerate()
            .map(|(i, &(lam, replicate))| EpochDecision {
                ctx: ctx(i as u64, lam),
                replicate,
                replica_lagged: false,
            })
            .collect();
        h.commit_epoch(&prior);

        let mut shared = h.fork_epoch();
        let mut independent: Vec<_> = (0..5).map(|_| h.fork_epoch()).collect();
        let mut plain = h.fork_epoch();
        for (i, &(view, lam, lagged)) in stream.iter().enumerate() {
            let c = ctx(i as u64, lam);
            let got = shared.decide_at(view, &c);
            prop_assert_eq!(got, independent[view].decide_at(0, &c), "op {} view {}", i, view);
            if view == 0 {
                prop_assert_eq!(got, plain.decide(&c), "op {}: decide is view 0", i);
            }
            if got && lagged {
                shared.on_replica_failed_at(view, &c);
                independent[view].on_replica_failed_at(0, &c);
                if view == 0 {
                    plain.on_replica_failed(&c);
                }
            }
        }
    }
}
