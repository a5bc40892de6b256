//! Decision-sequence evaluation: runs a policy over a task stream and
//! reports the metrics the paper's Figure 3 plots.

use fit_model::TaskRates;

use crate::policy::{DecisionCtx, ReplicationPolicy};

/// One task as seen by the decision layer: its estimated rates and its
/// (measured or modelled) execution time.
#[derive(Debug, Clone, Copy)]
pub struct TaskSample {
    /// Estimated failure rates (from argument sizes).
    pub rates: TaskRates,
    /// Argument footprint in bytes.
    pub argument_bytes: u64,
    /// Execution time in seconds — the weight of the "% computation
    /// time replicated" metric.
    pub duration: f64,
}

/// Aggregate result of running one policy over one task stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySummary {
    /// Policy display name.
    pub policy: &'static str,
    /// Number of tasks decided.
    pub n_tasks: usize,
    /// Number replicated.
    pub replicated_tasks: usize,
    /// Fraction of tasks replicated (paper Fig. 3, "% of tasks").
    pub task_fraction: f64,
    /// Fraction of computation time replicated (paper Fig. 3, "% of
    /// computation time" — the extra compute replication adds).
    pub time_fraction: f64,
    /// FIT left unprotected — must stay below the threshold for
    /// App_FIT (paper footnote 3: "lower and close to the specified").
    pub unprotected_fit: f64,
    /// Total FIT of the task stream (what running with no protection
    /// would accumulate).
    pub total_fit: f64,
}

/// Feeds `tasks` through `policy` in order (ids are stream positions)
/// and aggregates the Figure-3 metrics.
pub fn evaluate_policy(policy: &dyn ReplicationPolicy, tasks: &[TaskSample]) -> PolicySummary {
    let mut replicated_tasks = 0usize;
    let mut replicated_time = 0.0f64;
    let mut total_time = 0.0f64;
    let mut unprotected_fit = 0.0f64;
    let mut total_fit = 0.0f64;
    for (i, t) in tasks.iter().enumerate() {
        let ctx = DecisionCtx {
            id: i as u64,
            rates: t.rates,
            argument_bytes: t.argument_bytes,
        };
        let replicate = policy.decide(&ctx);
        let lambda = t.rates.total().value();
        total_fit += lambda;
        total_time += t.duration;
        if replicate {
            replicated_tasks += 1;
            replicated_time += t.duration;
        } else {
            unprotected_fit += lambda;
        }
    }
    let n = tasks.len();
    PolicySummary {
        policy: policy.name(),
        n_tasks: n,
        replicated_tasks,
        task_fraction: if n == 0 {
            0.0
        } else {
            replicated_tasks as f64 / n as f64
        },
        time_fraction: if total_time == 0.0 {
            0.0
        } else {
            replicated_time / total_time
        },
        unprotected_fit,
        total_fit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appfit::{AppFit, AppFitConfig};
    use crate::policy::{ReplicateAll, ReplicateNone};
    use fit_model::Fit;

    fn stream(spec: &[(f64, f64)]) -> Vec<TaskSample> {
        spec.iter()
            .map(|&(lam, dur)| TaskSample {
                rates: TaskRates::new(Fit::new(lam), Fit::ZERO),
                argument_bytes: (lam * 1000.0) as u64,
                duration: dur,
            })
            .collect()
    }

    #[test]
    fn replicate_all_fractions_are_one() {
        let s = stream(&[(1.0, 2.0), (2.0, 3.0)]);
        let sum = evaluate_policy(&ReplicateAll, &s);
        assert_eq!(sum.task_fraction, 1.0);
        assert_eq!(sum.time_fraction, 1.0);
        assert_eq!(sum.unprotected_fit, 0.0);
        assert_eq!(sum.total_fit, 3.0);
    }

    #[test]
    fn replicate_none_fractions_are_zero() {
        let s = stream(&[(1.0, 2.0), (2.0, 3.0)]);
        let sum = evaluate_policy(&ReplicateNone, &s);
        assert_eq!(sum.task_fraction, 0.0);
        assert_eq!(sum.time_fraction, 0.0);
        assert_eq!(sum.unprotected_fit, 3.0);
    }

    #[test]
    fn appfit_through_evaluator_respects_threshold() {
        let s = stream(&[(1.0, 1.0); 64]);
        let h = AppFit::new(AppFitConfig::new(Fit::new(16.0), 64));
        let sum = evaluate_policy(&h, &s);
        assert!(sum.unprotected_fit <= 16.0 + 1e-9);
        // Budget admits a quarter of the tasks.
        assert!(
            (sum.task_fraction - 0.75).abs() < 0.05,
            "{}",
            sum.task_fraction
        );
    }

    #[test]
    fn time_fraction_weighs_durations() {
        // Replicated task carries 9/10 of the time.
        let s = stream(&[(10.0, 9.0), (0.0, 1.0)]);
        let h = AppFit::new(AppFitConfig::new(Fit::new(1.0), 2));
        let sum = evaluate_policy(&h, &s);
        assert_eq!(sum.replicated_tasks, 1);
        assert!((sum.time_fraction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stream() {
        let sum = evaluate_policy(&ReplicateAll, &[]);
        assert_eq!(sum.n_tasks, 0);
        assert_eq!(sum.task_fraction, 0.0);
        assert_eq!(sum.time_fraction, 0.0);
    }
}
