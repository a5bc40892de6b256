//! The App_FIT heuristic (paper §IV-B, Eq. 1).

use fit_model::Fit;
use parking_lot::Mutex;

use crate::policy::{DecisionCtx, EpochDecider, EpochDecision, ReplicationPolicy};

/// When a task's failure rate is charged to `current_fit`.
///
/// The accumulated *sum* is identical either way (FIT is additive); the
/// choice only affects which value concurrently deciding tasks observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChargeOn {
    /// Charge at decision time (default): deterministic under parallel
    /// execution, slightly conservative — in-flight unreplicated tasks
    /// are already counted.
    #[default]
    Decision,
    /// Charge when the task completes — the paper's literal wording
    /// ("after the task finishes, App FIT updates current fit").
    Completion,
}

/// Configuration of an [`AppFit`] instance.
#[derive(Debug, Clone, Copy)]
pub struct AppFitConfig {
    /// The application's reliability target (FIT threshold) — the
    /// user-facing knob of the paper's usage scenario.
    pub threshold: Fit,
    /// Total number of tasks `N`, which the paper assumes the user (or
    /// runtime) knows up front.
    pub n_tasks: u64,
    /// Residual fraction of a replicated task's rate still charged
    /// (models double faults; the paper treats replicated tasks as
    /// fully covered, i.e. 0 — the default). Non-zero residuals void
    /// the strict threshold guarantee (Eq. 1 does not see them).
    pub residual_factor: f64,
    /// Charging discipline (see [`ChargeOn`]).
    pub charge_on: ChargeOn,
}

impl AppFitConfig {
    /// Paper-default configuration for a threshold and task count.
    pub fn new(threshold: Fit, n_tasks: u64) -> Self {
        AppFitConfig {
            threshold,
            n_tasks,
            residual_factor: 0.0,
            charge_on: ChargeOn::Decision,
        }
    }
}

#[derive(Debug, Default)]
struct State {
    /// Accumulated FIT of unprotected computation so far.
    current_fit: f64,
    /// Number of decisions taken (`i` in Eq. 1).
    decided: u64,
    /// How many of those decisions were "replicate".
    replicated: u64,
}

/// The App_FIT selective-replication heuristic.
///
/// ```
/// use appfit_core::{AppFit, AppFitConfig, DecisionCtx, ReplicationPolicy};
/// use fit_model::{Fit, TaskRates};
///
/// // 4 tasks of 1 FIT each; target: at most 2 FIT unprotected.
/// let h = AppFit::new(AppFitConfig::new(Fit::new(2.0), 4));
/// let t = |id| DecisionCtx {
///     id,
///     rates: TaskRates::new(Fit::new(1.0), Fit::ZERO),
///     argument_bytes: 0,
/// };
/// // Budget grows by 0.5 per task: replicate, run, replicate, run.
/// assert!(h.decide(&t(0)));
/// assert!(!h.decide(&t(1)));
/// assert!(h.decide(&t(2)));
/// assert!(!h.decide(&t(3)));
/// assert!(h.current_fit().value() <= 2.0);
/// ```
#[derive(Debug)]
pub struct AppFit {
    config: AppFitConfig,
    state: Mutex<State>,
}

impl AppFit {
    /// Creates the heuristic for one application run.
    pub fn new(config: AppFitConfig) -> Self {
        assert!(config.n_tasks > 0, "task count must be positive");
        assert!(
            config.threshold.value() >= 0.0,
            "threshold must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&config.residual_factor),
            "residual factor must be in [0, 1]"
        );
        AppFit {
            config,
            state: Mutex::new(State::default()),
        }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> Fit {
        self.config.threshold
    }

    /// The FIT accumulated by unprotected computation so far — the
    /// quantity the paper's footnote 3 reports as "lower and close to
    /// the specified FITs".
    pub fn current_fit(&self) -> Fit {
        Fit::new(self.state.lock().current_fit)
    }

    /// Decisions taken so far.
    pub fn decided(&self) -> u64 {
        self.state.lock().decided
    }

    /// Replicate decisions taken so far.
    pub fn replicated(&self) -> u64 {
        self.state.lock().replicated
    }

    fn charge(state: &mut State, lambda: f64, replicated: bool, residual: f64) {
        state.current_fit += if replicated {
            lambda * residual
        } else {
            lambda
        };
    }
}

/// The Eq. 1 test itself — the single definition both the sequential
/// path ([`AppFit::decide`]) and the sharded-engine fork
/// ([`AppFitEpochFork`]) evaluate, so the two can never drift apart:
/// would running a task with rate `lambda` unprotected push
/// `current_fit` past the pro-rated budget after `decided` decisions?
#[inline]
fn eq1_replicate(config: &AppFitConfig, current_fit: f64, decided: u64, lambda: f64) -> bool {
    let portion = (config.threshold.value() / config.n_tasks as f64)
        * (decided + 1).min(config.n_tasks) as f64;
    current_fit + lambda > portion
}

impl ReplicationPolicy for AppFit {
    /// Eq. 1, checked atomically. The budget index is clamped at `N` so
    /// that tasks submitted beyond the declared count (if the runtime's
    /// estimate was low) never receive more than the full threshold.
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        let lambda = ctx.rates.total().value();
        let mut s = self.state.lock();
        let replicate = eq1_replicate(&self.config, s.current_fit, s.decided, lambda);
        s.decided += 1;
        if replicate {
            s.replicated += 1;
        }
        if self.config.charge_on == ChargeOn::Decision {
            Self::charge(&mut s, lambda, replicate, self.config.residual_factor);
        }
        replicate
    }

    fn on_complete(&self, ctx: &DecisionCtx, replicated: bool) {
        if self.config.charge_on == ChargeOn::Completion {
            let mut s = self.state.lock();
            Self::charge(
                &mut s,
                ctx.rates.total().value(),
                replicated,
                self.config.residual_factor,
            );
        }
    }

    /// Window fork for sharded simulation: snapshots `(current_fit, i)`
    /// and runs Eq. 1 per view against the snapshot plus that view's
    /// own charges. Within one node's dispatch sequence this reproduces
    /// the sequential heuristic exactly; across nodes the view is stale
    /// by at most one window (the engine's documented bounded-staleness
    /// contract — see `cluster-sim`'s shard module).
    fn fork_epoch(&self) -> Box<dyn EpochDecider + '_> {
        let s = self.state.lock();
        Box::new(AppFitEpochFork {
            config: self.config,
            snapshot: (s.current_fit, s.decided),
            views: Vec::new(),
        })
    }

    /// Applies the epoch's decisions to the global state in canonical
    /// order. Both charging disciplines account here: in the simulator
    /// the charge lands between one decision and the next either way,
    /// so the committed sums are identical (see [`ChargeOn`]).
    fn commit_epoch(&self, decisions: &[EpochDecision]) {
        let mut s = self.state.lock();
        for d in decisions {
            s.decided += 1;
            if d.replicate {
                s.replicated += 1;
            }
            Self::charge(
                &mut s,
                d.ctx.rates.total().value(),
                d.replicate,
                self.config.residual_factor,
            );
            if d.replica_lagged {
                // Charge-back at this decision's slot of the canonical
                // order — the same float-op sequence the sequential
                // engine performs inline, so single-node runs stay
                // bit-identical (see `on_replica_failed`).
                s.current_fit += d.ctx.rates.total().value() * (1.0 - self.config.residual_factor);
            }
        }
    }

    /// A lagging replica was abandoned and the primary ran effectively
    /// unprotected: charge the full rate back to the exposed budget.
    /// (The decision-time charge was `lambda × residual_factor`; this
    /// adds the complement so the task ends up charged exactly like an
    /// unreplicated one.)
    fn on_replica_failed(&self, ctx: &DecisionCtx) {
        let lambda = ctx.rates.total().value();
        let mut s = self.state.lock();
        s.current_fit += lambda * (1.0 - self.config.residual_factor);
    }

    fn name(&self) -> &'static str {
        "app-fit"
    }
}

/// The fork [`AppFit::fork_epoch`] hands to one shard for one window:
/// the committed `(current_fit, decided)` snapshot and one copy of it
/// per view, grown on demand and advanced by that view's decisions
/// only.
struct AppFitEpochFork {
    config: AppFitConfig,
    snapshot: (f64, u64),
    views: Vec<(f64, u64)>,
}

impl AppFitEpochFork {
    fn view(&mut self, view: usize) -> &mut (f64, u64) {
        if view >= self.views.len() {
            self.views.resize(view + 1, self.snapshot);
        }
        &mut self.views[view]
    }
}

impl EpochDecider for AppFitEpochFork {
    fn decide(&mut self, ctx: &DecisionCtx) -> bool {
        self.decide_at(0, ctx)
    }

    fn on_replica_failed(&mut self, ctx: &DecisionCtx) {
        self.on_replica_failed_at(0, ctx);
    }

    fn decide_at(&mut self, view: usize, ctx: &DecisionCtx) -> bool {
        let config = self.config;
        let (current_fit, decided) = self.view(view);
        let lambda = ctx.rates.total().value();
        let replicate = eq1_replicate(&config, *current_fit, *decided, lambda);
        *decided += 1;
        // Charge locally regardless of discipline: in virtual time the
        // sequential engine charges between this decision and the next
        // for both `ChargeOn` variants.
        *current_fit += if replicate {
            lambda * config.residual_factor
        } else {
            lambda
        };
        replicate
    }

    fn on_replica_failed_at(&mut self, view: usize, ctx: &DecisionCtx) {
        // Mirror the commit-time charge-back on the local view so later
        // in-window decisions on this node see the exposed rate — the
        // sequential engine's inline charge does the same.
        let residual = self.config.residual_factor;
        self.view(view).0 += ctx.rates.total().value() * (1.0 - residual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fit_model::TaskRates;

    fn ctx(id: u64, lambda: f64) -> DecisionCtx {
        DecisionCtx {
            id,
            rates: TaskRates::new(Fit::new(lambda), Fit::ZERO),
            argument_bytes: 0,
        }
    }

    fn run_uniform(n: u64, lambda: f64, threshold: f64) -> (u64, f64) {
        let h = AppFit::new(AppFitConfig::new(Fit::new(threshold), n));
        for i in 0..n {
            h.decide(&ctx(i, lambda));
        }
        (h.replicated(), h.current_fit().value())
    }

    #[test]
    fn zero_threshold_replicates_everything() {
        let (replicated, fit) = run_uniform(100, 1.0, 0.0);
        assert_eq!(replicated, 100);
        assert_eq!(fit, 0.0);
    }

    #[test]
    fn generous_threshold_replicates_nothing() {
        let (replicated, fit) = run_uniform(100, 1.0, 1000.0);
        assert_eq!(replicated, 0);
        assert_eq!(fit, 100.0);
    }

    #[test]
    fn half_budget_replicates_half() {
        // Uniform λ=1, threshold = N/2: the pro-rated budget admits
        // every other task.
        let (replicated, fit) = run_uniform(100, 1.0, 50.0);
        assert_eq!(replicated, 50);
        assert!(fit <= 50.0);
    }

    #[test]
    fn threshold_is_never_exceeded_uniform() {
        for &(n, lam, th) in &[(10u64, 2.0, 7.0), (1000, 0.1, 13.0), (7, 5.0, 4.9)] {
            let (_, fit) = run_uniform(n, lam, th);
            assert!(fit <= th + 1e-9, "n={n} lam={lam} th={th} fit={fit}");
        }
    }

    #[test]
    fn oversized_task_is_replicated() {
        // A single task with λ > threshold must be replicated.
        let h = AppFit::new(AppFitConfig::new(Fit::new(1.0), 1));
        assert!(h.decide(&ctx(0, 5.0)));
        assert_eq!(h.current_fit().value(), 0.0);
    }

    #[test]
    fn strict_inequality_boundary() {
        // λ exactly equal to the budget portion: Eq. 1 uses `>`, so the
        // task runs unprotected.
        let h = AppFit::new(AppFitConfig::new(Fit::new(4.0), 4));
        assert!(!h.decide(&ctx(0, 1.0))); // 0 + 1 > 1? no
        assert!(!h.decide(&ctx(1, 1.0))); // 1 + 1 > 2? no
    }

    #[test]
    fn extra_tasks_beyond_n_capped_at_threshold() {
        // Declared N = 4 but 8 tasks arrive; the budget never grows past
        // the threshold.
        let h = AppFit::new(AppFitConfig::new(Fit::new(4.0), 4));
        for i in 0..8 {
            h.decide(&ctx(i, 1.0));
        }
        assert!(h.current_fit().value() <= 4.0 + 1e-12);
    }

    #[test]
    fn charge_on_completion_defers_accounting() {
        let h = AppFit::new(AppFitConfig {
            charge_on: ChargeOn::Completion,
            ..AppFitConfig::new(Fit::new(10.0), 4)
        });
        let c = ctx(0, 1.0);
        let replicated = h.decide(&c);
        assert!(!replicated);
        assert_eq!(h.current_fit().value(), 0.0); // not yet charged
        h.on_complete(&c, replicated);
        assert_eq!(h.current_fit().value(), 1.0);
    }

    #[test]
    fn residual_factor_charges_replicated_tasks() {
        let h = AppFit::new(AppFitConfig {
            residual_factor: 0.25,
            ..AppFitConfig::new(Fit::new(0.0), 4)
        });
        assert!(h.decide(&ctx(0, 2.0))); // threshold 0 ⇒ replicate
        assert_eq!(h.current_fit().value(), 0.5); // 2.0 × 0.25
    }

    #[test]
    fn replica_failure_charges_full_rate_back() {
        // Threshold 0 ⇒ every task is replicated and charged nothing.
        let h = AppFit::new(AppFitConfig::new(Fit::new(0.0), 2));
        let c = ctx(0, 3.0);
        assert!(h.decide(&c));
        assert_eq!(h.current_fit().value(), 0.0);
        // The replica lagged out: the task ran effectively unprotected.
        h.on_replica_failed(&c);
        assert_eq!(h.current_fit().value(), 3.0);
    }

    #[test]
    fn replica_failure_respects_residual_factor() {
        // With residual 0.25 the decision already charged 0.25 λ; the
        // charge-back adds the remaining 0.75 λ for a total of λ.
        let h = AppFit::new(AppFitConfig {
            residual_factor: 0.25,
            ..AppFitConfig::new(Fit::new(0.0), 2)
        });
        let c = ctx(0, 2.0);
        assert!(h.decide(&c));
        assert_eq!(h.current_fit().value(), 0.5);
        h.on_replica_failed(&c);
        assert_eq!(h.current_fit().value(), 2.0);
    }

    #[test]
    fn decisions_are_thread_safe() {
        // Hammer the heuristic from several threads; the invariant
        // (unreplicated FIT ≤ threshold) must hold regardless of
        // interleaving because the check-and-charge is atomic.
        use std::sync::Arc;
        let n = 4000u64;
        let h = Arc::new(AppFit::new(AppFitConfig::new(Fit::new(100.0), n)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..n / 4 {
                        h.decide(&ctx(t * (n / 4) + i, 0.1));
                    }
                });
            }
        });
        assert_eq!(h.decided(), n);
        assert!(h.current_fit().value() <= 100.0 + 1e-9);
    }

    #[test]
    fn heterogeneous_rates_favor_replicating_large_tasks() {
        // Two task classes: tiny λ=0.01 and huge λ=10. With a threshold
        // that admits all tiny tasks, the huge ones must absorb the
        // replication.
        let h = AppFit::new(AppFitConfig::new(Fit::new(5.0), 200));
        let mut replicated_large = 0;
        let mut replicated_small = 0;
        for i in 0..200u64 {
            let big = i % 10 == 0;
            let lam = if big { 10.0 } else { 0.01 };
            if h.decide(&ctx(i, lam)) {
                if big {
                    replicated_large += 1;
                } else {
                    replicated_small += 1;
                }
            }
        }
        assert_eq!(replicated_large, 20, "all large tasks replicated");
        assert_eq!(replicated_small, 0, "small tasks ride the budget");
        assert!(h.current_fit().value() <= 5.0);
    }
}
