//! The replication-policy interface and baseline policies.

use fit_model::TaskRates;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Everything a policy may consult when deciding whether to replicate
/// one task — deliberately restricted to information the runtime has
/// *for free* at task-ready time (the paper's no-profiling constraint).
#[derive(Debug, Clone, Copy)]
pub struct DecisionCtx {
    /// Runtime-assigned task id (submission order).
    pub id: u64,
    /// The task's estimated failure rates (from its argument sizes).
    pub rates: TaskRates,
    /// Total argument bytes (the raw quantity rates derive from).
    pub argument_bytes: u64,
}

/// Decides, per task, whether to replicate it; thread-safe because the
/// runtime consults it concurrently from worker threads.
pub trait ReplicationPolicy: Send + Sync {
    /// `true` ⇒ replicate this task (checkpoint + duplicate + compare).
    fn decide(&self, ctx: &DecisionCtx) -> bool;

    /// Called when the task's execution finishes; `replicated` echoes
    /// the earlier decision. Policies that charge accounting at
    /// completion time hook in here.
    fn on_complete(&self, ctx: &DecisionCtx, replicated: bool) {
        let _ = (ctx, replicated);
    }

    /// Forks the decision views of one *synchronization window* of
    /// windowed simulation (`cluster-sim`'s sharded engine — a fixed
    /// epoch or a variable lookahead horizon — and its sequential
    /// lookahead reference): one fork per shard per window, one view
    /// per node inside it ([`EpochDecider`]). Each view sees this
    /// policy's global state frozen as of the fork plus whatever that
    /// view accumulates locally; the
    /// definitive state update happens later through
    /// [`ReplicationPolicy::commit_epoch`] with the window's decisions
    /// in canonical order. Stateless policies (the default) just pass
    /// decisions through to [`ReplicationPolicy::decide`], which is
    /// order-independent for them.
    fn fork_epoch(&self) -> Box<dyn EpochDecider + '_> {
        Box::new(PassThroughDecider(self))
    }

    /// Merges one epoch's committed decisions into global state, in
    /// the engine's canonical order — virtual dispatch time, then
    /// owner node, then within-node dispatch order, so a single node's
    /// decisions commit exactly as they were taken. The engine calls
    /// this exactly once per decision across all forks, so stateful
    /// policies account here and treat fork-local accumulation as
    /// scratch.
    ///
    /// The default forwards each decision to
    /// [`ReplicationPolicy::on_complete`] — then, for decisions whose
    /// replica lagged out at runtime, to
    /// [`ReplicationPolicy::on_replica_failed`] — preserving
    /// completion-time accounting for policies that only implement the
    /// sequential surface; policies that override
    /// [`ReplicationPolicy::fork_epoch`] should override this too and
    /// account exactly once.
    fn commit_epoch(&self, decisions: &[EpochDecision]) {
        for d in decisions {
            self.on_complete(&d.ctx, d.replicate);
            if d.replica_lagged {
                self.on_replica_failed(&d.ctx);
            }
        }
    }

    /// Called when a *replicated* task loses its replica at runtime —
    /// TeaMPI-style heartbeat detection declared the replica lagging and
    /// let the primary's result win uncompared. The protection the
    /// policy paid for (and accounted as covered) never materialized,
    /// so reliability-accounting policies charge the task's failure
    /// rate back to the exposed budget here. The sequential engine
    /// calls this right after [`ReplicationPolicy::on_complete`] for
    /// the lagging dispatch; on the windowed paths the charge-back
    /// rides the committed decision itself
    /// ([`EpochDecision::replica_lagged`]) so it lands at exactly the
    /// same point of the canonical order.
    fn on_replica_failed(&self, ctx: &DecisionCtx) {
        let _ = ctx;
    }

    /// Display name for experiment tables.
    fn name(&self) -> &'static str;
}

/// One committed replication decision of a sharded-simulation epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochDecision {
    /// The decision inputs.
    pub ctx: DecisionCtx,
    /// The decision taken by the epoch fork.
    pub replicate: bool,
    /// The replica was later abandoned by heartbeat detection (only
    /// meaningful when `replicate` is true): the commit must charge the
    /// exposed rate back via
    /// [`ReplicationPolicy::on_replica_failed`] at this decision's
    /// position in the canonical order.
    pub replica_lagged: bool,
}

/// The decision views of one synchronization window of windowed
/// simulation.
///
/// Created by [`ReplicationPolicy::fork_epoch`]; lives on one shard
/// thread for one window, then is dropped (its local accumulation is
/// scratch — [`ReplicationPolicy::commit_epoch`] performs the
/// definitive update). One fork serves every node of its shard: each
/// node decides through its own **view** — the state frozen at the
/// fork plus that node's in-window charges only — addressed by a dense
/// index the engine picks (the node's rank in its shard). Views never
/// see each other, so which nodes share a fork (the shard layout)
/// cannot influence a decision.
pub trait EpochDecider {
    /// Decides one task against view 0.
    fn decide(&mut self, ctx: &DecisionCtx) -> bool;

    /// Heartbeat detection abandoned the replica of a task view 0
    /// decided to replicate. Stateful forks mirror the charge-back on
    /// the view so later in-window decisions see it (the definitive
    /// global charge still happens at commit, through
    /// [`EpochDecision::replica_lagged`]). The default is a no-op,
    /// matching stateless policies.
    fn on_replica_failed(&mut self, ctx: &DecisionCtx) {
        let _ = ctx;
    }

    /// [`EpochDecider::decide`] against view `view`. The default
    /// ignores the index, which is right for stateless forks only (the
    /// caveat [`ReplicationPolicy::fork_epoch`]'s default carries): a
    /// fork that accumulates must keep one accumulation per view.
    fn decide_at(&mut self, view: usize, ctx: &DecisionCtx) -> bool {
        let _ = view;
        self.decide(ctx)
    }

    /// [`EpochDecider::on_replica_failed`] for view `view`; same
    /// default and caveat as [`EpochDecider::decide_at`].
    fn on_replica_failed_at(&mut self, view: usize, ctx: &DecisionCtx) {
        let _ = view;
        self.on_replica_failed(ctx);
    }
}

/// Default [`EpochDecider`]: forwards to the (stateless, hence
/// order-insensitive) policy itself.
struct PassThroughDecider<'p, P: ReplicationPolicy + ?Sized>(&'p P);

impl<P: ReplicationPolicy + ?Sized> EpochDecider for PassThroughDecider<'_, P> {
    fn decide(&mut self, ctx: &DecisionCtx) -> bool {
        self.0.decide(ctx)
    }
    // `on_replica_failed` keeps the default no-op: the commit path
    // delivers the definitive charge-back, and a stateless policy has
    // no in-window view to keep current.
}

/// Shared handles delegate: lets callers keep a concrete `Arc<AppFit>`
/// for statistics while handing the same instance to the engine (or an
/// [`crate::hooks::Observed`] wrapper) as the deciding policy.
impl<P: ReplicationPolicy + ?Sized> ReplicationPolicy for std::sync::Arc<P> {
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        (**self).decide(ctx)
    }
    fn on_complete(&self, ctx: &DecisionCtx, replicated: bool) {
        (**self).on_complete(ctx, replicated);
    }
    fn fork_epoch(&self) -> Box<dyn EpochDecider + '_> {
        (**self).fork_epoch()
    }
    fn commit_epoch(&self, decisions: &[EpochDecision]) {
        (**self).commit_epoch(decisions);
    }
    fn on_replica_failed(&self, ctx: &DecisionCtx) {
        (**self).on_replica_failed(ctx);
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Complete task replication — the paper's baseline whose cost App_FIT
/// undercuts ("complete task replication is overkill").
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicateAll;

impl ReplicationPolicy for ReplicateAll {
    fn decide(&self, _ctx: &DecisionCtx) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "replicate-all"
    }
}

/// No protection at all (fault-free baseline for overhead measurements).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicateNone;

impl ReplicationPolicy for ReplicateNone {
    fn decide(&self, _ctx: &DecisionCtx) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "replicate-none"
    }
}

/// Replicates each task independently with probability `p` —
/// a rate-oblivious strawman for the ablation study. Deterministic per
/// `(seed, task id)` so experiment runs are reproducible.
#[derive(Debug, Clone, Copy)]
pub struct RandomPolicy {
    p: f64,
    seed: u64,
}

impl RandomPolicy {
    /// A policy replicating with probability `p` (0 ≤ p ≤ 1).
    pub fn new(p: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be a probability");
        RandomPolicy { p, seed }
    }
}

impl ReplicationPolicy for RandomPolicy {
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        let mut rng =
            SmallRng::seed_from_u64(self.seed ^ ctx.id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.gen::<f64>() < self.p
    }
    fn name(&self) -> &'static str {
        "random"
    }
}

/// Replicates every `k`-th task — a size-oblivious strawman showing why
/// weighting by failure rate matters.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicPolicy {
    every: u64,
}

impl PeriodicPolicy {
    /// Replicates tasks whose id is a multiple of `every` (≥ 1).
    pub fn new(every: u64) -> Self {
        assert!(every >= 1);
        PeriodicPolicy { every }
    }
}

impl ReplicationPolicy for PeriodicPolicy {
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        ctx.id.is_multiple_of(self.every)
    }
    fn name(&self) -> &'static str {
        "periodic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fit_model::Fit;

    fn ctx(id: u64) -> DecisionCtx {
        DecisionCtx {
            id,
            rates: TaskRates::new(Fit::new(1.0), Fit::new(0.5)),
            argument_bytes: 1024,
        }
    }

    #[test]
    fn all_and_none() {
        assert!(ReplicateAll.decide(&ctx(0)));
        assert!(!ReplicateNone.decide(&ctx(0)));
    }

    #[test]
    fn random_is_deterministic_and_calibrated() {
        let p = RandomPolicy::new(0.3, 42);
        let first: Vec<bool> = (0..10_000).map(|i| p.decide(&ctx(i))).collect();
        let second: Vec<bool> = (0..10_000).map(|i| p.decide(&ctx(i))).collect();
        assert_eq!(first, second);
        let frac = first.iter().filter(|&&b| b).count() as f64 / first.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn random_extremes() {
        let never = RandomPolicy::new(0.0, 1);
        let always = RandomPolicy::new(1.0, 1);
        assert!((0..100).all(|i| !never.decide(&ctx(i))));
        assert!((0..100).all(|i| always.decide(&ctx(i))));
    }

    #[test]
    fn periodic_pattern() {
        let p = PeriodicPolicy::new(3);
        let pattern: Vec<bool> = (0..7).map(|i| p.decide(&ctx(i))).collect();
        assert_eq!(pattern, vec![true, false, false, true, false, false, true]);
    }
}
