//! Observation hooks on the policy surface — the recording side of the
//! `scenario` crate's trace record/replay pipeline.
//!
//! A [`DecisionSink`] receives every replication decision a policy
//! takes, in the exact order the engine accounts it: per dispatch on
//! the sequential path ([`ReplicationPolicy::decide`]), per barrier
//! batch in canonical commit order on the windowed paths
//! ([`ReplicationPolicy::commit_epoch`]) — fixed epoch barriers or
//! the lookahead engine's variable-horizon windows alike; the commit
//! cadence follows the barrier schedule, whatever places the
//! barriers. Because the engines are deterministic, the observed
//! sequence is a pure function of `(graph, config)` — which is what
//! makes recorded traces replayable bit-for-bit across process
//! boundaries.
//!
//! [`Observed`] wraps any policy with a sink without disturbing its
//! decisions: `decide`/`fork_epoch`/`commit_epoch` forward to the
//! inner policy first, then notify. Epoch forks intentionally do *not*
//! report their provisional in-window decisions; only the canonical
//! commit does, so the observed stream never depends on the shard
//! layout (the engine's determinism contract).

use std::sync::Arc;

use crate::policy::{DecisionCtx, EpochDecider, EpochDecision, ReplicationPolicy};

/// Receives committed replication decisions in accounting order.
pub trait DecisionSink: Send + Sync {
    /// One decision taken on the sequential engine's dispatch path.
    fn on_decision(&self, ctx: &DecisionCtx, replicate: bool);

    /// One epoch's decisions committed at a sharded-engine barrier, in
    /// canonical `(time, node, within-node order)` order.
    fn on_epoch_commit(&self, decisions: &[EpochDecision]);
}

/// A policy wrapper reporting every decision to a [`DecisionSink`].
///
/// ```
/// use std::sync::Arc;
/// use appfit_core::{DecisionCtx, DecisionSink, EpochDecision, Observed, ReplicateAll,
///     ReplicationPolicy};
/// use fit_model::{Fit, TaskRates};
///
/// #[derive(Default)]
/// struct Count(std::sync::atomic::AtomicUsize);
/// impl DecisionSink for Count {
///     fn on_decision(&self, _: &DecisionCtx, _: bool) {
///         self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
///     }
///     fn on_epoch_commit(&self, d: &[EpochDecision]) {
///         self.0.fetch_add(d.len(), std::sync::atomic::Ordering::Relaxed);
///     }
/// }
///
/// let sink = Arc::new(Count::default());
/// let policy = Observed::new(ReplicateAll, Arc::clone(&sink) as Arc<dyn DecisionSink>);
/// let ctx = DecisionCtx { id: 0, rates: TaskRates::new(Fit::new(1.0), Fit::ZERO),
///     argument_bytes: 8 };
/// assert!(policy.decide(&ctx));
/// assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 1);
/// ```
pub struct Observed<P> {
    policy: P,
    sink: Arc<dyn DecisionSink>,
}

impl<P: ReplicationPolicy> Observed<P> {
    /// Wraps `policy` so every decision is reported to `sink`.
    pub fn new(policy: P, sink: Arc<dyn DecisionSink>) -> Self {
        Observed { policy, sink }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.policy
    }
}

impl<P: ReplicationPolicy> ReplicationPolicy for Observed<P> {
    fn decide(&self, ctx: &DecisionCtx) -> bool {
        let replicate = self.policy.decide(ctx);
        self.sink.on_decision(ctx, replicate);
        replicate
    }

    fn fork_epoch(&self) -> Box<dyn EpochDecider + '_> {
        // Forks decide provisionally; the sink hears about the epoch at
        // commit time, in canonical order.
        self.policy.fork_epoch()
    }

    fn commit_epoch(&self, decisions: &[EpochDecision]) {
        self.policy.commit_epoch(decisions);
        self.sink.on_epoch_commit(decisions);
    }

    fn on_replica_failed(&self, ctx: &DecisionCtx) {
        // Recovery charge-backs mutate policy state but are not
        // decisions; the sink's observed stream stays decisions-only.
        self.policy.on_replica_failed(ctx);
    }

    fn name(&self) -> &'static str {
        self.policy.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appfit::{AppFit, AppFitConfig};
    use crate::policy::ReplicateNone;
    use fit_model::{Fit, TaskRates};
    use parking_lot::Mutex;

    struct Log(Mutex<Vec<(u64, bool)>>);

    impl DecisionSink for Log {
        fn on_decision(&self, ctx: &DecisionCtx, replicate: bool) {
            self.0.lock().push((ctx.id, replicate));
        }
        fn on_epoch_commit(&self, decisions: &[EpochDecision]) {
            let mut log = self.0.lock();
            for d in decisions {
                log.push((d.ctx.id, d.replicate));
            }
        }
    }

    fn ctx(id: u64, lambda: f64) -> DecisionCtx {
        DecisionCtx {
            id,
            rates: TaskRates::new(Fit::new(lambda), Fit::ZERO),
            argument_bytes: 64,
        }
    }

    #[test]
    fn sequential_decisions_are_logged_in_order() {
        let sink = Arc::new(Log(Mutex::new(Vec::new())));
        let policy = Observed::new(
            AppFit::new(AppFitConfig::new(Fit::new(2.0), 4)),
            Arc::clone(&sink) as Arc<dyn DecisionSink>,
        );
        for i in 0..4 {
            policy.decide(&ctx(i, 1.0));
        }
        let log = sink.0.lock();
        assert_eq!(log.len(), 4);
        assert_eq!(
            log.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // The wrapper does not disturb the decisions themselves.
        assert_eq!(policy.inner().decided(), 4);
    }

    #[test]
    fn epoch_commits_are_logged_as_batches() {
        let sink = Arc::new(Log(Mutex::new(Vec::new())));
        let policy = Observed::new(ReplicateNone, Arc::clone(&sink) as Arc<dyn DecisionSink>);
        let decisions: Vec<EpochDecision> = (0..3)
            .map(|i| EpochDecision {
                ctx: ctx(i, 0.5),
                replicate: i == 1,
                replica_lagged: false,
            })
            .collect();
        policy.commit_epoch(&decisions);
        let log = sink.0.lock();
        assert_eq!(&*log, &[(0, false), (1, true), (2, false)]);
    }

    #[test]
    fn forks_do_not_leak_provisional_decisions() {
        let sink = Arc::new(Log(Mutex::new(Vec::new())));
        let policy = Observed::new(ReplicateNone, Arc::clone(&sink) as Arc<dyn DecisionSink>);
        let mut fork = policy.fork_epoch();
        let _ = fork.decide(&ctx(0, 1.0));
        drop(fork);
        assert!(sink.0.lock().is_empty(), "fork decisions are provisional");
    }
}
