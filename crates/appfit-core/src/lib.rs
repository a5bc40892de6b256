//! # appfit-core
//!
//! The **App_FIT** heuristic — the primary contribution of Subasi et al.,
//! *"A Runtime Heuristic to Selectively Replicate Tasks for
//! Application-Specific Reliability Targets"* (CLUSTER 2016) — plus the
//! policy zoo it is evaluated against.
//!
//! The user states a reliability target for the whole application as a
//! FIT threshold. As each task is about to execute, App_FIT checks
//! **atomically** (paper Eq. 1):
//!
//! ```text
//! current_fit + (λF(T) + λSDC(T)) > (threshold / N) × (i + 1)
//! ```
//!
//! where `current_fit` accumulates the failure rates of tasks run
//! *without* protection, `N` is the total number of tasks and `i` counts
//! decisions so far. If running task `T` unprotected would push the
//! accumulated rate past the pro-rated budget, the task is replicated
//! (and contributes nothing to `current_fit`); otherwise it runs
//! unprotected and its rate is charged. The heuristic needs **no
//! profiling and no extra runtime information** — only the argument
//! sizes dataflow annotations provide.
//!
//! Because the optimal selection is NP-hard (a bounded knapsack, paper
//! §I), this crate also ships an offline [`oracle`] (exact scaled DP and
//! a density greedy) used by the ablation experiments to measure how far
//! App_FIT is from optimal, and simple baselines ([`policy`]) for
//! complete, random and periodic replication.

pub mod accounting;
pub mod appfit;
pub mod hooks;
pub mod oracle;
pub mod policy;

pub use accounting::{evaluate_policy, PolicySummary, TaskSample};
pub use appfit::{AppFit, AppFitConfig};
pub use hooks::{DecisionSink, Observed};
pub use oracle::{oracle_dp, oracle_greedy, OracleSolution};
pub use policy::{
    DecisionCtx, EpochDecider, EpochDecision, PeriodicPolicy, RandomPolicy, ReplicateAll,
    ReplicateNone, ReplicationPolicy,
};
