//! Ablation studies beyond the paper's figures (DESIGN.md §5, rows A1
//! and A2, plus A4 for the sharded engine and A5 for the recovery
//! subsystem): how far is App_FIT from the offline knapsack optimum,
//! how does the replication fraction respond to the threshold, how
//! sensitive are sharded-simulation results to the epoch length, and
//! what does checkpoint/restart buy compared to replication at equal
//! overhead.

use std::sync::Arc;

use appfit_core::{
    evaluate_policy, oracle_dp, oracle_greedy, AppFit, AppFitConfig, PeriodicPolicy, RandomPolicy,
    ReplicateAll, TaskSample,
};
use cluster_sim::{
    simulate, simulate_sharded, CostModel, RecoveryConfig, ShardedConfig, SimConfig,
};
use fault_inject::{InjectionConfig, NoFaults};
use fit_model::{Fit, TaskRates};
use workloads::{all_workloads, distributed_workloads};

use crate::context::{
    described_sim_graph, natural_cluster, pct, sum_rates_at_1x, ExperimentScale, TextTable,
};

/// Extracts `(rates, duration)` samples in submission order, with the
/// natural node's cost model providing durations.
fn task_samples(
    workload: &dyn workloads::Workload,
    scale: ExperimentScale,
    multiplier: f64,
) -> (Vec<TaskSample>, f64) {
    let (_built, graph) = described_sim_graph(workload, scale, multiplier);
    let threshold = sum_rates_at_1x(&graph, multiplier);
    let cluster = natural_cluster(workload.kind());
    let cost = CostModel::default();
    let samples = graph
        .tasks()
        .iter()
        .filter(|t| !t.is_barrier)
        .map(|t| TaskSample {
            rates: t.rates,
            argument_bytes: t.argument_bytes,
            // Durations at full contention (all worker cores busy) —
            // the steady-state duration the scheduler would see.
            duration: cost.kernel_secs(
                &cluster.node,
                cluster.node.cores,
                t.flops,
                t.bytes_in,
                t.bytes_out,
            ),
        })
        .collect();
    (samples, threshold)
}

// ---------------------------------------------------------------------
// A1: App_FIT vs offline oracles and blind baselines
// ---------------------------------------------------------------------

/// One policy's outcome on one benchmark.
#[derive(Debug, Clone)]
pub struct OracleCell {
    /// Fraction of tasks replicated.
    pub task_fraction: f64,
    /// Fraction of computation time replicated (the resource cost).
    pub time_fraction: f64,
    /// Unprotected FIT (≤ threshold ⇒ target met).
    pub unprotected_fit: f64,
    /// Whether the reliability target was met.
    pub target_met: bool,
}

/// Oracle-comparison results for one benchmark.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// Benchmark name.
    pub name: String,
    /// The FIT threshold used.
    pub threshold: f64,
    /// App_FIT (the runtime heuristic).
    pub appfit: OracleCell,
    /// Offline density greedy.
    pub greedy: OracleCell,
    /// Offline scaled-DP optimum (`None` when the instance is too large).
    pub dp: Option<OracleCell>,
    /// Random policy matched to App_FIT's replication fraction.
    pub random: OracleCell,
    /// Periodic policy matched to App_FIT's replication fraction.
    pub periodic: OracleCell,
}

fn cell_from_plan(samples: &[TaskSample], replicate: &[bool], threshold: f64) -> OracleCell {
    let total_time: f64 = samples.iter().map(|s| s.duration).sum();
    let mut time = 0.0;
    let mut fit = 0.0;
    let mut count = 0usize;
    for (s, &r) in samples.iter().zip(replicate) {
        if r {
            time += s.duration;
            count += 1;
        } else {
            fit += s.rates.total().value();
        }
    }
    OracleCell {
        task_fraction: count as f64 / samples.len().max(1) as f64,
        time_fraction: if total_time > 0.0 {
            time / total_time
        } else {
            0.0
        },
        unprotected_fit: fit,
        target_met: fit <= threshold * (1.0 + 1e-9),
    }
}

fn cell_from_policy(
    samples: &[TaskSample],
    policy: &dyn appfit_core::ReplicationPolicy,
    threshold: f64,
) -> OracleCell {
    let s = evaluate_policy(policy, samples);
    OracleCell {
        task_fraction: s.task_fraction,
        time_fraction: s.time_fraction,
        unprotected_fit: s.unprotected_fit,
        target_met: s.unprotected_fit <= threshold * (1.0 + 1e-9),
    }
}

/// Maximum instance size for the exact DP oracle (O(n·grid) time).
pub const DP_TASK_LIMIT: usize = 20_000;
/// DP weight grid.
pub const DP_GRID: usize = 5_000;

/// Runs the oracle comparison at the given error-rate multiplier.
pub fn run_oracle(scale: ExperimentScale, multiplier: f64, seed: u64) -> Vec<OracleRow> {
    all_workloads()
        .iter()
        .map(|w| {
            let (samples, threshold) = task_samples(w.as_ref(), scale, multiplier);
            let appfit = AppFit::new(AppFitConfig::new(Fit::new(threshold), samples.len() as u64));
            let appfit_cell = cell_from_policy(&samples, &appfit, threshold);

            let pairs: Vec<(TaskRates, f64)> =
                samples.iter().map(|s| (s.rates, s.duration)).collect();
            let greedy_sol = oracle_greedy(&pairs, threshold);
            let greedy = cell_from_plan(&samples, &greedy_sol.replicate, threshold);
            let dp = (samples.len() <= DP_TASK_LIMIT).then(|| {
                let sol = oracle_dp(&pairs, threshold, DP_GRID);
                cell_from_plan(&samples, &sol.replicate, threshold)
            });

            // Blind baselines at App_FIT's own replication budget.
            let random = cell_from_policy(
                &samples,
                &RandomPolicy::new(appfit_cell.task_fraction, seed),
                threshold,
            );
            let every = (1.0 / appfit_cell.task_fraction.max(1e-9)).round().max(1.0) as u64;
            let periodic = cell_from_policy(&samples, &PeriodicPolicy::new(every), threshold);

            OracleRow {
                name: w.name().to_string(),
                threshold,
                appfit: appfit_cell,
                greedy,
                dp,
                random,
                periodic,
            }
        })
        .collect()
}

/// Renders the oracle comparison.
pub fn render_oracle(rows: &[OracleRow]) -> String {
    let mut t = TextTable::new(vec![
        "benchmark",
        "policy",
        "tasks repl.",
        "time repl.",
        "target met",
    ]);
    for r in rows {
        let mut add = |name: &str, c: &OracleCell, first: bool| {
            t.row(vec![
                if first { r.name.clone() } else { String::new() },
                name.to_string(),
                pct(c.task_fraction),
                pct(c.time_fraction),
                if c.target_met {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]);
        };
        add("app-fit", &r.appfit, true);
        add("oracle-greedy", &r.greedy, false);
        if let Some(dp) = &r.dp {
            add("oracle-dp", dp, false);
        }
        add("random@same%", &r.random, false);
        add("periodic@same%", &r.periodic, false);
    }
    format!(
        "Ablation A1 — App_FIT vs offline knapsack oracles and blind baselines\n\
         (oracles see the whole task list in advance; App_FIT decides online)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// A2: threshold sweep
// ---------------------------------------------------------------------

/// Replication fractions across error-rate multipliers.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Benchmark name.
    pub name: String,
    /// `(multiplier, task fraction)` pairs.
    pub points: Vec<(f64, f64)>,
}

/// Sweeps error-rate multipliers (threshold stays at today's FIT).
pub fn run_sweep(scale: ExperimentScale, multipliers: &[f64]) -> Vec<SweepRow> {
    all_workloads()
        .iter()
        .map(|w| {
            let points = multipliers
                .iter()
                .map(|&m| {
                    let (samples, threshold) = task_samples(w.as_ref(), scale, m);
                    let appfit =
                        AppFit::new(AppFitConfig::new(Fit::new(threshold), samples.len() as u64));
                    let s = evaluate_policy(&appfit, &samples);
                    (m, s.task_fraction)
                })
                .collect();
            SweepRow {
                name: w.name().to_string(),
                points,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render_sweep(rows: &[SweepRow]) -> String {
    let mults: Vec<f64> = rows
        .first()
        .map(|r| r.points.iter().map(|(m, _)| *m).collect())
        .unwrap_or_default();
    let mut headers = vec!["benchmark".to_string()];
    for m in &mults {
        headers.push(format!("{m}x rates"));
    }
    let mut t = TextTable::new(headers);
    for r in rows {
        let mut cells = vec![r.name.clone()];
        for (_, f) in &r.points {
            cells.push(pct(*f));
        }
        t.row(cells);
    }
    format!(
        "Ablation A2 — replication fraction vs error-rate multiplier\n\
         (Takeaway-1: modest rate increases need much less replication)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// A4: epoch-length sensitivity of the sharded engine
// ---------------------------------------------------------------------

/// One benchmark's sharded-vs-sequential makespan ratios across epoch
/// lengths, plus the conservative-lookahead engine's ratio.
#[derive(Debug, Clone)]
pub struct EpochRow {
    /// Benchmark name.
    pub name: String,
    /// Sequential-engine makespan (the event-exact reference).
    pub sequential_makespan: f64,
    /// `(epoch multiplier over the auto heuristic, sharded/sequential
    /// makespan ratio)` pairs.
    pub points: Vec<(f64, f64)>,
    /// The auto-derived lookahead (interconnect transfer latency
    /// floor, virtual seconds).
    pub lookahead_secs: f64,
    /// Lookahead-mode / sequential makespan ratio.
    pub lookahead_ratio: f64,
}

/// Measures how the sharded engine's cross-node epoch quantization
/// inflates makespans as the epoch grows, on the distributed
/// benchmarks under complete replication — and how the
/// conservative-lookahead mode compares: its only timing deviation is
/// a per-hop activation delay of the interconnect latency floor, so
/// its ratio must sit at least as close to 1.0 as every epoch point
/// (asserted in tests and by the conformance harness).
pub fn run_epoch_sensitivity(
    scale: ExperimentScale,
    shards: usize,
    multipliers: &[f64],
) -> Vec<EpochRow> {
    distributed_workloads()
        .iter()
        .map(|w| {
            let (_built, graph) = described_sim_graph(w.as_ref(), scale, 1.0);
            let cfg = SimConfig {
                cluster: natural_cluster(w.kind()),
                cost: CostModel::default(),
                policy: Arc::new(ReplicateAll),
                faults: Arc::new(NoFaults),
                injection: InjectionConfig::Disabled,
                recovery: RecoveryConfig::default(),
            };
            let sequential = simulate(&graph, &cfg).makespan;
            let auto = ShardedConfig::auto(&graph, &cfg, shards);
            let points = multipliers
                .iter()
                .map(|&m| {
                    let sc = ShardedConfig::new(shards, auto.epoch * m);
                    let sharded = simulate_sharded(&graph, &cfg, &sc).makespan;
                    (m, sharded / sequential)
                })
                .collect();
            let lookahead_secs = ShardedConfig::auto_lookahead(&graph, &cfg);
            let lookahead = simulate_sharded(
                &graph,
                &cfg,
                &ShardedConfig::new(shards, auto.epoch).with_lookahead(lookahead_secs),
            )
            .makespan;
            EpochRow {
                name: w.name().to_string(),
                sequential_makespan: sequential,
                points,
                lookahead_secs,
                lookahead_ratio: lookahead / sequential,
            }
        })
        .collect()
}

/// Renders the epoch-sensitivity ablation.
pub fn render_epoch_sensitivity(rows: &[EpochRow]) -> String {
    let mults: Vec<f64> = rows
        .first()
        .map(|r| r.points.iter().map(|(m, _)| *m).collect())
        .unwrap_or_default();
    let mut headers = vec!["benchmark".to_string(), "seq makespan".to_string()];
    for m in &mults {
        headers.push(format!("{m}x auto epoch"));
    }
    headers.push("lookahead".to_string());
    let mut t = TextTable::new(headers);
    for r in rows {
        let mut cells = vec![r.name.clone(), format!("{:.3e}s", r.sequential_makespan)];
        for (_, ratio) in &r.points {
            cells.push(format!("{ratio:.4}x"));
        }
        cells.push(format!("{:.4}x", r.lookahead_ratio));
        t.row(cells);
    }
    format!(
        "Ablation A4 — sharded-engine synchronization fidelity (makespan vs sequential engine)\n\
         (epoch mode quantizes cross-node activations to barriers — finer epochs → exact timing;\n\
          lookahead mode delays each activation by the interconnect latency floor instead)\n\n{}",
        t.render()
    )
}

// ---------------------------------------------------------------------
// A5: replication vs checkpoint/restart under fail-stop crashes
// ---------------------------------------------------------------------

/// One recovery strategy's outcome on the crash-bearing scenario.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Strategy label (`replication (App_FIT 50%)`, `checkpoint @ 5s`, …).
    pub label: String,
    /// Virtual makespan under crashes and the strategy's costs.
    pub makespan: f64,
    /// Makespan overhead over the clean, unprotected baseline (%).
    pub overhead_pct: f64,
    /// Unprotected FIT the strategy leaves exposed (App_FIT's
    /// `current_fit` for replication; the whole graph for
    /// checkpoint/restart, which recovers crashed *work* but covers no
    /// silent corruption).
    pub unprotected_fit: f64,
    /// Fail-stop crashes the run absorbed.
    pub crashes: usize,
    /// Lost in-flight tasks re-dispatched.
    pub restarts: usize,
    /// Snapshots taken (checkpoint strategy only).
    pub checkpoints: usize,
    /// Marks the checkpoint row whose overhead is nearest the
    /// replication row's — the equal-overhead comparison point.
    pub matched_overhead: bool,
}

/// The A5 comparison: both strategies over the same crash schedule.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Clean (no faults, no protection) reference makespan.
    pub baseline_makespan: f64,
    /// Total FIT of the graph (the exposure with nothing replicated).
    pub total_fit: f64,
    /// One row per strategy cell.
    pub rows: Vec<RecoveryRow>,
}

fn recovery_counts(report: &cluster_sim::SimReport) -> (usize, usize, usize) {
    use cluster_sim::RecoveryKind;
    let count = |k: RecoveryKind| report.recovery().iter().filter(|e| e.kind == k).count();
    (
        count(RecoveryKind::Crash),
        count(RecoveryKind::Restart),
        count(RecoveryKind::Checkpoint),
    )
}

/// Compares replication (App_FIT at 50 %) against checkpoint/restart
/// at several snapshot intervals, all on the `crash-sweep` preset's
/// crash schedule. Replication pays for duplicate execution but keeps
/// FIT under the target *and* absorbs crashes via the surviving
/// sibling; checkpoint/restart pays snapshot and rollback costs,
/// recovers the lost work, but leaves the full FIT exposure — the
/// equal-overhead row makes the trade concrete.
pub fn run_recovery(intervals: &[f64]) -> RecoveryReport {
    let crash = scenario::preset("crash-sweep").expect("crash-sweep preset");

    // Clean baseline: same workload and engine, nothing injected,
    // nothing replicated.
    let mut clean = crash.clone();
    clean.name = "recovery-baseline".into();
    clean.faults.p_due = 0.0;
    clean.faults.p_sdc = 0.0;
    clean.faults.p_crash = 0.0;
    clean.policy = scenario::PolicySpec::ReplicateNone;
    let graph = scenario::build_graph(&clean).expect("baseline graph");
    let total_fit: f64 = graph.tasks().iter().map(|t| t.rates.total().value()).sum();
    let baseline = scenario::run_on(&clean, &graph, None).expect("baseline runs");
    let baseline_makespan = baseline.report.makespan;
    let overhead = |makespan: f64| (makespan / baseline_makespan - 1.0) * 100.0;

    let mut rows = Vec::new();
    let rep = scenario::run_on(&crash, &graph, None).expect("replication cell runs");
    let (crashes, restarts, checkpoints) = recovery_counts(&rep.report);
    rows.push(RecoveryRow {
        label: "replication (App_FIT 50%)".into(),
        makespan: rep.report.makespan,
        overhead_pct: overhead(rep.report.makespan),
        unprotected_fit: rep.appfit.expect("App_FIT stats").current_fit,
        crashes,
        restarts,
        checkpoints,
        matched_overhead: false,
    });

    for &interval in intervals {
        let mut spec = crash.clone();
        spec.name = format!("ckpt-{interval}s");
        spec.policy = scenario::PolicySpec::ReplicateNone;
        spec.recovery.checkpoint = Some(scenario::CheckpointSpec {
            interval_secs: interval,
            snapshot_bytes: 1 << 20,
        });
        let out = scenario::run_on(&spec, &graph, None).expect("checkpoint cell runs");
        let (crashes, restarts, checkpoints) = recovery_counts(&out.report);
        rows.push(RecoveryRow {
            label: format!("checkpoint @ {interval}s"),
            makespan: out.report.makespan,
            overhead_pct: overhead(out.report.makespan),
            unprotected_fit: total_fit,
            crashes,
            restarts,
            checkpoints,
            matched_overhead: false,
        });
    }

    // Mark the checkpoint row closest in overhead to replication.
    let rep_overhead = rows[0].overhead_pct;
    if let Some(nearest) = (1..rows.len()).min_by(|&a, &b| {
        let da = (rows[a].overhead_pct - rep_overhead).abs();
        let db = (rows[b].overhead_pct - rep_overhead).abs();
        da.total_cmp(&db)
    }) {
        rows[nearest].matched_overhead = true;
    }

    RecoveryReport {
        baseline_makespan,
        total_fit,
        rows,
    }
}

/// Renders the recovery-strategy ablation.
pub fn render_recovery(report: &RecoveryReport) -> String {
    let mut t = TextTable::new(vec![
        "strategy",
        "makespan",
        "overhead",
        "unprotected FIT",
        "FIT exposure",
        "crashes",
        "restarts",
        "snapshots",
    ]);
    for r in &report.rows {
        t.row(vec![
            if r.matched_overhead {
                format!("{} *", r.label)
            } else {
                r.label.clone()
            },
            format!("{:.3e}s", r.makespan),
            format!("{:+.2}%", r.overhead_pct),
            format!("{:.3e}", r.unprotected_fit),
            pct(r.unprotected_fit / report.total_fit),
            r.crashes.to_string(),
            r.restarts.to_string(),
            r.checkpoints.to_string(),
        ]);
    }
    format!(
        "Ablation A5 — replication vs checkpoint/restart under fail-stop crashes\n\
         (same crash schedule everywhere; baseline makespan {:.3e}s is the clean unprotected run;\n\
          * marks the checkpoint interval nearest the replication row's overhead — at equal\n\
          overhead, replication also bounds FIT while checkpointing leaves it all exposed)\n\n{}",
        report.baseline_makespan,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_sensitivity_small() {
        let rows = run_epoch_sensitivity(ExperimentScale::Small, 4, &[0.25, 1.0, 8.0]);
        assert_eq!(rows.len(), 4, "four distributed benchmarks");
        for r in &rows {
            assert!(r.sequential_makespan > 0.0);
            for &(m, ratio) in &r.points {
                // Quantization can only delay cross-node activations,
                // and list-scheduling anomalies aside the effect is
                // bounded and mild at test scale.
                assert!(
                    ratio.is_finite() && ratio > 0.5,
                    "{}: {m}x → {ratio}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn recovery_comparison_small() {
        // Intervals are per-node accumulated *kernel work*, which at
        // this scale is a handful of seconds per node — keep them
        // small enough that snapshots actually fire.
        let report = run_recovery(&[1.0, 5.0]);
        assert!(report.baseline_makespan > 0.0);
        assert!(report.total_fit > 0.0);
        assert_eq!(report.rows.len(), 3, "replication + two checkpoint cells");

        let rep = &report.rows[0];
        // Replication under App_FIT keeps the unprotected FIT strictly
        // below the whole graph's exposure…
        assert!(rep.unprotected_fit < report.total_fit);
        // …while checkpoint/restart covers no FIT at all.
        for ck in &report.rows[1..] {
            assert_eq!(ck.unprotected_fit, report.total_fit, "{}", ck.label);
            assert!(ck.checkpoints > 0, "{}: snapshots must be taken", ck.label);
        }
        // The crash schedule is shared and actually fires; every
        // strategy absorbs it and re-dispatches the lost work.
        for r in &report.rows {
            assert!(r.crashes > 0, "{}: crashes must fire", r.label);
            assert!(r.restarts > 0, "{}: lost tasks must restart", r.label);
            assert!(r.overhead_pct > 0.0, "{}: protection is not free", r.label);
        }
        // Exactly one checkpoint row is the equal-overhead marker.
        assert!(!rep.matched_overhead);
        assert_eq!(report.rows.iter().filter(|r| r.matched_overhead).count(), 1);
        let rendered = render_recovery(&report);
        assert!(rendered.contains("Ablation A5"));
        assert!(rendered.contains("checkpoint @ 1s"));
    }

    /// The acceptance criterion for the lookahead engine on the A4
    /// grid: its measured timing error against the sequential oracle
    /// never exceeds epoch mode's, at *any* epoch point — the
    /// latency-floor delay is tighter than every quantization window.
    #[test]
    fn lookahead_error_bounded_by_every_epoch_point() {
        let rows = run_epoch_sensitivity(ExperimentScale::Small, 4, &[0.25, 1.0, 8.0]);
        for r in &rows {
            assert!(
                r.lookahead_secs > 0.0 && r.lookahead_secs.is_finite(),
                "{}: derived lookahead {}",
                r.name,
                r.lookahead_secs
            );
            let la_err = (r.lookahead_ratio - 1.0).abs();
            for &(m, ratio) in &r.points {
                let ep_err = (ratio - 1.0).abs();
                assert!(
                    la_err <= ep_err + 1e-9,
                    "{}: lookahead error {la_err} exceeds epoch({m}x) error {ep_err}",
                    r.name
                );
            }
        }
    }

    #[test]
    fn oracle_comparison_small() {
        let rows = run_oracle(ExperimentScale::Small, 10.0, 42);
        assert_eq!(rows.len(), 9);
        for r in &rows {
            assert!(
                r.appfit.target_met,
                "{}: app-fit must meet its target",
                r.name
            );
            assert!(
                r.greedy.target_met,
                "{}: greedy is feasible by construction",
                r.name
            );
            if let Some(dp) = &r.dp {
                assert!(dp.target_met);
                // The oracles replicate no more *time* than App_FIT
                // needs (they optimize cost with hindsight).
                assert!(
                    dp.time_fraction <= r.appfit.time_fraction + 1e-9,
                    "{}: dp {} vs appfit {}",
                    r.name,
                    dp.time_fraction,
                    r.appfit.time_fraction
                );
            }
        }
    }

    #[test]
    fn sweep_is_monotone_in_multiplier() {
        let rows = run_sweep(ExperimentScale::Small, &[1.5, 5.0, 10.0]);
        for r in &rows {
            for w in r.points.windows(2) {
                assert!(
                    w[0].1 <= w[1].1 + 1e-9,
                    "{}: fraction must grow with rates: {:?}",
                    r.name,
                    r.points
                );
            }
        }
    }
}
