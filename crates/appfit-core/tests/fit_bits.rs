//! Pins App_FIT's accounting to the bit: a fixed λ stream driven through
//! the sequential surface and through windowed forks must land on these
//! exact `current_fit` bits and decision counts, which move with any
//! change to Eq. 1, the decision charge or the lagged-replica charge-back.

use appfit_core::{AppFit, AppFitConfig, DecisionCtx, EpochDecision, ReplicationPolicy};
use fit_model::{Fit, TaskRates};

const N: u64 = 2000;

/// The fixed task stream: xorshift64 rates on `[0, 100)` FIT.
fn stream() -> Vec<DecisionCtx> {
    let mut x: u64 = 0x2016_0a9f_17c3_5b11;
    (0..N)
        .map(|id| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let lambda = (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            DecisionCtx {
                id,
                rates: TaskRates::new(Fit::new(lambda), Fit::ZERO),
                argument_bytes: 0,
            }
        })
        .collect()
}

fn outcome(h: &AppFit) -> (u64, u64, u64) {
    let fit = h.current_fit().value().to_bits();
    (fit, h.decided(), h.replicated())
}

/// `decide` in stream order; every 7th replicated decision loses its
/// replica and is charged back through `on_replica_failed`.
#[test]
fn sequential_fit_bits_are_pinned() {
    let h = AppFit::new(AppFitConfig::new(Fit::new(40_000.0), N));
    let mut replicated = 0u64;
    for c in &stream() {
        if h.decide(c) {
            if replicated.is_multiple_of(7) {
                h.on_replica_failed(c);
            }
            replicated += 1;
        }
    }
    assert_eq!(outcome(&h), (0x40e3_89cf_596e_a059, N, 1044));
}

/// Four windows of three views each: tasks go round-robin to the views,
/// every 7th replicated decision of a window lags (mirrored on its view
/// with `on_replica_failed_at`), and each window commits view by view
/// with `replica_lagged` carrying the charge-back.
#[test]
fn windowed_fit_bits_are_pinned() {
    let h = AppFit::new(AppFitConfig::new(Fit::new(40_000.0), N));
    for window in stream().chunks(N as usize / 4) {
        let mut fork = h.fork_epoch();
        let mut per_view: [Vec<EpochDecision>; 3] = Default::default();
        let mut replicated = 0u64;
        for (j, &ctx) in window.iter().enumerate() {
            let replicate = fork.decide_at(j % 3, &ctx);
            let replica_lagged = replicate && replicated.is_multiple_of(7);
            replicated += u64::from(replicate);
            if replica_lagged {
                fork.on_replica_failed_at(j % 3, &ctx);
            }
            per_view[j % 3].push(EpochDecision {
                ctx,
                replicate,
                replica_lagged,
            });
        }
        h.commit_epoch(&per_view.concat());
    }
    assert_eq!(outcome(&h), (0x40e3_f3aa_388e_d54b, N, 1053));
}
