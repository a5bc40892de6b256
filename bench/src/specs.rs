//! The benchmark's inputs: spec **texts** made from `--seed`. The
//! program under test only ever receives these texts (through
//! `ScenarioSpec::parse` or the service's `submit`).

/// The seed whose texts reproduce the catalog presets (pinned by the
/// tests below, so preset drift is caught here).
pub const DEFAULT_SEED: u64 = 2016;

/// One workload: its name and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Every workload, in reporting order. All engines run `threads = 1`:
/// on a 2-CPU host a threaded engine's time swings by a third between
/// processes, which no bound survives.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "epoch-1m",
        why: "sweep-1m preset, threads=1: 1M synthetic tasks on 1024 nodes, epoch-mode sharded \
              engine dominates the request (graph build ~10%, trace encode ~2%)",
    },
    Workload {
        name: "lookahead-1m",
        why: "same graph under sync=lookahead (10 ms): hundreds of windows, delivery calendar and \
              exact-time dispatch; lookahead work shows here and must not move epoch-1m",
    },
    Workload {
        name: "stream-cholesky",
        why: "stress-huge-cholesky preset: streamed Table-I build with dependency inference \
              dominates, sequential engine; the sharded engine is bypassed",
    },
    Workload {
        name: "serve-grid",
        why:
            "in-process serve_unix (2 workers) and 2 closed-loop clients submitting 64-cell traced \
              grids of 2048-task cells: proto/server/client/pool/catalog dominate, engine is small",
    },
];

fn synthetic_1m(name: &str, seed: u64, sync: &str, smoke: bool) -> String {
    // 64 tasks per chain make 1,048,576 tasks; `--smoke` runs 65,536.
    let tasks_per_chain = if smoke { 4 } else { 64 };
    format!(
        "scenario = {name}\n\
         [topology]\nnodes = 1024\ncores = 16\nspare-cores = 16\ngflops-per-core = 4\n\
         mem-bw-gbs = 51.2\nnet-latency-us = 1.5\nnet-bandwidth-gbs = 5\n\
         [workload]\nkind = synthetic\nchains-per-node = 16\n\
         tasks-per-chain = {tasks_per_chain}\n\
         flops-per-task = 400000000\njitter = 0.25\nargument-bytes = 1048576\n\
         cross-node-every = 8\nseed = {seed}\n\
         [faults]\nmultiplier = 10\np-due = 0.005\np-sdc = 0.005\nseed = {seed}\n\
         [policy]\nkind = app-fit\ntarget-fraction = 0.25\n\
         [engine]\nkind = sharded\nshards = 32\nepoch = auto\nthreads = 1\n{sync}"
    )
}

fn stream_cholesky(seed: u64, smoke: bool) -> String {
    // The Table-I builder takes no seed; only fault injection varies.
    // `huge` is 1,055,240 tasks; `--smoke` runs `paper` (5,984).
    let scale = if smoke { "paper" } else { "huge" };
    format!(
        "scenario = stress-huge-cholesky\n\
         [topology]\nnodes = 1\ncores = 16\nspare-cores = 16\ngflops-per-core = 4\n\
         mem-bw-gbs = 51.2\nnet-latency-us = 0\nnet-bandwidth-gbs = inf\n\
         [workload]\nkind = bench\nbench = Cholesky\nscale = {scale}\nstreamed = true\n\
         [faults]\nmultiplier = 10\np-due = 0.005\np-sdc = 0.005\nseed = {seed}\n\
         [policy]\nkind = app-fit\ntarget-fraction = 0.5\n\
         [engine]\nkind = sequential\n"
    )
}

/// The spec text of a direct workload, or `None` for `serve-grid` and
/// unknown names. `smoke` shrinks the input so that the harness can be
/// exercised in seconds.
pub fn direct_text(workload: &str, seed: u64, smoke: bool) -> Option<String> {
    match workload {
        "epoch-1m" => Some(synthetic_1m("sweep-1m", seed, "sync = epoch\n", smoke)),
        "lookahead-1m" => Some(synthetic_1m(
            "lookahead-1m",
            seed,
            "sync = lookahead\nlookahead-ns = 10000000\n",
            smoke,
        )),
        "stream-cholesky" => Some(stream_cholesky(seed, smoke)),
        _ => None,
    }
}

/// Cells per `serve-grid` grid: fault-rate × target-fraction × seed.
pub const GRID_CELLS: usize = 64;
/// Tasks per `serve-grid` cell: 8 nodes × 16 chains × 16 tasks.
pub const GRID_CELL_TASKS: usize = 2048;

/// The grid text `serve-grid`'s client number `client` submits. Both
/// clients' grids share one graph key (same topology, workload and
/// multiplier); their fault-seed lists differ.
pub fn grid_text(seed: u64, client: u64) -> String {
    let first = seed + 4 * client;
    format!(
        "scenario = grid-c{client}\n\
         [topology]\nnodes = 8\ncores = 16\nspare-cores = 16\ngflops-per-core = 4\n\
         mem-bw-gbs = 51.2\nnet-latency-us = 1.5\nnet-bandwidth-gbs = 5\n\
         [workload]\nkind = synthetic\nchains-per-node = 16\ntasks-per-chain = 16\n\
         flops-per-task = 400000000\njitter = 0.25\nargument-bytes = 1048576\n\
         cross-node-every = 8\nseed = {seed}\n\
         [faults]\nmultiplier = 10\np-due = 0.005\np-sdc = 0.005\nseed = {seed}\n\
         [policy]\nkind = app-fit\ntarget-fraction = 0.25\n\
         [engine]\nkind = sharded\nshards = 4\nepoch = auto\nthreads = 1\nsync = epoch\n\
         [sweep]\nfault-rate = 0, 0.005, 0.01, 0.02\n\
         target-fraction = 0.1, 0.25, 0.5, 0.75\n\
         seed = {}, {}, {}, {}\n",
        first,
        first + 1,
        first + 2,
        first + 3
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{EngineSpec, ScenarioSpec};

    /// The catalog preset with only `threads` rewritten to 1.
    fn preset_inline(name: &str) -> ScenarioSpec {
        let mut spec = scenario::preset(name).expect("catalog preset");
        if let EngineSpec::Sharded { threads, .. } = &mut spec.engine {
            *threads = 1;
        }
        spec
    }

    #[test]
    fn default_seed_reproduces_the_presets() {
        for (workload, preset) in [
            ("epoch-1m", "sweep-1m"),
            ("lookahead-1m", "lookahead-1m"),
            ("stream-cholesky", "stress-huge-cholesky"),
        ] {
            let text = direct_text(workload, DEFAULT_SEED, false).unwrap();
            let parsed = ScenarioSpec::parse(&text).expect("generated text parses");
            assert_eq!(
                parsed,
                preset_inline(preset),
                "{workload} drifted from {preset}"
            );
            // Canonical text, so the trace's embedded spec equals the input.
            assert_eq!(parsed.to_string(), text);
        }
    }

    #[test]
    fn seed_moves_every_text() {
        for w in WORKLOADS {
            let texts = |seed| match direct_text(w.name, seed, false) {
                Some(text) => vec![text],
                None => vec![grid_text(seed, 0), grid_text(seed, 1)],
            };
            assert_eq!(texts(7), texts(7));
            assert_ne!(texts(7), texts(8));
        }
    }

    #[test]
    fn grids_share_one_graph_key_and_have_the_stated_shape() {
        let a = ScenarioSpec::parse(&grid_text(DEFAULT_SEED, 0)).unwrap();
        let b = ScenarioSpec::parse(&grid_text(DEFAULT_SEED, 1)).unwrap();
        a.validate().unwrap();
        assert_ne!(a, b);
        let cells: Vec<_> = a.expand().into_iter().chain(b.expand()).collect();
        assert_eq!(cells.len(), 2 * GRID_CELLS);
        assert!(cells.iter().all(|c| c.graph_key() == cells[0].graph_key()));
        let graph = scenario::build_graph(&cells[0]).unwrap();
        assert_eq!(graph.len(), GRID_CELL_TASKS);
    }
}
