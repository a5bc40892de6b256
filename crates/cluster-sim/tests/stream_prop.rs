//! Property tests of the streamed-construction fidelity contract:
//! [`SimGraph::from_stream`] must reproduce
//! `TaskGraph::submit` + [`SimGraph::from_task_graph`] **exactly** —
//! same edges, same sources, same costs, same rates (bitwise) — for
//! arbitrary access sequences, chunk sizes and region shapes.

use std::sync::Arc;

use appfit_core::ReplicateAll;
use cluster_sim::{
    simulate, ClusterSpec, CostModel, NodeSpec, RecoveryConfig, SimConfig, SimGraph, StreamTask,
    TaskStream,
};
use dataflow_rt::{DataArena, Region, TaskGraph, TaskSpec};
use fault_inject::{InjectionConfig, SeededInjector};
use fit_model::RateModel;
use proptest::prelude::*;

/// One randomized access: buffer, offset block, mode, shape.
#[derive(Debug, Clone, Copy)]
struct RandAccess {
    buf: u8,
    start: u8,
    len: u8,
    mode: u8,
    strided: bool,
    /// Four times the length (up to 192 elements): regions spanning up
    /// to 24 chunks of 8, and several chunks of 16 and of 64.
    wide: bool,
}

/// A randomized task: up to three accesses plus a flop count and node.
#[derive(Debug, Clone)]
struct RandTask {
    accesses: Vec<RandAccess>,
    flops: u32,
    node: u8,
}

const BUFFERS: usize = 3;
const BUF_LEN: usize = 256;

fn region_of(a: RandAccess, bufs: &[dataflow_rt::BufferId]) -> Region {
    let buf = bufs[a.buf as usize % BUFFERS];
    let len = (1 + a.len as usize % 48) * if a.wide { 4 } else { 1 };
    let start = a.start as usize % (BUF_LEN - len);
    if a.strided && len >= 2 {
        // A few blocks with a gap, staying inside the buffer.
        let block = 1 + len / 4;
        let stride = block + 3;
        let blocks = ((BUF_LEN - start) / stride).clamp(1, 4);
        Region::strided(buf, start, block, stride, blocks)
    } else {
        Region::contiguous(buf, start, len)
    }
}

fn build_in_memory(tasks: &[RandTask], chunk: usize) -> SimGraph {
    let mut arena = DataArena::new();
    let bufs: Vec<_> = (0..BUFFERS)
        .map(|i| arena.alloc_virtual(&format!("b{i}"), BUF_LEN))
        .collect();
    let mut g = TaskGraph::with_chunk_size(chunk);
    for t in tasks {
        let mut spec = TaskSpec::new("t").flops(f64::from(t.flops));
        for &a in &t.accesses {
            let r = region_of(a, &bufs);
            spec = match a.mode % 3 {
                0 => spec.reads(r),
                1 => spec.writes(r),
                _ => spec.updates(r),
            };
        }
        g.submit(spec);
    }
    let nodes: Vec<u32> = tasks.iter().map(|t| u32::from(t.node % 4)).collect();
    SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |t| nodes[t.id.index()])
}

struct RandStream<'a> {
    tasks: &'a [RandTask],
    bufs: Vec<dataflow_rt::BufferId>,
    chunk: usize,
    next: usize,
}

impl TaskStream for RandStream<'_> {
    fn len(&self) -> usize {
        self.tasks.len()
    }
    fn chunk_size(&self) -> usize {
        self.chunk
    }
    fn next_task(&mut self, out: &mut StreamTask) -> bool {
        let Some(t) = self.tasks.get(self.next) else {
            return false;
        };
        self.next += 1;
        out.reset("t", u32::from(t.node % 4), f64::from(t.flops));
        for &a in &t.accesses {
            let r = region_of(a, &self.bufs);
            match a.mode % 3 {
                0 => out.reads(r),
                1 => out.writes(r),
                _ => out.updates(r),
            };
        }
        true
    }
}

fn build_streamed(tasks: &[RandTask], chunk: usize) -> SimGraph {
    // Virtual buffer ids are dense from zero, matching the arena order
    // of the in-memory build.
    let mut arena = DataArena::new();
    let bufs: Vec<_> = (0..BUFFERS)
        .map(|i| arena.alloc_virtual(&format!("b{i}"), BUF_LEN))
        .collect();
    let mut s = RandStream {
        tasks,
        bufs,
        chunk,
        next: 0,
    };
    SimGraph::from_stream(&mut s, &RateModel::roadrunner())
}

fn rand_task() -> impl Strategy<Value = RandTask> {
    (
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
                any::<u8>(),
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(buf, start, len, mode, strided, wide)| RandAccess {
                    buf,
                    start,
                    len,
                    mode,
                    strided,
                    wide,
                }),
            1..4,
        ),
        any::<u32>(),
        any::<u8>(),
    )
        .prop_map(|(accesses, flops, node)| RandTask {
            accesses,
            flops,
            node,
        })
}

/// The generator must keep exercising records that sit in several
/// chunk lists at once: over every input it can draw, at least a
/// quarter of the regions span three or more chunks of the smallest
/// chunk size.
#[test]
fn generator_draws_regions_spanning_several_chunks() {
    let bufs: Vec<_> = (0..BUFFERS as u32)
        .map(dataflow_rt::BufferId::from_raw)
        .collect();
    let (mut spanning, mut total) = (0u32, 0u32);
    for start in 0..=u8::MAX {
        for len in 0..=u8::MAX {
            for (strided, wide) in [(false, false), (false, true), (true, false), (true, true)] {
                let a = RandAccess {
                    buf: 0,
                    start,
                    len,
                    mode: 0,
                    strided,
                    wide,
                };
                total += 1;
                spanning += u32::from(region_of(a, &bufs).chunk_ids(8).len() >= 3);
            }
        }
    }
    assert!(
        spanning * 4 >= total,
        "{spanning} of {total} regions span ≥ 3 chunks"
    );
}

proptest! {
    /// The headline contract: for any access sequence and chunk size,
    /// the streamed graph equals the in-memory graph exactly —
    /// including the CSR adjacency in both directions, source
    /// attribution and the bitwise float rates.
    #[test]
    fn from_stream_matches_from_task_graph(
        tasks in proptest::collection::vec(rand_task(), 0..60),
        chunk_sel in 0usize..4,
    ) {
        let chunk = [8usize, 16, 64, 1024][chunk_sel];
        let reference = build_in_memory(&tasks, chunk);
        let streamed = build_streamed(&tasks, chunk);
        prop_assert_eq!(reference.len(), streamed.len());
        for (a, b) in reference.tasks().iter().zip(streamed.tasks()) {
            prop_assert_eq!(a, b, "task {} diverged", a.id);
        }
        for id in 0..reference.len() as u32 {
            prop_assert_eq!(reference.preds(id), streamed.preds(id), "preds of {}", id);
            prop_assert_eq!(reference.succs(id), streamed.succs(id), "succs of {}", id);
            let a: Vec<_> = reference.sources(id).collect();
            let b: Vec<_> = streamed.sources(id).collect();
            prop_assert_eq!(a, b, "sources of {}", id);
        }
        prop_assert_eq!(reference.labels(), streamed.labels());
        // The whole-graph comparison covers the flat arrays directly.
        prop_assert_eq!(&reference, &streamed);
    }

    /// End to end through the engine: simulating the CSR graph built by
    /// either constructor yields **bit-identical** reports on
    /// randomized DAGs — the flat layout may never shift a timestamp,
    /// a policy decision or a fault flag.
    #[test]
    fn csr_graphs_simulate_bit_identically(
        tasks in proptest::collection::vec(rand_task(), 1..40),
        chunk_sel in 0usize..2,
        seed in any::<u64>(),
    ) {
        let chunk = [16usize, 64][chunk_sel];
        let reference = build_in_memory(&tasks, chunk);
        let streamed = build_streamed(&tasks, chunk);
        let cfg = SimConfig {
            cluster: ClusterSpec {
                nodes: 4,
                node: NodeSpec {
                    cores: 2,
                    spare_cores: 1,
                    gflops_per_core: 1e-9,
                    mem_bw_gbs: f64::INFINITY,
                },
                net_latency_us: 1.0,
                net_bandwidth_gbs: 5.0,
            },
            cost: CostModel::default(),
            policy: Arc::new(ReplicateAll),
            faults: Arc::new(SeededInjector::new(seed)),
            injection: InjectionConfig::PerTask { p_due: 0.05, p_sdc: 0.05, p_crash: 0.0 },
            recovery: RecoveryConfig::default(),
        };
        let a = simulate(&reference, &cfg);
        let b = simulate(&streamed, &cfg);
        prop_assert_eq!(a, b);
    }
}
