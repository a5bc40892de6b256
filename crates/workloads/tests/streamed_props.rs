//! The streamed-builder fidelity and scale contracts:
//!
//! 1. at small sizes, every benchmark's [`workloads::streamed`] stream
//!    produces a [`cluster_sim::SimGraph`] **identical** (bitwise,
//!    including float costs and rates) to extracting the in-memory
//!    build with [`cluster_sim::SimGraph::from_task_graph`];
//! 2. at [`Scale::Huge`], every benchmark builds a ≥2²⁰-task graph
//!    through the streamed path — the million-task regime the
//!    in-memory path cannot reach.

use cluster_sim::SimGraph;
use fit_model::RateModel;
use workloads::{all_workloads, streamed_workload, Scale, Workload};

/// Builds one benchmark both ways and asserts exact graph equality.
fn assert_identical(w: &dyn Workload, scale: Scale, nodes: usize) {
    let rates = RateModel::roadrunner().with_multiplier(10.0);
    let built = w.build(scale, nodes, false);
    let reference = SimGraph::from_task_graph(&built.graph, &rates, built.placement_fn());
    let mut stream = streamed_workload(w.name(), scale, nodes).expect("streamed builder exists");
    let streamed = SimGraph::from_stream(stream.as_mut(), &rates);
    assert_eq!(
        reference.len(),
        streamed.len(),
        "{}: task count diverged",
        w.name()
    );
    for (a, b) in reference.tasks().iter().zip(streamed.tasks()) {
        assert_eq!(
            reference.label_name(a.label),
            streamed.label_name(b.label),
            "{}: task {} label diverged",
            w.name(),
            a.id
        );
        assert_eq!(a, b, "{}: task {} diverged", w.name(), a.id);
    }
    assert_eq!(reference, streamed, "{}: graphs diverged", w.name());
}

#[test]
fn streamed_builders_match_in_memory_small_shared() {
    for w in all_workloads() {
        assert_identical(w.as_ref(), Scale::Small, 1);
    }
}

#[test]
fn streamed_builders_match_in_memory_small_distributed() {
    // Distributed placements must agree too: exercise several node
    // counts, including ones that don't divide the structure evenly.
    for nodes in [2usize, 3, 5, 8] {
        for w in all_workloads() {
            assert_identical(w.as_ref(), Scale::Small, nodes);
        }
    }
}

#[test]
fn streamed_builders_match_in_memory_medium() {
    // One denser configuration to exercise longer dependency chains.
    for w in all_workloads() {
        if matches!(w.name(), "Cholesky" | "Matmul" | "Pingpong") {
            assert_identical(w.as_ref(), Scale::Medium, 4);
        }
    }
}

#[test]
fn multi_round_fft_matches_in_memory() {
    // The Huge FFT is the only rounds > 1 configuration; exercise the
    // per-round cursor arithmetic against the in-memory builder at
    // small dimensions (cross-round WAR/WAW edges included).
    use workloads::fft2d::{Fft2d, FftConfig};
    let cfg = FftConfig {
        n: 32,
        rows_per_block: 8,
        tile: 4,
        rounds: 3,
    };
    let rates = RateModel::roadrunner().with_multiplier(10.0);
    let built = Fft2d.build_config(&cfg, false, false);
    let reference = SimGraph::from_task_graph(&built.graph, &rates, built.placement_fn());
    let mut stream = workloads::streamed::FftStream::new(cfg);
    let streamed = SimGraph::from_stream(&mut stream, &rates);
    assert_eq!(cfg.task_count(), reference.len());
    assert_eq!(reference, streamed);
}

#[test]
fn single_tile_cholesky_streams() {
    // Degenerate but legal: one tile ⇒ just the potrf (regression for
    // a task-count underflow at nt ≤ 1).
    let cfg = workloads::cholesky::CholeskyConfig { n: 16, block: 16 };
    assert_eq!(cfg.task_count(), 1);
    let mut s = workloads::streamed::CholeskyStream::new(cfg);
    let g = SimGraph::from_stream(&mut s, &RateModel::roadrunner());
    assert_eq!(g.len(), 1);
    assert_eq!(g.label_name(g.tasks()[0].label), "potrf");
}

/// Every Table-I benchmark reaches the million-task regime via the
/// streamed path (the acceptance bar: ≥ 2²⁰ tasks each).
fn million_tasks(name: &str, nodes: usize, edges: usize) {
    let rates = RateModel::roadrunner().with_multiplier(10.0);
    let mut stream = streamed_workload(name, Scale::Huge, nodes).expect("streamed builder");
    let promised = stream.len();
    assert!(
        promised >= 1 << 20,
        "{name}: huge scale promises only {promised} tasks"
    );
    let graph = SimGraph::from_stream(stream.as_mut(), &rates);
    assert_eq!(graph.len(), promised, "{name}: stream length mismatch");
    // The recorded shape: a tracker change that drops or duplicates
    // edges only at this scale fails here.
    assert_eq!(graph.edge_count(), edges, "{name}: edge count moved");
    // The graph is usable: placed within bounds, costed, labelled.
    assert!(graph.tasks().iter().all(|t| (t.node as usize) < nodes));
    assert!(graph.tasks().iter().all(|t| t.rates.total().value() > 0.0));
    assert!(!graph.labels().is_empty());
}

#[test]
fn million_task_sparse_lu() {
    million_tasks("SparseLU", 1, 3_300_227);
}

#[test]
fn million_task_cholesky() {
    million_tasks("Cholesky", 1, 3_114_660);
}

#[test]
fn million_task_fft() {
    million_tasks("FFT", 1, 5_114_640);
}

#[test]
fn million_task_perlin() {
    million_tasks("Perlin", 1, 1_048_544);
}

#[test]
fn million_task_stream() {
    million_tasks("Stream", 1, 3_406_976);
}

#[test]
fn million_task_nbody() {
    million_tasks("Nbody", 16, 26_212_608);
}

#[test]
fn million_task_matmul() {
    million_tasks("Matmul", 64, 3_014_656);
}

#[test]
fn million_task_pingpong() {
    million_tasks("Pingpong", 64, 1_400_832);
}

#[test]
fn million_task_linpack() {
    million_tasks("Linpack", 64, 3_165_645);
}
