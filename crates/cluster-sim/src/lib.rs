//! # cluster-sim
//!
//! A discrete-event simulator for task-parallel dataflow execution on a
//! cluster — this reproduction's substitute for the MareNostrum III
//! system (16-core nodes, up to 64 nodes / 1024 cores) the paper's
//! Figures 4–6 were measured on, which a single-core container cannot
//! time-slice honestly. Two engines share one timing model:
//!
//! * [`simulate`] — the **sequential reference engine**: one global
//!   event heap, event-exact everywhere, the simplest thing that can be
//!   trusted;
//! * [`simulate_sharded`] — the **sharded parallel engine**: machines
//!   partitioned into shards, each with one event heap carried across
//!   windows ([`events`]), synchronized either at
//!   fixed **epoch barriers** or through **conservative-lookahead**
//!   windows ([`SyncMode`]) — null-message horizon exchange with
//!   cross-node activations delayed by exactly the interconnect's
//!   latency floor — scaling to millions of tasks over thousands of
//!   simulated machines (see [`shard`] for the determinism contract and
//!   `ARCHITECTURE.md` for the design). [`simulate_delayed`] is the
//!   sequential reference implementation of the lookahead semantics;
//!   `tests/conformance.rs` asserts all engine variants agree.
//!
//! ## What the model captures
//!
//! The simulator models exactly the quantities the paper's figures
//! depend on:
//!
//! * **nodes × cores** plus per-node **spare cores** that only replicas
//!   may use (the paper executes replicas on spare cores) —
//!   [`ClusterSpec`], [`NodeSpec`];
//! * a roofline-style **task cost model** (`max(flops/rate,
//!   bytes/bandwidth)`) fed by the workloads' analytic flop counts —
//!   [`CostModel`], with [`PreparedCost`] as its hot-path form;
//! * an interconnect with **latency + bandwidth** charged when a task's
//!   inputs were produced on another node;
//! * the full replication pipeline in virtual time: checkpoint copy,
//!   replica on a spare core, end-of-task synchronization + comparison,
//!   re-execution and vote on detected faults;
//! * seeded per-task **fault injection** so recovery costs appear in
//!   the makespan (the paper's "per task fixed fault rates").
//!
//! ## Inputs and outputs
//!
//! A run consumes a [`SimGraph`] — extracted from a real
//! [`dataflow_rt::TaskGraph`] via [`SimGraph::from_task_graph`],
//! streamed at million-task scale from a [`TaskStream`] via
//! [`SimGraph::from_stream`] (bit-identical to the extracted form —
//! see [`stream`]), or generated directly via [`SimGraph::synthetic`] —
//! plus a [`SimConfig`] bundling machine model, cost model, replication
//! policy and fault model. It produces a [`SimReport`] with per-task
//! [`SimTaskRecord`]s and the aggregate metrics behind Figures 4–6.
//!
//! ## Determinism
//!
//! Both engines are fully deterministic: identical inputs give
//! identical virtual timelines, so App_FIT decision sequences are
//! exactly reproducible. The sharded engine additionally guarantees
//! that its results never depend on the shard count or thread count,
//! and coincide bit-for-bit with [`simulate`] for single-node
//! scenarios — property-tested in `tests/sharded.rs`.
//!
//! The model's simplifications (no link contention, transfers
//! serialized per task, replica serialized onto its originating core
//! when no spare is free) are documented on the relevant items and in
//! DESIGN.md §2.
//!
//! ## Memory layout
//!
//! The hot path is flat (see `ARCHITECTURE.md` §"Memory layout"):
//! [`SimGraph`] stores adjacency and transfer sources as CSR arrays
//! (no per-task `Vec`s), in-flight results live in a struct-of-arrays
//! [`RecordStore`] (packed flag bitsets) that converts to
//! [`SimReport`] at the boundary, event-heap entries are packed
//! [`events::EventKey`]s, and per-node ready queues are intrusive
//! index-linked lists over one shared arena. `repro bench-sim`
//! (`scripts/bench.sh`) tracks the resulting throughput and peak
//! memory per release in `BENCH_sim.json`.

#![deny(missing_docs)]

pub mod cost;
pub mod events;
pub mod graph;
pub mod machine;
pub(crate) mod ready;
pub mod records;
pub mod recovery;
pub mod report;
pub mod sched;
pub mod shard;
pub mod sim;
pub mod stream;

pub use cost::{CostModel, PreparedCost};
pub use graph::{SimGraph, SimTask, SyntheticSpec};
pub use machine::{marenostrum3_node, ClusterSpec, NodeSpec, PreemptSpec, ShardMap};
pub use records::RecordStore;
pub use recovery::{RecoveryConfig, RecoveryKind, RecoveryRecord, RecoveryStrategy};
pub use report::{LabelStats, SimReport, SimTaskRecord};
pub use sched::{NaturalOrder, ProtocolOp, ShardScheduler};
pub use shard::{
    simulate_sharded, simulate_sharded_scheduled, simulate_sharded_stats, DeliveryStats,
    ShardedConfig, SyncMode,
};
pub use sim::{simulate, simulate_delayed, SimConfig};
pub use stream::{StreamTask, TaskStream};
