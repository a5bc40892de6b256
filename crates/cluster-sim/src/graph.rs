//! Extraction of a simulation graph from a runtime task graph, stored
//! flat: CSR adjacency and CSR transfer sources, no per-task heap
//! allocations.

use dataflow_rt::{Task, TaskGraph};
use fit_model::{RateModel, TaskRates};

/// One task as the simulator sees it: costs + placement, no data and
/// no structure — adjacency lives in the owning [`SimGraph`]'s CSR
/// arrays ([`SimGraph::preds`], [`SimGraph::succs`],
/// [`SimGraph::sources`]).
///
/// `PartialEq` compares exactly (floats bit-for-bit on equal values) —
/// the streamed-construction identity tests rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimTask {
    /// Task index (== position in the graph).
    pub id: u32,
    /// Interned task-kind label: an index into the owning
    /// [`SimGraph`]'s symbol table ([`SimGraph::label_name`]). Numeric
    /// ids keep million-task graphs free of per-task `String`
    /// allocations.
    pub label: u32,
    /// Analytic flop count (from the workload's cost hint).
    pub flops: f64,
    /// Bytes read (`in` + `inout`).
    pub bytes_in: u64,
    /// Bytes written (`out` + `inout`).
    pub bytes_out: u64,
    /// Total argument bytes (failure-rate input).
    pub argument_bytes: u64,
    /// Estimated failure rates.
    pub rates: TaskRates,
    /// Owner node (owner-computes placement).
    pub node: u32,
    /// Barrier pseudo-task (zero cost, no core).
    pub is_barrier: bool,
}

/// The simulator's input: a placed, costed task DAG in flat memory.
///
/// Task-kind labels are interned: each [`SimTask`] carries a numeric
/// symbol id resolved through this graph's side table (one `String`
/// per distinct kind, not per task). Dependency structure is stored as
/// **compressed sparse rows** — one offset array plus one flat edge
/// array per direction, and a parallel `(producer, bytes)` pair of
/// columns for transfer sources — so a million-task graph is a handful
/// of large allocations instead of three small `Vec`s per task.
///
/// A built graph is immutable and, by construction, `Send + Sync` —
/// the scenario service shares one `Arc<SimGraph>` across concurrent
/// runs on different worker threads. The assertion below turns any
/// future interior-mutability addition (a `Cell`-cached statistic,
/// say) into a compile error rather than a service data race.
#[derive(Debug, Clone, PartialEq)]
pub struct SimGraph {
    tasks: Vec<SimTask>,
    /// Symbol table: `labels[task.label as usize]` is the task's kind.
    labels: Vec<String>,
    /// CSR predecessors: task `i`'s direct predecessors are
    /// `pred_edges[pred_offsets[i]..pred_offsets[i + 1]]` (sorted,
    /// deduplicated — the `DepTracker` contract).
    pred_offsets: Vec<u32>,
    pred_edges: Vec<u32>,
    /// CSR successors, derived from the predecessors: each task's
    /// successor list is ascending (successors register in submission
    /// order).
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
    /// CSR transfer sources: task `i`'s `(producer, bytes)` pairs are
    /// `src_tasks[src_offsets[i]..src_offsets[i + 1]]` zipped with the
    /// same range of `src_bytes`.
    src_offsets: Vec<u32>,
    src_tasks: Vec<u32>,
    src_bytes: Vec<u64>,
}

impl SimGraph {
    /// Builds a simulation graph from a runtime graph.
    ///
    /// * `rates` — the failure-rate model (carries the error-rate
    ///   multiplier for the 5×/10× scenarios);
    /// * `placement` — owner node per task (return `0` everywhere for
    ///   shared memory).
    ///
    /// Input *sources* are inferred per read access: the latest
    /// predecessor with an overlapping write access is charged as that
    /// access's producer, which is what the interconnect model bills
    /// for remote reads.
    pub fn from_task_graph<P>(graph: &TaskGraph, rates: &RateModel, mut placement: P) -> Self
    where
        P: FnMut(&Task) -> u32,
    {
        let mut b = GraphBuilder::with_capacity(graph.len());
        let mut preds: Vec<u32> = Vec::new();
        let mut sources: Vec<(u32, u64)> = Vec::new();
        for task in graph.tasks() {
            sources.clear();
            for access in task.accesses.iter().filter(|a| a.mode.reads()) {
                // Latest predecessor writing an overlapping region.
                let producer = graph
                    .predecessors(task.id)
                    .iter()
                    .rev()
                    .find(|p| {
                        graph
                            .task(**p)
                            .accesses
                            .iter()
                            .any(|pa| pa.mode.writes() && pa.region.overlaps(&access.region))
                    })
                    .copied();
                if let Some(p) = producer {
                    let bytes = access.bytes();
                    let pid = p.index() as u32;
                    match sources.iter_mut().find(|(s, _)| *s == pid) {
                        Some(entry) => entry.1 += bytes,
                        None => sources.push((pid, bytes)),
                    }
                }
            }
            preds.clear();
            preds.extend(graph.predecessors(task.id).iter().map(|t| t.index() as u32));
            let label = b.intern(&task.label);
            b.push(
                SimTask {
                    id: task.id.index() as u32,
                    label,
                    flops: task.flops,
                    bytes_in: task.input_bytes(),
                    bytes_out: task.output_bytes(),
                    argument_bytes: task.argument_bytes(),
                    rates: rates.rates_for_arguments(task.accesses.iter().map(|a| a.bytes())),
                    node: placement(task),
                    is_barrier: task.is_barrier,
                },
                &preds,
                &sources,
            );
        }
        b.finish()
    }

    /// All tasks, indexed by id.
    pub fn tasks(&self) -> &[SimTask] {
        &self.tasks
    }

    /// One task by id.
    #[inline]
    pub fn task(&self, id: u32) -> &SimTask {
        &self.tasks[id as usize]
    }

    /// Task `id`'s direct predecessors (sorted, deduplicated).
    #[inline]
    pub fn preds(&self, id: u32) -> &[u32] {
        let (s, e) = (
            self.pred_offsets[id as usize] as usize,
            self.pred_offsets[id as usize + 1] as usize,
        );
        &self.pred_edges[s..e]
    }

    /// Task `id`'s direct successors (ascending).
    #[inline]
    pub fn succs(&self, id: u32) -> &[u32] {
        let (s, e) = (
            self.succ_offsets[id as usize] as usize,
            self.succ_offsets[id as usize + 1] as usize,
        );
        &self.succ_edges[s..e]
    }

    /// Task `id`'s `(producer task, bytes)` transfer sources: inputs
    /// produced by these predecessors; a transfer is charged when the
    /// producer lives on a different node.
    #[inline]
    pub fn sources(&self, id: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let (s, e) = (
            self.src_offsets[id as usize] as usize,
            self.src_offsets[id as usize + 1] as usize,
        );
        self.src_tasks[s..e]
            .iter()
            .copied()
            .zip(self.src_bytes[s..e].iter().copied())
    }

    /// Total dependency edges (one direction).
    pub fn edge_count(&self) -> usize {
        self.pred_edges.len()
    }

    /// The label symbol table: `labels()[sym as usize]` is the kind
    /// name for symbol `sym` (see [`SimTask::label`]).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Resolves an interned label symbol to its kind name.
    pub fn label_name(&self, sym: u32) -> &str {
        &self.labels[sym as usize]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Remaps every task's owner node through `f` (e.g. to fold a
    /// 64-node placement onto 8 nodes for a scaling sweep).
    pub fn remap_nodes<F: FnMut(u32) -> u32>(&mut self, mut f: F) {
        for t in &mut self.tasks {
            t.node = f(t.node);
        }
    }
}

/// Incremental CSR assembly shared by all three construction paths
/// ([`SimGraph::from_task_graph`], [`SimGraph::from_stream`],
/// [`SimGraph::synthetic`]): tasks are appended in id order with their
/// predecessor and source slices, and [`GraphBuilder::finish`] derives
/// the successor CSR in one counting-sort pass — the same ascending
/// scatter order every path produced before, so the streamed-identity
/// contract is untouched.
pub(crate) struct GraphBuilder {
    tasks: Vec<SimTask>,
    labels: Vec<String>,
    pred_offsets: Vec<u32>,
    pred_edges: Vec<u32>,
    src_offsets: Vec<u32>,
    src_tasks: Vec<u32>,
    src_bytes: Vec<u64>,
}

impl GraphBuilder {
    /// An empty builder expecting about `n` tasks.
    pub(crate) fn with_capacity(n: usize) -> Self {
        let mut pred_offsets = Vec::with_capacity(n + 1);
        pred_offsets.push(0);
        let mut src_offsets = Vec::with_capacity(n + 1);
        src_offsets.push(0);
        GraphBuilder {
            tasks: Vec::with_capacity(n),
            labels: Vec::new(),
            pred_offsets,
            pred_edges: Vec::new(),
            src_offsets,
            src_tasks: Vec::new(),
            src_bytes: Vec::new(),
        }
    }

    /// Interns `name`, returning its symbol id. Label sets are tiny (a
    /// handful of kinds per workload), so a linear scan beats hashing.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        match self.labels.iter().position(|l| l == name) {
            Some(i) => i as u32,
            None => {
                self.labels.push(name.to_string());
                (self.labels.len() - 1) as u32
            }
        }
    }

    /// Makes room for the next task's `preds` predecessor and
    /// `sources` source entries, sizing a full column for all `total`
    /// tasks of a stream at once (see [`reserve_projected`]) where
    /// [`GraphBuilder::push`] alone would double it.
    pub(crate) fn reserve_rows(&mut self, preds: usize, sources: usize, total: usize) {
        let done = self.tasks.len() + 1;
        reserve_projected(&mut self.pred_edges, preds, done, total);
        reserve_projected(&mut self.src_tasks, sources, done, total);
        reserve_projected(&mut self.src_bytes, sources, done, total);
    }

    /// Appends one task with its predecessor ids and `(producer,
    /// bytes)` sources. Tasks must arrive in id order and edges point
    /// backwards.
    pub(crate) fn push(&mut self, task: SimTask, preds: &[u32], sources: &[(u32, u64)]) {
        debug_assert_eq!(
            task.id as usize,
            self.tasks.len(),
            "tasks must arrive in order"
        );
        self.tasks.push(task);
        self.pred_edges.extend_from_slice(preds);
        self.pred_offsets.push(self.pred_edges.len() as u32);
        for &(p, bytes) in sources {
            self.src_tasks.push(p);
            self.src_bytes.push(bytes);
        }
        self.src_offsets.push(self.src_tasks.len() as u32);
    }

    /// Seals the graph: derives the successor CSR from the predecessor
    /// CSR (counting sort, ascending successor ids per task).
    pub(crate) fn finish(self) -> SimGraph {
        let n = self.tasks.len();
        assert!(
            self.pred_edges.len() <= u32::MAX as usize,
            "edge count overflows the u32 CSR offsets"
        );
        // Sources are per read access (not deduplicated like preds),
        // so they can outnumber edges — guard their offsets too.
        assert!(
            self.src_tasks.len() <= u32::MAX as usize,
            "source count overflows the u32 CSR offsets"
        );
        let mut succ_offsets = vec![0u32; n + 1];
        for &p in &self.pred_edges {
            succ_offsets[p as usize + 1] += 1;
        }
        for i in 0..n {
            succ_offsets[i + 1] += succ_offsets[i];
        }
        let mut cursor: Vec<u32> = succ_offsets[..n].to_vec();
        let mut succ_edges = vec![0u32; self.pred_edges.len()];
        for id in 0..n {
            let (s, e) = (
                self.pred_offsets[id] as usize,
                self.pred_offsets[id + 1] as usize,
            );
            for &p in &self.pred_edges[s..e] {
                let c = &mut cursor[p as usize];
                succ_edges[*c as usize] = id as u32;
                *c += 1;
            }
        }
        SimGraph {
            tasks: self.tasks,
            labels: self.labels,
            pred_offsets: self.pred_offsets,
            pred_edges: self.pred_edges,
            succ_offsets,
            succ_edges,
            src_offsets: self.src_offsets,
            src_tasks: self.src_tasks,
            src_bytes: self.src_bytes,
        }
    }
}

/// Makes room for `extra` more elements in a column that grows with
/// the task count. A full column is sized for the whole stream — the
/// per-task density of the `done ≥ 1` tasks so far (the current one
/// included) × `total` tasks — instead of doubling through
/// reallocations that copy megabytes; a projection that falls short is
/// corrected at the next growth, and never grows less than doubling.
pub(crate) fn reserve_projected<T>(v: &mut Vec<T>, extra: usize, done: usize, total: usize) {
    let need = v.len() + extra;
    if need > v.capacity() {
        let projected = need.saturating_mul(total) / done;
        v.reserve(projected.max(need) - v.len());
    }
}

/// Shape of a [`SimGraph::synthetic`] workload: per-node task chains
/// with optional nearest-neighbour cross-node dependencies.
///
/// The builder exists for cluster-scale sweeps (millions of tasks over
/// thousands of machines) where constructing a real
/// [`dataflow_rt::TaskGraph`] — with its region dependency inference —
/// would dominate the experiment. The generated structure mimics the
/// paper's distributed benchmarks: independent per-node work streams
/// (`chains_per_node × tasks_per_chain` per node) stitched together by
/// periodic halo-exchange-style edges to a neighbouring node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticSpec {
    /// Cluster nodes tasks are placed on (owner-computes, round-robin
    /// free — chain `c` of node `n` stays on node `n`).
    pub nodes: usize,
    /// Independent chains per node (the node's core-level parallelism).
    pub chains_per_node: usize,
    /// Chain length; total tasks = `nodes × chains_per_node × tasks_per_chain`.
    pub tasks_per_chain: usize,
    /// Mean analytic flop count per task.
    pub flops_per_task: f64,
    /// Deterministic flop jitter as a fraction of the mean: each task's
    /// flops are `flops_per_task × (1 ± jitter)`. Zero gives exactly
    /// uniform tasks (useful for boundary-aligned regression tests).
    pub jitter: f64,
    /// Argument bytes per task (drives failure-rate estimates and
    /// transfer costs of cross-node edges).
    pub argument_bytes: u64,
    /// Every `k`-th chain position also depends on the same chain of
    /// the next node (`0` disables cross-node edges).
    pub cross_node_every: usize,
    /// Seed for the flop jitter.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Total number of tasks the spec generates.
    pub fn total_tasks(&self) -> usize {
        self.nodes * self.chains_per_node * self.tasks_per_chain
    }
}

/// SplitMix64 — the same avalanche mixer the fault injector uses, kept
/// local so graph generation stays dependency-free.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed.wrapping_add(x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimGraph {
    /// Builds a placed synthetic graph directly (no runtime graph, no
    /// data), deterministic in `spec`. See [`SyntheticSpec`].
    pub fn synthetic(spec: &SyntheticSpec, rates: &RateModel) -> Self {
        assert!(spec.nodes >= 1, "need at least one node");
        let n = spec.total_tasks();
        let task_rates = rates.rates_for_arguments([spec.argument_bytes]);
        let half = spec.argument_bytes / 2;
        let mut b = GraphBuilder::with_capacity(n);
        // One interned symbol shared by every task — the million-task
        // hot path allocates no per-task strings.
        let synth = b.intern("synth");
        let mut preds: Vec<u32> = Vec::with_capacity(2);
        let mut sources: Vec<(u32, u64)> = Vec::with_capacity(2);
        for node in 0..spec.nodes {
            for chain in 0..spec.chains_per_node {
                let chain_base = (node * spec.chains_per_node + chain) * spec.tasks_per_chain;
                for pos in 0..spec.tasks_per_chain {
                    let id = (chain_base + pos) as u32;
                    let unit = (mix(spec.seed, id as u64) >> 11) as f64 / (1u64 << 53) as f64;
                    let jitter = 1.0 + spec.jitter * (2.0 * unit - 1.0);
                    preds.clear();
                    sources.clear();
                    if pos > 0 {
                        preds.push(id - 1);
                        sources.push((id - 1, half));
                        if spec.cross_node_every > 0
                            && pos % spec.cross_node_every == 0
                            && spec.nodes > 1
                        {
                            // Halo edge: previous position of the same
                            // chain index on the next node.
                            let neighbour = (node + 1) % spec.nodes;
                            let other = ((neighbour * spec.chains_per_node + chain)
                                * spec.tasks_per_chain
                                + pos
                                - 1) as u32;
                            preds.push(other);
                            sources.push((other, half));
                        }
                    }
                    b.push(
                        SimTask {
                            id,
                            label: synth,
                            flops: spec.flops_per_task * jitter,
                            bytes_in: half,
                            bytes_out: half,
                            argument_bytes: spec.argument_bytes,
                            rates: task_rates,
                            node: node as u32,
                            is_barrier: false,
                        },
                        &preds,
                        &sources,
                    );
                }
            }
        }
        b.finish()
    }
}

/// Compile-time guarantee that [`SimGraph`] stays shareable across
/// threads (see the type-level docs).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimGraph>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_rt::{DataArena, Region, TaskSpec};

    #[test]
    fn sources_attribute_bytes_to_latest_writer() {
        let mut arena = DataArena::new();
        let a = arena.alloc("a", 64);
        let mut g = TaskGraph::new();
        let w1 = g.submit(TaskSpec::new("w1").writes(Region::contiguous(a, 0, 32)));
        let w2 = g.submit(TaskSpec::new("w2").writes(Region::contiguous(a, 32, 32)));
        let w3 = g.submit(TaskSpec::new("w3").updates(Region::contiguous(a, 0, 32)));
        let r = g.submit(TaskSpec::new("r").reads(Region::full(a, 64)));
        let sim = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0);
        // The read of [0,64) overlaps writes of w1, w2 and w3; the
        // latest overlapping writer is w3 (w1 is superseded; w2 writes a
        // disjoint half but also overlaps the full-range read).
        // Attribution picks the latest overlapping writer for the whole
        // access: w3.
        let sources: Vec<_> = sim.sources(r.index() as u32).collect();
        assert_eq!(sources, vec![(w3.index() as u32, 64 * 8)]);
        let _ = (w1, w2);
    }

    #[test]
    fn costs_and_rates_extracted() {
        let mut arena = DataArena::new();
        let a = arena.alloc("a", 1000);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("k")
                .reads(Region::contiguous(a, 0, 500))
                .writes(Region::contiguous(a, 500, 500))
                .flops(1.0e6),
        );
        let sim = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 3);
        let t = &sim.tasks()[0];
        assert_eq!(t.flops, 1.0e6);
        assert_eq!(t.bytes_in, 4000);
        assert_eq!(t.bytes_out, 4000);
        assert_eq!(t.argument_bytes, 8000);
        assert_eq!(t.node, 3);
        assert!(t.rates.total().value() > 0.0);
        assert!(!t.is_barrier);
    }

    #[test]
    fn barriers_are_marked() {
        let mut g = TaskGraph::new();
        g.taskwait();
        let sim = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0);
        assert!(sim.tasks()[0].is_barrier);
        assert_eq!(sim.tasks()[0].bytes_in, 0);
    }

    #[test]
    fn remap_nodes_folds_placement() {
        let mut arena = DataArena::new();
        let a = arena.alloc("a", 8);
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.submit(TaskSpec::new("t").writes(Region::contiguous(a, i, 1)));
        }
        let mut sim =
            SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |t| t.id.index() as u32);
        sim.remap_nodes(|n| n % 2);
        assert!(sim.tasks().iter().all(|t| t.node < 2));
    }

    #[test]
    fn csr_adjacency_matches_the_runtime_graph() {
        // A chain with a fan-out: CSR rows must equal the TaskGraph's
        // own per-task lists in both directions.
        let mut arena = DataArena::new();
        let a = arena.alloc("a", 16);
        let mut g = TaskGraph::new();
        let w = g.submit(TaskSpec::new("w").writes(Region::full(a, 16)));
        let r1 = g.submit(TaskSpec::new("r1").reads(Region::full(a, 16)));
        let r2 = g.submit(TaskSpec::new("r2").reads(Region::full(a, 16)));
        let w2 = g.submit(TaskSpec::new("w2").writes(Region::full(a, 16)));
        let sim = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0);
        for t in [w, r1, r2, w2] {
            let id = t.index() as u32;
            let want_preds: Vec<u32> = g.predecessors(t).iter().map(|p| p.index() as u32).collect();
            let want_succs: Vec<u32> = g.successors(t).iter().map(|s| s.index() as u32).collect();
            assert_eq!(sim.preds(id), &want_preds[..], "preds of {id}");
            assert_eq!(sim.succs(id), &want_succs[..], "succs of {id}");
        }
        assert_eq!(sim.edge_count(), g.edge_count());
    }
}
