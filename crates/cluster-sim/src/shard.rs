//! The sharded, parallel simulation engine.
//!
//! [`simulate_sharded`] partitions the cluster's nodes into **shards**,
//! each with its own scheduling state and one event heap holding every
//! pending completion and node-control event, and advances all shards
//! in lock step through windows of virtual time: a window pops the
//! heap while its top lies before the window end and carries the rest
//! to the next window. Within a window a shard touches only its own
//! nodes;
//! everything that crosses a node boundary — dependency activations
//! and global App_FIT accounting — is buffered and exchanged at the
//! **barrier** in a canonical order, so the result is a pure function
//! of `(graph, config, synchronization mode)` and never depends on the
//! shard count or thread count.
//!
//! Two synchronization modes place the barriers ([`SyncMode`]):
//!
//! * **Epoch** (`sync = epoch`): fixed-width windows of
//!   [`ShardedConfig::epoch`] virtual seconds; cross-node activations
//!   quantize to the next barrier (readiness at the window start).
//! * **Conservative lookahead** (`sync = lookahead`): adaptive windows
//!   `[T, H + L)` where `H` is the global horizon — the earliest
//!   pending event any shard holds, reported at the barrier (the
//!   null-message exchange) — and `L` is the lookahead, derived from
//!   the interconnect transfer latency floor
//!   ([`ShardedConfig::auto_lookahead`]) or set explicitly. A
//!   cross-node activation produced at `t` becomes visible to its
//!   consumer at exactly `t + L` (the activation message takes the
//!   interconnect's latency floor to arrive), which is **at or past
//!   the next barrier** — so deliveries are event-exact, never
//!   quantized, and the engine is an exact simulator of the
//!   `L`-delayed-activation semantics at *any* shard count.
//!   [`crate::sim::simulate_delayed`] is the independent sequential
//!   reference of the same semantics; the two agree bit for bit
//!   (`tests/conformance.rs`).
//!
//! # Semantics and the determinism contract
//!
//! * **Within one node** the engine is event-exact: the same FIFO list
//!   scheduler, contention snapshot, protection costs and recovery
//!   timing as [`crate::sim::simulate`], computed by the same code —
//!   [`crate::sim`]'s `drain_node` over a `DispatchState` per shard,
//!   and its `DispatchState::control` for crashes, repairs and
//!   preemptions; only the policy wiring differs (the shard's
//!   `WindowDecider`). A scenario placed
//!   entirely on one node therefore reproduces the sequential engine
//!   **bit for bit**, for any shard count and any epoch length.
//! * **Across nodes**, epoch mode is epoch-quantized: a dependency
//!   edge between tasks on different nodes (even two nodes of the same
//!   shard — the partition must not be observable) delivers at the
//!   next barrier, so a cross-node activation can start up to one
//!   epoch later than the sequential engine would start it. Shorter
//!   epochs approach event-exact cross-node timing at the price of
//!   more barriers. Lookahead mode replaces the quantization with an
//!   exact, uniform `+L` activation delay: timing error against the
//!   zero-delay sequential oracle is bounded by `L` per cross-node
//!   hop, independent of the barrier schedule.
//! * **Global accounting** ([`appfit_core::AppFit`]) is *epoch
//!   consistent*: each node decides one window against the global
//!   state frozen at the last barrier plus its own in-window charges
//!   (its view in the shard's window fork,
//!   [`appfit_core::ReplicationPolicy::fork_epoch`]), and all
//!   decisions merge at the barrier in canonical `(dispatch time,
//!   node, within-node order)`
//!   ([`appfit_core::ReplicationPolicy::commit_epoch`]).
//!   Staleness is bounded by one epoch; the committed sums are
//!   order-independent, so forks opened next window see identical
//!   state regardless of sharding.
//!
//! Tie-breaking is deterministic end to end: completions order by
//! `(time, dispatch sequence)` exactly like the sequential engine —
//! the sequence number is assigned at dispatch, so an event carried
//! from an earlier window precedes a simultaneous one dispatched in
//! this window; barrier deliveries sort by `(time, task id)`, and in
//! lookahead mode simultaneous delivery events additionally order
//! *after* all completions at the same timestamp, by consumer task id
//! ([`EventKey::delivery`]) — canonical orders no layout can perturb.
//!
//! Lookahead mode never deadlocks: every shard reports a horizon at
//! every barrier (an idle shard reports `+∞` — the null message), the
//! global horizon `H` is finite while work remains, and the next
//! window `[T, H + L)` with `L > 0` always contains the pending event
//! at `H` — so every window completes at least one event.
//!
//! See `ARCHITECTURE.md` §"Sharded simulation" for the design
//! rationale and the proof sketch of shard-count invariance.

use std::cmp::Reverse;
use std::sync::mpsc;

use appfit_core::{DecisionCtx, EpochDecider, EpochDecision, ReplicationPolicy};

use crate::cost::PreparedCost;
use crate::events::{DeliveryCalendar, EventBatch, EventKey, SortScratch};
use crate::graph::{SimGraph, SimTask};
use crate::machine::ShardMap;
use crate::recovery::{sort_canonical, RecoveryRecord};
use crate::report::{SimReport, SimTaskRecord};
use crate::sched::{fnv_step, splitmix, NaturalOrder, ProtocolOp, ShardScheduler, FNV_SEED};
use crate::sim::{decision_ctx, drain_node, Decider, DispatchState, SimConfig};

/// Cross-node synchronization mode of the sharded engine (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// Fixed-width epoch windows; cross-node activations quantize to
    /// the next barrier. The default.
    Epoch,
    /// Conservative lookahead: adaptive windows extend to the global
    /// horizon plus `lookahead`; cross-node activations become visible
    /// exactly `lookahead` seconds after production, delivered at
    /// their exact effect times. **Part of the simulated semantics**
    /// (like the epoch length in epoch mode), but independent of the
    /// shard layout.
    Lookahead {
        /// The activation delay / window extension in virtual seconds
        /// (positive, finite; see [`ShardedConfig::with_lookahead`]).
        lookahead: f64,
    },
}

/// Sharding parameters for [`simulate_sharded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Number of shards the cluster's nodes are partitioned into
    /// (contiguous, balanced). More shards than nodes is allowed; the
    /// extras idle. **Never affects results.**
    pub shards: usize,
    /// Epoch (synchronization window) length in virtual seconds. In
    /// epoch mode this **is** part of the simulated semantics:
    /// cross-node events quantize to barriers (see the module docs).
    /// In lookahead mode it is ignored (windows are adaptive).
    pub epoch: f64,
    /// Worker threads driving shards (capped at the shard count; `1`
    /// runs everything inline). **Never affects results.**
    pub threads: usize,
    /// Barrier placement and cross-node delivery semantics.
    pub sync: SyncMode,
}

impl ShardedConfig {
    /// A configuration with `shards` shards, an `epoch`-second window
    /// and one thread per shard, in epoch mode.
    pub fn new(shards: usize, epoch: f64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(epoch > 0.0 && epoch.is_finite(), "epoch must be positive");
        ShardedConfig {
            shards,
            epoch,
            threads: shards,
            sync: SyncMode::Epoch,
        }
    }

    /// Overrides the worker-thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Switches to conservative-lookahead synchronization with the
    /// given activation delay in virtual seconds.
    ///
    /// An **infinite** lookahead degenerates to epoch mode by
    /// definition — a window that never closes early and an activation
    /// that is never seen before the barrier is exactly the epoch
    /// engine — so `with_lookahead(f64::INFINITY)` keeps
    /// [`SyncMode::Epoch`] (property-tested in the `scenario` crate).
    /// A lookahead at or below the floating-point resolution of the
    /// simulated clock is not meaningful (the delayed activation would
    /// round onto its production time) and panics via the positivity
    /// check when exactly zero.
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: f64) -> Self {
        assert!(lookahead > 0.0, "lookahead must be positive");
        self.sync = if lookahead.is_finite() {
            SyncMode::Lookahead { lookahead }
        } else {
            SyncMode::Epoch
        };
        self
    }

    /// Picks an epoch length from the workload: roughly eight mean
    /// task durations (at full contention), so a window amortizes many
    /// events while cross-node quantization stays small against the
    /// makespan. Falls back to 1 s for empty or zero-cost graphs.
    pub fn auto(graph: &SimGraph, cfg: &SimConfig, shards: usize) -> Self {
        let mean = mean_task_secs(graph, cfg);
        let epoch = if mean > 0.0 { mean * 8.0 } else { 1.0 };
        ShardedConfig::new(shards, epoch)
    }

    /// Derives the lookahead from the **interconnect's activation
    /// latency floor**. A cross-node activation is a control message:
    /// no real runtime can deliver one faster than the wire latency
    /// ([`crate::ClusterSpec::transfer_secs`] of zero bytes), so
    /// delaying every activation by exactly that floor stays within
    /// the machine model's own fidelity — and, unlike the data
    /// transfer itself (still charged in full at consumer dispatch),
    /// it double-counts nothing.
    ///
    /// On a zero-latency fabric the derivation falls back to the
    /// **per-edge transfer floor**: the minimum over the graph's
    /// cross-node `(producer, bytes)` source columns of the edge's
    /// data transfer time — the consumer cannot observe the producer's
    /// output before its data could arrive.
    ///
    /// Either floor is **capped at one mean task duration** (an eighth
    /// of the auto epoch). A larger lookahead is never needed for
    /// correctness — smaller only moves the semantics *closer* to the
    /// zero-delay sequential oracle — and on workloads whose tasks are
    /// shorter than the wire latency an uncapped floor would trade
    /// away more timing fidelity than epoch quantization does,
    /// inverting the mode's whole point (asserted on the A4 ablation
    /// grid). When the graph has no cross-node data movement at all
    /// (or both floors are zero), the mean duration itself keeps
    /// windows meaningful, and 1 s covers empty or zero-cost graphs —
    /// the lookahead must be positive for windows to make progress.
    pub fn auto_lookahead(graph: &SimGraph, cfg: &SimConfig) -> f64 {
        let tasks = graph.tasks();
        let cluster = &cfg.cluster;
        // Mean task duration — the workload's own timescale.
        let mean = mean_task_secs(graph, cfg);
        // Wire latency floor — zero on single-node or zero-latency
        // topologies.
        let mut floor = cluster.transfer_secs(0);
        if floor <= 0.0 {
            // Per-edge data-transfer floor from the CSR source columns.
            let mut edge_floor = f64::INFINITY;
            for t in tasks {
                for (p, bytes) in graph.sources(t.id) {
                    if graph.task(p).node != t.node {
                        edge_floor = edge_floor.min(cluster.transfer_secs(bytes));
                    }
                }
            }
            if edge_floor.is_finite() {
                floor = edge_floor;
            }
        }
        let lookahead = if floor > 0.0 && mean > 0.0 {
            floor.min(mean)
        } else if floor > 0.0 {
            floor
        } else {
            mean
        };
        if lookahead > 0.0 {
            lookahead
        } else {
            1.0
        }
    }
}

/// Mean non-barrier task duration at full contention — the timescale
/// both auto derivations ([`ShardedConfig::auto`],
/// [`ShardedConfig::auto_lookahead`]) measure against. Zero for empty
/// or zero-cost graphs.
fn mean_task_secs(graph: &SimGraph, cfg: &SimConfig) -> f64 {
    // The prepared form evaluates the same expressions as
    // `CostModel::kernel_secs` (bit-identical), without redoing the
    // unit conversions for every task of a million-task graph.
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    let cores = cfg.cluster.node.cores;
    let (mut total, mut count) = (0.0f64, 0u64);
    for t in graph.tasks().iter().filter(|t| !t.is_barrier) {
        total += cost.kernel_secs(cores, t.flops, t.bytes_in, t.bytes_out);
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// A replication decision recorded during a window, awaiting the
/// barrier commit.
///
/// The commit order is `(time, node, node_seq)`: virtual dispatch
/// time, then owner node, then the decision's rank *within that
/// node's window*. All three are properties of the scenario, never of
/// the shard layout — and on a single node the order reduces to exact
/// dispatch order, which keeps stateful-policy accumulation (a
/// non-associative float sum) bit-identical to the sequential engine.
///
/// The three order components are pre-packed into one `u128` (time
/// through [`crate::events::time_to_bits`], then node, then seq) so
/// the single-threaded barrier sort is one integer key compare instead
/// of a three-way `total_cmp` chain; the key is unique per decision
/// (`node_seq` ranks within a node), so an unstable sort is
/// deterministic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecisionRec {
    /// `time_to_bits(time) << 64 | node << 32 | node_seq`.
    key: u128,
    task: u32,
    replicate: bool,
    /// Heartbeat detection abandoned this dispatch's replica — the
    /// commit charges the policy's recovery hook at the decision's
    /// canonical position.
    lagged: bool,
}

impl DecisionRec {
    #[inline]
    pub(crate) fn new(
        time: f64,
        node: u32,
        node_seq: u32,
        task: u32,
        replicate: bool,
        lagged: bool,
    ) -> Self {
        DecisionRec {
            key: (u128::from(crate::events::time_to_bits(time)) << 64)
                | (u128::from(node) << 32)
                | u128::from(node_seq),
            task,
            replicate,
            lagged,
        }
    }
}

/// Commits one window's pending decisions in canonical
/// `(time, node, node_seq)` order — shared by the sharded engine's
/// barrier and the sequential lookahead reference
/// ([`crate::sim::simulate_delayed`]), so the two consult
/// [`appfit_core::ReplicationPolicy::commit_epoch`] identically.
/// No-op (no `commit_epoch` call) when nothing was decided.
pub(crate) fn commit_pending(
    policy: &dyn appfit_core::ReplicationPolicy,
    tasks: &[SimTask],
    pending: &mut Vec<DecisionRec>,
    committed: &mut Vec<EpochDecision>,
) {
    commit_pending_with(policy, tasks, pending, committed, true);
}

/// [`commit_pending`] with the canonical sort made explicit. The only
/// caller that ever passes `canonical = false` is the sharded barrier
/// under the [`chaos`] test hook — the seeded bug the `shard-check`
/// model checker must be able to find.
pub(crate) fn commit_pending_with(
    policy: &dyn appfit_core::ReplicationPolicy,
    tasks: &[SimTask],
    pending: &mut Vec<DecisionRec>,
    committed: &mut Vec<EpochDecision>,
    canonical: bool,
) {
    if pending.is_empty() {
        return;
    }
    if canonical {
        pending.sort_unstable_by_key(|d| d.key);
    }
    committed.clear();
    committed.extend(pending.iter().map(|d| EpochDecision {
        ctx: decision_ctx(&tasks[d.task as usize]),
        replicate: d.replicate,
        replica_lagged: d.lagged,
    }));
    policy.commit_epoch(committed);
    pending.clear();
}

/// The windowed engines' policy wiring — [`crate::sim::simulate_delayed`]
/// and every shard of the sharded engine. One policy fork per window,
/// opened lazily on the first decision so idle windows cost nothing;
/// each node decides through its own view of it, and every decision is
/// recorded with its within-node rank for the barrier commit. A lagged
/// replica is charged on the node's view at once, so later decisions in
/// the window see it; the global policy hears about it at commit, in
/// canonical order.
pub(crate) struct WindowDecider<'a, 'c> {
    policy: &'c dyn ReplicationPolicy,
    /// The window's fork, `None` until its first decision.
    pub(crate) fork: Option<Box<dyn EpochDecider + 'c>>,
    /// Each local node's decision count this window — the `node_seq`
    /// of the canonical commit order.
    pub(crate) node_seqs: &'a mut [u32],
    /// The window's decisions, awaiting the barrier commit.
    pub(crate) pending: &'a mut Vec<DecisionRec>,
}

impl<'a, 'c> WindowDecider<'a, 'c> {
    /// A decider for a fresh window: no fork yet, every rank at zero.
    pub(crate) fn new(
        policy: &'c dyn ReplicationPolicy,
        node_seqs: &'a mut [u32],
        pending: &'a mut Vec<DecisionRec>,
    ) -> Self {
        node_seqs.fill(0);
        WindowDecider {
            policy,
            fork: None,
            node_seqs,
            pending,
        }
    }
}

impl Decider for WindowDecider<'_, '_> {
    #[inline]
    fn decide(&mut self, ln: usize, ctx: &DecisionCtx) -> bool {
        let policy = self.policy;
        self.fork
            .get_or_insert_with(|| policy.fork_epoch())
            .decide_at(ln, ctx)
    }

    #[inline]
    fn decided(&mut self, now: f64, ln: usize, task: &SimTask, replicate: bool, lagged: bool) {
        let rank = self.node_seqs[ln];
        self.pending.push(DecisionRec::new(
            now, task.node, rank, task.id, replicate, lagged,
        ));
        self.node_seqs[ln] += 1;
        if lagged {
            self.fork
                .as_mut()
                .expect("fork exists after a decision")
                .on_replica_failed_at(ln, &decision_ctx(task));
        }
    }
}

/// Test hooks that deliberately break the shard protocol.
///
/// The `shard-check` model checker must demonstrably be able to *fail*
/// — find a schedule under which the engine diverges from the
/// sequential oracle — not just pass. These process-global switches
/// plant such bugs. They are compiled unconditionally (a `#[cfg(test)]`
/// gate would not be visible to other crates' test binaries) but sit
/// behind `#[doc(hidden)]`: nothing in the production code path reads
/// them except the single branch they sabotage, and they default off.
///
/// Tests toggling a switch must serialize with each other (the flags
/// are process-global); the `shard-check` suite guards them with a
/// mutex.
#[doc(hidden)]
pub mod chaos {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// When set, the sharded barrier commits decisions in shard-append
    /// order instead of canonical `(time, node, node_seq)` order —
    /// exactly the bug the canonical sort exists to prevent.
    static BREAK_COMMIT_ORDER: AtomicBool = AtomicBool::new(false);

    /// Enables or disables the broken-commit-order bug.
    pub fn set_break_commit_order(enabled: bool) {
        BREAK_COMMIT_ORDER.store(enabled, Ordering::SeqCst);
    }

    /// Whether the broken-commit-order bug is active.
    pub fn commit_order_broken() -> bool {
        BREAK_COMMIT_ORDER.load(Ordering::SeqCst)
    }
}

/// One shard's private simulation state.
struct ShardState {
    /// First global node id this shard owns.
    first_node: usize,
    /// Dispatch state of the owned nodes (slots are shard-local task
    /// indices). Its heap holds every pending completion and node
    /// control of the shard; a window pops the events before its end
    /// and the rest stay for later windows.
    ds: DispatchState,
    /// Remaining predecessor count per owned task (local index).
    indegree: Vec<u32>,
    /// Lookahead mode: pending delayed cross-node activations at exact
    /// effect times — one canonically sorted run per barrier handoff,
    /// drained by horizon at window open (see [`DeliveryCalendar`]).
    delcal: DeliveryCalendar,
    /// Lookahead mode: the window's deliveries, extracted from `delcal`
    /// by horizon and sorted at window open, consumed by cursor in the
    /// event loop.
    staged: EventBatch,
    /// Cross-node activations delivered to this shard at the last
    /// barrier (canonically sorted; epoch mode only — lookahead mode
    /// delivers through `delcal` at exact effect times).
    inbox: EventBatch,
    /// Cross-node activations produced this window (epoch mode; the
    /// barrier quantizes them, so one global batch suffices).
    outbox: EventBatch,
    /// Cross-node activations produced this window, pre-routed per
    /// consumer shard at their exact effect times (lookahead mode).
    /// Each batch is sorted canonically at window close — in the
    /// parallel phase — and handed to the consumer's `delcal` at the
    /// barrier as one message, O(1), buffers swapping back for reuse.
    outboxes: Vec<EventBatch>,
    /// Reused permutation scratch for delivery-batch sorts.
    scratch: SortScratch,
    /// Replication decisions taken this window.
    decisions: Vec<DecisionRec>,
    /// Window scratch: each owned node's decision count this window —
    /// the `node_seq` of the canonical commit order.
    node_seqs: Vec<u32>,
    /// Window scratch: local nodes that gained ready tasks at the
    /// barrier, in wake order.
    woken: Vec<usize>,
    /// Completions processed so far.
    done: usize,
}

impl ShardState {
    /// The earliest pending event time — a carried completion or
    /// control, or a delayed delivery — `+∞` when idle: the shard's
    /// null message at the barrier.
    fn horizon(&self) -> f64 {
        self.ds
            .heap
            .peek()
            .map_or(f64::INFINITY, |&Reverse(k)| k.time())
            .min(self.delcal.min_time())
    }
}

/// Perf counters of the sharded engine's cross-shard delivery path,
/// reported by [`simulate_sharded_stats`].
///
/// Deliberately **not** part of [`SimReport`]: the counters describe
/// the engine's mechanics (and legitimately vary with the shard
/// layout), while `SimReport` is the bit-comparable simulation result
/// the conformance harness equates across engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Delivery events shipped inside coalesced per-consumer batches —
    /// each one a `(producer → consumer)` message the pre-coalescing
    /// barrier sent (and sorted) individually.
    pub events_coalesced: u64,
    /// Coalesced batches handed over at barriers: the number of
    /// cross-shard messages actually sent. `events_coalesced −
    /// delivery_batches` is the messaging saved by coalescing.
    pub delivery_batches: u64,
    /// Pooled buffers reused across the barrier handoff (producer and
    /// consumer sides combined) instead of freshly allocated.
    pub batches_recycled: u64,
    /// Synchronization windows (= barriers) the run took.
    pub windows: u64,
}

/// Runs the simulation sharded and (optionally) in parallel.
///
/// Semantics are those described in the [module docs](self): identical
/// to [`crate::sim::simulate`] within a node, epoch-quantized across
/// nodes, and invariant in `shards`/`threads`.
pub fn simulate_sharded(graph: &SimGraph, cfg: &SimConfig, shard_cfg: &ShardedConfig) -> SimReport {
    simulate_sharded_stats(graph, cfg, shard_cfg).0
}

/// [`simulate_sharded`] plus the run's [`DeliveryStats`] — the perf
/// counters `bench-sim` records next to throughput so delivery-path
/// wins (and regressions) stay attributable. The report is the
/// identical bit-comparable result; only the counters are extra.
pub fn simulate_sharded_stats(
    graph: &SimGraph,
    cfg: &SimConfig,
    shard_cfg: &ShardedConfig,
) -> (SimReport, DeliveryStats) {
    run_sharded(graph, cfg, shard_cfg, &mut NaturalOrder)
        .expect("the natural scheduler never aborts a run")
}

/// Runs the sharded engine under an external [`ShardScheduler`] — the
/// model-checking entry point (see [`crate::sched`]).
///
/// The scheduler chooses the order in which per-shard contributions
/// fold together at every barrier phase, and observes a state
/// fingerprint at every window boundary. Returns `None` when the
/// scheduler aborted the run from
/// [`ShardScheduler::window_boundary`] (the checker pruning a path
/// that reconverged onto an already-explored state), `Some(report)`
/// otherwise.
///
/// A controlled run executes the compute phase serially in the chosen
/// order regardless of [`ShardedConfig::threads`] — the checker
/// explores orderings explicitly instead of racing threads.
pub fn simulate_sharded_scheduled(
    graph: &SimGraph,
    cfg: &SimConfig,
    shard_cfg: &ShardedConfig,
    sched: &mut dyn ShardScheduler,
) -> Option<SimReport> {
    run_sharded(graph, cfg, shard_cfg, sched).map(|(report, _)| report)
}

/// Executes one phase of up to `n` per-shard operations in
/// scheduler-chosen order (controlled) or natural ascending order
/// (production — compiles to the plain loop).
#[inline]
fn drive_range<S: ShardScheduler + ?Sized>(
    sched: &mut S,
    op: ProtocolOp,
    barrier: u64,
    n: usize,
    mut f: impl FnMut(usize),
) {
    if sched.controlled() {
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        while !remaining.is_empty() {
            let i = sched.pick(op, barrier, &remaining);
            f(remaining.remove(i) as usize);
        }
    } else {
        for s in 0..n {
            f(s);
        }
    }
}

/// Like [`drive_range`] but over an explicit id list (the consumer
/// shards of a delivery phase), so the scheduler sees real shard ids.
#[inline]
fn drive_list<S: ShardScheduler + ?Sized>(
    sched: &mut S,
    op: ProtocolOp,
    barrier: u64,
    ids: &[u32],
    mut f: impl FnMut(u32),
) {
    if sched.controlled() {
        let mut remaining: Vec<u32> = ids.to_vec();
        while !remaining.is_empty() {
            let i = sched.pick(op, barrier, &remaining);
            f(remaining.remove(i));
        }
    } else {
        for &id in ids {
            f(id);
        }
    }
}

/// The engine core, generic over the scheduling seam. Monomorphized
/// with [`NaturalOrder`] this is exactly the pre-seam engine (the
/// `controlled()` branches fold away); driven through a
/// `&mut dyn ShardScheduler` it becomes the model checker's subject.
fn run_sharded<S: ShardScheduler + ?Sized>(
    graph: &SimGraph,
    cfg: &SimConfig,
    shard_cfg: &ShardedConfig,
    sched: &mut S,
) -> Option<(SimReport, DeliveryStats)> {
    let tasks = graph.tasks();
    let n = tasks.len();
    let nodes = cfg.cluster.nodes;
    let map = ShardMap::new(nodes, shard_cfg.shards);

    if n == 0 {
        return Some((
            SimReport::new(0.0, cfg.cluster.total_cores(), Vec::new()),
            DeliveryStats::default(),
        ));
    }

    // Per-task shard-local index, and per-shard task counts.
    let mut local_of: Vec<u32> = vec![0; n];
    let mut counts: Vec<usize> = vec![0; map.shards()];
    for t in tasks {
        assert!(
            (t.node as usize) < nodes,
            "task {} placed on node {} but the cluster has {nodes}",
            t.id,
            t.node
        );
        let s = map.shard_of(t.node as usize);
        local_of[t.id as usize] = counts[s] as u32;
        counts[s] += 1;
    }

    let mut shards: Vec<ShardState> = (0..map.shards())
        .map(|s| {
            let range = map.range(s);
            let owned_nodes = range.len();
            ShardState {
                first_node: range.start,
                ds: DispatchState::new(cfg, range.start, owned_nodes, counts[s]),
                indegree: Vec::with_capacity(counts[s]),
                delcal: DeliveryCalendar::new(),
                staged: EventBatch::new(),
                inbox: EventBatch::new(),
                outbox: EventBatch::new(),
                outboxes: (0..map.shards()).map(|_| EventBatch::new()).collect(),
                scratch: SortScratch::default(),
                decisions: Vec::new(),
                node_seqs: vec![0; owned_nodes],
                woken: Vec::new(),
                done: 0,
            }
        })
        .collect();

    // Indegrees and initial ready queues, in task-id order (the same
    // submission order the sequential engine seeds with).
    for t in tasks {
        let s = map.shard_of(t.node as usize);
        let shard = &mut shards[s];
        shard.indegree.push(graph.preds(t.id).len() as u32);
        if graph.preds(t.id).is_empty() {
            let ln = t.node as usize - shard.first_node;
            shard
                .ds
                .ready
                .push_back(ln, t.id, local_of[t.id as usize] as usize);
        }
    }

    assert!(
        n < (1 << 31),
        "the packed event key reserves completion sequence numbers below 2^31"
    );
    let epoch = shard_cfg.epoch;
    let lookahead = match shard_cfg.sync {
        SyncMode::Epoch => None,
        SyncMode::Lookahead { lookahead } => {
            assert!(
                lookahead > 0.0 && lookahead.is_finite(),
                "lookahead must be positive and finite (use with_lookahead)"
            );
            Some(lookahead)
        }
    };
    let threads = shard_cfg.threads.clamp(1, map.shards());
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    let mut window: u64 = 0;
    // Lookahead mode: the first window ends one lookahead past the
    // t = 0 seed horizon.
    let mut w_end: f64 = lookahead.unwrap_or(0.0);
    let mut first_window = true;
    // Barrier round counter — the model checker's depth coordinate.
    let mut barrier: u64 = 0;
    // Barrier-phase buffers, reused across windows.
    let mut messages = EventBatch::new();
    let mut barrier_scratch = SortScratch::default();
    let mut all_decisions: Vec<DecisionRec> = Vec::new();
    let mut committed: Vec<EpochDecision> = Vec::new();
    // Controlled runs only: consumer shard ids of the current barrier's
    // messages.
    let mut consumers: Vec<u32> = Vec::new();
    // Delivery-path perf counters (never part of the simulated result).
    let mut stats = DeliveryStats::default();

    // Persistent worker pool for the compute phase: spawned once for
    // the whole run and fed per-window through ownership-handoff
    // channels (a chunk of shards moves to its worker and back each
    // window). Spawning scoped threads per window instead costs
    // tens of microseconds × threads × windows — the dominant
    // lookahead-mode overhead at short-window scale, where a million
    // tasks cross hundreds of horizon windows.
    //
    // The requested thread count is clamped to the parallelism the
    // host actually offers: oversubscribed workers can't overlap, so
    // every extra one is pure channel-handoff latency per window. On a
    // single-core host the pool dissolves entirely and shards run
    // inline.
    let host_par = std::thread::available_parallelism().map_or(usize::MAX, usize::from);
    let workers = if sched.controlled() || threads.min(host_par) <= 1 {
        0
    } else {
        threads.min(host_par).min(shards.len())
    };
    std::thread::scope(|scope| {
        let mut to_workers: Vec<mpsc::Sender<(Vec<ShardState>, Win)>> = Vec::new();
        let mut from_workers: Vec<mpsc::Receiver<Vec<ShardState>>> = Vec::new();
        for _ in 0..workers {
            let (tx_in, rx_in) = mpsc::channel::<(Vec<ShardState>, Win)>();
            let (tx_out, rx_out) = mpsc::channel::<Vec<ShardState>>();
            let local_of = &local_of;
            let cost = &cost;
            let map = &map;
            scope.spawn(move || {
                while let Ok((mut chunk, win)) = rx_in.recv() {
                    for shard in &mut chunk {
                        process_window(shard, graph, cfg, cost, local_of, map, win);
                    }
                    if tx_out.send(chunk).is_err() {
                        break;
                    }
                }
            });
            to_workers.push(tx_in);
            from_workers.push(rx_out);
        }
        // Per-worker chunk buffers, recycled across windows so the
        // handoff allocates nothing in steady state.
        let mut chunk_bufs: Vec<Vec<ShardState>> = (0..workers).map(|_| Vec::new()).collect();

        loop {
            let win = match lookahead {
                None => Win::Epoch {
                    window,
                    epoch,
                    first: first_window,
                },
                Some(l) => Win::Lookahead {
                    w_end,
                    lookahead: l,
                    first: first_window,
                },
            };
            // ---- compute phase: every shard advances through the window.
            // Shard-private by construction (each shard touches only its
            // own state), so any order gives the same result; a controlled
            // run still drives the order to certify exactly that.
            if sched.controlled() {
                drive_range(sched, ProtocolOp::StepWindow, barrier, shards.len(), |s| {
                    process_window(&mut shards[s], graph, cfg, &cost, &local_of, &map, win);
                });
            } else if workers == 0 {
                for shard in &mut shards {
                    process_window(shard, graph, cfg, &cost, &local_of, &map, win);
                }
            } else {
                // Hand each worker its fixed slice of the shard vector
                // (same partition every window, so shard state stays on
                // the thread that warmed it), then reassemble in worker
                // order — the vector comes back exactly as it left, and
                // the barrier phase below never knows it was gone.
                let per = shards.len().div_ceil(workers);
                let mut rest = std::mem::take(&mut shards);
                for (tx, buf) in to_workers.iter().zip(&mut chunk_bufs) {
                    let mut chunk = std::mem::take(buf);
                    let take = per.min(rest.len());
                    chunk.extend(rest.drain(..take));
                    tx.send((chunk, win)).expect("compute worker hung up");
                }
                shards = rest;
                for (rx, buf) in from_workers.iter().zip(&mut chunk_bufs) {
                    let mut chunk = rx.recv().expect("compute worker died");
                    shards.append(&mut chunk);
                    *buf = chunk;
                }
            }
            first_window = false;

            // ---- barrier phase: commit decisions, exchange messages,
            // advance the window. Single-threaded by design: this is the
            // global sequencing point that makes cross-shard effects
            // commute. The append/merge/fold orders below are exactly the
            // freedoms a parallel barrier implementation would have — each
            // is driven through the scheduling seam so the checker can
            // certify the canonical sorts erase them.
            all_decisions.clear();
            drive_range(
                sched,
                ProtocolOp::CommitAppend,
                barrier,
                shards.len(),
                |s| {
                    all_decisions.append(&mut shards[s].decisions);
                },
            );
            let had_decisions = !all_decisions.is_empty();
            commit_pending_with(
                &*cfg.policy,
                tasks,
                &mut all_decisions,
                &mut committed,
                !chaos::commit_order_broken(),
            );
            // The committed decision sequence feeds the policy's internal
            // state, which the fingerprint cannot reach — hash the sequence
            // itself instead (the policy state is a deterministic function
            // of the sequences committed so far).
            let mut commit_hash: u64 = 0;
            if sched.controlled() && had_decisions {
                let mut h = FNV_SEED;
                for d in &committed {
                    fnv_step(&mut h, d.ctx.id);
                    fnv_step(&mut h, u64::from(d.replicate));
                }
                commit_hash = h;
            }

            let any_messages = match lookahead {
                None => {
                    messages.clear();
                    drive_range(sched, ProtocolOp::MsgSend, barrier, shards.len(), |s| {
                        messages.extend_from(&shards[s].outbox);
                        shards[s].outbox.clear();
                    });
                    messages.sort_canonical(&mut barrier_scratch);
                    if sched.controlled() {
                        consumers.clear();
                        for (_, task) in messages.iter() {
                            consumers.push(map.shard_of(tasks[task as usize].node as usize) as u32);
                        }
                        consumers.sort_unstable();
                        consumers.dedup();
                        // Per-consumer delivery in scheduler-chosen order:
                        // consumers partition the sorted messages, so any
                        // order fills the same inboxes with the same
                        // (relative-order-preserving) contents.
                        drive_list(sched, ProtocolOp::MsgReceive, barrier, &consumers, |c| {
                            let c = c as usize;
                            for (time, task) in messages.iter() {
                                if map.shard_of(tasks[task as usize].node as usize) == c {
                                    shards[c].inbox.push(time, task);
                                }
                            }
                        });
                    } else {
                        for (time, task) in messages.iter() {
                            let s = map.shard_of(tasks[task as usize].node as usize);
                            shards[s].inbox.push(time, task);
                        }
                    }
                    !messages.is_empty()
                }
                Some(_) => {
                    // Coalesced delivery handoff: each producer already
                    // routed its activations per consumer shard at their
                    // exact effect times (production + L) and sorted each
                    // batch canonically in the parallel phase — one message
                    // per (producer, consumer) pair, transferred O(1) by
                    // buffer swap, with the displaced spare handed back for
                    // the producer's next window. The no-retroactivity
                    // invariant — every event of the closed window had
                    // time ≥ the window's opening horizon, so its effect
                    // lands at or past the window end just processed — is
                    // checked against each batch's minimum. Consumer-side
                    // order is irrelevant (the calendar hash is
                    // order-insensitive and the drain re-sorts), so no
                    // MsgReceive phase remains to schedule.
                    let mut any = false;
                    drive_range(sched, ProtocolOp::MsgSend, barrier, shards.len(), |p| {
                        for c in 0..map.shards() {
                            let mut batch = std::mem::take(&mut shards[p].outboxes[c]);
                            if batch.is_empty() {
                                shards[p].outboxes[c] = batch;
                                continue;
                            }
                            debug_assert!(
                            batch.min_time() >= w_end,
                            "delayed activation ({}) must not land inside the closed window (end {w_end})",
                            batch.min_time()
                        );
                            any = true;
                            stats.events_coalesced += batch.len() as u64;
                            stats.delivery_batches += 1;
                            shards[c].delcal.push_batch(&mut batch);
                            shards[p].outboxes[c] = batch;
                        }
                    });
                    any
                }
            };

            let done: usize = shards.iter().map(|s| s.done).sum();
            let finished = done == n;
            if !finished {
                // Null-message horizon exchange: every shard reports its
                // earliest pending event (+∞ when idle).
                let mut global_horizon = || {
                    let mut horizon = f64::INFINITY;
                    drive_range(
                        sched,
                        ProtocolOp::HorizonReport,
                        barrier,
                        shards.len(),
                        |s| horizon = horizon.min(shards[s].horizon()),
                    );
                    assert!(
                        horizon.is_finite(),
                        "cycle or lost task in simulation graph ({done}/{n} completed, no pending events)"
                    );
                    horizon
                };
                match lookahead {
                    None if any_messages => window += 1,
                    // Idle-window skip: jump to the window holding the
                    // earliest pending event — a completion, or a control
                    // (a repair, a future preemption) a ready task may be
                    // waiting on.
                    None => window = ((global_horizon() / epoch) as u64).max(window + 1),
                    Some(l) => {
                        // The next window extends one lookahead past the
                        // global horizon, so it always contains the horizon
                        // event.
                        let horizon = global_horizon();
                        w_end = horizon + l;
                        if w_end <= horizon {
                            // Sub-ulp lookahead: force minimal progress.
                            w_end = crate::events::time_from_bits(
                                crate::events::time_to_bits(horizon) + 1,
                            );
                        }
                    }
                }
            }
            if sched.controlled() {
                let fp = state_fingerprint(&shards, window, w_end, commit_hash, done);
                if !sched.window_boundary(barrier, fp) {
                    return None;
                }
            }
            barrier += 1;
            if finished {
                break;
            }
        }
        // ---- merge shard records into submission order.
        let mut records: Vec<SimTaskRecord> = Vec::with_capacity(n);
        for t in tasks {
            let s = map.shard_of(t.node as usize);
            let li = local_of[t.id as usize] as usize;
            records.push(shards[s].ds.records.get(li, t.id));
        }
        let makespan = shards
            .iter()
            .map(|s| s.ds.records.max_completed())
            .fold(0.0f64, f64::max);
        // Per-shard recovery streams merge into one canonical order — the
        // same stream every shard layout produces.
        let mut recovery: Vec<RecoveryRecord> = shards
            .iter_mut()
            .filter_map(|s| s.ds.rt.take())
            .flat_map(|rt| rt.into_events())
            .collect();
        sort_canonical(&mut recovery);

        stats.windows = barrier;
        for shard in &shards {
            stats.batches_recycled += shard.delcal.recycled();
        }

        Some((
            SimReport::new(makespan, cfg.cluster.total_cores(), records).with_recovery(recovery),
            stats,
        ))
    })
}

/// Hashes the engine's complete inter-window state: every shard's
/// scheduling state, event stores and progress counters, plus the
/// next-window coordinates and the barrier's committed decision
/// sequence. Two runs whose fingerprint chains agree at a barrier are
/// in bit-identical states and evolve identically from there — the
/// model checker's state-equivalence pruning rests on this (see
/// `shard-check`).
fn state_fingerprint(
    shards: &[ShardState],
    window: u64,
    w_end: f64,
    commit_hash: u64,
    done: usize,
) -> u64 {
    let mut h = FNV_SEED;
    fnv_step(&mut h, window);
    fnv_step(&mut h, w_end.to_bits());
    fnv_step(&mut h, commit_hash);
    fnv_step(&mut h, done as u64);
    for shard in shards {
        let ds = &shard.ds;
        fnv_step(&mut h, shard.first_node as u64);
        for ns in &ds.nodes {
            fnv_step(&mut h, ns.free_cores as u64);
            for &t in &ns.spare_free {
                fnv_step(&mut h, t.to_bits());
            }
        }
        ds.ready.fold_hash(&mut h);
        for &d in &shard.indegree {
            fnv_step(&mut h, u64::from(d));
        }
        ds.records.fold_hash(&mut h);
        // The heap's iteration order is unspecified: combine
        // order-insensitively (each key mixed independently, images
        // summed), which is exact because heap *contents* — a set of
        // unique packed keys — are what define the state.
        let mut acc: u64 = 0;
        for &Reverse(key) in ds.heap.iter() {
            let raw = key.raw_bits();
            acc = acc.wrapping_add(splitmix((raw >> 64) as u64 ^ splitmix(raw as u64)));
        }
        fnv_step(&mut h, acc);
        fnv_step(&mut h, ds.heap.len() as u64);
        fnv_step(&mut h, u64::from(ds.seq));
        shard.delcal.fold_hash(&mut h);
        shard.inbox.fold_hash(&mut h);
        if let Some(rt) = &ds.rt {
            rt.fold_hash(&mut h);
        }
        fnv_step(&mut h, shard.done as u64);
    }
    h
}

/// One window's parameters, shared by every shard of the window (and
/// by [`crate::sim::simulate_delayed`]'s barrier schedule).
#[derive(Debug, Clone, Copy)]
enum Win {
    /// Fixed-grid epoch window `[window·epoch, (window+1)·epoch)`.
    Epoch {
        window: u64,
        epoch: f64,
        first: bool,
    },
    /// Adaptive lookahead window ending at `w_end` (= global horizon
    /// plus lookahead, computed at the previous barrier). Carries the
    /// lookahead so producers can stamp cross-node activations with
    /// their exact effect times (`production + lookahead`) at the
    /// moment of production.
    Lookahead {
        w_end: f64,
        lookahead: f64,
        first: bool,
    },
}

impl Win {
    /// The window's (exclusive) end time.
    #[inline]
    fn w_end(self) -> f64 {
        match self {
            Win::Epoch { window, epoch, .. } => (window + 1) as f64 * epoch,
            Win::Lookahead { w_end, .. } => w_end,
        }
    }

    /// Whether this is the t = 0 seed window.
    #[inline]
    fn first(self) -> bool {
        match self {
            Win::Epoch { first, .. } | Win::Lookahead { first, .. } => first,
        }
    }
}

/// Advances one shard through one window. Every dispatch goes through
/// the engines' shared `drain_node` with shard-local slots and the
/// shard's [`WindowDecider`]; every control event through
/// `DispatchState::control`.
fn process_window(
    shard: &mut ShardState,
    graph: &SimGraph,
    cfg: &SimConfig,
    cost: &PreparedCost,
    local_of: &[u32],
    map: &ShardMap,
    win: Win,
) {
    let tasks = graph.tasks();
    let w_end = win.w_end();
    let slot_of = |t: u32| local_of[t as usize] as usize;
    let mut dec = WindowDecider::new(&*cfg.policy, &mut shard.node_seqs, &mut shard.decisions);

    match win {
        Win::Epoch { .. } => {
            // Deliver barrier messages (already in canonical order);
            // readiness is quantized to the barrier. A node woken twice
            // is listed twice: its second drain finds the queue empty
            // or the cores busy and returns.
            for (_, task) in shard.inbox.iter() {
                let li = slot_of(task);
                debug_assert!(shard.indegree[li] > 0, "duplicate activation");
                shard.indegree[li] -= 1;
                if shard.indegree[li] == 0 {
                    let ln = tasks[task as usize].node as usize - shard.first_node;
                    shard.ds.ready.push_back(ln, task, li);
                    shard.woken.push(ln);
                }
            }
            shard.inbox.clear();
        }
        Win::Lookahead { .. } => {
            // Deliveries bypass the heap entirely: drain the calendar's
            // pending runs, sort once into the canonical
            // `(time, consumer)` order — exactly the order the heap's
            // delivery keys used to pop in — and let the event loop
            // consume the batch by cursor, merging against the heap.
            shard.staged.clear();
            shard.delcal.take_before(w_end, &mut shard.staged);
            shard.staged.sort_canonical(&mut shard.scratch);
        }
    }

    // The first window seeds source tasks at t = 0.
    if win.first() {
        let seeded = (0..shard.ds.nodes.len()).filter(|&ln| shard.ds.ready.front(ln).is_some());
        shard.woken.extend(seeded);
    }
    // Barrier-woken dispatches run at the window start; in lookahead
    // mode only the t = 0 seed window wakes nodes this way (every
    // later activation is a timed delivery event).
    let w_start = match win {
        Win::Epoch { window, epoch, .. } => window as f64 * epoch,
        Win::Lookahead { .. } => 0.0,
    };
    for &ln in &shard.woken {
        drain_node(
            &mut shard.ds,
            &mut dec,
            ln,
            w_start,
            graph,
            cfg,
            cost,
            slot_of,
        );
    }
    shard.woken.clear();

    // Event loop: pop the heap while its top lies inside the window —
    // later events stay put for a later window — and stream deliveries
    // from the sorted `staged` batch through a cursor. Merging is
    // exact: delivery keys are already in ascending canonical order,
    // and at equal timestamps the packed-key compare puts completions
    // first — the same total order one all-in-one heap pops in, minus a
    // push+pop per delivery.
    let staged = &shard.staged;
    let mut cursor = 0usize;
    loop {
        let next_delivery = (cursor < staged.len())
            .then(|| EventKey::delivery(staged.time_at(cursor), staged.task_at(cursor)));
        let next_heap = shard
            .ds
            .heap
            .peek()
            .map(|&Reverse(k)| k)
            .filter(|k| k.time() < w_end);
        let key = match (next_heap, next_delivery) {
            (Some(h), Some(d)) if d < h => {
                cursor += 1;
                d
            }
            (Some(h), _) => {
                shard.ds.heap.pop();
                h
            }
            (None, Some(d)) => {
                cursor += 1;
                d
            }
            (None, None) => break,
        };
        let (now, id) = (key.time(), key.task());
        debug_assert!(now < w_end, "event leaked past window");
        if key.is_control() {
            // A machine-level happening on one of this shard's nodes
            // (controls never cross shards — recovery is node-local).
            if let Some(ln) = shard.ds.control(key, shard.first_node, cfg, slot_of) {
                drain_node(&mut shard.ds, &mut dec, ln, now, graph, cfg, cost, slot_of);
            }
            continue;
        }
        if key.is_delivery() {
            // A delayed cross-node activation arriving at its exact
            // effect time (lookahead mode only).
            let li = slot_of(id);
            debug_assert!(shard.indegree[li] > 0, "duplicate activation");
            shard.indegree[li] -= 1;
            if shard.indegree[li] == 0 {
                let ln = tasks[id as usize].node as usize - shard.first_node;
                shard.ds.ready.push_back(ln, id, li);
                drain_node(&mut shard.ds, &mut dec, ln, now, graph, cfg, cost, slot_of);
            }
            continue;
        }
        let task = &tasks[id as usize];
        let ln = task.node as usize - shard.first_node;
        if !shard.ds.complete(task, ln, slot_of(id), now) {
            continue;
        }
        shard.done += 1;
        for &succ in graph.succs(id) {
            let st = &tasks[succ as usize];
            if st.node == task.node {
                // Same node: event-exact activation.
                let li = slot_of(succ);
                shard.indegree[li] -= 1;
                if shard.indegree[li] == 0 {
                    shard.ds.ready.push_back(ln, succ, li);
                }
            } else {
                // Any other node — even on this shard — defers to the
                // barrier, so the partition is unobservable. Lookahead
                // mode routes the activation to its consumer's shard
                // immediately, stamped with its exact effect time —
                // the barrier then hands whole batches over instead of
                // re-routing event by event.
                match win {
                    Win::Epoch { .. } => shard.outbox.push(now, succ),
                    Win::Lookahead { lookahead, .. } => {
                        shard.outboxes[map.shard_of(st.node as usize)].push(now + lookahead, succ)
                    }
                }
            }
        }
        drain_node(&mut shard.ds, &mut dec, ln, now, graph, cfg, cost, slot_of);
    }

    // Close the window's outboxes: sorting each per-consumer batch
    // canonically *here* — still in the parallel compute phase — keeps
    // the single-threaded barrier to O(1) buffer swaps per batch. The
    // drained delivery buffer stays for next window's reuse.
    shard.staged.clear();
    if matches!(win, Win::Lookahead { .. }) {
        for outbox in &mut shard.outboxes {
            if !outbox.is_empty() {
                outbox.sort_canonical(&mut shard.scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::graph::SyntheticSpec;
    use crate::machine::{ClusterSpec, NodeSpec};
    use crate::recovery::RecoveryKind;
    use crate::sim::simulate;
    use appfit_core::{AppFit, AppFitConfig, ReplicateAll, ReplicateNone};
    use fault_inject::{InjectionConfig, NoFaults, SeededInjector};
    use fit_model::{Fit, RateModel};
    use std::sync::Arc;

    fn unit_cluster(nodes: usize, cores: usize, spares: usize) -> ClusterSpec {
        ClusterSpec {
            nodes,
            node: NodeSpec {
                cores,
                spare_cores: spares,
                gflops_per_core: 1e-9,
                mem_bw_gbs: f64::INFINITY,
            },
            net_latency_us: 0.0,
            net_bandwidth_gbs: f64::INFINITY,
        }
    }

    fn config(cluster: ClusterSpec, replicate: bool, seed: Option<u64>) -> SimConfig {
        SimConfig {
            cluster,
            cost: CostModel::default(),
            policy: if replicate {
                Arc::new(ReplicateAll)
            } else {
                Arc::new(ReplicateNone)
            },
            faults: match seed {
                Some(s) => Arc::new(SeededInjector::new(s)),
                None => Arc::new(NoFaults),
            },
            injection: match seed {
                Some(_) => InjectionConfig::PerTask {
                    p_due: 0.05,
                    p_sdc: 0.08,
                    p_crash: 0.0,
                },
                None => InjectionConfig::Disabled,
            },
            recovery: crate::recovery::RecoveryConfig::default(),
        }
    }

    fn single_node_graph() -> SimGraph {
        SimGraph::synthetic(
            &SyntheticSpec {
                nodes: 1,
                chains_per_node: 5,
                tasks_per_chain: 40,
                flops_per_task: 3.0,
                jitter: 0.25,
                argument_bytes: 4096,
                cross_node_every: 0,
                seed: 7,
            },
            &RateModel::roadrunner(),
        )
    }

    fn multi_node_graph(nodes: usize) -> SimGraph {
        SimGraph::synthetic(
            &SyntheticSpec {
                nodes,
                chains_per_node: 3,
                tasks_per_chain: 25,
                flops_per_task: 2.0,
                jitter: 0.25,
                argument_bytes: 8192,
                cross_node_every: 4,
                seed: 21,
            },
            &RateModel::roadrunner(),
        )
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = SimGraph::synthetic(
            &SyntheticSpec {
                nodes: 2,
                chains_per_node: 1,
                tasks_per_chain: 0,
                flops_per_task: 1.0,
                jitter: 0.25,
                argument_bytes: 8,
                cross_node_every: 0,
                seed: 0,
            },
            &RateModel::roadrunner(),
        );
        let report = simulate_sharded(
            &g,
            &config(unit_cluster(2, 2, 0), false, None),
            &ShardedConfig::new(2, 1.0),
        );
        assert_eq!(report.makespan, 0.0);
        assert!(report.records().is_empty());
    }

    /// The headline contract half 1: on a single node the sharded
    /// engine reproduces the sequential engine bit for bit — for any
    /// shard count, thread count and epoch length, with faults and
    /// replication on.
    #[test]
    fn single_node_matches_sequential_bitwise() {
        let g = single_node_graph();
        for &(replicate, seed) in &[(false, None), (true, None), (true, Some(13u64))] {
            let cfg = config(unit_cluster(1, 4, 2), replicate, seed);
            let reference = simulate(&g, &cfg);
            for shards in [1usize, 2, 5] {
                for epoch in [0.7, 3.0, 1e6] {
                    let sharded = simulate_sharded(&g, &cfg, &ShardedConfig::new(shards, epoch));
                    assert_eq!(
                        reference, sharded,
                        "shards={shards} epoch={epoch} replicate={replicate} seed={seed:?}"
                    );
                }
            }
        }
    }

    /// The headline contract half 2: N-shard runs equal the 1-shard
    /// run exactly on multi-node graphs with cross-shard edges.
    #[test]
    fn shard_count_never_changes_results() {
        let g = multi_node_graph(10);
        for &(replicate, seed) in &[(false, None), (true, Some(3u64))] {
            let cfg = config(unit_cluster(10, 3, 1), replicate, seed);
            let reference = simulate_sharded(&g, &cfg, &ShardedConfig::new(1, 2.5));
            for shards in [2usize, 3, 7, 10, 16] {
                for threads in [1usize, 4] {
                    let got = simulate_sharded(
                        &g,
                        &cfg,
                        &ShardedConfig::new(shards, 2.5).with_threads(threads),
                    );
                    assert_eq!(reference, got, "shards={shards} threads={threads}");
                }
            }
        }
    }

    /// Stateful App_FIT on a single node: the sharded engine must
    /// reproduce the sequential engine bit for bit — including the
    /// policy's final accumulated state, whose float sum is
    /// non-associative and therefore sensitive to commit order.
    #[test]
    fn single_node_appfit_matches_sequential_bitwise() {
        let g = single_node_graph();
        let total: f64 = g.tasks().iter().map(|t| t.rates.total().value()).sum();
        let make = |frac: f64| {
            let policy = Arc::new(AppFit::new(AppFitConfig::new(
                Fit::new(total * frac),
                g.len() as u64,
            )));
            let cfg = SimConfig {
                cluster: unit_cluster(1, 4, 2),
                cost: CostModel::default(),
                policy: Arc::clone(&policy) as Arc<dyn appfit_core::ReplicationPolicy>,
                faults: Arc::new(SeededInjector::new(5)),
                injection: InjectionConfig::PerTask {
                    p_due: 0.03,
                    p_sdc: 0.05,
                    p_crash: 0.0,
                },
                recovery: crate::recovery::RecoveryConfig::default(),
            };
            (cfg, policy)
        };
        for frac in [0.2, 0.5, 0.8] {
            let (seq_cfg, seq_policy) = make(frac);
            let reference = simulate(&g, &seq_cfg);
            for (shards, epoch) in [(1usize, 0.9), (3, 2.0), (2, 1e6)] {
                let (sh_cfg, sh_policy) = make(frac);
                let sharded = simulate_sharded(&g, &sh_cfg, &ShardedConfig::new(shards, epoch));
                assert_eq!(
                    reference, sharded,
                    "frac={frac} shards={shards} epoch={epoch}"
                );
                assert_eq!(
                    seq_policy.current_fit().value().to_bits(),
                    sh_policy.current_fit().value().to_bits(),
                    "accumulated FIT must match bitwise (frac={frac})"
                );
                assert_eq!(seq_policy.replicated(), sh_policy.replicated());
            }
        }
    }

    /// A delivery landing **exactly on a window barrier** (`t + L` ==
    /// the producing window's end — here for every cross-node hop: all
    /// tasks are zero-cost, so an activation produced at `k·L` has its
    /// effect at exactly `(k+1)·L`, the closing window's edge, with
    /// `L = 0.25` keeping every sum exact in binary). None may drop or
    /// deliver twice under the coalesced path, and the result must stay
    /// bit-identical to the sequential delayed-activation reference.
    /// (The engine's `duplicate activation` debug assertion catches
    /// doubles; completing the whole graph proves no drops.)
    #[test]
    fn delivery_exactly_on_window_barrier_neither_drops_nor_doubles() {
        let g = SimGraph::synthetic(
            &SyntheticSpec {
                nodes: 4,
                chains_per_node: 2,
                tasks_per_chain: 12,
                flops_per_task: 0.0,
                jitter: 0.25,
                argument_bytes: 0,
                cross_node_every: 3,
                seed: 9,
            },
            &RateModel::roadrunner(),
        );
        let cfg = config(unit_cluster(4, 2, 1), false, None);
        let lookahead = 0.25;
        let reference = crate::sim::simulate_delayed(&g, &cfg, lookahead);
        for shards in [1usize, 2, 4] {
            let (report, stats) = simulate_sharded_stats(
                &g,
                &cfg,
                &ShardedConfig::new(shards, 1.0)
                    .with_lookahead(lookahead)
                    .with_threads(2),
            );
            assert_eq!(reference, report, "shards={shards}");
            assert_eq!(report.records().len(), g.len());
            // Every cross-node activation rode a coalesced batch.
            assert!(stats.events_coalesced > 0, "graph has cross-node edges");
            assert!(stats.delivery_batches > 0);
            assert!(
                stats.delivery_batches <= stats.events_coalesced,
                "a batch carries at least one event"
            );
            assert!(stats.windows > 0);
        }
    }

    /// App_FIT's stateful global accounting commits at barriers; the
    /// decision sequence must still be shard-count invariant, and the
    /// unprotected FIT must respect the threshold accounting.
    #[test]
    fn appfit_accounting_is_shard_invariant() {
        let g = multi_node_graph(8);
        let n_tasks = g.tasks().iter().filter(|t| !t.is_barrier).count() as u64;
        // Half the graph's total failure rate: forces a real split.
        let threshold: f64 = g
            .tasks()
            .iter()
            .map(|t| t.rates.total().value())
            .sum::<f64>()
            * 0.5;
        let run = |shards: usize| {
            let policy = Arc::new(AppFit::new(AppFitConfig::new(Fit::new(threshold), n_tasks)));
            let cfg = SimConfig {
                cluster: unit_cluster(8, 3, 1),
                cost: CostModel::default(),
                policy: Arc::clone(&policy) as Arc<dyn appfit_core::ReplicationPolicy>,
                faults: Arc::new(NoFaults),
                injection: InjectionConfig::Disabled,
                recovery: crate::recovery::RecoveryConfig::default(),
            };
            let report = simulate_sharded(&g, &cfg, &ShardedConfig::new(shards, 2.0));
            (report, policy.current_fit().value(), policy.decided())
        };
        let (r1, fit1, decided1) = run(1);
        assert!(
            r1.replicated_task_fraction() > 0.0 && r1.replicated_task_fraction() < 1.0,
            "threshold should split the tasks, got {}",
            r1.replicated_task_fraction()
        );
        for shards in [2usize, 4, 8] {
            let (rn, fitn, decidedn) = run(shards);
            assert_eq!(r1, rn, "shards={shards}");
            assert_eq!(decided1, decidedn);
            assert!((fit1 - fitn).abs() <= f64::EPSILON * fit1.abs());
        }
    }

    /// Epoch length is part of the semantics (cross-node quantization):
    /// makespans may differ across epochs, but each epoch length is
    /// itself deterministic, and coarse epochs can only delay (never
    /// accelerate) cross-node activations.
    #[test]
    fn epoch_quantization_is_monotone_on_chains() {
        let g = multi_node_graph(6);
        let cfg = config(unit_cluster(6, 3, 0), false, None);
        let fine = simulate_sharded(&g, &cfg, &ShardedConfig::new(3, 0.5));
        let coarse = simulate_sharded(&g, &cfg, &ShardedConfig::new(3, 8.0));
        assert!(
            coarse.makespan >= fine.makespan - 1e-9,
            "coarse {} fine {}",
            coarse.makespan,
            fine.makespan
        );
        // And each is reproducible.
        assert_eq!(
            fine,
            simulate_sharded(&g, &cfg, &ShardedConfig::new(3, 0.5))
        );
    }

    /// `auto` picks a usable epoch for an arbitrary workload.
    #[test]
    fn auto_epoch_runs() {
        let g = multi_node_graph(4);
        let cfg = config(unit_cluster(4, 2, 0), false, None);
        let sc = ShardedConfig::auto(&g, &cfg, 4);
        assert!(sc.epoch > 0.0);
        let report = simulate_sharded(&g, &cfg, &sc);
        assert_eq!(report.records().len(), g.len());
    }

    /// An infinite lookahead is the epoch engine by definition: the
    /// builder normalizes it, so the two spellings are one code path.
    #[test]
    fn infinite_lookahead_is_epoch_mode() {
        let sc = ShardedConfig::new(3, 2.0).with_lookahead(f64::INFINITY);
        assert_eq!(sc.sync, SyncMode::Epoch);
        let g = multi_node_graph(6);
        let cfg = config(unit_cluster(6, 3, 1), true, Some(7));
        assert_eq!(
            simulate_sharded(&g, &cfg, &ShardedConfig::new(3, 2.0)),
            simulate_sharded(&g, &cfg, &sc),
        );
    }

    /// Lookahead mode on a latency-bearing cluster: results are
    /// shard-count invariant and equal to the sequential lookahead
    /// reference (the full cross-engine contract lives in
    /// `tests/conformance.rs`; this is the in-crate smoke).
    #[test]
    fn lookahead_matches_delayed_reference() {
        let g = multi_node_graph(6);
        let mut cluster = unit_cluster(6, 3, 1);
        cluster.net_latency_us = 150_000.0; // 0.15 virtual seconds
        cluster.net_bandwidth_gbs = 5.0;
        let cfg = config(cluster, true, Some(13));
        let lookahead = ShardedConfig::auto_lookahead(&g, &cfg);
        assert!(lookahead > 0.0 && lookahead.is_finite());
        let reference = crate::sim::simulate_delayed(&g, &cfg, lookahead);
        for shards in [1usize, 2, 5] {
            let got = simulate_sharded(
                &g,
                &cfg,
                &ShardedConfig::new(shards, 2.5).with_lookahead(lookahead),
            );
            assert_eq!(reference, got, "shards={shards}");
        }
    }

    /// The lookahead delay can only push cross-node activations later,
    /// never earlier, so makespans dominate the sequential oracle's —
    /// and by far less than coarse epoch quantization does.
    #[test]
    fn lookahead_fidelity_beats_epoch_quantization() {
        let g = multi_node_graph(6);
        let mut cluster = unit_cluster(6, 3, 0);
        cluster.net_latency_us = 100_000.0; // 0.1 virtual seconds
        cluster.net_bandwidth_gbs = 5.0;
        let cfg = config(cluster, false, None);
        let oracle = simulate(&g, &cfg).makespan;
        let lookahead = ShardedConfig::auto_lookahead(&g, &cfg);
        let la = simulate_sharded(
            &g,
            &cfg,
            &ShardedConfig::new(3, 8.0).with_lookahead(lookahead),
        )
        .makespan;
        let epoch = simulate_sharded(&g, &cfg, &ShardedConfig::new(3, 8.0)).makespan;
        assert!(
            la >= oracle - 1e-9,
            "delay never accelerates: {la} vs {oracle}"
        );
        assert!(
            (la - oracle).abs() <= (epoch - oracle).abs() + 1e-9,
            "lookahead error must not exceed epoch error: la {la}, epoch {epoch}, seq {oracle}"
        );
    }

    /// Builds a placed graph from `(label, node, flops, reads, writes)`
    /// rows over one-cell buffers — dependencies follow the cells.
    fn cell_graph(cells: usize, rows: &[(u32, f64, &[usize], &[usize])]) -> SimGraph {
        use dataflow_rt::{DataArena, Region, TaskGraph, TaskSpec};
        let mut arena = DataArena::new();
        let bufs: Vec<_> = (0..cells)
            .map(|i| arena.alloc(&format!("c{i}"), 1))
            .collect();
        let mut g = TaskGraph::new();
        for &(node, flops, reads, writes) in rows {
            let mut spec = TaskSpec::new(node.to_string()).flops(flops);
            for &c in reads {
                spec = spec.reads(Region::full(bufs[c], 1));
            }
            for &c in writes {
                spec = spec.writes(Region::full(bufs[c], 1));
            }
            g.submit(spec);
        }
        SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |t| {
            t.label.parse().expect("label is the node")
        })
    }

    /// Two tasks of one node dispatched in **different windows** whose
    /// completions are bit-equal complete in dispatch order — the
    /// carried event's dispatch sequence number is the smaller one.
    /// Per node (2 cores): `A` (4 flops) and `B0` (2) start at 0, `B`
    /// (2) follows `B0`, so `A` and `B` both end at `4/rate` exactly
    /// (doubling is exact); `A` feeds two successors and `B` one, so
    /// with `A` first both of `A`'s run at once and `B`'s waits a slot —
    /// the other order would run one of each.
    #[test]
    fn equal_time_completions_from_different_windows_keep_dispatch_order() {
        let nodes = 4usize;
        let mut rows: Vec<(u32, f64, &[usize], &[usize])> = Vec::new();
        let cells: Vec<[usize; 5]> = (0..nodes)
            .map(|k| [0, 1, 2, 3, 4].map(|c| 5 * k + c))
            .collect();
        let sink_reads: Vec<usize> = cells.iter().map(|c| c[4]).collect();
        for (k, c) in cells.iter().enumerate() {
            let k = k as u32;
            rows.push((k, 4.0, &[], &c[0..1])); // A
            rows.push((k, 2.0, &[], &c[1..2])); // B0
            rows.push((k, 2.0, &c[1..2], &c[1..2])); // B
            rows.push((k, 2.0, &c[0..1], &c[2..3])); // SA1
            rows.push((k, 2.0, &c[0..1], &c[3..4])); // SA2
            rows.push((k, 2.0, &c[1..2], &c[4..5])); // SB
        }
        // One cross-node consumer keeps the barrier exchange live.
        rows.push((0, 1.0, &sink_reads, &[]));
        let g = cell_graph(5 * nodes, &rows);
        let cfg = config(unit_cluster(nodes, 2, 0), false, None);

        let check = |report: &SimReport, what: &str| {
            let r = report.records();
            for k in 0..nodes {
                let (a, b, sa2, sb) = (&r[6 * k], &r[6 * k + 2], &r[6 * k + 4], &r[6 * k + 5]);
                assert!(b.dispatched > a.dispatched, "{what}: B starts after A");
                assert_eq!(
                    a.completed.to_bits(),
                    b.completed.to_bits(),
                    "{what}: the tie must be bit-exact"
                );
                assert_eq!(sa2.dispatched, a.completed, "{what}: A completed first");
                assert!(sb.dispatched > a.completed, "{what}: B's successor waits");
            }
        };
        // Epoch mode: 0.75 s windows put B's dispatch (t = 2) two
        // windows after A's.
        let reference = simulate_sharded(&g, &cfg, &ShardedConfig::new(1, 0.75));
        check(&reference, "epoch");
        for shards in [2usize, 4] {
            let got = simulate_sharded(&g, &cfg, &ShardedConfig::new(shards, 0.75));
            assert_eq!(reference, got, "epoch shards={shards}");
        }
        // Lookahead mode, against the single-heap oracle.
        let oracle = crate::sim::simulate_delayed(&g, &cfg, 0.5);
        check(&oracle, "delayed oracle");
        for shards in [1usize, 2, 4] {
            let sc = ShardedConfig::new(shards, 1.0).with_lookahead(0.5);
            assert_eq!(
                oracle,
                simulate_sharded(&g, &cfg, &sc),
                "lookahead shards={shards}"
            );
        }
    }

    /// A completion landing **exactly on the window end** is carried to
    /// the next window — neither dropped nor processed early (the
    /// completion-side twin of
    /// `delivery_exactly_on_window_barrier_neither_drops_nor_doubles`).
    /// `A` on node 0 feeds `X` on node 1 and the window length is `A`'s
    /// own duration `c`: `A` completes in the second window, so `X`
    /// starts at `2c` (an early completion would start it at `c` in
    /// epoch mode) and the run takes three windows in both modes.
    #[test]
    fn completion_exactly_on_window_end_is_carried() {
        let g = cell_graph(1, &[(0, 4.0, &[], &[0]), (1, 2.0, &[0], &[])]);
        let cfg = config(unit_cluster(2, 1, 0), false, None);
        let c = simulate(&g, &cfg).records()[0].completed;
        assert!(c > 0.0);
        for sc in [
            ShardedConfig::new(2, c),
            ShardedConfig::new(2, 1.0).with_lookahead(c),
        ] {
            let (report, stats) = simulate_sharded_stats(&g, &cfg, &sc);
            let r = report.records();
            assert_eq!(r[0].completed, c, "{:?}", sc.sync);
            assert_eq!(r[1].dispatched, 2.0 * c, "{:?}", sc.sync);
            assert_eq!(stats.windows, 3, "{:?}", sc.sync);
        }
        assert_eq!(
            crate::sim::simulate_delayed(&g, &cfg, c),
            simulate_sharded(&g, &cfg, &ShardedConfig::new(2, 1.0).with_lookahead(c)),
        );
    }

    /// Epoch idle-window skip with nothing pending but a `Repair`
    /// control: after a crash kills the node's only in-flight task the
    /// heap holds the repair alone (once the stale completion has
    /// popped), the skip must land on the repair's window, and the run
    /// must equal the sequential engine (single node, no messages).
    #[test]
    fn idle_skip_advances_to_a_pending_repair() {
        let rows: Vec<(u32, f64, &[usize], &[usize])> =
            (0..12).map(|_| (0, 1.0, &[][..], &[][..])).collect();
        let g = cell_graph(0, &rows);
        let mut cfg = config(unit_cluster(1, 1, 0), false, Some(17));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.0,
            p_sdc: 0.0,
            p_crash: 0.4,
        };
        cfg.recovery.crash_repair_secs = 64.0;
        let reference = simulate(&g, &cfg);
        let count = |kind| {
            reference
                .recovery()
                .iter()
                .filter(|r| r.kind == kind)
                .count() as u64
        };
        let (crashes, restarts) = (count(RecoveryKind::Crash), count(RecoveryKind::Restart));
        assert!(crashes > 0, "seed must draw at least one crash");
        let epoch = 0.5;
        let (report, stats) = simulate_sharded_stats(&g, &cfg, &ShardedConfig::new(1, epoch));
        assert_eq!(reference, report);
        // Every window after a skip holds the event skipped to, so the
        // run takes at most one window per event — dispatches, crashes
        // and repairs — where stepping window by window through the
        // repairs alone would take `64 / epoch` each.
        let events = g.len() as u64 + restarts + 2 * crashes;
        assert!(
            stats.windows <= events + 1,
            "{} windows for {events} events",
            stats.windows
        );
        assert!(stats.windows < crashes * (64.0 / epoch) as u64);
    }
}
