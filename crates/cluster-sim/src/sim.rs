//! The discrete-event simulation loop.
//!
//! The three engines — [`simulate`], [`simulate_delayed`] and the
//! sharded engine ([`crate::shard`]) — share one dispatch path:
//! `DispatchState` holds what dispatching mutates, `drain_node` drains
//! one node's ready list through `dispatch_task`, and
//! `DispatchState::control` handles every node-control event. The
//! engines differ only in how a task maps to a record slot, and in how
//! a drain consults the policy (a `Decider`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use appfit_core::{DecisionCtx, EpochDecision, ReplicationPolicy};
use fault_inject::{ErrorClass, FaultModel, InjectionConfig, InjectionDecision};

use crate::cost::{CostModel, PreparedCost};
use crate::events::{time_from_bits, time_to_bits, ControlKind, EventKey};
use crate::graph::{SimGraph, SimTask};
use crate::machine::ClusterSpec;
use crate::ready::ReadyList;
use crate::records::RecordStore;
use crate::recovery::{sort_canonical, RecoveryConfig, RecoveryKind, RecoveryRt, RecoveryStrategy};
use crate::report::{SimReport, SimTaskRecord};
use crate::shard::{commit_pending, WindowDecider};

/// Everything a simulation run needs besides the graph.
pub struct SimConfig {
    /// Machine model.
    pub cluster: ClusterSpec,
    /// Task cost model.
    pub cost: CostModel,
    /// Replication selection policy (consulted in deterministic
    /// dispatch order).
    pub policy: Arc<dyn ReplicationPolicy>,
    /// Fault model deciding per-attempt injections.
    pub faults: Arc<dyn FaultModel>,
    /// How per-attempt fault probabilities are derived.
    pub injection: InjectionConfig,
    /// What the cluster does about detected faults (crash repair,
    /// preemption traces, heartbeat lag detection, checkpoint/restart).
    pub recovery: RecoveryConfig,
}

/// Per-node scheduling state, shared between the sequential engine and
/// the sharded engine (`crate::shard`) so both compute identical
/// per-task timelines. Ready queues live outside, in a shared
/// [`ReadyList`] arena.
pub(crate) struct NodeState {
    pub(crate) free_cores: usize,
    /// Next-free time of each spare (replica-only) core.
    pub(crate) spare_free: Vec<f64>,
    /// Kernel seconds executed since the node's last periodic snapshot
    /// (only advanced under [`RecoveryStrategy::Checkpoint`]).
    pub(crate) work_since_ckpt: f64,
}

impl NodeState {
    /// Fresh state for one node of `cluster`.
    pub(crate) fn new(cluster: &ClusterSpec) -> Self {
        NodeState {
            free_cores: cluster.node.cores,
            spare_free: vec![0.0; cluster.node.spare_cores],
            work_since_ckpt: 0.0,
        }
    }
}

/// What every engine mutates while dispatching, over a run of local
/// nodes: the sequential engines own one over every node (slot = task
/// id), each shard of the sharded engine one over its own nodes (slot =
/// shard-local index).
pub(crate) struct DispatchState {
    /// Scheduling state per local node.
    pub(crate) nodes: Vec<NodeState>,
    /// FIFO ready queues per local node.
    pub(crate) ready: ReadyList,
    /// Task records, by slot.
    pub(crate) records: RecordStore,
    /// Every pending completion `(time, seq, task)` and node control
    /// `(time, kind, node)`, packed (plus, in [`simulate_delayed`], the
    /// delayed deliveries). Later events stay put for later windows.
    pub(crate) heap: BinaryHeap<Reverse<EventKey>>,
    /// Tie-break sequence of completions, assigned at dispatch, so
    /// simultaneous completions pop in dispatch order.
    pub(crate) seq: u32,
    /// Recovery runtime, present only when some recovery mechanism can
    /// fire; without it the engines run exactly the classic loop.
    pub(crate) rt: Option<Box<RecoveryRt>>,
}

impl DispatchState {
    /// Fresh state for the `nodes` nodes from global node `first_node`
    /// on, with `slots` task slots, and each node's first scheduled
    /// revocation already in the heap — a pure function of `(seed,
    /// node)`, so every engine and shard layout derives the identical
    /// preemption trace.
    pub(crate) fn new(cfg: &SimConfig, first_node: usize, nodes: usize, slots: usize) -> Self {
        let mut heap = BinaryHeap::new();
        if let Some(spec) = cfg.recovery.preempt {
            for gn in first_node as u32..(first_node + nodes) as u32 {
                heap.push(Reverse(EventKey::control(
                    spec.first_down(gn),
                    ControlKind::Preempt,
                    gn,
                )));
            }
        }
        DispatchState {
            nodes: (0..nodes).map(|_| NodeState::new(&cfg.cluster)).collect(),
            ready: ReadyList::new(nodes, slots),
            records: RecordStore::new(slots),
            heap,
            seq: 0,
            rt: cfg
                .recovery
                .any_enabled(&cfg.injection)
                .then(|| Box::new(RecoveryRt::new(nodes, slots))),
        }
    }

    /// Accepts a popped completion of `task` (slot `slot` on local node
    /// `ln`) and releases its core. `false` for the stale completion of
    /// a crash-killed attempt, which the caller discards without effect.
    #[inline]
    pub(crate) fn complete(&mut self, task: &SimTask, ln: usize, slot: usize, now: f64) -> bool {
        if task.is_barrier {
            return true;
        }
        if let Some(r) = self.rt.as_deref_mut() {
            if !r.complete(ln, slot, task.id, now) {
                return false;
            }
        }
        self.nodes[ln].free_cores += 1;
        true
    }

    /// Handles a popped control event on a local node (global id minus
    /// `first_node`). A crash or a preemption kills the node —
    /// re-enqueueing its in-flight work through `slot_of`, releasing
    /// its cores and spares — and schedules its repair; a preemption
    /// also re-arms the next one. Superseded crashes and repairs are
    /// no-ops. Returns the local node a valid repair brought back,
    /// which the caller must drain.
    pub(crate) fn control(
        &mut self,
        key: EventKey,
        first_node: usize,
        cfg: &SimConfig,
        slot_of: impl Fn(u32) -> usize,
    ) -> Option<usize> {
        let (now, gn) = (key.time(), key.task());
        let ln = gn as usize - first_node;
        let r = self
            .rt
            .as_deref_mut()
            .expect("control events require the recovery runtime");
        let (delay, kind) = match key.control_kind() {
            ControlKind::Repair => {
                if !r.repair_valid(ln, now) {
                    return None;
                }
                r.repair(now, gn, ln);
                return Some(ln);
            }
            ControlKind::Crash => {
                if !r.crash_valid(ln, now) {
                    return None;
                }
                (cfg.recovery.crash_repair_secs, RecoveryKind::Crash)
            }
            ControlKind::Preempt => {
                // Preemption traces are unconditional — the node is
                // revoked whether busy or idle — and periodic.
                let spec = cfg
                    .recovery
                    .preempt
                    .expect("preempt control without a trace");
                self.heap.push(Reverse(EventKey::control(
                    now + spec.period(),
                    ControlKind::Preempt,
                    gn,
                )));
                (spec.down_secs, RecoveryKind::Preempt)
            }
        };
        let down = r.kill(
            now,
            gn,
            ln,
            delay,
            kind,
            &mut self.ready,
            &mut self.records,
            slot_of,
        );
        let ns = &mut self.nodes[ln];
        ns.free_cores = cfg.cluster.node.cores;
        ns.spare_free.fill(down);
        self.heap
            .push(Reverse(EventKey::control(down, ControlKind::Repair, gn)));
        None
    }
}

/// Recovery-relevant side effects of one [`dispatch_task`] call, beyond
/// the task record itself. [`drain_node`] translates them into control
/// events and [`crate::recovery::RecoveryRecord`]s — `dispatch_task`
/// stays engine-agnostic.
#[derive(Debug, Clone, Copy, Default)]
struct DispatchFx {
    /// The dispatch drew a fail-stop crash: the node dies at this time.
    crash_at: Option<f64>,
    /// Heartbeat detection abandoned the replica.
    lagged: bool,
    /// When the lag was detected (valid when `lagged`).
    lag_at: f64,
    /// The node wrote a periodic snapshot before executing.
    ckpt: bool,
    /// When the snapshot was taken (valid when `ckpt`).
    ckpt_at: f64,
}

/// The [`DecisionCtx`] of `task` — rebuilt wherever a policy hook needs
/// it outside the dispatch closure.
pub(crate) fn decision_ctx(task: &SimTask) -> DecisionCtx {
    DecisionCtx {
        id: task.id as u64,
        rates: task.rates,
        argument_bytes: task.argument_bytes,
    }
}

/// How [`drain_node`] consults the replication policy — the one real
/// difference between the engines. A generic parameter, so each
/// engine's drain loop is monomorphized.
pub(crate) trait Decider {
    /// Decides the first dispatch of a task on local node `ln`.
    fn decide(&mut self, ln: usize, ctx: &DecisionCtx) -> bool;
    /// Follows up that decision once the dispatch is known: `lagged`
    /// when heartbeat detection abandoned the replica.
    fn decided(&mut self, now: f64, ln: usize, task: &SimTask, replicate: bool, lagged: bool);
}

/// [`simulate`]'s wiring: the global policy decides in dispatch order
/// and is charged for an abandoned replica right after the decision.
struct Sequential<'c>(&'c dyn ReplicationPolicy);

impl Decider for Sequential<'_> {
    #[inline]
    fn decide(&mut self, _ln: usize, ctx: &DecisionCtx) -> bool {
        let replicate = self.0.decide(ctx);
        self.0.on_complete(ctx, replicate);
        replicate
    }

    #[inline]
    fn decided(&mut self, _now: f64, _ln: usize, task: &SimTask, _replicate: bool, lagged: bool) {
        if lagged {
            // The abandoned replica leaves the task effectively
            // unprotected.
            self.0.on_replica_failed(&decision_ctx(task));
        }
    }
}

/// The sequential engines' shared setup: one [`DispatchState`] over
/// every node (slot = task id) with the source tasks queued in
/// submission order, and each task's predecessor count.
fn sequential_state(graph: &SimGraph, cfg: &SimConfig) -> (DispatchState, Vec<u32>) {
    let tasks = graph.tasks();
    let n = tasks.len();
    assert!(
        n < (1 << 31),
        "the packed event key reserves completion sequence numbers below 2^31"
    );
    let nodes = cfg.cluster.nodes;
    let mut ds = DispatchState::new(cfg, 0, nodes, n);
    for t in tasks {
        assert!(
            (t.node as usize) < nodes,
            "task {} placed on node {} but the cluster has {nodes}",
            t.id,
            t.node
        );
        if graph.preds(t.id).is_empty() {
            ds.ready.push_back(t.node as usize, t.id, t.id as usize);
        }
    }
    let indegree = (0..n as u32).map(|i| graph.preds(i).len() as u32).collect();
    (ds, indegree)
}

/// A sequential engine's report: records in task order (slot = task
/// id) and the canonically sorted recovery stream.
fn sequential_report(ds: DispatchState, makespan: f64, cfg: &SimConfig) -> SimReport {
    let mut recovery = ds.rt.map(|r| r.into_events()).unwrap_or_default();
    sort_canonical(&mut recovery);
    let records = (0..ds.records.len())
        .map(|i| ds.records.get(i, i as u32))
        .collect();
    SimReport::new(makespan, cfg.cluster.total_cores(), records).with_recovery(recovery)
}

/// The task id is its own slot in the sequential engines.
fn id_slot(t: u32) -> usize {
    t as usize
}

/// Runs the simulation. Deterministic: ties in the event heap break by
/// insertion sequence, ready queues are FIFO, and policy decisions
/// happen in dispatch order.
///
/// Dispatch visits nodes in ascending node order. Only nodes whose
/// state changed since the last drain (a freed core or a newly ready
/// task) are visited — every other node is still drained from before,
/// so the dispatch sequence (and with it every policy decision and
/// heap tie-break) is identical to scanning all nodes.
pub fn simulate(graph: &SimGraph, cfg: &SimConfig) -> SimReport {
    let tasks = graph.tasks();
    let n = tasks.len();
    let (mut ds, mut indegree) = sequential_state(graph, cfg);
    let mut dec = Sequential(&*cfg.policy);
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    let mut makespan = 0.0f64;

    // Seed dispatch visits every node; afterwards only woken nodes.
    for node in 0..cfg.cluster.nodes {
        drain_node(&mut ds, &mut dec, node, 0.0, graph, cfg, &cost, id_slot);
    }
    let mut woken: Vec<u32> = Vec::new();
    let mut done = 0usize;
    while let Some(Reverse(key)) = ds.heap.pop() {
        let now = key.time();
        if key.is_control() {
            if let Some(node) = ds.control(key, 0, cfg, id_slot) {
                drain_node(&mut ds, &mut dec, node, now, graph, cfg, &cost, id_slot);
            }
            continue;
        }
        let id = key.task();
        let task = &tasks[id as usize];
        if !ds.complete(task, task.node as usize, id as usize, now) {
            continue;
        }
        done += 1;
        makespan = makespan.max(now);
        woken.clear();
        woken.push(task.node);
        for &s in graph.succs(id) {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                let owner = tasks[s as usize].node;
                ds.ready.push_back(owner as usize, s, s as usize);
                woken.push(owner);
            }
        }
        woken.sort_unstable();
        woken.dedup();
        for &node in &woken {
            drain_node(
                &mut ds,
                &mut dec,
                node as usize,
                now,
                graph,
                cfg,
                &cost,
                id_slot,
            );
        }
        if done == n {
            // Preemption traces schedule controls forever; stop at the
            // last real completion.
            break;
        }
    }
    assert_eq!(done, n, "cycle or lost task in simulation graph");
    sequential_report(ds, makespan, cfg)
}

/// The sequential reference of the **conservative-lookahead
/// semantics**: event-exact like [`simulate`], except that every
/// cross-node dependency activation becomes visible to its consumer
/// exactly `lookahead` virtual seconds after the producer completes
/// (the activation message pays the interconnect's latency floor), and
/// the replication policy is consulted through the same
/// view-per-node / commit-at-horizon schedule the sharded lookahead
/// engine uses — one policy fork opens per window `[T, H + L)` (`H`
/// the earliest pending event at the window's opening barrier), each
/// node decides through its own view of it, and the window commits in
/// canonical `(time, node, within-node order)`.
///
/// This is an independent, single-heap implementation of the exact
/// semantics [`crate::shard::simulate_sharded`] implements with
/// per-shard heaps and null-message windows — the cross-engine
/// conformance harness (`tests/conformance.rs`) asserts the two agree
/// **bit for bit** at every shard count. Its event loop, window
/// schedule and delivery handling are written independently of the
/// sharded engine's; only dispatch (`drain_node`), control handling
/// (`DispatchState::control`) and the barrier commit (`commit_pending`)
/// are shared. `lookahead` must be positive and finite.
pub fn simulate_delayed(graph: &SimGraph, cfg: &SimConfig, lookahead: f64) -> SimReport {
    assert!(
        lookahead > 0.0 && lookahead.is_finite(),
        "lookahead must be positive and finite"
    );
    let tasks = graph.tasks();
    let n = tasks.len();
    let (mut ds, mut indegree) = sequential_state(graph, cfg);
    let mut makespan = 0.0f64;
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    let mut committed: Vec<EpochDecision> = Vec::new();
    // Policy windows: one fork per window with one view per node,
    // committed at the horizon barrier in canonical order (shared with
    // the sharded engine via `commit_pending`).
    let (mut node_seqs, mut pending) = (vec![0; cfg.cluster.nodes], Vec::new());
    let mut dec = WindowDecider::new(&*cfg.policy, &mut node_seqs, &mut pending);

    // Seed window: dispatch every node with ready sources at t = 0.
    for node in 0..cfg.cluster.nodes {
        drain_node(&mut ds, &mut dec, node, 0.0, graph, cfg, &cost, id_slot);
    }

    // First window ends one lookahead past the t = 0 seed horizon —
    // the same schedule the sharded engine derives.
    let mut w_end = lookahead;
    let mut done = 0usize;
    while let Some(&Reverse(peek)) = ds.heap.peek() {
        if peek.time() >= w_end {
            // Horizon barrier: commit this window's decisions in
            // canonical order, drop the fork, extend the window one
            // lookahead past the earliest pending event. Control
            // events join the horizon min-fold exactly as in the
            // sharded engine — they sit in the same heap.
            commit_pending(&*cfg.policy, tasks, dec.pending, &mut committed);
            dec.fork = None;
            dec.node_seqs.fill(0);
            let horizon = peek.time();
            w_end = horizon + lookahead;
            if w_end <= horizon {
                // Sub-ulp lookahead: force minimal progress.
                w_end = time_from_bits(time_to_bits(horizon) + 1);
            }
            continue;
        }
        let Reverse(key) = ds.heap.pop().expect("peeked");
        let now = key.time();
        if key.is_control() {
            if let Some(node) = ds.control(key, 0, cfg, id_slot) {
                drain_node(&mut ds, &mut dec, node, now, graph, cfg, &cost, id_slot);
            }
            continue;
        }
        let id = key.task();
        if key.is_delivery() {
            // A delayed cross-node activation arriving at its exact
            // effect time.
            indegree[id as usize] -= 1;
            if indegree[id as usize] == 0 {
                let owner = tasks[id as usize].node as usize;
                ds.ready.push_back(owner, id, id as usize);
                drain_node(&mut ds, &mut dec, owner, now, graph, cfg, &cost, id_slot);
            }
            continue;
        }
        let task = &tasks[id as usize];
        let node = task.node as usize;
        if !ds.complete(task, node, id as usize, now) {
            continue;
        }
        done += 1;
        makespan = makespan.max(now);
        for &s in graph.succs(id) {
            if tasks[s as usize].node == task.node {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    ds.ready.push_back(node, s, s as usize);
                }
            } else {
                // Cross-node activation: visible one lookahead later,
                // at its exact effect time.
                ds.heap
                    .push(Reverse(EventKey::delivery(now + lookahead, s)));
            }
        }
        drain_node(&mut ds, &mut dec, node, now, graph, cfg, &cost, id_slot);
        if done == n {
            // Preemption traces schedule controls forever; stop at the
            // last real completion.
            break;
        }
    }
    commit_pending(&*cfg.policy, tasks, dec.pending, &mut committed);
    assert_eq!(done, n, "cycle or lost task in simulation graph");
    sequential_report(ds, makespan, cfg)
}

/// Drains local node `ln`'s ready list at `now` — the one dispatch loop
/// of all three engines. While a core is free (barriers need none) it
/// pops the front task, computes its timeline with [`dispatch_task`]
/// (first attempts decided by `dec`, crash retries replaying their
/// pinned decision), records it under `slot_of(id)`, tracks it for
/// recovery, and pushes its completion — and any crash it armed — into
/// the heap with the next dispatch sequence number. A revoked node
/// dispatches nothing; its repair control drains it again.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drain_node<D: Decider>(
    ds: &mut DispatchState,
    dec: &mut D,
    ln: usize,
    now: f64,
    graph: &SimGraph,
    cfg: &SimConfig,
    cost: &PreparedCost,
    slot_of: impl Fn(u32) -> usize + Copy,
) {
    let tasks = graph.tasks();
    let DispatchState {
        nodes,
        ready,
        records,
        heap,
        seq,
        rt,
    } = ds;
    if rt.as_ref().is_some_and(|r| r.is_down(ln)) {
        return;
    }
    let ns = &mut nodes[ln];
    while let Some(front) = ready.front(ln) {
        if ns.free_cores == 0 && !tasks[front as usize].is_barrier {
            break;
        }
        let id = ready.pop_front(ln, slot_of).expect("nonempty");
        let task = &tasks[id as usize];
        let slot = slot_of(id);
        // Crash-killed tasks re-dispatch with their pinned decision and
        // a bumped attempt base — no policy consultation, no decision
        // follow-up (a retry replays a decision already taken).
        let retry = rt.as_ref().and_then(|r| r.retry_of(slot));
        let attempt_base = retry.map_or(0, |(count, _)| count * 2);
        let (record, completion, uses_core, fx) = dispatch_task(
            graph,
            task,
            ns,
            now,
            cfg,
            cost,
            attempt_base,
            |ctx| match retry {
                Some((_, replicate)) => replicate,
                None => dec.decide(ln, ctx),
            },
        );
        if retry.is_none() && !task.is_barrier {
            dec.decided(now, ln, task, record.replicated, fx.lagged);
        }
        records.set(slot, &record);
        if uses_core {
            ns.free_cores -= 1;
        }
        if let Some(r) = rt.as_deref_mut() {
            if retry.is_some() {
                r.note(now, task.node, id, RecoveryKind::Restart);
            }
            if fx.ckpt {
                r.note(fx.ckpt_at, task.node, id, RecoveryKind::Checkpoint);
            }
            if fx.lagged {
                r.note(fx.lag_at, task.node, id, RecoveryKind::ReplicaLag);
            }
            if !task.is_barrier {
                r.track(ln, slot, id, completion);
            }
            if let Some(crash_at) = fx.crash_at {
                if r.arm_crash(ln, crash_at) {
                    heap.push(Reverse(EventKey::control(
                        crash_at,
                        ControlKind::Crash,
                        task.node,
                    )));
                }
            }
        } else {
            debug_assert!(
                fx.crash_at.is_none(),
                "crash injection requires the recovery runtime: set a non-zero p_crash"
            );
        }
        heap.push(Reverse(EventKey::new(completion, *seq, id)));
        *seq += 1;
    }
}

/// Computes one task's virtual timeline. Returns its record, its
/// completion time, whether it occupied a worker core (the core is
/// held until completion — the original waits at the end-of-task
/// synchronization point, as in the paper's design), and the dispatch's
/// recovery side effects ([`DispatchFx`]).
///
/// The replication decision is delegated to `decide` (called once, for
/// non-barrier tasks only) so each engine plugs in its own policy
/// wiring through [`drain_node`]'s [`Decider`]. Everything else —
/// transfers, contention snapshot, protection and recovery timing — is
/// this one shared code path, which is what makes the engines
/// bit-comparable.
///
/// `attempt_base` is 0 for first dispatches and `2 × retry count` for
/// re-dispatches of crash-lost tasks, so every attempt draws a fresh,
/// reproducible fault stream (the replica, when present, draws at
/// `attempt_base + 1`).
#[allow(clippy::too_many_arguments)]
fn dispatch_task(
    graph: &SimGraph,
    task: &SimTask,
    ns: &mut NodeState,
    now: f64,
    cfg: &SimConfig,
    cost: &PreparedCost,
    attempt_base: u32,
    decide: impl FnOnce(&DecisionCtx) -> bool,
) -> (SimTaskRecord, f64, bool, DispatchFx) {
    let mut rec = SimTaskRecord {
        task: task.id,
        node: task.node,
        dispatched: now,
        completed: now,
        base_secs: 0.0,
        replicated: false,
        replica_lagged: false,
        sdc_detected: false,
        due_recovered: false,
        uncovered_sdc: false,
        uncovered_due: false,
        is_barrier: task.is_barrier,
    };
    let mut fx = DispatchFx::default();
    if task.is_barrier {
        return (rec, now, false, fx);
    }

    // Remote inputs: one transfer per remote producer, serialized
    // (documented simplification — no link contention model).
    let transfer: f64 = graph
        .sources(task.id)
        .filter(|&(p, _)| graph.task(p).node != task.node)
        .map(|(_, bytes)| cfg.cluster.transfer_secs(bytes))
        .sum();

    // Snapshot contention: this task plus the cores already busy.
    let active = (cfg.cluster.node.cores - ns.free_cores + 1).min(cfg.cluster.node.cores);
    let dur = cost.kernel_secs(active, task.flops, task.bytes_in, task.bytes_out);
    rec.base_secs = dur;

    let ctx = decision_ctx(task);
    let replicate = decide(&ctx);
    rec.replicated = replicate;

    let p = cfg.injection.probabilities(task.rates, dur);
    let completion = if !replicate {
        // Periodic checkpoint/restart (the rival recovery strategy):
        // once the node has run `interval_secs` of unprotected kernel
        // time it snapshots before executing; a detected DUE then
        // re-executes the work since the snapshot instead of being
        // application-fatal. SDCs stay silent — snapshots cannot
        // detect corruption.
        let mut protection = 0.0;
        let ckpt_cfg = match cfg.recovery.strategy {
            RecoveryStrategy::Checkpoint {
                interval_secs,
                snapshot_bytes,
            } => {
                if ns.work_since_ckpt >= interval_secs {
                    protection += cost.checkpoint_secs(snapshot_bytes);
                    ns.work_since_ckpt = 0.0;
                    fx.ckpt = true;
                    fx.ckpt_at = now + transfer;
                }
                ns.work_since_ckpt += dur;
                true
            }
            RecoveryStrategy::Replication => false,
        };
        let exec_start = now + transfer + protection;
        let mut redo = 0.0;
        match cfg.faults.decide(task.id as u64, attempt_base, p) {
            InjectionDecision::Inject(ErrorClass::Due) => {
                if ckpt_cfg {
                    // Restart from the last snapshot: redo everything
                    // the node ran since (including this task).
                    redo = ns.work_since_ckpt;
                    rec.due_recovered = true;
                } else {
                    rec.uncovered_due = true;
                }
            }
            InjectionDecision::Inject(ErrorClass::Sdc) => rec.uncovered_sdc = true,
            InjectionDecision::Inject(ErrorClass::NodeCrash) => {
                fx.crash_at = Some(exec_start + 0.5 * dur);
            }
            // DCE (detected + corrected) and no-injection cost nothing.
            _ => {}
        }
        exec_start + dur + redo
    } else {
        // ① checkpoint, ② original + replica, ③ compare at the sync
        // point, ④/⑤ re-execution + vote on faults — all in virtual
        // time. Higher-order faults *during recovery* are modelled by
        // the threaded engine but ignored in sim timing (second-order
        // effect on makespan).
        let ckpt = cost.checkpoint_secs(task.bytes_in);
        let cmp = cost.compare_secs(task.bytes_out);
        let t0 = now + transfer + ckpt;
        let orig_end = t0 + dur;
        // Probe where the replica would start — without committing a
        // spare slot yet, in case heartbeat detection abandons it.
        let (best_spare, replica_start) = if ns.spare_free.is_empty() {
            // No spare cores: the replica serializes on the same core —
            // the full 2× compute cost becomes visible.
            (None, orig_end)
        } else {
            // Earliest-free spare core runs the replica (first minimal
            // slot; spare times are non-negative finite, so `<` agrees
            // with the former `total_cmp` scan).
            let mut best = 0usize;
            let mut best_free = ns.spare_free[0];
            for (i, &free) in ns.spare_free.iter().enumerate().skip(1) {
                if free < best_free {
                    best = i;
                    best_free = free;
                }
            }
            (Some(best), t0.max(best_free))
        };

        let lag = cfg
            .recovery
            .heartbeat_secs
            .is_some_and(|hb| replica_start - t0 > hb);
        if lag {
            // TeaMPI-style heartbeat: the replica cannot start within
            // the heartbeat window of the primary, is declared failed
            // and abandoned (no spare reserved, no comparison); the
            // primary's result wins and the task runs effectively
            // unprotected from here on.
            rec.replica_lagged = true;
            fx.lagged = true;
            fx.lag_at = t0 + cfg.recovery.heartbeat_secs.expect("lag implies heartbeat");
            match cfg.faults.decide(task.id as u64, attempt_base, p) {
                InjectionDecision::Inject(ErrorClass::Due) => rec.uncovered_due = true,
                InjectionDecision::Inject(ErrorClass::Sdc) => rec.uncovered_sdc = true,
                InjectionDecision::Inject(ErrorClass::NodeCrash) => {
                    fx.crash_at = Some(t0 + 0.5 * dur);
                }
                // DCE (detected + corrected) and no-injection cost
                // nothing.
                _ => {}
            }
            orig_end
        } else {
            if let Some(best) = best_spare {
                ns.spare_free[best] = replica_start + dur;
            }
            let replica_end = replica_start + dur;
            let mut sync = orig_end.max(replica_end) + cmp;

            let d0 = cfg.faults.decide(task.id as u64, attempt_base, p);
            let d1 = cfg.faults.decide(task.id as u64, attempt_base + 1, p);
            // A crash drawn on the primary attempt kills the machine —
            // replica included (spares live on the same node); the
            // engine's kill path discards this timeline. A crash class
            // on the replica attempt is not modelled (crashes are
            // machine events, drawn once per dispatch).
            if matches!(d0, InjectionDecision::Inject(ErrorClass::NodeCrash)) {
                fx.crash_at = Some(t0 + 0.5 * dur);
            }
            let due0 = matches!(d0, InjectionDecision::Inject(ErrorClass::Due));
            let due1 = matches!(d1, InjectionDecision::Inject(ErrorClass::Due));
            let sdc0 = matches!(d0, InjectionDecision::Inject(ErrorClass::Sdc));
            let sdc1 = matches!(d1, InjectionDecision::Inject(ErrorClass::Sdc));
            if due0 || due1 {
                // Re-execute once per crashed copy to restore two copies,
                // then compare again.
                let crashes = usize::from(due0) + usize::from(due1);
                sync += crashes as f64 * dur + cmp;
                rec.due_recovered = true;
            } else if sdc0 || sdc1 {
                // Mismatch detected: re-execution + vote (the vote reads
                // three copies ≈ one more comparison).
                sync += dur + cmp;
                rec.sdc_detected = true;
            }
            sync
        }
    };

    rec.completed = completion;
    (rec, completion, true, fx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::NodeSpec;
    use appfit_core::{ReplicateAll, ReplicateNone};
    use dataflow_rt::{DataArena, Region, TaskGraph, TaskSpec};
    use fault_inject::{NoFaults, SeededInjector};
    use fit_model::RateModel;

    /// A node where 1 flop takes 1 virtual second (unit-cost tasks).
    fn unit_node(cores: usize, spares: usize) -> ClusterSpec {
        ClusterSpec {
            nodes: 1,
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

    fn config(cluster: ClusterSpec, replicate: bool) -> SimConfig {
        SimConfig {
            cluster,
            cost: CostModel::default(),
            policy: if replicate {
                Arc::new(ReplicateAll)
            } else {
                Arc::new(ReplicateNone)
            },
            faults: Arc::new(NoFaults),
            injection: InjectionConfig::Disabled,
            recovery: RecoveryConfig::default(),
        }
    }

    /// `k` independent unit tasks.
    fn independent_tasks(k: usize) -> SimGraph {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", k);
        let mut g = TaskGraph::new();
        for i in 0..k {
            g.submit(
                TaskSpec::new("unit")
                    .writes(Region::contiguous(v, i, 1))
                    .flops(1.0),
            );
        }
        SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0)
    }

    /// A chain of `k` unit tasks through one cell.
    fn chain_tasks(k: usize) -> SimGraph {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 1);
        let mut g = TaskGraph::new();
        for _ in 0..k {
            g.submit(TaskSpec::new("link").updates(Region::full(v, 1)).flops(1.0));
        }
        SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0)
    }

    #[test]
    fn single_task_takes_its_duration() {
        let report = simulate(&independent_tasks(1), &config(unit_node(1, 0), false));
        assert!((report.makespan - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_tasks_scale_with_cores() {
        let g = independent_tasks(8);
        let t1 = simulate(&g, &config(unit_node(1, 0), false)).makespan;
        let t4 = simulate(&g, &config(unit_node(4, 0), false)).makespan;
        let t8 = simulate(&g, &config(unit_node(8, 0), false)).makespan;
        assert!((t1 - 8.0).abs() < 1e-9);
        assert!((t4 - 2.0).abs() < 1e-9);
        assert!((t8 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chains_do_not_scale() {
        let g = chain_tasks(6);
        let t1 = simulate(&g, &config(unit_node(1, 0), false)).makespan;
        let t8 = simulate(&g, &config(unit_node(8, 0), false)).makespan;
        assert!((t1 - 6.0).abs() < 1e-9);
        assert!((t8 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn replication_on_spares_costs_only_sync() {
        // With free memory (ckpt/cmp = 0 here since bytes are tiny and
        // bandwidth infinite) and spare cores, complete replication
        // should cost (almost) nothing in makespan.
        let g = independent_tasks(8);
        let plain = simulate(&g, &config(unit_node(4, 0), false)).makespan;
        let repl = simulate(&g, &config(unit_node(4, 4), true)).makespan;
        assert!((repl - plain).abs() < 1e-9, "plain {plain} repl {repl}");
    }

    #[test]
    fn replication_without_spares_doubles_time() {
        let g = independent_tasks(4);
        let plain = simulate(&g, &config(unit_node(1, 0), false)).makespan;
        let repl = simulate(&g, &config(unit_node(1, 0), true)).makespan;
        assert!(
            (repl / plain - 2.0).abs() < 1e-9,
            "plain {plain} repl {repl}"
        );
    }

    #[test]
    fn contended_spares_delay_sync() {
        // 2 worker cores but only 1 spare: two replicated unit tasks
        // start together; the second replica waits for the spare.
        let g = independent_tasks(2);
        let repl = simulate(&g, &config(unit_node(2, 1), true)).makespan;
        assert!((repl - 2.0).abs() < 1e-9, "got {repl}");
    }

    #[test]
    fn injected_faults_extend_makespan() {
        let g = chain_tasks(10);
        let mut cfg = config(unit_node(1, 1), true);
        let clean = simulate(&g, &cfg).makespan;
        cfg.faults = Arc::new(SeededInjector::new(11));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.0,
            p_sdc: 0.5,
            p_crash: 0.0,
        };
        let report = simulate(&g, &cfg);
        assert!(report.sdc_detected_count() > 0);
        assert!(
            report.makespan > clean,
            "recovery must cost time: {} vs {clean}",
            report.makespan
        );
    }

    #[test]
    fn unreplicated_faults_are_recorded_not_repaired() {
        let g = independent_tasks(50);
        let mut cfg = config(unit_node(4, 0), false);
        cfg.faults = Arc::new(SeededInjector::new(3));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.2,
            p_sdc: 0.2,
            p_crash: 0.0,
        };
        let report = simulate(&g, &cfg);
        assert!(report.uncovered_due_count() > 0);
        assert!(report.uncovered_sdc_count() > 0);
        // No time penalty for silent faults.
        let clean = simulate(&g, &config(unit_node(4, 0), false)).makespan;
        assert!((report.makespan - clean).abs() < 1e-12);
    }

    #[test]
    fn remote_inputs_cost_transfers() {
        // Producer on node 0, consumer on node 1.
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 1_000_000);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("produce")
                .writes(Region::full(v, 1_000_000))
                .flops(1.0),
        );
        g.submit(
            TaskSpec::new("consume")
                .reads(Region::full(v, 1_000_000))
                .flops(1.0),
        );
        let local = {
            let sg = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0);
            let mut cluster = ClusterSpec::distributed(2);
            cluster.node.mem_bw_gbs = f64::INFINITY;
            cluster.node.gflops_per_core = 1e-9;
            simulate(&sg, &config(cluster, false)).makespan
        };
        let remote = {
            let sg = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |t| {
                u32::from(t.label == "consume")
            });
            let mut cluster = ClusterSpec::distributed(2);
            cluster.node.mem_bw_gbs = f64::INFINITY;
            cluster.node.gflops_per_core = 1e-9;
            simulate(&sg, &config(cluster, false)).makespan
        };
        // 8 MB over 5 GB/s = 1.6 ms extra.
        assert!(remote > local + 1.0e-3, "local {local} remote {remote}");
    }

    #[test]
    fn determinism() {
        let g = independent_tasks(64);
        let mut cfg = config(unit_node(4, 2), true);
        cfg.faults = Arc::new(SeededInjector::new(99));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.05,
            p_sdc: 0.1,
            p_crash: 0.0,
        };
        let a = simulate(&g, &cfg);
        let b = simulate(&g, &cfg);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.records().len(), b.records().len());
        for (x, y) in a.records().iter().zip(b.records()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn crash_recovery_reexecutes_lost_tasks() {
        // One core, high crash probability: every crash must kill the
        // node, requeue the in-flight task and finish it after repair.
        let g = independent_tasks(12);
        let mut cfg = config(unit_node(1, 0), false);
        cfg.faults = Arc::new(SeededInjector::new(17));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.0,
            p_sdc: 0.0,
            p_crash: 0.4,
        };
        cfg.recovery.crash_repair_secs = 5.0;
        let clean = simulate(&g, &config(unit_node(1, 0), false));
        let report = simulate(&g, &cfg);
        let crashes = report
            .recovery()
            .iter()
            .filter(|r| r.kind == RecoveryKind::Crash)
            .count();
        assert!(crashes > 0, "seed must draw at least one crash");
        let restarts: Vec<_> = report
            .recovery()
            .iter()
            .filter(|r| r.kind == RecoveryKind::Restart)
            .collect();
        assert!(!restarts.is_empty(), "lost in-flight tasks must restart");
        let repairs = report
            .recovery()
            .iter()
            .filter(|r| r.kind == RecoveryKind::Repair)
            .count();
        assert_eq!(repairs, crashes, "every crash is eventually repaired");
        // All tasks still complete, each exactly once, later than clean.
        assert_eq!(report.records().len(), g.tasks().len());
        assert!(report.makespan > clean.makespan);
        // Recovery stream is canonically sorted.
        let mut sorted = report.recovery().to_vec();
        sort_canonical(&mut sorted);
        assert_eq!(sorted, report.recovery());
    }

    #[test]
    fn checkpoint_strategy_recovers_unreplicated_dues() {
        let g = chain_tasks(30);
        let mut cfg = config(unit_node(1, 0), false);
        cfg.faults = Arc::new(SeededInjector::new(5));
        cfg.injection = InjectionConfig::PerTask {
            p_due: 0.3,
            p_sdc: 0.0,
            p_crash: 0.0,
        };
        // Without checkpoints the DUEs are fatal (uncovered).
        let fatal = simulate(&g, &cfg);
        assert!(fatal.uncovered_due_count() > 0);
        // With periodic snapshots every DUE restarts from the last one.
        cfg.recovery.strategy = RecoveryStrategy::Checkpoint {
            interval_secs: 3.0,
            snapshot_bytes: 8,
        };
        let saved = simulate(&g, &cfg);
        assert_eq!(saved.uncovered_due_count(), 0);
        assert_eq!(saved.due_recovered_count(), fatal.uncovered_due_count());
        assert!(
            saved
                .recovery()
                .iter()
                .any(|r| r.kind == RecoveryKind::Checkpoint),
            "snapshots must be recorded"
        );
        // Restart re-execution costs time.
        assert!(saved.makespan > fatal.makespan);
    }

    #[test]
    fn preemption_trace_revokes_and_completes() {
        let g = independent_tasks(20);
        let mut cfg = config(unit_node(2, 0), false);
        cfg.recovery.preempt = Some(crate::machine::PreemptSpec {
            up_secs: 3.0,
            down_secs: 1.0,
            seed: 9,
        });
        let clean = simulate(&g, &config(unit_node(2, 0), false));
        let report = simulate(&g, &cfg);
        let preempts = report
            .recovery()
            .iter()
            .filter(|r| r.kind == RecoveryKind::Preempt)
            .count();
        assert!(preempts > 0, "a 10 s run must see revocations");
        assert_eq!(report.records().len(), g.tasks().len());
        assert!(report.makespan >= clean.makespan);
        // Determinism with recovery machinery active.
        let again = simulate(&g, &cfg);
        assert_eq!(report, again);
    }

    #[test]
    fn heartbeat_abandons_lagging_replicas() {
        // 2 workers, 1 spare: the second concurrent replica waits a
        // full task duration for the spare — past a 0.5 s heartbeat.
        let g = independent_tasks(4);
        let mut cfg = config(unit_node(2, 1), true);
        cfg.recovery.heartbeat_secs = Some(0.5);
        let report = simulate(&g, &cfg);
        assert!(
            report.replica_lagged_count() >= 1,
            "spare contention must lag"
        );
        assert!(
            report
                .recovery()
                .iter()
                .any(|r| r.kind == RecoveryKind::ReplicaLag),
            "lag detections must be recorded"
        );
        // A lagged task still reports as replicated (the decision
        // stood), and the abandoned replica frees the makespan the
        // contended spare would have cost.
        let contended = simulate(&g, &config(unit_node(2, 1), true));
        assert!(report.makespan <= contended.makespan);
    }

    #[test]
    fn barriers_cost_nothing_but_order() {
        let mut arena = DataArena::new();
        let v = arena.alloc("v", 2);
        let mut g = TaskGraph::new();
        g.submit(
            TaskSpec::new("a")
                .writes(Region::contiguous(v, 0, 1))
                .flops(1.0),
        );
        g.taskwait();
        g.submit(
            TaskSpec::new("b")
                .writes(Region::contiguous(v, 1, 1))
                .flops(1.0),
        );
        let sg = SimGraph::from_task_graph(&g, &RateModel::roadrunner(), |_| 0);
        let report = simulate(&sg, &config(unit_node(2, 0), false));
        // Serialized by the barrier despite 2 cores.
        assert!((report.makespan - 2.0).abs() < 1e-9);
    }
}
