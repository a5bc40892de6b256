//! The discrete-event simulation loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use appfit_core::{DecisionCtx, EpochDecider, EpochDecision, ReplicationPolicy};
use fault_inject::{ErrorClass, FaultModel, InjectionConfig, InjectionDecision};

use crate::cost::{CostModel, PreparedCost};
use crate::events::{time_from_bits, time_to_bits, ControlKind, EventKey};
use crate::graph::{SimGraph, SimTask};
use crate::machine::ClusterSpec;
use crate::ready::ReadyList;
use crate::records::RecordStore;
use crate::recovery::{sort_canonical, RecoveryConfig, RecoveryKind, RecoveryRt, RecoveryStrategy};
use crate::report::{SimReport, SimTaskRecord};
use crate::shard::{commit_pending, DecisionRec};

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

/// Recovery-relevant side effects of one [`dispatch_task`] call, beyond
/// the task record itself. The engine translates them into control
/// events and [`crate::recovery::RecoveryRecord`]s — `dispatch_task`
/// stays engine-agnostic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DispatchFx {
    /// The dispatch drew a fail-stop crash: the node dies at this time.
    pub(crate) crash_at: Option<f64>,
    /// Heartbeat detection abandoned the replica.
    pub(crate) lagged: bool,
    /// When the lag was detected (valid when `lagged`).
    pub(crate) lag_at: f64,
    /// The node wrote a periodic snapshot before executing.
    pub(crate) ckpt: bool,
    /// When the snapshot was taken (valid when `ckpt`).
    pub(crate) ckpt_at: f64,
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
    assert!(
        n < (1 << 31),
        "the packed event key reserves completion sequence numbers below 2^31"
    );
    let nodes = cfg.cluster.nodes;
    let mut indegree: Vec<u32> = (0..n as u32).map(|i| graph.preds(i).len() as u32).collect();
    let mut state: Vec<NodeState> = (0..nodes).map(|_| NodeState::new(&cfg.cluster)).collect();
    let mut ready = ReadyList::new(nodes, n);
    let mut records = RecordStore::new(n);
    // Completion events, packed `(time, seq, task)`. `seq` keeps ties
    // FIFO.
    let mut heap: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
    let mut seq = 0u32;
    let mut makespan = 0.0f64;
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    // The recovery runtime exists only when some recovery mechanism can
    // fire; without it the loop is exactly the classic engine.
    let mut rt: Option<Box<RecoveryRt>> = cfg
        .recovery
        .any_enabled(&cfg.injection)
        .then(|| Box::new(RecoveryRt::new(nodes, n)));
    if rt.is_some() {
        if let Some(spec) = cfg.recovery.preempt {
            for node in 0..nodes as u32 {
                heap.push(Reverse(EventKey::control(
                    spec.first_down(node),
                    ControlKind::Preempt,
                    node,
                )));
            }
        }
    }

    for t in tasks {
        assert!(
            (t.node as usize) < nodes,
            "task {} placed on node {} but the cluster has {nodes}",
            t.id,
            t.node
        );
        if graph.preds(t.id).is_empty() {
            ready.push_back(t.node as usize, t.id, t.id as usize);
        }
    }

    // Seed dispatch visits every node; afterwards only woken nodes.
    let mut woken: Vec<u32> = (0..nodes as u32).collect();
    dispatch_ready(
        graph,
        &mut state,
        &mut ready,
        &woken,
        &mut heap,
        &mut seq,
        &mut records,
        0.0,
        cfg,
        &cost,
        &mut rt,
    );

    let mut done = 0usize;
    while let Some(Reverse(key)) = heap.pop() {
        let now = key.time();
        if key.is_control() {
            let node = key.task() as usize;
            let r = rt
                .as_deref_mut()
                .expect("control events require the recovery runtime");
            match key.control_kind() {
                ControlKind::Repair => {
                    if r.repair_valid(node, now) {
                        r.repair(now, node as u32, node);
                        woken.clear();
                        woken.push(node as u32);
                        dispatch_ready(
                            graph,
                            &mut state,
                            &mut ready,
                            &woken,
                            &mut heap,
                            &mut seq,
                            &mut records,
                            now,
                            cfg,
                            &cost,
                            &mut rt,
                        );
                    }
                }
                ControlKind::Crash => {
                    if r.crash_valid(node, now) {
                        let down = r.kill(
                            now,
                            node as u32,
                            node,
                            cfg.recovery.crash_repair_secs,
                            RecoveryKind::Crash,
                            &mut ready,
                            &mut records,
                            |t| t as usize,
                        );
                        let ns = &mut state[node];
                        ns.free_cores = cfg.cluster.node.cores;
                        ns.spare_free.fill(down);
                        heap.push(Reverse(EventKey::control(
                            down,
                            ControlKind::Repair,
                            node as u32,
                        )));
                    }
                }
                ControlKind::Preempt => {
                    // Preemption traces are unconditional — the node is
                    // revoked whether busy or idle — and periodic.
                    let spec = cfg
                        .recovery
                        .preempt
                        .expect("preempt control without a trace");
                    let down = r.kill(
                        now,
                        node as u32,
                        node,
                        spec.down_secs,
                        RecoveryKind::Preempt,
                        &mut ready,
                        &mut records,
                        |t| t as usize,
                    );
                    let ns = &mut state[node];
                    ns.free_cores = cfg.cluster.node.cores;
                    ns.spare_free.fill(down);
                    heap.push(Reverse(EventKey::control(
                        down,
                        ControlKind::Repair,
                        node as u32,
                    )));
                    heap.push(Reverse(EventKey::control(
                        now + spec.period(),
                        ControlKind::Preempt,
                        node as u32,
                    )));
                }
            }
            continue;
        }
        let id = key.task();
        let task = &tasks[id as usize];
        if let Some(r) = rt.as_deref_mut() {
            if !task.is_barrier && !r.complete(task.node as usize, id as usize, id, now) {
                // Stale completion of a crash-killed attempt.
                continue;
            }
        }
        done += 1;
        makespan = makespan.max(now);
        woken.clear();
        woken.push(task.node);
        if !task.is_barrier {
            state[task.node as usize].free_cores += 1;
        }
        for &s in graph.succs(id) {
            indegree[s as usize] -= 1;
            if indegree[s as usize] == 0 {
                let owner = tasks[s as usize].node;
                ready.push_back(owner as usize, s, s as usize);
                woken.push(owner);
            }
        }
        woken.sort_unstable();
        woken.dedup();
        dispatch_ready(
            graph,
            &mut state,
            &mut ready,
            &woken,
            &mut heap,
            &mut seq,
            &mut records,
            now,
            cfg,
            &cost,
            &mut rt,
        );
        if done == n {
            // Preemption traces schedule controls forever; stop at the
            // last real completion.
            break;
        }
    }
    assert_eq!(done, n, "cycle or lost task in simulation graph");

    let mut recovery = rt.map(|r| r.into_events()).unwrap_or_default();
    sort_canonical(&mut recovery);
    SimReport::new(
        makespan,
        cfg.cluster.total_cores(),
        (0..n).map(|i| records.get(i, i as u32)).collect(),
    )
    .with_recovery(recovery)
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
/// **bit for bit** at every shard count. `lookahead` must be positive
/// and finite.
pub fn simulate_delayed(graph: &SimGraph, cfg: &SimConfig, lookahead: f64) -> SimReport {
    assert!(
        lookahead > 0.0 && lookahead.is_finite(),
        "lookahead must be positive and finite"
    );
    let tasks = graph.tasks();
    let n = tasks.len();
    assert!(
        n < (1 << 31),
        "the packed event key reserves completion sequence numbers below 2^31"
    );
    let nodes = cfg.cluster.nodes;
    let mut indegree: Vec<u32> = (0..n as u32).map(|i| graph.preds(i).len() as u32).collect();
    let mut makespan = 0.0f64;
    let cost = cfg.cost.prepare(&cfg.cluster.node);
    let mut committed: Vec<EpochDecision> = Vec::new();
    // Policy windows: one fork per window with one view per node,
    // committed at the horizon barrier in canonical order (shared with
    // the sharded engine via `commit_pending`).
    let mut dw = DelayedState {
        state: (0..nodes).map(|_| NodeState::new(&cfg.cluster)).collect(),
        ready: ReadyList::new(nodes, n),
        heap: BinaryHeap::new(),
        seq: 0,
        records: RecordStore::new(n),
        fork: None,
        node_seqs: vec![0; nodes],
        pending: Vec::new(),
        rt: cfg
            .recovery
            .any_enabled(&cfg.injection)
            .then(|| Box::new(RecoveryRt::new(nodes, n))),
    };
    if dw.rt.is_some() {
        if let Some(spec) = cfg.recovery.preempt {
            for node in 0..nodes as u32 {
                dw.heap.push(Reverse(EventKey::control(
                    spec.first_down(node),
                    ControlKind::Preempt,
                    node,
                )));
            }
        }
    }

    for t in tasks {
        assert!(
            (t.node as usize) < nodes,
            "task {} placed on node {} but the cluster has {nodes}",
            t.id,
            t.node
        );
        if graph.preds(t.id).is_empty() {
            dw.ready.push_back(t.node as usize, t.id, t.id as usize);
        }
    }

    // Seed window: dispatch every node with ready sources at t = 0.
    for node in 0..nodes {
        dispatch_node_delayed(node, 0.0, graph, cfg, &cost, &mut dw);
    }

    // First window ends one lookahead past the t = 0 seed horizon —
    // the same schedule the sharded engine derives.
    let mut w_end = lookahead;
    let mut done = 0usize;
    while let Some(&Reverse(peek)) = dw.heap.peek() {
        if peek.time() >= w_end {
            // Horizon barrier: commit this window's decisions in
            // canonical order, drop the fork, extend the window one
            // lookahead past the earliest pending event. Control
            // events join the horizon min-fold exactly as in the
            // sharded engine — they sit in the same heap.
            commit_pending(&*cfg.policy, tasks, &mut dw.pending, &mut committed);
            dw.fork = None;
            dw.node_seqs.fill(0);
            let horizon = peek.time();
            w_end = horizon + lookahead;
            if w_end <= horizon {
                // Sub-ulp lookahead: force minimal progress.
                w_end = time_from_bits(time_to_bits(horizon) + 1);
            }
            continue;
        }
        let Reverse(key) = dw.heap.pop().expect("peeked");
        let now = key.time();
        if key.is_control() {
            let node = key.task() as usize;
            let DelayedState {
                state,
                ready,
                heap,
                records,
                rt,
                ..
            } = &mut dw;
            let r = rt
                .as_deref_mut()
                .expect("control events require the recovery runtime");
            match key.control_kind() {
                ControlKind::Repair => {
                    if r.repair_valid(node, now) {
                        r.repair(now, node as u32, node);
                        dispatch_node_delayed(node, now, graph, cfg, &cost, &mut dw);
                    }
                }
                ControlKind::Crash => {
                    if r.crash_valid(node, now) {
                        let down = r.kill(
                            now,
                            node as u32,
                            node,
                            cfg.recovery.crash_repair_secs,
                            RecoveryKind::Crash,
                            ready,
                            records,
                            |t| t as usize,
                        );
                        let ns = &mut state[node];
                        ns.free_cores = cfg.cluster.node.cores;
                        ns.spare_free.fill(down);
                        heap.push(Reverse(EventKey::control(
                            down,
                            ControlKind::Repair,
                            node as u32,
                        )));
                    }
                }
                ControlKind::Preempt => {
                    let spec = cfg
                        .recovery
                        .preempt
                        .expect("preempt control without a trace");
                    let down = r.kill(
                        now,
                        node as u32,
                        node,
                        spec.down_secs,
                        RecoveryKind::Preempt,
                        ready,
                        records,
                        |t| t as usize,
                    );
                    let ns = &mut state[node];
                    ns.free_cores = cfg.cluster.node.cores;
                    ns.spare_free.fill(down);
                    heap.push(Reverse(EventKey::control(
                        down,
                        ControlKind::Repair,
                        node as u32,
                    )));
                    heap.push(Reverse(EventKey::control(
                        now + spec.period(),
                        ControlKind::Preempt,
                        node as u32,
                    )));
                }
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
                dw.ready.push_back(owner, id, id as usize);
                dispatch_node_delayed(owner, now, graph, cfg, &cost, &mut dw);
            }
            continue;
        }
        let task = &tasks[id as usize];
        let node = task.node as usize;
        if let Some(r) = dw.rt.as_deref_mut() {
            if !task.is_barrier && !r.complete(node, id as usize, id, now) {
                // Stale completion of a crash-killed attempt.
                continue;
            }
        }
        done += 1;
        makespan = makespan.max(now);
        if !task.is_barrier {
            dw.state[node].free_cores += 1;
        }
        for &s in graph.succs(id) {
            if tasks[s as usize].node == task.node {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    dw.ready.push_back(node, s, s as usize);
                }
            } else {
                // Cross-node activation: visible one lookahead later,
                // at its exact effect time.
                dw.heap
                    .push(Reverse(EventKey::delivery(now + lookahead, s)));
            }
        }
        dispatch_node_delayed(node, now, graph, cfg, &cost, &mut dw);
        if done == n {
            // Preemption traces schedule controls forever; stop at the
            // last real completion.
            break;
        }
    }
    commit_pending(&*cfg.policy, tasks, &mut dw.pending, &mut committed);
    assert_eq!(done, n, "cycle or lost task in simulation graph");

    let mut recovery = dw.rt.map(|r| r.into_events()).unwrap_or_default();
    sort_canonical(&mut recovery);
    SimReport::new(
        makespan,
        cfg.cluster.total_cores(),
        (0..n).map(|i| dw.records.get(i, i as u32)).collect(),
    )
    .with_recovery(recovery)
}

/// Mutable per-run state of [`simulate_delayed`], bundled so the
/// dispatch helper can borrow it as one unit.
struct DelayedState<'c> {
    state: Vec<NodeState>,
    ready: ReadyList,
    heap: BinaryHeap<Reverse<EventKey>>,
    seq: u32,
    records: RecordStore,
    fork: Option<Box<dyn EpochDecider + 'c>>,
    node_seqs: Vec<u32>,
    pending: Vec<DecisionRec>,
    rt: Option<Box<RecoveryRt>>,
}

/// [`simulate_delayed`]'s per-node dispatch: the sharded engine's
/// `dispatch_node` on global state — same fork consultation, same
/// decision recording, completions straight into the single heap.
fn dispatch_node_delayed<'c>(
    node: usize,
    now: f64,
    graph: &SimGraph,
    cfg: &'c SimConfig,
    cost: &PreparedCost,
    dw: &mut DelayedState<'c>,
) {
    let tasks = graph.tasks();
    let DelayedState {
        state,
        ready,
        heap,
        seq,
        records,
        fork,
        node_seqs,
        pending,
        rt,
    } = dw;
    if rt.as_ref().is_some_and(|r| r.is_down(node)) {
        // A revoked node dispatches nothing; its repair control
        // revisits the queue.
        return;
    }
    while let Some(front) = ready.front(node) {
        let ns = &mut state[node];
        if ns.free_cores == 0 && !tasks[front as usize].is_barrier {
            break;
        }
        let id = ready.pop_front(node, |t| t as usize).expect("nonempty");
        let task = &tasks[id as usize];
        let slot = id as usize;
        // Crash-killed tasks re-dispatch with their pinned decision —
        // no fork consultation, no decision record (retries replay a
        // decision already committed).
        let retry = rt.as_ref().and_then(|r| r.retry_of(slot));
        let mut decided: Option<bool> = None;
        let (record, completion, uses_core, fx) = if let Some((count, replicate)) = retry {
            dispatch_task(graph, task, ns, now, cfg, cost, count * 2, &mut |_| {
                replicate
            })
        } else {
            let fork = fork.get_or_insert_with(|| cfg.policy.fork_epoch());
            dispatch_task(graph, task, ns, now, cfg, cost, 0, &mut |ctx| {
                let replicate = fork.decide_at(node, ctx);
                decided = Some(replicate);
                replicate
            })
        };
        if let Some(replicate) = decided {
            pending.push(DecisionRec::new(
                now,
                task.node,
                node_seqs[node],
                id,
                replicate,
                fx.lagged,
            ));
            node_seqs[node] += 1;
            if fx.lagged {
                // Mirror the lag charge on the node's view so later
                // decisions in this window see it; the global policy
                // hears about it at commit, in canonical order.
                fork.as_mut()
                    .expect("fork exists after a decision")
                    .on_replica_failed_at(node, &decision_ctx(task));
            }
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
                r.track(node, slot, id, completion);
            }
            if let Some(crash_at) = fx.crash_at {
                if r.arm_crash(node, crash_at) {
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

#[allow(clippy::too_many_arguments)]
fn dispatch_ready(
    graph: &SimGraph,
    state: &mut [NodeState],
    ready: &mut ReadyList,
    woken: &[u32],
    heap: &mut BinaryHeap<Reverse<EventKey>>,
    seq: &mut u32,
    records: &mut RecordStore,
    now: f64,
    cfg: &SimConfig,
    cost: &PreparedCost,
    rt: &mut Option<Box<RecoveryRt>>,
) {
    let tasks = graph.tasks();
    for &node in woken {
        if rt.as_ref().is_some_and(|r| r.is_down(node as usize)) {
            // A revoked node dispatches nothing; its repair control
            // revisits the queue.
            continue;
        }
        let ns = &mut state[node as usize];
        while let Some(front) = ready.front(node as usize) {
            if ns.free_cores == 0 && !tasks[front as usize].is_barrier {
                break;
            }
            let id = ready
                .pop_front(node as usize, |t| t as usize)
                .expect("nonempty");
            let task = &tasks[id as usize];
            let slot = id as usize;
            // Crash-killed tasks re-dispatch with their pinned decision
            // (no fresh policy consultation) and a bumped attempt base.
            let retry = rt.as_ref().and_then(|r| r.retry_of(slot));
            let (record, completion, uses_core, fx) = if let Some((count, replicate)) = retry {
                dispatch_task(graph, task, ns, now, cfg, cost, count * 2, &mut |_| {
                    replicate
                })
            } else {
                dispatch_task(graph, task, ns, now, cfg, cost, 0, &mut |ctx| {
                    let replicate = cfg.policy.decide(ctx);
                    cfg.policy.on_complete(ctx, replicate);
                    replicate
                })
            };
            if fx.lagged && retry.is_none() {
                // The abandoned replica leaves the task effectively
                // unprotected — charge the policy right after its
                // decision, in dispatch order.
                cfg.policy.on_replica_failed(&decision_ctx(task));
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
                    r.track(node as usize, slot, id, completion);
                }
                if let Some(crash_at) = fx.crash_at {
                    if r.arm_crash(node as usize, crash_at) {
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
}

/// Computes one task's virtual timeline. Returns its record, its
/// completion time, whether it occupied a worker core (the core is
/// held until completion — the original waits at the end-of-task
/// synchronization point, as in the paper's design), and the dispatch's
/// recovery side effects ([`DispatchFx`]).
///
/// The replication decision is delegated to `decide` so the two engines
/// can plug in their own policy wiring: the sequential engine consults
/// the global policy directly (decisions in global dispatch order), the
/// sharded engine consults the node's view in a window fork (decisions
/// committed at the next barrier). Everything else — transfers, contention
/// snapshot, protection and recovery timing — is this one shared code
/// path, which is what makes the engines bit-comparable.
///
/// `attempt_base` is 0 for first dispatches and `2 × retry count` for
/// re-dispatches of crash-lost tasks, so every attempt draws a fresh,
/// reproducible fault stream (the replica, when present, draws at
/// `attempt_base + 1`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_task(
    graph: &SimGraph,
    task: &SimTask,
    ns: &mut NodeState,
    now: f64,
    cfg: &SimConfig,
    cost: &PreparedCost,
    attempt_base: u32,
    decide: &mut dyn FnMut(&DecisionCtx) -> bool,
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
