//! Compact binary execution traces: the record half of the
//! record → replay → diff pipeline.
//!
//! A [`Trace`] captures a scenario run's **decision stream** — every
//! replication decision in the exact order the engine accounted it —
//! plus the running App_FIT accounting after each epoch, and the
//! resulting makespan. Together with the embedded scenario spec the
//! trace is self-contained: a replay re-parses the spec, re-runs the
//! simulation in a fresh process and must reproduce every byte (the
//! engines are deterministic, so any divergence is a bug or an
//! environment difference worth knowing about).
//!
//! The serialized form is a little-endian binary layout (13 bytes per
//! decision), small enough that million-task traces stay in the tens
//! of megabytes.
//!
//! **Trace v2** optionally embeds **per-task timing** — each task's
//! virtual dispatch and completion time, in task-id order — behind a
//! header flag ([`Trace::timing`], recorded via
//! [`crate::runner::TraceOptions`]). Timing costs 16 bytes per task
//! (~3× the decision stream) but lets [`diff`] *localize* a makespan
//! regression: the first task, in virtual time, whose timeline
//! diverged. Version-1 traces decode unchanged (no timing).
//!
//! **Trace v3** optionally embeds the **recovery stream** — every
//! crash, repair, preemption, restart, lagging-replica abandonment and
//! checkpoint the engine recorded, in canonical order — behind a
//! second header flag ([`Trace::recovery`]). 17 bytes per event, and
//! recovery streams are short (events, not tasks), so the cost is
//! negligible; in exchange [`diff`] localizes a divergence between two
//! crash-bearing runs to the **first recovery action** that differs,
//! which is almost always the actual root cause (per-task timing then
//! only confirms the downstream fallout). Version-1 and version-2
//! traces decode unchanged (no recovery stream).

use std::fmt;

/// One recorded replication decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceDecision {
    /// Task id the decision was taken for.
    pub task: u32,
    /// Was the task replicated?
    pub replicate: bool,
    /// The task's total failure rate λF+λSDC (FIT) — the quantity
    /// App_FIT's Eq. 1 charges.
    pub lambda: f64,
}

/// One accounting epoch: a batch of decisions plus the accounting
/// state after it. Sequential-engine runs record a single epoch;
/// sharded runs record one per barrier that committed decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEpoch {
    /// The epoch's decisions, in canonical commit order.
    pub decisions: Vec<TraceDecision>,
    /// Unprotected FIT accumulated after this epoch (the App_FIT
    /// `current_fit` trajectory; derived identically for baseline
    /// policies).
    pub fit_after: f64,
    /// Decisions taken so far.
    pub decided_after: u64,
    /// Replicate-decisions taken so far.
    pub replicated_after: u64,
}

/// Per-task virtual timing (Trace v2): one entry per task, in task-id
/// (submission) order, struct-of-arrays.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceTiming {
    /// Virtual dispatch time per task.
    pub dispatched: Vec<f64>,
    /// Virtual completion time per task.
    pub completed: Vec<f64>,
}

impl TraceTiming {
    /// Number of recorded tasks.
    pub fn len(&self) -> usize {
        self.dispatched.len()
    }

    /// `true` when no tasks are recorded.
    pub fn is_empty(&self) -> bool {
        self.dispatched.is_empty()
    }
}

/// One recorded recovery event (Trace v3): the wire form of a
/// [`cluster_sim::RecoveryRecord`], kept as a plain
/// `(time, node, task, kind)` tuple so the trace format does not
/// depend on the engine's enum layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecovery {
    /// Virtual time of the event (seconds).
    pub time: f64,
    /// The machine involved.
    pub node: u32,
    /// The task involved (`u32::MAX` for machine-level events such as
    /// crashes, repairs and preemptions).
    pub task: u32,
    /// The event class — [`cluster_sim::RecoveryKind::code`].
    pub kind: u8,
}

/// A recorded scenario execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The canonical text of the scenario that produced the trace.
    pub spec_text: String,
    /// Virtual makespan of the run (seconds).
    pub makespan: f64,
    /// The decision stream, batched per accounting epoch.
    pub epochs: Vec<TraceEpoch>,
    /// Per-task timing when recorded with the Trace-v2 timing flag.
    pub timing: Option<TraceTiming>,
    /// The recovery stream (crashes, repairs, preemptions, restarts,
    /// lagging replicas, checkpoints) when recorded with the Trace-v3
    /// recovery flag, in the engine's canonical order.
    pub recovery: Option<Vec<TraceRecovery>>,
}

/// Where two traces first disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The embedded scenario specs differ.
    Spec,
    /// Decision `index` (into the flattened stream) differs; `None` on
    /// one side means that stream ended early.
    Decision {
        /// Flattened decision index.
        index: usize,
        /// Left decision, if present.
        a: Option<TraceDecision>,
        /// Right decision, if present.
        b: Option<TraceDecision>,
    },
    /// Epoch `index`'s post-state (fit/decided/replicated) differs.
    EpochState {
        /// Epoch index.
        index: usize,
    },
    /// One trace carries a recovery stream and the other does not.
    RecoveryPresence,
    /// Recovery event `index` (into the canonical stream) differs —
    /// the first recovery *action* where the two executions split,
    /// reported before any timing fallout.
    Recovery {
        /// Index into the canonical recovery stream.
        index: usize,
        /// Left event, if present.
        a: Option<TraceRecovery>,
        /// Right event, if present.
        b: Option<TraceRecovery>,
    },
    /// One trace carries per-task timing and the other does not.
    TimingPresence,
    /// Task `task`'s recorded dispatch/completion timing differs
    /// (bitwise) — the first such task *in virtual time*, which is
    /// where the executions started to diverge.
    Timing {
        /// The earliest diverging task's id.
        task: u32,
    },
    /// The makespans differ.
    Makespan,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Spec => write!(f, "embedded scenario specs differ"),
            Divergence::Decision { index, a, b } => {
                write!(f, "decision #{index} differs: ")?;
                match (a, b) {
                    (Some(a), Some(b)) => write!(
                        f,
                        "task {} {} (λ={}) vs task {} {} (λ={})",
                        a.task,
                        if a.replicate {
                            "replicated"
                        } else {
                            "unprotected"
                        },
                        a.lambda,
                        b.task,
                        if b.replicate {
                            "replicated"
                        } else {
                            "unprotected"
                        },
                        b.lambda,
                    ),
                    (Some(_), None) => write!(f, "right trace ends early"),
                    (None, Some(_)) => write!(f, "left trace ends early"),
                    (None, None) => unreachable!("divergence needs a side"),
                }
            }
            Divergence::EpochState { index } => {
                write!(f, "accounting state after epoch {index} differs")
            }
            Divergence::RecoveryPresence => {
                write!(f, "only one trace carries a recovery stream")
            }
            Divergence::Recovery { index, a, b } => {
                write!(f, "recovery event #{index} differs: ")?;
                let show = |f: &mut fmt::Formatter<'_>, e: &TraceRecovery| {
                    write!(
                        f,
                        "kind {} at t={} node {} task {}",
                        e.kind, e.time, e.node, e.task
                    )
                };
                match (a, b) {
                    (Some(a), Some(b)) => {
                        show(f, a)?;
                        write!(f, " vs ")?;
                        show(f, b)
                    }
                    (Some(_), None) => write!(f, "right stream ends early"),
                    (None, Some(_)) => write!(f, "left stream ends early"),
                    (None, None) => unreachable!("divergence needs a side"),
                }
            }
            Divergence::TimingPresence => {
                write!(f, "only one trace carries per-task timing")
            }
            Divergence::Timing { task } => {
                write!(
                    f,
                    "task {task} is the earliest (in virtual time) whose dispatch/completion timing differs"
                )
            }
            Divergence::Makespan => write!(f, "makespans differ"),
        }
    }
}

/// A malformed trace byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

const MAGIC: &[u8; 4] = b"APFT";
/// Current format version. Version 1 (no flags, no timing) and
/// version 2 (timing flag only) still decode.
const VERSION: u16 = 3;
/// Header flag: the trace carries per-task timing.
const FLAG_TIMING: u16 = 1;
/// Header flag (v3): the trace carries the recovery stream.
const FLAG_RECOVERY: u16 = 2;

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        if self.pos + n > self.bytes.len() {
            return Err(TraceError(format!(
                "truncated while reading {what} at offset {}",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The `Vec` capacity to reserve for `count` elements of `encoded`
    /// bytes each, `count` being a number read off the wire: never more
    /// elements than the bytes still unread could encode, so a forged
    /// count reserves nothing the input does not pay for (reading the
    /// elements then fails with the usual truncation error).
    fn capacity(&self, count: usize, encoded: usize) -> usize {
        count.min((self.bytes.len() - self.pos) / encoded)
    }

    fn u16(&mut self, what: &str) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn f64(&mut self, what: &str) -> Result<f64, TraceError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

impl Trace {
    /// Total decisions across all epochs.
    pub fn decision_count(&self) -> usize {
        self.epochs.iter().map(|e| e.decisions.len()).sum()
    }

    /// Replicate-decisions across all epochs.
    pub fn replicated_count(&self) -> usize {
        self.epochs
            .iter()
            .map(|e| e.decisions.iter().filter(|d| d.replicate).count())
            .sum()
    }

    /// The final accumulated unprotected FIT (0 for an empty trace).
    pub fn final_fit(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.fit_after)
    }

    /// All decisions, flattened in accounting order.
    pub fn decisions(&self) -> impl Iterator<Item = &TraceDecision> {
        self.epochs.iter().flat_map(|e| e.decisions.iter())
    }

    /// Serializes to the compact binary layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let timing_len = self.timing.as_ref().map_or(0, |t| 4 + t.len() * 16);
        let recovery_len = self.recovery.as_ref().map_or(0, |r| 4 + r.len() * 17);
        let mut out = Vec::with_capacity(
            4 + 2
                + 2
                + 4
                + self.spec_text.len()
                + 8
                + 4
                + self.decision_count() * 13
                + self.epochs.len() * 28
                + timing_len
                + recovery_len,
        );
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let mut flags = 0u16;
        if self.timing.is_some() {
            flags |= FLAG_TIMING;
        }
        if self.recovery.is_some() {
            flags |= FLAG_RECOVERY;
        }
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(self.spec_text.len() as u32).to_le_bytes());
        out.extend_from_slice(self.spec_text.as_bytes());
        out.extend_from_slice(&self.makespan.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.epochs.len() as u32).to_le_bytes());
        for epoch in &self.epochs {
            out.extend_from_slice(&(epoch.decisions.len() as u32).to_le_bytes());
            for d in &epoch.decisions {
                out.extend_from_slice(&d.task.to_le_bytes());
                out.push(u8::from(d.replicate));
                out.extend_from_slice(&d.lambda.to_bits().to_le_bytes());
            }
            out.extend_from_slice(&epoch.fit_after.to_bits().to_le_bytes());
            out.extend_from_slice(&epoch.decided_after.to_le_bytes());
            out.extend_from_slice(&epoch.replicated_after.to_le_bytes());
        }
        if let Some(timing) = &self.timing {
            assert_eq!(
                timing.dispatched.len(),
                timing.completed.len(),
                "TraceTiming columns must be parallel"
            );
            out.extend_from_slice(&(timing.len() as u32).to_le_bytes());
            for (&d, &c) in timing.dispatched.iter().zip(&timing.completed) {
                out.extend_from_slice(&d.to_bits().to_le_bytes());
                out.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        if let Some(recovery) = &self.recovery {
            out.extend_from_slice(&(recovery.len() as u32).to_le_bytes());
            for e in recovery {
                out.extend_from_slice(&e.time.to_bits().to_le_bytes());
                out.extend_from_slice(&e.node.to_le_bytes());
                out.extend_from_slice(&e.task.to_le_bytes());
                out.push(e.kind);
            }
        }
        out
    }

    /// Deserializes a trace produced by [`Trace::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4, "magic")? != MAGIC {
            return Err(TraceError("not a scenario trace (bad magic)".into()));
        }
        let version = r.u16("version")?;
        if version == 0 || version > VERSION {
            return Err(TraceError(format!(
                "unsupported trace version {version} (expected ≤ {VERSION})"
            )));
        }
        let flags = r.u16("flags")?;
        // Each version introduced its flags: v1 none, v2 timing,
        // v3 recovery. A flag ahead of its version is malformed.
        let known = match version {
            1 => 0,
            2 => FLAG_TIMING,
            _ => FLAG_TIMING | FLAG_RECOVERY,
        };
        if version == 1 && flags != 0 {
            return Err(TraceError("version-1 traces carry no flags".into()));
        }
        if flags & !known != 0 {
            return Err(TraceError(format!(
                "unknown header flags {flags:#06x} for version {version}"
            )));
        }
        let spec_len = r.u32("spec length")? as usize;
        let spec_text = String::from_utf8(r.take(spec_len, "spec text")?.to_vec())
            .map_err(|_| TraceError("spec text is not UTF-8".into()))?;
        let makespan = r.f64("makespan")?;
        let epoch_count = r.u32("epoch count")? as usize;
        let mut epochs = Vec::with_capacity(r.capacity(epoch_count, 28));
        for _ in 0..epoch_count {
            let n = r.u32("decision count")? as usize;
            let mut decisions = Vec::with_capacity(r.capacity(n, 13));
            for _ in 0..n {
                let task = r.u32("task id")?;
                let replicate = match r.take(1, "replicate flag")?[0] {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(TraceError(format!("bad replicate flag {other}")));
                    }
                };
                let lambda = r.f64("lambda")?;
                decisions.push(TraceDecision {
                    task,
                    replicate,
                    lambda,
                });
            }
            epochs.push(TraceEpoch {
                decisions,
                fit_after: r.f64("fit")?,
                decided_after: r.u64("decided")?,
                replicated_after: r.u64("replicated")?,
            });
        }
        let timing = if flags & FLAG_TIMING != 0 {
            let n = r.u32("timing count")? as usize;
            let cap = r.capacity(n, 16);
            let mut timing = TraceTiming {
                dispatched: Vec::with_capacity(cap),
                completed: Vec::with_capacity(cap),
            };
            for _ in 0..n {
                timing.dispatched.push(r.f64("dispatch time")?);
                timing.completed.push(r.f64("completion time")?);
            }
            Some(timing)
        } else {
            None
        };
        let recovery = if flags & FLAG_RECOVERY != 0 {
            let n = r.u32("recovery count")? as usize;
            let mut events = Vec::with_capacity(r.capacity(n, 17));
            for _ in 0..n {
                events.push(TraceRecovery {
                    time: r.f64("recovery time")?,
                    node: r.u32("recovery node")?,
                    task: r.u32("recovery task")?,
                    kind: r.take(1, "recovery kind")?[0],
                });
            }
            Some(events)
        } else {
            None
        };
        if r.pos != bytes.len() {
            return Err(TraceError(format!(
                "{} trailing bytes after the last section",
                bytes.len() - r.pos
            )));
        }
        Ok(Trace {
            spec_text,
            makespan,
            epochs,
            timing,
            recovery,
        })
    }

    /// Bitwise comparison (floats by bit pattern): `None` if the
    /// traces are identical, otherwise the first divergence.
    pub fn divergence_from(&self, other: &Trace) -> Option<Divergence> {
        if self.spec_text != other.spec_text {
            return Some(Divergence::Spec);
        }
        let mut index = 0usize;
        let (mut a_it, mut b_it) = (self.decisions(), other.decisions());
        loop {
            match (a_it.next(), b_it.next()) {
                (None, None) => break,
                (a, b) => {
                    let same = match (a, b) {
                        (Some(a), Some(b)) => {
                            a.task == b.task
                                && a.replicate == b.replicate
                                && a.lambda.to_bits() == b.lambda.to_bits()
                        }
                        _ => false,
                    };
                    if !same {
                        return Some(Divergence::Decision {
                            index,
                            a: a.copied(),
                            b: b.copied(),
                        });
                    }
                }
            }
            index += 1;
        }
        for (i, (ea, eb)) in self.epochs.iter().zip(&other.epochs).enumerate() {
            if ea.fit_after.to_bits() != eb.fit_after.to_bits()
                || ea.decided_after != eb.decided_after
                || ea.replicated_after != eb.replicated_after
            {
                return Some(Divergence::EpochState { index: i });
            }
        }
        if self.epochs.len() != other.epochs.len() {
            return Some(Divergence::EpochState {
                index: self.epochs.len().min(other.epochs.len()),
            });
        }
        // Recovery before timing: when two crash-bearing runs split,
        // the first differing recovery *action* is the root cause and
        // the timing drift is its fallout.
        match (&self.recovery, &other.recovery) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                let mut i = 0usize;
                let (mut a_it, mut b_it) = (a.iter(), b.iter());
                loop {
                    match (a_it.next(), b_it.next()) {
                        (None, None) => break,
                        (x, y) => {
                            let same = match (x, y) {
                                (Some(x), Some(y)) => {
                                    x.time.to_bits() == y.time.to_bits()
                                        && x.node == y.node
                                        && x.task == y.task
                                        && x.kind == y.kind
                                }
                                _ => false,
                            };
                            if !same {
                                return Some(Divergence::Recovery {
                                    index: i,
                                    a: x.copied(),
                                    b: y.copied(),
                                });
                            }
                        }
                    }
                    i += 1;
                }
            }
            _ => return Some(Divergence::RecoveryPresence),
        }
        match (&self.timing, &other.timing) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                if let (_, Some(task)) = compare_timing(a, b) {
                    return Some(Divergence::Timing { task });
                }
            }
            _ => return Some(Divergence::TimingPresence),
        }
        if self.makespan.to_bits() != other.makespan.to_bits() {
            return Some(Divergence::Makespan);
        }
        None
    }
}

/// Compares two timing blocks in one pass, returning how many task
/// timelines differ and the task where they first diverge **in
/// virtual time**: among all tasks whose `(dispatched, completed)`
/// pair differs bitwise (or that only one side recorded), the one
/// with the smallest dispatch time on either side — i.e. where the
/// executions actually started to drift, which is what localizes a
/// makespan regression. Ties break toward the lower task id.
fn compare_timing(a: &TraceTiming, b: &TraceTiming) -> (usize, Option<u32>) {
    let n = a.len().max(b.len());
    let mut differing = 0usize;
    let mut best: Option<(f64, u32)> = None;
    for i in 0..n {
        let differs = match (
            a.dispatched.get(i).zip(a.completed.get(i)),
            b.dispatched.get(i).zip(b.completed.get(i)),
        ) {
            (Some((ad, ac)), Some((bd, bc))) => {
                ad.to_bits() != bd.to_bits() || ac.to_bits() != bc.to_bits()
            }
            _ => true,
        };
        if !differs {
            continue;
        }
        differing += 1;
        let at = a.dispatched.get(i).copied().unwrap_or(f64::INFINITY);
        let bt = b.dispatched.get(i).copied().unwrap_or(f64::INFINITY);
        let t = at.min(bt);
        if best.is_none_or(|(bt, _)| t < bt) {
            best = Some((t, i as u32));
        }
    }
    (differing, best.map(|(_, task)| task))
}

/// The timing half of a [`TraceDiff`], present when both traces carry
/// per-task timing (Trace v2): how many task timelines differ, and
/// where the divergence *starts* in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingDiff {
    /// Recorded task counts on each side.
    pub tasks: (usize, usize),
    /// Tasks whose `(dispatched, completed)` pair differs bitwise.
    pub differing: usize,
    /// The earliest diverging task in virtual time — the localization
    /// a makespan regression wants. `None` when timing is identical.
    pub first_diverging_task: Option<u32>,
    /// That task's dispatch times on each side (`NaN` when absent).
    pub first_dispatched: (f64, f64),
}

/// A structured comparison of two traces (the `trace diff` report).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Do the embedded specs match?
    pub same_spec: bool,
    /// Decision counts on each side.
    pub decisions: (usize, usize),
    /// Replicate-decision counts on each side.
    pub replicated: (usize, usize),
    /// Decisions that differ position-wise (over the common prefix,
    /// plus the length difference).
    pub differing_decisions: usize,
    /// First divergence, if any.
    pub first: Option<Divergence>,
    /// Final unprotected FIT on each side.
    pub final_fit: (f64, f64),
    /// Makespans on each side.
    pub makespan: (f64, f64),
    /// Per-task timing comparison when both traces recorded it.
    pub timing: Option<TimingDiff>,
    /// Recovery-stream event counts on each side, when both traces
    /// recorded the stream (Trace v3).
    pub recovery_events: Option<(usize, usize)>,
}

impl TraceDiff {
    /// `true` if the traces are bitwise identical.
    pub fn identical(&self) -> bool {
        self.first.is_none()
    }
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace diff")?;
        writeln!(
            f,
            "  specs:       {}",
            if self.same_spec {
                "identical"
            } else {
                "DIFFER"
            }
        )?;
        writeln!(
            f,
            "  decisions:   {} vs {} ({} differ)",
            self.decisions.0, self.decisions.1, self.differing_decisions
        )?;
        writeln!(
            f,
            "  replicated:  {} vs {}",
            self.replicated.0, self.replicated.1
        )?;
        writeln!(
            f,
            "  final FIT:   {} vs {}",
            self.final_fit.0, self.final_fit.1
        )?;
        writeln!(
            f,
            "  makespan[s]: {} vs {}",
            self.makespan.0, self.makespan.1
        )?;
        if let Some((ra, rb)) = self.recovery_events {
            writeln!(f, "  recovery:    {ra} vs {rb} events recorded")?;
        }
        if let Some(t) = &self.timing {
            writeln!(
                f,
                "  timing:      {} vs {} tasks recorded, {} timelines differ",
                t.tasks.0, t.tasks.1, t.differing
            )?;
            if let Some(task) = t.first_diverging_task {
                writeln!(
                    f,
                    "  regression:  starts at task {task} (dispatched {} vs {})",
                    t.first_dispatched.0, t.first_dispatched.1
                )?;
            }
        }
        match &self.first {
            None => writeln!(f, "  verdict:     bitwise identical")?,
            Some(d) => writeln!(f, "  verdict:     DIVERGED — {d}")?,
        }
        Ok(())
    }
}

/// Compares two traces decision by decision.
pub fn diff(a: &Trace, b: &Trace) -> TraceDiff {
    let differing = {
        let mut n = 0usize;
        let (mut a_it, mut b_it) = (a.decisions(), b.decisions());
        loop {
            match (a_it.next(), b_it.next()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    if x.task != y.task
                        || x.replicate != y.replicate
                        || x.lambda.to_bits() != y.lambda.to_bits()
                    {
                        n += 1;
                    }
                }
                _ => n += 1,
            }
        }
        n
    };
    let timing = match (&a.timing, &b.timing) {
        (Some(ta), Some(tb)) => {
            let (count, first) = compare_timing(ta, tb);
            Some(TimingDiff {
                tasks: (ta.len(), tb.len()),
                differing: count,
                first_diverging_task: first,
                first_dispatched: first.map_or((f64::NAN, f64::NAN), |task| {
                    (
                        ta.dispatched
                            .get(task as usize)
                            .copied()
                            .unwrap_or(f64::NAN),
                        tb.dispatched
                            .get(task as usize)
                            .copied()
                            .unwrap_or(f64::NAN),
                    )
                }),
            })
        }
        _ => None,
    };
    TraceDiff {
        same_spec: a.spec_text == b.spec_text,
        decisions: (a.decision_count(), b.decision_count()),
        replicated: (a.replicated_count(), b.replicated_count()),
        differing_decisions: differing,
        first: a.divergence_from(b),
        final_fit: (a.final_fit(), b.final_fit()),
        makespan: (a.makespan, b.makespan),
        timing,
        recovery_events: match (&a.recovery, &b.recovery) {
            (Some(ra), Some(rb)) => Some((ra.len(), rb.len())),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            spec_text: "scenario = t\n".into(),
            makespan: 12.5,
            epochs: vec![
                TraceEpoch {
                    decisions: vec![
                        TraceDecision {
                            task: 0,
                            replicate: true,
                            lambda: 0.25,
                        },
                        TraceDecision {
                            task: 1,
                            replicate: false,
                            lambda: 0.5,
                        },
                    ],
                    fit_after: 0.5,
                    decided_after: 2,
                    replicated_after: 1,
                },
                TraceEpoch {
                    decisions: vec![TraceDecision {
                        task: 2,
                        replicate: false,
                        lambda: 0.125,
                    }],
                    fit_after: 0.625,
                    decided_after: 3,
                    replicated_after: 1,
                },
            ],
            timing: None,
            recovery: None,
        }
    }

    fn sample_timed() -> Trace {
        let mut t = sample();
        t.timing = Some(TraceTiming {
            dispatched: vec![0.0, 1.0, 2.5],
            completed: vec![1.0, 2.5, 4.0],
        });
        t
    }

    fn sample_recovered() -> Trace {
        let mut t = sample_timed();
        t.recovery = Some(vec![
            TraceRecovery {
                time: 1.5,
                node: 1,
                task: u32::MAX,
                kind: 1, // crash
            },
            TraceRecovery {
                time: 1.5,
                node: 1,
                task: 2,
                kind: 3, // restart
            },
            TraceRecovery {
                time: 6.5,
                node: 1,
                task: u32::MAX,
                kind: 0, // repair
            },
        ]);
        t
    }

    #[test]
    fn bytes_round_trip() {
        let t = sample();
        let back = Trace::from_bytes(&t.to_bytes()).expect("decodes");
        assert_eq!(t, back);
        assert!(t.divergence_from(&back).is_none());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [3, 10, bytes.len() - 1] {
            assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Trace::from_bytes(&extra).is_err());
    }

    /// A 28-byte file whose header claims 2³² − 1 decisions: decoding
    /// fails on the missing payload, and the capacity every section
    /// reserves from a wire count is bounded by the bytes left — zero
    /// here — not by the count.
    #[test]
    fn forged_count_over_empty_payload_reserves_nothing() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes()); // flags
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty spec
        bytes.extend_from_slice(&0f64.to_bits().to_le_bytes()); // makespan
        bytes.extend_from_slice(&1u32.to_le_bytes()); // one epoch
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // its decisions
        let err = Trace::from_bytes(&bytes).expect_err("payload is missing");
        assert!(err.0.contains("truncated"), "{}", err.0);
        let at_payload = Reader {
            bytes: &bytes,
            pos: bytes.len(),
        };
        assert_eq!(at_payload.capacity(u32::MAX as usize, 13), 0);
        // With bytes left, the bound is what they could encode.
        let at_start = Reader {
            bytes: &bytes,
            pos: 0,
        };
        for encoded in [13, 16, 17, 28] {
            let cap = at_start.capacity(u32::MAX as usize, encoded);
            assert!(cap * encoded <= bytes.len(), "{cap} × {encoded}");
            assert_eq!(at_start.capacity(1, encoded), 1);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(Trace::from_bytes(&bytes).is_err());
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = sample();
        let mut b = sample();
        b.epochs[1].decisions[0].replicate = true;
        let d = diff(&a, &b);
        assert!(!d.identical());
        assert_eq!(d.differing_decisions, 1);
        match d.first {
            Some(Divergence::Decision { index: 2, .. }) => {}
            other => panic!("wrong divergence: {other:?}"),
        }
        // Identical traces diff clean.
        assert!(diff(&a, &sample()).identical());
    }

    #[test]
    fn counters_and_fit() {
        let t = sample();
        assert_eq!(t.decision_count(), 3);
        assert_eq!(t.replicated_count(), 1);
        assert_eq!(t.final_fit(), 0.625);
    }

    #[test]
    fn timed_traces_round_trip() {
        let t = sample_timed();
        let back = Trace::from_bytes(&t.to_bytes()).expect("decodes");
        assert_eq!(t, back);
        assert!(t.divergence_from(&back).is_none());
        // Truncating inside the timing block is detected.
        let bytes = t.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn version_1_traces_still_decode() {
        // A v1 trace is the current layout with version 1, zero flags
        // and no optional sections.
        let mut bytes = sample().to_bytes();
        bytes[4] = 1; // version low byte
        let back = Trace::from_bytes(&bytes).expect("v1 decodes");
        assert_eq!(back, sample());
        // …but a v1 trace claiming flags is malformed.
        let mut flagged = bytes.clone();
        flagged[6] = 1;
        assert!(Trace::from_bytes(&flagged).is_err());
    }

    #[test]
    fn version_2_traces_still_decode() {
        // A v2 trace: version 2, timing flag, no recovery section.
        let mut bytes = sample_timed().to_bytes();
        bytes[4] = 2;
        let back = Trace::from_bytes(&bytes).expect("v2 decodes");
        assert_eq!(back, sample_timed());
        // …but a v2 trace claiming the recovery flag is malformed.
        let mut flagged = bytes.clone();
        flagged[6] |= 2;
        assert!(Trace::from_bytes(&flagged).is_err());
    }

    #[test]
    fn recovered_traces_round_trip() {
        let t = sample_recovered();
        let back = Trace::from_bytes(&t.to_bytes()).expect("decodes");
        assert_eq!(t, back);
        assert!(t.divergence_from(&back).is_none());
        // Truncating inside the recovery block is detected.
        let bytes = t.to_bytes();
        assert!(Trace::from_bytes(&bytes[..bytes.len() - 5]).is_err());
    }

    #[test]
    fn recovery_divergence_is_reported_before_timing_fallout() {
        let a = sample_recovered();
        let mut b = sample_recovered();
        // A crash at a different node *and* the timing drift it would
        // cause: the diff must point at the recovery action, not the
        // downstream timeline.
        b.recovery.as_mut().unwrap()[0].node = 2;
        b.timing.as_mut().unwrap().completed[1] = 99.0;
        match a.divergence_from(&b) {
            Some(Divergence::Recovery {
                index: 0,
                a: Some(x),
                b: Some(y),
            }) => {
                assert_eq!(x.node, 1);
                assert_eq!(y.node, 2);
            }
            other => panic!("expected recovery divergence, got {other:?}"),
        }
        // An extra trailing event is an early-ending stream.
        let mut c = sample_recovered();
        c.recovery.as_mut().unwrap().push(TraceRecovery {
            time: 7.0,
            node: 0,
            task: u32::MAX,
            kind: 2,
        });
        match a.divergence_from(&c) {
            Some(Divergence::Recovery {
                index: 3,
                a: None,
                b: Some(_),
            }) => {}
            other => panic!("expected stream-length divergence, got {other:?}"),
        }
        let d = diff(&a, &c);
        assert_eq!(d.recovery_events, Some((3, 4)));
    }

    #[test]
    fn recovery_presence_mismatch_diverges() {
        let with = sample_recovered();
        let without = sample_timed();
        assert_eq!(
            with.divergence_from(&without),
            Some(Divergence::RecoveryPresence)
        );
        assert!(diff(&with, &without).recovery_events.is_none());
    }

    #[test]
    fn timing_presence_mismatch_diverges() {
        let plain = sample();
        let timed = sample_timed();
        assert_eq!(
            plain.divergence_from(&timed),
            Some(Divergence::TimingPresence)
        );
        let d = diff(&plain, &timed);
        assert!(d.timing.is_none(), "no timing half without both sides");
    }

    #[test]
    fn timing_divergence_localizes_earliest_in_virtual_time() {
        let a = sample_timed();
        let mut b = sample_timed();
        // Perturb task 2 (dispatched 2.5) *and* task 1 (dispatched
        // 1.0): the divergence must point at task 1 — the earliest in
        // virtual time — not the lowest-id differing entry order.
        {
            let t = b.timing.as_mut().unwrap();
            t.completed[2] = 9.0;
            t.completed[1] = 3.0;
        }
        assert_eq!(a.divergence_from(&b), Some(Divergence::Timing { task: 1 }));
        let d = diff(&a, &b);
        let timing = d.timing.expect("both sides timed");
        assert_eq!(timing.differing, 2);
        assert_eq!(timing.first_diverging_task, Some(1));
        assert_eq!(timing.first_dispatched, (1.0, 1.0));
        // Identical timing reports no divergence.
        assert!(diff(&a, &sample_timed())
            .timing
            .unwrap()
            .first_diverging_task
            .is_none());
    }
}
