//! Streamed construction of simulation graphs.
//!
//! [`SimGraph::from_task_graph`] needs a fully materialized
//! [`dataflow_rt::TaskGraph`] — per-task access vectors, kernel
//! closures, predecessor/successor lists — which tops out around a few
//! hundred thousand tasks before graph construction dominates the
//! experiment. This module builds the same [`SimGraph`] **directly from
//! a stream of task descriptions** ([`TaskStream`]): one task at a
//! time, region accesses in, placed-and-costed [`SimTask`]s out, with
//! no intermediate graph and no per-task `String` labels (labels are
//! interned symbols). The nine Table-I benchmarks implement
//! [`TaskStream`] in the `workloads` crate and reach the million-task
//! regime this way.
//!
//! # Fidelity contract
//!
//! [`SimGraph::from_stream`] is **bit-identical** to building the same
//! access sequence through [`dataflow_rt::TaskGraph::submit`] and
//! extracting it with [`SimGraph::from_task_graph`]:
//!
//! * dependency edges are inferred with the same chunk-indexed
//!   conflict rules as `dataflow_rt`'s `DepTracker` (RAW/WAR/WAW on
//!   overlapping regions, covered-chunk pruning, per-access
//!   deduplication, sorted predecessor lists);
//! * transfer *sources* use the same latest-overlapping-writer
//!   attribution as [`SimGraph::from_task_graph`];
//! * failure rates fold per-access byte sizes in declaration order, so
//!   even the non-associative float sums agree bitwise.
//!
//! The contract is property-tested in `tests/stream_prop.rs` against
//! randomized access sequences, and per benchmark in the `workloads`
//! crate at small scales.
//!
//! What the streamed path trades away: `taskwait` barriers are not
//! supported (no Table-I benchmark uses them), and read records on
//! never-written buffers accumulate for the lifetime of the build (the
//! same holds for `DepTracker`; memory stays proportional to the
//! access count, not the buffer sizes).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dataflow_rt::deps::covers_chunk;
use dataflow_rt::{Access, AccessMode, Region};
use fit_model::RateModel;

use crate::graph::{reserve_projected, GraphBuilder, SimGraph, SimTask};

/// One streamed task description, filled in by
/// [`TaskStream::next_task`]. The buffer is reused across tasks so a
/// million-task stream performs no per-task allocations beyond the
/// [`SimTask`] itself.
#[derive(Debug, Default)]
pub struct StreamTask {
    /// Task-kind label (e.g. `"gemm"`).
    pub label: &'static str,
    /// Declared region accesses, in declaration order (the same order
    /// the in-memory builder would pass to
    /// [`dataflow_rt::TaskSpec::reads`]/`writes`/`updates`).
    pub accesses: Vec<Access>,
    /// Analytic flop count.
    pub flops: f64,
    /// Owner node (owner-computes placement).
    pub node: u32,
}

impl StreamTask {
    /// Resets the description for the next task (keeps allocations).
    pub fn reset(&mut self, label: &'static str, node: u32, flops: f64) {
        self.label = label;
        self.accesses.clear();
        self.flops = flops;
        self.node = node;
    }

    /// Declares an `in` region.
    pub fn reads(&mut self, region: Region) -> &mut Self {
        self.accesses.push(Access::new(region, AccessMode::In));
        self
    }

    /// Declares an `out` region.
    pub fn writes(&mut self, region: Region) -> &mut Self {
        self.accesses.push(Access::new(region, AccessMode::Out));
        self
    }

    /// Declares an `inout` region.
    pub fn updates(&mut self, region: Region) -> &mut Self {
        self.accesses.push(Access::new(region, AccessMode::InOut));
        self
    }
}

/// A lazily generated sequence of task descriptions — the streamed
/// counterpart of submitting [`dataflow_rt::TaskSpec`]s to a
/// [`dataflow_rt::TaskGraph`].
///
/// Implementations must yield tasks in submission order (dependencies
/// can only point backwards) and must know their exact length up
/// front, so [`SimGraph::from_stream`] can size its vectors once.
pub trait TaskStream {
    /// Exact number of tasks the stream yields.
    fn len(&self) -> usize;

    /// `true` if the stream yields no tasks.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dependency-index granularity in elements — must match the
    /// `chunk_size` the in-memory builder passes to
    /// [`dataflow_rt::TaskGraph::with_chunk_size`] for the identity
    /// contract to hold.
    fn chunk_size(&self) -> usize;

    /// Fills `out` with the next task; returns `false` when the stream
    /// is exhausted (and leaves `out` unspecified).
    fn next_task(&mut self, out: &mut StreamTask) -> bool;
}

/// One recorded access of the streaming dependency tracker. The
/// deduplication stamp sits next to the fields a visit reads, so
/// testing a record touches one cache line.
struct AccessRec {
    region: Region,
    mode: AccessMode,
    task: u32,
    /// Arena index of the last access whose scan visited this record
    /// (initially the record's own index, which no later scan uses).
    seen_by: u32,
}

/// Hasher of the chunk index's `(buffer, chunk)` keys: one rotate, xor
/// and multiply per key word. The keys come from the program's own
/// streams (nothing to defend against) and the map is only ever
/// probed, never iterated, so the hasher cannot leak into the graph.
#[derive(Default, Clone, Copy)]
struct ChunkHasher(u64);

impl ChunkHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for ChunkHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.mix(u64::from(b)));
    }
    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }
    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the entropy in the high bits; the table
        // takes its bucket from the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// The streaming reimplementation of `dataflow_rt`'s `DepTracker`,
/// engineered for million-task streams: access records live once in an
/// arena (chunk lists hold indexes, so multi-chunk records are not
/// duplicated), per-access deduplication uses an `O(1)` stamp inside
/// the record instead of a linear `seen` list, each chunk is probed
/// once per access (scan, prune and insert under the same entry), and
/// each chunk keeps writer and reader records apart so a read access
/// never walks the (potentially long, e.g. a never-written input
/// matrix's) reader history it cannot conflict with. Conflict and
/// pruning semantics are identical — only read–read pairs commute, so
/// skipping reader records for `In` accesses drops no edge; preds are
/// sorted and deduplicated, so the changed scan order is unobservable.
/// See the module docs and `tests/stream_prop.rs`.
struct StreamTracker {
    chunk_size: usize,
    /// Tasks the stream promised, for sizing `arena`.
    tasks: usize,
    /// All recorded accesses, in registration order.
    arena: Vec<AccessRec>,
    /// Chunk index: `(buffer, chunk) → arena indexes`, insertion order
    /// within each class.
    chunks: HashMap<(u32, usize), ChunkRecs, BuildHasherDefault<ChunkHasher>>,
}

/// One chunk's recorded accesses, writers and readers apart.
#[derive(Default)]
struct ChunkRecs {
    writers: Vec<u32>,
    readers: Vec<u32>,
}

impl StreamTracker {
    /// A tracker for a stream of `tasks` tasks (at least one access
    /// record each).
    fn new(chunk_size: usize, tasks: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        StreamTracker {
            chunk_size,
            tasks,
            arena: Vec::with_capacity(tasks),
            chunks: HashMap::default(),
        }
    }

    /// Registers `task`'s accesses and appends its data-dependency
    /// predecessors to `preds` (sorted, deduplicated) — the exact
    /// semantics of `DepTracker::record`. Tasks arrive in id order
    /// from 0, so `task + 1` of the promised tasks have been seen.
    fn record(&mut self, task: u32, accesses: &[Access], preds: &mut Vec<u32>) {
        preds.clear();
        reserve_projected(
            &mut self.arena,
            accesses.len(),
            task as usize + 1,
            self.tasks,
        );
        for access in accesses {
            self.record_one(task, access, preds);
        }
        preds.sort_unstable();
        preds.dedup();
    }

    /// One pass over the access's chunks, one index probe each: collect
    /// the chunk's conflicting predecessors (each record tested once
    /// per access, however many chunks it spans; a pure read can only
    /// conflict with writers, a write conflicts with both), then prune
    /// the chunk if the access fully overwrites it (tasks ordered
    /// before a covering writer are reachable through it transitively)
    /// and insert the new record.
    ///
    /// Doing both per chunk yields the same edges as `DepTracker`'s
    /// scan-everything-then-insert: pruning chunk `c` only edits `c`'s
    /// lists, which the scan has already left; a record that also sits
    /// in a later chunk was stamped at `c` and is skipped there either
    /// way; and the new record is never met, as each chunk is scanned
    /// before the record enters it.
    fn record_one(&mut self, task: u32, access: &Access, preds: &mut Vec<u32>) {
        let idx = u32::try_from(self.arena.len()).expect("stream exceeds u32 access records");
        let buf = access.region.buf.index() as u32;
        let writes = access.mode.writes();
        let (arena, chunks, chunk_size) = (&mut self.arena, &mut self.chunks, self.chunk_size);
        for_each_chunk(&access.region, chunk_size, |c| {
            let lists = chunks.entry((buf, c)).or_default();
            let mut scan = |list: &[u32]| {
                for &i in list {
                    let rec = &mut arena[i as usize];
                    if rec.task == task || rec.seen_by == idx {
                        continue;
                    }
                    rec.seen_by = idx;
                    if rec.mode.conflicts_with(access.mode) && rec.region.overlaps(&access.region) {
                        preds.push(rec.task);
                    }
                }
            };
            scan(&lists.writers);
            if writes {
                scan(&lists.readers);
                if covers_chunk(&access.region, c, chunk_size) {
                    lists.writers.clear();
                    lists.readers.clear();
                }
                lists.writers.push(idx);
            } else {
                lists.readers.push(idx);
            }
        });
        self.arena.push(AccessRec {
            region: access.region,
            mode: access.mode,
            task,
            seen_by: idx,
        });
    }
}

/// Visits the chunk indices touched by `region`, ascending and
/// deduplicated — the allocation-free equivalent of
/// [`Region::chunk_ids`].
fn for_each_chunk(region: &Region, chunk: usize, mut f: impl FnMut(usize)) {
    let mut prev: Option<usize> = None;
    for k in 0..region.blocks {
        let (s, e) = region.block_range(k);
        let first = s / chunk;
        let last = (e - 1) / chunk;
        for c in first..=last {
            // Chunk ids are non-decreasing across ascending blocks;
            // consecutive blocks may share one across the boundary.
            if prev != Some(c) {
                prev = Some(c);
                f(c);
            }
        }
    }
}

impl SimGraph {
    /// Builds a placed, costed simulation graph from a task stream —
    /// the scalable sibling of [`SimGraph::from_task_graph`], with the
    /// bit-identity contract documented in [the module docs](self).
    ///
    /// * `stream` — the task descriptions, in submission order;
    /// * `rates` — the failure-rate model (as in
    ///   [`SimGraph::from_task_graph`]).
    ///
    /// # Panics
    ///
    /// Panics if the stream yields a different number of tasks than
    /// [`TaskStream::len`] promised.
    pub fn from_stream<S: TaskStream + ?Sized>(stream: &mut S, rates: &RateModel) -> SimGraph {
        let n = stream.len();
        let mut tracker = StreamTracker::new(stream.chunk_size(), n);
        let mut b = GraphBuilder::with_capacity(n);
        // Flat side table of every task's *write* regions, for
        // latest-overlapping-writer source attribution.
        let mut write_regions: Vec<Region> = Vec::with_capacity(n);
        let mut write_starts: Vec<u32> = Vec::with_capacity(n + 1);
        write_starts.push(0);

        let mut spec = StreamTask::default();
        let mut preds: Vec<u32> = Vec::new();
        let mut sources: Vec<(u32, u64)> = Vec::new();
        let mut count = 0usize;
        while stream.next_task(&mut spec) {
            let id = count as u32;
            assert!(
                count < n,
                "stream yielded more than the {n} tasks its len() promised"
            );
            count += 1;
            tracker.record(id, &spec.accesses, &mut preds);

            // Input sources: per read access, the latest predecessor
            // with an overlapping write — the exact attribution of
            // `from_task_graph`.
            sources.clear();
            for access in spec.accesses.iter().filter(|a| a.mode.reads()) {
                let producer = preds.iter().rev().copied().find(|&p| {
                    let (ws, we) = (write_starts[p as usize], write_starts[p as usize + 1]);
                    write_regions[ws as usize..we as usize]
                        .iter()
                        .any(|w| w.overlaps(&access.region))
                });
                if let Some(p) = producer {
                    let bytes = access.bytes();
                    match sources.iter_mut().find(|(s, _)| *s == p) {
                        Some(entry) => entry.1 += bytes,
                        None => sources.push((p, bytes)),
                    }
                }
            }

            let writes = spec.accesses.iter().filter(|a| a.mode.writes());
            reserve_projected(&mut write_regions, writes.clone().count(), count, n);
            write_regions.extend(writes.map(|a| a.region));
            write_starts.push(write_regions.len() as u32);

            b.reserve_rows(preds.len(), sources.len(), n);
            let label = b.intern(spec.label);
            b.push(
                SimTask {
                    id,
                    label,
                    flops: spec.flops,
                    bytes_in: spec
                        .accesses
                        .iter()
                        .filter(|a| a.mode.reads())
                        .map(Access::bytes)
                        .sum(),
                    bytes_out: spec
                        .accesses
                        .iter()
                        .filter(|a| a.mode.writes())
                        .map(Access::bytes)
                        .sum(),
                    argument_bytes: spec.accesses.iter().map(Access::bytes).sum(),
                    rates: rates.rates_for_arguments(spec.accesses.iter().map(Access::bytes)),
                    node: spec.node,
                    is_barrier: false,
                },
                &preds,
                &sources,
            );
        }
        assert_eq!(
            count, n,
            "stream yielded fewer tasks than its len() promised"
        );
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_rt::{BufferId, TaskGraph, TaskSpec};

    /// A stream of `k` independent writers over one buffer.
    struct Writers {
        next: usize,
        k: usize,
    }

    impl TaskStream for Writers {
        fn len(&self) -> usize {
            self.k
        }
        fn chunk_size(&self) -> usize {
            8
        }
        fn next_task(&mut self, out: &mut StreamTask) -> bool {
            if self.next >= self.k {
                return false;
            }
            out.reset("w", 0, 1.0);
            out.writes(Region::contiguous(BufferId::from_raw(0), self.next * 8, 8));
            self.next += 1;
            true
        }
    }

    #[test]
    fn independent_writers_have_no_edges() {
        let g = SimGraph::from_stream(&mut Writers { next: 0, k: 5 }, &RateModel::roadrunner());
        assert_eq!(g.len(), 5);
        assert!((0..5).all(|id| g.preds(id).is_empty()));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.label_name(g.tasks()[0].label), "w");
        assert_eq!(g.tasks()[3].bytes_out, 64);
    }

    /// A chain through one cell: writer then readers then a writer.
    struct Chain {
        next: usize,
    }

    impl TaskStream for Chain {
        fn len(&self) -> usize {
            4
        }
        fn chunk_size(&self) -> usize {
            16
        }
        fn next_task(&mut self, out: &mut StreamTask) -> bool {
            let buf = BufferId::from_raw(0);
            match self.next {
                0 => {
                    out.reset("w", 0, 1.0);
                    out.writes(Region::contiguous(buf, 0, 16));
                }
                1 | 2 => {
                    out.reset("r", 1, 1.0);
                    out.reads(Region::contiguous(buf, 0, 16));
                }
                3 => {
                    out.reset("w2", 0, 1.0);
                    out.writes(Region::contiguous(buf, 0, 16));
                }
                _ => return false,
            }
            self.next += 1;
            true
        }
    }

    #[test]
    fn chain_edges_and_sources() {
        let g = SimGraph::from_stream(&mut Chain { next: 0 }, &RateModel::roadrunner());
        // Readers depend on the writer and bill their bytes to it.
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.sources(1).collect::<Vec<_>>(), vec![(0, 128)]);
        // The second writer conflicts with writer and both readers.
        assert_eq!(g.preds(3), &[0, 1, 2]);
        assert_eq!(g.sources(3).count(), 0);
        // Successors mirror predecessors.
        assert_eq!(g.succs(0), &[1, 2, 3]);
    }

    /// A stream of explicitly listed access sets over buffer 0, with
    /// chunk size 8.
    struct Listed {
        tasks: Vec<Vec<Access>>,
        next: usize,
    }

    impl TaskStream for Listed {
        fn len(&self) -> usize {
            self.tasks.len()
        }
        fn chunk_size(&self) -> usize {
            8
        }
        fn next_task(&mut self, out: &mut StreamTask) -> bool {
            let Some(accesses) = self.tasks.get(self.next) else {
                return false;
            };
            self.next += 1;
            out.reset("t", 0, 1.0);
            out.accesses.extend_from_slice(accesses);
            true
        }
    }

    fn span(offset: usize, len: usize) -> Region {
        Region::contiguous(BufferId::from_raw(0), offset, len)
    }

    /// Builds `tasks` through the stream and through
    /// `TaskGraph::submit` + `from_task_graph`, asserts the two graphs
    /// equal, and returns the streamed one.
    fn built_both_ways(tasks: Vec<Vec<Access>>) -> SimGraph {
        let mut reference = TaskGraph::with_chunk_size(8);
        for accesses in &tasks {
            let spec = accesses
                .iter()
                .fold(TaskSpec::new("t").flops(1.0), |spec, a| match a.mode {
                    AccessMode::In => spec.reads(a.region),
                    AccessMode::Out => spec.writes(a.region),
                    AccessMode::InOut => spec.updates(a.region),
                });
            reference.submit(spec);
        }
        let rates = RateModel::roadrunner();
        let reference = SimGraph::from_task_graph(&reference, &rates, |_| 0);
        let streamed = SimGraph::from_stream(&mut Listed { tasks, next: 0 }, &rates);
        assert_eq!(reference, streamed);
        streamed
    }

    #[test]
    fn pruning_one_chunk_keeps_a_spanning_record_in_the_next() {
        let g = built_both_ways(vec![
            // Spans chunks 0 and 1.
            vec![Access::new(span(0, 16), AccessMode::Out)],
            // Covers, and so prunes, chunk 0 only.
            vec![Access::new(span(0, 8), AccessMode::Out)],
            // Chunk 1 must still hold the first record.
            vec![Access::new(span(8, 8), AccessMode::In)],
        ]);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[0]);
    }

    #[test]
    fn read_then_update_of_one_region_has_no_self_edge() {
        let g = built_both_ways(vec![
            vec![Access::new(span(0, 8), AccessMode::Out)],
            // The update's scan meets this task's own read record.
            vec![
                Access::new(span(0, 8), AccessMode::In),
                Access::new(span(0, 8), AccessMode::InOut),
            ],
            vec![Access::new(span(0, 8), AccessMode::In)],
        ]);
        assert_eq!(g.preds(1), &[0]);
        assert_eq!(g.preds(2), &[1]);
    }

    #[test]
    fn strided_write_prunes_only_the_chunks_it_covers() {
        // Blocks [0, 12) and [16, 28): chunk 0 is covered, chunk 1 is
        // written only in [8, 12).
        let strided = Region::strided(BufferId::from_raw(0), 0, 12, 16, 2);
        let g = built_both_ways(vec![
            vec![Access::new(span(0, 8), AccessMode::Out)],
            vec![Access::new(span(8, 8), AccessMode::Out)],
            vec![Access::new(strided, AccessMode::Out)],
            vec![Access::new(span(0, 8), AccessMode::In)],
            vec![Access::new(span(12, 4), AccessMode::In)],
        ]);
        assert_eq!(g.preds(2), &[0, 1]);
        // Chunk 0 was pruned down to the strided writer …
        assert_eq!(g.preds(3), &[2]);
        // … chunk 1 was not: its first writer is still found there.
        assert_eq!(g.preds(4), &[1]);
    }

    #[test]
    #[should_panic(expected = "fewer tasks")]
    fn short_stream_panics() {
        struct Lying;
        impl TaskStream for Lying {
            fn len(&self) -> usize {
                3
            }
            fn chunk_size(&self) -> usize {
                8
            }
            fn next_task(&mut self, _out: &mut StreamTask) -> bool {
                false
            }
        }
        let _ = SimGraph::from_stream(&mut Lying, &RateModel::roadrunner());
    }
}
