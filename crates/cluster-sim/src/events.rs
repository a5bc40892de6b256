//! The packed event key for both engines, and batched storage for the
//! sharded engine's cross-node traffic.
//!
//! Heap entries are [`EventKey`]s: a `(Time, u64, u32)` tuple packed
//! into two ordered machine words, so a heap rebalance moves 16 bytes
//! and compares integers instead of moving 24 bytes and calling
//! `f64::total_cmp`. The sharded engine ([`crate::shard`]) keeps every
//! pending completion and control of a shard in one such heap; what
//! crosses nodes travels in struct-of-arrays [`EventBatch`]es (times
//! and task ids in separate vectors), sorted once per window, and waits
//! in a [`DeliveryCalendar`].

/// A simulation event packed into one `u128` whose integer order is
/// the engines' canonical event order.
///
/// Three event classes share the key space:
///
/// * **Completions** `(time, seq, task)`: the high 64 bits are the
///   timestamp mapped through [`time_to_bits`] (monotone in
///   `total_cmp` order); the low 64 bits are `seq << 32 | task`.
///   `seq` is unique within one heap (and kept below 2³¹ — see
///   [`EventKey::new`]), so the packed comparison breaks time ties by
///   insertion sequence exactly like the unpacked tuple did (the
///   trailing task id never decides).
/// * **Deliveries** `(time, task)` ([`EventKey::delivery`]): a delayed
///   cross-node activation arriving at the consumer `task`. The low 64
///   bits are `DELIVERY_BIT | task`, so at equal timestamps every
///   completion orders *before* every delivery, and simultaneous
///   deliveries order by consumer task id — both canonical properties
///   of the scenario, never of shard layout or insertion history
///   (the lookahead engine's cross-engine bit-identity relies on
///   this; see [`crate::shard`]).
/// * **Controls** `(time, kind, node)` ([`EventKey::control`]): the
///   recovery subsystem's machine-level events — crashes, preemptions,
///   repairs. The low 64 bits are
///   `DELIVERY_BIT | CONTROL_BIT | kind << 32 | node`, so at equal
///   timestamps controls order after both other classes, and among
///   themselves by `(kind, node)` — again a property of the scenario
///   alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey(u128);

/// Low-word class bit: set for delivery events. Completion sequence
/// numbers stay below 2³¹ so their `seq << 32` never reaches this bit.
const DELIVERY_BIT: u64 = 1 << 63;

/// Second low-word class bit: set (together with [`DELIVERY_BIT`]) for
/// node-control events. Delivery low words keep bits 32–62 clear (the
/// consumer task is a `u32`), so at equal timestamps every delivery
/// orders *before* every control.
const CONTROL_BIT: u64 = 1 << 62;

/// The kind of a node-control event — the recovery subsystem's
/// machine-level happenings, ordered so that at equal timestamps a
/// repair completes before a fresh crash strikes before a scheduled
/// preemption fires (a node repaired and re-crashed at the same instant
/// loses its fresh work, not its already-lost work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ControlKind {
    /// The node's unavailability window ends; it resumes dispatching.
    Repair = 0,
    /// A fail-stop crash drawn by the fault model strikes the node.
    Crash = 1,
    /// A scheduled preemption (availability-trace "off" edge) takes the
    /// node down.
    Preempt = 2,
}

impl ControlKind {
    /// Decodes the two-bit kind encoding used in control keys.
    #[inline]
    fn from_bits(bits: u64) -> Self {
        match bits {
            0 => ControlKind::Repair,
            1 => ControlKind::Crash,
            _ => ControlKind::Preempt,
        }
    }
}

impl EventKey {
    /// Packs a `(time, seq, task)` completion event. `seq` must stay
    /// below 2³¹ (one heap never holds that many insertions; the
    /// engines assert their task counts fit).
    #[inline]
    pub fn new(time: f64, seq: u32, task: u32) -> Self {
        debug_assert!(seq >> 31 == 0, "completion seq must stay below 2^31");
        EventKey(
            (u128::from(time_to_bits(time)) << 64) | (u128::from(seq) << 32) | u128::from(task),
        )
    }

    /// Packs a `(time, consumer task)` delayed-activation delivery
    /// event (the lookahead engine's cross-node arrivals).
    #[inline]
    pub fn delivery(time: f64, task: u32) -> Self {
        EventKey(
            (u128::from(time_to_bits(time)) << 64) | u128::from(DELIVERY_BIT | u64::from(task)),
        )
    }

    /// Packs a `(time, kind, node)` node-control event — a crash,
    /// preemption or repair striking machine `node`. At equal
    /// timestamps controls order after completions and deliveries, and
    /// among themselves by `(kind, node)`.
    #[inline]
    pub fn control(time: f64, kind: ControlKind, node: u32) -> Self {
        EventKey(
            (u128::from(time_to_bits(time)) << 64)
                | u128::from(DELIVERY_BIT | CONTROL_BIT | ((kind as u64) << 32) | u64::from(node)),
        )
    }

    /// `true` for delivery events, `false` for completions/controls.
    #[inline]
    pub fn is_delivery(self) -> bool {
        (self.0 as u64) & (DELIVERY_BIT | CONTROL_BIT) == DELIVERY_BIT
    }

    /// `true` for node-control events.
    #[inline]
    pub fn is_control(self) -> bool {
        (self.0 as u64) & (DELIVERY_BIT | CONTROL_BIT) == (DELIVERY_BIT | CONTROL_BIT)
    }

    /// The control kind of a control event (see [`EventKey::control`]).
    #[inline]
    pub fn control_kind(self) -> ControlKind {
        debug_assert!(self.is_control());
        ControlKind::from_bits(((self.0 as u64) >> 32) & 0x3fff_ffff)
    }

    /// The event's timestamp (bit-exact round trip of the `f64` given
    /// to [`EventKey::new`] / [`EventKey::delivery`]).
    #[inline]
    pub fn time(self) -> f64 {
        time_from_bits((self.0 >> 64) as u64)
    }

    /// The event's task id: the completing task for completions, the
    /// activated consumer for deliveries, the affected machine for
    /// controls.
    #[inline]
    pub fn task(self) -> u32 {
        self.0 as u32
    }

    /// The raw packed key — fed to the sharded engine's model-checking
    /// state hash.
    #[inline]
    pub(crate) fn raw_bits(self) -> u128 {
        self.0
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order: negative values flip all bits (reversing
/// their descending raw-bits order), non-negative values set the sign
/// bit (lifting them above every negative image). Bijective, so
/// [`time_from_bits`] recovers the exact input.
#[inline]
pub fn time_to_bits(t: f64) -> u64 {
    let b = t.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`time_to_bits`].
#[inline]
pub fn time_from_bits(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Reusable scratch for [`EventBatch::sort_canonical`]: the permutation
/// index plus the double buffers the permutation is applied through.
/// Owning one per shard (and one for the barrier merge) means window
/// opens allocate nothing once the buffers have grown to the
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct SortScratch {
    order: Vec<u32>,
    times: Vec<f64>,
    tasks: Vec<u32>,
}

/// A struct-of-arrays batch of `(time, task)` events.
///
/// The two hot fields live in parallel vectors so sweeps over times
/// (sorting, window filtering) don't drag task ids through the cache
/// and vice versa. The batch tracks its minimum buffered time (for the
/// lookahead engine's horizon computation) incrementally on `push`.
#[derive(Debug, Clone)]
pub struct EventBatch {
    times: Vec<f64>,
    tasks: Vec<u32>,
    min_time: f64,
}

impl Default for EventBatch {
    fn default() -> Self {
        EventBatch {
            times: Vec::new(),
            tasks: Vec::new(),
            min_time: f64::INFINITY,
        }
    }
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, time: f64, task: u32) {
        if time < self.min_time {
            self.min_time = time;
        }
        self.times.push(time);
        self.tasks.push(task);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The earliest buffered timestamp (`+∞` when empty).
    #[inline]
    pub fn min_time(&self) -> f64 {
        self.min_time
    }

    /// Removes all events.
    pub fn clear(&mut self) {
        self.times.clear();
        self.tasks.clear();
        self.min_time = f64::INFINITY;
    }

    /// Appends all of `other`'s events.
    pub fn extend_from(&mut self, other: &EventBatch) {
        if other.min_time < self.min_time {
            self.min_time = other.min_time;
        }
        self.times.extend_from_slice(&other.times);
        self.tasks.extend_from_slice(&other.tasks);
    }

    /// Sorts the batch by `(time, task id)` — the canonical order for
    /// cross-shard deliveries, which must not depend on which shard
    /// (hence which buffer position) a message came from. `scratch` is
    /// caller-owned and reused across calls.
    pub fn sort_canonical(&mut self, scratch: &mut SortScratch) {
        scratch.order.clear();
        scratch.order.extend(0..self.len() as u32);
        scratch.order.sort_by(|&a, &b| {
            self.times[a as usize]
                .total_cmp(&self.times[b as usize])
                .then(self.tasks[a as usize].cmp(&self.tasks[b as usize]))
        });
        self.apply_permutation(scratch);
    }

    /// Iterates `(time, task)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.times.iter().copied().zip(self.tasks.iter().copied())
    }

    /// The timestamp at storage index `i`.
    #[inline]
    pub(crate) fn time_at(&self, i: usize) -> f64 {
        self.times[i]
    }

    /// The task id at storage index `i`.
    #[inline]
    pub(crate) fn task_at(&self, i: usize) -> u32 {
        self.tasks[i]
    }

    /// Mixes the batch contents (in storage order) into the running
    /// fingerprint `h` — part of the sharded engine's model-checking
    /// state hash.
    pub(crate) fn fold_hash(&self, h: &mut u64) {
        use crate::sched::fnv_step;
        fnv_step(h, self.times.len() as u64);
        for (t, task) in self.iter() {
            fnv_step(h, t.to_bits());
            fnv_step(h, u64::from(task));
        }
    }

    /// Applies `scratch.order` by gathering into the scratch buffers,
    /// then swaps storage with them — the retired buffers become next
    /// call's scratch, so steady state allocates nothing.
    fn apply_permutation(&mut self, scratch: &mut SortScratch) {
        scratch.times.clear();
        scratch.tasks.clear();
        scratch
            .times
            .extend(scratch.order.iter().map(|&i| self.times[i as usize]));
        scratch
            .tasks
            .extend(scratch.order.iter().map(|&i| self.tasks[i as usize]));
        std::mem::swap(&mut self.times, &mut scratch.times);
        std::mem::swap(&mut self.tasks, &mut scratch.tasks);
    }
}

/// The lookahead engine's per-shard store of pending cross-node
/// deliveries: a list of canonically sorted **runs**, one per
/// `(producing window, producer shard)` batch handed over at a
/// barrier, each consumed front-to-back by a cursor.
///
/// The shape matches the delivery traffic: a producer shard coalesces
/// one window's activations for one consumer into a single batch,
/// sorts it `(effect time, consumer task)` in the parallel phase, and
/// the barrier hands the whole batch over in O(1) (a buffer swap —
/// no per-event inserts, no re-sort). [`DeliveryCalendar::take_before`]
/// then drains each run's strict prefix `time < horizon`; because the
/// runs are sorted, the split point is a binary search and the
/// calendar's [`DeliveryCalendar::min_time`] is the minimum over run
/// heads — no bucket map at all.
///
/// Buffers flow in a cycle: `push_batch` swaps the producer's batch
/// contents against a spare buffer (the producer gets an empty,
/// already-grown buffer back for its next window), and fully drained
/// runs return their buffers to the spare pool.
///
/// Run order is insertion order (the barrier's handoff order), which a
/// controlled scheduler may permute — so the drain is **not** ordered
/// across runs (the engine sorts the drained batch canonically once
/// per window) and the crate-internal `fold_hash` is order-insensitive
/// across pending events.
#[derive(Debug, Clone, Default)]
pub struct DeliveryCalendar {
    runs: Vec<DeliveryRun>,
    spare: Vec<EventBatch>,
    recycled: u64,
}

/// One handed-over delivery batch, canonically sorted, with a consume
/// cursor (`start`) so partially drained runs keep their suffix in
/// place instead of copying it.
#[derive(Debug, Clone)]
struct DeliveryRun {
    events: EventBatch,
    start: usize,
}

impl DeliveryCalendar {
    /// An empty calendar.
    pub fn new() -> Self {
        DeliveryCalendar::default()
    }

    /// Accepts one canonically sorted batch by **swapping** its
    /// contents into the calendar: the caller's batch comes back empty,
    /// backed by a recycled buffer (or a fresh one when the pool is
    /// dry). No-op for an empty batch.
    pub fn push_batch(&mut self, batch: &mut EventBatch) {
        if batch.is_empty() {
            return;
        }
        debug_assert!(
            batch
                .times
                .windows(2)
                .enumerate()
                .all(|(i, w)| (time_to_bits(w[0]), batch.tasks[i])
                    <= (time_to_bits(w[1]), batch.tasks[i + 1])),
            "delivery batches must arrive canonically sorted"
        );
        let mut events = match self.spare.pop() {
            Some(b) => {
                self.recycled += 1;
                b
            }
            None => EventBatch::new(),
        };
        std::mem::swap(&mut events, batch);
        self.runs.push(DeliveryRun { events, start: 0 });
    }

    /// Drains every pending event with `time < horizon` into `out`.
    /// Each run contributes its strict prefix (a binary-searched split
    /// — the runs are sorted); fully drained runs recycle their
    /// buffers. `out` receives runs in unspecified relative order —
    /// callers needing the canonical global order sort once afterwards.
    pub fn take_before(&mut self, horizon: f64, out: &mut EventBatch) {
        let mut i = 0;
        while i < self.runs.len() {
            let run = &mut self.runs[i];
            let split = run.start + run.events.times[run.start..].partition_point(|&t| t < horizon);
            if split > run.start {
                // The prefix head is the run's pending minimum (sorted).
                if run.events.times[run.start] < out.min_time {
                    out.min_time = run.events.times[run.start];
                }
                out.times
                    .extend_from_slice(&run.events.times[run.start..split]);
                out.tasks
                    .extend_from_slice(&run.events.tasks[run.start..split]);
                run.start = split;
            }
            if run.start == run.events.len() {
                let mut drained = self.runs.swap_remove(i);
                drained.events.clear();
                self.spare.push(drained.events);
            } else {
                i += 1;
            }
        }
    }

    /// The earliest pending timestamp (`+∞` when empty) — exact: each
    /// run is sorted, so its head is its minimum.
    pub fn min_time(&self) -> f64 {
        self.runs
            .iter()
            .fold(f64::INFINITY, |m, r| m.min(r.events.times[r.start]))
    }

    /// Total pending events across all runs.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.events.len() - r.start).sum()
    }

    /// `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// How many times a pooled buffer was reused for an incoming batch
    /// (the delivery path's recycling counter).
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Mixes the pending-event **multiset** into the running
    /// fingerprint `h`, order-insensitively (each event hashed
    /// independently, images summed): run order is barrier handoff
    /// order, which a controlled scheduler permutes without changing
    /// the state. The spare pool is capacity-only and excluded.
    pub(crate) fn fold_hash(&self, h: &mut u64) {
        use crate::sched::{fnv_step, splitmix};
        let mut n: u64 = 0;
        let mut acc: u64 = 0;
        for r in &self.runs {
            for j in r.start..r.events.len() {
                acc = acc.wrapping_add(splitmix(
                    r.events.times[j].to_bits() ^ splitmix(u64::from(r.events.tasks[j])),
                ));
                n += 1;
            }
        }
        fnv_step(h, n);
        fnv_step(h, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sort_breaks_ties_by_task() {
        let mut b = EventBatch::new();
        let mut scratch = SortScratch::default();
        b.push(1.0, 5);
        b.push(1.0, 3);
        b.sort_canonical(&mut scratch);
        let got: Vec<_> = b.iter().collect();
        assert_eq!(got, vec![(1.0, 3), (1.0, 5)]);
    }

    #[test]
    fn scratch_is_reusable_across_batches() {
        let mut scratch = SortScratch::default();
        for n in [7u32, 3, 11] {
            let mut b = EventBatch::new();
            for i in 0..n {
                b.push(f64::from(n - i), i);
            }
            b.sort_canonical(&mut scratch);
            let times: Vec<f64> = b.iter().map(|(t, _)| t).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted for n={n}");
        }
    }

    #[test]
    fn event_key_orders_like_the_unpacked_tuple() {
        // Times crossing zero, subnormals and infinities; seq breaks
        // ties before task (task never decides when seq is unique).
        let samples = [
            (-1.5, 4u32, 9u32),
            (-0.0, 0, 0),
            (0.0, 1, 7),
            (f64::MIN_POSITIVE / 2.0, 2, 1),
            (1.0, 0, u32::MAX),
            (1.0, 1, 0),
            (f64::INFINITY, 3, 2),
        ];
        let mut packed: Vec<EventKey> = samples
            .iter()
            .map(|&(t, s, id)| EventKey::new(t, s, id))
            .collect();
        packed.sort();
        let mut tuples: Vec<(f64, u32, u32)> = samples.to_vec();
        tuples.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let unpacked: Vec<(f64, u32, u32)> =
            packed.iter().map(|k| (k.time(), 0, k.task())).collect();
        for (got, want) in unpacked.iter().zip(&tuples) {
            assert_eq!(
                got.0.to_bits(),
                want.0.to_bits(),
                "time round-trips bitwise"
            );
            assert_eq!(got.2, want.2, "task id survives packing");
        }
    }

    #[test]
    fn time_bits_round_trip_is_exact() {
        for t in [0.0, -0.0, 1.25e-300, 7.5, -2.0, f64::INFINITY] {
            assert_eq!(time_from_bits(time_to_bits(t)).to_bits(), t.to_bits());
        }
    }

    /// The adversarial corner cases of the float domain, in strictly
    /// ascending `total_cmp` order: both NaN signs, both infinities,
    /// both zeros, subnormals at both ends of their range, and the
    /// normal-range extremes.
    fn adversarial_times() -> Vec<f64> {
        let min_subnormal = f64::from_bits(1);
        let max_subnormal = f64::from_bits((1 << 52) - 1);
        vec![
            -f64::NAN,
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.0,
            -f64::MIN_POSITIVE,
            -max_subnormal,
            -min_subnormal,
            -0.0,
            0.0,
            min_subnormal,
            max_subnormal,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ]
    }

    #[test]
    fn time_to_bits_matches_total_cmp_on_every_adversarial_pair() {
        // The mapping's one contract: unsigned bit order ≡ total_cmp
        // order, on *every* pair including NaNs, signed zeros and
        // subnormals. (The sample list doubles as a strictness check:
        // it is strictly ascending, so equal bit images would fail.)
        let ts = adversarial_times();
        for (i, &a) in ts.iter().enumerate() {
            for &b in &ts[i + 1..] {
                assert_eq!(
                    a.total_cmp(&b),
                    std::cmp::Ordering::Less,
                    "sample list must be strictly ascending: {a:?} vs {b:?}"
                );
                assert!(
                    time_to_bits(a) < time_to_bits(b),
                    "bit order must match total_cmp: {a:?} ({:#x}) vs {b:?} ({:#x})",
                    time_to_bits(a),
                    time_to_bits(b)
                );
            }
        }
    }

    #[test]
    fn adjacent_floats_map_to_adjacent_bits() {
        // The mapping is not just monotone but *gapless*: stepping to
        // the next representable float advances the image by exactly
        // one — including across the subnormal range and MAX → ∞.
        for x in [
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::from_bits(1),
            1.0,
            1e300,
            f64::MAX,
        ] {
            assert_eq!(
                time_to_bits(x.next_up()),
                time_to_bits(x) + 1,
                "next_up({x:?}) must advance the image by one"
            );
        }
        // The signed zeros are distinct, adjacent points of the total
        // order: -0.0 maps immediately below +0.0.
        assert_eq!(time_to_bits(-0.0) + 1, time_to_bits(0.0));
        // …and the smallest positive subnormal sits right above +0.0.
        assert_eq!(time_to_bits(0.0) + 1, time_to_bits(f64::from_bits(1)));
    }

    #[test]
    fn adversarial_times_round_trip_bitwise() {
        // Bijectivity on the corners, bit for bit — NaN payloads
        // included.
        for t in adversarial_times() {
            assert_eq!(
                time_from_bits(time_to_bits(t)).to_bits(),
                t.to_bits(),
                "{t:?} must survive the round trip exactly"
            );
        }
    }

    #[test]
    fn delivery_keys_order_canonically() {
        // At equal time: all completions before all deliveries, then
        // deliveries by consumer task id — independent of insertion.
        let c = EventKey::new(1.0, 5, 9);
        let d3 = EventKey::delivery(1.0, 3);
        let d7 = EventKey::delivery(1.0, 7);
        let later = EventKey::new(2.0, 0, 0);
        let mut keys = vec![d7, later, c, d3];
        keys.sort();
        assert_eq!(keys, vec![c, d3, d7, later]);
        assert!(!c.is_delivery() && d3.is_delivery());
        assert_eq!(d3.task(), 3);
        assert_eq!(d3.time().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn control_keys_order_after_other_classes_then_by_kind_and_node() {
        let c = EventKey::new(1.0, 2, 4);
        let d = EventKey::delivery(1.0, u32::MAX);
        let repair = EventKey::control(1.0, ControlKind::Repair, 9);
        let crash0 = EventKey::control(1.0, ControlKind::Crash, 0);
        let crash5 = EventKey::control(1.0, ControlKind::Crash, 5);
        let preempt = EventKey::control(1.0, ControlKind::Preempt, 0);
        let later = EventKey::new(2.0, 0, 0);
        let mut keys = vec![preempt, crash5, later, repair, d, crash0, c];
        keys.sort();
        assert_eq!(keys, vec![c, d, repair, crash0, crash5, preempt, later]);
        assert!(repair.is_control() && !repair.is_delivery());
        assert!(d.is_delivery() && !d.is_control());
        assert!(!c.is_control() && !c.is_delivery());
        assert_eq!(crash5.control_kind(), ControlKind::Crash);
        assert_eq!(crash5.task(), 5);
        assert_eq!(preempt.control_kind(), ControlKind::Preempt);
        assert_eq!(repair.control_kind(), ControlKind::Repair);
        assert_eq!(repair.time().to_bits(), 1.0f64.to_bits());
    }

    #[test]
    fn batch_tracks_min_time() {
        let mut b = EventBatch::new();
        assert_eq!(b.min_time(), f64::INFINITY);
        b.push(3.0, 1);
        b.push(1.5, 2);
        b.push(2.0, 3);
        assert_eq!(b.min_time(), 1.5);
        let mut other = EventBatch::new();
        other.push(0.5, 4);
        b.extend_from(&other);
        assert_eq!(b.min_time(), 0.5);
        b.clear();
        assert_eq!(b.min_time(), f64::INFINITY);
    }

    #[test]
    fn delivery_calendar_swaps_batches_and_drains_strict_prefixes() {
        let mut cal = DeliveryCalendar::new();
        let mut scratch = SortScratch::default();

        // Producer A's batch: two deliveries, canonically sorted.
        let mut a = EventBatch::new();
        a.push(1.0, 7);
        a.push(2.0, 3);
        a.sort_canonical(&mut scratch);
        cal.push_batch(&mut a);
        assert!(a.is_empty(), "push_batch hands back an empty buffer");

        // Producer B's batch straddles the horizon below.
        let mut b = EventBatch::new();
        b.push(1.5, 9);
        b.push(2.5, 1);
        cal.push_batch(&mut b);
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.min_time(), 1.0);

        let mut out = EventBatch::new();
        cal.take_before(2.5, &mut out);
        out.sort_canonical(&mut scratch);
        assert_eq!(
            out.iter().collect::<Vec<_>>(),
            vec![(1.0, 7), (1.5, 9), (2.0, 3)]
        );
        // The event at exactly the horizon stays pending (strict
        // drain), and the fully drained run's buffer was recycled.
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.min_time(), 2.5);

        // An empty push is a no-op; the next real push reuses a pooled
        // buffer.
        let mut empty = EventBatch::new();
        cal.push_batch(&mut empty);
        assert_eq!(cal.len(), 1);
        let mut c = EventBatch::new();
        c.push(2.5, 0);
        cal.push_batch(&mut c);
        assert!(cal.recycled() >= 1, "drained buffers must be reused");

        // Draining past everything empties the calendar; the duplicate
        // timestamp at 2.5 delivers both events exactly once.
        out.clear();
        cal.take_before(10.0, &mut out);
        out.sort_canonical(&mut scratch);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![(2.5, 0), (2.5, 1)]);
        assert!(cal.is_empty());
        assert_eq!(cal.min_time(), f64::INFINITY);
    }

    #[test]
    fn delivery_calendar_hash_is_insensitive_to_handoff_order() {
        use crate::sched::FNV_SEED;
        let build = |order: [usize; 2]| {
            let mut batches = [EventBatch::new(), EventBatch::new()];
            batches[0].push(1.0, 4);
            batches[0].push(3.0, 5);
            batches[1].push(2.0, 6);
            let mut cal = DeliveryCalendar::new();
            for i in order {
                cal.push_batch(&mut batches[i].clone());
            }
            let mut h = FNV_SEED;
            cal.fold_hash(&mut h);
            h
        };
        assert_eq!(build([0, 1]), build([1, 0]));
    }
}
