//! Row storage for in-flight simulation records.
//!
//! The engines accumulate results in a [`RecordStore`]: one 32-byte
//! `Row` per task — the three `f64` times, the node and a flag byte
//! holding the seven booleans plus the per-task `Option` (the `FILLED`
//! bit) — against 72 bytes for a `Vec<Option<SimTaskRecord>>`. Rows,
//! not columns, because the engines visit tasks in global time order:
//! consecutive writes land ~14 k tasks apart, so a dispatch touches as
//! many cold cache lines as the store has arrays — one here, twelve
//! under the former struct-of-arrays layout (ARCHITECTURE "Row
//! records" has the measurement). At the simulation boundary
//! the store converts back to [`SimTaskRecord`]s, so
//! [`crate::SimReport`] — and its serde output — is unchanged.

use crate::report::SimTaskRecord;

const FILLED: u8 = 1;
const REPLICATED: u8 = 1 << 1;
const REPLICA_LAGGED: u8 = 1 << 2;
const SDC_DETECTED: u8 = 1 << 3;
const DUE_RECOVERED: u8 = 1 << 4;
const UNCOVERED_SDC: u8 = 1 << 5;
const UNCOVERED_DUE: u8 = 1 << 6;
const IS_BARRIER: u8 = 1 << 7;

/// One task's record, minus the task id (see [`RecordStore`]).
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    dispatched: f64,
    completed: f64,
    base_secs: f64,
    node: u32,
    flags: u8,
}

/// One engine's (or one shard's) task records, indexed by a
/// caller-chosen dense slot (the task id in the sequential engine, the
/// shard-local index in the sharded engine).
///
/// The `task` field of [`SimTaskRecord`] is *not* stored: the
/// slot→task mapping is the caller's, and is supplied back to
/// [`RecordStore::get`] at conversion time.
#[derive(Debug, Clone)]
pub struct RecordStore {
    rows: Vec<Row>,
}

impl RecordStore {
    /// An empty store with `len` slots.
    pub fn new(len: usize) -> Self {
        RecordStore {
            rows: vec![Row::default(); len],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the store has no slots.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Whether `slot` has been written.
    #[inline]
    pub fn is_set(&self, slot: usize) -> bool {
        self.rows[slot].flags & FILLED != 0
    }

    /// Stores `rec` in `slot` (every field except `rec.task`, whose
    /// mapping the caller owns). Each slot is written exactly once per
    /// *attempt*; re-dispatching a crash-lost task must call
    /// `RecordStore::reset` first.
    #[inline]
    pub fn set(&mut self, slot: usize, rec: &SimTaskRecord) {
        debug_assert!(!self.is_set(slot), "slot {slot} written twice");
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        self.rows[slot] = Row {
            dispatched: rec.dispatched,
            completed: rec.completed,
            base_secs: rec.base_secs,
            node: rec.node,
            flags: FILLED
                | flag(rec.replicated, REPLICATED)
                | flag(rec.replica_lagged, REPLICA_LAGGED)
                | flag(rec.sdc_detected, SDC_DETECTED)
                | flag(rec.due_recovered, DUE_RECOVERED)
                | flag(rec.uncovered_sdc, UNCOVERED_SDC)
                | flag(rec.uncovered_due, UNCOVERED_DUE)
                | flag(rec.is_barrier, IS_BARRIER),
        };
    }

    /// Reassembles the record in `slot` as task `task`.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never written — the engines' "all tasks
    /// simulated" invariant, previously the `Option::expect` on every
    /// record.
    #[inline]
    pub fn get(&self, slot: usize, task: u32) -> SimTaskRecord {
        let row = self.rows[slot];
        assert!(row.flags & FILLED != 0, "task {task} was never simulated");
        SimTaskRecord {
            task,
            node: row.node,
            dispatched: row.dispatched,
            completed: row.completed,
            base_secs: row.base_secs,
            replicated: row.flags & REPLICATED != 0,
            replica_lagged: row.flags & REPLICA_LAGGED != 0,
            sdc_detected: row.flags & SDC_DETECTED != 0,
            due_recovered: row.flags & DUE_RECOVERED != 0,
            uncovered_sdc: row.flags & UNCOVERED_SDC != 0,
            uncovered_due: row.flags & UNCOVERED_DUE != 0,
            is_barrier: row.flags & IS_BARRIER != 0,
        }
    }

    /// Whether the attempt recorded in `slot` was replicated — read by
    /// crash recovery to pin the stored decision before the slot is
    /// [`RecordStore::reset`] for re-dispatch.
    #[inline]
    pub(crate) fn replicated_of(&self, slot: usize) -> bool {
        debug_assert!(self.is_set(slot), "slot {slot} not filled");
        self.rows[slot].flags & REPLICATED != 0
    }

    /// Clears `slot` so a crash-lost in-flight task can be re-dispatched
    /// and re-recorded. Only the `FILLED` bit matters for correctness
    /// (the re-dispatch overwrites the whole row), but it is the bit
    /// [`RecordStore::set`]'s write-once debug assertion checks.
    #[inline]
    pub(crate) fn reset(&mut self, slot: usize) {
        debug_assert!(self.is_set(slot), "slot {slot} reset while empty");
        self.rows[slot].flags &= !FILLED;
    }

    /// Mixes every row (times bitwise) into the running fingerprint `h`
    /// — part of the sharded engine's model-checking state hash.
    pub(crate) fn fold_hash(&self, h: &mut u64) {
        use crate::sched::fnv_step;
        for row in &self.rows {
            fnv_step(h, row.dispatched.to_bits());
            fnv_step(h, row.completed.to_bits());
            fnv_step(h, row.base_secs.to_bits());
            fnv_step(h, u64::from(row.node) << 8 | u64::from(row.flags));
        }
    }

    /// Maximum completion time across all filled slots (0.0 when none
    /// are filled) — used for the makespan fold.
    pub fn max_completed(&self) -> f64 {
        self.rows
            .iter()
            .filter(|row| row.flags & FILLED != 0)
            .map(|row| row.completed)
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: u32, flags: u8) -> SimTaskRecord {
        SimTaskRecord {
            task,
            node: task * 3 + 1,
            dispatched: f64::from(task) * 0.5,
            completed: f64::from(task) * 0.5 + 2.25,
            base_secs: 1.0 + f64::from(task),
            replicated: flags & 1 != 0,
            replica_lagged: flags & 64 != 0,
            sdc_detected: flags & 2 != 0,
            due_recovered: flags & 4 != 0,
            uncovered_sdc: flags & 8 != 0,
            uncovered_due: flags & 16 != 0,
            is_barrier: flags & 32 != 0,
        }
    }

    /// Every flag field survives the store → record round trip, alone
    /// and in combination — the SoA bitsets must not alias each other.
    #[test]
    fn round_trips_every_flag_field() {
        // 128 flag combinations plus the all-off and all-on extremes,
        // spread across word boundaries of the bitsets.
        let n = 140usize;
        let mut store = RecordStore::new(n);
        let expected: Vec<SimTaskRecord> = (0..n).map(|i| rec(i as u32, (i % 128) as u8)).collect();
        // Fill out of order to exercise slot independence.
        for i in (0..n).rev() {
            store.set(i, &expected[i]);
        }
        for (i, want) in expected.iter().enumerate() {
            assert!(store.is_set(i));
            assert_eq!(store.get(i, want.task), *want, "slot {i}");
        }
    }

    #[test]
    fn max_completed_ignores_unfilled_slots() {
        let mut store = RecordStore::new(4);
        assert_eq!(store.max_completed(), 0.0);
        store.set(2, &rec(2, 0));
        store.set(0, &rec(0, 1));
        assert_eq!(store.max_completed(), 2.0 * 0.5 + 2.25);
    }

    #[test]
    #[should_panic(expected = "never simulated")]
    fn reading_an_unfilled_slot_panics() {
        let store = RecordStore::new(2);
        let _ = store.get(1, 1);
    }

    #[test]
    fn reset_allows_rewriting_a_slot() {
        // Crash recovery: a killed attempt's slot is reset and the
        // retry writes a fresh record over it.
        let mut store = RecordStore::new(3);
        store.set(1, &rec(1, 1));
        assert!(store.replicated_of(1));
        store.reset(1);
        assert!(!store.is_set(1));
        store.set(1, &rec(1, 16));
        let got = store.get(1, 1);
        assert!(!got.replicated && got.uncovered_due);
    }
}
