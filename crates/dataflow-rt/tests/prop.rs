//! Property-based tests: region algebra exactness and schedule
//! correctness of the dataflow runtime.

use dataflow_rt::{DataArena, Executor, Region, TaskGraph, TaskSpec};
use proptest::prelude::*;

/// Strategy for a random region inside a buffer of `buf_len` elements.
fn region_strategy(buf_len: usize) -> impl Strategy<Value = Region> {
    (1usize..12, 1usize..6).prop_flat_map(move |(block_len, blocks)| {
        let stride = block_len..(block_len + 24);
        (Just(block_len), Just(blocks), stride).prop_flat_map(move |(bl, bs, st)| {
            let span = (bs - 1) * st + bl;
            let max_off = buf_len.saturating_sub(span);
            (0..=max_off).prop_map(move |off| {
                Region::strided(dataflow_rt::BufferId::from_raw(0), off, bl, st, bs)
            })
        })
    })
}

/// Brute-force element enumeration of a region.
fn elements(r: &Region) -> Vec<usize> {
    (0..r.len()).map(|i| r.element(i)).collect()
}

proptest! {
    /// `Region::overlaps` agrees exactly with brute-force element-set
    /// intersection.
    #[test]
    fn overlap_matches_brute_force(a in region_strategy(160), b in region_strategy(160)) {
        let ea = elements(&a);
        let eb = elements(&b);
        let brute = ea.iter().any(|x| eb.contains(x));
        prop_assert_eq!(a.overlaps(&b), brute);
        prop_assert_eq!(b.overlaps(&a), brute);
    }

    /// The interval fast path of `Region::overlaps`: the single-block
    /// pairs four sorted cut points make — touching-but-disjoint
    /// `[p0,p1) [p1,p2)`, nested `[p0,p3) ⊇ [p1,p2)`, crossing
    /// `[p0,p2) [p1,p3)`, apart `[p0,p1) [p2,p3)` — and each of those
    /// intervals against a strided region, all symmetric and equal to
    /// brute force.
    #[test]
    fn single_block_overlap_matches_brute_force(
        cuts in proptest::collection::vec(0usize..120, 4),
        strided in region_strategy(160),
    ) {
        let mut p = cuts;
        p.sort_unstable();
        let pairs = [
            ((p[0], p[1]), (p[1], p[2])),
            ((p[0], p[3]), (p[1], p[2])),
            ((p[0], p[2]), (p[1], p[3])),
            ((p[0], p[1]), (p[2], p[3])),
        ];
        let buf = dataflow_rt::BufferId::from_raw(0);
        for ((s1, e1), (s2, e2)) in pairs {
            if s1 == e1 || s2 == e2 {
                continue;
            }
            let a = Region::contiguous(buf, s1, e1 - s1);
            let b = Region::contiguous(buf, s2, e2 - s2);
            let brute = s1.max(s2) < e1.min(e2);
            prop_assert_eq!(a.overlaps(&b), brute, "{:?} vs {:?}", a, b);
            prop_assert_eq!(b.overlaps(&a), brute, "{:?} vs {:?}", b, a);
            let hits = elements(&strided).iter().any(|&x| x >= s1 && x < e1);
            prop_assert_eq!(a.overlaps(&strided), hits, "{:?} vs {:?}", a, strided);
            prop_assert_eq!(strided.overlaps(&a), hits, "{:?} vs {:?}", strided, a);
        }
    }

    /// `chunk_ids` is exactly the set of chunks containing at least one
    /// element, ascending.
    #[test]
    fn chunk_ids_exact(r in region_strategy(160), chunk in 1usize..64) {
        let ids = r.chunk_ids(chunk);
        let mut expected: Vec<usize> = elements(&r).iter().map(|e| e / chunk).collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(ids, expected);
    }

    /// `intersects_range` agrees with brute force.
    #[test]
    fn intersects_range_exact(r in region_strategy(160), s in 0usize..200, len in 0usize..40) {
        let e = s + len;
        let brute = elements(&r).iter().any(|&x| x >= s && x < e);
        prop_assert_eq!(r.intersects_range(s, e), brute);
    }
}

/// A randomized workload of affine updates: each task maps a contiguous
/// region through `x → a·x + b`. Distinct (a, b) pairs do not commute,
/// so any dependency violation in the parallel schedule changes the
/// result versus the sequential reference.
fn affine_graph(
    ops: &[(usize, usize, f64, f64)],
    buf_len: usize,
) -> (TaskGraph, DataArena, dataflow_rt::BufferId) {
    let mut arena = DataArena::new();
    let v = arena.alloc_from("v", (0..buf_len).map(|i| i as f64 + 1.0).collect());
    let mut g = TaskGraph::new();
    for &(off, len, a, b) in ops {
        g.submit(
            TaskSpec::new("affine")
                .updates(Region::contiguous(v, off, len))
                .kernel(move |ctx| {
                    for x in ctx.w(0).as_mut_slice() {
                        *x = a * *x + b;
                    }
                }),
        );
    }
    (g, arena, v)
}

fn ops_strategy(buf_len: usize) -> impl Strategy<Value = Vec<(usize, usize, f64, f64)>> {
    proptest::collection::vec(
        (0usize..buf_len - 1).prop_flat_map(move |off| {
            (
                Just(off),
                1usize..=(buf_len - off).min(16),
                proptest::num::f64::POSITIVE.prop_map(|a| 1.0 + a % 3.0),
                proptest::num::f64::POSITIVE.prop_map(|b| b % 5.0),
            )
        }),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel execution produces bit-identical results to sequential
    /// execution for random overlapping update patterns — the schedule
    /// must have ordered every conflicting pair. The executor's dynamic
    /// conflict checker is active and panics on any violation.
    #[test]
    fn parallel_equals_sequential(ops in ops_strategy(64)) {
        let (g1, mut arena1, v1) = affine_graph(&ops, 64);
        Executor::sequential().with_conflict_checker(true).run(&g1, &mut arena1);
        let expected = arena1.read(v1).to_vec();

        let (g2, mut arena2, v2) = affine_graph(&ops, 64);
        Executor::new(4).with_conflict_checker(true).run(&g2, &mut arena2);
        let got = arena2.read(v2).to_vec();

        prop_assert_eq!(expected, got);
    }
}
