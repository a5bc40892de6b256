//! Regions: the unit of dependency analysis.
//!
//! A [`Region`] names a set of `f64` elements of one arena buffer, as a
//! strided sequence of equally sized blocks (a contiguous range is the
//! one-block special case). Strided regions let tasks name
//! two-dimensional tiles of row-major matrices — e.g. the transpose
//! tiles of the FFT benchmark — without copying.

use serde::{Deserialize, Serialize};

use crate::arena::BufferId;

/// A strided region of one buffer: `blocks` blocks of `block_len`
/// elements, the k-th block starting at `offset + k * stride`.
///
/// Invariants (enforced by the constructors):
/// * `block_len ≥ 1`, `blocks ≥ 1`;
/// * `stride ≥ block_len` (blocks never self-overlap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// The buffer this region lives in.
    pub buf: BufferId,
    /// Element index of the first block's first element.
    pub offset: usize,
    /// Elements per block.
    pub block_len: usize,
    /// Element distance between consecutive block starts.
    pub stride: usize,
    /// Number of blocks.
    pub blocks: usize,
}

impl Region {
    /// A contiguous region of `len` elements starting at `offset`.
    pub fn contiguous(buf: BufferId, offset: usize, len: usize) -> Region {
        assert!(len >= 1, "region must be non-empty");
        Region {
            buf,
            offset,
            block_len: len,
            stride: len,
            blocks: 1,
        }
    }

    /// A whole-buffer-sized contiguous region `[0, len)`.
    pub fn full(buf: BufferId, len: usize) -> Region {
        Region::contiguous(buf, 0, len)
    }

    /// A strided region: `blocks` blocks of `block_len` elements with the
    /// given `stride` between block starts. Used for 2-D tiles of
    /// row-major matrices: a `r×c` tile at `(i0, j0)` of an `n`-column
    /// matrix is `strided(buf, i0*n + j0, c, n, r)`.
    pub fn strided(
        buf: BufferId,
        offset: usize,
        block_len: usize,
        stride: usize,
        blocks: usize,
    ) -> Region {
        assert!(block_len >= 1 && blocks >= 1, "region must be non-empty");
        assert!(
            blocks == 1 || stride >= block_len,
            "stride {stride} smaller than block_len {block_len}: blocks would self-overlap"
        );
        Region {
            buf,
            offset,
            block_len,
            stride,
            blocks,
        }
    }

    /// Total number of elements in the region.
    #[inline]
    pub fn len(&self) -> usize {
        self.block_len * self.blocks
    }

    /// Regions are never empty (constructor invariant); provided for
    /// clippy-idiomatic pairing with [`Region::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Size of the region in bytes — the paper's "argument size", the
    /// input to failure-rate estimation.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.len() * core::mem::size_of::<f64>()) as u64
    }

    /// `true` if the region is a single contiguous range.
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.blocks == 1
    }

    /// One-past-the-last element index touched by the region.
    #[inline]
    pub fn span_end(&self) -> usize {
        self.offset + (self.blocks - 1) * self.stride + self.block_len
    }

    /// Element range (start, end) of block `k`.
    #[inline]
    pub fn block_range(&self, k: usize) -> (usize, usize) {
        debug_assert!(k < self.blocks);
        let s = self.offset + k * self.stride;
        (s, s + self.block_len)
    }

    /// Exact test: do `self` and `other` share at least one element?
    ///
    /// Cost is `O(min(self.blocks, other.blocks))` after an `O(1)`
    /// bounding-interval rejection. Two single-block regions (every
    /// tile of the tiled benchmarks) are decided by that interval test
    /// alone: a one-block region *is* its bounding interval.
    pub fn overlaps(&self, other: &Region) -> bool {
        if self.buf != other.buf {
            return false;
        }
        // Bounding-interval quick rejection.
        if self.span_end() <= other.offset || other.span_end() <= self.offset {
            return false;
        }
        // Interval fast path: no per-block division needed.
        if self.blocks == 1 && other.blocks == 1 {
            return true;
        }
        // Iterate the region with fewer blocks; O(1) arithmetic test of
        // each of its blocks against the other strided sequence.
        let (few, many) = if self.blocks <= other.blocks {
            (self, other)
        } else {
            (other, self)
        };
        for k in 0..few.blocks {
            let (s, e) = few.block_range(k);
            if many.intersects_range(s, e) {
                return true;
            }
        }
        false
    }

    /// Does any element of this region fall in `[start, end)`?
    /// `O(1)`: solves for the block indices whose span can intersect.
    pub fn intersects_range(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        let off = self.offset as i64;
        let stride = self.stride as i64;
        let bl = self.block_len as i64;
        let (s, e) = (start as i64, end as i64);
        // Block k occupies [off + k*stride, off + k*stride + bl).
        // Intersection with [s, e) requires:
        //   off + k*stride < e      ⇔ k ≤ floor((e - off - 1) / stride)
        //   off + k*stride + bl > s ⇔ k ≥ floor((s - off - bl) / stride) + 1
        let k_max = div_floor(e - off - 1, stride).min(self.blocks as i64 - 1);
        let k_min = (div_floor(s - off - bl, stride) + 1).max(0);
        k_min <= k_max
    }

    /// The chunk indices (element index / `chunk`) touched by this
    /// region, ascending and deduplicated. Used by the dependency
    /// tracker's chunk index.
    pub fn chunk_ids(&self, chunk: usize) -> Vec<usize> {
        debug_assert!(chunk > 0);
        let mut out = Vec::new();
        for k in 0..self.blocks {
            let (s, e) = self.block_range(k);
            let first = s / chunk;
            let last = (e - 1) / chunk;
            for c in first..=last {
                if out.last() != Some(&c) {
                    out.push(c);
                }
            }
        }
        // Blocks ascend, but consecutive blocks may share a chunk across
        // the loop boundary; the `last()` guard above handles it because
        // chunk ids are non-decreasing across ascending blocks.
        out
    }

    /// Element index (within the buffer) of the `i`-th element of the
    /// region, in gather order (block 0 first).
    #[inline]
    pub fn element(&self, i: usize) -> usize {
        debug_assert!(i < self.len());
        let b = i / self.block_len;
        let j = i % self.block_len;
        self.offset + b * self.stride + j
    }
}

/// Floor division for possibly negative numerators.
#[inline]
fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b < 0 {
        q - 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> BufferId {
        BufferId::from_raw(0)
    }

    #[test]
    fn contiguous_basics() {
        let r = Region::contiguous(buf(), 10, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.bytes(), 40);
        assert!(r.is_contiguous());
        assert_eq!(r.span_end(), 15);
        assert_eq!(r.block_range(0), (10, 15));
    }

    #[test]
    fn strided_tile_of_row_major_matrix() {
        // 3×2 tile at (row 1, col 4) of an 8-column matrix.
        let r = Region::strided(buf(), 8 + 4, 2, 8, 3);
        assert_eq!(r.len(), 6);
        assert_eq!(r.block_range(0), (12, 14));
        assert_eq!(r.block_range(2), (28, 30));
        assert_eq!(r.span_end(), 30);
        assert!(!r.is_contiguous());
    }

    #[test]
    fn contiguous_overlap_cases() {
        let a = Region::contiguous(buf(), 0, 10);
        let b = Region::contiguous(buf(), 9, 5);
        let c = Region::contiguous(buf(), 10, 5);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    fn different_buffers_never_overlap() {
        let a = Region::contiguous(BufferId::from_raw(0), 0, 10);
        let b = Region::contiguous(BufferId::from_raw(1), 0, 10);
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn strided_interleaved_columns_disjoint() {
        // Columns 0 and 1 of a 4-column matrix: stride 4, block_len 1.
        let col0 = Region::strided(buf(), 0, 1, 4, 8);
        let col1 = Region::strided(buf(), 1, 1, 4, 8);
        assert!(!col0.overlaps(&col1));
        assert!(col0.overlaps(&col0));
    }

    #[test]
    fn strided_vs_contiguous_row() {
        // Row 2 of a 4-column, 8-row matrix vs column 1.
        let row2 = Region::contiguous(buf(), 8, 4);
        let col1 = Region::strided(buf(), 1, 1, 4, 8);
        assert!(row2.overlaps(&col1)); // they share element 9
        let col_short = Region::strided(buf(), 1, 1, 4, 2); // rows 0..2 only
        assert!(!row2.overlaps(&col_short));
    }

    #[test]
    fn bounding_interval_rejection_is_not_too_eager() {
        // Regions whose bounding intervals overlap but elements do not.
        let a = Region::strided(buf(), 0, 1, 10, 3); // {0, 10, 20}
        let b = Region::strided(buf(), 5, 1, 10, 3); // {5, 15, 25}
        assert!(!a.overlaps(&b));
    }

    #[test]
    fn intersects_range_edges() {
        let r = Region::strided(buf(), 10, 2, 5, 3); // [10,12) [15,17) [20,22)
        assert!(!r.intersects_range(0, 10));
        assert!(r.intersects_range(0, 11));
        assert!(!r.intersects_range(12, 15));
        assert!(r.intersects_range(16, 17));
        assert!(!r.intersects_range(22, 100));
        assert!(r.intersects_range(21, 22));
        assert!(!r.intersects_range(13, 13)); // empty query
    }

    #[test]
    fn chunk_ids_dedup() {
        let r = Region::contiguous(buf(), 0, 100);
        assert_eq!(r.chunk_ids(32), vec![0, 1, 2, 3]);
        let s = Region::strided(buf(), 0, 4, 8, 4); // spans [0,28)
        assert_eq!(s.chunk_ids(64), vec![0]);
        // Blocks [60,68) and [124,132): chunks {0,1} and {1,2}.
        let t = Region::strided(buf(), 60, 8, 64, 2);
        assert_eq!(t.chunk_ids(64), vec![0, 1, 2]);
    }

    #[test]
    fn element_enumeration_matches_block_ranges() {
        let r = Region::strided(buf(), 7, 3, 10, 2);
        let elems: Vec<usize> = (0..r.len()).map(|i| r.element(i)).collect();
        assert_eq!(elems, vec![7, 8, 9, 17, 18, 19]);
    }

    #[test]
    #[should_panic(expected = "self-overlap")]
    fn rejects_self_overlapping_stride() {
        let _ = Region::strided(buf(), 0, 8, 4, 2);
    }

    #[test]
    fn div_floor_negative() {
        assert_eq!(div_floor(-1, 4), -1);
        assert_eq!(div_floor(-4, 4), -1);
        assert_eq!(div_floor(-5, 4), -2);
        assert_eq!(div_floor(5, 4), 1);
        assert_eq!(div_floor(0, 4), 0);
    }
}
