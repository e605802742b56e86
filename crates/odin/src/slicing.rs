//! Distributed slicing, redistribution and concatenation (worker side).
//!
//! Arrays are distributed along axis 0 (row distribution); a slice along
//! axis 0 therefore moves whole rows between workers, while slices along
//! the other axes are purely local strided gathers. This is the machinery
//! behind the paper's §III-G claim that `dy = y[1:] - y[:-1]` "requires
//! some small amount of inter-node communication … ODIN performs this
//! communication automatically". Each worker works out from the two axis
//! maps alone which rows it ships to and receives from every peer, hands
//! them to [`CommPlan::from_runs`], and the plan — the same `Import` that
//! moves `dlinalg` vectors and CSR halos — does the exchange on the
//! segment's typed lanes; no row list crosses the wire.

use comm::{Comm, CommError, Cursor, Wire};
use dmap::plan_cache::cached_route;
use dmap::runs::{push_index, Run};
use dmap::{CommPlan, DistMap};

use crate::buffer::Buffer;
use crate::protocol::{ArrayMeta, Dist};

/// A half-open strided range `start..stop` with positive `step`
/// (negative indices are resolved by the master-side API before encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSpec {
    /// First index.
    pub start: usize,
    /// One past the last candidate index.
    pub stop: usize,
    /// Stride (≥ 1).
    pub step: usize,
}

impl SliceSpec {
    /// Construct (panics on zero step or inverted range).
    pub fn new(start: usize, stop: usize, step: usize) -> Self {
        assert!(step >= 1, "slice step must be ≥ 1");
        assert!(start <= stop, "slice start after stop");
        SliceSpec { start, stop, step }
    }

    /// The identity slice over a dimension of length `n`.
    pub fn full(n: usize) -> Self {
        SliceSpec {
            start: 0,
            stop: n,
            step: 1,
        }
    }

    /// Number of selected indices.
    pub fn len(&self) -> usize {
        (self.stop - self.start).div_ceil(self.step)
    }

    /// Whether the slice selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `i` is selected.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i < self.stop && (i - self.start).is_multiple_of(self.step)
    }

    /// Output position of selected index `i`.
    fn position_of(&self, i: usize) -> usize {
        debug_assert!(self.contains(i));
        (i - self.start) / self.step
    }

    /// The `k`-th selected index.
    fn index_at(&self, k: usize) -> usize {
        self.start + k * self.step
    }
}

impl Wire for SliceSpec {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.start.encode(buf);
        self.stop.encode(buf);
        self.step.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(SliceSpec {
            start: usize::decode(cur)?,
            stop: usize::decode(cur)?,
            step: usize::decode(cur)?,
        })
    }
}

/// Within-row (slab) offsets selected by `specs` over trailing dims
/// `dims` (`specs.len() == dims.len()`), in output order.
fn slab_offsets(dims: &[usize], specs: &[SliceSpec]) -> Vec<usize> {
    // strides of the slab, row-major
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len().saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let mut out = vec![0usize];
    for (d, spec) in specs.iter().enumerate() {
        let mut next = Vec::with_capacity(out.len() * spec.len());
        for &base in &out {
            for k in 0..spec.len() {
                next.push(base + spec.index_at(k) * strides[d]);
            }
        }
        out = next;
    }
    out
}

/// Redistribute an array to `out_meta`'s distribution along axis 0.
/// Collective.
pub(crate) fn redistribute_worker(
    comm: &Comm,
    meta: &ArrayMeta,
    data: &Buffer,
    out_meta: &ArrayMeta,
) -> Buffer {
    let specs: Vec<SliceSpec> = meta.shape.iter().map(|&n| SliceSpec::full(n)).collect();
    slice_worker(comm, meta, data, &specs, out_meta)
}

/// Join two 1-D arrays end to end into this worker's segment of the
/// block-distributed `out_meta`: each input is one route onto its stretch
/// of the output. Collective.
pub(crate) fn concat_worker(
    comm: &Comm,
    a: &(ArrayMeta, Buffer),
    b: &(ArrayMeta, Buffer),
    out_meta: &ArrayMeta,
) -> Buffer {
    let (p, rank) = (comm.size(), comm.rank());
    let out_map = out_meta.axis_map(p, rank);
    let mut out = Buffer::zeros(out_meta.dtype, out_map.my_count());
    for ((meta, data), base) in [(a, 0), (b, a.0.shape[0])] {
        let rows = SliceSpec::full(meta.shape[0]);
        let plan = row_route(&meta.axis_map(p, rank), &out_map, rows, base, &[0], 1, 1);
        // Promoted here, so every lane crosses in the output's own type.
        let promoted;
        let data = if data.dtype() == out_meta.dtype {
            data
        } else {
            promoted = data.astype(out_meta.dtype);
            &promoted
        };
        out.route_from(comm, &plan, data);
    }
    out
}

/// The plan that moves the `row_spec` rows of an axis laid out by `src`
/// onto rows `base..base + row_spec.len()` of one laid out by `out`.
/// Positions are whole rows (`cols = [0]`, `stride = 1`, `width` the row
/// length), or single elements when a slice picks columns: source columns
/// `cols` of each `stride`-wide row fill a `cols.len()`-wide output row.
///
/// Both loops walk rows in increasing global order, which is what lets
/// the two ends of a transfer agree without exchanging row lists.
fn row_route(
    src: &DistMap,
    out: &DistMap,
    row_spec: SliceSpec,
    base: usize,
    cols: &[usize],
    stride: usize,
    width: usize,
) -> CommPlan {
    let p = src.n_ranks();
    let mut send: Vec<Vec<Run>> = vec![Vec::new(); p];
    let mut recv: Vec<Vec<Run>> = vec![Vec::new(); p];
    for l in 0..src.my_count() {
        let g = src.local_to_global(l);
        if !row_spec.contains(g) {
            continue;
        }
        let to = out
            .owner_of(base + row_spec.position_of(g))
            .expect("structured map");
        for &c in cols {
            push_index(&mut send[to], l * stride + c);
        }
    }
    for l in 0..out.my_count() {
        let o = out.local_to_global(l);
        if o < base || o >= base + row_spec.len() {
            continue;
        }
        let from = src
            .owner_of(row_spec.index_at(o - base))
            .expect("structured map");
        for k in l * cols.len()..(l + 1) * cols.len() {
            push_index(&mut recv[from], k);
        }
    }
    CommPlan::from_runs(src.my_rank(), send, recv, width)
}

/// Materialize a slice of a distributed array as this worker's segment of
/// `out_meta` — the one mover behind slices and redistributes. `specs`
/// has one entry per dimension of `meta.shape`. Collective over the
/// worker communicator.
pub(crate) fn slice_worker(
    comm: &Comm,
    meta: &ArrayMeta,
    data: &Buffer,
    specs: &[SliceSpec],
    out_meta: &ArrayMeta,
) -> Buffer {
    let p = comm.size();
    let rank = comm.rank();
    let row_spec = specs[0];
    let out_dist = out_meta.dist;
    let slab = meta.slab();
    // Trailing dims taken whole: rows move as units of `slab` elements.
    let whole_rows = specs[1..]
        .iter()
        .zip(&meta.shape[1..])
        .all(|(s, &n)| *s == SliceSpec::full(n));
    let mut out = Buffer::zeros(meta.dtype, out_meta.local_len(p, rank));
    // Block → block with a unit row step (the shifted slices of the
    // paper's finite-difference example): every transfer is one contiguous
    // run per peer, known in closed form — no cached plan, pure memcpy.
    if meta.dist == Dist::Block && out_dist == Dist::Block && row_spec.step == 1 && whole_rows {
        let blocks = |m: &ArrayMeta| -> Vec<(usize, usize)> {
            (0..p)
                .map(|r| {
                    let map = m.axis_map(p, r);
                    let lo = map.my_block_start().expect("block map");
                    (lo, lo + map.my_count())
                })
                .collect()
        };
        let (src_blocks, out_blocks) = (blocks(meta), blocks(out_meta));
        // Output rows held (as source rows) by `from` and owned by `to`.
        let overlap = |from: usize, to: usize| {
            let ((s_lo, s_hi), (o_lo, o_hi)) = (src_blocks[from], out_blocks[to]);
            let lo = s_lo.max(row_spec.start) - row_spec.start;
            let hi = s_hi.min(row_spec.stop).saturating_sub(row_spec.start);
            (lo.max(o_lo), hi.min(o_hi))
        };
        let run = |lo: usize, hi: usize, origin: usize| {
            vec![Run {
                start: lo.saturating_sub(origin),
                step: 1,
                n: hi.saturating_sub(lo),
            }]
        };
        let (src_lo, out_lo) = (src_blocks[rank].0, out_blocks[rank].0);
        let send = (0..p).map(|to| {
            let (lo, hi) = overlap(rank, to);
            run(lo + row_spec.start, hi + row_spec.start, src_lo)
        });
        let recv = (0..p).map(|from| {
            let (lo, hi) = overlap(from, rank);
            run(lo, hi, out_lo)
        });
        let plan = CommPlan::from_runs(rank, send.collect(), recv.collect(), slab);
        out.route_from(comm, &plan, data);
        return out;
    }
    // A route is a pure function of the array's shape, its layouts and
    // the request (per rank), so an equal key always reproduces it.
    let mut key = Vec::new();
    (p, rank, meta.dist, out_dist).encode(&mut key);
    meta.shape.encode(&mut key);
    specs.iter().for_each(|s| s.encode(&mut key));
    let plan = cached_route(comm, &key, || {
        let (src_map, out_map) = (meta.axis_map(p, rank), out_meta.axis_map(p, rank));
        if whole_rows {
            row_route(&src_map, &out_map, row_spec, 0, &[0], 1, slab)
        } else {
            let cols = slab_offsets(&meta.shape[1..], &specs[1..]);
            row_route(&src_map, &out_map, row_spec, 0, &cols, slab, 1)
        }
    });
    out.route_from(comm, &plan, data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_len_and_indexing() {
        let s = SliceSpec::new(1, 10, 3); // 1, 4, 7
        assert_eq!(s.len(), 3);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert!(!s.contains(10));
        assert_eq!(s.position_of(7), 2);
        assert_eq!(s.index_at(1), 4);
        assert!(SliceSpec::new(3, 3, 1).is_empty());
        assert_eq!(SliceSpec::full(5).len(), 5);
    }

    #[test]
    fn slab_offsets_2d() {
        // slab dims [4], take every other element: offsets 0, 2
        assert_eq!(slab_offsets(&[4], &[SliceSpec::new(0, 4, 2)]), vec![0, 2]);
        // slab dims [2,3] row-major; slice [0..2, 1..3] → offsets
        // (0,1)=1 (0,2)=2 (1,1)=4 (1,2)=5
        assert_eq!(
            slab_offsets(&[2, 3], &[SliceSpec::full(2), SliceSpec::new(1, 3, 1)]),
            vec![1, 2, 4, 5]
        );
        // empty spec list (scalar slab)
        assert_eq!(slab_offsets(&[], &[]), vec![0]);
    }
}
