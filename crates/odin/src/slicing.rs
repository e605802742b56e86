//! Distributed slicing and redistribution (worker side).
//!
//! Arrays are distributed along axis 0 (row distribution); a slice along
//! axis 0 therefore moves whole rows between workers, while slices along
//! the other axes are purely local strided gathers. This is the machinery
//! behind the paper's §III-G claim that `dy = y[1:] - y[:-1]` "requires
//! some small amount of inter-node communication … ODIN performs this
//! communication automatically".

use std::cell::RefCell;
use std::rc::Rc;

use comm::{Comm, CommError, Cursor, Wire};
use dmap::runs::{push_index, Run};

use crate::buffer::Buffer;
use crate::protocol::{ArrayMeta, Dist};

/// Row-routing plan for slices and redistributions, as strided runs per
/// peer. Sender and receiver both enumerate the rows they exchange in
/// increasing global order, so each side derives its half from the two
/// axis maps alone and the message is the bare gathered [`Buffer`] — no
/// row list crosses the wire. A pure function of the array's shape, its
/// distribution, and the request (per rank), so cached entries never need
/// invalidation — an equal key always reproduces an equal route.
struct RoutePlan {
    /// Per peer (self included): source positions shipped there.
    send: Vec<Vec<Run>>,
    /// Per peer (self included): output positions its shipment fills.
    recv: Vec<Vec<Run>>,
    /// Elements per position on both sides: a whole row when rows move
    /// intact, one when the slice picks columns.
    width: usize,
}

impl RoutePlan {
    /// Move `data` into `out` along this plan. Collective: an all-to-all
    /// with compute/communication overlap — post a nonblocking send to
    /// every peer, copy the rows staying here while those payloads are in
    /// flight, then place incoming segments in arrival order. Segments at
    /// or above the comm's zero-copy threshold transfer as region handles
    /// (ownership move, no encode/decode round-trip).
    ///
    /// Each execution draws its own tag from the comm's SPMD-ordered
    /// sequence. A fixed tag is not enough: reliable delivery retransmits
    /// around a dropped segment, so two back-to-back exchanges (two
    /// operands aligned for one kernel) can arrive out of order and a
    /// shared tag would hand the second exchange's segment to the first.
    fn execute(&self, comm: &Comm, data: &Buffer, out: &mut Buffer) {
        let tag = comm.next_spmd_tag();
        let me = comm.rank();
        let mut peers: Vec<usize> = (0..comm.size()).filter(|&peer| peer != me).collect();
        let sreqs: Vec<comm::Request> = peers
            .iter()
            .map(|&peer| {
                let segment = data.gather_runs(&self.send[peer], self.width);
                comm.isend_zc(peer, tag, segment).expect("exchange isend")
            })
            .collect();
        out.copy_runs(&self.recv[me], data, &self.send[me], self.width);
        let mut rreqs: Vec<comm::Request> = peers
            .iter()
            .map(|&peer| {
                comm.irecv(comm::Src::Rank(peer), tag)
                    .expect("exchange irecv")
            })
            .collect();
        while !rreqs.is_empty() {
            let (idx, done) = comm.waitany(&mut rreqs).expect("exchange wait");
            let peer = peers.remove(idx);
            let (payload, _) = done.expect("receive completion carries a payload");
            let segment: Buffer = match payload {
                comm::Payload::Bytes(bytes) => {
                    let v = comm::decode_from_slice(&bytes).expect("bad exchange payload");
                    comm.put_buf(bytes);
                    v
                }
                comm::Payload::Region(region) => region
                    .take()
                    .expect("exchange region payload is not a Buffer"),
            };
            out.scatter_runs(&self.recv[peer], self.width, &segment);
        }
        for req in sreqs {
            comm.wait(req).expect("exchange send wait");
        }
    }
}

/// Exact cache key for a [`RoutePlan`]. Rank and communicator size are
/// implicit: the cache is per worker thread.
#[derive(PartialEq)]
struct RouteKey {
    shape: Vec<usize>,
    dist: Dist,
    out_dist: Dist,
    specs: Vec<SliceSpec>,
}

/// Retained routes per worker; LRU-evicted beyond this.
const ROUTE_CACHE_MAX: usize = 16;

thread_local! {
    static ROUTES: RefCell<Vec<(RouteKey, Rc<RoutePlan>)>> = const { RefCell::new(Vec::new()) };
}

/// Look up (or build and insert) the route for `key`. Building is purely
/// local index arithmetic — no communication — so hit/miss asymmetry
/// across workers is harmless; the counters feed `CommStats::plan_hits`
/// / `plan_misses` like the `dmap` plan cache.
fn cached_route(comm: &Comm, key: RouteKey, build: impl FnOnce() -> RoutePlan) -> Rc<RoutePlan> {
    let hit = ROUTES.with(|c| {
        let mut c = c.borrow_mut();
        c.iter().position(|(k, _)| *k == key).map(|i| {
            let e = c.remove(i);
            let plan = Rc::clone(&e.1);
            c.push(e);
            plan
        })
    });
    if let Some(plan) = hit {
        comm.record_plan_hit();
        return plan;
    }
    comm.record_plan_miss();
    let plan = Rc::new(build());
    ROUTES.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() == ROUTE_CACHE_MAX {
            c.remove(0);
        }
        c.push((key, Rc::clone(&plan)));
    });
    plan
}

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
    pub fn position_of(&self, i: usize) -> usize {
        debug_assert!(self.contains(i));
        (i - self.start) / self.step
    }

    /// The `k`-th selected index.
    pub fn index_at(&self, k: usize) -> usize {
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
pub fn slab_offsets(dims: &[usize], specs: &[SliceSpec]) -> Vec<usize> {
    assert_eq!(dims.len(), specs.len());
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

/// Materialize a slice of a distributed array. Collective over the worker
/// communicator. `specs` has one entry per dimension of `meta.shape`.
pub fn slice_worker(
    comm: &Comm,
    meta: &ArrayMeta,
    data: &Buffer,
    specs: &[SliceSpec],
) -> (ArrayMeta, Buffer) {
    assert_eq!(specs.len(), meta.ndim(), "one slice spec per dimension");
    route_rows(comm, meta, data, specs, meta.dist)
}

/// Redistribute an array to a new distribution along axis 0. Collective.
pub fn redistribute_worker(
    comm: &Comm,
    meta: &ArrayMeta,
    data: &Buffer,
    new_dist: Dist,
) -> (ArrayMeta, Buffer) {
    let specs: Vec<SliceSpec> = meta.shape.iter().map(|&n| SliceSpec::full(n)).collect();
    route_rows(comm, meta, data, &specs, new_dist)
}

/// The one mover behind both: select `specs` from the array and lay the
/// result out under `out_dist`.
fn route_rows(
    comm: &Comm,
    meta: &ArrayMeta,
    data: &Buffer,
    specs: &[SliceSpec],
    out_dist: Dist,
) -> (ArrayMeta, Buffer) {
    assert_eq!(meta.axis, 0, "arrays are distributed along axis 0");
    let p = comm.size();
    let rank = comm.rank();
    let row_spec = specs[0];
    let out_meta = ArrayMeta {
        shape: specs.iter().map(|s| s.len()).collect(),
        axis: 0,
        dist: out_dist,
        dtype: meta.dtype,
    };
    let slab = meta.slab();
    let out_slab = out_meta.slab();
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
        let (src_blocks, out_blocks) = (blocks(meta), blocks(&out_meta));
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
        let plan = RoutePlan {
            send: (0..p)
                .map(|to| {
                    let (lo, hi) = overlap(rank, to);
                    run(lo + row_spec.start, hi + row_spec.start, src_lo)
                })
                .collect(),
            recv: (0..p)
                .map(|from| {
                    let (lo, hi) = overlap(from, rank);
                    run(lo, hi, out_lo)
                })
                .collect(),
            width: slab,
        };
        plan.execute(comm, data, &mut out);
        return (out_meta, out);
    }
    let key = RouteKey {
        shape: meta.shape.clone(),
        dist: meta.dist,
        out_dist,
        specs: specs.to_vec(),
    };
    let plan = cached_route(comm, key, || {
        let src_map = meta.axis_map(p, rank);
        let out_map = out_meta.axis_map(p, rank);
        // Positions are whole rows, or single elements when the slice
        // picks columns: source columns `cols` of each `stride`-wide row
        // land on all `out_stride` columns of an output row.
        let (cols, stride, out_stride) = if whole_rows {
            (vec![0], 1, 1)
        } else {
            (slab_offsets(&meta.shape[1..], &specs[1..]), slab, out_slab)
        };
        let mut send: Vec<Vec<Run>> = vec![Vec::new(); p];
        let mut recv: Vec<Vec<Run>> = vec![Vec::new(); p];
        // Both loops walk rows in increasing global order, which is what
        // lets the two ends of a transfer agree without exchanging rows.
        for l in 0..src_map.my_count() {
            let g = src_map.local_to_global(l);
            if !row_spec.contains(g) {
                continue;
            }
            let to = out_map
                .owner_of(row_spec.position_of(g))
                .expect("structured map");
            for &c in &cols {
                push_index(&mut send[to], l * stride + c);
            }
        }
        for l in 0..out_map.my_count() {
            let g = row_spec.index_at(out_map.local_to_global(l));
            let from = src_map.owner_of(g).expect("structured map");
            for k in l * out_stride..(l + 1) * out_stride {
                push_index(&mut recv[from], k);
            }
        }
        RoutePlan {
            send,
            recv,
            width: if whole_rows { slab } else { 1 },
        }
    });
    plan.execute(comm, data, &mut out);
    (out_meta, out)
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
