//! Precomputed communication plans (Tpetra `Import`/`Export` analog).
//!
//! A [`CommPlan`] records, once, which local entries must be sent to which
//! peers and where received entries land; executing the plan then moves any
//! `Wire`-encodable element type with no further index arithmetic. Every
//! index list is held as strided [`Run`]s and moved with
//! [`gather_runs`] / [`copy_runs`], so a stencil halo is one run per peer
//! and a Block→Cyclic import one strided run per peer. The same mechanism
//! serves three paper use-cases:
//!
//! * redistribution between two maps (non-conformable binary ufuncs, E4),
//! * halo/ghost gathers for SpMV and shifted-slice arithmetic (E5),
//! * reverse "export" with combine modes for accumulating contributions.

use comm::{Comm, Cursor, Payload, Request, Src, Tag, Wire};

use crate::directory::Directory;
use crate::map::DistMap;
use crate::runs::{compress, copy_runs, extend_runs, gather_runs, push_index, run_len, Run};

// Plan traffic is tagged per execution from the comm's SPMD-ordered tag
// sequence ([`Comm::next_spmd_tag`]): executions are collectively ordered,
// so sender and receiver always derive the same tag, and back-to-back
// executions of identically-shaped plans can never cross-match even when
// reliable delivery reorders a delayed message.

/// Requests posted by [`CommPlan::execute_start`], completed by
/// [`CommPlan::execute_finish`]. Holding one keeps the exchange in flight
/// while the owner computes.
pub struct PlanInFlight {
    sends: Vec<Request>,
    recvs: Vec<Request>,
}

/// `fill` source id of the locally-owned entries.
const LOCAL: u32 = u32::MAX;

/// A reusable data-movement plan from a source map to a list of requested
/// global ids (which may overlap across ranks — that is what makes halo
/// exchange expressible).
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// `(peer, source-local ids to send, in peer's request order)`
    sends: Vec<(usize, Vec<Run>)>,
    /// `(peer, target positions to fill, in my request order)`
    recvs: Vec<(usize, Vec<Run>)>,
    /// Locally-owned requests: `(source lids, target positions)`, the
    /// `k`-th lid landing on the `k`-th position.
    local: (Vec<Run>, Vec<Run>),
    /// Number of target positions (= length of the request list).
    n_target: usize,
    /// The target positions in increasing order, as stretches drawn from
    /// one source: `(LOCAL, source lids)` or `(index into recvs, offsets
    /// within that payload)`. Lets [`Self::execute_to_vec`] construct the
    /// output in order without a `Default` pre-fill.
    fill: Vec<(u32, Vec<Run>)>,
}

/// The indices of a run list, in order.
fn indices(runs: &[Run]) -> impl Iterator<Item = usize> + '_ {
    runs.iter().flat_map(|r| r.indices())
}

impl CommPlan {
    /// Build a gather plan: after execution, `target[i]` holds the value of
    /// global id `needed_gids[i]` taken from `src`-distributed data.
    /// Collective over `comm`.
    pub fn gather(comm: &Comm, src: &DistMap, dir: &Directory, needed_gids: &[usize]) -> CommPlan {
        let p = comm.size();
        let me = comm.rank();
        let owners = dir.owners_of(comm, needed_gids);
        // Group requests by owner. `fill` names remote sources by owner
        // rank until the receive list is known.
        let mut req_gids: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
        let mut req_pos: Vec<Vec<Run>> = (0..p).map(|_| Vec::new()).collect();
        let mut local = (Vec::new(), Vec::new());
        let mut fill: Vec<(u32, Vec<Run>)> = Vec::new();
        for (pos, (&g, &owner)) in needed_gids.iter().zip(owners.iter()).enumerate() {
            let (source, idx) = if owner == me {
                let lid = src.global_to_local(g).unwrap_or_else(|| {
                    panic!("directory says rank {me} owns gid {g}, map disagrees")
                });
                push_index(&mut local.0, lid);
                push_index(&mut local.1, pos);
                (LOCAL, lid)
            } else {
                req_gids[owner].push(g);
                push_index(&mut req_pos[owner], pos);
                (owner as u32, req_gids[owner].len() - 1)
            };
            match fill.last_mut() {
                Some((s, runs)) if *s == source => push_index(runs, idx),
                _ => fill.push((source, compress([idx]))),
            }
        }
        // Tell owners what we need; learn what peers need from us.
        let incoming = comm.alltoallv(req_gids);
        let mut sends = Vec::new();
        for (peer, gids) in incoming.into_iter().enumerate() {
            if gids.is_empty() {
                continue;
            }
            let lids = compress(gids.into_iter().map(|g| {
                src.global_to_local(g)
                    .unwrap_or_else(|| panic!("rank {me} asked for gid {g} it does not own"))
            }));
            sends.push((peer, lids));
        }
        let recvs: Vec<(usize, Vec<Run>)> = req_pos
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        let mut recv_of = vec![LOCAL; p];
        for (ri, &(peer, _)) in recvs.iter().enumerate() {
            recv_of[peer] = ri as u32;
        }
        for (source, _) in fill.iter_mut().filter(|(s, _)| *s != LOCAL) {
            *source = recv_of[*source as usize];
        }
        CommPlan {
            sends,
            recvs,
            local,
            n_target: needed_gids.len(),
            fill,
        }
    }

    /// Build a redistribution plan from `src` to `dst` (an *import*): after
    /// execution, data laid out by `src` is laid out by `dst`.
    pub fn import(comm: &Comm, src: &DistMap, dst: &DistMap, dir: &Directory) -> CommPlan {
        assert_eq!(
            src.n_global(),
            dst.n_global(),
            "import requires equal global sizes"
        );
        Self::gather(comm, src, dir, &dst.my_gids())
    }

    /// Number of entries the target buffer must hold.
    pub fn n_target(&self) -> usize {
        self.n_target
    }

    /// Total values this rank sends when the plan executes.
    pub fn n_sent(&self) -> usize {
        self.sends.iter().map(|(_, l)| run_len(l)).sum()
    }

    /// Number of peer ranks this rank exchanges data with.
    pub fn n_peers(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }

    /// Execute the plan: fill `target` (length [`Self::n_target`]) from
    /// `src_data` (laid out by the source map). Collective. Implemented as
    /// [`Self::execute_start`] + [`Self::execute_finish`] back-to-back; use
    /// the split pair directly to overlap compute with the exchange.
    pub fn execute<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        target: &mut [T],
    ) {
        let inflight = self.execute_start(comm, src_data, target);
        self.execute_finish(comm, inflight, target);
    }

    /// Blocking reference execution: every send settles on the wire before
    /// the local copies, and receives drain in plan order. Semantically
    /// identical to [`Self::execute`]; kept as the baseline the overlap
    /// property tests and experiment E17 compare against.
    pub fn execute_blocking<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        target: &mut [T],
    ) {
        self.execute_combine(comm, src_data, target, |_, v| v)
    }

    /// First half of a split-phase execution: post every outgoing payload
    /// (nonblocking), copy locally-owned entries into `target`, and post
    /// the receives. Target positions requested from this rank's own data
    /// are valid on return; the rest arrive with [`Self::execute_finish`].
    pub fn execute_start<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        target: &mut [T],
    ) -> PlanInFlight {
        self.check_target(target);
        let tag = comm.next_spmd_tag();
        let sends = self.post_sends(comm, src_data, tag);
        copy_runs(target, &self.local.1, src_data, &self.local.0, 1);
        let recvs = self
            .recvs
            .iter()
            .map(|&(peer, _)| comm.irecv(Src::Rank(peer), tag).expect("plan irecv"))
            .collect();
        PlanInFlight { sends, recvs }
    }

    fn check_target<T>(&self, target: &[T]) {
        assert!(
            target.len() >= self.n_target,
            "target buffer too small: {} < {}",
            target.len(),
            self.n_target
        );
    }

    /// Post one outgoing payload nonblocking. Small payloads are encoded
    /// straight into a pooled wire buffer in `Vec<T>` wire format (length
    /// prefix + elements), so steady-state executions allocate nothing on
    /// the send side; payloads at or above the comm's zero-copy threshold
    /// are gathered once into a `Vec<T>` and handed over as a region —
    /// no wire encode, no receive-side decode.
    fn post_one<T: Wire + Copy + Send + Sync + 'static>(
        comm: &Comm,
        src_data: &[T],
        peer: usize,
        lids: &[Run],
        tag: Tag,
    ) -> Request {
        let n = 8 + indices(lids)
            .map(|l| src_data[l].wire_size())
            .sum::<usize>();
        if n >= comm.zerocopy_threshold() {
            let gathered = gather_runs(src_data, lids, 1);
            comm.isend_zc(peer, tag, gathered).expect("plan isend")
        } else {
            let mut buf = comm.take_buf();
            (run_len(lids) as u64).encode(&mut buf);
            for l in indices(lids) {
                src_data[l].encode(&mut buf);
            }
            comm.isend_bytes(peer, tag, buf).expect("plan isend")
        }
    }

    /// Post every outgoing payload nonblocking via [`Self::post_one`].
    fn post_sends<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        tag: Tag,
    ) -> Vec<Request> {
        self.sends
            .iter()
            .map(|&(peer, ref lids)| Self::post_one(comm, src_data, peer, lids, tag))
            .collect()
    }

    /// Scatter one received payload directly into `target` at `positions`:
    /// inserted as is, or folded in with `combine(old, incoming)`.
    /// Wire-path payloads decode straight from the pooled buffer (then
    /// recycle it); region payloads are read in place through the handle,
    /// an insert being one bulk [`copy_runs`]. Neither arm stages an
    /// intermediate copy.
    fn scatter_payload<T, F>(
        comm: &Comm,
        payload: Payload,
        positions: &[Run],
        target: &mut [T],
        combine: Option<&F>,
    ) where
        T: Wire + Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        let land = |target: &mut [T], pos: usize, v: T| {
            target[pos] = match combine {
                Some(f) => f(target[pos], v),
                None => v,
            }
        };
        match payload {
            Payload::Bytes(bytes) => {
                let mut cur = Cursor::new(&bytes);
                let n = u64::decode(&mut cur).expect("plan payload header") as usize;
                assert_eq!(n, run_len(positions), "plan payload mismatch");
                for pos in indices(positions) {
                    land(
                        target,
                        pos,
                        T::decode(&mut cur).expect("plan payload element"),
                    );
                }
                assert_eq!(cur.remaining(), 0, "trailing bytes in plan payload");
                comm.put_buf(bytes);
            }
            Payload::Region(region) => {
                let vals: &Vec<T> = region
                    .downcast_ref()
                    .expect("plan region payload is not Vec<T>");
                assert_eq!(vals.len(), run_len(positions), "plan payload mismatch");
                if combine.is_none() {
                    let whole = Run {
                        start: 0,
                        step: 1,
                        n: vals.len(),
                    };
                    copy_runs(target, positions, vals, &[whole], 1);
                } else {
                    for (pos, &v) in indices(positions).zip(vals) {
                        land(target, pos, v);
                    }
                }
            }
        }
    }

    /// Second half of a split-phase execution: wait for every posted
    /// receive, scatter the payloads into `target`, and settle the sends.
    pub fn execute_finish<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        inflight: PlanInFlight,
        target: &mut [T],
    ) {
        for ((_, positions), req) in self.recvs.iter().zip(inflight.recvs) {
            let (payload, _) = comm
                .wait(req)
                .expect("plan recv")
                .expect("receive completion carries a payload");
            Self::scatter_payload::<T, fn(T, T) -> T>(comm, payload, positions, target, None);
        }
        for req in inflight.sends {
            comm.wait(req).expect("plan send wait");
        }
    }

    /// Execute with an explicit combine: `combine(old_target_value, incoming)`
    /// decides what lands in the target (`|_, v| v` inserts, `|a, b| a + b`
    /// accumulates).
    pub fn execute_combine<T, F>(&self, comm: &Comm, src_data: &[T], target: &mut [T], combine: F)
    where
        T: Wire + Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        self.check_target(target);
        let tag = comm.next_spmd_tag();
        for &(peer, ref lids) in &self.sends {
            let req = Self::post_one(comm, src_data, peer, lids, tag);
            comm.wait(req).expect("plan send");
        }
        for (slid, tpos) in indices(&self.local.0).zip(indices(&self.local.1)) {
            target[tpos] = combine(target[tpos], src_data[slid]);
        }
        for &(peer, ref positions) in &self.recvs {
            let req = comm.irecv(Src::Rank(peer), tag).expect("plan irecv");
            let (payload, _) = comm
                .wait(req)
                .expect("plan recv")
                .expect("receive completion carries a payload");
            Self::scatter_payload(comm, payload, positions, target, Some(&combine));
        }
    }

    /// Convenience: allocate and fill a fresh target buffer. The output
    /// is constructed in order from the plan's per-stretch source table,
    /// so no `Default` pre-fill (and no `Default` bound) is needed.
    pub fn execute_to_vec<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
    ) -> Vec<T> {
        let tag = comm.next_spmd_tag();
        let sends = self.post_sends(comm, src_data, tag);
        let payloads: Vec<Vec<T>> = self
            .recvs
            .iter()
            .map(|&(peer, ref positions)| {
                let req = comm.irecv(Src::Rank(peer), tag).expect("plan irecv");
                let (payload, _) = comm.wait_recv_zc::<Vec<T>>(req).expect("plan recv");
                assert_eq!(payload.len(), run_len(positions), "plan payload mismatch");
                payload
            })
            .collect();
        let mut out = Vec::with_capacity(self.n_target);
        for &(source, ref runs) in &self.fill {
            let from = if source == LOCAL {
                src_data
            } else {
                &payloads[source as usize]
            };
            extend_runs(&mut out, from, runs, 1);
        }
        for req in sends {
            comm.wait(req).expect("plan send wait");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    #[test]
    fn import_block_to_cyclic_roundtrip() {
        Universe::run(3, |comm| {
            let n = 11;
            let src = DistMap::block(n, comm.size(), comm.rank());
            let dst = DistMap::cyclic(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &src);
            let plan = CommPlan::import(comm, &src, &dst, &dir);
            // data[g] = 100 + g, laid out by the block map
            let src_data: Vec<i64> = src.my_gids().iter().map(|&g| 100 + g as i64).collect();
            let out = plan.execute_to_vec(comm, &src_data);
            let expect: Vec<i64> = dst.my_gids().iter().map(|&g| 100 + g as i64).collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn gather_with_overlap_is_halo_exchange() {
        Universe::run(4, |comm| {
            let n = 16;
            let map = DistMap::block(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &map);
            // Each rank wants its own gids plus one ghost on each side.
            let needed = with_1d_ghosts(&map, n);
            let plan = CommPlan::gather(comm, &map, &dir, &needed);
            let src_data: Vec<f64> = map.my_gids().iter().map(|&g| g as f64 * 0.5).collect();
            let out = plan.execute_to_vec(comm, &src_data);
            let expect: Vec<f64> = needed.iter().map(|&g| g as f64 * 0.5).collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn combine_add_accumulates() {
        Universe::run(2, |comm| {
            let n = 4;
            let map = DistMap::block(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &map);
            // Both ranks request gid 0 and gid 3.
            let needed = vec![0usize, 3];
            let plan = CommPlan::gather(comm, &map, &dir, &needed);
            let src_data: Vec<i64> = map.my_gids().iter().map(|&g| g as i64).collect();
            let mut target = vec![10i64; 2];
            plan.execute_combine(comm, &src_data, &mut target, |a, b| a + b);
            assert_eq!(target, vec![10, 13]);
        });
    }

    #[test]
    fn plan_is_reusable() {
        Universe::run(2, |comm| {
            let n = 8;
            let src = DistMap::block(n, comm.size(), comm.rank());
            let dst = DistMap::cyclic(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &src);
            let plan = CommPlan::import(comm, &src, &dst, &dir);
            for round in 0..3i64 {
                let src_data: Vec<i64> = src.my_gids().iter().map(|&g| g as i64 * round).collect();
                let out = plan.execute_to_vec(comm, &src_data);
                let expect: Vec<i64> = dst.my_gids().iter().map(|&g| g as i64 * round).collect();
                assert_eq!(out, expect);
            }
        });
    }

    #[test]
    fn split_phase_matches_blocking_and_fills_local_positions_first() {
        Universe::run(4, |comm| {
            let n = 16;
            let map = DistMap::block(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &map);
            let needed = with_1d_ghosts(&map, n);
            let plan = CommPlan::gather(comm, &map, &dir, &needed);
            let src_data: Vec<f64> = map.my_gids().iter().map(|&g| g as f64 * 0.5).collect();

            let mut blocking = vec![0.0f64; plan.n_target()];
            plan.execute_blocking(comm, &src_data, &mut blocking);

            let mut overlapped = vec![f64::NAN; plan.n_target()];
            let inflight = plan.execute_start(comm, &src_data, &mut overlapped);
            // Positions requested from this rank's own data are already
            // valid mid-flight; ghost positions are still untouched.
            let mut ghosts = 0;
            for (pos, &g) in needed.iter().enumerate() {
                if map.global_to_local(g).is_some() {
                    assert_eq!(overlapped[pos].to_bits(), blocking[pos].to_bits());
                } else {
                    assert!(overlapped[pos].is_nan());
                    ghosts += 1;
                }
            }
            comm.advance_compute(1.0e4);
            plan.execute_finish(comm, inflight, &mut overlapped);
            for (a, b) in overlapped.iter().zip(&blocking) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // One ghost per side except at the ends.
            assert_eq!(ghosts, plan.n_target() - map.my_count());
        });
    }

    #[test]
    fn conformable_import_moves_nothing() {
        Universe::run(3, |comm| {
            let n = 10;
            let map = DistMap::block(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &map);
            let plan = CommPlan::import(comm, &map, &map, &dir);
            assert_eq!(plan.n_sent(), 0);
            assert_eq!(plan.n_peers(), 0);
        });
    }

    #[test]
    fn arbitrary_source_map_works() {
        Universe::run(3, |comm| {
            let n = 12;
            let p = comm.size();
            // scrambled ownership
            let gids: Vec<usize> = (0..n).filter(|g| (g * 5 + 1) % p == comm.rank()).collect();
            let src = DistMap::from_my_gids(comm, gids);
            let dst = DistMap::block(n, p, comm.rank());
            let dir = Directory::build(comm, &src);
            let plan = CommPlan::import(comm, &src, &dst, &dir);
            let src_data: Vec<u64> = src.my_gids().iter().map(|&g| g as u64 * 3).collect();
            let out = plan.execute_to_vec(comm, &src_data);
            let expect: Vec<u64> = dst.my_gids().iter().map(|&g| g as u64 * 3).collect();
            assert_eq!(out, expect);
        });
    }

    /// My gids plus one ghost on each side (a 1-D stencil's column list).
    fn with_1d_ghosts(map: &DistMap, n: usize) -> Vec<usize> {
        let mut needed = map.my_gids();
        if let Some(&f) = needed.first() {
            if f > 0 {
                needed.insert(0, f - 1);
            }
        }
        if let Some(&l) = needed.last() {
            if l + 1 < n {
                needed.push(l + 1);
            }
        }
        needed
    }

    /// Rank `r` of `p` owns the gids with `(5g + 1) mod p == r`.
    fn scrambled(comm: &Comm, n: usize) -> DistMap {
        let p = comm.size();
        let gids = (0..n).filter(|g| (g * 5 + 1) % p == comm.rank()).collect();
        DistMap::from_my_gids(comm, gids)
    }

    /// The plan shapes the run tests sweep: `(name, source map, request list)`.
    fn plan_cases(comm: &Comm) -> Vec<(&'static str, DistMap, Vec<usize>)> {
        let (p, me, n) = (comm.size(), comm.rank(), 53);
        let block = DistMap::block(n, p, me);
        let mut unordered = with_1d_ghosts(&block, n);
        unordered.reverse();
        unordered.extend([n - 1, 0, n / 2, 0]);
        vec![
            (
                "block->cyclic",
                block.clone(),
                DistMap::cyclic(n, p, me).my_gids(),
            ),
            (
                "block->blockcyclic",
                block.clone(),
                DistMap::block_cyclic(n, 3, p, me).my_gids(),
            ),
            ("scrambled->block", scrambled(comm, n), block.my_gids()),
            ("halo", block.clone(), with_1d_ghosts(&block, n)),
            ("ghost-only halo", block.clone(), {
                let mine = block.my_gids();
                let mut g = with_1d_ghosts(&block, n);
                g.retain(|g| !mine.contains(g));
                g
            }),
            ("unordered with repeats", block, unordered),
        ]
    }

    /// The one-index-per-element tables `CommPlan` held before it was
    /// built on runs, derived independently of `gather`.
    struct IndexLists {
        sends: Vec<(usize, Vec<usize>)>,
        recvs: Vec<(usize, Vec<usize>)>,
        local: Vec<(usize, usize)>,
        /// per target position: `(LOCAL, lid)` or `(recv index, offset)`
        fill: Vec<(u32, usize)>,
    }

    fn index_lists(comm: &Comm, src: &DistMap, dir: &Directory, needed: &[usize]) -> IndexLists {
        let (p, me) = (comm.size(), comm.rank());
        let owners = dir.owners_of(comm, needed);
        let mut req_gids = vec![Vec::new(); p];
        let mut req_pos = vec![Vec::new(); p];
        let mut local = Vec::new();
        for (pos, (&g, &owner)) in needed.iter().zip(&owners).enumerate() {
            if owner == me {
                local.push((src.global_to_local(g).unwrap(), pos));
            } else {
                req_gids[owner].push(g);
                req_pos[owner].push(pos);
            }
        }
        let sends = (comm.alltoallv(req_gids).into_iter().enumerate())
            .filter(|(_, gids)| !gids.is_empty())
            .map(|(peer, gids)| {
                let lids = gids.iter().map(|&g| src.global_to_local(g).unwrap());
                (peer, lids.collect())
            })
            .collect();
        let recvs: Vec<(usize, Vec<usize>)> = (req_pos.into_iter().enumerate())
            .filter(|(_, v)| !v.is_empty())
            .collect();
        let mut fill = vec![(0, 0); needed.len()];
        for &(lid, pos) in &local {
            fill[pos] = (LOCAL, lid);
        }
        for (ri, (_, positions)) in recvs.iter().enumerate() {
            for (off, &pos) in positions.iter().enumerate() {
                fill[pos] = (ri as u32, off);
            }
        }
        IndexLists {
            sends,
            recvs,
            local,
            fill,
        }
    }

    fn expand(lists: &[(usize, Vec<Run>)]) -> Vec<(usize, Vec<usize>)> {
        (lists.iter())
            .map(|(peer, runs)| (*peer, indices(runs).collect()))
            .collect()
    }

    #[test]
    fn run_lists_expand_to_the_per_element_index_lists() {
        for p in 1..=4 {
            Universe::run(p, |comm| {
                for (name, src, needed) in plan_cases(comm) {
                    let dir = Directory::build(comm, &src);
                    let plan = CommPlan::gather(comm, &src, &dir, &needed);
                    let want = index_lists(comm, &src, &dir, &needed);
                    assert_eq!(expand(&plan.sends), want.sends, "{name} p={p}");
                    assert_eq!(expand(&plan.recvs), want.recvs, "{name} p={p}");
                    let local: Vec<(usize, usize)> =
                        indices(&plan.local.0).zip(indices(&plan.local.1)).collect();
                    assert_eq!(local, want.local, "{name} p={p}");
                    assert_eq!(run_len(&plan.local.0), run_len(&plan.local.1));
                    let fill: Vec<(u32, usize)> = (plan.fill.iter())
                        .flat_map(|(s, runs)| indices(runs).map(|i| (*s, i)))
                        .collect();
                    assert_eq!(fill, want.fill, "{name} p={p}");
                    assert_eq!(plan.n_target(), needed.len());
                    let n_sent: usize = want.sends.iter().map(|(_, l)| l.len()).sum();
                    assert_eq!(plan.n_sent(), n_sent);
                }
            });
        }
    }

    #[test]
    fn structured_plans_are_a_few_runs_per_peer() {
        for p in 2..=4 {
            Universe::run(p, |comm| {
                let (n, me) = (1 << 12, comm.rank());
                let block = DistMap::block(n, p, me);
                let dir = Directory::build(comm, &block);
                let to_cyclic = CommPlan::import(comm, &block, &DistMap::cyclic(n, p, me), &dir);
                for (_, runs) in to_cyclic.sends.iter().chain(&to_cyclic.recvs) {
                    assert_eq!(runs.len(), 1, "one strided run per peer");
                }
                assert_eq!(to_cyclic.fill.len(), p);
            });
        }
    }

    /// The ghost columns of `galeri::laplace_2d(nx, nx)` under a block
    /// row map: every 5-point neighbour another rank owns, increasing.
    fn laplace_2d_ghosts(map: &DistMap, nx: usize) -> Vec<usize> {
        let mut ghosts = Vec::new();
        for g in map.my_gids() {
            let (i, j) = (g / nx, g % nx);
            let nbrs = [
                (i > 0).then(|| g - nx),
                (j > 0).then(|| g - 1),
                (j + 1 < nx).then(|| g + 1),
                (i + 1 < nx).then(|| g + nx),
            ];
            ghosts
                .extend((nbrs.into_iter().flatten()).filter(|&c| map.global_to_local(c).is_none()));
        }
        ghosts.sort_unstable();
        ghosts.dedup();
        ghosts
    }

    #[test]
    fn laplace_2d_halo_plan_holds_at_most_two_runs_per_peer() {
        for p in 2..=4 {
            Universe::run(p, |comm| {
                let nx = 128;
                let map = DistMap::block(nx * nx, p, comm.rank());
                let dir = Directory::build(comm, &map);
                let ghosts = laplace_2d_ghosts(&map, nx);
                let plan = CommPlan::gather(comm, &map, &dir, &ghosts);
                assert!(plan.n_peers() > 0);
                for (peer, runs) in plan.sends.iter().chain(&plan.recvs) {
                    assert!(runs.len() <= 2, "peer {peer}: {runs:?}");
                }
                assert!(plan.local.0.is_empty() && plan.local.1.is_empty());
                assert_eq!(plan.fill.len(), plan.recvs.len());
            });
        }
    }

    #[test]
    fn every_execution_form_agrees_on_both_payload_arms() {
        let value = |g: usize| (g as f64 * 0.37).sin();
        for threshold in [1, usize::MAX] {
            for p in 1..=4 {
                let cfg = comm::UniverseConfig::default().with_zerocopy_threshold(threshold);
                Universe::run_report(cfg, p, |comm| {
                    for (name, src, needed) in plan_cases(comm) {
                        let ctx = format!("{name} p={p} threshold={threshold}");
                        let dir = Directory::build(comm, &src);
                        let plan = CommPlan::gather(comm, &src, &dir, &needed);
                        let data: Vec<f64> = src.my_gids().into_iter().map(value).collect();
                        let want: Vec<u64> = needed.iter().map(|&g| value(g).to_bits()).collect();
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

                        let mut out = vec![f64::NAN; needed.len()];
                        plan.execute(comm, &data, &mut out);
                        assert_eq!(bits(&out), want, "execute: {ctx}");

                        let mut out = vec![f64::NAN; needed.len()];
                        let inflight = plan.execute_start(comm, &data, &mut out);
                        comm.advance_compute(1.0e3);
                        plan.execute_finish(comm, inflight, &mut out);
                        assert_eq!(bits(&out), want, "start/finish: {ctx}");

                        let mut out = vec![f64::NAN; needed.len()];
                        plan.execute_blocking(comm, &data, &mut out);
                        assert_eq!(bits(&out), want, "blocking: {ctx}");

                        assert_eq!(
                            bits(&plan.execute_to_vec(comm, &data)),
                            want,
                            "to_vec: {ctx}"
                        );

                        let base = |i: usize| 10.0 * i as f64;
                        let mut out: Vec<f64> = (0..needed.len()).map(base).collect();
                        plan.execute_combine(comm, &data, &mut out, |a, b| a + b);
                        let sum: Vec<f64> = (needed.iter().enumerate())
                            .map(|(i, &g)| base(i) + value(g))
                            .collect();
                        assert_eq!(bits(&out), bits(&sum), "combine(+): {ctx}");
                    }
                });
            }
        }
    }
}
