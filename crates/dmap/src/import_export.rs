//! Precomputed communication plans (Tpetra `Import`/`Export` analog).
//!
//! A [`CommPlan`] records, once, which local entries must be sent to which
//! peers and where received entries land; executing the plan then moves any
//! `Wire`-encodable element type with no further index arithmetic. The same
//! mechanism serves three paper use-cases:
//!
//! * redistribution between two maps (non-conformable binary ufuncs, E4),
//! * halo/ghost gathers for SpMV and shifted-slice arithmetic (E5),
//! * reverse "export" with combine modes for accumulating contributions.

use comm::{Comm, Cursor, Payload, Request, Src, Tag, Wire};

use crate::directory::Directory;
use crate::map::DistMap;

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

/// A reusable data-movement plan from a source map to a list of requested
/// global ids (which may overlap across ranks — that is what makes halo
/// exchange expressible).
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// `(peer, source-local ids to send, in peer's request order)`
    sends: Vec<(usize, Vec<usize>)>,
    /// `(peer, target positions to fill, in my request order)`
    recvs: Vec<(usize, Vec<usize>)>,
    /// `(source lid, target position)` for locally-owned requests
    local: Vec<(usize, usize)>,
    /// Number of target positions (= length of the request list).
    n_target: usize,
    /// Per target position, where its value comes from:
    /// `(u32::MAX, source lid)` for locally-owned entries, or
    /// `(index into recvs, offset within that payload)`. Lets
    /// [`Self::execute_to_vec`] construct the output in order without
    /// a `Default` pre-fill.
    fill_src: Vec<(u32, u32)>,
}

impl CommPlan {
    /// Build a gather plan: after execution, `target[i]` holds the value of
    /// global id `needed_gids[i]` taken from `src`-distributed data.
    /// Collective over `comm`.
    pub fn gather(comm: &Comm, src: &DistMap, dir: &Directory, needed_gids: &[usize]) -> CommPlan {
        let p = comm.size();
        let me = comm.rank();
        let owners = dir.owners_of(comm, needed_gids);
        // Group requests by owner.
        let mut req_gids: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
        let mut req_pos: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
        let mut local = Vec::new();
        for (pos, (&g, &owner)) in needed_gids.iter().zip(owners.iter()).enumerate() {
            if owner == me {
                let lid = src.global_to_local(g).unwrap_or_else(|| {
                    panic!("directory says rank {me} owns gid {g}, map disagrees")
                });
                local.push((lid, pos));
            } else {
                req_gids[owner].push(g);
                req_pos[owner].push(pos);
            }
        }
        // Tell owners what we need; learn what peers need from us.
        let incoming = comm.alltoallv(req_gids);
        let mut sends = Vec::new();
        for (peer, gids) in incoming.into_iter().enumerate() {
            if gids.is_empty() {
                continue;
            }
            let lids = gids
                .into_iter()
                .map(|g| {
                    src.global_to_local(g)
                        .unwrap_or_else(|| panic!("rank {me} asked for gid {g} it does not own"))
                })
                .collect();
            sends.push((peer, lids));
        }
        let recvs: Vec<(usize, Vec<usize>)> = req_pos
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        // Invert the position lists: every target position is covered by
        // exactly one local copy or one received payload slot.
        let mut fill_src = vec![(0u32, 0u32); needed_gids.len()];
        for &(lid, pos) in &local {
            fill_src[pos] = (u32::MAX, lid as u32);
        }
        for (pi, (_, positions)) in recvs.iter().enumerate() {
            for (off, &pos) in positions.iter().enumerate() {
                fill_src[pos] = (pi as u32, off as u32);
            }
        }
        CommPlan {
            sends,
            recvs,
            local,
            n_target: needed_gids.len(),
            fill_src,
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
        self.sends.iter().map(|(_, l)| l.len()).sum()
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
    /// the receives. The caller may then compute on any target position for
    /// which [`Self::locally_satisfied`] is true before calling
    /// [`Self::execute_finish`].
    pub fn execute_start<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        target: &mut [T],
    ) -> PlanInFlight {
        assert!(
            target.len() >= self.n_target,
            "target buffer too small: {} < {}",
            target.len(),
            self.n_target
        );
        let tag = comm.next_spmd_tag();
        let sends = self.post_sends(comm, src_data, tag);
        for &(slid, tpos) in &self.local {
            target[tpos] = src_data[slid];
        }
        let recvs = self
            .recvs
            .iter()
            .map(|&(peer, _)| comm.irecv(Src::Rank(peer), tag).expect("plan irecv"))
            .collect();
        PlanInFlight { sends, recvs }
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
        lids: &[usize],
        tag: Tag,
    ) -> Request {
        let n = 8 + lids.iter().map(|&l| src_data[l].wire_size()).sum::<usize>();
        if n >= comm.zerocopy_threshold() {
            let gathered: Vec<T> = lids.iter().map(|&l| src_data[l]).collect();
            comm.isend_zc(peer, tag, gathered).expect("plan isend")
        } else {
            let mut buf = comm.take_buf();
            (lids.len() as u64).encode(&mut buf);
            for &l in lids {
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

    /// Scatter one received payload directly into `target` at `positions`.
    /// Wire-path payloads decode straight from the pooled buffer (then
    /// recycle it); region payloads are read in place through the handle.
    /// Neither arm stages an intermediate copy.
    fn scatter_payload<T, F>(
        comm: &Comm,
        payload: Payload,
        positions: &[usize],
        target: &mut [T],
        combine: F,
    ) where
        T: Wire + Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        match payload {
            Payload::Bytes(bytes) => {
                let mut cur = Cursor::new(&bytes);
                let n = u64::decode(&mut cur).expect("plan payload header") as usize;
                assert_eq!(n, positions.len(), "plan payload mismatch");
                for &pos in positions {
                    let v = T::decode(&mut cur).expect("plan payload element");
                    target[pos] = combine(target[pos], v);
                }
                assert_eq!(cur.remaining(), 0, "trailing bytes in plan payload");
                comm.put_buf(bytes);
            }
            Payload::Region(region) => {
                let vals: &Vec<T> = region
                    .downcast_ref()
                    .expect("plan region payload is not Vec<T>");
                assert_eq!(vals.len(), positions.len(), "plan payload mismatch");
                for (&pos, &v) in positions.iter().zip(vals.iter()) {
                    target[pos] = combine(target[pos], v);
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
            Self::scatter_payload(comm, payload, positions, target, |_, v| v);
        }
        for req in inflight.sends {
            comm.wait(req).expect("plan send wait");
        }
    }

    /// Which target positions are filled with no communication (by the
    /// local-copy phase of [`Self::execute_start`]). This is the
    /// interior/boundary partition overlapped SpMV builds on: rows whose
    /// every input position is locally satisfied can be computed while the
    /// exchange is in flight.
    pub fn locally_satisfied(&self) -> Vec<bool> {
        let mut out = vec![false; self.n_target];
        for &(_, tpos) in &self.local {
            out[tpos] = true;
        }
        out
    }

    /// Execute with an explicit combine: `combine(old_target_value, incoming)`
    /// decides what lands in the target (`|_, v| v` inserts, `|a, b| a + b`
    /// accumulates).
    pub fn execute_combine<T, F>(&self, comm: &Comm, src_data: &[T], target: &mut [T], combine: F)
    where
        T: Wire + Copy + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        assert!(
            target.len() >= self.n_target,
            "target buffer too small: {} < {}",
            target.len(),
            self.n_target
        );
        let tag = comm.next_spmd_tag();
        for &(peer, ref lids) in &self.sends {
            let req = Self::post_one(comm, src_data, peer, lids, tag);
            comm.wait(req).expect("plan send");
        }
        for &(slid, tpos) in &self.local {
            target[tpos] = combine(target[tpos], src_data[slid]);
        }
        for &(peer, ref positions) in &self.recvs {
            let req = comm.irecv(Src::Rank(peer), tag).expect("plan irecv");
            let (payload, _) = comm
                .wait(req)
                .expect("plan recv")
                .expect("receive completion carries a payload");
            Self::scatter_payload(comm, payload, positions, target, &combine);
        }
    }

    /// Convenience: allocate and fill a fresh target buffer. The output
    /// is constructed in order from the plan's per-position source table,
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
                assert_eq!(payload.len(), positions.len(), "plan payload mismatch");
                payload
            })
            .collect();
        let mut out = Vec::with_capacity(self.n_target);
        for &(peer, idx) in &self.fill_src {
            out.push(if peer == u32::MAX {
                src_data[idx as usize]
            } else {
                payloads[peer as usize][idx as usize]
            });
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
            let mut needed = map.my_gids();
            let first = needed.first().copied();
            let last = needed.last().copied();
            if let Some(f) = first {
                if f > 0 {
                    needed.insert(0, f - 1);
                }
            }
            if let Some(l) = last {
                if l + 1 < n {
                    needed.push(l + 1);
                }
            }
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
    fn split_phase_matches_blocking_and_reports_local_positions() {
        Universe::run(4, |comm| {
            let n = 16;
            let map = DistMap::block(n, comm.size(), comm.rank());
            let dir = Directory::build(comm, &map);
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
            let plan = CommPlan::gather(comm, &map, &dir, &needed);
            let src_data: Vec<f64> = map.my_gids().iter().map(|&g| g as f64 * 0.5).collect();

            let mut blocking = vec![0.0f64; plan.n_target()];
            plan.execute_blocking(comm, &src_data, &mut blocking);

            let mut overlapped = vec![0.0f64; plan.n_target()];
            let inflight = plan.execute_start(comm, &src_data, &mut overlapped);
            // Local positions are already valid mid-flight.
            let local = plan.locally_satisfied();
            for (pos, &is_local) in local.iter().enumerate() {
                if is_local {
                    assert_eq!(overlapped[pos].to_bits(), blocking[pos].to_bits());
                }
            }
            comm.advance_compute(1.0e4);
            plan.execute_finish(comm, inflight, &mut overlapped);
            for (a, b) in overlapped.iter().zip(&blocking) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Ghost positions (one per side except at the ends) are not local.
            let ghosts = local.iter().filter(|&&x| !x).count();
            assert_eq!(ghosts, plan.n_target() - map.my_gids().len());
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
}
