//! Precomputed communication plans (Tpetra `Import`/`Export` analog).
//!
//! A [`CommPlan`] records, once, which local rows must be sent to which
//! peers and where received rows land; executing the plan then moves any
//! `Wire`-encodable element type with no further index arithmetic. Every
//! index list is held as strided [`Run`]s of `width`-element rows and
//! moved with [`gather_runs`] / [`copy_runs`], so a stencil halo is one
//! run per peer and a Block→Cyclic import one strided run per peer. It is
//! the only exchange executor outside `comm`, and serves four use-cases:
//!
//! * redistribution between two maps (non-conformable binary ufuncs, E4),
//! * halo/ghost gathers for SpMV and shifted-slice arithmetic (E5),
//! * reverse "export" with combine modes for accumulating contributions,
//! * ODIN array slices, redistributes and concats, which hand
//!   [`CommPlan::from_runs`] the per-peer rows they worked out locally.

use comm::{Comm, Cursor, Payload, Request, Src, Tag, Wire};

use crate::directory::Directory;
use crate::map::DistMap;
use crate::runs::{compress, copy_runs, gather_runs, push_index, run_len, Run};

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

/// A reusable data-movement plan from source rows to target rows (which
/// may repeat a source row across ranks — that is what makes halo
/// exchange expressible).
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// `(peer, source rows to send, in the order the peer places them)`
    sends: Vec<(usize, Vec<Run>)>,
    /// `(peer, target rows its payload fills, in payload order)`
    recvs: Vec<(usize, Vec<Run>)>,
    /// Rows that stay on this rank: `(source rows, target rows)`, the
    /// `k`-th source row landing on the `k`-th target row.
    local: (Vec<Run>, Vec<Run>),
    /// Number of target rows the plan fills.
    n_target: usize,
    /// Elements per row on both sides.
    width: usize,
}

/// The indices of a run list, in order.
fn indices(runs: &[Run]) -> impl Iterator<Item = usize> + '_ {
    runs.iter().flat_map(|r| r.indices())
}

impl CommPlan {
    /// Build a plan from rows each rank worked out for itself — no
    /// communication. `send[r]` lists the source rows shipped to rank `r`
    /// and `recv[r]` the target rows rank `r`'s shipment fills (entry `me`
    /// of both is the copy that stays here); a row is `width` elements.
    /// The two ends of a transfer must enumerate its rows in the same
    /// order, which they do when both walk them by increasing global id.
    pub fn from_runs(me: usize, send: Vec<Vec<Run>>, recv: Vec<Vec<Run>>, width: usize) -> Self {
        assert_eq!(
            send.len(),
            recv.len(),
            "one send and one recv list per rank"
        );
        assert_eq!(
            run_len(&send[me]),
            run_len(&recv[me]),
            "local copy length mismatch"
        );
        let n_target = recv.iter().map(|r| run_len(r)).sum();
        let mut local = (Vec::new(), Vec::new());
        let keep = |lists: Vec<Vec<Run>>, mine: &mut Vec<Run>| {
            let mut remote = Vec::new();
            for (peer, runs) in lists.into_iter().enumerate() {
                if peer == me {
                    *mine = runs;
                } else if run_len(&runs) > 0 {
                    remote.push((peer, runs));
                }
            }
            remote
        };
        CommPlan {
            sends: keep(send, &mut local.0),
            recvs: keep(recv, &mut local.1),
            local,
            n_target,
            width,
        }
    }

    /// Build a gather plan: after execution, `target[i]` holds the value of
    /// global id `needed_gids[i]` taken from `src`-distributed data.
    /// Collective over `comm`.
    pub fn gather(comm: &Comm, src: &DistMap, dir: &Directory, needed_gids: &[usize]) -> CommPlan {
        let p = comm.size();
        let me = comm.rank();
        let owners = dir.owners_of(comm, needed_gids);
        // Group requests by owner.
        let mut req_gids: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
        let mut req_pos: Vec<Vec<Run>> = (0..p).map(|_| Vec::new()).collect();
        let mut local = (Vec::new(), Vec::new());
        for (pos, (&g, &owner)) in needed_gids.iter().zip(owners.iter()).enumerate() {
            if owner == me {
                let lid = src.global_to_local(g).unwrap_or_else(|| {
                    panic!("directory says rank {me} owns gid {g}, map disagrees")
                });
                push_index(&mut local.0, lid);
                push_index(&mut local.1, pos);
            } else {
                req_gids[owner].push(g);
                push_index(&mut req_pos[owner], pos);
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
        let recvs = req_pos
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        CommPlan {
            sends,
            recvs,
            local,
            n_target: needed_gids.len(),
            width: 1,
        }
    }

    /// Build a redistribution plan from `src` to `dst` (an *import*): after
    /// execution, data laid out by `src` is laid out by `dst`. When both
    /// maps answer owner lookups locally ([`DistMap::has_global_view`])
    /// the plan is pure index arithmetic — each rank walks its own rows of
    /// either map in increasing global order — and nothing is sent;
    /// otherwise collective over `comm` like [`Self::gather`].
    pub fn import(comm: &Comm, src: &DistMap, dst: &DistMap, dir: &Directory) -> CommPlan {
        assert_eq!(
            src.n_global(),
            dst.n_global(),
            "import requires equal global sizes"
        );
        if !(src.has_global_view() && dst.has_global_view()) {
            return Self::gather(comm, src, dir, &dst.my_gids());
        }
        let rows_by_peer = |mine: &DistMap, other: &DistMap| {
            let mut lists = vec![Vec::new(); comm.size()];
            for l in 0..mine.my_count() {
                let peer = other.owner_of(mine.local_to_global(l));
                push_index(&mut lists[peer.expect("structured map")], l);
            }
            lists
        };
        Self::from_runs(
            comm.rank(),
            rows_by_peer(src, dst),
            rows_by_peer(dst, src),
            1,
        )
    }

    /// Number of elements the target buffer must hold.
    pub fn n_target(&self) -> usize {
        self.n_target * self.width
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
        self.check_target(target);
        let tag = comm.next_spmd_tag();
        for &(peer, ref rows) in &self.sends {
            let req = self.post_one(comm, src_data, peer, rows, tag);
            comm.wait(req).expect("plan send");
        }
        copy_runs(target, &self.local.1, src_data, &self.local.0, self.width);
        for &(peer, ref positions) in &self.recvs {
            let req = comm.irecv(Src::Rank(peer), tag).expect("plan irecv");
            self.land(comm, req, positions, target);
        }
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
        let sends = self
            .sends
            .iter()
            .map(|&(peer, ref rows)| self.post_one(comm, src_data, peer, rows, tag))
            .collect();
        copy_runs(target, &self.local.1, src_data, &self.local.0, self.width);
        let recvs = self
            .recvs
            .iter()
            .map(|&(peer, _)| comm.irecv(Src::Rank(peer), tag).expect("plan irecv"))
            .collect();
        PlanInFlight { sends, recvs }
    }

    fn check_target<T>(&self, target: &[T]) {
        assert!(
            target.len() >= self.n_target(),
            "target buffer too small: {} < {}",
            target.len(),
            self.n_target()
        );
    }

    /// Post one outgoing payload nonblocking. Small payloads are encoded
    /// straight into a pooled wire buffer in `Vec<T>` wire format (length
    /// prefix + elements), so steady-state executions allocate nothing on
    /// the send side; payloads at or above the comm's zero-copy threshold
    /// are gathered once into a `Vec<T>` and handed over as a region —
    /// no wire encode, no receive-side decode. The arm is chosen from the
    /// payload's size, which costs no pass over it: the lanes plans move
    /// (`Copy` scalars) all encode to as many bytes as the first.
    fn post_one<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        src_data: &[T],
        peer: usize,
        rows: &[Run],
        tag: Tag,
    ) -> Request {
        let w = self.width;
        let n_elems = run_len(rows) * w;
        let n = 8 + n_elems * src_data.first().map_or(0, Wire::wire_size);
        if n >= comm.zerocopy_threshold() {
            let gathered = gather_runs(src_data, rows, w);
            comm.isend_zc(peer, tag, gathered).expect("plan isend")
        } else {
            let mut buf = comm.take_buf();
            (n_elems as u64).encode(&mut buf);
            for row in indices(rows) {
                for v in &src_data[row * w..(row + 1) * w] {
                    v.encode(&mut buf);
                }
            }
            debug_assert_eq!(buf.len(), n, "plan lanes must be fixed-width on the wire");
            comm.isend_bytes(peer, tag, buf).expect("plan isend")
        }
    }

    /// Wait for one posted receive and scatter its payload directly into
    /// `target` at the rows `positions`. Wire-path payloads decode
    /// straight from the pooled buffer (then recycle it); region payloads
    /// are read in place through the handle, one bulk [`copy_runs`].
    /// Neither arm stages an intermediate copy.
    fn land<T: Wire + Copy + Send + Sync + 'static>(
        &self,
        comm: &Comm,
        req: Request,
        positions: &[Run],
        target: &mut [T],
    ) {
        let (payload, _) = comm
            .wait(req)
            .expect("plan recv")
            .expect("receive completion carries a payload");
        let w = self.width;
        let n_elems = run_len(positions) * w;
        match payload {
            Payload::Bytes(bytes) => {
                let mut cur = Cursor::new(&bytes);
                let n = u64::decode(&mut cur).expect("plan payload header") as usize;
                assert_eq!(n, n_elems, "plan payload mismatch");
                // Element positions of the rows, in payload order.
                for pos in indices(positions).flat_map(|row| row * w..(row + 1) * w) {
                    target[pos] = T::decode(&mut cur).expect("plan payload element");
                }
                assert_eq!(cur.remaining(), 0, "trailing bytes in plan payload");
                comm.put_buf(bytes);
            }
            Payload::Region(region) => {
                let vals: &Vec<T> = region
                    .downcast_ref()
                    .expect("plan region payload is not Vec<T>");
                assert_eq!(vals.len(), n_elems, "plan payload mismatch");
                let whole = Run {
                    start: 0,
                    step: 1,
                    n: run_len(positions),
                };
                copy_runs(target, positions, vals, &[whole], w);
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
            self.land(comm, req, positions, target);
        }
        for req in inflight.sends {
            comm.wait(req).expect("plan send wait");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::Universe;

    /// Execute into a freshly allocated target.
    fn run<T: Wire + Copy + Default + Send + Sync + 'static>(
        plan: &CommPlan,
        comm: &Comm,
        src_data: &[T],
    ) -> Vec<T> {
        let mut out = vec![T::default(); plan.n_target()];
        plan.execute(comm, src_data, &mut out);
        out
    }

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
            let out = run(&plan, comm, &src_data);
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
            let out = run(&plan, comm, &src_data);
            let expect: Vec<f64> = needed.iter().map(|&g| g as f64 * 0.5).collect();
            assert_eq!(out, expect);
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
                let out = run(&plan, comm, &src_data);
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
            assert!(plan.sends.is_empty() && plan.recvs.is_empty());
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
            let out = run(&plan, comm, &src_data);
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
        IndexLists {
            sends,
            recvs,
            local,
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
                    assert_eq!(plan.n_target(), needed.len());
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
            });
        }
    }

    #[test]
    fn local_import_build_matches_the_collective_one_and_sends_nothing() {
        let layouts = |n: usize, p: usize, me: usize| {
            [
                DistMap::block(n, p, me),
                DistMap::cyclic(n, p, me),
                DistMap::block_cyclic(n, 1, p, me),
                DistMap::block_cyclic(n, 3, p, me),
                DistMap::block_cyclic(n, 64, p, me),
            ]
        };
        for threshold in [1, usize::MAX] {
            for p in 1..=5 {
                let cfg = comm::UniverseConfig::default().with_zerocopy_threshold(threshold);
                Universe::run_report(cfg, p, |comm| {
                    let me = comm.rank();
                    for (n, src, dst) in [3, 203].into_iter().flat_map(|n| {
                        let pairs = layouts(n, p, me).into_iter().flat_map(move |src| {
                            layouts(n, p, me).map(|dst| (n, src.clone(), dst))
                        });
                        pairs.collect::<Vec<_>>()
                    }) {
                        let ctx = format!("{src:?} -> {dst:?} threshold={threshold}");
                        let dir = Directory::build(comm, &src);
                        let sent = comm.stats().msgs_sent;
                        let local = CommPlan::import(comm, &src, &dst, &dir);
                        assert_eq!(comm.stats().msgs_sent, sent, "built silently: {ctx}");
                        let collective = CommPlan::gather(comm, &src, &dir, &dst.my_gids());
                        assert_eq!(expand(&local.sends), expand(&collective.sends), "{ctx}");
                        assert_eq!(expand(&local.recvs), expand(&collective.recvs), "{ctx}");
                        assert_eq!(local.n_target, dst.my_count(), "{ctx}");
                        for width in [1, 3] {
                            let lanes = |map: &DistMap| -> Vec<u64> {
                                let gids = map.my_gids().into_iter();
                                gids.flat_map(|g| (0..width).map(move |k| (g * width + k) as u64))
                                    .collect()
                            };
                            for (how, plan) in [("local", &local), ("collective", &collective)] {
                                let plan = CommPlan {
                                    width,
                                    ..plan.clone()
                                };
                                assert_eq!(plan.n_target(), dst.my_count() * width);
                                let out = run(&plan, comm, &lanes(&src));
                                assert_eq!(out, lanes(&dst), "{how} width={width}: {ctx} n={n}");
                            }
                        }
                    }
                });
            }
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
                assert!(!plan.sends.is_empty() && !plan.recvs.is_empty());
                for (peer, runs) in plan.sends.iter().chain(&plan.recvs) {
                    assert!(runs.len() <= 2, "peer {peer}: {runs:?}");
                }
                assert!(plan.local.0.is_empty() && plan.local.1.is_empty());
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
                    }
                });
            }
        }
    }
}
