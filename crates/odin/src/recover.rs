//! Fault recovery and elastic resizing of the worker pool: master-side
//! checkpoints ([`OdinCheckpoint`]) and the respawn-and-replay paths
//! ([`OdinContext::recover`], [`OdinContext::resize`]).

use crate::buffer::Buffer;
use crate::context::{spawn_pool, OdinContext};
use crate::error::RecoveryReport;
use crate::protocol::{ArrayMeta, Cmd};

/// A master-side snapshot of selected arrays: id, metadata and the full
/// gathered data, taken with [`OdinContext::checkpoint`] and replayed by
/// [`OdinContext::recover`] after a worker death.
pub struct OdinCheckpoint {
    arrays: Vec<(u64, ArrayMeta, Buffer)>,
}

impl OdinCheckpoint {
    /// A checkpoint covering no arrays. [`OdinContext::recover`] with an
    /// empty checkpoint still respawns the pool and replays the local-fn
    /// and kernel registries — the right input when every live array is
    /// reconstructible from its job spec (the serving plane's case).
    pub fn empty() -> Self {
        OdinCheckpoint { arrays: Vec::new() }
    }
}

impl Default for OdinCheckpoint {
    fn default() -> Self {
        Self::empty()
    }
}

impl OdinContext {
    /// Snapshot the listed arrays to the master: full gathered data plus
    /// metadata, enough for [`Self::recover`] to replay every segment onto
    /// a fresh pool after a worker death.
    pub fn checkpoint(&self, arrays: &[&crate::array::DistArray<'_>]) -> OdinCheckpoint {
        let snap = arrays
            .iter()
            .map(|a| {
                let (_, data) = a.fetch();
                (a.id(), a.meta(), data)
            })
            .collect();
        OdinCheckpoint { arrays: snap }
    }

    /// Respawn the worker pool after a failure and replay every segment
    /// recorded in `ck` under its original array id. The new pool runs
    /// with the fault plan *cleared* so the same injected kill cannot fire
    /// again. Live arrays not covered by the checkpoint are marked lost:
    /// the report lists them and any later use panics with a diagnostic
    /// naming the respawn. Replies that were in flight at recovery time
    /// are discarded.
    pub fn recover(&self, ck: &OdinCheckpoint) -> RecoveryReport {
        // Fresh mailboxes and threads first: swapping the host in drops
        // the old one, whose closing envelope sends surviving old workers
        // out of their command loop.
        let (host, pool) = spawn_pool(&self.config, comm::FaultPlan::none());
        let old_pool = self.pool.borrow_mut().replace(pool);
        drop(self.host.replace(host));
        self.dead.borrow_mut().fill(false);
        if let Some(old) = old_pool {
            if self.config.universe.stall_timeout.is_some() {
                // Worker-side waits are bounded, so the join is too.
                let _ = old.join_quiet();
            } else {
                // A survivor may be blocked forever in a collective with
                // the killed peer; don't let teardown inherit the hang.
                old.abandon();
            }
        }
        // Outstanding tickets can never be answered by the new pool:
        // consider them consumed so fresh replies get fresh tickets.
        {
            let mut eng = self.engine.borrow_mut();
            let issued = eng.issued.clone();
            eng.arrived = issued;
            eng.buffered.clear();
            eng.abandoned.clear();
        }
        // Re-seed the pool: local functions and kernel bytecode first,
        // then checkpointed segments.
        for (id, f) in self.local_fns.borrow().iter() {
            self.send_local_fn(*id, f);
        }
        for (id, program) in self.kernels.borrow().iter() {
            self.send_cmd(&Cmd::RegisterKernel {
                id: *id,
                program: program.clone(),
            });
        }
        let mut restored = Vec::with_capacity(ck.arrays.len());
        for (id, meta, data) in &ck.arrays {
            for w in 0..self.n_workers {
                let map = meta.axis_map(self.n_workers, w);
                let seg = data.gather_runs(&map.local_runs(), meta.slab());
                self.send_cmd_to(
                    w,
                    &Cmd::SetData {
                        id: *id,
                        meta: meta.clone(),
                        data: seg,
                    },
                );
            }
            self.record_meta(*id, meta.clone());
            self.lost.borrow_mut().remove(id);
            restored.push(*id);
        }
        // Everything else that was live lost its segments with the pool.
        let lost: Vec<u64> = {
            let metas = self.metas.borrow();
            let mut ids: Vec<u64> = metas
                .keys()
                .copied()
                .filter(|id| !restored.contains(id))
                .collect();
            ids.sort_unstable();
            ids
        };
        self.lost.borrow_mut().extend(lost.iter().copied());
        RecoveryReport {
            respawned: self.n_workers,
            restored,
            lost,
        }
    }

    /// Resize the worker pool to `n_workers` and replay the checkpoint onto
    /// it — the elastic-pool hook the serving plane uses to grow or shrink
    /// capacity between jobs. Taking `&mut self` guarantees no `DistArray`
    /// borrows (or pending replies) are live across the resize, so every
    /// surviving array must come back through `ck`; anything else is
    /// reported lost exactly as in [`Self::recover`]. Checkpoint replay
    /// re-slices each array with the *new* worker count, so any size works.
    pub fn resize(&mut self, n_workers: usize, ck: &OdinCheckpoint) -> RecoveryReport {
        assert!(n_workers > 0, "a pool needs at least one worker");
        self.n_workers = n_workers;
        self.config.n_workers = n_workers;
        // Re-dimension the per-worker books before recover() `.fill()`s
        // them; stale entries from the old size would misindex.
        *self.dead.borrow_mut() = vec![false; n_workers];
        {
            let mut eng = self.engine.borrow_mut();
            eng.issued = vec![0; n_workers];
            eng.arrived = vec![0; n_workers];
            eng.buffered.clear();
            eng.abandoned.clear();
        }
        self.recover(ck)
    }
}

#[cfg(test)]
mod tests {
    use crate::context::tests::chaos_config;
    use crate::context::OdinContext;
    use crate::error::OdinError;

    #[test]
    fn recover_respawns_pool_and_replays_checkpointed_segments() {
        let ctx = OdinContext::new(chaos_config(2, 0, 4));
        let x = ctx.linspace(1.0, 8.0, 8); // command 1
        let orphan = ctx.ones(&[4], crate::buffer::DType::F64); // command 2
        let ck = ctx.checkpoint(&[&x]); // command 3 (Fetch)
        let err = ctx.try_barrier().unwrap_err(); // command 4: kills worker 0
        assert!(matches!(err, OdinError::WorkerDead { worker: 0, .. }));
        // Worker 1 survived and sits idle with no deadline: recover joins
        // the old pool, so it returns only because dropping the old host
        // sent that worker out of its command loop.
        let t0 = std::time::Instant::now();
        let report = ctx.recover(&ck);
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(report.respawned, 2);
        assert_eq!(report.restored, vec![x.id()]);
        assert_eq!(report.lost, vec![orphan.id()]);
        // the checkpointed array replays bit-for-bit on the fresh pool
        assert_eq!(
            x.to_vec(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            "replayed segments must match the checkpoint"
        );
        assert!(ctx.health_check().is_ok());
        // using the lost array is a diagnosable error, not a hang
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| orphan.to_vec()));
        let msg = *r.unwrap_err().downcast::<String>().expect("string panic");
        assert!(msg.contains("lost"), "diagnostic names the loss: {msg}");
    }

    #[test]
    fn resize_replays_checkpoint_at_new_worker_count() {
        // Grow 2 -> 4, then shrink 4 -> 3: checkpoint replay re-slices at
        // whatever size the pool lands on, bit-for-bit.
        let mut ctx = OdinContext::with_workers(2);
        let want: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let (id, ck) = {
            let x = ctx.linspace(1.0, 8.0, 8);
            (x.id(), ctx.checkpoint(&[&x]))
        }; // handle dropped: no borrows live across the &mut resize
        let report = ctx.resize(4, &ck);
        assert_eq!(report.respawned, 4);
        assert_eq!(report.restored, vec![id]);
        assert!(report.lost.is_empty());
        assert_eq!(ctx.n_workers(), 4);
        {
            let x = crate::array::DistArray::from_id(&ctx, id);
            assert_eq!(x.to_vec(), want, "resized pool must replay bitwise");
            // the resized pool is fully live: new work still runs on it
            let y = &x + &x;
            assert_eq!(y.to_vec()[7], 16.0);
            std::mem::forget(x); // keep id alive for the next resize
        }
        let report = ctx.resize(3, &ck);
        assert_eq!(report.respawned, 3);
        let x = crate::array::DistArray::from_id(&ctx, id);
        assert_eq!(x.to_vec(), want);
        assert!(ctx.health_check().is_ok());
        std::mem::forget(x);
    }
}
