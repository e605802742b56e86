//! The ODIN process (master) of paper Fig. 1: pool spawn and teardown,
//! command dispatch, and the kernel registry.
//!
//! The master owns array *handles* and broadcasts small control commands;
//! the workers ([`crate::worker`]) own the array *segments* and execute
//! the commands in order. Control messages can be *batched*
//! ([`OdinContext::begin_batch`]) "for the frequent case when
//! communication latency is significant" (§III-B). Reply futures live in
//! [`crate::reply`], checkpoint/recover/resize in [`crate::recover`].

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use comm::{Payload, Universe, UniverseConfig};

use crate::error::OdinError;
use crate::protocol::{ArrayMeta, Cmd};
use crate::reply::ReplyEngine;
use crate::worker::{worker_main, LocalFn};

/// Configuration of an ODIN context.
#[derive(Debug, Clone, Copy)]
pub struct OdinConfig {
    /// Number of workers.
    pub n_workers: usize,
    /// How long the master waits on a reply from a *live but silent*
    /// worker before declaring it dead. A worker whose program ended says
    /// so itself, and is reported at once regardless of this setting.
    pub reply_timeout: Option<Duration>,
    /// The worker communicator's configuration, passed through whole.
    /// Set [`UniverseConfig::stall_timeout`] whenever the fault plan can
    /// kill a rank, so a worker whose peer died errors out instead of
    /// deadlocking.
    pub universe: UniverseConfig,
}

impl Default for OdinConfig {
    fn default() -> Self {
        OdinConfig {
            n_workers: 4,
            reply_timeout: None,
            universe: UniverseConfig::default(),
        }
    }
}

/// Master-side instrumentation (the paper's §III-J bottleneck
/// instrumentation goal): control vs data traffic, separately.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContextStats {
    /// Control commands issued (each broadcast counts once per worker).
    pub ctrl_msgs: u64,
    /// Total control bytes.
    pub ctrl_bytes: u64,
    /// Data-carrying messages (SetData / Fetch replies).
    pub data_msgs: u64,
    /// Total data bytes.
    pub data_bytes: u64,
    /// Physical channel sends (batching reduces this, not ctrl_msgs).
    pub channel_sends: u64,
}

impl ContextStats {
    /// Mean control-command size in bytes.
    pub fn mean_ctrl_bytes(&self) -> f64 {
        if self.ctrl_msgs == 0 {
            0.0
        } else {
            self.ctrl_bytes as f64 / self.ctrl_msgs as f64
        }
    }
}

/// The ODIN master process.
pub struct OdinContext {
    pub(crate) n_workers: usize,
    pub(crate) config: OdinConfig,
    /// The master's end of the pool's mailboxes.
    pub(crate) host: RefCell<comm::Host>,
    pub(crate) pool: RefCell<Option<comm::universe::Detached<()>>>,
    /// Workers known to be gone: they posted their notice, or a post to
    /// them found the thread exited.
    pub(crate) dead: RefCell<Vec<bool>>,
    /// Arrays whose segments died with a respawned pool (no checkpoint).
    pub(crate) lost: RefCell<HashSet<u64>>,
    /// Registered local functions, kept so a respawned pool can be
    /// re-seeded with them.
    pub(crate) local_fns: RefCell<Vec<(u64, LocalFn)>>,
    /// Registered kernel bytecode, kept so a respawned pool can be
    /// re-registered with it (same ids, same programs).
    pub(crate) kernels: RefCell<Vec<(u64, seamless::bytecode::Program)>>,
    /// Structural kernel cache: encoded program bytes → registered id, so
    /// re-evaluating the same expression registers nothing twice.
    pub(crate) kernel_cache: RefCell<HashMap<Vec<u8>, u64>>,
    pub(crate) next_id: Cell<u64>,
    pub(crate) next_fn: Cell<u64>,
    pub(crate) next_kernel: Cell<u64>,
    pub(crate) metas: RefCell<HashMap<u64, ArrayMeta>>,
    pub(crate) stats: RefCell<ContextStats>,
    pub(crate) batch: RefCell<Option<Vec<Vec<u8>>>>,
    pub(crate) engine: RefCell<ReplyEngine>,
}

/// Spawn a fresh worker pool under `fault` (recovery respawns with the
/// plan cleared so the same kill does not fire again).
pub(crate) fn spawn_pool(
    config: &OdinConfig,
    fault: comm::FaultPlan,
) -> (comm::Host, comm::universe::Detached<()>) {
    let universe = UniverseConfig {
        fault,
        ..config.universe
    };
    Universe::spawn(universe, config.n_workers, worker_main)
}

impl OdinContext {
    /// Spawn the worker pool.
    pub fn new(config: OdinConfig) -> Self {
        assert!(config.n_workers > 0);
        let (host, pool) = spawn_pool(&config, config.universe.fault);
        OdinContext {
            n_workers: config.n_workers,
            config,
            host: RefCell::new(host),
            pool: RefCell::new(Some(pool)),
            dead: RefCell::new(vec![false; config.n_workers]),
            lost: RefCell::new(HashSet::new()),
            local_fns: RefCell::new(Vec::new()),
            kernels: RefCell::new(Vec::new()),
            kernel_cache: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            next_fn: Cell::new(1),
            next_kernel: Cell::new(1),
            metas: RefCell::new(HashMap::new()),
            stats: RefCell::new(ContextStats::default()),
            batch: RefCell::new(None),
            engine: RefCell::new(ReplyEngine {
                issued: vec![0; config.n_workers],
                arrived: vec![0; config.n_workers],
                ..Default::default()
            }),
        }
    }

    /// Convenience constructor with `n` workers and defaults otherwise.
    pub fn with_workers(n: usize) -> Self {
        Self::new(OdinConfig {
            n_workers: n,
            ..Default::default()
        })
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ContextStats {
        *self.stats.borrow()
    }

    /// Reset counters (benchmarks call this between phases).
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = ContextStats::default();
    }

    /// Fresh array id.
    pub(crate) fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    pub(crate) fn meta_of(&self, id: u64) -> ArrayMeta {
        if self.lost.borrow().contains(&id) {
            panic!(
                "array {id} was lost when the worker pool was respawned \
                 without a checkpoint covering it"
            );
        }
        self.metas
            .borrow()
            .get(&id)
            .unwrap_or_else(|| panic!("unknown array id {id}"))
            .clone()
    }

    pub(crate) fn record_meta(&self, id: u64, meta: ArrayMeta) {
        self.metas.borrow_mut().insert(id, meta);
    }

    pub(crate) fn forget_meta(&self, id: u64) {
        self.metas.borrow_mut().remove(&id);
    }

    /// The master thread is not a simulated rank, so its spans use wall
    /// time on both axes; §III-J control-vs-data traffic lands in the
    /// registry under `odin.ctrl_*` / `odin.data_*`.
    #[cold]
    fn obs_ctrl(&self, cmd_bytes: usize, batched: bool, timer: obs::span::SpanTimer, flow: u64) {
        timer.finish_meta(
            "odin",
            if batched {
                "dispatch(batched)"
            } else {
                "dispatch"
            },
            obs::span::wall_now_s(),
            &[
                ("cmd_bytes", cmd_bytes as f64),
                ("workers", self.n_workers as f64),
            ],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Other,
                flow_out: flow,
                flow_in: 0,
            },
        );
        let g = obs::global();
        g.counter("odin.ctrl_msgs").add(self.n_workers as u64);
        g.counter("odin.ctrl_bytes")
            .add((cmd_bytes * self.n_workers) as u64);
        g.histogram("odin.ctrl_cmd_bytes").record(cmd_bytes as u64);
        g.gauge("odin.mean_ctrl_bytes")
            .set(self.stats.borrow().mean_ctrl_bytes());
    }

    #[cold]
    pub(crate) fn obs_data(
        &self,
        name: &'static str,
        msgs: u64,
        bytes: u64,
        timer: obs::span::SpanTimer,
        flow: u64,
    ) {
        timer.finish_meta(
            "odin",
            name,
            obs::span::wall_now_s(),
            &[("msgs", msgs as f64), ("bytes", bytes as f64)],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Other,
                flow_out: flow,
                flow_in: 0,
            },
        );
        let g = obs::global();
        g.counter("odin.data_msgs").add(msgs);
        g.counter("odin.data_bytes").add(bytes);
    }

    pub(crate) fn obs_timer(&self) -> Option<obs::span::SpanTimer> {
        if obs::enabled() {
            Some(obs::span::span_start(obs::span::wall_now_s()))
        } else {
            None
        }
    }

    /// Control-plane flow id for one dispatch: allocated only while
    /// tracing (the timer is the "enabled" witness). Every worker copy of
    /// the dispatch carries the same id — the graph then draws one
    /// master→worker edge per consuming worker.
    fn ctrl_flow(timer: &Option<obs::span::SpanTimer>) -> u64 {
        if timer.is_some() {
            obs::flow::next_ctrl()
        } else {
            obs::flow::NONE
        }
    }

    /// Begin buffering control commands; nothing is sent until
    /// [`Self::flush_batch`]. Models the paper's latency-amortizing
    /// message buffering.
    pub fn begin_batch(&self) {
        let mut b = self.batch.borrow_mut();
        assert!(b.is_none(), "batch already open");
        *b = Some((0..self.n_workers).map(|_| Vec::new()).collect());
    }

    /// Best-effort post to one worker. A refused post means the worker
    /// thread exited (killed, panicked, or shut down); instead of
    /// panicking, the death is recorded and surfaces as a typed
    /// [`OdinError::WorkerDead`] at the next reply wait or
    /// [`Self::health_check`].
    pub(crate) fn worker_send(&self, worker: usize, payload: Payload, flow: u64) {
        if self.host.borrow().post(worker, payload, flow).is_err() {
            self.dead.borrow_mut()[worker] = true;
        }
    }

    /// Post one block of encoded commands to every worker under one flow
    /// id. The last worker takes ownership of the block; only the first
    /// n−1 posts pay for a copy.
    fn broadcast(&self, mut bytes: Vec<u8>, flow: u64) {
        for w in 0..self.n_workers {
            let block = if w + 1 == self.n_workers {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            self.worker_send(w, Payload::Bytes(block), flow);
        }
    }

    /// Send all buffered commands, one post per worker.
    pub fn flush_batch(&self) {
        let timer = self.obs_timer();
        let flow = Self::ctrl_flow(&timer);
        let bufs = self.batch.borrow_mut().take().expect("no open batch");
        let mut sends = 0u64;
        let mut flushed_bytes = 0u64;
        for (w, bytes) in bufs.into_iter().enumerate() {
            if !bytes.is_empty() {
                {
                    let mut st = self.stats.borrow_mut();
                    st.channel_sends += 1;
                }
                sends += 1;
                flushed_bytes += bytes.len() as u64;
                self.worker_send(w, Payload::Bytes(bytes), flow);
            }
        }
        if let Some(t) = timer {
            t.finish_meta(
                "odin",
                "flush_batch",
                obs::span::wall_now_s(),
                &[("sends", sends as f64), ("bytes", flushed_bytes as f64)],
                obs::span::SpanMeta {
                    kind: obs::span::SpanKind::Other,
                    flow_out: flow,
                    flow_in: 0,
                },
            );
        }
    }

    /// Broadcast a control command to every worker.
    pub(crate) fn send_cmd(&self, cmd: &Cmd) {
        let timer = self.obs_timer();
        let bytes = comm::encode_to_vec(cmd);
        let n_bytes = bytes.len();
        {
            let mut st = self.stats.borrow_mut();
            st.ctrl_msgs += self.n_workers as u64;
            st.ctrl_bytes += (n_bytes * self.n_workers) as u64;
        }
        let mut batch = self.batch.borrow_mut();
        if let Some(bufs) = batch.as_mut() {
            for buf in bufs.iter_mut() {
                buf.extend_from_slice(&bytes);
            }
            drop(batch);
            if let Some(t) = timer {
                // Batched: nothing sent yet; the flush span owns the flow.
                self.obs_ctrl(n_bytes, true, t, 0);
            }
            return;
        }
        drop(batch);
        let flow = Self::ctrl_flow(&timer);
        self.stats.borrow_mut().channel_sends += self.n_workers as u64;
        self.broadcast(bytes, flow);
        if let Some(t) = timer {
            self.obs_ctrl(n_bytes, false, t, flow);
        }
    }

    /// Send a worker-specific (data-carrying) command. Data commands
    /// cannot ride in a batch, so an open batch is flushed first to keep
    /// command order intact.
    pub(crate) fn send_cmd_to(&self, worker: usize, cmd: &Cmd) {
        self.flush_open_batch();
        let timer = self.obs_timer();
        let bytes = comm::encode_to_vec(cmd);
        let n = bytes.len() as u64;
        {
            let mut st = self.stats.borrow_mut();
            st.data_msgs += 1;
            st.data_bytes += n;
            st.channel_sends += 1;
        }
        let flow = Self::ctrl_flow(&timer);
        self.worker_send(worker, Payload::Bytes(bytes), flow);
        if let Some(t) = timer {
            self.obs_data("send_data", 1, n, t, flow);
        }
    }

    /// Register a local-mode function on every worker; returns its id.
    /// The function is remembered so a respawned pool is re-seeded with it.
    pub fn register_local(&self, f: LocalFn) -> u64 {
        let id = self.next_fn.get();
        self.next_fn.set(id + 1);
        self.send_local_fn(id, &f);
        self.local_fns.borrow_mut().push((id, f));
        id
    }

    /// Broadcast a local-mode function object (the paper's decorator
    /// "broadcasts the resulting function object to all worker nodes"):
    /// the one post that rides the region arm, since a native closure has
    /// no wire encoding.
    pub(crate) fn send_local_fn(&self, id: u64, f: &LocalFn) {
        for w in 0..self.n_workers {
            let region = comm::Region::new((id, Arc::clone(f)), 0);
            self.worker_send(w, Payload::Region(region), 0);
        }
    }

    /// Invoke a registered local function on every worker (global-mode
    /// view of a local function, §III-C).
    pub fn call_local(&self, fn_id: u64, arrays: &[u64], scalars: &[f64]) {
        self.send_cmd(&Cmd::CallLocal {
            fn_id,
            arrays: arrays.to_vec(),
            scalars: scalars.to_vec(),
        });
    }

    /// Ship compiled Seamless bytecode to every worker and return the
    /// kernel id [`Cmd::EvalKernel`] invokes reference. Bitwise-identical
    /// programs are deduplicated through a structural cache, so each
    /// distinct kernel's code crosses to the workers exactly once per pool;
    /// the program is also remembered for re-registration after
    /// [`Self::recover`] respawns the pool.
    pub(crate) fn register_kernel_program(&self, program: seamless::bytecode::Program) -> u64 {
        assert!(
            program.externs.is_empty(),
            "kernels with foreign functions cannot ship to workers \
             (native fn pointers have no wire encoding)"
        );
        let key = comm::encode_to_vec(&program);
        if let Some(&id) = self.kernel_cache.borrow().get(&key) {
            if obs::enabled() {
                obs::global().counter("odin.kernel.cache_hit").add(1);
            }
            return id;
        }
        let id = self.next_kernel.get();
        self.next_kernel.set(id + 1);
        self.send_cmd(&Cmd::RegisterKernel {
            id,
            program: program.clone(),
        });
        if obs::enabled() {
            let g = obs::global();
            g.counter("odin.kernel.cache_miss").add(1);
            g.counter("odin.kernel.registered").add(1);
        }
        self.kernels.borrow_mut().push((id, program));
        self.kernel_cache.borrow_mut().insert(key, id);
        id
    }

    /// Flush the open batch if there is one (every reply-wait path calls
    /// this, so waiting on a reply issued inside a batch cannot deadlock).
    pub(crate) fn flush_open_batch(&self) {
        if self.batch.borrow().is_some() {
            self.flush_batch();
        }
    }

    /// Synchronize: all queued commands (batched or not) have completed
    /// when this returns.
    pub fn barrier(&self) {
        self.flush_open_batch();
        self.send_cmd(&Cmd::Ping);
        let _ = self.pending_all("barrier").wait();
    }

    /// Total modeled virtual time is only available at shutdown (the pool
    /// owns the clocks); this issues a Ping so the wall-clock of pending
    /// work is at least observable.
    pub fn sync(&self) {
        self.barrier();
    }

    /// Fallible [`Self::barrier`]: a dead worker surfaces as
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic.
    pub fn try_barrier(&self) -> Result<(), OdinError> {
        self.flush_open_batch();
        self.send_cmd(&Cmd::Ping);
        self.pending_all("barrier").try_wait().map(|_| ())
    }

    /// Heartbeat: take in whatever the workers have posted — a dead one
    /// has posted its notice — and round-trip a Ping. Returns the first
    /// dead worker as [`OdinError::WorkerDead`] — always in bounded time,
    /// never a hang.
    pub fn health_check(&self) -> Result<(), OdinError> {
        self.poll_arrivals();
        if let Some(w) = self.dead.borrow().iter().position(|&d| d) {
            return Err(OdinError::WorkerDead {
                worker: w,
                waited: Duration::ZERO,
            });
        }
        self.try_barrier()
    }

    /// Workers the master has found dead so far (diagnostics).
    pub fn dead_workers(&self) -> Vec<usize> {
        self.dead
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(w, &d)| d.then_some(w))
            .collect()
    }
}

impl Drop for OdinContext {
    fn drop(&mut self) {
        // Best-effort shutdown; workers may already be gone in panic paths.
        self.broadcast(comm::encode_to_vec(&Cmd::Shutdown), 0);
        if let Some(pool) = self.pool.borrow_mut().take() {
            let universe = &self.config.universe;
            let faulty = universe.fault.is_active() || self.dead.borrow().iter().any(|&d| d);
            if faulty && universe.stall_timeout.is_none() {
                // A killed worker's peers may be blocked forever in a
                // collective; without a bounded worker-side wait the only
                // hang-free teardown is to detach them.
                pool.abandon();
            } else {
                // Swallow worker panics (killed or crashed workers) —
                // teardown must not re-panic.
                let _ = pool.join_quiet();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn context_starts_and_stops() {
        let ctx = OdinContext::with_workers(3);
        ctx.barrier();
        assert_eq!(ctx.n_workers(), 3);
        drop(ctx); // clean shutdown must not hang
    }

    #[test]
    fn batching_reduces_channel_sends() {
        let ctx = OdinContext::with_workers(2);
        ctx.reset_stats();
        ctx.begin_batch();
        for _ in 0..10 {
            ctx.send_cmd(&Cmd::Ping);
        }
        ctx.flush_batch();
        let st = ctx.stats();
        assert_eq!(st.ctrl_msgs, 20); // 10 commands × 2 workers
        assert_eq!(st.channel_sends, 2); // but only one physical send each
                                         // drain the 20 ping replies (they interleave across workers)
        ctx.drain_replies(20);
    }

    #[test]
    fn reduction_inside_open_batch_flushes_instead_of_deadlocking() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[8], crate::buffer::DType::F64);
        ctx.begin_batch();
        // sum() buffers Cmd::Reduce into the batch; wait() must flush it
        assert!((x.sum() - 8.0).abs() < 1e-12);
        // the batch was consumed: opening a fresh one must not panic
        ctx.begin_batch();
        ctx.flush_batch();
    }

    #[test]
    fn barrier_flushes_open_batch() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[6], crate::buffer::DType::F64);
        ctx.begin_batch();
        let y = &x + 1.0;
        ctx.barrier(); // must flush the buffered Binary command first
        assert_eq!(y.to_vec(), vec![2.0; 6]);
    }

    #[test]
    fn data_command_flushes_open_batch_preserving_order() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[4], crate::buffer::DType::F64);
        ctx.begin_batch();
        let doubled = &x * 2.0; // batched
        let v = ctx.from_vec(&[9.0, 9.0], crate::protocol::Dist::Block); // data cmd
        ctx.flush_open_batch(); // already flushed by from_vec; must be a no-op path
        assert_eq!(doubled.to_vec(), vec![2.0; 4]);
        assert_eq!(v.to_vec(), vec![9.0, 9.0]);
    }

    pub(crate) fn chaos_config(
        n_workers: usize,
        kill_rank: usize,
        kill_after_ops: u64,
    ) -> OdinConfig {
        OdinConfig {
            n_workers,
            universe: UniverseConfig::default()
                .with_fault(comm::FaultPlan {
                    kill_rank: Some(kill_rank),
                    kill_after_ops,
                    ..comm::FaultPlan::none()
                })
                .with_stall_timeout(Duration::from_secs(10)),
            reply_timeout: Some(Duration::from_secs(10)),
        }
    }

    #[test]
    fn killed_worker_surfaces_typed_error_in_bounded_time() {
        // Worker 1 dies at its second command (the Ping below), after
        // replying to nothing — the master must get a typed error, fast.
        let ctx = OdinContext::new(chaos_config(3, 1, 2));
        let _x = ctx.zeros(&[6], crate::buffer::DType::F64); // command 1
        let t0 = Instant::now();
        let err = ctx.try_barrier().unwrap_err(); // command 2: kills worker 1
        match err {
            OdinError::WorkerDead { worker, .. } => assert_eq!(worker, 1),
            other => panic!("expected WorkerDead, got {other}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "death detection must be bounded"
        );
        // the heartbeat agrees, without issuing new replies
        assert!(ctx.health_check().is_err());
        assert_eq!(ctx.dead_workers(), vec![1]);
    }

    #[test]
    fn killed_worker_with_unacked_sends_is_reported_before_it_quiesces() {
        // Worker 0 sends worker 1 a message that worker 1 — held inside a
        // local function by `gate` — does not read, so under reliable
        // delivery it stays unacked; worker 0 is then killed at its next
        // command. The dying rank spends up to its stall window trying to
        // heal that send before its mailbox closes: the master must hear
        // of the death before that, not after.
        let mut cfg = chaos_config(2, 0, 3);
        cfg.universe.delivery = comm::Delivery::Reliable;
        let ctx = OdinContext::new(cfg);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let held = Arc::clone(&gate);
        let f = ctx.register_local(Arc::new(move |scope, _, _| {
            if scope.rank() == 0 {
                scope.comm.send(1, 1, &7u64).unwrap(); // comm op 2
            } else {
                held.wait();
            }
        }));
        ctx.call_local(f, &[], &[]); // command 1
        let t0 = Instant::now();
        let outcome = ctx.try_barrier(); // op 3: kills worker 0
        let waited = t0.elapsed();
        gate.wait(); // let worker 1 go first, so teardown can join it
        assert!(
            matches!(outcome, Err(OdinError::WorkerDead { worker: 0, .. })),
            "{outcome:?}"
        );
        assert!(waited < Duration::from_secs(1), "{waited:?}");
    }
}
