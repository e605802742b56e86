//! The ODIN process (master) of paper Fig. 1: pool spawn and teardown,
//! command dispatch, and the kernel registry.
//!
//! The master owns array *handles* and broadcasts small control commands;
//! the workers ([`crate::worker`]) own the array *segments* and execute
//! the commands in order. An elementwise op posts nothing: it records a
//! statement into the context's open trace ([`crate::program`]), and every
//! other command first flushes the trace. Control messages are always
//! *batched* "for the frequent case when communication latency is
//! significant" (§III-B): a fire-and-forget command is appended to a
//! per-worker buffer, and the buffer goes out as one post per worker
//! ([`OdinContext::flush_batch`]) when the master dispatches a
//! reply-bearing command, sends a data command or a local function, calls
//! [`OdinContext::barrier`], or drops the context. Reply futures live in
//! [`crate::reply`], checkpoint/recover/resize in [`crate::recover`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use comm::{Payload, Universe, UniverseConfig};

use crate::error::OdinError;
use crate::program::Trace;
use crate::protocol::{ArrayMeta, Cmd, Holdings};
use crate::reply::{Folds, ReplyEngine};
use crate::worker::{worker_main, LocalFn};
use seamless::bytecode::Program;

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
/// instrumentation goal), and the only place ODIN counts a post, a reply,
/// a launch or a kernel registration: control vs data traffic, the kernel
/// registry, and the decisions of every trace flush (DESIGN §8). The
/// registry's `odin.*`/`fusion.*` series are its export at context drop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContextStats {
    /// Control commands issued (each broadcast counts once per worker).
    pub ctrl_msgs: u64,
    /// Total control bytes.
    pub ctrl_bytes: u64,
    /// Data-carrying messages: data commands sent, and every reply that
    /// arrives, a discarded one included.
    pub data_msgs: u64,
    /// Total data bytes.
    pub data_bytes: u64,
    /// Physical posts to a worker's mailbox: one per worker whose buffer a
    /// flush posts, one per data command, one per worker per local
    /// function shipped (batching reduces this, not ctrl_msgs). The
    /// context's teardown post comes after its ledger is published.
    pub channel_sends: u64,
    /// Kernel programs shipped to the workers: one per distinct program.
    pub kernels_registered: u64,
    /// Kernel registrations the structural cache answered, nothing
    /// shipped.
    pub kernel_cache_hits: u64,
    /// Elementwise statements recorded and flushed.
    pub statements: u64,
    /// Fused kernel launches the flushes issued.
    pub kernel_launches: u64,
    /// Statements a launch-per-statement run would have issued beyond
    /// those launches: saved by fusion, CSE and DSE.
    pub launches_saved: u64,
    /// Repeated operation nodes interned instead of recorded again.
    pub cse_hits: u64,
    /// Statements dropped before their flush that nothing live read.
    pub dse_eliminated: u64,
    /// Operand alignments (redistributes) the flushes issued.
    pub redistributes_issued: u64,
    /// Alignments a per-op run would have issued beyond those, avoided by
    /// moving each (operand, distribution) pair once per flush.
    pub redistributes_merged: u64,
    /// Elements the issued alignments moved (counted via `dmap` owner
    /// maps).
    pub elems_moved: u64,
    /// Slices the flushes materialized as arrays: views still held at a
    /// flush, or read where they cannot be read in place.
    pub slices_materialized: u64,
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

    /// Write this ledger into the metrics registry: a counter per field,
    /// zero fields skipped, and the `odin.mean_ctrl_bytes` gauge. The
    /// context calls this once, when it drops, while recording is on;
    /// this table is the only place the keys are named.
    pub(crate) fn publish(&self) {
        let g = obs::global();
        for (name, n) in [
            ("odin.ctrl_msgs", self.ctrl_msgs),
            ("odin.ctrl_bytes", self.ctrl_bytes),
            ("odin.data_msgs", self.data_msgs),
            ("odin.data_bytes", self.data_bytes),
            ("odin.channel_sends", self.channel_sends),
            ("odin.kernel.registered", self.kernels_registered),
            ("odin.kernel.cache_hit", self.kernel_cache_hits),
            ("fusion.statements", self.statements),
            ("fusion.kernel_launches", self.kernel_launches),
            ("fusion.launches_saved", self.launches_saved),
            ("fusion.cse_hits", self.cse_hits),
            ("fusion.dse_eliminated", self.dse_eliminated),
            ("fusion.redistributes_issued", self.redistributes_issued),
            ("fusion.redistributes_merged", self.redistributes_merged),
            ("fusion.elems_moved", self.elems_moved),
            ("fusion.slices_materialized", self.slices_materialized),
        ] {
            if n > 0 {
                g.counter(name).add(n);
            }
        }
        if self.ctrl_msgs > 0 {
            g.gauge("odin.mean_ctrl_bytes").set(self.mean_ctrl_bytes());
        }
    }
}

/// The counts of the phase between two snapshots: `ctx.stats() - before`.
impl std::ops::Sub for ContextStats {
    type Output = ContextStats;
    fn sub(self, base: ContextStats) -> ContextStats {
        ContextStats {
            ctrl_msgs: self.ctrl_msgs - base.ctrl_msgs,
            ctrl_bytes: self.ctrl_bytes - base.ctrl_bytes,
            data_msgs: self.data_msgs - base.data_msgs,
            data_bytes: self.data_bytes - base.data_bytes,
            channel_sends: self.channel_sends - base.channel_sends,
            kernels_registered: self.kernels_registered - base.kernels_registered,
            kernel_cache_hits: self.kernel_cache_hits - base.kernel_cache_hits,
            statements: self.statements - base.statements,
            kernel_launches: self.kernel_launches - base.kernel_launches,
            launches_saved: self.launches_saved - base.launches_saved,
            cse_hits: self.cse_hits - base.cse_hits,
            dse_eliminated: self.dse_eliminated - base.dse_eliminated,
            redistributes_issued: self.redistributes_issued - base.redistributes_issued,
            redistributes_merged: self.redistributes_merged - base.redistributes_merged,
            elems_moved: self.elems_moved - base.elems_moved,
            slices_materialized: self.slices_materialized - base.slices_materialized,
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
    /// Array handles and the registries a respawned pool is re-seeded
    /// from.
    pub(crate) held: RefCell<MasterHoldings>,
    /// Structural kernel cache: encoded program bytes → registered id
    /// (1, 2, … in registration order), so re-evaluating the same
    /// expression registers nothing twice.
    pub(crate) kernel_cache: RefCell<HashMap<Vec<u8>, u64>>,
    /// Ids of arrays, local functions and fold replies.
    pub(crate) next_id: Cell<u64>,
    pub(crate) stats: RefCell<ContextStats>,
    /// Elementwise statements recorded since the last flush.
    pub(crate) trace: RefCell<Trace>,
    /// Per worker: encoded commands not yet posted.
    pub(crate) batch: RefCell<Vec<Vec<u8>>>,
    pub(crate) engine: RefCell<ReplyEngine>,
    /// Flushed folds whose values are not yet read.
    pub(crate) folds: RefCell<Folds>,
}

/// What the master holds, as [`Cmd::check`] reads it.
#[derive(Default)]
pub(crate) struct MasterHoldings {
    /// Every live handle's meta.
    pub(crate) metas: HashMap<u64, ArrayMeta>,
    /// Arrays whose segments died with a respawned pool (no checkpoint):
    /// their handles live on, and a command naming one is refused.
    pub(crate) lost: HashSet<u64>,
    /// Registered local functions, kept so a respawned pool can be
    /// re-seeded with them.
    pub(crate) local_fns: BTreeMap<u64, LocalFn>,
    /// Registered kernel bytecode, kept so a respawned pool can be
    /// re-registered with it (same ids, same programs).
    pub(crate) kernels: BTreeMap<u64, Program>,
}

impl Holdings for MasterHoldings {
    fn array(&self, id: u64) -> Result<&ArrayMeta, String> {
        if self.lost.contains(&id) {
            return Err(format!(
                "array {id} was lost when the worker pool was respawned \
                 without a checkpoint covering it"
            ));
        }
        self.metas
            .get(&id)
            .ok_or_else(|| format!("unknown array id {id}"))
    }

    fn kernel(&self, id: u64) -> Option<&Program> {
        self.kernels.get(&id)
    }

    fn has_local_fn(&self, id: u64) -> bool {
        self.local_fns.contains_key(&id)
    }
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
            held: RefCell::default(),
            kernel_cache: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            stats: RefCell::new(ContextStats::default()),
            trace: RefCell::default(),
            batch: RefCell::new(vec![Vec::new(); config.n_workers]),
            engine: RefCell::new(ReplyEngine {
                issued: vec![0; config.n_workers],
                arrived: vec![0; config.n_workers],
                ..Default::default()
            }),
            folds: RefCell::default(),
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

    /// Counters snapshot: the live ledger since the context started.
    pub fn stats(&self) -> ContextStats {
        *self.stats.borrow()
    }

    /// Fresh id for an array, a local function or a fold reply.
    pub(crate) fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    pub(crate) fn meta_of(&self, id: u64) -> ArrayMeta {
        self.held
            .borrow()
            .array(id)
            .unwrap_or_else(|e| panic!("{e}"))
            .clone()
    }

    /// Check `cmd` ([`Cmd::check`]) and record the handles it makes, the
    /// same metas the workers store their segments under; a `Free` drops
    /// the array or local function it names. A refused command panics
    /// here, at the call that built it, before anything is buffered or
    /// posted.
    fn record_meta(&self, cmd: &Cmd) {
        let made = cmd
            .check(&*self.held.borrow())
            .unwrap_or_else(|e| panic!("{e}"));
        let mut held = self.held.borrow_mut();
        held.metas.extend(made);
        if let Cmd::Free { id } = cmd {
            held.metas.remove(id);
            held.local_fns.remove(id);
        }
    }

    pub(crate) fn forget_meta(&self, id: u64) {
        self.held.borrow_mut().metas.remove(&id);
    }

    /// Record a master span. The master thread is not a simulated rank,
    /// so its spans use wall time on both axes; the §III-J
    /// control-vs-data counts are [`ContextStats`]. A dispatch only
    /// buffers its command, so the flush that posts it owns the flow.
    #[cold]
    pub(crate) fn obs_span(
        &self,
        name: &'static str,
        timer: obs::span::SpanTimer,
        args: &[(&'static str, f64)],
        flow: u64,
    ) {
        let meta = obs::span::SpanMeta {
            flow_out: flow,
            ..Default::default()
        };
        timer.finish_meta("odin", name, obs::span::wall_now_s(), args, meta);
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

    /// Best-effort post to one worker. A refused post means the worker
    /// thread exited (killed, panicked, or shut down); instead of
    /// panicking, the death is recorded and surfaces as a typed
    /// [`OdinError::WorkerDead`] at the next reply wait or
    /// [`Self::health_check`]. The one place a post is counted
    /// ([`ContextStats::channel_sends`]).
    pub(crate) fn worker_send(&self, worker: usize, payload: Payload, flow: u64) {
        self.stats.borrow_mut().channel_sends += 1;
        if self.host.borrow().post(worker, payload, flow).is_err() {
            self.dead.borrow_mut()[worker] = true;
        }
    }

    /// Flush the trace, then post every buffered command: one post per
    /// worker whose buffer is not empty, none at all when nothing is
    /// buffered. The master calls this itself wherever the order or a
    /// reply depends on it (see the module docs); calling it by hand only
    /// posts sooner — or, after every statement, runs the code
    /// statement at a time, the baseline a fused run is held to.
    pub fn flush_batch(&self) {
        self.flush_trace();
        if self.batch.borrow().iter().all(Vec::is_empty) {
            return;
        }
        let timer = self.obs_timer();
        let flow = Self::ctrl_flow(&timer);
        let mut sends = 0u64;
        let mut flushed_bytes = 0u64;
        for (w, buf) in self.batch.borrow_mut().iter_mut().enumerate() {
            if !buf.is_empty() {
                sends += 1;
                flushed_bytes += buf.len() as u64;
                self.worker_send(w, Payload::Bytes(std::mem::take(buf)), flow);
            }
        }
        if let Some(t) = timer {
            let args = [("sends", sends as f64), ("bytes", flushed_bytes as f64)];
            self.obs_span("flush_batch", t, &args, flow);
        }
    }

    /// Broadcast a control command to every worker behind the flushed
    /// trace. A reply-bearing command is posted at once by the ticket its
    /// reply future takes.
    pub(crate) fn send_cmd(&self, cmd: &Cmd) {
        self.flush_trace();
        self.post(cmd);
    }

    /// Append a checked command to every worker's buffer, the trace left
    /// as it is: what a flush itself sends, and frees.
    pub(crate) fn post(&self, cmd: &Cmd) {
        self.record_meta(cmd);
        let timer = self.obs_timer();
        let n_bytes = self.buffer_cmd(cmd);
        {
            let mut st = self.stats.borrow_mut();
            st.ctrl_msgs += self.n_workers as u64;
            st.ctrl_bytes += (n_bytes * self.n_workers) as u64;
        }
        if let Some(t) = timer {
            let args = [
                ("cmd_bytes", n_bytes as f64),
                ("workers", self.n_workers as f64),
            ];
            self.obs_span("dispatch", t, &args, obs::flow::NONE);
        }
    }

    /// Append `cmd`'s encoding to every worker's buffer; returns its size.
    fn buffer_cmd(&self, cmd: &Cmd) -> usize {
        let bytes = comm::encode_to_vec(cmd);
        for buf in self.batch.borrow_mut().iter_mut() {
            buf.extend_from_slice(&bytes);
        }
        bytes.len()
    }

    /// Send a worker-specific (data-carrying) command. Data commands
    /// cannot ride in the buffer, so it is flushed first to keep command
    /// order intact.
    pub(crate) fn send_cmd_to(&self, worker: usize, cmd: &Cmd) {
        self.flush_trace();
        self.record_meta(cmd);
        self.flush_batch();
        let timer = self.obs_timer();
        let bytes = comm::encode_to_vec(cmd);
        let n = bytes.len() as u64;
        {
            let mut st = self.stats.borrow_mut();
            st.data_msgs += 1;
            st.data_bytes += n;
        }
        let flow = Self::ctrl_flow(&timer);
        self.worker_send(worker, Payload::Bytes(bytes), flow);
        if let Some(t) = timer {
            self.obs_span("send_data", t, &[("msgs", 1.0), ("bytes", n as f64)], flow);
        }
    }

    /// Register a local-mode function on every worker; returns its id.
    /// The function is remembered so a respawned pool is re-seeded with it.
    pub fn register_local(&self, f: LocalFn) -> u64 {
        let id = self.alloc_id();
        self.send_local_fn(id, &f);
        self.held.borrow_mut().local_fns.insert(id, f);
        id
    }

    /// Broadcast a local-mode function object (the paper's decorator
    /// "broadcasts the resulting function object to all worker nodes"):
    /// the one post that rides the region arm, since a native closure has
    /// no wire encoding. The buffer is flushed first to keep command order.
    pub(crate) fn send_local_fn(&self, id: u64, f: &LocalFn) {
        self.flush_batch();
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
    pub(crate) fn register_kernel_program(&self, program: Program) -> u64 {
        assert!(
            program.externs.is_empty(),
            "kernels with foreign functions cannot ship to workers \
             (native fn pointers have no wire encoding)"
        );
        let key = comm::encode_to_vec(&program);
        if let Some(&id) = self.kernel_cache.borrow().get(&key) {
            self.stats.borrow_mut().kernel_cache_hits += 1;
            return id;
        }
        let id = self.kernel_cache.borrow().len() as u64 + 1;
        self.post(&Cmd::RegisterKernel {
            id,
            program: program.clone(),
        });
        self.stats.borrow_mut().kernels_registered += 1;
        self.held.borrow_mut().kernels.insert(id, program);
        self.kernel_cache.borrow_mut().insert(key, id);
        id
    }

    /// Synchronize: all commands issued so far have completed when this
    /// returns.
    pub fn barrier(&self) {
        self.send_cmd(&Cmd::Ping);
        self.pending_all("barrier", |_| ()).wait();
    }

    /// Fallible [`Self::barrier`]: a dead worker surfaces as
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic.
    pub fn try_barrier(&self) -> Result<(), OdinError> {
        self.send_cmd(&Cmd::Ping);
        self.pending_all("barrier", |_| ()).try_wait()
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
        // Publish once the trace is flushed: only the teardown post comes after.
        self.flush_trace();
        if obs::enabled() {
            self.stats.borrow().publish();
        }
        // Best-effort shutdown behind whatever is still buffered; workers
        // may already be gone in panic paths.
        self.buffer_cmd(&Cmd::Shutdown);
        self.flush_batch();
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
    use crate::array::DistArray;
    use crate::buffer::DType;
    use crate::protocol::Dist;
    use std::time::Instant;

    #[test]
    fn context_starts_and_stops() {
        let ctx = OdinContext::with_workers(3);
        ctx.barrier();
        assert_eq!(ctx.n_workers(), 3);
        drop(ctx); // clean shutdown must not hang
    }

    #[test]
    fn fire_and_forget_commands_ride_the_next_reply_bearing_post() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[8], DType::F64);
        let launch = || {
            let y = &x + 1.0;
            ctx.flush_trace(); // buffers the launch, posts nothing
            y
        };
        drop(launch()); // registers the kernel
        let _ = x.sum(); // and the identity reduction's
        let base = ctx.stats();
        const K: u64 = 10;
        let ys: Vec<_> = (0..K).map(|_| launch()).collect();
        drop(ys); // K launches and K frees, all buffered
        assert_eq!((ctx.stats() - base).channel_sends, 0, "nothing posted yet");
        assert_eq!(x.sum(), 8.0);
        let st = ctx.stats() - base;
        assert_eq!(st.ctrl_msgs, (2 * K + 1) * 2);
        assert_eq!(st.channel_sends, 2, "one post per worker for all of it");
    }

    #[test]
    fn data_commands_post_behind_the_buffered_stream() {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.from_vec(&[1.0, 2.0, 3.0, 4.0], Dist::Block);
        let b = &a * 2.0; // buffered, reads `a`
        let base = ctx.stats();
        let c = ctx.from_vec(&[10.0; 4], Dist::Block);
        let st = ctx.stats() - base;
        assert_eq!(
            st.channel_sends,
            2 + 2,
            "buffer flush, then one post per segment"
        );
        assert_eq!(st.data_msgs, 2);
        assert_eq!((&b + &c).to_vec(), vec![12.0, 14.0, 16.0, 18.0]);
    }

    #[test]
    fn a_local_function_ships_as_one_counted_post_per_worker() {
        let ctx = OdinContext::with_workers(2);
        let f = ctx.register_local(Arc::new(|_, _, _| {}));
        assert_eq!(ctx.stats().channel_sends, 2, "one region post per worker");
        ctx.call_local(f, &[], &[]);
        ctx.barrier();
        let st = ctx.stats();
        assert_eq!(
            st.channel_sends,
            2 + 2,
            "the region posts, then one buffer flush per worker"
        );
        assert_eq!(st.ctrl_msgs, 2 * 2, "CallLocal and Ping, to each worker");
    }

    #[test]
    fn barrier_and_drop_post_the_buffer() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[6], DType::F64);
        let y = &x + 1.0; // buffered
        ctx.barrier();
        assert!(ctx.batch.borrow().iter().all(Vec::is_empty));
        assert_eq!(y.to_vec(), vec![2.0; 6]);
        drop(&y * 3.0); // a launch and a free, still buffered at the drop
        drop((x, y));
        drop(ctx); // posts them ahead of Shutdown, so the join returns
    }

    #[test]
    fn a_worker_killed_under_buffered_commands_is_a_typed_error_at_the_next_wait() {
        // Worker 1 dies at its third command; all four commands sit in
        // the master's buffer until the barrier posts them.
        let ctx = OdinContext::new(chaos_config(3, 1, 3));
        let x = ctx.zeros(&[6], DType::F64); // command 1
        let launch = |y: DistArray<'_>| {
            ctx.flush_trace(); // buffers the launch, posts nothing
            drop(y);
        };
        launch(&x + 1.0); // 2: RegisterKernel, 3: EvalKernel (the kill), 4: Free
        assert_eq!(ctx.stats().channel_sends, 0);
        let t0 = Instant::now();
        let err = ctx.try_barrier().unwrap_err();
        assert!(
            matches!(err, OdinError::WorkerDead { worker: 1, .. }),
            "{err}"
        );
        assert!(t0.elapsed() < Duration::from_secs(5));
        // Commands buffered after the death post without a panic, and the
        // next wait names the same worker.
        launch(&x * 3.0);
        assert!(matches!(
            ctx.try_barrier(),
            Err(OdinError::WorkerDead { worker: 1, .. })
        ));
    }

    #[test]
    fn every_refused_command_panics_at_the_master_and_posts_nothing() {
        use crate::protocol::{Fill, KernelOut, ReduceKind};
        use crate::slicing::SliceSpec;
        use crate::OdinCheckpoint;
        let ctx = OdinContext::with_workers(2);
        let x = ctx.zeros(&[6], DType::F64);
        let m = ctx.zeros(&[3, 4], DType::F64);
        let cyc = x.redistribute(Dist::Cyclic);
        let empty = ctx.zeros(&[0], DType::F64);
        let f = ctx.register_local(Arc::new(|_, _, _| {}));
        let y = &x + 1.0;
        ctx.flush_batch(); // registers a kernel of two parameters
        drop(y);
        let k = *ctx.held.borrow().kernels.keys().next().unwrap();
        let (x, m, cyc, empty) = (x.id(), m.id(), cyc.id(), empty.id());
        let no_dims = ArrayMeta {
            shape: vec![],
            dist: Dist::Block,
            dtype: DType::F64,
        };
        let spec = |start, stop, step| SliceSpec { start, stop, step };
        let full = SliceSpec::full;
        let eval =
            |kernel, inputs: Vec<(u64, Option<SliceSpec>)>, scalars: Vec<f64>| Cmd::EvalKernel {
                kernel,
                inputs,
                scalars,
                outs: vec![KernelOut::Reduce {
                    kind: ReduceKind::Sum,
                    reg: (seamless::bytecode::RegFile::F, 0),
                }],
                dtype: DType::F64,
                native: false,
            };
        let (out, none) = (900, 999);
        let cases = [
            (
                Cmd::Create {
                    id: out,
                    meta: no_dims.clone(),
                    fill: Fill::Zeros,
                },
                "one dimension",
            ),
            (
                Cmd::SetData {
                    id: out,
                    meta: no_dims,
                    data: crate::Buffer::F64(vec![1.0]),
                },
                "one dimension",
            ),
            (
                Cmd::Create {
                    id: out,
                    meta: ArrayMeta {
                        shape: vec![4],
                        dist: Dist::BlockCyclic(0),
                        dtype: DType::I64,
                    },
                    fill: Fill::Zeros,
                },
                "block size",
            ),
            (
                Cmd::Redistribute {
                    out,
                    a: none,
                    dist: Dist::Block,
                },
                "999",
            ),
            (
                Cmd::Redistribute {
                    out,
                    a: x,
                    dist: Dist::BlockCyclic(0),
                },
                "block size",
            ),
            (
                Cmd::Slice {
                    out,
                    a: none,
                    specs: vec![full(6)],
                },
                "999",
            ),
            (
                Cmd::Slice {
                    out,
                    a: m,
                    specs: vec![full(3)],
                },
                "one slice spec per dimension",
            ),
            (
                Cmd::Slice {
                    out,
                    a: x,
                    specs: vec![spec(0, 6, 0)],
                },
                "slice beyond",
            ),
            (
                Cmd::Slice {
                    out,
                    a: x,
                    specs: vec![spec(4, 2, 1)],
                },
                "slice beyond",
            ),
            (
                Cmd::Slice {
                    out,
                    a: m,
                    specs: vec![full(3), spec(0, 5, 1)],
                },
                "slice beyond",
            ),
            (
                Cmd::Reduce {
                    a: none,
                    kind: ReduceKind::Sum,
                    axis: 0,
                    out,
                },
                "999",
            ),
            (
                Cmd::Reduce {
                    a: m,
                    kind: ReduceKind::Sum,
                    axis: 2,
                    out,
                },
                "out of range",
            ),
            (
                Cmd::Reduce {
                    a: x,
                    kind: ReduceKind::Max,
                    axis: 0,
                    out,
                },
                "ndim ≥ 2",
            ),
            (Cmd::Fetch { a: none }, "999"),
            (
                Cmd::CallLocal {
                    fn_id: none,
                    arrays: vec![x],
                    scalars: vec![],
                },
                "unknown local function 999",
            ),
            (
                Cmd::CallLocal {
                    fn_id: f,
                    arrays: vec![x, none],
                    scalars: vec![],
                },
                "999",
            ),
            (Cmd::CumSum { out, a: none }, "999"),
            (Cmd::CumSum { out, a: m }, "1-D"),
            (Cmd::CumSum { out, a: cyc }, "Block"),
            (
                Cmd::ArgReduce {
                    a: none,
                    is_max: true,
                },
                "999",
            ),
            (
                Cmd::ArgReduce {
                    a: empty,
                    is_max: false,
                },
                "empty",
            ),
            (Cmd::Concat { out, a: none, b: x }, "999"),
            (Cmd::Concat { out, a: x, b: none }, "999"),
            (Cmd::Concat { out, a: x, b: m }, "1-D"),
            (Cmd::MatMul { out, a: none, b: m }, "999"),
            (Cmd::MatMul { out, a: m, b: x }, "2-D"),
            (Cmd::MatMul { out, a: m, b: m }, "inner dims"),
            (eval(none, vec![(x, None)], vec![1.0]), "unknown kernel 999"),
            (eval(k, vec![(none, None)], vec![1.0]), "999"),
            (eval(k, vec![(x, None), (none, None)], vec![]), "999"),
            (
                eval(k, vec![(x, None), (cyc, None)], vec![]),
                "not conformable",
            ),
            (eval(k, vec![(x, None)], vec![]), "2 parameters"),
            (eval(k, vec![(x, None); 2], vec![1.0]), "2 parameters"),
            (eval(k, vec![], vec![1.0, 2.0]), "at least one array"),
            (eval(k, vec![(cyc, Some(full(6)))], vec![1.0]), "Block base"),
            (
                eval(k, vec![(x, Some(spec(0, 6, 2)))], vec![1.0]),
                "steps by 1",
            ),
            (
                eval(k, vec![(x, Some(spec(2, 7, 1)))], vec![1.0]),
                "slice beyond",
            ),
            (
                eval(k, vec![(x, Some(spec(1, 6, 1))), (x, None)], vec![]),
                "not conformable",
            ),
        ];
        let refuse = |cmd: &Cmd, what: &str| {
            let want = cmd.check(&*ctx.held.borrow()).unwrap_err();
            assert!(want.contains(what), "{cmd:?}: {want}");
            let (stats, batch) = (ctx.stats(), ctx.batch.borrow().clone());
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.send_cmd(cmd)))
                    .expect_err("the master refuses it");
            assert_eq!(panic.downcast_ref::<String>(), Some(&want), "{cmd:?}");
            assert_eq!(ctx.stats(), stats, "{cmd:?}");
            assert_eq!(*ctx.batch.borrow(), batch, "{cmd:?}");
        };
        for (cmd, what) in &cases {
            refuse(cmd, what);
        }
        assert!(ctx.dead_workers().is_empty());
        ctx.recover(&OdinCheckpoint::empty());
        refuse(&Cmd::Fetch { a: x }, "lost");
    }

    #[test]
    fn a_refused_command_that_reaches_the_workers_ends_them_and_recover_serves() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(6);
        // Buffered raw, past the master's check: each worker's check
        // refuses the step-0 slice, and the worker exits.
        ctx.buffer_cmd(&Cmd::Slice {
            out: ctx.alloc_id(),
            a: x.id(),
            specs: vec![crate::slicing::SliceSpec {
                start: 0,
                stop: 6,
                step: 0,
            }],
        });
        assert!(matches!(
            ctx.try_barrier(),
            Err(OdinError::WorkerDead { .. })
        ));
        ctx.recover(&crate::OdinCheckpoint::empty());
        assert_eq!(ctx.arange(4).sum(), 6.0);
        assert!(ctx.health_check().is_ok());
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
        let _x = ctx.zeros(&[6], DType::F64); // command 1
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
