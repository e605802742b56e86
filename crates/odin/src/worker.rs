//! The worker side of the ODIN pool: the command loop each worker thread
//! runs, the per-command executors, and what a local-mode function sees
//! of its worker ([`WorkerScope`]). Workers own the array *segments*,
//! execute commands in order, and communicate directly with each other
//! over a [`comm`] communicator — never through the master — for
//! redistributions, slicing, reductions and local-mode functions.

use std::collections::HashMap;
use std::sync::Arc;

use comm::{encode_to_vec, Comm, Cursor, Payload, Wire};
use dlinalg::DistVector;
use obs::rng::mix64;
use seamless::bytecode::{Program, Reg, RegFile};
use seamless::vm::Lane;

use crate::buffer::{Buffer, DType};
use crate::protocol::{ArrayMeta, Cmd, Dist, Fill, Holdings, KernelOut, ReduceKind};
use crate::slicing::{
    concat_worker, redistribute_worker, slice_worker, window_ghosts, SliceSpec, Window,
};

/// Signature of a registered local-mode function (the `@odin.local`
/// decorator analog): it runs on every worker with direct access to the
/// worker's scope and the call's array/scalar arguments.
pub type LocalFn = Arc<dyn Fn(&mut WorkerScope<'_>, &[u64], &[f64]) + Send + Sync>;

/// What a local-mode function sees on each worker: the worker
/// communicator (for direct worker↔worker communication), the segment
/// store, and the structured-table store (§III-I).
pub struct WorkerScope<'a> {
    /// The worker communicator.
    pub comm: &'a Comm,
    arrays: &'a mut HashMap<u64, (ArrayMeta, Buffer)>,
    tables: &'a mut HashMap<u64, crate::table::TableSeg>,
}

impl<'a> WorkerScope<'a> {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.comm.size()
    }

    /// Metadata of an array.
    pub fn meta(&self, id: u64) -> &ArrayMeta {
        &self.arrays.get(&id).expect("unknown array on worker").0
    }

    /// This worker's segment of an array.
    pub fn local(&self, id: u64) -> &Buffer {
        &self.arrays.get(&id).expect("unknown array on worker").1
    }

    /// Mutable segment access.
    pub fn local_mut(&mut self, id: u64) -> &mut Buffer {
        &mut self.arrays.get_mut(&id).expect("unknown array on worker").1
    }

    /// The [`dmap::DistMap`] of an array's distributed axis.
    pub fn axis_map(&self, id: u64) -> dmap::DistMap {
        let meta = self.meta(id);
        meta.axis_map(self.n_workers(), self.rank())
    }

    /// Insert (or replace) an array segment.
    pub fn insert(&mut self, id: u64, meta: ArrayMeta, data: Buffer) {
        debug_assert_eq!(
            data.len(),
            meta.local_len(self.n_workers(), self.rank()),
            "segment length must match the meta"
        );
        self.arrays.insert(id, (meta, data));
    }

    /// View a 1-D block-distributed f64 array as a [`DistVector`] — the
    /// ODIN↔Trilinos bridge (§III-E). Panics if not conformable with a
    /// block vector layout (redistribute first).
    pub fn as_dist_vector(&self, id: u64) -> DistVector<f64> {
        let meta = self.meta(id);
        assert_eq!(meta.ndim(), 1, "bridge requires a 1-D array");
        assert_eq!(meta.dist, Dist::Block, "bridge requires block distribution");
        assert_eq!(meta.dtype, DType::F64, "bridge requires f64");
        let map = self.axis_map(id);
        DistVector::from_local(map, self.local(id).as_f64().to_vec())
    }

    /// Store a [`DistVector`] back as the segment of array `id`.
    pub fn store_dist_vector(&mut self, id: u64, v: &DistVector<f64>) {
        let meta = ArrayMeta {
            shape: vec![v.n_global()],
            dist: Dist::Block,
            dtype: DType::F64,
        };
        self.insert(id, meta, Buffer::F64(v.local().to_vec()));
    }

    /// Send a reply payload to the master (used by local functions whose
    /// caller collects one reply from every worker).
    pub fn reply(&self, bytes: Vec<u8>) {
        reply(self.comm, bytes);
    }

    /// This worker's segment of a distributed table.
    pub fn table(&self, id: u64) -> &crate::table::TableSeg {
        self.tables.get(&id).expect("unknown table on worker")
    }

    /// Insert (or replace) a table segment.
    pub fn insert_table(&mut self, id: u64, seg: crate::table::TableSeg) {
        self.tables.insert(id, seg);
    }

    /// Drop a table segment.
    pub fn remove_table(&mut self, id: u64) {
        self.tables.remove(&id);
    }
}

/// Uniform [0,1) from (seed, global element index) — worker-count
/// invariant by construction.
fn seeded_uniform(seed: u64, gidx: u64) -> f64 {
    let bits = mix64(seed ^ mix64(gidx));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn fill_buffer(meta: &ArrayMeta, fill: &Fill, n_workers: usize, rank: usize) -> Buffer {
    let map = meta.axis_map(n_workers, rank);
    let slab = meta.slab();
    let n_local = map.my_count() * slab;
    match fill {
        Fill::Zeros => Buffer::zeros(meta.dtype, n_local),
        Fill::Full(v) => match meta.dtype {
            DType::F64 => Buffer::F64(vec![*v; n_local]),
            DType::I64 => Buffer::I64(vec![*v as i64; n_local]),
            DType::Bool => Buffer::Bool(vec![*v != 0.0; n_local]),
        },
        Fill::Arange { start, step } => {
            let vals = local_global_indices(&map, slab).map(|g| start + step * g as f64);
            match meta.dtype {
                DType::F64 => Buffer::F64(vals.collect()),
                DType::I64 => Buffer::I64(vals.map(|v| v as i64).collect()),
                DType::Bool => Buffer::Bool(vals.map(|v| v != 0.0).collect()),
            }
        }
        Fill::Linspace { start, stop } => {
            let n = meta.n_global();
            let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
            let step = (stop - start) / denom;
            let s = *start;
            Buffer::F64(
                local_global_indices(&map, slab)
                    .map(|g| s + step * g as f64)
                    .collect(),
            )
        }
        Fill::Random { seed } => {
            let s = *seed;
            Buffer::F64(
                local_global_indices(&map, slab)
                    .map(|g| seeded_uniform(s, g as u64))
                    .collect(),
            )
        }
    }
}

/// Iterator of global flat indices for this worker's segment, in local
/// storage order (rows along the distributed axis are contiguous).
fn local_global_indices(map: &dmap::DistMap, slab: usize) -> impl Iterator<Item = usize> + '_ {
    (0..map.my_count()).flat_map(move |l| {
        let g = map.local_to_global(l);
        (0..slab).map(move |k| g * slab + k)
    })
}

/// Row buffers one worker recycles across kernel invokes (staged inputs,
/// constant scalar rows, reduction rows), so steady-state kernel
/// execution stops reallocating them per command. One pool per lane type.
#[derive(Default)]
struct WorkerScratch {
    f64_rows: Vec<Vec<f64>>,
    i64_rows: Vec<Vec<i64>>,
}

/// Answer the master on the wire arm. Best-effort: a master mid-teardown
/// (its mailbox gone) is not an error the worker can act on, so the
/// payload is discarded and the worker exits at its next `recv_host`.
fn reply(comm: &Comm, bytes: Vec<u8>) {
    let _ = comm.send_host(Payload::Bytes(bytes));
}

pub(crate) fn worker_main(comm: &mut Comm) {
    let mut worker = Worker::default();
    // Idle in the rank's own mailbox: parked there the worker still acks
    // peers and resends what it owes them. The wait ends in an error once
    // the master has dropped its end.
    'outer: while let Ok((post, flow)) = comm.recv_host() {
        let bytes = match post {
            // One or more concatenated Wire-encoded commands.
            Payload::Bytes(bytes) => bytes,
            // The master's one region post: a local-mode function object.
            Payload::Region(region) => {
                if let Some((id, f)) = region.take::<(u64, LocalFn)>() {
                    worker.fns.insert(id, f);
                }
                continue;
            }
        };
        // Execution span consuming the dispatch's control flow
        // (`obs::flow`, 0 when tracing is off): cross-clock-domain, so it
        // annotates the trace (arrow from the master) without entering
        // the critical path.
        let timer = if flow != 0 && obs::enabled() {
            Some(obs::span::span_start(comm.virtual_time()))
        } else {
            None
        };
        let mut cur = Cursor::new(&bytes);
        while cur.remaining() > 0 {
            // Bytes that do not decode end this rank as a kill does, and
            // so does a command `exec_cmd`'s check refuses: only corrupt
            // or hostile input gets here, and the master reads the
            // gone-notice.
            let Ok(cmd) = Cmd::decode(&mut cur) else {
                break 'outer;
            };
            // Fault-injection hook: a killed worker stops executing and
            // exits; the master hears of it from the rank's gone-notice.
            if comm.fault_tick().is_err() {
                break 'outer;
            }
            if !exec_cmd(comm, &mut worker, cmd) {
                break 'outer;
            }
        }
        if let Some(t) = timer {
            t.finish_meta(
                "odin",
                "exec",
                comm.virtual_time(),
                &[("cmd_bytes", bytes.len() as f64)],
                obs::span::SpanMeta {
                    kind: obs::span::SpanKind::Other,
                    flow_out: 0,
                    flow_in: flow,
                },
            );
        }
    }
}

/// What one worker holds: its segments, tables, local functions, kernels
/// and scratch rows. [`Cmd::check`] reads the segments' metas and the two
/// registries.
#[derive(Default)]
struct Worker {
    arrays: HashMap<u64, (ArrayMeta, Buffer)>,
    tables: HashMap<u64, crate::table::TableSeg>,
    fns: HashMap<u64, LocalFn>,
    kernels: HashMap<u64, Program>,
    scratch: WorkerScratch,
}

impl Holdings for Worker {
    fn array(&self, id: u64) -> Result<&ArrayMeta, String> {
        self.arrays
            .get(&id)
            .map(|(meta, _)| meta)
            .ok_or_else(|| format!("unknown array id {id}"))
    }

    fn kernel(&self, id: u64) -> Option<&Program> {
        self.kernels.get(&id)
    }

    fn has_local_fn(&self, id: u64) -> bool {
        self.fns.contains_key(&id)
    }
}

/// Execute one command; returns false on shutdown and on a command
/// [`Cmd::check`] refuses.
fn exec_cmd(comm: &Comm, worker: &mut Worker, cmd: Cmd) -> bool {
    let p = comm.size();
    let rank = comm.rank();
    // What the command makes, by the check the master passed it through
    // too; each array-producing arm returns one segment per entry, in
    // order, and no arm checks again what the check proved.
    let Ok(results) = cmd.check(&*worker) else {
        return false;
    };
    let Worker {
        arrays,
        tables,
        fns,
        kernels,
        scratch,
    } = worker;
    let out_meta = || &results[0].1;
    let made: Vec<Buffer> = match cmd {
        Cmd::Create { meta, fill, .. } => {
            let data = fill_buffer(&meta, &fill, p, rank);
            comm.advance_compute(data.len() as f64);
            vec![data]
        }
        Cmd::SetData { data, .. } => vec![data],
        Cmd::Redistribute { a, .. } => {
            let (meta, buf) = &arrays[&a];
            vec![redistribute_worker(comm, meta, buf, out_meta())]
        }
        Cmd::Slice { a, specs, .. } => {
            let (meta, buf) = &arrays[&a];
            vec![slice_worker(comm, meta, buf, &specs, out_meta())]
        }
        Cmd::Reduce { a, kind, axis, .. } => {
            let (meta, buf) = &arrays[&a];
            let fold = match buf.dtype() {
                DType::F64 => exec_reduce::<f64>,
                DType::I64 | DType::Bool => exec_reduce::<i64>,
            };
            vec![fold(comm, meta, buf, kind, axis, out_meta())]
        }
        Cmd::Fetch { a } => {
            let (_, buf) = &arrays[&a];
            // Segments at or above the zero-copy threshold move as typed
            // regions (the Buffer clone is unavoidable here — the worker
            // keeps its segment — but the encode/decode round-trip is
            // not). Small segments take the classic wire path.
            let n = buf.wire_size();
            let msg = if n >= comm.zerocopy_threshold() {
                Payload::Region(comm::Region::new(buf.clone(), n))
            } else {
                Payload::Bytes(comm::encode_to_vec(buf))
            };
            let _ = comm.send_host(msg);
            Vec::new()
        }
        Cmd::CallLocal {
            fn_id,
            arrays: arg_arrays,
            scalars,
        } => {
            let f = Arc::clone(&fns[&fn_id]);
            let mut scope = WorkerScope {
                comm,
                arrays,
                tables,
            };
            f(&mut scope, &arg_arrays, &scalars);
            Vec::new()
        }
        Cmd::Free { id } => {
            arrays.remove(&id);
            fns.remove(&id);
            Vec::new()
        }
        Cmd::Ping => {
            reply(comm, Vec::new());
            Vec::new()
        }
        Cmd::Shutdown => return false,
        Cmd::CumSum { a, .. } => {
            let buf = &arrays[&a].1;
            comm.advance_compute(buf.len() as f64);
            // In the segment's own type (integers and bools in wrapping
            // i64, like NumPy), so no sum rounds through f64.
            vec![match buf {
                Buffer::F64(v) => Buffer::F64(scan(comm, v.clone(), |x, y| x + y)),
                other => {
                    let v = (0..other.len()).map(|i| other.get_i64(i)).collect();
                    Buffer::I64(scan(comm, v, i64::wrapping_add))
                }
            }]
        }
        Cmd::ArgReduce { a, is_max } => {
            let (meta, buf) = &arrays[&a];
            let map = meta.axis_map(p, rank);
            let slab = meta.slab().max(1);
            let gids = (0..buf.len()).map(|i| map.local_to_global(i / slab) * slab + i % slab);
            // Every worker replies its candidate, compared in the segment's
            // own type; the master picks among them by the same rule.
            let candidate = match buf {
                Buffer::F64(v) => encode_to_vec(&arg_best(is_max, v.iter().copied().zip(gids))),
                Buffer::I64(v) => encode_to_vec(&arg_best(is_max, v.iter().copied().zip(gids))),
                Buffer::Bool(v) => encode_to_vec(&arg_best(is_max, v.iter().copied().zip(gids))),
            };
            comm.advance_compute(buf.len() as f64);
            reply(comm, candidate);
            Vec::new()
        }
        Cmd::Concat { a, b, .. } => {
            vec![concat_worker(comm, &arrays[&a], &arrays[&b], out_meta())]
        }
        Cmd::MatMul { a, b, .. } => {
            let (ma, ba) = &arrays[&a];
            let (mb, bb) = &arrays[&b];
            let (ka, ncols) = (ma.shape[1], mb.shape[1]);
            // allgather B: each worker contributes (row gids, flat rows);
            // row counts follow the rank, hence the `v`
            let b_map = mb.axis_map(p, rank);
            let my_b: Vec<f64> = (0..bb.len()).map(|i| bb.get_f64(i)).collect();
            let pieces: Vec<(Vec<usize>, Vec<f64>)> = comm.allgatherv(&(b_map.my_gids(), my_b));
            let mut bfull = vec![0.0f64; ka * ncols];
            for (gids, vals) in pieces {
                for (l, g) in gids.into_iter().enumerate() {
                    bfull[g * ncols..(g + 1) * ncols]
                        .copy_from_slice(&vals[l * ncols..(l + 1) * ncols]);
                }
            }
            // local GEMM over my block rows of A (ikj order)
            let a_map = ma.axis_map(p, rank);
            let rows = a_map.my_count();
            let mut c = vec![0.0f64; rows * ncols];
            for i in 0..rows {
                for kk in 0..ka {
                    let aik = ba.get_f64(i * ka + kk);
                    let brow = &bfull[kk * ncols..(kk + 1) * ncols];
                    let crow = &mut c[i * ncols..(i + 1) * ncols];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
            comm.advance_compute(2.0 * (rows * ka * ncols) as f64);
            vec![Buffer::F64(c)]
        }
        Cmd::RegisterKernel { id, program } => {
            kernels.insert(id, program);
            Vec::new()
        }
        Cmd::EvalKernel {
            kernel,
            inputs,
            scalars,
            outs,
            dtype,
            native,
        } => match dtype {
            DType::F64 => exec_kernel::<f64>(
                comm, arrays, kernels, scratch, kernel, &inputs, &scalars, &outs, native,
            ),
            DType::I64 | DType::Bool => exec_kernel::<i64>(
                comm, arrays, kernels, scratch, kernel, &inputs, &scalars, &outs, native,
            ),
        },
    };
    // The one place a command's segments are stored: each under its
    // `results` meta, which must describe it exactly — a master/worker
    // drift fails here, at the command that causes it.
    assert_eq!(made.len(), results.len(), "one segment per result");
    for ((id, meta), data) in results.into_iter().zip(made) {
        assert!(
            data.dtype() == meta.dtype && data.len() == meta.local_len(p, rank),
            "array {id}: a {:?} segment of {} lanes does not fit {meta:?}",
            data.dtype(),
            data.len()
        );
        arrays.insert(id, (meta, data));
    }
    true
}

/// What the lane-generic executors (kernels and axis reductions) need to
/// know about a lane type beyond [`Lane`]: how it maps onto a worker's
/// [`Buffer`] segments, and how it reduces.
trait KernelLane: Lane + Default + PartialEq + Wire {
    /// This lane's recycled row pool.
    fn pool(scratch: &mut WorkerScratch) -> &mut Vec<Vec<Self>>;
    /// The segment's storage when it already is a row of this lane
    /// (streamed in place, no copy).
    fn borrow(buf: &Buffer) -> Option<&[Self]>;
    /// Element `i` of any segment converted to this lane (the staging
    /// conversion: bools widen to 0/1, floats truncate like `astype`).
    fn get(buf: &Buffer, i: usize) -> Self;
    /// A resolved scalar parameter as a lane value.
    fn from_scalar(v: f64) -> Self;
    /// Widened per element for the reduction fold, so collective tails
    /// share the f64 [`KernelLane::combine`] across lanes.
    fn to_f64(self) -> f64;
    /// A raw output row as a segment of this lane's own dtype.
    fn wrap(row: Vec<Self>) -> Buffer;
    /// The identity of `kind` in this lane type.
    fn identity(kind: ReduceKind) -> Self;
    /// `a ∘ b` under `kind` in this lane type (integer sums and products
    /// wrap, like NumPy's int64).
    fn combine(kind: ReduceKind, a: Self, b: Self) -> Self;
}

impl KernelLane for f64 {
    fn pool(scratch: &mut WorkerScratch) -> &mut Vec<Vec<f64>> {
        &mut scratch.f64_rows
    }
    fn borrow(buf: &Buffer) -> Option<&[f64]> {
        match buf {
            Buffer::F64(v) => Some(v),
            _ => None,
        }
    }
    fn get(buf: &Buffer, i: usize) -> f64 {
        buf.get_f64(i)
    }
    fn from_scalar(v: f64) -> f64 {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn wrap(row: Vec<f64>) -> Buffer {
        Buffer::F64(row)
    }
    fn identity(kind: ReduceKind) -> f64 {
        match kind {
            ReduceKind::Sum | ReduceKind::CountNonzero => 0.0,
            ReduceKind::Prod => 1.0,
            ReduceKind::Min => f64::INFINITY,
            ReduceKind::Max => f64::NEG_INFINITY,
        }
    }
    fn combine(kind: ReduceKind, a: f64, b: f64) -> f64 {
        match kind {
            ReduceKind::Sum | ReduceKind::CountNonzero => a + b,
            ReduceKind::Prod => a * b,
            ReduceKind::Min => a.min(b),
            ReduceKind::Max => a.max(b),
        }
    }
}

impl KernelLane for i64 {
    fn pool(scratch: &mut WorkerScratch) -> &mut Vec<Vec<i64>> {
        &mut scratch.i64_rows
    }
    fn borrow(buf: &Buffer) -> Option<&[i64]> {
        match buf {
            Buffer::I64(v) => Some(v),
            _ => None,
        }
    }
    fn get(buf: &Buffer, i: usize) -> i64 {
        buf.get_i64(i)
    }
    fn from_scalar(v: f64) -> i64 {
        v as i64
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn wrap(row: Vec<i64>) -> Buffer {
        Buffer::I64(row)
    }
    fn identity(kind: ReduceKind) -> i64 {
        match kind {
            ReduceKind::Sum | ReduceKind::CountNonzero => 0,
            ReduceKind::Prod => 1,
            ReduceKind::Min => i64::MAX,
            ReduceKind::Max => i64::MIN,
        }
    }
    fn combine(kind: ReduceKind, a: i64, b: i64) -> i64 {
        match kind {
            ReduceKind::Sum | ReduceKind::CountNonzero => a.wrapping_add(b),
            ReduceKind::Prod => a.wrapping_mul(b),
            ReduceKind::Min => a.min(b),
            ReduceKind::Max => a.max(b),
        }
    }
}

/// Lanes per kernel invoke, on either tier.
const CHUNK: usize = 4096;

// Every chunk starts on a stripe boundary, so chunk lane `j` of a
// segment's fold lands in stripe `j mod STRIPES`.
const _: () = assert!(CHUNK.is_multiple_of(STRIPES));

/// One output of a kernel invoke: a result segment written in place, or
/// a recycled chunk row folded as each chunk completes.
enum Harvest<L> {
    Array { row: Vec<L>, dtype: DType },
    Reduce { row: Vec<L>, fold: Fold },
}

/// A recycled row of `len` copies of `fill`.
fn take_row<L: Copy>(pool: &mut Vec<Vec<L>>, len: usize, fill: L) -> Vec<L> {
    let mut row = pool.pop().unwrap_or_default();
    row.clear();
    row.resize(len, fill);
    row
}

/// Run a registered Seamless kernel element-wise over this worker's
/// segment, in lane type `L`, and harvest the register rows named by
/// `outs`: each [`KernelOut::Array`] materializes its row as a segment of
/// its dtype (one final `astype`), returned in `outs` order for
/// [`exec_cmd`] to store, each [`KernelOut::Reduce`] folds its row
/// straight into a scalar — map and reduce in one pass, no materialized
/// intermediate.
///
/// A windowed input (a slice bound in place, DESIGN §8) first receives
/// the lanes of its window other workers hold ([`window_ghosts`]), before
/// the kernel span opens. Then each chunk of an input stored as `L` rows
/// that lies inside this worker's segment is borrowed in place at its
/// offset; the others — the chunks that reach a window's ghost lanes
/// (two for a shift by a few rows), and every chunk of an input of
/// another lane type — are staged through the recycled scratch pool, and
/// scalar parameters become constant rows, so the bytecode sees ordinary
/// lane inputs.
/// Either tier — the VM, or with `native` set the probed C
/// monomorphization (DESIGN §9) — runs [`CHUNK`]-lane chunks, so staged
/// inputs, scalar rows and reduction rows stay L1-sized whatever the
/// segment length, and array rows are written straight into the result
/// segment. The probe gate makes the tiers bitwise-interchangeable, and
/// the modeled compute advance is tier-independent, so chaos/critical-path
/// results do not depend on which tier ran.
///
/// The reduce tail is the one [`Fold`] over the rows widened to f64; every
/// worker then replies its partials, one per reduction in `outs` order,
/// and the master combines them with [`Fold::across`] — two hops, no
/// worker collective. So a fused reduction is bitwise `map(...)` followed
/// by the eager reduction (the identity body with the same tail).
#[allow(clippy::too_many_arguments)]
fn exec_kernel<L: KernelLane>(
    comm: &Comm,
    arrays: &HashMap<u64, (ArrayMeta, Buffer)>,
    kernels: &HashMap<u64, Program>,
    scratch: &mut WorkerScratch,
    kernel: u64,
    inputs: &[(u64, Option<SliceSpec>)],
    scalars: &[f64],
    outs: &[KernelOut],
    native: bool,
) -> Vec<Buffer> {
    let program = &kernels[&kernel];
    let n_instrs = program.funcs.first().map_or(0, |f| f.instrs.len());
    let windows: Vec<(&Buffer, Window)> = inputs
        .iter()
        .map(|&(id, rows)| {
            let (meta, seg) = &arrays[&id];
            let window = match rows {
                Some(rows) => window_ghosts(comm, meta, seg, rows),
                None => Window::whole(seg),
            };
            (seg, window)
        })
        .collect();
    let n = windows.first().map_or(0, |(_, w)| w.ghosts.len() + w.mid);
    // Kernel event span: covers the chunk loop plus its modeled compute
    // advance, closing *before* the reduce tail's reply so no comm spans
    // nest inside it (the critical-path walk treats Kernel spans as
    // atomic clock advances).
    let kernel_timer = if obs::enabled() {
        Some(obs::span::span_start(comm.virtual_time()))
    } else {
        None
    };
    let out_regs: Vec<(RegFile, Reg)> = outs
        .iter()
        .map(|o| match o {
            KernelOut::Array { reg, .. } | KernelOut::Reduce { reg, .. } => *reg,
        })
        .collect();
    // The native cache was warmed master-side at build(), so this lookup
    // never compiles on a worker; a cold cache (a lowered expression's
    // first invoke, a replayed command after recover) compiles once and
    // probes before use. `out_regs` and the scalar count are part of the
    // cache key: the scalars are the body's trailing parameters, read
    // once per call as uniforms.
    let native_fn = if native {
        seamless::codegen::native::<L>(program, &out_regs, scalars.len())
    } else {
        None
    };
    let vm = seamless::vm::Vm::new(program);
    let step = CHUNK.min(n);
    let pool = L::pool(scratch);
    // Array rows are written in place at their final length; reduction
    // rows are one recycled chunk, folded as each chunk completes.
    let mut harvests: Vec<Harvest<L>> = outs
        .iter()
        .map(|o| match *o {
            KernelOut::Array { dtype, .. } => Harvest::Array {
                row: vec![L::default(); n],
                dtype,
            },
            KernelOut::Reduce { kind, .. } => Harvest::Reduce {
                row: take_row(pool, step, L::default()),
                fold: Fold::new(kind),
            },
        })
        .collect();
    let mut staged: Vec<Vec<L>> = windows
        .iter()
        .map(|_| take_row(pool, 0, L::default()))
        .collect();
    // The VM reads a scalar parameter as a row; the native body reads
    // lane 0 once per call.
    let scalar_len = if native_fn.is_some() {
        step.min(1)
    } else {
        step
    };
    let scalar_rows: Vec<Vec<L>> = scalars
        .iter()
        .map(|&v| take_row(pool, scalar_len, L::from_scalar(v)))
        .collect();
    let mut start = 0usize;
    while start < n {
        let end = (start + step).min(n);
        let len = end - start;
        for (buf, (seg, w)) in staged.iter_mut().zip(&windows) {
            if in_place::<L>(seg, w, start, end).is_none() {
                let lane = |i: usize| match i.checked_sub(w.head) {
                    None => L::get(&w.ghosts, i),
                    Some(k) if k < w.mid => L::get(seg, w.at + k),
                    Some(_) => L::get(&w.ghosts, i - w.mid),
                };
                buf.clear();
                buf.extend((start..end).map(lane));
            }
        }
        let mut refs: Vec<&[L]> = windows
            .iter()
            .zip(&staged)
            .map(|((seg, w), buf)| in_place(seg, w, start, end).unwrap_or(buf))
            .collect();
        refs.extend(scalar_rows.iter().map(|r| &r[..len.min(scalar_len)]));
        {
            let mut dst: Vec<&mut [L]> = harvests
                .iter_mut()
                .map(|h| match h {
                    Harvest::Array { row, .. } => &mut row[start..end],
                    Harvest::Reduce { row, .. } => &mut row[..len],
                })
                .collect();
            match &native_fn {
                Some(nf) => nf.run(&refs, &mut dst, len),
                None => vm
                    .run_chunk(0, &refs, &out_regs, &mut dst)
                    .expect("kernel failed on a worker segment"),
            }
        }
        for h in &mut harvests {
            if let Harvest::Reduce { row, fold } = h {
                fold.push(&row[..len], L::to_f64);
            }
        }
        start = end;
    }
    pool.extend(staged.into_iter().chain(scalar_rows));
    // The modeled compute advance is tier- and lane-independent: chaos
    // schedules and critical-path attributions must not depend on which
    // tier executed.
    comm.advance_compute((n * n_instrs.max(1)) as f64);
    if let Some(t) = kernel_timer {
        t.finish_meta(
            "odin",
            "kernel",
            comm.virtual_time(),
            &[
                ("n", n as f64),
                ("instrs", n_instrs as f64),
                ("native", f64::from(u8::from(native_fn.is_some()))),
            ],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Kernel,
                flow_out: 0,
                flow_in: 0,
            },
        );
    }
    let mut partials: Vec<f64> = Vec::new();
    let mut made = Vec::new();
    for h in harvests {
        match h {
            Harvest::Array { row, dtype } => made.push(cast(L::wrap(row), dtype)),
            Harvest::Reduce { row, fold } => {
                pool.push(row);
                partials.push(fold.finish());
            }
        }
    }
    if !partials.is_empty() {
        reply(comm, comm::encode_to_vec(&partials));
    }
    made
}

/// Lanes `start..end` of a kernel input as they lie in its segment, or
/// `None` when some of them are ghosts or the segment is of another lane
/// type.
fn in_place<'a, L: KernelLane>(
    seg: &'a Buffer,
    w: &Window,
    start: usize,
    end: usize,
) -> Option<&'a [L]> {
    if start < w.head || end > w.head + w.mid {
        return None;
    }
    let at = w.at + start - w.head;
    L::borrow(seg).map(|lanes| &lanes[at..at + end - start])
}

/// `buf` as `dtype`, copied only when the type changes.
fn cast(buf: Buffer, dtype: DType) -> Buffer {
    if buf.dtype() == dtype {
        buf
    } else {
        buf.astype(dtype)
    }
}

/// The inclusive prefix sum of this worker's `xs`, shifted by the exscan
/// of the lower ranks' totals — the classic distributed scan.
fn scan<T: Wire + Copy + Default>(comm: &Comm, mut xs: Vec<T>, add: fn(T, T) -> T) -> Vec<T> {
    let mut acc = T::default();
    for x in &mut xs {
        acc = add(acc, *x);
        *x = acc;
    }
    let offset = comm.exscan(&acc, T::default(), |x: &T, y: &T| add(*x, *y));
    for x in &mut xs {
        *x = add(*x, offset);
    }
    xs
}

/// The `argmax` (`is_max`) or `argmin` winner among `(value, global
/// index)` candidates — a worker's local scan and the master's pick among
/// the workers' candidates alike, so the answer does not depend on the
/// segments' split. NumPy's rule: a NaN (unordered against itself, so only
/// an f64) beats every number, then the larger (smaller) value wins, ties
/// — two NaNs too — go to the lower index; an empty candidate (index
/// `usize::MAX`, what no candidates yield) loses.
pub(crate) fn arg_best<T: Copy + Default + PartialOrd>(
    is_max: bool,
    candidates: impl IntoIterator<Item = (T, usize)>,
) -> (T, usize) {
    let pick = |x: (T, usize), y: (T, usize)| {
        let nan = |v: &T| v.partial_cmp(v).is_none();
        let x_wins = match (nan(&x.0), nan(&y.0)) {
            _ if x.1 == usize::MAX || y.1 == usize::MAX => x.1 < y.1,
            (true, true) => x.1 < y.1,
            (x_nan, y_nan) if x_nan != y_nan => x_nan,
            _ => (if is_max { x.0 > y.0 } else { x.0 < y.0 }) || (x.0 == y.0 && x.1 < y.1),
        };
        if x_wins {
            x
        } else {
            y
        }
    };
    candidates
        .into_iter()
        .fold((T::default(), usize::MAX), |best, x| pick(x, best))
}

/// Independent partials of a whole-segment reduction (NumPy's
/// pairwise-sum block keeps eight).
const STRIPES: usize = 8;

/// The one per-element fold of a whole-segment reduction: every
/// `exec_kernel` reduce tail, eager reductions' identity kernels included.
/// Lane `i` of the segment, counted in element order, folds into stripe
/// `i mod 8`; [`Fold::finish`] combines the stripes as
/// `((s0∘s1)∘(s2∘s3))∘((s4∘s5)∘(s6∘s7))`, and the master combines the
/// workers' partials with [`Fold::across`]. Eight independent chains
/// instead of one dependent chain, and the same order on every path,
/// tier and pool width, so every path agrees bit for bit
/// (`odin::reference::fold` is the serial oracle).
pub(crate) struct Fold {
    kind: ReduceKind,
    stripes: [f64; STRIPES],
}

impl Fold {
    fn new(kind: ReduceKind) -> Self {
        Fold {
            kind,
            stripes: [f64::identity(kind); STRIPES],
        }
    }

    /// Fold `row`, whose first lane sits a multiple of [`STRIPES`] into
    /// the segment, each element widened by `widen`. The kind is matched
    /// once per row, so every lane loop is monomorphic.
    fn push<T: Copy>(&mut self, row: &[T], widen: impl Fn(T) -> f64) {
        let s = &mut self.stripes;
        match self.kind {
            ReduceKind::Sum => stripe(s, row, |a, x| a + widen(x)),
            ReduceKind::CountNonzero => {
                stripe(s, row, |a, x| a + f64::from(u8::from(widen(x) != 0.0)))
            }
            ReduceKind::Prod => stripe(s, row, |a, x| a * widen(x)),
            ReduceKind::Min => stripe(s, row, |a, x| a.min(widen(x))),
            ReduceKind::Max => stripe(s, row, |a, x| a.max(widen(x))),
        }
    }

    /// This worker's partial.
    fn finish(&self) -> f64 {
        let [s0, s1, s2, s3, s4, s5, s6, s7] = self.stripes;
        let c = |a, b| f64::combine(self.kind, a, b);
        c(c(c(s0, s1), c(s2, s3)), c(c(s4, s5), c(s6, s7)))
    }

    /// The pool-wide result from the workers' [`Fold::finish`] partials,
    /// in rank order, bracketed as a binomial tree: `(p0∘p1)∘(p2∘p3)` at
    /// four workers, `(p0∘p1)∘p2` at three. The master's half of every
    /// reduce tail.
    pub(crate) fn across(kind: ReduceKind, partials: &[f64]) -> f64 {
        match partials {
            [] => unreachable!("a pool has at least one worker"),
            [only] => *only,
            _ => {
                let (lo, hi) = partials.split_at(partials.len().next_power_of_two() / 2);
                f64::combine(kind, Self::across(kind, lo), Self::across(kind, hi))
            }
        }
    }
}

/// `s[j mod 8] = f(s[j mod 8], row[j])` for every lane `j` of `row`.
#[inline(always)]
fn stripe<T: Copy>(s: &mut [f64; STRIPES], row: &[T], f: impl Fn(f64, T) -> f64) {
    let (blocks, rest) = row.as_chunks::<STRIPES>();
    for block in blocks {
        for (a, &x) in s.iter_mut().zip(block) {
            *a = f(*a, x);
        }
    }
    for (a, &x) in s.iter_mut().zip(rest) {
        *a = f(*a, x);
    }
}

/// Reduce `kind` along `axis` of this worker's segment into its segment
/// of `out_meta`, in the segment's own lane type `L` (f64 stays f64; i64
/// and bools fold as i64), so no integer rounds through f64. The segment
/// is `(outer, red, inner)` with `axis` as `red`, and each output lane
/// folds its `red` inputs in index order. Axis 0 is the split one: its
/// partials combine in one elementwise allreduce, and each worker keeps
/// its block of the result.
fn exec_reduce<L: KernelLane>(
    comm: &Comm,
    meta: &ArrayMeta,
    buf: &Buffer,
    kind: ReduceKind,
    axis: usize,
    out_meta: &ArrayMeta,
) -> Buffer {
    let (p, rank) = (comm.size(), comm.rank());
    let staged: Vec<L>;
    let xs = match L::borrow(buf) {
        Some(xs) => xs,
        None => {
            staged = (0..buf.len()).map(|i| L::get(buf, i)).collect();
            &staged
        }
    };
    let mut local = meta.shape.clone();
    local[0] = meta.axis_map(p, rank).my_count();
    let (red, inner) = (local[axis], local[axis + 1..].iter().product::<usize>());
    let outer: usize = local[..axis].iter().product();
    let (zero, one) = (L::from_scalar(0.0), L::from_scalar(1.0));
    let element = |x: L| match kind {
        ReduceKind::CountNonzero if x != zero => one,
        ReduceKind::CountNonzero => zero,
        _ => x,
    };
    let mut folded = vec![L::identity(kind); outer * inner];
    for (o, acc) in folded.chunks_exact_mut(inner.max(1)).enumerate() {
        for row in xs[o * red * inner..(o + 1) * red * inner].chunks_exact(inner) {
            for (a, &x) in acc.iter_mut().zip(row) {
                *a = L::combine(kind, *a, element(x));
            }
        }
    }
    comm.advance_compute(buf.len() as f64);
    if axis == 0 {
        let full = comm.allreduce(&folded, |x: &Vec<L>, y: &Vec<L>| {
            x.iter()
                .zip(y)
                .map(|(&u, &v)| L::combine(kind, u, v))
                .collect()
        });
        let mine = out_meta.axis_map(p, rank).local_runs();
        folded = dmap::gather_runs(&full, &mine, out_meta.slab());
    }
    cast(L::wrap(folded), out_meta.dtype)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_uniform_is_deterministic_and_in_range() {
        for g in 0..1000u64 {
            let v = seeded_uniform(42, g);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, seeded_uniform(42, g));
        }
        // different seeds decorrelate
        assert_ne!(seeded_uniform(1, 0), seeded_uniform(2, 0));
    }
}
