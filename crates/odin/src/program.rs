//! The context's one open trace and the optimizer every flush runs
//! (DESIGN §8).
//!
//! Every elementwise op — an eager [`DistArray`] ufunc, `astype`,
//! `select`, a whole-array reduction, and so [`crate::Expr::eval`] and
//! [`crate::Expr::reduce`] too — records one statement here instead of
//! launching, and a slice records a view. The next observation (a scalar
//! result, a fetch, a local function, a barrier, a checkpoint, a
//! redistribute, any other command, or [`OdinContext::flush_batch`]) runs
//! the pending statements through one optimizer and posts what it
//! decides:
//!
//! - **liveness from `Drop`**: a statement whose handle was dropped
//!   before the flush is a dead store — eliminated when nothing live reads
//!   it, fused without being materialized when something does;
//! - **cross-statement fusion**: live statements with the same geometry
//!   and the same lane file merge into one Seamless kernel (one
//!   [`Cmd::EvalKernel`] launch materializes several arrays and folds
//!   several reductions);
//! - **CSE**: nodes are interned structurally, so a repeated fragment
//!   compiles and runs once;
//! - **pooled alignment**: a non-conformable operand moves at most once
//!   per target distribution per flush;
//! - **views read in place**: a slice dropped before the flush and read
//!   at its own Block geometry, in unit steps of whole rows, binds as a
//!   row window of its base ([`Cmd::EvalKernel`]'s inputs), so only the
//!   rows past each worker's segment move; every other view — one still
//!   held, or read anywhere else — is materialized once by `Cmd::Slice`
//!   before the launches that read it.
//!
//! A user kernel's [`crate::Kernel::map`] records a *call*: its body is
//! opaque, so a call is a launch of its own under the kernel's registered
//! id, dtype and tier, and it is never eliminated. Its arguments align to
//! the first one's geometry through the pooled alignment, a pending one
//! materialized first, and a whole-array fold of its value rides its
//! launch as a reduce tail.
//!
//! This is the crate's only lowering, with one lane rule: a statement
//! whose value is `I64` runs on i64 lanes, every other on f64 lanes —
//! how the serial oracle ([`crate::reference`]) computes it. A statement
//! reads a pending statement of its own lane and geometry as a register.
//! It recomputes a dropped one of its own lane and another geometry in
//! its own kernel, from that statement's leaves aligned to its geometry,
//! when those leaves move no more elements than the value would; any
//! other pending value is materialized and staged first, as running the
//! statements one at a time would. Every op is elementwise, so a fused
//! run is bitwise-identical to the same code with `flush_batch()` after
//! every statement.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};

use crate::array::DistArray;
use crate::buffer::{binary_result_dtype, scalar_dtype, unary_result_dtype, DType};
use crate::context::OdinContext;
use crate::kernel::Tier;
use crate::lazy::{powic_exponent, Lowerer};
use crate::protocol::{sliced, ArrayMeta, BinOp, Cmd, Dist, KernelOut, ReduceKind, UnaryOp};
use crate::slicing::SliceSpec;
use seamless::bytecode::{Reg, RegFile};

/// Pending statements that force a flush: bounds how deep the trees the
/// optimizer walks can grow in a loop that never observes.
const MAX_PENDING: usize = 1024;

/// One elementwise op as it is recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Unary(UnaryOp),
    Binary(BinOp),
    /// A binary op against a broadcast literal, on the left when the flag
    /// is set.
    Scalar(BinOp, f64, bool),
    /// `astype`.
    Cast(DType),
    /// `where(c, a, b)` over the operands `[c, a, b]`.
    Select,
    /// A user kernel over its arguments.
    Call(Call),
}

/// A registered user kernel as a call launches it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Call {
    pub(crate) kernel: u64,
    /// The dtype of its value.
    pub(crate) ret: DType,
    /// The register its value ends in.
    pub(crate) reg: (RegFile, Reg),
    /// The monomorphization the workers run, and on which tier.
    pub(crate) dtype: DType,
    pub(crate) tier: Tier,
}

impl Op {
    /// The result dtype over operands of `dtypes`.
    fn dtype(self, dtypes: &[DType]) -> DType {
        match self {
            Op::Unary(op) => unary_result_dtype(op, dtypes[0]),
            Op::Binary(op) => binary_result_dtype(op, dtypes[0], dtypes[1]),
            Op::Scalar(op, v, _) => binary_result_dtype(op, dtypes[0], scalar_dtype(v)),
            Op::Cast(dtype) => dtype,
            Op::Select => dtypes[1].promote(dtypes[2]),
            Op::Call(call) => call.ret,
        }
    }
}

/// The lane monomorphization a value of `dtype` runs on.
fn lane(dtype: DType) -> DType {
    match dtype {
        DType::I64 => DType::I64,
        DType::F64 | DType::Bool => DType::F64,
    }
}

/// The register file a lane's parameters and results live in.
fn lane_file(lane: DType) -> RegFile {
    match lane {
        DType::I64 => RegFile::I,
        DType::F64 | DType::Bool => RegFile::F,
    }
}

/// Structural identity of an interned dataflow node: two statements that
/// build the same tree over the same operands share every node — the CSE
/// pass, paid at record time. No node carries a geometry or a lane: the
/// group that emits it decides both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    /// Index into the trace's worker-resident operands.
    Leaf(usize),
    /// A literal, by its bits.
    Scalar(u64),
    /// The value of a statement on another lane or geometry, or of a
    /// call: computed in the reader's kernel when [`Trace::inlined`],
    /// else materialized.
    Ref(usize),
    Unary(UnaryOp, usize),
    Binary(BinOp, usize, usize),
    Select(usize, usize, usize),
    /// `v != 0` as 0.0/1.0: a value cast to `Bool`.
    NonZero(usize),
}

enum Kind {
    /// An array, materialized when something outside its kernel reads it.
    Eval,
    /// A whole-array reduction, always harvested.
    Fold(ReduceKind),
    /// A user kernel over its argument nodes (leaves and references).
    Call(Call, Vec<usize>),
}

struct Stmt {
    kind: Kind,
    /// The node of its value (a call's: its own `Ref`).
    root: usize,
    /// The geometry the statement runs at, with the dtype of its value
    /// (a fold's: the dtype of the array it folds).
    meta: ArrayMeta,
    /// The id its handle names: an array id, or a fold's reply key.
    out: u64,
    /// Whether that handle is still alive.
    held: bool,
    /// Pending statements whose values this one reads.
    reads: Vec<usize>,
}

impl Stmt {
    /// The user kernel a call statement launches.
    fn call(&self) -> Option<Call> {
        match self.kind {
            Kind::Call(call, _) => Some(call),
            _ => None,
        }
    }
}

/// A slice recorded instead of posted: `specs` of a worker-resident base.
struct View {
    base: u64,
    specs: Vec<SliceSpec>,
    /// The view's own meta.
    meta: ArrayMeta,
    /// Its rows as a kernel input window, when the base is Block and the
    /// view takes a unit-step range of whole rows.
    window: Option<SliceSpec>,
    /// Whether its handle is still alive.
    held: bool,
}

impl View {
    /// The window a launch at geometry `at` reads this view through in
    /// place: only a dropped view, only at its own geometry.
    fn window_at(&self, at: &ArrayMeta) -> Option<SliceSpec> {
        self.window
            .filter(|_| !self.held && self.meta.conformable(at))
    }
}

/// The context's open trace: statements and slices recorded since the
/// last flush.
#[derive(Default)]
pub(crate) struct Trace {
    /// Worker-resident operands with their metas, in first-use order.
    leaves: Vec<(u64, ArrayMeta)>,
    nodes: Vec<NodeKey>,
    interned: HashMap<NodeKey, usize>,
    stmts: Vec<Stmt>,
    /// Pending output id → the statement that makes it.
    outputs: HashMap<u64, usize>,
    /// Slices by view id, in the order they were taken.
    views: BTreeMap<u64, View>,
    /// Leaves and view bases whose handles were dropped: freed behind the
    /// flush.
    frees: Vec<u64>,
    /// Operation nodes interned instead of recorded again.
    cse_hits: u64,
    /// Alignments statement-at-a-time execution would issue: one per
    /// non-conformable operand of each op.
    baseline_moves: u64,
    /// The pool size a flush prices its moves at.
    n_workers: usize,
    /// [`Trace::inlined`]'s answers by statement and reader distribution.
    inlining: RefCell<HashMap<(usize, Dist), bool>>,
}

/// A worker array a kernel parameter binds: a leaf by its slot, or the
/// materialized value of a statement.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Leaf(usize),
    Ref(usize),
}

/// The parameter nodes one statement's tree reads, first-seen left to
/// right: arrays (leaves and references), then literals.
#[derive(Default)]
struct Params {
    arrays: Vec<(usize, Operand)>,
    scalars: Vec<(usize, f64)>,
}

/// A group ready to launch: the registered kernel with its lane dtype and
/// tier flag, its array and literal parameter nodes, and each statement
/// with the register its value ends in.
type Lowered = (
    (u64, DType, bool),
    Vec<(usize, Operand)>,
    Vec<(usize, f64)>,
    Vec<(usize, (RegFile, Reg))>,
);

/// Live statements that share a geometry and a lane, or a call and the
/// folds of its value: one launch.
struct Group {
    t_meta: ArrayMeta,
    lane: DType,
    call: Option<Call>,
    stmts: Vec<usize>,
}

impl Trace {
    /// The node an op at geometry `t_meta` reads for array `id`: a pending
    /// statement of the op's lane and geometry by its root (inline, unless
    /// the op is a call), any other pending statement by reference, and a
    /// worker-resident array as a leaf.
    fn operand(
        &mut self,
        id: u64,
        meta: &ArrayMeta,
        t_meta: &ArrayMeta,
        inline: bool,
        reads: &mut Vec<usize>,
    ) -> usize {
        let key = match self.outputs.get(&id) {
            Some(&d) => {
                reads.push(d);
                let producer = &self.stmts[d];
                if inline
                    && lane(producer.meta.dtype) == lane(t_meta.dtype)
                    && producer.meta.conformable(t_meta)
                {
                    return producer.root;
                }
                NodeKey::Ref(d)
            }
            None => {
                let known = self.leaves.iter().position(|(leaf, _)| *leaf == id);
                NodeKey::Leaf(known.unwrap_or_else(|| {
                    self.leaves.push((id, meta.clone()));
                    self.leaves.len() - 1
                }))
            }
        };
        self.intern(key)
    }

    fn intern(&mut self, key: NodeKey) -> usize {
        if let Some(&node) = self.interned.get(&key) {
            let operation = !matches!(key, NodeKey::Leaf(_) | NodeKey::Scalar(_) | NodeKey::Ref(_));
            self.cse_hits += u64::from(operation);
            return node;
        }
        self.nodes.push(key);
        self.interned.insert(key, self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    fn push(&mut self, stmt: Stmt) {
        self.outputs.insert(stmt.out, self.stmts.len());
        self.stmts.push(stmt);
    }

    /// `x ** c` with a small integral literal `c`: the exponent stays in
    /// the body, strength-reduced to `powi` (at most 17 bodies).
    fn pow_const(&self, op: BinOp, rhs: usize) -> Option<i32> {
        match (op, self.nodes[rhs]) {
            (BinOp::Pow, NodeKey::Scalar(bits)) => powic_exponent(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// Whether a reader at geometry `at` computes pending statement `d` in
    /// its own kernel rather than reading it materialized: nothing but the
    /// trace holds `d`'s value, it is no call and it is on the reader's
    /// lane, and aligning `d`'s operands to `at` moves no more elements
    /// (then no more arrays) than running `d` where it stands and moving
    /// its value would. A full tie recomputes it.
    fn inlined(&self, d: usize, at: &ArrayMeta) -> bool {
        let producer = &self.stmts[d];
        let same_lane = lane(producer.meta.dtype) == lane(at.dtype);
        if producer.held || producer.call().is_some() || !same_lane {
            return false;
        }
        if producer.meta.conformable(at) {
            return true;
        }
        if let Some(&known) = self.inlining.borrow().get(&(d, at.dist)) {
            return known;
        }
        let (elems, arrays) = self.moves(producer.root, &producer.meta);
        let value = moved_elems(&producer.meta, at.dist, self.n_workers);
        // A view is read in place only at its own geometry.
        let reads_view = self.tree_params(producer.root, at).arrays.iter().any(|&(_, operand)| {
            matches!(operand, Operand::Leaf(slot) if self.views.contains_key(&self.leaves[slot].0))
        });
        let inline = !reads_view && self.moves(producer.root, at) <= (elems + value, arrays + 1);
        self.inlining.borrow_mut().insert((d, at.dist), inline);
        inline
    }

    /// Elements and arrays that aligning what `node`'s tree reads to `at`
    /// moves.
    fn moves(&self, node: usize, at: &ArrayMeta) -> (u64, u64) {
        let arrays = self.tree_params(node, at).arrays;
        let metas = arrays.iter().map(|&(_, operand)| self.array(operand).1);
        metas
            .filter(|meta| !meta.conformable(at))
            .fold((0, 0), |(elems, arrays), meta| {
                (
                    elems + moved_elems(meta, at.dist, self.n_workers),
                    arrays + 1,
                )
            })
    }

    /// The parameters of statement `s`: a call's arguments in order, or
    /// its tree's.
    fn params(&self, s: usize) -> Params {
        let stmt = &self.stmts[s];
        let Kind::Call(_, args) = &stmt.kind else {
            return self.tree_params(stmt.root, &stmt.meta);
        };
        let arrays = args.iter().map(|&node| match self.nodes[node] {
            NodeKey::Leaf(slot) => (node, Operand::Leaf(slot)),
            NodeKey::Ref(d) => (node, Operand::Ref(d)),
            key => unreachable!("a call argument is an array, not {key:?}"),
        });
        Params {
            arrays: arrays.collect(),
            scalars: Vec::new(),
        }
    }

    /// The parameters of `node`'s tree computed at geometry `at`.
    fn tree_params(&self, node: usize, at: &ArrayMeta) -> Params {
        let mut params = Params::default();
        self.walk_params(node, at, &mut vec![false; self.nodes.len()], &mut params);
        params
    }

    fn walk_params(&self, node: usize, at: &ArrayMeta, seen: &mut [bool], out: &mut Params) {
        if std::mem::replace(&mut seen[node], true) {
            return;
        }
        let mut walk = |n| self.walk_params(n, at, seen, out);
        match self.nodes[node] {
            NodeKey::Leaf(slot) => out.arrays.push((node, Operand::Leaf(slot))),
            NodeKey::Ref(d) if self.inlined(d, at) => walk(self.stmts[d].root),
            NodeKey::Ref(d) => out.arrays.push((node, Operand::Ref(d))),
            NodeKey::Scalar(bits) => out.scalars.push((node, f64::from_bits(bits))),
            NodeKey::Unary(_, c) | NodeKey::NonZero(c) => walk(c),
            NodeKey::Binary(op, a, b) => {
                walk(a);
                if self.pow_const(op, b).is_none() {
                    walk(b);
                }
            }
            NodeKey::Select(c, a, b) => {
                for n in [c, a, b] {
                    walk(n);
                }
            }
        }
    }

    /// The worker array (id and meta) an operand binds.
    fn array(&self, operand: Operand) -> (u64, &ArrayMeta) {
        match operand {
            Operand::Ref(d) => (self.stmts[d].out, &self.stmts[d].meta),
            Operand::Leaf(slot) => (self.leaves[slot].0, &self.leaves[slot].1),
        }
    }

    /// Optimize and post every pending statement on `ctx`.
    fn run(mut self, ctx: &OdinContext) {
        let n = self.stmts.len();
        self.n_workers = ctx.n_workers();
        // ---- Views: one still held is materialized now, as running the
        // statements one at a time would; a dropped one is bound in place
        // by the launch that reads it, or materialized there ------------
        let slice = |out: u64, view: &View| {
            ctx.post(&Cmd::Slice {
                out,
                a: view.base,
                specs: view.specs.clone(),
            });
            ctx.stats.borrow_mut().slices_materialized += 1;
        };
        let mut sliced: HashSet<u64> = HashSet::new();
        for (&id, view) in self.views.iter().filter(|(_, view)| view.held) {
            slice(id, view);
            sliced.insert(id);
        }
        // ---- Liveness: held handles and calls, and what they read by
        // reference ------------------------------------------------------
        let mut params: Vec<Params> = (0..n).map(|_| Params::default()).collect();
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&s| self.stmts[s].held || self.stmts[s].call().is_some())
            .collect();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut live[s], true) {
                let p = self.params(s);
                stack.extend(refs(&p));
                params[s] = p;
            }
        }
        // A dead statement a live one reads inline is fused, not
        // eliminated; one nothing live reads is a dead store.
        let mut used = live.clone();
        let mut stack: Vec<usize> = (0..n).filter(|&s| live[s]).collect();
        while let Some(s) = stack.pop() {
            for &d in &self.stmts[s].reads {
                if !std::mem::replace(&mut used[d], true) {
                    stack.push(d);
                }
            }
        }
        let dse_eliminated = used.iter().filter(|&&u| !u).count() as u64;
        // A fold of a call's value rides the call's launch as a reduce
        // tail, and a call whose handle is gone and whose value only its
        // tails read harvests the tails alone.
        let mut tails: Vec<Option<usize>> = vec![None; n];
        for s in (0..n).filter(|&s| live[s]) {
            let stmt = &self.stmts[s];
            if let (Kind::Fold(_), NodeKey::Ref(c)) = (&stmt.kind, self.nodes[stmt.root]) {
                tails[s] = self.stmts[c].call().map(|_| c);
            }
        }
        let folded_only = |c: usize| {
            let read = |s: usize| live[s] && refs(&params[s]).any(|d| d == c);
            !self.stmts[c].held
                && tails.contains(&Some(c))
                && (0..n).all(|s| tails[s] == Some(c) || !read(s))
        };

        // ---- Grouping: a call opens its own group and its folds join
        // it; any other statement joins the latest compatible group after
        // every statement it reads by reference (arrays are SSA, so any
        // group not before a dependency is safe) -----------------------
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of = vec![0usize; n];
        for s in (0..n).filter(|&s| live[s]) {
            let stmt = &self.stmts[s];
            let after = refs(&params[s]).map(|d| group_of[d] + 1).max().unwrap_or(0);
            let lane_of = lane(stmt.meta.dtype);
            let call = stmt.call();
            let joined = tails[s].map(|c| group_of[c]).or_else(|| {
                (after..groups.len()).rev().find(|&g| {
                    call.is_none()
                        && groups[g].call.is_none()
                        && groups[g].lane == lane_of
                        && groups[g].t_meta.conformable(&stmt.meta)
                })
            });
            let g = joined.unwrap_or_else(|| {
                groups.push(Group {
                    t_meta: stmt.meta.clone(),
                    lane: lane_of,
                    call,
                    stmts: Vec::new(),
                });
                groups.len() - 1
            });
            groups[g].stmts.push(s);
            group_of[s] = g;
        }

        // ---- Execute ---------------------------------------------------
        // Dead statements read by reference and aligned copies: freed once
        // every launch is posted, so the FIFO worker queues stay consistent.
        let mut temps: Vec<DistArray<'_>> = Vec::new();
        let mut aligned: HashMap<(u64, Dist), u64> = HashMap::new();
        let (mut moves, mut elems_moved) = (0u64, 0u64);
        for group in &groups {
            let ((kernel, dtype, native), arrays, scalars, regs) =
                self.lower_group(group, &params, ctx);
            // A dropped view at its own geometry is read in place; any
            // other materializes once. Pooled alignment: each (operand,
            // distribution) pair moves at most once per flush.
            let mut inputs: Vec<(u64, Option<SliceSpec>)> = Vec::with_capacity(arrays.len());
            for &(_, operand) in &arrays {
                let (id, meta) = self.array(operand);
                let dist = group.t_meta.dist;
                if let Some(view) = self.views.get(&id) {
                    if let Some(rows) = view.window_at(&group.t_meta) {
                        inputs.push((view.base, Some(rows)));
                        continue;
                    }
                    if sliced.insert(id) {
                        slice(id, view);
                        temps.push(DistArray::from_id(ctx, id));
                    }
                }
                if meta.conformable(&group.t_meta) {
                    inputs.push((id, None));
                    continue;
                }
                let copy = *aligned.entry((id, dist)).or_insert_with(|| {
                    moves += 1;
                    elems_moved += moved_elems(meta, dist, self.n_workers);
                    let out = ctx.alloc_id();
                    ctx.post(&Cmd::Redistribute { out, a: id, dist });
                    temps.push(DistArray::from_id(ctx, out));
                    out
                });
                inputs.push((copy, None));
            }
            let (mut outs, mut folds, mut kinds) = (Vec::new(), Vec::new(), Vec::new());
            for &(s, reg) in &regs {
                let stmt = &self.stmts[s];
                match stmt.kind {
                    Kind::Fold(kind) => {
                        folds.push(stmt.out);
                        kinds.push(kind);
                        outs.push(KernelOut::Reduce { kind, reg });
                    }
                    Kind::Call(..) if folded_only(s) => {}
                    _ => {
                        if !stmt.held {
                            temps.push(DistArray::from_id(ctx, stmt.out));
                        }
                        outs.push(KernelOut::Array {
                            id: stmt.out,
                            dtype: stmt.meta.dtype,
                            reg,
                        });
                    }
                }
            }
            ctx.post(&Cmd::EvalKernel {
                kernel,
                inputs,
                scalars: scalars.iter().map(|&(_, v)| v).collect(),
                outs,
                dtype,
                native,
            });
            if !folds.is_empty() {
                ctx.launch_folds(&folds, kinds);
            }
        }

        let launches = groups.len() as u64;
        {
            let mut st = ctx.stats.borrow_mut();
            st.statements += n as u64;
            st.kernel_launches += launches;
            st.cse_hits += self.cse_hits;
            st.dse_eliminated += dse_eliminated;
            st.redistributes_issued += moves;
            st.redistributes_merged += self.baseline_moves.saturating_sub(moves);
            st.launches_saved += (n as u64).saturating_sub(launches);
            st.elems_moved += elems_moved;
        }
        drop(temps);
        for id in self.frees {
            ctx.post(&Cmd::Free { id });
        }
    }

    /// Lower one group to straight-line bytecode through the shared
    /// [`Lowerer`] emitters — the only place an elementwise value becomes
    /// a kernel — and register it; a call's group launches the call's
    /// kernel over its arguments instead. Parameters bind the group's
    /// operands in first-seen order, arrays then literals, so the body
    /// holds no value a caller chose and its key is its structure, lane and
    /// dtypes. Shared nodes are emitted once.
    fn lower_group(&self, group: &Group, params: &[Params], ctx: &OdinContext) -> Lowered {
        if let Some(call) = group.call {
            let regs = group.stmts.iter().map(|&s| (s, call.reg)).collect();
            let launch = (call.kernel, call.dtype, call.tier == Tier::Native);
            return (
                launch,
                params[group.stmts[0]].arrays.clone(),
                Vec::new(),
                regs,
            );
        }
        let (mut arrays, mut scalars) = (Vec::new(), Vec::new());
        for p in group.stmts.iter().map(|&s| &params[s]) {
            merge(&mut arrays, &p.arrays);
            merge(&mut scalars, &p.scalars);
        }
        let mut lw = Lowerer::with_params(lane_file(group.lane), arrays.len() + scalars.len());
        let mut emitted: Vec<Option<Reg>> = vec![None; self.nodes.len()];
        let nodes = arrays
            .iter()
            .map(|a| a.0)
            .chain(scalars.iter().map(|v| v.0));
        for (k, node) in nodes.enumerate() {
            emitted[node] = Some(k as Reg);
        }
        let file = lane_file(group.lane);
        let regs: Vec<(usize, (RegFile, Reg))> = group
            .stmts
            .iter()
            .map(|&s| {
                (
                    s,
                    (file, self.emit(self.stmts[s].root, &mut lw, &mut emitted)),
                )
            })
            .collect();
        let ret = regs.last().map_or(0, |&(_, (_, r))| r);
        // Workers tier up to the probed native body when the compile plane
        // is available (the first worker to arrive compiles, the rest hit
        // the process-global cache).
        let kernel = ctx.register_kernel_program(lw.finish(ret));
        ((kernel, group.lane, true), arrays, scalars, regs)
    }

    /// Emit one interned node unless it already sits in a register (the
    /// parameters are seeded, so a `Ref` reached here is inlined); returns
    /// the register holding its value.
    fn emit(&self, node: usize, lw: &mut Lowerer, emitted: &mut [Option<Reg>]) -> Reg {
        if let Some(r) = emitted[node] {
            return r;
        }
        let r = match self.nodes[node] {
            NodeKey::Unary(op, c) => {
                let s = self.emit(c, lw, emitted);
                lw.emit_unary(op, s)
            }
            NodeKey::Binary(op, a, b) => {
                let ar = self.emit(a, lw, emitted);
                match self.pow_const(op, b) {
                    Some(e) => lw.emit_pow_const(ar, e),
                    None => {
                        let br = self.emit(b, lw, emitted);
                        lw.emit_binary(op, ar, br)
                    }
                }
            }
            NodeKey::Select(c, a, b) => {
                let [c, a, b] = [c, a, b].map(|n| self.emit(n, lw, emitted));
                lw.emit_select(c, a, b)
            }
            NodeKey::NonZero(c) => {
                let s = self.emit(c, lw, emitted);
                lw.emit_nonzero(s)
            }
            NodeKey::Ref(d) => self.emit(self.stmts[d].root, lw, emitted),
            key @ (NodeKey::Leaf(_) | NodeKey::Scalar(_)) => {
                unreachable!("{key:?} is a parameter, seeded before emission")
            }
        };
        emitted[node] = Some(r);
        r
    }
}

/// Statements a statement's parameters read by reference.
fn refs(params: &Params) -> impl Iterator<Item = usize> + '_ {
    params
        .arrays
        .iter()
        .filter_map(|&(_, operand)| match operand {
            Operand::Ref(d) => Some(d),
            Operand::Leaf(_) => None,
        })
}

/// Append to `all` the parameters of `mine` it does not hold yet (by node).
fn merge<T: Copy>(all: &mut Vec<(usize, T)>, mine: &[(usize, T)]) {
    for &(node, v) in mine {
        if !all.iter().any(|&(n, _)| n == node) {
            all.push((node, v));
        }
    }
}

/// Elements a redistribute of `src_meta` to `dist` moves, measured
/// through `dmap` owner maps (rows whose owner changes × slab size).
fn moved_elems(src_meta: &ArrayMeta, dist: Dist, n_workers: usize) -> u64 {
    let rows = src_meta.shape[0];
    let map = |d: Dist| dmap::DistMap::with_distribution(d, rows, n_workers, 0);
    let moved = map(src_meta.dist).moved_count(&map(dist)).unwrap_or(rows);
    (moved * src_meta.slab()) as u64
}

impl OdinContext {
    /// Record `op` over `args` as one statement running at
    /// `args[template]`'s geometry, and return the handle of its result.
    /// Nothing is posted: the next observation flushes the trace. A dead
    /// or lost operand panics here, at the call site, as its meta lookup
    /// does.
    pub(crate) fn record<'c>(
        &'c self,
        op: Op,
        args: &[&DistArray<'c>],
        template: usize,
    ) -> DistArray<'c> {
        let metas: Vec<ArrayMeta> = args.iter().map(|a| a.meta()).collect();
        for m in &metas {
            assert_eq!(
                m.shape, metas[0].shape,
                "elementwise operands must share a shape"
            );
        }
        let dtypes: Vec<DType> = metas.iter().map(|m| m.dtype).collect();
        let meta = ArrayMeta {
            dtype: op.dtype(&dtypes),
            ..metas[template].clone()
        };
        let out = self.alloc_id();
        let full = {
            let mut trace = self.trace.borrow_mut();
            let t = &mut *trace;
            t.baseline_moves += metas.iter().filter(|m| !m.conformable(&meta)).count() as u64;
            let call = matches!(op, Op::Call(_));
            let mut reads = Vec::new();
            let nodes: Vec<usize> = args
                .iter()
                .zip(&metas)
                .map(|(a, m)| t.operand(a.id(), m, &meta, !call, &mut reads))
                .collect();
            let key = match op {
                Op::Unary(u) => Some(NodeKey::Unary(u, nodes[0])),
                Op::Binary(b) => Some(NodeKey::Binary(b, nodes[0], nodes[1])),
                Op::Scalar(b, v, left) => {
                    let s = t.intern(NodeKey::Scalar(v.to_bits()));
                    Some(if left {
                        NodeKey::Binary(b, s, nodes[0])
                    } else {
                        NodeKey::Binary(b, nodes[0], s)
                    })
                }
                // A Bool value is 0.0/1.0 already, and every other cast is
                // the staging of the operand onto the result's lane.
                Op::Cast(DType::Bool) if dtypes[0] != DType::Bool => {
                    Some(NodeKey::NonZero(nodes[0]))
                }
                Op::Cast(_) | Op::Call(_) => None,
                Op::Select => Some(NodeKey::Select(nodes[0], nodes[1], nodes[2])),
            };
            let (kind, root) = match op {
                Op::Call(c) => (Kind::Call(c, nodes), t.intern(NodeKey::Ref(t.stmts.len()))),
                _ => (Kind::Eval, key.map_or(nodes[0], |k| t.intern(k))),
            };
            t.push(Stmt {
                kind,
                root,
                meta: meta.clone(),
                out,
                held: true,
                reads,
            });
            t.stmts.len() >= MAX_PENDING
        };
        self.held.borrow_mut().metas.insert(out, meta);
        if full {
            self.flush_trace();
        }
        DistArray::from_id(self, out)
    }

    /// Record a whole-array reduction of `a` and return the key its
    /// [`crate::Pending`] waits on.
    pub(crate) fn record_fold(&self, a: &DistArray<'_>, kind: ReduceKind) -> u64 {
        let meta = a.meta();
        let out = self.alloc_id();
        let mut trace = self.trace.borrow_mut();
        let mut reads = Vec::new();
        let root = trace.operand(a.id(), &meta, &meta, true, &mut reads);
        trace.push(Stmt {
            kind: Kind::Fold(kind),
            root,
            meta,
            out,
            held: true,
            reads,
        });
        out
    }

    /// Record `specs` (one per dimension) of `a` as a view and return its
    /// handle: nothing is posted, and the next flush reads it in place or
    /// materializes it (see [`Trace::run`]). A view's base is always
    /// worker-resident: slicing a pending statement or a view flushes it
    /// first. A bad spec panics here, as the materializing command's check
    /// would.
    pub(crate) fn record_slice<'c>(
        &'c self,
        a: &DistArray<'c>,
        specs: &[SliceSpec],
    ) -> DistArray<'c> {
        if self.is_pending(a.id()) || self.trace.borrow().views.contains_key(&a.id()) {
            self.flush_trace();
        }
        let base_meta = a.meta();
        let meta = sliced(&base_meta, specs).unwrap_or_else(|e| panic!("{e}"));
        let whole_rows = specs[1..]
            .iter()
            .zip(&base_meta.shape[1..])
            .all(|(s, &n)| *s == SliceSpec::full(n));
        let window =
            (base_meta.dist == Dist::Block && specs[0].step == 1 && whole_rows).then_some(specs[0]);
        let out = self.alloc_id();
        let view = View {
            base: a.id(),
            specs: specs.to_vec(),
            meta: meta.clone(),
            window,
            held: true,
        };
        self.trace.borrow_mut().views.insert(out, view);
        self.held.borrow_mut().metas.insert(out, meta);
        DistArray::from_id(self, out)
    }

    /// Optimize and post every pending statement and view (see the module
    /// docs). The trace is taken out first, so what the flush itself
    /// posts — slices, alignments, registrations, frees — finds an empty
    /// one.
    pub(crate) fn flush_trace(&self) {
        let trace = std::mem::take(&mut *self.trace.borrow_mut());
        if !(trace.stmts.is_empty() && trace.views.is_empty() && trace.frees.is_empty()) {
            trace.run(self);
        }
    }

    /// Whether `out` names a statement still in the trace.
    pub(crate) fn is_pending(&self, out: u64) -> bool {
        self.trace.borrow().outputs.contains_key(&out)
    }

    /// Drop the handle of pending statement or view `out` (`Drop` is the
    /// liveness oracle); false when `out` is neither. A view no pending
    /// statement reads goes with its handle.
    pub(crate) fn unhold(&self, out: u64) -> bool {
        let mut trace = self.trace.borrow_mut();
        if let Some(&s) = trace.outputs.get(&out) {
            trace.stmts[s].held = false;
            return true;
        }
        let t = &mut *trace;
        let Some(view) = t.views.get_mut(&out) else {
            return false;
        };
        view.held = false;
        if !t.leaves.iter().any(|(leaf, _)| *leaf == out) {
            t.views.remove(&out);
        }
        true
    }

    /// The handle of array `id` was dropped. A pending statement or a view
    /// just loses its handle; a worker-resident array is freed — behind
    /// the next flush, when a pending statement or a view reads it.
    pub(crate) fn release(&self, id: u64) {
        if self.unhold(id) {
            self.forget_meta(id);
            return;
        }
        let mut trace = self.trace.borrow_mut();
        let leaf = trace.leaves.iter().any(|(leaf, _)| *leaf == id);
        if leaf || trace.views.values().any(|view| view.base == id) {
            trace.frees.push(id);
            return;
        }
        drop(trace);
        self.post(&Cmd::Free { id });
    }

    /// Drop the pending statements unrun (their pool is gone), and forget
    /// the arrays whose frees waited behind them.
    pub(crate) fn discard_trace(&self) {
        for id in self.trace.take().frees {
            self.forget_meta(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::buffer::DType;
    use crate::context::OdinContext;
    use crate::lazy::Expr;
    use crate::protocol::Dist;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_lone_expression_is_one_launch_and_matches_the_serial_oracle() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 2.0, 101);
        let y = ctx.linspace(1.0, 3.0, 101);
        let make = || (Expr::leaf(&x).pow(2.0) + Expr::leaf(&y).pow(2.0)).sqrt() * 0.5;
        let oracle = bits(crate::reference::eval(&make()).unwrap().as_f64());
        let base = ctx.stats();
        let t = make().eval();
        assert_eq!(bits(&t.to_vec()), oracle);
        let st = ctx.stats() - base;
        assert_eq!((st.statements, st.kernel_launches), (5, 1), "{st:?}");
        // written eagerly, the same statements are the same launch
        let eager = &(&x.powf(2.0) + &y.powf(2.0)).sqrt() * 0.5;
        assert_eq!(bits(&eager.to_vec()), oracle);
    }

    #[test]
    fn structurally_identical_statements_share_one_registration() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 64);
        let _warm = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        ctx.flush_batch();
        let base = ctx.stats();
        let _a = &(&x * 2.0) + 1.0;
        ctx.flush_batch();
        // One EvalKernel broadcast under 100 B per worker and nothing
        // else: the bytecode matched the already-registered kernel.
        let st = ctx.stats() - base;
        assert_eq!(st.ctrl_msgs, 2, "re-registration happened");
        assert!(st.ctrl_bytes / st.ctrl_msgs < 100);
    }

    #[test]
    fn cse_and_dse_are_counted_and_results_match() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.25, 4.0, 53);
        let shared = || &x.sqrt() * 2.0;
        let program = |flush: bool| {
            let step = |a| {
                if flush {
                    ctx.flush_batch();
                }
                a
            };
            let a = step(&shared() + 1.0);
            let b = step(&shared() * 3.0);
            drop(step(&x * 123.0)); // a dead store: never read
            (bits(&a.to_vec()), bits(&b.to_vec()))
        };
        let eager = program(true);
        let base = ctx.stats();
        assert_eq!(program(false), eager);
        let st = ctx.stats() - base;
        assert!(st.cse_hits >= 2, "sqrt and mul should intern: {st:?}");
        assert_eq!(st.dse_eliminated, 1, "{st:?}");
        assert_eq!(st.kernel_launches, 1, "both statements fuse: {st:?}");
        assert_eq!(st.launches_saved, st.statements - 1, "{st:?}");
    }

    #[test]
    fn leaf_moved_at_most_once_across_statements() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 24, Dist::Block);
        let c = ctx.arange_f64(0.0, 2.0, 24, Dist::Cyclic);
        let program = |flush: bool| {
            let t1 = &x + &c;
            if flush {
                ctx.flush_batch();
            }
            let r2 = (&x * &c).sum();
            (bits(&t1.to_vec()), r2.to_bits())
        };
        let eager = program(true);
        let base = ctx.stats();
        assert_eq!(program(false), eager);
        let st = ctx.stats() - base;
        assert_eq!(st.redistributes_issued, 1, "{st:?}");
        assert_eq!(st.redistributes_merged, 1, "{st:?}");
        assert!(st.elems_moved > 0);
    }

    #[test]
    fn reductions_recorded_together_share_a_launch_and_gate_the_next() {
        let ctx = OdinContext::with_workers(3);
        let r = ctx.linspace(0.3, 1.7, 41);
        let pvec = ctx.linspace(0.9, 0.1, 41);
        // alpha = sum(r·r)/sum(p·p); y = r − p·alpha
        let program = |flush: bool| {
            let rr = (&r * &r).sum_async();
            if flush {
                ctx.flush_batch();
            }
            let pp = (&pvec * &pvec).sum_async();
            let (rr, pp) = (rr.wait(), pp.wait());
            let y = &r - &(&pvec * (rr / pp));
            (rr.to_bits(), pp.to_bits(), bits(&y.to_vec()))
        };
        let base = ctx.stats();
        let eager = program(true);
        let eager_launches = (ctx.stats() - base).kernel_launches;
        let base = ctx.stats();
        assert_eq!(program(false), eager);
        // Two launches: the fused reduction pair, then the update (which
        // must wait for the scalars).
        assert_eq!((ctx.stats() - base).kernel_launches, 2);
        assert_eq!(eager_launches, 3);
    }

    #[test]
    fn a_redistribute_observes_the_statements_before_it() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 18, Dist::Block);
        let t = &x * 2.0;
        let moved = t.redistribute(Dist::Cyclic);
        let back = &moved + 1.0;
        assert_eq!(moved.meta().dist, Dist::Cyclic);
        let expect: Vec<f64> = x.to_vec().iter().map(|v| v * 2.0).collect();
        assert_eq!(moved.to_vec(), expect);
        let expect2: Vec<f64> = expect.iter().map(|v| v + 1.0).collect();
        assert_eq!(back.to_vec(), expect2);
    }

    #[test]
    fn fusion_crosses_a_bool_intermediate_but_not_a_lane_change() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(37);
        let y = ctx.linspace(-1.0, 1.0, 37);
        // `y > 0` is Bool on f64 lanes: its consumer reads the register
        // as materializing and staging it would give, in the same launch.
        // `x * 3` is I64 on i64 lanes, so its f64 consumer is a second
        // launch that stages the materialized array.
        let program = |flush: bool| {
            let step = |a| {
                if flush {
                    ctx.flush_batch();
                }
                a
            };
            let mask = step(y.binary_scalar(0.0, crate::BinOp::Gt, false));
            let masked = step(&(&mask * 0.5) + 0.25);
            let mid = step(&x * 3.0);
            let out = step(&(&mid * 0.5) + 0.25);
            assert_eq!((mask.dtype(), mid.dtype()), (DType::Bool, DType::I64));
            drop((mask, mid));
            (bits(&masked.to_vec()), bits(&out.to_vec()))
        };
        let eager = program(true);
        let base = ctx.stats();
        assert_eq!(program(false), eager);
        // `mask` and `masked` share one; `mid` and `out` need one each.
        assert_eq!((ctx.stats() - base).kernel_launches, 3);
    }

    #[test]
    fn neg_and_elementwise_min_max_match_the_serial_oracle() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(-1.0, 1.0, 33);
        let y = ctx.linspace(0.5, -0.5, 33);
        let make =
            || (-Expr::leaf(&x)).max_with(Expr::leaf(&y)) - Expr::leaf(&x).min_with(0.25.into());
        let oracle = crate::reference::eval(&make()).unwrap();
        assert_eq!(bits(&make().eval().to_vec()), bits(oracle.as_f64()));
    }

    #[test]
    fn a_dropped_value_of_another_geometry_is_recomputed_where_it_is_read() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 29, Dist::Block);
        let y = ctx.arange_f64(-9.5, 0.75, 29, Dist::Cyclic);
        // `y.abs()` runs at y's geometry and is dropped before the flush:
        // its consumer at x's geometry moves y once and computes it inline.
        let make = || Expr::leaf(&x) * 2.0 + Expr::leaf(&y).abs();
        let oracle = bits(crate::reference::eval(&make()).unwrap().as_f64());
        let base = ctx.stats();
        let t = make().eval();
        ctx.flush_batch();
        let st = ctx.stats() - base;
        assert_eq!(
            (st.kernel_launches, st.redistributes_issued),
            (1, 1),
            "{st:?}"
        );
        assert_eq!(bits(&t.to_vec()), oracle);
    }

    #[test]
    fn a_dropped_value_whose_leaves_would_move_more_is_materialized() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 30, Dist::Block);
        let a = ctx.arange_f64(-4.0, 0.5, 30, Dist::Cyclic);
        let b = ctx.arange_f64(2.0, 0.25, 30, Dist::Cyclic);
        let make = || Expr::leaf(&x) + (Expr::leaf(&a) + Expr::leaf(&b));
        let oracle = bits(crate::reference::eval(&make()).unwrap().as_f64());
        // `t` runs at a's geometry and is dropped before the flush; its two
        // Cyclic leaves would move twice what `t` itself moves.
        let program = |flush: bool| {
            let base = ctx.stats();
            let t = &a + &b;
            if flush {
                ctx.flush_batch();
            }
            let r = &x + &t;
            drop(t);
            ctx.flush_batch();
            let st = ctx.stats() - base;
            let counts = (st.kernel_launches, st.redistributes_issued, st.elems_moved);
            (bits(&r.to_vec()), counts)
        };
        let twin = program(true);
        assert_eq!(twin.1, (2, 1, 18), "flush per statement");
        assert_eq!(program(false), twin);
        assert_eq!(twin.0, oracle);
    }

    #[test]
    fn a_loop_that_never_observes_flushes_at_the_cap() {
        let ctx = OdinContext::with_workers(2);
        let mut x = ctx.zeros(&[8], DType::F64);
        let steps = 2 * super::MAX_PENDING;
        for _ in 0..steps {
            x = &x + 1.0;
        }
        assert_eq!(ctx.stats().kernel_launches, 2, "one per full trace");
        assert_eq!(x.sum(), 8.0 * steps as f64);
    }

    #[test]
    fn a_leaf_dropped_under_a_pending_statement_is_freed_behind_the_flush() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 16);
        let id = x.id();
        let y = &x * 4.0;
        drop(x);
        assert!(ctx.held.borrow().metas.contains_key(&id), "freed too soon");
        assert_eq!(y.sum(), 32.0);
        assert!(!ctx.held.borrow().metas.contains_key(&id), "never freed");
        assert_eq!(ctx.stats().kernel_launches, 1);
    }
}
