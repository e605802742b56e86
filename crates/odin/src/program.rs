//! Whole-program trace capture and dataflow optimization (DESIGN §14).
//!
//! A [`Program`] records lazy computations — expression assignments,
//! reductions, redistributes — into an interned dataflow graph instead of
//! executing them eagerly. Statements are ordinary [`Expr`] trees; a
//! later statement names an earlier one through its [`Traced`] /
//! [`TracedScalar`] handle (`Expr::from(handle)`). [`Program::run`] then
//! optimizes across statements before touching the workers:
//!
//! - **cross-statement fusion**: producer/consumer elementwise statements
//!   with the same template geometry merge into one Seamless kernel (one
//!   [`Cmd::EvalKernel`] launch materializes several arrays and folds
//!   several reductions),
//! - **CSE**: structural interning means a repeated expression fragment
//!   compiles and runs once,
//! - **DSE**: statements whose results are never read and never requested
//!   as outputs don't launch at all,
//! - **communication-avoiding scheduling**: operand alignment is pooled,
//!   so a non-conformable operand consumed by N statements moves at most
//!   once per target distribution (through the same cached-route
//!   redistribute machinery).
//!
//! This is the crate's only lowering: [`Expr::eval`] and [`Expr::reduce`]
//! are one-statement programs. A fused multi-statement run stays
//! **bitwise-identical** to running its statements one at a time — the
//! same `Lowerer` emitters fix the FP operation order per statement,
//! and fusing across a non-F64 intermediate inserts the materialize/stage
//! round-trip cast the separate launches would have performed. The one
//! documented divergence: a reduction result consumed through its
//! [`TracedScalar`] handle is typed `F64`, while pasting the same value
//! back in as an integral `Expr::Scalar` literal would infer `I64`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::array::DistArray;
use crate::buffer::{binary_result_dtype, scalar_dtype, unary_result_dtype, DType};
use crate::context::OdinContext;
use crate::lazy::{powic_exponent, Expr, Lowerer, NO_ARRAY_OPERAND};
use crate::protocol::{ArrayMeta, BinOp, Cmd, Dist, KernelOut, ReduceKind, UnaryOp};
use seamless::bytecode::{Reg, RegFile};

pub(crate) const FOREIGN_HANDLE: &str = "Traced handle used outside the Program that created it";

/// Source of per-trace ids: every handle is stamped with the id of the
/// [`Program`] that issued it, so it cannot index another trace's
/// statements.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(0);

/// Handle to a traced array statement (an assignment or redistribute);
/// feed it back into expressions via `Expr::from`, or request it as a
/// program output in [`Program::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traced {
    trace: u64,
    stmt: usize,
}

/// Handle to a traced reduction; read its value from
/// [`ProgramRun::scalar`], or feed it into later statements via
/// `Expr::from` (it becomes an f64 scalar parameter of the fused kernel,
/// resolved from the earlier launch's reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedScalar {
    trace: u64,
    stmt: usize,
}

/// The statement a handle names inside trace `trace`; a handle stamped by
/// any other trace is refused.
fn owned(trace: u64, handle_trace: u64, stmt: usize) -> usize {
    assert_eq!(handle_trace, trace, "{FOREIGN_HANDLE}");
    stmt
}

/// Structural identity of an interned dataflow node. Two statements that
/// build the same tree over the same operands share every node — that's
/// the CSE pass, paid at trace time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    /// Index into the program's leaf table.
    Leaf(usize),
    Scalar(u64),
    /// Value of an earlier array statement.
    Ref(usize),
    /// Value of an earlier reduction statement.
    ScalarRef(usize),
    Unary(UnaryOp, usize),
    Binary(BinOp, usize, usize),
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: NodeKey,
    dtype: DType,
}

#[derive(Debug, Clone, Copy)]
enum StmtKind {
    Eval { root: usize },
    Reduce { root: usize, kind: ReduceKind },
    Redistribute { src: usize },
}

/// Which array feeds a fused-kernel parameter: a program leaf or the
/// materialized output of an earlier statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArrayInput {
    Leaf(usize),
    Ref(usize),
}

/// Distinct operands of one statement, in first-seen left-to-right order
/// (the parameter-binding order of its kernel). The first array is the
/// statement's template: its geometry is the result's.
#[derive(Debug, Default)]
struct StmtInputs {
    arrays: Vec<ArrayInput>,
    /// Reduction statements whose values this statement reads.
    scalars: Vec<usize>,
}

impl StmtInputs {
    /// Earlier statements this one reads.
    fn deps(&self) -> impl Iterator<Item = usize> + '_ {
        let refs = self.arrays.iter().filter_map(|a| match a {
            ArrayInput::Ref(d) => Some(*d),
            ArrayInput::Leaf(_) => None,
        });
        refs.chain(self.scalars.iter().copied())
    }
}

#[derive(Debug)]
struct Stmt {
    kind: StmtKind,
    /// Output meta: template geometry with the statement's result dtype
    /// (for reductions: the template geometry the fold runs at).
    out_meta: ArrayMeta,
    /// Computed once when the statement is recorded; every pass of
    /// [`Program::run`] reads it.
    inputs: StmtInputs,
}

/// Optimization decisions of one [`Program::run`], also mirrored into the
/// obs registry as `fusion.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Statements recorded in the trace.
    pub statements: u64,
    /// Fused kernel launches actually issued.
    pub kernel_launches: u64,
    /// Launches statement-at-a-time execution would have issued (one per
    /// recorded eval/reduce statement).
    pub baseline_launches: u64,
    /// Structurally repeated operation nodes that were interned instead
    /// of re-recorded (`fusion.cse_hits`).
    pub cse_hits: u64,
    /// Recorded statements dropped because nothing reads them
    /// (`fusion.dse_eliminated`).
    pub dse_eliminated: u64,
    /// Alignment redistributes actually issued.
    pub redistributes_issued: u64,
    /// Alignment redistributes statement-at-a-time execution would have
    /// issued (one per non-conformable operand per statement).
    pub baseline_redistributes: u64,
    /// Baseline redistributes avoided by pooling moves per (operand,
    /// distribution) pair (`fusion.redistributes_merged`).
    pub redistributes_merged: u64,
    /// Baseline launches avoided by fusion + CSE + DSE
    /// (`fusion.launches_saved`).
    pub launches_saved: u64,
    /// Elements moved by the issued alignment redistributes (counted via
    /// `dmap` owner maps).
    pub elems_moved: u64,
}

/// Results of one [`Program::run`]: the requested arrays, every traced
/// reduction value, and the optimizer's [`ProgramStats`].
pub struct ProgramRun<'c> {
    trace: u64,
    /// Per statement: its array, if requested and not yet taken.
    arrays: Vec<Option<DistArray<'c>>>,
    /// Per statement: its value, if it is a reduction.
    scalars: Vec<Option<f64>>,
    stats: ProgramStats,
}

impl<'c> ProgramRun<'c> {
    /// Take ownership of a requested output array. Panics if `t` wasn't
    /// in the `outputs` of [`Program::run`] or was already taken.
    pub fn array(&mut self, t: Traced) -> DistArray<'c> {
        self.arrays[owned(self.trace, t.trace, t.stmt)]
            .take()
            .expect("statement was not requested as an output (or already taken)")
    }

    /// Value of a traced reduction.
    pub fn scalar(&self, s: TracedScalar) -> f64 {
        self.scalars[owned(self.trace, s.trace, s.stmt)].expect("every traced reduction runs")
    }

    /// The optimizer's decisions for this run.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }
}

struct Group {
    /// Shared template geometry (dtype-free).
    t_meta: ArrayMeta,
    stmts: Vec<usize>,
}

enum Step {
    Kernel(usize),
    Redistribute(usize),
}

/// One fused group as bytecode, with what its parameters and outputs bind.
struct LoweredGroup {
    program: seamless::bytecode::Program,
    /// External operands in parameter order: arrays first, then the
    /// reduction statements whose values arrive as scalars.
    array_inputs: Vec<ArrayInput>,
    scalar_inputs: Vec<usize>,
    /// `(stmt, register)` per harvested output, in statement order.
    outs: Vec<(usize, Reg)>,
}

/// Registers assigned so far while one group is being lowered.
struct Emitted {
    lw: Lowerer,
    /// Per interned node: the register holding it (CSE at the register
    /// level — a node shared by several statements is emitted once).
    node: Vec<Option<Reg>>,
    /// Per statement of this group lowered so far: its root's register.
    stmt_root: Vec<Option<Reg>>,
}

/// A recording scope for lazy computation over one [`OdinContext`];
/// create with [`OdinContext::trace`], execute with [`Program::run`].
pub struct Program<'x, 'c> {
    ctx: &'c OdinContext,
    id: u64,
    /// Distinct array operands with their metas, in first-use order.
    leaves: Vec<(&'x DistArray<'c>, ArrayMeta)>,
    nodes: Vec<Node>,
    interned: HashMap<NodeKey, usize>,
    stmts: Vec<Stmt>,
    cse_hits: u64,
}

impl OdinContext {
    /// Open a whole-program trace: statements recorded on the returned
    /// [`Program`] execute together, optimized across statement
    /// boundaries, when [`Program::run`] is called.
    pub fn trace<'x>(&self) -> Program<'x, '_> {
        Program {
            ctx: self,
            id: NEXT_TRACE.fetch_add(1, Ordering::Relaxed),
            leaves: Vec::new(),
            nodes: Vec::new(),
            interned: HashMap::new(),
            stmts: Vec::new(),
            cse_hits: 0,
        }
    }
}

impl<'x, 'c> Program<'x, 'c> {
    /// Record an elementwise assignment; the result is usable in later
    /// statements via `Expr::from` and requestable as an output.
    pub fn assign(&mut self, e: impl Into<Expr<'x, 'c>>) -> Traced {
        self.assign_ref(&e.into())
    }

    pub(crate) fn assign_ref(&mut self, e: &Expr<'x, 'c>) -> Traced {
        Traced {
            trace: self.id,
            stmt: self.record(e, None),
        }
    }

    /// Record a whole-array reduction over an expression (fused into the
    /// same kernel pass as the statements around it when possible).
    pub fn reduce(&mut self, e: impl Into<Expr<'x, 'c>>, kind: ReduceKind) -> TracedScalar {
        self.reduce_ref(&e.into(), kind)
    }

    pub(crate) fn reduce_ref(&mut self, e: &Expr<'x, 'c>, kind: ReduceKind) -> TracedScalar {
        TracedScalar {
            trace: self.id,
            stmt: self.record(e, Some(kind)),
        }
    }

    /// Traced sum reduction.
    pub fn sum(&mut self, e: impl Into<Expr<'x, 'c>>) -> TracedScalar {
        self.reduce(e, ReduceKind::Sum)
    }

    /// Traced max reduction.
    pub fn max(&mut self, e: impl Into<Expr<'x, 'c>>) -> TracedScalar {
        self.reduce(e, ReduceKind::Max)
    }

    /// Traced min reduction.
    pub fn min(&mut self, e: impl Into<Expr<'x, 'c>>) -> TracedScalar {
        self.reduce(e, ReduceKind::Min)
    }

    /// Record an explicit redistribute of an earlier statement's result.
    pub fn redistribute(&mut self, t: Traced, dist: Dist) -> Traced {
        let src = owned(self.id, t.trace, t.stmt);
        let out_meta = ArrayMeta {
            dist,
            ..self.stmts[src].out_meta.clone()
        };
        self.stmts.push(Stmt {
            kind: StmtKind::Redistribute { src },
            out_meta,
            inputs: StmtInputs {
                arrays: vec![ArrayInput::Ref(src)],
                scalars: Vec::new(),
            },
        });
        Traced {
            trace: self.id,
            stmt: self.stmts.len() - 1,
        }
    }

    /// Intern `e` and push it as a statement (a reduction when `reduce`
    /// is set); returns the statement index. The statement runs at its
    /// leftmost array operand's geometry and every other array operand
    /// must share that shape.
    fn record(&mut self, e: &Expr<'x, 'c>, reduce: Option<ReduceKind>) -> usize {
        let root = self.intern(e);
        let inputs = self.node_inputs(root);
        let template = *inputs.arrays.first().expect(NO_ARRAY_OPERAND);
        let t_meta = self.input_meta(template);
        for a in &inputs.arrays {
            assert_eq!(
                self.input_meta(*a).shape,
                t_meta.shape,
                "fused operands must share a shape"
            );
        }
        let (kind, dtype) = match reduce {
            Some(kind) => (StmtKind::Reduce { root, kind }, DType::F64),
            None => (StmtKind::Eval { root }, self.nodes[root].dtype),
        };
        let out_meta = ArrayMeta {
            dtype,
            ..t_meta.clone()
        };
        self.stmts.push(Stmt {
            kind,
            out_meta,
            inputs,
        });
        self.stmts.len() - 1
    }

    fn input_meta(&self, input: ArrayInput) -> &ArrayMeta {
        match input {
            ArrayInput::Leaf(slot) => &self.leaves[slot].1,
            ArrayInput::Ref(s) => &self.stmts[s].out_meta,
        }
    }

    /// Intern one expression tree into the shared graph, returning its
    /// node id; array leaves are keyed by array id. Repeated operation
    /// nodes count as CSE hits.
    fn intern(&mut self, e: &Expr<'x, 'c>) -> usize {
        let (key, dtype) = match e {
            Expr::Leaf(a) => {
                let known = self.leaves.iter().position(|(l, _)| l.id() == a.id());
                let slot = known.unwrap_or_else(|| {
                    self.leaves.push((a, a.meta()));
                    self.leaves.len() - 1
                });
                (NodeKey::Leaf(slot), self.leaves[slot].1.dtype)
            }
            Expr::Scalar(v) => (NodeKey::Scalar(v.to_bits()), scalar_dtype(*v)),
            Expr::Stmt(t) => {
                let s = owned(self.id, t.trace, t.stmt);
                (NodeKey::Ref(s), self.stmts[s].out_meta.dtype)
            }
            // Reductions resolve to f64 scalars on the master; see the
            // module docs for the (documented) dtype divergence from
            // pasting the value back in as an integral literal.
            Expr::ScalarStmt(r) => (
                NodeKey::ScalarRef(owned(self.id, r.trace, r.stmt)),
                DType::F64,
            ),
            Expr::Unary(op, e) => {
                let c = self.intern(e);
                (
                    NodeKey::Unary(*op, c),
                    unary_result_dtype(*op, self.nodes[c].dtype),
                )
            }
            Expr::Binary(op, a, b) => {
                let ca = self.intern(a);
                let cb = self.intern(b);
                (
                    NodeKey::Binary(*op, ca, cb),
                    binary_result_dtype(*op, self.nodes[ca].dtype, self.nodes[cb].dtype),
                )
            }
        };
        if let Some(&id) = self.interned.get(&key) {
            if matches!(key, NodeKey::Unary(..) | NodeKey::Binary(..)) {
                self.cse_hits += 1;
            }
            return id;
        }
        self.nodes.push(Node { key, dtype });
        self.interned.insert(key, self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    /// Distinct array/scalar operands reachable from `root`, first-seen
    /// left-to-right (the emission order of [`Self::emit_node`]). Operand
    /// nodes are interned, so visiting each node once also visits each
    /// operand once.
    fn node_inputs(&self, root: usize) -> StmtInputs {
        let mut inputs = StmtInputs::default();
        let mut visited = vec![false; root + 1];
        self.walk_inputs(root, &mut visited, &mut inputs);
        inputs
    }

    fn walk_inputs(&self, node: usize, visited: &mut [bool], out: &mut StmtInputs) {
        if std::mem::replace(&mut visited[node], true) {
            return;
        }
        match self.nodes[node].key {
            NodeKey::Leaf(slot) => out.arrays.push(ArrayInput::Leaf(slot)),
            NodeKey::Ref(s) => out.arrays.push(ArrayInput::Ref(s)),
            NodeKey::ScalarRef(s) => out.scalars.push(s),
            NodeKey::Scalar(_) => {}
            NodeKey::Unary(_, c) => self.walk_inputs(c, visited, out),
            NodeKey::Binary(_, a, b) => {
                self.walk_inputs(a, visited, out);
                self.walk_inputs(b, visited, out);
            }
        }
    }

    /// Execute the trace. `outputs` names the array statements the caller
    /// wants materialized and returned; every traced reduction is always
    /// computed. Consumes the program (a trace runs once).
    pub fn run(self, outputs: &[Traced]) -> ProgramRun<'c> {
        let n = self.stmts.len();
        let mut requested = vec![false; n];
        for t in outputs {
            requested[owned(self.id, t.trace, t.stmt)] = true;
        }

        // ---- Liveness (DSE) --------------------------------------------
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = (0..n)
            .filter(|&s| requested[s] || matches!(self.stmts[s].kind, StmtKind::Reduce { .. }))
            .collect();
        while let Some(s) = stack.pop() {
            if !std::mem::replace(&mut live[s], true) {
                stack.extend(self.stmts[s].inputs.deps());
            }
        }
        let dse_eliminated = live.iter().filter(|&&l| !l).count() as u64;

        // ---- Grouping (cross-statement fusion) -------------------------
        // `stmt_step` / `stmt_group` are read only for live dependencies,
        // which precede their consumers and so are already placed.
        let mut steps: Vec<Step> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut stmt_step = vec![0usize; n];
        let mut stmt_group: Vec<Option<usize>> = vec![None; n];
        for s in (0..n).filter(|&s| live[s]) {
            let stmt = &self.stmts[s];
            if let StmtKind::Redistribute { .. } = stmt.kind {
                steps.push(Step::Redistribute(s));
                stmt_step[s] = steps.len() - 1;
                continue;
            }
            let mut min_step = 0usize;
            for a in &stmt.inputs.arrays {
                if let ArrayInput::Ref(d) = *a {
                    let same_group = matches!(self.stmts[d].kind, StmtKind::Eval { .. })
                        && self.stmts[d].out_meta.conformable(&stmt.out_meta);
                    min_step = min_step.max(stmt_step[d] + usize::from(!same_group));
                }
            }
            for &d in &stmt.inputs.scalars {
                min_step = min_step.max(stmt_step[d] + 1);
            }
            // Join the latest compatible kernel group at or after
            // min_step, else open a new one. Arrays are SSA, so any group
            // not before a dependency is safe.
            let joined = (min_step..steps.len())
                .rev()
                .find_map(|idx| match steps[idx] {
                    Step::Kernel(g) if groups[g].t_meta.conformable(&stmt.out_meta) => {
                        Some((idx, g))
                    }
                    _ => None,
                });
            let (step_idx, g) = joined.unwrap_or_else(|| {
                groups.push(Group {
                    t_meta: ArrayMeta {
                        dtype: DType::F64,
                        ..stmt.out_meta.clone()
                    },
                    stmts: Vec::new(),
                });
                steps.push(Step::Kernel(groups.len() - 1));
                (steps.len() - 1, groups.len() - 1)
            });
            groups[g].stmts.push(s);
            stmt_step[s] = step_idx;
            stmt_group[s] = Some(g);
        }

        // ---- Materialization decisions ---------------------------------
        // A statement's result becomes a worker array iff something
        // outside its own fused kernel reads it: a requested output, a
        // redistribute (either side of it), or a consumer in a different
        // group.
        let mut mat_needed = requested.clone();
        for s in (0..n).filter(|&s| live[s]) {
            for a in &self.stmts[s].inputs.arrays {
                if let ArrayInput::Ref(d) = *a {
                    if stmt_group[d] != stmt_group[s] || stmt_group[d].is_none() {
                        mat_needed[d] = true;
                    }
                }
            }
        }

        // ---- Baseline accounting (what statement-at-a-time would do) ---
        let mut baseline_launches = 0u64;
        let mut baseline_redistributes = 0u64;
        for stmt in &self.stmts {
            if !matches!(stmt.kind, StmtKind::Redistribute { .. }) {
                baseline_launches += 1;
                baseline_redistributes += stmt
                    .inputs
                    .arrays
                    .iter()
                    .filter(|&&a| !self.input_meta(a).conformable(&stmt.out_meta))
                    .count() as u64;
            }
        }

        // ---- Execute ---------------------------------------------------
        let ctx = self.ctx;
        // Per statement: the worker array holding its result, once made.
        let mut mat: Vec<Option<DistArray<'c>>> = (0..n).map(|_| None).collect();
        let mut aligned: HashMap<(ArrayInput, Dist), DistArray<'c>> = HashMap::new();
        let mut scalar_vals: Vec<Option<f64>> = vec![None; n];
        let mut pendings: VecDeque<ReduceReply<'c>> = VecDeque::new();
        let mut redistributes_issued = 0u64;
        let mut elems_moved = 0u64;
        let mut kernel_launches = 0u64;

        for step in &steps {
            match *step {
                Step::Redistribute(s) => {
                    let StmtKind::Redistribute { src } = self.stmts[s].kind else {
                        unreachable!()
                    };
                    let out = made(&mat, src).redistribute(self.stmts[s].out_meta.dist);
                    mat[s] = Some(out);
                }
                Step::Kernel(g) => {
                    let group = &groups[g];
                    // Each group is lowered where it launches, so its
                    // program moves into the registry without a copy.
                    let lg = self.lower_group(group, &stmt_group, &mat_needed);
                    // Pooled alignment: each (operand, distribution) pair
                    // moves at most once for the whole program.
                    let mut input_ids: Vec<u64> = Vec::with_capacity(lg.array_inputs.len());
                    for &inp in &lg.array_inputs {
                        let src_arr: &DistArray<'c> = match inp {
                            ArrayInput::Leaf(slot) => self.leaves[slot].0,
                            ArrayInput::Ref(d) => made(&mat, d),
                        };
                        let src_meta = self.input_meta(inp);
                        if src_meta.conformable(&group.t_meta) {
                            input_ids.push(src_arr.id());
                            continue;
                        }
                        let dist = group.t_meta.dist;
                        let copy = aligned.entry((inp, dist)).or_insert_with(|| {
                            redistributes_issued += 1;
                            elems_moved += moved_elems(src_meta, dist, ctx.n_workers());
                            src_arr.redistribute(dist)
                        });
                        input_ids.push(copy.id());
                    }
                    // Resolve scalar parameters, draining earlier replies
                    // in order until each value is known.
                    let mut scalars: Vec<f64> = Vec::with_capacity(lg.scalar_inputs.len());
                    for &d in &lg.scalar_inputs {
                        scalars.push(loop {
                            if let Some(v) = scalar_vals[d] {
                                break v;
                            }
                            let reply = pendings
                                .pop_front()
                                .expect("scheduler ordered a scalar before its reduction");
                            settle(reply, &mut scalar_vals);
                        });
                    }
                    let kernel = ctx.register_kernel_program(lg.program);
                    let template = input_ids[0];
                    let mut outs: Vec<KernelOut> = Vec::with_capacity(lg.outs.len());
                    let mut reduce_stmts: Vec<usize> = Vec::new();
                    for &(s, reg) in &lg.outs {
                        let reg = (RegFile::F, reg);
                        if let StmtKind::Reduce { kind, .. } = self.stmts[s].kind {
                            reduce_stmts.push(s);
                            outs.push(KernelOut::Reduce { kind, reg });
                        } else {
                            let id = ctx.alloc_id();
                            mat[s] = Some(DistArray::from_id(ctx, id));
                            outs.push(KernelOut::Array {
                                id,
                                dtype: self.stmts[s].out_meta.dtype,
                                reg,
                            });
                        }
                    }
                    let cmd = Cmd::EvalKernel {
                        kernel,
                        template,
                        inputs: input_ids,
                        scalars,
                        outs,
                        // Lowered expressions compute in f64 whatever
                        // their result dtype; workers tier up to the
                        // probed native body when the compile plane is
                        // available (the first worker to arrive compiles,
                        // the rest hit the process-global cache).
                        dtype: DType::F64,
                        native: true,
                    };
                    kernel_launches += 1;
                    if reduce_stmts.is_empty() {
                        ctx.send_cmd(&cmd);
                    } else {
                        let pending = ctx.dispatch_single::<Vec<f64>>(&cmd);
                        pendings.push_back((pending, reduce_stmts));
                    }
                }
            }
        }
        for reply in pendings {
            settle(reply, &mut scalar_vals);
        }

        let stats = ProgramStats {
            statements: n as u64,
            kernel_launches,
            baseline_launches,
            cse_hits: self.cse_hits,
            dse_eliminated,
            redistributes_issued,
            baseline_redistributes,
            redistributes_merged: baseline_redistributes.saturating_sub(redistributes_issued),
            launches_saved: baseline_launches.saturating_sub(kernel_launches),
            elems_moved,
        };
        if obs::enabled() {
            let g = obs::global();
            g.counter("fusion.cse_hits").add(stats.cse_hits);
            g.counter("fusion.dse_eliminated").add(stats.dse_eliminated);
            g.counter("fusion.redistributes_merged")
                .add(stats.redistributes_merged);
            g.counter("fusion.launches_saved").add(stats.launches_saved);
        }

        // Keep only the requested arrays; everything else (fused
        // intermediates, aligned copies) frees now — after every command
        // has been issued, so the FIFO worker queues stay consistent.
        for s in (0..n).filter(|&s| !requested[s]) {
            mat[s] = None;
        }
        drop(aligned);
        ProgramRun {
            trace: self.id,
            arrays: mat,
            scalars: scalar_vals,
            stats,
        }
    }

    /// Lower one fused group to straight-line bytecode through the shared
    /// [`Lowerer`] emitters — the only place an expression becomes a
    /// kernel. Parameters bind the group's external operands in
    /// first-seen order; shared subexpressions are emitted once, and a
    /// cross-statement ref is either read from the producer's register
    /// (plus the materialize/stage cast when its dtype isn't F64) or
    /// bound as a parameter.
    fn lower_group(
        &self,
        group: &Group,
        stmt_group: &[Option<usize>],
        mat_needed: &[bool],
    ) -> LoweredGroup {
        let this_group = stmt_group[group.stmts[0]];
        let mut array_inputs: Vec<ArrayInput> = Vec::new();
        let mut scalar_inputs: Vec<usize> = Vec::new();
        for &s in &group.stmts {
            for &a in &self.stmts[s].inputs.arrays {
                let internal = matches!(a, ArrayInput::Ref(d) if stmt_group[d] == this_group);
                if !internal && !array_inputs.contains(&a) {
                    array_inputs.push(a);
                }
            }
            for &d in &self.stmts[s].inputs.scalars {
                if !scalar_inputs.contains(&d) {
                    scalar_inputs.push(d);
                }
            }
        }
        assert!(
            !array_inputs.is_empty(),
            "a fused group needs at least one external array operand"
        );
        let n_params = array_inputs.len() + scalar_inputs.len();
        let mut em = Emitted {
            lw: Lowerer::with_params(RegFile::F, n_params),
            node: vec![None; self.nodes.len()],
            stmt_root: vec![None; self.stmts.len()],
        };
        // Harvested outputs: materialized evals + reductions, statement
        // order. Fully fused intermediates ship no output at all.
        let mut outs: Vec<(usize, Reg)> = Vec::new();
        for &s in &group.stmts {
            let (root, keep) = match self.stmts[s].kind {
                StmtKind::Eval { root } => (root, mat_needed[s]),
                StmtKind::Reduce { root, .. } => (root, true),
                StmtKind::Redistribute { .. } => unreachable!("redistributes are never grouped"),
            };
            let r = self.emit_node(root, &mut em, &array_inputs, &scalar_inputs);
            em.stmt_root[s] = Some(r);
            if keep {
                outs.push((s, r));
            }
        }
        let ret = outs
            .last()
            .expect("fused group produced nothing observable")
            .1;
        LoweredGroup {
            program: em.lw.finish(ret),
            array_inputs,
            scalar_inputs,
            outs,
        }
    }

    /// Emit one interned node unless it already sits in a register;
    /// returns the F register holding its value. `arrays` then `scalars`
    /// are the group's external operands in parameter-register order.
    fn emit_node(
        &self,
        node: usize,
        em: &mut Emitted,
        arrays: &[ArrayInput],
        scalars: &[usize],
    ) -> Reg {
        if let Some(r) = em.node[node] {
            return r;
        }
        const COLLECTED: &str = "operand was collected as a group input";
        let array_param =
            |a: ArrayInput| arrays.iter().position(|x| *x == a).expect(COLLECTED) as Reg;
        let r = match self.nodes[node].key {
            NodeKey::Leaf(slot) => array_param(ArrayInput::Leaf(slot)),
            NodeKey::Scalar(bits) => em.lw.emit_const(f64::from_bits(bits)),
            NodeKey::ScalarRef(d) => {
                let k = scalars.iter().position(|x| *x == d).expect(COLLECTED);
                (arrays.len() + k) as Reg
            }
            NodeKey::Ref(d) => match em.stmt_root[d] {
                // Producer fused into this very kernel: read its root
                // register through the materialize/stage cast so the
                // value matches the materialize-then-stage route.
                Some(src) => em
                    .lw
                    .emit_materialize_cast(src, self.stmts[d].out_meta.dtype),
                None => array_param(ArrayInput::Ref(d)),
            },
            NodeKey::Unary(op, c) => {
                let s = self.emit_node(c, em, arrays, scalars);
                em.lw.emit_unary(op, s)
            }
            NodeKey::Binary(op, a, b) => {
                let ar = self.emit_node(a, em, arrays, scalars);
                // `x ** c` with a small integral constant exponent:
                // strength-reduce to powi without materializing the rhs,
                // exactly as the eager scalar-broadcast ufunc does.
                let pow_const = match (op, self.nodes[b].key) {
                    (BinOp::Pow, NodeKey::Scalar(bits)) => powic_exponent(f64::from_bits(bits)),
                    _ => None,
                };
                match pow_const {
                    Some(e) => em.lw.emit_pow_const(ar, e),
                    None => {
                        let br = self.emit_node(b, em, arrays, scalars);
                        em.lw.emit_binary(op, ar, br)
                    }
                }
            }
        };
        em.node[node] = Some(r);
        r
    }
}

/// One launch's outstanding reduction values and the statements they
/// belong to, in output order.
type ReduceReply<'c> = (crate::reply::Pending<'c, Vec<f64>>, Vec<usize>);

/// Wait for a launch's reduction values and file each under its statement.
fn settle((pending, stmts): ReduceReply<'_>, scalar_vals: &mut [Option<f64>]) {
    for (s, v) in stmts.into_iter().zip(pending.wait()) {
        scalar_vals[s] = Some(v);
    }
}

/// The worker array holding statement `d`'s result.
fn made<'a, 'c>(mat: &'a [Option<DistArray<'c>>], d: usize) -> &'a DistArray<'c> {
    mat[d].as_ref().expect("a producer runs before its readers")
}

/// Elements a redistribute of `src_meta` to `dist` must move, measured
/// through `dmap` owner maps (rows whose owner changes × slab size).
fn moved_elems(src_meta: &ArrayMeta, dist: Dist, n_workers: usize) -> u64 {
    let rows = src_meta.shape[0];
    let map = |d: Dist| dmap::DistMap::with_distribution(d, rows, n_workers, 0);
    let moved = map(src_meta.dist).moved_count(&map(dist)).unwrap_or(rows);
    (moved * src_meta.slab()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let mut p = ctx.trace();
        let t = p.assign(make());
        let mut run = p.run(&[t]);
        assert_eq!(bits(&run.array(t).to_vec()), oracle);
        assert_eq!(bits(&make().eval().to_vec()), oracle);
        assert_eq!(run.stats().kernel_launches, 1);
    }

    #[test]
    fn structurally_identical_statements_share_one_registration() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 64);
        let _warm = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        ctx.reset_stats();
        let mut p = ctx.trace();
        let t = p.assign(Expr::leaf(&x) * 2.0 + 1.0);
        let mut run = p.run(&[t]);
        let _a = run.array(t);
        // One EvalKernel broadcast under 100 B per worker and nothing
        // else: the bytecode matched the already-registered kernel.
        let st = ctx.stats();
        assert_eq!(st.ctrl_msgs, 2, "re-registration happened");
        assert!(st.ctrl_bytes / st.ctrl_msgs < 100);
    }

    #[test]
    fn cse_and_dse_are_counted_and_results_match() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.25, 4.0, 53);
        let shared = || Expr::leaf(&x).sqrt() * 2.0;
        let eager = ((shared() + 1.0).eval(), (shared() * 3.0).eval());
        let mut p = ctx.trace();
        let a = p.assign(shared() + 1.0);
        let b = p.assign(shared() * 3.0);
        let _dead = p.assign(Expr::leaf(&x) * 123.0); // never read, never requested
        let mut run = p.run(&[a, b]);
        assert_eq!(bits(&run.array(a).to_vec()), bits(&eager.0.to_vec()));
        assert_eq!(bits(&run.array(b).to_vec()), bits(&eager.1.to_vec()));
        let st = run.stats();
        assert!(st.cse_hits >= 2, "sqrt and mul should intern: {st:?}");
        assert_eq!(st.dse_eliminated, 1);
        assert_eq!(st.kernel_launches, 1, "both statements fuse: {st:?}");
        assert_eq!(st.launches_saved, 2);
    }

    #[test]
    fn leaf_moved_at_most_once_across_statements() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 24, Dist::Block);
        let c = ctx.arange_f64(0.0, 2.0, 24, Dist::Cyclic);
        // Eager: each statement re-aligns the cyclic leaf.
        let e1 = (Expr::leaf(&x) + Expr::leaf(&c)).eval();
        let e2 = (Expr::leaf(&x) * Expr::leaf(&c)).sum();

        let mut p = ctx.trace();
        let t1 = p.assign(Expr::leaf(&x) + Expr::leaf(&c));
        let r2 = p.sum(Expr::leaf(&x) * Expr::leaf(&c));
        let mut run = p.run(&[t1]);
        assert_eq!(bits(&run.array(t1).to_vec()), bits(&e1.to_vec()));
        assert_eq!(run.scalar(r2).to_bits(), e2.to_bits());
        let st = run.stats();
        assert_eq!(st.baseline_redistributes, 2);
        assert_eq!(st.redistributes_issued, 1);
        assert_eq!(st.redistributes_merged, 1);
        assert!(st.elems_moved > 0);
    }

    #[test]
    fn scalar_refs_flow_between_fused_kernels() {
        let ctx = OdinContext::with_workers(3);
        let r = ctx.linspace(0.3, 1.7, 41);
        let pvec = ctx.linspace(0.9, 0.1, 41);
        // Eager two-phase: alpha = sum(r·r)/sum(p·p); y = r − p·alpha.
        let rr = (Expr::leaf(&r) * Expr::leaf(&r)).sum();
        let pp = (Expr::leaf(&pvec) * Expr::leaf(&pvec)).sum();
        let alpha = rr / pp;
        let eager = (Expr::leaf(&r) - Expr::leaf(&pvec) * alpha).eval();

        let mut p = ctx.trace();
        let rr_t = p.sum(Expr::leaf(&r) * Expr::leaf(&r));
        let pp_t = p.sum(Expr::leaf(&pvec) * Expr::leaf(&pvec));
        let alpha_e = Expr::from(rr_t) / Expr::from(pp_t);
        let y = p.assign(Expr::leaf(&r) - Expr::leaf(&pvec) * alpha_e);
        let mut run = p.run(&[y]);
        assert_eq!(run.scalar(rr_t).to_bits(), rr.to_bits());
        assert_eq!(run.scalar(pp_t).to_bits(), pp.to_bits());
        assert_eq!(bits(&run.array(y).to_vec()), bits(&eager.to_vec()));
        // Two launches: the fused reduction pair, then the update (which
        // must wait for the scalars).
        assert_eq!(run.stats().kernel_launches, 2);
    }

    #[test]
    fn explicit_redistribute_statements_execute_in_order() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.arange_f64(0.0, 1.0, 18, Dist::Block);
        let mut p = ctx.trace();
        let t = p.assign(Expr::leaf(&x) * 2.0);
        let moved = p.redistribute(t, Dist::Cyclic);
        let back = p.assign(Expr::from(moved) + 1.0);
        let mut run = p.run(&[moved, back]);
        let m = run.array(moved);
        assert_eq!(m.meta().dist, Dist::Cyclic);
        let expect: Vec<f64> = x.to_vec().iter().map(|v| v * 2.0).collect();
        assert_eq!(m.to_vec(), expect);
        let expect2: Vec<f64> = expect.iter().map(|v| v + 1.0).collect();
        assert_eq!(run.array(back).to_vec(), expect2);
    }

    #[test]
    fn fusing_across_integer_intermediates_matches_materialization() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.arange(37);
        // x*3 is integer-typed; the consumer must see the same values as
        // if it had been materialized as I64 and re-staged.
        let eager_mid = (Expr::leaf(&x) * 3.0).eval();
        assert_eq!(eager_mid.dtype(), DType::I64);
        let eager = (Expr::leaf(&eager_mid) * 0.5 + 0.25).eval();

        let mut p = ctx.trace();
        let mid = p.assign(Expr::leaf(&x) * 3.0);
        let out = p.assign(Expr::from(mid) * 0.5 + 0.25);
        let mut run = p.run(&[out]);
        assert_eq!(bits(&run.array(out).to_vec()), bits(&eager.to_vec()));
        // Both statements still fused into one launch.
        assert_eq!(run.stats().kernel_launches, 1);
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

    /// A handle stamped by one trace, smuggled into `use_it` through a
    /// fresh trace (or none at all), must be refused by name.
    fn assert_refuses_foreign_handle(use_it: impl FnOnce(&OdinContext, &DistArray, Traced)) {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 16);
        let mut other = ctx.trace();
        other.assign(Expr::leaf(&x) + 1.0);
        let foreign = other.assign(Expr::leaf(&x) * 2.0); // stmt 1: out of bounds elsewhere
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| use_it(&ctx, &x, foreign)))
                .expect_err("a foreign handle was accepted");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains(FOREIGN_HANDLE), "unclear panic: {msg:?}");
    }

    #[test]
    fn foreign_traced_handles_are_refused_with_a_clear_message() {
        // Parent commit: index-out-of-bounds panic, or silently the wrong
        // statement when the index happens to exist.
        assert_refuses_foreign_handle(|ctx, x, t| {
            ctx.trace().assign(Expr::leaf(x) + Expr::from(t));
        });
        assert_refuses_foreign_handle(|ctx, _, t| {
            ctx.trace().redistribute(t, Dist::Cyclic);
        });
        assert_refuses_foreign_handle(|ctx, x, t| {
            let mut p = ctx.trace();
            p.assign(Expr::leaf(x) * 3.0);
            p.run(&[t]);
        });
        // Evaluated directly, with and without an array operand in front.
        assert_refuses_foreign_handle(|_, x, t| drop((Expr::leaf(x) + Expr::from(t)).eval()));
        assert_refuses_foreign_handle(|_, _, t| {
            (Expr::from(t) * 2.0).sum();
        });
        assert_refuses_foreign_handle(|_, x, t| {
            drop((Expr::leaf(x) + Expr::from(t)).eval_unfused())
        });
    }
}
