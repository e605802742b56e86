//! Whole-program trace capture and dataflow optimization (DESIGN §14).
//!
//! A [`Program`] records multi-statement lazy computations — expression
//! assignments, reductions, redistributes — into an interned dataflow
//! graph instead of executing them eagerly. [`Program::run`] then
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
//! - **communication-avoiding scheduling**: the eager per-expression leaf
//!   redistribute done inside `Expr::eval` is deferred and pooled, so a
//!   non-conformable operand consumed by N statements moves at most once
//!   per target distribution (through the same cached-route redistribute
//!   machinery).
//!
//! Execution stays **bitwise-identical** to statement-at-a-time
//! [`Expr::eval`](crate::lazy::Expr::eval): fused kernels reuse the exact
//! same `Lowerer` emitters (same FP operation order per statement), and
//! fusing across a non-F64 intermediate inserts the materialize/stage
//! round-trip cast the eager path would have performed. The one
//! documented divergence: a reduction result consumed via
//! [`Program::reduce`] + [`PExpr::from`] is typed `F64`, while pasting
//! the same value back in as an integral `Expr::Scalar` literal would
//! infer `I64`.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::array::DistArray;
use crate::buffer::{binary_result_dtype, unary_result_dtype, DType};
use crate::context::OdinContext;
use crate::lazy::{powic_exponent, Lowerer};
use crate::protocol::{ArrayMeta, BinOp, Cmd, Dist, KernelOut, ReduceKind, UnaryOp};
use seamless::bytecode::{CompiledFunc, Instr, Reg, RegFile};
use seamless::Type;

/// Handle to a traced array statement (an assignment or redistribute);
/// feed it back into expressions via [`PExpr::from`], or request it as a
/// program output in [`Program::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traced {
    stmt: usize,
}

/// Handle to a traced reduction; read its value from
/// [`ProgramRun::scalar`], or feed it into later statements via
/// [`PExpr::from`] (it becomes an f64 scalar parameter of the fused
/// kernel, resolved from the earlier launch's reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedScalar {
    stmt: usize,
}

/// A lazy expression inside a [`Program`] trace: the owned counterpart of
/// [`Expr`](crate::lazy::Expr), extended with references to earlier
/// traced statements ([`Traced`]) and reductions ([`TracedScalar`]).
#[derive(Debug, Clone)]
pub struct PExpr {
    node: PNode,
}

#[derive(Debug, Clone)]
enum PNode {
    /// Index into the program's leaf table.
    Leaf(usize),
    Scalar(f64),
    /// Value of an earlier array statement.
    Ref(usize),
    /// Value of an earlier reduction statement.
    ScalarRef(usize),
    Unary(UnaryOp, Box<PNode>),
    Binary(BinOp, Box<PNode>, Box<PNode>),
}

impl PExpr {
    /// Wrap a constant.
    pub fn scalar(v: f64) -> Self {
        PExpr {
            node: PNode::Scalar(v),
        }
    }

    fn un(self, op: UnaryOp) -> Self {
        PExpr {
            node: PNode::Unary(op, Box::new(self.node)),
        }
    }

    /// Square root node.
    pub fn sqrt(self) -> Self {
        self.un(UnaryOp::Sqrt)
    }
    /// Sine node.
    pub fn sin(self) -> Self {
        self.un(UnaryOp::Sin)
    }
    /// Cosine node.
    pub fn cos(self) -> Self {
        self.un(UnaryOp::Cos)
    }
    /// Exponential node.
    pub fn exp(self) -> Self {
        self.un(UnaryOp::Exp)
    }
    /// Absolute-value node.
    pub fn abs(self) -> Self {
        self.un(UnaryOp::Abs)
    }
    /// Tangent node.
    pub fn tan(self) -> Self {
        self.un(UnaryOp::Tan)
    }
    /// Natural-logarithm node.
    pub fn ln(self) -> Self {
        self.un(UnaryOp::Log)
    }
    /// Floor node.
    pub fn floor(self) -> Self {
        self.un(UnaryOp::Floor)
    }
    /// Ceiling node.
    pub fn ceil(self) -> Self {
        self.un(UnaryOp::Ceil)
    }
    /// Power with a scalar exponent (small integral exponents
    /// strength-reduce exactly like the single-expression planes).
    pub fn pow(self, e: f64) -> Self {
        PExpr {
            node: PNode::Binary(BinOp::Pow, Box::new(self.node), Box::new(PNode::Scalar(e))),
        }
    }
    /// Elementwise maximum.
    pub fn max_with(self, rhs: PExpr) -> Self {
        PExpr {
            node: PNode::Binary(BinOp::Max, Box::new(self.node), Box::new(rhs.node)),
        }
    }
    /// Elementwise minimum.
    pub fn min_with(self, rhs: PExpr) -> Self {
        PExpr {
            node: PNode::Binary(BinOp::Min, Box::new(self.node), Box::new(rhs.node)),
        }
    }
}

impl From<Traced> for PExpr {
    fn from(t: Traced) -> Self {
        PExpr {
            node: PNode::Ref(t.stmt),
        }
    }
}

impl From<TracedScalar> for PExpr {
    fn from(s: TracedScalar) -> Self {
        PExpr {
            node: PNode::ScalarRef(s.stmt),
        }
    }
}

impl From<f64> for PExpr {
    fn from(v: f64) -> Self {
        PExpr::scalar(v)
    }
}

macro_rules! pexpr_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for PExpr {
            type Output = PExpr;
            fn $method(self, rhs: PExpr) -> PExpr {
                PExpr {
                    node: PNode::Binary($op, Box::new(self.node), Box::new(rhs.node)),
                }
            }
        }
        impl std::ops::$trait<f64> for PExpr {
            type Output = PExpr;
            fn $method(self, rhs: f64) -> PExpr {
                PExpr {
                    node: PNode::Binary($op, Box::new(self.node), Box::new(PNode::Scalar(rhs))),
                }
            }
        }
    };
}

pexpr_binop!(Add, add, BinOp::Add);
pexpr_binop!(Sub, sub, BinOp::Sub);
pexpr_binop!(Mul, mul, BinOp::Mul);
pexpr_binop!(Div, div, BinOp::Div);
pexpr_binop!(Rem, rem, BinOp::Mod);

impl std::ops::Neg for PExpr {
    type Output = PExpr;
    fn neg(self) -> PExpr {
        self.un(UnaryOp::Neg)
    }
}

/// Structural identity of an interned dataflow node. Two statements that
/// build the same tree over the same operands share every node — that's
/// the CSE pass, paid at trace time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    Leaf(usize),
    Scalar(u64),
    Ref(usize),
    ScalarRef(usize),
    Unary(UnaryOp, usize),
    Binary(BinOp, usize, usize),
}

#[derive(Debug, Clone)]
struct Node {
    key: NodeKey,
    dtype: DType,
    /// Node id of the leftmost array operand below (or at) this node —
    /// the statement-template rule `Expr::eval` uses, propagated.
    tref: Option<usize>,
}

#[derive(Debug, Clone)]
enum StmtKind {
    Eval { root: usize },
    Reduce { root: usize, kind: ReduceKind },
    Redistribute { src: usize },
}

#[derive(Debug, Clone)]
struct Stmt {
    kind: StmtKind,
    /// Output meta: template geometry with the statement's result dtype
    /// (for reductions: the template geometry the fold runs at).
    out_meta: ArrayMeta,
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
    arrays: HashMap<usize, DistArray<'c>>,
    scalars: HashMap<usize, f64>,
    stats: ProgramStats,
}

impl<'c> ProgramRun<'c> {
    /// Take ownership of a requested output array. Panics if `t` wasn't
    /// in the `outputs` of [`Program::run`] or was already taken.
    pub fn array(&mut self, t: Traced) -> DistArray<'c> {
        self.arrays
            .remove(&t.stmt)
            .expect("statement was not requested as an output (or already taken)")
    }

    /// Value of a traced reduction.
    pub fn scalar(&self, s: TracedScalar) -> f64 {
        *self.scalars.get(&s.stmt).expect("unknown traced reduction")
    }

    /// The optimizer's decisions for this run.
    pub fn stats(&self) -> ProgramStats {
        self.stats
    }
}

/// Which array feeds a fused-kernel parameter: a program leaf or the
/// materialized output of an earlier statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ArrayInput {
    Leaf(usize),
    Ref(usize),
}

/// Distinct operands of one statement, in first-seen left-to-right order
/// (the parameter-binding order `Expr::lower` uses).
struct StmtInputs {
    arrays: Vec<ArrayInput>,
    scalars: Vec<usize>,
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

struct LoweredGroup {
    program: seamless::bytecode::Program,
    array_inputs: Vec<ArrayInput>,
    scalar_inputs: Vec<usize>,
    /// `(stmt, register)` per harvested output, in statement order.
    outs: Vec<(usize, Reg)>,
}

/// A recording scope for multi-statement lazy computation over one
/// [`OdinContext`]; create with [`OdinContext::trace`], execute with
/// [`Program::run`].
pub struct Program<'x, 'c> {
    ctx: &'c OdinContext,
    leaves: Vec<&'x DistArray<'c>>,
    leaf_slots: HashMap<u64, usize>,
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
            leaves: Vec::new(),
            leaf_slots: HashMap::new(),
            nodes: Vec::new(),
            interned: HashMap::new(),
            stmts: Vec::new(),
            cse_hits: 0,
        }
    }
}

impl<'x, 'c> Program<'x, 'c> {
    /// Wrap an array operand (registered once per distinct array).
    pub fn leaf(&mut self, a: &'x DistArray<'c>) -> PExpr {
        let slot = match self.leaf_slots.get(&a.id()) {
            Some(&s) => s,
            None => {
                self.leaves.push(a);
                self.leaf_slots.insert(a.id(), self.leaves.len() - 1);
                self.leaves.len() - 1
            }
        };
        PExpr {
            node: PNode::Leaf(slot),
        }
    }

    /// Record an elementwise assignment; the result is usable in later
    /// statements via [`PExpr::from`] and requestable as an output.
    pub fn assign(&mut self, e: impl Into<PExpr>) -> Traced {
        let root = self.intern(&e.into().node);
        let out_meta = self.stmt_meta(root);
        self.stmts.push(Stmt {
            kind: StmtKind::Eval { root },
            out_meta,
        });
        Traced {
            stmt: self.stmts.len() - 1,
        }
    }

    /// Record a whole-array reduction over an expression (fused into the
    /// same kernel pass as the statements around it when possible).
    pub fn reduce(&mut self, e: impl Into<PExpr>, kind: ReduceKind) -> TracedScalar {
        let root = self.intern(&e.into().node);
        let mut out_meta = self.stmt_meta(root);
        out_meta.dtype = DType::F64;
        self.stmts.push(Stmt {
            kind: StmtKind::Reduce { root, kind },
            out_meta,
        });
        TracedScalar {
            stmt: self.stmts.len() - 1,
        }
    }

    /// Traced sum reduction.
    pub fn sum(&mut self, e: impl Into<PExpr>) -> TracedScalar {
        self.reduce(e, ReduceKind::Sum)
    }

    /// Traced max reduction.
    pub fn max(&mut self, e: impl Into<PExpr>) -> TracedScalar {
        self.reduce(e, ReduceKind::Max)
    }

    /// Traced min reduction.
    pub fn min(&mut self, e: impl Into<PExpr>) -> TracedScalar {
        self.reduce(e, ReduceKind::Min)
    }

    /// Record an explicit redistribute of an earlier statement's result.
    pub fn redistribute(&mut self, t: Traced, dist: Dist) -> Traced {
        let src = &self.stmts[t.stmt];
        assert!(
            !matches!(src.kind, StmtKind::Reduce { .. }),
            "cannot redistribute a reduction"
        );
        let out_meta = ArrayMeta {
            dist,
            ..src.out_meta.clone()
        };
        self.stmts.push(Stmt {
            kind: StmtKind::Redistribute { src: t.stmt },
            out_meta,
        });
        Traced {
            stmt: self.stmts.len() - 1,
        }
    }

    /// Template meta for a statement rooted at `root`: the leftmost array
    /// operand's geometry with the expression's result dtype — exactly
    /// the rule `Expr::eval` applies per statement.
    fn stmt_meta(&self, root: usize) -> ArrayMeta {
        let t = self.nodes[root]
            .tref
            .expect("traced statement needs at least one array operand");
        let t_meta = self.operand_meta(t);
        // Mirror Expr::align's shape assertion for every array operand.
        let inputs = self.node_inputs(root);
        for a in &inputs.arrays {
            assert_eq!(
                self.input_meta(*a).shape,
                t_meta.shape,
                "fused operands must share a shape"
            );
        }
        ArrayMeta {
            dtype: self.nodes[root].dtype,
            ..t_meta
        }
    }

    fn operand_meta(&self, node: usize) -> ArrayMeta {
        match self.nodes[node].key {
            NodeKey::Leaf(slot) => self.leaves[slot].meta(),
            NodeKey::Ref(s) => self.stmts[s].out_meta.clone(),
            _ => unreachable!("template node must be an array operand"),
        }
    }

    fn input_meta(&self, input: ArrayInput) -> ArrayMeta {
        match input {
            ArrayInput::Leaf(slot) => self.leaves[slot].meta(),
            ArrayInput::Ref(s) => self.stmts[s].out_meta.clone(),
        }
    }

    /// Intern one owned AST node into the shared graph, returning its id.
    /// Repeated operation nodes count as CSE hits.
    fn intern(&mut self, n: &PNode) -> usize {
        let (key, dtype, tref_child) = match n {
            PNode::Leaf(slot) => (NodeKey::Leaf(*slot), self.leaves[*slot].dtype(), None),
            PNode::Scalar(v) => {
                let dt = if v.fract() == 0.0 {
                    DType::I64
                } else {
                    DType::F64
                };
                (NodeKey::Scalar(v.to_bits()), dt, None)
            }
            PNode::Ref(s) => {
                assert!(
                    !matches!(self.stmts[*s].kind, StmtKind::Reduce { .. }),
                    "PExpr::from(Traced) requires an array statement"
                );
                (NodeKey::Ref(*s), self.stmts[*s].out_meta.dtype, None)
            }
            // Reductions resolve to f64 scalars on the master; see the
            // module docs for the (documented) dtype divergence from
            // pasting the value back in as an integral literal.
            PNode::ScalarRef(s) => {
                assert!(
                    matches!(self.stmts[*s].kind, StmtKind::Reduce { .. }),
                    "PExpr::from(TracedScalar) requires a reduction statement"
                );
                (NodeKey::ScalarRef(*s), DType::F64, None)
            }
            PNode::Unary(op, e) => {
                let c = self.intern(e);
                (
                    NodeKey::Unary(*op, c),
                    unary_result_dtype(*op, self.nodes[c].dtype),
                    self.nodes[c].tref,
                )
            }
            PNode::Binary(op, a, b) => {
                let ca = self.intern(a);
                let cb = self.intern(b);
                (
                    NodeKey::Binary(*op, ca, cb),
                    binary_result_dtype(*op, self.nodes[ca].dtype, self.nodes[cb].dtype),
                    self.nodes[ca].tref.or(self.nodes[cb].tref),
                )
            }
        };
        if let Some(&id) = self.interned.get(&key) {
            if matches!(key, NodeKey::Unary(..) | NodeKey::Binary(..)) {
                self.cse_hits += 1;
            }
            return id;
        }
        let id = self.nodes.len();
        let tref = match key {
            NodeKey::Leaf(_) | NodeKey::Ref(_) => Some(id),
            _ => tref_child,
        };
        self.nodes.push(Node { key, dtype, tref });
        self.interned.insert(key, id);
        id
    }

    /// Distinct array/scalar operands reachable from `root`, first-seen
    /// left-to-right (DFS matching `Lowerer::go`'s emission order).
    fn node_inputs(&self, root: usize) -> StmtInputs {
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        let mut seen_arr = HashSet::new();
        let mut seen_sc = HashSet::new();
        let mut visited = HashSet::new();
        self.walk_inputs(
            root,
            &mut visited,
            &mut |inp| {
                if seen_arr.insert(inp) {
                    arrays.push(inp);
                }
            },
            &mut |s| {
                if seen_sc.insert(s) {
                    scalars.push(s);
                }
            },
        );
        StmtInputs { arrays, scalars }
    }

    fn walk_inputs(
        &self,
        node: usize,
        visited: &mut HashSet<usize>,
        on_array: &mut impl FnMut(ArrayInput),
        on_scalar: &mut impl FnMut(usize),
    ) {
        if !visited.insert(node) {
            return;
        }
        match self.nodes[node].key {
            NodeKey::Leaf(slot) => on_array(ArrayInput::Leaf(slot)),
            NodeKey::Ref(s) => on_array(ArrayInput::Ref(s)),
            NodeKey::ScalarRef(s) => on_scalar(s),
            NodeKey::Scalar(_) => {}
            NodeKey::Unary(_, c) => self.walk_inputs(c, visited, on_array, on_scalar),
            NodeKey::Binary(_, a, b) => {
                self.walk_inputs(a, visited, on_array, on_scalar);
                self.walk_inputs(b, visited, on_array, on_scalar);
            }
        }
    }

    /// Execute the trace. `outputs` names the array statements the caller
    /// wants materialized and returned; every traced reduction is always
    /// computed. Consumes the program (a trace runs once).
    pub fn run(self, outputs: &[Traced]) -> ProgramRun<'c> {
        let requested: HashSet<usize> = outputs.iter().map(|t| t.stmt).collect();
        for &s in &requested {
            assert!(
                !matches!(self.stmts[s].kind, StmtKind::Reduce { .. }),
                "reductions are read via ProgramRun::scalar, not as array outputs"
            );
        }

        // ---- Liveness (DSE) --------------------------------------------
        let mut live = vec![false; self.stmts.len()];
        let mut stack: Vec<usize> = (0..self.stmts.len())
            .filter(|&i| {
                requested.contains(&i) || matches!(self.stmts[i].kind, StmtKind::Reduce { .. })
            })
            .collect();
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut live[s], true) {
                continue;
            }
            match self.stmts[s].kind {
                StmtKind::Eval { root } | StmtKind::Reduce { root, .. } => {
                    let inputs = self.node_inputs(root);
                    for a in inputs.arrays {
                        if let ArrayInput::Ref(d) = a {
                            stack.push(d);
                        }
                    }
                    for d in inputs.scalars {
                        stack.push(d);
                    }
                }
                StmtKind::Redistribute { src } => stack.push(src),
            }
        }
        let dse_eliminated = live.iter().filter(|&&l| !l).count() as u64;

        // ---- Grouping (cross-statement fusion) -------------------------
        let mut steps: Vec<Step> = Vec::new();
        let mut groups: Vec<Group> = Vec::new();
        let mut stmt_step: HashMap<usize, usize> = HashMap::new();
        let mut stmt_group: HashMap<usize, usize> = HashMap::new();
        for (s, alive) in live.iter().enumerate() {
            if !alive {
                continue;
            }
            match self.stmts[s].kind {
                StmtKind::Redistribute { .. } => {
                    steps.push(Step::Redistribute(s));
                    stmt_step.insert(s, steps.len() - 1);
                }
                StmtKind::Eval { root } | StmtKind::Reduce { root, .. } => {
                    let sig = sig_of(&self.stmts[s].out_meta);
                    let inputs = self.node_inputs(root);
                    let mut min_step = 0usize;
                    for a in &inputs.arrays {
                        if let ArrayInput::Ref(d) = a {
                            let dstep = stmt_step[d];
                            let same_group = matches!(self.stmts[*d].kind, StmtKind::Eval { .. })
                                && sig_of(&self.stmts[*d].out_meta) == sig;
                            min_step = min_step.max(if same_group { dstep } else { dstep + 1 });
                        }
                    }
                    for d in &inputs.scalars {
                        min_step = min_step.max(stmt_step[d] + 1);
                    }
                    // Join the latest compatible kernel group at or after
                    // min_step, else open a new one. Arrays are SSA, so
                    // any group not before a dependency is safe.
                    let mut joined = None;
                    for idx in (min_step..steps.len()).rev() {
                        if let Step::Kernel(g) = steps[idx] {
                            if sig_of(&groups[g].t_meta) == sig {
                                joined = Some((idx, g));
                                break;
                            }
                        }
                    }
                    let (step_idx, g) = match joined {
                        Some((idx, g)) => {
                            groups[g].stmts.push(s);
                            (idx, g)
                        }
                        None => {
                            groups.push(Group {
                                t_meta: ArrayMeta {
                                    dtype: DType::F64,
                                    ..self.stmts[s].out_meta.clone()
                                },
                                stmts: vec![s],
                            });
                            steps.push(Step::Kernel(groups.len() - 1));
                            (steps.len() - 1, groups.len() - 1)
                        }
                    };
                    stmt_step.insert(s, step_idx);
                    stmt_group.insert(s, g);
                }
            }
        }

        // ---- Materialization decisions ---------------------------------
        // An eval statement becomes a worker array iff something outside
        // its own fused kernel reads it: a requested output, a
        // redistribute, or a consumer in a different group.
        let mut mat_needed: HashSet<usize> = requested.clone();
        for (s, alive) in live.iter().enumerate() {
            if !alive {
                continue;
            }
            match self.stmts[s].kind {
                StmtKind::Redistribute { src } => {
                    mat_needed.insert(src);
                }
                StmtKind::Eval { root } | StmtKind::Reduce { root, .. } => {
                    for a in self.node_inputs(root).arrays {
                        if let ArrayInput::Ref(d) = a {
                            if stmt_group.get(&d) != stmt_group.get(&s)
                                || matches!(self.stmts[d].kind, StmtKind::Redistribute { .. })
                            {
                                mat_needed.insert(d);
                            }
                        }
                    }
                }
            }
        }

        // ---- Baseline accounting (what statement-at-a-time would do) ---
        let mut baseline_launches = 0u64;
        let mut baseline_redistributes = 0u64;
        for s in 0..self.stmts.len() {
            if let StmtKind::Eval { root } | StmtKind::Reduce { root, .. } = self.stmts[s].kind {
                baseline_launches += 1;
                let t_meta = &self.stmts[s].out_meta;
                for a in self.node_inputs(root).arrays {
                    if !self.input_meta(a).conformable(t_meta) {
                        baseline_redistributes += 1;
                    }
                }
            }
        }

        // ---- Lower each group to one fused kernel ----------------------
        let lowered: Vec<LoweredGroup> = groups
            .iter()
            .map(|g| self.lower_group(g, &stmt_group, &mat_needed))
            .collect();

        // ---- Execute ---------------------------------------------------
        let ctx = self.ctx;
        let mut mat: HashMap<usize, DistArray<'c>> = HashMap::new();
        let mut aligned: HashMap<(ArrayInput, Dist), DistArray<'c>> = HashMap::new();
        let mut scalar_vals: HashMap<usize, f64> = HashMap::new();
        let mut pendings: VecDeque<(crate::reply::Pending<'c, Vec<f64>>, Vec<usize>)> =
            VecDeque::new();
        let mut redistributes_issued = 0u64;
        let mut elems_moved = 0u64;
        let mut kernel_launches = 0u64;

        for step in &steps {
            match *step {
                Step::Redistribute(s) => {
                    let StmtKind::Redistribute { src } = self.stmts[s].kind else {
                        unreachable!()
                    };
                    let out = mat[&src].redistribute(self.stmts[s].out_meta.dist);
                    mat.insert(s, out);
                }
                Step::Kernel(g) => {
                    let lg = &lowered[g];
                    let group = &groups[g];
                    // Pooled alignment: each (operand, distribution) pair
                    // moves at most once for the whole program.
                    let mut input_ids: Vec<u64> = Vec::with_capacity(lg.array_inputs.len());
                    for &inp in &lg.array_inputs {
                        let src_meta = self.input_meta(inp);
                        if src_meta.conformable(&group.t_meta) {
                            input_ids.push(match inp {
                                ArrayInput::Leaf(slot) => self.leaves[slot].id(),
                                ArrayInput::Ref(d) => mat[&d].id(),
                            });
                        } else {
                            let key = (inp, group.t_meta.dist);
                            if let Some(copy) = aligned.get(&key) {
                                input_ids.push(copy.id());
                            } else {
                                let src_arr: &DistArray<'c> = match inp {
                                    ArrayInput::Leaf(slot) => self.leaves[slot],
                                    ArrayInput::Ref(d) => &mat[&d],
                                };
                                let copy = src_arr.redistribute(group.t_meta.dist);
                                redistributes_issued += 1;
                                elems_moved +=
                                    moved_elems(&src_meta, group.t_meta.dist, ctx.n_workers());
                                input_ids.push(copy.id());
                                aligned.insert(key, copy);
                            }
                        }
                    }
                    // Resolve scalar parameters, draining earlier replies
                    // in order until each value is known.
                    let mut scalars: Vec<f64> = Vec::with_capacity(lg.scalar_inputs.len());
                    for &d in &lg.scalar_inputs {
                        while !scalar_vals.contains_key(&d) {
                            let (p, idxs) = pendings
                                .pop_front()
                                .expect("scheduler ordered a scalar before its reduction");
                            let vals = p.wait();
                            for (i, stmt) in idxs.into_iter().enumerate() {
                                scalar_vals.insert(stmt, vals[i]);
                            }
                        }
                        scalars.push(scalar_vals[&d]);
                    }
                    let kernel = ctx.register_kernel_program(lg.program.clone());
                    let template = input_ids[0];
                    let mut outs: Vec<KernelOut> = Vec::with_capacity(lg.outs.len());
                    let mut reduce_stmts: Vec<usize> = Vec::new();
                    for &(s, reg) in &lg.outs {
                        match self.stmts[s].kind {
                            StmtKind::Reduce { kind, .. } => {
                                reduce_stmts.push(s);
                                outs.push(KernelOut::Reduce {
                                    kind,
                                    reg: (RegFile::F, reg),
                                });
                            }
                            StmtKind::Eval { .. } => {
                                let id = ctx.alloc_id();
                                ctx.record_meta(id, self.stmts[s].out_meta.clone());
                                mat.insert(s, DistArray::from_id(ctx, id));
                                outs.push(KernelOut::Array {
                                    id,
                                    dtype: self.stmts[s].out_meta.dtype,
                                    reg: (RegFile::F, reg),
                                });
                            }
                            StmtKind::Redistribute { .. } => unreachable!(),
                        }
                    }
                    let cmd = Cmd::EvalKernel {
                        kernel,
                        template,
                        inputs: input_ids,
                        scalars,
                        outs,
                        // Fused groups compute in f64; workers tier up to
                        // the probed native body when the compile plane
                        // is available.
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
        while let Some((p, idxs)) = pendings.pop_front() {
            let vals = p.wait();
            for (i, stmt) in idxs.into_iter().enumerate() {
                scalar_vals.insert(stmt, vals[i]);
            }
        }

        let stats = ProgramStats {
            statements: self.stmts.len() as u64,
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
        let arrays: HashMap<usize, DistArray<'c>> = requested
            .iter()
            .map(|&s| (s, mat.remove(&s).expect("requested output not produced")))
            .collect();
        drop(mat);
        drop(aligned);
        ProgramRun {
            arrays,
            scalars: scalar_vals,
            stats,
        }
    }

    /// Lower one fused group to straight-line bytecode through the shared
    /// [`Lowerer`] emitters — per statement, exactly the instructions
    /// `Expr::lower` would emit, with shared subexpressions emitted once
    /// and cross-statement refs either read from the producer's register
    /// (plus the materialize/stage cast when its dtype isn't F64) or
    /// bound as parameters.
    fn lower_group(
        &self,
        group: &Group,
        stmt_group: &HashMap<usize, usize>,
        mat_needed: &HashSet<usize>,
    ) -> LoweredGroup {
        let this_group = stmt_group[&group.stmts[0]];
        let mut array_inputs: Vec<ArrayInput> = Vec::new();
        let mut seen_arr: HashSet<ArrayInput> = HashSet::new();
        let mut scalar_inputs: Vec<usize> = Vec::new();
        let mut seen_sc: HashSet<usize> = HashSet::new();
        let internal = |inp: &ArrayInput| matches!(inp, ArrayInput::Ref(d) if stmt_group.get(d) == Some(&this_group));
        for &s in &group.stmts {
            let (StmtKind::Eval { root } | StmtKind::Reduce { root, .. }) = self.stmts[s].kind
            else {
                unreachable!()
            };
            let inputs = self.node_inputs(root);
            for a in inputs.arrays {
                if !internal(&a) && seen_arr.insert(a) {
                    array_inputs.push(a);
                }
            }
            for d in inputs.scalars {
                if seen_sc.insert(d) {
                    scalar_inputs.push(d);
                }
            }
        }
        assert!(
            !array_inputs.is_empty(),
            "a fused group needs at least one external array operand"
        );
        let n_arr = array_inputs.len();
        let n_params = n_arr + scalar_inputs.len();
        let arr_reg: HashMap<ArrayInput, Reg> = array_inputs
            .iter()
            .enumerate()
            .map(|(k, &a)| (a, k as Reg))
            .collect();
        let sc_reg: HashMap<usize, Reg> = scalar_inputs
            .iter()
            .enumerate()
            .map(|(k, &d)| (d, (n_arr + k) as Reg))
            .collect();
        let mut lw = Lowerer::with_params(HashMap::new(), n_params);
        let mut memo: HashMap<usize, Reg> = HashMap::new();
        let mut root_regs: HashMap<usize, Reg> = HashMap::new();
        for &s in &group.stmts {
            let (StmtKind::Eval { root } | StmtKind::Reduce { root, .. }) = self.stmts[s].kind
            else {
                unreachable!()
            };
            let r = self.emit_node(root, &mut lw, &mut memo, &arr_reg, &sc_reg, &root_regs);
            root_regs.insert(s, r);
        }
        // Harvested outputs: materialized evals + reductions, statement
        // order. Fully fused intermediates ship no output at all.
        let mut outs: Vec<(usize, Reg)> = Vec::new();
        for &s in &group.stmts {
            let keep = match self.stmts[s].kind {
                StmtKind::Reduce { .. } => true,
                StmtKind::Eval { .. } => mat_needed.contains(&s),
                StmtKind::Redistribute { .. } => unreachable!(),
            };
            if keep {
                outs.push((s, root_regs[&s]));
            }
        }
        assert!(!outs.is_empty(), "fused group produced nothing observable");
        let ret = outs.last().expect("non-empty").1;
        lw.instrs.push(Instr::Ret(Some((RegFile::F, ret))));
        let f = CompiledFunc {
            // Same name as Expr::lower: a single-statement group produces
            // byte-identical code and re-uses its kernel registration.
            name: "expr".into(),
            params: (0..n_params).map(|k| (RegFile::F, k as Reg)).collect(),
            param_types: vec![Type::Float; n_params],
            ret: Type::Float,
            reg_counts: [lw.n_f as usize, lw.n_i as usize, 0, 0],
            instrs: lw.instrs,
        };
        LoweredGroup {
            program: seamless::bytecode::Program {
                funcs: vec![f],
                externs: Vec::new(),
            },
            array_inputs,
            scalar_inputs,
            outs,
        }
    }

    /// Emit one interned node (memoized — CSE at the register level);
    /// returns the F register holding its value.
    fn emit_node(
        &self,
        node: usize,
        lw: &mut Lowerer,
        memo: &mut HashMap<usize, Reg>,
        arr_reg: &HashMap<ArrayInput, Reg>,
        sc_reg: &HashMap<usize, Reg>,
        root_regs: &HashMap<usize, Reg>,
    ) -> Reg {
        if let Some(&r) = memo.get(&node) {
            return r;
        }
        let r = match self.nodes[node].key {
            NodeKey::Leaf(slot) => arr_reg[&ArrayInput::Leaf(slot)],
            NodeKey::Scalar(bits) => lw.emit_const(f64::from_bits(bits)),
            NodeKey::ScalarRef(d) => sc_reg[&d],
            NodeKey::Ref(d) => match root_regs.get(&d) {
                // Producer fused into this very kernel: read its root
                // register through the materialize/stage cast so the
                // value matches the eager materialize-then-stage route.
                Some(&src) => lw.emit_materialize_cast(src, self.stmts[d].out_meta.dtype),
                None => arr_reg[&ArrayInput::Ref(d)],
            },
            NodeKey::Unary(op, c) => {
                let s = self.emit_node(c, lw, memo, arr_reg, sc_reg, root_regs);
                lw.emit_unary(op, s)
            }
            NodeKey::Binary(op, a, b) => {
                let pow_const = if op == BinOp::Pow {
                    match self.nodes[b].key {
                        NodeKey::Scalar(bits) => powic_exponent(f64::from_bits(bits)),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(e) = pow_const {
                    let ar = self.emit_node(a, lw, memo, arr_reg, sc_reg, root_regs);
                    lw.emit_pow_const(ar, e)
                } else {
                    let ar = self.emit_node(a, lw, memo, arr_reg, sc_reg, root_regs);
                    let br = self.emit_node(b, lw, memo, arr_reg, sc_reg, root_regs);
                    lw.emit_binary(op, ar, br)
                }
            }
        };
        memo.insert(node, r);
        r
    }
}

fn sig_of(meta: &ArrayMeta) -> (Vec<usize>, usize, Dist) {
    (meta.shape.clone(), meta.axis, meta.dist)
}

/// Elements a redistribute of `src_meta` to `dist` must move, measured
/// through `dmap` owner maps (rows whose owner changes × slab size).
fn moved_elems(src_meta: &ArrayMeta, dist: Dist, n_workers: usize) -> u64 {
    let rows = src_meta.shape[src_meta.axis];
    let a = dist_map(src_meta.dist, rows, n_workers);
    let b = dist_map(dist, rows, n_workers);
    let moved = a.moved_count(&b).unwrap_or(rows);
    (moved * src_meta.slab()) as u64
}

fn dist_map(d: Dist, n: usize, p: usize) -> dmap::DistMap {
    match d {
        Dist::Block => dmap::DistMap::block(n, p, 0),
        Dist::Cyclic => dmap::DistMap::cyclic(n, p, 0),
        Dist::BlockCyclic(b) => dmap::DistMap::block_cyclic(n, b, p, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::Expr;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn traced_single_statement_matches_expr_eval_bitwise() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.linspace(0.0, 2.0, 101);
        let y = ctx.linspace(1.0, 3.0, 101);
        let eager = ((Expr::leaf(&x).pow(2.0) + Expr::leaf(&y).pow(2.0)).sqrt() * 0.5).eval();

        let mut p = ctx.trace();
        let (xl, yl) = (p.leaf(&x), p.leaf(&y));
        let t = p.assign((xl.pow(2.0) + yl.pow(2.0)).sqrt() * 0.5);
        let mut run = p.run(&[t]);
        let traced = run.array(t);
        assert_eq!(bits(&traced.to_vec()), bits(&eager.to_vec()));
        // Single-statement groups lower to byte-identical kernels, so the
        // second plane re-used the first plane's registration.
        assert_eq!(run.stats().kernel_launches, 1);
    }

    #[test]
    fn single_statement_group_reuses_the_expr_kernel_registration() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.0, 1.0, 64);
        let _warm = (Expr::leaf(&x) * 2.0 + 1.0).eval();
        ctx.reset_stats();
        let mut p = ctx.trace();
        let xl = p.leaf(&x);
        let t = p.assign(xl * 2.0 + 1.0);
        let mut run = p.run(&[t]);
        let _a = run.array(t);
        // One EvalKernel broadcast and nothing else: the bytecode
        // matched the already-registered Expr kernel.
        let st = ctx.stats();
        assert_eq!(st.ctrl_msgs, 2, "re-registration happened");
    }

    #[test]
    fn cse_and_dse_are_counted_and_results_match() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.linspace(0.25, 4.0, 53);
        let eager = {
            let shared = || Expr::leaf(&x).sqrt() * 2.0;
            ((shared() + 1.0).eval(), (shared() * 3.0).eval())
        };
        let mut p = ctx.trace();
        let xl = p.leaf(&x);
        let shared = xl.clone().sqrt() * 2.0;
        let a = p.assign(shared.clone() + 1.0);
        let b = p.assign(shared * 3.0);
        let dead = p.assign(xl * 123.0); // never read, never requested
        let _ = dead;
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
        let (xl, cl) = (p.leaf(&x), p.leaf(&c));
        let t1 = p.assign(xl.clone() + cl.clone());
        let r2 = p.sum(xl * cl);
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
        let (rl, pl) = (p.leaf(&r), p.leaf(&pvec));
        let rr_t = p.sum(rl.clone() * rl.clone());
        let pp_t = p.sum(pl.clone() * pl.clone());
        let alpha_e = PExpr::from(rr_t) / PExpr::from(pp_t);
        let y = p.assign(rl - pl * alpha_e);
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
        let xl = p.leaf(&x);
        let t = p.assign(xl * 2.0);
        let moved = p.redistribute(t, Dist::Cyclic);
        let back = p.assign(PExpr::from(moved) + 1.0);
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
        let xl = p.leaf(&x);
        let mid = p.assign(xl * 3.0);
        let out = p.assign(PExpr::from(mid) * 0.5 + 0.25);
        let mut run = p.run(&[out]);
        assert_eq!(bits(&run.array(out).to_vec()), bits(&eager.to_vec()));
        // Both statements still fused into one launch.
        assert_eq!(run.stats().kernel_launches, 1);
    }
}
