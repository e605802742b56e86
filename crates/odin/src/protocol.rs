//! The master↔worker control protocol.
//!
//! Every global-mode operation becomes one small, Wire-encoded [`Cmd`]
//! broadcast to all workers. The paper (§III-B) claims these control
//! messages carry "very little to no array data … at most tens of bytes";
//! experiment E2 measures exactly the encodings defined here.

use comm::{CommError, Cursor, Wire};

use crate::buffer::{Buffer, DType};
use crate::slicing::SliceSpec;
use seamless::bytecode::{Program, Reg, RegFile};

/// Distribution of the distributed axis: the one vocabulary `dmap` maps,
/// `dlinalg` vectors and ODIN arrays share (paper §III-E).
pub use dmap::Distribution as Dist;

/// Metadata describing a distributed array: its global shape, how its
/// first axis (the only one ever split) is distributed, and the element
/// dtype.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMeta {
    /// Global shape.
    pub shape: Vec<usize>,
    /// Distribution along axis 0.
    pub dist: Dist,
    /// Element type.
    pub dtype: DType,
}

impl ArrayMeta {
    /// Total global element count.
    pub fn n_global(&self) -> usize {
        self.shape.iter().product()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Elements per index of axis 0 (the "slab" size).
    pub fn slab(&self) -> usize {
        self.shape.iter().skip(1).product()
    }

    /// The [`dmap::DistMap`] of axis 0 for worker `rank` of `n_workers`.
    pub fn axis_map(&self, n_workers: usize, rank: usize) -> dmap::DistMap {
        dmap::DistMap::with_distribution(self.dist, self.shape[0], n_workers, rank)
    }

    /// Local element count on worker `rank`.
    pub fn local_len(&self, n_workers: usize, rank: usize) -> usize {
        self.axis_map(n_workers, rank).my_count() * self.slab()
    }

    /// Two arrays are conformable when their segments line up with no
    /// communication: same shape and distribution.
    pub fn conformable(&self, other: &ArrayMeta) -> bool {
        self.shape == other.shape && self.dist == other.dist
    }
}

/// Unary elementwise operations (a representative subset of NumPy's
/// unary ufuncs, which the paper says are "trivially parallelized").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Logical not.
    Not,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Square root.
    Sqrt,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
}

/// Binary elementwise operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// True division (always float, as in NumPy).
    Div,
    /// Power.
    Pow,
    /// Remainder.
    Mod,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// `hypot(x, y)` — the paper's running example (§III-C).
    Hypot,
    /// `atan2(y, x)`.
    Atan2,
    /// Equality comparison.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// Whole-array reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// Sum of elements.
    Sum,
    /// Product of elements.
    Prod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of nonzero (true) elements.
    CountNonzero,
}

/// How a freshly created array is filled.
#[derive(Debug, Clone, PartialEq)]
pub enum Fill {
    /// All zeros.
    Zeros,
    /// Constant value (cast to the meta's dtype).
    Full(f64),
    /// `start + step * gid` along the flattened global index.
    Arange {
        /// First value.
        start: f64,
        /// Increment per element.
        step: f64,
    },
    /// `n` evenly spaced points from `start` to `stop` inclusive.
    Linspace {
        /// First value.
        start: f64,
        /// Last value.
        stop: f64,
    },
    /// Deterministic pseudo-random uniform [0,1): value depends only on
    /// (seed, global index), so results are identical for any worker
    /// count (the paper's per-node seeds made results depend on the node
    /// count; determinism is the better engineering choice and E3 relies
    /// on it).
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// A control command broadcast from the master to every worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// Allocate and fill a new array.
    Create {
        /// Fresh array id.
        id: u64,
        /// Metadata.
        meta: ArrayMeta,
        /// Fill rule.
        fill: Fill,
    },
    /// Adopt master-provided data (the one *data-carrying* command).
    SetData {
        /// Fresh array id.
        id: u64,
        /// Metadata.
        meta: ArrayMeta,
        /// This worker's segment (each worker receives its own copy).
        data: Buffer,
    },
    /// Materialize `a` under a new distribution (workers alltoallv).
    Redistribute {
        /// Output id.
        out: u64,
        /// Input id.
        a: u64,
        /// New distribution.
        dist: Dist,
    },
    /// Materialize a slice of `a` (one spec per dimension).
    Slice {
        /// Output id.
        out: u64,
        /// Input id.
        a: u64,
        /// Per-dimension slice specs.
        specs: Vec<SliceSpec>,
    },
    /// Reduce `a` along `axis`: the workers cooperatively build array
    /// `out`. A whole-array reduction is a [`KernelOut::Reduce`] tail of a
    /// [`Cmd::EvalKernel`].
    Reduce {
        /// Input id.
        a: u64,
        /// Reduction.
        kind: ReduceKind,
        /// Axis to reduce over.
        axis: usize,
        /// Output id.
        out: u64,
    },
    /// Every worker sends its segment (with axis gids) to the master.
    Fetch {
        /// Input id.
        a: u64,
    },
    /// Call a registered local function (local mode, §III-C).
    CallLocal {
        /// Registered function id.
        fn_id: u64,
        /// Array-id arguments.
        arrays: Vec<u64>,
        /// Scalar arguments.
        scalars: Vec<f64>,
    },
    /// Drop an array.
    Free {
        /// Array id.
        id: u64,
    },
    /// Synchronization point: every worker replies with `()`.
    Ping,
    /// Stop the worker loop.
    Shutdown,
    /// Inclusive prefix sum along a 1-D array (distributed scan).
    CumSum {
        /// Output id.
        out: u64,
        /// Input id.
        a: u64,
    },
    /// Index of the extreme element; every worker replies its typed
    /// `(value, global index)` candidate and the master picks.
    ArgReduce {
        /// Input id.
        a: u64,
        /// True for argmax, false for argmin.
        is_max: bool,
    },
    /// Concatenate two 1-D arrays into `out` (block distributed).
    Concat {
        /// Output id.
        out: u64,
        /// First input.
        a: u64,
        /// Second input.
        b: u64,
    },
    /// `out = a · b` for 2-D arrays: `a` stays block-row distributed,
    /// `b` is allgathered (suitable for tall-×-skinny products).
    MatMul {
        /// Output id.
        out: u64,
        /// Left operand `[m, k]`.
        a: u64,
        /// Right operand `[k, n]`.
        b: u64,
    },
    /// Ship compiled Seamless bytecode to every worker once; subsequent
    /// [`Cmd::EvalKernel`] invokes reference it by id (the kernel plane,
    /// DESIGN §8). This is the only command besides `SetData` whose size
    /// scales with its payload — it is paid once per kernel per pool.
    RegisterKernel {
        /// Fresh kernel id.
        id: u64,
        /// Extern-free compiled program (entry function at index 0).
        program: seamless::bytecode::Program,
    },
    /// Run a registered kernel elementwise over conformable inputs and
    /// harvest one or more register rows — tens of bytes of control
    /// traffic per invoke, like every other command. A plain map names
    /// one [`KernelOut::Array`] reading the function's return register; a
    /// fused map+reduce names one [`KernelOut::Reduce`]; a trace flush
    /// (DESIGN §8) fuses a group of statements into one function and
    /// names one out per materialized array or folded reduction. Every worker replies its reduction
    /// partials (a `Vec<f64>` in `outs` order) iff any
    /// [`KernelOut::Reduce`] is present; the master combines them.
    EvalKernel {
        /// Registered kernel id.
        kernel: u64,
        /// Input arrays, in kernel array-parameter order: an id read
        /// whole, or with a row window — a unit-step range of a Block
        /// array's rows, read in place where this worker holds them (a
        /// slice that is never materialized). Input 0's window gives the
        /// launch's geometry, which every other input and output shares.
        inputs: Vec<(u64, Option<SliceSpec>)>,
        /// Scalar parameter values (resolved reduction results), in
        /// kernel scalar-parameter order after the array parameters.
        scalars: Vec<f64>,
        /// What to harvest from the evaluated register file.
        outs: Vec<KernelOut>,
        /// Compute dtype — which lane monomorphization runs: `F64`
        /// streams f64 rows, `I64`/`Bool` stream i64 rows (bools as
        /// 0/1). Independent of the outs' dtypes.
        dtype: DType,
        /// Whether the worker may dispatch the probed native tier for
        /// this invoke (`false` pins the VM, e.g. `Tier::Vm` kernels).
        native: bool,
    },
}

/// What one side of the pool holds, as [`Cmd::check`] reads it: the
/// master's handles and registries, or one worker's segments and
/// registries.
pub(crate) trait Holdings {
    /// The meta of live array `id`, or why there is none.
    fn array(&self, id: u64) -> Result<&ArrayMeta, String>;
    /// Registered kernel `id`.
    fn kernel(&self, id: u64) -> Option<&Program>;
    /// Whether local function `id` is registered.
    fn has_local_fn(&self, id: u64) -> bool;
}

/// Refuse the command with a formatted message unless `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($msg:tt)+) => {
        if !$ok {
            return Err(format!($($msg)+));
        }
    };
}

/// The meta of `specs` (one per dimension) taken of an array of `m`: the
/// one rule for a slice's layout, whether it is materialized or read as a
/// view.
pub(crate) fn sliced(m: &ArrayMeta, specs: &[SliceSpec]) -> Result<ArrayMeta, String> {
    ensure!(specs.len() == m.ndim(), "one slice spec per dimension");
    for (s, &dim) in specs.iter().zip(&m.shape) {
        ensure!(
            s.step >= 1 && s.start <= s.stop && s.stop <= dim,
            "slice beyond dimension ({s:?} vs {dim})"
        );
    }
    Ok(ArrayMeta {
        shape: specs.iter().map(SliceSpec::len).collect(),
        ..m.clone()
    })
}

impl Cmd {
    /// Check this command against what one side holds and return the
    /// arrays it makes as `(id, meta)` — the one rule for every output
    /// layout and every precondition on a command's operands (DESIGN §8).
    /// The master runs it before it buffers a command and panics with the
    /// message on a refusal; each worker runs it before it executes one
    /// and exits on a refusal, which only corrupt or hostile bytes reach.
    /// So the worker arms execute what this accepts without checking it
    /// again, and the two sides store the same metas.
    pub(crate) fn check(&self, held: &impl Holdings) -> Result<Vec<(u64, ArrayMeta)>, String> {
        let made = match self {
            Cmd::Create { id, meta, .. } | Cmd::SetData { id, meta, .. } => {
                ensure!(meta.ndim() >= 1, "array {id} needs at least one dimension");
                ensure!(meta.dist != Dist::BlockCyclic(0), "zero block size");
                vec![(*id, meta.clone())]
            }
            Cmd::Redistribute { out, a, dist } => {
                let m = held.array(*a)?;
                ensure!(*dist != Dist::BlockCyclic(0), "zero block size");
                vec![(
                    *out,
                    ArrayMeta {
                        dist: *dist,
                        ..m.clone()
                    },
                )]
            }
            Cmd::Slice { out, a, specs } => vec![(*out, sliced(held.array(*a)?, specs)?)],
            Cmd::Reduce { a, kind, axis, out } => {
                let m = held.array(*a)?;
                ensure!(*axis < m.ndim(), "axis {axis} out of range");
                ensure!(m.ndim() >= 2, "axis reduction needs ndim ≥ 2");
                let mut m = m.clone();
                m.shape.remove(*axis);
                if *axis == 0 {
                    m.dist = Dist::Block;
                }
                // Counts and reduced booleans are integers (NumPy's rule).
                if *kind == ReduceKind::CountNonzero || m.dtype == DType::Bool {
                    m.dtype = DType::I64;
                }
                vec![(*out, m)]
            }
            Cmd::CumSum { out, a } => {
                let m = held.array(*a)?;
                ensure!(m.ndim() == 1, "cumsum supports 1-D arrays");
                ensure!(m.dist == Dist::Block, "cumsum needs Block segments");
                let mut m = m.clone();
                if m.dtype == DType::Bool {
                    m.dtype = DType::I64;
                }
                vec![(*out, m)]
            }
            Cmd::Concat { out, a, b } => {
                let (ma, mb) = (held.array(*a)?, held.array(*b)?);
                ensure!(ma.ndim() == 1 && mb.ndim() == 1, "concat takes 1-D arrays");
                let meta = ArrayMeta {
                    shape: vec![ma.shape[0] + mb.shape[0]],
                    dist: Dist::Block,
                    dtype: ma.dtype.promote(mb.dtype),
                };
                vec![(*out, meta)]
            }
            Cmd::MatMul { out, a, b } => {
                let (ma, mb) = (held.array(*a)?, held.array(*b)?);
                ensure!(ma.ndim() == 2 && mb.ndim() == 2, "matmul takes 2-D arrays");
                ensure!(ma.shape[1] == mb.shape[0], "matmul inner dims must agree");
                let meta = ArrayMeta {
                    shape: vec![ma.shape[0], mb.shape[1]],
                    dist: ma.dist,
                    dtype: DType::F64,
                };
                vec![(*out, meta)]
            }
            Cmd::EvalKernel {
                kernel,
                inputs,
                scalars,
                outs,
                ..
            } => {
                let program = held
                    .kernel(*kernel)
                    .ok_or_else(|| format!("unknown kernel {kernel}"))?;
                let params = program.funcs.first().map_or(0, |f| f.params.len());
                ensure!(
                    inputs.len() + scalars.len() == params,
                    "kernel {kernel} takes {params} parameters, got {} arrays and {} scalars",
                    inputs.len(),
                    scalars.len()
                );
                let input =
                    |&(id, window): &(u64, Option<SliceSpec>)| -> Result<ArrayMeta, String> {
                        let m = held.array(id)?;
                        let Some(rows) = window else {
                            return Ok(m.clone());
                        };
                        ensure!(
                            m.dist == Dist::Block,
                            "a window of array {id} needs a Block base"
                        );
                        ensure!(rows.step == 1, "a window of array {id} steps by 1");
                        let whole = m.shape[1..].iter().map(|&n| SliceSpec::full(n));
                        sliced(m, &std::iter::once(rows).chain(whole).collect::<Vec<_>>())
                    };
                let t_meta = input(inputs.first().ok_or("a kernel reads at least one array")?)?;
                for i in inputs {
                    ensure!(
                        input(i)?.conformable(&t_meta),
                        "kernel input {} is not conformable with input 0",
                        i.0
                    );
                }
                outs.iter()
                    .filter_map(|o| match *o {
                        KernelOut::Array { id, dtype, .. } => Some((
                            id,
                            ArrayMeta {
                                dtype,
                                ..t_meta.clone()
                            },
                        )),
                        KernelOut::Reduce { .. } => None,
                    })
                    .collect()
            }
            Cmd::Fetch { a } => {
                held.array(*a)?;
                Vec::new()
            }
            Cmd::ArgReduce { a, .. } => {
                let m = held.array(*a)?;
                ensure!(m.n_global() > 0, "arg reduction of an empty array");
                Vec::new()
            }
            Cmd::CallLocal { fn_id, arrays, .. } => {
                ensure!(held.has_local_fn(*fn_id), "unknown local function {fn_id}");
                for &id in arrays {
                    held.array(id)?;
                }
                Vec::new()
            }
            Cmd::Free { .. } | Cmd::Ping | Cmd::Shutdown | Cmd::RegisterKernel { .. } => Vec::new(),
        };
        Ok(made)
    }
}

/// One harvested output of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelOut {
    /// Materialize a register row as a new distributed array.
    Array {
        /// Output array id.
        id: u64,
        /// Output dtype (the master decides; workers astype the raw row).
        dtype: DType,
        /// Scalar register holding the value (integer registers widen
        /// into f64 rows).
        reg: (RegFile, Reg),
    },
    /// Fold a register row through a whole-array reduction.
    Reduce {
        /// Reduction kind.
        kind: ReduceKind,
        /// Scalar register holding the reduced expression's raw value.
        reg: (RegFile, Reg),
    },
}

impl Wire for KernelOut {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            KernelOut::Array { id, dtype, reg } => {
                buf.push(0);
                id.encode(buf);
                dtype.encode(buf);
                reg.encode(buf);
            }
            KernelOut::Reduce { kind, reg } => {
                buf.push(1);
                kind.encode(buf);
                reg.encode(buf);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(KernelOut::Array {
                id: u64::decode(cur)?,
                dtype: DType::decode(cur)?,
                reg: Wire::decode(cur)?,
            }),
            1 => Ok(KernelOut::Reduce {
                kind: ReduceKind::decode(cur)?,
                reg: Wire::decode(cur)?,
            }),
            b => Err(CommError::Decode(format!("bad KernelOut byte {b}"))),
        }
    }
}

// ---- Wire impls -----------------------------------------------------------

macro_rules! wire_enum_unit {
    ($t:ty, $($variant:ident = $b:expr),* $(,)?) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.push(match self { $(<$t>::$variant => $b),* });
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
                match u8::decode(cur)? {
                    $($b => Ok(<$t>::$variant),)*
                    b => Err(CommError::Decode(format!(
                        "bad {} byte {b}", stringify!($t)
                    ))),
                }
            }
        }
    };
}

wire_enum_unit!(
    UnaryOp,
    Neg = 0,
    Abs = 1,
    Not = 2,
    Sin = 3,
    Cos = 4,
    Tan = 5,
    Exp = 6,
    Log = 7,
    Sqrt = 8,
    Floor = 9,
    Ceil = 10
);
wire_enum_unit!(
    BinOp,
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    Pow = 4,
    Mod = 5,
    Max = 6,
    Min = 7,
    Hypot = 8,
    Atan2 = 9,
    Eq = 10,
    Ne = 11,
    Lt = 12,
    Le = 13,
    Gt = 14,
    Ge = 15,
    And = 16,
    Or = 17
);
wire_enum_unit!(
    ReduceKind,
    Sum = 0,
    Prod = 1,
    Min = 2,
    Max = 3,
    CountNonzero = 4
);

impl Wire for ArrayMeta {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.shape.encode(buf);
        self.dist.encode(buf);
        self.dtype.encode(buf);
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(ArrayMeta {
            shape: Vec::decode(cur)?,
            dist: Dist::decode(cur)?,
            dtype: DType::decode(cur)?,
        })
    }
}

impl Wire for Fill {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Fill::Zeros => buf.push(0),
            Fill::Full(v) => {
                buf.push(1);
                v.encode(buf);
            }
            Fill::Arange { start, step } => {
                buf.push(2);
                start.encode(buf);
                step.encode(buf);
            }
            Fill::Linspace { start, stop } => {
                buf.push(3);
                start.encode(buf);
                stop.encode(buf);
            }
            Fill::Random { seed } => {
                buf.push(4);
                seed.encode(buf);
            }
        }
    }
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(Fill::Zeros),
            1 => Ok(Fill::Full(f64::decode(cur)?)),
            2 => Ok(Fill::Arange {
                start: f64::decode(cur)?,
                step: f64::decode(cur)?,
            }),
            3 => Ok(Fill::Linspace {
                start: f64::decode(cur)?,
                stop: f64::decode(cur)?,
            }),
            4 => Ok(Fill::Random {
                seed: u64::decode(cur)?,
            }),
            b => Err(CommError::Decode(format!("bad fill byte {b}"))),
        }
    }
}

impl Wire for Cmd {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Cmd::Create { id, meta, fill } => {
                buf.push(0);
                id.encode(buf);
                meta.encode(buf);
                fill.encode(buf);
            }
            Cmd::SetData { id, meta, data } => {
                buf.push(1);
                id.encode(buf);
                meta.encode(buf);
                data.encode(buf);
            }
            Cmd::Redistribute { out, a, dist } => {
                buf.push(6);
                out.encode(buf);
                a.encode(buf);
                dist.encode(buf);
            }
            Cmd::Slice { out, a, specs } => {
                buf.push(7);
                out.encode(buf);
                a.encode(buf);
                specs.encode(buf);
            }
            Cmd::Reduce { a, kind, axis, out } => {
                buf.push(9);
                a.encode(buf);
                kind.encode(buf);
                axis.encode(buf);
                out.encode(buf);
            }
            Cmd::Fetch { a } => {
                buf.push(10);
                a.encode(buf);
            }
            Cmd::CallLocal {
                fn_id,
                arrays,
                scalars,
            } => {
                buf.push(11);
                fn_id.encode(buf);
                arrays.encode(buf);
                scalars.encode(buf);
            }
            Cmd::Free { id } => {
                buf.push(12);
                id.encode(buf);
            }
            Cmd::Ping => buf.push(13),
            Cmd::Shutdown => buf.push(14),
            Cmd::CumSum { out, a } => {
                buf.push(16);
                out.encode(buf);
                a.encode(buf);
            }
            Cmd::ArgReduce { a, is_max } => {
                buf.push(17);
                a.encode(buf);
                is_max.encode(buf);
            }
            Cmd::Concat { out, a, b } => {
                buf.push(18);
                out.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            Cmd::MatMul { out, a, b } => {
                buf.push(19);
                out.encode(buf);
                a.encode(buf);
                b.encode(buf);
            }
            Cmd::RegisterKernel { id, program } => {
                buf.push(20);
                id.encode(buf);
                program.encode(buf);
            }
            Cmd::EvalKernel {
                kernel,
                inputs,
                scalars,
                outs,
                dtype,
                native,
            } => {
                buf.push(21);
                kernel.encode(buf);
                inputs.encode(buf);
                scalars.encode(buf);
                outs.encode(buf);
                dtype.encode(buf);
                native.encode(buf);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        match u8::decode(cur)? {
            0 => Ok(Cmd::Create {
                id: u64::decode(cur)?,
                meta: ArrayMeta::decode(cur)?,
                fill: Fill::decode(cur)?,
            }),
            1 => Ok(Cmd::SetData {
                id: u64::decode(cur)?,
                meta: ArrayMeta::decode(cur)?,
                data: Buffer::decode(cur)?,
            }),
            6 => Ok(Cmd::Redistribute {
                out: u64::decode(cur)?,
                a: u64::decode(cur)?,
                dist: Dist::decode(cur)?,
            }),
            7 => Ok(Cmd::Slice {
                out: u64::decode(cur)?,
                a: u64::decode(cur)?,
                specs: Vec::decode(cur)?,
            }),
            9 => Ok(Cmd::Reduce {
                a: u64::decode(cur)?,
                kind: ReduceKind::decode(cur)?,
                axis: usize::decode(cur)?,
                out: u64::decode(cur)?,
            }),
            10 => Ok(Cmd::Fetch {
                a: u64::decode(cur)?,
            }),
            11 => Ok(Cmd::CallLocal {
                fn_id: u64::decode(cur)?,
                arrays: Vec::decode(cur)?,
                scalars: Vec::decode(cur)?,
            }),
            12 => Ok(Cmd::Free {
                id: u64::decode(cur)?,
            }),
            13 => Ok(Cmd::Ping),
            14 => Ok(Cmd::Shutdown),
            16 => Ok(Cmd::CumSum {
                out: u64::decode(cur)?,
                a: u64::decode(cur)?,
            }),
            17 => Ok(Cmd::ArgReduce {
                a: u64::decode(cur)?,
                is_max: bool::decode(cur)?,
            }),
            18 => Ok(Cmd::Concat {
                out: u64::decode(cur)?,
                a: u64::decode(cur)?,
                b: u64::decode(cur)?,
            }),
            19 => Ok(Cmd::MatMul {
                out: u64::decode(cur)?,
                a: u64::decode(cur)?,
                b: u64::decode(cur)?,
            }),
            20 => Ok(Cmd::RegisterKernel {
                id: u64::decode(cur)?,
                program: seamless::bytecode::Program::decode(cur)?,
            }),
            21 => Ok(Cmd::EvalKernel {
                kernel: u64::decode(cur)?,
                inputs: Vec::decode(cur)?,
                scalars: Vec::decode(cur)?,
                outs: Vec::decode(cur)?,
                dtype: DType::decode(cur)?,
                native: bool::decode(cur)?,
            }),
            // Retired tags, never to be reassigned: 2–5 (the eager
            // Unary/Binary/BinaryScalar/AsType commands) and 15 (`where`),
            // now one-op kernels on 21, 8 (the interpreted RPN plane) and
            // 22 (the separate multi-output launch, folded into 21). An old
            // peer's bytes fail typed here instead of mis-parsing as
            // another command.
            b @ (2..=5 | 8 | 15 | 22) => Err(CommError::Decode(format!("retired cmd byte {b}"))),
            b => Err(CommError::Decode(format!("bad cmd byte {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm::{decode_from_slice, encode_to_vec};

    fn meta() -> ArrayMeta {
        ArrayMeta {
            shape: vec![100, 4],
            dist: Dist::Block,
            dtype: DType::F64,
        }
    }

    fn tiny_program() -> seamless::bytecode::Program {
        let m = seamless::parser::parse_module("def k(x, y):\n    return hypot(x, y)\n").unwrap();
        seamless::compile::compile_program(&m, "k", &[seamless::Type::Float, seamless::Type::Float])
            .unwrap()
    }

    #[test]
    fn meta_geometry() {
        let m = meta();
        assert_eq!(m.n_global(), 400);
        assert_eq!(m.slab(), 4);
        assert_eq!(m.ndim(), 2);
        let map = m.axis_map(3, 0);
        assert_eq!(map.my_count(), 34);
        assert_eq!(m.local_len(3, 0), 136);
    }

    #[test]
    fn conformability() {
        let a = meta();
        let mut b = meta();
        assert!(a.conformable(&b));
        b.dist = Dist::Cyclic;
        assert!(!a.conformable(&b));
        let mut c = meta();
        c.dtype = DType::I64; // dtype does NOT affect conformability
        assert!(a.conformable(&c));
    }

    #[test]
    fn cmd_roundtrips() {
        let cmds = vec![
            Cmd::Create {
                id: 7,
                meta: meta(),
                fill: Fill::Linspace {
                    start: 0.0,
                    stop: 1.0,
                },
            },
            Cmd::Redistribute {
                out: 11,
                a: 10,
                dist: Dist::BlockCyclic(16),
            },
            Cmd::Slice {
                out: 12,
                a: 11,
                specs: vec![SliceSpec::new(1, 99, 1), SliceSpec::new(0, 4, 2)],
            },
            Cmd::Reduce {
                a: 13,
                kind: ReduceKind::Sum,
                axis: 1,
                out: 14,
            },
            Cmd::Fetch { a: 14 },
            Cmd::CallLocal {
                fn_id: 3,
                arrays: vec![7, 14],
                scalars: vec![1.5],
            },
            Cmd::Free { id: 7 },
            Cmd::Ping,
            Cmd::Shutdown,
            Cmd::SetData {
                id: 20,
                meta: meta(),
                data: Buffer::F64(vec![1.0, 2.0]),
            },
            Cmd::RegisterKernel {
                id: 1,
                program: tiny_program(),
            },
            Cmd::EvalKernel {
                kernel: 1,
                inputs: vec![(7, Some(SliceSpec::new(1, 100, 1))), (8, None)],
                scalars: vec![],
                outs: vec![KernelOut::Reduce {
                    kind: ReduceKind::Sum,
                    reg: (RegFile::F, 2),
                }],
                dtype: DType::F64,
                native: true,
            },
            Cmd::EvalKernel {
                kernel: 2,
                inputs: vec![(7, None)],
                scalars: vec![],
                outs: vec![KernelOut::Array {
                    id: 23,
                    dtype: DType::Bool,
                    reg: (RegFile::I, 0),
                }],
                dtype: DType::I64,
                native: false,
            },
        ];
        for cmd in cmds {
            let bytes = encode_to_vec(&cmd);
            let back: Cmd = decode_from_slice(&bytes).unwrap();
            assert_eq!(back, cmd);
        }
    }

    #[test]
    fn control_commands_are_small() {
        // The paper's claim: control messages are "at most tens of bytes".
        let ops = vec![
            encode_to_vec(&Cmd::CumSum {
                out: u64::MAX,
                a: u64::MAX - 1,
            }),
            encode_to_vec(&Cmd::Reduce {
                a: 1,
                kind: ReduceKind::Sum,
                axis: 2,
                out: u64::MAX,
            }),
            encode_to_vec(&Cmd::Create {
                id: 1,
                meta: ArrayMeta {
                    shape: vec![1_000_000_000_000],
                    dist: Dist::Block,
                    dtype: DType::F64,
                },
                fill: Fill::Random { seed: 42 },
            }),
            encode_to_vec(&Cmd::Free { id: u64::MAX }),
        ];
        // Per command, not the mean: every one of them is tens of bytes.
        for bytes in ops {
            assert!(
                bytes.len() <= 64,
                "control message too big: {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn kernel_invokes_are_small() {
        // The kernel plane's claim: bytecode ships once via RegisterKernel;
        // every subsequent invoke is under 100 bytes of control traffic
        // even with several inputs and a reduction tail.
        let invoke = encode_to_vec(&Cmd::EvalKernel {
            kernel: u64::MAX - 1,
            inputs: vec![(1, None), (2, None), (3, None)],
            scalars: vec![],
            outs: vec![KernelOut::Reduce {
                kind: ReduceKind::Sum,
                reg: (RegFile::F, u16::MAX),
            }],
            dtype: DType::F64,
            native: true,
        });
        assert!(
            invoke.len() < 100,
            "kernel invoke too big: {} bytes",
            invoke.len()
        );
    }

    #[test]
    fn multi_output_invokes_roundtrip_and_stay_small() {
        // The whole-program launch: several materialized arrays plus
        // reduction tails out of one kernel run, still control-sized.
        let cmd = Cmd::EvalKernel {
            kernel: 7,
            inputs: vec![(10, None), (11, None), (12, None)],
            scalars: vec![0.5, -3.25],
            outs: vec![
                KernelOut::Array {
                    id: 100,
                    dtype: DType::F64,
                    reg: (RegFile::F, 4),
                },
                KernelOut::Array {
                    id: 101,
                    dtype: DType::I64,
                    reg: (RegFile::F, 9),
                },
                KernelOut::Reduce {
                    kind: ReduceKind::Sum,
                    reg: (RegFile::F, 6),
                },
            ],
            dtype: DType::F64,
            native: true,
        };
        let bytes = encode_to_vec(&cmd);
        assert_eq!(decode_from_slice::<Cmd>(&bytes).unwrap(), cmd);
        assert!(
            bytes.len() < 128,
            "multi-out invoke too big: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn retired_tags_decode_to_a_typed_error() {
        // Tags 2–5 were the eager Unary/Binary/BinaryScalar/AsType
        // commands, tag 8 the interpreted RPN plane's command, tag 15
        // `where`, tag 22 the separate multi-output launch. Bytes that once
        // parsed as those commands — and any truncation of them — must
        // fail typed, never panic or come back as a different command.
        let mut eager: Vec<Vec<u8>> = Vec::new();
        for tag in 2u8..=5 {
            let mut old = vec![tag];
            9u64.encode(&mut old); // out
            7u64.encode(&mut old); // a
            old.push(3); // op / dtype byte
            eager.push(old);
        }
        let mut fused = vec![8u8];
        13u64.encode(&mut fused); // out
        7u64.encode(&mut fused); // template
        0u64.encode(&mut fused); // empty program
        let mut multi = vec![22u8];
        7u64.encode(&mut multi); // kernel
        9u64.encode(&mut multi); // template
        vec![10u64, 11].encode(&mut multi);
        vec![0.5f64].encode(&mut multi);
        let mut select = vec![15u8];
        for id in [9u64, 6, 7, 8] {
            id.encode(&mut select); // out, cond, a, b
        }
        for old in eager.into_iter().chain([fused, multi, select]) {
            for cut in 1..=old.len() {
                match decode_from_slice::<Cmd>(&old[..cut]) {
                    Err(CommError::Decode(msg)) => assert!(msg.contains("retired"), "{msg}"),
                    other => panic!("retired tag decoded as {other:?}"),
                }
            }
        }
    }

    /// One live array, id 7 of shape `[100, 4]`; nothing registered.
    struct OneArray(ArrayMeta);

    impl Holdings for OneArray {
        fn array(&self, id: u64) -> Result<&ArrayMeta, String> {
            match id {
                7 => Ok(&self.0),
                _ => Err(format!("unknown array id {id}")),
            }
        }
        fn kernel(&self, _: u64) -> Option<&Program> {
            None
        }
        fn has_local_fn(&self, _: u64) -> bool {
            false
        }
    }

    #[test]
    fn hostile_slices_decode_and_are_refused_by_the_check() {
        // `SliceSpec::new` refuses these, but the wire does not: a step of
        // 0 (which divides by zero in `SliceSpec::len`), a stop past the
        // dim and an inverted range must come back from `check` as errors.
        let held = OneArray(meta());
        for bad in [(0, 10, 0), (0, 101, 1), (5, 4, 1)] {
            let (start, stop, step) = bad;
            let bytes = encode_to_vec(&Cmd::Slice {
                out: 9,
                a: 7,
                specs: vec![SliceSpec { start, stop, step }, SliceSpec::full(4)],
            });
            let cmd: Cmd = decode_from_slice(&bytes).unwrap();
            match cmd.check(&held) {
                Err(msg) => assert!(msg.contains("slice beyond dimension"), "{msg}"),
                Ok(made) => panic!("{bad:?} accepted as {made:?}"),
            }
        }
    }

    fn eval_kernel() -> Cmd {
        Cmd::EvalKernel {
            kernel: 3,
            inputs: vec![(40, None), (41, Some(SliceSpec::new(2, 9, 1)))],
            scalars: vec![-0.5],
            outs: vec![
                KernelOut::Array {
                    id: 42,
                    dtype: DType::I64,
                    reg: (RegFile::I, 5),
                },
                KernelOut::Reduce {
                    kind: ReduceKind::Max,
                    reg: (RegFile::I, 5),
                },
            ],
            dtype: DType::I64,
            native: true,
        }
    }

    #[test]
    fn every_truncated_eval_kernel_is_a_typed_error() {
        let bytes = encode_to_vec(&eval_kernel());
        assert_eq!(decode_from_slice::<Cmd>(&bytes).unwrap(), eval_kernel());
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_from_slice::<Cmd>(&bytes[..cut]),
                    Err(CommError::Decode(_))
                ),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn a_length_prefix_past_the_end_is_refused_before_allocating() {
        // Overwrite the `inputs` length prefix (after the tag and the
        // kernel) with one element more than there are bytes left, and
        // with an absurd count: both fail at the guard, which runs before
        // any capacity is reserved.
        let bytes = encode_to_vec(&eval_kernel());
        let at = 1 + 8;
        for n in [(bytes.len() - at - 8 + 1) as u64, u64::MAX >> 1] {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&n.to_le_bytes());
            match decode_from_slice::<Cmd>(&bad) {
                Err(CommError::Decode(msg)) => assert!(msg.contains("implausible"), "{msg}"),
                other => panic!("length {n} decoded as {other:?}"),
            }
        }
    }
}
