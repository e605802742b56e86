//! User-facing JIT kernel plane: compile a Seamless (pyish) scalar
//! function once, ship its bytecode to every worker once, and map it
//! over distributed arrays with tens-of-bytes control messages per
//! invoke.
//!
//! This is the paper's Seamless↔ODIN integration (§IV/§V): the kernel
//! author writes element-wise code in the Python-like source language,
//! ODIN compiles it on the master and registers it with the pool
//! ([`crate::protocol::Cmd::RegisterKernel`]); every [`Kernel::map`]
//! afterwards records a call into the context's trace, and the flush
//! that runs it sends only array ids
//! ([`crate::protocol::Cmd::EvalKernel`]). A whole-array fold of the
//! mapped value rides the same launch.
//!
//! Kernels are built through the dtype-generic [`KernelSpec`] builder:
//! [`OdinContext::kernel`] names the source and entry function,
//! [`KernelSpec::dtype`] picks the compute monomorphization (f64 by
//! default; `I64`/`Bool` compile the parameters into the integer
//! register file), and [`KernelSpec::tier`] picks the execution tier —
//! the bytecode VM, or the native C-compiled chunk function that
//! `seamless::codegen` arms after a bitwise-parity probe (DESIGN §9).
//! [`OdinContext::compile_kernel`] remains as the f64/native shorthand.
//!
//! ```
//! use odin::context::OdinContext;
//! use odin::kernel::Tier;
//!
//! let ctx = OdinContext::with_workers(3);
//! let k = ctx
//!     .kernel("def wave(x, t):\n    return sin(x) * exp(-t)\n", "wave")
//!     .dtype(odin::DType::F64)
//!     .tier(Tier::Native)
//!     .build()
//!     .unwrap();
//! let x = ctx.linspace(0.0, 1.0, 16);
//! let t = ctx.full(&[16], 0.5, odin::protocol::Dist::Block);
//! let y = k.map(&[&x, &t]);
//! assert_eq!(y.len(), 16);
//! ```

use crate::array::DistArray;
use crate::buffer::DType;
use crate::context::OdinContext;
use crate::program::{Call, Op};
use seamless::bytecode::RegFile;
use seamless::{SeamlessError, Type};

/// Which execution tier a kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Always interpret the bytecode on the VM chunk path.
    Vm,
    /// Ask for the C-compiled native chunk function. The native symbol is
    /// only dispatched after it passes the bitwise-parity probe; bodies
    /// the emitter cannot compile (loops, arrays) or machines without a
    /// C compiler fall back to the VM — correctness never depends on the
    /// tier. This is the default.
    Native,
}

/// Builder for a dtype-generic kernel: source + entry name, then
/// [`KernelSpec::dtype`] / [`KernelSpec::tier`], then
/// [`KernelSpec::build`].
pub struct KernelSpec<'c> {
    ctx: &'c OdinContext,
    src: String,
    fname: String,
    dtype: DType,
    tier: Tier,
}

/// A Seamless function compiled to bytecode and registered on every
/// worker of an [`OdinContext`] pool.
///
/// Obtained from the [`KernelSpec`] builder ([`OdinContext::kernel`]),
/// from the f64 shorthand [`OdinContext::compile_kernel`], or implicitly
/// by [`crate::lazy::Expr::eval`] (lowered expressions — all share the
/// registration cache). The kernel's code shipped to the workers exactly
/// once; each `map` invoke is a small fixed-size control message.
pub struct Kernel<'c> {
    ctx: &'c OdinContext,
    name: String,
    arity: usize,
    /// The registration a call launches: id, return register and dtype,
    /// compute dtype, and the tier that armed.
    call: Call,
}

impl OdinContext {
    /// Start building a kernel from pyish source. `fname` names the entry
    /// function inside `src`. Defaults: `DType::F64` compute,
    /// [`Tier::Native`].
    pub fn kernel(&self, src: &str, fname: &str) -> KernelSpec<'_> {
        KernelSpec {
            ctx: self,
            src: src.to_string(),
            fname: fname.to_string(),
            dtype: DType::F64,
            tier: Tier::Native,
        }
    }

    /// Compile a Seamless (pyish) function to bytecode and register it
    /// with every worker — the f64/native shorthand for
    /// `self.kernel(src, fname).build()`.
    ///
    /// Fails with a typed [`SeamlessError`] when the source does not
    /// parse or type-check, when the entry function is missing, or when
    /// it is not a scalar→scalar function of at least one parameter
    /// (array parameters or an array return cannot run element-wise).
    pub fn compile_kernel(&self, src: &str, fname: &str) -> Result<Kernel<'_>, SeamlessError> {
        self.kernel(src, fname).build()
    }
}

impl<'c> KernelSpec<'c> {
    /// Compute dtype of the monomorphization: `F64` (default) compiles
    /// scalar-float parameters and stages f64 rows; `I64` and `Bool`
    /// compile integer/bool parameters and stage i64 rows (bools as
    /// 0/1), so integer kernels never round-trip through floats.
    pub fn dtype(mut self, dtype: DType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Execution tier request (default [`Tier::Native`]).
    pub fn tier(mut self, tier: Tier) -> Self {
        self.tier = tier;
        self
    }

    /// Parse, type-check, and compile the entry function for the chosen
    /// dtype, register the bytecode with every worker, and (unless
    /// [`Tier::Vm`] was requested) try to arm the native tier — compile
    /// the C monomorphization and run the bitwise-parity probe. The
    /// returned kernel's [`Kernel::tier`] reports what actually armed.
    pub fn build(self) -> Result<Kernel<'c>, SeamlessError> {
        let KernelSpec {
            ctx,
            src,
            fname,
            dtype,
            tier,
        } = self;
        let timer = ctx.obs_timer();
        let module = seamless::parser::parse_module(&src)?;
        let def = module.function(&fname).ok_or_else(|| {
            SeamlessError::Type(format!("no function named `{fname}` in kernel source"))
        })?;
        let arity = def.params.len();
        if arity == 0 {
            return Err(SeamlessError::Type(format!(
                "kernel `{fname}` takes no parameters: a kernel maps over at least one array"
            )));
        }
        let param_type = match dtype {
            DType::F64 => Type::Float,
            DType::I64 => Type::Int,
            DType::Bool => Type::Bool,
        };
        let program =
            seamless::compile::compile_program(&module, &fname, &vec![param_type; arity])?;
        let entry = &program.funcs[0];
        let want_file = match dtype {
            DType::F64 => RegFile::F,
            DType::I64 | DType::Bool => RegFile::I,
        };
        if entry.params.iter().any(|(file, _)| *file != want_file) {
            return Err(SeamlessError::Type(format!(
                "kernel `{fname}` must take scalar parameters only"
            )));
        }
        let ret = match (dtype, &entry.ret) {
            (_, Type::Float) if dtype != DType::F64 => {
                return Err(SeamlessError::Type(format!(
                    "kernel `{fname}` returns a float but was compiled for {dtype:?} \
                     compute — build it with .dtype(DType::F64)"
                )))
            }
            (_, Type::Float) => DType::F64,
            (_, Type::Int) => DType::I64,
            (_, Type::Bool) => DType::Bool,
            (_, t) => {
                return Err(SeamlessError::Type(format!(
                    "kernel `{fname}` must return a scalar, not {t:?}"
                )))
            }
        };
        let ret_reg = entry
            .ret_reg()
            .expect("a scalar-typed function has a scalar Ret");
        // Arm the native tier before the program moves into the registry.
        // Master and workers are threads of one process, so this warm
        // populates the same codegen cache the workers will hit.
        let native = match tier {
            Tier::Vm => false,
            Tier::Native => match dtype {
                DType::F64 => seamless::codegen::native::<f64>(&program, &[ret_reg], 0).is_some(),
                DType::I64 | DType::Bool => {
                    seamless::codegen::native::<i64>(&program, &[ret_reg], 0).is_some()
                }
            },
        };
        let n_instrs: usize = program.funcs.iter().map(|f| f.instrs.len()).sum();
        let id = ctx.register_kernel_program(program);
        if let Some(timer) = timer {
            timer.finish(
                "odin",
                "compile_kernel",
                obs::span::wall_now_s(),
                &[
                    ("arity", arity as f64),
                    ("instrs", n_instrs as f64),
                    ("native", f64::from(u8::from(native))),
                ],
            );
        }
        Ok(Kernel {
            ctx,
            name: fname,
            arity,
            call: Call {
                kernel: id,
                ret,
                reg: ret_reg,
                dtype,
                tier: if native { Tier::Native } else { Tier::Vm },
            },
        })
    }
}

impl<'c> Kernel<'c> {
    /// The pool-wide kernel id.
    pub fn id(&self) -> u64 {
        self.call.kernel
    }

    /// The entry function's source name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of array arguments `map` expects.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Compute dtype this kernel was monomorphized for.
    pub fn dtype(&self) -> DType {
        self.call.dtype
    }

    /// The tier that actually armed: [`Tier::Native`] iff the C
    /// monomorphization compiled and passed the bitwise-parity probe,
    /// otherwise [`Tier::Vm`].
    pub fn tier(&self) -> Tier {
        self.call.tier
    }

    /// Apply the kernel element-wise: `out[i] = f(args[0][i], …)` over
    /// every worker's segment, at `args[0]`'s geometry. Records one call
    /// into the context's trace: the next observation launches it, one
    /// small control message per worker, and a whole-array fold of the
    /// result rides that launch (the array is not materialized when its
    /// handle is dropped before the fold is waited on).
    pub fn map(&self, args: &[&DistArray<'c>]) -> DistArray<'c> {
        assert_eq!(
            args.len(),
            self.arity,
            "kernel `{}` takes {} arrays, got {}",
            self.name,
            self.arity,
            args.len()
        );
        self.ctx.record(Op::Call(self.call), args, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::Tier;
    use crate::buffer::DType;
    use crate::context::OdinContext;
    use crate::protocol::Dist;

    #[test]
    fn kernel_maps_over_segments() {
        let ctx = OdinContext::with_workers(3);
        let k = ctx
            .compile_kernel("def f(x, y):\n    return hypot(x, y)\n", "f")
            .unwrap();
        assert_eq!(k.arity(), 2);
        assert_eq!(k.dtype(), DType::F64);
        let x = ctx.linspace(0.0, 2.0, 21);
        let y = ctx.linspace(1.0, 3.0, 21);
        let r = k.map(&[&x, &y]);
        let xs = x.to_vec();
        let ys = y.to_vec();
        let rs = r.to_vec();
        for i in 0..xs.len() {
            assert_eq!(rs[i].to_bits(), xs[i].hypot(ys[i]).to_bits());
        }
    }

    #[test]
    fn kernel_with_branches_and_locals() {
        let ctx = OdinContext::with_workers(2);
        let src = "def clip(x, lo, hi):\n    if x < lo:\n        return lo\n    if x > hi:\n        return hi\n    return x\n";
        let k = ctx.compile_kernel(src, "clip").unwrap();
        // a branchy body is outside the native emitter's class
        assert_eq!(k.tier(), Tier::Vm);
        let x = ctx.linspace(-2.0, 2.0, 17);
        let lo = ctx.full(&[17], -1.0, Dist::Block);
        let hi = ctx.full(&[17], 1.0, Dist::Block);
        let r = k.map(&[&x, &lo, &hi]).to_vec();
        for (i, v) in x.to_vec().into_iter().enumerate() {
            assert_eq!(r[i], v.clamp(-1.0, 1.0));
        }
    }

    #[test]
    fn kernel_registers_once_and_invokes_are_small() {
        let ctx = OdinContext::with_workers(2);
        let k = ctx
            .compile_kernel("def sq(x):\n    return x * x\n", "sq")
            .unwrap();
        let x = ctx.linspace(0.0, 1.0, 32);
        let _warm = k.map(&[&x]);
        ctx.flush_batch();
        let base = ctx.stats();
        let per_worker = 10;
        // hold results so Free commands don't pollute the stats window
        let results: Vec<_> = (0..per_worker).map(|_| k.map(&[&x])).collect();
        ctx.flush_batch();
        let s = ctx.stats() - base;
        drop(results);
        // registration happened before `base`: each invoke is one
        // broadcast control message, well under 100 bytes
        assert_eq!(s.ctrl_msgs, per_worker * 2);
        assert!(
            s.ctrl_bytes < s.ctrl_msgs * 100,
            "mean invoke size {} B",
            s.ctrl_bytes / s.ctrl_msgs.max(1)
        );
    }

    #[test]
    fn a_fold_riding_the_call_matches_map_then_reduce_bitwise() {
        let ctx = OdinContext::with_workers(3);
        let k = ctx
            .compile_kernel("def g(x):\n    return exp(-x) * sin(x)\n", "g")
            .unwrap();
        let x = ctx.linspace(0.0, 3.0, 101);
        let fused = k.map(&[&x]).sum_async();
        let mapped = k.map(&[&x]);
        ctx.flush_batch();
        let two_pass = mapped.sum();
        assert_eq!(fused.wait().to_bits(), two_pass.to_bits());
    }

    #[test]
    fn kernel_aligns_non_conformable_arguments() {
        let ctx = OdinContext::with_workers(3);
        let k = ctx
            .compile_kernel("def add(x, y):\n    return x + y\n", "add")
            .unwrap();
        let x = ctx.arange_f64(0.0, 1.0, 12, Dist::Block);
        let y = ctx.arange_f64(0.0, 1.0, 12, Dist::Cyclic);
        let r = k.map(&[&x, &y]);
        let expect: Vec<f64> = (0..12).map(|g| 2.0 * g as f64).collect();
        assert_eq!(r.to_vec(), expect);
    }

    #[test]
    fn bad_kernels_fail_with_typed_errors() {
        let ctx = OdinContext::with_workers(1);
        assert!(ctx
            .compile_kernel("def f(x):\n    return x\n", "g")
            .is_err());
        assert!(ctx.compile_kernel("def f(x:\n", "f").is_err());
        // array return is rejected
        assert!(ctx
            .compile_kernel("def f(n):\n    return zeros(int(n))\n", "f")
            .is_err());
        // nothing to map over: no template array to take a geometry from
        assert!(matches!(
            ctx.compile_kernel("def f():\n    return 1.0\n", "f"),
            Err(seamless::SeamlessError::Type(_))
        ));
        // float-returning body cannot be monomorphized for i64 compute
        assert!(ctx
            .kernel("def f(x):\n    return x * 0.5\n", "f")
            .dtype(DType::I64)
            .build()
            .is_err());
    }

    #[test]
    fn integer_kernels_produce_integer_arrays() {
        let ctx = OdinContext::with_workers(2);
        let k = ctx
            .compile_kernel("def f(x):\n    return int(x) * 2 + 1\n", "f")
            .unwrap();
        let x = ctx.arange(6);
        let r = k.map(&[&x]);
        assert_eq!(r.dtype(), crate::buffer::DType::I64);
        assert_eq!(r.to_vec_i64(), vec![1, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn i64_monomorphization_computes_in_integers() {
        let ctx = OdinContext::with_workers(2);
        // for i64 compute, x stays an integer register end to end —
        // (x * x + 1) over i64 inputs, no float round-trip
        let k = ctx
            .kernel("def f(x):\n    return x * x + 1\n", "f")
            .dtype(DType::I64)
            .build()
            .unwrap();
        assert_eq!(k.dtype(), DType::I64);
        let x = ctx.arange(7);
        let r = k.map(&[&x]);
        assert_eq!(r.dtype(), DType::I64);
        assert_eq!(r.to_vec_i64(), vec![1, 2, 5, 10, 17, 26, 37]);
    }

    #[test]
    fn vm_tier_request_is_honored() {
        let ctx = OdinContext::with_workers(2);
        let k = ctx
            .kernel("def f(x):\n    return x + 1.0\n", "f")
            .tier(Tier::Vm)
            .build()
            .unwrap();
        assert_eq!(k.tier(), Tier::Vm);
        let x = ctx.linspace(0.0, 1.0, 9);
        let r = k.map(&[&x]).to_vec();
        for (i, v) in x.to_vec().into_iter().enumerate() {
            assert_eq!(r[i].to_bits(), (v + 1.0).to_bits());
        }
    }
}
