//! Static compilation and host embedding (§IV-B and §IV-D).
//!
//! [`compile`] turns pyish source into a self-contained, `Send + Sync`
//! [`CompiledKernel`] — the "statically compiled library" a host program
//! links against. Because the kernel is an ordinary Rust value, statically
//! typed host code (C++ in the paper's example) calls algorithms that were
//! *specified in Python*: the inverse embedding of §IV-D. The solver
//! callback in `hpc-core` and the ODIN local-function bridge both consume
//! these kernels.

use crate::bytecode::Program;
use crate::compile::compile_program;
use crate::parser::parse_module;
use crate::types::Type;
use crate::value::Value;
use crate::vm::Vm;
use crate::SeamlessError;

/// Result of invoking a kernel or interpreted function: the return value
/// plus the (possibly mutated) arguments, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutput {
    /// The function's return value.
    pub ret: Value,
    /// The arguments after the call (array mutations visible here).
    pub args: Vec<Value>,
}

/// A compiled, reusable function instance (entry + everything it calls,
/// monomorphized for one argument signature).
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    program: Program,
    name: String,
    arg_types: Vec<Type>,
}

impl CompiledKernel {
    /// The entry function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The signature this kernel was compiled for.
    pub fn arg_types(&self) -> &[Type] {
        &self.arg_types
    }

    /// Bytecode listing (debugging / documentation).
    pub fn disassemble(&self) -> String {
        self.program.disassemble()
    }

    /// Invoke the kernel.
    pub fn call(&self, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        Vm::new(&self.program).call(args)
    }

    /// Convenience: a `f64 → f64` view of the kernel (for solver
    /// callbacks). Errors at call time if the kernel disagrees.
    pub fn as_f64_fn(&self) -> impl Fn(f64) -> Result<f64, SeamlessError> + '_ {
        move |x| {
            let out = self.call(vec![Value::Float(x)])?;
            out.ret
                .as_f64()
                .ok_or_else(|| SeamlessError::Runtime("kernel did not return a number".into()))
        }
    }

    /// Convenience: apply the kernel in place to a float slice
    /// (`kernel(arr)` mutating semantics) — the node-level array kernel
    /// shape ODIN local functions use.
    pub fn apply_in_place(&self, data: &mut Vec<f64>) -> Result<Value, SeamlessError> {
        let buf = std::mem::take(data);
        let out = self.call(vec![Value::ArrF(buf)])?;
        match out.args.into_iter().next() {
            Some(Value::ArrF(v)) => {
                *data = v;
                Ok(out.ret)
            }
            _ => Err(SeamlessError::Runtime(
                "kernel lost its array argument".into(),
            )),
        }
    }

    /// Integer twin of [`CompiledKernel::apply_in_place`]: apply the
    /// kernel in place to an i64 slice (`kernel(arr)` mutating
    /// semantics) — the node-level shape for I64 distributed arrays.
    pub fn apply_in_place_i64(&self, data: &mut Vec<i64>) -> Result<Value, SeamlessError> {
        let buf = std::mem::take(data);
        let out = self.call(vec![Value::ArrI(buf)])?;
        match out.args.into_iter().next() {
            Some(Value::ArrI(v)) => {
                *data = v;
                Ok(out.ret)
            }
            _ => Err(SeamlessError::Runtime(
                "kernel lost its array argument".into(),
            )),
        }
    }
}

/// Statically compile `fname` from `src` for the given argument types
/// (§IV-B: same source as the JIT path, no language changes).
pub fn compile(
    src: &str,
    fname: &str,
    arg_types: &[Type],
) -> Result<CompiledKernel, SeamlessError> {
    let module = parse_module(src)?;
    let program = compile_program(&module, fname, arg_types)?;
    Ok(CompiledKernel {
        program,
        name: fname.to_string(),
        arg_types: arg_types.to_vec(),
    })
}

/// Compile with a loaded foreign library in scope: unknown calls resolve
/// through the library's discovered signatures, so pyish source can call
/// `atan2`, `pow`, … directly (§IV-A composed with §IV-C).
pub fn compile_with_externs(
    src: &str,
    fname: &str,
    arg_types: &[Type],
    lib: &crate::cmodule::CModule,
) -> Result<CompiledKernel, SeamlessError> {
    let module = parse_module(src)?;
    let program =
        crate::compile::compile_program_with_externs(&module, fname, arg_types, Some(lib))?;
    Ok(CompiledKernel {
        program,
        name: fname.to_string(),
        arg_types: arg_types.to_vec(),
    })
}

/// JIT entry point (§IV-A): in this reproduction "just-in-time" and
/// "static" compilation share the pipeline; the JIT spelling exists
/// because call sites discover types at run time and pass them here.
pub fn jit(src: &str, fname: &str, arg_types: &[Type]) -> Result<CompiledKernel, SeamlessError> {
    compile(src, fname, arg_types)
}

/// Compile with types discovered from example argument values — the
/// decorator-without-annotations flow (`@jit` with no hints).
pub fn jit_from_values(
    src: &str,
    fname: &str,
    example_args: &[Value],
) -> Result<CompiledKernel, SeamlessError> {
    let types: Vec<Type> = example_args.iter().map(|v| v.type_of()).collect();
    compile(src, fname, &types)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_SRC: &str = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";

    #[test]
    fn kernel_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledKernel>();
    }

    #[test]
    fn jit_and_static_agree() {
        let k1 = jit(SUM_SRC, "sum", &[Type::ArrF]).unwrap();
        let k2 = compile(SUM_SRC, "sum", &[Type::ArrF]).unwrap();
        let args = vec![Value::ArrF(vec![0.5; 10])];
        assert_eq!(
            k1.call(args.clone()).unwrap().ret,
            k2.call(args).unwrap().ret
        );
        assert_eq!(k1.name(), "sum");
        assert_eq!(k1.arg_types(), &[Type::ArrF]);
    }

    #[test]
    fn jit_from_values_discovers_types() {
        let k = jit_from_values(SUM_SRC, "sum", &[Value::ArrF(vec![1.0, 2.0])]).unwrap();
        let out = k.call(vec![Value::ArrF(vec![1.0, 2.0])]).unwrap();
        assert_eq!(out.ret, Value::Float(3.0));
    }

    #[test]
    fn kernel_shared_across_threads() {
        let k = std::sync::Arc::new(jit(SUM_SRC, "sum", &[Type::ArrF]).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let k = std::sync::Arc::clone(&k);
            handles.push(std::thread::spawn(move || {
                let arr: Vec<f64> = (0..100).map(|i| (i * t) as f64).collect();
                let expect: f64 = arr.iter().sum();
                let out = k.call(vec![Value::ArrF(arr)]).unwrap();
                assert_eq!(out.ret, Value::Float(expect));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn f64_fn_view() {
        let src = "def poly(x: float):\n    return 3.0 * x ** 2 + 2.0 * x + 1.0\n";
        let k = compile(src, "poly", &[Type::Float]).unwrap();
        let f = k.as_f64_fn();
        assert_eq!(f(2.0).unwrap(), 17.0);
        assert_eq!(f(0.0).unwrap(), 1.0);
    }

    #[test]
    fn apply_in_place_mutates() {
        let src = "
def relu(a):
    for i in range(len(a)):
        a[i] = max(a[i], 0.0)
";
        let k = compile(src, "relu", &[Type::ArrF]).unwrap();
        let mut data = vec![-1.0, 2.0, -0.5, 3.0];
        k.apply_in_place(&mut data).unwrap();
        assert_eq!(data, vec![0.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn pyish_source_calls_foreign_functions() {
        // §IV-A meets §IV-C: the kernel body calls straight into "libm"
        // through signatures discovered from the header text.
        let libm = crate::cmodule::CModule::load_system("m").unwrap();
        let src = "
def polar(y: float, x: float):
    r = hypot(x, y)
    t = atan2(y, x)
    return r * 1000.0 + t
";
        let k = compile_with_externs(src, "polar", &[Type::Float, Type::Float], &libm).unwrap();
        let out = k.call(vec![Value::Float(3.0), Value::Float(4.0)]).unwrap();
        let expect = 5.0 * 1000.0 + 3.0f64.atan2(4.0);
        assert_eq!(out.ret, Value::Float(expect));
        // the interpreter resolves the same calls through the library
        let interp = crate::interp::Interpreter::new(src)
            .unwrap()
            .with_externs(libm);
        let iv = interp
            .call("polar", vec![Value::Float(3.0), Value::Float(4.0)])
            .unwrap();
        assert_eq!(iv.ret, out.ret);
    }

    #[test]
    fn local_functions_shadow_the_library() {
        let libm = crate::cmodule::CModule::load_system("m").unwrap();
        let src = "
def pow(a: float, b: float):
    return a + b

def f(x: float):
    return pow(x, 1.0)
";
        let k = compile_with_externs(src, "f", &[Type::Float], &libm).unwrap();
        let out = k.call(vec![Value::Float(2.0)]).unwrap();
        assert_eq!(out.ret, Value::Float(3.0)); // local pow, not libm pow
    }

    #[test]
    fn extern_integral_conversions() {
        let libm = crate::cmodule::CModule::load_system("m").unwrap();
        // int abs(int): the float argument truncates like C
        let src = "def f(x: float):\n    return abs2(x)\n";
        // 'abs' is a builtin, so alias through a custom header instead
        let mut syms: std::collections::HashMap<String, crate::cmodule::NativeFn> =
            std::collections::HashMap::new();
        syms.insert("abs2".into(), |a| a[0].abs());
        let lib = crate::cmodule::CModule::load("mylib", "int abs2(int n);", syms).unwrap();
        let k = compile_with_externs(src, "f", &[Type::Float], &lib).unwrap();
        let out = k.call(vec![Value::Float(-3.9)]).unwrap();
        assert_eq!(out.ret, Value::Int(3)); // truncated then |.|, int return
        drop(libm);
    }

    #[test]
    fn unknown_extern_still_errors() {
        let libm = crate::cmodule::CModule::load_system("m").unwrap();
        let src = "def f(x: float):\n    return nosuchfn(x)\n";
        assert!(compile_with_externs(src, "f", &[Type::Float], &libm).is_err());
    }

    #[test]
    fn disassembly_is_nonempty() {
        let k = compile(SUM_SRC, "sum", &[Type::ArrF]).unwrap();
        let d = k.disassemble();
        assert!(d.contains("fn #0 sum"));
        assert!(d.lines().count() > 5);
    }
}
