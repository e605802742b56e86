//! # seamless — a JIT for a Python-like language, plus frictionless FFI
//!
//! Reproduction of the paper's Seamless system (§IV). Its four features,
//! mapped to this crate:
//!
//! 1. **JIT compilation** (§IV-A): "pyish" source (an indentation-based
//!    Python subset) is parsed, type-inferred, and compiled to a *typed
//!    register bytecode* executed by an unboxed VM — the stand-in for
//!    LLVM codegen. The baseline it is measured against is [`interp`], a
//!    deliberately boxed, dynamically-dispatched tree-walking interpreter
//!    (the CPython stand-in). Experiment E7 runs the paper's `@jit sum`
//!    example on both.
//! 2. **Static compilation** (§IV-B): [`export::compile`] produces a
//!    reusable [`export::CompiledKernel`] — same source, no annotation
//!    changes, callable from host code.
//! 3. **Trivial FFI** (§IV-C): [`cmodule::CModule`] parses C-style header
//!    declarations and *discovers* each function's signature, so foreign
//!    functions are callable with no explicit binding step.
//! 4. **Python as an algorithm-specification language** (§IV-D):
//!    compiled kernels are plain `Send + Sync` Rust values, so statically
//!    typed host code (solver callbacks, ODIN local functions) can call
//!    algorithms specified in pyish — the inverse embedding.
//!
//! ```
//! // the paper's §IV-A example, verbatim modulo decorator syntax
//! let src = "
//! def sum(it):
//!     res = 0.0
//!     for i in range(len(it)):
//!         res = res + it[i]
//!     return res
//! ";
//! let kernel = seamless::jit(src, "sum", &[seamless::Type::ArrF]).unwrap();
//! let out = kernel.call(vec![seamless::Value::ArrF(vec![1.0, 2.5, 3.5])]).unwrap();
//! assert_eq!(out.ret, seamless::Value::Float(7.0));
//! ```

pub mod ast;
pub mod bytecode;
pub mod cmodule;
pub mod codegen;
pub mod compile;
pub mod export;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod types;
pub mod value;
pub mod vm;
pub mod wire;

pub use cmodule::CModule;
pub use export::{
    compile as compile_kernel, compile_with_externs, jit, CallOutput, CompiledKernel,
};
pub use interp::Interpreter;
pub use types::Type;
pub use value::Value;

/// Errors from any stage of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SeamlessError {
    /// Tokenizer error with line number.
    Lex(usize, String),
    /// Parser error with line number.
    Parse(usize, String),
    /// Type inference / checking error.
    Type(String),
    /// Runtime error (both interpreter and VM).
    Runtime(String),
    /// Header parsing / FFI error.
    Ffi(String),
}

impl std::fmt::Display for SeamlessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeamlessError::Lex(line, m) => write!(f, "lex error (line {line}): {m}"),
            SeamlessError::Parse(line, m) => write!(f, "parse error (line {line}): {m}"),
            SeamlessError::Type(m) => write!(f, "type error: {m}"),
            SeamlessError::Runtime(m) => write!(f, "runtime error: {m}"),
            SeamlessError::Ffi(m) => write!(f, "ffi error: {m}"),
        }
    }
}

impl std::error::Error for SeamlessError {}

/// Serializes the unit tests that flip `HPC_KERNEL_TIER` (process-global)
/// or run the C compiler (one of them asserts that no compile leaves a
/// file behind in the temp directory).
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
