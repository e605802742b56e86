//! Header-driven foreign functions (§IV-C): "the argument types and return
//! types of the exposed functions are automatically discovered. One has
//! only to specify the header file location … and all functions defined in
//! the header file are immediately available for use."
//!
//! The reproduction parses C-style declarations (`double atan2(double,
//! double);`) to *discover signatures*, then dispatches into a registry of
//! "system libraries" implemented in Rust — the role the dynamic loader
//! plays for real Seamless. Calls are signature-checked and arguments are
//! converted per C conversion rules.
//!
//! ```
//! use seamless::{CModule, Value};
//! // the paper's §IV-C example
//! let libm = CModule::load_system("m").unwrap();
//! let v = libm.call("atan2", &[Value::Float(1.0), Value::Float(2.0)]).unwrap();
//! assert_eq!(v, Value::Float((1.0f64).atan2(2.0)));
//! ```

use std::collections::HashMap;

use crate::value::Value;
use crate::SeamlessError;

/// C types we model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CType {
    /// `double`
    Double,
    /// `float`
    Float,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `void`
    Void,
}

impl CType {
    fn parse(s: &str) -> Option<CType> {
        Some(match s.trim() {
            "double" => CType::Double,
            "float" => CType::Float,
            "int" => CType::Int,
            "long" | "long int" | "long long" => CType::Long,
            "void" => CType::Void,
            _ => return None,
        })
    }
}

/// A discovered function signature.
#[derive(Debug, Clone, PartialEq)]
pub struct CSignature {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: CType,
    /// Parameter types.
    pub params: Vec<CType>,
}

/// Parse C-style declarations from header text. Handles comments,
/// multi-line declarations, parameter names, and `void` parameter lists.
fn parse_header(text: &str) -> Result<Vec<CSignature>, SeamlessError> {
    // strip // and /* */ comments
    let mut clean = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '/' {
            match chars.peek() {
                Some('/') => {
                    for c2 in chars.by_ref() {
                        if c2 == '\n' {
                            clean.push('\n');
                            break;
                        }
                    }
                    continue;
                }
                Some('*') => {
                    chars.next();
                    let mut prev = ' ';
                    for c2 in chars.by_ref() {
                        if prev == '*' && c2 == '/' {
                            break;
                        }
                        prev = c2;
                    }
                    clean.push(' ');
                    continue;
                }
                _ => {}
            }
        }
        clean.push(c);
    }
    let mut sigs = Vec::new();
    for decl in clean.split(';') {
        let decl = decl.trim();
        if decl.is_empty() || decl.starts_with('#') {
            continue;
        }
        let Some(open) = decl.find('(') else {
            continue; // not a function declaration (e.g. a typedef)
        };
        let Some(close) = decl.rfind(')') else {
            return Err(SeamlessError::Ffi(format!("unbalanced parens in {decl:?}")));
        };
        let head = decl[..open].trim();
        let params_text = &decl[open + 1..close];
        // head = "<ret type...> <name>"
        let Some(name_start) = head.rfind(|c: char| c.is_whitespace() || c == '*') else {
            continue;
        };
        let name = head[name_start + 1..].trim().to_string();
        let ret_text = head[..name_start + 1].replace("extern", "");
        let Some(ret) = CType::parse(&ret_text) else {
            return Err(SeamlessError::Ffi(format!(
                "unsupported return type {:?} for {name}",
                ret_text.trim()
            )));
        };
        let mut params = Vec::new();
        let pt = params_text.trim();
        if !pt.is_empty() && pt != "void" {
            for p in pt.split(',') {
                // drop the parameter name if present: "double x" → "double"
                let p = p.trim();
                let type_part = match p.rfind(|c: char| c.is_whitespace()) {
                    Some(i) if CType::parse(&p[..i]).is_some() => &p[..i],
                    _ => p,
                };
                let Some(t) = CType::parse(type_part) else {
                    return Err(SeamlessError::Ffi(format!(
                        "unsupported parameter type {p:?} in {name}"
                    )));
                };
                params.push(t);
            }
        }
        sigs.push(CSignature { name, ret, params });
    }
    Ok(sigs)
}

/// The native implementation behind a discovered symbol.
pub type NativeFn = fn(&[f64]) -> f64;

/// A loaded "library": discovered signatures bound to native symbols.
#[derive(Clone)]
pub struct CModule {
    name: String,
    sigs: HashMap<String, CSignature>,
    symbols: HashMap<String, NativeFn>,
}

/// The libm-like symbol table the registry serves for library `"m"`
/// (mirrors "the call to the cmath constructor will find the system's
/// built-in math library").
fn libm_symbols() -> HashMap<String, NativeFn> {
    let mut m: HashMap<String, NativeFn> = HashMap::new();
    m.insert("sin".into(), |a| a[0].sin());
    m.insert("cos".into(), |a| a[0].cos());
    m.insert("tan".into(), |a| a[0].tan());
    m.insert("asin".into(), |a| a[0].asin());
    m.insert("acos".into(), |a| a[0].acos());
    m.insert("atan".into(), |a| a[0].atan());
    m.insert("atan2".into(), |a| a[0].atan2(a[1]));
    m.insert("exp".into(), |a| a[0].exp());
    m.insert("log".into(), |a| a[0].ln());
    m.insert("log10".into(), |a| a[0].log10());
    m.insert("pow".into(), |a| a[0].powf(a[1]));
    m.insert("sqrt".into(), |a| a[0].sqrt());
    m.insert("cbrt".into(), |a| a[0].cbrt());
    m.insert("hypot".into(), |a| a[0].hypot(a[1]));
    m.insert("floor".into(), |a| a[0].floor());
    m.insert("ceil".into(), |a| a[0].ceil());
    m.insert("fabs".into(), |a| a[0].abs());
    m.insert("fmod".into(), |a| a[0] % a[1]);
    m.insert("sinh".into(), |a| a[0].sinh());
    m.insert("cosh".into(), |a| a[0].cosh());
    m.insert("tanh".into(), |a| a[0].tanh());
    m.insert("abs".into(), |a| a[0].abs());
    m.insert("labs".into(), |a| a[0].abs());
    m
}

/// The default math.h-like header text used by [`CModule::load_system`].
const MATH_H: &str = "
/* a math.h excerpt */
double sin(double x);
double cos(double x);
double tan(double x);
double asin(double x);
double acos(double x);
double atan(double x);
double atan2(double y, double x);
double exp(double x);
double log(double x);
double log10(double x);
double pow(double base, double exponent);
double sqrt(double x);
double cbrt(double x);
double hypot(double x, double y);
double floor(double x);
double ceil(double x);
double fabs(double x);
double fmod(double x, double y);
double sinh(double x);
double cosh(double x);
double tanh(double x);
int abs(int n);
long labs(long n);
";

impl CModule {
    /// Load a library from a header and an explicit symbol table.
    pub fn load(
        name: &str,
        header: &str,
        symbols: HashMap<String, NativeFn>,
    ) -> Result<CModule, SeamlessError> {
        let sigs = parse_header(header)?
            .into_iter()
            .map(|s| (s.name.clone(), s))
            .collect::<HashMap<_, _>>();
        Ok(CModule {
            name: name.to_string(),
            sigs,
            symbols,
        })
    }

    /// Load a system library by name (the `cmath('m')` flow). Only the
    /// math library exists in the registry.
    pub fn load_system(lib: &str) -> Result<CModule, SeamlessError> {
        match lib {
            "m" | "math" => Self::load("m", MATH_H, libm_symbols()),
            other => Err(SeamlessError::Ffi(format!(
                "library {other:?} not found in the registry"
            ))),
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All discovered signatures (sorted by name).
    pub fn signatures(&self) -> Vec<&CSignature> {
        let mut v: Vec<&CSignature> = self.sigs.values().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// The discovered signature of one function.
    pub fn signature(&self, name: &str) -> Option<&CSignature> {
        self.sigs.get(name)
    }

    /// The raw native symbol (used by the compiler to emit direct calls
    /// from pyish code into the library — §IV-A meets §IV-C).
    pub fn native(&self, name: &str) -> Option<NativeFn> {
        self.symbols.get(name).copied()
    }

    /// Call a foreign function with boxed values; arguments are checked
    /// and converted per the *discovered* signature.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value, SeamlessError> {
        let sig = self
            .sigs
            .get(name)
            .ok_or_else(|| SeamlessError::Ffi(format!("{name} not declared in header")))?;
        if args.len() != sig.params.len() {
            return Err(SeamlessError::Ffi(format!(
                "{name} takes {} arguments, got {}",
                sig.params.len(),
                args.len()
            )));
        }
        let mut raw = Vec::with_capacity(args.len());
        for (v, t) in args.iter().zip(&sig.params) {
            let x = v
                .as_f64()
                .ok_or_else(|| SeamlessError::Ffi(format!("{name}: cannot pass {v:?} as {t:?}")))?;
            // C conversion: integral parameters truncate
            raw.push(match t {
                CType::Int | CType::Long => x.trunc(),
                _ => x,
            });
        }
        let f = self
            .symbols
            .get(name)
            .ok_or_else(|| SeamlessError::Ffi(format!("{name} declared but not in library")))?;
        let out = f(&raw);
        Ok(match sig.ret {
            CType::Double | CType::Float => Value::Float(out),
            CType::Int | CType::Long => Value::Int(out as i64),
            CType::Void => Value::Unit,
        })
    }
}

// ---------------------------------------------------------------------------
// Tempdir compile-and-load: the real dynamic-loader half of the CModule
// plane, used by the tiered kernel JIT (`codegen`). Where `CModule::load`
// serves a *registry* of Rust-implemented symbols, this path shells out to
// the system C compiler, builds a shared object in the temp directory, and
// resolves the symbol with `dlopen`/`dlsym`.
// ---------------------------------------------------------------------------

/// Locate a working system C compiler, probing `$CC`, then `cc`, `gcc`,
/// `clang` with `--version`. The probe runs once per process.
pub fn system_cc() -> Option<&'static str> {
    use std::sync::OnceLock;
    static CC: OnceLock<Option<String>> = OnceLock::new();
    CC.get_or_init(|| {
        let mut candidates: Vec<String> = Vec::new();
        if let Ok(env_cc) = std::env::var("CC") {
            if !env_cc.trim().is_empty() {
                candidates.push(env_cc);
            }
        }
        for c in ["cc", "gcc", "clang"] {
            candidates.push(c.to_string());
        }
        candidates.into_iter().find(|cand| {
            std::process::Command::new(cand)
                .arg("--version")
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .map(|s| s.success())
                .unwrap_or(false)
        })
    })
    .as_deref()
}

#[cfg(unix)]
mod dl {
    //! Minimal `dlopen`/`dlsym` bindings. These live in libc proper on
    //! every platform we build on (glibc ≥ 2.34 folded libdl in), so no
    //! crate dependency is needed.
    use std::os::raw::{c_char, c_int, c_void};
    extern "C" {
        pub(super) fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub(super) fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub(super) fn dlerror() -> *mut c_char;
    }
    pub(super) const RTLD_NOW: c_int = 2;
}

/// The prefix of the `<prefix>k<n>.c` / `<prefix>k<n>.so` pairs
/// [`compile_and_load`] writes straight into the temp directory; each
/// pair is unlinked before the call returns, so nothing is left behind.
#[cfg(unix)]
fn scratch_prefix() -> String {
    format!("seamless-native-{}-", std::process::id())
}

/// Unlinks the files it names when dropped, so every return path of
/// [`compile_and_load`] cleans up. A `dlopen`ed mapping outlives its file.
#[cfg(unix)]
struct Unlink<'a>([&'a std::path::Path; 2]);

#[cfg(unix)]
impl Drop for Unlink<'_> {
    fn drop(&mut self) {
        for path in self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Compile `c_source` with the system C compiler into a shared object in
/// the temp directory, `dlopen` it, and return the address of `symbol`.
/// The source and the object are unlinked before returning, on success
/// and failure alike. The library handle is deliberately leaked so the
/// returned address stays valid for the life of the process (the JIT
/// caches one entry per monomorphization, so the leak is bounded by
/// distinct kernels).
///
/// Flags: `-O2 -ftree-vectorize -fPIC -shared -ffp-contract=off -nostdlib
/// [-mavx2] -lm`.
/// - `-ftree-vectorize`: GCC's `-O2` cost model alone refuses any loop
///   that needs a remainder, which is every lane loop. Vectorizing cannot
///   move a bit: each emitted op is an elementwise IEEE operation that
///   rounds the same at any width, and no reduction runs in C.
/// - `-ffp-contract=off`: the native tier is gated on *bitwise* parity
///   with the VM, and a fused multiply-add would round differently than
///   the interpreter's separate multiply and add.
/// - `-mavx2` when the CPU reports AVX2 (detected here rather than
///   `-march=native`, whose host probe costs every `cc` call 10–14 ms).
///   Stay at `-O2`: at `-O1` GCC 12 emits no `vzeroupper`, so an AVX
///   kernel returns with the upper YMM state dirty and the SSE code that
///   runs next on the thread crawls.
/// - `-nostdlib ... -lm`: no C runtime objects are linked, which shortens
///   every call; libm stays the one dependency, and its symbols resolve
///   at `dlopen` against the libm every Rust binary already maps.
#[cfg(unix)]
pub fn compile_and_load(c_source: &str, symbol: &str) -> Result<usize, SeamlessError> {
    use std::sync::atomic::{AtomicU64, Ordering};

    let cc = system_cc()
        .ok_or_else(|| SeamlessError::Ffi("no system C compiler (cc/gcc/clang)".into()))?;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let stem = std::env::temp_dir().join(format!("{}k{n}", scratch_prefix()));
    let c_path = stem.with_extension("c");
    let so_path = stem.with_extension("so");
    let _unlink = Unlink([&c_path, &so_path]);
    std::fs::write(&c_path, c_source)
        .map_err(|e| SeamlessError::Ffi(format!("write {}: {e}", c_path.display())))?;
    let mut cmd = std::process::Command::new(cc);
    cmd.args([
        "-O2",
        "-ftree-vectorize",
        "-fPIC",
        "-shared",
        "-ffp-contract=off",
        "-nostdlib",
    ]);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        cmd.arg("-mavx2");
    }
    let out = cmd
        .arg("-o")
        .arg(&so_path)
        .arg(&c_path)
        .arg("-lm")
        .output()
        .map_err(|e| SeamlessError::Ffi(format!("spawn {cc}: {e}")))?;
    if !out.status.success() {
        return Err(SeamlessError::Ffi(format!(
            "{cc} failed on generated kernel: {}",
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    let so_c = std::ffi::CString::new(so_path.to_string_lossy().into_owned())
        .map_err(|_| SeamlessError::Ffi("NUL in shared object path".into()))?;
    let sym_c = std::ffi::CString::new(symbol)
        .map_err(|_| SeamlessError::Ffi("NUL in symbol name".into()))?;
    unsafe {
        let handle = dl::dlopen(so_c.as_ptr(), dl::RTLD_NOW);
        if handle.is_null() {
            let err = dl::dlerror();
            let msg = if err.is_null() {
                "unknown dlopen failure".to_string()
            } else {
                std::ffi::CStr::from_ptr(err).to_string_lossy().into_owned()
            };
            return Err(SeamlessError::Ffi(format!("dlopen: {msg}")));
        }
        let addr = dl::dlsym(handle, sym_c.as_ptr());
        if addr.is_null() {
            return Err(SeamlessError::Ffi(format!(
                "dlsym: {symbol} missing from compiled kernel"
            )));
        }
        // handle intentionally never dlclose()d — see doc comment
        Ok(addr as usize)
    }
}

/// Non-unix fallback: the native tier is unavailable; callers stay on the
/// VM.
#[cfg(not(unix))]
pub fn compile_and_load(_c_source: &str, _symbol: &str) -> Result<usize, SeamlessError> {
    Err(SeamlessError::Ffi(
        "native kernel loading requires a unix dynamic loader".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_atan2() {
        // "libm = cmath('m'); libm.atan2(1.0, 2.0)"
        let libm = CModule::load_system("m").unwrap();
        let v = libm
            .call("atan2", &[Value::Float(1.0), Value::Float(2.0)])
            .unwrap();
        assert_eq!(v, Value::Float(1.0f64.atan2(2.0)));
    }

    #[test]
    fn signatures_are_discovered_not_specified() {
        let libm = CModule::load_system("m").unwrap();
        let sig = libm.signature("pow").unwrap();
        assert_eq!(sig.params, vec![CType::Double, CType::Double]);
        assert_eq!(sig.ret, CType::Double);
        assert!(libm.signatures().len() >= 20);
    }

    #[test]
    fn arity_and_type_checking() {
        let libm = CModule::load_system("m").unwrap();
        assert!(libm.call("sin", &[]).is_err());
        assert!(libm
            .call("sin", &[Value::Float(1.0), Value::Float(2.0)])
            .is_err());
        assert!(libm.call("sin", &[Value::ArrF(vec![])]).is_err());
        assert!(libm.call("nosuchfn", &[Value::Float(1.0)]).is_err());
    }

    #[test]
    fn integral_conversion_rules() {
        let libm = CModule::load_system("m").unwrap();
        // int abs(int): float arg truncates like C
        let v = libm.call("abs", &[Value::Float(-3.7)]).unwrap();
        assert_eq!(v, Value::Int(3));
        // int arguments widen into double params
        let v2 = libm.call("sqrt", &[Value::Int(9)]).unwrap();
        assert_eq!(v2, Value::Float(3.0));
    }

    #[test]
    fn header_parser_handles_noise() {
        let h = "
// leading comment
double f(double); /* inline */ int g(int a, long b);
long h(void);
double multi(
    double x,
    double y);
";
        let sigs = parse_header(h).unwrap();
        assert_eq!(sigs.len(), 4);
        assert_eq!(sigs[0].name, "f");
        assert_eq!(sigs[1].params, vec![CType::Int, CType::Long]);
        assert_eq!(sigs[2].params, vec![]);
        assert_eq!(sigs[3].params, vec![CType::Double, CType::Double]);
    }

    #[test]
    fn custom_library_loads() {
        let mut syms: HashMap<String, NativeFn> = HashMap::new();
        syms.insert("double_it".into(), |a| a[0] * 2.0);
        let lib = CModule::load("mylib", "double double_it(double x);", syms).unwrap();
        assert_eq!(lib.name(), "mylib");
        let v = lib.call("double_it", &[Value::Float(21.0)]).unwrap();
        assert_eq!(v, Value::Float(42.0));
    }

    #[test]
    fn unknown_library_rejected() {
        assert!(CModule::load_system("nonexistent").is_err());
    }

    #[test]
    fn unsupported_types_rejected() {
        assert!(parse_header("char *strcpy(char *dst, char *src);").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn compile_and_load_resolves_a_symbol() {
        let _g = crate::test_lock();
        if system_cc().is_none() {
            return; // bare machine: the VM-only fallback covers this
        }
        let addr = compile_and_load(
            "double add3$f64(double x) { return x + 3.0; }\n",
            "add3$f64",
        )
        .expect("trivial kernel compiles");
        let f: extern "C" fn(f64) -> f64 = unsafe { std::mem::transmute(addr) };
        assert_eq!(f(4.0), 7.0);
    }

    #[cfg(unix)]
    #[test]
    fn compile_errors_are_reported_not_fatal() {
        let _g = crate::test_lock();
        if system_cc().is_none() {
            return;
        }
        assert!(compile_and_load("this is not C", "nope").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn compiles_leave_no_scratch_files_behind() {
        let _g = crate::test_lock();
        if system_cc().is_none() {
            return;
        }
        let leftovers = || -> Vec<String> {
            std::fs::read_dir(std::env::temp_dir())
                .expect("temp dir lists")
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|name| name.starts_with(&scratch_prefix()))
                .collect()
        };
        // a published symbol keeps working after its object is unlinked
        let addr = compile_and_load(
            "double twice$f64(double x) { return x * 2.0; }\n",
            "twice$f64",
        )
        .expect("trivial kernel compiles");
        assert_eq!(
            leftovers(),
            Vec::<String>::new(),
            "after a successful compile"
        );
        let f: extern "C" fn(f64) -> f64 = unsafe { std::mem::transmute(addr) };
        assert_eq!(f(21.0), 42.0);
        // the three failure paths: cc rejects the source, dlsym misses, and
        // dlopen refuses an object with an unresolvable symbol
        assert!(compile_and_load("this is not C", "nope").is_err());
        assert!(compile_and_load("double one(void) { return 1.0; }\n", "two").is_err());
        assert!(compile_and_load(
            "double no_such_fn_anywhere(double);\ndouble f(double x) { return no_such_fn_anywhere(x); }\n",
            "f"
        )
        .is_err());
        assert_eq!(leftovers(), Vec::<String>::new(), "after failed compiles");
    }
}
