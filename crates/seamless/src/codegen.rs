//! Tiered native kernel codegen: lower typed-register bytecode to C,
//! compile it with the system compiler through the CModule plane
//! ([`crate::cmodule::compile_and_load`]), and hand back a chunk function
//! the kernel dispatcher can swap in for the VM.
//!
//! This is the missing compiled half of the paper's §IV claim — "export
//! Python-defined algorithms to statically-typed host code". The tier
//! discipline mirrors the E20 gating rules:
//!
//! 1. every kernel runs on the VM immediately (tier 0 — always correct);
//! 2. a straight-line, infallible, scalar body is *monomorphized* per
//!    (kernel, lane type, output registers) into a C chunk function
//!    `void name$lane$hash(const T* const* in, T* const* out, size_t n)`
//!    — one input row per parameter, one output row per named register —
//!    and compiled once per process;
//! 3. the native symbol is swapped in **only after a bitwise-parity
//!    probe** against the VM on seeded inputs at several widths. Any
//!    mismatch, compile failure, or unsupported opcode refuses the
//!    program permanently (per process) and execution stays on the VM.
//!
//! Parity is engineered, not hoped for: constants are emitted as exact
//! bit patterns, `powi` uses the VM's inline expansions for small
//! exponents and `__powidf2`'s multiply order otherwise, float→int casts
//! saturate exactly like Rust `as`, integer arithmetic wraps via unsigned
//! casts, and the build passes `-ffp-contract=off` so the C compiler
//! cannot fuse multiply-adds the interpreter keeps separate. The probe
//! then catches anything this reasoning missed.
//!
//! The cache is process-global on purpose: ODIN ranks are threads in one
//! process, so a pool respawn (`recover()`) re-arms the native tier with
//! zero recompiles — the replayed `RegisterKernel` hits the same entry.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::bytecode::{Cmp, CompiledFunc, Instr, Math2Fn, MathFn, Program, Reg, RegFile};
use crate::cmodule;
use crate::vm::{Lane, Vm};

/// A probed, cached native chunk function over lane type `L`, wrapped so
/// callers get slice-checked dispatch instead of raw pointers. The C ABI
/// is `void f(const L* const* in, L* const* out, size_t n)`: `in` points
/// at one full-length row per kernel parameter, `out` at one row per
/// output register, `n` is the lane count.
#[derive(Clone, Copy)]
pub struct NativeFn<L: Lane> {
    f: unsafe extern "C" fn(*const *const L, *const *mut L, usize),
    n_in: usize,
    n_out: usize,
}

impl<L: Lane> NativeFn<L> {
    /// Run the native body over `n` lanes. Panics (like a slice index
    /// would) if arity or lengths don't line up — callers stage
    /// full-length rows.
    pub fn run(&self, inputs: &[&[L]], outs: &mut [&mut [L]], n: usize) {
        assert_eq!(inputs.len(), self.n_in, "native kernel input arity");
        assert_eq!(outs.len(), self.n_out, "native kernel output arity");
        assert!(
            inputs.iter().all(|r| r.len() >= n),
            "native input rows too short"
        );
        assert!(
            outs.iter().all(|r| r.len() >= n),
            "native output rows too short"
        );
        if n == 0 {
            return;
        }
        let in_ptrs: Vec<*const L> = inputs.iter().map(|r| r.as_ptr()).collect();
        let out_ptrs: Vec<*mut L> = outs.iter_mut().map(|r| r.as_mut_ptr()).collect();
        // SAFETY: the symbol was compiled for exactly n_in/n_out rows, the
        // rows are ≥ n lanes long, and the parity probe exercised this
        // pointer protocol before the function was ever published.
        unsafe { (self.f)(in_ptrs.as_ptr(), out_ptrs.as_ptr(), n) }
    }
}

/// A published symbol address, or `None` when the monomorphization was
/// refused (compile failed, probe failed, or the body is not
/// native-compilable): never try again this process. Addresses are plain
/// integers, so entries can live in a global map.
type Entry = Option<usize>;

/// Which monomorphization a cache key names.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Key {
    program_hash: u64,
    lane: RegFile,
    out_regs: Vec<(RegFile, Reg)>,
}

fn cache() -> &'static Mutex<HashMap<Key, Entry>> {
    static CACHE: OnceLock<Mutex<HashMap<Key, Entry>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

static COMPILED: AtomicU64 = AtomicU64::new(0);
static REFUSED: AtomicU64 = AtomicU64::new(0);
static PROBE_FAILED: AtomicU64 = AtomicU64::new(0);
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);

/// Process-lifetime codegen counters (monotonic; tests take relative
/// snapshots because the whole suite shares one process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodegenStats {
    /// Monomorphizations compiled, probed, and published.
    pub compiled: u64,
    /// Programs refused (unsupported opcode, no compiler, cc failure).
    pub refused: u64,
    /// Programs that compiled but failed the bitwise parity probe (these
    /// are also counted in `refused`).
    pub probe_failed: u64,
    /// Cache hits: an already-published (or already-refused) entry was
    /// reused without touching the compiler.
    pub cache_hits: u64,
}

/// Read the counters.
pub fn stats() -> CodegenStats {
    CodegenStats {
        compiled: COMPILED.load(Ordering::Relaxed),
        refused: REFUSED.load(Ordering::Relaxed),
        probe_failed: PROBE_FAILED.load(Ordering::Relaxed),
        cache_hits: CACHE_HITS.load(Ordering::Relaxed),
    }
}

/// `HPC_KERNEL_TIER=vm` pins every kernel to the VM tier — the CI
/// fallback for machines without a C compiler, and the A/B switch the
/// benches use. Read per call (tests in one process flip it).
fn vm_forced() -> bool {
    std::env::var("HPC_KERNEL_TIER")
        .map(|v| v == "vm")
        .unwrap_or(false)
}

/// Whether the native tier can arm at all on this machine right now.
pub fn native_available() -> bool {
    !vm_forced() && cmodule::system_cc().is_some()
}

/// Whether the C emitter handles the entry function: a
/// [`CompiledFunc::straight_line_body`] with no foreign calls — the same
/// class as the VM's vectorized chunk path, minus its register-ordering
/// requirement (C locals don't alias rows).
fn native_compilable(program: &Program) -> bool {
    program.externs.is_empty()
        && program
            .funcs
            .first()
            .is_some_and(|f| f.straight_line_body().is_some())
}

fn program_hash(program: &Program) -> u64 {
    // Wire encoding is exact (f64 travels as bits), so distinct programs
    // get distinct byte strings. Externs are refused before this runs.
    let bytes = comm::encode_to_vec(program);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// `identity$f64x1$1a2b3c4d`-style symbol mangling: source name
/// (sanitized to C identifier characters — `$` is accepted by gcc/clang
/// on ELF), lane tag and output arity, program hash.
fn mangle(name: &str, lane: RegFile, hash: u64, n_out: usize) -> String {
    let mut base: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if base.is_empty() || base.starts_with(|c: char| c.is_ascii_digit()) {
        base.insert(0, 'k');
    }
    let tag = if lane == RegFile::F { "f64" } else { "i64" };
    format!("{base}${tag}x{n_out}${hash:016x}")
}

// ---------------------------------------------------------------------------
// C emission
// ---------------------------------------------------------------------------

/// Includes no header: parsing `<math.h>` and friends was a quarter of a
/// small body's `cc` time. The libm functions the emitter calls are
/// declared with their standard prototypes, which is what lets GCC and
/// clang still treat them as builtins (`fabs`, `floor`, `sqrt` inline).
const C_PRELUDE: &str = r#"typedef __SIZE_TYPE__ size_t;
typedef long long sl_i64;
typedef unsigned long long sl_u64;
double sqrt(double); double sin(double); double cos(double);
double tan(double); double exp(double); double log(double);
double fabs(double); double floor(double); double ceil(double);
double pow(double, double); double fmod(double, double);
double hypot(double, double); double atan2(double, double);
/* exact f64 constants: bit pattern in, double out */
static double sl_db(sl_u64 u) { double d; __builtin_memcpy(&d, &u, 8); return d; }
/* float -> int with Rust `as` semantics: saturate, NaN -> 0 */
static sl_i64 sl_f2i(double x) {
    if (x != x) return 0;
    if (x >= 9223372036854775808.0) return 9223372036854775807LL;
    if (x < -9223372036854775808.0) return -9223372036854775807LL - 1;
    return (sl_i64)x;
}
/* Rust's `checked_rem_euclid(b).unwrap_or(0)`: no C division by 0 or -1 */
static sl_i64 sl_modi(sl_i64 a, sl_i64 b) {
    if (b == 0 || b == -1) return 0;
    sl_i64 r = a % b;
    return r < 0 ? (sl_i64)((sl_u64)r + (b < 0 ? 0ULL - (sl_u64)b : (sl_u64)b)) : r;
}
/* __powidf2's exact multiply order (also LLVM's inline powi expansion) */
static double sl_powi(double a, sl_i64 b) {
    int recip = b < 0;
    double r = 1.0;
    while (1) {
        if (b & 1) r *= a;
        b /= 2;
        if (b == 0) break;
        a *= a;
    }
    return recip ? 1.0 / r : r;
}
"#;

fn cmp_op(c: Cmp) -> &'static str {
    match c {
        Cmp::Eq => "==",
        Cmp::Ne => "!=",
        Cmp::Lt => "<",
        Cmp::Le => "<=",
        Cmp::Gt => ">",
        Cmp::Ge => ">=",
    }
}

fn math1_fn(m: MathFn) -> &'static str {
    match m {
        MathFn::Sqrt => "sqrt",
        MathFn::Sin => "sin",
        MathFn::Cos => "cos",
        MathFn::Tan => "tan",
        MathFn::Exp => "exp",
        MathFn::Log => "log",
        MathFn::Abs => "fabs",
        MathFn::Floor => "floor",
        MathFn::Ceil => "ceil",
    }
}

fn math2_fn(m: Math2Fn) -> &'static str {
    match m {
        Math2Fn::Hypot => "hypot",
        Math2Fn::Atan2 => "atan2",
    }
}

fn const_i64(v: i64) -> String {
    if v == i64::MIN {
        // the literal 9223372036854775808 has no signed type in C
        "(-9223372036854775807LL - 1)".to_string()
    } else {
        format!("{v}LL")
    }
}

/// One C statement per instruction. Every emission mirrors the exact
/// operation (and operand order) of the VM's `exec`/`vector_pass` arms —
/// see module docs for the parity rules.
fn emit_instr(ins: &Instr) -> Option<String> {
    Some(match ins {
        Instr::ConstF(d, v) => format!("f{d} = sl_db(0x{:016x}ULL); /* {v:?} */", v.to_bits()),
        Instr::ConstI(d, v) => format!("i{d} = {};", const_i64(*v)),
        Instr::MovF(d, s) => format!("f{d} = f{s};"),
        Instr::MovI(d, s) => format!("i{d} = i{s};"),
        Instr::IToF(d, s) => format!("f{d} = (double)i{s};"),
        Instr::FToI(d, s) => format!("i{d} = sl_f2i(f{s});"),
        Instr::AddF(d, a, b) => format!("f{d} = f{a} + f{b};"),
        Instr::SubF(d, a, b) => format!("f{d} = f{a} - f{b};"),
        Instr::MulF(d, a, b) => format!("f{d} = f{a} * f{b};"),
        Instr::DivF(d, a, b) => format!("f{d} = f{a} / f{b};"),
        Instr::ModF(d, a, b) => format!("f{d} = f{a} - f{b} * floor(f{a} / f{b});"),
        Instr::PowF(d, a, b) => format!("f{d} = pow(f{a}, f{b});"),
        Instr::NegF(d, s) => format!("f{d} = -f{s};"),
        Instr::AddI(d, a, b) => format!("i{d} = (sl_i64)((sl_u64)i{a} + (sl_u64)i{b});"),
        Instr::SubI(d, a, b) => format!("i{d} = (sl_i64)((sl_u64)i{a} - (sl_u64)i{b});"),
        Instr::MulI(d, a, b) => format!("i{d} = (sl_i64)((sl_u64)i{a} * (sl_u64)i{b});"),
        Instr::NegI(d, s) => format!("i{d} = (sl_i64)(0ULL - (sl_u64)i{s});"),
        Instr::ModI(d, a, b) => format!("i{d} = sl_modi(i{a}, i{b});"),
        Instr::AbsI(d, s) => {
            format!("i{d} = i{s} < 0 ? (sl_i64)(0ULL - (sl_u64)i{s}) : i{s};")
        }
        Instr::CmpF(c, d, a, b) => format!("i{d} = (sl_i64)(f{a} {} f{b});", cmp_op(*c)),
        Instr::CmpI(c, d, a, b) => format!("i{d} = (sl_i64)(i{a} {} i{b});", cmp_op(*c)),
        Instr::AndI(d, a, b) => format!("i{d} = (sl_i64)(i{a} != 0 && i{b} != 0);"),
        Instr::OrI(d, a, b) => format!("i{d} = (sl_i64)(i{a} != 0 || i{b} != 0);"),
        Instr::NotI(d, s) => format!("i{d} = (sl_i64)(i{s} == 0);"),
        Instr::Math1(m, d, s) => format!("f{d} = {}(f{s});", math1_fn(*m)),
        Instr::Math2(m, d, a, b) => format!("f{d} = {}(f{a}, f{b});", math2_fn(*m)),
        // the VM's exact inline expansions for the exponents its
        // vectorized path strength-reduces; __powidf2 order otherwise
        Instr::PowIC(d, a, e) => match *e {
            0 => format!("f{d} = 1.0;"),
            1 => format!("f{d} = f{a};"),
            2 => format!("f{d} = f{a} * f{a};"),
            3 => format!("f{d} = f{a} * (f{a} * f{a});"),
            4 => format!("{{ double t = f{a} * f{a}; f{d} = t * t; }}"),
            -1 => format!("f{d} = 1.0 / f{a};"),
            -2 => format!("f{d} = 1.0 / (f{a} * f{a});"),
            e => format!("f{d} = sl_powi(f{a}, {e}LL);"),
        },
        Instr::RemF(d, a, b) => format!("f{d} = fmod(f{a}, f{b});"),
        // Rust's `min`/`max` (the VM's `min_f`/`max_f`), not libm's
        // `fmin`/`fmax`, which order `-0.0` below `0.0`
        Instr::MinF(d, a, b) => {
            format!("f{d} = (f{b} < f{a} || f{a} != f{a}) ? f{b} : f{a};")
        }
        Instr::MaxF(d, a, b) => {
            format!("f{d} = (f{a} < f{b} || f{a} != f{a}) ? f{b} : f{a};")
        }
        Instr::MinI(d, a, b) => format!("i{d} = i{a} < i{b} ? i{a} : i{b};"),
        Instr::MaxI(d, a, b) => format!("i{d} = i{a} > i{b} ? i{a} : i{b};"),
        _ => return None,
    })
}

/// Emit the full translation unit for one monomorphization: parameters
/// load from the `lane` file's input rows, every `out_regs` entry stores
/// to its own output row (integer registers widen into `double` rows).
/// Returns `None` when any instruction falls outside the emitter's class.
///
/// Every row pointer is read into a local before the lane loop, so the
/// loop body indexes rows only (`inK[lane]` / `outJ[lane]`) and the
/// vectorizer's runtime overlap check covers the rows, not the `in` /
/// `out` pointer arrays as well. No `restrict`: GCC versions the loop on
/// that check instead, a few compares per call.
fn emit_c(
    f: &CompiledFunc,
    symbol: &str,
    lane: RegFile,
    out_regs: &[(RegFile, Reg)],
) -> Option<String> {
    let (c_ty, own) = match lane {
        RegFile::F => ("double", 'f'),
        _ => ("sl_i64", 'i'),
    };
    let mut src = String::with_capacity(2048 + 64 * f.instrs.len());
    src.push_str(C_PRELUDE);
    src.push_str(&format!(
        "void {symbol}(const {c_ty}* const* in, {c_ty}* const* out, size_t n) {{\n"
    ));
    for k in 0..f.params.len() {
        src.push_str(&format!("    const {c_ty}* in{k} = in[{k}];\n"));
    }
    for j in 0..out_regs.len() {
        src.push_str(&format!("    {c_ty}* out{j} = out[{j}];\n"));
    }
    src.push_str("    for (size_t lane = 0; lane < n; ++lane) {\n");
    // registers zero-initialized per lane, matching the VM's fallback
    // frame discipline (and the vectorized path's zeroed rows)
    for r in 0..f.reg_counts[0] {
        src.push_str(&format!("        double f{r} = 0.0;\n"));
    }
    for r in 0..f.reg_counts[1] {
        src.push_str(&format!("        sl_i64 i{r} = 0;\n"));
    }
    for (k, &(file, reg)) in f.params.iter().enumerate() {
        if file != lane {
            return None;
        }
        src.push_str(&format!("        {own}{reg} = in{k}[lane];\n"));
    }
    for ins in f.straight_line_body()? {
        src.push_str("        ");
        src.push_str(&emit_instr(ins)?);
        src.push('\n');
    }
    for (j, &(file, r)) in out_regs.iter().enumerate() {
        src.push_str(&match (lane, file) {
            (RegFile::F, RegFile::F) => format!("        out{j}[lane] = f{r};\n"),
            (RegFile::F, RegFile::I) => format!("        out{j}[lane] = (double)i{r};\n"),
            (RegFile::I, RegFile::I) => format!("        out{j}[lane] = i{r};\n"),
            _ => return None,
        });
    }
    src.push_str("    }\n}\n");
    Some(src)
}

// ---------------------------------------------------------------------------
// Parity probe
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Probe widths: every width 1–8 (the satellite parity matrix), one chunk
/// big enough to push the VM onto its vectorized path, and three widths
/// that are not a multiple of 4 above the C vectorizer's threshold, so
/// the vector loop and both of its epilogues run in one call.
const PROBE_WIDTHS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 256, 257, 259, 1027];

fn probe_inputs<L: Lane>(arity: usize, width: usize, seed: u64) -> Vec<Vec<L>> {
    let mut state = seed;
    (0..arity)
        .map(|k| {
            (0..width)
                .map(|lane| {
                    if lane < L::PROBE_FIXED.len() && (lane + k) % 3 != 2 {
                        L::PROBE_FIXED[(lane + k) % L::PROBE_FIXED.len()]
                    } else {
                        L::probe_random(splitmix(&mut state))
                    }
                })
                .collect()
        })
        .collect()
}

/// Bitwise-parity probe: the native body must reproduce the VM's output
/// rows exactly, at every probe width, before it is published.
fn probe<L: Lane>(
    program: &Program,
    nf: NativeFn<L>,
    out_regs: &[(RegFile, Reg)],
    seed: u64,
) -> bool {
    let arity = program.funcs[0].params.len();
    let vm = Vm::new(program);
    for &w in PROBE_WIDTHS {
        let rows = probe_inputs::<L>(arity, w, seed ^ w as u64);
        let refs: Vec<&[L]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut vm_rows = vec![vec![L::PROBE_FIXED[0]; w]; out_regs.len()];
        let mut native_rows = vm_rows.clone();
        {
            let mut vm_outs: Vec<&mut [L]> = vm_rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            if vm.run_chunk(0, &refs, out_regs, &mut vm_outs).is_err() {
                return false;
            }
            let mut native_outs: Vec<&mut [L]> =
                native_rows.iter_mut().map(|r| r.as_mut_slice()).collect();
            nf.run(&refs, &mut native_outs, w);
        }
        for (vr, nr) in vm_rows.iter().zip(&native_rows) {
            if vr.iter().zip(nr).any(|(a, b)| a.bits() != b.bits()) {
                return false;
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Public tier entry points
// ---------------------------------------------------------------------------

fn refuse(key: Key) {
    REFUSED.fetch_add(1, Ordering::Relaxed);
    cache().lock().unwrap().insert(key, None);
}

/// Fetch (compiling on first use) the native monomorphization of a
/// program over lane type `L` that writes one output row per `out_regs`
/// entry. A single-output invoke names [`CompiledFunc::ret_reg`]; fused
/// trace groups name every harvested register. Bool kernels ride the
/// `i64` lane as 0/1.
///
/// Returns `None` — and the caller stays on the VM — when the tier is
/// pinned off (`HPC_KERNEL_TIER=vm`), no C compiler exists, the body
/// falls outside the emitter's class, a parameter or output register is
/// outside what `L` can hold, the compile fails, or the bitwise parity
/// probe fails. Compile and probe failures are cached as permanent
/// refusals.
pub fn native<L: Lane>(program: &Program, out_regs: &[(RegFile, Reg)]) -> Option<NativeFn<L>> {
    if vm_forced() || cmodule::system_cc().is_none() {
        return None;
    }
    if !native_compilable(program) {
        return None;
    }
    let f = &program.funcs[0];
    if f.params.iter().any(|&(file, _)| file != L::FILE) {
        return None;
    }
    let readable = |&(file, r): &(RegFile, Reg)| {
        L::reads(file) && (r as usize) < f.reg_counts[usize::from(file == RegFile::I)]
    };
    if out_regs.is_empty() || !out_regs.iter().all(readable) {
        return None;
    }
    let hash = program_hash(program);
    let key = Key {
        program_hash: hash,
        lane: L::FILE,
        out_regs: out_regs.to_vec(),
    };
    let publish = |addr: usize| NativeFn {
        // SAFETY: `addr` is a symbol this module emitted with exactly
        // this signature for this key's lane type.
        f: unsafe {
            std::mem::transmute::<usize, unsafe extern "C" fn(*const *const L, *const *mut L, usize)>(
                addr,
            )
        },
        n_in: f.params.len(),
        n_out: out_regs.len(),
    };
    if let Some(entry) = cache().lock().unwrap().get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return entry.map(publish);
    }
    let symbol = mangle(&f.name, L::FILE, hash, out_regs.len());
    let Some(c_src) = emit_c(f, &symbol, L::FILE, out_regs) else {
        refuse(key);
        return None;
    };
    let Ok(addr) = cmodule::compile_and_load(&c_src, &symbol) else {
        refuse(key);
        return None;
    };
    let nf = publish(addr);
    if !probe(program, nf, out_regs, hash) {
        PROBE_FAILED.fetch_add(1, Ordering::Relaxed);
        refuse(key);
        return None;
    }
    COMPILED.fetch_add(1, Ordering::Relaxed);
    cache().lock().unwrap().insert(key, Some(addr));
    Some(nf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    fn f64_program(instrs: Vec<Instr>, arity: usize, n_f: usize, n_i: usize) -> Program {
        Program {
            funcs: vec![CompiledFunc {
                name: "probe".into(),
                params: (0..arity).map(|k| (RegFile::F, k as Reg)).collect(),
                param_types: vec![Type::Float; arity],
                ret: Type::Float,
                reg_counts: [n_f, n_i, 0, 0],
                instrs,
            }],
            externs: Vec::new(),
        }
    }

    #[test]
    fn straight_line_bodies_are_compilable() {
        let p = f64_program(
            vec![Instr::MulF(1, 0, 0), Instr::Ret(Some((RegFile::F, 1)))],
            1,
            2,
            0,
        );
        assert!(native_compilable(&p));
    }

    #[test]
    fn loops_and_arrays_are_refused() {
        let p = f64_program(
            vec![Instr::Jump(0), Instr::Ret(Some((RegFile::F, 0)))],
            1,
            1,
            0,
        );
        assert!(!native_compilable(&p));
        let q = Program {
            funcs: vec![CompiledFunc {
                name: "arr".into(),
                params: vec![(RegFile::AF, 0)],
                param_types: vec![Type::ArrF],
                ret: Type::ArrF,
                reg_counts: [0, 0, 1, 0],
                instrs: vec![Instr::Ret(Some((RegFile::AF, 0)))],
            }],
            externs: Vec::new(),
        };
        assert!(!native_compilable(&q));
    }

    #[test]
    fn mangling_is_c_safe_and_lane_tagged() {
        let s = mangle("weird name!", RegFile::F, 0xABCD, 1);
        assert!(s.starts_with("weird_name_$f64x1$"));
        let m = mangle("stencil", RegFile::I, 1, 2);
        assert!(m.contains("$i64x2$"));
    }

    fn bits<L: Lane>(v: &[L]) -> Vec<u64> {
        v.iter().map(|x| x.bits()).collect()
    }

    #[test]
    fn native_matches_vm_bitwise_on_a_nontrivial_body() {
        let _g = crate::test_lock();
        if !native_available() {
            return; // bare machine: VM-only fallback
        }
        // f1 = x*x; f2 = sin(f1); f3 = f2 / x; i0 = (f3 < x); f4 = f3^3
        let p = f64_program(
            vec![
                Instr::MulF(1, 0, 0),
                Instr::Math1(MathFn::Sin, 2, 1),
                Instr::DivF(3, 2, 0),
                Instr::CmpF(Cmp::Lt, 0, 3, 0),
                Instr::PowIC(4, 3, 3),
                Instr::AddF(5, 4, 3),
                Instr::Ret(Some((RegFile::F, 5))),
            ],
            1,
            6,
            1,
        );
        // the return row, an intermediate row, and a widened integer row
        let regs = [(RegFile::F, 5), (RegFile::F, 2), (RegFile::I, 0)];
        let before = stats();
        let nf = native::<f64>(&p, &regs).expect("body compiles and passes the probe");
        assert_eq!(stats().compiled, before.compiled + 1);
        // the probe already checked widths 1..=8 and 256; spot-check again
        let xs: Vec<f64> = (0..37).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut native_rows = vec![vec![0.0; xs.len()]; 3];
        let mut vm_rows = native_rows.clone();
        {
            let mut outs: Vec<&mut [f64]> = native_rows.iter_mut().map(|r| &mut r[..]).collect();
            nf.run(&[&xs], &mut outs, xs.len());
            let mut outs: Vec<&mut [f64]> = vm_rows.iter_mut().map(|r| &mut r[..]).collect();
            Vm::new(&p)
                .run_chunk(0, &[&xs[..]], &regs, &mut outs)
                .unwrap();
        }
        for (v, n) in vm_rows.iter().zip(&native_rows) {
            assert_eq!(bits(v), bits(n));
        }
        // second fetch is a cache hit, not a recompile
        let hits = stats().cache_hits;
        let _ = native::<f64>(&p, &regs).unwrap();
        assert_eq!(stats().cache_hits, hits + 1);
        assert_eq!(stats().compiled, before.compiled + 1);
    }

    #[test]
    fn i64_native_matches_vm() {
        let _g = crate::test_lock();
        if !native_available() {
            return;
        }
        // wrapping mul + abs + min: i1 = x*x; i2 = |y - i1|; ret min(i2, x)
        let p = Program {
            funcs: vec![CompiledFunc {
                name: "imix".into(),
                params: vec![(RegFile::I, 0), (RegFile::I, 1)],
                param_types: vec![Type::Int; 2],
                ret: Type::Int,
                reg_counts: [0, 5, 0, 0],
                instrs: vec![
                    Instr::MulI(2, 0, 0),
                    Instr::SubI(3, 1, 2),
                    Instr::AbsI(3, 3),
                    Instr::MinI(4, 3, 0),
                    Instr::Ret(Some((RegFile::I, 4))),
                ],
            }],
            externs: Vec::new(),
        };
        let ret = [p.funcs[0].ret_reg().unwrap()];
        let nf = native::<i64>(&p, &ret).expect("i64 body compiles");
        let xs: Vec<i64> = (-20..20).collect();
        let ys: Vec<i64> = (0..40).map(|i| i * 7 - 100).collect();
        let mut native_out = vec![0i64; xs.len()];
        nf.run(&[&xs, &ys], &mut [&mut native_out[..]], xs.len());
        let mut vm_out = vec![0i64; xs.len()];
        Vm::new(&p)
            .run_chunk(0, &[&xs[..], &ys[..]], &ret, &mut [&mut vm_out[..]])
            .unwrap();
        assert_eq!(vm_out, native_out);
        // an integer lane cannot harvest a float register
        assert!(native::<i64>(&p, &[(RegFile::F, 0)]).is_none());
    }

    #[test]
    fn every_opcode_class_arms_under_the_link_line() {
        let _g = crate::test_lock();
        if !native_available() {
            return;
        }
        // The object links no C runtime, so a symbol the emitter calls and
        // libm does not export would fail at dlopen and leave the body on
        // the VM without a word. Each class must compile, load and pass
        // the probe: one body per libm function, i64 lanes, `sl_f2i`,
        // `sl_powi` and a compare/select body.
        let arm = |what: &str, p: &Program, out: (RegFile, Reg)| {
            let before = stats();
            let armed = if p.funcs[0].params[0].0 == RegFile::F {
                native::<f64>(p, &[out]).is_some()
            } else {
                native::<i64>(p, &[out]).is_some()
            };
            let after = stats();
            assert!(armed, "{what} stayed on the VM");
            assert_eq!(
                (after.compiled, after.refused, after.probe_failed),
                (before.compiled + 1, before.refused, before.probe_failed),
                "{what}"
            );
        };
        let ret = |file, r| Instr::Ret(Some((file, r)));
        use MathFn::*;
        for m in [Sqrt, Sin, Cos, Tan, Exp, Log, Floor, Ceil, Abs] {
            let p = f64_program(vec![Instr::Math1(m, 1, 0), ret(RegFile::F, 1)], 1, 2, 0);
            arm(math1_fn(m), &p, (RegFile::F, 1));
        }
        for (what, ins) in [
            ("pow", Instr::PowF(2, 0, 1)),
            ("fmod", Instr::RemF(2, 0, 1)),
            ("min select", Instr::MinF(2, 0, 1)),
            ("max select", Instr::MaxF(2, 0, 1)),
            ("hypot", Instr::Math2(Math2Fn::Hypot, 2, 0, 1)),
            ("atan2", Instr::Math2(Math2Fn::Atan2, 2, 0, 1)),
            ("sl_powi", Instr::PowIC(2, 0, 7)),
        ] {
            let p = f64_program(vec![ins, ret(RegFile::F, 2)], 2, 3, 0);
            arm(what, &p, (RegFile::F, 2));
        }
        let f2i = f64_program(vec![Instr::FToI(0, 0), ret(RegFile::I, 0)], 1, 1, 1);
        arm("sl_f2i", &f2i, (RegFile::I, 0));
        let select = f64_program(
            vec![
                Instr::CmpF(Cmp::Lt, 0, 0, 1),
                Instr::CmpF(Cmp::Ge, 1, 1, 0),
                Instr::OrI(2, 0, 1),
                Instr::MaxI(3, 0, 2),
                ret(RegFile::I, 3),
            ],
            2,
            2,
            4,
        );
        arm("compare/select", &select, (RegFile::I, 3));
        let i64_lanes = Program {
            funcs: vec![CompiledFunc {
                name: "ilanes".into(),
                params: vec![(RegFile::I, 0), (RegFile::I, 1)],
                param_types: vec![Type::Int; 2],
                ret: Type::Int,
                reg_counts: [0, 5, 0, 0],
                instrs: vec![
                    Instr::MulI(2, 0, 1),
                    Instr::NegI(3, 2),
                    Instr::AddI(4, 3, 0),
                    ret(RegFile::I, 4),
                ],
            }],
            externs: Vec::new(),
        };
        arm("i64 lanes", &i64_lanes, (RegFile::I, 4));
        // the probe's fixed inputs divide by 0, and `i64::MIN` by -1
        let modi = Program {
            funcs: vec![CompiledFunc {
                name: "imod".into(),
                params: vec![(RegFile::I, 0), (RegFile::I, 1)],
                param_types: vec![Type::Int; 2],
                ret: Type::Int,
                reg_counts: [0, 3, 0, 0],
                instrs: vec![Instr::ModI(2, 0, 1), ret(RegFile::I, 2)],
            }],
            externs: Vec::new(),
        };
        arm("sl_modi", &modi, (RegFile::I, 2));
    }

    #[test]
    fn vm_forced_pins_the_tier_off() {
        let _g = crate::test_lock();
        let p = f64_program(
            vec![Instr::MulF(1, 0, 0), Instr::Ret(Some((RegFile::F, 1)))],
            1,
            2,
            0,
        );
        std::env::set_var("HPC_KERNEL_TIER", "vm");
        assert!(native::<f64>(&p, &[(RegFile::F, 1)]).is_none());
        assert!(!native_available());
        std::env::remove_var("HPC_KERNEL_TIER");
    }
}
