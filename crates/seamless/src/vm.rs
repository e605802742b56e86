//! The unboxed register VM: what "compiled" means in this reproduction.
//!
//! A frame is four plain vectors; the dispatch loop is a single `match`
//! on monomorphic opcodes. No `Value` is touched between entry and exit,
//! which is where the order-of-magnitude win over the boxed interpreter
//! comes from (experiment E7).

use crate::bytecode::{Cmp, CompiledFunc, Instr, Program, Reg, RegFile};
use crate::export::CallOutput;
use crate::types::Type;
use crate::value::Value;
use crate::SeamlessError;
use std::cell::RefCell;

/// Executes compiled programs.
pub struct Vm<'p> {
    program: &'p Program,
    /// Lane-major register scratch for the vectorized chunk path, reused
    /// across [`Vm::run_chunk`] calls so a long array pays the
    /// allocation once.
    lanes: RefCell<Lanes>,
}

#[derive(Default)]
struct Lanes {
    f: Vec<f64>,
    i: Vec<i64>,
}

struct Frame {
    f: Vec<f64>,
    i: Vec<i64>,
    af: Vec<Vec<f64>>,
    ai: Vec<Vec<i64>>,
}

enum RawRet {
    Unit,
    F(f64),
    I(i64),
    AF(Vec<f64>),
    AI(Vec<i64>),
}

impl<'p> Vm<'p> {
    /// Wrap a program.
    pub fn new(program: &'p Program) -> Self {
        Vm {
            program,
            lanes: RefCell::new(Lanes::default()),
        }
    }

    /// Call the entry function (index 0) with boxed arguments; arrays are
    /// coerced per the compiled signature, mutated arrays come back in
    /// [`CallOutput::args`].
    pub fn call(&self, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        self.call_func(0, args)
    }

    /// Call any function in the table.
    fn call_func(&self, func: usize, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        let f = &self.program.funcs[func];
        if args.len() != f.params.len() {
            return Err(SeamlessError::Runtime(format!(
                "{} takes {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let mut frame = Frame {
            f: vec![0.0; f.reg_counts[0]],
            i: vec![0; f.reg_counts[1]],
            af: vec![Vec::new(); f.reg_counts[2]],
            ai: vec![Vec::new(); f.reg_counts[3]],
        };
        // coerce boxed args into registers per the *inferred* param types
        for (k, v) in args.into_iter().enumerate() {
            let (file, reg) = f.params[k];
            match file {
                RegFile::F => {
                    frame.f[reg as usize] = v.as_f64().ok_or_else(|| {
                        SeamlessError::Runtime(format!("argument {k} must be a number"))
                    })?;
                }
                RegFile::I => {
                    frame.i[reg as usize] = v.as_i64().ok_or_else(|| {
                        SeamlessError::Runtime(format!("argument {k} must be an integer"))
                    })?;
                }
                RegFile::AF => match v {
                    Value::ArrF(a) => frame.af[reg as usize] = a,
                    other => {
                        return Err(SeamlessError::Runtime(format!(
                            "argument {k} must be a float array, got {other:?}"
                        )))
                    }
                },
                RegFile::AI => match v {
                    Value::ArrI(a) => frame.ai[reg as usize] = a,
                    other => {
                        return Err(SeamlessError::Runtime(format!(
                            "argument {k} must be an int array, got {other:?}"
                        )))
                    }
                },
            }
        }
        let raw = self.exec(func, &mut frame)?;
        let ret = match (raw, f.ret) {
            (RawRet::Unit, _) => Value::Unit,
            (RawRet::F(v), _) => Value::Float(v),
            (RawRet::I(v), Type::Bool) => Value::Bool(v != 0),
            (RawRet::I(v), _) => Value::Int(v),
            (RawRet::AF(v), _) => Value::ArrF(v),
            (RawRet::AI(v), _) => Value::ArrI(v),
        };
        // hand mutated arrays back
        let out_args = f
            .params
            .iter()
            .map(|&(file, reg)| match file {
                RegFile::F => Value::Float(frame.f[reg as usize]),
                RegFile::I => Value::Int(frame.i[reg as usize]),
                RegFile::AF => Value::ArrF(std::mem::take(&mut frame.af[reg as usize])),
                RegFile::AI => Value::ArrI(std::mem::take(&mut frame.ai[reg as usize])),
            })
            .collect();
        Ok(CallOutput {
            ret,
            args: out_args,
        })
    }

    /// Unboxed elementwise chunk path, generic over the lane type: run
    /// function `func` once per lane, feeding `inputs[k][lane]` into the
    /// k-th parameter, then copy the register rows named by `out_regs`
    /// into `outs`. No `Value` is boxed anywhere. A fused multi-statement
    /// kernel names several registers and pays for its shared
    /// subexpressions once; a single-output caller names
    /// [`CompiledFunc::ret_reg`].
    ///
    /// Every parameter must live in `L::FILE`, every input slice must be
    /// at least as long as the output rows, and every output register
    /// must be a scalar `L` can hold (`f64` lanes widen `I` registers,
    /// `i64` lanes read only the `I` file).
    ///
    /// Straight-line bodies (`chunk_vectorizable`) run register-
    /// vectorized: each register is a lane-major row and every
    /// instruction one tight loop over the chunk. Anything else runs the
    /// interpreter per lane on a zeroed frame — exactly what the emitted
    /// C does — so a branchy body cannot leak state across lanes.
    pub fn run_chunk<L: Lane>(
        &self,
        func: usize,
        inputs: &[&[L]],
        out_regs: &[(RegFile, Reg)],
        outs: &mut [&mut [L]],
    ) -> Result<(), SeamlessError> {
        let f = &self.program.funcs[func];
        let bad = |what: String| Err(SeamlessError::Runtime(format!("run_chunk: {what}")));
        if inputs.len() != f.params.len() {
            return bad(format!(
                "{} takes {} arguments, got {} input streams",
                f.name,
                f.params.len(),
                inputs.len()
            ));
        }
        if out_regs.len() != outs.len() {
            return bad(format!(
                "{} output registers but {} output rows",
                out_regs.len(),
                outs.len()
            ));
        }
        let len = outs.first().map_or(0, |o| o.len());
        if outs.iter().any(|o| o.len() != len) {
            return bad("output rows differ in length".into());
        }
        for (k, &(file, _)) in f.params.iter().enumerate() {
            if file != L::FILE {
                return bad(format!(
                    "parameter {k} of {} is not a {:?}-file scalar",
                    f.name,
                    L::FILE
                ));
            }
            if inputs[k].len() < len {
                return bad(format!("input {k} shorter than the output rows"));
            }
        }
        for &(file, r) in out_regs {
            // `reads` admits only the two scalar files: F is count 0, I is 1
            let in_range =
                L::reads(file) && (r as usize) < f.reg_counts[usize::from(file == RegFile::I)];
            if !in_range {
                return bad(format!(
                    "output register {file:?}{r} of {} is not readable as a {:?}-file lane",
                    f.name,
                    L::FILE
                ));
            }
        }
        if len == 0 {
            return Ok(());
        }
        if let Some(body) = chunk_vectorizable(f) {
            // Row stride = len rounded away from a multiple of the
            // cache-line count: callers hand over power-of-two chunks
            // (4096 lanes), and exactly power-of-two row spacing lands
            // every register row on the same L1 sets, which thrashes once
            // an expression holds a few live rows. One extra line of
            // padding decorrelates them.
            let stride = len + 8;
            let mut lanes = self.lanes.borrow_mut();
            let Lanes { f: fl, i: il } = &mut *lanes;
            vector_pass(f, body, inputs, len, stride, fl, il);
            for (&(file, r), o) in out_regs.iter().zip(outs.iter_mut()) {
                L::read_row(fl, il, file, r as usize * stride, o);
            }
            return Ok(());
        }
        self.run_lanes(func, inputs, out_regs, outs)
    }

    /// The per-lane path of [`Vm::run_chunk`] (arguments already
    /// validated there): the frame interpreter once per lane, on a
    /// zeroed frame.
    fn run_lanes<L: Lane>(
        &self,
        func: usize,
        inputs: &[&[L]],
        out_regs: &[(RegFile, Reg)],
        outs: &mut [&mut [L]],
    ) -> Result<(), SeamlessError> {
        let f = &self.program.funcs[func];
        let ret = f.ret_reg();
        let mut frame = Frame {
            f: vec![0.0; f.reg_counts[0]],
            i: vec![0; f.reg_counts[1]],
            af: vec![Vec::new(); f.reg_counts[2]],
            ai: vec![Vec::new(); f.reg_counts[3]],
        };
        for lane in 0..outs.first().map_or(0, |o| o.len()) {
            // An empty file skips the call: a zero-length `fill` still
            // reaches libc's memset, which measured ~100 ns per lane.
            if !frame.f.is_empty() {
                frame.f.fill(0.0);
            }
            if !frame.i.is_empty() {
                frame.i.fill(0);
            }
            let own = L::own(&mut frame.f, &mut frame.i);
            for (k, &(_, reg)) in f.params.iter().enumerate() {
                own[reg as usize] = inputs[k][lane];
            }
            // An early `Ret` returns out of its own register; land the
            // value in the function's return register so naming that
            // register always reads the lane's return value.
            match (self.exec(func, &mut frame)?, ret) {
                (RawRet::F(v), Some((RegFile::F, r))) => frame.f[r as usize] = v,
                (RawRet::I(v), Some((RegFile::I, r))) => frame.i[r as usize] = v,
                _ => {}
            }
            for (&(file, r), o) in out_regs.iter().zip(outs.iter_mut()) {
                L::read_row(&frame.f, &frame.i, file, r as usize, &mut o[lane..=lane]);
            }
        }
        Ok(())
    }
}

/// A kernel lane type: the scalar streamed through [`Vm::run_chunk`] and
/// the native tier ([`crate::codegen::native`]). `f64` lanes bind their
/// parameters in the `F` register file; `i64` lanes (bools ride as 0/1)
/// bind the `I` file and never round-trip through floats.
pub trait Lane: Copy {
    /// Register file the lane's parameters live in.
    const FILE: RegFile;
    /// Fixed parity-probe inputs (zero, signs, small magnitudes).
    const PROBE_FIXED: [Self; 8];
    /// A seeded parity-probe input from 64 random bits.
    fn probe_random(bits: u64) -> Self;
    /// Exact bit pattern, for bitwise comparison.
    fn bits(self) -> u64;
    /// Whether a register of `file` can be read out as this lane.
    fn reads(file: RegFile) -> bool;
    /// This lane's own register file out of a frame's (or row buffer's)
    /// two scalar files.
    fn own<'a>(f: &'a mut [f64], i: &'a mut [i64]) -> &'a mut [Self];
    /// Copy `out.len()` values starting at `at` in register file `file`
    /// into `out`, converting to this lane ([`Lane::reads`] holds).
    fn read_row(f: &[f64], i: &[i64], file: RegFile, at: usize, out: &mut [Self]);
}

impl Lane for f64 {
    const FILE: RegFile = RegFile::F;
    /// Lanes 0, 3 and 6 pair entries 0–1, 3–4 and 6–7 across two
    /// parameters: both orders of a signed-zero tie are probed.
    const PROBE_FIXED: [f64; 8] = [-0.0, 0.0, -1.0, 0.0, -0.0, 3.25, -2.0, 0.5];
    fn probe_random(bits: u64) -> f64 {
        let x = (bits >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (x - 0.5) * 8.0
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn reads(file: RegFile) -> bool {
        matches!(file, RegFile::F | RegFile::I)
    }
    #[inline]
    fn own<'a>(f: &'a mut [f64], _i: &'a mut [i64]) -> &'a mut [f64] {
        f
    }
    #[inline]
    fn read_row(f: &[f64], i: &[i64], file: RegFile, at: usize, out: &mut [f64]) {
        match file {
            RegFile::F => out.copy_from_slice(&f[at..][..out.len()]),
            // integer registers widen to f64
            _ => {
                for (o, &x) in out.iter_mut().zip(&i[at..]) {
                    *o = x as f64;
                }
            }
        }
    }
}

impl Lane for i64 {
    const FILE: RegFile = RegFile::I;
    /// Paired as for `f64`: a zero divisor and `i64::MIN / -1`.
    const PROBE_FIXED: [i64; 8] = [7, 0, 1, i64::MIN, -1, -3, 5, -8];
    fn probe_random(bits: u64) -> i64 {
        (bits as i64) % 1000
    }
    fn bits(self) -> u64 {
        self as u64
    }
    fn reads(file: RegFile) -> bool {
        file == RegFile::I
    }
    #[inline]
    fn own<'a>(_f: &'a mut [f64], i: &'a mut [i64]) -> &'a mut [i64] {
        i
    }
    #[inline]
    fn read_row(_f: &[f64], i: &[i64], _file: RegFile, at: usize, out: &mut [i64]) {
        out.copy_from_slice(&i[at..][..out.len()]);
    }
}

/// Lane-major instruction pass of the vectorized chunk path: stages the
/// parameters into their register rows, then runs `body` — the
/// instructions [`chunk_vectorizable`] accepted, which guarantees
/// straight-line infallible instructions and, per instruction, a
/// destination register strictly above its same-file sources (so the row
/// splits below never alias). The caller reads whichever result rows it
/// needs out of `fl`/`il`.
fn vector_pass<L: Lane>(
    f: &CompiledFunc,
    body: &[Instr],
    inputs: &[&[L]],
    len: usize,
    stride: usize,
    fl: &mut Vec<f64>,
    il: &mut Vec<i64>,
) {
    {
        fl.resize(f.reg_counts[0] * stride, 0.0);
        il.resize(f.reg_counts[1] * stride, 0);
        let own = L::own(fl, il);
        for (k, &(_, reg)) in f.params.iter().enumerate() {
            own[reg as usize * stride..][..len].copy_from_slice(&inputs[k][..len]);
        }
        // d = op(a, b), all in the float file: d's row sits above both
        // source rows, so splitting at d's offset borrows them disjointly.
        macro_rules! ff2 {
            ($d:expr, $a:expr, $b:expr, $op:expr) => {{
                let (lo, hi) = fl.split_at_mut(*$d as usize * stride);
                let a = &lo[*$a as usize * stride..][..len];
                let b = &lo[*$b as usize * stride..][..len];
                for ((o, &x), &y) in hi[..len].iter_mut().zip(a).zip(b) {
                    *o = $op(x, y);
                }
            }};
        }
        macro_rules! ff1 {
            ($d:expr, $s:expr, $op:expr) => {{
                let (lo, hi) = fl.split_at_mut(*$d as usize * stride);
                let s = &lo[*$s as usize * stride..][..len];
                for (o, &x) in hi[..len].iter_mut().zip(s) {
                    *o = $op(x);
                }
            }};
        }
        macro_rules! ii2 {
            ($d:expr, $a:expr, $b:expr, $op:expr) => {{
                let (lo, hi) = il.split_at_mut(*$d as usize * stride);
                let a = &lo[*$a as usize * stride..][..len];
                let b = &lo[*$b as usize * stride..][..len];
                for ((o, &x), &y) in hi[..len].iter_mut().zip(a).zip(b) {
                    *o = $op(x, y);
                }
            }};
        }
        macro_rules! ii1 {
            ($d:expr, $s:expr, $op:expr) => {{
                let (lo, hi) = il.split_at_mut(*$d as usize * stride);
                let s = &lo[*$s as usize * stride..][..len];
                for (o, &x) in hi[..len].iter_mut().zip(s) {
                    *o = $op(x);
                }
            }};
        }
        for ins in body {
            match ins {
                Instr::ConstF(d, v) => fl[*d as usize * stride..][..len].fill(*v),
                Instr::ConstI(d, v) => il[*d as usize * stride..][..len].fill(*v),
                Instr::MovF(d, s) => ff1!(d, s, |x| x),
                Instr::MovI(d, s) => ii1!(d, s, |x| x),
                Instr::IToF(d, s) => {
                    let dst = &mut fl[*d as usize * stride..][..len];
                    let src = &il[*s as usize * stride..][..len];
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = x as f64;
                    }
                }
                Instr::FToI(d, s) => {
                    let dst = &mut il[*d as usize * stride..][..len];
                    let src = &fl[*s as usize * stride..][..len];
                    for (o, &x) in dst.iter_mut().zip(src) {
                        *o = x as i64;
                    }
                }
                Instr::AddF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x + y),
                Instr::SubF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x - y),
                Instr::MulF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x * y),
                Instr::DivF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x / y),
                Instr::ModF(d, a, b) => {
                    ff2!(d, a, b, |x: f64, y: f64| x - y * (x / y).floor())
                }
                Instr::PowF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x.powf(y)),
                Instr::NegF(d, s) => ff1!(d, s, |x: f64| -x),
                Instr::AddI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_add(y)),
                Instr::SubI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_sub(y)),
                Instr::MulI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.wrapping_mul(y)),
                Instr::NegI(d, s) => ii1!(d, s, |x: i64| x.wrapping_neg()),
                Instr::AbsI(d, s) => ii1!(d, s, |x: i64| x.wrapping_abs()),
                Instr::ModI(d, a, b) => {
                    ii2!(d, a, b, |x: i64, y: i64| x
                        .checked_rem_euclid(y)
                        .unwrap_or(0))
                }
                Instr::CmpF(c, d, a, b) => {
                    let dst = &mut il[*d as usize * stride..][..len];
                    let a = &fl[*a as usize * stride..][..len];
                    let b = &fl[*b as usize * stride..][..len];
                    let c = *c;
                    for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                        *o = i64::from(cmp_f(c, x, y));
                    }
                }
                Instr::CmpI(c, d, a, b) => {
                    let c = *c;
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(cmp_i(c, x, y)))
                }
                Instr::AndI(d, a, b) => {
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(x != 0 && y != 0))
                }
                Instr::OrI(d, a, b) => {
                    ii2!(d, a, b, |x: i64, y: i64| i64::from(x != 0 || y != 0))
                }
                Instr::NotI(d, s) => ii1!(d, s, |x: i64| i64::from(x == 0)),
                // one monomorphic loop per builtin, so the vectorizable
                // ones (sqrt, abs, floor, ceil) actually vectorize
                Instr::Math1(mf, d, s) => {
                    use crate::bytecode::MathFn::*;
                    match mf {
                        Sqrt => ff1!(d, s, |x: f64| x.sqrt()),
                        Sin => ff1!(d, s, |x: f64| x.sin()),
                        Cos => ff1!(d, s, |x: f64| x.cos()),
                        Tan => ff1!(d, s, |x: f64| x.tan()),
                        Exp => ff1!(d, s, |x: f64| x.exp()),
                        Log => ff1!(d, s, |x: f64| x.ln()),
                        Abs => ff1!(d, s, |x: f64| x.abs()),
                        Floor => ff1!(d, s, |x: f64| x.floor()),
                        Ceil => ff1!(d, s, |x: f64| x.ceil()),
                    }
                }
                Instr::Math2(mf, d, a, b) => {
                    use crate::bytecode::Math2Fn::*;
                    match mf {
                        Hypot => ff2!(d, a, b, |x: f64, y: f64| x.hypot(y)),
                        Atan2 => ff2!(d, a, b, |x: f64, y: f64| x.atan2(y)),
                    }
                }
                // `powi` with a runtime exponent is a per-lane libcall
                // (`__powidf2`); inline its exact binary-exponentiation
                // multiply order for small exponents so the loop stays
                // vectorizable AND bit-identical to `x.powi(e)`.
                Instr::PowIC(d, a, e) => match *e {
                    0 => ff1!(d, a, |_x: f64| 1.0),
                    1 => ff1!(d, a, |x: f64| x),
                    2 => ff1!(d, a, |x: f64| x * x),
                    3 => ff1!(d, a, |x: f64| x * (x * x)),
                    4 => ff1!(d, a, |x: f64| {
                        let t = x * x;
                        t * t
                    }),
                    -1 => ff1!(d, a, |x: f64| 1.0 / x),
                    -2 => ff1!(d, a, |x: f64| 1.0 / (x * x)),
                    e => ff1!(d, a, |x: f64| x.powi(e)),
                },
                Instr::RemF(d, a, b) => ff2!(d, a, b, |x: f64, y: f64| x % y),
                Instr::MinF(d, a, b) => ff2!(d, a, b, min_f),
                Instr::MaxF(d, a, b) => ff2!(d, a, b, max_f),
                Instr::MinI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.min(y)),
                Instr::MaxI(d, a, b) => ii2!(d, a, b, |x: i64, y: i64| x.max(y)),
                Instr::SelectF(d, c, a, b) => {
                    let (lo, hi) = fl.split_at_mut(*d as usize * stride);
                    let row = |r: &Reg| &lo[*r as usize * stride..][..len];
                    select_rows(&mut hi[..len], &il[*c as usize * stride..], row(a), row(b));
                }
                Instr::SelectI(d, c, a, b) => {
                    let (lo, hi) = il.split_at_mut(*d as usize * stride);
                    let row = |r: &Reg| &lo[*r as usize * stride..][..len];
                    select_rows(&mut hi[..len], row(c), row(a), row(b));
                }
                // chunk_vectorizable admits nothing else
                other => unreachable!("non-vectorizable instruction {other:?}"),
            }
        }
    }
}

impl<'p> Vm<'p> {
    fn exec(&self, func: usize, fr: &mut Frame) -> Result<RawRet, SeamlessError> {
        let code = &self.program.funcs[func].instrs;
        let mut pc = 0usize;
        macro_rules! idx {
            ($arr:expr, $i:expr) => {{
                let len = $arr.len() as i64;
                let raw = $i;
                let j = if raw < 0 { raw + len } else { raw };
                if j < 0 || j >= len {
                    return Err(SeamlessError::Runtime(format!(
                        "index {raw} out of range for length {len}"
                    )));
                }
                j as usize
            }};
        }
        loop {
            let ins = &code[pc];
            pc += 1;
            match ins {
                Instr::ConstF(d, v) => fr.f[*d as usize] = *v,
                Instr::ConstI(d, v) => fr.i[*d as usize] = *v,
                Instr::MovF(d, s) => fr.f[*d as usize] = fr.f[*s as usize],
                Instr::MovI(d, s) => fr.i[*d as usize] = fr.i[*s as usize],
                Instr::MovArrF(d, s) => {
                    let v = fr.af[*s as usize].clone();
                    fr.af[*d as usize] = v;
                }
                Instr::MovArrI(d, s) => {
                    let v = fr.ai[*s as usize].clone();
                    fr.ai[*d as usize] = v;
                }
                Instr::IToF(d, s) => fr.f[*d as usize] = fr.i[*s as usize] as f64,
                Instr::FToI(d, s) => fr.i[*d as usize] = fr.f[*s as usize] as i64,
                Instr::AddF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] + fr.f[*b as usize],
                Instr::SubF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] - fr.f[*b as usize],
                Instr::MulF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] * fr.f[*b as usize],
                Instr::DivF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] / fr.f[*b as usize],
                Instr::ModF(d, a, b) => {
                    let (x, y) = (fr.f[*a as usize], fr.f[*b as usize]);
                    fr.f[*d as usize] = x - y * (x / y).floor();
                }
                Instr::PowF(d, a, b) => {
                    fr.f[*d as usize] = fr.f[*a as usize].powf(fr.f[*b as usize])
                }
                Instr::NegF(d, s) => fr.f[*d as usize] = -fr.f[*s as usize],
                Instr::AddI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_add(fr.i[*b as usize])
                }
                Instr::SubI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_sub(fr.i[*b as usize])
                }
                Instr::MulI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_mul(fr.i[*b as usize])
                }
                Instr::FloorDivI(d, a, b) => {
                    let y = fr.i[*b as usize];
                    if y == 0 {
                        return Err(SeamlessError::Runtime("integer division by zero".into()));
                    }
                    fr.i[*d as usize] = fr.i[*a as usize].div_euclid(y);
                }
                Instr::ModI(d, a, b) => {
                    let y = fr.i[*b as usize];
                    if y == 0 {
                        return Err(SeamlessError::Runtime("integer modulo by zero".into()));
                    }
                    fr.i[*d as usize] = fr.i[*a as usize].wrapping_rem_euclid(y);
                }
                Instr::PowI(d, a, b) => {
                    let e = fr.i[*b as usize];
                    if e < 0 {
                        return Err(SeamlessError::Runtime(
                            "negative integer exponent (use a float base)".into(),
                        ));
                    }
                    fr.i[*d as usize] =
                        fr.i[*a as usize].wrapping_pow(e.min(u32::MAX as i64) as u32);
                }
                Instr::NegI(d, s) => fr.i[*d as usize] = fr.i[*s as usize].wrapping_neg(),
                Instr::CmpF(c, d, a, b) => {
                    let (x, y) = (fr.f[*a as usize], fr.f[*b as usize]);
                    fr.i[*d as usize] = i64::from(cmp_f(*c, x, y));
                }
                Instr::CmpI(c, d, a, b) => {
                    let (x, y) = (fr.i[*a as usize], fr.i[*b as usize]);
                    fr.i[*d as usize] = i64::from(cmp_i(*c, x, y));
                }
                Instr::AndI(d, a, b) => {
                    fr.i[*d as usize] = i64::from(fr.i[*a as usize] != 0 && fr.i[*b as usize] != 0)
                }
                Instr::OrI(d, a, b) => {
                    fr.i[*d as usize] = i64::from(fr.i[*a as usize] != 0 || fr.i[*b as usize] != 0)
                }
                Instr::NotI(d, s) => fr.i[*d as usize] = i64::from(fr.i[*s as usize] == 0),
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(c, t) => {
                    if fr.i[*c as usize] == 0 {
                        pc = *t;
                    }
                }
                Instr::LenF(d, a) => fr.i[*d as usize] = fr.af[*a as usize].len() as i64,
                Instr::LenI(d, a) => fr.i[*d as usize] = fr.ai[*a as usize].len() as i64,
                Instr::LoadF(d, a, i) => {
                    let arr = &fr.af[*a as usize];
                    let j = idx!(arr, fr.i[*i as usize]);
                    fr.f[*d as usize] = arr[j];
                }
                Instr::LoadI(d, a, i) => {
                    let arr = &fr.ai[*a as usize];
                    let j = idx!(arr, fr.i[*i as usize]);
                    fr.i[*d as usize] = arr[j];
                }
                Instr::StoreF(a, i, s) => {
                    let v = fr.f[*s as usize];
                    let raw = fr.i[*i as usize];
                    let arr = &mut fr.af[*a as usize];
                    let j = idx!(arr, raw);
                    arr[j] = v;
                }
                Instr::StoreI(a, i, s) => {
                    let v = fr.i[*s as usize];
                    let raw = fr.i[*i as usize];
                    let arr = &mut fr.ai[*a as usize];
                    let j = idx!(arr, raw);
                    arr[j] = v;
                }
                Instr::NewArrF(d, n) => {
                    let n = fr.i[*n as usize];
                    if n < 0 {
                        return Err(SeamlessError::Runtime("negative array length".into()));
                    }
                    fr.af[*d as usize] = vec![0.0; n as usize];
                }
                Instr::NewArrI(d, n) => {
                    let n = fr.i[*n as usize];
                    if n < 0 {
                        return Err(SeamlessError::Runtime("negative array length".into()));
                    }
                    fr.ai[*d as usize] = vec![0; n as usize];
                }
                Instr::Math1(f, d, s) => fr.f[*d as usize] = f.apply(fr.f[*s as usize]),
                Instr::Math2(f, d, a, b) => {
                    fr.f[*d as usize] = f.apply(fr.f[*a as usize], fr.f[*b as usize])
                }
                Instr::PowIC(d, a, e) => fr.f[*d as usize] = fr.f[*a as usize].powi(*e),
                Instr::RemF(d, a, b) => fr.f[*d as usize] = fr.f[*a as usize] % fr.f[*b as usize],
                Instr::AbsI(d, s) => fr.i[*d as usize] = fr.i[*s as usize].wrapping_abs(),
                Instr::MinF(d, a, b) => {
                    fr.f[*d as usize] = min_f(fr.f[*a as usize], fr.f[*b as usize])
                }
                Instr::MaxF(d, a, b) => {
                    fr.f[*d as usize] = max_f(fr.f[*a as usize], fr.f[*b as usize])
                }
                Instr::MinI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].min(fr.i[*b as usize])
                }
                Instr::MaxI(d, a, b) => {
                    fr.i[*d as usize] = fr.i[*a as usize].max(fr.i[*b as usize])
                }
                Instr::SelectF(d, c, a, b) => {
                    let picked = if fr.i[*c as usize] != 0 { a } else { b };
                    fr.f[*d as usize] = fr.f[*picked as usize];
                }
                Instr::SelectI(d, c, a, b) => {
                    let picked = if fr.i[*c as usize] != 0 { a } else { b };
                    fr.i[*d as usize] = fr.i[*picked as usize];
                }
                Instr::CallExtern { ext, dst, args } => {
                    let decl = &self.program.externs[*ext];
                    let mut raw = Vec::with_capacity(args.len());
                    for &(file, reg) in args {
                        raw.push(match file {
                            RegFile::F => fr.f[reg as usize],
                            RegFile::I => fr.i[reg as usize] as f64,
                            _ => {
                                return Err(SeamlessError::Runtime(format!(
                                    "cannot pass an array to extern {}",
                                    decl.name
                                )))
                            }
                        });
                    }
                    let out = (decl.f)(&raw);
                    match dst.0 {
                        RegFile::F => fr.f[dst.1 as usize] = out,
                        RegFile::I => fr.i[dst.1 as usize] = out as i64,
                        _ => unreachable!("externs return scalars"),
                    }
                }
                Instr::ErrIfFalse(c, msg) => {
                    if fr.i[*c as usize] == 0 {
                        return Err(SeamlessError::Runtime(msg.clone()));
                    }
                }
                Instr::Call { func, dst, args } => {
                    let callee = &self.program.funcs[*func];
                    let mut inner = Frame {
                        f: vec![0.0; callee.reg_counts[0]],
                        i: vec![0; callee.reg_counts[1]],
                        af: vec![Vec::new(); callee.reg_counts[2]],
                        ai: vec![Vec::new(); callee.reg_counts[3]],
                    };
                    // move arguments in (arrays moved, scalars copied)
                    for (k, &(file, reg)) in args.iter().enumerate() {
                        let (pfile, preg) = callee.params[k];
                        match (file, pfile) {
                            (RegFile::F, RegFile::F) => inner.f[preg as usize] = fr.f[reg as usize],
                            (RegFile::I, RegFile::I) => inner.i[preg as usize] = fr.i[reg as usize],
                            (RegFile::I, RegFile::F) => {
                                inner.f[preg as usize] = fr.i[reg as usize] as f64
                            }
                            (RegFile::AF, RegFile::AF) => {
                                inner.af[preg as usize] = std::mem::take(&mut fr.af[reg as usize])
                            }
                            (RegFile::AI, RegFile::AI) => {
                                inner.ai[preg as usize] = std::mem::take(&mut fr.ai[reg as usize])
                            }
                            other => {
                                return Err(SeamlessError::Runtime(format!(
                                    "calling convention mismatch {other:?}"
                                )))
                            }
                        }
                    }
                    let raw = self.exec(*func, &mut inner)?;
                    // move arrays back (mutations become visible)
                    for (k, &(file, reg)) in args.iter().enumerate() {
                        let (_, preg) = callee.params[k];
                        match file {
                            RegFile::AF => {
                                fr.af[reg as usize] = std::mem::take(&mut inner.af[preg as usize])
                            }
                            RegFile::AI => {
                                fr.ai[reg as usize] = std::mem::take(&mut inner.ai[preg as usize])
                            }
                            _ => {}
                        }
                    }
                    if let Some((dfile, dreg)) = dst {
                        match (raw, dfile) {
                            (RawRet::F(v), RegFile::F) => fr.f[*dreg as usize] = v,
                            (RawRet::I(v), RegFile::I) => fr.i[*dreg as usize] = v,
                            (RawRet::I(v), RegFile::F) => fr.f[*dreg as usize] = v as f64,
                            (RawRet::AF(v), RegFile::AF) => fr.af[*dreg as usize] = v,
                            (RawRet::AI(v), RegFile::AI) => fr.ai[*dreg as usize] = v,
                            (RawRet::Unit, _) => {
                                return Err(SeamlessError::Runtime(format!(
                                    "{} did not return a value",
                                    callee.name
                                )))
                            }
                            other => {
                                return Err(SeamlessError::Runtime(format!(
                                    "return convention mismatch {:?}",
                                    other.1
                                )))
                            }
                        }
                    }
                }
                Instr::Ret(r) => {
                    return Ok(match r {
                        None => RawRet::Unit,
                        Some((RegFile::F, reg)) => RawRet::F(fr.f[*reg as usize]),
                        Some((RegFile::I, reg)) => RawRet::I(fr.i[*reg as usize]),
                        Some((RegFile::AF, reg)) => {
                            RawRet::AF(std::mem::take(&mut fr.af[*reg as usize]))
                        }
                        Some((RegFile::AI, reg)) => {
                            RawRet::AI(std::mem::take(&mut fr.ai[*reg as usize]))
                        }
                    });
                }
            }
        }
    }
}

/// Accept a function for the register-vectorized chunk path and return
/// the instructions to run: a [`CompiledFunc::straight_line_body`] where
/// every destination register is strictly above its same-file source
/// registers (fresh-register codegen, which both the pyish compiler's
/// expression bodies and ODIN's expression lowering produce). The
/// ordering is what lets each instruction split the lane buffer at the
/// destination row and borrow its sources from below without aliasing.
fn chunk_vectorizable(f: &CompiledFunc) -> Option<&[Instr]> {
    let ordered = |ins: &Instr| match ins {
        Instr::MovF(d, s)
        | Instr::NegF(d, s)
        | Instr::Math1(_, d, s)
        | Instr::PowIC(d, s, _)
        | Instr::MovI(d, s)
        | Instr::NegI(d, s)
        | Instr::AbsI(d, s)
        | Instr::NotI(d, s) => d > s,
        Instr::AddF(d, a, b)
        | Instr::SubF(d, a, b)
        | Instr::MulF(d, a, b)
        | Instr::DivF(d, a, b)
        | Instr::ModF(d, a, b)
        | Instr::PowF(d, a, b)
        | Instr::RemF(d, a, b)
        | Instr::MinF(d, a, b)
        | Instr::MaxF(d, a, b)
        | Instr::Math2(_, d, a, b)
        | Instr::AddI(d, a, b)
        | Instr::SubI(d, a, b)
        | Instr::MulI(d, a, b)
        | Instr::ModI(d, a, b)
        | Instr::AndI(d, a, b)
        | Instr::OrI(d, a, b)
        | Instr::MinI(d, a, b)
        | Instr::MaxI(d, a, b)
        | Instr::CmpI(_, d, a, b)
        | Instr::SelectF(d, _, a, b) => d > a && d > b,
        Instr::SelectI(d, c, a, b) => d > c && d > a && d > b,
        // constants have no source; the rest cross files, and the two
        // register files never alias
        Instr::ConstF(..)
        | Instr::ConstI(..)
        | Instr::IToF(..)
        | Instr::FToI(..)
        | Instr::CmpF(..) => true,
        // straight-line, but nothing `vector_pass` has a loop for
        _ => false,
    };
    f.straight_line_body()
        .filter(|body| body.iter().all(ordered))
}

/// `o[k] = if c[k] != 0 { a[k] } else { b[k] }` over the row `o`.
fn select_rows<T: Copy>(o: &mut [T], c: &[i64], a: &[T], b: &[T]) {
    for (((o, &c), &x), &y) in o.iter_mut().zip(c).zip(a).zip(b) {
        *o = if c != 0 { x } else { y };
    }
}

/// `f64::max` with its rules spelled out: a NaN operand loses, and on a
/// tie — `-0.0` against `0.0` — the first operand wins. The native tier
/// emits the same expression; libm's `fmax` orders the zeros instead.
#[inline]
fn max_f(x: f64, y: f64) -> f64 {
    if x < y || x.is_nan() {
        y
    } else {
        x
    }
}

/// `f64::min`, spelled out like [`max_f`].
#[inline]
fn min_f(x: f64, y: f64) -> f64 {
    if y < x || x.is_nan() {
        y
    } else {
        x
    }
}

fn cmp_f(c: Cmp, x: f64, y: f64) -> bool {
    match c {
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
    }
}

fn cmp_i(c: Cmp, x: i64, y: i64) -> bool {
    match c {
        Cmp::Eq => x == y,
        Cmp::Ne => x != y,
        Cmp::Lt => x < y,
        Cmp::Le => x <= y,
        Cmp::Gt => x > y,
        Cmp::Ge => x >= y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_program;
    use crate::parser::parse_module;

    fn run(src: &str, f: &str, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        let types: Vec<Type> = args.iter().map(|a| a.type_of()).collect();
        let m = parse_module(src)?;
        let p = compile_program(&m, f, &types)?;
        Vm::new(&p).call(args)
    }

    #[test]
    fn vm_matches_interpreter_on_sum() {
        let src = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";
        let out = run(src, "sum", vec![Value::ArrF(vec![1.0, 2.0, 3.5])]).unwrap();
        assert_eq!(out.ret, Value::Float(6.5));
    }

    #[test]
    fn fib_recursion() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        let out = run(src, "fib", vec![Value::Int(15)]).unwrap();
        assert_eq!(out.ret, Value::Int(610));
    }

    #[test]
    fn array_mutation_comes_back() {
        let src = "
def axpy(y, x, a):
    for i in range(len(y)):
        y[i] = y[i] + a * x[i]
";
        let out = run(
            src,
            "axpy",
            vec![
                Value::ArrF(vec![1.0, 1.0]),
                Value::ArrF(vec![1.0, 2.0]),
                Value::Float(10.0),
            ],
        )
        .unwrap();
        assert_eq!(out.args[0], Value::ArrF(vec![11.0, 21.0]));
        // x untouched
        assert_eq!(out.args[1], Value::ArrF(vec![1.0, 2.0]));
    }

    #[test]
    fn cross_function_array_mutation() {
        let src = "
def fill(a, v):
    for i in range(len(a)):
        a[i] = v

def main(a):
    fill(a, 9.0)
    return a[0]
";
        let out = run(src, "main", vec![Value::ArrF(vec![0.0, 0.0])]).unwrap();
        assert_eq!(out.ret, Value::Float(9.0));
        assert_eq!(out.args[0], Value::ArrF(vec![9.0, 9.0]));
    }

    #[test]
    fn runtime_errors_surface() {
        let src = "def f(a):\n    return a[5]\n";
        let err = run(src, "f", vec![Value::ArrF(vec![1.0])]).unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
        let src2 = "def g(n):\n    return 1 // n\n";
        let err2 = run(src2, "g", vec![Value::Int(0)]).unwrap_err();
        assert!(matches!(err2, SeamlessError::Runtime(_)));
        let src3 =
            "def h(n):\n    t = 0\n    for i in range(0, 10, n):\n        t += 1\n    return t\n";
        let err3 = run(src3, "h", vec![Value::Int(0)]).unwrap_err();
        assert!(matches!(err3, SeamlessError::Runtime(_)));
    }

    #[test]
    fn bool_returns_are_boxed_as_bool() {
        let src = "def f(x):\n    return x > 1.5\n";
        let out = run(src, "f", vec![Value::Float(2.0)]).unwrap();
        assert_eq!(out.ret, Value::Bool(true));
    }

    #[test]
    fn zeros_builtin_returns_array() {
        let src = "
def make(n):
    a = zeros(n)
    for i in range(n):
        a[i] = float(i) * 0.5
    return a
";
        let out = run(src, "make", vec![Value::Int(4)]).unwrap();
        assert_eq!(out.ret, Value::ArrF(vec![0.0, 0.5, 1.0, 1.5]));
    }

    #[test]
    fn negative_indexing_in_vm() {
        let src = "def last(a):\n    return a[-1]\n";
        let out = run(src, "last", vec![Value::ArrF(vec![3.0, 7.0])]).unwrap();
        assert_eq!(out.ret, Value::Float(7.0));
    }

    #[test]
    fn run_chunk_matches_boxed_calls_on_a_branchy_body() {
        // Early returns leave their value in their own register; naming
        // the function's return register must still read every lane's
        // return value.
        let src = "
def f(x, y):
    if x > y:
        return x * 2.0
    return y - x
";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "f", &[Type::Float, Type::Float]).unwrap();
        let vm = Vm::new(&p);
        let ret = p.funcs[0].ret_reg().unwrap();
        let xs = [1.0, 4.0, -2.5, 0.0];
        let ys = [3.0, 1.0, -2.5, 7.25];
        let mut out = [0.0; 4];
        vm.run_chunk(0, &[&xs[..], &ys[..]], &[ret], &mut [&mut out[..]])
            .unwrap();
        for i in 0..4 {
            let boxed = vm
                .call(vec![Value::Float(xs[i]), Value::Float(ys[i])])
                .unwrap();
            assert_eq!(boxed.ret, Value::Float(out[i]));
        }
    }

    #[test]
    fn run_chunk_rejects_params_and_registers_outside_the_lane() {
        let src = "def g(a):\n    return a[0]\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "g", &[Type::ArrF]).unwrap();
        let err = Vm::new(&p)
            .run_chunk(0, &[&[1.0][..]], &[(RegFile::F, 0)], &mut [&mut [0.0][..]])
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
        // an i64 lane cannot read a float register
        let src = "def h(a):\n    return a * 0.5\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "h", &[Type::Int]).unwrap();
        let err = Vm::new(&p)
            .run_chunk(
                0,
                &[&[1i64][..]],
                &[(RegFile::F, 0)],
                &mut [&mut [0i64][..]],
            )
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
    }

    #[test]
    fn run_chunk_reads_intermediate_registers() {
        // Hand-built straight-line function: f2 = f0 + f1, f3 = f2 * f0,
        // i0 = f3 < f0. Reading {f2, f3, i0} out of one vectorized pass
        // must match what per-lane arithmetic says each register holds
        // (the integer row widened to 0.0/1.0).
        let func = CompiledFunc {
            name: "multi".into(),
            params: vec![(RegFile::F, 0), (RegFile::F, 1)],
            param_types: vec![Type::Float, Type::Float],
            ret: Type::Float,
            reg_counts: [4, 1, 0, 0],
            instrs: vec![
                Instr::AddF(2, 0, 1),
                Instr::MulF(3, 2, 0),
                Instr::CmpF(Cmp::Lt, 0, 3, 0),
                Instr::Ret(Some((RegFile::F, 3))),
            ],
        };
        let p = Program {
            funcs: vec![func],
            externs: vec![],
        };
        assert!(chunk_vectorizable(&p.funcs[0]).is_some());
        let vm = Vm::new(&p);
        let xs = [1.5, -2.0, 0.25, 7.0];
        let ys = [0.5, 3.0, -1.25, 2.0];
        let (mut a, mut b, mut c) = ([0.0; 4], [0.0; 4], [0.0; 4]);
        let regs = [(RegFile::F, 2), (RegFile::F, 3), (RegFile::I, 0)];
        vm.run_chunk(
            0,
            &[&xs[..], &ys[..]],
            &regs,
            &mut [&mut a[..], &mut b[..], &mut c[..]],
        )
        .unwrap();
        for i in 0..4 {
            let prod = (xs[i] + ys[i]) * xs[i];
            assert_eq!(a[i].to_bits(), (xs[i] + ys[i]).to_bits());
            assert_eq!(b[i].to_bits(), prod.to_bits());
            assert_eq!(c[i], f64::from(u8::from(prod < xs[i])));
        }
        // Out-of-range output register is a runtime error, not UB.
        let err = vm
            .run_chunk(
                0,
                &[&xs[..], &ys[..]],
                &[(RegFile::F, 9)],
                &mut [&mut a[..]],
            )
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
    }

    #[test]
    fn compiled_straight_line_source_takes_the_vectorized_pass() {
        // `compile_program` ends every body `[…, Ret(Some(r)), Ret(None)]`.
        // Before the epilogue strip moved into `straight_line_body`, only
        // the native tier looked past it and a kernel like this one,
        // pinned to the VM, ran the frame interpreter per lane.
        let src = "def e(x, y):\n    return (x * 2.0 + y) * (x - y * 0.5) + abs(x - y) * (x + 2.0) - x ** 2 * 0.125 + (y * y - x * 0.5) * (x * 1.3 + 0.1) + min(x, y) * 0.0625\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "e", &[Type::Float, Type::Float]).unwrap();
        let f = &p.funcs[0];
        assert!(matches!(f.instrs.last(), Some(Instr::Ret(None))));
        assert!(chunk_vectorizable(f).is_some(), "{}", p.disassemble());
        let vm = Vm::new(&p);
        let ret = [f.ret_reg().unwrap()];
        for len in (1..=8).chain([4097]) {
            let xs: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let ys: Vec<f64> = (0..len).map(|i| 1.5 - i as f64 * 0.011).collect();
            let (mut chunk, mut lanes) = (vec![0.0; len], vec![0.0; len]);
            vm.run_chunk(0, &[&xs[..], &ys[..]], &ret, &mut [&mut chunk[..]])
                .unwrap();
            vm.run_lanes(0, &[&xs[..], &ys[..]], &ret, &mut [&mut lanes[..]])
                .unwrap();
            for i in 0..len {
                assert_eq!(chunk[i].to_bits(), lanes[i].to_bits(), "len {len} lane {i}");
            }
        }
    }

    #[test]
    fn run_chunk_i64_lanes_stay_in_the_integer_file() {
        let src = "def f(a, b):\n    return a * a - b * 3 + min(a, b)\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "f", &[Type::Int, Type::Int]).unwrap();
        let vm = Vm::new(&p);
        let xs: Vec<i64> = (-4..5).collect();
        let ys: Vec<i64> = (0..9).map(|i| 7 - 2 * i).collect();
        let mut out = [0i64; 9];
        let ret = p.funcs[0].ret_reg().unwrap();
        vm.run_chunk(0, &[&xs[..], &ys[..]], &[ret], &mut [&mut out[..]])
            .unwrap();
        for i in 0..9 {
            assert_eq!(out[i], xs[i] * xs[i] - ys[i] * 3 + xs[i].min(ys[i]));
        }
    }

    #[test]
    fn integer_modulo_guards_zero_and_wraps_the_overflow_case() {
        // The compiled `%` keeps Python's error on a zero divisor, which
        // also keeps the body off the straight-line tiers.
        let src = "def m(a, b):\n    return a % b\n";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "m", &[Type::Int, Type::Int]).unwrap();
        assert!(chunk_vectorizable(&p.funcs[0]).is_none());
        let vm = Vm::new(&p);
        let err = vm.call(vec![Value::Int(7), Value::Int(0)]).unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
        let out = vm.call(vec![Value::Int(i64::MIN), Value::Int(-1)]).unwrap();
        assert_eq!(out.ret, Value::Int(0));
        // A bare `ModI` is straight-line: the vectorized pass yields 0 for
        // a zero divisor and the Euclidean remainder otherwise.
        let func = CompiledFunc {
            name: "bare".into(),
            params: vec![(RegFile::I, 0), (RegFile::I, 1)],
            param_types: vec![Type::Int; 2],
            ret: Type::Int,
            reg_counts: [0, 3, 0, 0],
            instrs: vec![Instr::ModI(2, 0, 1), Instr::Ret(Some((RegFile::I, 2)))],
        };
        let p = Program {
            funcs: vec![func],
            externs: vec![],
        };
        assert!(chunk_vectorizable(&p.funcs[0]).is_some());
        let xs = [7, -7, 7, i64::MIN, i64::MIN, 5];
        let ys = [3, 3, 0, -1, i64::MIN, i64::MIN];
        let mut out = [9i64; 6];
        Vm::new(&p)
            .run_chunk(
                0,
                &[&xs[..], &ys[..]],
                &[(RegFile::I, 2)],
                &mut [&mut out[..]],
            )
            .unwrap();
        assert_eq!(out, [1, 2, 0, 0, 0, 5]);
    }

    #[test]
    fn while_break_continue_match_interpreter() {
        let src = "
def f(n):
    total = 0
    i = 0
    while True:
        i = i + 1
        if i > n:
            break
        if i % 2 == 0:
            continue
        total = total + i
    return total
";
        let out = run(src, "f", vec![Value::Int(9)]).unwrap();
        assert_eq!(out.ret, Value::Int(25));
    }
}
