//! Typed register bytecode — the compilation target standing in for LLVM.
//!
//! Values live in four per-frame register files (`f64`, `i64`, float
//! arrays, int arrays); every opcode is monomorphic, so the VM executes
//! without boxing or dynamic dispatch. Booleans are `i64` 0/1.

use crate::types::Type;

/// Which register file a slot belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegFile {
    /// `f64` scalars.
    F,
    /// `i64` scalars (and bools).
    I,
    /// Float arrays.
    AF,
    /// Int arrays.
    AI,
}

impl RegFile {
    /// The file a [`Type`] is stored in.
    pub fn for_type(t: Type) -> RegFile {
        match t {
            Type::Float => RegFile::F,
            Type::Int | Type::Bool | Type::Unit => RegFile::I,
            Type::ArrF => RegFile::AF,
            Type::ArrI => RegFile::AI,
        }
    }
}

/// A register reference.
pub type Reg = u16;

/// Comparison kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// One-argument float math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    /// Square root.
    Sqrt,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Exponential.
    Exp,
    /// Natural log.
    Log,
    /// Absolute value.
    Abs,
    /// Floor.
    Floor,
    /// Ceiling.
    Ceil,
}

impl MathFn {
    /// Apply.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            MathFn::Sqrt => x.sqrt(),
            MathFn::Sin => x.sin(),
            MathFn::Cos => x.cos(),
            MathFn::Tan => x.tan(),
            MathFn::Exp => x.exp(),
            MathFn::Log => x.ln(),
            MathFn::Abs => x.abs(),
            MathFn::Floor => x.floor(),
            MathFn::Ceil => x.ceil(),
        }
    }
}

/// Two-argument float math builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Math2Fn {
    /// `hypot(x, y)` — sqrt(x² + y²) without intermediate overflow.
    Hypot,
    /// `atan2(y, x)` — four-quadrant arctangent.
    Atan2,
}

impl Math2Fn {
    /// Apply.
    pub fn apply(self, x: f64, y: f64) -> f64 {
        match self {
            Math2Fn::Hypot => x.hypot(y),
            Math2Fn::Atan2 => x.atan2(y),
        }
    }
}

/// Instructions. `dst` always comes first.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Load a float constant.
    ConstF(Reg, f64),
    /// Load an int constant.
    ConstI(Reg, i64),
    /// Copy float.
    MovF(Reg, Reg),
    /// Copy int.
    MovI(Reg, Reg),
    /// Clone a float array (`a = b`).
    MovArrF(Reg, Reg),
    /// Clone an int array.
    MovArrI(Reg, Reg),
    /// int → float conversion.
    IToF(Reg, Reg),
    /// float → int truncation.
    FToI(Reg, Reg),
    /// `dst = a + b` (floats).
    AddF(Reg, Reg, Reg),
    /// Float subtraction.
    SubF(Reg, Reg, Reg),
    /// Float multiplication.
    MulF(Reg, Reg, Reg),
    /// Float division.
    DivF(Reg, Reg, Reg),
    /// Python float modulo.
    ModF(Reg, Reg, Reg),
    /// Float power.
    PowF(Reg, Reg, Reg),
    /// Float negation.
    NegF(Reg, Reg),
    /// Int addition.
    AddI(Reg, Reg, Reg),
    /// Int subtraction.
    SubI(Reg, Reg, Reg),
    /// Int multiplication.
    MulI(Reg, Reg, Reg),
    /// Euclidean int floor-division (errors on zero).
    FloorDivI(Reg, Reg, Reg),
    /// Euclidean int modulo (wrapping: `i64::MIN % -1` is 0). A zero
    /// divisor is an error on the per-lane interpreter and 0 on the
    /// straight-line tiers, which only ever see divisors the lowering
    /// made nonzero: the pyish compiler guards its `%` with
    /// [`Instr::ErrIfFalse`], ODIN's lowering divides by `y + (y == 0)`.
    ModI(Reg, Reg, Reg),
    /// Int power (errors on negative exponent).
    PowI(Reg, Reg, Reg),
    /// Int negation.
    NegI(Reg, Reg),
    /// Float comparison → int 0/1.
    CmpF(Cmp, Reg, Reg, Reg),
    /// Int comparison → int 0/1.
    CmpI(Cmp, Reg, Reg, Reg),
    /// Logical and over 0/1 ints.
    AndI(Reg, Reg, Reg),
    /// Logical or.
    OrI(Reg, Reg, Reg),
    /// Logical not.
    NotI(Reg, Reg),
    /// Unconditional jump to instruction index.
    Jump(usize),
    /// Jump when the int register is zero.
    JumpIfFalse(Reg, usize),
    /// Length of a float array → int reg.
    LenF(Reg, Reg),
    /// Length of an int array.
    LenI(Reg, Reg),
    /// `dst = arr[idx]` float load (negative indices allowed).
    LoadF(Reg, Reg, Reg),
    /// Int array load.
    LoadI(Reg, Reg, Reg),
    /// `arr[idx] = src` float store.
    StoreF(Reg, Reg, Reg),
    /// Int array store.
    StoreI(Reg, Reg, Reg),
    /// Allocate a zero float array of the given (int reg) length.
    NewArrF(Reg, Reg),
    /// Allocate a zero int array.
    NewArrI(Reg, Reg),
    /// Float math builtin.
    Math1(MathFn, Reg, Reg),
    /// Two-argument float math builtin (`dst = f(a, b)`).
    Math2(Math2Fn, Reg, Reg, Reg),
    /// Float power with a small constant integer exponent, computed via
    /// `powi` — bitwise-matches the interpreted fused path's strength
    /// reduction for uniform integral exponents.
    PowIC(Reg, Reg, i32),
    /// IEEE float remainder (`dst = a % b`, Rust semantics — sign of the
    /// dividend), as opposed to [`Instr::ModF`]'s Python modulo.
    RemF(Reg, Reg, Reg),
    /// `dst = |a|` for ints.
    AbsI(Reg, Reg),
    /// Float min.
    MinF(Reg, Reg, Reg),
    /// Float max.
    MaxF(Reg, Reg, Reg),
    /// Int min.
    MinI(Reg, Reg, Reg),
    /// Int max.
    MaxI(Reg, Reg, Reg),
    /// `F[d] = if I[c] != 0 { F[a] } else { F[b] }`: moves bits, so tiers agree.
    SelectF(Reg, Reg, Reg, Reg),
    /// `I[d] = if I[c] != 0 { I[a] } else { I[b] }`.
    SelectI(Reg, Reg, Reg, Reg),
    /// Call a compiled function: move `args` in, run, move arrays back,
    /// store the return value (if any) into `dst`.
    Call {
        /// Index into the program's function table.
        func: usize,
        /// Destination register for the return value.
        dst: Option<(RegFile, Reg)>,
        /// Argument registers, in parameter order.
        args: Vec<(RegFile, Reg)>,
    },
    /// Return a value (or unit).
    Ret(Option<(RegFile, Reg)>),
    /// Raise a runtime error when the int register is zero (guards, e.g.
    /// non-positive range steps).
    ErrIfFalse(Reg, String),
    /// Call a foreign function from the program's extern table.
    CallExtern {
        /// Index into [`Program::externs`].
        ext: usize,
        /// Destination register.
        dst: (RegFile, Reg),
        /// Argument registers (files match the discovered signature).
        args: Vec<(RegFile, Reg)>,
    },
}

/// One bound foreign function (discovered via a `CModule` header).
#[derive(Debug, Clone)]
pub struct ExternDecl {
    /// Symbol name.
    pub name: String,
    /// Per-parameter register file (I for integral C params, F otherwise).
    pub params: Vec<RegFile>,
    /// Whether the return value is integral.
    pub ret_int: bool,
    /// The native implementation.
    pub f: crate::cmodule::NativeFn,
}

// Function pointers have no meaningful equality; two extern decls are
// "equal" when they bind the same symbol with the same signature.
impl PartialEq for ExternDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.ret_int == other.ret_int
    }
}

/// One compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunc {
    /// Source name.
    pub name: String,
    /// Concrete parameter registers (file + slot), in order.
    pub params: Vec<(RegFile, Reg)>,
    /// Parameter types (the signature this instance was compiled for).
    pub param_types: Vec<Type>,
    /// Return type.
    pub ret: Type,
    /// Register-file sizes: `[f, i, arrf, arri]`.
    pub reg_counts: [usize; 4],
    /// The code.
    pub instrs: Vec<Instr>,
}

impl CompiledFunc {
    /// The function's return register: that of its last scalar `Ret`
    /// (`compile_program` appends a `Ret(None)` epilogue after every
    /// body, so this is not always the final instruction). A
    /// single-output kernel invoke names this register as its output.
    pub fn ret_reg(&self) -> Option<(RegFile, Reg)> {
        self.instrs.iter().rev().find_map(|ins| match ins {
            Instr::Ret(Some((file @ (RegFile::F | RegFile::I), r))) => Some((*file, *r)),
            _ => None,
        })
    }

    /// The body of a straight-line kernel — every instruction before the
    /// final scalar `Ret` — or `None` when the function is anything else.
    /// This is the one definition of the class both fast tiers accept
    /// (the VM's register-vectorized chunk pass and the native C
    /// emitter): infallible scalar instructions over the `F`/`I` files,
    /// no jumps, calls or array accesses, ending in `Ret(Some(F | I))`.
    /// `compile_program`'s trailing `Ret(None)` epilogue is stripped
    /// first; with no jumps admitted it was unreachable.
    pub(crate) fn straight_line_body(&self) -> Option<&[Instr]> {
        let mut n = self.instrs.len();
        while n > 1 && matches!(self.instrs[n - 1], Instr::Ret(None)) {
            n -= 1;
        }
        let (last, body) = self.instrs[..n].split_last()?;
        let straight = matches!(last, Instr::Ret(Some((RegFile::F | RegFile::I, _))))
            && body.iter().all(|ins| {
                matches!(
                    ins,
                    Instr::ConstF(..)
                        | Instr::ConstI(..)
                        | Instr::MovF(..)
                        | Instr::MovI(..)
                        | Instr::IToF(..)
                        | Instr::FToI(..)
                        | Instr::AddF(..)
                        | Instr::SubF(..)
                        | Instr::MulF(..)
                        | Instr::DivF(..)
                        | Instr::ModF(..)
                        | Instr::PowF(..)
                        | Instr::NegF(..)
                        | Instr::AddI(..)
                        | Instr::SubI(..)
                        | Instr::MulI(..)
                        | Instr::NegI(..)
                        | Instr::ModI(..)
                        | Instr::CmpF(..)
                        | Instr::CmpI(..)
                        | Instr::AndI(..)
                        | Instr::OrI(..)
                        | Instr::NotI(..)
                        | Instr::Math1(..)
                        | Instr::Math2(..)
                        | Instr::PowIC(..)
                        | Instr::RemF(..)
                        | Instr::AbsI(..)
                        | Instr::MinF(..)
                        | Instr::MaxF(..)
                        | Instr::MinI(..)
                        | Instr::MaxI(..)
                        | Instr::SelectF(..)
                        | Instr::SelectI(..)
                )
            });
        straight.then_some(body)
    }
}

/// A compiled program: the entry function plus everything it calls,
/// monomorphized per concrete argument signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Function table (entry is index 0).
    pub funcs: Vec<CompiledFunc>,
    /// Foreign functions referenced by `CallExtern`.
    pub externs: Vec<ExternDecl>,
}

impl Program {
    /// Human-readable disassembly (used in docs and debugging).
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (fi, f) in self.funcs.iter().enumerate() {
            out.push_str(&format!(
                "fn #{fi} {}({:?}) -> {:?} regs={:?}\n",
                f.name, f.param_types, f.ret, f.reg_counts
            ));
            for (pc, ins) in f.instrs.iter().enumerate() {
                out.push_str(&format!("  {pc:4}: {ins:?}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regfile_mapping() {
        assert_eq!(RegFile::for_type(Type::Float), RegFile::F);
        assert_eq!(RegFile::for_type(Type::Int), RegFile::I);
        assert_eq!(RegFile::for_type(Type::Bool), RegFile::I);
        assert_eq!(RegFile::for_type(Type::ArrF), RegFile::AF);
        assert_eq!(RegFile::for_type(Type::ArrI), RegFile::AI);
    }

    #[test]
    fn mathfn_applies() {
        assert_eq!(MathFn::Sqrt.apply(9.0), 3.0);
        assert_eq!(MathFn::Abs.apply(-2.0), 2.0);
        assert_eq!(MathFn::Floor.apply(1.9), 1.0);
    }

    #[test]
    fn disassembly_mentions_functions() {
        let p = Program {
            funcs: vec![CompiledFunc {
                name: "f".into(),
                params: vec![],
                param_types: vec![],
                ret: Type::Unit,
                reg_counts: [0, 0, 0, 0],
                instrs: vec![Instr::Ret(None)],
            }],
            externs: Vec::new(),
        };
        let d = p.disassemble();
        assert!(d.contains("fn #0 f"));
        assert!(d.contains("Ret"));
    }
}
