//! Wire codecs for compiled bytecode, so a [`Program`] can ship to ODIN
//! workers once at registration time (ODIN's kernel plane, DESIGN §8).
//!
//! Programs that reference foreign functions are **not** encodable:
//! [`ExternDecl`](crate::bytecode::ExternDecl) holds a native fn pointer
//! with no meaning in another address space. The registration path
//! rejects such programs before they reach this codec; encoding one
//! anyway is a caller bug and panics.

use comm::wire::{Cursor, Wire};
use comm::CommError;

use crate::bytecode::{Cmp, CompiledFunc, Instr, Math2Fn, MathFn, Program, Reg, RegFile};
use crate::types::Type;

macro_rules! wire_tag_enum {
    ($t:ty, $($tag:literal => $v:path),* $(,)?) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                let tag: u8 = match self {
                    $($v => $tag,)*
                };
                buf.push(tag);
            }
            fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
                match u8::decode(cur)? {
                    $($tag => Ok($v),)*
                    b => Err(CommError::Decode(format!(
                        concat!("invalid ", stringify!($t), " tag {}"),
                        b
                    ))),
                }
            }
        }
    };
}

wire_tag_enum!(RegFile, 0 => RegFile::F, 1 => RegFile::I, 2 => RegFile::AF, 3 => RegFile::AI);
wire_tag_enum!(Cmp, 0 => Cmp::Eq, 1 => Cmp::Ne, 2 => Cmp::Lt, 3 => Cmp::Le, 4 => Cmp::Gt, 5 => Cmp::Ge);
wire_tag_enum!(
    MathFn,
    0 => MathFn::Sqrt, 1 => MathFn::Sin, 2 => MathFn::Cos, 3 => MathFn::Tan,
    4 => MathFn::Exp, 5 => MathFn::Log, 6 => MathFn::Abs, 7 => MathFn::Floor,
    8 => MathFn::Ceil,
);
wire_tag_enum!(Math2Fn, 0 => Math2Fn::Hypot, 1 => Math2Fn::Atan2);
wire_tag_enum!(
    Type,
    0 => Type::Int, 1 => Type::Float, 2 => Type::Bool,
    3 => Type::ArrF, 4 => Type::ArrI, 5 => Type::Unit,
);

impl Wire for Instr {
    fn encode(&self, buf: &mut Vec<u8>) {
        macro_rules! put {
            ($tag:literal $(, $f:expr)*) => {{
                buf.push($tag);
                $($f.encode(buf);)*
            }};
        }
        match self {
            Instr::ConstF(d, v) => put!(0, d, v),
            Instr::ConstI(d, v) => put!(1, d, v),
            Instr::MovF(d, s) => put!(2, d, s),
            Instr::MovI(d, s) => put!(3, d, s),
            Instr::MovArrF(d, s) => put!(4, d, s),
            Instr::MovArrI(d, s) => put!(5, d, s),
            Instr::IToF(d, s) => put!(6, d, s),
            Instr::FToI(d, s) => put!(7, d, s),
            Instr::AddF(d, a, b) => put!(8, d, a, b),
            Instr::SubF(d, a, b) => put!(9, d, a, b),
            Instr::MulF(d, a, b) => put!(10, d, a, b),
            Instr::DivF(d, a, b) => put!(11, d, a, b),
            Instr::ModF(d, a, b) => put!(12, d, a, b),
            Instr::PowF(d, a, b) => put!(13, d, a, b),
            Instr::NegF(d, s) => put!(14, d, s),
            Instr::AddI(d, a, b) => put!(15, d, a, b),
            Instr::SubI(d, a, b) => put!(16, d, a, b),
            Instr::MulI(d, a, b) => put!(17, d, a, b),
            Instr::FloorDivI(d, a, b) => put!(18, d, a, b),
            Instr::ModI(d, a, b) => put!(19, d, a, b),
            Instr::PowI(d, a, b) => put!(20, d, a, b),
            Instr::NegI(d, s) => put!(21, d, s),
            Instr::CmpF(c, d, a, b) => put!(22, c, d, a, b),
            Instr::CmpI(c, d, a, b) => put!(23, c, d, a, b),
            Instr::AndI(d, a, b) => put!(24, d, a, b),
            Instr::OrI(d, a, b) => put!(25, d, a, b),
            Instr::NotI(d, s) => put!(26, d, s),
            Instr::Jump(t) => put!(27, t),
            Instr::JumpIfFalse(c, t) => put!(28, c, t),
            Instr::LenF(d, a) => put!(29, d, a),
            Instr::LenI(d, a) => put!(30, d, a),
            Instr::LoadF(d, a, i) => put!(31, d, a, i),
            Instr::LoadI(d, a, i) => put!(32, d, a, i),
            Instr::StoreF(a, i, s) => put!(33, a, i, s),
            Instr::StoreI(a, i, s) => put!(34, a, i, s),
            Instr::NewArrF(d, n) => put!(35, d, n),
            Instr::NewArrI(d, n) => put!(36, d, n),
            Instr::Math1(f, d, s) => put!(37, f, d, s),
            Instr::Math2(f, d, a, b) => put!(38, f, d, a, b),
            Instr::PowIC(d, a, e) => put!(39, d, a, e),
            Instr::RemF(d, a, b) => put!(40, d, a, b),
            Instr::AbsI(d, s) => put!(41, d, s),
            Instr::MinF(d, a, b) => put!(42, d, a, b),
            Instr::MaxF(d, a, b) => put!(43, d, a, b),
            Instr::MinI(d, a, b) => put!(44, d, a, b),
            Instr::MaxI(d, a, b) => put!(45, d, a, b),
            Instr::Call { func, dst, args } => put!(46, func, dst, args),
            Instr::Ret(r) => put!(47, r),
            Instr::ErrIfFalse(c, msg) => put!(48, c, msg),
            Instr::SelectF(d, c, a, b) => put!(49, d, c, a, b),
            Instr::SelectI(d, c, a, b) => put!(50, d, c, a, b),
            Instr::CallExtern { .. } => {
                panic!("CallExtern is not wire-encodable (native fn pointer)")
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        let tag = u8::decode(cur)?;
        macro_rules! get {
            ($v:path; $($t:ty),*) => {
                Ok($v($(<$t>::decode(cur)?),*))
            };
        }
        match tag {
            0 => get!(Instr::ConstF; Reg, f64),
            1 => get!(Instr::ConstI; Reg, i64),
            2 => get!(Instr::MovF; Reg, Reg),
            3 => get!(Instr::MovI; Reg, Reg),
            4 => get!(Instr::MovArrF; Reg, Reg),
            5 => get!(Instr::MovArrI; Reg, Reg),
            6 => get!(Instr::IToF; Reg, Reg),
            7 => get!(Instr::FToI; Reg, Reg),
            8 => get!(Instr::AddF; Reg, Reg, Reg),
            9 => get!(Instr::SubF; Reg, Reg, Reg),
            10 => get!(Instr::MulF; Reg, Reg, Reg),
            11 => get!(Instr::DivF; Reg, Reg, Reg),
            12 => get!(Instr::ModF; Reg, Reg, Reg),
            13 => get!(Instr::PowF; Reg, Reg, Reg),
            14 => get!(Instr::NegF; Reg, Reg),
            15 => get!(Instr::AddI; Reg, Reg, Reg),
            16 => get!(Instr::SubI; Reg, Reg, Reg),
            17 => get!(Instr::MulI; Reg, Reg, Reg),
            18 => get!(Instr::FloorDivI; Reg, Reg, Reg),
            19 => get!(Instr::ModI; Reg, Reg, Reg),
            20 => get!(Instr::PowI; Reg, Reg, Reg),
            21 => get!(Instr::NegI; Reg, Reg),
            22 => get!(Instr::CmpF; Cmp, Reg, Reg, Reg),
            23 => get!(Instr::CmpI; Cmp, Reg, Reg, Reg),
            24 => get!(Instr::AndI; Reg, Reg, Reg),
            25 => get!(Instr::OrI; Reg, Reg, Reg),
            26 => get!(Instr::NotI; Reg, Reg),
            27 => get!(Instr::Jump; usize),
            28 => get!(Instr::JumpIfFalse; Reg, usize),
            29 => get!(Instr::LenF; Reg, Reg),
            30 => get!(Instr::LenI; Reg, Reg),
            31 => get!(Instr::LoadF; Reg, Reg, Reg),
            32 => get!(Instr::LoadI; Reg, Reg, Reg),
            33 => get!(Instr::StoreF; Reg, Reg, Reg),
            34 => get!(Instr::StoreI; Reg, Reg, Reg),
            35 => get!(Instr::NewArrF; Reg, Reg),
            36 => get!(Instr::NewArrI; Reg, Reg),
            37 => get!(Instr::Math1; MathFn, Reg, Reg),
            38 => get!(Instr::Math2; Math2Fn, Reg, Reg, Reg),
            39 => get!(Instr::PowIC; Reg, Reg, i32),
            40 => get!(Instr::RemF; Reg, Reg, Reg),
            41 => get!(Instr::AbsI; Reg, Reg),
            42 => get!(Instr::MinF; Reg, Reg, Reg),
            43 => get!(Instr::MaxF; Reg, Reg, Reg),
            44 => get!(Instr::MinI; Reg, Reg, Reg),
            45 => get!(Instr::MaxI; Reg, Reg, Reg),
            46 => Ok(Instr::Call {
                func: usize::decode(cur)?,
                dst: Option::<(RegFile, Reg)>::decode(cur)?,
                args: Vec::<(RegFile, Reg)>::decode(cur)?,
            }),
            47 => Ok(Instr::Ret(Option::<(RegFile, Reg)>::decode(cur)?)),
            48 => Ok(Instr::ErrIfFalse(Reg::decode(cur)?, String::decode(cur)?)),
            49 => get!(Instr::SelectF; Reg, Reg, Reg, Reg),
            50 => get!(Instr::SelectI; Reg, Reg, Reg, Reg),
            b => Err(CommError::Decode(format!("invalid Instr tag {b}"))),
        }
    }
}

impl Wire for CompiledFunc {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.name.encode(buf);
        self.params.encode(buf);
        self.param_types.encode(buf);
        self.ret.encode(buf);
        for c in self.reg_counts {
            c.encode(buf);
        }
        self.instrs.encode(buf);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        let name = String::decode(cur)?;
        let params = Vec::<(RegFile, Reg)>::decode(cur)?;
        let param_types = Vec::<Type>::decode(cur)?;
        let ret = Type::decode(cur)?;
        let mut reg_counts = [0usize; 4];
        for c in &mut reg_counts {
            *c = usize::decode(cur)?;
        }
        let instrs = Vec::<Instr>::decode(cur)?;
        Ok(CompiledFunc {
            name,
            params,
            param_types,
            ret,
            reg_counts,
            instrs,
        })
    }
}

impl Wire for Program {
    fn encode(&self, buf: &mut Vec<u8>) {
        debug_assert!(
            self.externs.is_empty(),
            "programs with externs cannot ship over the wire"
        );
        self.funcs.encode(buf);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Self, CommError> {
        Ok(Program {
            funcs: Vec::<CompiledFunc>::decode(cur)?,
            externs: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use comm::wire::{decode_from_slice, encode_to_vec};

    use crate::compile::compile_program;
    use crate::parser::parse_module;
    use crate::types::Type;
    use crate::value::Value;
    use crate::vm::Vm;

    #[test]
    fn compiled_program_roundtrips_bitwise() {
        let src = "
def k(x, y):
    t = sqrt(x * x + y * y)
    if t > 1.0:
        return t % 3.0
    return floor(t) + x ** 2
";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "k", &[Type::Float, Type::Float]).unwrap();
        let bytes = encode_to_vec(&p);
        let q: crate::bytecode::Program = decode_from_slice(&bytes).unwrap();
        assert_eq!(p, q);
        // and the decoded program still runs identically
        let a = Vm::new(&p)
            .call(vec![Value::Float(1.25), Value::Float(-0.5)])
            .unwrap();
        let b = Vm::new(&q)
            .call(vec![Value::Float(1.25), Value::Float(-0.5)])
            .unwrap();
        assert_eq!(a.ret, b.ret);
    }

    #[test]
    fn select_opcodes_roundtrip() {
        use crate::bytecode::{CompiledFunc, Instr, Program, RegFile};
        let p = Program {
            funcs: vec![CompiledFunc {
                name: "sel".into(),
                params: vec![(RegFile::F, 0), (RegFile::F, 1)],
                param_types: vec![Type::Float; 2],
                ret: Type::Float,
                reg_counts: [3, 3, 0, 0],
                instrs: vec![
                    Instr::CmpF(crate::bytecode::Cmp::Ne, 0, 0, 1),
                    Instr::SelectI(2, 0, 0, 1),
                    Instr::SelectF(2, 2, 0, 1),
                    Instr::Ret(Some((RegFile::F, 2))),
                ],
            }],
            externs: Vec::new(),
        };
        let bytes = encode_to_vec(&p);
        assert_eq!(
            decode_from_slice::<crate::bytecode::Program>(&bytes).unwrap(),
            p
        );
    }

    #[test]
    fn recursive_program_roundtrips() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        let m = parse_module(src).unwrap();
        let p = compile_program(&m, "fib", &[Type::Int]).unwrap();
        let bytes = encode_to_vec(&p);
        let q: crate::bytecode::Program = decode_from_slice(&bytes).unwrap();
        assert_eq!(p, q);
    }
}
