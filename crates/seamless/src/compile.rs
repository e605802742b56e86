//! AST → typed bytecode compiler.
//!
//! Functions are monomorphized per concrete argument signature (the JIT
//! pattern: compile for the types actually seen). The optimizer consists
//! of AST constant folding ([`crate::ast::Expr::fold`]) plus strength
//! reduction of small constant integer powers into multiplies.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, Module, Stmt, UnOp};
use crate::bytecode::{
    Cmp, CompiledFunc, ExternDecl, Instr, Math2Fn, MathFn, Program, Reg, RegFile,
};
use crate::cmodule::CModule;
use crate::types::{
    binop_type, builtin_type, extern_types, infer_function_with_externs, FuncTypes, Type,
};
use crate::SeamlessError;

/// Compile `entry` (and everything it calls) for the given argument types.
pub fn compile_program(
    module: &Module,
    entry: &str,
    arg_types: &[Type],
) -> Result<Program, SeamlessError> {
    compile_program_with_externs(module, entry, arg_types, None)
}

/// As [`compile_program`], resolving otherwise-unknown calls through a
/// loaded foreign library (pyish code calling `libm` directly).
pub fn compile_program_with_externs(
    module: &Module,
    entry: &str,
    arg_types: &[Type],
    externs: Option<&CModule>,
) -> Result<Program, SeamlessError> {
    let mut pc = ProgramCompiler {
        module,
        lib: externs,
        funcs: Vec::new(),
        index: HashMap::new(),
        externs: Vec::new(),
        extern_index: HashMap::new(),
    };
    pc.ensure(entry, arg_types)?;
    Ok(Program {
        funcs: pc.funcs,
        externs: pc.externs,
    })
}

struct ProgramCompiler<'m> {
    module: &'m Module,
    lib: Option<&'m CModule>,
    funcs: Vec<CompiledFunc>,
    index: HashMap<(String, Vec<Type>), usize>,
    externs: Vec<ExternDecl>,
    extern_index: HashMap<String, usize>,
}

impl<'m> ProgramCompiler<'m> {
    /// Compile (or look up) a function instance; returns its table index.
    fn ensure(&mut self, name: &str, arg_types: &[Type]) -> Result<usize, SeamlessError> {
        let key = (name.to_string(), arg_types.to_vec());
        if let Some(&idx) = self.index.get(&key) {
            return Ok(idx);
        }
        let types = infer_function_with_externs(self.module, name, arg_types, self.lib)?;
        // Reserve the slot first so recursive calls resolve.
        let idx = self.funcs.len();
        self.index.insert(key, idx);
        self.funcs.push(CompiledFunc {
            name: name.to_string(),
            params: Vec::new(),
            param_types: arg_types.to_vec(),
            ret: types.ret,
            reg_counts: [0; 4],
            instrs: Vec::new(),
        });
        let func = self
            .module
            .function(name)
            .ok_or_else(|| SeamlessError::Type(format!("unknown function {name}")))?
            .clone();
        let compiled = FnCompiler::compile(self, &func, types, arg_types)?;
        self.funcs[idx] = compiled;
        Ok(idx)
    }
}

struct FnCompiler<'a, 'm> {
    prog: &'a mut ProgramCompiler<'m>,
    types: FuncTypes,
    slots: HashMap<String, (RegFile, Reg)>,
    counts: [usize; 4],
    instrs: Vec<Instr>,
    ret: Type,
    /// (continue-patch positions, break-patch positions) per nested loop
    loops: Vec<(Vec<usize>, Vec<usize>)>,
}

fn file_idx(f: RegFile) -> usize {
    match f {
        RegFile::F => 0,
        RegFile::I => 1,
        RegFile::AF => 2,
        RegFile::AI => 3,
    }
}

impl<'a, 'm> FnCompiler<'a, 'm> {
    fn compile(
        prog: &'a mut ProgramCompiler<'m>,
        func: &crate::ast::FuncDef,
        types: FuncTypes,
        arg_types: &[Type],
    ) -> Result<CompiledFunc, SeamlessError> {
        let mut c = FnCompiler {
            prog,
            ret: types.ret,
            types,
            slots: HashMap::new(),
            counts: [0; 4],
            instrs: Vec::new(),
            loops: Vec::new(),
        };
        // Parameters take the first slots of their files, in order.
        let mut params = Vec::new();
        for (pname, _) in &func.params {
            let t = c.types.vars[pname];
            let file = RegFile::for_type(t);
            let reg = c.alloc(file);
            c.slots.insert(pname.clone(), (file, reg));
            params.push((file, reg));
        }
        // Remaining variables, sorted for determinism.
        let mut names: Vec<String> = c.types.vars.keys().cloned().collect();
        names.sort();
        for name in names {
            if !c.slots.contains_key(name.as_str()) {
                let file = RegFile::for_type(c.types.vars[name.as_str()]);
                let reg = c.alloc(file);
                c.slots.insert(name, (file, reg));
            }
        }
        // Parameters annotated Float but called with Int arrive as ints in
        // an F slot? No: the caller coerces. Params use the *inferred*
        // (annotated) type; the VM entry coerces Value args.
        for stmt in &func.body {
            c.stmt(stmt)?;
        }
        c.instrs.push(Instr::Ret(None));
        Ok(CompiledFunc {
            name: func.name.clone(),
            params,
            param_types: arg_types.to_vec(),
            ret: c.ret,
            reg_counts: c.counts,
            instrs: c.instrs,
        })
    }

    fn alloc(&mut self, file: RegFile) -> Reg {
        let i = file_idx(file);
        let r = self.counts[i];
        self.counts[i] += 1;
        r as Reg
    }

    fn emit(&mut self, ins: Instr) {
        self.instrs.push(ins);
    }

    fn here(&self) -> usize {
        self.instrs.len()
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.instrs[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(_, t) => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    /// Coerce a compiled value to `want`, emitting a conversion if needed.
    fn coerce(
        &mut self,
        (t, file, reg): (Type, RegFile, Reg),
        want: Type,
    ) -> Result<(RegFile, Reg), SeamlessError> {
        if t == want || (RegFile::for_type(t) == RegFile::for_type(want) && want != Type::Float) {
            // Bool/Int share the I file; no conversion needed except to F.
            return Ok((file, reg));
        }
        match (t, want) {
            (Type::Int | Type::Bool, Type::Float) => {
                let dst = self.alloc(RegFile::F);
                self.emit(Instr::IToF(dst, reg));
                Ok((RegFile::F, dst))
            }
            (Type::Float, Type::Int) => {
                let dst = self.alloc(RegFile::I);
                self.emit(Instr::FToI(dst, reg));
                Ok((RegFile::I, dst))
            }
            _ => Err(SeamlessError::Type(format!(
                "cannot coerce {t:?} to {want:?}"
            ))),
        }
    }

    /// Truthiness of a value as an int 0/1 register.
    fn truthy(&mut self, (t, _file, reg): (Type, RegFile, Reg)) -> Result<Reg, SeamlessError> {
        match t {
            Type::Bool => Ok(reg),
            Type::Int => {
                let zero = self.alloc(RegFile::I);
                self.emit(Instr::ConstI(zero, 0));
                let dst = self.alloc(RegFile::I);
                self.emit(Instr::CmpI(Cmp::Ne, dst, reg, zero));
                Ok(dst)
            }
            Type::Float => {
                let zero = self.alloc(RegFile::F);
                self.emit(Instr::ConstF(zero, 0.0));
                let dst = self.alloc(RegFile::I);
                self.emit(Instr::CmpF(Cmp::Ne, dst, reg, zero));
                Ok(dst)
            }
            other => Err(SeamlessError::Type(format!(
                "{other:?} is not usable as a condition"
            ))),
        }
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), SeamlessError> {
        match stmt {
            Stmt::Assign { name, value, .. } => {
                let v = self.expr(&value.clone().fold())?;
                let var_t = self.types.vars[name.as_str()];
                let (file, reg) = self.slots[name.as_str()];
                match var_t {
                    Type::ArrF => {
                        let (_, src) = self.coerce(v, Type::ArrF)?;
                        if src != reg {
                            self.emit(Instr::MovArrF(reg, src));
                        }
                    }
                    Type::ArrI => {
                        let (_, src) = self.coerce(v, Type::ArrI)?;
                        if src != reg {
                            self.emit(Instr::MovArrI(reg, src));
                        }
                    }
                    _ => {
                        let (sfile, src) = self.coerce(v, var_t)?;
                        debug_assert_eq!(sfile, file);
                        if src != reg {
                            self.emit(match file {
                                RegFile::F => Instr::MovF(reg, src),
                                RegFile::I => Instr::MovI(reg, src),
                                _ => unreachable!(),
                            });
                        }
                    }
                }
                Ok(())
            }
            Stmt::AugAssign { name, op, value } => {
                let desugared = Stmt::Assign {
                    name: name.clone(),
                    ann: None,
                    value: Expr::Bin(
                        *op,
                        Box::new(Expr::Name(name.clone())),
                        Box::new(value.clone()),
                    ),
                };
                self.stmt(&desugared)
            }
            Stmt::AugAssignIndex {
                name,
                index,
                op,
                value,
            } => {
                let desugared = Stmt::AssignIndex {
                    name: name.clone(),
                    index: index.clone(),
                    value: Expr::Bin(
                        *op,
                        Box::new(Expr::Index(
                            Box::new(Expr::Name(name.clone())),
                            Box::new(index.clone()),
                        )),
                        Box::new(value.clone()),
                    ),
                };
                self.stmt(&desugared)
            }
            Stmt::AssignIndex { name, index, value } => {
                let arr_t = self.types.vars[name.as_str()];
                let (_, arr) = self.slots[name.as_str()];
                let iv = self.expr(&index.clone().fold())?;
                let (_, idx) = self.coerce(iv, Type::Int)?;
                let vv = self.expr(&value.clone().fold())?;
                match arr_t {
                    Type::ArrF => {
                        let (_, src) = self.coerce(vv, Type::Float)?;
                        self.emit(Instr::StoreF(arr, idx, src));
                    }
                    Type::ArrI => {
                        let (_, src) = self.coerce(vv, Type::Int)?;
                        self.emit(Instr::StoreI(arr, idx, src));
                    }
                    other => {
                        return Err(SeamlessError::Type(format!(
                            "cannot index-assign into {other:?}"
                        )))
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then, orelse } => {
                let c = self.expr(&cond.clone().fold())?;
                let creg = self.truthy(c)?;
                let jf = self.here();
                self.emit(Instr::JumpIfFalse(creg, 0));
                for s in then {
                    self.stmt(s)?;
                }
                if orelse.is_empty() {
                    let end = self.here();
                    self.patch_jump(jf, end);
                } else {
                    let jend = self.here();
                    self.emit(Instr::Jump(0));
                    let else_at = self.here();
                    self.patch_jump(jf, else_at);
                    for s in orelse {
                        self.stmt(s)?;
                    }
                    let end = self.here();
                    self.patch_jump(jend, end);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                let c = self.expr(&cond.clone().fold())?;
                let creg = self.truthy(c)?;
                let jf = self.here();
                self.emit(Instr::JumpIfFalse(creg, 0));
                self.loops.push((Vec::new(), Vec::new()));
                for s in body {
                    self.stmt(s)?;
                }
                self.emit(Instr::Jump(start));
                let end = self.here();
                self.patch_jump(jf, end);
                let (continues, breaks) = self.loops.pop().unwrap();
                for at in continues {
                    self.patch_jump(at, start);
                }
                for at in breaks {
                    self.patch_jump(at, end);
                }
                Ok(())
            }
            Stmt::ForRange {
                var,
                start,
                stop,
                step,
                body,
            } => {
                if self.types.vars[var.as_str()] != Type::Int {
                    return Err(SeamlessError::Type(format!(
                        "loop variable {var} must remain an integer"
                    )));
                }
                let (_, ivar) = self.slots[var.as_str()];
                let sv = self.expr(&start.clone().fold())?;
                let (_, sreg) = self.coerce(sv, Type::Int)?;
                self.emit(Instr::MovI(ivar, sreg));
                let tv = self.expr(&stop.clone().fold())?;
                let (_, t_tmp) = self.coerce(tv, Type::Int)?;
                let stop_reg = self.alloc(RegFile::I);
                self.emit(Instr::MovI(stop_reg, t_tmp));
                let pv = self.expr(&step.clone().fold())?;
                let (_, p_tmp) = self.coerce(pv, Type::Int)?;
                let step_reg = self.alloc(RegFile::I);
                self.emit(Instr::MovI(step_reg, p_tmp));
                // guard: step > 0
                let zero = self.alloc(RegFile::I);
                self.emit(Instr::ConstI(zero, 0));
                let ok = self.alloc(RegFile::I);
                self.emit(Instr::CmpI(Cmp::Gt, ok, step_reg, zero));
                self.emit(Instr::ErrIfFalse(ok, "range step must be positive".into()));
                // loop head
                let head = self.here();
                let c = self.alloc(RegFile::I);
                self.emit(Instr::CmpI(Cmp::Lt, c, ivar, stop_reg));
                let jf = self.here();
                self.emit(Instr::JumpIfFalse(c, 0));
                self.loops.push((Vec::new(), Vec::new()));
                for s in body {
                    self.stmt(s)?;
                }
                let incr = self.here();
                self.emit(Instr::AddI(ivar, ivar, step_reg));
                self.emit(Instr::Jump(head));
                let end = self.here();
                self.patch_jump(jf, end);
                let (continues, breaks) = self.loops.pop().unwrap();
                for at in continues {
                    self.patch_jump(at, incr);
                }
                for at in breaks {
                    self.patch_jump(at, end);
                }
                Ok(())
            }
            Stmt::Return(value) => {
                match value {
                    None => self.emit(Instr::Ret(None)),
                    Some(e) => {
                        let v = self.expr(&e.clone().fold())?;
                        let want = self.ret;
                        let (file, reg) = self.coerce(v, want)?;
                        self.emit(Instr::Ret(Some((file, reg))));
                    }
                }
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                let _ = self.expr(&e.clone().fold())?;
                Ok(())
            }
            Stmt::Pass => Ok(()),
            Stmt::Break => {
                let at = self.here();
                self.emit(Instr::Jump(0));
                self.loops
                    .last_mut()
                    .ok_or_else(|| SeamlessError::Type("break outside a loop".into()))?
                    .1
                    .push(at);
                Ok(())
            }
            Stmt::Continue => {
                let at = self.here();
                self.emit(Instr::Jump(0));
                self.loops
                    .last_mut()
                    .ok_or_else(|| SeamlessError::Type("continue outside a loop".into()))?
                    .0
                    .push(at);
                Ok(())
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<(Type, RegFile, Reg), SeamlessError> {
        match e {
            Expr::Int(v) => {
                let r = self.alloc(RegFile::I);
                self.emit(Instr::ConstI(r, *v));
                Ok((Type::Int, RegFile::I, r))
            }
            Expr::Float(v) => {
                let r = self.alloc(RegFile::F);
                self.emit(Instr::ConstF(r, *v));
                Ok((Type::Float, RegFile::F, r))
            }
            Expr::Bool(b) => {
                let r = self.alloc(RegFile::I);
                self.emit(Instr::ConstI(r, i64::from(*b)));
                Ok((Type::Bool, RegFile::I, r))
            }
            Expr::Name(n) => {
                let t = *self
                    .types
                    .vars
                    .get(n.as_str())
                    .ok_or_else(|| SeamlessError::Type(format!("undefined variable {n}")))?;
                let (file, reg) = self.slots[n.as_str()];
                Ok((t, file, reg))
            }
            Expr::Un(UnOp::Neg, a) => {
                let v = self.expr(a)?;
                match v.0 {
                    Type::Float => {
                        let dst = self.alloc(RegFile::F);
                        self.emit(Instr::NegF(dst, v.2));
                        Ok((Type::Float, RegFile::F, dst))
                    }
                    Type::Int | Type::Bool => {
                        let dst = self.alloc(RegFile::I);
                        self.emit(Instr::NegI(dst, v.2));
                        Ok((Type::Int, RegFile::I, dst))
                    }
                    other => Err(SeamlessError::Type(format!("cannot negate {other:?}"))),
                }
            }
            Expr::Un(UnOp::Not, a) => {
                let v = self.expr(a)?;
                let b = self.truthy(v)?;
                let dst = self.alloc(RegFile::I);
                self.emit(Instr::NotI(dst, b));
                Ok((Type::Bool, RegFile::I, dst))
            }
            Expr::Index(a, i) => {
                let av = self.expr(a)?;
                let iv = self.expr(i)?;
                let (_, idx) = self.coerce(iv, Type::Int)?;
                match av.0 {
                    Type::ArrF => {
                        let dst = self.alloc(RegFile::F);
                        self.emit(Instr::LoadF(dst, av.2, idx));
                        Ok((Type::Float, RegFile::F, dst))
                    }
                    Type::ArrI => {
                        let dst = self.alloc(RegFile::I);
                        self.emit(Instr::LoadI(dst, av.2, idx));
                        Ok((Type::Int, RegFile::I, dst))
                    }
                    other => Err(SeamlessError::Type(format!("cannot index {other:?}"))),
                }
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b),
            Expr::Call { name, args } => self.call(name, args),
        }
    }

    fn bin(
        &mut self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<(Type, RegFile, Reg), SeamlessError> {
        // strength reduction: x ** 2 / x ** 3 → multiplies
        if op == BinOp::Pow {
            if let Expr::Int(e @ (2 | 3)) = b {
                let base = self.expr(a)?;
                return self.small_pow(base, *e as u32);
            }
        }
        if matches!(op, BinOp::And | BinOp::Or) {
            let va = self.expr(a)?;
            let ba = self.truthy(va)?;
            let vb = self.expr(b)?;
            let bb = self.truthy(vb)?;
            let dst = self.alloc(RegFile::I);
            self.emit(match op {
                BinOp::And => Instr::AndI(dst, ba, bb),
                _ => Instr::OrI(dst, ba, bb),
            });
            return Ok((Type::Bool, RegFile::I, dst));
        }
        let va = self.expr(a)?;
        let vb = self.expr(b)?;
        let rt = binop_type(op, va.0, vb.0)?;
        if op.is_comparison() {
            let float_cmp = va.0 == Type::Float || vb.0 == Type::Float;
            let cmp = match op {
                BinOp::Eq => Cmp::Eq,
                BinOp::Ne => Cmp::Ne,
                BinOp::Lt => Cmp::Lt,
                BinOp::Le => Cmp::Le,
                BinOp::Gt => Cmp::Gt,
                BinOp::Ge => Cmp::Ge,
                _ => unreachable!(),
            };
            let dst = self.alloc(RegFile::I);
            if float_cmp {
                let (_, ra) = self.coerce(va, Type::Float)?;
                let (_, rb) = self.coerce(vb, Type::Float)?;
                self.emit(Instr::CmpF(cmp, dst, ra, rb));
            } else {
                self.emit(Instr::CmpI(cmp, dst, va.2, vb.2));
            }
            return Ok((Type::Bool, RegFile::I, dst));
        }
        match rt {
            Type::Float => {
                let (_, ra) = self.coerce(va, Type::Float)?;
                let (_, rb) = self.coerce(vb, Type::Float)?;
                let dst = self.alloc(RegFile::F);
                let ins = match op {
                    BinOp::Add => Instr::AddF(dst, ra, rb),
                    BinOp::Sub => Instr::SubF(dst, ra, rb),
                    BinOp::Mul => Instr::MulF(dst, ra, rb),
                    BinOp::Div => Instr::DivF(dst, ra, rb),
                    BinOp::Mod => Instr::ModF(dst, ra, rb),
                    BinOp::Pow => Instr::PowF(dst, ra, rb),
                    BinOp::FloorDiv => {
                        self.emit(Instr::DivF(dst, ra, rb));
                        let dst2 = self.alloc(RegFile::F);
                        self.emit(Instr::Math1(MathFn::Floor, dst2, dst));
                        return Ok((Type::Float, RegFile::F, dst2));
                    }
                    other => return Err(SeamlessError::Type(format!("bad float op {other:?}"))),
                };
                self.emit(ins);
                Ok((Type::Float, RegFile::F, dst))
            }
            Type::Int => {
                let ra = va.2;
                let rb = vb.2;
                let dst = self.alloc(RegFile::I);
                let ins = match op {
                    BinOp::Add => Instr::AddI(dst, ra, rb),
                    BinOp::Sub => Instr::SubI(dst, ra, rb),
                    BinOp::Mul => Instr::MulI(dst, ra, rb),
                    BinOp::FloorDiv => Instr::FloorDivI(dst, ra, rb),
                    BinOp::Mod => {
                        // Python raises on `x % 0`; the guard also keeps
                        // the body off the straight-line tiers, where
                        // `ModI` by zero yields 0.
                        let zero = self.alloc(RegFile::I);
                        self.emit(Instr::ConstI(zero, 0));
                        let ok = self.alloc(RegFile::I);
                        self.emit(Instr::CmpI(Cmp::Ne, ok, rb, zero));
                        self.emit(Instr::ErrIfFalse(ok, "integer modulo by zero".into()));
                        Instr::ModI(dst, ra, rb)
                    }
                    BinOp::Pow => Instr::PowI(dst, ra, rb),
                    other => return Err(SeamlessError::Type(format!("bad int op {other:?}"))),
                };
                self.emit(ins);
                Ok((Type::Int, RegFile::I, dst))
            }
            other => Err(SeamlessError::Type(format!(
                "binary op result type {other:?} unsupported"
            ))),
        }
    }

    fn small_pow(
        &mut self,
        base: (Type, RegFile, Reg),
        e: u32,
    ) -> Result<(Type, RegFile, Reg), SeamlessError> {
        match base.0 {
            Type::Float => {
                let mut acc = base.2;
                for _ in 1..e {
                    let dst = self.alloc(RegFile::F);
                    self.emit(Instr::MulF(dst, acc, base.2));
                    acc = dst;
                }
                Ok((Type::Float, RegFile::F, acc))
            }
            Type::Int | Type::Bool => {
                let mut acc = base.2;
                for _ in 1..e {
                    let dst = self.alloc(RegFile::I);
                    self.emit(Instr::MulI(dst, acc, base.2));
                    acc = dst;
                }
                Ok((Type::Int, RegFile::I, acc))
            }
            other => Err(SeamlessError::Type(format!(
                "cannot exponentiate {other:?}"
            ))),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<(Type, RegFile, Reg), SeamlessError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.expr(a)?);
        }
        let arg_types: Vec<Type> = vals.iter().map(|v| v.0).collect();
        if let Some(rt) = builtin_type(name, &arg_types)? {
            return self.builtin(name, vals, rt);
        }
        // foreign function through a loaded CModule (only when no user
        // function of the same name exists — locals shadow the library)
        if self.prog.module.function(name).is_none() {
            if let Some(lib) = self.prog.lib {
                if let Some(sig) = lib.signature(name) {
                    let (params, ret) = extern_types(sig);
                    let ext = match self.prog.extern_index.get(name) {
                        Some(&i) => i,
                        None => {
                            let f = lib.native(name).ok_or_else(|| {
                                SeamlessError::Ffi(format!("{name} declared but not in library"))
                            })?;
                            let i = self.prog.externs.len();
                            self.prog.externs.push(ExternDecl {
                                name: name.to_string(),
                                params: params.iter().map(|t| RegFile::for_type(*t)).collect(),
                                ret_int: ret == Type::Int,
                                f,
                            });
                            self.prog.extern_index.insert(name.to_string(), i);
                            i
                        }
                    };
                    // coerce args to the discovered parameter files
                    let mut regs = Vec::with_capacity(vals.len());
                    for (v, want) in vals.into_iter().zip(params) {
                        regs.push(self.coerce(v, want)?);
                    }
                    let dfile = RegFile::for_type(ret);
                    let dst = (dfile, self.alloc(dfile));
                    self.emit(Instr::CallExtern {
                        ext,
                        dst,
                        args: regs,
                    });
                    return Ok((ret, dst.0, dst.1));
                }
            }
        }
        // user function
        let idx = self.prog.ensure(name, &arg_types)?;
        let ret = self.prog.funcs[idx].ret;
        let call_args: Vec<(RegFile, Reg)> = vals.iter().map(|v| (v.1, v.2)).collect();
        let dst = if ret == Type::Unit {
            None
        } else {
            let file = RegFile::for_type(ret);
            Some((file, self.alloc(file)))
        };
        self.emit(Instr::Call {
            func: idx,
            dst,
            args: call_args,
        });
        match dst {
            None => Ok((Type::Unit, RegFile::I, 0)),
            Some((file, reg)) => Ok((ret, file, reg)),
        }
    }

    fn builtin(
        &mut self,
        name: &str,
        vals: Vec<(Type, RegFile, Reg)>,
        rt: Type,
    ) -> Result<(Type, RegFile, Reg), SeamlessError> {
        match name {
            "len" => {
                let dst = self.alloc(RegFile::I);
                match vals[0].0 {
                    Type::ArrF => self.emit(Instr::LenF(dst, vals[0].2)),
                    Type::ArrI => self.emit(Instr::LenI(dst, vals[0].2)),
                    _ => unreachable!("typed earlier"),
                }
                Ok((Type::Int, RegFile::I, dst))
            }
            "sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "floor" | "ceil" => {
                let f = match name {
                    "sqrt" => MathFn::Sqrt,
                    "sin" => MathFn::Sin,
                    "cos" => MathFn::Cos,
                    "tan" => MathFn::Tan,
                    "exp" => MathFn::Exp,
                    "floor" => MathFn::Floor,
                    "ceil" => MathFn::Ceil,
                    _ => MathFn::Log,
                };
                let (_, src) = self.coerce(vals[0], Type::Float)?;
                let dst = self.alloc(RegFile::F);
                self.emit(Instr::Math1(f, dst, src));
                Ok((Type::Float, RegFile::F, dst))
            }
            "hypot" | "atan2" => {
                let f = if name == "hypot" {
                    Math2Fn::Hypot
                } else {
                    Math2Fn::Atan2
                };
                let (_, ra) = self.coerce(vals[0], Type::Float)?;
                let (_, rb) = self.coerce(vals[1], Type::Float)?;
                let dst = self.alloc(RegFile::F);
                self.emit(Instr::Math2(f, dst, ra, rb));
                Ok((Type::Float, RegFile::F, dst))
            }
            "abs" => match vals[0].0 {
                Type::Float => {
                    let dst = self.alloc(RegFile::F);
                    self.emit(Instr::Math1(MathFn::Abs, dst, vals[0].2));
                    Ok((Type::Float, RegFile::F, dst))
                }
                _ => {
                    let dst = self.alloc(RegFile::I);
                    self.emit(Instr::AbsI(dst, vals[0].2));
                    Ok((Type::Int, RegFile::I, dst))
                }
            },
            "min" | "max" => {
                if rt == Type::Float {
                    let (_, ra) = self.coerce(vals[0], Type::Float)?;
                    let (_, rb) = self.coerce(vals[1], Type::Float)?;
                    let dst = self.alloc(RegFile::F);
                    self.emit(if name == "min" {
                        Instr::MinF(dst, ra, rb)
                    } else {
                        Instr::MaxF(dst, ra, rb)
                    });
                    Ok((Type::Float, RegFile::F, dst))
                } else {
                    let dst = self.alloc(RegFile::I);
                    self.emit(if name == "min" {
                        Instr::MinI(dst, vals[0].2, vals[1].2)
                    } else {
                        Instr::MaxI(dst, vals[0].2, vals[1].2)
                    });
                    Ok((rt, RegFile::I, dst))
                }
            }
            "float" => {
                let (file, reg) = self.coerce(vals[0], Type::Float)?;
                Ok((Type::Float, file, reg))
            }
            "int" => {
                let (file, reg) = self.coerce(vals[0], Type::Int)?;
                Ok((Type::Int, file, reg))
            }
            "zeros" => {
                let dst = self.alloc(RegFile::AF);
                self.emit(Instr::NewArrF(dst, vals[0].2));
                Ok((Type::ArrF, RegFile::AF, dst))
            }
            "izeros" => {
                let dst = self.alloc(RegFile::AI);
                self.emit(Instr::NewArrI(dst, vals[0].2));
                Ok((Type::ArrI, RegFile::AI, dst))
            }
            other => Err(SeamlessError::Type(format!("unknown builtin {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn compile(src: &str, f: &str, args: &[Type]) -> Program {
        let m = parse_module(src).unwrap();
        compile_program(&m, f, args).unwrap()
    }

    #[test]
    fn sum_compiles_with_typed_opcodes() {
        let src = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";
        let p = compile(src, "sum", &[Type::ArrF]);
        assert_eq!(p.funcs.len(), 1);
        let f = &p.funcs[0];
        assert_eq!(f.ret, Type::Float);
        // float adds and array loads, no boxed anything
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::AddF(..))));
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::LoadF(..))));
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::LenF(..))));
    }

    #[test]
    fn strength_reduction_of_small_powers() {
        let p = compile("def f(x: float):\n    return x ** 2\n", "f", &[Type::Float]);
        let f = &p.funcs[0];
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::MulF(..))));
        assert!(!f.instrs.iter().any(|i| matches!(i, Instr::PowF(..))));
    }

    #[test]
    fn constant_folding_reaches_codegen() {
        let p = compile("def f():\n    return 2 * 3 + 4\n", "f", &[]);
        let f = &p.funcs[0];
        // a single ConstI 10 then Ret
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::ConstI(_, 10))));
        assert!(!f.instrs.iter().any(|i| matches!(i, Instr::MulI(..))));
    }

    #[test]
    fn monomorphization_per_signature() {
        let src = "
def id2(x):
    return x

def main(a, b):
    return id2(a) + id2(b)
";
        let p = compile(src, "main", &[Type::Int, Type::Float]);
        // id2 compiled twice: once for Int, once for Float
        let ids: Vec<_> = p.funcs.iter().filter(|f| f.name == "id2").collect();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn recursive_function_compiles() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        let p = compile(src, "fib", &[Type::Int]);
        assert_eq!(p.funcs.len(), 1);
        assert!(p.funcs[0]
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Call { func: 0, .. })));
    }

    #[test]
    fn loops_emit_guards_and_jumps() {
        let src = "def f(n):\n    t = 0\n    for i in range(n):\n        t += i\n    return t\n";
        let p = compile(src, "f", &[Type::Int]);
        let f = &p.funcs[0];
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::ErrIfFalse(..))));
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::JumpIfFalse(..))));
        assert!(f.instrs.iter().any(|i| matches!(i, Instr::Jump(_))));
    }
}
