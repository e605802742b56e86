//! Type discovery (§IV-B: "use type discovery to type `res` as a floating
//! point variable and to type `i` as an integer type").
//!
//! Forward dataflow over the AST: parameter types come from annotations or
//! the JIT call site; assignments widen variable types along the numeric
//! ladder `Bool → Int → Float`; loops re-run until the environment is
//! stable.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, FuncDef, Module, Stmt, TypeAnn, UnOp};
use crate::SeamlessError;

/// Static types of pyish values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// Float array.
    ArrF,
    /// Integer array.
    ArrI,
    /// No value.
    Unit,
}

impl Type {
    /// From a source annotation.
    fn from_ann(a: TypeAnn) -> Type {
        match a {
            TypeAnn::Int => Type::Int,
            TypeAnn::Float => Type::Float,
            TypeAnn::Bool => Type::Bool,
            TypeAnn::ArrF => Type::ArrF,
            TypeAnn::ArrI => Type::ArrI,
        }
    }

    /// Least upper bound on the numeric ladder.
    pub fn join(self, other: Type) -> Result<Type, SeamlessError> {
        use Type::*;
        if self == other {
            return Ok(self);
        }
        let rank = |t: Type| match t {
            Bool => Some(0),
            Int => Some(1),
            Float => Some(2),
            _ => None,
        };
        match (rank(self), rank(other)) {
            (Some(a), Some(b)) => Ok(if a >= b { self } else { other }),
            _ => Err(SeamlessError::Type(format!(
                "incompatible types {self:?} and {other:?}"
            ))),
        }
    }

    /// Whether the type is a number (or bool, which coerces).
    fn is_numeric(self) -> bool {
        matches!(self, Type::Int | Type::Float | Type::Bool)
    }
}

/// Result of inferring one function under concrete argument types.
#[derive(Debug, Clone)]
pub struct FuncTypes {
    /// Every variable's (widened) type, parameters included.
    pub vars: HashMap<String, Type>,
    /// The return type.
    pub ret: Type,
}

struct Inferencer<'m> {
    module: &'m Module,
    externs: Option<&'m crate::cmodule::CModule>,
    /// (function, arg types) → return type; `None` while in progress.
    in_progress: HashMap<(String, Vec<Type>), Option<Type>>,
    cache: HashMap<(String, Vec<Type>), FuncTypes>,
}

/// Infer types for `fname` called with `arg_types`, checking the whole
/// reachable call graph. A foreign library's discovered signatures type
/// otherwise-unknown calls.
pub fn infer_function_with_externs(
    module: &Module,
    fname: &str,
    arg_types: &[Type],
    externs: Option<&crate::cmodule::CModule>,
) -> Result<FuncTypes, SeamlessError> {
    let mut inf = Inferencer {
        module,
        externs,
        in_progress: HashMap::new(),
        cache: HashMap::new(),
    };
    inf.infer(fname, arg_types)
}

/// Map a discovered C signature onto pyish types.
pub(crate) fn extern_types(sig: &crate::cmodule::CSignature) -> (Vec<Type>, Type) {
    use crate::cmodule::CType;
    let conv = |t: &CType| match t {
        CType::Double | CType::Float => Type::Float,
        CType::Int | CType::Long => Type::Int,
        CType::Void => Type::Unit,
    };
    (sig.params.iter().map(conv).collect(), conv(&sig.ret))
}

impl<'m> Inferencer<'m> {
    fn infer(&mut self, fname: &str, arg_types: &[Type]) -> Result<FuncTypes, SeamlessError> {
        let key = (fname.to_string(), arg_types.to_vec());
        if let Some(done) = self.cache.get(&key) {
            return Ok(done.clone());
        }
        let func = self
            .module
            .function(fname)
            .ok_or_else(|| SeamlessError::Type(format!("unknown function {fname}")))?;
        if func.params.len() != arg_types.len() {
            return Err(SeamlessError::Type(format!(
                "{fname} takes {} arguments, got {}",
                func.params.len(),
                arg_types.len()
            )));
        }
        self.in_progress.insert(key.clone(), None);
        let mut env: HashMap<String, Type> = HashMap::new();
        for ((pname, ann), &ty) in func.params.iter().zip(arg_types) {
            if let Some(a) = ann {
                let want = Type::from_ann(*a);
                // allow widening Int arg into Float annotation
                let got = ty.join(want)?;
                if got != want {
                    return Err(SeamlessError::Type(format!(
                        "parameter {pname} annotated {want:?} but called with {ty:?}"
                    )));
                }
                env.insert(pname.clone(), want);
            } else {
                env.insert(pname.clone(), ty);
            }
        }
        // Fixpoint over the body: assignments may widen (e.g. an Int
        // accumulator becomes Float inside a loop).
        let mut ret: Option<Type> = None;
        for round in 0..10 {
            let before = env.clone();
            let ret_before = ret;
            self.infer_block(func, &func.body, &mut env, &mut ret, &key)?;
            if env == before && ret == ret_before {
                break;
            }
            if round == 9 {
                return Err(SeamlessError::Type(format!(
                    "type inference for {fname} did not stabilize"
                )));
            }
        }
        let result = FuncTypes {
            vars: env,
            ret: ret.unwrap_or(Type::Unit),
        };
        self.in_progress.remove(&key);
        self.cache.insert(key, result.clone());
        Ok(result)
    }

    fn infer_block(
        &mut self,
        func: &FuncDef,
        block: &[Stmt],
        env: &mut HashMap<String, Type>,
        ret: &mut Option<Type>,
        key: &(String, Vec<Type>),
    ) -> Result<(), SeamlessError> {
        for stmt in block {
            self.infer_stmt(func, stmt, env, ret, key)?;
        }
        Ok(())
    }

    fn assign(env: &mut HashMap<String, Type>, name: &str, t: Type) -> Result<(), SeamlessError> {
        match env.get(name) {
            None => {
                env.insert(name.to_string(), t);
            }
            Some(&old) => {
                let joined = old.join(t).map_err(|_| {
                    SeamlessError::Type(format!(
                        "variable {name} changes type from {old:?} to {t:?}"
                    ))
                })?;
                env.insert(name.to_string(), joined);
            }
        }
        Ok(())
    }

    fn infer_stmt(
        &mut self,
        func: &FuncDef,
        stmt: &Stmt,
        env: &mut HashMap<String, Type>,
        ret: &mut Option<Type>,
        key: &(String, Vec<Type>),
    ) -> Result<(), SeamlessError> {
        match stmt {
            Stmt::Assign { name, ann, value } => {
                let mut t = self.infer_expr(value, env, key)?;
                if let Some(a) = ann {
                    let want = Type::from_ann(*a);
                    t = t.join(want)?;
                    if t != want {
                        return Err(SeamlessError::Type(format!(
                            "annotation on {name} is {want:?} but value is {t:?}"
                        )));
                    }
                }
                Self::assign(env, name, t)
            }
            Stmt::AugAssign { name, op, value } => {
                let cur = *env.get(name).ok_or_else(|| {
                    SeamlessError::Type(format!("augmented assignment to undefined {name}"))
                })?;
                let v = self.infer_expr(value, env, key)?;
                let t = binop_type(*op, cur, v)?;
                Self::assign(env, name, t)
            }
            Stmt::AssignIndex { name, index, value }
            | Stmt::AugAssignIndex {
                name, index, value, ..
            } => {
                let arr = *env.get(name).ok_or_else(|| {
                    SeamlessError::Type(format!("indexing undefined variable {name}"))
                })?;
                let it = self.infer_expr(index, env, key)?;
                if !matches!(it, Type::Int | Type::Bool) {
                    return Err(SeamlessError::Type(format!(
                        "array index must be an integer, found {it:?}"
                    )));
                }
                let vt = self.infer_expr(value, env, key)?;
                match arr {
                    Type::ArrF => {
                        if !vt.is_numeric() {
                            return Err(SeamlessError::Type(format!(
                                "cannot store {vt:?} in a float array"
                            )));
                        }
                    }
                    Type::ArrI => {
                        if !matches!(vt, Type::Int | Type::Bool) {
                            return Err(SeamlessError::Type(format!(
                                "cannot store {vt:?} in an int array"
                            )));
                        }
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
                let _ = self.infer_expr(cond, env, key)?;
                self.infer_block(func, then, env, ret, key)?;
                self.infer_block(func, orelse, env, ret, key)
            }
            Stmt::While { cond, body } => {
                let _ = self.infer_expr(cond, env, key)?;
                self.infer_block(func, body, env, ret, key)
            }
            Stmt::ForRange {
                var,
                start,
                stop,
                step,
                body,
            } => {
                for e in [start, stop, step] {
                    let t = self.infer_expr(e, env, key)?;
                    if !matches!(t, Type::Int | Type::Bool) {
                        return Err(SeamlessError::Type(format!(
                            "range() arguments must be integers, found {t:?}"
                        )));
                    }
                }
                Self::assign(env, var, Type::Int)?;
                self.infer_block(func, body, env, ret, key)
            }
            Stmt::Return(value) => {
                let t = match value {
                    None => Type::Unit,
                    Some(e) => self.infer_expr(e, env, key)?,
                };
                *ret = Some(match ret {
                    None => t,
                    Some(r) => r.join(t)?,
                });
                // expose partial return type to recursive calls
                self.in_progress.insert(key.clone(), *ret);
                Ok(())
            }
            Stmt::ExprStmt(e) => {
                let _ = self.infer_expr(e, env, key)?;
                Ok(())
            }
            Stmt::Pass | Stmt::Break | Stmt::Continue => Ok(()),
        }
    }

    #[allow(clippy::only_used_in_recursion)] // `key` names the signature being inferred
    fn infer_expr(
        &mut self,
        e: &Expr,
        env: &HashMap<String, Type>,
        key: &(String, Vec<Type>),
    ) -> Result<Type, SeamlessError> {
        match e {
            Expr::Int(_) => Ok(Type::Int),
            Expr::Float(_) => Ok(Type::Float),
            Expr::Bool(_) => Ok(Type::Bool),
            Expr::Name(n) => env
                .get(n)
                .copied()
                .ok_or_else(|| SeamlessError::Type(format!("undefined variable {n}"))),
            Expr::Bin(op, a, b) => {
                let ta = self.infer_expr(a, env, key)?;
                let tb = self.infer_expr(b, env, key)?;
                binop_type(*op, ta, tb)
            }
            Expr::Un(op, a) => {
                let t = self.infer_expr(a, env, key)?;
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(SeamlessError::Type(format!("cannot negate {t:?}")));
                        }
                        Ok(if t == Type::Float {
                            Type::Float
                        } else {
                            Type::Int
                        })
                    }
                    UnOp::Not => Ok(Type::Bool),
                }
            }
            Expr::Index(a, i) => {
                let ta = self.infer_expr(a, env, key)?;
                let ti = self.infer_expr(i, env, key)?;
                if !matches!(ti, Type::Int | Type::Bool) {
                    return Err(SeamlessError::Type(format!(
                        "array index must be an integer, found {ti:?}"
                    )));
                }
                match ta {
                    Type::ArrF => Ok(Type::Float),
                    Type::ArrI => Ok(Type::Int),
                    other => Err(SeamlessError::Type(format!("cannot index {other:?}"))),
                }
            }
            Expr::Call { name, args } => {
                let arg_types: Vec<Type> = args
                    .iter()
                    .map(|a| self.infer_expr(a, env, key))
                    .collect::<Result<_, _>>()?;
                if let Some(t) = builtin_type(name, &arg_types)? {
                    return Ok(t);
                }
                // foreign function through a loaded CModule
                if self.module.function(name).is_none() {
                    if let Some(lib) = self.externs {
                        if let Some(sig) = lib.signature(name) {
                            let (params, ret) = extern_types(sig);
                            if params.len() != arg_types.len() {
                                return Err(SeamlessError::Type(format!(
                                    "extern {name} takes {} arguments, got {}",
                                    params.len(),
                                    arg_types.len()
                                )));
                            }
                            for (want, got) in params.iter().zip(&arg_types) {
                                if !got.is_numeric() || !want.is_numeric() {
                                    return Err(SeamlessError::Type(format!(
                                        "extern {name}: cannot pass {got:?} as {want:?}"
                                    )));
                                }
                            }
                            return Ok(ret);
                        }
                    }
                }
                // user function — possibly recursive
                let callee_key = (name.clone(), arg_types.clone());
                if let Some(partial) = self.in_progress.get(&callee_key) {
                    return partial.ok_or_else(|| {
                        SeamlessError::Type(format!(
                            "recursive call to {name} before any base-case return"
                        ))
                    });
                }
                Ok(self.infer(name, &arg_types)?.ret)
            }
        }
    }
}

pub(crate) fn binop_type(op: BinOp, a: Type, b: Type) -> Result<Type, SeamlessError> {
    if op.is_comparison() {
        if a.is_numeric() && b.is_numeric() {
            return Ok(Type::Bool);
        }
        return Err(SeamlessError::Type(format!(
            "cannot compare {a:?} and {b:?}"
        )));
    }
    match op {
        BinOp::And | BinOp::Or => Ok(Type::Bool),
        BinOp::Div => {
            numeric(op, a, b)?;
            Ok(Type::Float)
        }
        BinOp::Pow => {
            numeric(op, a, b)?;
            // int ** int stays int (the compiler guards negative
            // exponents at runtime); anything else is float
            if matches!(a, Type::Int | Type::Bool) && matches!(b, Type::Int | Type::Bool) {
                Ok(Type::Int)
            } else {
                Ok(Type::Float)
            }
        }
        BinOp::FloorDiv => {
            numeric(op, a, b)?;
            if a == Type::Float || b == Type::Float {
                Ok(Type::Float)
            } else {
                Ok(Type::Int)
            }
        }
        _ => {
            numeric(op, a, b)?;
            if a == Type::Float || b == Type::Float {
                Ok(Type::Float)
            } else {
                Ok(Type::Int)
            }
        }
    }
}

fn numeric(op: BinOp, a: Type, b: Type) -> Result<(), SeamlessError> {
    if a.is_numeric() && b.is_numeric() {
        Ok(())
    } else {
        Err(SeamlessError::Type(format!(
            "operator {op:?} needs numbers, found {a:?} and {b:?}"
        )))
    }
}

/// Builtin signature table. Returns `Ok(None)` for non-builtins.
pub fn builtin_type(name: &str, args: &[Type]) -> Result<Option<Type>, SeamlessError> {
    let t = match (name, args) {
        ("len", [Type::ArrF | Type::ArrI]) => Type::Int,
        ("len", _) => return bad(name, args),
        ("sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "floor" | "ceil", [a])
            if a.is_numeric() =>
        {
            Type::Float
        }
        ("sqrt" | "sin" | "cos" | "tan" | "exp" | "log" | "floor" | "ceil", _) => {
            return bad(name, args)
        }
        ("hypot" | "atan2", [a, b]) if a.is_numeric() && b.is_numeric() => Type::Float,
        ("hypot" | "atan2", _) => return bad(name, args),
        ("abs", [Type::Float]) => Type::Float,
        ("abs", [Type::Int | Type::Bool]) => Type::Int,
        ("abs", _) => return bad(name, args),
        ("min" | "max", [a, b]) if a.is_numeric() && b.is_numeric() => a.join(*b)?,
        ("min" | "max", _) => return bad(name, args),
        ("float", [a]) if a.is_numeric() => Type::Float,
        ("float", _) => return bad(name, args),
        ("int", [a]) if a.is_numeric() => Type::Int,
        ("int", _) => return bad(name, args),
        ("zeros", [Type::Int]) => Type::ArrF,
        ("zeros", _) => return bad(name, args),
        ("izeros", [Type::Int]) => Type::ArrI,
        ("izeros", _) => return bad(name, args),
        _ => return Ok(None),
    };
    Ok(Some(t))
}

fn bad(name: &str, args: &[Type]) -> Result<Option<Type>, SeamlessError> {
    Err(SeamlessError::Type(format!(
        "builtin {name} cannot take arguments {args:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn infer(src: &str, f: &str, args: &[Type]) -> Result<FuncTypes, SeamlessError> {
        let m = parse_module(src).unwrap();
        infer_function_with_externs(&m, f, args, None)
    }

    #[test]
    fn sum_example_types() {
        let src = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";
        let t = infer(src, "sum", &[Type::ArrF]).unwrap();
        assert_eq!(t.ret, Type::Float);
        assert_eq!(t.vars["res"], Type::Float);
        assert_eq!(t.vars["i"], Type::Int);
        assert_eq!(t.vars["it"], Type::ArrF);
    }

    #[test]
    fn int_accumulator_widens_in_loop() {
        let src = "
def f(a):
    acc = 0
    for i in range(len(a)):
        acc = acc + a[i]
    return acc
";
        // summing floats into an int accumulator widens acc to float
        let t = infer(src, "f", &[Type::ArrF]).unwrap();
        assert_eq!(t.vars["acc"], Type::Float);
        assert_eq!(t.ret, Type::Float);
        // with an int array it stays integer
        let t = infer(src, "f", &[Type::ArrI]).unwrap();
        assert_eq!(t.vars["acc"], Type::Int);
        assert_eq!(t.ret, Type::Int);
    }

    #[test]
    fn annotations_are_respected_and_checked() {
        let src = "def f(x: float):\n    return x * 2\n";
        let t = infer(src, "f", &[Type::Int]).unwrap(); // int widens into float
        assert_eq!(t.ret, Type::Float);
        let src2 = "def f(x: int):\n    return x\n";
        assert!(infer(src2, "f", &[Type::Float]).is_err());
    }

    #[test]
    fn division_is_always_float() {
        let src = "def f(a: int, b: int):\n    return a / b\n";
        assert_eq!(
            infer(src, "f", &[Type::Int, Type::Int]).unwrap().ret,
            Type::Float
        );
        let src2 = "def f(a: int, b: int):\n    return a // b\n";
        assert_eq!(
            infer(src2, "f", &[Type::Int, Type::Int]).unwrap().ret,
            Type::Int
        );
    }

    #[test]
    fn recursion_types_via_base_case() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        let t = infer(src, "fib", &[Type::Int]).unwrap();
        assert_eq!(t.ret, Type::Int);
    }

    #[test]
    fn cross_function_inference() {
        let src = "
def helper(x):
    return x * 0.5

def main(a):
    return helper(a[0])
";
        let t = infer(src, "main", &[Type::ArrF]).unwrap();
        assert_eq!(t.ret, Type::Float);
    }

    #[test]
    fn errors_undefined_and_incompatible() {
        assert!(infer("def f():\n    return y\n", "f", &[]).is_err());
        // array reassigned as number
        let src = "def f(a):\n    a = 1\n    return a\n";
        assert!(infer(src, "f", &[Type::ArrF]).is_err());
        // indexing a scalar
        assert!(infer("def f(x):\n    return x[0]\n", "f", &[Type::Int]).is_err());
        // float index
        assert!(infer("def f(a):\n    return a[0.5]\n", "f", &[Type::ArrF]).is_err());
    }

    #[test]
    fn builtins_type_correctly() {
        let src = "def f(a):\n    return sqrt(len(a)) + float(3) + min(1.0, 2)\n";
        let t = infer(src, "f", &[Type::ArrI]).unwrap();
        assert_eq!(t.ret, Type::Float);
        let src2 = "def g(n):\n    b = zeros(n)\n    b[0] = 1.5\n    return b[0]\n";
        let t2 = infer(src2, "g", &[Type::Int]).unwrap();
        assert_eq!(t2.vars["b"], Type::ArrF);
        assert_eq!(t2.ret, Type::Float);
    }

    #[test]
    fn unit_return_for_procedures() {
        let src = "def f(a):\n    a[0] = 1.0\n";
        let t = infer(src, "f", &[Type::ArrF]).unwrap();
        assert_eq!(t.ret, Type::Unit);
    }
}
