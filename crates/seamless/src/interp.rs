//! The boxed tree-walking interpreter — the CPython stand-in.
//!
//! Every operation allocates/matches on boxed [`Value`]s and dispatches
//! dynamically, faithfully reproducing the per-operation overhead that
//! makes interpreted numeric loops slow (the overhead Seamless' JIT
//! removes; E7 measures the gap).

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, FuncDef, Module, Stmt, UnOp};
use crate::export::CallOutput;
use crate::parser::parse_module;
use crate::value::Value;
use crate::SeamlessError;

/// An interpreter over a parsed module.
pub struct Interpreter {
    module: Module,
    externs: Option<crate::cmodule::CModule>,
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

impl Interpreter {
    /// Parse and wrap a module.
    pub fn new(src: &str) -> Result<Self, SeamlessError> {
        Ok(Interpreter {
            module: parse_module(src)?,
            externs: None,
        })
    }

    /// Resolve otherwise-unknown calls through a loaded foreign library.
    pub fn with_externs(mut self, lib: crate::cmodule::CModule) -> Self {
        self.externs = Some(lib);
        self
    }

    /// Call `fname` with `args`; mutated array arguments come back in
    /// [`CallOutput::args`] (value semantics at the boundary).
    pub fn call(&self, fname: &str, args: Vec<Value>) -> Result<CallOutput, SeamlessError> {
        let func = self
            .module
            .function(fname)
            .ok_or_else(|| SeamlessError::Runtime(format!("unknown function {fname}")))?;
        if func.params.len() != args.len() {
            return Err(SeamlessError::Runtime(format!(
                "{fname} takes {} arguments, got {}",
                func.params.len(),
                args.len()
            )));
        }
        let mut env: HashMap<String, Value> = HashMap::new();
        for ((p, _), v) in func.params.iter().zip(args) {
            env.insert(p.clone(), v);
        }
        let flow = self.exec_block(func, &func.body, &mut env)?;
        let ret = match flow {
            Flow::Return(v) => v,
            _ => Value::Unit,
        };
        let out_args = func
            .params
            .iter()
            .map(|(p, _)| env.remove(p).unwrap_or(Value::Unit))
            .collect();
        Ok(CallOutput {
            ret,
            args: out_args,
        })
    }

    fn exec_block(
        &self,
        func: &FuncDef,
        block: &[Stmt],
        env: &mut HashMap<String, Value>,
    ) -> Result<Flow, SeamlessError> {
        for stmt in block {
            match self.exec_stmt(func, stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &self,
        func: &FuncDef,
        stmt: &Stmt,
        env: &mut HashMap<String, Value>,
    ) -> Result<Flow, SeamlessError> {
        match stmt {
            Stmt::Assign { name, value, .. } => {
                let v = self.eval(value, env)?;
                env.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::AugAssign { name, op, value } => {
                let rhs = self.eval(value, env)?;
                let cur = env
                    .get(name)
                    .cloned()
                    .ok_or_else(|| SeamlessError::Runtime(format!("undefined {name}")))?;
                let v = binop(*op, cur, rhs)?;
                env.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::AssignIndex { name, index, value } => {
                let idx = self.eval_index(index, env)?;
                let v = self.eval(value, env)?;
                store_index(env, name, idx, v)?;
                Ok(Flow::Normal)
            }
            Stmt::AugAssignIndex {
                name,
                index,
                op,
                value,
            } => {
                let idx = self.eval_index(index, env)?;
                let rhs = self.eval(value, env)?;
                let cur = load_index(env, name, idx)?;
                let v = binop(*op, cur, rhs)?;
                store_index(env, name, idx, v)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then, orelse } => {
                if self.eval(cond, env)?.truthy() {
                    self.exec_block(func, then, env)
                } else {
                    self.exec_block(func, orelse, env)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, env)?.truthy() {
                    match self.exec_block(func, body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::ForRange {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let start = self.eval_index(start, env)?;
                let stop = self.eval_index(stop, env)?;
                let step = self.eval_index(step, env)?;
                if step <= 0 {
                    return Err(SeamlessError::Runtime("range step must be positive".into()));
                }
                let mut i = start;
                while i < stop {
                    env.insert(var.clone(), Value::Int(i));
                    match self.exec_block(func, body, env)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    i += step;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let v = match value {
                    None => Value::Unit,
                    Some(e) => self.eval(e, env)?,
                };
                Ok(Flow::Return(v))
            }
            Stmt::ExprStmt(e) => {
                let _ = self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            Stmt::Pass => Ok(Flow::Normal),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn eval_index(&self, e: &Expr, env: &mut HashMap<String, Value>) -> Result<i64, SeamlessError> {
        self.eval(e, env)?
            .as_i64()
            .ok_or_else(|| SeamlessError::Runtime("expected an integer".into()))
    }

    fn eval(&self, e: &Expr, env: &mut HashMap<String, Value>) -> Result<Value, SeamlessError> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Name(n) => env
                .get(n)
                .cloned()
                .ok_or_else(|| SeamlessError::Runtime(format!("undefined variable {n}"))),
            Expr::Bin(op, a, b) => {
                let va = self.eval(a, env)?;
                let vb = self.eval(b, env)?;
                binop(*op, va, vb)
            }
            Expr::Un(op, a) => {
                let v = self.eval(a, env)?;
                match op {
                    UnOp::Neg => match v {
                        Value::Int(x) => Ok(Value::Int(-x)),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        Value::Bool(b) => Ok(Value::Int(-i64::from(b))),
                        other => Err(SeamlessError::Runtime(format!("cannot negate {other:?}"))),
                    },
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            Expr::Index(a, i) => {
                let idx = self.eval_index(i, env)?;
                // fast path: direct name avoids cloning the array
                if let Expr::Name(n) = a.as_ref() {
                    return load_index(env, n, idx);
                }
                let arr = self.eval(a, env)?;
                index_value(&arr, idx)
            }
            Expr::Call { name, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                if let Some(v) = call_builtin(name, &vals)? {
                    return Ok(v);
                }
                if self.module.function(name).is_some() {
                    let out = self.call(name, vals)?;
                    return Ok(out.ret);
                }
                if let Some(lib) = &self.externs {
                    if lib.signature(name).is_some() {
                        return lib.call(name, &vals);
                    }
                }
                Err(SeamlessError::Runtime(format!("unknown function {name}")))
            }
        }
    }
}

fn index_value(arr: &Value, idx: i64) -> Result<Value, SeamlessError> {
    let check = |len: usize| -> Result<usize, SeamlessError> {
        let i = if idx < 0 { idx + len as i64 } else { idx };
        if i < 0 || i as usize >= len {
            Err(SeamlessError::Runtime(format!(
                "index {idx} out of range for length {len}"
            )))
        } else {
            Ok(i as usize)
        }
    };
    match arr {
        Value::ArrF(v) => Ok(Value::Float(v[check(v.len())?])),
        Value::ArrI(v) => Ok(Value::Int(v[check(v.len())?])),
        other => Err(SeamlessError::Runtime(format!("cannot index {other:?}"))),
    }
}

fn load_index(env: &HashMap<String, Value>, name: &str, idx: i64) -> Result<Value, SeamlessError> {
    let arr = env
        .get(name)
        .ok_or_else(|| SeamlessError::Runtime(format!("undefined variable {name}")))?;
    index_value(arr, idx)
}

fn store_index(
    env: &mut HashMap<String, Value>,
    name: &str,
    idx: i64,
    v: Value,
) -> Result<(), SeamlessError> {
    let arr = env
        .get_mut(name)
        .ok_or_else(|| SeamlessError::Runtime(format!("undefined variable {name}")))?;
    match arr {
        Value::ArrF(vec) => {
            let len = vec.len() as i64;
            let i = if idx < 0 { idx + len } else { idx };
            if i < 0 || i >= len {
                return Err(SeamlessError::Runtime(format!(
                    "index {idx} out of range for length {len}"
                )));
            }
            vec[i as usize] = v
                .as_f64()
                .ok_or_else(|| SeamlessError::Runtime("cannot store non-number".into()))?;
            Ok(())
        }
        Value::ArrI(vec) => {
            let len = vec.len() as i64;
            let i = if idx < 0 { idx + len } else { idx };
            if i < 0 || i >= len {
                return Err(SeamlessError::Runtime(format!(
                    "index {idx} out of range for length {len}"
                )));
            }
            vec[i as usize] = v
                .as_i64()
                .ok_or_else(|| SeamlessError::Runtime("cannot store non-integer".into()))?;
            Ok(())
        }
        other => Err(SeamlessError::Runtime(format!(
            "cannot index-assign into {other:?}"
        ))),
    }
}

/// Dynamic binary dispatch — the expensive part of interpretation.
pub(crate) fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, SeamlessError> {
    use BinOp::*;
    if op.is_comparison() {
        let (x, y) = (
            a.as_f64()
                .ok_or_else(|| SeamlessError::Runtime("cannot compare non-number".into()))?,
            b.as_f64()
                .ok_or_else(|| SeamlessError::Runtime("cannot compare non-number".into()))?,
        );
        return Ok(Value::Bool(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            _ => unreachable!(),
        }));
    }
    match op {
        And => return Ok(Value::Bool(a.truthy() && b.truthy())),
        Or => return Ok(Value::Bool(a.truthy() || b.truthy())),
        _ => {}
    }
    let int_int =
        matches!(a, Value::Int(_) | Value::Bool(_)) && matches!(b, Value::Int(_) | Value::Bool(_));
    let x = a
        .as_f64()
        .ok_or_else(|| SeamlessError::Runtime(format!("bad operand {a:?}")))?;
    let y = b
        .as_f64()
        .ok_or_else(|| SeamlessError::Runtime(format!("bad operand {b:?}")))?;
    let (xi, yi) = (a.as_i64().unwrap_or(0), b.as_i64().unwrap_or(0));
    Ok(match op {
        Add if int_int => Value::Int(xi.wrapping_add(yi)),
        Sub if int_int => Value::Int(xi.wrapping_sub(yi)),
        Mul if int_int => Value::Int(xi.wrapping_mul(yi)),
        Add => Value::Float(x + y),
        Sub => Value::Float(x - y),
        Mul => Value::Float(x * y),
        Div => Value::Float(x / y),
        FloorDiv if int_int => {
            if yi == 0 {
                return Err(SeamlessError::Runtime("integer division by zero".into()));
            }
            Value::Int(xi.div_euclid(yi))
        }
        FloorDiv => Value::Float((x / y).floor()),
        Mod if int_int => {
            if yi == 0 {
                return Err(SeamlessError::Runtime("integer modulo by zero".into()));
            }
            Value::Int(xi.wrapping_rem_euclid(yi))
        }
        Mod => Value::Float(x - y * (x / y).floor()),
        Pow if int_int => {
            if yi >= 0 {
                Value::Int(xi.pow(yi.min(u32::MAX as i64) as u32))
            } else {
                Value::Float(x.powf(y))
            }
        }
        Pow => Value::Float(x.powf(y)),
        _ => unreachable!(),
    })
}

/// Builtin dispatch; `Ok(None)` when `name` is not a builtin.
pub(crate) fn call_builtin(name: &str, args: &[Value]) -> Result<Option<Value>, SeamlessError> {
    let one_f = |f: fn(f64) -> f64| -> Result<Option<Value>, SeamlessError> {
        let x = args
            .first()
            .and_then(|v| v.as_f64())
            .ok_or_else(|| SeamlessError::Runtime(format!("{name} needs one number")))?;
        Ok(Some(Value::Float(f(x))))
    };
    match name {
        "len" => match args {
            [Value::ArrF(v)] => Ok(Some(Value::Int(v.len() as i64))),
            [Value::ArrI(v)] => Ok(Some(Value::Int(v.len() as i64))),
            _ => Err(SeamlessError::Runtime("len needs an array".into())),
        },
        "sqrt" => one_f(f64::sqrt),
        "sin" => one_f(f64::sin),
        "cos" => one_f(f64::cos),
        "tan" => one_f(f64::tan),
        "exp" => one_f(f64::exp),
        "log" => one_f(f64::ln),
        "floor" => one_f(f64::floor),
        "ceil" => one_f(f64::ceil),
        "hypot" | "atan2" => match args {
            [a, b] => {
                let (x, y) = (
                    a.as_f64()
                        .ok_or_else(|| SeamlessError::Runtime(format!("{name} needs numbers")))?,
                    b.as_f64()
                        .ok_or_else(|| SeamlessError::Runtime(format!("{name} needs numbers")))?,
                );
                Ok(Some(Value::Float(if name == "hypot" {
                    x.hypot(y)
                } else {
                    x.atan2(y)
                })))
            }
            _ => Err(SeamlessError::Runtime(format!("{name} needs two numbers"))),
        },
        "abs" => match args {
            [Value::Float(x)] => Ok(Some(Value::Float(x.abs()))),
            [Value::Int(x)] => Ok(Some(Value::Int(x.abs()))),
            [Value::Bool(b)] => Ok(Some(Value::Int(i64::from(*b)))),
            _ => Err(SeamlessError::Runtime("abs needs one number".into())),
        },
        "min" | "max" => {
            let (a, b) = match args {
                [a, b] => (a, b),
                _ => return Err(SeamlessError::Runtime(format!("{name} needs two numbers"))),
            };
            let int_int = matches!(a, Value::Int(_)) && matches!(b, Value::Int(_));
            let x = a.as_f64().unwrap_or(f64::NAN);
            let y = b.as_f64().unwrap_or(f64::NAN);
            let pick_a = if name == "min" { x <= y } else { x >= y };
            if int_int {
                Ok(Some(Value::Int(if pick_a {
                    a.as_i64().unwrap()
                } else {
                    b.as_i64().unwrap()
                })))
            } else {
                Ok(Some(Value::Float(if pick_a { x } else { y })))
            }
        }
        "float" => Ok(Some(Value::Float(
            args.first()
                .and_then(|v| v.as_f64())
                .ok_or_else(|| SeamlessError::Runtime("float needs a number".into()))?,
        ))),
        "int" => Ok(Some(Value::Int(
            args.first()
                .and_then(|v| v.as_i64())
                .ok_or_else(|| SeamlessError::Runtime("int needs a number".into()))?,
        ))),
        "zeros" => match args {
            [Value::Int(n)] if *n >= 0 => Ok(Some(Value::ArrF(vec![0.0; *n as usize]))),
            _ => Err(SeamlessError::Runtime(
                "zeros needs a non-negative int".into(),
            )),
        },
        "izeros" => match args {
            [Value::Int(n)] if *n >= 0 => Ok(Some(Value::ArrI(vec![0; *n as usize]))),
            _ => Err(SeamlessError::Runtime(
                "izeros needs a non-negative int".into(),
            )),
        },
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, f: &str, args: Vec<Value>) -> Value {
        Interpreter::new(src).unwrap().call(f, args).unwrap().ret
    }

    #[test]
    fn paper_sum_example() {
        let src = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";
        let v = run(src, "sum", vec![Value::ArrF(vec![1.0, 2.0, 3.5])]);
        assert_eq!(v, Value::Float(6.5));
    }

    #[test]
    fn control_flow_fizzbuzz_style() {
        let src = "
def classify(n):
    if n % 15 == 0:
        return 3
    elif n % 3 == 0:
        return 1
    elif n % 5 == 0:
        return 2
    else:
        return 0
";
        assert_eq!(run(src, "classify", vec![Value::Int(30)]), Value::Int(3));
        assert_eq!(run(src, "classify", vec![Value::Int(9)]), Value::Int(1));
        assert_eq!(run(src, "classify", vec![Value::Int(10)]), Value::Int(2));
        assert_eq!(run(src, "classify", vec![Value::Int(7)]), Value::Int(0));
    }

    #[test]
    fn while_break_continue() {
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
        // sum of odd numbers ≤ 9 = 25
        assert_eq!(run(src, "f", vec![Value::Int(9)]), Value::Int(25));
    }

    #[test]
    fn recursion_fib() {
        let src = "
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)
";
        assert_eq!(run(src, "fib", vec![Value::Int(10)]), Value::Int(55));
    }

    #[test]
    fn mutated_arrays_come_back() {
        let src = "
def scale(a, s):
    for i in range(len(a)):
        a[i] = a[i] * s
";
        let out = Interpreter::new(src)
            .unwrap()
            .call(
                "scale",
                vec![Value::ArrF(vec![1.0, 2.0]), Value::Float(3.0)],
            )
            .unwrap();
        assert_eq!(out.ret, Value::Unit);
        assert_eq!(out.args[0], Value::ArrF(vec![3.0, 6.0]));
    }

    #[test]
    fn python_arithmetic_semantics() {
        let src = "def f():\n    return (7 // 2) + (-7 // 2) + (7 % -2) + (-7 % 2)\n";
        // Python: 3 + (-4) + ... hmm — we use euclidean for ints:
        // 7//2=3, -7//2 (div_euclid) = -4, 7 % -2 (rem_euclid) = 1, -7 % 2 = 1
        assert_eq!(run(src, "f", vec![]), Value::Int(1));
        let src2 = "def g():\n    return 2 ** 10 + 2 ** -1\n";
        assert_eq!(run(src2, "g", vec![]), Value::Float(1024.5));
        let src3 = "def h():\n    return 1 / 2\n";
        assert_eq!(run(src3, "h", vec![]), Value::Float(0.5));
    }

    #[test]
    fn builtins_work() {
        let src = "def f(a):\n    return sqrt(abs(min(-4.0, len(a))))\n";
        let v = run(src, "f", vec![Value::ArrI(vec![1, 2, 3])]);
        assert_eq!(v, Value::Float(2.0));
        let src2 = "def g(n):\n    b = zeros(n)\n    b[1] = 7.0\n    return b[1] + len(b)\n";
        assert_eq!(run(src2, "g", vec![Value::Int(3)]), Value::Float(10.0));
    }

    #[test]
    fn negative_indexing() {
        let src = "def last(a):\n    return a[-1]\n";
        assert_eq!(
            run(src, "last", vec![Value::ArrF(vec![1.0, 2.0, 9.0])]),
            Value::Float(9.0)
        );
    }

    #[test]
    fn out_of_range_errors() {
        let src = "def f(a):\n    return a[10]\n";
        let err = Interpreter::new(src)
            .unwrap()
            .call("f", vec![Value::ArrF(vec![1.0])])
            .unwrap_err();
        assert!(matches!(err, SeamlessError::Runtime(_)));
    }

    #[test]
    fn cross_function_calls() {
        let src = "
def square(x):
    return x * x

def sumsq(a):
    t = 0.0
    for i in range(len(a)):
        t += square(a[i])
    return t
";
        assert_eq!(
            run(src, "sumsq", vec![Value::ArrF(vec![1.0, 2.0, 3.0])]),
            Value::Float(14.0)
        );
    }
}
