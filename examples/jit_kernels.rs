//! Seamless tour (§IV): interpreter vs JIT, disassembly, FFI, the
//! reverse embedding, and the distributed kernel plane (kernels mapped
//! over ODIN arrays).
//!
//! ```bash
//! cargo run --release --example jit_kernels
//! ```

use std::time::Instant;

use hpc_framework::prelude::*;
use hpc_framework::seamless::{self, CModule, Interpreter};

const SUM_SRC: &str = "
def sum(it):
    res = 0.0
    for i in range(len(it)):
        res = res + it[i]
    return res
";

fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn main() {
    // ---- §IV-A: the paper's @jit sum example ---------------------------
    let n = 1_000_000usize;
    let data: Vec<f64> = (0..n).map(|i| (i % 97) as f64 * 0.125).collect();
    let expect: f64 = data.iter().sum();

    let interp = Interpreter::new(SUM_SRC).expect("parses");
    let (iv, t_interp) = time(|| {
        interp
            .call("sum", vec![Value::ArrF(data.clone())])
            .unwrap()
            .ret
    });

    let kernel = seamless::jit(SUM_SRC, "sum", &[Type::ArrF]).expect("compiles");
    let (jv, t_jit) = time(|| kernel.call(vec![Value::ArrF(data.clone())]).unwrap().ret);

    let (nv, t_native) = time(|| data.iter().sum::<f64>());

    println!("sum of {n} floats:");
    println!("  boxed interpreter : {:8.1} ms -> {iv:?}", t_interp * 1e3);
    println!("  typed-VM JIT      : {:8.1} ms -> {jv:?}", t_jit * 1e3);
    println!("  native Rust       : {:8.1} ms -> {nv:.1}", t_native * 1e3);
    println!(
        "  JIT speedup over the interpreter: {:.1}x",
        t_interp / t_jit
    );
    assert_eq!(iv, jv);
    assert_eq!(jv, Value::Float(expect));

    // ---- what "compiled" means here: the typed bytecode ----------------
    println!("\ndisassembly of sum(ArrF):\n{}", kernel.disassemble());

    // ---- §IV-C: header-driven FFI --------------------------------------
    println!("== CModule (math.h discovery) ==");
    let libm = CModule::load_system("m").unwrap();
    println!(
        "discovered {} signatures; atan2: {:?}",
        libm.signatures().len(),
        libm.signature("atan2").unwrap()
    );
    let v = libm
        .call("pow", &[Value::Float(2.0), Value::Float(10.0)])
        .unwrap();
    println!("libm.pow(2, 10) = {v:?}");

    // pyish source calling libm directly through discovered signatures
    let wave_src = "
def wave(x: float):
    return pow(sin(x), 2.0) + atan2(x, 1.0)
";
    let wk = seamless::compile_with_externs(wave_src, "wave", &[Type::Float], &libm).unwrap();
    let out = wk.call(vec![Value::Float(1.25)]).unwrap();
    println!(
        "pyish calling libm: wave(1.25) = {:?} (pow/sin/atan2 resolved via the header)",
        out.ret
    );

    // ---- §IV-D: pyish as an algorithm-specification language -----------
    // A host program (this Rust code, the paper's C++) consumes an
    // algorithm that was specified in pyish, through a plain function.
    println!("\n== reverse embedding ==");
    let newton_src = "
def newton_sqrt(x: float):
    g = x
    for i in range(30):
        g = 0.5 * (g + x / g)
    return g
";
    let k: CompiledKernel =
        seamless::compile_kernel(newton_src, "newton_sqrt", &[Type::Float]).unwrap();
    let f = k.as_f64_fn();
    for x in [2.0, 9.0, 1e6] {
        let approx = f(x).unwrap();
        println!(
            "newton_sqrt({x}) = {approx:.12} (|err| = {:.1e})",
            (approx - x.sqrt()).abs()
        );
        assert!((approx - x.sqrt()).abs() < 1e-9);
    }

    // ---- the distributed kernel plane: Seamless × ODIN -----------------
    // The same bytecode ships to every worker exactly once
    // (RegisterKernel); every map afterwards is a tens-of-bytes control
    // message, executed unboxed over each worker's segment.
    println!("\n== distributed kernel plane ==");
    let ctx = OdinContext::with_workers(4);
    // The KernelSpec builder picks the compute dtype and execution tier;
    // Tier::Native arms the probed native C monomorphization when a
    // system C compiler is present and falls back to the typed-register
    // VM otherwise (`ctx.compile_kernel(src, name)` is shorthand for the
    // defaults: f64, Native).
    let decay = ctx
        .kernel(
            "def decay(v, t):\n    return v * exp(-t) + hypot(v, t) * 0.01\n",
            "decay",
        )
        .dtype(DType::F64)
        .tier(Tier::Native)
        .build()
        .unwrap();
    println!(
        "decay kernel armed on tier {:?} (dtype {:?})",
        decay.tier(),
        decay.dtype()
    );
    let v = ctx.linspace(0.0, 4.0, 100_000);
    let t = ctx.linspace(0.0, 1.0, 100_000);
    let _warm = decay.map(&[&v, &t]);
    ctx.flush_batch();
    ctx.reset_stats();
    let mapped = decay.map(&[&v, &t]);
    // `map` records a call; the flush launches it
    ctx.flush_batch();
    let st = ctx.stats();
    println!(
        "decay.map over {} elements on {} workers: {:.0} bytes of control traffic per worker",
        v.len(),
        ctx.n_workers(),
        st.ctrl_bytes as f64 / st.ctrl_msgs as f64
    );
    // map + fold: the sum rides the call's launch as a reduce tail
    let total = decay.map(&[&v, &t]).sum();
    assert_eq!(total.to_bits(), mapped.sum().to_bits());
    println!("map(..).sum() = {total:.4} in one launch (bitwise-identical to the two-pass sum)");

    // dtype-generic kernels: the same source monomorphizes per dtype.
    // An I64 build computes in integers end to end (no f64 round-trip).
    let sq1 = ctx
        .kernel("def sq1(v):\n    return v * v + 1\n", "sq1")
        .dtype(DType::I64)
        .build()
        .unwrap();
    let idx = ctx.arange(8);
    let sq = sq1.map(&[&idx]);
    println!(
        "i64 monomorphization (tier {:?}): sq1(arange(8)) = {:?}",
        sq1.tier(),
        sq.to_vec_i64()
    );
    assert_eq!(
        sq.to_vec_i64(),
        (0..8).map(|g| g * g + 1).collect::<Vec<i64>>()
    );

    // lazy expressions ride the same plane: Expr::eval lowers to
    // bytecode, registers once, and reuses the kernel across evals
    let e = (Expr::leaf(&v) * 2.0 + 1.0).sqrt().eval();
    println!("expr plane result mean = {:.4}", e.mean());
}
