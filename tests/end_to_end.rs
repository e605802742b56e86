//! Cross-crate integration: the paper's §V pipeline exercised end-to-end,
//! plus bridge/IO/table flows that span ODIN, the solver stack and
//! Seamless.

use hpc_framework::prelude::*;
use hpc_framework::seamless;

#[test]
fn the_papers_section_v_user_story() {
    // "a user allocates, initializes and manipulates a large simulation
    // data set using ODIN …"
    let ctx = OdinContext::with_workers(3);
    let n = 64;
    let x = ctx.linspace(0.0, 1.0, n);
    let forcing = (Expr::leaf(&x) * std::f64::consts::PI).sin().eval();

    // "… Seamless is used [to] convert this callback into a highly
    // efficient numerical kernel" — here scaling the forcing in place.
    let kernel = seamless::compile_kernel(
        "def boost(a):\n    for i in range(len(a)):\n        a[i] = 4.0 * a[i]\n",
        "boost",
        &[Type::ArrF],
    )
    .unwrap();
    apply_kernel(&ctx, &forcing, &kernel).unwrap();

    // "… devises a solution approach using PyTrilinos solvers that accept
    // ODIN arrays"
    let (u, report) = solve_with_odin_rhs(
        &ctx,
        &forcing,
        move |g| {
            let mut row = vec![(g, 2.0)];
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            if g + 1 < n {
                row.push((g + 1, -1.0));
            }
            row
        },
        SolveMethod::CgJacobi,
        Default::default(),
    );
    assert!(report.converged);
    assert!(!report.redistributed);
    // A is SPD and the forcing is positive: the solution must be positive
    // and symmetric around the midpoint.
    let uv = u.to_vec();
    assert!(uv.iter().all(|&v| v > 0.0));
    for i in 0..n / 2 {
        assert!(
            (uv[i] - uv[n - 1 - i]).abs() < 1e-6 * uv[n / 2],
            "asymmetry at {i}"
        );
    }
}

#[test]
fn newton_callback_pipeline_matches_rust_reference() {
    // Same Bratu problem with the nonlinearity in pyish vs hard-coded in
    // Rust (the solvers crate test) — the two solution paths must agree.
    let ctx = OdinContext::with_workers(2);
    let problem = PyishReaction::from_sources(
        16,
        1.0,
        "def g(u: float):\n    return exp(u)\n",
        "g",
        "def dg(u: float):\n    return exp(u)\n",
        "dg",
    )
    .unwrap();
    let (x, st) = newton_with_pyish_reaction(&ctx, problem, NewtonConfig::default());
    assert!(st.converged);
    let u = x.to_vec();
    // residual of the PDE at every interior point
    let n = 16;
    let h2 = 1.0 / ((n as f64 + 1.0) * (n as f64 + 1.0));
    for i in 0..n {
        let mut lap = 2.0 * u[i];
        if i > 0 {
            lap -= u[i - 1];
        }
        if i + 1 < n {
            lap -= u[i + 1];
        }
        let res = lap / h2 - u[i].exp();
        assert!(res.abs() < 1e-7, "residual {res} at {i}");
    }
}

#[test]
fn distributions_io_and_reductions_compose() {
    let ctx = OdinContext::with_workers(3);
    // build → slice → redistribute → save → load → reduce
    let a = ctx.arange_f64(0.0, 1.0, 30, Dist::Cyclic);
    let evens = a.slice1(0, None, 2); // 0, 2, …, 28
    let blocky = evens.redistribute(Dist::Block);
    let base = std::env::temp_dir().join(format!("e2e_{}", std::process::id()));
    ctx.save(&blocky, &base).unwrap();
    let back = ctx.load(&base).unwrap();
    hpc_framework::odin::remove_saved(&base, 3);
    assert_eq!(back.to_vec(), evens.to_vec());
    // sum of 0,2,…,28 = 2 * (0+…+14) = 210
    assert_eq!(back.sum(), 210.0);
}

#[test]
fn tables_and_arrays_share_one_context() {
    let ctx = OdinContext::with_workers(2);
    let x = ctx.ones(&[10], DType::F64);
    let schema = Schema::new(&[("k", FieldType::Str), ("v", FieldType::F64)]);
    let t = ctx.table_from_records(
        schema,
        (0..10)
            .map(|i| {
                Record(vec![
                    FieldValue::Str(if i % 2 == 0 { "even" } else { "odd" }.into()),
                    FieldValue::F64(i as f64),
                ])
            })
            .collect(),
    );
    let sums = t.group_by_sum("k", "v");
    assert_eq!(sums[0], ("even".to_string(), 20.0));
    assert_eq!(sums[1], ("odd".to_string(), 25.0));
    // the array is still alive and usable
    assert_eq!(x.sum(), 10.0);
}

#[test]
fn control_messages_stay_small_through_a_whole_pipeline() {
    // E2's claim checked at integration level: run a realistic pipeline
    // and assert the mean *control* message stays at tens of bytes.
    let ctx = OdinContext::with_workers(4);
    let base = ctx.stats();
    let x = ctx.random(&[500], 1);
    let y = ctx.random(&[500], 2);
    let z = (&(&x * &y) + 1.0).sqrt();
    let _ = z.slice1(1, None, 1);
    let _ = z.sum();
    let st = ctx.stats() - base;
    assert!(st.ctrl_msgs > 0);
    assert!(
        st.mean_ctrl_bytes() < 100.0,
        "mean control message {} bytes",
        st.mean_ctrl_bytes()
    );
}
