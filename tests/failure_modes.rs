//! Failure-injection and edge-case tests: the framework must fail loudly
//! and precisely, not silently corrupt distributed state.

use hpc_framework::comm::Universe;
use hpc_framework::dlinalg::{CsrMatrix, DistVector};
use hpc_framework::dmap::DistMap;
use hpc_framework::odin::{DType, Dist, OdinContext};
use hpc_framework::seamless::{self, SeamlessError, Type, Value};
use hpc_framework::solvers::{cg, DirectSolver, IdentityPrecond, KrylovConfig};

fn panics<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> bool {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected panics
    let r = std::panic::catch_unwind(f).is_err();
    std::panic::set_hook(prev);
    r
}

// ---- odin shape/type misuse ---------------------------------------------------

#[test]
fn odin_shape_mismatch_panics() {
    assert!(panics(|| {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.zeros(&[4], DType::F64);
        let b = ctx.zeros(&[5], DType::F64);
        let _ = &a + &b;
    }));
}

#[test]
fn odin_slice_out_of_bounds_panics() {
    assert!(panics(|| {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.zeros(&[4], DType::F64);
        let _ = a.slice(&[hpc_framework::odin::SliceSpec::new(0, 10, 1)]);
    }));
}

#[test]
fn odin_cumsum_of_2d_panics() {
    assert!(panics(|| {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.zeros(&[3, 3], DType::F64);
        let _ = a.cumsum();
    }));
}

#[test]
fn odin_matmul_inner_dim_mismatch_panics() {
    assert!(panics(|| {
        let ctx = OdinContext::with_workers(2);
        let a = ctx.zeros(&[3, 4], DType::F64);
        let b = ctx.zeros(&[5, 2], DType::F64);
        let _ = a.matmul(&b);
    }));
}

#[test]
fn odin_empty_arrays_are_fine_where_defined() {
    let ctx = OdinContext::with_workers(3);
    let a = ctx.zeros(&[0], DType::F64);
    assert_eq!(a.to_vec(), Vec::<f64>::new());
    assert_eq!(a.sum(), 0.0);
    let b = a.slice1(0, None, 1);
    assert!(b.is_empty());
    let c = ctx.ones(&[3], DType::F64);
    assert_eq!(a.concat(&c).to_vec(), vec![1.0, 1.0, 1.0]);
}

#[test]
fn odin_single_element_array() {
    let ctx = OdinContext::with_workers(4); // more workers than elements
    let a = ctx.linspace(5.0, 5.0, 1);
    assert_eq!(a.to_vec(), vec![5.0]);
    assert_eq!(a.argmax(), 0);
    assert_eq!(a.cumsum().to_vec(), vec![5.0]);
    let doubled = &a * 2.0;
    assert_eq!(doubled.sum(), 10.0);
}

// ---- solver misuse -------------------------------------------------------------

#[test]
fn direct_solver_rejects_rectangular() {
    assert!(panics(|| {
        Universe::run(1, |comm| {
            let rm = DistMap::block(3, 1, 0);
            let dm = DistMap::block(4, 1, 0);
            let a = CsrMatrix::from_row_fn(comm, rm, dm, |g| vec![(g, 1.0)]);
            let _ = DirectSolver::factor(comm, &a);
        });
    }));
}

#[test]
fn cg_on_indefinite_matrix_reports_nonconvergence_or_solves() {
    // CG is undefined for indefinite matrices; it must never hang and must
    // report honestly through the status.
    Universe::run(2, |comm| {
        let m = DistMap::block(8, comm.size(), comm.rank());
        let a = CsrMatrix::from_row_fn(comm, m.clone(), m, |g| {
            vec![(g, if g % 2 == 0 { 1.0 } else { -1.0 })]
        });
        let b = DistVector::constant(a.domain_map().clone(), 1.0);
        let mut x = DistVector::zeros(a.domain_map().clone());
        let cfg = KrylovConfig {
            max_iter: 50,
            ..Default::default()
        };
        let st = cg(comm, &a, &b, &mut x, &IdentityPrecond, &cfg);
        // diagonal ±1 is its own inverse: CG actually nails it in a few
        // iterations here; the point is the call returns with a truthful
        // status either way
        assert!(st.iterations <= 50);
        assert_eq!(st.history.len(), st.iterations + 1);
    });
}

#[test]
fn jacobi_rejects_zero_diagonal() {
    assert!(panics(|| {
        Universe::run(1, |comm| {
            let m = DistMap::block(2, 1, 0);
            // every row's only entry is column 1, so row 0 has a zero diagonal
            let a = CsrMatrix::from_row_fn(comm, m.clone(), m, |_g| vec![(1, 1.0)]);
            let _ = hpc_framework::solvers::JacobiPrecond::new(&a);
        });
    }));
}

// ---- seamless error taxonomy ----------------------------------------------------

#[test]
fn seamless_errors_carry_the_right_kind() {
    // lex
    assert!(matches!(
        seamless::jit("def f():\n\treturn 1\n", "f", &[]),
        Err(SeamlessError::Lex(_, _))
    ));
    // parse
    assert!(matches!(
        seamless::jit("def f(:\n    return 1\n", "f", &[]),
        Err(SeamlessError::Parse(_, _))
    ));
    // type
    assert!(matches!(
        seamless::jit("def f(a):\n    return a[0]\n", "f", &[Type::Int]),
        Err(SeamlessError::Type(_))
    ));
    // runtime (vm)
    let k = seamless::jit("def f(a):\n    return a[100]\n", "f", &[Type::ArrF]).unwrap();
    assert!(matches!(
        k.call(vec![Value::ArrF(vec![1.0])]),
        Err(SeamlessError::Runtime(_))
    ));
    // wrong arity at call time
    assert!(matches!(k.call(vec![]), Err(SeamlessError::Runtime(_))));
    // wrong argument type at call time
    assert!(matches!(
        k.call(vec![Value::Int(3)]),
        Err(SeamlessError::Runtime(_))
    ));
}

#[test]
fn seamless_interpreter_and_vm_agree_on_failures() {
    let src = "def f(n):\n    return 1 // n\n";
    let interp = seamless::Interpreter::new(src).unwrap();
    let k = seamless::jit(src, "f", &[Type::Int]).unwrap();
    assert!(interp.call("f", vec![Value::Int(0)]).is_err());
    assert!(k.call(vec![Value::Int(0)]).is_err());
    // and agree on success
    assert_eq!(
        interp.call("f", vec![Value::Int(7)]).unwrap().ret,
        k.call(vec![Value::Int(7)]).unwrap().ret
    );
}

// ---- io robustness ---------------------------------------------------------------

#[test]
fn odin_load_of_missing_file_errors_cleanly() {
    let ctx = OdinContext::with_workers(2);
    let missing = std::env::temp_dir().join("definitely_not_there_12345");
    assert!(ctx.load(&missing).is_err());
}

#[test]
fn matrix_market_read_of_garbage_errors() {
    let path = std::env::temp_dir().join(format!("garbage_{}.mtx", std::process::id()));
    std::fs::write(&path, "this is not a matrix\n").unwrap();
    let p2 = path.clone();
    let result = std::panic::catch_unwind(move || {
        Universe::run(1, move |comm| {
            let _ = hpc_framework::dlinalg::io::read_matrix_market(comm, &p2);
        })
    });
    // parsing panics on rank 0 (garbage header) — must not hang
    assert!(result.is_err());
    let _ = std::fs::remove_file(path);
}

// ---- chaos: seeded fault injection (E18) -----------------------------------------

use std::time::{Duration, Instant};

use hpc_framework::comm::{CommError, Delivery, FaultPlan, Src, UniverseConfig};
use hpc_framework::odin::{OdinConfig, OdinError};
use hpc_framework::solvers::{cg_checkpointed, CgCheckpointing, CheckpointStore};

/// Chaos seed, overridable per CI pass: `HPC_FAULT_SEED=43 cargo test …`.
/// Every fault decision is a pure function of this seed, so a failing
/// sweep value reproduces the exact schedule locally.
fn fault_seed() -> u64 {
    std::env::var("HPC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Chaos universes always carry a stall timeout: a fault-injection test
/// must end in a typed error, never a hang.
fn chaos_universe(fault: FaultPlan, delivery: Delivery) -> UniverseConfig {
    UniverseConfig {
        stall_timeout: Some(Duration::from_secs(10)),
        fault,
        delivery,
        ..Default::default()
    }
}

#[test]
fn corrupt_message_is_a_typed_error_in_raw_mode() {
    // Every fresh transmission is bit-corrupted; raw delivery surfaces
    // the checksum failure to the receiver instead of handing over
    // silently corrupted payloads.
    let plan = FaultPlan::messages(fault_seed(), 0.0, 0.0, 0.0, 1.0);
    let report = Universe::run_report(chaos_universe(plan, Delivery::Raw), 2, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, &vec![1.0f64; 64]).unwrap();
            None
        } else {
            Some(comm.recv::<Vec<f64>>(Src::Rank(0), 7))
        }
    });
    match report.results[1].as_ref().unwrap() {
        Err(CommError::Corrupt { rank, src, tag }) => {
            assert_eq!((*rank, *src, *tag), (1, 0, 7));
        }
        other => panic!("expected CommError::Corrupt, got {other:?}"),
    }
    assert!(report.stats[1].corrupt_detected >= 1);
    // the sender never learns; only the receiver's verifier fires
    assert_eq!(report.stats[0].corrupt_detected, 0);
}

#[test]
fn reliable_delivery_heals_the_swept_fault_schedule() {
    // The ci.sh chaos pass reruns this test under several HPC_FAULT_SEED
    // values: each seed replays a distinct (but exactly reproducible)
    // drop/dup/delay/corrupt schedule, and reliable delivery must heal
    // every one of them.
    let plan = FaultPlan::messages(fault_seed(), 0.08, 0.04, 0.04, 0.03);
    let report = Universe::run_report(chaos_universe(plan, Delivery::Reliable), 4, |comm| {
        comm.barrier();
        let v = vec![comm.rank() as f64; 100];
        comm.allreduce(&v, hpc_framework::comm::ReduceOp::vec_sum())[0]
    });
    for (rank, r) in report.results.iter().enumerate() {
        assert_eq!(*r, 6.0, "rank {rank}"); // 0 + 1 + 2 + 3
    }
}

#[test]
fn killed_odin_worker_is_a_typed_error_not_a_hang() {
    // Worker 1 dies after its second command. The master must diagnose
    // the death in bounded wall time through the public API — a typed
    // OdinError naming the dead worker, never a hang.
    let ctx = OdinContext::new(OdinConfig {
        n_workers: 3,
        universe: UniverseConfig {
            fault: FaultPlan {
                seed: fault_seed(),
                kill_rank: Some(1),
                kill_after_ops: 2,
                ..FaultPlan::none()
            },
            stall_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        },
        reply_timeout: Some(Duration::from_secs(5)),
    });
    let _a = ctx.zeros(&[12], DType::F64); // command 1 on every worker
    let t0 = Instant::now();
    match ctx.try_barrier() {
        // command 2: the victim dies before replying
        Err(OdinError::WorkerDead { worker, .. }) => assert_eq!(worker, 1),
        other => panic!("expected WorkerDead, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "death diagnosis took {:?}",
        t0.elapsed()
    );
    assert_eq!(ctx.dead_workers(), vec![1]);
    assert!(ctx.health_check().is_err());
}

#[test]
fn checkpointed_cg_restart_after_injected_kill_is_bitwise_identical() {
    let n_ranks = 3;
    const N: usize = 48;
    fn build(comm: &hpc_framework::comm::Comm) -> (CsrMatrix<f64>, DistVector<f64>) {
        let map = DistMap::block(N, comm.size(), comm.rank());
        let a = CsrMatrix::from_row_fn(comm, map.clone(), map, |g| {
            let mut row = Vec::new();
            if g > 0 {
                row.push((g - 1, -1.0));
            }
            row.push((g, 2.0 + (g % 3) as f64));
            if g + 1 < N {
                row.push((g + 1, -1.0));
            }
            row
        });
        let b = DistVector::from_fn(a.domain_map().clone(), |g| ((g as f64) * 0.3).cos());
        (a, b)
    }

    // Reference: one uninterrupted fault-free solve.
    let reference: Vec<(Vec<f64>, Vec<f64>)> = Universe::run(n_ranks, |comm| {
        let (a, b) = build(comm);
        let mut x = DistVector::zeros(a.domain_map().clone());
        let st = cg(
            comm,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &KrylovConfig::default(),
        );
        assert!(st.converged);
        (x.local().to_vec(), st.history)
    });

    // Chaos run: rank 1 is killed mid-solve while every rank records a
    // checkpoint each 5 iterations into shared stable storage. The job
    // dies loudly (killed rank errors, peers stall out on the timeout).
    let store = CheckpointStore::new();
    let plan = FaultPlan {
        seed: fault_seed(),
        kill_rank: Some(1),
        kill_after_ops: 150,
        ..FaultPlan::none()
    };
    let mut cfg = chaos_universe(plan, Delivery::Raw);
    cfg.stall_timeout = Some(Duration::from_secs(2));
    let died = {
        let store = store.clone();
        panics(std::panic::AssertUnwindSafe(move || {
            Universe::run_report(cfg, n_ranks, move |comm| {
                let (a, b) = build(comm);
                let mut x = DistVector::zeros(a.domain_map().clone());
                let rank = comm.rank();
                let store = store.clone();
                let sink = move |c| store.record(rank, c);
                // the run is killed mid-solve; the status never arrives
                let _ = cg_checkpointed(
                    comm,
                    &a,
                    &b,
                    &mut x,
                    &IdentityPrecond,
                    &KrylovConfig::default(),
                    &CgCheckpointing {
                        every: 5,
                        sink: Some(&sink),
                        resume: None,
                    },
                );
            });
        }))
    };
    assert!(died, "the injected kill must abort the chaos run");
    // iteration 1 is always checkpointed, so a consistent restart exists
    let resume = store.resume_point(n_ranks).expect("checkpoints recorded");
    assert!(resume[0].iteration >= 1);

    // Restart from the newest common checkpoint on a healthy universe:
    // the tail replays the identical floating-point sequence.
    let resumed: Vec<(Vec<f64>, Vec<f64>)> = Universe::run(n_ranks, move |comm| {
        let (a, b) = build(comm);
        let mut x = DistVector::zeros(a.domain_map().clone());
        let st = cg_checkpointed(
            comm,
            &a,
            &b,
            &mut x,
            &IdentityPrecond,
            &KrylovConfig::default(),
            &CgCheckpointing {
                every: 0,
                sink: None,
                resume: Some(&resume[comm.rank()]),
            },
        );
        assert!(st.converged);
        (x.local().to_vec(), st.history)
    });
    for (rank, (full, res)) in reference.iter().zip(resumed.iter()).enumerate() {
        assert_eq!(full.0, res.0, "rank {rank}: restarted x must match bitwise");
        assert_eq!(full.1, res.1, "rank {rank}: residual history must match");
    }
}

// ---- dist map misuse ---------------------------------------------------------------

#[test]
fn map_rejects_out_of_range_rank() {
    assert!(panics(|| {
        let _ = DistMap::block(10, 3, 7);
    }));
}

#[test]
fn redistribute_between_all_kinds_with_empty_ranks() {
    // n < workers: several empty segments; all redistributions must hold.
    let ctx = OdinContext::with_workers(4);
    let a = ctx.linspace(1.0, 2.0, 2);
    for d in [Dist::Cyclic, Dist::BlockCyclic(3), Dist::Block] {
        let b = a.redistribute(d);
        assert_eq!(b.to_vec(), a.to_vec());
    }
}
