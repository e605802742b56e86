//! One workload, run in a process of its own so that peak memory and the
//! process-wide caches (codegen, plan cache) belong to it alone. The
//! child prints tab-separated records; `main` reads them back.
//!
//! ```text
//! M <name> <value> <unit>     one metric
//! R <attempted> <failed>      ops attempted and failed
//! N <text>                    a note for the human reader
//! ```

use std::path::PathBuf;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans;
use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::workloads::{self, Outcome, Params, Recon};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rounds of the untraced run (a traced run does one per phase).
    pub rounds: usize,
    pub out_dir: PathBuf,
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Indices of the quieter half of the rounds (the larger half of an odd
/// count), ranked by each round's median latency. The noise of this host
/// is one-sided and comes in bursts of seconds — a neighbour's load, a
/// pair of threads that fell into the parked state — so the quieter
/// rounds say what the code costs and the others what the neighbours
/// did. Half, not the single best round: a round can also be lucky.
pub fn quiet_half(rounds: &[Vec<f64>]) -> Vec<usize> {
    let mut ranked: Vec<(f64, usize)> = rounds
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| (median(r), i))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.truncate(ranked.len().div_ceil(2));
    ranked.into_iter().map(|(_, i)| i).collect()
}

/// `p` percentile of the latencies of the rounds `keep`, pooled.
pub fn pooled_percentile(rounds: &[Vec<f64>], keep: &[usize], p: f64) -> f64 {
    let pool: Vec<f64> = keep
        .iter()
        .flat_map(|&i| rounds[i].iter().copied())
        .collect();
    percentile(&sorted(&pool), p)
}

/// Median latency over the quieter half of the rounds.
pub fn quiet_p50(rounds: &[Vec<f64>]) -> f64 {
    pooled_percentile(rounds, &quiet_half(rounds), 0.5)
}

fn join(values: impl Iterator<Item = f64>) -> String {
    values
        .map(|v| format!("{v:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The five end-to-end metrics of one untraced run.
pub fn end_to_end(out: &Outcome) -> Report {
    let n = out.timed_ops();
    let keep = quiet_half(&out.rounds);
    let kept_ops: usize = keep.iter().map(|&i| out.rounds[i].len()).sum();
    let kept_wall: f64 = keep.iter().map(|&i| out.round_wall_s[i]).sum();
    // ops that failed their check are not throughput
    let verified_share = (n as u64).saturating_sub(out.failed) as f64 / n.max(1) as f64;
    let beyond = samples_beyond(kept_ops, 0.9);
    let mut notes = out.notes.clone();
    notes.push(format!(
        "{n} timed ops in {} rounds, {:.3} s; metrics over the quieter {} rounds: {kept_ops} ops, {kept_wall:.3} s, {beyond} samples beyond p90{}",
        out.rounds.len(),
        out.wall_s,
        keep.len(),
        if beyond >= 10 {
            ""
        } else {
            " — FEWER THAN TEN, p90 is not a tail estimate here"
        }
    ));
    notes.push(format!(
        "round p50 (ms): {}",
        join(
            out.rounds
                .iter()
                .filter(|r| !r.is_empty())
                .map(|r| median(r))
        )
    ));
    notes.push(format!(
        "round set-up (s): {}",
        join(out.setup_s.iter().copied())
    ));
    let p50 = pooled_percentile(&out.rounds, &keep, 0.5);
    let p90 = pooled_percentile(&out.rounds, &keep, 0.9);
    notes.push(format!("op p90 {p90:.4} ms over the same ops"));
    // The lower quartile, not the median: set-up noise is one-sided too
    // (a first solve whose workers take turns parking is 3 ms of a
    // serving plane's 0.7 ms set-up), and when about half of a run's
    // set-ups are hit the median jumps between the two populations.
    let setup = percentile(&sorted(&out.setup_s), 0.25);
    // in the catalogue's order
    let values = [
        setup,
        p50,
        p90 / p50,
        kept_ops as f64 * verified_share / kept_wall,
        peak_rss_mib(),
    ];
    Report {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        attempted: out.attempted,
        failed: out.failed,
        notes,
    }
}

/// Every per-layer metric: the probe suite, then the workload for a
/// quarter of `seconds` untraced (exact counts, reference latency) and a
/// quarter traced (spans, self-time shares).
pub fn per_layer(args: &Args) -> Option<Report> {
    let (probes, recon) = probes::run_all(args.seed);
    let quarter = |traced: bool| Params {
        seed: args.seed,
        seconds: args.seconds / 4.0,
        rounds: 1,
        traced,
        recon: if traced {
            recon.clone()
        } else {
            Recon::default()
        },
    };
    let reference = workloads::run(&args.workload, &quarter(false))?;
    let traced = workloads::run(&args.workload, &quarter(true))?;

    let mut values: std::collections::BTreeMap<&str, f64> =
        PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for (name, v) in probes
        .iter()
        .chain(reference.counters.iter().map(|(n, v)| (n, v)))
    {
        if let Some(slot) = values.get_mut(name) {
            *slot = *v;
        }
    }
    values.insert(
        "bench.trace_overhead_ratio",
        quiet_p50(&traced.rounds) / quiet_p50(&reference.rounds),
    );
    values.insert(
        "bench.cpu_s_per_op",
        reference.cpu_s / reference.timed_ops().max(1) as f64,
    );
    let root_ns = spans::root_time(&traced.spans).max(1) as f64;
    let selfs = spans::self_times(&traced.spans);
    for m in &PER_LAYER {
        if let Some(layer) = m.name.strip_prefix("share.") {
            let self_ns = selfs.get(layer).copied().unwrap_or(0);
            values.insert(m.name, self_ns as f64 / root_ns);
        }
    }

    let mut notes = traced.notes.clone();
    let covered: f64 = selfs.values().sum::<u64>() as f64 / root_ns;
    let traced_op_ms = root_ns / 1e6 / traced.timed_ops().max(1) as f64;
    notes.push(format!(
        "{} spans over {} traced ops; layer self times cover {:.4} of the traced op time ({traced_op_ms:.4} ms/op)",
        traced.spans.len(),
        traced.timed_ops(),
        covered
    ));
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    let file = spans::to_json(&args.workload, args.seed, &traced.spans).to_text();
    match std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, file)) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    Some(Report {
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
        attempted: reference.attempted + traced.attempted,
        failed: reference.failed + traced.failed,
        notes,
    })
}

pub fn run(args: &Args) -> i32 {
    let report = if args.trace {
        per_layer(args)
    } else {
        let p = Params {
            seed: args.seed,
            seconds: args.seconds,
            rounds: args.rounds,
            traced: false,
            recon: Recon::default(),
        };
        workloads::run(&args.workload, &p).as_ref().map(end_to_end)
    };
    let Some(report) = report else {
        eprintln!("unknown workload {:?}", args.workload);
        return 2;
    };
    for note in &report.notes {
        println!("N\t{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("M\t{name}\t{value}\t{unit}");
    }
    println!("R\t{}\t{}", report.attempted, report.failed);
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{LAYERS, WORKLOADS};

    fn short(traced: bool) -> Params {
        Params {
            seed: 7,
            seconds: 0.4,
            rounds: 2,
            traced,
            recon: Recon::default(),
        }
    }

    /// The smoke pass: every workload, in this process, through its
    /// set-up, its timed phase and its oracle.
    #[test]
    fn every_workload_runs_and_passes_its_oracle() {
        for w in WORKLOADS {
            let out = workloads::run(w, &short(false)).expect("known workload");
            assert_eq!(out.failed, 0, "{w}: {out:?}");
            assert!(
                out.attempted as usize > out.timed_ops(),
                "{w}: set-up ops are attempted too"
            );
            assert_eq!((out.rounds.len(), out.setup_s.len()), (2, 2), "{w}");
            assert!(out.wall_s >= 0.4 && out.spans.is_empty(), "{w}");
            let report = end_to_end(&out);
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(
                names,
                END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{w}"
            );
            assert!(
                report.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{w}: {:?}",
                report.metrics
            );
        }
        assert!(workloads::run("no_such_workload", &short(false)).is_none());
    }

    #[test]
    fn traced_phases_tile_the_op_time_by_layer() {
        for w in WORKLOADS {
            let out = workloads::run(w, &short(true)).expect("known workload");
            assert_eq!(out.failed, 0, "{w}");
            let roots = out.spans.iter().filter(|s| s.parent.is_none()).count();
            assert_eq!(roots, out.timed_ops(), "{w}: one root span per timed op");
            assert!(
                out.spans
                    .iter()
                    .all(|s| s.parent.is_some() || s.layer == "bench"),
                "{w}"
            );
            let selfs = spans::self_times(&out.spans);
            assert_eq!(
                selfs.values().sum::<u64>(),
                spans::root_time(&out.spans),
                "{w}"
            );
            assert!(selfs.keys().all(|l| LAYERS.contains(l)), "{w}: {selfs:?}");
        }
    }

    #[test]
    fn metrics_come_from_the_quieter_half_of_the_rounds() {
        // medians 20, 2, 200, 3, 1: the quieter three of five are kept
        let rounds = vec![
            vec![10.0, 20.0, 30.0],
            vec![1.0, 2.0, 3.0],
            vec![100.0, 200.0, 300.0],
            vec![2.0, 3.0, 4.0],
            vec![1.0, 1.0, 1.0],
            vec![],
        ];
        let mut keep = quiet_half(&rounds);
        keep.sort_unstable();
        assert_eq!(keep, vec![1, 3, 4]);
        // pooled 1 1 1 1 2 2 3 3 4
        assert_eq!(quiet_p50(&rounds), 2.0);
        assert_eq!(pooled_percentile(&rounds, &keep, 0.9), 4.0);
        assert_eq!(quiet_half(&[vec![5.0]]), vec![0]);

        let out = Outcome {
            setup_s: vec![0.3, 0.1, 0.2, 0.5, 0.4],
            round_wall_s: vec![1.0, 2.0, 1.0, 2.0, 0.5, 1.0],
            wall_s: 7.5,
            attempted: 20,
            rounds,
            ..Outcome::default()
        };
        let report = end_to_end(&out);
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!(value("setup_s"), 0.2);
        assert_eq!(value("op_p50_ms"), 2.0);
        assert_eq!(value("op_p90_over_p50"), 2.0);
        // 9 ops of the kept rounds over their 4.5 s
        assert_eq!(value("ops_per_s"), 2.0);
    }

    /// The whole traced child on the lightest workload: every per-layer
    /// metric is reported, is a number, and the shares add up to the op.
    #[test]
    fn per_layer_run_reports_the_whole_catalogue() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}", std::process::id()));
        let args = Args {
            workload: "odin_chain".into(),
            seed: 7,
            seconds: 1.2,
            trace: true,
            rounds: 1,
            out_dir: dir.clone(),
        };
        let report = per_layer(&args).expect("known workload");
        assert_eq!(report.failed, 0);
        assert_eq!(report.metrics.len(), PER_LAYER.len());
        assert!(
            report.metrics.iter().all(|m| m.1.is_finite()),
            "{:?}",
            report.metrics
        );
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        let shares: f64 = LAYERS.iter().map(|l| value(&format!("share.{l}"))).sum();
        assert!((shares - 1.0).abs() < 0.05, "layer shares sum to {shares}");
        for probe in [
            "comm.p2p_rtt_us",
            "dlinalg.spmv_us",
            "odin.ctrl_rtt_us",
            "seamless.compile_us",
            "serve.idle_submit_ms",
        ] {
            assert!(value(probe) > 0.0, "{probe}");
        }
        assert!(value("odin.ctrl_msgs_per_op") > 0.0);
        let file = std::fs::read_to_string(dir.join("odin_chain.trace.json")).expect("span file");
        hpc_framework::obs::json::validate(&file).expect("span file is JSON");
        let _ = std::fs::remove_dir_all(dir);
    }
}
