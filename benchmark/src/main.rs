//! The repo benchmark. See README.md for the catalogue and
//! ../BENCHMARK.json for the contract the driver checks.
//!
//! ```text
//! hpc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hpc-benchmark all [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--check-repeat]
//! ```
//!
//! The first form runs one workload and ends its standard output with
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`). The
//! second runs every workload, prints `workload metric value unit` lines
//! and writes `out/results.json` next to this package's manifest.

mod awake;
mod catalog;
mod child;
mod host;
mod json;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use catalog::{END_TO_END, WORKLOADS};
use json::Json;

/// Timed-phase length of `all` when `--seconds` is absent; the same
/// number is `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 1.0;
/// A child that has not finished by then is killed: the contract gives a
/// run 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);
/// Per-layer counts that must repeat exactly between two runs of one
/// commit. On `serve_mix` the two codegen counts depend on how many
/// kernel jobs the mix drew in the time it had, so they are exempt there.
const EXACT: [&str; 10] = [
    "comm.msgs_per_op",
    "comm.bytes_per_op",
    "dmap.plan_hit_ratio",
    "solvers.cg_iters",
    "odin.ctrl_msgs_per_op",
    "odin.ctrl_bytes_per_msg",
    "odin.data_bytes_per_op",
    "odin.channel_sends_per_op",
    "seamless.native_compiles_per_op",
    "seamless.cache_hits_per_op",
];

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Default)]
struct Cli {
    mode: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 42,
        ..Cli::default()
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "all" | "child" if cli.mode.is_empty() => cli.mode = arg.clone(),
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            // `--trace 0|1` for the driver, bare `--trace` for people
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => drop(it.next()),
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            "--smoke" => cli.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

/// What one child reported.
struct Run {
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(u))]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's result object.
    fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", self.metrics_json()),
        ])
    }
}

fn parse_child_output(workload: &str, trace: bool, text: &str) -> Result<Run, String> {
    let mut run = Run {
        workload: workload.to_string(),
        trace,
        metrics: vec![],
        attempted: 0,
        failed: 0,
    };
    let mut resolved = false;
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["M", name, value, unit] => {
                let v = value
                    .parse::<f64>()
                    .map_err(|e| format!("metric {name}: {e}"))?;
                run.metrics.push((name.to_string(), v, unit.to_string()));
            }
            ["R", attempted, failed] => {
                run.attempted = attempted.parse().map_err(|e| format!("attempted: {e}"))?;
                run.failed = failed.parse().map_err(|e| format!("failed: {e}"))?;
                resolved = true;
            }
            ["N", note] => eprintln!("  [{workload}] {note}"),
            _ => {}
        }
    }
    if resolved {
        Ok(run)
    } else {
        Err("the child ended without a result record".into())
    }
}

/// Run one workload in a child process of this executable, with the CPUs
/// kept from halting meanwhile (see `awake`). The child's
/// temporary files (the native tier's C sources and shared objects, the
/// compiler's own scratch) go to a directory under `out/` that is
/// removed afterwards; its standard output is collected through a file
/// there so the parent can poll for the deadline.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = (|| {
        let stdout_path = scratch.join("child.out");
        let stdout =
            std::fs::File::create(&stdout_path).map_err(|e| format!("create child.out: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // until the child has ended, on every path out of this closure
        let _awake = awake::KeepAwake::start();
        let mut child = Command::new(exe)
            .args(["child", "--workload", workload])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .env("TMPDIR", &scratch)
            .stdin(Stdio::null())
            .stdout(stdout)
            .spawn()
            .map_err(|e| format!("spawn child: {e}"))?;
        let started = Instant::now();
        let status = loop {
            match child
                .try_wait()
                .map_err(|e| format!("wait for child: {e}"))?
            {
                Some(status) => break status,
                None if started.elapsed() > CHILD_DEADLINE => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("killed after {CHILD_DEADLINE:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        let text =
            std::fs::read_to_string(&stdout_path).map_err(|e| format!("read child.out: {e}"))?;
        parse_child_output(workload, trace, &text)
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result.map_err(|e| format!("{workload}: {e}"))
}

fn print_run(run: &Run) {
    for (name, value, unit) in &run.metrics {
        println!("{} {name} {value} {unit}", run.workload);
    }
    println!(
        "{} {} attempted {} failed {}",
        run.workload,
        if run.correct() { "ok" } else { "FAILED" },
        run.attempted,
        run.failed
    );
}

/// Every workload once, untraced, and once more traced if asked.
fn suite(cli: &Cli, seconds: f64) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            if trace && !cli.trace {
                continue;
            }
            let run = run_child(workload, cli.seed, seconds, trace)?;
            print_run(&run);
            runs.push(run);
        }
    }
    Ok(runs)
}

fn write_results(cli: &Cli, seconds: f64, runs: &[Run]) -> Result<PathBuf, String> {
    let doc = Json::obj(vec![
        ("host", host::fingerprint()),
        ("seed", Json::Int(cli.seed)),
        ("seconds", Json::Num(seconds)),
        (
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("workload", Json::str(&r.workload)),
                            ("trace", Json::Bool(r.trace)),
                            (
                                "rounds",
                                Json::Int(if r.trace {
                                    1
                                } else {
                                    workloads::rounds(&r.workload) as u64
                                }),
                            ),
                            ("result", r.result_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.to_text() + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Relative gap of a repeat against the first value.
fn gap(first: f64, second: f64) -> f64 {
    (second - first).abs() / first.abs().max(f64::MIN_POSITIVE)
}

/// Compare two suites of one commit: every end-to-end metric within its
/// bound, every exact per-layer count identical. Returns the breaches.
fn check_repeat(a: &[Run], b: &[Run]) -> usize {
    let mut breaches = 0;
    println!(
        "\n{:<14} {:<32} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (ra, rb) in a.iter().zip(b) {
        let names: Vec<(&str, f64)> = if ra.trace {
            EXACT
                .iter()
                .filter(|n| !(ra.workload == "serve_mix" && n.starts_with("seamless.")))
                .map(|n| (*n, 0.0))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.bound)).collect()
        };
        for (name, bound) in names {
            let (Some(x), Some(y)) = (ra.value(name), rb.value(name)) else {
                continue;
            };
            let g = gap(x, y);
            let breach = if ra.trace {
                x.to_bits() != y.to_bits()
            } else {
                g > bound
            };
            breaches += usize::from(breach);
            println!(
                "{:<14} {:<32} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}%{}",
                ra.workload,
                name,
                x,
                y,
                g * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    breaches
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       all [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--check-repeat]");
            std::process::exit(2);
        }
    };
    let set = host::switches_set(|v| std::env::var_os(v).is_some());
    if !set.is_empty() {
        eprintln!("refusing to measure with {} set: a number taken under a switch is not a number of the default configuration", set.join(", "));
        std::process::exit(2);
    }
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let code = match (cli.mode.as_str(), &cli.workload) {
        ("child", Some(workload)) => child::run(&child::Args {
            workload: workload.clone(),
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            rounds: workloads::rounds(workload),
            out_dir: out_dir(),
        }),
        ("", Some(workload)) => match run_child(workload, cli.seed, seconds, cli.trace) {
            Ok(run) => {
                print_run(&run);
                println!("{}", run.result_json().to_text());
                i32::from(!run.correct())
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        },
        ("all", None) => {
            eprintln!("host: {}", host::fingerprint().to_text());
            let first = suite(&cli, seconds);
            let second = if cli.check_repeat {
                Some(suite(&cli, seconds))
            } else {
                None
            };
            match (first, second.transpose()) {
                (Ok(first), Ok(second)) => {
                    let mut bad = first.iter().filter(|r| !r.correct()).count();
                    match write_results(&cli, seconds, &first) {
                        Ok(path) => eprintln!("results written to {}", path.display()),
                        Err(e) => {
                            eprintln!("{e}");
                            bad += 1;
                        }
                    }
                    if let Some(second) = second {
                        bad += second.iter().filter(|r| !r.correct()).count();
                        bad += check_repeat(&first, &second);
                    }
                    i32::from(bad > 0)
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    1
                }
            }
        }
        _ => {
            eprintln!("give either --workload <name> or the word `all`");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_and_human_argument_forms() {
        let cli = parse(&strs(&[
            "--workload",
            "odin_chain",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("odin_chain"), 7, Some(3.0), true)
        );
        let cli = parse(&strs(&["--workload", "x", "--trace", "0", "--seed", "1"])).unwrap();
        assert!(!cli.trace && cli.seed == 1);
        let cli = parse(&strs(&["all", "--trace", "--check-repeat", "--smoke"])).unwrap();
        assert!(cli.mode == "all" && cli.trace && cli.check_repeat && cli.smoke);
        assert!(parse(&strs(&["--seconds", "0"])).is_err());
        assert!(parse(&strs(&["--seconds", "61"])).is_err());
        assert!(parse(&strs(&["--bogus"])).is_err());
        assert!(parse(&strs(&["--seed"])).is_err());
    }

    #[test]
    fn child_records_become_the_contract_result() {
        let text = "N\tnote\nM\top_p50_ms\t1.2034\tms\nM\tsetup_s\t0.8127\ts\nR\t1000\t0\n";
        let run = parse_child_output("w", false, text).unwrap();
        assert!(run.correct());
        let line = run.result_json().to_text();
        hpc_framework::obs::json::validate(&line).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"op_p50_ms\": \
             {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(
            parse_child_output("w", false, "M\ta\t1\ts\n").is_err(),
            "no result record"
        );
    }

    /// A wrong oracle is a failure, not a timing: the ops count as failed
    /// and the result says `correct: false`.
    #[test]
    fn failed_ops_make_the_result_incorrect() {
        let run = parse_child_output("w", false, "M\top_p50_ms\t1.0\tms\nR\t10\t3\n").unwrap();
        assert!(!run.correct());
        assert!(run
            .result_json()
            .to_text()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3"));
        let nan = parse_child_output("w", false, "M\top_p50_ms\tNaN\tms\nR\t10\t0\n").unwrap();
        assert!(
            !nan.correct(),
            "a metric that is not a number is not a result"
        );
    }

    #[test]
    fn repeat_check_flags_a_breach_and_an_inexact_count() {
        let mk = |trace: bool, name: &str, v: f64| Run {
            workload: "odin_kernel".into(),
            trace,
            metrics: vec![(name.into(), v, "x".into())],
            attempted: 1,
            failed: 0,
        };
        assert_eq!(
            check_repeat(
                &[mk(false, "op_p50_ms", 10.0)],
                &[mk(false, "op_p50_ms", 12.4)]
            ),
            0
        );
        assert_eq!(
            check_repeat(
                &[mk(false, "op_p50_ms", 10.0)],
                &[mk(false, "op_p50_ms", 12.6)]
            ),
            1
        );
        assert_eq!(
            check_repeat(
                &[mk(true, "odin.ctrl_msgs_per_op", 4.0)],
                &[mk(true, "odin.ctrl_msgs_per_op", 4.0)]
            ),
            0
        );
        assert_eq!(
            check_repeat(
                &[mk(true, "odin.ctrl_msgs_per_op", 4.0)],
                &[mk(true, "odin.ctrl_msgs_per_op", 4.01)]
            ),
            1
        );
    }
}
