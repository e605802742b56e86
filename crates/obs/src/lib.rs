//! # obs — unified observability for the framework
//!
//! The paper (§III-J) names "instrumentation to help identify performance
//! bottlenecks associated with different communication patterns" as an
//! explicit ODIN goal. This crate is that layer, shared by every other
//! crate in the workspace:
//!
//! * a process-global [`Registry`] of named counters,
//!   gauges and log2-bucketed histograms with labeled instances
//!   (`comm.bytes_sent{rank=3}`);
//! * lightweight [spans](span) recorded into per-rank ring buffers,
//!   timestamped with **both** wall time and the rank's LogGP virtual
//!   clock;
//! * exporters: [Chrome-trace / Perfetto JSON](trace) and a
//!   [human-readable text report](report).
//!
//! ## The disabled-path guarantee
//!
//! All instrumentation is guarded by one process-global relaxed
//! [`AtomicBool`]. When observability is off (the default), every
//! instrumented hot path reduces to a single `Relaxed` atomic load —
//! no allocation, no locking, no branching beyond the one test. The
//! guarantee is enforced by `tests/observability.rs`.
//!
//! ## Activation
//!
//! Programmatic: [`set_enabled`]`(true)`. From the environment (read once
//! by [`init_from_env`], which the `experiments` binary and `comm::Universe`
//! call):
//!
//! * `HPC_TRACE=<path>` — enable and, at [`finalize`], write a Chrome
//!   trace to `<path>` (open in <https://ui.perfetto.dev> or
//!   `chrome://tracing`);
//! * `HPC_METRICS=1` — enable and, at [`finalize`], print the text
//!   report to stderr; `HPC_METRICS=<path>` instead writes the JSON
//!   metrics snapshot to `<path>`;
//! * `HPC_CRITPATH=1` — enable and, at [`finalize`], print the
//!   [critical-path report](critpath) to stderr; `HPC_CRITPATH=<path>`
//!   writes the machine-readable JSON profile to `<path>`.

pub mod critpath;
pub mod flow;
pub mod graph;
pub mod json;
pub mod registry;
pub mod report;
pub mod rng;
pub mod span;
pub mod trace;

pub use registry::{global, Counter, Gauge, Histogram, Registry};
pub use rng::SplitMix64;
pub use span::RankGuard;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, OnceLock};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is observability on? One relaxed atomic load — this is the *entire*
/// cost of every instrumentation site when recording is disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off globally. Spans and metrics recorded while
/// enabled stay buffered either way; disabling only stops new recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// What `init_from_env` found (kept for `finalize`).
#[derive(Debug, Clone, Default)]
struct EnvConfig {
    trace_path: Option<String>,
    metrics_report: bool,
    metrics_path: Option<String>,
    critpath_report: bool,
    critpath_path: Option<String>,
}

/// Parse an on/off-or-path env value: `(false, None)` when unset, empty
/// or `"0"`; `(true, None)` for `"1"` (stderr report); `(false,
/// Some(path))` for anything else (write to that file).
fn report_or_path(var: &str) -> (bool, Option<String>) {
    match std::env::var(var) {
        Ok(v) if v.is_empty() || v == "0" => (false, None),
        Ok(v) if v == "1" => (true, None),
        Ok(v) => (false, Some(v)),
        Err(_) => (false, None),
    }
}

fn env_config() -> &'static Mutex<EnvConfig> {
    static CFG: OnceLock<Mutex<EnvConfig>> = OnceLock::new();
    CFG.get_or_init(|| Mutex::new(EnvConfig::default()))
}

/// Read `HPC_TRACE` / `HPC_METRICS` once and enable recording if either
/// is set. Idempotent and cheap to call from library entry points.
pub fn init_from_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let trace_path = std::env::var("HPC_TRACE").ok().filter(|s| !s.is_empty());
        let (metrics_report, metrics_path) = report_or_path("HPC_METRICS");
        let (critpath_report, critpath_path) = report_or_path("HPC_CRITPATH");
        if trace_path.is_some()
            || metrics_report
            || metrics_path.is_some()
            || critpath_report
            || critpath_path.is_some()
        {
            set_enabled(true);
        }
        *env_config().lock().unwrap() = EnvConfig {
            trace_path,
            metrics_report,
            metrics_path,
            critpath_report,
            critpath_path,
        };
    });
}

/// Honor the environment configuration captured by [`init_from_env`]:
/// write the Chrome trace to `$HPC_TRACE` and/or print the text report
/// when `$HPC_METRICS` is set. Call at the end of a program; a no-op when
/// neither variable was set.
pub fn finalize() {
    let cfg = env_config().lock().unwrap().clone();
    if let Some(path) = &cfg.trace_path {
        match trace::write_chrome_trace(path) {
            Ok(n) => eprintln!("obs: wrote {n} trace events to {path}"),
            Err(e) => eprintln!("obs: failed to write trace to {path}: {e}"),
        }
    }
    if cfg.metrics_report {
        eprint!("{}", report::text_report());
    }
    if let Some(path) = &cfg.metrics_path {
        match std::fs::write(path, report::metrics_json()) {
            Ok(()) => eprintln!("obs: wrote metrics snapshot to {path}"),
            Err(e) => eprintln!("obs: failed to write metrics to {path}: {e}"),
        }
    }
    if cfg.critpath_report || cfg.critpath_path.is_some() {
        let profile = critpath::profile_current();
        if cfg.critpath_report {
            eprint!("{}", profile.text());
        }
        if let Some(path) = &cfg.critpath_path {
            match std::fs::write(path, profile.to_json()) {
                Ok(()) => eprintln!("obs: wrote critical-path profile to {path}"),
                Err(e) => eprintln!("obs: failed to write profile to {path}: {e}"),
            }
        }
    }
}

/// Reset every buffer and counter (tests use this to isolate runs).
/// Leaves the enabled flag untouched.
pub fn reset() {
    registry::global().clear();
    span::clear_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_flag_round_trips() {
        let was = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(was);
    }
}
