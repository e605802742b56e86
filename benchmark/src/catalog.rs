//! Names, units and directions of everything the benchmark reports.
//! `BENCHMARK.json` at the repo root lists the same names; a unit test
//! keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher"; only the BENCHMARK.json consistency test reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the baseline by which the metric may get worse before it
    /// counts as a regression; per-layer metrics have none (0).
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "cg_poisson2d",
    "odin_kernel",
    "odin_shuffle",
    "odin_chain",
    "serve_mix",
];

/// What a user of the system sees; the same five on every workload.
/// Failed ops are not a metric here: the result line's
/// `attempted`/`failed`/`correct` carry them. The tail is a ratio to the
/// median of the same ops, not a second time in ms: the host's speed
/// drifts by 10-20 % over minutes, which moves both alike and cancels.
pub const END_TO_END: [Metric; 5] = [
    e("setup_s", "s", "lower", 0.25),
    e("op_p50_ms", "ms", "lower", 0.25),
    e("op_p90_over_p50", "ratio", "lower", 0.25),
    e("ops_per_s", "1/s", "higher", 0.25),
    e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// The crates, plus `bench` for the harness itself: every span's layer
/// is one of these and each has a `share.<layer>` metric (tests check both).
#[cfg(test)]
pub const LAYERS: [&str; 10] = [
    "comm", "dmap", "dlinalg", "solvers", "galeri", "odin", "seamless", "serve", "obs", "bench",
];

pub const PER_LAYER: [Metric; 63] = [
    m("comm.p2p_rtt_us", "us", "lower"),
    m("comm.allreduce_us", "us", "lower"),
    m("comm.p2p_encode_gbps", "GB/s", "higher"),
    m("comm.p2p_region_gbps", "GB/s", "higher"),
    m("comm.msgs_per_op", "count", "lower"),
    m("comm.bytes_per_op", "B", "lower"),
    m("comm.recv_wait_share", "ratio", "lower"),
    m("comm.model_over_wall", "ratio", "higher"),
    m("dmap.plan_build_us", "us", "lower"),
    m("dmap.plan_exec_us", "us", "lower"),
    m("dmap.plan_hit_ratio", "ratio", "higher"),
    m("dlinalg.spmv_us", "us", "lower"),
    m("dlinalg.dot_us", "us", "lower"),
    m("dlinalg.axpy_us", "us", "lower"),
    m("dlinalg.spmv_gbps_computed", "GB/s", "higher"),
    m("solvers.cg_iters", "count", "lower"),
    m("solvers.cg_iter_us", "us", "lower"),
    m("solvers.precond_apply_us", "us", "lower"),
    m("solvers.self_share", "ratio", "lower"),
    m("solvers.cg_1rank_op_ms", "ms", "lower"),
    m("solvers.cg_2rank_efficiency", "ratio", "higher"),
    m("galeri.assemble_ms", "ms", "lower"),
    m("odin.ctrl_rtt_us", "us", "lower"),
    m("odin.dispatch_us", "us", "lower"),
    m("odin.reduce_rtt_us", "us", "lower"),
    m("odin.redistribute_ms", "ms", "lower"),
    m("odin.slice_shift_ms", "ms", "lower"),
    m("odin.fetch_gbps", "GB/s", "higher"),
    m("odin.ctrl_msgs_per_op", "count", "lower"),
    m("odin.ctrl_bytes_per_msg", "B", "lower"),
    m("odin.data_bytes_per_op", "B", "lower"),
    m("odin.channel_sends_per_op", "count", "lower"),
    m("odin.spawn_ms", "ms", "lower"),
    m("seamless.compile_us", "us", "lower"),
    m("seamless.native_build_ms", "ms", "lower"),
    m("seamless.native_compiles_per_op", "count", "lower"),
    m("seamless.cache_hits_per_op", "count", "higher"),
    m("seamless.vm_ns_per_lane", "ns", "lower"),
    m("seamless.native_ns_per_lane", "ns", "lower"),
    m("seamless.kernel_gflops_computed", "GFLOP/s", "higher"),
    m("serve.queue_wait_p50_ms", "ms", "lower"),
    m("serve.service_p50_ms", "ms", "lower"),
    m("serve.overhead_p50_ms", "ms", "lower"),
    m("serve.pool_busy_share", "ratio", "higher"),
    m("serve.idle_submit_ms", "ms", "lower"),
    m("serve.job_p99_ms", "ms", "lower"),
    m("serve.goodput_elems_s", "elem/s", "higher"),
    m("serve.attempts_per_job", "count", "lower"),
    m("serve.refused_share", "ratio", "lower"),
    m("obs.enabled_overhead_ratio", "ratio", "lower"),
    m("bench.trace_overhead_ratio", "ratio", "lower"),
    m("bench.cpu_s_per_op", "s", "lower"),
    m("bench.timer_ns", "ns", "lower"),
    m("share.comm", "ratio", "lower"),
    m("share.dmap", "ratio", "lower"),
    m("share.dlinalg", "ratio", "lower"),
    m("share.solvers", "ratio", "lower"),
    m("share.galeri", "ratio", "lower"),
    m("share.odin", "ratio", "lower"),
    m("share.seamless", "ratio", "lower"),
    m("share.serve", "ratio", "lower"),
    m("share.obs", "ratio", "lower"),
    m("share.bench", "ratio", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names and units.
    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for met in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(met.name), "{}", met.name);
            assert!(unit_ok(met.unit), "{} {}", met.name, met.unit);
            assert!(matches!(met.better, "lower" | "higher"));
            assert!(seen.insert(met.name), "duplicate {}", met.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w));
        }
        for layer in LAYERS {
            assert!(PER_LAYER
                .iter()
                .any(|met| met.name == format!("share.{layer}")));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` must list exactly this catalogue. The repo has no
    /// JSON reader, so the check is textual: every name appears as a
    /// `"name": "<name>"` pair with its unit and direction on the same
    /// line, and the file has no other `"name"` entries.
    #[test]
    fn benchmark_json_lists_the_same_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        hpc_framework::obs::json::validate(&text).expect("BENCHMARK.json parses");
        for met in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let want = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                met.name, met.unit, met.better
            );
            assert!(text.contains(&want), "BENCHMARK.json lacks {want}");
            if met.bound > 0.0 {
                let with_bound = format!("{want}, \"bound\": {}}}", met.bound);
                assert!(
                    text.contains(&with_bound),
                    "BENCHMARK.json lacks {with_bound}"
                );
            }
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
        let listed = text.matches("\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
