//! Human-readable text report and machine-readable registry dump.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::registry;
use crate::span;
use crate::trace::escape_json;

/// Dump the global registry as a JSON object:
/// `{"counters":{…},"gauges":{…},"histograms":{"k":{"count":…,"sum":…,
/// "min":…,"max":…,"buckets":[…]}}}`. `HPC_METRICS=<path>` writes this
/// at [`crate::finalize`].
pub fn metrics_json() -> String {
    let mut counters = String::new();
    let mut gauges = String::new();
    let mut hists = String::new();
    registry::global().for_each(|key, kind, value, snap| match kind {
        "counter" => {
            if !counters.is_empty() {
                counters.push(',');
            }
            let _ = write!(counters, "\"{}\":{}", escape_json(key), value as u64);
        }
        "gauge" => {
            if !gauges.is_empty() {
                gauges.push(',');
            }
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(gauges, "\"{}\":{}", escape_json(key), v);
        }
        _ => {
            let s = snap.expect("histogram entries carry snapshots");
            if !hists.is_empty() {
                hists.push(',');
            }
            let min = if s.count == 0 { 0 } else { s.min };
            let _ = write!(
                hists,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                escape_json(key),
                s.count,
                s.sum,
                min,
                s.max
            );
            // Trim trailing empty buckets to keep the dump readable.
            let last = s.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
            for (i, b) in s.buckets[..last].iter().enumerate() {
                if i > 0 {
                    hists.push(',');
                }
                let _ = write!(hists, "{b}");
            }
            hists.push_str("]}");
        }
    });
    format!("{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{hists}}}}}")
}

/// Pretty-print a byte-ish quantity for the text report.
fn fmt_qty(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if v == v.trunc() {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable report: every metric in key order, histograms with
/// count/mean/min/max and a sparkline of the log2 profile, then a span
/// summary aggregated by `category.name` over all ranks.
pub fn text_report() -> String {
    let mut out = String::new();
    out.push_str("== observability report ==\n");
    out.push_str("-- metrics --\n");
    let mut any = false;
    registry::global().for_each(|key, kind, value, snap| {
        any = true;
        match kind {
            "counter" => {
                let _ = writeln!(out, "  {key:<48} {:>12}", fmt_qty(value));
            }
            "gauge" => {
                let _ = writeln!(out, "  {key:<48} {value:>12.4}");
            }
            _ => {
                let s = snap.expect("histogram entries carry snapshots");
                let mean = if s.count == 0 {
                    0.0
                } else {
                    s.sum as f64 / s.count as f64
                };
                let min = if s.count == 0 { 0 } else { s.min };
                let bars: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
                let peak = s.buckets.iter().copied().max().unwrap_or(0).max(1);
                let last = s.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
                let spark: String = s.buckets[..last]
                    .iter()
                    .map(|&b| bars[(b * 8).div_ceil(peak) as usize])
                    .collect();
                let _ = writeln!(
                    out,
                    "  {key:<48} n={} mean={} min={} max={} log2=[{spark}]",
                    fmt_qty(s.count as f64),
                    fmt_qty(mean),
                    fmt_qty(min as f64),
                    fmt_qty(s.max as f64),
                );
            }
        }
    });
    if !any {
        out.push_str("  (no metrics recorded)\n");
    }
    out.push_str("-- spans (all ranks) --\n");
    // (cat, name) -> (count, total virtual seconds, total wall seconds)
    let mut agg: BTreeMap<(String, String), (u64, f64, f64)> = BTreeMap::new();
    let mut ranks = 0usize;
    for (rank, dropped, events) in span::snapshot_all() {
        if dropped > 0 {
            let who = rank.map_or("driver".to_string(), |r| format!("rank {r}"));
            let _ = writeln!(
                out,
                "  WARNING: {who} overwrote {dropped} spans (ring full) — \
                 traces and profiles are truncated"
            );
        }
        if !events.is_empty() {
            ranks += 1;
        }
        for ev in events {
            let e = agg
                .entry((ev.cat.to_string(), ev.name.to_string()))
                .or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += (ev.virt_end_s - ev.virt_start_s).max(0.0);
            e.2 += (ev.wall_end_s - ev.wall_start_s).max(0.0);
        }
    }
    if agg.is_empty() {
        out.push_str("  (no spans recorded)\n");
    } else {
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>14} {:>14}   ({ranks} active timelines)",
            "span", "count", "virt total", "wall total"
        );
        for ((cat, name), (count, virt, wall)) in agg {
            let _ = writeln!(
                out,
                "  {:<40} {count:>10} {virt:>13.6}s {wall:>13.6}s",
                format!("{cat}.{name}")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_json_is_valid_and_complete() {
        registry::global()
            .counter("report.test_counter{rank=0}")
            .add(7);
        registry::global().gauge("report.test_gauge").set(1.5);
        registry::global().histogram("report.test_hist").record(100);
        let j = metrics_json();
        crate::json::validate(&j).expect("metrics dump must be valid JSON");
        assert!(j.contains("\"report.test_counter{rank=0}\":7"));
        assert!(j.contains("report.test_gauge"));
        assert!(j.contains("report.test_hist"));
    }

    #[test]
    fn text_report_renders_without_panicking() {
        registry::global().histogram("report.render_hist").record(0);
        let r = text_report();
        assert!(r.contains("observability report"));
        assert!(r.contains("report.render_hist"));
    }
}
