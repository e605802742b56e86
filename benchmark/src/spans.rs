//! Spans recorded by the benchmark's own code around calls into a
//! layer's public functions (choosing-metrics §4). Nothing here reaches
//! into the crates: a span is opened before the call and closed after it.
//!
//! What cannot be seen from outside (the inside of one `solvers::cg`
//! call, the kernel a worker runs during an `eval`, the service part of
//! a served job) is added as *reconstructed* child spans whose length
//! comes from probe medians or from durations the API reports. They are
//! flagged in the span file and go through the same self-time arithmetic.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    /// The workload op this span belongs to: spans of one op share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    pub reconstructed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's recorder. `Tracer::off()` makes every call a branch and
/// nothing else, so the untraced run executes the same workload code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed: Option<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// Tracers of one run share `epoch` so their spans share a time axis.
    pub fn on(epoch: Instant, thread: u32) -> Tracer {
        Tracer::new(true, epoch, thread)
    }

    fn new(on: bool, epoch: Instant, thread: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span. The tracer is handed back to `f` so calls
    /// made there nest under this span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name,
            op,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            thread: self.thread,
            reconstructed: false,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.last_closed = Some(id);
        out
    }

    /// Add reconstructed children to the span that closed last: `parts`
    /// are `(layer, name, nanoseconds)`. They are laid end to end,
    /// finishing where the parent finishes, and scaled down together if
    /// they claim more than the parent's own duration.
    pub fn reconstruct(&mut self, parts: &[(&'static str, &'static str, f64)]) {
        let Some(pid) = self.last_closed.filter(|_| self.on) else {
            return;
        };
        let parent = self.spans[pid as usize].clone();
        let claimed: f64 = parts.iter().map(|p| p.2.max(0.0)).sum();
        if claimed <= 0.0 {
            return;
        }
        let scale = (parent.dur_ns() as f64 / claimed).min(1.0);
        let mut end = parent.end_ns;
        for &(layer, name, ns) in parts.iter().rev() {
            let dur = (ns.max(0.0) * scale) as u64;
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(pid),
                layer,
                name,
                op: parent.op,
                start_ns: end - dur.min(end - parent.start_ns),
                end_ns: end,
                thread: self.thread,
                reconstructed: true,
            });
            end -= dur.min(end - parent.start_ns);
        }
    }

    /// Duration of the span that closed last (0 when off).
    pub fn last_dur_ns(&self) -> f64 {
        self.last_closed
            .map_or(0.0, |id| self.spans[id as usize].dur_ns() as f64)
    }

    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Join per-thread span lists, renumbering ids so they stay unique.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len() as u32;
        all.extend(part.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time per layer: each span's duration minus what its children
/// cover, summed by the span's layer. Children of one parent never
/// overlap here (a thread's calls are sequential), so coverage is a sum.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered[s.id as usize]);
    }
    by_layer
}

/// Total duration of root spans: what the self times must add up to.
pub fn root_time(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("time_unit", Json::str("ns")),
        ("root_ns", Json::Int(root_time(spans))),
        (
            "self_ns_by_layer",
            Json::Obj(
                selfs
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Int(*v)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("id", Json::Int(s.id.into())),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p.into())),
                            ),
                            ("layer", Json::str(s.layer)),
                            ("name", Json::str(s.name)),
                            ("op", Json::Int(s.op)),
                            ("start", Json::Int(s.start_ns)),
                            ("end", Json::Int(s.end_ns)),
                            ("thread", Json::Int(s.thread.into())),
                            ("reconstructed", Json::Bool(s.reconstructed)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            op: 0,
            start_ns: start,
            end_ns: end,
            thread: 0,
            reconstructed: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "bench", 0, 100),
            span(1, Some(0), "odin", 10, 60),
            span(2, Some(1), "seamless", 20, 50),
            span(3, Some(0), "odin", 60, 90),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 100 - 50 - 30);
        assert_eq!(t["odin"], (50 - 30) + 30);
        assert_eq!(t["seamless"], 30);
        assert_eq!(t.values().sum::<u64>(), root_time(&spans));
    }

    #[test]
    fn tracer_nests_and_reconstructs_within_the_parent() {
        let mut tr = Tracer::on(Instant::now(), 3);
        tr.span("bench", "op", 7, |tr| {
            tr.span("solvers", "cg", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            // claims far more than the 2 ms the call took: must be scaled
            tr.reconstruct(&[("comm", "allreduce", 3e9), ("dlinalg", "spmv", 1e9)]);
        });
        let spans = tr.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2].reconstructed && spans[2].parent == Some(1));
        let cg = &spans[1];
        for s in &spans[2..] {
            assert!(
                s.start_ns >= cg.start_ns && s.end_ns <= cg.end_ns,
                "{s:?} outside {cg:?}"
            );
            assert_eq!((s.op, s.thread), (7, 3));
        }
        let t = self_times(&spans);
        assert_eq!(t.values().sum::<u64>(), root_time(&spans));
        assert!(
            t["comm"] > 2 * t["dlinalg"],
            "3:1 claim must keep its proportion: {t:?}"
        );
        assert!(
            t["solvers"] <= 2,
            "children cover the parent up to rounding: {t:?}"
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("odin", "eval", 0, |tr| {
            tr.reconstruct(&[("seamless", "kernel", 5.0)]);
            41 + 1
        });
        assert_eq!(v, 42);
        assert!(tr.finish().is_empty());
    }

    #[test]
    fn merge_keeps_parent_links_and_the_file_is_valid_json() {
        let a = vec![
            span(0, None, "serve", 0, 10),
            span(1, Some(0), "odin", 2, 8),
        ];
        let b = a.clone();
        let all = merge(vec![a, b]);
        assert_eq!(all[3].id, 3);
        assert_eq!(all[3].parent, Some(2));
        let text = to_json("w", 1, &all).to_text();
        hpc_framework::obs::json::validate(&text).unwrap();
    }
}
