//! Per-rank span timelines.
//!
//! Each rank (thread) records completed spans into its own bounded ring
//! buffer, so tracing a long run costs O(capacity) memory per rank and
//! recording never blocks on other ranks (each thread locks only its own
//! buffer, which is uncontended except during export). Every span carries
//! **two** time axes:
//!
//! * wall time — measured on this host, microseconds since process start;
//! * virtual time — the rank's LogGP model clock from `comm`, which is
//!   what gives traces their *cluster* shape when more ranks are
//!   simulated than cores exist.
//!
//! The Chrome-trace exporter uses virtual time for the timeline and
//! attaches wall times as span arguments.

use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-rank ring capacity (events). Oldest events are overwritten
/// once full; the drop count is reported in the trace metadata.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Structural role of a span in the program activity graph. The
/// critical-path walk ([`crate::critpath`]) only treats *event* spans
/// (everything except [`SpanKind::Other`]) as clock-advancing timeline
/// entries; container spans (collectives, solver iterations, phases) are
/// context and may nest freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// A container or annotation span (the default).
    #[default]
    Other,
    /// A point-to-point send request (post → wait).
    Send,
    /// A point-to-point receive request (post → delivery).
    Recv,
    /// A reliable-delivery retransmission.
    Retx,
    /// Seamless VM kernel execution on a worker.
    Kernel,
}

/// Causal metadata attached to a span at finish time; see
/// [`SpanTimer::finish_meta`]. `Default` is an [`SpanKind::Other`] span
/// with no flow edges, which is what plain [`SpanTimer::finish`] records.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanMeta {
    /// Structural role (see [`SpanKind`]).
    pub kind: SpanKind,
    /// Flow id this span *produced* (stamped on an outgoing message).
    pub flow_out: u64,
    /// Flow id this span *consumed* (carried by the message it received).
    pub flow_in: u64,
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Subsystem category: `"comm"`, `"odin"`, `"solver"`, …
    pub cat: &'static str,
    /// Span name, e.g. `allreduce(tree)` or `cg.iter`. Hot paths pass a
    /// `&'static str` so recording a span allocates nothing for the name.
    pub name: Cow<'static, str>,
    /// Virtual-clock start/end, seconds.
    pub virt_start_s: f64,
    /// Virtual-clock end, seconds.
    pub virt_end_s: f64,
    /// Wall-clock start/end, seconds since process start.
    pub wall_start_s: f64,
    /// Wall-clock end, seconds since process start.
    pub wall_end_s: f64,
    /// Numeric arguments (`bytes`, `residual`, …).
    pub args: Vec<(&'static str, f64)>,
    /// Structural role in the program activity graph.
    pub kind: SpanKind,
    /// Flow id produced by this span ([`crate::flow::NONE`] if none).
    pub flow_out: u64,
    /// Flow id consumed by this span ([`crate::flow::NONE`] if none).
    pub flow_in: u64,
}

impl SpanEvent {
    /// Look up a numeric argument by key (first match).
    pub fn arg(&self, key: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// One rank's buffered timeline.
struct Ring {
    /// Rank this thread recorded as, `None` for the driver/master thread.
    rank: Option<usize>,
    events: Vec<SpanEvent>,
    capacity: usize,
    /// Next write position once `events` reached capacity.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            rank: None,
            events: Vec::new(),
            capacity: DEFAULT_RING_CAPACITY,
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
            // Mirror the loss into the registry so truncated profiles are
            // loud (`obs.spans_dropped{rank}` + a text-report warning),
            // not just trace metadata. Only the overflow path pays this.
            let rank = match self.rank {
                Some(r) => r.to_string(),
                None => "driver".to_string(),
            };
            crate::registry::global()
                .counter(&crate::registry::key(
                    "obs.spans_dropped",
                    &[("rank", &rank)],
                ))
                .inc();
        }
    }

    /// Events in arrival order.
    fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

fn all_rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

fn my_ring() -> Arc<Mutex<Ring>> {
    MY_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some(r) = slot.as_ref() {
            return Arc::clone(r);
        }
        let ring = Arc::new(Mutex::new(Ring::new()));
        all_rings().lock().unwrap().push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

/// Tag the current thread's timeline with a rank id. `comm::Universe`
/// calls this on every rank thread it spawns.
fn set_rank(rank: Option<usize>) {
    my_ring().lock().unwrap().rank = rank;
}

/// The rank the current thread recorded as, if any.
fn current_rank() -> Option<usize> {
    MY_RING.with(|slot| slot.borrow().as_ref().and_then(|r| r.lock().unwrap().rank))
}

/// RAII rank tag: sets the thread's rank and, for *nested* scopes,
/// restores the enclosing rank on drop. Leaving the outermost scope
/// keeps the tag sticky — the thread's ring stays attributed to the last
/// rank it ran as, so traces exported after rank threads finish still
/// carry per-rank timelines.
pub struct RankGuard {
    prev: Option<usize>,
}

impl RankGuard {
    /// Enter a rank scope on this thread.
    pub fn enter(rank: usize) -> Self {
        let prev = current_rank();
        set_rank(Some(rank));
        RankGuard { prev }
    }
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        if self.prev.is_some() {
            set_rank(self.prev);
        }
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Wall-clock seconds since process start (first use).
pub fn wall_now_s() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// Start-of-span timestamps; produce with [`span_start`], consume with
/// [`SpanTimer::finish`]. Callers only construct one after checking
/// [`crate::enabled`], so the disabled path never touches the clock.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    wall_start_s: f64,
    virt_start_s: f64,
}

/// Capture span start times. `virt_now_s` is the rank's virtual clock
/// (pass the wall clock again for un-modeled threads like the ODIN
/// master).
#[inline]
pub fn span_start(virt_now_s: f64) -> SpanTimer {
    SpanTimer {
        wall_start_s: wall_now_s(),
        virt_start_s: virt_now_s,
    }
}

impl SpanTimer {
    /// Record the completed span on the current thread's timeline.
    pub fn finish(
        self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        virt_now_s: f64,
        args: &[(&'static str, f64)],
    ) {
        self.finish_meta(cat, name, virt_now_s, args, SpanMeta::default());
    }

    /// [`SpanTimer::finish`] with causal metadata: the span's structural
    /// [`SpanKind`] and the flow ids it produced/consumed.
    pub fn finish_meta(
        self,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        virt_now_s: f64,
        args: &[(&'static str, f64)],
        meta: SpanMeta,
    ) {
        let ev = SpanEvent {
            cat,
            name: name.into(),
            virt_start_s: self.virt_start_s,
            virt_end_s: virt_now_s,
            wall_start_s: self.wall_start_s,
            wall_end_s: wall_now_s(),
            args: args.to_vec(),
            kind: meta.kind,
            flow_out: meta.flow_out,
            flow_in: meta.flow_in,
        };
        my_ring().lock().unwrap().push(ev);
    }
}

/// Snapshot every thread's timeline: `(rank, dropped, events)` per ring,
/// in registration order.
pub fn snapshot_all() -> Vec<(Option<usize>, u64, Vec<SpanEvent>)> {
    all_rings()
        .lock()
        .unwrap()
        .iter()
        .map(|r| {
            let ring = r.lock().unwrap();
            (ring.rank, ring.dropped, ring.events())
        })
        .collect()
}

/// Clear every buffered span (keeps rank tags).
pub fn clear_all() {
    for r in all_rings().lock().unwrap().iter() {
        let mut ring = r.lock().unwrap();
        ring.events.clear();
        ring.head = 0;
        ring.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_per_thread_rings() {
        clear_all();
        let t = span_start(1.0);
        t.finish("test", "op", 2.0, &[("bytes", 64.0)]);
        std::thread::spawn(|| {
            let _g = RankGuard::enter(7);
            let t = span_start(0.5);
            t.finish("test", "worker-op", 0.75, &[]);
        })
        .join()
        .unwrap();
        let rings = snapshot_all();
        let mine: Vec<_> = rings
            .iter()
            .flat_map(|(_, _, evs)| evs.iter())
            .filter(|e| e.name == "op")
            .collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].virt_start_s, 1.0);
        assert_eq!(mine[0].virt_end_s, 2.0);
        assert_eq!(mine[0].args, vec![("bytes", 64.0)]);
        let worker: Vec<_> = rings
            .iter()
            .filter(|(rank, _, _)| *rank == Some(7))
            .collect();
        assert_eq!(worker.len(), 1);
        assert_eq!(worker[0].2.len(), 1);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = Ring::new();
        ring.capacity = 4;
        for i in 0..6 {
            ring.push(SpanEvent {
                cat: "t",
                name: format!("e{i}").into(),
                virt_start_s: 0.0,
                virt_end_s: 0.0,
                wall_start_s: 0.0,
                wall_end_s: 0.0,
                args: vec![],
                kind: SpanKind::Other,
                flow_out: 0,
                flow_in: 0,
            });
        }
        assert_eq!(ring.dropped, 2);
        let names: Vec<String> = ring
            .events()
            .into_iter()
            .map(|e| e.name.into_owned())
            .collect();
        assert_eq!(names, vec!["e2", "e3", "e4", "e5"]);
    }
}
