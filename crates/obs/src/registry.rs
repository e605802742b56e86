//! Process-global metrics registry: counters, gauges, log2 histograms.
//!
//! Metrics are identified by a full key string, conventionally
//! `subsystem.name{label=value,…}` — e.g. `comm.bytes_sent{rank=3}` or
//! `solver.iterations{solver=cg}`. [`Registry::counter`] and friends
//! return cheap `Arc`-backed handles; repeated lookups with the same key
//! return handles to the same underlying atomic, so instrumentation sites
//! may either cache a handle or re-look it up each time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of log2 buckets: bucket `i` holds values `v` with
/// `bit_length(v) == i`, i.e. bucket 0 is `v == 0`, bucket 1 is `v == 1`,
/// bucket 11 is `1024..=2047`, and so on up to `u64::MAX`.
const HISTOGRAM_BUCKETS: usize = 65;

/// Monotone counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge holding an `f64` (stored as bits in an atomic).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log2-bucketed histogram of `u64` samples (message sizes, iteration
/// counts…). Records count, sum, min, max and a 65-bucket log2 profile.
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Histogram handle.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Read-only snapshot of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (u64::MAX when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Log2 bucket counts; bucket `i` covers `[2^(i-1), 2^i)` (bucket 0
    /// is exactly zero, bucket 1 exactly one).
    pub buckets: Vec<u64>,
}

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Bucket index of a value: its bit length.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let h = &self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the histogram.
    fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: a name → metric map. Normally accessed through
/// [`global`], but tests may build private instances.
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create the counter named `key`. Panics if `key` already
    /// names a different metric kind.
    pub fn counter(&self, key: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(key.to_string())
            .or_insert_with(|| Slot::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// Get or create the gauge named `key`.
    pub fn gauge(&self, key: &str) -> Gauge {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(key.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits())))))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// Get or create the histogram named `key`.
    pub fn histogram(&self, key: &str) -> Histogram {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(key.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::new()))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric {key:?} already registered with a different kind"),
        }
    }

    /// Value of a counter if it exists (tests and exporters).
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.slots.lock().unwrap().get(key) {
            Some(Slot::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Value of a gauge if it exists.
    pub fn gauge_value(&self, key: &str) -> Option<f64> {
        match self.slots.lock().unwrap().get(key) {
            Some(Slot::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Sum of all counters whose key starts with `prefix` (aggregating
    /// over label instances, e.g. every `comm.bytes_sent{rank=…}`).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, s)| match s {
                Slot::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Remove every metric.
    pub fn clear(&self) {
        self.slots.lock().unwrap().clear();
    }

    /// Visit every metric in key order, formatted for the exporters:
    /// counters/gauges yield `(key, kind, value-as-f64, None)`, histograms
    /// yield their snapshot.
    pub fn for_each(&self, mut f: impl FnMut(&str, &'static str, f64, Option<&HistogramSnapshot>)) {
        for (key, slot) in self.slots.lock().unwrap().iter() {
            match slot {
                Slot::Counter(c) => f(key, "counter", c.get() as f64, None),
                Slot::Gauge(g) => f(key, "gauge", g.get(), None),
                Slot::Histogram(h) => {
                    let s = h.snapshot();
                    f(key, "histogram", s.count as f64, Some(&s));
                }
            }
        }
    }
}

/// The process-global registry.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Format a metric key with labels: `key("comm.bytes_sent", &[("rank",
/// "3")])` → `comm.bytes_sent{rank=3}`. With no labels, returns the name
/// as-is.
pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.add(3);
        b.inc();
        assert_eq!(r.counter_value("x.count"), Some(4));
        assert_eq!(r.counter_value("missing"), None);
    }

    #[test]
    fn gauges_hold_last_value() {
        let r = Registry::new();
        let g = r.gauge("g");
        g.set(2.5);
        g.set(-1.0);
        assert_eq!(r.gauge_value("g"), Some(-1.0));
    }

    #[test]
    fn histogram_log2_bucketing() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let r = Registry::new();
        let h = r.histogram("h");
        for v in [0u64, 1, 3, 1024, 1500] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 2528);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1500);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[11], 2);
    }

    #[test]
    fn key_formatting() {
        assert_eq!(key("a.b", &[]), "a.b");
        assert_eq!(key("a.b", &[("rank", "3")]), "a.b{rank=3}");
        assert_eq!(
            key("a.b", &[("rank", "3"), ("solver", "cg")]),
            "a.b{rank=3,solver=cg}"
        );
    }

    #[test]
    fn counter_sum_aggregates_label_instances() {
        let r = Registry::new();
        r.counter("c.bytes{rank=0}").add(10);
        r.counter("c.bytes{rank=1}").add(5);
        r.counter("c.other").add(100);
        assert_eq!(r.counter_sum("c.bytes"), 15);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("dual");
        r.gauge("dual");
    }
}
