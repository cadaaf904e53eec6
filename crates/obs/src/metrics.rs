//! In-memory metrics: named counters, gauges, and log-bucketed
//! histograms on lock-free atomics.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones; hot call sites resolve a name once and keep the handle.
//! Recording is a relaxed atomic op — but instrumentation sites should
//! still gate on [`crate::enabled`] so a disabled run skips even that
//! (the "no-ops when observability is off" contract asserted by CI).
//!
//! Histograms bucket by bit length (powers of two): value `v` lands in
//! bucket `⌈log2(v+1)⌉`, i.e. bucket 0 holds exactly 0, bucket `i` holds
//! `[2^(i-1), 2^i)`. That gives ~64 buckets covering the full `u64`
//! range — plenty for latency-in-ns and rate distributions.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistInner {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A log-bucketed (power-of-two) histogram.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
#[inline]
#[must_use]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
#[must_use]
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    #[inline]
    pub fn record(&self, v: u64) {
        let h = &*self.0;
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.min.fetch_min(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                None
            } else {
                Some(h.min.load(Ordering::Relaxed))
            },
            max: h.max.load(Ordering::Relaxed),
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower(i), n))
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: Option<u64>,
    pub max: u64,
    /// `(inclusive lower bound, count)` for each non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values, or 0 with no samples.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A process-wide registry of named metrics. Lookups lock a map; hot
/// sites should resolve once and keep the returned handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MetricsRegistry {
    #[must_use]
    pub const fn new() -> Self {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns (creating on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        if let Some(c) = map.get(name) {
            return c.clone();
        }
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The current value of the counter named `name`, without creating
    /// it as a side effect. Health endpoints and CI assertions use this
    /// to probe "has X happened?" — an absent counter answers `None`
    /// rather than materialising a zero that then pollutes snapshots.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        lock(&self.counters).get(name).map(Counter::get)
    }

    /// Returns (creating on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        if let Some(g) = map.get(name) {
            return g.clone();
        }
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return h.clone();
        }
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Drops every metric. Handles held by call sites detach (they keep
    /// counting into orphaned cells); used between CLI runs and tests.
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
    }

    /// Point-in-time copy of every metric, names ascending.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry used by all built-in instrumentation.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: MetricsRegistry = MetricsRegistry::new();
    &GLOBAL
}

/// Point-in-time copy of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// JSON form, used by `--report-json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Json::obj(vec![
                            ("count", Json::num(h.count)),
                            ("sum", Json::num(h.sum)),
                            ("min", h.min.map_or(Json::Null, Json::num)),
                            ("max", Json::num(h.max)),
                            ("mean", Json::Num(h.mean())),
                            (
                                "buckets",
                                Json::Arr(
                                    h.buckets
                                        .iter()
                                        .map(|&(lo, n)| {
                                            Json::Arr(vec![Json::num(lo), Json::num(n)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// Human-readable rendering (one metric per line, histograms with
    /// count/mean/max and a sparkline over non-empty buckets).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter   {k:<44} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge     {k:<44} {v}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "histogram {k:<44} count={} mean={:.1} min={} max={} {}",
                h.count,
                h.mean(),
                h.min.unwrap_or(0),
                h.max,
                sparkline(&h.buckets),
            );
        }
        out
    }
}

fn sparkline(buckets: &[(u64, u64)]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let peak = buckets.iter().map(|&(_, n)| n).max().unwrap_or(0);
    if peak == 0 {
        return String::new();
    }
    buckets
        .iter()
        .map(|&(_, n)| GLYPHS[((n * 7).div_ceil(peak)) as usize % 8])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        // Same name resolves to the same cell.
        assert_eq!(reg.counter("x").get(), 5);
        let g = reg.gauge("y");
        g.set(7);
        g.set(3);
        assert_eq!(reg.gauge("y").get(), 3);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_lower(1), 1);
        assert_eq!(bucket_lower(3), 4);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [0, 1, 2, 3, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 706);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, 700);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
        assert!((s.mean() - 141.2).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serializes_and_renders() {
        let reg = MetricsRegistry::new();
        reg.counter("a.hits").add(2);
        reg.gauge("b.size").set(9);
        reg.histogram("c.lat").record(5);
        let snap = reg.snapshot();
        assert!(!snap.is_empty());
        let j = snap.to_json().to_string();
        let back = crate::json::parse(&j).expect("valid json");
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("a.hits"))
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            back.get("histograms")
                .and_then(|h| h.get("c.lat"))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let text = snap.render();
        assert!(text.contains("a.hits"));
        assert!(text.contains("histogram"));
    }

    #[test]
    fn reset_clears_names() {
        let reg = MetricsRegistry::new();
        reg.counter("gone").inc();
        reg.reset();
        assert!(reg.snapshot().is_empty());
        assert_eq!(reg.counter("gone").get(), 0);
    }
}
