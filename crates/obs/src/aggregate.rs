//! Rolling-window aggregation and exposition over metric snapshots.
//!
//! The [`MetricsRegistry`] holds raw
//! monotone counters and log2 histograms; operators want *rates*
//! ("jobs/s over the last minute") and *quantiles* ("p99 solve time").
//! An [`Aggregator`] bridges the two: a periodic [`Aggregator::tick`]
//! — driven by whatever flush cadence the host already runs — appends
//! a counter snapshot to a bounded history ring, and the exposition
//! encoders diff that history to produce windowed rates alongside
//! quantiles interpolated from the histogram buckets.
//!
//! Exposition is **pull-based**: the aggregator never pushes anywhere,
//! it renders on demand (the `stats` admin command, a postmortem
//! bundle). Pull keeps the cost proportional to scrapes, not to
//! traffic, and means a wedged consumer can never back-pressure the
//! service. Two formats are offered over the same snapshot:
//! Prometheus text ([`Aggregator::expose_prometheus`]) for scrapers
//! and a JSON form ([`Aggregator::expose_json`]) for humans and tests
//! — both built on the crate's hand-rolled `json` module, zero new
//! dependencies.

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One counter snapshot in the history ring.
#[derive(Debug, Clone)]
struct Sample {
    /// Milliseconds since the aggregator was created.
    at_ms: u64,
    /// `(name, value)` pairs, ascending by name (registry order).
    counters: Vec<(String, u64)>,
}

/// Rolling-window rate and quantile computer over a metrics registry.
///
/// Windows are fixed at construction; [`standard`](Aggregator::standard)
/// gives the conventional 10s/1m/5m set. History is pruned to the
/// longest window each tick, so memory is bounded by
/// `longest_window / tick_interval` samples regardless of uptime.
#[derive(Debug)]
pub struct Aggregator {
    started: Instant,
    /// Ascending; the last entry bounds history retention.
    windows: Vec<Duration>,
    history: Mutex<VecDeque<Sample>>,
}

impl Aggregator {
    /// An aggregator computing rates over the given windows
    /// (deduplicated, sorted ascending; empty input falls back to the
    /// standard set).
    #[must_use]
    pub fn new(windows: &[Duration]) -> Self {
        let mut windows: Vec<Duration> = windows.to_vec();
        windows.sort_unstable();
        windows.dedup();
        if windows.is_empty() {
            return Self::standard();
        }
        Aggregator {
            started: Instant::now(),
            windows,
            history: Mutex::new(VecDeque::new()),
        }
    }

    /// The conventional 10s / 1m / 5m window set.
    #[must_use]
    pub fn standard() -> Self {
        Aggregator {
            started: Instant::now(),
            windows: vec![
                Duration::from_secs(10),
                Duration::from_secs(60),
                Duration::from_secs(300),
            ],
            history: Mutex::new(VecDeque::new()),
        }
    }

    /// Milliseconds since the aggregator was created.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Appends the registry's current counter values to the history
    /// ring. Call at a fixed cadence (the serve flush interval); rates
    /// are diffs between ring entries, so two ticks are the minimum
    /// before any rate is reported.
    pub fn tick(&self, registry: &MetricsRegistry) {
        let counters = registry.snapshot().counters;
        self.tick_at(self.uptime_ms(), counters);
    }

    /// Test seam: record a sample at an explicit timestamp.
    fn tick_at(&self, at_ms: u64, counters: Vec<(String, u64)>) {
        let retain_ms = ms(*self.windows.last().expect("windows never empty"));
        let mut ring = lock(&self.history);
        ring.push_back(Sample { at_ms, counters });
        // Keep one sample *older* than the longest window so that a
        // full-window diff is always available once uptime allows.
        while ring.len() > 2 && ring[1].at_ms + retain_ms <= at_ms {
            ring.pop_front();
        }
    }

    /// Windowed counter rates: for each window, `(counter name,
    /// events/second)` diffed between the newest sample and the oldest
    /// sample inside the window. Counters with no delta are reported
    /// as `0.0`; windows with fewer than two samples are omitted
    /// entirely (no data is different from zero traffic).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn rates(&self) -> Vec<(String, Vec<(String, f64)>)> {
        let ring = lock(&self.history);
        let Some(newest) = ring.back() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &window in &self.windows {
            let horizon = newest.at_ms.saturating_sub(ms(window));
            // Oldest sample still inside the window.
            let Some(base) = ring
                .iter()
                .find(|s| s.at_ms >= horizon && s.at_ms < newest.at_ms)
            else {
                continue;
            };
            let dt_s = (newest.at_ms - base.at_ms) as f64 / 1e3;
            if dt_s <= 0.0 {
                continue;
            }
            let mut per_counter = Vec::new();
            for (name, now) in &newest.counters {
                let then = base
                    .counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0, |&(_, v)| v);
                per_counter.push((name.clone(), now.saturating_sub(then) as f64 / dt_s));
            }
            out.push((window_label(window), per_counter));
        }
        out
    }

    /// JSON exposition: snapshot values plus derived rates and
    /// histogram quantiles, ready for the `stats` admin command.
    #[must_use]
    pub fn expose_json(&self, snap: &MetricsSnapshot) -> Json {
        let counters = Json::Obj(
            snap.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            snap.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            snap.histograms
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
                            ("p50", Json::Num(quantile(h, 0.50))),
                            ("p90", Json::Num(quantile(h, 0.90))),
                            ("p99", Json::Num(quantile(h, 0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        let rates = Json::Obj(
            self.rates()
                .into_iter()
                .map(|(window, per_counter)| {
                    (
                        window,
                        Json::Obj(
                            per_counter
                                .into_iter()
                                .map(|(name, rate)| (name, Json::Num(rate)))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("uptime_ms", Json::num(self.uptime_ms())),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
            ("rates", rates),
        ])
    }

    /// Prometheus text exposition over the same data as
    /// [`expose_json`](Aggregator::expose_json). Metric names are
    /// sanitised (`serve.jobs.done` → `aqed_serve_jobs_done`),
    /// histograms render as cumulative `_bucket{le=...}` families, and
    /// windowed rates as `_per_sec{window=...}` gauges.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn expose_prometheus(&self, snap: &MetricsSnapshot) -> String {
        let mut out = String::new();
        out.push_str("# TYPE aqed_uptime_ms gauge\n");
        out.push_str(&format!("aqed_uptime_ms {}\n", self.uptime_ms()));
        for (name, value) in &snap.counters {
            let metric = format!("{}_total", prom_name(name));
            out.push_str(&format!("# TYPE {metric} counter\n"));
            out.push_str(&format!("{metric} {value}\n"));
        }
        for (name, value) in &snap.gauges {
            let metric = prom_name(name);
            out.push_str(&format!("# TYPE {metric} gauge\n"));
            out.push_str(&format!("{metric} {value}\n"));
        }
        for (name, h) in &snap.histograms {
            let metric = prom_name(name);
            out.push_str(&format!("# TYPE {metric} histogram\n"));
            let mut cumulative = 0u64;
            for &(lower, n) in &h.buckets {
                cumulative += n;
                out.push_str(&format!(
                    "{metric}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper(lower)
                ));
            }
            out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{metric}_sum {}\n", h.sum));
            out.push_str(&format!("{metric}_count {}\n", h.count));
            for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                let qm = format!("{metric}_{suffix}");
                out.push_str(&format!("# TYPE {qm} gauge\n"));
                out.push_str(&format!("{qm} {}\n", format_value(quantile(h, q))));
            }
        }
        for (window, per_counter) in self.rates() {
            for (name, rate) in per_counter {
                let metric = format!("{}_per_sec", prom_name(&name));
                out.push_str(&format!("# TYPE {metric} gauge\n"));
                out.push_str(&format!(
                    "{metric}{{window=\"{window}\"}} {}\n",
                    format_value(rate)
                ));
            }
        }
        out
    }
}

/// Interpolated quantile from a histogram's log2 buckets. `q` is in
/// `[0, 1]`; the rank `q * count` is located in the cumulative bucket
/// counts and the value interpolated linearly inside the hit bucket's
/// `[lower, upper]` range. Exact at the recorded `min`/`max`
/// endpoints; returns 0 for an empty histogram.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
pub fn quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = q * h.count as f64;
    let mut cumulative = 0u64;
    for &(lower, n) in &h.buckets {
        let before = cumulative as f64;
        cumulative += n;
        if (cumulative as f64) < target {
            continue;
        }
        // Clamp the bucket's value range by the recorded min/max so
        // tail quantiles of narrow distributions stay tight.
        let lo = (h.min.unwrap_or(0).max(lower)) as f64;
        let hi = (h.max.min(bucket_upper(lower))) as f64;
        let fraction = if n == 0 {
            0.0
        } else {
            ((target - before) / n as f64).clamp(0.0, 1.0)
        };
        return (hi - lo).mul_add(fraction, lo);
    }
    h.max as f64
}

/// Inclusive upper bound of the bucket whose inclusive lower bound is
/// `lower` (buckets are powers of two; bucket 0 holds only the value 0).
fn bucket_upper(lower: u64) -> u64 {
    if lower == 0 {
        0
    } else {
        lower.saturating_mul(2).saturating_sub(1)
    }
}

/// `10s`, `1m`, `5m`, ... — seconds unless an exact minute multiple.
fn window_label(d: Duration) -> String {
    let secs = d.as_secs().max(1);
    if secs.is_multiple_of(60) {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

fn ms(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Sanitises a dotted metric name into a Prometheus identifier with
/// the `aqed_` namespace prefix.
fn prom_name(base: &str) -> String {
    let mut out = String::with_capacity(base.len() + 5);
    out.push_str("aqed_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    out
}

/// Finite decimal rendering (Prometheus forbids bare `NaN` surprises
/// from division; we never emit non-finite values).
fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("t");
        for &v in values {
            h.record(v);
        }
        reg.snapshot().histograms[0].1.clone()
    }

    #[test]
    fn quantiles_interpolate_within_buckets_and_hit_endpoints() {
        let h = hist_of(&[100; 50]);
        // Single-valued distribution: every quantile is that value.
        assert!((quantile(&h, 0.5) - 100.0).abs() < 1e-9);
        assert!((quantile(&h, 0.99) - 100.0).abs() < 1e-9);

        let spread = hist_of(&[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024]);
        let p50 = quantile(&spread, 0.5);
        let p99 = quantile(&spread, 0.99);
        assert!((8.0..=32.0).contains(&p50), "p50 {p50}");
        assert!(p99 > p50, "p99 {p99} must exceed p50 {p50}");
        assert!(p99 <= 1024.0, "p99 {p99} capped at max");
        assert!((quantile(&spread, 1.0) - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: None,
            max: 0,
            buckets: Vec::new(),
        };
        assert!(quantile(&h, 0.99).abs() < f64::EPSILON);
    }

    #[test]
    fn rates_diff_oldest_in_window_against_newest() {
        let agg = Aggregator::new(&[Duration::from_secs(10), Duration::from_secs(60)]);
        // No samples, then one sample: no rates either way.
        assert!(agg.rates().is_empty());
        agg.tick_at(0, vec![("jobs".into(), 0)]);
        assert!(agg.rates().is_empty());
        // 0 → 20 jobs over 10s: 2.0/s in both windows.
        agg.tick_at(5_000, vec![("jobs".into(), 10)]);
        agg.tick_at(10_000, vec![("jobs".into(), 20)]);
        let rates = agg.rates();
        assert_eq!(rates.len(), 2);
        let (label, per) = &rates[0];
        assert_eq!(label, "10s");
        assert_eq!(per.len(), 1);
        assert!((per[0].1 - 2.0).abs() < 1e-9, "rate {}", per[0].1);
        // A counter that appears later is treated as starting at 0.
        agg.tick_at(20_000, vec![("jobs".into(), 20), ("late".into(), 5)]);
        let rates = agg.rates();
        let ten = &rates[0].1;
        let late = ten.iter().find(|(n, _)| n == "late").expect("late");
        assert!((late.1 - 0.5).abs() < 1e-9, "late rate {}", late.1);
    }

    #[test]
    fn history_is_pruned_to_the_longest_window() {
        let agg = Aggregator::new(&[Duration::from_secs(10)]);
        for i in 0..1_000u64 {
            agg.tick_at(i * 500, vec![("c".into(), i)]);
        }
        let len = lock(&agg.history).len();
        // 10s window at 500ms cadence: ~20 live samples plus the one
        // retained beyond the horizon.
        assert!(len <= 24, "ring grew to {len}");
        // The full-window rate is still computable: 2 increments/s.
        let rates = agg.rates();
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn prometheus_text_is_wellformed_and_covers_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.jobs.done").add(7);
        reg.gauge("serve.queue.depth").set(3);
        let h = reg.histogram("bmc.solve.ns");
        h.record(1_000);
        h.record(2_000);
        let agg = Aggregator::new(&[Duration::from_secs(10)]);
        agg.tick_at(0, vec![("serve.jobs.done".into(), 0)]);
        agg.tick_at(10_000, vec![("serve.jobs.done".into(), 7)]);
        let text = agg.expose_prometheus(&reg.snapshot());
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "comment line: {line}");
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "unparseable value in: {line}"
            );
            let name = name_part.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in: {line}"
            );
            assert!(name.starts_with("aqed_"), "unprefixed metric: {line}");
        }
        assert!(text.contains("aqed_serve_jobs_done_total 7"));
        assert!(text.contains("aqed_serve_queue_depth 3"));
        assert!(text.contains("aqed_bmc_solve_ns_count 2"));
        assert!(text.contains("aqed_bmc_solve_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("aqed_bmc_solve_ns_p99 "));
        assert!(text.contains("aqed_serve_jobs_done_per_sec{window=\"10s\"} 0.7"));
        // Cumulative bucket counts are monotone.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v = line.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap();
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn json_exposition_carries_rates_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("jobs").add(4);
        reg.histogram("lat").record(500);
        let agg = Aggregator::new(&[Duration::from_secs(10)]);
        agg.tick_at(0, vec![("jobs".into(), 0)]);
        agg.tick_at(8_000, vec![("jobs".into(), 4)]);
        let json = agg.expose_json(&reg.snapshot());
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("jobs"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let p99 = json
            .get("histograms")
            .and_then(|h| h.get("lat"))
            .and_then(|l| l.get("p99"))
            .and_then(Json::as_f64)
            .expect("p99 present");
        assert!(p99 > 0.0);
        let rate = json
            .get("rates")
            .and_then(|r| r.get("10s"))
            .and_then(|w| w.get("jobs"))
            .and_then(Json::as_f64)
            .expect("windowed rate present");
        assert!((rate - 0.5).abs() < 1e-9);
    }
}
