//! Named series registry with label support and Prometheus text
//! exposition.
//!
//! Series handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s into
//! the registry: look them up once, then update lock-free. Lookups take a
//! read lock on the series map; first registration takes the write lock.

use crate::histogram::{bucket_upper, Histogram, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// `name="value"` pairs identifying one series of a metric. Sorted by key
/// so label order at the call site doesn't split series.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct SeriesKey {
    name: String,
    labels: Labels,
}

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    SeriesKey {
        name: name.to_string(),
        labels,
    }
}

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Up/down gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<SeriesKey, Counter>,
    gauges: BTreeMap<SeriesKey, Gauge>,
    histograms: BTreeMap<SeriesKey, Histogram>,
}

/// The metric registry.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<Inner>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter without labels.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Counter for one labeled series, e.g.
    /// `counter_with("demaq_engine_processed_total", &[("queue", "orders")])`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = series_key(name, labels);
        if let Some(c) = self.inner.read().unwrap().counters.get(&key) {
            return c.clone();
        }
        self.inner
            .write()
            .unwrap()
            .counters
            .entry(key)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = series_key(name, labels);
        if let Some(g) = self.inner.read().unwrap().gauges.get(&key) {
            return g.clone();
        }
        self.inner
            .write()
            .unwrap()
            .gauges
            .entry(key)
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = series_key(name, labels);
        if let Some(h) = self.inner.read().unwrap().histograms.get(&key) {
            return h.clone();
        }
        self.inner
            .write()
            .unwrap()
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Sum of a counter across all labeled series with this name.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .read()
            .unwrap()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// `(labels, value)` for every series of a counter name.
    pub fn counter_series(&self, name: &str) -> Vec<(Labels, u64)> {
        self.inner
            .read()
            .unwrap()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(k, c)| (k.labels.clone(), c.get()))
            .collect()
    }

    /// Render every registered series in Prometheus text exposition
    /// format, sorted by metric name then labels (stable for golden
    /// tests).
    pub fn render_text(&self) -> String {
        let inner = self.inner.read().unwrap();
        let mut out = String::new();

        let mut last_type_line = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let line = format!("# TYPE {name} {kind}\n");
            if line != last_type_line {
                out.push_str(&line);
                last_type_line = line;
            }
        };

        for (key, c) in &inner.counters {
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                render_labels(&key.labels),
                c.get()
            );
        }
        for (key, g) in &inner.gauges {
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(
                out,
                "{}{} {}",
                key.name,
                render_labels(&key.labels),
                g.get()
            );
        }
        for (key, h) in &inner.histograms {
            type_line(&mut out, &key.name, "histogram");
            let count = h.count();
            // Cumulative buckets; skip trailing empties, always end +Inf.
            let mut cum = 0u64;
            let mut highest = 0;
            for i in 0..BUCKETS {
                if h.cell.buckets[i].load(Ordering::Relaxed) > 0 {
                    highest = i;
                }
            }
            for i in 0..=highest {
                cum += h.cell.buckets[i].load(Ordering::Relaxed);
                let le = bucket_upper(i);
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    key.name,
                    render_labels_with(&key.labels, "le", &le.to_string()),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                key.name,
                render_labels_with(&key.labels, "le", "+Inf"),
                count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                render_labels(&key.labels),
                h.sum_ns()
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                key.name,
                render_labels(&key.labels),
                count
            );
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &Labels) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn render_labels_with(labels: &Labels, extra_key: &str, extra_val: &str) -> String {
    let mut all = labels.clone();
    all.push((extra_key.to_string(), extra_val.to_string()));
    let body: Vec<String> = all
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_label_aggregation() {
        let r = Registry::new();
        r.counter_with("demaq_engine_processed_total", &[("queue", "orders")])
            .add(3);
        r.counter_with("demaq_engine_processed_total", &[("queue", "audit")])
            .add(2);
        // Same series regardless of label order at the call site.
        r.counter_with(
            "demaq_engine_processed_total",
            &[("rule", "r1"), ("queue", "orders")],
        )
        .inc();
        r.counter_with(
            "demaq_engine_processed_total",
            &[("queue", "orders"), ("rule", "r1")],
        )
        .inc();
        assert_eq!(r.counter_total("demaq_engine_processed_total"), 7);
        let series = r.counter_series("demaq_engine_processed_total");
        assert_eq!(series.len(), 3);
        let orders_r1 = series
            .iter()
            .find(|(l, _)| l.len() == 2)
            .expect("two-label series");
        assert_eq!(orders_r1.1, 2);
    }

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        let a = r.counter("demaq_x_total");
        let b = r.counter("demaq_x_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("demaq_engine_scheduler_depth");
        g.set(10);
        g.add(-3);
        assert_eq!(r.gauge("demaq_engine_scheduler_depth").get(), 7);
    }

    #[test]
    fn render_text_golden() {
        let r = Registry::new();
        r.counter_with("demaq_engine_processed_total", &[("queue", "orders")])
            .add(5);
        r.counter_with("demaq_engine_processed_total", &[("queue", "audit")])
            .add(1);
        r.gauge("demaq_engine_scheduler_depth").set(2);
        let h = r.histogram("demaq_engine_rule_eval_ns");
        h.record_ns(3); // bucket (2,4] -> le=4
        h.record_ns(3);
        h.record_ns(900); // bucket (512,1024] -> le=1024

        let expected = "\
# TYPE demaq_engine_processed_total counter
demaq_engine_processed_total{queue=\"audit\"} 1
demaq_engine_processed_total{queue=\"orders\"} 5
# TYPE demaq_engine_scheduler_depth gauge
demaq_engine_scheduler_depth 2
# TYPE demaq_engine_rule_eval_ns histogram
demaq_engine_rule_eval_ns_bucket{le=\"1\"} 0
demaq_engine_rule_eval_ns_bucket{le=\"2\"} 0
demaq_engine_rule_eval_ns_bucket{le=\"4\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"8\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"16\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"32\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"64\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"128\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"256\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"512\"} 2
demaq_engine_rule_eval_ns_bucket{le=\"1024\"} 3
demaq_engine_rule_eval_ns_bucket{le=\"+Inf\"} 3
demaq_engine_rule_eval_ns_sum 906
demaq_engine_rule_eval_ns_count 3
";
        assert_eq!(r.render_text(), expected);
    }

    #[test]
    fn label_escaping() {
        let r = Registry::new();
        r.counter_with("demaq_t_total", &[("detail", "say \"hi\"\nnow")])
            .inc();
        let text = r.render_text();
        assert!(text.contains(r#"detail="say \"hi\"\nnow""#), "{text}");
    }
}
