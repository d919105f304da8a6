//! The cluster observability layer: hierarchical metrics and sampled
//! timeline traces.
//!
//! The paper's whole evaluation is observational — per-request latency
//! distributions under load (Fig. 5/6) and per-kernel cycle counts
//! (Fig. 7). This module gives every experiment one shared instrumentation
//! surface instead of ad-hoc counter plumbing:
//!
//! * [`MetricsRegistry`] — a point-in-time, hierarchical snapshot of every
//!   counter and latency histogram in the cluster, scoped
//!   `cluster` → `cluster/tile{t}` → `cluster/tile{t}/core{c}` /
//!   `cluster/tile{t}/bank{b}`, plus `cluster/link{id}` for the global
//!   interconnect register stages and `cluster/ring` for the refill ring.
//!   Built on demand by [`Cluster::metrics_registry`]; exported as the
//!   stable integer-only `mempool-metrics-v1` JSON document, so identical
//!   simulations produce byte-identical exports.
//! * [`TimelineTrace`] — sampled per-request spans emitted as Chrome
//!   `trace_event` JSON (loadable in Perfetto / `chrome://tracing`), with
//!   one process per tile and one thread per core.
//!
//! Recording costs nothing when disabled: the per-delivery hook is gated on
//! an `Option` that is `None` by default. When enabled (via
//! [`SimSessionBuilder::observability`] or
//! [`Cluster::enable_observability`]), recording happens in the
//! response-drain phase in canonical order, so metric values are
//! bit-identical across reruns and across checkpoint/restore (the
//! recorder state is part of the snapshot and the state digest).
//!
//! [`Cluster::metrics_registry`]: crate::Cluster::metrics_registry
//! [`Cluster::enable_observability`]: crate::Cluster::enable_observability
//! [`SimSessionBuilder::observability`]: crate::SimSessionBuilder::observability

use crate::stats::LatencyStats;
use std::fmt;
use std::fmt::Write as _;

/// Schema tag stamped into every metrics export.
///
/// `v2` extends `v1` with a `p90` histogram field and (when profiling is
/// enabled) `cluster/region{r}` scopes; every `v1` field is unchanged, so
/// `v1` readers keep working on everything they knew about.
pub const METRICS_SCHEMA: &str = "mempool-metrics-v2";

/// Observability configuration: what the cluster records while it runs.
///
/// The default records per-tile latency histograms only (no timeline
/// trace). Histograms alone cost one `LatencyStats::record` per delivered
/// response; the timeline tracer additionally stores every
/// `trace_sample_every`-th delivery as a span, up to `trace_capacity`
/// spans (further samples are counted as dropped, never reallocated —
/// tracing a long run has bounded memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Sample every n-th delivered response into the timeline trace
    /// (`0` disables the tracer, `1` traces every request).
    pub trace_sample_every: u64,
    /// Maximum retained timeline spans.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_sample_every: 0,
            trace_capacity: 65_536,
        }
    }
}

impl ObsConfig {
    /// Histograms only, no timeline trace (the cheapest enabled mode).
    pub fn histograms() -> ObsConfig {
        ObsConfig::default()
    }

    /// Histograms plus a timeline trace sampling every `every`-th delivery.
    pub fn with_trace(every: u64) -> ObsConfig {
        ObsConfig {
            trace_sample_every: every.max(1),
            ..ObsConfig::default()
        }
    }
}

/// One sampled request span: a core's memory request from issue to
/// response delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpan {
    /// Issuing core (global index).
    pub core: u32,
    /// The issuing core's tile.
    pub tile: u32,
    /// Cycle the request left the core.
    pub issued_at: u64,
    /// Round-trip cycles until the response was delivered.
    pub latency: u64,
}

/// The sampled timeline of one run, exportable as Chrome `trace_event`
/// JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimelineTrace {
    /// The retained spans, in delivery order.
    pub spans: Vec<TraceSpan>,
    /// Samples discarded after `trace_capacity` was reached.
    pub dropped_spans: u64,
}

impl TimelineTrace {
    /// Renders the trace as a Chrome `trace_event` JSON object (the format
    /// `chrome://tracing` and Perfetto load): one complete (`"X"`) event
    /// per span with the tile as the process and the core as the thread,
    /// preceded by process/thread-name metadata. Timestamps are cycles
    /// reported in the `ts`/`dur` microsecond fields (1 cycle = 1 µs of
    /// trace time).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |s: &mut String, first: &mut bool| {
            if !*first {
                s.push(',');
            }
            *first = false;
            s.push('\n');
        };
        // Metadata: name every tile (process) and core (thread) that
        // appears in the trace, in ascending order.
        let mut tiles: Vec<u32> = self.spans.iter().map(|s| s.tile).collect();
        tiles.sort_unstable();
        tiles.dedup();
        for t in &tiles {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{t},\"tid\":0,\
                 \"args\":{{\"name\":\"tile{t}\"}}}}"
            );
        }
        let mut cores: Vec<(u32, u32)> = self.spans.iter().map(|s| (s.tile, s.core)).collect();
        cores.sort_unstable();
        cores.dedup();
        for (t, c) in &cores {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{t},\"tid\":{c},\
                 \"args\":{{\"name\":\"core{c}\"}}}}"
            );
        }
        for s in &self.spans {
            emit(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"req\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\
                 \"tid\":{},\"args\":{{\"latency\":{}}}}}",
                s.issued_at, s.latency, s.tile, s.core, s.latency
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"schema\":\"mempool-trace-v1\",\
             \"dropped_spans\":{}}}}}\n",
            self.dropped_spans
        );
        out
    }
}

/// The live recorder the cluster carries while observability is enabled.
/// Everything in here is deterministic simulation state: it is recorded in
/// the response-drain phase (in canonical order), and
/// it is checkpointed and digested like any other architectural state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Obs {
    pub(crate) config: ObsConfig,
    /// Round-trip latency distribution per *issuing* tile.
    pub(crate) tile_latency: Vec<LatencyStats>,
    pub(crate) spans: Vec<TraceSpan>,
    /// Deliveries seen since observability was enabled (drives sampling).
    pub(crate) deliveries_seen: u64,
    pub(crate) dropped_spans: u64,
}

impl Obs {
    pub(crate) fn new(config: ObsConfig, num_tiles: usize) -> Obs {
        Obs {
            config,
            tile_latency: (0..num_tiles).map(|_| LatencyStats::new()).collect(),
            spans: Vec::new(),
            deliveries_seen: 0,
            dropped_spans: 0,
        }
    }

    /// Records one delivered response. Called from the serial drain phase.
    pub(crate) fn on_delivery(&mut self, core: u32, tile: u32, issued_at: u64, latency: u64) {
        self.tile_latency[tile as usize].record(latency);
        self.deliveries_seen += 1;
        let every = self.config.trace_sample_every;
        if every > 0 && self.deliveries_seen.is_multiple_of(every) {
            if self.spans.len() < self.config.trace_capacity {
                self.spans.push(TraceSpan {
                    core,
                    tile,
                    issued_at,
                    latency,
                });
            } else {
                self.dropped_spans += 1;
            }
        }
    }

    /// A point-in-time copy of the sampled timeline.
    pub(crate) fn timeline(&self) -> TimelineTrace {
        TimelineTrace {
            spans: self.spans.clone(),
            dropped_spans: self.dropped_spans,
        }
    }
}

/// A point-in-time latency histogram: the fixed 64-exact-bucket + tail
/// layout of [`LatencyStats`], with precomputed p50/p99. All fields are
/// integers, so exports are bit-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (0 when empty).
    pub p50: u64,
    /// 90th percentile (0 when empty; saturates to `max` past 64 cycles).
    pub p90: u64,
    /// 99th percentile (0 when empty; saturates to `max` past 64 cycles).
    pub p99: u64,
    /// `buckets[i]` counts samples with `latency == i` for `i < 64`; the
    /// last bucket is the `>= 64` tail.
    pub buckets: Vec<u64>,
}

impl From<&LatencyStats> for HistogramSnapshot {
    fn from(l: &LatencyStats) -> HistogramSnapshot {
        HistogramSnapshot {
            count: l.count(),
            sum: l.sum(),
            min: l.min().unwrap_or(0),
            max: l.max().unwrap_or(0),
            p50: l.quantile(0.5).unwrap_or(0),
            p90: l.quantile(0.9).unwrap_or(0),
            p99: l.quantile(0.99).unwrap_or(0),
            buckets: l.bucket_counts().to_vec(),
        }
    }
}

/// A by-name metrics lookup failed. Carries the full available set so a
/// schema drift surfaces as a legible error instead of a silent zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsError {
    /// No scope with the requested path exists in the registry.
    UnknownScope {
        /// The requested scope path.
        path: String,
    },
    /// The scope exists but has no counter with the requested name.
    UnknownCounter {
        /// The scope that was searched.
        scope: String,
        /// The requested counter name.
        name: String,
        /// The counter names that do exist in that scope.
        available: Vec<&'static str>,
    },
    /// The scope exists but has no histogram with the requested name.
    UnknownHistogram {
        /// The scope that was searched.
        scope: String,
        /// The requested histogram name.
        name: String,
        /// The histogram names that do exist in that scope.
        available: Vec<&'static str>,
    },
}

impl fmt::Display for MetricsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsError::UnknownScope { path } => {
                write!(f, "no metrics scope `{path}`")
            }
            MetricsError::UnknownCounter {
                scope,
                name,
                available,
            } => write!(
                f,
                "no counter `{name}` in scope `{scope}`; available: {}",
                available.join(", ")
            ),
            MetricsError::UnknownHistogram {
                scope,
                name,
                available,
            } => write!(
                f,
                "no histogram `{name}` in scope `{scope}`; available: {}",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for MetricsError {}

/// One scope of the hierarchical registry: a path like `cluster/tile3`,
/// its counters, and its latency histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricScope {
    path: String,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricScope {
    pub(crate) fn new(path: String) -> MetricScope {
        MetricScope {
            path,
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    pub(crate) fn counter_entry(&mut self, name: &'static str, value: u64) -> &mut Self {
        self.counters.push((name, value));
        self
    }

    pub(crate) fn histogram_entry(
        &mut self,
        name: &'static str,
        h: HistogramSnapshot,
    ) -> &mut Self {
        self.histograms.push((name, h));
        self
    }

    /// The scope path (e.g. `cluster/tile3/bank0`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// All counters, in declaration order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// All histograms, in declaration order.
    pub fn histograms(&self) -> &[(&'static str, HistogramSnapshot)] {
        &self.histograms
    }

    /// Looks up one counter by name.
    ///
    /// # Errors
    ///
    /// [`MetricsError::UnknownCounter`] listing the names that do exist.
    pub fn counter(&self, name: &str) -> Result<u64, MetricsError> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| MetricsError::UnknownCounter {
                scope: self.path.clone(),
                name: name.to_string(),
                available: self.counters.iter().map(|&(n, _)| n).collect(),
            })
    }

    /// Looks up one histogram by name.
    ///
    /// # Errors
    ///
    /// [`MetricsError::UnknownHistogram`] listing the names that do exist.
    pub fn histogram(&self, name: &str) -> Result<&HistogramSnapshot, MetricsError> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
            .ok_or_else(|| MetricsError::UnknownHistogram {
                scope: self.path.clone(),
                name: name.to_string(),
                available: self.histograms.iter().map(|&(n, _)| n).collect(),
            })
    }
}

/// A point-in-time, hierarchical snapshot of every counter and histogram
/// in the cluster. Built by
/// [`Cluster::metrics_registry`](crate::Cluster::metrics_registry);
/// serialized with [`to_json`](MetricsRegistry::to_json) as the stable
/// `mempool-metrics-v1` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    topology: String,
    num_tiles: usize,
    num_cores: usize,
    banks_per_tile: usize,
    scopes: Vec<MetricScope>,
}

impl MetricsRegistry {
    pub(crate) fn new(
        topology: String,
        num_tiles: usize,
        num_cores: usize,
        banks_per_tile: usize,
    ) -> MetricsRegistry {
        MetricsRegistry {
            topology,
            num_tiles,
            num_cores,
            banks_per_tile,
            scopes: Vec::new(),
        }
    }

    pub(crate) fn push_scope(&mut self, scope: MetricScope) {
        self.scopes.push(scope);
    }

    /// The topology name the cluster was built with.
    pub fn topology(&self) -> &str {
        &self.topology
    }

    /// Number of tiles in the cluster.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Number of cores in the cluster.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// SPM banks per tile.
    pub fn banks_per_tile(&self) -> usize {
        self.banks_per_tile
    }

    /// All scopes, hierarchical order (cluster, then per tile with its
    /// cores and banks, then links and the refill ring).
    pub fn scopes(&self) -> &[MetricScope] {
        &self.scopes
    }

    /// Looks up a scope by path.
    pub fn scope(&self, path: &str) -> Option<&MetricScope> {
        self.scopes.iter().find(|s| s.path == path)
    }

    /// Looks up `scope`/`name` as a counter.
    ///
    /// # Errors
    ///
    /// [`MetricsError`] naming the missing scope or counter (with the
    /// available names).
    pub fn counter(&self, path: &str, name: &str) -> Result<u64, MetricsError> {
        self.scope(path)
            .ok_or_else(|| MetricsError::UnknownScope {
                path: path.to_string(),
            })?
            .counter(name)
    }

    /// Looks up `scope`/`name` as a histogram.
    ///
    /// # Errors
    ///
    /// [`MetricsError`] naming the missing scope or histogram.
    pub fn histogram(&self, path: &str, name: &str) -> Result<&HistogramSnapshot, MetricsError> {
        self.scope(path)
            .ok_or_else(|| MetricsError::UnknownScope {
                path: path.to_string(),
            })?
            .histogram(name)
    }

    /// Sums a counter over every scope whose path starts with `prefix`
    /// (e.g. `instret` over `cluster/tile3` aggregates that tile's cores).
    /// Scopes without the counter contribute zero.
    pub fn sum_counter(&self, prefix: &str, name: &str) -> u64 {
        self.scopes
            .iter()
            .filter(|s| s.path.starts_with(prefix))
            .filter_map(|s| s.counter(name).ok())
            .sum()
    }

    /// Renders the registry as the `mempool-metrics-v1` JSON document.
    /// Integer-only and emitted in deterministic scope order, so identical
    /// simulations produce byte-identical documents (the property the
    /// determinism tests pin across reruns and checkpoint/restore).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
        let _ = writeln!(out, "  \"topology\": \"{}\",", self.topology);
        let _ = writeln!(out, "  \"num_tiles\": {},", self.num_tiles);
        let _ = writeln!(out, "  \"num_cores\": {},", self.num_cores);
        let _ = writeln!(out, "  \"banks_per_tile\": {},", self.banks_per_tile);
        out.push_str("  \"scopes\": [\n");
        for (i, scope) in self.scopes.iter().enumerate() {
            let _ = write!(out, "    {{\"path\": \"{}\", \"counters\": {{", scope.path);
            for (j, (name, value)) in scope.counters.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{name}\": {value}");
            }
            out.push_str("}, \"histograms\": {");
            for (j, (name, h)) in scope.histograms.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "\"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
                );
                for (k, b) in h.buckets.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push_str("]}");
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.scopes.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new("TopH".to_string(), 2, 8, 4);
        let mut cluster = MetricScope::new("cluster".to_string());
        cluster.counter_entry("cycles", 100).counter_entry("requests_issued", 42);
        let mut lat = LatencyStats::new();
        for v in [1u64, 1, 5, 5, 70] {
            lat.record(v);
        }
        cluster.histogram_entry("latency", HistogramSnapshot::from(&lat));
        reg.push_scope(cluster);
        let mut tile = MetricScope::new("cluster/tile0".to_string());
        tile.counter_entry("bank_accesses", 7);
        reg.push_scope(tile);
        reg
    }

    #[test]
    fn lookup_by_path_and_name() {
        let reg = sample_registry();
        assert_eq!(reg.counter("cluster", "cycles"), Ok(100));
        assert_eq!(reg.counter("cluster/tile0", "bank_accesses"), Ok(7));
        let h = reg.histogram("cluster", "latency").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 70);
        assert_eq!(h.p50, 5);
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99, "{h:?}");
        assert_eq!(h.p99, h.max, "tail samples saturate to max");
        assert_eq!(h.buckets.len(), 65);
    }

    #[test]
    fn missing_names_are_typed_errors_with_available_sets() {
        let reg = sample_registry();
        assert_eq!(
            reg.counter("nowhere", "cycles"),
            Err(MetricsError::UnknownScope {
                path: "nowhere".to_string()
            })
        );
        match reg.counter("cluster", "nope") {
            Err(MetricsError::UnknownCounter { available, .. }) => {
                assert_eq!(available, vec!["cycles", "requests_issued"]);
            }
            other => panic!("expected UnknownCounter, got {other:?}"),
        }
        let msg = reg.histogram("cluster", "nope").unwrap_err().to_string();
        assert!(msg.contains("latency"), "{msg}");
    }

    #[test]
    fn sum_counter_aggregates_by_prefix() {
        let reg = sample_registry();
        assert_eq!(reg.sum_counter("cluster/tile", "bank_accesses"), 7);
        assert_eq!(reg.sum_counter("cluster", "cycles"), 100);
        assert_eq!(reg.sum_counter("elsewhere", "cycles"), 0);
    }

    #[test]
    fn json_is_stable_and_balanced() {
        let reg = sample_registry();
        let a = reg.to_json();
        let b = reg.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"mempool-metrics-v2\""));
        assert!(
            a.contains("\"p50\": ") && a.contains("\"p90\": ") && a.contains("\"p99\": "),
            "v2 histogram summary carries all three quantiles: {a}"
        );
        assert!(a.contains("\"path\": \"cluster/tile0\""));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn obs_samples_every_nth_delivery_with_bounded_spans() {
        let mut obs = Obs::new(
            ObsConfig {
                trace_sample_every: 2,
                trace_capacity: 3,
            },
            1,
        );
        for i in 0..10u64 {
            obs.on_delivery(0, 0, i, 1);
        }
        assert_eq!(obs.tile_latency[0].count(), 10);
        assert_eq!(obs.spans.len(), 3, "capacity bounds retained spans");
        assert_eq!(obs.dropped_spans, 2, "5 samples, 3 kept");
        assert_eq!(obs.spans[0].issued_at, 1);
        assert_eq!(obs.spans[1].issued_at, 3);
    }

    #[test]
    fn chrome_trace_shape() {
        let trace = TimelineTrace {
            spans: vec![
                TraceSpan {
                    core: 4,
                    tile: 1,
                    issued_at: 10,
                    latency: 5,
                },
                TraceSpan {
                    core: 0,
                    tile: 0,
                    issued_at: 12,
                    latency: 1,
                },
            ],
            dropped_spans: 0,
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ts\":10,\"dur\":5,\"pid\":1,\"tid\":4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let h = HistogramSnapshot::from(&LatencyStats::new());
        assert_eq!(
            (h.count, h.min, h.max, h.p50, h.p90, h.p99),
            (0, 0, 0, 0, 0, 0)
        );
    }
}
