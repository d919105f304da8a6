//! The traced run's instruments: an in-memory span recorder, a core
//! wrapper that times every `Core::step`/`deliver` call, and a chunked
//! runner that splits `Cluster::run`/`step_cycles` into fixed-size spans.
//!
//! Nothing here reaches into the simulator: spans sit around the public
//! calls the benchmark makes, and the wrapper forwards every method of
//! `Core` and `CoreState` unchanged, so the traced cluster's state digest
//! equals the untraced one's (the benchmark checks it).

use mempool::{
    ByteReader, Cluster, ClusterConfig, Core, CoreState, SimError, SnapshotError, StateSink,
};
use mempool_snitch::{CoreProfile, DataRequest, DataResponse, Fetch, SnitchConfig, SnitchCore};
use std::fmt::Write as _;
use std::time::Instant;

/// Cycles per traced chunk: the unit of the `cluster.cycle_us_*` samples.
const CHUNK_CYCLES: u64 = 500;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends, then written as a Chrome
/// `trace_event` document.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an aggregate child span of `dur_ns` (time summed over many
    /// short calls inside `parent`), anchored at the parent's start.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, dur_ns: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Durations, in ms, of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// A span's self time: its duration minus the time its direct
    /// children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.duration_ns(id).saturating_sub(children)
    }

    /// Ids of every span named `name`.
    pub fn ids(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Chrome `trace_event` JSON: one complete event per span, with its id
    /// and parent id in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// A core model wrapped so that the host time of each `step` and
/// `deliver` call is summed per core.
#[derive(Debug, Clone)]
pub struct Timed<C> {
    pub inner: C,
    pub busy_ns: u64,
    pub steps: u64,
}

impl<C> Timed<C> {
    pub fn new(inner: C) -> Timed<C> {
        Timed {
            inner,
            busy_ns: 0,
            steps: 0,
        }
    }
}

impl<C: Core> Core for Timed<C> {
    fn deliver(&mut self, response: DataResponse) {
        let t = Instant::now();
        self.inner.deliver(response);
        self.busy_ns += t.elapsed().as_nanos() as u64;
    }

    fn step(
        &mut self,
        fetch: &mut dyn FnMut(u32) -> Fetch,
        request_ready: bool,
    ) -> Option<DataRequest> {
        let t = Instant::now();
        let out = self.inner.step(fetch, request_ready);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.steps += 1;
        out
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn fault(&mut self) {
        self.inner.fault();
    }

    fn spurious_retire(&mut self) {
        self.inner.spurious_retire();
    }

    fn metric_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.metric_counters()
    }

    fn enable_profile(&mut self, max_pcs: usize) {
        self.inner.enable_profile(max_pcs);
    }

    fn core_profile(&self) -> Option<&CoreProfile> {
        self.inner.core_profile()
    }
}

impl<C: CoreState> CoreState for Timed<C> {
    fn encode_state(&self, out: &mut dyn StateSink) {
        self.inner.encode_state(out);
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        self.inner.decode_state(r)
    }
}

/// `Cluster::run(budget)` in [`CHUNK_CYCLES`]-cycle calls, pushing each
/// call's host seconds to `times`. `Ok(true)` when every core finished,
/// `Ok(false)` when the budget ran out first.
pub fn run_in_chunks<C: Core>(
    cluster: &mut Cluster<C>,
    budget: u64,
    times: &mut Vec<f64>,
) -> Result<bool, SimError> {
    let start = cluster.now();
    loop {
        let left = budget - (cluster.now() - start);
        if left == 0 {
            return Ok(false);
        }
        let t = Instant::now();
        let out = cluster.run(left.min(CHUNK_CYCLES));
        times.push(t.elapsed().as_secs_f64());
        match out {
            Ok(_) => return Ok(true),
            Err(SimError::Timeout(_)) => {}
            Err(e) => return Err(e),
        }
    }
}

/// `Cluster::step_cycles(n)` in [`CHUNK_CYCLES`]-cycle calls, pushing
/// each call's host seconds to `times`.
pub fn step_in_chunks<C: Core>(cluster: &mut Cluster<C>, n: u64, times: &mut Vec<f64>) {
    let mut left = n;
    while left > 0 {
        let k = left.min(CHUNK_CYCLES);
        let t = Instant::now();
        cluster.step_cycles(k);
        times.push(t.elapsed().as_secs_f64());
        left -= k;
    }
}

/// A steady host time for one repetition of identical work: the sum,
/// over chunk positions, of the `q` quantile of that chunk's time across
/// repetitions. Contention from other tenants of the host arrives in
/// bursts that at times slow more than half of a run's chunks, which moves
/// a median of whole repetitions by 20% between runs. Taking the quantile
/// per position keeps every phase of the work in the total, and a burst
/// that hits one stretch of a repetition moves only those positions.
pub fn position_quantile_s(reps: &[Vec<f64>], q: f64) -> f64 {
    let chunks = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..chunks)
        .map(|k| {
            let at: Vec<f64> = reps.iter().filter_map(|r| r.get(k).copied()).collect();
            crate::report::quantile(&at, q)
        })
        .sum()
}

/// The wall time of a job of identical repetitions at quantile `q`, ms:
/// the median time a job spends outside its chunks (set-up, checks) plus
/// [`position_quantile_s`] of its chunks. `chunks[i]` and `jobs_s[i]`
/// belong to job `i`.
pub fn steady_job_ms(chunks: &[Vec<f64>], jobs_s: &[f64], q: f64) -> f64 {
    let outside: Vec<f64> = chunks
        .iter()
        .zip(jobs_s)
        .map(|(c, job)| job - c.iter().sum::<f64>())
        .collect();
    (crate::report::median(&outside) + position_quantile_s(chunks, q)) * 1e3
}

/// `Cluster::snitch` with every core wrapped in [`Timed`], with `program`
/// loaded.
pub fn timed_snitch_cluster(
    config: ClusterConfig,
    program: &mempool_riscv::Program,
) -> Result<Cluster<Timed<SnitchCore>>, String> {
    let template = config.core;
    let mut cluster = Cluster::new(config, |loc| {
        Timed::new(SnitchCore::new(SnitchConfig {
            hartid: loc.core as u32,
            ..template
        }))
    })
    .map_err(|e| e.to_string())?;
    cluster.load_program(program).map_err(|e| e.to_string())?;
    Ok(cluster)
}

/// Per-layer host time accumulated over the chunks of a traced run.
#[derive(Default)]
pub struct ChunkStats {
    /// Host µs per simulated cycle, one sample per chunk.
    pub cycle_us: Vec<f64>,
    pub cycles: u64,
    pub chunk_ns: u64,
    pub core_ns: u64,
    pub core_steps: u64,
}

impl ChunkStats {
    /// Host ns per simulated cycle over all chunks.
    pub fn ns_per_cycle(&self) -> f64 {
        self.chunk_ns as f64 / self.cycles.max(1) as f64
    }
}

/// Drives a cluster of [`Timed`] cores in [`CHUNK_CYCLES`]-cycle spans,
/// each with an aggregate child span (named `core_span`) holding the time
/// its cores spent in `step`/`deliver`.
pub struct Chunked<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: SpanId,
    pub core_span: &'static str,
    pub stats: &'a mut ChunkStats,
}

fn core_totals<C: Core>(cluster: &Cluster<Timed<C>>) -> (u64, u64) {
    cluster
        .cores()
        .iter()
        .fold((0, 0), |(ns, steps), c| (ns + c.busy_ns, steps + c.steps))
}

impl Chunked<'_> {
    fn chunk<C: Core, T>(
        &mut self,
        cluster: &mut Cluster<Timed<C>>,
        f: impl FnOnce(&mut Cluster<Timed<C>>) -> T,
    ) -> T {
        let (ns0, steps0) = core_totals(cluster);
        let now0 = cluster.now();
        let id = self.tracer.begin("cluster.chunk", Some(self.parent));
        let out = f(cluster);
        self.tracer.end(id);
        let (ns1, steps1) = core_totals(cluster);
        let cycles = cluster.now() - now0;
        let dur = self.tracer.duration_ns(id);
        self.tracer.aggregate(self.core_span, id, ns1 - ns0);
        if cycles > 0 {
            self.stats.cycle_us.push(dur as f64 / 1e3 / cycles as f64);
        }
        self.stats.cycles += cycles;
        self.stats.chunk_ns += dur;
        self.stats.core_ns += ns1 - ns0;
        self.stats.core_steps += steps1 - steps0;
        out
    }

    /// `Cluster::step_cycles(n)`, in chunks.
    pub fn step_cycles<C: Core>(&mut self, cluster: &mut Cluster<Timed<C>>, n: u64) {
        let mut left = n;
        while left > 0 {
            let k = left.min(CHUNK_CYCLES);
            self.chunk(cluster, |c| c.step_cycles(k));
            left -= k;
        }
    }

    /// `Cluster::run(budget)`, in chunks. `Ok(true)` when every core
    /// finished, `Ok(false)` when the budget ran out first.
    pub fn run<C: Core>(
        &mut self,
        cluster: &mut Cluster<Timed<C>>,
        budget: u64,
    ) -> Result<bool, SimError> {
        let start = cluster.now();
        loop {
            let left = budget - (cluster.now() - start);
            if left == 0 {
                return Ok(false);
            }
            match self.chunk(cluster, |c| c.run(left.min(CHUNK_CYCLES))) {
                Ok(_) => return Ok(true),
                Err(SimError::Timeout(_)) => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_job_takes_quantiles_per_position() {
        // Job 2 is slowed in its first chunk, job 0 in its second; the
        // per-position median drops both bursts.
        let chunks = vec![vec![1.0, 5.0], vec![1.0, 2.0], vec![4.0, 2.0]];
        let jobs_s = [6.5, 3.5, 6.5];
        assert_eq!(position_quantile_s(&chunks, 0.5), 3.0);
        assert_eq!(steady_job_ms(&chunks, &jobs_s, 0.5), 3500.0);
        assert_eq!(steady_job_ms(&chunks, &jobs_s, 1.0), 9500.0);
    }
}
