//! The benchmark's metric catalogue. Every run prints all of one set —
//! the end-to-end set with tracing off, the per-layer set with tracing
//! on — in this order, with these units (the same names and units as
//! `BENCHMARK.json`). A layer a workload does not exercise reads 0.

use crate::report::Outcome;
use crate::trace::{ChunkStats, Tracer};
use mempool::{Cluster, ClusterStats};
use mempool_snitch::CoreStats;

/// End-to-end metrics. A "job" is the workload's unit of work: one
/// kernel run (`dct-local`), one traffic point (`uniform-heavy`) or one
/// served job (`serve-jobs`).
#[derive(Default)]
pub struct EndToEnd {
    pub sim_cycles_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub sim_cycles: f64,
    pub sim_avg_latency_cycles: f64,
    pub sim_throughput: f64,
    pub job_latency_p50_ms: f64,
    pub job_latency_tail_ms: f64,
    pub jobs_per_s: f64,
}

impl EndToEnd {
    pub fn emit(&self, o: &mut Outcome) {
        o.metric("sim_cycles_per_s", self.sim_cycles_per_s, "sim_cycles/s");
        o.metric("setup_s", self.setup_s, "s");
        o.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
        o.metric("sim_cycles", self.sim_cycles, "cycles");
        o.metric(
            "sim_avg_latency_cycles",
            self.sim_avg_latency_cycles,
            "cycles",
        );
        o.metric("sim_throughput", self.sim_throughput, "req/core/cycle");
        o.metric("job_latency_p50_ms", self.job_latency_p50_ms, "ms");
        o.metric("job_latency_tail_ms", self.job_latency_tail_ms, "ms");
        o.metric("jobs_per_s", self.jobs_per_s, "1/s");
    }

    /// The simulated figures of a finished cluster.
    pub fn simulated(&mut self, stats: &ClusterStats, cycles: u64, cores: usize) {
        self.sim_cycles = cycles as f64;
        self.sim_avg_latency_cycles = stats.latency.mean();
        self.sim_throughput = stats.throughput(cores);
    }
}

/// Per-layer metrics, from the traced run.
#[derive(Default)]
pub struct Layers {
    pub assemble_ms: f64,
    pub build_ms: f64,
    pub init_ms: f64,
    pub cycle_us_p50: f64,
    pub cycle_us_p90: f64,
    pub cycle_us_samples: f64,
    pub snitch_step_ns_per_cycle: f64,
    pub traffic_gen_ns_per_cycle: f64,
    pub self_ns_per_cycle: f64,
    pub core_steps_per_cycle: f64,
    pub instret: f64,
    pub ipc: f64,
    pub stall_cycles: f64,
    pub local_ratio: f64,
    pub icache_hit_rate: f64,
    pub net_occupancy: f64,
    pub noc_requests_per_cycle: f64,
    pub snapshot_ms: f64,
    pub snapshot_bytes: f64,
    pub checkpoint_write_ms: f64,
    pub rpc_ms_p50: f64,
    pub submit_ms_p50: f64,
    pub wait_ms_p50: f64,
    pub dispatch_ms_p50: f64,
    pub run_ms_p50: f64,
    pub journal_appends_per_job: f64,
    pub workers_spawned_per_job: f64,
    pub retries: f64,
    pub daemon_start_ms: f64,
    pub overhead_ratio: f64,
}

impl Layers {
    pub fn emit(&self, o: &mut Outcome) {
        o.metric("riscv.assemble_ms", self.assemble_ms, "ms");
        o.metric("cluster.build_ms", self.build_ms, "ms");
        o.metric("kernels.init_ms", self.init_ms, "ms");
        o.metric("cluster.cycle_us_p50", self.cycle_us_p50, "us");
        o.metric("cluster.cycle_us_p90", self.cycle_us_p90, "us");
        o.metric("cluster.cycle_us_samples", self.cycle_us_samples, "count");
        o.metric(
            "snitch.step_ns_per_cycle",
            self.snitch_step_ns_per_cycle,
            "ns/cycle",
        );
        o.metric(
            "traffic.gen_ns_per_cycle",
            self.traffic_gen_ns_per_cycle,
            "ns/cycle",
        );
        o.metric(
            "cluster.self_ns_per_cycle",
            self.self_ns_per_cycle,
            "ns/cycle",
        );
        o.metric(
            "cluster.core_steps_per_cycle",
            self.core_steps_per_cycle,
            "steps/cycle",
        );
        o.metric("snitch.instret", self.instret, "count");
        o.metric("snitch.ipc", self.ipc, "instr/cycle");
        o.metric("snitch.stall_cycles", self.stall_cycles, "cycles");
        o.metric("mem.local_ratio", self.local_ratio, "fraction");
        o.metric("mem.icache_hit_rate", self.icache_hit_rate, "fraction");
        o.metric("noc.net_occupancy", self.net_occupancy, "fraction");
        o.metric(
            "noc.requests_per_cycle",
            self.noc_requests_per_cycle,
            "req/cycle",
        );
        o.metric("cluster.snapshot_ms", self.snapshot_ms, "ms");
        o.metric("cluster.snapshot_bytes", self.snapshot_bytes, "bytes");
        o.metric(
            "cluster.checkpoint_write_ms",
            self.checkpoint_write_ms,
            "ms",
        );
        o.metric("serve.rpc_ms_p50", self.rpc_ms_p50, "ms");
        o.metric("serve.submit_ms_p50", self.submit_ms_p50, "ms");
        o.metric("serve.wait_ms_p50", self.wait_ms_p50, "ms");
        o.metric("serve.dispatch_ms_p50", self.dispatch_ms_p50, "ms");
        o.metric("serve.run_ms_p50", self.run_ms_p50, "ms");
        o.metric(
            "serve.journal_appends_per_job",
            self.journal_appends_per_job,
            "count",
        );
        o.metric(
            "serve.workers_spawned_per_job",
            self.workers_spawned_per_job,
            "count",
        );
        o.metric("serve.retries", self.retries, "count");
        o.metric("serve.daemon_start_ms", self.daemon_start_ms, "ms");
        o.metric("trace.overhead_ratio", self.overhead_ratio, "ratio");
    }

    /// Host time per cycle from the traced chunks: percentiles, core time
    /// (into the Snitch or traffic-generator field, per `snitch`) and the
    /// chunks' self time as the trace computes it.
    pub fn chunks(&mut self, tracer: &Tracer, chunks: &ChunkStats, snitch: bool) {
        let cycles = chunks.cycles.max(1) as f64;
        self.cycle_us_p50 = crate::report::median(&chunks.cycle_us);
        self.cycle_us_p90 = crate::report::quantile(&chunks.cycle_us, 0.9);
        self.cycle_us_samples = chunks.cycle_us.len() as f64;
        let core = chunks.core_ns as f64 / cycles;
        if snitch {
            self.snitch_step_ns_per_cycle = core;
        } else {
            self.traffic_gen_ns_per_cycle = core;
        }
        let self_ns: u64 = tracer
            .ids("cluster.chunk")
            .into_iter()
            .map(|id| tracer.self_ns(id))
            .sum();
        self.self_ns_per_cycle = self_ns as f64 / cycles;
        self.core_steps_per_cycle = chunks.core_steps as f64 / cycles;
    }

    /// Simulated memory-system figures of a finished cluster.
    pub fn memory<C: mempool::Core>(&mut self, cluster: &Cluster<C>) {
        let stats = cluster.stats();
        self.local_ratio = stats.locality();
        self.icache_hit_rate = cluster.icache_stats().hit_rate();
        self.net_occupancy = stats.net_occupancy();
        self.noc_requests_per_cycle = stats.remote_requests as f64 / stats.cycles.max(1) as f64;
    }

    /// Simulated core figures, summed over every Snitch core.
    pub fn snitch<'a>(&mut self, cores: impl Iterator<Item = &'a CoreStats>, cycles: u64) {
        let (mut instret, mut stalls, mut n) = (0u64, 0u64, 0u64);
        for s in cores {
            instret += s.instret;
            stalls += s.stall_scoreboard
                + s.stall_lsu_full
                + s.stall_port
                + s.stall_fetch
                + s.stall_fence
                + s.stall_exec;
            n += 1;
        }
        self.instret = instret as f64;
        self.ipc = instret as f64 / (cycles.max(1) * n.max(1)) as f64;
        self.stall_cycles = stalls as f64;
    }

    /// Snapshot cost of a cluster's current state: capture, size, and an
    /// atomic checkpoint write to `path` (removed afterwards).
    pub fn snapshot<C: mempool::Core + mempool::CoreState>(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<crate::trace::SpanId>,
        cluster: &Cluster<C>,
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        let id = tracer.begin("cluster.snapshot", parent);
        let snap = cluster.snapshot();
        tracer.end(id);
        self.snapshot_ms = tracer.duration_ns(id) as f64 / 1e6;
        self.snapshot_bytes = snap.as_bytes().len() as f64;
        let id = tracer.begin("cluster.checkpoint_write", parent);
        let written = snap.write_file(path);
        tracer.end(id);
        self.checkpoint_write_ms = tracer.duration_ns(id) as f64 / 1e6;
        written.and_then(|()| std::fs::remove_file(path))
    }
}
