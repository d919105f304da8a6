//! The simulator benchmark harness behind `mempool-run bench`.
//!
//! Measures *simulator throughput* — how many simulated cluster cycles
//! (and core·cycles) one wall-clock second buys — on the ideal/Top4/TopH
//! topologies at 16 and 256 cores, and records each point's final
//! `state_digest` so a trajectory file doubles as a behaviour check. The
//! resulting `BENCH_*.json` gives every future change a perf trajectory to
//! move; see DESIGN.md §10 for the schema.

use mempool::{Cluster, ClusterConfig, Topology};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Schema tag stamped into every report.
pub const BENCH_SCHEMA: &str = "mempool-bench-v1";

/// The workload: every core hammers its own 16-word slice of the
/// interleaved region forever — steady mixed local/remote traffic with no
/// halt, so a measurement window of any length is representative.
fn workload() -> mempool_riscv::Program {
    mempool_riscv::assemble(
        "csrr t0, mhartid\n\
         li   t2, 0x10000\n\
         slli t3, t0, 6\n\
         add  t3, t3, t2\n\
         forever:\n\
         mv   t6, t3\n\
         li   t4, 16\n\
         loop:\n\
         sw   t0, 0(t6)\n\
         lw   t5, 0(t6)\n\
         add  t0, t0, t5\n\
         addi t6, t6, 4\n\
         addi t4, t4, -1\n\
         bnez t4, loop\n\
         csrr t0, mhartid\n\
         j    forever\n",
    )
    .expect("benchmark workload assembles")
}

/// Benchmark run parameters.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Measured cycles per point.
    pub cycles: u64,
    /// Warm-up cycles before the timed window (fills the I-caches and the
    /// network).
    pub warmup: u64,
    /// Cluster sizes to measure (subset of {16, 64, 256} cores).
    pub core_counts: Vec<usize>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            cycles: 2_000,
            warmup: 200,
            core_counts: vec![16, 256],
        }
    }
}

/// One measured (topology, size) point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Interconnect topology.
    pub topology: Topology,
    /// Total cores of the measured cluster.
    pub cores: usize,
    /// Measured simulated cycles.
    pub cycles: u64,
    /// Wall-clock seconds for the measured window.
    pub wall_seconds: f64,
    /// Simulated cluster cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Simulated core·cycles per wall-clock second.
    pub core_cycles_per_sec: f64,
    /// `state_digest` at the end of the window (warmup + measured cycles).
    pub state_digest: u64,
}

/// A full benchmark report: the measured points.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Every measured point.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// Renders the report as the `BENCH_*.json` document (schema in
    /// DESIGN.md §10).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            // `engine`/`workers` keep the v1 row shape (and the
            // bench-regress `(topology, cores, engine)` key) stable.
            let _ = write!(
                out,
                "    {{\"topology\": \"{}\", \"cores\": {}, \"engine\": \"serial\", \
                 \"workers\": 0, \"cycles\": {}, \"wall_seconds\": {:.6}, \
                 \"sim_cycles_per_sec\": {:.1}, \"core_cycles_per_sec\": {:.1}, \
                 \"state_digest\": \"{:#018x}\"}}",
                p.topology,
                p.cores,
                p.cycles,
                p.wall_seconds,
                p.sim_cycles_per_sec,
                p.core_cycles_per_sec,
                p.state_digest,
            );
            out.push_str(if i + 1 < self.points.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The cluster configuration of one benchmark size: 16 cores is the
/// 4-tile small cluster (the CI smoke size), 64 the paper's small
/// configuration, 256 the full paper cluster.
///
/// # Errors
///
/// An unsupported core count.
pub fn bench_cluster_config(topology: Topology, cores: usize) -> Result<ClusterConfig, String> {
    match cores {
        16 => {
            // Keep the small cluster's 16-tile fabric (TopH needs 4 tiles
            // per group for its inter-group butterflies) and thin each
            // tile to one core.
            let mut config = ClusterConfig::small(topology);
            config.cores_per_tile = 1;
            Ok(config)
        }
        64 => Ok(ClusterConfig::small(topology)),
        256 => Ok(ClusterConfig::paper(topology)),
        other => Err(format!("unsupported bench size: {other} cores (16/64/256)")),
    }
}

/// Measures one point.
fn measure_point(
    config: &BenchConfig,
    topology: Topology,
    cores: usize,
) -> Result<BenchPoint, String> {
    let mut cluster =
        Cluster::snitch(bench_cluster_config(topology, cores)?).map_err(|e| e.to_string())?;
    cluster
        .load_program(&workload())
        .map_err(|e| e.to_string())?;
    cluster.step_cycles(config.warmup);
    let start = Instant::now();
    cluster.step_cycles(config.cycles);
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    Ok(BenchPoint {
        topology,
        cores,
        cycles: config.cycles,
        wall_seconds: wall,
        sim_cycles_per_sec: config.cycles as f64 / wall,
        core_cycles_per_sec: (config.cycles * cores as u64) as f64 / wall,
        state_digest: cluster.state_digest(),
    })
}

/// Runs the full benchmark matrix: `core_counts` × {ideal, Top4, TopH}.
///
/// # Errors
///
/// Configuration errors (unsupported size) only; measurement itself is
/// infallible.
pub fn run_bench(config: &BenchConfig) -> Result<BenchReport, String> {
    run_bench_supervised(config, None).map(|(report, _)| report)
}

/// [`run_bench`] with an interrupt flag checked between points: when the
/// flag is raised (SIGINT/SIGTERM), the sweep stops after the point in
/// flight and returns the partial report plus `true` — measurements
/// already taken are never lost to an interrupt.
///
/// # Errors
///
/// Configuration errors (unsupported size) only.
pub fn run_bench_supervised(
    config: &BenchConfig,
    interrupt: Option<&AtomicBool>,
) -> Result<(BenchReport, bool), String> {
    let topologies = [Topology::Ideal, Topology::Top4, Topology::TopH];
    let mut report = BenchReport { points: Vec::new() };
    for &cores in &config.core_counts {
        for topology in topologies {
            if interrupt.is_some_and(|flag| flag.load(Ordering::SeqCst)) {
                return Ok((report, true));
            }
            report.points.push(measure_point(config, topology, cores)?);
        }
    }
    Ok((report, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_is_consistent_and_digests_match() {
        let config = BenchConfig {
            cycles: 300,
            warmup: 50,
            core_counts: vec![16],
        };
        let report = run_bench(&config).expect("bench runs");
        // One point per topology, and a rerun lands on the same digests.
        assert_eq!(report.points.len(), 3);
        let rerun = run_bench(&config).expect("bench reruns");
        let digests =
            |r: &BenchReport| r.points.iter().map(|p| p.state_digest).collect::<Vec<_>>();
        assert_eq!(digests(&report), digests(&rerun));
        for p in &report.points {
            assert!(p.wall_seconds > 0.0);
            assert!(p.sim_cycles_per_sec > 0.0);
            assert_eq!(
                p.core_cycles_per_sec,
                p.sim_cycles_per_sec * p.cores as f64
            );
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mempool-bench-v1\""));
        let serial_rows = json.matches("\"engine\": \"serial\", \"workers\": 0,");
        assert_eq!(serial_rows.count(), 3);
        assert!(!json.contains("digest_checks"));
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count()
        );
    }

    #[test]
    fn interrupt_returns_the_partial_report() {
        let config = BenchConfig {
            cycles: 200,
            warmup: 50,
            core_counts: vec![16],
        };
        // An already-raised interrupt stops before the first point; the
        // report comes back (empty here) instead of being discarded.
        let flag = AtomicBool::new(true);
        let (partial, interrupted) =
            run_bench_supervised(&config, Some(&flag)).expect("supervised");
        assert!(interrupted);
        assert!(partial.points.is_empty());

        // A flag that never rises lets the sweep run to the end.
        let flag = AtomicBool::new(false);
        let (full, interrupted) =
            run_bench_supervised(&config, Some(&flag)).expect("supervised");
        assert!(!interrupted);
        assert_eq!(full.points.len(), 3);
    }

    #[test]
    fn unsupported_size_is_a_typed_error() {
        let err = bench_cluster_config(Topology::TopH, 12).expect_err("12 cores unsupported");
        assert!(err.contains("12"), "{err}");
    }
}
