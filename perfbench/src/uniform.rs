//! `uniform-heavy`: 256 `TrafficGen` cores on TopH at uniform
//! λ = 0.33 req/core/cycle with the Fig. 5/6 windows — the paper's
//! headline load point. No instruction-set simulation runs; routing,
//! arbitration and elastic buffers work near saturation.

use crate::metrics::{EndToEnd, Layers};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::trace::{
    position_quantile_s, run_in_chunks, steady_job_ms, step_in_chunks, ChunkStats, Chunked, Timed,
    Tracer,
};
use crate::Args;
use mempool::{Cluster, ClusterConfig, Core, CoreLocation, LatencyStats, Topology};
use mempool_traffic::{run_point, AddressSpace, Pattern, SweepPoint, TrafficGen, Windows};
use std::time::Instant;

const LOAD: f64 = 0.33;
/// TopH's average latency at λ = 0.33 in the paper (Fig. 6).
const PAPER_LATENCY: f64 = 6.0;

/// The generator `run_point` builds for core `loc`.
fn traffic_factory(config: &ClusterConfig, seed: u64) -> impl FnMut(CoreLocation) -> TrafficGen {
    let map = config.address_map().expect("valid configuration");
    let scrambler = config.scrambler().expect("valid configuration");
    let config = *config;
    move |loc| {
        let (seq_base, seq_bytes, seq_total) = match scrambler {
            Some(s) => (
                s.seq_base(loc.tile as u32),
                s.seq_bytes_per_tile(),
                s.seq_region_bytes() as u32,
            ),
            None => (0, 0, 0),
        };
        TrafficGen::new(
            LOAD,
            Pattern::Uniform,
            AddressSpace {
                l1_bytes: map.size_bytes() as u32,
                seq_base,
                seq_bytes,
                seq_total,
                tile: loc.tile as u32,
                num_tiles: config.num_tiles as u32,
                banks_per_tile: config.banks_per_tile as u32,
            },
            64,
            seed.wrapping_mul(0x9e37_79b9).wrapping_add(loc.core as u64),
        )
    }
}

/// One traffic point's simulated outcome.
struct Point {
    throughput: f64,
    latency: LatencyStats,
    cycles: u64,
    digest: u64,
}

/// How a point's cycles are run: in whole calls, or in traced chunks.
trait Drive<C> {
    fn step(&mut self, cluster: &mut Cluster<C>, cycles: u64);
    /// Runs until every generator drained, or `budget` cycles pass (a
    /// budget overrun is not an error, as in `run_point`).
    fn drain(&mut self, cluster: &mut Cluster<C>, budget: u64);
}

/// Untraced: host seconds of each chunk-sized call.
struct ChunkTimes(Vec<f64>);

impl<C: Core> Drive<C> for ChunkTimes {
    fn step(&mut self, cluster: &mut Cluster<C>, cycles: u64) {
        step_in_chunks(cluster, cycles, &mut self.0);
    }

    fn drain(&mut self, cluster: &mut Cluster<C>, budget: u64) {
        let _ = run_in_chunks(cluster, budget, &mut self.0);
    }
}

impl<C: Core> Drive<Timed<C>> for Chunked<'_> {
    fn step(&mut self, cluster: &mut Cluster<Timed<C>>, cycles: u64) {
        self.step_cycles(cluster, cycles);
    }

    fn drain(&mut self, cluster: &mut Cluster<Timed<C>>, budget: u64) {
        let _ = self.run(cluster, budget);
    }
}

/// `run_point`'s warmup / measure / drain sequence on a prebuilt cluster.
fn drive<C: Core + mempool::CoreState>(
    cluster: &mut Cluster<C>,
    windows: Windows,
    gen: impl Fn(&mut C) -> &mut TrafficGen,
    how: &mut dyn Drive<C>,
) -> Point {
    how.step(cluster, windows.warmup);
    cluster
        .cores_mut()
        .iter_mut()
        .for_each(|c| gen(c).start_measuring());
    let before = cluster.stats().responses_delivered;
    how.step(cluster, windows.measure);
    let delivered = cluster.stats().responses_delivered - before;
    cluster.cores_mut().iter_mut().for_each(|c| gen(c).stop());
    how.drain(cluster, windows.drain);
    let mut latency = LatencyStats::new();
    for c in cluster.cores_mut() {
        latency.merge(&gen(c).stats().latency);
    }
    let cores = cluster.config().num_cores();
    Point {
        throughput: delivered as f64 / (windows.measure as f64 * cores as f64),
        latency,
        cycles: cluster.now(),
        digest: cluster.state_digest(),
    }
}

/// One untraced point with its host timings.
struct Rep {
    point: Point,
    setup_s: f64,
    /// Host seconds of each chunk-sized call.
    chunks: Vec<f64>,
    job_s: f64,
}

fn same_as_reference(p: &Point, r: &SweepPoint) -> bool {
    p.throughput == r.throughput
        && p.latency.count() == r.latency.count()
        && p.latency.sum() == r.latency.sum()
}

pub fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    let config = if args.small {
        ClusterConfig::small(Topology::TopH)
    } else {
        ClusterConfig::paper(Topology::TopH)
    };
    let windows = Windows::default();
    let mut o = Outcome::default();

    // The library's own point: the reference every replay must reproduce
    // exactly. It also warms caches before anything is timed.
    let reference =
        run_point(config, Pattern::Uniform, LOAD, windows, args.seed).map_err(|e| e.to_string())?;
    let mut expected = args.expect_digest;

    let plain = |o: &mut Outcome, expected: &mut Option<u64>, seconds: f64| {
        let mut reps = Vec::new();
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            let mut cluster = Cluster::new(config, traffic_factory(&config, args.seed))
                .map_err(|e| e.to_string())?;
            let setup_s = t0.elapsed().as_secs_f64();
            let mut times = ChunkTimes(Vec::new());
            let p = drive(&mut cluster, windows, |g| g, &mut times);
            check_point(o, &p, &reference, expected);
            reps.push(Rep {
                point: p,
                setup_s,
                chunks: times.0,
                job_s: t0.elapsed().as_secs_f64(),
            });
            if start.elapsed().as_secs_f64() >= seconds {
                return Ok::<_, String>(reps);
            }
        }
    };

    if !args.trace {
        let loop_start = Instant::now();
        let reps = plain(&mut o, &mut expected, args.seconds)?;
        let wall = loop_start.elapsed().as_secs_f64();
        let jobs_s: Vec<f64> = reps.iter().map(|r| r.job_s).collect();
        let jobs_ms: Vec<f64> = jobs_s.iter().map(|s| s * 1e3).collect();
        let first = &reps[0].point;
        let chunks: Vec<Vec<f64>> = reps.iter().map(|r| r.chunks.clone()).collect();
        let e = EndToEnd {
            sim_cycles_per_s: first.cycles as f64 / position_quantile_s(&chunks, 0.25),
            setup_s: median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            peak_rss_mb: peak_rss_mb("self"),
            sim_cycles: first.cycles as f64,
            sim_avg_latency_cycles: first.latency.mean(),
            sim_throughput: first.throughput,
            job_latency_p50_ms: steady_job_ms(&chunks, &jobs_s, 0.5),
            job_latency_tail_ms: steady_job_ms(&chunks, &jobs_s, 0.75),
            jobs_per_s: reps.len() as f64 / wall,
        };
        e.emit(&mut o);
        o.note(format!(
            "job latencies are per-chunk-position p50 and p75 over {} traffic points; \
             whole-run p50 {:.3} ms; digest {:#018x}",
            reps.len(),
            median(&jobs_ms),
            first.digest
        ));
        o.note(format!(
            "reference: sim_avg_latency_cycles {:.3} at λ = {LOAD} vs the paper's ≈ {PAPER_LATENCY} \
             cycles for TopH (difference {:+.3} cycles, {:+.1}%); the model has no other \
             reference results here",
            first.latency.mean(),
            first.latency.mean() - PAPER_LATENCY,
            100.0 * (first.latency.mean() / PAPER_LATENCY - 1.0)
        ));
        return Ok((o, None));
    }

    let half = args.seconds / 2.0;
    let untraced = plain(&mut o, &mut expected, half)?;
    let untraced_us = median(
        &untraced
            .iter()
            .map(|r| r.chunks.iter().sum::<f64>() * 1e6 / r.point.cycles as f64)
            .collect::<Vec<_>>(),
    );
    let mut tracer = Tracer::new();
    let mut chunks = ChunkStats::default();
    let mut traced_us = Vec::new();
    let start = Instant::now();
    let mut last = None;
    while traced_us.is_empty() || start.elapsed().as_secs_f64() < half {
        let job = tracer.begin("job", None);
        let mut cluster = tracer
            .span("cluster.build", Some(job), || {
                let mut gen = traffic_factory(&config, args.seed);
                Cluster::new(config, |loc| Timed::new(gen(loc)))
            })
            .map_err(|e| e.to_string())?;
        let run = tracer.begin("cluster.run", Some(job));
        let (ns0, cycles0) = (chunks.chunk_ns, chunks.cycles);
        let mut chunked = Chunked {
            tracer: &mut tracer,
            parent: run,
            core_span: "traffic.gen",
            stats: &mut chunks,
        };
        let p = drive(&mut cluster, windows, |t| &mut t.inner, &mut chunked);
        tracer.end(run);
        tracer.end(job);
        traced_us.push((chunks.chunk_ns - ns0) as f64 / 1e3 / (chunks.cycles - cycles0) as f64);
        check_point(&mut o, &p, &reference, &mut expected);
        last = Some(cluster);
    }
    let cluster = last.expect("at least one traced point");
    let mut l = Layers {
        build_ms: median(&tracer.durations_ms("cluster.build")),
        ..Layers::default()
    };
    l.chunks(&tracer, &chunks, false);
    l.memory(&cluster);
    l.snapshot(
        &mut tracer,
        None,
        &cluster,
        &args.out_dir.join("uniform-heavy.ckpt"),
    )
    .map_err(|e| format!("checkpoint write: {e}"))?;
    l.overhead_ratio = median(&traced_us) / untraced_us;
    l.emit(&mut o);
    o.note(format!(
        "{} traced and {} untraced points checked against run_point: throughput {:.6}, \
         avg latency {:.6} cycles",
        traced_us.len(),
        untraced.len(),
        reference.throughput,
        reference.avg_latency()
    ));
    Ok((o, Some(tracer)))
}

/// Checks one replayed point against `run_point` and the digest every
/// point of this seed must reach.
fn check_point(o: &mut Outcome, p: &Point, reference: &SweepPoint, expected: &mut Option<u64>) {
    o.check(same_as_reference(p, reference), || {
        format!(
            "replayed point (throughput {}, latency {}) differs from run_point ({}, {})",
            p.throughput,
            p.latency.mean(),
            reference.throughput,
            reference.avg_latency()
        )
    });
    let want = *expected.get_or_insert(p.digest);
    o.check(p.digest == want, || {
        format!(
            "traffic state digest {:#018x} != expected {want:#018x}",
            p.digest
        )
    });
}
