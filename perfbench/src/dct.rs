//! `dct-local`: the Fig. 7 DCT kernel on the 256-core TopH cluster with
//! hybrid addressing, run to completion and golden-checked, back to back.
//! Every access is tile-local, so the core step and the tile/bank path do
//! the work while the global interconnect idles.

use crate::metrics::{EndToEnd, Layers};
use crate::report::{median, peak_rss_mb, Outcome};
use crate::trace::{
    position_quantile_s, run_in_chunks, steady_job_ms, timed_snitch_cluster, ChunkStats, Chunked,
    Tracer,
};
use crate::Args;
use mempool::{Cluster, ClusterConfig, Core, Topology};
use mempool_kernels::{build_program, Dct, Geometry, Kernel};
use mempool_snitch::SnitchCore;
use std::time::Instant;

const BUDGET: u64 = 10_000_000;

/// One finished kernel run.
struct Rep {
    setup_s: f64,
    /// Host seconds of each chunk-sized `run` call.
    chunks: Vec<f64>,
    job_s: f64,
    cycles: u64,
    digest: u64,
}

/// Checks one repetition's outputs: the golden model and the digest every
/// run of this seed must reach.
fn check_rep<C: Core + mempool::CoreState>(
    o: &mut Outcome,
    dct: &Dct,
    cluster: &Cluster<C>,
    seed: u64,
    expected: &mut Option<u64>,
) -> u64 {
    let golden = dct.check(cluster, seed);
    o.check(golden.is_ok(), || {
        format!("dct golden check: {}", golden.unwrap_err())
    });
    let digest = cluster.state_digest();
    let want = *expected.get_or_insert(digest);
    o.check(digest == want, || {
        format!("dct state digest {digest:#018x} != expected {want:#018x}")
    });
    digest
}

/// Runs the kernel back to back for `seconds` (at least once); returns
/// the runs and the last finished cluster.
fn untraced(
    args: &Args,
    dct: &Dct,
    config: ClusterConfig,
    seconds: f64,
    o: &mut Outcome,
    expected: &mut Option<u64>,
) -> Result<(Vec<Rep>, Cluster<SnitchCore>), String> {
    let mut reps = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let program = build_program(dct, &config).map_err(|e| e.to_string())?;
        let mut cluster = Cluster::snitch(config).map_err(|e| e.to_string())?;
        cluster.load_program(&program).map_err(|e| e.to_string())?;
        dct.init(&mut cluster, args.seed);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut chunks = Vec::new();
        let finished = run_in_chunks(&mut cluster, BUDGET, &mut chunks)
            .map_err(|e| format!("dct run: {e}"))?;
        if !finished {
            return Err("dct did not finish within its cycle budget".to_owned());
        }
        let digest = check_rep(o, dct, &cluster, args.seed, expected);
        reps.push(Rep {
            setup_s,
            chunks,
            job_s: t0.elapsed().as_secs_f64(),
            cycles: cluster.now(),
            digest,
        });
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok((reps, cluster));
        }
    }
}

fn geometry(args: &Args) -> (ClusterConfig, Dct) {
    let config = if args.small {
        ClusterConfig::small(Topology::TopH)
    } else {
        ClusterConfig::paper(Topology::TopH)
    };
    let dct = Dct::new(Geometry::from_config(&config, 4096)).expect("the DCT layout fits");
    (config, dct)
}

pub fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    let (config, dct) = geometry(args);
    let mut o = Outcome::default();
    let mut expected = args.expect_digest;
    if !args.trace {
        // The first run warms caches and the allocator; it is checked but
        // not timed.
        untraced(args, &dct, config, 0.0, &mut o, &mut expected)?;
        let loop_start = Instant::now();
        let (reps, cluster) = untraced(args, &dct, config, args.seconds, &mut o, &mut expected)?;
        let wall = loop_start.elapsed().as_secs_f64();
        let chunks: Vec<Vec<f64>> = reps.iter().map(|r| r.chunks.clone()).collect();
        let jobs_s: Vec<f64> = reps.iter().map(|r| r.job_s).collect();
        let jobs_ms: Vec<f64> = jobs_s.iter().map(|s| s * 1e3).collect();
        let mut e = EndToEnd {
            sim_cycles_per_s: reps[0].cycles as f64 / position_quantile_s(&chunks, 0.25),
            setup_s: median(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
            peak_rss_mb: peak_rss_mb("self"),
            job_latency_p50_ms: steady_job_ms(&chunks, &jobs_s, 0.5),
            job_latency_tail_ms: steady_job_ms(&chunks, &jobs_s, 0.75),
            jobs_per_s: reps.len() as f64 / wall,
            ..EndToEnd::default()
        };
        e.simulated(cluster.stats(), reps[0].cycles, config.num_cores());
        e.emit(&mut o);
        o.note(format!(
            "job latencies are per-chunk-position p50 and p75 over {} kernel runs; \
             whole-run p50 {:.3} ms; digest {:#018x}",
            reps.len(),
            median(&jobs_ms),
            reps[0].digest
        ));
        o.note(format!(
            "reference: mem.local_ratio {:.4} vs 1.00 predicted by hybrid addressing \
             (difference {:+.4}); the model has no other reference results here",
            cluster.stats().locality(),
            cluster.stats().locality() - 1.0
        ));
        return Ok((o, None));
    }

    // Traced run: half the time untraced, half traced, so the overhead
    // and the digest comparison come from one process.
    let half = args.seconds / 2.0;
    untraced(args, &dct, config, 0.0, &mut o, &mut expected)?;
    let (plain, _) = untraced(args, &dct, config, half, &mut o, &mut expected)?;
    let untraced_us = median(
        &plain
            .iter()
            .map(|r| r.chunks.iter().sum::<f64>() * 1e6 / r.cycles as f64)
            .collect::<Vec<_>>(),
    );
    let untraced_setup_s = median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());

    let mut tracer = Tracer::new();
    let mut chunks = ChunkStats::default();
    let mut traced_us = Vec::new();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut last = None;
    while traced_us.is_empty() || start.elapsed().as_secs_f64() < half {
        let job = tracer.begin("job", None);
        let setup = tracer.begin("setup", Some(job));
        let program = tracer
            .span("riscv.assemble", Some(setup), || {
                build_program(&dct, &config)
            })
            .map_err(|e| e.to_string())?;
        let mut cluster = tracer.span("cluster.build", Some(setup), || {
            timed_snitch_cluster(config, &program)
        })?;
        tracer.span("kernels.init", Some(setup), || {
            dct.init(&mut cluster, args.seed)
        });
        tracer.end(setup);
        setups.push(tracer.duration_ns(setup) as f64 / 1e9);
        let run = tracer.begin("cluster.run", Some(job));
        let chunk_ns0 = chunks.chunk_ns;
        let cycles0 = chunks.cycles;
        let finished = Chunked {
            tracer: &mut tracer,
            parent: run,
            core_span: "snitch.step",
            stats: &mut chunks,
        }
        .run(&mut cluster, BUDGET)
        .map_err(|e| format!("dct run: {e}"))?;
        tracer.end(run);
        if !finished {
            return Err("dct did not finish within its cycle budget".to_owned());
        }
        traced_us
            .push((chunks.chunk_ns - chunk_ns0) as f64 / 1e3 / (chunks.cycles - cycles0) as f64);
        // Compared against the untraced runs' digest.
        tracer.span("kernels.check", Some(job), || {
            check_rep(&mut o, &dct, &cluster, args.seed, &mut expected)
        });
        tracer.end(job);
        last = Some(cluster);
    }
    let cluster = last.expect("at least one traced run");
    let mut l = Layers {
        assemble_ms: median(&tracer.durations_ms("riscv.assemble")),
        build_ms: median(&tracer.durations_ms("cluster.build")),
        init_ms: median(&tracer.durations_ms("kernels.init")),
        ..Layers::default()
    };
    l.chunks(&tracer, &chunks, true);
    l.snitch(
        cluster.cores().iter().map(|c| c.inner.stats()),
        cluster.now(),
    );
    l.memory(&cluster);
    l.snapshot(
        &mut tracer,
        None,
        &cluster,
        &args.out_dir.join("dct-local.ckpt"),
    )
    .map_err(|e| format!("checkpoint write: {e}"))?;
    l.overhead_ratio = median(&traced_us) / untraced_us;
    l.emit(&mut o);
    let traced_setup_s = median(&setups);
    o.note(format!(
        "traced setup_s {traced_setup_s:.6} (untraced {untraced_setup_s:.6}); \
         riscv.assemble_ms + cluster.build_ms + kernels.init_ms = {:.3} ms ({:.1}% of it)",
        l.assemble_ms + l.build_ms + l.init_ms,
        100.0 * (l.assemble_ms + l.build_ms + l.init_ms) / (traced_setup_s * 1e3)
    ));
    o.note(format!(
        "{} traced and {} untraced kernel runs; each digest checked against the first",
        traced_us.len(),
        plain.len()
    ));
    Ok((o, Some(tracer)))
}
