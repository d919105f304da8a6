//! `serve-jobs`: one closed-loop client against a `mempool-serve` daemon
//! (default 2 worker slots), submitting identical `run` jobs and waiting
//! for each. The only workload on the service path: accept and protocol,
//! admission, the fsynced journal, worker spawn, chunked simulation with
//! checkpoint parks, and the result.

use crate::metrics::{EndToEnd, Layers};
use crate::report::{median, peak_rss_mb, tail, Outcome};
use crate::trace::{timed_snitch_cluster, ChunkStats, Chunked, Tracer};
use crate::Args;
use mempool::{ClusterConfig, SimSession};
use mempool_rng::{Rng, SeedableRng, StdRng};
use mempool_serve::{JobSpec, RunSpec, ServeClient};
use mempool_traffic::{parse_config_spec, parse_flat_json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// 64-core TopH with hybrid addressing: the service's small cluster.
const CONFIG_SPEC: &str = "topology=topH,small=true,scramble=true";
/// `mempool-cli submit run` defaults: cycle cap and checkpoint interval.
const MAX_CYCLES: u64 = 1_000_000;
const CHECKPOINT_EVERY: u64 = 4096;
/// Loop trips per core; sized for about 9–10k simulated cycles.
const ITERATIONS: u32 = 510;
/// Daemon starts per run; `setup_s` is their median.
const STARTS: usize = 5;
/// A job that takes longer than this counts as failed.
const JOB_DEADLINE: Duration = Duration::from_secs(60);

/// The job's program: every core runs a xorshift walk whose start state
/// comes from `seed`, read-modify-writing random words of a 4 KiB array
/// in the interleaved region, then stores its final state and halts. The
/// seed moves data and addresses, not the amount of work.
fn job_program(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let state: u32 = rng.gen::<u32>() | 1;
    format!(
        "    csrr t0, mhartid
    li   s0, {state}
    slli t1, t0, 7
    xor  s0, s0, t1
    ori  s0, s0, 1
    li   s1, 0x10000
    slli t2, t0, 2
    li   t3, {ITERATIONS}
loop:
    slli t4, s0, 13
    xor  s0, s0, t4
    srli t4, s0, 17
    xor  s0, s0, t4
    slli t4, s0, 5
    xor  s0, s0, t4
    andi t5, s0, 1023
    slli t5, t5, 2
    add  t5, s1, t5
    lw   t6, 0(t5)
    add  t6, t6, s0
    sw   t6, 0(t5)
    addi t3, t3, -1
    bnez t3, loop
    li   a0, 0x11000
    add  a0, a0, t2
    sw   s0, 0(a0)
    ecall
"
    )
}

fn job_spec(program: &str) -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: CONFIG_SPEC.to_owned(),
        program: program.to_owned(),
        max_cycles: MAX_CYCLES,
        checkpoint_every: CHECKPOINT_EVERY,
        metrics: false,
    })
}

/// What the daemon must answer: the job's simulated outcome, computed in
/// process through `SimSession`.
struct Reference {
    cycles: u64,
    digest: u64,
    avg_latency: f64,
    throughput: f64,
    /// Host µs per simulated cycle of this untraced in-process run.
    us_per_cycle: f64,
}

fn reference(config: ClusterConfig, program: &mempool_riscv::Program) -> Result<Reference, String> {
    let mut session = SimSession::builder(config)
        .build_snitch()
        .map_err(|e| e.to_string())?;
    session.load_program(program).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let cycles = session.run(MAX_CYCLES).map_err(|e| e.to_string())?;
    let us_per_cycle = t.elapsed().as_secs_f64() * 1e6 / cycles as f64;
    let cluster = session.cluster();
    Ok(Reference {
        cycles,
        digest: session.state_digest(),
        avg_latency: cluster.stats().latency.mean(),
        throughput: cluster.stats().throughput(config.num_cores()),
        us_per_cycle,
    })
}

/// A running daemon; dropping it kills and reaps the process if it was
/// not shut down cleanly.
struct Daemon {
    child: Child,
    client: ServeClient,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns a daemon with its own socket and state directory under
    /// `dir` and waits for its first healthy reply.
    fn start(bin: &Path, dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("sock");
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            client: ServeClient::connect(&socket),
            dir,
        };
        let start = Instant::now();
        while daemon.client.health().is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(daemon)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the daemon and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts `STARTS` daemons one after another, keeping the last; returns
/// it with each start-up time in seconds.
fn start_daemons(
    args: &Args,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Daemon, Vec<f64>), String> {
    let bin = args
        .serve_bin
        .as_deref()
        .ok_or("serve-jobs needs --serve-bin <path to mempool-serve>")?;
    let mut times = Vec::new();
    for i in 0..STARTS {
        let dir = args
            .out_dir
            .join(format!("serve-{}-{i}", std::process::id()));
        let t = Instant::now();
        let daemon = timed(&mut tracer, "serve.daemon_start", || {
            Daemon::start(bin, dir)
        })?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 == STARTS {
            return Ok((daemon, times));
        }
        daemon.shutdown()?;
    }
    unreachable!("STARTS is nonzero")
}

/// One served job, timed from submit to the `done` event.
struct Job {
    latency_ms: f64,
    id: u64,
}

/// Runs `f`, inside a span named `name` when tracing.
fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tr) => tr.span(name, None, f),
        None => f(),
    }
}

/// Submits one job, waits for it, and checks its result. Spans go to
/// `tracer` when given.
fn serve_one(
    o: &mut Outcome,
    daemon: &Daemon,
    spec: &JobSpec,
    want: &Reference,
    expected: u64,
    mut tracer: Option<&mut Tracer>,
) -> Option<Job> {
    let client = &daemon.client;
    let t = Instant::now();
    let submitted = timed(&mut tracer, "serve.submit", || {
        client.submit("default", 0, None, spec)
    });
    let id = match submitted {
        Ok(id) => id,
        Err(e) => {
            o.check(false, || format!("submission rejected: {e}"));
            return None;
        }
    };
    let deadline = Instant::now() + JOB_DEADLINE;
    let done = timed(&mut tracer, "serve.wait", || {
        client.wait_until(id, Some(deadline), &mut |_| {})
    });
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let fields = match done {
        Ok(fields) => fields,
        Err(e) => {
            o.check(false, || format!("job {id}: {e}"));
            return None;
        }
    };
    let status = fields.get("status").map_or("", String::as_str);
    o.check(status == "completed", || {
        format!("job {id} ended `{status}`")
    });
    let result = fields
        .get("result")
        .and_then(|r| parse_flat_json(r))
        .unwrap_or_default();
    let digest = result
        .get("state_digest")
        .and_then(|d| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok());
    o.check(digest == Some(expected), || {
        format!("job {id} state digest {digest:x?} != expected {expected:#018x}")
    });
    let cycles = result.get("cycles").and_then(|c| c.parse::<u64>().ok());
    o.check(cycles == Some(want.cycles), || {
        format!(
            "job {id} ran {cycles:?} cycles, in-process run {}",
            want.cycles
        )
    });
    Some(Job { latency_ms, id })
}

/// Reads counter `name` (`"name": N`) from a serve-metrics document.
fn counter(doc: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": ");
    doc.find(&key)
        .and_then(|at| {
            let rest = &doc[at + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

/// Sum of the `retries` map of a serve-metrics document.
fn retries(doc: &str) -> f64 {
    doc.find("\"retries\": {")
        .and_then(|at| {
            let body = &doc[at..];
            body.find('}').map(|end| &body[..end])
        })
        .map_or(0, |body| {
            body.split(':')
                .skip(2)
                .filter_map(|v| {
                    v.trim()
                        .split([',', '}'])
                        .next()?
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
                .sum::<u64>()
        }) as f64
}

/// Milliseconds at which a job's timeline entered state `name`.
fn state_ms(timeline: &str, name: &str) -> Option<f64> {
    let key = format!("\"name\":\"{name}\",\"ph\":\"X\",\"ts\":");
    let rest = &timeline[timeline.find(&key)? + key.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

pub fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    let config = parse_config_spec(CONFIG_SPEC)?;
    let source = job_program(args.seed);
    let program = mempool_riscv::assemble(&source).map_err(|e| e.to_string())?;
    let spec = job_spec(&source);
    let want = reference(config, &program)?;
    let expected = args.expect_digest.unwrap_or(want.digest);
    let mut o = Outcome::default();

    if !args.trace {
        let (daemon, starts) = start_daemons(args, None)?;
        // One job warms the page cache and the worker binary; checked, not
        // timed.
        serve_one(&mut o, &daemon, &spec, &want, expected, None);
        let mut jobs = Vec::new();
        let loop_start = Instant::now();
        while jobs.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
            match serve_one(&mut o, &daemon, &spec, &want, expected, None) {
                Some(job) => jobs.push(job.latency_ms),
                None if loop_start.elapsed() > JOB_DEADLINE => break,
                None => {}
            }
        }
        let wall = loop_start.elapsed().as_secs_f64();
        let rss = daemon.peak_rss_mb();
        daemon.shutdown()?;
        if jobs.is_empty() {
            return Err("no job completed".to_owned());
        }
        let (tail_ms, pct) = tail(&jobs);
        let e = EndToEnd {
            sim_cycles_per_s: jobs.len() as f64 * want.cycles as f64 / wall,
            setup_s: median(&starts),
            peak_rss_mb: rss,
            sim_cycles: want.cycles as f64,
            sim_avg_latency_cycles: want.avg_latency,
            sim_throughput: want.throughput,
            job_latency_p50_ms: median(&jobs),
            job_latency_tail_ms: tail_ms,
            jobs_per_s: jobs.len() as f64 / wall,
        };
        e.emit(&mut o);
        o.note(format!(
            "job_latency_tail_ms is p{pct:.1} over {} jobs; job state digest {expected:#018x}",
            jobs.len()
        ));
        o.note("reference: the model has no reference results for the service path");
        return Ok((o, None));
    }

    let mut tracer = Tracer::new();
    let mut l = Layers::default();
    // The job's simulation in process, traced: per-layer host time of the
    // very cycles a worker runs, and the snapshot a checkpoint park takes.
    let program = tracer
        .span("riscv.assemble", None, || mempool_riscv::assemble(&source))
        .map_err(|e| e.to_string())?;
    let mut cluster = tracer.span("cluster.build", None, || {
        timed_snitch_cluster(config, &program)
    })?;
    let mut chunks = ChunkStats::default();
    let run = tracer.begin("cluster.run", None);
    let mut chunked = Chunked {
        tracer: &mut tracer,
        parent: run,
        core_span: "snitch.step",
        stats: &mut chunks,
    };
    let first = chunked
        .run(&mut cluster, CHECKPOINT_EVERY)
        .map_err(|e| e.to_string())?;
    if !first {
        let park = chunked.tracer.begin("checkpoint", Some(run));
        l.snapshot(
            chunked.tracer,
            Some(park),
            &cluster,
            &args.out_dir.join("serve-jobs.ckpt"),
        )
        .map_err(|e| format!("checkpoint write: {e}"))?;
        chunked.tracer.end(park);
        let left = MAX_CYCLES - cluster.now();
        chunked.run(&mut cluster, left).map_err(|e| e.to_string())?;
    }
    tracer.end(run);
    let digest = cluster.state_digest();
    o.check(digest == expected, || {
        format!("traced in-process digest {digest:#018x} != expected {expected:#018x}")
    });
    l.assemble_ms = median(&tracer.durations_ms("riscv.assemble"));
    l.build_ms = median(&tracer.durations_ms("cluster.build"));
    l.chunks(&tracer, &chunks, true);
    l.snitch(
        cluster.cores().iter().map(|c| c.inner.stats()),
        cluster.now(),
    );
    l.memory(&cluster);
    l.overhead_ratio = chunks.ns_per_cycle() / 1e3 / want.us_per_cycle;

    // The service, from the client: every call timed as a span.
    let (daemon, starts) = start_daemons(args, Some(&mut tracer))?;
    l.daemon_start_ms = median(&starts) * 1e3;
    serve_one(&mut o, &daemon, &spec, &want, expected, None);
    let (mut dispatch, mut running, mut served) = (Vec::new(), Vec::new(), 0u64);
    let loop_start = Instant::now();
    while served == 0 || loop_start.elapsed().as_secs_f64() < args.seconds {
        let healthy = tracer.span("serve.rpc", None, || daemon.client.health());
        o.check(healthy.is_ok(), || {
            format!("health: {}", healthy.unwrap_err())
        });
        let Some(job) = serve_one(&mut o, &daemon, &spec, &want, expected, Some(&mut tracer))
        else {
            if loop_start.elapsed() > JOB_DEADLINE {
                break;
            }
            continue;
        };
        served += 1;
        let timeline = tracer
            .span("serve.timeline", None, || daemon.client.timeline(job.id))
            .unwrap_or_default();
        if let (Some(q), Some(r), Some(c)) = (
            state_ms(&timeline, "queued"),
            state_ms(&timeline, "running"),
            state_ms(&timeline, "completed"),
        ) {
            dispatch.push(r - q);
            running.push(c - r);
        }
    }
    let doc = tracer
        .span("serve.metrics", None, || daemon.client.serve_metrics())
        .map_err(|e| e.to_string())?;
    daemon.shutdown()?;
    l.rpc_ms_p50 = median(&tracer.durations_ms("serve.rpc"));
    l.submit_ms_p50 = median(&tracer.durations_ms("serve.submit"));
    l.wait_ms_p50 = median(&tracer.durations_ms("serve.wait"));
    l.dispatch_ms_p50 = median(&dispatch);
    l.run_ms_p50 = median(&running);
    let admitted = counter(&doc, "jobs_admitted").max(1.0);
    l.journal_appends_per_job = counter(&doc, "journal_appends") / admitted;
    l.workers_spawned_per_job = counter(&doc, "workers_spawned") / admitted;
    l.retries = retries(&doc);
    l.emit(&mut o);
    o.note(format!(
        "{served} traced jobs; timeline states are whole milliseconds; \
         the in-process traced digest is checked against the daemon's"
    ));
    Ok((o, Some(tracer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_serve_metrics_counters() {
        let doc = "{\n  \"counters\": {\"jobs_admitted\": 12, \"journal_appends\": 36},\n  \
                   \"rejections\": {},\n  \"retries\": {\"panic\": 2, \"signal\": 1},\n}";
        assert_eq!(counter(doc, "jobs_admitted"), 12.0);
        assert_eq!(counter(doc, "journal_appends"), 36.0);
        assert_eq!(counter(doc, "missing"), 0.0);
        assert_eq!(retries(doc), 3.0);
        assert_eq!(retries("\"retries\": {}"), 0.0);
    }

    #[test]
    fn reads_timeline_states() {
        let t = "{\"name\":\"queued\",\"ph\":\"X\",\"ts\":0,\"dur\":3},\
                 {\"name\":\"running\",\"ph\":\"X\",\"ts\":3,\"dur\":120}";
        assert_eq!(state_ms(t, "queued"), Some(0.0));
        assert_eq!(state_ms(t, "running"), Some(3.0));
        assert_eq!(state_ms(t, "completed"), None);
    }
}
