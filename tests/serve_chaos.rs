//! End-to-end chaos coverage for the `mempool-serve` daemon: a SIGKILLed
//! job-worker costs only a retry-from-checkpoint, a SIGTERMed daemon
//! checkpoint-parks every in-flight job and a restart with the same state
//! dir resumes them to byte-identical results, an overloaded queue and a
//! zero-quota tenant get typed rejections, and corrupt journal lines are
//! skipped, counted, and surfaced in the health report.

#![cfg(unix)]

use mempool_serve::{BenchSpec, CampaignSpec, ClientError, JobSpec, RunSpec, ServeClient};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_mempool-serve");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-serve-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn daemon(socket: &Path, state: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("--socket").arg(socket);
    cmd.arg("--state-dir").arg(state);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("daemon spawns")
}

/// Polls `health` until the daemon answers (it binds the socket during
/// startup).
fn connect(socket: &Path) -> ServeClient {
    let client = ServeClient::connect(socket);
    let start = Instant::now();
    loop {
        if client.health().is_ok() {
            return client;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "daemon did not come up on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A run job slow enough (debug build) to be caught mid-flight, with
/// checkpoints frequent enough that a retry loses little progress.
fn run_spec() -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "addi t0, zero, 0\nlui t1, 4\nloop:\naddi t0, t0, 1\nbne t0, t1, loop\necall\n"
            .to_owned(),
        max_cycles: 2_000_000,
        checkpoint_every: 1024,
        metrics: false,
    })
}

/// A seeded fault campaign long enough to survive a worker hunt.
fn campaign_spec() -> JobSpec {
    JobSpec::Campaign(CampaignSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        faults: "bank_fail=1,link_drop=0.001".to_owned(),
        trials: 4,
        load: 0.05,
        pattern: "uniform".to_owned(),
        warmup: 200,
        measure: 5000,
        drain: 10_000,
        seed: 1,
        checkpoint_every: 256,
        cycle_budget: None,
    })
}

/// Waits a job to its terminal state and returns the `done` event fields.
fn wait_done(client: &ServeClient, job: u64) -> BTreeMap<String, String> {
    client
        .wait(job, &mut |_| {})
        .unwrap_or_else(|e| panic!("waiting job {job}: {e}"))
}

fn wait_exit(child: &mut Child, what: &str) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait works") {
            return status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "{what} did not exit in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn signal(pid: u32, sig: &str) {
    let _ = Command::new("kill").args([sig, &pid.to_string()]).status();
}

/// Finds a live `job-worker` child of `parent` by walking `/proc`.
fn find_worker(parent: u32) -> Option<u32> {
    for entry in std::fs::read_dir("/proc").ok()? {
        let entry = entry.ok()?;
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let after = match stat.rfind(')') {
            Some(i) => &stat[i + 1..],
            None => continue,
        };
        let ppid: u32 = match after.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
            Some(p) => p,
            None => continue,
        };
        if ppid != parent {
            continue;
        }
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        if cmdline.split(|&b| b == 0).any(|arg| arg == b"job-worker") {
            return Some(pid);
        }
    }
    None
}

/// The uninterrupted reference: both jobs on a clean daemon; returns
/// their terminal result payloads.
fn reference(dir: &Path) -> (String, String) {
    let socket = dir.join("ref.sock");
    let mut child = daemon(&socket, &dir.join("ref-state"), &["--workers", "2"]);
    let client = connect(&socket);
    let campaign = client
        .submit("chaos", 0, None, &campaign_spec())
        .expect("reference campaign admitted");
    let run = client
        .submit("chaos", 0, None, &run_spec())
        .expect("reference run admitted");
    let campaign_done = wait_done(&client, campaign);
    let run_done = wait_done(&client, run);
    assert_eq!(campaign_done.get("status").unwrap(), "completed");
    assert_eq!(run_done.get("status").unwrap(), "completed");
    client.shutdown().expect("reference drain");
    assert!(wait_exit(&mut child, "reference daemon").success());
    (
        campaign_done.get("result").expect("campaign result").clone(),
        run_done.get("result").expect("run result").clone(),
    )
}

#[test]
fn sigkilled_worker_and_drained_daemon_resume_bit_identically() {
    let dir = scratch("chaos");
    let (ref_campaign, ref_run) = reference(&dir);
    assert!(
        ref_campaign.contains("\"outcome\":\"completed\""),
        "reference campaign payload: {ref_campaign}"
    );
    assert!(
        ref_run.contains("state_digest"),
        "reference run payload: {ref_run}"
    );

    // Chaos pass: same jobs, but the first worker we can catch is
    // SIGKILLed mid-job and the daemon itself is SIGTERMed while both
    // jobs are still in flight.
    let socket = dir.join("chaos.sock");
    let state = dir.join("chaos-state");
    let mut child = daemon(
        &socket,
        &state,
        &["--workers", "2", "--backoff-ms", "0", "--max-attempts", "4"],
    );
    let client = connect(&socket);
    let campaign = client
        .submit("chaos", 0, None, &campaign_spec())
        .expect("chaos campaign admitted");
    let run = client
        .submit("chaos", 0, None, &run_spec())
        .expect("chaos run admitted");

    let hunt = Instant::now();
    let mut killed = false;
    while hunt.elapsed() < Duration::from_secs(30) {
        assert!(
            child.try_wait().expect("wait works").is_none(),
            "daemon died during the worker hunt"
        );
        if let Some(worker) = find_worker(child.id()) {
            signal(worker, "-KILL");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(killed, "never caught a job-worker to SIGKILL");

    // Give the daemon a beat to observe the kill and respawn, then drain
    // it mid-flight: SIGTERM parks both jobs.
    std::thread::sleep(Duration::from_millis(150));
    signal(child.id(), "-TERM");
    assert!(
        wait_exit(&mut child, "chaos daemon").success(),
        "drain must exit cleanly"
    );

    // A restarted daemon replays the journal and resumes both jobs from
    // their checkpoints to byte-identical results.
    let mut child = daemon(&socket, &state, &["--workers", "2", "--backoff-ms", "0"]);
    let client = connect(&socket);
    let campaign_done = wait_done(&client, campaign);
    let run_done = wait_done(&client, run);
    assert_eq!(
        campaign_done.get("status").unwrap(),
        "completed",
        "campaign after chaos: {campaign_done:?}"
    );
    assert_eq!(
        run_done.get("status").unwrap(),
        "completed",
        "run after chaos: {run_done:?}"
    );
    assert_eq!(
        campaign_done.get("result").unwrap(),
        &ref_campaign,
        "campaign result must be bit-identical to the uninterrupted reference"
    );
    assert_eq!(
        run_done.get("result").unwrap(),
        &ref_run,
        "run result must be bit-identical to the uninterrupted reference"
    );
    client.shutdown().expect("final drain");
    assert!(wait_exit(&mut child, "restarted daemon").success());
}

/// The chaos run_spec with the metrics recorder attached, so the final
/// payload embeds a full mempool-metrics-v2 document.
fn metered_run_spec() -> JobSpec {
    let JobSpec::Run(mut spec) = run_spec() else {
        unreachable!()
    };
    spec.metrics = true;
    JobSpec::Run(spec)
}

/// Asserts one watch connection observed gapless, monotonically
/// increasing sequence numbers.
fn assert_gapless(records: &[BTreeMap<String, String>], what: &str) {
    let mut prev: Option<u64> = None;
    for fields in records {
        let seq: u64 = fields
            .get("seq")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("{what}: record lacks a seq: {fields:?}"));
        if let Some(prev) = prev {
            assert_eq!(seq, prev + 1, "{what}: seq gap after {prev}");
        }
        prev = Some(seq);
    }
}

/// The no-Heisenberg guarantee: watching a job through worker SIGKILL,
/// daemon SIGTERM, and a restart must still end in a final metrics
/// document and state digest byte-identical to an unwatched,
/// uninterrupted reference — and every watch connection sees gapless
/// sequence numbers.
#[test]
fn watched_chaos_job_is_bit_identical_to_an_unwatched_reference() {
    let dir = scratch("heisenberg");

    // Unwatched, uninterrupted reference.
    let socket = dir.join("ref.sock");
    let mut child = daemon(&socket, &dir.join("ref-state"), &["--workers", "1"]);
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("reference admitted");
    let ref_done = wait_done(&client, job);
    assert_eq!(ref_done.get("status").unwrap(), "completed");
    let ref_result = ref_done.get("result").expect("reference result").clone();
    assert!(
        ref_result.contains("state_digest") && ref_result.contains("mempool-metrics-v2"),
        "reference payload: {ref_result}"
    );
    client.shutdown().expect("reference drain");
    assert!(wait_exit(&mut child, "reference daemon").success());

    // Chaos pass: watch the job while its worker is SIGKILLed and the
    // daemon is drained mid-stream.
    let socket = dir.join("chaos.sock");
    let state = dir.join("chaos-state");
    let mut child = daemon(
        &socket,
        &state,
        &["--workers", "1", "--backoff-ms", "0", "--max-attempts", "4"],
    );
    let client = connect(&socket);
    let job = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("chaos job admitted");

    let first_watch: std::sync::Arc<std::sync::Mutex<Vec<BTreeMap<String, String>>>> =
        std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&first_watch);
    let watch_socket = socket.clone();
    let watcher = std::thread::spawn(move || {
        let client = ServeClient::connect(&watch_socket);
        // The daemon drains mid-stream, so this watch ends in an error —
        // the records gathered up to that point are what we assert on.
        let _ = client.watch(job, &mut |_, fields| {
            sink.lock().unwrap().push(fields.clone());
        });
    });

    let hunt = Instant::now();
    let mut killed = false;
    while hunt.elapsed() < Duration::from_secs(30) {
        assert!(
            child.try_wait().expect("wait works").is_none(),
            "daemon died during the worker hunt"
        );
        if let Some(worker) = find_worker(child.id()) {
            signal(worker, "-KILL");
            killed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(killed, "never caught a job-worker to SIGKILL");

    std::thread::sleep(Duration::from_millis(200));
    signal(child.id(), "-TERM");
    assert!(
        wait_exit(&mut child, "chaos daemon").success(),
        "drain must exit cleanly"
    );
    watcher.join().expect("watcher thread");
    let first_watch = first_watch.lock().unwrap();
    assert_gapless(&first_watch, "first watch connection");

    // Restart, re-watch to the terminal record.
    let mut child = daemon(&socket, &state, &["--workers", "1", "--backoff-ms", "0"]);
    let client = connect(&socket);
    let mut second_watch: Vec<BTreeMap<String, String>> = Vec::new();
    let done = client
        .watch(job, &mut |_, fields| second_watch.push(fields.clone()))
        .expect("watch after restart reaches the terminal record");
    assert_gapless(&second_watch, "second watch connection");
    assert_eq!(
        done.get("status").map(String::as_str),
        Some("completed"),
        "after chaos: {done:?}"
    );
    assert_eq!(
        done.get("result"),
        Some(&ref_result),
        "watched chaos result must be byte-identical to the unwatched reference"
    );
    client.shutdown().expect("final drain");
    assert!(wait_exit(&mut child, "restarted daemon").success());
}

#[test]
fn overload_and_zero_quota_are_rejected_with_typed_errors() {
    let dir = scratch("overload");
    let socket = dir.join("serve.sock");
    // No worker slots: everything queues, so the depth bound is exact.
    let mut child = daemon(
        &socket,
        &dir.join("state"),
        &["--workers", "0", "--queue-depth", "1", "--quota", "blocked=0"],
    );
    let client = connect(&socket);

    let admitted = client
        .submit("tenant-a", 0, None, &bench_spec())
        .expect("first job fits the queue");
    match client.submit("tenant-b", 0, None, &bench_spec()) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "overloaded"),
        other => panic!("expected a typed overload rejection, got {other:?}"),
    }
    // The queued job holds the only slot; a zero-quota tenant is refused
    // even when the queue has room again after a cancel.
    let cancelled = client.cancel(admitted).expect("cancel queued job");
    assert_eq!(cancelled.get("status").map(String::as_str), Some("cancelled"));
    match client.submit("blocked", 0, None, &bench_spec()) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "quota"),
        other => panic!("expected a typed quota rejection, got {other:?}"),
    }
    // Garbage specs are refused at admission, not left to burn retries.
    let bad = JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "not riscv".to_owned(),
        max_cycles: 1000,
        checkpoint_every: 100,
        metrics: false,
    });
    match client.submit("tenant-a", 0, None, &bad) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "invalid"),
        other => panic!("expected a typed validation rejection, got {other:?}"),
    }
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

fn bench_spec() -> JobSpec {
    JobSpec::Bench(BenchSpec {
        cycles: 100,
        warmup: 10,
        cores: vec![16],
    })
}

#[test]
fn corrupt_journal_lines_are_skipped_and_surfaced_in_health() {
    let dir = scratch("journal");
    let socket = dir.join("serve.sock");
    let state = dir.join("state");

    // Session one: journal a real queued job, then drain.
    let mut child = daemon(&socket, &state, &["--workers", "0"]);
    let client = connect(&socket);
    let job = client
        .submit("tenant-a", 0, None, &bench_spec())
        .expect("job admitted");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "first daemon").success());

    // Damage the journal: one garbage line, one truncated record.
    let journal = state.join("jobs.journal");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.extend_from_slice(b"!!! not a journal line\njob 99 {\"kind\":\"run\"");
    std::fs::write(&journal, &bytes).expect("journal writable");

    // Session two: the damage is skipped and surfaced, the intact job
    // survives and is still actionable.
    let mut child = daemon(&socket, &state, &["--workers", "0"]);
    let client = connect(&socket);
    let health = client.health().expect("health");
    assert_eq!(
        health.get("journal_skipped").map(String::as_str),
        Some("2"),
        "health: {health:?}"
    );
    assert_eq!(health.get("queued").map(String::as_str), Some("1"));
    let status = client.status(job).expect("job survived the damage");
    assert_eq!(status.get("status").map(String::as_str), Some("queued"));
    client.cancel(job).expect("cancel");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "second daemon").success());
}
