//! End-to-end coverage for the mempool-serve telemetry plane: the
//! `mempool-job-stream-v1` watch/tail streams (schema-valid, gapless,
//! final record byte-identical to the unwatched result), the
//! `mempool-serve-metrics-v1` self-metrics document, per-job Chrome
//! trace timelines, and the `mempool-cli wait --timeout` exit contract.

#![cfg(unix)]

use mempool_serve::{BenchSpec, ClientError, JobSpec, RunSpec, ServeClient};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SERVE_BIN: &str = env!("CARGO_BIN_EXE_mempool-serve");
const CLI_BIN: &str = env!("CARGO_BIN_EXE_mempool-cli");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mempool-telem-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn daemon(socket: &Path, state: &Path, extra: &[&str]) -> Child {
    let mut cmd = Command::new(SERVE_BIN);
    cmd.arg("--socket").arg(socket);
    cmd.arg("--state-dir").arg(state);
    cmd.args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd.spawn().expect("daemon spawns")
}

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

/// A run job with the metrics recorder attached and checkpoints frequent
/// enough that heartbeat/partial records stream while it executes.
fn metered_run_spec() -> JobSpec {
    JobSpec::Run(RunSpec {
        config_spec: "topology=top1,small=true,scramble=true".to_owned(),
        program: "addi t0, zero, 0\nlui t1, 4\nloop:\naddi t0, t0, 1\nbne t0, t1, loop\necall\n"
            .to_owned(),
        max_cycles: 2_000_000,
        checkpoint_every: 1024,
        metrics: true,
    })
}

fn bench_spec() -> JobSpec {
    JobSpec::Bench(BenchSpec {
        cycles: 100,
        warmup: 10,
        cores: vec![16],
    })
}

type Fields = BTreeMap<String, String>;

/// Asserts one stream record carries the v1 schema envelope for `job`.
fn assert_envelope(fields: &Fields, job: u64, raw: &str) {
    assert_eq!(
        fields.get("stream").map(String::as_str),
        Some("mempool-job-stream-v1"),
        "record lacks the schema tag: {raw}"
    );
    assert_eq!(
        fields.get("job").map(String::as_str),
        Some(job.to_string().as_str()),
        "record for the wrong job: {raw}"
    );
    let kind = fields.get("kind").map(String::as_str).unwrap_or("");
    assert!(
        matches!(
            kind,
            "state" | "heartbeat" | "partial" | "attempt-failed" | "retry-backoff" | "done"
        ),
        "unknown record kind `{kind}`: {raw}"
    );
    assert!(
        fields.get("seq").is_some_and(|s| s.parse::<u64>().is_ok()),
        "record lacks a numeric seq: {raw}"
    );
    assert!(
        fields
            .get("attempt")
            .is_some_and(|s| s.parse::<u32>().is_ok()),
        "record lacks a numeric attempt: {raw}"
    );
    assert!(
        matches!(fields.get("final").map(String::as_str), Some("true" | "false")),
        "record lacks a final marker: {raw}"
    );
}

#[test]
fn watch_streams_gapless_schema_valid_records_and_matches_unwatched_result() {
    let dir = scratch("watch");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    // The unwatched reference: an identical job, completed before the
    // watched one is submitted (one worker slot serializes them).
    let reference = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("reference job admitted");
    let ref_done = client.wait(reference, &mut |_| {}).expect("reference job");
    assert_eq!(ref_done.get("status").map(String::as_str), Some("completed"));
    let ref_result = ref_done.get("result").expect("reference result").clone();

    // The watched pass: subscribe immediately after submit and collect
    // every record through the terminal one.
    let watched = client
        .submit("telem", 0, None, &metered_run_spec())
        .expect("watched job admitted");
    let mut records: Vec<(String, Fields)> = Vec::new();
    let done = client
        .watch(watched, &mut |raw, fields| {
            records.push((raw.to_owned(), fields.clone()));
        })
        .expect("watch reaches the terminal record");

    assert!(
        records.len() >= 3,
        "expected state + heartbeat/partial + done, got {records:?}"
    );
    let mut prev_seq: Option<u64> = None;
    let mut kinds = std::collections::BTreeSet::new();
    for (raw, fields) in &records {
        assert_envelope(fields, watched, raw);
        let seq: u64 = fields.get("seq").unwrap().parse().unwrap();
        if let Some(prev) = prev_seq {
            assert_eq!(seq, prev + 1, "seq gap after {prev}: {raw}");
        }
        prev_seq = Some(seq);
        kinds.insert(fields.get("kind").unwrap().clone());
    }
    assert!(kinds.contains("state"), "no state records: {kinds:?}");
    assert!(kinds.contains("done"), "no terminal record: {kinds:?}");
    assert!(
        kinds.contains("partial"),
        "no mid-job partial-metrics records: {kinds:?}"
    );

    // Partial records relay the worker's mempool-metrics-v2 snapshot.
    let (partial_raw, partial) = records
        .iter()
        .find(|(_, f)| f.get("kind").map(String::as_str) == Some("partial"))
        .unwrap();
    assert!(
        partial.get("cycle").is_some_and(|c| c.parse::<u64>().is_ok()),
        "partial lacks a cycle: {partial_raw}"
    );
    let doc = partial.get("metrics").expect("partial carries the document");
    assert!(
        doc.contains("mempool-metrics-v2"),
        "partial document is not a metrics registry: {doc}"
    );

    // The terminal record is final, completed, and its result payload is
    // byte-identical to the unwatched reference job's.
    let (final_raw, final_fields) = records.last().unwrap();
    assert_eq!(final_fields.get("final").map(String::as_str), Some("true"));
    assert_eq!(final_fields.get("kind").map(String::as_str), Some("done"));
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));
    assert_eq!(
        done.get("result"),
        Some(&ref_result),
        "watched result must be byte-identical to the unwatched reference"
    );

    // A late watcher on the finished job replays the exact terminal
    // record bytes.
    let mut late: Vec<String> = Vec::new();
    let late_done = client
        .watch(watched, &mut |raw, _| late.push(raw.to_owned()))
        .expect("late watch");
    assert_eq!(late, vec![final_raw.clone()], "late watch replays the final record");
    assert_eq!(late_done.get("result"), Some(&ref_result));

    // Watching a job that never existed is a typed rejection.
    match client.watch(9999, &mut |_, _| {}) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

#[test]
fn serve_metrics_and_timeline_documents_are_schema_tagged() {
    let dir = scratch("metrics");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");
    let done = client.wait(job, &mut |_| {}).expect("job finishes");
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));

    let metrics = client.serve_metrics().expect("self-metrics document");
    assert!(
        metrics.starts_with("{\n  \"schema\": \"mempool-serve-metrics-v1\",\n"),
        "metrics document: {metrics}"
    );
    for needle in [
        "\"jobs_admitted\": 1",
        "\"jobs_completed\": 1",
        "\"workers_spawned\": 1",
        "\"journal_appends\":",
        "\"rejections\"",
        "\"retries\"",
        "\"job_latency_secs\"",
        "\"queue_wait_secs\"",
        "\"tenants\"",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in {metrics}");
    }
    // The document is byte-stable between reads when nothing changed.
    assert_eq!(metrics, client.serve_metrics().expect("second read"));

    let timeline = client.timeline(job).expect("timeline document");
    assert!(
        timeline.contains("\"mempool-job-timeline-v1\""),
        "timeline: {timeline}"
    );
    assert!(timeline.starts_with("{\"traceEvents\":["), "timeline: {timeline}");
    for needle in ["process_name", "\"queued\"", "\"running\"", "\"completed\""] {
        assert!(timeline.contains(needle), "missing {needle} in {timeline}");
    }
    match client.timeline(9999) {
        Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}

#[test]
fn tail_relays_every_jobs_records_until_the_daemon_drains() {
    let dir = scratch("tail");
    let socket = dir.join("serve.sock");
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "1"]);
    let client = connect(&socket);

    let records: Arc<Mutex<Vec<Fields>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&records);
    let tail_socket = socket.clone();
    let tailer = std::thread::spawn(move || {
        let client = ServeClient::connect(&tail_socket);
        client.tail(&mut |_, fields| sink.lock().unwrap().push(fields.clone()))
    });
    // Let the subscription land before the job generates records.
    std::thread::sleep(Duration::from_millis(300));

    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");
    let done = client.wait(job, &mut |_| {}).expect("job finishes");
    assert_eq!(done.get("status").map(String::as_str), Some("completed"));

    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
    tailer
        .join()
        .expect("tailer thread")
        .expect("tail ends cleanly on drain");

    let records = records.lock().unwrap();
    let job_id = job.to_string();
    let mine: Vec<&Fields> = records
        .iter()
        .filter(|f| f.get("job") == Some(&job_id))
        .collect();
    assert!(
        mine.iter()
            .any(|f| f.get("kind").map(String::as_str) == Some("done")),
        "tail never saw the job's terminal record: {records:?}"
    );
    assert!(
        mine.iter()
            .all(|f| f.get("stream").map(String::as_str) == Some("mempool-job-stream-v1")),
        "tail relayed an unschema'd record: {records:?}"
    );
}

#[test]
fn cli_wait_timeout_exits_two_while_the_job_keeps_running() {
    let dir = scratch("timeout");
    let socket = dir.join("serve.sock");
    // No worker slots: the job queues forever, so the timeout always wins.
    let mut child = daemon(&socket, &dir.join("state"), &["--workers", "0"]);
    let client = connect(&socket);
    let job = client
        .submit("acme", 0, None, &bench_spec())
        .expect("job admitted");

    let started = Instant::now();
    let output = Command::new(CLI_BIN)
        .arg("--socket")
        .arg(&socket)
        .args(["wait", &job.to_string(), "--timeout", "1"])
        .output()
        .expect("cli runs");
    assert_eq!(
        output.status.code(),
        Some(2),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("timed out"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        started.elapsed() >= Duration::from_secs(1),
        "timeout fired early"
    );
    // The job is untouched: still queued, still cancellable.
    let status = client.status(job).expect("status");
    assert_eq!(status.get("status").map(String::as_str), Some("queued"));
    client.cancel(job).expect("cancel");
    client.shutdown().expect("drain");
    assert!(wait_exit(&mut child, "daemon").success());
}
