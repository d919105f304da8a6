//! Shared process-supervision primitives: failure classification, seeded
//! retry/backoff policy, the owned [`Worker`] process handle, the signal
//! hookup, and the opaque cluster-config spec exchanged between
//! supervisors and workers.
//!
//! The campaign [`Executor`](crate::Executor) (`campaign --isolate`) and the
//! `mempool-serve` daemon both supervise worker processes through these
//! pieces, so the two spawn, time out, reap, classify, back off, and
//! quarantine identically.

use mempool::{ClusterConfig, Topology};
use mempool_rng::{Rng, SeedableRng, StdRng};
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Sender;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a supervised attempt failed, in the classification the executor
/// contract names: `panic|signal|timeout|oom|exit`, plus the sanitizer
/// class the campaign layer adds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The job (or its worker process) panicked.
    Panic,
    /// The worker process died on a signal other than `SIGKILL`.
    Signal(i32),
    /// The wall-clock deadline or sim-cycle budget tripped.
    Timeout,
    /// The worker process was `SIGKILL`ed without the supervisor asking —
    /// the kernel OOM killer's signature (or an outside `kill -9`).
    Oom,
    /// The worker process exited with a nonzero code.
    Exit(i32),
    /// The invariant sanitizer recorded violations during the job.
    Sanitizer,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::Signal(sig) => write!(f, "signal({sig})"),
            FailureKind::Timeout => write!(f, "timeout"),
            FailureKind::Oom => write!(f, "oom"),
            FailureKind::Exit(code) => write!(f, "exit({code})"),
            FailureKind::Sanitizer => write!(f, "sanitizer"),
        }
    }
}

/// One failed attempt of a supervised job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// The failure classification.
    pub kind: FailureKind,
    /// Human-readable detail (panic message, signal, cancel cause, ...).
    pub detail: String,
}

/// The seeded retry policy every supervisor in the suite applies: capped
/// exponential backoff with deterministic jitter, an attempt budget, and
/// the repeat-failure give-up rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per job before giving up (minimum 1, default 3).
    pub max_attempts: u32,
    /// Base of the exponential backoff between attempts, in milliseconds
    /// (`0` disables backoff entirely — used by tests).
    pub backoff_base_ms: u64,
    /// Upper bound of the exponential backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter (deterministic per `(seed, attempt)`).
    pub backoff_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            backoff_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Seeded exponential backoff with jitter: `base * 2^(attempt-1)`
    /// capped at `backoff_cap_ms`, plus a jitter draw in `[0, base)` from
    /// a stream determined by `(backoff_seed, seed, attempt)`.
    pub fn delay(&self, seed: u64, attempt: u32) -> Duration {
        let base = self.backoff_base_ms;
        if base == 0 {
            return Duration::ZERO;
        }
        let shift = u64::from(attempt.saturating_sub(1)).min(16);
        let exp = base.saturating_mul(1u64 << shift);
        let capped = exp.min(self.backoff_cap_ms.max(base));
        let mut rng = StdRng::seed_from_u64(
            self.backoff_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ seed.rotate_left(17)
                ^ u64::from(attempt),
        );
        Duration::from_millis(capped + rng.gen_range(0..base))
    }

    /// Give up once the attempt budget is spent, or as soon as the same
    /// failure repeats — two consecutive identical failures mean the
    /// problem is deterministic and further retries are wasted work.
    pub fn give_up(&self, failures: &[TrialFailure]) -> bool {
        if failures.len() >= self.max_attempts.max(1) as usize {
            return true;
        }
        match failures {
            [.., a, b] => a.kind == b.kind && a.detail == b.detail,
            _ => false,
        }
    }
}

/// Classifies a worker process exit per the `panic|signal|timeout|oom|exit`
/// contract. `SIGKILL` without the supervisor having asked for it is the
/// OOM killer's signature (or an outside `kill -9`) — either way the work
/// is recoverable from the job checkpoint, so the classification only
/// matters for reporting and give-up matching.
pub fn classify_exit(
    status: std::process::ExitStatus,
    killed_for_deadline: bool,
) -> (FailureKind, String) {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            if killed_for_deadline {
                return (
                    FailureKind::Timeout,
                    "deadline exceeded (worker killed)".to_owned(),
                );
            }
            if sig == 9 {
                return (FailureKind::Oom, "worker SIGKILLed (possible OOM)".to_owned());
            }
            return (
                FailureKind::Signal(sig),
                format!("worker terminated by signal {sig}"),
            );
        }
    }
    match status.code() {
        // 101 is the Rust runtime's panic exit code.
        Some(101) => (FailureKind::Panic, "worker panicked".to_owned()),
        Some(code) => (
            FailureKind::Exit(code),
            format!("worker exited with code {code}"),
        ),
        None => (
            FailureKind::Signal(0),
            "worker ended without an exit code".to_owned(),
        ),
    }
}

// ---------------------------------------------------------------------------
// The worker process handle.
// ---------------------------------------------------------------------------

/// An owned worker process: started with piped stdin and stdout, fed one
/// job line, its stdout pumped line by line into the caller's channel.
/// Dropping the handle kills and reaps the process, so no worker outlives
/// the value that owns it, whichever way its owner returns.
///
/// A worker is done when its stdout ends: the pump sends `wrap(None)` after
/// the last line, and the owner then [`reap`](Worker::reap)s it. Lines pass
/// through raw; each supervisor keeps its own line vocabulary.
#[derive(Debug)]
pub struct Worker {
    child: Child,
    pump: Option<JoinHandle<()>>,
    deadline: Option<Instant>,
    killed_for_deadline: bool,
}

impl Worker {
    /// Starts `cmd` (program, arguments and stderr set by the caller),
    /// writes `job` plus a newline to its stdin and closes it, and forwards
    /// each stdout line as `wrap(Some(line))` into `events`, then
    /// `wrap(None)` at end of stream. `deadline` bounds the attempt's wall
    /// time from now (see [`enforce_deadline`](Worker::enforce_deadline)).
    ///
    /// # Errors
    ///
    /// The spawn failure.
    pub fn spawn<T: Send + 'static>(
        mut cmd: Command,
        job: &str,
        deadline: Option<Duration>,
        events: Sender<T>,
        wrap: impl Fn(Option<String>) -> T + Send + 'static,
    ) -> io::Result<Worker> {
        let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let pump = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if events.send(wrap(Some(line))).is_err() {
                    return;
                }
            }
            let _ = events.send(wrap(None));
        });
        let mut stdin = child.stdin.take().expect("stdin was piped");
        // A worker that dies before reading its job must not fail the
        // supervisor with a broken pipe; its exit classification covers it.
        let _ = stdin.write_all(format!("{job}\n").as_bytes());
        Ok(Worker {
            child,
            pump: Some(pump),
            deadline: deadline.map(|d| Instant::now() + d),
            killed_for_deadline: false,
        })
    }

    /// Kills the worker once its deadline has passed; `true` on the one
    /// call that kills. [`reap`](Worker::reap) then reports
    /// [`FailureKind::Timeout`].
    pub fn enforce_deadline(&mut self) -> bool {
        if self.killed_for_deadline || self.deadline.is_none_or(|d| Instant::now() < d) {
            return false;
        }
        self.killed_for_deadline = true;
        let _ = self.child.kill();
        true
    }

    /// Sends `SIGTERM`, which a worker may catch to checkpoint and exit
    /// (unlike the `SIGKILL` of a deadline or a drop).
    #[cfg(unix)]
    pub fn terminate(&self) {
        sys::sigterm(self.child.id());
    }

    /// Waits for the worker to exit; call it after the end-of-stream marker.
    ///
    /// # Errors
    ///
    /// A nonzero exit, classified by [`classify_exit`], or the `wait`
    /// failure.
    pub fn reap(mut self) -> Result<(), (FailureKind, String)> {
        let status = self.child.wait();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
        match status {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(classify_exit(status, self.killed_for_deadline)),
            Err(e) => Err((FailureKind::Exit(-1), format!("wait failed: {e}"))),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Both are no-ops after `reap`. The pump is not joined: it ends on
        // its own once the pipe closes, which a grandchild could delay.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub use sys::interrupt_flag;

/// The workspace's one foreign-function boundary: `signal(2)` and `kill(2)`,
/// declared directly because no libc crate is available.
#[allow(unsafe_code)]
mod sys {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn kill(pid: i32, sig: i32) -> i32;
    }

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    /// Routes `SIGINT` and `SIGTERM` to one process-wide flag and returns
    /// it. Repeated calls install the same handler again, harmlessly.
    pub fn interrupt_flag() -> &'static AtomicBool {
        // SAFETY: `on_signal` has the C handler signature and only does a
        // lock-free atomic store, which is async-signal-safe.
        #[cfg(unix)]
        unsafe {
            signal(2, on_signal);
            signal(15, on_signal);
        }
        &INTERRUPTED
    }

    #[cfg(unix)]
    pub(super) fn sigterm(pid: u32) {
        // A pid past `i32::MAX` would turn negative and signal a process
        // group; the kernel hands out no such pid.
        if let Ok(pid) = i32::try_from(pid) {
            // SAFETY: `kill` reads only its integer arguments. The caller
            // owns the unreaped child `pid`, so the pid is not recycled.
            unsafe {
                kill(pid, 15);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The opaque cluster-config spec.
// ---------------------------------------------------------------------------

/// Renders the supervisor-relevant cluster configuration as the opaque
/// `config_spec` a worker receives ([`parse_config_spec`] reverses it).
pub fn render_config_spec(topology: Topology, small: bool, scramble: bool) -> String {
    format!("topology={topology},small={small},scramble={scramble}")
}

/// Parses [`render_config_spec`]'s output back into a [`ClusterConfig`]
/// with the standard resilience layer attached (workers must be able to
/// absorb injected faults; a fault-free job simply never exercises it).
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn parse_config_spec(spec: &str) -> Result<ClusterConfig, String> {
    let mut topology = None;
    let mut small = false;
    let mut scramble = true;
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad config spec entry `{part}`"))?;
        match key {
            "topology" => {
                topology = Some(match value {
                    "ideal" => Topology::Ideal,
                    "top1" => Topology::Top1,
                    "top4" => Topology::Top4,
                    "topH" | "toph" => Topology::TopH,
                    other => return Err(format!("bad topology `{other}`")),
                })
            }
            "small" => small = value == "true",
            "scramble" => scramble = value == "true",
            other => return Err(format!("unknown config spec key `{other}`")),
        }
    }
    let topology = topology.ok_or_else(|| "config spec lacks a topology".to_owned())?;
    let mut config = if small {
        ClusterConfig::small(topology)
    } else {
        ClusterConfig::paper(topology)
    };
    if !scramble {
        config.seq_region_bytes = None;
    }
    config.resilience = mempool::ResilienceConfig::standard();
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_spec_round_trips() {
        for topology in [Topology::Ideal, Topology::Top1, Topology::Top4, Topology::TopH] {
            for small in [false, true] {
                for scramble in [false, true] {
                    let spec = render_config_spec(topology, small, scramble);
                    let config = parse_config_spec(&spec).expect("spec parses");
                    assert_eq!(config.topology, topology, "{spec}");
                    assert_eq!(config.seq_region_bytes.is_some(), scramble, "{spec}");
                }
            }
        }
        assert!(parse_config_spec("small=true").is_err(), "topology required");
        assert!(parse_config_spec("topology=weird").is_err());
        assert!(parse_config_spec("nonsense").is_err());
    }

    #[test]
    fn retry_policy_backoff_is_deterministic_capped_and_jittered() {
        let policy = RetryPolicy {
            backoff_base_ms: 50,
            backoff_cap_ms: 300,
            ..RetryPolicy::default()
        };
        let a = policy.delay(7, 1);
        assert_eq!(a, policy.delay(7, 1), "same (seed, attempt) -> same delay");
        assert!(a >= Duration::from_millis(50) && a < Duration::from_millis(100));
        let late = policy.delay(7, 10);
        assert!(late >= Duration::from_millis(300) && late < Duration::from_millis(350));
        let off = RetryPolicy {
            backoff_base_ms: 0,
            ..policy
        };
        assert_eq!(off.delay(7, 3), Duration::ZERO);
    }

    fn sh(script: &str) -> Command {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", script]);
        cmd
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn dropping_the_handle_kills_and_reaps_the_worker() {
        let (tx, _rx) = std::sync::mpsc::channel();
        let worker = Worker::spawn(sh("sleep 30"), "{}", None, tx, |l| l).expect("spawns");
        let proc_dir = std::path::PathBuf::from(format!("/proc/{}", worker.child.id()));
        assert!(proc_dir.exists());
        drop(worker);
        let deadline = Instant::now() + Duration::from_secs(1);
        while proc_dir.exists() {
            assert!(Instant::now() < deadline, "the worker outlived its handle");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    #[cfg(unix)]
    fn deadline_kills_once_and_classifies_as_timeout() {
        let (tx, rx) = std::sync::mpsc::channel();
        let deadline = Some(Duration::from_millis(50));
        let mut worker =
            Worker::spawn(sh("exec sleep 30"), "{}", deadline, tx, |l| l).expect("spawns");
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut kills = 0;
        loop {
            assert!(Instant::now() < give_up, "the killed worker never ended");
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(None) => break,
                Ok(Some(line)) => panic!("unexpected line {line}"),
                Err(_) => kills += usize::from(worker.enforce_deadline()),
            }
        }
        kills += usize::from(worker.enforce_deadline());
        assert_eq!(kills, 1);
        let (kind, _) = worker.reap().expect_err("a killed worker failed");
        assert_eq!(kind, FailureKind::Timeout);
    }

    #[test]
    #[cfg(unix)]
    fn lines_arrive_before_the_end_marker_and_the_exit_classifies() {
        let (tx, rx) = std::sync::mpsc::channel();
        let script = "read job; echo \"$job\"; echo two; exit 7";
        let worker = Worker::spawn(sh(script), "one", None, tx, |l| l).expect("spawns");
        let mut lines = Vec::new();
        while let Some(line) = rx.recv_timeout(Duration::from_secs(10)).expect("ends") {
            lines.push(line);
        }
        assert_eq!(lines, ["one", "two"]);
        let (kind, _) = worker.reap().expect_err("exit 7 is a failure");
        assert_eq!(kind, FailureKind::Exit(7));
    }
}
