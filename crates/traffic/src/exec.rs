//! The supervised campaign executor: crash isolation, deadlines, seeded
//! retry/backoff, and quarantine-with-partial-results.
//!
//! [`run_campaign_resumable`](crate::run_campaign_resumable) survives kills
//! *between* invocations; the [`Executor`] hardens the invocation itself.
//! Every trial runs as a supervised job bounded by a wall-clock deadline
//! and a sim-cycle budget (a cooperative [`CancelToken`] checked inside the
//! cluster's step loop). A trial that fails — cancellation, a panic, a
//! sanitizer violation, or (in isolation mode) a crashed worker process —
//! is retried from its last checkpoint with seeded exponential backoff;
//! a trial that fails deterministically (two consecutive identical
//! failures, or the attempt budget) is *quarantined*: the campaign records
//! a placeholder outcome and keeps going instead of aborting, so a
//! multi-hour campaign always produces a complete manifest.
//!
//! With [`ExecutorConfig::isolate`] set, trials run in child worker
//! processes (`mempool-run trial-worker`): a JSON job spec goes in on
//! stdin, heartbeat and result lines come back on stdout, and a panic,
//! abort, OOM-kill, or stray `SIGKILL` in one trial is classified
//! (`panic|signal|timeout|oom|exit`) without taking down the campaign.
//! `N` workers shard trials in parallel; the manifest stays the single
//! source of truth, appended strictly in seed order.

use crate::campaign::{
    append_trial, format_trial_line, open_manifest, parse_trial_line, run_trial_supervised,
    sibling_path, CampaignConfig, CampaignError, CampaignReport, Trial, TrialStop,
    TrialSupervision,
};
use crate::json::{json_escape, parse_flat_json};
use crate::supervise::{RetryPolicy, Worker};
use crate::{FailureKind, Pattern, TrialFailure, Windows};
use mempool::{CancelToken, ClusterConfig, SanitizerConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::time::{Duration, Instant};

/// A trial the executor gave up on, with its full failure history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTrial {
    /// The quarantined trial's seed.
    pub seed: u64,
    /// Every failed attempt, in order.
    pub failures: Vec<TrialFailure>,
}

/// Supervision policy of the [`Executor`].
#[derive(Clone)]
pub struct ExecutorConfig {
    /// Wall-clock deadline per trial attempt (`None` = unbounded). In
    /// isolation mode the parent enforces it by killing the worker; in
    /// process the cancellation token trips cooperatively.
    pub deadline: Option<Duration>,
    /// Absolute sim-cycle budget per trial (`None` = unbounded). Enforced
    /// cooperatively in both modes; deterministic, so a budget overrun
    /// quarantines after two attempts.
    pub cycle_budget: Option<u64>,
    /// Attempts per trial before quarantine (minimum 1, default 3).
    pub max_attempts: u32,
    /// Base of the exponential backoff between attempts, in milliseconds
    /// (`0` disables backoff entirely — used by tests).
    pub backoff_base_ms: u64,
    /// Upper bound of the exponential backoff, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed of the backoff jitter (deterministic per `(seed, attempt)`).
    pub backoff_seed: u64,
    /// Mid-trial checkpoint interval in cycles (`0` disables, so every
    /// retry replays the trial from the start).
    pub checkpoint_every: u64,
    /// `Some(n)`: run each trial in a child worker process, `n` at a time.
    /// `None`: run trials in this process, sequentially.
    pub isolate: Option<usize>,
    /// Opaque cluster-config spec passed verbatim to workers in the job
    /// spec; the binary hosting the worker subcommand interprets it.
    pub config_spec: String,
    /// Attach the invariant sanitizer to every trial; a dirty report is a
    /// retryable (then quarantinable) failure.
    pub sanitize: Option<SanitizerConfig>,
    /// Test hook: pre-attempt fault injection. `f(seed, attempt)` returning
    /// `true` fails that attempt as a synthetic panic without running it.
    #[doc(hidden)]
    pub inject_failure: Option<fn(u64, u32) -> bool>,
}

impl fmt::Debug for ExecutorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorConfig")
            .field("deadline", &self.deadline)
            .field("cycle_budget", &self.cycle_budget)
            .field("max_attempts", &self.max_attempts)
            .field("backoff_base_ms", &self.backoff_base_ms)
            .field("backoff_cap_ms", &self.backoff_cap_ms)
            .field("backoff_seed", &self.backoff_seed)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("isolate", &self.isolate)
            .field("config_spec", &self.config_spec)
            .field("sanitize", &self.sanitize)
            .field("inject_failure", &self.inject_failure.is_some())
            .finish()
    }
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            deadline: None,
            cycle_budget: None,
            max_attempts: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            backoff_seed: 0,
            checkpoint_every: 4_096,
            isolate: None,
            config_spec: String::new(),
            sanitize: None,
            inject_failure: None,
        }
    }
}

/// Result of a supervised campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorReport {
    /// The campaign report (quarantined trials appear as
    /// [`TrialOutcome::Quarantined`](crate::TrialOutcome::Quarantined)
    /// placeholders).
    pub report: CampaignReport,
    /// Trials recovered from the manifest rather than re-run.
    pub resumed_trials: u32,
    /// Trials recorded by this invocation (completed or quarantined).
    pub new_trials: u32,
    /// Failed attempts that were retried (quarantines not included).
    pub retries: u64,
    /// Full failure history of every quarantined trial.
    pub quarantined: Vec<QuarantinedTrial>,
    /// The run stopped early on the interrupt flag (manifest and
    /// checkpoint flushed; re-running resumes exactly where it stopped).
    pub interrupted: bool,
}

/// The supervised campaign executor. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Cluster configuration of every trial.
    pub config: ClusterConfig,
    /// The campaign being executed.
    pub campaign: CampaignConfig,
    /// Supervision policy.
    pub exec: ExecutorConfig,
}

impl Executor {
    /// Creates an executor over `config`/`campaign` with policy `exec`.
    pub fn new(config: ClusterConfig, campaign: CampaignConfig, exec: ExecutorConfig) -> Executor {
        Executor {
            config,
            campaign,
            exec,
        }
    }

    /// Runs (or resumes) the campaign against `manifest`. `interrupt` is an
    /// optional flag (typically raised by a SIGINT/SIGTERM handler): when
    /// set, the executor flushes the current trial checkpoint and manifest
    /// line and returns with [`ExecutorReport::interrupted`].
    ///
    /// # Errors
    ///
    /// Configuration, I/O, and manifest errors. Trial failures are *not*
    /// errors — they are retried or quarantined.
    pub fn run(
        &self,
        manifest: &Path,
        interrupt: Option<&AtomicBool>,
    ) -> Result<ExecutorReport, CampaignError> {
        match self.exec.isolate {
            Some(workers) => self.run_isolated(manifest, workers.max(1), interrupt),
            None => self.run_in_process(manifest, interrupt),
        }
    }

    fn token(&self) -> Option<CancelToken> {
        if self.exec.deadline.is_none() && self.exec.cycle_budget.is_none() {
            return None;
        }
        let mut t = CancelToken::new();
        if let Some(d) = self.exec.deadline {
            t = t.with_wall_limit(d);
        }
        if let Some(b) = self.exec.cycle_budget {
            t = t.with_cycle_limit(b);
        }
        Some(t)
    }

    /// The shared retry policy this executor's knobs configure.
    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.exec.max_attempts,
            backoff_base_ms: self.exec.backoff_base_ms,
            backoff_cap_ms: self.exec.backoff_cap_ms,
            backoff_seed: self.exec.backoff_seed,
        }
    }

    /// Seeded exponential backoff with jitter (see [`RetryPolicy::delay`]).
    fn backoff_delay(&self, seed: u64, attempt: u32) -> Duration {
        self.policy().delay(seed, attempt)
    }

    /// Quarantine once the attempt budget is spent, or as soon as the same
    /// failure repeats (see [`RetryPolicy::give_up`]).
    fn quarantine_due(&self, failures: &[TrialFailure]) -> bool {
        self.policy().give_up(failures)
    }

    // -- in-process mode ---------------------------------------------------

    fn run_in_process(
        &self,
        manifest: &Path,
        interrupt: Option<&AtomicBool>,
    ) -> Result<ExecutorReport, CampaignError> {
        let (mut trials, mut file) = open_manifest(&self.config, &self.campaign, manifest)?;
        let resumed = trials.len() as u32;
        let ckpt = sibling_path(manifest, ".ckpt");
        let mut quarantined = Vec::new();
        let mut retries = 0u64;
        let mut new_trials = 0u32;
        let mut interrupted = false;
        let is_set = |i: Option<&AtomicBool>| i.is_some_and(|f| f.load(Ordering::SeqCst));

        'trials: while trials.len() < self.campaign.trials as usize {
            if is_set(interrupt) {
                interrupted = true;
                break;
            }
            let seed = self.campaign.base_seed + trials.len() as u64;
            let mut failures: Vec<TrialFailure> = Vec::new();
            let finished = loop {
                let attempt = failures.len() as u32 + 1;
                if is_set(interrupt) {
                    interrupted = true;
                    break 'trials;
                }
                let failure = if self.exec.inject_failure.is_some_and(|f| f(seed, attempt)) {
                    TrialFailure {
                        attempt,
                        kind: FailureKind::Panic,
                        detail: "injected failure".to_owned(),
                    }
                } else {
                    match self.attempt_in_process(seed, &ckpt, interrupt) {
                    Ok(Ok(Ok(trial))) => break Some(trial),
                    Ok(Ok(Err(TrialStop::Interrupted))) => {
                        interrupted = true;
                        break 'trials;
                    }
                    Ok(Ok(Err(TrialStop::Cancelled(cause)))) => TrialFailure {
                        attempt,
                        kind: FailureKind::Timeout,
                        detail: TrialStop::Cancelled(cause).to_string(),
                    },
                    Ok(Ok(Err(TrialStop::Sanitizer(what)))) => TrialFailure {
                        attempt,
                        kind: FailureKind::Sanitizer,
                        detail: what,
                    },
                    Ok(Err(
                        e @ (CampaignError::CheckpointCorrupt(_)
                        | CampaignError::CheckpointMismatch),
                    )) => {
                        // Self-heal: a bad checkpoint (e.g. left behind by
                        // a crashed attempt) costs a replay, not the
                        // campaign.
                        let _ = std::fs::remove_file(&ckpt);
                        TrialFailure {
                            attempt,
                            kind: FailureKind::Exit(1),
                            detail: e.to_string(),
                        }
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(panic) => TrialFailure {
                        attempt,
                        kind: FailureKind::Panic,
                        detail: panic,
                    },
                    }
                };
                failures.push(failure);
                if self.quarantine_due(&failures) {
                    break None;
                }
                retries += 1;
                let delay = self.backoff_delay(seed, attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            };
            let trial = match finished {
                Some(t) => t,
                None => {
                    let _ = std::fs::remove_file(&ckpt);
                    let attempts = failures.len() as u64;
                    quarantined.push(QuarantinedTrial { seed, failures });
                    Trial::quarantined(seed, attempts)
                }
            };
            append_trial(&mut file, &trial)?;
            trials.push(trial);
            new_trials += 1;
        }
        Ok(ExecutorReport {
            report: CampaignReport {
                spec: self.campaign.spec,
                trials,
            },
            resumed_trials: resumed,
            new_trials,
            retries,
            quarantined,
            interrupted,
        })
    }

    /// One in-process attempt; the outer `Err` is a caught panic message.
    #[allow(clippy::type_complexity)]
    fn attempt_in_process(
        &self,
        seed: u64,
        ckpt: &Path,
        interrupt: Option<&AtomicBool>,
    ) -> Result<Result<Result<Trial, TrialStop>, CampaignError>, String> {
        let sup = TrialSupervision {
            cancel: self.token(),
            interrupt,
            heartbeat: None,
            sanitize: self.exec.sanitize,
        };
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_trial_supervised(
                self.config,
                &self.campaign,
                seed,
                ckpt,
                self.exec.checkpoint_every,
                sup,
            )
        }))
        .map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_owned()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "opaque panic payload".to_owned()
            }
        })
    }

    // -- isolation mode ----------------------------------------------------

    fn job(&self, seed: u64, checkpoint: &Path) -> WorkerJob {
        WorkerJob {
            config_spec: self.exec.config_spec.clone(),
            load: self.campaign.load,
            pattern: self.campaign.pattern.to_spec(),
            faults: self.campaign.spec.to_string(),
            warmup: self.campaign.windows.warmup,
            measure: self.campaign.windows.measure,
            drain: self.campaign.windows.drain,
            trials: self.campaign.trials,
            base_seed: self.campaign.base_seed,
            seed,
            checkpoint: checkpoint.to_string_lossy().into_owned(),
            every: self.exec.checkpoint_every,
            cycle_budget: self.exec.cycle_budget,
            sanitize: self.exec.sanitize.is_some(),
        }
    }

    /// Starts this executable's `trial-worker` on one attempt of `seed`;
    /// its stdout lines arrive on `events` tagged with the seed.
    fn spawn_worker(
        &self,
        manifest: &Path,
        seed: u64,
        attempt: u32,
        events: &Sender<(u64, Option<String>)>,
    ) -> io::Result<RunningTrial> {
        let ckpt = sibling_path(manifest, &format!(".ckpt.{seed}"));
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("trial-worker").stderr(Stdio::null());
        let job = self.job(seed, &ckpt).to_json();
        let worker = Worker::spawn(cmd, &job, self.exec.deadline, events.clone(), move |line| {
            (seed, line)
        })?;
        Ok(RunningTrial {
            seed,
            attempt,
            worker,
            last_heartbeat: None,
            result: None,
            stop: None,
            error: None,
        })
    }

    fn run_isolated(
        &self,
        manifest: &Path,
        workers: usize,
        interrupt: Option<&AtomicBool>,
    ) -> Result<ExecutorReport, CampaignError> {
        let (mut trials, mut file) = open_manifest(&self.config, &self.campaign, manifest)?;
        let resumed = trials.len() as u32;
        let total = self.campaign.trials as usize;
        let base = self.campaign.base_seed;
        let mut next_fresh = trials.len();
        let mut ready: BTreeMap<u64, Trial> = BTreeMap::new();
        let mut failures_by_seed: BTreeMap<u64, Vec<TrialFailure>> = BTreeMap::new();
        let mut retry_at: Vec<(Instant, u64)> = Vec::new();
        // Keyed by seed: a seed has at most one attempt in flight. Dropping
        // a `RunningTrial` kills and reaps its worker, so every return
        // path, `?` included, takes the fleet down with it.
        let mut running: BTreeMap<u64, RunningTrial> = BTreeMap::new();
        let (events, lines) = mpsc::channel();
        let mut quarantined: Vec<QuarantinedTrial> = Vec::new();
        let mut retries = 0u64;
        let mut new_trials = 0u32;
        let mut interrupted = false;
        let is_set = |i: Option<&AtomicBool>| i.is_some_and(|f| f.load(Ordering::SeqCst));

        while trials.len() < total {
            if is_set(interrupt) {
                interrupted = true;
                running.clear();
                break;
            }

            // Fill free worker slots: due retries first, then fresh seeds.
            while running.len() < workers {
                let now = Instant::now();
                if let Some(pos) = retry_at.iter().position(|(t, _)| *t <= now) {
                    let (_, seed) = retry_at.remove(pos);
                    let attempt = failures_by_seed.get(&seed).map_or(0, Vec::len) as u32 + 1;
                    running.insert(seed, self.spawn_worker(manifest, seed, attempt, &events)?);
                    continue;
                }
                let scheduled = trials.len() + ready.len() + running.len() + retry_at.len();
                if next_fresh >= total || scheduled >= total {
                    break;
                }
                let seed = base + next_fresh as u64;
                next_fresh += 1;
                running.insert(seed, self.spawn_worker(manifest, seed, 1, &events)?);
            }

            // A worker is done when its stdout ends. The timeout bounds how
            // late deadlines, due retries and the interrupt flag are seen.
            match lines.recv_timeout(Duration::from_millis(20)) {
                Ok((seed, Some(line))) => {
                    if let Some(r) = running.get_mut(&seed) {
                        r.apply(parse_worker_line(&line));
                    }
                }
                Ok((seed, None)) => {
                    if let Some(done) = running.remove(&seed) {
                        self.settle_worker(
                            done,
                            manifest,
                            &mut ready,
                            &mut failures_by_seed,
                            &mut retry_at,
                            &mut quarantined,
                            &mut retries,
                        );
                    }
                }
                Err(_) => {}
            }
            for r in running.values_mut() {
                if r.result.is_none() && r.stop.is_none() {
                    r.worker.enforce_deadline();
                }
            }

            // Flush completed trials to the manifest strictly in seed order.
            while let Some(t) = ready.remove(&(base + trials.len() as u64)) {
                append_trial(&mut file, &t)?;
                trials.push(t);
                new_trials += 1;
            }
        }
        while let Some(t) = ready.remove(&(base + trials.len() as u64)) {
            append_trial(&mut file, &t)?;
            trials.push(t);
            new_trials += 1;
        }
        Ok(ExecutorReport {
            report: CampaignReport {
                spec: self.campaign.spec,
                trials,
            },
            resumed_trials: resumed,
            new_trials,
            retries,
            quarantined,
            interrupted,
        })
    }

    /// Reaps a worker whose stdout ended and folds it into the scheduling
    /// state: a clean result goes to the in-order buffer, anything else
    /// becomes a classified failure that is retried (with backoff) or
    /// quarantined.
    #[allow(clippy::too_many_arguments)]
    fn settle_worker(
        &self,
        done: RunningTrial,
        manifest: &Path,
        ready: &mut BTreeMap<u64, Trial>,
        failures_by_seed: &mut BTreeMap<u64, Vec<TrialFailure>>,
        retry_at: &mut Vec<(Instant, u64)>,
        quarantined: &mut Vec<QuarantinedTrial>,
        retries: &mut u64,
    ) {
        let (seed, attempt) = (done.seed, done.attempt);
        let exit = done.worker.reap();
        if let (Ok(()), Some(trial)) = (&exit, done.result) {
            ready.insert(seed, trial);
            failures_by_seed.remove(&seed);
            return;
        }
        let (kind, detail) = if let Some((kind, detail)) = done.stop {
            // Cooperative stops carry a deterministic detail; keep it
            // verbatim so repeat-failure quarantine matching works.
            (kind, detail)
        } else if let Some(msg) = done.error {
            (FailureKind::Exit(1), msg)
        } else {
            let (kind, mut detail) = exit.err().unwrap_or_else(|| {
                let detail = "worker exited cleanly without a result";
                (FailureKind::Exit(0), detail.to_owned())
            });
            if let Some(cycle) = done.last_heartbeat {
                detail.push_str(&format!(" (last heartbeat at cycle {cycle})"));
            }
            (kind, detail)
        };
        let failures = failures_by_seed.entry(seed).or_default();
        failures.push(TrialFailure {
            attempt,
            kind,
            detail,
        });
        if self.quarantine_due(failures) {
            let _ = std::fs::remove_file(sibling_path(manifest, &format!(".ckpt.{seed}")));
            let failures = failures_by_seed.remove(&seed).unwrap_or_default();
            ready.insert(seed, Trial::quarantined(seed, failures.len() as u64));
            quarantined.push(QuarantinedTrial { seed, failures });
        } else {
            *retries += 1;
            let delay = self.backoff_delay(seed, attempt);
            retry_at.push((Instant::now() + delay, seed));
        }
    }
}

/// A worker process the isolation-mode executor is supervising.
struct RunningTrial {
    seed: u64,
    attempt: u32,
    worker: Worker,
    /// Most recently reported sim cycle (diagnostic; a worker killed on
    /// deadline restarts from its last checkpoint at or before this).
    last_heartbeat: Option<u64>,
    result: Option<Trial>,
    stop: Option<(FailureKind, String)>,
    error: Option<String>,
}

impl RunningTrial {
    fn apply(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Heartbeat(cycle) => self.last_heartbeat = Some(cycle),
            WorkerMsg::Result(t) => self.result = Some(*t),
            WorkerMsg::Stopped(kind, detail) => self.stop = Some((kind, detail)),
            WorkerMsg::Error(e) => self.error = Some(e),
        }
    }
}

/// One parsed line of worker stdout.
enum WorkerMsg {
    Heartbeat(u64),
    Result(Box<Trial>),
    Stopped(FailureKind, String),
    Error(String),
}

fn parse_worker_line(line: &str) -> WorkerMsg {
    if let Some(rest) = line.strip_prefix("heartbeat ") {
        if let Ok(cycle) = rest.trim().parse() {
            return WorkerMsg::Heartbeat(cycle);
        }
    }
    if let Some(rest) = line.strip_prefix("result ") {
        if let Some(trial) = parse_trial_line(rest) {
            return WorkerMsg::Result(Box::new(trial));
        }
        return WorkerMsg::Error(format!("unparsable result line: {rest}"));
    }
    if let Some(rest) = line.strip_prefix("stopped timeout ") {
        return WorkerMsg::Stopped(FailureKind::Timeout, rest.to_owned());
    }
    if let Some(rest) = line.strip_prefix("stopped sanitizer ") {
        return WorkerMsg::Stopped(FailureKind::Sanitizer, rest.to_owned());
    }
    if let Some(rest) = line.strip_prefix("error ") {
        return WorkerMsg::Error(rest.to_owned());
    }
    WorkerMsg::Error(format!("unknown worker line: {line}"))
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// The job spec an isolation-mode worker reads as one JSON line on stdin.
///
/// `config_spec` is opaque to this crate: the binary hosting the
/// `trial-worker` subcommand both renders it (parent side, via
/// [`ExecutorConfig::config_spec`]) and parses it back into a
/// [`ClusterConfig`] (worker side).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerJob {
    /// Opaque cluster-config spec (see type docs).
    pub config_spec: String,
    /// Offered load per core.
    pub load: f64,
    /// Traffic pattern, in [`Pattern::to_spec`] form.
    pub pattern: String,
    /// Fault intensity, in [`FaultSpec`](mempool::FaultSpec) spec form.
    pub faults: String,
    /// Warmup window of the trial, in cycles.
    pub warmup: u64,
    /// Measurement window of the trial, in cycles.
    pub measure: u64,
    /// Drain budget of the trial, in cycles.
    pub drain: u64,
    /// Total trials of the campaign (digest context, not used by a worker).
    pub trials: u32,
    /// First seed of the campaign (digest context, not used by a worker).
    pub base_seed: u64,
    /// The seed of the one trial this job runs.
    pub seed: u64,
    /// Path of this trial's private checkpoint file.
    pub checkpoint: String,
    /// Mid-trial checkpoint interval in cycles (`0` disables).
    pub every: u64,
    /// Absolute sim-cycle budget (cooperatively enforced in the worker).
    pub cycle_budget: Option<u64>,
    /// Whether to attach the invariant sanitizer.
    pub sanitize: bool,
}

impl WorkerJob {
    /// Renders the job as a single JSON line.
    pub fn to_json(&self) -> String {
        let budget = match self.cycle_budget {
            Some(b) => b.to_string(),
            None => "null".to_owned(),
        };
        format!(
            "{{\"config_spec\":\"{}\",\"load\":{},\"pattern\":\"{}\",\"faults\":\"{}\",\
             \"warmup\":{},\"measure\":{},\"drain\":{},\"trials\":{},\"base_seed\":{},\
             \"seed\":{},\"checkpoint\":\"{}\",\"every\":{},\"cycle_budget\":{},\
             \"sanitize\":{}}}",
            json_escape(&self.config_spec),
            self.load,
            json_escape(&self.pattern),
            json_escape(&self.faults),
            self.warmup,
            self.measure,
            self.drain,
            self.trials,
            self.base_seed,
            self.seed,
            json_escape(&self.checkpoint),
            self.every,
            budget,
            self.sanitize,
        )
    }

    /// Parses a job from its JSON line form.
    ///
    /// # Errors
    ///
    /// A static description of the first malformed or missing field.
    pub fn from_json(s: &str) -> Result<WorkerJob, &'static str> {
        let fields = parse_flat_json(s).ok_or("malformed job spec JSON")?;
        let get = |k: &str| fields.get(k).ok_or("missing job spec field");
        let num = |k: &str| -> Result<u64, &'static str> {
            get(k)?.parse().map_err(|_| "non-numeric job spec field")
        };
        Ok(WorkerJob {
            config_spec: get("config_spec")?.clone(),
            load: get("load")?
                .parse()
                .map_err(|_| "non-numeric job spec field")?,
            pattern: get("pattern")?.clone(),
            faults: get("faults")?.clone(),
            warmup: num("warmup")?,
            measure: num("measure")?,
            drain: num("drain")?,
            trials: num("trials")? as u32,
            base_seed: num("base_seed")?,
            seed: num("seed")?,
            checkpoint: get("checkpoint")?.clone(),
            every: num("every")?,
            cycle_budget: match get("cycle_budget")?.as_str() {
                "null" => None,
                v => Some(v.parse().map_err(|_| "non-numeric job spec field")?),
            },
            sanitize: get("sanitize")? == "true",
        })
    }

    /// Reconstructs the campaign parameters this job's trial belongs to.
    ///
    /// # Errors
    ///
    /// A description of the unparsable pattern or fault spec.
    pub fn campaign(&self) -> Result<CampaignConfig, String> {
        Ok(CampaignConfig {
            load: self.load,
            pattern: Pattern::parse_spec(&self.pattern)
                .ok_or_else(|| format!("bad pattern spec `{}`", self.pattern))?,
            windows: Windows {
                warmup: self.warmup,
                measure: self.measure,
                drain: self.drain,
            },
            spec: self
                .faults
                .parse()
                .map_err(|e| format!("bad fault spec `{}`: {e}", self.faults))?,
            trials: self.trials,
            base_seed: self.base_seed,
        })
    }
}

/// Runs one trial as an isolation-mode worker: heartbeat lines stream to
/// stdout while the trial runs, then exactly one `result ...` or
/// `stopped ...` line. The caller (the `trial-worker` subcommand) parses
/// `job.config_spec` into `config` first.
///
/// # Errors
///
/// Configuration, I/O, and checkpoint errors (the parent classifies the
/// nonzero exit).
pub fn run_trial_worker(config: ClusterConfig, job: &WorkerJob) -> Result<(), CampaignError> {
    let campaign = job
        .campaign()
        .map_err(|e| CampaignError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))?;
    let mut beat = |cycle: u64| {
        println!("heartbeat {cycle}");
        let _ = io::stdout().flush();
    };
    let sup = TrialSupervision {
        cancel: job
            .cycle_budget
            .map(|b| CancelToken::new().with_cycle_limit(b)),
        interrupt: None,
        heartbeat: Some(&mut beat),
        sanitize: job.sanitize.then(SanitizerConfig::default),
    };
    let outcome = run_trial_supervised(
        config,
        &campaign,
        job.seed,
        Path::new(&job.checkpoint),
        job.every,
        sup,
    )?;
    match outcome {
        Ok(trial) => println!("result {}", format_trial_line(&trial)),
        Err(TrialStop::Cancelled(cause)) => {
            println!("stopped timeout {}", TrialStop::Cancelled(cause))
        }
        Err(TrialStop::Sanitizer(what)) => println!("stopped sanitizer {what}"),
        Err(TrialStop::Interrupted) => unreachable!("workers install no interrupt flag"),
    }
    let _ = io::stdout().flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_job_json_round_trips() {
        let job = WorkerJob {
            config_spec: "topology=topH,small=true,scramble=false".to_owned(),
            load: 0.05,
            pattern: "plocal=0.8".to_owned(),
            faults: "bank_fail=2,link_drop=0.001".to_owned(),
            warmup: 100,
            measure: 400,
            drain: 50_000,
            trials: 4,
            base_seed: 11,
            seed: 13,
            checkpoint: "/tmp/weird \"path\"\\x.ckpt".to_owned(),
            every: 4_096,
            cycle_budget: Some(1_000_000),
            sanitize: true,
        };
        let round = WorkerJob::from_json(&job.to_json()).expect("round trip");
        assert_eq!(round, job);

        let none = WorkerJob {
            cycle_budget: None,
            sanitize: false,
            ..job
        };
        let round = WorkerJob::from_json(&none.to_json()).expect("round trip");
        assert_eq!(round, none);
        assert!(round.campaign().is_ok());
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let ex = Executor::new(
            mempool::ClusterConfig::small(mempool::Topology::Top1),
            CampaignConfig::default(),
            ExecutorConfig {
                backoff_base_ms: 50,
                backoff_cap_ms: 300,
                ..ExecutorConfig::default()
            },
        );
        let a = ex.backoff_delay(7, 1);
        assert_eq!(a, ex.backoff_delay(7, 1), "same (seed, attempt) -> same delay");
        assert!(a >= Duration::from_millis(50) && a < Duration::from_millis(100));
        // Attempt 10 is far past the cap: delay stays within cap + jitter.
        let late = ex.backoff_delay(7, 10);
        assert!(late >= Duration::from_millis(300) && late < Duration::from_millis(350));
        // Disabled backoff is exactly zero.
        let off = Executor {
            exec: ExecutorConfig {
                backoff_base_ms: 0,
                ..ex.exec.clone()
            },
            ..ex.clone()
        };
        assert_eq!(off.backoff_delay(7, 3), Duration::ZERO);
    }

    #[test]
    fn quarantine_rule_fires_on_repeat_or_exhaustion() {
        let ex = Executor::new(
            mempool::ClusterConfig::small(mempool::Topology::Top1),
            CampaignConfig::default(),
            ExecutorConfig {
                max_attempts: 3,
                ..ExecutorConfig::default()
            },
        );
        let f = |kind: FailureKind, detail: &str, attempt: u32| TrialFailure {
            attempt,
            kind,
            detail: detail.to_owned(),
        };
        // One failure: retry.
        assert!(!ex.quarantine_due(&[f(FailureKind::Panic, "x", 1)]));
        // Two different failures: still retry.
        assert!(!ex.quarantine_due(&[
            f(FailureKind::Panic, "x", 1),
            f(FailureKind::Timeout, "y", 2)
        ]));
        // Two consecutive identical failures: deterministic, quarantine.
        assert!(ex.quarantine_due(&[
            f(FailureKind::Panic, "x", 1),
            f(FailureKind::Panic, "x", 2)
        ]));
        // Attempt budget exhausted: quarantine regardless of variety.
        assert!(ex.quarantine_due(&[
            f(FailureKind::Panic, "x", 1),
            f(FailureKind::Timeout, "y", 2),
            f(FailureKind::Oom, "z", 3)
        ]));
    }

    #[test]
    fn worker_lines_parse() {
        assert!(matches!(
            parse_worker_line("heartbeat 512"),
            WorkerMsg::Heartbeat(512)
        ));
        assert!(matches!(
            parse_worker_line("stopped timeout cycle budget of 10 exhausted"),
            WorkerMsg::Stopped(FailureKind::Timeout, _)
        ));
        assert!(matches!(
            parse_worker_line("error no such config"),
            WorkerMsg::Error(_)
        ));
        assert!(matches!(
            parse_worker_line("garbage"),
            WorkerMsg::Error(_)
        ));
    }
}
