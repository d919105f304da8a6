//! Result bookkeeping: metrics with units, order statistics, provenance,
//! and the printed report whose last line is the machine-readable result.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (kernel runs, traffic points, served jobs, and
    /// the cross-checks between them).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (reference
    /// comparisons, sample counts, failure reasons).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation; a failure is noted with `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile with at least ten samples above it: the 11th
/// largest sample, at percentile `100 * (n - 10) / n`. With fewer than
/// twenty samples that percentile falls below the median, so the median
/// is reported instead. Returns `(value, percentile)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Peak resident set size of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result came from: host, toolchain and source revision.
pub fn provenance(seed: u64) -> String {
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rev = if Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    }
    .unwrap_or_else(|| "none (not a git checkout)".to_owned());
    format!(
        "provenance: hardware_threads={threads} cpu=\"{cpu}\" rustc=\"{}\" git_rev={rev} \
         source_digest={:016x} seed={seed}",
        env!("PERFBENCH_RUSTC_VERSION"),
        source_digest(),
    )
}

/// FNV-1a over the paths and contents of the simulator's sources
/// (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`), so a result names the
/// code it measured even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path
                .extension()
                .is_some_and(|e| e == "rs" || e == "toml" || e == "s")
            {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Full-precision JSON number (JSON has no NaN or infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&v[..15]), (8.0, 50.0));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
