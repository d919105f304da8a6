//! The MemPool simulator's benchmark: three workloads through the public
//! APIs of the engine, the kernels, the traffic generators and the
//! simulation service.
//!
//! ```text
//! perfbench --workload <dct-local|uniform-heavy|serve-jobs> --seed <n>
//!           --seconds <s> --trace <0|1> [--serve-bin <mempool-serve>]
//!           [--out-dir <dir>] [--small] [--expect-digest <hex>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run; the last stdout line is the
//! JSON result. `--small` (64 cores) and `--expect-digest` (an expected
//! state digest in place of the one the run computes) exist for the
//! self-test. Run it through `run.py`, which builds it first.

mod dct;
mod metrics;
mod report;
mod serve;
mod trace;
mod uniform;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// A workload: its outcome, and the trace of a traced run.
type Workload = fn(&Args) -> Result<(Outcome, Option<Tracer>), String>;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
    pub small: bool,
    pub expect_digest: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from("perfbench/out"),
        small: false,
        expect_digest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--small" {
            args.small = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("{arg}: bad value `{value}`");
        match arg.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("{arg}: bad value `{value}`"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got `{value}`"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(&value)),
            "--out-dir" => args.out_dir = PathBuf::from(&value),
            "--expect-digest" => {
                args.expect_digest =
                    Some(u64::from_str_radix(value.trim_start_matches("0x"), 16).map_err(bad)?);
            }
            _ => return Err(format!("unknown option `{arg}`")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: Workload = match args.workload.as_str() {
        "dct-local" => dct::run,
        "uniform-heavy" => uniform::run,
        "serve-jobs" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }
    let provenance = report::provenance(args.seed);
    println!("{provenance}");
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (outcome, tracer) = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!(
            "{:<32} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!(
        "{:<32} {:>18} fraction ({} failed of {} attempted)",
        "failed_ratio",
        format!("{:.6}", outcome.failed_ratio()),
        outcome.failed,
        outcome.attempted
    );
    let result = report::result_json(&outcome);
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let record = format!(
        "{{\"provenance\": \"{}\", \"result\": {result}}}\n",
        provenance.replace('\\', "\\\\").replace('"', "\\\"")
    );
    let mut written = std::fs::write(args.out_dir.join(format!("{stem}.json")), record);
    if let Some(tracer) = tracer {
        written = written.and_then(|()| {
            std::fs::write(
                args.out_dir.join(format!("{stem}-spans.json")),
                tracer.to_chrome_json(),
            )
        });
    }
    if let Err(e) = written {
        eprintln!(
            "perfbench: writing results to {}: {e}",
            args.out_dir.display()
        );
        return ExitCode::from(1);
    }
    println!("{result}");
    ExitCode::SUCCESS
}
