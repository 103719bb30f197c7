//! `perfbench` — one run of one workload against the shipped `phe` CLI.
//!
//! ```text
//! perfbench --phe PATH --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! Prints every metric by name with its unit, the attempted and failed
//! operations per op type, and as its last line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. Exits non-zero if any check fails; the
//! work directory, with the server's stderr, is then kept.

mod bench;
mod client;
mod graph;
mod idle;
mod inputs;
mod layers;
mod proc;
mod rng;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn arg(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")?;
    let kind =
        bench::Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed: u64 = arg(&args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = arg(&args, "--seconds")?
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match arg(&args, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let phe = PathBuf::from(arg(&args, "--phe")?);
    let dir = PathBuf::from(arg(&args, "--work")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let ctx = bench::Ctx {
        phe,
        dir: dir.clone(),
        seed,
        seconds,
        trace,
    };

    let outcome = bench::run(kind, &ctx);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(message) => {
            return Err(format!(
                "{message}\n(work directory kept: {})",
                dir.display()
            ));
        }
    };
    for note in &outcome.notes {
        println!("note {note}");
    }
    for (op, (attempted, failed)) in &outcome.ops.counts {
        println!("ops {op:<14} attempted {attempted:>8} failed {failed}");
    }
    for error in &outcome.ops.errors {
        println!("failed op {error}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name:<30} {value:>16.4} {unit}");
    }
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    let correct = outcome.failures.is_empty();
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(metrics, r#""{name}":{{"value":{value},"unit":"{unit}"}}"#);
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
        outcome.ops.attempted(),
        outcome.ops.failed()
    );
    if correct {
        let _ = std::fs::remove_dir_all(&dir);
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "perfbench: checks failed; work directory kept: {}",
            dir.display()
        );
        Ok(ExitCode::from(1))
    }
}
