//! `mobicore-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints a report line, then, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any output check failed and 2 on a usage error.

#![forbid(unsafe_code)]

use mobicore_perfbench::{measure, run, Opts, Size, WORKLOADS};
use mobicore_telemetry::Json;
use std::time::Duration;

const USAGE: &str = "usage: mobicore-perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        measure: Duration::from_secs(10),
        trace: false,
        size: Size::Full,
        // At most two load threads, connections and workers, and never
        // more than the machine has.
        jobs: measure::nproc().clamp(1, 2),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(bad)?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                opts.measure = Duration::from_secs(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = match run(&workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    };
    let correct = out.failed == 0 && out.problems.is_empty();
    let mut report = Json::obj()
        .with("workload", Json::Str(workload.clone()))
        .with("trace", Json::Bool(opts.trace))
        .with(
            "failed_frac",
            Json::Num(out.failed as f64 / out.attempted.max(1) as f64),
        )
        .with("attempted", Json::Num(out.attempted as f64))
        .with("named", out.named.to_json());
    for (k, v) in &out.info {
        report = report.with(k, v.clone());
    }
    if !out.problems.is_empty() {
        report = report.with(
            "problems",
            Json::Arr(out.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        );
    }
    println!("{}", report.to_compact());
    let result = Json::obj()
        .with("correct", Json::Bool(correct))
        .with("attempted", Json::Num(out.attempted.max(1) as f64))
        .with("failed", Json::Num(out.failed as f64))
        .with("metrics", out.metrics.to_json());
    println!("{}", result.to_compact());
    if !correct {
        std::process::exit(1);
    }
}
