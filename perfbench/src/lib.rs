//! The repository benchmark: four named workloads over the simulator,
//! the tournament, the fleet harness and the serving stack, each with
//! its end-to-end metrics (untraced run) or its per-layer ledger
//! (traced run). README.md explains the workloads, the metrics and how
//! a change names its claim.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fleet_idle;
pub mod measure;
pub mod router_churn;
pub mod serve_stream;
pub mod serving;
pub mod sim_busy;
pub mod sims;
pub mod trace;

use measure::Outcome;
use mobicore_telemetry::Json;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sim-busy", "fleet-idle", "serve-stream", "router-churn"];

/// End-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
];

/// Per-layer metrics every traced run reports, with their units.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("trace.work_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("host.runq_wait_frac", "frac"),
    ("host.steal_frac", "frac"),
    ("policy.on_sample_ns", "ns"),
    ("policy.on_sample_p99_ns", "ns"),
    ("policy.share", "frac"),
    ("workloads.on_tick_ns", "ns"),
    ("workloads.share", "frac"),
    ("sim.self_ns_per_sim_s", "ns"),
    ("sim.full_step_frac", "frac"),
    ("sim.advance_ns", "ns"),
    ("sim.advances_per_sim_s", "count"),
    ("sim.telemetry_cost_frac", "frac"),
    ("sweep.efficiency", "frac"),
    ("sweep.straggler_s", "s"),
    ("telemetry.merge_us", "us"),
    ("telemetry.manifest_json_us", "us"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.bytes_per_decision", "B"),
];

/// Input sizes: `Full` is what the benchmark measures; `Tiny` runs
/// every code path in a fraction of a second, for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's own sizes.
    Full,
    /// Minimal inputs, same code paths.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measured time, shared among the workload's phases.
    pub measure: Duration,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Sweep workers, load threads and server workers (≤ nproc).
    pub jobs: usize,
}

/// Time windows a run's latency quantiles are taken over: each is the
/// median of the per-window quantiles (see
/// [`measure::windowed_quantile`]).
pub const WINDOWS: usize = 5;

/// The simulator engine every workload pins.
const ENGINE: &str = "cyclic";

/// Pins the process-wide knobs the harnesses read from the
/// environment, so an ambient `MOBICORE_JOBS` or `MOBICORE_SIM_ENGINE`
/// cannot change what is measured. Returns the effective values.
fn pin_environment(jobs: usize) -> Json {
    std::env::set_var(mobicore_sweep::JOBS_ENV, jobs.to_string());
    std::env::set_var(mobicore_sim::ENGINE_ENV, ENGINE);
    let engine = mobicore_sim::SimEngine::from_env().unwrap_or_default();
    Json::obj()
        .with(
            "sweep_jobs",
            Json::Num(mobicore_sweep::Executor::from_env().jobs() as f64),
        )
        .with("sim_engine", Json::Str(engine.name().to_string()))
        .with("nproc", Json::Num(measure::nproc() as f64))
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that failed (a socket
/// that could not be bound, a recording that could not be made).
pub fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let pinned = pin_environment(opts.jobs);
    let mut out = match name {
        "sim-busy" => sim_busy::run(opts),
        "fleet-idle" => fleet_idle::run(opts),
        "serve-stream" => serve_stream::run(opts)?,
        "router-churn" => router_churn::run(opts)?,
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    out.info("seed", Json::Num(opts.seed as f64));
    out.info("pinned", pinned);
    if !opts.trace {
        out.named.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
        unsteal(&mut out);
    }
    Ok(out)
}

/// Takes the hypervisor's steal out of the end-to-end times and rates.
///
/// A vCPU the hypervisor gives to another guest stalls whatever runs on
/// it, so a share `f` of stolen busy time stretches every wall time of
/// the run by `1 / (1 - f)`. On a shared VM that share swings between 0
/// and a half within minutes, which would swamp any change to the
/// program; the metrics are the run's as if nothing was stolen. The
/// measured values stay on the report line as `raw.<metric>`, beside
/// `host.steal_frac`.
fn unsteal(out: &mut Outcome) {
    let keep = 1.0 - out.host.steal_frac;
    for m in &mut out.metrics.0 {
        let adjusted = match m.unit {
            "s" | "us" => m.value * keep,
            "1/s" => m.value / keep,
            _ => continue,
        };
        out.named.push(format!("raw.{}", m.name), m.value, m.unit);
        m.value = adjusted;
    }
}

/// Writes the traced run's spans under `out/` in the benchmark's
/// directory and notes the file and span count on the report line.
pub fn write_spans(out: &mut Outcome, tracer: &trace::Tracer, workload: &str, seed: u64) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(n) => {
            out.info("spans", Json::Num(n as f64));
            out.info("span_file", Json::Str(path.display().to_string()));
        }
        Err(e) => out.info("span_file_error", Json::Str(e.to_string())),
    }
}
