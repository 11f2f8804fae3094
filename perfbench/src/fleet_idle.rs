//! `fleet-idle`: `mobicore_experiments::fleet::run` over many `idle-day`
//! devices under MobiCore, multiplexed through one `FleetSim` per chunk.
//! Over 99 % of ticks are fast-forwarded, so the event engine, its
//! heap and the 50 Hz governor steps dominate, and the tick path that
//! `sim-busy` stresses barely shows.

use crate::measure::{digest, hex, median, Batches, HostSampler, Outcome};
use crate::sims::{build_all, Device, RunSpec, SimLayers};
use crate::trace::Tracer;
use crate::{Opts, Size, WINDOWS};
use mobicore_experiments::fleet::{self, FleetSpec, Mode};
use mobicore_sweep::Executor;
use mobicore_telemetry::Json;
use std::time::Instant;

fn spec(opts: &Opts) -> FleetSpec {
    let (devices, chunk, secs) = match opts.size {
        Size::Full => (64, 32, 20),
        Size::Tiny => (4, 2, 2),
    };
    FleetSpec {
        devices,
        chunk,
        scenario: "idle-day".to_string(),
        policy: "mobicore".to_string(),
        secs,
        base_seed: opts.seed,
        mode: Mode::Fleet,
        manifest_dir: None,
        capture_events: false,
    }
}

/// The fleet's devices as per-chunk jobs, in its submission order.
fn chunks(spec: &FleetSpec) -> Vec<Vec<RunSpec>> {
    let devices: Vec<RunSpec> = (0..spec.devices)
        .map(|d| RunSpec {
            policy: spec.policy.clone(),
            scenario: spec.scenario.clone(),
            seed: spec.base_seed + d as u64,
            secs: spec.secs,
        })
        .collect();
    devices
        .chunks(spec.chunk)
        .map(<[RunSpec]>::to_vec)
        .collect()
}

/// Digest of every device report, in device order.
fn reports_digest(out: &fleet::FleetOutput) -> u64 {
    let mut text = String::new();
    for r in &out.results {
        text.push_str(&format!("{:?}\n", r.report));
    }
    digest(text.as_bytes())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(opts);
    let jobs = chunks(&spec);
    let device_s = (spec.devices as u64 * spec.secs) as f64;

    // Set-up: build every device of a fleet, as each chunk job does.
    // Timed before every batch, after one untimed warm-up, so its median
    // sees the same host as the batches do.
    let dev = Device::nexus5();
    let mut setup = Vec::new();
    build_all(&jobs);

    // Warm-up run, and the reference every repetition must reproduce.
    let first = fleet::run(&spec);
    let reference = reports_digest(&first);
    out.info("reports_digest", hex(reference));

    let deadline = Instant::now() + opts.measure;
    let host = HostSampler::start();
    if opts.trace {
        let exec = Executor::new(opts.jobs);
        let tracer = Tracer::default();
        let layers = SimLayers::measure(&exec, &dev, &jobs, true, &tracer, deadline);
        let usage = host.finish();
        out.host = usage;
        out.attempted = layers.rounds * layers.runs_per_batch * 3;
        if layers.mismatched_batches > 0 {
            out.fail(
                layers.mismatched_batches * layers.runs_per_batch,
                "traced simulations differ from untraced ones",
            );
        }
        // The rebuilt chunks must reproduce the harness's own reports.
        let harness: Vec<u64> = first
            .results
            .iter()
            .map(|r| digest(format!("{:?}", r.report).as_bytes()))
            .collect();
        if harness != layers.plain_digests {
            out.fail(spec.devices as u64, "rebuilt fleet differs from fleet::run");
        }
        usage.report(&mut out.metrics);
        layers.report(&mut out.metrics, &mut out.named);
        if let (Some(adv), Some(per_s)) = (
            out.metrics.get("sim.advance_ns"),
            out.metrics.get("sim.advances_per_sim_s"),
        ) {
            out.named.push("fleet.advance_ns", adv, "ns");
            out.named
                .push("fleet.advances_per_device_s", per_s, "count");
        }
        crate::write_spans(&mut out, &tracer, "fleet-idle", opts.seed);
        return out;
    }

    let mut batches = Batches::default();
    loop {
        setup.push(build_all(&jobs));
        let run = batches.time(|| fleet::run(&spec));
        out.attempted += spec.devices as u64;
        if reports_digest(&run) != reference {
            out.fail(
                spec.devices as u64,
                "device reports differ between repetitions",
            );
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let usage = host.finish();
    out.host = usage;
    out.metrics.push("setup_s", median(&setup), "s");
    let rate = batches.report(device_s, WINDOWS, &mut out.metrics);
    out.named.push("device_s_per_wall_s", rate, "1/s");
    usage.report(&mut out.named);
    out.info("batches", Json::Num(batches.len() as f64));
    out.info("devices", Json::Num(spec.devices as f64));
    out
}
