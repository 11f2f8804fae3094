//! `sim-busy`: `mobicore_tournament::run` over three policies × four
//! busy catalog scenarios × two seeds on the sweep executor. Every tick
//! is a full `Simulation::step`, so the simulator's tick path
//! (scheduler, cores, power, thermal, telemetry) dominates host time.

use crate::measure::{hex, median, Batches, HostSampler, Outcome};
use crate::sims::{build_all, Device, RunSpec, SimLayers};
use crate::trace::Tracer;
use crate::{Opts, Size, WINDOWS};
use mobicore_sweep::Executor;
use mobicore_telemetry::{Json, Leaderboard};
use mobicore_tournament::TournamentSpec;
use std::time::Instant;

/// Policies raced: the paper's policy, the stock baseline it is
/// measured against, and the most expensive governor per sample.
const POLICIES: [&str; 3] = ["mobicore", "android-default", "learned"];

/// The busy catalog scenarios (`idle-day` and the mini day excluded).
const SCENARIOS: [&str; 4] = ["gaming", "mixed-day", "bursty-launches", "steady-video"];

/// The pinned tournament for `opts`.
pub fn spec(opts: &Opts) -> TournamentSpec {
    let (seeds, secs) = match opts.size {
        Size::Full => (2, 8),
        Size::Tiny => (1, 1),
    };
    TournamentSpec {
        name: "perfbench-sim-busy".to_string(),
        policies: POLICIES.iter().map(|s| s.to_string()).collect(),
        scenarios: SCENARIOS.iter().map(|s| s.to_string()).collect(),
        seeds: (opts.seed..opts.seed + seeds).collect(),
        secs,
    }
}

/// The tournament's runs as per-cell jobs, in its submission order.
pub fn cells(spec: &TournamentSpec) -> Vec<Vec<RunSpec>> {
    let mut out = Vec::new();
    for p in &spec.policies {
        for s in &spec.scenarios {
            out.push(
                spec.seeds
                    .iter()
                    .map(|&seed| RunSpec {
                        policy: p.clone(),
                        scenario: s.clone(),
                        seed,
                        secs: spec.secs,
                    })
                    .collect(),
            );
        }
    }
    out
}

fn energy(lb: &Leaderboard, policy: &str) -> f64 {
    lb.entries
        .iter()
        .find(|e| e.policy == policy)
        .map_or(f64::NAN, |e| e.overall.energy_mj)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(opts);
    let jobs = cells(&spec);
    let runs = (jobs.len() * spec.seeds.len()) as u64;
    let sim_s = (runs * spec.secs) as f64;

    // Set-up: resolve the pinned names and build every simulation of a
    // batch, as the tournament does before it runs them. Timed before
    // every batch, after one untimed warm-up, so its median sees the
    // same host as the batches do.
    let dev = Device::nexus5();
    let mut setup = Vec::new();
    build_all(&jobs);

    // Warm-up batch, which is also the reference every repetition must
    // reproduce byte for byte.
    let reference = mobicore_tournament::run(&spec).leaderboard;
    let reference_json = reference.to_json_text();
    out.info(
        "leaderboard_digest",
        hex(crate::measure::digest(reference_json.as_bytes())),
    );
    out.named.push(
        "energy_ratio_mobicore_vs_default",
        energy(&reference, "mobicore") / energy(&reference, "android-default"),
        "ratio",
    );

    let deadline = Instant::now() + opts.measure;
    let host = HostSampler::start();
    if opts.trace {
        let exec = Executor::new(opts.jobs);
        let tracer = Tracer::default();
        let layers = SimLayers::measure(&exec, &dev, &jobs, false, &tracer, deadline);
        let usage = host.finish();
        out.host = usage;
        out.attempted = layers.rounds * layers.runs_per_batch * 3;
        if layers.mismatched_batches > 0 {
            out.fail(
                layers.mismatched_batches * layers.runs_per_batch,
                "traced simulations differ from untraced ones",
            );
        }
        check_replica(&mut out, &exec, &dev, &jobs, &spec, &reference, &tracer);
        usage.report(&mut out.metrics);
        layers.report(&mut out.metrics, &mut out.named);
        crate::write_spans(&mut out, &tracer, "sim-busy", opts.seed);
        return out;
    }

    let mut batches = Batches::default();
    loop {
        setup.push(build_all(&jobs));
        let lb = batches.time(|| mobicore_tournament::run(&spec).leaderboard);
        out.attempted += runs;
        if lb.to_json_text() != reference_json {
            out.fail(runs, "leaderboard differs between repetitions");
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let usage = host.finish();
    out.host = usage;
    out.metrics.push("setup_s", median(&setup), "s");
    let rate = batches.report(sim_s, WINDOWS, &mut out.metrics);
    out.named.push("sim_s_per_wall_s", rate, "1/s");
    usage.report(&mut out.named);
    out.info("batches", Json::Num(batches.len() as f64));
    out.info("runs_per_batch", Json::Num(runs as f64));
    out
}

/// Checks the benchmark's own rebuild of the tournament against the
/// real one: identical per-cell mean energies, bit for bit.
fn check_replica(
    out: &mut Outcome,
    exec: &Executor,
    dev: &Device,
    jobs: &[Vec<RunSpec>],
    spec: &TournamentSpec,
    reference: &Leaderboard,
    tracer: &Tracer,
) {
    let batch = crate::sims::Batch::run(exec, dev, jobs, crate::sims::Mode::Plain, false, tracer);
    for (job, cell) in batch.jobs.iter().zip(jobs) {
        let n = job.runs.len() as f64;
        let mean = job.runs.iter().map(|r| r.energy_mj).sum::<f64>() / n;
        let want = reference
            .entries
            .iter()
            .find(|e| e.policy == cell[0].policy)
            .and_then(|e| e.scenarios.get(&cell[0].scenario))
            .map(|s| s.energy_mj);
        if want.map(f64::to_bits) != Some(mean.to_bits()) {
            out.fail(
                spec.seeds.len() as u64,
                format!(
                    "rebuilt {}/{} differs from the tournament",
                    cell[0].policy, cell[0].scenario
                ),
            );
        }
    }
}
