//! The MobiCore reproduction's single bench harness.
//!
//! Every measurement scenario is defined here, once, and has three
//! callers:
//!
//! * the `bench-manifest` binary, which runs them all and records a
//!   `kind = "bench"` run manifest (`BENCH_NN.json`);
//! * the opt-in regression gate `tests/bench_gate.rs`, which compares
//!   fresh runs against the newest committed `BENCH_*.json`;
//! * the tier-1 smoke test `tests/harness_smoke.rs`, which runs each
//!   scenario at its smallest size.
//!
//! Timing is plain `std::time::Instant`, reported as medians of rounds:
//! the whole manifest has to run in seconds as part of a normal change,
//! and medians are stable enough for trend lines.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

use mobicore::{BandwidthAnalyzer, DcsPass, FrequencyRule, MobiCore, MobiCoreConfig};
use mobicore_experiments::runner::{run_pinned, ManifestSink};
use mobicore_governors::dvfs::{DvfsGovernor, Interactive, Ondemand};
use mobicore_model::operating_point::OperatingPointOptimizer;
use mobicore_model::{profiles, CoreActivity, DeviceProfile, Khz, Quota, Utilization};
use mobicore_sim::builtin::PinnedPolicy;
use mobicore_sim::{
    CoreSnapshot, CpuControl, CpuPolicy, PolicySnapshot, SimConfig, SimEngine, Simulation,
};
use mobicore_sweep::Executor;
use mobicore_telemetry::RunManifest;
use mobicore_workloads::{scenario, BusyLoop};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed shared by every simulated scenario.
const SEED: u64 = 20_170_315;

fn snapshot(utils: [f64; 4]) -> PolicySnapshot {
    let cores: Vec<CoreSnapshot> = utils
        .iter()
        .map(|&u| CoreSnapshot {
            online: true,
            cur_khz: Khz(960_000),
            target_khz: Khz(960_000),
            util: Utilization::new(u),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            busy_us: (u * 20_000.0) as u64,
        })
        .collect();
    PolicySnapshot {
        now_us: 1_000_000,
        window_us: 20_000,
        overall_util: Utilization::new(utils.iter().sum::<f64>() / 4.0),
        cores,
        quota: Quota::FULL,
        mpdecision_enabled: false,
        max_runnable_threads: 4,
        temp_c: 30.0,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median ns/op over `rounds` rounds of `iters` calls each.
fn time_ns_per_op(rounds: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    median(
        (0..rounds)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / f64::from(iters)
            })
            .collect(),
    )
}

/// One per-sample decision-path case: the code that runs every 20 ms on
/// a phone, where overhead is battery. `time` returns the median ns per
/// call over `rounds` × `iters` on the given profile and snapshot.
pub struct DecisionCase {
    /// Case name; the manifest records it as `bench.<name>_ns`.
    pub name: &'static str,
    /// Times the case: `(profile, snapshot, rounds, iters) -> ns/op`.
    pub time: fn(&DeviceProfile, &PolicySnapshot, usize, u32) -> f64,
}

fn on_sample_ns(mut policy: MobiCore, snap: &PolicySnapshot, rounds: usize, iters: u32) -> f64 {
    time_ns_per_op(rounds, iters, || {
        let mut ctl = CpuControl::new();
        policy.on_sample(black_box(snap), &mut ctl);
        black_box(ctl.take());
    })
}

fn dvfs_target_ns(
    mut g: impl DvfsGovernor,
    profile: &DeviceProfile,
    snap: &PolicySnapshot,
    rounds: usize,
    iters: u32,
) -> f64 {
    time_ns_per_op(rounds, iters, || {
        black_box(g.target(black_box(snap), profile.opps()));
    })
}

/// The decision-path cases, in the order `bench-manifest` times them.
pub const DECISION_PATH: [DecisionCase; 8] = [
    DecisionCase {
        name: "mobicore_on_sample",
        time: |profile, snap, rounds, iters| {
            on_sample_ns(MobiCore::new(profile), snap, rounds, iters)
        },
    },
    DecisionCase {
        name: "bandwidth_decide",
        time: |_, _, rounds, iters| {
            let mut bw = BandwidthAnalyzer::new(MobiCoreConfig::default());
            let mut u = 0.0f64;
            time_ns_per_op(rounds, iters, || {
                u = (u + 0.013) % 0.6;
                black_box(bw.decide(Utilization::new(u)));
            })
        },
    },
    DecisionCase {
        name: "dcs_decide",
        time: |_, snap, rounds, iters| {
            let dcs = DcsPass::new(MobiCoreConfig::default());
            time_ns_per_op(rounds, iters, || {
                black_box(dcs.decide(black_box(snap), Quota::FULL));
            })
        },
    },
    DecisionCase {
        name: "mobicore_optpoint_on_sample",
        time: |profile, snap, rounds, iters| {
            let cfg = MobiCoreConfig {
                rule: FrequencyRule::OptimalPoint,
                ..MobiCoreConfig::default()
            };
            on_sample_ns(MobiCore::with_config(profile, cfg), snap, rounds, iters)
        },
    },
    DecisionCase {
        name: "ondemand_target",
        time: |profile, snap, rounds, iters| {
            dvfs_target_ns(Ondemand::new(), profile, snap, rounds, iters)
        },
    },
    DecisionCase {
        name: "interactive_target",
        time: |profile, snap, rounds, iters| {
            dvfs_target_ns(Interactive::new(), profile, snap, rounds, iters)
        },
    },
    DecisionCase {
        name: "optimizer_best_for_load_50pct",
        time: |profile, _, rounds, iters| {
            let opt = OperatingPointOptimizer::new(profile);
            time_ns_per_op(rounds, iters, || {
                black_box(
                    opt.best_for_global_load(black_box(0.5))
                        .expect("50 % load has an operating point"),
                );
            })
        },
    },
    DecisionCase {
        name: "device_power_eval",
        time: |profile, _, rounds, iters| {
            let acts = [
                CoreActivity::online(13, 0.9),
                CoreActivity::online(9, 0.4),
                CoreActivity::online(5, 0.2),
                CoreActivity::OFFLINE,
            ];
            time_ns_per_op(rounds, iters, || {
                black_box(
                    profile
                        .power(black_box(&acts))
                        .expect("activities fit the profile")
                        .total_mw(),
                );
            })
        },
    },
];

/// Times every [`DECISION_PATH`] case on a Nexus 5 with a mixed
/// four-core snapshot: `(name, median ns/op)` in table order.
pub fn decision_path_ns(rounds: usize, iters: u32) -> Vec<(&'static str, f64)> {
    let profile = profiles::nexus5();
    let snap = snapshot([0.9, 0.4, 0.2, 0.05]);
    DECISION_PATH
        .iter()
        .map(|case| (case.name, (case.time)(&profile, &snap, rounds, iters)))
        .collect()
}

/// Simulated-seconds per wall-second for MobiCore under a mixed load
/// (telemetry on, like a real inspected run), and the finished run.
pub fn sim_throughput(secs: u64) -> (f64, Simulation) {
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();
    let cfg = SimConfig::new(profile.clone())
        .with_duration_secs(secs)
        .with_seed(SEED)
        .without_mpdecision();
    let mut sim =
        Simulation::new(cfg, Box::new(MobiCore::new(&profile))).expect("bench config is valid");
    sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.3, f_max, 2)));
    let t = Instant::now();
    sim.run();
    (secs as f64 / t.elapsed().as_secs_f64(), sim)
}

/// Scheduler scaling with thread count: simulated-seconds per
/// wall-second of `threads` half-busy threads on four cores pinned at
/// f_max; median of `rounds` runs of `secs` each.
pub fn threads_throughput(threads: usize, secs: u64, rounds: usize) -> f64 {
    median(
        (0..rounds)
            .map(|_| {
                let profile = profiles::nexus5();
                let f_max = profile.opps().max_khz();
                let cfg = SimConfig::new(profile)
                    .with_duration_secs(secs)
                    .without_mpdecision();
                let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, f_max)))
                    .expect("bench config is valid");
                sim.add_workload(Box::new(BusyLoop::with_target_util(threads, 0.5, f_max, 1)));
                let t = Instant::now();
                black_box(sim.run());
                secs as f64 / t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Simulated-seconds per wall-second of the > 99 %-idle `idle-day`
/// catalog scenario under `engine`; median of `rounds` runs. The
/// cyclic/event pair on the same scenario and host is the event
/// engine's fast-forward win (docs/simulator.md) — the acceptance bar
/// is event ≥ 5× cyclic here.
pub fn idle_throughput(engine: SimEngine, rounds: usize) -> f64 {
    const SECS: u64 = 60;
    median(
        (0..rounds)
            .map(|_| {
                let profile = profiles::nexus5();
                let cfg = SimConfig::new(profile.clone())
                    .with_duration_secs(SECS)
                    .with_seed(SEED)
                    .without_mpdecision()
                    .with_engine(engine);
                let mut sim = Simulation::new(cfg, Box::new(MobiCore::new(&profile)))
                    .expect("bench config is valid");
                let day = scenario::by_name("idle-day", &profile, SEED)
                    .expect("idle-day is in the catalog");
                sim.add_workload(Box::new(day));
                let t = Instant::now();
                sim.run();
                SECS as f64 / t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Wall-clock jobs/second for a fig03/fig04-shaped pinned sweep (16
/// jobs × `secs` sim-seconds) on `n_jobs` workers; median of `rounds`.
pub fn sweep_jobs_per_s(n_jobs: usize, secs: u64, rounds: usize) -> f64 {
    let profile = profiles::nexus5();
    let sink = ManifestSink::disabled();
    let exec = Executor::new(n_jobs);
    median(
        (0..rounds)
            .map(|_| {
                let mut jobs = Vec::new();
                for &opp in &[0usize, 4, 9, 13] {
                    for cores in 1..=4usize {
                        jobs.push((cores, opp));
                    }
                }
                let n = jobs.len();
                let t = Instant::now();
                let reports = exec.run_ordered(jobs, |_, (cores, opp)| {
                    let khz = profile.opps().get_clamped(opp).khz;
                    run_pinned(
                        &profile,
                        cores,
                        khz,
                        vec![Box::new(BusyLoop::with_target_util(cores, 0.8, khz, 2))],
                        secs,
                        SEED,
                        &sink,
                    )
                });
                black_box(reports);
                n as f64 / t.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// The daemon configuration of every loopback serve and shard stage.
fn serve_cfg() -> mobicore_serve::ServeConfig {
    mobicore_serve::ServeConfig::default()
        .with_workers(2)
        .with_drain_deadline(std::time::Duration::from_secs(3))
}

/// Loopback serve throughput: a `mobicore-serve` daemon plus a
/// `mobicore-load` run in the same process, reporting decisions per
/// wall-second and RTT quantiles (µs) exactly as the `mobicore-load`
/// CLI would. Snapshots ride the windowed batching path (corked
/// writes, coalesced flushes). Panics unless the run is clean.
pub fn serve_loopback(sessions: usize) -> mobicore_serve::LoadReport {
    let server = mobicore_serve::Server::bind("127.0.0.1:0", serve_cfg()).expect("loopback bind");
    let cfg = mobicore_serve::LoadConfig {
        sessions,
        drivers: 4,
        record_secs: 2,
        snapshots_per_session: 50,
        seed: SEED,
        ..mobicore_serve::LoadConfig::default()
    };
    let report = mobicore_serve::run_load(&server.local_addr().to_string(), &cfg)
        .expect("loopback load runs");
    assert!(
        report.clean(),
        "bench loopback run must be loss-free and byte-identical: {report:?}"
    );
    server.shutdown();
    report
}

/// Fleet throughput: a `mobicore-router` in front of two in-process
/// serve shards, driven by the fleet orchestrator — `sessions` device
/// sessions multiplexed over hot router connections, each session a
/// Route+Hello round trip, one windowed snapshot batch, and a Bye.
/// Panics unless the run is clean.
pub fn fleet_loopback(sessions: usize) -> mobicore_serve::FleetReport {
    let s0 = mobicore_serve::Server::bind("127.0.0.1:0", serve_cfg()).expect("bind s0");
    let s1 = mobicore_serve::Server::bind("127.0.0.1:0", serve_cfg()).expect("bind s1");
    let shards = vec![
        mobicore_serve::Shard {
            name: "s0".to_string(),
            addr: s0.local_addr().to_string(),
        },
        mobicore_serve::Shard {
            name: "s1".to_string(),
            addr: s1.local_addr().to_string(),
        },
    ];
    let router = mobicore_serve::Router::bind(
        "127.0.0.1:0",
        shards,
        mobicore_serve::RouterConfig::default()
            .with_workers(2)
            .with_drain_deadline(std::time::Duration::from_secs(3)),
    )
    .expect("bind router");
    let cfg = mobicore_serve::FleetConfig {
        sessions,
        per_conn: 250,
        drivers: 4,
        window: 8,
        record_secs: 1,
        snapshots_per_session: 2,
        seed: SEED,
        ..mobicore_serve::FleetConfig::default()
    };
    let report = mobicore_serve::run_fleet(&router.local_addr().to_string(), &cfg)
        .expect("fleet loopback runs");
    assert!(
        report.clean(),
        "bench fleet run must be loss-free and byte-identical: {report:?}"
    );
    router.shutdown();
    s0.shutdown();
    s1.shutdown();
    report
}

/// A bench-sized governor tournament: the thesis policy, the stock
/// Android baseline, and the online learner over three catalog
/// scenarios × three seeds. Small enough to run in about a second,
/// big enough that `runs_per_s` exercises the real cell fan-out (and
/// the energy ratios are byte-deterministic, so the learned-vs-baseline
/// gap doubles as a quality trend line, not just a speed one).
pub fn tournament_bench() -> mobicore_tournament::TournamentOutput {
    let spec = mobicore_tournament::TournamentSpec {
        name: "bench".to_string(),
        policies: vec![
            "mobicore".to_string(),
            "android-default".to_string(),
            "learned".to_string(),
        ],
        scenarios: vec![
            "steady-video".to_string(),
            "mixed-day-mini".to_string(),
            "idle-day".to_string(),
        ],
        seeds: (SEED..SEED + 3).collect(),
        secs: 20,
    };
    mobicore_tournament::run(&spec)
}

/// The repository root, where the committed `BENCH_NN.json` live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// This host's logical CPU count, recorded as `bench.host_cpus`.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The newest committed `BENCH_NN.json` manifest under `root`.
pub fn latest_committed_manifest(root: &Path) -> Option<(PathBuf, RunManifest)> {
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(root)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    candidates.sort();
    // Names are BENCH_NN.json, so lexicographic max == newest.
    let newest = candidates.pop()?;
    let text = std::fs::read_to_string(&newest).ok()?;
    let m = RunManifest::from_json_text(&text).ok()?;
    Some((newest, m))
}

/// The manifest `name` for a run written to `out`: the file stem,
/// lowercased, with `_` as `-` (`BENCH_09.json` → `bench-09`).
pub fn run_name(out: &Path) -> String {
    out.file_stem()
        .map(|s| s.to_string_lossy().to_lowercase().replace('_', "-"))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_name_follows_the_file_stem() {
        assert_eq!(run_name(Path::new("BENCH_09.json")), "bench-09");
        assert_eq!(run_name(Path::new("runs/BENCH_08.json")), "bench-08");
        assert_eq!(run_name(Path::new("fresh_run")), "fresh-run");
    }

    #[test]
    fn decision_path_names_are_unique() {
        let mut names: Vec<&str> = DECISION_PATH.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DECISION_PATH.len());
    }
}
