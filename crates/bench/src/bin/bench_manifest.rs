//! Runs every scenario of the `mobicore-bench` harness and writes a
//! `kind = "bench"` run manifest (`BENCH_NN.json`), so the perf
//! trajectory between changes is a `mobicore-inspect diff` away.
//!
//! The output path is required; the manifest is named after its file
//! stem (`BENCH_09.json` → `bench-09`):
//!
//! ```text
//! cargo run --release -p mobicore-bench --bin bench-manifest -- BENCH_NN.json
//! ```

use mobicore_bench::{
    decision_path_ns, fleet_loopback, host_cpus, idle_throughput, latest_committed_manifest,
    repo_root, run_name, serve_loopback, sim_throughput, sweep_jobs_per_s, threads_throughput,
    tournament_bench,
};
use mobicore_experiments::fleet;
use mobicore_sim::SimEngine;
use mobicore_telemetry::git_describe;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, out] = args.as_slice() else {
        eprintln!("usage: bench-manifest <BENCH_NN.json>");
        std::process::exit(2);
    };
    const ROUNDS: usize = 7;
    const ITERS: u32 = 10_000;

    eprintln!("timing per-sample decision paths ({ROUNDS} rounds x {ITERS} iters)...");
    let decision_ns: Vec<(String, f64)> = decision_path_ns(ROUNDS, ITERS)
        .into_iter()
        .map(|(name, ns)| (format!("bench.{name}_ns"), ns))
        .collect();

    eprintln!("measuring simulator throughput...");
    let wall = Instant::now();
    let (sim_s_per_wall_s, sim) = sim_throughput(10);

    eprintln!("measuring simulator scaling with thread count...");
    let by_threads: Vec<(String, f64)> = [1, 4, 16, 64]
        .into_iter()
        .map(|n| {
            let rate = threads_throughput(n, 10, 5);
            (format!("bench.sim_s_per_wall_s_threads_{n}"), rate)
        })
        .collect();

    eprintln!("measuring idle-day throughput (cyclic vs event-driven)...");
    let idle_cyclic = idle_throughput(SimEngine::Cyclic, 5);
    let idle_event = idle_throughput(SimEngine::EventDriven, 5);
    eprintln!(
        "idle-day: {idle_cyclic:.0} sim-s/wall-s cyclic vs {idle_event:.0} \
         event-driven (×{:.2})",
        idle_event / idle_cyclic
    );

    eprintln!("measuring sweep throughput (--jobs 1 vs --jobs 4)...");
    let sweep_j1 = sweep_jobs_per_s(1, 5, 3);
    let sweep_j4 = sweep_jobs_per_s(4, 5, 3);
    let speedup = sweep_j4 / sweep_j1;
    let host_cpus = host_cpus();
    eprintln!(
        "sweep: {sweep_j1:.2} jobs/s (j1) vs {sweep_j4:.2} jobs/s (j4), \
         speedup ×{speedup:.2} on {host_cpus} host cpu(s)"
    );

    eprintln!("measuring serve loopback throughput (128 sessions)...");
    let serve = serve_loopback(128);
    eprintln!(
        "serve: {:.0} decisions/s, rtt p50 {:.0} us / p99 {:.0} us / p999 {:.0} us",
        serve.decisions_per_s,
        serve.rtt_us.quantile(0.50),
        serve.rtt_us.quantile(0.99),
        serve.rtt_us.quantile(0.999),
    );

    eprintln!("measuring fleet throughput (router + 2 shards, 100k sessions)...");
    let fleet = fleet_loopback(100_000);
    eprintln!(
        "fleet: {} sessions over {} shard(s), {:.0} decisions/s, rtt p99 {:.0} us",
        fleet.sessions,
        fleet.shard_sessions.len(),
        fleet.decisions_per_s,
        fleet.rtt_us.quantile(0.99),
    );

    eprintln!("measuring fleetsim multiplexed vs independent throughput (1000 devices)...");
    let fleet_spec = |mode: fleet::Mode| fleet::FleetSpec {
        devices: 1000,
        secs: 10,
        mode,
        ..fleet::FleetSpec::default()
    };
    let multiplexed = fleet::run(&fleet_spec(fleet::Mode::Fleet));
    let independent = fleet::run(&fleet_spec(fleet::Mode::Independent));
    let fleetsim_speedup = multiplexed.device_s_per_wall_s / independent.device_s_per_wall_s;
    eprintln!(
        "fleetsim: {:.0} device-s/wall-s multiplexed vs {:.0} independent \
         (×{fleetsim_speedup:.2}) over {} chunks",
        multiplexed.device_s_per_wall_s, independent.device_s_per_wall_s, multiplexed.chunks,
    );

    eprintln!("measuring tournament throughput (3 policies x 3 scenarios x 3 seeds)...");
    let tournament = tournament_bench();
    let energy = |p: &str| {
        tournament
            .leaderboard
            .entries
            .iter()
            .find(|e| e.policy == p)
            .map(|e| e.overall.energy_mj)
            .expect("policy raced in the bench tournament")
    };
    let learned_over_mobicore = energy("learned") / energy("mobicore");
    let learned_over_default = energy("learned") / energy("android-default");
    eprintln!(
        "tournament: {} runs at {:.1} runs/s; learned energy x{learned_over_mobicore:.3} \
         of mobicore, x{learned_over_default:.3} of android-default",
        tournament.runs, tournament.runs_per_s,
    );

    let mut m = sim.manifest(&run_name(Path::new(out)));
    m.kind = "bench".to_string();
    m.git = git_describe(Path::new("."));
    m.created_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .ok()
        .and_then(|d| u64::try_from(d.as_millis()).ok());
    m.wall_ms = Some(wall.elapsed().as_secs_f64() * 1e3);
    #[allow(clippy::cast_precision_loss)]
    let metrics = [
        ("bench.sim_s_per_wall_s", sim_s_per_wall_s),
        ("bench.sim_s_per_wall_s_idle_cyclic", idle_cyclic),
        ("bench.sim_s_per_wall_s_event", idle_event),
        // The headline sweep metric is the --jobs 4 figure-suite rate; j1
        // and the ratio are recorded alongside so the trajectory stays
        // readable on hosts with different core counts (see
        // docs/performance.md).
        ("bench.sweep_jobs_per_s", sweep_j4),
        ("bench.sweep_jobs_per_s_j1", sweep_j1),
        ("bench.sweep_speedup_j4_over_j1", speedup),
        ("bench.host_cpus", host_cpus as f64),
        ("serve.decisions_per_s", serve.decisions_per_s),
        ("serve.rtt_p50_us", serve.rtt_us.quantile(0.50)),
        ("serve.rtt_p99_us", serve.rtt_us.quantile(0.99)),
        ("serve.rtt_p999_us", serve.rtt_us.quantile(0.999)),
        ("serve.sessions", serve.sessions as f64),
        ("fleet.sessions", fleet.sessions as f64),
        ("fleet.decisions_per_s", fleet.decisions_per_s),
        ("fleet.rtt_p99_us", fleet.rtt_us.quantile(0.99)),
        ("bench.fleetsim_devices", 1000.0),
        (
            "bench.fleetsim_device_s_per_wall_s",
            multiplexed.device_s_per_wall_s,
        ),
        (
            "bench.fleetsim_independent_device_s_per_wall_s",
            independent.device_s_per_wall_s,
        ),
        ("bench.fleetsim_speedup_over_independent", fleetsim_speedup),
        ("bench.tournament_runs_per_s", tournament.runs_per_s),
        ("bench.tournament_runs", tournament.runs as f64),
        // Energy ratios are deterministic given (spec, seed): they move
        // only when a policy's decisions change, making them a quality
        // trend line that is immune to host swaps (unlike the throughput
        // metrics).
        (
            "bench.tournament_learned_over_mobicore_energy",
            learned_over_mobicore,
        ),
        (
            "bench.tournament_learned_over_default_energy",
            learned_over_default,
        ),
    ];
    m.metrics
        .extend(metrics.into_iter().map(|(k, v)| (k.to_string(), v)));
    m.metrics.extend(decision_ns);
    m.metrics.extend(by_threads);
    m.metrics.extend(
        fleet
            .shard_rtt_us
            .iter()
            .map(|(name, hist)| (format!("fleet.rtt_p99_us.{name}"), hist.quantile(0.99))),
    );
    #[allow(clippy::cast_precision_loss)]
    m.metrics.extend(
        fleet
            .shard_sessions
            .iter()
            .map(|(name, sessions)| (format!("fleet.sessions.{name}"), *sessions as f64)),
    );
    if host_cpus == 1 {
        // A single-CPU host cannot show parallel speedup; the ratio is
        // still recorded for the trend line, but this tag tells readers
        // (and the bench gate) that it is not a meaningful signal here.
        m.tags
            .insert("sweep_speedup".into(), "skipped-single-cpu".into());
        eprintln!("sweep speedup tagged skipped-single-cpu (host has 1 cpu)");
    }
    if let Some(prev) = latest_committed_manifest(&repo_root())
        .and_then(|(_, baseline)| baseline.metrics.get("bench.host_cpus").copied())
    {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let prev = prev.round() as usize;
        if prev != host_cpus {
            // The host changed under the trend line: absolute throughput
            // against the previous baseline measures the hardware swap,
            // not the code. The bench gate skips on this condition; the
            // tag records it for readers of the committed manifest.
            m.tags.insert(
                "bench_gate".into(),
                format!("skipped-host-mismatch-{prev}-to-{host_cpus}-cpus"),
            );
            eprintln!(
                "host changed since the last committed baseline \
                 ({prev} → {host_cpus} cpus); tagged bench_gate=skipped-host-mismatch"
            );
        }
    }

    match std::fs::write(out, m.to_json_text()) {
        Ok(()) => {
            eprintln!("wrote {out}");
            println!("{}", m.summary_text());
        }
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
