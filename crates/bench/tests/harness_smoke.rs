//! Smoke test of the bench harness: every shared scenario runs at its
//! smallest size and reports finite, positive rates, so a broken
//! scenario fails here instead of in the next `bench-manifest` run.
//! Timing values are not checked; the opt-in `bench_gate` does that.

use mobicore_bench::{
    decision_path_ns, fleet_loopback, idle_throughput, latest_committed_manifest, repo_root,
    serve_loopback, sim_throughput, sweep_jobs_per_s, threads_throughput, DECISION_PATH,
};
use mobicore_sim::SimEngine;
use std::process::Command;

fn assert_rate(what: &str, rate: f64) {
    assert!(
        rate.is_finite() && rate > 0.0,
        "{what} must be a finite positive rate, got {rate}"
    );
}

#[test]
fn every_scenario_reports_a_positive_rate() {
    let decisions = decision_path_ns(1, 8);
    assert_eq!(decisions.len(), DECISION_PATH.len());
    for (name, ns) in decisions {
        assert_rate(name, ns);
    }

    let (sim_rate, sim) = sim_throughput(1);
    assert_rate("sim_throughput", sim_rate);
    assert!(sim.manifest("smoke").metrics.contains_key("sim.ticks"));
    assert_rate("threads_throughput", threads_throughput(4, 1, 1));
    assert_rate(
        "idle_throughput",
        idle_throughput(SimEngine::EventDriven, 1),
    );
    assert_rate("sweep_jobs_per_s", sweep_jobs_per_s(2, 1, 1));

    let serve = serve_loopback(4);
    assert!(serve.clean(), "{serve:?}");
    assert_eq!(serve.sessions, 4);
    assert_rate("serve decisions_per_s", serve.decisions_per_s);

    let fleet = fleet_loopback(8);
    assert!(fleet.clean(), "{fleet:?}");
    assert_eq!(fleet.sessions, 8);
    assert_rate("fleet decisions_per_s", fleet.decisions_per_s);

    let (_, baseline) = latest_committed_manifest(&repo_root()).expect("a committed BENCH_NN.json");
    assert!(baseline.metrics.contains_key("bench.host_cpus"));
}

#[test]
fn bench_manifest_without_an_output_path_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("bench-manifest-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bench-manifest"))
        .current_dir(&dir)
        .output()
        .expect("bench-manifest runs");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read scratch dir").collect();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: bench-manifest"));
    assert!(written.is_empty(), "wrote {written:?}");
}
