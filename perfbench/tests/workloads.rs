//! Every workload at a tiny size: each reports every metric
//! `BENCHMARK.json` declares, with its unit, and passes its own output
//! checks; the traced layers add up.

use mobicore_perfbench::sims::{build, Batch, Device, Mode, RunSpec, SimLayers};
use mobicore_perfbench::trace::{SimLedger, Tracer};
use mobicore_perfbench::{run, sim_busy, Opts, Size, END_TO_END, PER_LAYER, WORKLOADS};
use mobicore_sweep::Executor;
use mobicore_telemetry::Json;
use std::cell::RefCell;
use std::process::Command;
use std::rc::Rc;
use std::time::{Duration, Instant};

fn tiny(seed: u64, trace: bool) -> Opts {
    Opts {
        seed,
        measure: Duration::from_millis(300),
        trace,
        size: Size::Tiny,
        jobs: 2,
    }
}

fn assert_reports(workload: &str, trace: bool, expected: &[(&str, &str)]) {
    let out = run(workload, &tiny(3, trace)).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(out.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(out.failed, 0, "{workload}: {:?}", out.problems);
    assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
    let got: Vec<(&str, &str)> = out
        .metrics
        .0
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    let mut got_sorted = got.clone();
    let mut want = expected.to_vec();
    got_sorted.sort_unstable();
    want.sort_unstable();
    assert_eq!(got_sorted, want, "{workload} (trace {trace}) metric set");
    for m in &out.metrics.0 {
        assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
    }
    assert!(!out.named.0.is_empty(), "{workload}: no named metrics");
    assert!(
        out.info.contains_key("pinned"),
        "{workload}: pinned settings missing"
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        assert_reports(w, false, &END_TO_END);
    }
}

#[test]
fn every_traced_workload_reports_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_reports(w, true, &PER_LAYER);
    }
}

#[test]
fn named_metrics_of_each_workload_are_present() {
    let want: [(&str, &[&str]); 4] = [
        (
            "sim-busy",
            &["sim_s_per_wall_s", "energy_ratio_mobicore_vs_default"],
        ),
        ("fleet-idle", &["device_s_per_wall_s", "peak_rss_mb"]),
        (
            "serve-stream",
            &[
                "decisions_per_s",
                "max_rate_at_slo",
                "decide_p50_us",
                "decide_p99_us",
            ],
        ),
        (
            "router-churn",
            &[
                "sessions_per_s",
                "session_setup_p99_us",
                "decide_p50_us",
                "decide_p99_us",
            ],
        ),
    ];
    for (w, names) in want {
        let out = run(w, &tiny(5, false)).expect("runs");
        for n in names {
            assert!(out.named.get(n).is_some(), "{w}: {n} missing");
        }
    }
}

#[test]
fn sim_busy_self_times_sum_to_the_traced_run_time() {
    let opts = tiny(4, true);
    let spec = sim_busy::spec(&opts);
    let jobs = sim_busy::cells(&spec);
    let tracer = Tracer::default();
    let layers = SimLayers::measure(
        &Executor::new(2),
        &Device::nexus5(),
        &jobs,
        false,
        &tracer,
        Instant::now(),
    );
    assert_eq!(layers.mismatched_batches, 0);
    let parts: u64 = layers.self_times_ns().iter().map(|&(_, ns)| ns).sum();
    // The `sim.run` spans time the same runs independently.
    let spans = tracer.total_ns("sim.run") as f64;
    let ratio = parts as f64 / spans;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "policy + workloads + sim self = {parts} ns, sim.run spans = {spans} ns"
    );
    for (layer, ns) in layers.self_times_ns() {
        assert!(ns > 0, "{layer} has no self time");
    }
}

#[test]
fn wrapped_workloads_keep_the_event_engine_skipping() {
    // A wrapper that dropped `next_tick_us` would pin the event engine
    // to every-tick stepping; the traced run must stay identical.
    let dev = Device::nexus5();
    let spec = RunSpec {
        policy: "mobicore".to_string(),
        scenario: "idle-day".to_string(),
        seed: 9,
        secs: 3,
    };
    let run_with = |ledger: Option<&Rc<RefCell<SimLedger>>>| {
        let mut fleet = mobicore_sim::FleetSim::new();
        fleet.add_device(build(&dev, &spec, true, ledger));
        fleet.run();
        format!("{:?}", fleet.device(0).report())
    };
    let ledger = Rc::new(RefCell::new(SimLedger::default()));
    assert_eq!(run_with(None), run_with(Some(&ledger)));
    let l = ledger.borrow();
    assert!(l.tick_calls > 0);
    assert!(
        l.tick_calls < 3_000 / 2,
        "{} of 3000 ticks were full steps",
        l.tick_calls
    );
}

#[test]
fn traced_and_plain_batches_simulate_identically() {
    let dev = Device::nexus5();
    let jobs = vec![vec![RunSpec {
        policy: "learned".to_string(),
        scenario: "gaming".to_string(),
        seed: 2,
        secs: 1,
    }]];
    let exec = Executor::new(1);
    let tracer = Tracer::default();
    let plain = Batch::run(&exec, &dev, &jobs, Mode::Plain, false, &tracer);
    let traced = Batch::run(&exec, &dev, &jobs, Mode::Traced, false, &tracer);
    assert_eq!(plain.digests(), traced.digests());
    assert!(tracer.total_ns("sim.run") > 0);
}

#[test]
fn benchmark_json_declares_what_the_workloads_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn cli_prints_the_result_last_and_rejects_bad_flags() {
    let bin = env!("CARGO_BIN_EXE_mobicore-perfbench");
    let bad = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
    let ok = Command::new(bin)
        .args([
            "--workload",
            "router-churn",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("runs");
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8(ok.stdout).expect("utf-8");
    let last = Json::parse(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: Vec<&str> = last
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
}
