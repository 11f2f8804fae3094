//! Telemetry through the whole stack: real runs must emit the typed
//! events the docs promise, build well-formed manifests, and stay silent
//! when telemetry is disabled.

use mobicore::MobiCore;
use mobicore_governors::AndroidDefaultPolicy;
use mobicore_model::profiles;
use mobicore_sim::{CpuPolicy, SimConfig, Simulation};
use mobicore_telemetry::{events_from_jsonl, EventData, EventKind, RunManifest};
use mobicore_workloads::{BusyLoop, GameApp, GameProfile};

fn sim_with(policy: Box<dyn CpuPolicy>, secs: u64, seed: u64, telemetry: bool) -> Simulation {
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();
    let cfg = SimConfig::new(profile)
        .with_duration_secs(secs)
        .with_seed(seed)
        .without_mpdecision()
        .with_telemetry(telemetry);
    let mut sim = Simulation::new(cfg, policy).expect("valid config");
    sim.add_workload(Box::new(BusyLoop::with_target_util(4, 0.3, f_max, 2)));
    sim
}

#[test]
fn mobicore_run_emits_decision_and_actuation_events() {
    let profile = profiles::nexus5();
    let mut sim = sim_with(Box::new(MobiCore::new(&profile)), 10, 7, true);
    sim.run();
    let t = sim.telemetry();
    assert!(t.is_enabled());
    // One policy-decision per sampling period (with the decision inputs).
    let decisions: Vec<_> = t.events_of(EventKind::PolicyDecision).collect();
    assert!(!decisions.is_empty(), "no policy decisions recorded");
    for d in &decisions {
        let EventData::PolicyDecision {
            policy,
            mode,
            quota,
            ..
        } = &d.data
        else {
            panic!("wrong payload kind");
        };
        assert_eq!(policy, "mobicore");
        assert!(
            ["burst", "slow", "steady", "high-load"].contains(&mode.as_str()),
            "{mode}"
        );
        assert!((0.0..=1.0).contains(quota), "{quota}");
    }
    // The decisions actuate: frequency changes and quota moves happen.
    assert!(t.events_of(EventKind::FreqChange).count() > 0);
    assert!(
        t.events_of(EventKind::QuotaShrink).count() > 0,
        "a 30 % load MobiCore run should shrink the quota at least once"
    );
    // Counters track the loop.
    let ticks = t.metrics().counter("sim.ticks").expect("sim.ticks counted");
    assert_eq!(ticks, 10_000, "10 s at 1 ms ticks");
    assert!(t.metrics().counter("sim.samples").unwrap() > 0);
    assert!(t.metrics().histogram("power_mw").unwrap().count() == ticks);
    // Events are time-ordered.
    let times: Vec<u64> = t.events().iter().map(|e| e.t_us).collect();
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "events out of order"
    );
}

#[test]
fn android_default_run_notes_dvfs_and_hotplug_decisions() {
    let profile = profiles::nexus5();
    let mut sim = sim_with(Box::new(AndroidDefaultPolicy::new(&profile)), 10, 7, true);
    sim.run();
    let t = sim.telemetry();
    assert!(
        t.events_of(EventKind::DvfsDecision).count() > 0,
        "no dvfs notes"
    );
    let hp: Vec<_> = t.events_of(EventKind::HotplugDecision).collect();
    assert!(!hp.is_empty(), "no hotplug decisions on a bursty load");
    for e in hp {
        let EventData::HotplugDecision {
            online_now, want, ..
        } = &e.data
        else {
            panic!("wrong payload kind");
        };
        assert_ne!(online_now, want, "decision events fire only on change");
    }
    assert!(t.events_of(EventKind::CoreOffline).count() > 0);
}

#[test]
fn disabled_telemetry_records_nothing_and_changes_nothing() {
    let profile = profiles::nexus5();
    let mut on = sim_with(Box::new(MobiCore::new(&profile)), 5, 3, true);
    let mut off = sim_with(Box::new(MobiCore::new(&profile)), 5, 3, false);
    let r_on = on.run();
    let r_off = off.run();
    assert!(off.telemetry().events().is_empty());
    assert!(off.telemetry().metrics().counters().next().is_none());
    assert!(off.events_jsonl().is_empty());
    // Telemetry must be observation only: identical physics either way.
    assert_eq!(r_on.energy_mj, r_off.energy_mj);
    assert_eq!(r_on.executed_cycles, r_off.executed_cycles);
    assert_eq!(r_on.avg_online_cores, r_off.avg_online_cores);
}

#[test]
fn events_jsonl_round_trips_through_the_parser() {
    let profile = profiles::nexus5();
    let mut sim = sim_with(Box::new(MobiCore::new(&profile)), 5, 11, true);
    sim.run();
    let text = sim.events_jsonl();
    let parsed = events_from_jsonl(&text).expect("sim output parses");
    assert_eq!(parsed.len(), sim.telemetry().events().len());
    assert_eq!(parsed, sim.telemetry().events());
}

#[test]
fn manifest_captures_the_run_and_round_trips() {
    let profile = profiles::nexus5();
    let mut sim = sim_with(Box::new(MobiCore::new(&profile)), 5, 11, true);
    sim.run();
    let m = sim.manifest("integration-test");
    assert_eq!(m.kind, "simulation");
    assert_eq!(m.policy, "mobicore");
    assert_eq!(m.profile, "Nexus 5");
    assert_eq!(m.seed, 11);
    assert_eq!(m.duration_us, 5_000_000);
    assert_eq!(m.tags.get("cores").map(String::as_str), Some("4"));
    for metric in [
        "avg_power_mw",
        "energy_mj",
        "avg_quota",
        "sim.ticks",
        "power_mw.mean",
        "overall_util_pct.p50",
    ] {
        assert!(m.metrics.contains_key(metric), "missing metric {metric}");
    }
    assert!(
        m.event_counts.contains_key("policy-decision"),
        "{:?}",
        m.event_counts
    );
    let back = RunManifest::from_json_text(&m.to_json_text()).expect("parses");
    assert_eq!(back, m);
}

#[test]
fn different_seeds_produce_diffable_manifests() {
    let profile = profiles::nexus5();
    // A seeded-random game load so different seeds truly diverge.
    let mk = |seed: u64| {
        let cfg = SimConfig::new(profiles::nexus5())
            .with_duration_secs(5)
            .with_seed(seed)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(MobiCore::new(&profile))).expect("valid");
        sim.add_workload(Box::new(GameApp::new(GameProfile::subway_surf(), seed)));
        sim.run();
        sim.manifest("seed-sweep")
    };
    let a = mk(1);
    let b = mk(2);
    let d = a.diff(&b);
    assert!(
        d.changed().count() > 0,
        "different seeds must show metric deltas:\n{}",
        d.summary_text()
    );
    assert!(
        d.only_a.is_empty() && d.only_b.is_empty(),
        "same schema both sides"
    );
}
