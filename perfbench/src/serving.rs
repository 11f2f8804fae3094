//! Pieces the two serving workloads share: the recorded input stream,
//! the in-process reference decisions every served decision must equal
//! byte for byte, open-loop pacing, and throughput slices.

use crate::measure::{us, Metrics};
use crate::sims::{codec_cost, Mode};
use crate::trace::{Ledger, SimLedger, TimedPolicy, TimedWorkload};
use mobicore_serve::protocol::{frame_bytes, Frame};
use mobicore_serve::{registry, RemoteDecision};
use mobicore_sim::builtin::{PinnedPolicy, RecordingPolicy, SnapshotRecorder};
use mobicore_sim::{CpuControl, CpuPolicy, PolicySnapshot, SimConfig, Simulation, Workload};
use mobicore_telemetry::RunManifest;
use mobicore_workloads::scenario;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The served policy: the paper's.
pub(crate) const POLICY: &str = "mobicore";
/// The served device profile.
pub(crate) const PROFILE: &str = "nexus5";
/// The scenario whose snapshots the clients replay.
pub(crate) const SCENARIO: &str = "mixed-day";

/// One recording of the client input stream, as
/// `mobicore_serve::record_snapshots` makes it, with what it cost.
pub struct Recording {
    /// The snapshots, in sampling order.
    pub snaps: Vec<PolicySnapshot>,
    /// Wall time of the simulation, ns.
    pub run_ns: u64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Ticks of simulated time.
    pub ticks: u64,
    /// Wrapper accounting (traced mode).
    pub ledger: SimLedger,
}

/// Records `secs` of [`SCENARIO`] under the pinned recording policy,
/// exactly as `record_snapshots` does, instrumented per `mode`.
///
/// # Errors
///
/// Unknown profile or scenario, or a rejected configuration.
pub fn record(seed: u64, secs: u64, mode: Mode) -> Result<Recording, String> {
    let device = registry::profile_by_name(PROFILE).ok_or("unknown profile")?;
    let workload = scenario::by_name(SCENARIO, &device, seed).ok_or("unknown scenario")?;
    let recorder = SnapshotRecorder::new();
    let pinned = Box::new(PinnedPolicy::new(device.n_cores(), device.opps().max_khz()));
    let policy = Box::new(RecordingPolicy::new(pinned, recorder.clone()));
    let ledger: Ledger = Rc::new(RefCell::new(SimLedger::default()));
    let traced = mode == Mode::Traced;
    let policy: Box<dyn CpuPolicy> = if traced {
        Box::new(TimedPolicy::new(policy, Rc::clone(&ledger)))
    } else {
        policy
    };
    let workload: Box<dyn Workload> = if traced {
        Box::new(TimedWorkload::new(Box::new(workload), Rc::clone(&ledger)))
    } else {
        Box::new(workload)
    };
    let cfg = SimConfig::new(device)
        .with_duration_secs(secs)
        .without_mpdecision()
        .with_telemetry(mode != Mode::NoTelemetry);
    let ticks = cfg.duration_us / cfg.tick_us;
    let mut sim = Simulation::new(cfg, policy).map_err(|e| e.to_string())?;
    sim.add_workload(workload);
    let t = Instant::now();
    sim.run_until(secs * 1_000_000);
    let run_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    drop(sim);
    let ledger = Rc::try_unwrap(ledger)
        .map(RefCell::into_inner)
        .unwrap_or_default();
    Ok(Recording {
        snaps: recorder.take(),
        run_ns,
        sim_s: secs as f64,
        ticks,
        ledger,
    })
}

/// Replays `snaps` through a fresh in-process [`POLICY`] and returns
/// each decision as wire bytes — the reference a served decision must
/// equal. With `ledger`, every `on_sample` call is timed.
pub fn reference(snaps: &[PolicySnapshot], ledger: Option<&Ledger>) -> Vec<Vec<u8>> {
    let device = registry::profile_by_name(PROFILE).expect("pinned profile exists");
    let p = registry::build_policy(POLICY, &device).expect("pinned policy exists");
    let mut p: Box<dyn CpuPolicy> = match ledger {
        Some(l) => Box::new(TimedPolicy::new(p, Rc::clone(l))),
        None => p,
    };
    let mut ctl = CpuControl::new();
    snaps
        .iter()
        .enumerate()
        .map(|(i, snap)| {
            p.on_sample(snap, &mut ctl);
            frame_bytes(&Frame::Decision {
                seq: i as u64,
                commands: ctl.take(),
                notes: ctl.take_notes(),
            })
        })
        .collect()
}

/// Whether a served decision equals its in-process reference.
pub fn matches(d: RemoteDecision, reference: &[u8]) -> bool {
    frame_bytes(&Frame::Decision {
        seq: d.seq,
        commands: d.commands,
        notes: d.notes,
    }) == reference
}

/// Sleeps until `t`. No spinning: on a small host a spinning load
/// thread takes the CPU the server needs; the sleep's overshoot counts
/// as generator lateness instead.
pub fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Completion rate in each whole `slice`-long window of a phase, from
/// `(seconds since phase start, completions)` records.
pub fn slice_rates(done: &[(f64, u64)], phase_s: f64, slice: f64) -> Vec<f64> {
    let n = ((phase_s / slice).floor() as usize).max(1);
    let mut counts = vec![0u64; n];
    for &(t, k) in done {
        let i = (t / slice) as usize;
        if i < n {
            counts[i] += k;
        }
    }
    counts.iter().map(|&c| c as f64 / slice).collect()
}

/// The sim-layer metrics of the recording that produced a serving
/// workload's inputs: records `secs` again plain, traced and without
/// telemetry. Returns whether the rebuilt recordings equal `snaps`, the
/// stream `record_snapshots` made.
///
/// # Errors
///
/// As [`record`].
pub fn recording_layers(
    seed: u64,
    secs: u64,
    snaps: &[PolicySnapshot],
    metrics: &mut Metrics,
) -> Result<bool, String> {
    let plain = record(seed, secs, Mode::Plain)?;
    let traced = record(seed, secs, Mode::Traced)?;
    let notel = record(seed, secs, Mode::NoTelemetry)?;
    let l = &traced.ledger;
    let run_ns = traced.run_ns.max(1) as f64;
    let self_ns = traced.run_ns.saturating_sub(l.policy_ns + l.tick_ns) as f64;
    let layer = [
        (
            "workloads.on_tick_ns",
            l.tick_ns as f64 / l.tick_calls.max(1) as f64,
            "ns",
        ),
        ("workloads.share", l.tick_ns as f64 / run_ns, "frac"),
        ("sim.self_ns_per_sim_s", self_ns / traced.sim_s, "ns"),
        (
            "sim.full_step_frac",
            l.tick_calls as f64 / traced.ticks.max(1) as f64,
            "frac",
        ),
        ("sim.advance_ns", run_ns / traced.ticks.max(1) as f64, "ns"),
        (
            "sim.advances_per_sim_s",
            traced.ticks as f64 / traced.sim_s,
            "count",
        ),
        (
            "sim.telemetry_cost_frac",
            1.0 - notel.run_ns as f64 / plain.run_ns.max(1) as f64,
            "frac",
        ),
    ];
    for (name, value, unit) in layer {
        metrics.push(name, value, unit);
    }
    Ok(plain.snaps == snaps && traced.snaps == snaps)
}

/// Times building a daemon's run manifest (its metric rollups, under
/// the telemetry lock) and rendering it as JSON, µs.
pub fn manifest_cost(build: impl FnOnce() -> RunManifest) -> (f64, f64) {
    let t = Instant::now();
    let m = build();
    let build_us = us(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(m.to_json_text());
    (build_us, us(t.elapsed()))
}

/// Protocol metrics over the workload's own (snapshot, decision) frames.
pub fn protocol_layers(snaps: &[PolicySnapshot], reference: &[Vec<u8>], metrics: &mut Metrics) {
    let frames: Vec<(Frame, Frame)> = snaps
        .iter()
        .zip(reference)
        .enumerate()
        .map(|(i, (snap, decision))| {
            let decision = mobicore_serve::protocol::decode_frame(decision)
                .ok()
                .flatten()
                .map(|(f, _)| f)
                .expect("reference decisions decode");
            (
                Frame::Snapshot {
                    seq: i as u64,
                    snap: snap.clone(),
                },
                decision,
            )
        })
        .collect();
    let (enc, dec, bytes) = codec_cost(&frames);
    metrics.push("protocol.encode_ns", enc, "ns");
    metrics.push("protocol.decode_ns", dec, "ns");
    metrics.push("protocol.bytes_per_decision", bytes, "B");
}
