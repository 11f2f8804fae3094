//! Simulation jobs built from the crates' public functions, the same
//! way `mobicore-tournament` and `mobicore_experiments::fleet` build
//! theirs, so the traced run can put timing wrappers around the policy
//! and workload layers and still produce identical simulated outputs.

use crate::measure::{digest, median, Metrics};
use crate::trace::{Ledger, SimLedger, Span, TimedPolicy, TimedWorkload, Tracer};
use mobicore_experiments::policy;
use mobicore_model::{profiles, DeviceProfile};
use mobicore_serve::protocol::{decode_frame, encode_frame, Frame};
use mobicore_sim::sysfs::PathTable;
use mobicore_sim::{CpuPolicy, FleetSim, SimConfig, SimReport, Simulation, Workload};
use mobicore_sweep::Executor;
use mobicore_telemetry::{Histogram, MetricSet};
use mobicore_workloads::scenario;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// How a batch of simulations is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers: the reference the traced run is compared with.
    Plain,
    /// Policy and workload wrapped in timers, spans recorded.
    Traced,
    /// No wrappers, `SimConfig::with_telemetry(false)`: the telemetry
    /// layer's share of a run is the difference from [`Mode::Plain`].
    NoTelemetry,
}

/// Shared immutable inputs of every simulation in a batch.
pub struct Device {
    /// The simulated device (Nexus 5, as in the thesis).
    pub profile: Arc<DeviceProfile>,
    /// Interned sysfs paths, shared by every simulation.
    pub paths: Arc<PathTable>,
}

impl Device {
    /// The Nexus 5 every workload simulates.
    pub fn nexus5() -> Device {
        let profile = Arc::new(profiles::nexus5());
        let paths = Arc::new(PathTable::new(profile.n_cores()));
        Device { profile, paths }
    }
}

/// One simulation's identity.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Policy wire name (`mobicore` or a governor registry name).
    pub policy: String,
    /// Scenario name from the catalog.
    pub scenario: String,
    /// Simulator and `learned` exploration seed.
    pub seed: u64,
    /// Simulated seconds.
    pub secs: u64,
}

/// Builds `run`'s simulation exactly as the tournament and fleet
/// harnesses do, with wrappers adding into `ledger` when given.
///
/// # Panics
///
/// On an unknown policy or scenario name (the workloads pin both).
pub fn build(dev: &Device, run: &RunSpec, telemetry: bool, ledger: Option<&Ledger>) -> Simulation {
    let cfg = SimConfig::new(Arc::clone(&dev.profile))
        .with_duration_secs(run.secs)
        .with_seed(run.seed)
        .without_mpdecision()
        .with_telemetry(telemetry);
    let p = policy::by_name(&run.policy, &dev.profile, run.seed).expect("pinned policy exists");
    let p: Box<dyn CpuPolicy> = match ledger {
        Some(l) => Box::new(TimedPolicy::new(p, Rc::clone(l))),
        None => p,
    };
    let mut sim = Simulation::with_paths(cfg, p, Arc::clone(&dev.paths)).expect("valid config");
    let day = scenario::by_name(&run.scenario, &dev.profile, run.seed).expect("pinned scenario");
    let w: Box<dyn Workload> = match ledger {
        Some(l) => Box::new(TimedWorkload::new(Box::new(day), Rc::clone(l))),
        None => Box::new(day),
    };
    sim.add_workload(w);
    sim
}

/// Builds a fresh [`Device`] and every simulation of `jobs`, as the
/// harnesses do before running them, and returns the seconds it took.
pub fn build_all(jobs: &[Vec<RunSpec>]) -> f64 {
    let t = Instant::now();
    let dev = Device::nexus5();
    for r in jobs.iter().flatten() {
        std::hint::black_box(build(&dev, r, true, None));
    }
    t.elapsed().as_secs_f64()
}

/// The `Send` summary of one finished simulation.
#[derive(Debug)]
pub struct RunOut {
    /// Digest of the `Debug`-rendered report: equal digests mean
    /// identical simulated outputs.
    pub report_digest: u64,
    /// Simulated energy, mJ.
    pub energy_mj: f64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Ticks of simulated time (`duration / tick`).
    pub ticks: u64,
    /// Engine iterations the run took (a full step or a quiet burst).
    pub iterations: u64,
    /// Wall time of the run itself, ns (shared by a fleet chunk's
    /// devices: set on the chunk's first device only).
    pub run_ns: u64,
    /// Policy name, for per-policy breakdowns.
    pub policy: String,
    /// What the wrappers measured (traced mode).
    pub ledger: Option<SimLedger>,
}

/// Summarises a finished simulation.
fn finish(sim: &Simulation, run: &RunSpec, run_ns: u64, iterations: u64) -> RunOut {
    let report: SimReport = sim.report();
    let cfg = sim.config();
    RunOut {
        report_digest: digest(format!("{report:?}").as_bytes()),
        energy_mj: report.energy_mj,
        sim_s: cfg.duration_us as f64 / 1e6,
        ticks: cfg.duration_us / cfg.tick_us,
        iterations,
        run_ns,
        policy: run.policy.clone(),
        ledger: None,
    }
}

/// What one sweep job (one tournament cell, or one fleet chunk) did.
#[derive(Debug, Default)]
pub struct JobOut {
    /// The job's simulations, in submission order.
    pub runs: Vec<RunOut>,
    /// Time merging the runs' metric sets, ns.
    pub merge_ns: u64,
    /// Time rendering one run's manifest as JSON, ns (traced only).
    pub manifest_ns: u64,
    /// Job span start and end, ns since the tracer's epoch.
    pub span: (u64, u64),
}

/// Runs `runs` back to back — the tournament's per-cell shape — or,
/// with `fleet`, multiplexed through one [`FleetSim`] as the fleet
/// harness does.
pub fn run_job(
    dev: &Device,
    runs: &[RunSpec],
    mode: Mode,
    fleet: bool,
    tracer: &Tracer,
    parent: u64,
) -> JobOut {
    let job_start = tracer.now_ns();
    let job_id = tracer.id();
    let mut spans: Vec<Span> = Vec::new();
    let traced = mode == Mode::Traced;
    let ledgers: Vec<Option<Ledger>> = runs
        .iter()
        .map(|_| traced.then(|| Rc::new(RefCell::new(SimLedger::default()))))
        .collect();
    let t = tracer.now_ns();
    let mut sims: Vec<Simulation> = runs
        .iter()
        .zip(&ledgers)
        .map(|(r, l)| build(dev, r, mode != Mode::NoTelemetry, l.as_ref()))
        .collect();
    if traced {
        spans.push(tracer.span("sim.build", job_id, 0, t));
    }
    let mut outs = Vec::with_capacity(runs.len());
    if fleet {
        let mut f = FleetSim::with_capacity(sims.len());
        for sim in sims {
            f.add_device(sim);
        }
        let t = tracer.now_ns();
        let wall = Instant::now();
        let mut iterations = 0u64;
        while f.advance_next().is_some() {
            iterations += 1;
        }
        let run_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if traced {
            spans.push(tracer.span("fleet.run", job_id, 0, t));
        }
        for (i, (sim, r)) in f.devices().iter().zip(runs).enumerate() {
            let first = i == 0;
            outs.push(finish(
                sim,
                r,
                if first { run_ns } else { 0 },
                if first { iterations } else { 0 },
            ));
        }
        sims = f.into_devices();
    } else {
        for (sim, r) in sims.iter_mut().zip(runs) {
            let t = tracer.now_ns();
            let wall = Instant::now();
            sim.run_until(sim.config().duration_us);
            let run_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if traced {
                spans.push(tracer.span("sim.run", job_id, 0, t));
            }
            let ticks = sim.config().duration_us / sim.config().tick_us;
            outs.push(finish(sim, r, run_ns, ticks));
        }
    }
    // The simulations still hold the wrappers; take the ledgers' contents.
    for (out, l) in outs.iter_mut().zip(&ledgers) {
        out.ledger = l.as_ref().map(|l| std::mem::take(&mut *l.borrow_mut()));
    }
    // The harnesses fold each job's metric sets into one; time it.
    let t = Instant::now();
    let mut merged = MetricSet::new();
    for sim in &sims {
        merged.merge(sim.telemetry().metrics());
    }
    std::hint::black_box(&merged);
    let merge_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut manifest_ns = 0;
    if traced {
        if let Some(sim) = sims.first() {
            let t = Instant::now();
            std::hint::black_box(sim.manifest("perfbench").to_json_text());
            manifest_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
    }
    let job_end = tracer.now_ns();
    if traced {
        spans.push(Span {
            name: "sweep.job",
            id: job_id,
            parent,
            req: 0,
            start_ns: job_start,
            end_ns: job_end,
        });
        tracer.extend(spans);
    }
    JobOut {
        runs: outs,
        merge_ns,
        manifest_ns,
        span: (job_start, job_end),
    }
}

/// Median encode and decode time per frame, ns, and mean wire bytes
/// per (snapshot, decision) pair, over `frames`. Medians, so a host stall
/// during one call does not move them.
///
/// # Panics
///
/// When a frame does not survive an encode–decode round trip.
pub fn codec_cost(frames: &[(Frame, Frame)]) -> (f64, f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut buf = Vec::with_capacity(4096);
    let mut bytes = 0usize;
    let mut encode_ns = Vec::new();
    let mut decode_ns = Vec::new();
    // Several passes, so a small sample still gives a steady median.
    let passes = (4096 / frames.len()).clamp(1, 64);
    for _ in 0..passes {
        for (snap, decision) in frames {
            for f in [snap, decision] {
                buf.clear();
                let t = Instant::now();
                encode_frame(f, &mut buf);
                encode_ns.push(t.elapsed().as_nanos() as f64);
                bytes += buf.len();
                let t = Instant::now();
                let decoded = decode_frame(&buf);
                decode_ns.push(t.elapsed().as_nanos() as f64);
                assert!(
                    matches!(decoded, Ok(Some((ref g, n))) if g == f && n == buf.len()),
                    "codec round trip changed a frame"
                );
            }
        }
    }
    let pairs = (passes * frames.len()) as f64;
    (median(&encode_ns), median(&decode_ns), bytes as f64 / pairs)
}

/// One batch: every job on the sweep executor, plus its wall time.
pub struct Batch {
    /// Wall time of the batch, ns.
    pub wall_ns: u64,
    /// Per-job results, in submission order.
    pub jobs: Vec<JobOut>,
}

impl Batch {
    /// Runs every job of `jobs` on `exec`: one job per tournament cell
    /// or fleet chunk, as the harnesses split their work.
    pub fn run(
        exec: &Executor,
        dev: &Device,
        jobs: &[Vec<RunSpec>],
        mode: Mode,
        fleet: bool,
        tracer: &Tracer,
    ) -> Batch {
        let start = tracer.now_ns();
        let id = tracer.id();
        let wall = Instant::now();
        let out = exec.run_ordered(jobs.iter().collect(), |_, runs| {
            run_job(dev, runs, mode, fleet, tracer, id)
        });
        let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if mode == Mode::Traced {
            tracer.push(Span {
                name: "sweep.batch",
                id,
                parent: 0,
                req: 0,
                start_ns: start,
                end_ns: tracer.now_ns(),
            });
        }
        Batch { wall_ns, jobs: out }
    }

    /// Digests of every run's report, in submission order.
    pub fn digests(&self) -> Vec<u64> {
        self.runs().map(|r| r.report_digest).collect()
    }

    /// Every run, in submission order.
    pub fn runs(&self) -> impl Iterator<Item = &RunOut> {
        self.jobs.iter().flat_map(|j| &j.runs)
    }

    /// Simulated seconds per wall second.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        self.runs().map(|r| r.sim_s).sum::<f64>() / (self.wall_ns as f64 / 1e9)
    }

    /// Time the last job ran with no other job running, s.
    pub fn straggler_s(&self) -> f64 {
        let mut ends: Vec<u64> = self.jobs.iter().map(|j| j.span.1).collect();
        ends.sort_unstable();
        match ends.as_slice() {
            [.., a, b] => (b - a) as f64 / 1e9,
            _ => 0.0,
        }
    }
}

/// Per-layer numbers of the sim-based workloads, from alternating
/// plain, traced and telemetry-off batches.
#[derive(Debug, Default)]
pub struct SimLayers {
    plain_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    notel_wall: Vec<f64>,
    traced_rate: Vec<f64>,
    efficiency: Vec<f64>,
    straggler: Vec<f64>,
    merge_us: Vec<f64>,
    manifest_us: Vec<f64>,
    job_ns: u64,
    run_ns: u64,
    policy_ns: u64,
    tick_ns: u64,
    tick_calls: u64,
    ticks: u64,
    iterations: u64,
    sim_s: f64,
    policy_hist: BTreeMap<String, Histogram>,
    frames: Vec<(Frame, Frame)>,
    /// Plain vs traced batches whose simulated outputs differed.
    pub mismatched_batches: u64,
    /// Report digests of the first plain batch, in submission order.
    pub plain_digests: Vec<u64>,
    /// Rounds run (one batch of each kind per round).
    pub rounds: u64,
    /// Simulations per batch.
    pub runs_per_batch: u64,
}

impl SimLayers {
    /// Alternates plain, traced and telemetry-off batches of `jobs`
    /// until `deadline` (at least one round), checking that the traced
    /// batch's simulated outputs equal the plain batch's.
    pub fn measure(
        exec: &Executor,
        dev: &Device,
        jobs: &[Vec<RunSpec>],
        fleet: bool,
        tracer: &Tracer,
        deadline: Instant,
    ) -> SimLayers {
        let mut l = SimLayers::default();
        loop {
            let plain = Batch::run(exec, dev, jobs, Mode::Plain, fleet, tracer);
            let traced = Batch::run(exec, dev, jobs, Mode::Traced, fleet, tracer);
            let notel = Batch::run(exec, dev, jobs, Mode::NoTelemetry, fleet, tracer);
            if plain.digests() != traced.digests() {
                l.mismatched_batches += 1;
            }
            if l.plain_digests.is_empty() {
                l.plain_digests = plain.digests();
            }
            l.add(exec, &plain, &traced, &notel);
            if Instant::now() >= deadline {
                return l;
            }
        }
    }

    fn add(&mut self, exec: &Executor, plain: &Batch, traced: &Batch, notel: &Batch) {
        self.rounds += 1;
        self.runs_per_batch = traced.runs().count() as u64;
        self.plain_wall.push(plain.wall_ns as f64);
        self.traced_wall.push(traced.wall_ns as f64);
        self.notel_wall.push(notel.wall_ns as f64);
        self.traced_rate.push(traced.sim_s_per_wall_s());
        let jobs_ns: u64 = traced.jobs.iter().map(|j| j.span.1 - j.span.0).sum();
        self.job_ns += jobs_ns;
        let workers = exec.jobs().min(traced.jobs.len()).max(1);
        self.efficiency
            .push(jobs_ns as f64 / (traced.wall_ns as f64 * workers as f64));
        self.straggler.push(traced.straggler_s());
        self.merge_us
            .push(traced.jobs.iter().map(|j| j.merge_ns).sum::<u64>() as f64 / 1e3);
        let manifests: Vec<f64> = traced
            .jobs
            .iter()
            .map(|j| j.manifest_ns as f64 / 1e3)
            .collect();
        self.manifest_us.push(median(&manifests));
        for r in traced.runs() {
            self.run_ns += r.run_ns;
            self.ticks += r.ticks;
            self.iterations += r.iterations;
            self.sim_s += r.sim_s;
            if let Some(led) = &r.ledger {
                self.policy_ns += led.policy_ns;
                self.tick_ns += led.tick_ns;
                self.tick_calls += led.tick_calls;
                self.policy_hist
                    .entry(r.policy.clone())
                    .or_default()
                    .merge(&led.policy_hist);
                if self.rounds == 1 {
                    self.frames.extend(led.frames.iter().cloned());
                }
            }
        }
    }

    /// Share of the jobs' traced wall time that policy, workloads and
    /// the simulator's own work account for.
    pub fn accounted_frac(&self) -> f64 {
        let layers = self.policy_ns + self.tick_ns + self.sim_self_ns();
        layers as f64 / self.job_ns.max(1) as f64
    }

    fn sim_self_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.policy_ns + self.tick_ns)
    }

    /// Self time of each layer of the traced runs, ns: the wrapped
    /// policy and workload calls, and the simulator's own remainder.
    pub fn self_times_ns(&self) -> [(&'static str, u64); 3] {
        [
            ("policy", self.policy_ns),
            ("workloads", self.tick_ns),
            ("sim", self.sim_self_ns()),
        ]
    }

    /// Pushes the per-layer metrics every workload reports, then the
    /// per-policy breakdown into `named`.
    pub fn report(&self, metrics: &mut Metrics, named: &mut Metrics) {
        let all = Histogram::merged(self.policy_hist.values());
        let run_ns = self.run_ns.max(1) as f64;
        let codec = codec_cost(&self.frames);
        let layer = [
            ("trace.work_per_s", median(&self.traced_rate), "1/s"),
            (
                "trace.overhead_frac",
                median(&self.traced_wall) / median(&self.plain_wall) - 1.0,
                "frac",
            ),
            ("policy.on_sample_ns", all.quantile(0.5), "ns"),
            ("policy.on_sample_p99_ns", all.quantile(0.99), "ns"),
            ("policy.share", self.policy_ns as f64 / run_ns, "frac"),
            (
                "workloads.on_tick_ns",
                self.tick_ns as f64 / self.tick_calls.max(1) as f64,
                "ns",
            ),
            ("workloads.share", self.tick_ns as f64 / run_ns, "frac"),
            (
                "sim.self_ns_per_sim_s",
                self.sim_self_ns() as f64 / self.sim_s,
                "ns",
            ),
            (
                "sim.full_step_frac",
                self.tick_calls as f64 / self.ticks.max(1) as f64,
                "frac",
            ),
            (
                "sim.advance_ns",
                run_ns / self.iterations.max(1) as f64,
                "ns",
            ),
            (
                "sim.advances_per_sim_s",
                self.iterations as f64 / self.sim_s,
                "count",
            ),
            (
                "sim.telemetry_cost_frac",
                1.0 - median(&self.notel_wall) / median(&self.plain_wall),
                "frac",
            ),
            ("sweep.efficiency", median(&self.efficiency), "frac"),
            ("sweep.straggler_s", median(&self.straggler), "s"),
            ("telemetry.merge_us", median(&self.merge_us), "us"),
            (
                "telemetry.manifest_json_us",
                median(&self.manifest_us),
                "us",
            ),
            ("protocol.encode_ns", codec.0, "ns"),
            ("protocol.decode_ns", codec.1, "ns"),
            ("protocol.bytes_per_decision", codec.2, "B"),
        ];
        for (name, value, unit) in layer {
            metrics.push(name, value, unit);
        }
        for (p, h) in &self.policy_hist {
            named.push(format!("policy.on_sample_ns.{p}"), h.quantile(0.5), "ns");
            named.push(
                format!("policy.on_sample_p99_ns.{p}"),
                h.quantile(0.99),
                "ns",
            );
        }
        named.push("trace.accounted_frac", self.accounted_frac(), "frac");
        named.push("trace.rounds", self.rounds as f64, "count");
    }
}
