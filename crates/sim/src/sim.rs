//! The simulation driver: wires cores, scheduler, bandwidth, thermal,
//! meter, sysfs and the policy into a discrete-time loop.

use crate::adb::{self, AdbCommand};
use crate::bandwidth::BandwidthController;
use crate::builtin::NoopPolicy;
use crate::config::{SimConfig, SimEngine, TraceLevel};
use crate::cores::CpuSet;
use crate::engine::{Wake, WakeClass, WakeId, WakeQueue};
use crate::error::SimError;
use crate::meter::PowerMeter;
use crate::policy::{Command, CoreSnapshot, CpuControl, CpuPolicy, PolicySnapshot};
use crate::report::SimReport;
use crate::sched::{schedule_tick_into, SchedScratch, TickOutcome, TickParams};
use crate::sysfs::{paths, CorePath, PathTable, SysFs};
use crate::thermal::ThermalModel;
use crate::trace::{Trace, TraceSample};
use crate::workload::{Workload, WorkloadRt};
use mobicore_model::{ClusterPowerCache, CoreActivity, Khz, PowerBreakdown, Quota, Utilization};
use mobicore_telemetry::{
    CounterSlot, EventData, GaugeSlot, HistogramSlot, MetricSet, RunManifest, Telemetry,
};
use std::sync::Arc;

/// Slots of the metrics the tick loop updates, resolved on first use —
/// a run too short to reach a sample creates no sample metrics, exactly
/// as name-keyed recording would. Updates by slot neither allocate nor
/// look up a name (docs/simulator.md).
#[derive(Debug, Default)]
struct HotMetrics {
    ticks: Option<CounterSlot>,
    samples: Option<CounterSlot>,
    commands: Option<CounterSlot>,
    power_mw: Option<HistogramSlot>,
    overall_util_pct: Option<HistogramSlot>,
    quota_pct: Option<HistogramSlot>,
    temp_c: Option<GaugeSlot>,
}

impl HotMetrics {
    /// `n` ticks at constant `power_mw`, ending at `temp_c`.
    fn ticks(&mut self, m: &mut MetricSet, n: u64, power_mw: f64, temp_c: f64) {
        let ticks = *self
            .ticks
            .get_or_insert_with(|| m.counter_slot("sim.ticks"));
        let power = *self
            .power_mw
            .get_or_insert_with(|| m.histogram_slot("power_mw"));
        let temp = *self.temp_c.get_or_insert_with(|| m.gauge_slot("temp_c"));
        m.inc_at(ticks, n);
        m.record_repeat_at(power, power_mw, n);
        m.set_gauge_at(temp, temp_c);
    }

    /// One policy sample's observation.
    fn sample(&mut self, m: &mut MetricSet, overall_util_pct: f64, quota_pct: f64) {
        let samples = *self
            .samples
            .get_or_insert_with(|| m.counter_slot("sim.samples"));
        let util = *self
            .overall_util_pct
            .get_or_insert_with(|| m.histogram_slot("overall_util_pct"));
        let quota = *self
            .quota_pct
            .get_or_insert_with(|| m.histogram_slot("quota_pct"));
        m.inc_at(samples, 1);
        m.record_at(util, overall_util_pct);
        m.record_at(quota, quota_pct);
    }

    /// The commands one policy sample issued.
    fn commands(&mut self, m: &mut MetricSet, n: u64) {
        let commands = *self
            .commands
            .get_or_insert_with(|| m.counter_slot("sim.commands"));
        m.inc_at(commands, n);
    }
}

/// Buffers the tick loop reuses across iterations so the steady state
/// performs no heap allocation (docs/performance.md; asserted by
/// `tests/alloc_free.rs`).
#[derive(Debug)]
struct TickScratch {
    /// Online core ids for the scheduler.
    online: Vec<usize>,
    /// Effective frequency per core.
    khz: Vec<Khz>,
    /// DVFS stall time per core this tick.
    stall_us: Vec<u64>,
    /// Power-model input.
    acts: Vec<CoreActivity>,
    /// Power-model output.
    breakdown: PowerBreakdown,
    /// Memoized cluster `powf` factor.
    power_cache: ClusterPowerCache,
    /// Scheduler assignment buffers.
    sched: SchedScratch,
    /// Scheduler outcome (busy vector reused).
    outcome: TickOutcome,
    /// Pending sysfs writes, swapped with the sysfs queue each tick.
    writes: Vec<(String, String)>,
    /// Effective OPP index per core, hoisted at quiet-burst entry (the
    /// event engine bills `time_in_state` at the pre-burst OPP, exactly
    /// as the cyclic loop does before each tick's thermal update lands).
    opps: Vec<usize>,
    /// Per-core window busy times drained at each sample.
    busy_window: Vec<u64>,
    /// Policy commands drained from the control buffer.
    cmds: Vec<Command>,
    /// The activity vector of the previous quiet burst, memo key for
    /// `quiet_power`.
    quiet_acts: Vec<CoreActivity>,
    /// Memoized per-tick energy increments and total power of the
    /// previous quiet burst, `(base_add, cluster_add, core_add,
    /// power_mw)`. The power model is a pure function of the activity
    /// vector, so when a burst's activities equal `quiet_acts` these are
    /// bitwise the values it would recompute.
    quiet_power: Option<(f64, f64, f64, f64)>,
}

impl TickScratch {
    fn new() -> Self {
        TickScratch {
            online: Vec::new(),
            khz: Vec::new(),
            stall_us: Vec::new(),
            acts: Vec::new(),
            breakdown: PowerBreakdown {
                base_mw: 0.0,
                cluster_mw: 0.0,
                core_mw: Vec::new(),
            },
            power_cache: ClusterPowerCache::default(),
            sched: SchedScratch::default(),
            outcome: TickOutcome {
                busy_us: Vec::new(),
                executed_cycles: 0,
                used_runtime_us: 0,
                denied_us: 0,
            },
            writes: Vec::new(),
            opps: Vec::new(),
            busy_window: Vec::new(),
            cmds: Vec::new(),
            quiet_acts: Vec::new(),
            quiet_power: None,
        }
    }
}

/// The event engine's registry: one [`WakeQueue`] entry per simulated
/// component, ids held so each loop iteration can re-declare wakes
/// without allocating. Registration order is fixed (and documented in
/// [`crate::engine`]): governor, hotplug, workloads, idle ladder,
/// thermal, meter, bandwidth — this is what makes the simultaneous-wake
/// tie-break deterministic.
#[derive(Debug)]
struct EventState {
    queue: WakeQueue,
    governor: WakeId,
    hotplug: WakeId,
    workloads: Vec<WakeId>,
    idle_ladder: WakeId,
    thermal: WakeId,
    meter: WakeId,
    bandwidth: WakeId,
}

impl EventState {
    fn new(n_workloads: usize) -> Self {
        let mut queue = WakeQueue::new();
        let governor = queue.register("governor", WakeClass::FullStep);
        let hotplug = queue.register("hotplug", WakeClass::FullStep);
        let workloads = (0..n_workloads)
            .map(|_| queue.register("workload", WakeClass::FullStep))
            .collect();
        let idle_ladder = queue.register("idle-ladder", WakeClass::FullStep);
        // Inline components run their per-tick float methods inside the
        // quiet fast path; their wakes are introspection-only and never
        // bound a burst (crate::engine module docs).
        let thermal = queue.register("thermal", WakeClass::Inline);
        let meter = queue.register("meter", WakeClass::Inline);
        let bandwidth = queue.register("bandwidth", WakeClass::Inline);
        EventState {
            queue,
            governor,
            hotplug,
            workloads,
            idle_ladder,
            thermal,
            meter,
            bandwidth,
        }
    }
}

/// One simulated device run.
///
/// ```
/// use mobicore_sim::{SimConfig, Simulation, builtin::PinnedPolicy};
/// use mobicore_model::{profiles, Khz};
///
/// let cfg = SimConfig::new(profiles::nexus5()).with_duration_us(500_000);
/// let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, Khz(960_000))))?;
/// let report = sim.run();
/// assert!(report.avg_power_mw > 0.0);
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
///
/// Every run records itself (docs/observability.md): telemetry is on by
/// default, the event stream exports as JSONL, and [`Simulation::manifest`]
/// summarizes the run for `mobicore-inspect`:
///
/// ```
/// use mobicore_sim::{SimConfig, Simulation, builtin::PinnedPolicy};
/// use mobicore_model::{profiles, Khz};
///
/// let cfg = SimConfig::new(profiles::nexus5()).with_duration_us(500_000);
/// let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(2, Khz(1_190_400))))?;
/// sim.run();
///
/// assert!(sim.telemetry().is_enabled());
/// let manifest = sim.manifest("doctest");
/// assert_eq!(manifest.profile, "Nexus 5");
/// assert!(manifest.metrics["sim.ticks"] > 0.0);
/// let events = sim.events_jsonl(); // one JSON object per line
/// assert!(events.lines().all(|l| l.contains("\"kind\"")));
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
pub struct Simulation {
    cfg: SimConfig,
    now_us: u64,
    cpus: CpuSet,
    bw: BandwidthController,
    thermal: ThermalModel,
    meter: PowerMeter,
    sysfs: SysFs,
    trace: Trace,
    rt: WorkloadRt,
    workloads: Vec<Box<dyn Workload>>,
    policy: Box<dyn CpuPolicy>,
    mpdecision_enabled: bool,
    started: bool,
    next_sample_us: u64,
    last_sample_us: u64,
    next_trace_us: u64,
    executed_cycles: u64,
    window_max_runnable: usize,
    /// Component energy attribution, mW·µs.
    base_energy: f64,
    cluster_energy: f64,
    core_energy: f64,
    /// Sysfs writes that parsed to nonsense (kernel would return EINVAL).
    pub invalid_sysfs_writes: u64,
    telemetry: Telemetry,
    /// Slots of the tick loop's metrics in `telemetry`.
    hot: HotMetrics,
    /// Thermal OPP cap after the previous tick, for throttle/clear edges.
    last_thermal_cap: usize,
    /// Whether the bandwidth pool denied runtime in the previous tick,
    /// for the edge-triggered `bw-throttle` event.
    bw_denied_last_tick: bool,
    /// Interned sysfs paths (built once; satellite of the tick fast
    /// path). Shared: a fleet of same-topology devices holds one table
    /// behind the `Arc` ([`Simulation::with_paths`]).
    paths: Arc<PathTable>,
    /// Reused per-tick buffers.
    scratch: TickScratch,
    /// Reused policy-sample observation.
    snap: PolicySnapshot,
    /// Reused policy command/note buffer.
    ctl: CpuControl,
    /// Whether the readable sysfs mirror lags the simulation state; reads
    /// refresh it on demand instead of re-formatting every trace period.
    sysfs_stale: bool,
    /// Most-recent `ceil_index` lookup (policies request the same target
    /// frequency for long stretches).
    ceil_cache: Option<(Khz, usize)>,
    /// Wake-time registry for the event-driven engine (built on the
    /// first event-driven `run_until`, `None` under the cyclic engine).
    event: Option<EventState>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("device", &self.cfg.profile.name())
            .field("policy", &self.policy.name())
            .field("now_us", &self.now_us)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation of `cfg.profile` driven by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] when the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, policy: Box<dyn CpuPolicy>) -> Result<Self, SimError> {
        let paths = Arc::new(PathTable::new(cfg.profile.n_cores()));
        Self::with_paths(cfg, policy, paths)
    }

    /// Like [`Simulation::new`], but sharing a pre-interned path table.
    ///
    /// [`crate::fleet::FleetSim`] builds thousands of same-topology
    /// devices; interning the ~10·n_cores sysfs path strings once per
    /// topology instead of once per device is part of what makes a
    /// multiplexed fleet cheaper than independent runs
    /// (docs/performance.md).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when the config fails
    /// [`SimConfig::validate`] or `paths` was interned for a different
    /// core count than `cfg.profile` has.
    pub fn with_paths(
        cfg: SimConfig,
        policy: Box<dyn CpuPolicy>,
        path_table: Arc<PathTable>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if path_table.len() != cfg.profile.n_cores() {
            return Err(SimError::BadConfig {
                reason: format!(
                    "path table interned for {} cores, profile has {}",
                    path_table.len(),
                    cfg.profile.n_cores()
                ),
            });
        }
        let profile = &cfg.profile;
        let cpus = CpuSet::new(profile);
        let bw = BandwidthController::new(cfg.bandwidth_period_us, profile.n_cores());
        let thermal = ThermalModel::new(
            *profile.thermal(),
            profile.opps().max_index(),
            cfg.thermal_poll_us,
        );
        let mut meter = PowerMeter::new(cfg.trace_period_us);
        meter.reserve_for_duration(cfg.duration_us);
        let mut sysfs = SysFs::new();
        let freq_list: Vec<String> = profile.opps().iter().map(|o| o.khz.0.to_string()).collect();
        for i in 0..profile.n_cores() {
            let core_paths = path_table.core(i);
            sysfs.register_rw(core_paths.online.clone(), "1");
            sysfs.register_ro(
                core_paths.scaling_cur_freq.clone(),
                profile.opps().min_khz().0.to_string(),
            );
            sysfs.register_rw(
                core_paths.scaling_setspeed.clone(),
                profile.opps().min_khz().0.to_string(),
            );
            sysfs.register_rw(core_paths.scaling_governor.clone(), "ondemand");
            sysfs.register_rw(
                core_paths.scaling_min_freq.clone(),
                profile.opps().min_khz().0.to_string(),
            );
            sysfs.register_rw(
                core_paths.scaling_max_freq.clone(),
                profile.opps().max_khz().0.to_string(),
            );
            sysfs.register_ro(
                core_paths.cpuinfo_min_freq.clone(),
                profile.opps().min_khz().0.to_string(),
            );
            sysfs.register_ro(
                core_paths.cpuinfo_max_freq.clone(),
                profile.opps().max_khz().0.to_string(),
            );
            sysfs.register_ro(
                core_paths.scaling_available_frequencies.clone(),
                freq_list.join(" "),
            );
            sysfs.register_ro(core_paths.time_in_state.clone(), "");
        }
        sysfs.register_ro(paths::THERMAL_TEMP, "25000");
        sysfs.register_rw(
            paths::CFS_QUOTA,
            (cfg.bandwidth_period_us * profile.n_cores() as u64).to_string(),
        );
        sysfs.register_ro(paths::CFS_PERIOD, cfg.bandwidth_period_us.to_string());
        sysfs.register_rw(
            paths::MPDECISION,
            if cfg.mpdecision_enabled { "1" } else { "0" },
        );
        let sampling = policy.sampling_period_us().max(cfg.tick_us);
        let telemetry = if cfg.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let last_thermal_cap = cfg.profile.opps().max_index();
        Ok(Simulation {
            mpdecision_enabled: cfg.mpdecision_enabled,
            cfg,
            now_us: 0,
            cpus,
            bw,
            thermal,
            meter,
            sysfs,
            trace: Trace::new(),
            rt: WorkloadRt::new(),
            workloads: Vec::new(),
            policy,
            started: false,
            next_sample_us: sampling,
            last_sample_us: 0,
            next_trace_us: 0,
            executed_cycles: 0,
            window_max_runnable: 0,
            base_energy: 0.0,
            cluster_energy: 0.0,
            core_energy: 0.0,
            invalid_sysfs_writes: 0,
            telemetry,
            hot: HotMetrics::default(),
            last_thermal_cap,
            bw_denied_last_tick: false,
            paths: path_table,
            scratch: TickScratch::new(),
            snap: PolicySnapshot {
                now_us: 0,
                window_us: 0,
                cores: Vec::new(),
                overall_util: Utilization::IDLE,
                quota: Quota::FULL,
                mpdecision_enabled: false,
                max_runnable_threads: 0,
                temp_c: 0.0,
            },
            ctl: CpuControl::new(),
            sysfs_stale: false,
            ceil_cache: None,
            event: None,
        })
    }

    /// A simulation with no policy at all (cores stay at boot state).
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::new`].
    pub fn without_policy(cfg: SimConfig) -> Result<Self, SimError> {
        Self::new(cfg, Box::new(NoopPolicy::new()))
    }

    /// Adds a workload. Must be called before the first [`Simulation::step`].
    pub fn add_workload(&mut self, w: Box<dyn Workload>) -> &mut Self {
        assert!(
            !self.started,
            "workloads must be added before the run starts"
        );
        self.workloads.push(w);
        self
    }

    /// Current simulation time, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The device being simulated.
    pub fn profile(&self) -> &mobicore_model::DeviceProfile {
        &self.cfg.profile
    }

    /// The configuration the run was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of online cores right now.
    pub fn online_count(&self) -> usize {
        self.cpus.online_count()
    }

    /// Package temperature right now, °C.
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Current bandwidth quota.
    pub fn quota(&self) -> Quota {
        self.bw.quota()
    }

    /// Whether `mpdecision` currently vetoes off-lining.
    pub fn mpdecision_enabled(&self) -> bool {
        self.mpdecision_enabled
    }

    /// Direct sysfs read (like `adb shell cat`).
    ///
    /// The readable mirror is refreshed lazily: the tick loop only marks
    /// it stale and the actual value formatting happens here, on demand,
    /// keeping `cat`-visible state exact without per-trace-period string
    /// work in the hot loop.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchAttribute`] for unknown paths.
    pub fn sysfs_read(&mut self, path: &str) -> Result<String, SimError> {
        if self.sysfs_stale {
            self.refresh_sysfs();
            self.sysfs_stale = false;
        }
        self.sysfs.read(path).map(str::to_string)
    }

    /// Direct sysfs write (takes effect next tick).
    ///
    /// # Errors
    ///
    /// See [`SysFs::write`].
    pub fn sysfs_write(&mut self, path: &str, value: &str) -> Result<(), SimError> {
        self.sysfs.write(path, value)
    }

    /// Executes an `adb shell`-style command line.
    ///
    /// # Errors
    ///
    /// [`SimError::BadShellCommand`] for unparsable lines plus any sysfs
    /// error the command runs into.
    pub fn adb(&mut self, line: &str) -> Result<String, SimError> {
        match adb::parse(line)? {
            AdbCommand::Cat { path } => self.sysfs_read(&path),
            AdbCommand::Echo { value, path } => {
                self.sysfs_write(&path, &value)?;
                Ok(String::new())
            }
            AdbCommand::Ls { prefix } => Ok(self
                .sysfs
                .list(&prefix)
                .into_iter()
                .map(str::to_string)
                .collect::<Vec<_>>()
                .join("\n")),
            AdbCommand::StopMpdecision => {
                self.mpdecision_enabled = false;
                self.sysfs.refresh(paths::MPDECISION, "0");
                Ok(String::new())
            }
            AdbCommand::StartMpdecision => {
                self.mpdecision_enabled = true;
                self.sysfs.refresh(paths::MPDECISION, "1");
                Ok(String::new())
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for w in &mut self.workloads {
            w.on_start(&mut self.rt);
        }
    }

    /// Requests `idx` on `core`, emitting a `freq-change` event when the
    /// (OPP-snapped) target actually moves.
    fn request_opp_traced(&mut self, core: usize, idx: usize, requested: Khz) {
        let opps = self.cfg.profile.opps();
        let old = self.cpus.core(core).target_opp;
        if idx != old {
            self.telemetry.emit(
                self.now_us,
                EventData::FreqChange {
                    core,
                    from_khz: opps.get_clamped(old).khz.0,
                    to_khz: opps.get_clamped(idx).khz.0,
                    requested_khz: requested.0,
                },
            );
        }
        self.cpus
            .request_opp(core, idx, self.now_us, self.cfg.profile.dvfs_latency_us());
    }

    /// [`OppTable::ceil_index`](mobicore_model::OppTable::ceil_index) with
    /// a most-recently-used memo: policies hold one target frequency for
    /// many consecutive samples, so the binary search almost always
    /// repeats the previous lookup.
    fn ceil_index_cached(&mut self, khz: Khz) -> usize {
        match self.ceil_cache {
            Some((cached_khz, idx)) if cached_khz == khz => idx,
            _ => {
                let idx = self.cfg.profile.opps().ceil_index(khz);
                self.ceil_cache = Some((khz, idx));
                idx
            }
        }
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::SetFreq { core, khz } => {
                if core < self.cpus.len() {
                    let idx = self.ceil_index_cached(khz);
                    self.request_opp_traced(core, idx, khz);
                }
            }
            Command::SetFreqAll { khz } => {
                let idx = self.ceil_index_cached(khz);
                for i in 0..self.cpus.len() {
                    self.request_opp_traced(i, idx, khz);
                }
            }
            Command::SetOnline { core, online } => {
                if core >= self.cpus.len() {
                    return;
                }
                if !online && (core == 0 || self.mpdecision_enabled) {
                    self.cpus.rejected_offline_requests += 1;
                    self.telemetry.emit(
                        self.now_us,
                        EventData::HotplugVetoed {
                            core,
                            // Core 0 is unpluggable regardless; anything
                            // else got here because mpdecision is running.
                            mpdecision: core != 0,
                        },
                    );
                    return;
                }
                if online != self.cpus.core(core).online {
                    self.telemetry.emit(
                        self.now_us,
                        if online {
                            EventData::CoreOnline { core }
                        } else {
                            EventData::CoreOffline { core }
                        },
                    );
                }
                self.cpus.request_online(
                    core,
                    online,
                    self.now_us,
                    self.cfg.profile.hotplug_on_latency_us(),
                );
            }
            Command::SetQuota(q) => {
                let old = self.bw.quota().as_fraction();
                self.bw.set_quota(q, self.now_us);
                let new = self.bw.quota().as_fraction();
                if new < old {
                    self.telemetry
                        .emit(self.now_us, EventData::QuotaShrink { from: old, to: new });
                } else if new > old {
                    self.telemetry
                        .emit(self.now_us, EventData::QuotaRestore { from: old, to: new });
                }
            }
        }
    }

    fn process_sysfs_writes(&mut self) {
        let mut writes = std::mem::take(&mut self.scratch.writes);
        self.sysfs.take_writes_into(&mut writes);
        for (path, value) in writes.drain(..) {
            // Match against the interned path table — no per-core path
            // strings are built here (satellite of the tick fast path).
            if let Some(kind) = self.paths.classify(&path) {
                match kind {
                    CorePath::Online(i) => match value.trim() {
                        "0" => self.apply_command(Command::SetOnline {
                            core: i,
                            online: false,
                        }),
                        "1" => self.apply_command(Command::SetOnline {
                            core: i,
                            online: true,
                        }),
                        _ => self.invalid_sysfs_writes += 1,
                    },
                    CorePath::Setspeed(i) => match value.trim().parse::<u32>() {
                        Ok(khz) => self.apply_command(Command::SetFreq {
                            core: i,
                            khz: Khz(khz),
                        }),
                        Err(_) => self.invalid_sysfs_writes += 1,
                    },
                    CorePath::MinFreq(i) => match value.trim().parse::<u32>() {
                        Ok(khz) => {
                            self.cpus.core_mut(i).limit_min_opp =
                                self.cfg.profile.opps().ceil_index(Khz(khz));
                        }
                        Err(_) => self.invalid_sysfs_writes += 1,
                    },
                    CorePath::MaxFreq(i) => match value.trim().parse::<u32>() {
                        Ok(khz) => {
                            let idx = self.cfg.profile.opps().floor_index(Khz(khz)).unwrap_or(0);
                            self.cpus.core_mut(i).limit_max_opp = idx;
                        }
                        Err(_) => self.invalid_sysfs_writes += 1,
                    },
                    CorePath::Governor(_) => {} // informational only
                }
                continue;
            }
            if path == paths::CFS_QUOTA {
                match value.trim().parse::<u64>() {
                    Ok(us) => {
                        let frac = us as f64
                            / (self.cfg.bandwidth_period_us as f64 * self.cpus.len() as f64);
                        self.apply_command(Command::SetQuota(Quota::new(frac)));
                    }
                    Err(_) => self.invalid_sysfs_writes += 1,
                }
            } else if path == paths::MPDECISION {
                match value.trim() {
                    "0" => self.mpdecision_enabled = false,
                    "1" => self.mpdecision_enabled = true,
                    _ => self.invalid_sysfs_writes += 1,
                }
            }
        }
        self.scratch.writes = writes;
    }

    /// Rebuilds `self.snap` in place for the current sampling boundary
    /// (the one `PolicySnapshot` is reused across samples).
    fn fill_snapshot(&mut self) {
        let window = (self.now_us - self.last_sample_us).max(self.cfg.tick_us);
        self.cpus.drain_window_into(&mut self.scratch.busy_window);
        let busy = &self.scratch.busy_window;
        let profile = &self.cfg.profile;
        self.snap.cores.clear();
        self.snap.cores.extend((0..self.cpus.len()).map(|i| {
            let c = self.cpus.core(i);
            CoreSnapshot {
                online: c.online,
                cur_khz: self.cpus.effective_khz(profile, i),
                target_khz: profile.opps().get_clamped(c.target_opp).khz,
                util: Utilization::new(busy[i] as f64 / window as f64),
                busy_us: busy[i],
            }
        }));
        let total_busy: u64 = busy.iter().sum();
        self.snap.now_us = self.now_us;
        self.snap.window_us = window;
        self.snap.overall_util =
            Utilization::new(total_busy as f64 / (window as f64 * self.cpus.len() as f64));
        self.snap.quota = self.bw.quota();
        self.snap.mpdecision_enabled = self.mpdecision_enabled;
        self.snap.max_runnable_threads = std::mem::take(&mut self.window_max_runnable);
        self.snap.temp_c = self.thermal.temp_c();
    }

    fn refresh_sysfs(&mut self) {
        let n = self.cpus.len();
        for i in 0..n {
            let khz = self.cpus.effective_khz(&self.cfg.profile, i);
            self.sysfs
                .refresh(&self.paths.core(i).scaling_cur_freq, khz.0.to_string());
            self.sysfs.refresh(
                &self.paths.core(i).online,
                if self.cpus.core(i).online { "1" } else { "0" },
            );
        }
        self.sysfs.refresh(
            paths::THERMAL_TEMP,
            format!("{}", (self.thermal.temp_c() * 1_000.0).round()),
        );
        self.sysfs
            .refresh(paths::CFS_QUOTA, self.bw.cfs_quota_us().to_string());
        self.sysfs.refresh(
            paths::MPDECISION,
            if self.mpdecision_enabled { "1" } else { "0" },
        );
        // time_in_state in the kernel's format: "<khz> <10ms units>".
        for i in 0..n {
            let body: String = self
                .cpus
                .core(i)
                .time_in_state_us
                .iter()
                .enumerate()
                .map(|(idx, &us)| {
                    format!(
                        "{} {}\n",
                        self.cfg.profile.opps().get_clamped(idx).khz.0,
                        us / 10_000
                    )
                })
                .collect();
            self.sysfs.refresh(&self.paths.core(i).time_in_state, body);
        }
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        self.start_if_needed();
        let tick = self.cfg.tick_us;
        let now = self.now_us;

        // 1. asynchronous sysfs writes land
        self.process_sysfs_writes();
        // 2. hotplug transitions mature
        self.cpus.tick_hotplug(now);
        // 3. policy sampling
        if now >= self.next_sample_us {
            self.fill_snapshot();
            self.policy.on_sample(&self.snap, &mut self.ctl);
            if let Some(m) = self.telemetry.metrics_mut() {
                self.hot.sample(
                    m,
                    self.snap.overall_util.as_fraction() * 100.0,
                    self.snap.quota.as_fraction() * 100.0,
                );
            }
            // Notes first: the decision record should precede the
            // freq/hotplug/quota events it causes at the same timestamp.
            for note in self.ctl.drain_notes() {
                self.telemetry.emit(now, note);
            }
            let mut cmds = std::mem::take(&mut self.scratch.cmds);
            self.ctl.drain_commands_into(&mut cmds);
            if let Some(m) = self.telemetry.metrics_mut() {
                self.hot.commands(m, cmds.len() as u64);
            }
            for cmd in cmds.drain(..) {
                self.apply_command(cmd);
            }
            self.scratch.cmds = cmds;
            self.last_sample_us = now;
            self.next_sample_us = now + self.policy.sampling_period_us().max(tick);
        }
        // 4. workloads observe completions and queue work
        for w in &mut self.workloads {
            w.on_tick(now, tick, &mut self.rt);
        }
        self.rt.clear_completions();
        // 5. schedule and execute
        self.window_max_runnable = self.window_max_runnable.max(self.rt.runnable_count());
        self.cpus.online_ids_into(&mut self.scratch.online);
        let allowance = self.bw.begin_tick(now, tick);
        self.scratch.khz.clear();
        for i in 0..self.cpus.len() {
            self.scratch
                .khz
                .push(self.cpus.effective_khz(&self.cfg.profile, i));
        }
        // Sub-tick DVFS stalls: time each core loses to an in-flight
        // frequency transition within this tick.
        self.scratch.stall_us.clear();
        for i in 0..self.cpus.len() {
            let until = self.cpus.core(i).stalled_until_us;
            self.scratch
                .stall_us
                .push(until.saturating_sub(now).min(tick));
        }
        schedule_tick_into(
            &mut self.rt,
            &TickParams {
                now_us: now,
                tick_us: tick,
                n_cores: self.cpus.len(),
                online: &self.scratch.online,
                khz: &self.scratch.khz,
                global_allowance_us: allowance,
                rotation: usize::try_from(now / tick).expect("tick count fits usize"),
                stall_us: &self.scratch.stall_us,
            },
            &mut self.scratch.sched,
            &mut self.scratch.outcome,
        );
        let outcome = &self.scratch.outcome;
        self.bw.charge(outcome.used_runtime_us, outcome.denied_us);
        let denied = outcome.denied_us > 0;
        if denied && !self.bw_denied_last_tick {
            self.telemetry.emit(
                now,
                EventData::BwThrottle {
                    denied_us: outcome.denied_us,
                },
            );
        }
        self.bw_denied_last_tick = denied;
        self.executed_cycles += outcome.executed_cycles;
        for i in 0..self.cpus.len() {
            let f = self.scratch.khz[i];
            self.cpus
                .account_tick(i, self.scratch.outcome.busy_us[i], tick, f);
            self.cpus.account_time_in_state(i, tick);
        }
        // 6. power, thermal, trace
        self.cpus.activities_into(
            &self.scratch.outcome.busy_us,
            tick,
            self.cfg.profile.idle_ladder(),
            &mut self.scratch.acts,
        );
        self.cfg
            .profile
            .power_into(
                &self.scratch.acts,
                &mut self.scratch.power_cache,
                &mut self.scratch.breakdown,
            )
            .expect("activity vector sized to profile");
        let breakdown = &self.scratch.breakdown;
        let power = breakdown.total_mw();
        self.base_energy += breakdown.base_mw * tick as f64;
        self.cluster_energy += breakdown.cluster_mw * tick as f64;
        self.core_energy += breakdown.core_mw.iter().sum::<f64>() * tick as f64;
        self.meter.record(now, tick, power);
        if let Some(m) = self.telemetry.metrics_mut() {
            self.hot.ticks(m, 1, power, self.thermal.temp_c());
        }
        let cap = self.thermal.tick(now, tick, power);
        if cap != self.last_thermal_cap {
            let temp_c = self.thermal.temp_c();
            self.telemetry.emit(
                now,
                if cap < self.last_thermal_cap {
                    EventData::ThermalThrottle {
                        cap_opp: cap,
                        temp_c,
                    }
                } else {
                    EventData::ThermalClear {
                        cap_opp: cap,
                        temp_c,
                    }
                },
            );
            self.last_thermal_cap = cap;
        }
        self.cpus.thermal_cap_opp = cap;
        if now >= self.next_trace_us {
            if self.cfg.trace == TraceLevel::Full {
                self.trace.push(TraceSample {
                    t_us: now,
                    power_mw: power,
                    temp_c: self.thermal.temp_c(),
                    quota: self.bw.quota().as_fraction(),
                    khz: self.scratch.khz.iter().map(|k| k.0).collect(),
                    util_pct: self
                        .scratch
                        .outcome
                        .busy_us
                        .iter()
                        .map(|&b| (b as f32 / tick as f32) * 100.0)
                        .collect(),
                });
            }
            self.next_trace_us = now + self.cfg.trace_period_us;
        }
        // The readable sysfs mirror is refreshed lazily at the next
        // [`Simulation::sysfs_read`] instead of re-formatted per trace
        // period (docs/performance.md).
        self.sysfs_stale = true;
        self.now_us += tick;
    }

    /// Runs to the configured duration and reports, under the engine the
    /// config selects ([`SimConfig::engine`]). Both engines produce
    /// byte-identical reports, telemetry and manifests (docs/simulator.md;
    /// asserted across the scenario catalog by the `engine-equivalence`
    /// tier-1 test).
    pub fn run(&mut self) -> SimReport {
        self.run_until(self.cfg.duration_us);
        self.report()
    }

    /// Advances the simulation to `t_us` under the configured engine.
    pub fn run_until(&mut self, t_us: u64) {
        match self.cfg.engine {
            SimEngine::Cyclic => {
                while self.now_us < t_us {
                    self.step();
                }
            }
            SimEngine::EventDriven => self.run_event_until(t_us),
        }
    }

    /// The event-driven loop: one full cycle-synchronous [`Simulation::step`]
    /// whenever any full-step component is due, and a cycle-exact quiet
    /// burst across the gap to the next full-step wake otherwise.
    fn run_event_until(&mut self, end_us: u64) {
        while self.now_us < end_us {
            self.advance_event(end_us);
        }
    }

    /// Advances by **one** event-engine iteration — one full
    /// [`Simulation::step`] or one quiet burst — never past `end_us`,
    /// and returns the new simulation time.
    ///
    /// Running this to `end_us` is exactly [`Simulation::run_until`]
    /// under [`SimEngine::EventDriven`]; it exists as a public
    /// single-iteration primitive so [`crate::fleet::FleetSim`] can
    /// multiplex many devices through one cross-device scheduler, each
    /// advancing in the bursts its own wake declarations allow. A no-op
    /// when the simulation already reached `end_us`.
    pub fn advance_event(&mut self, end_us: u64) -> u64 {
        if self.now_us >= end_us {
            return self.now_us;
        }
        self.start_if_needed();
        let mut ev = match self.event.take() {
            Some(ev) => ev,
            None => EventState::new(self.workloads.len()),
        };
        // The first iteration is always a full step: wake declarations
        // describe a simulation that has already ticked at least once.
        let n = if self.now_us == 0 {
            0
        } else {
            self.quiet_run_len(&mut ev, end_us)
        };
        if n == 0 {
            self.step();
        } else {
            self.quiet_burst(n);
        }
        self.event = Some(ev);
        self.now_us
    }

    /// Re-declares every component's wake in the queue. Stale
    /// component-sourced times are clamped to "due now" (an immediate
    /// full step) rather than tripping [`SimError::WakeInPast`], which is
    /// reserved for true API misuse.
    fn refresh_wakes(&mut self, ev: &mut EventState) {
        let now = self.now_us;
        let tick = self.cfg.tick_us;
        ev.queue.advance_to(now);
        let set = |queue: &mut WakeQueue, id: WakeId, wake: Wake| {
            let clamped = match wake {
                Wake::At(t) => Wake::At(t.max(now)),
                w => w,
            };
            queue.set(id, clamped).expect("wakes are clamped to now");
        };
        set(&mut ev.queue, ev.governor, Wake::At(self.next_sample_us));
        let hotplug = self
            .cpus
            .iter()
            .filter_map(|c| c.online_at_us)
            .min()
            .map_or(Wake::Never, Wake::At);
        set(&mut ev.queue, ev.hotplug, hotplug);
        for (w, &id) in self.workloads.iter().zip(&ev.workloads) {
            set(&mut ev.queue, id, w.next_tick_us(now));
        }
        // An idling online core crosses into a deeper (cheaper) idle
        // state when its streak reaches the next target residency; the
        // tick on which that happens must be a full step so the power
        // model re-reads the ladder. The streak the power model sees at
        // a tick includes that tick's own increment, hence `+ tick`.
        let ladder = self.cfg.profile.idle_ladder();
        let mut ladder_wake = Wake::Never;
        for c in self.cpus.iter() {
            if !c.online {
                continue;
            }
            if let Some(t) = ladder.next_residency_above(c.idle_streak_us + tick) {
                let k_t = (t - c.idle_streak_us).div_ceil(tick);
                ladder_wake = ladder_wake.earliest_of(Wake::At(now + (k_t - 1) * tick));
            }
        }
        set(&mut ev.queue, ev.idle_ladder, ladder_wake);
        set(
            &mut ev.queue,
            ev.thermal,
            Wake::At(self.thermal.next_poll_us()),
        );
        set(
            &mut ev.queue,
            ev.meter,
            Wake::At(self.meter.next_sample_us()),
        );
        set(
            &mut ev.queue,
            ev.bandwidth,
            Wake::At(self.bw.period_end_us()),
        );
    }

    /// How many consecutive ticks from `now` are provably quiet — safe to
    /// fast-forward with [`Simulation::quiet_burst`] — or 0 when the next
    /// tick needs a full [`Simulation::step`].
    fn quiet_run_len(&mut self, ev: &mut EventState, end_us: u64) -> u64 {
        // Preconditions: any pending work makes the next tick a full
        // step. Runnable threads or undelivered completions mean the
        // scheduler and workloads have real work; pending sysfs writes
        // land at the top of the next tick.
        if self.sysfs.has_pending_writes()
            || self.rt.runnable_count() != 0
            || !self.rt.completions().is_empty()
        {
            return 0;
        }
        let now = self.now_us;
        let tick = self.cfg.tick_us;
        // A due governor sample forces a full step no matter what the
        // other components declare — skip the whole wake refresh on that
        // (most common) bound. Every second `quiet_run_len` call in an
        // idle stretch lands here.
        if self.next_sample_us <= now {
            return 0;
        }
        self.refresh_wakes(ev);
        let bound = match ev.queue.earliest_full_step() {
            Some((t, _)) if t <= now => return 0,
            Some((t, _)) => t.min(end_us),
            None => end_us,
        };
        // Every tick *starting* strictly before the bound is quiet; the
        // tick whose start reaches it is the full step (matching the
        // cyclic loop's `now >= next_sample_us` trigger).
        bound.saturating_sub(now).div_ceil(tick)
    }

    /// Executes up to `n` quiet ticks in one burst, byte-identically to
    /// `n` cyclic [`Simulation::step`]s over a quiet simulation.
    ///
    /// Float state (bandwidth quota integral, energy attribution, meter,
    /// thermal RC) advances through the *same per-tick operations in the
    /// same order* as the cyclic loop — floating-point accumulation is
    /// sequence-sensitive, so these are never algebraically batched.
    /// Integer accounting (idle streaks, online time, `time_in_state`)
    /// is batched after the burst, which is exact. Everything else a
    /// cyclic step does is a provable state no-op on a quiet tick and is
    /// skipped (the equivalence argument in docs/simulator.md walks
    /// through the full step, line by line).
    ///
    /// A mid-burst thermal cap change ends the burst early after
    /// completing the tick on which it landed (the cyclic loop applies a
    /// new cap starting the *next* tick, so that tick itself still ran
    /// on pre-change state).
    fn quiet_burst(&mut self, n: u64) {
        debug_assert!(n > 0);
        let tick = self.cfg.tick_us;
        // Hoist per-burst constants: online set, effective frequencies
        // and OPPs, the activity vector, and the power breakdown. All
        // are invariant across quiet ticks — nothing requests
        // DVFS/hotplug/quota changes, and a thermal cap move breaks the
        // burst. One fused pass builds what the cyclic step builds in
        // separate loops (`online_ids_into`, the khz/opp fills,
        // `activities_into`), each value by the same expression. The
        // power model reads each core's idle streak *after* the current
        // tick's increment, so the first tick's increment lands here;
        // the remaining k-1 are batched below. Busy time is zero on a
        // quiet tick, so the utilization term is exactly `0.0` — what
        // the scheduler's zeroed outcome divides out to.
        self.scratch.online.clear();
        self.scratch.khz.clear();
        self.scratch.opps.clear();
        self.scratch.acts.clear();
        let ladder = self.cfg.profile.idle_ladder();
        for i in 0..self.cpus.len() {
            let opp = self.cpus.effective_opp(i);
            self.scratch
                .khz
                .push(self.cpus.effective_khz(&self.cfg.profile, i));
            self.scratch.opps.push(opp);
            let c = self.cpus.core_mut(i);
            c.idle_streak_us += tick;
            if c.online {
                let frac = ladder.power_frac_after(c.idle_streak_us);
                self.scratch.online.push(i);
                self.scratch
                    .acts
                    .push(CoreActivity::online_with_idle_state(opp, 0.0, frac));
            } else {
                self.scratch.acts.push(CoreActivity::OFFLINE);
            }
        }
        // The scheduler zeroes its outcome on every (workless) cyclic
        // tick; mirror that so trace samples see zero utilization.
        self.scratch.outcome.busy_us.clear();
        self.scratch.outcome.busy_us.resize(self.cpus.len(), 0);
        // The per-tick energy increments are constant products — the
        // cyclic loop recomputes the identical product each tick, so
        // hoisting them is bitwise equal. Consecutive quiet bursts in a
        // long idle stretch usually share the exact activity vector, so
        // the power-model evaluation is memoized on it.
        let (base_add, cluster_add, core_add, power) = match self.scratch.quiet_power {
            Some(memo) if self.scratch.acts == self.scratch.quiet_acts => memo,
            _ => {
                self.cfg
                    .profile
                    .power_into(
                        &self.scratch.acts,
                        &mut self.scratch.power_cache,
                        &mut self.scratch.breakdown,
                    )
                    .expect("activity vector sized to profile");
                let memo = (
                    self.scratch.breakdown.base_mw * tick as f64,
                    self.scratch.breakdown.cluster_mw * tick as f64,
                    self.scratch.breakdown.core_mw.iter().sum::<f64>() * tick as f64,
                    self.scratch.breakdown.total_mw(),
                );
                self.scratch.quiet_acts.clear();
                self.scratch
                    .quiet_acts
                    .extend_from_slice(&self.scratch.acts);
                self.scratch.quiet_power = Some(memo);
                memo
            }
        };

        // Component-major execution: within a quiet tick the components
        // read only burst-hoisted constants, never each other's fresh
        // state, so letting each advance k ticks in its own tight
        // `quiet_run` loop is bitwise equal to the cyclic tick-major
        // interleaving (docs/simulator.md). The burst is cut into
        // segments at trace boundaries — a trace sample needs its tick's
        // post-RC temperature, which is on hand exactly when the thermal
        // run stops on that tick. Thermal goes first in each segment: it
        // alone decides an early stop (a cap change), and every other
        // component then advances exactly as far.
        let mut done = 0u64;
        let mut last_pre_tick_temp = self.thermal.temp_c();
        let mut cap_changed = false;
        let full_trace = self.cfg.trace == TraceLevel::Full;
        while done < n && !cap_changed {
            let now0 = self.now_us;
            let remaining = n - done;
            // Under `TraceLevel::Summary` no trace sample is ever
            // materialized and `next_trace_us` drives nothing observable
            // for the rest of the run, so the burst runs as one segment
            // and leaves that dead clock stale. Under `Full`, segments
            // end on the tick the trace fires on (the cyclic trigger is
            // `now0 + j·tick >= next_trace_us`).
            let (has_trace, seg) = if full_trace {
                let fire_j = if self.next_trace_us <= now0 {
                    0
                } else {
                    (self.next_trace_us - now0).div_ceil(tick)
                };
                let has = fire_j < remaining;
                (has, if has { fire_j + 1 } else { remaining })
            } else {
                (false, remaining)
            };
            let (k, pre_temp) = self.thermal.quiet_run(now0, tick, power, seg);
            // The cyclic loop gauges temperature *before* each tick's RC
            // step; keep the last one for the batched gauge below.
            last_pre_tick_temp = pre_temp;
            let cap = self.thermal.cap_opp();
            if cap != self.last_thermal_cap {
                // Emitted on the tick the poll landed, with that tick's
                // post-step temperature — exactly the cyclic emission.
                let temp_c = self.thermal.temp_c();
                self.telemetry.emit(
                    now0 + (k - 1) * tick,
                    if cap < self.last_thermal_cap {
                        EventData::ThermalThrottle {
                            cap_opp: cap,
                            temp_c,
                        }
                    } else {
                        EventData::ThermalClear {
                            cap_opp: cap,
                            temp_c,
                        }
                    },
                );
                self.last_thermal_cap = cap;
                // Re-enter through `quiet_run_len`: the next tick's
                // hoisted frequencies/OPPs must see the new cap.
                cap_changed = true;
            }
            self.bw.quiet_run(now0, tick, k);
            self.meter.quiet_run(now0, tick, power, k);
            for _ in 0..k {
                self.base_energy += base_add;
                self.cluster_energy += cluster_add;
                self.core_energy += core_add;
            }
            self.now_us = now0 + k * tick;
            if has_trace && k == seg {
                // The segment reached its trace tick (a cap change on
                // that same tick still traces, as in the cyclic loop).
                let t_us = now0 + (seg - 1) * tick;
                if self.cfg.trace == TraceLevel::Full {
                    self.trace.push(TraceSample {
                        t_us,
                        power_mw: power,
                        temp_c: self.thermal.temp_c(),
                        quota: self.bw.quota().as_fraction(),
                        khz: self.scratch.khz.iter().map(|f| f.0).collect(),
                        util_pct: self
                            .scratch
                            .outcome
                            .busy_us
                            .iter()
                            .map(|&b| (b as f32 / tick as f32) * 100.0)
                            .collect(),
                    });
                }
                self.next_trace_us = t_us + self.cfg.trace_period_us;
            }
            done += k;
        }
        // The cyclic loop reasserts the cap on the core array every
        // tick; the value only moves when the burst ends, so once is
        // enough (and identical).
        self.cpus.thermal_cap_opp = self.thermal.cap_opp();

        // Batched integer accounting for the ticks that actually ran —
        // exact, order-insensitive arithmetic. The first tick's streak
        // increment was applied before the power hoist.
        let span = done * tick;
        for i in 0..self.cpus.len() {
            self.cpus.core_mut(i).idle_streak_us += span - tick;
        }
        for idx in 0..self.scratch.online.len() {
            let i = self.scratch.online[idx];
            let khz = self.scratch.khz[i];
            let opp = self.scratch.opps[i];
            let c = self.cpus.core_mut(i);
            c.total_online_us += span;
            c.khz_us_integral += u128::from(khz.0) * u128::from(span);
            if let Some(slot) = c.time_in_state_us.get_mut(opp) {
                *slot += span;
            }
        }
        self.bw_denied_last_tick = false;
        if let Some(m) = self.telemetry.metrics_mut() {
            self.hot.ticks(m, done, power, last_pre_tick_temp);
        }
        self.sysfs_stale = true;
    }

    /// Builds the report for whatever has run so far.
    pub fn report(&self) -> SimReport {
        let duration = self.now_us.max(1);
        let n = self.cpus.len() as f64;
        let total_busy: u64 = self.cpus.iter().map(|c| c.total_busy_us).sum();
        let total_online: u64 = self.cpus.iter().map(|c| c.total_online_us).sum();
        let khz_integral: u128 = self.cpus.iter().map(|c| c.khz_us_integral).sum();
        let avg_khz = if total_online == 0 {
            0.0
        } else {
            khz_integral as f64 / total_online as f64
        };
        SimReport {
            policy: self.policy.name().to_string(),
            duration_us: self.now_us,
            avg_power_mw: self.meter.avg_power_mw(),
            max_power_mw: self.meter.max_power_mw(),
            energy_mj: self.meter.energy_mj(),
            avg_overall_util: total_busy as f64 / (duration as f64 * n),
            avg_online_cores: total_online as f64 / duration as f64,
            avg_khz_online: avg_khz,
            avg_temp_c: self.thermal.avg_temp_c(),
            max_temp_c: self.thermal.max_temp_c,
            thermal_throttled_frac: self.thermal.throttled_time_us as f64 / duration as f64,
            bw_throttled_us: self.bw.throttled_us,
            avg_quota: self.bw.avg_quota(),
            executed_cycles: self.executed_cycles,
            rejected_offline_requests: self.cpus.rejected_offline_requests,
            workloads: self
                .workloads
                .iter()
                .map(|w| w.report(self.now_us, &self.rt))
                .collect(),
            avg_base_mw: self.base_energy / duration as f64,
            avg_cluster_mw: self.cluster_energy / duration as f64,
            avg_core_mw: self.core_energy / duration as f64,
            power_series: self.meter.samples().to_vec(),
            time_in_state_us: self.cpus.time_in_state_total(),
            trace: self.trace.clone(),
        }
    }

    /// The run's telemetry sink (empty when the config disabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The run's decision events as JSONL, ready for
    /// `mobicore-inspect events`.
    pub fn events_jsonl(&self) -> String {
        self.telemetry.events_jsonl()
    }

    /// Builds the run manifest for whatever has run so far: report
    /// aggregates plus telemetry rollups and event totals, keyed by the
    /// run's identity (policy, profile, seed). The caller may stamp
    /// `git` / `created_unix_ms` / `wall_ms` before writing it out.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let report = self.report();
        let mut metrics = self.telemetry.metrics().rollups();
        #[allow(clippy::cast_precision_loss)]
        let mut scalar = |k: &str, v: f64| {
            metrics.insert(k.to_string(), v);
        };
        scalar("avg_power_mw", report.avg_power_mw);
        scalar("max_power_mw", report.max_power_mw);
        scalar("energy_mj", report.energy_mj);
        scalar("avg_overall_util_pct", report.avg_overall_util * 100.0);
        scalar("avg_online_cores", report.avg_online_cores);
        scalar("avg_khz_online", report.avg_khz_online);
        scalar("avg_temp_c", report.avg_temp_c);
        scalar("max_temp_c", report.max_temp_c);
        scalar("thermal_throttled_frac", report.thermal_throttled_frac);
        #[allow(clippy::cast_precision_loss)]
        {
            scalar("bw_throttled_us", report.bw_throttled_us as f64);
            scalar("executed_cycles", report.executed_cycles as f64);
            scalar(
                "rejected_offline_requests",
                report.rejected_offline_requests as f64,
            );
            scalar("invalid_sysfs_writes", self.invalid_sysfs_writes as f64);
            scalar("dropped_events", self.telemetry.dropped_events() as f64);
        }
        scalar("avg_quota", report.avg_quota);
        let mut tags = std::collections::BTreeMap::new();
        tags.insert("cores".to_string(), self.cpus.len().to_string());
        tags.insert(
            "mpdecision".to_string(),
            if self.cfg.mpdecision_enabled {
                "1"
            } else {
                "0"
            }
            .to_string(),
        );
        tags.insert("tick_us".to_string(), self.cfg.tick_us.to_string());
        RunManifest {
            kind: "simulation".to_string(),
            name: name.to_string(),
            policy: report.policy,
            profile: self.cfg.profile.name().to_string(),
            seed: self.cfg.seed,
            duration_us: self.now_us,
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts: self.telemetry.event_counts(),
        }
    }
}
