//! Measurement plumbing shared by every workload: order statistics,
//! output digests, host run-queue accounting from `/proc`, peak memory,
//! and the [`Outcome`] a workload run returns.

use mobicore_telemetry::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `work_per_s`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `frac`.
    pub unit: &'static str,
}

/// An ordered list of metrics, built up by a workload run.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for m in &self.0 {
            obj = obj.with(
                &m.name,
                Json::obj()
                    .with("value", Json::Num(m.value))
                    .with("unit", Json::Str(m.unit.to_string())),
            );
        }
        obj
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (runs, decisions or sessions).
    pub attempted: u64,
    /// Operations that failed: errors, reorders, byte mismatches, lost
    /// sessions, or simulated outputs that differ between repetitions.
    pub failed: u64,
    /// One line per detected mismatch, for the report.
    pub problems: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this mode (every
    /// `end_to_end` metric untraced, every `per_layer` metric traced).
    pub metrics: Metrics,
    /// The workload's own named metrics (docs in README.md), printed
    /// on the report line.
    pub named: Metrics,
    /// Pinned settings, digests and sample counts.
    pub info: BTreeMap<String, Json>,
    /// What the host did to the process during the measured phase.
    pub host: HostUsage,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, ops: u64, problem: impl Into<String>) {
        self.failed += ops;
        self.problems.push(problem.into());
    }

    /// Adds an informational entry to the report line.
    pub fn info(&mut self, key: &str, value: Json) {
        self.info.insert(key.to_string(), value);
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Quantile `q` within each of `windows` equal slices of `[0, span_s)`
/// of timed `(seconds, value)` samples, then the median over the
/// slices: a host stall confined to one slice does not move it.
pub fn windowed_quantile(samples: &[(f64, f64)], span_s: f64, windows: usize, q: f64) -> f64 {
    let windows = windows.max(1);
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let i = ((t / span_s) * windows as f64) as usize;
        parts[i.min(windows - 1)].push(v);
    }
    let per: Vec<f64> = parts
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| quantile(p, q))
        .collect();
    median(&per)
}

/// Wall times of the batches of a closed-loop batch workload, each with
/// when it ended.
#[derive(Debug, Default)]
pub struct Batches {
    /// `(s since the first batch started, batch wall s)`.
    walls: Vec<(f64, f64)>,
    first: Option<Instant>,
}

impl Batches {
    /// Times one batch.
    pub fn time<T>(&mut self, batch: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let first = *self.first.get_or_insert(t);
        let out = batch();
        let end = Instant::now();
        self.walls
            .push(((end - first).as_secs_f64(), (end - t).as_secs_f64()));
        out
    }

    /// Batches timed so far.
    pub fn len(&self) -> usize {
        self.walls.len()
    }

    /// Whether no batch was timed.
    pub fn is_empty(&self) -> bool {
        self.walls.is_empty()
    }

    /// Pushes `work_per_s` (median over batches of `work` per batch wall
    /// second) and the windowed `latency_p50_us` and `latency_p90_us` of
    /// the batch wall times; returns `work_per_s`.
    pub fn report(&self, work: f64, windows: usize, metrics: &mut Metrics) -> f64 {
        let rates: Vec<f64> = self.walls.iter().map(|&(_, w)| work / w).collect();
        let lat: Vec<(f64, f64)> = self.walls.iter().map(|&(t, w)| (t, w * 1e6)).collect();
        let span = self.walls.last().map_or(1.0, |&(t, _)| t);
        let rate = median(&rates);
        metrics.push("work_per_s", rate, "1/s");
        for (name, q) in [("latency_p50_us", 0.5), ("latency_p90_us", 0.9)] {
            metrics.push(name, windowed_quantile(&lat, span, windows, q), "us");
        }
        rate
    }
}

/// Values of timed `(seconds, value)` samples.
pub fn values(samples: &[(f64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

/// Microseconds in `d`, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// 64-bit FNV-1a digest, for printing and comparing output bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A digest rendered for the report line.
pub fn hex(h: u64) -> Json {
    Json::Str(format!("{h:016x}"))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(on-CPU ns, run-queue wait ns)` of one task, from its `schedstat`.
fn read_schedstat(path: &std::path::Path) -> Option<(u64, u64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut f = text.split_whitespace().map(|x| x.parse::<u64>().ok());
    Some((f.next()??, f.next()??))
}

/// On-CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    read_schedstat(std::path::Path::new("/proc/thread-self/schedstat")).map_or(0, |v| v.0)
}

/// Per-thread `(on-CPU, wait)` of every live thread of this process.
fn task_schedstats() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some(v) = read_schedstat(&entry.path().join("schedstat")) {
            out.insert(tid, v);
        }
    }
    out
}

/// Samples `/proc/self/task/*/schedstat` every 10 ms on a thread of its
/// own while a workload runs, so on-CPU time and run-queue wait of
/// short-lived worker threads (sweep jobs, server workers) are counted
/// up to their last sample.
pub struct HostSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<FirstLast>,
    jiffies: Vec<(u64, u64)>,
}

/// `(steal, busy)` jiffies of each CPU, from the `cpuN` lines of
/// `/proc/stat`. Steal is time a vCPU wanted to run while the hypervisor
/// ran another guest; busy is time it ran.
fn cpu_jiffies() -> Vec<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .map(|line| {
            // cpuN user nice system idle iowait irq softirq steal [guest
            // guest_nice], where guest time is already counted in user.
            let f: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .take(8)
                .filter_map(|x| x.parse().ok())
                .collect();
            let at = |i: usize| f.get(i).copied().unwrap_or(0);
            (at(7), at(0) + at(1) + at(2) + at(5) + at(6))
        })
        .collect()
}

/// The share of the time the CPUs wanted to run that was stolen, each
/// CPU weighted by how busy it was between `before` and `after`: a CPU
/// the workload left idle does not count.
fn busy_steal_frac(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let mut stolen = 0.0;
    let mut busy_total = 0.0;
    for (&(s0, b0), &(s1, b1)) in before.iter().zip(after) {
        let steal = s1.saturating_sub(s0) as f64;
        let busy = b1.saturating_sub(b0) as f64;
        if busy + steal > 0.0 {
            stolen += busy * steal / (busy + steal);
        }
        busy_total += busy;
    }
    if busy_total > 0.0 {
        stolen / busy_total
    } else {
        0.0
    }
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the first CPU it may run on, with `taskset`. Returns that CPU, or
/// `None` when the CPU list or `taskset` is unavailable (the run then
/// goes on unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu: usize = list
        .trim()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()?;
    // `/proc/thread-self` links to `<pid>/task/<tid>`.
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?.to_str()?.to_string();
    let ok = std::process::Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .ok()?
        .success();
    ok.then_some(cpu)
}

/// Per thread id, its first and last `(on-CPU, wait)` sample.
type FirstLast = BTreeMap<u64, ((u64, u64), (u64, u64))>;

/// On-CPU time and run-queue wait of the process over a sampled span.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostUsage {
    /// Nanoseconds threads spent running.
    pub run_ns: u64,
    /// Nanoseconds runnable threads waited for a CPU.
    pub wait_ns: u64,
    /// Share of the time the busy CPUs wanted to run that the hypervisor
    /// gave to other guests.
    pub steal_frac: f64,
}

impl HostUsage {
    /// Share of runnable time spent waiting for a CPU — high when the
    /// host is shared or the benchmark oversubscribes it.
    pub fn runq_wait_frac(&self) -> f64 {
        let total = self.run_ns + self.wait_ns;
        if total == 0 {
            0.0
        } else {
            self.wait_ns as f64 / total as f64
        }
    }

    /// Pushes `host.runq_wait_frac` and `host.steal_frac`.
    pub fn report(&self, metrics: &mut Metrics) {
        metrics.push("host.runq_wait_frac", self.runq_wait_frac(), "frac");
        metrics.push("host.steal_frac", self.steal_frac, "frac");
    }
}

impl HostSampler {
    /// Starts sampling.
    pub fn start() -> HostSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut seen = FirstLast::new();
            loop {
                for (tid, v) in task_schedstats() {
                    seen.entry(tid).or_insert((v, v)).1 = v;
                }
                // SeqCst: the flag publishes nothing else, but the last
                // pass must follow the workload's final joins.
                if flag.load(Ordering::SeqCst) {
                    return seen;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        HostSampler {
            stop,
            handle,
            jiffies: cpu_jiffies(),
        }
    }

    /// Stops sampling and sums the per-thread deltas.
    pub fn finish(self) -> HostUsage {
        self.stop.store(true, Ordering::SeqCst);
        let seen = self.handle.join().expect("host sampler thread panicked");
        let mut u = HostUsage {
            steal_frac: busy_steal_frac(&self.jiffies, &cpu_jiffies()),
            ..HostUsage::default()
        };
        for (first, last) in seen.values() {
            u.run_ns += last.0.saturating_sub(first.0);
            u.wait_ns += last.1.saturating_sub(first.1);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
        // A stall in one window of four leaves the windowed p90 alone.
        let mut timed: Vec<(f64, f64)> = (0..400).map(|i| (i as f64 / 100.0, 1.0)).collect();
        for s in &mut timed[..50] {
            s.1 = 1000.0;
        }
        assert_eq!(windowed_quantile(&timed, 4.0, 4, 0.9), 1.0);
        assert!(quantile(&values(&timed), 0.9) > 1.0);
    }

    #[test]
    fn schedstat_is_readable() {
        let s = HostSampler::start();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(50) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        let u = s.finish();
        assert!(u.run_ns > 0, "schedstat reported no CPU time");
        assert!((0.0..=1.0).contains(&u.runq_wait_frac()));
    }
}
