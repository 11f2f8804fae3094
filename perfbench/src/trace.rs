//! The traced run's instruments, all outside the program: a span log
//! for layer boundaries (kept in memory, written out at the end) and
//! [`CpuPolicy`] / [`Workload`] wrappers that time every call into the
//! policy and workload layers of a simulation.
//!
//! Hot calls (a policy sample every 20 ms, a workload tick every 1 ms
//! of simulated time) are far too many to keep one span each; their
//! wrappers add into a per-run [`SimLedger`] instead, which its run's
//! span carries.

use mobicore_serve::protocol::Frame;
use mobicore_sim::{
    CpuControl, CpuPolicy, PolicySnapshot, Wake, Workload, WorkloadReport, WorkloadRt,
};
use mobicore_telemetry::{Histogram, Json};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run` or `client.collect`.
    pub name: &'static str,
    /// Unique id within the run.
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Request id shared by the spans of one request (0 when none).
    pub req: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span log of one traced run. Threads record into local vectors
/// and hand them over with [`Tracer::extend`], so recording takes no
/// lock on the hot path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// `instant` as ns since the epoch.
    pub fn at(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        // Relaxed: ids only need to be unique, they publish nothing.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds a span with a fresh id (not yet recorded).
    pub fn span(&self, name: &'static str, parent: u64, req: u64, start_ns: u64) -> Span {
        Span {
            name,
            id: self.id(),
            parent,
            req,
            start_ns,
            end_ns: self.now_ns(),
        }
    }

    /// Records `spans`.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans.lock().expect("span log poisoned").extend(spans);
    }

    /// Records one span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Sum of the durations of spans named `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        let spans = self.spans.lock().expect("span log poisoned");
        spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// File creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let line = Json::obj()
                .with("name", Json::Str(s.name.to_string()))
                .with("id", Json::Num(s.id as f64))
                .with("parent", Json::Num(s.parent as f64))
                .with("req", Json::Num(s.req as f64))
                .with("start_ns", Json::Num(s.start_ns as f64))
                .with("end_ns", Json::Num(s.end_ns as f64));
            writeln!(out, "{}", line.to_compact())?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Per-run accounting of the calls the wrappers timed.
#[derive(Debug, Default)]
pub struct SimLedger {
    /// `on_sample` calls.
    pub policy_calls: u64,
    /// Time inside `on_sample`, ns.
    pub policy_ns: u64,
    /// Per-call `on_sample` times, ns.
    pub policy_hist: Histogram,
    /// `on_tick` calls (summed over the run's workloads).
    pub tick_calls: u64,
    /// Time inside `on_tick`, ns.
    pub tick_ns: u64,
    /// Every 16th snapshot the policy saw, with the decision it made,
    /// as wire frames — the inputs of the protocol codec timing.
    pub frames: Vec<(Frame, Frame)>,
}

/// Shared handle to a run's ledger: the wrappers live inside the
/// simulation, the ledger is read after the run.
pub type Ledger = Rc<RefCell<SimLedger>>;

/// Times every `on_sample` call of the wrapped policy.
pub struct TimedPolicy {
    inner: Box<dyn CpuPolicy + Send>,
    ledger: Ledger,
}

impl TimedPolicy {
    /// Wraps `inner`, adding into `ledger`.
    pub fn new(inner: Box<dyn CpuPolicy + Send>, ledger: Ledger) -> Self {
        TimedPolicy { inner, ledger }
    }
}

impl CpuPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sampling_period_us(&self) -> u64 {
        self.inner.sampling_period_us()
    }

    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        let t = Instant::now();
        self.inner.on_sample(snap, ctl);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut l = self.ledger.borrow_mut();
        if l.policy_calls.is_multiple_of(16) {
            let seq = l.policy_calls;
            l.frames.push((
                Frame::Snapshot {
                    seq,
                    snap: snap.clone(),
                },
                Frame::Decision {
                    seq,
                    commands: ctl.commands().to_vec(),
                    notes: ctl.notes().to_vec(),
                },
            ));
        }
        l.policy_calls += 1;
        l.policy_ns += ns;
        l.policy_hist.record(ns as f64);
    }
}

/// Times every `on_tick` call of the wrapped workload and forwards
/// everything else unchanged — `next_tick_us` above all: the default
/// would pin the event engine to stepping every tick.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    ledger: Ledger,
}

impl TimedWorkload {
    /// Wraps `inner`, adding into `ledger`.
    pub fn new(inner: Box<dyn Workload>, ledger: Ledger) -> Self {
        TimedWorkload { inner, ledger }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, rt: &mut WorkloadRt) {
        self.inner.on_start(rt);
    }

    fn on_tick(&mut self, now_us: u64, tick_us: u64, rt: &mut WorkloadRt) {
        let t = Instant::now();
        self.inner.on_tick(now_us, tick_us, rt);
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut l = self.ledger.borrow_mut();
        l.tick_calls += 1;
        l.tick_ns += ns;
    }

    fn next_tick_us(&self, now_us: u64) -> Wake {
        self.inner.next_tick_us(now_us)
    }

    fn report(&self, now_us: u64, rt: &WorkloadRt) -> WorkloadReport {
        self.inner.report(now_us, rt)
    }
}
