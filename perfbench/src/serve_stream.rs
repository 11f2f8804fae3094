//! `serve-stream`: an in-process `Server` and two long-lived
//! `ClientSession`s on one load thread, replaying recorded `mixed-day`
//! snapshots with a pipelining window of 8. Session set-up is amortised
//! away, so the per-decision path (decode → queue → policy → encode →
//! write) is what is measured.
//!
//! Two phases: open-loop pacing at fixed offered rates, each request
//! timed from when it was due, then a closed-loop saturation phase.

use crate::measure::{hex, median, quantile, us, values, windowed_quantile, HostSampler, Outcome};
use crate::serving::{
    manifest_cost, matches, protocol_layers, recording_layers, reference, slice_rates, wait_until,
    POLICY, PROFILE,
};
use crate::trace::{SimLedger, Span, Tracer};
use crate::{Opts, Size, WINDOWS};
use mobicore_serve::{ClientError, ClientSession, ServeConfig, Server};
use mobicore_sim::PolicySnapshot;
use mobicore_telemetry::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Client sessions, all driven from one load thread.
const SESSIONS: usize = 2;
/// Snapshots a session keeps in flight before collecting.
const WINDOW: usize = 8;
/// Server workers. With one load thread and one worker, and the whole
/// workload pinned to one CPU (see [`crate::measure::pin_to_one_cpu`]),
/// a decision's path has no cross-CPU wake-up in it.
const SERVER_WORKERS: usize = 1;
/// The p99 limit, from due time, under which an offered rate counts as
/// served: well inside the policy's 20 ms sampling period.
const SLO_P99_US: f64 = 1_000.0;
/// Offered rates of the open-loop phase, decisions/s over all
/// sessions. The first is the reference rate the end-to-end latency is
/// measured at.
const RATES: [f64; 4] = [2_000.0, 10_000.0, 30_000.0, 60_000.0];
/// A send this much after its due time counts as late.
const LATE_US: f64 = 100.0;

/// One session replaying the recorded stream from the start, and
/// starting a new session on the same connection at its end.
struct Session {
    sess: ClientSession,
    pos: usize,
    /// `(due, sent, stream index)` of each decision in flight.
    inflight: VecDeque<(Instant, Instant, usize)>,
}

/// The load thread's sessions and what they replay.
struct Driver {
    sessions: Vec<Session>,
    addr: String,
    seed: u64,
    snaps: Vec<PolicySnapshot>,
    reference: Vec<Vec<u8>>,
}

impl Driver {
    fn connect(
        addr: &str,
        seed: u64,
        snaps: Vec<PolicySnapshot>,
        reference: Vec<Vec<u8>>,
    ) -> Result<Driver, ClientError> {
        let mut d = Driver {
            sessions: Vec::with_capacity(SESSIONS),
            addr: addr.to_string(),
            seed,
            snaps,
            reference,
        };
        for _ in 0..SESSIONS {
            let sess = d.open()?;
            d.sessions.push(sess);
        }
        Ok(d)
    }

    fn open(&self) -> Result<Session, ClientError> {
        Ok(Session {
            sess: ClientSession::connect(&self.addr, POLICY, PROFILE, self.seed)?
                .with_window(WINDOW),
            pos: 0,
            inflight: VecDeque::new(),
        })
    }

    /// Starts session `s`'s stream over when it is exhausted and
    /// nothing is in flight.
    fn rewind_if_done(&mut self, s: usize) -> Result<(), ClientError> {
        let sess = &mut self.sessions[s];
        if sess.pos == self.snaps.len() && sess.inflight.is_empty() {
            sess.sess.end_session()?;
            sess.sess.hello(POLICY, PROFILE, self.seed)?;
            sess.pos = 0;
        }
        Ok(())
    }

    /// Replaces session `s` after a failure; its in-flight decisions are
    /// lost and counted by the caller.
    fn reconnect(&mut self, s: usize) {
        if let Ok(fresh) = self.open() {
            self.sessions[s] = fresh;
        } else {
            self.sessions[s].inflight.clear();
            self.sessions[s].pos = 0;
        }
    }

    /// Ends every session cleanly.
    fn finish(self) {
        for s in self.sessions {
            let _ = s.sess.finish();
        }
    }
}

/// What one phase did.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(s since phase start, µs)`: due → decision (open loop) or
    /// send → decision (closed loop).
    latency_us: Vec<(f64, f64)>,
    /// `(s since phase start, µs)`: send → decision.
    service_us: Vec<(f64, f64)>,
    /// Send time minus due time, µs.
    late_us: Vec<f64>,
    /// `(s since phase start, decisions)` per completed batch.
    done: Vec<(f64, u64)>,
    submit_ns: Vec<f64>,
    collect_us: Vec<f64>,
    spans: Vec<Span>,
    /// Phase wall time.
    wall: Duration,
}

impl Tally {
    fn fail(&mut self, ops: u64, problem: String) {
        self.failed += ops;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    fn into_outcome(mut self, out: &mut Outcome) -> Tally {
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.problems.append(&mut self.problems);
        self
    }
}

/// Collects session `s`'s oldest in-flight decision and checks it.
fn collect_one(d: &mut Driver, s: usize, t: &mut Tally, phase: Instant, tracer: Option<&Tracer>) {
    let Some((due, sent, idx)) = d.sessions[s].inflight.pop_front() else {
        return;
    };
    let c0 = Instant::now();
    match d.sessions[s].sess.collect() {
        Ok(dec) => {
            let now = Instant::now();
            let at = (now - phase).as_secs_f64();
            t.latency_us.push((at, us(now - due)));
            t.service_us.push((at, us(now - sent)));
            t.collect_us.push(us(now - c0));
            t.done.push((at, 1));
            if let Some(tr) = tracer {
                t.spans.push(Span {
                    name: "client.collect",
                    id: tr.id(),
                    parent: 0,
                    req: tr.id(),
                    start_ns: tr.at(c0),
                    end_ns: tr.at(now),
                });
            }
            if !matches(dec, &d.reference[idx]) {
                t.fail(
                    1,
                    format!("decision {idx} differs from the in-process replay"),
                );
            }
        }
        Err(e) => {
            let lost = 1 + d.sessions[s].inflight.len() as u64;
            t.fail(lost, format!("collect: {e}"));
            d.reconnect(s);
        }
    }
}

/// The session whose oldest in-flight decision was due first.
fn oldest(d: &Driver) -> Option<usize> {
    (0..d.sessions.len())
        .filter_map(|s| d.sessions[s].inflight.front().map(|&(due, _, _)| (due, s)))
        .min()
        .map(|(_, s)| s)
}

/// Seeded exponential inter-arrival gaps: the arrivals of many
/// independent devices. A fixed period would phase-lock with the
/// server's idle back-off sleeps and make the latency bimodal from run
/// to run.
struct Arrivals {
    state: u64,
    rate: f64,
}

impl Arrivals {
    fn new(seed: u64, rate: f64) -> Arrivals {
        Arrivals {
            state: (seed ^ rate.to_bits()) | 1,
            rate,
        }
    }

    /// The gap to the next arrival (xorshift64* uniform, inverse CDF).
    fn gap(&mut self) -> Duration {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        let bits = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11;
        let u = (bits as f64 + 1.0) / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / self.rate)
    }
}

/// Open loop: requests arrive at `rate` per second (Poisson, seeded),
/// alternating sessions, each sent once due unless its session has
/// [`WINDOW`] in flight; decisions are collected in between.
fn open_loop(
    d: &mut Driver,
    rate: f64,
    start: Instant,
    end: Instant,
    tracer: Option<&Tracer>,
) -> Tally {
    let mut t = Tally::default();
    let mut arrivals = Arrivals::new(d.seed, rate);
    let mut next = start;
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        let sending = next < end;
        let s = i % d.sessions.len();
        if sending && now >= next && d.sessions[s].inflight.len() < WINDOW {
            if d.sessions[s].pos == d.snaps.len() && !d.sessions[s].inflight.is_empty() {
                collect_one(d, s, &mut t, start, tracer);
                continue;
            }
            if let Err(e) = d.rewind_if_done(s) {
                t.fail(1, format!("new session: {e}"));
                d.reconnect(s);
            }
            let sess = &mut d.sessions[s];
            let s0 = Instant::now();
            let sent = sess
                .sess
                .submit(&d.snaps[sess.pos])
                .and_then(|_| sess.sess.flush());
            t.submit_ns.push(s0.elapsed().as_nanos() as f64);
            t.late_us.push(us(s0.saturating_duration_since(next)));
            t.attempted += 1;
            match sent {
                Ok(()) => {
                    sess.inflight.push_back((next, s0, sess.pos));
                    sess.pos += 1;
                }
                Err(e) => {
                    t.fail(1 + sess.inflight.len() as u64, format!("submit: {e}"));
                    d.reconnect(s);
                }
            }
            next += arrivals.gap();
            i += 1;
            continue;
        }
        if let Some(s) = oldest(d) {
            collect_one(d, s, &mut t, start, tracer);
            continue;
        }
        if !sending {
            t.wall = Instant::now() - start;
            return t;
        }
        wait_until(next);
    }
}

/// Closed loop: each round sends a window on every session, then
/// collects them all, until `end`.
fn closed_loop(d: &mut Driver, start: Instant, end: Instant, tracer: Option<&Tracer>) -> Tally {
    let mut t = Tally::default();
    let mut rounds = 0u64;
    while Instant::now() < end {
        let b0 = Instant::now();
        let mut sent = vec![0usize; d.sessions.len()];
        for (s, n) in sent.iter_mut().enumerate() {
            if let Err(e) = d.rewind_if_done(s) {
                t.fail(1, format!("new session: {e}"));
                d.reconnect(s);
                continue;
            }
            let sess = &mut d.sessions[s];
            *n = WINDOW.min(d.snaps.len() - sess.pos);
            let mut ok = true;
            for k in 0..*n {
                ok &= sess.sess.submit(&d.snaps[sess.pos + k]).is_ok();
                sess.inflight.push_back((b0, b0, sess.pos + k));
            }
            sess.pos += *n;
            t.attempted += *n as u64;
            if !(ok && sess.sess.flush().is_ok()) {
                t.fail(*n as u64, "submit failed".to_string());
                d.reconnect(s);
                *n = 0;
            }
        }
        let c0 = Instant::now();
        let before = t.done.len();
        for (s, &n) in sent.iter().enumerate() {
            for _ in 0..n {
                collect_one(d, s, &mut t, start, None);
            }
        }
        let now = Instant::now();
        let got: u64 = t.done.drain(before..).map(|(_, k)| k).sum();
        t.done.push(((now - start).as_secs_f64(), got));
        rounds += 1;
        // Sampled: one round span in 64 keeps the span log small.
        if let Some(tr) = tracer.filter(|_| rounds.is_multiple_of(64)) {
            let req = tr.id();
            let id = tr.id();
            t.spans.push(Span {
                name: "client.round",
                id,
                parent: 0,
                req,
                start_ns: tr.at(b0),
                end_ns: tr.at(now),
            });
            t.spans.push(Span {
                name: "client.collect",
                id: tr.id(),
                parent: id,
                req,
                start_ns: tr.at(c0),
                end_ns: tr.at(now),
            });
        }
    }
    t.wall = Instant::now() - start;
    t
}

/// One set-up: record the input stream, replay it in process for the
/// reference decisions, start the server and open the sessions. Returns
/// the seconds it took with what it built.
fn set_up(opts: &Opts, record_secs: u64) -> Result<(f64, Server, Driver), String> {
    let t = Instant::now();
    let snaps = mobicore_serve::record_snapshots(
        PROFILE,
        crate::serving::SCENARIO,
        opts.seed,
        record_secs,
    )?;
    let refs = reference(&snaps, None);
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig::default().with_workers(SERVER_WORKERS),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let driver = Driver::connect(&server.local_addr().to_string(), opts.seed, snaps, refs)
        .map_err(|e| format!("connect: {e}"))?;
    Ok((t.elapsed().as_secs_f64(), server, driver))
}

/// Runs the workload.
///
/// # Errors
///
/// The server could not be bound or a session could not connect.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The whole workload on one CPU: on a shared 2-vCPU host, whether the
    // threads of a decision's path shared a CPU or woke each other across
    // two decided the run, and made throughput and latency bimodal.
    let cpu = crate::measure::pin_to_one_cpu();
    out.info(
        "pinned_cpu",
        cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
    );
    let record_secs = match opts.size {
        Size::Full => 600,
        Size::Tiny => 5,
    };
    // Set-up, after one untimed warm-up: timed once here and once more
    // after each open-loop phase, so its median sees the same host as
    // the measurement does. Extra stacks are torn down untimed.
    let extra = |setup: &mut Vec<f64>| -> Result<(), String> {
        let (t, server, driver) = set_up(opts, record_secs)?;
        setup.push(t);
        driver.finish();
        server.shutdown();
        Ok(())
    };
    extra(&mut Vec::new())?;
    let (t, server, mut driver) = set_up(opts, record_secs)?;
    let mut setup = vec![t];
    out.info("stream_len", Json::Num(driver.snaps.len() as f64));
    out.info(
        "stream_digest",
        hex(crate::measure::digest(&driver.reference.concat())),
    );

    let tracer = Tracer::default();
    let tr = opts.trace.then_some(&tracer);
    let total = opts.measure.as_secs_f64();
    let host = HostSampler::start();

    // Open loop: the reference rate gets the longest share.
    let mut per_rate = Vec::new();
    for (i, rate) in RATES.iter().enumerate() {
        let share = if i == 0 { 0.3 } else { 0.05 };
        let dur = Duration::from_secs_f64(total * share);
        let start = Instant::now() + Duration::from_millis(2);
        let t = open_loop(
            &mut driver,
            *rate,
            start,
            start + dur,
            if i == 0 { tr } else { None },
        );
        per_rate.push((*rate, dur.as_secs_f64(), t.into_outcome(&mut out)));
        extra(&mut setup)?;
    }
    let setup_s = median(&setup);

    // Closed-loop saturation; in the traced run, half plain, half traced.
    let sat_s = total * 0.55;
    let mut saturation = |secs: f64, tracer: Option<&Tracer>| {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        closed_loop(&mut driver, start, end, tracer).into_outcome(&mut out)
    };
    let plain_sat = saturation(if opts.trace { sat_s / 2.0 } else { sat_s }, None);
    let rates = slice_rates(&plain_sat.done, plain_sat.wall.as_secs_f64(), 0.25);
    let cpu0 = crate::measure::thread_cpu_ns();
    let traced_sat = opts.trace.then(|| saturation(sat_s / 2.0, tr));
    let load_cpu_ns = crate::measure::thread_cpu_ns() - cpu0;
    let usage = host.finish();
    out.host = usage;
    let server_manifest = manifest_cost(|| server.manifest("perfbench-serve-stream"));
    let snaps = std::mem::take(&mut driver.snaps);
    let refs = std::mem::take(&mut driver.reference);
    driver.finish();
    let stats = server.shutdown();

    let (ref_rate, _, ref_tally) = &per_rate[0];
    let slo_rates: Vec<f64> = per_rate
        .iter()
        .filter(|(rate, secs, t)| {
            let achieved = t.attempted as f64 / secs;
            t.failed == 0
                && quantile(&values(&t.latency_us), 0.99) <= SLO_P99_US
                && achieved >= 0.95 * rate
        })
        .map(|(rate, _, _)| *rate)
        .collect();
    let max_rate = slo_rates.iter().copied().fold(0.0, f64::max);
    let plain_rate = median(&rates);
    let late_frac = ref_tally.late_us.iter().filter(|&&l| l > LATE_US).count() as f64
        / ref_tally.late_us.len().max(1) as f64;
    out.named.push("decisions_per_s", plain_rate, "1/s");
    out.named.push("max_rate_at_slo", max_rate, "1/s");
    let ref_lat = values(&ref_tally.latency_us);
    out.named
        .push("decide_p50_us", quantile(&ref_lat, 0.5), "us");
    out.named
        .push("decide_p99_us", quantile(&ref_lat, 0.99), "us");
    out.named
        .push("gen.late_p99_us", quantile(&ref_tally.late_us, 0.99), "us");
    out.named.push("gen.late_frac", late_frac, "frac");
    usage.report(&mut out.named);
    out.info("reference_rate", Json::Num(*ref_rate));
    out.info(
        "rates",
        Json::Arr(
            per_rate
                .iter()
                .map(|(rate, secs, t)| {
                    Json::obj()
                        .with("offered", Json::Num(*rate))
                        .with("achieved", Json::Num(t.attempted as f64 / secs))
                        .with("p99_us", Json::Num(quantile(&values(&t.latency_us), 0.99)))
                        .with("samples", Json::Num(t.latency_us.len() as f64))
                })
                .collect(),
        ),
    );
    if stats.aborted_sessions > 0 || stats.protocol_errors > 0 {
        out.fail(
            stats.aborted_sessions,
            format!(
                "server saw {} aborted sessions, {} protocol errors",
                stats.aborted_sessions, stats.protocol_errors
            ),
        );
    }

    if !opts.trace {
        out.metrics.push("setup_s", setup_s, "s");
        out.metrics.push("work_per_s", plain_rate, "1/s");
        let ref_s = per_rate[0].1;
        // Send → decision: on a shared host the generator's own wake-up
        // stalls dominate the due-time tail (`decide_p99_us` above).
        let lat = |q| windowed_quantile(&ref_tally.service_us, ref_s, WINDOWS, q);
        out.metrics.push("latency_p50_us", lat(0.5), "us");
        out.metrics.push("latency_p90_us", lat(0.9), "us");
        return Ok(out);
    }

    // Traced run: layer numbers around the same calls, from outside.
    let traced_sat = traced_sat.expect("traced run has a traced phase");
    let traced_rate = median(&slice_rates(
        &traced_sat.done,
        traced_sat.wall.as_secs_f64(),
        0.25,
    ));
    let ledger = Rc::new(RefCell::new(SimLedger::default()));
    if reference(&snaps, Some(&ledger)) != refs {
        out.fail(1, "timed in-process replay differs from the plain one");
    }
    let ledger = ledger.borrow();
    let policy_ns = ledger.policy_hist.quantile(0.5);
    let collect_us = median(&ref_tally.collect_us);
    let mut codec = crate::measure::Metrics::default();
    protocol_layers(&snaps, &refs, &mut codec);
    let enc = codec.get("protocol.encode_ns").unwrap_or(0.0);
    let dec = codec.get("protocol.decode_ns").unwrap_or(0.0);
    let m = &mut out.metrics;
    m.push("trace.work_per_s", traced_rate, "1/s");
    m.push(
        "trace.overhead_frac",
        plain_rate / traced_rate - 1.0,
        "frac",
    );
    usage.report(m);
    m.push("policy.on_sample_ns", policy_ns, "ns");
    m.push(
        "policy.on_sample_p99_ns",
        ledger.policy_hist.quantile(0.99),
        "ns",
    );
    m.push("policy.share", policy_ns / 1e3 / collect_us, "frac");
    if !recording_layers(opts.seed, record_secs, &snaps, &mut out.metrics)? {
        out.fail(1, "rebuilt recording differs from record_snapshots");
    }
    // The load is one job on one thread: its efficiency is the thread's
    // on-CPU share of the phase, and it runs alone throughout.
    let m = &mut out.metrics;
    m.push(
        "sweep.efficiency",
        load_cpu_ns as f64 / traced_sat.wall.as_nanos() as f64,
        "frac",
    );
    m.push("sweep.straggler_s", traced_sat.wall.as_secs_f64(), "s");
    m.push("telemetry.merge_us", server_manifest.0, "us");
    m.push("telemetry.manifest_json_us", server_manifest.1, "us");
    m.0.extend(codec.0);
    let n = &mut out.named;
    n.push("client.submit_ns", median(&ref_tally.submit_ns), "ns");
    n.push("client.collect_wait_us", collect_us, "us");
    n.push(
        "server.residual_us",
        collect_us - (policy_ns + enc + 2.0 * dec) / 1e3,
        "us",
    );
    n.push(
        "server.backpressure_events",
        stats.backpressure_events as f64,
        "count",
    );
    n.push(
        "server.protocol_errors",
        stats.protocol_errors as f64,
        "count",
    );
    n.push(
        "server.aborted_sessions",
        stats.aborted_sessions as f64,
        "count",
    );
    let mut spans = per_rate[0].2.spans.clone();
    spans.extend(traced_sat.spans);
    tracer.extend(spans);
    crate::write_spans(&mut out, &tracer, "serve-stream", opts.seed);
    Ok(out)
}
