//! `router-churn`: a `Router` in front of two in-process shards, driven
//! by short fleet-style sessions back to back over one connection per
//! load thread: `route_hello`, two snapshots, `end_session`. Session
//! set-up and relay dominate and the policy does almost nothing — the
//! only workload where the router layer works, and one that uses the
//! serve layer for set-up rather than for streaming.

use crate::measure::{
    hex, median, quantile, us, values, windowed_quantile, HostSampler, Metrics, Outcome,
};
use crate::serving::{
    manifest_cost, matches, protocol_layers, recording_layers, reference, slice_rates, POLICY,
    PROFILE,
};
use crate::trace::{SimLedger, Span, Tracer};
use crate::{Opts, Size, WINDOWS};
use mobicore_serve::{ClientSession, Router, RouterConfig, ServeConfig, Server, Shard};
use mobicore_sim::PolicySnapshot;
use mobicore_sweep::Executor;
use mobicore_telemetry::Json;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Snapshots per session, as the fleet orchestrator's short sessions.
const SNAPSHOTS: usize = 2;
/// Shards behind the router, one worker each.
const SHARDS: usize = 2;
/// Router workers. On a 2-CPU host a second busy-polling router worker
/// competes with the load threads and the shards: sessions/s fell from
/// about 4.6k to 2.8k when it was added.
const ROUTER_WORKERS: usize = 1;
/// Slices of the measured phase, each preceded by a timed set-up.
const SLICES: usize = 5;

/// Device key of session `k` on connection `conn`: the seed decides
/// which shard each session lands on.
fn key(seed: u64, conn: usize, k: u64) -> u64 {
    // splitmix64
    let mut z = seed ^ ((conn as u64) << 48) ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one connection did in one phase.
#[derive(Default)]
struct Tally {
    sessions: u64,
    failed: u64,
    problems: Vec<String>,
    /// `(s since phase start, µs)` per decision.
    decide_us: Vec<(f64, f64)>,
    setup_us: Vec<f64>,
    end_us: Vec<f64>,
    /// `(s since phase start, 1)` per completed session.
    done: Vec<(f64, u64)>,
    spans: Vec<Span>,
    span: (u64, u64),
}

/// The shards, the router, and one connection per load thread.
struct Stack {
    conns: Vec<ClientSession>,
    router: Router,
    shards: Vec<Server>,
}

impl Stack {
    fn up(opts: &Opts) -> Result<Stack, String> {
        let shards = (0..SHARDS)
            .map(|_| Server::bind("127.0.0.1:0", ServeConfig::default().with_workers(1)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind shard: {e}"))?;
        let named = shards
            .iter()
            .enumerate()
            .map(|(i, s)| Shard {
                name: format!("s{i}"),
                addr: s.local_addr().to_string(),
            })
            .collect();
        let router = Router::bind(
            "127.0.0.1:0",
            named,
            RouterConfig::default().with_workers(ROUTER_WORKERS),
        )
        .map_err(|e| format!("bind router: {e}"))?;
        let addr = router.local_addr().to_string();
        let conns = (0..opts.jobs)
            .map(|_| ClientSession::connect_raw(&addr).map(|s| s.with_window(SNAPSHOTS)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Stack {
            conns,
            router,
            shards,
        })
    }

    /// Closes the connections, then drains the router and the shards.
    fn down(self) -> (mobicore_serve::RouterStats, Vec<mobicore_serve::ServeStats>) {
        drop(self.conns);
        let r = self.router.shutdown();
        (r, self.shards.into_iter().map(Server::shutdown).collect())
    }
}

/// Short sessions back to back on `sess` until `end`. `direct` sends
/// them straight to a shard (Hello instead of Route + Hello).
#[allow(clippy::too_many_arguments)]
fn churn(
    sess: &mut ClientSession,
    addr: &str,
    conn: usize,
    seed: u64,
    snaps: &[PolicySnapshot],
    refs: &[Vec<u8>],
    start: Instant,
    end: Instant,
    direct: bool,
    tracer: Option<&Tracer>,
) -> Tally {
    let mut t = Tally::default();
    let mut k = 0u64;
    while Instant::now() < end {
        k += 1;
        let t0 = Instant::now();
        let hello = if direct {
            sess.hello(POLICY, PROFILE, seed).map(|_| ())
        } else {
            sess.route_hello(key(seed, conn, k), POLICY, PROFILE, seed)
                .map(|_| ())
        };
        let t1 = Instant::now();
        let mut ok = hello.is_ok();
        let mut decide = [0.0; SNAPSHOTS];
        if ok {
            for snap in &snaps[..SNAPSHOTS] {
                ok &= sess.submit(snap).is_ok();
            }
            ok &= sess.flush().is_ok();
        }
        for (i, slot) in decide.iter_mut().enumerate() {
            if !ok {
                break;
            }
            match sess.collect() {
                Ok(d) => {
                    *slot = us(t1.elapsed());
                    if !matches(d, &refs[i]) {
                        t.failed += 1;
                        t.problems.push(format!("session {k} decision {i} differs"));
                        ok = false;
                    }
                }
                Err(_) => ok = false,
            }
        }
        let t2 = Instant::now();
        let ended = ok && sess.end_session().ok() == Some(SNAPSHOTS as u64);
        let t3 = Instant::now();
        if !ended {
            t.failed += 1;
            if t.problems.len() < 8 {
                t.problems
                    .push(format!("session {k} on connection {conn} was lost"));
            }
            // The connection state is unknown: start over on a new one.
            match ClientSession::connect_raw(addr) {
                Ok(s) => *sess = s.with_window(SNAPSHOTS),
                Err(_) => return t,
            }
            continue;
        }
        t.sessions += 1;
        t.setup_us.push(us(t1 - t0));
        let at = (t3 - start).as_secs_f64();
        t.decide_us.extend(decide.iter().map(|&d| (at, d)));
        t.end_us.push(us(t3 - t2));
        t.done.push((at, 1));
        if let Some(tr) = tracer.filter(|_| k.is_multiple_of(8)) {
            let id = tr.id();
            let req = key(seed, conn, k);
            for (name, a, b) in [
                ("router.route_hello", t0, t1),
                ("client.collect", t1, t2),
                ("router.end_session", t2, t3),
            ] {
                t.spans.push(Span {
                    name,
                    id: tr.id(),
                    parent: id,
                    req,
                    start_ns: tr.at(a),
                    end_ns: tr.at(b),
                });
            }
            t.spans.push(Span {
                name: "client.session",
                id,
                parent: 0,
                req,
                start_ns: tr.at(t0),
                end_ns: tr.at(t3),
            });
        }
    }
    t
}

/// Runs `churn` on every connection in parallel, one sweep job each.
#[allow(clippy::too_many_arguments)]
fn phase(
    exec: &Executor,
    addr: &str,
    conns: Vec<ClientSession>,
    opts: &Opts,
    snaps: &[PolicySnapshot],
    refs: &[Vec<u8>],
    secs: f64,
    direct: bool,
    tracer: &Tracer,
    traced: bool,
) -> (Vec<ClientSession>, Vec<Tally>, f64) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let (conns, tallies): (Vec<_>, Vec<_>) = exec
        .run_ordered(conns, |conn, mut sess| {
            let s = tracer.now_ns();
            let tr = traced.then_some(tracer);
            let mut t = churn(
                &mut sess, addr, conn, opts.seed, snaps, refs, start, end, direct, tr,
            );
            t.span = (s, tracer.now_ns());
            (sess, t)
        })
        .into_iter()
        .unzip();
    (conns, tallies, start.elapsed().as_secs_f64())
}

/// Merged numbers of one phase.
struct Merged {
    sessions: u64,
    decide_us: Vec<(f64, f64)>,
    setup_us: Vec<f64>,
    end_us: Vec<f64>,
    rate: f64,
    wall_s: f64,
    jobs_ns: u64,
    straggler_s: f64,
    spans: Vec<Span>,
}

fn merge(tallies: Vec<Tally>, wall_s: f64, out: &mut Outcome) -> Merged {
    let mut m = Merged {
        sessions: 0,
        decide_us: Vec::new(),
        setup_us: Vec::new(),
        end_us: Vec::new(),
        rate: 0.0,
        wall_s,
        jobs_ns: 0,
        straggler_s: 0.0,
        spans: Vec::new(),
    };
    let mut done = Vec::new();
    let mut ends = Vec::new();
    for mut t in tallies {
        out.attempted += t.sessions + t.failed;
        out.failed += t.failed;
        out.problems.append(&mut t.problems);
        m.sessions += t.sessions;
        m.decide_us.append(&mut t.decide_us);
        m.setup_us.append(&mut t.setup_us);
        m.end_us.append(&mut t.end_us);
        m.spans.append(&mut t.spans);
        done.append(&mut t.done);
        m.jobs_ns += t.span.1 - t.span.0;
        ends.push(t.span.1);
    }
    ends.sort_unstable();
    if let [.., a, b] = ends.as_slice() {
        m.straggler_s = (b - a) as f64 / 1e9;
    }
    m.rate = median(&slice_rates(&done, wall_s, 0.25));
    m
}

/// The recorded stream and the reference decisions of its first
/// [`SNAPSHOTS`] snapshots.
struct Inputs {
    snaps: Vec<PolicySnapshot>,
    refs: Vec<Vec<u8>>,
}

/// One set-up: record the input stream, compute the reference
/// decisions, start both shards and the router, and connect. Returns
/// the seconds it took with what it built.
fn set_up(opts: &Opts, record_secs: u64) -> Result<(f64, Inputs, Stack), String> {
    let t = Instant::now();
    let snaps = mobicore_serve::record_snapshots(
        PROFILE,
        crate::serving::SCENARIO,
        opts.seed,
        record_secs,
    )?;
    let refs = reference(&snaps[..SNAPSHOTS], None);
    let stack = Stack::up(opts)?;
    Ok((t.elapsed().as_secs_f64(), Inputs { snaps, refs }, stack))
}

/// Runs the workload.
///
/// # Errors
///
/// A shard or the router could not be bound, or a connection failed.
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
        Size::Full => 2,
        Size::Tiny => 1,
    };
    // Set-up, after one untimed warm-up: timed once here and once more
    // before each slice of the measured phase, so its median sees the
    // same host as the measurement does. Extra stacks are torn down
    // untimed.
    set_up(opts, record_secs)?.2.down();
    let (t, Inputs { snaps, refs }, stack) = set_up(opts, record_secs)?;
    let mut setup = vec![t];
    out.info(
        "reference_digest",
        hex(crate::measure::digest(&refs.concat())),
    );

    let exec = Executor::new(opts.jobs);
    let tracer = Tracer::default();
    let total = opts.measure.as_secs_f64();
    let host = HostSampler::start();
    let Stack {
        conns,
        router,
        shards,
    } = stack;
    let addr = router.local_addr().to_string();
    // Untraced, the whole run measures; traced, a tenth each goes to the
    // traced and the direct-to-shard phases.
    let plain_s = if opts.trace { total * 0.8 } else { total };
    let slice_s = plain_s / SLICES as f64;
    let mut conns = conns;
    let mut all = Vec::new();
    let mut wall = 0.0;
    for k in 0..SLICES {
        if k > 0 {
            let (t, _, extra) = set_up(opts, record_secs)?;
            setup.push(t);
            extra.down();
        }
        let (c, mut tallies, w) = phase(
            &exec, &addr, conns, opts, &snaps, &refs, slice_s, false, &tracer, false,
        );
        conns = c;
        // One timeline across the slices, for the windowed quantiles.
        for t in &mut tallies {
            t.done.iter_mut().for_each(|d| d.0 += wall);
            t.decide_us.iter_mut().for_each(|d| d.0 += wall);
        }
        wall += w;
        all.extend(tallies);
    }
    let setup_s = median(&setup);
    let plain = merge(all, wall, &mut out);
    // The traced run sends the same session mix through the router with
    // spans on, then straight to one shard for the relay overhead.
    let traced = opts.trace.then(|| {
        let (conns, tallies, wall) = phase(
            &exec,
            &addr,
            conns,
            opts,
            &snaps,
            &refs,
            total * 0.1,
            false,
            &tracer,
            true,
        );
        let traced = merge(tallies, wall, &mut out);
        drop(conns);
        traced
    });
    let direct = if opts.trace {
        let shard = shards[0].local_addr().to_string();
        let conns = (0..opts.jobs)
            .map(|_| ClientSession::connect_raw(&shard).map(|s| s.with_window(SNAPSHOTS)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect shard: {e}"))?;
        let (conns, tallies, wall) = phase(
            &exec,
            &shard,
            conns,
            opts,
            &snaps,
            &refs,
            total * 0.1,
            true,
            &tracer,
            false,
        );
        drop(conns);
        Some(merge(tallies, wall, &mut out))
    } else {
        None
    };
    let usage = host.finish();
    out.host = usage;
    let manifest = manifest_cost(|| router.manifest("perfbench-router-churn"));
    let (rstats, sstats) = Stack {
        conns: Vec::new(),
        router,
        shards,
    }
    .down();
    let relay_errors = rstats.relay_errors;
    if relay_errors > 0 {
        out.fail(
            relay_errors,
            format!("router counted {relay_errors} relay errors"),
        );
    }

    out.named.push("sessions_per_s", plain.rate, "1/s");
    out.named.push(
        "session_setup_p99_us",
        quantile(&plain.setup_us, 0.99),
        "us",
    );
    let decide = values(&plain.decide_us);
    out.named
        .push("decide_p50_us", quantile(&decide, 0.5), "us");
    out.named
        .push("decide_p99_us", quantile(&decide, 0.99), "us");
    usage.report(&mut out.named);
    out.info("sessions", Json::Num(plain.sessions as f64));
    out.info(
        "shard_sessions",
        Json::Arr(
            sstats
                .iter()
                .map(|s| Json::Num(s.sessions as f64))
                .collect(),
        ),
    );

    if !opts.trace {
        out.metrics.push("setup_s", setup_s, "s");
        out.metrics.push("work_per_s", plain.rate, "1/s");
        let lat = |q| windowed_quantile(&plain.decide_us, plain.wall_s, WINDOWS, q);
        out.metrics.push("latency_p50_us", lat(0.5), "us");
        out.metrics.push("latency_p90_us", lat(0.9), "us");
        return Ok(out);
    }

    let traced = traced.expect("traced phase ran");
    let direct = direct.expect("direct phase ran");
    // Policy cost over the session mix: a fresh policy per session,
    // two samples each, timed in process.
    let ledger = Rc::new(RefCell::new(SimLedger::default()));
    for _ in 0..512 {
        if reference(&snaps[..SNAPSHOTS], Some(&ledger)) != refs {
            out.fail(1, "timed in-process replay differs from the plain one");
            break;
        }
    }
    let ledger = ledger.borrow();
    let policy_ns = ledger.policy_hist.quantile(0.5);
    let decide_us = median(&values(&traced.decide_us));
    let m = &mut out.metrics;
    m.push("trace.work_per_s", traced.rate, "1/s");
    m.push(
        "trace.overhead_frac",
        plain.rate / traced.rate - 1.0,
        "frac",
    );
    usage.report(m);
    m.push("policy.on_sample_ns", policy_ns, "ns");
    m.push(
        "policy.on_sample_p99_ns",
        ledger.policy_hist.quantile(0.99),
        "ns",
    );
    m.push("policy.share", policy_ns / 1e3 / decide_us, "frac");
    if !recording_layers(opts.seed, record_secs, &snaps, &mut out.metrics)? {
        out.fail(1, "rebuilt recording differs from record_snapshots");
    }
    let m = &mut out.metrics;
    m.push(
        "sweep.efficiency",
        traced.jobs_ns as f64 / (traced.wall_s * 1e9 * opts.jobs as f64),
        "frac",
    );
    m.push("sweep.straggler_s", traced.straggler_s, "s");
    m.push("telemetry.merge_us", manifest.0, "us");
    m.push("telemetry.manifest_json_us", manifest.1, "us");
    let mut codec = Metrics::default();
    protocol_layers(&snaps[..SNAPSHOTS], &refs, &mut codec);
    m.0.extend(codec.0);
    let n = &mut out.named;
    let opened = rstats.legs_opened as f64;
    let reused = rstats.legs_reused as f64;
    n.push(
        "router.relay_overhead_us",
        median(&decide) - median(&values(&direct.decide_us)),
        "us",
    );
    n.push("router.route_hello_us", median(&traced.setup_us), "us");
    n.push("router.end_session_us", median(&traced.end_us), "us");
    n.push(
        "router.leg_reuse_ratio",
        reused / (opened + reused).max(1.0),
        "frac",
    );
    n.push("router.relay_errors", relay_errors as f64, "count");
    n.push("client.collect_wait_us", decide_us, "us");
    tracer.extend(traced.spans);
    crate::write_spans(&mut out, &tracer, "router-churn", opts.seed);
    Ok(out)
}
