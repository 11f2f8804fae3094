//! The `mobicore-serve` daemon: a TCP policy-decision server
//! multiplexing many device sessions over a fixed worker pool.
//!
//! The acceptor, the work-stealing worker pool and drain are the
//! shared daemon runtime's (`daemon.rs`); this module is the serve
//! tier plugged into it. Each service pass over a session flushes
//! pending writes, reads available bytes, decodes up to the
//! per-session frame budget, runs the session's policy and queues the
//! responses. A session is only ever held by one worker at a time, so
//! per-session frame ordering is free and no decision can be reordered
//! or dropped by construction.
//!
//! Backpressure is two-layered: a session that pipelines more complete
//! frames than its budget gets a [`Frame::Backpressure`] notice on the
//! rising edge (decisions keep flowing — nothing is dropped), and the
//! bounded read buffer stops pulling from the socket so TCP flow
//! control pushes back on a peer that ignores the notice. A peer that
//! stops *reading* for longer than the write timeout is closed as a
//! slow consumer rather than ballooning the write buffer.
//!
//! Graceful shutdown flips the daemon into drain: the acceptor stops,
//! every in-flight session is told [`Frame::GoingAway`], sessions that
//! finish with Bye/ByeAck drain cleanly, and whatever is still open at
//! the drain deadline is force-closed — so [`Server::drain`] returns
//! within the configured deadline.

use crate::daemon::{Daemon, Link, Runtime, Service, Tier};
use crate::protocol::{codes, decode_frame, has_complete_frame, Frame, PROTOCOL_VERSION};
use crate::registry;
use mobicore_analyze::sync::atomic::{AtomicU64, Ordering};
use mobicore_sim::{CpuControl, CpuPolicy};
use mobicore_telemetry::{CounterSlot, EventData, HistogramSlot, RunManifest};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Tuning knobs of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Session-servicing worker threads.
    pub workers: usize,
    /// Accept cap: connections past this are refused with `SERVER_FULL`.
    pub max_sessions: usize,
    /// Per-service-pass frame budget; pipelining past it raises
    /// backpressure.
    pub queue_budget: usize,
    /// Bound on buffered unparsed input per session, bytes; once full,
    /// the server stops reading and TCP flow control takes over.
    pub read_buf_cap: usize,
    /// Bound on buffered unsent output per session, bytes; a peer that
    /// lets it fill is closed as a slow consumer.
    pub write_buf_cap: usize,
    /// Close a session when no frame arrives for this long.
    pub idle_timeout: Duration,
    /// Close a session when its pending output makes no progress for
    /// this long.
    pub write_timeout: Duration,
    /// How long graceful shutdown waits for in-flight sessions.
    pub drain_deadline: Duration,
    /// Pipelining window advertised in HelloAck: the most snapshots a
    /// client should keep in flight before collecting decisions.
    /// Advisory — the server's own pacing is `queue_budget` per
    /// service pass either way.
    pub pipeline_window: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: mobicore_sweep::default_jobs(),
            max_sessions: 4096,
            queue_budget: 64,
            read_buf_cap: 256 * 1024,
            write_buf_cap: 1024 * 1024,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            pipeline_window: 32,
        }
    }
}

impl ServeConfig {
    /// Overrides the worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Overrides the drain deadline.
    #[must_use]
    pub fn with_drain_deadline(mut self, d: Duration) -> Self {
        self.drain_deadline = d;
        self
    }

    /// Overrides the idle timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }

    /// Overrides the per-session frame budget (clamped to ≥ 1).
    #[must_use]
    pub fn with_queue_budget(mut self, n: usize) -> Self {
        self.queue_budget = n.max(1);
        self
    }

    /// Overrides the advertised pipelining window (clamped to ≥ 1).
    #[must_use]
    pub fn with_pipeline_window(mut self, n: usize) -> Self {
        self.pipeline_window = n.max(1);
        self
    }
}

/// Aggregate accounting returned by [`Server::stats`] and
/// [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions that completed a handshake.
    pub sessions: u64,
    /// Decisions served.
    pub decisions: u64,
    /// Sessions that ended with a clean Bye/ByeAck.
    pub drained_sessions: u64,
    /// Sessions closed any other way (error, timeout, drain deadline).
    pub aborted_sessions: u64,
    /// Rising-edge backpressure notices sent.
    pub backpressure_events: u64,
    /// Frames rejected by the codec.
    pub protocol_errors: u64,
    /// Connections still open.
    pub active_conns: u64,
}

/// The slots of the per-decision metrics, kept under the telemetry
/// lock so a decision updates all three metrics at once.
#[derive(Clone, Copy)]
struct DecisionSlots {
    decisions: CounterSlot,
    notes: CounterSlot,
    decision_us: HistogramSlot,
}

/// The serve tier's shared state.
struct ServeTier {
    cfg: ServeConfig,
    next_session: AtomicU64,
    sessions: AtomicU64,
    decisions: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
    backpressure: AtomicU64,
    protocol_errors: AtomicU64,
}

type Rt = Runtime<ServeTier>;

/// One served decision: `serve.decisions`, `serve.notes` and
/// `serve.decision_us` under a single lock, by slot.
fn record_decision(rt: &Rt, notes: u64, service_us: f64) {
    rt.with_telemetry(|tel, decision| {
        let Some(m) = tel.metrics_mut() else {
            return;
        };
        let slots = *decision.get_or_insert_with(|| DecisionSlots {
            decisions: m.counter_slot("serve.decisions"),
            notes: m.counter_slot("serve.notes"),
            decision_us: m.histogram_slot("serve.decision_us"),
        });
        m.inc_at(slots.decisions, 1);
        m.inc_at(slots.notes, notes);
        m.record_at(slots.decision_us, service_us);
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessState {
    AwaitHello,
    Streaming,
    /// Flush pending output, then close.
    Closing,
}

struct Session {
    link: Link,
    session_id: u64,
    state: SessState,
    policy: Option<Box<dyn CpuPolicy + Send>>,
    ctl: CpuControl,
    decisions: u64,
    last_seq: Option<u64>,
    backpressured: bool,
}

impl Session {
    fn fail(&mut self, code: u16, message: &str) {
        self.link.send(&Frame::Error {
            code,
            message: message.to_string(),
        });
        self.state = SessState::Closing;
    }
}

impl Tier for ServeTier {
    type Conn = Session;
    /// Resolved on the first decision, so a server that served nothing
    /// keeps the same manifest.
    type Slots = Option<DecisionSlots>;
    const NAME: &'static str = "serve";
    const GOING_AWAY: &'static str = "server is shutting down";
    const CAP_REFUSAL: &'static str = "session cap reached";

    fn open(link: Link) -> Session {
        Session {
            link,
            session_id: 0,
            state: SessState::AwaitHello,
            policy: None,
            ctl: CpuControl::new(),
            decisions: 0,
            last_seq: None,
            backpressured: false,
        }
    }

    /// One service pass over a session. Returns whether to keep it.
    fn service(rt: &Rt, sess: &mut Session) -> Service {
        let cfg = &rt.tier.cfg;
        let mut progress = false;
        let now = Instant::now();

        // 1. Flush output left over from the previous pass.
        match sess.link.pump_out(now) {
            None => return Service::Close,
            Some(p) => progress |= p,
        }
        if sess.link.unsent() > cfg.write_buf_cap {
            // Peer has stopped reading; don't balloon the buffer.
            return Service::Close;
        }

        // 2. A closing session lives only until its output is flushed.
        if sess.state == SessState::Closing {
            if sess.link.wbuf.is_empty() {
                return Service::Close;
            }
            if now.duration_since(sess.link.last_write_progress) > cfg.write_timeout {
                return Service::Close;
            }
            return Service::Keep { progress };
        }

        // 3. Drain notice (once) when shutdown begins; force-close at the
        // drain deadline.
        progress |= rt.notify_drain(&mut sess.link);
        if rt.drain_expired(now) {
            return Service::Close;
        }

        // 4. Pull whatever the socket has, up to the buffer bound.
        match sess.link.pump_in(cfg.read_buf_cap, now) {
            None => return Service::Close,
            Some(p) => progress |= p,
        }

        // 5. Decode and serve up to the session's frame budget.
        let mut served = 0usize;
        while served < cfg.queue_budget && sess.state != SessState::Closing {
            match decode_frame(sess.link.pending()) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    sess.link.rpos += used;
                    sess.link.frames_in += 1;
                    served += 1;
                    progress = true;
                    handle_frame(sess, rt, frame);
                }
                Err(err) => {
                    // relaxed: monotonic counter; published by the Release
                    // decrement of the live count when the connection retires.
                    rt.tier.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    rt.count("serve.protocol_errors", 1);
                    sess.fail(codes::MALFORMED, &err.to_string());
                }
            }
        }
        sess.link.compact();

        // 6. Rising-edge backpressure when the peer pipelines past the
        // budget. Nothing is dropped — the surplus is served next pass.
        if sess.state == SessState::Streaming {
            if has_complete_frame(sess.link.pending()) {
                if !sess.backpressured {
                    sess.backpressured = true;
                    let queued = count_complete_frames(sess.link.pending());
                    // relaxed: monotonic counter; published by the Release
                    // decrement of the live count when the connection retires.
                    rt.tier.backpressure.fetch_add(1, Ordering::Relaxed);
                    rt.count("serve.backpressure", 1);
                    rt.emit(EventData::Backpressure {
                        session: sess.session_id,
                        queued,
                        limit: cfg.queue_budget as u64,
                    });
                    sess.link.send(&Frame::Backpressure {
                        queued: u32::try_from(queued).unwrap_or(u32::MAX),
                        limit: u32::try_from(cfg.queue_budget).unwrap_or(u32::MAX),
                    });
                }
            } else {
                sess.backpressured = false;
            }
        }

        // 7. Flush what this pass produced: every decision served in step
        // 5 leaves in one coalesced write *now*, not at the top of the
        // next pass (which may be a poll-sleep away). This flush point
        // plus the client's corked submit batches is what amortizes
        // syscalls across pipelined frames.
        if sess.link.unsent() > 0 {
            match sess.link.pump_out(now) {
                None => return Service::Close,
                Some(p) => progress |= p,
            }
        }

        // 8. EOF once everything buffered has been served and flushed.
        if sess.link.eof && !has_complete_frame(sess.link.pending()) {
            if sess.link.wbuf.is_empty() {
                return Service::Close;
            }
            sess.state = SessState::Closing;
            return Service::Keep { progress };
        }

        // 9. Idle timeout.
        if sess.state != SessState::Closing
            && now.duration_since(sess.link.last_read) > cfg.idle_timeout
        {
            sess.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
        }

        Service::Keep { progress }
    }

    fn finalize<'c>(rt: &Rt, sess: &'c mut Session) -> &'c mut Link {
        // A session still open at connection close did not Bye cleanly.
        end_session(sess, rt, false);
        &mut sess.link
    }
}

fn count_complete_frames(mut buf: &[u8]) -> u64 {
    let mut n = 0;
    while has_complete_frame(buf) {
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        buf = &buf[4 + len..];
        n += 1;
    }
    n
}

fn handle_frame(sess: &mut Session, rt: &Rt, frame: Frame) {
    match (sess.state, frame) {
        (
            SessState::AwaitHello,
            Frame::Hello {
                version,
                policy,
                profile,
                ..
            },
        ) => {
            if version != PROTOCOL_VERSION {
                sess.fail(
                    codes::VERSION_MISMATCH,
                    &format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
                );
                return;
            }
            let Some(device) = registry::profile_by_name(&profile) else {
                sess.fail(
                    codes::UNKNOWN_PROFILE,
                    &format!("unknown profile `{profile}`"),
                );
                return;
            };
            let Some(resolved) = registry::build_policy(&policy, &device) else {
                sess.fail(codes::UNKNOWN_POLICY, &format!("unknown policy `{policy}`"));
                return;
            };
            // relaxed: id allocation only needs atomicity, not ordering.
            // Distinct from conn_id: one hot connection can carry many
            // sessions back to back (ByeAck returns to AwaitHello).
            sess.session_id = rt.tier.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let name = resolved.name().to_string();
            let sampling_us = resolved.sampling_period_us();
            sess.policy = Some(resolved);
            sess.state = SessState::Streaming;
            // relaxed: monotonic counter; published by the Release
            // decrement of the live count when the connection retires.
            rt.tier.sessions.fetch_add(1, Ordering::Relaxed);
            rt.count("serve.sessions", 1);
            rt.emit(EventData::SessionStart {
                session: sess.session_id,
                policy: name.clone(),
            });
            sess.link.send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
                session: sess.session_id,
                policy: name,
                sampling_us,
                window: u32::try_from(rt.tier.cfg.pipeline_window).unwrap_or(u32::MAX),
            });
        }
        (SessState::Streaming, Frame::Snapshot { seq, snap }) => {
            if sess.last_seq.is_some_and(|last| seq <= last) {
                sess.fail(
                    codes::BAD_SEQ,
                    &format!("sequence number {seq} did not increase"),
                );
                return;
            }
            sess.last_seq = Some(seq);
            let t0 = Instant::now();
            let Some(policy) = sess.policy.as_mut() else {
                sess.fail(codes::BAD_STATE, "no policy bound");
                return;
            };
            policy.on_sample(&snap, &mut sess.ctl);
            let commands = sess.ctl.take();
            let notes = sess.ctl.take_notes();
            let service_us = t0.elapsed().as_secs_f64() * 1e6;
            sess.decisions += 1;
            // relaxed: monotonic counter; published by the Release
            // decrement of the live count when the connection retires
            // (model-checked: protocols::serve::check_drain_stats_exact).
            rt.tier.decisions.fetch_add(1, Ordering::Relaxed);
            record_decision(rt, notes.len() as u64, service_us);
            sess.link.send(&Frame::Decision {
                seq,
                commands,
                notes,
            });
        }
        (_, Frame::Bye) => {
            sess.link.send(&Frame::ByeAck {
                decisions: sess.decisions,
            });
            end_session(sess, rt, true);
            // Hot connection reuse: unless draining, the connection
            // returns to AwaitHello so a router (or fleet client) can
            // start the next device session without a fresh TCP
            // handshake — and without exhausting ephemeral ports at
            // 100k+ sessions.
            sess.state = if rt.draining() {
                SessState::Closing
            } else {
                SessState::AwaitHello
            };
        }
        (_, Frame::Error { .. }) => {
            // The peer has given up; nothing left to say.
            sess.state = SessState::Closing;
        }
        (state, frame) => {
            sess.fail(
                codes::BAD_STATE,
                &format!("frame {} not legal in state {state:?}", frame_name(&frame)),
            );
        }
    }
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
        Frame::Hello { .. } => "Hello",
        Frame::HelloAck { .. } => "HelloAck",
        Frame::Snapshot { .. } => "Snapshot",
        Frame::Decision { .. } => "Decision",
        Frame::Backpressure { .. } => "Backpressure",
        Frame::Bye => "Bye",
        Frame::ByeAck { .. } => "ByeAck",
        Frame::GoingAway { .. } => "GoingAway",
        Frame::Error { .. } => "Error",
        Frame::Route { .. } => "Route",
        Frame::Routed { .. } => "Routed",
    }
}

/// Accounts the end of one session (clean Bye/ByeAck or not) and
/// resets the per-session state so the connection can host another.
fn end_session(sess: &mut Session, rt: &Rt, clean: bool) {
    if sess.session_id == 0 {
        return;
    }
    let ended = if clean {
        &rt.tier.drained
    } else {
        &rt.tier.aborted
    };
    // relaxed: monotonic counter; published by the Release decrement
    // of the live count when the connection retires.
    ended.fetch_add(1, Ordering::Relaxed);
    rt.emit(EventData::SessionEnd {
        session: sess.session_id,
        decisions: sess.decisions,
        drained: clean,
    });
    sess.session_id = 0;
    sess.policy = None;
    sess.decisions = 0;
    sess.last_seq = None;
    sess.backpressured = false;
}

/// A bound, running daemon. Dropping it drains gracefully (same as
/// [`Server::shutdown`]).
pub struct Server {
    daemon: Daemon<ServeTier>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the acceptor and
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the socket errors of binding or configuring the
    /// listener.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let (workers, cap, deadline) = (cfg.workers, cfg.max_sessions, cfg.drain_deadline);
        let tier = ServeTier {
            cfg,
            next_session: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        };
        Ok(Server {
            daemon: Daemon::bind(addr, tier, workers, cap, deadline)?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        // A live snapshot is advisory by contract: each counter is
        // internally consistent, cross-counter skew is acceptable while
        // sessions are in flight. The *final* stats read after
        // `Server::drain` is exact because every worker's Release
        // decrement of the runtime's live count (and the join itself)
        // happens-before it — model-checked in
        // `mobicore_analyze::protocols::serve::check_drain_stats_exact`.
        let rt = self.daemon.rt();
        let t = &rt.tier;
        ServeStats {
            sessions: t.sessions.load(Ordering::Relaxed), // relaxed: advisory snapshot (see above)
            decisions: t.decisions.load(Ordering::Relaxed), // relaxed: advisory snapshot
            drained_sessions: t.drained.load(Ordering::Relaxed), // relaxed: advisory snapshot
            aborted_sessions: t.aborted.load(Ordering::Relaxed), // relaxed: advisory snapshot
            backpressure_events: t.backpressure.load(Ordering::Relaxed), // relaxed: advisory snapshot
            protocol_errors: t.protocol_errors.load(Ordering::Relaxed), // relaxed: advisory snapshot
            active_conns: rt.active.load(Ordering::Relaxed) as u64, // relaxed: advisory snapshot
        }
    }

    /// Builds the daemon's run manifest (`kind: "serve"`): uptime,
    /// telemetry metric rollups, and event counts — the artifact
    /// `mobicore-inspect` renders and diffs. Call [`Server::drain`]
    /// first for a manifest that covers the whole run, drain included.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let rt = self.daemon.rt();
        let cfg = &rt.tier.cfg;
        let tags = BTreeMap::from([
            ("workers".to_string(), cfg.workers.to_string()),
            ("max_sessions".to_string(), cfg.max_sessions.to_string()),
            ("queue_budget".to_string(), cfg.queue_budget.to_string()),
            (
                "pipeline_window".to_string(),
                cfg.pipeline_window.to_string(),
            ),
        ]);
        rt.manifest(name, "multi", tags)
    }

    /// The daemon's telemetry event stream as JSONL.
    pub fn events_jsonl(&self) -> String {
        self.daemon.rt().events_jsonl()
    }

    /// Graceful drain: stop accepting, tell every session
    /// [`Frame::GoingAway`], serve until each finishes or the drain
    /// deadline passes, then join all threads and return the final
    /// stats. Idempotent; the handle stays readable afterwards, so the
    /// manifest can be built from the drained daemon.
    pub fn drain(&mut self) -> ServeStats {
        self.daemon.drain();
        self.stats()
    }

    /// [`Server::drain`], consuming the handle.
    pub fn shutdown(mut self) -> ServeStats {
        self.drain()
    }
}
