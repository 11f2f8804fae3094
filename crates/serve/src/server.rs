//! The `mobicore-serve` daemon: a TCP policy-decision server
//! multiplexing many device sessions over a fixed worker pool.
//!
//! Threading model (the `sweep` executor's work-stealing design, lifted
//! from job granularity to session granularity): one acceptor thread
//! pushes new connections into an injector queue; each of N workers
//! owns a deque of sessions and repeatedly *services* them — flush
//! pending writes, read available bytes, decode up to the per-session
//! frame budget, run the session's policy, queue responses. An idle
//! worker steals the back half of a victim's deque. A session is only
//! ever held by one worker at a time, so per-session frame ordering is
//! free and no decision can be reordered or dropped by construction.
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
//! the drain deadline is force-closed — so `shutdown()` returns within
//! the configured deadline.

use crate::poll::Backoff;
use crate::protocol::{
    codes, decode_frame, encode_frame, has_complete_frame, Frame, PROTOCOL_VERSION,
};
use crate::registry;
use mobicore_analyze::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use mobicore_analyze::sync::{lock_unpoisoned, Arc, Mutex};
use mobicore_sim::{CpuControl, CpuPolicy};
use mobicore_telemetry::{CounterSlot, EventData, HistogramSlot, RunManifest, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

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

/// Aggregate accounting returned by [`ServerHandle::stats`] and
/// [`ServerHandle::shutdown`].
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

/// The daemon's telemetry plus the slots of its per-decision metrics,
/// under one lock so a decision updates all three metrics at once.
struct ServeTelemetry {
    tel: Telemetry,
    /// Resolved on the first decision, so a server that served nothing
    /// keeps the same manifest.
    decision: Option<DecisionSlots>,
}

#[derive(Clone, Copy)]
struct DecisionSlots {
    decisions: CounterSlot,
    notes: CounterSlot,
    decision_us: HistogramSlot,
}

struct Shared {
    cfg: ServeConfig,
    state: AtomicU8,
    start: Instant,
    telemetry: Mutex<ServeTelemetry>,
    injector: Mutex<VecDeque<Session>>,
    live_sessions: AtomicUsize,
    active_conns: AtomicUsize,
    next_conn: AtomicU64,
    next_session: AtomicU64,
    sessions: AtomicU64,
    decisions: AtomicU64,
    drained: AtomicU64,
    aborted: AtomicU64,
    backpressure: AtomicU64,
    protocol_errors: AtomicU64,
    drain_deadline_at: Mutex<Option<Instant>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
    }

    fn t_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn emit(&self, data: EventData) {
        let t = self.t_us();
        if let Ok(mut guard) = self.telemetry.lock() {
            guard.tel.emit(t, data);
        }
    }

    fn count(&self, name: &str, by: u64) {
        if let Ok(mut guard) = self.telemetry.lock() {
            guard.tel.count(name, by);
        }
    }

    /// One served decision: `serve.decisions`, `serve.notes` and
    /// `serve.decision_us` under a single lock, by slot.
    fn record_decision(&self, notes: u64, service_us: f64) {
        let Ok(mut guard) = self.telemetry.lock() else {
            return;
        };
        let ServeTelemetry { tel, decision } = &mut *guard;
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
    }

    fn stats(&self) -> ServeStats {
        // A live snapshot is advisory by contract: each counter is
        // internally consistent, cross-counter skew is acceptable
        // while sessions are in flight. The *final* stats read in
        // `begin_drain_and_join` is exact because every worker's
        // Release decrement of `live_sessions` (and the join itself)
        // happens-before it — model-checked in
        // `mobicore_analyze::protocols::serve::check_drain_stats_exact`.
        ServeStats {
            sessions: self.sessions.load(Ordering::Relaxed), // relaxed: advisory snapshot (see above)
            decisions: self.decisions.load(Ordering::Relaxed), // relaxed: advisory snapshot
            drained_sessions: self.drained.load(Ordering::Relaxed), // relaxed: advisory snapshot
            aborted_sessions: self.aborted.load(Ordering::Relaxed), // relaxed: advisory snapshot
            backpressure_events: self.backpressure.load(Ordering::Relaxed), // relaxed: advisory snapshot
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed), // relaxed: advisory snapshot
            active_conns: self.active_conns.load(Ordering::Relaxed) as u64, // relaxed: advisory snapshot
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessState {
    AwaitHello,
    Streaming,
    /// Flush pending output, then close.
    Closing,
}

struct Session {
    stream: TcpStream,
    conn_id: u64,
    session_id: u64,
    state: SessState,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    policy: Option<Box<dyn CpuPolicy + Send>>,
    ctl: CpuControl,
    decisions: u64,
    frames_in: u64,
    frames_out: u64,
    last_seq: Option<u64>,
    backpressured: bool,
    eof: bool,
    drain_notified: bool,
    last_read: Instant,
    last_write_progress: Instant,
}

impl Session {
    fn new(stream: TcpStream, conn_id: u64) -> Self {
        let now = Instant::now();
        Session {
            stream,
            conn_id,
            session_id: 0,
            state: SessState::AwaitHello,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            policy: None,
            ctl: CpuControl::new(),
            decisions: 0,
            frames_in: 0,
            frames_out: 0,
            last_seq: None,
            backpressured: false,
            eof: false,
            drain_notified: false,
            last_read: now,
            last_write_progress: now,
        }
    }

    fn send(&mut self, frame: &Frame) {
        encode_frame(frame, &mut self.wbuf);
        self.frames_out += 1;
    }

    fn fail(&mut self, code: u16, message: &str) {
        self.send(&Frame::Error {
            code,
            message: message.to_string(),
        });
        self.state = SessState::Closing;
    }

    fn pending_input(&self) -> &[u8] {
        &self.rbuf[self.rpos..]
    }
}

enum Service {
    Keep { progress: bool },
    Close,
}

/// Writes as much pending output as the socket accepts in one
/// coalesced burst. Returns `None` when the connection is dead,
/// otherwise whether any bytes moved.
fn flush_output(sess: &mut Session, now: Instant) -> Option<bool> {
    let mut progress = false;
    while sess.wpos < sess.wbuf.len() {
        match sess.stream.write(&sess.wbuf[sess.wpos..]) {
            Ok(0) => return None,
            Ok(n) => {
                sess.wpos += n;
                sess.last_write_progress = now;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    if sess.wpos == sess.wbuf.len() && sess.wpos > 0 {
        sess.wbuf.clear();
        sess.wpos = 0;
    }
    Some(progress)
}

/// One service pass over a session. Returns whether to keep it.
fn service(sess: &mut Session, shared: &Shared) -> Service {
    let mut progress = false;
    let now = Instant::now();

    // 1. Flush output left over from the previous pass.
    match flush_output(sess, now) {
        None => return Service::Close,
        Some(p) => progress |= p,
    }
    if sess.wbuf.len() - sess.wpos > shared.cfg.write_buf_cap {
        // Peer has stopped reading; don't balloon the buffer.
        return Service::Close;
    }

    // 2. A closing session lives only until its output is flushed.
    if sess.state == SessState::Closing {
        if sess.wbuf.is_empty() {
            return Service::Close;
        }
        if now.duration_since(sess.last_write_progress) > shared.cfg.write_timeout {
            return Service::Close;
        }
        return Service::Keep { progress };
    }

    // 3. Drain notice (once) when shutdown begins.
    if shared.draining() {
        if !sess.drain_notified {
            sess.drain_notified = true;
            sess.send(&Frame::GoingAway {
                reason: "server is shutting down".to_string(),
            });
            progress = true;
        }
        let deadline = shared.drain_deadline_at.lock().ok().and_then(|d| *d);
        if deadline.is_some_and(|d| now >= d) {
            return Service::Close;
        }
    }

    // 4. Pull whatever the socket has, up to the buffer bound.
    let mut scratch = [0u8; 16 * 1024];
    while sess.rbuf.len() - sess.rpos < shared.cfg.read_buf_cap {
        match sess.stream.read(&mut scratch) {
            Ok(0) => {
                sess.eof = true;
                break;
            }
            Ok(n) => {
                sess.rbuf.extend_from_slice(&scratch[..n]);
                sess.last_read = now;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Service::Close,
        }
    }

    // 5. Decode and serve up to the session's frame budget.
    let mut served = 0usize;
    while served < shared.cfg.queue_budget && sess.state != SessState::Closing {
        match decode_frame(sess.pending_input()) {
            Ok(None) => break,
            Ok(Some((frame, used))) => {
                sess.rpos += used;
                sess.frames_in += 1;
                served += 1;
                progress = true;
                handle_frame(sess, shared, frame);
            }
            Err(err) => {
                // relaxed: monotonic counter; published by the Release
                // decrement of live_sessions when the session retires.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                shared.count("serve.protocol_errors", 1);
                sess.fail(codes::MALFORMED, &err.to_string());
            }
        }
    }
    if sess.rpos == sess.rbuf.len() {
        sess.rbuf.clear();
        sess.rpos = 0;
    } else if sess.rpos > 64 * 1024 {
        sess.rbuf.drain(..sess.rpos);
        sess.rpos = 0;
    }

    // 6. Rising-edge backpressure when the peer pipelines past the
    // budget. Nothing is dropped — the surplus is served next pass.
    if sess.state == SessState::Streaming {
        if has_complete_frame(sess.pending_input()) {
            if !sess.backpressured {
                sess.backpressured = true;
                let queued = count_complete_frames(sess.pending_input());
                // relaxed: monotonic counter; published by the Release
                // decrement of live_sessions when the session retires.
                shared.backpressure.fetch_add(1, Ordering::Relaxed);
                shared.count("serve.backpressure", 1);
                shared.emit(EventData::Backpressure {
                    session: sess.session_id,
                    queued,
                    limit: shared.cfg.queue_budget as u64,
                });
                sess.send(&Frame::Backpressure {
                    queued: u32::try_from(queued).unwrap_or(u32::MAX),
                    limit: u32::try_from(shared.cfg.queue_budget).unwrap_or(u32::MAX),
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
    if sess.wpos < sess.wbuf.len() {
        match flush_output(sess, now) {
            None => return Service::Close,
            Some(p) => progress |= p,
        }
    }

    // 8. EOF once everything buffered has been served and flushed.
    if sess.eof && !has_complete_frame(sess.pending_input()) {
        if sess.wbuf.is_empty() {
            return Service::Close;
        }
        sess.state = SessState::Closing;
        return Service::Keep { progress };
    }

    // 9. Idle timeout.
    if sess.state != SessState::Closing
        && now.duration_since(sess.last_read) > shared.cfg.idle_timeout
    {
        sess.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
    }

    Service::Keep { progress }
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

fn handle_frame(sess: &mut Session, shared: &Shared, frame: Frame) {
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
            sess.session_id = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
            let name = resolved.name().to_string();
            let sampling_us = resolved.sampling_period_us();
            sess.policy = Some(resolved);
            sess.state = SessState::Streaming;
            // relaxed: monotonic counter; published by the Release
            // decrement of live_sessions when the session retires.
            shared.sessions.fetch_add(1, Ordering::Relaxed);
            shared.count("serve.sessions", 1);
            shared.emit(EventData::SessionStart {
                session: sess.session_id,
                policy: name.clone(),
            });
            sess.send(&Frame::HelloAck {
                version: PROTOCOL_VERSION,
                session: sess.session_id,
                policy: name,
                sampling_us,
                window: u32::try_from(shared.cfg.pipeline_window).unwrap_or(u32::MAX),
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
            // decrement of live_sessions when the session retires
            // (model-checked: protocols::serve::check_drain_stats_exact).
            shared.decisions.fetch_add(1, Ordering::Relaxed);
            shared.record_decision(notes.len() as u64, service_us);
            sess.send(&Frame::Decision {
                seq,
                commands,
                notes,
            });
        }
        (_, Frame::Bye) => {
            sess.send(&Frame::ByeAck {
                decisions: sess.decisions,
            });
            end_session(sess, shared, true);
            // Hot connection reuse: unless draining, the connection
            // returns to AwaitHello so a router (or fleet client) can
            // start the next device session without a fresh TCP
            // handshake — and without exhausting ephemeral ports at
            // 100k+ sessions.
            sess.state = if shared.draining() {
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
fn end_session(sess: &mut Session, shared: &Shared, clean: bool) {
    if sess.session_id == 0 {
        return;
    }
    if clean {
        // relaxed: monotonic counter; published by the Release
        // decrement of live_sessions when the connection retires.
        shared.drained.fetch_add(1, Ordering::Relaxed);
    } else {
        // relaxed: monotonic counter; published by the Release
        // decrement of live_sessions when the connection retires.
        shared.aborted.fetch_add(1, Ordering::Relaxed);
    }
    shared.emit(EventData::SessionEnd {
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

fn finalize(sess: &mut Session, shared: &Shared) {
    // A session still open at connection close did not Bye cleanly.
    end_session(sess, shared, false);
    shared.emit(EventData::ConnClosed {
        conn: sess.conn_id,
        frames_in: sess.frames_in,
        frames_out: sess.frames_out,
    });
    // relaxed: admission gate only; an off-by-one race at the cap is
    // benign (one connection briefly over/under the limit).
    shared.active_conns.fetch_sub(1, Ordering::Relaxed);
    // Release pairs with the Acquire load in worker_loop's drain exit:
    // whoever observes live_sessions == 0 also observes every counter
    // update this session made above. Downgrading this to Relaxed is
    // caught by protocols::serve::check_drain_stats_exact.
    shared.live_sessions.fetch_sub(1, Ordering::Release);
    let _ = sess.stream.shutdown(std::net::Shutdown::Both);
}

fn worker_loop(shared: &Arc<Shared>, deques: &[Arc<Mutex<VecDeque<Session>>>], me: usize) {
    let own = &deques[me];
    let mut idle = Backoff::new();
    loop {
        // Adopt newly accepted sessions.
        {
            let mut injector = lock_unpoisoned(shared.injector.lock());
            if !injector.is_empty() {
                let mut q = lock_unpoisoned(own.lock());
                q.append(&mut injector);
            }
        }
        // Steal the back half of the busiest victim when idle.
        if lock_unpoisoned(own.lock()).is_empty() {
            let victim = deques
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != me)
                .max_by_key(|(_, d)| d.lock().map(|q| q.len()).unwrap_or(0));
            if let Some((_, victim)) = victim {
                let stolen = {
                    let mut q = lock_unpoisoned(victim.lock());
                    let keep = q.len() / 2;
                    q.split_off(keep)
                };
                if !stolen.is_empty() {
                    lock_unpoisoned(own.lock()).extend(stolen);
                }
            }
        }
        let batch = lock_unpoisoned(own.lock()).len();
        if batch == 0 {
            if shared.draining() && shared.live_sessions.load(Ordering::Acquire) == 0 {
                return;
            }
            idle.wait();
            continue;
        }
        let mut any_progress = false;
        for _ in 0..batch {
            let Some(mut sess) = lock_unpoisoned(own.lock()).pop_front() else {
                break; // a thief got there first
            };
            match service(&mut sess, shared) {
                Service::Keep { progress } => {
                    any_progress |= progress;
                    lock_unpoisoned(own.lock()).push_back(sess);
                }
                Service::Close => {
                    finalize(&mut sess, shared);
                    any_progress = true;
                }
            }
        }
        if any_progress {
            idle.reset();
        } else {
            idle.wait();
        }
    }
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut idle = Backoff::new();
    loop {
        if shared.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle.reset();
                // relaxed: id allocation only needs atomicity, not ordering.
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
                shared.emit(EventData::ConnAccepted { conn: conn_id });
                shared.count("serve.conns", 1);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let mut sess = Session::new(stream, conn_id);
                // relaxed: admission gate only; a stale read briefly over-
                // or under-admits by one connection, which is benign.
                if shared.active_conns.load(Ordering::Relaxed) >= shared.cfg.max_sessions {
                    // Refuse politely: best-effort error frame, then drop.
                    sess.fail(codes::SERVER_FULL, "session cap reached");
                    let _ = sess.stream.set_nonblocking(false);
                    let _ = sess
                        .stream
                        .set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = sess.stream.write_all(&sess.wbuf);
                    shared.emit(EventData::ConnClosed {
                        conn: conn_id,
                        frames_in: 0,
                        frames_out: 1,
                    });
                    continue;
                }
                // relaxed: admission gate only; see the cap check above.
                shared.active_conns.fetch_add(1, Ordering::Relaxed);
                shared.live_sessions.fetch_add(1, Ordering::AcqRel);
                lock_unpoisoned(shared.injector.lock()).push_back(sess);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => idle.wait(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => idle.wait(),
        }
    }
}

/// A bound, running daemon. Dropping the handle shuts it down
/// gracefully (same as [`ServerHandle::shutdown`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Alias kept for readability at call sites: [`Server::bind`] returns
/// the handle you shut down.
pub type ServerHandle = Server;

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the acceptor and
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Propagates the socket errors of binding or configuring the
    /// listener.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            state: AtomicU8::new(STATE_RUNNING),
            start: Instant::now(),
            telemetry: Mutex::new(ServeTelemetry {
                tel: Telemetry::enabled(),
                decision: None,
            }),
            injector: Mutex::new(VecDeque::new()),
            live_sessions: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            backpressure: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            drain_deadline_at: Mutex::new(None),
        });
        let deques: Vec<Arc<Mutex<VecDeque<Session>>>> = (0..workers)
            .map(|_| Arc::new(Mutex::new(VecDeque::new())))
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let deques = deques.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &deques, i))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Builds the daemon's run manifest (`kind: "serve"`): uptime,
    /// telemetry metric rollups, and event counts — the artifact
    /// `mobicore-inspect` renders and diffs.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let shared = &self.shared;
        let (metrics, event_counts) = match shared.telemetry.lock() {
            Ok(t) => (t.tel.metrics().rollups(), t.tel.event_counts()),
            Err(_) => (BTreeMap::new(), BTreeMap::new()),
        };
        let mut tags = BTreeMap::new();
        tags.insert("workers".to_string(), shared.cfg.workers.to_string());
        tags.insert(
            "max_sessions".to_string(),
            shared.cfg.max_sessions.to_string(),
        );
        tags.insert(
            "queue_budget".to_string(),
            shared.cfg.queue_budget.to_string(),
        );
        tags.insert(
            "pipeline_window".to_string(),
            shared.cfg.pipeline_window.to_string(),
        );
        RunManifest {
            kind: "serve".to_string(),
            name: name.to_string(),
            policy: "multi".to_string(),
            profile: "multi".to_string(),
            seed: 0,
            duration_us: shared.t_us(),
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts,
        }
    }

    /// The daemon's telemetry event stream as JSONL.
    pub fn events_jsonl(&self) -> String {
        self.shared
            .telemetry
            .lock()
            .map(|t| t.tel.events_jsonl())
            .unwrap_or_default()
    }

    /// Graceful shutdown: stop accepting, tell every session
    /// [`Frame::GoingAway`], serve until each finishes or the drain
    /// deadline passes, then join all threads and return the final
    /// stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_drain_and_join();
        self.shared.stats()
    }

    fn begin_drain_and_join(&mut self) {
        if self.shared.state.swap(STATE_DRAINING, Ordering::AcqRel) == STATE_RUNNING {
            if let Ok(mut d) = self.shared.drain_deadline_at.lock() {
                *d = Some(Instant::now() + self.shared.cfg.drain_deadline);
            }
            let active = self.shared.live_sessions.load(Ordering::Acquire);
            self.shared.emit(EventData::ServeShutdown {
                active_sessions: active as u64,
            });
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain_and_join();
    }
}
