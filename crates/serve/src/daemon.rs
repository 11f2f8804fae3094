//! The daemon runtime shared by the serve and router tiers.
//!
//! Threading model (the `sweep` executor's work-stealing design, lifted
//! from job granularity to connection granularity): one acceptor thread
//! pushes new connections into an injector queue; each of N workers
//! owns a deque of connections and repeatedly runs one tier-specific
//! *service* pass over each. An idle worker steals the back half of
//! the busiest victim's deque. A connection is only ever held by one
//! worker at a time, so per-connection frame ordering is free.
//!
//! A tier plugs in through [`Tier`]: how to open a connection, one
//! service pass, the tier's half of retiring a connection, and its
//! constant strings. The trait is generic, so every per-pass call is
//! monomorphised — no dynamic dispatch sits on the decision path.
//!
//! Graceful drain flips the runtime from running to draining: the
//! acceptor stops, each service pass sends its connection the tier's
//! [`Frame::GoingAway`] once ([`Runtime::notify_drain`]), and whatever
//! is still open at the drain deadline is force-closed
//! ([`Runtime::drain_expired`]), so [`Daemon::drain`] returns within
//! the deadline.

use crate::poll::Backoff;
use crate::protocol::{codes, encode_frame, frame_bytes, Frame};
use mobicore_analyze::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use mobicore_analyze::sync::{lock_unpoisoned, Arc, Mutex};
use mobicore_telemetry::{EventData, RunManifest, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

/// What one tier (serve or router) plugs into the runtime. `Self` is
/// the tier's shared state, reachable from every pass as
/// [`Runtime::tier`].
pub(crate) trait Tier: Sized + Send + Sync + 'static {
    /// One accepted connection, built around its client [`Link`].
    type Conn: Send + 'static;
    /// Tier state kept under the runtime's telemetry lock, so one
    /// update can touch it and the telemetry together.
    type Slots: Default + Send + 'static;
    /// Counter prefix (`<NAME>.conns`), thread-name prefix
    /// (`<NAME>-accept`, `<NAME>-worker-<i>`) and manifest `kind`.
    const NAME: &'static str;
    /// The reason carried by the drain notice.
    const GOING_AWAY: &'static str;
    /// The message of the `SERVER_FULL` refusal past the connection
    /// cap.
    const CAP_REFUSAL: &'static str;

    /// Wraps a freshly accepted and admitted connection.
    fn open(link: Link) -> Self::Conn;

    /// One service pass over a connection.
    fn service(rt: &Runtime<Self>, conn: &mut Self::Conn) -> Service;

    /// The tier's half of retiring a closed connection. Returns the
    /// client link, whose close the runtime then accounts.
    fn finalize<'c>(rt: &Runtime<Self>, conn: &'c mut Self::Conn) -> &'c mut Link;
}

/// The outcome of one service pass.
pub(crate) enum Service {
    /// Keep the connection; `progress` says whether any bytes or
    /// frames moved (an all-idle batch backs the worker off).
    Keep { progress: bool },
    /// Retire the connection.
    Close,
}

/// One non-blocking socket with its staging buffers, frame counts and
/// the timestamps the idle and write timeouts run on. Every accepted
/// connection is built around one; a router's shard leg is one too
/// (conn id 0, only the socket and buffers used).
pub(crate) struct Link {
    pub(crate) stream: TcpStream,
    pub(crate) conn_id: u64,
    /// Inbound staging; `rbuf[rpos..]` is not yet consumed.
    pub(crate) rbuf: Vec<u8>,
    pub(crate) rpos: usize,
    /// Pending output; `wbuf[wpos..]` is not yet sent.
    pub(crate) wbuf: Vec<u8>,
    pub(crate) wpos: usize,
    pub(crate) frames_in: u64,
    pub(crate) frames_out: u64,
    /// The peer has closed its write side.
    pub(crate) eof: bool,
    drain_notified: bool,
    pub(crate) last_read: Instant,
    pub(crate) last_write_progress: Instant,
}

impl Link {
    pub(crate) fn new(stream: TcpStream, conn_id: u64) -> Link {
        let now = Instant::now();
        Link {
            stream,
            conn_id,
            rbuf: Vec::new(),
            rpos: 0,
            wbuf: Vec::new(),
            wpos: 0,
            frames_in: 0,
            frames_out: 0,
            eof: false,
            drain_notified: false,
            last_read: now,
            last_write_progress: now,
        }
    }

    /// Queues one frame for the peer.
    pub(crate) fn send(&mut self, frame: &Frame) {
        encode_frame(frame, &mut self.wbuf);
        self.frames_out += 1;
    }

    /// The unconsumed input.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.rbuf[self.rpos..]
    }

    /// Bytes queued but not yet sent.
    pub(crate) fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The write pump: writes as much pending output as the socket
    /// accepts in one coalesced burst. Returns `None` when the
    /// connection is dead, otherwise whether any bytes moved.
    pub(crate) fn pump_out(&mut self, now: Instant) -> Option<bool> {
        let mut progress = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return None,
                Ok(n) => {
                    self.wpos += n;
                    self.last_write_progress = now;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Some(progress)
    }

    /// The read pump: pulls from the socket until `cap` unconsumed
    /// bytes are staged or it runs dry, recording EOF. Returns `None`
    /// on a dead connection, otherwise whether any bytes moved.
    pub(crate) fn pump_in(&mut self, cap: usize, now: Instant) -> Option<bool> {
        let mut scratch = [0u8; 16 * 1024];
        let mut progress = false;
        while self.rbuf.len() - self.rpos < cap {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_read = now;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        Some(progress)
    }

    /// Compacts the input staging once consumed (or once the dead
    /// prefix grows past 64 KiB).
    pub(crate) fn compact(&mut self) {
        if self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        } else if self.rpos > 64 * 1024 {
            self.rbuf.drain(..self.rpos);
            self.rpos = 0;
        }
    }
}

/// The telemetry and the tier's slots, under one lock.
struct Telem<S> {
    tel: Telemetry,
    slots: S,
}

/// State shared by the acceptor, the workers and the handle.
pub(crate) struct Runtime<T: Tier> {
    /// The tier's own shared state.
    pub(crate) tier: T,
    /// Open connections past this are refused with `SERVER_FULL`.
    max_conns: usize,
    drain_deadline: Duration,
    conns_counter: String,
    state: AtomicU8,
    start: Instant,
    telemetry: Mutex<Telem<T::Slots>>,
    injector: Mutex<VecDeque<T::Conn>>,
    /// Connections accepted but not yet retired; the drain exit waits
    /// for zero.
    live: AtomicUsize,
    /// Connections open, counted against the cap.
    pub(crate) active: AtomicUsize,
    next_conn: AtomicU64,
    /// Connections accepted, refused ones included.
    pub(crate) accepted: AtomicU64,
    /// Set once, when drain begins.
    drain_deadline_at: OnceLock<Instant>,
}

impl<T: Tier> Runtime<T> {
    /// Whether drain has begun.
    pub(crate) fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_DRAINING
    }

    /// Microseconds since bind — the telemetry clock.
    fn t_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Emits one telemetry event.
    pub(crate) fn emit(&self, data: EventData) {
        let t = self.t_us();
        if let Ok(mut guard) = self.telemetry.lock() {
            guard.tel.emit(t, data);
        }
    }

    /// Bumps counter `name`.
    pub(crate) fn count(&self, name: &str, by: u64) {
        if let Ok(mut guard) = self.telemetry.lock() {
            guard.tel.count(name, by);
        }
    }

    /// Runs `f` over the telemetry and the tier's slots under one lock.
    pub(crate) fn with_telemetry(&self, f: impl FnOnce(&mut Telemetry, &mut T::Slots)) {
        if let Ok(mut guard) = self.telemetry.lock() {
            let Telem { tel, slots } = &mut *guard;
            f(tel, slots);
        }
    }

    /// Once drain has begun, queues the tier's [`Frame::GoingAway`] on
    /// `link` (once per connection). Returns whether it queued one.
    pub(crate) fn notify_drain(&self, link: &mut Link) -> bool {
        if link.drain_notified || !self.draining() {
            return false;
        }
        link.drain_notified = true;
        link.send(&Frame::GoingAway {
            reason: T::GOING_AWAY.to_string(),
        });
        true
    }

    /// Whether the drain deadline has passed, so a connection must
    /// close now.
    pub(crate) fn drain_expired(&self, now: Instant) -> bool {
        self.drain_deadline_at.get().is_some_and(|d| now >= *d)
    }

    /// The run manifest (`kind` = [`Tier::NAME`]): uptime, telemetry
    /// metric rollups and event counts, plus the tier's tags.
    pub(crate) fn manifest(
        &self,
        name: &str,
        policy: &str,
        tags: BTreeMap<String, String>,
    ) -> RunManifest {
        let (metrics, event_counts) = match self.telemetry.lock() {
            Ok(t) => (t.tel.metrics().rollups(), t.tel.event_counts()),
            Err(_) => (BTreeMap::new(), BTreeMap::new()),
        };
        RunManifest {
            kind: T::NAME.to_string(),
            name: name.to_string(),
            policy: policy.to_string(),
            profile: "multi".to_string(),
            seed: 0,
            duration_us: self.t_us(),
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts,
        }
    }

    /// The telemetry event stream as JSONL.
    pub(crate) fn events_jsonl(&self) -> String {
        self.telemetry
            .lock()
            .map(|t| t.tel.events_jsonl())
            .unwrap_or_default()
    }

    /// Retires a closed connection: the tier's finalize, then the
    /// close accounting.
    fn retire(&self, conn: &mut T::Conn) {
        let link = T::finalize(self, conn);
        self.emit(EventData::ConnClosed {
            conn: link.conn_id,
            frames_in: link.frames_in,
            frames_out: link.frames_out,
        });
        // relaxed: admission gate only; an off-by-one race at the cap is
        // benign (one connection briefly over/under the limit).
        self.active.fetch_sub(1, Ordering::Relaxed);
        // Release pairs with the Acquire load in worker_loop's drain
        // exit: whoever observes live == 0 also observes every counter
        // update the tier made for this connection. Downgrading this to
        // Relaxed is caught by protocols::serve::check_drain_stats_exact.
        self.live.fetch_sub(1, Ordering::Release);
        let _ = link.stream.shutdown(std::net::Shutdown::Both);
    }
}

fn worker_loop<T: Tier>(rt: &Runtime<T>, deques: &[Arc<Mutex<VecDeque<T::Conn>>>], me: usize) {
    let own = &deques[me];
    let mut idle = Backoff::new();
    loop {
        // Adopt newly accepted connections.
        {
            let mut injector = lock_unpoisoned(rt.injector.lock());
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
            if rt.draining() && rt.live.load(Ordering::Acquire) == 0 {
                return;
            }
            idle.wait();
            continue;
        }
        let mut any_progress = false;
        for _ in 0..batch {
            let Some(mut conn) = lock_unpoisoned(own.lock()).pop_front() else {
                break; // a thief got there first
            };
            match T::service(rt, &mut conn) {
                Service::Keep { progress } => {
                    any_progress |= progress;
                    lock_unpoisoned(own.lock()).push_back(conn);
                }
                Service::Close => {
                    rt.retire(&mut conn);
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

fn acceptor_loop<T: Tier>(rt: &Runtime<T>, listener: &TcpListener) {
    let mut idle = Backoff::new();
    loop {
        if rt.draining() {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                idle.reset();
                // relaxed: id allocation only needs atomicity, not ordering.
                let conn_id = rt.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
                // relaxed: monotonic counter; published by the Release
                // decrement of live when the connection retires.
                rt.accepted.fetch_add(1, Ordering::Relaxed);
                rt.emit(EventData::ConnAccepted { conn: conn_id });
                rt.count(&rt.conns_counter, 1);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                // relaxed: admission gate only; a stale read briefly over-
                // or under-admits by one connection, which is benign.
                if rt.active.load(Ordering::Relaxed) >= rt.max_conns {
                    // Refuse politely: best-effort error frame, then drop.
                    let refusal = frame_bytes(&Frame::Error {
                        code: codes::SERVER_FULL,
                        message: T::CAP_REFUSAL.to_string(),
                    });
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = stream.write_all(&refusal);
                    rt.emit(EventData::ConnClosed {
                        conn: conn_id,
                        frames_in: 0,
                        frames_out: 1,
                    });
                    continue;
                }
                // relaxed: admission gate only; see the cap check above.
                rt.active.fetch_add(1, Ordering::Relaxed);
                rt.live.fetch_add(1, Ordering::AcqRel);
                lock_unpoisoned(rt.injector.lock()).push_back(T::open(Link::new(stream, conn_id)));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => idle.wait(),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => idle.wait(),
        }
    }
}

/// A bound, running daemon: the acceptor and worker threads plus the
/// state they share. Dropping it drains gracefully.
pub(crate) struct Daemon<T: Tier> {
    rt: Arc<Runtime<T>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Tier> Daemon<T> {
    /// Binds `addr` and starts the acceptor and `workers` (≥ 1) worker
    /// threads.
    pub(crate) fn bind(
        addr: &str,
        tier: T,
        workers: usize,
        max_conns: usize,
        drain_deadline: Duration,
    ) -> std::io::Result<Daemon<T>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let rt = Arc::new(Runtime {
            tier,
            max_conns,
            drain_deadline,
            conns_counter: format!("{}.conns", T::NAME),
            state: AtomicU8::new(STATE_RUNNING),
            start: Instant::now(),
            telemetry: Mutex::new(Telem {
                tel: Telemetry::enabled(),
                slots: T::Slots::default(),
            }),
            injector: Mutex::new(VecDeque::new()),
            live: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            drain_deadline_at: OnceLock::new(),
        });
        let workers = workers.max(1);
        let deques: Vec<Arc<Mutex<VecDeque<T::Conn>>>> = (0..workers)
            .map(|_| Arc::new(Mutex::new(VecDeque::new())))
            .collect();
        let acceptor = {
            let rt = Arc::clone(&rt);
            std::thread::Builder::new()
                .name(format!("{}-accept", T::NAME))
                .spawn(move || acceptor_loop(&rt, &listener))?
        };
        let workers = (0..workers)
            .map(|i| {
                let rt = Arc::clone(&rt);
                let deques = deques.clone();
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", T::NAME))
                    .spawn(move || worker_loop(&rt, &deques, i))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Daemon {
            rt,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address.
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    pub(crate) fn rt(&self) -> &Runtime<T> {
        &self.rt
    }

    /// Begins drain (once: sets the deadline and emits
    /// `serve-shutdown`), then joins every thread. Idempotent.
    pub(crate) fn drain(&mut self) {
        let rt = &self.rt;
        if rt.state.swap(STATE_DRAINING, Ordering::AcqRel) == STATE_RUNNING {
            let _ = rt.drain_deadline_at.set(Instant::now() + rt.drain_deadline);
            let active = rt.live.load(Ordering::Acquire);
            rt.emit(EventData::ServeShutdown {
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

impl<T: Tier> Drop for Daemon<T> {
    fn drop(&mut self) {
        self.drain();
    }
}
