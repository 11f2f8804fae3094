//! The `mobicore-router` tier: a shard router that binds device
//! sessions to `mobicore-serve` shards by rendezvous hashing and
//! relays frames between them.
//!
//! A client opens one connection to the router and sends
//! [`Frame::Route`] with its session key; the router picks the shard
//! by highest-random-weight (rendezvous) hashing over the *stable
//! shard names* — not their addresses, so ephemeral ports do not
//! perturb placement — answers [`Frame::Routed`], and from then on
//! relays bytes both ways without decoding payloads. Only the frame
//! *boundaries* are parsed: the router watches the client leg for the
//! next `Route` (a session boundary — held back, never forwarded) and
//! the shard leg for `ByeAck` (the session is over — the shard
//! connection detaches into a per-shard pool and is reused hot for
//! the next session, which the serve tier supports by returning to
//! `AwaitHello` after `ByeAck`).
//!
//! Backpressure propagates by construction: both relay directions run
//! through bounded buffers, and a full buffer stops reads from the
//! opposite socket so TCP flow control pushes back on the true
//! producer. A shard leg that dies mid-session surfaces as a
//! [`codes::SHARD_UNAVAILABLE`] error frame to the client rather than
//! a silent hangup.
//!
//! The acceptor, the work-stealing worker pool and drain are the
//! daemon runtime the serve tier also runs (`daemon.rs`); this module
//! is the relay tier plugged into it.

use crate::daemon::{Daemon, Link, Runtime, Service, Tier};
use crate::protocol::{
    codes, decode_frame, has_complete_frame, peek_frame_type, Frame, MAX_FRAME_LEN, TY_ROUTE,
};
use mobicore_analyze::sync::atomic::{AtomicU64, Ordering};
use mobicore_analyze::sync::{lock_unpoisoned, Mutex};
use mobicore_telemetry::{EventData, RunManifest};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The frame types owned by the router tier (checked against
/// `docs/serving.md` by the `registry-doc-sync` lint).
pub const ROUTER_FRAMES: [&str; 2] = ["Route", "Routed"];

/// One serve shard the router can bind sessions to.
///
/// The `name` is the identity: rendezvous hashing runs over names, so
/// session placement is a pure function of `(key, shard names)` and
/// survives address changes (and OS-assigned ports) unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Stable shard identity, e.g. `"s0"`.
    pub name: String,
    /// Dial address, e.g. `"127.0.0.1:7401"`.
    pub addr: String,
}

impl Shard {
    /// Parses the CLI form `NAME=ADDR`.
    pub fn parse(spec: &str) -> Option<Shard> {
        let (name, addr) = spec.split_once('=')?;
        if name.is_empty() || addr.is_empty() {
            return None;
        }
        Some(Shard {
            name: name.to_string(),
            addr: addr.to_string(),
        })
    }
}

/// `splitmix64` finalizer: a cheap, well-mixed bijection on `u64`.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a shard name, used as the per-shard half of the
/// rendezvous weight.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Picks the shard for `key` by rendezvous (highest-random-weight)
/// hashing: every `(key, name)` pair gets a weight and the highest
/// wins. Returns the index into `names`, or `None` when empty.
///
/// Properties the proptests hold:
/// - deterministic: the same `(key, names-as-a-set)` always picks the
///   same *name*, in any order the list is given;
/// - minimal remap: removing one shard only moves the keys that were
///   on it;
/// - ties (distinct names hashing to equal weights) break by name, so
///   the winner is still order-independent.
pub fn rendezvous_shard<S: AsRef<str>>(key: u64, names: &[S]) -> Option<usize> {
    let mixed = mix64(key);
    names
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            let (a, b) = (a.as_ref(), b.as_ref());
            let wa = mix64(fnv1a(a.as_bytes()) ^ mixed);
            let wb = mix64(fnv1a(b.as_bytes()) ^ mixed);
            wa.cmp(&wb).then_with(|| a.cmp(b).reverse())
        })
        .map(|(i, _)| i)
}

/// Tuning knobs of one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Relay-servicing worker threads.
    pub workers: usize,
    /// Accept cap: connections past this are refused with
    /// `SERVER_FULL`.
    pub max_conns: usize,
    /// Bound on buffered bytes per relay direction; once full, the
    /// router stops reading the producing socket and TCP flow control
    /// pushes back.
    pub relay_buf_cap: usize,
    /// Close a relay when no client frame arrives for this long.
    pub idle_timeout: Duration,
    /// Close a relay when its pending output makes no progress for
    /// this long.
    pub write_timeout: Duration,
    /// How long graceful shutdown waits for in-flight relays.
    pub drain_deadline: Duration,
    /// Drop a pooled shard leg unused for longer than this instead of
    /// reusing it.
    pub pool_idle: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            workers: mobicore_sweep::default_jobs(),
            max_conns: 4096,
            relay_buf_cap: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            pool_idle: Duration::from_secs(10),
        }
    }
}

impl RouterConfig {
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
}

/// Aggregate accounting returned by [`Router::stats`] and
/// [`Router::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Client connections accepted.
    pub conns: u64,
    /// Sessions bound to a shard (Route frames answered).
    pub routed_sessions: u64,
    /// Fresh TCP connections dialed to shards.
    pub legs_opened: u64,
    /// Sessions served over a pooled (reused) shard leg.
    pub legs_reused: u64,
    /// Relays that ended abnormally (shard loss, protocol error,
    /// timeout).
    pub relay_errors: u64,
    /// Client connections still open.
    pub active_conns: u64,
}

/// A detached, idle shard connection waiting for its next session.
struct PooledLeg {
    leg: Link,
    since: Instant,
}

/// The router tier's shared state.
struct RouterTier {
    cfg: RouterConfig,
    shards: Vec<Shard>,
    names: Vec<String>,
    pools: Vec<Mutex<Vec<PooledLeg>>>,
    routed: AtomicU64,
    legs_opened: AtomicU64,
    legs_reused: AtomicU64,
    relay_errors: AtomicU64,
}

type Rt = Runtime<RouterTier>;

/// A warm leg from the shard's pool, or a fresh blocking dial.
fn acquire_leg(rt: &Rt, shard: usize) -> std::io::Result<Link> {
    let t = &rt.tier;
    loop {
        let pooled = lock_unpoisoned(t.pools[shard].lock()).pop();
        match pooled {
            Some(leg) if leg.since.elapsed() <= t.cfg.pool_idle => {
                // relaxed: monotonic counter; published by the Release
                // decrement of the live count at relay close.
                t.legs_reused.fetch_add(1, Ordering::Relaxed);
                rt.count("router.legs_reused", 1);
                return Ok(leg.leg);
            }
            Some(_stale) => continue, // dropped; dial or try next
            None => break,
        }
    }
    let stream = TcpStream::connect(&t.shards[shard].addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_nonblocking(true)?;
    // relaxed: monotonic counter; published by the Release decrement
    // of the live count at relay close.
    t.legs_opened.fetch_add(1, Ordering::Relaxed);
    rt.count("router.legs_opened", 1);
    Ok(Link::new(stream, 0))
}

/// Returns a healthy leg to its shard's pool for the next session.
fn release_leg(rt: &Rt, shard: usize, leg: Link) {
    if rt.draining() {
        return; // dropping it closes the shard conn promptly
    }
    lock_unpoisoned(rt.tier.pools[shard].lock()).push(PooledLeg {
        leg,
        since: Instant::now(),
    });
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RelayState {
    /// Waiting for the client's next `Route`.
    AwaitRoute,
    /// Bound to a shard; frames relay both ways.
    Active(usize),
    /// Flush client output, then close.
    Closing,
}

struct Relay {
    /// The client: its input is frame-parsed for `Route` boundaries.
    link: Link,
    state: RelayState,
    /// Shard leg for the active session (`None` between sessions): its
    /// output is the router → shard backlog, its input is frame-parsed
    /// for `ByeAck`. Its traffic also stamps the client link's
    /// timestamps, so the idle and write timeouts see both directions.
    leg: Option<Link>,
    clean: bool,
}

impl Relay {
    fn fail(&mut self, code: u16, message: &str) {
        self.link.send(&Frame::Error {
            code,
            message: message.to_string(),
        });
        self.clean = false;
        self.state = RelayState::Closing;
    }

    /// Drops the shard leg (if any) without pooling it.
    fn drop_leg(&mut self) {
        if let Some(leg) = self.leg.take() {
            let _ = leg.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The shard leg died mid-session: tell the client, account the
/// error, close.
fn shard_lost(relay: &mut Relay, rt: &Rt) {
    relay.drop_leg();
    // relaxed: monotonic counter; published by the Release decrement
    // of the live count at relay close.
    rt.tier.relay_errors.fetch_add(1, Ordering::Relaxed);
    rt.count("router.errors", 1);
    relay.fail(
        codes::SHARD_UNAVAILABLE,
        "shard connection lost mid-session",
    );
}

/// Moves complete client frames toward the shard. In `AwaitRoute` the
/// only legal frame is `Route`, which binds a shard (dialing or
/// reusing a leg) and answers `Routed`. In `Active`, whole frames
/// forward verbatim — except the *next* `Route`, which marks a session
/// boundary and stays staged until `ByeAck` detaches the current leg.
fn relay_client_frames(relay: &mut Relay, rt: &Rt) -> bool {
    let t = &rt.tier;
    let mut progress = false;
    loop {
        match relay.state {
            RelayState::AwaitRoute => {
                let frame = match decode_frame(relay.link.pending()) {
                    Ok(None) => break,
                    Ok(Some((frame, used))) => {
                        relay.link.rpos += used;
                        relay.link.frames_in += 1;
                        frame
                    }
                    Err(err) => {
                        relay.fail(codes::MALFORMED, &err.to_string());
                        break;
                    }
                };
                let Frame::Route { key } = frame else {
                    relay.fail(codes::BAD_STATE, "expected Route before session frames");
                    break;
                };
                let Some(idx) = rendezvous_shard(key, &t.names) else {
                    relay.fail(codes::SHARD_UNAVAILABLE, "router has no shards");
                    break;
                };
                match acquire_leg(rt, idx) {
                    Ok(leg) => relay.leg = Some(leg),
                    Err(e) => {
                        // relaxed: monotonic counter; published by the
                        // Release decrement of the live count at close.
                        t.relay_errors.fetch_add(1, Ordering::Relaxed);
                        rt.count("router.errors", 1);
                        relay.fail(
                            codes::SHARD_UNAVAILABLE,
                            &format!("shard `{}` unreachable: {e}", t.names[idx]),
                        );
                        break;
                    }
                }
                relay.state = RelayState::Active(idx);
                // relaxed: monotonic counter; published by the Release
                // decrement of the live count at relay close.
                t.routed.fetch_add(1, Ordering::Relaxed);
                rt.count("router.routed", 1);
                rt.emit(EventData::ShardRouted {
                    conn: relay.link.conn_id,
                    key,
                    shard: t.names[idx].clone(),
                });
                let name = t.names[idx].clone();
                relay.link.send(&Frame::Routed {
                    shard: u32::try_from(idx).unwrap_or(u32::MAX),
                    name,
                });
                progress = true;
            }
            RelayState::Active(_) => {
                // Forward whole frames without decoding payloads; stop
                // at a session boundary (the next Route) or when the
                // shard-bound buffer is full (backpressure).
                let Some(leg) = relay.leg.as_mut() else {
                    break;
                };
                if leg.unsent() >= t.cfg.relay_buf_cap {
                    break;
                }
                let pending = relay.link.pending();
                if pending.len() >= 4 {
                    let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
                    if len == 0 || len > MAX_FRAME_LEN {
                        relay.fail(codes::MALFORMED, "frame length out of bounds");
                        break;
                    }
                }
                match peek_frame_type(pending) {
                    None => break,
                    Some(TY_ROUTE) => break, // next session; wait for ByeAck
                    Some(_) => {
                        let len =
                            u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]])
                                as usize;
                        let total = 4 + len;
                        leg.wbuf.extend_from_slice(
                            &relay.link.rbuf[relay.link.rpos..relay.link.rpos + total],
                        );
                        relay.link.rpos += total;
                        relay.link.frames_in += 1;
                        progress = true;
                    }
                }
            }
            RelayState::Closing => break,
        }
    }
    relay.link.compact();
    progress
}

/// Moves complete shard frames toward the client, watching for
/// `ByeAck`: that ends the session, so the leg detaches back to the
/// shard's pool (when nothing is left in flight on it) and the relay
/// returns to `AwaitRoute` — unblocking any staged next `Route`.
fn relay_shard_frames(relay: &mut Relay, rt: &Rt) -> bool {
    let mut progress = false;
    while let RelayState::Active(idx) = relay.state {
        if relay.link.unsent() >= rt.tier.cfg.relay_buf_cap {
            break; // client isn't keeping up; stop pulling decisions
        }
        let Some(leg) = relay.leg.as_mut() else {
            break;
        };
        let (is_byeack, total) = match decode_frame(leg.pending()) {
            Ok(None) => break,
            Ok(Some((frame, used))) => (matches!(frame, Frame::ByeAck { .. }), used),
            Err(_) => {
                // The shard broke framing — treat the leg as lost.
                shard_lost(relay, rt);
                return true;
            }
        };
        relay
            .link
            .wbuf
            .extend_from_slice(&leg.rbuf[leg.rpos..leg.rpos + total]);
        leg.rpos += total;
        relay.link.frames_out += 1;
        progress = true;
        if is_byeack {
            // Session over. Pool the leg only when it is fully quiet:
            // nothing pending toward the shard and nothing buffered
            // after the ByeAck.
            if leg.unsent() == 0 && leg.pending().is_empty() {
                leg.compact();
                if let Some(leg) = relay.leg.take() {
                    release_leg(rt, idx, leg);
                }
            } else {
                relay.drop_leg();
            }
            relay.state = RelayState::AwaitRoute;
        }
    }
    if let Some(leg) = relay.leg.as_mut() {
        leg.compact();
    }
    progress
}

/// Flushes both pending outputs: toward the client (`None` when the
/// client is gone) and toward the shard (a dead leg is a lost shard).
fn flush(relay: &mut Relay, rt: &Rt, now: Instant) -> Option<bool> {
    let mut progress = relay.link.pump_out(now)?;
    match relay.leg.as_mut().map(|leg| leg.pump_out(now)) {
        Some(None) => {
            shard_lost(relay, rt);
            progress = true;
        }
        Some(Some(true)) => {
            relay.link.last_write_progress = now;
            progress = true;
        }
        Some(Some(false)) | None => {}
    }
    Some(progress)
}

impl Tier for RouterTier {
    type Conn = Relay;
    type Slots = ();
    const NAME: &'static str = "router";
    const GOING_AWAY: &'static str = "router is shutting down";
    const CAP_REFUSAL: &'static str = "connection cap reached";

    fn open(link: Link) -> Relay {
        Relay {
            link,
            state: RelayState::AwaitRoute,
            leg: None,
            clean: true,
        }
    }

    /// One service pass over a relay. Returns whether to keep it.
    fn service(rt: &Rt, relay: &mut Relay) -> Service {
        let cfg = &rt.tier.cfg;
        let cap = cfg.relay_buf_cap;
        let mut progress = false;
        let now = Instant::now();

        // 1. Flush both pending outputs from the previous pass.
        match flush(relay, rt, now) {
            None => return Service::Close,
            Some(p) => progress |= p,
        }

        // 2. A closing relay lives only until its client output flushes.
        if relay.state == RelayState::Closing {
            if relay.link.wbuf.is_empty() {
                return Service::Close;
            }
            if now.duration_since(relay.link.last_write_progress) > cfg.write_timeout {
                return Service::Close;
            }
            return Service::Keep { progress };
        }

        // 3. Drain notice (once) when shutdown begins; force-close at the
        // drain deadline.
        progress |= rt.notify_drain(&mut relay.link);
        if rt.drain_expired(now) {
            relay.clean = false;
            return Service::Close;
        }

        // 4. Pull client bytes, bounded by the staging cap *and* the
        // shard-bound backlog so a stalled shard stops client reads too.
        let shard_backlog = relay.leg.as_ref().map_or(0, Link::unsent);
        if !relay.link.eof && shard_backlog < cap {
            match relay.link.pump_in(cap, now) {
                None => return Service::Close,
                Some(p) => progress |= p,
            }
        }

        // 5. Pull shard bytes, bounded by the client-bound backlog.
        if relay.link.unsent() < cap {
            match relay
                .leg
                .as_mut()
                .map(|leg| (leg.pump_in(cap, now), leg.eof))
            {
                Some((None, _) | (_, true)) => {
                    shard_lost(relay, rt);
                    progress = true;
                }
                Some((Some(true), false)) => {
                    relay.link.last_read = now;
                    progress = true;
                }
                _ => {}
            }
        }

        // 6. Relay frames both directions until neither makes progress —
        // a ByeAck from the shard can unblock a staged Route from the
        // client within the same pass (corked cross-session streaming).
        loop {
            let moved = relay_client_frames(relay, rt) | relay_shard_frames(relay, rt);
            progress |= moved;
            if !moved {
                break;
            }
        }

        // 7. Flush what this pass produced — same coalesced-write contract
        // as the serve tier's end-of-pass flush.
        match flush(relay, rt, now) {
            None => return Service::Close,
            Some(p) => progress |= p,
        }

        // 8. Client EOF: once everything staged has been relayed and the
        // shard owes nothing more (we are between sessions), close.
        if relay.link.eof
            && !has_complete_frame(relay.link.pending())
            && relay.state == RelayState::AwaitRoute
            && relay.link.wbuf.is_empty()
        {
            return Service::Close;
        }

        // 9. Idle timeout.
        if relay.state != RelayState::Closing
            && now.duration_since(relay.link.last_read) > cfg.idle_timeout
        {
            relay.fail(codes::IDLE_TIMEOUT, "no frames within the idle timeout");
        }

        Service::Keep { progress }
    }

    fn finalize<'c>(rt: &Rt, relay: &'c mut Relay) -> &'c mut Link {
        relay.drop_leg();
        if !relay.clean {
            // relaxed: monotonic counter; published by the runtime's
            // Release decrement of the live count right after.
            rt.tier.relay_errors.fetch_add(1, Ordering::Relaxed);
        }
        &mut relay.link
    }
}

/// A bound, running router. Dropping it drains gracefully (same as
/// [`Router::shutdown`]).
pub struct Router {
    daemon: Daemon<RouterTier>,
}

impl Router {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts routing to
    /// `shards`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; rejects an empty shard list or
    /// duplicate shard names with `InvalidInput`.
    pub fn bind(addr: &str, shards: Vec<Shard>, cfg: RouterConfig) -> std::io::Result<Router> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard",
            ));
        }
        let mut seen = shards.iter().map(|s| s.name.clone()).collect::<Vec<_>>();
        seen.sort();
        seen.dedup();
        if seen.len() != shards.len() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "duplicate shard names",
            ));
        }
        let (workers, cap, deadline) = (cfg.workers, cfg.max_conns, cfg.drain_deadline);
        let tier = RouterTier {
            cfg,
            names: shards.iter().map(|s| s.name.clone()).collect(),
            pools: shards.iter().map(|_| Mutex::new(Vec::new())).collect(),
            shards,
            routed: AtomicU64::new(0),
            legs_opened: AtomicU64::new(0),
            legs_reused: AtomicU64::new(0),
            relay_errors: AtomicU64::new(0),
        };
        Ok(Router {
            daemon: Daemon::bind(addr, tier, workers, cap, deadline)?,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.local_addr()
    }

    /// The shard names in configuration order.
    pub fn shard_names(&self) -> &[String] {
        &self.daemon.rt().tier.names
    }

    /// A point-in-time accounting snapshot.
    pub fn stats(&self) -> RouterStats {
        // Advisory snapshot, same contract as ServeStats: exact after
        // drain joins the workers, cross-counter skew tolerated while
        // relays are in flight.
        let rt = self.daemon.rt();
        let t = &rt.tier;
        RouterStats {
            conns: rt.accepted.load(Ordering::Relaxed), // relaxed: advisory snapshot (see above)
            routed_sessions: t.routed.load(Ordering::Relaxed), // relaxed: advisory snapshot
            legs_opened: t.legs_opened.load(Ordering::Relaxed), // relaxed: advisory snapshot
            legs_reused: t.legs_reused.load(Ordering::Relaxed), // relaxed: advisory snapshot
            relay_errors: t.relay_errors.load(Ordering::Relaxed), // relaxed: advisory snapshot
            active_conns: rt.active.load(Ordering::Relaxed) as u64, // relaxed: advisory snapshot
        }
    }

    /// Builds the router's run manifest (`kind: "router"`). Call
    /// [`Router::drain`] first for a manifest that covers the whole
    /// run, drain included.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let rt = self.daemon.rt();
        let tags = BTreeMap::from([
            ("workers".to_string(), rt.tier.cfg.workers.to_string()),
            ("shards".to_string(), rt.tier.names.join(",")),
        ]);
        rt.manifest(name, "relay", tags)
    }

    /// The router's telemetry event stream as JSONL.
    pub fn events_jsonl(&self) -> String {
        self.daemon.rt().events_jsonl()
    }

    /// Graceful drain: stop accepting, tell every relay
    /// [`Frame::GoingAway`], keep relaying until each client finishes
    /// or the drain deadline passes, then join all threads, close
    /// pooled shard legs, and return the final stats. Idempotent; the
    /// handle stays readable afterwards, so the manifest can be built
    /// from the drained router.
    pub fn drain(&mut self) -> RouterStats {
        self.daemon.drain();
        // Dropping pooled legs closes the idle shard connections so the
        // shards themselves can drain promptly.
        for pool in &self.daemon.rt().tier.pools {
            lock_unpoisoned(pool.lock()).clear();
        }
        self.stats()
    }

    /// [`Router::drain`], consuming the handle.
    pub fn shutdown(mut self) -> RouterStats {
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_name_addr() {
        let s = Shard::parse("s0=127.0.0.1:7401").expect("valid spec");
        assert_eq!(s.name, "s0");
        assert_eq!(s.addr, "127.0.0.1:7401");
        assert!(Shard::parse("no-equals").is_none());
        assert!(Shard::parse("=addr").is_none());
        assert!(Shard::parse("name=").is_none());
    }

    #[test]
    fn rendezvous_empty_is_none() {
        let names: [&str; 0] = [];
        assert_eq!(rendezvous_shard(7, &names), None);
    }

    #[test]
    fn rendezvous_single_always_wins() {
        for key in 0..64 {
            assert_eq!(rendezvous_shard(key, &["only"]), Some(0));
        }
    }

    #[test]
    fn rendezvous_is_permutation_invariant() {
        let a = ["s0", "s1", "s2", "s3"];
        let b = ["s3", "s1", "s0", "s2"];
        for key in 0..512u64 {
            let wa = rendezvous_shard(key, &a).map(|i| a[i]);
            let wb = rendezvous_shard(key, &b).map(|i| b[i]);
            assert_eq!(wa, wb, "key {key} moved between orderings");
        }
    }

    #[test]
    fn rendezvous_spreads_keys() {
        let names = ["s0", "s1", "s2", "s3"];
        let mut counts = [0usize; 4];
        for key in 0..4096u64 {
            counts[rendezvous_shard(key, &names).expect("non-empty")] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Perfectly uniform would be 1024 each; allow wide slack.
            assert!(c > 512, "shard {i} starved: {c}/4096");
        }
    }

    #[test]
    fn rendezvous_remap_is_minimal() {
        let full = ["s0", "s1", "s2", "s3"];
        let less = ["s0", "s1", "s3"];
        for key in 0..2048u64 {
            let before = full[rendezvous_shard(key, &full).expect("non-empty")];
            let after = less[rendezvous_shard(key, &less).expect("non-empty")];
            if before != "s2" {
                assert_eq!(before, after, "key {key} moved though its shard survived");
            }
        }
    }
}
