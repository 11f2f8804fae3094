//! The versioned, length-prefixed binary wire protocol of
//! `mobicore-serve`.
//!
//! Framing: every frame is `[len: u32 LE][type: u8][payload]`, where
//! `len` counts the type byte plus the payload (so a frame occupies
//! `4 + len` bytes on the wire) and is capped at [`MAX_FRAME_LEN`].
//! Integers are fixed-width little-endian; strings are a `u16` byte
//! length followed by UTF-8; `f64`s travel as their IEEE-754 bit
//! pattern, so a value decodes to *exactly* the bits the peer encoded —
//! the property that makes remote decisions byte-identical to
//! in-process ones (see docs/serving.md). Decision notes follow the
//! same rules: a tag byte per [`EventKind`], then the variant's fields
//! in declaration order.
//!
//! Decoding never panics: truncated input reports "need more bytes"
//! (`Ok(None)`), and every malformed input yields a typed
//! [`WireError`]. A proptest suite (`tests/proptests.rs`) holds the
//! codec to that contract on arbitrary byte soup.

use mobicore_model::{Khz, Quota, Utilization};
use mobicore_sim::{Command, CoreSnapshot, PolicySnapshot};
use mobicore_telemetry::{EventData, EventKind};

/// Protocol version carried in Hello/HelloAck; bumped on any wire
/// change. Version 2 added the HelloAck pipelining window and the
/// router frames ([`Frame::Route`] / [`Frame::Routed`]); version 3
/// encodes Decision notes as tagged binary instead of JSON lines.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard cap on `len` (type byte + payload). Large enough for a
/// 1024-core snapshot, small enough that a hostile length prefix
/// cannot balloon a read buffer.
pub const MAX_FRAME_LEN: u32 = 1 << 16;

/// Maximum per-snapshot core count the decoder accepts.
pub const MAX_WIRE_CORES: usize = 1 << 10;

/// Maximum commands in one Decision frame.
pub const MAX_WIRE_COMMANDS: usize = 1 << 12;

/// Maximum telemetry notes in one Decision frame.
pub const MAX_WIRE_NOTES: usize = 64;

/// Maximum encoded string length, bytes.
pub const MAX_WIRE_STR: usize = 1 << 12;

/// Error codes carried by [`Frame::Error`].
pub mod codes {
    /// Client and server protocol versions differ.
    pub const VERSION_MISMATCH: u16 = 1;
    /// Hello named a policy the registry cannot build.
    pub const UNKNOWN_POLICY: u16 = 2;
    /// Hello named an unknown device profile.
    pub const UNKNOWN_PROFILE: u16 = 3;
    /// Frame type is valid but not legal in the session's state.
    pub const BAD_STATE: u16 = 4;
    /// Snapshot sequence number did not increase.
    pub const BAD_SEQ: u16 = 5;
    /// The peer sent bytes the codec rejected.
    pub const MALFORMED: u16 = 6;
    /// No frame arrived within the server's idle timeout.
    pub const IDLE_TIMEOUT: u16 = 7;
    /// The server is at its session cap.
    pub const SERVER_FULL: u16 = 8;
    /// The peer stopped reading and its write queue overflowed.
    pub const SLOW_CONSUMER: u16 = 9;
    /// The router could not reach (or lost) the shard a session was
    /// bound to.
    pub const SHARD_UNAVAILABLE: u16 = 10;
}

/// Typed decode failure. Every malformed input maps to one of these;
/// the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// The declared length.
        len: u32,
    },
    /// The length prefix is zero (a frame needs at least its type byte).
    EmptyFrame,
    /// The type byte names no known frame.
    UnknownFrameType(u8),
    /// A field ran past the end of the payload.
    Truncated(&'static str),
    /// The payload had bytes left over after the last field.
    TrailingBytes(&'static str),
    /// A string field was not UTF-8.
    BadUtf8(&'static str),
    /// A bool field held a byte other than 0/1.
    BadBool(&'static str),
    /// A count field exceeded its wire cap.
    TooMany {
        /// Which field.
        what: &'static str,
        /// The declared count.
        got: u64,
    },
    /// A Decision note carried an unknown tag byte.
    UnknownNoteTag(u8),
    /// A Decision command carried an unknown tag byte.
    UnknownCommandTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            WireError::TrailingBytes(frame) => write!(f, "trailing bytes after {frame} frame"),
            WireError::BadUtf8(what) => write!(f, "{what} is not valid UTF-8"),
            WireError::BadBool(what) => write!(f, "{what} is not a 0/1 bool"),
            WireError::TooMany { what, got } => write!(f, "{what} count {got} exceeds wire cap"),
            WireError::UnknownNoteTag(t) => write!(f, "unknown note tag {t:#04x}"),
            WireError::UnknownCommandTag(t) => write!(f, "unknown command tag {t:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol frame. See docs/serving.md for the session state
/// machine that sequences them.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server session open.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Requested policy name (serve registry vocabulary).
        policy: String,
        /// Requested device profile name.
        profile: String,
        /// Client seed, echoed into the session's telemetry.
        seed: u64,
    },
    /// Server → client handshake completion.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u16,
        /// Server-assigned session id.
        session: u64,
        /// The resolved policy name (what `CpuPolicy::name` reports).
        policy: String,
        /// The policy's sampling period, µs — the client-side
        /// `RemotePolicy` mirrors it so a remote run samples exactly
        /// like an in-process one.
        sampling_us: u64,
        /// The server's advertised pipelining window: the most
        /// snapshots a client should keep in flight before collecting
        /// decisions. Clients clamp their configured window to it.
        window: u32,
    },
    /// Client → server: one sampling window's observation.
    Snapshot {
        /// Client sequence number, strictly increasing from 0.
        seq: u64,
        /// The observation, exactly as `CpuPolicy::on_sample` sees it.
        snap: PolicySnapshot,
    },
    /// Server → client: the policy's response to the same-`seq`
    /// Snapshot.
    Decision {
        /// Echo of the Snapshot's sequence number.
        seq: u64,
        /// The commands the policy queued, in issue order.
        commands: Vec<Command>,
        /// The telemetry notes the policy attached, in issue order
        /// (forwarded so remote manifests match in-process ones).
        notes: Vec<EventData>,
    },
    /// Server → client: the session crossed its pipelined-frame budget
    /// (rising edge); sent once per excursion, decisions keep flowing.
    Backpressure {
        /// Complete frames queued beyond the serviced budget.
        queued: u32,
        /// The configured budget.
        limit: u32,
    },
    /// Client → server: clean end of session.
    Bye,
    /// Server → client: session closed, final accounting.
    ByeAck {
        /// Decisions served over the session.
        decisions: u64,
    },
    /// Server → client: the server is draining; finish up.
    GoingAway {
        /// Human-readable reason.
        reason: String,
    },
    /// Either direction: terminal protocol failure.
    Error {
        /// One of [`codes`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Client → router: bind this connection's *next* session to the
    /// shard that owns `key` (rendezvous-hashed over the router's
    /// stable shard names). Sent once before each session's Hello; the
    /// shard daemons themselves reject it as a state error.
    Route {
        /// The session key (device id) to place.
        key: u64,
    },
    /// Router → client: the routing answer for the preceding
    /// [`Frame::Route`]; every later frame until ByeAck relays to (and
    /// from) this shard.
    Routed {
        /// Index of the shard in the router's configured shard list.
        shard: u32,
        /// The shard's stable name (the rendezvous hash input, so the
        /// same key maps to the same name whatever the list order).
        name: String,
    },
}

// The Route tag is pub(crate): the router peeks it to find session
// boundaries in a relayed byte stream without decoding payloads.
const TY_HELLO: u8 = 0x01;
const TY_HELLO_ACK: u8 = 0x02;
const TY_SNAPSHOT: u8 = 0x03;
const TY_DECISION: u8 = 0x04;
const TY_BACKPRESSURE: u8 = 0x05;
const TY_BYE: u8 = 0x06;
const TY_BYE_ACK: u8 = 0x07;
const TY_GOING_AWAY: u8 = 0x08;
const TY_ERROR: u8 = 0x09;
pub(crate) const TY_ROUTE: u8 = 0x0A;
const TY_ROUTED: u8 = 0x0B;

/// The type byte of the complete frame at the front of `buf`, when
/// one is there (framing check only; the payload is not validated).
pub(crate) fn peek_frame_type(buf: &[u8]) -> Option<u8> {
    if has_complete_frame(buf) {
        Some(buf[4])
    } else {
        None
    }
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Encodes `s`, truncating (at a char boundary) to [`MAX_WIRE_STR`]
/// bytes so an encoded frame is always decodable.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_WIRE_STR);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let bytes = &s.as_bytes()[..end];
    // MAX_WIRE_STR < u16::MAX, so the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

fn put_clamped_u32(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).unwrap_or(u32::MAX));
}

fn put_snapshot(out: &mut Vec<u8>, snap: &PolicySnapshot) {
    put_u64(out, snap.now_us);
    put_u64(out, snap.window_us);
    put_f64(out, snap.overall_util.as_fraction());
    put_f64(out, snap.quota.as_fraction());
    put_f64(out, snap.temp_c);
    put_bool(out, snap.mpdecision_enabled);
    put_clamped_u32(out, snap.max_runnable_threads);
    put_u16(
        out,
        u16::try_from(snap.cores.len().min(MAX_WIRE_CORES)).unwrap_or(u16::MAX),
    );
    for core in snap.cores.iter().take(MAX_WIRE_CORES) {
        put_bool(out, core.online);
        put_u32(out, core.cur_khz.0);
        put_u32(out, core.target_khz.0);
        put_f64(out, core.util.as_fraction());
        put_u64(out, core.busy_us);
    }
}

fn put_command(out: &mut Vec<u8>, cmd: &Command) {
    match cmd {
        Command::SetFreq { core, khz } => {
            out.push(0);
            put_clamped_u32(out, *core);
            put_u32(out, khz.0);
        }
        Command::SetFreqAll { khz } => {
            out.push(1);
            put_u32(out, khz.0);
        }
        Command::SetOnline { core, online } => {
            out.push(2);
            put_clamped_u32(out, *core);
            put_bool(out, *online);
        }
        Command::SetQuota(q) => {
            out.push(3);
            put_f64(out, q.as_fraction());
        }
    }
}

/// The wire tag of each note kind. Spelled out rather than taken from
/// the enum's order, so reordering [`EventKind`] cannot silently change
/// the wire; a test pins every value, and the exhaustive match makes a
/// new kind fail to compile until it has a tag.
const fn note_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::FreqChange => 0x00,
        EventKind::CoreOnline => 0x01,
        EventKind::CoreOffline => 0x02,
        EventKind::HotplugVetoed => 0x03,
        EventKind::HotplugDecision => 0x04,
        EventKind::QuotaShrink => 0x05,
        EventKind::QuotaRestore => 0x06,
        EventKind::ThermalThrottle => 0x07,
        EventKind::ThermalClear => 0x08,
        EventKind::BwThrottle => 0x09,
        EventKind::PolicyDecision => 0x0A,
        EventKind::DvfsDecision => 0x0B,
        EventKind::ConnAccepted => 0x0C,
        EventKind::ConnClosed => 0x0D,
        EventKind::SessionStart => 0x0E,
        EventKind::SessionEnd => 0x0F,
        EventKind::Backpressure => 0x10,
        EventKind::ServeShutdown => 0x11,
        EventKind::ShardRouted => 0x12,
        EventKind::FleetShardSummary => 0x13,
    }
}

/// [`note_tag`] inverted: the kind each tag byte names, if any. Built at
/// compile time, which also rejects a tag used twice.
const NOTE_KIND_BY_TAG: [Option<EventKind>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < EventKind::ALL.len() {
        let kind = EventKind::ALL[i];
        let tag = note_tag(kind) as usize;
        assert!(table[tag].is_none(), "two note kinds share a tag");
        table[tag] = Some(kind);
        i += 1;
    }
    table
};

/// Encodes one Decision note: its tag, then its fields in declaration
/// order (`usize` as u64, f64 as IEEE bits, strings via [`put_str`]).
fn put_note(out: &mut Vec<u8>, note: &EventData) {
    out.push(note_tag(note.kind()));
    match note {
        EventData::FreqChange {
            core,
            from_khz,
            to_khz,
            requested_khz,
        } => {
            put_u64(out, *core as u64);
            put_u32(out, *from_khz);
            put_u32(out, *to_khz);
            put_u32(out, *requested_khz);
        }
        EventData::CoreOnline { core } | EventData::CoreOffline { core } => {
            put_u64(out, *core as u64);
        }
        EventData::HotplugVetoed { core, mpdecision } => {
            put_u64(out, *core as u64);
            put_bool(out, *mpdecision);
        }
        EventData::HotplugDecision {
            policy,
            online_now,
            want,
        } => {
            put_str(out, policy);
            put_u64(out, *online_now as u64);
            put_u64(out, *want as u64);
        }
        EventData::QuotaShrink { from, to } | EventData::QuotaRestore { from, to } => {
            put_f64(out, *from);
            put_f64(out, *to);
        }
        EventData::ThermalThrottle { cap_opp, temp_c }
        | EventData::ThermalClear { cap_opp, temp_c } => {
            put_u64(out, *cap_opp as u64);
            put_f64(out, *temp_c);
        }
        EventData::BwThrottle { denied_us } => put_u64(out, *denied_us),
        EventData::PolicyDecision {
            policy,
            mode,
            util_pct,
            quota,
            target_online,
            f_khz,
        } => {
            put_str(out, policy);
            put_str(out, mode);
            put_f64(out, *util_pct);
            put_f64(out, *quota);
            put_u64(out, *target_online as u64);
            put_u32(out, *f_khz);
        }
        EventData::DvfsDecision {
            governor,
            util_pct,
            from_khz,
            to_khz,
        } => {
            put_str(out, governor);
            put_f64(out, *util_pct);
            put_u32(out, *from_khz);
            put_u32(out, *to_khz);
        }
        EventData::ConnAccepted { conn } => put_u64(out, *conn),
        EventData::ConnClosed {
            conn,
            frames_in,
            frames_out,
        } => {
            put_u64(out, *conn);
            put_u64(out, *frames_in);
            put_u64(out, *frames_out);
        }
        EventData::SessionStart { session, policy } => {
            put_u64(out, *session);
            put_str(out, policy);
        }
        EventData::SessionEnd {
            session,
            decisions,
            drained,
        } => {
            put_u64(out, *session);
            put_u64(out, *decisions);
            put_bool(out, *drained);
        }
        EventData::Backpressure {
            session,
            queued,
            limit,
        } => {
            put_u64(out, *session);
            put_u64(out, *queued);
            put_u64(out, *limit);
        }
        EventData::ServeShutdown { active_sessions } => put_u64(out, *active_sessions),
        EventData::ShardRouted { conn, key, shard } => {
            put_u64(out, *conn);
            put_u64(out, *key);
            put_str(out, shard);
        }
        EventData::FleetShardSummary {
            shard,
            sessions,
            decisions,
        } => {
            put_str(out, shard);
            put_u64(out, *sessions);
            put_u64(out, *decisions);
        }
    }
}

/// Appends `frame`'s wire bytes to `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0); // length backpatched below
    match frame {
        Frame::Hello {
            version,
            policy,
            profile,
            seed,
        } => {
            out.push(TY_HELLO);
            put_u16(out, *version);
            put_str(out, policy);
            put_str(out, profile);
            put_u64(out, *seed);
        }
        Frame::HelloAck {
            version,
            session,
            policy,
            sampling_us,
            window,
        } => {
            out.push(TY_HELLO_ACK);
            put_u16(out, *version);
            put_u64(out, *session);
            put_str(out, policy);
            put_u64(out, *sampling_us);
            put_u32(out, *window);
        }
        Frame::Snapshot { seq, snap } => {
            out.push(TY_SNAPSHOT);
            put_u64(out, *seq);
            put_snapshot(out, snap);
        }
        Frame::Decision {
            seq,
            commands,
            notes,
        } => {
            out.push(TY_DECISION);
            put_u64(out, *seq);
            let n = commands.len().min(MAX_WIRE_COMMANDS);
            #[allow(clippy::cast_possible_truncation)]
            put_u16(out, n as u16);
            for cmd in commands.iter().take(n) {
                put_command(out, cmd);
            }
            let n = notes.len().min(MAX_WIRE_NOTES);
            #[allow(clippy::cast_possible_truncation)]
            put_u16(out, n as u16);
            for note in notes.iter().take(n) {
                put_note(out, note);
            }
        }
        Frame::Backpressure { queued, limit } => {
            out.push(TY_BACKPRESSURE);
            put_u32(out, *queued);
            put_u32(out, *limit);
        }
        Frame::Bye => out.push(TY_BYE),
        Frame::ByeAck { decisions } => {
            out.push(TY_BYE_ACK);
            put_u64(out, *decisions);
        }
        Frame::GoingAway { reason } => {
            out.push(TY_GOING_AWAY);
            put_str(out, reason);
        }
        Frame::Error { code, message } => {
            out.push(TY_ERROR);
            put_u16(out, *code);
            put_str(out, message);
        }
        Frame::Route { key } => {
            out.push(TY_ROUTE);
            put_u64(out, *key);
        }
        Frame::Routed { shard, name } => {
            out.push(TY_ROUTED);
            put_u32(out, *shard);
            put_str(out, name);
        }
    }
    let len = out.len() - len_at - 4;
    debug_assert!(
        len <= MAX_FRAME_LEN as usize,
        "encoder stayed under the cap"
    );
    #[allow(clippy::cast_possible_truncation)]
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Convenience: one frame as a fresh byte vector.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    #[inline]
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let (head, tail) = self
            .rest
            .split_at_checked(n)
            .ok_or(WireError::Truncated(what))?;
        self.rest = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated(what))?;
        self.rest = tail;
        Ok(*head)
    }

    #[inline]
    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.array::<1>(what)?[0])
    }

    #[inline]
    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array(what)?))
    }

    #[inline]
    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    #[inline]
    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    #[inline]
    fn usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        Ok(usize::try_from(self.u64(what)?).unwrap_or(usize::MAX))
    }

    #[inline]
    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    #[inline]
    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadBool(what)),
        }
    }

    #[inline]
    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        if len > MAX_WIRE_STR {
            return Err(WireError::TooMany {
                what,
                got: len as u64,
            });
        }
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8(what))
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<PolicySnapshot, WireError> {
    let now_us = r.u64("snapshot.now_us")?;
    let window_us = r.u64("snapshot.window_us")?;
    let overall_util = Utilization::new(r.f64("snapshot.overall_util")?);
    let quota = Quota::new(r.f64("snapshot.quota")?);
    let temp_c = r.f64("snapshot.temp_c")?;
    let mpdecision_enabled = r.bool("snapshot.mpdecision")?;
    let max_runnable_threads = r.u32("snapshot.max_runnable")? as usize;
    let n_cores = r.u16("snapshot.n_cores")? as usize;
    if n_cores > MAX_WIRE_CORES {
        return Err(WireError::TooMany {
            what: "snapshot.n_cores",
            got: n_cores as u64,
        });
    }
    let mut cores = Vec::with_capacity(n_cores);
    for _ in 0..n_cores {
        let online = r.bool("core.online")?;
        let cur_khz = Khz(r.u32("core.cur_khz")?);
        let target_khz = Khz(r.u32("core.target_khz")?);
        let util = Utilization::new(r.f64("core.util")?);
        let busy_us = r.u64("core.busy_us")?;
        cores.push(CoreSnapshot {
            online,
            cur_khz,
            target_khz,
            util,
            busy_us,
        });
    }
    Ok(PolicySnapshot {
        now_us,
        window_us,
        cores,
        overall_util,
        quota,
        mpdecision_enabled,
        max_runnable_threads,
        temp_c,
    })
}

fn read_command(r: &mut Reader<'_>) -> Result<Command, WireError> {
    match r.u8("command.tag")? {
        0 => Ok(Command::SetFreq {
            core: r.u32("command.core")? as usize,
            khz: Khz(r.u32("command.khz")?),
        }),
        1 => Ok(Command::SetFreqAll {
            khz: Khz(r.u32("command.khz")?),
        }),
        2 => Ok(Command::SetOnline {
            core: r.u32("command.core")? as usize,
            online: r.bool("command.online")?,
        }),
        3 => Ok(Command::SetQuota(Quota::new(r.f64("command.quota")?))),
        other => Err(WireError::UnknownCommandTag(other)),
    }
}

fn read_note(r: &mut Reader<'_>) -> Result<EventData, WireError> {
    let tag = r.u8("note.tag")?;
    let kind = NOTE_KIND_BY_TAG[usize::from(tag)].ok_or(WireError::UnknownNoteTag(tag))?;
    Ok(match kind {
        EventKind::FreqChange => EventData::FreqChange {
            core: r.usize("note.core")?,
            from_khz: r.u32("note.from_khz")?,
            to_khz: r.u32("note.to_khz")?,
            requested_khz: r.u32("note.requested_khz")?,
        },
        EventKind::CoreOnline => EventData::CoreOnline {
            core: r.usize("note.core")?,
        },
        EventKind::CoreOffline => EventData::CoreOffline {
            core: r.usize("note.core")?,
        },
        EventKind::HotplugVetoed => EventData::HotplugVetoed {
            core: r.usize("note.core")?,
            mpdecision: r.bool("note.mpdecision")?,
        },
        EventKind::HotplugDecision => EventData::HotplugDecision {
            policy: r.str("note.policy")?,
            online_now: r.usize("note.online_now")?,
            want: r.usize("note.want")?,
        },
        EventKind::QuotaShrink => EventData::QuotaShrink {
            from: r.f64("note.from")?,
            to: r.f64("note.to")?,
        },
        EventKind::QuotaRestore => EventData::QuotaRestore {
            from: r.f64("note.from")?,
            to: r.f64("note.to")?,
        },
        EventKind::ThermalThrottle => EventData::ThermalThrottle {
            cap_opp: r.usize("note.cap_opp")?,
            temp_c: r.f64("note.temp_c")?,
        },
        EventKind::ThermalClear => EventData::ThermalClear {
            cap_opp: r.usize("note.cap_opp")?,
            temp_c: r.f64("note.temp_c")?,
        },
        EventKind::BwThrottle => EventData::BwThrottle {
            denied_us: r.u64("note.denied_us")?,
        },
        EventKind::PolicyDecision => EventData::PolicyDecision {
            policy: r.str("note.policy")?,
            mode: r.str("note.mode")?,
            util_pct: r.f64("note.util_pct")?,
            quota: r.f64("note.quota")?,
            target_online: r.usize("note.target_online")?,
            f_khz: r.u32("note.f_khz")?,
        },
        EventKind::DvfsDecision => EventData::DvfsDecision {
            governor: r.str("note.governor")?,
            util_pct: r.f64("note.util_pct")?,
            from_khz: r.u32("note.from_khz")?,
            to_khz: r.u32("note.to_khz")?,
        },
        EventKind::ConnAccepted => EventData::ConnAccepted {
            conn: r.u64("note.conn")?,
        },
        EventKind::ConnClosed => EventData::ConnClosed {
            conn: r.u64("note.conn")?,
            frames_in: r.u64("note.frames_in")?,
            frames_out: r.u64("note.frames_out")?,
        },
        EventKind::SessionStart => EventData::SessionStart {
            session: r.u64("note.session")?,
            policy: r.str("note.policy")?,
        },
        EventKind::SessionEnd => EventData::SessionEnd {
            session: r.u64("note.session")?,
            decisions: r.u64("note.decisions")?,
            drained: r.bool("note.drained")?,
        },
        EventKind::Backpressure => EventData::Backpressure {
            session: r.u64("note.session")?,
            queued: r.u64("note.queued")?,
            limit: r.u64("note.limit")?,
        },
        EventKind::ServeShutdown => EventData::ServeShutdown {
            active_sessions: r.u64("note.active_sessions")?,
        },
        EventKind::ShardRouted => EventData::ShardRouted {
            conn: r.u64("note.conn")?,
            key: r.u64("note.key")?,
            shard: r.str("note.shard")?,
        },
        EventKind::FleetShardSummary => EventData::FleetShardSummary {
            shard: r.str("note.shard")?,
            sessions: r.u64("note.sessions")?,
            decisions: r.u64("note.decisions")?,
        },
    })
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds a prefix of a valid frame; read more.
/// * `Ok(Some((frame, consumed)))` — one frame decoded; drop
///   `consumed` bytes from the front of `buf`.
///
/// # Errors
///
/// A typed [`WireError`] for any malformed input. The decoder never
/// panics, whatever the bytes.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLong { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let mut r = Reader::new(&buf[4..total]);
    let ty = r.u8("frame.type")?;
    let frame = match ty {
        TY_HELLO => Frame::Hello {
            version: r.u16("hello.version")?,
            policy: r.str("hello.policy")?,
            profile: r.str("hello.profile")?,
            seed: r.u64("hello.seed")?,
        },
        TY_HELLO_ACK => Frame::HelloAck {
            version: r.u16("helloack.version")?,
            session: r.u64("helloack.session")?,
            policy: r.str("helloack.policy")?,
            sampling_us: r.u64("helloack.sampling_us")?,
            window: r.u32("helloack.window")?,
        },
        TY_SNAPSHOT => Frame::Snapshot {
            seq: r.u64("snapshot.seq")?,
            snap: read_snapshot(&mut r)?,
        },
        TY_DECISION => {
            let seq = r.u64("decision.seq")?;
            let n_cmds = r.u16("decision.n_commands")? as usize;
            if n_cmds > MAX_WIRE_COMMANDS {
                return Err(WireError::TooMany {
                    what: "decision.n_commands",
                    got: n_cmds as u64,
                });
            }
            let mut commands = Vec::with_capacity(n_cmds);
            for _ in 0..n_cmds {
                commands.push(read_command(&mut r)?);
            }
            let n_notes = r.u16("decision.n_notes")? as usize;
            if n_notes > MAX_WIRE_NOTES {
                return Err(WireError::TooMany {
                    what: "decision.n_notes",
                    got: n_notes as u64,
                });
            }
            let mut notes = Vec::with_capacity(n_notes);
            for _ in 0..n_notes {
                notes.push(read_note(&mut r)?);
            }
            Frame::Decision {
                seq,
                commands,
                notes,
            }
        }
        TY_BACKPRESSURE => Frame::Backpressure {
            queued: r.u32("backpressure.queued")?,
            limit: r.u32("backpressure.limit")?,
        },
        TY_BYE => Frame::Bye,
        TY_BYE_ACK => Frame::ByeAck {
            decisions: r.u64("byeack.decisions")?,
        },
        TY_GOING_AWAY => Frame::GoingAway {
            reason: r.str("goingaway.reason")?,
        },
        TY_ERROR => Frame::Error {
            code: r.u16("error.code")?,
            message: r.str("error.message")?,
        },
        TY_ROUTE => Frame::Route {
            key: r.u64("route.key")?,
        },
        TY_ROUTED => Frame::Routed {
            shard: r.u32("routed.shard")?,
            name: r.str("routed.name")?,
        },
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes("decoded"));
    }
    Ok(Some((frame, total)))
}

/// Whether `buf` starts with at least one complete frame (without
/// validating the payload). Used by the server to detect pipelined
/// input past the per-session budget.
pub fn has_complete_frame(buf: &[u8]) -> bool {
    if buf.len() < 4 {
        return false;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    len > 0 && len <= MAX_FRAME_LEN && buf.len() >= 4 + len as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> PolicySnapshot {
        PolicySnapshot::synthetic(4, 2, Khz(960_000), Utilization::new(0.37), 20_000)
    }

    fn round_trip(frame: Frame) {
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("decodes").expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            version: PROTOCOL_VERSION,
            policy: "mobicore".into(),
            profile: "nexus5".into(),
            seed: 42,
        });
        round_trip(Frame::HelloAck {
            version: PROTOCOL_VERSION,
            session: 7,
            policy: "mobicore".into(),
            sampling_us: 20_000,
            window: 32,
        });
        round_trip(Frame::Snapshot {
            seq: 3,
            snap: snap(),
        });
        round_trip(Frame::Decision {
            seq: 3,
            commands: vec![
                Command::SetQuota(Quota::new(0.62)),
                Command::SetOnline {
                    core: 3,
                    online: false,
                },
                Command::SetFreq {
                    core: 0,
                    khz: Khz(960_000),
                },
                Command::SetFreqAll { khz: Khz(300_000) },
            ],
            notes: vec![EventData::PolicyDecision {
                policy: "mobicore".into(),
                mode: "slow".into(),
                util_pct: 23.5,
                quota: 0.62,
                target_online: 2,
                f_khz: 960_000,
            }],
        });
        round_trip(Frame::Backpressure {
            queued: 80,
            limit: 64,
        });
        round_trip(Frame::Bye);
        round_trip(Frame::ByeAck { decisions: 512 });
        round_trip(Frame::GoingAway {
            reason: "drain".into(),
        });
        round_trip(Frame::Error {
            code: codes::BAD_SEQ,
            message: "seq went backwards".into(),
        });
        round_trip(Frame::Route { key: 123_456_789 });
        round_trip(Frame::Routed {
            shard: 3,
            name: "s3".into(),
        });
    }

    #[test]
    fn snapshot_round_trip_preserves_exact_bits() {
        let mut s = snap();
        s.temp_c = 36.600_000_000_000_01; // not exactly representable inputs stay bit-exact
        let frame = Frame::Snapshot {
            seq: 0,
            snap: s.clone(),
        };
        let bytes = frame_bytes(&frame);
        let (back, _) = decode_frame(&bytes).unwrap().unwrap();
        let Frame::Snapshot { snap: back, .. } = back else {
            panic!("wrong frame kind")
        };
        assert_eq!(back.temp_c.to_bits(), s.temp_c.to_bits());
        assert_eq!(
            back.overall_util.as_fraction().to_bits(),
            s.overall_util.as_fraction().to_bits()
        );
        assert_eq!(back, s);
    }

    #[test]
    fn truncation_asks_for_more_bytes() {
        let bytes = frame_bytes(&Frame::ByeAck { decisions: 9 });
        for end in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..end]).expect("prefix is not an error"),
                None,
                "prefix of {end} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_LEN + 1);
        bytes.push(TY_BYE);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::FrameTooLong {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn zero_length_and_unknown_type_are_rejected() {
        assert_eq!(decode_frame(&[0, 0, 0, 0, 0]), Err(WireError::EmptyFrame));
        assert_eq!(
            decode_frame(&[1, 0, 0, 0, 0xEE]),
            Err(WireError::UnknownFrameType(0xEE))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = frame_bytes(&Frame::Bye);
        // Grow the declared length and append a stray byte.
        bytes[0] += 1;
        bytes.push(0xAB);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes("decoded"))
        );
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_typed() {
        let mut bytes = frame_bytes(&Frame::Snapshot {
            seq: 1,
            snap: snap(),
        });
        // mpdecision bool lives at offset 4 (len) + 1 (type) + 8 (seq) +
        // 8+8 (now/window) + 8*3 (three f64s) = 53.
        bytes[53] = 7;
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::BadBool("snapshot.mpdecision"))
        );

        let mut bytes = frame_bytes(&Frame::GoingAway {
            reason: "né".into(),
        });
        let at = bytes.len() - 1;
        bytes[at] = 0xFF; // clobber the second UTF-8 byte
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::BadUtf8("goingaway.reason"))
        );
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::Bye, &mut bytes);
        encode_frame(&Frame::ByeAck { decisions: 1 }, &mut bytes);
        let (first, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(first, Frame::Bye);
        assert!(has_complete_frame(&bytes[used..]));
        let (second, used2) = decode_frame(&bytes[used..]).unwrap().unwrap();
        assert_eq!(second, Frame::ByeAck { decisions: 1 });
        assert_eq!(used + used2, bytes.len());
        assert!(!has_complete_frame(&bytes[used + used2..]));
    }

    /// One note of every kind, with every f64 field set to `f`, every
    /// integer field to `n` (saturated into narrower types) and every
    /// string to `s`.
    fn every_note(f: f64, n: u64, s: &str) -> Vec<EventData> {
        let us = usize::try_from(n).unwrap_or(usize::MAX);
        let k = u32::try_from(n).unwrap_or(u32::MAX);
        vec![
            EventData::FreqChange {
                core: us,
                from_khz: k,
                to_khz: k,
                requested_khz: k,
            },
            EventData::CoreOnline { core: us },
            EventData::CoreOffline { core: us },
            EventData::HotplugVetoed {
                core: us,
                mpdecision: true,
            },
            EventData::HotplugDecision {
                policy: s.into(),
                online_now: us,
                want: us,
            },
            EventData::QuotaShrink { from: f, to: f },
            EventData::QuotaRestore { from: f, to: f },
            EventData::ThermalThrottle {
                cap_opp: us,
                temp_c: f,
            },
            EventData::ThermalClear {
                cap_opp: us,
                temp_c: f,
            },
            EventData::BwThrottle { denied_us: n },
            EventData::PolicyDecision {
                policy: s.into(),
                mode: s.into(),
                util_pct: f,
                quota: f,
                target_online: us,
                f_khz: k,
            },
            EventData::DvfsDecision {
                governor: s.into(),
                util_pct: f,
                from_khz: k,
                to_khz: k,
            },
            EventData::ConnAccepted { conn: n },
            EventData::ConnClosed {
                conn: n,
                frames_in: n,
                frames_out: n,
            },
            EventData::SessionStart {
                session: n,
                policy: s.into(),
            },
            EventData::SessionEnd {
                session: n,
                decisions: n,
                drained: false,
            },
            EventData::Backpressure {
                session: n,
                queued: n,
                limit: n,
            },
            EventData::ServeShutdown { active_sessions: n },
            EventData::ShardRouted {
                conn: n,
                key: n,
                shard: s.into(),
            },
            EventData::FleetShardSummary {
                shard: s.into(),
                sessions: n,
                decisions: n,
            },
        ]
    }

    /// The bit patterns of a note's f64 fields, in declaration order.
    fn f64_bits(note: &EventData) -> Vec<u64> {
        match note {
            EventData::QuotaShrink { from, to } | EventData::QuotaRestore { from, to } => {
                vec![from.to_bits(), to.to_bits()]
            }
            EventData::ThermalThrottle { temp_c, .. } | EventData::ThermalClear { temp_c, .. } => {
                vec![temp_c.to_bits()]
            }
            EventData::PolicyDecision {
                util_pct, quota, ..
            } => vec![util_pct.to_bits(), quota.to_bits()],
            EventData::DvfsDecision { util_pct, .. } => vec![util_pct.to_bits()],
            _ => Vec::new(),
        }
    }

    #[test]
    fn every_note_field_round_trips_bit_for_bit() {
        let kinds: std::collections::BTreeSet<EventKind> =
            every_note(0.0, 0, "").iter().map(EventData::kind).collect();
        assert_eq!(kinds.len(), EventKind::ALL.len(), "one note per kind");
        let specials = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF), // quiet NaN with a payload
            f64::from_bits(0xFFF0_0000_0000_0001), // negative signalling NaN
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            0.1,
        ];
        // Integers past 2^53, where an f64 round trip would lose bits.
        let big = [(1 << 53) + 1, u64::MAX - 1, u64::MAX];
        for (i, &f) in specials.iter().enumerate() {
            let n = big[i % big.len()];
            let notes = every_note(f, n, "né°");
            let frame = Frame::Decision {
                seq: 1,
                commands: Vec::new(),
                notes: notes.clone(),
            };
            let bytes = frame_bytes(&frame);
            let (back, used) = decode_frame(&bytes)
                .unwrap_or_else(|e| panic!("{f:?} ({:#x}): {e}", f.to_bits()))
                .expect("complete");
            assert_eq!(used, bytes.len());
            assert_eq!(frame_bytes(&back), bytes, "re-encodes identically");
            let Frame::Decision { notes: back, .. } = back else {
                panic!("wrong frame kind")
            };
            assert_eq!(back.len(), notes.len());
            for (got, want) in back.iter().zip(&notes) {
                assert_eq!(got.kind(), want.kind());
                assert_eq!(f64_bits(got), f64_bits(want), "{:?}", want.kind());
                if !f.is_nan() {
                    assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn unknown_note_tag_is_typed() {
        let mut bytes = frame_bytes(&Frame::Decision {
            seq: 0,
            commands: Vec::new(),
            notes: vec![EventData::CoreOnline { core: 1 }],
        });
        // The note tag follows len (4), type (1), seq (8), n_commands
        // (2) and n_notes (2).
        assert_eq!(bytes[17], note_tag(EventKind::CoreOnline));
        bytes[17] = 0xEE;
        assert_eq!(decode_frame(&bytes), Err(WireError::UnknownNoteTag(0xEE)));
    }

    #[test]
    fn long_strings_are_truncated_on_encode_not_rejected_on_decode() {
        let reason = "x".repeat(MAX_WIRE_STR + 100);
        let bytes = frame_bytes(&Frame::GoingAway { reason });
        let (back, _) = decode_frame(&bytes).unwrap().unwrap();
        let Frame::GoingAway { reason } = back else {
            panic!("wrong frame kind")
        };
        assert_eq!(reason.len(), MAX_WIRE_STR);
    }
}
