//! `mobicore-serve`: a networked policy-decision service.
//!
//! The paper's controller is a function from utilization windows to
//! frequency/hotplug/quota commands; this crate puts that function
//! behind a socket. A dependency-free TCP daemon speaks a versioned,
//! length-prefixed binary protocol ([`protocol`]); each connection is
//! one simulated device streaming [`PolicySnapshot`]s and receiving
//! the decisions an in-process policy would have produced —
//! byte-identical, including telemetry notes, so remote runs yield the
//! same reports and manifests as local ones ([`client::RemotePolicy`]).
//!
//! The daemon ([`server`]) multiplexes thousands of sessions over a
//! fixed worker pool with work stealing (a runtime the shard router
//! shares), bounded per-session buffers,
//! explicit [`protocol::Frame::Backpressure`] notices, typed rejection
//! of malformed frames, and graceful drain on shutdown. The companion
//! load generator ([`load`]) holds N concurrent sessions open, replays
//! a recorded scenario stream through each, and verifies ordering and
//! byte-identity while measuring decisions/s and RTT quantiles.
//!
//! For fleet scale, the shard router ([`router`]) binds sessions to a
//! pool of serve shards by rendezvous hashing over stable shard names
//! and relays frames with hot shard-connection reuse; the fleet
//! orchestrator ([`load::run_fleet`]) drives 100k+ device sessions
//! through it with batched, corked frame I/O and emits a
//! deterministic, byte-identical aggregate manifest at a fixed seed.
//!
//! See `docs/serving.md` for the protocol specification, session
//! lifecycle, and the benchmark reproduction recipes.
//!
//! [`PolicySnapshot`]: mobicore_sim::PolicySnapshot

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod client;
mod daemon;
pub mod load;
mod poll;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;

pub use client::{ClientError, ClientSession, RemoteDecision, RemotePolicy};
pub use load::{
    record_snapshots, run_fleet, run_load, FleetConfig, FleetReport, LoadConfig, LoadReport,
};
pub use protocol::{Frame, WireError, PROTOCOL_VERSION};
pub use router::{rendezvous_shard, Router, RouterConfig, RouterStats, Shard};
pub use server::{ServeConfig, ServeStats, Server};
