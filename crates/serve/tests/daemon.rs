//! What the shared daemon runtime owns, held for both tiers: the
//! connection cap, the idle timeout, the drain deadline, and the run
//! manifest the binaries write after drain. Kept small — these run in
//! tier-1 `cargo test -q`.

use mobicore_model::{Khz, Utilization};
use mobicore_serve::protocol::{codes, decode_frame, frame_bytes, Frame, PROTOCOL_VERSION};
use mobicore_serve::{ClientSession, Router, RouterConfig, ServeConfig, Server, Shard};
use mobicore_sim::PolicySnapshot;
use mobicore_telemetry::RunManifest;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_workers(2)
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

fn router_config() -> RouterConfig {
    RouterConfig::default()
        .with_workers(2)
        .with_drain_deadline(Duration::from_secs(2))
        .with_idle_timeout(Duration::from_secs(10))
}

fn one_shard(server: &Server) -> Vec<Shard> {
    vec![Shard {
        name: "s0".to_string(),
        addr: server.local_addr().to_string(),
    }]
}

fn snapshot() -> PolicySnapshot {
    PolicySnapshot::synthetic(4, 4, Khz(960_000), Utilization::new(0.3), 20_000)
}

/// A raw client socket with a read timeout, so a daemon that never
/// answers fails the test instead of hanging it.
fn raw_connect(addr: std::net::SocketAddr) -> TcpStream {
    let raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    raw
}

/// Every frame the daemon sends until it closes the connection.
fn frames_until_close(raw: &mut TcpStream) -> Vec<Frame> {
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("daemon closes the socket");
    let mut frames = Vec::new();
    let mut rest = &buf[..];
    while let Some((frame, used)) = decode_frame(rest).expect("well-formed frames") {
        frames.push(frame);
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "trailing partial frame: {rest:?}");
    frames
}

fn assert_error(frames: &[Frame], want: u16) {
    match frames.last() {
        Some(Frame::Error { code, .. }) => assert_eq!(*code, want, "{frames:?}"),
        other => panic!("expected Error({want}) last, got {other:?} in {frames:?}"),
    }
}

#[test]
fn serve_refuses_connections_past_the_session_cap() {
    let mut cfg = serve_config();
    cfg.max_sessions = 1;
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // The handshake proves the first connection was admitted.
    let mut first = ClientSession::connect(addr, "noop", "nexus5", 0).expect("first connects");
    let mut second = raw_connect(addr);
    let frames = frames_until_close(&mut second);
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_error(&frames, codes::SERVER_FULL);

    // The admitted session is unaffected by the refusal.
    first.request(&snapshot()).expect("first still served");
    assert_eq!(first.finish().expect("clean bye"), 1);
    let stats = server.shutdown();
    assert_eq!(stats.sessions, 1, "{stats:?}");
    assert_eq!(stats.active_conns, 0, "{stats:?}");
}

#[test]
fn router_refuses_connections_past_the_conn_cap() {
    let shard = Server::bind("127.0.0.1:0", serve_config()).expect("bind shard");
    let mut cfg = router_config();
    cfg.max_conns = 1;
    let router = Router::bind("127.0.0.1:0", one_shard(&shard), cfg).expect("bind router");

    // A Route round trip proves the first connection was admitted.
    let mut first = ClientSession::connect_raw(router.local_addr()).expect("first connects");
    first.route(7).expect("first routes");
    let mut second = raw_connect(router.local_addr());
    let frames = frames_until_close(&mut second);
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_error(&frames, codes::SERVER_FULL);

    first
        .hello("noop", "nexus5", 0)
        .expect("first still relayed");
    first.request(&snapshot()).expect("decision");
    assert_eq!(first.finish().expect("clean bye"), 1);
    let stats = router.shutdown();
    assert_eq!(stats.conns, 2, "the refused connection was accepted first");
    assert_eq!(stats.routed_sessions, 1, "{stats:?}");
    assert_eq!(stats.active_conns, 0, "{stats:?}");
    shard.shutdown();
}

#[test]
fn serve_closes_a_silent_client_at_the_idle_timeout() {
    let server = Server::bind(
        "127.0.0.1:0",
        serve_config().with_idle_timeout(Duration::from_millis(200)),
    )
    .expect("bind");
    let mut raw = raw_connect(server.local_addr());
    let started = Instant::now();
    let frames = frames_until_close(&mut raw);
    assert!(started.elapsed() >= Duration::from_millis(200));
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_error(&frames, codes::IDLE_TIMEOUT);
    let stats = server.shutdown();
    assert_eq!(stats.sessions, 0, "no handshake, no session: {stats:?}");
    assert_eq!(stats.active_conns, 0, "{stats:?}");
}

#[test]
fn router_closes_a_silent_client_at_the_idle_timeout() {
    let shard = Server::bind("127.0.0.1:0", serve_config()).expect("bind shard");
    let router = Router::bind(
        "127.0.0.1:0",
        one_shard(&shard),
        router_config().with_idle_timeout(Duration::from_millis(200)),
    )
    .expect("bind router");
    let mut raw = raw_connect(router.local_addr());
    let started = Instant::now();
    let frames = frames_until_close(&mut raw);
    assert!(started.elapsed() >= Duration::from_millis(200));
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert_error(&frames, codes::IDLE_TIMEOUT);
    let stats = router.shutdown();
    assert_eq!(stats.routed_sessions, 0, "{stats:?}");
    assert_eq!(
        stats.relay_errors, 1,
        "an idle close is abnormal: {stats:?}"
    );
    assert_eq!(stats.active_conns, 0, "{stats:?}");
    shard.shutdown();
}

#[test]
fn router_shutdown_drains_within_deadline_and_notifies() {
    let shard = Server::bind("127.0.0.1:0", serve_config()).expect("bind shard");
    let router = Router::bind(
        "127.0.0.1:0",
        one_shard(&shard),
        router_config().with_drain_deadline(Duration::from_millis(500)),
    )
    .expect("bind router");

    // Route, handshake and one decision, then leave the session open
    // mid-stream.
    let mut raw = raw_connect(router.local_addr());
    let mut out = frame_bytes(&Frame::Route { key: 3 });
    out.extend(frame_bytes(&Frame::Hello {
        version: PROTOCOL_VERSION,
        policy: "noop".to_string(),
        profile: "nexus5".to_string(),
        seed: 0,
    }));
    out.extend(frame_bytes(&Frame::Snapshot {
        seq: 0,
        snap: snapshot(),
    }));
    raw.write_all(&out).expect("write");
    let mut buf = Vec::new();
    let mut seen = Vec::new();
    while !seen
        .iter()
        .any(|f: &Frame| matches!(f, Frame::Decision { .. }))
    {
        let mut scratch = [0u8; 4096];
        let n = raw.read(&mut scratch).expect("read from router");
        assert!(n > 0, "router closed before the first decision");
        buf.extend_from_slice(&scratch[..n]);
        while let Some((frame, used)) = decode_frame(&buf).expect("well-formed frame") {
            buf.drain(..used);
            seen.push(frame);
        }
    }
    assert!(matches!(seen[0], Frame::Routed { .. }), "{seen:?}");

    let started = Instant::now();
    let stats = router.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain must respect its deadline, took {:?}",
        started.elapsed()
    );
    assert_eq!(stats.routed_sessions, 1, "{stats:?}");
    assert_eq!(stats.active_conns, 0, "drain must close everything");

    let rest = frames_until_close(&mut raw);
    assert!(
        rest.iter().any(|f| matches!(f, Frame::GoingAway { .. })),
        "the client must be told the router is going away: {rest:?}"
    );
    shard.shutdown();
}

/// Runs a daemon binary that binds port 0 and writes its manifest to a
/// fresh temp path. `open` gets the bound address while the daemon
/// runs; what it returns stays open until the daemon has exited, so
/// those connections close during drain. Returns the manifest written
/// after `quit`.
fn manifest_after_quit<T>(bin: &str, args: &[&str], open: impl FnOnce(&str) -> T) -> RunManifest {
    let path = std::env::temp_dir().join(format!(
        "mobicore-daemon-test-{}-{}.json",
        std::process::id(),
        Path::new(bin)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("bin"),
    ));
    let mut child = Command::new(bin)
        .arg("127.0.0.1:0")
        .args(args)
        .arg("--manifest")
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon binary");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address at the end of the listening line")
        .to_string();
    let held = open(&addr);
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"quit\n")
        .expect("quit");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("drain stdout");
    assert!(child.wait().expect("daemon exits").success());
    drop(held);
    let text = std::fs::read_to_string(&path).expect("manifest written");
    let _ = std::fs::remove_file(&path);
    RunManifest::from_json_text(&text).expect("valid manifest")
}

#[test]
fn serve_binary_writes_its_manifest_after_drain() {
    let m = manifest_after_quit(
        env!("CARGO_BIN_EXE_mobicore-serve"),
        &["--workers", "1", "--drain-secs", "0"],
        |addr| {
            // A session still open at `quit` closes during drain.
            let mut sess = ClientSession::connect(addr, "noop", "nexus5", 0).expect("connect");
            sess.request(&snapshot()).expect("decision");
            sess
        },
    );
    assert_eq!(m.kind, "serve");
    let counts = &m.event_counts;
    assert_eq!(counts.get("serve-shutdown"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("session-start"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("session-end"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("conn-closed"), Some(&1), "{counts:?}");
}

#[test]
fn router_binary_writes_its_manifest_after_drain() {
    let shard = Server::bind("127.0.0.1:0", serve_config()).expect("bind shard");
    let spec = format!("s0={}", shard.local_addr());
    let m = manifest_after_quit(
        env!("CARGO_BIN_EXE_mobicore-router"),
        &["--shard", &spec, "--workers", "1", "--drain-secs", "0"],
        |addr| {
            // A routed session still open at `quit` closes during drain.
            let mut sess = ClientSession::connect_raw(addr).expect("connect");
            sess.route_hello(3, "noop", "nexus5", 0)
                .expect("route+hello");
            sess.request(&snapshot()).expect("decision");
            sess
        },
    );
    assert_eq!(m.kind, "router");
    let counts = &m.event_counts;
    assert_eq!(counts.get("serve-shutdown"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("shard-routed"), Some(&1), "{counts:?}");
    assert_eq!(counts.get("conn-closed"), Some(&1), "{counts:?}");
    shard.shutdown();
}
