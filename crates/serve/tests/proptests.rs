//! Property-based tests for the wire codec — totality (no input ever
//! panics the decoder), typed rejection, round-trip identity — and
//! for the router's rendezvous hashing (stable, balanced, minimal
//! partition of the key space).

use mobicore_model::{Khz, Quota, Utilization};
use mobicore_serve::protocol::{
    decode_frame, frame_bytes, has_complete_frame, Frame, MAX_FRAME_LEN,
};
use mobicore_serve::rendezvous_shard;
use mobicore_sim::{Command, CoreSnapshot, PolicySnapshot};
use mobicore_telemetry::{EventData, EventKind};
use proptest::prelude::*;

fn snapshot(
    now_us: u64,
    n_cores: usize,
    khz: u32,
    util: f64,
    quota: f64,
    temp: f64,
    mpdecision: bool,
) -> PolicySnapshot {
    PolicySnapshot {
        now_us,
        window_us: 20_000,
        cores: (0..n_cores)
            .map(|i| CoreSnapshot {
                online: i % 2 == 0,
                cur_khz: Khz(khz),
                target_khz: Khz(khz.saturating_add(100_000)),
                util: Utilization::new(util),
                busy_us: now_us % 20_000,
            })
            .collect(),
        overall_util: Utilization::new(util),
        quota: Quota::new(quota),
        mpdecision_enabled: mpdecision,
        max_runnable_threads: n_cores * 2,
        temp_c: temp,
    }
}

/// Edge-case f64 bit patterns: quiet NaN with a payload, signalling
/// NaN, ±inf, -0.0, the smallest subnormal and the largest subnormal.
const SPECIAL_F64_BITS: [u64; 7] = [
    0x7FF8_0000_DEAD_BEEF,
    0xFFF0_0000_0000_0001,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
];

/// Arbitrary f64 bit patterns, half of them drawn from the edge cases
/// (a uniform draw is NaN only once in 2048).
fn f64_bit_pattern() -> impl Strategy<Value = u64> {
    (0u64..=u64::MAX, 0usize..2 * SPECIAL_F64_BITS.len())
        .prop_map(|(bits, pick)| SPECIAL_F64_BITS.get(pick).copied().unwrap_or(bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes never panic the decoder: it returns a frame, an
    /// incomplete-input signal, or a typed error.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_frame(&bytes); // must not panic
        let _ = has_complete_frame(&bytes); // must not panic
    }

    /// Garbage with a plausible length prefix never panics either (this
    /// exercises the payload parsers, not just the framing).
    #[test]
    fn decoder_total_on_framed_garbage(
        ty in 0u8..=12,
        payload in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let mut bytes = Vec::with_capacity(5 + payload.len());
        let len = u32::try_from(1 + payload.len()).unwrap();
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.push(ty);
        bytes.extend_from_slice(&payload);
        let _ = decode_frame(&bytes); // must not panic
    }

    /// Every truncation of a valid frame is either "incomplete" (when
    /// the cut hits the framing) — never a panic, never a wrong frame.
    #[test]
    fn truncation_never_panics(
        cut in 0usize..4096,
        seq in 0u64..1_000_000,
        n_cores in 0usize..12,
    ) {
        let frame = Frame::Snapshot {
            seq,
            snap: snapshot(seq, n_cores, 960_000, 0.5, 0.8, 40.0, false),
        };
        let bytes = frame_bytes(&frame);
        let cut = cut.min(bytes.len().saturating_sub(1));
        if let Ok(Some(_)) = decode_frame(&bytes[..cut]) {
            prop_assert!(false, "decoded a frame from a strict prefix");
        }
    }

    /// A frame longer than the cap is rejected with a typed error, not
    /// buffered forever.
    #[test]
    fn oversized_length_prefix_rejected(extra in 1u32..1_000_000) {
        let len = MAX_FRAME_LEN.saturating_add(extra);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0x03; 16]);
        prop_assert!(decode_frame(&bytes).is_err());
    }

    /// Hello/Error/GoingAway round-trip arbitrary strings (including
    /// the empty string and multi-byte UTF-8).
    #[test]
    fn string_frames_round_trip(
        policy in "[a-zA-Z0-9:._ é°-]{0,40}",
        profile in "[a-z0-9-]{0,24}",
        seed in 0u64..u64::MAX,
        code in 0u16..32,
    ) {
        for frame in [
            Frame::Hello { version: 1, policy: policy.clone(), profile: profile.clone(), seed },
            Frame::Error { code, message: policy.clone() },
            Frame::GoingAway { reason: profile.clone() },
        ] {
            let bytes = frame_bytes(&frame);
            let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, frame);
        }
    }

    /// Snapshot frames round-trip exactly: every f64 travels as raw
    /// bits, so the decoded snapshot is bit-identical — the foundation
    /// of the remote-equals-local determinism guarantee.
    #[test]
    fn snapshot_round_trips_bit_exact(
        seq in 0u64..u64::MAX,
        now_us in 0u64..u64::MAX / 2,
        n_cores in 0usize..16,
        khz in 100_000u32..3_000_000,
        util in 0.0f64..=1.0,
        quota in 0.0f64..=1.5,
        temp in -40.0f64..=125.0,
        mpdecision in proptest::prelude::any::<bool>(),
    ) {
        let frame = Frame::Snapshot {
            seq,
            snap: snapshot(now_us, n_cores, khz, util, quota, temp, mpdecision),
        };
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
        prop_assert_eq!(used, bytes.len());
        let Frame::Snapshot { seq: s2, snap } = back else {
            panic!("wrong frame type");
        };
        prop_assert_eq!(s2, seq);
        let Frame::Snapshot { snap: orig, .. } = frame else { unreachable!() };
        prop_assert_eq!(snap.now_us, orig.now_us);
        prop_assert_eq!(snap.cores.len(), orig.cores.len());
        for (a, b) in snap.cores.iter().zip(&orig.cores) {
            prop_assert_eq!(a.online, b.online);
            prop_assert_eq!(a.cur_khz, b.cur_khz);
            prop_assert_eq!(a.busy_us, b.busy_us);
            prop_assert_eq!(a.util.as_fraction().to_bits(), b.util.as_fraction().to_bits());
        }
        prop_assert_eq!(
            snap.overall_util.as_fraction().to_bits(),
            orig.overall_util.as_fraction().to_bits()
        );
        prop_assert_eq!(
            snap.quota.as_fraction().to_bits(),
            orig.quota.as_fraction().to_bits()
        );
        prop_assert_eq!(snap.temp_c.to_bits(), orig.temp_c.to_bits());
        prop_assert_eq!(snap.mpdecision_enabled, orig.mpdecision_enabled);
    }

    /// Decision frames round-trip commands and telemetry notes exactly:
    /// a note of every kind, arbitrary f64 bit patterns (NaN payloads,
    /// ±inf, -0.0, subnormals), full-range integers and arbitrary UTF-8
    /// strings.
    #[test]
    fn decision_round_trips(
        seq in 0u64..=u64::MAX,
        khz in 100_000u32..3_000_000,
        core in 0usize..8,
        online in proptest::prelude::any::<bool>(),
        quota in 0.2f64..=1.0,
        n_repeat in 0usize..6,
        f64_bits in proptest::collection::vec(f64_bit_pattern(), 1..8),
        ints in proptest::collection::vec(0u64..=u64::MAX, 1..8),
        strings in proptest::collection::vec("[a-zA-Z0-9:._ é°-]{0,40}", 1..4),
    ) {
        let mut commands = vec![
            Command::SetFreq { core, khz: Khz(khz) },
            Command::SetFreqAll { khz: Khz(khz) },
            Command::SetOnline { core, online },
            Command::SetQuota(Quota::new(quota)),
        ];
        for _ in 0..n_repeat {
            commands.push(Command::SetFreqAll { khz: Khz(khz) });
        }
        let notes = every_note(&f64_bits, &ints, &strings);
        let frame = Frame::Decision { seq, commands, notes };
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
        prop_assert_eq!(used, bytes.len());
        // NaN != NaN, so compare the re-encoded bytes (every f64 as its
        // bit pattern) and the Debug rendering (structure, -0.0, ints).
        prop_assert_eq!(frame_bytes(&back), bytes);
        prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
    }

    /// Concatenated frames decode one at a time, in order, consuming
    /// exactly their own bytes — the stream invariant the session
    /// multiplexer relies on.
    #[test]
    fn stream_of_frames_decodes_in_order(seqs in proptest::collection::vec(0u64..1_000, 1..8)) {
        let mut stream = Vec::new();
        for &s in &seqs {
            stream.extend_from_slice(&frame_bytes(&Frame::Snapshot {
                seq: s,
                snap: snapshot(s, 4, 960_000, 0.25, 1.0, 35.0, true),
            }));
        }
        let mut pos = 0;
        for &s in &seqs {
            let (frame, used) = decode_frame(&stream[pos..]).expect("valid").expect("complete");
            pos += used;
            let Frame::Snapshot { seq, .. } = frame else {
                panic!("wrong frame type");
            };
            prop_assert_eq!(seq, s);
        }
        prop_assert_eq!(pos, stream.len());
        prop_assert!(decode_frame(&stream[pos..]).expect("empty tail is fine").is_none());
    }
}

/// One note of every kind in `EventKind::ALL` order, drawing f64
/// fields (as bit patterns), integer fields and strings round-robin from
/// the given pools.
fn every_note(f64_bits: &[u64], ints: &[u64], strings: &[String]) -> Vec<EventData> {
    let mut f = f64_bits.iter().cycle().map(|&b| f64::from_bits(b));
    let mut n = ints.iter().copied().cycle();
    let mut s = strings.iter().cycle().cloned();
    let mut f = move || f.next().expect("non-empty pool");
    let mut n = move || n.next().expect("non-empty pool");
    let mut s = move || s.next().expect("non-empty pool");
    // Truncating casts: every bit pattern of the narrower field type.
    let us = |v: u64| v as usize;
    let khz = |v: u64| v as u32;
    let notes = vec![
        EventData::FreqChange {
            core: us(n()),
            from_khz: khz(n()),
            to_khz: khz(n()),
            requested_khz: khz(n()),
        },
        EventData::CoreOnline { core: us(n()) },
        EventData::CoreOffline { core: us(n()) },
        EventData::HotplugVetoed {
            core: us(n()),
            mpdecision: n() % 2 == 1,
        },
        EventData::HotplugDecision {
            policy: s(),
            online_now: us(n()),
            want: us(n()),
        },
        EventData::QuotaShrink { from: f(), to: f() },
        EventData::QuotaRestore { from: f(), to: f() },
        EventData::ThermalThrottle {
            cap_opp: us(n()),
            temp_c: f(),
        },
        EventData::ThermalClear {
            cap_opp: us(n()),
            temp_c: f(),
        },
        EventData::BwThrottle { denied_us: n() },
        EventData::PolicyDecision {
            policy: s(),
            mode: s(),
            util_pct: f(),
            quota: f(),
            target_online: us(n()),
            f_khz: khz(n()),
        },
        EventData::DvfsDecision {
            governor: s(),
            util_pct: f(),
            from_khz: khz(n()),
            to_khz: khz(n()),
        },
        EventData::ConnAccepted { conn: n() },
        EventData::ConnClosed {
            conn: n(),
            frames_in: n(),
            frames_out: n(),
        },
        EventData::SessionStart {
            session: n(),
            policy: s(),
        },
        EventData::SessionEnd {
            session: n(),
            decisions: n(),
            drained: n() % 2 == 0,
        },
        EventData::Backpressure {
            session: n(),
            queued: n(),
            limit: n(),
        },
        EventData::ServeShutdown {
            active_sessions: n(),
        },
        EventData::ShardRouted {
            conn: n(),
            key: n(),
            shard: s(),
        },
        EventData::FleetShardSummary {
            shard: s(),
            sessions: n(),
            decisions: n(),
        },
    ];
    let kinds: Vec<EventKind> = notes.iter().map(EventData::kind).collect();
    assert_eq!(kinds, EventKind::ALL, "one note of every kind, in order");
    notes
}

/// Each note kind's wire tag is pinned: reordering `EventKind` (or the
/// encoder's tag table) must not silently change the wire.
#[test]
fn note_tags_are_pinned() {
    let notes = every_note(&[0], &[0], &[String::new()]);
    let expected: [(EventKind, u8); 20] = [
        (EventKind::FreqChange, 0x00),
        (EventKind::CoreOnline, 0x01),
        (EventKind::CoreOffline, 0x02),
        (EventKind::HotplugVetoed, 0x03),
        (EventKind::HotplugDecision, 0x04),
        (EventKind::QuotaShrink, 0x05),
        (EventKind::QuotaRestore, 0x06),
        (EventKind::ThermalThrottle, 0x07),
        (EventKind::ThermalClear, 0x08),
        (EventKind::BwThrottle, 0x09),
        (EventKind::PolicyDecision, 0x0A),
        (EventKind::DvfsDecision, 0x0B),
        (EventKind::ConnAccepted, 0x0C),
        (EventKind::ConnClosed, 0x0D),
        (EventKind::SessionStart, 0x0E),
        (EventKind::SessionEnd, 0x0F),
        (EventKind::Backpressure, 0x10),
        (EventKind::ServeShutdown, 0x11),
        (EventKind::ShardRouted, 0x12),
        (EventKind::FleetShardSummary, 0x13),
    ];
    assert_eq!(notes.len(), expected.len());
    for (note, (kind, tag)) in notes.into_iter().zip(expected) {
        assert_eq!(note.kind(), kind);
        let bytes = frame_bytes(&Frame::Decision {
            seq: 0,
            commands: Vec::new(),
            notes: vec![note],
        });
        // len (4) + type (1) + seq (8) + n_commands (2) + n_notes (2).
        assert_eq!(bytes[17], tag, "{kind} tag");
    }
}

/// Distinct shard names: `s<index>-<salt>`, so every generated list
/// is duplicate-free by construction and permutations can be compared
/// by name.
fn shard_names(min: usize) -> impl Strategy<Value = Vec<String>> {
    (min..8usize, 0u64..1_000_000)
        .prop_map(|(count, salt)| (0..count).map(|i| format!("s{i}-{salt}")).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same key always lands on the same shard *name*, no matter
    /// how the shard list is ordered — placement is a function of the
    /// set, not the sequence.
    #[test]
    fn rendezvous_is_stable_under_permutation(
        names in shard_names(1),
        rotate in 0usize..8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..32),
    ) {
        let mut rotated = names.clone();
        rotated.rotate_left(rotate % names.len().max(1));
        for &key in &keys {
            let a = rendezvous_shard(key, &names).map(|i| names[i].clone());
            let b = rendezvous_shard(key, &rotated).map(|i| rotated[i].clone());
            prop_assert_eq!(a, b, "key {} moved under permutation", key);
        }
    }

    /// Removing one shard only remaps the keys that lived on it; every
    /// other key keeps its shard (minimal disruption).
    #[test]
    fn rendezvous_remap_is_minimal(
        names in shard_names(2),
        victim in 0usize..8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let victim = victim % names.len();
        let mut reduced = names.clone();
        let gone = reduced.remove(victim);
        for &key in &keys {
            let before = names[rendezvous_shard(key, &names).expect("non-empty")].clone();
            let after = reduced[rendezvous_shard(key, &reduced).expect("non-empty")].clone();
            if before != gone {
                prop_assert_eq!(before, after, "key {} moved though its shard survived", key);
            }
        }
    }

    /// A consecutive key range (device ids) spreads over every shard:
    /// no shard is starved once there are a few keys per shard.
    #[test]
    fn rendezvous_balances_consecutive_keys(
        names in shard_names(1),
        start in 0u64..1_000_000,
    ) {
        let per_shard = 256usize;
        let total = names.len() * per_shard;
        let mut counts = vec![0usize; names.len()];
        for key in start..start + total as u64 {
            counts[rendezvous_shard(key, &names).expect("non-empty")] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!(
                c >= per_shard / 4,
                "shard {} ({}) starved: {}/{} keys",
                i, names[i], c, total
            );
        }
    }
}
