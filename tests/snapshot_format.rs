//! The versioned snapshot format, pinned three ways:
//!
//! * **golden bytes** — committed v1 fixture frames must decode to known
//!   state and re-encode byte-identically, so any codec or frame change
//!   that silently alters the on-disk form fails here (bump
//!   `FORMAT_VERSION` and regenerate with `D4PY_REGEN_FIXTURES=1` when a
//!   change is intentional);
//! * **round-trips** — every `Value` payload shape survives
//!   encode→decode;
//! * **forward compatibility & corruption** — frames from unknown future
//!   versions, frames with unknown flags, and frames damaged by bit
//!   flips / truncation / section-length lies each yield the precise
//!   typed `SnapshotError` (never a panic, never garbage), and the
//!   hybrid engine degrades to a cold start with a reported reason.
//!
//! Corruption cases are driven by the seeded `d4py-sync` prop harness:
//! replay any failure with `D4PY_PROP_SEED=<seed> D4PY_PROP_CASES=1`.

use d4py_sync::prop;
use dispel4py::core::error::{CodecError, CoreError};
use dispel4py::core::state::snapshot::{
    decode_slot, decode_slot_payload, encode_slot, Snapshot, SnapshotError, FORMAT_VERSION, MAGIC,
};
use dispel4py::core::state::MemoryStateStore;
use dispel4py::prelude::*;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// Loads a fixture, or (re)generates it when `D4PY_REGEN_FIXTURES=1`.
/// Regeneration is the intentional-format-change workflow: bump
/// `FORMAT_VERSION`, regenerate, update the manifest `scripts/verify.sh`
/// checks.
fn golden(name: &str, expected: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var("D4PY_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(&path, expected).expect("write fixture");
    }
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden fixture {path:?}: {e}"))
}

fn multi_section_snapshot() -> Snapshot {
    let mut s = Snapshot::new();
    s.insert(
        "happyState",
        0,
        Value::map([
            ("Texas", Value::list([Value::Float(12.5), Value::Int(4)])),
            ("Ohio", Value::list([Value::Float(-3.0), Value::Int(2)])),
        ]),
    );
    s.insert(
        "happyState",
        3,
        Value::map([("Utah", Value::list([Value::Float(0.25), Value::Int(1)]))]),
    );
    s.insert(
        "topPairs",
        0,
        Value::list([Value::map([
            ("pair", Value::Str("ST000×ST001".into())),
            ("lag", Value::Int(-3)),
            ("r", Value::Float(0.875)),
        ])]),
    );
    s
}

// ---------------------------------------------------------------- golden

#[test]
fn golden_single_section_frame_is_stable() {
    let expected_bytes = encode_slot("counter", 2, &Value::map([("n", Value::Int(41))]));
    let fixture = golden("snapshot_v1_single.bin", &expected_bytes);
    assert_eq!(
        fixture, expected_bytes,
        "committed v1 single-section frame drifted; if the format changed \
         intentionally, bump FORMAT_VERSION and regenerate fixtures"
    );
    let (pe, instance, state) = decode_slot(&fixture).unwrap();
    assert_eq!((pe.as_str(), instance), ("counter", 2));
    assert_eq!(state, Value::map([("n", Value::Int(41))]));
}

#[test]
fn golden_multi_section_frame_is_stable() {
    let snapshot = multi_section_snapshot();
    let expected_bytes = snapshot.encode();
    let fixture = golden("snapshot_v1_multi.bin", &expected_bytes);
    assert_eq!(
        fixture, expected_bytes,
        "committed v1 multi-section frame drifted; if the format changed \
         intentionally, bump FORMAT_VERSION and regenerate fixtures"
    );
    assert_eq!(Snapshot::decode(&fixture).unwrap(), snapshot);
}

#[test]
fn golden_frame_header_fields() {
    let fixture = golden("snapshot_v1_multi.bin", &multi_section_snapshot().encode());
    assert_eq!(&fixture[..8], &MAGIC);
    assert_eq!(u16::from_le_bytes([fixture[8], fixture[9]]), FORMAT_VERSION);
    assert_eq!(u16::from_le_bytes([fixture[10], fixture[11]]), 0, "flags");
    assert_eq!(
        u32::from_le_bytes([fixture[12], fixture[13], fixture[14], fixture[15]]),
        3,
        "section count"
    );
}

// ------------------------------------------------------------ round-trip

#[test]
fn every_value_shape_roundtrips() {
    let shapes = [
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(3.25),
        Value::Float(f64::NEG_INFINITY),
        Value::Str(String::new()),
        Value::Str("héllo → wörld 京 🦀".into()),
        Value::Bytes(vec![]),
        Value::Bytes(vec![0, 255, 68, 52]), // starts with 'D'-adjacent bytes
        Value::list([Value::Int(1), Value::Str("x".into()), Value::Null]),
        Value::map([("k", Value::list([Value::map([("n", Value::Int(0))])]))]),
    ];
    for (i, state) in shapes.iter().enumerate() {
        let bytes = encode_slot("pe", i as u32, state);
        let (_, _, back) = decode_slot(&bytes).unwrap();
        assert_eq!(&back, state, "shape {i} did not roundtrip");
    }
    // NaN cannot be compared with ==; check it stays NaN.
    let bytes = encode_slot("pe", 0, &Value::Float(f64::NAN));
    match decode_slot(&bytes).unwrap().2 {
        Value::Float(f) => assert!(f.is_nan()),
        other => panic!("expected float, got {other:?}"),
    }
}

#[test]
fn random_nested_values_roundtrip() {
    fn gen_value(g: &mut prop::Gen, depth: usize) -> Value {
        match g.usize_in(0..if depth == 0 { 6 } else { 8 }) {
            0 => Value::Null,
            1 => Value::Bool(g.any()),
            2 => Value::Int(g.any_i64()),
            3 => Value::Float(g.f64_in(-1e12..1e12)),
            4 => Value::Str(g.string(0..24)),
            5 => Value::Bytes(g.bytes(0..32)),
            6 => Value::List(g.vec(0..4, |g| gen_value(g, depth - 1))),
            _ => {
                let n = g.usize_in(0..4);
                Value::Map(
                    (0..n)
                        .map(|_| (g.string_of("abcdefgh", 1..6), gen_value(g, depth - 1)))
                        .collect(),
                )
            }
        }
    }
    prop::for_all(|g| {
        let state = gen_value(g, 3);
        let instance = g.any::<u32>();
        let pe = g.string_of("abcdefStateXYZ", 1..16);
        let bytes = encode_slot(&pe, instance, &state);
        let (pe2, i2, state2) = decode_slot(&bytes).unwrap();
        assert_eq!((pe2, i2), (pe, instance));
        assert_eq!(state2, state);
    });
}

// ------------------------------------------- forward compat & corruption

#[test]
fn unknown_future_version_is_typed() {
    let mut bytes = encode_slot("pe", 0, &Value::Int(1));
    bytes[8] = 2; // version 2 from the future
    assert_eq!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::UnsupportedVersion(2))
    );
}

#[test]
fn unknown_flags_are_typed() {
    let mut bytes = encode_slot("pe", 0, &Value::Int(1));
    bytes[10] |= 0b1000_0000;
    assert_eq!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::UnknownFlags(0b1000_0000))
    );
}

#[test]
fn non_frame_garbage_is_bad_magic() {
    assert_eq!(
        Snapshot::decode(b"NOTSNAPS-and-then-some-bytes"),
        Err(SnapshotError::BadMagic)
    );
}

#[test]
fn section_length_lie_with_fixed_file_crc_is_truncated() {
    // Inflate the single section's payload length far past the frame end,
    // then recompute the file CRC so *only* the length lies. The decoder
    // must report the truncated section, not crash or misread.
    let mut bytes = encode_slot("pe", 0, &Value::Int(1));
    // Section layout after the 16-byte header: name_len(4) name(2)
    // instance(4) payload_len(4) ...
    let payload_len_at = 16 + 4 + 2 + 4;
    bytes[payload_len_at..payload_len_at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
    let crc_at = bytes.len() - 4;
    let crc = d4py_sync::crc::crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert!(
        matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Truncated {
                needed: 1_000_000,
                ..
            })
        ),
        "got {:?}",
        Snapshot::decode(&bytes)
    );
}

#[test]
fn section_content_swap_with_fixed_file_crc_is_section_crc() {
    // Flip a payload byte and fix the file CRC: the per-section CRC is
    // now the only guard, and it must fire.
    let mut bytes = encode_slot("pe", 0, &Value::Int(7));
    let payload_at = 16 + 4 + 2 + 4 + 4; // first payload byte (the tag)
    bytes[payload_at + 1] ^= 0xFF;
    let crc_at = bytes.len() - 4;
    let crc = d4py_sync::crc::crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert_eq!(
        Snapshot::decode(&bytes),
        Err(SnapshotError::SectionCrc { section: 0 })
    );
}

#[test]
fn bit_flips_are_detected_everywhere() {
    // Deterministic sweep: a single-bit flip at EVERY position of a small
    // frame must fail with a typed error — the file CRC guarantees it.
    let bytes = encode_slot("pe", 1, &Value::map([("k", Value::Int(5))]));
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.clone();
            damaged[byte] ^= 1 << bit;
            assert!(
                Snapshot::decode(&damaged).is_err(),
                "flip at {byte}:{bit} went undetected"
            );
        }
    }
}

#[test]
fn seeded_corruption_never_panics_and_always_types() {
    // 128 seeded mutations across three damage classes (requirement:
    // 100+); each must produce a SnapshotError, never a panic. The prop
    // harness prints the replay seed on failure.
    let clean = multi_section_snapshot().encode();
    prop::for_all_cases(128, |g| {
        let mut bytes = clean.clone();
        match g.usize_in(0..3) {
            // Bit flip anywhere.
            0 => {
                let at = g.usize_in(0..bytes.len());
                bytes[at] ^= 1 << g.usize_in(0..8);
            }
            // Truncation to any shorter length.
            1 => bytes.truncate(g.usize_in(0..bytes.len())),
            // Length-field lie: overwrite 4 bytes somewhere in the body
            // with a random length-looking word.
            _ => {
                let at = g.usize_in(8..bytes.len().saturating_sub(4).max(9));
                let lie = (g.any::<u32>() % 2_000_000).to_le_bytes();
                bytes[at..at + 4].copy_from_slice(&lie);
            }
        }
        if bytes == clean {
            return; // the mutation was an identity (e.g. same length word)
        }
        match Snapshot::decode(&bytes) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::UnknownFlags(_)
                | SnapshotError::Truncated { .. }
                | SnapshotError::SectionCrc { .. }
                | SnapshotError::FileCrc { .. }
                | SnapshotError::Payload(_)
                | SnapshotError::TrailingBytes(_)
                | SnapshotError::SlotMismatch { .. },
            ) => {}
            Ok(_) => panic!("corrupted frame decoded successfully"),
        }
    });
}

#[test]
fn misfiled_frame_is_slot_mismatch() {
    let bytes = encode_slot("happyState", 1, &Value::Int(1));
    assert!(matches!(
        decode_slot_payload("happyState#2", &bytes),
        Err(SnapshotError::SlotMismatch { .. })
    ));
}

// --------------------------------------------------- engine degradation

/// A minimal stateful counting workflow: source → (global) counter sink
/// that snapshots/restores its count.
fn counting_exe(items: i64) -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
    struct Counter {
        n: i64,
        out: std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>,
    }
    impl ProcessingElement for Counter {
        fn process(&mut self, _p: &str, _v: Value, _ctx: &mut dyn Context) {
            self.n += 1;
        }
        fn on_done(&mut self, _ctx: &mut dyn Context) {
            self.out.lock().push(Value::Int(self.n));
        }
        fn snapshot(&self) -> Option<Value> {
            Some(Value::Int(self.n))
        }
        fn restore(&mut self, state: Value) {
            self.n = state.as_int().unwrap_or(0);
        }
    }
    let mut g = WorkflowGraph::new("count");
    let src = g.add_pe(PeSpec::source("src", "out"));
    let cnt = g.add_pe(PeSpec::sink("count", "in").stateful());
    g.connect(src, "out", cnt, "in", Grouping::Global).unwrap();
    let results = std::sync::Arc::new(d4py_sync::Mutex::new(Vec::new()));
    let r = results.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(src, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for i in 0..items {
                ctx.emit("out", Value::Int(i));
            }
        }))
    });
    exe.register(cnt, move || {
        Box::new(Counter {
            n: 0,
            out: r.clone(),
        })
    });
    (exe.seal().unwrap(), results)
}

fn run_with_store(
    exe: &Executable,
    store: std::sync::Arc<MemoryStateStore>,
) -> dispel4py::core::metrics::RunReport {
    use dispel4py::core::mappings::engine::{self, RunPlan};
    let plan = RunPlan {
        state: Some(store),
        ..RunPlan::new(
            "hybrid_multi",
            &dispel4py::core::mappings::hybrid::ChannelQueueFactory,
        )
    };
    engine::run(exe, &ExecutionOptions::new(2), &plan).unwrap()
}

#[test]
fn damaged_frame_falls_back_to_cold_start_with_reason() {
    let store = MemoryStateStore::new();
    let (exe, _) = counting_exe(5);
    run_with_store(&exe, store.clone());
    // Damage the stored frame.
    let mut raw = store.raw("count#0").expect("snapshot saved");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x20;
    store.insert_raw("count#0", raw);

    let (exe, results) = counting_exe(5);
    let report = run_with_store(&exe, store);
    // Cold start: 5 items, not 10.
    assert_eq!(results.lock().as_slice(), &[Value::Int(5)]);
    assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    assert!(
        report.warnings[0].contains("warm start skipped for count#0"),
        "{:?}",
        report.warnings
    );
}

#[test]
fn future_version_frame_falls_back_to_cold_start() {
    let store = MemoryStateStore::new();
    let mut frame = encode_slot("count", 0, &Value::Int(100));
    frame[8] = 7; // from the future
    store.insert_raw("count#0", frame);

    let (exe, results) = counting_exe(4);
    let report = run_with_store(&exe, store.clone());
    assert_eq!(results.lock().as_slice(), &[Value::Int(4)]);
    assert!(
        report.warnings[0].contains("unsupported snapshot format version 7"),
        "{:?}",
        report.warnings
    );
    // The cold run re-saved a valid v1 frame over the alien one.
    let (exe, results) = counting_exe(4);
    let report = run_with_store(&exe, store);
    assert_eq!(results.lock().as_slice(), &[Value::Int(8)]);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
}

#[test]
fn intact_frames_warm_start_without_warnings() {
    let store = MemoryStateStore::new();
    let (exe, _) = counting_exe(3);
    run_with_store(&exe, store.clone());
    let (exe, results) = counting_exe(3);
    let report = run_with_store(&exe, store);
    assert_eq!(results.lock().as_slice(), &[Value::Int(6)]);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
}

#[test]
fn legacy_blob_decode_error_is_typed_too() {
    // A legacy (unframed) blob that is itself truncated: the shim must
    // surface a typed codec error, not a panic.
    let store = MemoryStateStore::new();
    let legacy = dispel4py::core::codec::encode_value(&Value::Str("hello".into()));
    store.insert_raw("count#0", legacy[..legacy.len() - 2].to_vec());
    match dispel4py::core::state::StateStore::load(&*store, "count#0") {
        Err(CoreError::Snapshot(SnapshotError::Payload(CodecError::BadLength { .. }))) => {}
        other => panic!("expected typed legacy decode error, got {other:?}"),
    }
}
