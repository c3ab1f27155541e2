//! Integration: state externalization — stateful instances snapshot their
//! aggregates and warm-start a later run (incremental processing across
//! sessions), including warm starts from stores written by **pre-versioned
//! builds** (bare codec blobs decoded through the deprecated legacy shim).

use dispel4py::core::codec::encode_value;
use dispel4py::core::state::{MemoryStateStore, StateStore};
use dispel4py::prelude::*;
use dispel4py::redis::RedisStateStore;
use dispel4py::workflows::sentiment::{self, ARTICLES_PER_X};
use std::sync::Arc;

fn cfg(scale: u32, seed: u64) -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_scale(scale)
        .with_time_scale(0.0)
        .with_seed(seed)
}

fn total_count(results: &d4py_sync::Mutex<Vec<Value>>) -> i64 {
    results
        .lock()
        .iter()
        .map(|r| r.get("count").unwrap().as_int().unwrap())
        .sum()
}

#[test]
fn warm_start_continues_aggregation_across_runs() {
    let backend = RedisBackend::in_proc();
    let store: Arc<dyn StateStore> =
        Arc::new(RedisStateStore::new(&backend, "d4py:state:warm").unwrap());

    // Session 1: 100 articles.
    let (exe, r1) = sentiment::build(&cfg(1, 11));
    HybridRedis::new(backend.clone())
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let first_total = total_count(&r1);
    assert!(first_total > 0);

    // Session 2: 100 *different* articles, warm-started from session 1's
    // snapshots. The top-3 counts must now reflect both sessions.
    let (exe, r2) = sentiment::build(&cfg(1, 22));
    HybridRedis::new(backend.clone())
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let second_total = total_count(&r2);
    assert!(
        second_total > first_total,
        "second session ({second_total}) must include first session's counts ({first_total})"
    );

    // Cold control: the same second corpus without warm start aggregates
    // strictly less.
    let (exe, r3) = sentiment::build(&cfg(1, 22));
    HybridRedis::new(backend)
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    assert!(total_count(&r3) < second_total);
}

#[test]
fn snapshots_cover_every_stateful_instance_that_saw_data() {
    let backend = RedisBackend::in_proc();
    let store = Arc::new(RedisStateStore::new(&backend, "d4py:state:slots").unwrap());
    let (exe, _) = sentiment::build(&cfg(2, 5));
    HybridRedis::new(backend)
        .with_state_store(store.clone())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    let slots = store.slots().unwrap();
    // happyState has 4 instances; group-by over 16 states reaches most of
    // them. Only PEs implementing snapshot() appear (TopThree does not).
    assert!(
        slots
            .iter()
            .filter(|s| s.starts_with("happyState#"))
            .count()
            >= 2,
        "slots: {slots:?}"
    );
    assert!(
        slots.iter().all(|s| s.starts_with("happyState#")),
        "slots: {slots:?}"
    );
}

#[test]
fn memory_store_works_with_hybrid_multi() {
    let store = MemoryStateStore::new();
    let (exe, r1) = sentiment::build(&cfg(1, 3));
    run_hybrid(&exe, store.clone());
    let first = total_count(&r1);
    // Scored twice per article (AFINN + SWN3): totals over all states would
    // be 2×100; the top-3 subset is smaller but positive.
    assert!(first > 0 && first <= 2 * ARTICLES_PER_X as i64);

    let (exe, r2) = sentiment::build(&cfg(1, 4));
    run_hybrid(&exe, store);
    assert!(total_count(&r2) > first);
}

/// Warm-start across the codec change: a store whose slots hold *legacy*
/// unframed blobs (what a pre-versioned build persisted) must warm-start a
/// second session to exactly the totals the framed two-session baseline
/// produces.
#[test]
fn legacy_store_warm_starts_to_the_framed_baseline() {
    // Session 1 populates a framed store.
    let framed = MemoryStateStore::new();
    let (exe, _) = sentiment::build(&cfg(1, 11));
    run_hybrid(&exe, framed.clone());

    // Downgrade a copy of it to the pre-versioned representation: each
    // slot's state re-saved as a bare codec blob, no frame.
    let legacy = MemoryStateStore::new();
    for slot in framed.slots().unwrap() {
        let state = framed.load(&slot).unwrap().expect("slot has state");
        legacy.insert_raw(&slot, encode_value(&state));
    }

    // Session 2 from the framed store: the baseline.
    let (exe, baseline) = sentiment::build(&cfg(1, 22));
    run_hybrid(&exe, framed);
    // Session 2 from the legacy store: decoded through the shim.
    let (exe, via_shim) = sentiment::build(&cfg(1, 22));
    run_hybrid(&exe, legacy);

    assert_eq!(
        total_count(&via_shim),
        total_count(&baseline),
        "legacy-blob warm start must aggregate identically to the framed one"
    );
}

/// A **committed** legacy fixture (bytes written before the versioned
/// format existed) still warm-starts a run through the shim: the planted
/// aggregate dominates the ranking with its exact stored count.
#[test]
fn committed_legacy_fixture_warm_starts_through_the_shim() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/legacy_happy_state.bin");
    // The fixture predates the frame format: bare codec bytes of a
    // HappyState aggregate for a state name no corpus article ever has.
    let expected_blob = encode_value(&Value::map([(
        "Legacyland",
        Value::list([Value::Float(5000.0), Value::Int(50)]),
    )]));
    if std::env::var("D4PY_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(&path, &expected_blob).expect("write fixture");
    }
    let fixture = std::fs::read(&path).expect("missing committed legacy fixture");
    assert_eq!(fixture, expected_blob, "legacy fixture bytes drifted");

    let store = MemoryStateStore::new();
    store.insert_raw("happyState#0", fixture);
    let (exe, results) = sentiment::build(&cfg(1, 7));
    run_hybrid(&exe, store.clone());

    // No article mentions Legacyland, so its count can only come from the
    // restored fixture — and its 100.0 average happiness wins the ranking.
    let rows = results.lock();
    let winner = &rows[0];
    assert_eq!(
        winner.get("state").and_then(Value::as_str),
        Some("Legacyland"),
        "rows: {rows:?}"
    );
    assert_eq!(winner.get("count").and_then(Value::as_int), Some(50));
    // The session re-saved every slot framed: the store is migrated.
    let raw = store.raw("happyState#0").unwrap();
    assert_eq!(
        &raw[..8],
        b"D4PYSNAP",
        "slot must be re-framed after the run"
    );
}

fn run_hybrid(exe: &Executable, store: Arc<MemoryStateStore>) {
    use dispel4py::core::mappings::engine::{self, RunPlan};
    use dispel4py::core::mappings::hybrid::ChannelQueueFactory;
    let plan = RunPlan {
        state: Some(store),
        ..RunPlan::new("hybrid_multi", &ChannelQueueFactory)
    };
    engine::run(exe, &ExecutionOptions::new(8), &plan).unwrap();
}

#[test]
fn runs_without_store_are_unaffected() {
    let (exe, results) = sentiment::build(&cfg(1, 7));
    HybridRedis::new(RedisBackend::in_proc())
        .execute(&exe, &ExecutionOptions::new(8))
        .unwrap();
    assert_eq!(results.lock().len(), 3);
}
