//! Failure injection: a panicking PE must not hang or kill a parallel run.

use dispel4py::mappings::engine::FLUSH_AFTER;
use dispel4py::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// source emits 0..N; the middle PE panics on multiples of `poison_every`.
fn poisoned_exe(items: i64, poison_every: i64) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("poison");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::transform("b", "in", "out"));
    let c = g.add_pe(PeSpec::sink("c", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for i in 0..items {
                ctx.emit("out", Value::Int(i));
            }
        }))
    });
    exe.register(b, move || {
        Box::new(FnTransform(
            move |_: &str, v: Value, ctx: &mut dyn Context| {
                let x = v.as_int().unwrap();
                if poison_every > 0 && x % poison_every == 0 {
                    panic!("poisoned record {x}");
                }
                ctx.emit("out", v);
            },
        ))
    });
    exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
    (exe.seal().unwrap(), count)
}

#[test]
fn dyn_multi_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    // Items 0, 10, 20, 30, 40 die; the other 45 arrive.
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn multi_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = Multi.execute(&exe, &ExecutionOptions::new(6)).unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn hybrid_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(50, 10);
    let report = HybridMulti
        .execute(&exe, &ExecutionOptions::new(4))
        .unwrap();
    assert_eq!(count.load(Ordering::Relaxed), 45);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn redis_mapping_survives_poisoned_records() {
    let (exe, count) = poisoned_exe(30, 7);
    let report = DynRedis::new(RedisBackend::in_proc())
        .execute(&exe, &ExecutionOptions::new(4))
        .unwrap();
    // 0, 7, 14, 21, 28 die.
    assert_eq!(count.load(Ordering::Relaxed), 25);
    assert_eq!(report.failed_tasks, 5);
}

#[test]
fn poisoned_source_still_terminates() {
    // The source itself panics after a few emissions: the run must
    // complete with whatever made it out. (Emissions not yet routed are
    // discarded by contract.)
    let mut g = WorkflowGraph::new("poison-src");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let b = g.add_pe(PeSpec::sink("b", "in"));
    g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            ctx.emit("out", Value::Int(1));
            panic!("source died mid-stream");
        }))
    });
    exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
    let exe = exe.seal().unwrap();

    let started = std::time::Instant::now();
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(2)).unwrap();
    // timing: hang detector with a generous bound, not a performance gate.
    assert!(started.elapsed() < Duration::from_secs(3), "must not hang");
    assert_eq!(report.failed_tasks, 1);
    assert_eq!(
        count.load(Ordering::Relaxed),
        0,
        "partial emissions discarded"
    );
}

/// src → sink (`Shuffle`, or `Global` into a stateful sink when `pinned`):
/// src emits 1, pauses past `FLUSH_AFTER`, emits 2 — which routes 1 — and
/// panics.
fn paced_panicking_source(pinned: bool) -> (Executable, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("paced-poison-src");
    let a = g.add_pe(PeSpec::source("a", "out"));
    let (sink, grouping) = match pinned {
        true => (PeSpec::sink("b", "in").stateful(), Grouping::Global),
        false => (PeSpec::sink("b", "in"), Grouping::Shuffle),
    };
    let b = g.add_pe(sink);
    g.connect(a, "out", b, "in", grouping).unwrap();
    let (_, count) = CountingSink::new();
    let n = count.clone();
    let mut exe = Executable::new(g).unwrap();
    exe.register(a, || {
        Box::new(FnSource(|ctx: &mut dyn Context| {
            ctx.emit("out", Value::Int(1));
            // sleep: a pacing gap past FLUSH_AFTER, so emitting 2 routes 1
            // before the panic.
            std::thread::sleep(2 * FLUSH_AFTER);
            ctx.emit("out", Value::Int(2));
            panic!("source died mid-stream");
        }))
    });
    exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
    (exe.seal().unwrap(), count)
}

#[test]
fn panicking_source_keeps_what_it_routed_before_the_panic() {
    let runs: [(&dyn Mapping, bool); 2] = [(&DynMulti, false), (&HybridMulti, true)];
    for (mapping, pinned) in runs {
        let (exe, count) = paced_panicking_source(pinned);
        let report = mapping.execute(&exe, &ExecutionOptions::new(2)).unwrap();
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "{}: only the item routed before the panic arrives",
            mapping.name()
        );
        assert_eq!(report.failed_tasks, 1, "{}", mapping.name());
    }
}

#[test]
fn clean_runs_report_zero_failures() {
    let (exe, _) = poisoned_exe(20, -1);
    let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
    assert_eq!(report.failed_tasks, 0);
}
