//! Integration: a PE call's emissions stream downstream while it runs.
//!
//! The dynamic-family engine routes a call's buffered emissions once the
//! oldest of them has waited `FLUSH_AFTER`, so a sink can process an early
//! item while the source that emitted it is still inside its call.

use d4py_sync::{Condvar, Mutex};
use dispel4py::mappings::engine::FLUSH_AFTER;
use dispel4py::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the source waits for the sink before giving up.
const PATIENCE: Duration = Duration::from_secs(2);

/// A flag one PE raises and another waits on, for at most [`PATIENCE`].
#[derive(Default)]
struct Flag {
    raised: Mutex<bool>,
    changed: Condvar,
}

impl Flag {
    fn raise(&self) {
        *self.raised.lock() = true;
        self.changed.notify_all();
    }

    /// True once raised; false if [`PATIENCE`] ran out first.
    fn wait(&self) -> bool {
        let deadline = Instant::now() + PATIENCE;
        let mut raised = self.raised.lock();
        while !*raised {
            if self.changed.wait_until(&mut raised, deadline).timed_out() {
                return *raised;
            }
        }
        true
    }
}

/// src → sink. Both are stateless (`Shuffle`), or, when `pinned`, both are
/// stateful (`Global`), so each runs on its own pinned worker and A goes to
/// the sink's private queue; a helping sink worker could otherwise run src
/// itself. src emits A, pauses for 2 × `FLUSH_AFTER`, emits B — which
/// routes A — and then waits for the sink to process A. Returns the
/// executable, whether src saw that happen before its call returned, and
/// the number of items the sink received.
fn early_item_exe(pinned: bool) -> (Executable, Arc<AtomicBool>, Arc<AtomicU64>) {
    let mut g = WorkflowGraph::new("stream");
    let (src, sink, grouping) = match pinned {
        true => (
            PeSpec::source("src", "out").stateful(),
            PeSpec::sink("sink", "in").stateful(),
            Grouping::Global,
        ),
        false => (
            PeSpec::source("src", "out"),
            PeSpec::sink("sink", "in"),
            Grouping::Shuffle,
        ),
    };
    let (src, sink) = (g.add_pe(src), g.add_pe(sink));
    g.connect(src, "out", sink, "in", grouping).unwrap();
    let flag = Arc::new(Flag::default());
    let saw = Arc::new(AtomicBool::new(false));
    let received = Arc::new(AtomicU64::new(0));
    let mut exe = Executable::new(g).unwrap();
    let (f, s) = (flag.clone(), saw.clone());
    exe.register(src, move || {
        let (f, s) = (f.clone(), s.clone());
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            ctx.emit("out", Value::from("A"));
            // sleep: a pacing gap past FLUSH_AFTER, so emitting B routes A
            // while this call is still running.
            std::thread::sleep(2 * FLUSH_AFTER);
            ctx.emit("out", Value::from("B"));
            s.store(f.wait(), Ordering::SeqCst);
        }))
    });
    let (f, n) = (flag, received.clone());
    exe.register(sink, move || {
        let (f, n) = (f.clone(), n.clone());
        Box::new(FnTransform(
            move |_: &str, v: Value, _: &mut dyn Context| {
                n.fetch_add(1, Ordering::SeqCst);
                if v.as_str() == Some("A") {
                    f.raise();
                }
            },
        ))
    });
    (exe.seal().unwrap(), saw, received)
}

fn assert_streams(mapping: &dyn Mapping, pinned: bool) {
    let (exe, saw, received) = early_item_exe(pinned);
    let report = mapping.execute(&exe, &ExecutionOptions::new(2)).unwrap();
    assert!(
        saw.load(Ordering::SeqCst),
        "{}: the sink did not process A while the source ran",
        mapping.name()
    );
    assert_eq!(received.load(Ordering::SeqCst), 2, "{}", mapping.name());
    assert_eq!(report.failed_tasks, 0);
}

#[test]
fn dyn_multi_streams_a_paced_source() {
    assert_streams(&DynMulti, false);
}

#[test]
fn dyn_redis_streams_a_paced_source() {
    assert_streams(&DynRedis::new(RedisBackend::in_proc()), false);
}

#[test]
fn hybrid_multi_streams_a_paced_source_into_a_pinned_sink() {
    assert_streams(&HybridMulti, true);
}
