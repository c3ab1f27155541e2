//! The `small-jobs` workflow: a zero-work three-PE chain.
//!
//! `chainSource → chainTransform → chainSink`, all `Shuffle`. The source
//! emits [`CHAIN_ITEMS`] items `{id, x}` with `x` drawn from the workload
//! seed, the transform forwards each item unchanged and the sink adds it to
//! shared totals. With no work in any PE, an execution's time is the
//! engine's fixed per-job cost.

use crate::oracle::Output;
use d4py_core::executable::Executable;
use d4py_core::pe::{Context, FnSource, FnTransform};
use d4py_core::value::Value;
use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
use d4py_sync::rng::{Rng, StdRng};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Items per job.
pub const CHAIN_ITEMS: i64 = 1000;

/// What the sink received. Relaxed counters: read after `execute` joined
/// every worker.
#[derive(Debug, Default)]
pub struct ChainTotals {
    count: AtomicU64,
    id_sum: AtomicI64,
    x_sum: AtomicI64,
}

impl ChainTotals {
    /// The totals as an [`Output`].
    pub fn output(&self) -> Output {
        Output::Chain {
            count: self.count.load(Ordering::Relaxed),
            id_sum: self.id_sum.load(Ordering::Relaxed),
            x_sum: self.x_sum.load(Ordering::Relaxed),
        }
    }
}

/// The seeded payloads of one job's items.
pub fn payloads(seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CHAIN_ITEMS)
        .map(|_| i64::from(rng.next_u32() % 1_000_000))
        .collect()
}

/// Builds the chain over `seed`'s payloads.
pub fn build(seed: u64) -> (Executable, Arc<ChainTotals>) {
    let mut g = WorkflowGraph::new("zero_work_chain");
    let src = g.add_pe(PeSpec::source("chainSource", "output"));
    let mid = g.add_pe(PeSpec::transform("chainTransform", "input", "output"));
    let snk = g.add_pe(PeSpec::sink("chainSink", "input"));
    g.connect(src, "output", mid, "input", Grouping::Shuffle)
        .expect("ports declared on the PeSpecs above");
    g.connect(mid, "output", snk, "input", Grouping::Shuffle)
        .expect("ports declared on the PeSpecs above");

    let totals = Arc::new(ChainTotals::default());
    let mut exe = Executable::new(g).expect("chain graph is valid");
    exe.register(src, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for (id, x) in payloads(seed).into_iter().enumerate() {
                ctx.emit(
                    "output",
                    Value::map([("id", Value::Int(id as i64)), ("x", Value::Int(x))]),
                );
            }
        }))
    });
    exe.register(mid, || {
        Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
            ctx.emit("output", v)
        }))
    });
    let t = totals.clone();
    exe.register(snk, move || {
        let t = t.clone();
        Box::new(FnTransform(
            move |_: &str, v: Value, _: &mut dyn Context| {
                t.count.fetch_add(1, Ordering::Relaxed);
                t.id_sum.fetch_add(
                    v.get("id").and_then(Value::as_int).unwrap_or(0),
                    Ordering::Relaxed,
                );
                t.x_sum.fetch_add(
                    v.get("x").and_then(Value::as_int).unwrap_or(0),
                    Ordering::Relaxed,
                );
            },
        ))
    });
    (exe.seal().expect("all chain PEs registered"), totals)
}
