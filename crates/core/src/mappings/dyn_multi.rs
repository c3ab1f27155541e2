//! `dyn_multi`: dynamic scheduling over the in-process global queue.
//!
//! The baseline dynamic mapping from the authors' prior work (\[13\] in the
//! paper): the multiprocessing global queue of Figure 2, no auto-scaling.

use crate::error::CoreError;
use crate::executable::Executable;
use crate::mapping::{require_stateless, Mapping};
use crate::mappings::engine::{self, RunPlan};
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;
use crate::queue::{TaskQueue, WorkStealQueue};
use std::sync::Arc;

/// Per-worker deques with stealing, for the dynamic pool: they break the
/// single-queue contention plateau under high worker counts.
pub(crate) fn steal_queues(_name: &str, workers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
    Ok(Arc::new(WorkStealQueue::new(workers)))
}

/// Dynamic-scheduling multiprocessing mapping.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynMulti;

impl Mapping for DynMulti {
    fn name(&self) -> &'static str {
        "dyn_multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        require_stateless(exe, self.name())?;
        engine::run(exe, opts, &RunPlan::new(self.name(), &steal_queues))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Collector, Context, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    #[test]
    fn dyn_multi_runs_a_pipeline() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..30 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v);
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        let exe = exe.seal().unwrap();
        let report = DynMulti.execute(&exe, &ExecutionOptions::new(4)).unwrap();
        assert_eq!(report.mapping, "dyn_multi");
        assert_eq!(handle.lock().len(), 30);
        assert!(report.scaling_trace.is_empty(), "no auto-scaling here");
    }
}
