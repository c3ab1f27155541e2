//! Dynamic scheduling (Figure 2 of the paper): the zero-slot plan of
//! [`super::engine`].
//!
//! Every worker holds its own copy of the abstract workflow and pulls
//! `(PE id, data)` tasks from a shared global queue; results are routed back
//! into the queue. The planners `dyn_multi`, `dyn_auto_multi`, `dyn_redis`
//! and `dyn_auto_redis` check that the workflow is stateless
//! ([`require_stateless`](crate::mapping::require_stateless)) and hand the
//! engine a queue factory and, for the auto-scaling variants, an
//! [`AutoscaleSetup`]. With no stateful PE the engine pins no slot, so the
//! whole pool is dynamic.
//!
//! Termination: in strict mode (the default) the engine's outstanding-task
//! counter proves the run finished and the coordinator sends the poison
//! pills at once. `TerminationConfig { strict: false, .. }` runs the
//! paper's §3.2.3 protocol instead: a worker that keeps finding the queue
//! empty waits `poll_timeout`, retries `max_retries` times, then
//! broadcasts poison pills to stop the remaining workers quickly.

use crate::autoscale::{AutoscaleConfig, MonitorStrategy};
use crate::queue::TaskQueue;
use std::sync::Arc;

/// Constructor for a monitoring strategy over the run's global queue.
pub type StrategyBuilder =
    Box<dyn Fn(Arc<dyn TaskQueue>) -> Box<dyn MonitorStrategy> + Send + Sync>;

/// Auto-scaling attachment for a dynamic run: the configuration plus a
/// strategy constructor (the strategy usually needs the queue).
pub struct AutoscaleSetup {
    /// Scaler parameters.
    pub config: AutoscaleConfig,
    /// Builds the monitoring strategy over the run's queue.
    pub strategy: StrategyBuilder,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoreError;
    use crate::executable::Executable;
    use crate::fault::FaultPlan;
    use crate::mapping::Mapping;
    use crate::mappings::engine::{self, testkit::FlakyFactory, RunPlan};
    use crate::mappings::hybrid::ChannelQueueFactory;
    use crate::mappings::DynMulti;
    use crate::metrics::RunReport;
    use crate::options::ExecutionOptions;
    use crate::pe::{Collector, Context, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use std::sync::atomic::AtomicUsize;
    use std::time::Instant;

    /// A zero-slot plan over channel queues.
    fn run_plan(exe: &Executable, opts: &ExecutionOptions, plan: RunPlan<'_>) -> RunReport {
        engine::run(exe, opts, &plan).unwrap()
    }

    fn auto_plan(mapping: &'static str, setup: AutoscaleSetup) -> RunPlan<'static> {
        RunPlan {
            autoscale: Some(setup),
            ..RunPlan::new(mapping, &ChannelQueueFactory)
        }
    }

    fn pipeline_exe(items: i64) -> (Executable, std::sync::Arc<d4py_sync::Mutex<Vec<Value>>>) {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, handle) = Collector::new();
        let h = handle.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, move || {
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                for i in 0..items {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(v.as_int().unwrap() * 3));
            }))
        });
        exe.register(c, move || Box::new(Collector::into_handle(h.clone())));
        (exe.seal().unwrap(), handle)
    }

    fn run(exe: &Executable, workers: usize) -> RunReport {
        run_plan(
            exe,
            &ExecutionOptions::new(workers),
            RunPlan::new("dyn_test", &ChannelQueueFactory),
        )
    }

    fn sorted_ints(results: &d4py_sync::Mutex<Vec<Value>>) -> Vec<i64> {
        let mut got: Vec<i64> = results.lock().iter().map(|v| v.as_int().unwrap()).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn single_worker_processes_everything() {
        let (exe, results) = pipeline_exe(20);
        let report = run(&exe, 1);
        assert_eq!(results.lock().len(), 20);
        assert_eq!(report.tasks_executed, 41); // kickoff + 20 + 20
        assert_eq!(report.dropped_emissions, 0);
    }

    #[test]
    fn many_workers_process_everything_exactly_once() {
        let (exe, results) = pipeline_exe(200);
        run(&exe, 8);
        assert_eq!(
            sorted_ints(&results),
            (0..200).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stateful_workflow_rejected() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::group_by("k"))
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || Box::new(FnSource(|_: &mut dyn Context| {})));
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        let err = DynMulti
            .execute(&exe, &ExecutionOptions::new(2))
            .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedWorkflow { .. }));
    }

    #[test]
    fn zero_workers_rejected() {
        let (exe, _) = pipeline_exe(1);
        assert!(matches!(
            engine::run(
                &exe,
                &ExecutionOptions::new(0),
                &RunPlan::new("dyn_test", &ChannelQueueFactory)
            ),
            Err(CoreError::InvalidOptions(_))
        ));
    }

    #[test]
    fn empty_source_terminates_promptly() {
        let (exe, results) = pipeline_exe(0);
        let started = Instant::now();
        run(&exe, 4);
        assert!(results.lock().is_empty());
        // timing: hang detector with a generous bound (an empty run takes
        // microseconds), not a performance gate.
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn autoscaled_run_records_trace() {
        let (exe, results) = pipeline_exe(300);
        let workers = 8;
        let setup = AutoscaleSetup {
            config: AutoscaleConfig {
                tick: std::time::Duration::from_micros(500),
                ..AutoscaleConfig::default()
            },
            strategy: Box::new(|q| Box::new(crate::autoscale::QueueSizeStrategy::new(q, 4.0))),
        };
        let report = run_plan(
            &exe,
            &ExecutionOptions::new(workers),
            auto_plan("dyn_auto_test", setup),
        );
        assert_eq!(results.lock().len(), 300);
        assert!(
            !report.scaling_trace.is_empty(),
            "auto-scaled run must trace"
        );
    }

    #[test]
    fn autoscaling_reduces_process_time_on_light_load() {
        // A latency-dominated trickle: most of the pool has nothing to do.
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let build = || {
            let mut exe = Executable::new({
                let mut g = WorkflowGraph::new("t");
                let a = g.add_pe(PeSpec::source("a", "out"));
                let b = g.add_pe(PeSpec::sink("b", "in"));
                g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
                g
            })
            .unwrap();
            exe.register(d4py_graph::PeId(0), || {
                Box::new(FnSource(|ctx: &mut dyn Context| {
                    for i in 0..20 {
                        ctx.emit("out", Value::Int(i));
                    }
                }))
            });
            exe.register(d4py_graph::PeId(1), || {
                Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }))
            });
            exe.seal().unwrap()
        };
        let workers = 8;

        let plain = run_plan(
            &build(),
            &ExecutionOptions::new(workers),
            RunPlan::new("dyn", &ChannelQueueFactory),
        );
        let auto = {
            let setup = AutoscaleSetup {
                config: AutoscaleConfig {
                    initial_active: Some(2),
                    tick: std::time::Duration::from_millis(1),
                    ..AutoscaleConfig::default()
                },
                strategy: Box::new(|q| Box::new(crate::autoscale::QueueSizeStrategy::new(q, 50.0))),
            };
            run_plan(
                &build(),
                &ExecutionOptions::new(workers),
                auto_plan("dyn_auto", setup),
            )
        };
        assert!(
            auto.process_time < plain.process_time,
            "auto {:?} should be < plain {:?}",
            auto.process_time,
            plain.process_time
        );
    }

    #[test]
    fn pill_storm_under_a_zero_slot_plan_stays_exact_and_warns() {
        let (exe, results) = pipeline_exe(100);
        let plan = RunPlan {
            faults: FaultPlan::default().with_pill_storm(10, 12),
            ..RunPlan::new("dyn_test", &ChannelQueueFactory)
        };
        let report = run_plan(&exe, &ExecutionOptions::new(4), plan);
        assert_eq!(
            sorted_ints(&results),
            (0..100).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("spurious poison pill")),
            "spurious-pill warning missing: {:?}",
            report.warnings
        );
    }

    #[test]
    fn transport_retries_under_a_zero_slot_plan_stay_exact_and_warn() {
        let (exe, results) = pipeline_exe(100);
        let factory = FlakyFactory {
            charges: Arc::new(AtomicUsize::new(3)),
            ..Default::default()
        };
        let report = run_plan(
            &exe,
            &ExecutionOptions::new(4).with_transport_retries(3),
            RunPlan::new("dyn_test", &factory),
        );
        assert_eq!(
            sorted_ints(&results),
            (0..100).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("transient transport error")),
            "retry warning missing: {:?}",
            report.warnings
        );
    }

    #[test]
    fn dynamic_run_reports_one_latency_sample_per_task() {
        let (exe, _) = pipeline_exe(50);
        let report = run(&exe, 4);
        assert_eq!(report.task_latency.count, report.tasks_executed);
    }
}
