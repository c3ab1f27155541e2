//! `dyn_auto_multi`: dynamic scheduling + auto-scaling over the in-process
//! queue, monitored by queue depth (§3.2.2).

use crate::autoscale::{AutoscaleConfig, ProportionalStrategy, QueueSizeStrategy};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::mapping::{require_stateless, Mapping};
use crate::mappings::dyn_multi::steal_queues;
use crate::mappings::dynamic::AutoscaleSetup;
use crate::mappings::engine::{self, RunPlan};
use crate::metrics::RunReport;
use crate::options::ExecutionOptions;

/// Which monitoring strategy drives the scaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalingStrategyKind {
    /// The paper's naive strategy: grow/shrink ±1 on queue-depth deltas,
    /// with the configured threshold breaking flat ties (§3.2.2).
    QueueSize,
    /// The refined strategy of this reproduction's extension: EWMA-smoothed
    /// depth, absolute per-worker targets, multi-step moves (§5.5's
    /// future-work direction).
    Proportional {
        /// Queue depth one active worker is expected to absorb.
        items_per_worker: f64,
        /// EWMA smoothing factor in (0, 1].
        alpha: f64,
        /// Maximum active-size change per tick.
        max_step: usize,
    },
}

/// Dynamic auto-scaling multiprocessing mapping.
#[derive(Debug, Clone, Copy)]
pub struct DynAutoMulti {
    /// Auto-scaler parameters; `threshold` is a queue depth.
    pub config: AutoscaleConfig,
    /// The monitoring strategy (the paper's queue-size strategy by default).
    pub strategy: ScalingStrategyKind,
}

impl DynAutoMulti {
    /// Uses the paper's defaults (active size = half the pool, queue-size
    /// strategy).
    pub fn new() -> Self {
        Self {
            config: AutoscaleConfig::default(),
            strategy: ScalingStrategyKind::QueueSize,
        }
    }

    /// Overrides the scaler configuration.
    pub fn with_config(config: AutoscaleConfig) -> Self {
        Self {
            config,
            strategy: ScalingStrategyKind::QueueSize,
        }
    }

    /// Selects a different monitoring strategy (builder style).
    pub fn with_strategy(mut self, strategy: ScalingStrategyKind) -> Self {
        self.strategy = strategy;
        self
    }
}

impl Default for DynAutoMulti {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapping for DynAutoMulti {
    fn name(&self) -> &'static str {
        "dyn_auto_multi"
    }

    fn execute(&self, exe: &Executable, opts: &ExecutionOptions) -> Result<RunReport, CoreError> {
        require_stateless(exe, self.name())?;
        let threshold = self.config.threshold;
        let strategy = self.strategy;
        let setup = AutoscaleSetup {
            config: self.config,
            strategy: Box::new(move |q| match strategy {
                ScalingStrategyKind::QueueSize => Box::new(QueueSizeStrategy::new(q, threshold)),
                ScalingStrategyKind::Proportional {
                    items_per_worker,
                    alpha,
                    max_step,
                } => Box::new(ProportionalStrategy::new(
                    q,
                    items_per_worker,
                    alpha,
                    max_step,
                )),
            }),
        };
        let plan = RunPlan {
            autoscale: Some(setup),
            ..RunPlan::new(self.name(), &steal_queues)
        };
        engine::run(exe, opts, &plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{Context, CountingSink, FnSource, FnTransform};
    use crate::value::Value;
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
    use std::sync::atomic::Ordering;

    #[test]
    fn auto_multi_completes_and_traces() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::transform("b", "in", "out"));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        g.connect(b, "out", c, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..150 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                ctx.emit("out", v);
            }))
        });
        exe.register(c, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let mapping = DynAutoMulti::with_config(AutoscaleConfig {
            tick: std::time::Duration::from_micros(300),
            ..AutoscaleConfig::default()
        });
        let report = mapping.execute(&exe, &ExecutionOptions::new(8)).unwrap();
        assert_eq!(report.mapping, "dyn_auto_multi");
        assert_eq!(count.load(Ordering::Relaxed), 150);
        assert!(!report.scaling_trace.is_empty());
        // Active size in the trace must respect pool bounds.
        for p in &report.scaling_trace {
            assert!(p.active_size >= 1 && p.active_size <= 8);
        }
    }

    #[test]
    fn proportional_strategy_variant_completes() {
        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..100 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let mapping = DynAutoMulti::with_config(AutoscaleConfig {
            tick: std::time::Duration::from_micros(300),
            ..AutoscaleConfig::default()
        })
        .with_strategy(ScalingStrategyKind::Proportional {
            items_per_worker: 8.0,
            alpha: 0.5,
            max_step: 4,
        });
        let report = mapping.execute(&exe, &ExecutionOptions::new(8)).unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        // Proportional moves may exceed ±1 per decision.
        for p in &report.scaling_trace {
            assert!((1..=8).contains(&p.active_size));
        }
    }
}
