//! Metrics derived from recorded executions.
//!
//! End-to-end metrics come from untraced executions (sources and sinks
//! wrapped only): the gated ones ([`end_to_end`]) and the tail and item
//! latencies ([`end_to_end_tails`]). Per-layer metrics come from traced
//! executions. Every per-execution figure is summarised as the median over
//! executions unless its name says otherwise.

use crate::probe::{PeLedger, Probe};
use crate::relay::WireStats;
use crate::stats::{median, percentile};
use crate::workload::{Bench, Execution};
use std::collections::HashMap;
use std::time::Duration;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Redis verbs reported one by one as `redis.cmd.<VERB>`; any other verb
/// is counted under `redis.cmd.OTHER`.
pub const VERBS: [&str; 11] = [
    "XADD",
    "XREADGROUP",
    "XACK",
    "XDEL",
    "XAUTOCLAIM",
    "XGROUP",
    "XINFO",
    "XLEN",
    "HSET",
    "HGET",
    "DEL",
];

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn sources(p: &Probe) -> impl Iterator<Item = &PeLedger> {
    p.pes().iter().filter(|l| l.source)
}

/// When the first source started, in probe nanoseconds.
fn source_start(p: &Probe) -> u64 {
    sources(p)
        .filter_map(PeLedger::first_start)
        .min()
        .unwrap_or(0)
}

/// Due time of item `id`: the source's start plus its arrival gaps. Items
/// without an id (aggregates) are due when the source starts.
fn due(bench: &Bench, p: &Probe, id: Option<i64>) -> u64 {
    let offset = id
        .and_then(|i| usize::try_from(i).ok())
        .and_then(|i| bench.due.get(i))
        .copied()
        .unwrap_or(0);
    source_start(p) + offset
}

/// Milliseconds from each item's due time to the end of its `process()`
/// at a sink.
pub fn item_latencies_ms(bench: &Bench, e: &Execution) -> Vec<f64> {
    let p = &e.probe;
    p.pes()
        .iter()
        .filter(|l| l.sink)
        .flat_map(|l| l.completed())
        .map(|(id, t)| ms(t.saturating_sub(due(bench, p, id))))
        .collect()
}

/// Milliseconds by which the source emitted each item after its due time.
pub fn source_lags_ms(bench: &Bench, e: &Execution) -> Vec<f64> {
    let p = &e.probe;
    sources(p)
        .flat_map(|l| l.emitted())
        .map(|(id, t)| ms(t.saturating_sub(due(bench, p, Some(id)))))
        .collect()
}

/// Milliseconds from the last source emission to `execute` returning.
pub fn result_lag_ms(e: &Execution) -> f64 {
    let last = sources(&e.probe)
        .map(PeLedger::last_emit)
        .max()
        .unwrap_or(0);
    ms(e.returned.saturating_sub(last))
}

/// The process's peak resident set size in KiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn rss_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Runs `f` and returns its result with the largest resident set size the
/// process reached meanwhile, in KiB: the kernel's high-water mark is
/// reset first (`5` to `/proc/self/clear_refs`) and read afterwards.
/// (redis-lite runs in-process, so its keyspace counts too.)
pub fn with_rss_peak<T>(f: impl FnOnce() -> T) -> (T, u64) {
    // Where the reset is refused, the mark covers the whole process life.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let out = f();
    (out, rss_peak_kb())
}

/// What the end-to-end metrics need of one execution. An untraced
/// execution is reduced to this as soon as it ends: the benchmark keeps no
/// per-item records across executions, so its own memory does not grow
/// the resident set `peak_rss_mb` measures.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Wall time of the `execute` call, in seconds.
    pub wall_s: f64,
    /// `RunReport::process_time` in seconds (0 if the execution errored).
    pub process_s: f64,
    /// See [`result_lag_ms`].
    pub result_lag_ms: f64,
    /// Median item latency ([`item_latencies_ms`]).
    pub item_latency_p50_ms: f64,
    /// 99th-percentile item latency.
    pub item_latency_p99_ms: f64,
    /// Peak resident set size during `execute`, in MiB.
    pub peak_rss_mb: f64,
    /// The execution's share of `failed_ratio`'s numerator.
    pub failures: u64,
    /// Why the execution failed, if it did.
    pub failure: Option<String>,
}

impl Summary {
    /// Summarises `e`, an execution of `bench`.
    pub fn of(bench: &Bench, e: &Execution) -> Summary {
        let latencies = item_latencies_ms(bench, e);
        Summary {
            wall_s: secs(e.wall),
            process_s: e.report.as_ref().map_or(0.0, |r| secs(r.process_time)),
            result_lag_ms: result_lag_ms(e),
            item_latency_p50_ms: percentile(&latencies, 0.5),
            item_latency_p99_ms: percentile(&latencies, 0.99),
            peak_rss_mb: e.peak_rss_kb as f64 / 1024.0,
            failures: e.failures(),
            failure: e.failure(),
        }
    }
}

/// The gated end-to-end metrics over untraced executions, with `setups`
/// the measured set-up durations.
pub fn end_to_end(runs: &[Summary], setups: &[Duration]) -> Vec<Metric> {
    let med = |f: fn(&Summary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    vec![
        metric(
            "setup_s",
            setups.iter().copied().map(secs).sum::<f64>() / setups.len().max(1) as f64,
            "s",
        ),
        metric("runtime_s", med(|e| e.wall_s), "s"),
        metric("process_s", med(|e| e.process_s), "s"),
        metric("result_lag_ms", med(|e| e.result_lag_ms), "ms"),
        metric("peak_rss_mb", med(|e| e.peak_rss_mb), "MiB"),
    ]
}

/// End-to-end tail and item metrics over untraced executions. They are
/// reported, not gated: on a host whose CPU is shared they spread too far
/// between runs of the CPU-bound workloads for a regression bound.
pub fn end_to_end_tails(runs: &[Summary]) -> Vec<Metric> {
    let walls: Vec<f64> = runs.iter().map(|e| e.wall_s).collect();
    let med = |f: fn(&Summary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("runtime_p90_s", percentile(&walls, 0.9), "s"),
        metric("item_latency_p50_ms", med(|e| e.item_latency_p50_ms), "ms"),
        metric("item_latency_p99_ms", med(|e| e.item_latency_p99_ms), "ms"),
    ]
}

/// Per-execution counts that must repeat exactly for one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `process()` calls over all PEs.
    pub pe_calls: u64,
    /// Emissions over all PEs.
    pub pe_emits: u64,
    /// Encoded bytes of those emissions.
    pub pe_bytes: u64,
    /// `RunReport::tasks_executed`.
    pub engine_tasks: u64,
}

/// The [`Counts`] of a traced execution.
pub fn counts(e: &Execution) -> Counts {
    let pes = e.probe.pes();
    Counts {
        pe_calls: pes.iter().map(PeLedger::calls).sum(),
        pe_emits: pes.iter().map(PeLedger::emits).sum(),
        pe_bytes: pes.iter().map(PeLedger::bytes).sum(),
        engine_tasks: e.report.as_ref().map_or(0, |r| r.tasks_executed),
    }
}

/// Busy seconds inside `process()`/`on_done()` over all PEs.
pub fn pe_busy_s(e: &Execution) -> f64 {
    e.probe.pes().iter().map(|l| l.busy_ns() as f64 / 1e9).sum()
}

/// Milliseconds from the `execute` call to the first `process()`.
pub fn head_ms(e: &Execution) -> f64 {
    let first = e.probe.pes().iter().filter_map(PeLedger::first_start).min();
    ms(first.unwrap_or(e.called).saturating_sub(e.called))
}

/// Milliseconds from the last `process()`/`on_done()` to `execute`
/// returning.
pub fn tail_ms(e: &Execution) -> f64 {
    let last = e
        .probe
        .pes()
        .iter()
        .map(PeLedger::last_end)
        .max()
        .unwrap_or(0);
    ms(e.returned.saturating_sub(last.max(e.called)))
}

/// Milliseconds from an item's emission at one PE to the start of its
/// `process()` at the next, matched by `id` on every edge whose target
/// has a single upstream PE and whose ids are unique at both ends.
pub fn queue_waits_ms(e: &Execution) -> Vec<f64> {
    let pes = e.probe.pes();
    let unique = |events: Vec<(i64, u64)>| {
        let mut seen: HashMap<i64, Option<u64>> = HashMap::new();
        for (id, t) in events {
            seen.entry(id).and_modify(|v| *v = None).or_insert(Some(t));
        }
        seen
    };
    let mut waits = Vec::new();
    for (to, from) in e.probe.preds().iter().enumerate() {
        let [from] = from.as_slice() else { continue };
        let sent = unique(pes[*from].emitted());
        for (id, got) in unique(pes[to].received()) {
            if let (Some(got), Some(Some(sent))) = (got, sent.get(&id)) {
                waits.push(ms(got.saturating_sub(*sent)));
            }
        }
    }
    waits
}

/// The ledger identities every traced execution must satisfy; `Err`
/// names the first that fails.
pub fn check_identities(e: &Execution) -> Result<(), String> {
    let Ok(r) = &e.report else {
        return Err("execute failed".into());
    };
    let c = counts(e);
    if c.pe_calls != c.engine_tasks {
        return Err(format!(
            "pe.calls {} != engine.tasks {}",
            c.pe_calls, c.engine_tasks
        ));
    }
    // `engine.overhead_s` is `process_s − pe.busy_s`, so the sum holds by
    // construction; what can fail is a negative overhead: PE time the
    // engine's active-time ledger did not count.
    let (busy, process) = (pe_busy_s(e), secs(r.process_time));
    if busy > process {
        return Err(format!(
            "pe.busy_s {busy} > process_s {process}: engine.overhead_s would be negative"
        ));
    }
    let (head, tail, runtime_ms) = (head_ms(e), tail_ms(e), secs(e.wall) * 1e3);
    if head + tail > runtime_ms {
        return Err(format!(
            "engine.head_ms {head} + engine.tail_ms {tail} > runtime {runtime_ms} ms"
        ));
    }
    Ok(())
}

/// Inputs to [`per_layer`] beyond the traced executions.
pub struct TraceContext<'a> {
    /// The prepared workload.
    pub bench: &'a Bench,
    /// Untraced executions of the same run, for `trace.overhead_ratio`.
    pub untraced: &'a [Summary],
    /// Relay counts of each traced execution (empty without Redis).
    pub wire: &'a [WireStats],
}

/// The per-layer metrics over traced executions.
pub fn per_layer(cx: &TraceContext<'_>, traced: &[Execution]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Execution) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let rep = |f: &dyn Fn(&d4py_core::metrics::RunReport) -> f64| {
        med(&|e: &Execution| e.report.as_ref().map(f).unwrap_or(0.0))
    };
    let runtime = med(&|e| secs(e.wall));
    let process = rep(&|r| secs(r.process_time));
    let busy = med(&pe_busy_s);
    let untraced_runtime = median(&cx.untraced.iter().map(|e| e.wall_s).collect::<Vec<_>>());
    let waits: Vec<f64> = traced.iter().flat_map(queue_waits_ms).collect();
    let lags: Vec<f64> = traced
        .iter()
        .flat_map(|e| source_lags_ms(cx.bench, e))
        .collect();
    let micros = |d: Option<Duration>| d.map_or(0.0, |d| d.as_secs_f64() * 1e6);
    let active = |pick: fn(&[usize]) -> Option<usize>| {
        rep(&|r| {
            let sizes: Vec<usize> = r.scaling_trace.iter().map(|p| p.active_size).collect();
            pick(&sizes).unwrap_or(0) as f64
        })
    };
    let simple_ratio = match cx.bench.workload {
        // The galaxy reference runs at time_scale 0, so it is no baseline
        // for a paced run.
        crate::workload::Workload::GalaxyBursty => 0.0,
        _ => runtime / secs(cx.bench.simple_runtime),
    };
    let build_ms = {
        let per_job: Vec<f64> = traced
            .iter()
            .filter_map(|e| e.build)
            .map(|d| secs(d) * 1e3)
            .collect();
        if per_job.is_empty() {
            secs(cx.bench.build_time) * 1e3
        } else {
            median(&per_job)
        }
    };

    let mut out = vec![
        metric("graph.analyze_us", med(&|e| micros(e.analyze)), "us"),
        metric("workflows.build_ms", build_ms, "ms"),
        metric("pe.busy_s", busy, "s"),
        metric("pe.calls", med(&|e| counts(e).pe_calls as f64), "count"),
        metric("pe.emits", med(&|e| counts(e).pe_emits as f64), "count"),
        metric("pe.bytes", med(&|e| counts(e).pe_bytes as f64), "bytes"),
        metric("engine.overhead_s", process - busy, "s"),
        metric("engine.head_ms", med(&head_ms), "ms"),
        metric("engine.tail_ms", med(&tail_ms), "ms"),
        metric("engine.tasks", rep(&|r| r.tasks_executed as f64), "count"),
        metric(
            "engine.task_p50_us",
            rep(&|r| micros(r.task_latency.p50)),
            "us",
        ),
        metric(
            "engine.task_p99_us",
            rep(&|r| micros(r.task_latency.p99)),
            "us",
        ),
        metric("engine.simple_ratio", simple_ratio, "ratio"),
        metric("queue.steals", rep(&|r| r.queue_steals as f64), "count"),
        metric("queue.wait_p50_ms", percentile(&waits, 0.5), "ms"),
        metric("queue.wait_p99_ms", percentile(&waits, 0.99), "ms"),
        metric("source.lag_p99_ms", percentile(&lags, 0.99), "ms"),
        metric(
            "autoscale.mean_active",
            if runtime > 0.0 {
                process / runtime
            } else {
                0.0
            },
            "workers",
        ),
        metric(
            "autoscale.decisions",
            rep(&|r| r.scaling_trace.len() as f64),
            "count",
        ),
        metric(
            "autoscale.min_active",
            active(|s| s.iter().copied().min()),
            "workers",
        ),
        metric(
            "autoscale.max_active",
            active(|s| s.iter().copied().max()),
            "workers",
        ),
    ];

    let wire = |f: &dyn Fn(&WireStats) -> f64| median(&cx.wire.iter().map(f).collect::<Vec<_>>());
    out.push(metric(
        "redis.commands",
        wire(&|w| w.commands as f64),
        "count",
    ));
    for verb in VERBS {
        out.push(metric(
            format!("redis.cmd.{verb}"),
            wire(&|w| w.per_verb.get(verb).copied().unwrap_or(0) as f64),
            "count",
        ));
    }
    out.push(metric(
        "redis.cmd.OTHER",
        wire(&|w| {
            w.per_verb
                .iter()
                .filter(|(v, _)| !VERBS.contains(&v.as_str()))
                .map(|(_, n)| *n)
                .sum::<u64>() as f64
        }),
        "count",
    ));
    out.extend([
        metric(
            "redis.round_trips",
            wire(&|w| w.round_trips as f64),
            "count",
        ),
        metric("redis.bytes_up", wire(&|w| w.bytes_up as f64), "bytes"),
        metric("redis.bytes_down", wire(&|w| w.bytes_down as f64), "bytes"),
        metric("redis.wait_s", wire(&|w| secs(w.wait)), "s"),
        metric(
            "redis.connections",
            wire(&|w| w.connections as f64),
            "count",
        ),
        metric(
            "redis.empty_read_ratio",
            wire(&WireStats::empty_read_ratio),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            if untraced_runtime > 0.0 {
                runtime / untraced_runtime
            } else {
                0.0
            },
            "ratio",
        ),
    ]);

    for name in crate::PE_NAMES {
        let of = |e: &Execution, f: fn(&PeLedger) -> u64| {
            e.probe
                .pes()
                .iter()
                .find(|l| l.name == *name)
                .map_or(0.0, |l| f(l) as f64)
        };
        out.push(metric(
            format!("pe.{name}.busy_s"),
            med(&|e| of(e, PeLedger::busy_ns) / 1e9),
            "s",
        ));
        out.push(metric(
            format!("pe.{name}.calls"),
            med(&|e| of(e, PeLedger::calls)),
            "count",
        ));
    }
    out
}
