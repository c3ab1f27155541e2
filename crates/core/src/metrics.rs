//! Run metrics: *runtime*, *process time*, and auto-scaler traces.
//!
//! §5.1.2 of the paper defines the two headline metrics:
//!
//! * **runtime** — real-world (wall-clock) execution time of the workflow;
//! * **process time** — the sum of all *active* process durations. A worker
//!   contributes while it is active (running or polling); time spent parked
//!   in the auto-scaler's idle state does not count. This is the quantity
//!   auto-scaling improves.
//!
//! [`ActiveTimeLedger`] accumulates per-worker active nanoseconds;
//! [`ScalingTrace`] records the auto-scaler's (iteration, active size,
//! monitored metric) series that Figure 13 plots; [`RunReport`] packages
//! everything a mapping returns.

use d4py_graph::{PeId, WorkflowGraph};
use d4py_sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-worker accumulated active time.
///
/// Workers open a span when they (re)activate and close it when they park or
/// terminate; the ledger sums closed spans. Lock-free per worker.
#[derive(Debug)]
pub struct ActiveTimeLedger {
    nanos: Vec<AtomicU64>,
}

impl ActiveTimeLedger {
    /// Creates a ledger for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds a closed active span for `worker`.
    pub fn record(&self, worker: usize, span: Duration) {
        // relaxed: per-worker time ledger — each slot is written by one
        // worker and totalled only after the run completes.
        self.nanos[worker].fetch_add(span.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Total active time across all workers (the paper's *process time*).
    pub fn total(&self) -> Duration {
        // relaxed: totalled after the run's joins; mid-run reads are
        // best-effort progress snapshots by design.
        Duration::from_nanos(self.nanos.iter().map(|n| n.load(Ordering::Relaxed)).sum())
    }

    /// Active time of one worker.
    pub fn of(&self, worker: usize) -> Duration {
        // relaxed: read after the run's joins (see `total`).
        Duration::from_nanos(self.nanos[worker].load(Ordering::Relaxed))
    }

    /// Number of workers tracked.
    pub fn workers(&self) -> usize {
        self.nanos.len()
    }
}

/// RAII helper: measures one worker's active time and records it on drop.
/// [`pause`](Self::pause) closes the current span (the worker parks) and
/// [`resume`](Self::resume) opens the next one.
pub struct ActiveSpan<'a> {
    ledger: &'a ActiveTimeLedger,
    worker: usize,
    started: Option<Instant>,
}

impl<'a> ActiveSpan<'a> {
    /// Opens a span for `worker`.
    pub fn open(ledger: &'a ActiveTimeLedger, worker: usize) -> Self {
        Self {
            ledger,
            worker,
            started: Some(Instant::now()),
        }
    }

    /// Records the open span, if any, and leaves the worker inactive.
    pub fn pause(&mut self) {
        if let Some(started) = self.started.take() {
            self.ledger.record(self.worker, started.elapsed());
        }
    }

    /// Opens a new span unless one is already open.
    pub fn resume(&mut self) {
        self.started.get_or_insert_with(Instant::now);
    }
}

impl Drop for ActiveSpan<'_> {
    fn drop(&mut self) {
        self.pause();
    }
}

/// One observation of the auto-scaler: Figure 13 plots these series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Auto-scaler iteration (recorded when the monitored metric changes).
    pub iteration: u64,
    /// Active process count after this iteration's decision.
    pub active_size: usize,
    /// The monitored metric: queue size (multiprocessing strategy) or mean
    /// idle time in seconds (Redis strategy).
    pub metric: f64,
}

/// Time series of auto-scaler decisions, shared between the scaler thread
/// and the report.
#[derive(Debug, Default)]
pub struct ScalingTrace {
    points: Mutex<Vec<TracePoint>>,
}

impl ScalingTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an observation.
    pub fn push(&self, point: TracePoint) {
        self.points.lock().push(point);
    }

    /// Snapshots the recorded series.
    pub fn snapshot(&self) -> Vec<TracePoint> {
        self.points.lock().clone()
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.lock().len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.lock().is_empty()
    }
}

/// A lock-free log-bucketed latency histogram (1 µs – ~36 min range).
///
/// Buckets are powers of two of microseconds: bucket *k* holds samples in
/// `[2^k, 2^(k+1))` µs. Recording is a single relaxed atomic increment, so
/// workers can record per-task service times on the hot path.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; 32],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn bucket_of(d: Duration) -> usize {
        let micros = d.as_micros().max(1) as u64;
        (63 - micros.leading_zeros() as usize).min(31)
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        // relaxed: monotonic histogram bucket counter; summarised only
        // after the run completes.
        self.buckets[Self::bucket_of(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        // relaxed: read after the run's joins; histogram totals do not
        // order against any other memory.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound of the bucket containing quantile `q` ∈ [0, 1];
    /// `None` when empty. Resolution is the 2× bucket width.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            // relaxed: read after the run's joins (see `count`).
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(Duration::from_micros(1u64 << (k + 1)));
            }
        }
        Some(Duration::from_micros(1u64 << 32))
    }

    /// Summarises into the report-friendly form.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Report-friendly latency quantiles (bucket upper bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median task service time.
    pub p50: Option<Duration>,
    /// 90th percentile.
    pub p90: Option<Duration>,
    /// 99th percentile.
    pub p99: Option<Duration>,
}

/// Per-PE task counters (how many items each PE processed): one lock-free
/// slot per [`PeId`], so counting a task on the hot path is one atomic add.
#[derive(Debug)]
pub struct PeTaskCounts {
    counts: Vec<AtomicU64>,
}

impl PeTaskCounts {
    /// Creates a zeroed counter for every PE of `graph`.
    pub fn new(graph: &WorkflowGraph) -> Self {
        Self {
            counts: (0..graph.pe_count()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Adds `n` processed items to `pe`.
    pub fn add(&self, pe: PeId, n: u64) {
        // relaxed: monotonic statistics counter; snapshotted after the
        // run's joins.
        self.counts[pe.0].fetch_add(n, Ordering::Relaxed);
    }

    /// The PEs that processed anything, by name (PEs sharing a name are
    /// summed), sorted by name.
    pub fn snapshot(&self, graph: &WorkflowGraph) -> Vec<(String, u64)> {
        let mut rows: BTreeMap<String, u64> = BTreeMap::new();
        for (id, spec) in graph.pes() {
            // relaxed: read after the run's joins (see `add`).
            let n = self.counts[id.0].load(Ordering::Relaxed);
            if n > 0 {
                *rows.entry(spec.name.clone()).or_insert(0) += n;
            }
        }
        rows.into_iter().collect()
    }
}

/// The result of executing a workflow under some mapping.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the mapping that produced this run (e.g. `dyn_auto_multi`).
    pub mapping: String,
    /// Wall-clock execution time.
    pub runtime: Duration,
    /// Sum of active worker durations (the paper's *process time*).
    pub process_time: Duration,
    /// Worker pool size the run was configured with.
    pub workers: usize,
    /// Total data items processed across all PEs (kick-offs included).
    pub tasks_executed: u64,
    /// Auto-scaler decision series (empty for non-auto-scaling mappings).
    pub scaling_trace: Vec<TracePoint>,
    /// Emissions dropped because they were produced where the mapping cannot
    /// deliver them (e.g. `on_done` output under plain dynamic scheduling).
    /// Non-zero values indicate a workflow/mapping mismatch.
    pub dropped_emissions: u64,
    /// Tasks whose `process()` panicked. The engines contain the panic (the
    /// item is lost, its emissions discarded) so one poisoned record cannot
    /// hang the workflow; non-zero values mean the run is incomplete.
    pub failed_tasks: u64,
    /// Items processed per PE, sorted by name — the per-stage breakdown an
    /// operator reads to find the bottleneck.
    pub per_pe_tasks: Vec<(String, u64)>,
    /// Per-task service-time quantiles (time inside `process()`, queue wait
    /// excluded), one sample per successfully executed task. The dynamic
    /// and hybrid mappings populate this (`count == tasks_executed`); the
    /// static `simple` and `multi` engines leave it empty.
    pub task_latency: LatencySummary,
    /// Tasks delivered by work stealing (a worker popping from a peer's
    /// local queue). Zero for the single-global-queue topologies and for
    /// engines without per-worker queues; a high ratio of steals to tasks
    /// on a steal topology means the fan-out is badly balanced across
    /// workers.
    pub queue_steals: u64,
    /// Non-fatal degradations the run worked around, one human-readable
    /// reason each — e.g. a warm start skipped because the stored snapshot
    /// frame was damaged or from an unknown future format version. An
    /// empty list means the run used everything it was given.
    pub warnings: Vec<String>,
}

impl RunReport {
    /// process_time / runtime: the mean number of simultaneously active
    /// workers, a quick efficiency read-out.
    pub fn mean_active_workers(&self) -> f64 {
        if self.runtime.is_zero() {
            return 0.0;
        }
        self.process_time.as_secs_f64() / self.runtime.as_secs_f64()
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} workers={:<3} runtime={:>8.3}s process_time={:>9.3}s tasks={}",
            self.mapping,
            self.workers,
            self.runtime.as_secs_f64(),
            self.process_time.as_secs_f64(),
            self.tasks_executed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_across_workers() {
        let ledger = ActiveTimeLedger::new(3);
        ledger.record(0, Duration::from_millis(10));
        ledger.record(1, Duration::from_millis(20));
        ledger.record(0, Duration::from_millis(5));
        assert_eq!(ledger.total(), Duration::from_millis(35));
        assert_eq!(ledger.of(0), Duration::from_millis(15));
        assert_eq!(ledger.of(2), Duration::ZERO);
        assert_eq!(ledger.workers(), 3);
    }

    #[test]
    fn active_span_records_on_drop() {
        let ledger = ActiveTimeLedger::new(1);
        {
            let _span = ActiveSpan::open(&ledger, 0);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ledger.of(0) >= Duration::from_millis(4));
    }

    #[test]
    fn trace_preserves_order() {
        let trace = ScalingTrace::new();
        for i in 0..4 {
            trace.push(TracePoint {
                iteration: i,
                active_size: i as usize + 1,
                metric: 0.0,
            });
        }
        let snap = trace.snapshot();
        assert_eq!(snap.len(), 4);
        assert!(snap.windows(2).all(|w| w[0].iteration < w[1].iteration));
        assert!(!trace.is_empty());
    }

    #[test]
    fn mean_active_workers_ratio() {
        let report = RunReport {
            mapping: "test".into(),
            runtime: Duration::from_secs(2),
            process_time: Duration::from_secs(8),
            workers: 8,
            tasks_executed: 100,
            scaling_trace: vec![],
            dropped_emissions: 0,
            failed_tasks: 0,
            per_pe_tasks: vec![],
            task_latency: LatencySummary::default(),
            queue_steals: 0,
            warnings: vec![],
        };
        assert!((report.mean_active_workers() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_report_is_safe() {
        let report = RunReport {
            mapping: "test".into(),
            runtime: Duration::ZERO,
            process_time: Duration::ZERO,
            workers: 1,
            tasks_executed: 0,
            scaling_trace: vec![],
            dropped_emissions: 0,
            failed_tasks: 0,
            per_pe_tasks: vec![],
            task_latency: LatencySummary::default(),
            queue_steals: 0,
            warnings: vec![],
        };
        assert_eq!(report.mean_active_workers(), 0.0);
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket [64,128)µs
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10)); // bucket [8192,16384)µs
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= Duration::from_micros(256), "p50 {p50:?}");
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= Duration::from_millis(8), "p99 {p99:?}");
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p90.unwrap() <= s.p99.unwrap());
    }

    #[test]
    fn histogram_empty_and_extremes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary().count, 0);
        h.record(Duration::ZERO); // clamps into the first bucket
        h.record(Duration::from_secs(10_000)); // clamps into the last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn ledger_is_threadsafe() {
        let ledger = std::sync::Arc::new(ActiveTimeLedger::new(4));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let l = ledger.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        l.record(w, Duration::from_nanos(1000));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.total(), Duration::from_nanos(400_000));
    }
}
