//! The one engine behind every dynamic-family mapping.
//!
//! A run is a set of workers over a [`RunPlan`]. Each **stateful PE
//! instance** gets a pinned worker with a private queue (§3.1.2); every
//! other worker belongs to the **pool** and pulls from the shared global
//! queue (Figure 2). A plain dynamic run is the special case with zero
//! pinned slots. All workers run the same loop: auto-scaler gate (pool
//! only) → `pop_batch` → execute → route → account → fault hook.
//!
//! Pinned workers are work-conserving: whenever its private queue is
//! empty, a pinned worker helps the pool with one global task at a time
//! and then looks at its private queue again. State locality still holds
//! because only stateless tasks ever reach the global queue; a stateful
//! task lives in its instance's private queue, which only the pinned
//! worker reads, in FIFO order. Every worker is thus a consumer of the
//! global queue, with a unique index below `workers`.
//!
//! Routing: a stateful target goes to the private queue of the instance
//! its grouping selects; a stateless target goes to the global queue,
//! where whoever pops first runs it.
//!
//! Streaming: a PE call's emissions are buffered, and an emission that
//! finds the oldest buffered one at least [`FLUSH_AFTER`] old routes the
//! buffer first. A tight emission loop thus still goes out as one batch
//! when the call returns, while a paced source's earlier items reach the
//! queue, and the workers, while it is still running.
//!
//! Termination, strict mode (the default): every task and every flush is
//! counted in a [`Quiescence`] counter before it is published and retired
//! only after its call returned and its last emissions are counted, so
//! zero means no work exists. The calling thread sleeps until the last
//! decrement wakes it, flushes the stateful PEs (`on_done`) in topological
//! order — draining each flush's emissions before the next PE flushes —
//! then sets `shutdown` and sends poison pills. With `strict: false` and no pinned slots, workers run the
//! paper's §3.2.3 protocol instead: a worker that finds the queue empty
//! `max_retries` times in a row broadcasts the pills.
//!
//! A pill is obeyed only once `shutdown` is set; an earlier one is
//! injected or foreign, and is ignored and counted.

use crate::autoscale::{AutoScaler, Gate};
use crate::error::CoreError;
use crate::executable::Executable;
use crate::fault::{FaultPlan, PillStorm};
use crate::mappings::dynamic::AutoscaleSetup;
use crate::mappings::hybrid::{plan_slots, QueueFactory, StatefulSlot};
use crate::metrics::{ActiveSpan, ActiveTimeLedger, LatencyHistogram, PeTaskCounts, RunReport};
use crate::options::ExecutionOptions;
use crate::pe::{BufferedContext, Context, EmitBuffer, ProcessingElement};
use crate::queue::TaskQueue;
use crate::routing::{Route, Router};
use crate::state::{slot_name, StateStore};
use crate::task::{QueueItem, Task, KICKOFF_PORT};
use crate::value::Value;
use d4py_graph::PeId;
use d4py_sync::quiesce::Quiescence;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one blocking batch pop in the worker loop. Large enough
/// to amortize the parking layer on a hot queue, small enough that one
/// worker cannot hoard a backlog other (possibly idle) workers could run —
/// and bounded so a Pill drained mid-batch is acted on promptly.
const POP_BATCH: usize = 32;

/// How long a PE call's oldest buffered emission may wait before the next
/// emission routes the buffer. Tight emission loops (a thousand emits take
/// well under 1 ms) fit inside it and keep one publish per call; a pacing
/// gap (a bursty source pauses for hundreds of ms) far exceeds it, so what
/// came before the gap is routed when the next item is emitted.
pub const FLUSH_AFTER: Duration = Duration::from_millis(5);

/// What one run needs beyond the workflow and its options.
pub struct RunPlan<'a> {
    /// Labels the report (e.g. `dyn_auto_multi`) and error messages.
    pub mapping: &'static str,
    /// Builds the global queue and one private queue per pinned slot.
    pub queues: &'a dyn QueueFactory,
    /// Attaches the auto-scaler (Algorithm 1) to the pool workers.
    pub autoscale: Option<AutoscaleSetup>,
    /// State externalization for pinned instances: restore before the
    /// first input, snapshot at flush time (see [`crate::state`]).
    pub state: Option<Arc<dyn StateStore>>,
    /// Chaos faults (see [`crate::fault`]); the default is a healthy run.
    pub faults: FaultPlan,
}

impl<'a> RunPlan<'a> {
    /// A healthy, unscaled, stateless-store plan.
    pub fn new(mapping: &'static str, queues: &'a dyn QueueFactory) -> Self {
        Self {
            mapping,
            queues,
            autoscale: None,
            state: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Shared state of one run.
struct Engine {
    exe: Executable,
    global: Arc<dyn TaskQueue>,
    /// Private queue per pinned slot.
    private: HashMap<StatefulSlot, Arc<dyn TaskQueue>>,
    /// Instance count per stateful PE.
    stateful_instances: HashMap<PeId, usize>,
    /// Pool workers: global consumers `0..pool`. Pinned worker `w` helps
    /// as global consumer `pool + w`.
    pool: usize,
    /// Workers run the paper's retry protocol (`strict: false`, no pinned
    /// slot) instead of waiting for the coordinator's pills.
    self_terminating: bool,
    /// Tasks and flushes published but not yet retired.
    quiet: Quiescence,
    shutdown: AtomicBool,
    tasks_executed: AtomicU64,
    dropped_emissions: AtomicU64,
    failed_tasks: AtomicU64,
    pe_counts: PeTaskCounts,
    latency: LatencyHistogram,
    ledger: ActiveTimeLedger,
    scaler: Option<AutoScaler>,
    state: Option<Arc<dyn StateStore>>,
    /// Non-fatal degradations, surfaced through [`RunReport::warnings`].
    warnings: d4py_sync::Mutex<Vec<String>>,
    /// Straggler target with its extra service time per task.
    straggler: Option<(PeId, Duration)>,
    /// Crash target: (slot, dies after this many tasks).
    crash_slot: Option<(StatefulSlot, u64)>,
    /// Pill-storm schedule, fired at most once per run.
    pill_storm: Option<PillStorm>,
    storm_fired: AtomicBool,
    /// Pills observed before `shutdown` was set (ignored).
    spurious_pills: AtomicU64,
    /// Transient transport errors absorbed by the retry budget.
    transport_retries_used: AtomicU64,
    /// Per-operation retry budget, from [`ExecutionOptions::transport_retries`].
    transport_retries: u32,
}

impl Engine {
    /// Runs one queue operation, absorbing up to `transport_retries`
    /// consecutive [`CoreError::Queue`] transport errors before giving up.
    ///
    /// The redis-lite client already retries *idempotent* commands
    /// internally; stream appends and group reads are excluded there because
    /// the client cannot know whether a half-written command took effect.
    /// At the engine level the calculus differs: chaos-injected faults are
    /// fail-fast (the connection dies before the request is written), and a
    /// re-delivered task is tolerated by the saturating outstanding
    /// decrement — so a bounded blind retry converts a dropped connection
    /// from a failed run into a warning.
    fn retrying<T>(&self, mut op: impl FnMut() -> Result<T, CoreError>) -> Result<T, CoreError> {
        let mut attempts = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(CoreError::Queue(_)) if attempts < self.transport_retries => {
                    attempts += 1;
                    // relaxed: monotonic statistics counter; read after joins.
                    self.transport_retries_used.fetch_add(1, Ordering::Relaxed);
                    // sleep: brief fixed backoff before re-minting the
                    // connection; the retry budget bounds total delay.
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pushes a batch, cloning it for a retry only when a budget exists.
    fn push(
        &self,
        queue: &dyn TaskQueue,
        producer: Option<usize>,
        items: Vec<QueueItem>,
    ) -> Result<(), CoreError> {
        if self.transport_retries == 0 {
            queue.push_batch(producer, items)
        } else {
            self.retrying(|| queue.push_batch(producer, items.clone()))
        }
    }

    /// Counts `items` as outstanding, then publishes them.
    fn publish(
        &self,
        queue: &dyn TaskQueue,
        producer: Option<usize>,
        items: Vec<QueueItem>,
    ) -> Result<(), CoreError> {
        self.quiet.add(items.len());
        self.push(queue, producer, items)
    }

    /// Pill-storm fault: once the executed-task counter crosses the
    /// threshold, inject the configured spurious pills into the global
    /// queue (at most once per run).
    fn maybe_fire_storm(&self) -> Result<(), CoreError> {
        let Some(storm) = self.pill_storm else {
            return Ok(());
        };
        // relaxed: threshold probe on a statistics counter; the swap below
        // is the once-only guard.
        if self.tasks_executed.load(Ordering::Relaxed) < storm.after_tasks
            || self.storm_fired.swap(true, Ordering::SeqCst)
        {
            return Ok(());
        }
        self.push(&*self.global, None, vec![QueueItem::Pill; storm.pills])
    }

    /// Routes everything a PE emitted. Tasks for a pinned instance go to
    /// its private queue, stateless tasks to the global queue as one batch
    /// tagged with `producer` (the emitting pool worker, so a work-stealing
    /// queue keeps the fan-out local). Everything is counted before it is
    /// pushed, so quiescence stays conservative.
    fn route_emissions(
        &self,
        from: PeId,
        buf: &mut EmitBuffer,
        router: &mut Router,
        producer: Option<usize>,
    ) -> Result<(), CoreError> {
        let graph = self.exe.graph();
        let mut global_batch = Vec::new();
        for (port, value) in buf.drain() {
            let mut delivered = false;
            for (conn_id, conn) in graph.outgoing_from_port(from, &port) {
                delivered = true;
                let task = |instance| {
                    QueueItem::Task(Task::pinned(
                        conn.to_pe,
                        instance,
                        &conn.to_port,
                        value.clone(),
                    ))
                };
                let Some(&n) = self.stateful_instances.get(&conn.to_pe) else {
                    global_batch.push(QueueItem::Task(Task::new(
                        conn.to_pe,
                        conn.to_port.clone(),
                        value.clone(),
                    )));
                    continue;
                };
                match router.route(conn_id, &conn.grouping, &value, n) {
                    Route::One(i) => self.publish_private(conn.to_pe, i, task(i))?,
                    Route::All => {
                        for i in 0..n {
                            self.publish_private(conn.to_pe, i, task(i))?;
                        }
                    }
                }
            }
            if !delivered && graph.outgoing(from).next().is_some() {
                // relaxed: monotonic statistics counter; read after joins.
                self.dropped_emissions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !global_batch.is_empty() {
            self.publish(&*self.global, producer, global_batch)?;
        }
        Ok(())
    }

    fn publish_private(&self, pe: PeId, instance: usize, item: QueueItem) -> Result<(), CoreError> {
        let queue = &self.private[&StatefulSlot { pe, instance }];
        self.publish(&**queue, None, vec![item])
    }

    /// Sets `shutdown`, releases parked workers and sends one pill per
    /// worker. Idempotent in effect: extra pills are simply never read.
    fn shut_down(&self) -> Result<(), CoreError> {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(scaler) = &self.scaler {
            scaler.request_shutdown();
        }
        let mut result = self.push(&*self.global, None, vec![QueueItem::Pill; self.pool]);
        for queue in self.private.values() {
            result = result.and(self.push(&**queue, None, vec![QueueItem::Pill]));
        }
        result
    }

    /// Strict termination, on the calling thread: wait for quiescence,
    /// flush stateful PEs in topological order, each flush drained before
    /// the next PE's. Stops early, without snapshots, once a worker failed.
    fn coordinate(&self) -> Result<(), CoreError> {
        if !self.quiet.wait() {
            return Ok(());
        }
        for pe in self.exe.graph().topological_order()? {
            let Some(&n) = self.stateful_instances.get(&pe) else {
                continue;
            };
            for instance in 0..n {
                self.publish_private(pe, instance, QueueItem::Flush)?;
            }
            if !self.quiet.wait() {
                break;
            }
        }
        Ok(())
    }

    /// Instantiates a pinned slot's PE and restores its externalized state.
    /// A damaged or future-versioned frame is a degradation, not a failure:
    /// the instance starts cold and the reason is reported.
    fn warm_start(&self, slot: StatefulSlot) -> Result<Box<dyn ProcessingElement>, CoreError> {
        let mut pe = self.exe.instantiate(slot.pe)?;
        if let Some(store) = &self.state {
            let key = slot_name(self.pe_name(slot.pe), slot.instance);
            match store.load(&key) {
                Ok(Some(saved)) => pe.restore(saved),
                Ok(None) => {}
                Err(CoreError::Snapshot(e)) => {
                    self.warnings
                        .lock()
                        .push(format!("warm start skipped for {key}: {e}"));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(pe)
    }

    fn pe_name(&self, pe: PeId) -> &str {
        self.exe.graph().pe(pe).map_or("", |s| s.name.as_str())
    }
}

/// The [`Context`] one PE call runs with. Emissions are buffered; an
/// emission that finds the oldest buffered one [`FLUSH_AFTER`] old routes
/// the buffer first, tagged with the same `producer` as the rest of the
/// call. [`finish`](Self::finish) routes what is left once the call ended.
/// Everything is counted before it is pushed and the task retires after
/// `finish`, so quiescence stays conservative.
struct Emitter<'a> {
    engine: &'a Engine,
    router: &'a mut Router,
    from: PeId,
    producer: Option<usize>,
    buf: EmitBuffer,
    /// When the oldest buffered emission was made.
    since: Option<Instant>,
    /// The first routing error: `emit` cannot return it, so it ends all
    /// routing for this call and fails the worker in `finish`.
    error: Option<CoreError>,
}

impl<'a> Emitter<'a> {
    fn new(
        engine: &'a Engine,
        router: &'a mut Router,
        from: PeId,
        producer: Option<usize>,
        (instance, instances): (usize, usize),
    ) -> Self {
        Self {
            engine,
            router,
            from,
            producer,
            buf: EmitBuffer::new(instance, instances),
            since: None,
            error: None,
        }
    }

    fn route(&mut self) {
        self.since = None;
        if self.error.is_none() {
            let routed =
                self.engine
                    .route_emissions(self.from, &mut self.buf, self.router, self.producer);
            self.error = routed.err();
        }
        self.buf.discard();
    }

    /// Routes what the call left buffered; returns the first routing error.
    fn finish(mut self) -> Result<(), CoreError> {
        self.route();
        self.error.map_or(Ok(()), Err)
    }
}

impl Context for Emitter<'_> {
    fn emit(&mut self, port: &str, value: Value) {
        let now = Instant::now();
        if self.since.is_some_and(|since| now - since >= FLUSH_AFTER) {
            self.route();
        }
        self.since.get_or_insert(now);
        self.buf.emit(port, value);
    }
    fn instance(&self) -> usize {
        self.buf.instance()
    }
    fn instance_count(&self) -> usize {
        self.buf.instance_count()
    }
}

impl BufferedContext for Emitter<'_> {
    fn discard(&mut self) {
        self.buf.discard();
    }
}

/// Runs `exe` under `plan`: pinned workers for every stateful instance
/// the graph declares, the rest of `opts.workers` as the pool.
pub fn run(
    exe: &Executable,
    opts: &ExecutionOptions,
    plan: &RunPlan<'_>,
) -> Result<RunReport, CoreError> {
    if opts.workers == 0 {
        return Err(CoreError::InvalidOptions("workers must be ≥ 1".into()));
    }
    let preflight_warnings = crate::preflight::preflight(exe, opts, plan.autoscale.is_some())?;
    let started = Instant::now();
    let graph = exe.graph();
    let (slots, pool) = plan_slots(graph, opts.workers, plan.mapping)?;

    // Resolve fault targets (named PEs) up front, so a typo in a scenario
    // is an options error, not a silently healthy run.
    let resolve = |name: &str| {
        graph.pe_by_name(name).ok_or_else(|| {
            CoreError::InvalidOptions(format!("fault plan targets unknown PE '{name}'"))
        })
    };
    let straggler = match &plan.faults.straggler {
        Some(s) => Some((resolve(&s.pe)?, s.extra)),
        None => None,
    };
    let crash_slot = match &plan.faults.crash {
        Some(c) => {
            let slot = StatefulSlot {
                pe: resolve(&c.pe)?,
                instance: c.instance,
            };
            if !slots.contains(&slot) {
                return Err(CoreError::InvalidOptions(format!(
                    "crash fault targets '{}'#{} which is not a pinned stateful instance",
                    c.pe, c.instance
                )));
            }
            Some((slot, c.after_tasks))
        }
        None => None,
    };

    // One consumer per worker: pool workers and helping pinned workers.
    let global = plan.queues.make("global", opts.workers)?;
    let mut private = HashMap::new();
    let mut stateful_instances: HashMap<PeId, usize> = HashMap::new();
    for slot in &slots {
        let name = format!("private:{}:{}", slot.pe.0, slot.instance);
        private.insert(*slot, plan.queues.make(&name, 1)?);
        *stateful_instances.entry(slot.pe).or_insert(0) += 1;
    }
    let (scaler, strategy) = match &plan.autoscale {
        Some(setup) => (
            Some(AutoScaler::new(pool, &setup.config)),
            Some(((setup.strategy)(global.clone()), setup.config.tick)),
        ),
        None => (None, None),
    };

    let engine = Arc::new(Engine {
        exe: exe.clone(),
        global,
        private,
        stateful_instances,
        pool,
        self_terminating: !opts.termination.strict && slots.is_empty(),
        quiet: Quiescence::new(),
        shutdown: AtomicBool::new(false),
        tasks_executed: AtomicU64::new(0),
        dropped_emissions: AtomicU64::new(0),
        failed_tasks: AtomicU64::new(0),
        pe_counts: PeTaskCounts::new(graph),
        latency: LatencyHistogram::new(),
        ledger: ActiveTimeLedger::new(opts.workers),
        scaler,
        state: plan.state.clone(),
        warnings: d4py_sync::Mutex::new(preflight_warnings),
        straggler,
        crash_slot,
        pill_storm: plan.faults.pill_storm,
        storm_fired: AtomicBool::new(false),
        spurious_pills: AtomicU64::new(0),
        transport_retries_used: AtomicU64::new(0),
        transport_retries: opts.transport_retries,
    });

    // Seed kickoffs: stateless sources to the global queue; stateful
    // sources (unusual) to each of their pinned instances.
    for source in graph.sources() {
        match engine.stateful_instances.get(&source) {
            Some(&n) => {
                for i in 0..n {
                    let kickoff = Task::pinned(source, i, KICKOFF_PORT, Value::Null);
                    engine.publish_private(source, i, QueueItem::Task(kickoff))?;
                }
            }
            None => engine.publish(
                &*engine.global,
                None,
                vec![QueueItem::Task(Task::kickoff(source))],
            )?,
        }
    }

    let monitor = strategy.map(|(strategy, tick)| {
        let engine = engine.clone();
        std::thread::spawn(move || {
            if let Some(scaler) = &engine.scaler {
                scaler.run_monitor(strategy, tick);
            }
        })
    });
    // Workers 0..S are the pinned slots, S.. the pool.
    let handles: Vec<_> = (0..opts.workers)
        .map(|w| {
            let engine = engine.clone();
            let opts = opts.clone();
            let slot = slots.get(w).copied();
            std::thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    work(&engine, w, slot, &opts)
                }))
                .unwrap_or(Err(CoreError::WorkerPanic { worker: w }));
                if result.is_err() {
                    // Its outstanding work will never retire: release the
                    // coordinator instead of letting it wait forever.
                    engine.quiet.abort();
                }
                result
            })
        })
        .collect();

    let mut coordinator_error = None;
    if !engine.self_terminating {
        coordinator_error = engine.coordinate().err();
        if let Err(e) = engine.shut_down() {
            coordinator_error.get_or_insert(e);
        }
    }
    let mut worker_error: Option<CoreError> = None;
    for (w, h) in handles.into_iter().enumerate() {
        let e = match h.join() {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e,
            Err(_) => CoreError::WorkerPanic { worker: w },
        };
        // An injected fault is the root cause of any collateral worker
        // errors: make sure it is the one reported.
        if worker_error.is_none() || matches!(e, CoreError::InjectedFault(_)) {
            worker_error = Some(e);
        }
    }
    if let Some(scaler) = &engine.scaler {
        scaler.request_shutdown();
    }
    if let Some(h) = monitor {
        let _ = h.join();
    }
    if let Some(e) = worker_error.or(coordinator_error) {
        return Err(e);
    }

    let mut warnings = std::mem::take(&mut *engine.warnings.lock());
    // relaxed: statistics counters, read only after every worker has been
    // joined — the join is the synchronization point.
    let retries_used = engine.transport_retries_used.load(Ordering::Relaxed);
    if retries_used > 0 {
        warnings.push(format!(
            "absorbed {retries_used} transient transport error(s) via retry"
        ));
    }
    // relaxed: post-join statistics read (see above).
    let spurious = engine.spurious_pills.load(Ordering::Relaxed);
    if spurious > 0 {
        warnings.push(format!(
            "ignored {spurious} spurious poison pill(s) received before shutdown"
        ));
    }
    Ok(RunReport {
        mapping: plan.mapping.to_string(),
        runtime: started.elapsed(),
        process_time: engine.ledger.total(),
        workers: opts.workers,
        // relaxed: post-join statistics reads (see above).
        tasks_executed: engine.tasks_executed.load(Ordering::Relaxed),
        scaling_trace: engine
            .scaler
            .as_ref()
            .map(|s| s.trace().snapshot())
            .unwrap_or_default(),
        dropped_emissions: engine.dropped_emissions.load(Ordering::Relaxed),
        failed_tasks: engine.failed_tasks.load(Ordering::Relaxed),
        per_pe_tasks: engine.pe_counts.snapshot(graph),
        task_latency: engine.latency.summary(),
        queue_steals: engine.global.steals().unwrap_or(0),
        warnings,
    })
}

/// The worker loop. Worker `w` of a run with `S` pinned slots is either
/// pinned (`slot` is `Some`: private queue, `Flush` handling, warm start)
/// or pool consumer `c = w - S` of the global queue (scaler gate).
///
/// A pinned worker is work-conserving: it drains its private queue first,
/// and when that is empty it pops at most one task from the global queue
/// without blocking and runs it as pool consumer `pool + w` would, then
/// re-checks its private queue. Only when both came up empty does it block
/// on the private queue for `poll_timeout`. Stateful tasks never leave the
/// private queue, so they still run only here, in FIFO order.
fn work(
    engine: &Engine,
    w: usize,
    slot: Option<StatefulSlot>,
    opts: &ExecutionOptions,
) -> Result<(), CoreError> {
    let term = opts.termination;
    let mut span = ActiveSpan::open(&engine.ledger, w);
    let mut pes: HashMap<PeId, Box<dyn ProcessingElement>> = HashMap::new();
    // `consumer` indexes `queue`; `global_consumer` is this worker's unique
    // index among the `opts.workers` consumers of the global queue.
    let (queue, consumer, global_consumer, scaler) = match slot {
        Some(s) => {
            pes.insert(s.pe, engine.warm_start(s)?);
            (&engine.private[&s], 0, engine.pool + w, None)
        }
        None => {
            let c = w - engine.private.len();
            (&engine.global, c, c, engine.scaler.as_ref())
        }
    };
    // The pool tags its fan-out so a work-stealing queue keeps it local; a
    // helper goes back to its private queue, so its fan-out is shared.
    let pool_tag = slot.is_none().then_some(consumer);
    let crash_after = match engine.crash_slot {
        Some((target, after)) if Some(target) == slot => Some(after),
        _ => None,
    };
    let mut router = Router::new();
    let mut retries: u32 = 0;
    // Tasks of the pinned PE run so far (what the crash fault counts).
    let mut own_tasks: u64 = 0;
    // A pinned worker found both of its queues empty last time round.
    let mut idle = false;

    loop {
        if let Some(scaler) = scaler {
            let gate = scaler.gate(consumer, |parked| {
                if parked {
                    span.pause();
                } else {
                    span.resume();
                }
            });
            if gate == Gate::Shutdown {
                break;
            }
        }
        let wait = if slot.is_some() && !idle {
            Duration::ZERO
        } else {
            term.poll_timeout
        };
        let mut batch = engine.retrying(|| queue.pop_batch(consumer, POP_BATCH, wait))?;
        let mut helping = false;
        if batch.is_empty() && slot.is_some() && !engine.shutdown.load(Ordering::SeqCst) {
            batch =
                engine.retrying(|| engine.global.pop_batch(global_consumer, 1, Duration::ZERO))?;
            helping = !batch.is_empty();
        }
        idle = batch.is_empty();
        if batch.is_empty() {
            if engine.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if engine.self_terminating {
                retries += 1;
                if retries > term.max_retries {
                    // This worker decides the workflow is done (§3.2.3).
                    engine.shut_down()?;
                    break;
                }
            }
            continue;
        }
        // The pinned slot whose private queue this batch came from, if any.
        let own = slot.filter(|_| !helping);
        let (instance, instances, producer) = match own {
            Some(s) => (s.instance, engine.stateful_instances[&s.pe], None),
            None => (global_consumer, opts.workers, pool_tag),
        };
        // A pill drained mid-batch is obeyed only after the rest of the
        // batch ran: those tasks are counted and must still retire.
        let mut pills = 0usize;
        for item in batch {
            let task = match item {
                QueueItem::Pill if engine.shutdown.load(Ordering::SeqCst) => {
                    pills += 1;
                    continue;
                }
                QueueItem::Pill => {
                    // relaxed: monotonic statistics counter; read after joins.
                    engine.spurious_pills.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                QueueItem::Flush => {
                    // Only pinned queues carry flushes.
                    let Some(s) = own else { continue };
                    let pe = pes.get_mut(&s.pe).expect("pinned PE instantiated");
                    // Externalize the final state before on_done may drain it.
                    if let Some(store) = &engine.state {
                        if let Some(snapshot) = pe.snapshot() {
                            store.save(&slot_name(engine.pe_name(s.pe), s.instance), &snapshot)?;
                        }
                    }
                    let mut ctx =
                        Emitter::new(engine, &mut router, s.pe, None, (instance, instances));
                    pe.on_done(&mut ctx);
                    ctx.finish()?;
                    engine.quiet.done();
                    continue;
                }
                QueueItem::Task(task) => task,
            };
            retries = 0;
            if let Some((_, extra)) = engine.straggler.filter(|(pe, _)| *pe == task.pe) {
                // sleep: injected straggler fault — inflate this PE's
                // service time by a fixed delay per task.
                std::thread::sleep(extra);
            }
            let pe = match pes.entry(task.pe) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(engine.exe.instantiate(task.pe)?)
                }
            };
            let mut ctx = Emitter::new(
                engine,
                &mut router,
                task.pe,
                producer,
                (instance, instances),
            );
            let started = Instant::now();
            if crate::pe::process_guarded(pe, &task.port, task.value, &mut ctx) {
                engine.latency.record(started.elapsed());
                // relaxed: monotonic statistics counter; read after joins.
                engine.tasks_executed.fetch_add(1, Ordering::Relaxed);
                engine.pe_counts.add(task.pe, 1);
            } else {
                // relaxed: monotonic statistics counter; read after joins.
                engine.failed_tasks.fetch_add(1, Ordering::Relaxed);
            }
            if own.is_some() {
                own_tasks += 1;
                if crash_after.is_some_and(|after| own_tasks >= after) {
                    // Die like a real crash: emissions not yet routed are
                    // lost, no snapshot is written, the counter never drains.
                    return Err(CoreError::InjectedFault(format!(
                        "worker for {}#{instance} crashed after {own_tasks} task(s)",
                        engine.pe_name(task.pe)
                    )));
                }
            }
            ctx.finish()?;
            engine.quiet.done();
            engine.maybe_fire_storm()?;
        }
        if helping {
            // The pill was meant for a pool worker: hand it back and keep
            // serving the private queue, whose own pill ends this worker.
            if pills > 0 {
                engine.push(&*engine.global, None, vec![QueueItem::Pill; pills])?;
            }
        } else if pills > 0 {
            // One batch may drain the pills meant for several workers:
            // hand the surplus back so nobody waits out a poll timeout.
            if pills > 1 {
                engine.push(&**queue, None, vec![QueueItem::Pill; pills - 1])?;
            }
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::mappings::hybrid::{ChannelQueueFactory, HybridMulti};
    use crate::pe::{Collector, FnSource, FnTransform};
    use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

    /// `(instance, instance_count)` of every task the spy saw.
    type Contexts = Arc<d4py_sync::Mutex<Vec<(usize, usize)>>>;

    /// a → b (stateful, 3 instances by group-by) and a → c (stateless, by
    /// shuffle): c records the context of every task it runs.
    fn instance_spy() -> (Executable, Contexts) {
        let mut g = WorkflowGraph::new("spy");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in").stateful().with_instances(3));
        let c = g.add_pe(PeSpec::sink("c", "in"));
        g.connect(a, "out", b, "in", Grouping::group_by("k"))
            .unwrap();
        g.connect(a, "out", c, "in", Grouping::Shuffle).unwrap();
        let seen = Arc::new(d4py_sync::Mutex::new(Vec::new()));
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..30 {
                    ctx.emit("out", Value::map([("k", Value::Int(i % 7))]));
                }
            }))
        });
        exe.register(b, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let s = seen.clone();
        exe.register(c, move || {
            let s = s.clone();
            Box::new(FnTransform(
                move |_: &str, _: Value, ctx: &mut dyn Context| {
                    s.lock().push((ctx.instance(), ctx.instance_count()));
                },
            ))
        });
        (exe.seal().unwrap(), seen)
    }

    #[test]
    fn pool_workers_see_their_pool_instance_index() {
        let (exe, seen) = instance_spy();
        // 3 pinned slots + 2 pool workers: pool workers are global
        // consumers 0 and 1, the pinned workers help as 2, 3 and 4.
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(5))
            .unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 30);
        for &(instance, count) in seen.iter() {
            assert_eq!(count, 5, "instance_count is the number of global consumers");
            assert!(instance < count, "instance {instance} of {count}");
        }
    }

    /// How long a test PE waits for another thread before giving up.
    const PATIENCE: Duration = Duration::from_secs(2);

    /// Flags and a two-party rendezvous that test PEs wait on, under one
    /// lock. Every wait gives up after [`PATIENCE`], so a schedule that
    /// cannot happen fails an assertion instead of hanging.
    #[derive(Default)]
    struct Board {
        state: d4py_sync::Mutex<BoardState>,
        changed: d4py_sync::Condvar,
    }

    #[derive(Default)]
    struct BoardState {
        flags: Vec<&'static str>,
        /// A `meet` caller is waiting for a partner.
        waiting: bool,
        /// Rendezvous completed so far.
        pairs: u64,
    }

    impl Board {
        fn raise(&self, flag: &'static str) {
            self.state.lock().flags.push(flag);
            self.changed.notify_all();
        }

        /// Waits until `flag` is raised or [`PATIENCE`] runs out.
        fn wait_for(&self, flag: &'static str) {
            let deadline = Instant::now() + PATIENCE;
            let mut state = self.state.lock();
            while !state.flags.contains(&flag) {
                if self.changed.wait_until(&mut state, deadline).timed_out() {
                    return;
                }
            }
        }

        /// Returns once a second caller is inside `meet` too; false if
        /// none came in time.
        fn meet(&self) -> bool {
            let deadline = Instant::now() + PATIENCE;
            let mut state = self.state.lock();
            if state.waiting {
                state.waiting = false;
                state.pairs += 1;
                self.changed.notify_all();
                return true;
            }
            state.waiting = true;
            let pairs = state.pairs;
            while state.pairs == pairs {
                if self.changed.wait_until(&mut state, deadline).timed_out() && state.pairs == pairs
                {
                    state.waiting = false;
                    return false;
                }
            }
            true
        }
    }

    #[test]
    fn pinned_workers_help_the_pool_while_their_queue_is_empty() {
        // src → first, second (stateful, pinned) → meet (stateless) → sink
        // (stateful, pinned). Each meet call needs a concurrent partner.
        // `first` emits its meet task only once `second` is busy, and
        // `second` emits the other only once the first meet call runs, so
        // the global queue never holds both: whoever runs the first call
        // can only be met by another worker. With one pool worker that
        // partner must be a pinned worker helping.
        let board = Arc::new(Board::default());
        let met = Arc::new(d4py_sync::Mutex::new(Vec::new()));
        let mut g = WorkflowGraph::new("rendezvous");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let first = g.add_pe(PeSpec::transform("first", "in", "out").stateful());
        let second = g.add_pe(PeSpec::transform("second", "in", "out").stateful());
        let meet = g.add_pe(PeSpec::transform("meet", "in", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in").stateful());
        g.connect(src, "out", first, "in", Grouping::Global)
            .unwrap();
        g.connect(src, "out", second, "in", Grouping::Global)
            .unwrap();
        g.connect(first, "out", meet, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(second, "out", meet, "in", Grouping::Shuffle)
            .unwrap();
        g.connect(meet, "out", sink, "in", Grouping::Global)
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(0))
            }))
        });
        let b = board.clone();
        exe.register(first, move || {
            let b = b.clone();
            Box::new(FnTransform(
                move |_: &str, v: Value, ctx: &mut dyn Context| {
                    b.wait_for("second busy");
                    ctx.emit("out", v);
                },
            ))
        });
        let b = board.clone();
        exe.register(second, move || {
            let b = b.clone();
            Box::new(FnTransform(
                move |_: &str, v: Value, ctx: &mut dyn Context| {
                    b.raise("second busy");
                    b.wait_for("meet started");
                    ctx.emit("out", v);
                },
            ))
        });
        let (b, m) = (board.clone(), met.clone());
        exe.register(meet, move || {
            let (b, m) = (b.clone(), m.clone());
            Box::new(FnTransform(
                move |_: &str, v: Value, ctx: &mut dyn Context| {
                    b.raise("meet started");
                    let partnered = b.meet();
                    m.lock().push(partnered);
                    ctx.emit("out", v);
                },
            ))
        });
        exe.register(sink, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        // 3 pinned slots + 1 pool worker.
        let report = HybridMulti
            .execute(&exe, &ExecutionOptions::new(4))
            .unwrap();
        assert_eq!(
            *met.lock(),
            vec![true, true],
            "every meet call found a partner"
        );
        assert_eq!(report.failed_tasks, 0);
    }

    #[test]
    fn crash_fault_counts_only_the_slots_own_tasks() {
        // src → target (stateful, crashes after 2 own tasks) and src → wk;
        // wk → target; target → h. target's first task waits until the
        // pool worker runs wk, which in turn waits for h before it emits
        // target's second task. h is emitted by target's first task, so
        // while the pool worker waits inside wk, target's worker is the
        // only one free to run h: it helps before its second own task.
        let board = Arc::new(Board::default());
        let own_calls = Arc::new(AtomicU64::new(0));
        let helped = Arc::new(d4py_sync::Mutex::new(Vec::new()));
        let mut g = WorkflowGraph::new("crash-count");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let target = g.add_pe(PeSpec::transform("target", "in", "out").stateful());
        let wk = g.add_pe(PeSpec::transform("wk", "in", "out"));
        let h = g.add_pe(PeSpec::sink("h", "in"));
        g.connect(src, "out", target, "in", Grouping::Global)
            .unwrap();
        g.connect(src, "out", wk, "in", Grouping::Shuffle).unwrap();
        g.connect(wk, "out", target, "in", Grouping::Global)
            .unwrap();
        g.connect(target, "out", h, "in", Grouping::Shuffle)
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                ctx.emit("out", Value::Int(1))
            }))
        });
        let (b, calls) = (board.clone(), own_calls.clone());
        exe.register(target, move || {
            let (b, calls) = (b.clone(), calls.clone());
            Box::new(FnTransform(
                move |_: &str, v: Value, ctx: &mut dyn Context| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    if v == Value::Int(1) {
                        b.wait_for("wk started");
                        ctx.emit("out", v);
                    }
                },
            ))
        });
        let (b, log) = (board.clone(), helped.clone());
        exe.register(wk, move || {
            let (b, log) = (b.clone(), log.clone());
            Box::new(FnTransform(
                move |_: &str, _: Value, ctx: &mut dyn Context| {
                    log.lock().push(ctx.instance());
                    b.raise("wk started");
                    b.wait_for("h started");
                    ctx.emit("out", Value::Int(2));
                },
            ))
        });
        let (b, log) = (board.clone(), helped.clone());
        exe.register(h, move || {
            let (b, log) = (b.clone(), log.clone());
            Box::new(FnTransform(
                move |_: &str, _: Value, ctx: &mut dyn Context| {
                    log.lock().push(ctx.instance());
                    b.raise("h started");
                },
            ))
        });
        let exe = exe.seal().unwrap();
        let plan = RunPlan {
            faults: FaultPlan::default().with_crash("target", 0, 2),
            ..RunPlan::new("hybrid_multi", &ChannelQueueFactory)
        };
        // 1 pinned slot + 1 pool worker: the slot helps as global consumer 1.
        let err = run(&exe, &ExecutionOptions::new(2), &plan).unwrap_err();
        let CoreError::InjectedFault(msg) = &err else {
            panic!("unexpected error: {err}");
        };
        assert!(
            msg.contains("target#0 crashed after 2 task(s)"),
            "crash fired at the wrong task: {msg}"
        );
        assert_eq!(own_calls.load(Ordering::SeqCst), 2);
        assert!(
            helped.lock().contains(&1),
            "the crashing slot never helped: {:?}",
            helped.lock()
        );
    }

    #[test]
    fn helpers_hand_back_pills_meant_for_the_pool() {
        // A helper that pops a pool worker's pill after shutdown must put it
        // back; otherwise the pool worker waits out its one-second poll.
        let mut g = WorkflowGraph::new("pills");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let tok = g.add_pe(PeSpec::transform("tok", "in", "out"));
        let count = g.add_pe(PeSpec::sink("count", "in").stateful().with_instances(4));
        g.connect(src, "out", tok, "in", Grouping::Shuffle).unwrap();
        g.connect(tok, "out", count, "in", Grouping::group_by("k"))
            .unwrap();
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..40 {
                    ctx.emit("out", Value::map([("k", Value::Int(i % 9))]));
                }
            }))
        });
        exe.register(tok, || {
            Box::new(FnTransform(|_: &str, v: Value, ctx: &mut dyn Context| {
                ctx.emit("out", v);
            }))
        });
        exe.register(count, || {
            Box::new(FnTransform(|_: &str, _: Value, _: &mut dyn Context| {}))
        });
        let exe = exe.seal().unwrap();
        let opts = ExecutionOptions::new(5).with_termination(crate::options::TerminationConfig {
            poll_timeout: Duration::from_secs(1),
            ..Default::default()
        });
        // Helping pops linger, so the shutdown pills usually reach a helper.
        let queues = testkit::LingerFactory {
            linger: Duration::from_millis(20),
        };
        for _ in 0..20 {
            // 4 pinned slots + 1 pool worker.
            let report = run(&exe, &opts, &RunPlan::new("hybrid_multi", &queues)).unwrap();
            assert_eq!(report.tasks_executed, 81);
            // timing: hang detector, far below the one-second poll a lost
            // pill would cost; not a performance gate.
            assert!(
                report.runtime < Duration::from_millis(500),
                "{:?}",
                report.runtime
            );
            assert!(
                !report.warnings.iter().any(|w| w.contains("spurious")),
                "{:?}",
                report.warnings
            );
        }
    }

    /// src → sink, zero pinned slots. On entry src arms `push_charges`
    /// of the global queue, then emits 0..5, pausing past [`FLUSH_AFTER`]
    /// before every item after the first, so each of those emissions
    /// routes the one before it in the middle of the call: the first armed
    /// push is src's first mid-call route. Returns the run's result, the
    /// sorted items the sink received, and whether src's call came back.
    fn paced_flaky_run(
        arm: usize,
        opts: &ExecutionOptions,
    ) -> (Result<RunReport, CoreError>, Vec<i64>, bool) {
        let factory = testkit::FlakyFactory::default();
        let mut g = WorkflowGraph::new("paced-flaky");
        let src = g.add_pe(PeSpec::source("src", "out"));
        let sink = g.add_pe(PeSpec::sink("sink", "in"));
        g.connect(src, "out", sink, "in", Grouping::Shuffle)
            .unwrap();
        let returned = Arc::new(AtomicBool::new(false));
        let (pushes, done) = (factory.push_charges.clone(), returned.clone());
        let mut exe = Executable::new(g).unwrap();
        exe.register(src, move || {
            let (pushes, done) = (pushes.clone(), done.clone());
            Box::new(FnSource(move |ctx: &mut dyn Context| {
                pushes.store(arm, Ordering::SeqCst);
                for i in 0..5 {
                    if i > 0 {
                        // sleep: a pacing gap past FLUSH_AFTER, so this
                        // emission routes the previous one mid-call.
                        std::thread::sleep(2 * FLUSH_AFTER);
                    }
                    ctx.emit("out", Value::Int(i));
                }
                done.store(true, Ordering::SeqCst);
            }))
        });
        let (_, results) = Collector::new();
        let shared = results.clone();
        exe.register(sink, move || {
            Box::new(Collector::into_handle(shared.clone()))
        });
        let exe = exe.seal().unwrap();
        let report = run(&exe, opts, &RunPlan::new("dyn_test", &factory));
        let mut got: Vec<i64> = results.lock().iter().filter_map(Value::as_int).collect();
        got.sort_unstable();
        (report, got, returned.load(Ordering::SeqCst))
    }

    #[test]
    fn mid_call_route_errors_are_absorbed_by_the_retry_budget() {
        let opts = ExecutionOptions::new(2).with_transport_retries(3);
        let (report, got, returned) = paced_flaky_run(2, &opts);
        let report = report.unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(returned);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("absorbed 2 transient transport error")),
            "retry warning missing: {:?}",
            report.warnings
        );
    }

    #[test]
    fn mid_call_route_error_without_budget_fails_the_run() {
        let started = Instant::now();
        let (report, _, returned) = paced_flaky_run(1, &ExecutionOptions::new(2));
        let err = report.unwrap_err();
        assert!(matches!(err, CoreError::Queue(_)), "unexpected: {err}");
        // The error waited for the call: the source ran to its end.
        assert!(returned);
        // timing: hang detector with a generous bound, not a performance
        // gate.
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn hybrid_run_reports_one_latency_sample_per_task() {
        let (exe, _) = instance_spy();
        let report = HybridMulti
            .execute(&exe, &ExecutionOptions::new(5))
            .unwrap();
        assert_eq!(report.task_latency.count, report.tasks_executed);
        assert!(report.tasks_executed > 0);
    }
}

/// Queue doubles shared by the engine's unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use super::*;
    use crate::queue::ChannelQueue;
    use std::sync::atomic::AtomicUsize;

    /// Queue wrapper that fails `pop_batch` and `push_batch` calls with a
    /// transport error while their charges last, then behaves normally —
    /// the in-process stand-in for a dropped redis-lite connection.
    pub(crate) struct FlakyQueue {
        inner: Arc<dyn TaskQueue>,
        pops: Arc<AtomicUsize>,
        pushes: Arc<AtomicUsize>,
    }

    /// Spends one charge; an error if there was one to spend.
    fn fail_if_charged(charges: &AtomicUsize) -> Result<(), CoreError> {
        match charges.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1)) {
            Ok(_) => Err(CoreError::Queue("injected: connection dropped".into())),
            Err(_) => Ok(()),
        }
    }

    impl TaskQueue for FlakyQueue {
        fn push(&self, item: QueueItem) -> Result<(), CoreError> {
            self.inner.push(item)
        }
        fn push_batch(
            &self,
            producer: Option<usize>,
            items: Vec<QueueItem>,
        ) -> Result<(), CoreError> {
            fail_if_charged(&self.pushes)?;
            self.inner.push_batch(producer, items)
        }
        fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
            self.inner.pop(consumer, timeout)
        }
        fn pop_batch(
            &self,
            consumer: usize,
            max: usize,
            timeout: Duration,
        ) -> Result<Vec<QueueItem>, CoreError> {
            fail_if_charged(&self.pops)?;
            self.inner.pop_batch(consumer, max, timeout)
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
    }

    /// Queue wrapper that turns a pop that asks not to block into one that
    /// waits up to `linger`, as a Redis `BLOCK` never waits less than 1 ms.
    pub(crate) struct LingeringQueue {
        inner: Arc<dyn TaskQueue>,
        linger: Duration,
    }

    impl LingeringQueue {
        fn wait(&self, timeout: Duration) -> Duration {
            if timeout.is_zero() {
                self.linger
            } else {
                timeout
            }
        }
    }

    impl TaskQueue for LingeringQueue {
        fn push(&self, item: QueueItem) -> Result<(), CoreError> {
            self.inner.push(item)
        }
        fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
            self.inner.pop(consumer, self.wait(timeout))
        }
        fn pop_batch(
            &self,
            consumer: usize,
            max: usize,
            timeout: Duration,
        ) -> Result<Vec<QueueItem>, CoreError> {
            self.inner.pop_batch(consumer, max, self.wait(timeout))
        }
        fn depth(&self) -> usize {
            self.inner.depth()
        }
    }

    /// Channel queues whose global queue is a [`LingeringQueue`].
    pub(crate) struct LingerFactory {
        pub(crate) linger: Duration,
    }

    impl QueueFactory for LingerFactory {
        fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
            let inner: Arc<dyn TaskQueue> = Arc::new(ChannelQueue::new(consumers));
            if name == "global" {
                Ok(Arc::new(LingeringQueue {
                    inner,
                    linger: self.linger,
                }))
            } else {
                Ok(inner)
            }
        }
    }

    /// Channel queues whose global queue is a [`FlakyQueue`] whose pops
    /// draw on `charges` and whose pushes draw on `push_charges`.
    #[derive(Default)]
    pub(crate) struct FlakyFactory {
        pub(crate) charges: Arc<AtomicUsize>,
        pub(crate) push_charges: Arc<AtomicUsize>,
    }

    impl QueueFactory for FlakyFactory {
        fn make(&self, name: &str, consumers: usize) -> Result<Arc<dyn TaskQueue>, CoreError> {
            let inner: Arc<dyn TaskQueue> = Arc::new(ChannelQueue::new(consumers));
            if name == "global" {
                Ok(Arc::new(FlakyQueue {
                    inner,
                    pops: self.charges.clone(),
                    pushes: self.push_charges.clone(),
                }))
            } else {
                Ok(inner)
            }
        }
    }
}
