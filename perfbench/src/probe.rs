//! Timing probes around the calls into each processing element.
//!
//! [`Probe::wrap`] re-registers PEs of a sealed [`Executable`] on a clone of
//! its graph, each behind a [`Traced`] wrapper that obtains the original PE
//! from [`Executable::instantiate`] and times the calls the engine makes into
//! it. Nothing inside the engines is touched: every number here is taken at
//! the public `ProcessingElement` boundary.
//!
//! Two scopes exist. [`Scope::Edges`] wraps only the sources and sinks and
//! records one timestamp per item — enough for item latency and result lag,
//! cheap enough for the untraced runs. [`Scope::Full`] wraps every PE and
//! also records busy time, call and emission counts, encoded bytes and the
//! per-item receive times the queue-wait metric matches by `id`.

use d4py_core::codec::encode_value;
use d4py_core::executable::Executable;
use d4py_core::pe::{Context, ProcessingElement};
use d4py_core::value::Value;
use d4py_graph::PeId;
use d4py_sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which PEs a probe wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Sources and sinks only, one timestamp per item.
    Edges,
    /// Every PE, with busy time, counts and bytes.
    Full,
}

/// What one PE did during one execution. Counters are relaxed atomics:
/// they publish no other data and are read after `execute` has joined
/// every worker.
#[derive(Debug)]
pub struct PeLedger {
    /// The PE's name in the graph.
    pub name: String,
    /// True for a source PE.
    pub source: bool,
    /// True for a sink PE.
    pub sink: bool,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    emits: AtomicU64,
    bytes: AtomicU64,
    first_start: AtomicU64,
    last_end: AtomicU64,
    last_emit: AtomicU64,
    emitted: Mutex<Vec<(i64, u64)>>,
    received: Mutex<Vec<(i64, u64)>>,
    completed: Mutex<Vec<(Option<i64>, u64)>>,
}

impl PeLedger {
    fn new(name: String, source: bool, sink: bool) -> Self {
        Self {
            name,
            source,
            sink,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            emits: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            first_start: AtomicU64::new(u64::MAX),
            last_end: AtomicU64::new(0),
            last_emit: AtomicU64::new(0),
            emitted: Mutex::new(Vec::new()),
            received: Mutex::new(Vec::new()),
            completed: Mutex::new(Vec::new()),
        }
    }

    /// `process()` calls made ([`Scope::Full`] only).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Nanoseconds spent inside `process()` and `on_done()`
    /// ([`Scope::Full`] only).
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Values emitted ([`Scope::Full`] only).
    pub fn emits(&self) -> u64 {
        self.emits.load(Ordering::Relaxed)
    }

    /// Sum of `codec::encode_value(v).len()` over emitted values
    /// ([`Scope::Full`] only).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Start of the first call, in probe nanoseconds (`None` if never
    /// called).
    pub fn first_start(&self) -> Option<u64> {
        Some(self.first_start.load(Ordering::Relaxed)).filter(|&t| t != u64::MAX)
    }

    /// End of the last `process()`/`on_done()` call, in probe nanoseconds.
    pub fn last_end(&self) -> u64 {
        self.last_end.load(Ordering::Relaxed)
    }

    /// Time of the last emission, in probe nanoseconds (0 if none).
    pub fn last_emit(&self) -> u64 {
        self.last_emit.load(Ordering::Relaxed)
    }

    /// `(id, time)` of every emission whose value carries an integer `id`
    /// (sources always; every PE under [`Scope::Full`]).
    pub fn emitted(&self) -> Vec<(i64, u64)> {
        self.emitted.lock().clone()
    }

    /// `(id, time)` of every `process()` start whose input carries an
    /// integer `id` ([`Scope::Full`] only).
    pub fn received(&self) -> Vec<(i64, u64)> {
        self.received.lock().clone()
    }

    /// `(id, time)` of every `process()` end at a sink.
    pub fn completed(&self) -> Vec<(Option<i64>, u64)> {
        self.completed.lock().clone()
    }
}

/// The per-execution record of every wrapped PE, indexed by [`PeId`].
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    scope: Scope,
    pes: Vec<PeLedger>,
    preds: Vec<Vec<usize>>,
}

impl Probe {
    /// Clones `exe`'s graph, registers every PE the `scope` covers behind a
    /// [`Traced`] wrapper (the rest keep their original factory) and returns
    /// the new executable with the probe its wrappers write to.
    pub fn wrap(exe: &Executable, scope: Scope) -> (Executable, Arc<Probe>) {
        let graph = exe.graph();
        let sources = graph.sources();
        let sinks = graph.sinks();
        let pes = graph
            .pes()
            .map(|(id, spec)| {
                PeLedger::new(
                    spec.name.clone(),
                    sources.contains(&id),
                    sinks.contains(&id),
                )
            })
            .collect();
        let preds = graph
            .pe_ids()
            .map(|id| graph.predecessors(id).into_iter().map(|p| p.0).collect())
            .collect();
        let probe = Arc::new(Probe {
            epoch: Instant::now(),
            scope,
            pes,
            preds,
        });
        let mut wrapped =
            Executable::new(graph.clone()).expect("a sealed executable's graph is valid");
        for id in graph.pe_ids() {
            let inner = exe.clone();
            let probe = probe.clone();
            let l = &probe.pes[id.0];
            let traced = scope == Scope::Full || l.source || l.sink;
            wrapped.register(id, move || {
                let pe = inner
                    .instantiate(id)
                    .expect("a sealed executable has a factory for every PE");
                if traced {
                    Box::new(Traced {
                        inner: pe,
                        probe: probe.clone(),
                        pe: id,
                    })
                } else {
                    pe
                }
            });
        }
        (
            wrapped.seal().expect("every PE was registered above"),
            probe,
        )
    }

    /// Nanoseconds since the probe was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every PE's ledger, indexed by `PeId`.
    pub fn pes(&self) -> &[PeLedger] {
        &self.pes
    }

    /// The upstream PEs of each PE, by index.
    pub fn preds(&self) -> &[Vec<usize>] {
        &self.preds
    }
}

/// The `id` field of a map value, the key item-level metrics join on.
fn item_id(value: &Value) -> Option<i64> {
    value.get("id").and_then(Value::as_int)
}

/// A PE behind a timing wrapper. Every trait method is forwarded, so the
/// wrapped PE keeps its state externalization (`snapshot`/`restore`).
pub struct Traced {
    inner: Box<dyn ProcessingElement>,
    probe: Arc<Probe>,
    pe: PeId,
}

impl Traced {
    /// Closes one call that started at `start`: moves the PE's last-end
    /// mark and, under [`Scope::Full`], adds its busy time and emissions.
    fn finish(probe: &Probe, pe: PeId, start: u64, tap: &Tap<'_>) -> u64 {
        let end = probe.now();
        let l = &probe.pes[pe.0];
        l.last_end.fetch_max(end, Ordering::Relaxed);
        if probe.scope == Scope::Full {
            l.busy_ns.fetch_add(end - start, Ordering::Relaxed);
            l.emits.fetch_add(tap.emits, Ordering::Relaxed);
            l.bytes.fetch_add(tap.bytes, Ordering::Relaxed);
        }
        end
    }
}

impl ProcessingElement for Traced {
    fn process(&mut self, port: &str, value: Value, ctx: &mut dyn Context) {
        let Traced { inner, probe, pe } = self;
        let l = &probe.pes[pe.0];
        let id = item_id(&value);
        let start = probe.now();
        l.first_start.fetch_min(start, Ordering::Relaxed);
        if probe.scope == Scope::Full {
            l.calls.fetch_add(1, Ordering::Relaxed);
            if let Some(id) = id {
                l.received.lock().push((id, start));
            }
        }
        let mut tap = Tap::new(ctx, probe, *pe);
        inner.process(port, value, &mut tap);
        let end = Self::finish(probe, *pe, start, &tap);
        if l.sink {
            l.completed.lock().push((id, end));
        }
    }

    fn on_done(&mut self, ctx: &mut dyn Context) {
        let Traced { inner, probe, pe } = self;
        let start = probe.now();
        let mut tap = Tap::new(ctx, probe, *pe);
        inner.on_done(&mut tap);
        Self::finish(probe, *pe, start, &tap);
    }

    fn snapshot(&self) -> Option<Value> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: Value) {
        self.inner.restore(state)
    }
}

/// The context a traced PE emits through: counts and timestamps each
/// emission, then forwards it to the engine's context unchanged.
struct Tap<'a> {
    inner: &'a mut dyn Context,
    probe: &'a Probe,
    pe: PeId,
    emits: u64,
    bytes: u64,
}

impl<'a> Tap<'a> {
    fn new(inner: &'a mut dyn Context, probe: &'a Probe, pe: PeId) -> Self {
        Self {
            inner,
            probe,
            pe,
            emits: 0,
            bytes: 0,
        }
    }
}

impl Context for Tap<'_> {
    fn emit(&mut self, port: &str, value: Value) {
        let l = &self.probe.pes[self.pe.0];
        let full = self.probe.scope == Scope::Full;
        if full {
            self.emits += 1;
            self.bytes += encode_value(&value).len() as u64;
        }
        let now = self.probe.now();
        l.last_emit.fetch_max(now, Ordering::Relaxed);
        if full || l.source {
            if let Some(id) = item_id(&value) {
                l.emitted.lock().push((id, now));
            }
        }
        self.inner.emit(port, value);
    }

    fn instance(&self) -> usize {
        self.inner.instance()
    }

    fn instance_count(&self) -> usize {
        self.inner.instance_count()
    }
}
