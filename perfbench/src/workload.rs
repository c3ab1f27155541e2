//! The three benchmark workloads: how each is set up, executed once, and
//! checked against its reference.

use crate::chain::{self, ChainTotals};
use crate::metrics::with_rss_peak;
use crate::oracle::Output;
use crate::probe::{Probe, Scope};
use d4py_core::executable::Executable;
use d4py_core::mapping::Mapping;
use d4py_core::mappings::{DynAutoMulti, Simple};
use d4py_core::metrics::RunReport;
use d4py_core::options::ExecutionOptions;
use d4py_core::platform::Platform;
use d4py_core::value::Value;
use d4py_graph::analyze::AnalysisContext;
use d4py_redis::{DynAutoRedis, HybridRedis, RedisBackend, RedisStateStore};
use d4py_sync::Mutex;
use d4py_workflows::{astro, sentiment, TrafficShape, WorkloadConfig};
use redis_lite::client::{Client, RedisOps};
use redis_lite::server::Server;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The zero-work chain under `dyn_auto_redis`, one job after another.
    SmallJobs,
    /// The galaxy workflow at 10X with bursty arrivals under
    /// `dyn_auto_multi`.
    GalaxyBursty,
    /// The sentiment workflow at 4X with its service times at a quarter
    /// under `hybrid_redis`.
    SentimentRedis,
}

impl Workload {
    /// Every workload the command accepts.
    pub const ALL: [Workload; 3] = [
        Workload::SmallJobs,
        Workload::GalaxyBursty,
        Workload::SentimentRedis,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallJobs => "small-jobs",
            Workload::GalaxyBursty => "galaxy-bursty",
            Workload::SentimentRedis => "sentiment-redis",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker-pool size the engine runs with.
    pub fn workers(self) -> usize {
        match self {
            Workload::SmallJobs => 2,
            Workload::GalaxyBursty | Workload::SentimentRedis => 8,
        }
    }

    /// True when the engine auto-scales its active workers.
    pub fn autoscaling(self) -> bool {
        self != Workload::SentimentRedis
    }

    /// True when the engine talks to redis-lite over TCP.
    pub fn uses_redis(self) -> bool {
        self != Workload::GalaxyBursty
    }

    /// The workload's input configuration for `seed`.
    pub fn config(self, seed: u64) -> WorkloadConfig {
        let cfg = WorkloadConfig::standard().with_seed(seed);
        match self {
            Workload::SmallJobs => cfg.with_time_scale(0.0),
            Workload::GalaxyBursty => cfg
                .with_scale(10)
                .with_time_scale(0.5)
                .with_limiter(Platform::SERVER.limiter())
                .with_shape(TrafficShape::Bursty {
                    period: 50,
                    pause: Duration::from_millis(400),
                }),
            // A quarter of the modelled service times keeps most of each
            // execution waiting, not computing: the engine and redis-lite
            // get CPU to spare, so the runtime holds when the host's CPU
            // is contended (at time_scale 0 it doubled under steal).
            Workload::SentimentRedis => cfg.with_scale(2).with_time_scale(1.0),
        }
    }

    /// The configuration the `simple` reference runs under. The galaxy and
    /// sentiment references drop the service-time sleeps and arrival
    /// pauses (`time_scale` 0): their outputs do not depend on them.
    pub fn reference_config(self, seed: u64) -> WorkloadConfig {
        self.config(seed).with_time_scale(0.0)
    }
}

/// A built workflow and the handle its final PE writes results to.
pub struct Built {
    /// The executable, as the workflow's `build` returned it.
    pub exe: Executable,
    sink: Sink,
}

enum Sink {
    Chain(Arc<ChainTotals>),
    Extinction(Arc<Mutex<Vec<Value>>>),
    Top3(Arc<Mutex<Vec<Value>>>),
}

impl Built {
    /// Builds `workload` under `cfg`.
    pub fn new(workload: Workload, cfg: &WorkloadConfig) -> Built {
        let (exe, sink) = match workload {
            Workload::SmallJobs => {
                let (exe, totals) = chain::build(cfg.seed);
                (exe, Sink::Chain(totals))
            }
            Workload::GalaxyBursty => {
                let (exe, rows) = astro::build(cfg);
                (exe, Sink::Extinction(rows))
            }
            Workload::SentimentRedis => {
                let (exe, rows) = sentiment::build(cfg);
                (exe, Sink::Top3(rows))
            }
        };
        Built { exe, sink }
    }

    /// Takes what the last execution produced, leaving the handle empty
    /// for the next one. (A chain is built per job, so its totals start
    /// at zero.)
    pub fn take_output(&self) -> Output {
        match &self.sink {
            Sink::Chain(t) => t.output(),
            Sink::Extinction(rows) => Output::extinction(&std::mem::take(&mut *rows.lock())),
            Sink::Top3(rows) => Output::top3(&std::mem::take(&mut *rows.lock())),
        }
    }
}

/// One timed `execute` call and everything recorded around it.
pub struct Execution {
    /// Wall time of the `execute` call.
    pub wall: Duration,
    /// The engine's report, or its error.
    pub report: Result<RunReport, String>,
    /// What the workflow produced.
    pub output: Output,
    /// The output check against the reference.
    pub verdict: Result<(), String>,
    /// What the wrapped PEs recorded.
    pub probe: Arc<Probe>,
    /// Probe time just before `execute` was called.
    pub called: u64,
    /// Probe time just after `execute` returned.
    pub returned: u64,
    /// Time to build the workflow, when this execution built it.
    pub build: Option<Duration>,
    /// Time of one pre-flight `analyze` of the graph ([`Scope::Full`]
    /// only).
    pub analyze: Option<Duration>,
    /// Peak resident set size during `execute` (`VmHWM`), in KiB.
    pub peak_rss_kb: u64,
}

impl Execution {
    /// True when the execution errored, its output differs from the
    /// reference, or the engine reports failed tasks or dropped emissions.
    pub fn failed(&self) -> bool {
        self.failure().is_some()
    }

    /// The execution's share of `failed_ratio`'s numerator: 1 if it
    /// errored, else 1 for a wrong output plus its failed tasks and
    /// dropped emissions.
    pub fn failures(&self) -> u64 {
        match &self.report {
            Ok(r) => u64::from(self.verdict.is_err()) + r.failed_tasks + r.dropped_emissions,
            Err(_) => 1,
        }
    }

    /// Why [`failed`](Self::failed) holds, if it does.
    pub fn failure(&self) -> Option<String> {
        match (&self.report, &self.verdict) {
            (Err(e), _) => Some(format!("execute failed: {e}")),
            (_, Err(e)) => Some(format!("output differs from reference: {e}")),
            (Ok(r), _) if r.failed_tasks + r.dropped_emissions > 0 => Some(format!(
                "{} failed tasks, {} dropped emissions",
                r.failed_tasks, r.dropped_emissions
            )),
            _ => None,
        }
    }
}

/// A workload ready to execute: its redis-lite (when it needs one), its
/// built workflow and its reference output.
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Its input configuration.
    pub cfg: WorkloadConfig,
    /// The reference output from the `simple` mapping.
    pub reference: Output,
    /// Wall time of the `simple` reference run.
    pub simple_runtime: Duration,
    /// Time the workflow build took at set-up.
    pub build_time: Duration,
    /// Per item id: the sum of the arrival gaps up to and including it,
    /// in nanoseconds — its due time relative to the source's start.
    pub due: Vec<u64>,
    server: Option<Server>,
    built: Built,
}

impl Bench {
    /// Starts redis-lite (if the workload needs it), builds the workflow
    /// and computes the reference output.
    pub fn setup(workload: Workload, seed: u64) -> Result<Bench, String> {
        let server = if workload.uses_redis() {
            Some(Server::start(0).map_err(|e| format!("redis-lite did not start: {e}"))?)
        } else {
            None
        };
        let cfg = workload.config(seed);
        let t = Instant::now();
        let built = Built::new(workload, &cfg);
        let build_time = t.elapsed();
        let reference_build = Built::new(workload, &workload.reference_config(seed));
        let t = Instant::now();
        Simple
            .execute(&reference_build.exe, &ExecutionOptions::new(1))
            .map_err(|e| format!("simple reference run failed: {e}"))?;
        let simple_runtime = t.elapsed();
        let reference = reference_build.take_output();
        let items = match workload {
            Workload::SmallJobs => chain::CHAIN_ITEMS as u64,
            Workload::GalaxyBursty => u64::from(cfg.scale * astro::GALAXIES_PER_X),
            Workload::SentimentRedis => u64::from(cfg.scale * sentiment::ARTICLES_PER_X),
        };
        let mut due = Vec::with_capacity(items as usize);
        let mut at = Duration::ZERO;
        for i in 0..items {
            at += cfg.arrival_gap(i);
            due.push(at.as_nanos() as u64);
        }
        Ok(Bench {
            workload,
            cfg,
            reference,
            simple_runtime,
            build_time,
            due,
            server,
            built,
        })
    }

    /// The redis-lite address, when the workload uses one.
    pub fn redis_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(Server::addr)
    }

    /// The mapping under test, talking to Redis at `redis`.
    fn mapping(&self, redis: Option<SocketAddr>) -> Result<Box<dyn Mapping>, String> {
        let backend = || {
            redis
                .map(RedisBackend::Tcp)
                .ok_or_else(|| format!("{} needs a Redis address", self.workload.name()))
        };
        Ok(match self.workload {
            Workload::SmallJobs => Box::new(DynAutoRedis::new(backend()?)),
            Workload::GalaxyBursty => Box::new(DynAutoMulti::new()),
            Workload::SentimentRedis => {
                let backend = backend()?;
                // The hash is empty at the start of every execution (see
                // `execute`), so `happyState` never warm-starts from an
                // earlier execution's totals.
                let store = RedisStateStore::new(&backend, "perfbench:state")
                    .map_err(|e| format!("state store: {e}"))?;
                Box::new(HybridRedis::new(backend).with_state_store(Arc::new(store)))
            }
        })
    }

    /// Runs one execution with the PEs in `scope` wrapped, against Redis
    /// at `redis` (the workload's own redis-lite when `None`), and checks
    /// its output. Redis is flushed first, so every execution starts from
    /// an empty keyspace whatever earlier ones left behind.
    pub fn execute(&self, scope: Scope, redis: Option<SocketAddr>) -> Execution {
        if let Some(addr) = self.redis_addr() {
            if let Err(e) = Client::connect(addr).and_then(|mut c| c.flushall()) {
                eprintln!("warning: FLUSHALL before the execution failed: {e}");
            }
        }
        let job;
        let (built, build) = if self.workload == Workload::SmallJobs {
            let t = Instant::now();
            job = Built::new(self.workload, &self.cfg);
            (&job, Some(t.elapsed()))
        } else {
            (&self.built, None)
        };
        let (exe, probe) = Probe::wrap(&built.exe, scope);
        let analyze = (scope == Scope::Full).then(|| {
            let ctx =
                AnalysisContext::preflight(self.workload.workers(), self.workload.autoscaling());
            let t = Instant::now();
            std::hint::black_box(exe.graph().analyze(&ctx));
            t.elapsed()
        });
        let opts =
            ExecutionOptions::new(self.workload.workers()).with_limiter(self.cfg.limiter.clone());
        let ((report, called, returned, wall), peak_rss_kb) =
            with_rss_peak(|| match self.mapping(redis.or(self.redis_addr())) {
                Ok(mapping) => {
                    let called = probe.now();
                    let t = Instant::now();
                    let report = mapping.execute(&exe, &opts).map_err(|e| e.to_string());
                    let wall = t.elapsed();
                    (report, called, probe.now(), wall)
                }
                Err(e) => (Err(e), 0, 0, Duration::ZERO),
            });
        let output = built.take_output();
        let verdict = output.check(&self.reference);
        Execution {
            wall,
            report,
            output,
            verdict,
            probe,
            called,
            returned,
            build,
            analyze,
            peak_rss_kb,
        }
    }
}
