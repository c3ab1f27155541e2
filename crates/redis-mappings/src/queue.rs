//! [`RedisQueue`]: the dispel4py global queue backed by a Redis stream.
//!
//! The direct translation of §3.1.1: the multiprocessing queue of dynamic
//! scheduling replaced by a Redis stream with one consumer group. Mapping of
//! queue operations onto commands:
//!
//! * `push`  → `XADD key * task <codec bytes>`
//! * `pop`   → `XREADGROUP GROUP g w<i> COUNT 1 BLOCK <ms> NOACK STREAMS key >`
//!   followed by `XDEL` of the delivered id, so `XLEN` stays an accurate
//!   live-depth metric and memory stays bounded
//! * `depth` → `XLEN`
//! * `idle_times` → `XINFO CONSUMERS` (the consumer-group idle metadata the
//!   `dyn_auto_redis` strategy monitors)
//!
//! `NOACK` is used because workers are threads of one process: there is no
//! crash-recovery consumer to hand pending entries to, so at-most-once
//! delivery inside the process is the honest semantic (real dispel4py's
//! Redis mapping makes the same choice for its task queue reads).

use crate::backend::RedisBackend;
use crate::pool::{ConnectionPool, PoolConfig};
use d4py_core::codec;
use d4py_core::error::CoreError;
use d4py_core::queue::TaskQueue;
use d4py_core::task::QueueItem;
use d4py_sync::Mutex;
use redis_lite::client::{parse_claim_reply, ClientError, Connection, RedisOps};
use redis_lite::resp::Frame;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const GROUP: &[u8] = b"d4py";
const FIELD: &[u8] = b"task";

/// True for errors where the connection itself is suspect (vs. a server
/// reply the connection carried back fine).
fn is_transport_error(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_) | ClientError::Protocol(_) | ClientError::RetryExhausted { .. }
    )
}

/// Extracts and decodes the task payload of one stream entry.
fn decode_payload(pairs: Vec<(Vec<u8>, Vec<u8>)>) -> Result<QueueItem, CoreError> {
    let payload = pairs
        .into_iter()
        .find(|(f, _)| f == FIELD)
        .map(|(_, v)| v)
        .ok_or_else(|| CoreError::Queue("stream entry missing task field".into()))?;
    Ok(codec::decode_item(&payload)?)
}

/// A Redis-stream-backed [`TaskQueue`].
pub struct RedisQueue {
    key: Vec<u8>,
    /// Dedicated connection per consumer (blocking reads must not share).
    readers: Vec<Mutex<Box<dyn Connection>>>,
    /// In reliable mode: the not-yet-acknowledged entry id per consumer.
    unacked: Vec<Mutex<Option<String>>>,
    /// Bounded, health-checked pool for pushes / monitoring queries.
    pool: ConnectionPool,
    /// Last successfully observed depth, held across transient backend
    /// errors so a dead shard doesn't read as an empty queue.
    last_depth: AtomicUsize,
    created: Instant,
    /// At-least-once mode: PEL-tracked reads, ack-on-next-pop, and
    /// XAUTOCLAIM recovery of entries whose consumer stalled.
    reliable: Option<Duration>,
}

impl RedisQueue {
    /// Creates the stream + consumer group and `consumers` reader
    /// connections, in the fast NOACK mode (at-most-once within the
    /// process; entries are XDELed as they are read).
    pub fn new(
        backend: &RedisBackend,
        key: impl Into<Vec<u8>>,
        consumers: usize,
    ) -> Result<Self, CoreError> {
        Self::build(backend, key.into(), consumers, None)
    }

    /// Creates the queue in *reliable* (at-least-once) mode: reads go
    /// through the PEL, a consumer acknowledges its previous entry when it
    /// pops the next one, and entries left pending for `reclaim_idle` are
    /// transferred to whichever consumer polls next via `XAUTOCLAIM` — so a
    /// stalled or dead worker's task is re-executed instead of lost.
    pub fn new_reliable(
        backend: &RedisBackend,
        key: impl Into<Vec<u8>>,
        consumers: usize,
        reclaim_idle: Duration,
    ) -> Result<Self, CoreError> {
        Self::build(backend, key.into(), consumers, Some(reclaim_idle))
    }

    fn build(
        backend: &RedisBackend,
        key: Vec<u8>,
        consumers: usize,
        reliable: Option<Duration>,
    ) -> Result<Self, CoreError> {
        let mut setup = backend.connect()?;
        setup
            .xgroup_create(&key, GROUP)
            .map_err(|e| CoreError::Queue(format!("XGROUP CREATE failed: {e}")))?;
        let mut readers = Vec::with_capacity(consumers);
        let mut unacked = Vec::with_capacity(consumers);
        for _ in 0..consumers {
            readers.push(Mutex::new(backend.connect()?));
            unacked.push(Mutex::new(None));
        }
        Ok(Self {
            key,
            readers,
            unacked,
            pool: ConnectionPool::new(backend.clone(), PoolConfig::default()),
            last_depth: AtomicUsize::new(0),
            created: Instant::now(),
            reliable,
        })
    }

    /// The stream key.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    fn with_pool<T>(
        &self,
        f: impl FnOnce(&mut dyn Connection) -> Result<T, ClientError>,
    ) -> Result<T, CoreError> {
        let mut conn = self.pool.checkout()?;
        match f(&mut *conn) {
            Ok(v) => Ok(v),
            Err(e) => {
                // A broken socket must not re-enter the pool; server-side
                // errors travelled over a healthy connection, keep it.
                if is_transport_error(&e) {
                    conn.discard();
                }
                Err(CoreError::Queue(e.to_string()))
            }
        }
    }

    /// Fails if `frame` is a server-side error reply.
    fn frame_ok(frame: &Frame, what: &str) -> Result<(), CoreError> {
        if let Frame::Error(msg) = frame {
            return Err(CoreError::Queue(format!("{what} failed: {msg}")));
        }
        Ok(())
    }
}

impl TaskQueue for RedisQueue {
    fn push(&self, item: QueueItem) -> Result<(), CoreError> {
        let payload = codec::encode_item(&item);
        self.with_pool(|c| {
            c.request(&[b"XADD", &self.key, b"*", FIELD, &payload])
                .map(|_| ())
        })
    }

    fn push_batch(&self, _producer: Option<usize>, items: Vec<QueueItem>) -> Result<(), CoreError> {
        if items.is_empty() {
            return Ok(());
        }
        // One pipelined XADD burst: N commands, one write, one read.
        let payloads: Vec<Vec<u8>> = items.iter().map(codec::encode_item).collect();
        let owned: Vec<[&[u8]; 5]> = payloads
            .iter()
            .map(|p| [b"XADD".as_ref(), &self.key, b"*", FIELD, p.as_slice()])
            .collect();
        let cmds: Vec<&[&[u8]]> = owned.iter().map(|c| c.as_slice()).collect();
        let replies = self.with_pool(|c| c.request_many(&cmds))?;
        for reply in &replies {
            Self::frame_ok(reply, "pipelined XADD")?;
        }
        Ok(())
    }

    fn pop(&self, consumer: usize, timeout: Duration) -> Result<Option<QueueItem>, CoreError> {
        let Some(reader) = self.readers.get(consumer) else {
            return Err(CoreError::Queue(format!(
                "no reader connection for consumer {consumer}"
            )));
        };
        let consumer_name = format!("w{consumer}");
        let mut conn = reader.lock();

        if let Some(reclaim_idle) = self.reliable {
            // Ack-on-next-pop, folded into ONE round-trip: [XACK prev,
            // XDEL prev,] XAUTOCLAIM ride a single pipeline instead of the
            // three sequential round-trips this path used to pay.
            let mut pending = self.unacked[consumer].lock();
            let idle_ms = reclaim_idle.as_millis().to_string();
            let claim: [&[u8]; 8] = [
                b"XAUTOCLAIM",
                &self.key,
                GROUP,
                consumer_name.as_bytes(),
                idle_ms.as_bytes(),
                b"0",
                b"COUNT",
                b"1",
            ];
            // `pending` is only cleared AFTER the ack round-trip succeeds;
            // clearing it eagerly lost the id on error, leaving the entry
            // in the PEL to double-deliver via a later XAUTOCLAIM.
            let replies = if let Some(prev) = pending.as_deref() {
                let ack: [&[u8]; 4] = [b"XACK", &self.key, GROUP, prev.as_bytes()];
                let del: [&[u8]; 3] = [b"XDEL", &self.key, prev.as_bytes()];
                let cmds: [&[&[u8]]; 3] = [&ack, &del, &claim];
                conn.request_many(&cmds)
                    .map_err(|e| CoreError::Queue(e.to_string()))?
            } else {
                conn.request_many(&[&claim])
                    .map_err(|e| CoreError::Queue(e.to_string()))?
            };
            let (ack_replies, claim_reply) = replies.split_at(replies.len() - 1);
            for reply in ack_replies {
                Self::frame_ok(reply, "ack of previous entry")?;
            }
            *pending = None; // ack landed (or there was nothing to ack)

            // Rescue entries a stalled consumer left pending.
            let claimed = parse_claim_reply(claim_reply[0].clone())
                .map_err(|e| CoreError::Queue(e.to_string()))?
                .into_iter()
                .next();
            let read = match claimed {
                Some(entry) => Some(entry),
                None => conn
                    .xreadgroup_one(&self.key, GROUP, consumer_name.as_bytes(), timeout, false)
                    .map_err(|e| CoreError::Queue(e.to_string()))?,
            };
            let Some((id, pairs)) = read else {
                return Ok(None);
            };
            *pending = Some(id);
            drop(pending);
            drop(conn);
            return decode_payload(pairs).map(Some);
        }

        let read = conn
            .xreadgroup_one(&self.key, GROUP, consumer_name.as_bytes(), timeout, true)
            .map_err(|e| CoreError::Queue(e.to_string()))?;
        let Some((id, pairs)) = read else {
            return Ok(None);
        };
        // Remove the consumed entry so XLEN tracks live depth.
        conn.request(&[b"XDEL", &self.key, id.as_bytes()])
            .map_err(|e| CoreError::Queue(e.to_string()))?;
        drop(conn);
        decode_payload(pairs).map(Some)
    }

    fn pop_batch(
        &self,
        consumer: usize,
        max: usize,
        timeout: Duration,
    ) -> Result<Vec<QueueItem>, CoreError> {
        if max == 0 {
            return Ok(Vec::new());
        }
        // Reliable mode tracks exactly one unacked id per consumer, so its
        // at-least-once contract only admits single-entry reads.
        if self.reliable.is_some() || max == 1 {
            return Ok(self.pop(consumer, timeout)?.into_iter().collect());
        }
        let Some(reader) = self.readers.get(consumer) else {
            return Err(CoreError::Queue(format!(
                "no reader connection for consumer {consumer}"
            )));
        };
        let consumer_name = format!("w{consumer}");
        let mut conn = reader.lock();
        // One COUNT-max read plus one multi-id XDEL: two round-trips per
        // batch instead of two per item.
        let entries = conn
            .xreadgroup_many(
                &self.key,
                GROUP,
                consumer_name.as_bytes(),
                max,
                timeout,
                true,
            )
            .map_err(|e| CoreError::Queue(e.to_string()))?;
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let mut del: Vec<&[u8]> = Vec::with_capacity(2 + entries.len());
        del.push(b"XDEL");
        del.push(&self.key);
        del.extend(entries.iter().map(|(id, _)| id.as_bytes()));
        let reply = conn
            .request(&del)
            .map_err(|e| CoreError::Queue(e.to_string()))?;
        Self::frame_ok(&reply, "batched XDEL")?;
        drop(conn);
        entries
            .into_iter()
            .map(|(_, pairs)| decode_payload(pairs))
            .collect()
    }

    fn depth(&self) -> usize {
        match self.with_pool(|c| c.xlen(&self.key)) {
            Ok(n) => {
                let depth = n.max(0) as usize;
                // relaxed: monitoring metric, no ordering dependencies.
                self.last_depth.store(depth, Ordering::Relaxed);
                depth
            }
            Err(e) => {
                // A dead backend must not read as "empty queue" — that
                // invites the autoscaler to scale down mid-outage. Hold the
                // last good observation and say why.
                eprintln!("[d4py-redis] depth probe failed, holding last value: {e}");
                // relaxed: monitoring metric, no ordering dependencies.
                self.last_depth.load(Ordering::Relaxed)
            }
        }
    }

    fn idle_times(&self) -> Option<Vec<Duration>> {
        let rows = self
            .with_pool(|c| c.xinfo_consumers(&self.key, GROUP))
            .ok()?;
        // Consumers that never read yet have been idle since queue creation.
        let mut idles = vec![self.created.elapsed(); self.readers.len()];
        for (name, _pending, idle) in rows {
            if let Some(i) = name.strip_prefix('w').and_then(|s| s.parse::<usize>().ok()) {
                if i < idles.len() {
                    idles[i] = idle;
                }
            }
        }
        Some(idles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::task::Task;
    use d4py_core::value::Value;
    use d4py_graph::PeId;
    use redis_lite::server::Server;
    use std::sync::Arc;

    fn task(i: i64) -> QueueItem {
        QueueItem::Task(Task::new(PeId(1), "in", Value::Int(i)))
    }

    #[test]
    fn inproc_push_pop_roundtrip() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 2).unwrap();
        q.push(task(7)).unwrap();
        assert_eq!(q.depth(), 1);
        let got = q.pop(0, Duration::from_millis(50)).unwrap();
        assert_eq!(got, Some(task(7)));
        assert_eq!(q.depth(), 0, "XDEL keeps XLEN a live depth");
    }

    #[test]
    fn pop_times_out_empty() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        let start = Instant::now();
        assert_eq!(q.pop(0, Duration::from_millis(30)).unwrap(), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn entries_delivered_exactly_once_across_consumers() {
        let backend = RedisBackend::in_proc();
        let q = Arc::new(RedisQueue::new(&backend, "q", 4).unwrap());
        for i in 0..40 {
            q.push(task(i)).unwrap();
        }
        let mut handles = Vec::new();
        for c in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(QueueItem::Task(t)) = q.pop(c, Duration::from_millis(20)).unwrap() {
                    got.push(t.value.as_int().unwrap());
                }
                got
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn pills_and_flush_survive_the_wire() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        q.push(QueueItem::Pill).unwrap();
        q.push(QueueItem::Flush).unwrap();
        assert_eq!(
            q.pop(0, Duration::from_millis(20)).unwrap(),
            Some(QueueItem::Pill)
        );
        assert_eq!(
            q.pop(0, Duration::from_millis(20)).unwrap(),
            Some(QueueItem::Flush)
        );
    }

    #[test]
    fn idle_times_cover_all_consumers() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 3).unwrap();
        q.push(task(1)).unwrap();
        q.pop(1, Duration::from_millis(20)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let idles = q.idle_times().unwrap();
        assert_eq!(idles.len(), 3);
        assert!(idles[1] < idles[0], "consumer 1 just popped; 0 never did");
        assert!(idles[2] >= Duration::from_millis(10));
    }

    #[test]
    fn reliable_mode_redelivers_unacked_tasks() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new_reliable(&backend, "q", 2, Duration::from_millis(30)).unwrap();
        q.push(task(99)).unwrap();
        // Consumer 0 pops and then "stalls" (never pops again → never acks).
        let first = q.pop(0, Duration::from_millis(20)).unwrap();
        assert_eq!(first, Some(task(99)));
        std::thread::sleep(Duration::from_millis(50));
        // Consumer 1 rescues the stale pending entry via XAUTOCLAIM.
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(rescued, Some(task(99)), "stalled task must be re-delivered");
    }

    #[test]
    fn reliable_mode_acks_on_next_pop() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new_reliable(&backend, "q", 2, Duration::from_millis(30)).unwrap();
        q.push(task(1)).unwrap();
        q.push(task(2)).unwrap();
        // Consumer 0 pops both: the second pop acknowledges the first.
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(1)));
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(2)));
        std::thread::sleep(Duration::from_millis(50));
        // Only task 2 is still pending (unacked); task 1 must NOT reappear.
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(rescued, Some(task(2)));
        assert_eq!(q.pop(1, Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn reliable_mode_completes_a_dynamic_workflow() {
        // End-to-end: the reliable queue drives the engine unchanged.
        use d4py_core::executable::Executable;
        use d4py_core::mappings::engine::{self, RunPlan};
        use d4py_core::options::ExecutionOptions;
        use d4py_core::pe::{Context, CountingSink, FnSource};
        use d4py_graph::{Grouping, PeSpec, WorkflowGraph};

        let mut g = WorkflowGraph::new("t");
        let a = g.add_pe(PeSpec::source("a", "out"));
        let b = g.add_pe(PeSpec::sink("b", "in"));
        g.connect(a, "out", b, "in", Grouping::Shuffle).unwrap();
        let (_, count) = CountingSink::new();
        let n = count.clone();
        let mut exe = Executable::new(g).unwrap();
        exe.register(a, || {
            Box::new(FnSource(|ctx: &mut dyn Context| {
                for i in 0..25 {
                    ctx.emit("out", Value::Int(i));
                }
            }))
        });
        exe.register(b, move || Box::new(CountingSink::into_handle(n.clone())));
        let exe = exe.seal().unwrap();

        let backend = RedisBackend::in_proc();
        let queues = |name: &str, consumers: usize| -> Result<Arc<dyn TaskQueue>, CoreError> {
            let q = RedisQueue::new_reliable(&backend, name, consumers, Duration::from_secs(5))?;
            Ok(Arc::new(q))
        };
        engine::run(
            &exe,
            &ExecutionOptions::new(3),
            &RunPlan::new("dyn_redis_reliable", &queues),
        )
        .unwrap();
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 25);
    }

    /// Connection wrapper that fails requests whose verb matches `verb`
    /// while `remaining` holds charges. Routed in below the queue via
    /// [`RedisBackend::custom`].
    struct Flaky {
        inner: Box<dyn Connection>,
        verb: &'static [u8],
        remaining: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Connection for Flaky {
        fn request(&mut self, args: &[&[u8]]) -> Result<redis_lite::resp::Frame, ClientError> {
            let matches = args
                .first()
                .is_some_and(|v| v.eq_ignore_ascii_case(self.verb));
            if matches
                && self
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
            {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected fault",
                )));
            }
            self.inner.request(args)
        }
    }

    /// An in-proc backend whose connections fail `verb` while the returned
    /// counter holds charges (0 = healthy).
    fn flaky_backend(verb: &'static [u8]) -> (RedisBackend, Arc<std::sync::atomic::AtomicUsize>) {
        let shared = Arc::new(redis_lite::engine::Shared::new());
        let charges = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let c = charges.clone();
        let backend = RedisBackend::custom(move || {
            Ok(Box::new(Flaky {
                inner: Box::new(redis_lite::client::InProcClient::new(shared.clone())),
                verb,
                remaining: c.clone(),
            }))
        });
        (backend, charges)
    }

    #[test]
    fn failed_ack_keeps_the_id_and_never_double_delivers() {
        // Regression: the ack path `take()`d the unacked id before XACK —
        // on error the id vanished from tracking while the entry stayed in
        // the PEL, so a later XAUTOCLAIM re-delivered an already-processed
        // task. The id must survive a failed ack and be acked on the next
        // successful pop.
        let (backend, charges) = flaky_backend(b"XACK");
        let reclaim = Duration::from_millis(30);
        let q = RedisQueue::new_reliable(&backend, "q", 2, reclaim).unwrap();
        q.push(task(1)).unwrap();
        q.push(task(2)).unwrap();
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(1)));

        // The next pop's folded XACK fails at the wire.
        charges.store(1, Ordering::SeqCst);
        assert!(q.pop(0, Duration::from_millis(20)).is_err());

        // Retry after the fault clears: task 1's ack lands, task 2 arrives.
        assert_eq!(q.pop(0, Duration::from_millis(20)).unwrap(), Some(task(2)));

        // Let anything still pending cross the reclaim threshold: task 1
        // must NOT resurface on the other consumer (only task 2 may, since
        // it is legitimately unacked).
        std::thread::sleep(reclaim + Duration::from_millis(20));
        let rescued = q.pop(1, Duration::from_millis(20)).unwrap();
        assert_eq!(
            rescued,
            Some(task(2)),
            "task 1 must stay acked; only the genuinely-unacked task 2 may redeliver"
        );
        assert_eq!(q.pop(1, Duration::from_millis(20)).unwrap(), None);
    }

    #[test]
    fn depth_holds_last_observation_across_backend_errors() {
        // Regression: depth() mapped every error to 0 — a dead shard read
        // as an empty queue, inviting the autoscaler to scale down
        // mid-outage.
        let (backend, charges) = flaky_backend(b"XLEN");
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        for i in 0..3 {
            q.push(task(i)).unwrap();
        }
        assert_eq!(q.depth(), 3);
        // Backend goes dark: depth must hold 3, not report empty.
        charges.store(usize::MAX, Ordering::SeqCst);
        assert_eq!(q.depth(), 3, "dead backend must not read as empty");
        charges.store(0, Ordering::SeqCst);
        assert_eq!(q.depth(), 3, "recovers to live observation");
    }

    #[test]
    fn push_batch_is_one_burst_and_pop_batch_drains_it() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        q.push_batch(None, (0..32).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 32);
        let first = q.pop_batch(0, 20, Duration::from_millis(50)).unwrap();
        assert_eq!(first.len(), 20, "COUNT-bounded batch");
        let rest = q.pop_batch(0, 20, Duration::from_millis(50)).unwrap();
        assert_eq!(rest.len(), 12);
        assert_eq!(q.depth(), 0, "batched XDEL keeps XLEN a live depth");
        let mut all: Vec<i64> = first
            .into_iter()
            .chain(rest)
            .map(|i| match i {
                QueueItem::Task(t) => t.value.as_int().unwrap(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn queue_works_over_a_two_shard_cluster() {
        let s1 = Server::start(0).unwrap();
        let s2 = Server::start(0).unwrap();
        let backend = RedisBackend::cluster(vec![s1.addr(), s2.addr()]);
        let q = RedisQueue::new(&backend, "clusterq", 2).unwrap();
        q.push_batch(None, (0..10).map(task).collect()).unwrap();
        assert_eq!(q.depth(), 10);
        let got = q.pop_batch(0, 10, Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn works_over_real_tcp() {
        let server = Server::start(0).unwrap();
        let backend = RedisBackend::Tcp(server.addr());
        let q = RedisQueue::new(&backend, "q", 2).unwrap();
        let payload = QueueItem::Task(Task::new(
            PeId(3),
            "in",
            Value::map([
                ("station", Value::Str("ST01".into())),
                ("x", Value::Float(1.5)),
            ]),
        ));
        q.push(payload.clone()).unwrap();
        assert_eq!(q.pop(1, Duration::from_millis(100)).unwrap(), Some(payload));
    }

    #[test]
    fn unknown_consumer_index_errors() {
        let backend = RedisBackend::in_proc();
        let q = RedisQueue::new(&backend, "q", 1).unwrap();
        assert!(q.pop(5, Duration::from_millis(5)).is_err());
    }
}
