//! Ablation: the Redis backend's round-trip cost — unpipelined RESP vs
//! pipelined batches, across 1/2/4 redis-lite shards.
//!
//! The paper's headline overhead is the Redis mapping paying one
//! synchronous round-trip per tuple. This bench isolates exactly that on
//! an XADD-heavy workload (the queue's push path) shaped like a stateful
//! dispel4py pipeline mid-flood: P producer threads burst XADDs into
//! their own stream keys while W worker threads — like dispel4py
//! multiprocessing workers that can execute any PE, so they watch every
//! task queue they might serve — follow *all* producer streams on their
//! own shard with multi-key blocking `XREAD`s. Keys are salted so
//! producers and workers spread evenly over the cluster's shards. A run
//! is timed end-to-end: from the first XADD until every worker has seen
//! every entry on its shard. Three client modes — one request per XADD
//! (`unpipelined`), and `request_many` bursts of 8 and 32 — crossed with
//! 1/2/4-shard clusters.
//!
//! The pipelined-vs-not spread is the client-side win (one write and one
//! read-burst per batch instead of one syscall pair per command). The
//! shard scaling is the server-side win, and on a small host it is a
//! fan-out effect, not CPU parallelism: each worker's watch set is the
//! streams on its shard, so every entry is re-read by W/shards workers
//! and every XADD's condvar `notify_all` wakes only that shard's blocked
//! readers. Sharding divides both the read amplification and the wakeup
//! herd, so total per-entry work genuinely shrinks as shards grow.
//!
//! Runs as a plain binary (`cargo bench --bench ablation_redis`). Honors
//! `D4PY_BENCH_QUICK=1` for CI smoke runs (JSON tagged `smoke: true`,
//! which `bench-compare` refuses to gate on) and
//! `D4PY_BENCH_HANDICAP=<factor>` (divides throughput; test-only). Per-rep
//! throughput samples are summarized by `d4py_sync::stats` (MAD outlier
//! rejection + bootstrap CI) and persist to
//! `<target>/bench/BENCH_redis_backend.json`, which `bench-compare` gates
//! against the committed `bench/baselines/BENCH_redis_backend.json`.

use d4py_sync::report::{BenchEntry, BenchReport, Better};
use d4py_sync::stats::{summarize, StatsConfig, Summary};
use dispel4py::redis::cluster::key_shard;
use dispel4py::redis::RedisBackend;
use dispel4py::redis_lite::resp::Frame;
use dispel4py::redis_lite::server::Server;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PRODUCERS: usize = 4;
const WORKERS: usize = 16;
const PAYLOAD: &[u8] = b"sixty-four-bytes-of-stream-payload-standing-in-for-a-codec-task";

/// A key under `prefix` that lands on shard `n % shards`, so `n` keys
/// spread round-robin over the cluster.
fn spread_key(prefix: &str, n: usize, shards: usize) -> String {
    (0u32..)
        .map(|salt| format!("{prefix}:{n}:{salt}"))
        .find(|k| key_shard(k.as_bytes(), shards) == n % shards)
        .expect("some salt always hits the target shard")
}

/// Producer `p`'s share of `items`.
fn share_of(p: usize, items: usize) -> usize {
    items / PRODUCERS + usize::from(p < items % PRODUCERS)
}

/// Follows every producer stream on worker `w`'s shard with multi-key
/// blocking XREADs until all `expected` entries have been seen.
fn follow_shard(
    conn: &mut dyn dispel4py::redis_lite::Connection,
    watch: &[String],
    expected: usize,
) {
    let mut ids: Vec<Vec<u8>> = watch.iter().map(|_| b"0-0".to_vec()).collect();
    let mut seen = 0usize;
    let mut idle_rounds = 0usize;
    while seen < expected {
        let mut cmd: Vec<&[u8]> = vec![b"XREAD", b"COUNT", b"64", b"BLOCK", b"1000", b"STREAMS"];
        cmd.extend(watch.iter().map(|k| k.as_bytes()));
        cmd.extend(ids.iter().map(|id| id.as_slice()));
        let reply = conn.request(&cmd).expect("worker xread");
        let Frame::Array(streams) = reply else {
            // Null array: BLOCK timed out with no new entries.
            idle_rounds += 1;
            assert!(
                idle_rounds < 30,
                "worker starved: {seen}/{expected} entries"
            );
            continue;
        };
        idle_rounds = 0;
        for stream in &streams {
            let Frame::Array(kv) = stream else { continue };
            let (Some(Frame::Bulk(key)), Some(Frame::Array(entries))) = (kv.first(), kv.get(1))
            else {
                continue;
            };
            let slot = watch
                .iter()
                .position(|k| k.as_bytes() == key.as_slice())
                .expect("reply for a watched stream");
            for entry in entries {
                let Frame::Array(id_fields) = entry else {
                    continue;
                };
                if let Some(Frame::Bulk(id)) = id_fields.first() {
                    ids[slot] = id.to_vec();
                    seen += 1;
                }
            }
        }
    }
}

/// One timed run: `PRODUCERS` threads each XADD their share of `items`
/// to their own stream, batched `batch` commands per round-trip (1 =
/// unpipelined), while `WORKERS` threads follow all producer streams on
/// their own shard. Returns entries per second wall-clock, timed from
/// the first XADD until every worker has drained its shard.
fn run_once(shards: usize, batch: usize, items: usize) -> f64 {
    let mut servers: Vec<Server> = (0..shards)
        .map(|_| Server::start(0).expect("server"))
        .collect();
    let backend = RedisBackend::cluster(servers.iter().map(|s| s.addr()).collect());

    // Connect the workers up front so dial time stays out of the timed
    // window; XREAD from id 0-0 replays history, so no entry is missed
    // even if a worker issues its first read after the flood begins.
    let ready = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let backend = backend.clone();
            let ready = Arc::clone(&ready);
            let watch: Vec<String> = (0..PRODUCERS)
                .filter(|p| p % shards == w % shards)
                .map(|p| spread_key("rb", p, shards))
                .collect();
            let expected: usize = (0..PRODUCERS)
                .filter(|p| p % shards == w % shards)
                .map(|p| share_of(p, items))
                .sum();
            std::thread::spawn(move || {
                let mut conn = backend.connect().expect("worker connect");
                // relaxed: progress counter polled by the main thread.
                ready.fetch_add(1, Ordering::Relaxed);
                follow_shard(conn.as_mut(), &watch, expected);
            })
        })
        .collect();
    // relaxed: progress counter; see above.
    while ready.load(Ordering::Relaxed) < WORKERS {
        // sleep: wait until every worker has dialed its connections.
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let start = Instant::now();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let backend = backend.clone();
            let key = spread_key("rb", p, shards);
            let share = share_of(p, items);
            std::thread::spawn(move || {
                let mut conn = backend.connect().expect("connect");
                let key = key.as_bytes();
                let mut sent = 0usize;
                while sent < share {
                    let n = batch.min(share - sent);
                    if n == 1 {
                        let reply = conn
                            .request(&[b"XADD", key, b"*", b"task", PAYLOAD])
                            .expect("xadd");
                        assert!(!reply.is_error(), "XADD failed: {reply:?}");
                    } else {
                        let cmd: [&[u8]; 5] = [b"XADD", key, b"*", b"task", PAYLOAD];
                        let cmds: Vec<&[&[u8]]> = (0..n).map(|_| cmd.as_slice()).collect();
                        let replies = conn.request_many(&cmds).expect("pipelined xadd");
                        assert_eq!(replies.len(), n);
                        for reply in &replies {
                            assert!(!reply.is_error(), "XADD failed: {reply:?}");
                        }
                    }
                    sent += n;
                }
            })
        })
        .collect();
    for h in producers {
        h.join().expect("producer");
    }
    for w in workers {
        w.join().expect("worker");
    }
    let rate = items as f64 / start.elapsed().as_secs_f64();

    for s in &mut servers {
        s.shutdown();
    }
    rate
}

fn entry(id: String, s: Vec<f64>) -> BenchEntry {
    let summary = summarize(&s, &StatsConfig::default());
    BenchEntry {
        id,
        unit: "ops/s".into(),
        better: Better::Higher,
        samples: s,
        summary,
        noise_pct: None,
    }
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2} M/s", r / 1e6)
    } else {
        format!("{:.1} k/s", r / 1e3)
    }
}

fn main() {
    let quick = std::env::var("D4PY_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false);
    let handicap = std::env::var("D4PY_BENCH_HANDICAP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|f| f.is_finite() && *f > 0.0)
        .unwrap_or(1.0);
    let (shard_counts, batches, items, reps): (&[usize], &[usize], usize, usize) = if quick {
        (&[1, 2], &[1, 8], 2_000, 2)
    } else {
        (&[1, 2, 4], &[1, 8, 32], 24_000, 13)
    };

    println!("== ablation_redis: pipelined vs unpipelined XADD across shards ==");
    println!(
        "   ({items} XADDs per run, {reps} reps, {PRODUCERS} producers, \
         {WORKERS} shard-following readers)\n"
    );
    if handicap != 1.0 {
        println!("   !! D4PY_BENCH_HANDICAP={handicap} — throughput divided for gate testing\n");
    }

    let mode = |batch: usize| {
        if batch == 1 {
            "unpipelined".to_string()
        } else {
            format!("pipelined-b{batch}")
        }
    };
    // Reps interleave round-robin over all (batch, shards) cells so slow
    // ambient drift lands on every cell instead of biasing whole cells.
    let cells: Vec<(usize, usize)> = batches
        .iter()
        .flat_map(|&b| shard_counts.iter().map(move |&s| (b, s)))
        .collect();
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); cells.len()];
    for _ in 0..reps {
        for (cell, &(batch, shards)) in cells.iter().enumerate() {
            samples[cell].push(run_once(shards, batch, items) / handicap);
        }
    }

    print!("{:>14}", "mode \\ shards");
    for &s in shard_counts {
        print!("  {:>18}", format!("s{s} (median ±σ)"));
    }
    println!();

    let mut report = BenchReport::new("redis_backend", quick);
    let mut taken = samples.into_iter();
    for &batch in batches {
        print!("{:>14}", mode(batch));
        for &shards in shard_counts {
            let e = entry(
                format!("redis_backend/xadd/{}/s{shards}", mode(batch)),
                taken.next().expect("one sample set per cell"),
            );
            let fmt = |s: &Summary| format!("{} ±{}", fmt_rate(s.median), fmt_rate(s.stddev));
            print!("  {:>18}", fmt(&e.summary));
            report.benches.push(e);
        }
        println!();
    }

    let out = d4py_sync::bench::out_dir().join("BENCH_redis_backend.json");
    match report.save(&out) {
        Ok(()) => println!(
            "\nwrote {} ({}{})",
            out.display(),
            if report.smoke {
                "smoke mode — not gateable"
            } else {
                "gateable"
            },
            if handicap != 1.0 { ", handicapped" } else { "" },
        ),
        Err(e) => eprintln!("note: could not persist bench report: {e}"),
    }
}
