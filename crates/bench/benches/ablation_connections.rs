//! Connection-scaling ablation: reactor vs thread-per-connection.
//!
//! N concurrent clients each drive unpipelined PING round-trips against a
//! fresh server in each [`ServerMode`], so the cost under measurement is the
//! per-connection machinery itself — OS threads, stacks, and wakeups for the
//! baseline vs swept nonblocking state machines for the reactor. The full
//! run sweeps 64 / 256 / 1024 clients; the committed baseline
//! (`bench/baselines/BENCH_connections.json`) is what `bench-compare` gates
//! against in CI.
//!
//! * `D4PY_BENCH_QUICK=1` — small smoke matrix, tagged non-gateable.
//! * `D4PY_BENCH_HANDICAP=<f>` — divide throughput (gate self-tests only).
//! * `D4PY_CONN_OPS` / `D4PY_CONN_REPS` — override the op and rep counts;
//!   the nightly soak uses these to hold 1024 connections under load far
//!   longer than the per-PR path ever runs.

use d4py_bench::connscale::{mode_slug, run_matrix, ConnScaleOpts};
use d4py_sync::stats::Summary;
use dispel4py::redis_lite::server::ServerMode;

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
    let env_usize = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)
    };
    let mut opts = if quick {
        ConnScaleOpts {
            counts: vec![16, 64],
            ops_total: 2_048,
            reps: 2,
            smoke: true,
            handicap,
        }
    } else {
        ConnScaleOpts {
            counts: vec![64, 256, 1024],
            ops_total: 49_152,
            reps: 11,
            smoke: false,
            handicap,
        }
    };
    if let Some(ops) = env_usize("D4PY_CONN_OPS") {
        opts.ops_total = ops;
    }
    if let Some(reps) = env_usize("D4PY_CONN_REPS") {
        opts.reps = reps;
    }

    println!("== ablation_connections: reactor vs thread-per-connection ==");
    println!(
        "   ({} unpipelined round-trips split across N clients, {} reps)\n",
        opts.ops_total, opts.reps
    );
    if handicap != 1.0 {
        println!("   !! D4PY_BENCH_HANDICAP={handicap} — throughput divided for gate testing\n");
    }

    let report = run_matrix(&opts);

    print!("{:>14}", "mode \\ clients");
    for &c in &opts.counts {
        print!("  {:>18}", format!("c{c} (median ±σ)"));
    }
    println!();
    for mode in [ServerMode::ThreadPerConn, ServerMode::Reactor] {
        print!("{:>14}", mode_slug(mode));
        for &c in &opts.counts {
            let id = format!("connections/{}/c{c}", mode_slug(mode));
            let e = report
                .benches
                .iter()
                .find(|b| b.id == id)
                .expect("one entry per cell");
            let fmt = |s: &Summary| format!("{} ±{}", fmt_rate(s.median), fmt_rate(s.stddev));
            print!("  {:>18}", fmt(&e.summary));
        }
        println!();
    }

    // The paper-claim check: reactor vs thread CIs per client count.
    println!("\nreactor vs thread (95% bootstrap CI of the median):");
    for &c in &opts.counts {
        let find = |m: ServerMode| {
            report
                .benches
                .iter()
                .find(|b| b.id == format!("connections/{}/c{c}", mode_slug(m)))
                .expect("cell present")
        };
        let (r, t) = (find(ServerMode::Reactor), find(ServerMode::ThreadPerConn));
        let disjoint = r.summary.ci_lo > t.summary.ci_hi;
        println!(
            "  c{c}: reactor [{} .. {}] vs thread [{} .. {}] -> {}",
            fmt_rate(r.summary.ci_lo),
            fmt_rate(r.summary.ci_hi),
            fmt_rate(t.summary.ci_lo),
            fmt_rate(t.summary.ci_hi),
            if disjoint {
                "reactor ahead, CIs disjoint"
            } else {
                "CIs overlap"
            },
        );
    }

    let out = d4py_sync::bench::out_dir().join("BENCH_connections.json");
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
