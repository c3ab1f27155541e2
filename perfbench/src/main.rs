//! The benchmark command.
//!
//! ```text
//! perfbench --workload <small-jobs|galaxy-bursty|sentiment-redis>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up repeatedly (the mean is `setup_s`), then
//! executes it back to back for `--seconds`. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it spends half the time untraced
//! and half traced and prints the per-layer metrics. Human-readable lines
//! come first; the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

use d4py_perfbench::metrics::{self, Metric, Summary, TraceContext};
use d4py_perfbench::probe::Scope;
use d4py_perfbench::relay::{Relay, WireStats};
use d4py_perfbench::stats::percentile;
use d4py_perfbench::workload::{Bench, Execution, Workload};
use d4py_perfbench::HELD_OUT_SEED;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run at least; `setup_s` is their mean.
const MIN_SETUPS: usize = 9;
/// Set-ups per run at most.
const MAX_SETUPS: usize = 500;
/// Set-ups repeat, spread evenly, over this window (or until
/// [`MIN_SETUPS`] ran). A set-up takes a few milliseconds of CPU, and on
/// a shared host its speed switches between two levels (1.4–1.7× apart)
/// in episodes of about two seconds; the mean over a window longer than
/// an episode moves with the share of time at each level, where a median
/// would jump between them.
const SETUP_WINDOW: Duration = Duration::from_secs(3);
/// Traced executions per run at least: two, so that counts can be checked
/// for exact repetition.
const MIN_TRACED: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("bad value for --trace: {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Executes back to back until `budget` has passed and at least `min`
/// executions ran, keeping what `keep` makes of each. With a relay, also
/// returns its counts per execution.
fn measure<T>(
    bench: &Bench,
    scope: Scope,
    relay: Option<&Relay>,
    budget: Duration,
    min: usize,
    keep: impl Fn(Execution) -> T,
) -> (Vec<T>, Vec<WireStats>) {
    let start = Instant::now();
    let (mut runs, mut wire) = (Vec::new(), Vec::new());
    while runs.len() < min || start.elapsed() < budget {
        if let Some(r) = relay {
            r.take();
        }
        runs.push(keep(bench.execute(scope, relay.map(Relay::addr))));
        if let Some(r) = relay {
            wire.push(r.take());
        }
    }
    (runs, wire)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, runs: &[Summary], metrics: &[Metric]) {
    let failed = runs.iter().filter(|e| e.failure.is_some()).count();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && failed == 0,
        runs.len(),
        failed,
        body.join(", ")
    );
}

/// Prints every failed execution and `failed_ratio`: errored
/// plus mismatched executions plus failed tasks plus dropped emissions,
/// over executions attempted.
fn print_failures(runs: &[Summary]) {
    for (i, e) in runs.iter().enumerate() {
        if let Some(why) = &e.failure {
            println!("# execution {i} FAILED: {why}");
        }
    }
    let failures: u64 = runs.iter().map(|e| e.failures).sum();
    println!(
        "failed_ratio {} ratio  ({failures} failures / {} executions)",
        failures as f64 / runs.len().max(1) as f64,
        runs.len()
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut bench = None;
    let slot = SETUP_WINDOW / MAX_SETUPS as u32;
    let start = Instant::now();
    while setups.len() < MIN_SETUPS || (setups.len() < MAX_SETUPS && start.elapsed() < SETUP_WINDOW)
    {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(Bench::setup(w, args.seed)?);
        let took = t.elapsed();
        setups.push(took);
        // sleep: spreads quick set-ups over the whole window.
        std::thread::sleep(slot.saturating_sub(took));
    }
    let bench = bench.expect("MIN_SETUPS is at least one");
    println!(
        "# workload={} seed={} workers={} trace={} seconds={} cores={} held-out-seed={} set-ups={}",
        w.name(),
        args.seed,
        w.workers(),
        u8::from(args.trace),
        args.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        HELD_OUT_SEED,
        setups.len(),
    );
    let setup_secs: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    println!(
        "# set-up p10/p50/p90: {:.6} / {:.6} / {:.6} s",
        percentile(&setup_secs, 0.1),
        percentile(&setup_secs, 0.5),
        percentile(&setup_secs, 0.9)
    );
    println!(
        "# simple reference run: {:.6} s; workflow build: {:.6} s",
        bench.simple_runtime.as_secs_f64(),
        bench.build_time.as_secs_f64()
    );
    let budget = Duration::from_secs(args.seconds);
    let summarize = |e: Execution| Summary::of(&bench, &e);

    if !args.trace {
        let (runs, _) = measure(&bench, Scope::Edges, None, budget, 1, summarize);
        let metrics = metrics::end_to_end(&runs, &setups);
        println!("# {} untraced executions", runs.len());
        print_metrics(&metrics);
        print_metrics(&metrics::end_to_end_tails(&runs));
        print_failures(&runs);
        print_result(true, &runs, &metrics);
        return Ok(());
    }

    let (untraced, _) = measure(&bench, Scope::Edges, None, budget / 2, 1, summarize);
    let relay = bench
        .redis_addr()
        .map(Relay::start)
        .transpose()
        .map_err(|e| format!("relay did not start: {e}"))?;
    let (traced, wire) = measure(
        &bench,
        Scope::Full,
        relay.as_ref(),
        budget / 2,
        MIN_TRACED,
        |e| e,
    );
    drop(relay);
    let cx = TraceContext {
        bench: &bench,
        untraced: &untraced,
        wire: &wire,
    };
    let mut metrics = metrics::end_to_end_tails(&untraced);
    metrics.extend(metrics::per_layer(&cx, &traced));
    println!(
        "# {} untraced and {} traced executions",
        untraced.len(),
        traced.len()
    );
    print_metrics(&metrics);

    println!("# per-PE: name calls busy_s emits bytes");
    for l in traced[0].probe.pes() {
        println!(
            "#   {:<20} {:>7} {:>10.6} {:>7} {:>9}",
            l.name,
            l.calls(),
            l.busy_ns() as f64 / 1e9,
            l.emits(),
            l.bytes()
        );
    }
    if let Some(first) = wire.first() {
        println!(
            "# redis verbs (first traced execution): {:?}",
            first.per_verb
        );
    }

    let mut identities_hold = true;
    for (i, e) in traced.iter().enumerate() {
        if let Err(why) = metrics::check_identities(e) {
            identities_hold = false;
            println!("# ledger identity FAILED on traced execution {i}: {why}");
        }
    }
    println!(
        "# ledger identities (pe.calls == engine.tasks; pe.busy_s + engine.overhead_s == process_s; \
         engine.head_ms + engine.tail_ms <= runtime): {}",
        if identities_hold { "hold" } else { "FAIL" }
    );
    let counts: Vec<_> = traced.iter().map(metrics::counts).collect();
    let repeats = |f: fn(&metrics::Counts) -> u64| counts.iter().all(|c| f(c) == f(&counts[0]));
    println!(
        "# counts repeating exactly across {} traced executions: pe.calls={} pe.emits={} pe.bytes={} engine.tasks={}",
        counts.len(),
        repeats(|c| c.pe_calls),
        repeats(|c| c.pe_emits),
        repeats(|c| c.pe_bytes),
        repeats(|c| c.engine_tasks),
    );

    let mut all = untraced;
    all.extend(traced.iter().map(|e| Summary::of(&bench, e)));
    print_failures(&all);
    print_result(identities_hold, &all, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <small-jobs|galaxy-bursty|sentiment-redis> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
