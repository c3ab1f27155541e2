//! Seismic Cross-Correlation **phase 2**: the stateful correlation stage.
//!
//! The paper's §4.2 describes the full workflow in two phases and evaluates
//! only the stateless phase 1, because "the second phase has a *grouping*
//! mechanism" plain dynamic scheduling cannot run. This module implements
//! that second phase as a stateful workflow — exactly the class of
//! application the hybrid mapping exists for — closing the loop the paper
//! leaves open:
//!
//! ```text
//! readPreprocessed ──▶ pairBuilder (stateful, global) ──▶ xcorr ──▶ topPairs (stateful, global)
//! ```
//!
//! `pairBuilder` keeps every trace seen so far and, on each arrival, emits
//! one pair task per previously seen station (streaming pair generation:
//! n stations → n(n−1)/2 correlations). `xcorr` is stateless and
//! embarrassingly parallel — the hybrid mapping's stateless pool absorbs
//! it. `topPairs` ranks pairs by |r| and reports the strongest couplings.

use crate::config::WorkloadConfig;
use crate::seismic::dsp;
use crate::seismic::waveform::{self, SAMPLE_RATE};
use d4py_core::executable::Executable;
use d4py_core::pe::{Context, FnSource, ProcessingElement};
use d4py_core::value::Value;
use d4py_graph::{Grouping, PeSpec, WorkflowGraph};
use d4py_sync::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Stations per 1X for phase 2 (pairs grow quadratically, so fewer than
/// phase 1's 50).
pub const STATIONS_PER_X: u32 = 16;
/// Correlation search window in samples.
pub const MAX_LAG: usize = 16;
/// Modelled compute time per correlation.
pub const XCORR_COMPUTE: Duration = Duration::from_millis(3);
/// How many top pairs the reducer reports.
pub const TOP_PAIRS: usize = 10;

fn trace_value(station: &str, samples: &[f64]) -> Value {
    Value::map([
        ("station", Value::Str(station.to_string())),
        (
            "samples",
            Value::List(samples.iter().map(|&s| Value::Float(s)).collect()),
        ),
    ])
}

fn samples_of(v: &Value) -> Vec<f64> {
    v.get("samples")
        .and_then(Value::as_list)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_float)
        .collect()
}

/// Runs the phase-1 pipeline on a raw trace (the "read pre-processed data"
/// input of phase 2).
pub fn preprocess(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    dsp::detrend(&mut s);
    dsp::demean(&mut s);
    dsp::bandpass(&mut s, SAMPLE_RATE, 0.3, 3.0);
    let mut s = dsp::decimate(&s, 4);
    s = dsp::whiten(&s, 1e-6);
    dsp::normalize_rms(&mut s);
    s
}

/// `pairBuilder`: stateful pair generator under global grouping.
struct PairBuilder {
    seen: Vec<(String, Vec<f64>)>,
}

impl ProcessingElement for PairBuilder {
    fn process(&mut self, _port: &str, v: Value, ctx: &mut dyn Context) {
        let station = v
            .get("station")
            .and_then(Value::as_str)
            .unwrap_or("UNKNOWN")
            .to_string();
        let samples = samples_of(&v);
        for (other, other_samples) in &self.seen {
            ctx.emit(
                "output",
                Value::map([
                    ("a", trace_value(other, other_samples)),
                    ("b", trace_value(&station, &samples)),
                ]),
            );
        }
        self.seen.push((station, samples));
    }

    /// Externalizes the seen-trace set so a later session pairs its new
    /// stations against this one's (incremental pair generation).
    fn snapshot(&self) -> Option<Value> {
        Some(Value::List(
            self.seen
                .iter()
                .map(|(station, samples)| trace_value(station, samples))
                .collect(),
        ))
    }

    fn restore(&mut self, state: Value) {
        let Value::List(traces) = state else { return };
        for trace in traces {
            let station = trace
                .get("station")
                .and_then(Value::as_str)
                .unwrap_or("UNKNOWN")
                .to_string();
            self.seen.push((station, samples_of(&trace)));
        }
    }
}

/// `xcorr`: stateless per-pair correlation.
struct XCorr {
    cfg: WorkloadConfig,
}

impl ProcessingElement for XCorr {
    fn process(&mut self, _port: &str, pair: Value, ctx: &mut dyn Context) {
        let a = pair.get("a").cloned().unwrap_or(Value::Null);
        let b = pair.get("b").cloned().unwrap_or(Value::Null);
        let sa = samples_of(&a);
        let sb = samples_of(&b);
        let (lag, r) = self.cfg.limiter.with_core(|| {
            // sleep: simulated xcorr compute cost from the paper's workload
            // model; scaled to zero in the fast test configuration.
            std::thread::sleep(self.cfg.scaled(XCORR_COMPUTE));
            dsp::cross_correlation_max_lag(&sa, &sb, MAX_LAG)
        });
        ctx.emit(
            "output",
            Value::map([
                (
                    "pair",
                    Value::Str(format!(
                        "{}×{}",
                        a.get("station").and_then(Value::as_str).unwrap_or("?"),
                        b.get("station").and_then(Value::as_str).unwrap_or("?"),
                    )),
                ),
                ("lag", Value::Int(lag)),
                ("r", Value::Float(r)),
            ]),
        );
    }
}

/// `topPairs`: stateful reducer — keeps the strongest correlations.
struct TopPairs {
    rows: Vec<(String, i64, f64)>,
    results: Arc<Mutex<Vec<Value>>>,
}

impl ProcessingElement for TopPairs {
    fn process(&mut self, _port: &str, v: Value, _ctx: &mut dyn Context) {
        self.rows.push((
            v.get("pair")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            v.get("lag").and_then(Value::as_int).unwrap_or(0),
            v.get("r").and_then(Value::as_float).unwrap_or(0.0),
        ));
    }

    fn on_done(&mut self, _ctx: &mut dyn Context) {
        self.rows.sort_by(|x, y| {
            y.2.abs()
                .partial_cmp(&x.2.abs())
                .expect("correlation coefficients are finite")
                .then(x.0.cmp(&y.0))
        });
        let mut out = self.results.lock();
        for (pair, lag, r) in self.rows.iter().take(TOP_PAIRS) {
            out.push(Value::map([
                ("pair", Value::Str(pair.clone())),
                ("lag", Value::Int(*lag)),
                ("r", Value::Float(*r)),
            ]));
        }
    }

    /// Externalizes every scored pair so a warm-started session ranks old
    /// and new correlations together.
    fn snapshot(&self) -> Option<Value> {
        Some(Value::List(
            self.rows
                .iter()
                .map(|(pair, lag, r)| {
                    Value::map([
                        ("pair", Value::Str(pair.clone())),
                        ("lag", Value::Int(*lag)),
                        ("r", Value::Float(*r)),
                    ])
                })
                .collect(),
        ))
    }

    fn restore(&mut self, state: Value) {
        let Value::List(rows) = state else { return };
        for row in rows {
            self.rows.push((
                row.get("pair")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                row.get("lag").and_then(Value::as_int).unwrap_or(0),
                row.get("r").and_then(Value::as_float).unwrap_or(0.0),
            ));
        }
    }
}

/// Builds the phase-2 workflow. Returns the executable, the handle the
/// reducer writes the top pairs into, and the number of pairs expected.
pub fn build(cfg: &WorkloadConfig) -> (Executable, Arc<Mutex<Vec<Value>>>, usize) {
    let n = cfg.scale * STATIONS_PER_X;
    let expected_pairs = (n as usize * (n as usize - 1)) / 2;

    let mut g = WorkflowGraph::new("seismic_cross_correlation_phase2");
    let read = g.add_pe(PeSpec::source("readPreprocessed", "output"));
    let pairs = g.add_pe(PeSpec::transform("pairBuilder", "input", "output").stateful());
    let xcorr = g.add_pe(PeSpec::transform("xcorr", "input", "output"));
    let top = g.add_pe(PeSpec::sink("topPairs", "input").stateful());
    g.connect(read, "output", pairs, "input", Grouping::Global)
        .expect("ports declared on the PeSpecs above");
    g.connect(pairs, "output", xcorr, "input", Grouping::Shuffle)
        .expect("ports declared on the PeSpecs above");
    g.connect(xcorr, "output", top, "input", Grouping::Global)
        .expect("ports declared on the PeSpecs above");

    let results = Arc::new(Mutex::new(Vec::new()));
    let mut exe = Executable::new(g).expect("phase2 graph is valid");
    let seed = cfg.seed;
    exe.register(read, move || {
        Box::new(FnSource(move |ctx: &mut dyn Context| {
            for trace in waveform::generate(n, seed) {
                let processed = preprocess(&trace.samples);
                ctx.emit("output", trace_value(&trace.station, &processed));
            }
        }))
    });
    exe.register(pairs, || Box::new(PairBuilder { seen: Vec::new() }));
    let c = cfg.clone();
    exe.register(xcorr, move || Box::new(XCorr { cfg: c.clone() }));
    let res = results.clone();
    exe.register(top, move || {
        Box::new(TopPairs {
            rows: Vec::new(),
            results: res.clone(),
        })
    });

    (
        exe.seal().expect("all phase2 PEs registered"),
        results,
        expected_pairs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use d4py_core::mapping::Mapping;
    use d4py_core::mappings::{HybridMulti, Simple};
    use d4py_core::options::ExecutionOptions;

    fn fast_cfg() -> WorkloadConfig {
        WorkloadConfig::standard().with_time_scale(0.0)
    }

    #[test]
    fn pair_count_is_n_choose_2() {
        let (_, _, expected) = build(&fast_cfg());
        assert_eq!(expected, 16 * 15 / 2);
    }

    #[test]
    fn simple_run_reports_top_pairs() {
        let (exe, results, _) = build(&fast_cfg());
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let got = results.lock();
        assert_eq!(got.len(), TOP_PAIRS);
        // Sorted by |r| descending.
        let rs: Vec<f64> = got
            .iter()
            .map(|v| v.get("r").unwrap().as_float().unwrap().abs())
            .collect();
        assert!(rs.windows(2).all(|w| w[0] >= w[1]), "{rs:?}");
        // Correlations are valid coefficients.
        assert!(rs.iter().all(|r| (0.0..=1.0 + 1e-9).contains(r)));
    }

    #[test]
    fn hybrid_matches_simple() {
        let (exe, r1, _) = build(&fast_cfg());
        Simple.execute(&exe, &ExecutionOptions::new(1)).unwrap();
        let (exe, r2, _) = build(&fast_cfg());
        HybridMulti
            .execute(&exe, &ExecutionOptions::new(4))
            .expect("ports declared on the PeSpecs above");
        let pairs = |h: &Arc<Mutex<Vec<Value>>>| {
            h.lock()
                .iter()
                .map(|v| v.get("pair").unwrap().as_str().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(&r1), pairs(&r2));
    }

    #[test]
    fn dynamic_mapping_rejects_phase2() {
        use d4py_core::mappings::DynMulti;
        let (exe, _, _) = build(&fast_cfg());
        // The paper's point: plain dynamic scheduling cannot run phase 2.
        assert!(DynMulti.execute(&exe, &ExecutionOptions::new(4)).is_err());
    }

    #[test]
    fn warm_start_pairs_new_stations_against_previous_session() {
        use d4py_core::mappings::engine::{self, RunPlan};
        use d4py_core::mappings::hybrid::ChannelQueueFactory;
        use d4py_core::state::MemoryStateStore;

        let store = MemoryStateStore::new();
        let opts = ExecutionOptions::new(4);
        let run_with_state = |exe: &Executable| {
            let plan = RunPlan {
                state: Some(store.clone()),
                ..RunPlan::new("hybrid_multi", &ChannelQueueFactory)
            };
            engine::run(exe, &opts, &plan)
        };

        // Session 1: 16 stations → C(16,2) pairs, state externalized.
        let (exe, _, pairs1) = build(&fast_cfg());
        let r1 = run_with_state(&exe).expect("ports declared on the PeSpecs above");
        assert_eq!(r1.tasks_executed, 1 + 16 + 2 * pairs1 as u64);
        assert!(r1.warnings.is_empty(), "{:?}", r1.warnings);

        // Session 2: 16 *different* stations, warm-started. pairBuilder
        // restores the 16 previous traces, so each new station pairs with
        // 16 old + previously-arrived new ones: C(32,2) − C(16,2) fresh
        // pairs this session.
        let (exe, _, _) = build(&fast_cfg().with_seed(99));
        let r2 = run_with_state(&exe).expect("ports declared on the PeSpecs above");
        let fresh_pairs = (32 * 31) / 2 - pairs1 as u64;
        assert_eq!(r2.tasks_executed, 1 + 16 + 2 * fresh_pairs);
    }

    #[test]
    fn hybrid_processes_every_pair() {
        let (exe, _, expected) = build(&fast_cfg());
        let report = HybridMulti
            .execute(&exe, &ExecutionOptions::new(4))
            .expect("ports declared on the PeSpecs above");
        // kickoff + 16 traces into pairBuilder + pairs into xcorr + pairs
        // into topPairs.
        let expected_tasks = 1 + 16 + 2 * expected as u64;
        assert_eq!(report.tasks_executed, expected_tasks);
    }
}
