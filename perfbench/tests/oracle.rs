//! The output oracle flags wrong outputs, and seeds behave as documented.

use d4py_core::mapping::Mapping;
use d4py_core::mappings::Simple;
use d4py_core::options::ExecutionOptions;
use d4py_perfbench::chain;
use d4py_perfbench::metrics::check_identities;
use d4py_perfbench::oracle::Output;
use d4py_perfbench::probe::Scope;
use d4py_perfbench::workload::{Bench, Built, Workload};
use d4py_workflows::{astro, sentiment};

#[test]
fn a_corrupted_output_is_flagged_as_a_failed_execution() {
    let mut bench = Bench::setup(Workload::SmallJobs, 5).unwrap();
    let good = bench.execute(Scope::Edges, None);
    assert!(!good.failed(), "{:?}", good.failure());
    // Corrupt the output's counterpart: the workflow's true output now
    // disagrees with what the oracle expects.
    let Output::Chain {
        count,
        id_sum,
        x_sum,
    } = bench.reference.clone()
    else {
        panic!("chain reference expected");
    };
    bench.reference = Output::Chain {
        count,
        id_sum,
        x_sum: x_sum + 1,
    };
    let bad = bench.execute(Scope::Edges, None);
    assert!(bad.failed());
    assert!(bad.failure().unwrap().contains("differs from reference"));
}

#[test]
fn galaxy_outputs_do_not_depend_on_time_scale() {
    // The galaxy reference runs at time_scale 0; the timed runs at 0.5.
    let w = Workload::GalaxyBursty;
    let run = |cfg: d4py_workflows::WorkloadConfig| {
        let built = Built::new(w, &cfg.with_scale(1));
        Simple
            .execute(&built.exe, &ExecutionOptions::new(1))
            .unwrap();
        built.take_output()
    };
    let paced = run(w.config(11));
    let unpaced = run(w.reference_config(11));
    assert_eq!(paced.check(&unpaced), Ok(()));
    let Output::Extinction(rows) = &paced else {
        panic!("extinction output expected");
    };
    assert_eq!(rows.len(), astro::GALAXIES_PER_X as usize);
}

#[test]
fn sentiment_outputs_do_not_depend_on_time_scale() {
    // The sentiment reference runs at time_scale 0; the timed runs at 0.25.
    let w = Workload::SentimentRedis;
    let run = |cfg: d4py_workflows::WorkloadConfig| {
        let built = Built::new(w, &cfg.with_scale(1));
        Simple
            .execute(&built.exe, &ExecutionOptions::new(1))
            .unwrap();
        built.take_output()
    };
    let paced = run(w.config(11));
    let unpaced = run(w.reference_config(11));
    assert_eq!(paced.check(&unpaced), Ok(()));
    let Output::Top3(rows) = &paced else {
        panic!("top-3 output expected");
    };
    assert_eq!(rows.len(), 3);
}

#[test]
fn two_seeds_give_different_inputs() {
    assert_ne!(chain::payloads(1), chain::payloads(2));
    let ids = |seed| {
        astro::catalog::generate(10, seed)
            .into_iter()
            .map(|g| (g.ra.to_bits(), g.dec.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_ne!(ids(1), ids(2));
    let texts = |seed| {
        sentiment::corpus::generate(10, seed)
            .into_iter()
            .map(|a| a.text)
            .collect::<Vec<_>>()
    };
    assert_ne!(texts(1), texts(2));
    for w in [Workload::SmallJobs, Workload::SentimentRedis] {
        let a = Bench::setup(w, 1).unwrap().reference;
        let b = Bench::setup(w, 2).unwrap().reference;
        assert_ne!(a, b, "{}", w.name());
    }
}

#[test]
fn one_seed_gives_identical_outputs() {
    for w in [Workload::SmallJobs, Workload::SentimentRedis] {
        let a = Bench::setup(w, 9).unwrap();
        let b = Bench::setup(w, 9).unwrap();
        assert_eq!(a.reference, b.reference, "{}", w.name());
        let e = a.execute(Scope::Full, None);
        assert_eq!(e.output.check(&b.reference), Ok(()), "{}", w.name());
        assert_eq!(check_identities(&e), Ok(()), "{}", w.name());
    }
}
