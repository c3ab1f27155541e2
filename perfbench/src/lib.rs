//! # d4py-perfbench — the end-to-end benchmark of dispel4py-rs
//!
//! Three workloads run against the public `Mapping::execute` API, each
//! checked against a `simple`-mapping reference: `small-jobs` (a zero-work
//! chain under `dyn_auto_redis`), `galaxy-bursty` (the galaxy workflow with
//! bursty arrivals under `dyn_auto_multi`) and `sentiment-redis` (the
//! stateful sentiment workflow under `hybrid_redis`). A traced run
//! measures each layer from outside: PEs behind timing wrappers
//! ([`probe`]), Redis traffic through a counting relay ([`relay`]), and
//! `RunReport` fields. See `README.md` beside this crate.

pub mod chain;
pub mod metrics;
pub mod oracle;
pub mod probe;
pub mod relay;
pub mod stats;
pub mod workload;

/// Every PE of every workload, in workload order: the names
/// `pe.<name>.busy_s` and `pe.<name>.calls` are reported under.
pub const PE_NAMES: [&str; 14] = [
    "chainSource",
    "chainTransform",
    "chainSink",
    "readRaDec",
    "getVOTable",
    "filterColumns",
    "internalExtinction",
    "readArticles",
    "sentimentAFINN",
    "tokenizeWD",
    "sentimentSWN3",
    "findState",
    "happyState",
    "top3Happiest",
];

/// The seed later performance claims must also hold on, besides the
/// seeds they were developed against.
pub const HELD_OUT_SEED: u64 = 20231112;
