//! # d4py-sync — the hermetic std-only substrate
//!
//! Everything the workspace previously pulled from crates.io, rewritten
//! in-repo over `std` so the whole system builds, tests, and benchmarks on
//! an air-gapped machine — and so the scheduling substrate of the paper's
//! Figure 2 (the instrumented global queue and its monitoring signals) is
//! code we own and can profile at every layer:
//!
//! * [`segqueue`] — a segmented lock-free MPMC queue (the moral
//!   equivalent of `crossbeam::queue::SegQueue`): fixed-size blocks in a
//!   linked list, atomic head/tail cursors, per-slot state flags;
//! * [`channel`] — an MPMC channel with `recv_timeout` (replaces
//!   `crossbeam::channel`), built on [`segqueue`] so uncontended send/recv
//!   takes no lock, with a live lock-free depth counter;
//! * [`steal`] — a per-worker work-stealing queue set over [`segqueue`]
//!   locals plus a shared injector, with seeded-PCG32 victim selection
//!   and the channel's park protocol — the dispatch topology that breaks
//!   the single-global-queue scaling plateau;
//! * [`quiesce`] — an outstanding-work counter whose coordinator blocks
//!   until it reads zero, woken by the last decrement (the engines'
//!   counter-driven termination);
//! * [`Mutex`] / [`Condvar`] / [`RwLock`] — poison-free wrappers over
//!   `std::sync` with the `parking_lot` API shape;
//! * [`buf::ByteBuf`] — a growable byte buffer with `put_*` helpers
//!   (replaces `bytes::BytesMut`) — and [`buf::SharedBuf`], its immutable
//!   refcounted-slice dual (replaces `bytes::Bytes`), the zero-copy
//!   carrier for RESP payloads end to end;
//! * [`crc`] — CRC-32 (IEEE) with a compile-time table, the integrity
//!   primitive for the versioned snapshot frames;
//! * [`rng`] — a seedable PCG32 generator with `gen`/`gen_range`
//!   (replaces `rand::StdRng`);
//! * [`prop`] — a minimal seeded property-testing runner (replaces the
//!   `proptest` surface the test suite uses);
//! * [`bench`] — a plain-`std` timing harness (replaces `criterion` for
//!   the micro-benchmarks);
//! * [`stats`] — distribution summaries for the harness: MAD outlier
//!   rejection, sample stddev, seeded-bootstrap confidence intervals;
//! * [`report`] — the versioned `BENCH_<name>.json` result format
//!   (hand-rolled writer + parser; the workspace stays serde-free) that
//!   the `bench-compare` regression gate consumes;
//! * [`model`] — a deterministic loom-style concurrency model checker;
//!   `--cfg d4py_model` builds swap [`segqueue`]/[`channel`]/[`quiesce`] onto its
//!   instrumented shims (see `facade`) so the exact shipped source is
//!   explored across thread interleavings.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod bench;
pub mod buf;
pub mod channel;
pub mod crc;
mod facade;
pub mod model;
pub mod prop;
pub mod quiesce;
pub mod report;
pub mod rng;
pub mod segqueue;
pub mod stats;
pub mod steal;
mod sync;

pub use buf::{ByteBuf, SharedBuf};
pub use sync::{Condvar, Mutex, MutexGuard, RwLock, WaitTimeoutResult};
