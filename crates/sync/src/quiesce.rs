//! Counter-driven quiescence: an outstanding-work counter whose
//! coordinator sleeps until the counter reads zero.
//!
//! Producers count new work *before* publishing it ([`Quiescence::add`])
//! and retire it only after everything it spawned has been counted
//! ([`Quiescence::done`]). Under that discipline the counter can read zero
//! only when no work exists anywhere, so zero is a proof of quiescence,
//! not a heuristic. The thread whose decrement takes the counter to zero
//! wakes the coordinator blocked in [`Quiescence::wait`]; a failing
//! producer that will never retire its work calls [`Quiescence::abort`]
//! instead.
//!
//! The wakeup is taken under the same lock the waiter checks the counter
//! under, so a decrement landing between the waiter's check and its wait
//! cannot be lost. Written against the sync facade, so `--cfg d4py_model`
//! builds model-check this exact source (`tests/model.rs`).

use crate::facade::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

/// An outstanding-work counter with a blocking wait for zero.
pub struct Quiescence {
    outstanding: AtomicUsize,
    aborted: AtomicBool,
    lock: Mutex<()>,
    zero: Condvar,
}

impl Default for Quiescence {
    fn default() -> Self {
        Self::new()
    }
}

impl Quiescence {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self {
            outstanding: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            lock: Mutex::new(()),
            zero: Condvar::new(),
        }
    }

    /// Counts `n` new units of work. Call before the work is published.
    pub fn add(&self, n: usize) {
        self.outstanding.fetch_add(n, Ordering::SeqCst);
    }

    /// Retires one unit of work, after everything it spawned was counted.
    /// Saturating: an at-least-once transport may deliver a unit twice,
    /// and the second retirement must not wrap the counter. Returns true
    /// when this call took the counter to zero (and woke the waiter).
    pub fn done(&self) -> bool {
        let mut current = self.outstanding.load(Ordering::SeqCst);
        loop {
            if current == 0 {
                return false;
            }
            match self.outstanding.compare_exchange(
                current,
                current - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => current = now,
            }
        }
        if current == 1 {
            self.wake();
        }
        current == 1
    }

    /// Gives up on quiescence: the waiter returns `false` at once. For a
    /// producer that fails and will never retire its outstanding work.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Blocks until the counter reads zero (returns `true`) or
    /// [`abort`](Self::abort) was called (returns `false`).
    pub fn wait(&self) -> bool {
        let mut guard = self.lock.lock();
        loop {
            if self.outstanding.load(Ordering::SeqCst) == 0 {
                return true;
            }
            // Between the check above and the wait below, a decrement to
            // zero can only notify once the wait has released the lock.
            if self.aborted.load(Ordering::SeqCst) {
                return false;
            }
            self.zero.wait(&mut guard);
        }
    }

    fn wake(&self) {
        // Injected bug for the model checker: notifying without the lock
        // lets the wakeup land between the waiter's check and its wait.
        #[cfg(d4py_model)]
        let locked = !crate::model::fault("quiesce-notify-unlocked");
        #[cfg(not(d4py_model))]
        let locked = true;
        let _guard = locked.then(|| self.lock.lock());
        self.zero.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_counter_is_quiescent() {
        assert!(Quiescence::new().wait());
    }

    #[test]
    fn done_saturates_and_reports_the_last_decrement() {
        let q = Quiescence::new();
        q.add(2);
        assert!(!q.done());
        assert!(q.done());
        assert!(!q.done(), "a re-delivered unit must not wrap the counter");
        assert!(q.wait(), "the counter is back at zero");
    }

    #[test]
    fn last_decrement_wakes_the_waiter() {
        let q = Arc::new(Quiescence::new());
        q.add(3);
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || {
                for _ in 0..3 {
                    q.done();
                }
            })
        };
        assert!(q.wait());
        worker.join().expect("worker thread");
    }

    #[test]
    fn abort_releases_the_waiter() {
        let q = Arc::new(Quiescence::new());
        q.add(1);
        let aborter = {
            let q = q.clone();
            std::thread::spawn(move || q.abort())
        };
        assert!(!q.wait());
        aborter.join().expect("aborter thread");
    }
}
