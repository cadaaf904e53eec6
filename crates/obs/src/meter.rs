//! Live per-job progress.
//!
//! A [`JobMeter`] is a small lock-free bundle of atomics shared between
//! the thread running a verification job and a concurrent reader (the
//! serve heartbeat thread). It carries only what the job's final report
//! cannot provide while the job is still running: how many obligations
//! exist, how many have finished, and a live conflict count sampled
//! mid-solve. Every counter and layer time of a finished job lives in
//! its report's `aggregate` (`BmcStats`), never here.
//!
//! The meter lives in `aqed-obs` (which everything already depends
//! on) so the scheduler, solver, engine, and server can all share one
//! type without a new dependency edge. All counters are plain relaxed
//! atomics: progress is monitoring, not accounting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    /// The meter mid-solve progress deltas flow into on this thread;
    /// see [`set_thread_meter`].
    static CURRENT_METER: RefCell<Option<Arc<JobMeter>>> = const { RefCell::new(None) };
}

/// Installs `meter` as this thread's live-progress target and returns
/// the previous one. Solver-internal progress samples (which fire
/// mid-solve, long before an obligation completes) reach the job meter
/// through this thread-local — the solver cannot carry a meter
/// reference itself without poisoning `Eq` on its options types.
/// Scheduler worker threads set it for the duration of their loop, and
/// portfolio racer threads inherit their caller's via
/// [`current_thread_meter`].
pub fn set_thread_meter(meter: Option<Arc<JobMeter>>) -> Option<Arc<JobMeter>> {
    CURRENT_METER.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), meter))
}

/// This thread's live-progress target, for handing on to helper
/// threads that solve on the job's behalf.
#[must_use]
pub fn current_thread_meter() -> Option<Arc<JobMeter>> {
    CURRENT_METER.with(|slot| slot.borrow().clone())
}

/// Folds a mid-solve conflict delta into this thread's meter, if one
/// is installed. A cheap no-op otherwise.
pub fn add_live_conflicts(n: u64) {
    if n == 0 {
        return;
    }
    CURRENT_METER.with(|slot| {
        if let Some(m) = &*slot.borrow() {
            m.live_conflicts.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// Shared, lock-free live progress of one verification job.
#[derive(Debug, Default)]
pub struct JobMeter {
    obligations_total: AtomicU64,
    obligations_done: AtomicU64,
    live_conflicts: AtomicU64,
}

impl JobMeter {
    #[must_use]
    pub fn new() -> Self {
        JobMeter::default()
    }

    /// Total obligation count, known once the schedule is built.
    pub fn set_obligations_total(&self, total: u64) {
        self.obligations_total.store(total, Ordering::Relaxed);
    }

    /// One obligation reached a terminal state (solved, cached,
    /// reused, cancelled, or panicked).
    pub fn note_obligation_done(&self) {
        self.obligations_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Conflicts so far — the heartbeat's "is it making progress"
    /// signal. A lower bound on the job's true conflict count: the
    /// solver folds in mid-solve deltas at its coarse progress tick
    /// (only while observability is enabled) and the remainder when each
    /// solve returns, so a solve still in flight between ticks is not
    /// yet counted. The exact total is in the final report's
    /// `aggregate`.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.live_conflicts.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn obligations_done(&self) -> u64 {
        self.obligations_done.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn obligations_total(&self) -> u64 {
        self.obligations_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_conflicts_reach_only_the_installed_meter() {
        let m = Arc::new(JobMeter::new());
        add_live_conflicts(5);
        assert_eq!(m.conflicts(), 0, "no meter installed yet");
        let prev = set_thread_meter(Some(Arc::clone(&m)));
        assert!(prev.is_none());
        add_live_conflicts(7);
        let inherited = current_thread_meter().expect("installed");
        std::thread::spawn(move || {
            set_thread_meter(Some(inherited));
            add_live_conflicts(3);
        })
        .join()
        .unwrap();
        set_thread_meter(None);
        add_live_conflicts(11);
        assert_eq!(m.conflicts(), 10);
    }

    #[test]
    fn obligation_progress_counts_up_to_total() {
        let m = JobMeter::new();
        assert_eq!((m.obligations_done(), m.obligations_total()), (0, 0));
        m.set_obligations_total(4);
        for _ in 0..3 {
            m.note_obligation_done();
        }
        assert_eq!(m.obligations_done(), 3);
        assert_eq!(m.obligations_total(), 4);
    }
}
