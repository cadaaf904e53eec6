//! Resource governance for solve calls: deadlines, effort caps, and
//! cooperative cancellation.
//!
//! A verification service cannot afford a solver that never comes back.
//! This module provides the vocabulary the whole engine stack shares:
//!
//! * [`Budget`] — a plain-data *specification* of limits (wall-clock
//!   timeout, conflict/propagation caps, arena-memory cap). It is `Copy`
//!   and `Eq`, so option structs that embed it stay comparable.
//! * [`ArmedBudget`] — a budget *in flight*: the deadline is resolved to
//!   an absolute instant and a [`StopHandle`] is attached. Armed budgets
//!   are handed to solvers ([`crate::Solver::set_budget`]) and polled at
//!   coarse intervals from the search loop.
//! * [`StopHandle`] — an `Arc<AtomicBool>`-backed cancellation flag.
//!   Handles form a parent chain: a child handle trips when either its
//!   own flag or any ancestor's flag is set, which is how the obligation
//!   scheduler cancels one stuck job (child) or the whole run (root)
//!   without the solver knowing the difference.
//! * [`StopReason`] — why a solve stopped early; surfaces all the way up
//!   to verification reports and the CLI.
//!
//! The solver checks the armed budget only every few dozen search steps
//! (a coarse tick counter), so `Instant::now()` never lands on the hot
//! propagation path.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve call gave up before reaching a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The conflict cap was exhausted.
    Conflicts,
    /// The propagation cap was exhausted.
    Propagations,
    /// The clause-arena memory cap was exceeded.
    Memory,
    /// A [`StopHandle`] requested cancellation.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Deadline => "deadline",
            StopReason::Conflicts => "conflict budget",
            StopReason::Propagations => "propagation budget",
            StopReason::Memory => "memory cap",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// A resource-limit specification. All limits default to unlimited.
///
/// `Budget` is inert data — arm it with [`ArmedBudget::arm`] to start
/// the clock. Effort caps (conflicts, propagations) are measured *per
/// solve call*, not cumulatively, so an incremental session does not
/// starve later frames because earlier ones worked hard.
///
/// # Examples
///
/// ```
/// use aqed_sat::Budget;
/// use std::time::Duration;
///
/// let b = Budget::default()
///     .with_timeout(Duration::from_secs(30))
///     .with_max_conflicts(1_000_000);
/// assert_eq!(b.timeout, Some(Duration::from_secs(30)));
/// assert_eq!(b.max_propagations, None);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Wall-clock limit for the whole governed region.
    pub timeout: Option<Duration>,
    /// Maximum conflicts per solve call.
    pub max_conflicts: Option<u64>,
    /// Maximum propagations per solve call.
    pub max_propagations: Option<u64>,
    /// Maximum clause-arena size in bytes.
    pub max_arena_bytes: Option<u64>,
}

impl Budget {
    /// A budget with no limits (every field `None`).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets the wall-clock limit.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the per-solve conflict cap.
    #[must_use]
    pub fn with_max_conflicts(mut self, max: u64) -> Self {
        self.max_conflicts = Some(max);
        self
    }

    /// Sets the per-solve propagation cap.
    #[must_use]
    pub fn with_max_propagations(mut self, max: u64) -> Self {
        self.max_propagations = Some(max);
        self
    }

    /// Sets the clause-arena memory cap in bytes.
    #[must_use]
    pub fn with_max_arena_bytes(mut self, max: u64) -> Self {
        self.max_arena_bytes = Some(max);
        self
    }

    /// Whether every limit is `None`.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// A cooperative cancellation flag, cheaply cloneable and shareable
/// across threads.
///
/// Handles chain: [`StopHandle::child`] creates a handle that reports
/// [`StopHandle::is_requested`] when either its own flag or any
/// ancestor's flag is set, while [`StopHandle::request_stop`] only sets
/// the handle's own flag. The obligation scheduler uses this to cancel
/// a single stuck job without touching its siblings, and the whole run
/// by tripping the root.
#[derive(Debug, Clone, Default)]
pub struct StopHandle {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<StopHandle>>,
}

impl StopHandle {
    /// Creates a fresh, untripped handle with no parent.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a handle that also trips when `self` (or any of its
    /// ancestors) trips.
    #[must_use]
    pub fn child(&self) -> Self {
        StopHandle {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation of this handle (and, through the parent
    /// chain, everything derived from it via [`StopHandle::child`]).
    pub fn request_stop(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether this handle or any ancestor has been asked to stop.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        match &self.parent {
            Some(p) => p.is_requested(),
            None => false,
        }
    }
}

/// A [`Budget`] in flight: deadline resolved to an absolute instant,
/// cancellation handle attached.
///
/// Cloning an `ArmedBudget` shares the stop handle (clones observe each
/// other's cancellation) but copies the deadline and caps.
#[derive(Debug, Clone)]
pub struct ArmedBudget {
    deadline: Option<Instant>,
    max_conflicts: Option<u64>,
    max_propagations: Option<u64>,
    max_arena_bytes: Option<u64>,
    stop: StopHandle,
}

impl Default for ArmedBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl ArmedBudget {
    /// Arms `spec` now: the deadline (if any) starts counting from this
    /// call. A fresh stop handle is attached.
    #[must_use]
    pub fn arm(spec: &Budget) -> Self {
        Self::arm_with(spec, StopHandle::new())
    }

    /// Arms `spec` with an externally owned stop handle (so a caller can
    /// cancel the region it governs).
    #[must_use]
    pub fn arm_with(spec: &Budget, stop: StopHandle) -> Self {
        ArmedBudget {
            // A deadline past what `Instant` can represent never comes.
            deadline: spec.timeout.and_then(|t| Instant::now().checked_add(t)),
            max_conflicts: spec.max_conflicts,
            max_propagations: spec.max_propagations,
            max_arena_bytes: spec.max_arena_bytes,
            stop,
        }
    }

    /// An armed budget with no limits and a fresh stop handle — governs
    /// nothing but can still be cancelled.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::arm(&Budget::unlimited())
    }

    /// Derives a child budget: same deadline and caps, but a child stop
    /// handle. Cancelling the child does not affect the parent;
    /// cancelling the parent is seen by the child.
    #[must_use]
    pub fn child(&self) -> Self {
        ArmedBudget {
            deadline: self.deadline,
            max_conflicts: self.max_conflicts,
            max_propagations: self.max_propagations,
            max_arena_bytes: self.max_arena_bytes,
            stop: self.stop.child(),
        }
    }

    /// The attached stop handle.
    #[must_use]
    pub fn stop_handle(&self) -> &StopHandle {
        &self.stop
    }

    /// Requests cancellation of everything governed by this budget (and
    /// its children).
    pub fn cancel(&self) {
        self.stop.request_stop();
    }

    /// The absolute deadline, if a timeout was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time remaining until the deadline (`None` when no timeout is
    /// set; zero once the deadline has passed).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checks the deadline and the stop handle (but not effort caps).
    ///
    /// The deadline is inspected *before* the cancellation flag so that
    /// a watchdog tripping the stop signal at the global deadline still
    /// reports [`StopReason::Deadline`] rather than `Cancelled`.
    #[must_use]
    pub fn poll(&self) -> Option<StopReason> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::Deadline);
            }
        }
        if self.stop.is_requested() {
            return Some(StopReason::Cancelled);
        }
        None
    }

    /// Full check: deadline, then effort caps against the supplied
    /// per-call counters, then the stop handle.
    #[must_use]
    pub fn check(&self, conflicts: u64, propagations: u64, arena_bytes: u64) -> Option<StopReason> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(StopReason::Deadline);
            }
        }
        if let Some(cap) = self.max_conflicts {
            if conflicts >= cap {
                return Some(StopReason::Conflicts);
            }
        }
        if let Some(cap) = self.max_propagations {
            if propagations >= cap {
                return Some(StopReason::Propagations);
            }
        }
        if let Some(cap) = self.max_arena_bytes {
            if arena_bytes >= cap {
                return Some(StopReason::Memory);
            }
        }
        if self.stop.is_requested() {
            return Some(StopReason::Cancelled);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let armed = ArmedBudget::unlimited();
        assert_eq!(armed.poll(), None);
        assert_eq!(armed.check(u64::MAX, u64::MAX, u64::MAX), None);
        assert_eq!(armed.remaining(), None);
    }

    #[test]
    fn timeout_past_the_clocks_range_never_trips() {
        // `aqed verify --timeout 18446744073709551615` arms this.
        let armed = ArmedBudget::arm(&Budget::unlimited().with_timeout(Duration::MAX));
        assert_eq!(armed.poll(), None);
        assert_eq!(armed.remaining(), None);
    }

    #[test]
    fn builder_sets_fields() {
        let b = Budget::unlimited()
            .with_timeout(Duration::from_millis(5))
            .with_max_conflicts(10)
            .with_max_propagations(20)
            .with_max_arena_bytes(30);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_conflicts, Some(10));
        assert_eq!(b.max_propagations, Some(20));
        assert_eq!(b.max_arena_bytes, Some(30));
    }

    #[test]
    fn elapsed_deadline_reports_deadline() {
        let armed = ArmedBudget::arm(&Budget::unlimited().with_timeout(Duration::ZERO));
        assert_eq!(armed.poll(), Some(StopReason::Deadline));
        // Deadline wins over a simultaneous cancellation.
        armed.cancel();
        assert_eq!(armed.poll(), Some(StopReason::Deadline));
        assert_eq!(armed.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn caps_trip_in_order() {
        let spec = Budget::unlimited()
            .with_max_conflicts(10)
            .with_max_propagations(100)
            .with_max_arena_bytes(1000);
        let armed = ArmedBudget::arm(&spec);
        assert_eq!(armed.check(0, 0, 0), None);
        assert_eq!(armed.check(10, 0, 0), Some(StopReason::Conflicts));
        assert_eq!(armed.check(0, 100, 0), Some(StopReason::Propagations));
        assert_eq!(armed.check(0, 0, 1000), Some(StopReason::Memory));
    }

    #[test]
    fn cancellation_is_seen_by_clones_and_children() {
        let root = ArmedBudget::unlimited();
        let clone = root.clone();
        let child = root.child();
        assert_eq!(child.poll(), None);
        root.cancel();
        assert_eq!(clone.poll(), Some(StopReason::Cancelled));
        assert_eq!(child.poll(), Some(StopReason::Cancelled));
    }

    #[test]
    fn child_cancellation_does_not_propagate_up() {
        let root = ArmedBudget::unlimited();
        let child = root.child();
        let sibling = root.child();
        child.cancel();
        assert_eq!(child.poll(), Some(StopReason::Cancelled));
        assert_eq!(root.poll(), None);
        assert_eq!(sibling.poll(), None);
    }

    #[test]
    fn stop_reason_display() {
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::Conflicts.to_string(), "conflict budget");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
    }
}
