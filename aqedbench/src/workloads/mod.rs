//! The three seeded workloads. Each makes its inputs from the seed, sets
//! up several times (reporting the median as `setup_s`), measures for
//! the requested seconds, and checks every verdict it receives.

pub mod bughunt;
pub mod reverify;
pub mod served;

use crate::expected::Tally;
use crate::trace::Trace;
use aqed_obs::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["bughunt", "ci-reverify", "served-warm"];

/// Fewest set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest seconds of set-up per untraced run. A set-up of a few
/// milliseconds is repeated until it has covered this much, so its
/// median does not hang on one burst of host contention.
const SETUP_MIN_S: f64 = 1.0;

/// What one run of a workload is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Same code paths on tiny inputs.
    pub smoke: bool,
    /// Scratch space for stores; removed when the run ends.
    pub scratch: PathBuf,
    /// Where the `aqed-serve` binary lives.
    pub bin_dir: PathBuf,
}

impl Config {
    /// Whether to time another set-up after the ones taking `secs`
    /// seconds: several for an untraced run, one otherwise.
    #[must_use]
    pub fn more_setups(&self, secs: &[f64]) -> bool {
        if self.trace || self.smoke {
            secs.is_empty()
        } else {
            secs.len() < SETUP_REPS || secs.iter().sum::<f64>() < SETUP_MIN_S
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<(String, f64)>,
    pub tally: Tally,
    /// Facts for the result JSON (sample counts, chosen percentiles).
    pub notes: Vec<(&'static str, Json)>,
    /// Spans of a traced run.
    pub trace: Option<Trace>,
}

/// Runs `setup` as often as `cfg` asks; returns the median seconds and
/// the last run's result.
pub fn timed_setup<T>(cfg: &Config, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    while cfg.more_setups(&secs) {
        let t = Instant::now();
        last = Some(setup(secs.len()));
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        crate::stats::median(&secs),
        last.expect("at least one set-up ran"),
    )
}

/// Whether a round as long as the last one still ends before the
/// measurement window closes.
#[must_use]
pub fn round_fits(start: Instant, seconds: f64, last: Duration) -> bool {
    (start.elapsed() + last).as_secs_f64() <= seconds
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
