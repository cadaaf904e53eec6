//! Shared reporting helpers for the benchmark harness that regenerates
//! every table and figure of the A-QED paper.
//!
//! The binaries in `src/bin` print the paper's tables from live runs:
//!
//! * `table1` — memory-controller unit: setup effort, runtime and trace
//!   length, A-QED vs conventional flow (paper Table 1 + Observation 3).
//! * `fig5` — bugs detected per flow (paper Fig. 5).
//! * `table2` — HLS designs: bug type, runtime, CEX length (paper
//!   Table 2).
//!
//! The Criterion benches in `benches/` track the performance of each
//! layer plus the ablations called out in `DESIGN.md`.

use std::fmt;
use std::time::Duration;

/// Minimum / average / maximum of a sample, the aggregate the paper's
/// Table 1 reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest sample.
    pub min: f64,
    /// Arithmetic mean.
    pub avg: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    #[must_use]
    pub fn of(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        Summary {
            min,
            avg: sum / xs.len() as f64,
            max,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}, {:.1}, {:.1}", self.min, self.avg, self.max)
    }
}

/// Formats a duration as the paper's `min:sec` runtime format.
#[must_use]
pub fn fmt_mmss(d: Duration) -> String {
    let total = d.as_secs_f64();
    let minutes = (total / 60.0).floor() as u64;
    let seconds = total - minutes as f64 * 60.0;
    format!("{minutes}:{seconds:04.1}")
}

/// Formats a duration in seconds with millisecond resolution.
#[must_use]
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The host facts a printed timing depends on: how many cores this
/// process may use (`available_parallelism`) and the build profile.
#[must_use]
pub fn host_line() -> String {
    let cores = std::thread::available_parallelism()
        .map_or_else(|_| "unknown".to_string(), |n| n.to_string());
    let profile = if cfg!(debug_assertions) {
        "dev"
    } else {
        "release"
    };
    format!("host: {cores} cores available, {profile} build")
}

/// Writes a machine-readable bench summary to
/// `results/bench_<name>.json` (creating `results/`), wrapped in a
/// stable envelope so CI diffs and dashboards can consume every bench
/// the same way. Returns the path written. `AQED_BENCH_DIR` overrides
/// the `results/` directory.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_bench_json(
    bench: &str,
    fields: Vec<(&str, aqed_obs::json::Json)>,
) -> std::io::Result<std::path::PathBuf> {
    use aqed_obs::json::Json;
    let dir = std::env::var("AQED_BENCH_DIR").unwrap_or_else(|_| "results".to_string());
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir)?;
    let mut envelope = vec![
        ("kind", Json::from("aqed-bench")),
        ("bench", Json::from(bench)),
    ];
    envelope.extend(fields);
    let path = dir.join(format!("bench_{bench}.json"));
    std::fs::write(&path, format!("{}\n", Json::obj(envelope)))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_samples() {
        let s = Summary::of(&[4.0, 6.0, 8.0]);
        assert_eq!(s.min, 4.0);
        assert_eq!(s.avg, 6.0);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.to_string(), "4.0, 6.0, 8.0");
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn host_line_names_cores_and_profile() {
        let line = host_line();
        assert!(line.starts_with("host: "), "{line}");
        assert!(line.contains(" cores available, "), "{line}");
        assert!(line.ends_with(" build"), "{line}");
    }

    #[test]
    fn duration_formats() {
        assert_eq!(fmt_mmss(Duration::from_secs(72)), "1:12.0");
        assert_eq!(fmt_mmss(Duration::from_millis(5_700)), "0:05.7");
        assert_eq!(fmt_secs(Duration::from_millis(1_234)), "1.234s");
    }
}
