//! `aqedbench compare BASE_DIR NEW_DIR`: classifies every end-to-end
//! `(metric, workload)` pair of two sets of runs against the bounds in
//! `BENCHMARK.json`.
//!
//! * improved — the new side wins at least nine tenths of the run pairs
//!   (ties count for neither) and the medians differ by more than the
//!   base's interquartile range (the claim rule);
//! * unresolved — either side's spread (IQR ÷ median) is wider than the
//!   bound, unless every new run beats every base run;
//! * regressed — the new median is worse than the base median by more
//!   than the bound's share of it;
//! * unchanged — otherwise.

use crate::stats::{median, quartiles, relative_iqr};
use aqed_obs::json::{parse, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The outcome for one `(metric, workload)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Call {
    fn as_str(self) -> &'static str {
        match self {
            Call::Improved => "improved",
            Call::Unchanged => "unchanged",
            Call::Regressed => "regressed",
            Call::Unresolved => "unresolved",
        }
    }
}

/// Classifies one pair of samples (runs in order; run `i` of each side
/// forms a pair).
#[must_use]
pub fn classify(base: &[f64], new: &[f64], better: Better, bound: f64) -> Call {
    // Positive when `n` is better than `b`.
    let gain = |b: f64, n: f64| match better {
        Better::Lower => b - n,
        Better::Higher => n - b,
    };
    let (bm, nm) = (median(base), median(new));
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|&(&b, &n)| gain(b, n) > 0.0)
        .count();
    let base_iqr = if base.len() >= 2 {
        let [q1, _, q3] = quartiles(base);
        q3 - q1
    } else {
        0.0
    };
    if wins as f64 >= 0.9 * pairs as f64 && gain(bm, nm) > base_iqr {
        return Call::Improved;
    }
    let spread = |xs: &[f64]| if xs.len() >= 2 { relative_iqr(xs) } else { 0.0 };
    if spread(base).max(spread(new)) > bound {
        let all_better = base.iter().all(|&b| new.iter().all(|&n| gain(b, n) > 0.0));
        return if all_better {
            Call::Unchanged
        } else {
            Call::Unresolved
        };
    }
    if -gain(bm, nm) > bound * bm.abs() {
        Call::Regressed
    } else {
        Call::Unchanged
    }
}

/// An end-to-end metric's direction and bound, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the end-to-end bounds from `BENCHMARK.json`.
pub fn bounds(benchmark: &Path) -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad 'better'"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// `(workload, metric) → values`, in run order.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects every untraced result JSON under `dir`, in path order.
pub fn load(dir: &Path) -> Result<Samples, String> {
    let mut files = Vec::new();
    collect(dir, &mut files).map_err(|e| format!("{}: {e}", dir.display()))?;
    files.sort();
    let mut out = Samples::new();
    for f in files {
        let Ok(doc) = std::fs::read_to_string(&f).map(|t| parse(&t)) else {
            continue;
        };
        let Ok(doc) = doc else { continue };
        if doc.get("kind").and_then(Json::as_str) != Some("aqedbench-result")
            || doc.get("trace").and_then(Json::as_bool) != Some(false)
        {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (name, v) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(out)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
    Ok(())
}

/// The comparison table, plus whether any pair regressed.
pub fn report(base: &Samples, new: &Samples, bounds: &[Bound]) -> (String, bool) {
    let mut out = format!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>8} {:>6}  {}\n",
        "metric", "workload", "base", "new", "change", "spread", "wins", "call"
    );
    let mut regressed = false;
    let workloads: std::collections::BTreeSet<&String> = base.keys().map(|(w, _)| w).collect();
    for b in bounds {
        for w in &workloads {
            let key = ((*w).clone(), b.name.clone());
            let (Some(xs), Some(ys)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let call = classify(xs, ys, b.better, b.bound);
            regressed |= call == Call::Regressed;
            let (bm, nm) = (median(xs), median(ys));
            let spread = if xs.len() >= 2 { relative_iqr(xs) } else { 0.0 };
            let wins = xs
                .iter()
                .zip(ys)
                .filter(|&(&x, &y)| match b.better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
                .count();
            let _ = writeln!(
                out,
                "{:<18} {:<12} {bm:>12.4} {nm:>12.4} {:>+7.1}% {:>7.1}% {:>3}/{:<2}  {}",
                b.name,
                w,
                100.0 * (nm - bm) / bm.abs().max(f64::MIN_POSITIVE),
                100.0 * spread,
                wins,
                xs.len().min(ys.len()),
                call.as_str()
            );
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    #[test]
    fn a_consistent_win_beyond_the_base_spread_is_improved() {
        let new: Vec<f64> = BASE.iter().map(|x| x * 0.9).collect();
        assert_eq!(classify(&BASE, &new, Better::Lower, 0.1), Call::Improved);
        assert_eq!(classify(&new, &BASE, Better::Higher, 0.1), Call::Improved);
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let new: Vec<f64> = BASE.iter().rev().copied().collect();
        assert_eq!(classify(&BASE, &new, Better::Lower, 0.1), Call::Unchanged);
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_is_regressed() {
        let new: Vec<f64> = BASE.iter().map(|x| x * 1.2).collect();
        assert_eq!(classify(&BASE, &new, Better::Lower, 0.1), Call::Regressed);
        // Within the bound it is not.
        let new: Vec<f64> = BASE.iter().map(|x| x * 1.05).collect();
        assert_eq!(classify(&BASE, &new, Better::Lower, 0.1), Call::Unchanged);
        // Higher-is-better regresses the other way.
        let new: Vec<f64> = BASE.iter().map(|x| x * 0.8).collect();
        assert_eq!(classify(&BASE, &new, Better::Higher, 0.1), Call::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wide = [
            50.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 70.0, 130.0,
        ];
        let new: Vec<f64> = wide.iter().map(|x| x * 1.02).collect();
        assert_eq!(classify(&wide, &new, Better::Lower, 0.1), Call::Unresolved);
        // A gain larger than the base's IQR is still claimable.
        let new = [30.0; 10];
        assert_eq!(classify(&wide, &new, Better::Lower, 0.1), Call::Improved);
        let new = [45.0, 48.0, 42.0, 49.0, 44.0, 46.0, 47.0, 43.0, 41.0, 200.0];
        assert_eq!(classify(&wide, &new, Better::Lower, 0.01), Call::Unresolved);
    }

    #[test]
    fn all_better_with_wide_spread_but_few_wins_is_unchanged() {
        // Every new run is better than every base run, but the medians are
        // closer than the base's IQR, so no gain may be claimed; nor is it
        // unresolved.
        let base = [100.0, 140.0, 101.0, 139.0];
        let new = [99.0, 99.5, 98.0, 99.9];
        assert_eq!(classify(&base, &new, Better::Lower, 0.1), Call::Unchanged);
    }
}
