//! Host facts recorded with every result, and the `/proc` readings the
//! resource metrics come from (Linux only; absent readings are `None`).

use aqed_obs::json::Json;
use std::process::Command;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// What a reader needs to judge whether two results are comparable.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub profile: &'static str,
    pub rustc: String,
    pub git_rev: String,
    pub loadavg_start: Option<f64>,
    /// Host-wide CPU steal, in clock ticks, when the run started.
    steal_start: Option<u64>,
}

impl HostFacts {
    /// Samples the host at the start of a run.
    #[must_use]
    pub fn sample() -> HostFacts {
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: first_line_of("rustc", &["-V"]),
            git_rev: first_line_of("git", &["rev-parse", "--short", "HEAD"]),
            loadavg_start: loadavg(),
            steal_start: steal_ticks(),
        }
    }

    /// Whether the host was already busier than its core count when the
    /// run started; such runs should be discarded.
    #[must_use]
    pub fn noisy(&self) -> bool {
        self.loadavg_start.is_some_and(|l| l > self.nproc as f64)
    }

    /// CPU seconds the hypervisor took from this machine's cores since
    /// the run started: time a virtual machine's run lost to its
    /// neighbours.
    #[must_use]
    pub fn steal_s(&self) -> Option<f64> {
        Some(steal_ticks()?.saturating_sub(self.steal_start?) as f64 / USER_HZ)
    }

    /// The facts plus end-of-run readings, as JSON.
    #[must_use]
    pub fn to_json(&self, loadavg_end: Option<f64>, cpu_s: Option<f64>) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj(vec![
            ("steal_s", opt(self.steal_s())),
            ("nproc", Json::num(self.nproc as u64)),
            ("profile", Json::from(self.profile)),
            ("rustc", Json::from(self.rustc.as_str())),
            ("git_rev", Json::from(self.git_rev.as_str())),
            ("loadavg_start", opt(self.loadavg_start)),
            ("loadavg_end", opt(loadavg_end)),
            ("cpu_s", opt(cpu_s)),
            ("noisy_start", Json::Bool(self.noisy())),
        ])
    }
}

/// First line of a command's stdout, or `unknown` when it cannot run
/// (the benchmark may run outside a git checkout).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host-wide steal time (`steal` column of `/proc/stat`), in ticks.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_whitespace().nth(7)?.parse().ok()
}

/// One-minute load average.
#[must_use]
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn proc_file(pid: Option<u32>, file: &str) -> Option<String> {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}")).ok()
}

/// User + system CPU seconds of a process (`None` = this one).
#[must_use]
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let stat = proc_file(pid, "stat")?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of another process, in MB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = proc_file(Some(pid), "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_exist_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb(std::process::id()).is_some_and(|mb| mb > 0.0));
            assert!(cpu_seconds(None).is_some_and(|s| s >= 0.0));
            assert!(loadavg().is_some());
            assert!(steal_ticks().is_some());
        }
    }
}
