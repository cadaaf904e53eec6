//! Spans recorded from outside the program, around calls into each
//! layer's public functions; the self-time arithmetic that turns them
//! into per-layer numbers; and the aqed-obs-shaped JSONL
//! (`{ts,tid,ph,name,args}`, accepted by `trace_report --check`) they are
//! written as when the run ends.
//!
//! A root span is one workload operation (a request). Its self time —
//! wall time no layer span covers — is reported as `unattributed`.
//! Probes re-run a function the program calls internally (for example
//! `design_hash` inside the scheduler) on the side: their duration is
//! charged to the layer they model and subtracted from the self time of
//! the span that contains the real call, and never adds to wall time.

use aqed_obs::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the row holding root spans' self time.
pub const UNATTRIBUTED: &str = "unattributed";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    args: Vec<(&'static str, Json)>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Clone)]
struct Probe {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    charged_to: usize,
}

/// All spans of one run, kept in memory until the run ends.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    probes: Vec<Probe>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t`.
    #[must_use]
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`Trace::close`]. Returns
    /// its index, which children name as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        tid: u64,
        start: Instant,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.ns(start);
        self.span_ns(name, tid, start_ns, start_ns, parent)
    }

    /// Ends an open span at `end`.
    pub fn close(&mut self, span: usize, end: Instant) {
        self.spans[span].end_ns = self.ns(end);
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        tid: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.span_ns(name, tid, s, e, parent)
    }

    /// Records a span given in nanoseconds since the epoch (children
    /// laid out from a report's per-layer counters).
    pub fn span_ns(
        &mut self,
        name: &'static str,
        tid: u64,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            tid,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Start of a recorded span, in nanoseconds since the epoch.
    #[must_use]
    pub fn start_ns(&self, span: usize) -> u64 {
        self.spans[span].start_ns
    }

    /// End of a recorded span, in nanoseconds since the epoch.
    #[must_use]
    pub fn end_ns(&self, span: usize) -> u64 {
        self.spans[span].end_ns
    }

    /// Attaches an argument to a span's JSONL events.
    pub fn arg(&mut self, span: usize, key: &'static str, value: Json) {
        self.spans[span].args.push((key, value));
    }

    /// Lays `children` (name, duration) end to end from the start of
    /// `parent`, clamped to its end: the layer split a report's counters
    /// give, placed where the parent's time went.
    pub fn split(&mut self, parent: usize, children: &[(&'static str, Duration)]) {
        let (tid, mut at, end) = {
            let p = &self.spans[parent];
            (p.tid, p.start_ns, p.end_ns)
        };
        for &(name, d) in children {
            let stop = (at + d.as_nanos() as u64).min(end);
            self.span_ns(name, tid, at, stop, Some(parent));
            at = stop;
        }
    }

    /// Records a probe that ran from `start` to now, charged to `span`.
    pub fn probe(&mut self, name: &'static str, start: Instant, charged_to: usize) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        let tid = self.spans[charged_to].tid;
        self.probes.push(Probe {
            name,
            tid,
            start_ns,
            end_ns,
            charged_to,
        });
    }

    /// Per-layer self times.
    #[must_use]
    pub fn layers(&self) -> Layers {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur();
            }
        }
        let mut layers = Layers::default();
        for p in &self.probes {
            let d = p.end_ns.saturating_sub(p.start_ns);
            covered[p.charged_to] += d;
            *layers.self_ns.entry(p.name).or_default() += d;
        }
        for (s, cov) in self.spans.iter().zip(covered) {
            let own = s.dur().saturating_sub(cov);
            if s.parent.is_none() {
                layers.ops += 1;
                layers.wall_ns += s.dur();
                layers.unattributed_ns += own;
            } else {
                *layers.self_ns.entry(s.name).or_default() += own;
            }
        }
        layers
    }

    /// Writes [`Trace::jsonl`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.jsonl().as_bytes())?;
        f.flush()
    }

    /// Every span and probe as `B`/`E` event pairs, one JSON object per
    /// line, nested per thread in time order.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        // Roots and probes, ordered per thread by start time.
        let mut roots: Vec<(u64, u64, Root)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push((s.tid, s.start_ns, Root::Span(i))),
            }
        }
        for (i, p) in self.probes.iter().enumerate() {
            roots.push((p.tid, p.start_ns, Root::Probe(i)));
        }
        roots.sort_by_key(|&(tid, start, _)| (tid, start));
        let mut out = String::new();
        for (_, _, root) in roots {
            match root {
                Root::Span(i) => self.emit(i, &children, &mut out),
                Root::Probe(i) => {
                    let p = &self.probes[i];
                    let args = vec![("charged_to", Json::from(self.spans[p.charged_to].name))];
                    event(&mut out, p.start_ns, p.tid, "B", p.name, &args);
                    event(&mut out, p.end_ns, p.tid, "E", p.name, &[]);
                }
            }
        }
        out
    }

    fn emit(&self, i: usize, children: &[Vec<usize>], out: &mut String) {
        let s = &self.spans[i];
        event(out, s.start_ns, s.tid, "B", s.name, &s.args);
        let mut kids = children[i].clone();
        kids.sort_by_key(|&k| self.spans[k].start_ns);
        for k in kids {
            self.emit(k, children, out);
        }
        event(out, s.end_ns, s.tid, "E", s.name, &[]);
    }
}

#[derive(Debug, Clone, Copy)]
enum Root {
    Span(usize),
    Probe(usize),
}

fn event(out: &mut String, ts: u64, tid: u64, ph: &str, name: &str, args: &[(&str, Json)]) {
    let args = Json::obj(args.iter().map(|(k, v)| (*k, v.clone())).collect());
    let line = Json::obj(vec![
        ("ts", Json::num(ts)),
        ("tid", Json::num(tid)),
        ("ph", Json::from(ph)),
        ("name", Json::from(name)),
        ("args", args),
    ]);
    let _ = writeln!(out, "{line}");
}

/// Self time per layer over a run's root spans.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Root spans (operations) recorded.
    pub ops: u64,
    /// Summed duration of the root spans.
    pub wall_ns: u64,
    /// Summed self time of the root spans.
    pub unattributed_ns: u64,
    /// Self time per layer name (probes included).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Mean self milliseconds per operation of `layer` (0 when the
    /// workload never entered it).
    #[must_use]
    pub fn ms_per_op(&self, layer: &str) -> f64 {
        let ns = if layer == UNATTRIBUTED {
            self.unattributed_ns
        } else {
            self.self_ns.get(layer).copied().unwrap_or(0)
        };
        ns as f64 / 1e6 / self.ops.max(1) as f64
    }

    /// Unattributed share of the wall time.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        self.unattributed_ns as f64 / self.wall_ns.max(1) as f64
    }

    /// The self-time table, largest layer first, with explicit
    /// `unattributed` and `wall` rows.
    #[must_use]
    pub fn table(&self) -> String {
        let mut rows: Vec<(&str, u64)> = self.self_ns.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        rows.push((UNATTRIBUTED, self.unattributed_ns));
        let wall = self.wall_ns.max(1) as f64;
        let mut out = format!(
            "{:<22} {:>12} {:>12} {:>7}\n",
            "layer", "self ms", "ms/op", "share"
        );
        for (name, ns) in rows.into_iter().chain([("wall", self.wall_ns)]) {
            let _ = writeln!(
                out,
                "{name:<22} {:>12.3} {:>12.4} {:>6.1}%",
                ns as f64 / 1e6,
                ns as f64 / 1e6 / self.ops.max(1) as f64,
                100.0 * ns as f64 / wall
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One operation: build, then a scheduler span whose children come
    /// from report counters, plus two side probes charged to it.
    fn sample() -> Trace {
        let mut t = Trace::new(Instant::now());
        let op = t.span_ns("op", 1, 0, 100, None);
        t.span_ns("designs.build", 1, 0, 10, Some(op));
        let sched = t.span_ns("core.sched", 1, 10, 90, Some(op));
        t.split(
            sched,
            &[
                ("tsys.coi", Duration::from_nanos(10)),
                ("sat.solve", Duration::from_nanos(50)),
            ],
        );
        t.probes.push(Probe {
            name: "core.hash",
            tid: 1,
            start_ns: 100,
            end_ns: 105,
            charged_to: sched,
        });
        t.probes.push(Probe {
            name: "bmc.replay",
            tid: 1,
            start_ns: 105,
            end_ns: 108,
            charged_to: sched,
        });
        t
    }

    #[test]
    fn self_times_subtract_children_and_probes() {
        let l = sample().layers();
        assert_eq!(l.ops, 1);
        assert_eq!(l.wall_ns, 100);
        assert_eq!(l.self_ns["designs.build"], 10);
        assert_eq!(l.self_ns["tsys.coi"], 10);
        assert_eq!(l.self_ns["sat.solve"], 50);
        // 80 ns of scheduler, minus 60 of children, minus 8 of probes.
        assert_eq!(l.self_ns["core.sched"], 12);
        assert_eq!(l.self_ns["core.hash"], 5);
        assert_eq!(l.self_ns["bmc.replay"], 3);
        assert_eq!(l.unattributed_ns, 10);
        // Every nanosecond of wall lands in exactly one row; probes never
        // add to it.
        let total: u64 = l.self_ns.values().sum::<u64>() + l.unattributed_ns;
        assert_eq!(total, l.wall_ns);
        assert!((l.unattributed_frac() - 0.1).abs() < 1e-12);
        assert!(l.table().contains(UNATTRIBUTED));
    }

    #[test]
    fn split_clamps_children_to_the_parent() {
        let mut t = Trace::new(Instant::now());
        let p = t.span_ns("core.sched", 1, 0, 30, None);
        t.split(
            p,
            &[
                ("bmc.encode", Duration::from_nanos(20)),
                ("sat.solve", Duration::from_nanos(20)),
            ],
        );
        let l = t.layers();
        assert_eq!(l.self_ns["bmc.encode"], 20);
        assert_eq!(l.self_ns["sat.solve"], 10);
        assert_eq!(l.unattributed_ns, 0);
    }

    #[test]
    fn jsonl_is_balanced_and_parseable() {
        let text = sample().jsonl();
        let mut depth = 0i64;
        let mut last_ts = 0;
        for line in text.lines() {
            let ev = aqed_obs::json::parse(line).expect("valid JSON line");
            let ts = ev.get("ts").and_then(Json::as_u64).expect("ts");
            assert!(ts >= last_ts, "timestamps go forward on one thread");
            last_ts = ts;
            match ev.get("ph").and_then(Json::as_str) {
                Some("B") => depth += 1,
                Some("E") => depth -= 1,
                other => panic!("unexpected phase {other:?}"),
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        // 5 spans + 2 probes, two events each.
        assert_eq!(text.lines().count(), 14);
    }
}
