//! `ci-reverify`: the incremental CI workflow on a durable store. A
//! nightly run verifies the suite cold into a store (the set-up, with
//! one journal fsync per design); every operation then copies that
//! store, opens the copy and re-verifies, as one CI job would:
//!
//! * `identical`: the unchanged suite (every obligation a store hit);
//! * `edit`: the suite after a one-constant `OffByOneConstant` edit of
//!   one design, drawn by the seed from the (design, site) pairs whose
//!   edit touches some but not all of the design's obligation cones
//!   (on this suite, twelve sites of `dataflow_fifo_sizing`: the FC
//!   cones of the other designs span their whole datapath);
//! * `deepen`: `gsm_acc_race` and `lb_tap_off_by_one` deepened from
//!   bound 8 to 10 (proven-prefix reuse and learnt-clause packs).
//!
//! This is the store's write and recovery side — record, flush/fsync,
//! open — plus cone keys, prefix reuse and learnt packs. Solving
//! happens only for the cones an edit touched and in deepening. Each
//! edited design's warm verdicts must equal a cold run of it.
//!
//! Metrics, from each operation kind's quiet time ([`quiet`]): each
//! round holds one `identical`, six `edit` and one `deepen`.
//! `latency_ms` is the `edit` jobs' quiet time, the typical CI job;
//! `tail_ms` the slowest kind's (`deepen`); `throughput_per_s`
//! operations per second were every operation to take its kind's quiet
//! time; `setup_s` the nightly populate.

use super::{ms_since, round_fits, timed_setup, Config, Outcome};
use crate::expected::{check, Check, Expected, Tally, Verdict};
use crate::layers::{build, case, compose, schedule, Recorder, Req};
use crate::stats::{median, quiet, Rng};
use aqed_core::{
    cone_hash, ArtifactStore, CheckOutcome, ParallelVerifyReport, JOURNAL_FILE, SNAPSHOT_FILE,
};
use aqed_engine::Engine;
use aqed_expr::ExprPool;
use aqed_hls::Lca;
use aqed_obs::json::Json;
use aqed_tsys::{coi_slice_cached, enumerate_mutants, Mutator, TransitionSystem};
use std::cell::OnceCell;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const fn healthy(case: &'static str, bound: usize) -> Req {
    Req {
        case,
        healthy: true,
        bound,
    }
}

/// The nightly suite. `aes_v1` is checked at bound 6: at bound 8 its FC
/// proof alone takes ~8 s, longer than the whole populate budget.
const SUITE: [Req; 5] = [
    healthy("aes_v1", 6),
    healthy("gsm_acc_race", 8),
    healthy("motivating_clock_enable", 8),
    healthy("dataflow_fifo_sizing", 8),
    healthy("lb_tap_off_by_one", 8),
];

/// Deepening from the nightly bound 8 to 10 (to 12 takes ~4 s).
const DEEPEN: [Req; 2] = [
    healthy("gsm_acc_race", 10),
    healthy("lb_tap_off_by_one", 10),
];

const EDITS_PER_ROUND: usize = 6;

/// Injection sites examined per editable design.
const SITES_PER_DESIGN: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Op {
    Identical,
    /// Index into the flattened edit-site list.
    Edit(usize),
    Deepen,
}

/// Operation kinds, indexed by [`Op::kind`].
const KINDS: [&str; 3] = ["identical", "edit", "deepen"];

impl Op {
    fn kind(self) -> usize {
        match self {
            Op::Identical => 0,
            Op::Edit(_) => 1,
            Op::Deepen => 2,
        }
    }

    fn name(self) -> &'static str {
        KINDS[self.kind()]
    }
}

/// One candidate edit, composed ahead of time.
struct Site {
    /// Index into [`SUITE`] and [`Workload::pools`].
    member: usize,
    description: String,
    composed: TransitionSystem,
    /// Per-obligation verdicts of a cold run of the edited design,
    /// computed the first time the site is drawn.
    cold: OnceCell<Vec<String>>,
}

struct Workload {
    /// Pools the edited designs live in, one per suite member.
    pools: Vec<ExprPool>,
    sites: Vec<Site>,
}

pub fn run(cfg: &Config, expected: &Expected) -> Result<Outcome, String> {
    let w = Workload::generate();
    if w.sites.is_empty() {
        return Err("no edit site touches some but not all cones".into());
    }
    let mut tally = Tally::default();
    let io_err = |e: io::Error| format!("store I/O: {e}");
    let (setup_s, nightly) = timed_setup(cfg, |rep| {
        let dir = cfg.scratch.join(format!("nightly-{rep}"));
        populate(&dir, expected, &mut tally).map(|()| dir)
    });
    let nightly = nightly.map_err(io_err)?;

    let start = Instant::now();
    let mut rec = Recorder::new(start);
    let mut plain: Vec<(Op, f64)> = Vec::new();
    let mut traced: Vec<(Op, f64)> = Vec::new();
    let per_round = if cfg.smoke { 1 } else { EDITS_PER_ROUND };
    let min_rounds = if cfg.trace { 2 } else { 1 };
    let mut rounds = 0u64;
    let mut last = Duration::ZERO;
    let op_dir = cfg.scratch.join("op");
    while rounds < min_rounds || round_fits(start, cfg.seconds, last) {
        let round_start = Instant::now();
        let mut rng = Rng::new(cfg.seed, rounds);
        let mut edits: Vec<usize> = (0..w.sites.len()).collect();
        rng.shuffle(&mut edits);
        let mut ops: Vec<Op> = edits.into_iter().take(per_round).map(Op::Edit).collect();
        ops.extend([Op::Identical, Op::Deepen]);
        rng.shuffle(&mut ops);
        let tracing = cfg.trace && rounds % 2 == 1;
        for op in ops {
            fresh_copy(&nightly, &op_dir).map_err(io_err)?;
            let ms = if tracing {
                w.traced_op(op, &op_dir, expected, &mut tally, &mut rec)
            } else {
                w.plain_op(op, &op_dir, expected, &mut tally)
            }
            .map_err(io_err)?;
            if tracing { &mut traced } else { &mut plain }.push((op, ms));
        }
        last = round_start.elapsed();
        rounds += 1;
    }
    let _ = std::fs::remove_dir_all(&op_dir);

    // Every round holds every kind, so no kind's sample is empty.
    let of_kind = |f: fn(&[f64]) -> f64| -> [f64; KINDS.len()] {
        std::array::from_fn(|kind| {
            let v: Vec<f64> = plain
                .iter()
                .filter(|(op, _)| op.kind() == kind)
                .map(|&(_, ms)| ms)
                .collect();
            f(&v)
        })
    };
    let quiet_ms = of_kind(quiet);
    let by_kind =
        |ms: [f64; KINDS.len()]| Json::obj(KINDS.into_iter().zip(ms.map(Json::Num)).collect());
    let mut out = Outcome {
        tally,
        notes: vec![
            ("rounds", Json::num(rounds)),
            ("ops", Json::num(plain.len() as u64)),
            (
                "edit_sites",
                Json::Arr(
                    w.sites
                        .iter()
                        .map(|s| Json::from(format!("{}: {}", SUITE[s.member].case, s.description)))
                        .collect(),
                ),
            ),
            ("kind_quiet_ms", by_kind(quiet_ms)),
            ("kind_median_ms", by_kind(of_kind(median))),
        ],
        ..Outcome::default()
    };
    if cfg.trace {
        let mut metrics = rec.metrics();
        let mean =
            |v: &[(Op, f64)]| v.iter().map(|&(_, ms)| ms).sum::<f64>() / v.len().max(1) as f64;
        metrics.push((
            "trace.overhead_frac".into(),
            mean(&traced) / mean(&plain) - 1.0,
        ));
        out.metrics = metrics;
        out.trace = Some(rec.trace);
    } else {
        let quiet_total_s: f64 = plain
            .iter()
            .map(|&(op, _)| quiet_ms[op.kind()])
            .sum::<f64>()
            / 1e3;
        out.metrics = vec![
            ("setup_s".into(), setup_s),
            ("latency_ms".into(), quiet_ms[Op::Edit(0).kind()]),
            ("tail_ms".into(), quiet_ms.into_iter().fold(0.0, f64::max)),
            (
                "throughput_per_s".into(),
                plain.len() as f64 / quiet_total_s,
            ),
            ("peak_mem_mb".into(), crate::heap::peak_mb()),
        ];
    }
    Ok(out)
}

/// The nightly run: the whole suite cold into a fresh durable store.
fn populate(dir: &Path, expected: &Expected, tally: &mut Tally) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    let engine = Engine::with_persistent_store(dir)?;
    for req in SUITE {
        let got = Verdict::of_engine(engine.verify(&req.to_request()));
        let c = check(expected.get(req.case, true, req.bound), &got);
        tally.note(
            c,
            &format!("nightly {} bound {}: {got:?}", req.case, req.bound),
        );
    }
    Ok(())
}

/// Replaces `to` with a copy of the store files in `from`.
fn fresh_copy(from: &Path, to: &Path) -> io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for f in [JOURNAL_FILE, SNAPSHOT_FILE] {
        if from.join(f).exists() {
            std::fs::copy(from.join(f), to.join(f))?;
        }
    }
    Ok(())
}

/// Per-obligation cone keys of a composed design, in bad order.
fn cone_keys(composed: &TransitionSystem, pool: &ExprPool) -> Vec<u64> {
    (0..composed.bads().len())
        .map(|i| cone_hash(&coi_slice_cached(composed, pool, &[i], None), pool))
        .collect()
}

/// Per-obligation verdicts, for warm ≡ cold comparison.
fn obligation_keys(report: &ParallelVerifyReport) -> Vec<String> {
    report
        .obligations
        .iter()
        .map(|r| {
            let v = match &r.outcome {
                CheckOutcome::Clean { bound } => format!("clean@{bound}"),
                CheckOutcome::Bug { counterexample, .. } => format!("bug@{}", counterexample.depth),
                other => format!("{other:?}"),
            };
            format!("{}:{v}", r.obligation.bad_name)
        })
        .collect()
}

impl Workload {
    /// Enumerates every suite member's candidate sites.
    fn generate() -> Workload {
        let mut w = Workload {
            pools: Vec::new(),
            sites: Vec::new(),
        };
        for (member, req) in SUITE.iter().enumerate() {
            let c = case(req.case);
            let (lca, mut pool) = build(&c, true);
            let base = cone_keys(&compose(&c, &lca, &mut pool), &pool);
            let mutants = enumerate_mutants(&lca.ts, &mut pool, Mutator::OffByOneConstant);
            for m in mutants.into_iter().take(SITES_PER_DESIGN) {
                let edited_lca = Lca {
                    ts: m.ts,
                    ..lca.clone()
                };
                let composed = compose(&c, &edited_lca, &mut pool);
                let keys = cone_keys(&composed, &pool);
                let untouched = base.iter().zip(&keys).filter(|(a, b)| a == b).count();
                if (1..base.len()).contains(&untouched) {
                    w.sites.push(Site {
                        member,
                        description: m.description,
                        composed,
                        cold: OnceCell::new(),
                    });
                }
            }
            w.pools.push(pool);
        }
        w
    }

    /// The designs one operation verifies: `(request, edit site)`.
    fn members(&self, op: Op) -> Vec<(Req, Option<usize>)> {
        match op {
            Op::Identical => SUITE.iter().map(|&r| (r, None)).collect(),
            Op::Edit(s) => SUITE
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, (i == self.sites[s].member).then_some(s)))
                .collect(),
            Op::Deepen => DEEPEN.iter().map(|&r| (r, None)).collect(),
        }
    }

    fn site(&self, s: usize) -> (&TransitionSystem, &ExprPool) {
        let site = &self.sites[s];
        (&site.composed, &self.pools[site.member])
    }

    /// Checks one member's report: catalog requests against the
    /// reference file, edited designs against their cold run.
    fn check(
        &self,
        req: Req,
        site: Option<usize>,
        got: &ParallelVerifyReport,
        expected: &Expected,
    ) -> Check {
        match site {
            None => check(
                expected.get(req.case, req.healthy, req.bound),
                &Verdict::of_report(got),
            ),
            Some(s) => {
                let (composed, pool) = self.site(s);
                let cold = self.sites[s]
                    .cold
                    .get_or_init(|| obligation_keys(&schedule(composed, pool, req.bound, None)));
                if Verdict::of_report(got).is_err() {
                    Check::Failed
                } else if obligation_keys(got) == *cold {
                    Check::Right
                } else {
                    Check::Wrong
                }
            }
        }
    }

    fn note(
        &self,
        op: Op,
        results: &[(Req, Option<usize>, ParallelVerifyReport)],
        expected: &Expected,
        tally: &mut Tally,
    ) {
        for (req, site, report) in results {
            let what = match site {
                Some(s) => format!("{} {}: {report}", op.name(), self.sites[*s].description),
                None => format!("{} {} bound {}: {report}", op.name(), req.case, req.bound),
            };
            tally.note(self.check(*req, *site, report, expected), &what);
        }
    }

    fn plain_op(
        &self,
        op: Op,
        dir: &Path,
        expected: &Expected,
        tally: &mut Tally,
    ) -> io::Result<f64> {
        let t = Instant::now();
        let engine = Engine::with_persistent_store(dir)?;
        let store = Arc::clone(engine.artifacts().expect("persistent engine has a store"));
        let mut results = Vec::new();
        let mut failed = Vec::new();
        for (req, site) in self.members(op) {
            match site {
                None => match engine.verify(&req.to_request()) {
                    Ok(o) => results.push((req, None, o.report)),
                    Err(e) => failed.push(format!("{} {}: {e}", op.name(), req.case)),
                },
                Some(s) => {
                    let (composed, pool) = self.site(s);
                    let report = schedule(composed, pool, req.bound, Some(&store));
                    let _ = store.flush();
                    results.push((req, Some(s), report));
                }
            }
        }
        let ms = ms_since(t);
        for f in failed {
            tally.note(Check::Failed, &f);
        }
        self.note(op, &results, expected, tally);
        Ok(ms)
    }

    fn traced_op<'a>(
        &'a self,
        op: Op,
        dir: &Path,
        expected: &Expected,
        tally: &mut Tally,
        rec: &mut Recorder<'a>,
    ) -> io::Result<f64> {
        let t = Instant::now();
        let root = rec.open_op(t, "kind", op.name());
        let store = Arc::new(ArtifactStore::open(dir)?);
        rec.trace
            .span("core.persist.open", 1, t, Instant::now(), Some(root));
        let mut results = Vec::new();
        for (req, site) in self.members(op) {
            let report = match site {
                None => rec.request(root, req, Some(&store)),
                Some(s) => rec.composed(root, self.site(s), req.bound, Some(&store)),
            };
            results.push((req, site, report));
        }
        let (ms, replays_failed) = rec.close_op(root);
        rec.counters.add_store(&store);
        if replays_failed > 0 {
            tally.note(
                Check::Wrong,
                &format!("{replays_failed} counterexample(s) failed replay"),
            );
        }
        self.note(op, &results, expected, tally);
        Ok(ms)
    }
}
