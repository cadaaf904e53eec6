//! Integration tests of the durable [`ArtifactStore`]: verdicts and
//! cones written by one "process" (store instance) must warm the next
//! one byte-for-byte; corruption must degrade to a partial cache, never
//! to a wrong verdict or a crash; compaction must preserve every fact.

use aqed_bmc::BmcOptions;
use aqed_core::{
    cone_hash, design_hash, verify_obligations_governed, AqedHarness, ArtifactStore, CheckOutcome,
    FcConfig, ParallelVerifyReport, RunContext, ScheduleOptions, StoreOptions, JOURNAL_FILE,
    SNAPSHOT_FILE,
};
use aqed_expr::ExprPool;
use aqed_hls::{synthesize, AccelSpec, SynthOptions};
use aqed_sat::Solver;
use aqed_tsys::{coi_slice, TransitionSystem};
use std::path::PathBuf;
use std::sync::Arc;

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aqed-persist-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The composed test accelerator, built deterministically so repeat
/// calls hash to the same artifact keys.
fn compose(bug: bool) -> (TransitionSystem, ExprPool) {
    let mut pool = ExprPool::new();
    let spec = AccelSpec::new("persist_case", 2, 6, 6)
        .with_latency(2)
        .with_fifo_depth(2);
    let lca = synthesize(
        &spec,
        &mut pool,
        SynthOptions {
            forwarding_bug: bug,
            ..SynthOptions::default()
        },
        |p, _a, d| {
            let c = p.lit(6, 0x2a);
            p.xor(d, c)
        },
    );
    let (composed, _) = AqedHarness::new(&lca)
        .with_fc(FcConfig::default())
        .build(&mut pool);
    (composed, pool)
}

/// One run of the test accelerator, optionally through a store.
fn run_once(bug: bool, store: Option<&Arc<ArtifactStore>>) -> ParallelVerifyReport {
    let (composed, pool) = compose(bug);
    let options = BmcOptions::default().with_max_bound(6);
    let sched = ScheduleOptions::default().with_jobs(2);
    let ctx = match store {
        Some(s) => RunContext::with_artifacts(Arc::clone(s)),
        None => RunContext::default(),
    };
    verify_obligations_governed::<Solver>(&composed, &pool, &options, &sched, &ctx)
}

/// Comparable per-obligation verdict summary.
fn keys(report: &ParallelVerifyReport) -> Vec<(String, String)> {
    report
        .obligations
        .iter()
        .map(|r| {
            let key = match &r.outcome {
                CheckOutcome::Clean { bound } => format!("clean@{bound}"),
                CheckOutcome::Bug { counterexample, .. } => {
                    format!("bug:{}@{}", counterexample.bad_name, counterexample.depth)
                }
                CheckOutcome::Inconclusive { bound, reason } => {
                    format!("inconclusive@{bound}:{reason}")
                }
                CheckOutcome::Errored { message } => format!("errored:{message}"),
            };
            (r.obligation.bad_name.clone(), key)
        })
        .collect()
}

fn assert_fully_warm(report: &ParallelVerifyReport, what: &str) {
    assert_eq!(
        report.cache_hits,
        report.obligations.len() as u64,
        "{what}: every obligation must be served from the store"
    );
    assert_eq!(report.aggregate.solver_calls, 0, "{what}: no solving");
}

#[test]
fn verdicts_and_cones_survive_a_process_boundary() {
    let dir = store_dir("boundary");
    let baseline = run_once(true, None);
    assert!(
        matches!(baseline.outcome, CheckOutcome::Bug { .. }),
        "the buggy variant must produce a counterexample to persist"
    );
    {
        // "Process one": cold run; Drop flushes the journal.
        let store = Arc::new(ArtifactStore::open(&dir).expect("open fresh store"));
        let cold = run_once(true, Some(&store));
        assert_eq!(keys(&baseline), keys(&cold));
    }
    assert!(dir.join(JOURNAL_FILE).exists());
    // "Process two": a brand-new store on the same directory starts
    // warm — including the counterexample, which is decoded and
    // replay-validated before being served.
    let store = Arc::new(ArtifactStore::open(&dir).expect("reopen store"));
    assert!(store.recovered_records() > 0, "recovery must see records");
    assert_eq!(store.truncated_records(), 0, "clean store, no damage");
    let warm = run_once(true, Some(&store));
    assert_eq!(keys(&baseline), keys(&warm));
    assert_fully_warm(&warm, "warm-from-disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_journal_degrades_to_a_partial_cache() {
    let dir = store_dir("corrupt");
    let baseline = run_once(true, None);
    {
        let store = Arc::new(ArtifactStore::open(&dir).expect("open fresh store"));
        let _ = run_once(true, Some(&store));
    }
    // Flip one bit in the middle of the journal: everything from the
    // damaged record on is discarded at the next open.
    let journal = dir.join(JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal).expect("read journal");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&journal, &bytes).expect("write damage");
    let store = Arc::new(ArtifactStore::open(&dir).expect("corrupted open must not fail"));
    assert!(
        store.truncated_records() > 0,
        "the damaged tail must be counted"
    );
    // The surviving prefix may or may not cover every obligation, but
    // the verdicts must be identical to a cold run either way: missing
    // facts are re-solved, never guessed.
    let after = run_once(true, Some(&store));
    assert_eq!(keys(&baseline), keys(&after));
    // The journal was physically truncated at the last good record, so
    // appends after recovery produce a clean file again.
    store.flush().expect("flush after recovery");
    drop(store);
    let reopened = ArtifactStore::open(&dir).expect("second reopen");
    assert_eq!(
        reopened.truncated_records(),
        0,
        "damage must not survive a recover-truncate-append cycle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_learnt_record_falls_back_to_cold() {
    let dir = store_dir("learnt-corrupt");
    let baseline = run_once(true, None);
    {
        let store = Arc::new(ArtifactStore::open(&dir).expect("open fresh store"));
        let _ = run_once(true, Some(&store));
    }
    // Corrupt the first learnt-pack record specifically: the checksum
    // mismatch truncates the journal there, so the learnt hints (and any
    // facts after them) are lost — but never served corrupted.
    let journal = dir.join(JOURNAL_FILE);
    let text = std::fs::read_to_string(&journal).expect("read journal");
    let pos = text
        .find("\"k\":\"learnts\"")
        .expect("a cold run at this bound must journal at least one learnt pack");
    let mut bytes = text.into_bytes();
    bytes[pos + 6] = b'X';
    std::fs::write(&journal, &bytes).expect("write damage");
    let store = Arc::new(ArtifactStore::open(&dir).expect("corrupted open must not fail"));
    assert!(
        store.truncated_records() > 0,
        "the damaged learnt record must be counted as truncated"
    );
    // Graceful fallback: whatever the store lost is re-solved cold, and
    // the verdicts are exactly the cold run's.
    let after = run_once(true, Some(&store));
    assert_eq!(keys(&baseline), keys(&after));
    assert!(!after.degraded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_the_journal_into_a_snapshot_losslessly() {
    let dir = store_dir("compact");
    let baseline = run_once(false, None);
    {
        let opts = StoreOptions {
            compact_threshold: 2,
            fsync: false,
        };
        let store = Arc::new(ArtifactStore::open_with(&dir, opts).expect("open fresh store"));
        let _ = run_once(false, Some(&store));
        store.flush().expect("flush");
        // The journal now exceeds the tiny threshold; the next flush
        // with pending work compacts.
        store.flush().expect("compacting flush");
        assert!(store.compactions() > 0, "threshold 2 must force compaction");
    }
    assert!(dir.join(SNAPSHOT_FILE).exists(), "snapshot must exist");
    let store = Arc::new(ArtifactStore::open(&dir).expect("reopen store"));
    assert!(store.recovered_records() > 0);
    assert_eq!(store.truncated_records(), 0);
    let warm = run_once(false, Some(&store));
    assert_eq!(keys(&baseline), keys(&warm));
    assert_fully_warm(&warm, "warm-from-snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leftover_compaction_scratch_is_discarded_on_open() {
    let dir = store_dir("scratch");
    {
        let store = Arc::new(ArtifactStore::open(&dir).expect("open fresh store"));
        let _ = run_once(false, Some(&store));
    }
    // Simulate a kill mid-compaction: a stale tmp snapshot on disk.
    let tmp = dir.join("snapshot.aqed.tmp");
    std::fs::write(&tmp, "half-written garbage").expect("plant scratch");
    let store = ArtifactStore::open(&dir).expect("open with scratch present");
    assert!(!tmp.exists(), "scratch must be deleted, not recovered");
    assert!(store.recovered_records() > 0);
    assert_eq!(store.truncated_records(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// FNV-1a 64, the journal's per-line checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One journal line: checksum, space, JSON payload.
fn framed(payload: &str) -> String {
    format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
}

#[test]
fn a_store_written_by_format_one_opens_empty_and_is_rewritten() {
    let dir = store_dir("format-one");
    std::fs::create_dir_all(&dir).expect("create store dir");
    let baseline = run_once(true, None);
    let cex = baseline
        .counterexample()
        .expect("the buggy variant has a counterexample");
    // A journal as the previous format wrote it: its version marker, a
    // whole-design "clean" verdict (a kind this format dropped) and a
    // cone-keyed one (a kind it still parses), both for the obligation
    // that has the bug. Served, either would hide it.
    let (composed, pool) = compose(true);
    let design = design_hash(&composed, &pool);
    let cone = cone_hash(&coi_slice(&composed, &pool, &[cex.bad_index]), &pool);
    let (i, bad) = (cex.bad_index, &cex.bad_name);
    let journal = framed(r#"{"k":"meta","v":1}"#)
        + &framed(&format!(
            r#"{{"k":"clean","d":"{design:016x}","i":{i},"n":"{bad}","b":6}}"#
        ))
        + &framed(&format!(
            r#"{{"k":"cclean","d":"{cone:016x}","n":"{bad}","b":6}}"#
        ));
    std::fs::write(dir.join(JOURNAL_FILE), journal).expect("write v1 journal");
    {
        let store = Arc::new(ArtifactStore::open(&dir).expect("a v1 store still opens"));
        assert_eq!(store.recovered_records(), 0, "no v1 record is recovered");
        assert_eq!(store.cone_outcome_count(), 0);
        let run = run_once(true, Some(&store));
        assert_eq!(keys(&baseline), keys(&run), "the run matches a cold run");
        assert_eq!(run.cache_hits, 0, "nothing is served from a v1 store");
    }
    // The journal was restarted in this build's format.
    let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).expect("read journal");
    let first = text.lines().next().unwrap_or_default();
    assert!(
        first.contains(r#""k":"meta""#) && !first.contains(r#""v":1"#),
        "journal must restart with this format's marker: {first}"
    );
    let store = Arc::new(ArtifactStore::open(&dir).expect("reopen store"));
    assert_eq!(store.truncated_records(), 0);
    let warm = run_once(true, Some(&store));
    assert_eq!(keys(&baseline), keys(&warm));
    assert_fully_warm(&warm, "after the v1 journal was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}
