//! Pins the CDCL search: every catalog case, buggy and healthy, is
//! scheduled as `Engine::verify` schedules it (one job, COI and CNF
//! preprocessing on, no artifact store) at bound min(`bmc_bound`, 6),
//! and each obligation's verdict, depth and search counters must match
//! `tests/golden/search_counters.tsv`.
//!
//! A change that is meant to leave the search alone (a faster data
//! structure, a cheaper loop) passes untouched. A change that moves the
//! search fails here; it then regenerates the table and its diff shows
//! which obligations moved. On a mismatch the test writes the whole
//! current table next to its other scratch output and prints the path;
//! copy that file over the golden one to regenerate it.

use aqed::bmc::BmcOptions;
use aqed::core::{
    verify_obligations_governed, AqedHarness, Budget, CheckOutcome, RunContext, ScheduleOptions,
};
use aqed::designs::{all_cases, BugCase};
use aqed::expr::ExprPool;
use aqed::sat::Solver;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const GOLDEN: &str = "tests/golden/search_counters.tsv";

/// Column names, in row order. Timings, `arena_bytes` and `gc_runs` are
/// left out: they are not search outcomes.
const HEADER: &str = "case\tvariant\tbound\tobligation\tverdict\tdepth\tframes_encoded\t\
solver_calls\tclauses\tvariables\tdecisions\tpropagations\tconflicts\trestarts\tlearnts\t\
deleted\tbinary_props\tsubsumed\teliminated_vars\tpreprocess_runs";

/// The key columns: case, variant, bound and obligation.
const KEY_COLUMNS: usize = 4;

/// One row per obligation of one catalog run.
fn rows_of(case: &BugCase, healthy: bool) -> Vec<String> {
    let mut pool = ExprPool::new();
    let lca = if healthy {
        (case.build_healthy)(&mut pool)
    } else {
        (case.build_buggy)(&mut pool)
    };
    let mut harness = AqedHarness::new(&lca);
    if let Some(fc) = &case.fc {
        harness = harness.with_fc(fc.clone());
    }
    if let Some(rb) = &case.rb {
        harness = harness.with_rb(*rb);
    }
    let (composed, _) = harness.build(&mut pool);
    let bound = case.bmc_bound.min(6);
    let options = BmcOptions::default()
        .with_max_bound(bound)
        .with_budget(Budget::unlimited())
        .with_preprocess(true)
        .with_coi(true);
    let sched = ScheduleOptions::default()
        .with_jobs(1)
        .with_fail_fast(false);
    let ctx = RunContext {
        artifacts: None,
        stop: None,
        meter: None,
    };
    let report = verify_obligations_governed::<Solver>(&composed, &pool, &options, &sched, &ctx);
    let variant = if healthy { "healthy" } else { "buggy" };
    report
        .obligations
        .iter()
        .map(|ob| {
            let (verdict, depth) = match &ob.outcome {
                CheckOutcome::Clean { bound } => ("clean", *bound),
                CheckOutcome::Bug { counterexample, .. } => ("bug", counterexample.depth),
                CheckOutcome::Inconclusive { bound, .. } => ("inconclusive", *bound),
                CheckOutcome::Errored { .. } => ("errored", 0),
            };
            let st = &ob.stats;
            let s = &st.solver;
            let fields: [&dyn std::fmt::Display; 20] = [
                &case.id,
                &variant,
                &bound,
                &ob.obligation.bad_name,
                &verdict,
                &depth,
                &st.frames_encoded,
                &st.solver_calls,
                &st.clauses,
                &st.variables,
                &s.decisions,
                &s.propagations,
                &s.conflicts,
                &s.restarts,
                &s.learnts,
                &s.deleted,
                &s.binary_props,
                &s.subsumed,
                &s.eliminated_vars,
                &s.preprocess_runs,
            ];
            let mut row = String::new();
            for (i, f) in fields.iter().enumerate() {
                if i > 0 {
                    row.push('\t');
                }
                write!(row, "{f}").expect("writing to a String");
            }
            row
        })
        .collect()
}

/// Rows keyed by their key columns.
fn keyed<'a>(rows: impl Iterator<Item = &'a str>) -> BTreeMap<String, &'a str> {
    rows.map(|row| {
        let key: Vec<&str> = row.split('\t').take(KEY_COLUMNS).collect();
        (key.join("\t"), row)
    })
    .collect()
}

/// Writes the current table where the test's scratch output goes, so a
/// search-changing commit can copy it over the golden file.
fn write_actual(table: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("search_counters.tsv");
    std::fs::write(&path, table).expect("write the current counter table");
    path
}

#[test]
fn search_counters_match_the_golden_table() {
    let mut table = String::from(HEADER);
    table.push('\n');
    for case in all_cases() {
        for healthy in [false, true] {
            for row in rows_of(&case, healthy) {
                table.push_str(&row);
                table.push('\n');
            }
        }
    }
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let Ok(golden) = std::fs::read_to_string(&golden_path) else {
        let out = write_actual(&table);
        panic!(
            "{} is missing; the current table is at {}",
            golden_path.display(),
            out.display()
        );
    };
    if golden == table {
        return;
    }
    let want = keyed(golden.lines().skip(1));
    let got = keyed(table.lines().skip(1));
    let mut diff = Vec::new();
    if golden.lines().next() != Some(HEADER) {
        diff.push(format!(
            "- {}\n+ {HEADER}",
            golden.lines().next().unwrap_or("")
        ));
    }
    for (key, row) in &want {
        match got.get(key) {
            Some(now) if now == row => {}
            Some(now) => diff.push(format!("- {row}\n+ {now}")),
            None => diff.push(format!("- {row}\n+ (no such obligation now)")),
        }
    }
    for (key, row) in &got {
        if !want.contains_key(key) {
            diff.push(format!("- (not in the golden table)\n+ {row}"));
        }
    }
    let out = write_actual(&table);
    panic!(
        "the search moved: rows that differ from {GOLDEN} (- golden, + now):\n{HEADER}\n{}\n\
         the whole current table is at {}",
        diff.join("\n"),
        out.display()
    );
}
