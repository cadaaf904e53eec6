//! Pins the artifact store's verdict keys: for every catalog case, buggy
//! and healthy, each obligation's cone key ([`cone_hash`] of its COI
//! slice, computed as the scheduler computes it) and the byte length of
//! the slice's BTOR2 export must match `tests/golden/cone_keys.tsv`.
//!
//! Durable stores are keyed by these values, so a change that is meant
//! to leave the keys alone (a faster printer, a cheaper hasher over the
//! same bytes) passes untouched, and stores written before it keep
//! hitting. A change that moves a key fails here; it then regenerates
//! the table and bumps the journal format so older stores open empty.
//! On a mismatch the test writes the whole current table next to its
//! other scratch output and prints the path; copy that file over the
//! golden one to regenerate it.

use aqed::core::{cone_hash, AqedHarness};
use aqed::designs::{all_cases, BugCase};
use aqed::expr::ExprPool;
use aqed::tsys::{coi_slice_cached, to_btor2, CoiCache};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const GOLDEN: &str = "tests/golden/cone_keys.tsv";

/// Column names, in row order.
const HEADER: &str = "case\tvariant\tobligation\tcone_key\tbtor2_bytes";

/// The key columns: case, variant and obligation.
const KEY_COLUMNS: usize = 3;

/// One row per obligation of one catalog design.
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
    let variant = if healthy { "healthy" } else { "buggy" };
    // One COI cache per composed system, as the scheduler keeps one per
    // run.
    let cache = CoiCache::new();
    composed
        .bads()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let slice = coi_slice_cached(&composed, &pool, &[i], Some(&cache));
            let key = cone_hash(&slice, &pool);
            let bytes = to_btor2(&slice.system, &pool).len();
            format!("{}\t{variant}\t{name}\t{key:016x}\t{bytes}", case.id)
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
/// key-changing commit can copy it over the golden file.
fn write_actual(table: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cone_keys.tsv");
    std::fs::write(&path, table).expect("write the current cone-key table");
    path
}

#[test]
fn cone_keys_match_the_golden_table() {
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
        "the cone keys moved: rows that differ from {GOLDEN} (- golden, + now):\n{HEADER}\n{}\n\
         the whole current table is at {}",
        diff.join("\n"),
        out.display()
    );
}
