//! Crash-safe disk backend for the [`ArtifactStore`](crate::ArtifactStore):
//! an append-only journal plus atomic snapshot compaction.
//!
//! # On-disk layout
//!
//! A store directory holds at most three files:
//!
//! * `journal.aqed` — append-only record log. Every store mutation (a
//!   definitive verdict that grew a fact) becomes one record appended
//!   here; a crash loses only records not yet flushed.
//! * `snapshot.aqed` — the store state as of the last compaction, in
//!   the same record format. Loading replays the snapshot first, then
//!   the journal on top (replay is idempotent, so records present in
//!   both are harmless).
//! * `snapshot.aqed.tmp` — transient compaction scratch. A leftover
//!   tmp file means a crash interrupted compaction; it is deleted on
//!   open and the previous snapshot + journal remain authoritative.
//!
//! # Record framing
//!
//! One record per line: sixteen lowercase hex digits of the FNV-1a 64
//! checksum of the payload, one space, the payload as a single-line
//! JSON object. Recovery verifies each line's checksum and parses the
//! payload; the **first** bad line (checksum mismatch, unparseable
//! JSON, missing separator, torn tail without a newline) ends the file:
//! everything before it is recovered, everything from it on is
//! discarded, and for the journal the file is physically truncated at
//! the last good byte so subsequent appends never interleave with
//! garbage. Corruption therefore degrades to a partial cache — never a
//! wrong verdict (verdict soundness is re-established at serve time by
//! the key match and counterexample replay) and never a crash.
//!
//! # Compaction
//!
//! When the journal accumulates more than
//! [`StoreOptions::compact_threshold`] records, a flush rewrites the
//! whole in-memory state into `snapshot.aqed.tmp`, fsyncs it, renames
//! it over `snapshot.aqed` (atomic on POSIX), fsyncs the directory and
//! only then truncates the journal. A kill at any point leaves either
//! the old snapshot + full journal or the new snapshot (+ a journal
//! whose records the snapshot already contains — idempotent replay).
//!
//! # What is deliberately not persisted
//!
//! `Inconclusive`/`Errored` outcomes (they describe the budget, not
//! the design), preprocessing outcomes (`ElimRecord`s are deterministic
//! consequences of the CNF and cheap to recompute; see DESIGN.md), and
//! raw `VarId`s: counterexamples are stored *positionally* — indices
//! into the system's `inputs ++ states` declaration order — so a record
//! written by one process replays in any process that rebuilds the same
//! design, regardless of pool layout. Learnt clauses are not persisted
//! either: the store holds verdict facts only.
//!
//! # Format versions
//!
//! Each file starts with a `meta` record carrying the format version.
//! Recovery stops at a `meta` record whose version differs from this
//! build's, older or newer, exactly as at damage: a store written by
//! another format version opens as an empty store (its journal is
//! truncated and restarted), never fails to open, and never has one of
//! its records served. Version 3 holds cone-keyed verdicts only;
//! version 2 also held learnt-clause packs, and version 1 whole-design
//! verdicts and COI cones. Unknown `"k"` values are damage by
//! construction.

use crate::verify::PropertyKind;
use aqed_bitvec::Bv;
use aqed_bmc::Counterexample;
use aqed_expr::VarId;
use aqed_obs::json::{self, Json};
use aqed_tsys::Trace;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// The append-only record log inside a store directory.
pub const JOURNAL_FILE: &str = "journal.aqed";
/// The last compacted snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.aqed";
const SNAPSHOT_TMP: &str = "snapshot.aqed.tmp";
const FORMAT_VERSION: u64 = 3;

/// Tuning knobs for a persistent store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOptions {
    /// Journal records accumulated before a flush triggers snapshot
    /// compaction.
    pub compact_threshold: usize,
    /// Whether flushes fsync the journal (and compaction the snapshot).
    /// Disabling trades durability for latency; tests and benchmarks
    /// may, a production daemon should not.
    pub fsync: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            compact_threshold: 4096,
            fsync: true,
        }
    }
}

/// FNV-1a 64 over raw bytes — the per-record checksum.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// Streaming FNV-1a 64, also a [`fmt::Write`] sink: the same function
/// [`design_hash`](crate::design_hash) computes over text printed
/// straight into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// A counterexample in durable, pool-independent form: every variable
/// is an index into the recording system's `inputs ++ states`
/// declaration order, every value a `(position, width, bits)` triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PersistedCex {
    pub property: PropertyKind,
    pub depth: usize,
    /// Concrete initial register values, sorted by position.
    pub init: Vec<(u32, u32, u64)>,
    /// Per-cycle input assignments in the same coordinates.
    pub trace: Vec<Vec<(u32, u32, u64)>>,
}

fn property_str(p: PropertyKind) -> &'static str {
    match p {
        PropertyKind::Fc => "fc",
        PropertyKind::Rb => "rb",
        PropertyKind::Sac => "sac",
    }
}

fn property_from_str(s: &str) -> Option<PropertyKind> {
    match s {
        "fc" => Some(PropertyKind::Fc),
        "rb" => Some(PropertyKind::Rb),
        "sac" => Some(PropertyKind::Sac),
        _ => None,
    }
}

fn assignment_to_json(&(pos, width, value): &(u32, u32, u64)) -> Json {
    Json::Arr(vec![
        Json::num(u64::from(pos)),
        Json::num(u64::from(width)),
        Json::hex(value),
    ])
}

fn assignment_from_json(v: &Json) -> Option<(u32, u32, u64)> {
    let items = v.as_arr()?;
    if items.len() != 3 {
        return None;
    }
    let pos = u32::try_from(items[0].as_u64()?).ok()?;
    let width = u32::try_from(items[1].as_u64()?).ok()?;
    let value = items[2].as_hex_u64()?;
    Some((pos, width, value))
}

impl PersistedCex {
    /// Encodes a live counterexample positionally, or `None` when some
    /// trace variable is neither an input nor a state of `positions`'
    /// system (such a witness cannot be made pool-independent).
    pub fn encode(
        property: PropertyKind,
        cex: &Counterexample,
        positions: &HashMap<VarId, u32>,
    ) -> Option<PersistedCex> {
        let mut init: Vec<(u32, u32, u64)> = cex
            .initial_state
            .iter()
            .map(|(v, bv)| Some((*positions.get(v)?, bv.width(), bv.to_u64())))
            .collect::<Option<_>>()?;
        init.sort_unstable();
        let trace: Vec<Vec<(u32, u32, u64)>> = (0..cex.trace.len())
            .map(|k| {
                let mut frame: Vec<(u32, u32, u64)> = cex
                    .trace
                    .frame(k)
                    .iter()
                    .map(|(v, bv)| Some((*positions.get(v)?, bv.width(), bv.to_u64())))
                    .collect::<Option<_>>()?;
                frame.sort_unstable();
                Some(frame)
            })
            .collect::<Option<_>>()?;
        Some(PersistedCex {
            property,
            depth: cex.depth,
            init,
            trace,
        })
    }

    /// Decodes back into a live [`Counterexample`] against a system
    /// whose `inputs ++ states` declaration order is `vars`. Returns
    /// `None` when any position is out of range (the record belongs to
    /// a different system). The caller must still replay the result
    /// before trusting it.
    pub fn decode(
        &self,
        bad_name: &str,
        bad_index: usize,
        vars: &[VarId],
    ) -> Option<Counterexample> {
        let var_at = |pos: u32| vars.get(pos as usize).copied();
        let initial_state: HashMap<VarId, Bv> = self
            .init
            .iter()
            .map(|&(pos, width, value)| Some((var_at(pos)?, Bv::new(width, value))))
            .collect::<Option<_>>()?;
        let mut trace = Trace::new();
        for frame in &self.trace {
            let assignments: Vec<(VarId, Bv)> = frame
                .iter()
                .map(|&(pos, width, value)| Some((var_at(pos)?, Bv::new(width, value))))
                .collect::<Option<_>>()?;
            trace.push_frame(assignments);
        }
        Some(Counterexample {
            bad_name: bad_name.to_string(),
            bad_index,
            depth: self.depth,
            trace,
            initial_state,
        })
    }

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("p", Json::Str(property_str(self.property).into())),
            ("dep", Json::num(self.depth as u64)),
            (
                "init",
                Json::Arr(self.init.iter().map(assignment_to_json).collect()),
            ),
            (
                "tr",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|f| Json::Arr(f.iter().map(assignment_to_json).collect()))
                        .collect(),
                ),
            ),
        ]
    }

    fn from_json(v: &Json) -> Option<PersistedCex> {
        let property = property_from_str(v.get("p")?.as_str()?)?;
        let depth = v.get("dep")?.as_u64()? as usize;
        let init = v
            .get("init")?
            .as_arr()?
            .iter()
            .map(assignment_from_json)
            .collect::<Option<_>>()?;
        let trace = v
            .get("tr")?
            .as_arr()?
            .iter()
            .map(|f| f.as_arr()?.iter().map(assignment_from_json).collect())
            .collect::<Option<_>>()?;
        Some(PersistedCex {
            property,
            depth,
            init,
            trace,
        })
    }
}

/// One durable store mutation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// Format marker; a `v` other than this build's ends parsing.
    Meta { version: u64 },
    /// `(cone, bad)` proven clean to `bound` — keyed by the content
    /// hash of the obligation's COI *slice*, not the whole design, so
    /// the fact survives edits outside the cone.
    ConeClean {
        cone: u64,
        bad_name: String,
        bound: usize,
    },
    /// A counterexample for `(cone, bad)`, positionally encoded against
    /// the *slice's* `inputs ++ states` order (a strict subsequence of
    /// the full design's). Serve-time replay against the full design is
    /// still the soundness gate.
    ConeBug {
        cone: u64,
        bad_name: String,
        cex: PersistedCex,
    },
}

impl Record {
    fn to_json(&self) -> Json {
        match self {
            Record::Meta { version } => Json::obj(vec![
                ("k", Json::Str("meta".into())),
                ("v", Json::num(*version)),
            ]),
            Record::ConeClean {
                cone,
                bad_name,
                bound,
            } => Json::obj(vec![
                ("k", Json::Str("cclean".into())),
                ("d", Json::hex(*cone)),
                ("n", Json::Str(bad_name.clone())),
                ("b", Json::num(*bound as u64)),
            ]),
            Record::ConeBug {
                cone,
                bad_name,
                cex,
            } => {
                let mut fields = vec![
                    ("k", Json::Str("cbug".into())),
                    ("d", Json::hex(*cone)),
                    ("n", Json::Str(bad_name.clone())),
                ];
                fields.extend(cex.to_json());
                Json::obj(fields)
            }
        }
    }

    fn from_json(v: &Json) -> Option<Record> {
        match v.get("k")?.as_str()? {
            "meta" => Some(Record::Meta {
                version: v.get("v")?.as_u64()?,
            }),
            "cclean" => Some(Record::ConeClean {
                cone: v.get("d")?.as_hex_u64()?,
                bad_name: v.get("n")?.as_str()?.to_string(),
                bound: v.get("b")?.as_u64()? as usize,
            }),
            "cbug" => Some(Record::ConeBug {
                cone: v.get("d")?.as_hex_u64()?,
                bad_name: v.get("n")?.as_str()?.to_string(),
                cex: PersistedCex::from_json(v)?,
            }),
            _ => None,
        }
    }

    /// Serializes the record as one framed journal line (with trailing
    /// newline).
    pub fn to_line(&self) -> String {
        let payload = self.to_json().to_string();
        format!("{:016x} {payload}\n", fnv1a(payload.as_bytes()))
    }
}

/// Parses one framed line; `None` on any damage.
fn parse_line(line: &str) -> Option<Record> {
    let (sum, payload) = line.split_once(' ')?;
    if sum.len() != 16 {
        return None;
    }
    let expected = u64::from_str_radix(sum, 16).ok()?;
    if fnv1a(payload.as_bytes()) != expected {
        return None;
    }
    Record::from_json(&json::parse(payload).ok()?)
}

/// What recovering one file yielded.
#[derive(Debug, Default)]
struct FileRecovery {
    records: Vec<Record>,
    /// Lines discarded from the first bad record on (0 = clean file).
    truncated: u64,
    /// Byte offset of the end of the last good record.
    good_len: u64,
}

/// Parses a record file leniently: stops at the first damaged line.
fn recover_file(text: &[u8]) -> FileRecovery {
    let mut out = FileRecovery::default();
    let mut offset: u64 = 0;
    let mut rest = text;
    loop {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // A torn tail (bytes without a terminating newline) is the
            // normal shape of a mid-write kill; anything left is damage.
            if !rest.is_empty() {
                out.truncated += 1;
            }
            break;
        };
        let line = &rest[..nl];
        let parsed = std::str::from_utf8(line).ok().and_then(parse_line);
        let discarded_after = |tail: &[u8]| {
            tail.split(|&b| b == b'\n')
                .filter(|s| !s.is_empty())
                .count() as u64
        };
        let Some(record) = parsed else {
            // First bad record: count it plus every remaining line.
            out.truncated += 1 + discarded_after(&rest[nl + 1..]);
            break;
        };
        if let Record::Meta { version } = record {
            if version != FORMAT_VERSION {
                // Another format: nothing after this marker is ours.
                out.truncated += discarded_after(&rest[nl + 1..]).max(1);
                break;
            }
        } else {
            out.records.push(record);
        }
        offset += nl as u64 + 1;
        out.good_len = offset;
        rest = &rest[nl + 1..];
    }
    out
}

/// What [`DiskJournal::open`] recovered from the store directory.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RecoveryStats {
    /// Records successfully replayed (snapshot + journal).
    pub recovered: u64,
    /// Damaged records/lines discarded across both files.
    pub truncated: u64,
}

/// The open, append-only journal of a persistent store, plus the
/// compaction machinery. All methods are called under the store's disk
/// mutex; none take the store's map locks (the store orders disk lock
/// outside map locks during compaction, and map locks are never held
/// while waiting for the disk lock).
#[derive(Debug)]
pub(crate) struct DiskJournal {
    dir: PathBuf,
    journal: File,
    /// Records currently in the journal file (loaded + appended).
    journal_records: usize,
    /// Framed lines appended but not yet written out.
    pending: String,
    pending_records: usize,
    opts: StoreOptions,
}

impl DiskJournal {
    /// Opens (creating if needed) the store directory, recovers the
    /// snapshot and journal, truncates journal damage, and returns the
    /// journal handle plus every recovered record in replay order.
    pub fn open(
        dir: &Path,
        opts: StoreOptions,
    ) -> io::Result<(DiskJournal, Vec<Record>, RecoveryStats)> {
        fs::create_dir_all(dir)?;
        // A leftover tmp snapshot is an interrupted compaction: the real
        // snapshot + journal are authoritative, the scratch is garbage.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));
        let mut records = Vec::new();
        let mut stats = RecoveryStats::default();
        match fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => {
                let rec = recover_file(&bytes);
                stats.recovered += rec.records.len() as u64;
                stats.truncated += rec.truncated;
                records.extend(rec.records);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let mut journal = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&journal_path)?;
        let mut bytes = Vec::new();
        journal.read_to_end(&mut bytes)?;
        let rec = recover_file(&bytes);
        if rec.truncated > 0 {
            // Physically drop the damaged tail so appends never
            // interleave with garbage.
            journal.set_len(rec.good_len)?;
            journal.seek(SeekFrom::End(0))?;
        }
        stats.recovered += rec.records.len() as u64;
        stats.truncated += rec.truncated;
        let journal_records = rec.records.len();
        records.extend(rec.records);
        let mut disk = DiskJournal {
            dir: dir.to_path_buf(),
            journal,
            journal_records,
            pending: String::new(),
            pending_records: 0,
            opts,
        };
        if rec.good_len == 0 {
            // A new journal, or one whose every record was dropped
            // (another format version, damage from the first line).
            disk.append(&Record::Meta {
                version: FORMAT_VERSION,
            });
        }
        Ok((disk, records, stats))
    }

    /// Queues one record for the next flush.
    pub fn append(&mut self, record: &Record) {
        self.pending.push_str(&record.to_line());
        self.pending_records += 1;
    }

    /// Whether a flush would write anything.
    pub fn dirty(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Writes every pending record to the journal and (optionally)
    /// fsyncs. A no-op when clean.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.journal.write_all(self.pending.as_bytes())?;
        if self.opts.fsync {
            self.journal.sync_data()?;
        }
        self.journal_records += self.pending_records;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// Whether the journal has grown enough that the next flush should
    /// compact.
    pub fn wants_compaction(&self) -> bool {
        self.journal_records >= self.opts.compact_threshold.max(1)
    }

    /// Atomically replaces the snapshot with `records` (the full live
    /// state) and empties the journal: write tmp → fsync → rename →
    /// fsync dir → truncate journal. Any crash leaves a loadable store.
    pub fn compact(&mut self, records: &[Record]) -> io::Result<()> {
        let tmp = self.dir.join(SNAPSHOT_TMP);
        {
            let mut f = File::create(&tmp)?;
            let mut text = Record::Meta {
                version: FORMAT_VERSION,
            }
            .to_line();
            for r in records {
                text.push_str(&r.to_line());
            }
            f.write_all(text.as_bytes())?;
            if self.opts.fsync {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        if self.opts.fsync {
            // Make the rename itself durable.
            if let Ok(d) = File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.journal.set_len(0)?;
        self.journal.seek(SeekFrom::Start(0))?;
        self.journal_records = 0;
        self.append(&Record::Meta {
            version: FORMAT_VERSION,
        });
        let pending = std::mem::take(&mut self.pending);
        self.pending_records = 0;
        self.journal.write_all(pending.as_bytes())?;
        if self.opts.fsync {
            self.journal.sync_data()?;
        }
        Ok(())
    }

    /// Current on-disk size of the store. Bytes queued but not yet
    /// flushed count toward the journal (they are bytes the store owes
    /// the disk).
    pub fn footprint(&self) -> DiskFootprint {
        let journal_bytes = self.journal.metadata().map_or(0, |m| m.len());
        let snapshot_bytes = fs::metadata(self.dir.join(SNAPSHOT_FILE)).map_or(0, |m| m.len());
        DiskFootprint {
            journal_bytes: journal_bytes + self.pending.len() as u64,
            snapshot_bytes,
            journal_records: (self.journal_records + self.pending_records) as u64,
        }
    }
}

/// On-disk size of a persistent store, for health reporting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DiskFootprint {
    /// Bytes in `journal.aqed`, including records queued for the next
    /// flush.
    pub journal_bytes: u64,
    /// Bytes in `snapshot.aqed` (0 before the first compaction).
    pub snapshot_bytes: u64,
    /// Records in the journal (loaded + appended + queued).
    pub journal_records: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bug_record() -> Record {
        Record::ConeBug {
            cone: 0xdead_beef_0000_0001,
            bad_name: "aqed_fc".into(),
            cex: PersistedCex {
                property: PropertyKind::Fc,
                depth: 3,
                init: vec![(4, 8, 0xff)],
                trace: vec![vec![(0, 1, 1)], vec![(0, 1, 0), (1, 64, u64::MAX)]],
            },
        }
    }

    #[test]
    fn records_round_trip_through_framed_lines() {
        let records = [
            Record::Meta {
                version: FORMAT_VERSION,
            },
            bug_record(),
            Record::ConeClean {
                cone: 0x0123_4567_89ab_cdef,
                bad_name: "BAD_RB_STARVATION".into(),
                bound: 9,
            },
            Record::ConeBug {
                cone: 11,
                bad_name: "BAD_FC".into(),
                cex: PersistedCex {
                    property: PropertyKind::Fc,
                    depth: 1,
                    init: vec![],
                    trace: vec![vec![(2, 4, 0xa)]],
                },
            },
        ];
        for r in &records {
            let line = r.to_line();
            assert!(line.ends_with('\n'));
            let back = parse_line(line.trim_end_matches('\n')).expect("parse back");
            assert_eq!(&back, r);
        }
    }

    #[test]
    fn recovery_stops_at_the_first_damaged_line() {
        let good = bug_record();
        let mut text = good.to_line();
        text.push_str(&good.to_line());
        let clean = recover_file(text.as_bytes());
        assert_eq!(clean.records.len(), 2);
        assert_eq!(clean.truncated, 0);
        assert_eq!(clean.good_len, text.len() as u64);
        // Flip one payload byte of the second record.
        let mut damaged = text.clone().into_bytes();
        let mid = text.len() - 10;
        damaged[mid] ^= 0x01;
        let rec = recover_file(&damaged);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated, 1);
        assert_eq!(rec.good_len, good.to_line().len() as u64);
        // A torn tail (no newline) is tolerated the same way.
        let torn = &text.as_bytes()[..text.len() - 5];
        let rec = recover_file(torn);
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated, 1);
    }

    #[test]
    fn other_format_versions_are_not_misread() {
        for version in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let mut text = Record::Meta { version }.to_line();
            text.push_str(&bug_record().to_line());
            let rec = recover_file(text.as_bytes());
            assert!(rec.records.is_empty(), "v{version}");
            assert_eq!(rec.truncated, 1, "v{version}");
            assert_eq!(rec.good_len, 0, "v{version}");
        }
    }
}
