//! Cross-request artifact cache for verification runs.
//!
//! A long-lived process (the `aqed-serve` daemon, a warm CI loop) sees
//! the same obligations over and over. [`ArtifactStore`] is the
//! content-addressed memory shared by those runs. Every artifact is
//! keyed by `(cone, bad name)`, where `cone` is [`cone_hash`]: a 64-bit
//! hash of the canonical BTOR2 export of the obligation's COI *slice*.
//! Two obligations share a key exactly when BMC would solve textually
//! the same sliced model, whichever request built it and whatever the
//! rest of the design looks like.
//!
//! Two artifact kinds are stored:
//!
//! * **Verdicts** — per-key facts merged across runs: the deepest bound
//!   known clean and the shallowest known counterexample. Only
//!   *definitive* outcomes are recorded (`Clean`, validated `Bug`);
//!   `Inconclusive`/`Errored` depend on budgets and are never cached.
//!   Because BMC explores depth by depth, a stored bug's depth is
//!   minimal, so a hit reproduces exactly the verdict a cold run would
//!   compute — a bug at depth `d` answers any request with bound ≥ `d`,
//!   and a slice clean to bound `k` answers any request with bound ≤
//!   `k`. An unchanged design hits on every obligation; after an edit,
//!   every obligation whose cone the edit missed still hits.
//! * **Learnt-clause packs** — per-key clause cores exported from a
//!   finished BMC run, re-injected on the next run over the identical
//!   slice. Packs are hints, never facts: injection re-checks per-frame
//!   variable fingerprints and discards on any mismatch, and an
//!   injected clause is redundant with respect to the (identical) CNF,
//!   so a wrong pack can cost time but not a verdict.
//!
//! Soundness: an obligation's verdict is fully determined by its slice.
//! The slice keeps every constraint, and COI slicing is verdict-exact,
//! so a fact about the slice is a fact about the full system whether or
//! not the requesting run then solves the slice. Every lookup matches
//! the slice hash and the bad name; a stored counterexample is widened
//! onto the requesting run's full system and **replayed on the concrete
//! simulator** before it is served, so a hash collision or stale entry
//! behind a bug degrades to a cache miss. A clean fact cannot be
//! replayed; it rests on the key alone.
//!
//! # Durability
//!
//! A store opened with [`ArtifactStore::open`] additionally journals
//! every definitive verdict and pack to disk (append-only, checksummed,
//! snapshot-compacted — see [`crate::persist`]) and recovers them on
//! the next open, so a daemon restart — graceful or SIGKILL — starts
//! warm. Counterexamples are persisted positionally against the slice
//! and pass the same replay gate as in-memory entries: recovery can
//! only lose records (corruption truncates at the first bad record),
//! never serve a wrong verdict.

use crate::persist::{DiskJournal, PersistedCex, Record, StoreOptions};
use crate::verify::CheckOutcome;
use aqed_bitvec::Bv;
use aqed_bmc::{Counterexample, LearntPack};
use aqed_expr::{ExprPool, VarId};
use aqed_obs::json::Json;
use aqed_obs::metrics;
use aqed_tsys::{to_btor2, CoiSlice, Trace, TransitionSystem};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Content hash of a transition system: FNV-1a 64 over its canonical
/// BTOR2 export. [`cone_hash`] applies it to an obligation's slice.
#[must_use]
pub fn design_hash(ts: &TransitionSystem, pool: &ExprPool) -> u64 {
    crate::persist::fnv1a(to_btor2(ts, pool).as_bytes())
}

/// The store's key for one obligation: the content hash of its COI
/// slice's canonical BTOR2 export. Obligations whose cone a design
/// edit does not touch keep their cone hash even though the rest of
/// the design changed. Together with the bad name it keys every
/// artifact (two obligations share a key exactly when BMC would solve
/// the same sliced model).
#[must_use]
pub fn cone_hash(slice: &CoiSlice, pool: &ExprPool) -> u64 {
    design_hash(&slice.system, pool)
}

/// Everything known about one `(cone, bad)` obligation, merged over
/// every run that touched it.
#[derive(Debug, Clone, Default)]
struct ObligationFact {
    /// No counterexample exists at any depth `<= clean_to`.
    clean_to: Option<usize>,
    /// The shallowest known counterexample, positional against the
    /// slice's `inputs ++ states` order. Its depth is minimal, because
    /// BMC searches depth by depth.
    bug: Option<PersistedCex>,
}

/// Thread-safe, content-hash-keyed artifact cache shared across
/// verification requests (see the module docs for keying, soundness and
/// durability).
#[derive(Debug, Default)]
pub struct ArtifactStore {
    /// (cone hash, bad name) → merged obligation facts.
    cone_outcomes: Mutex<HashMap<(u64, String), ObligationFact>>,
    /// (cone hash, bad name) → exported learnt-clause core.
    packs: Mutex<HashMap<(u64, String), LearntPack>>,
    /// Disk journal for persistent stores. Lock ordering: this lock is
    /// never acquired while holding a map lock *except* transiently
    /// inside [`ArtifactStore::flush`], which takes it first — so map
    /// locks are never held while waiting on it.
    disk: Option<Mutex<DiskJournal>>,
    cone_hits: AtomicU64,
    cone_misses: AtomicU64,
    packs_served: AtomicU64,
    packs_recorded: AtomicU64,
    recovered: AtomicU64,
    truncated: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Position of every input and state variable in declaration order —
/// the `VarId`-independent coordinate system persisted counterexamples
/// are stored in.
fn var_positions(ts: &TransitionSystem) -> HashMap<VarId, u32> {
    ts.inputs()
        .iter()
        .copied()
        .chain(ts.states().iter().map(|s| s.var))
        .enumerate()
        .map(|(i, v)| (v, u32::try_from(i).expect("system with > u32::MAX vars")))
        .collect()
}

fn position_vars(ts: &TransitionSystem) -> Vec<VarId> {
    ts.inputs()
        .iter()
        .copied()
        .chain(ts.states().iter().map(|s| s.var))
        .collect()
}

impl ArtifactStore {
    /// An in-memory store: warm within the process, gone with it.
    #[must_use]
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// Opens (creating if needed) a persistent store rooted at `dir`
    /// with default [`StoreOptions`], recovering every record the
    /// previous process managed to flush. Corruption — a torn tail
    /// from a mid-write kill, a flipped bit — truncates recovery at the
    /// first bad record and is reported through
    /// [`ArtifactStore::truncated_records`]; it never fails the open.
    ///
    /// # Errors
    ///
    /// Real I/O failures (permissions, full disk, `dir` is a file) are
    /// propagated.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ArtifactStore> {
        ArtifactStore::open_with(dir, StoreOptions::default())
    }

    /// [`ArtifactStore::open`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// Real I/O failures are propagated; corruption is not an error.
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<ArtifactStore> {
        let (disk, records, stats) = DiskJournal::open(dir.as_ref(), opts)?;
        let mut store = ArtifactStore::default();
        store.disk = Some(Mutex::new(disk));
        for record in records {
            store.apply_record(record);
        }
        store.recovered.store(stats.recovered, Ordering::Relaxed);
        store.truncated.store(stats.truncated, Ordering::Relaxed);
        if aqed_obs::enabled() {
            metrics::global()
                .counter("artifact.recovered")
                .add(stats.recovered);
            metrics::global()
                .counter("artifact.truncated")
                .add(stats.truncated);
        }
        Ok(store)
    }

    /// Whether this store journals to disk.
    #[must_use]
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// Replays one recovered record into the in-memory maps (no
    /// re-journaling). Shared by recovery and nothing else; merging is
    /// idempotent, so a record present in both snapshot and journal is
    /// harmless.
    fn apply_record(&self, record: Record) {
        match record {
            Record::Meta { .. } => {}
            Record::ConeClean {
                cone,
                bad_name,
                bound,
            } => {
                self.merge_clean(cone, &bad_name, bound);
            }
            Record::ConeBug {
                cone,
                bad_name,
                cex,
            } => {
                self.merge_bug(cone, &bad_name, cex);
            }
            Record::Learnts {
                cone,
                bad_name,
                frame_vars,
                clauses,
            } => {
                self.merge_pack(
                    cone,
                    &bad_name,
                    LearntPack {
                        frame_vars,
                        clauses,
                    },
                );
            }
        }
    }

    /// Obligation lookups answered from the store (a warm repeat, or a
    /// cone an edit left untouched).
    #[must_use]
    pub fn cone_hits(&self) -> u64 {
        self.cone_hits.load(Ordering::Relaxed)
    }

    /// Obligation lookups that found nothing reusable.
    #[must_use]
    pub fn cone_misses(&self) -> u64 {
        self.cone_misses.load(Ordering::Relaxed)
    }

    /// Learnt-clause packs handed to warm-starting runs so far.
    #[must_use]
    pub fn packs_served(&self) -> u64 {
        self.packs_served.load(Ordering::Relaxed)
    }

    /// Learnt-clause packs donated by finished runs so far.
    #[must_use]
    pub fn packs_recorded(&self) -> u64 {
        self.packs_recorded.load(Ordering::Relaxed)
    }

    /// Records recovered from disk at open (0 for in-memory stores).
    #[must_use]
    pub fn recovered_records(&self) -> u64 {
        self.recovered.load(Ordering::Relaxed)
    }

    /// Damaged records discarded during recovery (0 = clean store).
    #[must_use]
    pub fn truncated_records(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Journal flushes that actually wrote data.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Snapshot compactions performed.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Obligation facts currently held.
    #[must_use]
    pub fn cone_outcome_count(&self) -> usize {
        lock(&self.cone_outcomes).len()
    }

    /// Learnt-clause packs currently held.
    #[must_use]
    pub fn pack_count(&self) -> usize {
        lock(&self.packs).len()
    }

    /// A point-in-time JSON summary of the store, for health endpoints.
    /// Persistent stores additionally report their on-disk footprint
    /// (journal/snapshot bytes and journal record count).
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let mut fields = vec![
            ("persistent", Json::Bool(self.is_persistent())),
            ("cone_outcomes", Json::num(self.cone_outcome_count() as u64)),
            ("learnt_packs", Json::num(self.pack_count() as u64)),
            ("cone_hits", Json::num(self.cone_hits())),
            ("cone_misses", Json::num(self.cone_misses())),
            ("packs_served", Json::num(self.packs_served())),
            ("packs_recorded", Json::num(self.packs_recorded())),
            ("recovered", Json::num(self.recovered_records())),
            ("truncated", Json::num(self.truncated_records())),
            ("flushes", Json::num(self.flushes())),
            ("compactions", Json::num(self.compactions())),
        ];
        if let Some(disk) = &self.disk {
            let fp = lock(disk).footprint();
            fields.push(("journal_bytes", Json::num(fp.journal_bytes)));
            fields.push(("snapshot_bytes", Json::num(fp.snapshot_bytes)));
            fields.push(("journal_records", Json::num(fp.journal_records)));
        }
        Json::obj(fields)
    }

    /// Writes every record journaled since the last flush to disk
    /// (fsynced per [`StoreOptions::fsync`]) and compacts the journal
    /// into a fresh snapshot when it has grown past the threshold.
    /// A no-op for in-memory stores and for persistent stores with
    /// nothing pending, so callers may flush liberally.
    ///
    /// # Errors
    ///
    /// Propagates write/rename failures; the store stays usable (the
    /// failed records remain pending for the next flush).
    pub fn flush(&self) -> io::Result<()> {
        let Some(disk) = &self.disk else {
            return Ok(());
        };
        let mut d = lock(disk);
        let wrote = d.dirty();
        d.flush()?;
        if wrote {
            self.flushes.fetch_add(1, Ordering::Relaxed);
            if aqed_obs::enabled() {
                metrics::global().counter("artifact.flush").inc();
            }
        }
        if d.wants_compaction() {
            // Map locks are taken briefly *inside* the disk lock; see
            // the ordering note on the `disk` field.
            let records = self.snapshot_records();
            d.compact(&records)?;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            if aqed_obs::enabled() {
                metrics::global().counter("artifact.compacted").inc();
            }
        }
        Ok(())
    }

    /// Serializes the full live state as records, for compaction.
    fn snapshot_records(&self) -> Vec<Record> {
        let mut records = Vec::new();
        for ((cone, bad_name), fact) in lock(&self.cone_outcomes).iter() {
            if let Some(bound) = fact.clean_to {
                records.push(Record::ConeClean {
                    cone: *cone,
                    bad_name: bad_name.clone(),
                    bound,
                });
            }
            if let Some(cex) = &fact.bug {
                records.push(Record::ConeBug {
                    cone: *cone,
                    bad_name: bad_name.clone(),
                    cex: cex.clone(),
                });
            }
        }
        for ((cone, bad_name), pack) in lock(&self.packs).iter() {
            records.push(Record::Learnts {
                cone: *cone,
                bad_name: bad_name.clone(),
                frame_vars: pack.frame_vars.clone(),
                clauses: pack.clauses.clone(),
            });
        }
        records
    }

    /// Queues records for the journal. Must be called with **no map
    /// lock held** (see the ordering note on the `disk` field).
    fn journal(&self, records: impl IntoIterator<Item = Record>) {
        if let Some(disk) = &self.disk {
            let mut d = lock(disk);
            for r in records {
                d.append(&r);
            }
        }
    }

    /// Merges "clean to `bound`" into the fact table. Returns whether
    /// the fact grew (i.e. is worth journaling).
    fn merge_clean(&self, cone: u64, bad_name: &str, bound: usize) -> bool {
        let mut outcomes = lock(&self.cone_outcomes);
        let fact = outcomes.entry((cone, bad_name.to_string())).or_default();
        let grew = fact.clean_to.is_none_or(|k| bound > k);
        if grew {
            fact.clean_to = Some(bound);
        }
        grew
    }

    /// Merges a bug fact (new or recovered). Returns whether it
    /// replaced a deeper (or absent) witness.
    fn merge_bug(&self, cone: u64, bad_name: &str, bug: PersistedCex) -> bool {
        let mut outcomes = lock(&self.cone_outcomes);
        let fact = outcomes.entry((cone, bad_name.to_string())).or_default();
        // Depth-by-depth search: a cex at depth d proves depths < d clean.
        if let Some(below) = bug.depth.checked_sub(1) {
            if fact.clean_to.is_none_or(|k| below > k) {
                fact.clean_to = Some(below);
            }
        }
        let shallower = fact.bug.as_ref().is_none_or(|old| bug.depth < old.depth);
        if shallower {
            fact.bug = Some(bug);
        }
        shallower
    }

    /// Merges a learnt-clause pack. A pack with more frames replaces a
    /// shallower one (deeper knowledge); at equal depth the newer pack
    /// wins (fresher activity ordering). Returns whether the table
    /// changed.
    fn merge_pack(&self, cone: u64, bad_name: &str, pack: LearntPack) -> bool {
        if pack.is_empty() {
            return false;
        }
        let mut packs = lock(&self.packs);
        match packs.entry((cone, bad_name.to_string())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(pack);
                true
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if pack.frame_vars.len() >= e.get().frame_vars.len() {
                    e.insert(pack);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Answers one obligation from the store if a definitive fact for
    /// its slice covers the requested bound, else `None`. `slice` is
    /// the obligation's COI slice of `ts` (the system being verified
    /// *now*); a served bug is decoded against the slice, widened to
    /// the full system exactly as BMC widens its own sliced witnesses,
    /// and **replayed against `ts`** before being served — the
    /// soundness gate that turns any stale or collided entry into a
    /// miss.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_cone_outcome(
        &self,
        cone: u64,
        bad_index: usize,
        bad_name: &str,
        bound: usize,
        slice: &CoiSlice,
        ts: &TransitionSystem,
        pool: &ExprPool,
    ) -> Option<CheckOutcome> {
        let served = self.try_serve_cone(cone, bad_index, bad_name, bound, slice, ts, pool);
        if aqed_obs::enabled() {
            let name = if served.is_some() {
                "artifact.verdict.reused"
            } else {
                "artifact.cone.misses"
            };
            metrics::global().counter(name).inc();
        }
        match &served {
            Some(_) => self.cone_hits.fetch_add(1, Ordering::Relaxed),
            None => self.cone_misses.fetch_add(1, Ordering::Relaxed),
        };
        served
    }

    #[allow(clippy::too_many_arguments)]
    fn try_serve_cone(
        &self,
        cone: u64,
        bad_index: usize,
        bad_name: &str,
        bound: usize,
        slice: &CoiSlice,
        ts: &TransitionSystem,
        pool: &ExprPool,
    ) -> Option<CheckOutcome> {
        let key = (cone, bad_name.to_string());
        let fact = lock(&self.cone_outcomes).get(&key).cloned()?;
        if let Some(bug) = &fact.bug {
            if bug.depth > bound {
                // Known bug deeper than this request's horizon, nothing
                // shallower exists: clean at the requested bound.
                return Some(CheckOutcome::Clean { bound });
            }
            if let Some(mut cex) = bug.decode(bad_name, bad_index, &position_vars(&slice.system)) {
                // Widen the slice-local witness to the full system the
                // same way BMC widens its own sliced counterexamples:
                // zero values for sliced-away inputs and uninitialised
                // registers (sound: they lie outside the cone).
                let extra: Vec<(VarId, Bv)> = ts
                    .inputs()
                    .iter()
                    .filter(|v| !slice.system.inputs().contains(v))
                    .map(|&v| (v, Bv::zero(pool.var_width(v))))
                    .collect();
                cex.trace.pad_frames(&extra);
                for st in ts.states() {
                    if st.init.is_none() && !slice.system.is_state(st.var) {
                        cex.initial_state
                            .insert(st.var, Bv::zero(pool.var_width(st.var)));
                    }
                }
                if cex.replay(ts, pool) {
                    return Some(CheckOutcome::Bug {
                        property: bug.property,
                        counterexample: cex,
                    });
                }
            }
            // Decode or replay failed: the entry cannot belong to this
            // slice. Drop it so it stops degrading lookups.
            lock(&self.cone_outcomes).remove(&key);
            return None;
        }
        match fact.clean_to {
            Some(k) if k >= bound => Some(CheckOutcome::Clean { bound }),
            _ => None,
        }
    }

    /// The deepest bound known clean for an obligation — the warm-start
    /// frame-skipping hint when the fact does not cover the whole
    /// requested bound. The caller may skip solving frames
    /// `0..=prefix` over the identical slice: slice-content identity
    /// implies the frame CNFs are identical, so those queries were
    /// already proven UNSAT.
    #[must_use]
    pub fn cone_clean_prefix(&self, cone: u64, bad_name: &str) -> Option<usize> {
        lock(&self.cone_outcomes)
            .get(&(cone, bad_name.to_string()))
            .and_then(|f| f.clean_to)
    }

    /// Merges one freshly computed obligation outcome into the store
    /// (and, for persistent stores, the journal). Non-definitive
    /// outcomes (`Inconclusive`, `Errored`) are ignored: they describe
    /// the budget, not the design. `slice` is the obligation's COI
    /// slice; the counterexample (computed against the full system) is
    /// restricted to the slice's variables before positional encoding —
    /// the dropped assignments lie outside the cone, and lookup
    /// re-creates them as zero padding.
    pub fn record_cone_outcome(
        &self,
        cone: u64,
        bad_name: &str,
        outcome: &CheckOutcome,
        slice: &CoiSlice,
    ) {
        match outcome {
            CheckOutcome::Clean { bound } => {
                if self.merge_clean(cone, bad_name, *bound) {
                    self.journal([Record::ConeClean {
                        cone,
                        bad_name: bad_name.to_string(),
                        bound: *bound,
                    }]);
                }
            }
            CheckOutcome::Bug {
                property,
                counterexample,
            } => {
                let positions = var_positions(&slice.system);
                let mut trace = Trace::new();
                for k in 0..counterexample.trace.len() {
                    trace.push_frame(
                        counterexample
                            .trace
                            .frame(k)
                            .iter()
                            .filter(|(v, _)| positions.contains_key(v))
                            .cloned()
                            .collect(),
                    );
                }
                let restricted = Counterexample {
                    bad_name: counterexample.bad_name.clone(),
                    bad_index: counterexample.bad_index,
                    depth: counterexample.depth,
                    trace,
                    initial_state: counterexample
                        .initial_state
                        .iter()
                        .filter(|(v, _)| positions.contains_key(*v))
                        .map(|(v, bv)| (*v, *bv))
                        .collect(),
                };
                let Some(encoded) = PersistedCex::encode(*property, &restricted, &positions) else {
                    return;
                };
                if self.merge_bug(cone, bad_name, encoded.clone()) {
                    self.journal([Record::ConeBug {
                        cone,
                        bad_name: bad_name.to_string(),
                        cex: encoded,
                    }]);
                }
            }
            CheckOutcome::Inconclusive { .. } | CheckOutcome::Errored { .. } => {}
        }
    }

    /// The learnt-clause pack for `(cone, bad)`, if one is stored.
    /// Purely a warm-start hint: the consumer re-validates per-frame
    /// fingerprints and variable bounds at injection time.
    #[must_use]
    pub fn lookup_learnt_pack(&self, cone: u64, bad_name: &str) -> Option<LearntPack> {
        let pack = lock(&self.packs)
            .get(&(cone, bad_name.to_string()))
            .cloned();
        if pack.is_some() {
            self.packs_served.fetch_add(1, Ordering::Relaxed);
            if aqed_obs::enabled() {
                metrics::global().counter("artifact.pack.served").inc();
            }
        }
        pack
    }

    /// Donates a finished run's exported learnt-clause pack (and
    /// journals it). Empty packs are dropped; a pack covering fewer
    /// frames than the stored one never replaces it.
    pub fn record_learnt_pack(&self, cone: u64, bad_name: &str, pack: LearntPack) {
        let frame_vars = pack.frame_vars.clone();
        let clauses = pack.clauses.clone();
        if self.merge_pack(cone, bad_name, pack) {
            self.packs_recorded.fetch_add(1, Ordering::Relaxed);
            if aqed_obs::enabled() {
                metrics::global().counter("artifact.pack.recorded").inc();
            }
            self.journal([Record::Learnts {
                cone,
                bad_name: bad_name.to_string(),
                frame_vars,
                clauses,
            }]);
        }
    }
}

impl Drop for ArtifactStore {
    /// Best-effort final flush, so a one-shot CLI run with `--store-dir`
    /// persists without explicit plumbing. Errors are ignored — anyone
    /// needing a durability guarantee calls [`ArtifactStore::flush`].
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::PropertyKind;
    use aqed_sat::StopReason;

    fn toy_system(pool: &mut ExprPool, bug_at: u64) -> TransitionSystem {
        let mut ts = TransitionSystem::new("toy");
        let en = ts.add_input(pool, "en", 1);
        let c = ts.add_register(pool, "c", 4, 0);
        let ce = pool.var_expr(c);
        let one = pool.lit(4, 1);
        let inc = pool.add(ce, one);
        let ene = pool.var_expr(en);
        let next = pool.ite(ene, inc, ce);
        ts.set_next(c, next);
        let tgt = pool.lit(4, bug_at);
        let hit = pool.eq(ce, tgt);
        ts.add_bad("counter_hits_target", hit);
        ts
    }

    #[test]
    fn hashes_separate_different_designs() {
        let mut p = ExprPool::new();
        let a = toy_system(&mut p, 5);
        let b = toy_system(&mut p, 6);
        assert_ne!(design_hash(&a, &p), design_hash(&b, &p));
        assert_eq!(design_hash(&a, &p), design_hash(&a, &p));
    }

    #[test]
    fn clean_facts_cover_smaller_bounds_only() {
        let mut p = ExprPool::new();
        let ts = toy_system(&mut p, 9);
        let slice = aqed_tsys::coi_slice(&ts, &p, &[0]);
        let h = cone_hash(&slice, &p);
        let store = ArtifactStore::new();
        let name = "counter_hits_target";
        assert!(store
            .lookup_cone_outcome(h, 0, name, 4, &slice, &ts, &p)
            .is_none());
        store.record_cone_outcome(h, name, &CheckOutcome::Clean { bound: 6 }, &slice);
        // Covered bound: served, re-bounded to the request.
        assert!(matches!(
            store.lookup_cone_outcome(h, 0, name, 4, &slice, &ts, &p),
            Some(CheckOutcome::Clean { bound: 4 })
        ));
        // Deeper than anything known: miss.
        assert!(store
            .lookup_cone_outcome(h, 0, name, 8, &slice, &ts, &p)
            .is_none());
        // Wrong bad name (collision guard): miss.
        assert!(store
            .lookup_cone_outcome(h, 0, "other", 4, &slice, &ts, &p)
            .is_none());
        assert_eq!(store.cone_hits(), 1);
        assert_eq!(store.cone_misses(), 3);
    }

    #[test]
    fn budget_limited_outcomes_are_never_recorded() {
        let mut p = ExprPool::new();
        let ts = toy_system(&mut p, 9);
        let slice = aqed_tsys::coi_slice(&ts, &p, &[0]);
        let h = cone_hash(&slice, &p);
        let store = ArtifactStore::new();
        let name = "counter_hits_target";
        store.record_cone_outcome(
            h,
            name,
            &CheckOutcome::Inconclusive {
                bound: 3,
                reason: StopReason::Conflicts,
            },
            &slice,
        );
        store.record_cone_outcome(
            h,
            name,
            &CheckOutcome::Errored {
                message: "worker panicked".into(),
            },
            &slice,
        );
        assert!(store
            .lookup_cone_outcome(h, 0, name, 1, &slice, &ts, &p)
            .is_none());
        assert_eq!(store.cone_outcome_count(), 0);
    }

    /// The toy counter plus an independent "noise" counter that no bad
    /// property observes — editing its step constant changes the design
    /// hash but not the bad's cone hash.
    fn split_system(pool: &mut ExprPool, bug_at: u64, noise_inc: u64) -> TransitionSystem {
        let mut ts = toy_system(pool, bug_at);
        let d = ts.add_register(pool, "d", 8, 0);
        let de = pool.var_expr(d);
        let step = pool.lit(8, noise_inc);
        let dnext = pool.add(de, step);
        ts.set_next(d, dnext);
        ts
    }

    #[test]
    fn cone_keyed_clean_facts_survive_edits_outside_the_cone() {
        let name = "counter_hits_target";
        let mut p1 = ExprPool::new();
        let a = split_system(&mut p1, 9, 1);
        let sa = aqed_tsys::coi_slice(&a, &p1, &[0]);
        let key = cone_hash(&sa, &p1);
        // The "edited" design: same cone, different noise constant.
        let mut p2 = ExprPool::new();
        let b = split_system(&mut p2, 9, 3);
        let sb = aqed_tsys::coi_slice(&b, &p2, &[0]);
        assert_ne!(design_hash(&a, &p1), design_hash(&b, &p2));
        assert_eq!(key, cone_hash(&sb, &p2));
        let store = ArtifactStore::new();
        store.record_cone_outcome(key, name, &CheckOutcome::Clean { bound: 6 }, &sa);
        assert!(matches!(
            store.lookup_cone_outcome(key, 0, name, 4, &sb, &b, &p2),
            Some(CheckOutcome::Clean { bound: 4 })
        ));
        // Deeper than the fact: miss, but the clean prefix still feeds
        // warm-start frame skipping.
        assert!(store
            .lookup_cone_outcome(key, 0, name, 8, &sb, &b, &p2)
            .is_none());
        assert_eq!(store.cone_clean_prefix(key, name), Some(6));
        assert_eq!(store.cone_clean_prefix(key, "other"), None);
        assert_eq!(store.cone_hits(), 1);
        assert_eq!(store.cone_misses(), 1);
    }

    /// A valid counterexample for `split_system(_, bug_at, _)`: drive
    /// `en` high every cycle so the counter hits `bug_at` at depth
    /// `bug_at`.
    fn counter_cex(ts: &TransitionSystem, pool: &ExprPool, bug_at: usize) -> Counterexample {
        let en = ts.inputs()[0];
        let mut trace = Trace::new();
        for _ in 0..=bug_at {
            trace.push_frame(vec![(en, Bv::new(1, 1))]);
        }
        let cex = Counterexample {
            bad_name: "counter_hits_target".into(),
            bad_index: 0,
            depth: bug_at,
            trace,
            initial_state: HashMap::new(),
        };
        assert!(cex.replay(ts, pool), "hand-built witness must replay");
        cex
    }

    #[test]
    fn cone_keyed_bugs_replay_after_an_edit_outside_the_cone() {
        let name = "counter_hits_target";
        let mut p1 = ExprPool::new();
        let a = split_system(&mut p1, 2, 1);
        let sa = aqed_tsys::coi_slice(&a, &p1, &[0]);
        let key = cone_hash(&sa, &p1);
        let store = ArtifactStore::new();
        let outcome = CheckOutcome::Bug {
            property: PropertyKind::Fc,
            counterexample: counter_cex(&a, &p1, 2),
        };
        store.record_cone_outcome(key, name, &outcome, &sa);
        // Same cone, edited noise constant: the bug is served after
        // decode + widen + replay against the *new* full design.
        let mut p2 = ExprPool::new();
        let b = split_system(&mut p2, 2, 7);
        let sb = aqed_tsys::coi_slice(&b, &p2, &[0]);
        assert_eq!(key, cone_hash(&sb, &p2));
        match store.lookup_cone_outcome(key, 0, name, 6, &sb, &b, &p2) {
            Some(CheckOutcome::Bug { counterexample, .. }) => {
                assert_eq!(counterexample.depth, 2);
                assert!(counterexample.replay(&b, &p2));
            }
            other => panic!("expected served bug, got {other:?}"),
        }
        // A bug deeper than the horizon answers clean at the horizon.
        assert!(matches!(
            store.lookup_cone_outcome(key, 0, name, 1, &sb, &b, &p2),
            Some(CheckOutcome::Clean { bound: 1 })
        ));
    }

    #[test]
    fn cone_keyed_bug_that_fails_replay_is_dropped_not_served() {
        let name = "counter_hits_target";
        let mut p1 = ExprPool::new();
        let a = split_system(&mut p1, 2, 1);
        let sa = aqed_tsys::coi_slice(&a, &p1, &[0]);
        // Simulate a 64-bit key collision: file the depth-2 witness
        // under the key of a *different* cone (bug at 5).
        let mut p2 = ExprPool::new();
        let b = split_system(&mut p2, 5, 1);
        let sb = aqed_tsys::coi_slice(&b, &p2, &[0]);
        let wrong_key = cone_hash(&sb, &p2);
        let store = ArtifactStore::new();
        let outcome = CheckOutcome::Bug {
            property: PropertyKind::Fc,
            counterexample: counter_cex(&a, &p1, 2),
        };
        store.record_cone_outcome(wrong_key, name, &outcome, &sa);
        // The witness decodes against b's slice but does not replay on
        // b (its counter hits 5, not 2): the gate turns the collision
        // into a miss and evicts the poisoned entry.
        assert!(store
            .lookup_cone_outcome(wrong_key, 0, name, 6, &sb, &b, &p2)
            .is_none());
        assert_eq!(store.cone_outcome_count(), 0, "poisoned entry evicted");
    }

    #[test]
    fn learnt_packs_merge_by_depth_and_ignore_empties() {
        let store = ArtifactStore::new();
        let name = "BAD_FC";
        let deep = LearntPack {
            frame_vars: vec![10, 20, 30],
            clauses: vec![vec![0, 3], vec![5]],
        };
        store.record_learnt_pack(7, name, deep.clone());
        assert_eq!(store.lookup_learnt_pack(7, name), Some(deep.clone()));
        assert_eq!(store.lookup_learnt_pack(7, "other"), None);
        assert_eq!(store.lookup_learnt_pack(8, name), None);
        // A shallower pack never replaces a deeper one.
        let shallow = LearntPack {
            frame_vars: vec![10, 20],
            clauses: vec![vec![1]],
        };
        store.record_learnt_pack(7, name, shallow);
        assert_eq!(store.lookup_learnt_pack(7, name), Some(deep));
        // Same depth: the fresher pack wins.
        let fresh = LearntPack {
            frame_vars: vec![10, 20, 30],
            clauses: vec![vec![9]],
        };
        store.record_learnt_pack(7, name, fresh.clone());
        assert_eq!(store.lookup_learnt_pack(7, name), Some(fresh));
        // Empty packs are dropped on the floor.
        store.record_learnt_pack(9, name, LearntPack::default());
        assert_eq!(store.lookup_learnt_pack(9, name), None);
        assert_eq!(store.pack_count(), 1);
        assert_eq!(store.packs_recorded(), 2);
    }

    #[test]
    fn cone_facts_and_packs_persist_across_reopen() {
        let dir = std::env::temp_dir().join(format!("aqed-artifact-cone-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let name = "counter_hits_target";
        let mut p1 = ExprPool::new();
        let a = split_system(&mut p1, 2, 1);
        let sa = aqed_tsys::coi_slice(&a, &p1, &[0]);
        let key = cone_hash(&sa, &p1);
        let pack = LearntPack {
            frame_vars: vec![4, 9],
            clauses: vec![vec![2, 4]],
        };
        {
            let store = ArtifactStore::open(&dir).expect("open fresh store");
            store.record_cone_outcome(key, name, &CheckOutcome::Clean { bound: 1 }, &sa);
            let bug = CheckOutcome::Bug {
                property: PropertyKind::Fc,
                counterexample: counter_cex(&a, &p1, 2),
            };
            store.record_cone_outcome(key, name, &bug, &sa);
            store.record_learnt_pack(key, name, pack.clone());
            // Drop flushes the journal.
        }
        let store = ArtifactStore::open(&dir).expect("reopen store");
        assert_eq!(store.truncated_records(), 0);
        assert_eq!(store.lookup_learnt_pack(key, name), Some(pack));
        // The recovered bug still passes the replay gate on an edited
        // design with the same cone.
        let mut p2 = ExprPool::new();
        let b = split_system(&mut p2, 2, 9);
        let sb = aqed_tsys::coi_slice(&b, &p2, &[0]);
        match store.lookup_cone_outcome(key, 0, name, 6, &sb, &b, &p2) {
            Some(CheckOutcome::Bug { counterexample, .. }) => {
                assert_eq!(counterexample.depth, 2);
            }
            other => panic!("expected recovered bug, got {other:?}"),
        }
        let stats = store.stats_json().to_string();
        assert!(
            stats.contains("\"journal_bytes\""),
            "footprint in stats: {stats}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
