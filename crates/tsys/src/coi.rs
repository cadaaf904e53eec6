//! Cone-of-influence reduction.
//!
//! Per-obligation slicing of a [`TransitionSystem`]: given the indices of
//! the bad properties one BMC run actually checks, [`coi_slice`] keeps
//! only the inputs and registers that can influence those properties (or
//! any environment constraint) and drops everything else before the
//! system is ever unrolled. An FC obligation on a composed A-QED system
//! then never pays for the RB monitor's counters, and vice versa — the
//! word-level half of the pre-search simplification pipeline.
//!
//! The cone is the least fixpoint of variable support: it is seeded with
//! the support of every selected bad *and every constraint* (a constraint
//! over unrelated variables can still be unsatisfiable, which legitimately
//! discharges any property — dropping it would be unsound), and closed
//! under the `next`/`init` expressions of every state variable already in
//! the cone.

use crate::{StateVar, TransitionSystem};
use aqed_expr::{ExprPool, ExprRef, VarId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Result of [`coi_slice`]: the reduced system plus the bookkeeping
/// needed to map a verdict on the slice back onto the original system.
#[derive(Debug, Clone)]
pub struct CoiSlice {
    /// The sliced system. Shares the original's [`ExprPool`] and
    /// `VarId`s; inputs and states appear in their original declaration
    /// order, all constraints are retained, and the bads are exactly the
    /// selected ones.
    pub system: TransitionSystem,
    /// `bad_map[i]` is the original index of the slice's bad `i`.
    pub bad_map: Vec<usize>,
    /// State variables retained in the cone.
    pub latches_kept: usize,
    /// State variables sliced away.
    pub latches_dropped: usize,
    /// Inputs retained in the cone.
    pub inputs_kept: usize,
    /// Inputs sliced away.
    pub inputs_dropped: usize,
}

/// Slices `ts` to the cone of influence of the bads at `bad_indices`
/// (plus every constraint).
///
/// Outputs are retained only when their full support lies inside the
/// cone, keeping the slice valid without growing it.
///
/// # Panics
///
/// Panics if a bad index is out of range.
#[must_use]
pub fn coi_slice(ts: &TransitionSystem, pool: &ExprPool, bad_indices: &[usize]) -> CoiSlice {
    coi_slice_cached(ts, pool, bad_indices, None)
}

/// [`coi_slice`] with an optional per-run [`CoiCache`]. With a cache,
/// the expensive part — the support fixpoint over the whole system —
/// runs once per `(system, bad-set)` key instead of once per BMC call;
/// only the (cheap) construction of the sliced system repeats.
///
/// # Panics
///
/// Panics if a bad index is out of range, or if `cache` was previously
/// used with a different system (see [`CoiCache`]).
#[must_use]
pub fn coi_slice_cached(
    ts: &TransitionSystem,
    pool: &ExprPool,
    bad_indices: &[usize],
    cache: Option<&CoiCache>,
) -> CoiSlice {
    let cone = match cache {
        None => Arc::new(compute_cone(ts, pool, bad_indices)),
        Some(cache) => cache.cone(ts, pool, bad_indices),
    };
    build_slice(ts, pool, bad_indices, &cone)
}

/// The least-fixpoint variable support of the selected bads plus every
/// constraint, closed under `next`/`init` of in-cone state variables.
fn compute_cone(ts: &TransitionSystem, pool: &ExprPool, bad_indices: &[usize]) -> HashSet<VarId> {
    let roots: Vec<ExprRef> = bad_indices
        .iter()
        .map(|&i| ts.bads()[i].1)
        .chain(ts.constraints().iter().copied())
        .collect();
    let mut cone: HashSet<VarId> = pool
        .support_all(roots.iter().copied())
        .into_iter()
        .collect();
    // Close under next/init of state variables already in the cone.
    let mut frontier: Vec<VarId> = cone.iter().copied().collect();
    while let Some(v) = frontier.pop() {
        let Some(s) = state_of(ts, v) else { continue };
        for root in [s.next, s.init].into_iter().flatten() {
            for d in pool.support(root) {
                if cone.insert(d) {
                    frontier.push(d);
                }
            }
        }
    }
    cone
}

fn build_slice(
    ts: &TransitionSystem,
    pool: &ExprPool,
    bad_indices: &[usize],
    cone: &HashSet<VarId>,
) -> CoiSlice {
    let mut sliced = TransitionSystem::new(format!("{}#coi", ts.name()));
    sliced.inputs = ts
        .inputs()
        .iter()
        .copied()
        .filter(|v| cone.contains(v))
        .collect();
    for s in ts.states() {
        if cone.contains(&s.var) {
            sliced.state_index.insert(s.var, sliced.states.len());
            sliced.states.push(*s);
        }
    }
    sliced.constraints = ts.constraints().to_vec();
    sliced.bads = bad_indices.iter().map(|&i| ts.bads()[i].clone()).collect();
    sliced.outputs = ts
        .outputs()
        .iter()
        .filter(|(_, e)| pool.support(*e).iter().all(|v| cone.contains(v)))
        .cloned()
        .collect();

    CoiSlice {
        latches_kept: sliced.states.len(),
        latches_dropped: ts.states().len() - sliced.states.len(),
        inputs_kept: sliced.inputs.len(),
        inputs_dropped: ts.inputs().len() - sliced.inputs.len(),
        system: sliced,
        bad_map: bad_indices.to_vec(),
    }
}

fn state_of(ts: &TransitionSystem, v: VarId) -> Option<&StateVar> {
    ts.state_index.get(&v).map(|&i| &ts.states[i])
}

/// Per-run memo for the COI support fixpoint, shared (via `Arc`) by all
/// obligations of one parallel verification run.
///
/// Two levels of reuse:
///
/// 1. A **support index** — per-bad and per-constraint variable
///    supports plus each state variable's `next`/`init` dependencies —
///    built once on first use. Every subsequent cone is a cheap BFS
///    over precomputed lists instead of a fresh expression traversal.
/// 2. A **cone memo** keyed by the sorted bad-index set, so retries and
///    repeated checks of the same obligation skip even the BFS.
///
/// # One system per cache
///
/// `VarId`s and bad indices are only meaningful relative to one
/// `(TransitionSystem, ExprPool)` pair. The cache fingerprints the
/// first system it sees and panics if later queries disagree — create
/// one cache per composed system per run, never a process-global one.
#[derive(Debug, Default)]
pub struct CoiCache {
    index: OnceLock<SupportIndex>,
    cones: Mutex<HashMap<Vec<usize>, Arc<HashSet<VarId>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug)]
struct SupportIndex {
    /// `(name, #inputs, #states, #bads)` of the system the cache is
    /// bound to.
    fingerprint: (String, usize, usize, usize),
    /// Support of each bad expression, by bad index.
    bads: Vec<Vec<VarId>>,
    /// Union of the supports of all constraints.
    constraints: Vec<VarId>,
    /// For each state variable, the support of its `next` and `init`.
    state_deps: HashMap<VarId, Vec<VarId>>,
}

impl SupportIndex {
    fn build(ts: &TransitionSystem, pool: &ExprPool) -> Self {
        SupportIndex {
            fingerprint: fingerprint(ts),
            bads: ts.bads().iter().map(|(_, e)| pool.support(*e)).collect(),
            constraints: pool.support_all(ts.constraints().iter().copied()),
            state_deps: ts
                .states()
                .iter()
                .map(|s| {
                    (
                        s.var,
                        pool.support_all([s.next, s.init].into_iter().flatten()),
                    )
                })
                .collect(),
        }
    }

    /// Cone BFS over the precomputed supports; equivalent to
    /// [`compute_cone`].
    fn cone(&self, bad_indices: &[usize]) -> HashSet<VarId> {
        let mut cone: HashSet<VarId> = HashSet::new();
        let mut frontier: Vec<VarId> = Vec::new();
        let seeds = bad_indices
            .iter()
            .flat_map(|&i| self.bads[i].iter())
            .chain(self.constraints.iter());
        for &v in seeds {
            if cone.insert(v) {
                frontier.push(v);
            }
        }
        while let Some(v) = frontier.pop() {
            let Some(deps) = self.state_deps.get(&v) else {
                continue;
            };
            for &d in deps {
                if cone.insert(d) {
                    frontier.push(d);
                }
            }
        }
        cone
    }
}

fn fingerprint(ts: &TransitionSystem) -> (String, usize, usize, usize) {
    (
        ts.name().to_owned(),
        ts.inputs().len(),
        ts.states().len(),
        ts.bads().len(),
    )
}

impl CoiCache {
    #[must_use]
    pub fn new() -> Self {
        CoiCache::default()
    }

    /// Cone memo lookups that were served without recomputation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cone memo lookups that had to run the BFS.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn cone(
        &self,
        ts: &TransitionSystem,
        pool: &ExprPool,
        bad_indices: &[usize],
    ) -> Arc<HashSet<VarId>> {
        let index = self.index.get_or_init(|| SupportIndex::build(ts, pool));
        assert_eq!(
            index.fingerprint,
            fingerprint(ts),
            "CoiCache reused across different systems"
        );
        let mut key: Vec<usize> = bad_indices.to_vec();
        key.sort_unstable();
        key.dedup();
        if let Some(cone) = lock_cones(&self.cones).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if aqed_obs::enabled() {
                aqed_obs::metrics::global().counter("coi.cache.hits").inc();
            }
            return cone.clone();
        }
        // Compute outside the lock; concurrent misses on the same key do
        // (identical) duplicate work and the last insert wins — benign.
        self.misses.fetch_add(1, Ordering::Relaxed);
        if aqed_obs::enabled() {
            aqed_obs::metrics::global()
                .counter("coi.cache.misses")
                .inc();
        }
        let cone = Arc::new(index.cone(&key));
        lock_cones(&self.cones).insert(key, cone.clone());
        cone
    }
}

fn lock_cones(
    m: &Mutex<HashMap<Vec<usize>, Arc<HashSet<VarId>>>>,
) -> std::sync::MutexGuard<'_, HashMap<Vec<usize>, Arc<HashSet<VarId>>>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqed_expr::ExprPool;

    /// Two independent counters; one bad on each.
    fn two_counters(pool: &mut ExprPool) -> TransitionSystem {
        let mut ts = TransitionSystem::new("pair");
        let ena = ts.add_input(pool, "ena", 1);
        let enb = ts.add_input(pool, "enb", 1);
        let a = ts.add_register(pool, "a", 4, 0);
        let b = ts.add_register(pool, "b", 4, 0);
        for (reg, en) in [(a, ena), (b, enb)] {
            let re = pool.var_expr(reg);
            let one = pool.lit(4, 1);
            let inc = pool.add(re, one);
            let ene = pool.var_expr(en);
            let next = pool.ite(ene, inc, re);
            ts.set_next(reg, next);
        }
        let ae = pool.var_expr(a);
        let be = pool.var_expr(b);
        let five = pool.lit(4, 5);
        let a5 = pool.eq(ae, five);
        let b5 = pool.eq(be, five);
        ts.add_bad("a_reaches_5", a5);
        ts.add_bad("b_reaches_5", b5);
        ts.add_output("a_val", ae);
        ts.add_output("b_val", be);
        ts
    }

    #[test]
    fn slices_independent_halves() {
        let mut p = ExprPool::new();
        let ts = two_counters(&mut p);
        let slice = coi_slice(&ts, &p, &[1]);
        assert_eq!(slice.latches_kept, 1);
        assert_eq!(slice.latches_dropped, 1);
        assert_eq!(slice.inputs_kept, 1);
        assert_eq!(slice.inputs_dropped, 1);
        assert_eq!(slice.bad_map, vec![1]);
        assert_eq!(slice.system.bads().len(), 1);
        assert_eq!(slice.system.bads()[0].0, "b_reaches_5");
        // Only the output over the kept half survives.
        assert_eq!(slice.system.outputs().len(), 1);
        assert_eq!(slice.system.outputs()[0].0, "b_val");
        slice.system.validate(&p).expect("slice is well-formed");
    }

    #[test]
    fn all_bads_keep_everything() {
        let mut p = ExprPool::new();
        let ts = two_counters(&mut p);
        let slice = coi_slice(&ts, &p, &[0, 1]);
        assert_eq!(slice.latches_dropped, 0);
        assert_eq!(slice.inputs_dropped, 0);
        assert_eq!(slice.system.bads().len(), 2);
        slice.system.validate(&p).expect("slice is well-formed");
    }

    #[test]
    fn constraints_pull_their_support_into_the_cone() {
        let mut p = ExprPool::new();
        let mut ts = two_counters(&mut p);
        // A constraint over the a-half: even a b-only obligation must
        // keep it (and therefore the a-half it reads).
        let ena = ts.inputs()[0];
        let ene = p.var_expr(ena);
        let nen = p.not(ene);
        ts.add_constraint(nen);
        let slice = coi_slice(&ts, &p, &[1]);
        assert_eq!(slice.system.constraints().len(), 1);
        assert!(slice.system.inputs().contains(&ena));
        slice.system.validate(&p).expect("slice is well-formed");
    }

    #[test]
    fn cached_slices_match_uncached_and_count_hits() {
        let mut p = ExprPool::new();
        let ts = two_counters(&mut p);
        let cache = CoiCache::new();
        for &bads in &[&[0usize][..], &[1], &[0, 1]] {
            let plain = coi_slice(&ts, &p, bads);
            let cached = coi_slice_cached(&ts, &p, bads, Some(&cache));
            assert_eq!(plain.bad_map, cached.bad_map);
            assert_eq!(plain.latches_kept, cached.latches_kept);
            assert_eq!(plain.latches_dropped, cached.latches_dropped);
            assert_eq!(plain.inputs_kept, cached.inputs_kept);
            assert_eq!(plain.system.bads().len(), cached.system.bads().len());
            assert_eq!(plain.system.states().len(), cached.system.states().len());
            assert_eq!(plain.system.inputs(), cached.system.inputs());
            cached
                .system
                .validate(&p)
                .expect("cached slice is well-formed");
        }
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        // Re-slicing any seen bad-set is a pure memo hit.
        let _ = coi_slice_cached(&ts, &p, &[1], Some(&cache));
        let _ = coi_slice_cached(&ts, &p, &[0, 1], Some(&cache));
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    #[should_panic(expected = "CoiCache reused across different systems")]
    fn cache_rejects_a_different_system() {
        let mut p = ExprPool::new();
        let ts = two_counters(&mut p);
        let cache = CoiCache::new();
        let _ = coi_slice_cached(&ts, &p, &[0], Some(&cache));
        let mut other = two_counters(&mut p);
        other.add_bad("extra", other.bads()[0].1);
        let _ = coi_slice_cached(&other, &p, &[0], Some(&cache));
    }

    #[test]
    fn chained_state_dependencies_are_transitive() {
        let mut p = ExprPool::new();
        let mut ts = TransitionSystem::new("chain");
        // s2 <- s1 <- s0 <- input; bad reads only s2, but the whole
        // chain must stay.
        let i = ts.add_input(&mut p, "i", 4);
        let s0 = ts.add_register(&mut p, "s0", 4, 0);
        let s1 = ts.add_register(&mut p, "s1", 4, 0);
        let s2 = ts.add_register(&mut p, "s2", 4, 0);
        let unrelated = ts.add_register(&mut p, "unrelated", 4, 0);
        let ie = p.var_expr(i);
        let s0e = p.var_expr(s0);
        let s1e = p.var_expr(s1);
        let ue = p.var_expr(unrelated);
        let one = p.lit(4, 1);
        let next_u = p.add(ue, one);
        ts.set_next(s0, ie);
        ts.set_next(s1, s0e);
        ts.set_next(s2, s1e);
        ts.set_next(unrelated, next_u);
        let s2e = p.var_expr(s2);
        let seven = p.lit(4, 7);
        let hit = p.eq(s2e, seven);
        ts.add_bad("s2_is_7", hit);
        let slice = coi_slice(&ts, &p, &[0]);
        assert_eq!(slice.latches_kept, 3);
        assert_eq!(slice.latches_dropped, 1);
        assert!(slice.system.is_state(s0));
        assert!(!slice.system.is_state(unrelated));
        slice.system.validate(&p).expect("slice is well-formed");
    }
}
