//! Precompute-ahead pools for epoch crypto.
//!
//! An epoch's expensive setup — the PRF sweeps deriving `K_t`, every
//! source's `k_{i,t}` and `ss_{i,t}`, and the querier's `K_t⁻¹`,
//! `Σ k_{i,t}` and `Σ ss_{i,t}` — depends only on the epoch number and
//! long-term keys, so it can run during the inter-epoch idle gap
//! instead of on the epoch's critical path. This module supplies the
//! policy and the pool; [`crate::deploy::SiesDeployment`] provides the
//! derivation and consumption (one entry per epoch, a sources' half and
//! a querier's half), and [`crate::engine::Engine::run_epochs`] paces a
//! background warmer thread.
//!
//! The two halves are looked up and counted apart: [`PrewarmPool::lookup`]
//! is the sources' probe (`hits`, `misses` and the `net.prewarm.{lookups,
//! hits,misses}` counters, whose ratio is the pool's miss rate), and
//! [`PrewarmPool::lookup_querier`] the querier's (`querier_hits`,
//! `querier_misses`, `net.prewarm.querier_*`).
//!
//! The split is deliberate: [`PrewarmPolicy`] is pure arithmetic (what
//! to derive next, what to evict) and [`PrewarmPool`] is a plain keyed
//! store with counters, so both are unit-testable without a deployment
//! or an engine. Neither ever *changes* a result — a pool hit returns
//! exactly the bytes on-demand derivation would produce (the scheme
//! asserts this), so digests are identical regardless of pool state.

use sies_core::Epoch;
use sies_telemetry as tel;
use std::collections::BTreeMap;

/// When and how far ahead to precompute. Pure decision logic: given the
/// engine's progress watermark, [`PrewarmPolicy::plan`] says which
/// epochs a warmer should derive next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrewarmPolicy {
    /// Master switch. A disabled policy plans nothing and the pool
    /// never hits, so every epoch takes the on-demand path.
    pub enabled: bool,
    /// How many epochs past the watermark to keep derived (the
    /// look-ahead horizon).
    pub depth: u64,
    /// Maximum entries retained; inserting beyond this evicts the
    /// oldest epoch first.
    pub capacity: usize,
}

impl Default for PrewarmPolicy {
    fn default() -> Self {
        PrewarmPolicy {
            enabled: true,
            depth: 2,
            capacity: 4,
        }
    }
}

impl PrewarmPolicy {
    /// A policy that never precomputes (the pool becomes inert).
    pub fn disabled() -> Self {
        PrewarmPolicy {
            enabled: false,
            depth: 0,
            capacity: 0,
        }
    }

    /// The epochs worth deriving once the engine has finished
    /// `watermark`: `watermark + 1 ..= watermark + depth`, minus those
    /// `have` already covers, oldest first (the next epoch to run is
    /// the most urgent). Pure — callers pass a membership probe.
    pub fn plan(&self, watermark: Epoch, have: impl Fn(Epoch) -> bool) -> Vec<Epoch> {
        if !self.enabled || self.depth == 0 {
            return Vec::new();
        }
        (1..=self.depth)
            .filter_map(|d| watermark.checked_add(d))
            .filter(|&e| !have(e))
            .collect()
    }

    /// Whether a pooled epoch is stale once the engine has finished
    /// `watermark` (its keys can no longer be consumed).
    pub fn is_stale(&self, epoch: Epoch, watermark: Epoch) -> bool {
        epoch <= watermark
    }
}

/// Lifetime counters for one pool. Hits and misses only count lookups
/// while the policy is enabled, so a disabled pool reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrewarmStats {
    /// Sources' lookups served from the pool.
    pub hits: u64,
    /// Enabled sources' lookups that fell through to on-demand
    /// derivation.
    pub misses: u64,
    /// Querier lookups served from the pool.
    pub querier_hits: u64,
    /// Enabled querier lookups that fell through to the sweep.
    pub querier_misses: u64,
    /// Entries inserted (successful derivations).
    pub derived: u64,
    /// Entries dropped for capacity or staleness.
    pub evicted: u64,
    /// Entries dropped by [`PrewarmPool::cancel_all`] (e.g. a topology
    /// repair invalidating in-flight precomputation).
    pub cancelled: u64,
}

/// An epoch-keyed store of precomputed values with hit/miss accounting.
/// Generic over the payload so the policy mechanics are testable with
/// plain integers; the deployment instantiates it with an
/// `Arc<EpochKeyMaterial>` so lookups stay non-destructive and cheap.
#[derive(Debug)]
pub struct PrewarmPool<T> {
    policy: PrewarmPolicy,
    entries: BTreeMap<Epoch, T>,
    stats: PrewarmStats,
}

impl<T> PrewarmPool<T> {
    /// An empty pool under `policy`.
    pub fn new(policy: PrewarmPolicy) -> Self {
        PrewarmPool {
            policy,
            entries: BTreeMap::new(),
            stats: PrewarmStats::default(),
        }
    }

    /// The governing policy.
    pub fn policy(&self) -> &PrewarmPolicy {
        &self.policy
    }

    /// Replaces the policy. Disabling clears the pool (counted as
    /// cancelled) so stale entries cannot linger invisibly.
    pub fn set_policy(&mut self, policy: PrewarmPolicy) {
        self.policy = policy;
        if !policy.enabled {
            self.cancel_all();
        }
    }

    /// The epochs a warmer should derive next, given the engine's
    /// watermark (see [`PrewarmPolicy::plan`]).
    pub fn plan(&self, watermark: Epoch) -> Vec<Epoch> {
        self.policy
            .plan(watermark, |e| self.entries.contains_key(&e))
    }

    /// Whether `epoch` is already pooled.
    pub fn contains(&self, epoch: Epoch) -> bool {
        self.entries.contains_key(&epoch)
    }

    /// Inserts freshly derived material for `epoch`. Returns `false`
    /// (dropping the value) when the policy is disabled or the epoch is
    /// already present — two warmers racing on the same epoch keep the
    /// first result. Evicts oldest-first beyond capacity.
    pub fn insert(&mut self, epoch: Epoch, value: T) -> bool {
        if !self.policy.enabled || self.entries.contains_key(&epoch) {
            return false;
        }
        self.entries.insert(epoch, value);
        self.stats.derived += 1;
        tel::count!("net.prewarm.derived");
        while self.entries.len() > self.policy.capacity.max(1) {
            self.entries.pop_first();
            self.stats.evicted += 1;
            tel::count!("net.prewarm.evicted");
        }
        true
    }

    /// The sources' lookup, non-destructive: the entry stays pooled, so
    /// concurrent shard workers of one epoch all hit. Counts a hit or
    /// miss only while enabled — a disabled pool is invisible in the
    /// stats.
    pub fn lookup(&mut self, epoch: Epoch) -> Option<&T> {
        if !self.policy.enabled {
            return None;
        }
        // Denominator of the miss rate over a snapshot window (hits and
        // misses alone can't give a stable rate).
        tel::count!("net.prewarm.lookups");
        match self.entries.get(&epoch) {
            Some(v) => {
                self.stats.hits += 1;
                tel::count!("net.prewarm.hits");
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                tel::count!("net.prewarm.misses");
                None
            }
        }
    }

    /// The querier's lookup: [`PrewarmPool::lookup`], counted in
    /// `querier_hits`/`querier_misses` and the `net.prewarm.querier_*`
    /// counters, so the sources' hit ratio and miss rate keep their
    /// meaning.
    pub fn lookup_querier(&mut self, epoch: Epoch) -> Option<&T> {
        if !self.policy.enabled {
            return None;
        }
        tel::count!("net.prewarm.querier_lookups");
        match self.entries.get(&epoch) {
            Some(v) => {
                self.stats.querier_hits += 1;
                tel::count!("net.prewarm.querier_hits");
                Some(v)
            }
            None => {
                self.stats.querier_misses += 1;
                tel::count!("net.prewarm.querier_misses");
                None
            }
        }
    }

    /// Drops entries the watermark has passed
    /// ([`PrewarmPolicy::is_stale`]), counting them as evicted.
    pub fn retire(&mut self, watermark: Epoch) {
        let policy = self.policy;
        let before = self.entries.len();
        self.entries.retain(|&e, _| !policy.is_stale(e, watermark));
        let dropped = (before - self.entries.len()) as u64;
        self.stats.evicted += dropped;
        tel::count!("net.prewarm.evicted", dropped);
    }

    /// Empties the pool (topology repair, shutdown), counting the
    /// dropped entries as cancelled. Already-derived keys may no longer
    /// match the upcoming epoch's contributor set, and correctness never
    /// depends on pool contents, so wholesale invalidation is always
    /// safe.
    pub fn cancel_all(&mut self) {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.stats.cancelled += dropped;
        tel::count!("net.prewarm.cancelled", dropped);
    }

    /// Entries currently pooled.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> PrewarmStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_skips_pooled() {
        let policy = PrewarmPolicy {
            enabled: true,
            depth: 3,
            capacity: 8,
        };
        assert_eq!(policy.plan(10, |_| false), vec![11, 12, 13]);
        assert_eq!(policy.plan(10, |e| e == 12), vec![11, 13]);
        assert_eq!(policy.plan(10, |_| true), Vec::<Epoch>::new());
        // Near the epoch-counter ceiling the plan clips, not wraps.
        assert_eq!(policy.plan(u64::MAX - 1, |_| false), vec![u64::MAX]);
        assert!(PrewarmPolicy::disabled().plan(10, |_| false).is_empty());
    }

    #[test]
    fn pool_hits_and_misses_are_counted() {
        let mut pool: PrewarmPool<&str> = PrewarmPool::new(PrewarmPolicy::default());
        assert!(pool.lookup(5).is_none());
        assert!(pool.insert(5, "keys-5"));
        assert_eq!(pool.lookup(5), Some(&"keys-5"));
        // Non-destructive: a second lookup still hits.
        assert_eq!(pool.lookup(5), Some(&"keys-5"));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.derived), (2, 1, 1));
        // The querier's lookups count apart from the sources'.
        assert_eq!(pool.lookup_querier(5), Some(&"keys-5"));
        assert!(pool.lookup_querier(6).is_none());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 1));
        assert_eq!((s.querier_hits, s.querier_misses), (1, 1));
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let mut pool: PrewarmPool<&str> = PrewarmPool::new(PrewarmPolicy::default());
        assert!(pool.insert(7, "first"));
        assert!(!pool.insert(7, "second"));
        assert_eq!(pool.lookup(7), Some(&"first"));
        assert_eq!(pool.stats().derived, 1);
    }

    #[test]
    fn capacity_exhaustion_evicts_oldest() {
        let mut pool: PrewarmPool<u32> = PrewarmPool::new(PrewarmPolicy {
            enabled: true,
            depth: 8,
            capacity: 2,
        });
        for e in 1..=4 {
            pool.insert(e, e as u32 * 100);
        }
        assert_eq!(pool.len(), 2);
        assert!(pool.lookup(1).is_none(), "oldest evicted");
        assert!(pool.lookup(2).is_none());
        assert_eq!(pool.lookup(3), Some(&300));
        assert_eq!(pool.lookup(4), Some(&400));
        assert_eq!(pool.stats().evicted, 2);
    }

    #[test]
    fn retire_drops_stale_epochs() {
        let mut pool: PrewarmPool<u32> = PrewarmPool::new(PrewarmPolicy {
            enabled: true,
            depth: 4,
            capacity: 8,
        });
        for e in 1..=4 {
            pool.insert(e, 0);
        }
        pool.retire(2);
        assert_eq!(pool.len(), 2);
        assert!(!pool.contains(1));
        assert!(!pool.contains(2));
        assert!(pool.contains(3));
        assert_eq!(pool.stats().evicted, 2);
        // The plan refills exactly the retired horizon.
        assert_eq!(pool.plan(2), vec![5, 6]);
    }

    #[test]
    fn cancellation_empties_pool_and_counts() {
        let mut pool: PrewarmPool<u32> = PrewarmPool::new(PrewarmPolicy::default());
        pool.insert(1, 0);
        pool.insert(2, 0);
        pool.cancel_all();
        assert!(pool.is_empty());
        assert_eq!(pool.stats().cancelled, 2);
        // Cancellation is not a disable: the pool keeps working.
        assert!(pool.insert(3, 0));
        assert_eq!(pool.lookup(3), Some(&0));
    }

    #[test]
    fn disabled_pool_is_inert() {
        let mut pool: PrewarmPool<u32> = PrewarmPool::new(PrewarmPolicy::disabled());
        assert!(!pool.insert(1, 0));
        assert!(pool.lookup(1).is_none());
        assert!(pool.plan(0).is_empty());
        assert_eq!(pool.stats(), PrewarmStats::default());
        // Disabling a live pool cancels its entries.
        let mut live: PrewarmPool<u32> = PrewarmPool::new(PrewarmPolicy::default());
        live.insert(4, 0);
        live.set_policy(PrewarmPolicy::disabled());
        assert!(live.is_empty());
        assert_eq!(live.stats().cancelled, 1);
        assert!(live.lookup(4).is_none());
        assert!(live.lookup_querier(4).is_none());
        assert_eq!(live.stats().misses, 0, "disabled misses are not counted");
        assert_eq!(live.stats().querier_misses, 0);
    }
}
