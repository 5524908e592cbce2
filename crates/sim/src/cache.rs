//! A lightweight MSI private-cache model.
//!
//! Each core owns an L1 with configurable sets/ways and LRU replacement.
//! The model tracks just enough protocol state for the behaviours the
//! validation framework observes: hit/miss latency, coherence transfers,
//! shared-to-modified upgrades (bug 1's trigger window), invalidations of
//! remote copies, and dirty writebacks on eviction (bug 3's racy `PUTX`).

use crate::CacheConfig;

/// Coherence state of a line in one core's cache.
#[derive(Copy, Clone, Debug, Eq, PartialEq)]
pub enum LineState {
    /// Present, read-only, possibly shared with other cores.
    Shared,
    /// Present, writable, dirty; no other core holds a copy.
    Modified,
}

/// One resident line of a core's set, in insertion order.
#[derive(Copy, Clone, Debug)]
struct Entry {
    line: u32,
    lru: u64,
}

/// Directory state of one line across all cores.
#[derive(Copy, Clone, Debug, Default)]
struct LineDir {
    /// Bit `c` is set while core `c` holds the line.
    holders: u64,
    /// The line is modified — held by exactly one core (MSI).
    dirty: bool,
}

/// What one cache access did — consumed by the engine for timing, bug
/// triggers and contention modelling.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq)]
pub struct AccessOutcome {
    /// The access hit in the local L1.
    pub hit: bool,
    /// A shared line was upgraded to modified in place (an S->M transition,
    /// which is exactly the window bug 1 races against).
    pub upgraded: bool,
    /// The line had to be fetched from a remote core's modified copy.
    pub remote_dirty: bool,
    /// Remote cores whose copies this access invalidated (writes only).
    pub invalidated_remote: bool,
    /// A dirty line was evicted to make room — a writeback (`PUTX`) is in
    /// flight.
    pub evicted_dirty: Option<u32>,
}

/// All cores' private caches.
///
/// Each core keeps per-set LRU lists in insertion order; beside them a
/// directory records, per line, which cores hold it and whether it is
/// modified. Lookups, [`CacheModel::peek_latency`] and
/// [`CacheModel::holds`] therefore cost O(1), and a miss or upgrade visits
/// only the cores that actually hold the line.
#[derive(Clone, Debug)]
pub struct CacheModel {
    config: CacheConfig,
    /// `cores[c][set]` is the entry list for one set of core `c`.
    cores: Vec<Vec<Vec<Entry>>>,
    /// `dir[line]`, grown on demand to the highest line accessed.
    dir: Vec<LineDir>,
}

impl CacheModel {
    /// Creates cold caches for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` exceeds 64, the width of the directory's
    /// holder masks.
    pub fn new(config: CacheConfig, num_cores: usize) -> Self {
        assert!(
            num_cores <= 64,
            "the cache directory tracks at most 64 cores, got {num_cores}"
        );
        let sets = config.sets as usize;
        CacheModel {
            config,
            cores: vec![vec![Vec::new(); sets]; num_cores],
            dir: Vec::new(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn set_of(&self, line: u32) -> usize {
        (line % self.config.sets) as usize
    }

    fn dir(&self, line: u32) -> LineDir {
        self.dir.get(line as usize).copied().unwrap_or_default()
    }

    /// Drops `line` from `core`'s set, keeping the set's order.
    fn remove(&mut self, core: usize, set: usize, line: u32) {
        let entries = &mut self.cores[core][set];
        let i = entries
            .iter()
            .position(|e| e.line == line)
            .expect("directory holders are resident");
        entries.remove(i);
    }

    /// Invalidates every copy of `line` held by the cores in `holders`.
    fn invalidate(&mut self, holders: u64, set: usize, line: u32) {
        let mut rest = holders;
        while rest != 0 {
            let c = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.remove(c, set, line);
        }
    }

    /// Performs an access by `core` to `line` and returns what happened.
    /// `tick` orders LRU decisions: the victim of a full set is its first
    /// entry, in insertion order, with the smallest tick.
    pub fn access(&mut self, core: usize, line: u32, write: bool, tick: u64) -> AccessOutcome {
        let set = self.set_of(line);
        if self.dir.len() <= line as usize {
            self.dir.resize(line as usize + 1, LineDir::default());
        }
        let mut outcome = AccessOutcome::default();
        let me = 1u64 << core;
        let LineDir { holders, dirty } = self.dir[line as usize];
        let others = holders & !me;

        if holders & me != 0 {
            outcome.hit = true;
            let entry = self.cores[core][set]
                .iter_mut()
                .find(|e| e.line == line)
                .expect("directory holders are resident");
            entry.lru = tick;
            if write && !dirty {
                outcome.upgraded = true;
                outcome.invalidated_remote = others != 0;
                self.invalidate(others, set, line);
                self.dir[line as usize] = LineDir {
                    holders: me,
                    dirty: true,
                };
            }
            return outcome;
        }

        // Miss: a modified copy is the only copy, fetched from its owner;
        // a write invalidates every remote copy, a read downgrades.
        outcome.remote_dirty = dirty;
        if write {
            outcome.invalidated_remote = others != 0;
            self.invalidate(others, set, line);
            self.dir[line as usize].holders = 0;
        }

        // Insert locally, evicting LRU if the set is full.
        let ways = self.config.ways as usize;
        let set_entries = &mut self.cores[core][set];
        if set_entries.len() >= ways {
            let victim = set_entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full sets are non-empty");
            let evicted = set_entries.remove(victim);
            let slot = &mut self.dir[evicted.line as usize];
            slot.holders &= !me;
            if slot.dirty {
                slot.dirty = false;
                outcome.evicted_dirty = Some(evicted.line);
            }
        }
        self.cores[core][set].push(Entry { line, lru: tick });
        let slot = &mut self.dir[line as usize];
        slot.holders |= me;
        slot.dirty = write;
        outcome
    }

    /// Returns `true` when `core` holds `line` in the given state.
    pub fn holds(&self, core: usize, line: u32, state: LineState) -> bool {
        let dir = self.dir(line);
        dir.holders & (1u64 << core) != 0 && dir.dirty == (state == LineState::Modified)
    }

    /// Estimates the latency of an access by `core` to `line` without
    /// performing it — used by the latency-driven out-of-order commit
    /// policy (a younger L1 hit overtakes an older miss).
    pub fn peek_latency(&self, core: usize, line: u32) -> u32 {
        let dir = self.dir(line);
        if dir.holders & (1u64 << core) != 0 {
            self.config.hit_cycles
        } else if dir.dirty {
            self.config.miss_cycles + self.config.coherence_cycles
        } else {
            self.config.miss_cycles
        }
    }

    /// Cycles this access costs under the configured latencies.
    pub fn latency(&self, outcome: &AccessOutcome) -> u32 {
        if outcome.hit {
            self.config.hit_cycles
        } else if outcome.remote_dirty {
            self.config.miss_cycles + self.config.coherence_cycles
        } else {
            self.config.miss_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheModel {
        CacheModel::new(CacheConfig::l1_1k(), 2)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let first = c.access(0, 5, false, 1);
        assert!(!first.hit);
        assert_eq!(first.evicted_dirty, None);
        let second = c.access(0, 5, false, 2);
        assert!(second.hit);
        assert!(c.holds(0, 5, LineState::Shared));
    }

    #[test]
    fn write_upgrade_invalidates_sharers() {
        let mut c = tiny();
        c.access(0, 7, false, 1);
        c.access(1, 7, false, 2);
        let up = c.access(0, 7, true, 3);
        assert!(up.hit && up.upgraded && up.invalidated_remote);
        assert!(c.holds(0, 7, LineState::Modified));
        assert!(!c.holds(1, 7, LineState::Shared));
    }

    #[test]
    fn remote_dirty_fetch() {
        let mut c = tiny();
        c.access(0, 3, true, 1);
        let read = c.access(1, 3, false, 2);
        assert!(!read.hit && read.remote_dirty);
        // Owner was downgraded to shared.
        assert!(c.holds(0, 3, LineState::Shared));
        assert!(c.holds(1, 3, LineState::Shared));
        let lat_hit = c.latency(&AccessOutcome {
            hit: true,
            ..Default::default()
        });
        let lat_dirty = c.latency(&read);
        assert!(lat_dirty > lat_hit);
    }

    #[test]
    fn write_miss_steals_ownership() {
        let mut c = tiny();
        c.access(0, 9, true, 1);
        let w = c.access(1, 9, true, 2);
        assert!(!w.hit && w.remote_dirty && w.invalidated_remote);
        assert!(c.holds(1, 9, LineState::Modified));
        assert!(!c.holds(0, 9, LineState::Shared) && !c.holds(0, 9, LineState::Modified));
    }

    #[test]
    fn lru_eviction_writes_back_dirty_lines() {
        // 1 kB, 2-way: lines 0, 8, 16 all map to set 0.
        let mut c = tiny();
        c.access(0, 0, true, 1);
        c.access(0, 8, false, 2);
        let third = c.access(0, 16, false, 3);
        assert_eq!(third.evicted_dirty, Some(0), "dirty LRU line written back");
        let fourth = c.access(0, 24, false, 4);
        assert_eq!(fourth.evicted_dirty, None, "clean eviction is silent");
    }

    #[test]
    fn peek_latency_matches_subsequent_access() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut c = CacheModel::new(CacheConfig::l1_1k(), 3);
        let mut rng = SmallRng::seed_from_u64(7);
        for tick in 0..2000u64 {
            let core = rng.gen_range(0..3);
            let line = rng.gen_range(0..12);
            let write = rng.gen_bool(0.5);
            let predicted = c.peek_latency(core, line);
            let out = c.access(core, line, write, tick);
            assert_eq!(
                predicted,
                c.latency(&out),
                "peek disagrees with access at tick {tick} (core {core}, line {line}, write {write})"
            );
        }
    }

    #[test]
    fn big_cache_never_evicts_small_working_set() {
        let mut c = CacheModel::new(CacheConfig::l1_32k(), 4);
        for line in 0..128 {
            for core in 0..4 {
                let o = c.access(core, line, core == 0, (line * 4 + core as u32) as u64);
                assert_eq!(o.evicted_dirty, None);
            }
        }
    }
}
