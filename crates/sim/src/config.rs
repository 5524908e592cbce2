//! Simulated-system configuration and the Table 1 platform presets.

use crate::BugKind;
use mtc_isa::Mcm;
use serde::{Deserialize, Serialize};

/// How the scheduler interleaves threads.
#[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Pick a thread uniformly at random every step — the paper's §4.1
    /// limit-study ("in-house architectural simulator, which selects memory
    /// operations to execute in a uniformly random fashion, one at a time").
    UniformRandom,
    /// Event-driven, silicon-like behaviour: all cores race through the
    /// test in parallel from the iteration barrier, and the next commit
    /// belongs to the core with the smallest virtual time. Timing jitter,
    /// rare long stalls, and randomized coherence backoff at contended
    /// lines perturb the race — so most loads have a dominant outcome and
    /// diversity concentrates at genuine data races, exactly the population
    /// structure the paper measures on silicon.
    #[default]
    Lockstep,
}

/// Operating-system perturbation model (the light-blue bars of Figure 8):
/// the OS occasionally preempts a test thread for a long, coarse-grained
/// slice while other threads keep running.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OsConfig {
    /// Per-commit probability that the OS preempts the committing thread.
    pub preempt_prob: f64,
    /// Mean preemption length in cycles (exponential distribution).
    pub mean_slice_cycles: f64,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            preempt_prob: 0.001,
            mean_slice_cycles: 2_000.0,
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Interleaving style.
    pub kind: SchedulerKind,
    /// Maximum barrier-release skew in cycles: each core leaves the
    /// iteration barrier with a uniform random head start. On silicon the
    /// sense-reversal barrier releases cores tens to hundreds of cycles
    /// apart (arbitration, cluster speed differences), and this scalar
    /// decides *which* accesses race in a given run — the dominant source
    /// of run-to-run diversity.
    pub barrier_skew_cycles: u32,
    /// Relative per-operation timing jitter (0.1 = ±10 % of each
    /// operation's latency), the fine-grained race-perturbation source.
    pub jitter: f64,
    /// Per-commit probability of a long stall (TLB walk, refresh,
    /// thermal...) displacing a core by `stall_cycles`.
    pub stall_prob: f64,
    /// Length of a long stall in cycles.
    pub stall_cycles: u32,
    /// Probability that a ready-but-not-oldest memory operation commits
    /// ahead of program order (store-buffer drain laziness under TSO, full
    /// out-of-order commit under weak models).
    pub reorder_prob: f64,
    /// How many program-order-consecutive operations per thread compete for
    /// commit (LSQ-like window), starting at the thread's oldest uncommitted
    /// operation. At most 64 ([`Simulator::new`](crate::Simulator::new)
    /// panics otherwise); `0` behaves as `1`.
    pub reorder_window: usize,
    /// Coherence-contention window: a commit to a cache line contends when
    /// another thread has an uncommitted access to the same line among its
    /// next `conflict_lookahead` operations counted from its oldest
    /// uncommitted one. Operations in that span that already committed out
    /// of order are skipped without extending it, so they shrink the
    /// window. At most 64 ([`Simulator::new`](crate::Simulator::new) panics
    /// otherwise); `0` disables contention.
    pub conflict_lookahead: usize,
    /// Maximum randomized backoff, in cycles, added when the committed
    /// access contends for its cache line with another core — the channel
    /// through which false sharing diversifies interleavings (Figure 8).
    pub contention_backoff_cycles: u32,
    /// Probability per committed op that the thread speculatively performs
    /// its next load early (only exercised when a load->load bug is
    /// injected; correct squashing makes speculation invisible otherwise).
    pub spec_prob: f64,
    /// OS preemption model; `None` is bare metal.
    pub os: Option<OsConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            kind: SchedulerKind::Lockstep,
            barrier_skew_cycles: 250,
            jitter: 0.01,
            stall_prob: 0.0005,
            stall_cycles: 500,
            reorder_prob: 0.01,
            reorder_window: 8,
            conflict_lookahead: 4,
            contention_backoff_cycles: 30,
            spec_prob: 0.10,
            os: None,
        }
    }
}

/// Private-cache geometry and latencies — enough detail for eviction
/// behaviour (bug 3), contention timing, and hit/miss accounting.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets in each core's L1 data cache.
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// L1 hit latency in cycles.
    pub hit_cycles: u32,
    /// Miss-to-L2/memory latency in cycles.
    pub miss_cycles: u32,
    /// Extra cycles for a coherence transfer (remote dirty line).
    pub coherence_cycles: u32,
}

impl CacheConfig {
    /// A 32 kB, 8-way L1 with 64-byte lines (both Table 1 platforms).
    pub fn l1_32k() -> Self {
        CacheConfig {
            sets: 64,
            ways: 8,
            hit_cycles: 3,
            miss_cycles: 30,
            coherence_cycles: 45,
        }
    }

    /// The deliberately tiny 2-way L1 the paper uses for bugs 1 and 3 "to
    /// intensify the effect of cache evictions under our small working set"
    /// (§7; 1 kB on the paper's byte-addressed machine). Our line index
    /// space only covers the shared words, so the capacity is sized below
    /// the largest test working set (16 lines) to preserve the eviction
    /// pressure the real configuration produced alongside stacks and
    /// signature buffers.
    pub fn l1_1k() -> Self {
        CacheConfig {
            sets: 4,
            ways: 2,
            hit_cycles: 3,
            miss_cycles: 30,
            coherence_cycles: 45,
        }
    }

    /// Total lines per core.
    pub fn lines(&self) -> u32 {
        self.sets * self.ways
    }
}

/// Per-instruction timing knobs.
#[derive(Copy, Clone, Debug, Eq, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Cycles of any instruction before memory latency.
    pub base_cycles: u32,
    /// Cycles per executed compare/add link of an instrumented branch chain.
    pub chain_link_cycles: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_cycles: u32,
    /// Cycles to store one signature word at test exit.
    pub sig_store_cycles: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            base_cycles: 1,
            chain_link_cycles: 1,
            mispredict_cycles: 14,
            sig_store_cycles: 4,
        }
    }
}

/// Store-atomicity model (§8 of the paper).
///
/// The paper's checkers assume multiple-copy atomicity (and footnote 4
/// drops intra-thread rf edges to avoid single-copy assumptions); real
/// ARMv7 is non-multiple-copy atomic. The nMCA model makes IRIW's readers
/// able to disagree on the order of independent writes.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreAtomicity {
    /// A committed store is visible to every core at once (x86-like).
    #[default]
    MultipleCopy,
    /// A committed store propagates to each remote core after an
    /// independent uniform delay (ARM-like).
    NonMultipleCopy {
        /// Maximum propagation delay in cycles.
        max_propagation_cycles: u32,
    },
}

/// The default [`SystemConfig::max_steps_per_op`]: the engine's historical
/// hard-coded livelock guard.
pub const DEFAULT_MAX_STEPS_PER_OP: u64 = 1_000;

// Referenced from `#[serde(default = "...")]` below; the offline serde
// stub's derive does not expand that attribute, so rustc cannot see the use.
#[allow(dead_code)]
fn default_max_steps_per_op() -> u64 {
    DEFAULT_MAX_STEPS_PER_OP
}

/// Full configuration of a simulated multi-core system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Memory consistency model the hardware implements.
    pub mcm: Mcm,
    /// Core count (informational; every test thread gets a core in bare
    /// metal, with OS mode adding timesharing perturbation).
    pub num_cores: u32,
    /// Scheduler model.
    pub scheduler: SchedulerConfig,
    /// Private-cache model.
    pub cache: CacheConfig,
    /// Timing model.
    pub timing: TimingConfig,
    /// Injected bug, if any.
    pub bug: BugKind,
    /// Store-atomicity model (§8).
    pub store_atomicity: StoreAtomicity,
    /// Per-core speed in percent of nominal (100 = nominal; larger =
    /// slower). Thread `t` runs on core `t % len`. Empty = homogeneous.
    /// Models big.LITTLE asymmetry: the Exynos 5422 allocates test threads
    /// to the fast A15 cluster first, then the slow A7 cluster (§5).
    pub core_speed_percent: Vec<u32>,
    /// Engine step budget per test operation: one execution may take at
    /// most `(ops + 1) * max_steps_per_op` scheduler steps before the
    /// engine gives up with [`SimError::Livelock`](crate::SimError). This
    /// is the watchdog that keeps a wedged simulation from hanging a
    /// campaign worker forever; the campaign supervisor classifies the
    /// iteration as crashed and carries on. `0` makes every run trip the
    /// guard immediately (useful to exercise the crash path in tests).
    #[serde(default = "default_max_steps_per_op")]
    pub max_steps_per_op: u64,
}

impl SystemConfig {
    /// Table 1, system 1: the x86-TSO desktop (Intel Core 2 Quad Q6600,
    /// 4 cores). TSO permits only store->load reordering, so the reorder
    /// knob models lazy store-buffer drains.
    pub fn x86_desktop() -> Self {
        SystemConfig {
            name: "x86-64 Core 2 Quad (TSO)".to_owned(),
            mcm: Mcm::Tso,
            num_cores: 4,
            scheduler: SchedulerConfig {
                reorder_prob: 0.005,
                reorder_window: 6,
                ..SchedulerConfig::default()
            },
            cache: CacheConfig::l1_32k(),
            timing: TimingConfig::default(),
            bug: BugKind::None,
            store_atomicity: StoreAtomicity::MultipleCopy,
            core_speed_percent: Vec::new(),
            max_steps_per_op: DEFAULT_MAX_STEPS_PER_OP,
        }
    }

    /// Table 1, system 2: the ARMv7 big.LITTLE SoC (Samsung Exynos 5422,
    /// 4+4 cores, weakly ordered). Aggressive out-of-order commit within
    /// the window.
    pub fn arm_soc() -> Self {
        SystemConfig {
            name: "ARMv7 Exynos 5422 (weakly ordered)".to_owned(),
            mcm: Mcm::Weak,
            num_cores: 8,
            scheduler: SchedulerConfig {
                reorder_prob: 0.02,
                reorder_window: 8,
                ..SchedulerConfig::default()
            },
            cache: CacheConfig::l1_32k(),
            timing: TimingConfig::default(),
            bug: BugKind::None,
            store_atomicity: StoreAtomicity::MultipleCopy,
            // Four fast A15 cores then four slow A7 cores; the paper
            // schedules test threads big-cluster-first.
            core_speed_percent: vec![100, 100, 100, 100, 180, 180, 180, 180],
            max_steps_per_op: DEFAULT_MAX_STEPS_PER_OP,
        }
    }

    /// The §4.1 limit-study reference machine: sequentially consistent,
    /// uniformly random interleaving, no contention or OS effects.
    pub fn sc_reference() -> Self {
        SystemConfig {
            name: "SC reference (uniform random)".to_owned(),
            mcm: Mcm::Sc,
            num_cores: 8,
            scheduler: SchedulerConfig {
                kind: SchedulerKind::UniformRandom,
                barrier_skew_cycles: 0,
                jitter: 0.0,
                stall_prob: 0.0,
                stall_cycles: 0,
                reorder_prob: 0.0,
                reorder_window: 1,
                conflict_lookahead: 0,
                contention_backoff_cycles: 0,
                spec_prob: 0.0,
                os: None,
            },
            cache: CacheConfig::l1_32k(),
            timing: TimingConfig::default(),
            bug: BugKind::None,
            store_atomicity: StoreAtomicity::MultipleCopy,
            core_speed_percent: Vec::new(),
            max_steps_per_op: DEFAULT_MAX_STEPS_PER_OP,
        }
    }

    /// The gem5-like 8-core x86 system of the §7 bug campaigns.
    pub fn gem5_x86() -> Self {
        SystemConfig {
            name: "gem5-like 8-core x86 (MESI mesh)".to_owned(),
            num_cores: 8,
            ..SystemConfig::x86_desktop()
        }
    }

    /// The ARM SoC with a non-multiple-copy-atomic memory system —
    /// faithful to real ARMv7 store atomicity (§8), where independent
    /// observers may disagree on the order of unrelated writes (IRIW).
    pub fn arm_soc_nmca() -> Self {
        let mut config = Self::arm_soc();
        config.name = "ARMv7 Exynos 5422 (weakly ordered, non-MCA)".to_owned();
        // The delay is large relative to barrier skew so that independent
        // observers realistically straddle a store's propagation (exposing
        // IRIW within a few thousand iterations).
        config.store_atomicity = StoreAtomicity::NonMultipleCopy {
            max_propagation_cycles: 400,
        };
        config
    }

    /// Returns the configuration with a different store-atomicity model.
    pub fn with_store_atomicity(mut self, store_atomicity: StoreAtomicity) -> Self {
        self.store_atomicity = store_atomicity;
        self
    }

    /// Returns the configuration with a bug injected.
    pub fn with_bug(mut self, bug: BugKind) -> Self {
        self.bug = bug;
        self
    }

    /// Returns the configuration with heavy timing jitter, frequent short
    /// stalls, an eager out-of-order window and eager load speculation.
    ///
    /// Litmus harnesses and bug-hunting campaigns on silicon surround the
    /// few interesting accesses with synchronization and delay loops that
    /// expose rare interleavings quickly; this is the simulator equivalent,
    /// useful when a handful of iterations must cover the outcome space.
    pub fn with_aggressive_interleaving(mut self) -> Self {
        self.scheduler.jitter = 0.9;
        self.scheduler.stall_prob = 0.05;
        self.scheduler.stall_cycles = 50;
        self.scheduler.reorder_prob = self.scheduler.reorder_prob.max(0.30);
        self.scheduler.spec_prob = 0.5;
        self
    }

    /// Returns the configuration with the OS perturbation model enabled.
    pub fn with_os(mut self) -> Self {
        self.scheduler.os = Some(OsConfig::default());
        self
    }

    /// Returns the configuration with a different cache.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Returns the configuration with a different MCM (e.g. running the SC
    /// checker's reference interleavings on an x86-shaped system).
    pub fn with_mcm(mut self, mcm: Mcm) -> Self {
        self.mcm = mcm;
        self
    }

    /// Returns the configuration with a different per-operation step budget
    /// (see [`SystemConfig::max_steps_per_op`]). `0` trips the livelock
    /// guard on the very first step.
    pub fn with_step_budget(mut self, max_steps_per_op: u64) -> Self {
        self.max_steps_per_op = max_steps_per_op;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let x86 = SystemConfig::x86_desktop();
        assert_eq!(x86.mcm, Mcm::Tso);
        assert_eq!(x86.num_cores, 4);
        let arm = SystemConfig::arm_soc();
        assert_eq!(arm.mcm, Mcm::Weak);
        assert_eq!(arm.num_cores, 8);
        assert!(arm.scheduler.reorder_prob > x86.scheduler.reorder_prob);
    }

    #[test]
    fn sc_reference_is_uniform() {
        let sc = SystemConfig::sc_reference();
        assert_eq!(sc.mcm, Mcm::Sc);
        assert_eq!(sc.scheduler.kind, SchedulerKind::UniformRandom);
        assert_eq!(sc.scheduler.reorder_prob, 0.0);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::gem5_x86()
            .with_bug(BugKind::LoadLoadLsq)
            .with_cache(CacheConfig::l1_1k())
            .with_os();
        assert_eq!(c.bug, BugKind::LoadLoadLsq);
        assert_eq!(c.cache.lines(), 8);
        assert!(c.scheduler.os.is_some());
        assert_eq!(c.num_cores, 8);
    }

    #[test]
    fn configs_roundtrip_through_serde() {
        for config in [
            SystemConfig::x86_desktop(),
            SystemConfig::arm_soc(),
            SystemConfig::arm_soc_nmca(),
            SystemConfig::sc_reference(),
            SystemConfig::gem5_x86()
                .with_bug(crate::BugKind::ProtocolRace { prob: 0.5 })
                .with_os()
                .with_aggressive_interleaving(),
        ] {
            let json = serde_json::to_string(&config).expect("serialize");
            let back: SystemConfig = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(config, back);
        }
    }

    #[test]
    fn step_budget_defaults_and_overrides() {
        assert_eq!(
            SystemConfig::arm_soc().max_steps_per_op,
            DEFAULT_MAX_STEPS_PER_OP
        );
        assert_eq!(
            SystemConfig::gem5_x86()
                .with_step_budget(7)
                .max_steps_per_op,
            7
        );
        // Logs and configs serialized before the budget existed still
        // deserialize, picking up the historical hard-coded guard.
        let Ok(json) = serde_json::to_string(&SystemConfig::x86_desktop()) else {
            eprintln!("skipping legacy-deserialize check: offline serde_json stub");
            return;
        };
        let legacy = json.replace(",\"max_steps_per_op\":1000", "");
        assert!(!legacy.contains("max_steps_per_op"), "field not stripped");
        let back: SystemConfig = serde_json::from_str(&legacy).expect("deserialize legacy");
        assert_eq!(back.max_steps_per_op, DEFAULT_MAX_STEPS_PER_OP);
    }

    #[test]
    fn cache_geometry() {
        assert_eq!(CacheConfig::l1_32k().lines(), 512);
        assert_eq!(CacheConfig::l1_1k().lines(), 8);
    }
}
