//! Multi-core memory-subsystem simulator — MTraceCheck's execution
//! substrate.
//!
//! The paper validates silicon (an x86-TSO desktop and a weakly-ordered
//! ARMv7 SoC, Table 1) plus gem5 for bug injection. This crate stands in
//! for both: an operational simulator that produces exactly the executions
//! the configured [`Mcm`](mtc_isa::Mcm) allows, with silicon-flavoured
//! non-determinism:
//!
//! * **Commit-order semantics** — at each step one thread commits one
//!   operation; an operation is ready once everything the MCM orders before
//!   it has committed. Loads forward from the pending store buffer.
//! * **Scheduler models** — bursty switching, an LSQ-like out-of-order
//!   commit window, cache-line contention boosts (false sharing), OS
//!   preemption, and the §4.1 uniform-random SC reference machine.
//! * **Private caches** — an MSI model supplying hit/miss/coherence
//!   latencies, S→M upgrade windows, and dirty writebacks.
//! * **Bug injection** (§7) — two load→load violation bugs realized through
//!   unsquashed speculative loads, and a coherence-protocol race that
//!   crashes the run.
//! * **Exhaustive oracle** — [`enumerate_outcomes`] lists every allowed
//!   execution of litmus-sized programs, grounding conformance tests.
//!
//! Two entry points run one iteration. [`Simulator::run`] returns the
//! [`Execution`] — the reads-from record, cycles, counters and optional
//! commit trace — for analysis and figures. [`Simulator::run_signature`]
//! runs the identical execution but accumulates the signature words as
//! each instrumented load commits, as the instrumented test does on
//! silicon (§3.1–3.2); the campaign collects through it. Both run on
//! tables built once per program (each operation's cache line and
//! ordered-before mask, each load's signature slot), a holder directory in
//! the cache model and per-line contention counters, with every RNG draw
//! and tie-break of the reference engine kept, so outcomes are pinned per
//! (config, seed) by the execution digest in
//! `crates/bench/tests/sim_digest.rs`. The windows are bounded by their
//! `u64` masks: `reorder_window` and `conflict_lookahead` at most 64, and at
//! most 64 threads.
//!
//! # Example
//!
//! ```
//! use mtc_isa::litmus;
//! use mtc_sim::{Simulator, SystemConfig};
//!
//! // Run the store-buffering litmus test on the TSO desktop many times:
//! // the non-deterministic scheduler surfaces several distinct outcomes.
//! let sb = litmus::store_buffering();
//! let mut sim = Simulator::new(&sb.program, SystemConfig::x86_desktop());
//! let mut distinct = std::collections::BTreeSet::new();
//! for seed in 0..500 {
//!     distinct.insert(sim.run(seed)?.reads_from);
//! }
//! assert!(distinct.len() >= 2);
//! # Ok::<(), mtc_sim::SimError>(())
//! ```
//!
//! The campaign's path, signatures accumulated at commit:
//!
//! ```
//! use mtc_instr::{analyze, SignatureSchema, SourcePruning};
//! use mtc_isa::litmus;
//! use mtc_sim::{Simulator, SystemConfig};
//!
//! let mp = litmus::message_passing();
//! let analysis = analyze(&mp.program, &SourcePruning::none());
//! let schema = SignatureSchema::build(&mp.program, &analysis, 32);
//! let mut sim = Simulator::new(&mp.program, SystemConfig::arm_soc());
//! sim.instrument(&schema);
//! let mut twin = sim.clone();
//! let mut words = Vec::new();
//! let run = sim.run_signature(7, &mut words)?;
//! let exec = twin.run(7)?;
//! assert!(!run.asserted);
//! assert_eq!(schema.encode(&exec.reads_from).unwrap().words(), &words[..]);
//! # Ok::<(), mtc_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bugs;
mod cache;
mod config;
mod engine;
mod error;
mod exhaustive;
mod memory;
mod timing;

pub use bugs::BugKind;
pub use cache::{AccessOutcome, CacheModel, LineState};
pub use config::{
    CacheConfig, OsConfig, SchedulerConfig, SchedulerKind, StoreAtomicity, SystemConfig,
    TimingConfig, DEFAULT_MAX_STEPS_PER_OP,
};
pub use engine::{ExecStats, Execution, SignatureRun, Simulator};
pub use error::SimError;
pub use exhaustive::{enumerate_outcomes, ExhaustError};
pub use memory::SimMemory;
pub use timing::BranchPredictor;
