//! Golden execution digest of the simulator, plus the oracles that pin its
//! hot-path data structures.
//!
//! `simulator_matches_golden_digest` runs a grid of configurations — the 21
//! Figure 8 configs on their platforms, the three Table 3 bug systems, the
//! SC reference machine, the non-multiple-copy-atomic ARM SoC, OS mode, the
//! flush overlay, commit tracing, `reset_microarch` between seeds and a
//! cloned simulator — and writes one line per (config, seed): an FNV-1a hash
//! over every iteration's reads-from, cycle counts, all ten `ExecStats`
//! fields, commit trace and error (variant, step and line). Iterations of a
//! seed run in order on one warm simulator, so cache and predictor history
//! is part of what is pinned. A change to the engine must keep every line,
//! which means keeping the exact order of RNG draws and every tie-break.
//!
//! `run_signature_equals_encode_of_run` pins the campaign's commit-time
//! signature path against the reference (`SignatureSchema::encode` of
//! `Simulator::run`'s reads-from) on twin simulators over the same grid,
//! also with an over-pruned schema; `campaign_collect_matches_run_and_encode`
//! pins `Campaign::collect` against the same reference;
//! `cache_directory_matches_the_per_set_scan_model` pins the directory
//! cache against the per-set-scan model it replaced.
//!
//! Regenerate (only when an *intentional* behaviour change lands) with:
//!
//! ```text
//! MTC_BLESS=1 cargo test -p mtc-bench --test sim_digest
//! ```

use mtc_gen::{generate, paper_configs, TestConfig};
use mtc_instr::{analyze, EncodeError, ExecutionSignature, SignatureSchema, SourcePruning};
use mtc_isa::{IsaKind, Program};
use mtc_sim::{
    AccessOutcome, BugKind, CacheConfig, CacheModel, Execution, LineState, SimError, Simulator,
    SystemConfig,
};
use mtracecheck::{Campaign, CampaignConfig, TimingBreakdown};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/sim_digest.txt"
);

/// Per-iteration seed stride of `Campaign::collect`.
const ITER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;
/// Test (program-generation) seeds of every grid row.
const SEEDS: [u64; 2] = [1, 2];
/// Iterations per (row, seed).
const ITERS: u64 = 24;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How a row drives its simulator across the iterations of one seed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Drive {
    /// One fresh simulator, every iteration in order.
    Plain,
    /// Commit tracing on.
    Trace,
    /// The register-flushing overlay on.
    Flush,
    /// One simulator shared by every seed of the row, hard-reset before
    /// each seed's iterations.
    ResetBetweenSeeds,
    /// The first half of the iterations on a fresh simulator, the rest on
    /// a clone of it (warm caches and predictors carry over).
    Clone,
}

/// One grid row: a test shape on a system, driven one way.
struct Row {
    label: String,
    test: TestConfig,
    system: SystemConfig,
    drive: Drive,
}

/// The per-iteration seed `Campaign::collect` uses for iteration `iter` of
/// a test seeded `seed`.
fn iteration_seed(seed: u64, iter: u64) -> u64 {
    seed.wrapping_add(iter.wrapping_mul(ITER_SEED_STRIDE))
}

fn grid() -> Vec<Row> {
    let mut rows: Vec<Row> = paper_configs()
        .into_iter()
        .map(|test| Row {
            label: test.name(),
            system: CampaignConfig::new(test.clone(), 0).system,
            test,
            drive: Drive::Plain,
        })
        .collect();
    // The Table 3 bug systems, as the bug-hunting campaigns configure them.
    let hunt = |label: &str, test: TestConfig, bug, tiny_cache: bool| {
        let mut system = SystemConfig::gem5_x86()
            .with_bug(bug)
            .with_aggressive_interleaving();
        if tiny_cache {
            system = system.with_cache(CacheConfig::l1_1k());
        }
        Row {
            label: label.to_owned(),
            test,
            system,
            drive: Drive::Plain,
        }
    };
    rows.push(hunt(
        "bug1",
        TestConfig::new(IsaKind::X86, 4, 50, 8).with_words_per_line(4),
        BugKind::LoadLoadCoherence,
        true,
    ));
    rows.push(hunt(
        "bug2",
        TestConfig::new(IsaKind::X86, 7, 200, 32).with_words_per_line(16),
        BugKind::LoadLoadLsq,
        false,
    ));
    rows.push(hunt(
        "bug3",
        TestConfig::new(IsaKind::X86, 7, 200, 64).with_words_per_line(4),
        BugKind::ProtocolRace { prob: 0.02 },
        true,
    ));
    let arm = |threads, ops, addrs| TestConfig::new(IsaKind::Arm, threads, ops, addrs);
    let x86 = |threads, ops, addrs| TestConfig::new(IsaKind::X86, threads, ops, addrs);
    for (label, test, system, drive) in [
        (
            "sc_reference",
            arm(4, 50, 16),
            SystemConfig::sc_reference(),
            Drive::Plain,
        ),
        (
            "arm_soc_nmca",
            arm(4, 100, 32),
            SystemConfig::arm_soc_nmca(),
            Drive::Plain,
        ),
        (
            "with_os",
            arm(7, 100, 64),
            SystemConfig::arm_soc().with_os(),
            Drive::Plain,
        ),
        (
            "flush_overlay",
            arm(4, 50, 32).with_words_per_line(4),
            SystemConfig::arm_soc(),
            Drive::Flush,
        ),
        (
            "trace",
            x86(4, 100, 32).with_words_per_line(4),
            SystemConfig::x86_desktop(),
            Drive::Trace,
        ),
        (
            "reset_microarch",
            arm(4, 100, 64),
            SystemConfig::arm_soc().with_aggressive_interleaving(),
            Drive::ResetBetweenSeeds,
        ),
        (
            "clone",
            x86(4, 50, 16).with_words_per_line(4),
            SystemConfig::gem5_x86().with_cache(CacheConfig::l1_1k()),
            Drive::Clone,
        ),
    ] {
        rows.push(Row {
            label: label.to_owned(),
            test,
            system,
            drive,
        });
    }
    rows
}

/// A row's generated program and its instrumentation schema for one seed.
fn instrumented(row: &Row, seed: u64, pruning: &SourcePruning) -> (Program, SignatureSchema) {
    let test = row.test.clone().with_seed(seed);
    let program = generate(&test);
    let analysis = analyze(&program, pruning);
    let schema = SignatureSchema::build(&program, &analysis, test.isa.register_bits());
    (program, schema)
}

/// `twins` identically configured simulators of `program`, instrumented
/// with `schema` and set up for `row`'s drive.
fn twins_of<'p>(
    row: &Row,
    program: &'p Program,
    schema: &SignatureSchema,
    twins: usize,
) -> Vec<Simulator<'p>> {
    (0..twins)
        .map(|_| {
            let mut sim = Simulator::new(program, row.system.clone());
            sim.instrument(schema);
            sim.set_trace(row.drive == Drive::Trace);
            sim.set_flush_overlay(row.drive == Drive::Flush);
            sim
        })
        .collect()
}

/// Drives every (row, seed) of `rows` on `twins` identically configured,
/// instrumented simulators, applying the row's drive to all of them alike.
/// `iteration` runs each iteration (given the schema, the twins and the
/// iteration's seed); `seed_done` follows the last iteration of each seed.
fn drive_grid(
    rows: &[Row],
    twins: usize,
    pruning: &SourcePruning,
    mut iteration: impl FnMut(&Row, &SignatureSchema, &mut [Simulator<'_>], u64),
    mut seed_done: impl FnMut(&Row, u64),
) {
    let mut run_seed = |row: &Row, seed, schema: &SignatureSchema, sims: &mut [Simulator<'_>]| {
        for iter in 0..ITERS {
            if row.drive == Drive::Clone && iter == ITERS / 2 {
                for sim in sims.iter_mut() {
                    *sim = sim.clone();
                }
            }
            iteration(row, schema, sims, iteration_seed(seed, iter));
        }
        seed_done(row, seed);
    };
    for row in rows {
        if row.drive == Drive::ResetBetweenSeeds {
            let (program, schema) = instrumented(row, SEEDS[0], pruning);
            let mut sims = twins_of(row, &program, &schema, twins);
            for seed in SEEDS {
                for sim in &mut sims {
                    sim.reset_microarch();
                }
                run_seed(row, seed, &schema, &mut sims);
            }
        } else {
            for seed in SEEDS {
                let (program, schema) = instrumented(row, seed, pruning);
                let mut sims = twins_of(row, &program, &schema, twins);
                run_seed(row, seed, &schema, &mut sims);
            }
        }
    }
}

/// Counters that keep the grid from pinning nothing: every path the
/// digest claims to cover must have been taken at least once.
#[derive(Default)]
struct Coverage {
    crashes: u64,
    spec_stale: u64,
    spec_squashed: u64,
    preemptions: u64,
    flush_stores: u64,
    traced: u64,
}

fn absorb(hash: &mut Fnv, coverage: &mut Coverage, result: &Result<Execution, SimError>) {
    match result {
        Ok(exec) => {
            hash.u64(0);
            hash.u64(exec.reads_from.len() as u64);
            for (op, value) in exec.reads_from.iter() {
                hash.u64(u64::from(op.tid.0));
                hash.u64(u64::from(op.idx));
                hash.u64(u64::from(value.0));
            }
            hash.u64(exec.test_cycles);
            hash.u64(exec.instr_cycles);
            let s = &exec.stats;
            for field in [
                s.commits,
                s.switches,
                s.contention_events,
                s.preemptions,
                s.spec_performed,
                s.spec_squashed,
                s.spec_stale,
                s.cache_hits,
                s.cache_misses,
                s.flush_stores,
            ] {
                hash.u64(field);
            }
            hash.u64(exec.trace.len() as u64);
            for op in &exec.trace {
                hash.u64(u64::from(op.tid.0));
                hash.u64(u64::from(op.idx));
            }
            coverage.spec_stale += s.spec_stale;
            coverage.spec_squashed += s.spec_squashed;
            coverage.preemptions += s.preemptions;
            coverage.flush_stores += s.flush_stores;
            coverage.traced += exec.trace.len() as u64;
        }
        Err(SimError::ProtocolDeadlock { step, line }) => {
            hash.u64(1);
            hash.u64(*step);
            hash.u64(u64::from(*line));
            coverage.crashes += 1;
        }
        Err(SimError::Livelock { step }) => {
            hash.u64(2);
            hash.u64(*step);
            coverage.crashes += 1;
        }
    }
}

/// Renders the digest of every (row, seed) of the grid, one line each,
/// and what the grid covered.
fn render_grid() -> (String, Coverage) {
    // (rendered lines, the current seed's hash, coverage, crashes before
    // the current seed)
    let state = RefCell::new((String::new(), Fnv::new(), Coverage::default(), 0));
    drive_grid(
        &grid(),
        1,
        &SourcePruning::none(),
        |_, _, sims, seed| {
            let result = sims[0].run(seed);
            let (_, hash, coverage, _) = &mut *state.borrow_mut();
            absorb(hash, coverage, &result);
        },
        |row, seed| {
            let (out, hash, coverage, crashes_before) = &mut *state.borrow_mut();
            let _ = writeln!(
                out,
                "{} seed {seed}: crashes {} fnv {:016x}",
                row.label,
                coverage.crashes - *crashes_before,
                hash.0
            );
            *hash = Fnv::new();
            *crashes_before = coverage.crashes;
        },
    );
    let (rendered, _, coverage, _) = state.into_inner();
    (rendered, coverage)
}

#[test]
fn simulator_matches_golden_digest() {
    let (rendered, coverage) = render_grid();
    assert!(coverage.crashes > 0, "the grid never crashed (bug 3)");
    assert!(coverage.spec_stale > 0, "the grid never kept a stale load");
    assert!(coverage.spec_squashed > 0, "the grid never squashed");
    assert!(coverage.preemptions > 0, "the grid never preempted");
    assert!(coverage.flush_stores > 0, "the grid never flushed");
    assert!(coverage.traced > 0, "the grid never traced");
    if std::env::var_os("MTC_BLESS").is_some() {
        std::fs::write(FIXTURE, &rendered).expect("write digest fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("digest fixture missing; regenerate with MTC_BLESS=1");
    for (at, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "execution digest mismatch at line {} \
             (regenerate deliberately with MTC_BLESS=1 if the change is intended)",
            at + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        expected.lines().count(),
        "execution digest grid changed size"
    );
}

/// Twin simulators, one per entry point, over every (row, seed) of the
/// grid: the commit-time signature equals `encode` of `run`'s reads-from,
/// its assertion flag is set exactly when `encode` finds an unexpected
/// value, and both runs agree on errors, cycles and counters. Returns
/// (iterations compared, asserted, crashed).
fn compare_entry_points(rows: &[Row], pruning: &SourcePruning) -> (u64, u64, u64) {
    let (mut compared, mut asserted, mut crashed) = (0, 0, 0);
    let mut words = Vec::new();
    drive_grid(
        rows,
        2,
        pruning,
        |row, schema, sims, seed| {
            let (reference, rest) = sims.split_first_mut().expect("twins");
            let exec = reference.run(seed);
            let run = rest[0].run_signature(seed, &mut words);
            let context = format!("{} at iteration seed {seed:#x}", row.label);
            compared += 1;
            let (exec, run) = match (exec, run) {
                (Ok(exec), Ok(run)) => (exec, run),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "errors differ: {context}");
                    crashed += 1;
                    return;
                }
                (a, b) => panic!("one entry point failed: {context}: {a:?} vs {b:?}"),
            };
            assert_eq!(exec.test_cycles, run.test_cycles, "test_cycles: {context}");
            assert_eq!(
                exec.instr_cycles, run.instr_cycles,
                "instr_cycles: {context}"
            );
            assert_eq!(exec.stats, run.stats, "stats: {context}");
            match schema.encode(&exec.reads_from) {
                Ok(sig) => {
                    assert!(!run.asserted, "spurious assertion: {context}");
                    assert_eq!(sig.words(), &words[..], "words: {context}");
                }
                Err(EncodeError::UnexpectedValue { .. }) => {
                    assert!(run.asserted, "missed assertion: {context}");
                    asserted += 1;
                }
                Err(e) => panic!("incomplete execution: {context}: {e}"),
            }
        },
        |_, _| {},
    );
    (compared, asserted, crashed)
}

#[test]
fn run_signature_equals_encode_of_run() {
    let rows = grid();
    let (compared, asserted, crashed) = compare_entry_points(&rows, &SourcePruning::none());
    assert_eq!(compared, rows.len() as u64 * SEEDS.len() as u64 * ITERS);
    assert_eq!(asserted, 0, "unpruned schemas admit every observed value");
    assert!(crashed > 0, "the protocol-race row never crashed");
    // An over-pruned schema misses real candidates: the assertion path.
    let (_, asserted, _) = compare_entry_points(&rows, &SourcePruning::with_lsq_window(1));
    assert!(asserted > 0, "the over-pruned schema never asserted");
}

/// The parts of a [`mtracecheck::SignatureLog`] that `Campaign::collect`
/// derives from its simulator runs.
#[derive(Debug, PartialEq)]
struct Collected {
    crashes: u64,
    assertion_failures: u64,
    timing: TimingBreakdown,
    signatures: Vec<(ExecutionSignature, u64)>,
}

impl Collected {
    fn of(log: mtracecheck::SignatureLog) -> Self {
        Collected {
            crashes: log.crashes,
            assertion_failures: log.assertion_failures,
            timing: log.timing,
            signatures: log.signatures,
        }
    }
}

/// What `Campaign::collect` must produce, rebuilt from `Simulator::run`
/// and `SignatureSchema::encode`: the same shard plan (contiguous
/// near-equal ranges, earlier shards taking the remainder, each on a fresh
/// clone of the instrumented simulator), the same per-iteration seeds and
/// the same crash, assertion and cycle accounting.
fn reference_collect(config: &CampaignConfig, program: &Program) -> Collected {
    let analysis = analyze(program, &config.pruning);
    let schema = SignatureSchema::build(program, &analysis, config.test.isa.register_bits());
    let mut sim = Simulator::new(program, config.system.clone());
    sim.instrument(&schema);
    let shards = (config.workers.max(1) as u64).min(config.iterations.max(1));
    let (base, remainder) = (config.iterations / shards, config.iterations % shards);
    let mut want = Collected {
        crashes: 0,
        assertion_failures: 0,
        timing: TimingBreakdown::default(),
        signatures: Vec::new(),
    };
    let mut counts: BTreeMap<ExecutionSignature, u64> = BTreeMap::new();
    let mut stream = Vec::new();
    let mut start = 0;
    for shard in 0..shards {
        let mut sim = sim.clone();
        let len = base + u64::from(shard < remainder);
        for iter in start..start + len {
            let Ok(exec) = sim.run(iteration_seed(config.test.seed, iter)) else {
                want.crashes += 1;
                continue;
            };
            want.timing.test_cycles += exec.test_cycles + 150 + 2 * u64::from(program.num_addrs());
            want.timing.signature_cycles += exec.instr_cycles;
            match schema.encode(&exec.reads_from) {
                Ok(sig) => {
                    *counts.entry(sig.clone()).or_default() += 1;
                    stream.push(sig);
                }
                Err(EncodeError::UnexpectedValue { .. }) => want.assertion_failures += 1,
                Err(e) => panic!("incomplete execution: {e}"),
            }
        }
        start += len;
    }
    // The sorting cost replays first discoveries in stream order.
    let mut seen = std::collections::BTreeSet::new();
    let mut comparisons = 0u64;
    for sig in &stream {
        comparisons += (seen.len().max(1) as f64).log2().ceil() as u64 + 1;
        seen.insert(sig);
    }
    want.timing.sort_cycles = comparisons * (6 + 2 * schema.total_words() as u64);
    want.signatures = counts.into_iter().collect();
    want
}

#[test]
fn campaign_collect_matches_run_and_encode() {
    let bug3 = grid()
        .into_iter()
        .find(|row| row.label == "bug3")
        .expect("the grid has the protocol-race row");
    let over_pruned = TestConfig::new(IsaKind::Arm, 4, 60, 8).with_seed(21);
    let (mut asserted, mut crashed) = (0, 0);
    for config in [
        CampaignConfig::new(TestConfig::new(IsaKind::Arm, 2, 50, 32).with_seed(3), 60),
        CampaignConfig::new(TestConfig::new(IsaKind::X86, 4, 50, 64).with_seed(4), 60),
        CampaignConfig::new(over_pruned, 60).with_pruning(SourcePruning::with_lsq_window(1)),
        CampaignConfig::new(bug3.test.with_seed(5), 40).with_system(bug3.system),
    ] {
        let program = generate(&config.test);
        for workers in [1, 3] {
            let config = config.clone().with_workers(workers);
            let want = reference_collect(&config, &program);
            let got = Collected::of(Campaign::new(config.clone()).collect(&program));
            assert_eq!(got, want, "{} at {workers} workers", config.test.name());
            asserted += want.assertion_failures;
            crashed += want.crashes;
        }
    }
    assert!(asserted > 0, "no campaign took the assertion path");
    assert!(crashed > 0, "no campaign took the crash path");
}

/// The per-set-scan cache model the directory-based [`CacheModel`] replaced,
/// kept verbatim as the reference: every core's set is scanned on a miss,
/// on an upgrade and on every `peek_latency`.
#[derive(Clone, Debug)]
struct ScanCache {
    config: CacheConfig,
    /// `cores[c][set]` is the entry list for one set of core `c`.
    cores: Vec<Vec<Vec<ScanEntry>>>,
}

#[derive(Copy, Clone, Debug)]
struct ScanEntry {
    line: u32,
    state: LineState,
    lru: u64,
}

impl ScanCache {
    fn new(config: CacheConfig, num_cores: usize) -> Self {
        let sets = config.sets as usize;
        ScanCache {
            config,
            cores: vec![vec![Vec::new(); sets]; num_cores],
        }
    }

    fn set_of(&self, line: u32) -> usize {
        (line % self.config.sets) as usize
    }

    fn access(&mut self, core: usize, line: u32, write: bool, tick: u64) -> AccessOutcome {
        let set = self.set_of(line);
        let mut outcome = AccessOutcome::default();
        let local_hit = self.cores[core][set].iter().position(|e| e.line == line);
        if let Some(i) = local_hit {
            outcome.hit = true;
            let entry = &mut self.cores[core][set][i];
            entry.lru = tick;
            if write && entry.state == LineState::Shared {
                entry.state = LineState::Modified;
                outcome.upgraded = true;
                outcome.invalidated_remote = self.invalidate_others(core, line, set);
            }
            return outcome;
        }
        for (c, caches) in self.cores.iter_mut().enumerate() {
            if c == core {
                continue;
            }
            if let Some(i) = caches[set].iter().position(|e| e.line == line) {
                let remote = &mut caches[set][i];
                if remote.state == LineState::Modified {
                    outcome.remote_dirty = true;
                }
                if write {
                    caches[set].remove(i);
                    outcome.invalidated_remote = true;
                } else {
                    remote.state = LineState::Shared;
                }
            }
        }
        let new_state = if write {
            LineState::Modified
        } else {
            LineState::Shared
        };
        let set_entries = &mut self.cores[core][set];
        if set_entries.len() >= self.config.ways as usize {
            let victim = set_entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full sets are non-empty");
            let evicted = set_entries.remove(victim);
            if evicted.state == LineState::Modified {
                outcome.evicted_dirty = Some(evicted.line);
            }
        }
        set_entries.push(ScanEntry {
            line,
            state: new_state,
            lru: tick,
        });
        outcome
    }

    fn holds(&self, core: usize, line: u32, state: LineState) -> bool {
        let set = self.set_of(line);
        self.cores[core][set]
            .iter()
            .any(|e| e.line == line && e.state == state)
    }

    fn peek_latency(&self, core: usize, line: u32) -> u32 {
        let set = self.set_of(line);
        if self.cores[core][set].iter().any(|e| e.line == line) {
            return self.config.hit_cycles;
        }
        for (c, caches) in self.cores.iter().enumerate() {
            if c != core {
                if let Some(e) = caches[set].iter().find(|e| e.line == line) {
                    if e.state == LineState::Modified {
                        return self.config.miss_cycles + self.config.coherence_cycles;
                    }
                }
            }
        }
        self.config.miss_cycles
    }

    fn invalidate_others(&mut self, core: usize, line: u32, set: usize) -> bool {
        let mut any = false;
        for (c, caches) in self.cores.iter_mut().enumerate() {
            if c == core {
                continue;
            }
            if let Some(i) = caches[set].iter().position(|e| e.line == line) {
                caches[set].remove(i);
                any = true;
            }
        }
        any
    }
}

#[test]
fn cache_directory_matches_the_per_set_scan_model() {
    let mut rng = SmallRng::seed_from_u64(16);
    for (geometry, lines) in [(CacheConfig::l1_1k(), 24u32), (CacheConfig::l1_32k(), 160)] {
        for cores in 2..=8usize {
            let mut model = CacheModel::new(geometry, cores);
            let mut reference = ScanCache::new(geometry, cores);
            let mut tick = 0u64;
            for step in 0..6_000u32 {
                // Ticks restart every run while the caches stay warm, so
                // equal ticks (and LRU ties) occur.
                tick = if rng.gen_range(0..200u32) == 0 {
                    0
                } else {
                    tick + 1
                };
                let core = rng.gen_range(0..cores);
                let line = rng.gen_range(0..lines);
                let write = rng.gen_bool(0.4);
                let peeked = (
                    model.peek_latency(core, line),
                    reference.peek_latency(core, line),
                );
                assert_eq!(peeked.0, peeked.1, "peek before step {step}");
                let got = model.access(core, line, write, tick);
                let want = reference.access(core, line, write, tick);
                let context = format!(
                    "{geometry:?} x {cores} cores, step {step}: core {core} line {line} \
                     write {write} tick {tick}"
                );
                assert_eq!(got, want, "outcome at {context}");
                let probe = rng.gen_range(0..lines);
                for c in 0..cores {
                    for l in [line, probe] {
                        assert_eq!(
                            model.peek_latency(c, l),
                            reference.peek_latency(c, l),
                            "peek of core {c} line {l} after {context}"
                        );
                        for state in [LineState::Shared, LineState::Modified] {
                            assert_eq!(
                                model.holds(c, l, state),
                                reference.holds(c, l, state),
                                "holds({c}, {l}, {state:?}) after {context}"
                            );
                        }
                    }
                }
            }
        }
    }
}
