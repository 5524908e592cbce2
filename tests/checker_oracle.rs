//! Differential checker-oracle suite: a slow, obviously-correct reference
//! checker (naive per-graph DFS cycle detection over plain edge lists) is
//! run against the production checkers — `check_conventional` and the one
//! collective algorithm, `CollectiveChecker`, over the grid {single / split
//! windows} × {`push` / `push_delta`} × {1 chunk / 3 chunks merged} ×
//! {certificates off / on} — on proptest-generated `(program, Mcm,
//! ReadsFrom)` triples, asserting identical verdicts, consistent stats,
//! verifiable certificates, and diagnosable cycles.
//!
//! The reference checker shares *no* code with the hot path: it folds the
//! spec's static successors and the observation's edge pairs into a fresh
//! `Vec<Vec<u32>>` and runs an iterative three-colour DFS. Any rewrite of
//! the production adjacency layout (maps, CSR, overlays) is therefore
//! checked against an independent definition of "has a cycle".
//!
//! CI runs this suite with `PROPTEST_CASES=1024`.

use mtracecheck::certify::verify_verdict;
use mtracecheck::graph::{
    check_collective, check_conventional, classify_cycle, explain_violation, CheckOptions,
    CollectiveChecker, CollectiveStats, DeltaObservations, EdgeReason, ObservedEdges,
    TestGraphSpec,
};
use mtracecheck::isa::{IsaKind, Mcm, OpId, Program, ReadsFrom, Value};
use mtracecheck::sim::{Simulator, SystemConfig};
use mtracecheck::testgen::{generate, TestConfig};
use proptest::prelude::*;

/// Naive reference verdict for one graph: true iff the constraint graph
/// (static edges + observed edges) contains a cycle. Iterative
/// three-colour DFS over a freshly built adjacency list — quadratic-ish
/// allocation behaviour and proud of it.
fn reference_has_cycle(spec: &TestGraphSpec, obs: &ObservedEdges) -> bool {
    let n = spec.num_vertices();
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for v in 0..n as u32 {
        adj[v as usize].extend_from_slice(spec.static_successors(v));
    }
    for &(u, v) in obs.edges() {
        adj[u as usize].push(v);
    }
    // 0 = white, 1 = grey (on stack), 2 = black.
    let mut color = vec![0u8; n];
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (vertex, next-successor-index).
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next] as usize;
                *next += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

/// One cell of the collective-checker grid.
#[derive(Copy, Clone, Debug)]
struct Cell {
    split_windows: bool,
    delta: bool,
    chunks: usize,
    certificates: bool,
}

impl Cell {
    fn grid() -> Vec<Cell> {
        let mut cells = Vec::new();
        for split_windows in [false, true] {
            for delta in [false, true] {
                for chunks in [1, 3] {
                    for certificates in [false, true] {
                        cells.push(Cell {
                            split_windows,
                            delta,
                            chunks,
                            certificates,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// Checks `observations` as `cell` says: one fresh `CollectiveChecker` per
/// contiguous chunk (the campaign's near-equal plan, earlier chunks taking
/// the remainder), fed by `push` or by a running `DeltaObservations`, with
/// every certificate replayed through the independent verifier. Returns
/// the per-graph verdicts (`true` = cyclic) and the merged stats.
fn check_cell(
    spec: &TestGraphSpec,
    observations: &[ObservedEdges],
    cell: Cell,
) -> Result<(Vec<bool>, CollectiveStats), String> {
    let chunks = cell.chunks.min(observations.len().max(1));
    let (base, remainder) = (observations.len() / chunks, observations.len() % chunks);
    let mut verdicts = Vec::with_capacity(observations.len());
    let mut stats = CollectiveStats::default();
    let mut rest = observations;
    for c in 0..chunks {
        let (chunk, tail) = rest.split_at(base + usize::from(c < remainder));
        rest = tail;
        let mut checker = CollectiveChecker::new(spec);
        if cell.split_windows {
            checker = checker.with_split_windows();
        }
        let mut set = DeltaObservations::new(spec.num_vertices());
        let mut prev = ObservedEdges::default();
        for obs in chunk {
            let result = if cell.delta {
                set.begin();
                for (u, v) in prev.difference(obs) {
                    set.remove(u, v);
                }
                for (u, v) in obs.difference(&prev) {
                    set.add(u, v);
                }
                prev.clone_from(obs);
                checker.push_delta(&set)
            } else {
                checker.push(obs)
            };
            if cell.certificates {
                let cert = checker
                    .last_certificate()
                    .expect("a push records a verdict");
                let verified = verify_verdict(spec, obs, &cert, result.is_err());
                prop_assert!(
                    verified.is_ok(),
                    "{:?}: certificate rejected: {:?}",
                    cell,
                    verified
                );
            }
            verdicts.push(result.is_err());
        }
        stats = stats.merge(checker.stats());
    }
    Ok((verdicts, stats))
}

/// Run the production checkers on the same observation sequence and assert
/// each one's per-graph verdicts equal the reference checker's.
fn assert_all_checkers_match_reference(
    program: &Program,
    spec: &TestGraphSpec,
    rfs: &[ReadsFrom],
    observations: &[ObservedEdges],
) -> Result<(), String> {
    let expected: Vec<bool> = observations
        .iter()
        .map(|o| reference_has_cycle(spec, o))
        .collect();
    let expected_violations = expected.iter().filter(|&&c| c).count();

    let conventional = check_conventional(spec, observations, None);
    let conventional_verdicts: Vec<bool> =
        conventional.results.iter().map(Result::is_err).collect();
    prop_assert_eq!(&conventional_verdicts, &expected, "conventional verdicts");
    prop_assert_eq!(conventional.stats.violations, expected_violations);
    prop_assert_eq!(conventional.stats.graphs, observations.len());

    let mut plain_stats: Vec<(Cell, CollectiveStats)> = Vec::new();
    for cell in Cell::grid() {
        let (verdicts, stats) = check_cell(spec, observations, cell)?;
        prop_assert_eq!(
            &verdicts,
            &expected,
            "{:?} verdicts disagree with the reference DFS",
            cell
        );
        prop_assert_eq!(
            stats.violations,
            expected_violations,
            "{:?} violations",
            cell
        );
        prop_assert_eq!(stats.graphs, observations.len(), "{:?} graphs", cell);
        prop_assert_eq!(
            stats.complete + stats.no_resort + stats.incremental,
            stats.graphs,
            "{:?}: Figure 14 identity broken",
            cell
        );
        // How a graph reaches the checker, and whether its verdict is
        // witnessed, never changes the work it does: the stats depend on
        // the windowing and the chunk plan alone.
        match plain_stats
            .iter()
            .find(|(c, _)| c.split_windows == cell.split_windows && c.chunks == cell.chunks)
        {
            Some((first, first_stats)) => {
                prop_assert_eq!(&stats, first_stats, "{:?} vs {:?}", cell, first);
            }
            None => plain_stats.push((cell, stats)),
        }
        // The batch form is the `push` cell over one chunk.
        if !cell.delta && cell.chunks == 1 {
            let batch = check_collective(spec, observations, cell.split_windows);
            prop_assert_eq!(&batch.stats, &stats, "batch {:?}", cell);
            let batch_verdicts: Vec<bool> = batch.results.iter().map(Result::is_err).collect();
            prop_assert_eq!(&batch_verdicts, &expected, "batch {:?}", cell);
        }
    }

    // Every reported cycle must diagnose: one classified edge per cycle
    // vertex, at least one re-derivable reason (a fully-`??` cycle would
    // mean the diagnosis machinery lost the observation), and the
    // Figure 13-style report renders.
    for (i, r) in conventional.results.iter().enumerate() {
        if let Err(v) = r {
            prop_assert!(!v.cycle.is_empty());
            let kinds = classify_cycle(program, spec, &rfs[i], v);
            prop_assert_eq!(kinds.len(), v.cycle.len());
            prop_assert!(
                kinds.iter().any(|e| e.reason != EdgeReason::Unknown),
                "cycle for graph {} is entirely inexplicable",
                i
            );
            let report = explain_violation(program, spec, &rfs[i], v);
            prop_assert!(report.contains("cycle"));
        }
    }
    Ok(())
}

fn system_for(isa: IsaKind) -> SystemConfig {
    match isa {
        IsaKind::X86 => SystemConfig::x86_desktop(),
        IsaKind::Arm => SystemConfig::arm_soc(),
    }
    .with_aggressive_interleaving()
}

/// A random `ReadsFrom`: each load gets an arbitrary candidate value in
/// `0..=num_stores` (store ids are 1-based; 0 is init). Most such
/// observations are illegal under the model — exactly the mixture the
/// differential harness wants.
fn random_reads_from(program: &Program, picks: &[u64]) -> ReadsFrom {
    let stores = program.num_stores() as u64;
    let mut rf = ReadsFrom::new();
    for (i, load) in program.loads().enumerate() {
        let pick = picks[i % picks.len()].wrapping_add(i as u64);
        rf.record(load, Value((pick % (stores + 1)) as u32));
    }
    rf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simulator-produced (legal) observations plus random (mostly
    /// illegal) ones, across all three models and both ISAs: every checker
    /// grid cell agrees with the reference DFS on every graph.
    #[test]
    fn checkers_agree_with_reference_dfs(
        seed in any::<u64>(),
        threads in 2u32..5,
        ops in 4u32..20,
        addrs in 1u32..6,
        fence_fraction in 0.0f64..0.3,
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
        isa in prop::sample::select(vec![IsaKind::Arm, IsaKind::X86]),
        picks in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let test = TestConfig::new(isa, threads, ops, addrs)
            .with_seed(seed)
            .with_fence_fraction(fence_fraction)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);

        let mut rfs: Vec<ReadsFrom> = Vec::new();
        let mut sim = Simulator::new(&program, system_for(isa));
        for s in 0..12u64 {
            rfs.push(sim.run(s).expect("no crash").reads_from);
        }
        for (i, &p) in picks.iter().enumerate() {
            rfs.push(random_reads_from(&program, &[p, seed.rotate_left(i as u32)]));
        }
        let observations: Vec<_> = rfs
            .iter()
            .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;
    }

    /// Degenerate: single-thread programs. Program order totally orders
    /// every vertex, so only anti-coherent self-observations can cycle.
    #[test]
    fn single_thread_programs(
        seed in any::<u64>(),
        ops in 1u32..24,
        addrs in 1u32..4,
        picks in prop::collection::vec(any::<u64>(), 1..6),
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
    ) {
        let test = TestConfig::new(IsaKind::Arm, 1, ops, addrs)
            .with_seed(seed)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);
        let rfs: Vec<ReadsFrom> = picks
            .iter()
            .map(|&p| random_reads_from(&program, &[p]))
            .collect();
        let observations: Vec<_> = rfs
            .iter()
            .map(|rf| spec.observe(&program, rf, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;
    }

    /// Degenerate: all-identical signatures. After the first full sort the
    /// collective checker must take the no-resort fast path for every
    /// subsequent graph, and verdicts still match the reference.
    #[test]
    fn all_identical_observations(
        seed in any::<u64>(),
        threads in 2u32..4,
        ops in 4u32..16,
        copies in 2usize..12,
        mcm in prop::sample::select(vec![Mcm::Sc, Mcm::Tso, Mcm::Weak]),
    ) {
        let test = TestConfig::new(IsaKind::X86, threads, ops, 3)
            .with_seed(seed)
            .with_mcm(mcm);
        let program = generate(&test);
        let spec = TestGraphSpec::new(&program, mcm);
        let mut sim = Simulator::new(&program, system_for(IsaKind::X86));
        let rf = sim.run(seed % 17).expect("no crash").reads_from;
        let rfs: Vec<ReadsFrom> = std::iter::repeat_n(rf, copies).collect();
        let observations: Vec<_> = rfs
            .iter()
            .map(|r| spec.observe(&program, r, &CheckOptions::default()))
            .collect();
        assert_all_checkers_match_reference(&program, &spec, &rfs, &observations)?;

        // Identical graphs hit exactly one of two regimes: acyclic repeats
        // all take the no-resort fast path after one full sort; a cyclic
        // repeat forces a recovery full sort on every push.
        let collective = check_collective(&spec, &observations, false);
        prop_assert_eq!(collective.stats.resorted_vertices, 0);
        if reference_has_cycle(&spec, &observations[0]) {
            prop_assert_eq!(collective.stats.complete, copies);
            prop_assert_eq!(collective.stats.no_resort, 0);
        } else {
            prop_assert_eq!(collective.stats.complete, 1);
            prop_assert_eq!(collective.stats.no_resort, copies - 1);
        }
    }
}

/// Degenerate: the empty observation set. Every grid cell must return
/// zero graphs and empty stats, and a fresh checker has no certificate.
#[test]
fn empty_observation_set() {
    let test = TestConfig::new(IsaKind::Arm, 2, 8, 2).with_seed(7);
    let program = generate(&test);
    let spec = TestGraphSpec::new(&program, test.mcm);
    let observations: Vec<ObservedEdges> = Vec::new();

    let conventional = check_conventional(&spec, &observations, None);
    assert_eq!(conventional.results.len(), 0);
    assert_eq!(conventional.stats.graphs, 0);
    assert_eq!(conventional.stats.violations, 0);

    for split_windows in [false, true] {
        let collective = check_collective(&spec, &observations, split_windows);
        assert_eq!(collective.results.len(), 0);
        assert_eq!(collective.stats, CollectiveStats::default());
    }
    for cell in Cell::grid() {
        let (verdicts, stats) = check_cell(&spec, &observations, cell).expect("no graphs");
        assert!(verdicts.is_empty(), "{cell:?}");
        assert_eq!(stats, CollectiveStats::default(), "{cell:?}");
    }

    let checker = CollectiveChecker::new(&spec);
    assert_eq!(checker.stats().graphs, 0);
    assert!(checker.last_certificate().is_none());
}

/// The reference DFS itself is sane: it flags the canonical SC-forbidden
/// store-buffering outcome and passes the SC-allowed ones. (A broken
/// reference would make every differential assertion vacuous.)
#[test]
fn reference_checker_flags_known_violation() {
    use mtracecheck::isa::{litmus, Tid};
    let sb = litmus::store_buffering();
    let spec = TestGraphSpec::new(&sb.program, Mcm::Sc);

    let mut relaxed = ReadsFrom::new();
    relaxed.record(OpId::new(Tid(0), 1), Value::INIT);
    relaxed.record(OpId::new(Tid(1), 1), Value::INIT);
    let obs = spec.observe(&sb.program, &relaxed, &CheckOptions::default());
    assert!(
        reference_has_cycle(&spec, &obs),
        "reference DFS must flag SB under SC"
    );

    let mut legal = ReadsFrom::new();
    legal.record(OpId::new(Tid(0), 1), Value(2));
    legal.record(OpId::new(Tid(1), 1), Value(1));
    let obs = spec.observe(&sb.program, &legal, &CheckOptions::default());
    assert!(
        !reference_has_cycle(&spec, &obs),
        "reference DFS must pass the legal SB outcome"
    );
}
