//! Cost of bounded-memory signature collection: spill-to-disk external
//! merge vs the unbounded in-memory dedup map.
//!
//! Three operating points on the same 800-iteration campaign:
//! in-memory (no budget), a moderate budget that spills a handful of sorted
//! runs, and a pathological one-entry budget that spills a run per unique
//! signature. The outputs are bit-identical by construction (see
//! `tests/spill_equivalence.rs`); the benchmark measures what that
//! robustness costs in throughput, which EXPERIMENTS.md records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mtracecheck::isa::IsaKind;
use mtracecheck::testgen::generate;
use mtracecheck::{Campaign, CampaignConfig, TestConfig};

const ITERATIONS: u64 = 800;

fn campaign(budget: Option<u64>) -> Campaign {
    let test = TestConfig::new(IsaKind::Arm, 4, 30, 8).with_seed(42);
    let mut config = CampaignConfig::new(test, ITERATIONS).with_tests(1);
    if let Some(bytes) = budget {
        let dir = std::env::temp_dir().join("mtracecheck-bench-spill");
        std::fs::create_dir_all(&dir).expect("spill dir");
        config = config.with_memory_budget(bytes, dir);
    }
    Campaign::new(config)
}

fn bench_collect_under_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill/collect");
    group.throughput(Throughput::Elements(ITERATIONS));
    group.sample_size(10);
    for (label, budget) in [
        ("unbounded", None),
        ("budget-8k", Some(8 * 1024u64)),
        ("budget-1", Some(1)),
    ] {
        let campaign = campaign(budget);
        let program = generate(&campaign.config().test);
        group.bench_with_input(BenchmarkId::new("budget", label), &budget, |b, _| {
            b.iter(|| campaign.try_collect(&program).expect("spill disk healthy"));
        });
    }
    group.finish();
}

fn bench_streaming_check(c: &mut Criterion) {
    // Collect + check end to end, unbounded against a spill-per-entry
    // budget: what the bounded store costs on top of the streaming check.
    let mut group = c.benchmark_group("spill/run_test");
    group.throughput(Throughput::Elements(ITERATIONS));
    group.sample_size(10);
    for (label, budget) in [("unbounded", None), ("budget-1", Some(1u64))] {
        let campaign = campaign(budget);
        let program = generate(&campaign.config().test);
        group.bench_with_input(BenchmarkId::new("budget", label), &budget, |b, _| {
            b.iter(|| campaign.run_test(&program));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collect_under_budget, bench_streaming_check);
criterion_main!(benches);
