//! Criterion benchmarks for the execution substrate: iteration throughput
//! of the operational simulator (plain, instrumented, and the campaign's
//! commit-time signature path) and the exhaustive litmus oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mtracecheck::instr::{analyze, SignatureSchema, SourcePruning};
use mtracecheck::isa::{litmus, IsaKind, Mcm};
use mtracecheck::sim::{enumerate_outcomes, Simulator};
use mtracecheck::testgen::{generate, TestConfig};
use mtracecheck::CampaignConfig;

fn bench_simulation(c: &mut Criterion) {
    let cases = [
        (
            "ARM-2-50-32",
            TestConfig::new(IsaKind::Arm, 2, 50, 32).with_seed(4),
        ),
        (
            "ARM-7-200-64",
            TestConfig::new(IsaKind::Arm, 7, 200, 64).with_seed(4),
        ),
        (
            "x86-4-100-64",
            TestConfig::new(IsaKind::X86, 4, 100, 64).with_seed(4),
        ),
    ];
    let mut group = c.benchmark_group("simulation");
    for (name, test) in cases {
        let program = generate(&test);
        let campaign = CampaignConfig::new(test.clone(), 1);
        group.throughput(Throughput::Elements(program.num_memory_ops() as u64));
        group.bench_with_input(BenchmarkId::new("run", name), &program, |b, p| {
            let mut sim = Simulator::new(p, campaign.system.clone());
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                sim.run(seed).expect("correct hardware")
            });
        });
        group.bench_with_input(
            BenchmarkId::new("run_instrumented", name),
            &program,
            |b, p| {
                let analysis = analyze(p, &SourcePruning::none());
                let schema = SignatureSchema::build(p, &analysis, test.isa.register_bits());
                let mut sim = Simulator::new(p, campaign.system.clone());
                sim.instrument(&schema);
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    sim.run(seed).expect("correct hardware")
                });
            },
        );
        // What `Campaign::collect` runs per iteration: the signature words
        // accumulated as the loads commit, no reads-from map.
        group.bench_with_input(BenchmarkId::new("run_signature", name), &program, |b, p| {
            let analysis = analyze(p, &SourcePruning::none());
            let schema = SignatureSchema::build(p, &analysis, test.isa.register_bits());
            let mut sim = Simulator::new(p, campaign.system.clone());
            sim.instrument(&schema);
            let mut words = Vec::new();
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                sim.run_signature(seed, &mut words)
                    .expect("correct hardware")
            });
        });
    }
    group.finish();

    let mut oracle = c.benchmark_group("exhaustive_oracle");
    for test in [
        litmus::store_buffering(),
        litmus::message_passing(),
        litmus::iriw(),
    ] {
        oracle.bench_with_input(
            BenchmarkId::new("weak", test.name),
            &test.program,
            |b, p| b.iter(|| enumerate_outcomes(p, Mcm::Weak, 5_000_000).expect("small")),
        );
    }
    oracle.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
