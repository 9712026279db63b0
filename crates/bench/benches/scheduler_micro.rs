//! Micro-benchmarks of the scheduler's building blocks: routing,
//! individual video scheduling, schedule integration, overflow detection,
//! full resolution, the baselines, and the simulator replay.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vod_bench::Fixture;
use vod_core::{
    baselines, detect_overflows, find_video_schedule, ivsp_solve, ivsp_solve_priced_with, oracle,
    sorp_solve, sorp_solve_priced, ExecMode, GreedyPolicy, SorpConfig, StorageLedger,
};
use vod_simulator::{simulate, SimOptions};
use vod_topology::RouteTable;

fn bench(c: &mut Criterion) {
    let fx = Fixture::paper_baseline();
    let ctx = fx.ctx();

    c.bench_function("route_table_build_20_nodes", |b| b.iter(|| RouteTable::build(&fx.topo)));

    // The busiest single-video group in the batch.
    let (_, biggest) =
        fx.requests.groups().max_by_key(|(_, g)| g.len()).expect("batch is non-empty");
    c.bench_function(&format!("find_video_schedule_{}_requests", biggest.len()), |b| {
        b.iter(|| find_video_schedule(&ctx, biggest))
    });

    c.bench_function("ivsp_solve_full_batch", |b| b.iter(|| ivsp_solve(&ctx, &fx.requests)));

    // Priced phase 1 (schedule plus per-video cost memo) under both
    // execution modes: bit-identical output, so the gap is the parallel
    // fan-out overhead or speedup.
    for (name, mode) in [
        ("ivsp_solve_priced_sequential", ExecMode::Sequential),
        ("ivsp_solve_priced_parallel", ExecMode::Parallel),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| ivsp_solve_priced_with(&ctx, &fx.requests, GreedyPolicy::default(), mode))
        });
    }

    let phase1 = fx.phase1();
    c.bench_function("ledger_from_schedule", |b| {
        b.iter(|| StorageLedger::from_schedule(&fx.topo, &fx.catalog, &phase1))
    });

    let ledger = StorageLedger::from_schedule(&fx.topo, &fx.catalog, &phase1);
    c.bench_function("detect_overflows", |b| b.iter(|| detect_overflows(&fx.topo, &ledger)));

    let mut g = c.benchmark_group("sorp_solve_full");
    g.sample_size(10);
    g.bench_function("baseline_cell", |b| {
        b.iter_batched(
            || phase1.clone(),
            |p1| sorp_solve(&ctx, &p1, &SorpConfig::default()),
            BatchSize::LargeInput,
        )
    });
    // The incremental-pricing path, sequential vs parallel trial fan-out.
    let priced = fx.phase1_priced();
    g.bench_function("priced_sequential", |b| {
        b.iter_batched(
            || priced.clone(),
            |p1| sorp_solve_priced(&ctx, p1, &SorpConfig::default(), &[], ExecMode::Sequential),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("priced_parallel", |b| {
        b.iter_batched(
            || priced.clone(),
            |p1| sorp_solve_priced(&ctx, p1, &SorpConfig::default(), &[], ExecMode::Parallel),
            BatchSize::LargeInput,
        )
    });
    // End-to-end resolution on the naive reference ledger (bit-identical
    // schedule, slower admission tests) — the timeline's e2e comparator.
    g.bench_function("priced_sequential_reference_ledger", |b| {
        b.iter_batched(
            || priced.clone(),
            |p1| {
                oracle::sorp_solve_reference_ledger(
                    &ctx,
                    p1,
                    &SorpConfig::default(),
                    &[],
                    ExecMode::Sequential,
                )
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    c.bench_function("baseline_network_only", |b| {
        b.iter(|| baselines::network_only(&ctx, &fx.requests))
    });

    let resolved = sorp_solve(&ctx, &phase1, &SorpConfig::default()).schedule;
    c.bench_function("simulate_resolved_schedule", |b| {
        b.iter(|| {
            simulate(&fx.topo, &fx.catalog, &fx.model, &resolved, &SimOptions::strict(&fx.requests))
        })
    });

    c.bench_function("schedule_cost", |b| b.iter(|| ctx.schedule_cost(&resolved)));
}

criterion_group!(benches, bench);
criterion_main!(benches);
