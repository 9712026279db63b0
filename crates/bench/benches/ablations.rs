//! Ablation benches for the design choices called out in DESIGN.md:
//! per-hop vs end-to-end charging, backbone pricing, capacity pressure,
//! and access skew — each timed through the full two-phase pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vod_bench::Fixture;
use vod_core::{ivsp_solve, sorp_solve, SchedCtx, SorpConfig};
use vod_cost_model::CostModel;
use vod_topology::builders::{paper_fig4, PaperFig4Config};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

fn two_phase_cost(ctx: &SchedCtx<'_>, requests: &vod_cost_model::RequestBatch) -> f64 {
    sorp_solve(ctx, &ivsp_solve(ctx, requests), &SorpConfig::default()).cost
}

fn bench(c: &mut Criterion) {
    // --- Charging basis ---------------------------------------------
    let fx = Fixture::paper_baseline();
    let mut g = c.benchmark_group("charging_basis");
    g.sample_size(10);
    g.bench_function("per_hop", |b| {
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&fx.topo, &model, &fx.catalog);
        b.iter(|| two_phase_cost(&ctx, &fx.requests))
    });
    g.bench_function("end_to_end", |b| {
        let model = CostModel::end_to_end(&fx.topo);
        let ctx = SchedCtx::new(&fx.topo, &model, &fx.catalog);
        b.iter(|| two_phase_cost(&ctx, &fx.requests))
    });
    g.finish();

    // --- Backbone pricing (flat vs hierarchical) ---------------------
    let mut g = c.benchmark_group("backbone_multiplier");
    g.sample_size(10);
    for mult in [1.0, 2.0, 4.0] {
        let topo =
            paper_fig4(&PaperFig4Config { backbone_rate_multiplier: mult, ..Default::default() });
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(120),
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            42,
        );
        let model = CostModel::per_hop();
        g.bench_with_input(BenchmarkId::from_parameter(mult), &(), |b, _| {
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            b.iter(|| two_phase_cost(&ctx, &wl.requests))
        });
    }
    g.finish();

    // --- Capacity pressure -------------------------------------------
    let mut g = c.benchmark_group("capacity_pressure");
    g.sample_size(10);
    for cap in [4.0, 8.0, 50.0] {
        let fx = Fixture::with(cap, 0.1, 42);
        g.bench_with_input(BenchmarkId::from_parameter(cap as u64), &(), |b, _| {
            let ctx = fx.ctx();
            b.iter(|| two_phase_cost(&ctx, &fx.requests))
        });
    }
    g.finish();

    // --- Greedy policy (design-choice ablations) ----------------------
    {
        use vod_core::{ivsp_solve_priced_with, ExecMode, GreedyPolicy};
        let fx = Fixture::paper_baseline();
        let ctx = fx.ctx();
        let mut g = c.benchmark_group("greedy_policy");
        g.sample_size(10);
        let policies: [(&str, GreedyPolicy); 4] = [
            ("full", GreedyPolicy::default()),
            ("no_new_caches", GreedyPolicy { allow_new_caches: false, ..Default::default() }),
            ("local_only", GreedyPolicy { allow_remote_placement: false, ..Default::default() }),
            (
                "no_tie_pref",
                GreedyPolicy { prefer_local_cache_on_ties: false, ..Default::default() },
            ),
        ];
        for (name, policy) in policies {
            // Print the cost impact once so `cargo bench` output doubles
            // as the ablation table.
            let cost = ctx.schedule_cost(
                &ivsp_solve_priced_with(&ctx, &fx.requests, policy, ExecMode::default())
                    .into_schedule(),
            );
            println!("greedy_policy/{name}: phase-1 cost = {cost:.0}");
            g.bench_function(name, |b| {
                b.iter(|| {
                    ivsp_solve_priced_with(&ctx, &fx.requests, policy, ExecMode::default())
                        .into_schedule()
                })
            });
        }
        g.finish();
    }

    // --- Space model (instant reservation vs gradual fill) -------------
    {
        use vod_cost_model::SpaceModel;
        let fx = Fixture::paper_baseline();
        let mut g = c.benchmark_group("space_model");
        g.sample_size(10);
        for (name, model) in [
            ("instant_reservation", SpaceModel::InstantReservation),
            ("gradual_fill", SpaceModel::GradualFill),
        ] {
            let priced = CostModel::per_hop().with_space_model(model);
            let ctx = SchedCtx::new(&fx.topo, &priced, &fx.catalog);
            let cost =
                sorp_solve(&ctx, &ivsp_solve(&ctx, &fx.requests), &SorpConfig::default()).cost;
            println!("space_model/{name}: resolved cost = {cost:.0}");
            g.bench_function(name, |b| b.iter(|| two_phase_cost(&ctx, &fx.requests)));
        }
        g.finish();
    }

    // --- Access skew ---------------------------------------------------
    let mut g = c.benchmark_group("access_skew");
    g.sample_size(10);
    for alpha in [0.0, 0.5, 1.0] {
        let fx = Fixture::with(5.0, alpha, 42);
        g.bench_with_input(BenchmarkId::from_parameter(alpha), &(), |b, _| {
            let ctx = fx.ctx();
            b.iter(|| two_phase_cost(&ctx, &fx.requests))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
