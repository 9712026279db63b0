//! Sharded-scheduler scaling: region-sharded IVSP + SORP with
//! cross-shard reconciliation against the monolithic pipeline at
//! 1k / 4k / 16k requests, shards ∈ {1, 4, 8}, in two arms: the default
//! [`ExecMode`] (parallel fan-out inside each shard) and
//! `ExecMode::Sequential`, which keeps algorithmic gains apart from
//! thread gains. Shards themselves always run one after another.
//!
//! The instance is the sharded solver's exactness regime — a regional
//! catalog (each neighborhood requests only its own slice, see
//! [`vod_workload::generate_regional_requests`]) under a
//! neighborhood-local placement policy — so besides the timing the bench
//! *asserts* the contract: total Ψ within 1e-9 relative of the
//! monolithic solver at every size and shard count, bit-identical output
//! at one shard, and a strict simulator replay of the reconciled
//! schedule at every size.
//!
//! Besides the criterion report, a machine-readable summary (median ns
//! per arm, speedups, conflict and reconciliation counters) is written
//! to `results/BENCH_shard.json`. In `--test` smoke mode everything runs
//! once on the smallest size only and the JSON artifact is untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{
    ivsp_solve_priced_with, shard_solve, sorp_solve_priced, ExecMode, GreedyPolicy, SchedCtx,
    ShardConfig, ShardOutcome, SorpConfig, SorpOutcome, WarmState,
};
use vod_cost_model::{CostModel, RequestBatch};
use vod_simulator::{simulate, SimOptions};
use vod_topology::{builders, Topology};
use vod_workload::{
    generate_catalog, generate_regional_requests, CatalogConfig, RequestConfig, ShardStrategy,
};

/// 24 neighborhoods × 6 users; capacity holds ≈2 files, so phase 1's
/// capacity-blind caching overflows everywhere and SORP does real work —
/// the component sharding accelerates.
fn world() -> Topology {
    builders::random_connected(
        &builders::GenConfig {
            storages: 24,
            capacity_gb: 6.0,
            users_per_neighborhood: 6,
            ..builders::GenConfig::default()
        },
        3,
        0xB0B,
    )
}

fn sorp_cfg() -> SorpConfig {
    SorpConfig {
        policy: GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
        ..SorpConfig::default()
    }
}

/// One cold sharded solve: a fresh warm state with nothing committed.
fn solve(ctx: &SchedCtx<'_>, batch: &RequestBatch, shards: usize, mode: ExecMode) -> ShardOutcome {
    let cfg =
        ShardConfig { shards, strategy: ShardStrategy::ByRegion, seed: 0x5EED, sorp: sorp_cfg() };
    shard_solve(ctx, batch, &cfg, &mut WarmState::new(ctx.topo), mode)
}

/// The monolithic pipeline: phase 1 and SORP over the whole batch.
fn monolith(ctx: &SchedCtx<'_>, batch: &RequestBatch, mode: ExecMode) -> SorpOutcome {
    let sorp = sorp_cfg();
    sorp_solve_priced(ctx, ivsp_solve_priced_with(ctx, batch, sorp.policy, mode), &sorp, &[], mode)
}

/// The timed arms: label and mode.
const ARMS: [(&str, ExecMode); 2] =
    [("default", ExecMode::Parallel), ("sequential", ExecMode::Sequential)];

/// Median ns per call of `run(i)` for each `i < configs` over `samples`
/// rounds (1 in smoke mode). Every round calls each configuration once,
/// in order, so slow drift of the host hits every configuration alike.
fn measure_interleaved(configs: usize, samples: usize, run: impl Fn(usize)) -> Vec<f64> {
    let mut ns = vec![Vec::with_capacity(samples); configs];
    for _ in 0..samples {
        for (i, out) in ns.iter_mut().enumerate() {
            let start = Instant::now();
            run(i);
            out.push(start.elapsed().as_nanos() as f64);
        }
    }
    ns.into_iter()
        .map(|mut v| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        })
        .collect()
}

struct Row {
    arm: &'static str,
    requests: usize,
    shards: usize,
    sharded_ns: f64,
    mono_ns: f64,
    psi_rel_err: f64,
    cross_shard_overflows: usize,
    reconcile_iterations: usize,
    shared_storages: usize,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"sorp_sharded\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"arm\": \"{}\", \"requests\": {}, \"shards\": {}, \"sharded_ns\": {:.0}, \
             \"monolithic_ns\": {:.0}, \"speedup\": {:.2}, \"psi_rel_err\": {:.3e}, \
             \"cross_shard_overflows\": {}, \"reconcile_iterations\": {}, \
             \"shared_storages\": {}}}{}\n",
            r.arm,
            r.requests,
            r.shards,
            r.sharded_ns,
            r.mono_ns,
            r.mono_ns / r.sharded_ns.max(1e-9),
            r.psi_rel_err,
            r.cross_shard_overflows,
            r.reconcile_iterations,
            r.shared_storages,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_shard.json"), body) {
        eprintln!("warning: could not write BENCH_shard.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let topo = world();
    let catalog = generate_catalog(&CatalogConfig::small(240), 0xCA7);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let mut rows = Vec::new();

    // 144 users × requests-per-user: 1008 / 4032 / 16_128 requests.
    let sizes: &[(usize, usize)] =
        if smoke { &[(7, 1008)] } else { &[(7, 1008), (28, 4032), (112, 16_128)] };

    for &(rpu, n) in sizes {
        let batch = generate_regional_requests(
            &topo,
            &catalog,
            &RequestConfig { requests_per_user: rpu, ..RequestConfig::paper() },
            0x5EED ^ n as u64,
        );
        assert_eq!(batch.len(), n);

        // --- Contract checks, once per size, outside the timing -------
        let par = ExecMode::Parallel;
        let mono = monolith(&ctx, &batch, par);
        assert!(mono.overflow_free, "monolithic must resolve at n = {n}");
        let one = solve(&ctx, &batch, 1, par);
        assert!(one.sorp.schedule == mono.schedule, "1 shard diverged at n = {n}");
        assert_eq!(one.sorp.cost.to_bits(), mono.cost.to_bits(), "1-shard Ψ bits at n = {n}");
        for &shards in &[4usize, 8] {
            let sharded = solve(&ctx, &batch, shards, par);
            assert!(sharded.sorp.overflow_free, "{shards} shards left overflows at n = {n}");
            assert_eq!(sharded.split_videos, 0, "regional workload split a video at n = {n}");
            let rel = (sharded.sorp.cost - mono.cost).abs() / mono.cost.abs().max(1.0);
            assert!(
                rel <= 1e-9,
                "{shards} shards at n = {n}: Ψ {} vs monolithic {} (rel {rel:e})",
                sharded.sorp.cost,
                mono.cost
            );
            // The sequential arm times the very same computation.
            let seq = solve(&ctx, &batch, shards, ExecMode::Sequential);
            assert!(seq.sorp.schedule == sharded.sorp.schedule, "modes diverged at n = {n}");
            assert_eq!(seq.sorp.cost.to_bits(), sharded.sorp.cost.to_bits());
        }
        // Strict replay of the reconciled schedule.
        let replay = solve(&ctx, &batch, 8, par);
        let report =
            simulate(&topo, &catalog, &model, &replay.sorp.schedule, &SimOptions::strict(&batch));
        assert!(report.is_valid(), "strict replay failed at n = {n}: {:?}", report.violations);

        // --- Timing ----------------------------------------------------
        let samples = if smoke {
            1
        } else if n >= 16_000 {
            7
        } else if n >= 4_000 {
            11
        } else {
            21
        };
        if !smoke {
            let mut g = c.benchmark_group(&format!("sharded/{n}"));
            g.sample_size(10);
            g.bench_function("monolithic", |b| b.iter(|| monolith(&ctx, &batch, par)));
            g.bench_function("shards4", |b| b.iter(|| solve(&ctx, &batch, 4, par)));
            g.finish();
        }
        const SHARDS: [usize; 3] = [1, 4, 8];
        for (arm, mode) in ARMS {
            // Configuration 0 is the monolith, then one per shard count.
            let ns = measure_interleaved(1 + SHARDS.len(), samples, |i| {
                let cost = match i {
                    0 => monolith(&ctx, &batch, mode).cost,
                    _ => solve(&ctx, &batch, SHARDS[i - 1], mode).sorp.cost,
                };
                std::hint::black_box(cost);
            });
            let mono_ns = ns[0];
            for (&shards, &sharded_ns) in SHARDS.iter().zip(&ns[1..]) {
                let out = solve(&ctx, &batch, shards, mode);
                let rel = (out.sorp.cost - mono.cost).abs() / mono.cost.abs().max(1.0);
                eprintln!(
                    "sharded/{arm}/{n}/{shards}: {:.1} ms vs monolithic {:.1} ms ({:.2}x), \
                     {} cross-shard overflows, {} reconcile iterations",
                    sharded_ns / 1e6,
                    mono_ns / 1e6,
                    mono_ns / sharded_ns.max(1e-9),
                    out.cross_shard_overflows,
                    out.reconcile_iterations,
                );
                rows.push(Row {
                    arm,
                    requests: n,
                    shards,
                    sharded_ns,
                    mono_ns,
                    psi_rel_err: rel,
                    cross_shard_overflows: out.cross_shard_overflows,
                    reconcile_iterations: out.reconcile_iterations,
                    shared_storages: out.shared_storages,
                });
            }
        }
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
