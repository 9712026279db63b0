//! End-to-end SORP scaling: the conflict-scoped solver (cross-iteration
//! trial cache + incremental overflow monitor) against the uncached
//! oracle at 100 / 500 / 1000 / 2000 requests on a generated 24-storage
//! topology with tight 1.8 GB stores. Each commit perturbs one video at
//! a handful of (node, window) pairs, so the cached solver's
//! per-iteration work tracks the conflict footprint instead of the
//! batch size — the wall-clock curve should bend toward linear while
//! the oracle grows super-quadratically.
//!
//! Two arms share the topology:
//!
//! * `round_robin` truncates one Zipf workload to the first `n`
//!   arrivals round-robin across titles, so the hottest titles' request
//!   counts grow with the batch (136 requests for the largest title at
//!   `n` = 2000);
//! * `fixed_per_title` holds every title at exactly [`PER_TITLE`]
//!   requests and grows the batch by adding titles, so per-title work
//!   stays flat and only the number of conflicting videos grows.
//!
//! Besides the criterion report, the bench asserts both solvers produce
//! bit-identical schedules at every size of both arms and writes a
//! machine-readable summary (median ns per solve — the cached solver in
//! the default and the sequential [`ExecMode`], the oracle in the
//! default — speedups, and the work counters) to
//! `results/BENCH_sorp.json`. In `--test` smoke mode everything runs once
//! and the measured JSON artifact is left untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{
    ivsp_solve_priced, oracle, sorp_solve_priced, ExecMode, SchedCtx, SorpConfig, SorpOutcome,
};
use vod_cost_model::{CostModel, Request, RequestBatch, VideoId};
use vod_topology::{builders, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// Batch sizes of both arms.
const SIZES: [usize; 4] = [100, 500, 1000, 2000];

/// Requests per title in the `fixed_per_title` arm.
const PER_TITLE: usize = 8;

fn world() -> (Topology, Workload) {
    // A production-shaped instance rather than the paper's 19-storage
    // toy: many storages means overflows land on many *independent*
    // nodes, so one commit churns one conflict neighborhood instead of
    // the whole batch — the regime the conflict-scoped solver targets.
    let topo = builders::random_connected(
        &builders::GenConfig {
            storages: 24,
            capacity_gb: 1.8,
            users_per_neighborhood: 4,
            ..builders::GenConfig::default()
        },
        3,
        0xB0B,
    );
    // 21 requests per user × 96 users = 2016 requests, truncated per size.
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(150),
        &RequestConfig { requests_per_user: 21, ..RequestConfig::paper() },
        0x50_12,
    );
    (topo, wl)
}

fn truncated(wl: &Workload, n: usize) -> RequestBatch {
    // Round-robin across the per-video groups so a small prefix still
    // spans the whole topology (first-n-arrivals, not first-n-videos).
    let groups: Vec<Vec<Request>> = wl.requests.groups().map(|(_, g)| g.to_vec()).collect();
    let mut all = Vec::new();
    let mut rank = 0;
    while all.len() < n {
        let before = all.len();
        for g in &groups {
            if let Some(r) = g.get(rank) {
                all.push(*r);
            }
        }
        if all.len() == before {
            break;
        }
        rank += 1;
    }
    all.truncate(n);
    RequestBatch::new(all)
}

/// The `fixed_per_title` arm's workload: the `round_robin` request
/// rate and seed over a 256-title catalog (enough titles for 2000
/// requests at [`PER_TITLE`] each). Only its arrival times and users
/// are used; [`fixed_per_title`] assigns the titles.
fn fixed_world(topo: &Topology) -> Workload {
    Workload::generate(
        topo,
        &CatalogConfig::small(256),
        &RequestConfig { requests_per_user: 21, ..RequestConfig::paper() },
        0x50_12,
    )
}

fn fixed_per_title(wl: &Workload, n: usize) -> RequestBatch {
    // `n` arrivals spread evenly over the day, dealt round-robin in time
    // order to `n / PER_TITLE` titles: every title gets exactly
    // PER_TITLE requests spread over the whole day, whatever `n` is.
    let mut all: Vec<Request> = wl.requests.iter().copied().collect();
    all.sort_by(|a, b| a.start.total_cmp(&b.start));
    let titles = n / PER_TITLE;
    let picked = (0..titles * PER_TITLE)
        .map(|i| Request { video: VideoId((i % titles) as u32), ..all[i * all.len() / n] })
        .collect();
    RequestBatch::new(picked)
}

fn solve(ctx: &SchedCtx<'_>, batch: &RequestBatch, uncached: bool, mode: ExecMode) -> SorpOutcome {
    let solver = if uncached { oracle::sorp_solve_uncached } else { sorp_solve_priced };
    solver(ctx, ivsp_solve_priced(ctx, batch), &SorpConfig::default(), &[], mode)
}

/// Median ns per call of `f` over `samples` runs (1 in smoke mode).
fn measure<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(|a, b| a.total_cmp(b));
    ns[ns.len() / 2]
}

struct Row {
    arm: &'static str,
    requests: usize,
    largest_title: usize,
    cached_ns: f64,
    cached_seq_ns: f64,
    uncached_ns: f64,
    iterations: usize,
    trials_run: usize,
    trials_cached: usize,
    nodes_rescanned: usize,
    uncached_trials_run: usize,
    uncached_nodes_rescanned: usize,
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"sorp_scaling\",\n");
    body.push_str("  \"smoke\": false,\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"arm\": \"{}\", \"requests\": {}, \"largest_title\": {}, \
             \"cached_ns\": {:.0}, \"cached_seq_ns\": {:.0}, \"uncached_ns\": {:.0}, \
             \"speedup\": {:.2}, \"iterations\": {}, \"trials_run\": {}, \
             \"trials_cached\": {}, \"nodes_rescanned\": {}, \
             \"uncached_trials_run\": {}, \"uncached_nodes_rescanned\": {}}}{}\n",
            r.arm,
            r.requests,
            r.largest_title,
            r.cached_ns,
            r.cached_seq_ns,
            r.uncached_ns,
            r.uncached_ns / r.cached_ns.max(1e-9),
            r.iterations,
            r.trials_run,
            r.trials_cached,
            r.nodes_rescanned,
            r.uncached_trials_run,
            r.uncached_nodes_rescanned,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_sorp.json"), body) {
        eprintln!("warning: could not write BENCH_sorp.json: {e}");
    }
}

/// Gate and time one batch of one arm.
fn run_size(
    c: &mut Criterion,
    ctx: &SchedCtx<'_>,
    arm: &'static str,
    batch: &RequestBatch,
    smoke: bool,
) -> Row {
    let n = batch.len();

    // Bit-identicality cross-check at every measured size — the
    // cached solver must be a pure speedup, never a different answer.
    let cached = solve(ctx, batch, false, ExecMode::default());
    let uncached = solve(ctx, batch, true, ExecMode::default());
    assert!(cached.schedule == uncached.schedule, "{arm}: schedules diverged at n = {n}");
    assert_eq!(cached.cost.to_bits(), uncached.cost.to_bits(), "{arm}: costs diverged at n = {n}");
    assert_eq!(cached.iterations, uncached.iterations, "{arm}: iterations diverged at n = {n}");
    assert!(cached.overflow_free, "{arm}: bench instance must resolve at n = {n}");

    let mut g = c.benchmark_group(&format!("sorp/{arm}/{n}"));
    g.sample_size(10);
    g.bench_function("cached", |b| b.iter(|| solve(ctx, batch, false, ExecMode::default())));
    g.bench_function("uncached", |b| b.iter(|| solve(ctx, batch, true, ExecMode::default())));
    g.finish();

    // The oracle's cost grows super-quadratically; keep its sample
    // count small at the large sizes so the bench stays tractable.
    let samples = if smoke {
        1
    } else if n >= 1000 {
        5
    } else {
        15
    };
    let timed = |uncached: bool, mode: ExecMode| {
        measure(
            || {
                std::hint::black_box(solve(ctx, batch, uncached, mode).cost);
            },
            samples,
        )
    };
    let cached_ns = timed(false, ExecMode::default());
    let cached_seq_ns = timed(false, ExecMode::Sequential);
    let uncached_ns = timed(true, ExecMode::default());
    let largest_title = batch.groups().map(|(_, g)| g.len()).max().unwrap_or(0);
    eprintln!(
        "sorp/{arm}/{n}: cached {:.1} ms ({:.1} ms sequential) vs uncached {:.1} ms ({:.2}x), \
         largest title {largest_title}, {} iterations, {}/{} trials answered from cache, \
         {}/{} nodes rescanned",
        cached_ns / 1e6,
        cached_seq_ns / 1e6,
        uncached_ns / 1e6,
        uncached_ns / cached_ns.max(1e-9),
        cached.iterations,
        cached.trials_cached,
        uncached.trials_run,
        cached.nodes_rescanned,
        uncached.nodes_rescanned,
    );
    Row {
        arm,
        requests: n,
        largest_title,
        cached_ns,
        cached_seq_ns,
        uncached_ns,
        iterations: cached.iterations,
        trials_run: cached.trials_run,
        trials_cached: cached.trials_cached,
        nodes_rescanned: cached.nodes_rescanned,
        uncached_trials_run: uncached.trials_run,
        uncached_nodes_rescanned: uncached.nodes_rescanned,
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let (topo, wl) = world();
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let mut rows = Vec::new();
    for n in SIZES {
        rows.push(run_size(c, &ctx, "round_robin", &truncated(&wl, n), smoke));
    }

    let fixed = fixed_world(&topo);
    let ctx = SchedCtx::new(&topo, &model, &fixed.catalog);
    for n in SIZES {
        rows.push(run_size(c, &ctx, "fixed_per_title", &fixed_per_title(&fixed, n), smoke));
    }

    emit_json(&rows, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
