//! Link admission: `LinkLedger::peak_over` (one occupancy timeline per
//! link) against a naive sweep that collects and sorts the overlapping
//! streams on every query, at 100 / 1k / 10k committed streams on one
//! link; plus `bandwidth_aware_solve` end to end at the paper preset.
//!
//! Every timed query's answer is checked bit for bit against the naive
//! sweep. Besides the criterion report, the bench writes median ns per
//! query, the speedup, and the solver's median wall time to
//! `results/BENCH_bandwidth.json`. In `--test` smoke mode everything runs
//! once and the measured JSON artifact is left untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::{bandwidth_aware_solve, LinkLedger, SchedCtx};
use vod_cost_model::{CostModel, Secs};
use vod_experiments::{ext::bandwidth_world, Preset};
use vod_topology::{units, Topology, TopologyBuilder};
use vod_workload::SplitMix64;

/// One day of absolute time, the span streams are drawn from.
const DAY: f64 = 86_400.0;

/// A warehouse and one storage joined by link 0.
fn one_link() -> Topology {
    let mut b = TopologyBuilder::new();
    let vw = b.add_warehouse("VW");
    let s1 = b.add_storage("IS1", 0.0, units::gb(5.0));
    b.connect(vw, s1, 1.0).expect("fresh link");
    b.add_users(s1, 1);
    b.build().expect("valid topology")
}

/// `n` deterministic `(start, end, bytes/s)` streams: playback-length
/// durations and 1–4 × 5 Mbps, so load sums are exact in `f64`.
fn streams(n: usize, seed: u64) -> Vec<(Secs, Secs, f64)> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let start = rng.range_f64(0.0, DAY);
            let dur = rng.range_f64(900.0, 5400.0);
            let bw = units::mbps(5.0) * (1 + rng.index(4)) as f64;
            (start, start + dur, bw)
        })
        .collect()
}

/// Query windows `[t0, t1)` shaped like the solver's: one playback long.
fn windows(n: usize, seed: u64) -> Vec<(Secs, Secs)> {
    streams(n, seed).into_iter().map(|(s, e, _)| (s, e)).collect()
}

/// Naive peak load over `[t0, t1)`: clip the overlapping streams to the
/// window, sort their endpoint events and sweep.
fn naive_peak(xs: &[(Secs, Secs, f64)], t0: Secs, t1: Secs) -> f64 {
    let mut events: Vec<(Secs, f64)> = Vec::new();
    for &(s, e, bw) in xs {
        if s < t1 && e > t0 {
            events.push((s.max(t0), bw));
            events.push((e.min(t1), -bw));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut load = 0.0;
    let mut peak = 0.0f64;
    for (_, d) in events {
        load += d;
        peak = peak.max(load);
    }
    peak
}

/// Median ns per query of `f`, which answers every query of one pass into
/// its buffer; each pass's answers must equal `expect` bit for bit.
fn measure<F: FnMut(&mut Vec<f64>)>(mut f: F, expect: &[f64], smoke: bool) -> f64 {
    let samples = if smoke { 1 } else { 15 };
    let mut answers = Vec::with_capacity(expect.len());
    let mut per_query: Vec<f64> = (0..samples)
        .map(|_| {
            answers.clear();
            let start = Instant::now();
            f(&mut answers);
            let ns = start.elapsed().as_nanos() as f64 / expect.len() as f64;
            assert!(
                answers.len() == expect.len()
                    && answers.iter().zip(expect).all(|(a, b)| a.to_bits() == b.to_bits()),
                "peak_over disagrees with the naive sweep"
            );
            ns
        })
        .collect();
    per_query.sort_by(f64::total_cmp);
    per_query[per_query.len() / 2]
}

struct Row {
    n: usize,
    naive_ns: f64,
    timeline_ns: f64,
}

struct SolveRow {
    streams_per_link: f64,
    requests: usize,
    blocked: usize,
    solve_ms: f64,
}

fn emit_json(rows: &[Row], solves: &[SolveRow], smoke: bool) {
    if smoke {
        // Smoke runs execute once without measuring; don't clobber the
        // last real numbers.
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut body = String::from("{\n  \"bench\": \"bandwidth_ledger\",\n");
    body.push_str(&format!("  \"smoke\": false,\n  \"nproc\": {nproc},\n  \"peak_over\": [\n"));
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"streams\": {}, \"naive_ns\": {:.1}, \"timeline_ns\": {:.1}, \
             \"speedup\": {:.2}}}{}\n",
            r.n,
            r.naive_ns,
            r.timeline_ns,
            r.naive_ns / r.timeline_ns.max(1e-9),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ],\n  \"bandwidth_aware_solve\": [\n");
    for (i, r) in solves.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"preset\": \"paper\", \"streams_per_link\": {}, \"requests\": {}, \
             \"blocked\": {}, \"solve_ms\": {:.2}}}{}\n",
            r.streams_per_link,
            r.requests,
            r.blocked,
            r.solve_ms,
            if i + 1 < solves.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_bandwidth.json"), body) {
        eprintln!("warning: could not write BENCH_bandwidth.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let topo = one_link();
    let route = [topo.edges()[0].a, topo.edges()[0].b];
    let mut rows = Vec::new();

    for &n in &[100usize, 1000, 10_000] {
        let committed = streams(n, 0x11_4C ^ n as u64);
        let queries = windows(64, 0xBEEF ^ n as u64);
        let mut ledger = LinkLedger::new(&topo);
        for &(s, e, bw) in &committed {
            ledger.commit_route(&topo, &route, s, e - s, bw);
        }
        let expect: Vec<f64> =
            queries.iter().map(|&(t0, t1)| naive_peak(&committed, t0, t1)).collect();

        let mut g = c.benchmark_group(&format!("peak_over/{n}"));
        g.sample_size(10);
        g.bench_function("naive", |b| {
            b.iter(|| queries.iter().map(|&(t0, t1)| naive_peak(&committed, t0, t1)).sum::<f64>())
        });
        g.bench_function("timeline", |b| {
            b.iter(|| queries.iter().map(|&(t0, t1)| ledger.peak_over(0, t0, t1)).sum::<f64>())
        });
        g.finish();

        // Headline numbers for the JSON artifact, measured directly.
        let naive_ns = measure(
            |out| out.extend(queries.iter().map(|&(t0, t1)| naive_peak(&committed, t0, t1))),
            &expect,
            smoke,
        );
        let timeline_ns = measure(
            |out| out.extend(queries.iter().map(|&(t0, t1)| ledger.peak_over(0, t0, t1))),
            &expect,
            smoke,
        );
        rows.push(Row { n, naive_ns, timeline_ns });
    }

    // The solver end to end on the `vodx bandwidth` worlds: tight, middle
    // and wide links.
    let mut solves = Vec::new();
    let model = CostModel::per_hop();
    for streams_per_link in [1.0, 4.0, 16.0] {
        let (topo, catalog, requests) = bandwidth_world(Preset::Paper, streams_per_link);
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let mut g = c.benchmark_group(&format!("bandwidth_aware_solve/{streams_per_link}"));
        g.sample_size(10);
        g.bench_function("paper", |b| b.iter(|| bandwidth_aware_solve(&ctx, &requests).cost));
        g.finish();

        let samples = if smoke { 1 } else { 7 };
        let mut blocked = 0;
        let mut ms: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                let out = std::hint::black_box(bandwidth_aware_solve(&ctx, &requests));
                let elapsed = start.elapsed().as_secs_f64() * 1e3;
                blocked = out.blocked.len();
                elapsed
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        solves.push(SolveRow {
            streams_per_link,
            requests: requests.len(),
            blocked,
            solve_ms: ms[ms.len() / 2],
        });
    }

    emit_json(&rows, &solves, smoke);
}

criterion_group!(benches, bench);
criterion_main!(benches);
