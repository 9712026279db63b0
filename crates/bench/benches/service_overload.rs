//! Service-frontend overload: the async intake + degradation-ladder
//! loop (`vod_experiments::service`) under steady, 2× burst, and 4×
//! burst arrival traces, all against one finite per-cycle budget and a
//! bounded intake queue.
//!
//! The point is not raw speed — the ladder exists to *cap* per-cycle
//! work — but the shape of the degradation: which rungs each load level
//! engages, how much is shed/deferred versus rejected at intake, and
//! that the loop's accounting stays exact while it degrades. Outside
//! the timing the bench asserts the contract per arm: zero conservation
//! error, the structural cross-check clean, and every committed cycle
//! schedule replaying strictly (shed requests excused).
//!
//! Besides the criterion report, a machine-readable summary (median
//! wall/solve ns, rung histogram, shed/defer/drop/reject counters per
//! arm) is written to `results/BENCH_service.json`. In `--test` smoke
//! mode everything runs once on the steady arm only and the JSON
//! artifact is untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_core::Rung;
use vod_experiments::{
    service::{service_catalog, service_horizon, ServiceParams},
    EnvParams,
};
use vod_obs::Recorder;
use vod_simulator::{check_service_accounting, cycle_is_clean, replay_service_cycle};

const N_CYCLES: usize = 6;
const TRACE_CYCLES: usize = 4;

fn env() -> EnvParams {
    EnvParams { videos: 120, ..EnvParams::paper() }
}

/// One budget and bound for every arm: steady load fits the Full rung,
/// 2× forces the cheap rungs, 4× exceeds even Greedy and sheds.
fn service_params(burst_mult: usize) -> ServiceParams {
    ServiceParams {
        queue_bound: Some(1140),
        budget_ns: Some(4.0e6),
        burst: if burst_mult > 1 { vec![(1, burst_mult)] } else { vec![] },
        trace_cycles: Some(TRACE_CYCLES),
        ..ServiceParams::default()
    }
}

/// The three load arms, in reporting order.
fn arms() -> [(&'static str, usize); 3] {
    [("steady", 1), ("burst2x", 2), ("burst4x", 4)]
}

struct Row {
    arm: &'static str,
    wall_ns: f64,
    solve_ns: f64,
    offered: usize,
    rejected: usize,
    served: usize,
    shed_events: usize,
    deferred: usize,
    dropped: usize,
    queue_high_water: usize,
    rung_histogram: [usize; 4],
}

/// Per-arm medians over `samples` round-robin passes (rep `i` runs
/// every arm before rep `i + 1` starts, so drift on a shared machine
/// lands on all arms alike).
fn measure(arm_list: &[(&'static str, usize)], samples: usize) -> Vec<(f64, f64)> {
    let p = env();
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); arm_list.len()];
    let mut solve: Vec<Vec<f64>> = vec![Vec::new(); arm_list.len()];
    for _ in 0..samples {
        for (ai, (_, mult)) in arm_list.iter().enumerate() {
            let sp = service_params(*mult);
            let start = Instant::now();
            let (outcome, _, _) = std::hint::black_box(
                service_horizon(&p, N_CYCLES, &sp, &Recorder::disabled()).expect("valid config"),
            );
            wall[ai].push(start.elapsed().as_nanos() as f64);
            solve[ai].push(outcome.cycles.iter().map(|c| c.warm.solve_ns).sum::<u64>() as f64);
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    wall.into_iter().zip(solve).map(|(w, s)| (median(w), median(s))).collect()
}

fn emit_json(rows: &[Row], smoke: bool) {
    if smoke {
        return;
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut body = String::from("{\n  \"bench\": \"service_overload\",\n");
    body.push_str(&format!(
        "  \"smoke\": false,\n  \"cycles\": {N_CYCLES},\n  \"trace_cycles\": {TRACE_CYCLES},\n"
    ));
    body.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let [full, reduced, greedy, shed] = r.rung_histogram;
        body.push_str(&format!(
            "    {{\"arm\": \"{}\", \"wall_ns\": {:.0}, \"solve_ns\": {:.0}, \"offered\": {}, \
             \"rejected\": {}, \"served\": {}, \"shed_events\": {}, \"deferred\": {}, \
             \"dropped\": {}, \"queue_high_water\": {}, \"rungs_full\": {}, \
             \"rungs_reduced\": {}, \"rungs_greedy\": {}, \"rungs_shed\": {}}}{}\n",
            r.arm,
            r.wall_ns,
            r.solve_ns,
            r.offered,
            r.rejected,
            r.served,
            r.shed_events,
            r.deferred,
            r.dropped,
            r.queue_high_water,
            full,
            reduced,
            greedy,
            shed,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(format!("{dir}/BENCH_service.json"), body) {
        eprintln!("warning: could not write BENCH_service.json: {e}");
    }
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let p = env();
    let arm_list: &[(&'static str, usize)] = if smoke { &[("steady", 1)] } else { &arms() };

    // --- Contract checks, once per arm, outside the timing -------------
    let mut rows = Vec::new();
    for &(arm, mult) in arm_list {
        let sp = service_params(mult);
        let (outcome, report, raw) =
            service_horizon(&p, N_CYCLES, &sp, &Recorder::disabled()).expect("valid config");
        assert_eq!(report.conservation_error(), 0, "{arm}: accounting leak");
        let complaints = check_service_accounting(&report);
        assert!(complaints.is_empty(), "{arm}: {complaints:?}");
        let (topo, _) = p.build();
        let catalog = service_catalog(&p);
        let model = vod_cost_model::CostModel::per_hop();
        for out in &raw {
            let sim = replay_service_cycle(&topo, &catalog, &model, out);
            assert!(
                cycle_is_clean(&sim),
                "{arm}: cycle {} replay violations: {:?}",
                out.stats.cycle,
                sim.violations
            );
        }
        if mult == 1 {
            assert_eq!(report.rejected_full, 0, "steady load must not hit the bound");
        } else {
            assert!(
                report.cycles.iter().any(|cst| cst.rung != Rung::Full),
                "{arm}: burst never engaged the ladder"
            );
        }
        if mult >= 4 {
            assert!(report.shed_events > 0, "{arm}: a 4x burst past the bound must shed");
        }
        let mut rung_histogram = [0usize; 4];
        for cst in &report.cycles {
            let idx = match cst.rung {
                Rung::Full => 0,
                Rung::ReducedTrials => 1,
                Rung::GreedyOnly => 2,
                Rung::Shed => 3,
            };
            rung_histogram[idx] += 1;
        }
        rows.push(Row {
            arm,
            wall_ns: 0.0,
            solve_ns: 0.0,
            offered: report.offered,
            rejected: report.rejected_full + report.rejected_saturated,
            served: report.served,
            shed_events: report.shed_events,
            deferred: report.deferred_events,
            dropped: report.dropped,
            queue_high_water: report.queue_high_water,
            rung_histogram,
        });
        drop(outcome);
    }

    // --- Timing ---------------------------------------------------------
    let samples = if smoke { 1 } else { 5 };
    let medians = measure(arm_list, samples);
    for (row, &(wall_ns, solve_ns)) in rows.iter_mut().zip(medians.iter()) {
        row.wall_ns = wall_ns;
        row.solve_ns = solve_ns;
        eprintln!(
            "service/{}: wall {:.1} ms, solve {:.1} ms, served {}, shed {}, dropped {}, \
             rejected {}, rungs {:?}",
            row.arm,
            row.wall_ns / 1e6,
            row.solve_ns / 1e6,
            row.served,
            row.shed_events,
            row.dropped,
            row.rejected,
            row.rung_histogram,
        );
    }
    emit_json(&rows, smoke);

    if !smoke {
        let mut g = c.benchmark_group("service");
        g.sample_size(10);
        for (arm, mult) in arms() {
            let sp = service_params(mult);
            g.bench_function(arm, |b| {
                b.iter(|| {
                    service_horizon(&p, N_CYCLES, &sp, &Recorder::disabled()).expect("valid config")
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
