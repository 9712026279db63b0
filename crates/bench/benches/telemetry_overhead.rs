//! Telemetry overhead: the flight recorder's disabled path must be free
//! and its enabled path cheap. Two arms run the identical service
//! horizon — recorder off (the default no-op sink) and recorder on —
//! and the bench asserts, outside the timing, that both arms commit
//! bit-identical schedules and Ψ (the recorder-transparency contract),
//! then times them interleaved (rep `i` runs both arms before rep
//! `i + 1`, so drift on a shared machine lands on both alike).
//!
//! A machine-readable summary (median wall ns per arm, overhead ratio,
//! event count) goes to `results/BENCH_telemetry.json`. In `--test`
//! smoke mode everything runs once and the artifact is untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;
use vod_experiments::{
    service::{service_horizon, ServiceParams},
    EnvParams,
};
use vod_obs::Recorder;

const N_CYCLES: usize = 5;

fn env() -> EnvParams {
    EnvParams { videos: 120, ..EnvParams::paper() }
}

/// A budget tight enough to engage the ladder, so the recording carries
/// rung/shed traffic and not just happy-path events.
fn service_params() -> ServiceParams {
    ServiceParams {
        queue_bound: Some(1140),
        budget_ns: Some(4.0e6),
        burst: vec![(1, 2)],
        ..ServiceParams::default()
    }
}

fn run(p: &EnvParams, recorder: &Recorder) -> Vec<u64> {
    let (outcome, _, _) =
        service_horizon(p, N_CYCLES, &service_params(), recorder).expect("valid config");
    outcome.cycles.iter().map(|c| c.cost.to_bits()).collect()
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let p = env();

    // --- Contract checks, outside the timing ---------------------------
    // The default sink really is the static no-op: a fresh context
    // records nothing until someone opts in.
    assert!(!Recorder::disabled().is_enabled());
    assert!(Recorder::disabled().recording().is_none());

    // Recorder on and off must commit bit-identical schedules.
    let costs_off = run(&p, &Recorder::disabled());
    let recorder = Recorder::enabled();
    let costs_on = run(&p, &recorder);
    assert_eq!(costs_off, costs_on, "recorder changed a committed Ψ");
    let events = recorder.recording().expect("enabled").events.len();
    assert!(events > 0, "enabled arm captured nothing");

    // --- Timing ---------------------------------------------------------
    let samples = if smoke { 1 } else { 7 };
    let mut wall_off = Vec::with_capacity(samples);
    let mut wall_on = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(run(&p, &Recorder::disabled()));
        wall_off.push(start.elapsed().as_nanos() as f64);

        let rec = Recorder::enabled();
        let start = Instant::now();
        std::hint::black_box(run(&p, &rec));
        wall_on.push(start.elapsed().as_nanos() as f64);
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let (off_ns, on_ns) = (median(wall_off), median(wall_on));
    let ratio = on_ns / off_ns;
    eprintln!(
        "telemetry: off {:.1} ms, on {:.1} ms ({:.3}x, {events} events)",
        off_ns / 1e6,
        on_ns / 1e6,
        ratio
    );

    if !smoke {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let body = format!(
            "{{\n  \"bench\": \"telemetry_overhead\",\n  \"smoke\": false,\n  \
             \"cycles\": {N_CYCLES},\n  \"events\": {events},\n  \
             \"wall_ns_recorder_off\": {off_ns:.0},\n  \
             \"wall_ns_recorder_on\": {on_ns:.0},\n  \"overhead_ratio\": {ratio:.4}\n}}\n"
        );
        if let Err(e) = std::fs::write(format!("{dir}/BENCH_telemetry.json"), body) {
            eprintln!("warning: could not write BENCH_telemetry.json: {e}");
        }

        let mut g = c.benchmark_group("telemetry");
        g.sample_size(10);
        g.bench_function("recorder_off", |b| b.iter(|| run(&p, &Recorder::disabled())));
        g.bench_function("recorder_on", |b| b.iter(|| run(&p, &Recorder::enabled())));
        g.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
