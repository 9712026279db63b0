//! One service pass: offer every arrival through `ServiceLoop::offer`
//! and run `ServiceLoop::run_cycle` once per cycle, timing the calls.

use crate::world::{CYCLES, HORIZON};
use std::time::Instant;
use vod_core::{ExecMode, Rung, SchedCtx, ServiceCycleOutcome, ServiceLoop, ServiceReport};
use vod_workload::Arrival;

/// Marker events the benchmark records around each `run_cycle` call in
/// a traced pass; the per-layer split is measured between them.
pub const CYCLE_BEGIN: &str = "bench.cycle_begin";
pub const CYCLE_END: &str = "bench.cycle_end";

/// What one pass produced.
pub struct Pass {
    pub outcomes: Vec<ServiceCycleOutcome>,
    pub report: ServiceReport,
    /// Wall ns of each `run_cycle` call.
    pub cycle_ns: Vec<u64>,
    /// Wall ns of each cycle's serve loop: its `offer` calls and its
    /// `run_cycle` call.
    pub serve_ns: Vec<u64>,
    /// Wall ns of each `offer` call; empty unless offers were timed.
    pub offer_ns: Vec<u64>,
}

impl Pass {
    /// Wall ns of the whole serve loop.
    pub fn serve_total(&self) -> u64 {
        self.serve_ns.iter().sum()
    }

    /// Requests the solver was handed: admitted minus those the ladder
    /// shed before solving. The ladder never runs alongside faults (see
    /// `world::workload`), so in a `Shed`-rung cycle every shed is a
    /// ladder shed, and other rungs shed nothing before the solve.
    pub fn solved(&self) -> usize {
        self.report
            .cycles
            .iter()
            .map(|c| c.admitted - if c.rung == Rung::Shed { c.shed } else { 0 })
            .sum()
    }

    /// The bit-exact outcome of the pass. Every decision the loop makes
    /// runs on simulated time, so passes of one seed must agree.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            cycles: self
                .outcomes
                .iter()
                .map(|o| (o.cost.to_bits(), o.stats.served, o.stats.rung, o.victims))
                .collect(),
            dropped: self.report.dropped,
            in_flight: self.report.in_flight,
        }
    }
}

/// Per-cycle (Ψ bits, served, rung, victims) and the run's dropped and
/// in-flight totals.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub cycles: Vec<(u64, usize, Rung, usize)>,
    pub dropped: usize,
    pub in_flight: usize,
}

/// Run all cycles of one pass. `time_offers` times each `offer` call on
/// its own (traced passes only: the extra clock reads would bias the
/// untraced serve-loop timing).
pub fn serve(
    ctx: &SchedCtx<'_>,
    mut svc: ServiceLoop,
    arrivals: &[Arrival],
    mode: ExecMode,
    time_offers: bool,
) -> Pass {
    let mut next = 0usize;
    let mut outcomes = Vec::with_capacity(CYCLES);
    let mut cycle_ns = Vec::with_capacity(CYCLES);
    let mut offer_ns = Vec::new();
    let mut serve_ns = Vec::with_capacity(CYCLES);
    for k in 0..CYCLES {
        let t0 = k as f64 * HORIZON;
        let started = Instant::now();
        while next < arrivals.len() && arrivals[next].at <= t0 {
            // A rejection is the loop's typed backpressure; it is counted
            // in the cycle stats, and the reservation is not retried.
            if time_offers {
                let one = Instant::now();
                let _ = svc.offer(arrivals[next].request);
                offer_ns.push(one.elapsed().as_nanos() as u64);
            } else {
                let _ = svc.offer(arrivals[next].request);
            }
            next += 1;
        }
        let offered_ns = started.elapsed().as_nanos() as u64;

        ctx.recorder.event_at(k as u64, t0, CYCLE_BEGIN, |_| {});
        let started = Instant::now();
        let out = svc.run_cycle(ctx, mode);
        let ns = started.elapsed().as_nanos() as u64;
        ctx.recorder.event_at(k as u64, t0, CYCLE_END, |_| {});

        serve_ns.push(offered_ns + ns);
        cycle_ns.push(ns);
        outcomes.push(std::hint::black_box(out));
    }
    Pass { outcomes, report: svc.finish(), cycle_ns, serve_ns, offer_ns }
}
