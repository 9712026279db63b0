//! Rolling-horizon operation: consecutive Video-On-Reservation cycles.
//!
//! The paper schedules one cycle's request batch in isolation; a deployed
//! service runs cycle after cycle, and copies cached late in cycle `k`
//! are still draining when cycle `k+1` starts. The multi-cycle run
//! itself is [`crate::service::service_horizon`], which drives
//! `vod_core::service_run` — the one cycle loop — and reports each cycle
//! as a [`CycleReport`]. This module holds those report types and the
//! cold-start reference [`cold_horizon`]: the same arrival trace cut
//! into per-cycle batches, each solved from scratch by [`shard_solve`]
//! over a fresh [`WarmState::with_committed`] holding the flat list of
//! every earlier cycle's residencies. The service loop's warm start (the committed
//! book and the carried trial cache of `vod_core::WarmState`) must
//! match it within 1e-9 relative Ψ on every cycle — asserted here, in
//! the `warm_start_props` suite, and in the `cycles_warm` bench.

use crate::service::{arrival_trace, service_catalog, ServiceParams};
use crate::EnvParams;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Instant;
use vod_core::{
    detect_overflows, shard_solve, ExecMode, SchedCtx, ServiceCycleOutcome, ServiceCycleStats,
    StorageLedger, WarmState, WarmStats, EXTERNAL_OCCUPANCY,
};
use vod_cost_model::{CostModel, RequestBatch, SpaceProfile};
use vod_topology::{units, NodeId};

/// Per-cycle report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CycleReport {
    /// Cycle index (0-based).
    pub cycle: usize,
    /// Requests served this cycle.
    pub requests: usize,
    /// Ψ of this cycle's resolved schedule.
    pub cost: f64,
    /// Relative cost increase from overflow resolution this cycle.
    pub rel_increase: f64,
    /// Victims rescheduled this cycle.
    pub victims: usize,
    /// Space still occupied by earlier cycles at this cycle's start, GB.
    pub spillover_gb: f64,
    /// Whether every overflow was resolved (false only if spillover alone
    /// over-commits a storage).
    pub overflow_free: bool,
    /// Wall-clock of the whole cycle (intake release, solve, repair,
    /// commit), nanoseconds. `warm.solve_ns` is the solver-only share.
    pub wall_ns: u64,
    /// Warm-start accounting for the cycle. On the cold reference only
    /// `shards_used`, `spillover_bytes`, and `solve_ns` are populated
    /// (there is no carried state to count).
    pub warm: WarmStats,
    /// Service-frontend accounting. The cold reference has no intake
    /// layer and fills only `cycle`, `admitted` and `served`.
    pub service: ServiceCycleStats,
}

impl CycleReport {
    /// The report row for one cycle the service loop ran.
    pub fn from_outcome(out: &ServiceCycleOutcome) -> Self {
        Self {
            cycle: out.stats.cycle,
            requests: out.served.len(),
            cost: out.cost,
            rel_increase: out.rel_increase(),
            victims: out.victims,
            spillover_gb: out.warm.spillover_bytes / units::GB,
            overflow_free: out.overflow_free,
            wall_ns: out.wall_ns,
            warm: out.warm.clone(),
            service: out.stats.clone(),
        }
    }
}

/// Result of a rolling-horizon run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RollingOutcome {
    /// One report per cycle.
    pub cycles: Vec<CycleReport>,
}

impl RollingOutcome {
    /// Total cost across cycles.
    pub fn total_cost(&self) -> f64 {
        self.cycles.iter().map(|c| c.cost).sum()
    }

    /// Total solve wall-clock across cycles, nanoseconds.
    pub fn total_solve_ns(&self) -> u64 {
        self.cycles.iter().map(|c| c.warm.solve_ns).sum()
    }

    /// Render as an aligned table. Every cycle gets a row — including
    /// idle ones with zero requests (the service loop's idle ticks) —
    /// with per-cycle solve and wall time in milliseconds and the
    /// service frontend's rung/shed columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# Rolling-horizon operation ({} cycles)", self.cycles.len());
        let _ = writeln!(
            out,
            "{:>7}{:>10}{:>14}{:>10}{:>10}{:>14}{:>8}{:>8}{:>11}{:>10}{:>7}{:>9}{:>7}{:>7}{:>7}{:>7}",
            "cycle",
            "requests",
            "cost $",
            "+res%",
            "victims",
            "spillover GB",
            "shards",
            "hits",
            "solve ms",
            "wall ms",
            "clean",
            "rung",
            "shed",
            "defer",
            "drop",
            "queue"
        );
        for c in &self.cycles {
            let s = &c.service;
            let _ = writeln!(
                out,
                "{:>7}{:>10}{:>14.0}{:>9.1}%{:>10}{:>14.2}{:>8}{:>8}{:>11.2}{:>10.2}{:>7}{:>9}{:>7}{:>7}{:>7}{:>7}",
                c.cycle,
                c.requests,
                c.cost,
                100.0 * c.rel_increase,
                c.victims,
                c.spillover_gb,
                c.warm.shards_used,
                c.warm.trials_hit,
                c.warm.solve_ns as f64 / 1e6,
                c.wall_ns as f64 / 1e6,
                if c.overflow_free { "yes" } else { "NO" },
                s.rung.label(),
                s.shed,
                s.deferred,
                s.dropped,
                s.queue_depth
            );
        }
        let _ = writeln!(out, "total: ${:.0}", self.total_cost());
        out
    }
}

/// The cold-start reference for [`crate::service::service_horizon`]:
/// the same arrival trace cut into per-cycle batches by reservation
/// window (cycle `k` takes every reservation starting in
/// `[k·H, (k+1)·H)`, exactly the batch the unbounded service loop
/// drains), each solved from scratch by [`shard_solve`] under
/// `sp.shard` over a fresh [`WarmState::with_committed`] holding the
/// flat list of every earlier cycle's residencies. Idle cycles skip the
/// solve.
///
/// Only the oracle configuration has a cold equivalent, so `sp` must
/// set no queue bound, budget, faults or burst.
pub fn cold_horizon(params: &EnvParams, n_cycles: usize, sp: &ServiceParams) -> RollingOutcome {
    assert!(n_cycles >= 1, "need at least one cycle");
    assert!(
        sp.queue_bound.is_none()
            && sp.budget_ns.is_none()
            && sp.fault_seed.is_none()
            && sp.burst.is_empty(),
        "cold_horizon runs the oracle configuration only: no queue bound, budget, faults or burst"
    );
    let (topo, _) = params.build();
    let catalog = service_catalog(params);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let (mut arrivals, horizon) = arrival_trace(&topo, &catalog, params, n_cycles, sp);
    arrivals.sort_by(|a, b| a.request.start.total_cmp(&b.request.start));

    let mut rest = arrivals.as_slice();
    let mut committed: Vec<(NodeId, SpaceProfile)> = Vec::new();
    let mut cycles = Vec::with_capacity(n_cycles);
    for k in 0..n_cycles {
        let cycle_started = Instant::now();
        let t0 = k as f64 * horizon;
        let window_end = (k + 1) as f64 * horizon;
        let cut = rest.partition_point(|a| a.request.start < window_end);
        let batch = RequestBatch::new(rest[..cut].iter().map(|a| a.request).collect());
        rest = &rest[cut..];

        let spillover_bytes = committed.iter().map(|(_, p)| p.space_at(t0)).sum::<f64>().max(0.0);
        let mut report = CycleReport {
            cycle: k,
            requests: batch.len(),
            cost: 0.0,
            rel_increase: 0.0,
            victims: 0,
            spillover_gb: spillover_bytes / units::GB,
            overflow_free: true,
            wall_ns: 0,
            warm: WarmStats { spillover_bytes, ..WarmStats::default() },
            service: ServiceCycleStats {
                cycle: k,
                admitted: batch.len(),
                served: batch.len(),
                ..ServiceCycleStats::default()
            },
        };
        if !batch.is_empty() {
            let solve_started = Instant::now();
            let mut cold = WarmState::with_committed(&topo, &committed);
            let out = shard_solve(&ctx, &batch, &sp.shard, &mut cold, ExecMode::default());
            report.warm.solve_ns = solve_started.elapsed().as_nanos() as u64;
            report.warm.shards_used = out.shards;
            report.cost = out.sorp.cost;
            report.rel_increase = out.sorp.relative_cost_increase();
            report.victims = out.sorp.victims.len();
            report.overflow_free = out.sorp.overflow_free;
            // Commit this cycle's residencies for the cycles to come.
            for r in out.sorp.schedule.residencies() {
                let p = r.profile(catalog.get(r.video));
                if p.peak() > 0.0 {
                    committed.push((r.loc, p));
                }
            }
        }
        report.wall_ns = cycle_started.elapsed().as_nanos() as u64;
        cycles.push(report);
    }
    RollingOutcome { cycles }
}

/// Verify (for tests) that the union of all cycles' commitments never
/// over-commits a storage.
pub fn committed_is_feasible(
    params: &EnvParams,
    outcome_committed: &[(NodeId, SpaceProfile)],
) -> bool {
    let (topo, _) = params.build();
    let mut ledger = StorageLedger::new(&topo);
    for (loc, p) in outcome_committed {
        ledger.add(*loc, EXTERNAL_OCCUPANCY, *p);
    }
    detect_overflows(&topo, &ledger).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::service_horizon;
    use vod_core::{ivsp_solve_priced, sorp_solve_priced, ShardConfig, SorpConfig};
    use vod_cost_model::Request;
    use vod_obs::Recorder;
    use vod_workload::{generate_catalog, generate_requests, CatalogConfig, RequestConfig};

    fn cheap_params() -> EnvParams {
        EnvParams { videos: 50, users_per_neighborhood: 4, ..EnvParams::fast() }
    }

    fn warm_run(params: &EnvParams, n_cycles: usize, sp: &ServiceParams) -> RollingOutcome {
        service_horizon(params, n_cycles, sp, &Recorder::disabled()).expect("valid config").0
    }

    fn monolithic() -> ServiceParams {
        ServiceParams { shard: ShardConfig::by_region(1), ..ServiceParams::default() }
    }

    fn assert_psi_close(a: &RollingOutcome, b: &RollingOutcome, what: &str) {
        assert_eq!(a.cycles.len(), b.cycles.len());
        for (x, y) in a.cycles.iter().zip(&b.cycles) {
            let rel = (x.cost - y.cost).abs() / y.cost.max(1.0);
            assert!(
                rel <= 1e-9,
                "{what}: cycle {} Ψ {} vs oracle {} (rel {rel:e})",
                x.cycle,
                x.cost,
                y.cost
            );
        }
    }

    #[test]
    fn three_cycles_run_cleanly() {
        let out = warm_run(&cheap_params(), 3, &ServiceParams::default());
        assert_eq!(out.cycles.len(), 3);
        for c in &out.cycles {
            assert!(c.cost > 0.0);
            assert!(c.overflow_free, "cycle {} left an overflow", c.cycle);
            assert!(c.requests > 0);
        }
        // Spillover starts at zero and is non-negative afterwards.
        assert_eq!(out.cycles[0].spillover_gb, 0.0);
        for c in &out.cycles[1..] {
            assert!(c.spillover_gb >= 0.0);
        }
        assert!(out.total_cost() > out.cycles[0].cost);
    }

    #[test]
    fn service_horizon_is_deterministic() {
        let a = warm_run(&cheap_params(), 2, &ServiceParams::default());
        let b = warm_run(&cheap_params(), 2, &ServiceParams::default());
        for (x, y) in a.cycles.iter().zip(&b.cycles) {
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.victims, y.victims);
        }
    }

    #[test]
    fn warm_psi_matches_cold_oracle_per_cycle() {
        let params = cheap_params();
        let sp = ServiceParams::default();
        let warm = warm_run(&params, 4, &sp);
        let cold = cold_horizon(&params, 4, &sp);
        assert_psi_close(&warm, &cold, "warm sharded vs cold sharded");
        // The same equivalence below the monolithic solver.
        let mono = monolithic();
        let warm_mono = warm_run(&params, 3, &mono);
        let cold_mono = cold_horizon(&params, 3, &mono);
        assert_psi_close(&warm_mono, &cold_mono, "warm monolithic vs cold monolithic");
    }

    #[test]
    fn cold_monolithic_matches_the_legacy_loop() {
        // The cold monolithic reference must reproduce the original
        // rolling-horizon implementation (ivsp + sorp_solve_priced with
        // the flat committed list) bit for bit.
        let params = cheap_params();
        let ours = cold_horizon(&params, 3, &monolithic());

        let (topo, _) = params.build();
        let catalog = generate_catalog(
            &CatalogConfig { videos: params.videos, ..CatalogConfig::paper() },
            params.seed ^ 0xCA7A_10C0_FFEE_0001,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let horizon = 24.0 * 3_600.0;
        let mut committed: Vec<(NodeId, SpaceProfile)> = Vec::new();
        for k in 0..3usize {
            let cfg = RequestConfig {
                requests_per_user: params.requests_per_user,
                ..RequestConfig::with_alpha(params.zipf_alpha)
            };
            let raw = generate_requests(&topo, &catalog, &cfg, params.seed ^ (k as u64 + 1));
            let shifted: Vec<Request> =
                raw.iter().map(|r| Request { start: r.start + k as f64 * horizon, ..*r }).collect();
            let batch = RequestBatch::new(shifted);
            let out = sorp_solve_priced(
                &ctx,
                ivsp_solve_priced(&ctx, &batch),
                &SorpConfig::default(),
                &committed,
                ExecMode::default(),
            );
            assert_eq!(ours.cycles[k].cost.to_bits(), out.cost.to_bits(), "cycle {k}");
            assert_eq!(ours.cycles[k].victims, out.victims.len());
            for r in out.schedule.residencies() {
                let p = r.profile(catalog.get(r.video));
                if p.peak() > 0.0 {
                    committed.push((r.loc, p));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "oracle configuration only")]
    fn cold_horizon_rejects_a_non_oracle_config() {
        let sp = ServiceParams { budget_ns: Some(1.0), ..ServiceParams::default() };
        let _ = cold_horizon(&cheap_params(), 1, &sp);
    }

    #[test]
    fn spillover_is_reported_in_gigabytes() {
        let params = cheap_params();
        let out = warm_run(&params, 3, &ServiceParams::default());
        let capacity_budget_gb = 19.0 * params.capacity_gb; // every storage full
        let mut seen_positive = false;
        for c in &out.cycles {
            // The column is the byte counter scaled by exactly 1 GB.
            assert_eq!(c.spillover_gb, c.warm.spillover_bytes / units::GB);
            // Sanity: a GB figure fits the hardware; the raw byte count
            // (1e9× larger) could not.
            assert!(
                c.spillover_gb <= capacity_budget_gb,
                "cycle {}: {} GB exceeds the {} GB of disk that exists",
                c.cycle,
                c.spillover_gb,
                capacity_budget_gb
            );
            seen_positive |= c.spillover_gb > 0.0;
        }
        assert!(seen_positive, "no cycle saw spillover; the unit check never engaged");
    }

    #[test]
    fn warm_stats_account_for_carried_state() {
        let params = cheap_params();
        let out = warm_run(&params, 3, &ServiceParams::default());
        // Cycle 0 starts empty.
        assert_eq!(out.cycles[0].warm.trials_carried, 0);
        assert_eq!(out.cycles[0].warm.committed_active, out.cycles[0].warm.committed_evicted);
        // Later cycles carry committed occupancy; within the 24 h horizon
        // nothing has fully drained yet, so the book only grows.
        for c in &out.cycles[1..] {
            assert!(c.warm.committed_active > 0, "cycle {} carried no occupancy", c.cycle);
        }
    }

    #[test]
    fn combined_occupancy_respects_capacity_across_cycles() {
        let params = cheap_params();
        let (topo, _) = params.build();
        let catalog = generate_catalog(
            &CatalogConfig { videos: params.videos, ..CatalogConfig::paper() },
            params.seed ^ 0xCA7A_10C0_FFEE_0001,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let horizon = 24.0 * 3_600.0;

        // Re-run the rolling logic, collecting every commitment.
        let mut committed: Vec<(NodeId, SpaceProfile)> = Vec::new();
        for k in 0..3usize {
            let cfg = RequestConfig {
                requests_per_user: params.requests_per_user,
                ..RequestConfig::with_alpha(params.zipf_alpha)
            };
            let raw = generate_requests(&topo, &catalog, &cfg, params.seed ^ (k as u64 + 1));
            let shifted: Vec<Request> =
                raw.iter().map(|r| Request { start: r.start + k as f64 * horizon, ..*r }).collect();
            let batch = RequestBatch::new(shifted);
            let out = sorp_solve_priced(
                &ctx,
                ivsp_solve_priced(&ctx, &batch),
                &SorpConfig::default(),
                &committed,
                ExecMode::default(),
            );
            assert!(out.overflow_free);
            for r in out.schedule.residencies() {
                let p = r.profile(catalog.get(r.video));
                if p.peak() > 0.0 {
                    committed.push((r.loc, p));
                }
            }
        }
        assert!(committed_is_feasible(&params, &committed));
    }

    #[test]
    fn per_cycle_times_are_reported_in_stable_units() {
        let params = cheap_params();
        for out in [
            warm_run(&params, 2, &ServiceParams::default()),
            cold_horizon(&params, 2, &ServiceParams::default()),
        ] {
            for c in &out.cycles {
                assert!(c.wall_ns >= c.warm.solve_ns, "wall time must contain the solve");
                assert!(c.wall_ns > 0, "cycle {} reported no wall time", c.cycle);
                assert!(c.warm.solve_ns > 0, "cycle {} reported no solve time", c.cycle);
            }
            let text = out.render();
            assert!(text.contains("solve ms") && text.contains("wall ms"));
        }
    }

    #[test]
    fn render_has_one_row_per_cycle() {
        let out = warm_run(&cheap_params(), 2, &ServiceParams::default());
        let text = out.render();
        assert!(text.contains("cycle"));
        assert_eq!(
            text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count(),
            2
        );
    }
}
