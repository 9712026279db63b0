//! Service-frontend experiments: the paper's environment driven cycle
//! after cycle through `vod_core::service`'s intake queue, degradation
//! ladder, and backoff pipeline.
//!
//! [`service_horizon`] builds the topology, catalog, cost model and
//! arrival trace ([`vod_workload::generate_arrivals`]) for an
//! [`EnvParams`] environment and hands them to [`service_run`], the one
//! cycle loop. With no queue bound, no budget, no burst, and no faults
//! it is the plain rolling-horizon run, and its per-cycle Ψ matches the
//! cold-start reference [`crate::cycles::cold_horizon`] within 1e-9
//! relative; with them it exercises admission control, the ladder, and
//! overload shedding under the exact environment the paper's
//! experiments use.

use crate::cycles::{CycleReport, RollingOutcome};
use crate::EnvParams;
use serde::{Deserialize, Serialize};
use vod_core::{
    service_run, ExecMode, SchedCtx, ServiceConfig, ServiceConfigError, ServiceCycleOutcome,
    ServiceReport, ShardConfig,
};
use vod_cost_model::{Catalog, CostModel, Secs};
use vod_topology::Topology;
use vod_workload::{
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
};

/// Service-frontend knobs layered over an [`EnvParams`] environment.
/// The default is the oracle configuration: unbounded intake, no
/// budget, no faults, paper workload, default sharded solver.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServiceParams {
    /// Intake queue bound (`None` = unbounded).
    pub queue_bound: Option<usize>,
    /// Per-cycle deadline budget in simulated nanoseconds (`None` =
    /// infinite; the ladder never engages).
    pub budget_ns: Option<f64>,
    /// Overload bursts: `(cycle, multiplier)` scaling that cycle's
    /// arrival rate.
    pub burst: Vec<(usize, usize)>,
    /// Generate a [`vod_faults::FaultConfig::default`] fault plan from
    /// this seed and wire it into the loop (`None` = fault-free).
    pub fault_seed: Option<u64>,
    /// Stop generating arrivals after this many cycles (`None` = the
    /// whole run). Later cycles run as idle service ticks — they still
    /// appear in the report.
    pub trace_cycles: Option<usize>,
    /// The sharded-solver configuration every cycle's full solve runs
    /// under ([`ServiceConfig::shard`]); `shards: 1` solves each
    /// cycle's batch unsplit.
    pub shard: ShardConfig,
    /// Draw each cycle's workload from
    /// [`vod_workload::generate_regional_requests`] (every video
    /// requested from a single neighborhood) instead of the paper
    /// workload ([`ArrivalConfig::regional`]) — the regime in which
    /// sharded Ψ provably matches the monolith, used by the bench
    /// oracles.
    pub regional: bool,
}

/// The catalog a service horizon run over `params` uses — the same
/// seed-splitting convention as [`vod_workload::Workload::generate`],
/// exposed so replay-side validation can reconstruct it exactly.
pub fn service_catalog(params: &EnvParams) -> Catalog {
    let catalog_cfg = CatalogConfig { videos: params.videos, ..CatalogConfig::paper() };
    generate_catalog(&catalog_cfg, params.seed ^ 0xCA7A_10C0_FFEE_0001)
}

/// The arrival trace of an `n_cycles` run and its cycle length:
/// cycle `k` draws with seed `params.seed ^ (k + 1)`.
pub(crate) fn arrival_trace(
    topo: &Topology,
    catalog: &Catalog,
    params: &EnvParams,
    n_cycles: usize,
    sp: &ServiceParams,
) -> (Vec<Arrival>, Secs) {
    let arrival_cfg = ArrivalConfig {
        request: RequestConfig {
            requests_per_user: params.requests_per_user,
            ..RequestConfig::with_alpha(params.zipf_alpha)
        },
        cycles: sp.trace_cycles.map_or(n_cycles, |t| t.min(n_cycles)),
        regional: sp.regional,
        burst: sp.burst.clone(),
    };
    let horizon = arrival_cfg.request.horizon_hours * 3_600.0;
    (generate_arrivals(topo, catalog, &arrival_cfg, params.seed), horizon)
}

/// Run `n_cycles` of the environment through [`service_run`]. Returns
/// the per-cycle [`RollingOutcome`], the aggregated [`ServiceReport`],
/// and the raw per-cycle [`ServiceCycleOutcome`]s (schedules,
/// served/shed request sets) for replay-style validation. `recorder` is
/// attached to the scheduling context, so every cycle's rung, intake,
/// warm-start, shard solve, and repair decision lands in the recording,
/// in simulated time; pass [`vod_obs::Recorder::disabled`] for the
/// no-op path. Fails when `sp` makes a configuration
/// [`vod_core::ServiceLoop::new`] rejects (a NaN or negative budget).
pub fn service_horizon(
    params: &EnvParams,
    n_cycles: usize,
    sp: &ServiceParams,
    recorder: &vod_obs::Recorder,
) -> Result<(RollingOutcome, ServiceReport, Vec<ServiceCycleOutcome>), ServiceConfigError> {
    assert!(n_cycles >= 1, "need at least one cycle");
    let (topo, _) = params.build();
    let catalog = service_catalog(params);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog).with_recorder(recorder.clone());
    let (arrivals, horizon) = arrival_trace(&topo, &catalog, params, n_cycles, sp);

    let faults = match sp.fault_seed {
        Some(seed) => {
            vod_faults::FaultPlan::generate(&topo, &vod_faults::FaultConfig::default(), seed)
        }
        None => vod_faults::FaultPlan::empty(),
    };
    let cfg = ServiceConfig {
        shard: sp.shard.clone(),
        horizon,
        queue_bound: sp.queue_bound,
        budget_ns: sp.budget_ns,
        faults,
        ..ServiceConfig::default()
    };
    let (outcomes, report) = service_run(&ctx, &arrivals, &cfg, n_cycles, ExecMode::default())?;
    let cycles = outcomes.iter().map(CycleReport::from_outcome).collect();
    Ok((RollingOutcome { cycles }, report, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::cold_horizon;
    use vod_core::Rung;
    use vod_obs::Recorder;

    fn cheap_params() -> EnvParams {
        EnvParams { videos: 50, users_per_neighborhood: 4, ..EnvParams::fast() }
    }

    #[test]
    fn oracle_mode_matches_cold_horizon() {
        let params = cheap_params();
        let sp = ServiceParams::default();
        let cold = cold_horizon(&params, 3, &sp);
        let (svc, report, _) =
            service_horizon(&params, 3, &sp, &Recorder::disabled()).expect("valid config");
        assert_eq!(report.conservation_error(), 0);
        assert_eq!(report.shed_events, 0);
        for (a, b) in svc.cycles.iter().zip(&cold.cycles) {
            let rel = (a.cost - b.cost).abs() / b.cost.max(1.0);
            assert!(rel <= 1e-9, "cycle {} Ψ {} vs cold {} (rel {rel:e})", a.cycle, a.cost, b.cost);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.service.rung, Rung::Full);
        }
    }

    #[test]
    fn render_includes_service_columns_and_idle_cycles() {
        let params = cheap_params();
        // Arrivals stop after cycle 0; cycles 1–2 are idle service ticks.
        let sp = ServiceParams { trace_cycles: Some(1), ..ServiceParams::default() };
        let (out, report, _) =
            service_horizon(&params, 3, &sp, &Recorder::disabled()).expect("valid config");
        assert_eq!(out.cycles[1].requests, 0, "cycle 1 must be idle");
        assert_eq!(report.cycles.len(), 3);
        let text = out.render();
        assert!(text.contains("rung"), "service runs must render the ladder column");
        assert!(text.contains("wall ms") && text.contains("solve ms"));
        // Idle cycles still get a row each.
        assert_eq!(
            text.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count(),
            3
        );
    }

    #[test]
    fn overload_burst_engages_the_ladder() {
        let params = cheap_params();
        let sp = ServiceParams {
            queue_bound: Some(1_000),
            budget_ns: Some(100.0 * 4_200.0),
            burst: vec![(1, 4)],
            ..ServiceParams::default()
        };
        let (out, report, _) =
            service_horizon(&params, 3, &sp, &Recorder::disabled()).expect("valid config");
        assert!(report.cycles.iter().any(|c| c.rung != Rung::Full), "budget never engaged");
        assert_eq!(report.conservation_error(), 0);
        for c in &out.cycles {
            assert_eq!(c.service.cycle, c.cycle);
        }
    }
}
