//! End-to-end overload acceptance: drive the async service frontend
//! with a burst 4× over steady-state capacity, a bounded intake queue,
//! and a finite per-cycle budget, and verify the whole degradation
//! story — typed backpressure at the bound, deterministic heat-ranked
//! shedding, zero-loss accounting, and strict replay of whatever each
//! cycle actually committed.

use vod_paradigm::core::{
    service_run, BackoffPolicy, ExecMode, Rung, SchedCtx, ServiceConfig, ServiceConfigError,
    ServiceLoop,
};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{check_service_accounting, cycle_is_clean, replay_service_cycle};
use vod_paradigm::workload::{generate_arrivals, generate_catalog, ArrivalConfig, CatalogConfig};

const H: f64 = 24.0 * 3_600.0;

fn world(seed: u64) -> (Topology, Catalog) {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let catalog = generate_catalog(&CatalogConfig::small(40), seed ^ 0xC0FFEE);
    (topo, catalog)
}

fn burst_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_bound: Some(300),
        budget_ns: Some(120.0 * 9_700.0),
        backoff: BackoffPolicy { base_cycles: 1, max_cycles: 4, drop_after: 2 },
        ..ServiceConfig::default()
    }
}

#[test]
fn burst_4x_sheds_deterministically_and_replays_clean() {
    let (topo, catalog) = world(97);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);

    // Three cycles of arrivals; cycle 1 arrives at 4× the steady rate.
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { cycles: 3, burst: vec![(1, 4)], ..Default::default() },
        97,
    );
    let steady_per_cycle = arrivals.iter().filter(|a| a.request.start < H).count();
    let burst_count =
        arrivals.iter().filter(|a| a.request.start >= H && a.request.start < 2.0 * H).count();
    assert_eq!(burst_count, 4 * steady_per_cycle, "burst multiplier not applied");

    let cfg = burst_cfg();
    let (outcomes, report) =
        service_run(&ctx, &arrivals, &cfg, 8, ExecMode::Sequential).expect("empty fault plan");

    // 1. The queue bound held: the high-water mark never exceeds it,
    //    and the burst actually produced typed rejections.
    let bound = cfg.queue_bound.unwrap();
    assert!(
        report.queue_high_water <= bound,
        "queue grew past its bound: {} > {bound}",
        report.queue_high_water
    );
    assert!(report.rejected_full > 0, "a 4x burst over a bounded queue must bounce offers");

    // 2. The ladder engaged during the burst and recovered afterwards.
    assert!(
        outcomes.iter().any(|o| o.stats.rung != Rung::Full),
        "overload never left the Full rung"
    );
    assert_eq!(outcomes.last().unwrap().stats.rung, Rung::Full, "ladder never recovered");
    assert!(report.shed_events > 0, "overload shed nothing");

    // 3. Zero-loss accounting: every accepted request is served,
    //    dropped, or still in flight — and the cross-checker agrees.
    assert_eq!(report.conservation_error(), 0, "accounting leak: {}", report.render());
    let complaints = check_service_accounting(&report);
    assert!(complaints.is_empty(), "accounting cross-check failed: {complaints:?}");

    // 4. Whatever each cycle committed replays strictly: the only
    //    violations are the excused sheds.
    for out in &outcomes {
        let sim = replay_service_cycle(&topo, &catalog, &model, out);
        assert!(
            cycle_is_clean(&sim),
            "cycle {} replay violations: {:?}",
            out.stats.cycle,
            sim.violations
        );
        assert_eq!(sim.metrics.deliveries, out.served.len(), "cycle {}", out.stats.cycle);
    }

    // 5. Shedding is deterministic: a re-run (even under a different
    //    ExecMode) sheds the same requests in the same order.
    for mode in [ExecMode::Sequential, ExecMode::Parallel] {
        let (again, rep2) = service_run(&ctx, &arrivals, &cfg, 8, mode).unwrap();
        assert_eq!(outcomes.len(), again.len());
        for (a, b) in outcomes.iter().zip(again.iter()) {
            assert_eq!(a.stats, b.stats, "cycle stats diverged on re-run ({mode:?})");
            let shed = |o: &vod_paradigm::core::ServiceCycleOutcome| -> Vec<(u32, u32, u64)> {
                o.shed_now.iter().map(|r| (r.user.0, r.video.0, r.start.to_bits())).collect()
            };
            assert_eq!(shed(a), shed(b), "shed order diverged on re-run ({mode:?})");
        }
        assert_eq!(report.served, rep2.served);
        assert_eq!(report.dropped, rep2.dropped);
    }
}

#[test]
fn oracle_config_serves_everything_and_replays_strict() {
    let (topo, catalog) = world(11);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let arrivals =
        generate_arrivals(&topo, &catalog, &ArrivalConfig { cycles: 2, ..Default::default() }, 11);

    let (outcomes, report) =
        service_run(&ctx, &arrivals, &ServiceConfig::default(), 2, ExecMode::Sequential).unwrap();

    assert_eq!(report.served, arrivals.len());
    assert_eq!(report.shed_events, 0);
    assert_eq!(report.rejected_full + report.rejected_saturated, 0);
    assert_eq!(report.conservation_error(), 0);
    for out in &outcomes {
        assert_eq!(out.stats.rung, Rung::Full);
        let sim = replay_service_cycle(&topo, &catalog, &model, out);
        assert!(sim.is_valid(), "cycle {} violations: {:?}", out.stats.cycle, sim.violations);
    }
}

/// Backoff releases that meet a full queue are deferred or dropped like
/// a shed, and counted as bounced, so the shed-disposition identity
/// `shed + bounced == deferred + dropped` holds under a queue bound, a
/// tight budget and a 4× burst.
#[test]
fn bounced_releases_keep_the_accounting_exact() {
    let (topo, catalog) = world(1997);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &catalog);
    let arrivals = generate_arrivals(
        &topo,
        &catalog,
        &ArrivalConfig { cycles: 4, burst: vec![(1, 4)], ..Default::default() },
        1997,
    );
    let cfg = ServiceConfig {
        queue_bound: Some(300),
        budget_ns: Some(60.0 * 9_700.0),
        ..ServiceConfig::default()
    };
    let (_, report) = service_run(&ctx, &arrivals, &cfg, 10, ExecMode::Sequential).unwrap();
    assert!(report.bounced > 0, "no release met a full queue; the check never engaged");
    let complaints = check_service_accounting(&report);
    assert!(complaints.is_empty(), "accounting cross-check failed: {complaints:?}");
}

/// A NaN or negative budget used to fall through every rung test and
/// shed every request; a non-positive horizon used to panic. Both are
/// now typed configuration errors.
#[test]
fn malformed_budget_saturation_and_horizon_are_typed_errors() {
    let (topo, _) = world(5);
    let open = |cfg: ServiceConfig| ServiceLoop::new(&topo, cfg).map(|_| ()).unwrap_err();
    let budget = |b: f64| ServiceConfig { budget_ns: Some(b), ..ServiceConfig::default() };
    assert!(matches!(open(budget(f64::NAN)), ServiceConfigError::BadBudget(b) if b.is_nan()));
    assert_eq!(open(budget(-5.0)), ServiceConfigError::BadBudget(-5.0));
    let sat = |x: f64| ServiceConfig { saturation_bytes: Some(x), ..ServiceConfig::default() };
    assert!(matches!(open(sat(f64::NAN)), ServiceConfigError::BadSaturation(x) if x.is_nan()));
    assert_eq!(open(sat(-1.0)), ServiceConfigError::BadSaturation(-1.0));
    for h in [0.0, -H, f64::INFINITY, f64::NAN] {
        let err = open(ServiceConfig { horizon: h, ..ServiceConfig::default() });
        assert!(matches!(err, ServiceConfigError::BadHorizon(_)), "horizon {h}: {err}");
    }
    // A zero budget (shed everything) and a zero saturation limit
    // (admit nothing) are legal.
    assert!(ServiceLoop::new(&topo, budget(0.0)).is_ok());
    assert!(ServiceLoop::new(&topo, sat(0.0)).is_ok());
}
