//! Property tests for the conflict-scoped SORP solver: across random
//! topologies, workloads, heat metrics, and execution modes, the cached
//! solver (cross-iteration trial cache + incremental overflow monitor)
//! must be **bit-identical** to the uncached oracle
//! ([`oracle::sorp_solve_uncached`]) — same schedule, same cost bits,
//! same victims, same iteration count — and its counters must
//! reconcile: every materialized trial job is either run or answered
//! from the cache. Scenarios that draw the reference ledger also check
//! it against [`oracle::sorp_solve_reference_ledger`].

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use vod_core::{
    ivsp_solve_priced, oracle, sorp_solve_priced, ExecMode, HeatMetric, PricedSchedule, SchedCtx,
    SorpConfig, SorpOutcome,
};
use vod_cost_model::CostModel;
use vod_cost_model::SpaceProfile;
use vod_topology::NodeId;
use vod_topology::{builders, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// One randomized solver scenario.
#[derive(Clone, Debug)]
struct Scenario {
    topo_kind: u32,
    storages: usize,
    capacity_gb: f64,
    workload_seed: u64,
    metric: HeatMetric,
    parallel: bool,
    reference_ledger: bool,
    max_iterations: usize,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        0u32..4,
        4usize..12,
        prop_oneof![Just(4.0), Just(5.0), Just(8.0)],
        0u64..1_000,
        prop_oneof![
            Just(HeatMetric::ImprovedPeriod),
            Just(HeatMetric::PeriodPerCost),
            Just(HeatMetric::TimeSpace),
            Just(HeatMetric::TimeSpacePerCost),
        ],
        any::<bool>(),
        any::<bool>(),
        prop_oneof![Just(3usize), Just(10_000)],
    )
        .prop_map(
            |(
                topo_kind,
                storages,
                capacity_gb,
                workload_seed,
                metric,
                parallel,
                reference_ledger,
                max_iterations,
            )| Scenario {
                topo_kind,
                storages,
                capacity_gb,
                workload_seed,
                metric,
                parallel,
                reference_ledger,
                max_iterations,
            },
        )
}

fn build_topo(s: &Scenario) -> Topology {
    let gen = builders::GenConfig {
        storages: s.storages,
        capacity_gb: s.capacity_gb,
        users_per_neighborhood: 4,
        ..builders::GenConfig::default()
    };
    match s.topo_kind {
        0 => builders::paper_fig4(&builders::PaperFig4Config {
            capacity_gb: s.capacity_gb,
            ..Default::default()
        }),
        1 => builders::random_connected(&gen, 3, s.workload_seed ^ 0xC0FFEE),
        2 => builders::ring(&gen),
        _ => builders::binary_tree(&gen),
    }
}

/// The signature the fast path and both oracles share.
type Solver = fn(
    &SchedCtx<'_>,
    PricedSchedule,
    &SorpConfig,
    &[(NodeId, SpaceProfile)],
    ExecMode,
) -> SorpOutcome;

fn solve(ctx: &SchedCtx<'_>, wl: &Workload, s: &Scenario, solver: Solver) -> SorpOutcome {
    let cfg =
        SorpConfig { metric: s.metric, max_iterations: s.max_iterations, ..Default::default() };
    let mode = if s.parallel { ExecMode::Parallel } else { ExecMode::Sequential };
    solver(ctx, ivsp_solve_priced(ctx, &wl.requests), &cfg, &[], mode)
}

/// Field-by-field bit equality of the two outcomes' decisions.
fn assert_bit_identical(cached: &SorpOutcome, oracle: &SorpOutcome) -> Result<(), TestCaseError> {
    prop_assert!(cached.schedule == oracle.schedule, "schedules diverged");
    prop_assert_eq!(cached.cost.to_bits(), oracle.cost.to_bits());
    prop_assert_eq!(cached.initial_cost.to_bits(), oracle.initial_cost.to_bits());
    prop_assert_eq!(cached.iterations, oracle.iterations);
    prop_assert_eq!(cached.overflow_free, oracle.overflow_free);
    prop_assert_eq!(cached.forced_fallbacks, oracle.forced_fallbacks);
    prop_assert_eq!(cached.victims.len(), oracle.victims.len());
    for (a, b) in cached.victims.iter().zip(&oracle.victims) {
        prop_assert_eq!(a.video, b.video);
        prop_assert_eq!(a.loc, b.loc);
        prop_assert_eq!(a.window_start.to_bits(), b.window_start.to_bits());
        prop_assert_eq!(a.window_end.to_bits(), b.window_end.to_bits());
        prop_assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
        prop_assert_eq!(a.heat.to_bits(), b.heat.to_bits());
    }
    Ok(())
}

/// Equality with the reference-ledger oracle. Every decision (schedule,
/// cost bits, iterations, which video leaves which storage, in which
/// order) and every work counter must match exactly. The oracle locates
/// overflow boundaries with its own arithmetic (a segment's left limit
/// recovered from its midpoint), so a victim's window and heat may
/// differ from the timeline's in the last bits: those agree to 1e-9
/// relative.
fn assert_same_decisions(
    cached: &SorpOutcome,
    reference: &SorpOutcome,
) -> Result<(), TestCaseError> {
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    prop_assert!(cached.schedule == reference.schedule, "schedules diverged");
    prop_assert_eq!(cached.cost.to_bits(), reference.cost.to_bits());
    prop_assert_eq!(cached.iterations, reference.iterations);
    prop_assert_eq!(cached.overflow_free, reference.overflow_free);
    prop_assert_eq!(cached.forced_fallbacks, reference.forced_fallbacks);
    prop_assert_eq!(cached.trials_run, reference.trials_run);
    prop_assert_eq!(cached.trials_cached, reference.trials_cached);
    prop_assert_eq!(cached.nodes_rescanned, reference.nodes_rescanned);
    prop_assert_eq!(cached.victims.len(), reference.victims.len());
    for (a, b) in cached.victims.iter().zip(&reference.victims) {
        prop_assert_eq!((a.video, a.loc), (b.video, b.loc));
        prop_assert_eq!(a.overhead.to_bits(), b.overhead.to_bits());
        prop_assert!(close(a.window_start, b.window_start) && close(a.window_end, b.window_end));
        prop_assert!(close(a.heat, b.heat), "heat {} vs {}", a.heat, b.heat);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The cached solver's output is bit-identical to the uncached
    /// oracle's, and the trial counters reconcile: both paths
    /// materialize the same jobs (they take identical decisions), the
    /// oracle runs every one, and the cached path runs + caches exactly
    /// that many. When the scenario draws the reference ledger, the
    /// reference-ledger oracle takes the same decisions too.
    #[test]
    fn cached_sorp_is_bit_identical_to_uncached(s in scenario_strategy()) {
        let topo = build_topo(&s);
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(24),
            &RequestConfig::paper(),
            s.workload_seed,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);

        let cached = solve(&ctx, &wl, &s, sorp_solve_priced);
        let oracle = solve(&ctx, &wl, &s, oracle::sorp_solve_uncached);
        assert_bit_identical(&cached, &oracle)?;
        if s.reference_ledger {
            let reference = solve(&ctx, &wl, &s, oracle::sorp_solve_reference_ledger);
            assert_same_decisions(&cached, &reference)?;
        }

        // Counter reconciliation: the oracle never caches, and its
        // trials_run is the total job count of the (identical) run.
        prop_assert_eq!(oracle.trials_cached, 0);
        prop_assert_eq!(cached.trials_run + cached.trials_cached, oracle.trials_run);
        // The monitor never rescans more than the full scan does.
        prop_assert!(cached.nodes_rescanned <= oracle.nodes_rescanned);

        // Determinism of the cached path itself.
        let again = solve(&ctx, &wl, &s, sorp_solve_priced);
        assert_bit_identical(&again, &cached)?;
        prop_assert_eq!(again.trials_run, cached.trials_run);
        prop_assert_eq!(again.trials_cached, cached.trials_cached);
        prop_assert_eq!(again.nodes_rescanned, cached.nodes_rescanned);
    }
}

/// On the paper topology with tight capacity the resolution loop runs
/// many iterations, so the cache and the monitor must demonstrably pay
/// off — not just agree with the oracle.
#[test]
fn cache_and_monitor_actually_save_work_on_the_paper_instance() {
    let topo =
        builders::paper_fig4(&builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
    let wl = Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), 1);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let s = Scenario {
        topo_kind: 0,
        storages: 19,
        capacity_gb: 5.0,
        workload_seed: 1,
        metric: HeatMetric::TimeSpacePerCost,
        parallel: false,
        reference_ledger: false,
        max_iterations: 10_000,
    };
    let cached = solve(&ctx, &wl, &s, sorp_solve_priced);
    let oracle = solve(&ctx, &wl, &s, oracle::sorp_solve_uncached);
    assert!(cached.iterations > 1, "instance too easy to exercise the cache");
    assert!(cached.trials_cached > 0, "no trial was ever answered from the cache");
    assert!(
        cached.trials_run < oracle.trials_run,
        "cache saved nothing: {} vs {}",
        cached.trials_run,
        oracle.trials_run
    );
    assert!(
        cached.nodes_rescanned < oracle.nodes_rescanned,
        "monitor saved nothing: {} vs {}",
        cached.nodes_rescanned,
        oracle.nodes_rescanned
    );
}
