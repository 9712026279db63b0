//! The benchmark's workloads and the timed world set-up.
//!
//! Every workload runs on the paper's Fig. 4 network (19 intermediate
//! storages of 5 GB), a 500-title catalog at Zipf α = 0.271, and the
//! default service sharding (4 shards by region). The program under
//! test only ever sees the inputs generated here from `--seed`.

use std::time::Instant;
use vod_core::{SchedCtx, ServiceConfig, ServiceLoop};
use vod_cost_model::{Catalog, CostModel, Secs};
use vod_faults::{FaultConfig, FaultPlan};
use vod_topology::builders::{paper_fig4, PaperFig4Config};
use vod_topology::Topology;
use vod_workload::{
    generate_arrivals, generate_catalog, Arrival, ArrivalConfig, CatalogConfig, RequestConfig,
};

/// Cycles in one service pass. Enough for warm start and committed
/// spillover to reach a steady state, few enough that a pass of the
/// heaviest workload takes seconds.
pub const CYCLES: usize = 16;

/// Cycle length: the paper's 24 h reservation horizon.
pub const HORIZON: Secs = 24.0 * 3_600.0;

const ZIPF_ALPHA: f64 = 0.271;
const TITLES: usize = 500;
const CAPACITY_GB: f64 = 5.0;
const RESERVATIONS_PER_USER: usize = 3;

/// One workload: the knobs that differ between `steady`, `overload`
/// and `faults`. Everything else is shared.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub users_per_neighborhood: usize,
    /// `(period, multiplier)`: every `period`-th cycle (the last of each
    /// period) offers `multiplier` times the base load.
    pub burst: Option<(usize, usize)>,
    pub queue_bound: Option<usize>,
    pub budget_ns: Option<f64>,
    /// `(node outages, link failures)` drawn over the whole run with
    /// 2–12 h windows.
    pub faults: Option<(usize, usize)>,
}

/// The workload names, in reporting order.
pub const NAMES: [&str; 3] = ["steady", "overload", "faults"];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    let base = Workload {
        name: "steady",
        users_per_neighborhood: 50,
        burst: None,
        queue_bound: None,
        budget_ns: None,
        faults: None,
    };
    let w = match name {
        // 50 users × 19 neighbourhoods × 3 = 2,850 reservations a cycle;
        // every cycle solves on the Full rung, so the sharded SORP solve
        // (warm start, trial cache, reconciliation) is nearly all of it.
        "steady" => base,
        // The same world with a 4× burst every third cycle against a
        // bounded queue and a per-cycle budget: the ladder drops to the
        // greedy and shed rungs, so intake, heat-ranked shedding and
        // backoff parking carry the cycle instead of SORP.
        "overload" => Workload {
            name: "overload",
            burst: Some((3, 4)),
            queue_bound: Some(6_000),
            budget_ns: Some(2.0e7),
            ..base
        },
        // A lighter load (1,710 a cycle) under 12 node outages and 12
        // link failures: fault repair writes the ledger and committed
        // book between SORP solves, at a second SORP batch size.
        "faults" => {
            Workload { name: "faults", users_per_neighborhood: 30, faults: Some((12, 12)), ..base }
        }
        _ => return None,
    };
    // The ladder is never combined with faults, so every shed in a
    // `Shed`-rung cycle is a ladder shed (see `Pass::solved`).
    assert!(w.budget_ns.is_none() || w.faults.is_none());
    Some(w)
}

/// Wall nanoseconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupNs {
    /// `paper_fig4` plus `generate_catalog`.
    pub topology: u64,
    pub arrivals: u64,
    pub faults: u64,
    /// `SchedCtx::new`: the all-pairs route table.
    pub routes: u64,
    /// `ServiceLoop::new`, including fault-plan validation.
    pub service: u64,
}

impl SetupNs {
    pub fn total(&self) -> u64 {
        self.topology + self.arrivals + self.faults + self.routes + self.service
    }
}

/// The generated inputs of one pass.
pub struct World {
    pub topo: Topology,
    pub catalog: Catalog,
    pub model: CostModel,
    pub arrivals: Vec<Arrival>,
    pub faults: FaultPlan,
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Generate the workload's inputs from `seed`, timing each step.
pub fn build_world(w: &Workload, seed: u64) -> (World, SetupNs) {
    let mut ns = SetupNs::default();

    let started = Instant::now();
    let topo = paper_fig4(&PaperFig4Config {
        capacity_gb: CAPACITY_GB,
        users_per_neighborhood: w.users_per_neighborhood,
        ..PaperFig4Config::default()
    });
    let catalog = generate_catalog(
        &CatalogConfig { videos: TITLES, ..CatalogConfig::paper() },
        seed ^ 0xCA7A,
    );
    ns.topology = elapsed_ns(started);

    let started = Instant::now();
    let arrival_cfg = ArrivalConfig {
        request: RequestConfig {
            requests_per_user: RESERVATIONS_PER_USER,
            ..RequestConfig::with_alpha(ZIPF_ALPHA)
        },
        cycles: CYCLES,
        regional: false,
        burst: match w.burst {
            Some((period, mult)) => {
                (0..CYCLES).filter(|k| k % period == period - 1).map(|k| (k, mult)).collect()
            }
            None => Vec::new(),
        },
    };
    let arrivals = generate_arrivals(&topo, &catalog, &arrival_cfg, seed);
    ns.arrivals = elapsed_ns(started);

    let started = Instant::now();
    let faults = match w.faults {
        Some((node_outages, link_failures)) => FaultPlan::generate(
            &topo,
            &FaultConfig {
                node_outages,
                link_failures,
                link_degradations: 0,
                horizon: CYCLES as f64 * HORIZON,
                min_duration: 2.0 * 3_600.0,
                max_duration: 12.0 * 3_600.0,
                ..FaultConfig::default()
            },
            seed ^ 0xFA17,
        ),
        None => FaultPlan::empty(),
    };
    ns.faults = elapsed_ns(started);

    (World { topo, catalog, model: CostModel::per_hop(), arrivals, faults }, ns)
}

/// Open the scheduling context and a fresh service loop over `world`,
/// adding their set-up times to `ns`.
pub fn open<'a>(world: &'a World, w: &Workload, ns: &mut SetupNs) -> (SchedCtx<'a>, ServiceLoop) {
    let started = Instant::now();
    let ctx = SchedCtx::new(&world.topo, &world.model, &world.catalog);
    ns.routes = elapsed_ns(started);

    let started = Instant::now();
    let cfg = ServiceConfig {
        horizon: HORIZON,
        queue_bound: w.queue_bound,
        budget_ns: w.budget_ns,
        faults: world.faults.clone(),
        ..ServiceConfig::default()
    };
    let svc = ServiceLoop::new(&world.topo, cfg).expect("a generated fault plan validates");
    ns.service = elapsed_ns(started);
    (ctx, svc)
}
