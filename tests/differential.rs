//! Adversarial differential harness. On small hostile worlds — the
//! smallest topology the builders accept, capacity below one file or
//! none at all, every request at one instant, exact heat ties — plus one
//! friendly control world, and under iteration caps of 0 and 1, every
//! fast path must agree with its reference:
//!
//! * `sorp_solve_priced` ≡ `oracle::sorp_solve_uncached`, bit for bit;
//! * `sorp_solve_priced` ≡ `oracle::sorp_solve_reference_ledger` in
//!   every decision (see [`assert_same`] for the one float exception);
//! * `shard_solve` at one shard ≡ `sorp_solve_priced`, bit for bit;
//! * every shard count 1–4, under both partition strategies, replays
//!   clean on the independent simulator with `SimOptions::strict`.
//!
//! Non-finite rates cannot enter a world: the constructors reject them,
//! and the last test pins those rejections.

use vod_paradigm::core::{
    ivsp_solve_priced_with, oracle, shard_solve, sorp_solve_priced, ExecMode, HeatMetric, SchedCtx,
    ShardConfig, SorpConfig, SorpOutcome, WarmState,
};
use vod_paradigm::prelude::*;
use vod_paradigm::simulator::{simulate, SimOptions};
use vod_paradigm::topology::TopologyError;
use vod_paradigm::workload::{
    generate_catalog, CatalogConfig, RequestConfig, ShardStrategy, Workload,
};

struct World {
    name: &'static str,
    topo: Topology,
    catalog: Catalog,
    requests: RequestBatch,
    /// Whether phase 1 overflows, so that resolution must act.
    contested: bool,
}

fn gen(storages: usize, users: usize, capacity_gb: f64) -> builders::GenConfig {
    builders::GenConfig {
        storages,
        users_per_neighborhood: users,
        capacity_gb,
        ..builders::GenConfig::default()
    }
}

/// Every user of `topo` requests every title of `catalog` once, at
/// `start(user, video)`.
fn everyone_wants_everything(
    topo: &Topology,
    catalog: &Catalog,
    start: impl Fn(u32, u32) -> f64,
) -> RequestBatch {
    let mut requests = Vec::new();
    for u in topo.users() {
        for v in catalog.iter() {
            requests.push(Request { user: u.id, video: v.id, start: start(u.id.0, v.id.0) });
        }
    }
    RequestBatch::new(requests)
}

fn worlds() -> Vec<World> {
    let mut out = Vec::new();

    // The smallest topology the builders accept: one intermediate
    // storage. Three users stagger four titles so caching pays; each
    // cached copy buffers 1.5 GB, and the 2 GB store holds one.
    let topo = builders::star(&gen(1, 3, 2.0));
    let catalog = generate_catalog(&CatalogConfig::small(4), 1);
    let requests = everyone_wants_everything(&topo, &catalog, |u, v| {
        1_200.0 * f64::from(u) + 600.0 * f64::from(v)
    });
    out.push(World { name: "one storage", topo, catalog, requests, contested: true });

    // Capacity below one file's plateau at every storage (files are
    // 2.8–3.9 GB), and no capacity at all. At zero capacity the
    // timeline's cancellation residue once bridged the empty gaps between
    // overflow windows (see `overflow::DETECTION_SLACK`).
    for (name, capacity_gb) in [("sub-plateau capacity", 2.5), ("zero capacity", 0.0)] {
        let topo = builders::random_connected(&gen(8, 4, capacity_gb), 3, 7);
        let wl = Workload::generate(
            &topo,
            &CatalogConfig::small(10),
            &RequestConfig { requests_per_user: 3, ..RequestConfig::paper() },
            7,
        );
        out.push(World { name, topo, catalog: wl.catalog, requests: wl.requests, contested: true });
    }

    // A friendly control: the paper topology at 5 GB, where many
    // iterations reuse cached trials, so a stale cache hit shows here.
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 4,
        ..Default::default()
    });
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(24),
        &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
        11,
    );
    out.push(World {
        name: "paper control",
        topo,
        catalog: wl.catalog,
        requests: wl.requests,
        contested: true,
    });

    // Every request at one start instant: the paper topology's users
    // each reserve one distinct title, all starting together. Every
    // cached copy is then a zero-space relay, which must never count as
    // occupancy: nothing overflows, and strict replay accepts the relays.
    let topo = builders::paper_fig4(&builders::PaperFig4Config {
        capacity_gb: 5.0,
        users_per_neighborhood: 3,
        ..Default::default()
    });
    let wl = Workload::generate(&topo, &CatalogConfig::small(12), &RequestConfig::paper(), 3);
    let mut seen = std::collections::HashSet::new();
    let instant: Vec<Request> = wl
        .requests
        .groups()
        .flat_map(|(_, g)| g.iter())
        .filter(|r| seen.insert((r.user, r.video)))
        .map(|r| Request { start: 7_200.0, ..*r })
        .collect();
    out.push(World {
        name: "one start instant",
        topo,
        catalog: wl.catalog,
        requests: RequestBatch::new(instant),
        contested: false,
    });

    // Exact heat ties: three identical titles, three symmetric
    // neighborhoods, and every user of a neighborhood asking for every
    // title at the same two instants. Each cached copy buffers 0.5 GB
    // and each store holds two, so every overflow has three identical
    // participants.
    let topo = builders::star(&gen(3, 2, 1.2));
    let (size, playback) = (3.0e9, 5_400.0);
    let catalog = Catalog::new(
        (0..3).map(|i| Video::new(VideoId(i), size, playback, size / playback)).collect(),
    );
    let requests = everyone_wants_everything(&topo, &catalog, |u, _| 900.0 * f64::from(u % 2));
    out.push(World { name: "heat ties", topo, catalog, requests, contested: true });

    out
}

/// `other` must take `fast`'s decisions. With `exact_windows` every
/// victim field must match bit for bit; without it (the reference-ledger
/// oracle, which finds overflow boundaries with its own midpoint
/// arithmetic) a victim's window and heat may differ in the last bits
/// and must agree to 1e-9 relative.
fn assert_same(label: &str, fast: &SorpOutcome, other: &SorpOutcome, exact_windows: bool) {
    let close = |a: f64, b: f64| {
        if exact_windows {
            a.to_bits() == b.to_bits()
        } else {
            a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
        }
    };
    assert!(fast.schedule == other.schedule, "{label}: schedules diverged");
    assert_eq!(fast.cost.to_bits(), other.cost.to_bits(), "{label}: cost");
    assert_eq!(fast.initial_cost.to_bits(), other.initial_cost.to_bits(), "{label}: initial cost");
    assert_eq!(fast.iterations, other.iterations, "{label}: iterations");
    assert_eq!(fast.overflow_free, other.overflow_free, "{label}: overflow_free");
    assert_eq!(fast.forced_fallbacks, other.forced_fallbacks, "{label}: fallbacks");
    assert_eq!(fast.victims.len(), other.victims.len(), "{label}: victim count");
    for (a, b) in fast.victims.iter().zip(&other.victims) {
        assert_eq!((a.video, a.loc), (b.video, b.loc), "{label}: victim");
        assert_eq!(a.overhead.to_bits(), b.overhead.to_bits(), "{label}: overhead");
        assert!(close(a.window_start, b.window_start), "{label}: window start");
        assert!(close(a.window_end, b.window_end), "{label}: window end");
        assert!(close(a.heat, b.heat), "{label}: heat {} vs {}", a.heat, b.heat);
    }
}

fn check(w: &World, cfg: &SorpConfig) {
    let label = format!("{} / {} / max_iterations {}", w.name, cfg.metric, cfg.max_iterations);
    let model = CostModel::per_hop();
    let ctx = SchedCtx::new(&w.topo, &model, &w.catalog);
    let mode = ExecMode::Sequential;
    let priced = ivsp_solve_priced_with(&ctx, &w.requests, cfg.policy, mode);

    let fast = sorp_solve_priced(&ctx, priced.clone(), cfg, &[], mode);
    assert!(fast.overflow_free, "{label}: overflows left");
    assert_eq!(fast.resolved_anything(), w.contested, "{label}: contested");
    let uncached = oracle::sorp_solve_uncached(&ctx, priced.clone(), cfg, &[], mode);
    assert_same(&format!("{label}: uncached oracle"), &fast, &uncached, true);
    assert_eq!(fast.trials_run + fast.trials_cached, uncached.trials_run, "{label}: trial jobs");
    let reference = oracle::sorp_solve_reference_ledger(&ctx, priced, cfg, &[], mode);
    assert_same(&format!("{label}: reference-ledger oracle"), &fast, &reference, false);

    for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
        for shards in 1..=4 {
            let shard_cfg = ShardConfig { shards, strategy, seed: 0, sorp: cfg.clone() };
            let out =
                shard_solve(&ctx, &w.requests, &shard_cfg, &mut WarmState::new(&w.topo), mode);
            let at = format!("{label}: {shards} shards {strategy:?}");
            if shards == 1 {
                assert_same(&at, &fast, &out.sorp, true);
            }
            let sim = simulate(
                &w.topo,
                &w.catalog,
                &model,
                &out.sorp.schedule,
                &SimOptions::strict(&w.requests),
            );
            assert!(sim.is_valid(), "{at}: replay violations {:?}", sim.violations);
        }
    }
}

#[test]
fn fast_paths_match_their_oracles_on_adversarial_worlds() {
    for w in worlds() {
        assert!(!w.requests.is_empty(), "{}: empty world", w.name);
        for metric in HeatMetric::ALL {
            for max_iterations in [0, 1, 10_000] {
                check(&w, &SorpConfig { metric, max_iterations, ..SorpConfig::default() });
            }
        }
    }
}

#[test]
fn non_finite_rates_are_rejected_with_typed_errors() {
    let storage = |srate: f64, capacity: f64| {
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", srate, capacity);
        b.connect(vw, is, 1e-9).expect("finite link");
        b.add_users(is, 1);
        b.build()
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(matches!(storage(bad, 1e9), Err(TopologyError::InvalidRate { what: "srate", .. })));
        assert!(matches!(
            storage(1e-12, bad),
            Err(TopologyError::InvalidRate { what: "capacity", .. })
        ));
        let mut b = TopologyBuilder::new();
        let vw = b.add_warehouse("VW");
        let is = b.add_storage("IS", 1e-12, 1e9);
        assert!(matches!(
            b.connect(vw, is, bad),
            Err(TopologyError::InvalidRate { what: "nrate", .. })
        ));

        let mut topo = builders::star(&gen(1, 1, 5.0));
        for result in [
            topo.set_uniform_srate(bad),
            topo.set_uniform_nrate(bad),
            topo.set_uniform_capacity(bad),
            topo.scale_nrates(bad),
        ] {
            assert!(matches!(result, Err(TopologyError::InvalidRate { .. })), "{bad}: {result:?}");
        }
    }
}
