//! Property tests for the rejective greedy's dead-cache rule: once a
//! cache's extension fails admission, the shipped greedy stops testing
//! it for the rest of the video. The rule must not change any schedule,
//! so both shipped entry points ([`reschedule_video`] and
//! [`reschedule_video_traced`]) are compared, bit for bit, with an
//! unpruned copy of the greedy kept in this file, which re-tests every
//! cache for every request as the paper's §4.4 search does.
//!
//! The worlds cover random topologies and workloads, tight capacity
//! (about one file per storage, and zero), every request at one instant,
//! both [`SpaceModel`]s, the greedy policies, and forbidden windows that
//! straddle the start or the end of a cache's support. The unpruned
//! copy also counts how often it re-tested a cache that had already
//! failed, and asserts that no such re-test ever passed: the
//! monotonicity the rule rests on, checked in float arithmetic.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{BTreeMap, BTreeSet};
use vod_core::{
    ivsp_solve, reschedule_video, reschedule_video_traced, Constraints, GreedyPolicy, Interval,
    SchedCtx, StorageLedger,
};
use vod_cost_model::{
    CostModel, Dollars, Request, RequestBatch, Residency, SpaceModel, SpaceProfile, Transfer,
    VideoSchedule,
};
use vod_topology::{builders, NodeId, Topology};
use vod_workload::{CatalogConfig, RequestConfig, Workload};

/// The greedy's relative cost tolerance for ties.
const COST_EPS: f64 = 1e-9;

/// One way of serving a request, ranked as the shipped greedy ranks it.
#[derive(Clone, Copy)]
struct Candidate {
    cost: Dollars,
    priority: u8,
    src: NodeId,
    new_cache: Option<NodeId>,
}

impl Candidate {
    fn beats(&self, other: &Candidate) -> bool {
        let tol = COST_EPS * (1.0 + self.cost.abs().max(other.cost.abs()));
        if self.cost < other.cost - tol {
            return true;
        }
        if self.cost > other.cost + tol {
            return false;
        }
        let key = |c: &Candidate| (c.priority, c.src.0, c.new_cache.map_or(u32::MAX, |n| n.0));
        key(self) < key(other)
    }
}

/// What the unpruned greedy did with its extension tests.
#[derive(Default)]
struct Tally {
    /// Every extension admission test.
    tests: usize,
    /// Tests of a cache whose extension had already failed.
    dead_retests: usize,
    /// Of those, the ones that passed: each breaks the monotonicity the
    /// pruning relies on.
    revived: usize,
}

/// The admission test of the rejective greedy: no positive-space overlap
/// with a forbidden window at `loc`, and room under the capacity.
fn admits(ctx: &SchedCtx<'_>, cons: &Constraints<'_>, loc: NodeId, p: &SpaceProfile) -> bool {
    let support = Interval::new(p.start, p.end);
    let banned =
        p.peak() > 0.0 && cons.forbidden.iter().any(|(f, w)| *f == loc && support.overlaps(w));
    !banned && cons.ledger.fits(ctx.topo, loc, p, cons.exclude)
}

/// The rejective greedy without the dead-cache rule: every existing
/// cache is re-tested as a source for every request.
fn unpruned_greedy(
    ctx: &SchedCtx<'_>,
    requests: &[Request],
    cons: &Constraints<'_>,
    policy: GreedyPolicy,
    tally: &mut Tally,
) -> VideoSchedule {
    let vid = requests[0].video;
    let video = ctx.catalog.get(vid);
    let vw = ctx.topo.warehouse();
    let amortized = video.amortized_bytes();
    let model = ctx.model.space_model();
    let mut caches: BTreeMap<NodeId, Residency> = BTreeMap::new();
    let mut failed: BTreeSet<NodeId> = BTreeSet::new();
    let mut schedule = VideoSchedule::new(vid);

    for req in requests {
        let local = ctx.topo.home_of(req.user);
        let mut best: Option<Candidate> = None;
        let consider = |cand: Candidate, best: &mut Option<Candidate>| {
            if !cand.cost.is_finite() {
                return;
            }
            match best {
                Some(b) if !cand.beats(b) => {}
                _ => *best = Some(cand),
            }
        };
        for src in std::iter::once(vw).chain(caches.keys().copied()) {
            let ext = match caches.get(&src) {
                Some(r) => {
                    let old = r.profile_with(video, model);
                    let new = SpaceProfile::with_model(
                        r.start,
                        req.start,
                        video.size,
                        video.playback,
                        model,
                    );
                    let ok = admits(ctx, cons, r.loc, &new);
                    tally.tests += 1;
                    if failed.contains(&src) {
                        tally.dead_retests += 1;
                        tally.revived += usize::from(ok);
                    }
                    if !ok {
                        failed.insert(src);
                        continue;
                    }
                    ctx.topo.srate(r.loc) * (new.integral() - old.integral())
                }
                None => 0.0,
            };
            if !policy.allow_remote_placement && src != vw && src != local {
                continue;
            }
            let priority = if !policy.prefer_local_cache_on_ties {
                0
            } else if src == local {
                1
            } else if src == vw {
                4
            } else {
                2
            };
            consider(
                Candidate {
                    cost: amortized * ctx.routes.rate(src, local) + ext,
                    priority,
                    src,
                    new_cache: None,
                },
                &mut best,
            );
            if !policy.allow_new_caches {
                continue;
            }
            for m in ctx.topo.storages() {
                if m == src || caches.contains_key(&m) {
                    continue;
                }
                if !policy.allow_remote_placement && m != local {
                    continue;
                }
                let cost = amortized * (ctx.routes.rate(src, m) + ctx.routes.rate(m, local)) + ext;
                let priority = if policy.prefer_local_cache_on_ties && m != local { 3 } else { 0 };
                consider(Candidate { cost, priority, src, new_cache: Some(m) }, &mut best);
            }
        }

        let plan = best.expect("direct warehouse delivery is always admissible");
        if let Some(src_cache) = caches.get_mut(&plan.src) {
            src_cache.extend(*req);
        }
        match plan.new_cache {
            None => {
                schedule.transfers.push(Transfer::for_user(req, ctx.routes.path(plan.src, local)));
            }
            Some(m) => {
                let mut route = ctx.routes.path(plan.src, m).nodes;
                route.extend_from_slice(&ctx.routes.path(m, local).nodes[1..]);
                schedule.transfers.push(Transfer {
                    video: vid,
                    route,
                    start: req.start,
                    user: Some(req.user),
                });
                caches.insert(m, Residency::begin(m, plan.src, *req));
            }
        }
    }
    schedule.residencies.extend(caches.into_values());
    schedule
}

/// One randomized world.
#[derive(Clone, Debug)]
struct World {
    topo_kind: u32,
    storages: usize,
    seed: u64,
    /// Storage capacity as a multiple of the catalog's median file size
    /// (0 = no storage at all).
    capacity_files: f64,
    gradual_fill: bool,
    one_instant: bool,
    requests_per_user: usize,
    policy: u32,
    /// Forbidden windows: (residency pick, shape, two fractions).
    bans: Vec<(usize, u32, f64, f64)>,
}

fn world_strategy() -> impl Strategy<Value = World> {
    (
        0u32..4,
        4usize..10,
        0u64..10_000,
        prop_oneof![Just(0.0), Just(1.0), Just(1.5), Just(3.0)],
        any::<bool>(),
        0u32..4,
        1usize..5,
        0u32..3,
        proptest::collection::vec((0usize..64, 0u32..3, 0.0f64..1.0, 0.0f64..1.0), 0..6),
    )
        .prop_map(
            |(
                topo_kind,
                storages,
                seed,
                capacity_files,
                gradual_fill,
                instant_draw,
                requests_per_user,
                policy,
                bans,
            )| World {
                topo_kind,
                storages,
                seed,
                capacity_files,
                gradual_fill,
                // One world in four puts every request at one instant.
                one_instant: instant_draw == 0,
                requests_per_user,
                policy,
                bans,
            },
        )
}

fn build_topo(w: &World) -> Topology {
    let gen = builders::GenConfig {
        storages: w.storages,
        users_per_neighborhood: 4,
        ..builders::GenConfig::default()
    };
    match w.topo_kind {
        0 => builders::paper_fig4(&builders::PaperFig4Config::default()),
        1 => builders::random_connected(&gen, 3, w.seed ^ 0xD0D0),
        2 => builders::ring(&gen),
        _ => builders::binary_tree(&gen),
    }
}

fn policy_of(w: &World) -> GreedyPolicy {
    match w.policy {
        0 => GreedyPolicy::default(),
        1 => GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() },
        _ => GreedyPolicy { prefer_local_cache_on_ties: false, ..GreedyPolicy::default() },
    }
}

/// Forbidden windows for one video, cut around its phase-1 residencies
/// so they straddle the start of a support (shape 0), its end (shape 1),
/// or sit inside it (shape 2). A video without real residencies gets
/// windows over its request span at the storages it was offered.
fn bans_for(
    w: &World,
    ctx: &SchedCtx<'_>,
    phase1: &VideoSchedule,
    requests: &[Request],
) -> Vec<(NodeId, Interval)> {
    let video = ctx.catalog.get(phase1.video);
    let supports: Vec<(NodeId, f64, f64)> = phase1
        .residencies
        .iter()
        .map(|r| r.profile_with(video, ctx.model.space_model()))
        .zip(&phase1.residencies)
        .filter(|(p, _)| p.peak() > 0.0)
        .map(|(p, r)| (r.loc, p.start, p.end))
        .collect();
    let storages: Vec<NodeId> = ctx.topo.storages().collect();
    let first = requests[0].start;
    let last = requests[requests.len() - 1].start + video.playback;
    w.bans
        .iter()
        .map(|&(pick, shape, a, b)| {
            let (loc, s, e) = if supports.is_empty() {
                (storages[pick % storages.len()], first, last)
            } else {
                supports[pick % supports.len()]
            };
            let len = (e - s).max(1.0);
            let window = match shape {
                0 => Interval::new(s - b * len, s + a * len),
                1 => Interval::new(s + a * len, e + b * len),
                _ => {
                    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                    Interval::new(s + lo * len, s + hi * len)
                }
            };
            (loc, window)
        })
        .collect()
}

/// Run the shipped and the unpruned greedy on every video of the world
/// and require bit-identical schedules; returns the unpruned tallies.
fn check_world(w: &World) -> Result<Tally, TestCaseError> {
    let mut topo = build_topo(w);
    let wl = Workload::generate(
        &topo,
        &CatalogConfig::small(24),
        &RequestConfig { requests_per_user: w.requests_per_user, ..RequestConfig::paper() },
        w.seed,
    );
    let mut sizes: Vec<f64> = wl.catalog.iter().map(|v| v.size).collect();
    sizes.sort_by(f64::total_cmp);
    topo.set_uniform_capacity(w.capacity_files * sizes[sizes.len() / 2])
        .expect("a non-negative capacity is valid");
    let requests = if w.one_instant {
        let t = wl.requests.iter().next().map_or(0.0, |r| r.start);
        RequestBatch::new(wl.requests.iter().map(|r| Request { start: t, ..*r }).collect())
    } else {
        wl.requests.clone()
    };
    let model = if w.gradual_fill {
        CostModel::per_hop().with_space_model(SpaceModel::GradualFill)
    } else {
        CostModel::per_hop()
    };
    let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
    let phase1 = ivsp_solve(&ctx, &requests);
    let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &phase1);
    let policy = policy_of(w);

    let mut total = Tally::default();
    for (vid, group) in requests.groups() {
        let own = phase1.video(vid).expect("phase 1 schedules every video");
        let forbidden = bans_for(w, &ctx, own, group);
        let cons = Constraints { ledger: &ledger, exclude: Some(vid), forbidden: &forbidden };

        let mut tally = Tally::default();
        let reference = unpruned_greedy(&ctx, group, &cons, policy, &mut tally);
        let pruned = reschedule_video(&ctx, group, &cons, policy);
        let (traced, trace) = reschedule_video_traced(&ctx, group, &cons, policy);
        prop_assert!(pruned == reference, "pruned greedy diverged for {:?}", vid);
        prop_assert!(traced == reference, "traced greedy diverged for {:?}", vid);
        prop_assert_eq!(ctx.video_cost(&pruned).to_bits(), ctx.video_cost(&reference).to_bits());
        prop_assert_eq!(tally.revived, 0, "a failed cache passed a later test");
        // The trace ends each dead cache at its first failing test.
        prop_assert_eq!(trace.checks.len(), tally.tests - tally.dead_retests);

        total.tests += tally.tests;
        total.dead_retests += tally.dead_retests;
        total.revived += tally.revived;
    }
    Ok(total)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// On every world, the shipped (pruned) greedy and its traced twin
    /// produce the unpruned greedy's schedule bit for bit.
    #[test]
    fn pruned_greedy_equals_unpruned(w in world_strategy()) {
        check_world(&w)?;
    }
}

/// On the paper topology with tight storage, most extension tests hit a
/// cache that already failed, so the equality above is not vacuous.
#[test]
fn pruning_is_exercised_on_a_tight_paper_world() {
    let w = World {
        topo_kind: 0,
        storages: 19,
        seed: 1,
        capacity_files: 1.0,
        gradual_fill: false,
        one_instant: false,
        requests_per_user: 4,
        policy: 0,
        bans: vec![(0, 1, 0.3, 0.5), (1, 0, 0.2, 0.2), (2, 2, 0.1, 0.9)],
    };
    let tally = check_world(&w).expect("pruned and unpruned greedy agree");
    assert!(tally.dead_retests > 0, "no dead cache was ever re-tested: {}", tally.tests);
}
