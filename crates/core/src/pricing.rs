//! Incremental pricing layer: a schedule plus a per-video Ψ memo.
//!
//! The SORP loop replaces one video's schedule per iteration. Re-pricing
//! the whole schedule after every commit is O(videos) per iteration;
//! since Ψ is additive over per-video schedules (`schedule_cost` is the
//! ordered sum of `video_cost`), replacing one video changes the total
//! by exactly `Ψ(new_vs) − Ψ(old_vs)`. [`PricedSchedule`] keeps the
//! per-video costs memoized and maintains the running total by that
//! delta, cross-checking against the closed-form full recompute under
//! `debug_assert`.
//!
//! The memo doubles as the answer to "what does this video cost right
//! now?" — which the SORP trial loop needs once per overflow
//! participant per iteration, and previously recomputed from scratch
//! every time.

use crate::greedy::{greedy, GreedyPolicy};
use crate::SchedCtx;
use std::collections::HashMap;
use vod_cost_model::{Dollars, RequestBatch, Schedule, VideoId, VideoSchedule};
use vod_parallel::{map_with_mode, parallel_map, ExecMode};

/// Relative tolerance for the incremental-vs-closed-form cross-checks.
/// Delta accumulation drifts by at most a few ulps per commit; 1e-6
/// relative leaves orders of magnitude of headroom while still catching
/// any real accounting bug.
const PRICING_EPS: f64 = 1e-6;

/// A [`Schedule`] bundled with its per-video Ψ memo and running total.
///
/// Invariant: `total()` equals the ordered sum of the memoized per-video
/// costs over `schedule().videos()`, which in turn equals
/// `ctx.schedule_cost(schedule())` up to delta-accumulation noise (the
/// exact equality is `debug_assert`ed on every commit).
#[derive(Clone, Debug)]
pub struct PricedSchedule {
    schedule: Schedule,
    costs: HashMap<VideoId, Dollars>,
    total: Dollars,
}

impl PricedSchedule {
    /// Price every video of `schedule` (in parallel) and take ownership.
    /// Per-video costs are computed independently and summed in schedule
    /// order, so the total does not depend on the worker count.
    pub fn price(ctx: &SchedCtx<'_>, schedule: Schedule) -> Self {
        let videos: Vec<&VideoSchedule> = schedule.videos().collect();
        let priced = parallel_map(&videos, |vs| ctx.video_cost(vs));
        let mut costs = HashMap::with_capacity(videos.len());
        let mut total = 0.0;
        for (vs, cost) in videos.iter().zip(&priced) {
            costs.insert(vs.video, *cost);
            total += *cost;
        }
        Self { schedule, costs, total }
    }

    /// Assemble from already-priced per-video schedules (the phase-1
    /// path: the greedy worker that built a video's schedule also priced
    /// it). The total is summed in schedule (video-id) order so it is
    /// bit-identical to [`PricedSchedule::price`] of the same schedule.
    pub fn from_priced_videos(pairs: Vec<(VideoSchedule, Dollars)>) -> Self {
        let mut costs = HashMap::with_capacity(pairs.len());
        let mut schedule = Schedule::new();
        for (vs, cost) in pairs {
            costs.insert(vs.video, cost);
            schedule.upsert(vs);
        }
        let total = schedule.videos().map(|vs| costs[&vs.video]).sum();
        Self { schedule, costs, total }
    }

    /// Merge per-shard priced schedules into one global memo **without
    /// recomputation**: Ψ is additive over a video's transfers and
    /// residencies (`video_cost` is their ordered sum), so a video split
    /// across shards prices its concatenated schedule at exactly the sum
    /// of its per-shard memo costs — up to float summation order, which
    /// is why every consumer compares through [`PRICING_EPS`]-relative
    /// checks rather than bit equality. Videos owned by a single shard
    /// keep their memo entry verbatim. A single part is returned
    /// unchanged (bit-identical total), which is what makes the 1-shard
    /// sharded pipeline coincide with the monolithic one.
    pub fn merge(mut parts: Vec<PricedSchedule>) -> Self {
        if parts.len() == 1 {
            return parts.pop().expect("one part is present");
        }
        let mut merged: std::collections::BTreeMap<VideoId, (VideoSchedule, Dollars)> =
            std::collections::BTreeMap::new();
        for part in parts {
            let Self { schedule, costs, .. } = part;
            for vs in schedule.into_videos() {
                let cost = costs[&vs.video];
                match merged.entry(vs.video) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert((vs, cost));
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        let (acc, acc_cost) = e.get_mut();
                        acc.transfers.extend(vs.transfers);
                        acc.residencies.extend(vs.residencies);
                        *acc_cost += cost;
                    }
                }
            }
        }
        Self::from_priced_videos(merged.into_values().collect())
    }

    /// The running total Ψ of the whole schedule.
    pub fn total(&self) -> Dollars {
        self.total
    }

    /// The memoized Ψ of one video's current schedule.
    pub fn video_cost(&self, video: VideoId) -> Option<Dollars> {
        self.costs.get(&video).copied()
    }

    /// Read access to the underlying schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Unwrap the schedule, discarding the memo.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// Replace one video's schedule, updating the memo and the running
    /// total by delta. Returns `Ψ(new) − Ψ(old)` (the SORP overhead of
    /// this commit). Cross-checks the running total against the
    /// closed-form full recompute under `debug_assert`.
    pub fn commit(&mut self, ctx: &SchedCtx<'_>, new_vs: VideoSchedule) -> Dollars {
        let new_cost = ctx.video_cost(&new_vs);
        let old_cost = self.costs.insert(new_vs.video, new_cost).unwrap_or(0.0);
        let delta = new_cost - old_cost;
        self.total += delta;
        self.schedule.upsert(new_vs);
        debug_assert!(
            self.consistent_with(ctx),
            "incremental Ψ {} diverged from closed-form recompute {}",
            self.total,
            ctx.schedule_cost(&self.schedule)
        );
        delta
    }

    /// Whether the running total agrees with the closed-form
    /// `schedule_cost` recompute within [`PRICING_EPS`] (relative).
    /// O(videos) — meant for `debug_assert` and tests, not hot paths.
    pub fn consistent_with(&self, ctx: &SchedCtx<'_>) -> bool {
        let full = ctx.schedule_cost(&self.schedule);
        (self.total - full).abs() <= PRICING_EPS * full.abs().max(1.0)
    }
}

/// Phase 1 with pricing fused in: schedule every video group in
/// parallel, pricing each group's schedule on the worker that built it.
/// The result is ready for [`crate::sorp_solve_priced`] with no full
/// `schedule_cost` pass in between.
pub fn ivsp_solve_priced(ctx: &SchedCtx<'_>, batch: &RequestBatch) -> PricedSchedule {
    ivsp_solve_priced_with(ctx, batch, GreedyPolicy::default(), ExecMode::default())
}

/// [`ivsp_solve_priced`] under an explicit [`GreedyPolicy`] (ablations,
/// the sharded solver's per-shard phase 1) and [`ExecMode`]; both modes
/// give bit-identical output. Take `.into_schedule()` when only the
/// schedule is needed.
pub fn ivsp_solve_priced_with(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    policy: GreedyPolicy,
    mode: ExecMode,
) -> PricedSchedule {
    let groups: Vec<_> = batch.groups().collect();
    let pairs = map_with_mode(mode, &groups, |(_, group)| {
        let vs = greedy(ctx, group, None, policy);
        let cost = ctx.video_cost(&vs);
        (vs, cost)
    });
    PricedSchedule::from_priced_videos(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivsp_solve;
    use vod_cost_model::CostModel;
    use vod_topology::builders;
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    fn world(seed: u64) -> (vod_topology::Topology, vod_workload::Workload) {
        let cfg = builders::PaperFig4Config { capacity_gb: 5.0, ..Default::default() };
        let topo = builders::paper_fig4(&cfg);
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(60), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    #[test]
    fn pricing_matches_schedule_cost() {
        let (topo, wl) = world(11);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let schedule = ivsp_solve(&ctx, &wl.requests);
        let full = ctx.schedule_cost(&schedule);
        let priced = PricedSchedule::price(&ctx, schedule);
        assert_eq!(priced.total(), full, "ordered per-video sum must be bit-identical");
    }

    #[test]
    fn ivsp_solve_priced_agrees_with_ivsp_solve() {
        let (topo, wl) = world(12);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let plain = ivsp_solve(&ctx, &wl.requests);
        let priced = ivsp_solve_priced(&ctx, &wl.requests);
        assert_eq!(priced.total(), ctx.schedule_cost(&plain));
        assert!(priced.schedule() == &plain, "schedules must be identical");
    }

    #[test]
    fn commit_updates_by_delta_and_memoizes() {
        let (topo, wl) = world(13);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let mut priced = ivsp_solve_priced(&ctx, &wl.requests);

        // Re-commit an altered schedule for the first few videos and
        // check the memo tracks the recomputed per-video cost exactly.
        let vids: Vec<_> = priced.schedule().videos().map(|vs| vs.video).take(5).collect();
        for vid in vids {
            let old_vs = priced.schedule().video(vid).expect("scheduled").clone();
            let memo_before = priced.video_cost(vid).expect("priced");
            assert_eq!(memo_before, ctx.video_cost(&old_vs), "memo is the current cost");

            // Degrade the video to direct-only delivery (drop residencies).
            let mut direct = VideoSchedule::new(vid);
            direct.transfers = old_vs
                .delivered_requests()
                .iter()
                .map(|r| {
                    let home = ctx.topo.home_of(r.user);
                    vod_cost_model::Transfer::for_user(
                        r,
                        ctx.routes.path(ctx.topo.warehouse(), home),
                    )
                })
                .collect();
            let expected_delta = ctx.video_cost(&direct) - memo_before;
            let total_before = priced.total();
            let delta = priced.commit(&ctx, direct.clone());
            assert_eq!(delta, expected_delta);
            assert_eq!(priced.total(), total_before + delta);
            assert_eq!(priced.video_cost(vid), Some(ctx.video_cost(&direct)));
        }
        assert!(priced.consistent_with(&ctx));
    }
}
