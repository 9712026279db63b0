//! Sharded multi-batch scheduling with cross-shard conflict
//! reconciliation.
//!
//! One scheduling cycle's batch is partitioned into shards
//! ([`vod_workload::partition_requests`]) that each run the full
//! two-phase pipeline — IVSP then conflict-scoped SORP — one after
//! another against the same [`WarmState`], followed by a deterministic
//! **reconciliation pass**:
//!
//! 1. the per-shard [`PricedSchedule`]s merge without recomputation
//!    ([`PricedSchedule::merge`]: Ψ is additive over transfers and
//!    residencies);
//! 2. a fresh global [`SolveState`] is built over the merged schedule
//!    and the committed occupancy, with every per-shard ban carried over
//!    in shard order; its trial cache starts empty (the per-shard caches
//!    go to the [`WarmState`] carry instead);
//! 3. cross-shard capacity overflows (storages individually feasible
//!    per shard but jointly over capacity) are detected by the standard
//!    scan and resolved by one bounded global SORP pass whose victim
//!    loop starts from the per-shard outcomes.
//!
//! [`shard_solve`] is the one sharded entry point. The service loop
//! hands it its carried [`WarmState`]; a cold caller hands it a fresh
//! [`WarmState::with_committed`] built from a flat occupancy list.
//!
//! ## Determinism and equivalence contract
//!
//! * The partition is a pure function of `(batch, spec)`; shards run in
//!   sequence, each under the caller's [`ExecMode`], and the global pass
//!   reduces sequentially in job order — so the sharded output is
//!   **bit-identical across runs** in both [`ExecMode`]s, and
//!   `shards = 1` (or a 1-region batch) takes the monolithic code path
//!   exactly, producing bit-identical output to [`crate::sorp_solve_priced`].
//! * Reconciliation guarantees **feasibility**: every request served,
//!   no overflow, for any shard count, strategy, or policy.
//! * **Ψ-equality with the monolith** additionally holds in the
//!   *regional regime*: [`ShardStrategy::ByRegion`] partitioning, a
//!   neighborhood-local [`crate::GreedyPolicy`] (`allow_remote_placement =
//!   false`), and a workload in which each video is requested from one
//!   neighborhood only ([`vod_workload::generate_regional_requests`]).
//!   There the shards touch disjoint storages and videos, commits
//!   commute with the monolith's interleaved victim order, and total Ψ
//!   agrees up to float summation order (≤ 1e-9 relative; bit-identical
//!   at one shard). Outside that regime the monolith's trials can place
//!   a split video across regions in ways no shard sees, so only
//!   feasibility — not Ψ-equality — is promised.
//!
//! The equivalence oracle is the separate monolithic pipeline,
//! [`crate::sorp_solve_priced`] over [`crate::ivsp_solve_priced_with`]
//! on the whole batch; the tests compare against it, as they compare
//! [`crate::sorp_solve_priced`] with the reference solvers in
//! [`crate::oracle`].

use crate::sorp::SolveState;
use crate::warm::WarmState;
use crate::{
    detect_overflows, ivsp_solve_priced_with, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vod_cost_model::{RequestBatch, VideoId};
use vod_parallel::ExecMode;
use vod_topology::NodeId;
use vod_workload::{partition_requests, ShardSpec, ShardStrategy};

/// Configuration of the sharded solver: the partition plus the SORP
/// configuration shared by the per-shard and reconciliation passes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Requested shard count (clamped by the partitioner so every shard
    /// is non-empty).
    pub shards: usize,
    /// Partitioning strategy.
    pub strategy: ShardStrategy,
    /// Tie-break seed for the partitioner.
    pub seed: u64,
    /// SORP configuration. Its [`SorpConfig::policy`] governs phase 1
    /// *and* every trial reschedule, per-shard and global; its
    /// `max_iterations` bounds each pass separately (the global
    /// reconciliation pass gets its own budget).
    pub sorp: SorpConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 4, strategy: ShardStrategy::ByRegion, seed: 0, sorp: SorpConfig::default() }
    }
}

impl ShardConfig {
    /// Region-sharded configuration with `shards` shards.
    pub fn by_region(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }

    /// Time-sliced configuration with `shards` shards.
    pub fn by_time_slice(shards: usize) -> Self {
        Self { shards, strategy: ShardStrategy::ByTimeSlice, ..Self::default() }
    }
}

/// Result of [`shard_solve`]: the reconciled [`SorpOutcome`] plus
/// shard-level diagnostics.
#[derive(Clone, Debug)]
pub struct ShardOutcome {
    /// The reconciled outcome. Aggregates across all passes:
    /// `initial_cost` is the summed phase-1 Ψ, and `iterations`,
    /// `victims`, `forced_fallbacks`, and the trial counters cover the
    /// per-shard passes *and* the global pass.
    pub sorp: SorpOutcome,
    /// Effective shard count after clamping (1 for an unsplit batch).
    pub shards: usize,
    /// Videos whose requests landed in more than one shard.
    pub split_videos: usize,
    /// Storages holding residencies from more than one shard.
    pub shared_storages: usize,
    /// Capacity overflows present in the merged schedule before the
    /// global pass — conflicts the shards could not see.
    pub cross_shard_overflows: usize,
    /// Iterations the global reconciliation pass ran.
    pub reconcile_iterations: usize,
    /// Victims the global reconciliation pass committed.
    pub reconcile_victims: usize,
}

impl ShardOutcome {
    /// Emit this solve as a `"shard_solve"` flight-recorder event under
    /// the recorder's current cycle scope: sharding shape, SORP work
    /// counters, and cache-reuse totals — every decision input the
    /// issue's debugging scenarios need.
    fn record(&self, rec: &vod_obs::Recorder, requests: usize) {
        rec.event("shard_solve", |e| {
            e.u64("shards", self.shards as u64)
                .u64("requests", requests as u64)
                .u64("split_videos", self.split_videos as u64)
                .u64("shared_storages", self.shared_storages as u64)
                .u64("cross_shard_overflows", self.cross_shard_overflows as u64)
                .u64("reconcile_iterations", self.reconcile_iterations as u64)
                .u64("reconcile_victims", self.reconcile_victims as u64)
                .u64("iterations", self.sorp.iterations as u64)
                .u64("victims", self.sorp.victims.len() as u64)
                .u64("forced_fallbacks", self.sorp.forced_fallbacks as u64)
                .u64("trials_run", self.sorp.trials_run as u64)
                .u64("trials_cached", self.sorp.trials_cached as u64)
                .u64("nodes_rescanned", self.sorp.nodes_rescanned as u64)
                .bool("overflow_free", self.sorp.overflow_free)
                .f64("cost", self.sorp.cost)
                .f64("initial_cost", self.sorp.initial_cost);
        });
    }
}

/// Solve one cycle's batch with the sharded two-phase pipeline against
/// `warm`'s committed occupancy and carried trials, updating `warm` in
/// place for the next cycle. The caller opens the cycle first
/// ([`WarmState::begin_cycle`]); a cold caller passes a fresh
/// [`WarmState::with_committed`] holding its flat occupancy list.
///
/// Shards are prepared and resolved one after another (the warm state
/// is one mutable resource), each under the caller's `mode`; by the
/// [`vod_parallel::map_with_mode`] order-preservation contract the
/// output is bit-identical in both [`ExecMode`]s. Every per-shard and
/// global solve starts from `warm`, in the two ways the [`crate::warm`]
/// module docs argue are equivalence-preserving:
///
/// * its ledger is a clone of the committed ledger with the shard's
///   schedule laid on top;
/// * carried trials adopt at epoch 0 behind a first delta that unions
///   the previous cycle's final ledger footprint with the new state's
///   own, so the standard lazy validation answers every cross-cycle
///   staleness question before an entry is reused.
pub fn shard_solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    warm: &mut WarmState,
    mode: ExecMode,
) -> ShardOutcome {
    let out = solve(ctx, batch, cfg, warm, mode);
    out.record(&ctx.recorder, batch.len());
    out
}

fn solve(
    ctx: &SchedCtx<'_>,
    batch: &RequestBatch,
    cfg: &ShardConfig,
    warm: &mut WarmState,
    mode: ExecMode,
) -> ShardOutcome {
    let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
    let batches = partition_requests(ctx.topo, batch, &spec);
    warm.stats.shards_used = batches.len();

    let mut states = Vec::with_capacity(batches.len());
    for shard_batch in &batches {
        let priced = ivsp_solve_priced_with(ctx, shard_batch, cfg.sorp.policy, mode);
        let mut state = SolveState::new_with_base(ctx, priced, warm.committed().ledger().clone());
        let trials = warm.take_matching_trials(shard_batch);
        warm.seed_state(&mut state, trials);
        state.resolve(ctx, &cfg.sorp, mode);
        states.push(state);
    }

    // One shard is the monolithic pipeline verbatim: its state (and its
    // delta-accumulated running total) is the outcome, bit-identical to
    // `sorp_solve_priced` on the whole batch. The array pattern proves
    // the shard exists — no panic path.
    let shards = states.len();
    let mut cross = CrossShard::default();
    let mut global = match <[SolveState; 1]>::try_from(states) {
        Ok([state]) => state,
        Err(states) => reconcile(ctx, cfg, warm, states, &mut cross, mode),
    };
    warm.harvest(&mut global);
    let sorp = global.into_outcome(ctx);
    warm.absorb_schedule(ctx, &sorp.schedule);
    ShardOutcome {
        sorp,
        shards,
        split_videos: cross.split_videos,
        shared_storages: cross.shared_storages,
        cross_shard_overflows: cross.overflows,
        reconcile_iterations: cross.iterations,
        reconcile_victims: cross.victims,
    }
}

/// The reconciliation pass's diagnostics (all zero at one shard).
#[derive(Default)]
struct CrossShard {
    split_videos: usize,
    shared_storages: usize,
    overflows: usize,
    iterations: usize,
    victims: usize,
}

/// Merge the resolved shard states into one global state and run the
/// reconciliation pass on it, filling `out`.
fn reconcile(
    ctx: &SchedCtx<'_>,
    cfg: &ShardConfig,
    warm: &mut WarmState,
    states: Vec<SolveState>,
    out: &mut CrossShard,
    mode: ExecMode,
) -> SolveState {
    // Which videos landed in several shards, and which storages hold
    // residencies from several shards — both straight off the per-shard
    // schedules, before any merging.
    let mut video_shards: BTreeMap<VideoId, usize> = BTreeMap::new();
    let mut storage_shards: BTreeMap<NodeId, BTreeSet<usize>> = BTreeMap::new();
    for (si, s) in states.iter().enumerate() {
        for vs in s.priced.schedule().videos() {
            *video_shards.entry(vs.video).or_insert(0) += 1;
            for r in &vs.residencies {
                storage_shards.entry(r.loc).or_default().insert(si);
            }
        }
    }
    let split: BTreeSet<VideoId> =
        video_shards.iter().filter(|&(_, &n)| n > 1).map(|(&v, _)| v).collect();
    out.split_videos = split.len();
    out.shared_storages = storage_shards.values().filter(|s| s.len() > 1).count();

    // Tear the shard states apart: schedules merge, bans carry over,
    // counters aggregate, and trial caches go to the warm carry.
    let mut parts = Vec::with_capacity(states.len());
    let mut bans = Vec::with_capacity(states.len());
    let mut initial_cost = 0.0;
    let mut iterations = 0;
    let mut forced_fallbacks = 0;
    let mut trials_run = 0;
    let mut trials_cached = 0;
    let mut nodes_rescanned = 0;
    let mut carried_revalidated = 0;
    let mut victims = Vec::new();
    for mut s in states {
        initial_cost += s.initial_cost;
        iterations += s.iterations;
        forced_fallbacks += s.forced_fallbacks;
        trials_run += s.trials_run;
        trials_cached += s.trials_cached;
        nodes_rescanned += s.nodes_rescanned;
        carried_revalidated += s.carried_revalidated;
        victims.append(&mut s.victims);
        // A split video's per-shard request set matches no later batch,
        // so only unsplit videos' trials are worth carrying; the global
        // pass's own trials replace them at harvest.
        s.cache.retain(|vid, _| !split.contains(vid));
        warm.trials.extend(s.cache);
        bans.push(s.forbidden);
        parts.push(s.priced);
    }

    let merged = PricedSchedule::merge(parts);
    let mut global = SolveState::new_with_base(ctx, merged, warm.committed().ledger().clone());
    for forbidden in bans {
        for (vid, b) in forbidden {
            global.forbidden.entry(vid).or_default().extend(b);
        }
    }

    out.overflows = detect_overflows(ctx.topo, &global.ledger).len();

    // Seed the aggregate counters so the final outcome reports totals
    // across every pass; `resolve` budgets `max_iterations` *on top of*
    // the seeded count, so the global pass gets its own full budget.
    global.initial_cost = initial_cost;
    global.iterations = iterations;
    global.forced_fallbacks = forced_fallbacks;
    global.trials_run = trials_run;
    global.trials_cached = trials_cached;
    global.nodes_rescanned = nodes_rescanned;
    global.carried_revalidated = carried_revalidated;
    global.victims = victims;

    let victims_before = global.victims.len();
    let iters_before = global.iterations;
    global.resolve(ctx, &cfg.sorp, mode);
    out.iterations = global.iterations - iters_before;
    out.victims = global.victims.len() - victims_before;
    global
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyPolicy, StorageLedger};
    use vod_cost_model::{CostModel, Dollars, SpaceProfile};
    use vod_topology::builders::{self, PaperFig4Config};
    use vod_workload::{generate_regional_requests, CatalogConfig, RequestConfig, Workload};

    fn world(capacity_gb: f64, seed: u64) -> (vod_topology::Topology, Workload) {
        let topo = builders::paper_fig4(&PaperFig4Config { capacity_gb, ..Default::default() });
        let wl =
            Workload::generate(&topo, &CatalogConfig::small(80), &RequestConfig::paper(), seed);
        (topo, wl)
    }

    fn local_only() -> GreedyPolicy {
        GreedyPolicy { allow_remote_placement: false, ..GreedyPolicy::default() }
    }

    /// The separate monolithic pipeline the sharded path is checked
    /// against: phase 1 and SORP over the whole batch, nothing committed.
    fn monolith(ctx: &SchedCtx<'_>, batch: &RequestBatch, sorp: &SorpConfig) -> SorpOutcome {
        let priced = ivsp_solve_priced_with(ctx, batch, sorp.policy, ExecMode::Sequential);
        crate::sorp_solve_priced(ctx, priced, sorp, &[], ExecMode::Sequential)
    }

    #[test]
    fn sharded_schedule_is_feasible_for_any_strategy() {
        for strategy in [ShardStrategy::ByRegion, ShardStrategy::ByTimeSlice] {
            let (topo, wl) = world(5.0, 1);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let cfg = ShardConfig { shards: 4, strategy, ..ShardConfig::default() };
            let out = shard_solve(
                &ctx,
                &wl.requests,
                &cfg,
                &mut WarmState::new(&topo),
                ExecMode::Sequential,
            );
            assert!(out.sorp.overflow_free, "{strategy:?} left overflows");
            assert_eq!(out.sorp.schedule.delivery_count(), wl.requests.len());
            // Re-derive the ledger from scratch: no overflow survives.
            let ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
            assert!(detect_overflows(&topo, &ledger).is_empty());
        }
    }

    #[test]
    fn one_shard_is_bit_identical_to_monolithic() {
        let (topo, wl) = world(5.0, 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig { shards: 1, ..ShardConfig::default() };
        let sharded =
            shard_solve(&ctx, &wl.requests, &cfg, &mut WarmState::new(&topo), ExecMode::Sequential);
        let mono = monolith(&ctx, &wl.requests, &cfg.sorp);
        assert!(sharded.sorp.schedule == mono.schedule);
        assert_eq!(sharded.sorp.cost.to_bits(), mono.cost.to_bits());
        assert_eq!(sharded.sorp.iterations, mono.iterations);
        assert_eq!(sharded.sorp.victims.len(), mono.victims.len());
    }

    #[test]
    fn sequential_sharded_output_is_run_to_run_deterministic_and_matches_parallel() {
        let (topo, wl) = world(5.0, 3);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig { shards: 3, ..ShardConfig::default() };
        let a =
            shard_solve(&ctx, &wl.requests, &cfg, &mut WarmState::new(&topo), ExecMode::Sequential);
        let b =
            shard_solve(&ctx, &wl.requests, &cfg, &mut WarmState::new(&topo), ExecMode::Sequential);
        let p =
            shard_solve(&ctx, &wl.requests, &cfg, &mut WarmState::new(&topo), ExecMode::Parallel);
        assert!(a.sorp.schedule == b.sorp.schedule, "sequential runs diverged");
        assert_eq!(a.sorp.cost.to_bits(), b.sorp.cost.to_bits());
        assert!(a.sorp.schedule == p.sorp.schedule, "parallel diverged from sequential");
        assert_eq!(a.sorp.cost.to_bits(), p.sorp.cost.to_bits());
        assert_eq!(a.reconcile_iterations, p.reconcile_iterations);
    }

    #[test]
    fn regional_regime_matches_monolithic_psi() {
        // ByRegion shards + local-only policy + region-unique videos:
        // the decomposition is exact up to float summation order.
        let topo =
            builders::paper_fig4(&PaperFig4Config { capacity_gb: 5.0, ..Default::default() });
        let catalog = vod_workload::generate_catalog(&CatalogConfig::small(95), 7);
        let requests = generate_regional_requests(
            &topo,
            &catalog,
            &RequestConfig { requests_per_user: 2, ..RequestConfig::paper() },
            7,
        );
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let sorp = SorpConfig { policy: local_only(), ..SorpConfig::default() };
        for shards in [2, 4, 6] {
            let cfg = ShardConfig { shards, sorp: sorp.clone(), ..ShardConfig::default() };
            let sharded = shard_solve(
                &ctx,
                &requests,
                &cfg,
                &mut WarmState::new(&topo),
                ExecMode::Sequential,
            );
            let mono = monolith(&ctx, &requests, &sorp);
            assert!(sharded.sorp.overflow_free && mono.overflow_free);
            assert_eq!(sharded.split_videos, 0, "regional workload must not split videos");
            let rel = (sharded.sorp.cost - mono.cost).abs() / mono.cost.max(1.0);
            assert!(
                rel <= 1e-9,
                "{shards} shards: Ψ {} vs monolithic {} (rel {rel:e})",
                sharded.sorp.cost,
                mono.cost
            );
            assert!(sharded.sorp.schedule == mono.schedule, "{shards} shards: schedules diverged");
        }
    }

    #[test]
    fn cross_shard_conflicts_are_detected_and_reconciled() {
        // Time-slicing splits popular videos across shards, and each
        // shard resolves against its own ledger only, so the merged
        // schedule generally re-overflows — the global pass must both
        // see the conflicts and clear them.
        let mut seen_conflict = false;
        for seed in 1..8 {
            let (topo, wl) = world(4.0, seed);
            let model = CostModel::per_hop();
            let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
            let cfg = ShardConfig::by_time_slice(4);
            let out = shard_solve(
                &ctx,
                &wl.requests,
                &cfg,
                &mut WarmState::new(&topo),
                ExecMode::Sequential,
            );
            assert!(out.sorp.overflow_free, "seed {seed}: reconciliation left overflows");
            assert_eq!(out.sorp.schedule.delivery_count(), wl.requests.len());
            if out.cross_shard_overflows > 0 {
                seen_conflict = true;
                assert!(
                    out.reconcile_iterations > 0 || out.sorp.forced_fallbacks > 0,
                    "seed {seed}: conflicts reported but the global pass did nothing"
                );
            }
        }
        assert!(seen_conflict, "tight capacity never produced a cross-shard conflict");
    }

    #[test]
    fn aggregate_initial_cost_is_the_per_shard_phase1_sum() {
        let (topo, wl) = world(5.0, 5);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let cfg = ShardConfig::by_region(4);
        let out =
            shard_solve(&ctx, &wl.requests, &cfg, &mut WarmState::new(&topo), ExecMode::Sequential);
        let spec = ShardSpec { shards: cfg.shards, strategy: cfg.strategy, seed: cfg.seed };
        let parts = partition_requests(&topo, &wl.requests, &spec);
        assert_eq!(out.shards, parts.len());
        let summed: Dollars = parts.iter().map(|b| crate::ivsp_solve_priced(&ctx, b).total()).sum();
        assert!(
            (out.sorp.initial_cost - summed).abs() <= 1e-9 * summed.max(1.0),
            "aggregate initial cost must be the per-shard sum"
        );
    }

    #[test]
    fn external_occupancy_is_respected_across_shards() {
        let (topo, wl) = world(5.0, 6);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        // Permanently occupy most of one storage.
        let loc = topo.storages().next().expect("a storage exists");
        let external = vec![(
            loc,
            SpaceProfile { start: 0.0, full: 0.0, last: 1e7, end: 1e7, plateau: 4.5e9 },
        )];
        let cfg = ShardConfig::by_region(4);
        let mut warm = WarmState::with_committed(&topo, &external);
        let out = shard_solve(&ctx, &wl.requests, &cfg, &mut warm, ExecMode::Sequential);
        assert!(out.sorp.overflow_free);
        // Rebuild the ledger with the external occupancy and re-check.
        let mut ledger = StorageLedger::from_schedule(&topo, &wl.catalog, &out.sorp.schedule);
        ledger.add(loc, crate::EXTERNAL_OCCUPANCY, external[0].1);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }
}
