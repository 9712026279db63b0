//! Reference solvers for equivalence tests and benchmarks. Each takes
//! [`crate::sorp_solve_priced`]'s arguments and must take its decisions,
//! while running a slower implementation of exactly one layer:
//!
//! * [`sorp_solve_uncached`] is the pre-cache loop: a full
//!   [`crate::detect_overflows`] and a fresh trial of the shipped
//!   rejective greedy for every overflow participant, every iteration;
//! * [`sorp_solve_reference_ledger`] is the cached solver on the flat
//!   per-profile rescan ([`LedgerMode::Reference`]).
//!
//! No configuration selects them, and `scripts/check.sh` fails if
//! shipping code calls them.

use crate::sorp::SolveState;
use crate::{LedgerMode, PricedSchedule, SchedCtx, SorpConfig, SorpOutcome};
use vod_cost_model::SpaceProfile;
use vod_parallel::ExecMode;
use vod_topology::NodeId;

/// [`crate::sorp_solve_priced`] without the cross-iteration trial cache
/// and the incremental overflow monitor. Its `trials_cached` is always
/// 0, its `trials_run` counts every trial job, and its
/// `nodes_rescanned` counts every finite-capacity storage every
/// iteration.
///
/// Its trials run the same rejective greedy as the fast path, dead-cache
/// pruning included: it checks the cache, not the greedy. The pruning
/// is checked independently by `crates/core/tests/greedy_prune_props.rs`,
/// which compares the shipped greedy with an unpruned copy kept in the
/// test.
pub fn sorp_solve_uncached(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    external: &[(NodeId, SpaceProfile)],
    mode: ExecMode,
) -> SorpOutcome {
    let mut state = SolveState::new(ctx, priced, external);
    state.resolve_loop(ctx, cfg, mode, false);
    state.into_outcome(ctx)
}

/// [`crate::sorp_solve_priced`] on a [`LedgerMode::Reference`] ledger.
/// Its counters equal the fast path's.
pub fn sorp_solve_reference_ledger(
    ctx: &SchedCtx<'_>,
    priced: PricedSchedule,
    cfg: &SorpConfig,
    external: &[(NodeId, SpaceProfile)],
    mode: ExecMode,
) -> SorpOutcome {
    let mut state = SolveState::new(ctx, priced, external);
    state.ledger.set_mode(LedgerMode::Reference);
    state.resolve(ctx, cfg, mode);
    state.into_outcome(ctx)
}
