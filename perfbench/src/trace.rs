//! The per-layer split of a traced pass, read from the flight recording.
//!
//! The program already emits one event per stage of `run_cycle`, in
//! this order: `intake` (backoff release and drain done), `rung` (ladder
//! pick done), `shard_solve` (inside the solve), `warm` (solve and its
//! timer done), `budget`, `repair` (only when faults hit the window) and
//! `cycle_end`. The benchmark brackets each call with its own
//! `bench.cycle_begin` / `bench.cycle_end` markers. With wall-clock
//! stamps on, the gaps between these events are the layer times:
//!
//! | layer | interval |
//! |---|---|
//! | release | begin marker → `intake` |
//! | shed | `rung` → `warm`, minus `WarmStats::solve_ns` |
//! | solve | `WarmStats::solve_ns` (timed inside the loop) |
//! | repair | `budget` → `repair` |
//! | commit | `repair` (or `budget`) → `cycle_end` |
//!
//! What these leave of the marker-to-marker wall (the ladder pick, the
//! budget update, the return) is reported as unattributed.

use crate::serve::{Pass, CYCLE_BEGIN, CYCLE_END};
use vod_obs::{Event, Recording};

/// Layer wall times of one traced pass, summed over its cycles, ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerNs {
    pub cycle: u64,
    pub release: u64,
    pub shed: u64,
    pub solve: u64,
    pub repair: u64,
    pub commit: u64,
}

impl LayerNs {
    /// Cycle wall time that no layer interval covers.
    pub fn unattributed(&self) -> u64 {
        let covered = self.release + self.shed + self.solve + self.repair + self.commit;
        self.cycle.saturating_sub(covered)
    }
}

/// Counts summed over a pass's `shard_solve`, `warm` and `repair`
/// events. Deterministic for a seed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerCounts {
    pub iterations: u64,
    pub victims: u64,
    pub trials_run: u64,
    pub trials_cached: u64,
    pub nodes_rescanned: u64,
    pub forced_fallbacks: u64,
    pub unresolved_cycles: u64,
    pub cross_shard_overflows: u64,
    pub reconcile_iterations: u64,
    pub split_videos: u64,
    pub trials_carried: u64,
    pub trials_revalidated: u64,
    pub trials_evicted: u64,
    /// Largest committed-book size seen at any cycle.
    pub committed_active_max: u64,
    pub repaired_videos: u64,
    pub repair_shed: u64,
    pub repair_delayed: u64,
}

fn field(ev: &Event, name: &str) -> Result<u64, String> {
    ev.u64(name).ok_or_else(|| format!("`{}` event without `{name}`", ev.kind))
}

/// Split `pass`'s cycles into layer times and sum its event counts.
pub fn split(rec: &Recording, pass: &Pass) -> Result<(LayerNs, LayerCounts), String> {
    let mut ns = LayerNs::default();
    let mut n = LayerCounts::default();
    let mut cycle = 0usize;
    let mut open: Vec<&Event> = Vec::new();
    let mut inside = false;
    for ev in &rec.events {
        match ev.kind.as_str() {
            CYCLE_BEGIN => {
                inside = true;
                open.clear();
                open.push(ev);
            }
            CYCLE_END if inside => {
                open.push(ev);
                let solve_ns = pass
                    .outcomes
                    .get(cycle)
                    .ok_or("more traced cycles than outcomes")?
                    .warm
                    .solve_ns;
                add_cycle(&open, solve_ns, &mut ns)?;
                inside = false;
                cycle += 1;
            }
            _ if inside => open.push(ev),
            _ => {}
        }
        match ev.kind.as_str() {
            "shard_solve" => {
                n.iterations += field(ev, "iterations")?;
                n.victims += field(ev, "victims")?;
                n.trials_run += field(ev, "trials_run")?;
                n.trials_cached += field(ev, "trials_cached")?;
                n.nodes_rescanned += field(ev, "nodes_rescanned")?;
                n.forced_fallbacks += field(ev, "forced_fallbacks")?;
                n.cross_shard_overflows += field(ev, "cross_shard_overflows")?;
                n.reconcile_iterations += field(ev, "reconcile_iterations")?;
                n.split_videos += field(ev, "split_videos")?;
                if ev.bool("overflow_free") == Some(false) {
                    n.unresolved_cycles += 1;
                }
            }
            "warm" => {
                n.trials_carried += field(ev, "trials_carried")?;
                n.trials_revalidated += field(ev, "trials_revalidated")?;
                n.trials_evicted += field(ev, "trials_evicted")?;
                n.committed_active_max = n.committed_active_max.max(field(ev, "committed_active")?);
            }
            "repair" => {
                n.repaired_videos += field(ev, "repaired_videos")?;
                n.repair_shed += field(ev, "shed")?;
                n.repair_delayed += field(ev, "delayed")?;
            }
            _ => {}
        }
    }
    if cycle != pass.outcomes.len() {
        return Err(format!("traced {cycle} cycles of {}", pass.outcomes.len()));
    }
    Ok((ns, n))
}

/// Add one cycle's intervals, `events` running from the begin marker to
/// the end marker.
fn add_cycle(events: &[&Event], solve_ns: u64, ns: &mut LayerNs) -> Result<(), String> {
    let wall = |kind: &str| -> Result<u64, String> {
        events
            .iter()
            .find(|e| e.kind == kind)
            .and_then(|e| e.wall_ns)
            .ok_or_else(|| format!("cycle without a wall-stamped `{kind}` event"))
    };
    let begin = wall(CYCLE_BEGIN)?;
    let intake = wall("intake")?;
    let rung = wall("rung")?;
    let warm = wall("warm")?;
    let budget = wall("budget")?;
    let repair = wall("repair").ok();
    let cycle_end = wall("cycle_end")?;
    let end = wall(CYCLE_END)?;

    ns.cycle += end - begin;
    ns.release += intake - begin;
    ns.solve += solve_ns;
    ns.shed += (warm - rung).saturating_sub(solve_ns);
    if let Some(repair) = repair {
        ns.repair += repair - budget;
    }
    ns.commit += cycle_end - repair.unwrap_or(budget);
    Ok(())
}
