//! Correctness gates, checked by the independent simulator, and the
//! cross-cycle capacity replay.

use crate::serve::Pass;
use crate::world::World;
use std::collections::BTreeMap;
use vod_cost_model::{Schedule, VideoId, VideoSchedule};
use vod_simulator::{
    check_service_accounting, cycle_is_clean, replay_service_cycle, simulate, SimOptions, Violation,
};
use vod_topology::units::GB;

/// Gate results for one fully checked pass.
pub struct Checked {
    /// One line per broken gate; empty when every gate holds.
    pub failures: Vec<String>,
    /// Whether the run-level gates (conservation, accounting) hold.
    pub accounting_ok: bool,
    /// Cycles whose committed schedule did not replay clean.
    pub unclean_replays: usize,
    /// `CapacityExceeded` violations of the cross-cycle replay, as
    /// `(storage name, time s, usage GB, capacity GB)`.
    pub capacity: Vec<(String, f64, f64, f64)>,
}

/// Check one pass against every gate:
///
/// * the service report conserves requests (`conservation_error == 0`);
/// * `check_service_accounting` finds nothing;
/// * every cycle's committed schedule replays strictly clean, shed
///   requests excused (`replay_service_cycle`).
///
/// The cross-cycle capacity replay is measured, not gated.
pub fn check(world: &World, pass: &Pass) -> Checked {
    let mut failures = Vec::new();
    let err = pass.report.conservation_error();
    if err != 0 {
        failures.push(format!("conservation error {err}"));
    }
    failures.extend(check_service_accounting(&pass.report));
    let accounting_ok = failures.is_empty();

    let mut unclean_replays = 0;
    for out in &pass.outcomes {
        let sim = replay_service_cycle(&world.topo, &world.catalog, &world.model, out);
        if !cycle_is_clean(&sim) {
            unclean_replays += 1;
            failures.push(format!(
                "cycle {}: replay found {} violations, first {:?}",
                out.stats.cycle,
                sim.violations.len(),
                sim.violations.first()
            ));
        }
    }
    Checked {
        failures,
        accounting_ok,
        unclean_replays,
        capacity: cross_cycle_capacity(world, pass),
    }
}

impl Checked {
    /// Cycles of the pass that failed a gate. A broken run-level gate
    /// fails all `cycles`: the report cannot say which cycle leaked.
    pub fn failed_cycles(&self, cycles: usize) -> usize {
        if self.accounting_ok {
            self.unclean_replays
        } else {
            cycles
        }
    }
}

/// Replay every cycle's committed schedule merged into one, checking
/// storage capacity only. A residency committed in one cycle can outlive
/// its window, so this finds overflows that no per-cycle replay sees.
fn cross_cycle_capacity(world: &World, pass: &Pass) -> Vec<(String, f64, f64, f64)> {
    let mut by_video: BTreeMap<VideoId, VideoSchedule> = BTreeMap::new();
    for out in &pass.outcomes {
        for vs in out.schedule.videos() {
            let merged = by_video.entry(vs.video).or_insert_with(|| VideoSchedule::new(vs.video));
            merged.transfers.extend(vs.transfers.iter().cloned());
            merged.residencies.extend(vs.residencies.iter().cloned());
        }
    }
    let merged: Schedule = by_video.into_values().collect();
    let options = SimOptions {
        requests: None,
        check_capacity: true,
        check_bandwidth: false,
        check_cost: false,
    };
    let report = simulate(&world.topo, &world.catalog, &world.model, &merged, &options);
    report
        .violations
        .iter()
        .filter_map(|v| match *v {
            Violation::CapacityExceeded { loc, time, usage, capacity } => {
                Some((world.topo.node(loc).name.clone(), time, usage / GB, capacity / GB))
            }
            _ => None,
        })
        .collect()
}
