//! Storage overflow detection (paper §4.1).
//!
//! When the individual schedules are integrated, an intermediate storage
//! may be over-committed during some interval. A **storage overflow**
//! `OF_{Δt, ISj}` is identified by its location and the maximal time
//! interval during which the summed space requirement exceeds the
//! capacity. Because every residency's occupancy is piecewise linear
//! (Eq. 6), the aggregate occupancy is piecewise linear too and the exact
//! overflow boundaries are found by scanning the ledger's occupancy
//! timeline segment by segment and interpolating the crossings. The
//! timeline yields each segment's exact endpoint values (right-continuous
//! start, exact left limit at the end) directly from its slope aggregates,
//! so no midpoint probing is needed and near-vertical segments suffer no
//! float cancellation.

use crate::capacity::LedgerMode;
use crate::StorageLedger;
use vod_cost_model::{Bytes, Residency, Schedule, Secs};
use vod_topology::{NodeId, Topology};

/// Relative tolerance applied to capacity comparisons so that schedules
/// filling a storage exactly to the brim are not flagged by floating-point
/// noise.
pub(crate) const CAPACITY_EPS: f64 = 1e-9;

/// A half-open time interval `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Inclusive start.
    pub start: Secs,
    /// Exclusive end.
    pub end: Secs,
}

impl Interval {
    /// Construct; panics if reversed.
    pub fn new(start: Secs, end: Secs) -> Self {
        assert!(end >= start, "reversed interval [{start}, {end}]");
        Self { start, end }
    }

    /// Interval length.
    pub fn len(&self) -> Secs {
        self.end - self.start
    }

    /// Whether the interval has zero length.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether two intervals overlap with positive measure.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A detected storage overflow `OF_{Δt, ISj}`.
#[derive(Clone, Debug)]
pub struct Overflow {
    /// The over-committed intermediate storage.
    pub loc: NodeId,
    /// The maximal interval during which usage exceeds capacity.
    pub window: Interval,
    /// Peak excess over capacity within the window, in bytes.
    pub peak_excess: Bytes,
}

/// Detect every storage overflow in `schedule` (paper §4.1: the scheduler
/// analyses storage requirement against storage availability at every
/// intermediate storage). Returns overflows sorted by location then start
/// time; each is a maximal over-capacity interval.
pub fn detect_overflows(topo: &Topology, ledger: &StorageLedger) -> Vec<Overflow> {
    let mut out = Vec::new();
    for loc in topo.storages() {
        let capacity = topo.capacity(loc);
        if !capacity.is_finite() {
            continue;
        }
        out.extend(overflows_at(ledger, loc, capacity));
    }
    out
}

/// Incremental overflow detector: caches each finite-capacity storage's
/// overflow list keyed by the ledger's per-node mutation version, so a
/// refresh rescans only the nodes touched since the previous one. The
/// output is identical to [`detect_overflows`] by construction — both
/// iterate `topo.storages()` in order and compute each node's list with
/// the same scan; the monitor merely skips nodes whose aggregate
/// occupancy provably did not change.
#[derive(Clone, Debug, Default)]
pub struct OverflowMonitor {
    /// Per finite-capacity storage, in `topo.storages()` order:
    /// `(node, version at last scan, overflows found then)`.
    cache: Vec<(NodeId, u64, Vec<Overflow>)>,
    /// Nodes rescanned by the most recent [`OverflowMonitor::refresh`].
    rescanned: usize,
}

impl OverflowMonitor {
    /// A monitor with an empty cache: the first refresh scans every node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recompute the overflow set, rescanning only storages whose ledger
    /// version moved since the last refresh. Must always be called with
    /// the same `topo` (the cache is keyed by its storage order).
    pub fn refresh(&mut self, topo: &Topology, ledger: &StorageLedger) -> Vec<Overflow> {
        self.rescanned = 0;
        let mut slot = 0usize;
        for loc in topo.storages() {
            let capacity = topo.capacity(loc);
            if !capacity.is_finite() {
                continue;
            }
            let version = ledger.node_version(loc);
            match self.cache.get_mut(slot) {
                Some((l, v, ofs)) => {
                    debug_assert_eq!(*l, loc, "monitor reused across topologies");
                    if *v != version {
                        *v = version;
                        *ofs = overflows_at(ledger, loc, capacity);
                        self.rescanned += 1;
                    }
                }
                None => {
                    self.cache.push((loc, version, overflows_at(ledger, loc, capacity)));
                    self.rescanned += 1;
                }
            }
            slot += 1;
        }
        self.cache.iter().flat_map(|(_, _, ofs)| ofs.iter().cloned()).collect()
    }

    /// How many storages the last refresh actually rescanned.
    pub fn nodes_rescanned(&self) -> usize {
        self.rescanned
    }
}

/// Overflow intervals at one storage given its capacity.
fn overflows_at(ledger: &StorageLedger, loc: NodeId, capacity: Bytes) -> Vec<Overflow> {
    let mut scan = OverflowScan::new(capacity);
    match ledger.mode() {
        LedgerMode::Timeline => {
            // Single in-order timeline walk: each linear segment arrives
            // with its exact endpoint values straight from the slope
            // aggregates.
            ledger.for_each_segment(loc, |t0, t1, u0, u1| scan.segment(t0, t1, u0, u1));
        }
        LedgerMode::Reference => {
            // Already sorted and deduped by the ledger.
            let points = ledger.breakpoints(loc, None);
            for w in points.windows(2) {
                let (t0, t1) = (w[0], w[1]);
                // Aggregate usage is linear on [t0, t1) but may jump
                // *upward* at breakpoints (space is reserved
                // instantaneously at a residency's t_s, §2.2.1).
                // usage_at is right-continuous, so the segment's start
                // value is usage_at(t0) and its end value is the left
                // limit at t1, recovered from the midpoint by linearity.
                let u0 = ledger.usage_at(loc, t0, None);
                let umid = ledger.usage_at(loc, 0.5 * (t0 + t1), None);
                let u1 = 2.0 * umid - u0;
                scan.segment(t0, t1, u0, u1);
            }
        }
    }
    scan.finish()
        .into_iter()
        .map(|(window, peak_excess)| Overflow { loc, window, peak_excess })
        .collect()
}

/// Streaming scan over the linear segments of one resource's aggregate
/// load (a storage's occupancy, or a link's committed bytes/s),
/// accumulating maximal over-capacity windows as `(window, peak excess)`.
/// Segments must arrive in time order; `u0` is the right-continuous
/// value at `t0` and `u1` the exact left limit at `t1`.
pub(crate) struct OverflowScan {
    capacity: Bytes,
    threshold: Bytes,
    out: Vec<(Interval, Bytes)>,
    /// `(window start, running peak excess)` of the open window, if any.
    open: Option<(Secs, Bytes)>,
    last_t: Secs,
}

impl OverflowScan {
    pub(crate) fn new(capacity: Bytes) -> Self {
        Self {
            capacity,
            threshold: capacity * (1.0 + CAPACITY_EPS) + CAPACITY_EPS,
            out: Vec::new(),
            open: None,
            last_t: f64::NEG_INFINITY,
        }
    }

    pub(crate) fn segment(&mut self, t0: Secs, t1: Secs, u0: Bytes, u1: Bytes) {
        if t1 <= t0 {
            return;
        }
        self.last_t = t1;
        let over0 = u0 > self.threshold;
        let over1 = u1 > self.threshold;
        if !over0 && !over1 {
            if let Some((s, peak)) = self.open.take() {
                self.out.push((Interval::new(s, t0), peak));
            }
            return;
        }
        // Crossing point of the linear segment with the capacity line.
        let capacity = self.capacity;
        let cross = |target: Bytes| -> Secs { t0 + (target - u0) / (u1 - u0) * (t1 - t0) };
        let (seg_start, seg_end) = match (over0, over1) {
            (true, true) => (t0, t1),
            (false, true) => (cross(capacity), t1),
            (true, false) => (t0, cross(capacity)),
            (false, false) => unreachable!(),
        };
        let seg_peak = (u0.max(u1) - capacity).max(0.0);
        match &mut self.open {
            Some((_, peak)) => *peak = peak.max(seg_peak),
            None => self.open = Some((seg_start, seg_peak)),
        }
        // Close if the segment ends under capacity before t1.
        if !over1 {
            let (s, peak) = self.open.take().expect("window was open");
            self.out.push((Interval::new(s, seg_end), peak));
        }
    }

    pub(crate) fn finish(mut self) -> Vec<(Interval, Bytes)> {
        if let Some((s, peak)) = self.open.take() {
            self.out.push((Interval::new(s, self.last_t), peak));
        }
        self.out
    }
}

/// `Overflow_Set(ISj, Δt)`: the residencies of `schedule` hosted at the
/// overflow's storage whose occupancy intersects the overflow window with
/// positive space (paper §4.1). Returned in deterministic
/// (video, start) order.
pub fn overflow_set<'s>(
    schedule: &'s Schedule,
    catalog: &vod_cost_model::Catalog,
    of: &Overflow,
) -> Vec<&'s Residency> {
    let mut set: Vec<&Residency> = schedule
        .residencies_at(of.loc)
        .filter(|r| {
            let p = r.profile(catalog.get(r.video));
            p.peak() > 0.0 && Interval::new(p.start, p.end).overlaps(&of.window)
        })
        .collect();
    set.sort_by(|a, b| a.video.cmp(&b.video).then(a.start.total_cmp(&b.start)));
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_cost_model::{Catalog, Request, Residency, Video, VideoId, VideoSchedule};
    use vod_topology::{builders, units, UserId};

    fn setup(capacity_gb: f64) -> (Topology, Catalog) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, capacity_gb);
        // Two videos, each 2.5 GB / 90 min.
        let mk = |i| Video::new(VideoId(i), units::gb(2.5), units::minutes(90.0), units::mbps(6.0));
        (topo, Catalog::new(vec![mk(0), mk(1)]))
    }

    fn residency(video: u32, loc: u32, t_s: Secs, t_f: Secs) -> Residency {
        let mut r = Residency::begin(
            NodeId(loc),
            NodeId(0),
            Request { user: UserId(0), video: VideoId(video), start: t_s },
        );
        if t_f > t_s {
            r.extend(Request { user: UserId(1), video: VideoId(video), start: t_f });
        }
        r
    }

    fn schedule_with(residencies: Vec<Residency>) -> Schedule {
        let mut per: std::collections::BTreeMap<VideoId, VideoSchedule> = Default::default();
        for r in residencies {
            per.entry(r.video).or_insert_with(|| VideoSchedule::new(r.video)).residencies.push(r);
        }
        per.into_values().collect()
    }

    #[test]
    fn interval_basics() {
        let a = Interval::new(0.0, 10.0);
        assert_eq!(a.len(), 10.0);
        assert!(!a.is_empty());
        assert!(a.overlaps(&Interval::new(5.0, 15.0)));
        assert!(!a.overlaps(&Interval::new(10.0, 15.0))); // touching ≠ overlapping
        assert!(Interval::new(3.0, 3.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "reversed interval")]
    fn reversed_interval_panics() {
        Interval::new(5.0, 1.0);
    }

    #[test]
    fn single_fitting_residency_is_fine() {
        let (topo, catalog) = setup(5.0);
        // One long residency of a 2.5 GB file in a 5 GB store: no overflow.
        let s = schedule_with(vec![residency(0, 1, 0.0, 10_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn three_concurrent_copies_overflow_a_5gb_store() {
        let (topo, catalog) = setup(5.0);
        // Three videos? catalog has 2; reuse both videos plus another copy of
        // video 0 at a disjoint interval is same video — use capacity 4 GB
        // instead with two 2.5 GB copies.
        let mut topo = topo;
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 1);
        let of = &ofs[0];
        assert_eq!(of.loc, NodeId(1));
        // Concurrency starts when the second copy reaches full plateau…
        // both are long residencies so plateau = size from their t_s.
        assert!((of.window.start - 2_000.0).abs() < 1e-6, "start {}", of.window.start);
        // …and ends partway through the joint drain. On [10000, 12000] the
        // first copy drains while the second holds its plateau, reaching
        // 2.5·(1 − 2000/5400) + 2.5 ≈ 4.074 GB at t = 12000; from then on
        // both drain at 2.5/5400 GB/s each, crossing 4 GB 80 s later:
        // t = 12080.
        assert!((of.window.end - 12_080.0).abs() < 1.0, "end {}", of.window.end);
        assert!((of.peak_excess - units::gb(1.0)).abs() < 1e-3);
    }

    #[test]
    fn disjoint_residencies_do_not_overflow() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(3.0)).unwrap();
        // Second copy starts after the first has fully drained (t_f + P).
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 1_000.0), residency(1, 1, 7_000.0, 9_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn two_separate_overflow_windows_are_reported_separately() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s = schedule_with(vec![
            // Base long residency of video 0 spanning the whole day.
            residency(0, 1, 0.0, 80_000.0),
            // Video 1 visits twice, far apart — need two residencies of the
            // same video… the schedule model allows it (SORP may create
            // such). Overlap windows: [20000,25000] and [60000,65000].
            residency(1, 1, 20_000.0, 25_000.0),
            residency(1, 2, 0.0, 0.0), // degenerate elsewhere, no effect
        ]);
        // Add the second visit manually to the same video schedule.
        let mut s = s;
        let mut vs1 = s.video(VideoId(1)).unwrap().clone();
        vs1.residencies.push(residency(1, 1, 60_000.0, 65_000.0));
        s.upsert(vs1);

        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 2, "got {ofs:?}");
        assert!(ofs[0].window.end < ofs[1].window.start);
    }

    #[test]
    fn overflow_set_selects_overlapping_residencies_only() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        let set = overflow_set(&s, &catalog, &ofs[0]);
        assert_eq!(set.len(), 2);
        // Deterministic order by video id.
        assert_eq!(set[0].video, VideoId(0));
        assert_eq!(set[1].video, VideoId(1));
    }

    #[test]
    fn degenerate_residencies_never_appear_in_overflow_sets() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let mut s = s;
        let mut vs0 = s.video(VideoId(0)).unwrap().clone();
        vs0.residencies.push(residency(0, 1, 3_000.0, 3_000.0)); // zero space
        s.upsert(vs0);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        let ofs = detect_overflows(&topo, &ledger);
        assert_eq!(ofs.len(), 1);
        let set = overflow_set(&s, &catalog, &ofs[0]);
        assert_eq!(set.len(), 2, "degenerate residency must be excluded");
    }

    #[test]
    fn exact_fit_is_not_an_overflow() {
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(2.5)).unwrap();
        let s = schedule_with(vec![residency(0, 1, 0.0, 10_000.0)]);
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    #[test]
    fn empty_schedule_has_no_overflows() {
        let (topo, catalog) = setup(5.0);
        let s = Schedule::new();
        let ledger = StorageLedger::from_schedule(&topo, &catalog, &s);
        assert!(detect_overflows(&topo, &ledger).is_empty());
    }

    fn same_overflows(a: &[Overflow], b: &[Overflow]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.loc == y.loc
                    && x.window == y.window
                    && x.peak_excess.to_bits() == y.peak_excess.to_bits()
            })
    }

    #[test]
    fn monitor_matches_full_scan_and_rescans_only_dirty_nodes() {
        use vod_cost_model::SpaceProfile;
        let (mut topo, catalog) = setup(5.0);
        topo.set_uniform_capacity(units::gb(4.0)).unwrap();
        let s =
            schedule_with(vec![residency(0, 1, 0.0, 10_000.0), residency(1, 1, 2_000.0, 12_000.0)]);
        let mut ledger = StorageLedger::from_schedule(&topo, &catalog, &s);

        let mut mon = OverflowMonitor::new();
        let inc = mon.refresh(&topo, &ledger);
        assert!(same_overflows(&inc, &detect_overflows(&topo, &ledger)));
        assert!(mon.nodes_rescanned() > 0, "first refresh scans everything");

        // No mutation: nothing rescanned, same answer.
        let again = mon.refresh(&topo, &ledger);
        assert_eq!(mon.nodes_rescanned(), 0);
        assert!(same_overflows(&again, &inc));

        // Mutate one node: exactly that node is rescanned and the answer
        // tracks the full scan.
        ledger.remove(NodeId(1), vod_cost_model::VideoId(1));
        ledger.add(
            NodeId(2),
            vod_cost_model::VideoId(1),
            SpaceProfile::new(2_000.0, 12_000.0, units::gb(2.5), units::minutes(90.0)),
        );
        let after = mon.refresh(&topo, &ledger);
        assert_eq!(mon.nodes_rescanned(), 2, "both mutated nodes rescan");
        assert!(same_overflows(&after, &detect_overflows(&topo, &ledger)));
        assert!(after.iter().all(|of| of.loc != NodeId(1)), "node 1 resolved");
    }
}
