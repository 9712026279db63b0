//! Property tests: the incremental occupancy timeline must agree with the
//! naive reference ledger — same `usage_at`, `peak_with`, `fits`, sorted
//! breakpoints, and overflow detection — on random workloads, including
//! add/remove interleavings and the `exclude` path. Link load, kept in the
//! same timeline, must agree bit for bit with a per-query event sweep.

use proptest::prelude::*;
use vod_core::bandwidth::detect_link_overloads;
use vod_core::{
    baselines, detect_overflows, ivsp_solve, LedgerMode, LinkLedger, SchedCtx, StorageLedger,
};
use vod_cost_model::{Catalog, CostModel, Schedule, Secs, SpaceModel, SpaceProfile, VideoId};
use vod_topology::{builders, units, NodeId, Topology};
use vod_workload::{generate_catalog, generate_requests, CatalogConfig, RequestConfig};

/// One residency profile drawn from the strategy, plus where it lives.
#[derive(Clone, Debug)]
struct Item {
    video: u32,
    loc: u32,
    start: Secs,
    hold: Secs,
    size_gb: f64,
    playback: Secs,
    gradual: bool,
}

impl Item {
    fn profile(&self) -> SpaceProfile {
        let model =
            if self.gradual { SpaceModel::GradualFill } else { SpaceModel::InstantReservation };
        SpaceProfile::with_model(
            self.start,
            self.start + self.hold,
            units::gb(self.size_gb),
            self.playback,
            model,
        )
    }
}

/// A random workload over the two storages of the Fig. 2 topology:
/// residencies to add, a subset of videos to remove again (interleaved
/// mid-stream), and query/candidate parameters.
#[derive(Clone, Debug)]
struct Workload {
    items: Vec<Item>,
    /// After adding item `i`, remove video `remove_after[j].1` whenever
    /// `remove_after[j].0 == i` — an arbitrary add/remove interleaving.
    remove_after: Vec<(usize, u32)>,
    capacity_gb: f64,
    candidate: Item,
    exclude: Option<u32>,
    query_times: Vec<Secs>,
}

fn item_strategy() -> impl Strategy<Value = Item> {
    (
        0u32..12,
        1u32..3, // NodeId(1) or NodeId(2): the two intermediate storages
        0.0f64..50_000.0,
        0.0f64..20_000.0,
        0.0f64..4.0,
        prop_oneof![Just(900.0), Just(1800.0), Just(5400.0)],
        any::<bool>(),
    )
        .prop_map(|(video, loc, start, hold, size_gb, playback, gradual)| Item {
            video,
            loc,
            start,
            hold,
            size_gb,
            playback,
            gradual,
        })
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(item_strategy(), 1..24),
        proptest::collection::vec((0usize..24, 0u32..12), 0..6),
        prop_oneof![Just(2.0), Just(4.0), Just(6.0), Just(1000.0)],
        item_strategy(),
        (any::<bool>(), 0u32..12).prop_map(|(some, v)| some.then_some(v)),
        proptest::collection::vec(0.0f64..80_000.0, 1..8),
    )
        .prop_map(|(items, remove_after, capacity_gb, candidate, exclude, query_times)| {
            Workload { items, remove_after, capacity_gb, candidate, exclude, query_times }
        })
}

/// Build timeline- and reference-mode ledgers by replaying the same
/// add/remove interleaving into both.
fn build_ledgers(topo: &Topology, w: &Workload) -> (StorageLedger, StorageLedger) {
    let mut fast = StorageLedger::new(topo);
    let mut oracle = StorageLedger::new(topo);
    oracle.set_mode(LedgerMode::Reference);
    for (i, item) in w.items.iter().enumerate() {
        let p = item.profile();
        fast.add(NodeId(item.loc), VideoId(item.video), p);
        oracle.add(NodeId(item.loc), VideoId(item.video), p);
        for (after, vid) in &w.remove_after {
            if *after == i {
                fast.remove_video(VideoId(*vid));
                oracle.remove_video(VideoId(*vid));
            }
        }
    }
    (fast, oracle)
}

/// Agreement within 1e-9 *relative to the magnitude of the ingredients*:
/// timeline evaluation is a sum/difference of terms of size `scale`
/// (bytes resident at the node), so near-zero results carry absolute
/// cancellation residue on the order of `scale · ulp`, far below
/// `1e-9 · scale`.
fn rel_close(a: f64, b: f64, scale: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()).max(scale))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `usage_at` agrees between the timeline and the naive sum at random
    /// times, at every breakpoint, and under exclusion.
    #[test]
    fn usage_at_matches_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let (fast, oracle) = build_ledgers(&topo, &w);
        let exclude = w.exclude.map(VideoId);
        for loc in [NodeId(1), NodeId(2)] {
            let scale = fast.plateau_sum(loc);
            let mut times = w.query_times.clone();
            times.extend(fast.breakpoints(loc, None));
            for &t in &times {
                let a = fast.usage_at(loc, t, exclude);
                let b = oracle.usage_at(loc, t, exclude);
                prop_assert!(rel_close(a, b, scale), "usage_at({loc:?}, {t}) {a} vs {b}");
            }
        }
    }

    /// `peak_with` and `fits` agree between the timeline walk and the
    /// naive midpoint rescan for random candidates, with and without
    /// exclusion.
    #[test]
    fn peak_and_fits_match_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let (fast, oracle) = build_ledgers(&topo, &w);
        let cand = w.candidate.profile();
        let exclude = w.exclude.map(VideoId);
        for loc in [NodeId(1), NodeId(2)] {
            let scale = fast.plateau_sum(loc) + cand.peak();
            let a = fast.peak_with(loc, &cand, exclude);
            let b = oracle.peak_with(loc, &cand, exclude);
            prop_assert!(rel_close(a, b, scale), "peak_with({loc:?}) {a} vs {b}");
            prop_assert_eq!(
                fast.fits(&topo, loc, &cand, exclude),
                oracle.fits(&topo, loc, &cand, exclude),
                "fits({:?}) diverged at peak {}", loc, a
            );
        }
    }

    /// The timeline's breakpoint list is sorted, deduped, and set-equal
    /// to the reference's (which sorts/dedups per call).
    #[test]
    fn breakpoints_sorted_deduped_and_equal(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let (fast, oracle) = build_ledgers(&topo, &w);
        for loc in [NodeId(1), NodeId(2)] {
            for exclude in [None, w.exclude.map(VideoId)] {
                let a = fast.breakpoints(loc, exclude);
                let b = oracle.breakpoints(loc, exclude);
                prop_assert!(a.windows(2).all(|p| p[0] < p[1]), "unsorted/duped: {a:?}");
                prop_assert_eq!(a, b);
            }
        }
    }

    /// Overflow detection — windows and peak excess — agrees between the
    /// timeline segment walk and the naive midpoint scan.
    #[test]
    fn detect_overflows_matches_reference(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let (fast, oracle) = build_ledgers(&topo, &w);
        let a = detect_overflows(&topo, &fast);
        let b = detect_overflows(&topo, &oracle);
        prop_assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.loc, y.loc);
            let scale = fast.plateau_sum(x.loc);
            // Crossing *times* amplify byte-level residue by the inverse
            // segment slope, so compare them at a correspondingly looser
            // (but still tight in absolute seconds) tolerance.
            let tclose = |p: Secs, q: Secs| (p - q).abs() <= 1e-6 * (1.0 + p.abs().max(q.abs()));
            prop_assert!(tclose(x.window.start, y.window.start), "{x:?} vs {y:?}");
            prop_assert!(tclose(x.window.end, y.window.end), "{x:?} vs {y:?}");
            prop_assert!(rel_close(x.peak_excess, y.peak_excess, scale), "{x:?} vs {y:?}");
        }
    }

    /// Removing everything returns the ledger to an exactly-empty state:
    /// no float residue in the timeline aggregates.
    #[test]
    fn full_removal_leaves_exact_zero(w in workload_strategy()) {
        let topo = builders::paper_fig2(16.0, 8.0, 1.0, w.capacity_gb);
        let (mut fast, _) = build_ledgers(&topo, &w);
        for v in 0..12 {
            fast.remove_video(VideoId(v));
        }
        for loc in [NodeId(1), NodeId(2)] {
            prop_assert_eq!(fast.profile_count(loc), 0);
            prop_assert_eq!(fast.plateau_sum(loc), 0.0);
            prop_assert!(fast.breakpoints(loc, None).is_empty());
            for &t in &w.query_times {
                prop_assert_eq!(fast.usage_at(loc, t, None), 0.0);
            }
        }
    }
}

/// Every transfer's `(edge, start, end, bytes/s)` link occupation, in
/// schedule order.
fn link_streams(
    topo: &Topology,
    catalog: &Catalog,
    schedule: &Schedule,
) -> Vec<(usize, Secs, Secs, f64)> {
    let mut out = Vec::new();
    for t in schedule.transfers() {
        let video = catalog.get(t.video);
        for hop in t.route.windows(2) {
            let (_, edge) = *topo.neighbors(hop[0]).iter().find(|(n, _)| *n == hop[1]).unwrap();
            out.push((edge, t.start, t.start + video.playback, video.bandwidth));
        }
    }
    out
}

/// Reference peak load on `edge` over `[t0, t1)`: clip the overlapping
/// streams to the window, sort their endpoint events and sweep.
fn sweep_peak(streams: &[(usize, Secs, Secs, f64)], edge: usize, t0: Secs, t1: Secs) -> f64 {
    let mut events: Vec<(Secs, f64)> = Vec::new();
    for &(e, s, end, bw) in streams {
        if e == edge && s < t1 && end > t0 {
            events.push((s.max(t0), bw));
            events.push((end.min(t1), -bw));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut load = 0.0;
    let mut peak = 0.0f64;
    for (_, d) in events {
        load += d;
        peak = peak.max(load);
    }
    peak
}

/// Reference overload windows `(edge, start, end, peak excess)`: merge
/// each capped link's sorted events into steps and scan the steps.
fn step_overloads(
    topo: &Topology,
    streams: &[(usize, Secs, Secs, f64)],
) -> Vec<(usize, Secs, Secs, f64)> {
    let mut out = Vec::new();
    for (edge, link) in topo.edges().iter().enumerate() {
        let Some(capacity) = link.bandwidth else { continue };
        let mut events: Vec<(Secs, f64)> = Vec::new();
        for &(e, s, end, bw) in streams {
            if e == edge {
                events.push((s, bw));
                events.push((end, -bw));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut steps: Vec<(Secs, f64)> = Vec::new();
        let mut load = 0.0;
        for (t, d) in events {
            load += d;
            match steps.last_mut() {
                Some((lt, l)) if *lt == t => *l = load,
                _ => steps.push((t, load)),
            }
        }
        let mut open: Option<(Secs, f64)> = None;
        for &(t, l) in &steps {
            let over = l > capacity * (1.0 + 1e-9);
            match (&mut open, over) {
                (None, true) => open = Some((t, l - capacity)),
                (Some((_, peak)), true) => *peak = peak.max(l - capacity),
                (Some(_), false) => {
                    let (s, peak) = open.take().unwrap();
                    out.push((edge, s, t, peak));
                }
                (None, false) => {}
            }
        }
        if let Some((s, peak)) = open {
            out.push((edge, s, steps.last().unwrap().0.max(s), peak));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// On random worlds and schedules (IVSP or network-only, 0.5–6
    /// streams per link), link-overload detection through the per-link
    /// timelines and the shared overflow scan, and `LinkLedger::peak_over`
    /// at random and breakpoint-aligned windows, equal the sort-and-sweep
    /// references bit for bit.
    #[test]
    fn link_load_matches_event_sweep(
        seed in 0u64..1_000_000,
        streams_per_link in 0.5f64..6.0,
        network_only in any::<bool>(),
        windows in proptest::collection::vec((0.0f64..90_000.0, 1.0f64..12_000.0), 1..8),
    ) {
        let cfg = builders::GenConfig { storages: 6, users_per_neighborhood: 8, ..Default::default() };
        let mut topo = builders::random_connected(&cfg, 3, seed);
        topo.set_uniform_bandwidth(Some(units::mbps(5.0) * streams_per_link)).unwrap();
        let catalog = generate_catalog(&CatalogConfig::small(12), seed ^ 0xF00D);
        let request_cfg = RequestConfig { requests_per_user: 3, ..RequestConfig::with_alpha(0.3) };
        let requests = generate_requests(&topo, &catalog, &request_cfg, seed);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &catalog);
        let schedule = if network_only {
            baselines::network_only(&ctx, &requests)
        } else {
            ivsp_solve(&ctx, &requests)
        };
        let streams = link_streams(&topo, &catalog, &schedule);

        let found = detect_link_overloads(&topo, &catalog, &schedule);
        let want = step_overloads(&topo, &streams);
        prop_assert_eq!(found.len(), want.len(), "{:?} vs {:?}", found, want);
        for (o, &(edge, s, e, peak)) in found.iter().zip(&want) {
            prop_assert_eq!(o.edge, edge);
            prop_assert_eq!(o.endpoints, (topo.edges()[edge].a, topo.edges()[edge].b));
            prop_assert_eq!(o.window.start.to_bits(), s.to_bits(), "{:?} vs {}", o, s);
            prop_assert_eq!(o.window.end.to_bits(), e.to_bits(), "{:?} vs {}", o, e);
            prop_assert_eq!(o.peak_excess.to_bits(), peak.to_bits(), "{:?} vs {}", o, peak);
        }

        let ledger = LinkLedger::from_schedule(&topo, &catalog, &schedule);
        // Windows at random times, and windows starting or ending exactly
        // on stream endpoints (the half-open boundary cases).
        let mut queries: Vec<(Secs, Secs)> = windows.iter().map(|&(t0, d)| (t0, t0 + d)).collect();
        for &(_, s, e, _) in streams.iter().step_by(7) {
            queries.extend([(s, e), (e, e + 3_000.0), (s - 3_000.0, s)]);
        }
        for edge in 0..topo.edge_count() {
            for &(t0, t1) in &queries {
                let a = ledger.peak_over(edge, t0, t1);
                let b = sweep_peak(&streams, edge, t0, t1);
                prop_assert_eq!(a.to_bits(), b.to_bits(), "edge {} [{}, {}): {} vs {}", edge, t0, t1, a, b);
            }
        }
    }
}
