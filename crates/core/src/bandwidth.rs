//! Link bandwidth accounting — the paper's stated future-work extension
//! (§6: "we plan to extend our approach to resolve the bandwidth
//! constraints of the intermediate storages and communication network").
//!
//! Each transfer streams at its video's reserved bandwidth `B` for the
//! playback duration `P` over every link of its route, so per-link load is
//! piecewise constant with breakpoints at stream starts and ends. This
//! module detects intervals where a link's declared capacity is exceeded:
//! the load lives in a [`LinkLedger`] (one occupancy timeline per link)
//! and is checked by the same overflow scan as storage occupancy.

use crate::overflow::OverflowScan;
use crate::{Interval, LinkLedger};
use vod_cost_model::{Catalog, Schedule};
use vod_topology::{NodeId, Topology};

/// An interval during which a link carries more than its capacity.
#[derive(Clone, Debug)]
pub struct LinkOverload {
    /// Index into [`Topology::edges`].
    pub edge: usize,
    /// The endpoints of the overloaded link.
    pub endpoints: (NodeId, NodeId),
    /// Maximal interval of overload.
    pub window: Interval,
    /// Peak excess bandwidth demanded, bytes/s.
    pub peak_excess: f64,
}

/// Detect every link overload in a schedule, sorted by edge then start
/// time; each window is a maximal over-capacity interval. Links without a
/// declared bandwidth are never overloaded.
pub fn detect_link_overloads(
    topo: &Topology,
    catalog: &Catalog,
    schedule: &Schedule,
) -> Vec<LinkOverload> {
    let ledger = LinkLedger::from_schedule(topo, catalog, schedule);
    let mut out = Vec::new();
    for (edge, link) in topo.edges().iter().enumerate() {
        let Some(capacity) = link.bandwidth else { continue };
        let mut scan = OverflowScan::new(capacity);
        ledger.edges[edge].for_each_segment(|t0, t1, u0, u1| scan.segment(t0, t1, u0, u1));
        out.extend(scan.finish().into_iter().map(|(window, peak_excess)| LinkOverload {
            edge,
            endpoints: (link.a, link.b),
            window,
            peak_excess,
        }));
    }
    out
}

/// Total bytes shipped over every link by a schedule — a useful scalar for
/// comparing network pressure between policies.
pub fn total_network_bytes(catalog: &Catalog, schedule: &Schedule) -> f64 {
    schedule
        .transfers()
        .map(|t| catalog.get(t.video).amortized_bytes() * t.hop_count() as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baselines, ivsp_solve, SchedCtx};
    use vod_cost_model::CostModel;
    use vod_topology::{builders, units};
    use vod_workload::{CatalogConfig, RequestConfig, Workload};

    #[test]
    fn unlimited_links_never_overload() {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = ivsp_solve(&ctx, &wl.requests);
        assert!(detect_link_overloads(&topo, &wl.catalog, &s).is_empty());
    }

    #[test]
    fn tight_links_overload_under_network_only() {
        let mut topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        // One stream's worth of bandwidth per link: concurrent streams on a
        // shared link must trip detection.
        topo.set_uniform_bandwidth(Some(units::mbps(5.0))).unwrap();
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 1);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let s = baselines::network_only(&ctx, &wl.requests);
        let overloads = detect_link_overloads(&topo, &wl.catalog, &s);
        assert!(
            !overloads.is_empty(),
            "190 daily streams through a 1-stream backbone must collide"
        );
        for o in &overloads {
            assert!(o.peak_excess > 0.0);
            assert!(o.window.len() > 0.0);
        }
    }

    #[test]
    fn caching_reduces_total_network_bytes() {
        let topo = builders::paper_fig4(&builders::PaperFig4Config::default());
        let wl = Workload::generate(&topo, &CatalogConfig::small(40), &RequestConfig::paper(), 2);
        let model = CostModel::per_hop();
        let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
        let greedy = ivsp_solve(&ctx, &wl.requests);
        let direct = baselines::network_only(&ctx, &wl.requests);
        assert!(
            total_network_bytes(&wl.catalog, &greedy) <= total_network_bytes(&wl.catalog, &direct)
        );
    }
}
