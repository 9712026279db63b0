//! Service-loop benchmark. Builds a world from `--seed`, offers every
//! arrival through `ServiceLoop::offer`, runs `ServiceLoop::run_cycle`
//! once per cycle, and checks every output with the independent
//! simulator. See `README.md` in this directory for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! ```text
//! vod-perfbench --workload steady|overload|faults --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats whole passes (set-up plus all cycles) of one seed while
//! another pass still fits in `--seconds` of measuring, and prints the metrics of
//! `--trace 0` (end to end, recorder off) or `--trace 1` (per layer,
//! from a recorder-traced pass) as one JSON object on its last line.

mod checks;
mod serve;
mod trace;
mod world;

use serve::{serve, Fingerprint, Pass};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use vod_core::{ivsp_solve_priced, ExecMode, Rung};
use vod_cost_model::RequestBatch;
use vod_obs::Recorder;
use world::{build_world, open, SetupNs, Workload, World, CYCLES};

/// Extra set-ups per run before measuring, so `setup_s` is a median of
/// several samples even when only a few passes fit in the run.
const SETUP_REPS: usize = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    world::workload(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The median of each cycle's samples across passes (`passes[p][k]`).
fn per_cycle_median(passes: &[Vec<u64>]) -> Vec<f64> {
    (0..CYCLES).map(|k| median(passes.iter().map(|p| p[k] as f64).collect())).collect()
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Everything a run learns about correctness.
struct Verdict {
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Verdict {
    fn new() -> Self {
        Self { failures: Vec::new(), attempted: 0, failed: 0 }
    }

    /// Count a pass's cycles, and fail those that differ from `first`.
    fn same_as(&mut self, label: &str, first: &Fingerprint, pass: &Pass) {
        let fp = pass.fingerprint();
        self.attempted += fp.cycles.len();
        if fp != *first {
            let differing = fp.cycles.iter().zip(&first.cycles).filter(|(a, b)| a != b).count();
            self.failed += differing.max(1);
            self.failures.push(format!("{label}: outcome differs from the first pass"));
        }
    }
}

/// One fully checked pass: the untraced reference every other pass of
/// the run must reproduce bit for bit.
struct Reference {
    world: World,
    pass: Pass,
    fingerprint: Fingerprint,
    checked: checks::Checked,
}

fn untraced_pass(w: &Workload, seed: u64, mode: ExecMode) -> (World, Pass, SetupNs) {
    let (world, mut ns) = build_world(w, seed);
    let (ctx, svc) = open(&world, w, &mut ns);
    let pass = serve(&ctx, svc, &world.arrivals, mode, false);
    drop(ctx);
    (world, pass, ns)
}

fn reference(w: &Workload, seed: u64, verdict: &mut Verdict) -> (Reference, SetupNs) {
    let (world, pass, ns) = untraced_pass(w, seed, ExecMode::default());
    let checked = checks::check(&world, &pass);
    verdict.attempted += pass.outcomes.len();
    verdict.failed += checked.failed_cycles(pass.outcomes.len());
    verdict.failures.extend(checked.failures.iter().cloned());
    let fingerprint = pass.fingerprint();
    (Reference { world, pass, fingerprint, checked }, ns)
}

fn extra_setups(w: &Workload, seed: u64) -> Vec<SetupNs> {
    (0..SETUP_REPS)
        .map(|_| {
            let (world, mut ns) = build_world(w, seed);
            let _ = open(&world, w, &mut ns);
            ns
        })
        .collect()
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

/// The run's outcome figures, the same for every pass of a seed.
struct Outcome {
    offered: usize,
    served: usize,
    on_time: usize,
    psi: f64,
}

fn outcome(pass: &Pass) -> Outcome {
    let r = &pass.report;
    Outcome {
        offered: r.offered,
        served: r.served,
        on_time: r.served - r.deadline_misses,
        psi: pass.outcomes.iter().map(|o| o.cost).sum(),
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `--trace 0`: untraced passes for the end-to-end metrics.
fn run_end_to_end(args: &Args) -> Result<(Vec<Metric>, Verdict, Vec<String>), String> {
    let w = &args.workload;
    let mut verdict = Verdict::new();
    let mut setups = extra_setups(w, args.seed);
    let budget = Duration::from_secs(args.seconds).as_nanos() as u64;

    let (reference, ns) = reference(w, args.seed, &mut verdict);
    // Measured time is set-up plus serve loop; checks do not count. A
    // pass starts only if one more like the reference still fits.
    let pass_ns = ns.total() + reference.pass.serve_total();
    let mut measured = pass_ns;
    setups.push(ns);
    let mut serve_ns = vec![reference.pass.serve_ns.clone()];
    let mut cycle_ns = vec![reference.pass.cycle_ns.clone()];
    eprintln!("pass 1: serve {:.1} ms", reference.pass.serve_total() as f64 / 1e6);
    while measured + pass_ns <= budget {
        let (_, pass, ns) = untraced_pass(w, args.seed, ExecMode::default());
        measured += ns.total() + pass.serve_total();
        setups.push(ns);
        verdict.same_as(&format!("pass {}", serve_ns.len() + 1), &reference.fingerprint, &pass);
        eprintln!("pass {}: serve {:.1} ms", serve_ns.len() + 1, pass.serve_total() as f64 / 1e6);
        serve_ns.push(pass.serve_ns);
        cycle_ns.push(pass.cycle_ns);
    }
    let passes = serve_ns.len();
    // Each cycle's median over the passes filters noise bursts that hit
    // different cycles in different passes.
    let serve_s: f64 = per_cycle_median(&serve_ns).iter().sum::<f64>() / 1e9;
    let cycle_ms: Vec<f64> = per_cycle_median(&cycle_ns).iter().map(|n| n / 1e6).collect();

    let o = outcome(&reference.pass);
    let setup_samples = setups.len();
    let metrics = vec![
        Metric {
            note: format!(
                "{} solved a pass over {serve_s:.3} s: each cycle's median of {passes} passes",
                reference.pass.solved()
            ),
            ..metric("sched_rps", reference.pass.solved() as f64 / serve_s, "req/s")
        },
        Metric {
            note: format!("median over {CYCLES} cycles of each cycle's median of {passes} passes"),
            ..metric("cycle_ms_p50", median(cycle_ms), "ms")
        },
        Metric {
            note: format!("median of {setup_samples} set-ups"),
            ..metric(
                "setup_s",
                median(setups.iter().map(|s| s.total() as f64 / 1e9).collect()),
                "s",
            )
        },
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        Metric {
            note: format!("Psi {:.2} over {} served", o.psi, o.served),
            ..metric("psi_per_served", o.psi / o.served as f64, "USD/req")
        },
        Metric {
            note: format!("{} of {} offered", o.on_time, o.offered),
            ..metric("on_time_frac", o.on_time as f64 / o.offered as f64, "frac")
        },
        Metric {
            note: format!("{} of {} offered", o.served, o.offered),
            ..metric("served_frac", o.served as f64 / o.offered as f64, "frac")
        },
    ];
    let notes = reference_notes(&reference, passes);
    Ok((metrics, verdict, notes))
}

/// Lines describing the reference pass: reservation outcomes, the gates
/// and the cross-cycle capacity replay (which is measured, not gated).
fn reference_notes(r: &Reference, passes: usize) -> Vec<String> {
    let rep = &r.pass.report;
    let o = outcome(&r.pass);
    let mut notes = vec![
        format!(
            "reservations: attempted {} failed {} (rejected at intake {}, dropped {}, \
             in flight at end {}, served late {})",
            o.offered,
            o.offered - o.on_time,
            rep.rejected_full + rep.rejected_saturated,
            rep.dropped,
            rep.in_flight,
            rep.deadline_misses,
        ),
        format!(
            "rungs: {}",
            rep.cycles.iter().map(|c| c.rung.label()).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "gates: conservation error {}, accounting complaints {}, clean cycle replays {}/{}, \
             {passes} passes compared bit for bit; outcome fingerprint {:016x}",
            rep.conservation_error(),
            vod_simulator::check_service_accounting(rep).len(),
            r.pass.outcomes.len() - r.checked.unclean_replays,
            r.pass.outcomes.len(),
            fnv(&r.fingerprint),
        ),
    ];
    let mut cap = format!(
        "capacity_violations {} count (cross-cycle replay of all committed schedules merged)",
        r.checked.capacity.len()
    );
    for (node, t, usage, capacity) in &r.checked.capacity {
        let _ = write!(cap, "; {node} at {usage:.2} GB of {capacity:.2} GB, t = {t:.0} s");
    }
    notes.push(cap);
    notes
}

/// FNV-1a over the fingerprint, so runs of one seed in separate
/// processes can be compared by a single printed number.
fn fnv(fp: &Fingerprint) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &(psi, served, rung, victims) in &fp.cycles {
        eat(psi);
        eat(served as u64);
        eat(rung as u64);
        eat(victims as u64);
    }
    eat(fp.dropped as u64);
    eat(fp.in_flight as u64);
    h
}

/// `--trace 1`: untraced and recorder-traced passes alternate; the
/// per-layer metrics come from the traced ones.
fn run_per_layer(args: &Args) -> Result<(Vec<Metric>, Verdict, Vec<String>), String> {
    let w = &args.workload;
    let mut verdict = Verdict::new();
    let mut setups = extra_setups(w, args.seed);
    let budget = Duration::from_secs(args.seconds).as_nanos() as u64;

    let (reference, ns) = reference(w, args.seed, &mut verdict);
    let pass_ns = ns.total() + reference.pass.serve_total();
    let mut measured = pass_ns;
    setups.push(ns);
    let mut untraced_ns = vec![reference.pass.cycle_ns.iter().sum::<u64>() as f64];
    let mut traced_ns = Vec::new();
    let mut layers = Vec::new();
    let mut counts = None;
    let mut offer_ns = Vec::new();
    let mut passes = 1;
    // Each round after the first runs an untraced and a traced pass.
    while traced_ns.is_empty() || measured + 2 * pass_ns <= budget {
        if !traced_ns.is_empty() {
            let (_, pass, ns) = untraced_pass(w, args.seed, ExecMode::default());
            measured += ns.total() + pass.serve_total();
            setups.push(ns);
            passes += 1;
            verdict.same_as(&format!("pass {passes}"), &reference.fingerprint, &pass);
            untraced_ns.push(pass.cycle_ns.iter().sum::<u64>() as f64);
        }

        let (world, mut ns) = build_world(w, args.seed);
        let (ctx, svc) = open(&world, w, &mut ns);
        setups.push(ns);
        let rec = Recorder::enabled_with_wall_clock();
        let ctx = ctx.with_recorder(rec.clone());
        let pass = serve(&ctx, svc, &world.arrivals, ExecMode::default(), true);
        drop(ctx);
        measured += ns.total() + pass.serve_total();
        passes += 1;
        verdict.same_as(&format!("traced pass {passes}"), &reference.fingerprint, &pass);
        let recording = rec.recording().ok_or("an enabled recorder returned no recording")?;
        let (l, c) = trace::split(&recording, &pass)?;
        layers.push(l);
        counts = Some(c);
        traced_ns.push(pass.cycle_ns.iter().sum::<u64>() as f64);
        offer_ns.extend_from_slice(&pass.offer_ns);
    }
    let counts = counts.expect("at least one traced pass ran");

    // Sequential arm: thread gains apart from algorithmic ones.
    let (_, seq, _) = untraced_pass(w, args.seed, ExecMode::Sequential);
    verdict.same_as("sequential pass", &reference.fingerprint, &seq);
    let solve_seq_ns: u64 = seq.outcomes.iter().map(|o| o.warm.solve_ns).sum();

    // Phase-1 proxy: the greedy alone on each cycle's served requests.
    let ctx = vod_core::SchedCtx::new(
        &reference.world.topo,
        &reference.world.model,
        &reference.world.catalog,
    );
    let mut ivsp_ns = 0u64;
    for out in &reference.pass.outcomes {
        if out.served.is_empty() {
            continue;
        }
        let batch = RequestBatch::new(out.served.clone());
        let started = Instant::now();
        std::hint::black_box(ivsp_solve_priced(&ctx, &batch));
        ivsp_ns += started.elapsed().as_nanos() as u64;
    }
    drop(ctx);

    offer_ns.sort_unstable();
    let med = |f: fn(&trace::LayerNs) -> u64| median(layers.iter().map(|l| f(l) as f64).collect());
    let rep = &reference.pass.report;
    let rungs = |r: Rung| rep.cycles.iter().filter(|c| c.rung == r).count() as f64;
    let setup_med = |f: fn(&SetupNs) -> u64| median(setups.iter().map(|s| f(s) as f64).collect());
    let solve_ns = med(|l| l.solve);
    let c = counts;
    let trials = (c.trials_run + c.trials_cached) as f64;
    let ns = "ns";
    let count = "count";
    let metrics = vec![
        metric("service.release_ns", med(|l| l.release), ns),
        metric("service.shed_ns", med(|l| l.shed), ns),
        metric("service.commit_ns", med(|l| l.commit), ns),
        metric("service.cycle_ns", med(|l| l.cycle), ns),
        metric("service.rung_full", rungs(Rung::Full), count),
        metric("service.rung_reduced", rungs(Rung::ReducedTrials), count),
        metric("service.rung_greedy", rungs(Rung::GreedyOnly), count),
        metric("service.rung_shed", rungs(Rung::Shed), count),
        metric("service.deferred", rep.deferred_events as f64, count),
        metric("service.dropped", rep.dropped as f64, count),
        metric("service.queue_high_water", rep.queue_high_water as f64, count),
        metric("intake.offer_ns_p50", percentile(&offer_ns, 50.0), ns),
        metric("intake.offer_ns_p99", percentile(&offer_ns, 99.0), ns),
        metric("intake.offers", rep.offered as f64, count),
        metric("intake.rejected", (rep.rejected_full + rep.rejected_saturated) as f64, count),
        metric("shard.solve_ns", solve_ns, ns),
        metric("shard.solve_seq_ns", solve_seq_ns as f64, ns),
        metric("shard.cross_shard_overflows", c.cross_shard_overflows as f64, count),
        metric("shard.reconcile_iterations", c.reconcile_iterations as f64, count),
        metric("shard.split_videos", c.split_videos as f64, count),
        metric(
            "sorp.ns_per_iteration",
            if c.iterations == 0 { 0.0 } else { solve_ns / c.iterations as f64 },
            ns,
        ),
        metric("sorp.iterations", c.iterations as f64, count),
        metric("sorp.victims", c.victims as f64, count),
        metric("sorp.trials_run", c.trials_run as f64, count),
        metric("sorp.trials_cached", c.trials_cached as f64, count),
        metric(
            "sorp.cache_hit_ratio",
            if trials == 0.0 { 0.0 } else { c.trials_cached as f64 / trials },
            "ratio",
        ),
        metric("sorp.nodes_rescanned", c.nodes_rescanned as f64, count),
        metric("sorp.forced_fallbacks", c.forced_fallbacks as f64, count),
        metric("sorp.unresolved_cycles", c.unresolved_cycles as f64, count),
        metric("warm.trials_carried", c.trials_carried as f64, count),
        metric("warm.trials_revalidated", c.trials_revalidated as f64, count),
        metric("warm.trials_evicted", c.trials_evicted as f64, count),
        metric("warm.committed_active", c.committed_active_max as f64, count),
        metric("ivsp.batch_ns", ivsp_ns as f64, ns),
        metric("repair.ns", med(|l| l.repair), ns),
        metric("repair.repaired_videos", c.repaired_videos as f64, count),
        metric("repair.shed", c.repair_shed as f64, count),
        metric("repair.delayed", c.repair_delayed as f64, count),
        metric("setup.topology_ns", setup_med(|s| s.topology), ns),
        metric("setup.routes_ns", setup_med(|s| s.routes), ns),
        metric("setup.arrivals_ns", setup_med(|s| s.arrivals), ns),
        metric("setup.faults_ns", setup_med(|s| s.faults), ns),
        metric(
            "trace.unattributed_frac",
            median(layers.iter().map(|l| l.unattributed() as f64 / l.cycle as f64).collect()),
            "frac",
        ),
        metric("trace.overhead_ratio", median(traced_ns) / median(untraced_ns), "ratio"),
        metric("capacity_violations", reference.checked.capacity.len() as f64, count),
    ];
    let mut notes = reference_notes(&reference, passes);
    let shed_release = med(|l| l.shed) + med(|l| l.release);
    let cycle = med(|l| l.cycle);
    notes.push(format!(
        "split of {} traced passes: solve {:.1}% of cycle wall, shed+release {:.1}%, \
         repair {:.1}%, commit {:.1}%; shed+release {} solve",
        layers.len(),
        100.0 * solve_ns / cycle,
        100.0 * shed_release / cycle,
        100.0 * med(|l| l.repair) / cycle,
        100.0 * med(|l| l.commit) / cycle,
        if shed_release > solve_ns { "exceeds" } else { "does not exceed" },
    ));
    Ok((metrics, verdict, notes))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: vod-perfbench --workload {} --seed N --seconds S --trace 0|1",
                world::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let result = if args.trace { run_per_layer(&args) } else { run_end_to_end(&args) };
    let (metrics, verdict, notes) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not finite", m.name);
        std::process::exit(1);
    }

    println!(
        "workload {} seed {} ({} cycles a pass, trace {})",
        args.workload.name,
        args.seed,
        CYCLES,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("  {:<28} {:>18.6} {:<8} {}", m.name, m.value, m.unit, m.note);
    }
    for n in &notes {
        println!("{n}");
    }
    for f in &verdict.failures {
        println!("GATE FAILED: {f}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.failures.is_empty(),
        verdict.attempted,
        verdict.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
