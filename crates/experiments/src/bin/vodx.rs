//! `vodx` — run the paper's experiments from the command line.
//!
//! ```text
//! vodx <fig5|fig6|fig7|fig8|fig9|table5|gap|bandwidth|cycles|service|inspect|all>
//!      [--fast] [--out DIR] [--rpu N] [--burst N] [--budget-ns B] [--record F]
//! vodx trace FILE
//! ```
//!
//! Prints each experiment as an aligned text table (the rows the paper
//! plots) and, with `--out`, also writes CSV/text outputs for replotting.

use std::path::PathBuf;
use std::process::ExitCode;
use vod_core::{ivsp_solve_priced, sorp_solve_priced, ExecMode, SchedCtx, SorpConfig};
use vod_cost_model::CostModel;
use vod_experiments::{ext, figures, render_csv, render_table, service, table5, EnvParams, Preset};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut preset = Preset::Paper;
    let mut out_dir: Option<PathBuf> = None;
    let mut rpu: Option<usize> = None;
    let mut burst: Option<usize> = None;
    let mut budget_ns: Option<f64> = None;
    let mut record: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fast" => preset = Preset::Fast,
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "--rpu" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => rpu = Some(n),
                None => {
                    eprintln!("--rpu needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--burst" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => burst = Some(n),
                None => {
                    eprintln!("--burst needs an integer argument");
                    return ExitCode::FAILURE;
                }
            },
            "--budget-ns" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => budget_ns = Some(n),
                None => {
                    eprintln!("--budget-ns needs a number argument");
                    return ExitCode::FAILURE;
                }
            },
            "--record" => match it.next() {
                Some(path) => record = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--record needs a file argument");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            target => targets.push(target.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("no experiment given\n{}", usage());
        return ExitCode::FAILURE;
    }
    // `trace FILE` — dump and summarize a flight recording, no solving.
    if targets[0] == "trace" {
        let Some(path) = targets.get(1) else {
            eprintln!("trace needs a recording file argument\n{}", usage());
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match vod_obs::Recording::from_jsonl(&text) {
            Ok(rec) => {
                println!("# Flight recording {path}");
                print!("{}", rec.summarize());
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{path} is not a valid recording: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table5",
            "gap",
            "bandwidth",
            "cycles",
            "service",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for target in &targets {
        let started = std::time::Instant::now();
        match target.as_str() {
            "inspect" => {
                let params = EnvParams::for_preset(preset);
                let (topo, wl) = params.build();
                let model = CostModel::per_hop();
                let ctx = SchedCtx::new(&topo, &model, &wl.catalog);
                let outcome = sorp_solve_priced(
                    &ctx,
                    ivsp_solve_priced(&ctx, &wl.requests),
                    &SorpConfig::default(),
                    &[],
                    ExecMode::default(),
                );
                let analysis = vod_simulator::analysis::ScheduleAnalysis::of(
                    &topo,
                    &wl.catalog,
                    &model,
                    &outcome.schedule,
                );
                println!("# Baseline-cell schedule inspection");
                println!("{}", analysis.render(&topo, 5));
                let busiest = analysis
                    .storages
                    .iter()
                    .max_by(|a, b| a.peak_utilization.total_cmp(&b.peak_utilization))
                    .expect("storages exist")
                    .loc;
                println!(
                    "{}",
                    vod_simulator::render::occupancy_timeline(
                        &topo,
                        &wl.catalog,
                        &outcome.schedule,
                        busiest,
                        16,
                        40
                    )
                );
                if let Some(dir) = &out_dir {
                    let path = dir.join("topology.dot");
                    if let Err(e) = std::fs::write(&path, vod_topology::dot::to_dot(&topo)) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "cycles" => {
                let params = EnvParams::for_preset(preset);
                let n = if preset == Preset::Fast { 3 } else { 7 };
                let recorder = match &record {
                    Some(_) => vod_obs::Recorder::enabled(),
                    None => vod_obs::Recorder::disabled(),
                };
                let sp = service::ServiceParams::default();
                let (r, _, _) = match service::service_horizon(&params, n, &sp, &recorder) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("cycles: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!("{}", r.render());
                if let Some(path) = &record {
                    if let Err(e) = write_recording(path, &recorder) {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                if let Some(dir) = &out_dir {
                    let path = dir.join("cycles.txt");
                    if let Err(e) = std::fs::write(&path, r.render()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "service" => {
                let params = EnvParams::for_preset(preset);
                let n = if preset == Preset::Fast { 4 } else { 8 };
                let sp = service::ServiceParams {
                    queue_bound: Some(4 * params.users_per_neighborhood * 19),
                    budget_ns: budget_ns.or(Some(500.0 * 9_700.0)),
                    burst: vec![(1, burst.unwrap_or(4))],
                    ..service::ServiceParams::default()
                };
                let recorder = match &record {
                    Some(_) => vod_obs::Recorder::enabled(),
                    None => vod_obs::Recorder::disabled(),
                };
                let (r, report, _) = match service::service_horizon(&params, n, &sp, &recorder) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("service: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!("{}", r.render());
                println!("{}", report.render());
                if let Some(path) = &record {
                    if let Err(e) = write_recording(path, &recorder) {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                if let Some(dir) = &out_dir {
                    let path = dir.join("service.txt");
                    let body = format!("{}\n{}", r.render(), report.render());
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "gap" => {
                let r = ext::gap(preset);
                println!("{}", r.render());
                if let Some(dir) = &out_dir {
                    let path = dir.join("gap.txt");
                    if let Err(e) = std::fs::write(&path, r.render()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "bandwidth" => {
                let r = ext::bandwidth(preset);
                println!("{}", r.render());
                if let Some(dir) = &out_dir {
                    let path = dir.join("bandwidth.txt");
                    if let Err(e) = std::fs::write(&path, r.render()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "table5" => {
                let r = table5::run_with(preset, rpu);
                println!("{}", r.render());
                if let Some(dir) = &out_dir {
                    let path = dir.join("table5.txt");
                    if let Err(e) = std::fs::write(&path, r.render()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                }
            }
            fig => match figures::by_id(fig, preset) {
                Some(result) => {
                    println!("{}", render_table(&result));
                    if let Some(dir) = &out_dir {
                        let path = dir.join(format!("{fig}.csv"));
                        if let Err(e) = std::fs::write(&path, render_csv(&result)) {
                            eprintln!("cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => {
                    eprintln!("unknown experiment {fig}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
        }
        eprintln!("[{target} done in {:.1}s]", started.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

fn write_recording(path: &PathBuf, recorder: &vod_obs::Recorder) -> Result<(), String> {
    let rec = recorder.recording().expect("recorder was enabled for --record");
    std::fs::write(path, rec.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("[flight recording: {} events -> {}]", rec.events.len(), path.display());
    Ok(())
}

fn usage() -> &'static str {
    "usage: vodx <fig5|fig6|fig7|fig8|fig9|table5|gap|bandwidth|cycles|service|inspect|all> [--fast] [--out DIR]\n\
     \x20      vodx trace FILE\n\
     \n\
     Reproduces the evaluation of Won & Srivastava (HPDC 1997).\n\
     cycles   consecutive cycles through the service loop, oracle config\n\
     \x20        (unbounded intake, no budget, no faults)\n\
     service  the same loop with a bounded queue, a budget and a burst cycle\n\
     --fast   use reduced grids/workload (smoke run)\n\
     --out D  additionally write CSV/text outputs into directory D\n\
     --rpu N  reservations per user per cycle for table5 (default 2)\n\
     --burst N     service: arrival multiplier for the burst cycle (default 4)\n\
     --budget-ns B service: per-cycle deadline budget in simulated ns\n\
     --record F    cycles/service: write a JSONL flight recording to F\n\
     trace F       dump + summarize a recording written by --record"
}
