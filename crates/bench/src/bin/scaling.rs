//! Thread-scaling benchmark for the wave-scheduled boundary tail.
//!
//! Routes the fixture suite — Test5 of the paper suite plus a
//! boundary-heavy corpus plane whose nets all straddle a band edge — at
//! 1, 2 and 4 worker threads, asserts the results are identical (modulo
//! wall-clock), and emits a machine-readable `BENCH_<rev>.json`:
//! wall-clock per [`Stage`] from the report's `StageProfile`,
//! routability, wave statistics, and the boundary-tail fraction of the
//! serial run vs the widest parallel run.
//!
//! A second section exercises the `sadp serve` job daemon: a corpus of
//! small independent layouts is submitted to an in-process daemon at 1,
//! 2 and 4 workers, and the record gains jobs/sec plus the p50/p95
//! submit-to-done sojourn ("queue latency") per worker count.
//!
//! A third section measures the incremental ECO engine on the Test5
//! fixture: a deterministic remove/re-add edit series over an
//! [`EcoSession`], recording per-edit latency (p50/p95), the
//! dependence-scoped invalidated-net counts, and undo/redo latency
//! (journal restores, which replay the full commit ledger).
//!
//! The binary exits non-zero if the corpus fixture fails to batch more
//! than one net into some wave — a vacuous run would silently gut the
//! benchmark, so CI treats that as a failure.
//!
//! Usage: `scaling [--scale X | --full] [--out PATH]` (default output:
//! `BENCH_<rev>.json` in the working directory, `rev` from `git
//! rev-parse --short HEAD` or `local`).

use sadp_core::eco::{EcoEdit, EcoSession};
use sadp_core::{Router, RouterConfig, RoutingReport};
use sadp_geom::{DesignRules, GridPoint, Layer};
use sadp_grid::{write_layout, BenchmarkSpec, NetId, Netlist, RoutingPlane};
use sadp_obs::{BufferRecorder, RouterEvent, Stage};
use sadp_serve::{serve, Client, Json, Request, ServeConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 2, 4];
const WORKERS: [usize; 3] = [1, 2, 4];

/// Everything measured about one `(fixture, threads)` routing run.
struct RunStats {
    threads: usize,
    wall_s: f64,
    report: RoutingReport,
    failed: Vec<NetId>,
    waves: u64,
    max_wave: u64,
    boundary_nets: u64,
}

fn route(plane: &RoutingPlane, netlist: &Netlist, threads: usize) -> RunStats {
    let mut plane = plane.clone();
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    let mut router = Router::new(config);
    let mut rec = BufferRecorder::with_flags(true, true);
    let start = Instant::now();
    let report = router
        .route_all_with(&mut plane, netlist, &mut rec)
        .unwrap_or_else(|e| panic!("{e}"));
    let wall_s = start.elapsed().as_secs_f64();

    let (mut waves, mut max_wave, mut boundary_nets) = (0u64, 0u64, 0u64);
    for ev in rec.take_events() {
        if let RouterEvent::WaveScheduled { nets, .. } = ev {
            waves += 1;
            max_wave = max_wave.max(nets);
            boundary_nets += nets;
        }
    }
    RunStats {
        threads,
        wall_s,
        report,
        failed: router.failed().to_vec(),
        waves,
        max_wave,
        boundary_nets,
    }
}

/// The deterministic projection of a report: CPU time zeroed, stage
/// times dropped (counts kept). Must be equal across thread counts.
fn deterministic(report: &RoutingReport) -> RoutingReport {
    let mut r = report.clone();
    r.cpu = Duration::ZERO;
    r.profile = r.profile.counts_only();
    r
}

/// A plane whose nets all straddle the x=200 band edge in interleaving
/// conflict groups — the boundary tail IS the workload, so the wave
/// scheduler's effect is undiluted. Row spacing alternates between
/// footprint-disjoint (batched into one wave) and conflicting (forces a
/// wave cut).
fn boundary_corpus() -> (RoutingPlane, Netlist) {
    let plane = RoutingPlane::new(3, 400, 620, DesignRules::node_10nm()).expect("valid plane");
    let mut nl = Netlist::new();
    let mut y = 10;
    let mut i = 0;
    while y < 610 {
        nl.add_two_pin(
            format!("c{i}"),
            GridPoint::new(Layer(0), 150, y),
            GridPoint::new(Layer(0), 250, y),
        );
        // 60-track gaps are disjoint (bbox + 24 margin + 2 halo per
        // side), 25-track gaps conflict: alternate to force real waves.
        y += if i % 2 == 0 { 60 } else { 25 };
        i += 1;
    }
    (plane, nl)
}

/// Throughput of one daemon configuration on the multi-job corpus.
struct ServeStats {
    workers: usize,
    wall_s: f64,
    jobs_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
}

/// Nearest-rank percentile of an already-sorted sample, in milliseconds.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx].as_secs_f64() * 1e3
}

/// Many small independent jobs, so queueing behaviour dominates and the
/// per-job route is milliseconds. Grows mildly with `--scale`.
fn serve_corpus(scale: f64) -> Vec<String> {
    let jobs = ((8.0 + 32.0 * scale).round() as usize).max(4);
    (0..jobs)
        .map(|i| {
            let spec =
                BenchmarkSpec::new(format!("serve-{i}"), 24, 96, 72).with_seed(40 + i as u64);
            let (plane, netlist) = spec.generate();
            write_layout(&plane, &netlist)
        })
        .collect()
}

/// Submits the whole corpus to a fresh in-process daemon, then lets one
/// subscriber thread per job record its completion. The measured
/// sojourn is submit-to-done, queue wait included.
fn serve_bench(layouts: &[String], workers: usize) -> ServeStats {
    let handle = serve(ServeConfig {
        workers,
        slice_steps: 16,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr().to_string();

    let start = Instant::now();
    let mut client = Client::connect(&addr).expect("client connects");
    let mut submitted: Vec<(u64, Instant)> = Vec::new();
    for layout in layouts {
        let resp = client
            .call(&Request::Submit {
                layout: layout.clone(),
                priority: 100,
                threads: None,
                node_budget: None,
                deadline_ms: None,
            })
            .expect("submit accepted");
        let id = resp.get("job").and_then(Json::as_u64).expect("job id");
        submitted.push((id, Instant::now()));
    }
    let sojourns: Vec<Duration> = std::thread::scope(|s| {
        let handles: Vec<_> = submitted
            .iter()
            .map(|&(id, t_submit)| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut c = Client::connect(&addr).expect("subscriber connects");
                    let done = c
                        .subscribe(id, |_| {})
                        .expect("job reaches a terminal state");
                    assert_eq!(
                        done.get("state").and_then(Json::as_str),
                        Some("done"),
                        "job {id} did not finish cleanly"
                    );
                    t_submit.elapsed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("subscriber thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    handle.shutdown();

    let mut sorted = sojourns;
    sorted.sort();
    ServeStats {
        workers,
        wall_s,
        jobs_per_s: layouts.len() as f64 / wall_s.max(1e-12),
        p50_ms: percentile_ms(&sorted, 0.50),
        p95_ms: percentile_ms(&sorted, 0.95),
    }
}

/// Everything measured about the ECO edit series.
struct EcoStats {
    nets: usize,
    edits: usize,
    edit_p50_ms: f64,
    edit_p95_ms: f64,
    invalidated_mean: f64,
    invalidated_max: u64,
    undo_p50_ms: f64,
    undo_p95_ms: f64,
    redo_p50_ms: f64,
    redo_p95_ms: f64,
}

/// A deterministic edit series: every stride-th net is removed and then
/// re-added with its original pins. Both directions exercise the full
/// pipeline — dependence-radius invalidation, scoped rip-up, re-route,
/// journaling — and the series ends where it started, so the final
/// journal unwind (the undo/redo timing pass) restores the batch result.
fn eco_bench(plane: &RoutingPlane, netlist: &Netlist, pairs: usize) -> EcoStats {
    let mut eco = EcoSession::create(
        RouterConfig::paper_defaults(),
        plane.clone(),
        netlist.clone(),
        false,
    )
    .expect("eco session builds");
    let nets = netlist.len();
    let targets: Vec<NetId> = {
        let active: Vec<NetId> = eco.active_nets().collect();
        let stride = (active.len() / pairs.max(1)).max(1);
        active.into_iter().step_by(stride).take(pairs).collect()
    };

    let mut edit_lat: Vec<Duration> = Vec::new();
    let mut invalidated: Vec<u64> = Vec::new();
    for id in targets {
        let net = eco.netlist().net(id);
        let (name, pins) = (net.name.clone(), net.pins().cloned().collect::<Vec<_>>());
        for edit in [
            EcoEdit::RemoveNet { net: id },
            EcoEdit::AddNet { name, pins },
        ] {
            let start = Instant::now();
            let outcome = eco.apply(edit).expect("series edits are valid");
            edit_lat.push(start.elapsed());
            invalidated.push(outcome.invalidated.len() as u64);
        }
    }

    let mut undo_lat: Vec<Duration> = Vec::new();
    while eco.undo_depth() > 0 {
        let start = Instant::now();
        eco.undo().expect("journal non-empty");
        undo_lat.push(start.elapsed());
    }
    let mut redo_lat: Vec<Duration> = Vec::new();
    while eco.redo_depth() > 0 {
        let start = Instant::now();
        eco.redo().expect("redo available");
        redo_lat.push(start.elapsed());
    }

    let edits = edit_lat.len();
    edit_lat.sort();
    undo_lat.sort();
    redo_lat.sort();
    EcoStats {
        nets,
        edits,
        edit_p50_ms: percentile_ms(&edit_lat, 0.50),
        edit_p95_ms: percentile_ms(&edit_lat, 0.95),
        invalidated_mean: invalidated.iter().sum::<u64>() as f64 / (edits as f64).max(1.0),
        invalidated_max: invalidated.iter().copied().max().unwrap_or(0),
        undo_p50_ms: percentile_ms(&undo_lat, 0.50),
        undo_p95_ms: percentile_ms(&undo_lat, 0.95),
        redo_p50_ms: percentile_ms(&redo_lat, 0.50),
        redo_p95_ms: percentile_ms(&redo_lat, 0.95),
    }
}

fn json_eco(e: &EcoStats) -> String {
    format!(
        "{{\"nets\":{},\"edits\":{},\
         \"edit_latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3}}},\
         \"invalidated\":{{\"mean\":{:.2},\"max\":{}}},\
         \"undo_latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3}}},\
         \"redo_latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3}}}}}",
        e.nets,
        e.edits,
        e.edit_p50_ms,
        e.edit_p95_ms,
        e.invalidated_mean,
        e.invalidated_max,
        e.undo_p50_ms,
        e.undo_p95_ms,
        e.redo_p50_ms,
        e.redo_p95_ms,
    )
}

fn json_serve(jobs: usize, runs: &[ServeStats]) -> String {
    let mut out = String::new();
    write!(out, "{{\"jobs\":{jobs},\"runs\":[").expect("write to string");
    for (k, r) in runs.iter().enumerate() {
        write!(
            out,
            "{}\n    {{\"workers\":{},\"wall_s\":{:.6},\"jobs_per_s\":{:.3},\
             \"queue_latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3}}}}}",
            if k == 0 { "" } else { "," },
            r.workers,
            r.wall_s,
            r.jobs_per_s,
            r.p50_ms,
            r.p95_ms,
        )
        .expect("write to string");
    }
    out.push_str("\n  ]}");
    out
}

fn json_fixture(name: &str, plane: &RoutingPlane, total_nets: usize, runs: &[RunStats]) -> String {
    let mut out = String::new();
    let serial = &runs[0];
    let widest = runs.last().expect("at least one run");
    let frac = |r: &RunStats| {
        r.report.profile.stage(Stage::Boundary).time.as_secs_f64() / r.wall_s.max(1e-12)
    };
    write!(
        out,
        "    {{\"name\":\"{name}\",\"nets\":{total_nets},\"tracks\":[{},{},{}],\
         \"waves\":{},\"max_wave_width\":{},\"boundary_nets\":{},\
         \"boundary_tail_fraction\":{{\"serial\":{:.6},\"parallel\":{:.6}}},\"runs\":[",
        plane.width(),
        plane.height(),
        plane.layers(),
        serial.waves,
        serial.max_wave,
        serial.boundary_nets,
        frac(serial),
        frac(widest),
    )
    .expect("write to string");
    for (k, r) in runs.iter().enumerate() {
        let routability = r.report.routed_nets as f64 / (total_nets as f64).max(1.0);
        write!(
            out,
            "{}\n      {{\"threads\":{},\"wall_s\":{:.6},\"routability\":{routability:.6},\
             \"routed\":{},\"failed\":{},\"boundary_tail_fraction\":{:.6},\"stages\":{{",
            if k == 0 { "" } else { "," },
            r.threads,
            r.wall_s,
            r.report.routed_nets,
            r.failed.len(),
            frac(r),
        )
        .expect("write to string");
        for (j, stage) in Stage::ALL.iter().enumerate() {
            let s = r.report.profile.stage(*stage);
            write!(
                out,
                "{}\"{}\":{{\"s\":{:.6},\"count\":{}}}",
                if j == 0 { "" } else { "," },
                stage.name(),
                s.time.as_secs_f64(),
                s.count
            )
            .expect("write to string");
        }
        out.push_str("}}");
    }
    out.push_str("\n    ]}");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = sadp_bench::scale_from_args(&args);
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{rev}.json"));

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 2 {
        println!("note: single-core host — identity checks are meaningful, speedups are not");
    }

    let test5 = BenchmarkSpec::paper_fixed_suite()
        .pop()
        .expect("suite is non-empty")
        .scaled(scale);
    let (t5_plane, t5_netlist) = test5.generate();
    let (corpus_plane, corpus_netlist) = boundary_corpus();
    let fixtures: [(&str, &RoutingPlane, &Netlist); 2] = [
        ("test5", &t5_plane, &t5_netlist),
        ("boundary-corpus", &corpus_plane, &corpus_netlist),
    ];

    let mut fixture_json = Vec::new();
    for (name, plane, netlist) in fixtures {
        let runs: Vec<RunStats> = THREADS.iter().map(|&t| route(plane, netlist, t)).collect();

        // Identity gate: the wave scheduler must not change the result.
        let serial = &runs[0];
        for r in &runs[1..] {
            assert_eq!(
                deterministic(&serial.report),
                deterministic(&r.report),
                "{name}: report diverged at threads={}",
                r.threads
            );
            assert_eq!(
                serial.failed, r.failed,
                "{name}: failed nets diverged at threads={}",
                r.threads
            );
        }

        println!(
            "{name}: {} nets, {} waves (max width {}), {} boundary nets",
            netlist.len(),
            serial.waves,
            serial.max_wave,
            serial.boundary_nets
        );
        for r in &runs {
            let boundary_s = r.report.profile.stage(Stage::Boundary).time.as_secs_f64();
            println!(
                "  threads={}: {:7.3}s wall, boundary tail {:6.3}s ({:4.1}%), routed {}/{}",
                r.threads,
                r.wall_s,
                boundary_s,
                100.0 * boundary_s / r.wall_s.max(1e-12),
                r.report.routed_nets,
                netlist.len()
            );
        }
        // Vacuity guard for CI: the corpus fixture exists to exercise
        // wave batching; a max wave of 1 means the benchmark is vacuous.
        if name == "boundary-corpus" {
            assert!(
                serial.waves >= 2 && serial.max_wave > 1,
                "vacuous corpus run: {} waves, max width {}",
                serial.waves,
                serial.max_wave
            );
        }
        fixture_json.push(json_fixture(name, plane, netlist.len(), &runs));
    }

    let eco = eco_bench(&t5_plane, &t5_netlist, 12);
    println!(
        "eco: {} edits on {} nets, edit p50 {:.2}ms p95 {:.2}ms, \
         invalidated mean {:.1} max {}, undo p50 {:.2}ms, redo p50 {:.2}ms",
        eco.edits,
        eco.nets,
        eco.edit_p50_ms,
        eco.edit_p95_ms,
        eco.invalidated_mean,
        eco.invalidated_max,
        eco.undo_p50_ms,
        eco.redo_p50_ms
    );
    // Vacuity guard: an edit series that never invalidates a neighbour
    // never exercises the dependence-scoped re-route path.
    assert!(
        eco.edits > 0 && eco.invalidated_max > 0,
        "vacuous eco run: {} edits, max invalidated {}",
        eco.edits,
        eco.invalidated_max
    );

    let corpus = serve_corpus(scale);
    println!("serve: {} jobs", corpus.len());
    let serve_runs: Vec<ServeStats> = WORKERS.iter().map(|&w| serve_bench(&corpus, w)).collect();
    for r in &serve_runs {
        println!(
            "  workers={}: {:7.3}s wall, {:7.2} jobs/s, queue latency p50 {:7.1}ms p95 {:7.1}ms",
            r.workers, r.wall_s, r.jobs_per_s, r.p50_ms, r.p95_ms
        );
    }

    let json = format!(
        "{{\n  \"schema\":\"sadp-scaling-bench/v3\",\n  \"rev\":\"{rev}\",\n  \
         \"scale\":{scale},\n  \"cores\":{cores},\n  \"threads\":[1,2,4],\n  \
         \"fixtures\":[\n{}\n  ],\n  \"serve\":{},\n  \"eco\":{}\n}}\n",
        fixture_json.join(",\n"),
        json_serve(corpus.len(), &serve_runs),
        json_eco(&eco)
    );
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");
}
