//! One batch route through the public session API, timed call by call,
//! and the `route_batch` workload built from it.

use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::stats::{median, Tally};
use crate::Args;
use sadp_core::{RouterConfig, RoutingReport, RoutingSession, SessionStatus, Snapshot, StepBudget};
use sadp_decomp::{verify_layers, Verdict};
use sadp_geom::Layer;
use sadp_grid::io::{read_layout, write_layout};
use sadp_grid::BenchmarkSpec;
use sadp_obs::{RouterEvent, Stage};
use std::time::{Duration, Instant};

/// Schedule increments per `advance` call, as `sadp route` slices.
pub const SLICE_STEPS: u64 = 64;

/// The `.layout` text of Test5 (the paper's largest fixed-pin circuit,
/// generator seed 105) scaled by `scale`. The instance is the same for
/// every benchmark seed: route time varies by about ±12% across
/// generator seeds, more than a run-to-run bound can absorb.
pub fn test5(scale: f64) -> String {
    let spec = BenchmarkSpec::paper_fixed_suite()
        .pop()
        .expect("the fixed suite ends with Test5")
        .scaled(scale);
    let (plane, netlist) = spec.generate();
    write_layout(&plane, &netlist)
}

/// Time spent in `advance` calls before the one that finalizes, split
/// by what the drained events say the slice did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Schedule {
    pub serial: Duration,
    pub band: Duration,
    pub boundary: Duration,
    pub bands: u64,
    pub waves: u64,
    pub max_wave: u64,
}

/// One finished route and what each call cost.
pub struct Routed {
    pub report: RoutingReport,
    pub verdict: Verdict,
    /// Parse through verification.
    pub latency: Duration,
    pub create: Duration,
    /// `create` plus every `advance` call.
    pub session_wall: Duration,
    /// The `advance` call that returned `Done`.
    pub finalize: Duration,
    pub slice_max: Duration,
    pub schedule: Schedule,
    pub finalize_ripups: u64,
    pub finalize_dropped: u64,
    pub patterns: Duration,
    pub verify: Duration,
}

impl Routed {
    /// Whether the pixel simulator and the router both report zero cut
    /// conflicts (and no destroyed target patterns).
    pub fn verified(&self) -> bool {
        self.verdict.is_decomposable() && self.report.cut_conflicts == 0
    }

    /// The deterministic part of the result: equal across repeats and
    /// thread counts.
    pub fn fingerprint(&self) -> String {
        let r = &self.report;
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {:?}",
            r.total_nets,
            r.routed_nets,
            r.wirelength,
            r.vias,
            r.overlay_units,
            r.hard_overlay_violations,
            r.cut_conflicts,
            r.ripups,
            r.failed_no_path,
            r.failed_exhausted,
            r.failed_cleanup,
            r.failed_budget,
            r.flips,
            r.nodes_expanded,
            r.color_fallbacks,
            self.verdict
        )
    }
}

pub fn config(threads: usize) -> RouterConfig {
    let mut config = RouterConfig::paper_defaults();
    config.threads = threads;
    config
}

/// Parses `layout`, routes it in [`SLICE_STEPS`] slices and verifies
/// the result. `traced` turns on the session's event trace and stage
/// timing; the slice classification needs the events.
pub fn route(
    layout: &str,
    threads: usize,
    traced: bool,
    spans: &mut Spans,
) -> Result<Routed, String> {
    let op = spans.open("route");
    let routed = route_calls(layout, threads, traced, spans);
    let latency = spans.close(op);
    routed.map(|r| Routed { latency, ..r })
}

fn route_calls(
    layout: &str,
    threads: usize,
    traced: bool,
    spans: &mut Spans,
) -> Result<Routed, String> {
    let (parsed, _) = spans.time("grid.read_layout", || read_layout(layout));
    let (plane, netlist) = parsed.map_err(|e| format!("layout rejected: {e}"))?;
    let (session, create) = spans.time("session.create", || {
        RoutingSession::create(config(threads), plane, netlist, traced, traced)
    });
    let mut session = session.map_err(|e| e.to_string())?;
    let mut schedule = Schedule::default();
    let mut session_wall = create;
    let mut slice_max = Duration::ZERO;
    let (report, finalize, events) = loop {
        let (status, d) = spans.time("session.advance", || {
            session.advance(StepBudget::steps(SLICE_STEPS))
        });
        session_wall += d;
        slice_max = slice_max.max(d);
        let events = session.drain_events();
        match status {
            SessionStatus::Running | SessionStatus::CheckpointReady => {
                classify(&mut schedule, &events, d);
            }
            SessionStatus::Done(report) => break (*report, d, events),
            SessionStatus::Failed(e) => return Err(e.to_string()),
        }
    };
    let count = |pred: fn(&RouterEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
    let finalize_ripups = count(|e| matches!(e, RouterEvent::NetRipped { .. }));
    let finalize_dropped = count(|e| matches!(e, RouterEvent::NetFailed { .. }));
    let (layers, patterns) = spans.time("router.patterns_on_layer", || {
        (0..session.plane().layers())
            .map(|l| session.router().patterns_on_layer(Layer(l)))
            .collect::<Vec<_>>()
    });
    let rules = *session.plane().rules();
    let (verdict, verify) = spans.time("decomp.verify_layers", || verify_layers(&layers, &rules));
    Ok(Routed {
        report,
        verdict,
        latency: Duration::ZERO,
        create,
        session_wall,
        finalize,
        slice_max,
        schedule,
        finalize_ripups,
        finalize_dropped,
        patterns,
        verify,
    })
}

/// Attributes one schedule slice: a band fold makes it a band slice, a
/// boundary wave a boundary slice, anything else is serial nets.
fn classify(s: &mut Schedule, events: &[RouterEvent], d: Duration) {
    let mut band = false;
    let mut boundary = false;
    for e in events {
        match e {
            RouterEvent::BandMerged { .. } => {
                band = true;
                s.bands += 1;
            }
            RouterEvent::WaveScheduled { nets, .. } => {
                boundary = true;
                s.waves += 1;
                s.max_wave = s.max_wave.max(*nets);
            }
            _ => {}
        }
    }
    if band {
        s.band += d;
    } else if boundary {
        s.boundary += d;
    } else {
        s.serial += d;
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Medians over several traced routes of one instance.
fn median_of(runs: &[Routed], f: impl Fn(&Routed) -> Duration) -> f64 {
    let xs: Vec<f64> = runs.iter().map(|r| secs(f(r))).collect();
    median(&xs).unwrap_or(0.0)
}

/// The routing-layer metrics of traced routes of one instance, a
/// checkpoint of it and a threads=2 route of it. `untraced` are routes
/// of the same instance with tracing off, for the overhead.
pub fn route_layers(
    layout: &str,
    traced: Vec<Routed>,
    untraced: &[Duration],
    spans: &mut Spans,
    out: &mut Outcome,
) {
    let last = traced.last().expect("at least one traced route");
    let r = &last.report;
    let p = &r.profile;
    out.set("session.create_s", median_of(&traced, |t| t.create));
    out.set("finalize_s", median_of(&traced, |t| t.finalize));
    let share: Vec<f64> = traced
        .iter()
        .map(|t| 100.0 * secs(t.finalize) / secs(t.session_wall))
        .collect();
    out.set("finalize.share", median(&share).unwrap_or(0.0));
    out.set("finalize.ripups", last.finalize_ripups as f64);
    out.set("finalize.nets_dropped", last.finalize_dropped as f64);
    out.set(
        "session.slice_ms_max",
        1e3 * median_of(&traced, |t| t.slice_max),
    );
    out.set(
        "schedule.serial_s",
        median_of(&traced, |t| t.schedule.serial),
    );
    out.set("schedule.band_s", median_of(&traced, |t| t.schedule.band));
    out.set(
        "schedule.boundary_s",
        median_of(&traced, |t| t.schedule.boundary),
    );
    out.set("schedule.waves", last.schedule.waves as f64);
    out.set("schedule.max_wave", last.schedule.max_wave as f64);
    let stages = [
        (Stage::Search, "stage.search_s", "stage.search_count"),
        (Stage::Commit, "stage.commit_s", "stage.commit_count"),
        (Stage::Recolor, "stage.recolor_s", "stage.recolor_count"),
        (Stage::Ripup, "stage.ripup_s", "stage.ripup_count"),
        (Stage::Merge, "stage.merge_s", "stage.merge_count"),
        (Stage::Boundary, "stage.boundary_s", "stage.boundary_count"),
    ];
    for (stage, time, count) in stages {
        out.set(
            time,
            median_of(&traced, |t| t.report.profile.stage(stage).time),
        );
        out.set(count, p.stage(stage).count as f64);
    }
    out.set(
        "stage.unattributed_s",
        median_of(&traced, |t| {
            t.session_wall.saturating_sub(t.report.profile.total_time())
        }),
    );
    out.set("search.nodes_expanded", r.nodes_expanded as f64);
    let searches = p.stage(Stage::Search).count.max(1);
    out.set(
        "search.commit_ratio",
        r.routed_nets as f64 / searches as f64,
    );
    out.set("ripups_type_b", r.ripups_type_b as f64);
    out.set("ripups_graph", r.ripups_graph as f64);
    out.set("ripups_risk", r.ripups_risk as f64);
    out.set("failed_cleanup", r.failed_cleanup as f64);
    out.set("failed_exhausted", r.failed_exhausted as f64);
    out.set("decomp.patterns_s", median_of(&traced, |t| t.patterns));
    out.set("decomp.verify_s", median_of(&traced, |t| t.verify));
    out.set(
        "decomp.hard_overlay_runs",
        last.verdict.total_hard_runs() as f64,
    );
    let traced_ms: Vec<f64> = traced.iter().map(|t| secs(t.latency)).collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(|d| secs(*d)).collect();
    if let (Some(t), Some(u)) = (median(&traced_ms), median(&untraced_ms)) {
        out.set("trace.overhead_pct", 100.0 * (t - u) / u);
    }
    out.check(
        traced.iter().all(|t| t.fingerprint() == last.fingerprint()),
        || "traced routes of one instance differ".into(),
    );

    if let Err(e) = checkpoint_layer(layout, spans, out) {
        out.check(false, || format!("checkpoint probe failed: {e}"));
    }

    spans.next_op();
    match route(layout, 2, true, spans) {
        Ok(t2) => {
            let s = t2.schedule;
            out.set("schedule.t2_s", secs(s.serial + s.band + s.boundary));
            out.check(t2.fingerprint() == last.fingerprint(), || {
                "threads=2 report differs from threads=1".into()
            });
        }
        Err(e) => out.check(false, || format!("threads=2 route failed: {e}")),
    }
}

/// Advances a route of `layout` to its last pause point before
/// finalize, snapshots its journal there and resumes a new session from
/// the snapshot, as a daemon does after a restart.
fn checkpoint_layer(layout: &str, spans: &mut Spans, out: &mut Outcome) -> Result<(), String> {
    let (plane, netlist) = read_layout(layout).map_err(|e| e.to_string())?;
    let mut session = RoutingSession::create(config(1), plane, netlist, false, false)
        .map_err(|e| e.to_string())?;
    loop {
        let (done, total) = session.progress();
        if done + SLICE_STEPS >= total {
            break;
        }
        match session.advance(StepBudget::steps(SLICE_STEPS)) {
            SessionStatus::Running | SessionStatus::CheckpointReady => {}
            SessionStatus::Done(_) => break,
            SessionStatus::Failed(e) => return Err(e.to_string()),
        }
    }
    let (snapshot, snap_d) = spans.time("session.snapshot", || session.snapshot());
    out.set("checkpoint.snapshot_ms", 1e3 * secs(snap_d));
    out.set("checkpoint.snapshot_kb", snapshot.len() as f64 / 1024.0);
    let (plane, netlist) = read_layout(layout).map_err(|e| e.to_string())?;
    let (resumed, d) = spans.time("session.resume", || {
        Snapshot::parse(&snapshot)
            .map_err(|e| e.to_string())
            .and_then(|snap| {
                RoutingSession::resume(config(1), plane, netlist, &snap, false, false)
                    .map_err(|e| e.to_string())
            })
    });
    // A resume that diverges is a failed operation, not a broken
    // benchmark: the time it took until it gave up still counts.
    out.set("checkpoint.resume_s", secs(d));
    let ok = match resumed {
        Ok(resumed) => {
            let routed = |s: &RoutingSession| s.router().ledger().routed().len();
            routed(&resumed) == routed(&session)
        }
        Err(e) => {
            let (done, total) = session.progress();
            out.note(format!(
                "checkpoint: resume from step {done} of {total} failed: {e}"
            ));
            false
        }
    };
    out.tally.record(ok);
    Ok(())
}

/// `route_batch`: routes Test5×0.2 at threads=1 again and again.
pub fn route_batch(args: &Args, spans: &mut Spans, out: &mut Outcome) {
    let (layout, d) = spans.time("setup.generate", || test5(0.2));
    let mut setups = vec![secs(d)];

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut reference: Option<String> = None;
    let mut first: Option<Routed> = None;
    let clock = crate::host::SchedClock::start();
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        // The traced run alternates tracing off and on, so both see the
        // same host conditions; the difference is the tracing overhead.
        let trace_this = args.trace && i % 2 == 1;
        spans.next_op();
        match route(&layout, 1, trace_this, spans) {
            Ok(r) => {
                let ok = r.verified();
                out.check(ok, || {
                    format!(
                        "route left {} simulator / {} router cut conflicts",
                        r.verdict
                            .layers
                            .iter()
                            .map(|l| l.cut_conflicts)
                            .sum::<usize>(),
                        r.report.cut_conflicts
                    )
                });
                tally.record(ok);
                let fp = r.fingerprint();
                let same = reference.get_or_insert_with(|| fp.clone()) == &fp;
                out.check(same, || "repeated routes gave different reports".into());
                latencies.push(secs(r.latency));
                if trace_this {
                    traced.push(r);
                } else {
                    untraced.push(r.latency);
                    if first.is_none() {
                        first = Some(r);
                    }
                }
            }
            Err(e) => {
                tally.record(false);
                out.check(false, || format!("route failed: {e}"));
            }
        }
        i += 1;
        let enough = !args.trace || !traced.is_empty();
        if start.elapsed().as_secs_f64() >= args.seconds && enough {
            break;
        }
    }
    let elapsed = start.elapsed();
    out.sched(clock.stop());
    out.tally.add(tally);
    // The other set-up repeats run after the measured window (see the
    // crate docs).
    for _ in 1..9 {
        let (text, d) = spans.time("setup.generate", || test5(0.2));
        setups.push(secs(d));
        out.check(text == layout, || {
            "instance generation is not deterministic".into()
        });
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));

    let Some(r) = first else { return };
    out.set("latency_ms_p50", 1e3 * median(&latencies).unwrap_or(0.0));
    let busy: f64 = latencies.iter().sum();
    out.set(
        "throughput_per_s",
        r.report.total_nets as f64 * latencies.len() as f64 / busy,
    );
    out.set("routability", r.report.routability());
    out.set("wirelength", r.report.wirelength as f64);
    out.set("vias", r.report.vias as f64);
    out.set("overlay_units", r.verdict.total_overlay_units() as f64);
    out.note(format!(
        "route_batch: {} routes of {} nets in {:.1} s; latencies (s) {:.3?}",
        latencies.len(),
        r.report.total_nets,
        elapsed.as_secs_f64(),
        latencies
    ));

    if args.trace {
        let s = traced[0].schedule;
        out.check(s.bands >= 2, || {
            format!("vacuous: only {} band folds", s.bands)
        });
        out.check(s.max_wave > 1, || {
            format!("vacuous: widest boundary wave has {} nets", s.max_wave)
        });
        out.set("cut_conflicts", conflicts(&traced[0].verdict) as f64);
        route_layers(&layout, traced, &untraced, spans, out);
        let small = test5(crate::serve::BATCH_SCALE);
        crate::eco::eco_probe(&small, args.seed, spans, out);
        crate::serve::serve_probe(args.seed, spans, out);
    }
}

/// Simulator cut conflicts over all layers.
pub fn conflicts(v: &Verdict) -> usize {
    v.layers.iter().map(|l| l.cut_conflicts).sum()
}

/// The routing layers on one instance, for the traced runs of the
/// workloads that do not route in batch: `pairs` untraced/traced route
/// pairs, then [`route_layers`].
pub fn route_probe(layout: &str, pairs: usize, spans: &mut Spans, out: &mut Outcome) {
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    for _ in 0..pairs {
        for trace in [false, true] {
            spans.next_op();
            match route(layout, 1, trace, spans) {
                Ok(r) => {
                    out.check(r.verified(), || "probe route has cut conflicts".into());
                    if trace {
                        traced.push(r);
                    } else {
                        untraced.push(r.latency);
                    }
                }
                Err(e) => out.check(false, || format!("probe route failed: {e}")),
            }
        }
    }
    if !traced.is_empty() {
        route_layers(layout, traced, &untraced, spans, out);
    }
}
