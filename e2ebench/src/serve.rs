//! The `serve_mixed` workload: an in-process daemon fed by an
//! interactive client and a batch client, each a closed loop.

use crate::metrics::Outcome;
use crate::route::{conflicts, route, test5};
use crate::spans::Spans;
use crate::stats::{median, millis, Tally};
use crate::Args;
use sadp_grid::io::write_layout;
use sadp_grid::BenchmarkSpec;
use sadp_serve::{serve, Client, Json, Request, ServeConfig, ServerHandle};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Distinct interactive layouts, cycled by the interactive client.
const INTERACTIVE_POOL: usize = 4;

/// Scale of the Test5 instance the batch client submits: about half a
/// second of finalize, which runs as one slice.
pub const BATCH_SCALE: f64 = 0.02;

/// The interactive layouts: 24 nets on 96×72 tracks, drawn from `seed`.
fn interactive_layouts(seed: u64) -> Vec<String> {
    (0..INTERACTIVE_POOL)
        .map(|i| {
            let spec = BenchmarkSpec::new(format!("ia{i}"), 24, 96, 72).with_seed(
                seed.wrapping_mul(INTERACTIVE_POOL as u64)
                    .wrapping_add(i as u64),
            );
            let (plane, netlist) = spec.generate();
            write_layout(&plane, &netlist)
        })
        .collect()
}

fn start_daemon() -> Result<(ServerHandle, String), String> {
    let handle = serve(ServeConfig {
        workers: 1,
        state_dir: None,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon did not start: {e}"))?;
    let addr = handle.addr().to_string();
    Ok((handle, addr))
}

/// The parts of a `done` report that must repeat for one layout.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DoneReport {
    total: u64,
    routed: u64,
    wirelength: u64,
    vias: u64,
    overlay: u64,
    cut_conflicts: u64,
}

impl DoneReport {
    fn parse(done: &Json) -> Option<DoneReport> {
        if done.get("state").and_then(Json::as_str) != Some("done") {
            return None;
        }
        let r = done.get("report")?;
        let n = |k: &str| r.get(k).and_then(Json::as_u64);
        Some(DoneReport {
            total: n("total_nets")?,
            routed: n("routed_nets")?,
            wirelength: n("wirelength")?,
            vias: n("vias")?,
            overlay: n("overlay_units")?,
            cut_conflicts: n("cut_conflicts")?,
        })
    }
}

/// One submit → `done` round trip.
struct Job {
    instance: usize,
    latency: Duration,
    submit: Duration,
    wait: Duration,
    report: DoneReport,
}

/// Submits `layout` on a fresh connection and subscribes to it on the
/// same connection until its `done` line.
fn run_job(addr: &str, layout: &str, instance: usize, spans: &mut Spans) -> Result<Job, String> {
    let op = spans.open("serve.job");
    let job = job_calls(addr, layout, instance, spans);
    let latency = spans.close(op);
    job.map(|j| Job { latency, ..j })
}

fn job_calls(addr: &str, layout: &str, instance: usize, spans: &mut Spans) -> Result<Job, String> {
    let (client, _) = spans.time("serve.connect", || Client::connect(addr));
    let mut client = client.map_err(|e| format!("connect: {e}"))?;
    let request = Request::Submit {
        layout: layout.to_string(),
        priority: 100,
        threads: None,
        node_budget: None,
        deadline_ms: None,
    };
    let (ack, submit) = spans.time("serve.submit", || client.call(&request));
    let ack = ack.map_err(|e| format!("submit: {e}"))?;
    let id = ack
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("submit answered without a job id")?;
    let (done, wait) = spans.time("serve.subscribe", || client.subscribe(id, |_| {}));
    let done = done.map_err(|e| format!("subscribe: {e}"))?;
    let report =
        DoneReport::parse(&done).ok_or_else(|| format!("job {id} did not finish: {done:?}"))?;
    Ok(Job {
        instance,
        latency: Duration::ZERO,
        submit,
        wait,
        report,
    })
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    jobs: Vec<Job>,
    errors: Vec<String>,
    shed: u64,
    pings: Vec<Duration>,
    /// Interactive submits made while a batch job was in flight.
    overlapped: usize,
    spans: Option<Spans>,
}

impl ClientLog {
    fn record(&mut self, result: Result<Job, String>) {
        match result {
            Ok(job) => {
                let ok = job.report.cut_conflicts == 0;
                self.tally.record(ok);
                if !ok {
                    self.errors.push(format!(
                        "job reported {} cut conflicts",
                        job.report.cut_conflicts
                    ));
                }
                self.jobs.push(job);
            }
            Err(e) => {
                self.tally.record(false);
                if e.contains("overloaded") {
                    self.shed += 1;
                }
                self.errors.push(e);
            }
        }
    }
}

/// Interactive client: cycles the pool until the deadline. With `ping`
/// it measures one ping round trip before each job.
fn interactive(
    addr: &str,
    pool: &[String],
    deadline: Instant,
    batch_in_flight: &AtomicBool,
    ping: bool,
    spans: &mut Spans,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut i = 0usize;
    while Instant::now() < deadline || log.jobs.is_empty() {
        if ping {
            match Client::connect(addr) {
                Ok(mut c) => {
                    let (r, d) = spans.time("serve.ping", || c.call(&Request::Ping));
                    if r.is_ok() {
                        log.pings.push(d);
                    }
                }
                Err(e) => log.errors.push(format!("ping connect: {e}")),
            }
        }
        spans.next_op();
        if batch_in_flight.load(Ordering::SeqCst) {
            log.overlapped += 1;
        }
        let instance = i % pool.len();
        log.record(run_job(addr, &pool[instance], instance, spans));
        i += 1;
    }
    log
}

/// Batch client: submits the batch layout back to back until the
/// deadline, flagging each job while it is in flight.
fn batch(
    addr: &str,
    layout: &str,
    deadline: Instant,
    in_flight: &AtomicBool,
    traced: bool,
) -> ClientLog {
    let mut spans = Spans::new(traced);
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        spans.next_op();
        in_flight.store(true, Ordering::SeqCst);
        log.record(run_job(addr, layout, INTERACTIVE_POOL, &mut spans));
        in_flight.store(false, Ordering::SeqCst);
    }
    log.spans = Some(spans);
    log
}

/// Reports of the first job of each instance; a later job of the same
/// instance with a different report breaks determinism.
fn first_reports(logs: &[&ClientLog], out: &mut Outcome) -> BTreeMap<usize, DoneReport> {
    let mut first: BTreeMap<usize, DoneReport> = BTreeMap::new();
    for job in logs.iter().flat_map(|l| &l.jobs) {
        let seen = first
            .entry(job.instance)
            .or_insert_with(|| job.report.clone());
        out.check(*seen == job.report, || {
            format!("instance {} gave two different reports", job.instance)
        });
    }
    first
}

/// Starts a daemon and warms it up with one job per distinct layout, so
/// a timed loop starts on a daemon that has routed each of them once.
/// Returns the daemon, the warm-up jobs and the seconds it took.
fn set_up(
    layouts: &[&String],
    spans: &mut Spans,
) -> Result<(ServerHandle, ClientLog, f64), String> {
    spans.next_op();
    let open = spans.open("setup.daemon");
    let started = start_daemon();
    let mut warm = ClientLog::default();
    if let Ok((_, addr)) = &started {
        for (instance, layout) in layouts.iter().enumerate() {
            warm.record(run_job(addr, layout, instance, spans));
        }
    }
    let d = spans.close(open).as_secs_f64();
    let (handle, _) = started?;
    if warm.tally.failed > 0 {
        handle.shutdown();
        return Err(format!("warm-up jobs failed: {:?}", warm.errors));
    }
    Ok((handle, warm, d))
}

/// `serve_mixed`.
pub fn serve_mixed(args: &Args, spans: &mut Spans, out: &mut Outcome) {
    let pool = interactive_layouts(args.seed);
    let batch_layout = test5(BATCH_SCALE);
    let layouts: Vec<&String> = pool.iter().chain(std::iter::once(&batch_layout)).collect();
    let (handle, warm, d) = match set_up(&layouts, spans) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    let mut setups = vec![d];
    let mut warm = vec![warm];
    let addr = handle.addr().to_string();

    let in_flight = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let clock = crate::host::SchedClock::start();
    let (ia, bl) = std::thread::scope(|s| {
        let batch = s.spawn(|| batch(&addr, &batch_layout, deadline, &in_flight, args.trace));
        let ia = interactive(&addr, &pool, deadline, &in_flight, args.trace, spans);
        (ia, batch.join().expect("batch client thread"))
    });
    out.sched(clock.stop());
    let elapsed = start.elapsed();
    handle.shutdown();
    // The other set-up repeats run after the measured window (see the
    // crate docs).
    for _ in 1..3 {
        match set_up(&layouts, spans) {
            Ok((handle, log, d)) => {
                handle.shutdown();
                setups.push(d);
                warm.push(log);
            }
            Err(e) => out.check(false, || e),
        }
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));

    for log in [&ia, &bl] {
        out.tally.add(log.tally);
        for e in &log.errors {
            out.note(format!("serve_mixed: failed job: {e}"));
        }
    }
    let lat = millis(&ia.jobs.iter().map(|j| j.latency).collect::<Vec<_>>());
    out.set("latency_ms_p50", median(&lat).unwrap_or(0.0));
    let done = ia.jobs.len() + bl.jobs.len();
    out.set("throughput_per_s", done as f64 / elapsed.as_secs_f64());
    out.note(format!(
        "serve_mixed: {} interactive + {} batch jobs in {:.1} s, {} interactive submits during a batch job; interactive {}",
        ia.jobs.len(),
        bl.jobs.len(),
        elapsed.as_secs_f64(),
        ia.overlapped,
        crate::tail_note(&lat)
    ));
    out.check(ia.overlapped > 0, || {
        "vacuous: no interactive job was submitted while a batch job ran".into()
    });

    // Reference: each distinct layout routed in-process must match the
    // daemon's report and verify with zero cut conflicts. Quality is
    // summed over the distinct layouts.
    let logs: Vec<&ClientLog> = warm.iter().chain([&ia, &bl]).collect();
    let first = first_reports(&logs, out);
    let mut reference = Spans::new(false);
    let (mut routed, mut total, mut wl, mut vias, mut overlay, mut cuts) = (0, 0, 0, 0, 0, 0);
    for (instance, layout) in layouts.iter().enumerate() {
        let Some(daemon_report) = first.get(&instance) else {
            out.check(false, || format!("instance {instance} never finished"));
            continue;
        };
        match route(layout, 1, false, &mut reference) {
            Ok(r) => {
                let mine = DoneReport {
                    total: r.report.total_nets as u64,
                    routed: r.report.routed_nets as u64,
                    wirelength: r.report.wirelength,
                    vias: r.report.vias,
                    overlay: r.report.overlay_units,
                    cut_conflicts: r.report.cut_conflicts,
                };
                out.check(mine == *daemon_report, || {
                    format!(
                        "daemon report for instance {instance} differs from an in-process route"
                    )
                });
                out.check(r.verified(), || {
                    format!("instance {instance} has cut conflicts")
                });
                routed += r.report.routed_nets;
                total += r.report.total_nets;
                wl += r.report.wirelength;
                vias += r.report.vias;
                overlay += r.verdict.total_overlay_units();
                cuts += conflicts(&r.verdict);
            }
            Err(e) => out.check(false, || format!("reference route failed: {e}")),
        }
    }
    out.set("routability", 100.0 * routed as f64 / total.max(1) as f64);
    out.set("wirelength", wl as f64);
    out.set("vias", vias as f64);
    out.set("overlay_units", overlay as f64);

    if args.trace {
        out.set("cut_conflicts", cuts as f64);
        serve_layers(&ia, &bl, out);
        if let Some(batch_spans) = &bl.spans {
            out.merge_spans(batch_spans);
        }
        crate::route::route_probe(&batch_layout, 3, spans, out);
        crate::eco::eco_probe(&batch_layout, args.seed, spans, out);
    }
}

fn serve_layers(ia: &ClientLog, bl: &ClientLog, out: &mut Outcome) {
    out.set(
        "serve.ping_ms_p50",
        median(&millis(&ia.pings)).unwrap_or(0.0),
    );
    let submits: Vec<Duration> = ia.jobs.iter().map(|j| j.submit).collect();
    out.set(
        "serve.submit_ms_p50",
        median(&millis(&submits)).unwrap_or(0.0),
    );
    let waits: Vec<Duration> = ia.jobs.iter().map(|j| j.wait).collect();
    out.set(
        "serve.done_wait_ms_p50",
        median(&millis(&waits)).unwrap_or(0.0),
    );
    out.set("serve.shed", (ia.shed + bl.shed) as f64);
}

/// The serve layer on an idle daemon, for the traced runs of the other
/// workloads: interactive jobs with a ping before each, for one second.
pub fn serve_probe(seed: u64, spans: &mut Spans, out: &mut Outcome) {
    let (handle, addr) = match start_daemon() {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || e);
            return;
        }
    };
    let pool = interactive_layouts(seed);
    let idle = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(1);
    let ia = interactive(&addr, &pool, deadline, &idle, true, spans);
    handle.shutdown();
    for e in &ia.errors {
        out.check(false, || format!("serve probe: {e}"));
    }
    let _ = first_reports(&[&ia], out);
    serve_layers(&ia, &ClientLog::default(), out);
}
