//! The `eco_edit` workload: remove/re-add edits on a routed layout,
//! verified after each, in rounds that each end with undo-all.

use crate::metrics::Outcome;
use crate::route::{config, conflicts};
use crate::spans::Spans;
use crate::stats::{median, millis, Tally};
use crate::Args;
use sadp_core::{EcoEdit, EcoSession};
use sadp_decomp::{verify_layers, Verdict};
use sadp_geom::{Layer, Rng};
use sadp_grid::io::read_layout;
use sadp_grid::{NetId, Pin};
use std::time::{Duration, Instant};

/// Scale of the Test5 instance edited by `eco_edit`.
pub const SCALE: f64 = 0.05;

/// Remove/re-add pairs per round. Each round starts from the batch
/// result, so its edits land on a conflict-free layout.
pub const PAIRS_PER_ROUND: usize = 4;

/// Nets in the set every run edits (four rounds per pass).
pub const EDITED_NETS: usize = 16;

/// What the edits of one session did.
#[derive(Default)]
pub struct EcoLog {
    pub tally: Tally,
    pub apply: Vec<Duration>,
    pub invalidated: Vec<usize>,
    pub rerouted: Vec<u64>,
    pub undo: Vec<Duration>,
    pub redo: Vec<Duration>,
    /// Layout figures after each round's edits.
    pub quality: Vec<Quality>,
}

/// Routing quality of an edited layout.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub routability: f64,
    pub wirelength: f64,
    pub vias: f64,
    pub overlay: f64,
    pub conflicts: f64,
}

impl Quality {
    /// The mean over rounds. One round's result depends on which nets
    /// it edits; the mean over a run's rounds varies much less from seed
    /// to seed.
    pub fn mean(all: &[Quality]) -> Quality {
        let n = all.len().max(1) as f64;
        let sum = |f: fn(&Quality) -> f64| all.iter().map(f).sum::<f64>() / n;
        Quality {
            routability: sum(|q| q.routability),
            wirelength: sum(|q| q.wirelength),
            vias: sum(|q| q.vias),
            overlay: sum(|q| q.overlay),
            conflicts: sum(|q| q.conflicts),
        }
    }
}

/// Parses `layout` and opens an ECO session on its batch route.
pub fn open(layout: &str, traced: bool, spans: &mut Spans) -> Result<EcoSession, String> {
    let (parsed, _) = spans.time("grid.read_layout", || read_layout(layout));
    let (plane, netlist) = parsed.map_err(|e| format!("layout rejected: {e}"))?;
    let (eco, _) = spans.time("eco.create", || {
        EcoSession::create(config(1), plane, netlist, traced)
    });
    eco.map_err(|e| e.to_string())
}

fn verify(eco: &EcoSession, spans: &mut Spans) -> Verdict {
    let layers: Vec<_> = (0..eco.plane().layers())
        .map(|l| eco.router().patterns_on_layer(Layer(l)))
        .collect();
    let rules = *eco.plane().rules();
    spans
        .time("decomp.verify_layers", || verify_layers(&layers, &rules))
        .0
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The nets every run edits: `EDITED_NETS` nets spread over the plane,
/// the same for every seed. The nets are sorted by the 16×16-track tile
/// of their source pin and walked with a golden-ratio stride, so the
/// set samples all regions about evenly. An edit's cost depends mostly
/// on which net it touches; a fixed set makes every run measure the
/// same work, as `route_batch` routes the same instance.
pub fn edited_nets(eco: &EcoSession) -> Vec<NetId> {
    const TILE: i32 = 16;
    let mut nets: Vec<(i32, i32, NetId)> = eco
        .active_nets()
        .map(|id| {
            let p = eco.netlist().net(id).source.primary();
            (p.y / TILE, p.x / TILE, id)
        })
        .collect();
    nets.sort_unstable();
    let n = nets.len();
    let mut step = ((n as f64 * 0.618_033_988_75) as usize).max(1);
    while gcd(step, n) != 1 {
        step += 1;
    }
    (0..n.min(EDITED_NETS))
        .map(|k| nets[(k * step) % n].2)
        .collect()
}

fn undo_all(
    eco: &mut EcoSession,
    count: usize,
    spans: &mut Spans,
    log: &mut EcoLog,
) -> Result<(), String> {
    for _ in 0..count {
        let (r, d) = spans.time("eco.undo", || eco.undo());
        log.undo.push(d);
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// One round on a session sitting at its batch result (digest
/// `initial`): remove and re-add each of `nets`, verifying the layout
/// after every edit, then undo all of them, which must restore
/// `initial`. With `full` it also checks that the restored layout
/// verifies clean, then redoes all, which must restore the edited
/// layout, and undoes all again.
pub fn round(
    eco: &mut EcoSession,
    nets: &[NetId],
    initial: &str,
    full: bool,
    spans: &mut Spans,
    log: &mut EcoLog,
    out: &mut Outcome,
) {
    let mut applied = 0usize;
    let mut last = None;
    for &net in nets {
        let n = eco.netlist().net(net);
        let pins: Vec<Pin> = n.pins().cloned().collect();
        let name = n.name.clone();
        for edit in [EcoEdit::RemoveNet { net }, EcoEdit::AddNet { name, pins }] {
            spans.next_op();
            let (result, d) = spans.time("eco.apply", || eco.apply(edit));
            match result {
                Ok(outcome) => {
                    applied += 1;
                    log.apply.push(d);
                    log.invalidated.push(outcome.invalidated.len());
                    log.rerouted.push(outcome.rerouted);
                    // A layout the simulator finds cut conflicts in is a
                    // failed edit: the router's zero-conflict guarantee
                    // does not hold on it.
                    let verdict = verify(eco, spans);
                    log.tally.record(verdict.is_decomposable());
                    last = Some(verdict);
                }
                Err(e) => {
                    log.tally.record(false);
                    out.check(false, || format!("edit rejected: {e}"));
                }
            }
        }
    }
    if let Some(verdict) = last {
        let (routed, _, active) = eco.stats();
        let report = eco.router().report(eco.netlist(), Instant::now());
        log.quality.push(Quality {
            routability: 100.0 * routed as f64 / active as f64,
            wirelength: report.wirelength as f64,
            vias: report.vias as f64,
            overlay: verdict.total_overlay_units() as f64,
            conflicts: conflicts(&verdict) as f64,
        });
    }
    let edited = if full {
        eco.state_digest()
    } else {
        String::new()
    };
    if let Err(e) = undo_all(eco, applied, spans, log) {
        out.check(false, || format!("undo failed: {e}"));
        return;
    }
    out.check(eco.state_digest() == initial, || {
        "undo-all did not restore the batch result".into()
    });
    if !full {
        return;
    }
    let verdict = verify(eco, spans);
    out.check(conflicts(&verdict) == 0, || {
        format!("undo-all left {} cut conflicts", conflicts(&verdict))
    });
    for _ in 0..applied {
        let (r, d) = spans.time("eco.redo", || eco.redo());
        log.redo.push(d);
        if let Err(e) = r {
            out.check(false, || format!("redo failed: {e}"));
            return;
        }
    }
    out.check(eco.state_digest() == edited, || {
        "redo-all did not restore the edited layout".into()
    });
    if let Err(e) = undo_all(eco, applied, spans, log) {
        out.check(false, || format!("undo failed: {e}"));
    }
}

/// Runs rounds until `seconds` have passed, at least one. Each pass
/// over `nets` shuffles them with the seed's stream and splits them
/// into rounds of [`PAIRS_PER_ROUND`]. The first round also runs
/// redo-all.
pub fn rounds(
    eco: &mut EcoSession,
    nets: &[NetId],
    seed: u64,
    seconds: f64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> EcoLog {
    let initial = eco.state_digest();
    let verdict = verify(eco, spans);
    out.check(conflicts(&verdict) == 0, || {
        format!("the batch result has {} cut conflicts", conflicts(&verdict))
    });
    let mut log = EcoLog::default();
    let mut rng = Rng::seed_from_u64(seed);
    let mut pending: Vec<NetId> = Vec::new();
    let start = Instant::now();
    let mut first = true;
    loop {
        if pending.is_empty() {
            pending = nets.to_vec();
            for i in (1..pending.len()).rev() {
                pending.swap(i, rng.index(i + 1));
            }
        }
        let take = PAIRS_PER_ROUND.min(pending.len());
        let group: Vec<NetId> = pending.drain(..take).collect();
        round(eco, &group, &initial, first, spans, &mut log, out);
        first = false;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    log
}

/// The ECO-layer metrics of a log.
pub fn eco_layers(log: &EcoLog, out: &mut Outcome) {
    let inv: Vec<f64> = log.invalidated.iter().map(|&n| n as f64).collect();
    let n = inv.len().max(1) as f64;
    out.set("eco.invalidated_mean", inv.iter().sum::<f64>() / n);
    out.set(
        "eco.invalidated_max",
        inv.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "eco.rerouted_per_edit",
        log.rerouted.iter().sum::<u64>() as f64 / n,
    );
    out.set("eco.undo_ms_p50", median(&millis(&log.undo)).unwrap_or(0.0));
    out.set("eco.redo_ms_p50", median(&millis(&log.redo)).unwrap_or(0.0));
    out.check(log.invalidated.iter().any(|&n| n > 1), || {
        "vacuous: no edit invalidated a neighbouring net".into()
    });
}

/// `eco_edit`: edits on Test5×0.05.
pub fn eco_edit(args: &Args, spans: &mut Spans, out: &mut Outcome) {
    let layout = crate::route::test5(SCALE);
    let timed_open = |spans: &mut Spans| {
        spans.next_op();
        let open = spans.open("setup.eco_session");
        let created = self::open(&layout, args.trace, spans);
        (created, spans.close(open).as_secs_f64())
    };
    let (created, d) = timed_open(spans);
    let mut setups = vec![d];
    let mut eco = match created {
        Ok(eco) => eco,
        Err(e) => {
            out.check(false, || format!("ECO session failed: {e}"));
            return;
        }
    };
    let nets = edited_nets(&eco);
    let clock = crate::host::SchedClock::start();
    let log = rounds(&mut eco, &nets, args.seed, args.seconds, spans, out);
    out.sched(clock.stop());
    out.tally.add(log.tally);
    // The other set-up repeats run after the measured window (see the
    // crate docs), one session alive at a time as before it.
    drop(eco);
    for _ in 1..3 {
        let (created, d) = timed_open(spans);
        setups.push(d);
        drop(created);
    }
    out.set("setup_s", median(&setups).unwrap_or(0.0));

    let lat = millis(&log.apply);
    out.set("latency_ms_p50", median(&lat).unwrap_or(0.0));
    let busy: f64 = log.apply.iter().map(Duration::as_secs_f64).sum();
    out.set("throughput_per_s", log.apply.len() as f64 / busy);
    let q = Quality::mean(&log.quality);
    out.set("routability", q.routability);
    out.set("wirelength", q.wirelength);
    out.set("vias", q.vias);
    out.set("overlay_units", q.overlay);
    out.set("cut_conflicts", q.conflicts);
    out.note(format!(
        "eco_edit: {} edits in {} rounds ({} failed verification), {} undos, {} redos; {}",
        log.apply.len(),
        log.quality.len(),
        log.tally.failed,
        log.undo.len(),
        log.redo.len(),
        crate::tail_note(&lat)
    ));
    if args.trace {
        eco_layers(&log, out);
        crate::route::route_probe(&layout, 2, spans, out);
        crate::serve::serve_probe(args.seed, spans, out);
    }
}

/// The ECO layer on a small instance, for the traced runs of the other
/// workloads: one round of edits.
pub fn eco_probe(layout: &str, seed: u64, spans: &mut Spans, out: &mut Outcome) {
    match open(layout, true, spans) {
        Ok(mut eco) => {
            let nets = edited_nets(&eco);
            let log = rounds(&mut eco, &nets, seed, 0.0, spans, out);
            eco_layers(&log, out);
        }
        Err(e) => out.check(false, || format!("ECO probe failed: {e}")),
    }
}
