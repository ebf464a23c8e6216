//! The repository benchmark: three workloads driven through the
//! router's public API, measured end to end and layer by layer.
//!
//! ```text
//! sadp-e2ebench --workload <route_batch|eco_edit|serve_mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines above
//! it give the same metrics as a table, the host diagnostics and, for a
//! traced run, the self time of every span.
//!
//! Each workload times its set-up once before the measured window and
//! repeats it after the window, reporting the median. On the 2-vCPU
//! virtual machine the benchmark was tuned on, the CPU runs up to 1.8×
//! faster for a few seconds after being idle; set-up timed only at the
//! start of a run read either about 6 or about 11 ms for the same work.

mod eco;
mod host;
mod metrics;
mod route;
mod serve;
mod spans;
mod stats;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use spans::Spans;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["route_batch", "eco_edit", "serve_mixed"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed wants an unsigned integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds wants a number".to_string())?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The tail of a latency sample in ms, or why there is none.
pub fn tail_note(ms: &[f64]) -> String {
    let q = |p| stats::percentile(ms, p).unwrap_or(0.0);
    let quartiles = format!(
        "n={} p25 {:.2} ms, p50 {:.2} ms, p75 {:.2} ms",
        ms.len(),
        q(25.0),
        stats::median(ms).unwrap_or(0.0),
        q(75.0)
    );
    match stats::tail(ms) {
        Some((p, v)) => format!("{quartiles}, p{p} {v:.2} ms"),
        None => format!("{quartiles}, no tail (under 100 samples)"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: sadp-e2ebench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let load_start = host::loadavg().unwrap_or(0.0);
    let mut spans = Spans::new(args.trace);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "route_batch" => route::route_batch(&args, &mut spans, &mut out),
        "eco_edit" => eco::eco_edit(&args, &mut spans, &mut out),
        "serve_mixed" => serve::serve_mixed(&args, &mut spans, &mut out),
        _ => unreachable!("parse_args accepts only known workloads"),
    }
    out.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out.set("host.loadavg_start", load_start);
    out.set("host.loadavg_end", host::loadavg().unwrap_or(0.0));
    out.set("host.nproc", host::nproc() as f64);
    out.merge_spans(&spans);

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} seconds {} trace {}: {} ops attempted, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.tally.attempted,
        out.tally.failed
    );
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "host: nproc {}, loadavg {:.2} -> {:.2}, timed thread cpu {:.3} s, run-queue wait {:.3} ms",
        host::nproc(),
        load_start,
        out.values["host.loadavg_end"],
        out.values.get("host.cpu_s").copied().unwrap_or(0.0),
        out.values.get("host.runq_wait_ms").copied().unwrap_or(0.0)
    );
    print!("{}", out.table(list));
    if args.trace {
        println!(
            "spans ({} ops): name, calls, total s, self s",
            spans.traced_ops()
        );
        for (name, s) in &out.spans {
            println!(
                "  {name:<26} {:>7} {:>12.6} {:>12.6}",
                s.calls,
                s.total.as_secs_f64(),
                s.self_time.as_secs_f64()
            );
        }
    }
    for broken in &out.broken {
        eprintln!("check failed: {broken}");
    }
    match out.result_line(list) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
