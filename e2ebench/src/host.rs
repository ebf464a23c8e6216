//! Host-noise diagnostics: enough to tell a slow run caused by the
//! machine from one caused by the code.

use std::time::Duration;

/// CPU time and run-queue wait of the calling thread, from
/// `/proc/thread-self/schedstat` (`None` where the kernel lacks it).
pub fn thread_sched() -> Option<(Duration, Duration)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    let cpu = fields.next()??;
    let wait = fields.next()??;
    Some((Duration::from_nanos(cpu), Duration::from_nanos(wait)))
}

/// One-minute load average.
pub fn loadavg() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Scheduler figures of one thread over the timed part of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sched {
    pub cpu: Duration,
    pub wait: Duration,
}

/// Measures the calling thread's CPU time and run-queue wait from
/// `start` to the call.
pub struct SchedClock(Option<(Duration, Duration)>);

impl SchedClock {
    pub fn start() -> SchedClock {
        SchedClock(thread_sched())
    }

    pub fn stop(self) -> Sched {
        match (self.0, thread_sched()) {
            (Some((c0, w0)), Some((c1, w1))) => Sched {
                cpu: c1.saturating_sub(c0),
                wait: w1.saturating_sub(w0),
            },
            _ => Sched::default(),
        }
    }
}
