//! Host readings (CPU time, peak memory, steal) and small statistics helpers.

use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used so far, all threads, live or exited.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its closing ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after the name.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU nanoseconds the calling thread has used (`/proc/thread-self/schedstat`),
/// or `None` where the kernel does not provide it.
#[must_use]
pub fn thread_cpu_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Seconds of CPU the calling thread spends in `f` (wall seconds where the
/// per-thread counter is missing), with its result.  Unlike wall time, this
/// leaves out time the host's hypervisor stole from the thread.
pub fn thread_cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let before = thread_cpu_ns();
    let (wall_s, out) = timed(f);
    match (before, thread_cpu_ns()) {
        (Some(b), Some(a)) => ((a.saturating_sub(b)) as f64 / 1e9, out),
        _ => (wall_s, out),
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Aggregate CPU counters from the first line of `/proc/stat`: (steal, total).
fn cpu_totals() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let values: Vec<u64> = line
        .split_whitespace()
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    // time is already counted in user.
    let steal = *values.get(7)?;
    let total = values.iter().take(8).sum();
    Some((steal, total))
}

/// Share of host CPU time stolen by the hypervisor between `start` and now.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Starts measuring.
    #[must_use]
    pub fn start() -> Self {
        StealMeter(cpu_totals())
    }

    /// Steal over total CPU ticks since [`StealMeter::start`] (0 when unreadable).
    #[must_use]
    pub fn share(&self) -> f64 {
        match (self.0, cpu_totals()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Logical CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f`, returning its wall time in seconds with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of `values` (mean of the middle pair for even lengths; 0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        let meter = StealMeter::start();
        assert!((0.0..=1.0).contains(&meter.share()));
        assert!(cpu_seconds() >= 0.0);
        let (cpu_s, ()) = thread_cpu_timed(|| {
            let start = Instant::now();
            while start.elapsed().as_millis() < 20 {
                std::hint::spin_loop();
            }
        });
        assert!(cpu_s > 0.0 && cpu_s < 1.0, "{cpu_s}");
        assert!(nproc() >= 1);
    }
}
