//! Order statistics, run context and the process's peak memory.

use std::time::Instant;

/// Nearest-rank percentile of unsorted samples, `q` in `[0, 1]`; `NaN`
/// when there are none.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// CPUs this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MiB (`VmHWM`), `NaN` where the
/// kernel does not report it.
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
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The host's CPU model name, as `/proc/cpuinfo` reports it.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host's cumulative CPU accounting from `/proc/stat`: busy, idle and
/// steal ticks (steal is time the hypervisor ran someone else).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters now (zeros where the kernel has none).
    #[must_use]
    pub fn now() -> Self {
        let ticks: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .take(8)
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        Self {
            total: ticks.iter().sum(),
            steal: ticks.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen since `self` was read.
    #[must_use]
    pub fn steal_share(&self) -> f64 {
        let now = Self::now();
        (now.steal - self.steal) as f64 / (now.total - self.total).max(1) as f64
    }
}

/// A fixed reference computation, a dense 256 × 256 matrix–vector
/// product, sampled next to the operations it normalizes, so the host's
/// speed at the time (turbo, a busy sibling hyperthread) largely cancels
/// out of their ratio.
#[derive(Debug)]
pub struct RefKernel {
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    times: Vec<f64>,
}

impl RefKernel {
    const N: usize = 256;

    #[must_use]
    pub fn new() -> Self {
        let n = Self::N;
        Self {
            a: (0..n * n)
                .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
                .collect(),
            x: (0..n).map(|i| (i % 17) as f64).collect(),
            y: vec![0.0; n],
            times: Vec::new(),
        }
    }

    /// Runs the kernel once, records its wall time and returns it in
    /// seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for (row, y) in self.a.chunks_exact(Self::N).zip(self.y.iter_mut()) {
            *y = row.iter().zip(&self.x).map(|(a, x)| a * x).sum();
        }
        std::hint::black_box(&mut self.y);
        let took = secs(start);
        self.times.push(took);
        took
    }

    /// Runs the kernel on `threads` threads at once (each on its own copy)
    /// and records every thread's time: the reference for work that keeps
    /// that many CPUs busy.
    pub fn sample_parallel(&mut self, threads: usize) {
        let mut copies: Vec<RefKernel> = (0..threads).map(|_| RefKernel::new()).collect();
        std::thread::scope(|s| {
            for k in &mut copies {
                s.spawn(move || k.sample());
            }
        });
        self.times.extend(copies.into_iter().flat_map(|k| k.times));
    }

    /// Median sampled time, seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// CPU seconds this process has used (user + system), from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
#[must_use]
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Quotes a string as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a number as JSON: every digit Rust prints, `null` when not
/// finite.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_rendering() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
