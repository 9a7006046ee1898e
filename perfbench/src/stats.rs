//! Order statistics over timing samples.

pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile (`q` in `[0, 1]`) of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// The highest percentile that still has at least ten samples above it:
/// `(percentile, value)`, or `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 11 {
        return None;
    }
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// CPU time the hypervisor has taken from this virtual machine so far,
/// summed over its CPUs, in seconds (`/proc/stat` counts 1/100 s). A run
/// reports how much it lost, which explains a slow outlier.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |jiffies| jiffies / 100.0)
}

/// A timed sample is clean when the hypervisor took at most this share of
/// the machine's CPU time while it ran. On a shared host, steal bursts of
/// tens of seconds slow every operation in them by up to 2×; the steal
/// counter measures them, so the benchmark can set those samples aside
/// instead of reporting the neighbours' load.
pub const STEAL_TOLERANCE: f64 = 0.02;
/// Clean samples wanted before a median uses only clean samples.
pub const MIN_CLEAN: usize = 3;

/// Measures the steal share of the machine's CPU time over one sample.
pub struct StealMeter {
    steal0: f64,
    start: std::time::Instant,
    nproc: usize,
}

impl StealMeter {
    pub fn start(nproc: usize) -> Self {
        StealMeter {
            steal0: steal_s(),
            start: std::time::Instant::now(),
            nproc,
        }
    }

    pub fn share(&self) -> f64 {
        let capacity = self.start.elapsed().as_secs_f64() * self.nproc as f64;
        ((steal_s() - self.steal0) / capacity.max(1e-9)).max(0.0)
    }
}

/// Median of the clean samples (steal share within [`STEAL_TOLERANCE`]);
/// with fewer than [`MIN_CLEAN`] of them, the median of the least-stolen
/// half. Returns the median and how many samples it used.
pub fn clean_median(values: &[f64], steal: &[f64]) -> (f64, usize) {
    let clean: Vec<f64> = values
        .iter()
        .zip(steal)
        .filter(|(_, &s)| s <= STEAL_TOLERANCE)
        .map(|(&v, _)| v)
        .collect();
    if clean.len() >= MIN_CLEAN.min(values.len()) {
        return (median(&clean), clean.len());
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let half: Vec<f64> = order[..values.len().div_ceil(2)]
        .iter()
        .map(|&i| values[i])
        .collect();
    (median(&half), half.len())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
