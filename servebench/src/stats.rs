//! Order statistics and process counters.

/// Samples beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-quantile of `samples` (sorted in place), with the count
/// of samples strictly beyond its rank. `None` when empty.
pub fn quantile(samples: &mut [f64], p: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((samples[rank - 1], n - rank))
}

/// A latency percentile as the benchmark reports it: only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &mut [f64], p: f64, what: &str) -> Result<f64, String> {
    match quantile(samples, p) {
        Some((v, beyond)) if beyond >= MIN_BEYOND => Ok(v),
        other => Err(format!(
            "{what}: p{} needs {MIN_BEYOND} samples beyond it; {} samples give {}",
            p * 100.0,
            samples.len(),
            other.map_or(0, |(_, b)| b)
        )),
    }
}

/// A robust latency percentile: split `[0, span)` into `segments` equal
/// slices by due time, take the `p`-quantile of each slice where it is
/// reportable, and return the median of those with the number of slices it
/// came from. A noisy second moves one slice, not the figure.
pub fn segmented(
    samples: &[(f64, f64)],
    span: f64,
    segments: usize,
    p: f64,
    what: &str,
) -> Result<(f64, usize), String> {
    let mut slices = vec![Vec::new(); segments];
    for &(at, v) in samples {
        let i = ((at / span * segments as f64) as usize).min(segments - 1);
        slices[i].push(v);
    }
    let mut per: Vec<f64> = slices
        .iter_mut()
        .filter_map(|s| quantile(s, p).filter(|&(_, beyond)| beyond >= MIN_BEYOND).map(|(v, _)| v))
        .collect();
    if per.len() * 2 < segments {
        return Err(format!(
            "{what}: p{} is reportable in only {} of {segments} slices of {} samples",
            p * 100.0,
            per.len(),
            samples.len()
        ));
    }
    Ok((median(&mut per), per.len()))
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Plain nearest-rank quantile for per-layer figures (0 when empty).
pub fn q(samples: &mut [f64], p: f64) -> f64 {
    quantile(samples, p).map_or(0.0, |(v, _)| v)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

/// The machine's `(steal, total)` CPU ticks so far, from `/proc/stat`.
/// Steal is time the hypervisor ran something else while a virtual CPU
/// wanted to run; a run with much of it measured the host, not the stack.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some((500.0, 500)));
        assert_eq!(quantile(&mut v, 0.99), Some((990.0, 10)));
        assert!(tail(&mut v, 0.99, "x").is_ok());
        assert!(tail(&mut v[..999], 0.99, "x").is_err());
    }
}
