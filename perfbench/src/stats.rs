//! Order statistics and process counters read from `/proc`.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it: `(value, percentile)`. With ten or fewer samples no percentile
/// qualifies, and the maximum is returned as percentile 100.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    let i = n - 11;
    (v[i], 100.0 * (i + 1) as f64 / n as f64)
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Live threads of this process.
pub fn threads() -> f64 {
    status_kb("Threads:")
}

/// User + system CPU time of the whole process so far, ms (10 ms ticks).
pub fn cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // utime and stime are fields 14 and 15 of the line, i.e. the 12th and
    // 13th after the parenthesised command name (which may hold spaces).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) * 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
