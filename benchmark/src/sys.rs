//! What the benchmark reads from the operating system, and the two order
//! statistics every metric is built from.

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`. Linux
/// fixes `USER_HZ` at 100 on every architecture this builds for; without
/// `libc` there is no `sysconf` to ask.
const CLK_TCK: f64 = 100.0;

/// Process CPU time, all threads, user + system, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fixed fields follow its ')'.
    let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut it = fields.split_ascii_whitespace().skip(11);
    let mut next = || it.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (next() + next()) * 1000.0 / CLK_TCK
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1` or
/// `0,2-3`), in ascending order; empty if `/proc` does not say.
pub fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<u32>(), hi.parse::<u32>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample; 0 when
/// the sample is empty.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Ticks per window of [`windowed_p99`].
pub const P99_WINDOW: usize = 100;

/// The 99th percentile of each full window of [`P99_WINDOW`] consecutive
/// samples, reported as the median over the windows (the plain 99th
/// percentile while there are fewer than two windows). One noisy second
/// on this box lifts the plain p99 of a 600-tick run by 10–20%; it lifts
/// one window. Whatever recurs at least every hundred ticks — a snapshot
/// stall, a migration, a halo regrowth — is in every window.
pub fn windowed_p99(sample: &[f64]) -> f64 {
    if sample.len() < 2 * P99_WINDOW {
        return percentile(sample, 0.99);
    }
    let windows: Vec<f64> = sample
        .chunks_exact(P99_WINDOW)
        .map(|w| percentile(w, 0.99))
        .collect();
    median(&windows)
}

/// The median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_p99_shrugs_off_one_bad_window() {
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_p99(&v), 98.0);
        v[150..170].fill(1000.0);
        assert_eq!(windowed_p99(&v), 98.0);
        assert_eq!(percentile(&v, 0.99), 1000.0);
        assert_eq!(windowed_p99(&v[..150]), percentile(&v[..150], 0.99));
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-3"), [0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!allowed_cpus().is_empty());
        let before = cpu_ms();
        let mut x = 0u64;
        while cpu_ms() - before < 20.0 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
