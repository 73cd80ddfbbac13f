//! Order statistics and process counters read from `/proc`.

/// The `q`-quantile of `values` (nearest rank on the sorted samples).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile range of `values` as a share of their median (0 for a
/// single sample).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / mid
}

/// A `kB` field of `/proc/self/status`, in bytes (0 where unavailable).
fn status_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let rest = line.strip_prefix(field)?.strip_prefix(':')?;
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Current resident set size in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// Peak resident set size (`VmHWM`) in bytes, since the process started
/// or since the last [`reset_peak_rss`].
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Fixes the C allocator's mmap threshold at its default of 128 KiB. By
/// default glibc raises the threshold after large blocks are freed, so
/// whether a later large block is mapped or carved from the heap, and
/// with it a pass's peak memory, depends on what ran before. Call once at
/// start-up.
pub fn fix_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two plain integers and only changes the
        // allocator's tuning; it is called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns freed heap memory to the system and restarts the peak
/// resident set size from the current one (Linux `clear_refs`), so that a
/// peak can be read per pass. Where the reset is not possible the peak
/// keeps counting from process start.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes a plain integer and only releases free
    // memory held by the allocator.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Time this thread has spent runnable but waiting for a CPU, in
/// seconds (the second field of `/proc/thread-self/schedstat`; 0 where
/// unavailable).
pub fn runqueue_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!((iqr_frac(&v) - (8.0 - 3.0) / 5.0).abs() < 1e-12);
    }
}
