//! Measurement helpers shared by every workload: exact percentiles, the
//! output digest, the truncation classifier and the host fingerprint.

use std::hint::black_box;
use std::time::Instant;

/// Exact nearest-rank `q`-quantile of `samples` (`0 < q < 1`).
///
/// Returns `None` unless at least ten samples lie beyond the reported rank:
/// a tail percentile read off fewer samples than that says nothing.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(rank - 1).copied()
}

/// Whether a simulation ran into its cycle cap. A run that stops at
/// `max_cycles` did not retire its instruction budget, whatever its per-core
/// IPC says (IPC divides by the cycles simulated so far, so it stays nonzero).
pub fn truncated(cycles: u64, max_cycles: u64) -> bool {
    cycles >= max_cycles
}

/// 64-bit FNV-1a over canonical result lines, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one line (and a separator) into the digest.
    pub fn line(&mut self, text: &str) {
        for &byte in text.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of the given lines, in order.
    pub fn of<S: AsRef<str>>(lines: &[S]) -> Digest {
        let mut digest = Digest::default();
        for line in lines {
            digest.line(line.as_ref());
        }
        digest
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Wall milliseconds of a fixed integer loop (2^26 xorshift steps): a
/// host-speed yardstick recorded next to every result so numbers from
/// different hosts can be normalized. Not gated.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..(1u64 << 26) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.01), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it; p90 has exactly ten.
        assert_eq!(percentile(&samples, 0.99), None);
        assert!(percentile(&samples, 0.9).is_some());
        assert_eq!(percentile(&samples[..99], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&samples, 1.0), None);
    }

    #[test]
    fn truncation_classifier_flags_the_cap() {
        assert!(truncated(30_000_000, 30_000_000));
        assert!(truncated(30_000_001, 30_000_000));
        assert!(!truncated(29_999_999, 30_000_000));
        assert!(!truncated(0, 30_000_000));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let a = Digest::of(&["x", "y"]);
        assert_eq!(a, Digest::of(&["x", "y"]));
        assert_ne!(a, Digest::of(&["y", "x"]));
        // Line boundaries matter: "xy" is not "x" then "y".
        assert_ne!(a, Digest::of(&["xy"]));
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
