//! Small helpers shared by every workload: order statistics, a stable
//! hash for fingerprints, and peak-memory readings from `/proc`.

use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Median of `values` (the mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The smallest of `values`: for repeated timings of the same work, the
/// sample least disturbed by anything else on the host. `0.0` when empty.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` (0..=100) of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail latency the benchmark reports for `n` samples: the highest of
/// p99 and p90 that still has at least ten samples beyond it, else the
/// slowest sample. Returns the percentile used (`100.0` for the maximum).
pub fn tail_percentile(n: usize) -> f64 {
    if n >= 1000 {
        99.0
    } else if n >= 100 {
        90.0
    } else {
        100.0
    }
}

/// 64-bit FNV-1a: a stable, dependency-free fingerprint hash.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one `u32` (little-endian) into the hash.
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `VmHWM` (peak resident set) of process `pid` in KiB, if readable.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Owns a child process until it is handed over; dropping it kills and
/// reaps the child, on every exit path including unwinding.
pub struct ChildGuard(pub Option<Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending;
/// empty when unreadable.
pub fn allowed_cpus() -> Vec<u32> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.split('-').map(|x| x.trim().parse::<u32>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => {}
        }
    }
    cpus
}

/// Pin the calling thread, and so every process it spawns afterwards, to
/// `cpu` with `taskset`. Returns whether that worked.
pub fn pin_to_cpu(cpu: u32) -> bool {
    Command::new("taskset")
        .args([
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// A duration in nanoseconds, saturating.
pub fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[4.0, 1.5, 2.0]), 1.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(tail_percentile(99), 100.0);
        assert_eq!(tail_percentile(110), 90.0);
        assert_eq!(tail_percentile(40_000), 99.0);
    }
}
