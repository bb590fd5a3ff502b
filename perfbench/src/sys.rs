//! Process-level measurements (CPU time, the core's speed, peak memory) and
//! small numeric helpers shared by every workload.
//!
//! The benchmark's end-to-end times are on-CPU times, scaled by the speed
//! of the core around each operation (see [`Meter`]). On a virtual machine
//! whose host is shared, wall-clock time also counts the time the host runs
//! other guests (steal) and the time other processes hold the CPU; a
//! kernel with paravirtual steal accounting leaves both out of a process's
//! CPU clock.

use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters, of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn timeval_s(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// CPU seconds this process (all its threads) has run so far, to the
/// nanosecond.
pub fn cpu_now() -> f64 {
    let mut time = [0i64; 2];
    // SAFETY: `time` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux); clock_gettime only writes it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(rc, 0, "the process CPU clock is always available");
    time[0] as f64 + time[1] as f64 * 1e-9
}

/// Values the reference work sorts and chases through.
const REFERENCE_LEN: usize = 16_384;

/// A fixed piece of work that owes nothing to the program under test: sort
/// 16,384 pseudo-random words, then chase 16,384 indices through them
/// (about 0.4 ms). Its CPU time tells how fast the core runs at the moment.
pub fn reference_work() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut values: Vec<u64> = (0..REFERENCE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    values.sort_unstable();
    let mut at = 0usize;
    let mut sum = 0u64;
    for _ in 0..REFERENCE_LEN {
        at = (values[at] % REFERENCE_LEN as u64) as usize;
        sum = sum.wrapping_add(values[at]);
    }
    sum
}

/// CPU milliseconds [`reference_work`] takes on the nominal core that
/// scaled times refer to (about its median on a 2-vCPU Xeon virtual
/// machine on a shared host).
pub const REFERENCE_MS: f64 = 0.40;

/// Runs of the reference work per reading; the reading is their median.
const REFERENCE_RUNS: usize = 3;

/// A reading older than this is taken again before the next operation.
const READING_FRESH_FOR: Duration = Duration::from_millis(20);

/// CPU milliseconds of the reference work now: the median of three runs.
fn reference_ms() -> f64 {
    let runs: Vec<f64> = (0..REFERENCE_RUNS)
        .map(|_| {
            let start = cpu_now();
            std::hint::black_box(reference_work());
            (cpu_now() - start) * 1e3
        })
        .collect();
    median(&runs)
}

/// The time one set-up or operation took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds scaled to the nominal core: `cpu_s` times
    /// [`REFERENCE_MS`] over the mean of the reference readings taken just
    /// before and just after.
    pub scaled_s: f64,
}

impl std::ops::Add for Timing {
    type Output = Timing;

    fn add(self, other: Timing) -> Timing {
        Timing {
            cpu_s: self.cpu_s + other.cpu_s,
            wall_s: self.wall_s + other.wall_s,
            scaled_s: self.scaled_s + other.scaled_s,
        }
    }
}

/// Times operations on the process CPU clock and reads the core's speed,
/// with the reference work, right before and right after each one.
///
/// The host of a small virtual machine runs its cores faster or slower as
/// its load changes, over tens of milliseconds to minutes; the CPU clock
/// counts that, so raw CPU times of the same work spread by tens of percent
/// between runs. Scaling each operation by the reference readings around it
/// cancels most of that, and a change to the program moves the scaled time
/// as much as the raw one.
#[derive(Debug)]
pub struct Meter {
    /// The latest reading and when it ended.
    last: Option<(f64, Instant)>,
    readings: Vec<f64>,
}

impl Default for Meter {
    fn default() -> Self {
        Self::new()
    }
}

impl Meter {
    pub fn new() -> Self {
        Meter {
            last: None,
            readings: Vec::new(),
        }
    }

    fn read(&mut self) -> f64 {
        let ms = reference_ms();
        self.readings.push(ms);
        self.last = Some((ms, Instant::now()));
        ms
    }

    /// Runs `f` and returns its result with its timing.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = match self.last {
            Some((ms, at)) if at.elapsed() < READING_FRESH_FOR => ms,
            _ => self.read(),
        };
        let wall = Instant::now();
        let cpu = cpu_now();
        let out = f();
        let cpu_s = cpu_now() - cpu;
        let wall_s = wall.elapsed().as_secs_f64();
        let after = self.read();
        let scaled_s = cpu_s * REFERENCE_MS / ((before + after) / 2.0);
        (
            out,
            Timing {
                cpu_s,
                wall_s,
                scaled_s,
            },
        )
    }

    /// Median of the reference readings so far, in CPU ms.
    pub fn reference_ms(&self) -> f64 {
        median(&self.readings)
    }
}

/// CPU time and peak resident memory of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

impl From<&RUsage> for Usage {
    fn from(usage: &RUsage) -> Self {
        Usage {
            cpu_s: timeval_s(usage.utime) + timeval_s(usage.stime),
            peak_rss_mb: usage.maxrss as f64 / 1024.0,
        }
    }
}

/// CPU time and peak RSS of this process so far. The peak is the address
/// space's high-water mark (`VmHWM`), not `ru_maxrss`, which keeps the peak
/// of the image this process was exec'd from (e.g. `cargo run`).
pub fn self_usage() -> Usage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the layout
    // the kernel ABI specifies for 64-bit Linux; getrusage only writes it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        });
    Usage {
        peak_rss_mb: hwm_kib.map_or(Usage::from(&usage).peak_rss_mb, |kib| kib / 1024.0),
        ..Usage::from(&usage)
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
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

/// 64-bit FNV-1a, used for answer fingerprints and the source digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn a_timing_scales_cpu_time_by_the_reference_readings() {
        let mut meter = Meter::new();
        let (x, t) = meter.time(|| {
            let start = cpu_now();
            let mut x = 0u64;
            while cpu_now() - start < 0.02 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            x
        });
        assert!(x > 0);
        assert!(t.cpu_s >= 0.02 && t.wall_s > 0.0);
        // Two readings, one before and one after.
        assert_eq!(meter.readings.len(), 2);
        let mean = (meter.readings[0] + meter.readings[1]) / 2.0;
        assert!((t.scaled_s - t.cpu_s * REFERENCE_MS / mean).abs() < 1e-12);
        // A fresh reading is reused as the next operation's "before".
        // (unless the thread was held off the CPU for that long).
        meter.time(|| ());
        assert!(matches!(meter.readings.len(), 3 | 4));
    }

    #[test]
    fn self_usage_reports_cpu_and_memory() {
        let usage = self_usage();
        assert!(usage.peak_rss_mb > 0.0);
        assert!(usage.cpu_s >= 0.0);
    }
}
