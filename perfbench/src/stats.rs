//! Sample statistics, clocks, the seed → input mapping, and process
//! memory.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for even lengths; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Percentiles the tail may be read at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond the tail percentile.
const TAIL_BEYOND: usize = 10;

/// The tail percentile of a workload whose runs take at least `min_ops`
/// operations: the highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it at that count (100, the maximum, if
/// none has).
///
/// It depends on the workload's guaranteed count, never on how many
/// operations one run happened to complete: a percentile read from the
/// count itself flips between two rungs of the ladder when runs land on
/// either side of a rung's threshold, and the tail jumps with it.
pub fn tail_percentile(min_ops: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| samples_beyond(min_ops, p) >= TAIL_BEYOND)
        .unwrap_or(100.0)
}

/// Samples of `n` that lie beyond percentile `p`.
fn samples_beyond(n: usize, p: f64) -> usize {
    // The small offset absorbs rounding in `100 - p`.
    ((n as f64) * (100.0 - p) / 100.0 + 1e-6).floor() as usize
}

/// Percentile `p` of `v`, with the samples beyond it: the largest sample
/// that has `floor(n (100 − p) / 100)` samples above it. Returns
/// `(value, beyond)`; `(0, 0)` if `v` is empty.
pub fn tail(v: &[f64], p: f64) -> (f64, usize) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0);
    }
    let beyond = samples_beyond(n, p).min(n - 1);
    (s[n - beyond - 1], beyond)
}

/// Initial-condition amplitude scale in `[0.95, 1.05]` drawn from `seed`
/// (splitmix64), so the same seed gives the same inputs.
pub fn amplitude_from_seed(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    0.95 + 0.1 * u
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has run so far, over all its threads,
/// including threads that have already exited. Time the hypervisor
/// steals from the virtual CPUs is not counted.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout on
    // 64-bit Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A wall-clock and process-CPU reading.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    /// Reads both clocks.
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// (wall ms, CPU ms) since this reading.
    pub fn elapsed_ms(&self) -> (f64, f64) {
        let cpu = process_cpu_s();
        (
            self.wall.elapsed().as_secs_f64() * 1e3,
            (cpu - self.cpu) * 1e3,
        )
    }
}

/// Paired wall-clock and CPU samples, in ms.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall-clock ms.
    pub wall: Vec<f64>,
    /// Process CPU ms.
    pub cpu: Vec<f64>,
}

impl Samples {
    /// Adds one `(wall, cpu)` sample.
    pub fn push(&mut self, (wall, cpu): (f64, f64)) {
        self.wall.push(wall);
        self.cpu.push(cpu);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }
}

/// Points per axis of the reference kernel's tensor.
const REF_N: usize = 8;
/// Sweeps per reference-kernel call (2.5 to 5 ms of CPU time on a
/// 2-vCPU Intel Xeon virtual machine, depending on the host's load).
const REF_SWEEPS: usize = 400;

/// Process CPU ms of one call of the fixed reference kernel on the
/// calling thread: `REF_SWEEPS` three-direction contractions of an 8³
/// tensor with an 8 × 8 matrix, the same kind of L1-resident
/// floating-point loop nest as the solver's sum-factored kernels, on the
/// same data every call.
///
/// The benchmark runs it next to every operation and reports operation
/// costs as multiples of it, which cancels the speed changes a shared
/// machine imposes (see `README.md`). It is part of the benchmark's
/// definition: changing it rescales every cost figure.
pub fn reference_kernel_cpu_ms() -> f64 {
    let t = Stamp::now();
    reference_kernel();
    t.elapsed_ms().1
}

/// How one reference reading is taken.
#[derive(Clone, Copy)]
pub enum RefReading {
    /// One call on the calling thread, for single-threaded operations:
    /// it runs on the vCPU the operation runs on.
    Caller,
    /// The mean of one call pinned to each CPU the process may use, one
    /// after another, for operations spread over all of them. Two copies
    /// started together instead overlap differently on every call and
    /// jitter by 15–20 % per reading; one unpinned call samples whichever
    /// vCPU it lands on.
    EachCpu,
}

impl RefReading {
    /// Takes one reading, in CPU ms.
    pub fn read(self) -> f64 {
        match self {
            RefReading::Caller => reference_kernel_cpu_ms(),
            RefReading::EachCpu => reference_each_cpu_ms(),
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// 64-bit words of a CPU mask (1,024 CPUs).
const MASK_WORDS: usize = 16;
/// Most CPUs [`RefReading::EachCpu`] reads one by one; with more, a
/// reading would take longer than the operation, and it falls back to
/// one call on the calling thread.
const MAX_PINNED_CPUS: usize = 4;

/// Mean CPU ms of one reference call pinned to each CPU of the calling
/// thread's affinity mask, which is restored afterwards.
fn reference_each_cpu_ms() -> f64 {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: the mask buffer is valid and writable for its full size;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return reference_kernel_cpu_ms();
    }
    let cpus: Vec<usize> = (0..MASK_WORDS * 64)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() || cpus.len() > MAX_PINNED_CPUS {
        return reference_kernel_cpu_ms();
    }
    let mut sum = 0.0;
    for &cpu in &cpus {
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; the mask names one CPU of the allowed set.
        // If pinning fails, the call simply runs unpinned.
        unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) };
        sum += reference_kernel_cpu_ms();
    }
    // SAFETY: restores the mask read above.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, allowed.as_ptr()) };
    sum / cpus.len() as f64
}

fn reference_kernel() {
    let n = REF_N;
    let d: Vec<f64> = (0..n * n)
        .map(|i| ((i * 7 % 13) as f64 - 6.0) * 0.1)
        .collect();
    let mut u: Vec<f64> = (0..n * n * n).map(|i| (i % 17) as f64 * 0.01).collect();
    let mut g = vec![0.0; n * n * n];
    for _ in 0..REF_SWEEPS {
        for i3 in 0..n {
            for i2 in 0..n {
                for i1 in 0..n {
                    let mut acc = 0.0;
                    for m in 0..n {
                        acc += d[m * n + i1] * u[m + n * (i2 + n * i3)];
                        acc += d[m * n + i2] * u[i1 + n * (m + n * i3)];
                        acc += d[m * n + i3] * u[i1 + n * (i2 + n * m)];
                    }
                    // Contracting map with a fixed point: values stay
                    // normal and bounded, so every call does identical work.
                    g[i1 + n * (i2 + n * i3)] = acc * 0.01 + (acc.abs() + 1.0).sqrt() * 1e-3;
                }
            }
        }
        std::mem::swap(&mut u, &mut g);
    }
    std::hint::black_box(&u);
}

/// Costs of operations in reference-kernel units: operation `i`'s CPU ms
/// over the mean of the reference readings just before and just after
/// it (`refs` holds one more entry than `ops_cpu`).
pub fn reference_costs(ops_cpu: &[f64], refs: &[f64]) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        ops_cpu.len() + 1,
        "one reference call around each operation"
    );
    ops_cpu
        .iter()
        .zip(refs.windows(2))
        .map(|(op, r)| op / (0.5 * (r[0] + r[1])))
        .collect()
}

/// Peak resident set of this process (VmHWM) in MB, 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the CPU cache at `index` (2 = L2, 3 = L3) as the kernel
/// reports it, e.g. `"2048K"`.
pub fn cache_size(index: usize) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 100.0);
        let v: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), (134.0, 15));
        // More samples keep the percentile; only the count beyond grows.
        let w: Vec<f64> = (0..300).map(f64::from).collect();
        assert_eq!(tail(&w, 90.0), (269.0, 30));
        assert_eq!(tail(&v, 100.0), (149.0, 0));
    }

    #[test]
    fn amplitude_stays_in_range_and_repeats() {
        for seed in 0..1000 {
            let a = amplitude_from_seed(seed);
            assert!((0.95..=1.05).contains(&a));
            assert_eq!(a, amplitude_from_seed(seed));
        }
    }

    #[test]
    fn each_cpu_reading_restores_the_mask() {
        let mut before = [0u64; MASK_WORDS];
        let mut after = [0u64; MASK_WORDS];
        // SAFETY: valid, writable mask buffers; pid 0 is this thread.
        unsafe { sched_getaffinity(0, MASK_WORDS * 8, before.as_mut_ptr()) };
        assert!(RefReading::EachCpu.read() > 0.0);
        unsafe { sched_getaffinity(0, MASK_WORDS * 8, after.as_mut_ptr()) };
        assert_eq!(before, after);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
