//! Host facts recorded beside every result, and process memory.

use std::time::Instant;

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The CPU model string from `/proc/cpuinfo` (`unknown` elsewhere).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn spin(iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iterations {
        x = x.rotate_left(7) ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    std::hint::black_box(x)
}

/// Measured effective parallelism of two threads: the time one thread
/// takes for a fixed spin, times two, over the time two threads take to
/// do that spin each. About 2.0 on two free cores, about 1.0 when the
/// host gives one core of throughput.
pub fn effective_parallelism() -> f64 {
    const WORK: u64 = 20_000_000;
    spin(WORK / 4);
    let t0 = Instant::now();
    spin(WORK);
    let one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(WORK));
        let b = s.spawn(|| spin(WORK));
        a.join().expect("spin thread");
        b.join().expect("spin thread");
    });
    let two = t0.elapsed().as_secs_f64();
    2.0 * one / two
}

/// A CPU set as `sched_setaffinity` takes it: one bit per logical CPU.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Keeps the thread that made it, and every thread that thread starts
/// while it lives, on one CPU; dropping it restores the CPU set the
/// thread had. See [`pin_to_current_cpu`].
pub struct Pinned {
    previous: Option<CpuMask>,
}

/// Pins the calling thread, and the threads it starts from now on, to
/// the CPU it is running on. Threads on one CPU share that CPU's speed,
/// which lets a probe on one thread stand for work on another. Does
/// nothing where the CPU set cannot be read or set.
pub fn pin_to_current_cpu() -> Pinned {
    #[cfg(target_os = "linux")]
    {
        let size = std::mem::size_of::<CpuMask>();
        let mut previous: CpuMask = [0; 16];
        // SAFETY: both calls read or write exactly `size` bytes of a
        // live, properly aligned array; pid 0 is the calling thread.
        unsafe {
            let cpu = sched_getcpu();
            if cpu >= 0
                && (cpu as usize) < size * 8
                && sched_getaffinity(0, size, previous.as_mut_ptr()) == 0
            {
                let mut one: CpuMask = [0; 16];
                one[cpu as usize / 64] = 1 << (cpu as usize % 64);
                if sched_setaffinity(0, size, one.as_ptr()) == 0 {
                    return Pinned {
                        previous: Some(previous),
                    };
                }
            }
        }
    }
    Pinned { previous: None }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(previous) = &self.previous {
            // SAFETY: as in `pin_to_current_cpu`.
            unsafe {
                sched_setaffinity(0, std::mem::size_of::<CpuMask>(), previous.as_ptr());
            }
        }
    }
}
