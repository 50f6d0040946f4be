//! One-CPU affinity and peak-RSS readout for a benchmark child.
//!
//! The lab runs one task at a time and every handover is a cross-thread
//! condvar wake: across two CPUs the same run is bimodal in host time
//! (0.4 s / 4.4 s measured), on one CPU it is steady. So every measured
//! process pins itself before it spawns its first task.

/// `cpu_set_t` as the kernel sees it: a 1024-bit mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pin the calling thread (and every thread it spawns afterwards) to
/// one CPU: the last one it is allowed on, which on a shared host is
/// the one least likely to serve interrupts. Returns `(cpus allowed
/// before pinning, cpu chosen)`, or `None` if the kernel refused.
pub fn pin_to_one_cpu() -> Option<(usize, usize)> {
    let allowed = allowed_cpus();
    let cpu = *allowed.last()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    (rc == 0).then_some((allowed.len(), cpu))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
