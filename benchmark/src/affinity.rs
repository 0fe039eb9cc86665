//! Thread placement through raw `sched_{get,set}affinity` (no `libc`
//! crate offline; std already links the C library that exports them).
//!
//! The generator and the server's threads are pinned to one CPU (see
//! [`place_generator`] for why one and not two), so the scheduler never
//! migrates either mid-run. Where the calls are refused (non-Linux,
//! seccomp) the benchmark runs unpinned and says so in `client.pinned`.

/// CPUs one mask covers; enough for any host this runs on.
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs this thread may run on, lowest first. Empty when the call
/// is unavailable or refused.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
}

/// Pin the calling thread (and every thread it later spawns) to `cpu`.
/// Returns whether the kernel accepted.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte length passed
    // and is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpu: usize) -> bool {
    false
}

/// Pin the calling (generator) thread to the last allowed CPU and
/// return that CPU for the server's threads to share. `None` — and
/// nothing pinned — when the calls are unavailable or refused.
///
/// One core for both sides, on purpose. The loop is closed: while the
/// client waits the server runs, and the reverse, so the two never
/// compete. On the 2-vCPU reference VM a wake-up across cores costs
/// 35–45 us each way (the idle vCPU halts, and the hypervisor has to
/// reschedule it), which made `point-wire` 66–120 us of which 12 us was
/// the program; on one core the hand-off is a context switch. The last
/// CPU, because interrupts and every other process default to the first.
pub fn place_generator() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    pin_current_thread(cpu).then_some(cpu)
}
