//! Thread placement.  Left to the scheduler, the five threads on a
//! request's path (client, io, worker, forward consumer, pool) move between
//! this host's two vCPUs every second or two, and a wake-up that crosses
//! cores costs tens of µs in a VM: the same binary read 5.2 k and 9.5 k
//! requests/s in neighbouring half-second rounds of `net_small`.  Confined
//! to one CPU the rounds agree to a few percent, so that is where the whole
//! process runs.  The library then sees one hardware thread and sizes its
//! fan-outs to it; what a change saves in CPU work shows, what it gains by
//! running in parallel does not.

/// `cpu_set_t`: 1024 bits.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread spawned from it later, to
/// the last CPU it may run on (the first one takes most interrupts).
/// Returns that CPU, or `None` where the platform has no such call.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let size = std::mem::size_of::<CpuSet>();
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly `size` bytes;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
            return None;
        }
        let cpu = (0..1024).rfind(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above, and the kernel only reads `one`.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
