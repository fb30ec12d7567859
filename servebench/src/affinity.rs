//! Load-generator placement. The generator's own threads pin themselves to
//! the first CPU the process may use, so where the generator runs does not
//! change from run to run. The serving stack's threads are never placed:
//! the kernel schedules them as it would in production.

use std::io;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin the calling thread to the lowest CPU of its affinity mask; returns
/// that CPU.
pub fn pin_to_first_cpu() -> io::Result<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its exact size; the kernel writes at most that much.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .find(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer and the size passed
    // is its exact size; the kernel only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}
