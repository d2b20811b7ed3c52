//! Where timed work starts.
//!
//! On a shared host the CPUs of one machine need not run at one speed: a
//! busy neighbour can slow one of them by a third for minutes, and a
//! thread that stays where it started keeps that speed for a whole run.
//! So every repeat of a timed unit starts on the next allowed CPU in turn,
//! and a distinct unit's fastest repeat is taken as its cost (see
//! README.md, "Noise").
//!
//! A nudge moves one thread, then gives it back every allowed CPU: the
//! unit starts where it is sent, and threads it spawns may still run on
//! any CPU.

/// A `cpu_set_t` as glibc lays it out (1024 CPUs).
#[cfg(target_os = "linux")]
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn set(pid: i32, mask: &CpuSet) {
    // SAFETY: `mask` points to a whole `CpuSet` of the size passed.
    unsafe {
        sched_setaffinity(pid, std::mem::size_of::<CpuSet>(), mask);
    }
}

/// The calling thread's CPU mask (all zero if it cannot be read).
#[cfg(target_os = "linux")]
fn current() -> CpuSet {
    let mut mask = CpuSet([0; 16]);
    // SAFETY: `mask` is a writable `CpuSet` of the size passed.
    unsafe {
        sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask);
    }
    mask
}

/// The CPUs this process was allowed at its first call.
#[cfg(target_os = "linux")]
fn allowed() -> &'static (CpuSet, Vec<usize>) {
    use std::sync::OnceLock;
    static ALLOWED: OnceLock<(CpuSet, Vec<usize>)> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mask = current();
        let ok = mask.0.iter().any(|w| *w != 0);
        let cpus = (0..1024)
            .filter(|c| ok && mask.0[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        (mask, cpus)
    })
}

/// How many CPUs a nudge takes turns over (at least 1).
#[cfg(target_os = "linux")]
pub fn cpus() -> usize {
    allowed().1.len().max(1)
}

/// Pin thread `tid` (0: the calling thread; a child's pid: its main
/// thread) to the `turn`-th allowed CPU, modulo their number. Threads and
/// processes it starts from now on inherit the pin.
#[cfg(target_os = "linux")]
pub fn pin(tid: u32, turn: usize) {
    let (_, cpus) = allowed();
    if cpus.len() < 2 {
        return;
    }
    let cpu = cpus[turn % cpus.len()];
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    set(i32::try_from(tid).unwrap_or(0), &one);
}

/// Allow thread `tid` every CPU again. It stays where it is until the OS
/// has a reason to move it.
#[cfg(target_os = "linux")]
pub fn release(tid: u32) {
    let (all, cpus) = allowed();
    if cpus.len() >= 2 {
        set(i32::try_from(tid).unwrap_or(0), all);
    }
}

/// Move thread `tid` to the `turn`-th allowed CPU, then allow it every CPU
/// again: it starts there, and threads it spawns may run anywhere.
pub fn nudge(tid: u32, turn: usize) {
    pin(tid, turn);
    release(tid);
}

/// Placement is left to the OS where there is no affinity call.
#[cfg(not(target_os = "linux"))]
pub fn cpus() -> usize {
    1
}

/// Placement is left to the OS where there is no affinity call.
#[cfg(not(target_os = "linux"))]
pub fn pin(_tid: u32, _turn: usize) {}

/// Placement is left to the OS where there is no affinity call.
#[cfg(not(target_os = "linux"))]
pub fn release(_tid: u32) {}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_nudge_leaves_every_cpu_allowed() {
        let before = current();
        for turn in 0..4 {
            nudge(0, turn);
            assert_eq!(current(), before);
        }
        pin(0, 1);
        if cpus() > 1 {
            assert_eq!(current().0.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        release(0);
        assert_eq!(current(), before);
        assert_eq!(cpus(), allowed().1.len().max(1));
    }
}
