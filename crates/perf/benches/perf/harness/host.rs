//! The host side: CPU and allocator pinning, `/proc` readers and the
//! machine shape.
//!
//! Every run is pinned to one CPU before any world is launched. The
//! serializing engines run exactly one PE at a time, so a second core
//! adds nothing but cross-core futex wake-ups: unpinned, the same
//! `uts --pes 256` run takes 0.8 s or 3.8 s depending on where the OS
//! scheduler puts the threads. Unpinned wall numbers measure the OS
//! scheduler, not the program.

use std::fs;

use sws_perf::doc::Machine;

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus.iter().filter(|&&c| c < 64 * MASK_WORDS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialized array of exactly
    // `size_of_val(&mask)` bytes for the whole call, the kernel only
    // reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's mmap threshold at its initial 128 KiB, which also turns
/// its dynamic adjustment off. Left on, the threshold grows to the
/// first freed world heap's size, later heaps are carved from the brk
/// arena, zeroed by hand and retained — and the resident set of one and
/// the same `serve-steal` input reads anywhere from 22 to 100 MB
/// depending on allocation history. Pinned, every world heap is its own
/// mapping, returned on free: 13 MB, every seed, every run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_allocator() -> bool {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only stores a tunable inside the allocator; it
    // takes no pointers and is safe to call at any time from any thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_allocator() -> bool {
    false
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    let text = fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line[key.len()..].trim().to_string())
}

/// CPUs in the inherited affinity mask (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let Some(list) = proc_field("/proc/self/status", "Cpus_allowed_list:") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPU a process with this mask pins itself to.
fn pin_target(allowed: &[usize]) -> Option<usize> {
    allowed.iter().copied().max()
}

/// A successful pin: the CPU chosen and the mask it replaced.
pub struct Pin {
    /// The one CPU this thread (and every thread it spawns) runs on.
    pub cpu: usize,
    inherited: Vec<usize>,
}

impl Pin {
    /// Pin the calling thread to the highest CPU of its inherited mask
    /// (CPU 0 takes most interrupts). `None` if the mask cannot be read
    /// or the kernel refuses: host metrics are then unresolved.
    pub fn highest() -> Option<Pin> {
        let inherited = allowed_cpus();
        let cpu = pin_target(&inherited)?;
        set_affinity(&[cpu]).then_some(Pin { cpu, inherited })
    }

    /// Run `f` on the inherited mask — what an unpinned user sees — and
    /// pin again. `None` if either switch fails.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        if !set_affinity(&self.inherited) {
            return None;
        }
        let out = f();
        set_affinity(&[self.cpu]).then_some(out)
    }
}

/// Reset `VmHWM` to the current resident set, so the next reading is
/// the peak of what ran in between. `false` where the kernel refuses
/// (the reading is then the process-lifetime peak).
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(user, system)` CPU ticks this process has consumed, all threads.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    (next(), next())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine shape recorded next to every set of numbers, as the
/// unpinned parent of the workload processes sees it: they inherit its
/// mask, so they pin to the CPU it would.
pub fn machine() -> Machine {
    Machine {
        hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned_cpu: pin_target(&allowed_cpus()),
        kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or("unknown".into(), |s| s.trim().to_string()),
        rustc: command_line("rustc", &["-V"]),
        commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
    }
}
