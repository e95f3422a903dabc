//! Process measurements read from `/proc`, and the host facts every
//! result is stamped with.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of the `/proc/self/stat` CPU fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const TICKS_PER_S: u64 = 100;

/// CPU time (user + system, all threads) this process has used so far,
/// in microseconds, at the kernel's 10 ms tick resolution.
#[must_use]
pub fn cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // the command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis, where utime and stime are the 12th and 13th
    let Some(rest) = stat.rfind(')').and_then(|i| stat.get(i + 1..)) else {
        return 0;
    };
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse().ok())
        .collect();
    fields.iter().sum::<u64>() * (1_000_000 / TICKS_PER_S)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
#[must_use]
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Pins glibc malloc for the run: one arena, blocks up to 32 MiB from the
/// heap, and a 256 MiB trim threshold, all fixed instead of adaptive.
/// With the adaptive defaults, peak RSS and the page faults a rep takes
/// depend on which large block was freed first. Call it before any thread
/// is spawned. Returns whether every setting took.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
#[must_use]
pub fn pin_malloc() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` takes two integers by value and only changes
    // allocator settings, which glibc allows at any time; these three
    // parameters exist in every glibc this builds against, and 32 MiB is
    // the largest mmap threshold glibc accepts on 64-bit targets.
    unsafe {
        mallopt(M_ARENA_MAX, 1) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 256 << 20) == 1
    }
}

/// Without glibc there is nothing to pin.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
#[must_use]
pub fn pin_malloc() -> bool {
    false
}

/// Cores this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `git rev-parse HEAD` of the checkout at `root`, or `unknown` when that
/// fails (no git, or not a repository). The search is fenced at `root`, so
/// an enclosing repository is never reported by mistake.
#[must_use]
pub fn git_rev(root: &Path) -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]).current_dir(root);
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_live() {
        let before = cpu_us();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() >= before);
        assert!(peak_rss_kb() > 0);
        assert!(nproc() >= 1);
    }
}
