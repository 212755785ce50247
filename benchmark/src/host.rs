//! What the host is and whether it is giving the benchmark its cores.

use std::hint::black_box;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The cores the process may run on, as it was started: read once, before
/// any thread is pinned, from a list like `0-1,4`.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let list = proc_status("Cpus_allowed_list:").unwrap_or_default();
        let listed: Vec<usize> = list
            .split(',')
            .filter_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
            })
            .flatten()
            .collect();
        if listed.is_empty() {
            (0..std::thread::available_parallelism().map_or(1, usize::from)).collect()
        } else {
            listed
        }
    })
}

/// Number of cores the process may run on.
pub fn nproc() -> usize {
    cpus().len()
}

/// Where the numbers were taken.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn stamp() -> Stamp {
    let unknown = || "unknown".to_string();
    Stamp {
        nproc: nproc(),
        kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        // A benchmark checkout need not be a git repository.
        commit: command_line(
            "git",
            &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
        )
        .unwrap_or_else(unknown),
    }
}

/// Iterations of the probe loop: about 10 ms on one 2 GHz core, so one
/// probe (the loop alone, then on every core) takes about 20 ms.
const PROBE_ITERS: u64 = 6_000_000;

fn probe_loop() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..black_box(PROBE_ITERS) {
        x = (x ^ i).wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
    }
    black_box(x)
}

/// Tries a probe gets to find the host whole: a core's clock can change
/// between a try's two loops, and a neighbour can take a few milliseconds
/// of one; neither repeats three times, a host short of cores does.
const PROBE_TRIES: usize = 3;

/// How many cores' worth of work the host delivers right now: the first
/// of up to three tries that reaches `enough`, else the best of them.
pub fn parallel_capacity(threads: usize, enough: f64) -> f64 {
    let mut best = 0.0_f64;
    for _ in 0..PROBE_TRIES {
        best = best.max(probe(threads));
        if best >= enough {
            break;
        }
    }
    best
}

/// A fixed integer loop timed on one thread, then on `threads` threads at
/// once, each pinned to a core of its own. `threads` × (one-thread time ÷
/// all-threads time) is `threads` on an idle host and about 1 when the
/// host runs the threads one after the other.
fn probe(threads: usize) -> f64 {
    let t0 = Instant::now();
    probe_loop();
    let alone = t0.elapsed().as_secs_f64();
    let start = std::sync::Barrier::new(threads + 1);
    let existing = thread_ids();
    let released = std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                start.wait();
                probe_loop()
            });
        }
        // The probe asks what the host delivers, not where the kernel
        // happened to start the threads.
        pin_new_threads(&existing, 0);
        // Stamped before the release: a released thread may take this
        // thread's core at once.
        let released = Instant::now();
        start.wait();
        released
    });
    let together = released.elapsed().as_secs_f64();
    threads as f64 * alone / together
}

/// Second field of the `/proc/self/status` line that starts with `field`.
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1).map(str::to_string)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM:")
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Kernel ids of this process's threads.
pub fn thread_ids() -> Vec<i32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| t.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

extern "C" {
    /// `sched_setaffinity(2)`, from the C library `std` already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask handed to the kernel: room for 1 024 cores.
const MASK_WORDS: usize = 16;

/// Set once the kernel has refused a pin (a seccomp filter or a
/// restricted cpuset can).
static PIN_REFUSED: AtomicBool = AtomicBool::new(false);

/// Whether every pin this process asked for was granted. Unpinned, the
/// numbers are of another regime (see [`pin_calling_thread`]), so the
/// result file says which one they came from.
pub fn pinning_held() -> bool {
    !PIN_REFUSED.load(Ordering::Relaxed)
}

fn pin(tid: i32, cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    let held = cpu < 64 * MASK_WORDS && {
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialized array and the size passed
        // is its size in bytes; the call reads that many bytes and keeps
        // no pointer. An id the kernel does not know makes it return an
        // error.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    };
    if !held {
        PIN_REFUSED.store(true, Ordering::Relaxed);
    }
}

/// The calling thread, to `sched_setaffinity`.
const CALLING_THREAD: i32 = 0;

/// Pin the calling thread — the benchmark's one client, which is also the
/// runtime's coordinator — to the first core.
///
/// Why threads are pinned at all: this guest kernel starts a new or woken
/// thread on its waker's core and moves one of two runnable threads off a
/// shared core only after up to a second (measured: two spinning threads
/// shared a core for 0.9 s beside an idle one). Where three threads land
/// on two cores then decides a run's wall time, for a block of runs or a
/// whole process. The benchmark fixes the placement — client on the first
/// core, worker `i` on core `i` — so that what it measures is the code.
pub fn pin_calling_thread() {
    pin(CALLING_THREAD, cpus()[0]);
}

/// Pin every thread that is not in `before` to a core of its own, in
/// creation order from core `first` on, wrapping round when there are
/// more threads than cores.
pub fn pin_new_threads(before: &[i32], first: usize) {
    let cpus = cpus();
    let mut new: Vec<i32> = thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    new.sort_unstable();
    for (i, &tid) in new.iter().enumerate() {
        pin(tid, cpus[(first + i) % cpus.len()]);
    }
}

/// Clock ticks per second of `/proc/self/stat` times. Linux has reported
/// 100 to user space on every architecture since 2.6, whatever the
/// kernel's own tick rate.
const CLK_TCK: f64 = 100.0;

/// User plus system CPU time of this process, all threads, in ms.
pub fn cpu_time_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // utime and stime are the 14th and 15th fields of the line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        probe_loop();
        assert!(cpu_time_ms() >= 0.0);
    }

    #[test]
    fn one_thread_has_capacity_one() {
        let c = parallel_capacity(1, 0.8);
        assert!((0.3..=3.0).contains(&c), "capacity of one thread was {c}");
    }
}
