//! Host probes: process CPU time and peak memory, the host description
//! printed with every run, and the counting allocator of the traced run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen `long` counters of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's resource use so far: user + system CPU seconds over all
/// of its threads, and its peak resident set in MiB.
pub fn usage() -> (f64, f64) {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux, and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail for a valid pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&u.utime) + secs(&u.stime), u.maxrss as f64 / 1024.0)
}

/// The host line recorded with every run: CPU count, CPU model and load
/// average at start, so drift can be told apart from a change.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    format!("host: nproc {nproc} | cpu {model} | loadavg {load}")
}

/// The global allocator: the system allocator plus a count of allocation
/// calls (`alloc`, `alloc_zeroed`, `realloc`) that is kept only while the
/// traced run switches it on, so untraced runs pay one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller's `GlobalAlloc::alloc` guarantees (non-zero size)
    // pass unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    // SAFETY: as `alloc`, forwarded unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`; the caller's guarantees pass unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: `ptr` came from this allocator, hence from `System`, with
    // `layout`, as `System.dealloc` requires.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start or stop counting allocations.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
