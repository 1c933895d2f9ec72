#![warn(missing_docs)]

//! Counting global allocator — the measurement substrate for the paper's
//! memory-consumption experiment (Fig. 13).
//!
//! Wraps the system allocator and tracks live bytes plus a resettable
//! high-water mark. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;
//! ```
//!
//! and then bracket a workload with [`reset_peak`] / [`peak_bytes`]. The
//! counters are relaxed atomics: the ordering of concurrent updates does
//! not matter for a high-water mark that is only read after the workload
//! joins its threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A `GlobalAlloc` that forwards to [`System`] and counts bytes.
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn on_alloc(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        // CAS loop: only grow the peak.
        let mut peak = PEAK.load(Ordering::Relaxed);
        while live > peak {
            match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    #[inline]
    fn on_dealloc(size: usize) {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: all methods delegate to `System`, which upholds the GlobalAlloc
// contract; the byte counters never influence the returned pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Bytes currently allocated (approximate under concurrency).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live byte count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Runs `f` and returns `(result, peak_bytes_above_start)`: the extra peak
/// memory the workload required beyond what was already live.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = live_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(baseline))
}

/// The whole process's peak resident set in bytes: `VmHWM` from
/// `/proc/self/status`, or `None` where the platform has no such file.
/// Unlike [`peak_bytes`] it counts every resident page, not only heap
/// allocations: mapped files, thread stacks, allocator slack.
pub fn process_peak_resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_bytes(&status)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` page, in bytes.
pub fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is only installed in binaries that opt in, so
    // in this test binary the counters are touched exclusively by the
    // assertions below. They share global state, hence a single serial
    // test exercising the whole lifecycle.
    #[test]
    fn counter_lifecycle() {
        // Alloc moves live and peak.
        let live0 = live_bytes();
        let peak0 = peak_bytes();
        CountingAllocator::on_alloc(1000);
        assert_eq!(live_bytes(), live0 + 1000);
        assert!(peak_bytes() >= peak0);

        // Dealloc lowers live, never peak.
        let peak_hi = peak_bytes();
        CountingAllocator::on_dealloc(1000);
        assert_eq!(live_bytes(), live0);
        assert_eq!(peak_bytes(), peak_hi);

        // reset_peak snaps the mark down to live.
        CountingAllocator::on_alloc(4096);
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
        CountingAllocator::on_dealloc(4096);

        // measure_peak reports the delta above the baseline.
        let (v, peak) = measure_peak(|| {
            CountingAllocator::on_alloc(1 << 20);
            CountingAllocator::on_dealloc(1 << 20);
            42
        });
        assert_eq!(v, 42);
        assert!(peak >= 1 << 20, "peak {peak}");
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tmpmb\nVmPeak:\t  200 kB\nVmHWM:\t   90128 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(90_128 * 1024));
        assert_eq!(vm_hwm_bytes("VmRSS:\t1 kB\n"), None);
        assert_eq!(vm_hwm_bytes("VmHWM:\tlots kB\n"), None);
        if cfg!(target_os = "linux") {
            assert!(process_peak_resident_bytes().is_some_and(|b| b > 0));
        }
    }
}
