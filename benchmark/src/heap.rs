//! A counting global allocator: the heap's high-water mark between two
//! points of a run.
//!
//! The process's peak RSS (`VmHWM`) on the parallel workload lands on
//! one of two levels 10–14 % apart from run to run, depending on
//! which malloc arena each pipeline worker happened to get. The bytes
//! the program asks for do not depend on that, so their peak is the
//! end-to-end memory metric and `VmHWM` a per-layer one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting. The counters publish no other data,
/// so `Relaxed` suffices.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counting touches only the two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, that is by
        // `System`, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract
        // for `ptr`, `layout` and `new_size`, which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most heap held at once since the previous call (or the start),
/// bytes; restarts the peak from the heap held now.
pub fn take_peak() -> usize {
    PEAK.swap(LIVE.load(Relaxed), Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_freed_allocation_until_taken() {
        let v = std::hint::black_box(vec![1u8; 64 << 20]);
        drop(v);
        // Other tests allocate concurrently, but none holds 64 MiB.
        let peak = take_peak();
        assert!(peak >= 64 << 20, "peak {peak} below a freed 64 MiB");
        let next = take_peak();
        assert!(next < 64 << 20, "peak {next} still counts the freed 64 MiB");
    }
}
