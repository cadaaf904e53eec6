//! The benchmark's global allocator: the system allocator, plus
//! counters of live heap bytes and their peak.
//!
//! In-process workloads report memory from these counters rather than
//! from resident pages. Resident anonymous memory swings by megabytes
//! from one operation to the next as the allocator keeps or returns
//! freed pages, and resident file pages follow the host's page cache;
//! neither is a property of the program. The bytes the program holds
//! live are.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated. Statistics only: `Relaxed` suffices, as
/// no other data is published through these counters.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    // A plain load first: most allocations stay below the peak, and the
    // read-modify-write is the costly part.
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// only bookkeeping beside the returned memory.
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
        // SAFETY: `ptr` was allocated by this allocator, hence by
        // `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `realloc`'s size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// The most heap bytes this process has held live at once, in MB.
#[must_use]
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1 << 20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation() {
        let before = peak_mb();
        let big = std::hint::black_box(vec![1u8; 8 << 20]);
        assert!(peak_mb() >= 8.0);
        assert!(peak_mb() >= before);
        drop(big);
        // The peak stays after the bytes are freed.
        assert!(peak_mb() >= 8.0);
    }
}
