//! Counting global allocator: exact bytes and allocation counts for the
//! layers the benchmark calls into.
//!
//! Each thread adds to one of [`SLOTS`] cache-line-padded counters, so
//! rayon workers do not bounce a shared line on every allocation. A
//! slot is picked once per thread (round-robin); two live threads that
//! share a slot still count correctly because the adds are atomic. The
//! totals are exact whenever one thread does all the work between two
//! reads, which holds for the single-threaded layers (`sim`, `conlog`,
//! `runner.digest`, `runner.ckpt`). Around rayon fan-outs the totals
//! include every thread, but what the pool allocates for its own
//! bookkeeping depends on scheduling, so those columns are reported as
//! measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    frees: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
    frees: AtomicU64::new(0),
};

static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `usize::MAX` until the thread's first allocation picks a slot. A
    // const initializer with no destructor keeps the allocator from
    // re-entering itself through thread-local registration.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn slot() -> &'static Slot {
    let i = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        // Thread-local teardown: fall back to a shared slot.
        .unwrap_or(0);
    &COUNTS[i]
}

/// Pass-through system allocator that counts every allocation.
pub struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the
// bookkeeping is relaxed atomic adds on statics and a const-initialized
// thread-local, none of which allocate or panic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which `System.alloc` shares.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let s = slot();
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        slot().frees.fetch_add(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded with the caller's guarantees unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A realloc retires one block and produces another.
            let s = slot();
            s.allocs.fetch_add(1, Ordering::Relaxed);
            s.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
            s.frees.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

/// Process-wide totals since start, summed over every slot.
pub fn totals() -> titan_obs::AllocStats {
    let mut t = titan_obs::AllocStats::default();
    for s in &COUNTS {
        t.allocs += s.allocs.load(Ordering::Relaxed);
        t.bytes += s.bytes.load(Ordering::Relaxed);
        t.frees += s.frees.load(Ordering::Relaxed);
    }
    t
}

/// Bytes allocated since start; differences of two reads give a
/// layer's allocation volume.
pub fn bytes() -> u64 {
    totals().bytes
}
