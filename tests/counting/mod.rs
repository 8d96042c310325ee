//! A counting global allocator for test binaries: each thread counts its
//! own allocations and the bytes they request, so a single-threaded run
//! reads the same counts on every host. A `realloc` counts as one
//! allocation of its new size. Shipped crates never install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    ALLOCS.with(|a| a.set(a.get() + 1));
    BYTES.with(|b| b.set(b.get() + size as u64));
}

// SAFETY: every method passes its arguments unchanged to `System`, so
// each caller's guarantees are the ones `System` requires; `note` only
// touches const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and bytes requested on this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl Allocs {
    /// What this thread has allocated so far.
    pub fn now() -> Allocs {
        Allocs {
            count: ALLOCS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Allocations made while `f` ran on this thread, with its result.
    pub fn during<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
        let before = Allocs::now();
        let r = f();
        let after = Allocs::now();
        let spent = Allocs {
            count: after.count - before.count,
            bytes: after.bytes - before.bytes,
        };
        (r, spent)
    }

    /// Per-message figures, rounded to two decimals for printing.
    pub fn per(self, n: u64) -> (f64, f64) {
        (self.count as f64 / n as f64, self.bytes as f64 / n as f64)
    }
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, o: Allocs) {
        self.count += o.count;
        self.bytes += o.bytes;
    }
}
