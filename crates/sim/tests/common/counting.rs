//! A counting global allocator for the allocation gates. Each gate is a
//! test file of its own holding exactly one test.
//!
//! Only the measuring thread's allocations count. The test harness's own
//! thread may still be doing its bookkeeping for the test it just started
//! (4 allocations) when a short warm-up ends, and a process-wide count
//! charged those to the cycle path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Set on the thread inside [`allocations_in`]; const-initialised and
    /// without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation made
/// on a thread while its `COUNTING` is set.
struct Counting;

impl Counting {
    fn note(&self) {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the counter touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations and reallocations `f` makes on the calling thread.
pub fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}
