//! A counting global allocator.
//!
//! Every allocation made on a thread bumps that thread's counter; while
//! the thread is inside a component call (see [`in_component`]) it also
//! bumps the component counter, so the run's allocations split into
//! component and runtime shares. Counters are per thread so that
//! parallel unit tests cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread counts.
pub struct Counting;

thread_local! {
    static TOTAL: Cell<u64> = const { Cell::new(0) };
    static COMPONENT: Cell<u64> = const { Cell::new(0) };
    static IN_COMPONENT: Cell<bool> = const { Cell::new(false) };
    static BENCH: Cell<u64> = const { Cell::new(0) };
    static EXCLUDING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are outside any measured interval.
    let _ = TOTAL.try_with(|c| c.set(c.get() + 1));
    if IN_COMPONENT.try_with(Cell::get).unwrap_or(false) {
        let _ = COMPONENT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only const-initialised thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as ours, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as ours, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as ours, forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as ours, forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by this thread so far.
pub fn total() -> u64 {
    TOTAL.with(Cell::get)
}

/// The share of [`total`] made inside component calls.
pub fn component() -> u64 {
    COMPONENT.with(Cell::get)
}

/// Runs `f` with this thread marked as inside a component call.
pub fn in_component<R>(f: impl FnOnce() -> R) -> R {
    let outer = IN_COMPONENT.with(|c| c.replace(true));
    let r = f();
    IN_COMPONENT.with(|c| c.set(outer));
    r
}

/// Runs `f` and books the allocations it makes as the benchmark's own
/// (building input messages, output checks, snapshots, the trace's
/// bookkeeping), so that they stay out of the measured counts.
/// Nested calls book once, at the outermost.
pub fn exclude<R>(f: impl FnOnce() -> R) -> R {
    if EXCLUDING.with(|c| c.replace(true)) {
        return f();
    }
    let before = total();
    let r = f();
    let made = total() - before;
    BENCH.with(|c| c.set(c.get() + made));
    EXCLUDING.with(|c| c.set(false));
    r
}

/// Books `n` allocations, already made, as the benchmark's own (unless
/// an enclosing [`exclude`] books them).
pub fn book(n: u64) {
    if !EXCLUDING.with(Cell::get) {
        BENCH.with(|c| c.set(c.get() + n));
    }
}

/// Allocations booked by [`exclude`] and [`book`] on this thread so far.
pub fn bench() -> u64 {
    BENCH.with(Cell::get)
}

/// Checks that the allocator counts a known pattern exactly: one box,
/// one vector with reserved capacity, one growth past it, and a
/// component-marked allocation.
pub fn self_test() -> Result<(), String> {
    let (t0, c0) = (total(), component());
    let b = std::hint::black_box(Box::new(7u64));
    let mut v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4));
    v.extend([1, 2, 3, 4]);
    v.push(5); // grows: one realloc
    let s = in_component(|| std::hint::black_box(String::from("component")));
    let (t1, c1) = (total(), component());
    drop((b, v, s));
    if t1 - t0 != 4 || c1 - c0 != 1 {
        return Err(format!(
            "allocator self-test: counted {} allocations ({} in component), expected 4 (1)",
            t1 - t0,
            c1 - c0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_a_known_pattern_exactly() {
        super::self_test().expect("exact counts");
    }
}
