//! A recorder series holds bounded memory: a million samples spread over
//! six decades keep the recorder's live heap at or below 64 KiB.
//!
//! The global allocator tracks live bytes and their peak, so this file
//! holds a single test: no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spinamm_telemetry::{MemoryRecorder, Recorder};

/// The system allocator, tracking the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_million_samples_keep_the_recorder_under_64_kib() {
    const SAMPLES: u64 = 1_000_000;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let recorder = MemoryRecorder::default();
    for i in 0..SAMPLES {
        // Log-uniform over 1 µs – 1 s, visited in a scattered order.
        let decades = 6.0 * (i * 7_919 % SAMPLES) as f64 / SAMPLES as f64;
        recorder.record_span("recall.total", 1e-6 * 10f64.powf(decades));
    }
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        peak <= 64 * 1024,
        "the recorder's live heap peaked at {peak} B"
    );
    let snapshot = recorder.snapshot();
    let stats = snapshot.span_stats("recall.total").unwrap();
    assert_eq!(stats.count, SAMPLES);
    assert!(stats.min >= 1e-6 && stats.max < 1.0);
}
