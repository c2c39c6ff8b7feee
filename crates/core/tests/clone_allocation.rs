//! A clone of a warmed tiled pool shares its crossbar cells: cloning
//! allocates less than one copy of the cells would take at 32 bytes each.
//!
//! The global allocator counts every byte requested, so this file holds a
//! single test: no other test thread allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spinamm_core::amm::AmmConfig;
use spinamm_core::capacity::TiledAmm;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

/// The system allocator, counting the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn cloning_a_warm_pool_copies_no_cells() {
    const TILE_CAPACITY: usize = 128;
    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 8 * TILE_CAPACITY,
        vector_len: 64,
        bits: 5,
        query_count: 1,
        query_noise: 0.3,
        noise_magnitude: 2,
        similarity: 0.0,
        seed: 23,
    })
    .unwrap();
    let mut pool = TiledAmm::build(&w.patterns, TILE_CAPACITY, &AmmConfig::default()).unwrap();
    // One read compiles every tile's kernel, which clones then share.
    pool.recall(&w.queries[0].1).unwrap();
    let cells = pool.tile_count() * pool.vector_len() * pool.tile_columns();
    assert_eq!(pool.tile_count(), 8);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let clone = pool.clone();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(
        allocated < cells * 32,
        "a clone allocated {allocated} B; one copy of its {cells} cells at 32 B is {} B",
        cells * 32
    );
    drop(clone);
}
