//! The service analogue of the paper's Fig 10: a `pacer serve` session
//! costs the detector's metadata, which scales with the sampling rate,
//! and not memory per event. A counting global allocator tracks live and
//! peak heap bytes; the file holds one test so that it runs alone in its
//! binary and no sibling test's heap moves the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pacer_harness::{serve_sessions, ServeConfig, ServeDetectorKind};
use pacer_trace::gen::{insert_sampling_periods, GenConfig};
use pacer_trace::Action;

/// The system allocator, counting live heap bytes and their peak.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires; the
// counters are atomics, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn serve_memory_scales_with_the_sampling_rate_not_the_event_count() {
    // One race-free PACER session with sampling periods at r = 3%,
    // encoded before the baseline is taken.
    let trace = GenConfig::small(11)
        .race_free()
        .with_ops_per_thread(25_000)
        .generate();
    let sampled = insert_sampling_periods(&trace, 0.03, 50, 11);
    drop(trace);
    let events = sampled.len();
    assert!(events >= 200_000, "{events} events");
    let sessions = vec![("long".to_string(), sampled.to_binary())];
    drop(sampled);
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::new(ServeDetectorKind::Pacer)
    };

    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = serve_sessions(&config, sessions, 1).unwrap();
    let growth = PEAK.load(Ordering::Relaxed) - baseline;

    let report = &out.reports[0];
    assert!(!report.error, "{}", report.body);
    assert_eq!(report.events, events as u64);
    assert_eq!(report.dynamic_races, 0, "{}", report.body);
    // Retaining the events, even at their in-memory size, would cost
    // eight times this bound.
    let bound = events * std::mem::size_of::<Action>() / 8;
    assert!(
        growth < bound,
        "serving {events} events grew the heap by {growth} bytes (bound {bound})"
    );
}
