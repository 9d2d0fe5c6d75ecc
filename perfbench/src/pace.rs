//! The host's pace: how fast the machine runs a fixed piece of work
//! right now.
//!
//! On a shared VM the same pass runs up to twice as slow for minutes at
//! a time while neighbours load the physical host, and no estimator
//! inside a run removes a slow phase that outlasts it. The harness
//! therefore times a fixed kernel between its passes and reports
//! host-time end-to-end metrics at the reference pace: raw seconds times
//! [`REFERENCE_S`] over the run's pace (the fastest-tenth median of the
//! kernel's times). A slower SDK still reads slower, since the kernel
//! does not call it; a slower host reads about the same. Raw seconds and
//! the pace are printed as notes beside the scaled metrics.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's fastest-tenth median on the machine the bounds were set
/// on (a 2-vCPU Intel Xeon VM) while its host was calm: scaled metrics
/// are seconds of that machine at that pace.
pub const REFERENCE_S: f64 = 0.0335;

/// Keys the kernel inserts.
const KEYS: u64 = 200_000;

/// Runs the kernel once and returns its host seconds.
///
/// The kernel has the compile chain's and the scheduler's profile:
/// small allocations, ordered-map inserts and pointer chasing over a
/// working set of about 15 MiB, the kind of work that slows when the
/// host is loaded. It depends only on the standard library, and runs on a
/// thread of its own, so that the allocator serves it from an arena the
/// SDK's allocations never touch: the SDK's heap cannot change its time.
pub fn kernel() -> f64 {
    std::thread::spawn(run)
        .join()
        .expect("the pace kernel does not panic")
}

fn run() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for i in 0..KEYS {
        map.insert(i.wrapping_mul(2_654_435_761) % 1_000_003, i);
        if i % 4 == 0 {
            rows.push(vec![i; 16]);
        }
    }
    black_box((&map, &rows));
    drop((map, rows));
    start.elapsed().as_secs_f64()
}
