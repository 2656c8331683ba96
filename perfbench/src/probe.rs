//! Timing of single layers, from outside the program: each probe calls one
//! public function of one crate and times it. Calls too short to time one
//! by one are timed in batches and divided, so the clock read is not
//! counted as layer time.

use crate::stats::median;
use std::sync::Barrier;
use std::time::Instant;

/// Calls per timed batch for nanosecond-scale probes.
pub const BATCH: usize = 64;

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median nanoseconds per call over `batches` batches of [`BATCH`] calls;
/// `f` receives the running call index.
pub fn per_call_ns(batches: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        for i in 0..BATCH {
            f(b * BATCH + i);
        }
        per.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per)
}

/// [`per_call_ns`] with `threads` threads released together by a barrier
/// and calling at once; the median is over every thread's batches. `f`
/// receives the thread index and the running call index.
pub fn per_call_ns_contended(
    threads: usize,
    batches: usize,
    f: impl Fn(usize, usize) + Sync,
) -> f64 {
    let barrier = Barrier::new(threads);
    let per: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, f) = (&barrier, &f);
                s.spawn(move || {
                    barrier.wait();
                    let mut per = Vec::with_capacity(batches);
                    for b in 0..batches {
                        let t0 = Instant::now();
                        for i in 0..BATCH {
                            f(t, b * BATCH + i);
                        }
                        per.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
                    }
                    per
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    median(&per)
}
