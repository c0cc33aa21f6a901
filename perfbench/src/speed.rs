//! A fixed reference job that measures how fast the host runs right now.
//!
//! On a shared host, other tenants slow the same simulation by up to half
//! for minutes at a time, so raw host seconds say as much about the
//! neighbours as about the simulator. An untraced run therefore times this
//! job between its simulation steps and scales the host seconds it
//! measures to the speed at which one job takes [`NOMINAL_S`]. The job is
//! allocation-heavy ordered-map churn, like the simulator's event and
//! socket tables: over a 12-minute trace of `tcp-churn-500` on the shared
//! 2-vCPU box, its time per repetition followed the simulation's with a
//! correlation of 0.90 and a log-log slope of 1.05. It is the benchmark's
//! own code and takes no seed, so no change to the simulator alters the
//! work it does. Its time can still move a little with the simulator's
//! memory use, because the two share the caches and the allocator.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds one job takes at the reference speed: a round figure near
/// its median time over the runs of the first baseline.
pub const NOMINAL_S: f64 = 0.020;

/// Map operations in one job.
const OPS: u64 = 40_000;

/// Distinct keys the job draws from.
const KEYS: u64 = 50_000;

/// Runs the job once: inserts and removes heap-allocated values of 64 to
/// 319 bytes under pseudo-random keys in a fresh `BTreeMap`. Returns the
/// entries left, which is the same on every call.
pub fn job() -> usize {
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 1u64;
    for _ in 0..OPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (x >> 33) % KEYS;
        if map.remove(&key).is_none() {
            map.insert(key, vec![0u8; 64 + (x as usize & 255)]);
        }
    }
    map.len()
}

/// Host seconds of one run of [`job`].
pub fn time_job() -> f64 {
    let start = Instant::now();
    black_box(job());
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_does_the_same_work_every_time() {
        let left = job();
        assert!(left > 0 && left < KEYS as usize);
        assert_eq!(job(), left);
        assert!(time_job() > 0.0);
    }
}
