//! The host's current speed, from a fixed piece of reference work.
//!
//! The development host's speed drifts by up to 2× over tens of minutes
//! (other tenants share its cores; the guest sees no steal time, so the
//! CPU itself runs slower). A run-to-run comparison of raw seconds then
//! measures the host, not the program. The benchmark therefore times
//! [`reference_work`], a fixed job that shares no code with the
//! simulator, between its timed passes, and scales every time it
//! reports by [`NOMINAL_REF_S`] / (the run's median reference time):
//! times read as seconds on a host of fixed, nominal speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds [`reference_work`] takes on the nominal host. A constant of
/// the benchmark: changing it rescales every reported time.
pub const NOMINAL_REF_S: f64 = 100e-6;

/// A fixed job in the simulator's style, built from the standard library
/// only: small allocations and formatting (cell labels), probes of an
/// open-addressed table (ring and directory maps), and a binary heap
/// (the event queue). Returns a checksum so no part is optimized away.
pub fn reference_work() -> u64 {
    let mut labels: Vec<String> = (0..48u64)
        .map(|i| format!("arch{}/app{}/p16/s0.{}", i % 4, i % 12, i))
        .collect();
    labels.sort_unstable();
    let mut sum = labels.iter().map(|l| l.len() as u64).sum::<u64>();

    let mut table = vec![0u64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..8_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 6_000 + 1;
        let mut h = (key.wrapping_mul(0x9E37_79B9) as usize) & 4095;
        for _ in 0..8 {
            if table[h] == key || table[h] == 0 {
                break;
            }
            h = (h + 1) & 4095;
        }
        sum = sum.wrapping_add((table[h] == key) as u64);
        table[h] = key;
    }

    let mut heap = BinaryHeap::with_capacity(1_000);
    for i in 0..1_000u64 {
        heap.push(Reverse(x.rotate_left((i % 64) as u32) % 100_000));
    }
    while let Some(Reverse(t)) = heap.pop() {
        sum = sum.wrapping_add(t);
    }
    sum
}

/// Seconds one [`reference_work`] takes right now: the mean over a batch
/// of about 5 ms.
pub fn reference_seconds() -> f64 {
    let t0 = Instant::now();
    let mut reps = 0u32;
    while reps < 10 || t0.elapsed().as_secs_f64() < 0.005 {
        black_box(reference_work());
        reps += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

/// The factor that turns seconds on this host, now, into nominal-host
/// seconds, given the run's reference times.
pub fn to_nominal(ref_samples: &[f64]) -> f64 {
    crate::stats::ratio(NOMINAL_REF_S, crate::stats::median(ref_samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_timed() {
        assert_eq!(reference_work(), reference_work());
        assert!(reference_seconds() > 0.0);
        // A host twice as slow as nominal halves the reported times.
        assert_eq!(to_nominal(&[2.0 * NOMINAL_REF_S]), 0.5);
        assert_eq!(to_nominal(&[]), 0.0);
    }
}
