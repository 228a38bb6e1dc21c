//! Small timing helpers for the calibration pass, the experiment harness
//! and `repro micro`'s interleaved kernel rounds (wall-clock means and
//! medians over repeated runs).
//!
//! Every measured section also runs inside a telemetry span, so `repro
//! micro` and `repro trace` report bench wall-clock from the same clock
//! and the span histograms (`bench.mean_batch`, `bench.median_run`,
//! `bench.probe`) show up in trace snapshots.

use sies_telemetry as tel;
use std::time::Instant;

/// Times `op` executed `iters` times and returns the mean cost of one
/// execution in microseconds. `op` should return a value that depends on
/// its work; it is passed through [`std::hint::black_box`].
pub fn time_mean_us<T, F: FnMut() -> T>(iters: usize, mut op: F) -> f64 {
    assert!(iters > 0);
    let _section = tel::span!("bench.mean_batch");
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(op());
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Runs `op` `runs` times, timing each run once, and returns the median in
/// microseconds — robust against scheduler noise for operations too slow
/// to loop thousands of times.
pub fn time_median_us<T, F: FnMut() -> T>(runs: usize, mut op: F) -> f64 {
    assert!(runs > 0);
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let _run = tel::span!("bench.median_run");
            let start = Instant::now();
            std::hint::black_box(op());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Picks an iteration count so one measurement batch takes roughly
/// `target_ms`, based on a best-of-3 probe of `op`: the fastest probe
/// estimates steady-state cost, so a cold first call (page faults,
/// allocator warm-up, lazy statics) can no longer undersize the batch.
pub fn auto_iters<T, F: FnMut() -> T>(op: &mut F, target_ms: f64) -> usize {
    let mut probe = f64::INFINITY;
    for _ in 0..3 {
        let _p = tel::span!("bench.probe");
        let start = Instant::now();
        std::hint::black_box(op());
        probe = probe.min(start.elapsed().as_secs_f64() * 1e3);
    }
    if !probe.is_finite() || probe <= 0.0 {
        return 10_000;
    }
    ((target_ms / probe).ceil() as usize).clamp(1, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_positive_and_sane() {
        let mut x = 0u64;
        let us = time_mean_us(1000, || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        assert!(us > 0.0);
        assert!(us < 1000.0, "a multiply took {us} µs?");
    }

    #[test]
    fn median_is_positive() {
        let us = time_median_us(5, || std::hint::black_box((0..1000).sum::<u64>()));
        assert!(us > 0.0);
    }

    #[test]
    fn auto_iters_bounded() {
        let mut f = || 1u64;
        let iters = auto_iters(&mut f, 1.0);
        assert!((1..=1_000_000).contains(&iters));
    }
}
