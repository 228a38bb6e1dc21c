//! Runtime lane-width selection for the multi-lane hash kernels.
//!
//! [`sha1xn`](crate::sha1xn) and [`sha256xn`](crate::sha256xn) interleave
//! W independent lanes per round-loop pass — W single-block compressions,
//! or W HMACs finishing under one shared inner block; the knob drives
//! those hash lanes only (the bignum batches in
//! [`bigmontxn`](crate::bigmontxn) run IFMA x8 chunks or the scalar loop,
//! whatever the knob says). The width actually used is chosen at
//! runtime:
//!
//! * the default is [`hw_max_lanes`] — 16 with AVX-512F, where one x16
//!   pass keeps a whole round state in zmm registers, and 8 elsewhere;
//! * `SIES_LANES=1|4|8|16` in the environment (read once) and
//!   [`set_lane_width`] in-process override it. They exist for CI's
//!   lane-width determinism matrix and for width sweeps in benches; a
//!   deployment has no reason to set them.
//!
//! Measured on 2 vCPUs of a shared Xeon (family 6 model 207) with
//! AVX-512F, one SHA-256 block costs 334–527 ns scalar, 290–409 ns per
//! lane at x8 (AVX2) and 44–48 ns per lane at x16 (AVX-512F), over
//! repeated runs. Without AVX-512 the x8 kernel still beats scalar on
//! instruction-level parallelism alone.
//!
//! [`lane_width`] reports the *requested* width — that is what the
//! engine's `lane_dispatch` telemetry events and CI's matrix greps pin.
//! Kernels that cannot profit from the requested width clamp it
//! themselves via [`effective_lane_width`]: x16 hash passes only pay off
//! with AVX-512, so on narrower hardware a request for 16 runs as two x8
//! passes (counted in `crypto.lanes.fallbacks`). The clamp changes
//! scheduling only, never bytes.
//!
//! Every width produces bit-identical digests (the kernels are plain
//! integer arithmetic, differential-tested lane-by-lane against the
//! scalar FIPS 180-4 implementations), so the width is purely a
//! performance knob: changing it must never change a derived key, share,
//! or ciphertext. Tests that need a particular width call the
//! `_with(width)` entry points instead of the process-global override.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use sies_telemetry as tel;

/// Widest kernel instantiation available.
pub const MAX_LANES: usize = 16;

/// In-process override; 0 means "consult `SIES_LANES` / the default".
static FORCED: AtomicUsize = AtomicUsize::new(0);

/// The width a `SIES_LANES` value selects: a kernel width (1, 4, 8, 16)
/// as given, anything else — unset, unparsable, unsupported — `hw`.
fn width_from_env(value: Option<&str>, hw: usize) -> usize {
    match value.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(w @ (1 | 4 | 8 | 16)) => w,
        _ => hw,
    }
}

fn env_width() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| width_from_env(std::env::var("SIES_LANES").ok().as_deref(), hw_max_lanes()))
}

/// The lane width the batch schedulers use right now (1, 4, 8, or 16).
pub fn lane_width() -> usize {
    match FORCED.load(Ordering::Relaxed) {
        0 => env_width(),
        w => w,
    }
}

/// The widest hash pass worth running on this hardware: 16 only with
/// AVX-512F (one x16 pass per round-loop iteration), 8 everywhere else —
/// without 512-bit registers an x16 pass spills and loses to two x8
/// passes.
pub fn hw_max_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 16;
        }
    }
    8
}

/// The requested width clamped to what the hardware profits from
/// ([`hw_max_lanes`]). When the clamp bites, the fallback is counted in
/// `crypto.lanes.fallbacks` — the `lane_dispatch` telemetry event the
/// engine emits per epoch carries both the requested and the effective
/// width, so traces show the degradation without the digests changing.
pub fn effective_lane_width() -> usize {
    let requested = lane_width();
    let effective = requested.min(hw_max_lanes());
    if effective < requested {
        tel::count!("crypto.lanes.fallbacks");
    }
    effective
}

/// Splits `n` lanes into kernel passes at most `width` lanes wide — x16,
/// x8 and x4 while enough lanes are left, then single lanes for the
/// ragged tail — and calls `pass(lanes, range)` for each, in lane order.
/// Returns how many passes ran at each width: x16, x8, x4, x1. The split
/// depends on `n` and `width` alone, so every entry point of the hash
/// kernels schedules (and counts) the same passes for the same lanes.
pub(crate) fn for_each_pass(
    width: usize,
    n: usize,
    mut pass: impl FnMut(usize, Range<usize>),
) -> [u64; 4] {
    let mut passes = [0u64; 4];
    let mut start = 0;
    while start < n {
        let left = n - start;
        let (lanes, slot) = if width >= 16 && left >= 16 {
            (16, 0)
        } else if width >= 8 && left >= 8 {
            (8, 1)
        } else if width >= 4 && left >= 4 {
            (4, 2)
        } else {
            (1, 3)
        };
        pass(lanes, start..start + lanes);
        passes[slot] += 1;
        start += lanes;
    }
    passes
}

/// Forces the lane width in-process, overriding `SIES_LANES`.
///
/// Only 1, 4, 8, and 16 are kernel widths. The setting is global: it is
/// meant for benches and determinism sweeps, not for concurrent
/// fine-grained toggling (a race can only change scheduling, never
/// output bytes).
pub fn set_lane_width(width: usize) {
    assert!(
        matches!(width, 1 | 4 | 8 | 16),
        "lane width must be 1, 4, 8 or 16, got {width}"
    );
    FORCED.store(width, Ordering::Relaxed);
}

/// Drops the in-process override, returning to `SIES_LANES` / default.
pub fn clear_lane_width() {
    FORCED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_round_trip() {
        // The only test in this binary that writes the override.
        for w in [4, 1, 16, 8] {
            set_lane_width(w);
            assert_eq!(lane_width(), w);
            assert_eq!(effective_lane_width(), w.min(hw_max_lanes()));
        }
        clear_lane_width();
        assert_eq!(lane_width(), env_width());
    }

    #[test]
    fn default_width_is_the_hardware_maximum() {
        let hw = hw_max_lanes();
        assert!(matches!(hw, 8 | 16));
        for unset_or_bad in [
            None,
            Some(""),
            Some("abc"),
            Some("3"),
            Some("32"),
            Some("-8"),
        ] {
            assert_eq!(width_from_env(unset_or_bad, hw), hw, "{unset_or_bad:?}");
            assert_eq!(width_from_env(unset_or_bad, 8), 8, "{unset_or_bad:?}");
        }
        for w in [1usize, 4, 8, 16] {
            assert_eq!(width_from_env(Some(&w.to_string()), hw), w);
            assert_eq!(width_from_env(Some(&format!(" {w}\n")), 8), w);
        }
    }

    #[test]
    #[should_panic(expected = "lane width must be 1, 4, 8 or 16")]
    fn rejects_unsupported_width() {
        set_lane_width(3);
    }
}
