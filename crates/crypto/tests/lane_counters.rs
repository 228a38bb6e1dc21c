//! The hash-kernel telemetry an epoch PRF sweep leaves: two compressions
//! per key and hash, in exactly the kernel passes its lane width implies.
//!
//! `repro trace` and the benchmark's per-layer metrics read these
//! counters, so the shared-block HMAC pass must count its work as two
//! compression sweeps over the same lanes would. Lives in its own test
//! binary because the counters are process-wide: any concurrently
//! running test that hashes would add to them.

use sies_crypto::prf::{self, KeyedPrf};
use sies_crypto::DEFAULT_PRIME_256;
use sies_telemetry as tel;

/// Kernel passes of `n` lanes at lane width `width`, as x16, x8, x4, x1:
/// as many of the widest pass as fit, then the next narrower one.
fn passes(width: usize, n: usize) -> [u64; 4] {
    let mut left = n;
    [16, 8, 4, 1].map(|lanes| {
        if lanes > width {
            return 0;
        }
        let count = left / lanes;
        left %= lanes;
        count as u64
    })
}

const HASHES: [[&str; 5]; 2] = [
    [
        "crypto.sha256.compressions",
        "crypto.sha256.passes_x16",
        "crypto.sha256.passes_x8",
        "crypto.sha256.passes_x4",
        "crypto.sha256.passes_x1",
    ],
    [
        "crypto.sha1.compressions",
        "crypto.sha1.passes_x16",
        "crypto.sha1.passes_x8",
        "crypto.sha1.passes_x4",
        "crypto.sha1.passes_x1",
    ],
];

fn read() -> [[u64; 5]; 2] {
    HASHES.map(|names| names.map(|name| tel::global().counter(name).get()))
}

#[test]
fn epoch_sweeps_count_two_compressions_per_key_at_every_width() {
    let _guard = tel::switch_lock();
    tel::set_enabled(true);
    // Two full 64-key tiles and a ragged 29-key tail: every pass width
    // runs at width 16 (29 = 16 + 8 + 4 + 1).
    let n = 157;
    let keys: Vec<[u8; 20]> = (0..n).map(|i| [i as u8; 20]).collect();
    let table = KeyedPrf::new_many(&keys);
    for width in [1, 4, 8, 16] {
        let before = read();
        let mut visited = 0;
        prf::for_each_epoch_key_with(width, &table, 7, &DEFAULT_PRIME_256, |_, _, _| {
            visited += 1;
        });
        let after = read();
        assert_eq!(visited, n);
        let p = passes(width, n);
        let expected = [2 * n as u64, 2 * p[0], 2 * p[1], 2 * p[2], 2 * p[3]];
        for (h, names) in HASHES.iter().enumerate() {
            for (c, name) in names.iter().enumerate() {
                assert_eq!(
                    after[h][c] - before[h][c],
                    expected[c],
                    "{name} after a {n}-key sweep at width {width}"
                );
            }
        }
    }
    tel::clear_enabled();
}
