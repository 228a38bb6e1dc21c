//! Property-based tests for the SIES core: codec field separation, the
//! scheme's end-to-end exactness/rejection behaviour, evaluation from
//! precomputed epoch totals against the sweep, and μTesla chain
//! authentication under random schedules.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::codec::{decode_final, encode_message, share_to_u256, sum_shares, SecretShare};
use sies_core::mutesla::{Broadcaster, Receiver};
use sies_core::params::{ResultWidth, SystemParams};
use sies_core::scheme::{setup, Aggregator, KeyTable, Psr, Querier, Source};
use sies_core::{SiesError, SourceId};
use sies_crypto::u256::U256;
use sies_crypto::DEFAULT_PRIME_256;
use std::cell::Cell;
use std::sync::Arc;

proptest! {
    // ---- Codec ----------------------------------------------------------

    #[test]
    fn codec_round_trips(n in 1u64..1_000_000, value in 0u64..=u32::MAX as u64, share in any::<[u8; 20]>()) {
        let params = SystemParams::new(n).unwrap();
        let m = encode_message(&params, value, &share).unwrap();
        let dec = decode_final(&params, &m);
        prop_assert_eq!(dec.result, value);
        prop_assert_eq!(dec.secret, share_to_u256(&share));
    }

    /// The Figure-2 claim: summing up to N messages never lets share
    /// carries cross into the result field.
    #[test]
    fn field_separation_under_maximal_shares(
        k in 1usize..64,
        values in proptest::collection::vec(0u64..=1000, 64),
    ) {
        let params = SystemParams::new(64).unwrap();
        let share: SecretShare = [0xFF; 20]; // worst-case carries
        let mut acc = U256::ZERO;
        let mut expected_sum = 0u64;
        for &v in values.iter().take(k) {
            acc = acc.checked_add(&encode_message(&params, v, &share).unwrap()).unwrap();
            expected_sum += v;
        }
        let dec = decode_final(&params, &acc);
        prop_assert_eq!(dec.result, expected_sum);
        prop_assert_eq!(dec.secret, sum_shares(std::iter::repeat_n(&share, k)));
    }

    #[test]
    fn codec_rejects_out_of_range_under_u32(value in (u32::MAX as u64 + 1)..u64::MAX) {
        let params =
            SystemParams::with_prime(1024, DEFAULT_PRIME_256, ResultWidth::U32).unwrap();
        prop_assert!(encode_message(&params, value, &[0; 20]).is_err());
    }

    // ---- Scheme ----------------------------------------------------------

    #[test]
    fn scheme_exactness(
        seed in any::<u64>(),
        epoch in any::<u64>(),
        values in proptest::collection::vec(0u64..1_000_000, 1..24),
    ) {
        let n = values.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(&values)
            .map(|(s, &v)| s.initialize(epoch, v).unwrap())
            .collect();
        let merged = aggregator.merge(&psrs).unwrap();
        let res = querier.evaluate(&merged, epoch).unwrap();
        prop_assert_eq!(res.sum, values.iter().sum::<u64>());
    }

    /// Random single-bit ciphertext corruption is always rejected.
    #[test]
    fn bitflips_always_detected(
        seed in any::<u64>(),
        values in proptest::collection::vec(0u64..10_000, 2..10),
        flip_bit in 0usize..256,
    ) {
        let n = values.len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        let psrs: Vec<Psr> = sources
            .iter()
            .zip(&values)
            .map(|(s, &v)| s.initialize(0, v).unwrap())
            .collect();
        let merged = aggregator.merge(&psrs).unwrap();
        let mut bytes = merged.to_bytes();
        bytes[flip_bit / 8] ^= 1 << (flip_bit % 8);
        let corrupted = Psr::from_bytes(&bytes);
        prop_assume!(corrupted != merged); // (always true, defensive)
        prop_assert!(querier.evaluate(&corrupted, 0).is_err());
    }

    /// Evaluating with a wrong contributor subset never silently passes:
    /// either it is the right subset, or verification fails.
    #[test]
    fn wrong_contributor_sets_rejected(
        seed in any::<u64>(),
        n in 3u64..12,
        missing in 0u32..12,
    ) {
        let missing = missing % n as u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let (querier, creds, aggregator) = setup(&mut rng, SystemParams::new(n).unwrap());
        let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
        // All sources contribute…
        let psrs: Vec<Psr> =
            sources.iter().map(|s| s.initialize(1, 5).unwrap()).collect();
        let merged = aggregator.merge(&psrs).unwrap();
        // …but the querier is told one of them failed.
        let claimed: Vec<u32> = (0..n as u32).filter(|&i| i != missing).collect();
        prop_assert!(querier
            .evaluate_with_contributors(&merged, 1, &claimed)
            .is_err());
    }

    // ---- muTesla ---------------------------------------------------------

    /// Any subset of broadcast intervals, disclosed in order, verifies
    /// all and only the packets MACed under the authentic chain.
    #[test]
    fn mutesla_random_schedules(
        seed in any::<u64>(),
        sent_mask in 1u16..0x3FF, // which of intervals 1..=10 carry a packet
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let broadcaster = Broadcaster::new(&mut rng, 12, 2);
        let mut receiver = Receiver::new(broadcaster.commitment(), 2);
        let mut expected = 0usize;
        for interval in 1..=10u64 {
            if sent_mask >> (interval - 1) & 1 == 1 {
                let payload = format!("query-{interval}");
                receiver
                    .receive(interval, broadcaster.broadcast(interval, payload.as_bytes()))
                    .unwrap();
                expected += 1;
            }
        }
        let mut verified = 0usize;
        for interval in 1..=10u64 {
            if sent_mask >> (interval - 1) & 1 == 1 {
                verified += receiver.on_disclosure(broadcaster.disclose(interval)).unwrap().len();
            }
        }
        prop_assert_eq!(verified, expected);
    }
}

proptest! {
    /// Evaluation from an epoch's precomputed totals equals the sweep,
    /// for results and for errors, at threads 1, 2 and 8: the full
    /// id-ordered list takes the totals, and every other list — random
    /// subsets (empty included), a permuted full list, a duplicate id,
    /// an id ≥ N — and totals for another epoch fall back to the sweep.
    #[test]
    fn precomputed_totals_match_the_sweep(
        seed in any::<u64>(),
        n in 1u64..=150,
        epoch in 0u64..1_000_000,
        keep in 0u32..=4,
        draws in proptest::collection::vec(0u32..4, 150),
        picks in any::<[usize; 2]>(),
        flip_bit in 0usize..256,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = SystemParams::new(n).unwrap();
        let aggregator = Aggregator::new(*params.prime());
        let keys = Arc::new(KeyTable::generate(&mut rng, params));
        let querier = Querier::new(Arc::clone(&keys));
        let jobs: Vec<(SourceId, u64)> =
            (0..n as SourceId).map(|i| (i, u64::from(i) * 37 % 4096)).collect();
        let mut psrs = Vec::new();
        keys.initialize_batch_into(&keys.epoch_cipher(epoch), epoch, &jobs, |r| {
            psrs.push(r.unwrap())
        });
        let merged = aggregator.merge(&psrs).unwrap();
        let totals = querier.epoch_totals(epoch);
        let stale = querier.epoch_totals(epoch + 1);

        let all: Vec<SourceId> = (0..n as SourceId).collect();
        let (a, b) = (picks[0] % n as usize, picks[1] % n as usize);
        // From none (keep 0) to all (keep 4) of the sources.
        let subset: Vec<SourceId> = all.iter().copied().filter(|&i| draws[i as usize] < keep).collect();
        let subset_psr = {
            let picked: Vec<Psr> = subset.iter().map(|&i| psrs[i as usize]).collect();
            aggregator.merge(&picked).unwrap_or(merged)
        };
        let mut bytes = merged.to_bytes();
        bytes[flip_bit / 8] ^= 1 << (flip_bit % 8);
        let tampered = Psr::from_bytes(&bytes);

        // (list, final PSR, totals handed over, whether they apply)
        let mut cases = vec![
            (all.clone(), merged, totals, true),
            (all.clone(), tampered, totals, true),
            (all.clone(), merged, stale, false),
            (subset.clone(), subset_psr, totals, false),
            (Vec::new(), merged, totals, false),
        ];
        if n >= 2 {
            let mut permuted = all.clone();
            if a == b {
                permuted.reverse();
            } else {
                permuted.swap(a, b);
            }
            cases.push((permuted, merged, totals, false));
            let mut duplicate = all.clone();
            duplicate[a] = all[if a == b { (b + 1) % n as usize } else { b }];
            cases.push((duplicate, merged, totals, false));
        }
        let mut unknown = all.clone();
        unknown[a] = n as SourceId + (b % 3) as SourceId;
        cases.push((unknown, merged, totals, false));

        for (list, psr, handed, applies) in &cases {
            for threads in [1, 2, 8] {
                let asked = Cell::new(0);
                let got = querier.evaluate_with_totals(psr, epoch, list, threads, |e| {
                    asked.set(asked.get() + 1);
                    assert_eq!(e, epoch);
                    Some(*handed)
                });
                let swept = querier.evaluate_with_totals(psr, epoch, list, threads, |_| None);
                prop_assert!(got == swept, "list {:?} threads {}: {:?} != {:?}", list, threads, got, swept);
                // Only the every-source list in id order consults the
                // totals; whether they apply is their epoch's business.
                let every = *list == all;
                prop_assert!(asked.get() == usize::from(every), "list {:?} asked {}", list, asked.get());
                prop_assert!(!*applies || every);
            }
        }
        // The unknown id surfaces as the sweep's error on both paths.
        let unknown = &cases.last().unwrap().0;
        prop_assert_eq!(
            querier.evaluate_with_totals(&merged, epoch, unknown, 2, |_| Some(totals)),
            Err(SiesError::UnknownSource(unknown[a]))
        );
        // The full list verifies the exact sum; the tampered PSR fails
        // integrity on both paths.
        let sum: u64 = jobs.iter().map(|&(_, v)| v).sum();
        prop_assert_eq!(
            querier.evaluate_with_totals(&merged, epoch, &all, 1, |_| Some(totals)).map(|v| v.sum),
            Ok(sum)
        );
        prop_assert_eq!(querier.evaluate(&merged, epoch).map(|v| v.sum), Ok(sum));
        prop_assert_eq!(
            querier.evaluate_with_totals(&tampered, epoch, &all, 8, |_| Some(totals)),
            Err(SiesError::IntegrityViolation { epoch })
        );
    }
}
