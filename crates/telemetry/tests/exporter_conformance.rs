//! Exporter-conformance property: the hand-rolled JSON snapshot
//! document must round-trip through an independent JSON parser (the
//! vendored `serde_json`) for *any* registered metric name.

use proptest::prelude::*;
use serde_json::Value;
use sies_telemetry::{HistogramSnapshot, Snapshot};

/// Decodes a byte vector into a deliberately hostile metric name:
/// Latin-1 chars, so quotes, backslashes, control bytes, digits-first
/// names, and high bytes all appear.
fn hostile_name(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| b as char).collect()
}

/// Builds a snapshot exercising every metric family from raw fuzz
/// words.
fn build_snapshot(names: &[Vec<u8>], values: &[u64]) -> Snapshot {
    let mut s = Snapshot::default();
    for (i, raw) in names.iter().enumerate() {
        let name = hostile_name(raw);
        let v = values[i % values.len().max(1)];
        match i % 4 {
            0 => {
                s.counters.insert(name, v);
            }
            1 => {
                s.floats.insert(name, (v % 1_000_000) as f64 / 128.0);
            }
            2 => {
                s.gauges.insert(name, v);
            }
            _ => {
                let mut h = HistogramSnapshot::default();
                // A few samples spread across buckets.
                for k in 0..(v % 5 + 1) {
                    let sample = v.rotate_left(k as u32 * 7);
                    h.buckets[sies_telemetry::metric::bucket_index(sample)] += 1;
                    h.count += 1;
                    h.sum = h.sum.wrapping_add(sample);
                }
                s.hists.insert(name, h);
            }
        }
    }
    s
}

fn as_map(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(m) => m,
        other => panic!("expected JSON object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    as_map(v)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, x)| x)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

proptest! {
    /// The hand-rolled JSON snapshot document parses with an
    /// independent parser and preserves every counter, float, gauge,
    /// and histogram count — including hostile metric names.
    #[test]
    fn json_snapshot_round_trips(
        names in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..16), 1..12),
        values in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        let snap = build_snapshot(&names, &values);
        let doc: Value = serde_json::from_str(&snap.to_json())
            .expect("snapshot JSON must parse");

        let counters = as_map(field(&doc, "counters"));
        prop_assert_eq!(counters.len(), snap.counters.len());
        for (name, &v) in &snap.counters {
            let got = counters.iter().find(|(k, _)| k == name).map(|(_, x)| x);
            match got {
                Some(Value::U64(u)) => prop_assert_eq!(*u, v),
                // Large u64s may parse as f64 in a lenient parser.
                Some(Value::F64(f)) => prop_assert!((*f - v as f64).abs() <= v as f64 * 1e-9),
                Some(Value::I64(i)) => prop_assert_eq!(*i as u64, v),
                other => prop_assert!(false, "counter {name:?} missing/mismatched: {other:?}"),
            }
        }

        let gauges = as_map(field(&doc, "gauges"));
        prop_assert_eq!(gauges.len(), snap.gauges.len());

        let floats = as_map(field(&doc, "floats"));
        for (name, &v) in &snap.floats {
            let got = floats.iter().find(|(k, _)| k == name).map(|(_, x)| x);
            let f = match got {
                Some(Value::F64(f)) => *f,
                Some(Value::U64(u)) => *u as f64,
                Some(Value::I64(i)) => *i as f64,
                other => {
                    prop_assert!(false, "float {name:?} missing: {other:?}");
                    unreachable!()
                }
            };
            prop_assert!((f - v).abs() < 1e-6_f64.max(v.abs() * 1e-9));
        }

        let hists = as_map(field(&doc, "histograms"));
        prop_assert_eq!(hists.len(), snap.hists.len());
        for (name, h) in &snap.hists {
            let entry = hists
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, x)| x)
                .expect("histogram present");
            match field(entry, "count") {
                Value::U64(c) => prop_assert_eq!(*c, h.count),
                other => prop_assert!(false, "bad count {other:?}"),
            }
        }
    }
}
