//! Counting-allocator oracle for the streamed epoch pipeline: after a
//! warm-up, a `threads = 1` run performs **zero** heap allocations per
//! epoch at N = 10 000, in both streaming modes.
//!
//! The test swaps in a global allocator that counts `alloc`/`realloc`
//! calls and compares runs of different epoch counts: any per-epoch
//! allocation would make the longer run strictly more expensive. The
//! non-streaming path is additionally held to *zero* allocations for the
//! whole run, not just per epoch.

use sies_net::pipeline::EpochPipeline;
use sies_net::scheme::{AggregationScheme, EvaluatedSum, SchemeError};
use sies_net::{Threads, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System` plus a relaxed counter of allocation events (alloc +
/// realloc; frees are irrelevant to the steady-state claim).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A trivial `Copy`-PSR scheme so the oracle measures the pipeline's own
/// allocations, not a scheme's internal batching.
struct PlainSum;

#[derive(Clone, Copy, Debug, PartialEq)]
struct PlainPsr {
    sum: u64,
    count: u64,
}

impl AggregationScheme for PlainSum {
    type Psr = PlainPsr;

    fn name(&self) -> &'static str {
        "PLAIN"
    }

    fn source_init(&self, _source: u32, _epoch: u64, value: u64) -> PlainPsr {
        PlainPsr {
            sum: value,
            count: 1,
        }
    }

    fn merge(&self, psrs: &[PlainPsr]) -> PlainPsr {
        PlainPsr {
            sum: psrs.iter().map(|p| p.sum).sum(),
            count: psrs.iter().map(|p| p.count).sum(),
        }
    }

    fn evaluate(
        &self,
        final_psr: &PlainPsr,
        _epoch: u64,
        contributors: &[u32],
    ) -> Result<EvaluatedSum, SchemeError> {
        if final_psr.count != contributors.len() as u64 {
            return Err(SchemeError::VerificationFailed("count mismatch".into()));
        }
        Ok(EvaluatedSum {
            sum: final_psr.sum as f64,
            integrity_checked: true,
        })
    }

    fn psr_wire_size(&self, _psr: &PlainPsr) -> usize {
        16
    }

    fn tamper(&self, psr: &mut PlainPsr) {
        psr.sum += 1;
    }
}

/// Runs `epochs` epochs on a warm pipeline and returns how many
/// allocation events the run performed.
fn allocs_for_run(pipeline: &mut EpochPipeline<'_, PlainSum>, first: u64, epochs: u64) -> u64 {
    let mut checksum = 0u64;
    let before = allocs();
    pipeline.run(
        first,
        epochs,
        |epoch, values| {
            for (i, v) in values.iter_mut().enumerate() {
                *v = (epoch.wrapping_mul(31) ^ i as u64) & 0xFFF;
            }
        },
        |report, _, result, _| {
            checksum ^= report.epoch ^ result.as_ref().unwrap().sum.to_bits();
        },
    );
    let delta = allocs() - before;
    assert_ne!(checksum, u64::MAX, "keep the work observable");
    delta
}

#[test]
fn steady_state_epochs_allocate_nothing() {
    // Telemetry spans/gauges would allocate on first touch of each
    // metric; the claim under test is the pipeline's, so switch them off
    // exactly like a headless deployment would (SIES_TELEMETRY=off).
    sies_telemetry::set_enabled(false);

    let topo = Topology::complete_tree(10_000, 4);

    // --- Non-streaming, threads = 1: strictly zero after warm-up. ---
    let mut pipeline = EpochPipeline::new(&PlainSum, &topo, Threads::fixed(1), false);
    allocs_for_run(&mut pipeline, 0, 3); // warm-up grows every buffer
    let steady = allocs_for_run(&mut pipeline, 3, 5);
    assert_eq!(
        steady, 0,
        "non-streaming serial pipeline must not allocate at all once warm"
    );

    // --- Streaming: the scoped producer thread is one fixed per-run
    // cost, so compare two warm runs of different lengths — any
    // per-epoch allocation would separate them. ---
    let mut streaming = EpochPipeline::new(&PlainSum, &topo, Threads::fixed(1), true);
    allocs_for_run(&mut streaming, 0, 3); // warm-up
    let short = allocs_for_run(&mut streaming, 3, 4);
    let long = allocs_for_run(&mut streaming, 7, 24);
    assert_eq!(
        short, long,
        "streaming pipeline allocated per epoch: {short} allocs over 4 epochs \
         vs {long} over 24"
    );

    sies_telemetry::clear_enabled();
}
