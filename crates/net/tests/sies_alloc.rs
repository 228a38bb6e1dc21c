//! Counting-allocator oracle for SIES on the streamed epoch pipeline: a
//! warm `threads = 1` epoch makes no heap allocation at all — not in the
//! lane-batched PRF sweeps at the sources, not in the epoch cipher, not
//! in the querier's Σss recomputation, `K_t⁻¹` or decryption — and so
//! none per source, whatever the population. A warm recovering epoch
//! over a lossy radio stays within a small constant too: it reuses the
//! walk's buffers and allocates only its reported contributor set. An
//! evaluation over every source of an epoch the prewarm pool holds
//! makes none at threads 1 or 2: it reads the pooled totals and runs no
//! chunked sweep. A deployment holds each source's key once: the heap
//! it leaves resident grows by one 104-byte pre-absorbed key per source.
//! The topology arena is all a built tree leaves on the heap, at most
//! 40 bytes per node, and an engine borrows it without allocating.
//!
//! Lives in its own test binary because the counter is process-wide:
//! any concurrently running test would add its own allocations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::{SourceId, SystemParams};
use sies_net::pipeline::EpochPipeline;
use sies_net::radio::LossyRadio;
use sies_net::recovery::RecoveryConfig;
use sies_net::{AggregationScheme, Engine, PrewarmPolicy, SiesDeployment, Threads, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `System` plus relaxed counters of allocation events (alloc +
/// realloc) and of live bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events of `epochs` verified SIES epochs over `n` sources,
/// after two warm-up epochs have grown every reusable buffer.
fn warm_epoch_allocs(n: u64, epochs: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let mut pipeline = EpochPipeline::new(&dep, &topo, Threads::fixed(1), false);
    let mut verified = 0u64;
    let mut run = |pipeline: &mut EpochPipeline<'_, SiesDeployment>, first: u64, epochs: u64| {
        pipeline.run(
            first,
            epochs,
            |epoch, values| {
                for (i, v) in values.iter_mut().enumerate() {
                    *v = (epoch.wrapping_mul(31) ^ i as u64) & 0xFFF;
                }
            },
            |_, _, result, _| {
                assert!(result.as_ref().unwrap().integrity_checked);
                verified += 1;
            },
        );
    };
    run(&mut pipeline, 0, 2);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(&mut pipeline, 2, epochs);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(verified, 2 + epochs);
    delta
}

/// Allocation events of one verified SIES recovering epoch over `n`
/// sources (threads 1, 10 % frame loss, no crash or attack), after two
/// warm-up epochs.
fn warm_recovering_allocs(n: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(1));
    let (radio, recovery) = (LossyRadio::new(0.1, 3), RecoveryConfig::default());
    let none = HashSet::new();
    let values: Vec<u64> = (0..n).map(|i| i & 0xFFF).collect();
    let mut run = |epoch: u64| {
        let out =
            engine.run_epoch_recovering(epoch, &values, &none, &[], &radio, &recovery, &mut rng);
        assert!(out.outcome.result.unwrap().integrity_checked);
    };
    run(0);
    run(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(2);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocation events of one `evaluate_par` over all `n` sources at
/// `threads`, with the epoch pooled by a synchronous `prewarm_derive`,
/// after one warm-up evaluation.
fn pooled_evaluation_allocs(n: u64, threads: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap())
        .with_prewarm(PrewarmPolicy::default());
    let epoch = 7;
    let jobs: Vec<(SourceId, u64)> = (0..n as SourceId)
        .map(|i| (i, u64::from(i) & 0xFFF))
        .collect();
    let psrs: Vec<_> = dep
        .batch_source_init(epoch, &jobs)
        .into_iter()
        .map(Result::unwrap)
        .collect();
    let final_psr = dep.merge(&psrs);
    let all: Vec<SourceId> = (0..n as SourceId).collect();
    assert!(dep.prewarm_derive(epoch));
    let run = || {
        let out = dep.evaluate_par(&final_psr, epoch, &all, threads);
        assert!(out.unwrap().integrity_checked);
    };
    run();
    let before = ALLOCS.load(Ordering::Relaxed);
    run();
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    let stats = dep.prewarm_stats();
    assert_eq!((stats.querier_hits, stats.querier_misses), (2, 0));
    delta
}

/// Heap bytes a freshly built deployment of `n` sources holds.
fn deployment_heap(n: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let before = LIVE.load(Ordering::Relaxed);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(dep);
    held
}

/// Heap bytes a freshly built `complete_tree(n, 4)` holds, with its
/// [`Topology::bytes`] and node count, and the heap an engine over it
/// holds.
fn topology_heap(n: u64) -> (usize, usize, usize, usize) {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let before = LIVE.load(Ordering::Relaxed);
    let topo = Topology::complete_tree(n, 4);
    let held = LIVE.load(Ordering::Relaxed) - before;
    let before = LIVE.load(Ordering::Relaxed);
    let engine = Engine::new(&dep, &topo);
    let engine_held = LIVE.load(Ordering::Relaxed) - before;
    drop(engine);
    (held, topo.bytes(), topo.num_nodes(), engine_held)
}

#[test]
fn warm_sies_epochs_allocate_independently_of_population() {
    // Telemetry would allocate on first touch of each metric; the claim
    // is about the scheme and the pipeline.
    sies_telemetry::set_enabled(false);
    let small = warm_epoch_allocs(1024, 4);
    let large = warm_epoch_allocs(4096, 4);
    let recovering = [warm_recovering_allocs(1024), warm_recovering_allocs(4096)];
    let pooled = [
        pooled_evaluation_allocs(1024, 1),
        pooled_evaluation_allocs(1024, 2),
    ];
    let per_source = (deployment_heap(4096) - deployment_heap(1024)) as f64 / 3072.0;
    let topologies = [topology_heap(1024), topology_heap(4096)];
    sies_telemetry::clear_enabled();
    assert_eq!(
        small, large,
        "SIES epochs allocate per source: {small} allocations over 4 epochs at N=1024, \
         {large} at N=4096"
    );
    assert_eq!(small, 0, "{small} allocations over 4 warm epochs at N=1024");
    assert_eq!(large, 0, "{large} allocations over 4 warm epochs at N=4096");
    assert!(
        recovering.iter().all(|&a| a < 32),
        "warm recovering epochs allocate {recovering:?} times at N=1024 and N=4096"
    );
    assert_eq!(
        pooled,
        [0, 0],
        "pooled evaluations over every source allocate at threads 1 and 2"
    );
    // One 104-byte pre-absorbed key per source, held once for the
    // sources and the querier.
    assert!(
        per_source <= 112.0,
        "a deployment holds {per_source:.1} heap bytes per source (budget: 112)"
    );
    for (held, bytes, nodes, engine_held) in topologies {
        assert_eq!(
            held, bytes,
            "a {nodes}-node tree holds {held} heap bytes, its arena {bytes}"
        );
        let per_node = held as f64 / nodes as f64;
        assert!(
            per_node <= 40.0,
            "a {nodes}-node tree holds {per_node:.1} heap bytes per node (budget: 40)"
        );
        assert_eq!(engine_held, 0, "an engine over {nodes} nodes holds heap");
    }
}
