//! Counting-allocator oracle for SIES on clean runs
//! ([`Engine::run_epochs`]): a warm `threads = 1` epoch makes no heap
//! allocation at all — not in the lane-batched PRF sweeps at the
//! sources, not in the epoch cipher, not in the querier's Σss
//! recomputation, `K_t⁻¹` or decryption — and so none per source,
//! whatever the population. A warm `threads = 2` epoch makes the same
//! few allocations at every population: the scoped spawns of the walk
//! and of the parallel evaluation, and the evaluation's two chunk
//! vectors, 10 in all where a spawn makes 4. A warm recovering epoch
//! over a lossy radio stays within a small constant too: it reuses the
//! walk's buffers and allocates only its reported contributor set. An
//! evaluation over every source of an epoch the prewarm pool holds
//! makes none at threads 1 or 2: it reads the pooled totals and runs no
//! chunked sweep. A deployment holds each source's key once: the heap
//! it leaves resident grows by one 104-byte pre-absorbed key per source.
//! The topology arena is all a built tree leaves on the heap, at most
//! 28 bytes per node, and an engine borrows it without allocating. With
//! telemetry on, a warm 2-thread epoch makes the same allocations as
//! with it off and leaves no heap bytes behind.
//!
//! Lives in its own test binary because the counter is process-wide:
//! any concurrently running test would add its own allocations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sies_core::{SourceId, SystemParams};
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

/// Allocation events of `epochs` verified SIES epochs over `n` sources
/// at `threads`, after two warm-up epochs have grown every reusable
/// buffer.
fn warm_epoch_allocs(n: u64, threads: usize, epochs: u64) -> u64 {
    warm_epochs(n, threads, 2, epochs).0
}

/// Allocation events of `epochs` verified SIES epochs over `n` sources
/// at `threads`, after `warmup` epochs, and the heap bytes those epochs
/// leave behind.
fn warm_epochs(n: u64, threads: usize, warmup: u64, epochs: u64) -> (u64, isize) {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let dep = SiesDeployment::new(&mut rng, SystemParams::new(n).unwrap());
    let topo = Topology::complete_tree(n, 4);
    let mut engine = Engine::new(&dep, &topo).with_threads(Threads::fixed(threads));
    let mut verified = 0u64;
    let mut run = |engine: &mut Engine<'_, SiesDeployment>, first: u64, epochs: u64| {
        engine.run_epochs(
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
    run(&mut engine, 0, warmup);
    let (before, live) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    run(&mut engine, warmup, epochs);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    let left = LIVE.load(Ordering::Relaxed) as isize - live as isize;
    assert_eq!(verified, warmup + epochs);
    (delta, left)
}

/// Allocation events of one empty scoped spawn in this process: 4 in a
/// plain binary, more under a test harness that captures output, which
/// every spawned thread inherits.
fn spawn_allocs() -> u64 {
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
    let before = ALLOCS.load(Ordering::Relaxed);
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
    ALLOCS.load(Ordering::Relaxed) - before
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
    // is about the scheme and the engine.
    sies_telemetry::set_enabled(false);
    let small = warm_epoch_allocs(1024, 1, 4);
    let large = warm_epoch_allocs(4096, 1, 4);
    let parallel = [warm_epoch_allocs(1024, 2, 4), warm_epoch_allocs(4096, 2, 4)];
    let spawn = spawn_allocs();
    let recovering = [warm_recovering_allocs(1024), warm_recovering_allocs(4096)];
    let pooled = [
        pooled_evaluation_allocs(1024, 1),
        pooled_evaluation_allocs(1024, 2),
    ];
    let per_source = (deployment_heap(4096) - deployment_heap(1024)) as f64 / 3072.0;
    let topologies = [topology_heap(1024), topology_heap(4096)];
    // Telemetry on, as by default: a span on a worker thread leaves
    // nothing behind once the worker exits.
    sies_telemetry::set_enabled(true);
    let (traced, traced_left) = warm_epochs(1024, 2, 8, 64);
    sies_telemetry::clear_enabled();
    assert_eq!(
        small, large,
        "SIES epochs allocate per source: {small} allocations over 4 epochs at N=1024, \
         {large} at N=4096"
    );
    assert_eq!(small, 0, "{small} allocations over 4 warm epochs at N=1024");
    assert_eq!(large, 0, "{large} allocations over 4 warm epochs at N=4096");
    assert_eq!(
        parallel[0], parallel[1],
        "2-thread SIES epochs allocate per source: {parallel:?} allocations over 4 epochs \
         at N=1024 and N=4096"
    );
    // Two spawns and two chunk vectors per epoch: 10 where a spawn
    // makes 4, as outside a capturing test harness.
    let budget = 2 * spawn + 2;
    assert!(
        parallel[0] <= 4 * budget,
        "{} allocations over 4 warm 2-thread epochs (budget: {budget} per epoch, \
         a spawn making {spawn})",
        parallel[0]
    );
    assert_eq!(
        traced_left, 0,
        "64 warm 2-thread epochs with telemetry on leave {traced_left} heap bytes"
    );
    assert_eq!(
        traced * 4,
        parallel[0] * 64,
        "telemetry changes a 2-thread epoch's allocations: {traced} over 64 epochs with it \
         on, {} over 4 with it off",
        parallel[0]
    );
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
            per_node <= 28.0,
            "a {nodes}-node tree holds {per_node:.1} heap bytes per node (budget: 28)"
        );
        assert_eq!(engine_held, 0, "an engine over {nodes} nodes holds heap");
    }
}
