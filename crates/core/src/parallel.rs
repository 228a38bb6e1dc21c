//! Order-preserving scoped-thread sharding for epoch pipelines.
//!
//! The engine shards the per-sensor work of one epoch (PRF derivation,
//! encryption, share generation) across a pool of `std::thread::scope`
//! workers. Determinism is preserved *by construction*: every helper here
//! assigns each worker a contiguous, disjoint slice of the input and
//! writes results into the matching slice of the output, so the caller
//! observes exactly the sequence a serial loop would have produced —
//! regardless of thread count or scheduling. No runtime dependency is
//! involved; workers live only for the duration of the call.

use sies_telemetry as tel;
use std::num::NonZeroUsize;

/// Worker-pool sizing for the parallel epoch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Use [`std::thread::available_parallelism`] (falls back to 1 when
    /// the host does not report it).
    Auto,
    /// Exactly this many workers; `Fixed(1)` runs inline with no spawns.
    Fixed(NonZeroUsize),
}

impl Threads {
    /// Builds a fixed thread count, mapping `0` to `Auto`.
    pub fn fixed(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Threads::Fixed(n),
            None => Threads::Auto,
        }
    }

    /// A single-worker (serial) configuration.
    pub const fn serial() -> Self {
        // SAFETY-free const construction: 1 is non-zero.
        match NonZeroUsize::new(1) {
            Some(n) => Threads::Fixed(n),
            None => unreachable!(),
        }
    }

    /// Resolves to a concrete worker count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Threads::Fixed(n) => n.get(),
        }
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::serial()
    }
}

/// Splits `items` into at most `threads` contiguous chunks, applies `f`
/// to each chunk, and returns the per-chunk results **in input order**.
/// The first chunk runs on the calling thread and every other chunk on
/// its own scoped worker ([`for_each_pair_mut`]).
///
/// With `threads <= 1` (or a single chunk) `f` runs inline on the calling
/// thread — the serial and parallel paths execute the same closure over
/// the same chunk boundaries only when `threads` matches, so callers that
/// need byte-identical output across thread counts must combine chunk
/// results with an exactly associative operation (modular addition,
/// integer sums, ordered concatenation — not floating-point folds).
pub fn map_chunks<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_len = items.len().div_ceil(threads.max(1).min(items.len()));
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    let mut out: Vec<Option<U>> = Vec::with_capacity(chunks.len());
    out.resize_with(chunks.len(), || None);
    // One chunk per worker; each worker's whole chunk is one span, so
    // the histogram's spread across samples is the shard imbalance.
    for_each_pair_mut(chunks.len(), &chunks, &mut out, |_, chunk, slot| {
        *slot = Some(f(chunk));
    });
    out.into_iter()
        .map(|slot| slot.expect("every chunk fills its slot"))
        .collect()
}

/// Runs `f(index, &items[i], &mut outs[i])` for every pair, sharding
/// contiguous pair ranges across at most `threads` workers: the first
/// range runs on the calling thread, every other one on its own scoped
/// worker, so `threads` workers cost `threads − 1` spawns. Each worker
/// owns a disjoint `&mut` slice of `outs`, so no synchronization is
/// needed and nothing is allocated here: results land in caller-owned
/// slots. This is the hand-off the epoch walk relies on for its
/// zero-allocation steady state (`threads <= 1` runs fully inline, with
/// no thread scope).
///
/// `f` sees the pair's global index, so output is independent of the
/// chunking.
///
/// # Panics
/// When `items` and `outs` differ in length.
pub fn for_each_pair_mut<T, U, F>(threads: usize, items: &[T], outs: &mut [U], f: F)
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T, &mut U) + Sync,
{
    assert_eq!(
        items.len(),
        outs.len(),
        "for_each_pair_mut needs one output slot per item"
    );
    if items.is_empty() {
        return;
    }
    let run = |base: usize, items: &[T], outs: &mut [U]| {
        let _shard = tel::span!("parallel.shard");
        for (j, (item, out)) in items.iter().zip(outs).enumerate() {
            f(base + j, item, out);
        }
    };
    let workers = threads.max(1).min(items.len());
    if workers == 1 {
        run(0, items, outs);
        return;
    }
    let chunk_len = items.len().div_ceil(workers);
    let (first_in, rest_in) = items.split_at(chunk_len);
    let (first_out, rest_out) = outs.split_at_mut(chunk_len);
    std::thread::scope(|scope| {
        let run = &run;
        for (w, (in_chunk, out_chunk)) in rest_in
            .chunks(chunk_len)
            .zip(rest_out.chunks_mut(chunk_len))
            .enumerate()
        {
            scope.spawn(move || run((w + 1) * chunk_len, in_chunk, out_chunk));
        }
        run(0, first_in, first_out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolve() {
        assert_eq!(Threads::serial().resolve(), 1);
        assert_eq!(Threads::fixed(4).resolve(), 4);
        assert!(Threads::fixed(0).resolve() >= 1); // 0 → Auto
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::default(), Threads::serial());
    }

    #[test]
    fn map_chunks_concatenation_is_order_preserving() {
        let items: Vec<u32> = (0..257).collect();
        for threads in [1, 2, 5, 16] {
            let flat: Vec<u32> = map_chunks(threads, &items, |c| c.to_vec())
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(flat, items, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_exact_sums_are_thread_count_invariant() {
        // Integer sums combine associatively, so any chunking agrees.
        let items: Vec<u64> = (1..=10_000).collect();
        let expected: u64 = items.iter().sum();
        for threads in [1, 2, 3, 8, 33] {
            let total: u64 = map_chunks(threads, &items, |c| c.iter().sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(total, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_chunks_empty_input() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunks(4, &empty, |c| c.len()).is_empty());
    }

    #[test]
    fn for_each_pair_mut_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..513).collect();
        let mut expected = vec![0u64; items.len()];
        for (i, (v, o)) in items.iter().zip(expected.iter_mut()).enumerate() {
            *o = v * 7 + i as u64;
        }
        for threads in [1, 2, 3, 8, 64, 1000] {
            let mut outs = vec![0u64; items.len()];
            for_each_pair_mut(threads, &items, &mut outs, |i, v, o| *o = v * 7 + i as u64);
            assert_eq!(outs, expected, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_pair_mut_empty_input() {
        let empty: Vec<u8> = Vec::new();
        let mut outs: Vec<u8> = Vec::new();
        for_each_pair_mut(4, &empty, &mut outs, |_, _, _| unreachable!());
    }

    #[test]
    #[should_panic(expected = "one output slot per item")]
    fn for_each_pair_mut_rejects_length_mismatch() {
        let mut outs = vec![0u8; 2];
        for_each_pair_mut(1, &[1u8, 2, 3], &mut outs, |_, _, _| {});
    }

    /// The thread each chunk (or pair range) of a parallel helper ran
    /// on, by chunk index.
    fn chunk_threads(run: impl FnOnce(&(dyn Fn(usize) + Sync))) -> Vec<std::thread::ThreadId> {
        let seen = std::sync::Mutex::new(Vec::new());
        run(&|chunk| {
            seen.lock()
                .unwrap()
                .push((chunk, std::thread::current().id()))
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|&(chunk, _)| chunk);
        seen.dedup();
        seen.into_iter().map(|(_, thread)| thread).collect()
    }

    #[test]
    fn map_chunks_runs_the_first_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..40).collect();
        for threads in [2, 3, 8] {
            let threads_seen = chunk_threads(|note| {
                map_chunks(threads, &items, |chunk| {
                    note(chunk[0] / 40usize.div_ceil(threads))
                });
            });
            assert_eq!(threads_seen.len(), threads, "threads = {threads}");
            assert_eq!(threads_seen[0], caller, "threads = {threads}");
            assert!(
                threads_seen[1..].iter().all(|&t| t != caller),
                "threads = {threads}: a later chunk ran on the caller"
            );
        }
    }

    #[test]
    fn for_each_pair_mut_runs_the_first_range_on_the_caller() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..40).collect();
        for threads in [2, 3, 8] {
            let chunk_len = 40usize.div_ceil(threads);
            let mut outs = vec![0u8; items.len()];
            let threads_seen = chunk_threads(|note| {
                for_each_pair_mut(threads, &items, &mut outs, |i, _, _| note(i / chunk_len));
            });
            assert_eq!(threads_seen.len(), threads, "threads = {threads}");
            assert_eq!(threads_seen[0], caller, "threads = {threads}");
            assert!(
                threads_seen[1..].iter().all(|&t| t != caller),
                "threads = {threads}: a later range ran on the caller"
            );
        }
    }
}
