//! The data-parallel primitives: `par_map`, `par_map_indexed`,
//! `par_chunks`.
//!
//! All three share one engine: the input slice is cut into fixed chunks
//! ([`chunk_size_for`], a function of the length only), workers pull chunk
//! indices from an atomic counter, and results are merged by chunk index.
//! The caller's function must be pure (a function of its arguments alone);
//! under that contract the output is byte-identical for every thread
//! count, which the property tests in `tests/par_properties.rs` pin down
//! for the engine setup and every crawling approach.

use crate::budget::{current_threads, IN_WORKER};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many items one chunk holds for an input of `len` items.
///
/// Deliberately a function of `len` *only* — never of the thread count —
/// so the chunk decomposition (and any per-chunk state) is identical at
/// every `SMARTCRAWL_THREADS`. Targets 64 chunks: enough slots to keep any
/// realistic budget busy under dynamic chunk-stealing, few enough that
/// per-chunk overhead stays negligible.
pub fn chunk_size_for(len: usize) -> usize {
    const TARGET_CHUNKS: usize = 64;
    len.div_ceil(TARGET_CHUNKS).max(1)
}

/// Maps `f` over `items` in parallel; `out[i] == f(&items[i])`.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_indexed(items, |_, item| f(item))
}

/// Maps `f(index, item)` over `items` in parallel; `out[i] == f(i, &items[i])`.
pub fn par_map_indexed<T: Sync, U: Send>(items: &[T], f: impl Fn(usize, &T) -> U + Sync) -> Vec<U> {
    let per_chunk = par_chunks(items, |start, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(i, item)| f(start + i, item))
            .collect::<Vec<U>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in per_chunk {
        out.extend(chunk);
    }
    out
}

/// Applies `f(chunk_start, chunk)` to each fixed chunk of `items` in
/// parallel, returning the per-chunk results in chunk order.
///
/// This is the primitive to reach for when a computation wants per-worker
/// scratch state: allocate the scratch once per chunk inside `f` and reuse
/// it across the chunk's items — the chunk boundaries are thread-count
/// independent, so the scratch's lifecycle is too.
pub fn par_chunks<T: Sync, U: Send>(items: &[T], f: impl Fn(usize, &[T]) -> U + Sync) -> Vec<U> {
    let len = items.len();
    if len == 0 {
        return Vec::new();
    }
    let chunk_size = chunk_size_for(len);
    let n_chunks = len.div_ceil(chunk_size);
    let threads = current_threads().min(n_chunks);
    // Sequential fast path: a budget of one, or a call from inside a
    // worker thread (single-level fan-out — see the crate docs).
    if threads <= 1 || IN_WORKER.with(|w| w.get()) {
        return items
            .chunks(chunk_size)
            .enumerate()
            .map(|(ci, c)| f(ci * chunk_size, c))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    IN_WORKER.with(|w| w.set(true));
                    let mut produced: Vec<(usize, U)> = Vec::new();
                    loop {
                        let ci = next.fetch_add(1, Ordering::Relaxed);
                        if ci >= n_chunks {
                            break;
                        }
                        let start = ci * chunk_size;
                        let end = (start + chunk_size).min(len);
                        produced.push((ci, f(start, &items[start..end])));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            // A worker panic is re-raised here, on the calling thread,
            // with the original payload.
            let produced = match handle.join() {
                Ok(p) => p,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (ci, result) in produced {
                slots[ci] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every worker, so every chunk was computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::with_threads;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn chunking_depends_on_length_only() {
        assert_eq!(chunk_size_for(0), 1);
        assert_eq!(chunk_size_for(1), 1);
        assert_eq!(chunk_size_for(64), 1);
        assert_eq!(chunk_size_for(65), 2);
        assert_eq!(chunk_size_for(10_000), 157);
        // The decomposition never changes with the thread budget.
        let boundaries = |_threads: usize| {
            let len = 1000;
            let c = chunk_size_for(len);
            (0..len).step_by(c).collect::<Vec<_>>()
        };
        assert_eq!(boundaries(1), boundaries(16));
    }

    #[test]
    fn par_map_matches_sequential_map_at_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items
            .iter()
            .map(|&x| x.wrapping_mul(2654435761) >> 3)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || {
                par_map(&items, |&x| x.wrapping_mul(2654435761) >> 3)
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_indexed_sees_true_indices() {
        let items = vec!["a"; 300];
        let got = with_threads(4, || par_map_indexed(&items, |i, s| format!("{s}{i}")));
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v, &format!("a{i}"));
        }
    }

    #[test]
    fn par_chunks_preserves_chunk_order_and_coverage() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 2, 7] {
            let spans = with_threads(threads, || {
                par_chunks(&items, |start, chunk| (start, chunk.len()))
            });
            // Spans tile [0, 500) in order.
            let mut cursor = 0;
            for &(start, len) in &spans {
                assert_eq!(start, cursor);
                cursor += len;
            }
            assert_eq!(cursor, items.len());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(with_threads(8, || par_map(&[41u32], |&x| x + 1)), vec![42]);
    }

    #[test]
    fn nested_calls_run_sequentially_without_deadlock() {
        let outer: Vec<u32> = (0..130).collect();
        let got = with_threads(4, || {
            par_map(&outer, |&x| {
                // Nested fan-out: must degrade to the sequential path.
                let inner: Vec<u32> = (0..x % 5).collect();
                par_map(&inner, |&y| y + x).iter().sum::<u32>()
            })
        });
        let expect: Vec<u32> = outer
            .iter()
            .map(|&x| (0..x % 5).map(|y| y + x).sum::<u32>())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let hit = AtomicBool::new(false);
        let items: Vec<u32> = (0..200).collect();
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    if x == 137 {
                        hit.store(true, Ordering::SeqCst);
                        panic!("item 137");
                    }
                    x
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        assert!(hit.load(Ordering::SeqCst));
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "item 137");
    }

    #[test]
    fn large_input_is_fully_covered() {
        let items: Vec<u64> = (0..50_000).collect();
        let sums = with_threads(8, || par_chunks(&items, |_, c| c.iter().sum::<u64>()));
        assert_eq!(sums.iter().sum::<u64>(), items.iter().sum::<u64>());
    }
}
